//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! reproduce                   # run every experiment
//! reproduce fig5 table1       # run selected experiments
//! reproduce --list            # list experiment names
//! reproduce --json fig10      # additionally emit the rows as JSON
//! ```

use std::time::Instant;

use dandelion_bench::{run_experiment, ExperimentId};

const FLAGS: [&str; 2] = ["--list", "--json"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, names): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|arg| arg.starts_with("--"));
    if let Some(unknown) = flags.iter().find(|flag| !FLAGS.contains(flag)) {
        eprintln!("unknown flag `{unknown}`; the flags are --list and --json");
        std::process::exit(2);
    }
    let json = flags.contains(&"--json");

    if flags.contains(&"--list") {
        for id in ExperimentId::ALL {
            println!("{}", id.name());
        }
        return;
    }

    let selected: Vec<ExperimentId> = if names.is_empty() {
        ExperimentId::ALL.to_vec()
    } else {
        names
            .iter()
            .map(|name| {
                ExperimentId::parse(name).unwrap_or_else(|| {
                    eprintln!("unknown experiment `{name}`; use --list to see the options");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    for id in selected {
        let start = Instant::now();
        let report = run_experiment(id);
        println!("{report}");
        if json {
            println!("json[{}] = {}", id.name(), report.rows_json());
        }
        println!("  ({} finished in {:.1?})\n", id.name(), start.elapsed());
    }
}
