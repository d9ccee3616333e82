//! The repo's reference benchmark. See `README.md` next to `Cargo.toml` for
//! what it measures and why; `run.sh` is the one command that builds and
//! runs it.
//!
//! ```text
//! dandelion-benchmark run --server-bin PATH [--workload NAME] [--seed N]
//!                         [--seconds S] [--trace 0|1] [--quick] [--repeat N]
//! dandelion-benchmark compare <a.json> <b.json>
//! dandelion-benchmark manifest
//! ```
//!
//! With `--workload` it is the driver's contract: one workload, one mode,
//! one JSON line last on stdout. Without, it runs all four workloads in
//! both modes and prints every metric by name.

mod children;
mod client;
mod contract;
mod layerwalk;
mod loadgen;
mod loadrun;
mod procfs;
mod record;
mod schedule;
mod spans;
mod stats;
mod sys;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use contract::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use loadrun::{LoadRun, Plan};
use record::RunResult;
use workload::{Topology, Workload, WORKLOADS};

/// Where traces, run records and the children's stderr go; `run.sh` runs
/// the benchmark from the repo root.
const OUT_DIR: &str = "benchmark/out";
/// `--quick`: seconds per workload and mode, so all four workloads in both
/// modes finish in about 20 s. The numbers are for checking the harness.
const QUICK_SECONDS: f64 = 0.8;

/// Shortest load run of a traced run: never so little (`--quick`) that a
/// phase of the slowest workload sees no request.
const MIN_LAYER_LOAD_SECONDS: f64 = 0.6;
/// Share of a direct workload's traced load budget that goes to the gateway
/// topology (see `run_traced`).
const GATEWAY_PROBE_SHARE: f64 = 0.2;

struct Options {
    server_bin: PathBuf,
    workloads: Vec<&'static Workload>,
    /// `None`: both modes.
    trace: Option<bool>,
    /// The driver's mode: one workload, the contract's JSON line.
    contract: bool,
    seed: u64,
    seconds: f64,
    repeat: usize,
}

fn usage() -> String {
    "usage: dandelion-benchmark run --server-bin PATH [--workload NAME] [--seed N] [--seconds S] \
     [--trace 0|1] [--quick] [--repeat N]\n       dandelion-benchmark compare <a.json> <b.json>\n       \
     dandelion-benchmark manifest"
        .to_string()
}

fn parse_run_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        server_bin: PathBuf::new(),
        workloads: WORKLOADS.iter().collect(),
        trace: None,
        contract: false,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        repeat: 1,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            options.seconds = QUICK_SECONDS;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag} expects a number, got `{value}`"))
        };
        match flag.as_str() {
            "--server-bin" => options.server_bin = PathBuf::from(value),
            "--workload" => {
                let known: Vec<&str> = WORKLOADS.iter().map(|workload| workload.name).collect();
                let workload = workload::find(value).ok_or_else(|| {
                    format!("unknown workload `{value}`; known: {}", known.join(", "))
                })?;
                options.workloads = vec![workload];
                options.contract = true;
            }
            "--seed" => {
                options.seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got `{value}`"))?
            }
            "--seconds" => options.seconds = number()?,
            "--trace" => options.trace = Some(number()? != 0.0),
            "--repeat" => options.repeat = number()? as usize,
            _ => return Err(format!("unknown flag `{flag}`\n{}", usage())),
        }
    }
    if options.contract && options.trace.is_none() {
        options.trace = Some(false);
    }
    if !(options.seconds > 0.0 && options.seconds <= 600.0) || options.repeat == 0 {
        return Err("--seconds must be in (0, 600] and --repeat at least 1".to_string());
    }
    if !options.server_bin.is_file() {
        return Err(format!(
            "--server-bin `{}` is not a file; build it with `cargo build --release -p dandelion-server --bin dandelion-serve`",
            options.server_bin.display()
        ));
    }
    Ok(options)
}

/// The end-to-end run: real processes, tracing off.
fn run_end_to_end(
    speedometer: &sys::Speedometer,
    options: &Options,
    workload: &'static Workload,
    seed: u64,
) -> Result<RunResult, String> {
    let pool = workload.build_pool(seed)?;
    let load = loadrun::run(&LoadRun {
        speedometer,
        bin: &options.server_bin,
        workload,
        topology: workload.topology,
        pool: &pool,
        seed,
        plan: Plan::full(options.seconds),
        lo_rps: workload.lo_rps,
        hi_rps: workload.hi_rps,
        out_dir: Path::new(OUT_DIR),
    })?;
    Ok(RunResult {
        workload,
        traced: false,
        seed,
        seconds: options.seconds,
        metrics: load.end_to_end.clone(),
        attempted: load.attempted(),
        failed: load.failed(),
        wrong: load.wrong(),
        loads: vec![load],
        walk_iterations: 0,
    })
}

/// The traced run: the layer walk for at most half of `--seconds`, then the
/// workload's traffic against its own topology for the layer metrics only
/// `/proc` and `/v1/stats` can give.
///
/// The driver's contract wants every per-layer metric from every workload,
/// so a direct workload also sends its traffic through a gateway for a short
/// while, at the `lo` rate, and takes only the `gateway.*` metrics from that.
fn run_traced(
    speedometer: &sys::Speedometer,
    options: &Options,
    workload: &'static Workload,
    seed: u64,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let pool = workload.build_pool(seed)?;
    let out_dir = Path::new(OUT_DIR);
    let walk = layerwalk::run(
        speedometer,
        workload,
        &pool,
        Duration::from_secs_f64(options.seconds / 2.0),
        out_dir,
    )?;
    let left = options.seconds - started.elapsed().as_secs_f64();
    let load = |topology: Topology, seconds: f64, hi_rps: f64| {
        loadrun::run(&LoadRun {
            speedometer,
            bin: &options.server_bin,
            workload,
            topology,
            pool: &pool,
            seed,
            plan: Plan::layers(seconds.max(MIN_LAYER_LOAD_SECONDS)),
            lo_rps: workload.lo_rps,
            hi_rps,
            out_dir,
        })
    };
    let mut metrics = walk.metrics;
    let mut loads = Vec::new();
    if workload.topology == Topology::Gateway {
        let own = load(Topology::Gateway, left, workload.hi_rps)?;
        metrics.extend(own.layers.iter().cloned());
        loads.push(own);
    } else {
        let own = load(
            Topology::Direct,
            left * (1.0 - GATEWAY_PROBE_SHARE),
            workload.hi_rps,
        )?;
        metrics.extend(own.layers.iter().cloned());
        loads.push(own);
        // The rates are sized for the direct worker; the gateway has another
        // capacity and is only asked for per-request costs.
        let probe = load(
            Topology::Gateway,
            left * GATEWAY_PROBE_SHARE,
            workload.lo_rps,
        )?;
        let gateway_only = |metric: &&Metric| metric.name.starts_with("gateway.");
        metrics.extend(probe.layers.iter().filter(gateway_only).cloned());
        loads.push(probe);
    }
    Ok(RunResult {
        workload,
        traced: true,
        seed,
        seconds: options.seconds,
        metrics,
        attempted: walk.iterations + loads.iter().map(|load| load.attempted()).sum::<usize>(),
        failed: loads.iter().map(|load| load.failed()).sum(),
        wrong: loads.iter().map(|load| load.wrong()).sum(),
        loads,
        walk_iterations: walk.iterations,
    })
}

/// Fails when a run does not print exactly the metrics `BENCHMARK.json`
/// promises for its mode.
fn check_against_contract(result: &RunResult) -> Result<(), String> {
    let promised: Vec<&str> = if result.traced {
        PER_LAYER.iter().map(|metric| metric.name).collect()
    } else {
        END_TO_END.iter().map(|metric| metric.name).collect()
    };
    let printed: Vec<&str> = result
        .metrics
        .iter()
        .map(|metric| metric.name.as_str())
        .collect();
    let missing: Vec<&&str> = promised
        .iter()
        .filter(|name| !printed.contains(name))
        .collect();
    let extra: Vec<&&str> = printed
        .iter()
        .filter(|name| !promised.contains(name))
        .collect();
    let not_finite: Vec<&str> = result
        .metrics
        .iter()
        .filter(|metric| !metric.value.is_finite())
        .map(|metric| metric.name.as_str())
        .collect();
    if missing.is_empty() && extra.is_empty() && not_finite.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{}: metrics differ from the contract: missing {missing:?}, unexpected {extra:?}, not finite {not_finite:?}",
        result.workload.name
    ))
}

fn run(options: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|error| format!("creating {OUT_DIR}: {error}"))?;
    sys::install_interrupt_flag();
    let speedometer = sys::Speedometer::start();
    println!(
        "dandelion benchmark: {} generator connections, loopback, server flags `{}`; closed loop for peak_rps, open loop (Poisson) for lat_*/slo_*/cpu_*; times and rates are reference time (measured x machine speed / {} iterations per ms); open-loop arrivals are the seed's, played on a clock stretched by that speed",
        loadrun::connections(),
        workload::WORKER_FLAGS.join(" "),
        sys::REFERENCE_SPEED
    );
    let mut results = Vec::new();
    for set in 0..options.repeat {
        let seed = options.seed + set as u64;
        for workload in &options.workloads {
            for traced in [false, true] {
                if options.trace.is_some_and(|only| only != traced) {
                    continue;
                }
                let result = if traced {
                    run_traced(&speedometer, options, workload, seed)?
                } else {
                    run_end_to_end(&speedometer, options, workload, seed)?
                };
                result.print();
                check_against_contract(&result)?;
                results.push(result);
                if sys::interrupted() {
                    return Err("interrupted".to_string());
                }
            }
        }
    }
    if options.repeat > 1 {
        record::print_repeat_table(&results);
    }
    let path = record::write_record(Path::new(OUT_DIR), &results)?;
    println!("run record: {}", path.display());
    let verified = results.iter().all(|result| result.wrong == 0);
    if options.contract {
        // Last line of stdout: the one JSON object the driver reads.
        let last = results.last().ok_or("nothing ran")?;
        println!("{}", last.contract_line());
    }
    Ok(verified)
}

fn main() -> ExitCode {
    sys::remember_original_cpus();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_options(&args[1..]).and_then(|options| run(&options)),
        Some("compare") if args.len() == 3 => record::compare(&args[1], &args[2]).map(|()| true),
        Some("manifest") => {
            println!("{}", contract::manifest().to_json_string());
            Ok(true)
        }
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("verification failed: at least one response was wrong");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
