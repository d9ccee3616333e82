//! What a run leaves behind and how two runs are compared: the kept run
//! record (`out/<utc>-<commit>.json`, never overwritten), the `--repeat`
//! calibration table and the `compare` verdicts.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use dandelion_common::JsonValue;

use crate::contract::{Metric, END_TO_END};
use crate::loadrun::{LoadReport, PhaseReport};
use crate::stats::{median, quartile_spread};
use crate::workload::{Workload, GATEWAY_FLAGS, WORKER_FLAGS};

/// One workload run in one mode.
pub struct RunResult {
    pub workload: &'static Workload,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    /// Every one of them measured on this machine.
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Responses that arrived 2xx but did not verify.
    pub wrong: usize,
    pub loads: Vec<LoadReport>,
    pub walk_iterations: usize,
}

impl RunResult {
    /// An open-loop phase ran later than its lateness bound.
    fn late(&self) -> bool {
        self.loads.iter().any(LoadReport::late)
    }

    /// The single JSON line the driver reads.
    pub fn contract_line(&self) -> String {
        JsonValue::object([
            ("correct", JsonValue::from(self.wrong == 0)),
            ("attempted", JsonValue::from(self.attempted.max(1))),
            ("failed", JsonValue::from(self.failed)),
            ("metrics", self.metrics_json(false)),
        ])
        .to_json_string()
    }

    /// `name → {value, unit}`; the run record also labels each `measured`,
    /// so a modeled number can never sit beside these unmarked.
    fn metrics_json(&self, labelled: bool) -> JsonValue {
        JsonValue::Object(
            self.metrics
                .iter()
                .map(|metric| {
                    let mut entry = vec![
                        ("value", JsonValue::from(metric.value)),
                        ("unit", JsonValue::string(metric.unit)),
                    ];
                    if labelled {
                        entry.push(("kind", JsonValue::string("measured")));
                    }
                    (metric.name.clone(), JsonValue::object(entry))
                })
                .collect(),
        )
    }

    pub fn print(&self) {
        let mode = if self.traced {
            "traced layer walk + layer load runs"
        } else {
            "end to end, tracing off"
        };
        println!(
            "== {} · {mode} · seed {} · {} s",
            self.workload.name, self.seed, self.seconds
        );
        for load in &self.loads {
            let topology = load.topology.name();
            let setups: Vec<String> = load
                .setup_runs_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect();
            println!(
                "   {topology} topology: set-up runs [{}] s",
                setups.join(", ")
            );
            for phase in &load.phases {
                println!("   {}", phase_line(phase));
            }
        }
        if self.walk_iterations > 0 {
            println!("   layer walk: {} iterations", self.walk_iterations);
        }
        for Metric { name, value, unit } in &self.metrics {
            println!("   {name:<36} {value:>14.4} {unit}  (measured)");
        }
        if self.late() {
            println!("   LATE: in a phase the generator ran later than 10 % of the latency limit at p99 (a busy host, or a server slow enough to keep a connection's window full); its latencies count the lateness, but read them as those of a disturbed run");
        }
        if self.wrong > 0 {
            println!(
                "   VERIFICATION FAILED: {} responses were wrong",
                self.wrong
            );
        }
    }

    fn to_json(&self) -> JsonValue {
        let workload = self.workload;
        JsonValue::object([
            ("workload", JsonValue::string(workload.name)),
            ("traced", JsonValue::from(self.traced)),
            ("seed", JsonValue::from(self.seed)),
            ("seconds", JsonValue::from(self.seconds)),
            ("lo_rps", JsonValue::from(workload.lo_rps)),
            ("hi_rps", JsonValue::from(workload.hi_rps)),
            ("limit_us", JsonValue::from(workload.limit_us)),
            ("attempted", JsonValue::from(self.attempted)),
            ("failed", JsonValue::from(self.failed)),
            ("wrong", JsonValue::from(self.wrong)),
            ("late", JsonValue::from(self.late())),
            ("walk_iterations", JsonValue::from(self.walk_iterations)),
            ("metrics", self.metrics_json(true)),
            ("loads", JsonValue::array(self.loads.iter().map(load_json))),
        ])
    }
}

fn phase_line(phase: &PhaseReport) -> String {
    let pacing = match phase.rate_rps {
        Some(rate) => format!("open loop {rate} req/s"),
        None => "closed loop".to_string(),
    };
    let shown = |value: Option<f64>| value.map_or("-".to_string(), |value| format!("{value:.0}"));
    format!(
        "{:<6} {:>5.1} s {pacing:<22} attempted {:>7} failed {:>3}  {:>8.0} req/s  p50 {} us  p99 {} us  late p99 {:.0} us{}",
        phase.name,
        phase.seconds,
        phase.attempted,
        phase.failed,
        phase.rps,
        shown(phase.p50_us),
        shown(phase.p99_us),
        phase.late_p99_us,
        if phase.late { "  LATE" } else { "" },
    )
}

fn optional(value: Option<f64>) -> JsonValue {
    value.map_or(JsonValue::Null, JsonValue::from)
}

fn load_json(load: &LoadReport) -> JsonValue {
    JsonValue::object([
        ("topology", JsonValue::string(load.topology.name())),
        (
            "setup_runs_s",
            JsonValue::array(
                load.setup_runs_s
                    .iter()
                    .map(|seconds| JsonValue::from(*seconds)),
            ),
        ),
        (
            "phases",
            JsonValue::array(load.phases.iter().map(|phase| {
                JsonValue::object([
                    ("name", JsonValue::string(phase.name)),
                    ("seconds", JsonValue::from(phase.seconds)),
                    ("rate_rps", optional(phase.rate_rps)),
                    ("attempted", JsonValue::from(phase.attempted)),
                    ("failed", JsonValue::from(phase.failed)),
                    ("wrong", JsonValue::from(phase.wrong)),
                    ("late_p99_us", JsonValue::from(phase.late_p99_us)),
                    ("late", JsonValue::from(phase.late)),
                    (
                        "windows",
                        JsonValue::array(phase.windows.iter().map(|window| {
                            JsonValue::object([
                                ("dilation", JsonValue::from(window.dilation)),
                                ("verified", JsonValue::from(window.verified)),
                                ("raw_rps", JsonValue::from(window.raw_rps)),
                                ("raw_p50_us", optional(window.raw_p50_us)),
                                ("raw_p99_us", optional(window.raw_p99_us)),
                                ("rps", JsonValue::from(window.rps)),
                                ("p50_us", optional(window.p50_us)),
                                ("p99_us", optional(window.p99_us)),
                                ("cpu_us_per_req", optional(window.cpu_us_per_req)),
                                ("late_p99_us", optional(window.late_p99_us)),
                                ("slo_ok", optional(window.slo_ok)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
    ])
}

/// `YYYYMMDDTHHMMSSZ` for seconds since the epoch (proleptic Gregorian).
pub fn utc_stamp(epoch_seconds: u64) -> String {
    let (days, rest) = (epoch_seconds / 86_400, epoch_seconds % 86_400);
    // Days-to-civil, Howard Hinnant's algorithm, for dates from 1970 on.
    let shifted = days + 719_468;
    let era = shifted / 146_097;
    let day_of_era = shifted % 146_097;
    let year_of_era =
        (day_of_era - day_of_era / 1_460 + day_of_era / 36_524 - day_of_era / 146_096) / 365;
    let day_of_year = day_of_era - (365 * year_of_era + year_of_era / 4 - year_of_era / 100);
    let month_index = (5 * day_of_year + 2) / 153;
    let day = day_of_year - (153 * month_index + 2) / 5 + 1;
    let month = if month_index < 10 {
        month_index + 3
    } else {
        month_index - 9
    };
    let year = year_of_era + era * 400 + u64::from(month <= 2);
    format!(
        "{year:04}{month:02}{day:02}T{:02}{:02}{:02}Z",
        rest / 3_600,
        rest % 3_600 / 60,
        rest % 60
    )
}

fn first_line(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|line| line.starts_with(key))?;
    Some(
        line.split_once(':')
            .map_or(line, |(_, value)| value)
            .trim()
            .to_string(),
    )
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "nogit".to_string())
}

/// Writes the run record and returns its path. An existing file is never
/// replaced: a second record of the same second gets the process id added.
pub fn write_record(out_dir: &Path, runs: &[RunResult]) -> Result<PathBuf, String> {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |since| since.as_secs());
    let commit = commit();
    let stamp = utc_stamp(now);
    let mut path = out_dir.join(format!("{stamp}-{commit}.json"));
    if path.exists() {
        path = out_dir.join(format!("{stamp}-{commit}-{}.json", std::process::id()));
    }
    let machine = JsonValue::object([
        (
            "nproc",
            JsonValue::from(std::thread::available_parallelism().map_or(0, |cores| cores.get())),
        ),
        (
            "kernel",
            JsonValue::string(
                fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or("unknown".into(), |text| text.trim().to_string()),
            ),
        ),
        (
            "cpu_model",
            JsonValue::string(
                first_line("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
    ]);
    let document = JsonValue::object([
        ("utc", JsonValue::string(stamp)),
        ("commit", JsonValue::string(commit)),
        ("machine", machine),
        ("worker_flags", JsonValue::string(WORKER_FLAGS.join(" "))),
        ("gateway_flags", JsonValue::string(GATEWAY_FLAGS.join(" "))),
        (
            "runs",
            JsonValue::array(runs.iter().map(RunResult::to_json)),
        ),
    ]);
    fs::write(&path, document.to_json_string() + "\n")
        .map_err(|error| format!("writing {}: {error}", path.display()))?;
    Ok(path)
}

/// `workload → metric → values`, in run order, of the untraced runs.
type Series = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn series_of_results(runs: &[RunResult]) -> Series {
    let mut series = Series::new();
    for run in runs.iter().filter(|run| !run.traced) {
        for metric in &run.metrics {
            series
                .entry(run.workload.name.into())
                .or_default()
                .entry(metric.name.clone())
                .or_default()
                .push(metric.value);
        }
    }
    series
}

fn series_of_record(path: &str) -> Result<Series, String> {
    let text = fs::read_to_string(path).map_err(|error| format!("reading {path}: {error}"))?;
    let document = JsonValue::parse(&text).map_err(|error| format!("parsing {path}: {error}"))?;
    let runs = document
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or(format!("{path}: no `runs`"))?;
    let mut series = Series::new();
    for run in runs
        .iter()
        .filter(|run| run.get("traced").and_then(JsonValue::as_bool) == Some(false))
    {
        let workload = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or(format!("{path}: run without workload"))?;
        let Some(JsonValue::Object(metrics)) = run.get("metrics") else {
            return Err(format!("{path}: run without metrics"));
        };
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(JsonValue::as_f64) {
                series
                    .entry(workload.into())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(series)
}

/// The calibration table of `--repeat N`: per workload × end-to-end metric,
/// min / median / max and the quartile spread as a share of the median.
pub fn print_repeat_table(runs: &[RunResult]) {
    println!(
        "== repeatability across {} sets (end-to-end metrics, tracing off)",
        runs.iter().filter(|run| !run.traced).count()
    );
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (workload, metrics) in series_of_results(runs) {
        for contract in &END_TO_END {
            let Some(values) = metrics.get(contract.name) else {
                continue;
            };
            let low = values.iter().copied().fold(f64::INFINITY, f64::min);
            let high = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = quartile_spread(values)
                .map_or("-".to_string(), |spread| format!("{:.1}%", spread * 100.0));
            println!(
                "{workload:<12} {:<16} {low:>12.4} {:>12.4} {high:>12.4} {spread:>9} {:>6.0}%",
                contract.name,
                median(values).unwrap_or(f64::NAN),
                contract.bound * 100.0
            );
        }
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    /// The run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
}

/// `change` is the relative move in the metric's *good* direction.
pub fn verdict(change_for_the_better: f64, spread: Option<f64>, bound: f64) -> Verdict {
    match spread {
        Some(spread) if spread > bound => Verdict::Unresolved,
        _ if change_for_the_better < -bound => Verdict::Worse,
        _ if change_for_the_better > bound => Verdict::Improved,
        _ => Verdict::Unchanged,
    }
}

/// `compare <a.json> <b.json>`: one row per workload × end-to-end metric.
/// Every ratio is printed with its base (the median of record `a`).
pub fn compare(base_path: &str, new_path: &str) -> Result<(), String> {
    let (base, new) = (series_of_record(base_path)?, series_of_record(new_path)?);
    println!("base {base_path}\nnew  {new_path}");
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "base median", "new median", "delta", "spread", "bound"
    );
    for (workload, base_metrics) in &base {
        for contract in &END_TO_END {
            let (Some(old), Some(fresh)) = (
                base_metrics.get(contract.name),
                new.get(workload)
                    .and_then(|metrics| metrics.get(contract.name)),
            ) else {
                continue;
            };
            let (Some(old_median), Some(new_median)) = (median(old), median(fresh)) else {
                continue;
            };
            let delta = (new_median - old_median) / old_median;
            let for_the_better = if contract.better == "lower" {
                -delta
            } else {
                delta
            };
            // The wider of the two sides' own spreads; none with one run each.
            let spread = [quartile_spread(old), quartile_spread(fresh)]
                .into_iter()
                .flatten()
                .reduce(f64::max);
            println!(
                "{workload:<12} {:<16} {old_median:>14.4} {new_median:>14.4} {:>+8.1}% {:>8} {:>6.0}%  {:?} ({} runs vs {}, base {old_median:.4} {})",
                contract.name,
                delta * 100.0,
                spread.map_or("-".to_string(), |spread| format!("{:.1}%", spread * 100.0)),
                contract.bound * 100.0,
                verdict(for_the_better, spread, contract.bound),
                fresh.len(),
                old.len(),
                contract.unit,
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_stamps_known_instants() {
        assert_eq!(utc_stamp(0), "19700101T000000Z");
        assert_eq!(utc_stamp(951_782_400), "20000229T000000Z"); // leap day
        assert_eq!(utc_stamp(1_790_000_000), "20260921T141320Z");
    }

    #[test]
    fn verdicts_respect_bound_direction_and_spread() {
        assert_eq!(verdict(0.20, Some(0.02), 0.10), Verdict::Improved);
        assert_eq!(verdict(-0.20, Some(0.02), 0.10), Verdict::Worse);
        assert_eq!(verdict(-0.05, None, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(0.50, Some(0.30), 0.10), Verdict::Unresolved);
    }
}
