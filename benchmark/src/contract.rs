//! The benchmark's public contract: every metric by name, unit, direction
//! and (end-to-end only) regression bound. `BENCHMARK.json` at the repo root
//! is generated from these tables (`manifest` subcommand) and a test keeps
//! the two in step, so the file can never promise a metric the code does not
//! print.

use dandelion_common::JsonValue;

use crate::workload::WORKLOADS;

/// Seconds one driver run measures (`--seconds`).
pub const RUN_SECONDS: u64 = 24;

/// One measured value, as printed and recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Bounds were calibrated on the seed commit with four sets of ten runs per
/// workload (README.md, "Calibration"): each is at least three times the
/// quartile spread of a quiet set on any workload and above the widest seen
/// in a disturbed one, capped at the contract's 25 %.
///
/// No latency median is here. `lat_lo_p50_us` spread 3–25 % and
/// `lat_hi_p50_us` 10–20 %; a third of the largest bound the contract allows
/// is 8.3 %. They are printed with the tails in [`PER_LAYER`], and
/// `slo_ok_hi` is the gated latency metric.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rps",
        unit: "req/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "slo_ok_hi",
        unit: "ratio",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "cpu_us_per_req",
        unit: "us",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "rss_peak_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// What a traced run prints, on every workload. README.md's layer table says
/// how each is obtained and which end-to-end metric it should move.
pub const PER_LAYER: [PerLayer; 53] = [
    layer("http.decode_req_us", "us", "lower"),
    layer("http.encode_resp_us", "us", "lower"),
    layer("http.encode_req_us", "us", "lower"),
    layer("http.decode_resp_us", "us", "lower"),
    layer("http.validate_us", "us", "lower"),
    layer("frontend.begin_us", "us", "lower"),
    layer("frontend.respond_us", "us", "lower"),
    layer("frontend.submit_poll_us", "us", "lower"),
    layer("dispatcher.settle_wait_us", "us", "lower"),
    layer("dispatcher.overhead_us", "us", "lower"),
    layer("dispatcher.compute_tasks_per_req", "count", "lower"),
    layer("dispatcher.comm_tasks_per_req", "count", "lower"),
    layer("isolation.execute_us", "us", "lower"),
    layer("isolation.stage.marshal_us", "us", "lower"),
    layer("isolation.stage.load_us", "us", "lower"),
    layer("isolation.stage.transfer_input_us", "us", "lower"),
    layer("isolation.stage.execute_us", "us", "lower"),
    layer("isolation.stage.output_us", "us", "lower"),
    layer("isolation.parse_sets_us", "us", "lower"),
    layer("isolation.encode_sets_us", "us", "lower"),
    layer("isolation.context_cycle_us", "us", "lower"),
    layer("apps.fn_us", "us", "lower"),
    layer("services.call_us", "us", "lower"),
    layer("common.pool_cycle_ns", "ns", "lower"),
    layer("common.rope_write_us", "us", "lower"),
    layer("dsl.register_us", "us", "lower"),
    layer("server.healthz_rtt_us", "us", "lower"),
    layer("server.invoke_rtt_us", "us", "lower"),
    layer("server.transport_us", "us", "lower"),
    layer("server.cpu_user_us_per_req", "us", "lower"),
    layer("server.cpu_sys_us_per_req", "us", "lower"),
    layer("server.ctx_switches_per_req", "count", "lower"),
    layer("server.wakeups_per_req", "count", "lower"),
    layer("server.coalesced_share", "ratio", "higher"),
    layer("gateway.invoke_rtt_us", "us", "lower"),
    layer("gateway.hop_us", "us", "lower"),
    layer("gateway.rewrite_us", "us", "lower"),
    layer("gateway.cpu_us_per_req", "us", "lower"),
    layer("gateway.member_cpu_us_per_req", "us", "lower"),
    layer("gateway.retries_per_req", "ratio", "lower"),
    layer("gateway.upstream_errors_per_req", "ratio", "lower"),
    layer("gateway.member_share_max", "ratio", "lower"),
    layer("loadgen.late_p99_us", "us", "lower"),
    layer("loadgen.cpu_us_per_req", "us", "lower"),
    layer("lat_lo_p50_us", "us", "lower"),
    layer("lat_lo_p99_us", "us", "lower"),
    layer("lat_hi_p50_us", "us", "lower"),
    layer("lat_hi_p99_us", "us", "lower"),
    layer("lat_hi_p999_us", "us", "lower"),
    layer("layerwalk.request_us", "us", "lower"),
    layer("layerwalk.request_p99_us", "us", "lower"),
    layer("layerwalk.request_self_us", "us", "lower"),
    layer("layerwalk.overhead_ratio", "ratio", "lower"),
];

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest() -> JsonValue {
    let text = JsonValue::string;
    JsonValue::object([
        (
            "command",
            JsonValue::array(["bash", "benchmark/run.sh"].map(text)),
        ),
        ("paths", JsonValue::array(["benchmark"].map(text))),
        ("run_seconds", JsonValue::from(RUN_SECONDS)),
        (
            "workloads",
            JsonValue::array(WORKLOADS.iter().map(|workload| {
                JsonValue::object([("name", text(workload.name)), ("why", text(workload.why))])
            })),
        ),
        (
            "end_to_end",
            JsonValue::array(END_TO_END.iter().map(|metric| {
                JsonValue::object([
                    ("name", text(metric.name)),
                    ("unit", text(metric.unit)),
                    ("better", text(metric.better)),
                    ("bound", JsonValue::from(metric.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            JsonValue::array(PER_LAYER.iter().map(|metric| {
                JsonValue::object([
                    ("name", text(metric.name)),
                    ("unit", text(metric.unit)),
                    ("better", text(metric.better)),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_inside_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|metric| metric.name)
            .chain(PER_LAYER.iter().map(|metric| metric.name))
            .collect();
        for (index, name) in names.iter().enumerate() {
            assert!(!names[..index].contains(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|ch: char| ch.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch)));
        }
        assert!(END_TO_END
            .iter()
            .all(|metric| metric.bound > 0.0 && metric.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|metric| metric.name == "setup_s" && metric.unit == "s"));
        assert!(manifest().to_json_string().len() < 64 * 1024);
    }
}
