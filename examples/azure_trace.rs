//! Azure-trace memory elasticity comparison (paper Figures 1 and 10).
//!
//! ```text
//! cargo run -p dandelion-examples --bin azure_trace --release
//! ```
//!
//! Generates an Azure-Functions-like trace, replays it against a Knative
//! autoscaled Firecracker deployment and against Dandelion (per-request
//! contexts), and prints the committed-memory comparison.

use std::time::Duration;

use dandelion_common::config::IsolationKind;
use dandelion_isolation::{HardwarePlatform, SandboxCostModel};
use dandelion_sim::{
    run_trace, DandelionConfig, DandelionSim, KnativeAutoscaler, MicroVmKind, MicroVmSim,
    WarmPolicy,
};
use dandelion_trace::{generate_trace, TraceConfig};

fn main() {
    let trace = generate_trace(&TraceConfig {
        functions: 100,
        duration: Duration::from_secs(600),
        seed: 42,
        rate_scale: 1.0,
    });
    println!(
        "trace: {} functions, {} invocations over {} s ({:.1} RPS average)",
        trace.functions.len(),
        trace.len(),
        trace.duration.as_secs(),
        trace.average_rps()
    );

    let mut firecracker = MicroVmSim::new(
        MicroVmKind::FirecrackerSnapshot,
        HardwarePlatform::X86Linux,
        16,
        WarmPolicy::Autoscaled {
            autoscaler: KnativeAutoscaler::knative_defaults(),
        },
        1,
    );
    let firecracker_result = run_trace(&mut firecracker, &trace);

    let mut dandelion = DandelionSim::new(DandelionConfig::xeon(SandboxCostModel::for_backend(
        IsolationKind::Process,
        HardwarePlatform::X86Linux,
    )));
    let dandelion_result = run_trace(&mut dandelion, &trace);

    let mib = 1024.0 * 1024.0;
    println!(
        "\n{:<34}{:>18}{:>14}",
        "metric", "FC + Knative", "Dandelion"
    );
    println!(
        "{:<34}{:>18.0}{:>14.0}",
        "average committed memory [MB]",
        firecracker_result.average_memory_bytes / mib,
        dandelion_result.average_memory_bytes / mib
    );
    println!(
        "{:<34}{:>18.0}{:>14.0}",
        "peak committed memory [MB]",
        firecracker_result.peak_memory_bytes / mib,
        dandelion_result.peak_memory_bytes / mib
    );
    println!(
        "{:<34}{:>18.1}{:>14.1}",
        "p99 latency [ms]",
        firecracker_result.latency.p99_ms(),
        dandelion_result.latency.p99_ms()
    );
    println!(
        "{:<34}{:>17.1}%{:>14}",
        "cold invocations",
        100.0 * firecracker_result.cold_starts as f64 / trace.len() as f64,
        "100%"
    );
    println!(
        "\nDandelion commits {:.0}% less memory on average (paper: 96%).",
        100.0
            * (1.0
                - dandelion_result.average_memory_bytes / firecracker_result.average_memory_bytes)
    );

    // A coarse committed-memory timeline (10 buckets) for both systems.
    println!("\ncommitted memory over time [MB]:");
    let buckets = 10;
    let fc = firecracker_result.memory_timeline.downsample(buckets);
    let dd = dandelion_result.memory_timeline.downsample(buckets);
    for (fc_point, dd_point) in fc.points().iter().zip(dd.points()) {
        println!(
            "  t={:>4.0}s  firecracker {:>8.0}  dandelion {:>8.0}",
            fc_point.0.as_secs_f64(),
            fc_point.1 / mib,
            dd_point.1 / mib
        );
    }
}
