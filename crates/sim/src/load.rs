//! Load generation and experiment runners.
//!
//! The paper's latency figures use open-loop load (arrivals do not wait for
//! completions), swept across request rates; Figure 8 uses a bursty mix of
//! two applications; Figures 1 and 10 replay the Azure trace. These runners
//! generate the arrival processes, drive a [`PlatformModel`] and collect the
//! latency, cold-start and memory metrics the harness reports.

use std::collections::HashMap;
use std::time::Duration;

use dandelion_common::rng::SplitMix64;
use dandelion_common::{LatencyHistogram, LatencySummary, TimeSeries};
use dandelion_trace::Trace;

use crate::platforms::PlatformModel;
use crate::request::{workloads, RequestSpec};

/// Metrics of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Name of the platform model.
    pub platform: String,
    /// Number of requests served.
    pub requests: usize,
    /// Latency summary across all requests.
    pub latency: LatencySummary,
    /// Number of requests that paid a sandbox cold start.
    pub cold_starts: u64,
    /// Committed-memory time series (1 s resolution).
    pub memory_timeline: TimeSeries,
    /// Time-averaged committed memory in bytes.
    pub average_memory_bytes: f64,
    /// Peak committed memory in bytes.
    pub peak_memory_bytes: f64,
}

/// One point of a latency-vs-throughput sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered load in requests per second.
    pub rps: f64,
    /// Latency summary at this load.
    pub latency: LatencySummary,
    /// Cold-start count at this load.
    pub cold_starts: u64,
}

fn collect(
    model: &mut dyn PlatformModel,
    latency: &LatencyHistogram,
    requests: usize,
    cold_starts: u64,
    horizon: Duration,
) -> RunResult {
    model.finish(horizon);
    let memory_timeline = model.memory().timeline(horizon, Duration::from_secs(1));
    let average_memory_bytes = model.memory().average_bytes(horizon);
    let peak_memory_bytes = memory_timeline.max_value().unwrap_or(0.0);
    RunResult {
        platform: model.name(),
        requests,
        latency: latency.summary(),
        cold_starts,
        memory_timeline,
        average_memory_bytes,
        peak_memory_bytes,
    }
}

/// Runs open-loop Poisson load of `rps` for `duration`.
pub fn run_open_loop(
    model: &mut dyn PlatformModel,
    spec: &RequestSpec,
    rps: f64,
    duration: Duration,
    seed: u64,
) -> RunResult {
    let mut rng = SplitMix64::new(seed);
    let latency = LatencyHistogram::new();
    let mut now = Duration::ZERO;
    let mut requests = 0usize;
    let mut cold_starts = 0u64;
    while now < duration {
        let gap = rng.exponential(rps.max(1e-9));
        now += Duration::from_secs_f64(gap);
        if now >= duration {
            break;
        }
        let done = model.submit(now, spec);
        latency.record(done.latency);
        requests += 1;
        cold_starts += u64::from(done.cold_start);
    }
    collect(model, &latency, requests, cold_starts, duration)
}

/// Sweeps open-loop load over the given request rates, constructing a fresh
/// model for every point.
pub fn sweep_open_loop(
    mut make_model: impl FnMut() -> Box<dyn PlatformModel>,
    spec: &RequestSpec,
    rps_points: &[f64],
    duration: Duration,
    seed: u64,
) -> Vec<SweepPoint> {
    rps_points
        .iter()
        .map(|rps| {
            let mut model = make_model();
            let result = run_open_loop(model.as_mut(), spec, *rps, duration, seed);
            SweepPoint {
                rps: *rps,
                latency: result.latency,
                cold_starts: result.cold_starts,
            }
        })
        .collect()
}

/// A piecewise-constant rate profile: `(from, rps)` segments, each active
/// from its start time until the next segment (or the end of the run).
pub(crate) type RateProfile = Vec<(Duration, f64)>;

/// Runs a mix of applications with time-varying rates (Figure 8's bursty
/// multiplexing experiment). Returns per-application results keyed by the
/// request spec's name.
pub fn run_bursty(
    model: &mut dyn PlatformModel,
    apps: &[(RequestSpec, RateProfile)],
    duration: Duration,
    seed: u64,
) -> HashMap<String, RunResult> {
    // Generate arrivals per application, then merge in time order.
    let mut arrivals: Vec<(Duration, usize)> = Vec::new();
    for (app_index, (_, profile)) in apps.iter().enumerate() {
        let mut rng = SplitMix64::new(seed ^ (app_index as u64 + 1));
        for (segment_index, (start, rps)) in profile.iter().enumerate() {
            let end = profile
                .get(segment_index + 1)
                .map(|(next, _)| *next)
                .unwrap_or(duration)
                .min(duration);
            if *rps <= 0.0 {
                continue;
            }
            let mut now = *start;
            loop {
                now += Duration::from_secs_f64(rng.exponential(*rps));
                if now >= end {
                    break;
                }
                arrivals.push((now, app_index));
            }
        }
    }
    arrivals.sort_by_key(|a| a.0);

    let latencies: Vec<LatencyHistogram> = apps.iter().map(|_| LatencyHistogram::new()).collect();
    let mut counts = vec![0usize; apps.len()];
    let mut cold_starts = vec![0u64; apps.len()];
    for (at, app_index) in arrivals {
        let done = model.submit(at, &apps[app_index].0);
        latencies[app_index].record(done.latency);
        counts[app_index] += 1;
        cold_starts[app_index] += u64::from(done.cold_start);
    }

    model.finish(duration);
    let memory_timeline = model.memory().timeline(duration, Duration::from_secs(1));
    let average_memory_bytes = model.memory().average_bytes(duration);
    let peak_memory_bytes = memory_timeline.max_value().unwrap_or(0.0);
    let platform = model.name();

    apps.iter()
        .enumerate()
        .map(|(index, (spec, _))| {
            (
                spec.name.clone(),
                RunResult {
                    platform: platform.clone(),
                    requests: counts[index],
                    latency: latencies[index].summary(),
                    cold_starts: cold_starts[index],
                    memory_timeline: memory_timeline.clone(),
                    average_memory_bytes,
                    peak_memory_bytes,
                },
            )
        })
        .collect()
}

/// Replays an Azure-like trace against a platform model (Figures 1 and 10).
pub fn run_trace(model: &mut dyn PlatformModel, trace: &Trace) -> RunResult {
    let latency = LatencyHistogram::new();
    let mut requests = 0usize;
    let mut cold_starts = 0u64;
    for event in &trace.events {
        let mut spec = workloads::trace_invocation(event.duration, event.memory_mib);
        spec.name = trace.functions[event.function].name.clone();
        let done = model.submit(event.time, &spec);
        latency.record(done.latency);
        requests += 1;
        cold_starts += u64::from(done.cold_start);
    }
    collect(model, &latency, requests, cold_starts, trace.duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::{DandelionConfig, DandelionSim, MicroVmKind, MicroVmSim, WarmPolicy};
    use crate::request::workloads;
    use dandelion_common::config::IsolationKind;
    use dandelion_isolation::{HardwarePlatform, SandboxCostModel};
    use dandelion_trace::{generate_trace, TraceConfig};

    fn dandelion() -> DandelionSim {
        DandelionSim::new(DandelionConfig::xeon(SandboxCostModel::for_backend(
            IsolationKind::Process,
            HardwarePlatform::X86Linux,
        )))
    }

    #[test]
    fn open_loop_run_produces_latency_summary() {
        let mut model = dandelion();
        let result = run_open_loop(
            &mut model,
            &workloads::matmul_128(),
            500.0,
            Duration::from_secs(5),
            1,
        );
        assert!(result.requests > 2000);
        assert!(result.latency.p50_us > 0.0);
        assert!(result.latency.p99_us >= result.latency.p50_us);
        assert_eq!(result.cold_starts as usize, result.requests);
        assert!(result.average_memory_bytes > 0.0);
    }

    #[test]
    fn sweep_latency_is_monotonic_near_saturation() {
        let points = sweep_open_loop(
            || Box::new(dandelion()),
            &workloads::matmul_128(),
            &[500.0, 4000.0, 8000.0],
            Duration::from_secs(5),
            2,
        );
        assert_eq!(points.len(), 3);
        // Well past saturation (8000 RPS of ~3ms work on 14 cores) the p99
        // must be dramatically higher than at light load.
        assert!(points[2].latency.p99_us > points[0].latency.p99_us * 10.0);
    }

    #[test]
    fn bursty_run_reports_per_application_latency() {
        let mut model = dandelion();
        let apps = vec![
            (
                workloads::image_compression(),
                vec![(Duration::ZERO, 100.0), (Duration::from_secs(5), 300.0)],
            ),
            (
                workloads::log_processing(),
                vec![(Duration::ZERO, 50.0), (Duration::from_secs(5), 400.0)],
            ),
        ];
        let results = run_bursty(&mut model, &apps, Duration::from_secs(10), 3);
        assert_eq!(results.len(), 2);
        let compression = &results["image-compression"];
        let logs = &results["log-processing"];
        assert!(compression.requests > 500);
        assert!(logs.requests > 500);
        // Log processing includes ~22ms of remote latency, so it is slower
        // end-to-end than image compression on an unloaded Dandelion node.
        assert!(logs.latency.p50_us > compression.latency.p50_us);
    }

    #[test]
    fn bursty_run_counts_each_apps_own_cold_starts() {
        // Every Dandelion request pays a sandbox cold start, however many
        // compute phases it has (log processing has three), so each app's
        // count is its own request count, not the model's total.
        let mut model = dandelion();
        let apps = vec![
            (
                workloads::image_compression(),
                vec![(Duration::ZERO, 200.0)],
            ),
            (workloads::log_processing(), vec![(Duration::ZERO, 100.0)]),
        ];
        let results = run_bursty(&mut model, &apps, Duration::from_secs(2), 4);
        for (name, result) in &results {
            assert!(
                result.requests > 100,
                "{name}: {} requests",
                result.requests
            );
            assert_eq!(result.cold_starts as usize, result.requests, "{name}");
        }
    }

    #[test]
    fn trace_replay_tracks_memory() {
        let trace = generate_trace(&TraceConfig {
            functions: 20,
            duration: Duration::from_secs(120),
            seed: 5,
            rate_scale: 1.0,
        });
        let mut dandelion_model = dandelion();
        let dandelion_result = run_trace(&mut dandelion_model, &trace);

        let mut firecracker = MicroVmSim::new(
            MicroVmKind::FirecrackerSnapshot,
            HardwarePlatform::X86Linux,
            16,
            WarmPolicy::Autoscaled {
                autoscaler: crate::autoscaler::KnativeAutoscaler::knative_defaults(),
            },
            9,
        );
        let firecracker_result = run_trace(&mut firecracker, &trace);

        assert_eq!(dandelion_result.requests, trace.len());
        assert_eq!(firecracker_result.requests, trace.len());
        // The keep-alive VMs commit far more memory than Dandelion's
        // per-request contexts (Figure 10).
        assert!(
            firecracker_result.average_memory_bytes > dandelion_result.average_memory_bytes * 4.0,
            "firecracker {} vs dandelion {}",
            firecracker_result.average_memory_bytes,
            dandelion_result.average_memory_bytes
        );
    }
}
