//! The load run: spawn the real `dandelion-serve` processes, drive them over
//! loopback through warm-up → closed-loop `peak` → open-loop `lo` (in the
//! traced run only) → open-loop `hi`, verify every response, and read CPU,
//! context switches and memory of the server processes from `/proc`. Nothing
//! here traces the server.
//!
//! # Reference time
//!
//! The recorded machine is a VM on a shared host whose effective speed for
//! ordinary code swings by up to 1.6x for seconds to minutes at a time
//! (README.md, "Why times are normalised"). So the [`Speedometer`] times a
//! fixed calibration kernel on the server's CPU, in the gaps the server
//! leaves during every window and in a pause around it, and the benchmark
//! reports *reference time*: durations are multiplied, and rates divided, by
//! `speed / REFERENCE_SPEED`. An open-loop window's arrivals are generated
//! from `--seed` at the workload's rate *in reference time* and played on a
//! clock stretched by the speed read just before the window, so a
//! slowed-down window is the same queueing system played in slow motion.
//! At a fixed wall-clock rate a machine running at 70 % would be loaded
//! 1.4x as heavily, and neither latency nor CPU per request (which falls as
//! batches grow) would repeat. Raw values and the speed of every window are
//! kept in the run record.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use dandelion_common::JsonValue;

use crate::children::Cluster;
use crate::client::{self, Framed};
use crate::contract::Metric;
use crate::loadgen::{drive, Driven, Pace, Sample};
use crate::procfs::{self, CpuTime};
use crate::schedule::{derive_seed, poisson_schedule};
use crate::stats::{median, percentile, window_median_percentile};
use crate::sys::{self, Speedometer};
use crate::workload::{Exchange, Topology, Workload, RESPONSE_DEADLINE};

/// Windows per phase; a reported value is the median of the per-window
/// values.
pub const WINDOWS: usize = 12;
/// Closed-loop window per connection in the `peak` phase.
const PEAK_WINDOW: usize = 8;
/// A phase whose generator ran later than this share of the workload's
/// latency limit (at p99) is flagged `LATE`. Its numbers stand, because
/// latency is timed from the scheduled send and so already counts the
/// lateness, but a reader should know the offered load was not the one named.
const LATE_SHARE_OF_LIMIT: f64 = 0.10;
/// Pause around every window that leaves the server's CPU to the
/// speedometer, so even a window that saturates it has a speed reading.
const GAP: Duration = Duration::from_millis(25);

/// Connections (= generator threads): `min(nproc, 2)`.
pub fn connections() -> usize {
    sys::cpu_count().min(2)
}

/// How `--seconds` is split. Set-up is extra and reported as `setup_s`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub peak: Duration,
    /// Zero: no `lo` phase.
    pub lo: Duration,
    pub hi: Duration,
    /// Times the topology is set up; `setup_s` is their median and the last
    /// one serves the run.
    pub setups: usize,
}

impl Plan {
    /// The end-to-end run: the phases an end-to-end metric comes from.
    pub fn full(seconds: f64) -> Plan {
        Plan {
            warmup: Duration::from_secs_f64(seconds * 0.08),
            peak: Duration::from_secs_f64(seconds * 0.40),
            lo: Duration::ZERO,
            hi: Duration::from_secs_f64(seconds * 0.52),
            setups: 5,
        }
    }

    /// The load run a traced run adds for the latency, `/proc` and
    /// `/v1/stats` layer metrics: every phase, one set-up.
    pub fn layers(seconds: f64) -> Plan {
        Plan {
            warmup: Duration::from_secs_f64(seconds * 0.10),
            peak: Duration::from_secs_f64(seconds * 0.25),
            lo: Duration::from_secs_f64(seconds * 0.20),
            hi: Duration::from_secs_f64(seconds * 0.45),
            setups: 1,
        }
    }
}

/// One window of one phase: what was measured, and the same in reference
/// time.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Machine speed during the window as a share of the reference.
    pub dilation: f64,
    pub verified: usize,
    pub raw_rps: f64,
    pub raw_p50_us: Option<f64>,
    pub raw_p99_us: Option<f64>,
    pub rps: f64,
    pub p50_us: Option<f64>,
    pub p99_us: Option<f64>,
    /// On-CPU time of every server process per verified response.
    pub cpu_us_per_req: Option<f64>,
    /// How late the generator sent, at p99 (reference time, like the limit
    /// it is judged against).
    pub late_p99_us: Option<f64>,
    /// Share of the window's requests answered right within the limit.
    pub slo_ok: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub name: &'static str,
    pub seconds: f64,
    /// Offered rate of an open-loop phase, in reference time.
    pub rate_rps: Option<f64>,
    pub attempted: usize,
    /// Attempted and not verified: lost, timed out, refused or wrong.
    pub failed: usize,
    /// Answered 2xx with the wrong body (or without the gateway's node
    /// header): a correctness failure, not just an unavailable server.
    pub wrong: usize,
    /// Median of the windows' values, like every reported percentile: one
    /// window the host stalled in neither moves a metric nor flags the phase.
    pub late_p99_us: f64,
    /// An open-loop phase whose `late_p99_us` is over the lateness bound.
    pub late: bool,
    /// Median of the windows' shares, like `late_p99_us`.
    pub slo_ok: Option<f64>,
    /// Medians over the windows, in reference time: what the metrics report.
    pub rps: f64,
    pub p50_us: Option<f64>,
    pub p99_us: Option<f64>,
    pub cpu_us_per_req: Option<f64>,
    pub windows: Vec<WindowRow>,
}

pub struct LoadReport {
    pub topology: Topology,
    /// Reference seconds of each set-up.
    pub setup_runs_s: Vec<f64>,
    pub phases: Vec<PhaseReport>,
    /// The end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Layer metrics only a load run can give.
    pub layers: Vec<Metric>,
}

impl LoadReport {
    pub fn attempted(&self) -> usize {
        self.phases.iter().map(|phase| phase.attempted).sum()
    }

    /// Requests without a verified response. Nothing else: a `LATE` phase
    /// is a property of the machine the run had, not of an operation.
    pub fn failed(&self) -> usize {
        self.phases.iter().map(|phase| phase.failed).sum()
    }

    pub fn wrong(&self) -> usize {
        self.phases.iter().map(|phase| phase.wrong).sum()
    }

    pub fn late(&self) -> bool {
        self.phases.iter().any(|phase| phase.late)
    }
}

/// What the tick counters and `/v1/stats` say at one instant (the exact
/// on-CPU times are taken per window instead).
struct Snapshot {
    /// One entry per process, in `Cluster::processes` order.
    cpu: Vec<CpuTime>,
    ctx_switches: u64,
    front_stats: JsonValue,
    /// `posted` and `wakeups` summed over the event loops of every process.
    posted: f64,
    wakeups: f64,
}

fn proc_error(error: std::io::Error) -> String {
    format!("reading /proc: {error}")
}

fn snapshot(cluster: &Cluster) -> Result<Snapshot, String> {
    let mut cpu = Vec::new();
    let mut ctx_switches = 0;
    for process in cluster.processes() {
        cpu.push(procfs::cpu_time(process.pid()).map_err(proc_error)?);
        ctx_switches += procfs::task_totals(process.pid())
            .map_err(proc_error)?
            .ctx_switches;
    }
    let (mut posted, mut wakeups) = (0.0, 0.0);
    for process in cluster.processes() {
        let stats = process.get_json("/v1/stats")?;
        posted += loop_counter(&stats, "posted");
        wakeups += loop_counter(&stats, "wakeups");
    }
    Ok(Snapshot {
        cpu,
        ctx_switches,
        front_stats: cluster.front().get_json("/v1/stats")?,
        posted,
        wakeups,
    })
}

fn on_cpu_us(cluster: &Cluster) -> Result<Vec<f64>, String> {
    cluster
        .processes()
        .map(|process| {
            procfs::task_totals(process.pid())
                .map(|totals| totals.on_cpu_us)
                .map_err(proc_error)
        })
        .collect()
}

/// Sum of a counter over one process's event loops.
fn loop_counter(stats: &JsonValue, key: &str) -> f64 {
    stats
        .get("server")
        .and_then(|server| server.get("loops"))
        .and_then(JsonValue::as_array)
        .map_or(0.0, |loops| {
            loops
                .iter()
                .filter_map(|entry| entry.get(key).and_then(JsonValue::as_f64))
                .sum()
        })
}

fn counter(stats: &JsonValue, key: &str) -> f64 {
    stats.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// How a phase paces its connections.
#[derive(Clone, Copy)]
enum Pacing {
    Closed,
    /// Poisson arrivals at this total rate (in reference time); `stream`
    /// separates the phases' random streams.
    Open {
        rate_rps: f64,
        stream: u64,
    },
}

struct WindowSamples {
    samples: Vec<Sample>,
    dilation: f64,
    /// On-CPU microseconds each server process spent during the window.
    server_cpu_us: Vec<f64>,
}

impl WindowSamples {
    /// Latencies of the verified responses, in reference time.
    fn latencies_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples
            .iter()
            .filter_map(Sample::latency_us)
            .map(|raw| raw * self.dilation)
    }
}

/// One phase: its windows, plus the generator's own CPU time.
struct PhaseSamples {
    windows: Vec<WindowSamples>,
    generator_cpu_us: f64,
}

impl PhaseSamples {
    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.windows.iter().flat_map(|window| &window.samples)
    }

    fn verified(&self) -> usize {
        self.all().filter(|sample| sample.ok).count()
    }

    /// Reference on-CPU microseconds of server process `index` over the phase.
    fn process_cpu_us(&self, index: usize) -> f64 {
        self.windows
            .iter()
            .map(|window| window.server_cpu_us[index] * window.dilation)
            .sum()
    }
}

/// Runs one phase as [`WINDOWS`] windows. Every window opens fresh
/// connections on fresh generator threads, so no window inherits the
/// previous one's backlog, with a [`GAP`] before and after.
fn run_phase(
    speedometer: &Speedometer,
    cluster: &Cluster,
    pool: &[Exchange],
    seed: u64,
    pacing: Pacing,
    duration: Duration,
    verify: &(dyn Fn(&Framed, &[u8], &Exchange) -> bool + Sync),
) -> Result<PhaseSamples, String> {
    let addr: SocketAddr = cluster.front().addr;
    let connections = connections();
    let window = duration / WINDOWS as u32;
    let mut phase = PhaseSamples {
        windows: Vec::with_capacity(WINDOWS),
        generator_cpu_us: 0.0,
    };
    // A short (`--quick`) window gets a pause in proportion.
    let gap = GAP.min(window / 4);
    let mut gap_start = speedometer.mark();
    std::thread::sleep(gap);
    let mut before = speedometer.dilation(gap_start, speedometer.mark());
    for window_index in 0..WINDOWS {
        let paces: Vec<Pace> = (0..connections)
            .map(|connection| match pacing {
                Pacing::Closed => Pace::Closed {
                    window: PEAK_WINDOW,
                    duration: window,
                },
                // Independent Poisson processes of `rate / connections`
                // superpose to one Poisson process of `rate`. Exponential
                // gaps at `rate * speed` are the seed's gaps at `rate`
                // divided by `speed`: the same arrivals on a stretched clock.
                Pacing::Open { rate_rps, stream } => Pace::Open {
                    schedule: poisson_schedule(
                        derive_seed(
                            seed,
                            (stream * 64 + window_index as u64) * 64 + connection as u64,
                        ),
                        rate_rps * before / connections as f64,
                        window,
                    ),
                },
            })
            .collect();
        let cpu_before = on_cpu_us(cluster)?;
        let driven: Vec<Driven> = std::thread::scope(|scope| {
            let drivers: Vec<_> = paces
                .iter()
                .enumerate()
                .map(|(index, pace)| {
                    scope.spawn(move || {
                        sys::set_affinity(sys::generator_cpu(index));
                        // Stagger the pool so connections do not send the
                        // same payload in lockstep.
                        drive(addr, pool, index * pool.len() / connections, pace, verify)
                    })
                })
                .collect();
            drivers
                .into_iter()
                .map(|driver| driver.join().expect("a generator thread panicked"))
                .collect()
        });
        let cpu_after = on_cpu_us(cluster)?;
        let window_end = speedometer.mark();
        std::thread::sleep(gap);
        let gap_end = speedometer.mark();
        phase.generator_cpu_us += driven.iter().map(|driven| driven.cpu_us).sum::<f64>();
        // Leading pause, window, trailing pause.
        let dilation = speedometer.dilation(gap_start, gap_end);
        phase.windows.push(WindowSamples {
            samples: driven
                .into_iter()
                .flat_map(|driven| driven.samples)
                .collect(),
            dilation,
            server_cpu_us: cpu_after
                .iter()
                .zip(&cpu_before)
                .map(|(after, before)| after - before)
                .collect(),
        });
        // The next window's clock follows the reading just taken, which is of
        // the same kind as the one its times will be scaled by.
        before = dilation;
        gap_start = window_end;
        if sys::interrupted() {
            return Err("interrupted".to_string());
        }
    }
    Ok(phase)
}

/// Per-window values and their medians for one phase.
fn summarize(
    name: &'static str,
    duration: Duration,
    pacing: Pacing,
    limit_us: f64,
    phase: &PhaseSamples,
) -> PhaseReport {
    let window_seconds = duration.as_secs_f64() / WINDOWS as f64;
    let window_ns = (window_seconds * 1e9) as u64;
    let rate_rps = match pacing {
        Pacing::Open { rate_rps, .. } => Some(rate_rps),
        Pacing::Closed => None,
    };
    let latencies: Vec<Vec<f64>> = phase
        .windows
        .iter()
        .map(|window| window.latencies_us().collect())
        .collect();
    let windows: Vec<WindowRow> = phase
        .windows
        .iter()
        .zip(&latencies)
        .map(|(window, latencies)| {
            // Throughput counts what completed inside the window; closed-loop
            // stragglers that finish after it would flatter a slow server.
            let verified = window
                .samples
                .iter()
                .filter(|sample| {
                    sample.ok
                        && sample
                            .done_ns
                            .is_some_and(|done| rate_rps.is_some() || done <= window_ns)
                })
                .count();
            let raw_rps = verified as f64 / window_seconds;
            let (p50_us, p99_us) = (percentile(latencies, 50.0), percentile(latencies, 99.0));
            let all_verified = window.samples.iter().filter(|sample| sample.ok).count();
            WindowRow {
                dilation: window.dilation,
                verified,
                raw_rps,
                raw_p50_us: p50_us.map(|us| us / window.dilation),
                raw_p99_us: p99_us.map(|us| us / window.dilation),
                rps: raw_rps / window.dilation,
                p50_us,
                p99_us,
                cpu_us_per_req: (all_verified > 0).then(|| {
                    window.server_cpu_us.iter().sum::<f64>() * window.dilation / all_verified as f64
                }),
                late_p99_us: percentile(
                    &window
                        .samples
                        .iter()
                        .map(|sample| sample.late_us() * window.dilation)
                        .collect::<Vec<f64>>(),
                    99.0,
                ),
                slo_ok: (!window.samples.is_empty()).then(|| {
                    let within = latencies.iter().filter(|latency| **latency <= limit_us);
                    within.count() as f64 / window.samples.len() as f64
                }),
            }
        })
        .collect();
    let middle = |value: fn(&WindowRow) -> Option<f64>| {
        let values: Vec<f64> = windows.iter().filter_map(value).collect();
        median(&values)
    };
    let late_p99_us = middle(|window| window.late_p99_us).unwrap_or(0.0);
    PhaseReport {
        name,
        seconds: duration.as_secs_f64(),
        rate_rps,
        attempted: phase.all().count(),
        failed: phase.all().filter(|sample| !sample.ok).count(),
        wrong: phase.all().filter(|sample| sample.wrong()).count(),
        late_p99_us,
        late: rate_rps.is_some() && late_p99_us > LATE_SHARE_OF_LIMIT * limit_us,
        slo_ok: middle(|window| window.slo_ok),
        rps: middle(|window| Some(window.rps)).unwrap_or(0.0),
        p50_us: window_median_percentile(&latencies, 50.0),
        p99_us: window_median_percentile(&latencies, 99.0),
        cpu_us_per_req: middle(|window| window.cpu_us_per_req),
        windows,
    }
}

/// Sets the topology up once: spawn → ready → first verified invoke.
/// Returns the cluster and the reference seconds it took.
fn set_up(
    speedometer: &Speedometer,
    bin: &Path,
    workload: &Workload,
    topology: Topology,
    pool: &[Exchange],
    out_dir: &Path,
) -> Result<(Cluster, f64), String> {
    // A starting server keeps its CPU busy, so the speed is read in a pause
    // on either side, as for a window.
    let before = speedometer.mark();
    std::thread::sleep(GAP);
    let started = Instant::now();
    let cluster = Cluster::start(bin, topology, out_dir)?;
    let front = cluster.front();
    let first = client::request_once(front.addr, &pool[0].wire, RESPONSE_DEADLINE)
        .map_err(|error| front.failure(&format!("failed its first invoke: {error}")))?;
    let seconds = started.elapsed().as_secs_f64();
    let framed = Framed {
        status: first.status,
        node: first.node,
        head_len: 0,
        body_len: first.body.len(),
    };
    if !workload.verify(
        topology == Topology::Gateway,
        &framed,
        &first.body,
        &pool[0],
    ) {
        return Err(front.failure(&format!(
            "answered its first invoke wrongly (status {})",
            first.status
        )));
    }
    Ok((
        cluster,
        seconds * speedometer.dilation(before, speedometer.mark()),
    ))
}

/// What one load run is given.
pub struct LoadRun<'a> {
    pub speedometer: &'a Speedometer,
    /// The `dandelion-serve` binary.
    pub bin: &'a Path,
    pub workload: &'a Workload,
    pub topology: Topology,
    pub pool: &'a [Exchange],
    pub seed: u64,
    pub plan: Plan,
    /// Open-loop rates of the `lo` and `hi` phases, in reference time.
    pub lo_rps: f64,
    pub hi_rps: f64,
    pub out_dir: &'a Path,
}

/// Runs the workload's traffic against the topology according to the plan.
pub fn run(spec: &LoadRun<'_>) -> Result<LoadReport, String> {
    let LoadRun {
        speedometer,
        bin,
        workload,
        topology,
        pool,
        seed,
        plan,
        lo_rps,
        hi_rps,
        out_dir,
    } = *spec;
    let via_gateway = topology == Topology::Gateway;
    let verify = move |framed: &Framed, body: &[u8], exchange: &Exchange| {
        workload.verify(via_gateway, framed, body, exchange)
    };
    let missing = |what: &str| format!("{}: no samples for {what}", workload.name);

    let mut setup_runs_s = Vec::new();
    let mut cluster = None;
    for _ in 0..plan.setups.max(1) {
        // Tear the previous one down first: two topologies at once would
        // not be the configuration under test.
        drop(cluster.take());
        let (started, seconds) = set_up(speedometer, bin, workload, topology, pool, out_dir)?;
        setup_runs_s.push(seconds);
        cluster = Some(started);
    }
    let cluster = cluster.expect("at least one set-up ran");
    let mut phases = Vec::new();
    let phase = |pacing: Pacing, duration: Duration| {
        run_phase(speedometer, &cluster, pool, seed, pacing, duration, &verify)
    };

    let warmup = phase(Pacing::Closed, plan.warmup)?;
    phases.push(summarize(
        "warmup",
        plan.warmup,
        Pacing::Closed,
        workload.limit_us,
        &warmup,
    ));

    let before_peak = snapshot(&cluster)?;
    let peak = phase(Pacing::Closed, plan.peak)?;
    let after_peak = snapshot(&cluster)?;
    let peak_report = summarize("peak", plan.peak, Pacing::Closed, workload.limit_us, &peak);
    let peak_rps = peak_report.rps;
    phases.push(peak_report);

    // Only the traced run has a `lo` phase: nothing end-to-end comes from it.
    let lo_pacing = Pacing::Open {
        rate_rps: lo_rps,
        stream: 1,
    };
    let lo_report = if plan.lo.is_zero() {
        None
    } else {
        let lo = phase(lo_pacing, plan.lo)?;
        Some(summarize("lo", plan.lo, lo_pacing, workload.limit_us, &lo))
    };
    phases.extend(lo_report.clone());

    let hi_pacing = Pacing::Open {
        rate_rps: hi_rps,
        stream: 2,
    };
    let before_hi = snapshot(&cluster)?;
    let hi = phase(hi_pacing, plan.hi)?;
    let after_hi = snapshot(&cluster)?;
    let hi_report = summarize("hi", plan.hi, hi_pacing, workload.limit_us, &hi);
    phases.push(hi_report.clone());

    let mut rss_peak_mib = 0.0;
    for process in cluster.processes() {
        rss_peak_mib += procfs::rss_peak_mib(process.pid()).map_err(proc_error)?;
    }
    // Servers are no longer needed; stop them before the arithmetic.
    let process_count = cluster.processes().count();
    drop(cluster);

    // --- hi-phase accounting, in reference time -------------------------------------
    let verified_hi = hi.verified().max(1) as f64;
    let hi_latencies: Vec<f64> = hi
        .windows
        .iter()
        .flat_map(WindowSamples::latencies_us)
        .collect();
    let end_to_end = vec![
        Metric::new(
            "setup_s",
            median(&setup_runs_s).ok_or_else(|| missing("setup"))?,
            "s",
        ),
        Metric::new("peak_rps", peak_rps, "req/s"),
        Metric::new(
            "slo_ok_hi",
            hi_report.slo_ok.ok_or_else(|| missing("hi"))?,
            "ratio",
        ),
        Metric::new(
            "cpu_us_per_req",
            hi_report.cpu_us_per_req.ok_or_else(|| missing("hi"))?,
            "us",
        ),
        Metric::new("rss_peak_mib", rss_peak_mib, "MiB"),
    ];

    // --- layer metrics from the same observations ---------------------------------
    // The tick-sampled counters only say which share of the exact on-CPU
    // time was user time.
    let ticks = after_hi
        .cpu
        .iter()
        .zip(&before_hi.cpu)
        .fold(CpuTime::default(), |sum, (after, before)| {
            sum.plus(&after.since(before))
        });
    let user_share = ticks.user_us / ticks.total_us().max(1.0);
    let server_cpu_us: f64 = (0..process_count)
        .map(|index| hi.process_cpu_us(index))
        .sum();
    let served = (verified_hi + peak.verified() as f64).max(1.0);
    let posted = after_hi.posted - before_hi.posted + after_peak.posted - before_peak.posted;
    let wakeups = after_hi.wakeups - before_hi.wakeups + after_peak.wakeups - before_peak.wakeups;
    let mut layers = Vec::new();
    if let Some(lo_report) = &lo_report {
        layers.extend([
            Metric::new(
                "lat_lo_p50_us",
                lo_report.p50_us.ok_or_else(|| missing("lo"))?,
                "us",
            ),
            Metric::new(
                "lat_lo_p99_us",
                lo_report.p99_us.ok_or_else(|| missing("lo"))?,
                "us",
            ),
        ]);
    }
    layers.extend([
        Metric::new(
            "lat_hi_p50_us",
            hi_report.p50_us.ok_or_else(|| missing("hi"))?,
            "us",
        ),
        Metric::new(
            "lat_hi_p99_us",
            hi_report.p99_us.ok_or_else(|| missing("hi"))?,
            "us",
        ),
        Metric::new(
            "lat_hi_p999_us",
            percentile(&hi_latencies, 99.9).ok_or_else(|| missing("hi"))?,
            "us",
        ),
        Metric::new(
            "server.cpu_user_us_per_req",
            server_cpu_us * user_share / verified_hi,
            "us",
        ),
        Metric::new(
            "server.cpu_sys_us_per_req",
            server_cpu_us * (1.0 - user_share) / verified_hi,
            "us",
        ),
        Metric::new(
            "server.ctx_switches_per_req",
            (after_hi.ctx_switches - before_hi.ctx_switches) as f64 / verified_hi,
            "count",
        ),
        Metric::new("server.wakeups_per_req", wakeups / served, "count"),
        Metric::new(
            "server.coalesced_share",
            if posted > 0.0 {
                1.0 - wakeups / posted
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("loadgen.late_p99_us", hi_report.late_p99_us, "us"),
        Metric::new(
            "loadgen.cpu_us_per_req",
            hi.generator_cpu_us / verified_hi,
            "us",
        ),
    ]);
    if via_gateway {
        // `Cluster::processes` lists the gateway first, then the members.
        let members_cpu_us: f64 = (1..process_count)
            .map(|index| hi.process_cpu_us(index))
            .sum();
        let stats_delta =
            |key: &str| counter(&after_hi.front_stats, key) - counter(&before_hi.front_stats, key);
        let mut per_node = std::collections::BTreeMap::new();
        for sample in hi.all().filter(|sample| sample.ok) {
            *per_node.entry(sample.node).or_insert(0usize) += 1;
        }
        let busiest = per_node.values().copied().max().unwrap_or(0);
        layers.extend([
            Metric::new(
                "gateway.cpu_us_per_req",
                hi.process_cpu_us(0) / verified_hi,
                "us",
            ),
            Metric::new(
                "gateway.member_cpu_us_per_req",
                members_cpu_us / verified_hi,
                "us",
            ),
            Metric::new(
                "gateway.retries_per_req",
                stats_delta("retries") / verified_hi,
                "ratio",
            ),
            Metric::new(
                "gateway.upstream_errors_per_req",
                stats_delta("upstream_errors") / verified_hi,
                "ratio",
            ),
            Metric::new(
                "gateway.member_share_max",
                busiest as f64 / verified_hi,
                "ratio",
            ),
        ]);
    }

    Ok(LoadReport {
        topology,
        setup_runs_s,
        phases,
        end_to_end,
        layers,
    })
}
