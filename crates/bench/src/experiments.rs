//! One function per table/figure of the paper's evaluation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dandelion_common::config::IsolationKind;
use dandelion_common::{DataSet, MIB};
use dandelion_isolation::{
    create_backend, ExecutionTask, HardwarePlatform, SandboxCostModel, Stage,
};
use dandelion_query::{generate_database, AthenaModel, Ec2Model, SsbQuery};
use dandelion_sim::autoscaler::KnativeAutoscaler;
use dandelion_sim::platforms::{
    DHybridSim, DandelionConfig, DandelionSim, MicroVmKind, MicroVmSim, PlatformModel, WarmPolicy,
    WasmtimeSim,
};
use dandelion_sim::{run_bursty, run_open_loop, run_trace, sweep_open_loop, workloads};
use dandelion_trace::{generate_trace, TraceConfig};

use crate::report::Report;

/// The reproducible experiments, one per table/figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// Figure 1 — committed vs actively-used memory under Knative.
    Fig1,
    /// Figure 2 — Firecracker tail latency vs hot-request ratio.
    Fig2,
    /// Table 1 — Dandelion cold-start breakdown per backend.
    Table1,
    /// Figure 5 — sandbox creation latency vs throughput, all systems.
    Fig5,
    /// Figure 6 — 128×128 matmul latency vs throughput on 16 cores.
    Fig6,
    /// §7.4 — composition overhead vs number of phases.
    Fig7a,
    /// Figure 7 — compute/communication split vs D-hybrid.
    Fig7,
    /// Figure 8 — multiplexing a compute-heavy and an I/O-heavy app.
    Fig8,
    /// Figure 9 — SSB query latency and cost vs Athena.
    Fig9,
    /// §7.7 — Text2SQL agentic workflow step breakdown.
    Text2Sql,
    /// Figure 10 / §7.8 — Azure-trace memory and latency comparison.
    Fig10,
    /// §8 — trusted computing base and attack-surface summary.
    Security,
    /// Repo-only: synchronous vs pipelined submission throughput on one
    /// 8-core worker through the `DandelionClient` facade.
    Concurrency,
    /// Repo-only: zero-copy data plane vs per-edge copying on a
    /// large-payload pipeline with fan-out.
    DataPlane,
    /// Repo-only: allocation-free construction path (pooled arenas, rope
    /// builders) vs the Vec-assembly reference on a high-rate 4 KiB
    /// payload pipeline.
    SmallInvocations,
    /// Repo-only: loopback throughput of the real TCP serving layer,
    /// keep-alive connection reuse vs a fresh connection per request.
    Network,
    /// Repo-only: horizontal scaling through the cluster gateway —
    /// identical load routed across 1 vs 3 member nodes behind one
    /// front door.
    Cluster,
}

impl ExperimentId {
    /// Every experiment in paper order.
    pub const ALL: [ExperimentId; 17] = [
        ExperimentId::Fig1,
        ExperimentId::Fig2,
        ExperimentId::Table1,
        ExperimentId::Fig5,
        ExperimentId::Fig6,
        ExperimentId::Fig7a,
        ExperimentId::Fig7,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Text2Sql,
        ExperimentId::Fig10,
        ExperimentId::Security,
        ExperimentId::Concurrency,
        ExperimentId::DataPlane,
        ExperimentId::SmallInvocations,
        ExperimentId::Network,
        ExperimentId::Cluster,
    ];

    /// Command-line name of the experiment.
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentId::Fig1 => "fig1",
            ExperimentId::Fig2 => "fig2",
            ExperimentId::Table1 => "table1",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Fig7a => "fig7a",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Text2Sql => "text2sql",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::Security => "security",
            ExperimentId::Concurrency => "concurrency",
            ExperimentId::DataPlane => "data_plane",
            ExperimentId::SmallInvocations => "small_invocations",
            ExperimentId::Network => "network",
            ExperimentId::Cluster => "cluster",
        }
    }

    /// Parses a command-line experiment name.
    pub fn parse(name: &str) -> Option<ExperimentId> {
        ExperimentId::ALL
            .into_iter()
            .find(|id| id.name() == name.to_lowercase())
    }
}

/// Runs one experiment and returns its report.
pub fn run_experiment(id: ExperimentId) -> Report {
    match id {
        ExperimentId::Fig1 => fig1_knative_memory(),
        ExperimentId::Fig2 => fig2_firecracker_hot_ratio(),
        ExperimentId::Table1 => table1_sandbox_breakdown(),
        ExperimentId::Fig5 => fig5_sandbox_creation(),
        ExperimentId::Fig6 => fig6_compute_throughput(),
        ExperimentId::Fig7a => fig7a_composition_phases(),
        ExperimentId::Fig7 => fig7_compute_comm_split(),
        ExperimentId::Fig8 => fig8_multiplexing(),
        ExperimentId::Fig9 => fig9_ssb_queries(),
        ExperimentId::Text2Sql => text2sql_breakdown(),
        ExperimentId::Fig10 => fig10_azure_memory(),
        ExperimentId::Security => security_summary(),
        ExperimentId::Concurrency => concurrency_fanout(),
        ExperimentId::DataPlane => data_plane(),
        ExperimentId::SmallInvocations => small_invocations(),
        ExperimentId::Network => network(),
        ExperimentId::Cluster => cluster(),
    }
}

fn mb(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

fn default_trace() -> dandelion_trace::Trace {
    generate_trace(&TraceConfig {
        functions: 100,
        duration: Duration::from_secs(600),
        seed: 42,
        rate_scale: 1.0,
    })
}

fn knative_firecracker(cores: usize, seed: u64) -> MicroVmSim {
    MicroVmSim::new(
        MicroVmKind::FirecrackerSnapshot,
        HardwarePlatform::X86Linux,
        cores,
        WarmPolicy::Autoscaled {
            autoscaler: KnativeAutoscaler::knative_defaults(),
        },
        seed,
    )
}

fn dandelion_xeon(backend: IsolationKind) -> DandelionSim {
    DandelionSim::new(DandelionConfig::xeon(SandboxCostModel::for_backend(
        backend,
        HardwarePlatform::X86Linux,
    )))
}

/// Figure 1: Knative keeps idle VMs in memory; compare the committed memory
/// against the memory of VMs actively serving requests.
pub fn fig1_knative_memory() -> Report {
    let trace = default_trace();
    let mut firecracker = knative_firecracker(16, 1);
    let result = run_trace(&mut firecracker, &trace);

    // Memory of actively-serving VMs: each invocation commits its VM memory
    // only while it runs.
    let horizon = trace.duration.as_secs_f64();
    let active_avg_bytes: f64 = trace
        .events
        .iter()
        .map(|event| {
            event.duration.as_secs_f64()
                * (event.memory_mib as usize * MIB
                    + MicroVmKind::FirecrackerSnapshot.per_sandbox_overhead_bytes())
                    as f64
        })
        .sum::<f64>()
        / horizon;

    let mut report = Report::new(
        "Figure 1: committed memory with Knative autoscaling vs actively serving VMs",
        &format!(
            "Azure-like trace, 100 functions, {} invocations over {:.0} s, Firecracker MicroVMs",
            trace.len(),
            horizon
        ),
    );
    report.header(&["series", "average committed memory [MB]"]);
    report.row(vec![
        "Hot VMs with Knative autoscaling".into(),
        format!("{:.0}", mb(result.average_memory_bytes)),
    ]);
    report.row(vec![
        "VMs actively serving requests".into(),
        format!("{:.0}", mb(active_avg_bytes)),
    ]);
    let factor = result.average_memory_bytes / active_avg_bytes.max(1.0);
    report.note(&format!(
        "overprovisioning factor {factor:.1}x (paper reports ~16x on its trace sample)"
    ));
    report
}

/// Figure 2: Firecracker tail latency is extremely sensitive to the fraction
/// of requests that hit a warm MicroVM.
pub fn fig2_firecracker_hot_ratio() -> Report {
    let spec = workloads::matmul_128();
    let rps_points = [500.0, 1000.0, 2000.0, 3000.0, 4000.0];
    let mut report = Report::new(
        "Figure 2: Firecracker p99.5 latency vs offered load and hot-request ratio",
        "128x128 int64 matmul, 16-core server, open-loop Poisson load, 10 s per point",
    );
    let mut header = vec!["series".to_string()];
    header.extend(rps_points.iter().map(|rps| format!("{rps:.0} RPS [ms]")));
    report.rows.push(header);

    for (label, kind, hot) in [
        ("95% hot", MicroVmKind::Firecracker, 0.95),
        ("97% hot", MicroVmKind::Firecracker, 0.97),
        ("99% hot", MicroVmKind::Firecracker, 0.99),
        ("100% hot", MicroVmKind::Firecracker, 1.0),
        ("Snapshot 95% hot", MicroVmKind::FirecrackerSnapshot, 0.95),
        ("Snapshot 97% hot", MicroVmKind::FirecrackerSnapshot, 0.97),
        ("Snapshot 99% hot", MicroVmKind::FirecrackerSnapshot, 0.99),
    ] {
        let sweep = sweep_open_loop(
            || {
                Box::new(MicroVmSim::new(
                    kind,
                    HardwarePlatform::X86Linux,
                    16,
                    WarmPolicy::FixedHotRatio { hot_ratio: hot },
                    7,
                ))
            },
            &spec,
            &rps_points,
            Duration::from_secs(10),
            11,
        );
        let mut row = vec![label.to_string()];
        row.extend(
            sweep
                .iter()
                .map(|point| format!("{:.1}", point.latency.p995_ms())),
        );
        report.rows.push(row);
    }
    report.note("even a few percent of cold starts lifts the tail by 1-2 orders of magnitude (log scale in the paper)");
    report
}

/// Table 1: per-stage cold-start latency of each Dandelion isolation backend.
pub fn table1_sandbox_breakdown() -> Report {
    let paper_totals = [
        (IsolationKind::Cheri, 89u64),
        (IsolationKind::Rwasm, 241),
        (IsolationKind::Process, 486),
        (IsolationKind::Kvm, 889),
    ];
    let mut report = Report::new(
        "Table 1: Dandelion cold-start latency breakdown per backend (1x1 matmul, Morello)",
        "modeled per-stage microseconds; every backend also really executes the function",
    );
    report.header(&["stage", "CHERI", "rWasm", "process", "KVM"]);

    // Execute the real 1x1 matmul through every backend to confirm the
    // functional path, then report the calibrated per-stage model (the
    // function body itself adds only a few microseconds).
    let inputs = vec![dandelion_apps::matmul::matmul_inputs(1, 1)];
    let artifact = Arc::new(dandelion_apps::matmul::matmul_artifact());
    let mut totals = Vec::new();
    let mut stage_rows: Vec<Vec<String>> = Stage::ALL
        .iter()
        .map(|stage| vec![stage.label().to_string()])
        .collect();
    for (backend, _) in paper_totals {
        let isolation = create_backend(backend, HardwarePlatform::Morello);
        let task = ExecutionTask::new(Arc::clone(&artifact), inputs.clone()).with_cold_binary(true);
        let execution = isolation.execute(&task).expect("matmul executes");
        assert_eq!(execution.outputs.len(), 1, "matmul produced its output");
        let model = isolation.cost_model();
        for (row, stage) in stage_rows.iter_mut().zip(Stage::ALL.iter()) {
            row.push(format!("{}", model.stage_cost(*stage, true).as_micros()));
        }
        totals.push(model.cold_total(true).as_micros() as u64);
    }
    for row in stage_rows {
        report.rows.push(row);
    }
    let mut total_row = vec!["Total".to_string()];
    total_row.extend(totals.iter().map(|total| total.to_string()));
    report.rows.push(total_row);
    let mut paper_row = vec!["Paper total".to_string()];
    paper_row.extend(paper_totals.iter().map(|(_, total)| total.to_string()));
    report.rows.push(paper_row);
    report.note(
        "stage costs are calibrated to Table 1; the function body adds a few microseconds on top",
    );
    report
}

/// Figure 5: sandbox-creation latency vs throughput with 0% hot requests.
pub fn fig5_sandbox_creation() -> Report {
    let spec = workloads::matmul_1x1();
    let rps_points = [50.0, 500.0, 2000.0, 6000.0, 10_000.0];
    let mut report = Report::new(
        "Figure 5: p99 latency vs throughput for sandbox creation (1x1 matmul, 0% hot, 4-core Morello)",
        "open-loop Poisson load, 10 s per point; every request cold-starts a sandbox",
    );
    let mut header = vec!["system".to_string()];
    header.extend(rps_points.iter().map(|rps| format!("{rps:.0} RPS [ms]")));
    report.rows.push(header);

    let mut add_sweep = |label: &str, make: &mut dyn FnMut() -> Box<dyn PlatformModel>| {
        let sweep = sweep_open_loop(|| make(), &spec, &rps_points, Duration::from_secs(10), 13);
        let mut row = vec![label.to_string()];
        row.extend(
            sweep
                .iter()
                .map(|point| format!("{:.2}", point.latency.p99_ms())),
        );
        report.rows.push(row);
    };

    for backend in IsolationKind::PAPER_BACKENDS {
        add_sweep(&format!("Dandelion {backend}"), &mut || {
            Box::new(DandelionSim::new(DandelionConfig::morello(
                SandboxCostModel::for_backend(backend, HardwarePlatform::Morello),
            )))
        });
    }
    for (label, kind) in [
        ("Firecracker", MicroVmKind::Firecracker),
        ("Firecracker snapshot", MicroVmKind::FirecrackerSnapshot),
        ("gVisor", MicroVmKind::Gvisor),
    ] {
        add_sweep(label, &mut || {
            Box::new(MicroVmSim::new(
                kind,
                HardwarePlatform::Morello,
                4,
                WarmPolicy::FixedHotRatio { hot_ratio: 0.0 },
                17,
            ))
        });
    }
    add_sweep("Wasmtime (Spin)", &mut || Box::new(WasmtimeSim::new(4)));
    report.note("Dandelion CHERI boots in under 90 us; Firecracker with snapshots saturates around 120 RPS on this 4-core machine");
    report
}

/// Figure 6: 128×128 matmul latency vs throughput on the 16-core server.
pub fn fig6_compute_throughput() -> Report {
    let spec = workloads::matmul_128();
    let rps_points = [500.0, 1500.0, 2500.0, 3500.0, 4500.0];
    let mut report = Report::new(
        "Figure 6: 128x128 matmul median latency (p5/p95) vs throughput, 16-core server",
        "Dandelion cold-starts every request; Firecracker uses 97% hot requests",
    );
    let mut header = vec!["system".to_string()];
    header.extend(rps_points.iter().map(|rps| format!("{rps:.0} RPS")));
    report.rows.push(header);

    let mut add = |label: &str, make: &mut dyn FnMut() -> Box<dyn PlatformModel>| {
        let sweep = sweep_open_loop(|| make(), &spec, &rps_points, Duration::from_secs(10), 19);
        let mut row = vec![label.to_string()];
        row.extend(sweep.iter().map(|point| {
            format!(
                "{:.1} ({:.1}/{:.1})",
                point.latency.p50_ms(),
                point.latency.p5_us / 1000.0,
                point.latency.p95_us / 1000.0
            )
        }));
        report.rows.push(row);
    };

    for backend in [
        IsolationKind::Kvm,
        IsolationKind::Process,
        IsolationKind::Rwasm,
    ] {
        add(&format!("Dandelion {backend}"), &mut || {
            Box::new(dandelion_xeon(backend))
        });
    }
    add("Firecracker (97% hot)", &mut || {
        Box::new(MicroVmSim::new(
            MicroVmKind::Firecracker,
            HardwarePlatform::X86Linux,
            16,
            WarmPolicy::FixedHotRatio { hot_ratio: 0.97 },
            23,
        ))
    });
    add("Firecracker snapshot (97% hot)", &mut || {
        Box::new(MicroVmSim::new(
            MicroVmKind::FirecrackerSnapshot,
            HardwarePlatform::X86Linux,
            16,
            WarmPolicy::FixedHotRatio { hot_ratio: 0.97 },
            23,
        ))
    });
    add("Wasmtime (Spin)", &mut || Box::new(WasmtimeSim::new(16)));
    report.note("values are median ms with (p5/p95); Dandelion KVM sustains the highest load, Wasmtime saturates first due to slower generated code");
    report
}

/// §7.4: latency vs number of fetch-and-compute phases (unloaded).
pub fn fig7a_composition_phases() -> Report {
    let phase_counts = [2usize, 4, 8, 16];
    let mut report = Report::new(
        "Section 7.4: composition overhead vs number of fetch-and-compute phases",
        "single unloaded request; each phase fetches 64 KiB and reduces a sample of it",
    );
    let mut header = vec!["system".to_string()];
    header.extend(
        phase_counts
            .iter()
            .map(|count| format!("{count} phases [ms]")),
    );
    report.rows.push(header);

    let mut add = |label: &str, make: &mut dyn FnMut() -> Box<dyn PlatformModel>| {
        let mut row = vec![label.to_string()];
        for count in phase_counts {
            let spec = workloads::fetch_and_compute(count);
            let mut model = make();
            let result = run_open_loop(model.as_mut(), &spec, 20.0, Duration::from_secs(3), 29);
            row.push(format!("{:.1}", result.latency.p50_ms()));
        }
        report.rows.push(row);
    };

    add("Dandelion KVM (uncached binaries)", &mut || {
        let mut config = DandelionConfig::xeon(SandboxCostModel::for_backend(
            IsolationKind::Kvm,
            HardwarePlatform::X86Linux,
        ));
        config.binary_cold_load_ratio = 1.0;
        Box::new(DandelionSim::new(config))
    });
    add("Dandelion KVM (cached binaries)", &mut || {
        let mut config = DandelionConfig::xeon(SandboxCostModel::for_backend(
            IsolationKind::Kvm,
            HardwarePlatform::X86Linux,
        ));
        config.binary_cold_load_ratio = 0.0;
        Box::new(DandelionSim::new(config))
    });
    add("Firecracker hot", &mut || {
        Box::new(MicroVmSim::new(
            MicroVmKind::Firecracker,
            HardwarePlatform::X86Linux,
            16,
            WarmPolicy::FixedHotRatio { hot_ratio: 1.0 },
            31,
        ))
    });
    add("Firecracker cold (snapshot)", &mut || {
        Box::new(MicroVmSim::new(
            MicroVmKind::FirecrackerSnapshot,
            HardwarePlatform::X86Linux,
            16,
            WarmPolicy::FixedHotRatio { hot_ratio: 0.0 },
            31,
        ))
    });
    add("Wasmtime (Spin)", &mut || Box::new(WasmtimeSim::new(16)));
    report.note("all systems grow linearly with the phase count; Dandelion pays one sandbox per compute phase yet stays within a few ms of Firecracker hot");
    report
}

/// Figure 7: Dandelion vs D-hybrid for a compute-heavy and an I/O-heavy app.
pub fn fig7_compute_comm_split() -> Report {
    let mut report = Report::new(
        "Figure 7: separating compute and communication (Dandelion) vs hybrid functions (D-hybrid)",
        "p99 latency in ms at increasing offered load, 16-core server",
    );
    report.header(&["workload", "system", "1000 RPS", "2000 RPS", "3000 RPS"]);
    let rps_points = [1000.0, 2000.0, 3000.0];

    let mut add = |workload: &str,
                   spec: &dandelion_sim::RequestSpec,
                   label: &str,
                   make: &mut dyn FnMut() -> Box<dyn PlatformModel>| {
        let sweep = sweep_open_loop(|| make(), spec, &rps_points, Duration::from_secs(8), 37);
        let mut row = vec![workload.to_string(), label.to_string()];
        row.extend(
            sweep
                .iter()
                .map(|point| format!("{:.1}", point.latency.p99_ms())),
        );
        report.rows.push(row);
    };

    let kvm = || SandboxCostModel::for_backend(IsolationKind::Kvm, HardwarePlatform::X86Linux);
    for (workload, spec) in [
        ("matrix multiplication", workloads::matmul_128()),
        ("fetch and compute", workloads::fetch_and_compute(4)),
    ] {
        add(workload, &spec, "Dandelion", &mut || {
            Box::new(DandelionSim::new(DandelionConfig::xeon(kvm())))
        });
        add(workload, &spec, "D-hybrid (tpc=1, pinned)", &mut || {
            Box::new(DHybridSim::new(kvm(), 16, 1, true))
        });
        for tpc in [3usize, 4, 5] {
            add(
                workload,
                &spec,
                &format!("D-hybrid (tpc={tpc})"),
                &mut || Box::new(DHybridSim::new(kvm(), 16, tpc, false)),
            );
        }
    }
    report.note("no single D-hybrid concurrency setting wins both workloads; Dandelion's control plane matches the best configuration for each");
    report
}

/// Figure 8: multiplexing an I/O-intensive and a compute-intensive app.
pub fn fig8_multiplexing() -> Report {
    let duration = Duration::from_secs(30);
    // Rates are chosen so the 16-core node stays below saturation outside the
    // burst and well-loaded during it (the paper plots the same qualitative
    // pattern without giving absolute rates).
    let apps = vec![
        (
            workloads::image_compression(),
            vec![
                (Duration::ZERO, 100.0),
                (Duration::from_secs(10), 250.0),
                (Duration::from_secs(20), 100.0),
            ],
        ),
        (
            workloads::log_processing(),
            vec![
                (Duration::ZERO, 80.0),
                (Duration::from_secs(10), 400.0),
                (Duration::from_secs(20), 80.0),
            ],
        ),
    ];
    let mut report = Report::new(
        "Figure 8: multiplexing image compression (compute) and log processing (I/O) under bursty load",
        "30 s run with a 10 s burst; per-application average, p99 and relative variance",
    );
    report.header(&["system", "app", "avg [ms]", "p99 [ms]", "rel. variance [%]"]);

    let mut add = |label: &str, model: &mut dyn PlatformModel| {
        let results = run_bursty(model, &apps, duration, 41);
        for app in ["image-compression", "log-processing"] {
            let result = &results[app];
            report.rows.push(vec![
                label.to_string(),
                app.to_string(),
                format!("{:.1}", result.latency.mean_ms()),
                format!("{:.1}", result.latency.p99_ms()),
                format!("{:.1}", result.latency.relative_variance_percent),
            ]);
        }
    };

    let mut dandelion = dandelion_xeon(IsolationKind::Kvm);
    add("Dandelion", &mut dandelion);
    let mut firecracker = MicroVmSim::new(
        MicroVmKind::FirecrackerSnapshot,
        HardwarePlatform::X86Linux,
        16,
        WarmPolicy::FixedHotRatio { hot_ratio: 0.97 },
        43,
    );
    add("Firecracker (97% hot)", &mut firecracker);
    let mut wasmtime = WasmtimeSim::new(16).with_compute_slowdown(2.9);
    add("Wasmtime (Spin)", &mut wasmtime);

    report.note(&format!(
        "Dandelion re-allocated cores {} times during the burst (paper: scales from 1 to 4 I/O cores)",
        dandelion.core_timeline().len()
    ));
    report.note("paper averages: compression 18.2/20.4/53.3 ms and logs 27.9/25.6/28.9 ms for Dandelion/Firecracker/Wasmtime");
    report
}

/// Figure 9: SSB query latency and cost, Dandelion on EC2 vs Athena.
pub fn fig9_ssb_queries() -> Report {
    // Generate a database and measure real single-core execution per query.
    let db = generate_database(1.0, 7);
    let scanned_bytes = db.total_bytes() as u64;
    // The paper's queries scan ~700 MB; scale the cost/latency models by the
    // ratio so the reported numbers are comparable in magnitude.
    let paper_bytes: u64 = 700 * 1024 * 1024;
    let scale = paper_bytes as f64 / scanned_bytes as f64;

    let athena = AthenaModel::default();
    let ec2 = Ec2Model::default();
    let mut report = Report::new(
        "Figure 9: SSB query latency and cost, Dandelion (EC2 m7a.8xlarge) vs AWS Athena",
        &format!(
            "measured single-core engine time on a {} MB database, scaled to the paper's ~700 MB input",
            scanned_bytes / (1024 * 1024)
        ),
    );
    report.header(&[
        "query",
        "Dandelion latency [ms]",
        "Dandelion cost [c]",
        "Athena latency [ms]",
        "Athena cost [c]",
    ]);

    for query in SsbQuery::ALL {
        let start = Instant::now();
        let result = query.run(&db).expect("query executes");
        let single_core = start.elapsed().mul_f64(scale);
        assert!(result.rows() > 0 || query == SsbQuery::Q1_1);

        let fetch = Duration::from_secs_f64(paper_bytes as f64 / (2.0 * 1024.0 * 1024.0 * 1024.0));
        let latency = ec2.dandelion_latency(single_core, 32, Duration::from_millis(5), fetch);
        let dandelion_cost = ec2.query(latency);
        let athena_cost = athena.query(paper_bytes);
        report.rows.push(vec![
            query.label().to_string(),
            format!("{:.0}", dandelion_cost.latency.as_secs_f64() * 1e3),
            format!("{:.2}", dandelion_cost.cost_cents),
            format!("{:.0}", athena_cost.latency.as_secs_f64() * 1e3),
            format!("{:.2}", athena_cost.cost_cents),
        ]);
    }
    report.note("paper reports ~40% lower latency and ~67% lower cost for Dandelion on these short queries (Athena ~0.32-0.33c per query)");
    report
}

/// §7.7: Text2SQL agentic workflow, step-by-step latency.
pub fn text2sql_breakdown() -> Report {
    use dandelion_apps::text2sql;
    let mut report = Report::new(
        "Section 7.7: Text2SQL agentic workflow latency breakdown",
        "five-step workflow: parse prompt, LLM call, extract SQL, database query, format response",
    );
    report.header(&["step", "kind", "paper [ms]", "reproduction [ms]"]);

    // Compute steps: measure the real compute functions on this machine,
    // driven through the client facade like an external caller.
    let worker = dandelion_apps::setup::demo_worker(4, false).expect("demo worker starts");
    let client = dandelion_core::DandelionClient::for_worker(Arc::clone(&worker));
    let prompt = b"Which city in Switzerland has the largest population?".to_vec();
    let start = Instant::now();
    let outcome = client
        .invoke_sync("Text2Sql", vec![DataSet::single("Prompt", prompt)])
        .expect("workflow runs");
    let compute_elapsed = start.elapsed();
    worker.shutdown();
    assert!(outcome.outputs[0].items[0]
        .as_str()
        .unwrap()
        .contains("Zurich"));

    // The communication latencies come from the calibrated service models
    // (the paper's measured LLM and database latencies).
    let llm = dandelion_services::latency::defaults::LLM.base;
    let database = dandelion_services::latency::defaults::SQL_DATABASE.base;
    let paper = text2sql::paper_step_latencies_ms();
    let compute_share = compute_elapsed.as_secs_f64() * 1e3 / 3.0;
    let reproduction = [
        compute_share,
        llm.as_secs_f64() * 1e3,
        compute_share,
        database.as_secs_f64() * 1e3,
        compute_share,
    ];
    let kinds = [
        "compute",
        "communication",
        "compute",
        "communication",
        "compute",
    ];
    let mut total_paper = 0u64;
    let mut total_reproduction = 0.0;
    for ((step, paper_ms), (kind, repro_ms)) in paper.iter().zip(kinds.iter().zip(reproduction)) {
        report.rows.push(vec![
            step.to_string(),
            kind.to_string(),
            paper_ms.to_string(),
            format!("{repro_ms:.1}"),
        ]);
        total_paper += paper_ms;
        total_reproduction += repro_ms;
    }
    report.rows.push(vec![
        "total".into(),
        "".into(),
        total_paper.to_string(),
        format!("{total_reproduction:.1}"),
    ]);
    report.note("the LLM call dominates (61% in the paper); compute steps are faster here because the paper runs them through the CPython interpreter");
    report
}

/// Figure 10 / §7.8: committed memory and latency for the Azure trace.
pub fn fig10_azure_memory() -> Report {
    let trace = default_trace();
    let mut firecracker = knative_firecracker(16, 3);
    let firecracker_result = run_trace(&mut firecracker, &trace);
    let mut dandelion = DandelionSim::new(DandelionConfig::xeon(SandboxCostModel::for_backend(
        IsolationKind::Process,
        HardwarePlatform::X86Linux,
    )));
    let dandelion_result = run_trace(&mut dandelion, &trace);

    let mut report = Report::new(
        "Figure 10 / Section 7.8: Azure trace replay, Firecracker+Knative vs Dandelion",
        &format!(
            "100 functions, {} invocations over {:.0} s, Dandelion process backend",
            trace.len(),
            trace.duration.as_secs_f64()
        ),
    );
    report.header(&["metric", "Firecracker + Knative", "Dandelion"]);
    report.row(vec![
        "average committed memory [MB]".into(),
        format!("{:.0}", mb(firecracker_result.average_memory_bytes)),
        format!("{:.0}", mb(dandelion_result.average_memory_bytes)),
    ]);
    report.row(vec![
        "peak committed memory [MB]".into(),
        format!("{:.0}", mb(firecracker_result.peak_memory_bytes)),
        format!("{:.0}", mb(dandelion_result.peak_memory_bytes)),
    ]);
    report.row(vec![
        "p99 end-to-end latency [ms]".into(),
        format!("{:.1}", firecracker_result.latency.p99_ms()),
        format!("{:.1}", dandelion_result.latency.p99_ms()),
    ]);
    report.row(vec![
        "cold invocations [%]".into(),
        format!(
            "{:.1}",
            100.0 * firecracker_result.cold_starts as f64 / trace.len() as f64
        ),
        "100 (by design)".into(),
    ]);
    let saving = 100.0
        * (1.0 - dandelion_result.average_memory_bytes / firecracker_result.average_memory_bytes);
    let p99_reduction =
        100.0 * (1.0 - dandelion_result.latency.p99_ms() / firecracker_result.latency.p99_ms());
    report.note(&format!(
        "Dandelion commits {saving:.0}% less memory on average (paper: 96%) and reduces p99 latency by {p99_reduction:.0}% (paper: 46%)"
    ));
    report.note(&format!(
        "Knative serves {:.1}% of invocations cold (paper observes ~3.3%)",
        100.0 * firecracker_result.cold_starts as f64 / trace.len() as f64
    ));
    report
}

/// §8: trusted computing base and attack-surface summary.
pub fn security_summary() -> Report {
    let mut report = Report::new(
        "Section 8: attack surface and trusted computing base",
        "static summary of the reproduction's security-relevant properties",
    );
    report.header(&["property", "value"]);
    report.row(vec![
        "syscalls reachable from compute functions".into(),
        "0 (stubs return ENOSYS; strict backends terminate the function)".into(),
    ]);
    report.row(vec![
        "untrusted-output parser".into(),
        "length-prefixed descriptor, ~120 lines, fuzz/property tested".into(),
    ]);
    report.row(vec![
        "communication-function validation".into(),
        "method whitelist + host syntax check before any request is issued".into(),
    ]);
    report.row(vec![
        "isolation backends".into(),
        "CHERI, KVM, process, rWasm, native (reference)".into(),
    ]);
    report.note("the paper reports ~12k lines of Rust for Dandelion vs ~68k (Firecracker), ~65k (Spin) and ~38k Go (gVisor)");
    report
}

/// Repo-only experiment: how much throughput the non-blocking client API
/// buys when invocations spend their time waiting on an external
/// dependency. Each invocation runs a function that blocks for a fixed
/// service time (emulating a slow downstream service); a single synchronous
/// caller serializes those waits, while `DandelionClient::submit` keeps all
/// of them in flight across the worker's engines.
pub fn concurrency_fanout() -> Report {
    use dandelion_common::config::WorkerConfig;
    use dandelion_core::{DandelionClient, WorkerNode};
    use dandelion_isolation::{FunctionArtifact, FunctionCtx};

    const INVOCATIONS: usize = 24;
    const SERVICE_TIME: Duration = Duration::from_millis(25);

    let make_worker = || {
        let config = WorkerConfig {
            total_cores: 8,
            initial_communication_cores: 1,
            isolation: IsolationKind::Native,
            ..WorkerConfig::default()
        };
        let worker = WorkerNode::start(config, dandelion_apps::setup::demo_services(false))
            .expect("worker starts");
        worker
            .register_function(FunctionArtifact::new(
                "AwaitService",
                &["Out"],
                |ctx: &mut FunctionCtx| {
                    let payload = ctx.single_input("In")?.data.as_slice().to_vec();
                    std::thread::sleep(SERVICE_TIME);
                    ctx.push_output_bytes("Out", "echo", payload)
                },
            ))
            .expect("function registers");
        worker
            .register_composition_dsl(
                "composition SlowEcho(Request) => Reply { \
                 AwaitService(In = all Request) => (Reply = Out); }",
            )
            .expect("composition registers");
        worker
    };

    let mut report = Report::new(
        "Concurrency: synchronous vs pipelined invocation on one 8-core worker",
        &format!(
            "{INVOCATIONS} invocations of a {} ms blocking service call, \
             one worker (7 compute engines), DandelionClient::for_worker",
            SERVICE_TIME.as_millis()
        ),
    );
    report.header(&["mode", "wall time [ms]", "throughput [inv/s]"]);

    let run = |pipelined: bool| {
        let worker = make_worker();
        let client = DandelionClient::for_worker(Arc::clone(&worker));
        let inputs =
            |index: usize| vec![DataSet::single("Request", format!("r{index}").into_bytes())];
        let start = Instant::now();
        if pipelined {
            // All invocations in flight before the first wait.
            let handles: Vec<_> = (0..INVOCATIONS)
                .map(|index| client.submit("SlowEcho", inputs(index)).expect("submits"))
                .collect();
            for (index, handle) in handles.iter().enumerate() {
                let outcome = handle.wait(None).expect("pipelined invocation runs");
                assert_eq!(
                    outcome.outputs[0].items[0].as_str(),
                    Some(format!("r{index}").as_str())
                );
            }
        } else {
            // One blocking caller: each invocation waits before the next.
            for index in 0..INVOCATIONS {
                let outcome = client
                    .invoke_sync("SlowEcho", inputs(index))
                    .expect("sync invocation runs");
                assert_eq!(
                    outcome.outputs[0].items[0].as_str(),
                    Some(format!("r{index}").as_str())
                );
            }
        }
        let elapsed = start.elapsed();
        worker.shutdown();
        elapsed
    };

    let sync_elapsed = run(false);
    let pipelined_elapsed = run(true);

    for (mode, elapsed) in [
        ("synchronous", sync_elapsed),
        ("pipelined", pipelined_elapsed),
    ] {
        report.row(vec![
            mode.into(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            format!(
                "{:.0}",
                INVOCATIONS as f64 / elapsed.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    report.note(&format!(
        "pipelined speedup {:.1}x: a synchronous caller pays one service time per \
         invocation, the submit/poll API overlaps them across the worker's 7 compute engines",
        sync_elapsed.as_secs_f64() / pipelined_elapsed.as_secs_f64().max(1e-9)
    ));
    report
}

/// Repo-only experiment: how much the zero-copy data plane buys on a
/// payload-heavy composition. A three-stage pipeline (relay → `each` fan-out
/// relay → relay) moves large items through two composition edges plus the
/// client boundary. The *zero-copy* functions pass their input items through
/// by reference (`SharedBytes` clones), so no payload byte is copied on any
/// edge; the *copy* functions re-materialize every payload with `to_vec`,
/// reproducing the per-edge copying the platform did before `SharedBytes`
/// (every boundary re-allocated and memcpy'd each item).
pub fn data_plane() -> Report {
    use dandelion_common::config::{IsolationKind, WorkerConfig};
    use dandelion_core::worker::{default_test_services, WorkerNode};
    use dandelion_isolation::{FunctionArtifact, FunctionCtx};

    const PAYLOAD_BYTES: usize = 4 * MIB;
    const ITEMS: usize = 8;
    const HOPS: usize = 3;
    const RUNS: usize = 5;

    let worker = WorkerNode::start_with_control(
        WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
            isolation: IsolationKind::Native,
            ..WorkerConfig::default()
        },
        default_test_services(),
        false,
    )
    .expect("worker starts");

    let relay = |name: &str, copy: bool| {
        FunctionArtifact::new(name, &["Out"], move |ctx: &mut FunctionCtx| {
            let items = ctx.input_set("Items").ok_or("missing Items")?.clone();
            for item in &items.items {
                let data = if copy {
                    // The pre-change behaviour: one fresh allocation and
                    // memcpy per item per edge.
                    dandelion_common::SharedBytes::from_vec(item.data.as_slice().to_vec())
                } else {
                    // Zero-copy: stage a view of the incoming buffer.
                    item.data.clone()
                };
                ctx.push_output(
                    "Out",
                    dandelion_common::DataItem::new(item.name.clone(), data),
                )?;
            }
            Ok(())
        })
        .with_memory_requirement(512 * MIB)
    };
    for (suffix, copy) in [("ZeroCopy", false), ("Copy", true)] {
        for stage in 1..=HOPS {
            worker
                .register_function(relay(&format!("Relay{stage}{suffix}"), copy))
                .expect("relay registers");
        }
        worker
            .register_composition_dsl(&format!(
                "composition Pipeline{suffix}(In) => Out {{ \
                 Relay1{suffix}(Items = all In) => (S1 = Out); \
                 Relay2{suffix}(Items = each S1) => (S2 = Out); \
                 Relay3{suffix}(Items = all S2) => (Out = Out); }}"
            ))
            .expect("pipeline registers");
    }

    let inputs = || {
        dandelion_common::DataSet::with_items(
            "In",
            (0..ITEMS)
                .map(|index| {
                    dandelion_common::DataItem::new(
                        format!("item-{index}"),
                        vec![index as u8; PAYLOAD_BYTES],
                    )
                })
                .collect(),
        )
    };
    let run = |composition: &str| {
        // Warm-up run, then the timed runs.
        for _ in 0..1 {
            worker
                .invoke(composition, vec![inputs()])
                .expect("pipeline runs");
        }
        let start = Instant::now();
        for _ in 0..RUNS {
            let outcome = worker
                .invoke(composition, vec![inputs()])
                .expect("pipeline runs");
            assert_eq!(outcome.outputs[0].items.len(), ITEMS);
            assert_eq!(outcome.outputs[0].items[0].data.len(), PAYLOAD_BYTES);
        }
        start.elapsed() / RUNS as u32
    };

    let copy_elapsed = run("PipelineCopy");
    let zero_copy_elapsed = run("PipelineZeroCopy");
    worker.shutdown();

    // Payload bytes crossing the data plane per invocation: each of the
    // HOPS relay stages forwards every item across one composition edge.
    let moved_bytes = (PAYLOAD_BYTES * ITEMS * HOPS) as f64;
    let throughput = |elapsed: Duration| moved_bytes / MIB as f64 / elapsed.as_secs_f64();

    let mut report = Report::new(
        "Data plane: zero-copy SharedBytes edges vs per-edge payload copies",
        &format!(
            "{ITEMS} x {} items through a {HOPS}-stage pipeline with `each` fan-out, \
             {RUNS} runs, 4-core worker, native isolation",
            dandelion_common::format_bytes(PAYLOAD_BYTES)
        ),
    );
    report.header(&["mode", "per-invocation [ms]", "throughput [MiB/s]"]);
    for (mode, elapsed) in [("copy", copy_elapsed), ("zero-copy", zero_copy_elapsed)] {
        report.row(vec![
            mode.into(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            format!("{:.0}", throughput(elapsed)),
        ]);
    }
    report.note(&format!(
        "zero-copy speedup {:.1}x: composition edges, `each` fan-out and the client \
         boundary hand out views of the producer's buffer instead of copying \
         {} per invocation",
        copy_elapsed.as_secs_f64() / zero_copy_elapsed.as_secs_f64().max(1e-9),
        dandelion_common::format_bytes(moved_bytes as usize),
    ));
    report
}

/// Repo-only experiment: what the allocation-free steady-state path buys on
/// small invocations, where per-request overhead — not payload volume — is
/// the bottleneck. Each "invocation" performs the construction work of one
/// 4 KiB request/response cycle exactly as the platform does it: serialize
/// the client request, run a memory-context lifecycle (import the input,
/// build + attach + parse the output frame), and serialize the response.
///
/// The *pooled/rope* mode is the current code: pooled context arenas,
/// `SharedBytesMut` frame/header builders frozen without copy, bodies
/// attached by reference, vectored rope delivery. The *vec-assembly* mode
/// re-creates the pre-pooling behaviour byte-for-byte: `format!`-assembled
/// heads, incrementally grown descriptor `Vec`s appended into the context
/// and exported back out, and a fresh arena from the global allocator per
/// invocation.
pub fn small_invocations() -> Report {
    use std::io::Write;

    use dandelion_common::{DataItem, SharedBytes};
    use dandelion_http::{HttpRequest, HttpResponse};
    use dandelion_isolation::output_parser::{encode_frame_shared, parse_frame, FRAME_MAGIC};
    use dandelion_isolation::MemoryContext;

    use dandelion_common::KIB;

    const PAYLOAD_BYTES: usize = 4 * KIB;
    const CONTEXT_CAPACITY: usize = 64 * KIB;
    /// Backend requests fanned out per invocation (the FetchConcat shape:
    /// one inbound request, FANOUT service calls, one outbound response).
    const FANOUT: usize = 4;
    const WARMUP: usize = 2_000;
    const INVOCATIONS: usize = 40_000;

    let payload = SharedBytes::from_vec(vec![0xA5; PAYLOAD_BYTES]);
    // The request and response *objects* are prepared once (both modes pay
    // the same construction cost); the per-invocation work under test is
    // serialization, delivery and the context lifecycle.
    let request = HttpRequest::post("http://svc.internal/invoke", payload.clone())
        .with_header("Content-Type", "application/octet-stream")
        .with_header("X-Invocation", "small");
    let response = HttpResponse::ok(payload.clone());
    // The staged output sets (what the function leaves behind) — also
    // prepared once; item payload attachment is by reference in both modes.
    let sets = vec![dandelion_common::DataSet::with_items(
        "Out",
        vec![DataItem::new("response", payload.clone())],
    )];

    // The pre-pooling reference implementations, re-created verbatim so the
    // comparison is old code vs new code on identical work.
    let vec_assembly_request = |request: &HttpRequest| -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + request.body.len());
        out.extend_from_slice(
            format!(
                "{} {} {}\r\n",
                request.method, request.target, request.version
            )
            .as_bytes(),
        );
        for (name, value) in request.headers.iter() {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        if !request.body.is_empty() && request.headers.content_length().is_none() {
            out.extend_from_slice(format!("Content-Length: {}\r\n", request.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&request.body);
        out
    };
    let vec_assembly_response = |response: &HttpResponse| -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + response.body.len());
        out.extend_from_slice(
            format!(
                "{} {} {}\r\n",
                response.version,
                response.status.0,
                response.status.reason()
            )
            .as_bytes(),
        );
        for (name, value) in response.headers.iter() {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        if response.headers.content_length().is_none() {
            out.extend_from_slice(
                format!("Content-Length: {}\r\n", response.body.len()).as_bytes(),
            );
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&response.body);
        out
    };
    let vec_assembly_frame = |sets: &[dandelion_common::DataSet]| -> Vec<u8> {
        let push_chunk = |out: &mut Vec<u8>, data: &[u8]| {
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(data);
        };
        let mut out = Vec::new();
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&(sets.len() as u32).to_le_bytes());
        for set in sets {
            push_chunk(&mut out, set.name.as_bytes());
            out.extend_from_slice(&(set.items.len() as u32).to_le_bytes());
            for item in &set.items {
                push_chunk(&mut out, item.name.as_bytes());
                push_chunk(&mut out, item.key.as_deref().unwrap_or("").as_bytes());
                out.extend_from_slice(&(item.data.len() as u32).to_le_bytes());
            }
        }
        out
    };

    // One steady-state invocation on the pooled/rope path: inbound request,
    // FANOUT backend request/response pairs (the communication engine's
    // serialization work), one context/frame cycle, outbound response.
    let pooled_invocation = |sink: &mut std::io::Sink| {
        request.to_rope().write_to(sink).expect("sink never fails");
        for _ in 0..FANOUT {
            request.to_rope().write_to(sink).expect("sink never fails");
            response.to_rope().write_to(sink).expect("sink never fails");
        }
        let mut context = MemoryContext::new(CONTEXT_CAPACITY);
        context.import(&payload).expect("input attaches");
        let frame = encode_frame_shared(&sets);
        context.import(&frame).expect("frame attaches");
        let parsed = parse_frame(&frame).expect("frame parses");
        assert_eq!(parsed[0].items[0].data_len, PAYLOAD_BYTES);
        context.clear();
        response.to_rope().write_to(sink).expect("sink never fails");
    };
    // The same invocation on the Vec-assembly reference path.
    let vec_invocation = |sink: &mut std::io::Sink| {
        sink.write_all(&vec_assembly_request(&request))
            .expect("sink never fails");
        for _ in 0..FANOUT {
            sink.write_all(&vec_assembly_request(&request))
                .expect("sink never fails");
            sink.write_all(&vec_assembly_response(&response))
                .expect("sink never fails");
        }
        let mut context = MemoryContext::new_unpooled(CONTEXT_CAPACITY);
        context.import(&payload).expect("input attaches");
        let frame = vec_assembly_frame(&sets);
        let frame_offset = context.append(&frame).expect("frame appends");
        let exported = context
            .export(frame_offset, frame.len())
            .expect("frame exports");
        let parsed = parse_frame(&exported).expect("frame parses");
        assert_eq!(parsed[0].items[0].data_len, PAYLOAD_BYTES);
        context.clear();
        sink.write_all(&vec_assembly_response(&response))
            .expect("sink never fails");
    };

    let measure = |invocation: &dyn Fn(&mut std::io::Sink)| -> Duration {
        let mut sink = std::io::sink();
        for _ in 0..WARMUP {
            invocation(&mut sink);
        }
        let start = Instant::now();
        for _ in 0..INVOCATIONS {
            invocation(&mut sink);
        }
        start.elapsed()
    };

    let vec_elapsed = measure(&vec_invocation);
    let pooled_elapsed = measure(&pooled_invocation);

    let mut report = Report::new(
        "Small invocations: pooled arenas + rope builders vs Vec-assembly reference",
        &format!(
            "{INVOCATIONS} invocations of a {} payload cycle (request in, {FANOUT} backend \
             request/response pairs, output-frame context cycle, response out), \
             after {WARMUP} warm-up, single thread",
            dandelion_common::format_bytes(PAYLOAD_BYTES)
        ),
    );
    report.header(&["mode", "wall time [ms]", "throughput [RPS]"]);
    for (mode, elapsed) in [
        ("vec-assembly", vec_elapsed),
        ("pooled-rope", pooled_elapsed),
    ] {
        report.row(vec![
            mode.into(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            format!(
                "{:.0}",
                INVOCATIONS as f64 / elapsed.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    report.note(&format!(
        "pooled/rope speedup {:.1}x: context arenas recycle through the buffer pool, \
         descriptor frames and HTTP heads are built once in pooled builders, and \
         payloads attach to ropes by reference instead of being flattened per message",
        vec_elapsed.as_secs_f64() / pooled_elapsed.as_secs_f64().max(1e-9)
    ));
    report
}

/// Repo-only experiment: end-to-end throughput of the real network serving
/// layer on loopback TCP. A 4-core worker serves a tiny echo composition
/// through `dandelion-server` bound with **two epoll event loops**; the
/// in-repo load generator drives it with client threads issuing synchronous
/// `/v1/invoke` requests. The *keep-alive* mode reuses one connection per
/// client (the steady state of a real deployment); the *reconnect* mode
/// opens a fresh TCP connection per request, paying the handshake and a
/// cold receive buffer each time; the *high-connection* mode holds 2000
/// additional idle keep-alive connections open while 64 active clients
/// issue requests — the headline of the readiness-driven rewrite is that
/// the mostly-idle thousands cost the two loops almost nothing, where the
/// old thread-per-connection pool would have refused or thrashed.
///
/// The *scaling* modes measure the sharded-accept rewrite: ~10,000
/// **active** keep-alive connections all issue `GET /healthz` (answered on
/// the serving layer itself, so the worker is not the bottleneck) in
/// batched write-then-read rounds, against a 1-loop server and a 4-loop
/// server. With per-loop `SO_REUSEPORT` listeners, edge-triggered
/// registrations and lock-free inboxes, loops share no admission funnel
/// and no inbox lock — on a multi-core machine 4 loops should approach 4x
/// the single-loop RPS (the release guard demands >= 2x on >= 6 cores).
pub fn network() -> Report {
    use dandelion_common::config::{IsolationKind, WorkerConfig};
    use dandelion_core::worker::{default_test_services, WorkerNode};
    use dandelion_core::Frontend;
    use dandelion_http::HttpRequest;
    use dandelion_isolation::{FunctionArtifact, FunctionCtx};
    use dandelion_server::{HttpClientConnection, Server, ServerConfig};

    const EVENT_LOOPS: usize = 2;
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 1_500;
    const IDLE_CONNECTIONS: usize = 2_000;
    const ACTIVE_CLIENTS: usize = 64;
    const REQUESTS_PER_ACTIVE: usize = 120;
    const PAYLOAD_BYTES: usize = 512;
    const WARMUP_PER_CLIENT: usize = 50;
    const SCALING_CONNECTIONS: usize = 10_000;
    const SCALING_THREADS: usize = 8;
    const SCALING_ROUNDS: usize = 5;

    // Every socket exists twice in this process (client and server end);
    // the scaling modes alone need ~2x 10k descriptors. Running as root
    // (CI containers) the hard limit is raised too; otherwise the scenario
    // adapts its connection count to the budget actually granted.
    let fd_budget =
        dandelion_server::sys::raise_nofile_limit(24 * 1024).expect("open-file limit raised");
    let scaling_connections =
        SCALING_CONNECTIONS.min((fd_budget.saturating_sub(1024) / 2) as usize) / SCALING_THREADS
            * SCALING_THREADS;

    let worker = WorkerNode::start_with_control(
        WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
            isolation: IsolationKind::Native,
            ..WorkerConfig::default()
        },
        default_test_services(),
        false,
    )
    .expect("worker starts");
    worker
        .register_function(FunctionArtifact::new(
            "Echo",
            &["Out"],
            |ctx: &mut FunctionCtx| {
                let data = ctx.single_input("In")?.data.clone();
                ctx.push_output("Out", dandelion_common::DataItem::new("echo", data))
            },
        ))
        .expect("function registers");
    worker
        .register_composition_dsl(
            "composition Echoed(Input) => Output { Echo(In = all Input) => (Output = Out); }",
        )
        .expect("composition registers");
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            event_loops: EVENT_LOOPS,
            max_connections: IDLE_CONNECTIONS + ACTIVE_CLIENTS + 64,
            // The idle herd must survive the whole measurement.
            read_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
        Arc::new(Frontend::new(Arc::clone(&worker))),
    )
    .expect("server binds");
    let addr = server.local_addr();

    let request = || {
        HttpRequest::post("/v1/invoke/Echoed", vec![0x5A; PAYLOAD_BYTES])
            .with_header("Content-Type", "application/octet-stream")
    };
    let check = |response: &dandelion_http::HttpResponse| {
        assert_eq!(response.status.0, 200, "{}", response.body_text());
        assert_eq!(response.body.len(), PAYLOAD_BYTES);
    };

    let run = |clients: usize, per_client: usize, keep_alive: bool| -> Duration {
        let start = Instant::now();
        let clients: Vec<_> = (0..clients)
            .map(|_| {
                std::thread::spawn(move || {
                    let connect =
                        || HttpClientConnection::connect(addr, Duration::from_secs(30)).unwrap();
                    if keep_alive {
                        let mut connection = connect();
                        for _ in 0..per_client {
                            check(&connection.request(&request()).unwrap());
                        }
                    } else {
                        for _ in 0..per_client {
                            let mut connection = connect();
                            check(
                                &connection
                                    .request(&request().with_header("Connection", "close"))
                                    .unwrap(),
                            );
                        }
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("load generator succeeds");
        }
        start.elapsed()
    };

    // Warm up the worker, the pools and the page cache.
    {
        let mut connection = HttpClientConnection::connect(addr, Duration::from_secs(30)).unwrap();
        for _ in 0..WARMUP_PER_CLIENT * CLIENTS {
            check(&connection.request(&request()).unwrap());
        }
    }
    let reconnect_elapsed = run(CLIENTS, REQUESTS_PER_CLIENT, false);
    let keep_alive_elapsed = run(CLIENTS, REQUESTS_PER_CLIENT, true);

    // High-connection scenario: park an idle herd, then measure active
    // throughput on top of it.
    let idle_herd: Vec<std::net::TcpStream> = (0..IDLE_CONNECTIONS)
        .map(|index| {
            std::net::TcpStream::connect(addr)
                .unwrap_or_else(|error| panic!("idle connection {index} refused: {error}"))
        })
        .collect();
    // Wait until every idle connection is adopted by a loop.
    let deadline = Instant::now() + Duration::from_secs(60);
    while (server.stats().open_connections as usize) < IDLE_CONNECTIONS {
        assert!(Instant::now() < deadline, "idle herd not adopted in time");
        std::thread::sleep(Duration::from_millis(5));
    }
    let high_conn_elapsed = run(ACTIVE_CLIENTS, REQUESTS_PER_ACTIVE, true);
    assert!(
        server.stats().open_connections as usize >= IDLE_CONNECTIONS,
        "the idle herd must survive the measurement"
    );
    drop(idle_herd);

    let few_requests = (CLIENTS * REQUESTS_PER_CLIENT) as f64;
    let high_requests = (ACTIVE_CLIENTS * REQUESTS_PER_ACTIVE) as f64;
    let served = server.stats().requests;
    assert!(
        served as f64 >= 2.0 * few_requests + high_requests,
        "all requests counted"
    );
    server.shutdown();

    // Scaling modes: the same ~10k-connection herd, but every connection
    // is *active*, hammering `/healthz` — answered by the serving layer
    // itself, so RPS measures epoll loops, accept sharding and inboxes,
    // not worker dispatch. Each mode gets a fresh server (fresh port) so
    // lingering TIME_WAIT tuples from the previous one cannot interfere.
    let scale_run = |loops: usize| -> Duration {
        let server = Server::start(
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                event_loops: loops,
                max_connections: scaling_connections + 64,
                read_timeout: Duration::from_secs(120),
                ..ServerConfig::default()
            },
            Arc::new(Frontend::new(Arc::clone(&worker))),
        )
        .expect("scaling server binds");
        let addr = server.local_addr();
        let per_thread = scaling_connections / SCALING_THREADS;
        // Connect the herd in parallel; each socket is its own flow, which
        // is what spreads them across the reuseport listeners.
        let connectors: Vec<_> = (0..SCALING_THREADS)
            .map(|_| {
                std::thread::spawn(move || {
                    (0..per_thread)
                        .map(|index| {
                            let stream =
                                std::net::TcpStream::connect(addr).unwrap_or_else(|error| {
                                    panic!("scaling connection {index} refused: {error}")
                                });
                            stream
                                .set_read_timeout(Some(Duration::from_secs(120)))
                                .unwrap();
                            stream.set_nodelay(true).unwrap();
                            stream
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let slices: Vec<Vec<std::net::TcpStream>> = connectors
            .into_iter()
            .map(|thread| thread.join().expect("connector succeeds"))
            .collect();
        let deadline = Instant::now() + Duration::from_secs(120);
        while (server.stats().open_connections as usize) < scaling_connections {
            assert!(
                Instant::now() < deadline,
                "scaling herd not adopted in time"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let start = Instant::now();
        let drivers: Vec<_> = slices
            .into_iter()
            .map(|mut conns| {
                std::thread::spawn(move || {
                    use std::io::Write;
                    let mut decoders: Vec<_> = conns
                        .iter()
                        .map(|_| {
                            dandelion_http::ResponseDecoder::new(
                                dandelion_http::ParseLimits::default(),
                            )
                        })
                        .collect();
                    for _round in 0..SCALING_ROUNDS {
                        // Batched round: put one request on every
                        // connection, then collect every response — all
                        // connections are mid-flight at once.
                        for conn in &mut conns {
                            conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
                        }
                        for (conn, decoder) in conns.iter_mut().zip(&mut decoders) {
                            let response = loop {
                                if let Some(response) = decoder.next_response().unwrap() {
                                    break response;
                                }
                                let read = decoder.read_from(conn, 4096).unwrap();
                                assert!(read > 0, "server closed an active connection");
                            };
                            assert_eq!(response.status.0, 200);
                        }
                    }
                })
            })
            .collect();
        for driver in drivers {
            driver.join().expect("scaling driver succeeds");
        }
        let elapsed = start.elapsed();
        server.shutdown();
        elapsed
    };
    let one_loop_elapsed = scale_run(1);
    let four_loop_elapsed = scale_run(4);
    worker.shutdown();

    let scaling_requests = (scaling_connections * SCALING_ROUNDS) as f64;
    let mut report = Report::new(
        "Network: loopback TCP serving throughput on epoll event loops",
        &format!(
            "sync /v1/invoke echoes of {PAYLOAD_BYTES} B over 127.0.0.1, {EVENT_LOOPS} event \
             loops, 4-core worker, native isolation; few-connection modes: {CLIENTS} clients x \
             {REQUESTS_PER_CLIENT}; high-connection mode: {IDLE_CONNECTIONS} idle keep-alive \
             connections held open while {ACTIVE_CLIENTS} clients x {REQUESTS_PER_ACTIVE} drive \
             load; scaling modes: {scaling_connections} active keep-alive connections each \
             issuing {SCALING_ROUNDS} batched /healthz rounds against 1 and 4 event loops \
             (sharded SO_REUSEPORT accept, edge-triggered registrations, lock-free inboxes)"
        ),
    );
    report.header(&["mode", "wall time [ms]", "throughput [RPS]"]);
    for (mode, requests, elapsed) in [
        ("reconnect", few_requests, reconnect_elapsed),
        ("keep-alive", few_requests, keep_alive_elapsed),
        ("keep-alive + 2000 idle", high_requests, high_conn_elapsed),
        ("10k active, 1 loop", scaling_requests, one_loop_elapsed),
        ("10k active, 4 loops", scaling_requests, four_loop_elapsed),
    ] {
        report.row(vec![
            mode.into(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            format!("{:.0}", requests / elapsed.as_secs_f64().max(1e-9)),
        ]);
    }
    report.note(&format!(
        "keep-alive is {:.2}x reconnect; with {IDLE_CONNECTIONS} idle connections parked on \
         the same {EVENT_LOOPS} loops, active throughput stays at {:.2}x the few-connection \
         case — idle keep-alives cost memory, not threads; under {scaling_connections} active \
         connections, 4 loops serve {:.2}x the single-loop RPS on {} available cores (loop \
         scaling needs cores to scale onto)",
        reconnect_elapsed.as_secs_f64() / keep_alive_elapsed.as_secs_f64().max(1e-9),
        (high_requests / high_conn_elapsed.as_secs_f64().max(1e-9))
            / (few_requests / keep_alive_elapsed.as_secs_f64()).max(1e-9),
        one_loop_elapsed.as_secs_f64() / four_loop_elapsed.as_secs_f64().max(1e-9),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    ));
    report
}

/// Repo-only experiment: horizontal scaling through the cluster gateway.
/// The same closed-loop workload — 24 keep-alive clients issuing
/// synchronous `/v1/invoke` requests spread over several shard
/// compositions — is pushed through one gateway twice: first with a single
/// member node behind it, then with three. Every member is deliberately
/// small (one compute core) and every invocation burns ~1 ms of service
/// time, so a member saturates quickly and the only way to serve the load
/// faster is to route it across more nodes. The multiple composition names
/// exercise the router's per-composition affinity (each shard sticks to a
/// stable member, spreading the set across the table) and the load-spill
/// path when a shard's preferred member runs hot.
pub fn cluster() -> Report {
    use dandelion_common::config::{IsolationKind, WorkerConfig};
    use dandelion_core::worker::{default_test_services, WorkerNode};
    use dandelion_core::Frontend;
    use dandelion_http::HttpRequest;
    use dandelion_isolation::{FunctionArtifact, FunctionCtx};
    use dandelion_server::{GatewayConfig, HttpClientConnection, Router, Server, ServerConfig};

    const EVENT_LOOPS: usize = 2;
    const CLIENTS: usize = 24;
    const REQUESTS_PER_CLIENT: usize = 120;
    const SHARDS: usize = 12;
    const PAYLOAD_BYTES: usize = 256;
    const SERVICE_TIME: Duration = Duration::from_millis(1);
    const WARMUP_PER_SHARD: usize = 5;

    // Client, gateway and member sockets all live in this one process.
    dandelion_server::sys::raise_nofile_limit(4 * 1024).expect("open-file limit raised");

    let start_member = || -> (Server, Arc<WorkerNode>) {
        let worker = WorkerNode::start_with_control(
            WorkerConfig {
                total_cores: 2,
                initial_communication_cores: 1,
                isolation: IsolationKind::Native,
                ..WorkerConfig::default()
            },
            default_test_services(),
            false,
        )
        .expect("member worker starts");
        worker
            .register_function(FunctionArtifact::new(
                "ClusterEcho",
                &["Out"],
                |ctx: &mut FunctionCtx| {
                    // ~1 ms of service time makes each single-compute-core
                    // member the bottleneck, not the serving layer.
                    std::thread::sleep(SERVICE_TIME);
                    let data = ctx.single_input("In")?.data.clone();
                    ctx.push_output("Out", dandelion_common::DataItem::new("echo", data))
                },
            ))
            .expect("function registers");
        for shard in 0..SHARDS {
            worker
                .register_composition_dsl(&format!(
                    "composition Shard{shard}(Input) => Output \
                     {{ ClusterEcho(In = all Input) => (Output = Out); }}"
                ))
                .expect("composition registers");
        }
        let server = Server::start(
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                event_loops: EVENT_LOOPS,
                read_timeout: Duration::from_secs(120),
                ..ServerConfig::default()
            },
            Arc::new(Frontend::new(Arc::clone(&worker))),
        )
        .expect("member server binds");
        (server, worker)
    };

    let measure = |member_count: usize| -> Duration {
        let members: Vec<_> = (0..member_count).map(|_| start_member()).collect();
        let router = Router::start(GatewayConfig::default());
        for (server, _) in &members {
            router.join(server.local_addr()).expect("member joins");
        }
        let gateway = Server::start_gateway(
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                event_loops: EVENT_LOOPS,
                max_connections: CLIENTS + 64,
                read_timeout: Duration::from_secs(120),
                ..ServerConfig::default()
            },
            Arc::clone(&router),
        )
        .expect("gateway binds");
        let addr = gateway.local_addr();

        let check = |response: &dandelion_http::HttpResponse| {
            assert_eq!(response.status.0, 200, "{}", response.body_text());
            assert_eq!(response.body.len(), PAYLOAD_BYTES);
        };

        // Warm every shard's route, the upstream pools and the members.
        {
            let mut connection =
                HttpClientConnection::connect(addr, Duration::from_secs(30)).unwrap();
            for _ in 0..WARMUP_PER_SHARD {
                for shard in 0..SHARDS {
                    let target = format!("/v1/invoke/Shard{shard}");
                    check(
                        &connection
                            .request(&HttpRequest::post(target, vec![0x5A; PAYLOAD_BYTES]))
                            .unwrap(),
                    );
                }
            }
        }

        let start = Instant::now();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                std::thread::spawn(move || {
                    let mut connection =
                        HttpClientConnection::connect(addr, Duration::from_secs(30)).unwrap();
                    let target = format!("/v1/invoke/Shard{}", client % SHARDS);
                    for _ in 0..REQUESTS_PER_CLIENT {
                        let response = connection
                            .request(&HttpRequest::post(
                                target.clone(),
                                vec![0x5A; PAYLOAD_BYTES],
                            ))
                            .unwrap();
                        check(&response);
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("load generator succeeds");
        }
        let elapsed = start.elapsed();

        let served = gateway.stats().requests;
        assert!(
            served as usize >= CLIENTS * REQUESTS_PER_CLIENT,
            "every measured request went through the gateway (got {served})"
        );
        assert!(gateway.shutdown(), "gateway drains cleanly");
        router.shutdown();
        for (server, worker) in members {
            server.shutdown();
            worker.shutdown();
        }
        elapsed
    };

    let single = measure(1);
    let triple = measure(3);
    let requests = (CLIENTS * REQUESTS_PER_CLIENT) as f64;

    let mut report = Report::new(
        "Cluster: gateway throughput scaling across member nodes",
        &format!(
            "sync /v1/invoke echoes of {PAYLOAD_BYTES} B with ~{} ms service time through one \
             gateway ({EVENT_LOOPS} event loops) over 127.0.0.1; {CLIENTS} keep-alive clients x \
             {REQUESTS_PER_CLIENT} requests spread over {SHARDS} shard compositions; members are \
             2-core workers (one compute core), native isolation",
            SERVICE_TIME.as_millis()
        ),
    );
    report.header(&["mode", "wall time [ms]", "throughput [RPS]"]);
    for (mode, elapsed) in [("1 member", single), ("3 members", triple)] {
        report.row(vec![
            mode.into(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            format!("{:.0}", requests / elapsed.as_secs_f64().max(1e-9)),
        ]);
    }
    report.note(&format!(
        "3 members serve the same load {:.2}x faster than 1 — the gateway turns extra nodes \
         into throughput without clients changing a single URL",
        single.as_secs_f64() / triple.as_secs_f64().max(1e-9)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_parse_roundtrip() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::parse("nope"), None);
    }

    #[test]
    fn table1_report_matches_paper_totals() {
        let report = table1_sandbox_breakdown();
        let totals = report
            .rows
            .iter()
            .find(|row| row[0] == "Total")
            .expect("total row");
        let paper = report
            .rows
            .iter()
            .find(|row| row[0] == "Paper total")
            .expect("paper row");
        for (ours, theirs) in totals[1..].iter().zip(&paper[1..]) {
            let ours: f64 = ours.parse().unwrap();
            let theirs: f64 = theirs.parse().unwrap();
            assert!(
                (ours - theirs).abs() / theirs < 0.02,
                "modeled total {ours} deviates from paper {theirs}"
            );
        }
    }

    #[test]
    fn fig10_shows_large_memory_savings() {
        let report = fig10_azure_memory();
        let memory = report
            .rows
            .iter()
            .find(|row| row[0].starts_with("average committed"))
            .unwrap();
        let firecracker: f64 = memory[1].parse().unwrap();
        let dandelion: f64 = memory[2].parse().unwrap();
        assert!(
            dandelion < firecracker * 0.25,
            "expected >75% memory savings, got {dandelion} vs {firecracker}"
        );
    }

    #[test]
    fn data_plane_zero_copy_is_at_least_twice_as_fast() {
        let report = data_plane();
        let per_invocation_ms = |mode: &str| -> f64 {
            report
                .rows
                .iter()
                .find(|row| row[0] == mode)
                .expect("mode row present")[1]
                .parse()
                .unwrap()
        };
        let copy = per_invocation_ms("copy");
        let zero_copy = per_invocation_ms("zero-copy");
        assert!(
            copy >= 2.0 * zero_copy,
            "expected >=2x on >=1 MiB payloads, got copy {copy} ms vs zero-copy {zero_copy} ms"
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "allocation-level speedups are only meaningful with optimizations; \
                  run with `cargo test --release -p dandelion-bench` (CI does)"
    )]
    fn small_invocations_pooled_path_is_at_least_twice_as_fast() {
        // Wall-clock microbenchmarks on shared runners are noisy; the
        // speedup is ~2.7x in steady state, so one retry absorbs a
        // noisy-neighbor measurement without weakening the >=2x contract.
        let mut last = (0.0, 0.0);
        for _attempt in 0..2 {
            let report = small_invocations();
            let rps = |mode: &str| -> f64 {
                report
                    .rows
                    .iter()
                    .find(|row| row[0] == mode)
                    .expect("mode row present")[2]
                    .parse()
                    .unwrap()
            };
            last = (rps("pooled-rope"), rps("vec-assembly"));
            if last.0 >= 2.0 * last.1 {
                return;
            }
        }
        let (pooled, vec_assembly) = last;
        panic!("expected >=2x RPS for the pooled/rope path, got {pooled} vs {vec_assembly}");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "loopback RPS is only meaningful with optimizations; \
                  run with `cargo test --release -p dandelion-bench` (CI does)"
    )]
    fn network_keep_alive_sustains_loopback_throughput() {
        // The guard is deliberately far below steady-state loopback numbers
        // (tens of thousands of RPS on a laptop): it exists to catch the
        // serving layer falling off a cliff — per-request allocation storms,
        // accidental connection churn — not to benchmark the runner.
        const MIN_KEEP_ALIVE_RPS: f64 = 2_000.0;
        let mut last = 0.0;
        for _attempt in 0..2 {
            let report = network();
            let rps: f64 = report
                .rows
                .iter()
                .find(|row| row[0] == "keep-alive")
                .expect("keep-alive row present")[2]
                .parse()
                .unwrap();
            last = rps;
            if rps >= MIN_KEEP_ALIVE_RPS {
                return;
            }
        }
        panic!("expected >= {MIN_KEEP_ALIVE_RPS} RPS over loopback keep-alive, got {last}");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "loopback RPS is only meaningful with optimizations; \
                  run with `cargo test --release -p dandelion-bench` (CI does)"
    )]
    fn network_throughput_survives_thousands_of_idle_connections() {
        // The scaling contract of the event-loop rewrite: parking 2000 idle
        // keep-alive connections must leave active throughput within 2x of
        // the few-connection case. A thread-per-connection regression fails
        // this immediately (the idle herd would pin every handler or be
        // refused outright). One retry absorbs noisy-neighbor runs.
        let mut last = (0.0, 0.0);
        for _attempt in 0..2 {
            let report = network();
            let rps = |mode: &str| -> f64 {
                report
                    .rows
                    .iter()
                    .find(|row| row[0] == mode)
                    .expect("mode row present")[2]
                    .parse()
                    .unwrap()
            };
            last = (rps("keep-alive + 2000 idle"), rps("keep-alive"));
            if last.0 * 2.0 >= last.1 {
                return;
            }
        }
        let (high, few) = last;
        panic!(
            "expected the 2000-idle-connection scenario within 2x of the few-connection \
             RPS, got {high} vs {few}"
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "loop-scaling RPS is only meaningful with optimizations; \
                  run with `cargo test --release -p dandelion-bench` (CI does)"
    )]
    fn network_scaling_four_loops_outscale_one() {
        // The contract of the sharded-accept rewrite: with ~10k active
        // connections, 4 event loops (each with its own SO_REUSEPORT
        // listener, edge-triggered registrations and lock-free inbox) must
        // deliver >= 2x the RPS of a single loop. Loop scaling needs cores
        // to scale onto: below 6 (4 loops + client threads + kernel) the
        // full contract is physically unreachable, so small machines only
        // sanity-check that 4 loops do not *collapse* — the 2x guard runs
        // on CI-sized runners. One retry absorbs noisy neighbors.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut last = (0.0, 0.0);
        for _attempt in 0..2 {
            let report = network();
            let rps = |mode: &str| -> f64 {
                report
                    .rows
                    .iter()
                    .find(|row| row[0] == mode)
                    .expect("mode row present")[2]
                    .parse()
                    .unwrap()
            };
            last = (rps("10k active, 4 loops"), rps("10k active, 1 loop"));
            if cores >= 6 && last.0 >= 2.0 * last.1 {
                return;
            }
            if cores < 6 && last.0 >= 0.4 * last.1 {
                println!(
                    "note: only {cores} cores available — loop-scaling contract (>= 2x) \
                     skipped, sanity floor (>= 0.4x) passed with {:.0} vs {:.0} RPS",
                    last.0, last.1
                );
                return;
            }
        }
        let (four, one) = last;
        if cores >= 6 {
            panic!("expected >= 2x RPS with 4 event loops under 10k active connections, got {four} vs {one}");
        }
        panic!(
            "4 event loops collapsed under 10k active connections on a {cores}-core machine: \
             {four} vs {one} RPS"
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "cluster scaling RPS is only meaningful with optimizations; \
                  run with `cargo test --release -p dandelion-bench` (CI does)"
    )]
    fn cluster_three_members_outscale_one() {
        // The scaling contract of the gateway: with compute-bound members,
        // three nodes behind one front door must serve the same closed-loop
        // workload at >= 1.5x the single-member throughput. Perfect scaling
        // is ~3x; the margin leaves room for affinity imbalance across the
        // shard compositions and noisy shared runners, while still failing
        // hard if routing collapses onto one member. One retry absorbs a
        // noisy-neighbor measurement.
        let mut last = (0.0, 0.0);
        for _attempt in 0..2 {
            let report = cluster();
            let rps = |mode: &str| -> f64 {
                report
                    .rows
                    .iter()
                    .find(|row| row[0] == mode)
                    .expect("mode row present")[2]
                    .parse()
                    .unwrap()
            };
            last = (rps("3 members"), rps("1 member"));
            if last.0 >= 1.5 * last.1 {
                return;
            }
        }
        let (triple, single) = last;
        panic!("expected >= 1.5x RPS with 3 members behind the gateway, got {triple} vs {single}");
    }

    #[test]
    fn fig9_dandelion_is_cheaper_than_athena() {
        let report = fig9_ssb_queries();
        for row in &report.rows[1..] {
            let dandelion_cost: f64 = row[2].parse().unwrap();
            let athena_cost: f64 = row[4].parse().unwrap();
            assert!(dandelion_cost < athena_cost, "row {row:?}");
        }
    }
}
