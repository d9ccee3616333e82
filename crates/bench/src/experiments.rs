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
}

impl ExperimentId {
    /// Every experiment in paper order.
    pub const ALL: [ExperimentId; 12] = [
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
    fn fig9_dandelion_is_cheaper_than_athena() {
        let report = fig9_ssb_queries();
        for row in &report.rows[1..] {
            let dandelion_cost: f64 = row[2].parse().unwrap();
            let athena_cost: f64 = row[4].parse().unwrap();
            assert!(dandelion_cost < athena_cost, "row {row:?}");
        }
    }
}
