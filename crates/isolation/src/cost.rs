//! Per-backend sandbox lifecycle cost models.
//!
//! Table 1 of the paper breaks the unloaded cold-start latency of each
//! isolation backend into stages (marshal requests, load from disk, transfer
//! input, execute function, get/send output, other), measured on the Arm
//! Morello board for a 1×1 matmul. §7.2 additionally reports total latencies
//! on a stock x86 Linux 5.15 kernel. These numbers parameterize virtual-time
//! experiments: the simulator and the experiment harness charge the modeled
//! stage costs. The running node is charged nothing; it measures its own
//! stage timings.

use std::time::Duration;

use dandelion_common::config::IsolationKind;

/// The sandbox lifecycle stages of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Marshal the request into engine-internal form.
    Marshal,
    /// Load the function binary (from disk when cold, from cache when warm).
    Load,
    /// Transfer the inputs into the function's memory context.
    TransferInput,
    /// Execute the function (sandbox entry/exit plus the function body).
    Execute,
    /// Collect the outputs and hand them back to the dispatcher.
    Output,
    /// Everything else (queueing inside the engine, bookkeeping).
    Other,
}

impl Stage {
    /// All stages in lifecycle order.
    pub const ALL: [Stage; 6] = [
        Stage::Marshal,
        Stage::Load,
        Stage::TransferInput,
        Stage::Execute,
        Stage::Output,
        Stage::Other,
    ];

    /// Stable label used in reports (matches Table 1 row names).
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Marshal => "Marshal requests",
            Stage::Load => "Load from disk",
            Stage::TransferInput => "Transfer input",
            Stage::Execute => "Execute function",
            Stage::Output => "Get/send output",
            Stage::Other => "Other",
        }
    }
}

/// Hardware platform whose calibration numbers are used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardwarePlatform {
    /// Arm Morello board (the paper's Table 1 and Figure 5 setup).
    Morello,
    /// Dual-socket Xeon E5-2630v3 running stock Linux 5.15 (§7.2, §7.3).
    X86Linux,
}

/// Per-stage cost model for one isolation backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SandboxCostModel {
    /// The backend this model describes.
    pub backend: IsolationKind,
    /// Marshal stage cost.
    pub marshal: Duration,
    /// Binary load cost when the binary must come from disk.
    pub load_from_disk: Duration,
    /// Binary load cost when the binary is cached in memory.
    pub load_from_cache: Duration,
    /// Input transfer cost for a tiny (1×1 matmul) input.
    pub transfer_input: Duration,
    /// Sandbox entry/exit cost (execution overhead, excluding the function
    /// body itself).
    pub execute_overhead: Duration,
    /// Output collection cost.
    pub output: Duration,
    /// Remaining bookkeeping cost.
    pub other: Duration,
    /// Multiplier applied to the function body's compute time (e.g. rWasm's
    /// transpiled matmul runs slower than native, §7.3).
    pub compute_slowdown: f64,
    /// Per-KiB cost added to input transfer and output collection.
    pub per_kib_copy: Duration,
}

impl SandboxCostModel {
    /// The calibrated model for a backend on a hardware platform.
    ///
    /// Morello numbers are Table 1 verbatim; the x86 numbers scale the
    /// Morello stage breakdown to the totals reported in §7.2 (rWasm 109 µs,
    /// process 539 µs, KVM 218 µs; CHERI does not exist on x86 and reuses
    /// its Morello numbers).
    pub fn for_backend(backend: IsolationKind, platform: HardwarePlatform) -> Self {
        let us = Duration::from_micros;
        let base = match backend {
            IsolationKind::Cheri => Self {
                backend,
                marshal: us(12),
                load_from_disk: us(29),
                load_from_cache: us(8),
                transfer_input: us(2),
                execute_overhead: us(5),
                output: us(9),
                other: us(32),
                compute_slowdown: 1.0,
                per_kib_copy: Duration::from_nanos(40),
            },
            IsolationKind::Rwasm => Self {
                backend,
                marshal: us(15),
                load_from_disk: us(147),
                load_from_cache: us(30),
                transfer_input: us(2),
                execute_overhead: us(20),
                output: us(12),
                other: us(45),
                compute_slowdown: 3.0,
                per_kib_copy: Duration::from_nanos(40),
            },
            IsolationKind::Process => Self {
                backend,
                marshal: us(12),
                load_from_disk: us(54),
                load_from_cache: us(15),
                transfer_input: us(6),
                execute_overhead: us(371),
                output: us(9),
                other: us(34),
                compute_slowdown: 1.0,
                per_kib_copy: Duration::from_nanos(60),
            },
            IsolationKind::Kvm => Self {
                backend,
                marshal: us(30),
                load_from_disk: us(194),
                load_from_cache: us(40),
                transfer_input: us(2),
                execute_overhead: us(536),
                output: us(25),
                other: us(102),
                compute_slowdown: 1.0,
                per_kib_copy: Duration::from_nanos(40),
            },
            IsolationKind::Native => Self {
                backend,
                marshal: us(1),
                load_from_disk: us(5),
                load_from_cache: us(1),
                transfer_input: us(1),
                execute_overhead: us(1),
                output: us(1),
                other: us(2),
                compute_slowdown: 1.0,
                per_kib_copy: Duration::from_nanos(30),
            },
        };
        match platform {
            HardwarePlatform::Morello => base,
            HardwarePlatform::X86Linux => {
                // §7.2: totals of 109 µs (rWasm), 539 µs (process), 218 µs
                // (KVM) on the default Linux 5.15 kernel. Scale every stage
                // by total_x86 / total_morello to keep the breakdown shape.
                let target_total_us = match backend {
                    IsolationKind::Rwasm => Some(109.0),
                    IsolationKind::Process => Some(539.0),
                    IsolationKind::Kvm => Some(218.0),
                    IsolationKind::Cheri | IsolationKind::Native => None,
                };
                match target_total_us {
                    None => base,
                    Some(target) => {
                        let current = base.cold_total(true).as_secs_f64() * 1e6;
                        base.scaled(target / current)
                    }
                }
            }
        }
    }

    fn scaled(&self, factor: f64) -> Self {
        let scale = |duration: Duration| duration.mul_f64(factor);
        Self {
            backend: self.backend,
            marshal: scale(self.marshal),
            load_from_disk: scale(self.load_from_disk),
            load_from_cache: scale(self.load_from_cache),
            transfer_input: scale(self.transfer_input),
            execute_overhead: scale(self.execute_overhead),
            output: scale(self.output),
            other: scale(self.other),
            compute_slowdown: self.compute_slowdown,
            per_kib_copy: self.per_kib_copy,
        }
    }

    /// The modeled cost of one stage (using the disk-load cost when
    /// `cold_binary` is true).
    pub fn stage_cost(&self, stage: Stage, cold_binary: bool) -> Duration {
        match stage {
            Stage::Marshal => self.marshal,
            Stage::Load => {
                if cold_binary {
                    self.load_from_disk
                } else {
                    self.load_from_cache
                }
            }
            Stage::TransferInput => self.transfer_input,
            Stage::Execute => self.execute_overhead,
            Stage::Output => self.output,
            Stage::Other => self.other,
        }
    }

    /// Total sandbox creation cost excluding the function body.
    pub fn cold_total(&self, cold_binary: bool) -> Duration {
        Stage::ALL
            .iter()
            .map(|stage| self.stage_cost(*stage, cold_binary))
            .sum()
    }

    /// Full modeled invocation latency: sandbox lifecycle plus the function
    /// body scaled by the backend's compute slowdown plus data copy costs.
    pub fn invocation_latency(
        &self,
        compute_time: Duration,
        input_bytes: usize,
        output_bytes: usize,
        cold_binary: bool,
    ) -> Duration {
        let copy_kib = ((input_bytes + output_bytes) as f64 / 1024.0).ceil() as u32;
        self.cold_total(cold_binary)
            + compute_time.mul_f64(self.compute_slowdown)
            + self.per_kib_copy * copy_kib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 totals in microseconds on Morello.
    const TABLE1_TOTALS: [(IsolationKind, u64); 4] = [
        (IsolationKind::Cheri, 89),
        (IsolationKind::Rwasm, 241),
        (IsolationKind::Process, 486),
        (IsolationKind::Kvm, 889),
    ];

    #[test]
    fn morello_totals_match_table_1() {
        for (backend, expected_us) in TABLE1_TOTALS {
            let model = SandboxCostModel::for_backend(backend, HardwarePlatform::Morello);
            let total = model.cold_total(true).as_micros() as u64;
            assert_eq!(total, expected_us, "total for {backend}");
        }
    }

    #[test]
    fn x86_totals_match_section_7_2() {
        let expectations = [
            (IsolationKind::Rwasm, 109),
            (IsolationKind::Process, 539),
            (IsolationKind::Kvm, 218),
        ];
        for (backend, expected_us) in expectations {
            let model = SandboxCostModel::for_backend(backend, HardwarePlatform::X86Linux);
            let total = model.cold_total(true).as_micros() as i64;
            assert!(
                (total - expected_us).abs() <= 1,
                "{backend}: {total} vs {expected_us}"
            );
        }
    }

    /// Every backend, the native reference included.
    const ALL_KINDS: [IsolationKind; 5] = [
        IsolationKind::Cheri,
        IsolationKind::Rwasm,
        IsolationKind::Process,
        IsolationKind::Kvm,
        IsolationKind::Native,
    ];

    /// A charged lifecycle has an entry for every row of Table 1: no stage
    /// of any backend is free, cold or warm, on either platform.
    #[test]
    fn every_stage_of_every_backend_costs_something() {
        for backend in ALL_KINDS {
            for platform in [HardwarePlatform::Morello, HardwarePlatform::X86Linux] {
                let model = SandboxCostModel::for_backend(backend, platform);
                for stage in Stage::ALL {
                    for cold in [false, true] {
                        assert!(
                            model.stage_cost(stage, cold) > Duration::ZERO,
                            "{backend} {platform:?} {stage:?} cold={cold}"
                        );
                    }
                }
            }
        }
    }

    /// On every backend, the native reference included, a warm binary's
    /// total is cheaper than a cold one's.
    #[test]
    fn warm_binary_load_is_cheaper() {
        for backend in ALL_KINDS {
            let model = SandboxCostModel::for_backend(backend, HardwarePlatform::Morello);
            assert!(model.cold_total(false) < model.cold_total(true));
        }
    }

    #[test]
    fn cheri_is_fastest_kvm_is_slowest_on_morello() {
        let totals: Vec<(IsolationKind, Duration)> = IsolationKind::PAPER_BACKENDS
            .iter()
            .map(|backend| {
                (
                    *backend,
                    SandboxCostModel::for_backend(*backend, HardwarePlatform::Morello)
                        .cold_total(true),
                )
            })
            .collect();
        let cheri = totals
            .iter()
            .find(|(b, _)| *b == IsolationKind::Cheri)
            .unwrap()
            .1;
        let kvm = totals
            .iter()
            .find(|(b, _)| *b == IsolationKind::Kvm)
            .unwrap()
            .1;
        assert!(totals.iter().all(|(_, total)| cheri <= *total));
        assert!(totals.iter().all(|(_, total)| kvm >= *total));
        // The paper reports CHERI sandboxes boot in under 90 µs.
        assert!(cheri < Duration::from_micros(90));
    }

    #[test]
    fn invocation_latency_accounts_for_slowdown_and_copies() {
        let rwasm = SandboxCostModel::for_backend(IsolationKind::Rwasm, HardwarePlatform::Morello);
        let cheri = SandboxCostModel::for_backend(IsolationKind::Cheri, HardwarePlatform::Morello);
        let compute = Duration::from_micros(100);
        let rwasm_latency = rwasm.invocation_latency(compute, 0, 0, false);
        let cheri_latency = cheri.invocation_latency(compute, 0, 0, false);
        // rWasm pays the 3x compute slowdown.
        assert!(rwasm_latency > cheri_latency + Duration::from_micros(150));
        // Copy costs scale with data size.
        let small = cheri.invocation_latency(compute, 1024, 0, false);
        let large = cheri.invocation_latency(compute, 1024 * 1024, 0, false);
        assert!(large > small);
    }

    #[test]
    fn stage_labels_are_stable() {
        assert_eq!(Stage::Marshal.label(), "Marshal requests");
        assert_eq!(Stage::ALL.len(), 6);
    }
}
