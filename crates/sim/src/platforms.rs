//! Platform models: Dandelion, D-hybrid, MicroVM baselines and Wasmtime.
//!
//! Each model is a queueing system with calibrated service times. Requests
//! must be submitted in non-decreasing arrival order (the load generators in
//! [`crate::load`] guarantee this); a submission immediately computes the
//! request's completion time given the platform's current state, which is an
//! exact model of FCFS multi-server queueing.
//!
//! Calibration sources:
//!
//! * Dandelion sandbox lifecycles — Table 1 / §7.2 via
//!   [`dandelion_isolation::SandboxCostModel`].
//! * Firecracker boot and snapshot-restore times, Wasmtime instantiation and
//!   code-generation slowdown, gVisor overheads — the numbers reported in
//!   §7.2/§7.3 of the paper.
//! * The compute times of the workloads — back-computed from the saturation
//!   throughputs the paper reports on the 16-core Xeon.

use std::time::Duration;

use dandelion_common::config::ControllerConfig;
use dandelion_common::rng::SplitMix64;
use dandelion_common::MIB;
use dandelion_core::{CoreAllocation, Step};
use dandelion_isolation::{HardwarePlatform, SandboxCostModel};

use crate::autoscaler::KnativeAutoscaler;
use crate::request::{Phase, RequestSpec};
use crate::server::{CorePool, MemoryTracker};

/// The outcome of one simulated request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// End-to-end latency of the request.
    pub latency: Duration,
    /// Whether the request paid a sandbox cold start.
    pub cold_start: bool,
}

/// A platform that can serve requests under virtual time.
pub trait PlatformModel {
    /// Display name used in reports.
    fn name(&self) -> String;

    /// Serves a request arriving at `arrival`. Arrivals must be submitted in
    /// non-decreasing order.
    fn submit(&mut self, arrival: Duration, request: &RequestSpec) -> Completion;

    /// The committed-memory tracker.
    fn memory(&self) -> &MemoryTracker;

    /// Number of sandbox cold starts so far.
    fn cold_starts(&self) -> u64;

    /// Called once after the last submission with the experiment horizon so
    /// that still-provisioned sandboxes can flush their memory intervals.
    fn finish(&mut self, _horizon: Duration) {}
}

// ---------------------------------------------------------------------------
// Dandelion
// ---------------------------------------------------------------------------

/// Configuration for the Dandelion platform model.
#[derive(Debug, Clone)]
pub struct DandelionConfig {
    /// Total CPU cores of the worker.
    pub total_cores: usize,
    /// Cores initially assigned to communication engines.
    pub initial_communication_cores: usize,
    /// Isolation backend cost model.
    pub cost: SandboxCostModel,
    /// PI controller parameters (paper defaults).
    pub controller: ControllerConfig,
    /// Fraction of requests whose function binary is loaded from disk.
    pub binary_cold_load_ratio: f64,
    /// Frontend + dispatcher overhead charged per compute phase.
    pub dispatch_overhead: Duration,
    /// CPU time a communication phase consumes on a communication core.
    pub communication_cpu: Duration,
    /// Random seed.
    pub seed: u64,
}

impl DandelionConfig {
    /// The default 16-core x86 worker used in §7.3–§7.6.
    pub fn xeon(cost: SandboxCostModel) -> Self {
        Self {
            total_cores: 16,
            initial_communication_cores: 2,
            cost,
            controller: ControllerConfig::default(),
            binary_cold_load_ratio: 0.03,
            dispatch_overhead: Duration::from_micros(120),
            communication_cpu: Duration::from_micros(25),
            seed: 1,
        }
    }

    /// The 4-core Morello board used for Table 1 / Figure 5.
    pub fn morello(cost: SandboxCostModel) -> Self {
        Self {
            total_cores: 4,
            initial_communication_cores: 1,
            ..Self::xeon(cost)
        }
    }
}

/// The Dandelion platform: a fresh sandbox per compute phase, cooperative
/// communication engines, and PI-controlled core re-balancing.
pub struct DandelionSim {
    config: DandelionConfig,
    compute: CorePool,
    communication: CorePool,
    control: Step,
    next_control_tick: Duration,
    rng: SplitMix64,
    memory: MemoryTracker,
    cold_starts: u64,
    core_timeline: Vec<(Duration, usize, usize)>,
}

impl DandelionSim {
    /// Creates the model.
    pub fn new(config: DandelionConfig) -> Self {
        let compute_cores = config.total_cores - config.initial_communication_cores;
        let allocation = CoreAllocation::new(compute_cores, config.initial_communication_cores);
        Self {
            compute: CorePool::new(compute_cores),
            communication: CorePool::new(config.initial_communication_cores),
            control: Step::new(config.controller, allocation),
            next_control_tick: config.controller.interval,
            rng: SplitMix64::new(config.seed),
            memory: MemoryTracker::new(),
            cold_starts: 0,
            core_timeline: Vec::new(),
            config,
        }
    }

    /// The `(time, compute cores, communication cores)` re-allocation
    /// history, used by the Figure 8 report.
    pub fn core_timeline(&self) -> &[(Duration, usize, usize)] {
        &self.core_timeline
    }

    fn run_control_plane(&mut self, now: Duration) {
        while self.next_control_tick <= now {
            let tick = self.next_control_tick;
            let compute_depth = self.compute.queue_depth(tick);
            let communication_depth = self.communication.queue_depth(tick);
            if let Some(next) = self.control.step(compute_depth, communication_depth) {
                self.compute.resize(next.compute, tick);
                self.communication.resize(next.communication, tick);
                self.core_timeline
                    .push((tick, next.compute, next.communication));
            }
            self.next_control_tick += self.control.interval();
        }
    }
}

impl PlatformModel for DandelionSim {
    fn name(&self) -> String {
        format!("dandelion-{}", self.config.cost.backend)
    }

    fn submit(&mut self, arrival: Duration, request: &RequestSpec) -> Completion {
        self.run_control_plane(arrival);
        let mut cursor = arrival;
        let per_phase_io = request.io_bytes / request.phases.len().max(1);
        for phase in &request.phases {
            match phase {
                Phase::Compute { work } => {
                    let cold_binary = self.rng.bernoulli(self.config.binary_cold_load_ratio);
                    let service = self.config.dispatch_overhead
                        + self.config.cost.invocation_latency(
                            *work,
                            per_phase_io,
                            per_phase_io,
                            cold_binary,
                        );
                    let (start, finish) = self.compute.acquire(cursor, service);
                    self.memory.record(start, finish, request.memory_bytes());
                    self.cold_starts += 1;
                    cursor = finish;
                }
                Phase::Communication {
                    remote,
                    payload_bytes,
                } => {
                    let cpu = self.config.communication_cpu
                        + Duration::from_nanos((payload_bytes / 1024) as u64 * 200);
                    let (_, cpu_done) = self.communication.acquire(cursor, cpu);
                    cursor = cpu_done + *remote;
                }
            }
        }
        Completion {
            latency: cursor - arrival,
            cold_start: true,
        }
    }

    fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    fn cold_starts(&self) -> u64 {
        self.cold_starts
    }
}

// ---------------------------------------------------------------------------
// D-hybrid
// ---------------------------------------------------------------------------

/// Dandelion-hybrid (§7.5): the same isolation and architecture, but the
/// whole composition runs as a single "hybrid" function that may open
/// sockets, so the OS multiplexes `threads_per_core` such functions per core.
pub struct DHybridSim {
    cost: SandboxCostModel,
    slots: CorePool,
    cores: CorePool,
    threads_per_core: usize,
    pinned: bool,
    memory: MemoryTracker,
    cold_starts: u64,
}

impl DHybridSim {
    /// Creates the model for a machine with `total_cores` cores.
    pub fn new(
        cost: SandboxCostModel,
        total_cores: usize,
        threads_per_core: usize,
        pinned: bool,
    ) -> Self {
        let threads_per_core = threads_per_core.max(1);
        Self {
            cost,
            slots: CorePool::new(total_cores * threads_per_core),
            cores: CorePool::new(total_cores),
            threads_per_core,
            pinned,
            memory: MemoryTracker::new(),
            cold_starts: 0,
        }
    }

    /// Context-switch / interference penalty applied to compute time when the
    /// cores are oversubscribed and threads are not pinned.
    fn compute_penalty(&self) -> f64 {
        if self.pinned || self.threads_per_core == 1 {
            1.0
        } else {
            1.0 + 0.12 * (self.threads_per_core - 1) as f64
        }
    }
}

impl PlatformModel for DHybridSim {
    fn name(&self) -> String {
        if self.pinned {
            format!("d-hybrid-tpc{}-pinned", self.threads_per_core)
        } else {
            format!("d-hybrid-tpc{}", self.threads_per_core)
        }
    }

    fn submit(&mut self, arrival: Duration, request: &RequestSpec) -> Completion {
        // The request occupies one hybrid-function slot for its whole
        // lifetime and one sandbox creation.
        let (slot, slot_start) = self.slots.acquire_deferred(arrival);
        let mut cursor = slot_start + self.cost.cold_total(false);
        self.cold_starts += 1;
        let penalty = self.compute_penalty();
        for phase in &request.phases {
            match phase {
                Phase::Compute { work } => {
                    let service = work.mul_f64(self.cost.compute_slowdown * penalty);
                    let (_, finish) = self.cores.acquire(cursor, service);
                    cursor = finish;
                }
                Phase::Communication { remote, .. } => {
                    // Blocking I/O inside the hybrid function: the slot stays
                    // occupied but no core is consumed.
                    cursor += *remote;
                }
            }
        }
        self.slots.occupy_until(slot, cursor);
        self.memory
            .record(slot_start, cursor, request.memory_bytes());
        Completion {
            latency: cursor - arrival,
            cold_start: true,
        }
    }

    fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    fn cold_starts(&self) -> u64 {
        self.cold_starts
    }
}

// ---------------------------------------------------------------------------
// MicroVM baselines (Firecracker, Firecracker + snapshots, gVisor)
// ---------------------------------------------------------------------------

/// Which MicroVM-style baseline to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroVmKind {
    /// Firecracker booting a fresh MicroVM for cold starts.
    Firecracker,
    /// Firecracker restoring cold starts from snapshots.
    FirecrackerSnapshot,
    /// gVisor hardened containers.
    Gvisor,
}

impl MicroVmKind {
    /// Sandbox creation cost on the critical path of a cold request.
    pub fn cold_start_cost(&self, hardware: HardwarePlatform) -> Duration {
        match (self, hardware) {
            (MicroVmKind::Firecracker, HardwarePlatform::X86Linux) => Duration::from_millis(153),
            (MicroVmKind::Firecracker, HardwarePlatform::Morello) => Duration::from_millis(160),
            // "at least 8 ms are spent on loading a minimal snapshot ... and
            // re-establishing the network connection"; end-to-end restore is
            // 10-12 ms on x86 and limits the Morello server to ~120 RPS.
            (MicroVmKind::FirecrackerSnapshot, HardwarePlatform::X86Linux) => {
                Duration::from_millis(12)
            }
            (MicroVmKind::FirecrackerSnapshot, HardwarePlatform::Morello) => {
                Duration::from_millis(33)
            }
            (MicroVmKind::Gvisor, HardwarePlatform::X86Linux) => Duration::from_millis(95),
            (MicroVmKind::Gvisor, HardwarePlatform::Morello) => Duration::from_millis(140),
        }
    }

    /// Per-request overhead of the guest networking / relay path.
    pub fn request_overhead(&self) -> Duration {
        match self {
            MicroVmKind::Firecracker | MicroVmKind::FirecrackerSnapshot => {
                Duration::from_micros(1200)
            }
            MicroVmKind::Gvisor => Duration::from_micros(1800),
        }
    }

    /// Slowdown of guest compute relative to native.
    pub fn compute_slowdown(&self) -> f64 {
        match self {
            MicroVmKind::Firecracker | MicroVmKind::FirecrackerSnapshot => 1.12,
            MicroVmKind::Gvisor => 1.25,
        }
    }

    /// Extra memory of the guest OS / runtime per sandbox.
    pub fn per_sandbox_overhead_bytes(&self) -> usize {
        match self {
            MicroVmKind::Firecracker | MicroVmKind::FirecrackerSnapshot => 42 * MIB,
            MicroVmKind::Gvisor => 60 * MIB,
        }
    }
}

/// How the MicroVM platform decides between warm and cold starts.
pub enum WarmPolicy {
    /// A fixed fraction of requests is served warm (the paper's 97% hot
    /// setting for the load-sweep figures).
    FixedHotRatio {
        /// Probability that a request finds a warm sandbox.
        hot_ratio: f64,
    },
    /// Sandboxes are provisioned by a Knative-style autoscaler and kept warm
    /// until it scales them down (the Azure-trace figures).
    Autoscaled {
        /// The autoscaler instance.
        autoscaler: KnativeAutoscaler,
    },
}

/// A MicroVM-based FaaS platform fronted by an HTTP relay.
pub struct MicroVmSim {
    kind: MicroVmKind,
    hardware: HardwarePlatform,
    cores: CorePool,
    policy: WarmPolicy,
    rng: SplitMix64,
    memory: MemoryTracker,
    cold_starts: u64,
    /// Provisioned VMs in autoscaled mode: (function, free_at, created,
    /// memory bytes).
    vms: Vec<ProvisionedVm>,
    horizon_hint: Duration,
}

struct ProvisionedVm {
    function: String,
    free_at: Duration,
    last_used: Duration,
    created: Duration,
    memory_bytes: usize,
}

impl MicroVmSim {
    /// Creates a MicroVM platform model.
    pub fn new(
        kind: MicroVmKind,
        hardware: HardwarePlatform,
        cores: usize,
        policy: WarmPolicy,
        seed: u64,
    ) -> Self {
        Self {
            kind,
            hardware,
            cores: CorePool::new(cores),
            policy,
            rng: SplitMix64::new(seed),
            memory: MemoryTracker::new(),
            cold_starts: 0,
            vms: Vec::new(),
            horizon_hint: Duration::ZERO,
        }
    }

    fn vm_memory(&self, request: &RequestSpec) -> usize {
        request.memory_bytes() + self.kind.per_sandbox_overhead_bytes()
    }

    fn autoscaler_housekeeping(&mut self, now: Duration) {
        let WarmPolicy::Autoscaled { autoscaler } = &mut self.policy else {
            return;
        };
        for (function, target) in autoscaler.housekeeping(now) {
            // Scale down idle VMs above the target count.
            let mut provisioned: Vec<usize> = self
                .vms
                .iter()
                .enumerate()
                .filter(|(_, vm)| vm.function == function)
                .map(|(index, _)| index)
                .collect();
            let mut excess = provisioned.len().saturating_sub(target);
            // Remove idle VMs first, newest last.
            provisioned.sort_by_key(|index| self.vms[*index].last_used);
            let mut removed = Vec::new();
            for index in provisioned {
                if excess == 0 {
                    break;
                }
                if self.vms[index].free_at <= now {
                    removed.push(index);
                    excess -= 1;
                }
            }
            removed.sort_unstable_by(|a, b| b.cmp(a));
            for index in removed {
                let vm = self.vms.remove(index);
                self.memory.record(vm.created, now, vm.memory_bytes);
            }
        }
    }

    /// Flushes still-provisioned VM memory intervals up to `horizon`.
    ///
    /// Must be called once after the last submission so that VMs that were
    /// never scaled down still contribute to the memory timeline.
    pub fn flush_provisioned(&mut self, horizon: Duration) {
        self.horizon_hint = horizon;
        for vm in self.vms.drain(..) {
            self.memory.record(vm.created, horizon, vm.memory_bytes);
        }
    }
}

impl PlatformModel for MicroVmSim {
    fn name(&self) -> String {
        match self.kind {
            MicroVmKind::Firecracker => "firecracker".to_string(),
            MicroVmKind::FirecrackerSnapshot => "firecracker-snapshot".to_string(),
            MicroVmKind::Gvisor => "gvisor".to_string(),
        }
    }

    fn submit(&mut self, arrival: Duration, request: &RequestSpec) -> Completion {
        self.autoscaler_housekeeping(arrival);
        let compute = request
            .total_compute()
            .mul_f64(self.kind.compute_slowdown());
        let cpu_service_warm = self.kind.request_overhead() + compute;
        let vm_memory = self.vm_memory(request);

        let warm = match &mut self.policy {
            WarmPolicy::FixedHotRatio { hot_ratio } => self.rng.bernoulli(*hot_ratio),
            WarmPolicy::Autoscaled { autoscaler } => {
                autoscaler.observe_arrival(&request.name, arrival);
                self.vms
                    .iter()
                    .any(|vm| vm.function == request.name && vm.free_at <= arrival)
            }
        };

        let cpu_service = if warm {
            cpu_service_warm
        } else {
            self.cold_starts += 1;
            cpu_service_warm + self.kind.cold_start_cost(self.hardware)
        };
        let (start, cpu_finish) = self.cores.acquire(arrival, cpu_service);
        let finish = cpu_finish + request.total_remote();

        match &mut self.policy {
            WarmPolicy::FixedHotRatio { .. } => {
                // Memory is committed for the request plus the keep-alive the
                // relay would apply; for the load-sweep figures only latency
                // matters, so commit for the active window.
                self.memory.record(start, finish, vm_memory);
            }
            WarmPolicy::Autoscaled { .. } => {
                if warm {
                    if let Some(vm) = self
                        .vms
                        .iter_mut()
                        .filter(|vm| vm.function == request.name && vm.free_at <= arrival)
                        .min_by_key(|vm| vm.free_at)
                    {
                        vm.free_at = finish;
                        vm.last_used = finish;
                    }
                } else {
                    self.vms.push(ProvisionedVm {
                        function: request.name.clone(),
                        free_at: finish,
                        last_used: finish,
                        created: start,
                        memory_bytes: vm_memory,
                    });
                }
            }
        }

        Completion {
            latency: finish - arrival,
            cold_start: !warm,
        }
    }

    fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    fn cold_starts(&self) -> u64 {
        self.cold_starts
    }

    fn finish(&mut self, horizon: Duration) {
        self.flush_provisioned(horizon);
    }
}

// ---------------------------------------------------------------------------
// Spin / Wasmtime
// ---------------------------------------------------------------------------

/// The Spin/Wasmtime baseline: cheap pooled instantiation, slower generated
/// code, cooperative scheduling on a shared Tokio-style runtime.
pub struct WasmtimeSim {
    cores: CorePool,
    memory: MemoryTracker,
    cold_starts: u64,
    /// Code-generation slowdown relative to native (§7.3).
    compute_slowdown: f64,
    /// Per-request instantiation cost with pooled allocation.
    instantiation: Duration,
}

impl WasmtimeSim {
    /// Creates the model for a machine with `cores` cores.
    pub fn new(cores: usize) -> Self {
        Self {
            cores: CorePool::new(cores),
            memory: MemoryTracker::new(),
            cold_starts: 0,
            compute_slowdown: 2.2,
            instantiation: Duration::from_micros(450),
        }
    }

    /// Overrides the code-generation slowdown (the paper observes a larger
    /// gap for the image-compression workload than for matmul).
    pub fn with_compute_slowdown(mut self, slowdown: f64) -> Self {
        self.compute_slowdown = slowdown;
        self
    }
}

impl PlatformModel for WasmtimeSim {
    fn name(&self) -> String {
        "wasmtime".to_string()
    }

    fn submit(&mut self, arrival: Duration, request: &RequestSpec) -> Completion {
        self.cold_starts += 1;
        let mut cursor = arrival;
        let mut first_start = None;
        for phase in &request.phases {
            match phase {
                Phase::Compute { work } => {
                    let service = self.instantiation + work.mul_f64(self.compute_slowdown);
                    let (start, finish) = self.cores.acquire(cursor, service);
                    first_start.get_or_insert(start);
                    cursor = finish;
                }
                Phase::Communication { remote, .. } => {
                    // The Tokio runtime parks the task during I/O; no core is
                    // held, matching Spin's cooperative scheduling.
                    cursor += *remote;
                }
            }
        }
        let start = first_start.unwrap_or(arrival);
        self.memory
            .record(start, cursor, request.memory_bytes() / 4 + 8 * MIB);
        Completion {
            latency: cursor - arrival,
            cold_start: true,
        }
    }

    fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    fn cold_starts(&self) -> u64 {
        self.cold_starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::workloads;
    use dandelion_common::config::IsolationKind;

    fn cheri_cost() -> SandboxCostModel {
        SandboxCostModel::for_backend(IsolationKind::Cheri, HardwarePlatform::Morello)
    }

    fn kvm_cost() -> SandboxCostModel {
        SandboxCostModel::for_backend(IsolationKind::Kvm, HardwarePlatform::X86Linux)
    }

    #[test]
    fn dandelion_unloaded_latency_tracks_table_1() {
        let mut sim = DandelionSim::new(DandelionConfig::morello(cheri_cost()));
        let done = sim.submit(Duration::ZERO, &workloads::matmul_1x1());
        // Table 1: 89 µs sandbox total + dispatch overhead; well under 1 ms.
        assert!(done.latency > Duration::from_micros(80));
        assert!(done.latency < Duration::from_millis(1));
        assert_eq!(sim.cold_starts(), 1);
        assert!(!sim.memory().is_empty());
    }

    #[test]
    fn dandelion_queues_when_offered_load_exceeds_capacity() {
        let mut sim = DandelionSim::new(DandelionConfig::xeon(kvm_cost()));
        let spec = workloads::matmul_128();
        let mut last = Duration::ZERO;
        // Offer 10k RPS of ~3 ms requests to 14 compute cores: far beyond
        // capacity, so latency must blow up.
        let mut worst = Duration::ZERO;
        for index in 0..5_000u64 {
            let arrival = Duration::from_micros(index * 100);
            let done = sim.submit(arrival, &spec);
            worst = worst.max(done.latency);
            last = arrival;
        }
        assert!(worst > Duration::from_millis(100), "worst {worst:?}");
        assert!(last > Duration::ZERO);
    }

    #[test]
    fn dandelion_controller_shifts_cores_under_io_load() {
        let mut sim = DandelionSim::new(DandelionConfig::xeon(kvm_cost()));
        let spec = workloads::fetch_and_compute(4);
        for index in 0..20_000u64 {
            let arrival = Duration::from_micros(index * 500);
            sim.submit(arrival, &spec);
        }
        // The I/O heavy workload must have triggered at least one
        // re-allocation towards communication engines.
        assert!(!sim.core_timeline().is_empty());
    }

    #[test]
    fn firecracker_cold_starts_dominate_unloaded_latency() {
        let mut cold = MicroVmSim::new(
            MicroVmKind::Firecracker,
            HardwarePlatform::X86Linux,
            16,
            WarmPolicy::FixedHotRatio { hot_ratio: 0.0 },
            3,
        );
        let done = cold.submit(Duration::ZERO, &workloads::matmul_128());
        assert!(done.cold_start);
        assert!(done.latency > Duration::from_millis(150));

        let mut snapshot = MicroVmSim::new(
            MicroVmKind::FirecrackerSnapshot,
            HardwarePlatform::X86Linux,
            16,
            WarmPolicy::FixedHotRatio { hot_ratio: 0.0 },
            3,
        );
        let done = snapshot.submit(Duration::ZERO, &workloads::matmul_128());
        assert!(done.latency > Duration::from_millis(12));
        assert!(done.latency < Duration::from_millis(30));
    }

    #[test]
    fn hot_ratio_controls_cold_start_fraction() {
        let mut sim = MicroVmSim::new(
            MicroVmKind::FirecrackerSnapshot,
            HardwarePlatform::X86Linux,
            16,
            WarmPolicy::FixedHotRatio { hot_ratio: 0.97 },
            7,
        );
        let spec = workloads::matmul_128();
        let total = 10_000u64;
        for index in 0..total {
            sim.submit(Duration::from_micros(index * 1000), &spec);
        }
        let ratio = sim.cold_starts() as f64 / total as f64;
        assert!((0.02..0.04).contains(&ratio), "cold ratio {ratio}");
    }

    #[test]
    fn dandelion_beats_firecracker_snapshot_on_cold_tail() {
        // Figure 5: with 0% hot requests, Dandelion's p99 stays orders of
        // magnitude below Firecracker's.
        let spec = workloads::matmul_1x1();
        let mut dandelion = DandelionSim::new(DandelionConfig::morello(cheri_cost()));
        let mut firecracker = MicroVmSim::new(
            MicroVmKind::FirecrackerSnapshot,
            HardwarePlatform::Morello,
            4,
            WarmPolicy::FixedHotRatio { hot_ratio: 0.0 },
            5,
        );
        // 100 RPS: below Firecracker-snapshot's saturation (~120 RPS).
        let mut dandelion_worst = Duration::ZERO;
        let mut firecracker_worst = Duration::ZERO;
        for index in 0..500u64 {
            let arrival = Duration::from_millis(index * 10);
            dandelion_worst = dandelion_worst.max(dandelion.submit(arrival, &spec).latency);
            firecracker_worst = firecracker_worst.max(firecracker.submit(arrival, &spec).latency);
        }
        assert!(dandelion_worst * 20 < firecracker_worst);
    }

    #[test]
    fn wasmtime_pays_codegen_slowdown_not_boot_cost() {
        let mut wasmtime = WasmtimeSim::new(16);
        let done = wasmtime.submit(Duration::ZERO, &workloads::matmul_128());
        // Unloaded latency is a few ms (slower code), far from FC's 150 ms.
        assert!(done.latency > Duration::from_millis(4));
        assert!(done.latency < Duration::from_millis(20));
    }

    #[test]
    fn dhybrid_tpc_tradeoff_matches_figure_7() {
        // Compute-heavy workload: pinned tpc=1 beats tpc=5.
        let spec = workloads::matmul_128();
        let run = |mut sim: DHybridSim| {
            let mut worst = Duration::ZERO;
            for index in 0..20_000u64 {
                // 2500 RPS offered load.
                let arrival = Duration::from_micros(index * 400);
                worst = worst.max(sim.submit(arrival, &spec).latency);
            }
            worst
        };
        let pinned = run(DHybridSim::new(kvm_cost(), 16, 1, true));
        let oversubscribed = run(DHybridSim::new(kvm_cost(), 16, 5, false));
        assert!(pinned < oversubscribed);

        // I/O-heavy workload: tpc=5 beats tpc=1 because slots hide I/O. At
        // 2500 RPS, 16 single-threaded slots of ~9 ms requests saturate while
        // 80 slots do not.
        let spec = workloads::fetch_and_compute(4);
        let run_io = |mut sim: DHybridSim| {
            let mut worst = Duration::ZERO;
            for index in 0..15_000u64 {
                let arrival = Duration::from_micros(index * 400);
                worst = worst.max(sim.submit(arrival, &spec).latency);
            }
            worst
        };
        let single = run_io(DHybridSim::new(kvm_cost(), 16, 1, true));
        let five = run_io(DHybridSim::new(kvm_cost(), 16, 5, false));
        assert!(five < single, "tpc5 {five:?} vs tpc1 {single:?}");
    }
}
