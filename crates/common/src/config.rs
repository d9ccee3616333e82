//! Platform configuration shared by the runtime and the simulator.

use std::time::Duration;

/// Which memory isolation mechanism a compute engine uses.
///
/// The paper implements four backends and shows that the platform design is
/// not tied to any particular one (§6.2). `Native` is a fifth, repo-only
/// backend that executes the function directly and is used as the functional
/// reference in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationKind {
    /// CHERI hybrid-capability isolation within a single address space.
    Cheri,
    /// Lightweight KVM virtual machine without a guest kernel.
    Kvm,
    /// Separate OS process with ptrace-based syscall interception.
    Process,
    /// rWasm: Wasm transpiled to safe Rust, isolation by the Rust compiler.
    Rwasm,
    /// Direct in-process execution (reference backend, not in the paper).
    Native,
}

impl IsolationKind {
    /// All backends evaluated in the paper.
    pub const PAPER_BACKENDS: [IsolationKind; 4] = [
        IsolationKind::Cheri,
        IsolationKind::Rwasm,
        IsolationKind::Process,
        IsolationKind::Kvm,
    ];

    /// Short lowercase name used in reports and plots.
    pub fn name(&self) -> &'static str {
        match self {
            IsolationKind::Cheri => "cheri",
            IsolationKind::Kvm => "kvm",
            IsolationKind::Process => "process",
            IsolationKind::Rwasm => "rwasm",
            IsolationKind::Native => "native",
        }
    }
}

impl std::fmt::Display for IsolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Engine type: compute engines run untrusted code, communication engines run
/// trusted I/O functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Executes untrusted compute functions in sandboxes, run-to-completion.
    Compute,
    /// Executes trusted communication functions cooperatively.
    Communication,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Compute => f.write_str("compute"),
            EngineKind::Communication => f.write_str("communication"),
        }
    }
}

/// Configuration of the PI controller that re-balances CPU cores between
/// compute and communication engines (paper §5, "Control plane").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Control interval; the paper uses 30 ms.
    pub interval: Duration,
    /// Proportional gain applied to the queue-growth error signal.
    pub proportional_gain: f64,
    /// Integral gain applied to the accumulated error.
    pub integral_gain: f64,
    /// Magnitude the control signal must exceed before a core moves.
    pub actuation_threshold: f64,
    /// Minimum number of cores that must remain assigned to each engine type.
    pub min_cores_per_kind: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(30),
            proportional_gain: 0.6,
            integral_gain: 0.2,
            actuation_threshold: 1.0,
            min_cores_per_kind: 1,
        }
    }
}

/// Worker-node configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerConfig {
    /// Total CPU cores available to engines on this node.
    pub total_cores: usize,
    /// Cores initially assigned to communication engines.
    pub initial_communication_cores: usize,
    /// Isolation backend used by compute engines.
    pub isolation: IsolationKind,
    /// Default compute-function timeout before preemption.
    pub function_timeout: Duration,
    /// Upper bound on queued tasks per engine type before back-pressure.
    pub queue_capacity: usize,
    /// PI controller parameters.
    pub controller: ControllerConfig,
    /// Fraction of invocations whose function binary must be loaded from
    /// disk rather than the in-memory cache (the paper uses 3%).
    pub binary_cold_load_ratio: f64,
    /// How many finished invocations the in-flight table retains for result
    /// polling before the oldest are expired.
    pub completed_retention: usize,
    /// Extra wall-clock beyond `function_timeout` an invocation may go
    /// without any instance completing before the dispatcher fails it
    /// (safety net against lost engine replies).
    pub engine_stall_grace: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            total_cores: 16,
            initial_communication_cores: 2,
            isolation: IsolationKind::Process,
            function_timeout: Duration::from_secs(30),
            queue_capacity: 65_536,
            controller: ControllerConfig::default(),
            binary_cold_load_ratio: 0.03,
            completed_retention: 1024,
            engine_stall_grace: Duration::from_secs(30),
        }
    }
}

impl WorkerConfig {
    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_cores < 2 {
            return Err("a worker needs at least 2 cores (1 compute + 1 communication)".into());
        }
        if self.initial_communication_cores == 0
            || self.initial_communication_cores >= self.total_cores
        {
            return Err(format!(
                "initial_communication_cores must be in 1..{}",
                self.total_cores
            ));
        }
        if !(0.0..=1.0).contains(&self.binary_cold_load_ratio) {
            return Err("binary_cold_load_ratio must be within [0, 1]".into());
        }
        if self.controller.min_cores_per_kind == 0 {
            return Err("controller.min_cores_per_kind must be at least 1".into());
        }
        if self.completed_retention == 0 {
            return Err("completed_retention must be at least 1".into());
        }
        Ok(())
    }

    /// Cores initially assigned to compute engines.
    pub fn initial_compute_cores(&self) -> usize {
        self.total_cores - self.initial_communication_cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_worker_config_is_valid() {
        let config = WorkerConfig::default();
        assert!(config.validate().is_ok());
        assert_eq!(config.initial_compute_cores(), 14);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = WorkerConfig {
            total_cores: 1,
            ..WorkerConfig::default()
        };
        assert!(config.validate().is_err());

        config.total_cores = 8;
        config.initial_communication_cores = 8;
        assert!(config.validate().is_err());

        config.initial_communication_cores = 2;
        config.binary_cold_load_ratio = 1.5;
        assert!(config.validate().is_err());
    }

    #[test]
    fn isolation_kind_names_are_stable() {
        assert_eq!(IsolationKind::Cheri.name(), "cheri");
        assert_eq!(IsolationKind::Kvm.to_string(), "kvm");
        assert_eq!(IsolationKind::PAPER_BACKENDS.len(), 4);
    }

    #[test]
    fn controller_defaults_match_paper() {
        let controller = ControllerConfig::default();
        assert_eq!(controller.interval, Duration::from_millis(30));
        assert!(controller.min_cores_per_kind >= 1);
    }

    #[test]
    fn engine_kind_display() {
        assert_eq!(EngineKind::Compute.to_string(), "compute");
        assert_eq!(EngineKind::Communication.to_string(), "communication");
    }
}
