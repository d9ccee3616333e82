//! The Dandelion worker node.
//!
//! A [`WorkerNode`] assembles the pieces of Figure 4: the registry, the
//! dispatcher, the compute and communication engine pools, and the control
//! plane that re-balances cores between them, which the dispatcher's driver
//! thread steps with the rest of the worker's periodic work. It exposes the
//! programmatic API used by examples and benchmarks; the HTTP surface lives
//! in [`crate::frontend`].

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dandelion_common::config::{EngineKind, WorkerConfig};
use dandelion_common::{DandelionError, DandelionResult, DataSet, InvocationId, LatencySummary};
use dandelion_dsl::CompositionGraph;
use dandelion_http::validate::ValidationPolicy;
use dandelion_isolation::{create_backend, FunctionArtifact, HardwarePlatform};
use dandelion_services::ServiceRegistry;

use crate::control::{CoreAllocation, PoolControl, Step};
use crate::dispatcher::{
    DispatchMetrics, Dispatcher, InvocationHandle, InvocationOutcome, InvocationSnapshot,
};
use crate::engine::{EngineExecutor, EnginePool};
use crate::registry::Registry;
use crate::task::TaskQueue;

/// Point-in-time statistics of a worker node.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Completed invocations.
    pub invocations: u64,
    /// Failed invocations.
    pub failures: u64,
    /// Total compute tasks executed (sandboxes created).
    pub compute_tasks: u64,
    /// Total communication tasks executed.
    pub communication_tasks: u64,
    /// Cores currently assigned to compute engines.
    pub compute_cores: usize,
    /// Cores currently assigned to communication engines.
    pub communication_cores: usize,
    /// Current compute queue depth.
    pub compute_queue_depth: usize,
    /// Current communication queue depth.
    pub communication_queue_depth: usize,
    /// End-to-end invocation latency summary.
    pub latency: LatencySummary,
}

/// A single Dandelion worker node.
pub struct WorkerNode {
    config: WorkerConfig,
    registry: Arc<Registry>,
    services: Arc<ServiceRegistry>,
    dispatcher: Dispatcher,
    compute_pool: Arc<EnginePool>,
    communication_pool: Arc<EnginePool>,
    metrics: Arc<DispatchMetrics>,
    /// Drain signal: while set, `submit` refuses new work so in-flight
    /// invocations can finish (rolling restarts, gateway-driven draining).
    draining: std::sync::atomic::AtomicBool,
}

impl WorkerNode {
    /// Starts a worker node with the given configuration and remote-service
    /// registry.
    pub fn start(config: WorkerConfig, services: ServiceRegistry) -> DandelionResult<Arc<Self>> {
        Self::start_with_control(config, services, true)
    }

    /// Starts a worker node, optionally without the control plane (tests
    /// that assert exact core counts disable it).
    pub fn start_with_control(
        config: WorkerConfig,
        services: ServiceRegistry,
        enable_control_plane: bool,
    ) -> DandelionResult<Arc<Self>> {
        config.validate().map_err(DandelionError::Config)?;
        // Chaos runs configure fault injection through the environment; in
        // production no variable is set and every failpoint stays one
        // relaxed atomic load.
        dandelion_common::init_failpoints_from_env();
        let registry = Arc::new(Registry::new());
        let compute_queue = TaskQueue::new(EngineKind::Compute, config.queue_capacity);
        let communication_queue = TaskQueue::new(EngineKind::Communication, config.queue_capacity);

        let services = Arc::new(services);

        let backend = create_backend(config.isolation, HardwarePlatform::X86Linux);
        let compute_pool = Arc::new(EnginePool::new(
            EngineExecutor::Compute { backend },
            compute_queue.clone(),
        ));
        compute_pool.resize(config.initial_compute_cores());

        let communication_pool = Arc::new(EnginePool::new(
            EngineExecutor::Communication {
                registry: Arc::clone(&services),
                policy: Arc::new(ValidationPolicy::default()),
            },
            communication_queue.clone(),
        ));
        communication_pool.resize(config.initial_communication_cores);

        let control = enable_control_plane.then(|| PoolControl {
            step: Step::new(
                config.controller,
                CoreAllocation::new(
                    config.initial_compute_cores(),
                    config.initial_communication_cores,
                ),
            ),
            compute: Arc::clone(&compute_pool),
            communication: Arc::clone(&communication_pool),
        });

        let metrics = Arc::new(DispatchMetrics::default());
        let dispatcher = Dispatcher::with_metrics(
            Arc::clone(&registry),
            compute_queue,
            communication_queue,
            config.clone(),
            Arc::clone(&metrics),
            control,
        );

        Ok(Arc::new(Self {
            config,
            registry,
            services,
            dispatcher,
            compute_pool,
            communication_pool,
            metrics,
            draining: std::sync::atomic::AtomicBool::new(false),
        }))
    }

    /// The worker's configuration.
    pub fn config(&self) -> &WorkerConfig {
        &self.config
    }

    /// The function/composition registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The remote services the communication engines dispatch against.
    pub fn services(&self) -> &ServiceRegistry {
        &self.services
    }

    /// Registers a compute function.
    pub fn register_function(&self, artifact: FunctionArtifact) -> DandelionResult<()> {
        self.registry.register_function(artifact)
    }

    /// Registers a composition graph.
    pub fn register_composition(&self, graph: CompositionGraph) -> DandelionResult<()> {
        self.registry.register_composition(graph)
    }

    /// Compiles and registers a composition from DSL source text.
    pub fn register_composition_dsl(&self, source: &str) -> DandelionResult<String> {
        let graph = dandelion_dsl::compile(source)?;
        let name = graph.name.clone();
        self.registry.register_composition(graph)?;
        Ok(name)
    }

    /// Submits an invocation of a registered composition without blocking.
    ///
    /// The returned `InvocationHandle` tracks the invocation through the
    /// dispatcher's shared in-flight table: poll it with `try_result`, block
    /// on it with `wait`, or discard it and poll by id through
    /// [`WorkerNode::poll`]. Many invocations can be in flight per client.
    pub fn submit(
        &self,
        composition: &str,
        inputs: Vec<DataSet>,
    ) -> DandelionResult<InvocationHandle> {
        if self.is_draining() {
            return Err(DandelionError::ServiceError {
                status: 503,
                message: "node is draining and refuses new invocations".to_string(),
            });
        }
        let graph = self.registry.composition(composition)?;
        self.dispatcher.submit(graph, inputs)
    }

    /// Invokes a registered composition and waits for its outputs;
    /// equivalent to `submit(composition, inputs)?.wait(None)`.
    pub fn invoke(
        &self,
        composition: &str,
        inputs: Vec<DataSet>,
    ) -> DandelionResult<InvocationOutcome> {
        self.submit(composition, inputs)?.wait(None)
    }

    /// A non-consuming view of an invocation by id; `None` when the id is
    /// unknown or its retained result has expired.
    pub fn poll(&self, id: InvocationId) -> Option<InvocationSnapshot> {
        self.dispatcher.poll(id)
    }

    /// Number of invocations currently executing on this node.
    pub fn inflight(&self) -> usize {
        self.metrics.inflight.load(Ordering::SeqCst) as usize
    }

    /// Number of settled invocations whose result this node still holds for
    /// polling by id (submitted, neither consumed nor expired).
    pub fn retained_results(&self) -> usize {
        // Relaxed: a statistic, it publishes no other data.
        self.metrics.retained_results.load(Ordering::Relaxed) as usize
    }

    /// The compute engine pool (supervision counters, chaos tests).
    pub fn compute_pool(&self) -> &Arc<EnginePool> {
        &self.compute_pool
    }

    /// The communication engine pool (supervision counters, chaos tests).
    pub fn communication_pool(&self) -> &Arc<EnginePool> {
        &self.communication_pool
    }

    /// The current compute/communication core split: the engines running
    /// in each pool. Right after the controller moves a core the shrinking
    /// pool still counts the engine that has yet to take its stop marker.
    pub fn core_allocation(&self) -> CoreAllocation {
        CoreAllocation::new(
            self.compute_pool.engine_count(),
            self.communication_pool.engine_count(),
        )
    }

    /// Snapshot of the worker's statistics.
    pub fn stats(&self) -> WorkerStats {
        let allocation = self.core_allocation();
        WorkerStats {
            invocations: self.metrics.invocations.load(Ordering::Relaxed),
            failures: self.metrics.failures.load(Ordering::Relaxed),
            compute_tasks: self.metrics.compute_tasks.load(Ordering::Relaxed),
            communication_tasks: self.metrics.communication_tasks.load(Ordering::Relaxed),
            compute_cores: allocation.compute,
            communication_cores: allocation.communication,
            compute_queue_depth: self.compute_pool.queue().len(),
            communication_queue_depth: self.communication_pool.queue().len(),
            latency: self.metrics.latency.summary(),
        }
    }

    /// Waits until no invocation is in flight or `timeout` elapses; returns
    /// `true` when the node drained.
    ///
    /// This is the graceful half of shutting down a serving node: the
    /// network server stops admitting work, drains, and only then calls
    /// [`WorkerNode::shutdown`] — so accepted invocations finish instead of
    /// failing with [`DandelionError::Cancelled`].
    pub fn drain(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        self.wait_drained(deadline)
    }

    /// Raises the drain signal: [`WorkerNode::submit`] refuses further work
    /// with a retryable `503` while in-flight invocations run to completion.
    /// A cluster gateway sends this ahead of a rolling restart so the node
    /// empties before it is taken out of rotation.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Lowers the drain signal, returning the node to service.
    pub fn end_drain(&self) {
        self.draining.store(false, Ordering::SeqCst);
    }

    /// Whether the drain signal is raised.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn wait_drained(&self, deadline: std::time::Instant) -> bool {
        while self.inflight() > 0 {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        true
    }

    /// Stops the dispatcher (and with it the control plane) and every
    /// engine. Unsettled invocations fail with [`DandelionError::Cancelled`].
    pub fn shutdown(&self) {
        self.dispatcher.shutdown();
        self.compute_pool.shutdown();
        self.communication_pool.shutdown();
    }
}

impl Drop for WorkerNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Convenience constructor: a worker with the default registry of simulated
/// services used throughout the examples (auth, logs, object store, LLM,
/// SQL database), all with zero artificial latency so tests stay fast.
pub fn default_test_services() -> ServiceRegistry {
    use dandelion_services::AuthService;
    use dandelion_services::LatencyModel;
    use dandelion_services::LlmService;
    use dandelion_services::LogService;
    use dandelion_services::ObjectStore;
    use dandelion_services::SqlDatabaseService;

    let mut registry = ServiceRegistry::new();
    let auth = AuthService::with_latency(LatencyModel::zero());
    auth.grant(
        "demo-token",
        &[
            "http://logs-0.internal/logs",
            "http://logs-1.internal/logs",
            "http://logs-2.internal/logs",
        ],
    );
    registry.register("auth.internal", Arc::new(auth));
    for index in 0..3 {
        registry.register(
            &format!("logs-{index}.internal"),
            Arc::new(
                LogService::new(&format!("logs-{index}"), 50, index as u64)
                    .with_latency(LatencyModel::zero()),
            ),
        );
    }
    registry.register(
        "s3.internal",
        Arc::new(ObjectStore::with_latency(LatencyModel::zero())),
    );
    registry.register(
        "llm.internal",
        Arc::new(LlmService::with_latency(LatencyModel::zero())),
    );
    registry.register(
        "db.internal",
        Arc::new(SqlDatabaseService::with_latency(LatencyModel::zero()).with_demo_data()),
    );
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_common::config::IsolationKind;
    use dandelion_isolation::FunctionCtx;

    fn small_config() -> WorkerConfig {
        WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
            isolation: IsolationKind::Native,
            ..WorkerConfig::default()
        }
    }

    fn identity_dsl() -> &'static str {
        "composition Identity(In) => Out { Copy(Data = all In) => (Out = Copied); }"
    }

    fn register_copy(worker: &WorkerNode) {
        worker
            .register_function(FunctionArtifact::new(
                "Copy",
                &["Copied"],
                |ctx: &mut FunctionCtx| {
                    let data = ctx.single_input("Data")?.data.as_slice().to_vec();
                    ctx.push_output_bytes("Copied", "copy", data)
                },
            ))
            .unwrap();
    }

    #[test]
    fn worker_runs_a_dsl_registered_composition() {
        let worker =
            WorkerNode::start_with_control(small_config(), default_test_services(), false).unwrap();
        register_copy(&worker);
        let name = worker.register_composition_dsl(identity_dsl()).unwrap();
        assert_eq!(name, "Identity");
        let outcome = worker
            .invoke("Identity", vec![DataSet::single("In", b"hello".to_vec())])
            .unwrap();
        assert_eq!(outcome.outputs[0].items[0].as_str(), Some("hello"));
        let stats = worker.stats();
        assert_eq!(stats.invocations, 1);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.compute_tasks, 1);
        assert!(stats.latency.p50_us > 0.0);
        assert_eq!(stats.compute_cores, 3);
        assert_eq!(stats.communication_cores, 1);
        worker.shutdown();
    }

    #[test]
    fn invoking_unknown_composition_fails_and_counts() {
        let worker =
            WorkerNode::start_with_control(small_config(), default_test_services(), false).unwrap();
        assert!(worker.invoke("Missing", vec![]).is_err());
        // Unknown-composition lookups fail before dispatch and are not
        // counted as failed invocations.
        assert_eq!(worker.stats().invocations, 0);
        worker.shutdown();
    }

    #[test]
    fn invalid_config_is_rejected() {
        let bad = WorkerConfig {
            total_cores: 1,
            ..WorkerConfig::default()
        };
        assert!(WorkerNode::start(bad, ServiceRegistry::new()).is_err());
    }

    #[test]
    fn concurrent_invocations_share_the_engine_pools() {
        let worker =
            WorkerNode::start_with_control(small_config(), default_test_services(), false).unwrap();
        register_copy(&worker);
        worker.register_composition_dsl(identity_dsl()).unwrap();
        let workers: Vec<_> = (0..8)
            .map(|index| {
                let worker = Arc::clone(&worker);
                std::thread::spawn(move || {
                    worker
                        .invoke(
                            "Identity",
                            vec![DataSet::single("In", format!("m{index}").into_bytes())],
                        )
                        .unwrap()
                })
            })
            .collect();
        let mut seen: Vec<String> = workers
            .into_iter()
            .map(|handle| {
                let outcome = handle.join().unwrap();
                outcome.outputs[0].items[0].as_str().unwrap().to_string()
            })
            .collect();
        seen.sort();
        assert_eq!(seen.len(), 8);
        assert_eq!(worker.stats().invocations, 8);
        worker.shutdown();
    }

    #[test]
    fn parallel_submits_complete_with_per_invocation_outputs() {
        let worker =
            WorkerNode::start_with_control(small_config(), default_test_services(), false).unwrap();
        register_copy(&worker);
        worker.register_composition_dsl(identity_dsl()).unwrap();
        // N threads submit one invocation each; the handles settle with the
        // submitting thread's own payload.
        let submitters: Vec<_> = (0..12)
            .map(|index| {
                let worker = Arc::clone(&worker);
                std::thread::spawn(move || {
                    let handle = worker
                        .submit(
                            "Identity",
                            vec![DataSet::single("In", format!("s{index}").into_bytes())],
                        )
                        .unwrap();
                    let outcome = handle
                        .wait(Some(std::time::Duration::from_secs(10)))
                        .unwrap();
                    outcome.outputs[0].items[0].as_str().unwrap().to_string()
                })
            })
            .collect();
        let mut seen: Vec<String> = submitters
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect();
        seen.sort();
        let expected: Vec<String> = {
            let mut e: Vec<String> = (0..12).map(|i| format!("s{i}")).collect();
            e.sort();
            e
        };
        assert_eq!(seen, expected);
        assert_eq!(worker.stats().invocations, 12);
        assert_eq!(worker.inflight(), 0);
        worker.shutdown();
    }

    #[test]
    fn polling_unknown_or_expired_ids_returns_none() {
        let config = WorkerConfig {
            completed_retention: 1,
            ..small_config()
        };
        let worker =
            WorkerNode::start_with_control(config, default_test_services(), false).unwrap();
        register_copy(&worker);
        worker.register_composition_dsl(identity_dsl()).unwrap();
        assert!(worker
            .poll(dandelion_common::InvocationId::from_raw(u64::MAX))
            .is_none());
        // Settle two invocations without consuming their results, so the
        // retained entries are subject to expiry alone.
        let settle = |payload: u8| {
            let handle = worker
                .submit("Identity", vec![DataSet::single("In", vec![payload])])
                .unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !handle.status().is_terminal() {
                assert!(std::time::Instant::now() < deadline);
                std::thread::yield_now();
            }
            handle.id()
        };
        let first_id = settle(1);
        assert!(worker.poll(first_id).is_some());
        let second_id = settle(2);
        // Retention is 1: the first invocation's retained entry has expired,
        // the second is still pollable.
        assert!(worker.poll(first_id).is_none());
        assert!(worker.poll(second_id).is_some());
        worker.shutdown();
    }

    /// The controller, live: with both compute engines parked, a stream of
    /// submissions grows the compute queue, and the dispatcher driver moves
    /// a core from the communication pool to it.
    #[test]
    fn the_controller_moves_a_core_to_a_growing_compute_queue() {
        let config = WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 2,
            isolation: IsolationKind::Native,
            ..WorkerConfig::default()
        };
        let worker = WorkerNode::start(config, default_test_services()).unwrap();
        let gate = Arc::new(std::sync::RwLock::new(()));
        let closed = gate.write().unwrap();
        let parked = Arc::clone(&gate);
        worker
            .register_function(FunctionArtifact::new(
                "Copy",
                &["Copied"],
                move |ctx: &mut FunctionCtx| {
                    drop(parked.read());
                    let data = ctx.single_input("Data")?.data.as_slice().to_vec();
                    ctx.push_output_bytes("Copied", "copy", data)
                },
            ))
            .unwrap();
        worker.register_composition_dsl(identity_dsl()).unwrap();
        let counts = || {
            (
                worker.compute_pool().engine_count(),
                worker.communication_pool().engine_count(),
            )
        };
        assert_eq!(counts(), (2, 2));
        let start = std::time::Instant::now();
        let mut handles = Vec::new();
        while counts() != (3, 1) {
            assert!(
                start.elapsed() < std::time::Duration::from_secs(2),
                "engines {:?} after {} submissions",
                counts(),
                handles.len()
            );
            handles.push(
                worker
                    .submit("Identity", vec![DataSet::single("In", vec![1])])
                    .unwrap(),
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        drop(closed);
        for handle in handles {
            let outcome = handle.wait(Some(std::time::Duration::from_secs(10)));
            assert_eq!(outcome.unwrap().outputs[0].items[0].as_str(), Some("\u{1}"));
        }
        worker.shutdown();
    }

    #[test]
    fn failed_function_counts_as_failure() {
        let worker =
            WorkerNode::start_with_control(small_config(), default_test_services(), false).unwrap();
        worker
            .register_function(FunctionArtifact::new(
                "Copy",
                &["Copied"],
                |_ctx: &mut FunctionCtx| Err("nope".into()),
            ))
            .unwrap();
        worker.register_composition_dsl(identity_dsl()).unwrap();
        assert!(worker
            .invoke("Identity", vec![DataSet::single("In", vec![1])])
            .is_err());
        let stats = worker.stats();
        assert_eq!(stats.failures, 1);
        worker.shutdown();
    }
}
