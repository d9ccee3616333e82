//! The Dandelion worker node.
//!
//! A [`WorkerNode`] assembles the pieces of Figure 4: the registry, the
//! dispatcher, the compute and communication engine pools, and the control
//! plane that re-balances cores between them. It is the one place that
//! builds them, in one of two shells. A threaded worker ([`WorkerNode::start`])
//! runs each engine on a thread that loops on its batches, and one more
//! thread, the *driver*, which keeps the clock: it sleeps until the next
//! timer is due, reads the clock once and ticks — the stall reaper (every
//! 100 ms), the buffer pool's release (every 500 ms) and, with control on,
//! the core controller, each when due, busy or idle. A stepped worker
//! ([`WorkerNode::stepped`]) starts no thread: its caller's
//! [`WorkerNode::step`] runs the queued batches through the engines' same
//! step and then ticks, at the caller's `now`. Nothing else moves it, so
//! `wait(None)`, `invoke` and `drain` on it wait for a `step` that only the
//! caller can make, as on a threaded worker resized to zero engines. It
//! exposes the programmatic API used by examples and benchmarks; the HTTP
//! surface lives in [`crate::frontend`].

use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dandelion_common::config::{IsolationKind, WorkerConfig};
use dandelion_common::{
    BufferPool, DandelionError, DandelionResult, DataSet, InvocationId, LatencySummary,
};
use dandelion_dsl::CompositionGraph;
use dandelion_http::validate::ValidationPolicy;
use dandelion_isolation::{create_backend, FunctionArtifact, HardwarePlatform};
use dandelion_services::ServiceRegistry;

use crate::control::{CoreAllocation, Step};
use crate::dispatcher::{
    DispatchMetrics, Dispatcher, InvocationHandle, InvocationOutcome, InvocationSnapshot,
};
use crate::engine::{EngineExecutor, EnginePool};
use crate::recover;
use crate::registry::Registry;

/// How often the timers fail invocations that stopped making progress.
pub(crate) const REAP_PERIOD: Duration = Duration::from_millis(100);

/// How often the timers look at what the buffer pool retains: a buffer
/// nobody needed since the look before, half a second, is given back, so a
/// node's memory is back about a second after a load.
const POOL_RELEASE_PERIOD: Duration = Duration::from_millis(500);

/// Point-in-time statistics of a worker node.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Invocations the dispatcher accepted; once none is in flight,
    /// `invocations + failures` equals it.
    pub submitted: u64,
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
    dispatcher: Arc<Dispatcher>,
    compute_pool: Arc<EnginePool>,
    communication_pool: Arc<EnginePool>,
    metrics: Arc<DispatchMetrics>,
    /// Drain signal: while set, `submit` refuses new work so in-flight
    /// invocations can finish (rolling restarts, gateway-driven draining).
    draining: std::sync::atomic::AtomicBool,
    /// The periodic jobs, ticked by the driver or by `step`.
    timers: Arc<Mutex<Timers>>,
    /// A threaded worker's driver, and the sender whose drop stops it.
    driver: Mutex<Option<(Sender<()>, JoinHandle<()>)>>,
}

/// What [`WorkerNode::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stepped {
    /// Engine batches run, across both pools.
    pub batches: usize,
    /// Tasks still queued: left by the budget, or on a pool with no engine.
    pub queued: usize,
    /// When the next timer is due.
    pub next_due: Instant,
}

/// The most batches one [`WorkerNode::step`] runs before it ticks.
const STEP_BATCHES: usize = 1024;

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
        Self::build(config, services, enable_control_plane, true)
    }

    /// A worker, with control on, that starts no thread: its caller moves
    /// it with [`WorkerNode::step`] (module docs).
    pub fn stepped(config: WorkerConfig, services: ServiceRegistry) -> DandelionResult<Arc<Self>> {
        Self::build(config, services, true, false)
    }

    /// The one wiring of both shells; with `threaded`, the engines and the
    /// timers get their threads.
    fn build(
        config: WorkerConfig,
        services: ServiceRegistry,
        enable_control_plane: bool,
        threaded: bool,
    ) -> DandelionResult<Arc<Self>> {
        config.validate().map_err(DandelionError::Config)?;
        // Chaos runs configure fault injection through the environment; in
        // production no variable is set and every failpoint stays one
        // relaxed atomic load.
        dandelion_common::init_failpoints_from_env();
        let registry = Arc::new(Registry::new());
        let services = Arc::new(services);
        let metrics = Arc::new(DispatchMetrics::default());

        // The dispatcher pushes to the pools, and the pools hand their
        // results to the dispatcher through a sink that holds it weakly.
        let mut pools = None;
        let dispatcher = Arc::new_cyclic(|dispatcher: &Weak<Dispatcher>| {
            let reply = Dispatcher::sink(dispatcher);
            let compute = EngineExecutor::Compute {
                // The native executor's permissive policy; no executor
                // charges a cost, so the platform is immaterial.
                backend: create_backend(IsolationKind::Native, HardwarePlatform::X86Linux),
                function_timeout: config.function_timeout,
            };
            let communication = EngineExecutor::Communication {
                registry: Arc::clone(&services),
                policy: Arc::new(ValidationPolicy::default()),
            };
            let capacity = config.queue_capacity;
            let compute = EnginePool::new(compute, capacity, reply.clone(), threaded);
            let communication = EnginePool::new(communication, capacity, reply, threaded);
            let shell = Dispatcher::new(
                Arc::clone(&registry),
                &config,
                Arc::clone(&metrics),
                &compute,
                &communication,
            );
            pools = Some((Arc::new(compute), Arc::new(communication)));
            shell
        });
        let (compute_pool, communication_pool) = pools.expect("built with the dispatcher");
        compute_pool.resize(config.initial_compute_cores());
        communication_pool.resize(config.initial_communication_cores);

        let now = Instant::now();
        let control = enable_control_plane.then(|| {
            let initial = CoreAllocation::new(
                config.initial_compute_cores(),
                config.initial_communication_cores,
            );
            let pools = [Arc::clone(&compute_pool), Arc::clone(&communication_pool)];
            (
                now + config.controller.interval,
                Step::new(config.controller, initial),
                pools,
            )
        });
        let timers = Arc::new(Mutex::new(Timers {
            dispatcher: Arc::clone(&dispatcher),
            reap: now + REAP_PERIOD,
            release: now + POOL_RELEASE_PERIOD,
            control,
        }));
        let driver = threaded.then(|| {
            let (stop, stopped) = channel();
            let ticked = Arc::clone(&timers);
            let driver = std::thread::Builder::new()
                .name("dandelion-dispatcher".to_string())
                .spawn(move || driver_loop(&ticked, &stopped))
                .expect("spawning the worker's driver thread");
            (stop, driver)
        });

        Ok(Arc::new(Self {
            config,
            registry,
            services,
            dispatcher,
            compute_pool,
            communication_pool,
            metrics,
            draining: std::sync::atomic::AtomicBool::new(false),
            timers,
            driver: Mutex::new(driver),
        }))
    }

    /// Steps a stepped worker at `now`, on the calling thread: runs queued
    /// batches through the engines' step, each settled at `now`, until the
    /// queues are empty or a budget is reached, then the timers due at `now`.
    ///
    /// # Panics
    ///
    /// On a running threaded worker, which its own threads step.
    pub fn step(&self, now: Instant) -> Stepped {
        let threaded = recover(self.driver.lock()).is_some();
        assert!(!threaded, "a threaded worker is stepped by its own threads");
        let mut batches = 0;
        while batches < STEP_BATCHES {
            let before = batches;
            for pool in [&self.compute_pool, &self.communication_pool] {
                batches += pool.run_queued(STEP_BATCHES - batches, now);
            }
            if batches == before {
                break;
            }
        }
        Stepped {
            batches,
            queued: self.compute_pool.len() + self.communication_pool.len(),
            next_due: recover(self.timers.lock()).tick(now),
        }
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
    /// The returned `InvocationHandle` tracks the invocation's entry in the
    /// dispatcher's in-flight table: poll it with `try_result`, block on it
    /// with `wait`, or discard it and poll by id through
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
        self.dispatcher.submit(graph, inputs, Instant::now())
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
    /// pool still counts the engine that has yet to take its stop ticket.
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
            submitted: self.metrics.submitted.load(Ordering::Relaxed),
            invocations: self.metrics.invocations.load(Ordering::Relaxed),
            failures: self.metrics.failures.load(Ordering::Relaxed),
            compute_tasks: self.metrics.compute_tasks.load(Ordering::Relaxed),
            communication_tasks: self.metrics.communication_tasks.load(Ordering::Relaxed),
            compute_cores: allocation.compute,
            communication_cores: allocation.communication,
            compute_queue_depth: self.compute_pool.len(),
            communication_queue_depth: self.communication_pool.len(),
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
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.inflight() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
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

    /// Stops the driver (and with it the control plane), then every
    /// engine. Unsettled invocations fail with [`DandelionError::Cancelled`],
    /// and later submissions are refused with it.
    pub fn shutdown(&self) {
        // Only this `take` runs under the lock, and `Drop` calls here.
        if let Some((stop, driver)) = recover(self.driver.lock()).take() {
            drop(stop);
            let _ = driver.join();
        }
        self.dispatcher.cancel_all(Instant::now());
        self.compute_pool.shutdown();
        self.communication_pool.shutdown();
    }
}

impl Drop for WorkerNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The worker's timers: when each periodic job is due next, and what it
/// runs.
struct Timers {
    dispatcher: Arc<Dispatcher>,
    reap: Instant,
    release: Instant,
    /// With control on, the core controller over the compute and the
    /// communication pool.
    control: Option<(Instant, Step, [Arc<EnginePool>; 2])>,
}

impl Timers {
    /// Runs each job due at `now`; returns when the next one is due.
    fn tick(&mut self, now: Instant) -> Instant {
        if self.reap <= now {
            self.dispatcher.reap(now);
            self.reap = now + REAP_PERIOD;
        }
        // Committed memory follows the load: what the pool retains and
        // nothing has needed since the look before is freed.
        if self.release <= now {
            BufferPool::global().release_unused();
            self.release = now + POOL_RELEASE_PERIOD;
        }
        let mut next = self.reap.min(self.release);
        if let Some((due, step, [compute, communication])) = &mut self.control {
            if *due <= now {
                // Samples both queues and resizes the pools when the split
                // changes.
                if let Some(split) = step.step(compute.len(), communication.len()) {
                    compute.resize(split.compute);
                    communication.resize(split.communication);
                }
                *due = now + step.interval();
            }
            next = next.min(*due);
        }
        next
    }
}

/// The driver keeps a threaded worker's clock: it ticks, then sleeps until
/// the next timer is due or `shutdown` drops the sender of `stop` (nothing
/// is ever sent on it).
fn driver_loop(timers: &Mutex<Timers>, stop: &Receiver<()>) {
    let mut now = Instant::now();
    loop {
        let next = recover(timers.lock()).tick(now);
        let woken = stop.recv_timeout(next.saturating_duration_since(now));
        if woken != Err(RecvTimeoutError::Timeout) {
            return;
        }
        now = Instant::now();
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
    use dandelion_isolation::FunctionCtx;

    impl WorkerNode {
        /// What the dispatcher's rows step by hand.
        pub(crate) fn parts(&self) -> (Arc<Registry>, Arc<Dispatcher>, Arc<DispatchMetrics>) {
            let (registry, dispatcher) = (Arc::clone(&self.registry), Arc::clone(&self.dispatcher));
            (registry, dispatcher, Arc::clone(&self.metrics))
        }
    }

    fn small_config() -> WorkerConfig {
        WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
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
    /// submissions grows the compute queue, and the worker's driver moves a
    /// core from the communication pool to it.
    #[test]
    fn the_controller_moves_a_core_to_a_growing_compute_queue() {
        let config = WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 2,
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
