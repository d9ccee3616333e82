//! Compute and communication engine pools.
//!
//! Engines abstract the compute resources that execute functions (paper §5):
//!
//! * A **compute engine** owns one CPU core, pulls one task at a time from
//!   the compute queue and runs the untrusted function to completion inside
//!   an isolation backend — no context switches, no blocking.
//! * A **communication engine** owns one core and executes trusted
//!   communication functions. Within one task it performs the (possibly
//!   many) HTTP requests cooperatively, so the modeled latency of a task is
//!   the maximum of its requests rather than their sum.
//!
//! Both pools can grow and shrink at run time; the control plane moves cores
//! between them by resizing the pools (paper §5, "Control plane").
//!
//! Engines are **supervised**: a panic inside the task body is caught and
//! converted into a structured [`DandelionError::EngineFault`] result, and a
//! panic that escapes the task guard (the reply path, injected chaos) kills
//! only that engine thread — the pool requeues its in-flight tasks once and
//! respawns a replacement within a restart budget, so one poisoned task can
//! never silently shrink the pool or strand an invocation.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dandelion_common::config::EngineKind;
use dandelion_common::{
    check_failpoint, fail_point, failpoints_enabled, DandelionError, DataItem, DataSet, Fault,
};
use dandelion_http::validate::{validate_request_shared, ValidationPolicy};
use dandelion_isolation::{ExecutionTask, IsolationBackend};
use dandelion_services::ServiceRegistry;
use parking_lot::Mutex;

use crate::task::{ReplySender, Task, TaskPayload, TaskQueue, TaskResult};

/// Maximum task results an engine coalesces into one reply batch.
///
/// Same-invocation tasks that are already waiting on the queue when a task
/// finishes are executed back-to-back and their results reach the
/// dispatcher as one batch (one call of the task's sink, one table lock)
/// instead of one each. The cap bounds how long the first result of a
/// batch can be held back.
const ENGINE_COALESCE_MAX: usize = 32;

/// The execution capability shared by every engine of a pool.
#[derive(Clone)]
pub enum EngineExecutor {
    /// Executes compute tasks through an isolation backend.
    Compute {
        /// The sandboxing mechanism.
        backend: Arc<dyn IsolationBackend>,
    },
    /// Executes HTTP communication tasks against the service registry.
    Communication {
        /// The simulated remote services.
        registry: Arc<ServiceRegistry>,
        /// Validation policy applied to untrusted requests.
        policy: Arc<ValidationPolicy>,
    },
}

impl EngineExecutor {
    fn kind(&self) -> EngineKind {
        match self {
            EngineExecutor::Compute { .. } => EngineKind::Compute,
            EngineExecutor::Communication { .. } => EngineKind::Communication,
        }
    }

    /// Executes one task payload, producing the dispatcher-facing result.
    pub fn execute(&self, task: &Task) -> TaskResult {
        let (outcome, high_water, modeled) = match (&task.payload, self) {
            (
                TaskPayload::Compute {
                    artifact,
                    inputs,
                    cold_binary,
                    timeout,
                },
                EngineExecutor::Compute { backend },
            ) => {
                // The backend shares the task's inputs (a reference count)
                // and its report leaves by move.
                let execution = ExecutionTask::new(Arc::clone(artifact), Arc::clone(inputs))
                    .with_cold_binary(*cold_binary)
                    .with_timeout(*timeout);
                match backend.execute(&execution) {
                    Ok(report) => {
                        let modeled = report.modeled_total();
                        (Ok(report.outputs), report.context_high_water, modeled)
                    }
                    Err(err) => (Err(err), 0, Duration::ZERO),
                }
            }
            (
                TaskPayload::Http {
                    inputs,
                    response_set,
                },
                EngineExecutor::Communication { registry, policy },
            ) => {
                let (set, latency) = execute_http(inputs, response_set, registry, policy);
                (Ok(vec![set]), 0, latency)
            }
            (TaskPayload::Shutdown, _) => (Err(DandelionError::Cancelled), 0, Duration::ZERO),
            (TaskPayload::Faulted { reason }, _) => (
                Err(DandelionError::EngineFault {
                    reason: reason.clone(),
                }),
                0,
                Duration::ZERO,
            ),
            (payload, executor) => (
                Err(DandelionError::Dispatch(format!(
                    "task of kind {:?} routed to {} engine",
                    payload.engine_kind(),
                    executor.kind()
                ))),
                0,
                Duration::ZERO,
            ),
        };
        TaskResult {
            invocation: task.invocation,
            node: task.node,
            instance: task.instance,
            outcome,
            context_high_water: high_water,
            modeled_latency: modeled,
        }
    }
}

/// Executes the HTTP communication function over every item of the task's
/// input sets.
///
/// Each item must be a serialized HTTP request authored by an upstream
/// compute function. Requests that fail validation or routing become error
/// responses rather than failing the whole task, so that compositions can
/// handle failures downstream (paper §4.4).
fn execute_http(
    inputs: &[DataSet],
    response_set: &str,
    registry: &ServiceRegistry,
    policy: &ValidationPolicy,
) -> (DataSet, Duration) {
    let mut responses = DataSet::new(response_set);
    let mut max_latency = Duration::ZERO;
    for set in inputs {
        for item in &set.items {
            // Zero-copy: the request (and its body) are views of the item's
            // buffer, which itself is a view of the producer's region. The
            // response is serialized through the rope path: the head is
            // built once in a pooled buffer and a body-less response is
            // frozen without any copy at all.
            let (response_bytes, latency) = match validate_request_shared(&item.data, policy) {
                Ok(validated) => {
                    let reply = registry.dispatch(&validated.uri, &validated.request);
                    (reply.response.to_shared(), reply.latency)
                }
                Err(err) => {
                    let response = dandelion_http::HttpResponse::error(
                        dandelion_http::StatusCode::BAD_REQUEST,
                        &err.to_string(),
                    );
                    (response.to_shared(), Duration::ZERO)
                }
            };
            max_latency = max_latency.max(latency);
            let mut response_item =
                DataItem::new(format!("response-{}", item.name), response_bytes);
            response_item.key = item.key.clone();
            responses.push(response_item);
        }
    }
    // Green threads overlap the requests of one task, so the modeled latency
    // is the slowest request, not the sum.
    (responses, max_latency)
}

/// How many replacement engines a pool spawns for panic-killed threads
/// before giving up (a crash-looping backend must not respawn forever).
const DEFAULT_RESTART_BUDGET: usize = 32;

/// Executes one task under a panic guard: a panic anywhere in the task
/// body (the isolation backend, the service registry, injected chaos)
/// becomes a structured [`DandelionError::EngineFault`] result instead of
/// killing the engine thread.
fn execute_supervised(executor: &EngineExecutor, task: &Task) -> TaskResult {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if failpoints_enabled() {
            if let Some(Fault::Error) = check_failpoint("engine/execute") {
                return task.failed(DandelionError::EngineFault {
                    reason: "failpoint engine/execute injected error".to_string(),
                });
            }
        }
        executor.execute(task)
    }));
    match caught {
        Ok(result) => result,
        Err(panic) => task.failed(DandelionError::EngineFault {
            reason: panic_message(&panic),
        }),
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = panic.downcast_ref::<&str>() {
        format!("engine task panicked: {text}")
    } else if let Some(text) = panic.downcast_ref::<String>() {
        format!("engine task panicked: {text}")
    } else {
        "engine task panicked".to_string()
    }
}

/// State shared between the pool handle and every engine thread — the
/// engine threads themselves need it to requeue and respawn when dying.
struct PoolShared {
    executor: EngineExecutor,
    queue: TaskQueue,
    handles: Mutex<Vec<JoinHandle<()>>>,
    active: AtomicUsize,
    started_total: AtomicUsize,
    /// Engine threads killed by a panic that escaped the task guard.
    deaths: AtomicUsize,
    /// Replacement engines spawned by supervision.
    respawns: AtomicUsize,
    /// Respawns still allowed; exhausting it leaves the pool smaller.
    restarts_left: AtomicUsize,
    /// Task keys already requeued once after an engine death: the second
    /// death of the same task fails it with `EngineFault` instead of
    /// retrying forever. Bounded by the number of deaths, which the
    /// restart budget bounds in turn.
    retried: Mutex<HashSet<(u64, usize, usize)>>,
}

impl PoolShared {
    fn spawn_engine(self: &Arc<PoolShared>) {
        self.active.fetch_add(1, Ordering::SeqCst);
        self.started_total.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("dandelion-{}-engine", self.executor.kind()))
            .spawn(move || {
                let mut guard = EngineGuard {
                    shared,
                    inflight: Vec::new(),
                    carried: None,
                };
                run_engine(&mut guard);
            })
            .expect("spawning an engine thread");
        self.handles.lock().push(handle);
    }
}

/// Per-engine-thread supervision state. On a normal exit the drop only
/// releases the active slot; on a panic it requeues the tasks the engine
/// held — each to run once more, or, on its second death, marked
/// [`TaskPayload::Faulted`] — and respawns a replacement within the budget.
/// The unwinding thread only pushes to the queue: no result is delivered,
/// and so no table lock, failpoint or settle callback runs, on it.
struct EngineGuard {
    shared: Arc<PoolShared>,
    /// Tasks popped but whose results have not been delivered yet. The
    /// engine moves each task in here and executes it from here, so a
    /// requeue hands on the very task that was popped — inputs, artifact and
    /// reply sink — without a clone having been taken up front.
    inflight: Vec<Task>,
    /// A task popped for a different invocation, carried into the next
    /// batch (not started: always safe to requeue).
    carried: Option<Task>,
}

impl Drop for EngineGuard {
    fn drop(&mut self) {
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
        if !std::thread::panicking() {
            return;
        }
        self.shared.deaths.fetch_add(1, Ordering::SeqCst);
        if let Some(task) = self.carried.take() {
            self.shared.queue.push(task);
        }
        for mut task in self.inflight.drain(..) {
            // Retry exactly once on a fresh engine. If the task already
            // settled (the panic hit after the reply), the dispatcher's
            // per-task completion guard drops the duplicate result. The
            // second death sends the task back to be answered as a fault.
            let key = (task.invocation.as_u64(), task.node, task.instance);
            if !self.shared.retried.lock().insert(key) {
                task.payload = TaskPayload::Faulted {
                    reason: "engine died twice executing this task".to_string(),
                };
            }
            self.shared.queue.push(task);
        }
        let budget_allows = self
            .shared
            .restarts_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            })
            .is_ok();
        if budget_allows {
            self.shared.respawns.fetch_add(1, Ordering::SeqCst);
            self.shared.spawn_engine();
        }
    }
}

/// Parks `task` in the guard's in-flight list — where supervision finds it
/// if this thread dies before the reply — and executes it from there.
fn execute_inflight(guard: &mut EngineGuard, task: Task) -> TaskResult {
    guard.inflight.push(task);
    let task = guard.inflight.last().expect("pushed above");
    execute_supervised(&guard.shared.executor, task)
}

/// The engine thread body: pull, execute under supervision, coalesce,
/// reply. The reply applies the batch to the dispatcher's table on this
/// thread (see [`crate::task::ReplySender`]); `guard` tracks what must be
/// rescued if a panic unwinds out of here.
fn run_engine(guard: &mut EngineGuard) {
    loop {
        let task = match guard.carried.take() {
            Some(task) => task,
            None => guard.shared.queue.pop_wait(),
        };
        match &task.payload {
            TaskPayload::Shutdown => return,
            // A task whose engine died twice: answered here, by a thread
            // that is not unwinding, without running it and past the reply
            // failpoints, so that it fails exactly once.
            TaskPayload::Faulted { .. } => {
                task.reply.send(vec![guard.shared.executor.execute(&task)]);
                continue;
            }
            _ => {}
        }
        let mut batch = vec![execute_inflight(guard, task)];
        // Coalesce: execute same-invocation tasks already queued and reply
        // with one batch. The id alone decides: ids are process-unique
        // (`InvocationId::next`) and every task of an invocation carries its
        // one dispatcher's sink, so one id means one sink. A task for a
        // different invocation, or a faulted one, flushes the batch and is
        // carried into the next iteration; a shutdown marker flushes it and
        // ends the engine.
        let mut stop_after_flush = false;
        while batch.len() < ENGINE_COALESCE_MAX {
            let first = &guard.inflight[0];
            match guard.shared.queue.try_pop() {
                Some(next) if matches!(next.payload, TaskPayload::Shutdown) => {
                    stop_after_flush = true;
                    break;
                }
                Some(next)
                    if next.invocation == first.invocation
                        && !matches!(next.payload, TaskPayload::Faulted { .. }) =>
                {
                    batch.push(execute_inflight(guard, next));
                }
                Some(next) => {
                    guard.carried = Some(next);
                    break;
                }
                None => break,
            }
        }
        // Chaos hook: a panic here dies *before* delivery, exercising the
        // requeue-once path.
        fail_point!("engine/reply");
        // Applies the batch to the table and what it causes — successor
        // tasks, settle callbacks — on this thread. A result for an
        // invocation the table no longer holds is dropped there.
        guard.inflight[0].reply.send(batch);
        guard.inflight.clear();
        // Chaos hook: a panic here dies *after* delivery — the respawn
        // keeps the pool size, and nothing is requeued.
        fail_point!("engine/after-reply");
        if stop_after_flush {
            return;
        }
    }
}

/// A resizable pool of engines of one kind.
pub struct EnginePool {
    shared: Arc<PoolShared>,
    /// The engine count the pool is converging to. Tracked separately from
    /// `active` so that a shrink immediately followed by a grow accounts for
    /// shutdown markers that no engine has consumed yet.
    desired: Mutex<usize>,
}

impl EnginePool {
    /// Creates a pool that pulls work from `queue`.
    pub fn new(executor: EngineExecutor, queue: TaskQueue) -> Self {
        Self {
            shared: Arc::new(PoolShared {
                executor,
                queue,
                handles: Mutex::new(Vec::new()),
                active: AtomicUsize::new(0),
                started_total: AtomicUsize::new(0),
                deaths: AtomicUsize::new(0),
                respawns: AtomicUsize::new(0),
                restarts_left: AtomicUsize::new(DEFAULT_RESTART_BUDGET),
                retried: Mutex::new(HashSet::new()),
            }),
            desired: Mutex::new(0),
        }
    }

    /// The engine kind of this pool.
    pub fn kind(&self) -> EngineKind {
        self.shared.executor.kind()
    }

    /// The queue feeding this pool.
    pub fn queue(&self) -> &TaskQueue {
        &self.shared.queue
    }

    /// Number of engines currently running.
    pub fn engine_count(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Total engines ever started (for tests and reporting).
    pub fn engines_started_total(&self) -> usize {
        self.shared.started_total.load(Ordering::SeqCst)
    }

    /// Engine threads killed by a panic that escaped the task guard.
    pub fn engine_deaths(&self) -> usize {
        self.shared.deaths.load(Ordering::SeqCst)
    }

    /// Replacement engines spawned by supervision after a death.
    pub fn engine_respawns(&self) -> usize {
        self.shared.respawns.load(Ordering::SeqCst)
    }

    /// Respawns supervision may still perform.
    pub fn restart_budget_left(&self) -> usize {
        self.shared.restarts_left.load(Ordering::SeqCst)
    }

    /// Replaces the respawn budget (tests tighten it to prove exhaustion).
    pub fn set_restart_budget(&self, budget: usize) {
        self.shared.restarts_left.store(budget, Ordering::SeqCst);
    }

    /// Grows or shrinks the pool to `target` engines.
    ///
    /// Growing spawns new engine threads immediately; shrinking enqueues
    /// shutdown markers which the next engines to reach the queue consume.
    /// Because markers travel through the FIFO queue *behind* already-queued
    /// work, shrinking never drops queued tasks, and because the delta is
    /// computed against the desired count (not the live thread count), a
    /// shrink immediately followed by a grow converges to the grow target
    /// even while markers are still in flight.
    pub fn resize(&self, target: usize) {
        let mut desired = self.desired.lock();
        let current = *desired;
        if target > current {
            for _ in current..target {
                self.shared.spawn_engine();
            }
        } else {
            for _ in target..current {
                self.shared.queue.push(Task {
                    invocation: dandelion_common::InvocationId::from_raw(0),
                    node: 0,
                    instance: 0,
                    payload: TaskPayload::Shutdown,
                    reply: ReplySender::new(|_| {}),
                });
            }
        }
        *desired = target;
    }

    /// Stops every engine and waits for the threads to exit.
    pub fn shutdown(&self) {
        self.resize(0);
        let handles: Vec<JoinHandle<()>> = self.shared.handles.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for EnginePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::reply_channel;
    use dandelion_common::config::IsolationKind;
    use dandelion_common::InvocationId;
    use dandelion_http::HttpRequest;
    use dandelion_isolation::{create_backend, FunctionArtifact, FunctionCtx, HardwarePlatform};
    use dandelion_services::ObjectStore;

    fn compute_pool() -> EnginePool {
        let queue = TaskQueue::new(EngineKind::Compute, 1024);
        let backend = create_backend(IsolationKind::Native, HardwarePlatform::Morello);
        EnginePool::new(EngineExecutor::Compute { backend }, queue)
    }

    fn comm_pool_with_store() -> (EnginePool, Arc<ObjectStore>) {
        let store = Arc::new(ObjectStore::new());
        store.put_object("bucket", "hello.txt", b"stored bytes".to_vec());
        let mut registry = ServiceRegistry::new();
        registry.register("s3.internal", store.clone());
        let queue = TaskQueue::new(EngineKind::Communication, 1024);
        let pool = EnginePool::new(
            EngineExecutor::Communication {
                registry: Arc::new(registry),
                policy: Arc::new(ValidationPolicy::default()),
            },
            queue,
        );
        (pool, store)
    }

    fn echo_artifact() -> Arc<FunctionArtifact> {
        Arc::new(FunctionArtifact::new(
            "echo",
            &["out"],
            |ctx: &mut FunctionCtx| {
                let data = ctx.single_input("in")?.data.as_slice().to_vec();
                ctx.push_output_bytes("out", "echoed", data)
            },
        ))
    }

    #[test]
    fn compute_pool_executes_tasks() {
        let pool = compute_pool();
        pool.resize(2);
        assert_eq!(pool.engine_count(), 2);
        let (reply, results) = reply_channel();
        for index in 0..4 {
            pool.queue().push(Task {
                invocation: InvocationId::from_raw(7),
                node: 0,
                instance: index,
                payload: TaskPayload::Compute {
                    artifact: echo_artifact(),
                    inputs: vec![DataSet::single("in", format!("p{index}").into_bytes())].into(),
                    cold_binary: false,
                    timeout: Duration::from_secs(5),
                },
                reply: reply.clone(),
            });
        }
        let mut seen = Vec::new();
        while seen.len() < 4 {
            let batch = results.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(!batch.is_empty());
            for result in batch {
                let outputs = result.outcome.unwrap();
                seen.push(String::from_utf8(outputs[0].items[0].data.as_slice().to_vec()).unwrap());
            }
        }
        seen.sort();
        assert_eq!(seen, vec!["p0", "p1", "p2", "p3"]);
        pool.shutdown();
        assert_eq!(pool.engine_count(), 0);
    }

    #[test]
    fn same_invocation_results_coalesce_into_one_reply() {
        let pool = compute_pool();
        let (reply, results) = reply_channel();
        // Queue every task before any engine exists, so a single engine
        // deterministically finds the rest of the invocation's tasks queued
        // when the first one finishes.
        for instance in 0..6 {
            pool.queue().push(Task {
                invocation: InvocationId::from_raw(42),
                node: 0,
                instance,
                payload: TaskPayload::Compute {
                    artifact: echo_artifact(),
                    inputs: vec![DataSet::single("in", format!("c{instance}").into_bytes())].into(),
                    cold_binary: false,
                    timeout: Duration::from_secs(5),
                },
                reply: reply.clone(),
            });
        }
        pool.resize(1);
        let batch = results.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            batch.len(),
            6,
            "all six queued same-invocation results must arrive as one batch"
        );
        let mut instances: Vec<usize> = batch.iter().map(|result| result.instance).collect();
        instances.sort_unstable();
        assert_eq!(instances, (0..6).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn different_invocations_do_not_coalesce() {
        let pool = compute_pool();
        let (reply, results) = reply_channel();
        for (index, invocation) in [7u64, 7, 9, 9].into_iter().enumerate() {
            pool.queue().push(Task {
                invocation: InvocationId::from_raw(invocation),
                node: 0,
                instance: index,
                payload: TaskPayload::Compute {
                    artifact: echo_artifact(),
                    inputs: vec![DataSet::single("in", vec![index as u8])].into(),
                    cold_binary: false,
                    timeout: Duration::from_secs(5),
                },
                reply: reply.clone(),
            });
        }
        pool.resize(1);
        let first = results.recv_timeout(Duration::from_secs(5)).unwrap();
        let second = results.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|r| r.invocation.as_u64() == 7));
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|r| r.invocation.as_u64() == 9));
        pool.shutdown();
    }

    #[test]
    fn communication_pool_performs_http_requests() {
        let (pool, _store) = comm_pool_with_store();
        pool.resize(1);
        let (reply, results) = reply_channel();
        let good = HttpRequest::get("http://s3.internal/bucket/hello.txt").to_bytes();
        let missing = HttpRequest::get("http://s3.internal/bucket/none").to_bytes();
        let invalid = b"NOT A REQUEST".to_vec();
        pool.queue().push(Task {
            invocation: InvocationId::from_raw(1),
            node: 1,
            instance: 0,
            payload: TaskPayload::Http {
                inputs: vec![DataSet::with_items(
                    "Request",
                    vec![
                        DataItem::new("r0", good),
                        DataItem::new("r1", missing),
                        DataItem::new("r2", invalid),
                    ],
                )]
                .into(),
                response_set: "Response".to_string(),
            },
            reply,
        });
        let batch = results.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.len(), 1);
        let result = &batch[0];
        let outputs = result.outcome.clone().unwrap();
        assert_eq!(outputs[0].name, "Response");
        assert_eq!(outputs[0].len(), 3);
        let parse = |item: &DataItem| dandelion_http::parse_response(&item.data).unwrap();
        assert_eq!(parse(&outputs[0].items[0]).status.0, 200);
        assert_eq!(parse(&outputs[0].items[0]).body, b"stored bytes");
        assert_eq!(parse(&outputs[0].items[1]).status.0, 404);
        assert_eq!(parse(&outputs[0].items[2]).status.0, 400);
        assert!(result.modeled_latency > Duration::ZERO);
        pool.shutdown();
    }

    #[test]
    fn misrouted_tasks_report_dispatch_errors() {
        let (pool, _store) = comm_pool_with_store();
        pool.resize(1);
        let (reply, results) = reply_channel();
        pool.queue().push(Task {
            invocation: InvocationId::from_raw(2),
            node: 0,
            instance: 0,
            payload: TaskPayload::Compute {
                artifact: echo_artifact(),
                inputs: Arc::new([]),
                cold_binary: false,
                timeout: Duration::from_secs(1),
            },
            reply,
        });
        let batch = results.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(batch[0].outcome, Err(DandelionError::Dispatch(_))));
        pool.shutdown();
    }

    #[test]
    fn a_faulted_task_is_answered_without_running() {
        let pool = compute_pool();
        let (reply, results) = reply_channel();
        let ran = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&ran);
        let artifact = Arc::new(FunctionArtifact::new(
            "count",
            &["out"],
            move |_: &mut FunctionCtx| {
                counter.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        ));
        // A task of the invocation, and behind it another one of it whose
        // engine died twice, both queued before the engine starts.
        for (instance, payload) in [
            TaskPayload::Compute {
                artifact,
                inputs: Arc::new([]),
                cold_binary: false,
                timeout: Duration::from_secs(5),
            },
            TaskPayload::Faulted {
                reason: "engine died twice executing this task".to_string(),
            },
        ]
        .into_iter()
        .enumerate()
        {
            pool.queue().push(Task {
                invocation: InvocationId::from_raw(13),
                node: 0,
                instance,
                payload,
                reply: reply.clone(),
            });
        }
        pool.resize(1);
        // The faulted task is not coalesced into the batch before it...
        let ran_first = results.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(ran_first.len(), 1);
        assert!(ran_first[0].outcome.is_ok());
        // ...and is answered on its own, without running anything.
        let faulted = results.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(faulted.len(), 1);
        assert_eq!(faulted[0].instance, 1);
        assert_eq!(
            faulted[0].outcome.as_ref().unwrap_err(),
            &DandelionError::EngineFault {
                reason: "engine died twice executing this task".to_string()
            }
        );
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        pool.shutdown();
    }

    #[test]
    fn shrink_delivers_shutdown_markers_without_polling() {
        let pool = compute_pool();
        pool.resize(3);
        assert_eq!(pool.engine_count(), 3);
        // Shrinking enqueues exactly the marker delta: the pool settles on
        // the target without any engine busy-waiting (engines park on the
        // queue's condition variable until a marker or task arrives).
        pool.resize(1);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.engine_count() > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.engine_count(), 1);
        // No marker is left over: a task pushed now is executed, not eaten
        // by a stale shutdown marker.
        let (reply, results) = reply_channel();
        pool.queue().push(Task {
            invocation: InvocationId::from_raw(9),
            node: 0,
            instance: 0,
            payload: TaskPayload::Compute {
                artifact: echo_artifact(),
                inputs: vec![DataSet::single("in", b"alive".to_vec())].into(),
                cold_binary: false,
                timeout: Duration::from_secs(5),
            },
            reply,
        });
        let batch = results.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(batch[0].outcome.is_ok());
        pool.shutdown();
    }

    #[test]
    fn shrink_then_grow_never_loses_queued_tasks() {
        let pool = compute_pool();
        pool.resize(2);
        let (reply, results) = reply_channel();
        let total = 50usize;
        for index in 0..total {
            pool.queue().push(Task {
                invocation: InvocationId::from_raw(11),
                node: 0,
                instance: index,
                payload: TaskPayload::Compute {
                    artifact: echo_artifact(),
                    inputs: vec![DataSet::single("in", format!("t{index}").into_bytes())].into(),
                    cold_binary: false,
                    timeout: Duration::from_secs(5),
                },
                reply: reply.clone(),
            });
        }
        // Shrink while the queue is full, then immediately grow again. The
        // grow is computed against the desired count, so the pool converges
        // back to 3 engines even though the shutdown markers from the
        // shrink are still queued behind the tasks.
        pool.resize(1);
        pool.resize(3);
        let mut instances: Vec<usize> = Vec::new();
        while instances.len() < total {
            let batch = results
                .recv_timeout(Duration::from_secs(10))
                .expect("every queued task completes");
            instances.extend(batch.into_iter().map(|result| result.instance));
        }
        instances.sort_unstable();
        assert_eq!(instances, (0..total).collect::<Vec<_>>());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.engine_count() != 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.engine_count(), 3);
        pool.shutdown();
        assert_eq!(pool.engine_count(), 0);
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let pool = compute_pool();
        pool.resize(3);
        assert_eq!(pool.engine_count(), 3);
        pool.resize(1);
        // Shrinking happens as idle engines pick up the shutdown markers.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.engine_count() > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(pool.engine_count(), 1);
        assert_eq!(pool.engines_started_total(), 3);
        pool.resize(2);
        assert_eq!(pool.engine_count(), 2);
        pool.shutdown();
    }
}
