//! Compute and communication engine pools.
//!
//! Engines abstract the compute resources that execute functions (paper §5):
//!
//! * A **compute engine** owns one CPU core, pulls one task at a time from
//!   the compute queue and runs the untrusted function to completion inside
//!   an isolation backend — no context switches, no blocking.
//! * A **communication engine** owns one core and executes trusted
//!   communication functions. Within one task it performs the (possibly
//!   many) HTTP requests of the task's input sets, one response item each.
//!
//! Engines of one kind pull from their pool's own queue, which ensures late
//! binding of tasks to cores, and answer one dispatcher: the pool holds the
//! worker's completion sink, and a compute pool the function timeout, so a
//! task carries only what differs between tasks. Queue lengths, the tasks
//! owed an answer, are the control plane's only input signal.
//!
//! Both pools can grow and shrink at run time; the control plane moves cores
//! between them by resizing the pools (paper §5, "Control plane"). A pool's
//! whole state is one plain value, [`Engines`], behind its [`PoolCell`]'s
//! one lock. Its transitions read no clock and return what the shell
//! ([`EnginePool`], the engines, the cell) must do after unlocking: no
//! thread is spawned, joined or woken under the lock. A shrink hands out
//! stop tickets, which engines take at their next batch boundary; the queued
//! tasks stay for the engines that remain.
//!
//! An engine's step is one batch ([`Engine::run_batch`]). On a threaded pool
//! each engine is a thread that loops on it; a stepped pool's state counts
//! its engines all the same, but applying a transition starts no thread, and
//! its caller takes the engines' turns ([`EnginePool::run_queued`]) through
//! the same step at the caller's `now`.
//!
//! Engines are **supervised**: a panic inside the task body is caught and
//! converted into a structured [`DandelionError::EngineFault`] result, and a
//! panic that escapes the task guard (the reply path, injected chaos) kills
//! only that engine — the pool requeues its in-flight tasks once and
//! respawns a replacement within a restart budget, so one poisoned task can
//! never silently shrink the pool or strand an invocation.

use std::collections::{HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dandelion_common::config::EngineKind;
use dandelion_common::{
    check_failpoint, fail_point, failpoints_enabled, DandelionError, DataItem, DataSet, Fault,
};
use dandelion_http::validate::{validate_request_shared, ValidationPolicy};
use dandelion_http::StatusCode;
use dandelion_isolation::{ExecutionTask, IsolationBackend};
use dandelion_services::{Reply, ServiceRegistry};

use crate::recover;
use crate::task::{ReplySender, Task, TaskPayload, TaskResult};

/// Maximum task results an engine coalesces into one reply batch.
///
/// Same-invocation tasks that are already waiting on the queue when a task
/// finishes are executed back-to-back and their results reach the
/// dispatcher as one batch (one call of the pool's sink, one table lock)
/// instead of one each. The cap bounds how long the first result of a
/// batch can be held back.
const ENGINE_COALESCE_MAX: usize = 32;

/// The execution capability shared by every engine of a pool.
#[derive(Clone)]
pub(crate) enum EngineExecutor {
    /// Executes compute tasks through an isolation backend.
    Compute {
        /// The sandboxing mechanism.
        backend: Arc<dyn IsolationBackend>,
        /// How long one function may run.
        function_timeout: Duration,
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
    pub(crate) fn execute(&self, task: &Task) -> TaskResult {
        let (outcome, high_water) = match (&task.payload, self) {
            (
                TaskPayload::Compute { artifact, inputs },
                EngineExecutor::Compute {
                    backend,
                    function_timeout,
                },
            ) => {
                // The backend shares the task's inputs (a reference count)
                // and its report leaves by move.
                let execution = ExecutionTask::new(Arc::clone(artifact), Arc::clone(inputs))
                    .with_timeout(*function_timeout);
                match backend.execute(&execution) {
                    Ok(report) => (Ok(report.outputs), report.context_high_water),
                    Err(err) => (Err(err), 0),
                }
            }
            (
                TaskPayload::Http {
                    inputs,
                    response_set,
                },
                EngineExecutor::Communication { registry, policy },
            ) => (
                Ok(vec![execute_http(inputs, response_set, registry, policy)]),
                0,
            ),
            (TaskPayload::Faulted { reason }, _) => (
                Err(DandelionError::EngineFault {
                    reason: reason.clone(),
                }),
                0,
            ),
            (payload, executor) => (
                Err(DandelionError::Dispatch(format!(
                    "task of kind {:?} routed to {} engine",
                    payload.engine_kind(),
                    executor.kind()
                ))),
                0,
            ),
        };
        TaskResult {
            invocation: task.invocation,
            node: task.node,
            instance: task.instance,
            outcome,
            context_high_water: high_water,
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
) -> DataSet {
    const PREFIX: &str = "response-";
    let mut responses = DataSet::new(response_set);
    for set in inputs {
        for item in &set.items {
            // The request is validated where it lies and the service reads
            // it there: its target is a view of the item's bytes and its body
            // a view of their buffer, itself a view of the producer's region.
            // The reply's head and body are written into one pooled buffer.
            let response_bytes = match validate_request_shared(&item.data, policy) {
                Ok(validated) => registry
                    .dispatch(&validated.uri, &validated.request)
                    .response
                    .to_shared(),
                Err(err) => Reply::error(StatusCode::BAD_REQUEST, &err.to_string()).to_shared(),
            };
            let mut name = String::with_capacity(PREFIX.len() + item.name.len());
            name.push_str(PREFIX);
            name.push_str(&item.name);
            let mut response_item = DataItem::new(name, response_bytes);
            response_item.key = item.key.clone();
            responses.push(response_item);
        }
    }
    responses
}

/// How many replacement engines a pool spawns for panic-killed threads
/// before giving up (a crash-looping backend must not respawn forever).
const DEFAULT_RESTART_BUDGET: usize = 32;

/// An engine's turn at a batch boundary: run a task, wait on the pool's
/// condition variable and ask again, or leave with a stop ticket after
/// waking this many parked engines.
#[derive(Debug)]
enum Next {
    Run(Task),
    Park,
    Stop(usize),
}

/// What a pool-wide transition leaves the shell to do after unlocking:
/// engine threads to start and parked engines to wake (one notify each).
#[derive(Debug, PartialEq, Eq)]
struct Effects {
    spawn: usize,
    wake: usize,
}

/// A pool's whole state: plain data, with no lock, clock or thread of its
/// own.
#[derive(Default)]
struct Engines {
    /// Tasks owed an answer, oldest first.
    tasks: VecDeque<Task>,
    /// The depth at which `try_push` refuses.
    capacity: usize,
    /// Engines started that have neither stopped nor died.
    running: usize,
    /// Stops a shrink asked for that no engine has taken yet.
    tickets: usize,
    /// Engines waiting on the pool's condition variable.
    parked: usize,
    /// Respawns still allowed; a death past them leaves the pool smaller
    /// until the next grow.
    restarts_left: usize,
    /// Engine threads killed by a panic that escaped the task guard.
    deaths: usize,
    /// Replacement engines spawned by supervision.
    respawns: usize,
    /// Task keys already requeued once after an engine death: the second
    /// death of the same task fails it with `EngineFault` instead of
    /// retrying forever. Bounded by the deaths, which the budget bounds.
    retried: HashSet<(u64, usize, usize)>,
    /// The threads started, joined by `EnginePool::shutdown`.
    handles: Vec<JoinHandle<()>>,
}

impl Engines {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            restarts_left: DEFAULT_RESTART_BUDGET,
            ..Self::default()
        }
    }

    fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Queues `task`; one parked engine, if any, is woken for it.
    fn push(&mut self, task: Task) -> usize {
        self.tasks.push_back(task);
        self.parked.min(1)
    }

    /// Queues `task` unless `capacity` tasks are owed an answer already.
    fn try_push(&mut self, task: Task) -> Result<usize, Task> {
        if self.tasks.len() >= self.capacity {
            return Err(task);
        }
        Ok(self.push(task))
    }

    /// Pops the oldest task if `take` accepts it: how an engine coalesces.
    fn pop_if(&mut self, take: impl FnOnce(&Task) -> bool) -> Option<Task> {
        self.tasks.pop_front_if(|task| take(task))
    }

    /// An engine at a batch boundary, `woken` from its park: a stop ticket
    /// comes before the oldest task. An engine that leaves while tasks are
    /// queued wakes a parked one, so that no task waits while an engine
    /// sleeps.
    fn next(&mut self, woken: bool) -> Next {
        self.parked -= usize::from(woken);
        if self.tickets > 0 {
            self.tickets -= 1;
            self.running -= 1;
            return Next::Stop(self.parked.min(usize::from(!self.tasks.is_empty())));
        }
        let next = self.tasks.pop_front().map_or(Next::Park, Next::Run);
        self.parked += usize::from(matches!(next, Next::Park));
        next
    }

    /// Converges on `target` engines, counting the running ones that hold no
    /// stop ticket: a grow cancels tickets before it spawns, a shrink hands
    /// them out and wakes parked engines to take them.
    fn resize(&mut self, target: usize) -> Effects {
        let staying = self.running - self.tickets;
        if target < staying {
            self.tickets += staying - target;
            let wake = self.parked.min(staying - target);
            return Effects { spawn: 0, wake };
        }
        let cancelled = self.tickets.min(target - staying);
        self.tickets -= cancelled;
        let spawn = target - staying - cancelled;
        self.running += spawn;
        Effects { spawn, wake: 0 }
    }

    /// An engine died holding `inflight`: each task is requeued to run once
    /// more or, on its second death, marked [`TaskPayload::Faulted`]. The
    /// death takes an outstanding stop ticket; without one, a replacement
    /// starts within the budget.
    fn died(&mut self, inflight: Vec<Task>) -> Effects {
        self.deaths += 1;
        self.running -= 1;
        let wake = self.parked.min(inflight.len());
        for mut task in inflight {
            // If the task already settled (the panic hit after the reply),
            // the dispatcher's per-task guard drops the duplicate result.
            let key = (task.invocation.as_u64(), task.node, task.instance);
            if !self.retried.insert(key) {
                task.payload = TaskPayload::Faulted {
                    reason: "engine died twice executing this task".to_string(),
                };
            }
            self.tasks.push_back(task);
        }
        if self.tickets > 0 {
            self.tickets -= 1;
            return Effects { spawn: 0, wake };
        }
        let spawn = usize::from(self.restarts_left > 0);
        self.restarts_left -= spawn;
        self.respawns += spawn;
        self.running += spawn;
        Effects { spawn, wake }
    }

    /// Once every engine is joined: the tasks still queued, to be answered.
    fn shutdown(&mut self) -> VecDeque<Task> {
        std::mem::take(&mut self.tasks)
    }

    /// Asserts the invariants every transition keeps, in a debug build and
    /// unless the thread is unwinding already (a pool dropped by a failing
    /// test), where a second panic would abort the process. The queue has no
    /// bound here: a death requeues what its engine held into a full queue.
    fn check(&self) {
        if cfg!(debug_assertions) && !std::thread::panicking() {
            assert!(self.tickets <= self.running, "tickets > running");
            assert!(self.parked <= self.running, "parked > running");
            assert!(self.respawns <= self.deaths, "respawns > deaths");
        }
    }
}

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

/// One pool's shared cell: its state behind one lock, the condition
/// variable its idle engine threads park on, what its engines execute with
/// and where they hand their results. The dispatcher pushes into it and each
/// engine holds it; the pool's [`EnginePool`] starts and joins the threads.
pub(crate) struct PoolCell {
    engines: Mutex<Engines>,
    /// Engine threads with nothing to run wait on it.
    available: Condvar,
    executor: EngineExecutor,
    /// The worker's one completion sink, which every engine of the pool
    /// hands its batches to.
    reply: ReplySender,
    /// Whether the pool's engines are threads; a stepped pool's are its
    /// caller's turns.
    threaded: bool,
}

impl PoolCell {
    /// Locks the pool's state. Only its transitions run under the lock, and
    /// each leaves it whole, so the guard of a lock poisoned by a panicking
    /// thread is as good as any.
    fn lock(&self) -> MutexGuard<'_, Engines> {
        recover(self.engines.lock())
    }

    /// Applies one transition under the lock and checks the state's
    /// invariants before unlocking.
    fn transition<R>(&self, change: impl FnOnce(&mut Engines) -> R) -> R {
        let mut engines = self.lock();
        let out = change(&mut engines);
        engines.check();
        out
    }

    /// Wakes `engines` parked engines, outside the lock.
    fn notify(&self, engines: usize) {
        for _ in 0..engines {
            self.available.notify_one();
        }
    }

    /// Enqueues a task, applying back-pressure when the queue is full: a
    /// push never blocks the dispatcher. A push wakes one parked engine.
    pub(crate) fn try_push(&self, task: Task) -> Result<(), Task> {
        let wake = self.transition(|engines| engines.try_push(task))?;
        self.notify(wake);
        Ok(())
    }

    /// An engine thread's turn at a batch boundary: the next task, or `None`
    /// once the engine took a stop ticket. An idle engine parks on the
    /// condition variable until a push or a shrink wakes it.
    fn next(&self) -> Option<Task> {
        let mut engines = self.lock();
        let mut woken = false;
        loop {
            let next = engines.next(woken);
            engines.check();
            match next {
                Next::Run(task) => return Some(task),
                Next::Stop(wake) => {
                    drop(engines);
                    self.notify(wake);
                    return None;
                }
                Next::Park => {
                    engines = recover(self.available.wait(engines));
                    woken = true;
                }
            }
        }
    }

    /// A stepped pool's turn, on its caller's thread: the next task while an
    /// engine is left to run it. Engines holding stop tickets take them
    /// first, as at their batch boundary; nothing parks, so nothing is asked
    /// of an engine that would.
    fn turn(&self) -> Option<Task> {
        self.transition(|engines| {
            while engines.running > 0 && (engines.tickets > 0 || !engines.tasks.is_empty()) {
                if let Next::Run(task) = engines.next(false) {
                    return Some(task);
                }
            }
            None
        })
    }
}

/// Applies a pool transition's effects after unlocking: wakes the engines
/// and, on a threaded pool, starts the threads and files their handles.
fn apply(cell: &Arc<PoolCell>, effects: Effects) {
    cell.notify(effects.wake);
    if !cell.threaded {
        return;
    }
    let handles: Vec<JoinHandle<()>> = (0..effects.spawn)
        .map(|_| {
            let cell = Arc::clone(cell);
            std::thread::Builder::new()
                .name(format!("dandelion-{}-engine", cell.executor.kind()))
                .spawn(move || {
                    supervised(&cell, |engine| {
                        while let Some(task) = cell.next() {
                            engine.run_batch(&cell, task, Instant::now);
                        }
                    });
                })
                .expect("spawning an engine thread")
        })
        .collect();
    cell.lock().handles.extend(handles);
}

/// Runs one engine's batches under supervision: a panic that escapes a
/// batch hands the tasks the engine held to the death transition and
/// applies what it asks for, a replacement within the budget. Only the
/// queue is touched, so no table lock, failpoint or settle callback runs on
/// the unwinding thread.
fn supervised(cell: &Arc<PoolCell>, batches: impl FnOnce(&mut Engine)) {
    let mut engine = Engine::default();
    if std::panic::catch_unwind(AssertUnwindSafe(|| batches(&mut engine))).is_err() {
        let effects = cell.transition(|engines| engines.died(engine.inflight));
        apply(cell, effects);
    }
}

/// What one engine holds across its batches: the tasks of the batch it
/// runs, each moved here when popped and kept until its result is delivered
/// — so a requeue hands on the very task, inputs and artifact, without a
/// clone — and the results list, handed back empty by the sink.
#[derive(Default)]
struct Engine {
    inflight: Vec<Task>,
    batch: Vec<TaskResult>,
}

impl Engine {
    /// One batch: executes `task` under the task guard, then the same
    /// invocation's tasks queued next, and hands the results to the pool's
    /// sink at the time `clock` reads once, when they ran. The reply applies
    /// the batch to the dispatcher's table on this thread (see
    /// [`crate::task::ReplySender`]).
    fn run_batch(&mut self, cell: &PoolCell, task: Task, clock: impl FnOnce() -> Instant) {
        let executor = &cell.executor;
        // A task whose engine died twice: answered here, by a thread that is
        // not unwinding, without running it and past the reply failpoints,
        // so that it fails exactly once.
        if let TaskPayload::Faulted { .. } = task.payload {
            self.batch.push(executor.execute(&task));
            cell.reply.send(&mut self.batch, clock());
            return;
        }
        let invocation = task.invocation;
        self.execute(executor, task);
        // Coalesce: execute the same invocation's tasks queued next and reply
        // with one batch. A task of another invocation, or a faulted one,
        // ends the batch and stays queued.
        let same = |next: &Task| {
            next.invocation == invocation && !matches!(next.payload, TaskPayload::Faulted { .. })
        };
        while self.batch.len() < ENGINE_COALESCE_MAX {
            let Some(next) = cell.transition(|engines| engines.pop_if(same)) else {
                break;
            };
            self.execute(executor, next);
        }
        // Chaos hook: a panic here dies *before* delivery, exercising the
        // requeue-once path.
        fail_point!("engine/reply");
        // Applies the batch to the table and what it causes — successor
        // tasks, settle callbacks — on this thread. A result for an
        // invocation the table no longer holds is dropped there.
        cell.reply.send(&mut self.batch, clock());
        self.inflight.clear();
        // Chaos hook: a panic here dies *after* delivery — the respawn
        // keeps the pool size, and nothing is requeued.
        fail_point!("engine/after-reply");
    }

    /// Parks `task` in the in-flight list — where supervision finds it if
    /// the engine dies before the reply — and executes it from there.
    fn execute(&mut self, executor: &EngineExecutor, task: Task) {
        self.inflight.push(task);
        let task = self.inflight.last().expect("pushed above");
        self.batch.push(execute_supervised(executor, task));
    }
}

/// A resizable pool of engines of one kind: the handle that starts and
/// joins the threads its cell's state asks for, and whose drop stops them.
/// The engine threads hold the cell, not this handle.
pub struct EnginePool {
    cell: Arc<PoolCell>,
}

impl EnginePool {
    /// An empty pool whose queue holds up to `capacity` tasks and whose
    /// engines execute through `executor` and hand their results to
    /// `reply`; with `threaded`, each engine is a thread.
    pub(crate) fn new(
        executor: EngineExecutor,
        capacity: usize,
        reply: ReplySender,
        threaded: bool,
    ) -> Self {
        let cell = Arc::new(PoolCell {
            engines: Mutex::new(Engines::new(capacity)),
            available: Condvar::new(),
            executor,
            reply,
            threaded,
        });
        Self { cell }
    }

    /// The cell the dispatcher pushes this pool's tasks into.
    pub(crate) fn cell(&self) -> &Arc<PoolCell> {
        &self.cell
    }

    /// Current queue depth: the tasks owed an answer.
    pub(crate) fn len(&self) -> usize {
        self.cell.lock().len()
    }

    /// Number of engines running, threads or a stepped pool's turns alike:
    /// right after a shrink this still counts the engines that have yet to
    /// take their stop tickets.
    pub fn engine_count(&self) -> usize {
        self.cell.lock().running
    }

    /// Engine threads killed by a panic that escaped the task guard.
    pub fn engine_deaths(&self) -> usize {
        self.cell.lock().deaths
    }

    /// Replacement engines spawned by supervision after a death.
    pub fn engine_respawns(&self) -> usize {
        self.cell.lock().respawns
    }

    /// Respawns supervision may still perform.
    pub fn restart_budget_left(&self) -> usize {
        self.cell.lock().restarts_left
    }

    /// Replaces the respawn budget (tests tighten it to prove exhaustion).
    pub fn set_restart_budget(&self, budget: usize) {
        self.cell.transition(|pool| pool.restarts_left = budget);
    }

    /// Grows or shrinks the pool to `target` engines: a grow takes back the
    /// stop tickets no engine has taken yet and starts threads for the rest
    /// at once; a shrink hands out stop tickets (module docs).
    pub fn resize(&self, target: usize) {
        let effects = self.cell.transition(|engines| engines.resize(target));
        apply(&self.cell, effects);
    }

    /// A stepped pool's engines, on the calling thread: runs batches, each
    /// settled at `now`, until no engine has a turn or `budget` ran, and
    /// returns how many ran.
    pub(crate) fn run_queued(&self, budget: usize, now: Instant) -> usize {
        let mut ran = 0;
        supervised(&self.cell, |engine| {
            while ran < budget {
                let Some(task) = self.cell.turn() else { break };
                engine.run_batch(&self.cell, task, || now);
                ran += 1;
            }
        });
        ran
    }

    /// Stops every engine, waits for the threads to exit, then answers the
    /// tasks still queued, each once, with [`DandelionError::Cancelled`],
    /// in one batch through the pool's sink, on the calling thread.
    pub(crate) fn shutdown(&self) {
        self.resize(0);
        loop {
            let handles = std::mem::take(&mut self.cell.lock().handles);
            if handles.is_empty() {
                break;
            }
            // The panic hook has reported a thread's panic.
            for handle in handles {
                let _ = handle.join();
            }
        }
        let leftovers = self.cell.transition(Engines::shutdown);
        if !leftovers.is_empty() {
            let mut batch = leftovers
                .iter()
                .map(|task| task.failed(DandelionError::Cancelled))
                .collect();
            self.cell.reply.send(&mut batch, Instant::now());
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
    use dandelion_common::config::IsolationKind;
    use dandelion_common::InvocationId;
    use dandelion_http::HttpRequest;
    use dandelion_isolation::{create_backend, FunctionArtifact, FunctionCtx, HardwarePlatform};
    use dandelion_services::ObjectStore;
    use std::sync::atomic::{AtomicUsize, Ordering};

    impl PoolCell {
        /// Dequeues the next task if one is queued, without blocking.
        pub(crate) fn try_pop(&self) -> Option<Task> {
            self.transition(|engines| engines.pop_if(|_| true))
        }

        /// Hands `results` to the pool's sink at `now`, as an engine does.
        pub(crate) fn answer(&self, results: &mut Vec<TaskResult>, now: Instant) {
            self.reply.send(results, now);
        }
    }

    /// A sink that forwards every batch to a channel, with the channel's
    /// receiving end: the dispatcher's side of a pool under test.
    fn reply_channel() -> (ReplySender, std::sync::mpsc::Receiver<Vec<TaskResult>>) {
        let (sender, receiver) = std::sync::mpsc::channel();
        let sink = ReplySender::new(move |batch, _| {
            let _ = sender.send(std::mem::take(batch));
        });
        (sink, receiver)
    }

    /// A compute pool of no engine whose queue holds `capacity` tasks and
    /// whose engines answer through `reply`.
    fn compute_pool_of(capacity: usize, reply: ReplySender) -> EnginePool {
        let backend = create_backend(IsolationKind::Native, HardwarePlatform::Morello);
        let executor = EngineExecutor::Compute {
            backend,
            function_timeout: Duration::from_secs(5),
        };
        EnginePool::new(executor, capacity, reply, true)
    }

    fn compute_pool(reply: ReplySender) -> EnginePool {
        compute_pool_of(1024, reply)
    }

    fn comm_pool_with_store(reply: ReplySender) -> (EnginePool, Arc<ObjectStore>) {
        let store = Arc::new(ObjectStore::new());
        store.put_object("bucket", "hello.txt", b"stored bytes".to_vec());
        let mut registry = ServiceRegistry::new();
        registry.register("s3.internal", store.clone());
        let executor = EngineExecutor::Communication {
            registry: Arc::new(registry),
            policy: Arc::new(ValidationPolicy::default()),
        };
        (EnginePool::new(executor, 1024, reply, true), store)
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
        let (reply, results) = reply_channel();
        let pool = compute_pool(reply);
        pool.resize(2);
        assert_eq!(pool.engine_count(), 2);
        for index in 0..4 {
            pool.cell()
                .try_push(Task {
                    invocation: InvocationId::from_raw(7),
                    node: 0,
                    instance: index,
                    payload: TaskPayload::Compute {
                        artifact: echo_artifact(),
                        inputs: vec![DataSet::single("in", format!("p{index}").into_bytes())]
                            .into(),
                    },
                })
                .unwrap();
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
        let (reply, results) = reply_channel();
        let pool = compute_pool(reply);
        // Queue every task before any engine exists, so a single engine
        // deterministically finds the rest of the invocation's tasks queued
        // when the first one finishes.
        for instance in 0..6 {
            pool.cell()
                .try_push(Task {
                    invocation: InvocationId::from_raw(42),
                    node: 0,
                    instance,
                    payload: TaskPayload::Compute {
                        artifact: echo_artifact(),
                        inputs: vec![DataSet::single("in", format!("c{instance}").into_bytes())]
                            .into(),
                    },
                })
                .unwrap();
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
        let (reply, results) = reply_channel();
        let pool = compute_pool(reply);
        for (index, invocation) in [7u64, 7, 9, 9].into_iter().enumerate() {
            pool.cell()
                .try_push(Task {
                    invocation: InvocationId::from_raw(invocation),
                    node: 0,
                    instance: index,
                    payload: TaskPayload::Compute {
                        artifact: echo_artifact(),
                        inputs: vec![DataSet::single("in", vec![index as u8])].into(),
                    },
                })
                .unwrap();
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
        let (reply, results) = reply_channel();
        let (pool, _store) = comm_pool_with_store(reply);
        pool.resize(1);
        let good = HttpRequest::get("http://s3.internal/bucket/hello.txt").to_bytes();
        let missing = HttpRequest::get("http://s3.internal/bucket/none").to_bytes();
        let invalid = b"NOT A REQUEST".to_vec();
        // A target that is not UTF-8 is refused, not read lossily.
        let not_utf8 = b"GET http://s3.internal/bucket/hello\xff.txt HTTP/1.1\r\n\r\n".to_vec();
        pool.cell()
            .try_push(Task {
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
                            DataItem::new("r3", not_utf8),
                        ],
                    )]
                    .into(),
                    response_set: "Response".to_string(),
                },
            })
            .unwrap();
        let batch = results.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.len(), 1);
        let result = &batch[0];
        let outputs = result.outcome.clone().unwrap();
        assert_eq!(outputs[0].name, "Response");
        assert_eq!(outputs[0].len(), 4);
        let names: Vec<_> = outputs[0].items.iter().map(|item| &item.name).collect();
        assert_eq!(
            names,
            ["response-r0", "response-r1", "response-r2", "response-r3"]
        );
        let parse = |item: &DataItem| dandelion_http::parse_response(&item.data).unwrap();
        assert_eq!(parse(&outputs[0].items[0]).status.0, 200);
        assert_eq!(parse(&outputs[0].items[0]).body, b"stored bytes");
        assert_eq!(parse(&outputs[0].items[1]).status.0, 404);
        assert_eq!(parse(&outputs[0].items[2]).status.0, 400);
        let refused = parse(&outputs[0].items[3]);
        assert_eq!(refused.status.0, 400);
        assert!(refused.body_str().contains("is not a valid URI"));
        pool.shutdown();
    }

    #[test]
    fn misrouted_tasks_report_dispatch_errors() {
        let (reply, results) = reply_channel();
        let (pool, _store) = comm_pool_with_store(reply);
        pool.resize(1);
        pool.cell()
            .try_push(Task {
                invocation: InvocationId::from_raw(2),
                node: 0,
                instance: 0,
                payload: TaskPayload::Compute {
                    artifact: echo_artifact(),
                    inputs: Arc::new([]),
                },
            })
            .unwrap();
        let batch = results.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(batch[0].outcome, Err(DandelionError::Dispatch(_))));
        pool.shutdown();
    }

    #[test]
    fn a_faulted_task_is_answered_without_running() {
        let (reply, results) = reply_channel();
        let pool = compute_pool(reply);
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
            },
            TaskPayload::Faulted {
                reason: "engine died twice executing this task".to_string(),
            },
        ]
        .into_iter()
        .enumerate()
        {
            pool.cell()
                .try_push(Task {
                    invocation: InvocationId::from_raw(13),
                    node: 0,
                    instance,
                    payload,
                })
                .unwrap();
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

    /// A pool of no engine whose queue holds `capacity` tasks and whose
    /// answers nobody reads.
    fn idle_pool(capacity: usize) -> EnginePool {
        compute_pool_of(capacity, ReplySender::new(|_, _| {}))
    }

    #[test]
    fn queue_tracks_depth_and_totals() {
        let pool = idle_pool(16);
        assert_eq!(pool.len(), 0);
        pool.cell().try_push(queued(1, 0)).unwrap();
        pool.cell().try_push(queued(1, 1)).unwrap();
        assert_eq!(pool.len(), 2);
        assert!(pool.cell().try_pop().is_some());
        assert_eq!(pool.len(), 1);
        assert!(pool.cell().try_pop().is_some());
        assert!(pool.cell().try_pop().is_none());
    }

    #[test]
    fn try_push_applies_back_pressure() {
        let pool = idle_pool(1);
        assert!(pool.cell().try_push(queued(1, 0)).is_ok());
        assert!(pool.cell().try_push(queued(1, 1)).is_err());
        pool.cell().try_pop().unwrap();
        assert!(pool.cell().try_push(queued(1, 2)).is_ok());
    }

    #[test]
    fn try_pop_is_nonblocking() {
        let pool = idle_pool(8);
        assert!(pool.cell().try_pop().is_none());
        pool.cell().try_push(queued(1, 0)).unwrap();
        assert!(pool.cell().try_pop().is_some());
        assert!(pool.cell().try_pop().is_none());
        assert_eq!(pool.len(), 0);
    }

    // Rows: `Engines` stepped by hand in one thread, no engine thread and no
    // sleep. An "engine" is a call of `next` as its thread would make it:
    // `next(false)` at a batch boundary, `next(true)` after its park.

    /// `Engines` as the rows step it: every transition is followed by
    /// `check`, as `PoolCell` follows it under its lock. Fields read and
    /// set through it are the state's own.
    struct Checked(Engines);

    impl Checked {
        fn new(capacity: usize) -> Self {
            Self(Engines::new(capacity))
        }

        fn step<R>(&mut self, transition: impl FnOnce(&mut Engines) -> R) -> R {
            let out = transition(&mut self.0);
            self.0.check();
            out
        }

        fn push(&mut self, task: Task) -> usize {
            self.step(|engines| engines.push(task))
        }

        fn try_push(&mut self, task: Task) -> Result<usize, Task> {
            self.step(|engines| engines.try_push(task))
        }

        fn next(&mut self, woken: bool) -> Next {
            self.step(|engines| engines.next(woken))
        }

        fn resize(&mut self, target: usize) -> Effects {
            self.step(|engines| engines.resize(target))
        }

        fn died(&mut self, inflight: Vec<Task>) -> Effects {
            self.step(|engines| engines.died(inflight))
        }
    }

    impl std::ops::Deref for Checked {
        type Target = Engines;

        fn deref(&self) -> &Engines {
            &self.0
        }
    }

    impl std::ops::DerefMut for Checked {
        fn deref_mut(&mut self) -> &mut Engines {
            &mut self.0
        }
    }

    /// A task that rows queue and hand out, never run.
    fn queued(invocation: u64, instance: usize) -> Task {
        Task {
            invocation: InvocationId::from_raw(invocation),
            node: 0,
            instance,
            payload: TaskPayload::Http {
                inputs: Arc::new([]),
                response_set: "Response".to_string(),
            },
        }
    }

    fn run(next: Next) -> Task {
        match next {
            Next::Run(task) => task,
            other => panic!("expected a task, got {other:?}"),
        }
    }

    fn spawned(effects: Effects) -> usize {
        assert_eq!(effects.wake, 0, "a grow wakes nobody");
        effects.spawn
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let mut engines = Checked::new(1024);
        let mut started = spawned(engines.resize(3));
        assert_eq!(engines.running, 3);
        for _ in 0..3 {
            assert!(matches!(engines.next(false), Next::Park));
        }
        // The shrink wakes as many parked engines as it hands out tickets,
        // and they stop without anything polling.
        assert_eq!(engines.resize(1), Effects { spawn: 0, wake: 2 });
        assert!(matches!(engines.next(true), Next::Stop(0)));
        assert!(matches!(engines.next(true), Next::Stop(0)));
        assert_eq!(engines.running, 1);
        // No ticket is left over: a task pushed now is run, not eaten.
        assert_eq!(engines.push(queued(9, 0)), 1);
        assert_eq!(run(engines.next(true)).invocation.as_u64(), 9);
        assert_eq!(engines.tickets, 0);
        assert_eq!(started, 3);
        started += spawned(engines.resize(2));
        assert_eq!((engines.running, started), (2, 4));
    }

    #[test]
    fn shrink_then_grow_never_loses_queued_tasks() {
        let mut engines = Checked::new(1024);
        assert_eq!(spawned(engines.resize(2)), 2);
        let total = 50;
        for instance in 0..total {
            engines.push(queued(11, instance));
        }
        // Shrink while the queue is full, then grow again at once: the grow
        // takes the ticket back and starts only what is still missing.
        assert_eq!(engines.resize(1), Effects { spawn: 0, wake: 0 });
        assert_eq!(spawned(engines.resize(3)), 1);
        assert_eq!((engines.running, engines.tickets), (3, 0));
        let mut instances: Vec<usize> = (0..total)
            .map(|_| run(engines.next(false)).instance)
            .collect();
        instances.sort_unstable();
        assert_eq!(instances, (0..total).collect::<Vec<_>>());
        assert_eq!(engines.running, 3);
        engines.resize(0);
        for _ in 0..3 {
            assert!(matches!(engines.next(false), Next::Stop(0)));
        }
        assert_eq!(engines.running, 0);
    }

    #[test]
    fn a_shrink_neither_deepens_nor_fills_the_queue() {
        let mut engines = Checked::new(2);
        spawned(engines.resize(1));
        engines.push(queued(1, 0));
        run(engines.next(false));
        engines.push(queued(1, 1));
        engines.resize(0);
        assert_eq!(engines.len(), 1);
        assert!(engines.try_push(queued(1, 2)).is_ok());
        assert!(engines.try_push(queued(1, 3)).is_err());
    }

    #[test]
    fn a_shrink_under_a_backlog_stops_one_engine_at_its_task_boundary() {
        let mut engines = Checked::new(1024);
        spawned(engines.resize(2));
        for instance in 0..4 {
            engines.push(queued(3, instance));
        }
        // Both engines are busy when the shrink comes.
        run(engines.next(false));
        run(engines.next(false));
        assert_eq!(engines.resize(1), Effects { spawn: 0, wake: 0 });
        assert_eq!((engines.len(), engines.running), (2, 2));
        // The first to finish its batch stops; every task stays queued.
        assert!(matches!(engines.next(false), Next::Stop(0)));
        assert_eq!((engines.len(), engines.running), (2, 1));
        assert_eq!(run(engines.next(false)).instance, 2);
        assert_eq!(run(engines.next(false)).instance, 3);
        assert!(matches!(engines.next(false), Next::Park));
    }

    #[test]
    fn a_death_while_a_ticket_is_outstanding_takes_it_and_does_not_respawn() {
        let mut engines = Checked::new(1024);
        spawned(engines.resize(2));
        engines.push(queued(5, 0));
        engines.push(queued(5, 1));
        let held = run(engines.next(false));
        run(engines.next(false));
        engines.resize(1);
        assert_eq!(engines.died(vec![held]), Effects { spawn: 0, wake: 0 });
        assert_eq!((engines.running, engines.tickets), (1, 0));
        assert_eq!((engines.deaths, engines.respawns), (1, 0));
        assert_eq!(engines.restarts_left, DEFAULT_RESTART_BUDGET);
        // The survivor takes no ticket: it runs the requeued task.
        assert_eq!(run(engines.next(false)).instance, 0);
    }

    #[test]
    fn an_unreplaced_death_is_made_up_by_the_next_grow() {
        let mut engines = Checked::new(1024);
        engines.restarts_left = 0;
        spawned(engines.resize(1));
        engines.push(queued(6, 0));
        run(engines.next(false));
        // The engine dies after its reply, with the budget spent.
        assert_eq!(engines.died(Vec::new()), Effects { spawn: 0, wake: 0 });
        assert_eq!(engines.running, 0);
        assert_eq!(spawned(engines.resize(2)), 2);
        assert_eq!(engines.running, 2);
    }

    #[test]
    fn a_stopping_engine_wakes_a_parked_one_while_tasks_remain() {
        let mut engines = Checked::new(1024);
        spawned(engines.resize(2));
        assert!(matches!(engines.next(false), Next::Park));
        assert!(matches!(engines.next(false), Next::Park));
        // A push wakes one engine; a shrink comes before it runs.
        assert_eq!(engines.push(queued(8, 0)), 1);
        assert_eq!(engines.resize(1), Effects { spawn: 0, wake: 1 });
        // The woken engine takes the ticket and hands the task on.
        assert!(matches!(engines.next(true), Next::Stop(1)));
        assert_eq!(run(engines.next(true)).instance, 0);
        // With nothing queued, a stopping engine wakes nobody.
        engines.resize(0);
        assert!(matches!(engines.next(false), Next::Stop(0)));
    }

    #[test]
    fn shutdown_answers_every_leftover_task_cancelled_exactly_once() {
        let (reply, results) = reply_channel();
        let pool = compute_pool(reply);
        for instance in 0..3 {
            pool.cell().try_push(queued(4, instance)).unwrap();
        }
        pool.shutdown();
        let mut instances = Vec::new();
        while let Ok(batch) = results.try_recv() {
            for result in batch {
                assert_eq!(result.outcome.unwrap_err(), DandelionError::Cancelled);
                instances.push(result.instance);
            }
        }
        assert_eq!(instances, vec![0, 1, 2]);
        assert_eq!(pool.len(), 0);
        drop(pool);
        assert!(results.try_recv().is_err(), "answered once");
    }
}
