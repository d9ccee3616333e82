//! The dispatcher: drives invocations over the engine pools.
//!
//! The dispatcher owns the per-invocation dataflow state
//! ([`crate::invocation::InvocationState`]), prepares tasks for ready
//! function instances, enqueues them on the engine queues, and feeds
//! completions back until the composition's external outputs are available
//! (paper §5, §6.1).
//!
//! The dispatcher is asynchronous end-to-end, matching the paper's dataflow
//! engine: [`Dispatcher::submit`] registers the invocation in a shared
//! **in-flight table** and returns an [`InvocationHandle`] immediately. A
//! single background *driver* thread multiplexes every engine completion
//! (task results carry their invocation id), advances the owning
//! invocation's dataflow state, submits newly ready instances, and settles
//! the handle when the external outputs are available. Any number of
//! invocations can therefore be in flight per client with no thread parked
//! per invocation; the blocking [`Dispatcher::invoke`] is just
//! `submit(..).wait(None)`.
//!
//! The driver is the worker's one thread besides the engines, with its one
//! clock: it waits for results until the stall reaper (every 100 ms), the
//! pool release (every 500 ms) or, with control on, the core controller is
//! due, and after every wake reads the clock once and runs what is due, busy
//! or idle. The table's functions take that `now`, or the one
//! [`Dispatcher::submit`] reads; they read no clock.
//!
//! Nested compositions are registered as *child invocations* in the same
//! table, linked to the parent instance that spawned them; a child's
//! completion flows back into the parent exactly like an engine result.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dandelion_common::config::WorkerConfig;
use dandelion_common::rng::SplitMix64;
use dandelion_common::stats::LatencyHistogram;
use dandelion_common::{
    fail_point, BufferPool, DandelionError, DandelionResult, DataSet, InvocationId,
};
use dandelion_dsl::CompositionGraph;
use parking_lot::Mutex;

use crate::control::PoolControl;
use crate::invocation::{InstanceCompletion, InstanceSpec, InvocationState};
use crate::registry::{Registry, Vertex};
use crate::task::{Task, TaskPayload, TaskQueue, TaskResult};

/// How often the driver fails invocations that stopped making progress.
const REAP_PERIOD: Duration = Duration::from_millis(100);

/// How often the driver looks at what the buffer pool retains: a buffer
/// nobody needed since the look before, half a second, is given back, so a
/// node's memory is back about a second after a load.
const POOL_RELEASE_PERIOD: Duration = Duration::from_millis(500);

/// Number of shards of the in-flight table: the machine's available
/// parallelism rounded up to a power of two, clamped to `[4, 64]`.
/// Submitting clients and the driver thread contend only within a shard, so
/// the submit/complete hot path never serializes on one global lock, and the
/// shard count scales with the number of threads that can actually contend
/// instead of being hard-coded.
fn in_flight_shard_count() -> usize {
    std::thread::available_parallelism()
        .map(|cores| cores.get())
        .unwrap_or(16)
        .next_power_of_two()
        .clamp(4, 64)
}

/// Maximum engine replies the driver folds into one wakeup. Batching
/// amortizes the channel receive and keeps one reply from head-of-line
/// blocking the rest; the cap bounds latency for replies arriving during a
/// long drain. (Engines additionally coalesce same-invocation results into
/// one channel message before they get here.)
const DRIVER_MAX_BATCH: usize = 256;

/// A retained result view smaller than `1/RETAINED_PIN_FACTOR` of its
/// parent buffer is copy-compacted when the invocation settles, so that
/// keeping a few result bytes around for polling does not pin a multi-MiB
/// producer buffer until retention expiry.
const RETAINED_PIN_FACTOR: usize = 8;

/// Per-invocation execution statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InvocationReport {
    /// Number of compute tasks executed (sandboxes created).
    pub compute_tasks: usize,
    /// Number of communication tasks executed.
    pub communication_tasks: usize,
    /// Sum of peak memory-context bytes across all compute tasks.
    pub peak_context_bytes: usize,
    /// Sum of the modeled latencies of all tasks (an upper bound on the
    /// modeled critical path; exact path accounting is done by the
    /// simulator).
    pub modeled_busy_time: Duration,
}

impl InvocationReport {
    fn merge(&mut self, other: &InvocationReport) {
        self.compute_tasks += other.compute_tasks;
        self.communication_tasks += other.communication_tasks;
        self.peak_context_bytes += other.peak_context_bytes;
        self.modeled_busy_time += other.modeled_busy_time;
    }
}

/// The result of a completed invocation.
#[derive(Debug, Clone)]
pub struct InvocationOutcome {
    /// The composition's external outputs.
    pub outputs: Vec<DataSet>,
    /// Execution statistics.
    pub report: InvocationReport,
}

/// Where an invocation currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvocationStatus {
    /// Registered but no instance has been handed to an engine yet.
    Queued,
    /// Instances are executing or waiting on engine queues.
    Running,
    /// Finished successfully; the outcome is (or was) available.
    Completed,
    /// Finished with an error; the error is (or was) available.
    Failed,
}

impl InvocationStatus {
    /// Stable lowercase name used by the v1 HTTP API.
    pub fn as_str(&self) -> &'static str {
        match self {
            InvocationStatus::Queued => "queued",
            InvocationStatus::Running => "running",
            InvocationStatus::Completed => "completed",
            InvocationStatus::Failed => "failed",
        }
    }

    /// Returns `true` once the invocation can no longer make progress.
    pub fn is_terminal(&self) -> bool {
        matches!(self, InvocationStatus::Completed | InvocationStatus::Failed)
    }

    /// Parses the stable lowercase name back into a status.
    pub fn parse(text: &str) -> Option<InvocationStatus> {
        match text {
            "queued" => Some(InvocationStatus::Queued),
            "running" => Some(InvocationStatus::Running),
            "completed" => Some(InvocationStatus::Completed),
            "failed" => Some(InvocationStatus::Failed),
            _ => None,
        }
    }
}

impl std::fmt::Display for InvocationStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A point-in-time, non-consuming view of an in-flight or retained
/// invocation, as returned by [`Dispatcher::poll`].
#[derive(Debug, Clone)]
pub struct InvocationSnapshot {
    /// The invocation id.
    pub id: InvocationId,
    /// The composition being executed.
    pub composition: String,
    /// Lifecycle status at the time of the poll.
    pub status: InvocationStatus,
    /// The result, present once `status` is terminal (unless the result was
    /// already consumed through a handle).
    pub outcome: Option<DandelionResult<InvocationOutcome>>,
}

/// Counters and latency shared between the dispatcher's driver thread and
/// whoever owns the dispatcher (the worker node surfaces them as
/// [`crate::worker::WorkerStats`]). Only *top-level* invocations are
/// counted; nested child invocations fold into their parent's report.
#[derive(Debug)]
pub struct DispatchMetrics {
    /// Completed invocations.
    pub invocations: AtomicU64,
    /// Failed invocations.
    pub failures: AtomicU64,
    /// Compute tasks executed by completed invocations.
    pub compute_tasks: AtomicU64,
    /// Communication tasks executed by completed invocations.
    pub communication_tasks: AtomicU64,
    /// Invocations currently registered and not yet terminal.
    pub inflight: AtomicU64,
    /// Settled invocations whose result the in-flight table still holds for
    /// polling (submitted, neither consumed nor expired).
    pub retained_results: AtomicU64,
    /// End-to-end latency of completed invocations: fixed size however
    /// long the node serves, recorded without a lock.
    pub latency: LatencyHistogram,
}

impl Default for DispatchMetrics {
    fn default() -> Self {
        Self {
            invocations: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            compute_tasks: AtomicU64::new(0),
            communication_tasks: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            retained_results: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }
}

/// A one-shot callback fired when an invocation settles. It receives the
/// outcome itself, not a copy: the result is consumed and the table entry
/// released, as by [`InvocationHandle::wait`]. Registered through
/// [`InvocationHandle::on_settle`]; invoked on the dispatcher driver thread
/// (or the registering thread when the invocation already settled), never
/// while an entry lock is held — so the callback may use the table freely.
pub type SettleCallback = Box<dyn FnOnce(DandelionResult<InvocationOutcome>) + Send>;

/// Links a child invocation to the parent instance awaiting it.
#[derive(Debug, Clone)]
struct ParentLink {
    invocation: InvocationId,
    node: usize,
    instance: usize,
}

/// The mutable half of an in-flight table entry.
struct EntryInner {
    status: InvocationStatus,
    /// Dataflow state; dropped once the invocation settles.
    dataflow: Option<InvocationState>,
    report: InvocationReport,
    /// Engine tasks plus child invocations currently outstanding.
    outstanding: usize,
    /// The settled result of an invocation nobody was waiting for through a
    /// callback or a parent; `take`n by the first consumer.
    outcome: Option<DandelionResult<InvocationOutcome>>,
    /// Handed the outcome when the invocation settles.
    notify: Option<SettleCallback>,
    parent: Option<ParentLink>,
    started: Instant,
    /// When the invocation last made progress (registered, or an instance
    /// completed); the stall reaper fails invocations whose progress is
    /// older than `function_timeout + engine_stall_grace`.
    last_progress: Instant,
}

/// One invocation registered in the in-flight table.
struct InvocationEntry {
    composition: String,
    inner: StdMutex<EntryInner>,
    settled: Condvar,
    /// Set while the table holds this entry's settled result for polling;
    /// owned by [`InFlightTable`], which counts the entries that have it set.
    retained: AtomicBool,
}

impl InvocationEntry {
    fn new(
        composition: String,
        state: InvocationState,
        parent: Option<ParentLink>,
        now: Instant,
    ) -> Self {
        Self {
            composition,
            inner: StdMutex::new(EntryInner {
                status: InvocationStatus::Queued,
                dataflow: Some(state),
                report: InvocationReport::default(),
                outstanding: 0,
                outcome: None,
                notify: None,
                parent,
                started: now,
                last_progress: now,
            }),
            settled: Condvar::new(),
            retained: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, EntryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The shared table of every invocation the dispatcher knows about: queued,
/// running, and — for invocations that were submitted to be polled —
/// recently finished, retained for result polling up to the configured
/// retention, after which polling reports not-found. An invocation whose
/// outcome goes to a settle callback (every sync `/v1/invoke` of the
/// network server) or to a parent invocation is never retained: its entry
/// leaves the table the moment it settles.
///
/// The table is split into [`IN_FLIGHT_SHARDS`] shards keyed by invocation
/// id, so concurrent submitters, pollers and the driver thread only contend
/// when they touch the same shard. The retention queue is a separate small
/// mutex taken once per settled invocation.
///
/// Zero-copy trade-off: retained outputs are `SharedBytes` views, so a
/// small output sliced from a large producer buffer (e.g. an item of a big
/// HTTP request body) keeps that whole buffer alive until the entry is
/// consumed or expires. That is the price of delivering results without
/// copying; deployments retaining many results of payload-heavy
/// compositions should size `completed_retention` accordingly.
struct InFlightTable {
    shards: Vec<StdMutex<HashMap<u64, Arc<InvocationEntry>>>>,
    finished: StdMutex<VecDeque<u64>>,
    retention: usize,
    /// `retained_results` counts the entries retained here.
    metrics: Arc<DispatchMetrics>,
}

impl InFlightTable {
    fn new(retention: usize, metrics: Arc<DispatchMetrics>) -> Self {
        Self {
            shards: (0..in_flight_shard_count())
                .map(|_| StdMutex::new(HashMap::new()))
                .collect(),
            finished: StdMutex::new(VecDeque::new()),
            retention: retention.max(1),
            metrics,
        }
    }

    fn shard(&self, id: u64) -> MutexGuard<'_, HashMap<u64, Arc<InvocationEntry>>> {
        self.shards[(id % self.shards.len() as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn insert(&self, id: InvocationId, entry: Arc<InvocationEntry>) {
        self.shard(id.as_u64()).insert(id.as_u64(), entry);
    }

    fn entry(&self, id: InvocationId) -> Option<Arc<InvocationEntry>> {
        self.shard(id.as_u64()).get(&id.as_u64()).cloned()
    }

    /// Releases an entry: its result was consumed, handed over, or expired.
    fn remove(&self, id: InvocationId) {
        let removed = self.shard(id.as_u64()).remove(&id.as_u64());
        if removed.is_some_and(|entry| entry.retained.swap(false, Ordering::Relaxed)) {
            // Relaxed: a statistic, it publishes no other data.
            self.metrics
                .retained_results
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Retains a settled invocation's result for polling and expires the
    /// oldest retained results beyond the retention limit.
    fn retain_finished(&self, id: InvocationId, entry: &InvocationEntry) {
        entry.retained.store(true, Ordering::Relaxed);
        self.metrics
            .retained_results
            .fetch_add(1, Ordering::Relaxed);
        let expired: Vec<u64> = {
            let mut finished = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
            finished.push_back(id.as_u64());
            let excess = finished.len().saturating_sub(self.retention);
            finished.drain(..excess).collect()
        };
        for id in expired {
            self.remove(InvocationId::from_raw(id));
        }
    }

    fn all_entries(&self) -> Vec<(InvocationId, Arc<InvocationEntry>)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            all.extend(
                shard
                    .iter()
                    .map(|(id, entry)| (InvocationId::from_raw(*id), Arc::clone(entry))),
            );
        }
        all
    }
}

/// A handle to one submitted invocation.
///
/// The handle does not pin a thread: the invocation advances on the engine
/// and driver threads whether or not anyone is watching. Results are
/// consumed exactly once — the first successful [`try_result`] or [`wait`],
/// or the [`on_settle`] callback, takes the outcome and releases the table
/// entry. Until one of them does, the settled result stays in the table for
/// polling by id ([`Dispatcher::poll`]) up to the configured retention.
///
/// [`try_result`]: InvocationHandle::try_result
/// [`wait`]: InvocationHandle::wait
/// [`on_settle`]: InvocationHandle::on_settle
pub struct InvocationHandle {
    id: InvocationId,
    entry: Arc<InvocationEntry>,
    table: Arc<InFlightTable>,
}

impl InvocationHandle {
    /// The invocation's id, as reported by the v1 HTTP API.
    pub fn id(&self) -> InvocationId {
        self.id
    }

    /// The composition this invocation runs.
    pub fn composition(&self) -> &str {
        &self.entry.composition
    }

    /// The invocation's current lifecycle status.
    pub fn status(&self) -> InvocationStatus {
        self.entry.lock().status
    }

    /// Registers a one-shot callback fired when the invocation settles.
    /// The callback consumes the result as [`InvocationHandle::wait`] does:
    /// it receives the outcome by move and the table entry is released, so
    /// nothing is retained for an invocation nobody can poll. Registering
    /// after settlement takes the retained outcome the same way; if it was
    /// already taken the callback gets a dispatch error, like a second
    /// `wait`.
    ///
    /// This is the asynchronous completion hook of the serving layer: an
    /// event loop submits an invocation, parks the connection, and the
    /// callback posts the finished response back to the owning loop —
    /// no thread ever blocks in [`InvocationHandle::wait`]. The callback
    /// runs on the dispatcher driver thread (or immediately on the calling
    /// thread when the invocation has already settled) and is never invoked
    /// while the entry lock is held, so it may poll or consume the handle.
    /// Only one callback can be registered per invocation; a later
    /// registration replaces an unfired earlier one.
    pub fn on_settle<F>(&self, callback: F)
    where
        F: FnOnce(DandelionResult<InvocationOutcome>) + Send + 'static,
    {
        let mut callback: Option<SettleCallback> = Some(Box::new(callback));
        let immediate = {
            let mut inner = self.entry.lock();
            if inner.status.is_terminal() {
                Some(inner.outcome.take().unwrap_or_else(already_taken))
            } else {
                inner.notify = callback.take();
                None
            }
        };
        if let (Some(callback), Some(outcome)) = (callback, immediate) {
            self.table.remove(self.id);
            callback(outcome);
        }
    }

    /// Takes the result if the invocation has settled; `None` while it is
    /// still queued/running (or if the result was already consumed).
    pub fn try_result(&self) -> Option<DandelionResult<InvocationOutcome>> {
        let outcome = {
            let mut inner = self.entry.lock();
            if !inner.status.is_terminal() {
                return None;
            }
            inner.outcome.take()
        };
        if outcome.is_some() {
            self.table.remove(self.id);
        }
        outcome
    }

    /// Blocks until the invocation settles and takes the result, releasing
    /// the table entry.
    ///
    /// With a timeout, [`DandelionError::Timeout`] is returned if the
    /// invocation has not settled in time; the invocation itself keeps
    /// running and can still be waited on or polled afterwards.
    pub fn wait(&self, timeout: Option<Duration>) -> DandelionResult<InvocationOutcome> {
        let outcome = {
            let mut inner = self.wait_settled(timeout)?;
            inner.outcome.take()
        };
        self.table.remove(self.id);
        outcome.unwrap_or_else(already_taken)
    }

    /// Waits until the entry is terminal and returns the guard.
    fn wait_settled(
        &self,
        timeout: Option<Duration>,
    ) -> DandelionResult<MutexGuard<'_, EntryInner>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut inner = self.entry.lock();
        while !inner.status.is_terminal() {
            match deadline {
                None => {
                    inner = self
                        .entry
                        .settled
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(DandelionError::Timeout {
                            function: self.entry.composition.clone(),
                            limit_ms: timeout.unwrap_or_default().as_millis() as u64,
                        });
                    }
                    let (guard, _) = self
                        .entry
                        .settled
                        .wait_timeout(inner, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    inner = guard;
                }
            }
        }
        Ok(inner)
    }
}

/// What a consumer gets when an earlier one already took the result.
fn already_taken() -> DandelionResult<InvocationOutcome> {
    Err(DandelionError::Dispatch(
        "invocation result was already taken".to_string(),
    ))
}

impl std::fmt::Debug for InvocationHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvocationHandle")
            .field("id", &self.id)
            .field("composition", &self.entry.composition)
            .field("status", &self.status())
            .finish()
    }
}

/// Work the driver (or a submitting client thread) still has to apply.
///
/// Completions and child spawns are queued instead of applied recursively so
/// that only one entry lock is ever held at a time — a child that settles
/// instantly produces a `Complete` item for its parent rather than locking
/// the parent while the child is being advanced.
enum WorkItem {
    Complete {
        invocation: InvocationId,
        node: usize,
        instance: usize,
        outcome: DandelionResult<Vec<DataSet>>,
        context_high_water: usize,
        modeled_latency: Duration,
        /// Present when the completion is a child invocation folding its
        /// execution statistics into the parent.
        child_report: Option<InvocationReport>,
    },
    SpawnChild {
        parent: ParentLink,
        graph: Arc<CompositionGraph>,
        inputs: Vec<DataSet>,
    },
    /// A settle callback to fire now that the owning entry's lock has been
    /// released (firing under the lock would deadlock callbacks that touch
    /// the handle or the table).
    Notify {
        callback: SettleCallback,
        outcome: DandelionResult<InvocationOutcome>,
    },
}

impl WorkItem {
    fn from_task_result(result: TaskResult) -> WorkItem {
        WorkItem::Complete {
            invocation: result.invocation,
            node: result.node,
            instance: result.instance,
            outcome: result.outcome,
            context_high_water: result.context_high_water,
            modeled_latency: result.modeled_latency,
            child_report: None,
        }
    }
}

/// Seed of the cold-binary draw sequence.
const COLD_DRAW_SEED: u64 = 0xDA4D_E110;

/// Draws whether a compute task's binary must be loaded cold, with
/// probability `ratio`, from the process-wide sequence in `state`.
///
/// SplitMix64 is a Weyl counter plus an output mix, so concurrent submitters
/// advance the counter with one `fetch_add` and mix their own value: together
/// they draw exactly the sequence `SplitMix64::new(COLD_DRAW_SEED)` yields,
/// without a lock. A ratio of 0 or 1 has one outcome and draws nothing.
fn draw_cold_binary(state: &AtomicU64, ratio: f64) -> bool {
    if ratio <= 0.0 {
        return false;
    }
    if ratio >= 1.0 {
        return true;
    }
    // Relaxed: the counter publishes no other data.
    let before = state.fetch_add(SplitMix64::INCREMENT, Ordering::Relaxed);
    SplitMix64::new(before).bernoulli(ratio)
}

struct DispatcherCore {
    registry: Arc<Registry>,
    compute_queue: TaskQueue,
    communication_queue: TaskQueue,
    config: WorkerConfig,
    /// State of the cold-binary draw, see [`draw_cold_binary`].
    cold_draw_state: AtomicU64,
    table: Arc<InFlightTable>,
    results: Sender<Vec<TaskResult>>,
    metrics: Arc<DispatchMetrics>,
    shutting_down: AtomicBool,
}

/// Routes ready function instances to engine queues and collects results.
pub struct Dispatcher {
    core: Arc<DispatcherCore>,
    driver: Mutex<Option<JoinHandle<()>>>,
}

impl Dispatcher {
    /// Creates a dispatcher submitting to the given queues, with private
    /// metrics.
    pub fn new(
        registry: Arc<Registry>,
        compute_queue: TaskQueue,
        communication_queue: TaskQueue,
        config: WorkerConfig,
    ) -> Self {
        Self::with_metrics(
            registry,
            compute_queue,
            communication_queue,
            config,
            Arc::new(DispatchMetrics::default()),
            None,
        )
    }

    /// Creates a dispatcher that reports into the given shared metrics and,
    /// given `control`, steps it every controller interval.
    pub(crate) fn with_metrics(
        registry: Arc<Registry>,
        compute_queue: TaskQueue,
        communication_queue: TaskQueue,
        config: WorkerConfig,
        metrics: Arc<DispatchMetrics>,
        control: Option<PoolControl>,
    ) -> Self {
        let (results_tx, results_rx) = unbounded::<Vec<TaskResult>>();
        let core = Arc::new(DispatcherCore {
            registry,
            compute_queue,
            communication_queue,
            table: Arc::new(InFlightTable::new(
                config.completed_retention,
                Arc::clone(&metrics),
            )),
            config,
            cold_draw_state: AtomicU64::new(COLD_DRAW_SEED),
            results: results_tx,
            metrics,
            shutting_down: AtomicBool::new(false),
        });
        let driver_core = Arc::clone(&core);
        let driver = std::thread::Builder::new()
            .name("dandelion-dispatcher".to_string())
            .spawn(move || driver_loop(driver_core, results_rx, control))
            .expect("spawning the dispatcher driver thread");
        Self {
            core,
            driver: Mutex::new(Some(driver)),
        }
    }

    /// The metrics this dispatcher reports into.
    pub fn metrics(&self) -> Arc<DispatchMetrics> {
        Arc::clone(&self.core.metrics)
    }

    /// Registers an invocation of `graph` and returns a handle immediately.
    ///
    /// Errors are returned synchronously only for problems detectable at
    /// submission time (invalid inputs, engine queues full, dispatcher shut
    /// down); execution failures surface through the handle.
    pub fn submit(
        &self,
        graph: Arc<CompositionGraph>,
        inputs: Vec<DataSet>,
    ) -> DandelionResult<InvocationHandle> {
        if self.core.shutting_down.load(Ordering::SeqCst) {
            return Err(DandelionError::Cancelled);
        }
        let now = Instant::now();
        match self.core.register(graph, inputs, None, now) {
            Ok((id, entry, work)) => {
                self.core.process(work, now);
                // Shutdown may have raced with registration: the driver
                // could have run its final cancellation sweep before this
                // entry existed, in which case nothing would ever settle
                // it. Re-check and cancel the fresh entry ourselves; its id
                // is never handed out, so nobody could consume the result.
                if self.core.shutting_down.load(Ordering::SeqCst) {
                    let mut work = Vec::new();
                    let cancelled = Err(DandelionError::Cancelled);
                    self.core
                        .settle(id, &entry, &mut entry.lock(), cancelled, &mut work, now);
                    self.core.process(work, now);
                    self.core.table.remove(id);
                    return Err(DandelionError::Cancelled);
                }
                // Engine-queue back-pressure during the initial submission
                // is a synchronous, retryable condition, not an executed
                // invocation: surface it here so clients see 429 instead of
                // an accepted-then-failed handle. (The failure was already
                // counted when the entry settled.)
                {
                    let mut inner = entry.lock();
                    if matches!(
                        inner.outcome,
                        Some(Err(DandelionError::ResourceExhausted(_)))
                    ) {
                        let error = match inner.outcome.take() {
                            Some(Err(error)) => error,
                            _ => unreachable!("matched above"),
                        };
                        drop(inner);
                        self.core.table.remove(id);
                        return Err(error);
                    }
                }
                Ok(InvocationHandle {
                    id,
                    entry,
                    table: Arc::clone(&self.core.table),
                })
            }
            Err(error) => {
                self.core.metrics.failures.fetch_add(1, Ordering::Relaxed);
                Err(error)
            }
        }
    }

    /// Invokes a composition graph with the given inputs and waits for the
    /// external outputs; equivalent to `submit(graph, inputs)?.wait(None)`.
    pub fn invoke(
        &self,
        graph: Arc<CompositionGraph>,
        inputs: Vec<DataSet>,
    ) -> DandelionResult<InvocationOutcome> {
        self.submit(graph, inputs)?.wait(None)
    }

    /// A non-consuming view of an invocation in the in-flight table.
    ///
    /// Returns `None` for ids the table has never seen or whose retained
    /// result has expired.
    pub fn poll(&self, id: InvocationId) -> Option<InvocationSnapshot> {
        let entry = self.core.table.entry(id)?;
        let inner = entry.lock();
        Some(InvocationSnapshot {
            id,
            composition: entry.composition.clone(),
            status: inner.status,
            outcome: inner.outcome.clone(),
        })
    }

    /// Stops the driver thread; unsettled invocations fail with
    /// [`DandelionError::Cancelled`].
    pub fn shutdown(&self) {
        self.core.shutting_down.store(true, Ordering::SeqCst);
        // Wake the driver promptly with a sentinel result for an id the
        // table has never issued.
        let _ = self.core.results.send(vec![TaskResult {
            invocation: InvocationId::from_raw(0),
            node: 0,
            instance: 0,
            outcome: Err(DandelionError::Cancelled),
            context_high_water: 0,
            modeled_latency: Duration::ZERO,
        }]);
        if let Some(driver) = self.driver.lock().take() {
            let _ = driver.join();
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn driver_loop(
    core: Arc<DispatcherCore>,
    results: Receiver<Vec<TaskResult>>,
    control: Option<PoolControl>,
) {
    let mut now = Instant::now();
    let (mut reap, mut release) = (now + REAP_PERIOD, now + POOL_RELEASE_PERIOD);
    let mut control = control.map(|control| (now + control.step.interval(), control));
    while !core.shutting_down.load(Ordering::SeqCst) {
        let next = reap.min(release);
        let next = control
            .as_ref()
            .map_or(next, |(next_step, _)| next.min(*next_step));
        let received = results.recv_timeout(next.saturating_duration_since(now));
        now = Instant::now();
        match received {
            Ok(first) => {
                // Engines already coalesce same-invocation results into one
                // message; drain whatever further messages have arrived
                // since the last wakeup (up to the batch cap) and apply
                // everything in one pass, instead of one channel round-trip
                // and one table lookup cycle per reply.
                let mut batch: Vec<WorkItem> = Vec::with_capacity(first.len());
                batch.extend(first.into_iter().map(WorkItem::from_task_result));
                while batch.len() < DRIVER_MAX_BATCH {
                    match results.try_recv() {
                        Ok(more) => batch.extend(more.into_iter().map(WorkItem::from_task_result)),
                        Err(_) => break,
                    }
                }
                core.process(batch, now);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if reap <= now {
            core.reap_stalled(now);
            reap = now + REAP_PERIOD;
        }
        // Committed memory follows the load: what the pool retains and
        // nothing has needed since the look before is freed.
        if release <= now {
            BufferPool::global().release_unused();
            release = now + POOL_RELEASE_PERIOD;
        }
        if let Some((next_step, control)) = &mut control {
            if *next_step <= now {
                control.run();
                *next_step = now + control.step.interval();
            }
        }
    }
    core.cancel_unsettled(now);
}

impl DispatcherCore {
    /// Creates and kicks off a (top-level or child) invocation, started at
    /// `now`. Returns the entry plus deferred work items; the caller must
    /// [`process`] them.
    ///
    /// [`process`]: DispatcherCore::process
    fn register(
        &self,
        graph: Arc<CompositionGraph>,
        inputs: Vec<DataSet>,
        parent: Option<ParentLink>,
        now: Instant,
    ) -> DandelionResult<(InvocationId, Arc<InvocationEntry>, Vec<WorkItem>)> {
        let id = InvocationId::next();
        let state = InvocationState::new(id, Arc::clone(&graph), inputs)?;
        let top_level = parent.is_none();
        let entry = Arc::new(InvocationEntry::new(graph.name.clone(), state, parent, now));
        if top_level {
            self.metrics.inflight.fetch_add(1, Ordering::SeqCst);
        }
        self.table.insert(id, Arc::clone(&entry));
        let mut inner = entry.lock();
        inner.status = InvocationStatus::Running;
        let work = self.advance(id, &entry, &mut inner, None, now);
        drop(inner);
        Ok((id, entry, work))
    }

    /// Applies queued work items, as of `now`, until none remain. Holds at
    /// most one entry lock at a time.
    fn process(&self, items: Vec<WorkItem>, now: Instant) {
        let mut queue: VecDeque<WorkItem> = items.into();
        while let Some(item) = queue.pop_front() {
            let more = match item {
                WorkItem::Complete {
                    invocation,
                    node,
                    instance,
                    outcome,
                    context_high_water,
                    modeled_latency,
                    child_report,
                } => {
                    // Unknown ids are results for abandoned or already
                    // settled invocations; they are dropped.
                    let Some(entry) = self.table.entry(invocation) else {
                        continue;
                    };
                    let mut inner = entry.lock();
                    self.advance(
                        invocation,
                        &entry,
                        &mut inner,
                        Some(Completion {
                            node,
                            instance,
                            outcome,
                            context_high_water,
                            modeled_latency,
                            child_report,
                        }),
                        now,
                    )
                }
                WorkItem::Notify { callback, outcome } => {
                    fail_point!("dispatcher/notify");
                    callback(outcome);
                    continue;
                }
                WorkItem::SpawnChild {
                    parent,
                    graph,
                    inputs,
                } => match self.register(graph, inputs, Some(parent.clone()), now) {
                    Ok((_, _, work)) => work,
                    Err(error) => vec![WorkItem::Complete {
                        invocation: parent.invocation,
                        node: parent.node,
                        instance: parent.instance,
                        outcome: Err(error),
                        context_high_water: 0,
                        modeled_latency: Duration::ZERO,
                        child_report: None,
                    }],
                },
            };
            queue.extend(more);
        }
    }

    /// Advances one invocation: applies an instance completion (if any),
    /// submits newly ready instances, and settles the invocation when its
    /// dataflow has no work left. Returns deferred work for other entries.
    fn advance(
        &self,
        id: InvocationId,
        entry: &Arc<InvocationEntry>,
        inner: &mut EntryInner,
        completion: Option<Completion>,
        now: Instant,
    ) -> Vec<WorkItem> {
        let mut out = Vec::new();
        if inner.status.is_terminal() {
            return out;
        }
        let mut check_ready = completion.is_none();
        if let Some(completion) = completion {
            let applied = inner
                .dataflow
                .as_mut()
                .expect("running invocations keep their dataflow state")
                .complete_instance(completion.node, completion.instance, completion.outcome);
            if applied == Ok(InstanceCompletion::Duplicate) {
                // A duplicate result for an instance that already completed
                // (an engine died after replying and its retry ran anyway):
                // counting it twice would corrupt `outstanding`.
                return out;
            }
            inner.last_progress = now;
            inner.outstanding = inner.outstanding.saturating_sub(1);
            inner.report.peak_context_bytes += completion.context_high_water;
            inner.report.modeled_busy_time += completion.modeled_latency;
            if let Some(child_report) = &completion.child_report {
                inner.report.merge(child_report);
            }
            match applied {
                Ok(applied) => check_ready = applied == InstanceCompletion::NodeFinished,
                Err(error) => {
                    self.settle(id, entry, inner, Err(error), &mut out, now);
                    return out;
                }
            }
        }
        if check_ready {
            // The ready instances borrow the graph through `dataflow`, so the
            // other fields they are submitted against are borrowed beside it.
            let EntryInner {
                dataflow,
                report,
                outstanding,
                ..
            } = &mut *inner;
            let failure = match dataflow
                .as_mut()
                .expect("running invocations keep their dataflow state")
                .ready_instances()
            {
                Ok(ready) => ready.into_iter().find_map(|spec| {
                    self.submit_instance(id, spec, report, outstanding, &mut out)
                        .err()
                }),
                Err(error) => Some(error),
            };
            if let Some(error) = failure {
                self.settle(id, entry, inner, Err(error), &mut out, now);
                return out;
            }
        }
        let complete = inner.outstanding == 0
            && inner
                .dataflow
                .as_ref()
                .map(InvocationState::is_complete)
                .unwrap_or(false);
        if complete {
            let outcome = inner
                .dataflow
                .as_ref()
                .expect("checked above")
                .external_outputs();
            self.settle(id, entry, inner, outcome, &mut out, now);
        }
        out
    }

    /// Routes one ready instance: compute and communication instances go to
    /// the engine queues, nested compositions become child invocations.
    fn submit_instance(
        &self,
        id: InvocationId,
        spec: InstanceSpec<'_>,
        report: &mut InvocationReport,
        outstanding: &mut usize,
        out: &mut Vec<WorkItem>,
    ) -> DandelionResult<()> {
        let vertex =
            self.registry
                .resolve(spec.vertex)
                .ok_or_else(|| DandelionError::NotFound {
                    kind: "vertex",
                    name: spec.vertex.to_string(),
                })?;
        match vertex {
            Vertex::Compute(artifact) => {
                report.compute_tasks += 1;
                let cold_binary =
                    draw_cold_binary(&self.cold_draw_state, self.config.binary_cold_load_ratio);
                let task = Task {
                    invocation: id,
                    node: spec.node,
                    instance: spec.instance,
                    payload: TaskPayload::Compute {
                        artifact,
                        // The one place a task's inputs are built; from here
                        // on they are shared, never cloned.
                        inputs: spec.inputs.into(),
                        cold_binary,
                        timeout: self.config.function_timeout,
                    },
                    reply: self.results.clone(),
                };
                self.compute_queue.try_push(task).map_err(|_| {
                    DandelionError::ResourceExhausted("compute queue full".to_string())
                })?;
                *outstanding += 1;
            }
            Vertex::Communication(_) => {
                report.communication_tasks += 1;
                let response_set = spec
                    .output_sets
                    .first()
                    .map_or_else(|| "Response".to_string(), |output| output.set.clone());
                let task = Task {
                    invocation: id,
                    node: spec.node,
                    instance: spec.instance,
                    payload: TaskPayload::Http {
                        inputs: spec.inputs.into(),
                        response_set,
                    },
                    reply: self.results.clone(),
                };
                self.communication_queue.try_push(task).map_err(|_| {
                    DandelionError::ResourceExhausted("communication queue full".to_string())
                })?;
                *outstanding += 1;
            }
            Vertex::Composition(nested) => {
                // Nested composition: a child invocation in the same table,
                // completing the parent instance when it settles.
                *outstanding += 1;
                out.push(WorkItem::SpawnChild {
                    parent: ParentLink {
                        invocation: id,
                        node: spec.node,
                        instance: spec.instance,
                    },
                    graph: nested,
                    inputs: spec.inputs,
                });
            }
        }
        Ok(())
    }

    /// Settles an invocation: updates metrics for top-level invocations,
    /// wakes waiters, and hands the outcome to whoever it belongs to — the
    /// parent instance of a child invocation, the registered settle
    /// callback, or, when nobody has asked for it yet, the table, which
    /// retains it for polling. Only the last keeps the entry in the table.
    /// A completed invocation's latency runs from its start to `now`.
    fn settle(
        &self,
        id: InvocationId,
        entry: &Arc<InvocationEntry>,
        inner: &mut EntryInner,
        outcome: DandelionResult<Vec<DataSet>>,
        out: &mut Vec<WorkItem>,
        now: Instant,
    ) {
        // Exactly-once: every settle path (dataflow completion, dataflow
        // error, stall reaper) funnels through here, and racing paths must
        // not double-count metrics or fire the notify callback twice.
        if inner.status.is_terminal() {
            return;
        }
        fail_point!("dispatcher/settle");
        inner.status = if outcome.is_ok() {
            InvocationStatus::Completed
        } else {
            InvocationStatus::Failed
        };
        inner.dataflow = None;
        entry.settled.notify_all();
        if let Some(parent) = inner.parent.take() {
            // A child's outputs flow straight back into the parent's
            // dataflow (uncompacted: keeping the producer's buffer shared is
            // the point) and its statistics fold into the parent's report.
            out.push(WorkItem::Complete {
                invocation: parent.invocation,
                node: parent.node,
                instance: parent.instance,
                child_report: outcome.is_ok().then(|| inner.report.clone()),
                outcome,
                context_high_water: 0,
                modeled_latency: Duration::ZERO,
            });
            self.table.remove(id);
            return;
        }
        let mut result = outcome.map(|outputs| InvocationOutcome {
            outputs,
            report: inner.report.clone(),
        });
        match &result {
            Ok(outcome) => {
                self.metrics.invocations.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .compute_tasks
                    .fetch_add(outcome.report.compute_tasks as u64, Ordering::Relaxed);
                self.metrics
                    .communication_tasks
                    .fetch_add(outcome.report.communication_tasks as u64, Ordering::Relaxed);
                self.metrics.latency.record(now - inner.started);
            }
            Err(_) => {
                self.metrics.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.metrics.inflight.fetch_sub(1, Ordering::SeqCst);
        if let Some(callback) = inner.notify.take() {
            // Deferred as a work item so the callback runs after this
            // entry's lock is released.
            out.push(WorkItem::Notify {
                callback,
                outcome: result,
            });
            self.table.remove(id);
        } else {
            // Retained results live in the table until consumed or expired;
            // compact views that would pin a much larger parent buffer for
            // that whole time.
            if let Ok(outcome) = &mut result {
                compact_retained_outputs(&mut outcome.outputs);
            }
            inner.outcome = Some(result);
            self.table.retain_finished(id, entry);
        }
    }

    /// Fails every unsettled invocation with [`DandelionError::Cancelled`]
    /// as any other failure settles; called when the driver stops.
    fn cancel_unsettled(&self, now: Instant) {
        let mut work = Vec::new();
        for (id, entry) in self.table.all_entries() {
            let cancelled = Err(DandelionError::Cancelled);
            self.settle(id, &entry, &mut entry.lock(), cancelled, &mut work, now);
        }
        self.process(work, now);
    }

    /// Fails invocations that, at `now`, have gone longer than
    /// `function_timeout + engine_stall_grace` without any instance
    /// completing. Engines time functions out themselves, so this only
    /// fires if an engine reply is lost (e.g. an engine thread died) or a
    /// function never returns; without it, such an invocation would leave
    /// `wait(None)` callers blocked forever.
    fn reap_stalled(&self, now: Instant) {
        let deadline = self.config.function_timeout + self.config.engine_stall_grace;
        let mut work = Vec::new();
        for (id, entry) in self.table.all_entries() {
            let mut inner = entry.lock();
            if inner.status.is_terminal() || now - inner.last_progress <= deadline {
                continue;
            }
            let stalled = Err(DandelionError::Dispatch(
                "timed out waiting for engine results".to_string(),
            ));
            self.settle(id, &entry, &mut inner, stalled, &mut work, now);
        }
        self.process(work, now);
    }
}

/// Copy-compacts retained result views whose window is less than
/// `1/RETAINED_PIN_FACTOR` of their parent buffer (ROADMAP follow-up e): a
/// 40-byte result sliced out of a multi-MiB receive buffer must not keep
/// that buffer alive until retention expiry. Views at or above the
/// threshold — including every whole-buffer view, for which `compact` is
/// free — keep their zero-copy sharing.
fn compact_retained_outputs(sets: &mut [DataSet]) {
    for set in sets {
        for item in &mut set.items {
            if item.data.len() * RETAINED_PIN_FACTOR < item.data.backing_len() {
                item.data = item.data.compact();
            }
        }
    }
}

/// A completed instance (engine result or child invocation) to fold into an
/// invocation's dataflow state.
struct Completion {
    node: usize,
    instance: usize,
    outcome: DandelionResult<Vec<DataSet>>,
    context_high_water: usize,
    modeled_latency: Duration,
    child_report: Option<InvocationReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineExecutor, EnginePool};
    use dandelion_common::config::{EngineKind, IsolationKind};
    use dandelion_dsl::{CompositionBuilder, Distribution};
    use dandelion_http::validate::ValidationPolicy;
    use dandelion_http::{HttpRequest, HttpResponse};
    use dandelion_isolation::{create_backend, FunctionArtifact, FunctionCtx, HardwarePlatform};
    use dandelion_services::object_store::ObjectStore;
    use dandelion_services::ServiceRegistry;

    struct Harness {
        dispatcher: Dispatcher,
        _compute_pool: EnginePool,
        _communication_pool: EnginePool,
        registry: Arc<Registry>,
    }

    fn retained_results(harness: &Harness) -> u64 {
        harness
            .dispatcher
            .metrics()
            .retained_results
            .load(Ordering::Relaxed)
    }

    fn harness() -> Harness {
        harness_with_config(WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
            ..WorkerConfig::default()
        })
    }

    fn harness_with_config(config: WorkerConfig) -> Harness {
        let registry = Arc::new(Registry::new());
        let compute_queue = TaskQueue::new(EngineKind::Compute, 1024);
        let communication_queue = TaskQueue::new(EngineKind::Communication, 1024);

        let backend = create_backend(IsolationKind::Native, HardwarePlatform::Morello);
        let compute_pool =
            EnginePool::new(EngineExecutor::Compute { backend }, compute_queue.clone());
        compute_pool.resize(2);

        let store = Arc::new(ObjectStore::new());
        store.put_object("data", "a.txt", b"alpha".to_vec());
        store.put_object("data", "b.txt", b"beta".to_vec());
        let mut services = ServiceRegistry::new();
        services.register("s3.internal", store);
        let communication_pool = EnginePool::new(
            EngineExecutor::Communication {
                registry: Arc::new(services),
                policy: Arc::new(ValidationPolicy::default()),
            },
            communication_queue.clone(),
        );
        communication_pool.resize(1);

        let dispatcher = Dispatcher::new(
            Arc::clone(&registry),
            compute_queue,
            communication_queue,
            config,
        );
        Harness {
            dispatcher,
            _compute_pool: compute_pool,
            _communication_pool: communication_pool,
            registry,
        }
    }

    /// A composition that lists two objects, fetches both over HTTP in
    /// parallel, and concatenates the responses.
    fn register_fetch_concat(registry: &Registry) -> Arc<CompositionGraph> {
        registry
            .register_function(FunctionArtifact::new(
                "MakeRequests",
                &["Requests"],
                |ctx: &mut FunctionCtx| {
                    let keys = ctx
                        .single_input("Keys")?
                        .as_str()
                        .unwrap_or_default()
                        .to_string();
                    for (index, key) in keys.lines().enumerate() {
                        let request =
                            HttpRequest::get(format!("http://s3.internal/data/{key}")).to_bytes();
                        ctx.push_output_bytes("Requests", &format!("r{index}"), request)?;
                    }
                    Ok(())
                },
            ))
            .unwrap();
        registry
            .register_function(FunctionArtifact::new(
                "Concat",
                &["Joined"],
                |ctx: &mut FunctionCtx| {
                    let responses = ctx
                        .input_set("Responses")
                        .ok_or("missing Responses")?
                        .clone();
                    let mut joined = String::new();
                    for item in &responses.items {
                        let response = dandelion_http::parse_response(&item.data)
                            .map_err(|err| format!("bad response: {err}"))?;
                        joined.push_str(&response.body_text());
                        joined.push('|');
                    }
                    ctx.push_output_bytes("Joined", "joined.txt", joined.into_bytes())
                },
            ))
            .unwrap();
        let graph = CompositionBuilder::new("FetchConcat")
            .input("Keys")
            .output("Result")
            .node("MakeRequests", |node| {
                node.bind("Keys", Distribution::All, "Keys")
                    .publish("FetchRequests", "Requests")
            })
            .node("HTTP", |node| {
                node.bind("Request", Distribution::Each, "FetchRequests")
                    .publish("FetchResponses", "Response")
            })
            .node("Concat", |node| {
                node.bind("Responses", Distribution::All, "FetchResponses")
                    .publish("Result", "Joined")
            })
            .build()
            .unwrap();
        registry.register_composition(graph.clone()).unwrap();
        Arc::new(graph)
    }

    fn register_copy_identity(registry: &Registry) -> Arc<CompositionGraph> {
        registry
            .register_function(FunctionArtifact::new(
                "Copy",
                &["Copied"],
                |ctx: &mut FunctionCtx| {
                    let data = ctx.single_input("Data")?.data.as_slice().to_vec();
                    ctx.push_output_bytes("Copied", "copy", data)
                },
            ))
            .unwrap();
        let graph = CompositionBuilder::new("Identity")
            .input("In")
            .output("Out")
            .node("Copy", |node| {
                node.bind("Data", Distribution::All, "In")
                    .publish("Out", "Copied")
            })
            .build()
            .unwrap();
        registry.register_composition(graph.clone()).unwrap();
        Arc::new(graph)
    }

    #[test]
    fn end_to_end_compute_and_http_pipeline() {
        let harness = harness();
        let graph = register_fetch_concat(&harness.registry);
        let outcome = harness
            .dispatcher
            .invoke(
                graph,
                vec![DataSet::single("Keys", b"a.txt\nb.txt".to_vec())],
            )
            .unwrap();
        assert_eq!(outcome.outputs.len(), 1);
        assert_eq!(outcome.outputs[0].name, "Result");
        let text = String::from_utf8(outcome.outputs[0].items[0].data.as_slice().to_vec()).unwrap();
        assert_eq!(text, "alpha|beta|");
        assert_eq!(outcome.report.compute_tasks, 2);
        assert_eq!(outcome.report.communication_tasks, 2);
        assert!(outcome.report.modeled_busy_time > Duration::ZERO);
    }

    #[test]
    fn nested_compositions_execute_as_child_invocations() {
        let harness = harness();
        let _inner = register_fetch_concat(&harness.registry);
        let outer = CompositionBuilder::new("Outer")
            .input("Keys")
            .output("Final")
            .node("FetchConcat", |node| {
                node.bind("Keys", Distribution::All, "Keys")
                    .publish("Final", "Result")
            })
            .build()
            .unwrap();
        harness
            .registry
            .register_composition(outer.clone())
            .unwrap();
        let outcome = harness
            .dispatcher
            .invoke(
                Arc::new(outer),
                vec![DataSet::single("Keys", b"a.txt".to_vec())],
            )
            .unwrap();
        let text = String::from_utf8(outcome.outputs[0].items[0].data.as_slice().to_vec()).unwrap();
        assert_eq!(text, "alpha|");
        // The child's tasks fold into the parent's report.
        assert_eq!(outcome.report.compute_tasks, 2);
        assert_eq!(outcome.report.communication_tasks, 1);
        // The child's result went to the parent and the parent's to
        // `invoke`: neither is left in the table.
        assert!(harness.dispatcher.core.table.all_entries().is_empty());
        assert_eq!(retained_results(&harness), 0);
    }

    #[test]
    fn function_faults_fail_the_invocation() {
        let harness = harness();
        harness
            .registry
            .register_function(FunctionArtifact::new(
                "Broken",
                &["Out"],
                |_ctx: &mut FunctionCtx| Err("intentional failure".into()),
            ))
            .unwrap();
        let graph = CompositionBuilder::new("Fails")
            .input("In")
            .output("Out")
            .node("Broken", |node| {
                node.bind("x", Distribution::All, "In")
                    .publish("Out", "Out")
            })
            .build()
            .unwrap();
        harness
            .registry
            .register_composition(graph.clone())
            .unwrap();
        let err = harness
            .dispatcher
            .invoke(Arc::new(graph), vec![DataSet::single("In", vec![1])])
            .unwrap_err();
        assert!(matches!(err, DandelionError::FunctionFault { .. }));
    }

    #[test]
    fn http_failures_flow_downstream_as_error_responses() {
        let harness = harness();
        harness
            .registry
            .register_function(FunctionArtifact::new(
                "BadRequests",
                &["Requests"],
                |ctx: &mut FunctionCtx| {
                    let request = HttpRequest::get("http://unknown-host.internal/x").to_bytes();
                    ctx.push_output_bytes("Requests", "r0", request)
                },
            ))
            .unwrap();
        harness
            .registry
            .register_function(FunctionArtifact::new(
                "CheckStatus",
                &["Status"],
                |ctx: &mut FunctionCtx| {
                    let responses = ctx.input_set("Responses").ok_or("missing")?.clone();
                    let response: HttpResponse =
                        dandelion_http::parse_response(&responses.items[0].data)
                            .map_err(|err| format!("{err}"))?;
                    ctx.push_output_bytes(
                        "Status",
                        "code",
                        response.status.0.to_string().into_bytes(),
                    )
                },
            ))
            .unwrap();
        let graph = CompositionBuilder::new("FailureFlow")
            .input("Trigger")
            .output("Status")
            .node("BadRequests", |node| {
                node.bind("t", Distribution::All, "Trigger")
                    .publish("Reqs", "Requests")
            })
            .node("HTTP", |node| {
                node.bind("Request", Distribution::Each, "Reqs")
                    .publish("Resps", "Response")
            })
            .node("CheckStatus", |node| {
                node.bind("Responses", Distribution::All, "Resps")
                    .publish("Status", "Status")
            })
            .build()
            .unwrap();
        harness
            .registry
            .register_composition(graph.clone())
            .unwrap();
        let outcome = harness
            .dispatcher
            .invoke(Arc::new(graph), vec![DataSet::single("Trigger", vec![1])])
            .unwrap();
        assert_eq!(outcome.outputs[0].items[0].as_str(), Some("502"));
    }

    #[test]
    fn unknown_vertices_are_reported() {
        let harness = harness();
        // Build a graph without registering the function it references, and
        // invoke it directly (bypassing registration-time validation).
        let graph = CompositionBuilder::new("Dangling")
            .input("In")
            .output("Out")
            .node("DoesNotExist", |node| {
                node.bind("x", Distribution::All, "In").publish("Out", "o")
            })
            .build()
            .unwrap();
        let err = harness
            .dispatcher
            .invoke(Arc::new(graph), vec![DataSet::single("In", vec![1])])
            .unwrap_err();
        assert!(matches!(err, DandelionError::NotFound { .. }));
    }

    #[test]
    fn submit_returns_a_handle_that_settles() {
        let harness = harness();
        let graph = register_copy_identity(&harness.registry);
        let handle = harness
            .dispatcher
            .submit(graph, vec![DataSet::single("In", b"ping".to_vec())])
            .unwrap();
        assert!(handle.id().as_u64() > 0);
        assert_eq!(handle.composition(), "Identity");
        let outcome = handle.wait(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(outcome.outputs[0].items[0].as_str(), Some("ping"));
        assert_eq!(handle.status(), InvocationStatus::Completed);
        // The result was consumed by wait(); the entry is released.
        assert!(handle.try_result().is_none());
        assert!(harness.dispatcher.poll(handle.id()).is_none());
    }

    #[test]
    fn try_result_is_nonblocking_and_consumes_once() {
        let harness = harness();
        let graph = register_copy_identity(&harness.registry);
        let handle = harness
            .dispatcher
            .submit(graph, vec![DataSet::single("In", b"x".to_vec())])
            .unwrap();
        // Poll until settled without blocking.
        let deadline = Instant::now() + Duration::from_secs(10);
        let outcome = loop {
            if let Some(outcome) = handle.try_result() {
                break outcome;
            }
            assert!(Instant::now() < deadline, "invocation did not settle");
            std::thread::yield_now();
        };
        assert_eq!(outcome.unwrap().outputs[0].items[0].as_str(), Some("x"));
        assert!(handle.try_result().is_none());
    }

    #[test]
    fn poll_reports_status_without_consuming() {
        let harness = harness();
        let graph = register_copy_identity(&harness.registry);
        let handle = harness
            .dispatcher
            .submit(graph, vec![DataSet::single("In", b"peek".to_vec())])
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snapshot = harness
                .dispatcher
                .poll(handle.id())
                .expect("still retained");
            assert_eq!(snapshot.composition, "Identity");
            if snapshot.status.is_terminal() {
                let outcome = snapshot
                    .outcome
                    .expect("terminal snapshots carry the outcome");
                assert_eq!(outcome.unwrap().outputs[0].items[0].as_str(), Some("peek"));
                break;
            }
            assert!(Instant::now() < deadline, "invocation did not settle");
            std::thread::yield_now();
        }
        // Polling is non-consuming: the snapshot can be taken repeatedly.
        assert!(harness.dispatcher.poll(handle.id()).is_some());
    }

    #[test]
    fn polling_unknown_ids_returns_none() {
        let harness = harness();
        assert!(harness
            .dispatcher
            .poll(InvocationId::from_raw(u64::MAX))
            .is_none());
    }

    #[test]
    fn finished_invocations_expire_beyond_retention() {
        let harness = harness_with_config(WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
            completed_retention: 2,
            ..WorkerConfig::default()
        });
        let graph = register_copy_identity(&harness.registry);
        let handles: Vec<InvocationHandle> = (0..3)
            .map(|index| {
                let handle = harness
                    .dispatcher
                    .submit(
                        Arc::clone(&graph),
                        vec![DataSet::single("In", vec![index as u8])],
                    )
                    .unwrap();
                // Settle each one before the next so eviction order is
                // deterministic.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !handle.status().is_terminal() {
                    assert!(Instant::now() < deadline);
                    std::thread::yield_now();
                }
                handle
            })
            .collect();
        // Retention is 2: the oldest finished invocation has been expired.
        assert!(harness.dispatcher.poll(handles[0].id()).is_none());
        assert!(harness.dispatcher.poll(handles[1].id()).is_some());
        assert!(harness.dispatcher.poll(handles[2].id()).is_some());
        assert_eq!(retained_results(&harness), 2);
    }

    #[test]
    fn many_concurrent_submissions_settle_independently() {
        let harness = harness();
        let graph = register_copy_identity(&harness.registry);
        let handles: Vec<InvocationHandle> = (0..16)
            .map(|index| {
                harness
                    .dispatcher
                    .submit(
                        Arc::clone(&graph),
                        vec![DataSet::single("In", format!("m{index}").into_bytes())],
                    )
                    .unwrap()
            })
            .collect();
        for (index, handle) in handles.iter().enumerate() {
            let outcome = handle.wait(Some(Duration::from_secs(10))).unwrap();
            assert_eq!(
                outcome.outputs[0].items[0].as_str(),
                Some(format!("m{index}").as_str())
            );
        }
    }

    #[test]
    fn queue_back_pressure_is_a_synchronous_submit_error() {
        // Zero-capacity queues: every try_push is rejected, emulating a
        // fully backed-up worker.
        let registry = Arc::new(Registry::new());
        let dispatcher = Dispatcher::new(
            Arc::clone(&registry),
            TaskQueue::new(EngineKind::Compute, 0),
            TaskQueue::new(EngineKind::Communication, 0),
            WorkerConfig {
                total_cores: 4,
                initial_communication_cores: 1,
                ..WorkerConfig::default()
            },
        );
        let graph = register_copy_identity(&registry);
        let err = dispatcher
            .submit(graph, vec![DataSet::single("In", vec![1])])
            .unwrap_err();
        assert!(
            matches!(err, DandelionError::ResourceExhausted(_)),
            "expected back-pressure, got {err:?}"
        );
        assert!(err.is_retryable());
    }

    #[test]
    fn stalled_invocations_are_reaped_instead_of_hanging_waiters() {
        // No engines at all: the submitted task sits on the queue forever,
        // emulating a lost engine reply. The driver's stall reaper must
        // fail the invocation after function_timeout + engine_stall_grace.
        let registry = Arc::new(Registry::new());
        let compute_queue = TaskQueue::new(EngineKind::Compute, 1024);
        let communication_queue = TaskQueue::new(EngineKind::Communication, 1024);
        let dispatcher = Dispatcher::new(
            Arc::clone(&registry),
            compute_queue,
            communication_queue,
            WorkerConfig {
                total_cores: 4,
                initial_communication_cores: 1,
                function_timeout: Duration::from_millis(100),
                engine_stall_grace: Duration::from_millis(100),
                ..WorkerConfig::default()
            },
        );
        let graph = register_copy_identity(&registry);
        let handle = dispatcher
            .submit(graph, vec![DataSet::single("In", vec![1])])
            .unwrap();
        let err = handle.wait(Some(Duration::from_secs(10))).unwrap_err();
        assert!(
            matches!(&err, DandelionError::Dispatch(message) if message.contains("timed out")),
            "expected the stall reaper's dispatch timeout, got {err:?}"
        );
    }

    /// The reaper runs on schedule on a busy node too: a function parked on
    /// a channel this test holds stalls its invocation while another one
    /// completes every 20 ms on the second engine, and the stall is failed
    /// all the same. Its late return settles nothing twice.
    #[test]
    fn a_stalled_invocation_is_reaped_while_other_results_keep_arriving() {
        let harness = harness_with_config(WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
            function_timeout: Duration::from_millis(100),
            engine_stall_grace: Duration::from_millis(100),
            ..WorkerConfig::default()
        });
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let parked = Mutex::new(parked);
        harness
            .registry
            .register_function(FunctionArtifact::new(
                "Park",
                &["Out"],
                move |ctx: &mut FunctionCtx| {
                    let _ = parked.lock().recv();
                    ctx.push_output_bytes("Out", "o", vec![1])
                },
            ))
            .unwrap();
        let parking = CompositionBuilder::new("Parked")
            .input("In")
            .output("Out")
            .node("Park", |node| {
                node.bind("x", Distribution::All, "In")
                    .publish("Out", "Out")
            })
            .build()
            .unwrap();
        harness
            .registry
            .register_composition(parking.clone())
            .unwrap();
        let copy = register_copy_identity(&harness.registry);
        let submitted = Instant::now();
        let stalled = harness
            .dispatcher
            .submit(Arc::new(parking), vec![DataSet::single("In", vec![1])])
            .unwrap();
        let outcome = loop {
            if let Some(outcome) = stalled.try_result() {
                break outcome;
            }
            assert!(
                submitted.elapsed() < Duration::from_secs(3),
                "the parked invocation never settled"
            );
            harness
                .dispatcher
                .invoke(Arc::clone(&copy), vec![DataSet::single("In", vec![2])])
                .unwrap();
            std::thread::sleep(Duration::from_millis(20));
        };
        let reaped_after = submitted.elapsed();
        let err = outcome.unwrap_err();
        assert_eq!(
            err,
            DandelionError::Dispatch("timed out waiting for engine results".to_string())
        );
        assert!(
            reaped_after < Duration::from_secs(1),
            "reaped {reaped_after:?} after submission"
        );
        // The parked function returns late; its result, delivered before the
        // next invocation's, finds the invocation settled.
        release.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        harness
            .dispatcher
            .invoke(copy, vec![DataSet::single("In", vec![3])])
            .unwrap();
        assert_eq!(
            harness
                .dispatcher
                .metrics()
                .failures
                .load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn on_settle_fires_with_the_outcome_without_blocking_a_thread() {
        let harness = harness();
        let graph = register_copy_identity(&harness.registry);
        let handle = harness
            .dispatcher
            .submit(graph, vec![DataSet::single("In", b"cb".to_vec())])
            .unwrap();
        let (sender, receiver) = std::sync::mpsc::channel();
        handle.on_settle(move |outcome| sender.send(outcome).unwrap());
        let outcome = receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("callback fires")
            .expect("invocation succeeds");
        assert_eq!(outcome.outputs[0].items[0].as_str(), Some("cb"));
        // The callback consumed the result: nothing is retained for it.
        assert!(harness.dispatcher.poll(handle.id()).is_none());
        assert!(harness.dispatcher.core.table.entry(handle.id()).is_none());
        assert_eq!(retained_results(&harness), 0);
        // Registering after settlement fires immediately, on this thread,
        // and finds the result gone — like a second `wait`.
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        handle.on_settle(move |outcome| {
            assert_eq!(
                outcome.unwrap_err(),
                DandelionError::Dispatch("invocation result was already taken".to_string())
            );
            flag.store(true, Ordering::SeqCst);
        });
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn on_settle_after_settlement_takes_the_retained_outcome() {
        let harness = harness();
        let graph = register_copy_identity(&harness.registry);
        let handle = harness
            .dispatcher
            .submit(graph, vec![DataSet::single("In", b"late".to_vec())])
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !handle.status().is_terminal() {
            assert!(Instant::now() < deadline, "invocation did not settle");
            std::thread::yield_now();
        }
        // Nobody asked for the result yet: it is retained for polling.
        assert!(harness.dispatcher.poll(handle.id()).is_some());
        assert_eq!(retained_results(&harness), 1);
        let taken = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&taken);
        handle.on_settle(move |outcome| *slot.lock() = Some(outcome));
        let outcome = taken.lock().take().expect("fires on this thread").unwrap();
        assert_eq!(outcome.outputs[0].items[0].as_str(), Some("late"));
        assert!(harness.dispatcher.poll(handle.id()).is_none());
        assert_eq!(retained_results(&harness), 0);
    }

    #[test]
    fn on_settle_reports_cancellation_when_the_dispatcher_stops() {
        // No engines: the invocation can never complete, so shutdown must
        // deliver `Cancelled` through the registered callback.
        let registry = Arc::new(Registry::new());
        let dispatcher = Dispatcher::new(
            Arc::clone(&registry),
            TaskQueue::new(EngineKind::Compute, 1024),
            TaskQueue::new(EngineKind::Communication, 1024),
            WorkerConfig {
                total_cores: 4,
                initial_communication_cores: 1,
                ..WorkerConfig::default()
            },
        );
        let graph = register_copy_identity(&registry);
        let handle = dispatcher
            .submit(graph, vec![DataSet::single("In", vec![1])])
            .unwrap();
        let (sender, receiver) = std::sync::mpsc::channel();
        handle.on_settle(move |outcome| sender.send(outcome).unwrap());
        dispatcher.shutdown();
        let outcome = receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("cancellation reaches the callback");
        assert!(matches!(outcome, Err(DandelionError::Cancelled)));
    }

    #[test]
    fn cold_draws_are_the_seeded_splitmix_sequence() {
        let state = AtomicU64::new(COLD_DRAW_SEED);
        let mut reference = SplitMix64::new(0xDA4D_E110);
        let mut cold = 0;
        for draw in 0..4096 {
            let ratio = if draw % 2 == 0 { 0.03 } else { 0.5 };
            let drawn = draw_cold_binary(&state, ratio);
            assert_eq!(drawn, reference.bernoulli(ratio), "draw {draw}");
            cold += usize::from(drawn);
        }
        assert!((900..1300).contains(&cold), "{cold} cold of 4096");
        // A certain outcome consumes nothing from the sequence.
        let before = state.load(Ordering::Relaxed);
        assert!(!draw_cold_binary(&state, 0.0));
        assert!(draw_cold_binary(&state, 1.0));
        assert_eq!(state.load(Ordering::Relaxed), before);
        assert_eq!(
            draw_cold_binary(&state, 0.5),
            reference.bernoulli(0.5),
            "the sequence continues where it was"
        );
    }

    #[test]
    fn shard_count_is_core_derived_and_bounded() {
        let shards = in_flight_shard_count();
        assert!((4..=64).contains(&shards));
        assert!(shards.is_power_of_two());
        let table = InFlightTable::new(8, Arc::new(DispatchMetrics::default()));
        assert_eq!(table.shards.len(), shards);
    }

    #[test]
    fn small_retained_views_are_compacted_at_settle() {
        use dandelion_common::SharedBytes;
        let harness = harness();
        harness
            .registry
            .register_function(FunctionArtifact::new(
                "Slice",
                &["Out"],
                |ctx: &mut FunctionCtx| {
                    let data = ctx.single_input("Data")?.data.clone();
                    // A tiny window of the (large) input buffer.
                    ctx.push_output(
                        "Out",
                        dandelion_common::DataItem::new("head", data.slice(..16)),
                    )
                },
            ))
            .unwrap();
        let graph = CompositionBuilder::new("SliceHead")
            .input("In")
            .output("Out")
            .node("Slice", |node| {
                node.bind("Data", Distribution::All, "In")
                    .publish("Out", "Out")
            })
            .build()
            .unwrap();
        harness
            .registry
            .register_composition(graph.clone())
            .unwrap();
        let payload = SharedBytes::from_vec(vec![0xEE; 4 * 1024 * 1024]);
        let inputs = vec![DataSet::with_items(
            "In",
            vec![dandelion_common::DataItem::new("blob", payload.clone())],
        )];
        let outcome = harness.dispatcher.invoke(Arc::new(graph), inputs).unwrap();
        let item = &outcome.outputs[0].items[0];
        assert_eq!(item.data.as_slice(), &[0xEE; 16]);
        // The retained view no longer pins the 4 MiB producer buffer.
        assert!(!SharedBytes::same_buffer(&item.data, &payload));
        assert!(
            item.data.backing_len() <= 16,
            "compacted view must not pin extra bytes, backing is {}",
            item.data.backing_len()
        );
    }

    #[test]
    fn shutdown_cancels_unsettled_invocations() {
        let harness = harness();
        harness
            .registry
            .register_function(FunctionArtifact::new(
                "Slow",
                &["Out"],
                |ctx: &mut FunctionCtx| {
                    std::thread::sleep(Duration::from_millis(300));
                    ctx.push_output_bytes("Out", "o", vec![1])
                },
            ))
            .unwrap();
        let graph = CompositionBuilder::new("Sleepy")
            .input("In")
            .output("Out")
            .node("Slow", |node| {
                node.bind("x", Distribution::All, "In")
                    .publish("Out", "Out")
            })
            .build()
            .unwrap();
        harness
            .registry
            .register_composition(graph.clone())
            .unwrap();
        let handle = harness
            .dispatcher
            .submit(Arc::new(graph), vec![DataSet::single("In", vec![1])])
            .unwrap();
        harness.dispatcher.shutdown();
        // Settled like any other result nobody has consumed yet: retained
        // for polling, and counted.
        assert_eq!(retained_results(&harness), 1);
        let result = handle.wait(Some(Duration::from_secs(5)));
        // Either the task squeaked through before the driver stopped or the
        // invocation was cancelled; it must not hang or panic.
        if let Err(error) = result {
            assert_eq!(error, DandelionError::Cancelled);
        }
        assert_eq!(retained_results(&harness), 0);
        // New submissions are rejected after shutdown.
        let graph2 = register_copy_identity(&harness.registry);
        assert!(matches!(
            harness
                .dispatcher
                .submit(graph2, vec![DataSet::single("In", vec![2])]),
            Err(DandelionError::Cancelled)
        ));
    }
}
