//! The dispatcher: drives invocations over the engine queues.
//!
//! The dispatcher owns the per-invocation dataflow state
//! ([`crate::invocation::InvocationState`]), prepares tasks for ready
//! function instances, enqueues them on the engine queues, and feeds
//! completions back until the composition's external outputs are available
//! (paper §5, §6.1).
//!
//! **One owner.** Every invocation the dispatcher knows about — running, or
//! settled and retained for polling — is an entry of one [`InFlight`] table.
//! The table is plain data: no lock, no clock and no thread of its own. Each
//! of its transitions (`submit`, `complete`, `reap`, `cancel_all`, `take`,
//! `on_settle`, `poll`) takes the `now` its caller read and writes what is
//! left to do into an [`Effects`] buffer the caller owns: tasks for the
//! engine queues, settle callbacks with their outcomes, and whether a parked
//! [`InvocationHandle::wait`] must be woken.
//!
//! **One lock.** The shell ([`Dispatcher`]) keeps the table behind one mutex
//! and applies the effects after it unlocks, so no push, no callback and no
//! failpoint ever runs under the lock. A task a full queue refuses comes
//! back to the table, under the lock again, as its instance's failed result;
//! on an initial [`Dispatcher::submit`] that is the synchronous, retryable
//! [`DandelionError::ResourceExhausted`].
//!
//! [`Dispatcher::submit`] registers an invocation and returns an
//! [`InvocationHandle`] immediately. **An engine settles what it
//! finishes:** both engine pools hand their batches to the dispatcher's
//! completion sink ([`Dispatcher::sink`]), through which the engine that
//! ran a batch, at the time it read once the batch ran, takes the table lock
//! once for the batch (results carry their invocation id), advances the
//! owning invocation, and then, on its own thread, pushes the successor
//! tasks and fires the settle callbacks. No result crosses a channel or
//! another thread on its way. Any number of invocations can therefore be in
//! flight per client with no thread parked per invocation.
//!
//! The dispatcher has no thread and reads no clock of its own. The worker's
//! timers ([`crate::worker`]'s `tick`) call [`Dispatcher::reap`], and the
//! worker's shutdown [`Dispatcher::cancel_all`].
//!
//! Nested compositions are registered as *child invocations* in the same
//! table, linked to the parent instance that spawned them; a child's
//! completion flows back into the parent exactly like an engine result.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::time::{Duration, Instant};

use dandelion_common::config::WorkerConfig;
use dandelion_common::{
    fail_point, DandelionError, DandelionResult, DataSet, InvocationId, LatencyHistogram,
};
use dandelion_dsl::CompositionGraph;

use crate::engine::{EnginePool, PoolCell};
use crate::invocation::{InstanceCompletion, InstanceSpec, InvocationState};
use crate::recover;
use crate::registry::{Registry, Vertex};
use crate::task::{ReplySender, Task, TaskPayload, TaskResult};

/// A retained result view smaller than `1/RETAINED_PIN_FACTOR` of its
/// parent buffer is copy-compacted at the first reap after the invocation
/// settles, so that keeping a few result bytes around for polling does not
/// pin a multi-MiB producer buffer until retention expiry. A result taken
/// before that reap is handed over as the engine's view, uncopied.
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
}

impl InvocationReport {
    fn merge(&mut self, other: &InvocationReport) {
        self.compute_tasks += other.compute_tasks;
        self.communication_tasks += other.communication_tasks;
        self.peak_context_bytes += other.peak_context_bytes;
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
/// invocation, as returned by [`crate::WorkerNode::poll`].
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

/// Counters and latency shared between the threads that step the in-flight
/// table (submitters, engines, the timers) and whoever owns the dispatcher
/// (the worker node surfaces them as [`crate::worker::WorkerStats`]). Only
/// *top-level* invocations are counted; nested child invocations fold into
/// their parent's report. Once nothing is in flight, `invocations +
/// failures == submitted`: every accepted invocation settled exactly once.
#[derive(Debug)]
pub(crate) struct DispatchMetrics {
    /// Invocations the table accepted (a submission before the final sweep;
    /// one refused for its inputs or a full queue is accepted and fails).
    pub submitted: AtomicU64,
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
            submitted: AtomicU64::new(0),
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
/// [`InvocationHandle::on_settle`]; invoked on the thread that settled the
/// invocation — the engine that delivered its last result, the thread that
/// ticks the worker's timers when it reaps, the one that shuts the worker
/// down when it cancels, a submitter whose task a full queue refused, or
/// the registering thread when the invocation already settled —
/// and never while the table lock is held, so the callback may use the table
/// freely.
pub(crate) type SettleCallback = Box<dyn FnOnce(DandelionResult<InvocationOutcome>) + Send>;

/// Links a child invocation to the parent instance awaiting it.
#[derive(Debug, Clone)]
struct ParentLink {
    invocation: InvocationId,
    node: usize,
    instance: usize,
}

impl ParentLink {
    /// The parent instance's result: the child's outcome, or the error that
    /// kept the child from starting.
    fn result(&self, outcome: DandelionResult<Vec<DataSet>>) -> TaskResult {
        TaskResult {
            invocation: self.invocation,
            node: self.node,
            instance: self.instance,
            outcome,
            context_high_water: 0,
        }
    }
}

/// Where an entry is: running with its dataflow, or settled with the result
/// the table holds for polling.
enum Progress {
    Running(InvocationState),
    Settled(DandelionResult<InvocationOutcome>),
}

/// Where a top-level invocation's handle reads the status it settled with:
/// the table sets it when the invocation settles, before the entry leaves.
type TerminalStatus = Arc<OnceLock<InvocationStatus>>;

/// One invocation in the in-flight table.
///
/// Only a running entry or a settled one nobody has consumed is in the
/// table: an invocation whose outcome goes to a settle callback or to a
/// parent leaves it the moment it settles.
struct Entry {
    graph: Arc<CompositionGraph>,
    progress: Progress,
    report: InvocationReport,
    /// Handed the outcome when the invocation settles.
    callback: Option<SettleCallback>,
    parent: Option<ParentLink>,
    terminal: TerminalStatus,
    started: Instant,
    /// When the invocation last made progress (registered, or an instance
    /// completed); the stall reaper fails invocations whose progress is
    /// older than `function_timeout + engine_stall_grace`.
    last_progress: Instant,
}

impl Entry {
    fn status(&self) -> InvocationStatus {
        match &self.progress {
            Progress::Running(_) => InvocationStatus::Running,
            Progress::Settled(Ok(_)) => InvocationStatus::Completed,
            Progress::Settled(Err(_)) => InvocationStatus::Failed,
        }
    }

    fn is_running(&self) -> bool {
        matches!(self.progress, Progress::Running(_))
    }
}

/// What an [`InFlight`] call leaves its caller to do once the table is
/// unlocked.
#[derive(Default)]
struct Effects {
    /// Tasks for the engine queues.
    tasks: Vec<Task>,
    /// Settle callbacks, each with the outcome it is handed.
    settled: Vec<(SettleCallback, DandelionResult<InvocationOutcome>)>,
    /// An invocation settled while a [`InvocationHandle::wait`] was parked.
    wake: bool,
    /// Invocations settled: the `dispatcher/settle` failpoint is evaluated
    /// once for each, outside the lock.
    settles: usize,
}

thread_local! {
    /// This thread's spare [`Effects`]: empty, its lists as long as an
    /// earlier call on the thread grew them.
    static SPARE_EFFECTS: Cell<Effects> = Cell::new(Effects::default());
}

impl Effects {
    /// Empty effects whose lists keep what this thread's last call grew them
    /// to, so a steady stream of submissions and batches allocates none.
    fn reused() -> Effects {
        SPARE_EFFECTS.try_with(Cell::take).unwrap_or_default()
    }

    /// Gives applied — so empty — effects back for this thread's next call.
    fn recycle(self) {
        let _ = SPARE_EFFECTS.try_with(|spare| spare.set(self));
    }
}

/// Work one table call still has to apply to another entry: a child
/// invocation cannot be registered, nor its outcome folded into its parent,
/// while the entry that caused it is borrowed.
enum Work {
    /// A completed instance: an engine result, or a child invocation's
    /// outcome (with its report when it succeeded) addressed to the parent
    /// instance that spawned it.
    Complete(TaskResult, Option<InvocationReport>),
    Spawn(ParentLink, Arc<CompositionGraph>, Vec<DataSet>),
}

/// Turns a ready instance into an engine task or a child invocation.
fn launch(
    registry: &Registry,
    id: InvocationId,
    spec: InstanceSpec<'_>,
    report: &mut InvocationReport,
    tasks: &mut Vec<Task>,
    work: &mut VecDeque<Work>,
) -> DandelionResult<()> {
    let vertex = registry
        .resolve(spec.vertex)
        .ok_or_else(|| DandelionError::NotFound {
            kind: "vertex",
            name: spec.vertex.to_string(),
        })?;
    let payload = match vertex {
        Vertex::Compute(artifact) => {
            report.compute_tasks += 1;
            TaskPayload::Compute {
                artifact,
                // The dataflow built the inputs in their shared form; from
                // here on they are shared, never cloned.
                inputs: spec.inputs,
            }
        }
        Vertex::Communication(_) => {
            report.communication_tasks += 1;
            let response_set = spec
                .output_sets
                .first()
                .map_or_else(|| "Response".to_string(), |output| output.set.clone());
            TaskPayload::Http {
                inputs: spec.inputs,
                response_set,
            }
        }
        Vertex::Composition(nested) => {
            // Nested composition: a child invocation in the same table,
            // completing the parent instance when it settles.
            let parent = ParentLink {
                invocation: id,
                node: spec.node,
                instance: spec.instance,
            };
            // The spec's list is the only one, so its sets move out.
            let mut inputs = spec.inputs;
            let inputs = match Arc::get_mut(&mut inputs) {
                Some(sets) => sets.iter_mut().map(std::mem::take).collect(),
                None => inputs.to_vec(),
            };
            work.push_back(Work::Spawn(parent, nested, inputs));
            return Ok(());
        }
    };
    tasks.push(Task {
        invocation: id,
        node: spec.node,
        instance: spec.instance,
        payload,
    });
    Ok(())
}

/// The in-flight table: every invocation the dispatcher knows about —
/// running, and, for invocations that were submitted to be polled, settled
/// and retained up to the configured retention, after which polling reports
/// not-found.
///
/// Zero-copy trade-off: retained outputs are `SharedBytes` views, so a
/// small output sliced from a large producer buffer (e.g. an item of a big
/// HTTP request body) keeps that whole buffer alive until the entry is
/// consumed or expires, unless it is small enough to be compacted at the
/// next reap (see [`RETAINED_PIN_FACTOR`]). Deployments retaining many
/// results of payload-heavy compositions should size `completed_retention`
/// accordingly.
struct InFlight {
    entries: HashMap<InvocationId, Entry>,
    /// Ids of retained results, oldest first; some may have been taken since.
    retained: VecDeque<InvocationId>,
    /// How many of the newest ids in `retained` settled since the last reap:
    /// the results the next reap compacts.
    uncompacted: usize,
    retention: usize,
    /// Resolves the vertices of ready instances.
    registry: Arc<Registry>,
    /// `function_timeout + engine_stall_grace`.
    stall_deadline: Duration,
    metrics: Arc<DispatchMetrics>,
    /// [`InvocationHandle::wait`]s parked on the shell's condvar.
    waiters: usize,
    /// Set by the final sweep: nothing registers after it.
    shutting_down: bool,
}

impl InFlight {
    fn new(registry: Arc<Registry>, config: &WorkerConfig, metrics: Arc<DispatchMetrics>) -> Self {
        Self {
            entries: HashMap::new(),
            retained: VecDeque::new(),
            uncompacted: 0,
            retention: config.completed_retention.max(1),
            registry,
            stall_deadline: config.function_timeout + config.engine_stall_grace,
            metrics,
            waiters: 0,
            shutting_down: false,
        }
    }

    /// Registers a top-level invocation of `graph`, started at `now`, and
    /// launches its first ready instances. Returns its id and the cell its
    /// terminal status is set in.
    fn submit(
        &mut self,
        graph: Arc<CompositionGraph>,
        inputs: Vec<DataSet>,
        now: Instant,
        effects: &mut Effects,
    ) -> DandelionResult<(InvocationId, TerminalStatus)> {
        if self.shutting_down {
            return Err(DandelionError::Cancelled);
        }
        // Relaxed: a statistic, read once nothing is in flight.
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let mut work = VecDeque::new();
        let registered = self
            .register(graph, inputs, None, now, effects, &mut work)
            .inspect_err(|_| {
                self.metrics.failures.fetch_add(1, Ordering::Relaxed);
            })?;
        self.run(&mut work, now, effects);
        Ok(registered)
    }

    /// Applies one engine's batch. Results for ids the table does not hold
    /// (abandoned or already handed over) are dropped.
    fn complete(&mut self, results: &mut Vec<TaskResult>, now: Instant, effects: &mut Effects) {
        let mut work = VecDeque::new();
        for result in results.drain(..) {
            self.advance(
                result.invocation,
                Some((result, None)),
                now,
                effects,
                &mut work,
            );
            self.run(&mut work, now, effects);
        }
    }

    /// Fails invocations that, at `now`, have gone longer than
    /// `function_timeout + engine_stall_grace` without any instance
    /// completing. Engines time functions out themselves, so this only
    /// fires if an engine reply is lost (e.g. an engine thread died) or a
    /// function never returns; without it, such an invocation would leave
    /// `wait(None)` callers blocked forever.
    ///
    /// Then compacts the results retained since the last reap.
    fn reap(&mut self, now: Instant, effects: &mut Effects) {
        let deadline = self.stall_deadline;
        let stalled =
            || DandelionError::Dispatch("timed out waiting for engine results".to_string());
        self.fail_running(stalled, now, effects, |entry| {
            now.saturating_duration_since(entry.last_progress) > deadline
        });
        self.compact_fresh();
    }

    /// The final sweep: fails every unsettled invocation with
    /// [`DandelionError::Cancelled`] as any other failure settles, and
    /// refuses every later submission. No reap follows it, so it compacts
    /// what the last reap left.
    fn cancel_all(&mut self, now: Instant, effects: &mut Effects) {
        self.shutting_down = true;
        self.fail_running(|| DandelionError::Cancelled, now, effects, |_| true);
        self.compact_fresh();
    }

    /// Compacts the results retained since the last call (see
    /// [`compact_retained_outputs`]); one taken meanwhile is left uncopied.
    fn compact_fresh(&mut self) {
        let fresh = std::mem::take(&mut self.uncompacted);
        for id in self.retained.iter().rev().take(fresh) {
            if let Some(Progress::Settled(Ok(outcome))) =
                self.entries.get_mut(id).map(|entry| &mut entry.progress)
            {
                compact_retained_outputs(&mut outcome.outputs);
            }
        }
    }

    /// Settles every running entry `pick` selects with `error()`, which is
    /// not called when it selects none.
    fn fail_running(
        &mut self,
        error: impl Fn() -> DandelionError,
        now: Instant,
        effects: &mut Effects,
        pick: impl Fn(&Entry) -> bool,
    ) {
        let picked: Vec<InvocationId> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.is_running() && pick(entry))
            .map(|(id, _)| *id)
            .collect();
        let mut work = VecDeque::new();
        for id in picked {
            self.settle(id, Err(error()), now, effects, &mut work);
        }
        self.run(&mut work, now, effects);
    }

    /// Takes `id`'s settled result, releasing its entry; `None` while it
    /// runs, and once its result was taken or expired.
    fn take(&mut self, id: InvocationId) -> Option<DandelionResult<InvocationOutcome>> {
        if self.entries.get(&id)?.is_running() {
            return None;
        }
        // Relaxed: a statistic, it publishes no other data.
        self.metrics
            .retained_results
            .fetch_sub(1, Ordering::Relaxed);
        match self.entries.remove(&id)?.progress {
            Progress::Settled(outcome) => Some(outcome),
            Progress::Running(_) => None,
        }
    }

    /// Hands `id`'s outcome to `callback` when it settles; a later
    /// registration replaces an unfired earlier one. If it has settled
    /// already, the callback comes back with the outcome to fire now — a
    /// result already taken is the error a second `wait` gets.
    fn on_settle(
        &mut self,
        id: InvocationId,
        callback: SettleCallback,
    ) -> Option<(SettleCallback, DandelionResult<InvocationOutcome>)> {
        if let Some(entry) = self.entries.get_mut(&id).filter(|entry| entry.is_running()) {
            entry.callback = Some(callback);
            return None;
        }
        Some((callback, self.take(id).unwrap_or_else(already_taken)))
    }

    /// A non-consuming view of `id`.
    fn poll(&self, id: InvocationId) -> Option<InvocationSnapshot> {
        let entry = self.entries.get(&id)?;
        Some(InvocationSnapshot {
            id,
            composition: entry.graph.name.clone(),
            status: entry.status(),
            outcome: match &entry.progress {
                Progress::Running(_) => None,
                Progress::Settled(outcome) => Some(outcome.clone()),
            },
        })
    }

    fn status(&self, id: InvocationId) -> Option<InvocationStatus> {
        self.entries.get(&id).map(Entry::status)
    }

    /// Creates a (top-level or child) invocation started at `now` and
    /// launches its first ready instances. Returns its id and the cell its
    /// terminal status is set in.
    fn register(
        &mut self,
        graph: Arc<CompositionGraph>,
        inputs: Vec<DataSet>,
        parent: Option<ParentLink>,
        now: Instant,
        effects: &mut Effects,
        work: &mut VecDeque<Work>,
    ) -> DandelionResult<(InvocationId, TerminalStatus)> {
        let id = InvocationId::next();
        let dataflow = InvocationState::new(id, Arc::clone(&graph), inputs)?;
        if parent.is_none() {
            self.metrics.inflight.fetch_add(1, Ordering::SeqCst);
        }
        let terminal = TerminalStatus::default();
        let entry = Entry {
            graph,
            progress: Progress::Running(dataflow),
            report: InvocationReport::default(),
            callback: None,
            parent,
            terminal: Arc::clone(&terminal),
            started: now,
            last_progress: now,
        };
        self.entries.insert(id, entry);
        self.advance(id, None, now, effects, work);
        Ok((id, terminal))
    }

    /// Applies `work` until none is left.
    fn run(&mut self, work: &mut VecDeque<Work>, now: Instant, effects: &mut Effects) {
        while let Some(item) = work.pop_front() {
            match item {
                Work::Complete(result, child_report) => {
                    let id = result.invocation;
                    self.advance(id, Some((result, child_report)), now, effects, work);
                }
                Work::Spawn(parent, graph, inputs) => {
                    let link = parent.clone();
                    if let Err(error) = self.register(graph, inputs, Some(link), now, effects, work)
                    {
                        work.push_back(Work::Complete(parent.result(Err(error)), None));
                    }
                }
            }
        }
    }

    /// Advances one running invocation: applies an instance completion (if
    /// any: a result, with the report of the child invocation it came
    /// from), launches newly ready instances, and settles the invocation
    /// when its dataflow has no work left.
    fn advance(
        &mut self,
        id: InvocationId,
        completion: Option<(TaskResult, Option<InvocationReport>)>,
        now: Instant,
        effects: &mut Effects,
        work: &mut VecDeque<Work>,
    ) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        let Progress::Running(dataflow) = &mut entry.progress else {
            return;
        };
        let mut check_ready = completion.is_none();
        if let Some((result, child_report)) = completion {
            let applied = dataflow.complete_instance(result.node, result.instance, result.outcome);
            if applied == Ok(InstanceCompletion::Duplicate) {
                // A duplicate result for an instance that already completed
                // (an engine died after replying and its retry ran anyway):
                // counting it twice would inflate the report.
                return;
            }
            entry.last_progress = now;
            entry.report.peak_context_bytes += result.context_high_water;
            if let Some(child_report) = &child_report {
                entry.report.merge(child_report);
            }
            match applied {
                Ok(applied) => check_ready = applied == InstanceCompletion::NodeFinished,
                Err(error) => return self.settle(id, Err(error), now, effects, work),
            }
        }
        if check_ready {
            let failure = match dataflow.ready_instances() {
                Ok(ready) => ready.into_iter().find_map(|spec| {
                    let tasks = &mut effects.tasks;
                    launch(&self.registry, id, spec, &mut entry.report, tasks, work).err()
                }),
                Err(error) => Some(error),
            };
            if let Some(error) = failure {
                return self.settle(id, Err(error), now, effects, work);
            }
        }
        // Complete: every node completed or was skipped (an error settled
        // above), so no engine task or child invocation of this one is
        // outstanding.
        if dataflow.is_complete() {
            let outcome = dataflow.take_external_outputs();
            self.settle(id, outcome, now, effects, work);
        }
    }

    /// Settles a running invocation: counts a top-level one, and hands the
    /// outcome to whoever it belongs to — the parent instance of a child
    /// invocation, the registered settle callback, or, when nobody has asked
    /// for it yet, the table, which retains it for polling. Only the last
    /// keeps the entry. A completed invocation's latency runs from its start
    /// to `now`.
    fn settle(
        &mut self,
        id: InvocationId,
        outcome: DandelionResult<Vec<DataSet>>,
        now: Instant,
        effects: &mut Effects,
        work: &mut VecDeque<Work>,
    ) {
        // Exactly-once: every settle path (dataflow completion, dataflow
        // error, stall reaper, final sweep) funnels through here, and an
        // entry that has settled is left as it is.
        if !self.entries.get(&id).is_some_and(Entry::is_running) {
            return;
        }
        effects.settles += 1;
        effects.wake |= self.waiters > 0;
        let mut entry = self.entries.remove(&id).expect("checked above");
        let _ = entry.terminal.set(if outcome.is_ok() {
            InvocationStatus::Completed
        } else {
            InvocationStatus::Failed
        });
        if let Some(parent) = entry.parent.take() {
            // A child's outputs flow straight back into the parent's
            // dataflow (uncompacted: keeping the producer's buffer shared is
            // the point) and its statistics fold into the parent's report.
            let report = outcome.is_ok().then_some(entry.report);
            work.push_back(Work::Complete(parent.result(outcome), report));
            return;
        }
        let result = outcome.map(|outputs| InvocationOutcome {
            outputs,
            report: std::mem::take(&mut entry.report),
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
                self.metrics.latency.record(now - entry.started);
            }
            Err(_) => {
                self.metrics.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.metrics.inflight.fetch_sub(1, Ordering::SeqCst);
        if let Some(callback) = entry.callback.take() {
            effects.settled.push((callback, result));
            return;
        }
        // Retained results live in the table until consumed or expired; the
        // next reap compacts views that would pin a much larger parent
        // buffer for that whole time.
        entry.progress = Progress::Settled(result);
        self.entries.insert(id, entry);
        self.metrics
            .retained_results
            .fetch_add(1, Ordering::Relaxed);
        self.retained.push_back(id);
        while self.retained.len() > self.retention {
            let expired = self
                .retained
                .pop_front()
                .expect("longer than the retention");
            self.take(expired);
        }
        self.uncompacted = (self.uncompacted + 1).min(self.retained.len());
    }
}

/// What a consumer gets when an earlier one already took the result.
fn already_taken() -> DandelionResult<InvocationOutcome> {
    Err(DandelionError::Dispatch(
        "invocation result was already taken".to_string(),
    ))
}

/// Copy-compacts retained result views whose window is less than
/// `1/RETAINED_PIN_FACTOR` of their parent buffer: a 40-byte result sliced
/// out of a multi-MiB receive buffer must not keep that buffer alive until
/// retention expiry. Views at or above the threshold — including every
/// whole-buffer view, for which `compact` is free — keep their zero-copy
/// sharing.
fn compact_retained_outputs(sets: &mut [DataSet]) {
    for set in sets {
        for item in &mut set.items {
            if item.data.len() * RETAINED_PIN_FACTOR < item.data.backing_len() {
                item.data = item.data.compact();
            }
        }
    }
}

/// The shell around the table: its one lock, the condvar
/// [`InvocationHandle::wait`] parks on, and the cells of the two engine
/// pools the table's tasks are pushed to. Nothing is pushed and no callback
/// runs under the lock.
pub(crate) struct Dispatcher {
    table: Mutex<InFlight>,
    /// Notified, after the lock is released, when an invocation settled
    /// while a `wait` was parked.
    settled: Condvar,
    compute: Arc<PoolCell>,
    communication: Arc<PoolCell>,
}

impl Dispatcher {
    /// A dispatcher over `registry` that pushes to the two pools and reports
    /// into `metrics`.
    pub(crate) fn new(
        registry: Arc<Registry>,
        config: &WorkerConfig,
        metrics: Arc<DispatchMetrics>,
        compute: &EnginePool,
        communication: &EnginePool,
    ) -> Self {
        Dispatcher {
            table: Mutex::new(InFlight::new(registry, config, metrics)),
            settled: Condvar::new(),
            compute: Arc::clone(compute.cell()),
            communication: Arc::clone(communication.cell()),
        }
    }

    /// The completion sink the dispatcher's pools hand their batches to. It
    /// holds the dispatcher weakly, since the dispatcher holds the pools'
    /// cells; a batch that outlives the dispatcher is dropped.
    pub(crate) fn sink(dispatcher: &Weak<Dispatcher>) -> ReplySender {
        let dispatcher = Weak::clone(dispatcher);
        ReplySender::new(move |results, now| {
            if let Some(dispatcher) = dispatcher.upgrade() {
                dispatcher.complete(results, now);
            }
        })
    }

    fn lock(&self) -> MutexGuard<'_, InFlight> {
        // A panic under the lock (an armed settle failpoint, say) leaves
        // every entry whole — at worst one still running, which the reaper
        // fails — so a poisoned guard is used as it is.
        recover(self.table.lock())
    }

    /// Applies an engine's batch at `now`: the table under its lock, then the
    /// effects outside it, on the calling thread.
    fn complete(&self, results: &mut Vec<TaskResult>, now: Instant) {
        let mut effects = Effects::reused();
        self.lock().complete(results, now, &mut effects);
        self.apply(&mut effects, now);
        effects.recycle();
    }

    /// Applies `effects` outside the lock: evaluates the settle failpoint,
    /// pushes the tasks, fires the callbacks and wakes parked waiters. A task
    /// a full queue refuses fails its instance at `now`, under the lock
    /// again, which may leave more to apply. Returns whether a queue refused
    /// a task.
    fn apply(&self, effects: &mut Effects, now: Instant) -> bool {
        let mut refused_any = false;
        loop {
            for _ in 0..std::mem::take(&mut effects.settles) {
                fail_point!("dispatcher/settle");
            }
            if std::mem::take(&mut effects.wake) {
                self.settled.notify_all();
            }
            let mut refused: Vec<TaskResult> = effects
                .tasks
                .drain(..)
                .filter_map(|task| self.push(task).err())
                .collect();
            for (callback, outcome) in effects.settled.drain(..) {
                fail_point!("dispatcher/notify");
                callback(outcome);
            }
            if refused.is_empty() {
                return refused_any;
            }
            refused_any = true;
            self.lock().complete(&mut refused, now, effects);
        }
    }

    /// Pushes a task onto its pool's queue; a full queue hands it back as
    /// its instance's failed result.
    fn push(&self, task: Task) -> Result<(), TaskResult> {
        let (pool, name) = match task.payload {
            TaskPayload::Compute { .. } => (&self.compute, "compute"),
            _ => (&self.communication, "communication"),
        };
        pool.try_push(task).map_err(|task| {
            task.failed(DandelionError::ResourceExhausted(format!(
                "{name} queue full"
            )))
        })
    }

    /// Registers a top-level invocation at `now` and returns a handle
    /// immediately; execution failures surface through the handle. Invalid
    /// inputs and a stopped dispatcher are synchronous errors, and so is
    /// engine-queue back-pressure during the initial submission: a
    /// retryable condition, not an executed invocation, returned here so
    /// clients see 429 instead of an accepted-then-failed handle (the
    /// failure was counted when the invocation settled).
    pub(crate) fn submit(
        self: &Arc<Self>,
        graph: Arc<CompositionGraph>,
        inputs: Vec<DataSet>,
        now: Instant,
    ) -> DandelionResult<InvocationHandle> {
        let mut effects = Effects::reused();
        let (id, terminal) = self.lock().submit(graph, inputs, now, &mut effects)?;
        let refused = self.apply(&mut effects, now);
        effects.recycle();
        if refused {
            let mut table = self.lock();
            if let Some(Progress::Settled(Err(DandelionError::ResourceExhausted(_)))) =
                table.entries.get(&id).map(|entry| &entry.progress)
            {
                if let Some(Err(error)) = table.take(id) {
                    return Err(error);
                }
            }
        }
        Ok(InvocationHandle {
            id,
            dispatcher: Arc::clone(self),
            terminal,
        })
    }

    /// A non-consuming view of an invocation; `None` for ids the table has
    /// never seen or whose retained result has expired.
    pub(crate) fn poll(&self, id: InvocationId) -> Option<InvocationSnapshot> {
        self.lock().poll(id)
    }

    /// The reaper's tick at `now` ([`InFlight::reap`]), its settle callbacks
    /// fired on the calling thread.
    pub(crate) fn reap(&self, now: Instant) {
        let mut effects = Effects::reused();
        self.lock().reap(now, &mut effects);
        self.apply(&mut effects, now);
        effects.recycle();
    }

    /// The final sweep at `now`: every unsettled invocation fails with
    /// [`DandelionError::Cancelled`], and later submissions are refused with
    /// it.
    pub(crate) fn cancel_all(&self, now: Instant) {
        let mut effects = Effects::reused();
        self.lock().cancel_all(now, &mut effects);
        self.apply(&mut effects, now);
        effects.recycle();
    }
}

/// A handle to one submitted invocation.
///
/// The handle does not pin a thread: the invocation advances on the engine
/// threads whether or not anyone is watching. Results are consumed exactly
/// once — the first successful [`try_result`] or [`wait`], or the
/// [`on_settle`] callback, takes the outcome and releases the table entry.
/// Until one of them does, the settled result stays in the table for
/// polling by id ([`crate::WorkerNode::poll`]) up to the configured
/// retention.
///
/// [`try_result`]: InvocationHandle::try_result
/// [`wait`]: InvocationHandle::wait
/// [`on_settle`]: InvocationHandle::on_settle
pub struct InvocationHandle {
    id: InvocationId,
    dispatcher: Arc<Dispatcher>,
    /// Set by the table when the invocation settles.
    terminal: TerminalStatus,
}

impl InvocationHandle {
    /// The invocation's id, as reported by the v1 HTTP API.
    pub fn id(&self) -> InvocationId {
        self.id
    }

    /// The invocation's current lifecycle status; once it settled, the
    /// status it settled with, also after its result was taken or expired.
    pub fn status(&self) -> InvocationStatus {
        self.terminal
            .get()
            .copied()
            .unwrap_or(InvocationStatus::Running)
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
    /// runs on the thread that settles the invocation — as a rule the engine
    /// that delivered its last result; the worker's timers when they reap
    /// it, its shutdown when it cancels it; immediately on the calling thread
    /// when it has already settled — and is never invoked while the table
    /// lock is held, so it may poll or consume the handle.
    /// Only one callback can be registered per invocation; a later
    /// registration replaces an unfired earlier one.
    pub fn on_settle<F>(&self, callback: F)
    where
        F: FnOnce(DandelionResult<InvocationOutcome>) + Send + 'static,
    {
        let immediate = self
            .dispatcher
            .lock()
            .on_settle(self.id, Box::new(callback));
        if let Some((callback, outcome)) = immediate {
            callback(outcome);
        }
    }

    /// Takes the result if the invocation has settled; `None` while it is
    /// still queued/running (or if the result was already consumed).
    pub fn try_result(&self) -> Option<DandelionResult<InvocationOutcome>> {
        self.dispatcher.lock().take(self.id)
    }

    /// Blocks until the invocation settles and takes the result, releasing
    /// the table entry.
    ///
    /// With a timeout, [`DandelionError::Timeout`] is returned if the
    /// invocation has not settled in time; the invocation itself keeps
    /// running and can still be waited on or polled afterwards.
    pub fn wait(&self, timeout: Option<Duration>) -> DandelionResult<InvocationOutcome> {
        let deadline = timeout.map(|limit| Instant::now() + limit);
        let mut table = self.dispatcher.lock();
        loop {
            if table
                .status(self.id)
                .is_none_or(|status| status.is_terminal())
            {
                return table.take(self.id).unwrap_or_else(already_taken);
            }
            let left = match deadline {
                None => None,
                Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => {
                        return Err(DandelionError::Timeout {
                            function: table.entries[&self.id].graph.name.clone(),
                            limit_ms: timeout.unwrap_or_default().as_millis() as u64,
                        })
                    }
                },
            };
            table.waiters += 1;
            table = match left {
                None => recover(self.dispatcher.settled.wait(table)),
                Some(left) => recover(self.dispatcher.settled.wait_timeout(table, left)).0,
            };
            table.waiters -= 1;
        }
    }
}

impl std::fmt::Debug for InvocationHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvocationHandle")
            .field("id", &self.id)
            .field("status", &self.status())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{WorkerNode, REAP_PERIOD};
    use dandelion_common::{DataItem, SharedBytes};
    use dandelion_dsl::{CompositionBuilder, Distribution};
    use dandelion_http::{HttpRequest, HttpResponse};
    use dandelion_isolation::{FunctionArtifact, FunctionCtx};
    use dandelion_services::ObjectStore;
    use dandelion_services::ServiceRegistry;

    fn worker() -> Arc<WorkerNode> {
        worker_with_config(WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
            ..WorkerConfig::default()
        })
    }

    /// A worker without the control plane whose object store holds
    /// `data/a.txt` and `data/b.txt`.
    fn worker_with_config(config: WorkerConfig) -> Arc<WorkerNode> {
        let store = Arc::new(ObjectStore::new());
        store.put_object("data", "a.txt", b"alpha".to_vec());
        store.put_object("data", "b.txt", b"beta".to_vec());
        let mut services = ServiceRegistry::new();
        services.register("s3.internal", store);
        WorkerNode::start_with_control(config, services, false).unwrap()
    }

    /// A composition that lists two objects, fetches both over HTTP in
    /// parallel, and concatenates the responses.
    fn register_fetch_concat(registry: &Registry) {
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
        registry.register_composition(graph).unwrap();
    }

    fn register_copy_identity(registry: &Registry) {
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
        registry.register_composition(graph).unwrap();
    }

    // ---- Transitions of the table, as rows ----
    //
    // Each row is a test that steps the table of a stepped worker in this
    // thread: no engine thread, no driver, no sleep. The row pops the pools'
    // queues, answers through the pools' sink as an engine does, moves the
    // clock itself, and ends with `Rig::finish`.

    /// A composition of one node that runs `function` over `In`, publishing
    /// `Out`.
    fn one_node(name: &str, function: &str, distribution: Distribution) -> CompositionGraph {
        CompositionBuilder::new(name)
            .input("In")
            .output("Out")
            .node(function, |node| {
                node.bind("Data", distribution, "In")
                    .publish("Out", "Copied")
            })
            .build()
            .unwrap()
    }

    /// An engine's echo: every output set of the task carries its first
    /// input set's items.
    fn echo(task: &Task) -> DandelionResult<Vec<DataSet>> {
        let (inputs, output) = match &task.payload {
            TaskPayload::Compute {
                artifact, inputs, ..
            } => (inputs, artifact.output_sets[0].clone()),
            TaskPayload::Http {
                inputs,
                response_set,
            } => (inputs, response_set.clone()),
            TaskPayload::Faulted { reason } => {
                let reason = reason.clone();
                return Err(DandelionError::EngineFault { reason });
            }
        };
        Ok(vec![DataSet::with_items(output, inputs[0].items.clone())])
    }

    type Delivered = Arc<Mutex<Vec<DandelionResult<InvocationOutcome>>>>;

    struct Rig {
        /// A stepped worker nobody steps: the rows pop its queues.
        worker: Arc<WorkerNode>,
        dispatcher: Arc<Dispatcher>,
        registry: Arc<Registry>,
        metrics: Arc<DispatchMetrics>,
        config: WorkerConfig,
        now: Instant,
        /// Top-level submissions.
        submitted: u64,
        /// What each registered callback was handed.
        callbacks: Vec<Delivered>,
    }

    impl Rig {
        /// A table whose pools' queues hold `capacity` tasks each and which
        /// retains two results; `Copy` and `Identity` (`Copy` over all of
        /// `In`) are registered.
        fn new(capacity: usize) -> Self {
            let config = WorkerConfig {
                completed_retention: 2,
                queue_capacity: capacity,
                ..WorkerConfig::default()
            };
            let worker = WorkerNode::stepped(config.clone(), ServiceRegistry::new()).unwrap();
            let (registry, dispatcher, metrics) = worker.parts();
            registry
                .register_function(FunctionArtifact::new(
                    "Copy",
                    &["Copied"],
                    |_: &mut FunctionCtx| Ok(()),
                ))
                .unwrap();
            registry
                .register_composition(one_node("Identity", "Copy", Distribution::All))
                .unwrap();
            Self {
                worker,
                dispatcher,
                registry,
                metrics,
                config,
                now: Instant::now(),
                submitted: 0,
                callbacks: Vec::new(),
            }
        }

        fn graph(&self, name: &str) -> Arc<CompositionGraph> {
            self.registry.composition(name).unwrap()
        }

        fn submit(&mut self, name: &str, items: &[&str]) -> DandelionResult<InvocationHandle> {
            let items = items
                .iter()
                .enumerate()
                .map(|(index, data)| DataItem::new(format!("i{index}"), data.as_bytes().to_vec()))
                .collect();
            self.submit_sets(name, vec![DataSet::with_items("In", items)])
        }

        fn submit_sets(
            &mut self,
            name: &str,
            inputs: Vec<DataSet>,
        ) -> DandelionResult<InvocationHandle> {
            self.submitted += 1;
            self.dispatcher.submit(self.graph(name), inputs, self.now)
        }

        /// Registers a callback that records what it is handed.
        fn on_settle(&mut self, handle: &InvocationHandle) -> Delivered {
            let delivered = Delivered::default();
            let slot = Arc::clone(&delivered);
            handle.on_settle(move |outcome| slot.lock().unwrap().push(outcome));
            self.callbacks.push(Arc::clone(&delivered));
            delivered
        }

        /// Pops every queued task.
        fn tasks(&self) -> Vec<Task> {
            let compute = std::iter::from_fn(|| self.dispatcher.compute.try_pop());
            let communication = std::iter::from_fn(|| self.dispatcher.communication.try_pop());
            compute.chain(communication).collect()
        }

        /// Answers `task` through the pools' sink at the rig's clock, as an
        /// engine does.
        fn reply(&self, task: &Task, outcome: DandelionResult<Vec<DataSet>>, high_water: usize) {
            let result = TaskResult {
                invocation: task.invocation,
                node: task.node,
                instance: task.instance,
                outcome,
                context_high_water: high_water,
            };
            let pool = self.worker.compute_pool().cell();
            pool.answer(&mut vec![result], self.now);
        }

        /// Echoes every task, and every task that causes, until none is
        /// queued.
        fn run(&mut self) {
            loop {
                let tasks = self.tasks();
                if tasks.is_empty() {
                    return;
                }
                for task in &tasks {
                    self.reply(task, echo(task), 0);
                }
            }
        }

        fn reap(&self) {
            self.dispatcher.reap(self.now);
        }

        fn cancel_all(&self) {
            self.dispatcher.cancel_all(self.now);
        }

        fn counter(&self, counter: &AtomicU64) -> u64 {
            counter.load(Ordering::SeqCst)
        }

        fn entries(&self) -> usize {
            self.dispatcher.lock().entries.len()
        }

        /// What every row ends with: each callback fired once, nothing is in
        /// flight, and every top-level submission was counted once.
        fn finish(self) {
            for (index, delivered) in self.callbacks.iter().enumerate() {
                assert_eq!(delivered.lock().unwrap().len(), 1, "callback {index}");
            }
            assert_eq!(self.counter(&self.metrics.inflight), 0, "inflight");
            assert_eq!(
                self.counter(&self.metrics.submitted),
                self.submitted,
                "submitted"
            );
            assert_eq!(
                self.counter(&self.metrics.invocations) + self.counter(&self.metrics.failures),
                self.submitted,
                "invocations + failures"
            );
        }
    }

    fn text(outcome: &DandelionResult<InvocationOutcome>) -> &str {
        let outcome = outcome.as_ref().expect("the invocation succeeded");
        outcome.outputs[0].items[0].as_str().unwrap()
    }

    fn stall_error() -> DandelionError {
        DandelionError::Dispatch("timed out waiting for engine results".to_string())
    }

    #[test]
    fn nested_compositions_execute_as_child_invocations() {
        let mut rig = Rig::new(16);
        // The child: `Copy`, then the HTTP node over what it copied.
        let child = CompositionBuilder::new("Fetch")
            .input("In")
            .output("Out")
            .node("Copy", |node| {
                node.bind("Data", Distribution::All, "In")
                    .publish("Requests", "Copied")
            })
            .node("HTTP", |node| {
                node.bind("Request", Distribution::Each, "Requests")
                    .publish("Out", "Response")
            })
            .build()
            .unwrap();
        // The parent: the child, then `Copy` over its output.
        let parent = CompositionBuilder::new("Outer")
            .input("In")
            .output("Out")
            .node("Fetch", |node| {
                node.bind("In", Distribution::All, "In")
                    .publish("Fetched", "Out")
            })
            .node("Copy", |node| {
                node.bind("Data", Distribution::All, "Fetched")
                    .publish("Out", "Copied")
            })
            .build()
            .unwrap();
        rig.registry.register_composition(child).unwrap();
        rig.registry.register_composition(parent).unwrap();
        let handle = rig.submit("Outer", &["alpha"]).unwrap();
        // Parent and child are both in the table while the child runs.
        assert_eq!(rig.entries(), 2);
        rig.run();
        let outcome = handle.try_result().expect("settled");
        assert_eq!(text(&outcome), "alpha");
        // The child's tasks fold into the parent's report.
        let report = outcome.unwrap().report;
        assert_eq!((report.compute_tasks, report.communication_tasks), (2, 1));
        // The child's result went to the parent and the parent's was taken.
        assert_eq!(rig.entries(), 0);
        assert_eq!(rig.counter(&rig.metrics.retained_results), 0);
        rig.finish();
    }

    #[test]
    fn function_faults_fail_the_invocation() {
        let mut rig = Rig::new(16);
        let faulted = rig.submit("Identity", &["x"]).unwrap();
        let fault = DandelionError::FunctionFault {
            function: "Copy".to_string(),
            reason: "intentional failure".to_string(),
        };
        for task in rig.tasks() {
            rig.reply(&task, Err(fault.clone()), 0);
        }
        assert_eq!(faulted.try_result().unwrap().unwrap_err(), fault);
        rig.finish();
    }

    #[test]
    fn unknown_vertices_are_reported() {
        let mut rig = Rig::new(16);
        // A graph naming a function nobody registered, submitted directly
        // (registration would have refused it).
        let dangling = one_node("Dangling", "DoesNotExist", Distribution::All);
        rig.submitted += 1;
        let handle = rig
            .dispatcher
            .submit(
                Arc::new(dangling),
                vec![DataSet::single("In", vec![1])],
                rig.now,
            )
            .unwrap();
        assert_eq!(handle.status(), InvocationStatus::Failed);
        let outcome = handle.try_result().expect("settled at submission");
        assert!(matches!(
            outcome,
            Err(DandelionError::NotFound { kind: "vertex", .. })
        ));
        rig.finish();
    }

    #[test]
    fn poll_reports_status_without_consuming() {
        let mut rig = Rig::new(16);
        let handle = rig.submit("Identity", &["peek"]).unwrap();
        let running = rig.dispatcher.poll(handle.id()).unwrap();
        assert_eq!(running.status, InvocationStatus::Running);
        assert!(running.outcome.is_none());
        rig.run();
        for _ in 0..2 {
            let snapshot = rig.dispatcher.poll(handle.id()).expect("retained");
            assert_eq!(snapshot.composition, "Identity");
            assert_eq!(snapshot.status, InvocationStatus::Completed);
            assert_eq!(text(&snapshot.outcome.unwrap()), "peek");
        }
        assert_eq!(rig.counter(&rig.metrics.retained_results), 1);
        rig.finish();
    }

    #[test]
    fn try_result_is_nonblocking_and_consumes_once() {
        let mut rig = Rig::new(16);
        let handle = rig.submit("Identity", &["peek"]).unwrap();
        assert!(
            handle.try_result().is_none(),
            "nothing to take while running"
        );
        rig.run();
        assert_eq!(rig.counter(&rig.metrics.retained_results), 1);
        assert_eq!(text(&handle.try_result().unwrap()), "peek");
        assert!(handle.try_result().is_none());
        assert!(rig.dispatcher.poll(handle.id()).is_none());
        assert_eq!(rig.counter(&rig.metrics.retained_results), 0);
        // The handle still answers the status the invocation settled with.
        assert_eq!(handle.status(), InvocationStatus::Completed);
        rig.finish();
    }

    #[test]
    fn polling_unknown_ids_returns_none() {
        let rig = Rig::new(16);
        assert!(rig
            .dispatcher
            .poll(InvocationId::from_raw(u64::MAX))
            .is_none());
        rig.finish();
    }

    #[test]
    fn finished_invocations_expire_beyond_retention() {
        let mut rig = Rig::new(16);
        let handles: Vec<InvocationHandle> = (0..3u8)
            .map(|index| {
                let handle = rig.submit("Identity", &[&index.to_string()]).unwrap();
                rig.run();
                handle
            })
            .collect();
        let poll = |handle: &InvocationHandle| rig.dispatcher.poll(handle.id()).is_some();
        assert_eq!(
            handles.iter().map(poll).collect::<Vec<_>>(),
            [false, true, true]
        );
        assert_eq!(rig.counter(&rig.metrics.retained_results), 2);
        // The expired invocation's handle still answers how it settled.
        assert_eq!(handles[0].status(), InvocationStatus::Completed);
        rig.finish();
    }

    #[test]
    fn queue_back_pressure_is_a_synchronous_submit_error() {
        let mut rig = Rig::new(0);
        let error = rig.submit("Identity", &["x"]).unwrap_err();
        assert_eq!(
            error,
            DandelionError::ResourceExhausted("compute queue full".to_string())
        );
        assert!(error.is_retryable());
        assert_eq!(rig.counter(&rig.metrics.failures), 1);
        assert_eq!(rig.entries(), 0);
        assert_eq!(rig.counter(&rig.metrics.retained_results), 0);
        rig.finish();
    }

    #[test]
    fn a_wait_that_times_out_names_the_composition_and_leaves_the_invocation_running() {
        let mut rig = Rig::new(16);
        let handle = rig.submit("Identity", &["x"]).unwrap();
        assert_eq!(
            handle.wait(Some(Duration::from_millis(1))).unwrap_err(),
            DandelionError::Timeout {
                function: "Identity".to_string(),
                limit_ms: 1,
            }
        );
        assert_eq!(handle.status(), InvocationStatus::Running);
        rig.run();
        assert_eq!(handle.status(), InvocationStatus::Completed);
        assert_eq!(text(&handle.wait(Some(Duration::from_millis(1)))), "x");
        assert_eq!(rig.entries(), 0);
        rig.finish();
    }

    /// `Twice`: `Copy`, then `Copy` again, so an invocation makes progress
    /// half-way.
    fn register_twice(rig: &Rig) {
        let twice = CompositionBuilder::new("Twice")
            .input("In")
            .output("Out")
            .node("Copy", |node| {
                node.bind("Data", Distribution::All, "In")
                    .publish("Mid", "Copied")
            })
            .node("Copy", |node| {
                node.bind("Data", Distribution::All, "Mid")
                    .publish("Out", "Copied")
            })
            .build()
            .unwrap();
        rig.registry.register_composition(twice).unwrap();
    }

    #[test]
    fn stalled_invocations_are_reaped_instead_of_hanging_waiters() {
        let mut rig = Rig::new(16);
        let deadline = rig.config.function_timeout + rig.config.engine_stall_grace;
        register_twice(&rig);
        let handle = rig.submit("Twice", &["x"]).unwrap();
        // The first instance completes half-way: the deadline runs from there.
        rig.now += deadline / 2;
        for task in rig.tasks() {
            rig.reply(&task, echo(&task), 0);
        }
        rig.now += deadline;
        rig.reap();
        assert_eq!(handle.status(), InvocationStatus::Running);
        rig.now += Duration::from_nanos(1);
        rig.reap();
        assert_eq!(handle.try_result().unwrap().unwrap_err(), stall_error());
        assert_eq!(rig.tasks().len(), 1, "the second instance is still queued");
        rig.finish();
    }

    #[test]
    fn a_reply_after_the_reap_settles_nothing_twice() {
        let mut rig = Rig::new(16);
        let handle = rig.submit("Identity", &["late"]).unwrap();
        let delivered = rig.on_settle(&handle);
        rig.now += rig.config.function_timeout + rig.config.engine_stall_grace * 2;
        rig.reap();
        rig.run();
        assert_eq!(
            delivered.lock().unwrap()[0].as_ref().unwrap_err(),
            &stall_error()
        );
        assert_eq!(rig.counter(&rig.metrics.failures), 1);
        assert_eq!(rig.counter(&rig.metrics.invocations), 0);
        rig.finish();
    }

    #[test]
    fn on_settle_fires_with_the_outcome_without_blocking_a_thread() {
        let mut rig = Rig::new(16);
        let early = rig.submit("Identity", &["cb"]).unwrap();
        let early_delivered = rig.on_settle(&early);
        assert!(early_delivered.lock().unwrap().is_empty());
        assert_eq!(early.status(), InvocationStatus::Running);
        rig.run();
        assert_eq!(text(&early_delivered.lock().unwrap()[0]), "cb");
        // The handle answers how the invocation settled, though the callback
        // took the result.
        assert_eq!(early.status(), InvocationStatus::Completed);
        // The callback consumed the result: nothing is retained for it.
        assert!(rig.dispatcher.poll(early.id()).is_none());
        assert_eq!(rig.counter(&rig.metrics.retained_results), 0);
        // A second registration finds the result gone, like a second `wait`.
        let again = rig.on_settle(&early);
        assert_eq!(
            again.lock().unwrap()[0].as_ref().unwrap_err(),
            &DandelionError::Dispatch("invocation result was already taken".to_string())
        );
        rig.finish();
    }

    #[test]
    fn on_settle_after_settlement_takes_the_retained_outcome() {
        let mut rig = Rig::new(16);
        let late = rig.submit("Identity", &["late"]).unwrap();
        rig.run();
        assert_eq!(rig.counter(&rig.metrics.retained_results), 1);
        let late_delivered = rig.on_settle(&late);
        assert_eq!(text(&late_delivered.lock().unwrap()[0]), "late");
        assert!(rig.dispatcher.poll(late.id()).is_none());
        assert_eq!(rig.counter(&rig.metrics.retained_results), 0);
        rig.finish();
    }

    #[test]
    fn cancel_all_settles_every_running_invocation() {
        let mut rig = Rig::new(16);
        let watched = rig.submit("Identity", &["a"]).unwrap();
        let delivered = rig.on_settle(&watched);
        let unwatched = rig.submit("Identity", &["b"]).unwrap();
        rig.cancel_all();
        assert_eq!(
            delivered.lock().unwrap()[0].as_ref().unwrap_err(),
            &DandelionError::Cancelled
        );
        assert_eq!(watched.status(), InvocationStatus::Failed);
        let snapshot = rig.dispatcher.poll(unwatched.id()).expect("retained");
        assert_eq!(snapshot.status, InvocationStatus::Failed);
        assert_eq!(
            snapshot.outcome.unwrap().unwrap_err(),
            DandelionError::Cancelled
        );
        assert_eq!(rig.counter(&rig.metrics.retained_results), 1);
        assert_eq!(rig.counter(&rig.metrics.failures), 2);
        // Nothing registers after the final sweep.
        let refused = rig
            .dispatcher
            .submit(rig.graph("Identity"), Vec::new(), rig.now);
        assert_eq!(refused.unwrap_err(), DandelionError::Cancelled);
        rig.finish();
    }

    /// A 4 MiB buffer, and an input set whose one item is all of it.
    fn blob() -> (SharedBytes, Vec<DataSet>) {
        let payload = SharedBytes::from_vec(vec![0xEE; 4 * 1024 * 1024]);
        let item = DataItem::new("blob", payload.clone());
        (payload, vec![DataSet::with_items("In", vec![item])])
    }

    /// An engine's answer of the first 16 bytes of what `task` was given.
    fn head(task: &Task) -> DandelionResult<Vec<DataSet>> {
        let mut outputs = echo(task)?;
        let item = &mut outputs[0].items[0];
        item.data = item.data.slice(..16);
        Ok(outputs)
    }

    #[test]
    fn small_retained_views_are_compacted_at_the_next_reap() {
        let mut rig = Rig::new(16);
        let (payload, blob) = blob();
        let retained = rig.submit_sets("Identity", blob.clone()).unwrap();
        for task in rig.tasks() {
            rig.reply(&task, head(&task), 0);
        }
        // Until the reap the retained result is the engine's view.
        let snapshot = rig
            .dispatcher
            .poll(retained.id())
            .unwrap()
            .outcome
            .unwrap()
            .unwrap();
        assert!(SharedBytes::same_buffer(
            &snapshot.outputs[0].items[0].data,
            &payload
        ));
        rig.reap();
        let outcome = retained.try_result().unwrap().unwrap();
        let item = &outcome.outputs[0].items[0];
        assert_eq!(item.data.as_slice(), &[0xEE; 16]);
        assert!(!SharedBytes::same_buffer(&item.data, &payload));
        assert!(
            item.data.backing_len() <= 16,
            "backing {}",
            item.data.backing_len()
        );

        // A child's view goes to its parent as it is: the parent's next task
        // is handed the producer's buffer.
        let parent = CompositionBuilder::new("OuterIdentity")
            .input("In")
            .output("Out")
            .node("Identity", |node| {
                node.bind("In", Distribution::All, "In")
                    .publish("Mid", "Out")
            })
            .node("Copy", |node| {
                node.bind("Data", Distribution::All, "Mid")
                    .publish("Out", "Copied")
            })
            .build()
            .unwrap();
        rig.registry.register_composition(parent).unwrap();
        let nested = rig.submit_sets("OuterIdentity", blob).unwrap();
        for task in rig.tasks() {
            rig.reply(&task, head(&task), 0);
        }
        let tasks = rig.tasks();
        let TaskPayload::Compute { inputs, .. } = &tasks[0].payload else {
            panic!("the parent's Copy is a compute task");
        };
        assert!(SharedBytes::same_buffer(&inputs[0].items[0].data, &payload));
        rig.reply(&tasks[0], echo(&tasks[0]), 0);
        assert!(nested.try_result().unwrap().is_ok());
        rig.finish();
    }

    /// No reap follows the final sweep, so the sweep compacts what the last
    /// reap left: after shutdown no retained sliver pins its parent buffer.
    #[test]
    fn the_final_sweep_compacts_what_the_last_reap_left() {
        let mut rig = Rig::new(16);
        let (payload, blob) = blob();
        let retained = rig.submit_sets("Identity", blob).unwrap();
        for task in rig.tasks() {
            rig.reply(&task, head(&task), 0);
        }
        rig.cancel_all();
        let outcome = retained.try_result().unwrap().unwrap();
        let item = &outcome.outputs[0].items[0];
        assert_eq!(item.data.as_slice(), &[0xEE; 16]);
        assert!(!SharedBytes::same_buffer(&item.data, &payload));
        assert!(
            item.data.backing_len() <= 16,
            "backing {}",
            item.data.backing_len()
        );
        rig.finish();
    }

    /// An invocation that settles before its callback is registered (an
    /// engine faster than the submitting connection) hands the callback the
    /// engine's view: retention copies nothing a consumer takes before the
    /// next reap.
    #[test]
    fn a_result_taken_before_the_next_reap_is_the_engines_view() {
        let mut rig = Rig::new(16);
        let (payload, blob) = blob();
        let handle = rig.submit_sets("Identity", blob).unwrap();
        for task in rig.tasks() {
            rig.reply(&task, head(&task), 0);
        }
        assert_eq!(handle.status(), InvocationStatus::Completed);
        let delivered = rig.on_settle(&handle);
        {
            let delivered = delivered.lock().unwrap();
            let item = &delivered[0].as_ref().unwrap().outputs[0].items[0];
            assert_eq!(item.data.as_slice(), &[0xEE; 16]);
            assert_eq!(item.data.backing_len(), payload.backing_len());
            assert!(SharedBytes::same_buffer(&item.data, &payload));
        }
        rig.finish();
    }

    #[test]
    fn a_duplicate_completion_is_counted_once() {
        let mut rig = Rig::new(16);
        rig.registry
            .register_composition(one_node("Pair", "Copy", Distribution::Each))
            .unwrap();
        let handle = rig.submit("Pair", &["a", "b"]).unwrap();
        let tasks = rig.tasks();
        assert_eq!(tasks.len(), 2);
        // The first instance's result arrives twice (an engine died after
        // replying and its retry ran anyway), then the second's.
        rig.reply(&tasks[0], echo(&tasks[0]), 100);
        rig.reply(&tasks[0], echo(&tasks[0]), 100);
        rig.reply(&tasks[1], echo(&tasks[1]), 100);
        let outcome = handle.try_result().unwrap().unwrap();
        assert_eq!(outcome.outputs[0].items.len(), 2);
        assert_eq!(outcome.report.peak_context_bytes, 200);
        assert_eq!(outcome.report.compute_tasks, 2);
        rig.finish();
    }

    #[test]
    fn end_to_end_compute_and_http_pipeline() {
        let worker = worker();
        register_fetch_concat(worker.registry());
        let outcome = worker
            .invoke(
                "FetchConcat",
                vec![DataSet::single("Keys", b"a.txt\nb.txt".to_vec())],
            )
            .unwrap();
        assert_eq!(outcome.outputs.len(), 1);
        assert_eq!(outcome.outputs[0].name, "Result");
        let text = String::from_utf8(outcome.outputs[0].items[0].data.as_slice().to_vec()).unwrap();
        assert_eq!(text, "alpha|beta|");
        assert_eq!(outcome.report.compute_tasks, 2);
        assert_eq!(outcome.report.communication_tasks, 2);
    }

    /// An engine settles what it finishes: the settle callback of a
    /// compute → communication → compute invocation (the shape of
    /// `RenderLogs`) runs on the compute engine that delivered the last
    /// result, not on the worker's driver, and before the driver's first
    /// timer (the reaper's, `REAP_PERIOD` after it started) is due.
    #[test]
    fn the_engine_that_finishes_an_invocation_settles_it() {
        let created = Instant::now();
        let worker = worker();
        register_fetch_concat(worker.registry());
        let handle = worker
            .submit(
                "FetchConcat",
                vec![DataSet::single("Keys", b"a.txt\nb.txt".to_vec())],
            )
            .unwrap();
        let (sender, receiver) = std::sync::mpsc::channel();
        handle.on_settle(move |outcome| {
            let thread = std::thread::current().name().map(str::to_string);
            sender.send((thread, Instant::now(), outcome)).unwrap();
        });
        let (thread, settled, outcome) = receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("the invocation settles");
        assert_eq!(text(&outcome), "alpha|beta|");
        assert_eq!(thread.as_deref(), Some("dandelion-compute-engine"));
        assert_ne!(thread.as_deref(), Some("dandelion-dispatcher"));
        let after = settled - created;
        assert!(
            after < REAP_PERIOD,
            "settled {after:?} after the worker started, past its first timer"
        );
    }

    #[test]
    fn http_failures_flow_downstream_as_error_responses() {
        let worker = worker();
        worker
            .register_function(FunctionArtifact::new(
                "BadRequests",
                &["Requests"],
                |ctx: &mut FunctionCtx| {
                    let request = HttpRequest::get("http://unknown-host.internal/x").to_bytes();
                    ctx.push_output_bytes("Requests", "r0", request)
                },
            ))
            .unwrap();
        worker
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
        worker.register_composition(graph).unwrap();
        let outcome = worker
            .invoke("FailureFlow", vec![DataSet::single("Trigger", vec![1])])
            .unwrap();
        assert_eq!(outcome.outputs[0].items[0].as_str(), Some("502"));
    }

    #[test]
    fn submit_returns_a_handle_that_settles() {
        let worker = worker();
        register_copy_identity(worker.registry());
        let handle = worker
            .submit("Identity", vec![DataSet::single("In", b"ping".to_vec())])
            .unwrap();
        assert!(handle.id().as_u64() > 0);
        let outcome = handle.wait(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(outcome.outputs[0].items[0].as_str(), Some("ping"));
        assert_eq!(handle.status(), InvocationStatus::Completed);
        // The result was consumed by wait(); the entry is released.
        assert!(handle.try_result().is_none());
        assert!(worker.poll(handle.id()).is_none());
    }

    #[test]
    fn many_concurrent_submissions_settle_independently() {
        let worker = worker();
        register_copy_identity(worker.registry());
        let handles: Vec<InvocationHandle> = (0..16)
            .map(|index| {
                worker
                    .submit(
                        "Identity",
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
    fn a_stalled_invocation_is_reaped_while_other_results_keep_arriving() {
        let worker = worker_with_config(WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
            function_timeout: Duration::from_millis(100),
            engine_stall_grace: Duration::from_millis(100),
            ..WorkerConfig::default()
        });
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let parked = Mutex::new(parked);
        worker
            .register_function(FunctionArtifact::new(
                "Park",
                &["Out"],
                move |ctx: &mut FunctionCtx| {
                    let _ = parked.lock().unwrap().recv();
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
        worker.register_composition(parking).unwrap();
        register_copy_identity(worker.registry());
        let submitted = Instant::now();
        let stalled = worker
            .submit("Parked", vec![DataSet::single("In", vec![1])])
            .unwrap();
        let outcome = loop {
            if let Some(outcome) = stalled.try_result() {
                break outcome;
            }
            assert!(
                submitted.elapsed() < Duration::from_secs(3),
                "the parked invocation never settled"
            );
            worker
                .invoke("Identity", vec![DataSet::single("In", vec![2])])
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
        worker
            .invoke("Identity", vec![DataSet::single("In", vec![3])])
            .unwrap();
        assert_eq!(worker.stats().failures, 1);
    }

    #[test]
    fn on_settle_reports_cancellation_when_the_dispatcher_stops() {
        // No compute engine: the invocation can never complete, so shutdown
        // must deliver `Cancelled` through the registered callback.
        let worker = worker();
        worker.compute_pool().resize(0);
        register_copy_identity(worker.registry());
        let handle = worker
            .submit("Identity", vec![DataSet::single("In", vec![1])])
            .unwrap();
        let (sender, receiver) = std::sync::mpsc::channel();
        handle.on_settle(move |outcome| sender.send(outcome).unwrap());
        worker.shutdown();
        let outcome = receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("cancellation reaches the callback");
        assert!(matches!(outcome, Err(DandelionError::Cancelled)));
    }

    #[test]
    fn shutdown_cancels_unsettled_invocations() {
        let worker = worker();
        worker
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
        worker.register_composition(graph).unwrap();
        let handle = worker
            .submit("Sleepy", vec![DataSet::single("In", vec![1])])
            .unwrap();
        worker.shutdown();
        // Settled like any other result nobody has consumed yet: retained
        // for polling, and counted.
        assert_eq!(worker.retained_results(), 1);
        let result = handle.wait(Some(Duration::from_secs(5)));
        // Either the task squeaked through before the driver stopped or the
        // invocation was cancelled; it must not hang or panic.
        if let Err(error) = result {
            assert_eq!(error, DandelionError::Cancelled);
        }
        assert_eq!(worker.retained_results(), 0);
        // New submissions are rejected after shutdown.
        register_copy_identity(worker.registry());
        assert!(matches!(
            worker.submit("Identity", vec![DataSet::single("In", vec![2])]),
            Err(DandelionError::Cancelled)
        ));
    }
}
