//! Tasks, task queues and the engine/dispatcher wire format.
//!
//! The dispatcher enqueues tasks (a prepared set of inputs plus metadata) to
//! per-engine-kind queues; engines pull from their type-specific queue to
//! ensure late binding of tasks to cores (paper §5, "Engines"). Queue
//! lengths, the tasks owed an answer, are also the control plane's only
//! input signal. An engine hands its results to the task's [`ReplySender`],
//! which applies them to the dispatcher's in-flight table on the engine's
//! own thread: no result crosses a channel.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use dandelion_common::config::EngineKind;
use dandelion_common::{DandelionError, DandelionResult, DataSet, InvocationId};
use dandelion_isolation::FunctionArtifact;

use crate::engine::{Engines, Next};
use crate::recover;

/// The work carried by a task.
///
/// A task's inputs are built once, when the dispatcher submits the instance,
/// and travel as one shared slice: the engine, a supervision requeue and the
/// function's context all hold the same allocation, so handing a task on
/// never copies set or item metadata.
#[derive(Debug, Clone)]
pub(crate) enum TaskPayload {
    /// Execute a compute function instance in a sandbox.
    Compute {
        /// The function to run.
        artifact: Arc<FunctionArtifact>,
        /// Materialized inputs for this instance.
        inputs: Arc<[DataSet]>,
        /// Whether the binary must be loaded from disk.
        cold_binary: bool,
        /// Execution timeout.
        timeout: Duration,
    },
    /// Execute an HTTP communication function instance.
    Http {
        /// Materialized inputs; every item is a serialized HTTP request.
        inputs: Arc<[DataSet]>,
        /// The output set name the responses are collected into.
        response_set: String,
    },
    /// A task whose engine died twice running it: the next engine of the
    /// pool answers it with [`DandelionError::EngineFault`] and this reason,
    /// without running it. Supervision puts it back on the queue so that
    /// nothing of the dispatcher runs on the thread that is unwinding.
    Faulted {
        /// Why the task failed.
        reason: String,
    },
}

impl TaskPayload {
    /// Which engine kind must execute this payload. A `Faulted` task is
    /// answered by the pool whose queue it is on.
    pub(crate) fn engine_kind(&self) -> EngineKind {
        match self {
            TaskPayload::Compute { .. } => EngineKind::Compute,
            TaskPayload::Http { .. } | TaskPayload::Faulted { .. } => EngineKind::Communication,
        }
    }
}

/// Where an engine hands the results of the tasks it ran: one cloneable
/// completion sink per dispatcher, carried by each of its tasks. The
/// dispatcher's sink applies the results to its in-flight table and then what
/// they cause (successor tasks, settle callbacks), all on the calling
/// engine's thread; a test that builds tasks by hand wraps its channel in
/// one.
///
/// Results come in *batches*: an engine coalesces the results of
/// consecutively executed same-invocation tasks into one call, so a fan-out
/// of N small instances takes the table lock once instead of N times.
#[derive(Clone)]
pub(crate) struct ReplySender(Arc<BatchSink>);

/// What a [`ReplySender`] calls with each batch.
type BatchSink = dyn Fn(&mut Vec<TaskResult>) + Send + Sync;

impl ReplySender {
    /// A sink that hands every batch to `sink`, which takes the results out
    /// of the list.
    pub(crate) fn new(sink: impl Fn(&mut Vec<TaskResult>) + Send + Sync + 'static) -> Self {
        Self(Arc::new(sink))
    }

    /// Hands one batch of results to the sink. The list comes back empty
    /// — whatever the sink left in it is dropped — for the caller's next
    /// batch, so an engine allocates its batch list once.
    pub(crate) fn send(&self, results: &mut Vec<TaskResult>) {
        (self.0)(results);
        results.clear();
    }
}

impl std::fmt::Debug for ReplySender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplySender")
    }
}

/// A sink that forwards every batch to a channel, with the channel's
/// receiving end: the engine's side of a test that steps the table itself.
#[cfg(test)]
pub(crate) fn reply_channel() -> (ReplySender, std::sync::mpsc::Receiver<Vec<TaskResult>>) {
    let (sender, receiver) = std::sync::mpsc::channel();
    let sink = ReplySender::new(move |batch| {
        let _ = sender.send(std::mem::take(batch));
    });
    (sink, receiver)
}

/// A schedulable unit of work.
#[derive(Debug, Clone)]
pub(crate) struct Task {
    /// The invocation this task belongs to.
    pub invocation: InvocationId,
    /// The graph node index within the invocation.
    pub node: usize,
    /// The instance index within the node (for `each`/`key` fan-out).
    pub instance: usize,
    /// The work itself.
    pub payload: TaskPayload,
    /// Where the executing engine hands the result (in batches).
    pub reply: ReplySender,
}

impl Task {
    /// This task's result when it fails with `error` before producing
    /// anything.
    pub(crate) fn failed(&self, error: DandelionError) -> TaskResult {
        TaskResult {
            invocation: self.invocation,
            node: self.node,
            instance: self.instance,
            outcome: Err(error),
            context_high_water: 0,
            modeled_latency: Duration::ZERO,
        }
    }
}

/// The result an engine sends back to the dispatcher.
#[derive(Debug, Clone)]
pub(crate) struct TaskResult {
    /// The invocation the task belonged to.
    pub invocation: InvocationId,
    /// The graph node index.
    pub node: usize,
    /// The instance index.
    pub instance: usize,
    /// The produced output sets, or the failure.
    pub outcome: DandelionResult<Vec<DataSet>>,
    /// Peak context bytes used (compute tasks only).
    pub context_high_water: usize,
    /// Modeled latency of the task (sandbox lifecycle / service latency).
    pub modeled_latency: Duration,
}

/// A task queue: the FIFO deque engines of one kind park on, in one cell
/// with the rest of their pool's state.
///
/// A push never blocks the dispatcher: [`TaskQueue::try_push`] refuses a
/// task when the queue is full. A push wakes one parked engine. Clones share
/// the cell.
#[derive(Clone)]
pub(crate) struct TaskQueue {
    kind: EngineKind,
    shared: Arc<Shared>,
}

struct Shared {
    engines: Mutex<Engines>,
    /// Engines with nothing to run wait on it.
    available: Condvar,
}

impl TaskQueue {
    /// Creates a queue for the given engine kind with a maximum depth.
    pub(crate) fn new(kind: EngineKind, capacity: usize) -> Self {
        Self {
            kind,
            shared: Arc::new(Shared {
                engines: Mutex::new(Engines::new(capacity)),
                available: Condvar::new(),
            }),
        }
    }

    /// Locks the pool's state. Only its transitions run under the lock, and
    /// each leaves it whole, so the guard of a lock poisoned by a panicking
    /// thread is as good as any.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Engines> {
        recover(self.shared.engines.lock())
    }

    /// Wakes `engines` parked engines, outside the lock.
    pub(crate) fn notify(&self, engines: usize) {
        for _ in 0..engines {
            self.shared.available.notify_one();
        }
    }

    /// Enqueues a task, applying back-pressure when the queue is full.
    pub(crate) fn try_push(&self, task: Task) -> Result<(), Task> {
        let wake = self.lock().try_push(task)?;
        self.notify(wake);
        Ok(())
    }

    /// Dequeues the next task if one is queued, without blocking.
    #[cfg(test)]
    pub(crate) fn try_pop(&self) -> Option<Task> {
        self.lock().pop_if(|_| true)
    }

    /// An engine's turn at a batch boundary: the next task, or `None` once
    /// the engine took a stop ticket. An idle engine parks on the queue's
    /// condition variable until a push or a shrink wakes it.
    pub(crate) fn next(&self) -> Option<Task> {
        let mut engines = self.lock();
        let mut woken = false;
        loop {
            match engines.next(woken) {
                Next::Run(task) => return Some(task),
                Next::Stop(wake) => {
                    drop(engines);
                    self.notify(wake);
                    return None;
                }
                Next::Park => {
                    engines = recover(self.shared.available.wait(engines));
                    woken = true;
                }
            }
        }
    }

    /// Current queue depth: the tasks owed an answer.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

impl std::fmt::Debug for TaskQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskQueue")
            .field("kind", &self.kind)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_isolation::FunctionCtx;

    fn dummy_task() -> Task {
        Task {
            invocation: InvocationId::from_raw(1),
            node: 0,
            instance: 0,
            payload: TaskPayload::Http {
                inputs: Arc::new([]),
                response_set: "Response".to_string(),
            },
            reply: ReplySender::new(|_| {}),
        }
    }

    #[test]
    fn payload_engine_kinds() {
        let compute = TaskPayload::Compute {
            artifact: Arc::new(FunctionArtifact::new("f", &["o"], |_: &mut FunctionCtx| {
                Ok(())
            })),
            inputs: Arc::new([]),
            cold_binary: false,
            timeout: Duration::from_secs(1),
        };
        assert_eq!(compute.engine_kind(), EngineKind::Compute);
        let faulted = TaskPayload::Faulted {
            reason: "engine died twice executing this task".to_string(),
        };
        assert_eq!(faulted.engine_kind(), EngineKind::Communication);
    }

    #[test]
    fn queue_tracks_depth_and_totals() {
        let queue = TaskQueue::new(EngineKind::Communication, 16);
        assert_eq!(queue.len(), 0);
        queue.try_push(dummy_task()).unwrap();
        queue.try_push(dummy_task()).unwrap();
        assert_eq!(queue.len(), 2);
        assert!(queue.try_pop().is_some());
        assert_eq!(queue.len(), 1);
        assert!(queue.try_pop().is_some());
        assert!(queue.try_pop().is_none());
    }

    #[test]
    fn try_push_applies_back_pressure() {
        let queue = TaskQueue::new(EngineKind::Communication, 1);
        assert!(queue.try_push(dummy_task()).is_ok());
        assert!(queue.try_push(dummy_task()).is_err());
        queue.try_pop().unwrap();
        assert!(queue.try_push(dummy_task()).is_ok());
    }

    #[test]
    fn queue_clones_share_state() {
        let queue = TaskQueue::new(EngineKind::Compute, 8);
        let clone = queue.clone();
        queue.try_push(dummy_task()).unwrap();
        assert_eq!(clone.len(), 1);
        assert!(clone.try_pop().is_some());
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn try_pop_is_nonblocking() {
        let queue = TaskQueue::new(EngineKind::Compute, 8);
        assert!(queue.try_pop().is_none());
        queue.try_push(dummy_task()).unwrap();
        assert!(queue.try_pop().is_some());
        assert!(queue.try_pop().is_none());
        assert_eq!(queue.len(), 0);
    }
}
