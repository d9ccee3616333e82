//! Tasks, task queues and the engine/dispatcher wire format.
//!
//! The dispatcher enqueues tasks (a prepared set of inputs plus metadata) to
//! per-engine-kind queues; engines poll their type-specific queue to ensure
//! late binding of tasks to cores (paper §5, "Engines"). Queue lengths are
//! also the control plane's only input signal, so the queues track the
//! statistics the PI controller needs.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender, TrySendError};
use dandelion_common::config::EngineKind;
use dandelion_common::{DandelionResult, DataSet, InvocationId};
use dandelion_isolation::FunctionArtifact;

/// The work carried by a task.
///
/// A task's inputs are built once, when the dispatcher submits the instance,
/// and travel as one shared slice: the engine, a supervision requeue and the
/// function's context all hold the same allocation, so handing a task on
/// never copies set or item metadata.
#[derive(Debug, Clone)]
pub enum TaskPayload {
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
    /// Ask an engine of this kind to shut down (used to shrink a pool).
    Shutdown,
}

impl TaskPayload {
    /// Which engine kind must execute this payload.
    pub fn engine_kind(&self) -> EngineKind {
        match self {
            TaskPayload::Compute { .. } => EngineKind::Compute,
            TaskPayload::Http { .. } | TaskPayload::Shutdown => EngineKind::Communication,
        }
    }
}

/// The reply channel engines send completed task results on.
///
/// Results cross the channel in *batches*: an engine coalesces the results
/// of consecutively executed same-invocation tasks into one message, so a
/// fan-out of N small instances costs one channel round-trip instead of N.
/// The driver drains whole batches per wakeup on the receiving side.
pub type ReplySender = Sender<Vec<TaskResult>>;

/// A schedulable unit of work.
#[derive(Debug, Clone)]
pub struct Task {
    /// The invocation this task belongs to.
    pub invocation: InvocationId,
    /// The graph node index within the invocation.
    pub node: usize,
    /// The instance index within the node (for `each`/`key` fan-out).
    pub instance: usize,
    /// The work itself.
    pub payload: TaskPayload,
    /// Channel the executing engine replies on (in batches).
    pub reply: ReplySender,
}

/// The result an engine sends back to the dispatcher.
#[derive(Debug, Clone)]
pub struct TaskResult {
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

/// A task queue with the statistics the control plane samples.
///
/// Built on an unbounded crossbeam channel: `push` never blocks the
/// dispatcher; capacity-induced back-pressure is applied explicitly via
/// [`TaskQueue::try_push`] when a maximum depth is configured.
#[derive(Clone)]
pub struct TaskQueue {
    kind: EngineKind,
    sender: Sender<Task>,
    receiver: Receiver<Task>,
    depth: Arc<AtomicI64>,
    enqueued_total: Arc<AtomicU64>,
    capacity: usize,
}

impl TaskQueue {
    /// Creates a queue for the given engine kind with a maximum depth.
    pub fn new(kind: EngineKind, capacity: usize) -> Self {
        let (sender, receiver) = unbounded();
        Self {
            kind,
            sender,
            receiver,
            depth: Arc::new(AtomicI64::new(0)),
            enqueued_total: Arc::new(AtomicU64::new(0)),
            capacity,
        }
    }

    /// The engine kind this queue feeds.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Enqueues a task, applying back-pressure when the queue is full.
    pub fn try_push(&self, task: Task) -> Result<(), Task> {
        if self.len() >= self.capacity {
            return Err(task);
        }
        self.push(task);
        Ok(())
    }

    /// Enqueues a task unconditionally.
    pub fn push(&self, task: Task) {
        self.depth.fetch_add(1, Ordering::SeqCst);
        self.enqueued_total.fetch_add(1, Ordering::Relaxed);
        match self.sender.try_send(task) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                // Unbounded channel with a live receiver handle held by the
                // queue itself: this cannot happen.
                self.depth.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Dequeues the next task, waiting up to `timeout`.
    pub fn pop(&self, timeout: Duration) -> Option<Task> {
        match self.receiver.recv_timeout(timeout) {
            Ok(task) => {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                Some(task)
            }
            Err(_) => None,
        }
    }

    /// Dequeues the next task if one is immediately available, without
    /// blocking.
    ///
    /// Engines use this after finishing a task to coalesce further
    /// already-queued work of the same invocation into one reply batch.
    pub fn try_pop(&self) -> Option<Task> {
        match self.receiver.try_recv() {
            Ok(task) => {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                Some(task)
            }
            Err(_) => None,
        }
    }

    /// Dequeues the next task, blocking until one arrives.
    ///
    /// Engines use this instead of polling [`TaskQueue::pop`] in a loop: an
    /// idle engine parks on the queue's condition variable and is woken by
    /// either real work or a [`TaskPayload::Shutdown`] marker.
    pub fn pop_wait(&self) -> Option<Task> {
        match self.receiver.recv() {
            Ok(task) => {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                Some(task)
            }
            // The queue holds its own sender, so a disconnect can only
            // happen while the queue itself is being torn down.
            Err(_) => None,
        }
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.depth.load(Ordering::SeqCst).max(0) as usize
    }

    /// Returns `true` if the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of tasks ever enqueued (monotonic).
    pub fn enqueued_total(&self) -> u64 {
        self.enqueued_total.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for TaskQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskQueue")
            .field("kind", &self.kind)
            .field("len", &self.len())
            .field("enqueued_total", &self.enqueued_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_isolation::FunctionCtx;

    fn dummy_task(reply: ReplySender) -> Task {
        Task {
            invocation: InvocationId::from_raw(1),
            node: 0,
            instance: 0,
            payload: TaskPayload::Http {
                inputs: Arc::new([]),
                response_set: "Response".to_string(),
            },
            reply,
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
        assert_eq!(
            TaskPayload::Shutdown.engine_kind(),
            EngineKind::Communication
        );
    }

    #[test]
    fn queue_tracks_depth_and_totals() {
        let queue = TaskQueue::new(EngineKind::Communication, 16);
        let (reply, _rx) = unbounded();
        assert!(queue.is_empty());
        queue.push(dummy_task(reply.clone()));
        queue.push(dummy_task(reply.clone()));
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.enqueued_total(), 2);
        assert!(queue.pop(Duration::from_millis(10)).is_some());
        assert_eq!(queue.len(), 1);
        assert!(queue.pop(Duration::from_millis(10)).is_some());
        assert!(queue.pop(Duration::from_millis(10)).is_none());
        assert_eq!(queue.enqueued_total(), 2);
    }

    #[test]
    fn try_push_applies_back_pressure() {
        let queue = TaskQueue::new(EngineKind::Communication, 1);
        let (reply, _rx) = unbounded();
        assert!(queue.try_push(dummy_task(reply.clone())).is_ok());
        assert!(queue.try_push(dummy_task(reply.clone())).is_err());
        queue.pop(Duration::from_millis(10)).unwrap();
        assert!(queue.try_push(dummy_task(reply)).is_ok());
    }

    #[test]
    fn queue_clones_share_state() {
        let queue = TaskQueue::new(EngineKind::Compute, 8);
        let clone = queue.clone();
        let (reply, _rx) = unbounded();
        queue.push(dummy_task(reply));
        assert_eq!(clone.len(), 1);
        assert!(clone.pop(Duration::from_millis(10)).is_some());
        assert!(queue.is_empty());
    }

    #[test]
    fn try_pop_is_nonblocking() {
        let queue = TaskQueue::new(EngineKind::Compute, 8);
        assert!(queue.try_pop().is_none());
        let (reply, _rx) = unbounded();
        queue.push(dummy_task(reply));
        assert!(queue.try_pop().is_some());
        assert!(queue.try_pop().is_none());
        assert!(queue.is_empty());
    }
}
