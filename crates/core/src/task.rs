//! Tasks and the engine/dispatcher wire format.
//!
//! A task is plain data: the instance it runs and its payload. What every
//! task of a pool shares, the completion sink and the function timeout,
//! lives on the pool ([`crate::engine`]). An engine hands its results to
//! its pool's [`ReplySender`], which applies them to the dispatcher's
//! in-flight table on the engine's own thread: no result crosses a channel.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dandelion_common::config::EngineKind;
use dandelion_common::{DandelionError, DandelionResult, DataSet, InvocationId};
use dandelion_isolation::FunctionArtifact;

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
/// completion sink per dispatcher, held by each of its engine pools. The
/// dispatcher's sink applies the results to its in-flight table at the `now`
/// its caller passes, and then what they cause (successor tasks, settle
/// callbacks), all on the calling engine's thread; it reads no clock itself,
/// so a stepped worker settles at its caller's time.
///
/// Results come in *batches*: an engine coalesces the results of
/// consecutively executed same-invocation tasks into one call, so a fan-out
/// of N small instances takes the table lock once instead of N times.
#[derive(Clone)]
pub(crate) struct ReplySender(Arc<BatchSink>);

/// What a [`ReplySender`] calls with each batch and the time it settles at.
type BatchSink = dyn Fn(&mut Vec<TaskResult>, Instant) + Send + Sync;

impl ReplySender {
    /// A sink that hands every batch to `sink`, which takes the results out
    /// of the list.
    pub(crate) fn new(
        sink: impl Fn(&mut Vec<TaskResult>, Instant) + Send + Sync + 'static,
    ) -> Self {
        Self(Arc::new(sink))
    }

    /// Hands one batch of results, settled at `now`, to the sink. The list
    /// comes back empty — whatever the sink left in it is dropped — for the
    /// caller's next batch, so an engine allocates its batch list once.
    pub(crate) fn send(&self, results: &mut Vec<TaskResult>, now: Instant) {
        (self.0)(results, now);
        results.clear();
    }
}

impl std::fmt::Debug for ReplySender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplySender")
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_isolation::FunctionCtx;

    #[test]
    fn payload_engine_kinds() {
        let compute = TaskPayload::Compute {
            artifact: Arc::new(FunctionArtifact::new("f", &["o"], |_: &mut FunctionCtx| {
                Ok(())
            })),
            inputs: Arc::new([]),
            cold_binary: false,
        };
        assert_eq!(compute.engine_kind(), EngineKind::Compute);
        let faulted = TaskPayload::Faulted {
            reason: "engine died twice executing this task".to_string(),
        };
        assert_eq!(faulted.engine_kind(), EngineKind::Communication);
    }
}
