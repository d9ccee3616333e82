//! The isolation backend interface and the staged executor.
//!
//! Every backend executes the same sandbox lifecycle (the stages of Table 1):
//! marshal the task, map the function binary into the memory context,
//! attach the inputs, execute the function body, collect the outputs it
//! left behind, and clean up. The [`StagedExecutor`] implements that
//! lifecycle once and is the one [`IsolationBackend`];
//! [`create_backend`](crate::backends::create_backend) gives it each
//! mechanism's syscall policy and cost model.
//!
//! Nothing a task is handed — binary, inputs, output-set names, syscall
//! policy — is copied on the way in: each is a shared, read-only reference
//! counted against the context's capacity. The stages whose hardware cost is
//! a copy or a page-table update are *charged* by the cost model
//! ([`ExecutionReport::modeled`]); what [`ExecutionReport::measured`] times
//! is this runtime's own bookkeeping.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dandelion_common::config::IsolationKind;
use dandelion_common::{DandelionError, DandelionResult, DataItem, DataSet};

use crate::abi::{FunctionArtifact, FunctionCtx};
use crate::context::MemoryContext;
use crate::cost::{SandboxCostModel, Stage};
use crate::output_parser::{self, FrameEntry};
use crate::policy::SyscallPolicy;

/// Per-stage durations, either measured or modeled: one slot per [`Stage`],
/// in [`Stage::ALL`] order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTimings {
    durations: [Duration; Stage::ALL.len()],
}

impl StageTimings {
    /// Creates an empty timing record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the duration of a stage (overwriting any previous value).
    pub fn record(&mut self, stage: Stage, duration: Duration) {
        self.durations[stage as usize] = duration;
    }

    /// Returns the duration of a stage, defaulting to zero.
    pub fn get(&self, stage: Stage) -> Duration {
        self.durations[stage as usize]
    }

    /// Sum of all recorded stages.
    pub fn total(&self) -> Duration {
        self.durations.iter().sum()
    }

    /// Builds the modeled timings for a backend given whether the binary was
    /// cold and how long the function body took.
    pub fn modeled(model: &SandboxCostModel, cold_binary: bool, body: Duration) -> Self {
        let mut timings = Self::new();
        for stage in Stage::ALL {
            let mut cost = model.stage_cost(stage, cold_binary);
            if stage == Stage::Execute {
                cost += body.mul_f64(model.compute_slowdown);
            }
            timings.record(stage, cost);
        }
        timings
    }
}

/// A unit of work handed to an isolation backend.
#[derive(Debug, Clone)]
pub struct ExecutionTask {
    /// The function to execute.
    pub artifact: Arc<FunctionArtifact>,
    /// Materialized input sets, shared with whoever submitted the task:
    /// handing them on (engine → backend → [`FunctionCtx`]) is a reference
    /// count, never a copy of the set and item metadata.
    pub inputs: Arc<[DataSet]>,
    /// Whether the function binary has to be loaded "from disk" (cold) or is
    /// already cached in memory.
    pub cold_binary: bool,
    /// User-specified execution timeout; exceeding it is a fault.
    pub timeout: Duration,
}

impl ExecutionTask {
    /// Creates a task with a warm binary and a 30 s timeout. `inputs` is a
    /// `Vec<DataSet>` or an already shared `Arc<[DataSet]>`.
    pub fn new(artifact: Arc<FunctionArtifact>, inputs: impl Into<Arc<[DataSet]>>) -> Self {
        Self {
            artifact,
            inputs: inputs.into(),
            cold_binary: false,
            timeout: Duration::from_secs(30),
        }
    }

    /// Marks the binary as requiring a cold load.
    pub fn with_cold_binary(mut self, cold: bool) -> Self {
        self.cold_binary = cold;
        self
    }

    /// Overrides the execution timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }
}

/// The result of executing a task in a sandbox.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The function's output sets (one per declared output set).
    pub outputs: Vec<DataSet>,
    /// Wall-clock stage timings measured on this machine.
    pub measured: StageTimings,
    /// Stage timings from the backend's calibrated cost model, used by
    /// virtual-time experiments.
    pub modeled: StageTimings,
    /// Peak bytes committed in the function's memory context.
    pub context_high_water: usize,
}

impl ExecutionReport {
    /// Total measured latency of the invocation.
    pub fn measured_total(&self) -> Duration {
        self.measured.total()
    }

    /// Total modeled latency of the invocation.
    pub fn modeled_total(&self) -> Duration {
        self.modeled.total()
    }
}

/// A mechanism that can execute compute functions in isolation.
pub trait IsolationBackend: Send + Sync {
    /// Which isolation mechanism this backend implements.
    fn kind(&self) -> IsolationKind;

    /// The calibrated cost model for this backend.
    fn cost_model(&self) -> &SandboxCostModel;

    /// Executes one task to completion inside a fresh sandbox.
    fn execute(&self, task: &ExecutionTask) -> DandelionResult<ExecutionReport>;
}

/// The staged execution every isolation mechanism shares.
///
/// The stages do the bookkeeping the mechanism would do — the binary, the
/// inputs and the outputs are really attached to a capacity-bounded
/// [`MemoryContext`], the function really runs with no authority beyond its
/// [`FunctionCtx`], and the outputs really round-trip through the untrusted
/// output descriptor parser — so that functional behaviour, capacity
/// enforcement and fault paths are genuine even though the absolute stage
/// latencies of the original hardware are modeled.
pub(crate) struct StagedExecutor {
    kind: IsolationKind,
    policy: Arc<SyscallPolicy>,
    cost: SandboxCostModel,
}

impl StagedExecutor {
    /// Creates an executor for a backend.
    pub(crate) fn new(kind: IsolationKind, policy: SyscallPolicy, cost: SandboxCostModel) -> Self {
        Self {
            kind,
            policy: Arc::new(policy),
            cost,
        }
    }
}

impl IsolationBackend for StagedExecutor {
    fn kind(&self) -> IsolationKind {
        self.kind
    }

    fn cost_model(&self) -> &SandboxCostModel {
        &self.cost
    }

    /// Runs the full sandbox lifecycle for one task.
    fn execute(&self, task: &ExecutionTask) -> DandelionResult<ExecutionReport> {
        let artifact = &task.artifact;
        // One clock read per stage boundary: each stage runs from the read
        // that ended the one before it to its own.
        let mut measured = StageTimings::new();
        let mut boundary = Instant::now();
        let mut lap = |stage: Stage| {
            let now = Instant::now();
            let elapsed = now - boundary;
            measured.record(stage, elapsed);
            boundary = now;
            elapsed
        };

        // Stage 1: marshal — validate the task shape.
        if artifact.output_sets.is_empty() {
            return Err(DandelionError::FunctionFault {
                function: artifact.name.clone(),
                reason: "function declares no output sets".to_string(),
            });
        }
        let input_bytes = dandelion_common::total_bytes(&task.inputs);
        if input_bytes > artifact.memory_requirement {
            return Err(DandelionError::ContextError(format!(
                "inputs of {} bytes exceed the declared memory requirement of {} bytes",
                input_bytes, artifact.memory_requirement
            )));
        }
        lap(Stage::Marshal);

        // Stage 2: load — map the cached binary into the context. The
        // artifact's binary is one read-only buffer built at registration;
        // every sandbox of the function attaches it by reference, the way
        // the real backends share the page-cache mapping of a cached binary.
        // It counts toward the context's capacity and high-water mark byte
        // for byte, but no byte of it is touched here. (What a cold or warm
        // load costs on the paper's hardware is the cost model's charge,
        // `modeled`, not this span.)
        // Its region list is sized for what a sandbox attaches: the binary,
        // every input item, the frame and an item per declared output set.
        let regions =
            2 + task.inputs.iter().map(DataSet::len).sum::<usize>() + artifact.output_sets.len();
        let mut context = MemoryContext::with_regions(
            artifact.memory_requirement + artifact.binary.len() + 4096,
            regions,
        );
        context.import(&artifact.binary)?;
        lap(Stage::Load);

        // Stage 3: transfer input — attach input payloads to the context by
        // reference (the zero-copy data passing of paper §6.1). The bytes
        // stay in the producer's buffer; only capacity accounting happens
        // here.
        for set in task.inputs.iter() {
            for item in &set.items {
                context.import(&item.data)?;
            }
        }
        lap(Stage::TransferInput);

        // Stage 4: execute — run the body. The function's context shares the
        // task's inputs, the artifact's output-set names and the backend's
        // syscall policy; its filesystem view of the inputs exists only if
        // the body asks for it.
        let mut ctx = FunctionCtx::new(
            Arc::clone(&task.inputs),
            Arc::clone(&artifact.output_sets),
            artifact.memory_requirement,
            Arc::clone(&self.policy),
        )
        .map_err(|err| DandelionError::FunctionFault {
            function: artifact.name.clone(),
            reason: err.to_string(),
        })?;
        let run_result = catch_unwind(AssertUnwindSafe(|| artifact.logic.run(&mut ctx)));
        let body_elapsed = lap(Stage::Execute);

        match run_result {
            Err(_) => {
                return Err(DandelionError::FunctionFault {
                    function: artifact.name.clone(),
                    reason: "function panicked".to_string(),
                })
            }
            Ok(Err(err)) => {
                return Err(DandelionError::FunctionFault {
                    function: artifact.name.clone(),
                    reason: err.to_string(),
                })
            }
            Ok(Ok(())) => {}
        }
        if let Some(fault) = ctx.fault() {
            return Err(DandelionError::FunctionFault {
                function: artifact.name.clone(),
                reason: fault.to_string(),
            });
        }
        if body_elapsed > task.timeout {
            return Err(DandelionError::Timeout {
                function: artifact.name.clone(),
                limit_ms: task.timeout.as_millis() as u64,
            });
        }

        // Stage 5: output — the dlibc exit shim leaves a metadata *frame*
        // (set/item names, keys, payload lengths) in the context; the
        // payload bytes already live in the function's memory and are never
        // re-serialized. The frame is built once in a pooled, exactly sized
        // buffer, attached to the context by reference (counting toward its
        // capacity exactly as writing it there would), and round-tripped
        // through the bounded frame parser; each payload is then attached by
        // reference after checking it against the declared length — so
        // downstream consumers receive views of the producer's buffers, not
        // copies — and the staged sets, checked entry by entry, are the
        // outputs as they are. (The payload-carrying descriptor of
        // `encode_outputs` remains the wire format at the HTTP boundary.)
        // Its span starts at the body's return, so it includes the checks
        // just above.
        let outputs = ctx.take_outputs();
        let frame = output_parser::encode_frame(&outputs);
        context.import(&frame)?;
        attach_frame_payloads(&artifact.name, &frame, &outputs, &mut context)?;
        lap(Stage::Output);

        // Stage 6: other — context teardown: detach the binary, the inputs,
        // the frame and the outputs (a reference count each).
        let high_water = context.high_water_bytes();
        context.clear();
        lap(Stage::Other);

        let modeled = StageTimings::modeled(&self.cost, task.cold_binary, body_elapsed);
        Ok(ExecutionReport {
            outputs,
            measured,
            modeled,
            context_high_water: high_water,
        })
    }
}

/// Reads the frame with the bounded parser and checks every entry against
/// the staged output sets, attaching each staged payload to the context by
/// reference: the staged sets are the outputs, nothing is rebuilt. Any
/// disagreement — the set count, a set's name or item count, an item's
/// name, key or declared length — is a function fault: the shim and the
/// engine must agree on the output layout.
fn attach_frame_payloads(
    function: &str,
    frame: &[u8],
    staged: &[DataSet],
    context: &mut MemoryContext,
) -> DandelionResult<()> {
    let fault = |reason: String| DandelionError::FunctionFault {
        function: function.to_string(),
        reason,
    };
    let beyond = || fault("output frame describes more than was staged".to_string());
    let mut sets = staged.iter();
    let mut items = [].iter();
    output_parser::parse_frame(frame, |entry| {
        match entry {
            FrameEntry::Sets(count) if count != staged.len() => {
                return Err(fault(format!(
                    "output frame describes {count} sets but {} were staged",
                    staged.len()
                )));
            }
            FrameEntry::Sets(_) => {}
            FrameEntry::Set { name, items: count } => {
                let set = sets.next().ok_or_else(beyond)?;
                if name != set.name || count != set.items.len() {
                    return Err(fault(format!(
                        "output frame disagrees with staged set `{}`",
                        set.name
                    )));
                }
                items = set.items.iter();
            }
            FrameEntry::Item {
                name,
                key,
                data_len,
            } => {
                let item: &DataItem = items.next().ok_or_else(beyond)?;
                if name != item.name || key != item.key.as_deref() {
                    return Err(fault(format!(
                        "output frame disagrees with staged item `{}`",
                        item.name
                    )));
                }
                if data_len != item.data.len() {
                    return Err(fault(format!(
                        "output item `{name}` declares {data_len} bytes but carries {}",
                        item.data.len()
                    )));
                }
                context.import(&item.data)?;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::FunctionCtx;
    use crate::cost::HardwarePlatform;
    use dandelion_common::DataItem;

    fn echo_artifact() -> Arc<FunctionArtifact> {
        Arc::new(FunctionArtifact::new(
            "echo",
            &["out"],
            |ctx: &mut FunctionCtx| {
                let input = ctx.single_input("in")?.clone();
                ctx.push_output("out", DataItem::new("echo", input.data.as_slice().to_vec()))
            },
        ))
    }

    fn executor() -> StagedExecutor {
        StagedExecutor::new(
            IsolationKind::Native,
            SyscallPolicy::permissive(),
            SandboxCostModel::for_backend(IsolationKind::Native, HardwarePlatform::Morello),
        )
    }

    #[test]
    fn executes_a_simple_function() {
        let task = ExecutionTask::new(
            echo_artifact(),
            vec![DataSet::single("in", b"ping".to_vec())],
        );
        let report = executor().execute(&task).unwrap();
        assert_eq!(report.outputs.len(), 1);
        assert_eq!(report.outputs[0].items[0].data.as_slice(), b"ping");
        assert!(report.context_high_water > 0);
        assert!(report.measured_total() > Duration::ZERO);
        assert!(report.modeled_total() > Duration::ZERO);
    }

    #[test]
    fn modeled_timings_include_cold_load_penalty() {
        let task = ExecutionTask::new(echo_artifact(), vec![DataSet::single("in", b"x".to_vec())]);
        let warm = executor().execute(&task).unwrap();
        let cold = executor()
            .execute(&task.clone().with_cold_binary(true))
            .unwrap();
        assert!(cold.modeled.get(Stage::Load) > warm.modeled.get(Stage::Load));
    }

    #[test]
    fn function_errors_become_faults() {
        let failing = Arc::new(FunctionArtifact::new(
            "fail",
            &["out"],
            |_ctx: &mut FunctionCtx| Err("boom".into()),
        ));
        let err = executor()
            .execute(&ExecutionTask::new(failing, vec![]))
            .unwrap_err();
        assert!(matches!(err, DandelionError::FunctionFault { .. }));
    }

    #[test]
    fn panics_are_contained() {
        let panicking = Arc::new(FunctionArtifact::new(
            "panic",
            &["out"],
            |_ctx: &mut FunctionCtx| -> Result<(), crate::abi::FunctionError> {
                panic!("user code exploded")
            },
        ));
        let err = executor()
            .execute(&ExecutionTask::new(panicking, vec![]))
            .unwrap_err();
        match err {
            DandelionError::FunctionFault { reason, .. } => {
                assert!(reason.contains("panicked"))
            }
            other => panic!("expected fault, got {other}"),
        }
    }

    #[test]
    fn forbidden_syscalls_terminate_the_function() {
        let strict = StagedExecutor::new(
            IsolationKind::Process,
            SyscallPolicy::strict(),
            SandboxCostModel::for_backend(IsolationKind::Process, HardwarePlatform::Morello),
        );
        let nosy = Arc::new(FunctionArtifact::new(
            "nosy",
            &["out"],
            |ctx: &mut FunctionCtx| {
                // A stubbed call is fine...
                let _ = ctx.syscall("mmap");
                // ...but an arbitrary one gets the function killed.
                ctx.syscall("execve").map(|_| ())
            },
        ));
        let err = strict
            .execute(&ExecutionTask::new(nosy, vec![]))
            .unwrap_err();
        assert!(matches!(err, DandelionError::FunctionFault { .. }));
        assert!(err.to_string().contains("execve"));
    }

    #[test]
    fn inputs_exceeding_memory_requirement_are_rejected() {
        let tiny = Arc::new(
            FunctionArtifact::new("tiny", &["out"], |_ctx: &mut FunctionCtx| Ok(()))
                .with_memory_requirement(8),
        );
        let err = executor()
            .execute(&ExecutionTask::new(
                tiny,
                vec![DataSet::single("in", vec![0u8; 64])],
            ))
            .unwrap_err();
        assert!(matches!(err, DandelionError::ContextError(_)));
    }

    /// The context's accounting, pinned byte for byte: the mapped binary,
    /// every input, the output frame and every output count toward the
    /// high-water mark.
    #[test]
    fn high_water_is_binary_plus_inputs_plus_frame_plus_outputs() {
        let artifact = Arc::new((*echo_artifact()).clone().with_binary_size(48 * 1024));
        let task = ExecutionTask::new(artifact, vec![DataSet::single("in", vec![7u8; 1000])]);
        let report = executor().execute(&task).unwrap();
        let frame = output_parser::encode_frame(&report.outputs);
        assert_eq!(
            report.context_high_water,
            48 * 1024 + 1000 + frame.len() + 1000
        );
        assert_eq!(report.context_high_water, 51_187);
    }

    /// The binary's share of the capacity is consumed by the binary: a task
    /// whose inputs and outputs would only fit if the binary were not
    /// counted is rejected, one that fits next to it is accepted.
    #[test]
    fn the_binary_still_occupies_its_share_of_the_capacity() {
        let artifact = Arc::new((*echo_artifact()).clone().with_memory_requirement(8192));
        // Capacity is 8192 + 64 KiB + 4096. 8000 bytes in pass the marshal
        // check; 8000 in + 8000 out + frame exceed what the binary leaves.
        let err = executor()
            .execute(&ExecutionTask::new(
                Arc::clone(&artifact),
                vec![DataSet::single("in", vec![1u8; 8000])],
            ))
            .unwrap_err();
        assert!(matches!(err, DandelionError::ContextError(_)), "{err}");
        let report = executor()
            .execute(&ExecutionTask::new(
                artifact,
                vec![DataSet::single("in", vec![1u8; 6000])],
            ))
            .unwrap();
        assert!(report.context_high_water > 64 * 1024 + 12_000);
        assert!(report.context_high_water <= 64 * 1024 + 8192 + 4096);
    }

    #[test]
    fn timeouts_are_reported() {
        let slow = Arc::new(FunctionArtifact::new(
            "slow",
            &["out"],
            |_ctx: &mut FunctionCtx| {
                std::thread::sleep(Duration::from_millis(20));
                Ok(())
            },
        ));
        let err = executor()
            .execute(&ExecutionTask::new(slow, vec![]).with_timeout(Duration::from_millis(1)))
            .unwrap_err();
        assert!(matches!(err, DandelionError::Timeout { .. }));
    }

    #[test]
    fn stage_timings_cover_all_stages() {
        let task = ExecutionTask::new(
            echo_artifact(),
            vec![DataSet::single("in", b"ping".to_vec())],
        );
        let report = executor().execute(&task).unwrap();
        for stage in Stage::ALL {
            // Modeled timings always have an entry for every stage.
            assert!(report.modeled.get(stage) > Duration::ZERO, "{stage:?}");
        }
    }
}
