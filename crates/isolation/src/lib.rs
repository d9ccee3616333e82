//! Memory contexts, the compute-function ABI and isolation backends.
//!
//! Dandelion executes untrusted *pure compute functions* inside lightweight
//! sandboxes. The platform prepares an isolated [`MemoryContext`] for each
//! function instance, maps the function binary and attaches its inputs to the
//! context, runs the function through one of several [`IsolationBackend`]s,
//! and parses the outputs the function left behind (paper §5, §6.2).
//!
//! The paper implements four backends (CHERI, KVM, process, rWasm) to show
//! that the platform design is independent of the isolation mechanism. This
//! reproduction keeps the same staged lifecycle and per-backend syscall
//! policy, but the hardware mechanisms themselves (Morello capabilities,
//! VT-x) are replaced by an in-process bounds-checked execution (the
//! hardware is not available to a portable build, and the paper's argument
//! rests on the lifecycle and its stage costs, not on the mechanism):
//!
//! * every backend really accounts binary and inputs against the context's
//!   capacity, invokes the function with a capacity-bounded virtual
//!   filesystem on demand, serializes the outputs into the
//!   memory context using the binary descriptor format of
//!   [`output_parser`], and re-parses them exactly as the trusted engine
//!   would;
//! * what each stage costs on the paper's hardware is a model,
//!   [`SandboxCostModel`], calibrated against Table 1: the simulator and
//!   the experiment harness read it by kind, and no execution is charged by
//!   it, so a running node reports only what it measured.
//!
//! The crate's parts:
//!
//! * [`MemoryContext`] — the capacity-bounded set of regions attached to one
//!   function instance.
//! * The function ABI: [`FunctionArtifact`]s and the [`FunctionCtx`] handed
//!   to user code.
//! * [`output_parser`] — the small, heavily tested parser for the output
//!   descriptor a function leaves in its context (paper §8 emphasizes this
//!   parser is ~100 lines and must be memory safe).
//! * [`SandboxCostModel`] — per-backend, per-stage latency models (Table 1),
//!   for virtual-time experiments only.
//! * [`SyscallPolicy`] — the syscall stub/deny policy compute functions run
//!   under.
//! * [`IsolationBackend`] — the staged executor's interface, and
//!   [`create_backend`]: the executor under the syscall policy of CHERI,
//!   KVM, process, rWasm or native.

#![warn(unnameable_types)]

mod abi;
mod backend;
mod backends;
mod context;
mod cost;
// `pub` because `benchmark/src/{workload,layerwalk}.rs` import it by path.
pub mod output_parser;
mod policy;

pub use abi::{ComputeLogic, FunctionArtifact, FunctionCtx, FunctionError};
pub use backend::{ExecutionReport, ExecutionTask, IsolationBackend, StageTimings};
pub use backends::create_backend;
pub use context::MemoryContext;
pub use cost::{HardwarePlatform, SandboxCostModel, Stage};
pub use policy::{SyscallDisposition, SyscallPolicy};
