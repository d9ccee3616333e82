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
//! reproduction keeps the same staged lifecycle and per-backend behaviour,
//! but the hardware mechanisms themselves (Morello capabilities, VT-x) are
//! replaced by an in-process bounds-checked execution with a calibrated cost
//! model (the hardware is not available to a portable build, and the paper's
//! argument rests on the lifecycle and its stage costs, not on the
//! mechanism):
//!
//! * every backend really accounts binary and inputs against the context's
//!   capacity, invokes the function with a capacity-bounded virtual
//!   filesystem on demand, serializes the outputs into the
//!   memory context using the binary descriptor format of
//!   [`output_parser`], and re-parses them exactly as the trusted engine
//!   would;
//! * per-stage latencies for virtual-time experiments come from
//!   [`cost::SandboxCostModel`], calibrated against Table 1 of the paper.
//!
//! The module layout mirrors the subsystems:
//!
//! * [`context`] — the capacity-bounded set of regions attached to one
//!   function instance.
//! * [`abi`] — the function ABI: artifacts, the [`abi::ComputeLogic`] trait
//!   and the [`abi::FunctionCtx`] handed to user code.
//! * [`output_parser`] — the small, heavily tested parser for the output
//!   descriptor a function leaves in its context (paper §8 emphasizes this
//!   parser is ~100 lines and must be memory safe).
//! * [`cost`] — per-backend, per-stage latency models (Table 1).
//! * [`policy`] — the syscall stub/deny policy compute functions run under.
//! * [`backend`] — the [`IsolationBackend`] trait and the staged executor
//!   that implements it.
//! * [`backends`] — [`create_backend`]: the executor configured as CHERI,
//!   KVM, process, rWasm or native.

pub mod abi;
pub mod backend;
pub mod backends;
pub mod context;
pub mod cost;
pub mod output_parser;
pub mod policy;

pub use abi::{ComputeLogic, FunctionArtifact, FunctionCtx};
pub use backend::{ExecutionReport, ExecutionTask, IsolationBackend, StageTimings};
pub use backends::create_backend;
pub use context::MemoryContext;
pub use cost::{HardwarePlatform, SandboxCostModel, Stage};
pub use policy::{SyscallDisposition, SyscallPolicy};
