//! The Dandelion worker runtime.
//!
//! This crate implements the execution system of the paper (§5, Figure 4):
//!
//! * the **registry** of compute functions, communication functions and
//!   composition DAGs ([`Registry`]);
//! * the **dispatcher**, which tracks per-invocation dataflow state, prepares
//!   isolated memory contexts, and moves data between functions
//!   ([`InvocationState`], [`InvocationHandle`]);
//! * **compute engines** that execute untrusted functions one at a time to
//!   completion inside an isolation backend, and **communication engines**
//!   that execute trusted I/O functions cooperatively ([`EnginePool`]);
//! * the **control plane**: a PI controller that re-balances CPU cores
//!   between compute and communication engines every 30 ms based on queue
//!   growth ([`Step`]), stepped by the worker's timers;
//! * the **HTTP frontend** for registration and invocation ([`frontend`]),
//!   exposing the versioned v1 JSON API with non-blocking
//!   submit/poll invocation endpoints;
//! * the **client facade** [`DandelionClient`]: one typed
//!   submit/poll/invoke code path over a transport — a [`Frontend`] in
//!   process, or a socket (`dandelion_server::connect`).
//!
//! The paper's cluster manager (§5, Dirigent) is not in this crate: a worker
//! knows nothing of its peers, and `dandelion-server`'s gateway is the one
//! layer that load-balances invocations across worker nodes.
//!
//! The crate is usable both as a real multi-threaded runtime (see
//! [`WorkerNode`], the one place that wires these pieces together and
//! drives them, on its threads or stepped by its caller) and as a library
//! of policy components: the discrete-event simulator in `dandelion-sim`
//! reuses the PI controller under virtual time.

#![warn(unnameable_types)]

mod client;
mod control;
mod dispatcher;
mod engine;
// `pub` because `benchmark/src/workload.rs` imports it by path.
pub mod frontend;
mod invocation;
mod registry;
mod task;
mod worker;

pub use client::{ClientHandle, ClientPoll, DandelionClient};
pub use control::{CoreAllocation, Step};
pub use dispatcher::{
    InvocationHandle, InvocationOutcome, InvocationReport, InvocationSnapshot, InvocationStatus,
};
pub use engine::EnginePool;
pub use frontend::{sync_invoke_response, Frontend, FrontendReply, StatsSource};
pub use invocation::{InstanceCompletion, InstanceSpec, InvocationState};
pub use registry::Registry;
pub use worker::{default_test_services, Stepped, WorkerNode, WorkerStats};

/// The guard of a lock whose every update leaves its data whole, poisoned or
/// not (the lock rule in `dandelion_common`'s crate docs).
fn recover<G>(locked: std::sync::LockResult<G>) -> G {
    locked.unwrap_or_else(std::sync::PoisonError::into_inner)
}
