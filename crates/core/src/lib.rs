//! The Dandelion worker runtime.
//!
//! This crate implements the execution system of the paper (§5, Figure 4):
//!
//! * the **registry** of compute functions, communication functions and
//!   composition DAGs ([`Registry`]);
//! * the **dispatcher**, which tracks per-invocation dataflow state, prepares
//!   isolated memory contexts, and moves data between functions
//!   ([`InvocationState`], [`Dispatcher`]);
//! * **compute engines** that execute untrusted functions one at a time to
//!   completion inside an isolation backend, and **communication engines**
//!   that execute trusted I/O functions cooperatively ([`EnginePool`],
//!   [`TaskQueue`]);
//! * the **control plane**: a PI controller that re-balances CPU cores
//!   between compute and communication engines every 30 ms based on queue
//!   growth ([`Step`]);
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
//! [`WorkerNode`]) and as a library of policy components: the
//! discrete-event simulator in `dandelion-sim` reuses the PI controller
//! under virtual time.

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

pub use client::DandelionClient;
pub use control::{CoreAllocation, Step};
pub use dispatcher::{Dispatcher, InvocationStatus};
pub use engine::{EngineExecutor, EnginePool};
pub use frontend::{sync_invoke_response, Frontend, FrontendReply, StatsSource};
pub use invocation::{InstanceCompletion, InvocationState};
pub use registry::Registry;
pub use task::{ReplySender, Task, TaskPayload, TaskQueue};
pub use worker::{default_test_services, WorkerNode};
