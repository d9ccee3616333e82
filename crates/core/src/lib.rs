//! The Dandelion worker runtime.
//!
//! This crate implements the execution system of the paper (§5, Figure 4):
//!
//! * the **registry** of compute functions, communication functions and
//!   composition DAGs ([`registry`]);
//! * the **dispatcher**, which tracks per-invocation dataflow state, prepares
//!   isolated memory contexts, and moves data between functions
//!   ([`invocation`], [`dispatcher`]);
//! * **compute engines** that execute untrusted functions one at a time to
//!   completion inside an isolation backend, and **communication engines**
//!   that execute trusted I/O functions cooperatively ([`engine`], [`task`]);
//! * the **control plane**: a PI controller that re-balances CPU cores
//!   between compute and communication engines every 30 ms based on queue
//!   growth ([`control`]);
//! * the **HTTP frontend** for registration and invocation ([`frontend`]),
//!   exposing the versioned v1 JSON API with non-blocking
//!   submit/poll invocation endpoints;
//! * the **client facade** [`client::DandelionClient`]: one typed
//!   submit/poll/invoke code path over a transport — a [`Frontend`] in
//!   process, or a socket (`dandelion_server::connect`).
//!
//! The paper's cluster manager (§5, Dirigent) is not in this crate: a worker
//! knows nothing of its peers, and `dandelion-server`'s gateway is the one
//! layer that load-balances invocations across worker nodes.
//!
//! The crate is usable both as a real multi-threaded runtime (see
//! [`worker::WorkerNode`]) and as a library of policy components: the
//! discrete-event simulator in `dandelion-sim` reuses the PI controller
//! under virtual time.

pub mod client;
pub mod control;
pub mod dispatcher;
pub mod engine;
pub mod frontend;
pub mod invocation;
pub mod registry;
pub mod task;
pub mod worker;

pub use client::{ClientHandle, ClientPoll, DandelionClient};
pub use control::PiController;
pub use dispatcher::{
    DispatchMetrics, Dispatcher, InvocationHandle, InvocationOutcome, InvocationSnapshot,
    InvocationStatus,
};
pub use frontend::{sync_invoke_response, Frontend, FrontendReply, StatsSource};
pub use registry::{CommunicationKind, Registry, Vertex};
pub use worker::{WorkerNode, WorkerStats};
