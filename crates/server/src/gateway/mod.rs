//! Cluster gateway: one front door routing real traffic across many
//! worker nodes.
//!
//! A Dandelion deployment grows past one worker by putting a **gateway**
//! in front of N member nodes, each running the ordinary single-node
//! server and speaking the existing v1 HTTP protocol. The gateway is the
//! same `dandelion-server` binary in a different role
//! ([`Server::start_gateway`](crate::Server::start_gateway)): the same
//! epoll event loops, connection state machines and zero-copy rope writes
//! — but instead of a local [`Frontend`](dandelion_core::Frontend) the
//! loops consult a [`Router`], and a second endpoint type appears in each
//! loop's slab: pooled, pipelined upstream connections to the members.
//!
//! ```text
//!                      ┌──────────────────────────┐
//!   clients ──────────▶│  gateway (dandelion-serve │
//!   (keep-alive,       │   --gateway)              │
//!    pipelined)        │  · membership table       │
//!                      │  · health probes          │
//!                      │  · load-aware routing     │
//!                      │  · async response proxy   │
//!                      └───┬──────────┬─────────┬──┘
//!                          │ v1 HTTP  │         │
//!                     ┌────▼───┐ ┌────▼───┐ ┌───▼────┐
//!                     │ member │ │ member │ │ member │
//!                     │ node-1 │ │ node-2 │ │ node-3 │
//!                     └────────┘ └────────┘ └────────┘
//! ```
//!
//! What the subsystem provides:
//!
//! * **Membership**: nodes join by announcing their
//!   address (`POST /v1/cluster/members`, or `dandelion-serve --join`);
//!   the gateway probes them and records the compositions they advertise.
//!   Advertisements refresh on every health probe, so registering a new
//!   composition on a member re-advertises automatically.
//! * **Health checking**: a background thread probes each member's
//!   `GET /v1/compositions` on a fixed cadence. Probe outcomes and failed
//!   exchanges (refused connects, upstream connections that die owing
//!   answers) feed one state machine per member (`Member::observe`): a
//!   failure streak or a failure rate that reaches the answers ejects the
//!   member from rotation, and a succeeding probe re-admits it.
//! * **Load-aware routing** ([`Router`]): invocations prefer a stable
//!   member per composition (affinity keeps warm state concentrated) but
//!   spill to the least-loaded member when the preferred one's in-flight
//!   count and queued bytes run away. Status polls follow the member that
//!   accepted the submission.
//! * **Async response proxying**: a forwarded request parks a response
//!   slot in the client connection — never a thread — while the exchange
//!   rides a pooled upstream connection owned by the same event loop.
//!   Neither direction is decoded into a header map or encoded again: the
//!   forward is the request's received bytes with its `Connection` lines
//!   cut ([`forward_rope`]), and the client gets the member's bytes with
//!   `X-Dandelion-Node` and its own `Connection` line spliced into the head
//!   ([`relay_rope`]) — head slices and body by reference, the `Arc`
//!   identity of the member's receive buffer kept. [`proxy_request`] and
//!   [`proxy_response`] say the same over structured messages: they are the
//!   specification the splice is tested against, and nothing served runs
//!   them.
//! * **Draining** (`POST /v1/cluster/drain/{node}`): a member marked
//!   draining receives no new work, keeps answering polls, and leaves the
//!   table once its in-flight work settles — the rolling-restart
//!   primitive.

mod membership;
mod router;
mod specification;
pub(crate) mod upstream;

pub use router::{
    composition_affinity_hash, forward_rope, node_line, relay_rope, GatewayConfig, Router,
};
pub use specification::{proxy_request, proxy_response};

pub(crate) use membership::MemberLoad;
pub(crate) use router::{upstream_failed_response, ForwardPlan, GatewayReply};
