//! `dandelion-server`: real network serving for the Dandelion frontend.
//!
//! The frontend ([`dandelion_core::Frontend`]) is transport-agnostic: it
//! maps [`HttpRequest`](dandelion_http::HttpRequest)s to worker operations.
//! This crate is the transport — the subsystem the paper's platform puts
//! between untrusted clients and the dispatcher:
//!
//! * a **small pool of epoll event loops** (`sys` declares the few libc
//!   symbols needed — no async runtime is vendored), each accepting on its
//!   own non-blocking `SO_REUSEPORT` listener. Each loop multiplexes
//!   thousands of connections: an idle keep-alive client or one waiting on
//!   an invocation consumes memory only, never a thread,
//! * **per-connection state machines** that read into pooled buffers,
//!   parse requests incrementally (partial reads, pipelined keep-alive
//!   requests, `Connection: close`), dispatch without blocking
//!   ([`dandelion_core::Frontend::begin`]), and write every response that
//!   is ready in a loop turn with one resumable vectored
//!   [`RopeBatch`](dandelion_common::RopeBatch) write, so bodies leave the
//!   process by reference even across `EWOULDBLOCK` suspensions,
//! * **asynchronous completion**: the dispatcher settles a synchronous
//!   invocation by posting the finished response to the owning event loop
//!   through an `eventfd` wakeup,
//! * **admission control**: a concurrent-connection cap (`503` past it),
//!   per-client-IP token-bucket rate limiting (`429`), head/body size
//!   limits (`431`/`413`), and a per-request read deadline (`408`; idle
//!   keep-alives are closed silently and counted),
//! * **graceful shutdown** that stops admitting, closes keep-alive
//!   connections at their next response boundary and drains in-flight
//!   invocations before returning.
//!
//! The `dandelion-serve` binary wires a demo worker behind a [`Server`];
//! [`HttpClientConnection`] is the in-repo load generator used by the
//! `network` benchmark and the integration tests, and [`connect`] puts the
//! typed [`DandelionClient`](dandelion_core::DandelionClient) on one such
//! connection, so it reaches a worker or a gateway like every other client.

#![warn(unnameable_types)]

mod client;
mod config;
mod conn;
mod event_loop;
// `pub` because `benchmark/src/layerwalk.rs` imports it by path.
pub mod gateway;
mod rate;
mod server;
mod sys;

pub use client::{connect, join_gateway, HttpClientConnection};
pub use config::{ServerConfig, WORKER_PIPELINE_DEPTH};
pub use conn::response_rope;
pub use gateway::{GatewayConfig, Router};
pub use rate::RateLimit;
pub use server::{Server, ServerStatsSnapshot};
pub use sys::raise_nofile_limit;
