//! Common foundation types shared by every Dandelion crate.
//!
//! This crate deliberately has no dependency on the rest of the workspace. It
//! provides:
//!
//! * the shared [`DandelionError`] type and [`DandelionResult`];
//! * deterministic fault injection ([`fail_point!`], [`configure_failpoint`]):
//!   named failpoints with seeded probabilities, zero-cost when disabled (one
//!   relaxed load);
//! * strongly typed identifiers for invocations, nodes and memory contexts
//!   ([`InvocationId`], [`NodeId`], [`ContextId`]);
//! * the value model passed between functions: [`DataItem`] and
//!   [`DataSet`];
//! * the one latency summariser, [`LatencyHistogram`], which the serving
//!   node and the simulator both record into, and [`TimeSeries`];
//! * [`rng`] — a small deterministic RNG and the statistical distributions
//!   used to generate synthetic workloads;
//! * [`config`] — platform configuration structs shared by the runtime and
//!   the simulator;
//! * [`JsonValue`], a dependency-free JSON value model (writer + parser) used
//!   by the v1 HTTP API and the benchmark reports;
//! * base64 for binary payloads inside JSON documents ([`base64_decode`]),
//!   and [`utf8_lossy`], the one lossy bytes-to-text conversion;
//! * [`SharedBytes`], the zero-copy payload view threaded through the data
//!   plane, and [`SharedBytesMut`], the append-only builder that freezes
//!   into it without copying;
//! * [`Rope`], multi-part payloads as lists of zero-copy segments with
//!   vectored delivery;
//! * [`BufferPool`], the fixed-class slab of reusable buffers behind the
//!   byte builders.
//!
//! Its two modules with a path of their own, [`config`] and [`rng`], are
//! named that way by `benchmark/`; everything else is used from the crate
//! root.
//!
//! **Locks.** The workspace locks with `std::sync`, and what a lock poisoned
//! by a panicking thread means is decided per lock, beside it. A lock whose
//! every update leaves its data whole (a read-mostly map written one insert
//! at a time, state whose transitions run no foreign code), or that is taken
//! in `Drop`, recovers the guard with `PoisonError::into_inner`. A lock
//! under which a panic can leave torn state lets the panic propagate.

#![warn(unnameable_types)]

mod bytes;
// `pub` because `benchmark/src/layerwalk.rs` imports it by path.
pub mod config;
mod data;
mod encoding;
mod error;
mod failpoint;
mod id;
mod json;
mod pool;
// `pub` because `benchmark/src/{workload,schedule}.rs` import it by path.
pub mod rng;
mod rope;
mod stats;

pub use bytes::{SharedBytes, SharedBytesMut};
pub use data::{total_bytes, DataItem, DataSet};
pub use encoding::{base64_decode, utf8_lossy};
pub use error::{DandelionError, DandelionResult};
pub use failpoint::{
    check_failpoint, clear_failpoints, configure_failpoint, failpoint_hits, failpoint_io_error,
    failpoint_stats_json, failpoints_enabled, init_failpoints_from_env, remove_failpoint,
    set_failpoint_seed, FailAction, Fault,
};
pub use id::{ContextId, InvocationId, NodeId};
pub use json::JsonValue;
pub use pool::{
    settle_heap_thresholds, BufferPool, ClassRetention, PoolStats, PooledBuf, LARGEST_CLASS,
    SIZE_CLASSES,
};
pub use rope::{BatchProgress, Rope, RopeBatch, RopeWriter};
pub use stats::{LatencyHistogram, LatencySummary, TimeSeries};

/// Number of bytes in a kibibyte.
pub const KIB: usize = 1024;
/// Number of bytes in a mebibyte.
pub const MIB: usize = 1024 * KIB;
