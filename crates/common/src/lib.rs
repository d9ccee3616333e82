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
//! * latency recorders, histograms and time series ([`LatencyRecorder`],
//!   [`LatencyHistogram`], [`TimeSeries`]);
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
//! * [`MpscQueue`], the lock-free multi-producer inbox the server's event
//!   loops drain in batches;
//! * [`BufferPool`], the fixed-class slab of reusable buffers behind the
//!   byte builders.
//!
//! Its two modules with a path of their own, [`config`] and [`rng`], are
//! named that way by `benchmark/`; everything else is used from the crate
//! root.

mod bytes;
// `pub` because `benchmark/src/layerwalk.rs` imports it by path.
pub mod config;
mod data;
mod encoding;
mod error;
mod failpoint;
mod id;
mod json;
mod mpsc;
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
pub use mpsc::{Drain, MpscQueue};
pub use pool::{
    settle_heap_thresholds, BufferPool, PoolStats, PooledBuf, LARGEST_CLASS, SIZE_CLASSES,
};
pub use rope::{BatchProgress, Rope, RopeBatch, RopeWriter};
pub use stats::{LatencyHistogram, LatencyRecorder, LatencySummary, TimeSeries};

/// Number of bytes in a kibibyte.
pub const KIB: usize = 1024;
/// Number of bytes in a mebibyte.
pub const MIB: usize = 1024 * KIB;
/// Number of bytes in a gibibyte.
pub const GIB: usize = 1024 * MIB;

/// Formats a byte count using binary units with one decimal digit.
///
/// # Examples
///
/// ```
/// assert_eq!(dandelion_common::format_bytes(512), "512 B");
/// assert_eq!(dandelion_common::format_bytes(2048), "2.0 KiB");
/// ```
pub fn format_bytes(bytes: usize) -> String {
    if bytes >= GIB {
        format!("{:.1} GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.1} MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1} KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_bytes_covers_all_units() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(1023), "1023 B");
        assert_eq!(format_bytes(1024), "1.0 KiB");
        assert_eq!(format_bytes(1536), "1.5 KiB");
        assert_eq!(format_bytes(3 * MIB), "3.0 MiB");
        assert_eq!(format_bytes(2 * GIB), "2.0 GiB");
    }
}
