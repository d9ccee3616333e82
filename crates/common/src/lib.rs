//! Common foundation types shared by every Dandelion crate.
//!
//! This crate deliberately has no dependency on the rest of the workspace. It
//! provides:
//!
//! * [`error`] — the shared [`DandelionError`] type and [`DandelionResult`].
//! * [`failpoint`] — deterministic fault injection: named failpoints with
//!   seeded probabilities, zero-cost when disabled (one relaxed load).
//! * [`id`] — strongly typed identifiers for functions, compositions,
//!   invocations, engines, nodes and memory contexts.
//! * [`data`] — the value model passed between functions: [`data::DataItem`]
//!   and [`data::DataSet`].
//! * [`stats`] — latency recorders, percentile summaries and time series used
//!   by the benchmark harness.
//! * [`rng`] — a small deterministic RNG and the statistical distributions
//!   used to generate synthetic workloads.
//! * [`config`] — platform configuration structs shared by the runtime and
//!   the simulator.
//! * [`json`] — a dependency-free JSON value model (writer + parser) used by
//!   the v1 HTTP API and the benchmark reports.
//! * [`encoding`] — base64 for binary payloads inside JSON documents, and
//!   [`encoding::utf8_lossy`], the one lossy bytes-to-text conversion.
//! * [`bytes`] — [`bytes::SharedBytes`], the zero-copy payload view threaded
//!   through the data plane, and [`bytes::SharedBytesMut`], the append-only
//!   builder that freezes into it without copying.
//! * [`rope`] — [`rope::Rope`], multi-part payloads as lists of zero-copy
//!   segments with vectored delivery.
//! * [`mpsc`] — [`mpsc::MpscQueue`], the lock-free multi-producer inbox
//!   the server's event loops drain in batches.
//! * [`pool`] — [`pool::BufferPool`], the fixed-class slab of reusable
//!   buffers behind the byte builders.

pub mod bytes;
pub mod config;
pub mod data;
pub mod encoding;
pub mod error;
pub mod failpoint;
pub mod id;
pub mod json;
pub mod mpsc;
pub mod pool;
pub mod rng;
pub mod rope;
pub mod stats;

pub use bytes::{SharedBytes, SharedBytesMut};
pub use data::{DataItem, DataSet};
pub use error::{DandelionError, DandelionResult};
pub use id::{CompositionId, ContextId, EngineId, FunctionId, InvocationId, NodeId};
pub use json::JsonValue;
pub use mpsc::MpscQueue;
pub use pool::BufferPool;
pub use rope::{BatchProgress, Rope, RopeBatch, RopeWriter};

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
