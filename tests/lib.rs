//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in the sibling files, one `[[test]]` target each
//! (`end_to_end.rs`, `properties.rs`, `cluster_and_frontend.rs` for the
//! frontend and the control plane, `nonblocking_api.rs` for submit/poll and
//! the typed client through a two-member gateway, ...); this library only
//! hosts the helpers they share.

use std::sync::Arc;

use dandelion_core::WorkerNode;

/// Starts the fully configured demo worker used by most integration tests
/// (all applications registered, zero-latency simulated services).
pub fn demo_worker() -> Arc<WorkerNode> {
    dandelion_apps::setup::demo_worker(4, false).expect("demo worker starts")
}

/// A writer modelling a non-blocking socket's send buffer: it accepts at
/// most `quota` bytes per readiness window, then reports `WouldBlock` once
/// (refilling the window) — the shape `RopeWriter` resumption is tested
/// against.
pub struct ChoppyWriter {
    /// Everything accepted so far, in order.
    pub out: Vec<u8>,
    quota: usize,
    left: usize,
}

impl ChoppyWriter {
    /// A writer accepting `quota` bytes per window.
    pub fn new(quota: usize) -> Self {
        Self {
            out: Vec::new(),
            quota,
            left: quota,
        }
    }
}

impl std::io::Write for ChoppyWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.left == 0 {
            self.left = self.quota;
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let take = buf.len().min(self.left);
        self.left -= take;
        self.out.extend_from_slice(&buf[..take]);
        Ok(take)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
