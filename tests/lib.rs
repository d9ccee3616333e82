//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in the sibling files, one `[[test]]` target each
//! (`end_to_end.rs`, `properties.rs`, `cluster_and_frontend.rs` for the
//! frontend and the control plane, `nonblocking_api.rs` for submit/poll and
//! the typed client through a two-member gateway, ...); this library only
//! hosts the helpers they share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dandelion_core::WorkerNode;

/// What one thread asked of the heap while [`heap_use_of`] watched it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapUse {
    /// Blocks requested: every `alloc`, `alloc_zeroed` and `realloc`.
    pub blocks: usize,
    /// Bytes requested, all blocks together.
    pub bytes: usize,
    /// Size of the largest block requested, by any of the three.
    pub largest_block: usize,
    /// New size of the largest block a `realloc` regrew.
    pub largest_regrown: usize,
}

thread_local! {
    /// This thread's requests (per-thread, so the parallel test runner's
    /// other threads do not leak in). `const`-initialised and without a
    /// destructor, so touching it never allocates.
    static HEAP_USE: Cell<HeapUse> = const {
        Cell::new(HeapUse { blocks: 0, bytes: 0, largest_block: 0, largest_regrown: 0 })
    };
}

/// Bytes allocated and not yet freed, by every thread of the process
/// (footprint is the process's, whichever thread holds it). Relaxed: a
/// statistic, it publishes no other data.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The counting global allocator of the allocation-budget tests. A test
/// binary installs it with `#[global_allocator]` and measures with
/// [`heap_use_of`] (what one thread requested) or [`live_heap_bytes`] (what
/// the process holds).
pub struct CountingAllocator;

fn note(bytes: usize, regrown: bool) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = HEAP_USE.try_with(|cell| {
        let mut heap_use = cell.get();
        heap_use.blocks += 1;
        heap_use.bytes += bytes;
        heap_use.largest_block = heap_use.largest_block.max(bytes);
        if regrown {
            heap_use.largest_regrown = heap_use.largest_regrown.max(bytes);
        }
        cell.set(heap_use);
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, true);
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `work` and reports what this thread asked of the heap meanwhile
/// (all zero unless the binary installed [`CountingAllocator`]).
pub fn heap_use_of<T>(work: impl FnOnce() -> T) -> (T, HeapUse) {
    HEAP_USE.with(|cell| cell.set(HeapUse::default()));
    let value = work();
    (value, HEAP_USE.with(Cell::get))
}

/// Bytes the process holds on the heap right now (zero unless the binary
/// installed [`CountingAllocator`]).
pub fn live_heap_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

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
