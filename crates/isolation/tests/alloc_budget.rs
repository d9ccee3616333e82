//! The allocation budget of one sandbox lifecycle.
//!
//! A counting global allocator (per-thread counters, so the parallel test
//! runner's other threads do not leak in) measures what one
//! `backend.execute` of a zero-copy echo function asks of the heap. The
//! bounds are the exact figures of the current lifecycle: mapping the binary
//! instead of copying it, sharing the inputs instead of cloning them and
//! building no VFS is what keeps a task under them, and any of those coming
//! back — a binary-sized arena, a cloned `Vec<DataSet>`, a directory tree —
//! goes over. The same bound holds for a 64 KiB and a 1 MiB binary: the cost
//! of a sandbox does not depend on the size of what it maps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dandelion_common::config::IsolationKind;
use dandelion_common::{DataItem, DataSet, SharedBytes};
use dandelion_isolation::{
    create_backend, ExecutionTask, FunctionArtifact, FunctionCtx, HardwarePlatform,
};

struct CountingAllocator;

thread_local! {
    /// (blocks, bytes) requested by this thread. `const`-initialised and
    /// without a destructor, so touching it never allocates.
    static REQUESTED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = REQUESTED.try_with(|requested| {
        let (blocks, total) = requested.get();
        requested.set((blocks + 1, total + bytes));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Blocks and bytes this thread requested while `work` ran.
fn requested_by<T>(work: impl FnOnce() -> T) -> (T, usize, usize) {
    let (blocks_before, bytes_before) = REQUESTED.with(Cell::get);
    let value = work();
    let (blocks_after, bytes_after) = REQUESTED.with(Cell::get);
    (
        value,
        blocks_after - blocks_before,
        bytes_after - bytes_before,
    )
}

/// What one lifecycle of the echo task below asks of the heap, for any binary
/// size, block by block: the context's region list, sized for its binary,
/// input, frame and output (96 B); the staged item's name, its set's name,
/// the set's item list and the list of staged sets (4 + 3 + 288 + 192); the
/// output frame's shared header (40, its bytes are pooled). The staged sets
/// are the outputs: the frame is checked against them entry by entry, so
/// nothing is collected, parsed into or rebuilt. These are exact, so one
/// more clone of the inputs (4 blocks) or of an output item (1) fails the
/// test; a toolchain that lays `Vec`s out differently means measuring
/// again, not padding.
const MAX_BLOCKS: usize = 6;
const MAX_BYTES: usize = 623;

fn echo_with_binary(binary_bytes: usize) -> Arc<FunctionArtifact> {
    Arc::new(
        FunctionArtifact::new("echo", &["out"], |ctx: &mut FunctionCtx| {
            let data = ctx.single_input("in")?.data.clone();
            ctx.push_output("out", DataItem::new("echo", data))
        })
        .with_binary_size(binary_bytes),
    )
}

fn lifecycle_cost(binary_bytes: usize) -> (usize, usize) {
    let backend = create_backend(IsolationKind::Native, HardwarePlatform::Morello);
    let payload = SharedBytes::from_vec(vec![0x5A; 4096]);
    let task = ExecutionTask::new(
        echo_with_binary(binary_bytes),
        vec![DataSet::with_items(
            "in",
            vec![DataItem::new("blob", payload.clone())],
        )],
    );
    // Once unmeasured: process-wide state (the buffer pool, id counters) is
    // set up by the first sandbox.
    backend.execute(&task).expect("warm-up run");
    let (report, blocks, bytes) = requested_by(|| backend.execute(&task));
    let report = report.expect("measured run");
    assert!(SharedBytes::same_buffer(
        &report.outputs[0].items[0].data,
        &payload
    ));
    assert!(report.context_high_water > binary_bytes);
    (blocks, bytes)
}

#[test]
fn one_execute_allocates_less_than_the_binary_is_long() {
    let (blocks, bytes) = lifecycle_cost(64 * 1024);
    assert!(
        bytes < 64 * 1024,
        "{bytes} bytes requested for a 64 KiB binary: the binary is being copied"
    );
    assert!(
        blocks <= MAX_BLOCKS && bytes <= MAX_BYTES,
        "{blocks} blocks / {bytes} bytes requested, budget {MAX_BLOCKS} / {MAX_BYTES}"
    );
}

#[test]
fn the_cost_of_a_sandbox_does_not_depend_on_the_binary_size() {
    let small = lifecycle_cost(64 * 1024);
    let large = lifecycle_cost(1024 * 1024);
    assert_eq!(small, large, "(blocks, bytes) for 64 KiB vs 1 MiB");
    assert!(
        large.0 <= MAX_BLOCKS && large.1 <= MAX_BYTES,
        "{} blocks / {} bytes requested for a 1 MiB binary, budget {MAX_BLOCKS} / {MAX_BYTES}",
        large.0,
        large.1
    );
}
