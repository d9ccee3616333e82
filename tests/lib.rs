//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in the sibling files, one `[[test]]` target each
//! (`end_to_end.rs`, `properties.rs`, `cluster_and_frontend.rs` for the
//! frontend and the control plane, `nonblocking_api.rs` for submit/poll and
//! the typed client through a two-member gateway, ...); this library only
//! hosts the helpers they share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI32, AtomicUsize, Ordering};
use std::sync::Arc;

use dandelion_common::DandelionResult;
use dandelion_core::{InvocationHandle, InvocationOutcome, WorkerNode};

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

/// Threads whose blocks [`BlockTally`] keeps apart, at most: the first this
/// many threads of the process that ask the heap for anything (a served
/// test's process runs about a dozen).
const THREAD_SLOTS: usize = 64;

/// Blocks requested by every thread of the process. Relaxed, like
/// `LIVE_BYTES`.
static BLOCKS: AtomicUsize = AtomicUsize::new(0);

/// Slots claimed so far; a slot is a thread's for the life of the process.
static THREADS_SEEN: AtomicUsize = AtomicUsize::new(0);

/// Each slot's thread, by kernel thread id, and the blocks it requested.
static SLOT_TIDS: [AtomicI32; THREAD_SLOTS] = [const { AtomicI32::new(0) }; THREAD_SLOTS];
static SLOT_BLOCKS: [AtomicUsize; THREAD_SLOTS] = [const { AtomicUsize::new(0) }; THREAD_SLOTS];

thread_local! {
    /// This thread's slot, claimed at its first request; `usize::MAX`
    /// before. `const`-initialised and without a destructor, like
    /// `HEAP_USE`.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

extern "C" {
    /// glibc's `gettid(2)` wrapper.
    fn gettid() -> i32;
}

/// This thread's slot in `SLOT_BLOCKS`, claimed on first use; `None` past
/// the last slot or while the thread's locals are torn down. Claiming
/// allocates nothing.
fn thread_slot() -> Option<usize> {
    let slot = SLOT
        .try_with(|slot| {
            if slot.get() == usize::MAX {
                let claimed = THREADS_SEEN.fetch_add(1, Ordering::Relaxed);
                if claimed < THREAD_SLOTS {
                    // SAFETY: `gettid` takes no arguments and cannot fail.
                    let tid = unsafe { gettid() };
                    SLOT_TIDS[claimed].store(tid, Ordering::Relaxed);
                }
                slot.set(claimed);
            }
            slot.get()
        })
        .ok()?;
    (slot < THREAD_SLOTS).then_some(slot)
}

/// The counting global allocator of the allocation-budget tests. A test
/// binary installs it with `#[global_allocator]` and measures with
/// [`heap_use_of`] (what one thread requested), [`block_tally`] (what every
/// thread requested, process-wide and thread by thread) or
/// [`live_heap_bytes`] (what the process holds).
pub struct CountingAllocator;

fn note(bytes: usize, regrown: bool) {
    BLOCKS.fetch_add(1, Ordering::Relaxed);
    if let Some(slot) = thread_slot() {
        SLOT_BLOCKS[slot].fetch_add(1, Ordering::Relaxed);
    }
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

/// Blocks requested up to one instant: by the whole process, and by each of
/// its first 64 threads. Two tallies give what happened
/// between them ([`BlockTally::since`]).
#[derive(Debug, Clone, Copy)]
pub struct BlockTally {
    total: usize,
    threads: [usize; THREAD_SLOTS],
}

/// The blocks requested so far (all zero unless the binary installed
/// [`CountingAllocator`]). Taking the tally allocates nothing, so a window
/// between two of them holds only what was measured.
pub fn block_tally() -> BlockTally {
    BlockTally {
        total: BLOCKS.load(Ordering::Relaxed),
        threads: std::array::from_fn(|slot| SLOT_BLOCKS[slot].load(Ordering::Relaxed)),
    }
}

impl BlockTally {
    /// What was requested between `earlier` and this tally.
    pub fn since(&self, earlier: &BlockTally) -> BlockTally {
        BlockTally {
            total: self.total - earlier.total,
            threads: std::array::from_fn(|slot| self.threads[slot] - earlier.threads[slot]),
        }
    }

    /// Blocks requested by every thread.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Blocks requested by the threads whose name (as the kernel keeps it,
    /// 15 bytes at most: `/proc/self/task/<tid>/comm`) is `name`. Threads
    /// that have exited since are not found.
    pub fn of_threads_named(&self, name: &str) -> usize {
        let claimed = THREADS_SEEN.load(Ordering::Relaxed).min(THREAD_SLOTS);
        (0..claimed)
            .filter(|&slot| {
                let tid = SLOT_TIDS[slot].load(Ordering::Relaxed);
                std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                    .is_ok_and(|comm| comm.trim_end() == name)
            })
            .map(|slot| self.threads[slot])
            .sum()
    }
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

/// The demo worker's wiring on the stepped shell: the same configuration,
/// services and applications, and no thread; nothing runs until
/// [`settle_stepped`] steps it.
pub fn stepped_demo_worker() -> Arc<WorkerNode> {
    use dandelion_apps::setup::{demo_config, demo_services, register_applications};
    let worker =
        WorkerNode::stepped(demo_config(4), demo_services(false)).expect("stepped worker builds");
    register_applications(&worker).expect("demo applications register");
    worker
}

/// Steps `worker` at the wall clock until `handle` settles, and takes its
/// outcome.
pub fn settle_stepped(
    worker: &WorkerNode,
    handle: &InvocationHandle,
) -> DandelionResult<InvocationOutcome> {
    for _ in 0..1000 {
        worker.step(std::time::Instant::now());
        if let Some(outcome) = handle.try_result() {
            return outcome;
        }
    }
    panic!("{handle:?} did not settle in 1000 steps");
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

/// One keep-alive connection that sends prepared requests one at a time and
/// reads each response into a buffer it allocated up front, so an exchange
/// asks nothing of the heap on the client's side: what a counting allocator
/// sees during one is the server's.
pub struct KeepAliveClient {
    stream: std::net::TcpStream,
    buffer: Vec<u8>,
}

impl KeepAliveClient {
    /// Connects to `addr`; responses may be up to `max_response` bytes.
    pub fn connect(addr: std::net::SocketAddr, max_response: usize) -> Self {
        let stream = std::net::TcpStream::connect(addr).expect("the server accepts");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Self {
            stream,
            buffer: vec![0; max_response],
        }
    }

    /// Writes `wire`, one whole request, and reads its response through:
    /// the body of a `200 OK`. Panics on any other status or a response
    /// without a `Content-Length`.
    pub fn exchange(&mut self, wire: &[u8]) -> &[u8] {
        use std::io::{Read, Write};
        self.stream.write_all(wire).expect("the request is written");
        let mut filled = 0;
        let (body_start, end) = loop {
            let read = self.stream.read(&mut self.buffer[filled..]).expect("reads");
            assert!(read > 0, "the server closed the connection");
            filled += read;
            let received = &self.buffer[..filled];
            let Some(blank) = received.windows(4).position(|line| line == b"\r\n\r\n") else {
                continue;
            };
            assert!(
                received.starts_with(b"HTTP/1.1 200 "),
                "the server answered {:?}",
                received.get(..received.len().min(64))
            );
            let length = received[..blank]
                .split(|&byte| byte == b'\n')
                .find_map(|line| line.strip_prefix(b"Content-Length: "))
                .and_then(|value| std::str::from_utf8(value).ok())
                .and_then(|value| value.trim().parse::<usize>().ok())
                .expect("the response declares its length");
            break (blank + 4, blank + 4 + length);
        };
        while filled < end {
            let read = self
                .stream
                .read(&mut self.buffer[filled..end])
                .expect("reads");
            assert!(read > 0, "the server closed the connection mid-body");
            filled += read;
        }
        &self.buffer[body_start..end]
    }
}
