//! Fixed-class buffer pooling for the allocation-free steady-state path.
//!
//! The hot path of an invocation touches payload memory at every layer: the
//! receive buffer, HTTP heads, output-descriptor frames, the outputs a
//! function writes, flattened service replies. The [`BufferPool`] hands all
//! of them out of a small slab of reusable buffers in a handful of fixed size
//! classes: `acquire` pops a cleared buffer of the smallest class that holds
//! the request (or allocates one of exactly the class size on a miss) and the
//! handle's drop returns it for the next invocation.
//!
//! # The issuing-class rule
//!
//! The pool takes back only what it issued, into the class that issued it. A
//! buffer's class is read off its capacity, which is the class size from the
//! allocation on: the owning handles ([`SharedBytesMut`](crate::SharedBytesMut)
//! and the frozen [`SharedBytes`](crate::SharedBytes)) never let a pooled
//! vector regrow — a builder that runs out of room moves into a buffer of a
//! larger class and returns the one it leaves. So whatever a class retains is
//! exactly what an `acquire` of that class size pops, nothing waits where no
//! request looks for it, and a vector that came from somewhere else (user
//! code's `Vec`, a `String`) is freed by whoever owns it and never parked
//! here. A returned buffer the class has no room for and one that is not of
//! a class size (a request above the largest class is served by a plain
//! allocation) are counted as `discarded`, so at any quiet moment
//! `acquires = recycled + discarded + live`.
//!
//! # Giving it back
//!
//! What the classes retain follows the load with a delay of one to two
//! periods: called on a steady schedule (a worker's dispatcher driver calls
//! it twice a second, busy or idle), [`BufferPool::release_unused`] frees the
//! buffers each class held the whole time since it last looked — the class's
//! low-water mark — so a load that comes back finds what it used within the
//! last period, and traffic that keeps going, a health probe or a steady
//! stream of small invocations, does not keep a burst's memory committed. A
//! freed buffer is the allocator's; [`settle_heap_thresholds`] and the
//! `malloc_trim` after a release that freed something are what this module
//! tells glibc about that.
//!
//! Every acquisition is stamped with a process-wide monotonically increasing
//! *generation tag*. The tag uniquely identifies one ownership interval of a
//! buffer: two live handles can never carry the same generation, which is
//! what the aliasing stress test asserts while hammering the pool from many
//! threads. The pool is an opportunistic fast path, never a correctness
//! dependency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The pooled size classes in bytes: from 4 KiB to 4 MiB, every power of two
/// and the three quarter steps between it and the next (4, 5, 6, 7, 8, 10,
/// 12, 14, 16 KiB, ...), so a buffer is less than a quarter larger than what
/// was asked of it — a power of two plus a few bytes of framing, which is
/// what a matrix on the wire is, does not take the next power of two.
/// Requests are rounded up to the next class; buffers above the largest
/// class bypass the pool.
pub const SIZE_CLASSES: [usize; 41] = {
    let mut classes = [0; 41];
    let mut class = 0;
    while class < classes.len() {
        classes[class] = (4 + class % 4) << (10 + class / 4);
        class += 1;
    }
    classes
};

/// The largest pooled class: a request above it is served by a plain
/// allocation of what it asks for.
pub const LARGEST_CLASS: usize = SIZE_CLASSES[SIZE_CLASSES.len() - 1];

/// Maximum bytes retained per size class, so 2048 buffers of 4 KiB down to
/// two of 4 MiB. A class retains what was in flight in it at once, up to
/// this, and until it has gone unused ([`BufferPool::release_unused`]).
const PER_CLASS_BYTES: usize = 8 * 1024 * 1024;

/// Buffers `class` may retain: every buffer of a class is of the class size,
/// so the byte bound is a count.
const fn class_limit(class: usize) -> usize {
    PER_CLASS_BYTES / SIZE_CLASSES[class]
}

/// The smallest class whose buffers hold `capacity` bytes, if any does.
fn class_holding(capacity: usize) -> Option<usize> {
    let capacity = capacity.max(SIZE_CLASSES[0]);
    // The power of two at or below `capacity` is `4 << quarter`, the classes
    // from it to the next a `1 << quarter` apart.
    let octave = capacity.ilog2() - SIZE_CLASSES[0].ilog2();
    let quarter = octave + 10;
    let quarters = (capacity - (4 << quarter)).div_ceil(1 << quarter);
    let class = 4 * octave as usize + quarters;
    (class < SIZE_CLASSES.len()).then_some(class)
}

/// Classes fronted by the thread-local cache: up to 64 KiB. A thread parks at
/// most one buffer of each class it uses, out of [`BufferPool::retained`]'s
/// and [`BufferPool::release_unused`]'s sight; the large classes, where a
/// hidden buffer per thread would be megabytes, always go through the shared
/// slabs (one uncontended lock next to a copy of that size).
const THREAD_CACHED_CLASSES: usize = 17;

/// What one size class of a pool's shared slabs holds at this moment;
/// snapshot via [`BufferPool::retained`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassRetention {
    /// The class size ([`SIZE_CLASSES`]).
    pub class_bytes: usize,
    /// Buffers parked in the class.
    pub buffers: usize,
    /// Their capacities, summed: `buffers * class_bytes`.
    pub bytes: usize,
}

/// Counters describing pool behaviour; snapshot via [`BufferPool::stats`].
/// Once the pool is quiet `acquires = reuses + allocations` and
/// `acquires = recycled + discarded + live`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total `acquire` calls.
    pub acquires: u64,
    /// Acquires served from a recycled buffer (no allocation).
    pub reuses: u64,
    /// Acquires that had to allocate (pool miss or oversized request).
    pub allocations: u64,
    /// Issued buffers that came back and were kept for reuse.
    pub recycled: u64,
    /// Issued buffers that came back and were freed: the class was full, or
    /// the request was above the largest class.
    pub discarded: u64,
    /// Issued buffers that have not come back yet: a gauge kept by the
    /// handles, not derived from the other counters.
    pub live: u64,
}

std::thread_local! {
    /// One-buffer-per-class thread-local cache in front of the *global*
    /// pool's shared slabs. An engine thread's steady-state loop
    /// (acquire → freeze → ship → last-view drop → recycle) stays on one
    /// thread, so the common case needs no lock at all.
    static THREAD_CACHE: std::cell::RefCell<[Option<Vec<u8>>; THREAD_CACHED_CLASSES]> =
        const { std::cell::RefCell::new([const { None }; THREAD_CACHED_CLASSES]) };
}

/// The parked buffers of one size class, every one of the class size.
#[derive(Default)]
struct Slab {
    /// A stack: the most recently returned buffer is the next one issued, so
    /// what goes unused collects at the bottom.
    buffers: Vec<Vec<u8>>,
    /// The fewest buffers parked at any moment since
    /// [`BufferPool::release_unused`] last looked: that many, the bottom of
    /// the stack, nobody needed in all that time.
    low_water: usize,
}

/// A slab of reusable fixed-class byte buffers.
pub struct BufferPool {
    classes: Vec<Mutex<Slab>>,
    /// Whether this pool fronts its shared slabs with the thread-local
    /// cache. Only the process-wide global pool does; private pools (tests)
    /// keep fully deterministic, observable behaviour.
    thread_cached: bool,
    generation: AtomicU64,
    acquires: AtomicU64,
    reuses: AtomicU64,
    allocations: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
    live: AtomicU64,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self {
            classes: SIZE_CLASSES
                .iter()
                .map(|_| Mutex::new(Slab::default()))
                .collect(),
            thread_cached: false,
            generation: AtomicU64::new(0),
            acquires: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            allocations: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            live: AtomicU64::new(0),
        }
    }

    /// The process-wide pool shared by builders and memory contexts.
    ///
    /// Returned by reference to the shared [`Arc`], so owners that outlive a
    /// scope (memory contexts, long-lived builders) can clone the handle.
    pub fn global() -> &'static Arc<BufferPool> {
        static GLOBAL: OnceLock<Arc<BufferPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let mut pool = BufferPool::new();
            pool.thread_cached = true;
            Arc::new(pool)
        })
    }

    fn class_lock(&self, class: usize) -> MutexGuard<'_, Slab> {
        self.classes[class]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn uses_thread_cache(&self, class: usize) -> bool {
        self.thread_cached && class < THREAD_CACHED_CLASSES
    }

    /// Pops (or allocates) an empty buffer with capacity for at least
    /// `min_capacity` bytes, stamped with a fresh generation tag; dropping
    /// the handle returns the buffer.
    ///
    /// The returned vector always has `len() == 0`; recycled buffers are
    /// cleared before they are handed out, so no bytes from a previous
    /// owner are ever visible.
    pub fn acquire(&self, min_capacity: usize) -> PooledBuf<'_> {
        self.acquires.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(1, Ordering::Relaxed);
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let class = class_holding(min_capacity);
        let vec = match class.and_then(|class| self.pop_class(class)) {
            Some(vec) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                vec
            }
            // A miss allocates the class size, so the buffer can come back;
            // a request above the largest class what it asked for, and that
            // one is freed on return.
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(class.map_or(min_capacity, |class| SIZE_CLASSES[class]))
            }
        };
        debug_assert!(vec.is_empty());
        PooledBuf {
            vec,
            generation,
            pool: self,
        }
    }

    /// Like [`BufferPool::acquire`] but returns the raw vector for owners
    /// that embed it in their own structures (a `SharedBytesMut`). The owner
    /// must not let the vector reallocate and hands it back with
    /// [`BufferPool::recycle_vec`]; until then it counts as live.
    pub fn acquire_vec(&self, min_capacity: usize) -> Vec<u8> {
        self.acquire(min_capacity).detach()
    }

    /// Takes back a buffer this pool issued.
    ///
    /// The buffer is cleared and filed under the class of its capacity, the
    /// one whose `acquire` finds it; one that is not of a class size (issued
    /// for a request above the largest class, or regrown by an owner that
    /// broke the rule) and one arriving at a full class are freed. A vector
    /// without capacity is what a handle that already gave its buffer away
    /// holds, and is ignored.
    pub fn recycle_vec(&self, mut vec: Vec<u8>) {
        if vec.capacity() == 0 {
            return;
        }
        self.live.fetch_sub(1, Ordering::Relaxed);
        let class =
            class_holding(vec.capacity()).filter(|&class| SIZE_CLASSES[class] == vec.capacity());
        let Some(class) = class else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        };
        vec.clear();
        // Fast path: park the buffer in this thread's cache slot.
        if self.uses_thread_cache(class) {
            let parked = THREAD_CACHE.with(|cache| {
                let mut cache = cache.borrow_mut();
                if cache[class].is_none() {
                    cache[class] = Some(std::mem::take(&mut vec));
                    true
                } else {
                    false
                }
            });
            if parked {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let mut slab = self.class_lock(class);
        if slab.buffers.len() >= class_limit(class) {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slab.buffers.push(vec);
        self.recycled.fetch_add(1, Ordering::Relaxed);
    }

    /// Pops a buffer of `class` from the thread cache (when it fronts the
    /// class) or the shared slab.
    fn pop_class(&self, class: usize) -> Option<Vec<u8>> {
        if self.uses_thread_cache(class) {
            let cached = THREAD_CACHE.with(|cache| cache.borrow_mut()[class].take());
            if cached.is_some() {
                return cached;
            }
        }
        let mut slab = self.class_lock(class);
        let vec = slab.buffers.pop()?;
        slab.low_water = slab.low_water.min(slab.buffers.len());
        Some(vec)
    }

    /// Frees the buffers the shared slabs held the whole time since the last
    /// call — each class's low-water mark, so what a load is using, or used
    /// a moment ago, stays — and returns how many bytes that was. Two calls
    /// with nothing issued in between free everything retained. What threads
    /// park in their own caches stays; buffers in use are untouched and
    /// retained again when they come back.
    pub fn release_unused(&self) -> usize {
        let released = (0..SIZE_CLASSES.len())
            .map(|class| {
                let mut slab = self.class_lock(class);
                let unused = slab.low_water.min(slab.buffers.len());
                let released: Vec<_> = slab.buffers.drain(..unused).collect();
                slab.low_water = slab.buffers.len();
                // Freed after the lock is let go.
                drop(slab);
                released.len() * SIZE_CLASSES[class]
            })
            .sum();
        if released > 0 {
            trim_heap();
        }
        released
    }

    /// A snapshot of the pool counters. Each is read on its own: the two
    /// sums of [`PoolStats`] hold once the pool is quiet, and may be off by
    /// the operations under way otherwise.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            acquires: self.acquires.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
        }
    }

    /// What each size class holds right now, in [`SIZE_CLASSES`] order. The
    /// global pool's per-thread caches (at most one buffer per small class
    /// and thread) are not visible from here.
    pub fn retained(&self) -> [ClassRetention; SIZE_CLASSES.len()] {
        std::array::from_fn(|class| {
            let buffers = self.class_lock(class).buffers.len();
            ClassRetention {
                class_bytes: SIZE_CLASSES[class],
                buffers,
                bytes: buffers * SIZE_CLASSES[class],
            }
        })
    }

    /// Number of buffers currently parked in the pool across all classes.
    pub fn pooled_buffers(&self) -> usize {
        self.retained().iter().map(|class| class.buffers).sum()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("pooled_buffers", &self.pooled_buffers())
            .field("stats", &self.stats())
            .finish()
    }
}

/// An acquired pool buffer: an empty `Vec<u8>` plus the generation tag of
/// this ownership interval. Dropping the handle returns the buffer to its
/// pool; [`PooledBuf::detach`] hands the vector to an owner that returns it
/// itself.
#[derive(Debug)]
pub struct PooledBuf<'pool> {
    vec: Vec<u8>,
    generation: u64,
    pool: &'pool BufferPool,
}

impl PooledBuf<'_> {
    /// The generation tag stamped at acquisition. Strictly increasing across
    /// all acquires of the pool, so no two live handles share a tag.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Extracts the buffer, consuming the handle; the buffer stays live
    /// until [`BufferPool::recycle_vec`] gets it back.
    pub fn detach(mut self) -> Vec<u8> {
        std::mem::take(&mut self.vec)
    }
}

impl Drop for PooledBuf<'_> {
    fn drop(&mut self) {
        self.pool.recycle_vec(std::mem::take(&mut self.vec));
    }
}

impl std::ops::Deref for PooledBuf<'_> {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.vec
    }
}

impl std::ops::DerefMut for PooledBuf<'_> {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.vec
    }
}

/// Hands the allocator's free pages back to the kernel. Freeing the pool's
/// buffers puts them on glibc's free lists, where their pages stay resident
/// until asked: without this a node that served `RenderLogs` sits 2.5 MiB
/// above its idle footprint for good.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: `malloc_trim` takes no pointer and may be called from any
        // thread at any time; it locks each arena while it releases that
        // arena's free pages and touches no memory in use.
        unsafe { glibc::malloc_trim(0) };
    }
}

/// Fixes where the allocator takes large blocks from, once, at the start of
/// a process that serves: everything up to the largest class comes from the
/// heap proper, and the heap's top is given back only when twice that much
/// of it is free (the rest goes when the pool gives back what it no longer
/// uses, [`BufferPool::release_unused`]).
///
/// Left alone, glibc moves both thresholds with the largest block freed so
/// far, and a server that keeps its large buffers never frees one: the
/// thresholds then follow whatever user code frees. Three equal vectors (a
/// 128×128 multiplication's operands and product) are just more than twice
/// the largest of them, so every request's end trimmed the heap's top and
/// the next one faulted it in again: 64 page faults and 6 % more CPU per
/// request, which the node did not pay as long as it kept freeing 512 KiB
/// buffers it should have kept.
pub fn settle_heap_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        let largest = LARGEST_CLASS as std::os::raw::c_int;
        // SAFETY: `mallopt` takes two integers and changes allocator
        // parameters under the allocator's own lock; every value is valid
        // (an out-of-range one is refused, not acted on).
        unsafe {
            glibc::mallopt(glibc::M_MMAP_THRESHOLD, largest);
            glibc::mallopt(glibc::M_TRIM_THRESHOLD, 2 * largest);
        }
    }
}

/// The two glibc calls above, bound by hand like `read(2)` in `bytes.rs`
/// (the workspace has no `libc` crate).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use std::os::raw::c_int;

    /// `malloc.h`: the heap's top is trimmed when more than this is free.
    pub const M_TRIM_THRESHOLD: c_int = -1;
    /// `malloc.h`: requests of at least this many bytes are mapped singly.
    pub const M_MMAP_THRESHOLD: c_int = -3;

    extern "C" {
        pub fn malloc_trim(pad: usize) -> c_int;
        pub fn mallopt(parameter: c_int, value: c_int) -> c_int;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accounted(pool: &BufferPool) {
        let stats = pool.stats();
        assert_eq!(
            stats.acquires,
            stats.reuses + stats.allocations,
            "{stats:?}"
        );
        assert_eq!(
            stats.acquires,
            stats.recycled + stats.discarded + stats.live,
            "{stats:?}"
        );
    }

    #[test]
    fn acquire_rounds_up_to_a_class() {
        for (class, &size) in SIZE_CLASSES.iter().enumerate() {
            assert_eq!(class_holding(size), Some(class));
            assert_eq!(class_holding(size - 1), Some(class));
            let next = (class + 1 < SIZE_CLASSES.len()).then_some(class + 1);
            assert_eq!(class_holding(size + 1), next);
        }
        assert_eq!(class_holding(0), Some(0));
        assert_eq!(class_holding(usize::MAX), None);
        let pool = BufferPool::new();
        let buf = pool.acquire(10);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), SIZE_CLASSES[0]);
        let buf = pool.acquire(SIZE_CLASSES[0] + 1);
        assert_eq!(buf.capacity(), SIZE_CLASSES[1]);
    }

    #[test]
    fn recycle_then_acquire_reuses_the_allocation() {
        let pool = BufferPool::new();
        let mut vec = pool.acquire_vec(4096);
        vec.extend_from_slice(&[7u8; 100]);
        let ptr = vec.as_ptr();
        pool.recycle_vec(vec);
        let again = pool.acquire_vec(4096);
        assert_eq!(again.as_ptr(), ptr, "pool must hand back the same buffer");
        assert!(again.is_empty(), "recycled buffers are cleared");
        let stats = pool.stats();
        assert_eq!(stats.acquires, 2);
        assert_eq!(stats.reuses, 1);
        assert_eq!(stats.allocations, 1);
        assert_eq!(stats.recycled, 1);
        assert_eq!(stats.live, 1);
        accounted(&pool);
    }

    #[test]
    fn a_dropped_handle_returns_its_buffer() {
        let pool = BufferPool::new();
        let ptr = pool.acquire(100).as_ptr();
        assert_eq!(pool.pooled_buffers(), 1);
        assert_eq!(pool.stats().live, 0);
        assert_eq!(pool.acquire(100).as_ptr(), ptr);
        accounted(&pool);
    }

    #[test]
    fn what_a_class_retains_is_served_to_an_acquire_of_that_class_size() {
        // Every class, two buffers each, asked for at the class size itself,
        // at one byte (the smallest class only) and at one byte more than
        // the class below holds.
        let pool = BufferPool::new();
        for (class, &size) in SIZE_CLASSES.iter().enumerate() {
            let smallest_request = match class {
                0 => 1,
                _ => SIZE_CLASSES[class - 1] + 1,
            };
            let issued = [pool.acquire_vec(size), pool.acquire_vec(smallest_request)];
            let pointers = issued.each_ref().map(|vec| vec.as_ptr());
            for vec in issued {
                assert_eq!(vec.capacity(), size);
                pool.recycle_vec(vec);
            }
            let retained = pool.retained()[class];
            assert_eq!((retained.buffers, retained.bytes), (2, 2 * size));
            let allocations = pool.stats().allocations;
            let served = [size, smallest_request].map(|request| pool.acquire_vec(request));
            for vec in &served {
                assert!(pointers.contains(&vec.as_ptr()), "class {size}");
            }
            assert_eq!(pool.stats().allocations, allocations, "class {size}");
            assert_eq!(pool.retained()[class].buffers, 0);
        }
    }

    #[test]
    fn oversized_buffers_bypass_the_pool() {
        let pool = BufferPool::new();
        let huge = pool.acquire_vec(64 * 1024 * 1024);
        assert!(huge.capacity() >= 64 * 1024 * 1024);
        pool.recycle_vec(huge);
        assert_eq!(pool.pooled_buffers(), 0);
        assert_eq!(pool.stats().discarded, 1);
        accounted(&pool);
    }

    #[test]
    fn tiny_and_empty_returns_are_dropped_quietly() {
        let pool = BufferPool::new();
        // A handle that gave its buffer away has nothing to return.
        pool.recycle_vec(Vec::new());
        assert_eq!(pool.stats(), PoolStats::default());
        // An owner that let the vector regrow to something that is no class
        // size: the buffer is freed, not parked where no request looks.
        let mut vec = pool.acquire_vec(SIZE_CLASSES[2]);
        vec.reserve_exact(SIZE_CLASSES[2] + 10);
        assert_eq!(vec.capacity(), SIZE_CLASSES[2] + 10);
        pool.recycle_vec(vec);
        assert_eq!(pool.pooled_buffers(), 0);
        assert_eq!(pool.stats().discarded, 1);
        accounted(&pool);
    }

    #[test]
    fn grown_buffers_refile_into_a_larger_class() {
        // A builder that outgrows its buffer moves into one of the class
        // that fits and returns the one it leaves; neither vector regrows,
        // so each is filed under the class that issued it. (Builders use
        // the global pool, which other tests share: capacities are
        // asserted, not counters.)
        let mut builder = crate::SharedBytesMut::with_capacity(SIZE_CLASSES[3]);
        assert_eq!(builder.capacity(), SIZE_CLASSES[3]);
        builder.put_slice(&[7u8; 100]);
        builder.put_slice(&vec![8u8; SIZE_CLASSES[3]]);
        assert_eq!(builder.capacity(), SIZE_CLASSES[4]);
        assert_eq!(builder.len(), 100 + SIZE_CLASSES[3]);
        assert_eq!(builder[..100], [7u8; 100]);
        assert_eq!(builder[100..], vec![8u8; SIZE_CLASSES[3]][..]);
        // Above the largest class the pool allocates what it is asked, and
        // growth doubles.
        let mut huge = crate::SharedBytesMut::with_capacity(LARGEST_CLASS);
        huge.put_slice(&vec![9u8; LARGEST_CLASS]);
        huge.put_u8(9);
        assert_eq!(huge.capacity(), 2 * LARGEST_CLASS);
    }

    #[test]
    fn class_overflow_discards() {
        let pool = BufferPool::new();
        let issued: Vec<_> = (0..class_limit(0) + 5)
            .map(|_| pool.acquire_vec(SIZE_CLASSES[0]))
            .collect();
        for vec in issued {
            pool.recycle_vec(vec);
        }
        assert_eq!(pool.pooled_buffers(), class_limit(0));
        assert_eq!(pool.stats().discarded, 5);
        accounted(&pool);
    }

    #[test]
    fn large_classes_are_bounded_in_bytes_not_only_in_count() {
        const MIB_CLASS: usize = 32;
        assert_eq!(SIZE_CLASSES[MIB_CLASS], 1024 * 1024);
        let pool = BufferPool::new();
        let issued: Vec<_> = (0..70)
            .map(|_| pool.acquire_vec(SIZE_CLASSES[MIB_CLASS]))
            .collect();
        for vec in issued {
            pool.recycle_vec(vec);
        }
        assert_eq!(pool.pooled_buffers(), 8);
        assert_eq!(pool.stats().discarded, 62);
        assert_eq!(
            pool.retained()[MIB_CLASS],
            ClassRetention {
                class_bytes: SIZE_CLASSES[MIB_CLASS],
                buffers: 8,
                bytes: PER_CLASS_BYTES,
            }
        );
        // Taking one out makes room for one again.
        let taken = pool.acquire_vec(SIZE_CLASSES[MIB_CLASS]);
        assert_eq!(
            pool.retained()[MIB_CLASS].bytes,
            PER_CLASS_BYTES - taken.capacity()
        );
        pool.recycle_vec(taken);
        assert_eq!(pool.retained()[MIB_CLASS].buffers, 8);
        accounted(&pool);
    }

    #[test]
    fn generations_are_unique_and_increasing() {
        let pool = BufferPool::new();
        let a = pool.acquire(64);
        let b = pool.acquire(64);
        assert!(b.generation() > a.generation());
        let vec = a.detach();
        pool.recycle_vec(vec);
        let c = pool.acquire(64);
        assert!(c.generation() > b.generation());
    }

    #[test]
    fn what_a_class_held_unused_for_a_period_is_given_back() {
        // Each `release_unused` is one look, a period after the one before.
        let pool = BufferPool::new();
        let held = pool.acquire_vec(SIZE_CLASSES[3]);
        // A burst leaves three buffers of the smallest class and a larger
        // one behind.
        drop([100, 100, 100, SIZE_CLASSES[4]].map(|bytes| pool.acquire(bytes)));
        // The first look finds the marks of the burst, which had the classes
        // empty.
        assert_eq!(pool.release_unused(), 0);
        assert_eq!(pool.pooled_buffers(), 4);
        // Small traffic goes on, one buffer of the smallest class at a time:
        // the other two and the larger one went unused, and go.
        drop(pool.acquire(100));
        drop(pool.acquire(100));
        assert_eq!(pool.release_unused(), 2 * SIZE_CLASSES[0] + SIZE_CLASSES[4]);
        assert_eq!(pool.retained()[0].buffers, 1);
        assert_eq!(pool.pooled_buffers(), 1);
        // What was in use comes back late and goes once it has lain there
        // for a whole period; the traffic has stopped, so its buffer does too.
        pool.recycle_vec(held);
        assert_eq!(pool.release_unused(), SIZE_CLASSES[0]);
        assert_eq!(pool.release_unused(), SIZE_CLASSES[3]);
        assert_eq!(pool.pooled_buffers(), 0);
        assert_eq!(pool.release_unused(), 0);
        // Released buffers are gone, not lost count of.
        accounted(&pool);
        assert_eq!(pool.stats().live, 0);
    }

    fn thread_cached_pool() -> BufferPool {
        let mut pool = BufferPool::new();
        pool.thread_cached = true;
        pool
    }

    #[test]
    fn thread_cache_round_trips_cleared_buffers() {
        let pool = thread_cached_pool();
        let mut vec = pool.acquire_vec(4096);
        vec.extend_from_slice(&[9u8; 64]);
        let ptr = vec.as_ptr();
        pool.recycle_vec(vec);
        // Served from the thread cache: same allocation, cleared.
        let again = pool.acquire_vec(4096);
        assert_eq!(again.as_ptr(), ptr);
        assert!(again.is_empty(), "cached buffers must arrive cleared");
        assert_eq!(pool.stats().reuses, 1);
        pool.recycle_vec(again);
    }

    #[test]
    fn thread_cache_never_serves_undersized_buffers() {
        let pool = thread_cached_pool();
        // Park a small-class buffer in the cache...
        pool.recycle_vec(pool.acquire_vec(SIZE_CLASSES[0]));
        // ...then ask for more than it can hold: the cache must be skipped.
        let big = pool.acquire_vec(SIZE_CLASSES[1]);
        assert_eq!(big.capacity(), SIZE_CLASSES[1]);
        pool.recycle_vec(big);
        // A smaller request is served by the class-0 buffer parked above,
        // and with that taken by a new one — never by the larger buffer.
        let small = pool.acquire_vec(SIZE_CLASSES[0]);
        let another = pool.acquire_vec(SIZE_CLASSES[0]);
        assert_eq!(small.capacity(), SIZE_CLASSES[0]);
        assert_eq!(another.capacity(), SIZE_CLASSES[0]);
        assert_eq!(pool.stats().reuses, 1);
        // The large classes have no cache slot: straight to the shared slab.
        pool.recycle_vec(pool.acquire_vec(SIZE_CLASSES[THREAD_CACHED_CLASSES]));
        assert_eq!(pool.retained()[THREAD_CACHED_CLASSES].buffers, 1);
        pool.recycle_vec(small);
        pool.recycle_vec(another);
    }

    #[test]
    fn thread_cached_pool_never_aliases_under_concurrency() {
        // The same aliasing invariant the properties stress test proves for
        // shared slabs, but through the thread-local fast path production
        // uses: generation-stamped patterns must survive other threads'
        // traffic, and no two live handles may share a generation.
        let pool = Arc::new(thread_cached_pool());
        let threads: Vec<_> = (0..4)
            .map(|worker| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for round in 0..300u64 {
                        let mut buf = pool.acquire(4096);
                        let generation = buf.generation();
                        assert!(buf.is_empty());
                        let fill = 512 + ((worker + round) % 64) as usize;
                        buf.extend((0..fill).map(|i| (generation as usize + i) as u8));
                        std::thread::yield_now();
                        for (i, byte) in buf.iter().enumerate() {
                            assert_eq!(
                                *byte,
                                (generation as usize + i) as u8,
                                "aliased buffer, generation {generation}"
                            );
                        }
                        pool.recycle_vec(buf.detach());
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("no worker panics");
        }
        let stats = pool.stats();
        assert_eq!(stats.acquires, 4 * 300);
        assert!(stats.reuses > 0, "the fast path must actually recycle");
        accounted(&pool);
    }
}
