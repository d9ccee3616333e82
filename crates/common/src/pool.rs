//! Fixed-class buffer pooling for the allocation-free steady-state path.
//!
//! The hot path of a small invocation touches the global allocator many
//! times: every HTTP head, receive buffer and output-descriptor frame used
//! to be a fresh `Vec<u8>` that was freed again microseconds later. The
//! [`BufferPool`] replaces those churn allocations with a small
//! slab of reusable buffers in a handful of fixed size classes: `acquire`
//! pops a cleared buffer of at least the requested capacity (or allocates
//! one of the class size on a miss) and `recycle` returns it for the next
//! invocation.
//!
//! Every acquisition is stamped with a process-wide monotonically increasing
//! *generation tag*. The tag uniquely identifies one ownership interval of a
//! buffer: two live handles can never carry the same generation, which is
//! what the aliasing stress test asserts while hammering the pool from many
//! threads. Buffers that out-grow the largest class (or arrive while the
//! class is full) are simply dropped to the global allocator — the pool is
//! an opportunistic fast path, never a correctness dependency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The pooled size classes in bytes. Requests are rounded up to the next
/// class; buffers above the largest class bypass the pool.
pub const SIZE_CLASSES: [usize; 6] = [
    4 * 1024,
    16 * 1024,
    64 * 1024,
    256 * 1024,
    1024 * 1024,
    4 * 1024 * 1024,
];

/// Maximum buffers retained per size class; excess recycles are dropped.
const PER_CLASS_LIMIT: usize = 64;

/// Maximum bytes (summed capacities) retained per size class. The count alone
/// would let the largest class keep 64 × 4 MiB and the pool 341 MiB; with
/// both, a class keeps 64/64/64/32/8/2 buffers of its own size — fewer of
/// buffers that grew past it — and the pool at most 37 MiB.
const PER_CLASS_BYTES: usize = 8 * 1024 * 1024;

/// The parked buffers of one size class and their summed capacities.
#[derive(Default)]
struct Slab {
    buffers: Vec<Vec<u8>>,
    bytes: usize,
}

/// What one size class of a pool's shared slabs holds at this moment;
/// snapshot via [`BufferPool::retained`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassRetention {
    /// The class size ([`SIZE_CLASSES`]).
    pub class_bytes: usize,
    /// Buffers parked in the class.
    pub buffers: usize,
    /// Their capacities, summed (a grown buffer is filed under the largest
    /// class it can serve, so this can exceed `buffers * class_bytes`).
    pub bytes: usize,
}

/// Counters describing pool behaviour; snapshot via [`BufferPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total `acquire` calls.
    pub acquires: u64,
    /// Acquires served from a recycled buffer (no allocation).
    pub reuses: u64,
    /// Acquires that had to allocate (pool miss or oversized request).
    pub allocations: u64,
    /// Buffers returned to a class for reuse.
    pub recycled: u64,
    /// Returned buffers dropped (oversized, undersized or class full).
    pub discarded: u64,
}

std::thread_local! {
    /// One-buffer-per-class thread-local cache in front of the *global*
    /// pool's shared slabs. An engine thread's steady-state loop
    /// (acquire → freeze → ship → last-view drop → recycle) stays on one
    /// thread, so the common case needs no lock at all.
    static THREAD_CACHE: std::cell::RefCell<[Option<Vec<u8>>; SIZE_CLASSES.len()]> =
        const { std::cell::RefCell::new([None, None, None, None, None, None]) };
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

    /// The smallest class whose buffers can hold `capacity` bytes.
    fn class_for_acquire(capacity: usize) -> Option<usize> {
        SIZE_CLASSES.iter().position(|&size| size >= capacity)
    }

    /// The largest class a buffer of `capacity` bytes can serve.
    fn class_for_recycle(capacity: usize) -> Option<usize> {
        SIZE_CLASSES
            .iter()
            .rposition(|&size| size <= capacity)
            .filter(|_| capacity <= 2 * SIZE_CLASSES[SIZE_CLASSES.len() - 1])
    }

    /// Pops (or allocates) an empty buffer with capacity for at least
    /// `min_capacity` bytes, stamped with a fresh generation tag.
    ///
    /// The returned vector always has `len() == 0`; recycled buffers are
    /// cleared before they are handed out, so no bytes from a previous
    /// owner are ever visible.
    pub fn acquire(&self, min_capacity: usize) -> PooledBuf {
        self.acquires.fetch_add(1, Ordering::Relaxed);
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let vec = match Self::class_for_acquire(min_capacity) {
            Some(class) => match self.pop_class(class, min_capacity) {
                Some(vec) => {
                    self.reuses.fetch_add(1, Ordering::Relaxed);
                    vec
                }
                None => {
                    self.allocations.fetch_add(1, Ordering::Relaxed);
                    Vec::with_capacity(SIZE_CLASSES[class])
                }
            },
            // Oversized request: plain allocation, never pooled on return.
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(min_capacity)
            }
        };
        debug_assert!(vec.is_empty());
        PooledBuf { vec, generation }
    }

    /// Like [`BufferPool::acquire`] but returns the raw vector for owners
    /// that embed it in their own structures (e.g. a `SharedBytesMut`).
    pub fn acquire_vec(&self, min_capacity: usize) -> Vec<u8> {
        self.acquire(min_capacity).detach()
    }

    /// Returns a buffer to the pool for reuse.
    ///
    /// The buffer is cleared and filed under the largest class its capacity
    /// can serve; empty-capacity, undersized, grossly oversized buffers and
    /// buffers arriving at a full class are dropped instead.
    pub fn recycle_vec(&self, mut vec: Vec<u8>) {
        if vec.capacity() == 0 {
            return;
        }
        let Some(class) = Self::class_for_recycle(vec.capacity()) else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        };
        vec.clear();
        // Fast path: park the buffer in this thread's cache slot.
        if self.thread_cached {
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
        if slab.buffers.len() >= PER_CLASS_LIMIT || slab.bytes + vec.capacity() > PER_CLASS_BYTES {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slab.bytes += vec.capacity();
        slab.buffers.push(vec);
        self.recycled.fetch_add(1, Ordering::Relaxed);
    }

    /// Pops a buffer able to hold `min_capacity` from the thread cache (when
    /// enabled) or the shared slab of `class`.
    fn pop_class(&self, class: usize, min_capacity: usize) -> Option<Vec<u8>> {
        if self.thread_cached {
            let cached = THREAD_CACHE.with(|cache| {
                let mut cache = cache.borrow_mut();
                // The exact class, or any larger cached buffer that fits.
                (class..SIZE_CLASSES.len()).find_map(|candidate| {
                    cache[candidate]
                        .as_ref()
                        .is_some_and(|vec| vec.capacity() >= min_capacity)
                        .then(|| cache[candidate].take().expect("checked above"))
                })
            });
            if cached.is_some() {
                return cached;
            }
        }
        let mut slab = self.class_lock(class);
        let vec = slab.buffers.pop()?;
        slab.bytes -= vec.capacity();
        Some(vec)
    }

    /// A point-in-time snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            acquires: self.acquires.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }

    /// What each size class holds right now, in [`SIZE_CLASSES`] order. The
    /// global pool's per-thread caches (at most one buffer per class and
    /// thread) are not visible from here.
    pub fn retained(&self) -> [ClassRetention; SIZE_CLASSES.len()] {
        std::array::from_fn(|class| {
            let slab = self.class_lock(class);
            ClassRetention {
                class_bytes: SIZE_CLASSES[class],
                buffers: slab.buffers.len(),
                bytes: slab.bytes,
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
/// this ownership interval.
///
/// The handle intentionally does *not* auto-recycle on drop — ownership of
/// the allocation usually migrates (into a `SharedBytesMut`, then the frozen
/// `SharedBytes`) and the final owner decides whether the buffer flows back
/// via [`BufferPool::recycle_vec`]. Dropping the handle simply frees the
/// buffer.
#[derive(Debug)]
pub struct PooledBuf {
    vec: Vec<u8>,
    generation: u64,
}

impl PooledBuf {
    /// The generation tag stamped at acquisition. Strictly increasing across
    /// all acquires of the pool, so no two live handles share a tag.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Extracts the buffer, consuming the handle.
    pub fn detach(self) -> Vec<u8> {
        self.vec
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.vec
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.vec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_rounds_up_to_a_class() {
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
    }

    #[test]
    fn oversized_buffers_bypass_the_pool() {
        let pool = BufferPool::new();
        let huge = pool.acquire_vec(64 * 1024 * 1024);
        assert!(huge.capacity() >= 64 * 1024 * 1024);
        pool.recycle_vec(huge);
        assert_eq!(pool.pooled_buffers(), 0);
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn tiny_and_empty_returns_are_dropped_quietly() {
        let pool = BufferPool::new();
        pool.recycle_vec(Vec::new());
        pool.recycle_vec(Vec::with_capacity(16));
        assert_eq!(pool.pooled_buffers(), 0);
    }

    #[test]
    fn class_overflow_discards() {
        let pool = BufferPool::new();
        for _ in 0..PER_CLASS_LIMIT + 5 {
            pool.recycle_vec(Vec::with_capacity(SIZE_CLASSES[0]));
        }
        assert_eq!(pool.pooled_buffers(), PER_CLASS_LIMIT);
        assert_eq!(pool.stats().discarded, 5);
    }

    #[test]
    fn large_classes_are_bounded_in_bytes_not_only_in_count() {
        let pool = BufferPool::new();
        for _ in 0..70 {
            pool.recycle_vec(Vec::with_capacity(SIZE_CLASSES[4]));
        }
        assert_eq!(pool.pooled_buffers(), 8);
        assert_eq!(pool.stats().discarded, 62);
        assert_eq!(
            pool.retained()[4],
            ClassRetention {
                class_bytes: SIZE_CLASSES[4],
                buffers: 8,
                bytes: PER_CLASS_BYTES,
            }
        );
        // A buffer that grew past its class counts for what it holds: half
        // as many twice-the-size buffers fit.
        for _ in 0..70 {
            pool.recycle_vec(Vec::with_capacity(2 * SIZE_CLASSES[3]));
        }
        let grown = pool.retained()[3];
        assert_eq!((grown.buffers, grown.bytes), (16, PER_CLASS_BYTES));
        // Taking one out makes room for one again.
        let taken = pool.acquire_vec(SIZE_CLASSES[3]);
        assert_eq!(pool.retained()[3].bytes, PER_CLASS_BYTES - taken.capacity());
        pool.recycle_vec(taken);
        assert_eq!(pool.retained()[3].buffers, 16);
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
    }

    #[test]
    fn thread_cache_never_serves_undersized_buffers() {
        let pool = thread_cached_pool();
        // Park a small-class buffer in the cache...
        pool.recycle_vec(pool.acquire_vec(SIZE_CLASSES[0]));
        // ...then ask for more than it can hold: the cache must be skipped.
        let big = pool.acquire_vec(SIZE_CLASSES[1]);
        assert!(big.capacity() >= SIZE_CLASSES[1]);
        // A smaller request is served from the cache (the class-0 buffer
        // parked above fits it exactly).
        pool.recycle_vec(big);
        let small = pool.acquire_vec(SIZE_CLASSES[0]);
        assert!(small.capacity() >= SIZE_CLASSES[0]);
        // With class 0 drained, the larger cached buffer serves the next
        // small request too.
        let from_larger = pool.acquire_vec(SIZE_CLASSES[0]);
        assert!(from_larger.capacity() >= SIZE_CLASSES[1]);
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
    }

    #[test]
    fn grown_buffers_refile_into_a_larger_class() {
        let pool = BufferPool::new();
        let mut vec = pool.acquire_vec(4096);
        // Grow past the acquired class, as a builder that outgrows it does.
        vec.resize(SIZE_CLASSES[2] + 10, 0);
        let capacity = vec.capacity();
        pool.recycle_vec(vec);
        assert_eq!(pool.pooled_buffers(), 1);
        // The refiled buffer serves requests up to its real capacity class.
        let again = pool.acquire_vec(SIZE_CLASSES[2]);
        assert!(again.capacity() >= SIZE_CLASSES[2]);
        assert_eq!(again.capacity(), capacity);
    }
}
