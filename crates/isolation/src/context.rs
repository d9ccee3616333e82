//! Bounded, contiguous memory contexts.
//!
//! A *memory context* is the dispatcher's abstraction for the memory a
//! function uses during execution (paper §5): a bounded contiguous region
//! with methods to read and write at offsets and to transfer data to other
//! contexts. The maximum size is the memory requirement declared when the
//! function was registered; physical pages are only committed as data is
//! written, which is what makes Dandelion's per-request memory footprint so
//! small in the Azure-trace experiment (Figure 10).
//!
//! # Zero-copy data passing
//!
//! Composition edges move data between contexts by reference, not by copy
//! (paper §6.1, "Data passing"): [`MemoryContext::export`] freezes the
//! context's own region and hands out [`SharedBytes`] views of it, and
//! [`MemoryContext::import`] attaches a producer's exported view to a
//! consumer context without copying — modeling the page remapping the real
//! backends perform. The explicit byte copy survives only as the documented
//! portable fallback, [`MemoryContext::transfer_to`] (with
//! [`MemoryContext::append`] / [`MemoryContext::write`] underneath it), and
//! as copy-on-write when a frozen region with outstanding views is written
//! again.
//!
//! # Pooled arenas
//!
//! A context owns an arena only if something is *written* into its own
//! region. The sandbox lifecycle writes nothing: the function binary, the
//! inputs, the output frame and the outputs are all attached with
//! [`MemoryContext::import`], so a task's context is a capacity, a
//! high-water mark and a list of references — it acquires no arena, zeroes
//! nothing and copies nothing. For the callers that do write (the copy
//! fallback above, tests, baselines) the own region is drawn from the
//! process-wide [`BufferPool`](dandelion_common::pool::BufferPool) instead
//! of the global allocator: the first committed write acquires a pooled
//! arena, and [`MemoryContext::clear`] (or dropping the context) recycles it
//! — including a frozen region whose exported views have all been dropped.
//! Regions above the largest pool class fall back to plain allocation
//! transparently.

use std::sync::Arc;

use dandelion_common::pool::BufferPool;
use dandelion_common::{ContextId, DandelionError, DandelionResult, SharedBytes};

/// The context's own region: writable until the first export, then frozen so
/// outstanding views stay valid while the context is reused.
#[derive(Debug)]
enum Backing {
    /// Writable storage; grows lazily up to the capacity.
    Mutable(Vec<u8>),
    /// Frozen storage produced by an export; downstream contexts may hold
    /// views of it.
    Frozen(SharedBytes),
}

impl Backing {
    fn len(&self) -> usize {
        match self {
            Backing::Mutable(bytes) => bytes.len(),
            Backing::Frozen(shared) => shared.len(),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Backing::Mutable(bytes) => bytes,
            Backing::Frozen(shared) => shared.as_slice(),
        }
    }
}

/// A bounded, contiguous memory region owned by one function instance, plus
/// the read-only regions imported from other contexts.
#[derive(Debug)]
pub struct MemoryContext {
    id: ContextId,
    /// The context's own region.
    backing: Backing,
    /// Regions attached by [`MemoryContext::import`]; they count toward the
    /// capacity but are never copied.
    imports: Vec<SharedBytes>,
    /// Sum of the imported regions' lengths.
    imported_bytes: usize,
    /// Maximum size of the context (the user-declared memory requirement),
    /// covering the own region and all imports.
    capacity: usize,
    /// High-water mark of bytes ever committed or imported, for accounting.
    high_water: usize,
    /// The pool the own region is drawn from and recycled to; `None` means
    /// every arena comes from the global allocator.
    pool: Option<Arc<BufferPool>>,
}

impl MemoryContext {
    /// Creates a context with the given capacity. No memory is committed
    /// until data is written (mirroring demand paging); the arena backing
    /// the committed region comes from the global buffer pool.
    pub fn new(capacity: usize) -> Self {
        Self::with_pool_handle(capacity, Some(Arc::clone(BufferPool::global())))
    }

    /// Creates a context whose arena always comes from the global allocator,
    /// bypassing the buffer pool. This is the pre-pooling reference
    /// behaviour, kept for benchmark baselines and allocator-sensitivity
    /// tests.
    pub fn new_unpooled(capacity: usize) -> Self {
        Self::with_pool_handle(capacity, None)
    }

    /// Creates a context drawing its arena from a specific pool (tests use
    /// private pools to observe recycling deterministically).
    pub fn with_pool(capacity: usize, pool: Arc<BufferPool>) -> Self {
        Self::with_pool_handle(capacity, Some(pool))
    }

    fn with_pool_handle(capacity: usize, pool: Option<Arc<BufferPool>>) -> Self {
        Self {
            id: ContextId::next(),
            backing: Backing::Mutable(Vec::new()),
            imports: Vec::new(),
            imported_bytes: 0,
            capacity,
            high_water: 0,
            pool,
        }
    }

    /// The context identifier.
    pub fn id(&self) -> ContextId {
        self.id
    }

    /// The maximum size of the context in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently committed in the context's own region.
    pub fn committed_bytes(&self) -> usize {
        self.backing.len()
    }

    /// Bytes attached by zero-copy imports.
    pub fn imported_bytes(&self) -> usize {
        self.imported_bytes
    }

    /// Highest number of bytes (committed + imported) this context ever
    /// held.
    pub fn high_water_bytes(&self) -> usize {
        self.high_water
    }

    /// Makes the own region writable again after an export.
    ///
    /// When no views of the frozen region are outstanding the buffer is
    /// reclaimed without copying; otherwise the visible bytes are copied
    /// once (copy-on-write — the documented fallback that keeps exported
    /// views immutable).
    fn make_mutable(&mut self) -> &mut Vec<u8> {
        if matches!(self.backing, Backing::Frozen(_)) {
            // Move the frozen view out before trying to unwrap it, so the
            // context's own reference does not keep the Arc count above one.
            let Backing::Frozen(shared) =
                std::mem::replace(&mut self.backing, Backing::Mutable(Vec::new()))
            else {
                unreachable!("matched above");
            };
            self.backing = match shared.try_unwrap_whole() {
                Ok(vec) => Backing::Mutable(vec),
                Err(shared) => {
                    // Copy-on-write into a fresh (pooled) arena: outstanding
                    // views keep the frozen buffer alive.
                    let mut vec = match &self.pool {
                        Some(pool) => pool.acquire_vec(shared.len()),
                        None => Vec::with_capacity(shared.len()),
                    };
                    vec.extend_from_slice(shared.as_slice());
                    Backing::Mutable(vec)
                }
            };
        }
        match &mut self.backing {
            Backing::Mutable(bytes) => bytes,
            Backing::Frozen(_) => unreachable!("unfrozen above"),
        }
    }

    fn ensure_len(&mut self, required: usize) -> DandelionResult<()> {
        let total = required
            .checked_add(self.imported_bytes)
            .ok_or_else(|| DandelionError::ContextError("offset overflow".to_string()))?;
        if total > self.capacity {
            return Err(DandelionError::ContextError(format!(
                "write of {} bytes exceeds context capacity of {} bytes ({} bytes imported)",
                required, self.capacity, self.imported_bytes
            )));
        }
        if required > self.backing.len() {
            let pool = self.pool.clone();
            let bytes = self.make_mutable();
            if let Some(pool) = &pool {
                if bytes.capacity() == 0 {
                    // First committed write: draw the arena from the pool
                    // instead of the global allocator.
                    *bytes = pool.acquire_vec(required);
                }
            }
            bytes.resize(required, 0);
            self.high_water = self.high_water.max(total);
        }
        Ok(())
    }

    /// Writes `data` at `offset`, committing pages as needed.
    pub fn write(&mut self, offset: usize, data: &[u8]) -> DandelionResult<()> {
        let end = offset
            .checked_add(data.len())
            .ok_or_else(|| DandelionError::ContextError("offset overflow".to_string()))?;
        self.ensure_len(end)?;
        self.make_mutable()[offset..end].copy_from_slice(data);
        Ok(())
    }

    /// Appends `data` at the current commit extent and returns its offset.
    pub fn append(&mut self, data: &[u8]) -> DandelionResult<usize> {
        let offset = self.backing.len();
        self.write(offset, data)?;
        Ok(offset)
    }

    /// Reads `len` bytes starting at `offset` of the context's own region.
    pub fn read(&self, offset: usize, len: usize) -> DandelionResult<&[u8]> {
        let end = offset
            .checked_add(len)
            .ok_or_else(|| DandelionError::ContextError("offset overflow".to_string()))?;
        if end > self.backing.len() {
            return Err(DandelionError::ContextError(format!(
                "read of {len} bytes at offset {offset} is out of bounds (committed {})",
                self.backing.len()
            )));
        }
        Ok(&self.backing.as_slice()[offset..end])
    }

    /// Returns the whole committed region.
    pub fn committed(&self) -> &[u8] {
        self.backing.as_slice()
    }

    /// Exports a range of the context's own region as a zero-copy view.
    ///
    /// The first export freezes the region (a move, not a copy); further
    /// exports slice the same frozen buffer. Exported views remain valid
    /// after [`MemoryContext::clear`], which is how a finished function's
    /// outputs outlive its context without being copied. Writing to the
    /// context after an export falls back to copy-on-write only while views
    /// are outstanding.
    pub fn export(&mut self, offset: usize, len: usize) -> DandelionResult<SharedBytes> {
        let end = offset
            .checked_add(len)
            .ok_or_else(|| DandelionError::ContextError("offset overflow".to_string()))?;
        if end > self.backing.len() {
            return Err(DandelionError::ContextError(format!(
                "export of {len} bytes at offset {offset} is out of bounds (committed {})",
                self.backing.len()
            )));
        }
        if let Backing::Mutable(bytes) = &mut self.backing {
            let frozen = SharedBytes::from_vec(std::mem::take(bytes));
            self.backing = Backing::Frozen(frozen);
        }
        match &self.backing {
            Backing::Frozen(shared) => Ok(shared.slice(offset..end)),
            Backing::Mutable(_) => unreachable!("frozen above"),
        }
    }

    /// Attaches another context's exported region to this context without
    /// copying, returning the import's region index.
    ///
    /// The imported bytes count toward this context's capacity exactly as a
    /// copy would have, so memory accounting is unchanged — only the memcpy
    /// is gone.
    pub fn import(&mut self, data: &SharedBytes) -> DandelionResult<usize> {
        let total = self
            .backing
            .len()
            .checked_add(self.imported_bytes)
            .and_then(|used| used.checked_add(data.len()))
            .ok_or_else(|| DandelionError::ContextError("import overflow".to_string()))?;
        if total > self.capacity {
            return Err(DandelionError::ContextError(format!(
                "import of {} bytes exceeds context capacity of {} bytes ({} bytes in use)",
                data.len(),
                self.capacity,
                self.backing.len() + self.imported_bytes
            )));
        }
        self.imports.push(data.clone());
        self.imported_bytes += data.len();
        self.high_water = self.high_water.max(total);
        Ok(self.imports.len() - 1)
    }

    /// Returns an imported region by index.
    pub fn imported(&self, index: usize) -> Option<&SharedBytes> {
        self.imports.get(index)
    }

    /// Copies a range from this context into another context.
    ///
    /// This is the portable *fallback* for moving a finished function's
    /// outputs into the inputs of a waiting function (paper §6.1, "Data
    /// passing"): backends that cannot remap regions do one copy here.
    /// The zero-copy path is [`MemoryContext::export`] on the producer plus
    /// [`MemoryContext::import`] on the consumer.
    pub fn transfer_to(
        &self,
        destination: &mut MemoryContext,
        source_offset: usize,
        length: usize,
        destination_offset: usize,
    ) -> DandelionResult<()> {
        let data = self.read(source_offset, length)?;
        destination.write(destination_offset, data)
    }

    /// Releases committed memory and detaches imports while keeping the
    /// capacity reservation. Views handed out by [`MemoryContext::export`]
    /// keep the frozen buffer alive independently.
    ///
    /// A pooled context recycles its arena here — including a frozen region
    /// whose exported views have all been dropped — so sandbox teardown
    /// feeds the next sandbox's setup instead of the global allocator.
    pub fn clear(&mut self) {
        self.reclaim_backing();
        self.imports.clear();
        self.imported_bytes = 0;
    }

    /// Replaces the backing with an empty region, returning the old arena
    /// to the buffer pool when possible.
    fn reclaim_backing(&mut self) {
        let backing = std::mem::replace(&mut self.backing, Backing::Mutable(Vec::new()));
        let Some(pool) = &self.pool else {
            return;
        };
        match backing {
            Backing::Mutable(vec) => pool.recycle_vec(vec),
            Backing::Frozen(shared) => {
                // Recycles only when no exported views remain; otherwise the
                // views keep the buffer alive and it is freed with the last
                // of them.
                if let Ok(vec) = shared.try_unwrap_whole() {
                    pool.recycle_vec(vec);
                }
            }
        }
    }
}

impl Drop for MemoryContext {
    fn drop(&mut self) {
        self.reclaim_backing();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_and_read_roundtrip() {
        let mut context = MemoryContext::new(1024);
        assert_eq!(context.committed_bytes(), 0);
        context.write(10, b"hello").unwrap();
        assert_eq!(context.committed_bytes(), 15);
        assert_eq!(context.read(10, 5).unwrap(), b"hello");
        // The gap before the write reads as zeros.
        assert_eq!(context.read(0, 10).unwrap(), &[0u8; 10]);
    }

    #[test]
    fn append_returns_offsets() {
        let mut context = MemoryContext::new(64);
        let first = context.append(b"abc").unwrap();
        let second = context.append(b"defg").unwrap();
        assert_eq!(first, 0);
        assert_eq!(second, 3);
        assert_eq!(context.read(0, 7).unwrap(), b"abcdefg");
    }

    #[test]
    fn capacity_is_enforced() {
        let mut context = MemoryContext::new(8);
        assert!(context.write(0, &[0u8; 8]).is_ok());
        let err = context.write(1, &[0u8; 8]).unwrap_err();
        assert!(matches!(err, DandelionError::ContextError(_)));
        let err = context.append(&[0u8; 1]).unwrap_err();
        assert!(matches!(err, DandelionError::ContextError(_)));
    }

    #[test]
    fn out_of_bounds_reads_fail() {
        let mut context = MemoryContext::new(64);
        context.write(0, b"data").unwrap();
        assert!(context.read(0, 5).is_err());
        assert!(context.read(100, 1).is_err());
        assert!(context.read(usize::MAX, 2).is_err());
    }

    #[test]
    fn transfer_between_contexts() {
        let mut source = MemoryContext::new(64);
        let mut destination = MemoryContext::new(64);
        source.write(0, b"transfer me").unwrap();
        source.transfer_to(&mut destination, 9, 2, 5).unwrap();
        assert_eq!(destination.read(5, 2).unwrap(), b"me");
        assert!(source.transfer_to(&mut destination, 60, 10, 0).is_err());
    }

    #[test]
    fn export_hands_out_views_without_copying() {
        let mut context = MemoryContext::new(64);
        context.append(b"prefix|payload").unwrap();
        let payload = context.export(7, 7).unwrap();
        assert_eq!(payload, b"payload");
        let again = context.export(0, 6).unwrap();
        assert_eq!(again, b"prefix");
        // Both exports are windows of the same frozen buffer.
        assert!(SharedBytes::same_buffer(&payload, &again));
        // The region is still readable after freezing.
        assert_eq!(context.read(0, 6).unwrap(), b"prefix");
        assert!(context.export(10, 10).is_err());
    }

    #[test]
    fn exported_views_survive_clear() {
        let mut context = MemoryContext::new(64);
        context.append(b"outlive").unwrap();
        let view = context.export(0, 7).unwrap();
        context.clear();
        assert_eq!(context.committed_bytes(), 0);
        assert_eq!(view, b"outlive");
    }

    #[test]
    fn writes_after_export_do_not_disturb_views() {
        let mut context = MemoryContext::new(64);
        context.append(b"original").unwrap();
        let view = context.export(0, 8).unwrap();
        // Copy-on-write: the outstanding view keeps its bytes.
        context.write(0, b"REWRITTEN").unwrap();
        assert_eq!(view, b"original");
        assert_eq!(context.read(0, 9).unwrap(), b"REWRITTEN");
    }

    #[test]
    fn unfreezing_without_outstanding_views_avoids_the_copy() {
        let mut context = MemoryContext::new(64);
        context.append(b"transient").unwrap();
        drop(context.export(0, 9).unwrap());
        // No views remain, so the buffer is reclaimed and writable again.
        context.append(b"+more").unwrap();
        assert_eq!(context.read(0, 14).unwrap(), b"transient+more");
    }

    #[test]
    fn import_attaches_views_and_counts_capacity() {
        let mut producer = MemoryContext::new(64);
        producer.append(b"shared payload").unwrap();
        let exported = producer.export(0, 14).unwrap();

        let mut consumer = MemoryContext::new(20);
        let region = consumer.import(&exported).unwrap();
        assert_eq!(consumer.imported_bytes(), 14);
        assert_eq!(consumer.high_water_bytes(), 14);
        // The attached region is the producer's buffer, not a copy.
        assert!(SharedBytes::same_buffer(
            consumer.imported(region).unwrap(),
            &exported
        ));
        // Imports count toward the capacity: 14 imported + 7 written > 20.
        let err = consumer.append(&[0u8; 7]).unwrap_err();
        assert!(matches!(err, DandelionError::ContextError(_)));
        assert!(consumer.append(&[0u8; 6]).is_ok());
        // A second import beyond the capacity is rejected too.
        assert!(consumer.import(&exported).is_err());
    }

    #[test]
    fn huge_write_offsets_with_imports_fail_cleanly() {
        let mut producer = MemoryContext::new(64);
        producer.append(b"0123456789").unwrap();
        let exported = producer.export(0, 10).unwrap();
        let mut consumer = MemoryContext::new(64);
        consumer.import(&exported).unwrap();
        // required + imported_bytes would overflow; must be a typed error,
        // not a panic or a wrapped-around capacity bypass.
        let err = consumer.write(usize::MAX - 3, &[0u8; 1]).unwrap_err();
        assert!(matches!(err, DandelionError::ContextError(_)));
    }

    #[test]
    fn clear_releases_memory_but_keeps_high_water() {
        let mut context = MemoryContext::new(1024);
        context.write(0, &[1u8; 512]).unwrap();
        assert_eq!(context.high_water_bytes(), 512);
        context.clear();
        assert_eq!(context.committed_bytes(), 0);
        assert_eq!(context.imported_bytes(), 0);
        assert_eq!(context.high_water_bytes(), 512);
        assert_eq!(context.capacity(), 1024);
    }

    #[test]
    fn cleared_contexts_recycle_their_arena() {
        // First context commits an arena, clears, and the next context gets
        // the very same allocation back from the (private) pool.
        let pool = Arc::new(BufferPool::new());
        let mut first = MemoryContext::with_pool(64 * 1024, Arc::clone(&pool));
        first.write(0, &[1u8; 8 * 1024]).unwrap();
        let arena_ptr = first.committed().as_ptr();
        first.clear();
        assert_eq!(pool.stats().recycled, 1);

        let mut second = MemoryContext::with_pool(64 * 1024, Arc::clone(&pool));
        second.write(0, &[2u8; 8 * 1024]).unwrap();
        assert_eq!(
            second.committed().as_ptr(),
            arena_ptr,
            "the recycled arena must be reused"
        );
        assert_eq!(pool.stats().reuses, 1);
        // Recycled arenas are cleared: reads past the new commit extent fail
        // instead of exposing the previous context's bytes.
        assert!(second.read(8 * 1024, 1).is_err());
    }

    #[test]
    fn dropping_a_context_recycles_like_clear() {
        let pool = Arc::new(BufferPool::new());
        let arena_ptr = {
            let mut context = MemoryContext::with_pool(64 * 1024, Arc::clone(&pool));
            context.write(0, &[3u8; 4 * 1024]).unwrap();
            context.committed().as_ptr()
        };
        assert_eq!(pool.stats().recycled, 1);
        let mut next = MemoryContext::with_pool(64 * 1024, Arc::clone(&pool));
        next.write(0, &[4u8; 4 * 1024]).unwrap();
        assert_eq!(next.committed().as_ptr(), arena_ptr);
    }

    #[test]
    fn outstanding_views_block_recycling() {
        let pool = Arc::new(BufferPool::new());
        let mut context = MemoryContext::with_pool(64 * 1024, Arc::clone(&pool));
        context.append(&[5u8; 4 * 1024]).unwrap();
        let view = context.export(0, 4 * 1024).unwrap();
        context.clear();
        // The exported view still owns the old arena, so nothing flowed back
        // to the pool.
        assert_eq!(view[0], 5);
        assert_eq!(pool.stats().recycled, 0);
        assert_eq!(pool.pooled_buffers(), 0);
        // Once the last view drops, the arena is simply freed (not pooled —
        // ownership already left the context).
        drop(view);
        assert_eq!(pool.pooled_buffers(), 0);
    }

    #[test]
    fn exports_without_views_recycle_on_clear() {
        let pool = Arc::new(BufferPool::new());
        let mut context = MemoryContext::with_pool(64 * 1024, Arc::clone(&pool));
        context.append(&[8u8; 4 * 1024]).unwrap();
        drop(context.export(0, 4 * 1024).unwrap());
        // The region is frozen but no views remain: clear reclaims the
        // buffer into the pool.
        context.clear();
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn unpooled_contexts_bypass_the_pool() {
        let mut context = MemoryContext::new_unpooled(64 * 1024);
        context.write(0, &[7u8; 8 * 1024]).unwrap();
        assert!(context.pool.is_none());
        context.clear();
        assert_eq!(context.read(0, 1).ok(), None);
    }

    #[test]
    fn ids_are_unique() {
        let a = MemoryContext::new(1);
        let b = MemoryContext::new(1);
        assert_ne!(a.id(), b.id());
    }
}
