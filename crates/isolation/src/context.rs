//! Bounded memory contexts.
//!
//! A *memory context* is the dispatcher's abstraction for the memory a
//! function uses during execution (paper §5): a bounded region whose maximum
//! size is the memory requirement declared when the function was registered.
//! Only what a task really attaches counts against it, which is what makes
//! Dandelion's per-request memory footprint so small in the Azure-trace
//! experiment (Figure 10).
//!
//! # Zero-copy data passing
//!
//! Everything a sandbox holds — the function binary, the inputs, the output
//! frame, the outputs — is attached with [`MemoryContext::import`]: a
//! reference to the producer's [`SharedBytes`] buffer, counted against the
//! capacity byte for byte exactly as a copy would be, but never copied
//! (paper §6.1, "Data passing" — modeling the page remapping the real
//! backends perform). A context therefore owns no memory of its own: it is a
//! capacity, a high-water mark and a list of attached regions, and the only
//! thing a task's context ever allocates is that list.

use dandelion_common::{ContextId, DandelionError, DandelionResult, SharedBytes};

/// The bounded set of read-only regions attached to one function instance.
#[derive(Debug)]
pub struct MemoryContext {
    id: ContextId,
    /// Regions attached by [`MemoryContext::import`]; they count toward the
    /// capacity but are never copied.
    imports: Vec<SharedBytes>,
    /// Sum of the imported regions' lengths.
    imported_bytes: usize,
    /// Maximum size of the context (the user-declared memory requirement).
    capacity: usize,
    /// High-water mark of bytes ever attached, for accounting.
    high_water: usize,
}

impl MemoryContext {
    /// Creates an empty context with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Self::with_regions(capacity, 0)
    }

    /// Creates an empty context with the given capacity whose list of
    /// attached regions has room for `regions` imports before it grows.
    pub fn with_regions(capacity: usize, regions: usize) -> Self {
        Self {
            id: ContextId::next(),
            imports: Vec::with_capacity(regions),
            imported_bytes: 0,
            capacity,
            high_water: 0,
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

    /// Bytes attached by zero-copy imports.
    pub fn imported_bytes(&self) -> usize {
        self.imported_bytes
    }

    /// Highest number of bytes this context ever held.
    pub fn high_water_bytes(&self) -> usize {
        self.high_water
    }

    /// Attaches a region to this context without copying, returning the
    /// import's region index.
    ///
    /// The imported bytes count toward this context's capacity exactly as a
    /// copy would have, so memory accounting is unchanged — only the memcpy
    /// is gone.
    pub fn import(&mut self, data: &SharedBytes) -> DandelionResult<usize> {
        let total = self
            .imported_bytes
            .checked_add(data.len())
            .ok_or_else(|| DandelionError::ContextError("import overflow".to_string()))?;
        if total > self.capacity {
            return Err(DandelionError::ContextError(format!(
                "import of {} bytes exceeds context capacity of {} bytes ({} bytes in use)",
                data.len(),
                self.capacity,
                self.imported_bytes
            )));
        }
        self.imports.push(data.clone());
        self.imported_bytes = total;
        self.high_water = self.high_water.max(total);
        Ok(self.imports.len() - 1)
    }

    /// Returns an imported region by index.
    pub fn imported(&self, index: usize) -> Option<&SharedBytes> {
        self.imports.get(index)
    }

    /// Detaches every import while keeping the capacity reservation and the
    /// high-water mark. The regions themselves live on for as long as
    /// anybody else holds them, which is how a finished function's outputs
    /// outlive its context without being copied.
    pub fn clear(&mut self) {
        self.imports.clear();
        self.imported_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn import_attaches_views_and_counts_capacity() {
        let payload = SharedBytes::from_vec(b"shared payload".to_vec());

        let mut consumer = MemoryContext::new(20);
        let region = consumer.import(&payload).unwrap();
        assert_eq!(consumer.imported_bytes(), 14);
        assert_eq!(consumer.high_water_bytes(), 14);
        // The attached region is the producer's buffer, not a copy.
        assert!(SharedBytes::same_buffer(
            consumer.imported(region).unwrap(),
            &payload
        ));
        // Imports count toward the capacity: 14 + 7 > 20, 14 + 6 fits.
        let err = consumer.import(&payload.slice(0..7)).unwrap_err();
        assert!(matches!(err, DandelionError::ContextError(_)));
        assert!(consumer.import(&payload.slice(0..6)).is_ok());
        // A second import beyond the capacity is rejected too.
        assert!(consumer.import(&payload).is_err());
    }

    #[test]
    fn clear_releases_memory_but_keeps_high_water() {
        let mut context = MemoryContext::new(1024);
        context
            .import(&SharedBytes::from_vec(vec![1u8; 512]))
            .unwrap();
        assert_eq!(context.high_water_bytes(), 512);
        context.clear();
        assert_eq!(context.imported_bytes(), 0);
        assert!(context.imported(0).is_none());
        assert_eq!(context.high_water_bytes(), 512);
        assert_eq!(context.capacity(), 1024);
    }

    #[test]
    fn ids_are_unique() {
        let a = MemoryContext::new(1);
        let b = MemoryContext::new(1);
        assert_ne!(a.id(), b.id());
    }
}
