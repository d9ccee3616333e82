//! `SharedBytes`: a cheaply cloneable, sliceable view of immutable bytes.
//!
//! The zero-copy data plane threads one type through every layer that moves
//! payloads: a reference-counted buffer plus an `(offset, len)` window, in
//! the style of the `bytes` crate (vendored crates only — so implemented
//! here). Cloning and slicing never copy; the underlying allocation is freed
//! when the last view drops. Composition edges, HTTP bodies and the memory
//! contexts of the isolation layer all hand out `SharedBytes` views of the
//! producer's buffer instead of copying payloads at each boundary.
//!
//! The type dereferences to `[u8]`, so read-only call sites written against
//! byte slices keep working unchanged.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::io::{self, Read};
use std::mem::MaybeUninit;
use std::ops::{Bound, Deref, RangeBounds};
use std::os::fd::{AsRawFd, BorrowedFd};
use std::os::raw::{c_int, c_void};
use std::sync::{Arc, OnceLock};

use crate::pool::{BufferPool, LARGEST_CLASS};

/// An immutable, reference-counted byte buffer view.
///
/// `clone` is an `Arc` bump; [`SharedBytes::slice`] produces a narrower view
/// of the same allocation. Equality and hashing are by content, so the type
/// is a drop-in replacement for `Vec<u8>` payload fields.
///
/// Where the allocation goes when the last view of it drops depends on where
/// it came from: a buffer the global [`BufferPool`] issued (a frozen
/// [`SharedBytesMut`]) flows back to it, closing the pooling loop for
/// everything built in pooled memory and shipped through the data plane; a
/// vector that came from anywhere else ([`SharedBytes::from_vec`]) is freed —
/// the pool takes back only what it issued. Every view of an allocation
/// knows which it is (one bit next to its offset: the view stays three words
/// and the shared header a bare vector), and the one that
/// [`Arc::into_inner`] tells it was the last returns the buffer — exactly
/// one does, however the last drops race.
#[derive(Clone)]
pub struct SharedBytes {
    /// The allocation. `None` only once `drop` or `into_vec` has taken it.
    buf: Option<Arc<Vec<u8>>>,
    /// Where the window starts in the allocation, and in the top bit
    /// ([`POOLED`]; a vector is never longer than `isize::MAX`) whether the
    /// pool issued it.
    origin: usize,
    len: usize,
}

/// Set in [`SharedBytes::origin`] for a view of a buffer the pool issued.
const POOLED: usize = 1 << (usize::BITS - 1);

impl Drop for SharedBytes {
    fn drop(&mut self) {
        if self.pooled() {
            if let Some(bytes) = self.buf.take().and_then(Arc::into_inner) {
                BufferPool::global().recycle_vec(bytes);
            }
        }
    }
}

/// The process-wide buffer behind every empty view, so constructing empty
/// messages and items stays allocation-free.
fn empty_buf() -> Arc<Vec<u8>> {
    static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

impl SharedBytes {
    /// An empty view (no allocation; all empty views share one static
    /// buffer).
    pub fn new() -> Self {
        Self {
            buf: Some(empty_buf()),
            origin: 0,
            len: 0,
        }
    }

    /// Wraps an owned vector without copying it.
    pub fn from_vec(data: Vec<u8>) -> Self {
        if data.is_empty() {
            return Self::new();
        }
        let len = data.len();
        Self {
            buf: Some(Arc::new(data)),
            origin: 0,
            len,
        }
    }

    /// Copies a slice into a fresh buffer (the one constructor that copies).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from_vec(data.to_vec())
    }

    fn buf(&self) -> &Arc<Vec<u8>> {
        self.buf
            .as_ref()
            .expect("a view holds its buffer until it drops")
    }

    fn pooled(&self) -> bool {
        self.origin & POOLED != 0
    }

    /// Number of visible bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The visible bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        let offset = self.offset_in_buffer();
        &self.buf()[offset..offset + self.len]
    }

    /// A view of `len` bytes of the same allocation from `offset` in it.
    fn view(&self, offset: usize, len: usize) -> SharedBytes {
        SharedBytes {
            buf: Some(Arc::clone(self.buf())),
            origin: offset | (self.origin & POOLED),
            len,
        }
    }

    /// A zero-copy sub-view of this view.
    ///
    /// The range is interpreted relative to this view (not the underlying
    /// buffer) and must lie within it.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, mirroring slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> SharedBytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice range {start}..{end} out of bounds for SharedBytes of length {}",
            self.len
        );
        self.view(self.offset_in_buffer() + start, end - start)
    }

    /// Splits the view in two at `at`, both halves sharing the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_at(&self, at: usize) -> (SharedBytes, SharedBytes) {
        (self.slice(..at), self.slice(at..))
    }

    /// Returns `true` when both views share the same underlying allocation
    /// (regardless of their windows). This is the observable "no copy
    /// happened" invariant the integration tests assert across composition
    /// edges.
    pub fn same_buffer(a: &SharedBytes, b: &SharedBytes) -> bool {
        Arc::ptr_eq(a.buf(), b.buf())
    }

    /// Zero-copy merge of two adjacent views of the same buffer.
    ///
    /// Returns `None` when the views come from different allocations or are
    /// not contiguous (`self` must end exactly where `other` starts); callers
    /// fall back to copying in that case.
    pub fn try_merge(&self, other: &SharedBytes) -> Option<SharedBytes> {
        let offset = self.offset_in_buffer();
        if !SharedBytes::same_buffer(self, other) || offset + self.len != other.offset_in_buffer() {
            return None;
        }
        Some(self.view(offset, self.len + other.len))
    }

    /// The view's start offset within the underlying buffer (diagnostics and
    /// tests).
    pub fn offset_in_buffer(&self) -> usize {
        self.origin & !POOLED
    }

    /// Bytes of the allocation this view keeps from other use: the length of
    /// the vector it came from, or for a pooled buffer its capacity, the
    /// class's size. Equal to [`SharedBytes::len`] only when the view covers
    /// the whole of it — a larger value means holding this view pins extra
    /// bytes.
    pub fn backing_len(&self) -> usize {
        if self.pooled() {
            self.buf().capacity()
        } else {
            self.buf().len()
        }
    }

    /// Returns a view that does not pin bytes outside its window: the view
    /// itself when it covers the whole of an allocation made for it,
    /// otherwise a fresh copy of the visible bytes.
    ///
    /// Long-lived stores (e.g. the object store) compact before retaining
    /// so that a small slice of a large producer buffer does not keep the
    /// whole allocation alive indefinitely — nor a pooled buffer, whose
    /// capacity is its class's, out of circulation.
    pub fn compact(&self) -> SharedBytes {
        if self.len == self.buf().len() && !self.pooled() {
            self.clone()
        } else {
            SharedBytes::copy_from_slice(self.as_slice())
        }
    }

    /// Extracts an owned vector.
    ///
    /// When this view is the sole reference to a vector that was handed in
    /// ([`SharedBytes::from_vec`]) and covers it entirely, the vector is
    /// moved out without copying; otherwise the visible bytes are copied (a
    /// pooled buffer stays the pool's).
    pub fn into_vec(mut self) -> Vec<u8> {
        if self.len != self.buf().len() || self.pooled() {
            return self.as_slice().to_vec();
        }
        let buf = self.buf.take().expect("taken only here and in drop");
        Arc::try_unwrap(buf).unwrap_or_else(|shared| shared.to_vec())
    }
}

impl Default for SharedBytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for SharedBytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedBytes({} bytes)", self.len)
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedBytes {}

impl Hash for SharedBytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for SharedBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for SharedBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for SharedBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for SharedBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for SharedBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<SharedBytes> for Vec<u8> {
    fn eq(&self, other: &SharedBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(data: Vec<u8>) -> Self {
        Self::from_vec(data)
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(data: &[u8]) -> Self {
        Self::copy_from_slice(data)
    }
}

impl<const N: usize> From<[u8; N]> for SharedBytes {
    fn from(data: [u8; N]) -> Self {
        Self::from_vec(data.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for SharedBytes {
    fn from(data: &[u8; N]) -> Self {
        Self::copy_from_slice(data)
    }
}

impl From<String> for SharedBytes {
    fn from(text: String) -> Self {
        Self::from_vec(text.into_bytes())
    }
}

impl From<&str> for SharedBytes {
    fn from(text: &str) -> Self {
        Self::copy_from_slice(text.as_bytes())
    }
}

impl FromIterator<u8> for SharedBytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

extern "C" {
    /// `read(2)`, bound by hand like the syscalls of the network server (the
    /// workspace has no `libc` crate); [`SharedBytesMut::read_fd`] is its one
    /// caller.
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
}

/// An append-only builder that freezes into a [`SharedBytes`] without
/// copying.
///
/// This is the write side of the zero-copy data plane: hot-path
/// serializers (HTTP heads, output-descriptor frames), the receive path and
/// the functions' outputs assemble their bytes here and
/// [`freeze`](SharedBytesMut::freeze) the result — the heap allocation moves
/// into the `SharedBytes` unchanged, so building a payload costs exactly one
/// buffer for its whole lifetime.
///
/// That buffer is always the global [`BufferPool`]'s: a builder draws it at
/// [`SharedBytesMut::with_capacity`] (or at its first write), one that runs
/// out of room moves into a buffer of a larger class and returns the one it
/// leaves — the vector itself never regrows, so its capacity stays the class
/// size the pool files it under — and a builder dropped without freezing
/// returns it, so steady-state construction does not touch the global
/// allocator at all.
///
/// The builder implements [`std::fmt::Write`], so `write!` formats numbers
/// and the like straight into the buffer with no intermediate `String`.
#[derive(Debug, Default)]
pub struct SharedBytesMut {
    /// Without capacity, or a vector the global pool issued.
    buf: Vec<u8>,
}

impl SharedBytesMut {
    /// Creates an empty builder with no buffer yet.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Creates a builder whose buffer comes from the global buffer pool
    /// (a plain allocation for capacities above its largest class).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: BufferPool::global().acquire_vec(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Capacity of the underlying buffer.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The written bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Makes room for `additional` more bytes. Every write goes through
    /// here first, so the vector's own growth never runs.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        if self.buf.capacity() - self.buf.len() < additional {
            self.grow(additional);
        }
    }

    /// Moves the contents into a pooled buffer with room for `additional`
    /// more bytes and returns the outgrown one.
    #[cold]
    fn grow(&mut self, additional: usize) {
        let needed = self
            .buf
            .len()
            .checked_add(additional)
            .expect("capacity overflow");
        // Up to the largest class the step to the next class is the
        // geometric growth; above it the pool allocates what it is asked.
        let capacity = if needed > LARGEST_CLASS {
            needed.max(2 * self.buf.capacity())
        } else {
            needed
        };
        let pool = BufferPool::global();
        let mut grown = pool.acquire_vec(capacity);
        grown.extend_from_slice(&self.buf);
        pool.recycle_vec(std::mem::replace(&mut self.buf, grown));
    }

    /// Appends a byte slice.
    pub fn put_slice(&mut self, data: &[u8]) {
        self.reserve(data.len());
        self.buf.extend_from_slice(data);
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, byte: u8) {
        self.reserve(1);
        self.buf.push(byte);
    }

    /// Appends a `u32` in little-endian order (the descriptor wire order).
    pub fn put_u32_le(&mut self, value: u32) {
        self.put_slice(&value.to_le_bytes());
    }

    /// Appends the decimal representation of `value` without allocating.
    pub fn put_decimal(&mut self, value: usize) {
        let mut digits = [0u8; 20];
        let mut cursor = digits.len();
        let mut rest = value;
        loop {
            cursor -= 1;
            digits[cursor] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.put_slice(&digits[cursor..]);
    }

    /// Appends UTF-8 text.
    pub fn put_str(&mut self, text: &str) {
        self.put_slice(text.as_bytes());
    }

    /// Discards the contents, keeping the buffer for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Offers `fill` exactly `max_bytes` of this builder's spare capacity,
    /// after the bytes already written, and appends what it reports having
    /// written. Returns that count (`0` at end of stream).
    ///
    /// Guaranteed: the builder grows first ([`SharedBytesMut::reserve`]) when
    /// it has fewer than `max_bytes` spare, so `fill` always sees the full
    /// space and a short count means the source ran dry, not the buffer; the
    /// length advances by exactly the count `fill` returns, and not at all
    /// when it fails; a count larger than the space offered is refused
    /// (`InvalidData`) with the length unchanged. The landing area is handed
    /// out as it is, never cleared first: a received byte is written once, by
    /// whoever fills it.
    ///
    /// # Safety
    ///
    /// When `fill` returns `Ok(n)` for an `n` that fits the slice it was
    /// given, it must have written the first `n` slots of it (a larger `n` is
    /// refused, so promises nothing). Only the count's size can be checked
    /// here, not the writes: bytes reported but never written would be read
    /// uninitialised. That is also why the closure form stays private — the
    /// two fillers are [`SharedBytesMut::read_from`] and
    /// [`SharedBytesMut::read_fd`] below, and safe code cannot bring its own.
    unsafe fn read_with(
        &mut self,
        max_bytes: usize,
        fill: impl FnOnce(&mut [MaybeUninit<u8>]) -> io::Result<usize>,
    ) -> io::Result<usize> {
        self.reserve(max_bytes);
        let filled = fill(&mut self.buf.spare_capacity_mut()[..max_bytes])?;
        if filled > max_bytes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("filler reported {filled} bytes for {max_bytes} bytes of space"),
            ));
        }
        // SAFETY: `reserve` made the capacity at least `len + max_bytes` and
        // `filled <= max_bytes` was checked just above, so the new length is
        // within capacity; the `filled` slots after the old length were
        // written by `fill`, which is what this function's caller vouches
        // for.
        unsafe { self.buf.set_len(self.buf.len() + filled) };
        Ok(filled)
    }

    /// Reads up to `max_bytes` from `reader`, in one `read` call, straight
    /// into this builder's buffer, appending after the bytes already written.
    /// Returns the number of bytes read (`0` at end of stream).
    ///
    /// A `Read` implementation may look at the slice it is given, so it
    /// cannot be handed uninitialised memory: the landing area is zero-filled
    /// first. Sockets go through [`SharedBytesMut::read_fd`] and skip that
    /// pass.
    pub fn read_from<R: Read>(&mut self, reader: &mut R, max_bytes: usize) -> io::Result<usize> {
        let fill = |spare: &mut [MaybeUninit<u8>]| {
            spare.fill(MaybeUninit::new(0));
            // SAFETY: every slot of `spare` was initialised by the `fill`
            // one line up.
            reader.read(unsafe { spare.assume_init_mut() })
        };
        // SAFETY: `fill` writes every slot it is offered before the reader
        // sees any, so whatever count the reader reports has been written.
        unsafe { self.read_with(max_bytes, fill) }
    }

    /// [`SharedBytesMut::read_from`] for a file descriptor: one `read(2)` of
    /// up to `max_bytes` from `fd` into this builder's spare capacity as it
    /// is — the kernel only writes there, so nothing clears it first.
    ///
    /// This is the socket receive path of the network server: the connection
    /// handler reads into a pooled builder, freezes it once a request is
    /// complete, and the parsed request's body is a zero-copy view of the
    /// very buffer the kernel copied into.
    ///
    /// Errors are the kernel's, undigested: `WouldBlock` on a drained
    /// non-blocking socket (or a blocking one whose receive timeout expired),
    /// `Interrupted` when a signal cut the call short.
    pub fn read_fd(&mut self, fd: BorrowedFd<'_>, max_bytes: usize) -> io::Result<usize> {
        let fill = |spare: &mut [MaybeUninit<u8>]| {
            // SAFETY: `spare` is an exclusive borrow of `spare.len()`
            // writable bytes; the kernel writes at most that many through
            // the pointer and reads none of them, so their being
            // uninitialised is no matter. `fd` is open for as long as its
            // borrow lasts.
            let count = unsafe {
                read(
                    fd.as_raw_fd(),
                    spare.as_mut_ptr().cast::<c_void>(),
                    spare.len(),
                )
            };
            if count < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(count as usize)
        };
        // SAFETY: a non-negative return of `read(2)` is the number of bytes
        // the kernel wrote at the front of the buffer it was given.
        unsafe { self.read_with(max_bytes, fill) }
    }

    /// Freezes the builder into an immutable [`SharedBytes`].
    ///
    /// The heap allocation is moved, not copied: the frozen view's bytes
    /// live at the same address the builder wrote them to (the freeze
    /// identity the property tests assert), and goes back to the pool when
    /// the last view of it drops. (An empty builder freezes into the shared
    /// empty view and returns its buffer right away.)
    pub fn freeze(mut self) -> SharedBytes {
        if self.buf.is_empty() {
            return SharedBytes::new();
        }
        let len = self.buf.len();
        SharedBytes {
            buf: Some(Arc::new(std::mem::take(&mut self.buf))),
            origin: POOLED,
            len,
        }
    }
}

impl From<SharedBytesMut> for SharedBytes {
    fn from(builder: SharedBytesMut) -> Self {
        builder.freeze()
    }
}

impl Clone for SharedBytesMut {
    /// Cloning copies the written bytes into a fresh pooled buffer (the
    /// builder is the mutable stage of a payload; sharing starts at
    /// [`SharedBytesMut::freeze`]).
    fn clone(&self) -> Self {
        let mut copy = SharedBytesMut::with_capacity(self.len());
        copy.put_slice(self.as_slice());
        copy
    }
}

impl Drop for SharedBytesMut {
    fn drop(&mut self) {
        // A builder dropped without freezing returns its buffer to the pool
        // (freeze leaves a zero-capacity vec behind, which recycle ignores).
        BufferPool::global().recycle_vec(std::mem::take(&mut self.buf));
    }
}

impl std::fmt::Write for SharedBytesMut {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        self.put_str(text);
        Ok(())
    }
}

impl std::ops::Deref for SharedBytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_views() {
        let bytes = SharedBytes::from_vec(b"hello world".to_vec());
        assert_eq!(bytes.len(), 11);
        assert_eq!(&bytes[..5], b"hello");
        let world = bytes.slice(6..);
        assert_eq!(world.as_slice(), b"world");
        assert_eq!(world.offset_in_buffer(), 6);
        assert!(SharedBytes::same_buffer(&bytes, &world));
    }

    #[test]
    fn clone_is_zero_copy() {
        let a = SharedBytes::from_vec(vec![7u8; 1024]);
        let b = a.clone();
        assert!(SharedBytes::same_buffer(&a, &b));
        assert_eq!(a, b);
    }

    #[test]
    fn slice_of_slice_composes() {
        let bytes = SharedBytes::from_vec((0u8..=99).collect());
        let mid = bytes.slice(10..90);
        let inner = mid.slice(5..10);
        assert_eq!(inner.as_slice(), &[15, 16, 17, 18, 19]);
        assert!(SharedBytes::same_buffer(&bytes, &inner));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        SharedBytes::from_vec(vec![1, 2, 3]).slice(1..5);
    }

    #[test]
    fn split_and_merge_roundtrip() {
        let bytes = SharedBytes::from_vec(b"abcdef".to_vec());
        let (left, right) = bytes.split_at(2);
        assert_eq!(left.as_slice(), b"ab");
        assert_eq!(right.as_slice(), b"cdef");
        let merged = left.try_merge(&right).expect("adjacent views merge");
        assert_eq!(merged, bytes);
        assert!(SharedBytes::same_buffer(&merged, &bytes));
        // Non-adjacent and cross-buffer merges are refused.
        assert!(right.try_merge(&left).is_none());
        let other = SharedBytes::from_vec(b"ab".to_vec());
        assert!(other.try_merge(&right).is_none());
    }

    #[test]
    fn compact_drops_the_parent_buffer() {
        let big = SharedBytes::from_vec(vec![9u8; 4096]);
        let slice = big.slice(10..20);
        assert_eq!(slice.backing_len(), 4096);
        let compacted = slice.compact();
        assert_eq!(compacted, slice);
        assert_eq!(compacted.backing_len(), 10);
        assert!(!SharedBytes::same_buffer(&compacted, &big));
        // A whole-buffer view compacts to itself without copying.
        let whole = big.compact();
        assert!(SharedBytes::same_buffer(&whole, &big));
    }

    #[test]
    fn into_vec_moves_when_unique() {
        let bytes = SharedBytes::from_vec(b"payload".to_vec());
        assert_eq!(bytes.into_vec(), b"payload");
        let shared = SharedBytes::from_vec(b"payload".to_vec());
        let view = shared.slice(1..4);
        assert_eq!(view.into_vec(), b"ayl");
    }

    #[test]
    fn equality_against_slices_and_vecs() {
        let bytes = SharedBytes::from(b"xyz");
        assert_eq!(bytes, b"xyz");
        assert_eq!(bytes, *b"xyz");
        assert_eq!(bytes, b"xyz".to_vec());
        assert_eq!(bytes, &b"xyz"[..]);
        assert_ne!(bytes, b"xy");
    }

    #[test]
    fn conversions() {
        assert_eq!(SharedBytes::from("text").as_slice(), b"text");
        assert_eq!(SharedBytes::from("text".to_string()).as_slice(), b"text");
        assert_eq!(SharedBytes::from(vec![1u8, 2]).as_slice(), &[1, 2]);
        let collected: SharedBytes = (1u8..=3).collect();
        assert_eq!(collected.as_slice(), &[1, 2, 3]);
        assert!(SharedBytes::default().is_empty());
    }

    #[test]
    fn builder_freeze_moves_the_allocation() {
        let mut builder = SharedBytesMut::with_capacity(64);
        builder.put_str("head ");
        builder.put_decimal(12345);
        builder.put_u8(b'!');
        builder.put_u32_le(0xDEAD_BEEF);
        let written_ptr = builder.as_slice().as_ptr();
        let frozen = builder.freeze();
        assert_eq!(&frozen[..11], b"head 12345!");
        assert_eq!(&frozen[11..], &0xDEAD_BEEFu32.to_le_bytes());
        // Freeze identity: the bytes were not copied.
        assert_eq!(frozen.as_slice().as_ptr(), written_ptr);
    }

    #[test]
    fn builder_formats_without_allocating_strings() {
        use std::fmt::Write;
        let mut builder = SharedBytesMut::new();
        write!(builder, "Content-Length: {}\r\n", 42).unwrap();
        assert_eq!(builder.as_slice(), b"Content-Length: 42\r\n");
        builder.clear();
        assert!(builder.is_empty());
        builder.put_decimal(0);
        assert_eq!(builder.freeze(), b"0");
    }

    #[test]
    fn read_from_appends_and_reports_eof() {
        let mut builder = SharedBytesMut::with_capacity(32);
        builder.put_str("head:");
        let mut source: &[u8] = b"socket payload";
        assert_eq!(builder.read_from(&mut source, 6).unwrap(), 6);
        assert_eq!(builder.as_slice(), b"head:socket");
        assert_eq!(builder.read_from(&mut source, 64).unwrap(), 8);
        assert_eq!(builder.as_slice(), b"head:socket payload");
        // End of stream reads zero bytes and leaves the buffer untouched.
        assert_eq!(builder.read_from(&mut source, 64).unwrap(), 0);
        assert_eq!(builder.len(), 19);
    }

    #[test]
    fn read_with_refuses_a_count_larger_than_the_space_offered() {
        let mut builder = SharedBytesMut::with_capacity(32);
        builder.put_str("kept");
        // SAFETY: neither filler reports a count that fits — the first one's
        // is too large, the second fails — so neither owes a written slot.
        let error = unsafe { builder.read_with(8, |spare| Ok(spare.len() + 1)) }.unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert_eq!(builder.as_slice(), b"kept");
        // A filler's own failure leaves the length alone too.
        let error =
            unsafe { builder.read_with(8, |_| Err(io::ErrorKind::WouldBlock.into())) }.unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(builder.len(), 4);
    }

    #[test]
    fn every_byte_below_len_was_written_by_a_filler() {
        // Byte `i` of the stream is `i mod 251`; each filler writes only as
        // many slots as it reports, so a length that ran ahead of the writes
        // (or a landing area that moved) breaks the pattern.
        const MAX_BYTES: usize = 64 * 1024;
        let mut builder = SharedBytesMut::new();
        for round in 0..3 {
            for fills in [1, 7, 4096, MAX_BYTES] {
                let start = builder.len();
                let fill = |spare: &mut [MaybeUninit<u8>]| {
                    assert_eq!(spare.len(), MAX_BYTES, "round {round}");
                    for (index, slot) in spare[..fills].iter_mut().enumerate() {
                        slot.write(((start + index) % 251) as u8);
                    }
                    Ok(fills)
                };
                // SAFETY: `fill` writes the first `fills` slots and reports
                // that many.
                let read = unsafe { builder.read_with(MAX_BYTES, fill) }.unwrap();
                assert_eq!(read, fills);
                assert_eq!(builder.len(), start + fills);
            }
        }
        assert_eq!(builder.len(), 3 * (1 + 7 + 4096 + MAX_BYTES));
        for (index, &byte) in builder.as_slice().iter().enumerate() {
            assert_eq!(byte, (index % 251) as u8, "byte {index}");
        }
    }

    #[test]
    fn read_fd_lands_what_the_kernel_wrote_and_passes_its_errors_on() {
        use std::io::Write;
        use std::os::fd::AsFd;
        use std::os::unix::net::UnixStream;

        let (mut sender, receiver) = UnixStream::pair().unwrap();
        receiver.set_nonblocking(true).unwrap();
        let sent: Vec<u8> = (0..10_000).map(|index| (index % 251) as u8).collect();
        sender.write_all(&sent).unwrap();
        let mut builder = SharedBytesMut::new();
        builder.put_str("head:");
        // Reads smaller than, equal to and larger than what is waiting.
        assert_eq!(builder.read_fd(receiver.as_fd(), 7).unwrap(), 7);
        assert_eq!(builder.read_fd(receiver.as_fd(), 4096).unwrap(), 4096);
        assert_eq!(builder.read_fd(receiver.as_fd(), 64 * 1024).unwrap(), 5897);
        assert_eq!(&builder.as_slice()[..5], b"head:");
        assert_eq!(&builder.as_slice()[5..], sent);
        // Drained: the kernel's error comes through, the length stays.
        let error = builder.read_fd(receiver.as_fd(), 64).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(builder.len(), 5 + sent.len());
        // End of stream reads zero bytes.
        drop(sender);
        assert_eq!(builder.read_fd(receiver.as_fd(), 64).unwrap(), 0);
        assert_eq!(builder.len(), 5 + sent.len());
    }

    #[test]
    fn empty_views_share_one_static_buffer() {
        let a = SharedBytes::new();
        let b = SharedBytes::from_vec(Vec::new());
        let c = SharedBytes::default();
        assert!(SharedBytes::same_buffer(&a, &b));
        assert!(SharedBytes::same_buffer(&a, &c));
        assert!(a.is_empty());
    }
}
