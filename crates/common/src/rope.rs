//! `Rope`: a multi-part payload as a list of [`SharedBytes`] views.
//!
//! Serializing a message used to mean flattening every part into one fresh
//! `Vec<u8>` — for an HTTP response that is a memcpy of the whole body just
//! to prepend a few dozen header bytes. A [`Rope`] instead keeps the parts
//! as zero-copy segments (in the style of the `bytes` crate's `Buf` chains):
//! builders contribute a frozen header block, payloads attach by reference,
//! and delivery walks the segments with a vectored [`Rope::write_to`] — no
//! flattening on the steady-state path. [`Rope::into_shared`] collapses to a
//! single contiguous view only when a caller really needs one, with exactly
//! one copy into a pooled buffer (and none at all for single-segment ropes).
//!
//! The first two segments are stored inline, so the common head+body
//! message is built and delivered without touching the allocator at all.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};

use crate::bytes::{SharedBytes, SharedBytesMut};

/// One rope segment: a frozen zero-copy view, or a still-mutable builder
/// whose pooled buffer is carried through delivery and recycled when the
/// rope drops (no `Arc` is ever allocated for it).
#[derive(Debug, Clone)]
enum Segment {
    Shared(SharedBytes),
    Builder(SharedBytesMut),
}

impl Segment {
    fn as_slice(&self) -> &[u8] {
        match self {
            Segment::Shared(shared) => shared.as_slice(),
            Segment::Builder(builder) => builder.as_slice(),
        }
    }
}

/// A byte sequence stored as zero-copy segments.
#[derive(Debug, Clone, Default)]
pub struct Rope {
    /// Inline storage for the first two segments (head + body needs no
    /// heap); `rest` spills further segments and is `Vec::new()` (no
    /// allocation) until then.
    first: Option<Segment>,
    second: Option<Segment>,
    rest: Vec<Segment>,
    len: usize,
}

impl Rope {
    /// An empty rope.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes across all segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the rope holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        usize::from(self.first.is_some()) + usize::from(self.second.is_some()) + self.rest.len()
    }

    /// Iterates over the segments' bytes in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.segments().map(Segment::as_slice)
    }

    fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.first
            .iter()
            .chain(self.second.iter())
            .chain(self.rest.iter())
    }

    /// Iterates over the frozen zero-copy segments (builder segments are
    /// skipped) — the view the `same_buffer` sharing assertions inspect.
    pub fn shared_segments(&self) -> impl Iterator<Item = &SharedBytes> {
        self.segments().filter_map(|segment| match segment {
            Segment::Shared(shared) => Some(shared),
            Segment::Builder(_) => None,
        })
    }

    /// The last segment, if it is a frozen view (`None` for builders).
    pub fn last_segment(&self) -> Option<&SharedBytes> {
        match self
            .rest
            .last()
            .or(self.second.as_ref())
            .or(self.first.as_ref())
        {
            Some(Segment::Shared(shared)) => Some(shared),
            _ => None,
        }
    }

    fn push_segment(&mut self, segment: Segment) {
        if self.first.is_none() {
            self.first = Some(segment);
        } else if self.second.is_none() {
            self.second = Some(segment);
        } else {
            self.rest.push(segment);
        }
    }

    fn last_segment_mut(&mut self) -> Option<&mut Segment> {
        if !self.rest.is_empty() {
            self.rest.last_mut()
        } else if self.second.is_some() {
            self.second.as_mut()
        } else {
            self.first.as_mut()
        }
    }

    /// Attaches a segment by reference (no copy). Empty segments are
    /// skipped; a segment contiguous with the previous one in the same
    /// buffer is merged into it, so repeated slicing does not fragment the
    /// rope.
    pub fn push(&mut self, segment: SharedBytes) {
        if segment.is_empty() {
            return;
        }
        self.len += segment.len();
        if let Some(Segment::Shared(last)) = self.last_segment_mut() {
            if let Some(merged) = last.try_merge(&segment) {
                *last = merged;
                return;
            }
        }
        self.push_segment(Segment::Shared(segment));
    }

    /// Attaches a builder's bytes *without freezing them*: no `Arc` is
    /// allocated, and the pooled buffer flows back to the pool when the
    /// rope is dropped after delivery. This is how message heads travel.
    pub fn push_builder(&mut self, builder: SharedBytesMut) {
        if builder.is_empty() {
            return;
        }
        self.len += builder.len();
        self.push_segment(Segment::Builder(builder));
    }

    /// Reads the byte at `offset`, if in bounds.
    pub fn byte_at(&self, mut offset: usize) -> Option<u8> {
        for segment in self.iter() {
            if offset < segment.len() {
                return Some(segment[offset]);
            }
            offset -= segment.len();
        }
        None
    }

    /// Copies `dest.len()` bytes starting at `offset` into `dest`,
    /// crossing segment boundaries as needed.
    ///
    /// # Panics
    ///
    /// Panics if `offset + dest.len()` exceeds the rope length, mirroring
    /// slice indexing.
    pub fn copy_range_to(&self, offset: usize, dest: &mut [u8]) {
        assert!(
            offset
                .checked_add(dest.len())
                .is_some_and(|end| end <= self.len),
            "range {offset}..{} out of bounds for Rope of length {}",
            offset + dest.len(),
            self.len
        );
        let mut filled = 0;
        for available in self.suffix(offset) {
            let take = available.len().min(dest.len() - filled);
            dest[filled..filled + take].copy_from_slice(&available[..take]);
            filled += take;
            if filled == dest.len() {
                break;
            }
        }
    }

    /// Flattens the rope into an owned vector with exactly one exact-size
    /// allocation.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for segment in self.iter() {
            out.extend_from_slice(segment);
        }
        out
    }

    /// Collapses the rope into one contiguous [`SharedBytes`].
    ///
    /// Zero-copy for empty and single-segment ropes (the segment is handed
    /// through unchanged); multi-segment ropes are flattened with one copy
    /// into a pooled buffer sized for the whole rope.
    pub fn into_shared(mut self) -> SharedBytes {
        match self.segment_count() {
            0 => SharedBytes::new(),
            1 => match self.first.take().expect("sole segment is stored inline") {
                Segment::Shared(shared) => shared,
                Segment::Builder(builder) => builder.freeze(),
            },
            _ => {
                let mut flat = SharedBytesMut::with_capacity(self.len);
                for segment in self.iter() {
                    flat.put_slice(segment);
                }
                flat.freeze()
            }
        }
    }

    /// Writes every segment to `writer` with vectored I/O, retrying partial
    /// writes until the whole rope is delivered.
    ///
    /// Ropes of up to eight segments build their `IoSlice` table on the
    /// stack, so steady-state delivery does not allocate.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        const INLINE_SEGMENTS: usize = 8;
        let count = self.segment_count();
        let mut inline = [IoSlice::new(&[]); INLINE_SEGMENTS];
        let mut heap: Vec<IoSlice<'_>>;
        let slices: &mut [IoSlice<'_>] = if count <= INLINE_SEGMENTS {
            for (slot, segment) in inline.iter_mut().zip(self.iter()) {
                *slot = IoSlice::new(segment);
            }
            &mut inline[..count]
        } else {
            heap = self.iter().map(IoSlice::new).collect();
            &mut heap
        };
        let mut remaining: &mut [IoSlice<'_>] = slices;
        let mut written_of_first = 0usize;
        while !remaining.is_empty() {
            // Partial first segment: vectored writes cannot express an
            // offset, so finish it with a plain write first.
            if written_of_first > 0 {
                let first = &remaining[0][written_of_first..];
                let n = writer.write(first)?;
                if n == 0 {
                    return Err(io::ErrorKind::WriteZero.into());
                }
                written_of_first += n;
                if written_of_first == remaining[0].len() {
                    remaining = &mut remaining[1..];
                    written_of_first = 0;
                }
                continue;
            }
            let mut n = writer.write_vectored(remaining)?;
            if n == 0 {
                return Err(io::ErrorKind::WriteZero.into());
            }
            while n > 0 && !remaining.is_empty() {
                if n >= remaining[0].len() {
                    n -= remaining[0].len();
                    remaining = &mut remaining[1..];
                } else {
                    written_of_first = n;
                    n = 0;
                }
            }
        }
        Ok(())
    }
}

impl Rope {
    /// The bytes from `offset` on, segment by segment: whole segments that
    /// `offset` covers are skipped and the one it lands in is trimmed.
    fn suffix(&self, offset: usize) -> impl Iterator<Item = &[u8]> {
        let mut skip = offset;
        self.iter().filter_map(move |segment| {
            if skip >= segment.len() {
                skip -= segment.len();
                None
            } else {
                let unwritten = &segment[skip..];
                skip = 0;
                Some(unwritten)
            }
        })
    }

    /// Performs **one** vectored write of the rope's suffix starting at byte
    /// `offset`, returning how many bytes the writer accepted.
    ///
    /// This is the readiness-driven sibling of [`Rope::write_to`]: a
    /// non-blocking socket accepts however many bytes fit in its send buffer
    /// and then fails with [`WouldBlock`](io::ErrorKind::WouldBlock); the
    /// caller remembers the new offset and retries when the socket signals
    /// writability. The segments themselves are never touched — resuming a
    /// partial write re-slices the same zero-copy views, so `Arc` identity
    /// of every payload segment survives any interleaving of partial writes.
    ///
    /// Returns `Ok(0)` when `offset` is already at the end of the rope.
    pub fn write_vectored_at<W: Write>(&self, writer: &mut W, offset: usize) -> io::Result<usize> {
        const INLINE_SEGMENTS: usize = 8;
        if offset >= self.len {
            return Ok(0);
        }
        // Build the IoSlice table for the unwritten suffix.
        let mut inline = [IoSlice::new(&[]); INLINE_SEGMENTS];
        let mut heap: Vec<IoSlice<'_>> = Vec::new();
        let mut count = 0usize;
        for unwritten in self.suffix(offset) {
            let slice = IoSlice::new(unwritten);
            if count < INLINE_SEGMENTS {
                inline[count] = slice;
            } else {
                if heap.is_empty() {
                    heap.reserve(self.segment_count());
                    heap.extend_from_slice(&inline[..count]);
                }
                heap.push(slice);
            }
            count += 1;
        }
        let slices: &[IoSlice<'_>] = if heap.is_empty() {
            &inline[..count]
        } else {
            &heap
        };
        writer.write_vectored(slices)
    }
}

/// A resumable write cursor over a [`Rope`].
///
/// Event-loop servers write responses to non-blocking sockets: the kernel
/// accepts part of the message and the rest must be retried when the socket
/// becomes writable again. A `RopeWriter` owns the rope and the number of
/// bytes already delivered; [`RopeWriter::write_some`] pushes the remainder
/// with vectored writes until the message completes or the writer would
/// block. The rope's zero-copy segments are carried untouched across
/// suspensions — a payload attached by reference is still the same
/// allocation when the final byte leaves.
#[derive(Debug)]
pub struct RopeWriter {
    rope: Rope,
    written: usize,
}

impl RopeWriter {
    /// Wraps a rope in a cursor positioned at its first byte.
    pub fn new(rope: Rope) -> Self {
        Self { rope, written: 0 }
    }

    /// The rope being delivered (segments are never modified by writing).
    pub fn rope(&self) -> &Rope {
        &self.rope
    }

    /// Bytes already accepted by the writer.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Bytes not yet delivered.
    pub fn remaining(&self) -> usize {
        self.rope.len() - self.written
    }

    /// Returns `true` once every byte has been delivered.
    pub fn is_finished(&self) -> bool {
        self.written >= self.rope.len()
    }

    /// Writes as much of the remainder as the writer accepts.
    ///
    /// Returns `Ok(true)` when the rope is fully delivered and `Ok(false)`
    /// when the writer signalled [`WouldBlock`](io::ErrorKind::WouldBlock) —
    /// call again when the destination is writable. `Interrupted` writes are
    /// retried internally; a writer that accepts zero bytes without an error
    /// yields [`WriteZero`](io::ErrorKind::WriteZero) like [`Rope::write_to`].
    pub fn write_some<W: Write>(&mut self, writer: &mut W) -> io::Result<bool> {
        loop {
            if self.is_finished() {
                return Ok(true);
            }
            match self.rope.write_vectored_at(writer, self.written) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(error) => return Err(error),
            }
        }
    }
}

/// Most `IoSlice`s one [`RopeBatch`] write gathers: the table lives on the
/// stack, far under the kernel's `IOV_MAX` (1024). At two segments per
/// message (head + body) that is 32 messages per `writev`.
const BATCH_SLICES: usize = 64;

/// What [`RopeBatch::write_some`] did, accumulated across calls by the
/// caller: `messages / writes` is how many messages one write carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchProgress {
    /// Vectored writes issued, including one refused with `WouldBlock`.
    pub writes: u64,
    /// Messages whose last byte left; each is counted exactly once.
    pub messages: u64,
}

/// A queue of messages delivered by gathering writes that span message
/// boundaries.
///
/// A pipelined connection often has several complete messages to send at
/// once. Writing them one by one costs a system call each; a `RopeBatch`
/// points one vectored write at the unwritten bytes of every queued message
/// in order, so they leave together. The ropes are never joined or copied:
/// the `IoSlice` table references each message's own segments, the bytes the
/// writer accepts are credited to the messages front to back, and finished
/// messages are dropped from the head. A message's cursor therefore says
/// whether any of its bytes left — [`RopeBatch::take_unsent`] hands back
/// exactly the messages still at zero.
#[derive(Debug, Default)]
pub struct RopeBatch {
    queue: VecDeque<RopeWriter>,
    /// Bytes accepted over the batch's lifetime.
    written: u64,
}

impl RopeBatch {
    /// An empty batch (no allocation until the first message).
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message behind those already waiting.
    pub fn push(&mut self, rope: Rope) {
        self.queue.push_back(RopeWriter::new(rope));
    }

    /// Messages not yet fully delivered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queued messages with their cursors, head first.
    pub fn pending(&self) -> impl Iterator<Item = &RopeWriter> {
        self.queue.iter()
    }

    /// Bytes the writer has accepted since the batch was created; it only
    /// grows, so a caller can tell progress from a stall across calls.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Writes as much of the queue as the writer accepts, one vectored
    /// write over up to `BATCH_SLICES` segments at a time.
    ///
    /// Returns `Ok(true)` when the queue is empty and `Ok(false)` when the
    /// writer signalled [`WouldBlock`](io::ErrorKind::WouldBlock) — call
    /// again when the destination is writable. Errors are those of
    /// [`RopeWriter::write_some`]. `progress` is updated even when the call
    /// fails, so a message completed before the error is still reported.
    pub fn write_some<W: Write>(
        &mut self,
        writer: &mut W,
        progress: &mut BatchProgress,
    ) -> io::Result<bool> {
        loop {
            while self.queue.front().is_some_and(RopeWriter::is_finished) {
                self.queue.pop_front();
                progress.messages += 1;
            }
            if self.queue.is_empty() {
                return Ok(true);
            }
            let mut table = [IoSlice::new(&[]); BATCH_SLICES];
            let unwritten = self
                .queue
                .iter()
                .flat_map(|message| message.rope.suffix(message.written));
            let mut count = 0;
            for (slot, slice) in table.iter_mut().zip(unwritten) {
                *slot = IoSlice::new(slice);
                count += 1;
            }
            progress.writes += 1;
            match writer.write_vectored(&table[..count]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(accepted) => {
                    self.written += accepted as u64;
                    let mut left = accepted;
                    for message in &mut self.queue {
                        let credit = left.min(message.remaining());
                        message.written += credit;
                        left -= credit;
                        if left == 0 {
                            break;
                        }
                    }
                }
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(error) => return Err(error),
            }
        }
    }

    /// Removes and returns, in queue order, the messages none of whose
    /// bytes were accepted. Messages written in part or in full stay: the
    /// peer may have acted on them.
    pub fn take_unsent(&mut self) -> Vec<Rope> {
        let sent = self
            .queue
            .iter()
            .rposition(|message| message.written > 0)
            .map_or(0, |last_sent| last_sent + 1);
        self.queue
            .drain(sent..)
            .map(|message| message.rope)
            .collect()
    }
}

impl From<SharedBytes> for Rope {
    fn from(segment: SharedBytes) -> Self {
        let mut rope = Rope::new();
        rope.push(segment);
        rope
    }
}

impl FromIterator<SharedBytes> for Rope {
    fn from_iter<I: IntoIterator<Item = SharedBytes>>(iter: I) -> Self {
        let mut rope = Rope::new();
        for segment in iter {
            rope.push(segment);
        }
        rope
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Rope {
        let mut rope = Rope::new();
        rope.push(SharedBytes::from("hello "));
        rope.push(SharedBytes::from("rope "));
        rope.push(SharedBytes::from("world"));
        rope
    }

    #[test]
    fn push_tracks_length_and_skips_empties() {
        let mut rope = Rope::new();
        assert!(rope.is_empty());
        rope.push(SharedBytes::new());
        assert!(rope.is_empty());
        rope.push(SharedBytes::from("abc"));
        assert_eq!(rope.len(), 3);
        assert_eq!(rope.segment_count(), 1);
    }

    #[test]
    fn segments_spill_beyond_the_inline_pair() {
        let mut rope = Rope::new();
        for text in ["a", "bb", "ccc", "dddd", "eeeee"] {
            rope.push(SharedBytes::from(text));
        }
        assert_eq!(rope.segment_count(), 5);
        assert_eq!(rope.len(), 15);
        assert_eq!(rope.to_vec(), b"abbcccddddeeeee");
        assert_eq!(rope.last_segment().unwrap().as_slice(), b"eeeee");
        let collected: Vec<&[u8]> = rope.iter().collect();
        assert_eq!(collected.len(), 5);
        assert_eq!(collected[0], b"a");
    }

    #[test]
    fn adjacent_views_merge_instead_of_fragmenting() {
        let whole = SharedBytes::from("abcdef");
        let (left, right) = whole.split_at(3);
        let mut rope = Rope::new();
        rope.push(left);
        rope.push(right);
        assert_eq!(rope.segment_count(), 1);
        assert!(SharedBytes::same_buffer(
            rope.last_segment().unwrap(),
            &whole
        ));
        assert_eq!(rope.to_vec(), b"abcdef");
    }

    #[test]
    fn cross_segment_reads() {
        let rope = sample();
        assert_eq!(rope.len(), 16);
        assert_eq!(rope.byte_at(0), Some(b'h'));
        assert_eq!(rope.byte_at(6), Some(b'r'));
        assert_eq!(rope.byte_at(15), Some(b'd'));
        assert_eq!(rope.byte_at(16), None);
        let mut mid = [0u8; 7];
        rope.copy_range_to(4, &mut mid);
        assert_eq!(&mid, b"o rope ");
        assert_eq!(rope.to_vec(), b"hello rope world");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_copy_panics() {
        sample().copy_range_to(10, &mut [0u8; 10]);
    }

    #[test]
    fn into_shared_is_zero_copy_for_single_segments() {
        let payload = SharedBytes::from_vec(vec![1u8; 512]);
        let rope: Rope = Rope::from(payload.clone());
        let collapsed = rope.into_shared();
        assert!(SharedBytes::same_buffer(&collapsed, &payload));
        assert!(Rope::new().into_shared().is_empty());
        let multi = sample().into_shared();
        assert_eq!(multi, b"hello rope world"[..]);
    }

    #[test]
    fn write_to_delivers_every_segment() {
        let rope = sample();
        let mut out = Vec::new();
        rope.write_to(&mut out).unwrap();
        assert_eq!(out, b"hello rope world");
        // More segments than the inline IoSlice table holds.
        let mut many = Rope::new();
        for index in 0u8..20 {
            many.push(SharedBytes::from_vec(vec![index; 3]));
        }
        let mut out = Vec::new();
        many.write_to(&mut out).unwrap();
        assert_eq!(out.len(), 60);
        assert_eq!(out, many.to_vec());
    }

    /// A writer that accepts one byte per call, forcing the partial-write
    /// resumption paths.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.push(buf[0]);
            Ok(1)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_to_handles_partial_writes() {
        let rope = sample();
        let mut trickle = Trickle(Vec::new());
        rope.write_to(&mut trickle).unwrap();
        assert_eq!(trickle.0, b"hello rope world");
    }

    /// A writer that accepts at most `quota` bytes per readiness window and
    /// then reports `WouldBlock` until the next `write_some` call.
    struct Choppy {
        out: Vec<u8>,
        quota: usize,
        left: usize,
    }

    impl Choppy {
        fn new(quota: usize) -> Self {
            Self {
                out: Vec::new(),
                quota,
                left: quota,
            }
        }
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                self.left = self.quota;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let take = buf.len().min(self.left);
            self.left -= take;
            self.out.extend_from_slice(&buf[..take]);
            Ok(take)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_vectored_at_resumes_mid_segment_and_mid_rope() {
        let rope = sample();
        let reference = rope.to_vec();
        for offset in 0..=rope.len() {
            let mut out = Vec::new();
            let written = rope.write_vectored_at(&mut out, offset).unwrap();
            assert!(offset == rope.len() || written > 0);
            assert_eq!(out, &reference[offset..offset + written]);
        }
    }

    #[test]
    fn rope_writer_resumes_across_would_block_for_every_quota() {
        let rope = sample();
        let reference = rope.to_vec();
        for quota in 1..=reference.len() {
            let mut writer = RopeWriter::new(rope.clone());
            let mut choppy = Choppy::new(quota);
            let mut rounds = 0;
            while !writer.write_some(&mut choppy).unwrap() {
                rounds += 1;
                assert!(rounds < 10_000, "quota {quota} did not make progress");
            }
            assert!(writer.is_finished());
            assert_eq!(writer.remaining(), 0);
            assert_eq!(choppy.out, reference, "quota {quota} diverged");
        }
    }

    #[test]
    fn rope_writer_keeps_segments_by_reference_across_suspension() {
        let payload = SharedBytes::from_vec(vec![7u8; 64]);
        let mut rope = Rope::new();
        rope.push(SharedBytes::from("head:"));
        rope.push(payload.clone());
        let mut writer = RopeWriter::new(rope);
        let mut choppy = Choppy::new(9);
        while !writer.write_some(&mut choppy).unwrap() {}
        // The body segment is still the caller's allocation after delivery
        // resumed mid-payload — no copy was made to suspend the write.
        assert!(SharedBytes::same_buffer(
            writer.rope().last_segment().unwrap(),
            &payload
        ));
        assert_eq!(choppy.out.len(), writer.rope().len());
    }

    #[test]
    fn batch_sends_every_queued_message_in_one_vectored_write() {
        let body = SharedBytes::from_vec(vec![9u8; 32]);
        let mut batch = RopeBatch::new();
        let mut reference = Vec::new();
        for index in 0..5u8 {
            let mut rope = Rope::new();
            rope.push(SharedBytes::from_vec(vec![index; 3]));
            rope.push(body.clone());
            reference.extend_from_slice(&rope.to_vec());
            batch.push(rope);
        }
        let mut out = Vec::new();
        let mut progress = BatchProgress::default();
        assert!(batch.write_some(&mut out, &mut progress).unwrap());
        assert_eq!(out, reference);
        assert_eq!(
            progress,
            BatchProgress {
                writes: 1,
                messages: 5
            }
        );
        assert_eq!(batch.written(), reference.len() as u64);
        // An empty batch is done without touching the writer.
        assert!(batch.write_some(&mut out, &mut progress).unwrap());
        assert_eq!(progress.writes, 1);
    }

    #[test]
    fn batch_spills_past_the_slice_table_into_further_writes() {
        // One message with more segments than a write gathers, then another.
        let mut long = Rope::new();
        for index in 0..(BATCH_SLICES + 10) {
            long.push(SharedBytes::from_vec(vec![index as u8; 2]));
        }
        let mut batch = RopeBatch::new();
        let mut reference = long.to_vec();
        reference.extend_from_slice(b"tail");
        batch.push(long);
        batch.push(Rope::from(SharedBytes::from("tail")));
        let mut out = Vec::new();
        let mut progress = BatchProgress::default();
        assert!(batch.write_some(&mut out, &mut progress).unwrap());
        assert_eq!(out, reference);
        assert_eq!(
            progress,
            BatchProgress {
                writes: 2,
                messages: 2
            }
        );
    }

    #[test]
    fn batch_take_unsent_keeps_messages_with_bytes_on_the_wire() {
        let mut batch = RopeBatch::new();
        for text in ["first", "second", "third"] {
            batch.push(Rope::from(SharedBytes::from(text)));
        }
        // Seven bytes leave: all of "first", two of "second".
        let mut choppy = Choppy::new(7);
        let mut progress = BatchProgress::default();
        assert!(!batch.write_some(&mut choppy, &mut progress).unwrap());
        assert_eq!(choppy.out, b"firstse");
        assert_eq!(progress.messages, 1);
        let unsent = batch.take_unsent();
        assert_eq!(unsent.len(), 1);
        assert_eq!(unsent[0].to_vec(), b"third");
        assert_eq!(batch.len(), 1, "the partly written message stays");
        assert_eq!(batch.pending().next().unwrap().written(), 2);
    }

    #[test]
    fn builders_attach_frozen() {
        let mut builder = SharedBytesMut::with_capacity(16);
        builder.put_str("head:");
        let mut rope = Rope::new();
        rope.push_builder(builder);
        rope.push(SharedBytes::from("body"));
        assert_eq!(rope.to_vec(), b"head:body");
    }

    #[test]
    fn from_iterator_collects_segments() {
        let rope: Rope = ["a", "bb", "ccc"]
            .into_iter()
            .map(SharedBytes::from)
            .collect();
        assert_eq!(rope.len(), 6);
        assert_eq!(rope.to_vec(), b"abbccc");
    }
}
