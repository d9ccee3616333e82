//! The function output descriptor format and its parser.
//!
//! Before a compute function exits, the dlibc shim serializes the function's
//! output sets into a descriptor structure inside the function's memory
//! context. The trusted engine then parses that structure to recover the
//! output items (paper §4.1). Because the descriptor bytes are produced by
//! *untrusted* code, the paper stresses that the parser must be tiny and
//! memory safe (§8: "Dandelion's function output parser is merely 100 lines
//! of Rust").
//!
//! The format is length-prefixed and strictly bounded:
//!
//! ```text
//! u32 magic  = 0xDA4D_E110
//! u32 set_count
//! per set:
//!   u32 name_len, name bytes (UTF-8)
//!   u32 item_count
//!   per item:
//!     u32 name_len,  name bytes
//!     u32 key_len,   key bytes (0 length = no key)
//!     u32 data_len,  data bytes
//! ```
//!
//! The parser never panics on malformed input: every length is validated
//! against the remaining buffer and against [`LIMITS`], and any violation
//! produces a descriptive error.

use dandelion_common::{
    DandelionError, DandelionResult, DataItem, DataSet, Rope, SharedBytes, SharedBytesMut,
};

/// Magic number identifying an output descriptor.
pub const MAGIC: u32 = 0xDA4D_E110;

/// Magic number identifying a metadata-only descriptor *frame*
/// (see [`encode_frame`]).
pub const FRAME_MAGIC: u32 = 0xDA4D_E1F2;

/// Hard limits applied while parsing untrusted descriptors.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum number of output sets.
    pub max_sets: u32,
    /// Maximum number of items per set.
    pub max_items_per_set: u32,
    /// Maximum length of a set, item or key name in bytes.
    pub max_name_bytes: u32,
    /// Maximum payload length of one item in bytes.
    pub max_item_bytes: u32,
}

/// Default limits used by the engines.
pub const LIMITS: Limits = Limits {
    max_sets: 256,
    max_items_per_set: 64 * 1024,
    max_name_bytes: 4 * 1024,
    max_item_bytes: 256 * 1024 * 1024,
};

/// Exact byte length of the descriptor *metadata* (everything except item
/// payload bytes).
fn descriptor_meta_len(sets: &[DataSet]) -> usize {
    let mut len = 8; // magic + set count
    for set in sets {
        len += 4 + set.name.len() + 4;
        for item in &set.items {
            len += 4 + item.name.len();
            len += 4 + item.key.as_deref().unwrap_or("").len();
            len += 4; // payload length prefix
        }
    }
    len
}

/// Serializes output sets into the descriptor format as a flat vector
/// (one exact-size allocation; payload bytes are copied in).
///
/// This remains the portable wire format at the HTTP boundary; the
/// in-process path uses [`encode_outputs_rope`], which never copies
/// payloads.
pub fn encode_outputs(sets: &[DataSet]) -> Vec<u8> {
    encode_outputs_rope(sets).to_vec()
}

/// Serializes output sets into the descriptor format as a [`Rope`].
///
/// All descriptor metadata (magic, counts, names, keys, length prefixes) is
/// written once into a single pooled, exactly sized buffer; every item
/// payload is attached to the rope *by reference* as a [`SharedBytes`]
/// segment between slices of that metadata buffer. Building the descriptor
/// therefore costs one buffer regardless of payload sizes, and vectored
/// delivery ([`Rope::write_to`]) never flattens the payloads.
pub fn encode_outputs_rope(sets: &[DataSet]) -> Rope {
    let mut meta = SharedBytesMut::with_capacity(descriptor_meta_len(sets));
    // Pass 1: write the contiguous metadata, remembering where each payload
    // interleaves.
    let mut splits: Vec<usize> = Vec::new();
    meta.put_u32_le(MAGIC);
    meta.put_u32_le(sets.len() as u32);
    for set in sets {
        put_chunk(&mut meta, set.name.as_bytes());
        meta.put_u32_le(set.items.len() as u32);
        for item in &set.items {
            put_chunk(&mut meta, item.name.as_bytes());
            put_chunk(&mut meta, item.key.as_deref().unwrap_or("").as_bytes());
            meta.put_u32_le(item.data.len() as u32);
            splits.push(meta.len());
        }
    }
    debug_assert_eq!(meta.len(), descriptor_meta_len(sets));
    // Pass 2: interleave zero-copy views of the metadata buffer with the
    // payload views.
    let meta = meta.freeze();
    let mut rope = Rope::new();
    let mut cursor = 0;
    let mut split_index = 0;
    for set in sets {
        for item in &set.items {
            let split = splits[split_index];
            split_index += 1;
            rope.push(meta.slice(cursor..split));
            cursor = split;
            rope.push(item.data.clone());
        }
    }
    rope.push(meta.slice(cursor..));
    rope
}

fn put_chunk(out: &mut SharedBytesMut, data: &[u8]) {
    out.put_u32_le(data.len() as u32);
    out.put_slice(data);
}

struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, offset: 0 }
    }

    fn error(&self, message: &str) -> DandelionError {
        DandelionError::DataLayout(format!("{message} (at byte {})", self.offset))
    }

    fn read_u32(&mut self) -> DandelionResult<u32> {
        let end = self
            .offset
            .checked_add(4)
            .ok_or_else(|| self.error("offset overflow"))?;
        if end > self.bytes.len() {
            return Err(self.error("truncated descriptor"));
        }
        let mut buf = [0u8; 4];
        buf.copy_from_slice(&self.bytes[self.offset..end]);
        self.offset = end;
        Ok(u32::from_le_bytes(buf))
    }

    fn read_bytes(&mut self, len: u32) -> DandelionResult<&'a [u8]> {
        let len = len as usize;
        let end = self
            .offset
            .checked_add(len)
            .ok_or_else(|| self.error("offset overflow"))?;
        if end > self.bytes.len() {
            return Err(self.error("truncated descriptor"));
        }
        let slice = &self.bytes[self.offset..end];
        self.offset = end;
        Ok(slice)
    }

    fn read_name(&mut self, limits: &Limits, what: &str) -> DandelionResult<String> {
        let len = self.read_u32()?;
        if len > limits.max_name_bytes {
            return Err(self.error(&format!("{what} name of {len} bytes exceeds the limit")));
        }
        let bytes = self.read_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.error(&format!("{what} name is not valid UTF-8")))
    }
}

/// Parses an output descriptor produced by an untrusted compute function.
pub fn parse_outputs(bytes: &[u8]) -> DandelionResult<Vec<DataSet>> {
    parse_outputs_with_limits(bytes, &LIMITS)
}

/// Parses an output descriptor with explicit limits. Item payloads are
/// copied out of the descriptor buffer.
pub fn parse_outputs_with_limits(bytes: &[u8], limits: &Limits) -> DandelionResult<Vec<DataSet>> {
    parse_outputs_impl(bytes, limits, &mut |range| {
        SharedBytes::copy_from_slice(&bytes[range])
    })
}

/// Parses an output descriptor held in a [`SharedBytes`] buffer, handing out
/// item payloads as zero-copy views of that buffer.
///
/// Every item parsed from the buffer — including `each` fan-out and `key`
/// grouping downstream — references the producer's bytes instead of copying
/// them. Validation is identical to [`parse_outputs`].
pub fn parse_outputs_shared(shared: &SharedBytes) -> DandelionResult<Vec<DataSet>> {
    parse_outputs_impl(shared.as_slice(), &LIMITS, &mut |range| shared.slice(range))
}

fn parse_outputs_impl(
    bytes: &[u8],
    limits: &Limits,
    make_data: &mut dyn FnMut(std::ops::Range<usize>) -> SharedBytes,
) -> DandelionResult<Vec<DataSet>> {
    let mut reader = Reader::new(bytes);
    let magic = reader.read_u32()?;
    if magic != MAGIC {
        return Err(reader.error("bad descriptor magic"));
    }
    let set_count = reader.read_u32()?;
    if set_count > limits.max_sets {
        return Err(reader.error(&format!("{set_count} sets exceed the limit")));
    }
    let mut sets = Vec::with_capacity(set_count as usize);
    for _ in 0..set_count {
        let set_name = reader.read_name(limits, "set")?;
        let item_count = reader.read_u32()?;
        if item_count > limits.max_items_per_set {
            return Err(reader.error(&format!("{item_count} items exceed the per-set limit")));
        }
        let mut set = DataSet::new(set_name);
        for _ in 0..item_count {
            let item_name = reader.read_name(limits, "item")?;
            let key = reader.read_name(limits, "key")?;
            let data_len = reader.read_u32()?;
            if data_len > limits.max_item_bytes {
                return Err(reader.error(&format!("item of {data_len} bytes exceeds the limit")));
            }
            let start = reader.offset;
            reader.read_bytes(data_len)?;
            let mut item = DataItem::new(item_name, make_data(start..reader.offset));
            if !key.is_empty() {
                item.key = Some(key);
            }
            set.push(item);
        }
        sets.push(set);
    }
    if reader.offset != bytes.len() {
        return Err(reader.error("trailing bytes after descriptor"));
    }
    Ok(sets)
}

/// One set of a parsed descriptor [frame](encode_frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSet {
    /// The set name.
    pub name: String,
    /// The set's item metadata, in production order.
    pub items: Vec<FrameItem>,
}

/// One item of a [`FrameSet`]: everything about the item except the payload
/// bytes, which stay in the function's memory and are attached by reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameItem {
    /// The item name.
    pub name: String,
    /// The grouping key, if any.
    pub key: Option<String>,
    /// Declared payload length in bytes, checked against the attached
    /// payload region.
    pub data_len: usize,
}

/// Serializes output sets into a metadata-only descriptor *frame*.
///
/// The frame carries the structure of the outputs — set and item names,
/// keys, and payload lengths — but not the payload bytes: those already live
/// in the function's memory and are passed by reference ([`SharedBytes`]).
/// The trusted engine round-trips the frame through [`parse_frame`] with the
/// same hard limits as the full descriptor, then attaches each payload
/// region zero-copy after checking its length against the frame. The full
/// payload-carrying descriptor ([`encode_outputs`]) remains the portable
/// wire format for set lists crossing the HTTP boundary.
pub fn encode_frame(sets: &[DataSet]) -> Vec<u8> {
    encode_frame_shared(sets).into_vec()
}

/// Like [`encode_frame`] but returns the frame as a frozen [`SharedBytes`]
/// built in one pooled, exactly sized buffer.
///
/// This is the engine's steady-state path: the frame is written once, frozen
/// without copy, attached to the function's memory context by reference
/// (capacity-accounted like any import) and parsed in place — no descriptor
/// bytes ever round-trip through the global allocator.
pub fn encode_frame_shared(sets: &[DataSet]) -> SharedBytes {
    // A frame is the descriptor metadata with payload bytes omitted, so the
    // metadata length is exact for it too.
    let mut out = SharedBytesMut::with_capacity(descriptor_meta_len(sets));
    out.put_u32_le(FRAME_MAGIC);
    out.put_u32_le(sets.len() as u32);
    for set in sets {
        put_chunk(&mut out, set.name.as_bytes());
        out.put_u32_le(set.items.len() as u32);
        for item in &set.items {
            put_chunk(&mut out, item.name.as_bytes());
            put_chunk(&mut out, item.key.as_deref().unwrap_or("").as_bytes());
            out.put_u32_le(item.data.len() as u32);
        }
    }
    debug_assert_eq!(out.len(), descriptor_meta_len(sets));
    out.freeze()
}

/// Parses a descriptor frame produced by [`encode_frame`], applying the
/// default [`LIMITS`]. Like [`parse_outputs`] this never panics on
/// malformed input.
pub fn parse_frame(bytes: &[u8]) -> DandelionResult<Vec<FrameSet>> {
    parse_frame_with_limits(bytes, &LIMITS)
}

/// Parses a descriptor frame with explicit limits.
pub fn parse_frame_with_limits(bytes: &[u8], limits: &Limits) -> DandelionResult<Vec<FrameSet>> {
    let mut reader = Reader::new(bytes);
    let magic = reader.read_u32()?;
    if magic != FRAME_MAGIC {
        return Err(reader.error("bad frame magic"));
    }
    let set_count = reader.read_u32()?;
    if set_count > limits.max_sets {
        return Err(reader.error(&format!("{set_count} sets exceed the limit")));
    }
    let mut sets = Vec::with_capacity(set_count as usize);
    for _ in 0..set_count {
        let name = reader.read_name(limits, "set")?;
        let item_count = reader.read_u32()?;
        if item_count > limits.max_items_per_set {
            return Err(reader.error(&format!("{item_count} items exceed the per-set limit")));
        }
        let mut items = Vec::with_capacity(item_count.min(1024) as usize);
        for _ in 0..item_count {
            let item_name = reader.read_name(limits, "item")?;
            let key = reader.read_name(limits, "key")?;
            let data_len = reader.read_u32()?;
            if data_len > limits.max_item_bytes {
                return Err(reader.error(&format!("item of {data_len} bytes exceeds the limit")));
            }
            items.push(FrameItem {
                name: item_name,
                key: (!key.is_empty()).then_some(key),
                data_len: data_len as usize,
            });
        }
        sets.push(FrameSet { name, items });
    }
    if reader.offset != bytes.len() {
        return Err(reader.error("trailing bytes after frame"));
    }
    Ok(sets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sets() -> Vec<DataSet> {
        vec![
            DataSet::with_items(
                "responses",
                vec![
                    DataItem::new("r0", b"hello".to_vec()),
                    DataItem::with_key("r1", "eu-west", b"world".to_vec()),
                ],
            ),
            DataSet::new("errors"),
        ]
    }

    #[test]
    fn encode_parse_roundtrip() {
        let sets = sample_sets();
        let encoded = encode_outputs(&sets);
        let decoded = parse_outputs(&encoded).unwrap();
        assert_eq!(decoded, sets);
    }

    #[test]
    fn empty_output_roundtrip() {
        let encoded = encode_outputs(&[]);
        assert_eq!(parse_outputs(&encoded).unwrap(), Vec::<DataSet>::new());
    }

    #[test]
    fn rope_encoding_matches_the_flat_descriptor_and_shares_payloads() {
        let big = SharedBytes::from_vec(vec![0x7Au8; 64 * 1024]);
        let sets = vec![DataSet::with_items(
            "blobs",
            vec![
                DataItem::new("b0", big.clone()),
                DataItem::with_key("b1", "k", b"tiny".to_vec()),
            ],
        )];
        let rope = encode_outputs_rope(&sets);
        assert_eq!(rope.to_vec(), encode_outputs(&sets));
        // The big payload is attached by reference, not copied.
        assert!(
            rope.shared_segments()
                .any(|segment| SharedBytes::same_buffer(segment, &big)),
            "payload must appear in the rope as a view of the caller's buffer"
        );
        // And the rope round-trips through the untrusted parser.
        let decoded = parse_outputs(&rope.to_vec()).unwrap();
        assert_eq!(decoded, sets);
    }

    #[test]
    fn empty_rope_descriptor_is_header_only() {
        let rope = encode_outputs_rope(&[]);
        assert_eq!(rope.to_vec(), encode_outputs(&[]));
        assert_eq!(rope.segment_count(), 1);
    }

    #[test]
    fn frame_shared_matches_frame() {
        let sets = sample_sets();
        assert_eq!(encode_frame_shared(&sets).as_slice(), encode_frame(&sets));
        let parsed = parse_frame(&encode_frame_shared(&sets)).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn shared_parse_hands_out_views_of_the_descriptor() {
        let sets = sample_sets();
        let encoded = SharedBytes::from_vec(encode_outputs(&sets));
        let decoded = parse_outputs_shared(&encoded).unwrap();
        assert_eq!(decoded, sets);
        // Every payload is a window of the descriptor buffer, not a copy.
        for set in &decoded {
            for item in &set.items {
                assert!(SharedBytes::same_buffer(&item.data, &encoded));
            }
        }
    }

    #[test]
    fn frame_roundtrip_preserves_structure() {
        let sets = sample_sets();
        let frame = encode_frame(&sets);
        let parsed = parse_frame(&frame).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "responses");
        assert_eq!(parsed[0].items.len(), 2);
        assert_eq!(parsed[0].items[0].name, "r0");
        assert_eq!(parsed[0].items[0].data_len, 5);
        assert!(parsed[0].items[0].key.is_none());
        assert_eq!(parsed[0].items[1].key.as_deref(), Some("eu-west"));
        assert!(parsed[1].items.is_empty());
    }

    #[test]
    fn frame_rejects_truncation_trailing_bytes_and_wrong_magic() {
        let frame = encode_frame(&sample_sets());
        for cut in 0..frame.len() {
            assert!(parse_frame(&frame[..cut]).is_err(), "truncation at {cut}");
        }
        let mut trailing = frame.clone();
        trailing.push(0);
        assert!(parse_frame(&trailing).is_err());
        // A full descriptor is not a frame and vice versa.
        assert!(parse_frame(&encode_outputs(&sample_sets())).is_err());
        assert!(parse_outputs(&frame).is_err());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut encoded = encode_outputs(&sample_sets());
        encoded[0] ^= 0xFF;
        assert!(parse_outputs(&encoded).is_err());
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let encoded = encode_outputs(&sample_sets());
        for cut in 0..encoded.len() {
            assert!(
                parse_outputs(&encoded[..cut]).is_err(),
                "truncation at {cut} should fail"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut encoded = encode_outputs(&sample_sets());
        encoded.push(0);
        assert!(parse_outputs(&encoded).is_err());
    }

    #[test]
    fn enforces_limits() {
        let strict = Limits {
            max_sets: 1,
            max_items_per_set: 1,
            max_name_bytes: 4,
            max_item_bytes: 4,
        };
        // Too many sets.
        let encoded = encode_outputs(&sample_sets());
        assert!(parse_outputs_with_limits(&encoded, &strict).is_err());
        // Item too large.
        let big = vec![DataSet::with_items(
            "s",
            vec![DataItem::new("i", vec![0u8; 16])],
        )];
        assert!(parse_outputs_with_limits(&encode_outputs(&big), &strict).is_err());
        // Name too long.
        let long_name = vec![DataSet::new("very-long-set-name")];
        assert!(parse_outputs_with_limits(&encode_outputs(&long_name), &strict).is_err());
    }

    #[test]
    fn rejects_invalid_utf8_names() {
        // Hand-craft a descriptor whose set name is invalid UTF-8.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(parse_outputs(&bytes).is_err());
    }

    #[test]
    fn malicious_length_does_not_overallocate() {
        // A descriptor claiming u32::MAX items must fail fast rather than
        // attempt to allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b's');
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(parse_outputs(&bytes).is_err());
    }
}
