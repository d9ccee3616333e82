//! Property-style tests on the security- and correctness-critical
//! invariants: the untrusted output-descriptor parser, the HTTP request
//! validator, the composition DSL round-trip, the virtual filesystem's
//! capacity accounting, the query engine's partition-parallel execution and
//! the one lossy bytes-to-text conversion every HTTP body goes through.
//!
//! The workspace builds offline, so instead of `proptest` these tests drive
//! the same invariants with the repo's deterministic [`SplitMix64`] RNG:
//! every case is reproducible from the printed seed, and each test explores
//! a few hundred random cases per run.

use dandelion_common::rng::SplitMix64;
use dandelion_common::{DataItem, DataSet};
use dandelion_dsl::Distribution;
use dandelion_http::validate::{validate_request_bytes, ValidationPolicy};
use dandelion_isolation::output_parser::{encode_outputs, parse_outputs};
use dandelion_query::generate_database;
use dandelion_query::ssb::{run_partitioned, SsbQuery};
use dandelion_vfs::{VfsPath, VirtualFs};

const CASES: u64 = 300;

fn random_name(rng: &mut SplitMix64, alphabet: &[u8], max_len: u64) -> String {
    let len = 1 + rng.next_bounded(max_len);
    (0..len)
        .map(|_| alphabet[rng.next_bounded(alphabet.len() as u64) as usize] as char)
        .collect()
}

fn random_bytes(rng: &mut SplitMix64, max_len: u64) -> Vec<u8> {
    let len = rng.next_bounded(max_len);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn arbitrary_item(rng: &mut SplitMix64) -> DataItem {
    const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
    const KEY: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    let mut item = DataItem::new(random_name(rng, NAME, 16), random_bytes(rng, 256));
    if rng.bernoulli(0.5) {
        item.key = Some(random_name(rng, KEY, 8));
    }
    item
}

fn arbitrary_sets(rng: &mut SplitMix64) -> Vec<DataSet> {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    let set_count = rng.next_bounded(5);
    (0..set_count)
        .map(|_| {
            let mut name = random_name(rng, FIRST, 1);
            name.push_str(&random_name(
                rng,
                b"abcdefghijklmnopqrstuvwxyz0123456789_",
                12,
            ));
            let items = (0..rng.next_bounded(8))
                .map(|_| arbitrary_item(rng))
                .collect();
            DataSet::with_items(name, items)
        })
        .collect()
}

/// `SharedBytesMut::freeze` is the identity on the written bytes and never
/// copies: the frozen view's bytes live at the address the builder wrote
/// them to.
#[test]
fn builder_freeze_identity() {
    use dandelion_common::SharedBytesMut;
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let mut builder = SharedBytesMut::with_capacity(rng.next_bounded(512) as usize);
        let mut reference = Vec::new();
        for _ in 0..rng.next_bounded(16) {
            match rng.next_bounded(4) {
                0 => {
                    let chunk = random_bytes(&mut rng, 64);
                    builder.put_slice(&chunk);
                    reference.extend_from_slice(&chunk);
                }
                1 => {
                    let value = rng.next_u64() as u32;
                    builder.put_u32_le(value);
                    reference.extend_from_slice(&value.to_le_bytes());
                }
                2 => {
                    let value = rng.next_bounded(1_000_000) as usize;
                    builder.put_decimal(value);
                    reference.extend_from_slice(value.to_string().as_bytes());
                }
                _ => {
                    let byte = rng.next_u64() as u8;
                    builder.put_u8(byte);
                    reference.push(byte);
                }
            }
        }
        let written_ptr = builder.as_slice().as_ptr();
        let written_len = builder.len();
        let frozen = builder.freeze();
        assert_eq!(frozen.as_slice(), reference.as_slice(), "seed {seed}");
        if written_len > 0 {
            assert_eq!(
                frozen.as_slice().as_ptr(),
                written_ptr,
                "freeze must not copy (seed {seed})"
            );
        }
    }
}

/// A rope assembled from arbitrary segment splits of arbitrary payloads is
/// byte-identical to the concatenation, under flattening, vectored writes
/// and cross-chunk range reads alike.
#[test]
fn rope_reads_cross_chunk_boundaries() {
    use dandelion_common::{Rope, SharedBytes, SharedBytesMut};
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let mut rope = Rope::new();
        let mut reference = Vec::new();
        for _ in 0..rng.next_bounded(8) {
            let chunk = random_bytes(&mut rng, 128);
            reference.extend_from_slice(&chunk);
            if rng.bernoulli(0.3) {
                let mut builder = SharedBytesMut::with_capacity(chunk.len());
                builder.put_slice(&chunk);
                rope.push_builder(builder);
            } else if rng.bernoulli(0.5) && chunk.len() > 1 {
                // Adjacent split views of one buffer (exercises merging).
                let shared = SharedBytes::from_vec(chunk);
                let at = 1 + rng.next_bounded(shared.len() as u64 - 1) as usize;
                let (left, right) = shared.split_at(at);
                rope.push(left);
                rope.push(right);
            } else {
                rope.push(SharedBytes::from_vec(chunk));
            }
        }
        assert_eq!(rope.len(), reference.len(), "seed {seed}");
        assert_eq!(rope.to_vec(), reference, "flatten, seed {seed}");
        let mut delivered = Vec::new();
        rope.write_to(&mut delivered)
            .expect("Vec writes never fail");
        assert_eq!(delivered, reference, "vectored delivery, seed {seed}");
        // Random cross-chunk range reads.
        for _ in 0..8 {
            if reference.is_empty() {
                break;
            }
            let start = rng.next_bounded(reference.len() as u64) as usize;
            let len = rng.next_bounded((reference.len() - start) as u64 + 1) as usize;
            let mut window = vec![0u8; len];
            rope.copy_range_to(start, &mut window);
            assert_eq!(window, &reference[start..start + len], "seed {seed}");
        }
        let offset = if reference.is_empty() {
            0
        } else {
            rng.next_bounded(reference.len() as u64) as usize
        };
        assert_eq!(rope.byte_at(offset), reference.get(offset).copied());
        assert_eq!(rope.byte_at(reference.len()), None);
        // Collapsing preserves the bytes.
        assert_eq!(rope.into_shared().as_slice(), reference.as_slice());
    }
}

/// Hammering one pool from many threads never aliases two live buffers:
/// every thread stamps its acquired buffer with a pattern derived from the
/// handle's unique generation tag and must read it back intact, and no two
/// live handles ever observe the same generation.
#[test]
fn pool_recycling_never_aliases_buffers() {
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};

    use dandelion_common::BufferPool;

    let pool = Arc::new(BufferPool::new());
    let live_generations = Arc::new(Mutex::new(HashSet::new()));
    let threads: Vec<_> = (0..8)
        .map(|worker| {
            let pool = Arc::clone(&pool);
            let live_generations = Arc::clone(&live_generations);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0xA11A5 + worker);
                for _ in 0..400 {
                    let capacity = 1 + rng.next_bounded(128 * 1024) as usize;
                    let mut buf = pool.acquire(capacity);
                    let generation = buf.generation();
                    assert!(
                        live_generations.lock().unwrap().insert(generation),
                        "two live handles share generation {generation}"
                    );
                    assert!(buf.is_empty(), "recycled buffers must arrive cleared");
                    // Stamp a generation-derived pattern across the buffer.
                    let fill = capacity.min(4096);
                    buf.extend((0..fill).map(|i| (generation as usize + i) as u8));
                    if rng.bernoulli(0.5) {
                        std::thread::yield_now();
                    }
                    // The pattern must survive other threads' pool traffic.
                    for (i, byte) in buf.iter().enumerate() {
                        assert_eq!(
                            *byte,
                            (generation as usize + i) as u8,
                            "buffer of generation {generation} was aliased"
                        );
                    }
                    assert!(live_generations.lock().unwrap().remove(&generation));
                    pool.recycle_vec(buf.detach());
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("no pool worker panics");
    }
    let stats = pool.stats();
    assert_eq!(stats.acquires, 8 * 400);
    assert!(
        stats.reuses > 0,
        "the stress test must actually exercise recycling, stats: {stats:?}"
    );
}

/// Encoding then parsing an output descriptor is the identity.
#[test]
fn output_descriptor_roundtrip() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let sets = arbitrary_sets(&mut rng);
        let encoded = encode_outputs(&sets);
        let decoded = parse_outputs(&encoded).expect("well-formed descriptors parse");
        assert_eq!(decoded, sets, "seed {seed}");
    }
}

/// The untrusted-output parser never panics, whatever bytes a malicious
/// function leaves in its context (paper §8 relies on this parser being
/// memory safe).
#[test]
fn output_parser_never_panics() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x9E37 ^ seed);
        let bytes = random_bytes(&mut rng, 512);
        let _ = parse_outputs(&bytes);
    }
}

/// Corrupting any single byte of a valid descriptor either still parses
/// (the flip hit payload data) or fails cleanly — it never panics.
#[test]
fn output_parser_tolerates_bit_flips() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xB1F ^ seed);
        let sets = arbitrary_sets(&mut rng);
        let mut encoded = encode_outputs(&sets);
        if encoded.is_empty() {
            continue;
        }
        let position = rng.next_bounded(encoded.len() as u64) as usize;
        let flip = 1 + rng.next_bounded(255) as u8;
        encoded[position] ^= flip;
        let _ = parse_outputs(&encoded);
    }
}

/// The HTTP validator never panics on arbitrary input and anything it
/// accepts re-parses as a whitelisted method with a syntactically valid
/// host. Half the cases are mutated from a valid request so the accept path
/// is actually exercised.
#[test]
fn http_validation_is_safe() {
    let policy = ValidationPolicy::default();
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x477 ^ seed);
        let bytes = if rng.bernoulli(0.5) {
            random_bytes(&mut rng, 256)
        } else {
            let mut request =
                dandelion_http::HttpRequest::get("http://storage.internal/bucket/key").to_bytes();
            for _ in 0..rng.next_bounded(4) {
                let position = rng.next_bounded(request.len() as u64) as usize;
                request[position] = rng.next_u64() as u8;
            }
            request
        };
        if let Ok(validated) = validate_request_bytes(&bytes, &policy) {
            assert!(
                dandelion_http::Method::DEFAULT_WHITELIST.contains(&validated.request.method),
                "seed {seed}"
            );
            assert!(
                validated.uri.host_is_ipv4() || validated.uri.host_is_domain(),
                "seed {seed}"
            );
        }
    }
}

/// Compositions built programmatically print as DSL text that compiles
/// back to an equivalent executable graph.
#[test]
fn dsl_round_trips_linear_pipelines() {
    for stages in 1usize..6 {
        for each in [false, true] {
            let mut builder = dandelion_dsl::CompositionBuilder::new("Pipeline")
                .input("In")
                .output("Out");
            let mut previous = "In".to_string();
            for stage in 0..stages {
                let published = if stage + 1 == stages {
                    "Out".to_string()
                } else {
                    format!("Mid{stage}")
                };
                let source = previous.clone();
                let published_clone = published.clone();
                let distribution = if each {
                    Distribution::Each
                } else {
                    Distribution::All
                };
                builder = builder.node(&format!("Stage{stage}"), move |node| {
                    node.bind("data", distribution, &source)
                        .publish(&published_clone, "result")
                });
                previous = published;
            }
            let graph = builder.build().expect("pipeline is valid");
            let reparsed =
                dandelion_dsl::compile(&builder.ast().to_dsl()).expect("printed DSL compiles");
            assert_eq!(graph.nodes.len(), reparsed.nodes.len());
            assert_eq!(graph.topological_order, reparsed.topological_order);
        }
    }
}

/// The virtual filesystem's used-bytes accounting matches the sum of the
/// file sizes regardless of the write/overwrite/remove sequence.
#[test]
fn vfs_accounting_is_exact() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xF5 ^ seed);
        let mut fs = VirtualFs::new(1 << 20);
        fs.create_dir(&VfsPath::new("/out")).unwrap();
        let mut expected: std::collections::HashMap<usize, usize> = Default::default();
        for _ in 0..(1 + rng.next_bounded(40)) {
            let op = rng.next_bounded(3);
            let slot = rng.next_bounded(6) as usize;
            let size = rng.next_bounded(512) as usize;
            let path = VfsPath::new(&format!("/out/file-{slot}"));
            match op {
                0 | 1 => {
                    fs.write_file(&path, &vec![0u8; size]).unwrap();
                    expected.insert(slot, size);
                }
                _ => {
                    if fs.exists(&path) {
                        fs.remove(&path).unwrap();
                        expected.remove(&slot);
                    }
                }
            }
        }
        assert_eq!(
            fs.used_bytes(),
            expected.values().sum::<usize>(),
            "seed {seed}"
        );
    }
}

/// Arbitrary chains of zero-copy `SharedBytes` slices always expose exactly
/// the bytes of the corresponding `Vec` range, never copy (every view
/// shares the root's buffer), and nested slicing composes like slice
/// indexing.
#[test]
fn shared_bytes_slices_view_the_original_buffer() {
    use dandelion_common::SharedBytes;
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x5B ^ seed);
        let data = random_bytes(&mut rng, 1024);
        let root = SharedBytes::from_vec(data.clone());
        let mut view = root.clone();
        let mut start = 0usize;
        for _ in 0..rng.next_bounded(6) {
            let len = view.len() as u64;
            let a = rng.next_bounded(len + 1) as usize;
            let b = rng.next_bounded(len + 1) as usize;
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            view = view.slice(low..high);
            start += low;
            assert_eq!(
                view.as_slice(),
                &data[start..start + view.len()],
                "seed {seed}"
            );
            assert_eq!(view.offset_in_buffer(), start, "seed {seed}");
            assert!(SharedBytes::same_buffer(&view, &root), "seed {seed}");
        }
    }
}

/// Bytes assembled from the fragments UTF-8 validation has to tell apart:
/// well-formed characters of every length next to the ways of getting one
/// wrong.
fn arbitrary_almost_utf8(rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..1 + rng.next_bounded(8) {
        let mut encoded = [0u8; 4];
        let valid = [
            'a',
            ' ',
            '\n',
            '\u{e9}',
            '\u{20ac}',
            '\u{fffd}',
            '\u{1f33c}',
        ][rng.next_bounded(7) as usize]
            .encode_utf8(&mut encoded)
            .as_bytes();
        match rng.next_bounded(8) {
            // An ASCII run long enough to reach the word-at-a-time path.
            0 => bytes.extend((0..rng.next_bounded(24)).map(|index| b'a' + index as u8)),
            1 | 2 => bytes.extend_from_slice(valid),
            // Truncated multi-byte sequence.
            3 => bytes.extend_from_slice(&valid[..valid.len() - 1]),
            // Overlong encodings of NUL and of `/`.
            4 => bytes.extend_from_slice(
                [&b"\xC0\x80"[..], b"\xE0\x80\xAF", b"\xF0\x80\x80\xAF"]
                    [rng.next_bounded(3) as usize],
            ),
            // A UTF-16 surrogate, and a code point past U+10FFFF.
            5 => bytes.extend_from_slice(
                [&b"\xED\xA0\x80"[..], b"\xED\xBF\xBF", b"\xF4\x90\x80\x80"]
                    [rng.next_bounded(3) as usize],
            ),
            // A lone continuation byte.
            6 => bytes.push(0x80 + rng.next_bounded(0x40) as u8),
            // Any byte at all (`0xF5..` can start nothing).
            _ => bytes.push(rng.next_u64() as u8),
        }
    }
    bytes
}

/// `utf8_lossy` answers exactly what std's lossy conversion answers — which
/// std documents as this loop over `Utf8Chunks`, the byte-at-a-time walk the
/// helper exists to skip for valid input — and valid input comes back
/// borrowed: the text is the input buffer, not a copy of it.
#[test]
fn utf8_lossy_is_the_lossy_conversion_and_borrows_valid_input() {
    use dandelion_common::encoding::utf8_lossy;
    use std::borrow::Cow;

    const WANTED: usize = 20_000;
    let (mut checked, mut valid, mut repaired) = (0usize, 0usize, 0usize);
    for seed in 0.. {
        if checked >= WANTED {
            break;
        }
        let bytes = arbitrary_almost_utf8(&mut SplitMix64::new(0x07F8 ^ seed));
        // Every prefix: each multi-byte sequence also ends the input at each
        // of its bytes, where a validator's lookahead runs out.
        for cut in 0..=bytes.len() {
            let input = &bytes[..cut];
            let mut reference = String::new();
            for chunk in input.utf8_chunks() {
                reference.push_str(chunk.valid());
                if !chunk.invalid().is_empty() {
                    reference.push('\u{FFFD}');
                }
            }
            let text = utf8_lossy(input);
            assert_eq!(text, reference, "seed {seed}, first {cut} bytes");
            if std::str::from_utf8(input).is_ok() {
                assert!(matches!(text, Cow::Borrowed(_)), "seed {seed}, cut {cut}");
                assert_eq!(text.as_ptr(), input.as_ptr(), "seed {seed}, cut {cut}");
                assert_eq!(text.len(), input.len(), "seed {seed}, cut {cut}");
                valid += 1;
            } else {
                repaired += 1;
            }
            checked += 1;
        }
    }
    // The generator reaches both sides in bulk, not one of them by accident.
    assert!(valid >= WANTED / 10, "{valid} valid inputs");
    assert!(repaired >= WANTED / 10, "{repaired} invalid inputs");
}

/// Splitting a view at any point and merging the halves back is the
/// identity, stays zero-copy, and merging is refused exactly when the
/// pieces are not adjacent views of one buffer.
#[test]
fn shared_bytes_split_merge_invariants() {
    use dandelion_common::SharedBytes;
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x3E8 ^ seed);
        let data = random_bytes(&mut rng, 512);
        let whole = SharedBytes::from_vec(data.clone());
        let at = rng.next_bounded(data.len() as u64 + 1) as usize;
        let (left, right) = whole.split_at(at);
        assert_eq!(left.len() + right.len(), data.len(), "seed {seed}");
        assert!(SharedBytes::same_buffer(&left, &right), "seed {seed}");

        let merged = left.try_merge(&right).expect("adjacent halves merge");
        assert_eq!(merged, whole, "seed {seed}");
        assert!(SharedBytes::same_buffer(&merged, &whole), "seed {seed}");

        // Reversed order only merges in the degenerate empty cases where
        // the halves are still adjacent (at == 0 or at == len).
        let reversed_adjacent = right.offset_in_buffer() + right.len() == left.offset_in_buffer();
        assert_eq!(
            right.try_merge(&left).is_some(),
            reversed_adjacent,
            "seed {seed} at {at}"
        );
        // Views of a different buffer never merge, even with equal content.
        // (Empty data is excluded: all empty views share one static buffer
        // by design, so two independently built empty views *do* merge.)
        if !data.is_empty() {
            let copy = SharedBytes::from_vec(data.clone());
            let (copy_left, _) = copy.split_at(at);
            assert!(copy_left.try_merge(&right).is_none(), "seed {seed}");
        }
        // A merge of non-adjacent views (gap of one byte) is refused.
        if data.len() >= 2 && at + 1 < data.len() {
            let gapped = whole.slice(at + 1..);
            assert!(left.try_merge(&gapped).is_none(), "seed {seed}");
        }
    }
}

/// Builds a random but well-formed HTTP request out of the characters the
/// strict parser accepts.
fn arbitrary_request(rng: &mut SplitMix64) -> dandelion_http::HttpRequest {
    use dandelion_http::{HttpRequest, Method};
    const PATH: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/_-.";
    const VALUE: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
    let method = Method::DEFAULT_WHITELIST[rng.next_bounded(4) as usize];
    let mut request = HttpRequest::new(method, format!("/{}", random_name(rng, PATH, 24)));
    for index in 0..rng.next_bounded(5) {
        request = request.with_header(&format!("X-H{index}"), &random_name(rng, VALUE, 20));
    }
    if rng.bernoulli(0.7) {
        request.body = random_bytes(rng, 300).into();
    }
    request
}

/// The incremental stream decoder is split-invariant: feeding a serialized
/// request to `RequestDecoder` fragmented at *every* byte boundary (plus
/// SplitMix64-sampled three-way splits) yields a request byte-identical to
/// the one-shot `parse_request_shared` path.
#[test]
fn incremental_request_parsing_is_split_invariant() {
    use dandelion_common::SharedBytes;
    use dandelion_http::{parse_request_shared, ParseLimits, RequestDecoder};
    for seed in 0..100 {
        let mut rng = SplitMix64::new(0x11770 ^ seed);
        let request = arbitrary_request(&mut rng);
        let wire = request.to_bytes();
        let reference = parse_request_shared(&SharedBytes::from_vec(wire.clone()))
            .expect("serialized requests reparse");

        // Every two-fragment split.
        for cut in 0..=wire.len() {
            let mut decoder = RequestDecoder::new(ParseLimits::default());
            decoder.feed(&wire[..cut]);
            let early = decoder.next_request().expect("no spurious error");
            if let Some(parsed) = early {
                assert_eq!(cut, wire.len(), "seed {seed}: early completion at {cut}");
                assert_eq!(parsed, reference, "seed {seed}");
                continue;
            }
            decoder.feed(&wire[cut..]);
            let parsed = decoder
                .next_request()
                .expect("no error after completion")
                .expect("request completes once all bytes arrived");
            assert_eq!(
                parsed, reference,
                "seed {seed}: split at byte {cut} diverged"
            );
            assert_eq!(decoder.buffered(), 0, "seed {seed}");
        }

        // Sampled three-fragment splits.
        for _ in 0..16 {
            let mut cuts = [
                rng.next_bounded(wire.len() as u64 + 1) as usize,
                rng.next_bounded(wire.len() as u64 + 1) as usize,
            ];
            cuts.sort_unstable();
            let mut decoder = RequestDecoder::new(ParseLimits::default());
            let mut decoded = Vec::new();
            for fragment in [&wire[..cuts[0]], &wire[cuts[0]..cuts[1]], &wire[cuts[1]..]] {
                decoder.feed(fragment);
                while let Some(request) = decoder.next_request().expect("no spurious error") {
                    decoded.push(request);
                }
            }
            assert_eq!(decoded.len(), 1, "seed {seed}: cuts {cuts:?}");
            assert_eq!(decoded[0], reference, "seed {seed}: cuts {cuts:?} diverged");
        }
    }
}

/// Pipelined messages survive fragmentation too: several requests
/// concatenated on one "connection" and split at a SplitMix64-sampled
/// boundary decode to exactly the per-request one-shot results, in order.
#[test]
fn incremental_parsing_preserves_pipelined_request_order() {
    use dandelion_common::SharedBytes;
    use dandelion_http::{parse_request_shared, ParseLimits, RequestDecoder};
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x9199e ^ seed);
        let count = 1 + rng.next_bounded(3) as usize;
        let requests: Vec<_> = (0..count).map(|_| arbitrary_request(&mut rng)).collect();
        let references: Vec<_> = requests
            .iter()
            .map(|request| {
                parse_request_shared(&SharedBytes::from_vec(request.to_bytes())).unwrap()
            })
            .collect();
        let wire: Vec<u8> = requests
            .iter()
            .flat_map(|request| request.to_bytes())
            .collect();
        let cut = rng.next_bounded(wire.len() as u64 + 1) as usize;

        let mut decoder = RequestDecoder::new(ParseLimits::default());
        let mut decoded = Vec::new();
        for fragment in [&wire[..cut], &wire[cut..]] {
            decoder.feed(fragment);
            while let Some(request) = decoder.next_request().expect("valid pipeline") {
                decoded.push(request);
            }
        }
        assert_eq!(decoded, references, "seed {seed}: split at {cut}");
        assert_eq!(decoder.buffered(), 0, "seed {seed}");
    }
}

/// A stream decoder of requests or of responses, as the splice property
/// drives it.
trait Framer: Default {
    type Frame;
    fn feed_bytes(&mut self, bytes: &[u8]);
    fn frame(&mut self) -> Result<Option<Self::Frame>, dandelion_http::HttpParseError>;
    fn frame_len(frame: &Self::Frame) -> usize;
}

impl Framer for dandelion_http::RequestDecoder {
    type Frame = dandelion_http::RequestFrame;
    fn feed_bytes(&mut self, bytes: &[u8]) {
        self.feed(bytes);
    }
    fn frame(&mut self) -> Result<Option<Self::Frame>, dandelion_http::HttpParseError> {
        self.next_frame()
    }
    fn frame_len(frame: &Self::Frame) -> usize {
        frame.bytes().len()
    }
}

impl Framer for dandelion_http::ResponseDecoder {
    type Frame = dandelion_http::ResponseFrame;
    fn feed_bytes(&mut self, bytes: &[u8]) {
        self.feed(bytes);
    }
    fn frame(&mut self) -> Result<Option<Self::Frame>, dandelion_http::HttpParseError> {
        self.next_frame()
    }
    fn frame_len(frame: &Self::Frame) -> usize {
        frame.bytes().len()
    }
}

/// What a decoder makes of `wire` fed in two pieces, split at every byte:
/// the framed message's length, `None` while it is incomplete, or the
/// rejection's status — the same at every split, or the test fails — and
/// the frame itself.
fn split_verdict<D: Framer>(
    wire: &[u8],
    context: &str,
) -> (Result<Option<usize>, u16>, Option<D::Frame>) {
    use dandelion_http::rejection_status;
    let mut first: Option<Result<Option<usize>, u16>> = None;
    let mut framed = None;
    for cut in 0..=wire.len() {
        let mut decoder = D::default();
        decoder.feed_bytes(&wire[..cut]);
        let mut outcome = decoder.frame();
        if matches!(outcome, Ok(None)) {
            decoder.feed_bytes(&wire[cut..]);
            outcome = decoder.frame();
        }
        let verdict = match &outcome {
            Ok(frame) => Ok(frame.as_ref().map(D::frame_len)),
            Err(error) => Err(rejection_status(error).0),
        };
        match &first {
            Some(earlier) => assert_eq!(&verdict, earlier, "{context}: split at {cut}"),
            None => first = Some(verdict),
        }
        framed = outcome.ok().flatten();
    }
    (first.expect("at least one split"), framed)
}

/// Where the head of an accepted `wire` ends, found without the scanner: a
/// line ends at CRLF and nowhere else, so the first blank line is it.
fn head_len(wire: &[u8]) -> usize {
    wire.windows(4)
        .position(|window| window == b"\r\n\r\n")
        .expect("an accepted message has a head")
        + 4
}

/// A message's fields as a header multimap, values trimmed: names
/// lower-cased and in order, the values of one name in the order they came.
fn multimap(headers: &dandelion_http::Headers) -> Vec<(String, String)> {
    let mut fields: Vec<(String, String)> = headers
        .iter()
        .map(|(name, value)| (name.to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    fields
}

/// The framing corpus's heads under `start_line`, mutated the ways a head
/// goes wrong: byte flips; an inserted CR, LF, colon, space, NUL or byte
/// above 0x7F; a second `Content-Length`; a `Transfer-Encoding`; one to three
/// `Connection` lines. Half the draws start from a head the corpus frames.
fn mutated_message(rng: &mut SplitMix64, start_line: &str) -> Vec<u8> {
    use dandelion_http::stream::FRAMING_HEADS;
    let framed: Vec<&str> = FRAMING_HEADS
        .iter()
        .filter(|(_, status)| *status == 200)
        .map(|(head, _)| *head)
        .collect();
    let head = if rng.bernoulli(0.5) {
        framed[rng.next_bounded(framed.len() as u64) as usize]
    } else {
        FRAMING_HEADS[rng.next_bounded(FRAMING_HEADS.len() as u64) as usize].0
    };
    let mut wire = head.replace("{}", start_line).into_bytes();
    let insert_line = |rng: &mut SplitMix64, wire: &mut Vec<u8>, line: String| {
        // After one of the head's CRLFs: a field line's start, or the blank
        // line's.
        let blank = wire
            .windows(4)
            .position(|window| window == b"\r\n\r\n")
            .map_or(wire.len(), |at| at + 2);
        let starts: Vec<usize> = (0..blank.saturating_sub(1))
            .filter(|&at| &wire[at..at + 2] == b"\r\n")
            .map(|at| at + 2)
            .collect();
        if !starts.is_empty() {
            let at = starts[rng.next_bounded(starts.len() as u64) as usize];
            wire.splice(at..at, format!("{line}\r\n").into_bytes());
        }
    };
    for _ in 0..rng.next_bounded(4) {
        match rng.next_bounded(6) {
            0 => {
                let at = rng.next_bounded(wire.len() as u64) as usize;
                wire[at] ^= 1 << rng.next_bounded(8);
            }
            1 => {
                let byte = if rng.bernoulli(0.5) {
                    [b'\r', b'\n', b':', b' ', 0][rng.next_bounded(5) as usize]
                } else {
                    0x80 + rng.next_bounded(0x80) as u8
                };
                let at = rng.next_bounded(wire.len() as u64 + 1) as usize;
                wire.insert(at, byte);
            }
            2 => {
                let length = rng.next_bounded(5);
                insert_line(rng, &mut wire, format!("Content-Length: {length}"));
            }
            3 => insert_line(rng, &mut wire, "Transfer-Encoding: chunked".to_string()),
            _ => {
                const TOKENS: [&str; 5] = ["close", "keep-alive", "TE, close", " Keep-Alive ", "x"];
                for _ in 0..=rng.next_bounded(3) {
                    let tokens = TOKENS[rng.next_bounded(TOKENS.len() as u64) as usize];
                    insert_line(rng, &mut wire, format!("Connection: {tokens}"));
                }
            }
        }
    }
    wire
}

/// The gateway's splice against its specification (the first step of
/// ROADMAP 2(iii)). On the framing corpus and mutations of it:
///
/// * the stream decoders, at every split, reach the one-shot parsers'
///   verdict, rejection status and message length;
/// * an accepted request forwards to what `proxy_request` makes of it, and
///   an accepted response relays to what `proxy_response` and
///   `response_rope` make of it — compared re-parsed, as header multimaps
///   with trimmed values, with the same body.
#[test]
fn the_gateway_splice_matches_its_specification_on_a_mutated_framing_corpus() {
    use dandelion_common::encoding::utf8_lossy;
    use dandelion_common::NodeId;
    use dandelion_http::{
        parse_request, parse_response, rejection_status, HttpParseError, RequestDecoder,
        ResponseDecoder,
    };
    use dandelion_server::gateway::{
        forward_rope, node_line, proxy_request, proxy_response, relay_rope,
    };
    use dandelion_server::response_rope;

    let incomplete = |error: &HttpParseError| {
        matches!(
            error,
            HttpParseError::UnexpectedEof | HttpParseError::BodyTooShort { .. }
        )
    };
    let mut accepted = [0usize; 2];
    for seed in 0..2 * CASES {
        let mut rng = SplitMix64::new(0x5_911C_E000 ^ seed);

        let wire = mutated_message(&mut rng, "POST /v1/invoke/EchoComp HTTP/1.1");
        let context = format!("seed {seed}, request {:?}", utf8_lossy(&wire));
        let (verdict, frame) = split_verdict::<RequestDecoder>(&wire, &context);
        match (verdict, parse_request(&wire)) {
            (Ok(Some(length)), Ok(whole)) => {
                let frame = frame.expect("framed");
                let head = head_len(&wire);
                let declared = whole.headers.content_length();
                assert_eq!(length, head + declared.unwrap_or(0), "{context}");
                assert_eq!(whole.body, wire[head..head + whole.body.len()], "{context}");
                let message = parse_request(&wire[..length]).expect("the message parses alone");
                assert_eq!(frame.to_request(), message, "{context}");
                let got =
                    parse_request(&forward_rope(&frame).to_vec()).expect("the forward parses");
                let want = parse_request(&proxy_request(&message).to_bytes()).expect("reparses");
                assert_eq!(
                    (got.method, &got.target, got.version),
                    (want.method, &want.target, want.version),
                    "{context}"
                );
                assert_eq!(multimap(&got.headers), multimap(&want.headers), "{context}");
                assert_eq!(got.body, want.body, "{context}");
                accepted[0] += 1;
            }
            (Ok(None), Err(error)) if incomplete(&error) => {}
            (Err(status), Err(error)) if !incomplete(&error) => {
                assert_eq!(status, rejection_status(&error).0, "{context}: {error}");
            }
            (verdict, whole) => panic!("{context}: stream {verdict:?}, one-shot {whole:?}"),
        }

        let wire = mutated_message(&mut rng, "HTTP/1.1 200 OK");
        let context = format!("seed {seed}, response {:?}", utf8_lossy(&wire));
        let (verdict, frame) = split_verdict::<ResponseDecoder>(&wire, &context);
        match (verdict, parse_response(&wire)) {
            (Ok(Some(length)), Ok(whole)) => {
                let frame = frame.expect("framed");
                let head = head_len(&wire);
                let declared = whole.headers.content_length();
                assert_eq!(length, head + declared.unwrap_or(0), "{context}");
                assert_eq!(whole.body, wire[head..head + whole.body.len()], "{context}");
                let message = parse_response(&wire[..length]).expect("the message parses alone");
                assert_eq!(frame.to_response(), message, "{context}");
                let node = NodeId::from_raw(rng.next_bounded(100));
                let close = rng.bernoulli(0.5);
                let relayed = relay_rope(&frame, &node_line(node), close);
                let got = parse_response(&relayed.to_vec()).expect("the relay parses");
                let want =
                    parse_response(&response_rope(proxy_response(message, node), close).to_vec())
                        .expect("reparses");
                assert_eq!(
                    (got.version, got.status),
                    (want.version, want.status),
                    "{context}"
                );
                assert_eq!(multimap(&got.headers), multimap(&want.headers), "{context}");
                assert_eq!(got.body, want.body, "{context}");
                accepted[1] += 1;
            }
            (Ok(None), Err(error)) if incomplete(&error) => {}
            (Err(status), Err(error)) if !incomplete(&error) => {
                assert_eq!(status, rejection_status(&error).0, "{context}: {error}");
            }
            (verdict, whole) => panic!("{context}: stream {verdict:?}, one-shot {whole:?}"),
        }
    }
    // Enough of the corpus survives its mutations for the splice to be
    // exercised, not only the verdicts.
    assert!(
        accepted.iter().all(|&count| count as u64 >= CASES / 2),
        "accepted (requests, responses): {accepted:?}"
    );
}

/// The resumable write path is suspension-invariant: every response of the
/// pipelined-order corpus, written through a `WouldBlock`-injecting writer
/// that accepts `k` bytes per readiness window — for *every* `k` — is
/// byte-identical to the one-shot `Rope::write_to`, and payload segments
/// keep their `Arc` identity across suspensions.
#[test]
fn resumed_partial_writes_are_byte_identical_for_every_chunk_size() {
    use dandelion_common::{RopeWriter, SharedBytes};
    use dandelion_http::HttpResponse;
    use dandelion_integration_tests::ChoppyWriter;
    use dandelion_server::response_rope;

    for seed in 0..40u64 {
        let mut rng = SplitMix64::new(0x40b3_11fe ^ seed);
        // The pipelined-order corpus: several requests on one connection,
        // each answered by echoing its body — the response stream the
        // server would deliver, in order.
        let count = 1 + rng.next_bounded(3) as usize;
        let responses: Vec<_> = (0..count)
            .map(|index| {
                let request = arbitrary_request(&mut rng);
                let close = index + 1 == count && rng.bernoulli(0.5);
                let payload = request.body.clone();
                (
                    response_rope(HttpResponse::ok(request.body.clone()), close),
                    payload,
                )
            })
            .collect();
        for (rope, payload) in &responses {
            let mut reference = Vec::new();
            rope.write_to(&mut reference).unwrap();
            for quota in 1..=reference.len() {
                let mut writer = RopeWriter::new(rope.clone());
                let mut choppy = ChoppyWriter::new(quota);
                let mut windows = 0;
                while !writer.write_some(&mut choppy).unwrap() {
                    windows += 1;
                    assert!(
                        windows <= reference.len() + 2,
                        "seed {seed}: quota {quota} stalled"
                    );
                }
                assert_eq!(
                    choppy.out, reference,
                    "seed {seed}: quota {quota} diverged from one-shot write_to"
                );
                // Zero-copy across suspensions: the body segment still *is*
                // the original payload buffer.
                if !payload.is_empty() {
                    let last = writer
                        .rope()
                        .last_segment()
                        .expect("body rides as a segment");
                    assert!(
                        SharedBytes::same_buffer(last, payload),
                        "seed {seed}: quota {quota} copied the body"
                    );
                }
            }
        }
    }
}

/// Batching is invisible on the wire: a pipeline of responses gathered into
/// one `RopeBatch` and written through a writer that accepts `k` bytes per
/// readiness window — for *every* `k`, so a `WouldBlock` falls at every
/// byte position — delivers exactly the bytes of writing the same messages
/// one by one. Along the way each message is reported complete exactly once
/// and exactly when its last byte has left, every body segment still is the
/// caller's buffer, and `take_unsent` returns precisely the messages none
/// of whose bytes left.
#[test]
fn batched_writes_equal_one_by_one_writes_at_every_suspension_point() {
    use dandelion_common::{BatchProgress, RopeBatch, RopeWriter, SharedBytes};
    use dandelion_http::HttpResponse;
    use dandelion_integration_tests::ChoppyWriter;
    use dandelion_server::response_rope;

    for seed in 0..25u64 {
        let mut rng = SplitMix64::new(0xba7c_4ed0 ^ seed);
        let count = 1 + rng.next_bounded(5) as usize;
        let messages: Vec<_> = (0..count)
            .map(|_| {
                let payload = arbitrary_request(&mut rng).body;
                let rope = response_rope(HttpResponse::ok(payload.clone()), false);
                (rope, payload)
            })
            .collect();
        // The reference: one writer per message, one after the other.
        let mut reference = Vec::new();
        let mut starts = Vec::new();
        let mut ends = Vec::new();
        for (rope, _) in &messages {
            starts.push(reference.len());
            assert!(RopeWriter::new(rope.clone())
                .write_some(&mut reference)
                .unwrap());
            ends.push(reference.len());
        }
        let same_body = |writer: &RopeWriter, payload: &SharedBytes| {
            payload.is_empty()
                || SharedBytes::same_buffer(writer.rope().last_segment().unwrap(), payload)
        };

        for quota in 1..=reference.len() {
            let mut batch = RopeBatch::new();
            for (rope, _) in &messages {
                batch.push(rope.clone());
            }
            let mut choppy = ChoppyWriter::new(quota);
            let mut progress = BatchProgress::default();
            let mut windows = 0;
            while !batch.write_some(&mut choppy, &mut progress).unwrap() {
                windows += 1;
                assert!(
                    windows <= reference.len() + 2,
                    "seed {seed}: quota {quota} stalled"
                );
                let sent = choppy.out.len();
                assert_eq!(batch.written(), sent as u64);
                // Completions follow the message boundaries exactly.
                let complete = ends.iter().filter(|&&end| end <= sent).count();
                assert_eq!(
                    progress.messages, complete as u64,
                    "seed {seed}: quota {quota}: completions at byte {sent}"
                );
                assert_eq!(batch.len(), count - complete);
                // Zero-copy across suspensions, for every queued message.
                for (writer, (_, payload)) in batch.pending().zip(&messages[complete..]) {
                    assert!(
                        same_body(writer, payload),
                        "seed {seed}: quota {quota} copied a body"
                    );
                }
                // Exactly the messages starting at or after `sent` are
                // unsent; putting them back changes nothing.
                let untouched = starts.iter().filter(|&&start| start >= sent).count();
                let unsent = batch.take_unsent();
                assert_eq!(
                    unsent.len(),
                    untouched,
                    "seed {seed}: quota {quota}: unsent set at byte {sent}"
                );
                for (rope, (original, _)) in unsent.iter().zip(&messages[count - untouched..]) {
                    assert_eq!(rope.to_vec(), original.to_vec());
                }
                for rope in unsent {
                    batch.push(rope);
                }
            }
            assert_eq!(choppy.out, reference, "seed {seed}: quota {quota} diverged");
            assert_eq!(
                progress.messages, count as u64,
                "each message completes once"
            );
            assert!(batch.is_empty() && batch.take_unsent().is_empty());
        }
    }
}

/// Partition-parallel SSB execution is equivalent to single-node execution
/// for any partition count.
#[test]
fn partitioned_queries_are_deterministic() {
    for seed in 0u64..4 {
        let db = generate_database(0.02, seed);
        let whole = SsbQuery::Q1_1.run(&db).expect("query runs");
        for partitions in 1usize..12 {
            let split = run_partitioned(&db, SsbQuery::Q1_1, partitions).expect("partitioned runs");
            assert_eq!(whole, split, "seed {seed} partitions {partitions}");
        }
    }
}

/// `crates/core/src/invocation.rs` as it was at the parent commit: the
/// reference [`dataflow_state_matches_the_parent_oracle`] compares against.
#[allow(dead_code)]
#[path = "oracle/invocation_parent.rs"]
mod parent_dataflow;

/// What a dataflow state hands out or returns, in a form both the current
/// state and the oracle can be reduced to: names, and for payloads the
/// address and length of the view — equal only if both sides passed the
/// *same* buffer on, neither a copy nor another item's.
mod dataflow_view {
    use dandelion_common::{DandelionResult, DataSet};

    pub type Item = (String, Option<String>, usize, usize);
    pub type Set = (String, Vec<Item>);
    /// node, instance, vertex, output set names, inputs.
    pub type Ready = (usize, usize, String, Vec<String>, Vec<Set>);

    pub fn sets(sets: &[DataSet]) -> Vec<Set> {
        sets.iter()
            .map(|set| {
                let items = set
                    .items
                    .iter()
                    .map(|item| {
                        (
                            item.name.clone(),
                            item.key.clone(),
                            item.data.as_slice().as_ptr() as usize,
                            item.data.len(),
                        )
                    })
                    .collect();
                (set.name.clone(), items)
            })
            .collect()
    }

    pub fn outputs(outputs: DandelionResult<Vec<DataSet>>) -> Result<Vec<Set>, String> {
        outputs
            .map(|outputs| sets(&outputs))
            .map_err(|error| error.to_string())
    }
}

/// A random composition of at most eight nodes: `all`/`each`/`key` and
/// optional bindings over external inputs and other nodes' outputs, in
/// shuffled statement order (so a producer may sit after its consumer), now
/// and then with two fan-out bindings (an error both sides must report alike)
/// or with two outputs of one set name.
fn arbitrary_composition(rng: &mut SplitMix64) -> dandelion_dsl::CompositionGraph {
    let externals: Vec<String> = (0..1 + rng.next_bounded(3))
        .map(|index| format!("E{index}"))
        .collect();
    let node_count = 1 + rng.next_bounded(8) as usize;
    let mut available = externals.clone();
    let mut published_by_nodes = Vec::new();
    let mut statements = Vec::new();
    for node in 0..node_count {
        let mut fanout_left = if rng.bernoulli(0.04) { 2 } else { 1 };
        let bindings: Vec<(String, Distribution, String, bool)> = (0..1 + rng.next_bounded(3))
            .map(|binding| {
                let source = available[rng.next_bounded(available.len() as u64) as usize].clone();
                let distribution = match rng.next_bounded(4) {
                    0 if fanout_left > 0 => Distribution::Each,
                    1 if fanout_left > 0 => Distribution::Key,
                    _ => Distribution::All,
                };
                if distribution != Distribution::All {
                    fanout_left -= 1;
                }
                (
                    format!("in{binding}"),
                    distribution,
                    source,
                    rng.bernoulli(0.3),
                )
            })
            .collect();
        let same_set_twice = rng.bernoulli(0.1);
        let outputs: Vec<(String, String)> = (0..1 + rng.next_bounded(2))
            .map(|output| {
                let set = if same_set_twice { 0 } else { output };
                (format!("P{node}x{output}"), format!("out{set}"))
            })
            .collect();
        for (published, _) in &outputs {
            available.push(published.clone());
            published_by_nodes.push(published.clone());
        }
        statements.push((format!("V{node}"), bindings, outputs));
    }
    rng.shuffle(&mut statements);
    let mut builder = dandelion_dsl::CompositionBuilder::new("Random");
    for external in &externals {
        builder = builder.input(external);
    }
    for _ in 0..1 + rng.next_bounded(2) {
        let published =
            &published_by_nodes[rng.next_bounded(published_by_nodes.len() as u64) as usize];
        if !builder.ast().outputs.contains(published) {
            builder = builder.output(published);
        }
    }
    for (vertex, bindings, outputs) in statements {
        builder = builder.node(&vertex, |mut node| {
            for (set, distribution, source, optional) in &bindings {
                node = if *optional {
                    node.bind_optional(set, *distribution, source)
                } else {
                    node.bind(set, *distribution, source)
                };
            }
            for (published, set) in &outputs {
                node = node.publish(published, set);
            }
            node
        });
    }
    builder.build().expect("generated compositions are valid")
}

/// Up to `max` items with fresh buffers, some of them keyed.
fn arbitrary_items(rng: &mut SplitMix64, prefix: &str, max: u64) -> Vec<DataItem> {
    (0..rng.next_bounded(max + 1))
        .map(|index| {
            let mut item = DataItem::new(format!("{prefix}{index}"), random_bytes(rng, 24));
            if rng.bernoulli(0.6) {
                item.key = Some(format!("k{}", rng.next_bounded(3)));
            }
            item
        })
        .collect()
}

/// The dataflow state machine hands out the same instances with the same
/// inputs, in the same order, and assembles the same external outputs as the
/// one it replaced — at every step of a random schedule with out-of-order and
/// duplicate completions, empty and missing sets, undeclared and repeated
/// output sets, and at most one failing instance.
#[test]
fn dataflow_state_matches_the_parent_oracle() {
    use dandelion_common::{DandelionError, InvocationId};
    use dandelion_core::invocation::{InstanceCompletion, InvocationState};
    use std::collections::HashSet;
    use std::sync::Arc;

    for seed in 0..2_500u64 {
        let mut rng = SplitMix64::new(0xDA7A_F10E ^ seed);
        let graph = Arc::new(arbitrary_composition(&mut rng));
        let mut inputs = Vec::new();
        for name in &graph.external_inputs {
            // A client may leave a declared input out.
            if !rng.bernoulli(0.15) {
                inputs.push(DataSet::with_items(
                    name.clone(),
                    arbitrary_items(&mut rng, "x", 3),
                ));
            }
        }
        let id = InvocationId::next();
        let mut current = InvocationState::new(id, Arc::clone(&graph), inputs.clone()).unwrap();
        let mut oracle =
            parent_dataflow::InvocationState::new(id, Arc::clone(&graph), inputs).unwrap();
        // The oracle's caller kept the set of applied completions (the
        // dispatcher's `EntryInner.completed`); the current state answers
        // "duplicate" itself.
        let mut applied: HashSet<(usize, usize)> = HashSet::new();
        let mut outstanding: Vec<(usize, usize, Vec<String>)> = Vec::new();
        let mut completed: Vec<(usize, usize)> = Vec::new();
        let mut may_fail = rng.bernoulli(0.3);
        // Far more steps than eight nodes can take: duplicates are drawn with
        // probability 0.2, so every schedule ends long before the bound.
        for step in 0..10_000 {
            let context = format!("seed {seed} step {step}");
            let ready: Result<Vec<dataflow_view::Ready>, String> = current
                .ready_instances()
                .map(|ready| {
                    ready
                        .iter()
                        .map(|spec| {
                            (
                                spec.node,
                                spec.instance,
                                spec.vertex.to_string(),
                                spec.output_sets.iter().map(|o| o.set.clone()).collect(),
                                dataflow_view::sets(&spec.inputs),
                            )
                        })
                        .collect()
                })
                .map_err(|error| error.to_string());
            let expected: Result<Vec<dataflow_view::Ready>, String> = oracle
                .ready_instances()
                .map(|ready| {
                    ready
                        .iter()
                        .map(|spec| {
                            (
                                spec.node,
                                spec.instance,
                                spec.vertex.clone(),
                                spec.output_sets.clone(),
                                dataflow_view::sets(&spec.inputs),
                            )
                        })
                        .collect()
                })
                .map_err(|error| error.to_string());
            assert_eq!(ready, expected, "{context}: ready instances");
            let Ok(ready) = ready else {
                // Two fan-out bindings: the dispatcher fails the invocation.
                break;
            };
            outstanding.extend(
                ready
                    .into_iter()
                    .map(|(node, instance, _, output_sets, _)| (node, instance, output_sets)),
            );
            assert_eq!(
                current.is_complete(),
                oracle.is_complete(),
                "{context}: completeness"
            );
            assert_eq!(
                dataflow_view::outputs(current.external_outputs()),
                dataflow_view::outputs(oracle.external_outputs()),
                "{context}: external outputs"
            );
            assert_eq!(current.error(), oracle.error(), "{context}: error");

            // Now and then an engine retry re-delivers an applied result.
            // (Not after a failure: the dispatcher settles a failed
            // invocation at once and applies nothing to it afterwards.)
            let redeliver = !completed.is_empty() && current.error().is_none();
            let (node, instance, outcome) = if redeliver && rng.bernoulli(0.2) {
                let (node, instance) = completed[rng.next_bounded(completed.len() as u64) as usize];
                let outcome = if rng.bernoulli(0.5) {
                    Ok(vec![DataSet::with_items(
                        "out0",
                        arbitrary_items(&mut rng, "dup", 2),
                    )])
                } else {
                    Err(DandelionError::Cancelled)
                };
                (node, instance, outcome)
            } else if outstanding.is_empty() {
                break;
            } else {
                // Completions arrive in any order.
                let pick = rng.next_bounded(outstanding.len() as u64) as usize;
                let (node, instance, mut output_sets) = outstanding.swap_remove(pick);
                completed.push((node, instance));
                let outcome = if may_fail && rng.bernoulli(0.15) {
                    may_fail = false;
                    Err(DandelionError::FunctionFault {
                        function: format!("V{node}"),
                        reason: "injected".to_string(),
                    })
                } else {
                    // A function may leave a declared set out, return one
                    // twice, or return a set nobody declared.
                    output_sets.push("undeclared".to_string());
                    if rng.bernoulli(0.2) {
                        output_sets.push("out0".to_string());
                    }
                    let mut outputs = Vec::new();
                    for set in output_sets {
                        if !rng.bernoulli(0.15) {
                            let prefix = format!("n{node}i{instance}.");
                            outputs.push(DataSet::with_items(
                                set,
                                arbitrary_items(&mut rng, &prefix, 3),
                            ));
                        }
                    }
                    Ok(outputs)
                };
                (node, instance, outcome)
            };
            let got = current
                .complete_instance(node, instance, outcome.clone())
                .map_err(|error| error.to_string());
            let expected = if applied.insert((node, instance)) {
                oracle
                    .complete_instance(node, instance, outcome)
                    .map(|finished_node| {
                        if finished_node {
                            InstanceCompletion::NodeFinished
                        } else {
                            InstanceCompletion::Pending
                        }
                    })
                    .map_err(|error| error.to_string())
            } else {
                Ok(InstanceCompletion::Duplicate)
            };
            assert_eq!(
                got, expected,
                "{context}: completing node {node} instance {instance}"
            );
        }
    }
}
