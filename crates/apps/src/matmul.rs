//! Integer matrix multiplication compute functions.
//!
//! The paper's sandbox-creation and compute microbenchmarks run 1×1 and
//! 128×128 int64 matrix multiplications. The function reads two row-major
//! int64 matrices from its `Matrices` input set (items `a` and `b`, each
//! prefixed with a u32 dimension) and writes the product to its `Product`
//! output set.
//!
//! The function is native code and runs like it: one register-blocked loop
//! ([`multiply_encoded`]) reads the values where the request's bytes lie and
//! writes the product into the platform's output memory, compiled once per
//! vector instruction set and chosen by what the processor has — and once
//! per operand width, chosen by what the matrices hold ([`fits_i32`]).
//! [`multiply`] is the reference it is checked against.

use dandelion_common::{DataItem, DataSet, SharedBytesMut};
use dandelion_isolation::{FunctionArtifact, FunctionCtx};

/// Byte length of an encoded `dimension`×`dimension` matrix.
fn encoded_len(dimension: usize) -> usize {
    4 + dimension * dimension * 8
}

/// Serializes a square row-major matrix with a u32 dimension prefix.
pub fn encode_matrix(dimension: usize, values: &[i64]) -> Vec<u8> {
    assert_eq!(values.len(), dimension * dimension, "matrix must be square");
    let mut out = Vec::with_capacity(encoded_len(dimension));
    out.extend_from_slice(&(dimension as u32).to_le_bytes());
    for value in values {
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

/// The dimension an encoded matrix declares, once the payload is known to be
/// exactly that many values long. The header is untrusted: a dimension whose
/// byte count does not fit a `usize` is an error, not a wrapped length. Both
/// [`decode_matrix`] and the kernel's in-place reads rest on this one check.
fn checked_dimension(bytes: &[u8]) -> Result<usize, String> {
    let header = bytes.first_chunk::<4>().ok_or("matrix payload too short")?;
    let dimension = u32::from_le_bytes(*header) as usize;
    let expected = dimension
        .checked_mul(dimension)
        .and_then(|values| values.checked_mul(8))
        .and_then(|value_bytes| value_bytes.checked_add(4))
        .ok_or_else(|| format!("matrix dimension {dimension} is too large"))?;
    if bytes.len() != expected {
        return Err(format!(
            "matrix payload has {} bytes, expected {expected}",
            bytes.len()
        ));
    }
    Ok(dimension)
}

/// Parses a matrix encoded by [`encode_matrix`].
pub fn decode_matrix(bytes: &[u8]) -> Result<(usize, Vec<i64>), String> {
    let dimension = checked_dimension(bytes)?;
    let values = bytes[4..]
        .chunks_exact(8)
        .map(|chunk| i64::from_le_bytes(chunk.try_into().expect("chunk of 8 bytes")))
        .collect();
    Ok((dimension, values))
}

/// Multiplies two square row-major matrices: the plain triple loop, kept as
/// it is because it is the reference — the benchmark's generator and the
/// tests check every product of [`matmul_artifact`] against it.
pub fn multiply(dimension: usize, a: &[i64], b: &[i64]) -> Vec<i64> {
    let mut product = vec![0i64; dimension * dimension];
    for row in 0..dimension {
        for k in 0..dimension {
            let a_value = a[row * dimension + k];
            for column in 0..dimension {
                product[row * dimension + column] = product[row * dimension + column]
                    .wrapping_add(a_value.wrapping_mul(b[k * dimension + column]));
            }
        }
    }
    product
}

/// The tile of the product the kernel holds in locals across its `k` loop.
/// 4 × 16 sums are eight 512-bit or sixteen 256-bit registers, and a loaded
/// stretch of a row of `b` serves four rows of `a`.
const TILE_ROWS: usize = 4;
const TILE_COLUMNS: usize = 16;

/// The `index`-th little-endian value of `bytes`, wherever they lie: the
/// matrices start at byte 4 of a slice of the request body.
#[inline(always)]
fn value_at(bytes: &[u8], index: usize) -> i64 {
    let value = bytes[index * 8..].first_chunk().expect("a whole value");
    i64::from_le_bytes(*value)
}

/// Whether every value of an encoded payload (the bytes after the header)
/// survives the round trip through `i32`. Within a block the pass has no
/// early exit, which is what lets the compiler vectorise it for the caller's
/// instruction set; between blocks it has one, so a matrix of 64-bit values
/// is known for one after its first block. The socket read has just left
/// the bytes in cache. No values at all fit.
#[inline(always)]
fn fits_i32(values: &[u8]) -> bool {
    values.chunks(4096).all(|block| {
        let wide = block
            .chunks_exact(8)
            .map(|value| i64::from_le_bytes(value.try_into().expect("chunk of 8 bytes")))
            .fold(false, |wide, value| wide | (value != value as i32 as i64));
        !wide
    })
}

/// Computes the `rows` × `columns` tile of the product at `column` of the
/// row panel `a_panel` and stores it, encoded, at its place in `panel`.
///
/// `NARROW` is the caller's word that every value of both matrices passed
/// [`fits_i32`]: the products are then taken from the low halves, which is
/// the one-µop signed 32×32→64 lane multiply every vector ISA has
/// (`pmuldq`), where a 64×64 one costs three µops on AVX-512DQ and three
/// multiplies on AVX2. An `i32`×`i32` product fits an `i64`, so it is the
/// same product; the sums wrap as they do in [`multiply`].
#[inline(always)]
fn multiply_tile<const NARROW: bool>(
    a_panel: &[u8],
    b: &[u8],
    row_bytes: usize,
    column: usize,
    (rows, columns): (usize, usize),
    panel: &mut [u8],
) {
    let mut sums = [[0i64; TILE_COLUMNS]; TILE_ROWS];
    for (k, b_row) in b.chunks_exact(row_bytes).enumerate() {
        let b_row = &b_row[column * 8..][..columns * 8];
        let mut b_values = [0i64; TILE_COLUMNS];
        for (index, value) in b_values[..columns].iter_mut().enumerate() {
            *value = value_at(b_row, index);
        }
        for (row, sums) in sums[..rows].iter_mut().enumerate() {
            let a_value = value_at(&a_panel[row * row_bytes..][..row_bytes], k);
            for (sum, b_value) in sums[..columns].iter_mut().zip(&b_values[..columns]) {
                let product = if NARROW {
                    (a_value as i32 as i64).wrapping_mul(*b_value as i32 as i64)
                } else {
                    a_value.wrapping_mul(*b_value)
                };
                *sum = sum.wrapping_add(product);
            }
        }
    }
    for (row, sums) in sums[..rows].iter().enumerate() {
        let encoded = &mut panel[row * row_bytes + column * 8..][..columns * 8];
        for (sum, bytes) in sums[..columns].iter().zip(encoded.chunks_exact_mut(8)) {
            bytes.copy_from_slice(&sum.to_le_bytes());
        }
    }
}

/// Appends the encoded product of two `dimension`×`dimension` matrices to
/// `out`, reading the values of `a` and `b` (the payloads after their
/// headers, lengths checked by [`checked_dimension`]) where they lie. The
/// product leaves in panels of [`TILE_ROWS`] finished rows, the only memory
/// this asks for besides `out`. `NARROW` is [`multiply_tile`]'s.
#[inline(always)]
fn multiply_encoded<const NARROW: bool>(
    dimension: usize,
    a: &[u8],
    b: &[u8],
    out: &mut SharedBytesMut,
) {
    out.put_u32_le(dimension as u32);
    if dimension == 0 {
        return;
    }
    let row_bytes = dimension * 8;
    let mut panel = vec![0u8; TILE_ROWS.min(dimension) * row_bytes];
    for a_panel in a.chunks(TILE_ROWS * row_bytes) {
        let rows = a_panel.len() / row_bytes;
        for column in (0..dimension).step_by(TILE_COLUMNS) {
            let columns = TILE_COLUMNS.min(dimension - column);
            // Two calls of one inlined body: where the tile's shape is a
            // constant its loops unroll and the sums stay in vector registers
            // for the whole `k` loop; a partial tile at an edge runs the same
            // loops as they are written.
            if (rows, columns) == (TILE_ROWS, TILE_COLUMNS) {
                let full = (TILE_ROWS, TILE_COLUMNS);
                multiply_tile::<NARROW>(a_panel, b, row_bytes, column, full, &mut panel);
            } else {
                let partial = (rows, columns);
                multiply_tile::<NARROW>(a_panel, b, row_bytes, column, partial, &mut panel);
            }
        }
        out.put_slice(&panel[..a_panel.len()]);
    }
}

/// [`multiply_encoded`] at the width the operands have: a multiply is as
/// wide as its operands, and one value of either matrix that needs more
/// than 32 bits makes it the 64-bit one.
///
/// `#[inline(always)]`, so that each caller compiles the check and both
/// loops for its own instruction set: the body is written once and is all
/// safe code.
#[inline(always)]
fn multiply_at_operand_width(dimension: usize, a: &[u8], b: &[u8], out: &mut SharedBytesMut) {
    if fits_i32(a) && fits_i32(b) {
        multiply_encoded::<true>(dimension, a, b, out);
    } else {
        multiply_encoded::<false>(dimension, a, b, out);
    }
}

/// The instruction sets [`multiply_at_operand_width`] is compiled for,
/// widest first. Baseline x86-64 has no 64-bit vector multiply (AVX2 builds
/// one from three 32-bit ones, AVX-512DQ has `vpmullq`), so the 64-bit loops
/// run at about 1 : 1.5 : 3; the 32-bit ones are one `pmuldq` per vector
/// from SSE4.1 on.
#[derive(Debug, Clone, Copy)]
enum Isa {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Baseline,
}

impl Isa {
    const WIDEST_FIRST: &[Isa] = &[
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        Isa::Baseline,
    ];

    /// Runs [`multiply_at_operand_width`] as compiled for this instruction
    /// set and returns `true`, or returns `false` with nothing written when
    /// the processor lacks it (std caches what it detected).
    fn multiply_encoded(
        self,
        dimension: usize,
        a: &[u8],
        b: &[u8],
        out: &mut SharedBytesMut,
    ) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                if !(is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl"))
                {
                    return false;
                }
                // SAFETY: the three features the callee enables were detected
                // on this processor just above.
                unsafe { multiply_encoded_avx512(dimension, a, b, out) }
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                if !is_x86_feature_detected!("avx2") {
                    return false;
                }
                // SAFETY: the feature the callee enables was detected on this
                // processor just above.
                unsafe { multiply_encoded_avx2(dimension, a, b, out) }
            }
            Isa::Baseline => multiply_at_operand_width(dimension, a, b, out),
        }
        true
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn multiply_encoded_avx512(dimension: usize, a: &[u8], b: &[u8], out: &mut SharedBytesMut) {
    multiply_at_operand_width(dimension, a, b, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn multiply_encoded_avx2(dimension: usize, a: &[u8], b: &[u8], out: &mut SharedBytesMut) {
    multiply_at_operand_width(dimension, a, b, out);
}

/// Creates the matmul compute-function artifact.
///
/// Input set `Matrices` must contain items named `a` and `b`; output set
/// `Product` receives one item `product`. The product is computed from the
/// items' bytes into the platform's output memory by the widest
/// instantiation of the kernel this processor runs.
pub fn matmul_artifact() -> FunctionArtifact {
    FunctionArtifact::new("MatMul", &["Product"], |ctx: &mut FunctionCtx| {
        let matrices = ctx
            .input_set("Matrices")
            .ok_or("missing input set `Matrices`")?;
        let find = |name: &str| {
            matrices
                .items
                .iter()
                .find(|item| item.name == name)
                .map(|item| item.data.as_slice())
                .ok_or_else(|| format!("missing matrix `{name}`"))
        };
        let (a, b) = (find("a")?, find("b")?);
        let (dimension, dimension_b) = (checked_dimension(a)?, checked_dimension(b)?);
        if dimension != dimension_b {
            return Err(format!("dimension mismatch: {dimension} vs {dimension_b}").into());
        }
        let mut product = ctx.output_buffer(encoded_len(dimension));
        let ran = Isa::WIDEST_FIRST
            .iter()
            .any(|isa| isa.multiply_encoded(dimension, &a[4..], &b[4..], &mut product));
        assert!(ran, "the baseline runs everywhere");
        ctx.push_output_bytes("Product", "product", product)
    })
    .with_binary_size(48 * 1024)
    .with_memory_requirement(8 * 1024 * 1024)
}

/// The `Matrices` input set of two encoded matrices.
fn matrices(a: Vec<u8>, b: Vec<u8>) -> DataSet {
    DataSet::with_items(
        "Matrices",
        vec![DataItem::new("a", a), DataItem::new("b", b)],
    )
}

/// Builds the `Matrices` input set for an n×n identity × constant workload.
pub fn matmul_inputs(dimension: usize, seed: i64) -> DataSet {
    let mut a = vec![0i64; dimension * dimension];
    let mut b = vec![0i64; dimension * dimension];
    for index in 0..dimension {
        a[index * dimension + index] = 1;
    }
    for (index, value) in b.iter_mut().enumerate() {
        *value = seed.wrapping_add(index as i64);
    }
    matrices(encode_matrix(dimension, &a), encode_matrix(dimension, &b))
}

/// The single-node matmul composition used by benchmarks and examples.
pub fn matmul_composition() -> dandelion_dsl::CompositionGraph {
    dandelion_dsl::CompositionBuilder::new("MatMulApp")
        .input("Matrices")
        .output("Product")
        .node("MatMul", |node| {
            node.bind("Matrices", dandelion_dsl::Distribution::All, "Matrices")
                .publish("Product", "Product")
        })
        .build()
        .expect("static matmul composition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_common::rng::SplitMix64;
    use dandelion_isolation::abi::FunctionError;
    use dandelion_isolation::{ExecutionTask, SyscallPolicy};
    use std::sync::Arc;

    /// A seeded `dimension`×`dimension` matrix with the values that overflow
    /// mixed in: the product wraps, in the kernel as in the reference.
    fn seeded_matrix(rng: &mut SplitMix64, dimension: usize) -> Vec<i64> {
        (0..dimension * dimension)
            .map(|_| match rng.next_bounded(8) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => -1,
                _ => rng.next_u64() as i64,
            })
            .collect()
    }

    /// Runs the artifact's logic over two encoded matrices, outside a
    /// backend: a panic is the test's, not a fault the backend reports.
    fn run_artifact(a: Vec<u8>, b: Vec<u8>) -> Result<Vec<DataSet>, FunctionError> {
        let artifact = matmul_artifact();
        let mut ctx = FunctionCtx::new(
            vec![matrices(a, b)],
            artifact.output_sets.clone(),
            artifact.memory_requirement,
            SyscallPolicy::permissive(),
        )?;
        artifact.logic.run(&mut ctx)?;
        Ok(ctx.take_outputs())
    }

    #[test]
    fn matrix_encoding_roundtrip() {
        let values = vec![1, 2, 3, 4];
        let encoded = encode_matrix(2, &values);
        let (dimension, decoded) = decode_matrix(&encoded).unwrap();
        assert_eq!(dimension, 2);
        assert_eq!(decoded, values);
        assert!(decode_matrix(&encoded[..7]).is_err());
        assert!(decode_matrix(&[0, 0, 0, 1]).is_err());
        let values: Vec<i64> = (0..23 * 23).map(|value| value * -7).collect();
        let encoded = encode_matrix(23, &values);
        assert_eq!(encoded.len(), encoded_len(23));
        assert_eq!(decode_matrix(&encoded).unwrap(), (23, values));
        // A header whose byte count wraps a `usize` (2³¹ squared times 8 is
        // 2⁶⁵) is an error, not a matrix with no values.
        assert!(decode_matrix(&[0, 0, 0, 0x80]).is_err());
        assert!(decode_matrix(&[0xff; 4]).is_err());
        assert_eq!(decode_matrix(&[0; 4]).unwrap(), (0, vec![]));
    }

    #[test]
    fn multiply_identity_preserves_matrix() {
        let dimension = 8;
        let mut identity = vec![0i64; dimension * dimension];
        for index in 0..dimension {
            identity[index * dimension + index] = 1;
        }
        let values: Vec<i64> = (0..(dimension * dimension) as i64).collect();
        assert_eq!(multiply(dimension, &identity, &values), values);
    }

    #[test]
    fn multiply_small_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let product = multiply(2, &[1, 2, 3, 4], &[5, 6, 7, 8]);
        assert_eq!(product, vec![19, 22, 43, 50]);
    }

    /// A seeded matrix of values that all fit `i32`, its extremes mixed in:
    /// `i32::MIN` squared is the largest product the narrow multiply forms.
    fn seeded_narrow_matrix(rng: &mut SplitMix64, dimension: usize) -> Vec<i64> {
        (0..dimension * dimension)
            .map(|_| match rng.next_bounded(8) {
                0 => i64::from(i32::MIN),
                1 => i64::from(i32::MAX),
                2 => -1,
                3 => 0,
                _ => i64::from(rng.next_u64() as i32),
            })
            .collect()
    }

    /// The payload of `values`: what follows the header of an encoded matrix.
    fn payload(values: &[i64]) -> Vec<u8> {
        values
            .iter()
            .flat_map(|value| value.to_le_bytes())
            .collect()
    }

    #[test]
    fn a_payload_is_narrow_when_every_value_round_trips_through_i32() {
        assert!(fits_i32(&[]), "no values at all fit");
        let extremes = [i64::from(i32::MIN), i64::from(i32::MAX), -1, 0];
        assert!(fits_i32(&payload(&extremes)));
        // 583 values are one whole block of the pass and 71 of the next:
        // whatever vector width it was compiled with here, that is some
        // unrolled steps, a remainder and a scalar tail. A single value past
        // either end of `i32` — or with a low half that would pass for a
        // sign extension — is seen at each position of it.
        let narrow: Vec<i64> = (0..583).map(|index| extremes[index % 4]).collect();
        assert!(fits_i32(&payload(&narrow)));
        for wide in [
            i64::from(i32::MAX) + 1,
            i64::from(i32::MIN) - 1,
            i64::MAX,
            i64::MIN,
            1 << 32,
            i64::from(u32::MAX),
        ] {
            assert!(!fits_i32(&payload(&[wide])), "{wide} alone");
            for position in 0..narrow.len() {
                let mut values = narrow.clone();
                values[position] = wide;
                assert!(!fits_i32(&payload(&values)), "{wide} at {position}");
            }
        }
    }

    /// Every dimension around the tile's edges (no full tile, exactly one,
    /// one and a partial one in each direction, the benchmark's 128) on every
    /// instantiation this processor runs, at both operand widths, with both
    /// matrices at odd addresses: the bytes are those of the reference loop's
    /// product. The pairs are full-range ones, narrow ones with the extremes
    /// of `i32`, and those narrow ones with exactly one value just past
    /// either extreme — first, middle or last, in `a` only or in `b` only —
    /// which must take the 64-bit multiply.
    #[test]
    fn every_instantiation_multiplies_like_the_reference_loop() {
        struct Pair {
            what: String,
            dimension: usize,
            a: Vec<i64>,
            b: Vec<i64>,
            narrow: bool,
            expected: Vec<u8>,
        }
        let mut pairs = Vec::new();
        let mut pair = |what: String, dimension: usize, a: &[i64], b: &[i64], narrow: bool| {
            let expected = encode_matrix(dimension, &multiply(dimension, a, b));
            let (a, b) = (a.to_vec(), b.to_vec());
            pairs.push(Pair {
                what,
                dimension,
                a,
                b,
                narrow,
                expected,
            });
        };
        let mut full_range = SplitMix64::new(22);
        let mut narrow = SplitMix64::new(23);
        for dimension in [0, 1, 2, 3, 4, 5, 15, 16, 17, 23, 64, 127, 128] {
            let a = seeded_matrix(&mut full_range, dimension);
            let b = seeded_matrix(&mut full_range, dimension);
            let fits = |value: &i64| i32::try_from(*value).is_ok();
            pair(
                "full range".into(),
                dimension,
                &a,
                &b,
                a.iter().chain(&b).all(fits),
            );
            let a = seeded_narrow_matrix(&mut narrow, dimension);
            let b = seeded_narrow_matrix(&mut narrow, dimension);
            pair("narrow".into(), dimension, &a, &b, true);
            let Some(last) = (dimension * dimension).checked_sub(1) else {
                continue;
            };
            let past_the_ends = [i64::from(i32::MAX) + 1, i64::from(i32::MIN) - 1];
            for (case, position) in [0, last / 2, last].into_iter().enumerate() {
                let (mut wide_a, mut wide_b) = (a.clone(), b.clone());
                wide_a[position] = past_the_ends[case % 2];
                wide_b[position] = past_the_ends[(case + 1) % 2];
                pair(
                    format!("wide at {position} of a"),
                    dimension,
                    &wide_a,
                    &b,
                    false,
                );
                pair(
                    format!("wide at {position} of b"),
                    dimension,
                    &a,
                    &wide_b,
                    false,
                );
            }
        }
        for &isa in Isa::WIDEST_FIRST {
            for pair in &pairs {
                let (what, dimension, expected) = (&pair.what, pair.dimension, &pair.expected);
                // A vector is 8-aligned or better; the payloads start at
                // bytes 1 and 7 + 8n² of it, their values 4 further on.
                let mut buffer = vec![0xaa];
                buffer.extend(encode_matrix(dimension, &pair.a));
                buffer.extend([0xaa; 2]);
                buffer.extend(encode_matrix(dimension, &pair.b));
                let (encoded_a, encoded_b) = buffer[1..].split_at(expected.len());
                let encoded_b = &encoded_b[2..];
                assert_eq!(checked_dimension(encoded_a), Ok(dimension));
                assert_eq!(checked_dimension(encoded_b), Ok(dimension));
                let (a, b) = (&encoded_a[4..], &encoded_b[4..]);
                assert_eq!(
                    fits_i32(a) && fits_i32(b),
                    pair.narrow,
                    "the width for {what}, dimension {dimension}"
                );
                let mut product = SharedBytesMut::with_capacity(expected.len());
                if !isa.multiply_encoded(dimension, a, b, &mut product) {
                    println!("skipped {isa:?}: this processor does not have it");
                    break;
                }
                assert_eq!(
                    product.as_slice(),
                    expected,
                    "{isa:?}, {what}, dimension {dimension}"
                );
            }
        }
    }

    #[test]
    fn artifact_executes_through_a_backend() {
        use dandelion_isolation::HardwarePlatform;
        let backend = dandelion_isolation::create_backend(
            dandelion_common::config::IsolationKind::Cheri,
            HardwarePlatform::Morello,
        );
        let artifact = Arc::new(matmul_artifact());
        let task = ExecutionTask::new(Arc::clone(&artifact), vec![matmul_inputs(16, 3)]);
        let report = backend.execute(&task).unwrap();
        let (dimension, product) = decode_matrix(&report.outputs[0].items[0].data).unwrap();
        assert_eq!(dimension, 16);
        // Identity × B = B.
        let (_, expected) = decode_matrix(&matmul_inputs(16, 3).items[1].data).unwrap();
        assert_eq!(product, expected);
        // The benchmark's size, neither factor the identity.
        let mut rng = SplitMix64::new(128);
        let (a, b) = (seeded_matrix(&mut rng, 128), seeded_matrix(&mut rng, 128));
        let inputs = matrices(encode_matrix(128, &a), encode_matrix(128, &b));
        let report = backend
            .execute(&ExecutionTask::new(artifact, vec![inputs]))
            .unwrap();
        assert_eq!(
            decode_matrix(&report.outputs[0].items[0].data).unwrap(),
            (128, multiply(128, &a, &b))
        );
    }

    #[test]
    fn artifact_rejects_malformed_inputs() {
        use dandelion_isolation::HardwarePlatform;
        let backend = dandelion_isolation::create_backend(
            dandelion_common::config::IsolationKind::Native,
            HardwarePlatform::Morello,
        );
        let artifact = std::sync::Arc::new(matmul_artifact());
        let task = ExecutionTask::new(
            artifact,
            vec![DataSet::with_items(
                "Matrices",
                vec![DataItem::new("a", vec![1, 2, 3])],
            )],
        );
        assert!(backend.execute(&task).is_err());

        // Each of these is the function's own error, not a panic: a header
        // that wraps the length computation, a header past any payload, a
        // truncated body, trailing bytes, and two sound matrices that do not
        // go together.
        let sound = |dimension: usize| encode_matrix(dimension, &vec![7; dimension * dimension]);
        let truncated = sound(3)[..4 + 8 * 8].to_vec();
        let trailing = [sound(3), vec![0]].concat();
        for (case, a, b) in [
            ("wrapping header", vec![0, 0, 0, 0x80], vec![0, 0, 0, 0x80]),
            ("largest header", vec![0xff; 4], vec![0xff; 4]),
            ("truncated body", sound(3), truncated),
            ("trailing bytes", trailing, sound(3)),
            ("mismatched dimensions", sound(2), sound(3)),
        ] {
            let result = run_artifact(a, b);
            assert!(result.is_err(), "{case}: {result:?}");
        }
        // No values at all is a matrix: 4-byte items, a 4-byte product.
        let outputs = run_artifact(vec![0; 4], vec![0; 4]).expect("0×0 multiplies");
        assert_eq!(outputs[0].items[0].data.as_slice(), [0; 4]);
    }
}
