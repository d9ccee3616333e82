//! Integer matrix multiplication compute functions.
//!
//! The paper's sandbox-creation and compute microbenchmarks run 1×1 and
//! 128×128 int64 matrix multiplications. The function reads two row-major
//! int64 matrices from its `Matrices` input set (items `a` and `b`, each
//! prefixed with a u32 dimension) and writes the product to its `Product`
//! output set.
//!
//! The function is native code and runs like it: register-blocked loops
//! read the values where the request's bytes lie and write the product into
//! the platform's output memory, compiled once per vector instruction set
//! and chosen by what the processor has. A sum is as wide as its bound, so
//! one pass over each matrix ([`Range::of`]) also chooses the operand width
//! ([`OperandWidth`]): 16-bit operands into 32-bit sums when the matrices'
//! ranges prove every sum fits ([`multiply_short`], on AVX-512's 16-bit
//! lanes; it packs both matrices first), 32-bit operands into 64-bit sums
//! when every value fits `i32` ([`multiply_encoded`]), and the 64-bit
//! multiply otherwise. Every multiply takes its working memory — the row
//! panel the product leaves in, the short one's packed operands too — from
//! the global pool ([`scratch`]). [`multiply`] is the reference every one of
//! them is checked against.

use dandelion_common::pool::{BufferPool, PooledBuf};
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

/// `bytes` zeroed bytes of the global pool: a multiply's working memory, which
/// goes back to the pool when the buffer is dropped.
fn scratch(bytes: usize) -> PooledBuf<'static> {
    let mut buffer = BufferPool::global().acquire(bytes);
    buffer.resize(bytes, 0);
    buffer
}

/// The `index`-th little-endian value of `bytes`, wherever they lie: the
/// matrices start at byte 4 of a slice of the request body.
#[inline(always)]
fn value_at(bytes: &[u8], index: usize) -> i64 {
    let value = bytes[index * 8..].first_chunk().expect("a whole value");
    i64::from_le_bytes(*value)
}

/// The least and the greatest value of an encoded payload (the bytes after
/// the header), 0 included: 0 widens no multiply, and no values at all are
/// the range `0..=0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Range {
    min: i64,
    max: i64,
}

impl Range {
    /// One pass over `values`. Within a block it has no early exit, which is
    /// what lets the compiler vectorise it for the caller's instruction set
    /// (`vpminsq` and `vpmaxsq` on AVX-512); between blocks it has one: a
    /// range past `i32` makes the multiply the 64-bit one whatever else the
    /// payload holds, so a matrix of 64-bit values is known for one after
    /// its first block, and the range returned is that of the blocks read.
    /// The socket read has just left the bytes in cache.
    #[inline(always)]
    fn of(values: &[u8]) -> Range {
        let mut range = Range { min: 0, max: 0 };
        for block in values.chunks(4096) {
            let (min, max) = block
                .as_chunks::<8>()
                .0
                .iter()
                .map(|value| i64::from_le_bytes(*value))
                .fold((range.min, range.max), |(min, max), value| {
                    (min.min(value), max.max(value))
                });
            range = Range { min, max };
            if !range.fits::<i32>() {
                break;
            }
        }
        range
    }

    /// Whether every value of the range is a `T`.
    fn fits<T: TryFrom<i64>>(self) -> bool {
        T::try_from(self.min).is_ok() && T::try_from(self.max).is_ok()
    }

    /// The largest absolute value of the range.
    fn magnitude(self) -> u64 {
        self.min.unsigned_abs().max(self.max.unsigned_abs())
    }
}

/// How wide the operands of a product of two matrices need to be, and so
/// which multiply forms it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OperandWidth {
    /// Every value is an `i16` and no sum can leave `i32`: `dimension`
    /// (rounded up to the pairs the short multiply takes) times the largest
    /// magnitude of each matrix is at most `i32::MAX`. An `i16` × `i16`
    /// product is exact in `i32`, and a sum wrapped mod 2³² is the true one
    /// whenever the true one fits, so 32-bit sums widened to `i64` are the
    /// bytes [`multiply`] writes.
    Short,
    /// Every value is an `i32`: a product of two fits an `i64`.
    Narrow,
    /// Anything else: the 64-bit multiply, wrapping as [`multiply`] does.
    Wide,
}

impl OperandWidth {
    /// The width a product of two `dimension`×`dimension` matrices with
    /// these ranges needs. The dimension is the untrusted header's, so the
    /// bound is computed in checked arithmetic: one that overflows a `u64`
    /// is far past `i32`.
    fn of(dimension: usize, a: Range, b: Range) -> OperandWidth {
        let sum_bound = (dimension as u64)
            .checked_next_multiple_of(2)
            .and_then(|terms| terms.checked_mul(a.magnitude()))
            .and_then(|bound| bound.checked_mul(b.magnitude()));
        let sums_fit = sum_bound.is_some_and(|bound| bound <= i32::MAX as u64);
        if a.fits::<i16>() && b.fits::<i16>() && sums_fit {
            OperandWidth::Short
        } else if a.fits::<i32>() && b.fits::<i32>() {
            OperandWidth::Narrow
        } else {
            OperandWidth::Wide
        }
    }
}

/// Computes the `rows` × `columns` tile of the product at `column` of the
/// row panel `a_panel` and stores it, encoded, at its place in `panel`.
///
/// `NARROW` is the caller's word that every value of both matrices is an
/// `i32` ([`OperandWidth`]): the products are then taken from the low
/// halves, which is the one-µop signed 32×32→64 lane multiply every vector
/// ISA has
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
/// this takes besides `out`. `NARROW` is [`multiply_tile`]'s.
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
    let mut panel = scratch(TILE_ROWS.min(dimension) * row_bytes);
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

/// The short multiply's tile: 8 rows × 32 columns of the product, sixteen
/// 512-bit registers of 32-bit sums. A loaded k pair of a tile of `b`
/// serves eight rows of `a`, and a broadcast pair of values of `a` two
/// registers.
#[cfg(target_arch = "x86_64")]
const SHORT_TILE_ROWS: usize = 8;
const SHORT_TILE_COLUMNS: usize = 32;

/// [`multiply_encoded`] at the width the operands need ([`OperandWidth`]).
/// `short` is the caller's multiply for [`OperandWidth::Short`]: the
/// instantiation with AVX-512's 16-bit lanes passes [`multiply_short`], the
/// others the 32-bit loop. A product narrower than one tile of the short
/// multiply takes the 32-bit loop too: a 1×1 one would be all packing.
///
/// `#[inline(always)]`, so that each caller compiles the range pass and
/// both loops for its own instruction set: the body is written once and is
/// all safe code.
#[inline(always)]
fn multiply_at_operand_width(
    dimension: usize,
    a: &[u8],
    b: &[u8],
    out: &mut SharedBytesMut,
    short: impl FnOnce(usize, &[u8], &[u8], &mut SharedBytesMut),
) {
    match OperandWidth::of(dimension, Range::of(a), Range::of(b)) {
        OperandWidth::Short if dimension >= SHORT_TILE_COLUMNS => short(dimension, a, b, out),
        OperandWidth::Short | OperandWidth::Narrow => {
            multiply_encoded::<true>(dimension, a, b, out)
        }
        OperandWidth::Wide => multiply_encoded::<false>(dimension, a, b, out),
    }
}

/// The product of two `dimension`×`dimension` matrices, at least one tile
/// wide, whose operands and sums are [`OperandWidth::Short`], appended to
/// `out` as [`multiply_encoded`] appends it: `vpmaddwd` multiplies sixteen
/// pairs of `i16` by sixteen pairs and adds each pair into an `i32` lane —
/// 32 multiply-adds an instruction, where the 32-bit loop's `vpmuldq` +
/// `vpaddq` do 8.
///
/// Both matrices are first packed as `i16` pairs ([`pair_lane`]) into one
/// [`scratch`] buffer, in the order the tiles read them: `a` panel
/// by panel of eight rows, each a run of k pairs of the eight rows' pairs
/// `(a[i][2p], a[i][2p + 1])`; `b` tile by tile of 32 columns, each a run of
/// k pairs of the 32 columns' pairs `(b[2p][j], b[2p + 1][j])`. An odd
/// dimension's last pair and the rows and columns past the last whole tile
/// are zeros, so every tile is computed whole and stored in part. The rest
/// of the buffer is the row panel the product leaves in.
///
/// Its intrinsics are safe to call but for the loads and stores, which go
/// through [`load`] and [`store`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn multiply_short(dimension: usize, a: &[u8], b: &[u8], out: &mut SharedBytesMut) {
    use std::arch::x86_64::*;
    let pairs = dimension.div_ceil(2);
    let row_bytes = dimension * 8;
    let a_panel_bytes = pairs * SHORT_TILE_ROWS * 4;
    let a_bytes = dimension.div_ceil(SHORT_TILE_ROWS) * a_panel_bytes;
    let b_tile_bytes = pairs * SHORT_TILE_COLUMNS * 4;
    let b_bytes = dimension.div_ceil(SHORT_TILE_COLUMNS) * b_tile_bytes;
    let mut buffer = scratch(a_bytes + b_bytes + SHORT_TILE_ROWS * row_bytes);
    let (packed_a, rest) = buffer.split_at_mut(a_bytes);
    let (packed_b, panel) = rest.split_at_mut(b_bytes);

    let a_panels = packed_a.chunks_exact_mut(a_panel_bytes);
    for (a_panel, rows) in a_panels.zip(a.chunks(SHORT_TILE_ROWS * row_bytes)) {
        let a_panel = a_panel.as_chunks_mut::<{ SHORT_TILE_ROWS * 4 }>().0;
        for (pair, lanes) in a_panel.iter_mut().enumerate() {
            let lanes = lanes.as_chunks_mut::<4>().0;
            for (lane, row) in lanes.iter_mut().zip(rows.chunks_exact(row_bytes)) {
                let odd = (2 * pair + 1 < dimension).then(|| value_at(row, 2 * pair + 1));
                *lane = pair_lane(value_at(row, 2 * pair), odd.unwrap_or(0));
            }
        }
    }
    for (pair, rows) in b.chunks(2 * row_bytes).enumerate() {
        let (even, odd) = rows.split_at(row_bytes);
        let b_tiles = packed_b.chunks_exact_mut(b_tile_bytes);
        for (column, b_tile) in (0..dimension).step_by(SHORT_TILE_COLUMNS).zip(b_tiles) {
            let lanes = b_tile.as_chunks_mut::<{ SHORT_TILE_COLUMNS * 4 }>().0[pair]
                .as_chunks_mut::<4>()
                .0
                .iter_mut()
                .zip(even[column * 8..].as_chunks::<8>().0);
            if odd.is_empty() {
                lanes.for_each(|(lane, even)| *lane = pair_lane(i64::from_le_bytes(*even), 0));
            } else {
                for ((lane, even), odd) in lanes.zip(odd[column * 8..].as_chunks::<8>().0) {
                    *lane = pair_lane(i64::from_le_bytes(*even), i64::from_le_bytes(*odd));
                }
            }
        }
    }

    out.put_u32_le(dimension as u32);
    let a_panels = packed_a.chunks_exact(a_panel_bytes);
    for (first_row, a_panel) in (0..dimension).step_by(SHORT_TILE_ROWS).zip(a_panels) {
        let a_panel = a_panel.as_chunks::<{ SHORT_TILE_ROWS * 4 }>().0;
        let rows = SHORT_TILE_ROWS.min(dimension - first_row);
        let b_tiles = packed_b.chunks_exact(b_tile_bytes);
        for (column, b_tile) in (0..dimension).step_by(SHORT_TILE_COLUMNS).zip(b_tiles) {
            let b_tile = b_tile.as_chunks::<{ SHORT_TILE_COLUMNS * 4 }>().0;
            let mut sums = [[_mm512_setzero_si512(); 2]; SHORT_TILE_ROWS];
            for (a_pairs, b_lanes) in a_panel.iter().zip(b_tile) {
                let b_lanes = b_lanes.as_chunks::<64>().0;
                let b_lanes: [__m512i; 2] = std::array::from_fn(|half| load(&b_lanes[half]));
                for (sums, a_pair) in sums.iter_mut().zip(a_pairs.as_chunks::<4>().0) {
                    let a_pair = _mm512_set1_epi32(i32::from_le_bytes(*a_pair));
                    for (sum, b_lanes) in sums.iter_mut().zip(b_lanes) {
                        *sum = _mm512_add_epi32(*sum, _mm512_madd_epi16(a_pair, b_lanes));
                    }
                }
            }
            let columns = SHORT_TILE_COLUMNS.min(dimension - column);
            for (row, sums) in sums[..rows].iter().enumerate() {
                let mut widened = [0; SHORT_TILE_COLUMNS * 8];
                store_widened(sums, &mut widened);
                let encoded = &mut panel[row * row_bytes + column * 8..][..columns * 8];
                encoded.copy_from_slice(&widened[..columns * 8]);
            }
        }
        out.put_slice(&panel[..rows * row_bytes]);
    }
}

/// Stores a row of a tile's 32-bit sums in `encoded` widened to `i64`: a
/// lane is then the product's value, and stored, its little-endian encoding.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn store_widened(sums: &[std::arch::x86_64::__m512i; 2], encoded: &mut [u8; 256]) {
    use std::arch::x86_64::*;
    let encoded = encoded.as_chunks_mut::<64>().0;
    for (sums, encoded) in sums.iter().zip(encoded.chunks_exact_mut(2)) {
        let (low, high) = (
            _mm512_castsi512_si256(*sums),
            _mm512_extracti64x4_epi64::<1>(*sums),
        );
        store(&mut encoded[0], _mm512_cvtepi32_epi64(low));
        store(&mut encoded[1], _mm512_cvtepi32_epi64(high));
    }
}

/// A lane of the short multiply's packed operands: the values `even` and
/// `odd` (which fit `i16`) as two little-endian `i16`, `even` first — the
/// pair `vpmaddwd` multiplies by the other operand's pair.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn pair_lane(even: i64, odd: i64) -> [u8; 4] {
    (even as u16 as u32 | ((odd as u32) << 16)).to_le_bytes()
}

/// Loads 64 bytes, wherever they lie, into a vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn load(bytes: &[u8; 64]) -> std::arch::x86_64::__m512i {
    // SAFETY: the load reads the 64 bytes of `bytes` and nothing else; it
    // has no alignment requirement.
    unsafe { std::arch::x86_64::_mm512_loadu_si512(bytes.as_ptr().cast()) }
}

/// Stores a vector in 64 bytes, wherever they lie.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn store(bytes: &mut [u8; 64], value: std::arch::x86_64::__m512i) {
    // SAFETY: the store writes the 64 bytes of `bytes`, borrowed mutably,
    // and nothing else; it has no alignment requirement.
    unsafe { std::arch::x86_64::_mm512_storeu_si512(bytes.as_mut_ptr().cast(), value) }
}

/// The instruction sets [`multiply_at_operand_width`] is compiled for,
/// widest first. Baseline x86-64 has no 64-bit vector multiply (AVX2 builds
/// one from three 32-bit ones, AVX-512DQ has `vpmullq`), so the 64-bit loops
/// run at about 1 : 1.5 : 3; the 32-bit ones are one `pmuldq` per vector
/// from SSE4.1 on. The short multiply takes AVX-512BW's 16-bit lanes.
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
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx512bw"))
                {
                    return false;
                }
                // SAFETY: the four features the callee enables were detected
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
            Isa::Baseline => {
                multiply_at_operand_width(dimension, a, b, out, multiply_encoded::<true>)
            }
        }
        true
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]
fn multiply_encoded_avx512(dimension: usize, a: &[u8], b: &[u8], out: &mut SharedBytesMut) {
    multiply_at_operand_width(dimension, a, b, out, |dimension, a, b, out| {
        multiply_short(dimension, a, b, out)
    });
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn multiply_encoded_avx2(dimension: usize, a: &[u8], b: &[u8], out: &mut SharedBytesMut) {
    multiply_at_operand_width(dimension, a, b, out, multiply_encoded::<true>);
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

    /// A seeded matrix of values that all fit `i16`, its extremes mixed in:
    /// two values of `i16::MIN` squared are a sum past `i32`, so from
    /// dimension 2 on the bound fails and the multiply is the narrow one.
    fn seeded_i16_matrix(rng: &mut SplitMix64, dimension: usize) -> Vec<i64> {
        (0..dimension * dimension)
            .map(|_| match rng.next_bounded(8) {
                0 => i64::from(i16::MIN),
                1 => i64::from(i16::MAX),
                2 => -1,
                3 => 0,
                _ => i64::from(rng.next_u64() as i16),
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

    /// A seeded matrix of values in `-magnitude..=magnitude`: the
    /// benchmark's are in ±1 000.
    fn seeded_short_matrix(rng: &mut SplitMix64, dimension: usize, magnitude: i64) -> Vec<i64> {
        (0..dimension * dimension)
            .map(|_| rng.next_bounded(2 * magnitude as u64 + 1) as i64 - magnitude)
            .collect()
    }

    /// [`OperandWidth::of`] as its rule reads, in `i128` and over every
    /// value: what the range pass and the checked bound must agree with.
    fn reference_width(dimension: usize, a: &[i64], b: &[i64]) -> OperandWidth {
        let fits = |width: u32| {
            let limit = 1i128 << (width - 1);
            a.iter()
                .chain(b)
                .all(|value| (-limit..limit).contains(&i128::from(*value)))
        };
        let magnitude = |values: &[i64]| {
            let magnitudes = values.iter().map(|value| i128::from(*value).abs());
            magnitudes.max().unwrap_or(0)
        };
        let terms = dimension.next_multiple_of(2) as i128;
        if fits(16) && terms * magnitude(a) * magnitude(b) <= i128::from(i32::MAX) {
            OperandWidth::Short
        } else if fits(32) {
            OperandWidth::Narrow
        } else {
            OperandWidth::Wide
        }
    }

    /// The width [`multiply_at_operand_width`] takes for two matrices.
    fn width_of(dimension: usize, a: &[i64], b: &[i64]) -> OperandWidth {
        OperandWidth::of(dimension, Range::of(&payload(a)), Range::of(&payload(b)))
    }

    #[test]
    fn a_payload_is_narrow_when_every_value_round_trips_through_i32() {
        use OperandWidth::{Narrow, Short, Wide};
        assert_eq!(Range::of(&[]), Range { min: 0, max: 0 }, "no values");
        assert_eq!(width_of(0, &[], &[]), Short);
        let i16_extremes = [i64::from(i16::MIN), i64::from(i16::MAX), -1, 0];
        let i32_extremes = [i64::from(i32::MIN), i64::from(i32::MAX), -1, 0];
        let range = Range::of(&payload(&i32_extremes));
        assert_eq!((range.min, range.max), (i32_extremes[0], i32_extremes[1]));
        assert_eq!(width_of(2, &i32_extremes[..1], &i32_extremes[1..2]), Narrow);
        // The bound at its edge: the sum of `dimension`, rounded up to a
        // pair, products of the two largest magnitudes. 128 × 4 095 × 4 097
        // is `i32::MAX` − 127; one unit more of either magnitude is past it.
        // An odd dimension counts its padded pair.
        for (dimension, a, b, width) in [
            (128, 4095, 4097, Short),
            (128, -4095, -4097, Short),
            (127, 4095, 4097, Short),
            (128, 4096, 4097, Narrow),
            (128, 4095, -4098, Narrow),
            (127, -4096, 4097, Narrow),
            (1, i16::MIN.into(), i16::MAX.into(), Short),
            (2, i16::MIN.into(), i16::MAX.into(), Short),
            (3, i16::MIN.into(), i16::MAX.into(), Narrow),
            (1, i16::MIN.into(), i16::MIN.into(), Narrow),
        ] {
            assert_eq!(
                width_of(dimension, &[a], &[b]),
                width,
                "{dimension}, {a}, {b}"
            );
            assert_eq!(
                width_of(dimension, &[b], &[a]),
                width,
                "{dimension}, {b}, {a}"
            );
        }
        // The header is untrusted. At the largest dimension it can declare
        // the bound is 2⁶², past `i32`; a dimension whose bound would
        // overflow a `u64`, or that has no even number above it, is not
        // short either.
        let halves = Range {
            min: -32768,
            max: 0,
        };
        assert_eq!(OperandWidth::of(u32::MAX as usize, halves, halves), Narrow);
        assert_eq!(OperandWidth::of(usize::MAX / 2, halves, halves), Narrow);
        let unit = Range { min: 0, max: 1 };
        assert_eq!(OperandWidth::of(usize::MAX, unit, unit), Narrow);
        // 583 values are one whole block of the pass and 71 of the next:
        // whatever vector width it was compiled with here, that is some
        // unrolled steps, a remainder and a scalar tail. A single value past
        // either end of `i16` or of `i32` — or with a low half that would
        // pass for a sign extension — is seen at each position of it, in
        // either matrix.
        let short: Vec<i64> = (0..583).map(|index| i16_extremes[index % 4] / 64).collect();
        let narrow: Vec<i64> = (0..583).map(|index| i32_extremes[index % 4]).collect();
        assert_eq!(width_of(1, &short, &short), Short);
        assert_eq!(width_of(1, &narrow, &narrow), Narrow);
        let past_i16 = [
            i64::from(i16::MAX) + 1,
            i64::from(i16::MIN) - 1,
            1 << 16,
            i64::from(u16::MAX),
        ];
        let past_i32 = [
            i64::from(i32::MAX) + 1,
            i64::from(i32::MIN) - 1,
            i64::MAX,
            i64::MIN,
            1 << 32,
            i64::from(u32::MAX),
        ];
        for (base, outliers, width) in [(&short, &past_i16[..], Narrow), (&narrow, &past_i32, Wide)]
        {
            for &outlier in outliers {
                assert_eq!(width_of(1, &[outlier], &[0]), width, "{outlier} alone");
                for position in 0..base.len() {
                    let mut values = base.clone();
                    values[position] = outlier;
                    assert_eq!(
                        width_of(1, &values, base),
                        width,
                        "{outlier} at {position} of a"
                    );
                    assert_eq!(
                        width_of(1, base, &values),
                        width,
                        "{outlier} at {position} of b"
                    );
                }
            }
        }
    }

    /// Every dimension around the tiles' edges (no full tile, exactly one,
    /// one and a partial one in each direction, the benchmark's 128) on
    /// every instantiation this processor runs, at all three operand widths,
    /// with both matrices at odd addresses: the bytes are those of the
    /// reference loop's product. The pairs are full-range ones; ±1 000 ones,
    /// the benchmark's, which are short; ones with the extremes of `i16`,
    /// whose bound fails, and of `i32`, which are narrow; those narrow ones
    /// with exactly one value just past either extreme — first, middle or
    /// last, in `a` only or in `b` only — which must take the 64-bit
    /// multiply; and at 127 and 128 a pair with one sum at the short
    /// multiply's largest bound and one at its negative, the same pair one
    /// unit past the bound, and a pair with one sum of exactly `i32::MAX`
    /// (prime, so no short bound reaches it).
    #[test]
    fn every_instantiation_multiplies_like_the_reference_loop() {
        struct Pair {
            what: String,
            dimension: usize,
            a: Vec<i64>,
            b: Vec<i64>,
            width: OperandWidth,
            expected: Vec<u8>,
        }
        let mut pairs = Vec::new();
        let mut pair = |what: String, dimension: usize, a: &[i64], b: &[i64], width| {
            let expected = encode_matrix(dimension, &multiply(dimension, a, b));
            let (a, b) = (a.to_vec(), b.to_vec());
            pairs.push(Pair {
                what,
                dimension,
                a,
                b,
                width,
                expected,
            });
        };
        let mut full_range = SplitMix64::new(22);
        let mut narrow = SplitMix64::new(23);
        let mut short = SplitMix64::new(24);
        for dimension in [0, 1, 2, 3, 4, 5, 15, 16, 17, 23, 31, 32, 33, 64, 127, 128] {
            let a = seeded_matrix(&mut full_range, dimension);
            let b = seeded_matrix(&mut full_range, dimension);
            let width = reference_width(dimension, &a, &b);
            pair("full range".into(), dimension, &a, &b, width);
            let a = seeded_short_matrix(&mut short, dimension, 1000);
            let b = seeded_short_matrix(&mut short, dimension, 1000);
            pair("±1 000".into(), dimension, &a, &b, OperandWidth::Short);
            let a = seeded_i16_matrix(&mut short, dimension);
            let b = seeded_i16_matrix(&mut short, dimension);
            let width = reference_width(dimension, &a, &b);
            assert!(dimension < 3 || width == OperandWidth::Narrow);
            pair("i16 extremes".into(), dimension, &a, &b, width);
            let a = seeded_narrow_matrix(&mut narrow, dimension);
            let b = seeded_narrow_matrix(&mut narrow, dimension);
            let width = reference_width(dimension, &a, &b);
            pair("narrow".into(), dimension, &a, &b, width);
            let Some(last) = (dimension * dimension).checked_sub(1) else {
                continue;
            };
            let past_the_ends = [i64::from(i32::MAX) + 1, i64::from(i32::MIN) - 1];
            for (case, position) in [0, last / 2, last].into_iter().enumerate() {
                let (mut wide_a, mut wide_b) = (a.clone(), b.clone());
                wide_a[position] = past_the_ends[case % 2];
                wide_b[position] = past_the_ends[(case + 1) % 2];
                let what = format!("wide at {position} of a");
                pair(what, dimension, &wide_a, &b, OperandWidth::Wide);
                let what = format!("wide at {position} of b");
                pair(what, dimension, &a, &wide_b, OperandWidth::Wide);
            }
        }
        for dimension in [127, 128] {
            // Row 0 of `a` times column 0 of `b` is the bound, 128 × 4 095 ×
            // 4 097 (`i32::MAX` − 127) at 128; row 1 times column 0 its
            // negative.
            let mut a = seeded_short_matrix(&mut short, dimension, 4095);
            let mut b = seeded_short_matrix(&mut short, dimension, 4097);
            a[..dimension].fill(4095);
            a[dimension..2 * dimension].fill(-4095);
            b.iter_mut()
                .step_by(dimension)
                .for_each(|value| *value = 4097);
            pair(
                "at the bound".into(),
                dimension,
                &a,
                &b,
                OperandWidth::Short,
            );
            a[0] = 4096;
            let what = "one unit past the bound".into();
            pair(what, dimension, &a, &b, OperandWidth::Narrow);
            if dimension == 128 {
                // 4 769 × 3 518 + 127 × 4 095 × 4 097 = `i32::MAX`.
                (a[0], b[0]) = (4769, 3518);
                assert_eq!(multiply(dimension, &a, &b)[0], i64::from(i32::MAX));
                let what = "a sum of i32::MAX".into();
                pair(what, dimension, &a, &b, OperandWidth::Narrow);
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
                    OperandWidth::of(dimension, Range::of(a), Range::of(b)),
                    pair.width,
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
