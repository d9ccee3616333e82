//! Integer matrix multiplication compute functions.
//!
//! The paper's sandbox-creation and compute microbenchmarks run 1×1 and
//! 128×128 int64 matrix multiplications. The function reads two row-major
//! int64 matrices from its `Matrices` input set (items `a` and `b`, each
//! prefixed with a u32 dimension) and writes the product to its `Product`
//! output set.

use dandelion_isolation::{FunctionArtifact, FunctionCtx};

/// Byte length of an encoded `dimension`×`dimension` matrix.
fn encoded_len(dimension: usize) -> usize {
    4 + dimension * dimension * 8
}

/// Encodes a square row-major matrix with a u32 dimension prefix and hands
/// the bytes to `put`, in bulk: the values are encoded a block at a time on
/// the stack, so the sink appends once per block (an append per element costs
/// a capacity check each — 16 384 of them for a 128×128 product).
fn encode_matrix_into(dimension: usize, values: &[i64], mut put: impl FnMut(&[u8])) {
    const BLOCK_VALUES: usize = 512;
    assert_eq!(values.len(), dimension * dimension, "matrix must be square");
    put(&(dimension as u32).to_le_bytes());
    let mut block = [0u8; BLOCK_VALUES * 8];
    for chunk in values.chunks(BLOCK_VALUES) {
        for (encoded, value) in block.chunks_exact_mut(8).zip(chunk) {
            encoded.copy_from_slice(&value.to_le_bytes());
        }
        put(&block[..chunk.len() * 8]);
    }
}

/// Serializes a square row-major matrix with a u32 dimension prefix.
pub fn encode_matrix(dimension: usize, values: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(dimension));
    encode_matrix_into(dimension, values, |bytes| out.extend_from_slice(bytes));
    out
}

/// Parses a matrix encoded by [`encode_matrix`].
pub fn decode_matrix(bytes: &[u8]) -> Result<(usize, Vec<i64>), String> {
    if bytes.len() < 4 {
        return Err("matrix payload too short".to_string());
    }
    let dimension = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let expected = 4 + dimension * dimension * 8;
    if bytes.len() != expected {
        return Err(format!(
            "matrix payload has {} bytes, expected {expected}",
            bytes.len()
        ));
    }
    let values = bytes[4..]
        .chunks_exact(8)
        .map(|chunk| i64::from_le_bytes(chunk.try_into().expect("chunk of 8 bytes")))
        .collect();
    Ok((dimension, values))
}

/// Multiplies two square row-major matrices.
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

/// Creates the matmul compute-function artifact.
///
/// Input set `Matrices` must contain items named `a` and `b`; output set
/// `Product` receives one item `product`.
pub fn matmul_artifact() -> FunctionArtifact {
    FunctionArtifact::new("MatMul", &["Product"], |ctx: &mut FunctionCtx| {
        let matrices = ctx
            .input_set("Matrices")
            .ok_or("missing input set `Matrices`")?
            .clone();
        let find = |name: &str| {
            matrices
                .items
                .iter()
                .find(|item| item.name == name)
                .ok_or_else(|| format!("missing matrix `{name}`"))
        };
        let (dim_a, a) = decode_matrix(&find("a")?.data)?;
        let (dim_b, b) = decode_matrix(&find("b")?.data)?;
        if dim_a != dim_b {
            return Err(format!("dimension mismatch: {dim_a} vs {dim_b}").into());
        }
        let product = multiply(dim_a, &a, &b);
        // Written into the platform's output memory, not a vector of ours.
        let mut encoded = ctx.output_buffer(encoded_len(dim_a));
        encode_matrix_into(dim_a, &product, |bytes| encoded.put_slice(bytes));
        ctx.push_output_bytes("Product", "product", encoded)
    })
    .with_binary_size(48 * 1024)
    .with_memory_requirement(8 * 1024 * 1024)
}

/// Builds the `Matrices` input set for an n×n identity × constant workload.
pub fn matmul_inputs(dimension: usize, seed: i64) -> dandelion_common::DataSet {
    use dandelion_common::{DataItem, DataSet};
    let mut a = vec![0i64; dimension * dimension];
    let mut b = vec![0i64; dimension * dimension];
    for index in 0..dimension {
        a[index * dimension + index] = 1;
    }
    for (index, value) in b.iter_mut().enumerate() {
        *value = seed.wrapping_add(index as i64);
    }
    DataSet::with_items(
        "Matrices",
        vec![
            DataItem::new("a", encode_matrix(dimension, &a)),
            DataItem::new("b", encode_matrix(dimension, &b)),
        ],
    )
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
    use dandelion_isolation::ExecutionTask;

    #[test]
    fn matrix_encoding_roundtrip() {
        let values = vec![1, 2, 3, 4];
        let encoded = encode_matrix(2, &values);
        let (dimension, decoded) = decode_matrix(&encoded).unwrap();
        assert_eq!(dimension, 2);
        assert_eq!(decoded, values);
        assert!(decode_matrix(&encoded[..7]).is_err());
        assert!(decode_matrix(&[0, 0, 0, 1]).is_err());
        // Across the encoder's block boundary, last block partial.
        let values: Vec<i64> = (0..23 * 23).map(|value| value * -7).collect();
        let encoded = encode_matrix(23, &values);
        assert_eq!(encoded.len(), encoded_len(23));
        assert_eq!(decode_matrix(&encoded).unwrap(), (23, values));
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

    #[test]
    fn artifact_executes_through_a_backend() {
        use dandelion_isolation::HardwarePlatform;
        let backend = dandelion_isolation::create_backend(
            dandelion_common::config::IsolationKind::Cheri,
            HardwarePlatform::Morello,
        );
        let artifact = std::sync::Arc::new(matmul_artifact());
        let task = ExecutionTask::new(artifact, vec![matmul_inputs(16, 3)]);
        let report = backend.execute(&task).unwrap();
        let (dimension, product) = decode_matrix(&report.outputs[0].items[0].data).unwrap();
        assert_eq!(dimension, 16);
        // Identity × B = B.
        let (_, expected) = decode_matrix(&matmul_inputs(16, 3).items[1].data).unwrap();
        assert_eq!(product, expected);
    }

    #[test]
    fn artifact_rejects_malformed_inputs() {
        use dandelion_common::{DataItem, DataSet};
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
    }
}
