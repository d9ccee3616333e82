//! The fetch-and-compute composition microbenchmark (paper §7.4).
//!
//! Each *phase* fetches a 64 KiB array from the object store and computes
//! sum, min and max over a sample of its elements. The composition chains
//! `phases` such pairs of communication and compute functions; sweeping the
//! phase count measures the overhead of decomposing an application into many
//! short-lived sandboxes.

use std::fmt::Write;

use dandelion_dsl::{CompositionBuilder, CompositionGraph, Distribution};
use dandelion_http::HttpRequest;
use dandelion_isolation::{FunctionArtifact, FunctionCtx};

/// Size of the fetched array in bytes.
pub const ARRAY_BYTES: usize = 64 * 1024;
/// Number of elements sampled by the compute step.
pub const SAMPLE: usize = 1024;

/// `MakeFetch`: emits the GET request for one phase's array.
///
/// The object key is taken from the `Phase` input item's contents so that
/// consecutive phases fetch different objects.
pub fn make_fetch_artifact() -> FunctionArtifact {
    FunctionArtifact::new("MakeFetch", &["Request"], |ctx: &mut FunctionCtx| {
        let phase = ctx.single_input("Phase")?.clone();
        let key = phase.as_str().unwrap_or("0").trim().to_string();
        let request = HttpRequest::get(format!("http://s3.internal/arrays/{key}")).to_shared();
        ctx.push_output_bytes("Request", "fetch", request)
    })
}

/// `SumMinMax`: parses the fetched array and reduces a sample of it, then
/// emits the key of the next phase's object.
pub fn sum_min_max_artifact() -> FunctionArtifact {
    FunctionArtifact::new(
        "SumMinMax",
        &["Stats", "NextPhase"],
        |ctx: &mut FunctionCtx| {
            let response_item = ctx.single_input("Response")?.clone();
            let response = dandelion_http::parse_response_shared(&response_item.data)
                .map_err(|err| format!("bad response: {err}"))?;
            if !response.status.is_success() {
                return Err(format!("fetch failed: {}", response.status).into());
            }
            let values: Vec<i64> = response
                .body
                .chunks_exact(8)
                .map(|chunk| i64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
                .collect();
            if values.is_empty() {
                return Err("empty array".into());
            }
            let stride = (values.len() / SAMPLE).max(1);
            let sample: Vec<i64> = values.iter().step_by(stride).copied().collect();
            let sum: i64 = sample.iter().sum();
            let min = sample.iter().min().copied().unwrap_or(0);
            let max = sample.iter().max().copied().unwrap_or(0);
            // Three i64 and the labels: 80 bytes at most.
            let mut stats = ctx.output_buffer(80);
            write!(stats, "sum={sum} min={min} max={max}").expect("a builder accepts every write");
            ctx.push_output_bytes("Stats", "stats", stats)?;
            // The phase index of the next fetch is derived from this phase's key
            // (encoded in the request URL by convention: `arrays/<index>`).
            let mut next = ctx.output_buffer(3);
            next.put_decimal((sum.unsigned_abs() % 1000) as usize);
            ctx.push_output_bytes("NextPhase", "phase", next)
        },
    )
}

/// Builds the N-phase fetch-and-compute composition.
pub fn composition(phases: usize) -> CompositionGraph {
    let phases = phases.max(1);
    let mut builder = CompositionBuilder::new(&format!("FetchCompute{phases}"))
        .input("Phase0")
        .output("FinalStats");
    let mut previous_phase = "Phase0".to_string();
    for phase in 0..phases {
        let request = format!("Request{phase}");
        let response = format!("Response{phase}");
        let stats = format!("Stats{phase}");
        let next_phase = format!("Phase{}", phase + 1);
        let previous = previous_phase.clone();
        builder = builder
            .node("MakeFetch", |node| {
                node.bind("Phase", Distribution::All, &previous)
                    .publish(&request, "Request")
            })
            .node("HTTP", |node| {
                node.bind("Request", Distribution::Each, &request)
                    .publish(&response, "Response")
            })
            .node("SumMinMax", |node| {
                node.bind("Response", Distribution::All, &response)
                    .publish(&stats, "Stats")
                    .publish(&next_phase, "NextPhase")
            });
        previous_phase = next_phase;
    }
    // The final stats of the last phase are the composition output.
    let last_stats = format!("Stats{}", phases - 1);
    builder = builder.node("Finalize", |node| {
        node.bind("Stats", Distribution::All, &last_stats)
            .publish("FinalStats", "Out")
    });
    builder
        .build()
        .expect("static fetch-and-compute composition")
}

/// `Finalize`: passes the last phase's stats on as the composition output.
pub fn finalize_artifact() -> FunctionArtifact {
    FunctionArtifact::new("Finalize", &["Out"], |ctx: &mut FunctionCtx| {
        // By reference: the output is the input's buffer.
        let stats = ctx.single_input("Stats")?.data.clone();
        ctx.push_output_bytes("Out", "stats", stats)
    })
}

/// Builds the 64 KiB little-endian i64 array object for key `key`.
pub fn array_object(key: u64) -> Vec<u8> {
    let mut rng = dandelion_common::rng::SplitMix64::new(key.wrapping_mul(0x9E37) + 1);
    let mut out = Vec::with_capacity(ARRAY_BYTES);
    while out.len() < ARRAY_BYTES {
        out.extend_from_slice(&(rng.next_u64() as i64 % 10_000).to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_has_three_nodes_per_phase_plus_finalize() {
        for phases in [1, 2, 8, 16] {
            let graph = composition(phases);
            assert_eq!(graph.nodes.len(), phases * 3 + 1);
            assert_eq!(graph.external_outputs, vec!["FinalStats"]);
        }
    }

    #[test]
    fn array_objects_are_full_sized_and_deterministic() {
        let a = array_object(7);
        let b = array_object(7);
        assert_eq!(a.len(), ARRAY_BYTES);
        assert_eq!(a, b);
        assert_ne!(array_object(8), a);
    }

    #[test]
    fn sum_min_max_reduces_a_fetched_array() {
        use dandelion_common::DataSet;
        use dandelion_isolation::SyscallPolicy;
        let body = array_object(3);
        let response = dandelion_http::HttpResponse::ok(body).to_bytes();
        let artifact = sum_min_max_artifact();
        let mut ctx = FunctionCtx::new(
            vec![DataSet::single("Response", response)],
            artifact.output_sets.clone(),
            8 * 1024 * 1024,
            SyscallPolicy::strict(),
        )
        .unwrap();
        artifact.logic.run(&mut ctx).unwrap();
        let outputs = ctx.take_outputs();
        let stats = outputs[0].items[0].as_str().unwrap();
        assert!(stats.contains("sum=") && stats.contains("min=") && stats.contains("max="));
        assert_eq!(outputs[1].name, "NextPhase");
    }

    #[test]
    fn make_fetch_builds_a_get_request() {
        use dandelion_common::DataSet;
        use dandelion_isolation::SyscallPolicy;
        let artifact = make_fetch_artifact();
        let mut ctx = FunctionCtx::new(
            vec![DataSet::single("Phase", b"42".to_vec())],
            artifact.output_sets.clone(),
            1024 * 1024,
            SyscallPolicy::strict(),
        )
        .unwrap();
        artifact.logic.run(&mut ctx).unwrap();
        let outputs = ctx.take_outputs();
        let request = dandelion_http::parse_request(&outputs[0].items[0].data).unwrap();
        assert_eq!(request.target, "http://s3.internal/arrays/42");
    }
}
