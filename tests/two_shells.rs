//! A worker's two shells give the same bytes: every composition the demo
//! registers, run on the threaded worker (`WorkerNode::start_with_control`)
//! and on the stepped one (`WorkerNode::stepped`, stepped by this thread),
//! settles with byte-identical outputs and the same report.

use dandelion_apps::matmul::matmul_inputs;
use dandelion_apps::setup::DEMO_TOKEN;
use dandelion_apps::{qoi_encode, Image};
use dandelion_common::DataSet;
use dandelion_core::InvocationOutcome;
use dandelion_integration_tests::{demo_worker, settle_stepped, stepped_demo_worker};

/// Each output set's name, with each item's name and bytes.
type Sets = Vec<(String, Vec<(String, Vec<u8>)>)>;

fn sets(outcome: &InvocationOutcome) -> Sets {
    let items = |set: &DataSet| {
        let item = |item: &dandelion_common::DataItem| (item.name.clone(), item.data.to_vec());
        set.items.iter().map(item).collect()
    };
    outcome
        .outputs
        .iter()
        .map(|set| (set.name.clone(), items(set)))
        .collect()
}

/// The inputs of `setup.rs`'s own tests, one run per composition and per
/// SSB query; `MatMulApp` gets the 32 × 32 product `end_to_end` checks.
fn runs() -> Vec<(String, DataSet)> {
    let mut runs = vec![
        ("MatMulApp".to_string(), matmul_inputs(32, 11)),
        (
            "RenderLogs".to_string(),
            DataSet::single("AccessToken", DEMO_TOKEN.as_bytes().to_vec()),
        ),
        (
            "CompressImageApp".to_string(),
            DataSet::single("Qoi", qoi_encode(&Image::synthetic(64, 32))),
        ),
        (
            "Text2Sql".to_string(),
            DataSet::single(
                "Prompt",
                b"Which city in Switzerland has the largest population?".to_vec(),
            ),
        ),
    ];
    for phases in [2, 4, 8, 16] {
        let input = DataSet::single("Phase0", b"1".to_vec());
        runs.push((format!("FetchCompute{phases}"), input));
    }
    for query in ["1.1", "2.1", "3.1", "4.1"] {
        let input = DataSet::single("QuerySpec", format!("{query};8").into_bytes());
        runs.push(("SsbQuery".to_string(), input));
    }
    runs
}

#[test]
fn every_demo_composition_gives_the_same_bytes_on_both_shells() {
    let threaded = demo_worker();
    let stepped = stepped_demo_worker();
    // A stepped pool counts its engines as a threaded one does (what the
    // server's intake budget reads).
    assert_eq!(stepped.core_allocation(), threaded.core_allocation());
    let runs = runs();
    let mut run: Vec<String> = runs.iter().map(|(name, _)| name.clone()).collect();
    run.sort();
    run.dedup();
    let mut registered = stepped.registry().composition_names();
    registered.sort();
    assert_eq!(run, registered, "one run at least for every composition");
    for (composition, input) in runs {
        let expected = threaded.invoke(&composition, vec![input.clone()]).unwrap();
        let handle = stepped.submit(&composition, vec![input]).unwrap();
        let outcome = settle_stepped(&stepped, &handle).unwrap();
        assert!(!sets(&expected).is_empty(), "{composition}");
        assert_eq!(sets(&outcome), sets(&expected), "{composition}");
        assert_eq!(outcome.report, expected.report, "{composition}");
    }
    threaded.shutdown();
    stepped.shutdown();
}
