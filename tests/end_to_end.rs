//! End-to-end integration tests: every shipped application runs through the
//! real worker runtime (dispatcher, engines, isolation backends, simulated
//! remote services) and produces correct results.

use std::sync::Arc;

use dandelion_apps::matmul::{decode_matrix, matmul_inputs};
use dandelion_apps::setup::DEMO_TOKEN;
use dandelion_apps::{png_dimensions, qoi_encode, Image};
use dandelion_common::config::IsolationKind;
use dandelion_common::DataSet;
use dandelion_integration_tests::demo_worker;
use dandelion_isolation::{create_backend, ExecutionTask, HardwarePlatform};
use dandelion_query::{generate_database, SsbQuery};

#[test]
fn log_processing_renders_all_authorized_services() {
    let worker = demo_worker();
    let outcome = worker
        .invoke(
            "RenderLogs",
            vec![DataSet::single(
                "AccessToken",
                DEMO_TOKEN.as_bytes().to_vec(),
            )],
        )
        .unwrap();
    let html = outcome.outputs[0].items[0].as_str().unwrap();
    assert_eq!(
        html.matches("<section><pre>").count(),
        dandelion_apps::setup::LOG_SERVICES
    );
    assert_eq!(
        outcome.report.communication_tasks,
        1 + dandelion_apps::setup::LOG_SERVICES
    );
    worker.shutdown();
}

#[test]
fn log_processing_with_bad_token_degrades_gracefully() {
    let worker = demo_worker();
    let outcome = worker
        .invoke(
            "RenderLogs",
            vec![DataSet::single("AccessToken", b"not-a-token".to_vec())],
        )
        .unwrap();
    // The fan-out produced no requests, so downstream nodes skipped and the
    // composition output is empty — not an error (paper §4.4).
    assert!(outcome.outputs[0].is_empty());
    worker.shutdown();
}

#[test]
fn matmul_application_is_correct_across_backends() {
    // The product the worker serves is the one the function computes in
    // the executor of every isolation backend.
    let worker = demo_worker();
    let outcome = worker
        .invoke("MatMulApp", vec![matmul_inputs(32, 11)])
        .unwrap();
    let served = decode_matrix(&outcome.outputs[0].items[0].data).unwrap();
    assert_eq!(served.0, 32);
    worker.shutdown();
    let artifact = Arc::new(dandelion_apps::matmul::matmul_artifact());
    for isolation in [
        IsolationKind::Native,
        IsolationKind::Cheri,
        IsolationKind::Kvm,
    ] {
        let backend = create_backend(isolation, HardwarePlatform::X86Linux);
        let task = ExecutionTask::new(Arc::clone(&artifact), vec![matmul_inputs(32, 11)]);
        let report = backend.execute(&task).unwrap();
        let product = decode_matrix(&report.outputs[0].items[0].data).unwrap();
        assert_eq!(product, served, "{isolation}");
    }
}

#[test]
fn image_compression_produces_a_valid_png() {
    let worker = demo_worker();
    let image = Image::synthetic(128, 96);
    let outcome = worker
        .invoke(
            "CompressImageApp",
            vec![DataSet::single("Qoi", qoi_encode(&image))],
        )
        .unwrap();
    let png = &outcome.outputs[0].items[0].data;
    assert_eq!(png_dimensions(png), Some((128, 96)));
    assert!(png.len() > 1024);
    worker.shutdown();
}

#[test]
fn text2sql_answers_city_and_movie_questions() {
    let worker = demo_worker();
    let city = worker
        .invoke(
            "Text2Sql",
            vec![DataSet::single(
                "Prompt",
                b"Which city in Switzerland has the largest population?".to_vec(),
            )],
        )
        .unwrap();
    assert!(city.outputs[0].items[0]
        .as_str()
        .unwrap()
        .contains("Zurich"));

    let movie = worker
        .invoke(
            "Text2Sql",
            vec![DataSet::single(
                "Prompt",
                b"What is the best movie?".to_vec(),
            )],
        )
        .unwrap();
    assert!(movie.outputs[0].items[0]
        .as_str()
        .unwrap()
        .contains("Shawshank"));
    worker.shutdown();
}

#[test]
fn distributed_ssb_queries_match_the_single_node_engine() {
    let worker = demo_worker();
    let db = generate_database(0.05, 42);
    for (query, spec) in [
        (SsbQuery::Q1_1, "1.1;8"),
        (SsbQuery::Q2_1, "2.1;8"),
        (SsbQuery::Q4_1, "4.1;8"),
    ] {
        let outcome = worker
            .invoke(
                "SsbQuery",
                vec![DataSet::single("QuerySpec", spec.as_bytes().to_vec())],
            )
            .unwrap();
        let csv = outcome.outputs[0].items[0].as_str().unwrap();
        let expected = query.run(&db).unwrap().to_csv();
        assert_eq!(csv, expected, "{} diverged", query.label());
    }
    worker.shutdown();
}

#[test]
fn fetch_and_compute_chains_scale_with_phase_count() {
    let worker = demo_worker();
    for (composition, phases) in [("FetchCompute2", 2usize), ("FetchCompute8", 8)] {
        let outcome = worker
            .invoke(composition, vec![DataSet::single("Phase0", b"1".to_vec())])
            .unwrap();
        assert!(outcome.outputs[0].items[0]
            .as_str()
            .unwrap()
            .contains("sum="));
        assert_eq!(outcome.report.compute_tasks, phases * 2 + 1);
        assert_eq!(outcome.report.communication_tasks, phases);
    }
    worker.shutdown();
}

#[test]
fn worker_statistics_reflect_the_executed_workload() {
    let worker = demo_worker();
    for _ in 0..3 {
        worker
            .invoke(
                "RenderLogs",
                vec![DataSet::single(
                    "AccessToken",
                    DEMO_TOKEN.as_bytes().to_vec(),
                )],
            )
            .unwrap();
    }
    let stats = worker.stats();
    assert_eq!(stats.invocations, 3);
    assert_eq!(stats.failures, 0);
    assert_eq!(stats.compute_tasks, 9);
    assert!(stats.latency.p99_us >= stats.latency.p50_us);
    worker.shutdown();
}
