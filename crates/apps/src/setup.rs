//! Helpers to wire the applications and their services onto a worker node.
//!
//! Start-up does only what readiness needs. What the simulated services
//! serve — the `phases` arrays, the SSB tables, the demo image — is
//! materialised on first use, then stored: a node that never runs those
//! applications never holds their data.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use dandelion_common::config::WorkerConfig;
use dandelion_common::DandelionResult;
use dandelion_core::WorkerNode;
use dandelion_query::generate_database;
use dandelion_services::{
    AuthService, LatencyModel, LlmService, LogService, ObjectStore, ServiceRegistry,
    SqlDatabaseService,
};

use crate::{image, logproc, matmul, phases, query_app, text2sql};

/// How many log-service endpoints the demo environment exposes.
pub const LOG_SERVICES: usize = 5;
/// The demo access token the auth service accepts.
pub const DEMO_TOKEN: &str = "demo-token";

/// Builds the full simulated service environment used by the examples,
/// integration tests and benchmarks.
///
/// `realistic_latency` selects between the paper-calibrated service latency
/// models (examples, benchmarks) and zero latency (unit/integration tests).
pub fn demo_services(realistic_latency: bool) -> ServiceRegistry {
    let microservice = if realistic_latency {
        dandelion_services::LatencyModel::MICROSERVICE
    } else {
        LatencyModel::zero()
    };
    let object_latency = if realistic_latency {
        dandelion_services::LatencyModel::OBJECT_STORE
    } else {
        LatencyModel::zero()
    };
    let llm_latency = if realistic_latency {
        dandelion_services::LatencyModel::LLM
    } else {
        LatencyModel::zero()
    };
    let db_latency = if realistic_latency {
        dandelion_services::LatencyModel::SQL_DATABASE
    } else {
        LatencyModel::zero()
    };

    let mut registry = ServiceRegistry::new();

    // Auth + log services for the log-processing application.
    let auth = AuthService::with_latency(microservice);
    let endpoints: Vec<String> = (0..LOG_SERVICES)
        .map(|index| format!("http://logs-{index}.internal/logs"))
        .collect();
    auth.grant(
        DEMO_TOKEN,
        &endpoints.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    registry.register("auth.internal", Arc::new(auth));
    for index in 0..LOG_SERVICES {
        registry.register(
            &format!("logs-{index}.internal"),
            Arc::new(
                LogService::new(&format!("logs-{index}"), 120, index as u64)
                    .with_latency(microservice),
            ),
        );
    }

    // Object store with the fetch-and-compute arrays, the demo QOI image and
    // the SSB dataset. In the paper's deployment these sit on another
    // machine, so nothing is put here: each bucket gets a source and an
    // object is materialised on first use, then stored.
    let store = ObjectStore::with_latency(object_latency);
    // Keys produced by SumMinMax are `sum % 1000`, in plain decimal.
    store.set_source("arrays", |key| {
        let index: u64 = key.parse().ok().filter(|index| *index < 1000)?;
        (index.to_string() == key).then(|| phases::phase_array(index).into())
    });
    store.set_source("images", |key| {
        (key == "input.qoi").then(|| image::qoi_encode(&image::Image::synthetic(96, 64)).into())
    });
    // The SSB database is generated and CSV-encoded once, by the bucket's
    // first read, through the same `upload_database` an eager caller uses.
    let ssb = OnceLock::new();
    store.set_source(query_app::BUCKET, move |key| {
        ssb.get_or_init(|| {
            let encoded = ObjectStore::new();
            query_app::upload_database(&encoded, &generate_database(0.05, 42), 8);
            encoded
        })
        .get_object(query_app::BUCKET, key)
    });
    registry.register(query_app::STORE_HOST, Arc::new(store));

    // LLM and SQL database for the Text2SQL workflow.
    registry.register(
        "llm.internal",
        Arc::new(LlmService::with_latency(llm_latency)),
    );
    registry.register(
        "db.internal",
        Arc::new(SqlDatabaseService::with_latency(db_latency).with_demo_data()),
    );

    registry
}

/// Registers every application's compute functions and compositions on a
/// worker node.
pub fn register_applications(worker: &WorkerNode) -> DandelionResult<()> {
    // Matmul microbenchmark.
    worker.register_function(matmul::matmul_artifact())?;
    worker.register_composition(matmul::matmul_composition())?;

    // Log processing.
    worker.register_function(logproc::access_artifact())?;
    worker.register_function(logproc::fanout_artifact())?;
    worker.register_function(logproc::render_artifact())?;
    worker.register_composition(logproc::composition())?;

    // Image compression.
    worker.register_function(image::compress_artifact())?;
    worker.register_composition(image::composition())?;

    // Fetch-and-compute phase chains (2, 4, 8 and 16 phases).
    worker.register_function(phases::make_fetch_artifact())?;
    worker.register_function(phases::sum_min_max_artifact())?;
    worker.register_function(phases::finalize_artifact())?;
    for count in [2usize, 4, 8, 16] {
        worker.register_composition(phases::composition(count))?;
    }

    // Text2SQL.
    worker.register_function(text2sql::parse_prompt_artifact())?;
    worker.register_function(text2sql::extract_sql_artifact())?;
    worker.register_function(text2sql::format_response_artifact())?;
    worker.register_composition(text2sql::composition())?;

    // Elastic SSB query processing.
    worker.register_function(query_app::plan_query_artifact())?;
    worker.register_function(query_app::run_partition_artifact())?;
    worker.register_function(query_app::merge_partials_artifact())?;
    worker.register_composition(query_app::composition())?;

    Ok(())
}

/// Starts a fully configured demo worker: all applications registered, all
/// simulated services wired up.
pub fn demo_worker(
    total_cores: usize,
    realistic_latency: bool,
) -> DandelionResult<Arc<WorkerNode>> {
    worker_with(total_cores, demo_services(realistic_latency))
}

/// The demo worker's configuration on `total_cores` cores.
pub fn demo_config(total_cores: usize) -> WorkerConfig {
    WorkerConfig {
        total_cores: total_cores.max(2),
        initial_communication_cores: (total_cores / 4).max(1),
        function_timeout: Duration::from_secs(60),
        ..WorkerConfig::default()
    }
}

/// The demo worker over the given services.
fn worker_with(total_cores: usize, services: ServiceRegistry) -> DandelionResult<Arc<WorkerNode>> {
    let worker = WorkerNode::start_with_control(demo_config(total_cores), services, false)?;
    register_applications(&worker)?;
    Ok(worker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_common::DataSet;

    #[test]
    fn demo_worker_runs_log_processing_end_to_end() {
        let worker = demo_worker(4, false).unwrap();
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
        assert!(html.contains("<html>"));
        // All five log services contribute a section.
        assert_eq!(html.matches("<section><pre>").count(), LOG_SERVICES);
        // 3 compute nodes and 1 + 5 HTTP requests executed.
        assert_eq!(outcome.report.compute_tasks, 3);
        assert_eq!(outcome.report.communication_tasks, 1 + LOG_SERVICES);
        worker.shutdown();
    }

    #[test]
    fn demo_worker_runs_image_compression() {
        let worker = demo_worker(4, false).unwrap();
        let image = image::Image::synthetic(64, 32);
        let outcome = worker
            .invoke(
                "CompressImageApp",
                vec![DataSet::single("Qoi", image::qoi_encode(&image))],
            )
            .unwrap();
        assert_eq!(
            image::png_dimensions(&outcome.outputs[0].items[0].data),
            Some((64, 32))
        );
        worker.shutdown();
    }

    #[test]
    fn demo_worker_runs_text2sql() {
        let worker = demo_worker(4, false).unwrap();
        let outcome = worker
            .invoke(
                "Text2Sql",
                vec![DataSet::single(
                    "Prompt",
                    b"Which city in Switzerland has the largest population?".to_vec(),
                )],
            )
            .unwrap();
        let answer = outcome.outputs[0].items[0].as_str().unwrap();
        assert!(answer.contains("Zurich"), "answer was: {answer}");
        worker.shutdown();
    }

    #[test]
    fn demo_worker_runs_ssb_queries() {
        let worker = demo_worker(4, false).unwrap();
        // The demo environment uploads the fact table as 8 partition objects,
        // so the query spec must fan out over all 8.
        let outcome = worker
            .invoke(
                "SsbQuery",
                vec![DataSet::single("QuerySpec", b"1.1;8".to_vec())],
            )
            .unwrap();
        let csv = outcome.outputs[0].items[0].as_str().unwrap();
        assert!(csv.starts_with("revenue"));
        // The distributed result matches the single-node engine.
        let db = generate_database(0.05, 42);
        let expected = dandelion_query::SsbQuery::Q1_1.run(&db).unwrap();
        assert_eq!(csv, expected.to_csv());
        worker.shutdown();
    }

    #[test]
    fn demo_worker_runs_fetch_and_compute_chain() {
        let worker = demo_worker(4, false).unwrap();
        let outcome = worker
            .invoke(
                "FetchCompute4",
                vec![DataSet::single("Phase0", b"1".to_vec())],
            )
            .unwrap();
        let stats = outcome.outputs[0].items[0].as_str().unwrap();
        assert!(stats.contains("sum="));
        // 4 phases × (MakeFetch + SumMinMax) + Finalize compute functions.
        assert_eq!(outcome.report.compute_tasks, 9);
        assert_eq!(outcome.report.communication_tasks, 4);
        worker.shutdown();
    }

    /// A demo worker whose only service is an object store filled ahead of
    /// time by `fill` — the fixture `demo_services` used to build — as the
    /// reference the lazily sourced buckets must answer like.
    fn eager_worker(fill: impl FnOnce(&ObjectStore)) -> Arc<WorkerNode> {
        let store = ObjectStore::with_latency(LatencyModel::zero());
        fill(&store);
        let mut services = ServiceRegistry::new();
        services.register(query_app::STORE_HOST, Arc::new(store));
        worker_with(4, services).unwrap()
    }

    fn output_bytes(worker: &WorkerNode, composition: &str, input: DataSet) -> Vec<Vec<u8>> {
        let outcome = worker.invoke(composition, vec![input]).unwrap();
        outcome
            .outputs
            .iter()
            .flat_map(|set| &set.items)
            .map(|item| item.data.as_slice().to_vec())
            .collect()
    }

    #[test]
    fn every_phase_chain_answers_like_an_eagerly_filled_store() {
        let eager = eager_worker(|store| {
            for key in 0..1000u64 {
                store.put_object("arrays", &key.to_string(), phases::phase_array(key));
            }
        });
        let lazy = demo_worker(4, false).unwrap();
        let idle = lazy.services().resident_bytes();
        assert!(
            idle < phases::PHASE_ARRAY_BYTES,
            "nothing is preloaded: {idle} bytes resident"
        );
        for phases in [2, 4, 8, 16] {
            let composition = format!("FetchCompute{phases}");
            let input = || DataSet::single("Phase0", b"1".to_vec());
            let answer = output_bytes(&lazy, &composition, input());
            assert!(!answer.is_empty());
            assert_eq!(answer, output_bytes(&eager, &composition, input()));
        }
        // The worker holds what the chains touched (at most 16 arrays, whole
        // ones), not the thousand it could have been asked for.
        let touched = lazy.services().resident_bytes() - idle;
        assert_eq!(touched % phases::PHASE_ARRAY_BYTES, 0);
        assert!((1..=16).contains(&(touched / phases::PHASE_ARRAY_BYTES)));
        eager.shutdown();
        lazy.shutdown();
    }

    #[test]
    fn every_ssb_query_answers_like_an_eagerly_uploaded_database() {
        let eager = eager_worker(|store| {
            query_app::upload_database(store, &generate_database(0.05, 42), 8);
        });
        let lazy = demo_worker(4, false).unwrap();
        for query in ["1.1", "2.1", "3.1", "4.1"] {
            let input = || DataSet::single("QuerySpec", format!("{query};8").into_bytes());
            let answer = output_bytes(&lazy, "SsbQuery", input());
            assert!(!answer.is_empty());
            assert_eq!(answer, output_bytes(&eager, "SsbQuery", input()));
        }
        eager.shutdown();
        lazy.shutdown();
    }

    #[test]
    fn sourced_objects_are_the_bytes_the_eager_fixture_stored() {
        use dandelion_common::SharedBytes;
        use dandelion_http::validate::{validate_request_shared, ValidationPolicy};
        use dandelion_http::HttpRequest;
        let services = demo_services(false);
        // The engine's path: serialized, validated in place, dispatched.
        let get = |path: &str| {
            let request = HttpRequest::get(format!("http://{}/{path}", query_app::STORE_HOST));
            let raw = SharedBytes::from_vec(request.to_bytes());
            let validated = validate_request_shared(&raw, &ValidationPolicy::default()).unwrap();
            services
                .dispatch(&validated.uri, &validated.request)
                .response
        };
        let idle = services.resident_bytes();

        let image = image::qoi_encode(&image::Image::synthetic(96, 64));
        assert_eq!(get("images/input.qoi").body, image.as_slice());
        assert_eq!(services.resident_bytes(), idle + image.len());
        assert_eq!(get("images/other.qoi").status.0, 404);

        assert_eq!(get("arrays/999").body, phases::phase_array(999).as_slice());
        // Only the keys the eager loop wrote exist: plain decimal, below 1000.
        for missing in ["arrays/1000", "arrays/007", "arrays/+7", "arrays/x"] {
            assert_eq!(get(missing).status.0, 404, "{missing}");
        }

        let uploaded = ObjectStore::new();
        query_app::upload_database(&uploaded, &generate_database(0.05, 42), 8);
        let keys = uploaded.list_bucket(query_app::BUCKET);
        assert_eq!(keys.len(), 4 + 8);
        for key in keys {
            let expected = uploaded.get_object(query_app::BUCKET, &key).unwrap();
            let first = get(&format!("ssb/{key}")).body;
            assert_eq!(first, expected, "{key}");
            // Served from the store from then on, like any put.
            let again = get(&format!("ssb/{key}")).body;
            assert!(dandelion_common::SharedBytes::same_buffer(&first, &again));
        }
        assert_eq!(get("ssb/lineorder-008.csv").status.0, 404);
    }
}
