//! Integration tests for the non-blocking invocation API: the v1 JSON
//! submit/poll endpoints on a worker frontend, the `DandelionClient` facade
//! over both of its transports (a frontend in process, a socket to a gateway
//! fronting two members), and byte-compatibility of the synchronous
//! `/v1/invoke/{name}` path with the async result encoding.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dandelion_common::config::{IsolationKind, WorkerConfig};
use dandelion_common::{base64_decode, DataSet, JsonValue};
use dandelion_core::{DandelionClient, Frontend, InvocationStatus, WorkerNode};
use dandelion_http::{HttpRequest, StatusCode};
use dandelion_isolation::{FunctionArtifact, FunctionCtx};
use dandelion_server::gateway::composition_affinity_hash;
use dandelion_server::{GatewayConfig, Router, Server, ServerConfig};
use dandelion_services::ServiceRegistry;

const SHOUT_DSL: &str =
    "composition Shout(Input) => Output { Upper(Text = all Input) => (Output = Out); }";

fn upper_artifact() -> FunctionArtifact {
    FunctionArtifact::new("Upper", &["Out"], |ctx: &mut FunctionCtx| {
        let text = ctx
            .single_input("Text")?
            .as_str()
            .unwrap_or("")
            .to_uppercase();
        ctx.push_output_bytes("Out", "upper", text.into_bytes())
    })
}

/// A 4-core worker with the `Shout` composition registered over HTTP.
fn four_core_frontend() -> Frontend {
    let config = WorkerConfig {
        total_cores: 4,
        initial_communication_cores: 1,
        isolation: IsolationKind::Native,
        ..WorkerConfig::default()
    };
    let worker = WorkerNode::start(config, ServiceRegistry::new()).unwrap();
    worker.register_function(upper_artifact()).unwrap();
    let frontend = Frontend::new(worker);
    let registered = frontend.handle(&HttpRequest::post(
        "http://worker/v1/compositions",
        SHOUT_DSL.as_bytes().to_vec(),
    ));
    assert_eq!(registered.status, StatusCode::CREATED);
    frontend
}

fn json(body: &str) -> JsonValue {
    JsonValue::parse(body).expect("body is JSON")
}

fn first_output_base64(document: &JsonValue) -> Vec<u8> {
    let data = document
        .get("outputs")
        .and_then(|o| o.as_array())
        .and_then(|sets| sets.first())
        .and_then(|set| set.get("items"))
        .and_then(|items| items.as_array())
        .and_then(|items| items.first())
        .and_then(|item| item.get("data_base64"))
        .and_then(JsonValue::as_str)
        .expect("completed document carries one output item");
    base64_decode(data).expect("output payload is valid base64")
}

#[test]
fn concurrent_http_submissions_poll_to_completion_on_a_four_core_worker() {
    let frontend = four_core_frontend();
    let count = 10usize;

    // Submit every invocation before polling any of them, so all are in
    // flight concurrently on the worker.
    let ids: Vec<String> = (0..count)
        .map(|index| {
            let response = frontend.handle(&HttpRequest::post(
                "http://worker/v1/invocations/Shout",
                format!("payload number {index}").into_bytes(),
            ));
            assert_eq!(response.status, StatusCode::ACCEPTED);
            let document = json(&response.body_text());
            document
                .get("invocation_id")
                .and_then(JsonValue::as_str)
                .expect("202 body carries an invocation id")
                .to_string()
        })
        .collect();
    assert_eq!(ids.len(), count);

    // Poll each id until it completes; every invocation must produce its
    // own submitter's payload, uppercased.
    let deadline = Instant::now() + Duration::from_secs(30);
    for (index, id) in ids.iter().enumerate() {
        let document = loop {
            let response = frontend.handle(&HttpRequest::get(format!(
                "http://worker/v1/invocations/{id}"
            )));
            assert_eq!(response.status, StatusCode::OK);
            let document = json(&response.body_text());
            match document.get("status").and_then(JsonValue::as_str) {
                Some("completed") => break document,
                Some("queued" | "running") => {
                    assert!(Instant::now() < deadline, "invocation {id} did not settle");
                    std::thread::yield_now();
                }
                other => panic!("invocation {id} reached unexpected status {other:?}"),
            }
        };
        assert_eq!(
            first_output_base64(&document),
            format!("PAYLOAD NUMBER {index}").into_bytes()
        );
    }

    // The worker counted every invocation exactly once.
    let stats = frontend.handle(&HttpRequest::get("http://worker/v1/stats"));
    let stats = json(&stats.body_text());
    assert_eq!(
        stats.get("invocations").and_then(JsonValue::as_u64),
        Some(count as u64)
    );
    assert_eq!(stats.get("failures").and_then(JsonValue::as_u64), Some(0));
    frontend.worker().shutdown();
}

#[test]
fn sync_invoke_path_returns_identical_bytes_to_the_async_result() {
    let frontend = four_core_frontend();
    let input = b"the same bytes either way".to_vec();

    // Old synchronous path.
    let sync = frontend.handle(&HttpRequest::post(
        "http://worker/v1/invoke/Shout",
        input.clone(),
    ));
    assert_eq!(sync.status, StatusCode::OK);

    // New async path with the same input.
    let submitted = frontend.handle(&HttpRequest::post(
        "http://worker/v1/invocations/Shout",
        input,
    ));
    assert_eq!(submitted.status, StatusCode::ACCEPTED);
    let id = json(&submitted.body_text())
        .get("invocation_id")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(30);
    let document = loop {
        let response = frontend.handle(&HttpRequest::get(format!(
            "http://worker/v1/invocations/{id}"
        )));
        let document = json(&response.body_text());
        if document.get("status").and_then(JsonValue::as_str) == Some("completed") {
            break document;
        }
        assert!(Instant::now() < deadline);
        std::thread::yield_now();
    };

    assert_eq!(sync.body, first_output_base64(&document));
    frontend.worker().shutdown();
}

#[test]
fn client_facade_keeps_eight_invocations_in_flight_on_a_two_node_cluster() {
    // A second composition over the same function, named so that the
    // gateway's affinity hash sends the two to different members.
    const LOUD_DSL: &str =
        "composition Loud(Input) => Output { Upper(Text = all Input) => (Output = Out); }";
    let compositions = ["Shout", "Loud"];
    assert_ne!(
        composition_affinity_hash(compositions[0]) % 2,
        composition_affinity_hash(compositions[1]) % 2,
        "the two compositions must prefer different members of a 2-member cluster"
    );

    // Two members and a gateway in this process, talking over loopback.
    let loopback = || ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        event_loops: 1,
        ..ServerConfig::default()
    };
    let members: Vec<(Server, Arc<WorkerNode>)> = (0..2)
        .map(|_| {
            let config = WorkerConfig {
                total_cores: 2,
                initial_communication_cores: 1,
                isolation: IsolationKind::Native,
                ..WorkerConfig::default()
            };
            let worker = WorkerNode::start(config, ServiceRegistry::new()).unwrap();
            worker.register_function(upper_artifact()).unwrap();
            worker.register_composition_dsl(SHOUT_DSL).unwrap();
            worker.register_composition_dsl(LOUD_DSL).unwrap();
            let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
            let server = Server::start(loopback(), frontend).expect("member binds");
            (server, worker)
        })
        .collect();
    let router = Router::start(GatewayConfig::default());
    let gateway = Server::start_gateway(loopback(), Arc::clone(&router)).expect("gateway binds");
    for (server, _) in &members {
        router.join(server.local_addr()).expect("member joins");
    }
    let client = dandelion_server::connect(gateway.local_addr(), Duration::from_secs(10))
        .expect("client connects");

    // Submit 8 invocations up front, alternating compositions; all are in
    // flight before the first wait, spread across both members by affinity.
    let handles: Vec<_> = (0..8)
        .map(|index| {
            let handle = client
                .submit(
                    compositions[index % 2],
                    vec![DataSet::single(
                        "Input",
                        format!("fan out {index}").into_bytes(),
                    )],
                )
                .expect("submission is accepted");
            (index, handle)
        })
        .collect();

    for (index, handle) in &handles {
        let outcome = handle.wait(Some(Duration::from_secs(30))).unwrap();
        assert_eq!(
            outcome.outputs[0].items[0].as_str(),
            Some(format!("FAN OUT {index}").as_str())
        );
    }

    // Both members did work and the totals add up.
    let invocations: Vec<u64> = members
        .iter()
        .map(|(_, worker)| worker.stats().invocations)
        .collect();
    assert_eq!(invocations.iter().sum::<u64>(), 8);
    assert!(
        invocations.iter().all(|&count| count > 0),
        "{invocations:?}"
    );

    // Polls follow the member that accepted the submission: routed to the
    // other one, any of these would be `NotFound`.
    for (_, handle) in &handles {
        let poll = client.poll(handle.id()).unwrap();
        assert_eq!(poll.status, InvocationStatus::Completed);
    }

    assert!(gateway.shutdown(), "gateway drains cleanly");
    for (server, worker) in members {
        server.shutdown();
        worker.shutdown();
    }
}

#[test]
fn client_facade_over_http_frontend_matches_cluster_semantics() {
    let frontend = Arc::new(four_core_frontend());
    let client = DandelionClient::for_frontend(Arc::clone(&frontend));
    let handles: Vec<_> = (0..8)
        .map(|index| {
            client
                .submit(
                    "Shout",
                    vec![DataSet::single(
                        "Input",
                        format!("http {index}").into_bytes(),
                    )],
                )
                .unwrap()
        })
        .collect();
    for (index, handle) in handles.iter().enumerate() {
        let poll_before = client.poll(handle.id()).unwrap();
        assert!(
            !poll_before.status.is_terminal() || poll_before.outcome.is_some(),
            "terminal polls carry outcomes"
        );
        let outcome = handle.wait(Some(Duration::from_secs(30))).unwrap();
        assert_eq!(
            outcome.outputs[0].items[0].as_str(),
            Some(format!("HTTP {index}").as_str())
        );
    }
    frontend.worker().shutdown();
}
