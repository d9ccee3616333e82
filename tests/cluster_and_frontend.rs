//! Integration tests for the HTTP frontend, plus the control-plane
//! behaviour under mixed load. The cluster layer is the gateway: its tests
//! run over sockets in `crates/server/tests/gateway.rs`, and the typed
//! client's two-member run is in `nonblocking_api.rs`.

use std::sync::Arc;

use dandelion_common::config::{IsolationKind, WorkerConfig};
use dandelion_common::DataSet;
use dandelion_core::Frontend;
use dandelion_http::{HttpRequest, StatusCode};
use dandelion_integration_tests::demo_worker;

#[test]
fn frontend_serves_registration_and_invocation_over_http() {
    let worker = demo_worker();
    let frontend = Frontend::new(Arc::clone(&worker));

    // The demo applications are pre-registered and listed.
    let listing = frontend.handle(&HttpRequest::get("http://worker/v1/compositions"));
    assert_eq!(listing.status, StatusCode::OK);
    let body = listing.body_text();
    assert!(body.contains("RenderLogs"));
    assert!(body.contains("Text2Sql"));

    // Register an extra composition over HTTP and invoke it.
    let dsl = "composition Echo(In) => Out { MatMul(Matrices = all In) => (Out = Product); }";
    let registered = frontend.handle(&HttpRequest::post(
        "http://worker/v1/compositions",
        dsl.as_bytes().to_vec(),
    ));
    assert_eq!(registered.status, StatusCode::CREATED);

    // Invoke the log-processing composition through the frontend.
    let response = frontend.handle(&HttpRequest::post(
        "http://worker/v1/invoke/RenderLogs",
        dandelion_apps::setup::DEMO_TOKEN.as_bytes().to_vec(),
    ));
    assert_eq!(response.status, StatusCode::OK);
    assert!(response.body_text().contains("<html>"));

    // Stats endpoint reflects the invocation.
    let stats = frontend.handle(&HttpRequest::get("http://worker/v1/stats"));
    let stats_json = dandelion_common::JsonValue::parse(&stats.body_text()).unwrap();
    assert_eq!(
        stats_json
            .get("invocations")
            .and_then(dandelion_common::JsonValue::as_u64),
        Some(1)
    );
    worker.shutdown();
}

#[test]
fn control_plane_rebalances_cores_under_io_heavy_load() {
    // Start a worker *with* the control plane enabled and drive it with the
    // I/O heavy log-processing workload; the PI controller may move cores
    // towards communication engines, and the allocation always stays within
    // the configured total.
    let config = WorkerConfig {
        total_cores: 6,
        initial_communication_cores: 1,
        isolation: IsolationKind::Native,
        ..WorkerConfig::default()
    };
    let worker = dandelion_core::WorkerNode::start_with_control(
        config,
        dandelion_apps::setup::demo_services(false),
        true,
    )
    .unwrap();
    dandelion_apps::setup::register_applications(&worker).unwrap();

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let worker = Arc::clone(&worker);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    worker
                        .invoke(
                            "RenderLogs",
                            vec![DataSet::single(
                                "AccessToken",
                                dandelion_apps::setup::DEMO_TOKEN.as_bytes().to_vec(),
                            )],
                        )
                        .unwrap();
                }
            })
        })
        .collect();
    for handle in workers {
        handle.join().unwrap();
    }
    // The allocation counts running engines: right after a move the pool
    // that shrinks still runs the engine that has yet to take its stop
    // ticket at its next task boundary.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    let allocation = loop {
        let allocation = worker.core_allocation();
        if allocation.total() == 6 || std::time::Instant::now() > deadline {
            break allocation;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert_eq!(allocation.total(), 6);
    assert!(allocation.compute >= 1);
    assert!(allocation.communication >= 1);
    assert_eq!(worker.stats().invocations, 40);
    worker.shutdown();
}

#[test]
fn unknown_routes_and_payloads_are_rejected_cleanly() {
    let worker = demo_worker();
    let frontend = Frontend::new(Arc::clone(&worker));
    assert_eq!(
        frontend
            .handle(&HttpRequest::get("http://worker/v1/unknown"))
            .status,
        StatusCode::NOT_FOUND
    );
    assert_eq!(
        frontend
            .handle(&HttpRequest::post(
                "http://worker/v1/invoke/NoSuchApp",
                vec![]
            ))
            .status,
        StatusCode::NOT_FOUND
    );
    assert_eq!(
        frontend
            .handle(&HttpRequest::post(
                "http://worker/v1/compositions",
                b"composition Broken(".to_vec()
            ))
            .status,
        StatusCode::BAD_REQUEST
    );
    worker.shutdown();
}
