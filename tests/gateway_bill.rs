//! What one request proxied by a gateway asks of the heap, counted: the
//! golden bill of the hop, and the member's behind it.
//!
//! An in-process gateway (`Router::start`, `Server::start_gateway`, then
//! `join`) with one event loop fronts one member — a [`Server`] with one
//! event loop in front of `demo_worker(2)` — all on loopback. One keep-alive
//! client connection to the gateway sends `matmul1` requests one at a time
//! (`served_bill.rs` has the client and the member's figure). The counting
//! allocator's per-thread tally splits what the gateway's loop thread
//! requested from what every other thread did, which is the member's: the
//! client adds nothing, and the gateway has no thread besides its loops.
//! The health probe is set to once an hour, so it does not run while the
//! bill is counted. One test, so nothing else in the process allocates
//! while it measures.

use std::sync::Arc;
use std::time::Duration;

use dandelion_apps::matmul::{encode_matrix, multiply};
use dandelion_apps::setup::demo_worker;
use dandelion_common::{DataItem, DataSet};
use dandelion_core::frontend::SET_LIST_CONTENT_TYPE;
use dandelion_core::Frontend;
use dandelion_http::HttpRequest;
use dandelion_integration_tests::{block_tally, CountingAllocator, KeepAliveClient};
use dandelion_isolation::output_parser::encode_outputs;
use dandelion_server::{GatewayConfig, Router, Server, ServerConfig};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Requests before the count starts.
const WARM_UP: usize = 2_000;

/// Requests counted.
const REQUESTS: usize = 1_000;

/// Blocks per proxied `matmul1` request on the gateway's loop thread; 12
/// before. The client's request: its receive buffer's shared header at the
/// freeze (1); the forward's rope of spliced segments and the composition
/// name kept for a retry's affinity (2); the upstream read's list of
/// delivered responses (1). The member's response: its receive buffer's
/// shared header (1) and the relayed rope's segment list (1). The route is
/// matched on the frame's target in place, the member picked without a
/// list of candidates, and the connection keeps its list of routed
/// requests.
const GATEWAY_BLOCKS: usize = 6;

/// Blocks per proxied `matmul1` request on the member's threads: what it
/// costs served directly (`served_bill.rs`); 61 before.
const MEMBER_BLOCKS: usize = 23;

fn one_loop() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        event_loops: 1,
        ..ServerConfig::default()
    }
}

#[test]
fn a_proxied_request_costs_its_golden_number_of_heap_blocks_on_each_side() {
    let worker = demo_worker(2, false).expect("demo worker starts");
    let member = Server::start(one_loop(), Arc::new(Frontend::new(Arc::clone(&worker))))
        .expect("member binds");
    let router = Router::start(GatewayConfig {
        probe_interval: Duration::from_secs(3600),
        ..GatewayConfig::default()
    });
    let gateway = Server::start_gateway(one_loop(), Arc::clone(&router)).expect("gateway binds");
    router.join(member.local_addr()).expect("member joins");
    let gateway_loop = format!("dl-loop0@{}", gateway.local_addr().port());
    let mut client = KeepAliveClient::connect(gateway.local_addr(), 1 << 20);

    let (a, b) = ([3], [-7]);
    let wire = HttpRequest::post(
        "/v1/invoke/MatMulApp",
        encode_outputs(&[DataSet::with_items(
            "Matrices",
            vec![
                DataItem::new("a", encode_matrix(1, &a)),
                DataItem::new("b", encode_matrix(1, &b)),
            ],
        )]),
    )
    .with_header("Host", "bench")
    .with_header("Content-Type", SET_LIST_CONTENT_TYPE)
    .to_bytes();
    let product = encode_matrix(1, &multiply(1, &a, &b));
    for _ in 0..WARM_UP {
        assert_eq!(client.exchange(&wire), product);
    }
    let before = block_tally();
    for _ in 0..REQUESTS {
        assert!(client.exchange(&wire) == product);
    }
    let counted = block_tally().since(&before);
    let per_request = |blocks: usize| blocks as f64 / REQUESTS as f64;
    let on_gateway = per_request(counted.of_threads_named(&gateway_loop));
    let on_member = per_request(counted.total()) - on_gateway;
    eprintln!("gw_matmul1: {on_gateway:.2} blocks per request on the gateway, {on_member:.2} on the member");

    drop(client);
    assert!(gateway.shutdown(), "the gateway drains");
    assert!(member.shutdown(), "the member drains");
    worker.shutdown();
    assert!(
        (on_gateway - GATEWAY_BLOCKS as f64).abs() <= 1.0,
        "the gateway's loop requests {on_gateway:.2} blocks per request, golden {GATEWAY_BLOCKS}"
    );
    assert!(
        (on_member - MEMBER_BLOCKS as f64).abs() <= 1.0,
        "the member requests {on_member:.2} blocks per request, golden {MEMBER_BLOCKS}"
    );
}
