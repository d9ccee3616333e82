//! What one served request asks of the heap, counted: the golden bill.
//!
//! A counting global allocator (`tests/lib.rs`) counts every block the
//! process requests — every `alloc`, `alloc_zeroed` and `realloc` — and,
//! thread by thread, which thread requested it. A real [`Server`] with one
//! event loop serves `demo_worker(2)` over loopback; one keep-alive
//! connection sends the benchmark's requests one at a time, and reads each
//! response into a buffer it allocated beforehand, so it adds nothing.
//! After a warm-up, the blocks of [`REQUESTS`] requests over their number
//! are the bill, which must equal the golden figure to within one block.
//!
//! A change that adds an allocation to the served path fails here: it
//! updates the figure, and its list of what the figure consists of, and
//! says so. One test, so nothing else in the process allocates while it
//! measures.

use std::sync::Arc;

use dandelion_apps::matmul::{encode_matrix, multiply};
use dandelion_apps::setup::{demo_worker, DEMO_TOKEN};
use dandelion_common::{DataItem, DataSet};
use dandelion_core::frontend::SET_LIST_CONTENT_TYPE;
use dandelion_core::Frontend;
use dandelion_http::HttpRequest;
use dandelion_integration_tests::{block_tally, CountingAllocator, KeepAliveClient};
use dandelion_isolation::output_parser::encode_outputs;
use dandelion_server::{Server, ServerConfig};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Requests before the count starts: every pool class, table and list the
/// path reuses has reached its steady size by then.
const WARM_UP: usize = 2_000;

/// Requests counted.
const REQUESTS: usize = 1_000;

/// Blocks per `POST /v1/invoke/MatMulApp` of two 1×1 matrices (the
/// benchmark's `matmul1`), by layer; 61 before the served path stopped
/// building what it never reads.
///
/// On the event loop (13):
/// - request decode (1): the receive buffer's shared header, at its freeze.
///   The request is routed from its frame in place: no `HttpRequest`, no
///   `Uri`, no list of path segments.
/// - set-list decode (5): the set's name and its two items' names, the
///   set's item list and the list of sets.
/// - table submit (7): the node table, the terminal-status cell the handle
///   reads, the node's instance slots, the list of ready instances, the
///   instance's shared input list and its input set's name, and the boxed
///   settle callback. The client's items move into the instance.
///
/// On the compute engine (10):
/// - sandbox (7): the context's region list, sized up front; the output
///   item's name and its buffer's shared header, its set's name and item
///   list, the list of staged sets; the output frame's shared header. The
///   frame is checked against the staged sets in place.
/// - settle (2): the external outputs' list and its set's name; the items
///   move out of the table.
/// - response (1): the header list holding the `'static` `Content-Type`.
///   The `Connection` line is written into the head as it is built.
const MATMUL1_BLOCKS: usize = 23;

/// Blocks per `POST /v1/invoke/RenderLogs` with the demo token (the
/// benchmark's `logs`: 3 compute and 6 communication tasks); 299 before the
/// served path stopped building what it never reads, 173 before a
/// communication call did.
///
/// - On the event loop (13): the request decode (1); the raw body as the
///   first input's one-item set — the list of sets, the set's name (the
///   composition's input name, copied), the item's name and list (4); the
///   table submit as for `matmul1` (7) and the settle callback (1).
/// - On the compute engines (80): what `Access`, `FanOut` and `Render` build
///   — the auth request and the five log requests, as `HttpRequest`s
///   serialized into pooled buffers, and the items that carry them — and
///   the three sandboxes' region lists, staged sets and frames; the table's
///   steps these engines settle: each released instance's shared input
///   list, input set name, `each` item list and response set name, the
///   sweeps' lists; the external outputs (2) and the response (1).
/// - On the communication engines (39): each of the six HTTP calls costs
///   five (30) — the response set's name, the task's result list, the
///   response item's name (one `String` sized up front), the set's item
///   list, and the reply's shared header at its freeze — and the table's
///   steps these engines settle (9). The request is validated where it
///   lies (no `HttpRequest`, no `Uri`, no header map, no target `String`);
///   the service answers with a `'static` content type and no header list;
///   the auth token is read in place; the reply's head and body are
///   written into one pooled buffer.
const LOGS_BLOCKS: usize = 132;

/// The blocks per request of `REQUESTS` exchanges of `wire`, each answered
/// with `expected`, and the share of them the server's event loop asked for.
fn bill(
    client: &mut KeepAliveClient,
    wire: &[u8],
    expected: &[u8],
    loop_thread: &str,
) -> (f64, f64) {
    for _ in 0..WARM_UP {
        assert_eq!(client.exchange(wire), expected);
    }
    let before = block_tally();
    for _ in 0..REQUESTS {
        assert!(client.exchange(wire) == expected);
    }
    let counted = block_tally().since(&before);
    let per_request = |blocks: usize| blocks as f64 / REQUESTS as f64;
    (
        per_request(counted.total()),
        per_request(counted.of_threads_named(loop_thread)),
    )
}

#[test]
fn a_served_request_costs_its_golden_number_of_heap_blocks() {
    let worker = demo_worker(2, false).expect("demo worker starts");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        event_loops: 1,
        ..ServerConfig::default()
    };
    let server =
        Server::start(config, Arc::new(Frontend::new(Arc::clone(&worker)))).expect("server binds");
    let loop_thread = format!("dl-loop0@{}", server.local_addr().port());
    let mut client = KeepAliveClient::connect(server.local_addr(), 1 << 20);

    let (a, b) = ([3], [-7]);
    let matmul = HttpRequest::post(
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
    let (matmul1, on_loop) = bill(&mut client, &matmul, &product, &loop_thread);
    eprintln!("matmul1: {matmul1:.2} blocks per request, {on_loop:.2} on the loop");

    let logs = HttpRequest::post("/v1/invoke/RenderLogs", DEMO_TOKEN.as_bytes().to_vec())
        .with_header("Host", "bench")
        .to_bytes();
    let report = client.exchange(&logs).to_vec();
    let (render_logs, on_loop) = bill(&mut client, &logs, &report, &loop_thread);
    eprintln!("logs: {render_logs:.2} blocks per request, {on_loop:.2} on the loop");

    drop(client);
    assert!(server.shutdown(), "the server drains");
    worker.shutdown();
    assert!(
        (matmul1 - MATMUL1_BLOCKS as f64).abs() <= 1.0,
        "matmul1 costs {matmul1:.2} blocks per request, golden {MATMUL1_BLOCKS}"
    );
    assert!(
        (render_logs - LOGS_BLOCKS as f64).abs() <= 1.0,
        "logs costs {render_logs:.2} blocks per request, golden {LOGS_BLOCKS}"
    );
}
