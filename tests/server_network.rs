//! End-to-end tests of the network serving layer with real `TcpStream`
//! clients: the synchronous `/v1/invoke` path, the submit/poll
//! `/v1/invocations` flow, keep-alive pipelining, and the zero-copy
//! invariant that a function's output buffer reaches the socket write path
//! by `Arc` identity.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dandelion_common::config::WorkerConfig;
use dandelion_common::{base64_decode, utf8_lossy, DataItem, JsonValue, SharedBytes};
use dandelion_core::{default_test_services, Frontend, WorkerNode};
use dandelion_http::{HttpRequest, HttpResponse};
use dandelion_isolation::{FunctionArtifact, FunctionCtx};
use dandelion_server::{response_rope, HttpClientConnection, Server, ServerConfig};

fn echo_worker() -> Arc<WorkerNode> {
    let config = WorkerConfig {
        total_cores: 4,
        initial_communication_cores: 1,
        ..WorkerConfig::default()
    };
    let worker = WorkerNode::start_with_control(config, default_test_services(), false).unwrap();
    worker
        .register_function(FunctionArtifact::new(
            "Echo",
            &["Out"],
            |ctx: &mut FunctionCtx| {
                // Pass the input through by reference: the output item is a
                // view of whatever buffer the input arrived in.
                let data = ctx.single_input("In")?.data.clone();
                ctx.push_output("Out", DataItem::new("echo", data))
            },
        ))
        .unwrap();
    worker
        .register_composition_dsl(
            "composition EchoComp(Input) => Output { Echo(In = all Input) => (Output = Out); }",
        )
        .unwrap();
    worker
}

fn start_server() -> (Server, Arc<WorkerNode>) {
    let worker = echo_worker();
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            event_loops: 2,
            ..ServerConfig::default()
        },
        frontend,
    )
    .expect("server binds");
    (server, worker)
}

fn body_json(response: &HttpResponse) -> JsonValue {
    JsonValue::parse(&response.body_text()).expect("response body is JSON")
}

/// The synchronous invoke path over a real socket: request bytes in,
/// function output bytes back.
#[test]
fn sync_invoke_over_tcp() {
    let (server, worker) = start_server();
    let mut client =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let response = client
        .request(
            &HttpRequest::post("/v1/invoke/EchoComp", b"network payload".to_vec())
                .with_header("Content-Type", "application/octet-stream"),
        )
        .unwrap();
    assert_eq!(response.status.0, 200);
    assert_eq!(response.body_text(), "network payload");
    assert_eq!(
        response.headers.get("content-type"),
        Some("application/octet-stream")
    );
    server.shutdown();
    worker.shutdown();
}

/// The non-blocking flow over one keep-alive connection: submit returns
/// `202` with an id, polling the returned href eventually yields the
/// completed status document with base64 outputs.
#[test]
fn submit_then_poll_over_tcp() {
    let (server, worker) = start_server();
    let mut client =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();

    let submitted = client
        .request(&HttpRequest::post(
            "/v1/invocations/EchoComp",
            b"poll me".to_vec(),
        ))
        .unwrap();
    assert_eq!(submitted.status.0, 202);
    let document = body_json(&submitted);
    let href = document
        .get("href")
        .and_then(JsonValue::as_str)
        .expect("202 body carries the poll href")
        .to_string();

    let deadline = Instant::now() + Duration::from_secs(10);
    let completed = loop {
        // Poll on the same connection (keep-alive carries the whole flow).
        let poll = client.request(&HttpRequest::get(href.clone())).unwrap();
        assert_eq!(poll.status.0, 200);
        let document = body_json(&poll);
        match document.get("status").and_then(JsonValue::as_str) {
            Some("completed") => break document,
            Some("failed") => panic!("invocation failed: {}", poll.body_text()),
            _ => assert!(Instant::now() < deadline, "invocation did not settle"),
        }
    };
    let data = completed
        .get("outputs")
        .and_then(|outputs| outputs.as_array())
        .and_then(|sets| sets[0].get("items"))
        .and_then(|items| items.as_array())
        .and_then(|items| items[0].get("data_base64"))
        .and_then(JsonValue::as_str)
        .expect("completed document carries outputs");
    assert_eq!(base64_decode(data).unwrap(), b"poll me");
    server.shutdown();
    worker.shutdown();
}

/// Two pipelined requests on one keep-alive connection: both are written
/// before either response is read, and the responses come back in order.
#[test]
fn pipelined_keep_alive_requests_on_one_connection() {
    let (server, worker) = start_server();
    let mut client =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    client
        .send(&HttpRequest::post(
            "/v1/invoke/EchoComp",
            b"first in line".to_vec(),
        ))
        .unwrap();
    client
        .send(&HttpRequest::post(
            "/v1/invoke/EchoComp",
            b"second in line".to_vec(),
        ))
        .unwrap();
    let first = client.receive().unwrap();
    let second = client.receive().unwrap();
    assert_eq!(first.body_text(), "first in line");
    assert_eq!(second.body_text(), "second in line");
    assert_eq!(first.headers.get("connection"), Some("keep-alive"));
    // The connection is still usable afterwards.
    let health = client.request(&HttpRequest::get("/healthz")).unwrap();
    assert_eq!(health.body_text(), "ok");
    assert_eq!(server.stats().requests, 3);
    assert_eq!(server.stats().accepted, 1);
    server.shutdown();
    worker.shutdown();
}

/// The zero-copy write path: a function output crosses the frontend into
/// the HTTP response and onto the rope the connection handler hands to
/// `Rope::write_to` as the *same allocation* — no copy between context
/// export and the socket write.
#[test]
fn function_output_reaches_the_socket_write_path_by_arc_identity() {
    let worker = echo_worker();
    let frontend = Frontend::new(Arc::clone(&worker));

    // The client's payload arrives as a view of this buffer; the echo
    // passes it through, so the exported output shares it too.
    let payload = SharedBytes::from_vec(vec![0xC3; 512 * 1024]);
    let request = HttpRequest::post("/v1/invoke/EchoComp", payload.clone())
        .with_header("Content-Type", "application/octet-stream");
    let response = frontend.handle(&request);
    assert_eq!(response.status.0, 200);
    assert!(
        SharedBytes::same_buffer(&response.body, &payload),
        "the exported function output must still be the client's buffer"
    );

    // The connection handler's serialization step: the response becomes a
    // rope whose body segment is that same allocation...
    let rope = response_rope(response, false);
    let body_segment = rope.last_segment().expect("body rides as a segment");
    assert!(
        SharedBytes::same_buffer(body_segment, &payload),
        "the rope body segment must be the exported buffer, not a copy"
    );

    // ...and vectored delivery writes exactly the wire bytes.
    let mut delivered = Vec::new();
    rope.write_to(&mut delivered).unwrap();
    let text_head = utf8_lossy(&delivered[..64]);
    assert!(text_head.starts_with("HTTP/1.1 200 OK\r\n"));
    assert!(delivered.ends_with(payload.as_slice()));

    // The event-loop delivery path: the same rope through a RopeWriter that
    // suspends on WouldBlock mid-payload (the non-blocking socket model)
    // still shares the buffer after resumption and emits identical bytes.
    let mut writer = dandelion_common::RopeWriter::new(rope);
    let mut choppy = dandelion_integration_tests::ChoppyWriter::new(100 * 1024);
    let mut suspensions = 0;
    while !writer.write_some(&mut choppy).unwrap() {
        suspensions += 1;
    }
    assert!(
        suspensions >= 2,
        "the 512 KiB body must suspend mid-payload"
    );
    assert_eq!(choppy.out, delivered, "resumed delivery diverged");
    assert!(
        SharedBytes::same_buffer(
            writer.rope().last_segment().expect("body segment"),
            &payload
        ),
        "the body must still be the client's buffer after resumed partial writes"
    );
    worker.shutdown();
}
