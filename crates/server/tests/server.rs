//! Socket-level tests of the serving layer: admission control, the read
//! deadline, malformed-request hardening, graceful shutdown, and the typed
//! client over its socket transport.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dandelion_common::utf8_lossy;
use dandelion_core::{default_test_services, Frontend, WorkerNode};
use dandelion_http::{HttpRequest, ParseLimits};
use dandelion_isolation::{FunctionArtifact, FunctionCtx};
use dandelion_server::{HttpClientConnection, Server, ServerConfig, WORKER_PIPELINE_DEPTH};

// This suite takes the teardown; the cluster fixtures are the other suites'.
#[allow(dead_code)]
mod common;

fn test_worker() -> Arc<WorkerNode> {
    use dandelion_common::config::WorkerConfig;
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
                let data = ctx.single_input("In")?.data.clone();
                ctx.push_output("Out", dandelion_common::DataItem::new("echo", data))
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

fn start_server(config: ServerConfig) -> (Server, Arc<WorkerNode>) {
    let worker = test_worker();
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let server = Server::start(config, frontend).expect("server binds");
    (server, worker)
}

fn loopback_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        event_loops: 2,
        read_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    }
}

#[test]
fn serves_health_and_sync_invoke_over_a_real_socket() {
    let (server, worker) = start_server(loopback_config());
    let mut client =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let health = client.request(&HttpRequest::get("/healthz")).unwrap();
    assert_eq!(health.status.0, 200);
    assert_eq!(health.body_text(), "ok");
    assert_eq!(health.headers.get("connection"), Some("keep-alive"));

    // Same connection, second request: keep-alive works.
    let invoke = client
        .request(&HttpRequest::post(
            "/v1/invoke/EchoComp",
            b"over the wire".to_vec(),
        ))
        .unwrap();
    assert_eq!(invoke.status.0, 200);
    assert_eq!(invoke.body_text(), "over the wire");
    assert_eq!(server.stats().requests, 2);
    assert!(
        common::shutdown_node(server, worker),
        "drains with nothing in flight"
    );
}

#[test]
fn typed_client_roundtrip_and_typed_not_found_over_a_socket() {
    use dandelion_common::{DandelionError, DataSet, InvocationId};
    use dandelion_core::InvocationStatus;
    let (server, worker) = start_server(ServerConfig {
        read_timeout: Duration::from_secs(10),
        ..loopback_config()
    });
    let client = dandelion_server::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let handle = client
        .submit(
            "EchoComp",
            vec![DataSet::single("Input", b"over a socket".to_vec())],
        )
        .unwrap();
    let outcome = handle.wait(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(outcome.outputs[0].items[0].as_str(), Some("over a socket"));
    // Waits are non-consuming on every transport: polling after a wait
    // works over the socket exactly like in process.
    let poll = client.poll(handle.id()).unwrap();
    assert_eq!(poll.status, InvocationStatus::Completed);
    assert!(poll.outcome.is_some());
    let err = client.poll(InvocationId::from_raw(u64::MAX)).unwrap_err();
    assert!(matches!(err, DandelionError::NotFound { .. }));
    // No reconnect: once the server is gone the transport's failure is the
    // caller's error, not a server answer.
    common::stop_and_check_loops(server);
    let err = client.poll(handle.id()).unwrap_err();
    assert!(matches!(err, DandelionError::Internal(_)), "{err}");
    common::finish_worker(&worker);
}

#[test]
fn connection_close_is_honored() {
    let (server, worker) = start_server(loopback_config());
    let mut client =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let response = client
        .request(&HttpRequest::get("/healthz").with_header("Connection", "close"))
        .unwrap();
    assert_eq!(response.headers.get("connection"), Some("close"));
    // The server closed its end: the next receive sees EOF.
    assert!(client.request(&HttpRequest::get("/healthz")).is_err());
    common::shutdown_node(server, worker);
}

#[test]
fn malformed_requests_get_a_structured_400_and_a_close() {
    let (server, worker) = start_server(loopback_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"NOT-HTTP garbage\r\n\r\n").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap(); // EOF proves the close
    assert!(reply.starts_with("HTTP/1.1 400 Bad Request\r\n"));
    assert!(reply.contains("\"malformed_request\""));
    assert!(reply.contains("Connection: close\r\n"));
    assert_eq!(server.stats().rejected_requests, 1);
    common::shutdown_node(server, worker);
}

/// One exchange on a fresh connection: `wire` out, everything the server
/// sends until it closes back. EOF proves the close.
fn exchange_until_close(server: &Server, wire: &[u8]) -> String {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(wire).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply
}

/// Chunked framing is not implemented, and a message that asks for it is
/// refused where its framing is decided: one `501`, then the close — not an
/// invocation with an empty body followed by the chunk data parsed as the
/// next pipelined request. A `Content-Length` beside it changes nothing.
#[test]
fn a_transfer_encoding_gets_one_501_and_a_close() {
    let (server, worker) = start_server(loopback_config());
    for head in [
        "Transfer-Encoding: chunked\r\n",
        "Content-Length: 10\r\ntransfer-encoding: chunked\r\n",
    ] {
        let wire =
            format!("POST /v1/invoke/EchoComp HTTP/1.1\r\n{head}\r\na\r\ndemo-token\r\n0\r\n\r\n");
        let reply = exchange_until_close(&server, wire.as_bytes());
        assert!(
            reply.starts_with("HTTP/1.1 501 Not Implemented\r\n"),
            "{reply}"
        );
        assert_eq!(reply.matches("HTTP/1.1 ").count(), 1, "{reply}");
        assert!(reply.contains("\"not_implemented\""), "{reply}");
        assert!(reply.contains("Connection: close\r\n"), "{reply}");
    }
    let stats = server.stats();
    assert_eq!((stats.requests, stats.rejected_requests), (0, 2));
    common::shutdown_node(server, worker);
}

/// Two `Content-Length`s that differ leave it to the reader where the body
/// ends, and whitespace before a colon leaves it to the reader whether the
/// line is the length at all: both are `400` and a close. Two that agree
/// are one length.
#[test]
fn differing_content_lengths_and_a_spaced_colon_get_a_400() {
    let (server, worker) = start_server(loopback_config());
    for head in [
        "Content-Length: 2\r\nContent-Length: 3\r\n",
        "Content-Length : 3\r\n",
    ] {
        let wire = format!("POST /v1/invoke/EchoComp HTTP/1.1\r\n{head}\r\nabc");
        let reply = exchange_until_close(&server, wire.as_bytes());
        assert!(reply.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{reply}");
        assert_eq!(reply.matches("HTTP/1.1 ").count(), 1, "{reply}");
        assert!(reply.contains("\"malformed_request\""), "{reply}");
    }
    let agreeing = "POST /v1/invoke/EchoComp HTTP/1.1\r\nConnection: close\r\n\
                    Content-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
    let reply = exchange_until_close(&server, agreeing.as_bytes());
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
    assert!(reply.ends_with("\r\n\r\nabc"), "{reply}");
    let stats = server.stats();
    assert_eq!((stats.requests, stats.rejected_requests), (1, 2));
    common::shutdown_node(server, worker);
}

#[test]
fn oversized_heads_and_bodies_get_431_and_413() {
    let config = ServerConfig {
        limits: ParseLimits {
            max_head_bytes: 512,
            max_body_bytes: 1024,
        },
        ..loopback_config()
    };
    let (server, worker) = start_server(config);

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "x".repeat(600)
    );
    stream.write_all(huge_header.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 431 "));
    assert!(reply.contains("\"headers_too_large\""));

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /v1/invoke/EchoComp HTTP/1.1\r\nContent-Length: 4096\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 413 "));
    assert!(reply.contains("\"body_too_large\""));
    common::shutdown_node(server, worker);
}

#[test]
fn slow_clients_hit_the_read_deadline_with_a_408() {
    let (server, worker) = start_server(loopback_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Half a request, then a stall longer than the 250 ms deadline.
    stream.write_all(b"GET /healthz HTT").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 408 "));
    assert!(reply.contains("\"read_timeout\""));
    assert_eq!(server.stats().timeouts, 1);

    // An *idle* keep-alive connection is closed silently instead.
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = String::new();
    idle.read_to_string(&mut reply).unwrap();
    assert!(reply.is_empty(), "idle close carries no response");
    common::shutdown_node(server, worker);
}

#[test]
fn drip_feeding_bytes_cannot_reset_the_request_deadline() {
    let (server, worker) = start_server(loopback_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Send one byte every 50 ms — each read succeeds, but the per-request
    // deadline (250 ms from the first byte) must still fire.
    let start = std::time::Instant::now();
    let writer = {
        let mut stream = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            for byte in b"GET /healthz HTTP/1.1\r\nHost: svc\r\n" {
                if stream.write_all(&[*byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };
    // The writer may drip one more byte into the connection the server has
    // already closed; the peer answers that with a reset, which replaces the
    // EOF this read would have ended on. What counts is what arrived first.
    let mut reply = Vec::new();
    if let Err(error) = stream.read_to_end(&mut reply) {
        assert_eq!(
            error.kind(),
            std::io::ErrorKind::ConnectionReset,
            "only a reset may stand in for the EOF: {error}"
        );
    }
    let reply = utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 408 "), "got: {reply}");
    assert!(reply.contains("\"read_timeout\""), "got: {reply}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "the deadline must fire from the first byte, not the last read"
    );
    writer.join().unwrap();
    common::shutdown_node(server, worker);
}

#[test]
fn admission_control_rejects_connections_past_the_limit() {
    let config = ServerConfig {
        max_connections: 2,
        event_loops: 1,
        ..loopback_config()
    };
    let (server, worker) = start_server(config);
    // Two idle keep-alive connections occupy the whole admission budget
    // (they cost the event loop memory only, but the cap is the cap).
    let hold_a = TcpStream::connect(server.local_addr()).unwrap();
    let hold_b = TcpStream::connect(server.local_addr()).unwrap();
    // Give the accept loop time to admit both before the third arrives.
    std::thread::sleep(Duration::from_millis(100));
    let mut rejected = TcpStream::connect(server.local_addr()).unwrap();
    rejected
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = String::new();
    rejected.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 503 "), "got: {reply}");
    assert!(reply.contains("\"overloaded\""));
    assert!(reply.contains("\"retryable\":true"));
    assert_eq!(server.stats().rejected_connections, 1);
    drop(hold_a);
    drop(hold_b);
    common::shutdown_node(server, worker);
}

/// Counts the threads of the server bound to `port` (Linux procfs): its event
/// loops carry the port in their kernel name, and a thread spawned without a
/// name inherits its creator's, so a thread any of them started for a
/// connection would be counted too. The process-wide `Threads:` figure is no
/// use here — sibling tests start and stop servers while this one runs.
fn server_thread_count(port: u16) -> usize {
    let suffix = format!("@{port}");
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(Result::ok)
        // A sibling's thread may exit between the listing and the read.
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|name| name.trim_end().ends_with(&suffix))
        .count()
}

/// The tentpole invariant: two event-loop threads hold >= 1000 concurrently
/// open keep-alive connections — the server's thread count stays flat while
/// connections scale, and sampled connections still serve requests.
#[test]
fn two_event_loops_sustain_a_thousand_open_connections() {
    const CONNECTIONS: usize = 1000;
    dandelion_server::raise_nofile_limit(3 * CONNECTIONS as u64 + 256).unwrap();
    let config = ServerConfig {
        // Long deadlines so the held connections stay open for the whole
        // test; admission must clear the 1000 plus the sampling clients.
        read_timeout: Duration::from_secs(60),
        max_connections: CONNECTIONS + 64,
        ..loopback_config()
    };
    let (server, worker) = start_server(config);
    let port = server.local_addr().port();
    // A thread names itself as its first act, which `start` does not wait
    // for.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server_thread_count(port) != 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "{} threads carry the server's name, expected one per event loop",
            server_thread_count(port)
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut held = Vec::with_capacity(CONNECTIONS);
    for index in 0..CONNECTIONS {
        match TcpStream::connect(server.local_addr()) {
            Ok(stream) => held.push(stream),
            Err(error) => panic!("connection {index} refused: {error}"),
        }
    }
    // Connections pin no threads: the count is what it was at startup.
    assert_eq!(
        server_thread_count(port),
        2,
        "open connections must not grow the thread count"
    );
    // The gauge sees (at least) the held connections once the loops have
    // adopted them all.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while (server.stats().open_connections as usize) < CONNECTIONS {
        assert!(
            std::time::Instant::now() < deadline,
            "only {} of {CONNECTIONS} connections adopted",
            server.stats().open_connections
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // A sample of the held sockets serves real requests while the other
    // hundreds sit idle on the same two loops.
    for stream in held.iter_mut().step_by(100) {
        stream
            .write_all(b"POST /v1/invoke/EchoComp HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reply = [0u8; 4096];
        let mut filled = 0;
        while !reply[..filled].windows(5).any(|w| w == b"hello") {
            let n = stream.read(&mut reply[filled..]).unwrap();
            assert!(n > 0, "server closed mid-response");
            filled += n;
        }
        let text = utf8_lossy(&reply[..filled]);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
    }
    assert_eq!(server_thread_count(port), 2);
    drop(held);
    assert!(common::shutdown_node(server, worker));
}

/// Per-client rate limiting: a burst beyond the token bucket gets `429`
/// with the stable `rate_limited` code, the connection survives, and the
/// refusal is counted.
#[test]
fn rate_limited_clients_get_429_and_keep_their_connection() {
    use dandelion_server::RateLimit;
    let config = ServerConfig {
        rate_limit: Some(RateLimit {
            requests_per_sec: 1,
            burst: 3,
        }),
        // Longer than the refill wait below, so the idle close stays out of
        // this test's way.
        read_timeout: Duration::from_secs(10),
        ..loopback_config()
    };
    let (server, worker) = start_server(config);
    let mut client =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let mut limited = 0;
    for _ in 0..6 {
        let response = client.request(&HttpRequest::get("/healthz")).unwrap();
        match response.status.0 {
            200 => {}
            429 => {
                limited += 1;
                assert!(response.body_text().contains("\"rate_limited\""));
                assert!(response.body_text().contains("\"retryable\":true"));
            }
            status => panic!("unexpected status {status}"),
        }
    }
    assert!(limited >= 2, "burst of 3 must cap 6 rapid requests");
    assert_eq!(server.stats().rate_limited, limited as u64);
    // The connection is still usable: wait for a refill token.
    std::thread::sleep(Duration::from_millis(1100));
    let ok = client.request(&HttpRequest::get("/healthz")).unwrap();
    assert_eq!(ok.status.0, 200);
    common::shutdown_node(server, worker);
}

/// The serving-layer gauges ride inside `GET /v1/stats` under `"server"`,
/// and silent idle closes are observable.
#[test]
fn server_stats_are_exposed_through_v1_stats() {
    let (server, worker) = start_server(loopback_config());
    // One idle connection that will be closed silently (250 ms window).
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let mut client =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    // `TcpStream::connect` returns before the server's loop has accepted
    // the idle connection, so poll the gauge instead of trusting one
    // sample of the stats document.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let open = loop {
        let response = client.request(&HttpRequest::get("/v1/stats")).unwrap();
        assert_eq!(response.status.0, 200);
        let document =
            dandelion_common::JsonValue::parse(&response.body_text()).expect("stats body is JSON");
        let gauges = document.get("server").expect("server object present");
        assert!(gauges.get("accepted").is_some());
        assert!(gauges.get("rate_limited").is_some());
        let open = gauges
            .get("open_connections")
            .and_then(dandelion_common::JsonValue::as_u64)
            .expect("open_connections gauge");
        if open >= 2 || std::time::Instant::now() >= deadline {
            break open;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(open >= 2, "idle + client connection are open, got {open}");

    // The idle connection is closed silently and counted.
    let mut reply = String::new();
    idle.read_to_string(&mut reply).unwrap();
    assert!(reply.is_empty(), "idle close carries no response");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().idle_closed == 0 {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }
    // The first client may have been idle-closed too by now (same 250 ms
    // window); fetch the updated document on a fresh connection.
    let mut client =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let response = client.request(&HttpRequest::get("/v1/stats")).unwrap();
    let document = dandelion_common::JsonValue::parse(&response.body_text()).unwrap();
    let reported = document
        .get("server")
        .and_then(|server| server.get("idle_closed"))
        .and_then(dandelion_common::JsonValue::as_u64)
        .expect("idle_closed gauge present");
    // More connections may idle out between the render and this check, so
    // bound rather than pin the value.
    assert!((1..=server.stats().idle_closed).contains(&reported));

    // After shutdown the gauges unregister: the frontend outlives the
    // server and must not report a dead server's numbers.
    let frontend = Arc::clone(server.frontend());
    common::stop_and_check_loops(server);
    let stats = frontend.handle(&HttpRequest::get("/v1/stats"));
    let document = dandelion_common::JsonValue::parse(&stats.body_text()).unwrap();
    assert!(
        document.get("server").is_none(),
        "stopped server still reports gauges"
    );
    common::finish_worker(&worker);
}

/// Two servers on one frontend: stopping the one started first leaves the
/// other's gauges in `/v1/stats`, and stopping the other takes them away.
#[test]
fn a_stopping_server_leaves_another_servers_stats_in_place() {
    let worker = test_worker();
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let first = Server::start(loopback_config(), Arc::clone(&frontend)).expect("server binds");
    let second = Server::start(loopback_config(), Arc::clone(&frontend)).expect("server binds");
    let served_gauges = |server: &Server| {
        let mut client =
            HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
        let response = client.request(&HttpRequest::get("/v1/stats")).unwrap();
        assert_eq!(response.status.0, 200);
        let document = dandelion_common::JsonValue::parse(&response.body_text()).unwrap();
        document.get("server").cloned()
    };
    assert!(served_gauges(&first).is_some());
    common::stop_and_check_loops(first);
    let gauges = served_gauges(&second).expect("the running server still reports");
    let accepted = gauges
        .get("accepted")
        .and_then(dandelion_common::JsonValue::as_u64);
    assert!(
        accepted.is_some_and(|accepted| accepted >= 1),
        "the running server's own gauges: {accepted:?}"
    );
    common::stop_and_check_loops(second);
    let stats = frontend.handle(&HttpRequest::get("/v1/stats"));
    let document = dandelion_common::JsonValue::parse(&stats.body_text()).unwrap();
    assert!(document.get("server").is_none(), "no server is running");
    common::finish_worker(&worker);
}

/// A sync `/v1/invoke` response carries no invocation id, so nobody can poll
/// for it: its outcome is handed to the connection and nothing stays behind
/// in the worker. A submitted invocation is retained until it is consumed or
/// `completed_retention` (1 024) newer ones finish. `/v1/stats` shows both.
#[test]
fn sync_invokes_retain_nothing_and_submitted_invocations_stay_pollable() {
    use dandelion_common::JsonValue;
    let (server, worker) = start_server(loopback_config());
    let mut client =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let retained_results = |client: &mut HttpClientConnection| {
        let response = client.request(&HttpRequest::get("/v1/stats")).unwrap();
        let document = JsonValue::parse(&response.body_text()).expect("stats body is JSON");
        assert_eq!(
            document.get("inflight").and_then(JsonValue::as_u64),
            Some(0)
        );
        document
            .get("retained_results")
            .and_then(JsonValue::as_u64)
            .expect("retained_results gauge")
    };

    // Three times the retention limit, so retaining them would show.
    for index in 0..3_000 {
        let body = format!("sync {index}");
        let response = client
            .request(&HttpRequest::post(
                "/v1/invoke/EchoComp",
                body.clone().into_bytes(),
            ))
            .unwrap();
        assert_eq!(response.status.0, 200);
        assert_eq!(response.body_text(), body);
    }
    assert_eq!(retained_results(&mut client), 0);

    let poll = |client: &mut HttpClientConnection, id: &str| {
        let response = client
            .request(&HttpRequest::get(format!("/v1/invocations/{id}")))
            .unwrap();
        assert_eq!(response.status.0, 200, "{id} is no longer pollable");
        let document = JsonValue::parse(&response.body_text()).expect("status body is JSON");
        document
            .get("status")
            .and_then(JsonValue::as_str)
            .expect("status field")
            .to_string()
    };
    let ids: Vec<String> = (0..10)
        .map(|index| {
            let response = client
                .request(&HttpRequest::post(
                    "/v1/invocations/EchoComp",
                    format!("async {index}").into_bytes(),
                ))
                .unwrap();
            assert_eq!(response.status.0, 202);
            JsonValue::parse(&response.body_text())
                .unwrap()
                .get("invocation_id")
                .and_then(JsonValue::as_str)
                .expect("invocation id")
                .to_string()
        })
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    for id in &ids {
        while poll(&mut client, id) != "completed" {
            assert!(std::time::Instant::now() < deadline, "{id} never completed");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert_eq!(retained_results(&mut client), 10);
    // Polling is non-consuming: every one is still there.
    for id in &ids {
        assert_eq!(poll(&mut client, id), "completed");
    }
    assert_eq!(retained_results(&mut client), 10);
    assert_eq!(worker.retained_results(), 10);
    common::shutdown_node(server, worker);
}

/// A client that sends its request and immediately half-closes
/// (`shutdown(SHUT_WR)`) still gets its response: responses owed for
/// received requests drain before the connection closes on EOF.
#[test]
fn half_closed_clients_still_receive_their_responses() {
    let (server, worker) = start_server(loopback_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /v1/invoke/EchoComp HTTP/1.1\r\nContent-Length: 7\r\n\r\nsend-wr")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got: {reply}");
    assert!(reply.ends_with("send-wr"), "got: {reply}");
    common::shutdown_node(server, worker);
}

/// Misconfiguration is a clear error from `Server::start`, not a panic.
#[test]
fn invalid_configs_are_rejected_at_start() {
    let worker = test_worker();
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let bad = ServerConfig {
        max_connections: 0,
        ..loopback_config()
    };
    let error = match Server::start(bad, frontend) {
        Err(error) => error,
        Ok(_) => panic!("zero connections must be rejected"),
    };
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
    assert!(error.to_string().contains("max_connections"));
    common::finish_worker(&worker);
}

/// A client that submits a request whose response it never reads cannot
/// pin buffers forever: once the response stops making progress for
/// `write_timeout`, the connection is closed silently and counted.
#[test]
fn stalled_readers_hit_the_write_deadline_and_are_closed() {
    const BODY_BYTES: usize = 8 * 1024 * 1024;
    let config = ServerConfig {
        write_timeout: Duration::from_millis(400),
        // Long read deadline: receiving the 8 MiB request must not race
        // the write-stall this test is about.
        read_timeout: Duration::from_secs(60),
        limits: ParseLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 2 * BODY_BYTES,
        },
        ..loopback_config()
    };
    let (server, worker) = start_server(config);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    // Cap the client's receive buffer so the kernel cannot absorb the whole
    // response on the reader's behalf: the 8 MiB echo must actually stall.
    shrink_recv_buffer(&stream);
    let mut stream = stream;
    let head = format!("POST /v1/invoke/EchoComp HTTP/1.1\r\nContent-Length: {BODY_BYTES}\r\n\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    let chunk = vec![0x5au8; 1024 * 1024];
    for _ in 0..BODY_BYTES / chunk.len() {
        stream.write_all(&chunk).unwrap();
    }
    // Never read. The write deadline must fire and count the close.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while server.stats().write_timeouts == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "write deadline never fired; stats = {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.stats().write_timeouts, 1);
    drop(stream);
    common::shutdown_node(server, worker);
}

/// Clamps a socket's `SO_RCVBUF` so the kernel stops absorbing data for a
/// client that never reads (TCP auto-tuning would otherwise buffer tens of
/// megabytes on loopback and mask a write stall).
fn shrink_recv_buffer(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    let size: i32 = 16 * 1024;
    // SAFETY: the kernel reads the `i32` behind the pointer, which lives
    // across the call, and no more than its size; the socket is the
    // stream's, borrowed for the call.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            &size as *const i32 as *const std::ffi::c_void,
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
}

/// `WorkerNode::begin_drain` under live pipelined traffic on a real
/// socket: already-submitted invocations complete with `200`, new ones are
/// refused with a retryable `503`, and `end_drain` restores service.
#[test]
fn worker_drain_completes_pipelined_invocations_over_real_sockets() {
    let worker = test_worker();
    worker
        .register_function(FunctionArtifact::new(
            "Slow",
            &["Out"],
            |ctx: &mut FunctionCtx| {
                std::thread::sleep(Duration::from_millis(200));
                let data = ctx.single_input("In")?.data.clone();
                ctx.push_output("Out", dandelion_common::DataItem::new("slow", data))
            },
        ))
        .unwrap();
    worker
        .register_composition_dsl(
            "composition SlowComp(Input) => Output { Slow(In = all Input) => (Output = Out); }",
        )
        .unwrap();
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let config = ServerConfig {
        read_timeout: Duration::from_secs(10),
        ..loopback_config()
    };
    let server = Server::start(config, frontend).expect("server binds");

    // Pipeline three invocations on one connection without reading any
    // response, so all three are in flight when the drain signal rises.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for index in 0..3u8 {
        let body = format!("drain-{index}");
        let request = format!(
            "POST /v1/invoke/SlowComp HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        stream.write_all(request.as_bytes()).unwrap();
    }
    // Let the pipelined requests reach the worker, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    worker.begin_drain();
    assert!(worker.is_draining());

    // New work is refused while draining — retryable, from the worker.
    let mut late =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let refused = late
        .request(&HttpRequest::post("/v1/invoke/SlowComp", b"late".to_vec()))
        .unwrap();
    assert_eq!(refused.status.0, 503, "got: {}", refused.body_text());
    assert!(refused.body_text().contains("draining"));

    // The three in-flight pipelined invocations all complete in order.
    let mut decoder = dandelion_http::ResponseDecoder::new(dandelion_http::ParseLimits::default());
    for index in 0..3u8 {
        let response = loop {
            if let Some(response) = decoder.next_response().unwrap() {
                break response;
            }
            let read = decoder.read_from(&mut stream, 64 * 1024).unwrap();
            assert!(
                read > 0,
                "server closed before answering all pipelined work"
            );
        };
        assert_eq!(response.status.0, 200, "got: {}", response.body_text());
        assert_eq!(response.body_text(), format!("drain-{index}"));
    }

    // Lowering the signal restores service.
    worker.end_drain();
    let restored = late
        .request(&HttpRequest::post("/v1/invoke/SlowComp", b"back".to_vec()))
        .unwrap();
    assert_eq!(restored.status.0, 200);
    assert_eq!(restored.body_text(), "back");
    assert!(
        common::shutdown_node(server, worker),
        "drained server shuts down cleanly"
    );
}

/// Edge-triggered delivery must never strand buffered bytes: a request
/// arriving in adversarial fragment sizes (with pauses long enough that
/// each fragment is its own readiness edge) is still parsed and answered
/// in full, including fragments that split the head, straddle the
/// head/body boundary, or glue the tail of one pipelined request to the
/// start of the next.
#[test]
fn edge_triggered_reads_survive_adversarial_fragmentation() {
    let config = ServerConfig {
        read_timeout: Duration::from_secs(30),
        ..loopback_config()
    };
    let (server, worker) = start_server(config);
    // A deterministic xorshift stream makes each pattern reproducible
    // while still exploring very different split points.
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next_split = |max: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        1 + (state as usize % max)
    };
    for pattern in 0..6 {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        // Two pipelined invocations written as one byte stream, so random
        // splits can land anywhere — including across the request boundary.
        let bodies = [format!("frag-a-{pattern}"), format!("frag-b-{pattern}")];
        let mut wire = Vec::new();
        for body in &bodies {
            wire.extend_from_slice(
                format!(
                    "POST /v1/invoke/EchoComp HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                )
                .as_bytes(),
            );
        }
        // Pattern 0 is the worst case — one byte per edge — the rest use
        // random fragment sizes. The pause lets the loop fully drain to
        // EWOULDBLOCK so the next fragment is a genuinely new edge.
        let mut offset = 0;
        while offset < wire.len() {
            let len = if pattern == 0 {
                1
            } else {
                next_split(11).min(wire.len() - offset)
            };
            stream.write_all(&wire[offset..offset + len]).unwrap();
            offset += len;
            if offset < wire.len() && (pattern == 0 || offset % 3 == 0) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let mut decoder =
            dandelion_http::ResponseDecoder::new(dandelion_http::ParseLimits::default());
        for body in &bodies {
            let response = loop {
                if let Some(response) = decoder.next_response().unwrap() {
                    break response;
                }
                let read = decoder.read_from(&mut stream, 64 * 1024).unwrap();
                assert!(read > 0, "server closed before answering {body}");
            };
            assert_eq!(response.status.0, 200, "pattern {pattern}");
            assert_eq!(&response.body_text(), body, "pattern {pattern}");
        }
    }
    assert!(common::shutdown_node(server, worker));
}

/// Cross-loop posting under churn: connections open, fire pipelined
/// invocations and either collect every response or vanish mid-flight.
/// No `Complete` message may be lost (every surviving client gets every
/// response) and completions for abandoned connections must fall on the
/// recycled slots' stale generation tags — observable as the in-flight
/// gauges draining back to zero instead of leaking.
#[test]
fn completion_storm_with_connection_churn_loses_nothing() {
    let config = ServerConfig {
        read_timeout: Duration::from_secs(30),
        max_connections: 512,
        ..loopback_config()
    };
    let (server, worker) = start_server(config);
    let addr = server.local_addr();
    const THREADS: usize = 4;
    const ROUNDS: usize = 40;
    let workers: Vec<_> = (0..THREADS)
        .map(|thread| {
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let pipelined = 1 + (thread + round) % 3;
                    let bodies: Vec<String> = (0..pipelined)
                        .map(|seq| format!("churn-{thread}-{round}-{seq}"))
                        .collect();
                    for body in &bodies {
                        stream
                            .write_all(
                                format!(
                                    "POST /v1/invoke/EchoComp HTTP/1.1\r\n\
                                     Content-Length: {}\r\n\r\n{}",
                                    body.len(),
                                    body
                                )
                                .as_bytes(),
                            )
                            .unwrap();
                    }
                    // Every third connection abandons its responses: the
                    // slab slot is recycled while completions are still in
                    // flight, which is exactly the stale-generation path.
                    if round % 3 == 2 {
                        drop(stream);
                        continue;
                    }
                    let mut decoder = dandelion_http::ResponseDecoder::new(
                        dandelion_http::ParseLimits::default(),
                    );
                    for body in &bodies {
                        let response = loop {
                            if let Some(response) = decoder.next_response().unwrap() {
                                break response;
                            }
                            let read = decoder.read_from(&mut stream, 64 * 1024).unwrap();
                            assert!(read > 0, "response for {body} lost");
                        };
                        assert_eq!(response.status.0, 200);
                        assert_eq!(&response.body_text(), body, "responses out of order");
                    }
                }
            })
        })
        .collect();
    for worker_thread in workers {
        worker_thread.join().expect("churn thread panicked");
    }
    // Every parked slot was settled — including the abandoned ones, whose
    // completions hit stale tokens: the per-loop in-flight gauges must
    // drain to zero, not leak.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let mut client = HttpClientConnection::connect(addr, Duration::from_secs(10)).unwrap();
        let response = client.request(&HttpRequest::get("/v1/stats")).unwrap();
        assert_eq!(response.status.0, 200);
        let document = dandelion_common::JsonValue::parse(&response.body_text()).unwrap();
        let loops = document
            .get("server")
            .and_then(|gauges| gauges.get("loops"))
            .and_then(dandelion_common::JsonValue::as_array)
            .expect("per-loop gauges present");
        let inflight: u64 = loops
            .iter()
            .map(|entry| {
                entry
                    .get("inflight")
                    .and_then(dandelion_common::JsonValue::as_u64)
                    .expect("inflight gauge")
            })
            .sum();
        if inflight == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "in-flight gauge leaked: {inflight} still registered"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(common::shutdown_node(server, worker));
}

/// Every invocation a node accepts settles exactly once by its teardown,
/// whichever thread settles it: the engine that finished it (sync and
/// submitted invocations), the engine that reported a function's error,
/// and the final sweep for one still running when the node stops. Every
/// served teardown checks `invocations + failures == submitted`
/// ([`common::finish_worker`]); here all three paths run at once, from
/// several connections, and the counts are the ones sent.
#[test]
fn every_accepted_invocation_settles_exactly_once_at_teardown() {
    const CLIENTS: u64 = 3;
    const PAIRS: u64 = 20;
    const SUBMITTED: u64 = 10;
    let worker = test_worker();
    worker
        .register_function(FunctionArtifact::new(
            "Refuse",
            &["Out"],
            |_: &mut FunctionCtx| Err("refused on purpose".into()),
        ))
        .unwrap();
    worker
        .register_function(FunctionArtifact::new(
            "Hold",
            &["Out"],
            |ctx: &mut FunctionCtx| {
                std::thread::sleep(Duration::from_millis(1_000));
                let data = ctx.single_input("In")?.data.clone();
                ctx.push_output("Out", dandelion_common::DataItem::new("held", data))
            },
        ))
        .unwrap();
    for (name, function) in [("RefuseComp", "Refuse"), ("HoldComp", "Hold")] {
        worker
            .register_composition_dsl(&format!(
                "composition {name}(Input) => Output {{ {function}(In = all Input) => (Output = Out); }}"
            ))
            .unwrap();
    }
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let config = ServerConfig {
        read_timeout: Duration::from_secs(10),
        drain_timeout: Duration::from_millis(50),
        ..loopback_config()
    };
    let server = Server::start(config, frontend).expect("server binds");
    let addr = server.local_addr();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let mut connection =
                    HttpClientConnection::connect(addr, Duration::from_secs(10)).unwrap();
                for pair in 0..PAIRS {
                    let body = format!("{client}-{pair}").into_bytes();
                    let echoed = connection
                        .request(&HttpRequest::post("/v1/invoke/EchoComp", body.clone()))
                        .unwrap();
                    assert_eq!(echoed.status.0, 200);
                    let refused = connection
                        .request(&HttpRequest::post("/v1/invoke/RefuseComp", body))
                        .unwrap();
                    assert_eq!(refused.status.0, 422, "{}", refused.body_text());
                }
            })
        })
        .collect();
    let mut client = HttpClientConnection::connect(addr, Duration::from_secs(10)).unwrap();
    for index in 0..SUBMITTED {
        let response = client
            .request(&HttpRequest::post(
                "/v1/invocations/EchoComp",
                format!("async {index}").into_bytes(),
            ))
            .unwrap();
        assert_eq!(response.status.0, 202);
    }
    for thread in clients {
        thread.join().expect("client thread panicked");
    }
    let held = client
        .request(&HttpRequest::post(
            "/v1/invocations/HoldComp",
            b"cancelled".to_vec(),
        ))
        .unwrap();
    assert_eq!(held.status.0, 202);
    drop(client);

    // The server gives up draining `HoldComp` after 50 ms; the worker's
    // final sweep cancels it.
    assert!(!common::shutdown_node(server, Arc::clone(&worker)));
    let stats = worker.stats();
    assert_eq!(stats.submitted, CLIENTS * PAIRS * 2 + SUBMITTED + 1);
    assert_eq!(stats.invocations, CLIENTS * PAIRS + SUBMITTED);
    assert_eq!(stats.failures, CLIENTS * PAIRS + 1);
}

#[test]
fn graceful_shutdown_drains_inflight_invocations() {
    let worker = test_worker();
    worker
        .register_function(FunctionArtifact::new(
            "Slow",
            &["Out"],
            |ctx: &mut FunctionCtx| {
                std::thread::sleep(Duration::from_millis(300));
                let data = ctx.single_input("In")?.data.clone();
                ctx.push_output("Out", dandelion_common::DataItem::new("slow", data))
            },
        ))
        .unwrap();
    worker
        .register_composition_dsl(
            "composition SlowComp(Input) => Output { Slow(In = all Input) => (Output = Out); }",
        )
        .unwrap();
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let server = Server::start(loopback_config(), frontend).expect("server binds");
    let addr = server.local_addr();

    let request_thread = std::thread::spawn(move || {
        let mut client = HttpClientConnection::connect(addr, Duration::from_secs(10)).unwrap();
        client
            .request(&HttpRequest::post(
                "/v1/invoke/SlowComp",
                b"drain me".to_vec(),
            ))
            .unwrap()
    });
    // Let the request reach the worker, then shut down while it runs.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        common::stop_and_check_loops(server),
        "shutdown waits for the invocation"
    );
    let response = request_thread.join().unwrap();
    assert_eq!(response.status.0, 200);
    assert_eq!(response.body_text(), "drain me");
    // A draining server closes the connection after the response.
    assert_eq!(response.headers.get("connection"), Some("close"));
    common::finish_worker(&worker);
}

/// A worker whose `SlowComp` sleeps 150 ms before echoing and whose
/// `EchoComp` answers at once, behind a one-loop server: pipelining a slow
/// request ahead of fast ones parks the fast responses behind the head of
/// the pipeline, so they are all ready in the same loop turn.
fn start_slow_head_server() -> (Server, Arc<WorkerNode>) {
    let worker = test_worker();
    worker
        .register_function(FunctionArtifact::new(
            "Slow",
            &["Out"],
            |ctx: &mut FunctionCtx| {
                std::thread::sleep(Duration::from_millis(150));
                let data = ctx.single_input("In")?.data.clone();
                ctx.push_output("Out", dandelion_common::DataItem::new("slow", data))
            },
        ))
        .unwrap();
    worker
        .register_composition_dsl(
            "composition SlowComp(Input) => Output { Slow(In = all Input) => (Output = Out); }",
        )
        .unwrap();
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let config = ServerConfig {
        event_loops: 1,
        read_timeout: Duration::from_secs(10),
        ..loopback_config()
    };
    let server = Server::start(config, frontend).expect("server binds");
    (server, worker)
}

/// One `server.loops[]` counter of `/v1/stats` summed over the loops, read
/// in-process so that reading it writes nothing to a socket — from the
/// server's own stats source, which a gateway has as a worker's server does.
fn loop_sum(server: &Server, key: &str) -> u64 {
    let document = (server.stats_source())();
    document
        .get("loops")
        .and_then(|loops| loops.as_array())
        .expect("server.loops[] present")
        .iter()
        .map(|entry| {
            entry
                .get(key)
                .and_then(dandelion_common::JsonValue::as_u64)
                .unwrap_or_else(|| panic!("server.loops[].{key} present"))
        })
        .sum()
}

/// One node-wide field of the `"server"` stats document, read like
/// [`loop_sum`].
fn server_field(server: &Server, key: &str) -> u64 {
    (server.stats_source())()
        .get(key)
        .and_then(dandelion_common::JsonValue::as_u64)
        .unwrap_or_else(|| panic!("server.{key} present"))
}

/// `(writes, messages_written)` summed over the loops.
fn write_counters(server: &Server) -> (u64, u64) {
    (
        loop_sum(server, "writes"),
        loop_sum(server, "messages_written"),
    )
}

/// [`write_counters`] once `messages_written` has reached `messages`: the
/// loop accounts a write after the system call returns, by which time the
/// client may already have read the bytes.
fn write_counters_at(server: &Server, messages: u64) -> (u64, u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let counters = write_counters(server);
        if counters.1 >= messages || std::time::Instant::now() >= deadline {
            assert_eq!(counters.1, messages, "messages_written");
            return counters;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn invoke_bytes(composition: &str, body: &str, extra_header: &str) -> Vec<u8> {
    format!(
        "POST /v1/invoke/{composition} HTTP/1.1\r\n{extra_header}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Responses that become ready in one loop turn leave in one vectored
/// write: eight pipelined invocations whose head is slow are answered in
/// request order by far fewer writes than messages, while a client that
/// waits for each response before sending the next costs exactly one write
/// per message.
#[test]
fn pipelined_responses_share_a_write_and_a_depth_one_client_gets_one_each() {
    const PIPELINED: u64 = 8;
    let (server, worker) = start_slow_head_server();
    assert_eq!(write_counters(&server), (0, 0));

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut wire = invoke_bytes("SlowComp", "pipelined-0", "");
    for index in 1..PIPELINED {
        wire.extend(invoke_bytes("EchoComp", &format!("pipelined-{index}"), ""));
    }
    stream.write_all(&wire).unwrap();
    let mut decoder = dandelion_http::ResponseDecoder::new(ParseLimits::default());
    for index in 0..PIPELINED {
        let response = loop {
            if let Some(response) = decoder.next_response().unwrap() {
                break response;
            }
            assert!(decoder.read_from(&mut stream, 64 * 1024).unwrap() > 0);
        };
        assert_eq!(response.status.0, 200);
        assert_eq!(response.body_text(), format!("pipelined-{index}"));
    }
    let (writes, messages) = write_counters_at(&server, PIPELINED);
    assert!(
        writes <= PIPELINED / 2,
        "{messages} responses ready behind one slow head took {writes} writes"
    );

    // Depth one: every response is alone in its turn.
    let mut client =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    for index in 0..10 {
        let body = format!("alone-{index}");
        let response = client
            .request(&HttpRequest::post(
                "/v1/invoke/EchoComp",
                body.clone().into_bytes(),
            ))
            .unwrap();
        assert_eq!(response.body_text(), body);
    }
    let (writes_after, _) = write_counters_at(&server, messages + 10);
    assert_eq!(
        writes_after - writes,
        10,
        "an unpipelined client must cost exactly one write per response"
    );
    common::shutdown_node(server, worker);
}

/// `Connection: close` in the middle of a pipeline ends the batch it rides
/// in: the responses up to and including the closing one are delivered (in
/// one write here — both are ready when the slow head settles), the request
/// pipelined behind it is never answered, and the connection closes.
#[test]
fn connection_close_mid_pipeline_ends_the_batch_and_discards_the_rest() {
    let (server, worker) = start_slow_head_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut wire = invoke_bytes("SlowComp", "first", "");
    wire.extend(invoke_bytes("EchoComp", "closing", "Connection: close\r\n"));
    wire.extend(invoke_bytes("EchoComp", "never-answered", ""));
    stream.write_all(&wire).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap(); // EOF proves the close
    assert_eq!(reply.matches("HTTP/1.1 200 OK\r\n").count(), 2, "{reply}");
    let first = reply.find("first").expect("first response delivered");
    let closing = reply.find("closing").expect("closing response delivered");
    assert!(first < closing, "responses out of request order: {reply}");
    assert_eq!(reply.matches("Connection: keep-alive\r\n").count(), 1);
    assert_eq!(reply.matches("Connection: close\r\n").count(), 1);
    assert!(reply.ends_with("closing"), "{reply}");
    assert!(!reply.contains("never-answered"));
    assert_eq!(write_counters_at(&server, 2), (1, 2));
    assert_eq!(
        server.stats().requests,
        2,
        "the third request is not parsed"
    );
    common::shutdown_node(server, worker);
}

/// What holds a `GatedComp` invocation on its engine until the test lets go:
/// behind such a head a connection's responses stay owed, so what it takes in
/// meanwhile is exactly what its pipeline has room for — a count, no timing.
struct Gate(Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>);

impl Gate {
    /// Registers `GatedComp` (echoes its input once the gate is open).
    fn register(worker: &WorkerNode) -> Gate {
        let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let held = Arc::clone(&gate);
        worker
            .register_function(FunctionArtifact::new(
                "Gated",
                &["Out"],
                move |ctx: &mut FunctionCtx| {
                    let (open, opened) = &*held;
                    drop(opened.wait_while(open.lock().unwrap(), |open| !*open));
                    let data = ctx.single_input("In")?.data.clone();
                    ctx.push_output("Out", dandelion_common::DataItem::new("gated", data))
                },
            ))
            .unwrap();
        worker
            .register_composition_dsl(
                "composition GatedComp(Input) => Output { Gated(In = all Input) => (Output = Out); }",
            )
            .unwrap();
        Gate(gate)
    }

    fn open(&self) {
        *self.0 .0.lock().unwrap() = true;
        self.0 .1.notify_all();
    }
}

/// A test that fails before it opened its gate must fail, not hang in the
/// shutdown of a worker whose engine is still held.
impl Drop for Gate {
    fn drop(&mut self) {
        self.open();
    }
}

/// A one-loop worker server with `GatedComp` registered.
fn start_gated_server(config: ServerConfig) -> (Server, Arc<WorkerNode>, Gate) {
    start_gated_node(ServerConfig {
        event_loops: 1,
        ..config
    })
}

/// A worker server of `config`'s loops with `GatedComp` registered.
fn start_gated_node(config: ServerConfig) -> (Server, Arc<WorkerNode>, Gate) {
    let worker = test_worker();
    let gate = Gate::register(&worker);
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let server = Server::start(config, frontend).expect("server binds");
    (server, worker, gate)
}

fn patient_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_secs(10),
        ..loopback_config()
    }
}

/// The `index`th body of a burst, `len` bytes that say which one it is.
fn burst_body(index: usize, len: usize) -> String {
    let tag = format!("burst-{index};");
    tag.chars().cycle().take(len).collect()
}

/// The next response on `stream`, which must not close before it.
fn next_response(
    decoder: &mut dandelion_http::ResponseDecoder,
    stream: &mut TcpStream,
) -> dandelion_http::HttpResponse {
    loop {
        if let Some(response) = decoder.next_response().unwrap() {
            break response;
        }
        assert!(decoder.read_from(stream, 64 * 1024).unwrap() > 0);
    }
}

/// A client that pipelines one `GatedComp` request and `pipelined - 1`
/// `EchoComp` requests behind it, bodies of `body_len` bytes, from a thread
/// of its own: a server that stops taking in leaves the writer blocked once
/// the socket buffers are full, which is where the rest of a burst belongs.
struct Burst {
    stream: TcpStream,
    writer: std::thread::JoinHandle<()>,
    pipelined: usize,
    body_len: usize,
}

impl Burst {
    fn send(addr: std::net::SocketAddr, pipelined: usize, body_len: usize) -> Burst {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut wire = invoke_bytes("GatedComp", &burst_body(0, body_len), "");
        for index in 1..pipelined {
            wire.extend(invoke_bytes("EchoComp", &burst_body(index, body_len), ""));
        }
        let mut sender = stream.try_clone().unwrap();
        let writer = std::thread::spawn(move || sender.write_all(&wire).unwrap());
        Burst {
            stream,
            writer,
            pipelined,
            body_len,
        }
    }

    /// Every request of the burst is answered `200` with its own body, in
    /// the order sent.
    fn expect_every_answer_in_order(mut self) {
        let mut decoder = dandelion_http::ResponseDecoder::new(ParseLimits::default());
        for index in 0..self.pipelined {
            let response = next_response(&mut decoder, &mut self.stream);
            assert_eq!(response.status.0, 200, "response {index}");
            assert!(
                response.body_str() == burst_body(index, self.body_len),
                "response {index} carries another request's body"
            );
        }
        self.writer.join().unwrap();
    }
}

/// How many requests `server` has taken in once intake has come to rest
/// with only gated heads still in flight: at least `expected`, every other
/// invocation settled, and the loop given turns enough to take in more if
/// its gates let it.
fn intake_at_rest(server: &Server, expected: u64, gated: u64) -> u64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().requests < expected || loop_sum(server, "inflight") != gated {
        assert!(std::time::Instant::now() < deadline, "the burst stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));
    server.stats().requests
}

const KIB: usize = 1024;

/// A worker takes in [`WORKER_PIPELINE_DEPTH`] requests of a connection at
/// a time, so a burst commits no more memory than a full pipeline: behind a
/// head that does not settle, the seven invocations after it run, their
/// responses stay owed, and the sixteen requests behind them are not parsed
/// until the head lets go. Then every one is answered, in order. Bodies of
/// 1 KiB are nowhere near the pipeline's depth in bytes: the count decides.
#[test]
fn a_worker_connection_takes_in_eight_requests_at_a_time() {
    const PIPELINED: usize = 3 * WORKER_PIPELINE_DEPTH;
    for body_len in [7, KIB] {
        let (server, worker, gate) = start_gated_server(patient_config());
        let burst = Burst::send(server.local_addr(), PIPELINED, body_len);
        assert_eq!(
            intake_at_rest(&server, WORKER_PIPELINE_DEPTH as u64, 1),
            WORKER_PIPELINE_DEPTH as u64,
            "{body_len}-byte bodies"
        );
        assert_eq!(
            loop_sum(&server, "held_bytes"),
            (WORKER_PIPELINE_DEPTH * body_len) as u64
        );
        gate.open();
        burst.expect_every_answer_in_order();
        assert_eq!(server.stats().requests, PIPELINED as u64);
        assert_eq!(loop_sum(&server, "held_bytes"), 0);
        common::shutdown_node(server, worker);
    }
}

/// The pipeline is as deep in bytes as in requests — eight read chunks,
/// 512 KiB: two 256 KiB bodies fill it, so behind a gated head one more
/// request is taken in (and runs: one body lands while another computes)
/// and the rest of the burst stays in the socket, not in the node. Every one
/// is answered in order once the head lets go.
#[test]
fn a_worker_connection_holds_two_large_bodies_not_eight() {
    const PIPELINED: usize = 6;
    let (server, worker, gate) = start_gated_server(patient_config());
    let burst = Burst::send(server.local_addr(), PIPELINED, 256 * KIB);
    assert_eq!(intake_at_rest(&server, 2, 1), 2);
    assert_eq!(loop_sum(&server, "held_bytes"), 2 * 256 * KIB as u64);
    gate.open();
    burst.expect_every_answer_in_order();
    assert_eq!(server.stats().requests, PIPELINED as u64);
    assert_eq!(loop_sum(&server, "held_bytes"), 0);
    common::shutdown_node(server, worker);
}

/// The byte depth never closes a pipeline to fewer than two requests: one
/// request larger than the whole depth is served, and so is the one behind
/// it — taken in while the large one is still held at its gate.
#[test]
fn a_request_above_the_whole_byte_depth_is_still_served() {
    let (server, worker, gate) = start_gated_server(patient_config());
    let burst = Burst::send(server.local_addr(), 4, KIB * KIB);
    assert_eq!(intake_at_rest(&server, 2, 1), 2);
    gate.open();
    burst.expect_every_answer_in_order();
    common::shutdown_node(server, worker);
}

/// The depth is a connection's own: while one connection sits at its closed
/// byte gate, another on the same loop pipelines eight requests and has
/// them answered.
#[test]
fn a_closed_byte_gate_leaves_other_connections_intake_alone() {
    let (server, worker, gate) = start_gated_server(patient_config());
    let burst = Burst::send(server.local_addr(), 4, 256 * KIB);
    assert_eq!(intake_at_rest(&server, 2, 1), 2);

    let mut other = TcpStream::connect(server.local_addr()).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut wire = Vec::new();
    for index in 0..WORKER_PIPELINE_DEPTH {
        wire.extend(invoke_bytes("EchoComp", &format!("other-{index}"), ""));
    }
    other.write_all(&wire).unwrap();
    let mut decoder = dandelion_http::ResponseDecoder::new(ParseLimits::default());
    for index in 0..WORKER_PIPELINE_DEPTH {
        let response = next_response(&mut decoder, &mut other);
        assert_eq!(response.body_text(), format!("other-{index}"));
    }
    // The first connection has not moved meanwhile.
    assert_eq!(server.stats().requests, 2 + WORKER_PIPELINE_DEPTH as u64);
    gate.open();
    burst.expect_every_answer_in_order();
    common::shutdown_node(server, worker);
}

/// A closed byte gate is the server holding the client back, not the client
/// stalling: the front of the next request sits in the receive buffer for
/// longer than `read_timeout` while the gate is closed, and no `408` comes
/// of it — the deadline is neither armed nor sustained by bytes the server
/// chose not to parse.
#[test]
fn a_connection_held_at_its_byte_gate_is_not_timed_out() {
    let read_timeout = Duration::from_millis(250);
    let (server, worker, gate) = start_gated_server(ServerConfig {
        read_timeout,
        ..loopback_config()
    });
    let burst = Burst::send(server.local_addr(), 4, 256 * KIB);
    assert_eq!(intake_at_rest(&server, 2, 1), 2);
    std::thread::sleep(3 * read_timeout);
    assert_eq!(server.stats().timeouts, 0);
    assert_eq!(server.stats().requests, 2);
    gate.open();
    burst.expect_every_answer_in_order();
    assert_eq!(server.stats().timeouts, 0);
    common::shutdown_node(server, worker);
}

/// Sixteen connections, each pipelining four 256 KiB requests behind a gated
/// head, on the three-engine test worker served by `event_loops` loops. The
/// node's budget is three connections' byte depth, 1.5 MiB: every
/// connection's head is taken in — it owes nothing — but past that only
/// three more requests, the most that fit under the budget, plus one for
/// each loop beyond the first (two loops can each read the budget as open
/// before either adds its body). Where a connection's own pipeline took in
/// two, the node takes in 32. What the node holds stays within the budget
/// and a body per connection at every sample, the burst waits at its
/// senders for three read timeouts without a `408`, and once the heads let
/// go every connection gets its four answers in order.
fn a_node_budget_bounds_a_burst(event_loops: usize) {
    const CONNECTIONS: usize = 16;
    const PIPELINED: usize = 4;
    const BODY: usize = 256 * KIB;
    let read_timeout = Duration::from_millis(250);
    let (server, worker, gate) = start_gated_node(ServerConfig {
        event_loops,
        read_timeout,
        ..loopback_config()
    });
    let budget = server_field(&server, "budget_bytes");
    assert_eq!(
        budget,
        (3 * WORKER_PIPELINE_DEPTH * 64 * KIB) as u64,
        "three engines' pipelines"
    );
    let overshoot = event_loops - 1;
    let most_taken = (CONNECTIONS + 3 + overshoot) as u64;
    let most_held = budget + ((CONNECTIONS + overshoot) * BODY) as u64;
    let sample = || {
        let held = server_field(&server, "held_bytes");
        assert!(held <= most_held, "the node holds {held} bytes");
    };
    let bursts: Vec<Burst> = (0..CONNECTIONS)
        .map(|_| Burst::send(server.local_addr(), PIPELINED, BODY))
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().requests < CONNECTIONS as u64 {
        assert!(std::time::Instant::now() < deadline, "a head was refused");
        sample();
        std::thread::sleep(Duration::from_millis(5));
    }
    let rest = std::time::Instant::now() + 3 * read_timeout;
    while std::time::Instant::now() < rest {
        sample();
        std::thread::sleep(Duration::from_millis(5));
    }
    let taken = server.stats().requests;
    assert!(taken <= most_taken, "{taken} requests taken in");
    assert_eq!(server.stats().timeouts, 0);
    gate.open();
    let readers: Vec<_> = bursts
        .into_iter()
        .map(|burst| std::thread::spawn(move || burst.expect_every_answer_in_order()))
        .collect();
    while readers.iter().any(|reader| !reader.is_finished()) {
        sample();
        std::thread::sleep(Duration::from_millis(5));
    }
    for reader in readers {
        reader.join().unwrap();
    }
    assert_eq!(server.stats().requests, (CONNECTIONS * PIPELINED) as u64);
    assert_eq!(server.stats().timeouts, 0);
    common::shutdown_node(server, worker);
}

#[test]
fn a_worker_node_takes_in_past_first_requests_only_under_its_budget() {
    a_node_budget_bounds_a_burst(1);
}

#[test]
fn two_loops_share_one_intake_budget() {
    a_node_budget_bounds_a_burst(2);
}

/// A gateway's pipeline is `max_pipelined` deep, 64 requests or 64 read
/// chunks: a client's burst of 256 KiB bodies stops at sixteen of them —
/// 4 MiB — not at 64 requests. The member behind it gates its head, so
/// the gateway's slots stay owed while the count is read.
#[test]
fn a_gateway_connection_takes_in_large_bodies_by_the_byte_depth() {
    use dandelion_server::{GatewayConfig, Router};
    const PIPELINED: usize = 24;
    let (member, worker, gate) = start_gated_server(patient_config());
    let router = Router::start(GatewayConfig::default());
    let gateway = Server::start_gateway(
        ServerConfig {
            event_loops: 1,
            ..patient_config()
        },
        Arc::clone(&router),
    )
    .expect("gateway binds");
    router.join(member.local_addr()).expect("member joins");
    // The join is a request the gateway served itself.
    let joined = gateway.stats().requests;
    let burst = Burst::send(gateway.local_addr(), PIPELINED, 256 * KIB);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while gateway.stats().requests < joined + 16 {
        assert!(std::time::Instant::now() < deadline, "the burst stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(gateway.stats().requests, joined + 16);
    assert_eq!(loop_sum(&gateway, "held_bytes"), 16 * 256 * KIB as u64);
    gate.open();
    burst.expect_every_answer_in_order();
    assert_eq!(gateway.stats().requests, joined + PIPELINED as u64);
    assert_eq!(loop_sum(&gateway, "held_bytes"), 0);
    common::shutdown(gateway, [(member, worker)]);
}

/// A read that returns fewer bytes than it offered space for is taken as
/// proof the socket is drained — no confirming `EWOULDBLOCK` read follows.
/// Bytes that arrive afterwards must raise a fresh edge and be served: the
/// rest of a request whose first half was a short read, and a whole new
/// request on the then idle connection.
#[test]
fn requests_arriving_after_a_short_read_are_still_served() {
    let (server, worker) = start_server(ServerConfig {
        read_timeout: Duration::from_secs(10),
        ..loopback_config()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = invoke_bytes("EchoComp", "split across two arrivals", "");
    let (front, back) = request.split_at(request.len() / 2);
    let mut decoder = dandelion_http::ResponseDecoder::new(ParseLimits::default());
    let mut receive = |stream: &mut TcpStream| loop {
        if let Some(response) = decoder.next_response().unwrap() {
            break response;
        }
        assert!(decoder.read_from(stream, 64 * 1024).unwrap() > 0);
    };
    // Each pause outlasts a loop turn, so each arrival is read on its own —
    // and short, the chunk being 64 KiB.
    stream.write_all(front).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    stream.write_all(back).unwrap();
    assert_eq!(
        receive(&mut stream).body_text(),
        "split across two arrivals"
    );
    std::thread::sleep(Duration::from_millis(100));
    stream
        .write_all(&invoke_bytes("EchoComp", "after the socket ran dry", ""))
        .unwrap();
    assert_eq!(receive(&mut stream).body_text(), "after the socket ran dry");
    assert_eq!(server.stats().requests, 2);
    common::shutdown_node(server, worker);
}

/// `/v1/stats` says where the resident set is held: `memory.pool` (the
/// global buffer pool's counters and what each size class retains) and
/// `memory.services.resident_bytes` (what the simulated remote services hold
/// in this process). The services materialise content on first use, so the
/// latter moves only when a request names content nobody has read yet — by
/// exactly that content's size.
#[test]
fn memory_stats_attribute_resident_bytes_to_the_content_requests_touched() {
    use dandelion_apps::{matmul, phase_array, setup, PHASE_ARRAY_BYTES, PHASE_SAMPLE};
    use dandelion_common::{DataSet, JsonValue};

    let worker = setup::demo_worker(2, false).unwrap();
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let server = Server::start(
        ServerConfig {
            read_timeout: Duration::from_secs(10),
            ..loopback_config()
        },
        frontend,
    )
    .expect("server binds");
    let client = dandelion_server::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let mut stats_connection =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let mut memory = || {
        let response = stats_connection
            .request(&HttpRequest::get("/v1/stats"))
            .unwrap();
        assert_eq!(response.status.0, 200);
        let document = JsonValue::parse(&response.body_text()).expect("stats body is JSON");
        document.get("memory").expect("memory object").clone()
    };
    let resident_bytes = |memory: &JsonValue| {
        memory
            .get("services")
            .and_then(|services| services.get("resident_bytes"))
            .and_then(JsonValue::as_u64)
            .expect("memory.services.resident_bytes")
    };

    let idle = memory();
    let pool = idle.get("pool").expect("memory.pool");
    for counter in [
        "acquires",
        "reuses",
        "allocations",
        "recycled",
        "discarded",
        "live",
        "retained_buffers",
        "retained_bytes",
    ] {
        assert!(
            pool.get(counter).and_then(JsonValue::as_u64).is_some(),
            "memory.pool.{counter}"
        );
    }
    let classes = pool
        .get("classes")
        .and_then(JsonValue::as_array)
        .expect("memory.pool.classes");
    let class_bytes: Vec<u64> = classes
        .iter()
        .map(|class| {
            assert!(class.get("retained_buffers").is_some());
            assert!(class.get("retained_bytes").is_some());
            class
                .get("class_bytes")
                .and_then(JsonValue::as_u64)
                .unwrap()
        })
        .collect();
    let expected: Vec<u64> = dandelion_common::SIZE_CLASSES
        .iter()
        .map(|bytes| *bytes as u64)
        .collect();
    assert_eq!(class_bytes, expected);

    // Neither workload of the benchmark's reads content that is made on
    // first use: their requests leave the services' bytes where they were.
    client
        .invoke_sync("MatMulApp", vec![matmul::matmul_inputs(1, 3)])
        .expect("MatMulApp runs");
    client
        .invoke_sync(
            "RenderLogs",
            vec![DataSet::single(
                "AccessToken",
                setup::DEMO_TOKEN.as_bytes().to_vec(),
            )],
        )
        .expect("RenderLogs runs");
    assert_eq!(resident_bytes(&memory()), resident_bytes(&idle));

    // A four-phase chain fetches `arrays/<key>` four times; the key after
    // `key` is what SumMinMax derives from that array's sampled sum.
    let mut key = 1u64;
    let mut distinct = std::collections::BTreeSet::new();
    for _ in 0..4 {
        distinct.insert(key);
        let sum: i64 = phase_array(key)
            .chunks_exact(8)
            .step_by(PHASE_ARRAY_BYTES / 8 / PHASE_SAMPLE)
            .map(|chunk| i64::from_le_bytes(chunk.try_into().unwrap()))
            .sum();
        key = sum.unsigned_abs() % 1000;
    }
    client
        .invoke_sync(
            "FetchCompute4",
            vec![DataSet::single("Phase0", b"1".to_vec())],
        )
        .expect("FetchCompute4 runs");
    let touched = resident_bytes(&memory()) - resident_bytes(&idle);
    assert_eq!(touched, (PHASE_ARRAY_BYTES * distinct.len()) as u64);
    // The same chain again reads what is stored now.
    client
        .invoke_sync(
            "FetchCompute4",
            vec![DataSet::single("Phase0", b"1".to_vec())],
        )
        .expect("FetchCompute4 runs again");
    assert_eq!(resident_bytes(&memory()) - resident_bytes(&idle), touched);

    common::shutdown_node(server, worker);
}

/// A 128×128 `MatMulApp` request takes the multiply its matrices' ranges
/// allow — the 16-bit one for ±1 000 values (the benchmark's), the 32-bit
/// one for the extremes of `i32`, the 64-bit one for full-range values —
/// and each answer, taken off a real socket, is byte for byte the encoded
/// product of the reference loop.
#[test]
fn a_served_product_is_the_reference_loops_at_every_operand_width() {
    use dandelion_apps::{matmul, setup};
    use dandelion_common::rng::SplitMix64;
    use dandelion_common::{DataItem, DataSet};
    use dandelion_core::frontend::SET_LIST_CONTENT_TYPE;
    use dandelion_isolation::output_parser;

    const DIMENSION: usize = 128;
    let worker = setup::demo_worker(2, false).unwrap();
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let config = ServerConfig {
        read_timeout: Duration::from_secs(10),
        ..loopback_config()
    };
    let server = Server::start(config, frontend).expect("server binds");
    let mut client =
        HttpClientConnection::connect(server.local_addr(), Duration::from_secs(10)).unwrap();
    let mut rng = SplitMix64::new(29);
    for width in ["short", "narrow", "wide"] {
        let mut matrix = || -> Vec<i64> {
            (0..DIMENSION * DIMENSION)
                .map(|_| match width {
                    "short" => rng.next_bounded(2_001) as i64 - 1_000,
                    "narrow" => match rng.next_bounded(4) {
                        0 => i64::from(i32::MIN),
                        1 => i64::from(i32::MAX),
                        _ => i64::from(rng.next_u64() as i32),
                    },
                    _ => rng.next_u64() as i64,
                })
                .collect()
        };
        let (a, b) = (matrix(), matrix());
        let body = output_parser::encode_outputs(&[DataSet::with_items(
            "Matrices",
            vec![
                DataItem::new("a", matmul::encode_matrix(DIMENSION, &a)),
                DataItem::new("b", matmul::encode_matrix(DIMENSION, &b)),
            ],
        )]);
        let request = HttpRequest::post("/v1/invoke/MatMulApp", body)
            .with_header("Content-Type", SET_LIST_CONTENT_TYPE);
        let response = client.request(&request).unwrap();
        assert_eq!(response.status.0, 200, "{width}: {}", response.body_text());
        let expected = matmul::encode_matrix(DIMENSION, &matmul::multiply(DIMENSION, &a, &b));
        assert!(
            response.body.as_slice() == expected.as_slice(),
            "{width}: {} bytes that are not the reference loop's product",
            response.body.len()
        );
    }
    assert!(common::shutdown_node(server, worker), "drains cleanly");
}
