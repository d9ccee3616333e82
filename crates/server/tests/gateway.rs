//! Cluster gateway integration tests over real sockets: routing with the
//! `X-Dandelion-Node` stamp, registration broadcast, member failure under
//! load (ejection + survivors), owner-routed polls, draining, the
//! zero-copy proxy invariant, and heads refused before they are forwarded.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dandelion_common::JsonValue;
use dandelion_core::WorkerNode;
use dandelion_http::HttpRequest;
use dandelion_server::{GatewayConfig, Router, Server, ServerConfig};

mod common;
use common::{
    connect, shutdown, start_gateway, start_gateway_pipelining, start_member,
    start_member_idling_out_after, stop_and_check_loops, test_gateway_config,
};

/// `node-id → addr` rows from the gateway's membership document.
fn member_table(gateway: SocketAddr) -> Vec<(String, SocketAddr, String)> {
    let mut client = connect(gateway);
    let response = client
        .request(&HttpRequest::get("/v1/cluster/members"))
        .unwrap();
    assert_eq!(response.status.0, 200);
    let document = JsonValue::parse(&response.body_text()).expect("members JSON");
    document
        .get("members")
        .and_then(JsonValue::as_array)
        .expect("members array")
        .iter()
        .map(|member| {
            (
                member
                    .get("node")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
                member
                    .get("addr")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .parse()
                    .unwrap(),
                member
                    .get("state")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn gateway_routes_invocations_and_stamps_the_answering_node() {
    let members: Vec<(Server, Arc<WorkerNode>)> = (0..3).map(|_| start_member()).collect();
    let addrs: Vec<SocketAddr> = members
        .iter()
        .map(|(server, _)| server.local_addr())
        .collect();
    let (gateway, _router) = start_gateway(test_gateway_config(), &addrs);

    let mut client = connect(gateway.local_addr());
    let health = client.request(&HttpRequest::get("/healthz")).unwrap();
    assert_eq!(health.status.0, 200);
    assert_eq!(health.body_text(), "ok");

    // The membership document sees all three members healthy.
    let table = member_table(gateway.local_addr());
    assert_eq!(table.len(), 3);
    assert!(table.iter().all(|(_, _, state)| state == "healthy"));

    // The composition list is the union of what the members advertise.
    let listed = client
        .request(&HttpRequest::get("/v1/compositions"))
        .unwrap();
    assert!(listed.body_text().contains("EchoComp"));

    // Invocations proxy through with the answering node stamped, and the
    // composition-affinity routing keeps them on one member.
    let mut nodes_seen = Vec::new();
    for index in 0..12 {
        let payload = format!("payload-{index}");
        let response = client
            .request(&HttpRequest::post(
                "/v1/invoke/EchoComp",
                payload.clone().into_bytes(),
            ))
            .unwrap();
        assert_eq!(response.status.0, 200, "got: {}", response.body_text());
        assert_eq!(response.body_text(), payload);
        let node = response
            .headers
            .get("x-dandelion-node")
            .expect("proxied responses carry the answering node")
            .to_string();
        nodes_seen.push(node);
    }
    assert!(
        nodes_seen.iter().all(|node| node == &nodes_seen[0]),
        "affinity must keep EchoComp on one member, saw {nodes_seen:?}"
    );

    // The gateway's stats document reports its role and the proxy counter.
    let stats = client.request(&HttpRequest::get("/v1/stats")).unwrap();
    let document = JsonValue::parse(&stats.body_text()).expect("stats JSON");
    assert_eq!(
        document.get("role").and_then(JsonValue::as_str),
        Some("gateway")
    );
    let proxied = document
        .get("proxied")
        .and_then(JsonValue::as_u64)
        .expect("proxied counter");
    assert!(proxied >= 12, "proxied = {proxied}");
    assert!(
        document.get("server").is_some(),
        "serving-layer gauges ride in the gateway stats"
    );

    assert!(shutdown(gateway, members), "gateway drains cleanly");
}

#[test]
fn composition_registration_broadcasts_to_every_member() {
    let members: Vec<(Server, Arc<WorkerNode>)> = (0..2).map(|_| start_member()).collect();
    let addrs: Vec<SocketAddr> = members
        .iter()
        .map(|(server, _)| server.local_addr())
        .collect();
    let (gateway, _router) = start_gateway(test_gateway_config(), &addrs);

    let dsl =
        "composition GatewayComp(Input) => Output { Echo(In = all Input) => (Output = Out); }";
    let mut client = connect(gateway.local_addr());
    let created = client
        .request(&HttpRequest::post(
            "/v1/compositions",
            dsl.as_bytes().to_vec(),
        ))
        .unwrap();
    assert_eq!(created.status.0, 201, "got: {}", created.body_text());
    assert!(created.body_text().contains("GatewayComp"));
    assert!(created.body_text().contains("\"nodes\":2"));

    // Every member really holds the composition (not just the table).
    for addr in &addrs {
        let mut member = connect(*addr);
        let listed = member
            .request(&HttpRequest::get("/v1/compositions"))
            .unwrap();
        assert!(
            listed.body_text().contains("GatewayComp"),
            "member {addr} did not register the broadcast composition"
        );
    }

    // And the gateway can invoke it immediately — the advertisement did not
    // wait for the next health probe.
    let response = client
        .request(&HttpRequest::post(
            "/v1/invoke/GatewayComp",
            b"broadcast".to_vec(),
        ))
        .unwrap();
    assert_eq!(response.status.0, 200, "got: {}", response.body_text());
    assert_eq!(response.body_text(), "broadcast");

    shutdown(gateway, members);
}

/// Kill one of three members under live load: the health checker ejects it
/// within its window, the survivors keep serving, and the only errors are
/// the bounded set of exchanges already in flight toward the dead node.
#[test]
fn killing_a_member_under_load_ejects_it_and_survivors_keep_serving() {
    let mut members: Vec<Option<(Server, Arc<WorkerNode>)>> =
        (0..3).map(|_| Some(start_member())).collect();
    let addrs: Vec<SocketAddr> = members
        .iter()
        .map(|member| member.as_ref().unwrap().0.local_addr())
        .collect();
    let (gateway, _router) = start_gateway(test_gateway_config(), &addrs);
    let gateway_addr = gateway.local_addr();

    // Find the member the affinity routing sends EchoComp to — killing that
    // one guarantees the failure path actually runs under load.
    let mut probe = connect(gateway_addr);
    let first = probe
        .request(&HttpRequest::post("/v1/invoke/EchoComp", b"probe".to_vec()))
        .unwrap();
    assert_eq!(first.status.0, 200);
    let victim_node = first
        .headers
        .get("x-dandelion-node")
        .expect("node stamp")
        .to_string();
    let victim_addr = member_table(gateway_addr)
        .into_iter()
        .find(|(node, _, _)| *node == victim_node)
        .map(|(_, addr, _)| addr)
        .expect("the answering node is in the member table");

    // Live load from four keep-alive clients; transport failures reconnect.
    let stop = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let unexpected = Arc::new(AtomicU64::new(0));
    let load_threads: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let ok = Arc::clone(&ok);
            let failed = Arc::clone(&failed);
            let unexpected = Arc::clone(&unexpected);
            std::thread::spawn(move || {
                let mut client = connect(gateway_addr);
                while !stop.load(Ordering::Relaxed) {
                    match client.request(&HttpRequest::post(
                        "/v1/invoke/EchoComp",
                        b"under-load".to_vec(),
                    )) {
                        Ok(response) => match response.status.0 {
                            200 => {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            502 | 503 => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                unexpected.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(_) => {
                            // The transport died (e.g. the gateway closed the
                            // connection); a real client reconnects.
                            client = connect(gateway_addr);
                        }
                    }
                }
            })
        })
        .collect();

    // Let load build, then kill the victim abruptly mid-traffic.
    std::thread::sleep(Duration::from_millis(200));
    let index = addrs
        .iter()
        .position(|addr| *addr == victim_addr)
        .expect("victim is one of the members");
    let (victim_server, victim_worker) = members[index].take().unwrap();
    victim_server.shutdown();
    victim_worker.shutdown();

    // The health checker must eject the victim within its window (50 ms
    // probes, 3 consecutive failures — the 10 s deadline is pure slack).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let state = member_table(gateway_addr)
            .into_iter()
            .find(|(node, _, _)| *node == victim_node)
            .map(|(_, _, state)| state);
        if state.as_deref() == Some("ejected") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "victim never ejected, state = {state:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    for thread in load_threads {
        thread.join().unwrap();
    }

    // Survivors serve everything after the ejection, and never as the dead
    // node.
    let mut client = connect(gateway_addr);
    for _ in 0..20 {
        let response = client
            .request(&HttpRequest::post(
                "/v1/invoke/EchoComp",
                b"survivor".to_vec(),
            ))
            .unwrap();
        assert_eq!(response.status.0, 200, "got: {}", response.body_text());
        assert_ne!(
            response.headers.get("x-dandelion-node"),
            Some(victim_node.as_str()),
            "the ejected member must receive no new work"
        );
    }

    // Only requests in flight toward the dying node may have failed — a
    // bounded set, not a failure storm; everything else succeeded.
    let ok = ok.load(Ordering::Relaxed);
    let failed = failed.load(Ordering::Relaxed);
    assert_eq!(unexpected.load(Ordering::Relaxed), 0);
    assert!(ok > 0, "load must have been served");
    assert!(
        failed <= 32,
        "failures must be bounded to in-flight exchanges, got {failed} (ok = {ok})"
    );

    // The ejection is visible in the gateway's stats.
    let stats = client.request(&HttpRequest::get("/v1/stats")).unwrap();
    let document = JsonValue::parse(&stats.body_text()).unwrap();
    let ejections = document
        .get("ejections")
        .and_then(JsonValue::as_u64)
        .expect("ejections counter");
    assert!(ejections >= 1);

    shutdown(gateway, members.into_iter().flatten());
}

/// A member closes the gateway's pooled upstream once it has sat idle past
/// the member's read timeout. That is the member's keep-alive policy, not a
/// failure: with one failure enough to eject and no probe due to undo it,
/// the member stays in rotation and the next request is served.
#[test]
fn an_idle_member_closing_its_keep_alives_stays_in_rotation() {
    let member = start_member_idling_out_after(Duration::from_millis(300));
    let config = GatewayConfig {
        fail_threshold: 1,
        probe_interval: Duration::from_secs(60),
        ..test_gateway_config()
    };
    let (gateway, _router) = start_gateway(config, &[member.0.local_addr()]);
    let gateway_addr = gateway.local_addr();
    let mut client = connect(gateway_addr);
    let mut invoke = || {
        client
            .request(&HttpRequest::post("/v1/invoke/EchoComp", b"idle".to_vec()))
            .unwrap()
    };
    assert_eq!(invoke().status.0, 200);
    std::thread::sleep(Duration::from_secs(1));

    assert_eq!(member_table(gateway_addr)[0].2, "healthy");
    let stats = connect(gateway_addr)
        .request(&HttpRequest::get("/v1/stats"))
        .unwrap();
    let document = JsonValue::parse(&stats.body_text()).unwrap();
    assert_eq!(
        document.get("ejections").and_then(JsonValue::as_u64),
        Some(0)
    );
    let next = invoke();
    assert_eq!(next.status.0, 200, "got: {}", next.body_text());

    assert!(shutdown(gateway, [member]), "gateway drains cleanly");
}

/// Submitted invocations are polled on the member that accepted them: the
/// gateway records the owner from the `202` and routes every status poll
/// for that id to the same node.
#[test]
fn polls_follow_the_member_that_accepted_the_submission() {
    let members: Vec<(Server, Arc<WorkerNode>)> = (0..3).map(|_| start_member()).collect();
    let addrs: Vec<SocketAddr> = members
        .iter()
        .map(|(server, _)| server.local_addr())
        .collect();
    let (gateway, _router) = start_gateway(test_gateway_config(), &addrs);

    let mut client = connect(gateway.local_addr());
    for round in 0..6 {
        let submitted = client
            .request(&HttpRequest::post(
                "/v1/invocations/EchoComp",
                format!("submit-{round}").into_bytes(),
            ))
            .unwrap();
        assert_eq!(submitted.status.0, 202, "got: {}", submitted.body_text());
        let owner = submitted
            .headers
            .get("x-dandelion-node")
            .expect("202 carries the accepting node")
            .to_string();
        let document = JsonValue::parse(&submitted.body_text()).unwrap();
        let id = document
            .get("invocation_id")
            .and_then(JsonValue::as_str)
            .expect("submission returns an invocation id")
            .to_string();

        // Poll to a terminal status: every poll must answer from the owner
        // (only the accepting member holds the result).
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let poll = client
                .request(&HttpRequest::get(format!("/v1/invocations/{id}")))
                .unwrap();
            assert_eq!(poll.status.0, 200, "got: {}", poll.body_text());
            assert_eq!(
                poll.headers.get("x-dandelion-node"),
                Some(owner.as_str()),
                "poll for {id} strayed from its owner"
            );
            let status = JsonValue::parse(&poll.body_text())
                .ok()
                .and_then(|doc| {
                    doc.get("status")
                        .and_then(JsonValue::as_str)
                        .map(String::from)
                })
                .expect("status document");
            if status == "completed" {
                break;
            }
            assert_ne!(status, "failed", "invocation failed: {}", poll.body_text());
            assert!(Instant::now() < deadline, "invocation {id} never completed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    shutdown(gateway, members);
}

/// `POST /v1/cluster/drain/{node}`: the member leaves rotation, the drain
/// is relayed so the worker itself refuses new work, and a probe pass
/// removes the member once its in-flight work settles.
#[test]
fn draining_a_member_relays_the_signal_and_removes_it_once_idle() {
    let members: Vec<(Server, Arc<WorkerNode>)> = (0..2).map(|_| start_member()).collect();
    let addrs: Vec<SocketAddr> = members
        .iter()
        .map(|(server, _)| server.local_addr())
        .collect();
    let (gateway, _router) = start_gateway(test_gateway_config(), &addrs);
    let gateway_addr = gateway.local_addr();

    let table = member_table(gateway_addr);
    assert_eq!(table.len(), 2);
    let (drained_node, drained_addr, _) = table[0].clone();

    let mut client = connect(gateway_addr);
    let accepted = client
        .request(&HttpRequest::post(
            format!("/v1/cluster/drain/{drained_node}"),
            Vec::new(),
        ))
        .unwrap();
    assert_eq!(accepted.status.0, 202, "got: {}", accepted.body_text());
    assert!(accepted.body_text().contains("\"draining\""));
    assert!(
        accepted.body_text().contains("\"relayed\":true"),
        "the drain must be relayed to the node: {}",
        accepted.body_text()
    );

    // The relay reached the worker: the drained member's own worker refuses
    // new invocations while the other keeps serving.
    let drained_worker = members
        .iter()
        .find(|(server, _)| server.local_addr() == drained_addr)
        .map(|(_, worker)| worker)
        .expect("drained member is one of ours");
    assert!(drained_worker.is_draining());

    // New work through the gateway always lands on the surviving member.
    for _ in 0..10 {
        let response = client
            .request(&HttpRequest::post(
                "/v1/invoke/EchoComp",
                b"rolling".to_vec(),
            ))
            .unwrap();
        assert_eq!(response.status.0, 200, "got: {}", response.body_text());
        assert_ne!(
            response.headers.get("x-dandelion-node"),
            Some(drained_node.as_str()),
            "a draining member must receive no new work"
        );
    }

    // With nothing in flight a probe pass removes the drained member.
    let deadline = Instant::now() + Duration::from_secs(10);
    while member_table(gateway_addr).len() != 1 {
        assert!(
            Instant::now() < deadline,
            "drained member was never removed: {:?}",
            member_table(gateway_addr)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = client.request(&HttpRequest::get("/v1/stats")).unwrap();
    let document = JsonValue::parse(&stats.body_text()).unwrap();
    assert_eq!(document.get("drained").and_then(JsonValue::as_u64), Some(1));

    shutdown(gateway, members);
}

/// The zero-copy proxy invariant on the served path. A request with no
/// `Connection` line is forwarded as one segment: the bytes it was received
/// in. A member's response reaches the client as views of the member
/// connection's receive buffer — its head's lines and its body — with only
/// the gateway's own two lines added; nothing is decoded and encoded again.
#[test]
fn proxied_response_bodies_keep_their_buffer_identity() {
    use dandelion_common::{NodeId, SharedBytes};
    use dandelion_http::{parse_response, HttpResponse, RequestDecoder, ResponseDecoder};
    use dandelion_server::gateway::{forward_rope, node_line, relay_rope};

    let mut decoder = RequestDecoder::default();
    decoder.feed(
        &HttpRequest::post("/v1/invoke/EchoComp", b"client payload".to_vec())
            .with_header("Host", "gateway")
            .to_bytes(),
    );
    let request = decoder.next_frame().unwrap().expect("complete request");
    let forward = forward_rope(&request);
    assert_eq!(forward.segment_count(), 1);
    let sent = forward.last_segment().expect("a view, not a built head");
    assert!(
        SharedBytes::same_buffer(sent, request.bytes()),
        "the forward must be the client connection's receive buffer, not a copy"
    );
    assert_eq!(sent.as_slice(), request.bytes().as_slice());

    let payload = b"member payload, by reference";
    let wire = HttpResponse::ok(payload.to_vec())
        .with_header("Connection", "keep-alive")
        .to_bytes();
    let mut decoder = ResponseDecoder::default();
    decoder.feed(&wire);
    let response = decoder.next_frame().unwrap().expect("complete response");
    let relayed = relay_rope(&response, &node_line(NodeId::from_raw(3)), false);
    let (member, added): (Vec<&SharedBytes>, Vec<&SharedBytes>) = relayed
        .shared_segments()
        .partition(|segment| SharedBytes::same_buffer(segment, response.bytes()));
    assert_eq!(relayed.segment_count(), member.len() + added.len());
    assert_eq!(
        added.iter().map(|line| line.as_slice()).collect::<Vec<_>>(),
        [
            &b"X-Dandelion-Node: node-3\r\n"[..],
            b"Connection: keep-alive\r\n"
        ],
        "only the gateway's own lines are built"
    );
    let body = member.last().expect("the body is the member's");
    assert!(
        body.ends_with(payload),
        "the body must be the decoder's buffer"
    );
    let delivered = parse_response(&relayed.to_vec()).unwrap();
    assert_eq!(delivered.headers.get("x-dandelion-node"), Some("node-3"));
    assert_eq!(delivered.headers.get_all("connection"), ["keep-alive"]);
    assert_eq!(delivered.body.as_ref(), payload);
}

/// A CR that no LF follows, a bare LF or a NUL in a head is one `400` and a
/// close wherever it arrives: from a member, and from a gateway before any
/// upstream carries it — on a pooled upstream the member's refusal would
/// close a connection other clients' exchanges ride. The `Content-Length`
/// after it is a field to a reader that splits lines at a bare CR or LF
/// and part of `X`'s value to one that does not.
#[test]
fn a_bare_cr_lf_or_nul_in_a_head_gets_one_400_and_a_close() {
    use std::io::{Read, Write};
    let (member, worker) = start_member();
    let (gateway, _router) = start_gateway(test_gateway_config(), &[member.local_addr()]);
    for fields in [
        "X: a\nContent-Length: 5\r\n",
        "X: a\rContent-Length: 5\r\n",
        "X: a\0b\r\nContent-Length: 5\r\n",
    ] {
        let wire = format!(
            "POST /v1/invoke/EchoComp HTTP/1.1\r\n{fields}\r\nhelloGET /healthz HTTP/1.1\r\n\r\n"
        );
        for addr in [member.local_addr(), gateway.local_addr()] {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(wire.as_bytes()).unwrap();
            let mut reply = Vec::new();
            stream.read_to_end(&mut reply).unwrap(); // EOF proves the close
            let reply = String::from_utf8(reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{reply}");
            assert_eq!(reply.matches("HTTP/1.1 ").count(), 1, "{reply}");
            assert!(reply.contains("\"malformed_request\""), "{reply}");
            assert!(reply.contains("Connection: close\r\n"), "{reply}");
        }
    }
    // Each side refused the three it was sent: none reached the member
    // through the gateway.
    assert_eq!(member.stats().rejected_requests, 3);
    assert_eq!(gateway.stats().rejected_requests, 3);
    shutdown(gateway, [(member, worker)]);
}

/// A cluster member that answers the gateway's control-plane probes but
/// never reads an invocation: forwards pile up in its 16 KiB receive
/// buffer and then in the gateway's outbox. Dropping it (`kill`) resets
/// every held connection, unread bytes and all — a member dying with a
/// forward batch partly written.
struct StallingMember {
    addr: SocketAddr,
    kill: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl StallingMember {
    fn start() -> StallingMember {
        use std::io::{Read, Write};
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
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        // Accepted sockets inherit the listener's receive buffer.
        let size: i32 = 16 * 1024;
        // SAFETY: `size` outlives the call and `len` is its size; the fd is
        // the listener's, open for the duration.
        let rc = unsafe {
            setsockopt(
                listener.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVBUF,
                &size as *const i32 as *const std::ffi::c_void,
                std::mem::size_of::<i32>() as u32,
            )
        };
        assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
        let addr = listener.local_addr().unwrap();
        let kill = Arc::new(AtomicBool::new(false));
        let thread = {
            let kill = Arc::clone(&kill);
            std::thread::spawn(move || {
                let mut held = Vec::new();
                for stream in listener.incoming() {
                    if kill.load(Ordering::Acquire) {
                        break;
                    }
                    let mut stream = stream.unwrap();
                    let mut first = [0u8; 4];
                    if stream.peek(&mut first).unwrap_or(0) < 4 || &first != b"GET " {
                        held.push(stream);
                        continue;
                    }
                    // A probe: one small GET, answered and closed.
                    let mut head = Vec::new();
                    let mut byte = [0u8; 1];
                    while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap_or(0) == 1 {
                        head.push(byte[0]);
                    }
                    let body = if head.starts_with(b"GET /v1/compositions") {
                        r#"{"compositions":["EchoComp"]}"#
                    } else {
                        "{}"
                    };
                    let _ = stream.write_all(
                        format!(
                            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                             Connection: close\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        )
                        .as_bytes(),
                    );
                }
            })
        };
        StallingMember { addr, kill, thread }
    }

    fn kill(self) {
        self.kill.store(true, Ordering::Release);
        // Wake the accept loop; it drops the listener and every held socket.
        let _ = std::net::TcpStream::connect(self.addr);
        self.thread.join().unwrap();
    }
}

/// A member dies while a batch of forwards is partly written to it. The
/// batch writer's per-message cursors split the batch exactly: exchanges
/// with any byte on the wire fail `502` (the member may have run them),
/// exchanges with none are replayed — once — on another member. Every
/// pipelined request gets exactly one answer, in request order.
#[test]
fn a_member_killed_mid_forward_batch_splits_it_into_502s_and_single_replays() {
    const REQUESTS: usize = 40;
    const BODY_BYTES: usize = 256 * 1024;
    let stalling = StallingMember::start();
    let config = GatewayConfig {
        // One upstream connection, so the forwards form one batch.
        upstreams_per_loop: 1,
        ..test_gateway_config()
    };
    // A gateway connection's pipeline is `max_pipelined` read chunks deep:
    // at the default 64 (4 MiB) it would take in sixteen of these bodies,
    // which the member's and the gateway's socket buffers all but absorb
    // (fifteen of sixteen had bytes on the wire), and the rest of the burst
    // would wait at the client. This test needs 10 MiB parked behind one
    // client connection, so its gateway is configured that deep.
    let depth = REQUESTS * BODY_BYTES / (64 * 1024);
    let (gateway, router) = start_gateway_pipelining(depth, config, &[stalling.addr]);
    let gateway_addr = gateway.local_addr();

    // Pipeline 10 MiB of invocations without reading a response: more than
    // the stalled member's receive buffer plus the gateway's send buffer
    // can absorb, so the tail of the batch never leaves the gateway.
    let mut client = connect(gateway_addr);
    for index in 0..REQUESTS {
        client
            .send(&HttpRequest::post(
                "/v1/invoke/EchoComp",
                vec![index as u8; BODY_BYTES],
            ))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = connect(gateway_addr)
            .request(&HttpRequest::get("/v1/stats"))
            .unwrap();
        let document = JsonValue::parse(&stats.body_text()).unwrap();
        let inflight: u64 = document
            .get("server")
            .and_then(|server| server.get("loops"))
            .and_then(JsonValue::as_array)
            .expect("server.loops[] present")
            .iter()
            .map(|entry| entry.get("inflight").and_then(JsonValue::as_u64).unwrap())
            .sum();
        if inflight == REQUESTS as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "only {inflight} forwards parked");
        std::thread::sleep(Duration::from_millis(10));
    }

    // A healthy member arrives; then the stalled one dies.
    let (survivor, survivor_worker) = start_member();
    router.join(survivor.local_addr()).expect("survivor joins");
    stalling.kill();

    let mut failed = 0;
    let mut replayed = 0;
    for index in 0..REQUESTS {
        let response = client.receive().expect("every request is answered");
        match response.status.0 {
            502 => {
                assert_eq!(replayed, 0, "a sent exchange behind an unsent one");
                failed += 1;
            }
            200 => {
                assert_eq!(response.body.len(), BODY_BYTES);
                assert!(
                    response.body.iter().all(|&byte| byte == index as u8),
                    "response {index} carries another request's payload"
                );
                replayed += 1;
            }
            other => panic!("request {index} answered {other}"),
        }
    }
    assert!(failed >= 1, "the head of the batch had bytes on the wire");
    assert!(
        replayed >= 1,
        "the tail of the batch never left the gateway"
    );
    assert_eq!(
        survivor_worker.stats().invocations,
        replayed as u64,
        "each unsent exchange ran exactly once"
    );
    let stats = client.request(&HttpRequest::get("/v1/stats")).unwrap();
    let document = JsonValue::parse(&stats.body_text()).unwrap();
    let counter = |key: &str| document.get(key).and_then(JsonValue::as_u64).unwrap();
    assert_eq!(counter("retries"), replayed as u64);
    assert_eq!(counter("upstream_errors"), failed as u64);

    shutdown(gateway, [(survivor, survivor_worker)]);
}

/// A control job still waiting on a member when the gateway shuts down: the
/// drain backstop fails the job's call, and the slot the job holds is
/// released exactly once — no loop stops with `inflight` left.
#[test]
fn the_drain_backstop_releases_the_slot_of_a_waiting_control_job() {
    // A candidate that accepts the join probe and never answers it.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let candidate = silent.local_addr().unwrap();
    let router = Router::start(GatewayConfig {
        probe_timeout: Duration::from_secs(60),
        ..test_gateway_config()
    });
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        event_loops: 1,
        drain_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let gateway = Server::start_gateway(config, Arc::clone(&router)).expect("gateway binds");
    let mut client = connect(gateway.local_addr());
    let body = format!(r#"{{"addr":"{candidate}"}}"#).into_bytes();
    client
        .send(&HttpRequest::post("/v1/cluster/members", body))
        .unwrap();
    // The join's probe reached the candidate: the job holds the slot.
    silent.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let _probe = loop {
        match silent.accept() {
            Ok((probe, _)) => break probe,
            Err(_) => assert!(Instant::now() < deadline, "the join never probed"),
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    stop_and_check_loops(gateway);
}
