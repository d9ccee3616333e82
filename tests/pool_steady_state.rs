//! Committed memory is what is in flight.
//!
//! A node under steady pipelined load allocates no payload buffer: every
//! receive buffer, flattened service reply and function output is written
//! into memory the buffer pool issued, goes back to the class that issued it
//! when its last consumer lets go, and is what the next request of that size
//! pops. And a node that falls idle gives all of it back, whichever thread
//! returned it. All of it is read off the pool's own counters — counts, not timings — with the demo worker
//! served over loopback sockets in this process and driven by clients that
//! use plain vectors, so every pooled buffer counted is the node's.
//!
//! At the parent commit the first test reads one buffer discarded per
//! 128×128 request and 16 MiB retained (the product `Vec` user code allocated
//! was parked in a class no request of its size looks in, and the receive
//! buffer regrew past its class), and the second has nothing that gives
//! buffers back. While the global pool kept a cache per thread, a buffer a
//! live thread returned was parked there, where neither `retained` nor
//! `release_unused` saw it.
//! (`crates/server/tests/cli.rs` has the same two read off spawned nodes:
//! `VmRSS` two seconds after a load, and a member that a gateway keeps
//! probing.)

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use dandelion_apps::matmul::matmul_inputs;
use dandelion_apps::setup::{demo_worker, DEMO_TOKEN};
use dandelion_common::{BufferPool, PoolStats};
use dandelion_core::frontend::SET_LIST_CONTENT_TYPE;
use dandelion_core::{Frontend, WorkerNode};
use dandelion_http::HttpRequest;
use dandelion_isolation::output_parser;
use dandelion_server::{Server, ServerConfig};

const CONNECTIONS: usize = 2;
const DEPTH: usize = 8;
const ROUNDS: usize = 40;

const MIB: usize = 1024 * 1024;

/// The tests read the process-wide pool: one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start_node() -> (Server, Arc<WorkerNode>) {
    let worker = demo_worker(2, false).expect("demo worker starts");
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        event_loops: 2,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    (
        Server::start(config, frontend).expect("server binds"),
        worker,
    )
}

fn matmul128_wire() -> Vec<u8> {
    HttpRequest::post(
        "/v1/invoke/MatMulApp",
        output_parser::encode_outputs(&[matmul_inputs(128, 5)]),
    )
    .with_header("Content-Type", SET_LIST_CONTENT_TYPE)
    .to_bytes()
}

fn render_logs_wire() -> Vec<u8> {
    HttpRequest::post("/v1/invoke/RenderLogs", DEMO_TOKEN.as_bytes().to_vec()).to_bytes()
}

/// Reads `count` responses off `stream` into plain vectors (the decoders of
/// `dandelion_http` would draw on the pool under test); every one must be a
/// `200`. Returns the bytes of the last body.
fn read_responses(stream: &mut TcpStream, pending: &mut Vec<u8>, count: usize) -> usize {
    let mut body_bytes = 0;
    for _ in 0..count {
        let (head_end, length) = loop {
            let head_end = pending.windows(4).position(|window| window == b"\r\n\r\n");
            if let Some(head_end) = head_end {
                let head = std::str::from_utf8(&pending[..head_end]).expect("head is text");
                assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
                let length: usize = head
                    .lines()
                    .find_map(|line| {
                        let (name, value) = line.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().expect("a length"))
                    })
                    .expect("the server declares the length");
                if pending.len() >= head_end + 4 + length {
                    break (head_end + 4, length);
                }
            }
            let mut chunk = [0u8; 64 * 1024];
            let read = stream.read(&mut chunk).expect("the server answers");
            assert!(read > 0, "the server closed the connection");
            pending.extend_from_slice(&chunk[..read]);
        };
        pending.drain(..head_end + length);
        body_bytes = length;
    }
    body_bytes
}

/// `CONNECTIONS` connections send `wire` `DEPTH` deep for `rounds` rounds.
/// Returns the pool's counters at half time and at the end, each read with
/// every response of the rounds before it received, and the body size.
fn pipelined_load(addr: SocketAddr, wire: &[u8], rounds: usize) -> (PoolStats, PoolStats, usize) {
    // Clients and this thread meet at half time and at the end.
    let barrier = Barrier::new(CONNECTIONS + 1);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut stream = TcpStream::connect(addr).expect("client connects");
                    stream.set_nodelay(true).expect("nodelay");
                    let batch = wire.repeat(DEPTH);
                    let mut pending = Vec::new();
                    let mut body_bytes = 0;
                    for round in 0..rounds {
                        if round == rounds / 2 {
                            barrier.wait();
                            barrier.wait();
                        }
                        stream.write_all(&batch).expect("requests leave");
                        body_bytes = read_responses(&mut stream, &mut pending, DEPTH);
                    }
                    barrier.wait();
                    body_bytes
                })
            })
            .collect();
        barrier.wait();
        let half_time = BufferPool::global().stats();
        barrier.wait();
        barrier.wait();
        let end = BufferPool::global().stats();
        let body_bytes = clients
            .into_iter()
            .map(|client| client.join().expect("client finishes"))
            .max()
            .expect("there are clients");
        (half_time, end, body_bytes)
    })
}

fn retained_bytes() -> usize {
    BufferPool::global()
        .retained()
        .iter()
        .map(|class| class.bytes)
        .sum()
}

fn stop_node(server: Server, worker: Arc<WorkerNode>) {
    server.shutdown();
    worker.shutdown();
    drop(worker);
    // Everything the node held is back: issued buffers are recycled,
    // discarded or still live, and with the node gone none is live.
    let stats = BufferPool::global().stats();
    assert_eq!(
        stats.acquires,
        stats.recycled + stats.discarded + stats.live,
        "{stats:?}"
    );
    assert_eq!(stats.live, 0, "{stats:?}");
}

#[test]
fn steady_state_allocates_no_payload_buffer() {
    let _serial = serial();
    let (server, worker) = start_node();
    // Per composition: the smallest body a correct answer has. With 16
    // requests in flight a `MatMulApp` load holds 16 receive buffers and up
    // to as many products, a `RenderLogs` load some twenty buffers of five
    // classes per request (five 8.3 KiB replies flattened, a 41 KiB report,
    // requests, heads and frames); both have found that high-water mark
    // long before half time, and from then on allocate and discard next to
    // nothing (0.9 buffers per 128×128 request at the parent, 14 per
    // `RenderLogs` request).
    for (composition, wire, smallest_body) in [
        ("MatMulApp", matmul128_wire(), 4 + 128 * 128 * 8),
        ("RenderLogs", render_logs_wire(), 40 * 1024),
    ] {
        let (half_time, end, body_bytes) = pipelined_load(server.local_addr(), &wire, ROUNDS);
        assert!(
            body_bytes >= smallest_body,
            "{composition}: {body_bytes}-byte body"
        );
        let churn =
            (end.allocations + end.discarded) - (half_time.allocations + half_time.discarded);
        let churn = churn as f64 / (CONNECTIONS * DEPTH * (ROUNDS - ROUNDS / 2)) as f64;
        println!(
            "{composition}: {churn:.3} buffers per request, {} bytes retained",
            retained_bytes()
        );
        assert!(
            churn <= 0.05,
            "{composition}: {churn:.3} buffers allocated or discarded per request \
             ({half_time:?} -> {end:?})"
        );
        if composition == "MatMulApp" {
            // What was in flight at once, rounded up to its classes: 16
            // receive buffers of 384 KiB (a 262 KiB request and the 64 KiB
            // read behind it) and up to 16 products of 160 KiB for
            // 128 KiB + 4 (in practice a handful: a product lives from the
            // multiply to the write). 16.2 MiB at the parent, in classes no
            // request of those sizes looks in.
            let retained = retained_bytes();
            assert!(
                retained <= 9 * MIB,
                "{composition}: the pool retains {retained} bytes"
            );
        }
    }
    stop_node(server, worker);
}

#[test]
fn an_idle_node_gives_the_pool_back() {
    let _serial = serial();
    let (server, worker) = start_node();
    pipelined_load(server.local_addr(), &matmul128_wire(), 4);
    assert!(retained_bytes() > MIB, "the load left buffers behind");
    stop_node(server, worker);
    // The node's own looks are its dispatcher driver's, twice a second; the
    // same look, taken by hand: with nothing issued in between the second
    // look frees all of it (the first may already free what the load left
    // untouched).
    let pool = BufferPool::global();
    let retained = retained_bytes();
    assert!(retained > MIB);
    let first_look = pool.release_unused();
    assert_eq!(first_look + pool.release_unused(), retained);
    assert_eq!(retained_bytes(), 0);
}

#[test]
fn what_a_live_thread_returns_is_retained_and_released() {
    const FIVE_KIB: usize = 5 * 1024;
    let _serial = serial();
    let pool = BufferPool::global();
    // Two looks with nothing issued in between empty the pool.
    pool.release_unused();
    pool.release_unused();
    assert_eq!(retained_bytes(), 0);
    // A thread that stays alive returns one buffer of the 5 KiB class.
    let (returned_tx, returned) = std::sync::mpsc::channel();
    let (done, done_rx) = std::sync::mpsc::channel::<()>();
    let thread = std::thread::spawn(move || {
        drop(BufferPool::global().acquire(FIVE_KIB));
        returned_tx.send(()).expect("the test waits");
        // Held until the pool has been read; a sender dropped by a failed
        // assertion lets it go too.
        let _ = done_rx.recv();
    });
    returned.recv().expect("the thread returns its buffer");
    let class = pool.retained()[1];
    assert_eq!((class.class_bytes, class.buffers), (FIVE_KIB, 1));
    let first_look = pool.release_unused();
    assert_eq!(first_look + pool.release_unused(), FIVE_KIB);
    assert_eq!(retained_bytes(), 0);
    drop(done);
    thread.join().expect("the thread finishes");
}
