//! The `dandelion-serve` command line: flag validation exits `2` with a
//! message before anything is bound, and a served process reports the
//! address it bound, one accepting event loop per `--event-loops`, and a
//! resident set that is the platform's — and is again soon after a load.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dandelion_common::JsonValue;
use dandelion_http::HttpRequest;
use dandelion_server::HttpClientConnection;

/// How long a child gets to exit, or to print the address it bound.
const CHILD_DEADLINE: Duration = Duration::from_secs(10);

/// A `dandelion-serve` child, killed and reaped on every exit path of the
/// test that spawned it — a failed assertion included.
struct Serve {
    child: std::process::Child,
    /// The thread reading the child's stdout, once something asked for it;
    /// it ends at EOF, i.e. when the child is gone.
    stdout_drain: Option<JoinHandle<()>>,
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

impl Serve {
    /// The address the child printed as bound. A thread owns stdout, so a
    /// child that prints nothing is a timeout here, not a read that blocks
    /// for ever.
    fn bound_addr(&mut self) -> SocketAddr {
        let stdout = BufReader::new(self.child.stdout.take().expect("stdout was piped"));
        let (lines_tx, lines_rx) = mpsc::channel::<String>();
        self.stdout_drain = Some(std::thread::spawn(move || {
            for line in stdout.lines().map_while(Result::ok) {
                let _ = lines_tx.send(line);
            }
        }));
        let deadline = Instant::now() + CHILD_DEADLINE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = lines_rx
                .recv_timeout(left)
                .expect("dandelion-serve prints the address it bound");
            if let Some((_, addr)) = line.split_once("listening on http://") {
                return addr.trim().parse().expect("a socket address");
            }
        }
    }
}

fn spawn(args: &[&str]) -> Serve {
    let child = Command::new(env!("CARGO_BIN_EXE_dandelion-serve"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dandelion-serve spawns");
    Serve {
        child,
        stdout_drain: None,
    }
}

/// Runs `dandelion-serve args..` until it exits by itself and returns its
/// exit code and what it wrote to stderr. A child that keeps serving
/// instead fails the test (and is killed by its guard).
fn run_to_exit(args: &[&str]) -> (Option<i32>, String) {
    let mut serve = spawn(args);
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        if let Some(status) = serve.child.try_wait().expect("child can be waited on") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "dandelion-serve {args:?} kept running instead of rejecting its flags"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut stderr = String::new();
    serve
        .child
        .stderr
        .take()
        .expect("stderr was piped")
        .read_to_string(&mut stderr)
        .expect("stderr is text");
    (status.code(), stderr)
}

#[test]
fn the_single_listener_flag_is_gone() {
    // And `--pin-cores`, deleted the same way.
    for gone in ["--single-listener", "--pin-cores"] {
        let (code, stderr) = run_to_exit(&[gone]);
        assert_eq!(code, Some(2), "stderr: {stderr}");
        assert!(stderr.starts_with("usage: dandelion-serve"), "{stderr}");
        assert!(!stderr.contains(gone), "{stderr}");
        // Not the last argument either: it is no flag at all, with or
        // without something after it.
        let (code, _) = run_to_exit(&[gone, "--addr", "127.0.0.1:0"]);
        assert_eq!(code, Some(2));
    }
}

#[test]
fn flag_combinations_are_rejected_before_anything_is_bound() {
    let (code, stderr) = run_to_exit(&["--rate-burst", "5"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("requires --rate-limit"), "{stderr}");
    let (code, stderr) = run_to_exit(&["--gateway", "--join", "127.0.0.1:1"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn serves_on_the_printed_address_with_one_accepting_loop_per_event_loop() {
    let mut serve = spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--cores",
        "2",
        "--event-loops",
        "3",
    ]);
    let addr = serve.bound_addr();
    assert!(addr.ip().is_loopback());
    assert_ne!(addr.port(), 0, "the printed port is the bound one");

    // Hold five connections open; each has been answered once, so each is
    // owned by the loop that accepted it.
    let mut held: Vec<HttpClientConnection> = (0..5)
        .map(|_| HttpClientConnection::connect(addr, CHILD_DEADLINE).expect("connects"))
        .collect();
    for connection in &mut held {
        let health = connection.request(&HttpRequest::get("/healthz")).unwrap();
        assert_eq!(health.status.0, 200);
        assert_eq!(health.body_text(), "ok");
    }
    let stats = held[0].request(&HttpRequest::get("/v1/stats")).unwrap();
    assert_eq!(stats.status.0, 200);
    let document = JsonValue::parse(&stats.body_text()).expect("stats JSON");
    let loops = document
        .get("server")
        .and_then(|server| server.get("loops"))
        .and_then(JsonValue::as_array)
        .expect("server.loops");
    assert_eq!(loops.len(), 3);
    let connections: u64 = loops
        .iter()
        .map(|entry| {
            entry
                .get("connections")
                .and_then(JsonValue::as_u64)
                .expect("loops[].connections")
        })
        .sum();
    assert_eq!(connections, held.len() as u64);
}

/// A `<field> <n> kB` line of the child's `/proc/<pid>/status`.
fn status_kib(serve: &Serve, field: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{}/status", serve.child.id()))
        .expect("the child's /proc status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|value| value.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} <n> kB"))
}

/// The peak resident set of a node that is up and has answered a probe is
/// the platform's — binary, engines, event loop, registrations — not a
/// preloaded fixture's: 4.4 MiB measured (6.0 for the unoptimised binary
/// this test spawns), 67 MiB when the demo services filled their object
/// store before the listener existed. `VmHWM` is the
/// kernel's high-water mark, so this reads no clock and misses no spike.
#[test]
fn a_node_that_is_up_is_resident_in_well_under_sixteen_mebibytes() {
    let mut serve = spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--cores",
        "2",
        "--event-loops",
        "1",
    ]);
    let addr = serve.bound_addr();
    let mut connection = HttpClientConnection::connect(addr, CHILD_DEADLINE).expect("connects");
    let health = connection.request(&HttpRequest::get("/healthz")).unwrap();
    assert_eq!(health.status.0, 200);

    let peak_kib = status_kib(&serve, "VmHWM:");
    assert!(peak_kib > 0);
    assert!(
        peak_kib < 16 * 1024,
        "an idle node peaked at {peak_kib} KiB resident"
    );
}

/// An invocation of `MatMulApp` on two `size`×`size` matrices.
fn matmul_request(size: usize) -> HttpRequest {
    use dandelion_apps::matmul::matmul_inputs;
    use dandelion_core::frontend::SET_LIST_CONTENT_TYPE;
    use dandelion_isolation::output_parser;

    HttpRequest::post(
        "/v1/invoke/MatMulApp",
        output_parser::encode_outputs(&[matmul_inputs(size, 11)]),
    )
    .with_header("Content-Type", SET_LIST_CONTENT_TYPE)
}

/// `rounds` rounds of eight pipelined 128×128 multiplications, every
/// product checked for its status and size.
fn matmul128_burst(connection: &mut HttpClientConnection, rounds: usize) {
    const DEPTH: usize = 8;
    let invoke = matmul_request(128);
    for _ in 0..rounds {
        for _ in 0..DEPTH {
            connection.send(&invoke).expect("request leaves");
        }
        for _ in 0..DEPTH {
            let product = connection.receive().expect("the node answers");
            assert_eq!(product.status.0, 200);
            assert_eq!(product.body.len(), 4 + 128 * 128 * 8);
        }
    }
}

/// Committed memory follows the load, in the live system: 200 128×128
/// multiplications, pipelined eight deep by the client and taken in two at
/// a time (the pipeline's depth in bytes: two 262 KiB bodies fill its eight
/// read chunks), take the node's resident set up by what is in flight
/// (receive buffers, products, the multiply's own vectors); two seconds
/// after the last answer it is back within 3 MiB of
/// where it was before the first request. The buffer pool frees what it
/// retained and nothing needed for half a second (the worker's driver
/// looks twice a second). At the parent the pool kept its buffers for good:
/// 17 MiB above.
#[test]
fn a_node_is_back_to_its_idle_footprint_two_seconds_after_a_load() {
    let mut serve = spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--cores",
        "2",
        "--event-loops",
        "1",
    ]);
    let addr = serve.bound_addr();
    let mut connection = HttpClientConnection::connect(addr, CHILD_DEADLINE).expect("connects");
    let health = connection.request(&HttpRequest::get("/healthz")).unwrap();
    assert_eq!(health.status.0, 200);
    let before_kib = status_kib(&serve, "VmRSS:");

    matmul128_burst(&mut connection, 25);
    let loaded_kib = status_kib(&serve, "VmRSS:");
    std::thread::sleep(Duration::from_secs(2));
    let after_kib = status_kib(&serve, "VmRSS:");
    println!("VmRSS {before_kib} KiB idle, {loaded_kib} KiB loaded, {after_kib} KiB 2 s later");
    assert!(
        after_kib <= before_kib + 3 * 1024,
        "resident {before_kib} KiB idle, {loaded_kib} KiB after the load, \
         {after_kib} KiB two seconds later"
    );
}

/// What `matmul128_burst` leaves in the pool at the least. The pool is
/// released during the burst too, so what it leaves is what its last half
/// second had in flight at once: two or three bodies taken in, each in a
/// 320 KiB receive buffer, and two 160 KiB products, 0.9 to 1.3 MiB (1.5 to
/// 1.9 while the release waited for the node to fall idle; it was eight
/// bodies while the pipeline was counted in requests only).
const BURST_LEAVES_AT_LEAST: u64 = 2 * 320 * 1024;

/// `(memory.pool.retained_bytes, server.requests)` of the node.
fn retained_and_served(connection: &mut HttpClientConnection) -> (u64, u64) {
    let stats = connection.request(&HttpRequest::get("/v1/stats")).unwrap();
    assert_eq!(stats.status.0, 200);
    let document = JsonValue::parse(&stats.body_text()).expect("stats JSON");
    let field = |section: &[&str]| {
        section
            .iter()
            .try_fold(&document, |value, name| value.get(name))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("{section:?} in /v1/stats"))
    };
    (
        field(&["memory", "pool", "retained_bytes"]),
        field(&["server", "requests"]),
    )
}

/// Small traffic that never stops does not keep a burst's memory committed:
/// a member behind a gateway is probed twice a second (`GET /v1/compositions`, a
/// receive buffer and a response head from the pool each time) and this test
/// reads its stats ten times a second on top, and what the pool retained
/// for a burst of 128×128 multiplications is still given back — the release
/// goes by what lay unused, not by whether anything at all was acquired.
#[test]
fn a_probed_member_gives_a_bursts_buffers_back_while_the_probes_go_on() {
    let mut gateway = spawn(&["--gateway", "--addr", "127.0.0.1:0"]);
    let gateway_addr = gateway.bound_addr().to_string();
    let mut member = spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--cores",
        "2",
        "--event-loops",
        "1",
        "--join",
        &gateway_addr,
    ]);
    let addr = member.bound_addr();
    let mut connection = HttpClientConnection::connect(addr, CHILD_DEADLINE).expect("connects");

    matmul128_burst(&mut connection, 5);
    let (loaded, served_at_the_burst) = retained_and_served(&mut connection);
    println!("the burst left {loaded} bytes in the pool");
    assert!(
        loaded >= BURST_LEAVES_AT_LEAST,
        "the burst left {loaded} bytes in the pool"
    );
    let deadline = Instant::now() + CHILD_DEADLINE;
    let mut reads = 1;
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let (retained, served) = retained_and_served(&mut connection);
        reads += 1;
        // Requests the member served that were not this test's: the
        // gateway's probes.
        let probes = served - served_at_the_burst - (reads - 1);
        if retained < loaded / 8 && probes > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{retained} of {loaded} bytes still retained after {reads} reads and {probes} probes"
        );
    }
}

/// The invocation twin of the probed member: a node that keeps serving a
/// 1×1 multiplication every 50 ms, an engine result each time, still gives
/// a burst's buffers back. The release runs on its schedule, not only when
/// the node has had no result for a while.
#[test]
fn a_node_serving_small_invocations_gives_a_bursts_buffers_back() {
    let mut serve = spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--cores",
        "2",
        "--event-loops",
        "1",
    ]);
    let addr = serve.bound_addr();
    let mut connection = HttpClientConnection::connect(addr, CHILD_DEADLINE).expect("connects");

    matmul128_burst(&mut connection, 5);
    let (loaded, _) = retained_and_served(&mut connection);
    assert!(
        loaded >= BURST_LEAVES_AT_LEAST,
        "the burst left {loaded} bytes in the pool"
    );
    let small = matmul_request(1);
    let deadline = Instant::now() + CHILD_DEADLINE;
    let mut invocations = 0;
    loop {
        for _ in 0..4 {
            let product = connection.request(&small).expect("the node answers");
            assert_eq!(product.status.0, 200);
            invocations += 1;
            std::thread::sleep(Duration::from_millis(50));
        }
        let (retained, _) = retained_and_served(&mut connection);
        if retained < loaded / 8 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{retained} of {loaded} bytes still retained after {invocations} invocations"
        );
    }
}
