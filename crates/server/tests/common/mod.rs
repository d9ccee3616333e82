//! The cluster fixtures the `gateway` and `chaos` suites share: an `Echo`
//! member worker, a gateway in front of members, a client connection — all on
//! ephemeral loopback ports — and the teardown that ends every test over
//! them, and every test of the `server` suite, with the loops' gauges, the
//! worker's in-flight count and the buffer pool's books checked.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use dandelion_common::BufferPool;
use dandelion_core::worker::{default_test_services, WorkerNode};
use dandelion_core::Frontend;
use dandelion_server::{GatewayConfig, HttpClientConnection, Router, Server, ServerConfig};

/// A member worker with the `Echo` function and `EchoComp` registered.
fn echo_worker() -> Arc<WorkerNode> {
    use dandelion_common::config::{IsolationKind, WorkerConfig};
    use dandelion_isolation::{FunctionArtifact, FunctionCtx};
    let config = WorkerConfig {
        total_cores: 2,
        initial_communication_cores: 1,
        isolation: IsolationKind::Native,
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

fn loopback_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        event_loops: 2,
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

/// One cluster member: worker + frontend + server on an ephemeral port.
pub fn start_member() -> (Server, Arc<WorkerNode>) {
    start_member_idling_out_after(loopback_config().read_timeout)
}

/// A member that closes a keep-alive connection left idle for
/// `read_timeout` — the gateway's pooled upstreams included.
pub fn start_member_idling_out_after(read_timeout: Duration) -> (Server, Arc<WorkerNode>) {
    let worker = echo_worker();
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let config = ServerConfig {
        read_timeout,
        ..loopback_config()
    };
    let server = Server::start(config, frontend).expect("member binds");
    (server, worker)
}

/// Probe cadence short enough that ejection and drain-removal happen well
/// inside a test's patience.
pub fn test_gateway_config() -> GatewayConfig {
    GatewayConfig {
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(500),
        ..GatewayConfig::default()
    }
}

pub fn start_gateway(config: GatewayConfig, members: &[SocketAddr]) -> (Server, Arc<Router>) {
    start_gateway_pipelining(loopback_config().max_pipelined, config, members)
}

/// A gateway whose client connections pipeline `max_pipelined` deep — that
/// many requests, or that many read chunks of their bodies.
pub fn start_gateway_pipelining(
    max_pipelined: usize,
    config: GatewayConfig,
    members: &[SocketAddr],
) -> (Server, Arc<Router>) {
    let router = Router::start(config);
    for addr in members {
        router.join(*addr).expect("member joins");
    }
    let server_config = ServerConfig {
        max_pipelined,
        ..loopback_config()
    };
    let server = Server::start_gateway(server_config, Arc::clone(&router)).expect("gateway binds");
    (server, router)
}

pub fn connect(addr: SocketAddr) -> HttpClientConnection {
    HttpClientConnection::connect(addr, Duration::from_secs(10)).expect("client connects")
}

/// The end of a test over these fixtures: stops the gateway, then the members
/// it fronted ([`shutdown_node`]). Returns whether the gateway drained
/// cleanly.
pub fn shutdown(
    gateway: Server,
    members: impl IntoIterator<Item = (Server, Arc<WorkerNode>)>,
) -> bool {
    let drained = stop_and_check_loops(gateway);
    for (server, worker) in members {
        shutdown_node(server, worker);
    }
    drained
}

/// The end of a test over one worker node: stops its server, then the
/// worker, and checks the teardown invariant — no event loop of the stopped
/// server still counts a response owed, a request body held or a message
/// unread in its inbox ([`stop_and_check_loops`]), and the worker has no
/// invocation in flight and the pool's books balance ([`finish_worker`]).
/// Returns whether the server drained cleanly.
pub fn shutdown_node(server: Server, worker: Arc<WorkerNode>) -> bool {
    let drained = stop_and_check_loops(server);
    finish_worker(&worker);
    drained
}

/// Shuts down a worker whose servers have stopped: it has no invocation in
/// flight (submitted = settled: a settle path that loses one fails here,
/// whatever the test looked at), and the pool's books balance
/// ([`assert_pool_accounted`]).
pub fn finish_worker(worker: &WorkerNode) {
    worker.shutdown();
    assert_eq!(worker.inflight(), 0, "invocations left in flight");
    assert_pool_accounted();
}

/// Shuts `server` down and reads what it left behind: every slot parked
/// was completed (`inflight`), every request body taken in was given up
/// with its slot or its connection (`held_bytes`), and every message
/// posted to a loop was taken out of its inbox (`inbox_depth`).
pub fn stop_and_check_loops(server: Server) -> bool {
    let stats = server.stats_source();
    let drained = server.shutdown();
    let document = stats();
    let loops = document.get("loops").and_then(|loops| loops.as_array());
    for (index, entry) in loops.expect("server.loops[]").iter().enumerate() {
        for gauge in ["inflight", "held_bytes", "inbox_depth"] {
            let left = entry.get(gauge).and_then(|value| value.as_u64());
            assert_eq!(left, Some(0), "loop {index} stopped with {gauge} left");
        }
    }
    drained
}

/// Every buffer the global pool ever issued was recycled, was discarded or
/// is still live: `acquires = recycled + discarded + live`, with `live` a
/// gauge the handles keep and not the difference of the other three — a
/// buffer returned twice, or one the pool never issued coming "back", breaks
/// the sum for good.
pub fn assert_pool_accounted() {
    // The counters are read one by one while other tests of this binary use
    // the pool: a snapshot taken across an acquire or a return is off by
    // that one, so look again before calling it a miscount.
    let accounted = (0..10_000).any(|_| {
        let stats = BufferPool::global().stats();
        let balanced = stats.acquires == stats.recycled + stats.discarded + stats.live;
        if !balanced {
            std::thread::yield_now();
        }
        balanced
    });
    assert!(accounted, "{:?}", BufferPool::global().stats());
}
