//! The server façade: binding, event-loop pool lifecycle, stats and
//! graceful shutdown.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dandelion_common::JsonValue;
use dandelion_core::engine::EnginePool;
use dandelion_core::{Frontend, StatsSource};

use crate::config::{ServerConfig, WORKER_PIPELINE_DEPTH};
use crate::event_loop::{EventLoop, LoopShared};
use crate::gateway::Router;
use crate::rate::RateLimiter;
use crate::sys::bind_reuseport;

/// Counters and gauges of the serving layer (all relaxed; they feed
/// dashboards, `/v1/stats` and tests, not control flow).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections admitted past admission control.
    pub accepted: AtomicU64,
    /// Connections refused by admission control (answered `503`).
    pub rejected_connections: AtomicU64,
    /// Gauge: connections currently held open across all event loops.
    pub open_connections: AtomicU64,
    /// Requests served (any status).
    pub requests: AtomicU64,
    /// Requests rejected by the parser (`400`/`413`/`431`).
    pub rejected_requests: AtomicU64,
    /// Requests refused by the per-client rate limiter (`429`).
    pub rate_limited: AtomicU64,
    /// Connections closed for stalling mid-request past the read deadline
    /// (`408`).
    pub timeouts: AtomicU64,
    /// Idle keep-alive connections closed silently after the idle window.
    pub idle_closed: AtomicU64,
    /// Connections closed because the client stopped reading its response
    /// past the write deadline.
    pub write_timeouts: AtomicU64,
    /// Connections accepted and immediately closed because the process ran
    /// out of file descriptors (the accept path's reserve-fd shed).
    pub accept_overflow: AtomicU64,
}

/// Point-in-time snapshot of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections admitted past admission control.
    pub accepted: u64,
    /// Connections refused by admission control.
    pub rejected_connections: u64,
    /// Connections currently held open (gauge).
    pub open_connections: u64,
    /// Requests served.
    pub requests: u64,
    /// Requests rejected by the parser.
    pub rejected_requests: u64,
    /// Requests refused by the rate limiter.
    pub rate_limited: u64,
    /// Read-deadline `408` closes.
    pub timeouts: u64,
    /// Silent idle keep-alive closes.
    pub idle_closed: u64,
    /// Write-deadline closes (client stopped reading its response).
    pub write_timeouts: u64,
    /// Accept-and-close sheds under file-descriptor exhaustion.
    pub accept_overflow: u64,
}

impl ServerStats {
    fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_connections: self.rejected_connections.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            rejected_requests: self.rejected_requests.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            write_timeouts: self.write_timeouts.load(Ordering::Relaxed),
            accept_overflow: self.accept_overflow.load(Ordering::Relaxed),
        }
    }

    /// The stats as the JSON object `/v1/stats` embeds under `"server"`.
    pub fn to_json(&self, event_loops: usize) -> JsonValue {
        let snapshot = self.snapshot();
        JsonValue::object([
            ("event_loops", JsonValue::from(event_loops)),
            ("accepted", JsonValue::from(snapshot.accepted)),
            (
                "rejected_connections",
                JsonValue::from(snapshot.rejected_connections),
            ),
            (
                "open_connections",
                JsonValue::from(snapshot.open_connections),
            ),
            ("requests", JsonValue::from(snapshot.requests)),
            (
                "rejected_requests",
                JsonValue::from(snapshot.rejected_requests),
            ),
            ("rate_limited", JsonValue::from(snapshot.rate_limited)),
            ("timeouts", JsonValue::from(snapshot.timeouts)),
            ("idle_closed", JsonValue::from(snapshot.idle_closed)),
            ("write_timeouts", JsonValue::from(snapshot.write_timeouts)),
            ("accept_overflow", JsonValue::from(snapshot.accept_overflow)),
        ])
    }
}

/// A worker's budget of request bodies, shared by its loops.
///
/// The budget is one connection's byte depth per compute engine
/// (`engine_count × pipeline_bytes`: 512 KiB on a node with one compute
/// engine), read at each check, so it follows the control plane's core
/// moves. What the node holds is the sum of the loops' `held_bytes` gauges.
/// Past the budget a connection that owes nothing still takes in one
/// request — a large request stuck on one connection never stops another's
/// first — and every other waits, its bytes in its socket, for its own
/// responses to leave. A gateway has no engines to feed and no budget.
pub(crate) struct Intake {
    /// A worker's compute engines; `None` on a gateway.
    engines: Option<Arc<EnginePool>>,
    /// One connection's depth in request-body bytes.
    pipeline_bytes: usize,
}

impl Intake {
    fn new(app: &AppKind, config: &ServerConfig) -> Intake {
        let engines = match app {
            AppKind::Local(frontend) => Some(Arc::clone(frontend.worker().compute_pool())),
            AppKind::Gateway(_) => None,
        };
        Intake {
            engines,
            pipeline_bytes: pipeline_depth(app, config).saturating_mul(config.read_chunk_bytes),
        }
    }

    /// The request-body bytes the node may hold before only connections
    /// that owe nothing take in; `None` on a gateway.
    fn budget(&self) -> Option<usize> {
        let engines = self.engines.as_ref()?;
        Some(
            engines
                .engine_count()
                .max(1)
                .saturating_mul(self.pipeline_bytes),
        )
    }
}

/// Request-body bytes taken in and not yet answered across `loops`.
fn held_bytes(loops: &[Arc<LoopShared>]) -> usize {
    loops
        .iter()
        .map(|loop_shared| loop_shared.held_bytes.load(Ordering::Relaxed))
        .sum()
}

/// The `"server"` stats document: the aggregate counters, the node's intake
/// (`held_bytes`: the request bodies its connections have taken in and not
/// yet answered; `budget_bytes`: what a worker lets them hold, `null` on a
/// gateway), plus one entry per event loop — the load gauges
/// (`connections`, `inflight`, and `held_bytes`: the loop's share of the
/// node's), the inbox backlog, and the wakeup-coalescing counters (`posted`
/// messages vs `wakeups` actually signalled; `coalesced` is the difference,
/// i.e. posts that found the loop awake and cost no syscall), and the
/// write-coalescing counters (`messages_written / writes` is how many
/// responses and upstream forwards one vectored socket write carried).
pub(crate) fn server_stats_json(
    stats: &ServerStats,
    intake: &Intake,
    loops: &[Arc<LoopShared>],
) -> JsonValue {
    let mut json = stats.to_json(loops.len());
    if let JsonValue::Object(pairs) = &mut json {
        pairs.push(("held_bytes".to_string(), JsonValue::from(held_bytes(loops))));
        pairs.push((
            "budget_bytes".to_string(),
            intake.budget().map_or(JsonValue::Null, JsonValue::from),
        ));
        pairs.push((
            "loops".to_string(),
            JsonValue::array(loops.iter().map(|loop_shared| {
                let posted = loop_shared.posted.load(Ordering::Relaxed);
                let wakeups = loop_shared.wakeups.load(Ordering::Relaxed);
                JsonValue::object([
                    (
                        "connections",
                        JsonValue::from(loop_shared.connections.load(Ordering::Relaxed)),
                    ),
                    (
                        "inflight",
                        JsonValue::from(loop_shared.inflight.load(Ordering::Relaxed)),
                    ),
                    (
                        "held_bytes",
                        JsonValue::from(loop_shared.held_bytes.load(Ordering::Relaxed)),
                    ),
                    ("inbox_depth", JsonValue::from(loop_shared.inbox_depth())),
                    ("posted", JsonValue::from(posted)),
                    ("wakeups", JsonValue::from(wakeups)),
                    ("coalesced", JsonValue::from(posted.saturating_sub(wakeups))),
                    (
                        "writes",
                        JsonValue::from(loop_shared.writes.load(Ordering::Relaxed)),
                    ),
                    (
                        "messages_written",
                        JsonValue::from(loop_shared.messages_written.load(Ordering::Relaxed)),
                    ),
                ])
            })),
        ));
    }
    json
}

/// What the event loops serve: a local worker frontend (the single-node
/// role) or the cluster gateway's router.
pub(crate) enum AppKind {
    /// Requests dispatch into the in-process worker.
    Local(Arc<Frontend>),
    /// Requests are answered locally (control plane) or forwarded to a
    /// cluster member over pooled upstream connections.
    Gateway(Arc<Router>),
}

/// State shared by every event loop and the dispatcher's completion
/// callbacks.
pub(crate) struct Shared {
    pub(crate) app: AppKind,
    pub(crate) config: ServerConfig,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) limiter: Option<RateLimiter>,
    /// Set once by shutdown; loops observe it and drain.
    pub(crate) stopping: AtomicBool,
    /// Admission gauge: connections open across all loops.
    pub(crate) active: AtomicUsize,
    /// The cross-thread half of each event loop, indexed by loop.
    pub(crate) loops: Vec<Arc<LoopShared>>,
    /// The budget of request bodies the loops share.
    pub(crate) intake: Arc<Intake>,
}

/// Responses a connection of `app` may owe before its intake pauses.
fn pipeline_depth(app: &AppKind, config: &ServerConfig) -> usize {
    match app {
        AppKind::Local(_) => config.max_pipelined.min(WORKER_PIPELINE_DEPTH),
        AppKind::Gateway(_) => config.max_pipelined,
    }
}

impl Shared {
    /// Responses a connection may owe before its intake pauses.
    pub(crate) fn pipeline_depth(&self) -> usize {
        pipeline_depth(&self.app, &self.config)
    }

    /// The same depth in bytes, one read chunk per request: the request
    /// bodies a connection may hold unanswered before its intake pauses
    /// (512 KiB on a worker, 4 MiB on a gateway at the defaults).
    pub(crate) fn pipeline_bytes(&self) -> usize {
        self.intake.pipeline_bytes
    }

    /// Whether the node holds its whole intake budget (never on a
    /// gateway). Only a connection that already owes a response asks, and
    /// the answer is a relaxed sum of the loops' gauges: loops that check
    /// at once may each take in one request past it.
    pub(crate) fn budget_spent(&self) -> bool {
        self.intake
            .budget()
            .is_some_and(|budget| held_bytes(&self.loops) >= budget)
    }
}

/// A running network server: a small pool of epoll event loops, each
/// accepting on its own `SO_REUSEPORT` listener and multiplexing the
/// connections it accepted, all serving one [`Frontend`].
///
/// ```no_run
/// use std::sync::Arc;
/// use dandelion_core::Frontend;
/// use dandelion_server::{Server, ServerConfig};
///
/// let worker = dandelion_apps::setup::demo_worker(4, false).unwrap();
/// let frontend = Arc::new(Frontend::new(worker));
/// let server = Server::start(ServerConfig::default(), frontend).unwrap();
/// println!("serving on http://{}", server.local_addr());
/// server.shutdown();
/// ```
pub struct Server {
    addr: SocketAddr,
    frontend: Option<Arc<Frontend>>,
    router: Option<Arc<Router>>,
    config: ServerConfig,
    stats: Arc<ServerStats>,
    stats_source: StatsSource,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Validates `config`, binds `config.addr` and starts the event loops
    /// serving a local worker frontend.
    pub fn start(config: ServerConfig, frontend: Arc<Frontend>) -> io::Result<Server> {
        Server::start_inner(config, AppKind::Local(frontend))
    }

    /// Starts the server in **gateway mode**: the same event loops and
    /// connection state machines, but requests are routed across the
    /// cluster members known to `router` instead of a local worker. See
    /// the [`gateway`](crate::gateway) module docs for the topology.
    pub fn start_gateway(config: ServerConfig, router: Arc<Router>) -> io::Result<Server> {
        Server::start_inner(config, AppKind::Gateway(router))
    }

    fn start_inner(config: ServerConfig, app: AppKind) -> io::Result<Server> {
        config
            .validate()
            .map_err(|problem| io::Error::new(io::ErrorKind::InvalidInput, problem))?;
        dandelion_common::failpoint::init_from_env();
        let loop_count = config.resolved_event_loops();
        // Every loop gets its own `SO_REUSEPORT` listener and the kernel
        // load-balances incoming connections across them. The first bind
        // resolves an ephemeral port; the rest join its accept group at the
        // concrete address.
        let resolved = std::net::ToSocketAddrs::to_socket_addrs(&config.addr)?
            .next()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("address {:?} resolved to nothing", config.addr),
                )
            })?;
        let first = bind_reuseport(&resolved)?;
        let addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..loop_count {
            listeners.push(bind_reuseport(&addr)?);
        }
        let stats = Arc::new(ServerStats::default());
        let loops = (0..loop_count)
            .map(|_| LoopShared::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let (frontend, router) = match &app {
            AppKind::Local(frontend) => (Some(Arc::clone(frontend)), None),
            AppKind::Gateway(router) => (None, Some(Arc::clone(router))),
        };
        let intake = Arc::new(Intake::new(&app, &config));
        let shared = Arc::new(Shared {
            app,
            limiter: config.rate_limit.map(RateLimiter::new),
            config: config.clone(),
            stats: Arc::clone(&stats),
            stopping: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            loops,
            intake: Arc::clone(&intake),
        });

        // Surface the serving-layer gauges through `GET /v1/stats` next to
        // the worker counters, including the node's intake and the per-loop
        // `connections` and `inflight` gauges. The gateway merges the same
        // document into its own stats response.
        let stats_source: StatsSource = {
            let stats = Arc::clone(&stats);
            let loops = shared.loops.clone();
            Arc::new(move || server_stats_json(&stats, &intake, &loops))
        };
        match (&frontend, &router) {
            (Some(frontend), _) => frontend.add_stats_source("server", Arc::clone(&stats_source)),
            (_, Some(router)) => router.set_server_stats(Arc::clone(&stats_source)),
            _ => unreachable!("a server is local or gateway"),
        }

        let mut threads = Vec::with_capacity(loop_count);
        for (index, listener) in listeners.into_iter().enumerate() {
            let event_loop = EventLoop::new(index, Arc::clone(&shared), listener)?;
            // The kernel keeps 15 bytes of a thread name: short enough that
            // the loop index and the port both survive, so `top -H` and
            // `/proc/<pid>/task/*/comm` tell the loops of one server apart,
            // and the servers of one process.
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dl-loop{index}@{}", addr.port()))
                    .spawn(move || event_loop.run())?,
            );
        }

        Ok(Server {
            addr,
            frontend,
            router,
            config,
            stats,
            stats_source,
            shared,
            threads,
        })
    }

    /// The bound address (with the real port when `addr` asked for `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The frontend this server exposes.
    ///
    /// # Panics
    ///
    /// A gateway server has no local frontend; use [`Server::router`].
    pub fn frontend(&self) -> &Arc<Frontend> {
        self.frontend
            .as_ref()
            .expect("a gateway server has no local frontend")
    }

    /// The cluster router, when this server runs in gateway mode.
    pub fn router(&self) -> Option<&Arc<Router>> {
        self.router.as_ref()
    }

    /// Number of event-loop threads serving connections.
    pub fn event_loops(&self) -> usize {
        self.threads.len().max(self.shared.loops.len())
    }

    /// Snapshot of the serving-layer counters and gauges.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.stats.snapshot()
    }

    /// The `"server"` document of `/v1/stats` — the aggregate counters and
    /// `loops[]` — as a handle that outlives the server: what the gauges
    /// read once it has shut down is what it left behind.
    pub fn stats_source(&self) -> StatsSource {
        Arc::clone(&self.stats_source)
    }

    /// Gracefully shuts the server down: stop admitting connections, close
    /// idle keep-alives, let busy connections finish at their next response
    /// boundary (bounded by `drain_timeout`), then wait for in-flight
    /// invocations to drain.
    ///
    /// Returns `true` when the worker drained within the configured
    /// timeout. The worker itself is left running — it belongs to the
    /// caller, which may serve it elsewhere or shut it down.
    pub fn shutdown(mut self) -> bool {
        self.stop_and_join();
        match &self.frontend {
            Some(frontend) => frontend.worker().drain(self.config.drain_timeout),
            // A gateway holds no invocations of its own: once the loops
            // joined, every proxied exchange has settled or been failed.
            None => true,
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        for loop_shared in &self.shared.loops {
            loop_shared.wake();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // A stopped server's gauges must disappear from `/v1/stats`: the
        // frontend outlives the server and may be served elsewhere.
        if let Some(frontend) = &self.frontend {
            frontend.remove_stats_source("server");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop_and_join();
        }
    }
}
