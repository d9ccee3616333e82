//! Serves the demo worker over TCP — standalone, as a cluster gateway, or
//! as a cluster member.
//!
//! ```text
//! dandelion-serve [--addr 127.0.0.1:8080] [--cores N] [--event-loops N]
//!                 [--max-connections N] [--max-head-bytes N]
//!                 [--max-body-bytes N] [--read-timeout-ms N]
//!                 [--rate-limit RPS] [--rate-burst N]
//!                 [--gateway] [--member HOST:PORT]... [--join HOST:PORT]
//! ```
//!
//! Roles:
//!
//! * **standalone** (default): one worker behind one server, every demo
//!   application registered and immediately invocable with `curl`.
//! * **gateway** (`--gateway`): no local worker. The server fronts the
//!   cluster members named by `--member` flags (more can join at runtime
//!   via `POST /v1/cluster/members`) and routes v1 traffic across them —
//!   see the README's "Cluster serving" section.
//! * **member** (`--join GATEWAY`): a standalone worker that announces
//!   itself to a running gateway after binding, then serves as usual.
//!
//! Flag combinations are validated up front (a clear message and exit code
//! `2`, never a panic), and the *actually bound* address is reported on
//! startup — `--addr 127.0.0.1:0` picks an ephemeral port and prints it.

use std::process::exit;
use std::sync::Arc;

use dandelion_core::Frontend;
use dandelion_server::{GatewayConfig, RateLimit, Router, Server, ServerConfig};

struct Options {
    config: ServerConfig,
    cores: usize,
    /// Run as the cluster gateway (no local worker).
    gateway: bool,
    /// Members a gateway joins at startup.
    members: Vec<String>,
    /// Gateway a member announces itself to after binding.
    join: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dandelion-serve [--addr HOST:PORT] [--cores N] [--event-loops N] \
         [--max-connections N] [--max-head-bytes N] [--max-body-bytes N] \
         [--read-timeout-ms N] [--rate-limit RPS] [--rate-burst N] \
         [--gateway] [--member HOST:PORT]... [--join HOST:PORT]"
    );
    exit(2);
}

fn invalid(message: &str) -> ! {
    eprintln!("invalid options: {message}");
    exit(2);
}

fn parse_options() -> Options {
    let mut options = Options {
        config: ServerConfig::default(),
        // The worker needs one compute plus one communication core, so the
        // default is floored at 2 even on single-core machines.
        cores: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .max(2),
        gateway: false,
        members: Vec::new(),
        join: None,
    };
    let mut rate_limit: Option<u32> = None;
    let mut rate_burst: Option<u32> = None;
    let mut event_loops_flag = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            usage();
        }
        if flag == "--gateway" {
            options.gateway = true;
            continue;
        }
        let Some(value) = args.next() else { usage() };
        let numeric = || -> usize {
            value.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects a number, got `{value}`");
                exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => options.config.addr = value.clone(),
            "--cores" => options.cores = numeric(),
            "--event-loops" => {
                options.config.event_loops = numeric();
                event_loops_flag = true;
            }
            "--max-connections" => options.config.max_connections = numeric(),
            "--max-head-bytes" => options.config.limits.max_head_bytes = numeric(),
            "--max-body-bytes" => options.config.limits.max_body_bytes = numeric(),
            "--read-timeout-ms" => {
                options.config.read_timeout = std::time::Duration::from_millis(numeric() as u64)
            }
            "--rate-limit" => rate_limit = Some(numeric() as u32),
            "--rate-burst" => rate_burst = Some(numeric() as u32),
            "--member" => options.members.push(value.clone()),
            "--join" => options.join = Some(value.clone()),
            _ => usage(),
        }
    }
    // Flag-combination validation, before any resource is created.
    if options.cores < 2 {
        invalid("--cores must be >= 2 (one compute core plus one communication core)");
    }
    match (rate_limit, rate_burst) {
        (Some(rps), burst) => {
            if rps == 0 {
                invalid("--rate-limit must be >= 1 request/second");
            }
            // Default burst: double the sustained rate.
            options.config.rate_limit = Some(RateLimit {
                requests_per_sec: rps,
                burst: burst.unwrap_or(rps.saturating_mul(2)).max(1),
            });
        }
        (None, Some(_)) => invalid("--rate-burst requires --rate-limit"),
        (None, None) => {}
    }
    // `0` means "auto" in the config but is almost certainly a mistake on
    // the command line; the explicit flag must name a real count.
    if event_loops_flag && options.config.event_loops == 0 {
        invalid("--event-loops must be >= 1");
    }
    if options.gateway && options.join.is_some() {
        invalid("--gateway and --join are mutually exclusive (a gateway is not a member)");
    }
    if !options.gateway && !options.members.is_empty() {
        invalid("--member requires --gateway");
    }
    if let Err(problem) = options.config.validate() {
        invalid(&problem);
    }
    options
}

/// Gateway role: no local worker; route across the members.
fn run_gateway(options: Options) -> ! {
    let router = Router::start(GatewayConfig::default());
    let event_loops = options.config.resolved_event_loops();
    let members = options.members.clone();
    let server = match Server::start_gateway(options.config, Arc::clone(&router)) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("failed to bind: {error}");
            exit(1);
        }
    };
    for member in &members {
        match member.parse() {
            Ok(addr) => match router.join(addr) {
                Ok(node) => println!("  member {member} joined as {node}"),
                Err(problem) => eprintln!("  member {member} failed to join: {problem}"),
            },
            Err(_) => invalid(&format!("--member expects HOST:PORT, got `{member}`")),
        }
    }
    println!(
        "dandelion-serve gateway listening on http://{}",
        server.local_addr()
    );
    println!(
        "  {} event loops, {} members",
        event_loops,
        router.member_rows().len()
    );
    println!(
        "  try: curl http://{}/v1/cluster/members",
        server.local_addr()
    );
    loop {
        std::thread::park();
    }
}

/// Announces a member's bound address to its gateway.
fn announce_to_gateway(gateway: &str, local: std::net::SocketAddr) {
    use dandelion_http::HttpRequest;
    use dandelion_server::HttpClientConnection;
    let body = format!("{{\"addr\":\"{local}\"}}").into_bytes();
    let result = HttpClientConnection::connect(gateway, std::time::Duration::from_secs(2))
        .and_then(|mut client| client.request(&HttpRequest::post("/v1/cluster/members", body)));
    match result {
        Ok(response) if response.status.is_success() => {
            println!("  joined gateway {gateway}");
        }
        Ok(response) => eprintln!(
            "  gateway {gateway} refused the join ({}): {}",
            response.status.0,
            response.body_str()
        ),
        Err(error) => eprintln!("  could not reach gateway {gateway}: {error}"),
    }
}

fn main() {
    let options = parse_options();
    if options.gateway {
        run_gateway(options);
    }
    dandelion_common::pool::settle_heap_thresholds();
    let worker = match dandelion_apps::setup::demo_worker(options.cores, false) {
        Ok(worker) => worker,
        Err(error) => {
            eprintln!("failed to start worker: {error}");
            exit(1);
        }
    };
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let event_loops = options.config.resolved_event_loops();
    let join = options.join.clone();
    let server = match Server::start(options.config, frontend) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("failed to bind: {error}");
            exit(1);
        }
    };
    // The *bound* address: with `--addr host:0` this carries the ephemeral
    // port the kernel picked.
    println!(
        "dandelion-serve listening on http://{}",
        server.local_addr()
    );
    println!(
        "  {} cores, {} event loops, {} registered compositions",
        options.cores,
        event_loops,
        worker.registry().composition_names().len()
    );
    println!("  try: curl http://{}/healthz", server.local_addr());
    if let Some(gateway) = join {
        announce_to_gateway(&gateway, server.local_addr());
    }
    // Serve until the process is killed; the server's threads do the work.
    loop {
        std::thread::park();
    }
}
