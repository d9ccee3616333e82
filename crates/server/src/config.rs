//! Configuration of the network server.

use std::time::Duration;

use dandelion_common::KIB;
use dandelion_http::ParseLimits;

use crate::rate::RateLimit;

/// Tunables of the TCP serving layer.
///
/// The defaults serve loopback benchmarks and tests well; a deployment
/// mostly adjusts `addr`, `event_loops` and the admission limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Address to bind (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Event-loop threads multiplexing all connections; `0` resolves to a
    /// core-derived default. A connection consumes memory only — never a
    /// thread — so a small pool serves thousands of mostly-idle keep-alive
    /// clients. Every loop binds its own `SO_REUSEPORT` listener on `addr`
    /// and the kernel load-balances incoming connections across them, so no
    /// loop is the admission chokepoint.
    pub event_loops: usize,
    /// Admission control: connections held open concurrently. Further
    /// clients get `503` and an immediate close.
    pub max_connections: usize,
    /// Per-request head/body size limits (oversized requests are rejected
    /// with `431`/`413` before they are buffered in full).
    pub limits: ParseLimits,
    /// Deadline for a request to finish arriving once its first byte is in,
    /// and for an idle keep-alive connection to show a next request. A
    /// mid-request stall past it gets `408` and a close; an idle connection
    /// is closed silently (counted in `idle_closed`).
    pub read_timeout: Duration,
    /// Deadline for an in-flight response to make write progress. A client
    /// that stops reading (zero bytes drained for this long) is closed
    /// silently and counted in `write_timeouts` — it would otherwise pin
    /// its response buffers until drain.
    pub write_timeout: Duration,
    /// How long shutdown waits for in-flight invocations to settle — and
    /// the hard ceiling on how long a draining event loop keeps unfinished
    /// connections open.
    pub drain_timeout: Duration,
    /// Bytes requested from the kernel per socket read.
    pub read_chunk_bytes: usize,
    /// Per-client-IP token-bucket rate limit applied before request
    /// dispatch; `None` disables it. Over-limit requests are answered with
    /// `429` and the stable `rate_limited` code, the connection stays open.
    pub rate_limit: Option<RateLimit>,
    /// Responses a connection may have queued or in flight before the
    /// server stops reading further pipelined requests from it (read
    /// interest resumes as the backlog drains). A worker's connections
    /// stop at [`WORKER_PIPELINE_DEPTH`] if that is lower. The same number
    /// of read chunks (`× read_chunk_bytes`) is the pipeline's depth in
    /// request-body bytes: a connection holding that much unanswered takes
    /// in no more until a response leaves, though never fewer than two
    /// requests.
    pub max_pipelined: usize,
}

/// How deep a worker's pipeline is per connection, whatever `max_pipelined`
/// allows: this many requests taken in and not yet answered, or this many
/// read chunks of their bodies (8 × `read_chunk_bytes` = 512 KiB at the
/// default), whichever comes first — and never fewer than two requests, so
/// one body lands while another computes and a request larger than the
/// whole depth is still served (`limits.max_body_bytes` is the limit on
/// one request). A request parsed on a worker is an invocation under way,
/// and its body and what it has fetched and computed so far are committed
/// memory: a client that catches up after a pause with 32 pipelined
/// `RenderLogs` requests would commit four times what eight hold (+4.9 MiB
/// on a 6 MiB node) and finish no sooner, since eight already keep the
/// engines busy; eight pipelined 128×128 `MatMulApp` requests (262 KiB
/// each) would hold 2 MiB of bodies for one engine to work through, so two
/// are taken in. The rest of the burst waits as bytes in the socket's
/// receive buffer and then at its sender, where TCP flow control bounds it.
/// A gateway forwards by reference and keeps `max_pipelined`, in requests
/// and in chunks.
///
/// The byte depth also sizes the node as a whole: a worker's connections
/// share a budget of one byte depth per compute engine (512 KiB with one
/// engine), and past its first request a connection takes in only while
/// the node holds less than that — so many connections with one large
/// request each commit as many bodies and nothing more, and a request
/// stuck on one connection never stops another's first.
pub const WORKER_PIPELINE_DEPTH: usize = 8;

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            event_loops: 0,
            max_connections: 4096,
            limits: ParseLimits::default(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(30),
            read_chunk_bytes: 64 * KIB,
            rate_limit: None,
            max_pipelined: 64,
        }
    }
}

impl ServerConfig {
    /// The event-loop count after resolving the `0` = core-derived default:
    /// one loop per available core, capped at 8 — readiness-driven loops
    /// are I/O bound, so a handful multiplexes tens of thousands of
    /// connections and the worker's engines get the remaining cores.
    pub fn resolved_event_loops(&self) -> usize {
        if self.event_loops > 0 {
            return self.event_loops;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .min(8)
    }

    /// Validates the configuration, returning a human-readable description
    /// of the first problem. [`Server::start`](crate::Server::start) calls
    /// this so misconfiguration is a clear error, not a panic or a hang.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_connections == 0 {
            return Err("max_connections must be >= 1".to_string());
        }
        if self.read_chunk_bytes == 0 {
            return Err("read_chunk_bytes must be >= 1".to_string());
        }
        if self.max_pipelined == 0 {
            return Err("max_pipelined must be >= 1".to_string());
        }
        if self.limits.max_head_bytes < 16 {
            return Err("limits.max_head_bytes must be >= 16 (a minimal request line)".to_string());
        }
        if self.read_timeout.is_zero() {
            return Err("read_timeout must be non-zero".to_string());
        }
        if self.write_timeout.is_zero() {
            return Err("write_timeout must be non-zero".to_string());
        }
        if let Some(rate) = &self.rate_limit {
            if rate.requests_per_sec == 0 {
                return Err("rate_limit.requests_per_sec must be >= 1".to_string());
            }
            if rate.burst == 0 {
                return Err("rate_limit.burst must be >= 1".to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve_event_loops_from_the_machine() {
        let config = ServerConfig::default();
        assert!((1..=8).contains(&config.resolved_event_loops()));
        let fixed = ServerConfig {
            event_loops: 3,
            ..ServerConfig::default()
        };
        assert_eq!(fixed.resolved_event_loops(), 3);
    }

    #[test]
    fn validation_catches_degenerate_settings() {
        assert!(ServerConfig::default().validate().is_ok());
        let no_conns = ServerConfig {
            max_connections: 0,
            ..ServerConfig::default()
        };
        assert!(no_conns.validate().unwrap_err().contains("max_connections"));
        let zero_rate = ServerConfig {
            rate_limit: Some(RateLimit {
                requests_per_sec: 0,
                burst: 8,
            }),
            ..ServerConfig::default()
        };
        assert!(zero_rate.validate().unwrap_err().contains("rate_limit"));
        let zero_chunk = ServerConfig {
            read_chunk_bytes: 0,
            ..ServerConfig::default()
        };
        assert!(zero_chunk.validate().is_err());
    }
}
