//! Per-client rate limiting: token buckets keyed by peer IP.
//!
//! The connection cap bounds how many sockets one node holds open; it does
//! not stop a single client from monopolizing the worker with requests over
//! a few keep-alive connections. A [`RateLimiter`] sits in front of request
//! dispatch: each peer IP owns a token bucket refilled at the configured
//! sustained rate up to a burst ceiling, every request spends one token, and
//! a request arriving to an empty bucket is answered with `429` and the
//! stable `rate_limited` error code — the connection stays open, the client
//! is expected to back off and retry.
//!
//! One limiter is shared by every event loop (limits are per client, not
//! per loop), guarded by a plain mutex: the critical section is a hash
//! lookup and two float operations, orders of magnitude cheaper than the
//! request dispatch behind it. Buckets of idle peers are pruned (at most
//! once per [`PRUNE_INTERVAL`]) once the table grows past a high-water
//! mark, so the map tracks active clients rather than every address ever
//! seen.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Sustained rate and burst ceiling of the per-IP token bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Tokens added per second (sustained requests/second per client IP).
    pub requests_per_sec: u32,
    /// Bucket capacity: how many requests may arrive back-to-back before
    /// the sustained rate applies.
    pub burst: u32,
}

/// Prune idle buckets once the table holds this many peers.
const PRUNE_HIGH_WATER: usize = 4096;

/// Minimum spacing between prune scans: the scan is O(table), so it must
/// not run per request under a many-IP flood (the exact load rate limiting
/// exists for) — between scans the table may transiently exceed the
/// high-water mark, bounded by the request rate over this interval.
const PRUNE_INTERVAL: std::time::Duration = std::time::Duration::from_secs(1);

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

#[derive(Debug, Default)]
struct Buckets {
    map: HashMap<IpAddr, Bucket>,
    last_prune: Option<Instant>,
}

/// Token buckets keyed by peer IP (see the module docs).
#[derive(Debug)]
pub(crate) struct RateLimiter {
    limit: RateLimit,
    buckets: Mutex<Buckets>,
}

impl RateLimiter {
    /// Creates a limiter enforcing `limit` per client IP.
    pub(crate) fn new(limit: RateLimit) -> Self {
        Self {
            limit,
            buckets: Mutex::new(Buckets::default()),
        }
    }

    /// The buckets, locked. Each update is whole arithmetic on one bucket (or
    /// a prune that keeps or drops whole buckets), so a poisoned lock is
    /// recovered.
    fn buckets(&self) -> MutexGuard<'_, Buckets> {
        self.buckets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spends one token from `peer`'s bucket; `false` means over limit and
    /// the request should be refused with `429`.
    pub(crate) fn admit(&self, peer: IpAddr) -> bool {
        self.admit_at(peer, Instant::now())
    }

    /// [`RateLimiter::admit`] with an explicit clock, for deterministic
    /// tests.
    pub(crate) fn admit_at(&self, peer: IpAddr, now: Instant) -> bool {
        let rate = f64::from(self.limit.requests_per_sec);
        let burst = f64::from(self.limit.burst.max(1));
        let mut buckets = self.buckets();
        let prune_due = buckets
            .last_prune
            .is_none_or(|last| now.saturating_duration_since(last) >= PRUNE_INTERVAL);
        if buckets.map.len() >= PRUNE_HIGH_WATER && prune_due && !buckets.map.contains_key(&peer) {
            // Drop peers whose buckets have refilled to the brim: they have
            // been idle for at least burst/rate seconds and lose nothing by
            // starting from a fresh (full) bucket later.
            buckets.map.retain(|_, bucket| {
                bucket.tokens + now.duration_since(bucket.refilled).as_secs_f64() * rate < burst
            });
            buckets.last_prune = Some(now);
        }
        let bucket = buckets.map.entry(peer).or_insert(Bucket {
            tokens: burst,
            refilled: now,
        });
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * rate).min(burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// The configured limit.
    pub(crate) fn limit(&self) -> RateLimit {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use std::time::Duration;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
    }

    #[test]
    fn burst_then_sustained_rate() {
        let limiter = RateLimiter::new(RateLimit {
            requests_per_sec: 2,
            burst: 3,
        });
        let start = Instant::now();
        // The full burst passes, the next request is refused.
        for _ in 0..3 {
            assert!(limiter.admit_at(ip(1), start));
        }
        assert!(!limiter.admit_at(ip(1), start));
        // Half a second refills one token at 2 rps.
        let later = start + Duration::from_millis(500);
        assert!(limiter.admit_at(ip(1), later));
        assert!(!limiter.admit_at(ip(1), later));
    }

    #[test]
    fn peers_are_limited_independently() {
        let limiter = RateLimiter::new(RateLimit {
            requests_per_sec: 1,
            burst: 1,
        });
        let now = Instant::now();
        assert!(limiter.admit_at(ip(1), now));
        assert!(!limiter.admit_at(ip(1), now));
        // A different client is untouched by the first one's spend.
        assert!(limiter.admit_at(ip(2), now));
    }

    #[test]
    fn refill_caps_at_the_burst_ceiling() {
        let limiter = RateLimiter::new(RateLimit {
            requests_per_sec: 100,
            burst: 2,
        });
        let start = Instant::now();
        assert!(limiter.admit_at(ip(9), start));
        // A long idle period must not bank more than `burst` tokens.
        let later = start + Duration::from_secs(3600);
        assert!(limiter.admit_at(ip(9), later));
        assert!(limiter.admit_at(ip(9), later));
        assert!(!limiter.admit_at(ip(9), later));
    }

    #[test]
    fn idle_peers_are_pruned_at_the_high_water_mark() {
        let limiter = RateLimiter::new(RateLimit {
            requests_per_sec: 1000,
            burst: 1,
        });
        let start = Instant::now();
        for index in 0..PRUNE_HIGH_WATER {
            let peer = IpAddr::V4(Ipv4Addr::from(u32::try_from(index).unwrap()));
            assert!(limiter.admit_at(peer, start));
        }
        assert_eq!(limiter.buckets().map.len(), PRUNE_HIGH_WATER);
        // All buckets refill within a few ms at 1000 rps; a new peer
        // arriving later triggers the prune.
        let later = start + Duration::from_secs(1);
        assert!(limiter.admit_at(ip(123), later));
        assert!(limiter.buckets().map.len() < PRUNE_HIGH_WATER);
    }
}
