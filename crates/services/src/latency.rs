//! Latency models for simulated remote services.

use std::time::Duration;

/// A simple affine latency model: `base + per_kib * ceil(bytes / 1024)`.
///
/// The base term models request overhead (connection reuse, service-side
/// queueing at low load); the per-KiB term models transfer bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed per-request latency.
    pub base: Duration,
    /// Additional latency per KiB of combined request + response payload.
    pub per_kib: Duration,
}

impl LatencyModel {
    /// Creates a model with the given base latency and per-KiB cost.
    pub const fn new(base: Duration, per_kib: Duration) -> Self {
        Self { base, per_kib }
    }

    /// A model with only a fixed latency.
    pub const fn fixed(base: Duration) -> Self {
        Self {
            base,
            per_kib: Duration::ZERO,
        }
    }

    /// A zero-latency model, used by unit tests.
    pub const fn zero() -> Self {
        Self::fixed(Duration::ZERO)
    }

    /// The modeled latency for a request/response with `payload_bytes` of
    /// combined payload.
    pub fn latency_for(&self, payload_bytes: usize) -> Duration {
        let kib = payload_bytes.div_ceil(1024) as u32;
        self.base + self.per_kib * kib
    }
}

/// Default latency models matching the scale of the paper's experiments.
impl LatencyModel {
    /// Intra-datacenter microservice call (auth, log service): ~1 ms base,
    /// ~10 µs per KiB.
    pub const MICROSERVICE: Self =
        Self::new(Duration::from_micros(1000), Duration::from_micros(10));

    /// Object storage (S3-like): ~15 ms first-byte latency, ~12 µs per KiB
    /// (≈ 80 MB/s effective per-request throughput).
    pub const OBJECT_STORE: Self = Self::new(Duration::from_millis(15), Duration::from_micros(12));

    /// LLM inference: the paper measures 1238 ms for the Text2SQL prompt on
    /// Gemma-3-4b (§7.7).
    pub const LLM: Self = Self::fixed(Duration::from_millis(1238));

    /// SQL database query: the paper measures 136 ms for the Text2SQL query.
    pub const SQL_DATABASE: Self = Self::fixed(Duration::from_millis(136));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_model_scales_with_payload() {
        let model = LatencyModel::new(Duration::from_millis(1), Duration::from_micros(10));
        assert_eq!(model.latency_for(0), Duration::from_millis(1));
        assert_eq!(model.latency_for(1), Duration::from_micros(1010));
        assert_eq!(model.latency_for(1024), Duration::from_micros(1010));
        assert_eq!(model.latency_for(1025), Duration::from_micros(1020));
    }

    #[test]
    fn fixed_and_zero_models() {
        assert_eq!(
            LatencyModel::fixed(Duration::from_millis(5)).latency_for(1 << 20),
            Duration::from_millis(5)
        );
        assert_eq!(LatencyModel::zero().latency_for(12345), Duration::ZERO);
    }

    #[test]
    fn default_models_are_ordered_sensibly() {
        assert!(LatencyModel::MICROSERVICE.base < LatencyModel::OBJECT_STORE.base);
        assert!(LatencyModel::OBJECT_STORE.base < LatencyModel::SQL_DATABASE.base);
        assert!(LatencyModel::SQL_DATABASE.base < LatencyModel::LLM.base);
    }
}
