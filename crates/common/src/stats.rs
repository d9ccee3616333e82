//! Latency recorders, percentile summaries and time series.
//!
//! The evaluation of the paper reports tail latencies (p99, p99.5), medians
//! with p5/p95 error bars, averages, relative variance, and committed-memory
//! time series. This module provides the small statistics toolkit used by the
//! simulator and the benchmark harness to compute those numbers, and the
//! bounded [`LatencyHistogram`] a serving process records into instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Collects duration samples and computes summary statistics.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_us: Vec<f64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder with capacity for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            samples_us: Vec::with_capacity(capacity),
            sorted: true,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.samples_us.push(latency.as_secs_f64() * 1e6);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples_us.extend_from_slice(&other.samples_us);
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples_us
                .sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
            self.sorted = true;
        }
    }

    /// Returns the percentile (0.0..=100.0) in microseconds.
    ///
    /// Uses nearest-rank interpolation. Returns `None` when empty.
    pub fn percentile_us(&mut self, percentile: f64) -> Option<f64> {
        if self.samples_us.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let clamped = percentile.clamp(0.0, 100.0);
        let rank = (clamped / 100.0) * (self.samples_us.len() - 1) as f64;
        let low = rank.floor() as usize;
        let high = rank.ceil() as usize;
        if low == high {
            return Some(self.samples_us[low]);
        }
        let weight = rank - low as f64;
        Some(self.samples_us[low] * (1.0 - weight) + self.samples_us[high] * weight)
    }

    /// Returns the percentile as a [`Duration`].
    pub fn percentile(&mut self, percentile: f64) -> Option<Duration> {
        self.percentile_us(percentile)
            .map(|us| Duration::from_secs_f64(us / 1e6))
    }

    /// Arithmetic mean in microseconds.
    pub fn mean_us(&self) -> Option<f64> {
        if self.samples_us.is_empty() {
            return None;
        }
        Some(self.samples_us.iter().sum::<f64>() / self.samples_us.len() as f64)
    }

    /// Population variance in microseconds squared.
    pub fn variance_us2(&self) -> Option<f64> {
        let mean = self.mean_us()?;
        let n = self.samples_us.len() as f64;
        Some(
            self.samples_us
                .iter()
                .map(|sample| {
                    let diff = sample - mean;
                    diff * diff
                })
                .sum::<f64>()
                / n,
        )
    }

    /// Standard deviation in microseconds.
    pub fn std_dev_us(&self) -> Option<f64> {
        self.variance_us2().map(f64::sqrt)
    }

    /// Relative variance (coefficient of variation of the variance as used in
    /// the paper's Figure 8 discussion): `variance / mean²`, in percent.
    pub fn relative_variance_percent(&self) -> Option<f64> {
        let mean = self.mean_us()?;
        if mean == 0.0 {
            return None;
        }
        self.variance_us2()
            .map(|variance| 100.0 * variance / (mean * mean))
    }

    /// Maximum sample in microseconds.
    pub fn max_us(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples_us.last().copied()
    }

    /// Produces an immutable summary of the recorded distribution.
    pub fn summary(&mut self) -> LatencySummary {
        LatencySummary {
            count: self.len(),
            mean_us: self.mean_us().unwrap_or(0.0),
            p5_us: self.percentile_us(5.0).unwrap_or(0.0),
            p50_us: self.percentile_us(50.0).unwrap_or(0.0),
            p95_us: self.percentile_us(95.0).unwrap_or(0.0),
            p99_us: self.percentile_us(99.0).unwrap_or(0.0),
            p995_us: self.percentile_us(99.5).unwrap_or(0.0),
            max_us: self.max_us().unwrap_or(0.0),
            std_dev_us: self.std_dev_us().unwrap_or(0.0),
            relative_variance_percent: self.relative_variance_percent().unwrap_or(0.0),
        }
    }
}

/// Immutable summary of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Mean in microseconds.
    pub mean_us: f64,
    /// 5th percentile in microseconds.
    pub p5_us: f64,
    /// Median in microseconds.
    pub p50_us: f64,
    /// 95th percentile in microseconds.
    pub p95_us: f64,
    /// 99th percentile in microseconds.
    pub p99_us: f64,
    /// 99.5th percentile in microseconds.
    pub p995_us: f64,
    /// Maximum in microseconds.
    pub max_us: f64,
    /// Standard deviation in microseconds.
    pub std_dev_us: f64,
    /// Relative variance in percent (see the paper's Figure 8).
    pub relative_variance_percent: f64,
}

impl LatencySummary {
    /// Mean in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_us / 1000.0
    }

    /// Median in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.p50_us / 1000.0
    }

    /// 99th percentile in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.p99_us / 1000.0
    }

    /// 99.5th percentile in milliseconds.
    pub fn p995_ms(&self) -> f64 {
        self.p995_us / 1000.0
    }
}

/// Sub-buckets per power of two of [`LatencyHistogram`], as a bit count: 64
/// of them make a bucket at most 1/64 (1.6 %) as wide as its lower bound.
const HISTOGRAM_SUB_BITS: u32 = 6;
/// Values at or above 2^42 ns (73 minutes) land in the last bucket.
const HISTOGRAM_MAX_BITS: u32 = 42;
const HISTOGRAM_BUCKETS: usize =
    ((HISTOGRAM_MAX_BITS - HISTOGRAM_SUB_BITS + 1) as usize) << HISTOGRAM_SUB_BITS;

/// A fixed-size latency histogram that any thread records into without a
/// lock or an allocation.
///
/// [`LatencyRecorder`] keeps every sample, which suits a simulation that
/// ends; a serving process settles invocations for as long as it is up.
/// This histogram instead counts nanosecond values in log-linear buckets
/// (HDR-histogram style: each power of two is cut into 64 equal buckets), so
/// its 19 KiB never grow, a record is three relaxed atomic adds, and a
/// reported percentile — the midpoint of the bucket holding that rank — is
/// within 1 % of the sample it stands for.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// The bucket of a nanosecond value: values below 64 have one each;
    /// above, the top seven bits select it (one leading bit, six of
    /// mantissa), so buckets double in width with each power of two.
    fn bucket_of(ns: u64) -> usize {
        let sub = 1u64 << HISTOGRAM_SUB_BITS;
        if ns < sub {
            return ns as usize;
        }
        let shift = (63 - ns.leading_zeros()) - HISTOGRAM_SUB_BITS;
        ((u64::from(shift + 1) << HISTOGRAM_SUB_BITS) + ((ns >> shift) - sub)) as usize
    }

    /// The midpoint, in nanoseconds, of the values `bucket` holds.
    fn midpoint_ns(bucket: usize) -> f64 {
        let sub = 1usize << HISTOGRAM_SUB_BITS;
        if bucket < sub {
            return bucket as f64;
        }
        let shift = bucket / sub - 1;
        let low = ((sub + bucket % sub) as u64) << shift;
        low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos())
            .unwrap_or(u64::MAX)
            .min((1 << HISTOGRAM_MAX_BITS) - 1);
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Summarizes what has been recorded so far. Count, mean and maximum
    /// are exact; percentiles and the deviation are computed from bucket
    /// midpoints. Samples recorded while this runs may or may not be seen.
    pub fn summary(&self) -> LatencySummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return LatencySummary::default();
        }
        let max_us = self.max_ns.load(Ordering::Relaxed) as f64 / 1e3;
        let percentile_us = |percentile: f64| {
            // The same rank LatencyRecorder interpolates from.
            let rank = (percentile / 100.0 * (count - 1) as f64) as u64;
            let mut seen = 0;
            for (bucket, &in_bucket) in counts.iter().enumerate() {
                seen += in_bucket;
                if seen > rank {
                    return (Self::midpoint_ns(bucket) / 1e3).min(max_us);
                }
            }
            max_us
        };
        let mean_us = self.sum_ns.load(Ordering::Relaxed) as f64 / 1e3 / count as f64;
        let variance_us2 = counts
            .iter()
            .enumerate()
            .map(|(bucket, &in_bucket)| {
                let diff = Self::midpoint_ns(bucket) / 1e3 - mean_us;
                in_bucket as f64 * diff * diff
            })
            .sum::<f64>()
            / count as f64;
        LatencySummary {
            count: count as usize,
            mean_us,
            p5_us: percentile_us(5.0),
            p50_us: percentile_us(50.0),
            p95_us: percentile_us(95.0),
            p99_us: percentile_us(99.0),
            p995_us: percentile_us(99.5),
            max_us,
            std_dev_us: variance_us2.sqrt(),
            relative_variance_percent: if mean_us > 0.0 {
                100.0 * variance_us2 / (mean_us * mean_us)
            } else {
                0.0
            },
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("LatencyHistogram")
            .field(&self.summary())
            .finish()
    }
}

/// A `(time, value)` series, e.g. committed memory over time.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(Duration, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point. Times are expected to be non-decreasing.
    pub fn push(&mut self, time: Duration, value: f64) {
        self.points.push((time, value));
    }

    /// Number of points in the series.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns the points as a slice.
    pub fn points(&self) -> &[(Duration, f64)] {
        &self.points
    }

    /// Time-weighted average of the series over its observed span.
    ///
    /// Each value is weighted by the time until the next sample; the last
    /// sample gets zero weight (it has no duration). Returns `None` for
    /// series with fewer than two points.
    pub fn time_weighted_average(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let mut weighted = 0.0;
        let mut total = 0.0;
        for window in self.points.windows(2) {
            let (t0, v0) = window[0];
            let (t1, _) = window[1];
            let dt = (t1 - t0).as_secs_f64();
            weighted += v0 * dt;
            total += dt;
        }
        if total == 0.0 {
            None
        } else {
            Some(weighted / total)
        }
    }

    /// Maximum value in the series.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|(_, value)| *value)
            .fold(None, |acc, value| match acc {
                None => Some(value),
                Some(best) => Some(best.max(value)),
            })
    }

    /// Downsamples the series to at most `max_points` evenly spaced points.
    pub fn downsample(&self, max_points: usize) -> TimeSeries {
        if max_points == 0 || self.points.len() <= max_points {
            return self.clone();
        }
        let stride = self.points.len() as f64 / max_points as f64;
        let mut points = Vec::with_capacity(max_points);
        for index in 0..max_points {
            let source = (index as f64 * stride) as usize;
            points.push(self.points[source.min(self.points.len() - 1)]);
        }
        TimeSeries { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_from_ms(values: &[u64]) -> LatencyRecorder {
        let mut recorder = LatencyRecorder::new();
        for value in values {
            recorder.record(Duration::from_millis(*value));
        }
        recorder
    }

    #[test]
    fn percentiles_interpolate() {
        let mut recorder = recorder_from_ms(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(recorder.len(), 10);
        let p50 = recorder.percentile_us(50.0).unwrap();
        assert!((p50 - 55_000.0).abs() < 1.0);
        let p0 = recorder.percentile_us(0.0).unwrap();
        assert!((p0 - 10_000.0).abs() < 1.0);
        let p100 = recorder.percentile_us(100.0).unwrap();
        assert!((p100 - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn empty_recorder_returns_none() {
        let mut recorder = LatencyRecorder::new();
        assert!(recorder.percentile_us(99.0).is_none());
        assert!(recorder.mean_us().is_none());
        assert!(recorder.variance_us2().is_none());
        assert!(recorder.is_empty());
    }

    #[test]
    fn mean_and_variance() {
        let recorder = recorder_from_ms(&[10, 10, 10, 10]);
        assert!((recorder.mean_us().unwrap() - 10_000.0).abs() < 1e-9);
        assert!((recorder.variance_us2().unwrap()).abs() < 1e-9);

        let recorder = recorder_from_ms(&[10, 20]);
        assert!((recorder.mean_us().unwrap() - 15_000.0).abs() < 1e-9);
        assert!((recorder.std_dev_us().unwrap() - 5_000.0).abs() < 1e-6);
    }

    #[test]
    fn relative_variance_matches_paper_definition() {
        // Mean 10ms, std-dev 5ms: relative variance = 25/100 = 25%.
        let recorder = recorder_from_ms(&[5, 15]);
        let relative = recorder.relative_variance_percent().unwrap();
        assert!((relative - 25.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_buckets_tile_the_range_within_two_percent() {
        // Every value maps into a bucket whose midpoint is within 2 % of it,
        // bucket indices never decrease with the value, and the largest
        // trackable value lands in the last bucket.
        let mut previous = 0;
        let mut value = 1u64;
        while value < 1 << HISTOGRAM_MAX_BITS {
            for ns in [value, value + value / 3, value * 2 - 1] {
                let bucket = LatencyHistogram::bucket_of(ns);
                assert!(bucket >= previous, "bucket order broke at {ns}");
                previous = bucket;
                let error = (LatencyHistogram::midpoint_ns(bucket) - ns as f64).abs() / ns as f64;
                assert!(error <= 0.02, "{ns} ns is {error} off its bucket midpoint");
            }
            value *= 2;
        }
        assert_eq!(
            LatencyHistogram::bucket_of((1 << HISTOGRAM_MAX_BITS) - 1),
            HISTOGRAM_BUCKETS - 1
        );
    }

    #[test]
    fn histogram_summary_tracks_the_exact_recorder() {
        // 50k samples spread log-uniformly over 2 us .. 20 s: wide enough to
        // cross 23 powers of two, dense enough that neighbouring ranks agree.
        let histogram = LatencyHistogram::new();
        let mut exact = LatencyRecorder::new();
        let mut rng = crate::rng::SplitMix64::new(7);
        for _ in 0..50_000 {
            let exponent = 11.0 + 23.0 * (rng.next_bounded(1 << 30) as f64 / (1u64 << 30) as f64);
            let latency = Duration::from_nanos(exponent.exp2() as u64);
            histogram.record(latency);
            exact.record(latency);
        }
        let summary = histogram.summary();
        let reference = exact.summary();
        assert_eq!(summary.count, reference.count);
        let close = |name: &str, got: f64, want: f64, tolerance: f64| {
            let error = (got - want).abs() / want;
            assert!(error <= tolerance, "{name}: {got} vs {want} ({error})");
        };
        close("mean", summary.mean_us, reference.mean_us, 1e-9);
        close("max", summary.max_us, reference.max_us, 1e-9);
        close("p5", summary.p5_us, reference.p5_us, 0.02);
        close("p50", summary.p50_us, reference.p50_us, 0.02);
        close("p95", summary.p95_us, reference.p95_us, 0.02);
        close("p99", summary.p99_us, reference.p99_us, 0.02);
        close("p99.5", summary.p995_us, reference.p995_us, 0.02);
        close("std dev", summary.std_dev_us, reference.std_dev_us, 0.02);
        // Out-of-range samples saturate instead of indexing out of bounds,
        // and an empty histogram summarizes to zeros.
        histogram.record(Duration::from_secs(1 << 40));
        assert_eq!(histogram.summary().count, 50_001);
        assert_eq!(LatencyHistogram::new().summary(), LatencySummary::default());
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = recorder_from_ms(&[1, 2]);
        let b = recorder_from_ms(&[3, 4]);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert!((a.mean_us().unwrap() - 2_500.0).abs() < 1e-9);
    }

    #[test]
    fn summary_is_consistent() {
        let mut recorder = recorder_from_ms(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let summary = recorder.summary();
        assert_eq!(summary.count, 10);
        assert!(summary.p99_us >= summary.p50_us);
        assert!(summary.p995_us >= summary.p99_us);
        assert!(summary.max_us >= summary.p995_us);
        assert!(summary.p99_ms() >= summary.p50_ms());
    }

    #[test]
    fn time_series_weighted_average() {
        let mut series = TimeSeries::new();
        series.push(Duration::from_secs(0), 100.0);
        series.push(Duration::from_secs(10), 200.0);
        series.push(Duration::from_secs(20), 0.0);
        // 100 for 10s, 200 for 10s → average 150.
        assert!((series.time_weighted_average().unwrap() - 150.0).abs() < 1e-9);
        assert_eq!(series.max_value(), Some(200.0));
    }

    #[test]
    fn time_series_downsample_preserves_length_bound() {
        let mut series = TimeSeries::new();
        for second in 0..1000 {
            series.push(Duration::from_secs(second), second as f64);
        }
        let down = series.downsample(100);
        assert_eq!(down.len(), 100);
        let same = series.downsample(10_000);
        assert_eq!(same.len(), 1000);
    }
}
