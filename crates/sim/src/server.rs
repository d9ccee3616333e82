//! Core pools and the committed-memory tracker.

use std::time::Duration;

use dandelion_common::TimeSeries;

/// A pool of identical CPU cores scheduling work FCFS.
///
/// Each core is represented by the time at which it next becomes free; an
/// arriving piece of work is assigned to the earliest-free core. This is an
/// exact model of an FCFS multi-server queue as long as work is submitted in
/// non-decreasing arrival order, which the load generators guarantee.
#[derive(Debug, Clone)]
pub(crate) struct CorePool {
    free_at: Vec<Duration>,
    /// Target size; shrinking is applied lazily when cores become free.
    target: usize,
    /// Start times of accepted-but-not-yet-started work, for queue-depth
    /// estimation (the PI controller's input signal).
    pending_starts: Vec<Duration>,
}

impl CorePool {
    /// Creates a pool with `cores` cores, all free at time zero.
    pub(crate) fn new(cores: usize) -> Self {
        Self {
            free_at: vec![Duration::ZERO; cores],
            target: cores,
            pending_starts: Vec::new(),
        }
    }

    /// Requests the pool to grow or shrink to `target` cores.
    ///
    /// Growth takes effect immediately (the new core is free at `now`);
    /// shrinking removes the earliest-free cores lazily so in-flight work is
    /// never aborted.
    pub(crate) fn resize(&mut self, target: usize, now: Duration) {
        let target = target.max(1);
        self.target = target;
        while self.free_at.len() < target {
            self.free_at.push(now);
        }
        self.apply_shrink(now);
    }

    fn apply_shrink(&mut self, now: Duration) {
        while self.free_at.len() > self.target {
            // Remove an idle core if one exists; otherwise wait until one
            // frees up (checked again on the next acquire).
            if let Some(position) = self.free_at.iter().position(|free| *free <= now) {
                self.free_at.remove(position);
            } else {
                break;
            }
        }
    }

    /// Picks the core for work that becomes ready at `ready`: the core whose
    /// free time is closest below `ready` (best fit, wasting the least idle
    /// time), or the earliest-free core if all are still busy at `ready`.
    fn pick_core(&self, ready: Duration) -> usize {
        let best_idle = self
            .free_at
            .iter()
            .enumerate()
            .filter(|(_, free)| **free <= ready)
            .max_by_key(|(_, free)| **free)
            .map(|(index, _)| index);
        best_idle.unwrap_or_else(|| {
            self.free_at
                .iter()
                .enumerate()
                .min_by_key(|(_, free)| **free)
                .map(|(index, _)| index)
                .expect("a core pool always has at least one core")
        })
    }

    /// Schedules `service` on the earliest available core not before
    /// `ready`. Returns the `(start, finish)` times.
    pub(crate) fn acquire(&mut self, ready: Duration, service: Duration) -> (Duration, Duration) {
        self.apply_shrink(ready);
        let index = self.pick_core(ready);
        let start = self.free_at[index].max(ready);
        let finish = start + service;
        self.free_at[index] = finish;
        if start > ready {
            self.pending_starts.push(start);
        }
        (start, finish)
    }

    /// Claims the earliest-free core without fixing the service time yet.
    ///
    /// Returns the core index and the start time; the caller must later call
    /// [`CorePool::occupy_until`] with the computed finish time. Used by the
    /// D-hybrid model where a slot's occupancy depends on work scheduled on
    /// other pools.
    pub(crate) fn acquire_deferred(&mut self, ready: Duration) -> (usize, Duration) {
        self.apply_shrink(ready);
        let index = self.pick_core(ready);
        let start = self.free_at[index].max(ready);
        if start > ready {
            self.pending_starts.push(start);
        }
        (index, start)
    }

    /// Marks the core claimed by [`CorePool::acquire_deferred`] busy until
    /// `finish`.
    pub(crate) fn occupy_until(&mut self, index: usize, finish: Duration) {
        if let Some(slot) = self.free_at.get_mut(index) {
            *slot = (*slot).max(finish);
        }
    }

    /// Number of accepted requests that have not started executing yet at
    /// `now` — the queue depth the control plane samples.
    pub(crate) fn queue_depth(&mut self, now: Duration) -> usize {
        self.pending_starts.retain(|start| *start > now);
        self.pending_starts.len()
    }
}

/// Records committed-memory intervals and renders them as a time series.
///
/// Every sandbox/context contributes `[start, end) × bytes`; the tracker
/// integrates the overlapping intervals into a step function sampled at a
/// fixed period — this is what Figures 1 and 10 plot.
#[derive(Debug, Clone, Default)]
pub struct MemoryTracker {
    intervals: Vec<(Duration, Duration, usize)>,
}

impl MemoryTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `bytes` were committed from `start` until `end`.
    pub fn record(&mut self, start: Duration, end: Duration, bytes: usize) {
        if end > start && bytes > 0 {
            self.intervals.push((start, end, bytes));
        }
    }

    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Builds the committed-memory time series over `[0, horizon]` sampled
    /// every `step`.
    pub fn timeline(&self, horizon: Duration, step: Duration) -> TimeSeries {
        let mut series = TimeSeries::new();
        if step.is_zero() {
            return series;
        }
        let samples = (horizon.as_secs_f64() / step.as_secs_f64()).ceil() as usize + 1;
        // Build a delta map: +bytes at start, -bytes at end, then integrate.
        let mut deltas: Vec<(Duration, i128)> = Vec::with_capacity(self.intervals.len() * 2);
        for (start, end, bytes) in &self.intervals {
            deltas.push((*start, *bytes as i128));
            deltas.push((*end, -(*bytes as i128)));
        }
        deltas.sort_by_key(|a| a.0);
        let mut cursor = 0usize;
        let mut current: i128 = 0;
        for sample in 0..samples {
            let at = step * sample as u32;
            while cursor < deltas.len() && deltas[cursor].0 <= at {
                current += deltas[cursor].1;
                cursor += 1;
            }
            series.push(at, current.max(0) as f64);
        }
        series
    }

    /// Time-averaged committed bytes over the horizon.
    pub fn average_bytes(&self, horizon: Duration) -> f64 {
        let total: f64 = self
            .intervals
            .iter()
            .map(|(start, end, bytes)| {
                let clipped_end = (*end).min(horizon);
                if clipped_end <= *start {
                    0.0
                } else {
                    (clipped_end - *start).as_secs_f64() * *bytes as f64
                }
            })
            .sum();
        if horizon.is_zero() {
            0.0
        } else {
            total / horizon.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(value: u64) -> Duration {
        Duration::from_millis(value)
    }

    #[test]
    fn core_pool_schedules_fcfs_across_cores() {
        let mut pool = CorePool::new(2);
        let (s1, f1) = pool.acquire(ms(0), ms(10));
        let (s2, f2) = pool.acquire(ms(0), ms(10));
        let (s3, f3) = pool.acquire(ms(0), ms(10));
        assert_eq!((s1, f1), (ms(0), ms(10)));
        assert_eq!((s2, f2), (ms(0), ms(10)));
        // Third request queues behind the first free core.
        assert_eq!((s3, f3), (ms(10), ms(20)));
        let busy = pool.free_at.iter().filter(|free| **free > ms(5)).count();
        assert_eq!(busy, 2);
        assert_eq!(pool.queue_depth(ms(5)), 1);
        assert_eq!(pool.queue_depth(ms(15)), 0);
    }

    #[test]
    fn core_pool_resize_grows_and_shrinks_lazily() {
        let mut pool = CorePool::new(1);
        let (_, _) = pool.acquire(ms(0), ms(100));
        pool.resize(3, ms(0));
        assert_eq!(pool.free_at.len(), 3);
        // Work lands on the new idle cores immediately.
        let (start, _) = pool.acquire(ms(1), ms(10));
        assert_eq!(start, ms(1));
        // Shrinking below the busy count happens once cores free up.
        pool.resize(1, ms(2));
        assert!(!pool.free_at.is_empty());
        let _ = pool.acquire(ms(200), ms(1));
        assert_eq!(pool.free_at.len(), 1);
        // A pool never shrinks to zero.
        pool.resize(0, ms(300));
        assert_eq!(pool.target, 1);
    }

    #[test]
    fn memory_tracker_builds_step_timeline() {
        let mut tracker = MemoryTracker::new();
        tracker.record(ms(0), ms(100), 1000);
        tracker.record(ms(50), ms(150), 500);
        tracker.record(ms(10), ms(10), 999); // zero-length, ignored
        assert_eq!(tracker.len(), 2);
        let series = tracker.timeline(ms(200), ms(50));
        let values: Vec<f64> = series.points().iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![1000.0, 1500.0, 500.0, 0.0, 0.0]);
        let average = tracker.average_bytes(ms(200));
        assert!((average - (1000.0 * 0.5 + 500.0 * 0.5)).abs() < 1e-6);
    }
}
