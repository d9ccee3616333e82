//! A Knative-style (KPA) concurrency autoscaler.
//!
//! Figures 1 and 10 of the paper drive Firecracker MicroVMs with "the
//! autoscaling policy in Knative": per-function sandbox counts follow the
//! observed request concurrency averaged over a stable window, scale up
//! immediately through a panic window, and scale down (eventually to zero)
//! only after the load has stayed low for the whole stable window plus a
//! grace period. Keeping sandboxes warm this way is what commits 16× more
//! memory than the actively used amount.

use std::collections::HashMap;
use std::time::Duration;

/// Autoscaler parameters (Knative defaults, scaled for simulation).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AutoscalerConfig {
    /// Target concurrent requests per sandbox.
    pub(crate) target_concurrency: f64,
    /// Averaging window for the stable (scale-down) estimate.
    pub(crate) stable_window: Duration,
    /// Averaging window for the panic (scale-up) estimate.
    pub(crate) panic_window: Duration,
    /// Extra idle time before the last sandbox of a function is removed.
    pub(crate) scale_to_zero_grace: Duration,
    /// How often the autoscaler re-evaluates desired counts.
    pub(crate) tick: Duration,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        Self {
            target_concurrency: 1.0,
            stable_window: Duration::from_secs(60),
            panic_window: Duration::from_secs(6),
            scale_to_zero_grace: Duration::from_secs(30),
            tick: Duration::from_secs(2),
        }
    }
}

/// Per-function arrival bookkeeping.
#[derive(Debug, Default, Clone)]
struct FunctionState {
    /// Recent arrival timestamps (pruned to the stable window).
    arrivals: Vec<Duration>,
    /// Rolling estimate of mean execution time, used to convert arrival rate
    /// into concurrency.
    mean_execution: Duration,
    /// Last time an arrival was observed.
    last_arrival: Duration,
    /// Current desired sandbox count.
    desired: usize,
}

/// The autoscaler.
#[derive(Debug, Clone)]
pub struct KnativeAutoscaler {
    config: AutoscalerConfig,
    functions: HashMap<String, FunctionState>,
    next_tick: Duration,
}

impl KnativeAutoscaler {
    /// Creates an autoscaler with the given configuration.
    pub(crate) fn new(config: AutoscalerConfig) -> Self {
        Self {
            config,
            functions: HashMap::new(),
            next_tick: config.tick,
        }
    }

    /// Creates an autoscaler with Knative default parameters.
    pub fn knative_defaults() -> Self {
        Self::new(AutoscalerConfig::default())
    }

    /// Records the arrival of a request for `function`.
    pub fn observe_arrival(&mut self, function: &str, at: Duration) {
        let state = self.functions.entry(function.to_string()).or_default();
        state.arrivals.push(at);
        state.last_arrival = at;
    }

    /// Records an observed execution time for `function`, refining the
    /// concurrency estimate.
    pub fn observe_execution(&mut self, function: &str, duration: Duration) {
        let state = self.functions.entry(function.to_string()).or_default();
        if state.mean_execution.is_zero() {
            state.mean_execution = duration;
        } else {
            // Exponential moving average with alpha = 0.2.
            state.mean_execution = Duration::from_secs_f64(
                state.mean_execution.as_secs_f64() * 0.8 + duration.as_secs_f64() * 0.2,
            );
        }
    }

    /// The current desired sandbox count for `function`.
    pub fn desired(&self, function: &str) -> usize {
        self.functions
            .get(function)
            .map(|state| state.desired)
            .unwrap_or(0)
    }

    fn concurrency_over(&self, state: &FunctionState, window: Duration, now: Duration) -> f64 {
        let window_start = now.saturating_sub(window);
        let arrivals = state
            .arrivals
            .iter()
            .filter(|at| **at >= window_start)
            .count() as f64;
        let window_secs = window.as_secs_f64().max(1e-9);
        let rate = arrivals / window_secs;
        let execution = state
            .mean_execution
            .max(Duration::from_millis(50))
            .as_secs_f64();
        rate * execution
    }

    /// Advances the autoscaler to `now`, returning `(function, desired)`
    /// pairs for every function whose desired count changed.
    pub fn housekeeping(&mut self, now: Duration) -> Vec<(String, usize)> {
        let mut changes = Vec::new();
        while self.next_tick <= now {
            let tick = self.next_tick;
            self.next_tick += self.config.tick;
            let config = self.config;
            let mut updates = Vec::new();
            for (name, state) in self.functions.iter_mut() {
                let window_start = tick.saturating_sub(config.stable_window);
                state.arrivals.retain(|at| *at >= window_start);
                // Panic estimate scales up fast; stable estimate scales down.
                let stable = {
                    let window_secs = config.stable_window.as_secs_f64().max(1e-9);
                    let rate = state.arrivals.len() as f64 / window_secs;
                    rate * state
                        .mean_execution
                        .max(Duration::from_millis(50))
                        .as_secs_f64()
                };
                let panic_start = tick.saturating_sub(config.panic_window);
                let panic = {
                    let arrivals = state
                        .arrivals
                        .iter()
                        .filter(|at| **at >= panic_start)
                        .count() as f64;
                    let window_secs = config.panic_window.as_secs_f64().max(1e-9);
                    (arrivals / window_secs)
                        * state
                            .mean_execution
                            .max(Duration::from_millis(50))
                            .as_secs_f64()
                };
                let concurrency = stable.max(panic);
                let mut desired = (concurrency / config.target_concurrency).ceil() as usize;
                // Keep the last sandbox warm until the grace period expires.
                if desired == 0
                    && state.desired > 0
                    && tick < state.last_arrival + config.stable_window + config.scale_to_zero_grace
                {
                    desired = 1;
                }
                if desired != state.desired {
                    state.desired = desired;
                    updates.push((name.clone(), desired));
                }
            }
            changes.extend(updates);
        }
        // Report only the latest desired value per function.
        let mut latest: HashMap<String, usize> = HashMap::new();
        for (name, desired) in changes {
            latest.insert(name, desired);
        }
        let mut result: Vec<(String, usize)> = latest.into_iter().collect();
        result.sort();
        result
    }

    /// Exposes the concurrency estimate (stable window) for tests.
    pub fn stable_concurrency(&self, function: &str, now: Duration) -> f64 {
        self.functions
            .get(function)
            .map(|state| self.concurrency_over(state, self.config.stable_window, now))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seconds(value: u64) -> Duration {
        Duration::from_secs(value)
    }

    #[test]
    fn sustained_load_scales_up() {
        let mut autoscaler = KnativeAutoscaler::knative_defaults();
        autoscaler.observe_execution("f", Duration::from_millis(500));
        // 10 requests per second for 30 seconds → concurrency ≈ 5.
        for second in 0..30u64 {
            for request in 0..10u64 {
                autoscaler
                    .observe_arrival("f", seconds(second) + Duration::from_millis(request * 100));
            }
        }
        autoscaler.housekeeping(seconds(30));
        assert!(
            autoscaler.desired("f") >= 3,
            "desired {}",
            autoscaler.desired("f")
        );
        assert!(autoscaler.stable_concurrency("f", seconds(30)) > 1.0);
    }

    #[test]
    fn idle_functions_scale_to_zero_after_grace() {
        let config = AutoscalerConfig {
            stable_window: seconds(10),
            scale_to_zero_grace: seconds(5),
            ..AutoscalerConfig::default()
        };
        let mut autoscaler = KnativeAutoscaler::new(config);
        autoscaler.observe_execution("f", Duration::from_millis(200));
        for index in 0..20u64 {
            autoscaler.observe_arrival("f", Duration::from_millis(index * 100));
        }
        autoscaler.housekeeping(seconds(4));
        assert!(autoscaler.desired("f") >= 1);
        // Long after the last arrival the function scales to zero.
        autoscaler.housekeeping(seconds(60));
        assert_eq!(autoscaler.desired("f"), 0);
    }

    #[test]
    fn keeps_one_sandbox_warm_during_grace_period() {
        let config = AutoscalerConfig {
            stable_window: seconds(10),
            scale_to_zero_grace: seconds(20),
            ..AutoscalerConfig::default()
        };
        let mut autoscaler = KnativeAutoscaler::new(config);
        autoscaler.observe_execution("f", Duration::from_millis(100));
        autoscaler.observe_arrival("f", seconds(1));
        autoscaler.housekeeping(seconds(2));
        // Load has gone away, but within window + grace one sandbox stays.
        autoscaler.housekeeping(seconds(15));
        assert_eq!(autoscaler.desired("f"), 1);
        autoscaler.housekeeping(seconds(40));
        assert_eq!(autoscaler.desired("f"), 0);
    }

    #[test]
    fn housekeeping_reports_changes_once() {
        let mut autoscaler = KnativeAutoscaler::knative_defaults();
        autoscaler.observe_execution("f", Duration::from_millis(300));
        for index in 0..100u64 {
            autoscaler.observe_arrival("f", Duration::from_millis(index * 50));
        }
        let changes = autoscaler.housekeeping(seconds(10));
        assert!(changes
            .iter()
            .any(|(name, desired)| name == "f" && *desired > 0));
        // No new arrivals, no changes on the next immediate tick.
        let changes = autoscaler.housekeeping(seconds(10));
        assert!(changes.is_empty());
    }
}
