//! Function sampling, trace generation and replay.

use std::time::Duration;

use dandelion_common::rng::SplitMix64;

/// How a function's invocations arrive over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Poisson arrivals at a constant average rate.
    Steady,
    /// Invocations only arrive during periodic on-windows (e.g. timers,
    /// cron-style triggers), with the given period and duty cycle.
    Periodic {
        /// Length of one on/off cycle.
        period: Duration,
        /// Fraction of the period during which invocations arrive (0..=1).
        duty: f64,
    },
    /// Mostly idle with occasional intense bursts.
    Bursty {
        /// Probability that any given second belongs to a burst.
        burst_probability: f64,
        /// Rate multiplier during a burst.
        burst_multiplier: f64,
    },
}

/// The static description of one function in the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// Index of the function within the trace (0-based).
    pub id: usize,
    /// Human-readable name.
    pub name: String,
    /// Average invocations per minute (over the whole trace).
    pub rate_per_minute: f64,
    /// Parameters (mu, sigma) of the log-normal execution-time distribution,
    /// in milliseconds.
    pub duration_lognormal_ms: (f64, f64),
    /// Declared memory requirement in MiB.
    pub memory_mib: u32,
    /// The arrival pattern.
    pub pattern: ArrivalPattern,
}

impl FunctionSpec {
    /// The median execution time implied by the log-normal parameters.
    pub fn median_duration(&self) -> Duration {
        Duration::from_secs_f64(self.duration_lognormal_ms.0.exp() / 1e3)
    }
}

/// One invocation in the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Arrival time relative to the trace start.
    pub time: Duration,
    /// Index of the invoked function.
    pub function: usize,
    /// Execution time of this invocation (as it would run on a warm
    /// dedicated core).
    pub duration: Duration,
    /// Memory requirement in MiB.
    pub memory_mib: u32,
}

/// Configuration of the trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of functions to sample (the paper uses 100).
    pub functions: usize,
    /// Length of the generated trace (the paper replays ~20 minutes).
    pub duration: Duration,
    /// Seed for reproducibility.
    pub seed: u64,
    /// Scales every function's invocation rate (1.0 = as sampled).
    pub rate_scale: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            functions: 100,
            duration: Duration::from_secs(20 * 60),
            seed: 42,
            rate_scale: 1.0,
        }
    }
}

/// A generated trace: the sampled function population plus the sorted list of
/// invocation events.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The sampled functions.
    pub functions: Vec<FunctionSpec>,
    /// Invocation events sorted by arrival time.
    pub events: Vec<TraceEvent>,
    /// The configured trace length.
    pub duration: Duration,
}

impl Trace {
    /// Total number of invocations.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace contains no invocations.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of arrivals in each one-second bucket.
    pub fn arrivals_per_second(&self) -> Vec<usize> {
        let seconds = self.duration.as_secs() as usize + 1;
        let mut buckets = vec![0usize; seconds];
        for event in &self.events {
            let bucket = (event.time.as_secs() as usize).min(seconds - 1);
            buckets[bucket] += 1;
        }
        buckets
    }

    /// Average request rate over the whole trace, in invocations per second.
    pub fn average_rps(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.events.len() as f64 / self.duration.as_secs_f64()
    }

    /// Events for one function, in arrival order.
    pub fn events_for(&self, function: usize) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|event| event.function == function)
            .collect()
    }
}

/// Memory sizes (MiB) typical of FaaS deployments, with selection weights.
const MEMORY_CHOICES: [(u32, f64); 5] =
    [(128, 0.45), (192, 0.2), (256, 0.2), (384, 0.1), (512, 0.05)];

/// Samples a population of functions with Azure-trace-like statistics
/// (InVitro-style sampling).
pub(crate) fn sample_functions(count: usize, seed: u64) -> Vec<FunctionSpec> {
    let mut rng = SplitMix64::new(seed);
    let mut specs = Vec::with_capacity(count);
    let memory_weights: Vec<f64> = MEMORY_CHOICES.iter().map(|(_, weight)| *weight).collect();
    for id in 0..count {
        // Popularity: Pareto-distributed invocations per minute. Shape 1.2
        // gives the documented skew: most functions see about one invocation
        // per minute, a handful see hundreds.
        let rate_per_minute = rng.pareto(0.8, 1.2).min(600.0);
        // Durations: log-normal with a median drawn between ~15 ms and
        // ~500 ms, sigma between 0.3 and 0.8.
        let median_ms = rng.uniform(15.0, 500.0);
        let sigma = rng.uniform(0.3, 0.8);
        let duration_lognormal_ms = (median_ms.ln(), sigma);
        let memory_mib = MEMORY_CHOICES[rng.weighted_index(&memory_weights).unwrap_or(0)].0;
        let pattern = match rng.next_bounded(10) {
            0..=4 => ArrivalPattern::Steady,
            5..=7 => ArrivalPattern::Periodic {
                period: Duration::from_secs(60 * rng.next_bounded(5).max(1)),
                duty: rng.uniform(0.05, 0.4),
            },
            _ => ArrivalPattern::Bursty {
                burst_probability: rng.uniform(0.01, 0.08),
                burst_multiplier: rng.uniform(5.0, 20.0),
            },
        };
        specs.push(FunctionSpec {
            id,
            name: format!("function-{id:03}"),
            rate_per_minute,
            duration_lognormal_ms,
            memory_mib,
            pattern,
        });
    }
    specs
}

/// Generates a trace by sampling arrivals for each function independently.
pub fn generate_trace(config: &TraceConfig) -> Trace {
    let functions = sample_functions(config.functions, config.seed);
    let mut rng = SplitMix64::new(config.seed ^ 0x5EED_CAFE);
    let seconds = config.duration.as_secs();
    let mut events = Vec::new();
    for spec in &functions {
        let base_rate_per_second = spec.rate_per_minute * config.rate_scale / 60.0;
        for second in 0..seconds {
            let rate = match spec.pattern {
                ArrivalPattern::Steady => base_rate_per_second,
                ArrivalPattern::Periodic { period, duty } => {
                    let position =
                        (second % period.as_secs().max(1)) as f64 / period.as_secs().max(1) as f64;
                    if position < duty {
                        base_rate_per_second / duty.max(1e-6)
                    } else {
                        0.0
                    }
                }
                ArrivalPattern::Bursty {
                    burst_probability,
                    burst_multiplier,
                } => {
                    if rng.bernoulli(burst_probability) {
                        base_rate_per_second * burst_multiplier
                    } else {
                        base_rate_per_second * 0.2
                    }
                }
            };
            let arrivals = rng.poisson(rate);
            for _ in 0..arrivals {
                let offset = rng.next_f64();
                let (mu, sigma) = spec.duration_lognormal_ms;
                let duration_ms = rng.log_normal(mu, sigma).clamp(1.0, 120_000.0);
                events.push(TraceEvent {
                    time: Duration::from_secs_f64(second as f64 + offset),
                    function: spec.id,
                    duration: Duration::from_secs_f64(duration_ms / 1e3),
                    memory_mib: spec.memory_mib,
                });
            }
        }
    }
    events.sort_by_key(|a| a.time);
    Trace {
        functions,
        events,
        duration: config.duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TraceConfig {
        TraceConfig {
            functions: 50,
            duration: Duration::from_secs(300),
            seed: 7,
            rate_scale: 1.0,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_trace(&small_config());
        let b = generate_trace(&small_config());
        assert_eq!(a.events, b.events);
        assert_eq!(a.functions, b.functions);
        let c = generate_trace(&TraceConfig {
            seed: 8,
            ..small_config()
        });
        assert_ne!(a.events.len(), 0);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn events_are_sorted_and_within_duration() {
        let trace = generate_trace(&small_config());
        assert!(!trace.is_empty());
        for window in trace.events.windows(2) {
            assert!(window[0].time <= window[1].time);
        }
        assert!(trace
            .events
            .iter()
            .all(|event| event.time <= trace.duration + Duration::from_secs(1)));
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let trace = generate_trace(&TraceConfig {
            functions: 100,
            duration: Duration::from_secs(600),
            seed: 11,
            rate_scale: 1.0,
        });
        let mut per_function = vec![0usize; 100];
        for event in &trace.events {
            per_function[event.function] += 1;
        }
        per_function.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = per_function.iter().sum();
        let top_10: usize = per_function.iter().take(10).sum();
        // The 10 most popular functions should account for well over a third
        // of all invocations.
        assert!(
            top_10 as f64 / total as f64 > 0.35,
            "top-10 share was {}",
            top_10 as f64 / total as f64
        );
    }

    #[test]
    fn durations_are_mostly_sub_second() {
        let trace = generate_trace(&small_config());
        let sub_second = trace
            .events
            .iter()
            .filter(|event| event.duration < Duration::from_secs(1))
            .count();
        assert!(sub_second as f64 / trace.len() as f64 > 0.7);
        assert!(trace
            .events
            .iter()
            .all(|event| event.duration >= Duration::from_millis(1)));
    }

    #[test]
    fn memory_sizes_come_from_the_catalogue() {
        let specs = sample_functions(200, 3);
        assert!(specs.iter().all(|spec| MEMORY_CHOICES
            .iter()
            .any(|(size, _)| *size == spec.memory_mib)));
        // 128 MiB should be the most common choice.
        let small = specs.iter().filter(|spec| spec.memory_mib == 128).count();
        assert!(small > 50);
    }

    #[test]
    fn rate_scale_scales_the_trace() {
        let base = generate_trace(&small_config());
        let double = generate_trace(&TraceConfig {
            rate_scale: 2.0,
            ..small_config()
        });
        let ratio = double.len() as f64 / base.len() as f64;
        assert!((1.5..2.5).contains(&ratio), "ratio was {ratio}");
    }

    #[test]
    fn arrivals_per_second_matches_event_count() {
        let trace = generate_trace(&small_config());
        let buckets = trace.arrivals_per_second();
        assert_eq!(buckets.iter().sum::<usize>(), trace.len());
        assert!(trace.average_rps() > 0.0);
    }

    #[test]
    fn per_function_queries() {
        let trace = generate_trace(&small_config());
        let spec = &trace.functions[0];
        assert_eq!(spec.id, 0);
        assert!(spec.median_duration() >= Duration::from_millis(10));
        let events = trace.events_for(0);
        assert!(events.iter().all(|event| event.function == 0));
    }
}
