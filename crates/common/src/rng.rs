//! Deterministic random number generation and workload distributions.
//!
//! The simulator and the trace generator need reproducible randomness: given
//! the same seed they must produce the same workload on every run, so that
//! experiment output is stable across machines. [`SplitMix64`] is a tiny,
//! high-quality generator suited for that purpose; the distribution helpers
//! cover the shapes used by the Azure Functions workload model (exponential
//! inter-arrivals, log-normal durations and memory sizes, Pareto-like
//! popularity skew).

/// A deterministic 64-bit pseudo random number generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The Weyl increment the state advances by per draw.
    const INCREMENT: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::INCREMENT);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniformly distributed double.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns a uniform value in `[low, high)`.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        low + (high - low) * self.next_f64()
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Modulo bias is negligible for the bounds used here (≪ 2^32).
        self.next_u64() % bound
    }

    /// Returns `true` with the given probability.
    pub fn bernoulli(&mut self, probability: f64) -> bool {
        self.next_f64() < probability
    }

    /// Samples an exponentially distributed value with the given rate (λ).
    ///
    /// Used for Poisson-process inter-arrival times: `mean = 1 / rate`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        let uniform = 1.0 - self.next_f64();
        -uniform.ln() / rate
    }

    /// Samples a standard normal value using the Box-Muller transform.
    fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Samples a normal value with the given mean and standard deviation.
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Samples a log-normal value parameterized by the underlying normal's
    /// `mu` and `sigma`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Samples a Pareto distributed value with scale `x_min` and shape `alpha`.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        debug_assert!(x_min > 0.0 && alpha > 0.0);
        let uniform = 1.0 - self.next_f64();
        x_min / uniform.powf(1.0 / alpha)
    }

    /// Samples a Poisson-distributed count with the given mean.
    ///
    /// Uses Knuth's algorithm for small means and a normal approximation for
    /// large ones, which is accurate enough for workload generation.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean > 64.0 {
            let sample = self.normal(mean, mean.sqrt()).round();
            return sample.max(0.0) as u64;
        }
        let limit = (-mean).exp();
        let mut count = 0u64;
        let mut product = self.next_f64();
        while product > limit {
            count += 1;
            product *= self.next_f64();
        }
        count
    }

    /// Picks an index in `[0, weights.len())` proportionally to `weights`.
    ///
    /// Returns `None` when weights are empty or sum to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().sum();
        if weights.is_empty() || total <= 0.0 {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (index, weight) in weights.iter().enumerate() {
            target -= weight;
            if target <= 0.0 {
                return Some(index);
            }
        }
        Some(weights.len() - 1)
    }

    /// Shuffles a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, values: &mut [T]) {
        if values.is_empty() {
            return;
        }
        for index in (1..values.len()).rev() {
            let other = self.next_bounded(index as u64 + 1) as usize;
            values.swap(index, other);
        }
    }
}

/// FNV-1a, 64 bit: the stable hash of a name, for deriving a per-name
/// random stream or a placement that must not change between runs or
/// processes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let value = rng.next_f64();
            assert!((0.0..1.0).contains(&value));
            let scaled = rng.uniform(5.0, 10.0);
            assert!((5.0..10.0).contains(&scaled));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SplitMix64::new(11);
        let rate = 4.0;
        let samples = 50_000;
        let mean: f64 = (0..samples).map(|_| rng.exponential(rate)).sum::<f64>() / samples as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn normal_mean_and_std() {
        let mut rng = SplitMix64::new(13);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let variance =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.1);
        assert!((variance.sqrt() - 2.0).abs() < 0.1);
    }

    #[test]
    fn poisson_mean_converges() {
        let mut rng = SplitMix64::new(17);
        let mean_small: f64 = (0..20_000).map(|_| rng.poisson(3.0) as f64).sum::<f64>() / 20_000.0;
        assert!((mean_small - 3.0).abs() < 0.1);
        let mean_large: f64 =
            (0..20_000).map(|_| rng.poisson(200.0) as f64).sum::<f64>() / 20_000.0;
        assert!((mean_large - 200.0).abs() < 2.0);
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let mut rng = SplitMix64::new(19);
        let samples: Vec<f64> = (0..10_000).map(|_| rng.pareto(1.0, 1.5)).collect();
        assert!(samples.iter().all(|sample| *sample >= 1.0));
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max > 10.0, "expected a heavy tail, max was {max}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SplitMix64::new(23);
        let weights = [0.0, 0.0, 1.0];
        for _ in 0..100 {
            assert_eq!(rng.weighted_index(&weights), Some(2));
        }
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);

        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio was {ratio}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(29);
        let mut values: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(values, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SplitMix64::new(31);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }
}
