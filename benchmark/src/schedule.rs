//! Open-loop arrival schedules.

use std::time::Duration;

use dandelion_common::rng::SplitMix64;

/// Send times of a Poisson process of `rate_per_s` over `duration`, as
/// nanosecond offsets from the phase start, ascending. The same seed gives
/// the same schedule: the server only ever sees what this generated.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration: Duration) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let horizon = duration.as_secs_f64();
    let mut offsets = Vec::with_capacity((rate_per_s * horizon * 1.1) as usize + 16);
    let mut now = rng.exponential(rate_per_s);
    while now < horizon {
        offsets.push((now * 1e9) as u64);
        now += rng.exponential(rate_per_s);
    }
    offsets
}

/// A distinct, deterministic seed per (run seed, phase, connection).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_for_a_seed_and_differs_across_seeds() {
        let a = poisson_schedule(7, 5_000.0, Duration::from_secs(2));
        let b = poisson_schedule(7, 5_000.0, Duration::from_secs(2));
        let c = poisson_schedule(8, 5_000.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_has_the_requested_rate_and_stays_inside_the_phase() {
        let offsets = poisson_schedule(42, 10_000.0, Duration::from_secs(3));
        // 30 000 expected, standard deviation ~173.
        assert!(
            (29_000..31_000).contains(&offsets.len()),
            "{}",
            offsets.len()
        );
        assert!(offsets.windows(2).all(|pair| pair[0] <= pair[1]));
        assert!(*offsets.last().unwrap() < 3_000_000_000);
    }

    /// What `loadrun` relies on when it scales a window's rate by the
    /// machine's speed: the arrivals are the seed's, on a stretched clock.
    #[test]
    fn a_scaled_rate_plays_the_same_arrivals_on_a_stretched_clock() {
        let nominal = poisson_schedule(7, 1_000.0, Duration::from_secs(2));
        let slowed = poisson_schedule(7, 800.0, Duration::from_secs(2));
        assert!(slowed.len() > 1_000 && slowed.len() < nominal.len());
        for (slow, fast) in slowed.iter().zip(&nominal) {
            let stretched = *fast as f64 / 0.8;
            assert!(
                (*slow as f64 - stretched).abs() <= 2.0,
                "{slow} vs {stretched}"
            );
        }
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_eq!(derive_seed(1, 3), derive_seed(1, 3));
    }
}
