//! Percentile maths: nearest-rank percentiles, the median of per-window
//! percentiles every reported latency uses, and the quartile spread the
//! calibration and comparison tools print.

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `pct` percent of the samples at or below it. `None` when empty.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank percentile of unordered samples.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, pct)
}

/// Median as the mean of the two middle values for even counts (what
/// Python's `statistics.median` returns, so spreads agree with the driver).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The percentile of each window, then the median of those: one slow burst
/// lands in one window and moves the reported value by at most one rank,
/// which is what makes a tail percentile repeat on a shared machine.
pub fn window_median_percentile(windows: &[Vec<f64>], pct: f64) -> Option<f64> {
    let per_window: Vec<f64> = windows
        .iter()
        .filter_map(|window| percentile(window, pct))
        .collect();
    median(&per_window)
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |quarter: usize| {
        let position = quarter * (n + 1);
        let index = (position / 4).clamp(1, n - 1);
        // Not clamped: with two samples Python extrapolates, and so does this.
        let fraction = position as f64 / 4.0 - index as f64;
        sorted[index - 1] + (sorted[index] - sorted[index - 1]) * fraction
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median; `None` for fewer
/// than two samples or a zero median.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let middle = median(samples)?;
    (middle != 0.0).then(|| (q3 - q1) / middle.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&hundred, 99.9), Some(100.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_matches_python_for_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut burst = calm.clone();
        burst[95..].iter_mut().for_each(|value| *value = 10_000.0);
        let windows = vec![calm.clone(), calm.clone(), burst, calm.clone(), calm];
        assert_eq!(window_median_percentile(&windows, 99.0), Some(99.0));
        // An empty window (a phase that scheduled nothing there) is skipped.
        assert_eq!(
            window_median_percentile(&[vec![], vec![1.0, 2.0]], 50.0),
            Some(1.0)
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 4.0));
        let spread = quartile_spread(&ten).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
