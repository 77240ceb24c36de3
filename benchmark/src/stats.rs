//! The benchmark's own arithmetic: percentiles, medians and spreads.
//!
//! Timing metrics are computed per trial; the harness reports the best
//! trial, set-up time as the median of its repeats.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `q` percentile's rank.
/// A tail percentile is only reported when at least [`MIN_BEYOND`]
/// samples do — with fewer it is one outlier's latency, not a tail.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sort and take a percentile (convenience for unsorted samples).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    percentile_sorted(samples, q)
}

/// Median of the values: the middle one, or the mean of the middle two.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// (max − min) ÷ median, in percent — the trial-to-trial noise self-report.
pub fn spread_pct(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (max - min) / med * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1 000 samples leaves exactly 10 beyond: the smallest
        // sample count at which a p99 may be reported.
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert!(samples_beyond(1_000, 0.99) >= MIN_BEYOND);
        assert!(samples_beyond(999, 0.99) < MIN_BEYOND);
        // The committed workload sizes (see BENCHMARK.json `why`).
        assert!(samples_beyond(1_600, 0.99) >= MIN_BEYOND);
        assert!(samples_beyond(105, 0.90) >= MIN_BEYOND);
        assert!(samples_beyond(240, 0.95) >= MIN_BEYOND);
        assert!(samples_beyond(105, 0.95) < MIN_BEYOND);
    }

    #[test]
    fn median_of_trials() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One wild trial does not move the figure.
        assert_eq!(median(&[10.0, 10.1, 9.9, 10.05, 50.0]), 10.05);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_pct(&[100.0, 110.0, 90.0]), 20.0);
        assert_eq!(spread_pct(&[5.0]), 0.0);
    }
}
