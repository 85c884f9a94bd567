//! Order statistics for latency samples.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p99 needs 1000 samples, a p90 100 and a median 20. Failed
//! operations enter the sample as `f64::INFINITY` ("missed every latency
//! limit"), so a run whose failures reach into a percentile reports that
//! percentile as unmeasurable instead of quietly dropping them.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (any order), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    let n = samples.len();
    if !rank_ok(n, q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(n, q) - 1])
}

/// 1-based nearest rank: the smallest value with at least `q·n` samples at
/// or below it (the epsilon keeps `0.99 × 1000` from rounding up to 991).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).max(1)
}

fn rank_ok(n: usize, q: f64) -> bool {
    n >= rank(n, q) && n - rank(n, q) >= MIN_BEYOND
}

/// The smallest sample count for which [`percentile`] reports `q`.
#[cfg(test)]
pub fn min_samples(q: f64) -> usize {
    (MIN_BEYOND..)
        .find(|&n| rank_ok(n, q))
        .expect("some count qualifies")
}

/// The median of a small set of repeated measurements (no beyond-rule:
/// used for set-up repetitions, not latency distributions).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean, or `None` for an empty set.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
    }

    #[test]
    fn p90_and_median_thresholds() {
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn every_reported_percentile_has_ten_samples_beyond() {
        for q in [0.5, 0.9, 0.99] {
            for n in 1..1500 {
                let samples = ramp(n);
                if let Some(value) = percentile(&samples, q) {
                    let beyond = samples.iter().filter(|&&s| s > value).count();
                    assert!(beyond >= MIN_BEYOND, "q={q} n={n}: only {beyond} beyond");
                }
            }
        }
    }

    #[test]
    fn failures_count_as_missing_every_limit() {
        let mut samples = ramp(100);
        samples.extend(std::iter::repeat_n(f64::INFINITY, 20));
        // 120 samples, 20 failed: p90's rank (108) falls among the failures.
        assert_eq!(percentile(&samples, 0.9), Some(f64::INFINITY));
        assert_eq!(percentile(&samples, 0.5), Some(60.0));
    }

    #[test]
    fn order_does_not_matter() {
        let mut samples = ramp(200);
        samples.reverse();
        assert_eq!(percentile(&samples, 0.5), Some(100.0));
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 3.0]), Some(2.0));
    }
}
