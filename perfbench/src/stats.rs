//! Order statistics with the benchmark's percentile rule.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail metric may report, highest first.
const TAIL_CANDIDATES: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `q * n` samples at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = rank(sorted.len(), q);
    Some(sorted[rank.max(1) - 1])
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).min(n)
}

/// Samples strictly beyond the nearest rank of `q` among `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).max(1)
}

/// The highest of p99, p95, p90, p75 and p50 that leaves at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even the median does not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Sort a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Mean, `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Little's law for a closed loop: the mean number of queries in flight
/// equals throughput times mean latency. Returns the relative gap
/// `|in_flight - ops_per_s * mean_latency_s| / in_flight`.
pub fn littles_law_gap(in_flight: f64, ops_per_s: f64, mean_latency_s: f64) -> f64 {
    (in_flight - ops_per_s * mean_latency_s).abs() / in_flight
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        // p99 needs 1000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(199), Some(0.90));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(20), Some(0.50));
        assert_eq!(tail_quantile(19), None);
        for n in 1..3000 {
            if let Some(q) = tail_quantile(n) {
                assert!(samples_beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn littles_law_gap_is_relative() {
        // 32 in flight at 400 q/s needs a mean latency of 80 ms.
        assert!(littles_law_gap(32.0, 400.0, 0.080) < 1e-12);
        assert!((littles_law_gap(32.0, 400.0, 0.088) - 0.1).abs() < 1e-9);
    }
}
