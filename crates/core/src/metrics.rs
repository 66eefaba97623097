//! Regression metrics and error distributions for KPI predictions.
//!
//! These produce the numbers behind the paper's figures: per-topology
//! relative-error CDFs (Fig. 3), regression fit quality (Fig. 2), and the
//! summary statistics of the generalization table.

use serde::{Deserialize, Serialize};

/// Summary of a prediction-vs-truth comparison.
///
/// The absolute metrics (MAE, RMSE, Pearson r, R²) cover all `n` pairs.
/// The relative-error figures cover only pairs with a non-zero truth
/// (`n - re_skipped` of them); a zero truth has no relative error. When
/// every truth is zero the relative-error figures are NaN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalSummary {
    /// Number of (prediction, truth) pairs.
    pub n: usize,
    /// Mean absolute error.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Mean relative error `|p - t| / t` over the non-zero-truth pairs.
    /// unit: ratio
    pub mre: f64,
    /// Median relative error over the non-zero-truth pairs.
    /// unit: ratio
    pub median_re: f64,
    /// 95th-percentile relative error over the non-zero-truth pairs.
    /// unit: ratio
    pub p95_re: f64,
    /// Pairs left out of the relative-error figures because their truth
    /// is exactly zero.
    /// unit: count
    pub re_skipped: usize,
    /// Pearson correlation coefficient.
    pub pearson_r: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Apply `err(p, t)` to every pair whose truth is non-zero, returning the
/// errors and the number of zero-truth pairs skipped.
///
/// A zero truth has no relative error: `delay == 0` is the simulator's
/// sentinel for a flow that produced no measured packets, and a jitter of
/// exactly zero is a flow whose packets all saw the same delay. Flooring
/// such truths at `eps` would turn each one into a ~1e12 pseudo-error that
/// dominates MRE and p95. Tiny but non-zero truths still go through the
/// `eps` guard.
fn nonzero_truth_errors(
    preds: &[f64],
    truths: &[f64],
    err: impl Fn(f64, f64) -> f64,
) -> (Vec<f64>, usize) {
    assert_eq!(preds.len(), truths.len(), "length mismatch");
    let mut errors = Vec::with_capacity(preds.len());
    let mut skipped = 0usize;
    for (&p, &t) in preds.iter().zip(truths) {
        // lint: allow(float-eq, reason = "the simulator writes the unobserved-flow sentinel as exactly 0.0; epsilon matching would also swallow real tiny delays")
        if t == 0.0 {
            skipped += 1;
        } else {
            errors.push(err(p, t));
        }
    }
    (errors, skipped)
}

/// Floor for the relative-error denominator of tiny non-zero truths.
const RE_EPS: f64 = 1e-12;

/// Relative errors `|p - t| / max(|t|, eps)`, skipping zero-truth pairs
/// (see [`EvalSummary::re_skipped`]).
pub fn relative_errors(preds: &[f64], truths: &[f64]) -> Vec<f64> {
    relative_errors_counted(preds, truths).0
}

/// [`relative_errors`] plus the number of zero-truth pairs skipped.
fn relative_errors_counted(preds: &[f64], truths: &[f64]) -> (Vec<f64>, usize) {
    nonzero_truth_errors(preds, truths, |p, t| (p - t).abs() / t.abs().max(RE_EPS))
}

/// Signed relative errors `(p - t) / max(|t|, eps)` (Fig. 3 uses the
/// distribution of signed errors in some renditions; we expose both).
/// Zero-truth pairs are skipped, as in [`relative_errors`].
pub fn signed_relative_errors(preds: &[f64], truths: &[f64]) -> Vec<f64> {
    signed_relative_errors_counted(preds, truths).0
}

/// [`signed_relative_errors`] plus the number of zero-truth pairs skipped.
pub fn signed_relative_errors_counted(preds: &[f64], truths: &[f64]) -> (Vec<f64>, usize) {
    nonzero_truth_errors(preds, truths, |p, t| (p - t) / t.abs().max(RE_EPS))
}

/// `q`-th percentile (0..=100) by linear interpolation on sorted data.
/// Panics on empty input.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q));
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Pearson correlation coefficient. Returns 0 for degenerate inputs.
pub fn pearson(preds: &[f64], truths: &[f64]) -> f64 {
    assert_eq!(preds.len(), truths.len());
    let n = preds.len() as f64;
    if preds.is_empty() {
        return 0.0;
    }
    let mp = preds.iter().sum::<f64>() / n;
    let mt = truths.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vp = 0.0;
    let mut vt = 0.0;
    for (&p, &t) in preds.iter().zip(truths) {
        cov += (p - mp) * (t - mt);
        vp += (p - mp) * (p - mp);
        vt += (t - mt) * (t - mt);
    }
    if vp <= 0.0 || vt <= 0.0 {
        0.0
    } else {
        cov / (vp.sqrt() * vt.sqrt())
    }
}

/// Coefficient of determination R² = 1 - SS_res / SS_tot.
pub fn r_squared(preds: &[f64], truths: &[f64]) -> f64 {
    assert_eq!(preds.len(), truths.len());
    if truths.is_empty() {
        return 0.0;
    }
    let mt = truths.iter().sum::<f64>() / truths.len() as f64;
    let ss_res: f64 = preds
        .iter()
        .zip(truths)
        .map(|(&p, &t)| (t - p) * (t - p))
        .sum();
    let ss_tot: f64 = truths.iter().map(|&t| (t - mt) * (t - mt)).sum();
    if ss_tot <= 0.0 {
        0.0
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Full evaluation summary.
pub fn evaluate(preds: &[f64], truths: &[f64]) -> EvalSummary {
    assert_eq!(preds.len(), truths.len());
    assert!(!preds.is_empty(), "evaluate on empty data");
    let n = preds.len();
    let mae = preds
        .iter()
        .zip(truths)
        .map(|(&p, &t)| (p - t).abs())
        .sum::<f64>()
        / n as f64;
    let rmse = (preds
        .iter()
        .zip(truths)
        .map(|(&p, &t)| (p - t) * (p - t))
        .sum::<f64>()
        / n as f64)
        .sqrt();
    let (re, re_skipped) = relative_errors_counted(preds, truths);
    let (mre, median_re, p95_re) = if re.is_empty() {
        (f64::NAN, f64::NAN, f64::NAN)
    } else {
        (
            re.iter().sum::<f64>() / re.len() as f64,
            percentile(&re, 50.0),
            percentile(&re, 95.0),
        )
    };
    EvalSummary {
        n,
        mae,
        rmse,
        mre,
        median_re,
        p95_re,
        re_skipped,
        pearson_r: pearson(preds, truths),
        r2: r_squared(preds, truths),
    }
}

/// Empirical CDF sampled at `n_points` evenly spaced quantiles:
/// returns `(value, cumulative_probability)` pairs, the series plotted in
/// the paper's Fig. 3.
pub fn cdf_points(xs: &[f64], n_points: usize) -> Vec<(f64, f64)> {
    assert!(!xs.is_empty() && n_points >= 2);
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    (0..n_points)
        .map(|i| {
            let q = i as f64 / (n_points - 1) as f64;
            let idx = (q * (v.len() - 1) as f64).round() as usize;
            (v[idx], (idx + 1) as f64 / v.len() as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let t = vec![1.0, 2.0, 3.0, 4.0];
        let s = evaluate(&t, &t);
        assert_eq!(s.mae, 0.0);
        assert_eq!(s.rmse, 0.0);
        assert_eq!(s.mre, 0.0);
        assert!((s.pearson_r - 1.0).abs() < 1e-12);
        assert!((s.r2 - 1.0).abs() < 1e-12);
        assert_eq!(s.n, 4);
    }

    #[test]
    fn known_errors() {
        let preds = vec![1.1, 1.9, 3.3];
        let truths = vec![1.0, 2.0, 3.0];
        let s = evaluate(&preds, &truths);
        assert!((s.mae - (0.1 + 0.1 + 0.3) / 3.0).abs() < 1e-12);
        let re = relative_errors(&preds, &truths);
        assert!((re[0] - 0.1).abs() < 1e-9);
        assert!((re[1] - 0.05).abs() < 1e-9);
        assert!((re[2] - 0.1).abs() < 1e-9);
        let sre = signed_relative_errors(&preds, &truths);
        assert!(sre[1] < 0.0 && sre[0] > 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn pearson_sign_and_invariance() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 10.0 - 2.0 * v).collect();
        assert!((pearson(&x, &y) + 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| 5.0 + 0.1 * v).collect();
        assert!((pearson(&x, &z) - 1.0).abs() < 1e-12);
        // constant input => 0
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn r2_of_mean_prediction_is_zero() {
        let truths = vec![1.0, 2.0, 3.0];
        let mean = vec![2.0, 2.0, 2.0];
        assert!(r_squared(&mean, &truths).abs() < 1e-12);
        // worse than mean => negative
        let bad = vec![5.0, 5.0, 5.0];
        assert!(r_squared(&bad, &truths) < 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_spans_data() {
        let xs = vec![0.5, 0.1, 0.9, 0.3, 0.7];
        let cdf = cdf_points(&xs, 5);
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf[0].0, 0.1);
        assert_eq!(cdf[4].0, 0.9);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((cdf[4].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn relative_errors_length_checked() {
        relative_errors(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn zero_truths_are_skipped_from_relative_errors() {
        // Row 1 has an exactly-zero truth (e.g. a constant-delay flow's
        // jitter). It has no relative error: it is skipped and counted,
        // and the RE figures average over the kept rows only.
        let preds = vec![1.1, 0.5, 2.7];
        let truths = vec![1.0, 0.0, 3.0];
        let (re, skipped) = relative_errors_counted(&preds, &truths);
        assert_eq!(skipped, 1);
        assert_eq!(re.len(), 2);
        assert_eq!(relative_errors(&preds, &truths), re);
        let s = evaluate(&preds, &truths);
        assert_eq!(s.n, 3);
        assert_eq!(s.re_skipped, 1);
        assert!((s.mre - 0.1).abs() < 1e-9, "mre over kept rows: {}", s.mre);
        assert!(s.p95_re < 1.0, "no 1e12 pseudo-errors");
        // Absolute metrics still cover every row.
        assert!((s.mae - (0.1 + 0.5 + 0.3) / 3.0).abs() < 1e-12);
        // Tiny-but-nonzero truths go through the eps guard.
        let (re, skipped) = relative_errors_counted(&[1.0], &[1e-15]);
        assert_eq!(skipped, 0);
        assert!(re[0].is_finite());
    }

    #[test]
    fn all_zero_truths_yield_no_relative_error_figures() {
        let s = evaluate(&[0.5, 0.25], &[0.0, 0.0]);
        assert_eq!(s.re_skipped, 2);
        assert!(s.mre.is_nan() && s.median_re.is_nan() && s.p95_re.is_nan());
        assert!((s.mae - 0.375).abs() < 1e-12);
    }

    #[test]
    fn signed_errors_skip_zero_truth_sentinels() {
        // Middle row is an unobserved-flow sentinel (delay == 0); the old
        // eps floor turned it into a 2e12 pseudo-error dominating every
        // percentile.
        let preds = vec![1.1, 2.0, 2.7];
        let truths = vec![1.0, 0.0, 3.0];
        let (sre, skipped) = signed_relative_errors_counted(&preds, &truths);
        assert_eq!(skipped, 1);
        assert_eq!(sre.len(), 2);
        assert!((sre[0] - 0.1).abs() < 1e-9);
        assert!((sre[1] + 0.1).abs() < 1e-9);
        assert!(sre.iter().all(|e| e.abs() < 1.0), "no 1e12 pseudo-errors");
        // The convenience wrapper agrees.
        assert_eq!(signed_relative_errors(&preds, &truths), sre);
    }
}
