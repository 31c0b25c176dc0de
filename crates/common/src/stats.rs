//! Small numeric utilities shared by the estimator, the harness, and the
//! experiment binaries: percentiles, means, and the q-error metric used
//! throughout the paper's evaluation (Figure 15b).

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Percentile via linear interpolation between closest ranks.
///
/// `p` is in `[0, 100]`. Returns 0.0 for an empty slice. The input does not
/// need to be sorted.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&v, p)
}

/// Percentile of an already-sorted slice (ascending).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The q-error of an estimate against the truth: `max(est/true, true/est)`,
/// with both sides floored at 1 to avoid division blow-ups on empty results.
///
/// A perfect estimate has q-error 1.0. The paper plots "median Q-error
/// (0 is a perfect prediction)" in Figure 15b, i.e. q-error minus one; use
/// [`qerror_zero_based`] for that convention.
pub fn qerror(estimate: f64, truth: f64) -> f64 {
    let e = estimate.max(1.0);
    let t = truth.max(1.0);
    (e / t).max(t / e)
}

/// Q-error shifted so that 0 is a perfect prediction (Figure 15b's axis).
pub fn qerror_zero_based(estimate: f64, truth: f64) -> f64 {
    qerror(estimate, truth) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_median() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(percentile(&xs, 50.0), 25.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 100.0];
        assert!((percentile(&xs, 95.0) - 95.0).abs() < 1e-9);
        assert!((percentile(&xs, 99.5) - 99.5).abs() < 1e-9);
    }

    #[test]
    fn qerror_symmetric() {
        assert_eq!(qerror(10.0, 100.0), 10.0);
        assert_eq!(qerror(100.0, 10.0), 10.0);
        assert_eq!(qerror(50.0, 50.0), 1.0);
        assert_eq!(qerror_zero_based(50.0, 50.0), 0.0);
    }

    #[test]
    fn qerror_floors_at_one_row() {
        // Empty-result estimates should not divide by zero.
        assert_eq!(qerror(0.0, 0.0), 1.0);
        assert_eq!(qerror(0.0, 10.0), 10.0);
    }
}
