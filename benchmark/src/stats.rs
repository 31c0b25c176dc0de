//! The benchmark's own arithmetic. Deliberately not `bao_common::stats`:
//! a product refactor must not be able to move a reported number.

/// Arithmetic mean; `None` for an empty slice, so that a metric with no
/// samples is left out instead of printed as 0.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Percentile `p` in `[0, 100]` by linear interpolation between closest
/// ranks (the definition `numpy.percentile` uses); `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let w = rank - lo as f64;
    Some(v[lo] * (1.0 - w) + v[hi] * w)
}

pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// Whether `n` samples leave at least ten beyond percentile `p`: a tail
/// percentile is reported only when they do (choosing-metrics §1).
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n as f64 * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND
}

/// `(max - min) / median`: the run-to-run spread `--compare` holds
/// against a metric's bound. `None` for fewer than two samples or a zero
/// median.
pub fn rel_spread(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let med = median(xs)?;
    if med == 0.0 {
        return None;
    }
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some((hi - lo) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_median_of_known_samples() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_interpolates_and_ignores_input_order() {
        let xs: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 95.0), Some(96.0));
        assert_eq!(percentile(&xs, 100.0), Some(101.0));
        assert_eq!(percentile(&[10.0, 20.0], 25.0), Some(12.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        // p95 of 200 samples leaves exactly ten beyond it; 199 does not.
        assert!(percentile_supported(200, 95.0));
        assert!(!percentile_supported(199, 95.0));
        assert!(percentile_supported(100, 90.0) && !percentile_supported(100, 95.0));
        assert!(percentile_supported(1000, 99.0) && !percentile_supported(600, 99.0));
    }

    #[test]
    fn rel_spread_is_range_over_median() {
        assert_eq!(rel_spread(&[10.0]), None);
        assert_eq!(rel_spread(&[9.0, 10.0, 12.0]), Some(0.3));
        assert_eq!(rel_spread(&[0.0, 0.0]), None);
    }
}
