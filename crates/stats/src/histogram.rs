//! Equi-depth histograms over numeric column values.

use bao_common::stats::nan_last;
use bao_plan::CmpOp;

/// An equi-depth histogram: `bounds` has `buckets + 1` entries and every
/// bucket holds the same number of underlying values. Mirrors PostgreSQL's
/// `histogram_bounds` statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    bounds: Vec<f64>,
    /// Number of values the histogram was built over.
    n: usize,
}

impl EquiDepthHistogram {
    /// Build from unsorted values with at most `max_buckets` buckets.
    /// Returns an empty histogram for no input.
    pub fn build(values: &[f64], max_buckets: usize) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(nan_last);
        Self::from_sorted_runs(sorted.iter().map(|&v| (v, 1)), sorted.len(), max_buckets)
    }

    /// Build from `(value, count)` runs in ascending value order that hold
    /// `len` values in all: bound `i` is the value at rank
    /// `i * (len - 1) / buckets` of the sorted values, found by one walk
    /// over the runs.
    pub(crate) fn from_sorted_runs(
        runs: impl IntoIterator<Item = (f64, usize)>,
        len: usize,
        max_buckets: usize,
    ) -> Self {
        if len == 0 || max_buckets == 0 {
            return EquiDepthHistogram { bounds: vec![], n: 0 };
        }
        let buckets = max_buckets.min(len);
        let mut bounds = Vec::with_capacity(buckets + 1);
        // `end` is one past the last rank of the runs walked so far.
        let mut end = 0;
        for (v, count) in runs {
            end += count;
            while bounds.len() <= buckets && (bounds.len() * (len - 1)) / buckets < end {
                bounds.push(v);
            }
            if bounds.len() > buckets {
                break;
            }
        }
        EquiDepthHistogram { bounds, n: len }
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn buckets(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    pub fn min(&self) -> Option<f64> {
        self.bounds.first().copied()
    }

    pub fn max(&self) -> Option<f64> {
        self.bounds.last().copied()
    }

    /// Estimated fraction of values `< x` (strictly below), by linear
    /// interpolation within the containing bucket.
    pub fn fraction_below(&self, x: f64) -> f64 {
        let b = self.buckets();
        if b == 0 {
            return 0.0;
        }
        if x <= self.bounds[0] {
            return 0.0;
        }
        if x > self.bounds[b] {
            return 1.0;
        }
        // Find the bucket containing x.
        let mut i = match self.bounds.binary_search_by(|v| nan_last(v, &x)) {
            Ok(idx) => idx,
            Err(idx) => idx.saturating_sub(1),
        };
        i = i.min(b - 1);
        let (lo, hi) = (self.bounds[i], self.bounds[i + 1]);
        let within = if hi > lo { ((x - lo) / (hi - lo)).clamp(0.0, 1.0) } else { 0.0 };
        (i as f64 + within) / b as f64
    }

    /// Selectivity of `col OP x` against this histogram, given the
    /// column's distinct count (used for equality width).
    pub fn selectivity(&self, op: CmpOp, x: f64, n_distinct: f64) -> f64 {
        if self.is_empty() {
            return match op {
                CmpOp::Eq => 0.005,
                CmpOp::Ne => 0.995,
                _ => 1.0 / 3.0,
            };
        }
        let eq = 1.0 / n_distinct.max(1.0);
        let below = self.fraction_below(x);
        match op {
            CmpOp::Eq => eq,
            CmpOp::Ne => (1.0 - eq).max(0.0),
            CmpOp::Lt => below,
            CmpOp::Le => (below + eq).min(1.0),
            CmpOp::Gt => (1.0 - below - eq).max(0.0),
            CmpOp::Ge => (1.0 - below).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn empty_histogram_defaults() {
        let h = EquiDepthHistogram::build(&[], 10);
        assert!(h.is_empty());
        assert_eq!(h.fraction_below(5.0), 0.0);
        assert!((h.selectivity(CmpOp::Lt, 5.0, 10.0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_fractions() {
        let h = EquiDepthHistogram::build(&uniform(1000), 100);
        assert!((h.fraction_below(500.0) - 0.5).abs() < 0.02);
        assert!((h.fraction_below(250.0) - 0.25).abs() < 0.02);
        assert_eq!(h.fraction_below(-1.0), 0.0);
        assert_eq!(h.fraction_below(2000.0), 1.0);
    }

    #[test]
    fn skewed_data_equidepth() {
        // 90% zeros, 10% spread: the bucket boundaries crowd near zero.
        let mut vals = vec![0.0; 900];
        vals.extend((0..100).map(|i| (i * 10) as f64));
        let h = EquiDepthHistogram::build(&vals, 10);
        assert!(h.fraction_below(1.0) >= 0.8);
    }

    #[test]
    fn range_selectivities_sum_to_one() {
        let h = EquiDepthHistogram::build(&uniform(100), 10);
        let nd = 100.0;
        for x in [3.0, 50.0, 97.0] {
            let lt = h.selectivity(CmpOp::Lt, x, nd);
            let eq = h.selectivity(CmpOp::Eq, x, nd);
            let gt = h.selectivity(CmpOp::Gt, x, nd);
            assert!((lt + eq + gt - 1.0).abs() < 1e-9, "x={x}");
            assert!((h.selectivity(CmpOp::Le, x, nd) - (lt + eq)).abs() < 1e-9);
            assert!((h.selectivity(CmpOp::Ge, x, nd) - (gt + eq)).abs() < 1e-9);
            assert!((h.selectivity(CmpOp::Ne, x, nd) - (1.0 - eq)).abs() < 1e-9);
        }
    }

    #[test]
    fn single_value_column() {
        let h = EquiDepthHistogram::build(&[7.0; 50], 10);
        assert_eq!(h.fraction_below(7.0), 0.0);
        assert_eq!(h.fraction_below(8.0), 1.0);
        assert!((h.selectivity(CmpOp::Eq, 7.0, 1.0) - 1.0).abs() < 1e-12);
    }

    /// NaN values sort after every number and a NaN probe finds a
    /// bucket: neither panics.
    #[test]
    fn nan_values_and_probes_do_not_panic() {
        let h = EquiDepthHistogram::build(&[2.0, f64::NAN, 1.0, 3.0], 3);
        assert_eq!(h.min(), Some(1.0));
        assert!(h.max().is_some_and(f64::is_nan));
        assert!((h.fraction_below(2.5) - 0.5).abs() < 1e-12);
        assert!(h.fraction_below(f64::NAN).is_finite());
        assert!(h.selectivity(CmpOp::Lt, f64::NAN, 4.0).is_finite());
    }

    /// The walk over runs picks the value at every bound's rank, as
    /// indexing the expanded values does.
    #[test]
    fn from_sorted_runs_matches_indexing_the_values() {
        use bao_common::{rng_from_seed, Rng};
        let mut rng = rng_from_seed(51);
        for round in 0..200 {
            let runs: Vec<(f64, usize)> = (0..rng.gen_range(1..60usize))
                .map(|i| (i as f64 - 7.5, [1, 1, 2, 5, 40][rng.gen_index(5)]))
                .collect();
            let values: Vec<f64> =
                runs.iter().flat_map(|&(v, c)| std::iter::repeat_n(v, c)).collect();
            for max_buckets in [1, 2, 3, 10, 100, 1_000] {
                let h = EquiDepthHistogram::from_sorted_runs(
                    runs.iter().copied(),
                    values.len(),
                    max_buckets,
                );
                let buckets = max_buckets.min(values.len());
                let want: Vec<f64> =
                    (0..=buckets).map(|i| values[i * (values.len() - 1) / buckets]).collect();
                assert_eq!((h.bounds, h.n), (want, values.len()), "round {round}");
            }
        }
    }

    #[test]
    fn min_max() {
        let h = EquiDepthHistogram::build(&[3.0, 1.0, 2.0], 4);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(3.0));
        assert!(h.buckets() >= 1);
    }
}
