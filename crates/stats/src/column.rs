//! Per-column statistics: distinct counts, MCVs, histograms, and — for
//! keyed columns — exact frequency sketches used by the ComSys-grade
//! estimator's join selectivity.

use crate::histogram::EquiDepthHistogram;
use bao_plan::CmpOp;
use bao_storage::ColumnData;
use std::collections::HashMap;

/// Number of most-common values tracked, as in PostgreSQL's
/// `default_statistics_target`.
pub const N_MCVS: usize = 100;

/// Histogram resolution.
pub const N_BUCKETS: usize = 100;

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    pub n: usize,
    pub n_distinct: f64,
    /// Most common values and their frequency *fractions*, keyed columns only.
    pub mcvs: Vec<(i64, f64)>,
    /// Histogram over the non-MCV values (floats: over all values).
    pub histogram: EquiDepthHistogram,
    /// Exact value frequencies for keyed (int / dictionary-text) columns.
    /// This powers the [`crate::SampleEstimator`]'s join selectivity; the
    /// PostgreSQL-like estimator deliberately ignores it.
    pub freq: Option<HashMap<i64, u32>>,
}

impl ColumnStats {
    /// Full-scan analyze of one column.
    pub fn analyze(col: &ColumnData) -> ColumnStats {
        let keys: Vec<i64> = match col {
            ColumnData::Int(vals) => vals.clone(),
            ColumnData::Text { codes, .. } => codes.iter().map(|&c| i64::from(c)).collect(),
            ColumnData::Float(vals) => {
                let mut distinct: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
                distinct.sort_unstable();
                distinct.dedup();
                return ColumnStats {
                    n: vals.len(),
                    n_distinct: distinct.len() as f64,
                    mcvs: vec![],
                    histogram: EquiDepthHistogram::build(vals, N_BUCKETS),
                    freq: None,
                };
            }
        };
        let mut freq: HashMap<i64, u32> = HashMap::new();
        for &k in &keys {
            *freq.entry(k).or_insert(0) += 1;
        }
        let n = keys.len();
        let n_distinct = freq.len() as f64;
        // MCVs: the N_MCVS most frequent values, but only those that
        // occur more than once (PostgreSQL omits MCVs for unique
        // columns).
        let mut by_freq: Vec<(i64, u32)> = freq.iter().map(|(&k, &c)| (k, c)).collect();
        by_freq.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mcvs: Vec<(i64, f64)> = by_freq
            .iter()
            .take(N_MCVS)
            .filter(|&&(_, c)| c > 1)
            .map(|&(k, c)| (k, c as f64 / n.max(1) as f64))
            .collect();
        let mcv_set: std::collections::HashSet<i64> = mcvs.iter().map(|&(k, _)| k).collect();
        let non_mcv: Vec<f64> =
            keys.iter().filter(|k| !mcv_set.contains(k)).map(|&k| k as f64).collect();
        ColumnStats {
            n,
            n_distinct,
            mcvs,
            histogram: EquiDepthHistogram::build(&non_mcv, N_BUCKETS),
            freq: Some(freq),
        }
    }

    /// Total frequency fraction captured by the MCV list.
    pub fn mcv_total_frac(&self) -> f64 {
        self.mcvs.iter().map(|&(_, f)| f).sum()
    }

    /// PostgreSQL-style selectivity of `col OP x` using MCVs + histogram.
    pub fn selectivity(&self, op: CmpOp, x: f64) -> f64 {
        if self.n == 0 {
            return match op {
                CmpOp::Eq => 0.005,
                _ => 1.0 / 3.0,
            };
        }
        let mcv_frac = self.mcv_total_frac();
        let rest_frac = (1.0 - mcv_frac).max(0.0);
        let n_rest_distinct = (self.n_distinct - self.mcvs.len() as f64).max(1.0);
        match op {
            CmpOp::Eq => {
                if let Some(&(_, f)) =
                    self.mcvs.iter().find(|&&(k, _)| (k as f64 - x).abs() < f64::EPSILON)
                {
                    f
                } else {
                    (rest_frac / n_rest_distinct).min(1.0)
                }
            }
            CmpOp::Ne => (1.0 - self.selectivity(CmpOp::Eq, x)).max(0.0),
            _ => {
                // MCV contribution counted exactly, histogram part scaled by
                // the non-MCV fraction.
                let mcv_part: f64 = self
                    .mcvs
                    .iter()
                    .filter(|&&(k, _)| (k as f64).partial_cmp(&x).is_some_and(|o| op.matches(o)))
                    .map(|&(_, f)| f)
                    .sum();
                let hist_eq = 1.0 / n_rest_distinct;
                let hist_part = self.histogram.selectivity(op, x, 1.0 / hist_eq);
                (mcv_part + hist_part * rest_frac).clamp(0.0, 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_storage::{DataType, Value};

    fn int_col(vals: &[i64]) -> ColumnData {
        let mut c = ColumnData::new(DataType::Int);
        for &v in vals {
            c.push(Value::Int(v)).unwrap();
        }
        c
    }

    #[test]
    fn distinct_and_freq() {
        let s = ColumnStats::analyze(&int_col(&[1, 1, 2, 3, 3, 3]));
        assert_eq!(s.n, 6);
        assert_eq!(s.n_distinct, 3.0);
        let f = s.freq.as_ref().unwrap();
        assert_eq!(f[&3], 3);
        assert_eq!(f[&2], 1);
    }

    #[test]
    fn mcvs_capture_skew() {
        // 900 copies of 7, plus 100 unique values.
        let mut vals = vec![7i64; 900];
        vals.extend(100..200);
        let s = ColumnStats::analyze(&int_col(&vals));
        assert_eq!(s.mcvs[0].0, 7);
        assert!((s.mcvs[0].1 - 0.9).abs() < 1e-9);
        // Equality on the heavy hitter is accurate.
        assert!((s.selectivity(CmpOp::Eq, 7.0) - 0.9).abs() < 1e-9);
        // Equality on a rare value is small.
        assert!(s.selectivity(CmpOp::Eq, 150.0) < 0.01);
    }

    #[test]
    fn unique_column_has_no_mcvs() {
        let vals: Vec<i64> = (0..500).collect();
        let s = ColumnStats::analyze(&int_col(&vals));
        assert!(s.mcvs.is_empty());
        assert!((s.selectivity(CmpOp::Eq, 10.0) - 1.0 / 500.0).abs() < 1e-6);
    }

    #[test]
    fn range_selectivity_reasonable() {
        let vals: Vec<i64> = (0..1000).collect();
        let s = ColumnStats::analyze(&int_col(&vals));
        let sel = s.selectivity(CmpOp::Lt, 250.0);
        assert!((sel - 0.25).abs() < 0.03, "sel={sel}");
        let sel = s.selectivity(CmpOp::Ge, 900.0);
        assert!((sel - 0.10).abs() < 0.03, "sel={sel}");
    }

    #[test]
    fn range_with_mcv_contribution() {
        let mut vals = vec![0i64; 500];
        vals.extend(1..=500);
        let s = ColumnStats::analyze(&int_col(&vals));
        // half the column is the MCV value 0, all of it < 1
        let sel = s.selectivity(CmpOp::Lt, 1.0);
        assert!(sel >= 0.5, "sel={sel}");
        let sel = s.selectivity(CmpOp::Gt, 250.0);
        assert!((sel - 0.25).abs() < 0.05, "sel={sel}");
    }

    #[test]
    fn float_column_stats() {
        let mut c = ColumnData::new(DataType::Float);
        for i in 0..100 {
            c.push(Value::Float(i as f64)).unwrap();
        }
        let s = ColumnStats::analyze(&c);
        assert!(s.freq.is_none());
        assert!(s.mcvs.is_empty());
        assert!((s.selectivity(CmpOp::Lt, 50.0) - 0.5).abs() < 0.05);
    }

    #[test]
    fn empty_column() {
        let s = ColumnStats::analyze(&int_col(&[]));
        assert_eq!(s.n, 0);
        assert_eq!(s.selectivity(CmpOp::Eq, 1.0), 0.005);
    }
}
