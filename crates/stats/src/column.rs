//! Per-column statistics: distinct counts, MCVs, histograms, and — for
//! keyed columns — exact value frequencies, kept as sorted key runs, used
//! by the ComSys-grade estimator's join selectivity.

use crate::histogram::EquiDepthHistogram;
use bao_plan::CmpOp;
use bao_storage::{sort_keys, ColumnData};

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
    /// Exact value frequencies for keyed (int / dictionary-text) columns:
    /// one `(key, count)` run per distinct key, ascending by key. This
    /// powers the [`crate::SampleEstimator`]'s join selectivity; the
    /// PostgreSQL-like estimator deliberately ignores it.
    pub freq: Option<Vec<(i64, u32)>>,
}

/// MCV order: most frequent first, ties by ascending key.
fn by_freq(a: &(i64, u32), b: &(i64, u32)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

impl ColumnStats {
    /// Full-scan analyze of one column. A keyed column is sorted once;
    /// every statistic comes from its `(key, count)` runs.
    pub fn analyze(col: &ColumnData) -> ColumnStats {
        let (keys, _) = match col {
            ColumnData::Int(vals) => sort_keys(vals),
            ColumnData::Text { codes, .. } => sort_keys(codes),
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
        let n = keys.len();
        let runs: Vec<(i64, u32)> =
            keys.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u32)).collect();
        drop(keys);
        // MCVs: the N_MCVS most frequent values, but only those that
        // occur more than once (PostgreSQL omits MCVs for unique
        // columns).
        let mut top: Vec<(i64, u32)> = runs.iter().filter(|&&(_, c)| c > 1).copied().collect();
        if top.len() > N_MCVS {
            top.select_nth_unstable_by(N_MCVS - 1, by_freq);
            top.truncate(N_MCVS);
        }
        top.sort_unstable_by(by_freq);
        let mcvs: Vec<(i64, f64)> =
            top.iter().map(|&(k, c)| (k, c as f64 / n.max(1) as f64)).collect();
        // The histogram walks the runs that are not MCVs, in key order.
        let mut mcv_keys: Vec<i64> = top.iter().map(|&(k, _)| k).collect();
        mcv_keys.sort_unstable();
        let n_rest = n - top.iter().map(|&(_, c)| c as usize).sum::<usize>();
        let mut skip = mcv_keys.iter().peekable();
        let rest = runs.iter().filter(|&&(k, _)| skip.next_if_eq(&&k).is_none());
        let histogram = EquiDepthHistogram::from_sorted_runs(
            rest.map(|&(k, c)| (k as f64, c as usize)),
            n_rest,
            N_BUCKETS,
        );
        ColumnStats { n, n_distinct: runs.len() as f64, mcvs, histogram, freq: Some(runs) }
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
        assert_eq!(s.freq, Some(vec![(1, 2), (2, 1), (3, 3)]));
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

    /// `analyze` as it was before keyed columns were sorted once: a hash
    /// count, a full sort by frequency, an MCV set and a second sort of
    /// the non-MCV values inside `EquiDepthHistogram::build`.
    fn analyze_oracle(col: &ColumnData) -> ColumnStats {
        use std::collections::{HashMap, HashSet};
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
        let mut by_freq: Vec<(i64, u32)> = freq.iter().map(|(&k, &c)| (k, c)).collect();
        by_freq.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mcvs: Vec<(i64, f64)> = by_freq
            .iter()
            .take(N_MCVS)
            .filter(|&&(_, c)| c > 1)
            .map(|&(k, c)| (k, c as f64 / n.max(1) as f64))
            .collect();
        let mcv_set: HashSet<i64> = mcvs.iter().map(|&(k, _)| k).collect();
        let non_mcv: Vec<f64> =
            keys.iter().filter(|k| !mcv_set.contains(k)).map(|&k| k as f64).collect();
        let mut freq: Vec<(i64, u32)> = freq.into_iter().collect();
        freq.sort_unstable();
        ColumnStats {
            n,
            n_distinct,
            mcvs,
            histogram: EquiDepthHistogram::build(&non_mcv, N_BUCKETS),
            freq: Some(freq),
        }
    }

    fn assert_same_stats(col: &ColumnData, what: &str) {
        let (got, want) = (ColumnStats::analyze(col), analyze_oracle(col));
        assert_eq!(got.n, want.n, "{what}");
        assert_eq!(got.n_distinct.to_bits(), want.n_distinct.to_bits(), "{what}");
        let bits = |m: &[(i64, f64)]| m.iter().map(|&(k, f)| (k, f.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&got.mcvs), bits(&want.mcvs), "{what}");
        assert_eq!(got.histogram, want.histogram, "{what}");
        assert_eq!(got.freq, want.freq, "{what}");
    }

    fn text_col(words: &[i64]) -> ColumnData {
        let mut c = ColumnData::new(DataType::Text);
        for &w in words {
            c.push(Value::Str(format!("w{w}"))).unwrap();
        }
        c
    }

    #[test]
    fn analyze_matches_the_hash_count_oracle() {
        use bao_common::{rng_from_seed, Rng};
        let mut rng = rng_from_seed(51);
        let mut cases: Vec<(String, Vec<i64>)> = vec![
            ("empty".into(), vec![]),
            ("one value".into(), vec![-3]),
            ("one value repeated".into(), vec![42; 17]),
            ("all unique".into(), (0..3_000).map(|i| (i * 7_919) % 3_001 - 1_500).collect()),
            ("ends of i64".into(), vec![i64::MIN, i64::MAX, 0, i64::MIN, i64::MAX, i64::MAX]),
        ];
        // A heavy hitter over a random tail.
        let mut heavy = vec![7; 900];
        heavy.extend((0..600).map(|_| rng.gen_range(-50..50i64)));
        cases.push(("heavy hitter".into(), heavy));
        // Exactly 100 and 101 values repeated three times each, beside
        // unique ones and a few values seen twice: every MCV count ties,
        // so the cut at N_MCVS falls on the tie-break by key.
        for repeated in [99, 100, 101, 250] {
            let mut vals: Vec<i64> = (0..repeated).flat_map(|k| [1_000 - 3 * k; 3]).collect();
            vals.extend((0..400).map(|i| 10_000 + i));
            vals.extend((0..5).flat_map(|i| [-i - 1; 2]));
            rng.shuffle(&mut vals);
            cases.push((format!("{repeated} tied values"), vals));
        }
        for round in 0..12 {
            let len = rng.gen_range(0..5_000usize);
            let span = [2i64, 50, 1_000, 100_000, 1 << 40][round % 5];
            let vals = (0..len).map(|_| rng.gen_range(0..span) - span / 2).collect();
            cases.push((format!("random {round}, span {span}"), vals));
        }
        for (what, vals) in &cases {
            assert_same_stats(&int_col(vals), &format!("int {what}"));
            if vals.iter().all(|&v| v.unsigned_abs() < 1 << 40) {
                assert_same_stats(&text_col(vals), &format!("text {what}"));
            }
        }
        let mut floats = ColumnData::new(DataType::Float);
        for _ in 0..1_000 {
            floats.push(Value::Float((rng.gen_f64() * 40.0).floor() - 3.5)).unwrap();
        }
        assert_same_stats(&floats, "float");
    }

    #[test]
    fn empty_column() {
        let s = ColumnStats::analyze(&int_col(&[]));
        assert_eq!(s.n, 0);
        assert_eq!(s.selectivity(CmpOp::Eq, 1.0), 0.005);
    }
}
