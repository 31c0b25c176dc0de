//! Predicate compilation and typed column access for execution.
//!
//! Every per-row loop reads its column through a [`ColView`]: the
//! `ColumnData` enum is matched once per run of rows, and the loop itself
//! reads a plain slice.

use bao_common::{BaoError, Result};
use bao_plan::{CmpOp, ColRef, Predicate};
use bao_storage::{ColumnData, Table};
use std::cmp::Ordering::{Equal, Greater, Less};

/// A column resolved to its typed cells: text as its dictionary codes.
#[derive(Debug, Clone, Copy)]
pub enum ColView<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Code(&'a [u32]),
}

impl<'a> ColView<'a> {
    pub fn of(col: &'a ColumnData) -> ColView<'a> {
        match col {
            ColumnData::Int(v) => ColView::Int(v),
            ColumnData::Float(v) => ColView::Float(v),
            ColumnData::Text { codes, .. } => ColView::Code(codes),
        }
    }

    /// Each id's cell as the `f64` key that filters, sorts, group keys
    /// and aggregates compare: the raw value for ints and floats, the code
    /// for text.
    pub fn values(self, ids: impl Iterator<Item = u32>) -> Vec<f64> {
        match self {
            ColView::Int(cells) => ids.map(|id| cells[id as usize] as f64).collect(),
            ColView::Float(cells) => ids.map(|id| cells[id as usize]).collect(),
            ColView::Code(cells) => ids.map(|id| f64::from(cells[id as usize])).collect(),
        }
    }

    /// Each id's cell as an integer join key, in order. A float column has
    /// none (the planner never emits float join keys): a type mismatch
    /// once there is an id to read, and no error while there is none.
    pub fn join_keys(self, ids: impl ExactSizeIterator<Item = u32>) -> Result<Vec<i64>> {
        match self {
            ColView::Int(cells) => Ok(ids.map(|id| cells[id as usize]).collect()),
            ColView::Code(cells) => Ok(ids.map(|id| i64::from(cells[id as usize])).collect()),
            ColView::Float(_) if ids.len() == 0 => Ok(Vec::new()),
            ColView::Float(_) => {
                Err(BaoError::TypeMismatch("float columns cannot be join keys".into()))
            }
        }
    }
}

/// A filter predicate compiled against a concrete column: comparisons run
/// on resolved `f64` keys (dictionary codes for text).
#[derive(Debug, Clone)]
pub struct CompiledPred<'a> {
    pub view: ColView<'a>,
    pub op: CmpOp,
    pub x: f64,
}

/// Runs `$body` with `$keep` bound to predicate `$p`'s row test, a
/// `Fn(u32) -> bool` specialised to the column's type and the operator:
/// one match per call, none per row. A cell's key is the one
/// [`ColView::values`] reads, and the tests order keys as `partial_cmp`
/// does, so NaN passes no operator, `<>` included, and `-0.0` equals
/// `0.0`.
macro_rules! with_row_test {
    ($p:expr, |$keep:ident| $body:expr) => {
        match $p.view {
            ColView::Int(cells) => with_row_test!(@op $p, |r| cells[r] as f64, $keep, $body),
            ColView::Float(cells) => with_row_test!(@op $p, |r| cells[r], $keep, $body),
            ColView::Code(cells) => with_row_test!(@op $p, |r| f64::from(cells[r]), $keep, $body),
        }
    };
    (@op $p:expr, |$r:ident| $key:expr, $keep:ident, $body:expr) => {{
        let x = $p.x;
        let key = |r: u32| {
            let $r = r as usize;
            $key
        };
        match $p.op {
            CmpOp::Eq => {
                let $keep = |r: u32| matches!(key(r).partial_cmp(&x), Some(Equal));
                $body
            }
            CmpOp::Lt => {
                let $keep = |r: u32| key(r) < x;
                $body
            }
            CmpOp::Le => {
                let $keep = |r: u32| key(r) <= x;
                $body
            }
            CmpOp::Gt => {
                let $keep = |r: u32| key(r) > x;
                $body
            }
            CmpOp::Ge => {
                let $keep = |r: u32| key(r) >= x;
                $body
            }
            CmpOp::Ne => {
                let $keep = |r: u32| matches!(key(r).partial_cmp(&x), Some(Less | Greater));
                $body
            }
        }
    }};
}

/// Replaces `out` with the rows of `rows` that pass every predicate, in
/// order. Column at a time: the first predicate selects from `rows`, each
/// later one compacts the survivors in place.
///
/// Without a branch per row: every id is written at a cursor, and the
/// cursor advances by the row test's 0 or 1, so a row that fails is
/// overwritten by the next one and the tail past the cursor is cut off.
/// Around half of a scan's rows pass in no order a branch predictor can
/// learn (DESIGN.md §13).
pub fn filter_rows(
    preds: &[CompiledPred<'_>],
    rows: impl ExactSizeIterator<Item = u32>,
    out: &mut Vec<u32>,
) {
    let Some((first, rest)) = preds.split_first() else {
        out.clear();
        out.extend(rows);
        return;
    };
    out.resize(rows.len(), 0);
    let mut kept = 0;
    with_row_test!(first, |keep| {
        for r in rows {
            out[kept] = r;
            kept += usize::from(keep(r));
        }
    });
    out.truncate(kept);
    for p in rest {
        let mut kept = 0;
        with_row_test!(p, |keep| {
            for i in 0..out.len() {
                let r = out[i];
                out[kept] = r;
                kept += usize::from(keep(r));
            }
        });
        out.truncate(kept);
    }
}

/// Compile predicates that all filter the same table.
pub fn compile_preds<'a>(table: &'a Table, preds: &[Predicate]) -> Result<Vec<CompiledPred<'a>>> {
    preds
        .iter()
        .map(|p| {
            let resolved = bao_stats::resolve_predicate(table, p);
            let view = ColView::of(table.column(&p.col.column)?);
            Ok(CompiledPred { view, op: resolved.op, x: resolved.x })
        })
        .collect()
}

/// Resolve a column reference to its column, given per-FROM-position
/// tables.
pub fn column_of<'a>(tables: &[&'a Table], c: &ColRef) -> Result<&'a ColumnData> {
    tables
        .get(c.table)
        .ok_or_else(|| BaoError::InvalidQuery(format!("FROM position {} out of range", c.table)))?
        .column(&c.column)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bao_common::{rng_from_seed, Rng};
    use bao_storage::{ColumnDef, DataType, Schema, Value};

    /// A cell as a comparable key, as every per-row loop read it before
    /// the typed views (test-only oracle).
    pub(crate) fn cell_key(col: &ColumnData, row: u32) -> f64 {
        match col {
            ColumnData::Float(v) => v[row as usize],
            keyed => keyed.key_at(row as usize).expect("keyed column") as f64,
        }
    }

    /// A cell as an integer join key, as the join read it before the
    /// typed views (test-only oracle).
    pub(crate) fn cell_join_key(col: &ColumnData, row: u32) -> Result<i64> {
        col.key_at(row as usize)
            .ok_or_else(|| BaoError::TypeMismatch("float columns cannot be join keys".into()))
    }

    /// A predicate as `compile_preds` built it before the typed views:
    /// one `cell_key` and one `partial_cmp` per row (test-only oracle).
    struct OraclePred<'a> {
        col: &'a ColumnData,
        op: CmpOp,
        x: f64,
    }

    impl OraclePred<'_> {
        fn matches_row(&self, row: u32) -> bool {
            let v = cell_key(self.col, row);
            match v.partial_cmp(&self.x) {
                Some(ord) => self.op.matches(ord),
                None => false,
            }
        }
    }

    fn oracle_preds<'a>(table: &'a Table, preds: &[Predicate]) -> Vec<OraclePred<'a>> {
        preds
            .iter()
            .map(|p| {
                let resolved = bao_stats::resolve_predicate(table, p);
                let col = table.column(&p.col.column).unwrap();
                OraclePred { col, op: resolved.op, x: resolved.x }
            })
            .collect()
    }

    fn filtered(table: &Table, preds: &[Predicate], rows: &[u32]) -> Vec<u32> {
        let mut out = vec![99];
        filter_rows(&compile_preds(table, preds).unwrap(), rows.iter().copied(), &mut out);
        out
    }

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("x", DataType::Int),
                ColumnDef::new("s", DataType::Text),
                ColumnDef::new("f", DataType::Float),
            ]),
        );
        t.insert(vec![Value::Int(10), Value::Str("a".into()), Value::Float(1.5)]).unwrap();
        t.insert(vec![Value::Int(20), Value::Str("b".into()), Value::Float(2.5)]).unwrap();
        t
    }

    #[test]
    fn compile_and_match() {
        let t = table();
        let ge = Predicate::new(ColRef::new(0, "x"), CmpOp::Ge, Value::Int(15));
        let eq = Predicate::new(ColRef::new(0, "s"), CmpOp::Eq, Value::Str("b".into()));
        assert_eq!(filtered(&t, std::slice::from_ref(&ge), &[0, 1]), [1]);
        assert_eq!(filtered(&t, std::slice::from_ref(&eq), &[1, 0, 1]), [1, 1]);
        assert_eq!(filtered(&t, &[ge, eq], &[0, 1]), [1]);
        assert_eq!(filtered(&t, &[], &[1, 0]), [1, 0]);
    }

    #[test]
    fn missing_text_literal_matches_nothing() {
        let t = table();
        let preds = vec![Predicate::new(ColRef::new(0, "s"), CmpOp::Eq, Value::Str("zzz".into()))];
        assert_eq!(filtered(&t, &preds, &[0, 1]), [0u32; 0]);
    }

    #[test]
    fn cell_keys() {
        let t = table();
        let view = |c| ColView::of(t.column(c).unwrap());
        assert_eq!(view("x").values([1, 0].into_iter()), [20.0, 10.0]);
        assert_eq!(view("f").values([0].into_iter()), [1.5]);
        assert_eq!(view("s").values([1].into_iter()), [1.0]);
        assert_eq!(view("x").join_keys([0, 1].into_iter()).unwrap(), [10, 20]);
        assert_eq!(view("s").join_keys([1].into_iter()).unwrap(), [1]);
        assert!(view("f").join_keys([0].into_iter()).is_err());
        assert_eq!(view("f").join_keys([].into_iter()).unwrap(), [0i64; 0]);
    }

    #[test]
    fn unknown_column_errors() {
        let t = table();
        let preds = vec![Predicate::new(ColRef::new(0, "nope"), CmpOp::Eq, Value::Int(1))];
        assert!(compile_preds(&t, &preds).is_err());
    }

    /// A table of `n` rows: `i` an int in -4..=4 plus extremes, `s` a text
    /// from five words, `f` a float that is often NaN, ±0.0 or ±∞.
    fn filter_table(n: usize, seed: u64) -> Table {
        let mut rng = rng_from_seed(seed);
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("i", DataType::Int),
                ColumnDef::new("s", DataType::Text),
                ColumnDef::new("f", DataType::Float),
            ]),
        );
        let floats = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0, -1.0];
        let ints = [i64::MIN, i64::MAX, (1 << 53) + 1];
        for _ in 0..n {
            let i = match rng.gen_index(8) {
                0 => ints[rng.gen_index(ints.len())],
                _ => rng.gen_range(-4i64..=4),
            };
            let f = match rng.gen_index(2) {
                0 => floats[rng.gen_index(floats.len())],
                _ => (rng.gen_f64() - 0.5) * 4.0,
            };
            let word = ["ash", "elm", "fir", "oak", "yew"][rng.gen_index(5)];
            t.insert(vec![Value::Int(i), Value::Str(word.into()), Value::Float(f)]).unwrap();
        }
        t
    }

    /// A random predicate over one of the three columns, under one of the
    /// six operators; literals include NaN, ±0.0, ±∞ and a word the
    /// dictionary lacks (`MISSING_KEY`).
    fn random_pred(rng: &mut impl Rng) -> Predicate {
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Ne];
        let op = ops[rng.gen_index(6)];
        let (col, value) = match rng.gen_index(3) {
            0 => ("i", Value::Int(rng.gen_range(-5i64..=5))),
            1 => ("s", Value::Str(["ash", "fir", "yew", "zzz"][rng.gen_index(4)].into())),
            _ => {
                let specials = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 0.5];
                ("f", Value::Float(specials[rng.gen_index(specials.len())]))
            }
        };
        Predicate::new(ColRef::new(0, col), op, value)
    }

    /// `filter_rows` over `rows` against the oracle, into an `out` that
    /// holds more stale ids on entry than `rows` has, so every stale id
    /// must be overwritten or cut off. Returns how many rows were kept.
    fn check_filter(
        compiled: &[CompiledPred<'_>],
        oracle: &[OraclePred<'_>],
        rows: impl ExactSizeIterator<Item = u32> + Clone,
        what: &str,
    ) -> usize {
        let mut out: Vec<u32> = (0..rows.len() as u32 + 5).map(|i| u32::MAX - i).collect();
        filter_rows(compiled, rows.clone(), &mut out);
        let want: Vec<u32> = rows.filter(|&r| oracle.iter().all(|p| p.matches_row(r))).collect();
        assert_eq!(out, want, "{what}");
        want.len()
    }

    #[test]
    fn filter_kernel_matches_the_per_row_oracle() {
        const TABLE_ROWS: usize = 20_000;
        let t = filter_table(TABLE_ROWS, 51);
        let mut rng = rng_from_seed(53);
        let mut checked = 0;
        let mut kept = 0;
        // Fixed selectivities, as the first predicate and as a later one:
        // no row, about half the rows in random order, and every row.
        let int_pred = |op, x| Predicate::new(ColRef::new(0, "i"), op, Value::Int(x));
        let none = int_pred(CmpOp::Lt, i64::MIN);
        let half = int_pred(CmpOp::Le, 0);
        let all = int_pred(CmpOp::Ge, i64::MIN);
        let mut fixed: Vec<Vec<Predicate>> = Vec::new();
        for first in [&none, &half, &all] {
            fixed.push(vec![first.clone()]);
            for later in [&none, &half, &all] {
                fixed.push(vec![first.clone(), later.clone()]);
            }
        }
        let passing = |pred: &Predicate| {
            let preds = std::slice::from_ref(pred);
            let (compiled, oracle) = (compile_preds(&t, preds).unwrap(), oracle_preds(&t, preds));
            check_filter(&compiled, &oracle, 0..TABLE_ROWS as u32, "whole table")
        };
        let counts = [passing(&none), passing(&half), passing(&all)];
        assert!(counts[0] == 0 && counts[2] == TABLE_ROWS, "{counts:?}");
        assert!((8_000..12_000).contains(&counts[1]), "{counts:?}");
        for n in [0, 1, TABLE_ROWS] {
            for width in 1..=3 {
                let random = (0..=3).flat_map(|n_preds| (0..8).map(move |_| n_preds));
                let random: Vec<Vec<Predicate>> = random
                    .map(|n_preds| (0..n_preds).map(|_| random_pred(&mut rng)).collect())
                    .collect();
                for preds in fixed.iter().chain(&random) {
                    let compiled = compile_preds(&t, preds).unwrap();
                    let oracle = oracle_preds(&t, preds);
                    // `width` contiguous ranges of the first `n` rows
                    // (some empty), most starting past row 0.
                    let (base, rem) = (n / width, n % width);
                    let mut end = 0;
                    for w in 0..width {
                        let start = end;
                        end += base + usize::from(w < rem);
                        let range = (start as u32)..(end as u32);
                        let what = format!("{n} rows, range {w} of {width}, {preds:?}");
                        kept += check_filter(&compiled, &oracle, range, &what);
                        checked += 1;
                    }
                    // An unordered id list with repeats, as index probes
                    // hand the residual check, and the sorted sparse list
                    // of distinct ids a parameterized lookup passes.
                    let ids: Vec<u32> =
                        (0..n.min(500)).map(|_| rng.gen_index(TABLE_ROWS) as u32).collect();
                    let mut sparse = ids.clone();
                    sparse.sort_unstable();
                    sparse.dedup();
                    for (ids, shape) in [(ids, "unordered"), (sparse, "sorted sparse")] {
                        let what = format!("{} {shape} ids, {preds:?}", ids.len());
                        check_filter(&compiled, &oracle, ids.iter().copied(), &what);
                    }
                }
            }
        }
        assert!(checked > 500 && kept > 100_000, "{checked} ranges, {kept} rows kept");
    }
}
