//! Access-path selection: the scan alternatives of one base relation.
//!
//! Everything here is priced once per query. A hint set never changes a
//! scan's rows or cost formula, only whether `disable_cost` is added on
//! top ([`Penalties`]), so an arm picks among ready-made [`ScanTemplate`]s.

use crate::cost::CostParams;
use crate::hints::HintSet;
use bao_common::{BaoError, Result};
use bao_plan::{CmpOp, ColRef, JoinAlgo, Operator, Predicate, Query, ScanKind};
use bao_stats::{resolve_predicate, Estimator, ResolvedPred, StatsCatalog};
use bao_storage::{Database, StoredTable};

/// What one planning call reads; shared by every arm of the family.
pub struct PlannerCtx<'a> {
    pub query: &'a Query,
    pub db: &'a Database,
    pub cat: &'a StatsCatalog,
    pub est: &'a dyn Estimator,
    pub params: &'a CostParams,
}

/// One arm's `disable_cost` surcharges — all a hint set contributes to
/// planning.
#[derive(Debug, Clone, Copy)]
pub struct Penalties {
    pub hints: HintSet,
    pub disable_cost: f64,
}

impl Penalties {
    pub fn join(&self, algo: JoinAlgo) -> f64 {
        if self.hints.join_enabled(algo) {
            0.0
        } else {
            self.disable_cost
        }
    }

    pub fn scan(&self, kind: ScanKind) -> f64 {
        if self.hints.scan_enabled(kind) {
            0.0
        } else {
            self.disable_cost
        }
    }
}

/// The index condition of a range scan: the key range the relation's
/// predicates on `column` imply, if any of them can serve as one.
#[derive(Debug, Clone, Copy)]
pub struct KeyRange<'a> {
    pub column: &'a str,
    pub lo: Option<i64>,
    pub hi: Option<i64>,
    usable: bool,
}

impl<'a> KeyRange<'a> {
    /// The whole index: every predicate stays residual. What a
    /// parameterized lookup uses, whose key comes from the outer row.
    pub fn unbounded(column: &'a str) -> Self {
        KeyRange { column, lo: None, hi: None, usable: false }
    }

    /// Does a predicate on `column` with `op` stay a residual filter
    /// above the index condition?
    fn is_residual(&self, column: &str, op: CmpOp) -> bool {
        !self.usable || column != self.column || op == CmpOp::Ne
    }
}

/// One scan alternative of a relation, before any `disable_cost`.
#[derive(Debug, Clone, Copy)]
pub struct ScanTemplate<'a> {
    pub kind: ScanKind,
    /// `None` for the sequential scan.
    pub range: Option<KeyRange<'a>>,
    pub cost: f64,
    /// Cost of producing the rows again on a nested-loop rescan (pages
    /// assumed warm, CPU re-paid).
    pub rescan: f64,
}

/// The parameterized index lookup a relation offers as the inner side of
/// a nested loop keyed on one of its indexed columns.
#[derive(Debug, Clone, Copy)]
pub struct ParamInner {
    /// `IndexOnly` when the query needs nothing but the key from it.
    pub kind: ScanKind,
    /// Rows per outer key, at least one.
    pub rows: f64,
    /// Cost per outer row.
    pub lookup: f64,
}

/// Pre-resolved information about one FROM-list entry.
#[derive(Debug)]
pub struct BaseRel<'a> {
    /// FROM-list position.
    pub idx: usize,
    /// Underlying table name.
    pub name: &'a str,
    pub stored: &'a StoredTable,
    /// Unfiltered row count (per statistics).
    pub rows: f64,
    /// `rows` times the estimated conjunctive selectivity of `preds`,
    /// clamped to at least one row.
    pub out_rows: f64,
    pub preds: Vec<&'a Predicate>,
    pub resolved: Vec<ResolvedPred>,
    /// Columns the query needs from this entry (index-only eligibility).
    needed: Vec<String>,
    /// Scan alternatives in enumeration order: the sequential scan (always
    /// first, always present), then per index an index scan and, when
    /// legal, an index-only scan.
    pub scans: Vec<ScanTemplate<'a>>,
}

/// Resolve every FROM-list entry of the query and price its scans.
pub fn base_relations<'a>(ctx: &PlannerCtx<'a>) -> Result<Vec<BaseRel<'a>>> {
    let mut rels = Vec::with_capacity(ctx.query.tables.len());
    for (idx, tref) in ctx.query.tables.iter().enumerate() {
        let stored = ctx.db.by_name(&tref.table)?;
        let preds = ctx.query.predicates_on(idx);
        let resolved: Vec<ResolvedPred> =
            preds.iter().map(|p| resolve_predicate(&stored.table, p)).collect();
        let rows = ctx.cat.row_count(&tref.table);
        let sel = ctx.est.scan_selectivity(ctx.cat, &tref.table, &resolved);
        let mut rel = BaseRel {
            idx,
            name: &tref.table,
            stored,
            rows,
            out_rows: (rows * sel).max(1.0),
            preds,
            resolved,
            needed: ctx.query.columns_needed(idx),
            scans: Vec::with_capacity(1 + 2 * stored.indexes.len()),
        };
        rel.price_scans(ctx);
        rels.push(rel);
    }
    Ok(rels)
}

/// Derive the index key range `[lo, hi]` implied by the predicates on one
/// column. Returns `None` when a predicate on the column cannot be used as
/// an index condition (`<>`), in which case it stays residual.
fn key_range(preds: &[&ResolvedPred]) -> (Option<i64>, Option<i64>, bool) {
    let mut lo: Option<i64> = None;
    let mut hi: Option<i64> = None;
    let mut usable = false;
    for p in preds {
        let x = p.x;
        match p.op {
            CmpOp::Eq => {
                let v = x.round() as i64;
                lo = Some(lo.map_or(v, |l| l.max(v)));
                hi = Some(hi.map_or(v, |h| h.min(v)));
                usable = true;
            }
            CmpOp::Gt => {
                let v = x.floor() as i64 + 1;
                lo = Some(lo.map_or(v, |l| l.max(v)));
                usable = true;
            }
            CmpOp::Ge => {
                let v = x.ceil() as i64;
                lo = Some(lo.map_or(v, |l| l.max(v)));
                usable = true;
            }
            CmpOp::Lt => {
                let v = x.ceil() as i64 - 1;
                hi = Some(hi.map_or(v, |h| h.min(v)));
                usable = true;
            }
            CmpOp::Le => {
                let v = x.floor() as i64;
                hi = Some(hi.map_or(v, |h| h.min(v)));
                usable = true;
            }
            CmpOp::Ne => {}
        }
    }
    (lo, hi, usable)
}

impl<'a> BaseRel<'a> {
    /// Enumerate the scan alternatives: a sequential scan (always), an
    /// index (and, when legal, index-only) scan per index — a full index
    /// scan when no predicate bounds the key, relevant when sequential
    /// scans are hinted off.
    fn price_scans(&mut self, ctx: &PlannerCtx<'a>) {
        let p = ctx.params;
        let n_preds = self.resolved.len();
        self.scans.push(ScanTemplate {
            kind: ScanKind::Seq,
            range: None,
            cost: p.seq_scan(self.stored.table.n_pages() as f64, self.rows, n_preds),
            rescan: self.rows * (p.cpu_tuple_cost + n_preds as f64 * p.cpu_operator_cost),
        });

        for stored_idx in &self.stored.indexes {
            let col = &stored_idx.index.column;
            let on_col: Vec<&ResolvedPred> =
                self.resolved.iter().filter(|r| &r.column == col).collect();
            let (lo, hi, usable) = key_range(&on_col);
            let range = KeyRange { column: col, lo, hi, usable };
            let n_residual =
                self.resolved.iter().filter(|r| range.is_residual(&r.column, r.op)).count();

            // Selectivity of the index condition alone.
            let idx_sel = if usable {
                let idx_preds: Vec<ResolvedPred> =
                    on_col.iter().filter(|r| r.op != CmpOp::Ne).map(|r| (*r).clone()).collect();
                ctx.est.scan_selectivity(ctx.cat, self.name, &idx_preds)
            } else {
                1.0
            };
            let matching = (self.rows * idx_sel).max(1.0);
            let height = stored_idx.index.height() as f64;
            let leaf_pages = stored_idx.index.n_pages() as f64;
            let entries = stored_idx.index.len() as f64;

            // Plain index scan (heap fetches + residual filter); rescans
            // of a range index scan mostly hit cache.
            self.scans.push(ScanTemplate {
                kind: ScanKind::Index,
                range: Some(range),
                cost: p.index_scan(height, leaf_pages, entries, idx_sel, matching, n_residual),
                rescan: matching
                    * (p.cpu_index_tuple_cost
                        + p.cpu_tuple_cost
                        + n_residual as f64 * p.cpu_operator_cost),
            });

            // Index-only scan: legal when the query touches nothing but
            // the indexed column on this relation and no residual
            // predicate remains.
            if n_residual == 0 && self.needed.iter().all(|c| c == col) {
                self.scans.push(ScanTemplate {
                    kind: ScanKind::IndexOnly,
                    range: Some(range),
                    cost: p.index_only_scan(height, leaf_pages, entries, idx_sel),
                    rescan: (entries * idx_sel).max(1.0) * p.cpu_index_tuple_cost,
                });
            }
        }
    }

    /// The arm's cheapest scan: its position in `scans` and its cost with
    /// the arm's penalty added. Of equally cheap scans the first wins;
    /// `total_cmp` keeps the comparison total even if a cost model ever
    /// emits NaN (such a scan sorts last).
    pub fn cheapest_scan(&self, pens: &Penalties) -> Result<(usize, f64)> {
        self.scans
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.cost + pens.scan(t.kind)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .ok_or_else(|| BaoError::Planning(format!("no access path for {}", self.name)))
    }

    /// Materialise a scan of `kind` over `range` as a plan operator;
    /// `param` makes it the inner side of a parameterized nested loop.
    pub fn scan_operator(
        &self,
        kind: ScanKind,
        range: Option<KeyRange<'_>>,
        param: Option<ColRef>,
    ) -> Operator {
        // The predicates left above an index condition (all of them
        // without one).
        let residual = || -> Vec<Predicate> {
            self.preds
                .iter()
                .filter(|p| range.is_none_or(|r| r.is_residual(&p.col.column, p.op)))
                .map(|p| (*p).clone())
                .collect()
        };
        let table = self.idx;
        match (kind, range) {
            (ScanKind::Index, Some(r)) => Operator::IndexScan {
                table,
                column: r.column.to_string(),
                lo: r.lo,
                hi: r.hi,
                residual: residual(),
                param,
            },
            (ScanKind::IndexOnly, Some(r)) => Operator::IndexOnlyScan {
                table,
                column: r.column.to_string(),
                lo: r.lo,
                hi: r.hi,
                param,
            },
            _ => Operator::SeqScan { table, preds: residual() },
        }
    }

    /// The parameterized lookup on `column`, if it is indexed. `jsel` is
    /// the selectivity of the join predicate that supplies the key.
    pub fn param_inner(
        &self,
        p: &CostParams,
        column: &str,
        jsel: impl FnOnce() -> f64,
    ) -> Option<ParamInner> {
        let height = self.stored.index_on(column)?.index.height() as f64;
        let covering = self.preds.is_empty() && self.needed.iter().all(|c| c == column);
        // Expected raw index matches per outer key, before residual
        // filtering.
        let per_key = (self.rows * jsel()).max(0.0);
        let (kind, lookup) = if covering {
            (ScanKind::IndexOnly, p.param_index_lookup(height, per_key, false))
        } else {
            (
                ScanKind::Index,
                p.param_index_lookup(height, per_key, true)
                    + per_key * self.preds.len() as f64 * p.cpu_operator_cost,
            )
        };
        Some(ParamInner { kind, rows: per_key.max(1.0), lookup })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_stats::PostgresEstimator;
    use bao_storage::{ColumnDef, DataType, Schema, Table, Value};

    fn setup(rows: i64, with_index: bool) -> (Database, StatsCatalog) {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ]),
        );
        for i in 0..rows {
            t.insert(vec![Value::Int(i), Value::Int(i % 100)]).unwrap();
        }
        let mut db = Database::new();
        db.create_table(t).unwrap();
        if with_index {
            db.create_index("t", "id").unwrap();
        }
        let cat = StatsCatalog::analyze(&db, 500, 7);
        (db, cat)
    }

    /// The single relation of `sql`, under the stock PostgreSQL profile.
    fn with_rel<T>(
        sql: &str,
        db: &Database,
        cat: &StatsCatalog,
        f: impl FnOnce(&BaseRel<'_>) -> T,
    ) -> T {
        let query = bao_sql::parse_query(sql).unwrap();
        let params = CostParams::default();
        let ctx = PlannerCtx { query: &query, db, cat, est: &PostgresEstimator, params: &params };
        f(&base_relations(&ctx).unwrap()[0])
    }

    /// The scan `hints` settles on, and its penalised cost.
    fn best(rel: &BaseRel<'_>, hints: HintSet) -> (Operator, f64) {
        let pens = Penalties { hints, disable_cost: CostParams::default().disable_cost };
        let (i, cost) = rel.cheapest_scan(&pens).unwrap();
        (rel.scan_operator(rel.scans[i].kind, rel.scans[i].range, None), cost)
    }

    fn operators(rel: &BaseRel<'_>) -> Vec<Operator> {
        rel.scans.iter().map(|s| rel.scan_operator(s.kind, s.range, None)).collect()
    }

    #[test]
    fn selective_point_query_prefers_index() {
        let (db, cat) = setup(100_000, true);
        with_rel("SELECT v FROM t WHERE id = 5", &db, &cat, |rel| {
            let (op, _) = best(rel, HintSet::all_enabled());
            assert!(matches!(op, Operator::IndexScan { .. }), "{op:?}");
            assert!(rel.scans.len() >= 2);
        });
    }

    #[test]
    fn unselective_query_prefers_seq() {
        let (db, cat) = setup(100_000, true);
        with_rel("SELECT v FROM t WHERE id >= 0", &db, &cat, |rel| {
            assert!(matches!(best(rel, HintSet::all_enabled()).0, Operator::SeqScan { .. }));
        });
    }

    #[test]
    fn hint_flips_choice() {
        let (db, cat) = setup(100_000, true);
        with_rel("SELECT v FROM t WHERE id = 5", &db, &cat, |rel| {
            // disable index & index-only scans: seq must win despite selectivity
            let hints = HintSet::from_masks(0b111, 0b001);
            assert!(matches!(best(rel, hints).0, Operator::SeqScan { .. }));
        });
    }

    #[test]
    fn index_only_when_covering() {
        let (db, cat) = setup(50_000, true);
        with_rel("SELECT COUNT(id) FROM t WHERE id < 100", &db, &cat, |rel| {
            assert!(operators(rel).iter().any(|op| matches!(op, Operator::IndexOnlyScan { .. })));
            let (op, _) = best(rel, HintSet::all_enabled());
            assert!(matches!(op, Operator::IndexOnlyScan { .. }));
        });
    }

    #[test]
    fn no_index_only_when_other_columns_needed() {
        let (db, cat) = setup(10_000, true);
        with_rel("SELECT v FROM t WHERE id < 100", &db, &cat, |rel| {
            assert!(!operators(rel).iter().any(|op| matches!(op, Operator::IndexOnlyScan { .. })));
        });
    }

    #[test]
    fn residual_predicates_kept() {
        let (db, cat) = setup(10_000, true);
        with_rel("SELECT v FROM t WHERE id < 100 AND v = 3", &db, &cat, |rel| {
            let ops = operators(rel);
            let idx = ops.iter().find(|op| matches!(op, Operator::IndexScan { .. })).unwrap();
            if let Operator::IndexScan { residual, lo, hi, .. } = idx {
                assert_eq!(residual.len(), 1);
                assert_eq!(residual[0].col.column, "v");
                assert_eq!(*lo, None);
                assert_eq!(*hi, Some(99));
            } else {
                unreachable!()
            }
        });
    }

    #[test]
    fn key_range_combinations() {
        let p = |op, x| ResolvedPred { column: "c".into(), op, x };
        let a = p(CmpOp::Ge, 10.0);
        let b = p(CmpOp::Lt, 20.0);
        let (lo, hi, usable) = key_range(&[&a, &b]);
        assert_eq!((lo, hi), (Some(10), Some(19)));
        assert!(usable);
        let e = p(CmpOp::Eq, 15.0);
        let (lo, hi, _) = key_range(&[&a, &b, &e]);
        assert_eq!((lo, hi), (Some(15), Some(15)));
        let n = p(CmpOp::Ne, 3.0);
        let (_, _, usable) = key_range(&[&n]);
        assert!(!usable);
        let g = p(CmpOp::Gt, 10.0);
        let l = p(CmpOp::Le, 20.0);
        let (lo, hi, _) = key_range(&[&g, &l]);
        assert_eq!((lo, hi), (Some(11), Some(20)));
    }

    #[test]
    fn table_without_index_still_plannable_under_no_seq_hint() {
        let (db, cat) = setup(1_000, false);
        with_rel("SELECT v FROM t WHERE id = 5", &db, &cat, |rel| {
            let (op, cost) = best(rel, HintSet::from_masks(0b111, 0b110)); // seq disabled
                                                                           // only seq exists; it is chosen despite the penalty
            assert!(matches!(op, Operator::SeqScan { .. }));
            assert!(cost >= CostParams::default().disable_cost);
        });
    }
}
