//! Static well-formedness verification for physical plan trees.
//!
//! The optimizer's arm fan-out produces 49 plans per query and the model
//! only ever sees their vectorized shadows, so a malformed tree (an
//! unresolved column, a join key that no child produces, an estimate that
//! went NaN) can silently poison training data long before the executor
//! trips over it. This pass checks every structural invariant a plan must
//! satisfy *before* execution or featurization:
//!
//! * operator arity (scans are leaves, joins binary, the rest unary);
//! * every [`ColRef`] resolves — the FROM index exists in the query, the
//!   table exists in the database, the column exists in its schema;
//! * each FROM-list entry is scanned exactly once (no duplicate or
//!   missing base-table scans);
//! * scan predicates/residuals are local to the scanned table, index
//!   scans name an existing index, index-only scans actually cover the
//!   query's needs;
//! * parameterized index scans appear only as the inner child of a
//!   nested-loop join and agree with its predicate;
//! * join keys are bound to the children's outputs, type-consistent,
//!   and not floats (the executor refuses float join keys);
//! * merge-join inputs deliver rows ordered on the join key (an explicit
//!   `Sort` whose primary key is the side's join column, or an
//!   unparameterized index scan of that column);
//! * aggregates never sit below a join;
//! * every estimate annotation is finite and non-negative;
//! * cardinality estimates are monotone along unary paths — a `Filter`,
//!   `Sort`, or `Aggregate` never claims more output rows than its input
//!   (joins may legitimately grow cardinality and are exempt);
//! * optionally, hint-set consistency (see [`HintCheck`]).

use crate::logical::{ColRef, JoinPred, Query};
use crate::physical::{JoinAlgo, OpKind, Operator, PlanNode, ScanKind};
use bao_storage::{DataType, Database};
use std::fmt;

/// What a hint set permits, decoupled from the optimizer's own `HintSet`
/// type (`bao-opt` depends on this crate, not the reverse). Hints are
/// *soft*: a disabled operator is costed at `disable_cost`, not removed,
/// so consistency is only enforceable on plans the optimizer claims are
/// penalty-free — [`verify_with_hints`] skips the hint check whenever
/// `root.est_cost >= disable_cost`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HintCheck {
    pub hash_join: bool,
    pub merge_join: bool,
    pub nested_loop: bool,
    pub seq_scan: bool,
    pub index_scan: bool,
    pub index_only_scan: bool,
    pub disable_cost: f64,
}

impl HintCheck {
    pub fn join_enabled(&self, algo: JoinAlgo) -> bool {
        match algo {
            JoinAlgo::Hash => self.hash_join,
            JoinAlgo::Merge => self.merge_join,
            JoinAlgo::NestedLoop => self.nested_loop,
        }
    }

    pub fn scan_enabled(&self, kind: ScanKind) -> bool {
        match kind {
            ScanKind::Seq => self.seq_scan,
            ScanKind::Index => self.index_scan,
            ScanKind::IndexOnly => self.index_only_scan,
        }
    }
}

/// Why a plan failed verification.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// An operator has the wrong number of children.
    Arity { kind: OpKind, got: usize, want: usize },
    /// A `ColRef` names a FROM position the query does not have, or a
    /// table missing from the database.
    UnknownTable { table: usize },
    /// A `ColRef` names a column its table's schema does not have.
    UnresolvedColumn { table: usize, column: String },
    /// An index scan on a column with no index.
    MissingIndex { table: usize, column: String },
    /// An index-only scan on a table the query needs other columns from.
    IndexOnlyNotCovering { table: usize, column: String },
    /// A base table scanned more than once.
    DuplicateScan { table: usize },
    /// A FROM-list entry no scan produces.
    MissingScan { table: usize },
    /// A scan predicate referencing some other table.
    ForeignScanPredicate { scan_table: usize, pred_table: usize },
    /// A join predicate not connecting the join's two inputs.
    UnboundJoinKey { pred: JoinPred },
    /// A join key of Float type (the executor refuses float keys).
    FloatJoinKey { col: ColRef },
    /// Join key sides of different types.
    JoinKeyTypeMismatch { left: DataType, right: DataType },
    /// A parameterized index scan outside a nested loop's inner side, or
    /// one disagreeing with the enclosing join predicate.
    ParamScanMisplaced { table: usize },
    /// A filter predicate referencing tables its input does not cover.
    UnboundFilterKey { pred: JoinPred },
    /// A sort key, group-by key, or aggregate input the child's output
    /// does not cover.
    UnboundKey { col: ColRef },
    /// An aggregate below a join (the executor rejects this shape).
    AggregateBelowJoin,
    /// A merge-join input that does not deliver rows ordered on its join
    /// key (no `Sort` on the key, no ordered index scan of the key).
    MergeInputNotOrdered { side: &'static str, col: ColRef },
    /// An estimate annotation that is NaN, infinite, or negative.
    BadEstimate { kind: OpKind, what: &'static str, value: f64 },
    /// A unary operator claiming more output rows than its input — the
    /// planner and re-annotation both guarantee non-increase through
    /// `Filter`/`Sort`/`Aggregate`, so a violation is an estimator bug.
    NonMonotoneEstimate { kind: OpKind, rows: f64, child_rows: f64 },
    /// A penalty-free plan using an operator its hint set disables.
    HintViolation { what: String },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Arity { kind, got, want } => {
                write!(f, "{} has {got} children, wants {want}", kind.name())
            }
            VerifyError::UnknownTable { table } => {
                write!(f, "FROM position {table} does not resolve to a table")
            }
            VerifyError::UnresolvedColumn { table, column } => {
                write!(f, "column {column} does not exist on FROM position {table}")
            }
            VerifyError::MissingIndex { table, column } => {
                write!(f, "no index on {column} of FROM position {table}")
            }
            VerifyError::IndexOnlyNotCovering { table, column } => {
                write!(
                    f,
                    "index-only scan of {column} does not cover the query's needs \
                     from FROM position {table}"
                )
            }
            VerifyError::DuplicateScan { table } => {
                write!(f, "FROM position {table} scanned more than once")
            }
            VerifyError::MissingScan { table } => {
                write!(f, "FROM position {table} never scanned")
            }
            VerifyError::ForeignScanPredicate { scan_table, pred_table } => {
                write!(f, "scan of FROM position {scan_table} filters on position {pred_table}")
            }
            VerifyError::UnboundJoinKey { pred } => {
                write!(
                    f,
                    "join key {}.{} = {}.{} not bound to the join's inputs",
                    pred.left.table, pred.left.column, pred.right.table, pred.right.column
                )
            }
            VerifyError::FloatJoinKey { col } => {
                write!(f, "join key {}.{} is a float column", col.table, col.column)
            }
            VerifyError::JoinKeyTypeMismatch { left, right } => {
                write!(f, "join key types differ: {left} vs {right}")
            }
            VerifyError::ParamScanMisplaced { table } => {
                write!(
                    f,
                    "parameterized scan of FROM position {table} outside a \
                     nested loop's inner side (or disagreeing with its predicate)"
                )
            }
            VerifyError::UnboundFilterKey { pred } => {
                write!(
                    f,
                    "filter key {}.{} = {}.{} not covered by the filter's input",
                    pred.left.table, pred.left.column, pred.right.table, pred.right.column
                )
            }
            VerifyError::UnboundKey { col } => {
                write!(f, "key {}.{} not covered by the child's output", col.table, col.column)
            }
            VerifyError::AggregateBelowJoin => write!(f, "aggregate below a join"),
            VerifyError::MergeInputNotOrdered { side, col } => {
                write!(
                    f,
                    "merge join's {side} input is not ordered on its join key {}.{}",
                    col.table, col.column
                )
            }
            VerifyError::BadEstimate { kind, what, value } => {
                write!(f, "{} has non-finite or negative {what}: {value}", kind.name())
            }
            VerifyError::NonMonotoneEstimate { kind, rows, child_rows } => {
                write!(
                    f,
                    "{} claims {rows} output rows from only {child_rows} input rows",
                    kind.name()
                )
            }
            VerifyError::HintViolation { what } => {
                write!(f, "penalty-free plan uses hint-disabled {what}")
            }
        }
    }
}

impl From<VerifyError> for bao_common::BaoError {
    fn from(e: VerifyError) -> Self {
        bao_common::BaoError::Planning(format!("plan failed verification: {e}"))
    }
}

/// Verify `plan` against its query and database (no hint check).
pub fn verify(plan: &PlanNode, query: &Query, db: &Database) -> Result<(), VerifyError> {
    Verifier { query, db }.check(plan)
}

/// Verify `plan` and additionally, when its root cost is below
/// `hints.disable_cost` (the optimizer claims no penalty was paid), check
/// that every join algorithm and scan kind used is hint-enabled. Run this
/// on *raw* planner output only — estimate re-annotation strips penalties
/// and would make the cost gate meaningless.
pub fn verify_with_hints(
    plan: &PlanNode,
    query: &Query,
    db: &Database,
    hints: &HintCheck,
) -> Result<(), VerifyError> {
    Verifier { query, db }.check(plan)?;
    if plan.est_cost >= hints.disable_cost {
        return Ok(());
    }
    for algo in plan.join_algos() {
        if !hints.join_enabled(algo) {
            return Err(VerifyError::HintViolation { what: format!("{algo:?} join") });
        }
    }
    for (table, kind) in plan.access_paths() {
        if !hints.scan_enabled(kind) {
            return Err(VerifyError::HintViolation {
                what: format!("{kind:?} scan of FROM position {table}"),
            });
        }
    }
    Ok(())
}

/// Does `node` deliver rows ordered on `key`? True for a `Sort` whose
/// primary key is `key`, and for an unparameterized index (or index-only)
/// range scan of exactly that column — a B-tree range scan emits key
/// order. Everything else (heap scans, joins, filters) makes no ordering
/// promise.
fn provides_order(node: &PlanNode, key: &ColRef) -> bool {
    match &node.op {
        Operator::Sort { keys } => keys.first() == Some(key),
        Operator::IndexScan { table, column, param: None, .. }
        | Operator::IndexOnlyScan { table, column, param: None, .. } => {
            *table == key.table && *column == key.column
        }
        _ => false,
    }
}

struct Verifier<'a> {
    query: &'a Query,
    db: &'a Database,
}

impl Verifier<'_> {
    fn check(&self, root: &PlanNode) -> Result<(), VerifyError> {
        self.node(root, false, None)?;
        self.scan_coverage(root)
    }

    /// Resolve a column reference to its stored type.
    fn resolve(&self, col: &ColRef) -> Result<DataType, VerifyError> {
        let tref = self
            .query
            .tables
            .get(col.table)
            .ok_or(VerifyError::UnknownTable { table: col.table })?;
        let stored = self
            .db
            .by_name(&tref.table)
            .map_err(|_| VerifyError::UnknownTable { table: col.table })?;
        let schema = &stored.table.schema;
        match schema.column_index(&col.column) {
            Some(i) => Ok(schema.columns[i].ty),
            None => {
                Err(VerifyError::UnresolvedColumn { table: col.table, column: col.column.clone() })
            }
        }
    }

    /// Check that FROM position `table` resolves to a live table.
    fn resolve_table(&self, table: usize) -> Result<(), VerifyError> {
        let tref = self.query.tables.get(table).ok_or(VerifyError::UnknownTable { table })?;
        self.db.by_name(&tref.table).map(|_| ()).map_err(|_| VerifyError::UnknownTable { table })
    }

    /// Does an index exist on `column` of FROM position `table`?
    fn has_index(&self, table: usize, column: &str) -> bool {
        self.query
            .tables
            .get(table)
            .and_then(|t| self.db.by_name(&t.table).ok())
            .is_some_and(|s| s.index_on(column).is_some())
    }

    fn arity(&self, node: &PlanNode, want: usize) -> Result<(), VerifyError> {
        if node.children.len() != want {
            return Err(VerifyError::Arity {
                kind: node.op.kind(),
                got: node.children.len(),
                want,
            });
        }
        Ok(())
    }

    fn estimates(&self, node: &PlanNode) -> Result<(), VerifyError> {
        for (what, value) in [("est_rows", node.est_rows), ("est_cost", node.est_cost)] {
            if !value.is_finite() || value < 0.0 {
                return Err(VerifyError::BadEstimate { kind: node.op.kind(), what, value });
            }
        }
        Ok(())
    }

    /// A join key must be produced by exactly the expected side.
    fn join_key(&self, col: &ColRef, side: &[usize]) -> Result<DataType, VerifyError> {
        if !side.contains(&col.table) {
            return Err(VerifyError::UnboundJoinKey {
                pred: JoinPred::new(col.clone(), col.clone()),
            });
        }
        self.resolve(col)
    }

    /// Check one node. `under_join` is true anywhere below a join;
    /// `param_pred` is the enclosing nested loop's predicate when this
    /// node is its inner child (the one place a parameterized scan may
    /// appear).
    fn node(
        &self,
        node: &PlanNode,
        under_join: bool,
        param_pred: Option<&JoinPred>,
    ) -> Result<(), VerifyError> {
        self.estimates(node)?;
        match &node.op {
            Operator::SeqScan { table, preds } => {
                self.arity(node, 0)?;
                self.resolve_table(*table)?;
                for p in preds {
                    if p.col.table != *table {
                        return Err(VerifyError::ForeignScanPredicate {
                            scan_table: *table,
                            pred_table: p.col.table,
                        });
                    }
                    self.resolve(&p.col)?;
                }
            }
            Operator::IndexScan { table, column, residual, param, .. } => {
                self.arity(node, 0)?;
                self.resolve(&ColRef::new(*table, column.clone()))?;
                if !self.has_index(*table, column) {
                    return Err(VerifyError::MissingIndex {
                        table: *table,
                        column: column.clone(),
                    });
                }
                for p in residual {
                    if p.col.table != *table {
                        return Err(VerifyError::ForeignScanPredicate {
                            scan_table: *table,
                            pred_table: p.col.table,
                        });
                    }
                    self.resolve(&p.col)?;
                }
                if let Some(outer_col) = param {
                    self.check_param(*table, column, outer_col, param_pred)?;
                }
            }
            Operator::IndexOnlyScan { table, column, param, .. } => {
                self.arity(node, 0)?;
                self.resolve(&ColRef::new(*table, column.clone()))?;
                if !self.has_index(*table, column) {
                    return Err(VerifyError::MissingIndex {
                        table: *table,
                        column: column.clone(),
                    });
                }
                let needed = self.query.columns_needed(*table);
                if needed.iter().any(|c| c != column) {
                    return Err(VerifyError::IndexOnlyNotCovering {
                        table: *table,
                        column: column.clone(),
                    });
                }
                if let Some(outer_col) = param {
                    self.check_param(*table, column, outer_col, param_pred)?;
                }
            }
            Operator::NestedLoopJoin { pred }
            | Operator::HashJoin { pred }
            | Operator::MergeJoin { pred } => {
                self.arity(node, 2)?;
                let outer = node.children[0].tables_covered();
                let inner = node.children[1].tables_covered();
                if !pred.connects(&outer, &inner) {
                    return Err(VerifyError::UnboundJoinKey { pred: pred.clone() });
                }
                // Orient the predicate: which side produces `left`?
                let (lt, rt) = if outer.contains(&pred.left.table) {
                    (self.join_key(&pred.left, &outer)?, self.join_key(&pred.right, &inner)?)
                } else {
                    (self.join_key(&pred.left, &inner)?, self.join_key(&pred.right, &outer)?)
                };
                for (ty, col) in [(lt, &pred.left), (rt, &pred.right)] {
                    if ty == DataType::Float {
                        return Err(VerifyError::FloatJoinKey { col: col.clone() });
                    }
                }
                if lt != rt {
                    return Err(VerifyError::JoinKeyTypeMismatch { left: lt, right: rt });
                }
                if matches!(node.op, Operator::MergeJoin { .. }) {
                    // Merge joins consume both inputs in key order; the
                    // optimizer establishes it with explicit Sort nodes
                    // (or an ordered index scan of the key), so an input
                    // without one is a planner bug, not a runtime detail.
                    let (left_key, right_key) = if outer.contains(&pred.left.table) {
                        (&pred.left, &pred.right)
                    } else {
                        (&pred.right, &pred.left)
                    };
                    for (side, key, child) in [
                        ("left", left_key, &node.children[0]),
                        ("right", right_key, &node.children[1]),
                    ] {
                        if !provides_order(child, key) {
                            return Err(VerifyError::MergeInputNotOrdered {
                                side,
                                col: key.clone(),
                            });
                        }
                    }
                }
                let inner_param =
                    matches!(node.op, Operator::NestedLoopJoin { .. }).then_some(pred);
                self.node(&node.children[0], true, None)?;
                self.node(&node.children[1], true, inner_param)?;
                return Ok(());
            }
            Operator::Filter { preds } => {
                self.arity(node, 1)?;
                self.monotone(node)?;
                let covered = node.children[0].tables_covered();
                for p in preds {
                    if !covered.contains(&p.left.table) || !covered.contains(&p.right.table) {
                        return Err(VerifyError::UnboundFilterKey { pred: p.clone() });
                    }
                    self.resolve(&p.left)?;
                    self.resolve(&p.right)?;
                }
            }
            Operator::Sort { keys } => {
                self.arity(node, 1)?;
                self.monotone(node)?;
                let covered = node.children[0].tables_covered();
                for k in keys {
                    if !covered.contains(&k.table) {
                        return Err(VerifyError::UnboundKey { col: k.clone() });
                    }
                    self.resolve(k)?;
                }
            }
            Operator::Aggregate { group_by, aggs } => {
                self.arity(node, 1)?;
                self.monotone(node)?;
                if under_join {
                    return Err(VerifyError::AggregateBelowJoin);
                }
                let covered = node.children[0].tables_covered();
                for col in group_by.iter().chain(aggs.iter().filter_map(|a| a.input())) {
                    if !covered.contains(&col.table) {
                        return Err(VerifyError::UnboundKey { col: col.clone() });
                    }
                    self.resolve(col)?;
                }
            }
        }
        for child in &node.children {
            self.node(child, under_join, None)?;
        }
        Ok(())
    }

    /// Unary operators never produce more rows than they consume: filters
    /// and aggregates reduce, sorts pass through. The tiny relative slack
    /// absorbs benign rounding in re-annotation without admitting a real
    /// cardinality inversion.
    fn monotone(&self, node: &PlanNode) -> Result<(), VerifyError> {
        let child = &node.children[0];
        if node.est_rows > child.est_rows * (1.0 + 1e-9) {
            return Err(VerifyError::NonMonotoneEstimate {
                kind: node.op.kind(),
                rows: node.est_rows,
                child_rows: child.est_rows,
            });
        }
        Ok(())
    }

    /// A parameterized scan must be the inner child of a nested loop whose
    /// predicate it implements: the scanned column is the predicate's
    /// inner-side column, and the parameter is its outer-side column.
    fn check_param(
        &self,
        table: usize,
        column: &str,
        outer_col: &ColRef,
        param_pred: Option<&JoinPred>,
    ) -> Result<(), VerifyError> {
        self.resolve(outer_col)?;
        let Some(pred) = param_pred else {
            return Err(VerifyError::ParamScanMisplaced { table });
        };
        let ok = (pred.right.table == table
            && pred.right.column == column
            && *outer_col == pred.left)
            || (pred.left.table == table && pred.left.column == column && *outer_col == pred.right);
        if !ok {
            return Err(VerifyError::ParamScanMisplaced { table });
        }
        Ok(())
    }

    /// Each FROM-list entry must be scanned exactly once.
    fn scan_coverage(&self, root: &PlanNode) -> Result<(), VerifyError> {
        let mut counts = vec![0usize; self.query.tables.len()];
        for node in root.iter() {
            if let Some((t, _)) = node.op.scan_kind() {
                match counts.get_mut(t) {
                    Some(c) => *c += 1,
                    None => return Err(VerifyError::UnknownTable { table: t }),
                }
            }
        }
        for (t, c) in counts.iter().enumerate() {
            match c {
                0 => return Err(VerifyError::MissingScan { table: t }),
                1 => {}
                _ => return Err(VerifyError::DuplicateScan { table: t }),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggFunc, CmpOp, Predicate, SelectItem, TableRef};
    use bao_storage::{ColumnDef, Schema, Table, Value};

    /// Two tables joined on an Int key; title also has a Float column and
    /// indexes on `id` and `year`, cast_info an index on `movie_id`.
    fn setup() -> (Query, Database) {
        let mut t0 = Table::new(
            "title",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("year", DataType::Int),
                ColumnDef::new("rating", DataType::Float),
            ]),
        );
        t0.insert(vec![Value::Int(1), Value::Int(2000), Value::Float(7.5)]).unwrap();
        let mut t1 = Table::new(
            "cast_info",
            Schema::new(vec![
                ColumnDef::new("movie_id", DataType::Int),
                ColumnDef::new("score", DataType::Float),
                ColumnDef::new("note", DataType::Text),
            ]),
        );
        t1.insert(vec![Value::Int(1), Value::Float(0.5), Value::Str("x".into())]).unwrap();
        let mut db = Database::new();
        db.create_table(t0).unwrap();
        db.create_table(t1).unwrap();
        db.create_index("title", "id").unwrap();
        db.create_index("title", "year").unwrap();
        db.create_index("cast_info", "movie_id").unwrap();
        let query = Query {
            tables: vec![TableRef::new("title"), TableRef::new("cast_info")],
            select: vec![SelectItem::Agg(AggFunc::CountStar)],
            predicates: vec![],
            joins: vec![JoinPred::new(ColRef::new(0, "id"), ColRef::new(1, "movie_id"))],
            group_by: vec![],
            order_by: vec![],
            limit: None,
        };
        (query, db)
    }

    fn scan(t: usize) -> PlanNode {
        PlanNode::new(Operator::SeqScan { table: t, preds: vec![] }, vec![])
            .with_estimates(1.0, 1.0)
    }

    fn join_pred() -> JoinPred {
        JoinPred::new(ColRef::new(0, "id"), ColRef::new(1, "movie_id"))
    }

    fn hash_join(l: PlanNode, r: PlanNode) -> PlanNode {
        PlanNode::new(Operator::HashJoin { pred: join_pred() }, vec![l, r]).with_estimates(1.0, 3.0)
    }

    fn agg(child: PlanNode) -> PlanNode {
        PlanNode::new(
            Operator::Aggregate { group_by: vec![], aggs: vec![AggFunc::CountStar] },
            vec![child],
        )
        .with_estimates(1.0, 4.0)
    }

    // --- accept cases, one per operator family ---

    #[test]
    fn accepts_hash_join_plan() {
        let (q, db) = setup();
        let plan = agg(hash_join(scan(0), scan(1)));
        assert_eq!(verify(&plan, &q, &db), Ok(()));
    }

    #[test]
    fn accepts_merge_join_with_sorts() {
        let (q, db) = setup();
        let sort_l =
            PlanNode::new(Operator::Sort { keys: vec![ColRef::new(0, "id")] }, vec![scan(0)])
                .with_estimates(1.0, 2.0);
        let sort_r =
            PlanNode::new(Operator::Sort { keys: vec![ColRef::new(1, "movie_id")] }, vec![scan(1)])
                .with_estimates(1.0, 2.0);
        let mj = PlanNode::new(Operator::MergeJoin { pred: join_pred() }, vec![sort_l, sort_r])
            .with_estimates(1.0, 5.0);
        assert_eq!(verify(&agg(mj), &q, &db), Ok(()));
    }

    #[test]
    fn accepts_parameterized_nested_loop() {
        let (q, db) = setup();
        let inner = PlanNode::new(
            Operator::IndexScan {
                table: 1,
                column: "movie_id".into(),
                lo: None,
                hi: None,
                residual: vec![],
                param: Some(ColRef::new(0, "id")),
            },
            vec![],
        )
        .with_estimates(1.0, 1.0);
        let nl =
            PlanNode::new(Operator::NestedLoopJoin { pred: join_pred() }, vec![scan(0), inner])
                .with_estimates(1.0, 3.0);
        assert_eq!(verify(&agg(nl), &q, &db), Ok(()));
    }

    #[test]
    fn accepts_index_only_scan_when_covering() {
        let (q, db) = setup();
        // The query needs only `movie_id` from cast_info (the join key).
        let ios = PlanNode::new(
            Operator::IndexOnlyScan {
                table: 1,
                column: "movie_id".into(),
                lo: None,
                hi: None,
                param: None,
            },
            vec![],
        )
        .with_estimates(1.0, 1.0);
        let hj = PlanNode::new(Operator::HashJoin { pred: join_pred() }, vec![scan(0), ios])
            .with_estimates(1.0, 3.0);
        assert_eq!(verify(&agg(hj), &q, &db), Ok(()));
    }

    #[test]
    fn accepts_filter_above_join() {
        let (mut q, db) = setup();
        let extra = JoinPred::new(ColRef::new(0, "year"), ColRef::new(1, "movie_id"));
        q.joins.push(extra.clone());
        let f = PlanNode::new(
            Operator::Filter { preds: vec![extra] },
            vec![hash_join(scan(0), scan(1))],
        )
        .with_estimates(1.0, 4.0);
        assert_eq!(verify(&agg(f), &q, &db), Ok(()));
    }

    #[test]
    fn accepts_scan_predicates_and_sort() {
        let (mut q, db) = setup();
        q.order_by = vec![ColRef::new(0, "year")];
        let s0 = PlanNode::new(
            Operator::SeqScan {
                table: 0,
                preds: vec![Predicate::new(ColRef::new(0, "year"), CmpOp::Gt, Value::Int(1990))],
            },
            vec![],
        )
        .with_estimates(1.0, 1.0);
        let hj = PlanNode::new(Operator::HashJoin { pred: join_pred() }, vec![s0, scan(1)])
            .with_estimates(1.0, 3.0);
        let sort = PlanNode::new(Operator::Sort { keys: q.order_by.clone() }, vec![agg(hj)])
            .with_estimates(1.0, 5.0);
        assert_eq!(verify(&sort, &q, &db), Ok(()));
    }

    // --- rejection classes ---

    #[test]
    fn rejects_unresolved_column() {
        let (q, db) = setup();
        let bad = PlanNode::new(
            Operator::SeqScan {
                table: 0,
                preds: vec![Predicate::new(ColRef::new(0, "nope"), CmpOp::Eq, Value::Int(1))],
            },
            vec![],
        )
        .with_estimates(1.0, 1.0);
        let plan = agg(hash_join(bad, scan(1)));
        assert!(matches!(
            verify(&plan, &q, &db),
            Err(VerifyError::UnresolvedColumn { table: 0, .. })
        ));
    }

    #[test]
    fn rejects_unknown_from_position() {
        let (q, db) = setup();
        assert!(matches!(verify(&scan(7), &q, &db), Err(VerifyError::UnknownTable { table: 7 })));
    }

    #[test]
    fn rejects_duplicate_and_missing_scans() {
        let (q, db) = setup();
        let dup = PlanNode::new(
            Operator::HashJoin { pred: join_pred() },
            vec![hash_join(scan(0), scan(1)), scan(1)],
        )
        .with_estimates(1.0, 5.0);
        assert!(matches!(verify(&agg(dup), &q, &db), Err(VerifyError::DuplicateScan { table: 1 })));
        assert!(matches!(
            verify(&agg(scan(0)), &q, &db),
            Err(VerifyError::MissingScan { table: 1 })
        ));
    }

    #[test]
    fn rejects_wrong_arity() {
        let (q, db) = setup();
        let lonely = PlanNode::new(Operator::HashJoin { pred: join_pred() }, vec![scan(0)])
            .with_estimates(1.0, 1.0);
        assert!(matches!(
            verify(&lonely, &q, &db),
            Err(VerifyError::Arity { got: 1, want: 2, .. })
        ));
    }

    #[test]
    fn rejects_float_join_key() {
        let (mut q, db) = setup();
        let pred = JoinPred::new(ColRef::new(0, "rating"), ColRef::new(1, "score"));
        q.joins = vec![pred.clone()];
        let hj = PlanNode::new(Operator::HashJoin { pred }, vec![scan(0), scan(1)])
            .with_estimates(1.0, 3.0);
        assert!(matches!(verify(&agg(hj), &q, &db), Err(VerifyError::FloatJoinKey { .. })));
    }

    #[test]
    fn rejects_join_key_type_mismatch() {
        let (mut q, db) = setup();
        let pred = JoinPred::new(ColRef::new(0, "id"), ColRef::new(1, "note"));
        q.joins = vec![pred.clone()];
        let hj = PlanNode::new(Operator::HashJoin { pred }, vec![scan(0), scan(1)])
            .with_estimates(1.0, 3.0);
        assert!(matches!(verify(&agg(hj), &q, &db), Err(VerifyError::JoinKeyTypeMismatch { .. })));
    }

    #[test]
    fn rejects_unbound_join_key() {
        let (q, db) = setup();
        let pred = JoinPred::new(ColRef::new(0, "id"), ColRef::new(0, "year"));
        let hj = PlanNode::new(Operator::HashJoin { pred }, vec![scan(0), scan(1)])
            .with_estimates(1.0, 3.0);
        assert!(matches!(verify(&agg(hj), &q, &db), Err(VerifyError::UnboundJoinKey { .. })));
    }

    #[test]
    fn rejects_param_scan_outside_nested_loop_inner() {
        let (q, db) = setup();
        let param_scan = PlanNode::new(
            Operator::IndexScan {
                table: 1,
                column: "movie_id".into(),
                lo: None,
                hi: None,
                residual: vec![],
                param: Some(ColRef::new(0, "id")),
            },
            vec![],
        )
        .with_estimates(1.0, 1.0);
        let hj = PlanNode::new(Operator::HashJoin { pred: join_pred() }, vec![scan(0), param_scan])
            .with_estimates(1.0, 3.0);
        assert!(matches!(
            verify(&agg(hj), &q, &db),
            Err(VerifyError::ParamScanMisplaced { table: 1 })
        ));
    }

    #[test]
    fn rejects_aggregate_below_join() {
        let (q, db) = setup();
        let hj =
            PlanNode::new(Operator::HashJoin { pred: join_pred() }, vec![agg(scan(0)), scan(1)])
                .with_estimates(1.0, 5.0);
        assert!(matches!(verify(&hj, &q, &db), Err(VerifyError::AggregateBelowJoin)));
    }

    #[test]
    fn rejects_merge_join_with_unsorted_left_input() {
        let (q, db) = setup();
        let sort_r =
            PlanNode::new(Operator::Sort { keys: vec![ColRef::new(1, "movie_id")] }, vec![scan(1)])
                .with_estimates(1.0, 2.0);
        // Left input feeds the merge join straight from a heap scan.
        let mj = PlanNode::new(Operator::MergeJoin { pred: join_pred() }, vec![scan(0), sort_r])
            .with_estimates(1.0, 5.0);
        assert!(matches!(
            verify(&agg(mj), &q, &db),
            Err(VerifyError::MergeInputNotOrdered { side: "left", .. })
        ));
        // A sort on the wrong key is just as unordered for the merge.
        let wrong_key =
            PlanNode::new(Operator::Sort { keys: vec![ColRef::new(0, "year")] }, vec![scan(0)])
                .with_estimates(1.0, 2.0);
        let sort_r =
            PlanNode::new(Operator::Sort { keys: vec![ColRef::new(1, "movie_id")] }, vec![scan(1)])
                .with_estimates(1.0, 2.0);
        let mj = PlanNode::new(Operator::MergeJoin { pred: join_pred() }, vec![wrong_key, sort_r])
            .with_estimates(1.0, 5.0);
        assert!(matches!(
            verify(&agg(mj), &q, &db),
            Err(VerifyError::MergeInputNotOrdered { side: "left", .. })
        ));
    }

    #[test]
    fn rejects_merge_join_with_unsorted_right_input() {
        let (q, db) = setup();
        let sort_l =
            PlanNode::new(Operator::Sort { keys: vec![ColRef::new(0, "id")] }, vec![scan(0)])
                .with_estimates(1.0, 2.0);
        let mj = PlanNode::new(Operator::MergeJoin { pred: join_pred() }, vec![sort_l, scan(1)])
            .with_estimates(1.0, 5.0);
        assert!(matches!(
            verify(&agg(mj), &q, &db),
            Err(VerifyError::MergeInputNotOrdered { side: "right", .. })
        ));
    }

    #[test]
    fn accepts_merge_join_over_ordered_index_scan() {
        let (q, db) = setup();
        // An unparameterized B-tree range scan of the join key delivers
        // key order without an explicit Sort.
        let left = PlanNode::new(
            Operator::IndexScan {
                table: 0,
                column: "id".into(),
                lo: None,
                hi: None,
                residual: vec![],
                param: None,
            },
            vec![],
        )
        .with_estimates(1.0, 1.0);
        let right = PlanNode::new(
            Operator::IndexOnlyScan {
                table: 1,
                column: "movie_id".into(),
                lo: None,
                hi: None,
                param: None,
            },
            vec![],
        )
        .with_estimates(1.0, 1.0);
        let mj = PlanNode::new(Operator::MergeJoin { pred: join_pred() }, vec![left, right])
            .with_estimates(1.0, 5.0);
        assert_eq!(verify(&agg(mj), &q, &db), Ok(()));
    }

    #[test]
    fn rejects_non_monotone_unary_estimates() {
        let (mut q, db) = setup();
        q.order_by = vec![ColRef::new(0, "year")];
        // A sort claiming to emit more rows than its input produces.
        let hj = hash_join(scan(0), scan(1)).with_estimates(4.0, 3.0);
        let sort = PlanNode::new(Operator::Sort { keys: q.order_by.clone() }, vec![agg(hj)])
            .with_estimates(25.0, 6.0);
        assert!(matches!(
            verify(&sort, &q, &db),
            Err(VerifyError::NonMonotoneEstimate { rows, child_rows, .. })
                if rows > child_rows
        ));
        // An aggregate inventing groups out of thin air.
        let bloated =
            agg(hash_join(scan(0), scan(1)).with_estimates(2.0, 3.0)).with_estimates(50.0, 4.0);
        assert!(matches!(verify(&bloated, &q, &db), Err(VerifyError::NonMonotoneEstimate { .. })));
        // Joins are exempt: growth across a join is legitimate.
        let growing =
            agg(hash_join(scan(0), scan(1)).with_estimates(500.0, 3.0)).with_estimates(1.0, 4.0);
        assert_eq!(verify(&growing, &q, &db), Ok(()));
    }

    #[test]
    fn rejects_non_finite_and_negative_estimates() {
        let (q, db) = setup();
        let nan = agg(hash_join(scan(0).with_estimates(1.0, f64::NAN), scan(1)));
        assert!(matches!(
            verify(&nan, &q, &db),
            Err(VerifyError::BadEstimate { what: "est_cost", .. })
        ));
        let neg = agg(hash_join(scan(0).with_estimates(-2.0, 1.0), scan(1)));
        assert!(matches!(
            verify(&neg, &q, &db),
            Err(VerifyError::BadEstimate { what: "est_rows", .. })
        ));
    }

    #[test]
    fn rejects_missing_index_and_non_covering_index_only() {
        let (q, db) = setup();
        let no_index = PlanNode::new(
            Operator::IndexScan {
                table: 1,
                column: "note".into(),
                lo: None,
                hi: None,
                residual: vec![],
                param: None,
            },
            vec![],
        )
        .with_estimates(1.0, 1.0);
        let plan = agg(hash_join(scan(0), no_index));
        assert!(matches!(verify(&plan, &q, &db), Err(VerifyError::MissingIndex { table: 1, .. })));
        // `year` is indexed but the query needs `id` from title too.
        let ios = PlanNode::new(
            Operator::IndexOnlyScan {
                table: 0,
                column: "year".into(),
                lo: None,
                hi: None,
                param: None,
            },
            vec![],
        )
        .with_estimates(1.0, 1.0);
        let plan = agg(hash_join(ios, scan(1)));
        assert!(matches!(
            verify(&plan, &q, &db),
            Err(VerifyError::IndexOnlyNotCovering { table: 0, .. })
        ));
    }

    #[test]
    fn rejects_foreign_scan_predicate_and_unbound_sort_key() {
        let (q, db) = setup();
        let foreign = PlanNode::new(
            Operator::SeqScan {
                table: 0,
                preds: vec![Predicate::new(ColRef::new(1, "movie_id"), CmpOp::Eq, Value::Int(1))],
            },
            vec![],
        )
        .with_estimates(1.0, 1.0);
        let plan = agg(hash_join(foreign, scan(1)));
        assert!(matches!(
            verify(&plan, &q, &db),
            Err(VerifyError::ForeignScanPredicate { scan_table: 0, pred_table: 1 })
        ));
        let sort =
            PlanNode::new(Operator::Sort { keys: vec![ColRef::new(1, "movie_id")] }, vec![scan(0)])
                .with_estimates(1.0, 2.0);
        assert!(matches!(verify(&sort, &q, &db), Err(VerifyError::UnboundKey { .. })));
    }

    // --- hint-set consistency ---

    #[test]
    fn hint_check_flags_disabled_operator_on_penalty_free_plan() {
        let (q, db) = setup();
        let plan = agg(hash_join(scan(0), scan(1)));
        let mut hints = HintCheck {
            hash_join: true,
            merge_join: true,
            nested_loop: true,
            seq_scan: true,
            index_scan: true,
            index_only_scan: true,
            disable_cost: 1.0e10,
        };
        assert_eq!(verify_with_hints(&plan, &q, &db, &hints), Ok(()));
        hints.hash_join = false;
        assert!(matches!(
            verify_with_hints(&plan, &q, &db, &hints),
            Err(VerifyError::HintViolation { .. })
        ));
        hints.hash_join = true;
        hints.seq_scan = false;
        assert!(matches!(
            verify_with_hints(&plan, &q, &db, &hints),
            Err(VerifyError::HintViolation { .. })
        ));
    }

    #[test]
    fn hint_check_skipped_for_penalized_plans() {
        let (q, db) = setup();
        // Root cost at/above disable_cost: the optimizer paid a penalty,
        // so hint consistency is unenforceable by design.
        let mut plan = agg(hash_join(scan(0), scan(1)));
        plan.est_cost = 2.0e10;
        let hints = HintCheck {
            hash_join: false,
            merge_join: true,
            nested_loop: true,
            seq_scan: true,
            index_scan: true,
            index_only_scan: true,
            disable_cost: 1.0e10,
        };
        assert_eq!(verify_with_hints(&plan, &q, &db, &hints), Ok(()));
    }
}
