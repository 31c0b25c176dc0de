//! Physical plan trees.
//!
//! These are the trees the optimizer emits, the executor charges, and Bao
//! vectorizes (paper §3.1). Nodes carry the optimizer's estimated rows and
//! cumulative cost — the two numeric features of Figure 4's vectors.

use crate::logical::{AggFunc, ColRef, JoinPred, Predicate};
use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::stats::qerror;
use bao_common::{BaoError, Result};
use std::fmt;

/// Scan strategies (the scan half of the hint-set space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanKind {
    Seq,
    Index,
    IndexOnly,
}

/// Join algorithms (the join half of the hint-set space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgo {
    NestedLoop,
    Hash,
    Merge,
}

/// A physical operator. Filters are folded into scans (as PostgreSQL does
/// for single-relation quals); joins are strictly binary.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// Full heap scan of `table` (FROM-list position), applying `preds`.
    SeqScan { table: usize, preds: Vec<Predicate> },
    /// Index range scan on `column`, fetching heap rows, then applying
    /// `residual` predicates. When `param` is set this is the inner side of
    /// a parameterized nested-loop join: the probed key comes from the
    /// outer row's `param` column and `lo`/`hi` are ignored.
    IndexScan {
        table: usize,
        column: String,
        lo: Option<i64>,
        hi: Option<i64>,
        residual: Vec<Predicate>,
        param: Option<ColRef>,
    },
    /// Index-only scan: like `IndexScan` but never touches the heap; legal
    /// only when the query needs nothing but `column` from this table.
    IndexOnlyScan {
        table: usize,
        column: String,
        lo: Option<i64>,
        hi: Option<i64>,
        param: Option<ColRef>,
    },
    /// children: [outer, inner].
    NestedLoopJoin { pred: JoinPred },
    /// children: [probe (outer), build (inner)].
    HashJoin { pred: JoinPred },
    /// children: [left, right]; children must deliver sorted output (via
    /// `Sort` nodes or ordered index scans).
    MergeJoin { pred: JoinPred },
    /// Post-join filter applying *extra* equi-join predicates — the
    /// second and later edges connecting two sub-plans when the join
    /// graph is cyclic (the physical join handles one edge; the rest
    /// filter its output).
    Filter { preds: Vec<JoinPred> },
    /// Sort `child` by `keys`.
    Sort { keys: Vec<ColRef> },
    /// Hash aggregation (or plain aggregation when `group_by` is empty).
    Aggregate { group_by: Vec<ColRef>, aggs: Vec<AggFunc> },
}


impl ToJson for Operator {
    fn to_json(&self) -> Json {
        match self {
            Operator::SeqScan { table, preds } => Json::obj([(
                "SeqScan",
                Json::obj([("table", table.to_json()), ("preds", preds.to_json())]),
            )]),
            Operator::IndexScan { table, column, lo, hi, residual, param } => Json::obj([(
                "IndexScan",
                Json::obj([
                    ("table", table.to_json()),
                    ("column", column.to_json()),
                    ("lo", lo.to_json()),
                    ("hi", hi.to_json()),
                    ("residual", residual.to_json()),
                    ("param", param.to_json()),
                ]),
            )]),
            Operator::IndexOnlyScan { table, column, lo, hi, param } => Json::obj([(
                "IndexOnlyScan",
                Json::obj([
                    ("table", table.to_json()),
                    ("column", column.to_json()),
                    ("lo", lo.to_json()),
                    ("hi", hi.to_json()),
                    ("param", param.to_json()),
                ]),
            )]),
            Operator::NestedLoopJoin { pred } => {
                Json::obj([("NestedLoopJoin", Json::obj([("pred", pred.to_json())]))])
            }
            Operator::HashJoin { pred } => {
                Json::obj([("HashJoin", Json::obj([("pred", pred.to_json())]))])
            }
            Operator::MergeJoin { pred } => {
                Json::obj([("MergeJoin", Json::obj([("pred", pred.to_json())]))])
            }
            Operator::Filter { preds } => {
                Json::obj([("Filter", Json::obj([("preds", preds.to_json())]))])
            }
            Operator::Sort { keys } => {
                Json::obj([("Sort", Json::obj([("keys", keys.to_json())]))])
            }
            Operator::Aggregate { group_by, aggs } => Json::obj([(
                "Aggregate",
                Json::obj([("group_by", group_by.to_json()), ("aggs", aggs.to_json())]),
            )]),
        }
    }
}

impl FromJson for Operator {
    fn from_json(j: &Json) -> Result<Operator> {
        if let Some(v) = j.get("SeqScan") {
            return Ok(Operator::SeqScan {
                table: json::field(v, "table")?,
                preds: json::field(v, "preds")?,
            });
        }
        if let Some(v) = j.get("IndexScan") {
            return Ok(Operator::IndexScan {
                table: json::field(v, "table")?,
                column: json::field(v, "column")?,
                lo: json::field(v, "lo")?,
                hi: json::field(v, "hi")?,
                residual: json::field(v, "residual")?,
                param: json::field(v, "param")?,
            });
        }
        if let Some(v) = j.get("IndexOnlyScan") {
            return Ok(Operator::IndexOnlyScan {
                table: json::field(v, "table")?,
                column: json::field(v, "column")?,
                lo: json::field(v, "lo")?,
                hi: json::field(v, "hi")?,
                param: json::field(v, "param")?,
            });
        }
        if let Some(v) = j.get("NestedLoopJoin") {
            return Ok(Operator::NestedLoopJoin { pred: json::field(v, "pred")? });
        }
        if let Some(v) = j.get("HashJoin") {
            return Ok(Operator::HashJoin { pred: json::field(v, "pred")? });
        }
        if let Some(v) = j.get("MergeJoin") {
            return Ok(Operator::MergeJoin { pred: json::field(v, "pred")? });
        }
        if let Some(v) = j.get("Filter") {
            return Ok(Operator::Filter { preds: json::field(v, "preds")? });
        }
        if let Some(v) = j.get("Sort") {
            return Ok(Operator::Sort { keys: json::field(v, "keys")? });
        }
        if let Some(v) = j.get("Aggregate") {
            return Ok(Operator::Aggregate {
                group_by: json::field(v, "group_by")?,
                aggs: json::field(v, "aggs")?,
            });
        }
        Err(BaoError::Parse("unknown physical operator variant".into()))
    }
}

/// Operator kinds for one-hot featurization. `Null` is the padding child
/// inserted by plan binarization (paper Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Aggregate = 0,
    Sort = 1,
    NestedLoopJoin = 2,
    HashJoin = 3,
    MergeJoin = 4,
    SeqScan = 5,
    IndexScan = 6,
    IndexOnlyScan = 7,
    Filter = 8,
    Null = 9,
}

/// Number of distinct [`OpKind`] values (the one-hot width).
pub const N_OP_KINDS: usize = 10;

impl OpKind {
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Aggregate => "Aggregate",
            OpKind::Sort => "Sort",
            OpKind::NestedLoopJoin => "Nested Loop",
            OpKind::HashJoin => "Hash Join",
            OpKind::MergeJoin => "Merge Join",
            OpKind::SeqScan => "Seq Scan",
            OpKind::IndexScan => "Index Scan",
            OpKind::IndexOnlyScan => "Index Only Scan",
            OpKind::Filter => "Filter",
            OpKind::Null => "null",
        }
    }
}

impl Operator {
    pub fn kind(&self) -> OpKind {
        match self {
            Operator::SeqScan { .. } => OpKind::SeqScan,
            Operator::IndexScan { .. } => OpKind::IndexScan,
            Operator::IndexOnlyScan { .. } => OpKind::IndexOnlyScan,
            Operator::NestedLoopJoin { .. } => OpKind::NestedLoopJoin,
            Operator::HashJoin { .. } => OpKind::HashJoin,
            Operator::MergeJoin { .. } => OpKind::MergeJoin,
            Operator::Filter { .. } => OpKind::Filter,
            Operator::Sort { .. } => OpKind::Sort,
            Operator::Aggregate { .. } => OpKind::Aggregate,
        }
    }

    pub fn join_algo(&self) -> Option<JoinAlgo> {
        match self {
            Operator::NestedLoopJoin { .. } => Some(JoinAlgo::NestedLoop),
            Operator::HashJoin { .. } => Some(JoinAlgo::Hash),
            Operator::MergeJoin { .. } => Some(JoinAlgo::Merge),
            _ => None,
        }
    }

    pub fn scan_kind(&self) -> Option<(usize, ScanKind)> {
        match self {
            Operator::SeqScan { table, .. } => Some((*table, ScanKind::Seq)),
            Operator::IndexScan { table, .. } => Some((*table, ScanKind::Index)),
            Operator::IndexOnlyScan { table, .. } => Some((*table, ScanKind::IndexOnly)),
            _ => None,
        }
    }
}

/// A node in a physical plan tree, annotated with optimizer estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    pub op: Operator,
    pub children: Vec<PlanNode>,
    /// Optimizer's estimated output cardinality.
    pub est_rows: f64,
    /// Optimizer's estimated cumulative cost (this node and its subtree).
    pub est_cost: f64,
}


impl ToJson for PlanNode {
    fn to_json(&self) -> Json {
        Json::obj([
            ("op", self.op.to_json()),
            ("children", self.children.to_json()),
            ("est_rows", self.est_rows.to_json()),
            ("est_cost", self.est_cost.to_json()),
        ])
    }
}

impl FromJson for PlanNode {
    fn from_json(j: &Json) -> Result<PlanNode> {
        Ok(PlanNode {
            op: json::field(j, "op")?,
            children: json::field(j, "children")?,
            est_rows: json::field(j, "est_rows")?,
            est_cost: json::field(j, "est_cost")?,
        })
    }
}

impl PlanNode {
    pub fn new(op: Operator, children: Vec<PlanNode>) -> Self {
        PlanNode { op, children, est_rows: 0.0, est_cost: 0.0 }
    }

    pub fn with_estimates(mut self, rows: f64, cost: f64) -> Self {
        self.est_rows = rows;
        self.est_cost = cost;
        self
    }

    /// FROM-list positions this subtree produces rows for, ascending.
    pub fn tables_covered(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_tables(&self, out: &mut Vec<usize>) {
        if let Some((t, _)) = self.op.scan_kind() {
            out.push(t);
        }
        for c in &self.children {
            c.collect_tables(out);
        }
    }

    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(|c| c.node_count()).sum::<usize>()
    }

    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Pre-order iterator over all nodes.
    pub fn iter(&self) -> PlanIter<'_> {
        PlanIter { stack: vec![self] }
    }

    /// The scan kind chosen for each base table, ascending by table.
    pub fn access_paths(&self) -> Vec<(usize, ScanKind)> {
        let mut v: Vec<(usize, ScanKind)> = self.iter().filter_map(|n| n.op.scan_kind()).collect();
        v.sort_unstable_by_key(|&(t, _)| t);
        v
    }

    /// The multiset of join algorithms used, in pre-order.
    pub fn join_algos(&self) -> Vec<JoinAlgo> {
        self.iter().filter_map(|n| n.op.join_algo()).collect()
    }

    /// A canonical description of the join order: for each join node in
    /// pre-order, the sorted table sets of its two inputs. Two plans with
    /// the same value join the same sub-results in the same shape
    /// (used by the §6.3 plan-change analysis).
    pub fn join_order_signature(&self) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut sig = Vec::new();
        self.collect_join_sig(&mut sig);
        sig
    }

    fn collect_join_sig(&self, sig: &mut Vec<(Vec<usize>, Vec<usize>)>) {
        if self.op.join_algo().is_some() {
            sig.push((self.children[0].tables_covered(), self.children[1].tables_covered()));
        }
        for c in &self.children {
            c.collect_join_sig(sig);
        }
    }

    /// EXPLAIN-style rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, &mut None);
        out
    }

    /// EXPLAIN ANALYZE rendering: every node's estimate beside its true
    /// output cardinality, `true_rows` in pre-order (as the executor's
    /// `node_true_rows`), and the q-error `max(e/t, t/e)` of the two with
    /// zero rows counted as one.
    pub fn explain_analyze(&self, true_rows: &[u64]) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, &mut Some(true_rows.iter()));
        out
    }

    fn explain_into(
        &self,
        out: &mut String,
        depth: usize,
        true_rows: &mut Option<std::slice::Iter<'_, u64>>,
    ) {
        use std::fmt::Write;
        for _ in 0..depth {
            out.push_str("  ");
        }
        if depth > 0 {
            out.push_str("-> ");
        }
        let label = match &self.op {
            Operator::SeqScan { table, .. } => format!("Seq Scan on #{table}"),
            Operator::IndexScan { table, column, param, .. } => {
                if param.is_some() {
                    format!("Index Scan on #{table} using {column} (parameterized)")
                } else {
                    format!("Index Scan on #{table} using {column}")
                }
            }
            Operator::IndexOnlyScan { table, column, .. } => {
                format!("Index Only Scan on #{table} using {column}")
            }
            other => other.kind().name().to_string(),
        };
        let est = self.est_rows;
        let rows = match true_rows.as_mut().and_then(Iterator::next) {
            Some(&t) => {
                format!("est rows={est:.0} true rows={t} q-error={:.2}", qerror(est, t as f64))
            }
            None => format!("rows={est:.0}"),
        };
        let _ = writeln!(out, "{label}  ({rows} cost={:.1})", self.est_cost);
        for c in &self.children {
            c.explain_into(out, depth + 1, true_rows);
        }
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Pre-order plan iterator.
pub struct PlanIter<'a> {
    stack: Vec<&'a PlanNode>,
}

impl<'a> Iterator for PlanIter<'a> {
    type Item = &'a PlanNode;

    fn next(&mut self) -> Option<&'a PlanNode> {
        let node = self.stack.pop()?;
        // Push children in reverse so iteration is left-to-right pre-order.
        for c in node.children.iter().rev() {
            self.stack.push(c);
        }
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{CmpOp, Predicate};
    use bao_storage::Value;

    fn seq(table: usize) -> PlanNode {
        PlanNode::new(Operator::SeqScan { table, preds: vec![] }, vec![])
    }

    fn join_plan() -> PlanNode {
        // Agg( HashJoin( NL(seq0, idx1), seq2 ) )
        let idx = PlanNode::new(
            Operator::IndexScan {
                table: 1,
                column: "movie_id".into(),
                lo: None,
                hi: None,
                residual: vec![],
                param: Some(ColRef::new(0, "id")),
            },
            vec![],
        );
        let nl = PlanNode::new(
            Operator::NestedLoopJoin {
                pred: JoinPred::new(ColRef::new(0, "id"), ColRef::new(1, "movie_id")),
            },
            vec![seq(0), idx],
        );
        let hj = PlanNode::new(
            Operator::HashJoin {
                pred: JoinPred::new(ColRef::new(1, "person_id"), ColRef::new(2, "id")),
            },
            vec![nl, seq(2)],
        );
        PlanNode::new(
            Operator::Aggregate { group_by: vec![], aggs: vec![AggFunc::CountStar] },
            vec![hj],
        )
    }

    #[test]
    fn tables_and_counts() {
        let p = join_plan();
        assert_eq!(p.tables_covered(), vec![0, 1, 2]);
        assert_eq!(p.node_count(), 6);
        assert_eq!(p.depth(), 4);
    }

    #[test]
    fn kinds_and_algos() {
        let p = join_plan();
        assert_eq!(p.op.kind(), OpKind::Aggregate);
        assert_eq!(p.join_algos(), vec![JoinAlgo::Hash, JoinAlgo::NestedLoop]);
        assert_eq!(
            p.access_paths(),
            vec![(0, ScanKind::Seq), (1, ScanKind::Index), (2, ScanKind::Seq)]
        );
    }

    #[test]
    fn join_order_signature_shape() {
        let p = join_plan();
        let sig = p.join_order_signature();
        assert_eq!(sig, vec![(vec![0, 1], vec![2]), (vec![0], vec![1])]);
    }

    #[test]
    fn preorder_iteration() {
        let p = join_plan();
        let kinds: Vec<OpKind> = p.iter().map(|n| n.op.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                OpKind::Aggregate,
                OpKind::HashJoin,
                OpKind::NestedLoopJoin,
                OpKind::SeqScan,
                OpKind::IndexScan,
                OpKind::SeqScan,
            ]
        );
    }

    #[test]
    fn plan_node_round_trips_through_json() {
        // Cover every operator variant at least once: the join_plan tree
        // (agg, hash/NL joins, seq/index scans) plus the remaining four.
        let mut sorted = PlanNode::new(
            Operator::Sort { keys: vec![ColRef::new(2, "id")] },
            vec![PlanNode::new(
                Operator::IndexOnlyScan {
                    table: 2,
                    column: "id".into(),
                    lo: Some(5),
                    hi: None,
                    param: None,
                },
                vec![],
            )],
        );
        sorted = PlanNode::new(
            Operator::Filter {
                preds: vec![JoinPred::new(ColRef::new(0, "a"), ColRef::new(2, "id"))],
            },
            vec![PlanNode::new(
                Operator::MergeJoin {
                    pred: JoinPred::new(ColRef::new(0, "a"), ColRef::new(2, "id")),
                },
                vec![join_plan().with_estimates(7.0, 99.5), sorted],
            )],
        );
        let j = sorted.to_json();
        let back = PlanNode::from_json(&j).expect("decode plan");
        assert_eq!(back, sorted);
        // Byte-stable: encode → decode → encode is the identity.
        assert_eq!(back.to_json().to_string(), j.to_string());
        // Unknown variants are rejected, not silently mangled.
        let bogus = Json::obj([("TeleportScan", Json::obj([]))]);
        assert!(Operator::from_json(&bogus).is_err());
    }

    #[test]
    fn explain_rendering() {
        let p = join_plan().with_estimates(1.0, 123.4);
        let text = p.explain();
        assert!(text.starts_with("Aggregate"), "{text}");
        assert!(text.contains("-> Hash Join"));
        assert!(text.contains("parameterized"));
        assert!(text.contains("cost=123.4"));
    }

    #[test]
    fn scan_with_predicate_kind() {
        let s = PlanNode::new(
            Operator::SeqScan {
                table: 0,
                preds: vec![Predicate::new(ColRef::new(0, "x"), CmpOp::Eq, Value::Int(1))],
            },
            vec![],
        );
        assert_eq!(s.op.scan_kind(), Some((0, ScanKind::Seq)));
        assert_eq!(s.op.join_algo(), None);
    }

    #[test]
    fn op_kind_indices_are_dense() {
        let kinds = [
            OpKind::Aggregate,
            OpKind::Sort,
            OpKind::NestedLoopJoin,
            OpKind::HashJoin,
            OpKind::MergeJoin,
            OpKind::SeqScan,
            OpKind::IndexScan,
            OpKind::IndexOnlyScan,
            OpKind::Filter,
            OpKind::Null,
        ];
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(kinds.len(), N_OP_KINDS);
    }
}
