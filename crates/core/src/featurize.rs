//! Plan-tree vectorization (paper §3.1.1, Figures 3 and 4).
//!
//! Each plan node becomes `[one-hot operator | log-cardinality | log-cost
//! | cache fraction?]`; non-binary nodes are binarized by inserting
//! explicit null children. The encoding is deliberately schema-agnostic:
//! no table or column identities appear, so schema changes never
//! invalidate the model (paper §3.1.1 "advantages").

use bao_nn::FeatTree;
use bao_plan::{OpKind, PlanNode, Query, N_OP_KINDS};
use bao_storage::{BufferPool, Database};

/// Converts optimizer plans into [`FeatTree`]s.
#[derive(Debug, Clone, Copy)]
pub struct Featurizer {
    /// Append each scan node's cached heap fraction (paper §3.1.1's
    /// optional cache augmentation; evaluated in §6.2 warm-cache runs).
    pub cache_features: bool,
}

/// Scale factors keeping log features in a small range for the network.
const ROWS_SCALE: f32 = 1.0 / 20.0;
const COST_SCALE: f32 = 1.0 / 25.0;

impl Featurizer {
    pub fn new(cache_features: bool) -> Featurizer {
        Featurizer { cache_features }
    }

    /// Input width of the value model this featurizer feeds.
    pub fn input_dim(&self) -> usize {
        N_OP_KINDS + 2 + usize::from(self.cache_features)
    }

    /// Vectorize one plan. `pool` supplies cache state; pass `None` (or
    /// set `cache_features: false`) for cache-blind featurization.
    pub fn featurize(
        &self,
        plan: &PlanNode,
        query: &Query,
        db: &Database,
        pool: Option<&BufferPool>,
    ) -> FeatTree {
        let mut b = Builder {
            f: *self,
            query,
            db,
            pool,
            nodes: Vec::with_capacity(plan.node_count() * 2),
            left: Vec::new(),
            right: Vec::new(),
        };
        b.visit(Some(plan));
        FeatTree::new(self.input_dim(), b.nodes, b.left, b.right)
    }

    fn node_vec(
        &self,
        node: &PlanNode,
        query: &Query,
        db: &Database,
        pool: Option<&BufferPool>,
    ) -> Vec<f32> {
        let mut v = vec![0.0f32; self.input_dim()];
        v[node.op.kind().index()] = 1.0;
        v[N_OP_KINDS] = (node.est_rows.max(0.0).ln_1p() as f32) * ROWS_SCALE;
        // Hinted-off operators carry disable_cost; cap so the feature
        // stays informative rather than saturated.
        v[N_OP_KINDS + 1] = (node.est_cost.max(0.0).ln_1p() as f32) * COST_SCALE;
        if self.cache_features {
            v[N_OP_KINDS + 2] = self.cache_fraction(node, query, db, pool) as f32;
        }
        v
    }

    fn null_vec(&self) -> Vec<f32> {
        let mut v = vec![0.0f32; self.input_dim()];
        v[OpKind::Null.index()] = 1.0;
        v
    }

    fn cache_fraction(
        &self,
        node: &PlanNode,
        query: &Query,
        db: &Database,
        pool: Option<&BufferPool>,
    ) -> f64 {
        let (Some(pool), Some((from_idx, _))) = (pool, node.op.scan_kind()) else {
            return 0.0;
        };
        let Some(tref) = query.tables.get(from_idx) else { return 0.0 };
        let Ok(stored) = db.by_name(&tref.table) else { return 0.0 };
        pool.cached_fraction(stored.heap_object, stored.table.n_pages())
    }
}

struct Builder<'a> {
    f: Featurizer,
    query: &'a Query,
    db: &'a Database,
    pool: Option<&'a BufferPool>,
    nodes: Vec<Vec<f32>>,
    left: Vec<i32>,
    right: Vec<i32>,
}

impl Builder<'_> {
    /// Pre-order visit; `None` emits a null padding node. Returns the
    /// index of the emitted node.
    fn visit(&mut self, node: Option<&PlanNode>) -> i32 {
        let my = self.nodes.len() as i32;
        match node {
            None => {
                self.nodes.push(self.f.null_vec());
                self.left.push(-1);
                self.right.push(-1);
            }
            Some(n) => {
                self.nodes.push(self.f.node_vec(n, self.query, self.db, self.pool));
                self.left.push(-1);
                self.right.push(-1);
                match n.children.len() {
                    0 => {}
                    1 => {
                        // Binarization: single children get a null sibling
                        // (paper Figure 3).
                        let l = self.visit(Some(&n.children[0]));
                        let r = self.visit(None);
                        self.left[my as usize] = l;
                        self.right[my as usize] = r;
                    }
                    2 => {
                        let l = self.visit(Some(&n.children[0]));
                        let r = self.visit(Some(&n.children[1]));
                        self.left[my as usize] = l;
                        self.right[my as usize] = r;
                    }
                    more => {
                        // Left-deep split for >2 children (paper Figure 3's
                        // multi-union case). The optimizer never emits
                        // these, but featurization stays total.
                        debug_assert!(more > 2);
                        let l = self.visit(Some(&n.children[0]));
                        let rest = PlanNode {
                            op: n.op.clone(),
                            children: n.children[1..].to_vec(),
                            est_rows: n.est_rows,
                            est_cost: n.est_cost,
                        };
                        let r = self.visit(Some(&rest));
                        self.left[my as usize] = l;
                        self.right[my as usize] = r;
                    }
                }
            }
        }
        my
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_plan::{AggFunc, ColRef, JoinPred, Operator, TableRef};
    use bao_storage::{ColumnDef, DataType, Schema, Table, Value};

    fn db_and_query() -> (Database, Query) {
        let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("id", DataType::Int)]));
        for i in 0..5_000 {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        let mut db = Database::new();
        db.create_table(t).unwrap();
        let query = Query {
            tables: vec![TableRef::new("t"), TableRef::aliased("t", "u")],
            ..Default::default()
        };
        (db, query)
    }

    fn join_plan() -> PlanNode {
        let s0 = PlanNode::new(Operator::SeqScan { table: 0, preds: vec![] }, vec![])
            .with_estimates(100.0, 50.0);
        let s1 = PlanNode::new(Operator::SeqScan { table: 1, preds: vec![] }, vec![])
            .with_estimates(200.0, 80.0);
        let hj = PlanNode::new(
            Operator::HashJoin { pred: JoinPred::new(ColRef::new(0, "id"), ColRef::new(1, "id")) },
            vec![s0, s1],
        )
        .with_estimates(300.0, 200.0);
        PlanNode::new(
            Operator::Aggregate { group_by: vec![], aggs: vec![AggFunc::CountStar] },
            vec![hj],
        )
        .with_estimates(1.0, 210.0)
    }

    #[test]
    fn binarizes_single_child_nodes() {
        let (db, q) = db_and_query();
        let f = Featurizer::new(false);
        let tree = f.featurize(&join_plan(), &q, &db, None);
        // Aggregate(1 child) -> +1 null; HashJoin(2) ; 2 scans.
        // nodes: agg, hj, s0, s1, null = 5
        assert_eq!(tree.n_nodes(), 5);
        assert!(tree.is_well_formed());
        // every node has 0 or 2 children
        for i in 0..tree.n_nodes() {
            assert_eq!(tree.left[i] >= 0, tree.right[i] >= 0, "node {i} is one-sided");
        }
    }

    #[test]
    fn one_hot_and_estimates_encoded() {
        let (db, q) = db_and_query();
        let f = Featurizer::new(false);
        let tree = f.featurize(&join_plan(), &q, &db, None);
        assert_eq!(tree.feat_dim, N_OP_KINDS + 2);
        let root = tree.feat(0);
        assert_eq!(root[OpKind::Aggregate.index()], 1.0);
        assert_eq!(root.iter().filter(|&&x| x == 1.0).count(), 1);
        // rows feature of the join node reflects 300 rows
        let hj = tree.feat(1);
        assert_eq!(hj[OpKind::HashJoin.index()], 1.0);
        assert!((hj[N_OP_KINDS] - (301.0f32).ln() * ROWS_SCALE).abs() < 1e-3);
        assert!(hj[N_OP_KINDS + 1] > 0.0);
    }

    #[test]
    fn null_nodes_one_hot() {
        let (db, q) = db_and_query();
        let f = Featurizer::new(false);
        let tree = f.featurize(&join_plan(), &q, &db, None);
        // last node (pre-order: agg, hj, s0, s1 then null sibling of hj)
        let null_idx = tree.right[0] as usize;
        let nv = tree.feat(null_idx);
        assert_eq!(nv[OpKind::Null.index()], 1.0);
        assert_eq!(nv[N_OP_KINDS], 0.0);
        assert_eq!(nv[N_OP_KINDS + 1], 0.0);
    }

    #[test]
    fn cache_feature_reflects_pool() {
        let (db, q) = db_and_query();
        let f = Featurizer::new(true);
        assert_eq!(f.input_dim(), N_OP_KINDS + 3);
        let heap = db.by_name("t").unwrap().heap_object;
        let n_pages = db.by_name("t").unwrap().table.n_pages();
        let mut pool = BufferPool::new(1_000);
        pool.prewarm(heap, n_pages / 2);
        let tree = f.featurize(&join_plan(), &q, &db, Some(&pool));
        // scan nodes carry ~0.5; join/agg nodes carry 0
        let cache_vals: Vec<f32> =
            (0..tree.n_nodes()).map(|i| tree.feat(i)[N_OP_KINDS + 2]).collect();
        assert_eq!(cache_vals[0], 0.0, "aggregate has no cache fraction");
        let scans: Vec<f32> = cache_vals.iter().copied().filter(|&v| v > 0.0).collect();
        assert_eq!(scans.len(), 2);
        for v in scans {
            assert!((v - 0.5).abs() < 0.2, "{v}");
        }
        // without a pool the feature is zero
        let tree2 = f.featurize(&join_plan(), &q, &db, None);
        assert!((0..tree2.n_nodes()).all(|i| tree2.feat(i)[N_OP_KINDS + 2] == 0.0));
    }

    #[test]
    fn schema_agnostic_dimension() {
        // Two different databases/queries produce identically-shaped
        // features — the property that makes Bao robust to schema change.
        let (db, q) = db_and_query();
        let f = Featurizer::new(false);
        let a = f.featurize(&join_plan(), &q, &db, None);
        let mut t2 = Table::new("other", Schema::new(vec![ColumnDef::new("x", DataType::Int)]));
        t2.insert(vec![Value::Int(1)]).unwrap();
        let mut db2 = Database::new();
        db2.create_table(t2).unwrap();
        let q2 = Query { tables: vec![TableRef::new("other")], ..Default::default() };
        let leaf = PlanNode::new(Operator::SeqScan { table: 0, preds: vec![] }, vec![])
            .with_estimates(1.0, 1.0);
        let b = f.featurize(&leaf, &q2, &db2, None);
        assert_eq!(a.feat_dim, b.feat_dim);
    }
}
