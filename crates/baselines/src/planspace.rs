//! Random sampling of the full physical plan space.
//!
//! Produces executable plans: random (connected) join orders, random join
//! algorithms, random access paths, parameterized index inners where an
//! index permits, sorts inserted under merge joins, and the query's
//! aggregate/order-by on top.

use bao_common::{BaoError, Result, Rng, Xoshiro256};
use bao_plan::{JoinPred, Operator, PlanNode, Query, SelectItem};
use bao_storage::Database;

/// Sample one random, semantically valid plan for `query`.
pub fn random_plan(query: &Query, db: &Database, rng: &mut Xoshiro256) -> Result<PlanNode> {
    let n = query.tables.len();
    if n == 0 {
        return Err(BaoError::InvalidQuery("empty FROM list".into()));
    }
    // Start with a random scan per relation.
    let mut frags: Vec<(Vec<usize>, PlanNode)> =
        (0..n).map(|t| (vec![t], random_scan(query, db, t, rng))).collect();

    // Randomly merge connected fragments until one remains.
    while frags.len() > 1 {
        let mut pairs: Vec<(usize, usize, Vec<JoinPred>)> = Vec::new();
        for i in 0..frags.len() {
            for j in 0..frags.len() {
                if i == j {
                    continue;
                }
                let preds = connecting(query, &frags[i].0, &frags[j].0);
                if !preds.is_empty() {
                    pairs.push((i, j, preds));
                }
            }
        }
        let Some((i, j, preds)) = rng.choose(&pairs).cloned() else {
            return Err(BaoError::Planning("disconnected join graph".into()));
        };
        let (right_tables, right) = frags[j].clone();
        let (left_tables, left) = frags[i].clone();
        let mut joined = random_join(query, db, left, right, &right_tables, &preds[0], rng);
        if preds.len() > 1 {
            // Cyclic graphs: extra connecting edges filter the join.
            joined = PlanNode::new(Operator::Filter { preds: preds[1..].to_vec() }, vec![joined]);
        }
        let mut tables = left_tables;
        tables.extend(right_tables);
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        frags.remove(hi);
        frags.remove(lo);
        frags.push((tables, joined));
    }
    let mut root = frags.pop().expect("one fragment").1;

    // Aggregation / ordering on top, mirroring the planner.
    let aggs: Vec<_> = query
        .select
        .iter()
        .filter_map(|s| match s {
            SelectItem::Agg(a) => Some(a.clone()),
            _ => None,
        })
        .collect();
    if !aggs.is_empty() || !query.group_by.is_empty() {
        root = PlanNode::new(
            Operator::Aggregate { group_by: query.group_by.clone(), aggs },
            vec![root],
        );
    }
    if !query.order_by.is_empty() {
        root = PlanNode::new(Operator::Sort { keys: query.order_by.clone() }, vec![root]);
    }
    Ok(root)
}

fn connecting(query: &Query, a: &[usize], b: &[usize]) -> Vec<JoinPred> {
    let mut out = Vec::new();
    for j in &query.joins {
        if a.contains(&j.left.table) && b.contains(&j.right.table) {
            out.push(j.clone());
        } else if a.contains(&j.right.table) && b.contains(&j.left.table) {
            out.push(JoinPred::new(j.right.clone(), j.left.clone()));
        }
    }
    out
}

fn random_scan(query: &Query, db: &Database, table: usize, rng: &mut Xoshiro256) -> PlanNode {
    let preds: Vec<_> = query.predicates_on(table).into_iter().cloned().collect();
    let stored = db.by_name(&query.tables[table].table).ok();
    // Candidate index scans: any index over a filtered column.
    if let Some(st) = stored {
        let usable: Vec<String> = st
            .indexes
            .iter()
            .filter(|i| {
                preds.iter().any(|p| p.col.column == i.index.column && p.op != bao_plan::CmpOp::Ne)
            })
            .map(|i| i.index.column.clone())
            .collect();
        if !usable.is_empty() && rng.gen_bool(0.5) {
            let col = rng.choose(&usable).expect("non-empty").clone();
            let (lo, hi) = bounds_for(&preds, &col);
            let residual: Vec<_> = preds.iter().filter(|p| p.col.column != col).cloned().collect();
            return PlanNode::new(
                Operator::IndexScan { table, column: col, lo, hi, residual, param: None },
                vec![],
            );
        }
    }
    PlanNode::new(Operator::SeqScan { table, preds }, vec![])
}

fn bounds_for(preds: &[bao_plan::Predicate], col: &str) -> (Option<i64>, Option<i64>) {
    use bao_plan::CmpOp;
    let mut lo = None;
    let mut hi = None;
    for p in preds.iter().filter(|p| p.col.column == col) {
        let Some(x) = p.value.as_int() else { continue };
        match p.op {
            CmpOp::Eq => {
                lo = Some(x);
                hi = Some(x);
            }
            CmpOp::Gt => lo = Some(lo.map_or(x + 1, |l: i64| l.max(x + 1))),
            CmpOp::Ge => lo = Some(lo.map_or(x, |l: i64| l.max(x))),
            CmpOp::Lt => hi = Some(hi.map_or(x - 1, |h: i64| h.min(x - 1))),
            CmpOp::Le => hi = Some(hi.map_or(x, |h: i64| h.min(x))),
            CmpOp::Ne => {}
        }
    }
    (lo, hi)
}

fn random_join(
    query: &Query,
    db: &Database,
    left: PlanNode,
    right: PlanNode,
    right_tables: &[usize],
    pred: &JoinPred,
    rng: &mut Xoshiro256,
) -> PlanNode {
    // Parameterized nested loop possible when the right side is a single
    // base relation with an index on the join key.
    let param_possible = right_tables.len() == 1
        && db
            .by_name(&query.tables[pred.right.table].table)
            .ok()
            .and_then(|st| st.index_on(&pred.right.column).map(|_| ()))
            .is_some();
    let choice = rng.gen_range(0..100);
    if param_possible && choice < 35 {
        let table = right_tables[0];
        let residual: Vec<_> = query.predicates_on(table).into_iter().cloned().collect();
        let inner = PlanNode::new(
            Operator::IndexScan {
                table,
                column: pred.right.column.clone(),
                lo: None,
                hi: None,
                residual,
                param: Some(pred.left.clone()),
            },
            vec![],
        );
        return PlanNode::new(Operator::NestedLoopJoin { pred: pred.clone() }, vec![left, inner]);
    }
    match choice % 3 {
        0 => PlanNode::new(Operator::HashJoin { pred: pred.clone() }, vec![left, right]),
        1 => {
            let sl = PlanNode::new(Operator::Sort { keys: vec![pred.left.clone()] }, vec![left]);
            let sr = PlanNode::new(Operator::Sort { keys: vec![pred.right.clone()] }, vec![right]);
            PlanNode::new(Operator::MergeJoin { pred: pred.clone() }, vec![sl, sr])
        }
        _ => {
            // Naive nested loop — the catastrophic corner of the space an
            // unrestricted learner must learn to avoid.
            PlanNode::new(Operator::NestedLoopJoin { pred: pred.clone() }, vec![left, right])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::rng_from_seed;
    use bao_workloads::imdb::build_imdb_database;

    fn setup() -> (Database, Query) {
        let db = build_imdb_database(0.05, 7).unwrap();
        let q = bao_sql::parse_query(
            "SELECT COUNT(*) FROM title t, cast_info ci, movie_companies mc \
             WHERE t.id = ci.movie_id AND t.id = mc.movie_id AND t.production_year > 2000",
        )
        .unwrap();
        (db, q)
    }

    #[test]
    fn random_plans_are_valid_and_varied() {
        let (db, q) = setup();
        let mut rng = rng_from_seed(1);
        let mut shapes = std::collections::HashSet::new();
        for _ in 0..30 {
            let plan = random_plan(&q, &db, &mut rng).unwrap();
            assert_eq!(plan.tables_covered(), vec![0, 1, 2]);
            assert_eq!(plan.op.kind(), bao_plan::OpKind::Aggregate);
            shapes.insert(format!("{:?} {:?}", plan.join_algos(), plan.access_paths()));
        }
        assert!(shapes.len() >= 5, "only {} distinct shapes", shapes.len());
    }

    #[test]
    fn random_plans_execute_correctly() {
        use bao_exec::{execute, ChargeRates};
        use bao_opt::Optimizer;
        use bao_stats::StatsCatalog;
        use bao_storage::BufferPool;
        let (db, q) = setup();
        let cat = StatsCatalog::analyze(&db, 300, 1);
        let opt = Optimizer::postgres();
        let reference = {
            let plan = opt.plan(&q, &db, &cat, bao_opt::HintSet::all_enabled()).unwrap();
            let mut pool = BufferPool::new(512);
            execute(&plan.root, &q, &db, &mut pool, &opt.params, &ChargeRates::default())
                .unwrap()
                .output
        };
        let mut rng = rng_from_seed(2);
        for _ in 0..10 {
            let plan = random_plan(&q, &db, &mut rng).unwrap();
            let mut pool = BufferPool::new(512);
            let m =
                execute(&plan, &q, &db, &mut pool, &opt.params, &ChargeRates::default()).unwrap();
            assert_eq!(m.output, reference, "plan produced wrong answer:\n{plan}");
        }
    }

    #[test]
    fn single_table_query() {
        let (db, _) = setup();
        let q = bao_sql::parse_query("SELECT COUNT(*) FROM title WHERE production_year = 2001")
            .unwrap();
        let mut rng = rng_from_seed(3);
        let plan = random_plan(&q, &db, &mut rng).unwrap();
        assert_eq!(plan.tables_covered(), vec![0]);
    }

    #[test]
    fn disconnected_query_errors() {
        let (db, _) = setup();
        let q = bao_sql::parse_query("SELECT COUNT(*) FROM title t, person p").unwrap();
        let mut rng = rng_from_seed(4);
        assert!(random_plan(&q, &db, &mut rng).is_err());
    }
}
