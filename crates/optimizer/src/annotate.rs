//! Estimate annotation for externally constructed plans.
//!
//! The learned-optimizer baselines (Neo/DQ, `bao-baselines`) build plan
//! trees outside the cost-based planner but still featurize them with
//! cardinality and cost estimates (paper Figure 4's vectors). This module
//! walks any well-formed plan bottom-up and fills `est_rows`/`est_cost`
//! using the same estimator and cost formulas the planner uses.

use crate::cost::CostParams;
use bao_common::Result;
use bao_plan::{Operator, PlanNode, Query};
use bao_stats::{resolve_predicate, Estimator, StatsCatalog};
use bao_storage::Database;

/// Annotate `plan` in place with estimated rows and cumulative costs.
pub fn annotate_estimates(
    plan: &mut PlanNode,
    query: &Query,
    db: &Database,
    cat: &StatsCatalog,
    est: &dyn Estimator,
    params: &CostParams,
) -> Result<()> {
    walk(plan, query, db, cat, est, params)?;
    Ok(())
}

/// Returns (rows, cumulative cost, rescan cost).
fn walk(
    node: &mut PlanNode,
    query: &Query,
    db: &Database,
    cat: &StatsCatalog,
    est: &dyn Estimator,
    params: &CostParams,
) -> Result<(f64, f64, f64)> {
    let mut child_stats = Vec::with_capacity(node.children.len());
    for c in &mut node.children {
        child_stats.push(walk(c, query, db, cat, est, params)?);
    }
    let (rows, cost, rescan) = match &node.op {
        Operator::SeqScan { table, preds } => {
            let tref = &query.tables[*table];
            let stored = db.by_name(&tref.table)?;
            let resolved: Vec<_> =
                preds.iter().map(|p| resolve_predicate(&stored.table, p)).collect();
            let base = cat.row_count(&tref.table);
            let sel = est.scan_selectivity(cat, &tref.table, &resolved);
            let rows = (base * sel).max(1.0);
            let cost = params.seq_scan(stored.table.n_pages() as f64, base, preds.len());
            let rescan = base * params.cpu_tuple_cost;
            (rows, cost, rescan)
        }
        Operator::IndexScan { table, param, .. } | Operator::IndexOnlyScan { table, param, .. } => {
            let index_only = matches!(node.op, Operator::IndexOnlyScan { .. });
            let residual_n = match &node.op {
                Operator::IndexScan { residual, .. } => residual.len(),
                _ => 0,
            };
            let tref = &query.tables[*table];
            let stored = db.by_name(&tref.table)?;
            let base = cat.row_count(&tref.table);
            if param.is_some() {
                // Inner of a parameterized nested loop: per-lookup stats
                // (the parent join multiplies by outer rows).
                let per_key = (base / base.max(1.0)).max(1.0);
                let cost = params.param_index_lookup(2.0, per_key, !index_only);
                (per_key, cost, cost)
            } else {
                let preds = query.predicates_on(*table);
                let resolved: Vec<_> =
                    preds.iter().map(|p| resolve_predicate(&stored.table, p)).collect();
                let sel = est.scan_selectivity(cat, &tref.table, &resolved);
                let rows = (base * sel).max(1.0);
                let cost = if index_only {
                    params.index_only_scan(2.0, base / 256.0, base, sel)
                } else {
                    params.index_scan(2.0, base / 256.0, base, sel, rows, residual_n)
                };
                (rows, cost, rows * params.cpu_tuple_cost)
            }
        }
        Operator::NestedLoopJoin { pred }
        | Operator::HashJoin { pred }
        | Operator::MergeJoin { pred } => {
            let (l_rows, l_cost, l_rescan) = child_stats[0];
            let (r_rows, r_cost, r_rescan) = child_stats[1];
            let jsel = est.join_selectivity(
                cat,
                &query.tables[pred.left.table].table,
                &pred.left.column,
                &query.tables[pred.right.table].table,
                &pred.right.column,
            );
            let out = (l_rows * r_rows * jsel).max(1.0);
            let cost = match node.op {
                Operator::HashJoin { .. } => {
                    l_cost + r_cost + params.hash_join(l_rows, r_rows, out)
                }
                Operator::MergeJoin { .. } => {
                    l_cost + r_cost + params.merge_join(l_rows, r_rows, out)
                }
                _ => {
                    // Parameterized inner: per-lookup cost times outer rows.
                    let param_inner = matches!(
                        node.children[1].op,
                        Operator::IndexScan { param: Some(_), .. }
                            | Operator::IndexOnlyScan { param: Some(_), .. }
                    );
                    if param_inner {
                        l_cost + l_rows * r_cost + out * params.cpu_tuple_cost
                    } else {
                        l_cost + params.nested_loop(l_rows, r_cost, r_rescan, out)
                    }
                }
            };
            (out, cost, l_rescan + r_rescan + (cost - l_cost - r_cost).max(0.0))
        }
        Operator::Filter { preds } => {
            let (rows, cost, rescan) = child_stats[0];
            let mut sel = 1.0;
            for pr in preds {
                sel *= est.join_selectivity(
                    cat,
                    &query.tables[pr.left.table].table,
                    &pr.left.column,
                    &query.tables[pr.right.table].table,
                    &pr.right.column,
                );
            }
            let cpu = rows * preds.len() as f64 * params.cpu_operator_cost;
            ((rows * sel).max(1.0), cost + cpu, rescan + cpu)
        }
        Operator::Sort { .. } => {
            let (rows, cost, rescan) = child_stats[0];
            (rows, cost + params.sort(rows), rescan + params.sort(rows))
        }
        Operator::Aggregate { group_by, .. } => {
            let (rows, cost, _) = child_stats[0];
            let groups = if group_by.is_empty() {
                1.0
            } else {
                group_by
                    .iter()
                    .map(|c| {
                        cat.stats(&query.tables[c.table].table)
                            .map(|s| s.n_distinct(&c.column))
                            .unwrap_or(1.0)
                    })
                    .product::<f64>()
                    .min(rows)
                    .max(1.0)
            };
            (groups, cost + params.aggregate(rows, groups), 0.0)
        }
    };
    node.est_rows = rows;
    node.est_cost = cost;
    Ok((rows, cost, rescan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::HintSet;
    use crate::optimizer::Optimizer;
    use bao_sql::parse_query;
    use bao_storage::{ColumnDef, DataType, Schema, Table, Value};

    fn setup() -> (Database, StatsCatalog) {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ]),
        );
        for i in 0..10_000 {
            t.insert(vec![Value::Int(i), Value::Int(i % 50)]).unwrap();
        }
        let mut u = Table::new("u", Schema::new(vec![ColumnDef::new("fk", DataType::Int)]));
        for i in 0..30_000i64 {
            u.insert(vec![Value::Int(i % 10_000)]).unwrap();
        }
        let mut db = Database::new();
        db.create_table(t).unwrap();
        db.create_table(u).unwrap();
        db.create_index("t", "id").unwrap();
        db.create_index("u", "fk").unwrap();
        let cat = StatsCatalog::analyze(&db, 500, 1);
        (db, cat)
    }

    #[test]
    fn annotation_matches_planner_scale() {
        let (db, cat) = setup();
        let q = parse_query("SELECT COUNT(*) FROM t, u WHERE t.id = u.fk AND t.v = 3").unwrap();
        let opt = Optimizer::postgres();
        let planned = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        let mut replanned = planned.root.clone();
        fn wipe(n: &mut PlanNode) {
            n.est_rows = 0.0;
            n.est_cost = 0.0;
            for c in &mut n.children {
                wipe(c);
            }
        }
        wipe(&mut replanned);
        annotate_estimates(&mut replanned, &q, &db, &cat, opt.estimator(), &opt.params).unwrap();
        // Re-annotated estimates are within an order of magnitude of the
        // planner's own numbers (formulas differ slightly for param
        // inners).
        for (a, b) in planned.root.iter().zip(replanned.iter()) {
            assert!(b.est_rows >= 1.0);
            assert!(b.est_cost > 0.0);
            let ratio = (a.est_rows.max(1.0) / b.est_rows.max(1.0))
                .max(b.est_rows.max(1.0) / a.est_rows.max(1.0));
            assert!(ratio < 50.0, "rows {} vs {}", a.est_rows, b.est_rows);
        }
    }

    #[test]
    fn annotates_every_node() {
        let (db, cat) = setup();
        let q = parse_query("SELECT COUNT(*) FROM t WHERE t.v = 1").unwrap();
        let opt = Optimizer::postgres();
        let mut plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap().root;
        annotate_estimates(&mut plan, &q, &db, &cat, opt.estimator(), &opt.params).unwrap();
        for n in plan.iter() {
            assert!(n.est_cost > 0.0, "{:?}", n.op.kind());
        }
    }
}
