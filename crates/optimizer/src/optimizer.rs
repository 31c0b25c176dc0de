//! The top-level optimizer: profiles, plan assembly, planning-effort
//! accounting.

use crate::access::{base_relations, Penalties, PlannerCtx};
use crate::cost::CostParams;
use crate::hints::HintSet;
use crate::join::Lattice;
use bao_common::{BaoError, Result};
use bao_plan::{AggFunc, Operator, PlanNode, Query, SelectItem};
use bao_stats::{Estimator, PostgresEstimator, SampleEstimator, StatsCatalog};
use bao_storage::Database;

/// Which traditional optimizer this instance emulates (paper §6.1's two
/// baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerProfile {
    /// Histogram + attribute-independence estimation: PostgreSQL-grade.
    PostgresLike,
    /// Sample/frequency-based estimation: commercial-system-grade.
    ComSysLike,
}

/// A planned query: the physical plan plus the abstract planning effort
/// spent producing it (converted to simulated optimization time by
/// `bao-cloud`).
#[derive(Debug, Clone)]
pub struct PlanOutput {
    pub root: PlanNode,
    pub work: u64,
}

/// A cost-based optimizer instance.
pub struct Optimizer {
    pub profile: OptimizerProfile,
    pub params: CostParams,
    estimator: Box<dyn Estimator>,
}

impl std::fmt::Debug for Optimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Optimizer").field("profile", &self.profile).finish()
    }
}

impl Optimizer {
    /// PostgreSQL-like: independence-assumption estimation, stock costs.
    pub fn postgres() -> Optimizer {
        Optimizer {
            profile: OptimizerProfile::PostgresLike,
            params: CostParams::default(),
            estimator: Box::new(PostgresEstimator),
        }
    }

    /// Commercial-system-like: sample-based estimation with much lower
    /// q-error, and a cost model tuned for modern storage (lower random
    /// I/O penalty).
    pub fn comsys() -> Optimizer {
        Optimizer {
            profile: OptimizerProfile::ComSysLike,
            params: CostParams { random_page_cost: 2.0, ..CostParams::default() },
            estimator: Box::new(SampleEstimator),
        }
    }

    pub fn estimator(&self) -> &dyn Estimator {
        self.estimator.as_ref()
    }

    /// Plan `query` under `hints`: the one-arm case of
    /// [`Optimizer::plan_arms`]. The returned plan is always executable:
    /// hints discourage operators (via `disable_cost`) rather than
    /// removing them.
    pub fn plan(
        &self,
        query: &Query,
        db: &Database,
        cat: &StatsCatalog,
        hints: HintSet,
    ) -> Result<PlanOutput> {
        self.plan_arms(query, db, cat, &[hints])?
            .pop()
            .ok_or_else(|| BaoError::Planning("one arm planned, none returned".into()))
    }

    /// Plan `query` under every hint set of `arms`, in order. Everything
    /// a hint set cannot change — relations, row estimates, scan and join
    /// alternatives and the order they are priced in, the aggregate and
    /// sort on top, `work` — is worked out once; each arm is then a
    /// cost-only pass over that, and one tree. Every output is
    /// bit-identical to planning that arm alone.
    pub fn plan_arms(
        &self,
        query: &Query,
        db: &Database,
        cat: &StatsCatalog,
        arms: &[HintSet],
    ) -> Result<Vec<PlanOutput>> {
        let p = &self.params;
        let ctx = PlannerCtx { query, db, cat, est: self.estimator.as_ref(), params: p };
        let rels = base_relations(&ctx)?;
        let lattice = Lattice::build(&ctx, &rels)?;
        let mut rows = lattice.rows();

        // Aggregation above the join tree: its groups and cost.
        let aggs: Vec<AggFunc> = query
            .select
            .iter()
            .filter_map(|s| match s {
                SelectItem::Agg(a) => Some(a.clone()),
                SelectItem::Column(_) => None,
            })
            .collect();
        let aggregate = (!aggs.is_empty() || !query.group_by.is_empty()).then(|| {
            let groups = if query.group_by.is_empty() {
                1.0
            } else {
                let nd: f64 = query
                    .group_by
                    .iter()
                    .map(|c| {
                        cat.stats(&query.tables[c.table].table)
                            .map(|s| s.n_distinct(&c.column))
                            .unwrap_or(1.0)
                    })
                    .product();
                nd.min(rows).max(1.0)
            };
            let cost = p.aggregate(rows, groups);
            rows = groups;
            (groups, cost)
        });
        // Final ordering.
        let sort = (!query.order_by.is_empty()).then(|| p.sort(rows));

        let mut best = Vec::new();
        arms.iter()
            .map(|&hints| {
                let pens = Penalties { hints, disable_cost: p.disable_cost };
                lattice.price(&pens, &mut best)?;
                let mut root = lattice.tree(&best, &pens);
                let mut cost = root.est_cost;
                if let Some((groups, agg_cost)) = aggregate {
                    cost += agg_cost;
                    let op = Operator::Aggregate {
                        group_by: query.group_by.clone(),
                        aggs: aggs.clone(),
                    };
                    root = PlanNode::new(op, vec![root]).with_estimates(groups, cost);
                }
                if let Some(sort_cost) = sort {
                    cost += sort_cost;
                    root =
                        PlanNode::new(Operator::Sort { keys: query.order_by.clone() }, vec![root])
                            .with_estimates(rows, cost);
                }

                // Debug builds (and therefore every test run) verify each
                // arm's raw plan, including hint consistency: the raw cost
                // still carries any disable_cost penalty, which is what
                // lets the verifier tell penalty-free plans from
                // penalized ones.
                #[cfg(debug_assertions)]
                bao_plan::verify::verify_with_hints(
                    &root,
                    query,
                    db,
                    &hints.check(p.disable_cost),
                )?;

                Ok(PlanOutput { root, work: lattice.work })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::rng_from_seed;
    use bao_common::Rng;
    use bao_plan::{JoinAlgo, OpKind};
    use bao_sql::parse_query;
    use bao_storage::{ColumnDef, DataType, Schema, Table, Value};

    /// A small star schema with a skewed fact table and correlated
    /// dimension attributes — enough to make the independence assumption
    /// misestimate.
    fn setup() -> (Database, StatsCatalog) {
        let mut rng = rng_from_seed(99);
        let mut title = Table::new(
            "title",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("kind", DataType::Int),
                ColumnDef::new("year", DataType::Int),
            ]),
        );
        for i in 0..20_000i64 {
            let kind = if i % 100 < 95 { 1 } else { 2 };
            let year = if kind == 2 { 2010 } else { 1950 + (i % 60) };
            title.insert(vec![Value::Int(i), Value::Int(kind), Value::Int(year)]).unwrap();
        }
        let mut ci = Table::new(
            "cast_info",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("movie_id", DataType::Int),
                ColumnDef::new("role", DataType::Int),
            ]),
        );
        for i in 0..100_000i64 {
            // Zipf-ish: popular titles get most cast entries.
            let m = (rng.gen_f64().powi(3) * 20_000.0) as i64;
            ci.insert(vec![Value::Int(i), Value::Int(m.min(19_999)), Value::Int(i % 10)]).unwrap();
        }
        let mut db = Database::new();
        db.create_table(title).unwrap();
        db.create_table(ci).unwrap();
        db.create_index("title", "id").unwrap();
        db.create_index("title", "year").unwrap();
        db.create_index("cast_info", "movie_id").unwrap();
        let cat = StatsCatalog::analyze(&db, 1_000, 5);
        (db, cat)
    }

    #[test]
    fn plans_single_table_query() {
        let (db, cat) = setup();
        let q = parse_query("SELECT COUNT(*) FROM title WHERE year > 2000").unwrap();
        let opt = Optimizer::postgres();
        let out = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.op.kind(), OpKind::Aggregate);
        assert!(out.work > 0);
        assert!(out.root.est_cost > 0.0);
    }

    #[test]
    fn plans_join_query() {
        let (db, cat) = setup();
        let q = parse_query(
            "SELECT COUNT(*) FROM title t, cast_info ci \
             WHERE t.id = ci.movie_id AND t.year > 2005",
        )
        .unwrap();
        let opt = Optimizer::postgres();
        let out = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.tables_covered(), vec![0, 1]);
        assert_eq!(out.root.join_algos().len(), 1);
    }

    #[test]
    fn hints_exclude_operators_when_alternatives_exist() {
        let (db, cat) = setup();
        let q = parse_query("SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id")
            .unwrap();
        let opt = Optimizer::postgres();
        for hints in HintSet::family_49() {
            let out = opt.plan(&q, &db, &cat, hints).unwrap();
            // Whatever the hint set, a plan exists and covers both tables.
            assert_eq!(out.root.tables_covered(), vec![0, 1]);
            // If the chosen plan has finite cost (< disable_cost), it obeys
            // the hint set.
            if out.root.est_cost < opt.params.disable_cost {
                for algo in out.root.join_algos() {
                    assert!(hints.join_enabled(algo), "{hints} produced {algo:?}");
                }
                for (_, kind) in out.root.access_paths() {
                    assert!(hints.scan_enabled(kind), "{hints} produced {kind:?}");
                }
            }
        }
    }

    #[test]
    fn disabling_loop_join_changes_plan() {
        let (db, cat) = setup();
        // Single-row outer: a parameterized nested loop is clearly best.
        let q = parse_query(
            "SELECT COUNT(*) FROM title t, cast_info ci \
             WHERE t.id = ci.movie_id AND t.id = 500",
        )
        .unwrap();
        let opt = Optimizer::postgres();
        let default = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        let no_loop = opt.plan(&q, &db, &cat, HintSet::from_masks(0b011, 0b111)).unwrap();
        assert!(default.root.join_algos().contains(&JoinAlgo::NestedLoop), "{}", default.root);
        assert!(!no_loop.root.join_algos().contains(&JoinAlgo::NestedLoop), "{}", no_loop.root);
    }

    #[test]
    fn comsys_estimates_differ_from_postgres() {
        let (db, cat) = setup();
        // kind = 2 implies year = 2010 in the data: the independence
        // assumption underestimates the conjunction; the sample-based
        // estimator does not.
        let q =
            parse_query("SELECT COUNT(*) FROM title t WHERE t.kind = 2 AND t.year = 2010").unwrap();
        let scan_rows = |opt: &Optimizer| {
            let out = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
            out.root.iter().find(|n| n.op.scan_kind().is_some()).unwrap().est_rows
        };
        let pg = scan_rows(&Optimizer::postgres());
        let cs = scan_rows(&Optimizer::comsys());
        let truth = 1_000.0; // 5% of 20k titles have kind 2 (and all have year 2010)
        assert!(pg < truth * 0.5, "independence should underestimate: pg={pg}");
        assert!((cs - truth).abs() / truth < 0.3, "sample estimate should be near truth: cs={cs}");
    }

    #[test]
    fn order_by_adds_sort() {
        let (db, cat) = setup();
        let q = parse_query("SELECT t.id FROM title t WHERE t.year = 2010 ORDER BY t.id").unwrap();
        let out = Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.op.kind(), OpKind::Sort);
    }

    #[test]
    fn group_by_estimates_groups() {
        let (db, cat) = setup();
        let q = parse_query("SELECT t.kind, COUNT(*) FROM title t GROUP BY t.kind").unwrap();
        let out = Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.op.kind(), OpKind::Aggregate);
        assert!(out.root.est_rows <= 3.0, "kind has 2 distinct values");
    }

    #[test]
    fn cyclic_join_graph_planned_with_filter() {
        let (db, cat) = setup();
        let mut q = parse_query(
            "SELECT COUNT(*) FROM title a, title b, title c \
             WHERE a.id = b.id AND b.id = c.id",
        )
        .unwrap();
        // Close the triangle: a-b, b-c, a-c.
        q.joins.push(bao_plan::JoinPred::new(
            bao_plan::ColRef::new(0, "id"),
            bao_plan::ColRef::new(2, "id"),
        ));
        let out = Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.tables_covered(), vec![0, 1, 2]);
        // Some split must carry the extra edge as a Filter.
        assert!(out.root.iter().any(|n| n.op.kind() == OpKind::Filter), "{}", out.root);
    }

    #[test]
    fn disconnected_query_rejected() {
        let (db, cat) = setup();
        let q = parse_query("SELECT COUNT(*) FROM title a, cast_info b").unwrap();
        assert!(Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).is_err());
    }

    #[test]
    fn wide_query_uses_greedy_and_succeeds() {
        let (db, cat) = setup();
        // 10-way self-join chain on title.id exceeds the DP threshold.
        let aliases: Vec<String> = (0..10).map(|i| format!("t{i}")).collect();
        let from = aliases.iter().map(|a| format!("title {a}")).collect::<Vec<_>>().join(", ");
        let conds =
            (1..10).map(|i| format!("t{}.id = t{}.id", i - 1, i)).collect::<Vec<_>>().join(" AND ");
        let q = parse_query(&format!("SELECT COUNT(*) FROM {from} WHERE {conds}")).unwrap();
        let out = Optimizer::postgres().plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
        assert_eq!(out.root.tables_covered().len(), 10);
    }

    /// Bitwise equality of two outputs: `work`, every operator, every
    /// estimate.
    fn assert_same(a: &PlanOutput, b: &PlanOutput, what: &str) {
        assert_eq!(a.work, b.work, "{what}");
        assert_eq!(a.root.iter().count(), b.root.iter().count(), "{what}");
        for (x, y) in a.root.iter().zip(b.root.iter()) {
            assert_eq!(x.op, y.op, "{what}");
            assert_eq!(x.est_rows.to_bits(), y.est_rows.to_bits(), "{what}: {:?}", x.op);
            assert_eq!(x.est_cost.to_bits(), y.est_cost.to_bits(), "{what}: {:?}", x.op);
        }
    }

    #[test]
    fn plan_arms_equals_planning_each_arm_alone() {
        let (db, cat) = setup();
        let chain = |n: usize| {
            let from = (0..n).map(|i| format!("title t{i}")).collect::<Vec<_>>().join(", ");
            let conds = (1..n)
                .map(|i| format!("t{}.id = t{i}.id", i - 1))
                .collect::<Vec<_>>()
                .join(" AND ");
            format!("SELECT COUNT(*) FROM {from} WHERE {conds} AND t0.year > 2000")
        };
        let mut cyclic = parse_query(&chain(3)).unwrap();
        cyclic.joins.push(bao_plan::JoinPred::new(
            bao_plan::ColRef::new(0, "id"),
            bao_plan::ColRef::new(2, "id"),
        ));
        let queries = [
            parse_query("SELECT t.kind, COUNT(*) FROM title t WHERE t.year = 2010 GROUP BY t.kind")
                .unwrap(),
            parse_query(
                "SELECT t.id FROM title t, cast_info ci \
                 WHERE t.id = ci.movie_id AND t.id < 40 ORDER BY t.id",
            )
            .unwrap(),
            parse_query(&chain(4)).unwrap(),
            cyclic,
            parse_query(&chain(10)).unwrap(),
        ];
        let family = HintSet::family_49();
        let mut rng = rng_from_seed(7);
        for opt in [Optimizer::postgres(), Optimizer::comsys()] {
            for (qi, q) in queries.iter().enumerate() {
                let alone: Vec<PlanOutput> =
                    family.iter().map(|&h| opt.plan(q, &db, &cat, h).unwrap()).collect();
                // `work` counts candidates priced, which no hint changes.
                assert!(alone.iter().all(|o| o.work == alone[0].work), "query {qi}");

                // The family in order, shuffled, with duplicates, and one
                // arm at a time: an arm's output never depends on which
                // arms were planned beside it.
                let mut order: Vec<usize> = (0..family.len()).collect();
                let mut slices = vec![order.clone()];
                rng.shuffle(&mut order);
                slices.push(order.clone());
                slices.push((0..60).map(|_| rng.gen_index(family.len())).collect());
                slices.push(vec![rng.gen_index(family.len())]);
                slices.push(Vec::new());
                for slice in slices {
                    let arms: Vec<HintSet> = slice.iter().map(|&i| family[i]).collect();
                    let outs = opt.plan_arms(q, &db, &cat, &arms).unwrap();
                    assert_eq!(outs.len(), slice.len());
                    for (out, &i) in outs.iter().zip(&slice) {
                        assert_same(out, &alone[i], &format!("query {qi} arm {i}"));
                    }
                }
            }
        }
    }

    #[test]
    fn work_scales_with_query_width() {
        let (db, cat) = setup();
        let small = parse_query("SELECT COUNT(*) FROM title WHERE year = 2010").unwrap();
        let big = parse_query(
            "SELECT COUNT(*) FROM title a, title b, title c, title d \
             WHERE a.id = b.id AND b.id = c.id AND c.id = d.id",
        )
        .unwrap();
        let opt = Optimizer::postgres();
        let w_small = opt.plan(&small, &db, &cat, HintSet::all_enabled()).unwrap().work;
        let w_big = opt.plan(&big, &db, &cat, HintSet::all_enabled()).unwrap().work;
        assert!(w_big > w_small * 3, "w_small={w_small} w_big={w_big}");
    }
}
