//! Executor correctness and charging tests.
//!
//! The load-bearing property of the cost-accurate simulator is that **every
//! hint set produces the same answer** (plans are semantically equivalent,
//! paper §2 "Assumptions and Limitations") while producing *different*
//! charges. These tests verify both, cross-checking answers against a
//! brute-force reference join.

use bao_exec::{execute, ChargeRates};
use bao_opt::{HintSet, Optimizer};
use bao_plan::Query;
use bao_sql::parse_query;
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, ColumnDef, DataType, Database, Schema, Table, Value};

fn setup() -> (Database, StatsCatalog) {
    let mut title = Table::new(
        "title",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("kind", DataType::Text),
            ColumnDef::new("year", DataType::Int),
        ]),
    );
    for i in 0..2_000i64 {
        let kind = if i % 4 == 0 { "tv" } else { "movie" };
        title
            .insert(vec![Value::Int(i), Value::Str(kind.into()), Value::Int(1950 + i % 70)])
            .unwrap();
    }
    let mut ci = Table::new(
        "cast_info",
        Schema::new(vec![
            ColumnDef::new("movie_id", DataType::Int),
            ColumnDef::new("role", DataType::Int),
        ]),
    );
    for i in 0..10_000i64 {
        // Skewed FK: quadratic concentration on low ids.
        let m = (i * i / 10_000) % 2_000;
        ci.insert(vec![Value::Int(m), Value::Int(i % 7)]).unwrap();
    }
    let mut db = Database::new();
    db.create_table(title).unwrap();
    db.create_table(ci).unwrap();
    db.create_index("title", "id").unwrap();
    db.create_index("title", "year").unwrap();
    db.create_index("cast_info", "movie_id").unwrap();
    let cat = StatsCatalog::analyze(&db, 500, 11);
    (db, cat)
}

/// Brute-force the expected COUNT(*) of `title ⋈ cast_info` under filters.
fn reference_count(
    db: &Database,
    title_filter: impl Fn(i64, &str, i64) -> bool,
    ci_filter: impl Fn(i64, i64) -> bool,
) -> i64 {
    let t = &db.by_name("title").unwrap().table;
    let c = &db.by_name("cast_info").unwrap().table;
    let mut count = 0i64;
    for i in 0..t.row_count() {
        let id = t.column("id").unwrap().get(i).as_int().unwrap();
        let kind = t.column("kind").unwrap().get(i);
        let year = t.column("year").unwrap().get(i).as_int().unwrap();
        if !title_filter(id, kind.as_str().unwrap(), year) {
            continue;
        }
        for j in 0..c.row_count() {
            let m = c.column("movie_id").unwrap().get(j).as_int().unwrap();
            let role = c.column("role").unwrap().get(j).as_int().unwrap();
            if m == id && ci_filter(m, role) {
                count += 1;
            }
        }
    }
    count
}

fn run_count(db: &Database, cat: &StatsCatalog, q: &Query, hints: HintSet) -> (i64, f64) {
    let opt = Optimizer::postgres();
    let plan = opt.plan(q, db, cat, hints).unwrap();
    let mut pool = BufferPool::new(512);
    let m = execute(&plan.root, q, db, &mut pool, &opt.params, &ChargeRates::default()).unwrap();
    let count = m.output[0][0].as_int().unwrap();
    (count, m.latency.as_ms())
}

#[test]
fn every_hint_set_gives_the_same_answer() {
    let (db, cat) = setup();
    let q = parse_query(
        "SELECT COUNT(*) FROM title t, cast_info ci \
         WHERE t.id = ci.movie_id AND t.year > 2000 AND ci.role = 3",
    )
    .unwrap();
    let expected = reference_count(&db, |_, _, y| y > 2000, |_, r| r == 3);
    assert!(expected > 0, "test query should match rows");
    let mut latencies = Vec::new();
    for hints in HintSet::family_49() {
        let (count, ms) = run_count(&db, &cat, &q, hints);
        assert_eq!(count, expected, "hint set {hints} changed the answer");
        latencies.push(ms);
    }
    // ...but not the same cost: plans genuinely differ.
    let min = latencies.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = latencies.iter().cloned().fold(0.0, f64::max);
    assert!(max > min * 1.2, "hint sets should produce differing latencies: {min} vs {max}");
}

#[test]
fn text_predicate_filters() {
    let (db, cat) = setup();
    let q = parse_query(
        "SELECT COUNT(*) FROM title t, cast_info ci \
         WHERE t.id = ci.movie_id AND t.kind = 'tv'",
    )
    .unwrap();
    let expected = reference_count(&db, |_, k, _| k == "tv", |_, _| true);
    let (count, _) = run_count(&db, &cat, &q, HintSet::all_enabled());
    assert_eq!(count, expected);
}

#[test]
fn aggregates_compute_real_values() {
    let (db, cat) = setup();
    let q = parse_query(
        "SELECT MIN(t.year), MAX(t.year), AVG(t.year), SUM(t.year), COUNT(*) \
         FROM title t WHERE t.year >= 2015",
    )
    .unwrap();
    let opt = Optimizer::postgres();
    let plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    let mut pool = BufferPool::new(512);
    let m = execute(&plan.root, &q, &db, &mut pool, &opt.params, &ChargeRates::default()).unwrap();
    let row = &m.output[0];
    assert_eq!(row[0], Value::Float(2015.0));
    assert_eq!(row[1], Value::Float(2019.0));
    let count = row[4].as_int().unwrap();
    // years cycle 1950..2019 over 2000 rows: 2015..=2019 hit floor-ish
    assert!(count > 100 && count < 200, "count={count}");
    let avg = row[2].as_float().unwrap();
    assert!((2015.0..=2019.0).contains(&avg));
}

#[test]
fn group_by_partitions() {
    let (db, cat) = setup();
    let q = parse_query("SELECT t.kind, COUNT(*) FROM title t GROUP BY t.kind").unwrap();
    let opt = Optimizer::postgres();
    let plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    let mut pool = BufferPool::new(512);
    let m = execute(&plan.root, &q, &db, &mut pool, &opt.params, &ChargeRates::default()).unwrap();
    assert_eq!(m.output.len(), 2);
    let total: i64 = m.output.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(total, 2_000);
    let tv = m.output.iter().find(|r| r[0] == Value::Str("tv".into())).unwrap();
    assert_eq!(tv[1], Value::Int(500));
}

#[test]
fn empty_result_count_is_zero() {
    let (db, cat) = setup();
    let q = parse_query("SELECT COUNT(*) FROM title t WHERE t.year > 3000").unwrap();
    let (count, _) = run_count(&db, &cat, &q, HintSet::all_enabled());
    assert_eq!(count, 0);
}

#[test]
fn limit_caps_output() {
    let (db, cat) = setup();
    let q = parse_query("SELECT t.id FROM title t WHERE t.year > 2000 LIMIT 5").unwrap();
    let opt = Optimizer::postgres();
    let plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    let mut pool = BufferPool::new(512);
    let m = execute(&plan.root, &q, &db, &mut pool, &opt.params, &ChargeRates::default()).unwrap();
    assert_eq!(m.rows_out, 5);
    assert_eq!(m.output.len(), 5);
}

#[test]
fn order_by_sorts_output() {
    let (db, cat) = setup();
    let q = parse_query("SELECT t.year FROM title t WHERE t.id < 50 ORDER BY t.year").unwrap();
    let opt = Optimizer::postgres();
    let plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    let mut pool = BufferPool::new(512);
    let m = execute(&plan.root, &q, &db, &mut pool, &opt.params, &ChargeRates::default()).unwrap();
    let years: Vec<i64> = m.output.iter().map(|r| r[0].as_int().unwrap()).collect();
    let mut sorted = years.clone();
    sorted.sort_unstable();
    assert_eq!(years, sorted);
    assert_eq!(years.len(), 50);
}

#[test]
fn warm_cache_is_faster() {
    let (db, cat) = setup();
    let q = parse_query(
        "SELECT COUNT(*) FROM title t, cast_info ci \
         WHERE t.id = ci.movie_id AND t.year = 2005",
    )
    .unwrap();
    let opt = Optimizer::postgres();
    let plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    // Pool big enough to hold the working set.
    let mut pool = BufferPool::new(4_096);
    let rates = ChargeRates::default();
    let cold = execute(&plan.root, &q, &db, &mut pool, &opt.params, &rates).unwrap();
    let warm = execute(&plan.root, &q, &db, &mut pool, &opt.params, &rates).unwrap();
    assert!(warm.page_misses < cold.page_misses);
    assert!(warm.latency < cold.latency);
}

#[test]
fn node_true_rows_align_with_preorder() {
    let (db, cat) = setup();
    let q =
        parse_query("SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id").unwrap();
    let opt = Optimizer::postgres();
    let plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    let mut pool = BufferPool::new(512);
    let m = execute(&plan.root, &q, &db, &mut pool, &opt.params, &ChargeRates::default()).unwrap();
    assert_eq!(m.node_true_rows.len(), plan.root.node_count());
    // Root is the aggregate: exactly one row.
    assert_eq!(m.node_true_rows[0], 1);
    // The join produces all 10k cast rows (every FK matches).
    assert!(m.node_true_rows[1] == 10_000, "{:?}", m.node_true_rows);
}

#[test]
fn physical_io_depends_on_pool_size() {
    let (db, cat) = setup();
    let q =
        parse_query("SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id").unwrap();
    let opt = Optimizer::postgres();
    let plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    let rates = ChargeRates::default();
    let mut tiny = BufferPool::new(4);
    let mut huge = BufferPool::new(100_000);
    // run twice each; second run shows the cache effect
    for _ in 0..2 {
        execute(&plan.root, &q, &db, &mut tiny, &opt.params, &rates).unwrap();
    }
    let m_tiny = execute(&plan.root, &q, &db, &mut tiny, &opt.params, &rates).unwrap();
    for _ in 0..2 {
        execute(&plan.root, &q, &db, &mut huge, &opt.params, &rates).unwrap();
    }
    let m_huge = execute(&plan.root, &q, &db, &mut huge, &opt.params, &rates).unwrap();
    assert!(m_huge.page_misses <= m_tiny.page_misses);
}

#[test]
fn forced_nested_loop_charges_more() {
    let (db, cat) = setup();
    let q = parse_query(
        "SELECT COUNT(*) FROM title t, cast_info ci \
         WHERE t.id = ci.movie_id AND ci.role = 1",
    )
    .unwrap();
    let opt = Optimizer::postgres();
    // Force nested loop without index scans: naive quadratic rescan.
    let nl_only = HintSet::from_masks(0b100, 0b001);
    let hash = HintSet::from_masks(0b001, 0b001);
    let plan_nl = opt.plan(&q, &db, &cat, nl_only).unwrap();
    let plan_h = opt.plan(&q, &db, &cat, hash).unwrap();
    let rates = ChargeRates::default();
    let mut pool = BufferPool::new(512);
    let m_nl = execute(&plan_nl.root, &q, &db, &mut pool, &opt.params, &rates).unwrap();
    let mut pool = BufferPool::new(512);
    let m_h = execute(&plan_h.root, &q, &db, &mut pool, &opt.params, &rates).unwrap();
    assert_eq!(m_nl.output, m_h.output);
    assert!(
        m_nl.cpu_time.as_ms() > m_h.cpu_time.as_ms() * 10.0,
        "naive NL {} vs hash {}",
        m_nl.cpu_time.as_ms(),
        m_h.cpu_time.as_ms()
    );
}

#[test]
fn group_by_with_order_by_sorts_groups() {
    let (db, cat) = setup();
    let q = parse_query(
        "SELECT t.year, COUNT(*) FROM title t WHERE t.year >= 2010 \
         GROUP BY t.year ORDER BY t.year",
    )
    .unwrap();
    let opt = Optimizer::postgres();
    let plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    let mut pool = BufferPool::new(512);
    let m = execute(&plan.root, &q, &db, &mut pool, &opt.params, &ChargeRates::default()).unwrap();
    let years: Vec<i64> = m.output.iter().map(|r| r[0].as_int().unwrap()).collect();
    let mut sorted = years.clone();
    sorted.sort_unstable();
    assert_eq!(years, sorted, "groups must come out ordered");
    assert_eq!(years.len(), 10, "2010..=2019");
    // counts follow the select order (agg second)
    let total: i64 = m.output.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert!(total > 0);
}

#[test]
fn aggregate_before_column_in_select_list() {
    let (db, cat) = setup();
    let q = parse_query("SELECT COUNT(*), t.kind FROM title t GROUP BY t.kind").unwrap();
    // ensure the parser kept select order: [agg, column]
    assert!(matches!(q.select[0], bao_plan::SelectItem::Agg(_)));
    let opt = Optimizer::postgres();
    let plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    let mut pool = BufferPool::new(512);
    let m = execute(&plan.root, &q, &db, &mut pool, &opt.params, &ChargeRates::default()).unwrap();
    for row in &m.output {
        assert!(row[0].as_int().is_some(), "first cell is the count");
        assert!(row[1].as_str().is_some(), "second cell is the kind");
    }
    let total: i64 = m.output.iter().map(|r| r[0].as_int().unwrap()).sum();
    assert_eq!(total, 2_000);
}

#[test]
fn selecting_column_not_in_group_by_errors() {
    let (db, cat) = setup();
    let q = parse_query("SELECT t.year, COUNT(*) FROM title t GROUP BY t.kind").unwrap();
    let opt = Optimizer::postgres();
    let plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    let mut pool = BufferPool::new(512);
    assert!(execute(&plan.root, &q, &db, &mut pool, &opt.params, &ChargeRates::default()).is_err());
}

/// A parameterized inner that probes a column other than the join key is
/// refused before the first probe, not after the last. `plan::verify`
/// stops this shape at the execution boundary in debug builds, so the
/// executor's own check is reachable in release builds only:
/// `cargo test --release -p bao-exec`.
#[cfg(not(debug_assertions))]
#[test]
fn mismatched_param_lookup_is_refused_before_any_probe() {
    use bao_plan::{AggFunc, ColRef, JoinPred, Operator, PlanNode};
    let (db, _) = setup();
    let q =
        parse_query("SELECT COUNT(*) FROM cast_info ci, title t WHERE ci.movie_id = t.id").unwrap();
    let outer = PlanNode::new(Operator::SeqScan { table: 0, preds: vec![] }, vec![]);
    // The join key is t.id; the inner probes t.year (also indexed).
    let inner = PlanNode::new(
        Operator::IndexScan {
            table: 1,
            column: "year".into(),
            lo: None,
            hi: None,
            residual: vec![],
            param: Some(ColRef::new(0, "movie_id")),
        },
        vec![],
    );
    let pred = JoinPred::new(ColRef::new(0, "movie_id"), ColRef::new(1, "id"));
    let join = PlanNode::new(Operator::NestedLoopJoin { pred }, vec![outer, inner]);
    let root = PlanNode::new(
        Operator::Aggregate { group_by: vec![], aggs: vec![AggFunc::CountStar] },
        vec![join],
    );
    let mut pool = BufferPool::new(512);
    let params = Optimizer::postgres().params;
    let err = execute(&root, &q, &db, &mut pool, &params, &ChargeRates::default()).unwrap_err();
    assert!(err.to_string().contains("lookup column does not match the join key"), "{err}");
    // The outer's sequential scan ran; the inner index and heap are untouched.
    let outer_pages = db.by_name("cast_info").unwrap().table.n_pages();
    assert_eq!(pool.stats().accesses(), outer_pages as u64);
    assert_eq!(pool.cached_fraction(db.by_name("title").unwrap().heap_object, 1), 0.0);
}
