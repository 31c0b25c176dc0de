//! Microbenchmarks of the cost-accurate executor: scans, joins, the
//! cache-warm/cold difference, the buffer pool's page touch on its own,
//! the scan filter on each column type and at half selectivity in random
//! order, the join's one evaluation function on three int key
//! distributions and on text keys, a `COUNT(*)` over a join (no fill), a
//! three-way star join under `COUNT(*)` and under `MIN` (the upper join
//! and the aggregate read the lower join's count pass), the parameterized
//! nested loop over runs of equal outer keys and over distinct ones, and
//! under a `COUNT(*)` over a hash join (neither join writes a row), the
//! sort on three key orders, the aggregate fold on three groupings and
//! with `COUNT(*)` alone, and `==` on empty slices.

use bao_bench::timing::bench_function;
use bao_common::{rng_from_seed, Rng};
use bao_exec::{execute, ChargeRates};
use bao_opt::{HintSet, Optimizer};
use bao_plan::{
    AggFunc, CmpOp, ColRef, JoinPred, Operator, PlanNode, Predicate, Query, SelectItem, TableRef,
};
use bao_sql::parse_query;
use bao_stats::StatsCatalog;
use bao_storage::{
    AccessKind, BufferPool, ColumnDef, DataType, Database, PageKey, Schema, Table, Value,
};
use bao_workloads::imdb::build_imdb_database;
use std::hint::black_box;

/// Per touch, per clone: hits on resident pages in a scattered order,
/// misses that each evict (a cycle over twice the pool), and the copy the
/// oracle strategy takes once per arm.
fn pool_benches(pool_pages: usize) {
    let pages = pool_pages as u32;
    let mut pool = BufferPool::new(pool_pages);
    pool.prewarm(1, pages);
    let scattered: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(2_654_435_761) % pages).collect();
    let mut i = 0;
    bench_function("pool_touch_resident", 20, || {
        i = (i + 1) % scattered.len();
        black_box(pool.access(PageKey::new(1, scattered[i]), AccessKind::Cached));
    });
    bench_function("pool_clone_full", 20, || {
        black_box(pool.clone());
    });
    let mut page = 0;
    bench_function("pool_touch_thrash", 20, || {
        page = (page + 1) % (2 * pages);
        black_box(pool.access(PageKey::new(2, page), AccessKind::Cached));
    });
}

/// Rows in each `seq_scan_filter_*` table.
const SCAN_ROWS: i64 = 200_000;

/// A sequential scan of a hand-made 200,000-row single-column table of
/// type `ty` under two predicates, `LIMIT 1` so that the root
/// materializes one row: the time is page touches and the filter, in ns
/// per scanned row. Row `i` holds `i * 7,919 % 200,000` (as `w<n % 64>`
/// for text, over 200,000 for floats); the first predicate keeps about
/// three quarters of the rows and the second retains most of those.
fn seq_scan_filter_bench(name: &str, ty: DataType) {
    let cell = |n: i64| match ty {
        DataType::Int => Value::Int(n),
        DataType::Text => Value::Str(format!("w{:02}", n % 64)),
        DataType::Float => Value::Float(n as f64 / SCAN_ROWS as f64),
    };
    // Text codes follow first appearance: insert `w00`..`w63` in order
    // first, so that code order is word order.
    let cells = (0..64).chain((64..SCAN_ROWS).map(|i| i * 7_919 % SCAN_ROWS)).map(cell);
    let (lo, not) = match ty {
        DataType::Text => (cell(16), cell(40)),
        _ => (cell(SCAN_ROWS / 4), cell(SCAN_ROWS / 2)),
    };
    scan_bench(name, ty, cells, vec![(CmpOp::Ge, lo), (CmpOp::Ne, not)]);
}

/// The scan of [`seq_scan_filter_bench`] over seeded random ints in
/// `0..200,000` under one predicate, `c < 100,000`, which keeps about half
/// the rows in an order no branch predictor learns: the worst case for a
/// filter that branches per row.
fn seq_scan_filter_half_bench() {
    let mut rng = rng_from_seed(7);
    let cells = (0..SCAN_ROWS).map(|_| Value::Int(rng.gen_range(0..SCAN_ROWS)));
    let half = vec![(CmpOp::Lt, Value::Int(SCAN_ROWS / 2))];
    scan_bench("seq_scan_filter_half", DataType::Int, cells, half);
}

/// Times the scan of a one-column table `c` of type `ty` holding `cells`
/// under `c <op> <value>` for each of `preds`, `LIMIT 1`.
fn scan_bench(
    name: &str,
    ty: DataType,
    cells: impl Iterator<Item = Value>,
    preds: Vec<(CmpOp, Value)>,
) {
    let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("c", ty)]));
    t.insert_many(cells.map(|v| vec![v])).unwrap();
    let rows = t.row_count();
    let mut db = Database::new();
    db.create_table(t).unwrap();
    let c = ColRef::new(0, "c");
    let preds: Vec<Predicate> =
        preds.into_iter().map(|(op, v)| Predicate::new(c.clone(), op, v)).collect();
    let q = Query {
        tables: vec![TableRef::new("t")],
        select: vec![SelectItem::Column(c)],
        predicates: preds.clone(),
        limit: Some(1),
        ..Query::default()
    };
    let plan = PlanNode::new(Operator::SeqScan { table: 0, preds }, vec![]);
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();
    let mut pool = BufferPool::new(1_024);
    let kept = execute(&plan, &q, &db, &mut pool, &opt.params, &rates).unwrap().node_true_rows[0];
    let stats = bench_function(&format!("{name} ({rows} rows -> {kept})"), 20, || {
        black_box(execute(&plan, &q, &db, &mut pool, &opt.params, &rates).unwrap());
    });
    println!("{name}: {:.1} ns per scanned row (median)", stats.median / rows as f64 * 1e9);
}

/// A hash join of two hand-made single-column tables of type `ty` with
/// nothing above it (no aggregate fold; the root materializes at most
/// 10,000 rows), so the time is key extraction, build, probe and fill, in
/// ns per probe row. `l_key` / `r_key` give row `i`'s key on each side
/// (as the word `w<key>` for text); the right side is the build side.
/// With `count_star` the join sits under a `COUNT(*)`, which reads its
/// count pass: no fill.
fn hash_join_bench(
    name: &str,
    ty: DataType,
    rows: (i64, i64),
    l_key: &dyn Fn(i64) -> i64,
    r_key: &dyn Fn(i64) -> i64,
    count_star: bool,
) {
    let mut db = Database::new();
    for (table, n, key) in [("l", rows.0, l_key), ("r", rows.1, r_key)] {
        let mut t = Table::new(table, Schema::new(vec![ColumnDef::new("k", ty)]));
        let cell = |k: i64| match ty {
            DataType::Text => Value::Str(format!("w{k}")),
            _ => Value::Int(k),
        };
        t.insert_many((0..n).map(|i| vec![cell(key(i))])).unwrap();
        db.create_table(t).unwrap();
    }
    let pred = JoinPred::new(ColRef::new(0, "k"), ColRef::new(1, "k"));
    let select = match count_star {
        true => SelectItem::Agg(AggFunc::CountStar),
        false => SelectItem::Column(ColRef::new(0, "k")),
    };
    let q = Query {
        tables: vec![TableRef::new("l"), TableRef::new("r")],
        select: vec![select],
        joins: vec![pred.clone()],
        ..Query::default()
    };
    let scan = |table| PlanNode::new(Operator::SeqScan { table, preds: vec![] }, vec![]);
    let mut plan = PlanNode::new(Operator::HashJoin { pred }, vec![scan(0), scan(1)]);
    if count_star {
        let count = Operator::Aggregate { group_by: vec![], aggs: vec![AggFunc::CountStar] };
        plan = PlanNode::new(count, vec![plan]);
    }
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();
    let mut pool = BufferPool::new(1_024);
    let m = execute(&plan, &q, &db, &mut pool, &opt.params, &rates).unwrap();
    let joined = m.node_true_rows[usize::from(count_star)];
    let stats =
        bench_function(&format!("{name} ({} x {} -> {joined} rows)", rows.0, rows.1), 20, || {
            black_box(execute(&plan, &q, &db, &mut pool, &opt.params, &rates).unwrap());
        });
    println!("{name}: {:.1} ns per probe row (median)", stats.median / rows.0 as f64 * 1e9);
}

/// A star join of three hand-made tables on one key, the shape of
/// `imdb/q06`, under `agg`: `t` holds 50,000 rows with key `k` the row
/// number and a float `v`, `ci` 200,000 rows and `mc` 100,000 rows whose
/// keys cycle through `t`'s. The plan hashes `t` against `ci`, then that
/// join against `mc` on `t.k`: the upper join reads its key through the
/// lower one's count pass, and the aggregate reads `agg`'s column through
/// both. 400,000 rows come out; reported in ns per output row.
fn three_way_join_bench(name: &str, agg: AggFunc) {
    let mut db = Database::new();
    for (table, n) in [("t", 50_000), ("ci", 200_000), ("mc", 100_000)] {
        let cols = vec![ColumnDef::new("k", DataType::Int), ColumnDef::new("v", DataType::Float)];
        let mut t = Table::new(table, Schema::new(cols));
        let row = |i: i64| vec![Value::Int(i * 7_919 % 50_000), Value::Float(i as f64)];
        t.insert_many((0..n).map(row)).unwrap();
        db.create_table(t).unwrap();
    }
    let k = |t| ColRef::new(t, "k");
    let (lower, upper) = (JoinPred::new(k(0), k(1)), JoinPred::new(k(0), k(2)));
    let q = Query {
        tables: ["t", "ci", "mc"].map(TableRef::new).to_vec(),
        select: vec![SelectItem::Agg(agg.clone())],
        joins: vec![lower.clone(), upper.clone()],
        ..Query::default()
    };
    let scan = |table| PlanNode::new(Operator::SeqScan { table, preds: vec![] }, vec![]);
    let join = PlanNode::new(Operator::HashJoin { pred: lower }, vec![scan(0), scan(1)]);
    let join = PlanNode::new(Operator::HashJoin { pred: upper }, vec![join, scan(2)]);
    let aggregate = Operator::Aggregate { group_by: vec![], aggs: vec![agg] };
    let plan = PlanNode::new(aggregate, vec![join]);
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();
    let mut pool = BufferPool::new(1_024);
    let joined = execute(&plan, &q, &db, &mut pool, &opt.params, &rates).unwrap().node_true_rows[1];
    let stats = bench_function(&format!("{name} (-> {joined} rows)"), 20, || {
        black_box(execute(&plan, &q, &db, &mut pool, &opt.params, &rates).unwrap());
    });
    println!("{name}: {:.1} ns per output row (median)", stats.median / joined as f64 * 1e9);
}

/// A parameterized nested loop with nothing above it (the root
/// materializes at most 10,000 rows): the 16,384 rows of `o` each look
/// their key up in an index on `i.k`. `i` holds 65,536 rows, row `r` key
/// `r % 1,024`, so a lookup fetches 64 rows, one from each of `i`'s 64
/// heap pages; `outer_key` gives row `j` of `o`'s key. Every page fits the
/// pool, so after the first run every touch hits. Reported in ns per
/// probe row: per row a lookup fetches, 1,048,576 per run.
///
/// With `count_star` the loop sits under a `COUNT(*)` and its outer is a
/// hash join of `o` with `d`, whose 1,024 rows hold each key once: the
/// same outer rows in the same order, read through the join's count pass.
fn param_nested_loop_bench(
    name: &str,
    pool_pages: usize,
    outer_key: &dyn Fn(i64) -> i64,
    count_star: bool,
) {
    const OUTER: i64 = 16_384;
    const INNER: i64 = 65_536;
    let mut db = Database::new();
    for (table, n, key) in
        [("o", OUTER, outer_key), ("i", INNER, &|r| r % 1_024), ("d", 1_024, &|r| r)]
    {
        let mut t = Table::new(table, Schema::new(vec![ColumnDef::new("k", DataType::Int)]));
        t.insert_many((0..n).map(|r| vec![Value::Int(key(r))])).unwrap();
        db.create_table(t).unwrap();
    }
    db.create_index("i", "k").unwrap();
    let (ok, ik, dk) = (ColRef::new(0, "k"), ColRef::new(1, "k"), ColRef::new(2, "k"));
    let pred = JoinPred::new(ok.clone(), ik);
    let select = match count_star {
        true => SelectItem::Agg(AggFunc::CountStar),
        false => SelectItem::Column(ok.clone()),
    };
    let mut q = Query {
        tables: vec![TableRef::new("o"), TableRef::new("i")],
        select: vec![select],
        joins: vec![pred.clone()],
        ..Query::default()
    };
    let inner = Operator::IndexScan {
        table: 1,
        column: "k".into(),
        lo: None,
        hi: None,
        residual: vec![],
        param: Some(ok.clone()),
    };
    let scan = |table| PlanNode::new(Operator::SeqScan { table, preds: vec![] }, vec![]);
    let mut outer = scan(0);
    if count_star {
        q.tables.push(TableRef::new("d"));
        let on_d = JoinPred::new(ok.clone(), dk);
        q.joins.push(on_d.clone());
        outer = PlanNode::new(Operator::HashJoin { pred: on_d }, vec![outer, scan(2)]);
    }
    let mut plan =
        PlanNode::new(Operator::NestedLoopJoin { pred }, vec![outer, PlanNode::new(inner, vec![])]);
    if count_star {
        let count = Operator::Aggregate { group_by: vec![], aggs: vec![AggFunc::CountStar] };
        plan = PlanNode::new(count, vec![plan]);
    }
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();
    let mut pool = BufferPool::new(pool_pages);
    // The loop's rows: with no residual, every row a lookup fetches.
    let fetched = execute(&plan, &q, &db, &mut pool, &opt.params, &rates).unwrap().node_true_rows
        [usize::from(count_star)];
    let stats = bench_function(&format!("{name} ({OUTER} probes -> {fetched} rows)"), 20, || {
        black_box(execute(&plan, &q, &db, &mut pool, &opt.params, &rates).unwrap());
    });
    println!("{name}: {:.1} ns per probe row (median)", stats.median / fetched as f64 * 1e9);
}

/// A sort of a hand-made single-column table on its key, over a
/// sequential scan, with nothing above it (the root materializes at most
/// 10,000 rows): `key` gives row `i`'s key.
fn sort_bench(name: &str, rows: i64, key: &dyn Fn(i64) -> i64) {
    let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("k", DataType::Int)]));
    t.insert_many((0..rows).map(|i| vec![Value::Int(key(i))])).unwrap();
    let mut db = Database::new();
    db.create_table(t).unwrap();
    let k = ColRef::new(0, "k");
    let q = Query {
        tables: vec![TableRef::new("t")],
        select: vec![SelectItem::Column(k.clone())],
        order_by: vec![k.clone()],
        ..Query::default()
    };
    let scan = PlanNode::new(Operator::SeqScan { table: 0, preds: vec![] }, vec![]);
    let plan = PlanNode::new(Operator::Sort { keys: vec![k] }, vec![scan]);
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();
    let mut pool = BufferPool::new(1_024);
    bench_function(&format!("{name} ({rows} rows)"), 20, || {
        black_box(execute(&plan, &q, &db, &mut pool, &opt.params, &rates).unwrap());
    });
}

/// `aggs` (of the float column `v`) over a sequential scan of a
/// hand-made table, grouped by `group_by` (none, 16 keys, or a unique
/// key): the aggregate fold with the scan under it, in ns per input row.
fn aggregate_fold_bench(name: &str, rows: i64, group_by: &[&str], aggs: &[AggFunc]) {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            ColumnDef::new("g16", DataType::Int),
            ColumnDef::new("u", DataType::Int),
            ColumnDef::new("v", DataType::Float),
        ]),
    );
    t.insert_many(
        (0..rows).map(|i| vec![Value::Int(i * 7_919 % 16), Value::Int(i), Value::Float(i as f64)]),
    )
    .unwrap();
    let mut db = Database::new();
    db.create_table(t).unwrap();
    let group_by: Vec<ColRef> = group_by.iter().map(|c| ColRef::new(0, *c)).collect();
    let aggs = aggs.to_vec();
    let q = Query {
        tables: vec![TableRef::new("t")],
        select: group_by
            .iter()
            .cloned()
            .map(SelectItem::Column)
            .chain(aggs.iter().cloned().map(SelectItem::Agg))
            .collect(),
        group_by: group_by.clone(),
        ..Query::default()
    };
    let scan = PlanNode::new(Operator::SeqScan { table: 0, preds: vec![] }, vec![]);
    let plan = PlanNode::new(Operator::Aggregate { group_by, aggs }, vec![scan]);
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();
    let mut pool = BufferPool::new(1_024);
    let stats = bench_function(&format!("{name} ({rows} rows)"), 20, || {
        black_box(execute(&plan, &q, &db, &mut pool, &opt.params, &rates).unwrap());
    });
    println!("{name}: {:.1} ns per input row (median)", stats.median / rows as f64 * 1e9);
}

/// `==` on two empty `u64` slices, at `Vec::new()`'s dangling pointer
/// (the empty group key the ungrouped fold used to probe with) and at
/// heap pointers. The gap is measured, its cause a hypothesis (DESIGN.md
/// §13).
fn empty_slice_eq_benches() {
    let dangling: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let heap: [Vec<u64>; 2] = [Vec::with_capacity(1), Vec::with_capacity(1)];
    for (name, [a, b]) in [("empty_slice_eq_dangling", &dangling), ("empty_slice_eq_heap", &heap)] {
        bench_function(name, 20, || {
            black_box(black_box(a.as_slice()) == black_box(b.as_slice()));
        });
    }
}

fn main() {
    // The pool every benchmark workload runs on.
    let pool_pages = bao_cloud::N1_4.buffer_pool_pages();
    pool_benches(pool_pages);

    empty_slice_eq_benches();
    let v = ColRef::new(0, "v");
    let fold = [AggFunc::CountStar, AggFunc::Sum(v.clone()), AggFunc::Avg(v)];
    aggregate_fold_bench("aggregate_fold_ungrouped", 200_000, &[], &fold);
    aggregate_fold_bench("aggregate_fold_grouped_16", 200_000, &["g16"], &fold);
    aggregate_fold_bench("aggregate_fold_grouped_unique", 200_000, &["u"], &fold);
    aggregate_fold_bench("aggregate_count_star_ungrouped", 200_000, &[], &[AggFunc::CountStar]);

    seq_scan_filter_bench("seq_scan_filter_int", DataType::Int);
    seq_scan_filter_bench("seq_scan_filter_text", DataType::Text);
    seq_scan_filter_bench("seq_scan_filter_float", DataType::Float);
    seq_scan_filter_half_bench();

    // Distinct keys in a scattered order, in order, and 16 keys scattered.
    for rows in [1_000, 100_000] {
        sort_bench("sort_rows_shuffled", rows, &|i| i * 7_919 % rows);
        sort_bench("sort_rows_presorted", rows, &|i| i);
        sort_bench("sort_rows_duplicates", rows, &|i| i * 7_919 % rows % 16);
    }

    // One match per probe (build keys dense: a direct-indexed table); 16
    // keys with 64 build rows each; one probe in 64 finds its key (build
    // keys 64 apart: a hashed table). The fan-out again under `COUNT(*)`,
    // which skips its fill.
    // Text: one match per probe through the dictionary codes. Both sides
    // meet the 1,000 words in the same order, so equal words share a code.
    let int = DataType::Int;
    let unique = (200_000, 200_000);
    hash_join_bench("hash_join_unique_keys", int, unique, &|i| i, &|i| i * 7 % 200_000, false);
    hash_join_bench("hash_join_fanout", int, (20_000, 1_024), &|i| i % 16, &|i| i % 16, false);
    hash_join_bench("hash_join_selective", int, (200_000, 50_000), &|i| i, &|i| i * 64, false);
    let fanout = (20_000, 1_024);
    hash_join_bench("count_star_over_hash_join", int, fanout, &|i| i % 16, &|i| i % 16, true);
    three_way_join_bench("count_star_over_three_way_join", AggFunc::CountStar);
    three_way_join_bench("min_over_three_way_join", AggFunc::Min(ColRef::new(0, "v")));
    let text = DataType::Text;
    hash_join_bench("hash_join_text_keys", text, (200_000, 1_000), &|i| i % 1_000, &|i| i, false);

    // Runs of 64 equal outer keys, and a new key on every outer row; the
    // runs again under a `COUNT(*)` with a hash join as the outer.
    let (runs, distinct) = (&|j| j / 64 % 1_024, &|j| j % 1_024);
    param_nested_loop_bench("param_nested_loop_repeated_keys", pool_pages, runs, false);
    param_nested_loop_bench("param_nested_loop_distinct_keys", pool_pages, distinct, false);
    let name = "count_star_over_param_loop_over_hash_join";
    param_nested_loop_bench(name, pool_pages, runs, true);

    let db = build_imdb_database(0.1, 42).unwrap();
    let cat = StatsCatalog::analyze(&db, 1_000, 42);
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();

    let scan = parse_query("SELECT COUNT(*) FROM title WHERE production_year > 2000").unwrap();
    let join = parse_query(
        "SELECT COUNT(*) FROM title t, cast_info ci \
         WHERE t.id = ci.movie_id AND t.kind_id = 2",
    )
    .unwrap();

    for (name, q) in [("seq_scan_count", &scan), ("fk_join_count", &join)] {
        let plan = opt.plan(q, &db, &cat, HintSet::all_enabled()).unwrap();
        let mut pool = BufferPool::new(1_024);
        bench_function(name, 20, || {
            execute(&plan.root, q, &db, &mut pool, &opt.params, &rates).unwrap();
        });
    }

    // The same join as a parameterized nested loop: one index probe per
    // outer row, one heap-page touch per fetched row.
    let fetching = parse_query(
        "SELECT COUNT(*) FROM title t, cast_info ci \
         WHERE t.id = ci.movie_id AND t.kind_id = 2 AND ci.role_id = 1",
    )
    .unwrap();
    let loop_only = HintSet::from_masks(0b100, 0b111);
    let plan = opt.plan(&fetching, &db, &cat, loop_only).unwrap();
    assert!(
        plan.root.iter().any(|n| matches!(&n.op, Operator::IndexScan { param: Some(_), .. })),
        "{}",
        plan.root.explain()
    );
    let mut pool = BufferPool::new(pool_pages);
    bench_function("fk_join_index_nested_loop", 20, || {
        execute(&plan.root, &fetching, &db, &mut pool, &opt.params, &rates).unwrap();
    });

    // Cold vs warm pool: the warm path should be faster in *wall* time too
    // (fewer LRU insertions).
    let plan = opt.plan(&join, &db, &cat, HintSet::all_enabled()).unwrap();
    bench_function("fk_join_cold_pool", 20, || {
        let mut pool = BufferPool::new(1_024);
        execute(&plan.root, &join, &db, &mut pool, &opt.params, &rates).unwrap();
    });
}
