//! Microbenchmarks of the cost-accurate executor: scans, joins, the
//! cache-warm/cold difference, and the buffer pool's page touch on its own.

use bao_bench::timing::bench_function;
use bao_exec::{execute, ChargeRates};
use bao_opt::{HintSet, Optimizer};
use bao_sql::parse_query;
use bao_stats::StatsCatalog;
use bao_plan::Operator;
use bao_storage::{AccessKind, BufferPool, PageKey};
use bao_workloads::imdb::build_imdb_database;
use std::hint::black_box;

/// Per touch, per clone: hits on resident pages in a scattered order,
/// misses that each evict (a cycle over twice the pool), and the copy the
/// oracle strategy takes once per arm.
fn pool_benches(pool_pages: usize) {
    let pages = pool_pages as u32;
    let mut pool = BufferPool::new(pool_pages);
    pool.prewarm(1, pages);
    let scattered: Vec<u32> =
        (0..4096u32).map(|i| i.wrapping_mul(2_654_435_761) % pages).collect();
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

fn main() {
    // The pool every benchmark workload runs on.
    let pool_pages = bao_cloud::N1_4.buffer_pool_pages();
    pool_benches(pool_pages);

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
