//! Microbenchmarks of the statistics substrate: ANALYZE, index builds
//! (both sort keyed columns with `bao_storage::sort_keys`) and join
//! selectivity (the memoized sample-estimator path vs uniformity).

use bao_bench::timing::bench_function;
use bao_stats::{Estimator, PostgresEstimator, SampleEstimator, StatsCatalog};
use bao_storage::Index;
use bao_workloads::imdb::build_imdb_database;

fn main() {
    let db = build_imdb_database(0.1, 42).unwrap();
    bench_function("analyze_imdb_scale01", 10, || {
        StatsCatalog::analyze(&db, 1_000, 7);
    });

    // Set-up at the scale `exec_heavy` runs: every column's statistics,
    // and a rebuild of all 14 IMDb indexes.
    let db1 = build_imdb_database(1.0, 42).unwrap();
    bench_function("analyze_imdb_scale1", 10, || {
        StatsCatalog::analyze(&db1, 1_000, 7);
    });
    bench_function("index_build_imdb_scale1", 10, || {
        for st in db1.tables() {
            for idx in &st.indexes {
                std::hint::black_box(Index::build(&st.table, &idx.index.column).unwrap());
            }
        }
    });
    drop(db1);

    let cat = StatsCatalog::analyze(&db, 1_000, 7);
    bench_function("join_sel_uniformity", 10, || {
        PostgresEstimator.join_selectivity(&cat, "title", "id", "cast_info", "movie_id");
    });
    // First call computes the frequency-sketch intersection; later calls
    // hit the memo — this measures the memoized steady state.
    SampleEstimator.join_selectivity(&cat, "title", "id", "cast_info", "movie_id");
    bench_function("join_sel_sample_memoized", 10, || {
        SampleEstimator.join_selectivity(&cat, "title", "id", "cast_info", "movie_id");
    });
}
