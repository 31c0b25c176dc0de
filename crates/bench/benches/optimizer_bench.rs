//! Microbenchmarks of the cost-based optimizer: single-arm planning
//! (PostgreSQL's job per query) and whole-family planning (Bao's
//! per-query overhead), backing the §6.2 optimization-time discussion.

use bao_bench::timing::{bench_function, Group};
use bao_common::rng_from_seed;
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;
use bao_workloads::imdb::{build_imdb_database, instantiate_template};

fn bench_planning() {
    let db = build_imdb_database(0.1, 42).unwrap();
    let cat = StatsCatalog::analyze(&db, 1_000, 42);
    let opt = Optimizer::postgres();
    let mut rng = rng_from_seed(1);
    let (_, two_way) = instantiate_template(1, 0.1, &mut rng);
    let (_, four_way) = instantiate_template(8, 0.1, &mut rng);

    let g = Group::new("plan_single_arm", 20);
    for (name, q) in [("2way", &two_way), ("4way", &four_way)] {
        g.bench(name, || {
            opt.plan(q, &db, &cat, HintSet::all_enabled()).unwrap();
        });
    }

    // The family shares one planning context: set a row against
    // `plan_single_arm` times the arm count to read the amortisation.
    let g = Group::new("plan_all_arms", 20);
    for arms in [5usize, 49] {
        let family = HintSet::top_arms(arms);
        g.bench(&arms.to_string(), || {
            opt.plan_arms(&four_way, &db, &cat, &family).unwrap();
        });
    }

    // What `Bao::select_plan` pays per scored statement on a narrow query
    // (`plan_all_arms/49` is the same family on the 4-way one).
    let family = HintSet::family_49();
    Group::new("plan_family_49", 20).bench("2way", || {
        opt.plan_arms(&two_way, &db, &cat, &family).unwrap();
    });
}

fn bench_estimators() {
    use bao_plan::CmpOp;
    use bao_stats::{Estimator, PostgresEstimator, ResolvedPred, SampleEstimator};
    let db = build_imdb_database(0.1, 42).unwrap();
    let cat = StatsCatalog::analyze(&db, 1_000, 42);
    let preds = vec![
        ResolvedPred { column: "production_year".into(), op: CmpOp::Ge, x: 2000.0 },
        ResolvedPred { column: "kind_id".into(), op: CmpOp::Eq, x: 2.0 },
    ];
    bench_function("scan_selectivity_histogram", 20, || {
        PostgresEstimator.scan_selectivity(&cat, "title", &preds);
    });
    bench_function("scan_selectivity_sample", 20, || {
        SampleEstimator.scan_selectivity(&cat, "title", &preds);
    });
}

fn main() {
    bench_planning();
    bench_estimators();
}
