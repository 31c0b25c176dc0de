//! Cross-crate integration tests: the full pipeline from SQL text through
//! parsing, statistics, optimization, execution, and Bao's learning loop.

use bao_cloud::{N1_16, N1_4};
use bao_exec::{execute, ChargeRates};
use bao_harness::{BaoSettings, ModelKind, RunConfig, Runner, Strategy};
use bao_opt::{HintSet, Optimizer};
use bao_sql::parse_query;
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;
use bao_workloads::{build_imdb, build_stack, ImdbConfig, StackConfig};

#[test]
fn sql_to_result_pipeline() {
    let db = bao_workloads::imdb::build_imdb_database(0.05, 1).unwrap();
    let cat = StatsCatalog::analyze(&db, 500, 1);
    let opt = Optimizer::postgres();
    let q = parse_query(
        "SELECT COUNT(*), MIN(t.production_year) FROM title t, cast_info ci \
         WHERE t.id = ci.movie_id AND t.kind_id = 2 AND ci.role_id <= 3",
    )
    .unwrap();
    let plan = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap();
    let mut pool = BufferPool::new(512);
    let m = execute(&plan.root, &q, &db, &mut pool, &opt.params, &ChargeRates::default()).unwrap();
    assert_eq!(m.output.len(), 1);
    let count = m.output[0][0].as_int().unwrap();
    assert!(count > 0);
    let min_year = m.output[0][1].as_float().unwrap();
    assert!((1990.0..=2019.0).contains(&min_year), "kind 2 is recent: {min_year}");
}

#[test]
fn explain_renders_for_every_workload_query() {
    let (db, wl) =
        build_imdb(&ImdbConfig { scale: 0.05, n_queries: 40, dynamic: false, seed: 2 }).unwrap();
    let cat = StatsCatalog::analyze(&db, 500, 2);
    let opt = Optimizer::postgres();
    for step in &wl.steps {
        let plan = opt.plan(&step.query, &db, &cat, HintSet::all_enabled()).unwrap();
        let text = plan.root.explain();
        assert!(text.contains("rows="), "{text}");
        assert!(plan.root.node_count() >= 1);
    }
}

#[test]
fn identical_runs_are_identical() {
    let (db, wl) =
        build_imdb(&ImdbConfig { scale: 0.05, n_queries: 40, dynamic: true, seed: 3 }).unwrap();
    let run = |db: &bao_storage::Database| {
        let mut settings = BaoSettings::fast(3);
        settings.retrain = 15;
        let mut cfg = RunConfig::new(N1_4, Strategy::Bao(settings));
        cfg.seed = 99;
        Runner::new(cfg, db.clone()).run(&wl).unwrap()
    };
    let a = run(&db);
    let b = run(&db);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(ra.arm, rb.arm, "query {}", ra.idx);
        assert_eq!(ra.latency, rb.latency);
        assert_eq!(ra.physical_io, rb.physical_io);
    }
    assert_eq!(a.total_gpu, b.total_gpu);
}

#[test]
fn stack_drift_run_keeps_answers_consistent() {
    // After each month loads, re-running the same recent-month count must
    // see more rows, and the engine must stay consistent across hints.
    let (db, wl) = build_stack(&StackConfig {
        scale: 0.05,
        n_queries: 30,
        initial_months: 2,
        total_months: 4,
        seed: 4,
    })
    .unwrap();
    let cfg = RunConfig::new(N1_4, Strategy::Traditional);
    let res = Runner::new(cfg, db).run(&wl).unwrap();
    assert_eq!(res.records.len(), 30);
}

#[test]
fn model_kinds_all_run_through_harness() {
    let (db, wl) =
        build_imdb(&ImdbConfig { scale: 0.05, n_queries: 30, dynamic: false, seed: 5 }).unwrap();
    for model in [ModelKind::TcnnFast, ModelKind::RandomForest, ModelKind::Linear] {
        let mut settings = BaoSettings::fast(3);
        settings.model = model;
        settings.retrain = 10;
        let cfg = RunConfig::new(N1_16, Strategy::Bao(settings));
        let res = Runner::new(cfg, db.clone()).run(&wl).unwrap();
        assert_eq!(res.records.len(), 30, "{model:?}");
        assert!(res.total_gpu.as_ms() > 0.0, "{model:?} should retrain");
    }
}

#[test]
fn optimization_time_scales_with_arm_count() {
    let (db, wl) =
        build_imdb(&ImdbConfig { scale: 0.05, n_queries: 15, dynamic: false, seed: 6 }).unwrap();
    let opt_time = |arms: usize| {
        let mut cfg = RunConfig::new(N1_4, Strategy::Optimal { arms: HintSet::top_arms(arms) });
        cfg.sequential_arms = true;
        Runner::new(cfg, db.clone()).run(&wl).unwrap().total_opt
    };
    let t2 = opt_time(2);
    let t10 = opt_time(10);
    assert!(t10 > t2 * 2.0, "sequential planning must scale: {t2:?} vs {t10:?}");
}

#[test]
fn cloud_costs_are_consistent_with_time() {
    let (db, wl) =
        build_imdb(&ImdbConfig { scale: 0.05, n_queries: 20, dynamic: false, seed: 7 }).unwrap();
    let cfg = RunConfig::new(N1_16, Strategy::Traditional);
    let res = Runner::new(cfg, db).run(&wl).unwrap();
    let cost = res.cost(N1_16);
    let expected = res.workload_time().as_hours() * N1_16.usd_per_hour;
    assert!((cost.vm_usd - expected).abs() < 1e-12);
    assert_eq!(cost.gpu_usd, 0.0);
}
