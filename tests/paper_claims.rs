//! Executable checks of the paper's headline claims at reduced scale.
//! Each test pins the *shape* of a result from the evaluation section
//! (who wins, in which direction) with fixed seeds; EXPERIMENTS.md
//! records the corresponding full-size numbers.

use bao_cloud::N1_16;
use bao_common::rng_from_seed;
use bao_common::stats::percentile;
use bao_exec::{execute, ChargeRates};
use bao_harness::{BaoSettings, RunConfig, Runner, Strategy};
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;
use bao_workloads::imdb::{build_imdb_database, instantiate_template};
use bao_workloads::{build_imdb, ImdbConfig};

/// Figure 1: disabling loop joins helps the 16b-like query and hurts the
/// 24b-like query — no single hint set is universally good.
#[test]
fn figure1_shape_loop_join_tradeoff() {
    let db = build_imdb_database(0.1, 42).unwrap();
    let cat = StatsCatalog::analyze(&db, 500, 42);
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();
    let no_loop = HintSet::from_masks(0b011, 0b111);

    let latency = |template: usize, hints: HintSet| {
        let mut rng = rng_from_seed(42);
        let (_, q) = instantiate_template(template, 0.1, &mut rng);
        let plan = opt.plan(&q, &db, &cat, hints).unwrap();
        let mut pool = BufferPool::new(340);
        execute(&plan.root, &q, &db, &mut pool, &opt.params, &rates).unwrap().latency.as_ms()
    };

    // 16b-like: default (loop cascade) at least 2x slower than hinted.
    let q09_default = latency(9, HintSet::all_enabled());
    let q09_hinted = latency(9, no_loop);
    assert!(
        q09_default > q09_hinted * 2.0,
        "16b-like should improve: {q09_default} vs {q09_hinted}"
    );

    // 24b-like: hinted (forced hash) at least 3x slower than default.
    let q10_default = latency(10, HintSet::all_enabled());
    let q10_hinted = latency(10, no_loop);
    assert!(
        q10_hinted > q10_default * 3.0,
        "24b-like should regress: {q10_default} vs {q10_hinted}"
    );
}

/// Figures 7/10: after training, Bao's per-query latency beats the
/// PostgreSQL-like optimizer's on the same workload suffix.
#[test]
fn bao_beats_postgres_after_training() {
    let n = 240;
    let (db, wl) =
        build_imdb(&ImdbConfig { scale: 0.08, n_queries: n, dynamic: true, seed: 7 }).unwrap();
    let mut settings = BaoSettings::fast(6);
    settings.window = n;
    settings.retrain = 40;
    let mut cfg = RunConfig::new(N1_16, Strategy::Bao(settings));
    cfg.seed = 7;
    let bao = Runner::new(cfg, db.clone()).run(&wl).unwrap();
    let mut cfg = RunConfig::new(N1_16, Strategy::Traditional);
    cfg.seed = 7;
    let trad = Runner::new(cfg, db).run(&wl).unwrap();

    let suffix = n / 2;
    let bao_tail: f64 = bao.records[suffix..].iter().map(|r| r.latency.as_ms()).sum();
    let trad_tail: f64 = trad.records[suffix..].iter().map(|r| r.latency.as_ms()).sum();
    assert!(
        bao_tail < trad_tail * 0.9,
        "trained Bao should win the second half: {bao_tail:.0} vs {trad_tail:.0}"
    );
}

/// Second-half per-query latencies (Bao, traditional) for one seed —
/// the raw material of the Figure 9 tail-vs-median measurement.
fn tail_latencies(seed: u64) -> (Vec<f64>, Vec<f64>) {
    let n = 240;
    let (db, wl) =
        build_imdb(&ImdbConfig { scale: 0.08, n_queries: n, dynamic: true, seed }).unwrap();
    let mut settings = BaoSettings::fast(6);
    settings.window = n;
    settings.retrain = 40;
    let mut cfg = RunConfig::new(N1_16, Strategy::Bao(settings));
    cfg.seed = seed;
    let bao = Runner::new(cfg, db.clone()).run(&wl).unwrap();
    let mut cfg = RunConfig::new(N1_16, Strategy::Traditional);
    cfg.seed = seed;
    let trad = Runner::new(cfg, db).run(&wl).unwrap();

    let half = n / 2;
    let bao_lat: Vec<f64> = bao.records[half..].iter().map(|r| r.latency.as_ms()).collect();
    let trad_lat: Vec<f64> = trad.records[half..].iter().map(|r| r.latency.as_ms()).collect();
    (bao_lat, trad_lat)
}

/// Figure 9: the win concentrates in the tail — p99 improves much more
/// than the median (which the paper reports as < 5% improved). Asserted
/// over the latency distribution *pooled across five seeds* rather than
/// on one hand-picked seed: at this reduced scale most individual seeds
/// produce no catastrophic plan inside the measured window (no tail to
/// improve, ratios ≈ 1), so any single-seed assertion either curates its
/// seed or flakes. Pooling keeps the disasters in the tail of one
/// honest, seed-robust distribution — the regime Figure 9 describes.
#[test]
fn tail_latency_improves_more_than_median() {
    let seeds = [7u64, 13, 17, 23, 42];
    let mut bao_all = Vec::new();
    let mut trad_all = Vec::new();
    for seed in seeds {
        let (b, t) = tail_latencies(seed);
        println!(
            "seed {seed}: per-seed p90 ratio {:.3}",
            percentile(&b, 90.0) / percentile(&t, 90.0)
        );
        bao_all.extend(b);
        trad_all.extend(t);
    }
    let ratio = |p: f64| percentile(&bao_all, p) / percentile(&trad_all, p);
    let (p99, p90, p50) = (ratio(99.0), ratio(90.0), ratio(50.0));
    println!(
        "pooled ratios over {} queries: p99 {p99:.3} p90 {p90:.3} p50 {p50:.3}",
        bao_all.len()
    );
    assert!(p99 < 0.85, "pooled tail should improve markedly: p99 ratio {p99:.3}");
    assert!(p50 > 0.5, "pooled median should change far less than the tail: p50 ratio {p50:.3}");
    // The tail win must exceed the median win — the distributional shape
    // Figure 9 is actually about.
    assert!(
        p99 < p50,
        "tail improvement should exceed median improvement: p99 {p99:.3} vs p50 {p50:.3}"
    );
}

/// Regression-only pin of the historical hand-picked seed: seed 17 is
/// known to contain a catastrophic traditional plan in the measured
/// window, and Bao must keep avoiding it. The claim itself is asserted
/// seed-robustly above; this exists to catch behavioural drift on a
/// known-bad instance, not to establish the claim.
#[test]
fn tail_latency_seed17_regression() {
    let (bao_lat, trad_lat) = tail_latencies(17);
    // ~120 second-half queries: p99 would be a single-sample statistic,
    // so p90 is the stable tail measure at single-seed granularity.
    let p90_ratio = percentile(&bao_lat, 90.0) / percentile(&trad_lat, 90.0);
    let p50_ratio = percentile(&bao_lat, 50.0) / percentile(&trad_lat, 50.0);
    assert!(p90_ratio < 0.85, "tail should improve markedly: ratio {p90_ratio:.2}");
    assert!(p50_ratio > 0.5, "median should change far less than the tail: ratio {p50_ratio:.2}");
}

/// §6.3: the optimal per-query hint choice strictly dominates both the
/// default optimizer and any single fixed hint set.
#[test]
fn per_query_hints_beat_any_single_hint_set() {
    let n = 60;
    let (db, wl) =
        build_imdb(&ImdbConfig { scale: 0.08, n_queries: n, dynamic: false, seed: 9 }).unwrap();
    let arms = HintSet::top_arms(6);
    let mut cfg = RunConfig::new(N1_16, Strategy::Optimal { arms: arms.clone() });
    cfg.cold_cache = true;
    cfg.seed = 9;
    let oracle = Runner::new(cfg, db).run(&wl).unwrap();

    let mut per_arm_totals = vec![0.0f64; arms.len()];
    let mut optimal_total = 0.0;
    for r in &oracle.records {
        let perfs = r.arm_perfs.as_ref().unwrap();
        for (i, &p) in perfs.iter().enumerate() {
            per_arm_totals[i] += p;
        }
        optimal_total += perfs.iter().cloned().fold(f64::INFINITY, f64::min);
    }
    for (i, &total) in per_arm_totals.iter().enumerate() {
        assert!(
            optimal_total <= total + 1e-6,
            "oracle must dominate arm {i}: {optimal_total} vs {total}"
        );
    }
    // And strictly: no single arm achieves the oracle's total.
    let best_single = per_arm_totals.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        optimal_total < best_single * 0.98,
        "per-query choice should strictly beat the best fixed arm"
    );
}

/// §6.2 worst case: on the fastest-20% sub-workload Bao cannot lose by
/// more than its optimization overhead (paper: 4.2m -> 4.5m, ~7%).
#[test]
fn overhead_bounded_on_fast_queries() {
    let n = 150;
    let (db, wl) =
        build_imdb(&ImdbConfig { scale: 0.08, n_queries: n, dynamic: false, seed: 10 }).unwrap();
    let mut cfg = RunConfig::new(N1_16, Strategy::Traditional);
    cfg.seed = 10;
    let base = Runner::new(cfg, db.clone()).run(&wl).unwrap();
    // fastest 20%
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| base.records[a].latency.partial_cmp(&base.records[b].latency).unwrap());
    let keep: std::collections::HashSet<usize> = order[..n / 5].iter().copied().collect();
    let fast = bao_workloads::Workload {
        name: "fast20".into(),
        steps: wl
            .steps
            .iter()
            .enumerate()
            .filter(|(i, _)| keep.contains(i))
            .map(|(_, s)| s.clone())
            .collect(),
    };
    let mut settings = BaoSettings::fast(6);
    settings.retrain = 10;
    let mut cfg = RunConfig::new(N1_16, Strategy::Bao(settings));
    cfg.seed = 10;
    let bao = Runner::new(cfg, db.clone()).run(&fast).unwrap();
    let mut cfg = RunConfig::new(N1_16, Strategy::Traditional);
    cfg.seed = 10;
    let trad = Runner::new(cfg, db).run(&fast).unwrap();
    assert!(
        bao.workload_time().as_ms() < trad.workload_time().as_ms() * 2.0,
        "Bao's worst case is bounded overhead: {:.0}ms vs {:.0}ms",
        bao.workload_time().as_ms(),
        trad.workload_time().as_ms()
    );
}
