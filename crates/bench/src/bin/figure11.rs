//! Figure 11: per-query regression analysis on the held-out JOB queries.
//!
//! Bao trains on the IMDb workload (JOB queries removed — different
//! template parameters, so no predicate overlap), then its model is
//! frozen and each of the 113 JOB queries is planned and executed once.
//! The paper finds only 3 of 113 regress, all under 3 seconds, while ten
//! queries improve by over 20 seconds.

use bao_bench::timing::note_headlines;
use bao_bench::{bao_settings, print_header, Args, Table};
use bao_cloud::N1_16;
use bao_common::stats::median;
use bao_core::{Bao, BaoConfig};
use bao_exec::{execute, ChargeRates};
use bao_harness::exhaustive_arm_perfs;
use bao_opt::Optimizer;
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;
use bao_workloads::imdb::{build_imdb, job_queries, ImdbConfig};

fn main() {
    let args = Args::from_env();
    let scale = args.scale(0.15);
    let n_train = args.queries(400);
    let seed = args.seed();
    let arms_n = args.usize("arms", 6);

    print_header(
        "Figure 11: latency delta on held-out JOB queries (Bao frozen after training)",
        &format!("(scale {scale}, {n_train} training queries; paper: 3/113 regress, all < 3s)"),
    );

    let (db, wl) =
        build_imdb(&ImdbConfig { scale, n_queries: n_train, dynamic: true, seed }).unwrap();
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();
    let settings = bao_settings(arms_n, n_train);

    // Train Bao on the non-JOB workload.
    let mut bao = Bao::with_model(
        BaoConfig {
            arms: settings.arms.clone(),
            window_size: settings.window,
            retrain_interval: settings.retrain,
            cache_features: true,
            seed,
            ..BaoConfig::default()
        },
        settings.model.build(bao_core::Featurizer::new(true).input_dim()),
    );
    let mut pool = BufferPool::new(N1_16.buffer_pool_pages());
    for step in &wl.steps {
        let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool)).unwrap();
        let m = execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
        bao.observe(sel.tree, m.latency.as_ms());
    }

    // Frozen evaluation on JOB (never observe).
    let job = job_queries(scale, seed + 1);
    let mut deltas_bao = Vec::new();
    let mut deltas_opt = Vec::new();
    let mut regressions = Vec::new();
    for (label, q) in &job {
        let sel = bao.select_plan(&opt, q, &db, &cat, Some(&pool)).unwrap();
        let perfs = exhaustive_arm_perfs(
            &opt,
            q,
            &db,
            &cat,
            &settings.arms,
            &pool,
            bao_exec::PerfMetric::Latency,
            false,
        )
        .unwrap();
        let pg = perfs[0];
        let bao_ms = perfs[sel.arm];
        let best = perfs.iter().cloned().fold(f64::INFINITY, f64::min);
        deltas_bao.push(bao_ms - pg);
        deltas_opt.push(best - pg);
        if bao_ms > pg * 1.05 && bao_ms - pg > 1.0 {
            regressions.push((label.clone(), bao_ms - pg));
        }
    }

    let improved = deltas_bao.iter().filter(|&&d| d < -1.0).count();
    let big_improved = deltas_bao.iter().filter(|&&d| d < -100.0).count();
    let mut worst: Vec<f64> = deltas_bao.clone();
    worst.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let mut t = Table::new(&["Metric", "Bao", "Optimal hint set"]);
    let sum = |v: &[f64]| v.iter().sum::<f64>() / 1_000.0;
    t.row(vec![
        "total delta (s, neg = faster)".into(),
        format!("{:+.2}", sum(&deltas_bao)),
        format!("{:+.2}", sum(&deltas_opt)),
    ]);
    t.row(vec![
        "median delta (ms)".into(),
        format!("{:+.1}", median(&deltas_bao)),
        format!("{:+.1}", median(&deltas_opt)),
    ]);
    t.row(vec![
        "queries improved >1ms".into(),
        format!("{improved}/113"),
        format!("{}/113", deltas_opt.iter().filter(|&&d| d < -1.0).count()),
    ]);
    t.row(vec![
        "queries improved >100ms".into(),
        format!("{big_improved}/113"),
        format!("{}/113", deltas_opt.iter().filter(|&&d| d < -100.0).count()),
    ]);
    t.row(vec![
        "regressions (>5% & >1ms)".into(),
        format!("{}/113", regressions.len()),
        "0/113".into(),
    ]);
    t.print();
    if !regressions.is_empty() {
        regressions.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        println!("\nworst regressions:");
        for (label, d) in regressions.iter().take(5) {
            println!("  {label}: +{d:.1} ms");
        }
    }
    println!("\nbiggest improvements: {:?} ms", &worst[..3.min(worst.len())]);
    // Headlines: the figure's claim is "many improve, almost none
    // regress" on held-out queries — track both fractions.
    let total = job.len().max(1) as f64;
    note_headlines(
        &[
            ("fig11_job_improved_frac", improved as f64 / total),
            ("fig11_job_non_regressed_frac", (job.len() - regressions.len()) as f64 / total),
        ],
        args.has("update-baseline"),
    );
}
