//! Figure 16: regret distributions when Bao is trained against different
//! performance metrics — CPU time (a) and physical I/O (b) — over
//! iterations of 50 queries each, cold cache, with the optimal hint set
//! computed by exhaustively executing every arm.
//!
//! Paper shape: from the first post-training iteration, Bao's median and
//! p98 regret fall well below the PostgreSQL optimizer's, and a
//! CPU-trained Bao wins on CPU regret while an I/O-trained Bao wins on
//! I/O regret (customizable optimization goals).

use bao_bench::timing::note_headlines;
use bao_bench::{bao_settings, build_workload, print_header, Args, Table, WorkloadName};
use bao_cloud::N1_16;
use bao_common::stats::{median, percentile};
use bao_core::{Bao, BaoConfig};
use bao_exec::{execute, PerfMetric};
use bao_harness::{exhaustive_arm_perfs, regret_of};
use bao_opt::Optimizer;
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;

fn main() {
    let args = Args::from_env();
    let scale = args.scale(0.12);
    let iterations = args.usize("iterations", 8);
    let per_iter = args.usize("per-iter", 50);
    let seed = args.seed();

    print_header(
        "Figure 16: regret vs the optimal hint set (cold cache, exhaustive oracle)",
        &format!(
            "(scale {scale}, {iterations} iterations x {per_iter} queries; \
             paper: 25 x 50 — reduce/grow with --iterations/--per-iter)"
        ),
    );

    let n = iterations * per_iter;
    let (db, wl) = build_workload(WorkloadName::Imdb, scale, n, seed).expect("workload");
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();
    let settings = bao_settings(6, n);

    let mut headlines: Vec<(&str, f64)> = Vec::new();
    for (metric, unit, panel) in [
        (PerfMetric::CpuTime, "ms CPU", "(a) CPU time regret (Bao trained on CPU time)"),
        (PerfMetric::PhysicalIo, "page reads", "(b) physical I/O regret (Bao trained on I/O)"),
    ] {
        println!("\n--- {panel}");
        let mut bao = Bao::with_model(
            BaoConfig {
                arms: settings.arms.clone(),
                window_size: settings.window,
                retrain_interval: per_iter,
                cache_features: false, // cold cache: no cache signal
                seed,
                ..BaoConfig::default()
            },
            settings.model.build(bao_core::Featurizer::new(false).input_dim()),
        );
        let pool_template = BufferPool::new(N1_16.buffer_pool_pages());

        let mut t = Table::new(&[
            "Iteration",
            &format!("PG median ({unit})"),
            "PG p98",
            "Bao median",
            "Bao p98",
        ]);
        for it in 0..iterations {
            let mut pg_regret = Vec::with_capacity(per_iter);
            let mut bao_regret = Vec::with_capacity(per_iter);
            for step in &wl.steps[it * per_iter..(it + 1) * per_iter] {
                let perfs = exhaustive_arm_perfs(
                    &opt,
                    &step.query,
                    &db,
                    &cat,
                    &settings.arms,
                    &pool_template,
                    metric,
                    true,
                )
                .unwrap();
                pg_regret.push(regret_of(perfs[0], &perfs));
                let sel =
                    bao.select_plan(&opt, &step.query, &db, &cat, None).unwrap();
                bao_regret.push(regret_of(perfs[sel.arm], &perfs));
                // Cold-cache execution feeds the experience.
                let mut pool = BufferPool::new(pool_template.capacity());
                let m = execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates)
                    .unwrap();
                bao.observe(sel.tree, m.perf(metric));
            }
            t.row(vec![
                format!("{}", it + 1),
                format!("{:.1}", median(&pg_regret)),
                format!("{:.1}", percentile(&pg_regret, 98.0)),
                format!("{:.1}", median(&bao_regret)),
                format!("{:.1}", percentile(&bao_regret, 98.0)),
            ]);
            // Headline per panel: final-iteration tail-regret gain over
            // PostgreSQL (+1 keeps a zero-regret tail finite).
            if it == iterations - 1 {
                headlines.push((
                    if matches!(metric, PerfMetric::CpuTime) {
                        "fig16_cpu_p98_regret_gain"
                    } else {
                        "fig16_io_p98_regret_gain"
                    },
                    (1.0 + percentile(&pg_regret, 98.0))
                        / (1.0 + percentile(&bao_regret, 98.0)),
                ));
            }
        }
        t.print();
    }
    note_headlines(&headlines, args.has("update-baseline"));
    println!();
    println!("Iteration 1 is pre-training (Bao = PostgreSQL); from iteration 2 on,");
    println!("Bao's tail regret drops below the traditional optimizer's.");
}
