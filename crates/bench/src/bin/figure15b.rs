//! Figure 15b: accuracy of Bao's predictive model over time — the median
//! q-error (0 = perfect) of its latency prediction for the *next* query's
//! chosen plan, in a sliding window.

use bao_bench::timing::note_headlines;
use bao_bench::{bao_settings, build_workload, print_header, Args, Table, WorkloadName};
use bao_cloud::N1_16;
use bao_common::stats::{median, qerror_zero_based};
use bao_core::{Bao, BaoConfig};
use bao_exec::execute;
use bao_opt::Optimizer;
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;

fn main() {
    let args = Args::from_env();
    let scale = args.scale(0.15);
    let n = args.queries(400);
    let seed = args.seed();

    print_header(
        "Figure 15b: median q-error of Bao's model vs queries processed (IMDb)",
        &format!("(scale {scale}, {n} queries; paper: early peak ~3, falling as experience grows)"),
    );

    let (db, wl) = build_workload(WorkloadName::Imdb, scale, n, seed).expect("workload");
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();
    let settings = bao_settings(6, n);
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

    let mut errors: Vec<(usize, f64)> = Vec::new();
    for (i, step) in wl.steps.iter().enumerate() {
        let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool)).unwrap();
        let m = execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
        if let Some(pred) = sel.predictions[sel.arm] {
            errors.push((i, qerror_zero_based(pred, m.latency.as_ms())));
        }
        bao.observe(sel.tree, m.latency.as_ms());
    }

    let mut t = Table::new(&["Queries processed", "Median q-error (window of 50)"]);
    let mut final_qerror = f64::NAN;
    for end in (50..=errors.len()).step_by(50) {
        let window: Vec<f64> =
            errors[end.saturating_sub(50)..end].iter().map(|&(_, e)| e).collect();
        final_qerror = median(&window);
        t.row(vec![
            format!("{}", errors[end - 1].0 + 1),
            format!("{final_qerror:.2}"),
        ]);
    }
    t.print();
    println!();
    println!("(Predictions exist only once the model is first trained; despite early");
    println!("inaccuracy, selection avoids catastrophic plans — Figure 10's curves.)");
    // Headline: end-of-run model accuracy, folded to larger-is-better
    // (1 = perfect predictions, ->0 as q-error grows).
    note_headlines(
        &[("fig15b_final_accuracy", 1.0 / (1.0 + final_qerror))],
        args.has("update-baseline"),
    );
}
