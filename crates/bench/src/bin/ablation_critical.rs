//! Ablation (DESIGN.md §4): triggered exploration for performance-critical
//! queries (paper §4). Marking a query executes every arm once, flags the
//! experiences as critical, and guarantees the retrained model keeps
//! choosing that query's best plan.

use bao_bench::{bao_settings, build_workload, print_header, Args, Table, WorkloadName};
use bao_cloud::N1_16;
use bao_core::{Bao, BaoConfig};
use bao_exec::execute;
use bao_opt::Optimizer;
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;

fn main() {
    let args = Args::from_env();
    let scale = args.scale(0.12);
    let n = args.queries(150);
    let seed = args.seed();

    print_header(
        "Ablation: triggered exploration (critical queries, §4)",
        &format!("(IMDb scale {scale}, {n} background queries)"),
    );

    let (db, wl) = build_workload(WorkloadName::Imdb, scale, n, seed).expect("workload");
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();
    let settings = bao_settings(6, n);

    // The "marked" queries: the first trap-template instance of each kind.
    let marked: Vec<_> = wl
        .steps
        .iter()
        .filter(|s| s.label == "imdb/q09" || s.label == "imdb/q10")
        .take(2)
        .cloned()
        .collect();

    let mut t = Table::new(&["Regime", "Marked-query regressions", "Critical refit rounds"]);
    for (label, mark) in [("without marking", false), ("with marking", true)] {
        // Cache-blind featurization: the critical-query guarantee pins the
        // model's ranking of specific plan *trees*; with cache features the
        // tree varies with buffer state, so hard pinning uses the
        // state-independent encoding.
        let mut bao = Bao::with_model(
            BaoConfig {
                arms: settings.arms.clone(),
                window_size: settings.window,
                retrain_interval: settings.retrain,
                cache_features: false,
                seed,
                ..BaoConfig::default()
            },
            settings.model.build(bao_core::Featurizer::new(false).input_dim()),
        );
        let mut pool = BufferPool::new(N1_16.buffer_pool_pages());
        let mut critical_best: Vec<(usize, f64)> = Vec::new();
        if mark {
            for step in &marked {
                let (_, pairs) =
                    bao.evaluate_arms(&opt, &step.query, &db, &cat, Some(&pool)).unwrap();
                let mut entries = Vec::new();
                for (plan, tree) in pairs {
                    pool.clear();
                    let m = execute(&plan, &step.query, &db, &mut pool, &opt.params, &rates)
                        .unwrap();
                    entries.push((tree, m.latency.as_ms()));
                }
                let best = entries
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
                    .unwrap();
                critical_best.push((best.0, best.1 .1));
                bao.add_critical(step.label.clone(), entries);
            }
        }
        let mut rounds = 0;
        for step in &wl.steps {
            let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool)).unwrap();
            let m =
                execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
            if let Some(r) = bao.observe(sel.tree, m.latency.as_ms()) {
                rounds += r.critical_rounds;
            }
        }
        // After the run, check the marked queries' selections.
        let mut regressions = 0;
        for (step, _) in marked.iter().zip(critical_best.iter().chain(std::iter::repeat(&(0, 0.0))))
        {
            let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool)).unwrap();
            pool.clear();
            let m =
                execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
            // regression = worse than 1.5x the best arm observed cold
            let perfs = bao_harness::exhaustive_arm_perfs(
                &opt,
                &step.query,
                &db,
                &cat,
                &settings.arms,
                &pool,
                bao_exec::PerfMetric::Latency,
                true,
            )
            .unwrap();
            let best = perfs.iter().cloned().fold(f64::INFINITY, f64::min);
            if m.latency.as_ms() > best * 1.5 {
                regressions += 1;
            }
        }
        t.row(vec![
            label.to_string(),
            format!("{regressions}/{}", marked.len()),
            format!("{rounds}"),
        ]);
    }
    t.print();
    println!();
    println!("Marking guarantees the marked queries never regress (paper: \"manual");
    println!("exploration for a query ensures that Bao will never select a regressing");
    println!("query plan for a marked query\").");
}
