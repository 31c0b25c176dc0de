//! Ablations of Bao's own design choices (DESIGN.md §4).

use super::{imdb, run};
use bao_bench::{bao_settings, print_header, Args, Table};
use bao_cloud::N1_16;
use bao_common::stats::{mean, percentile};
use bao_common::{rng_from_seed, split_seed};
use bao_core::Featurizer;
use bao_exec::execute;
use bao_harness::{BaoSettings, RunResult, Strategy};
use bao_models::{bootstrap_sample, TargetNorm};
use bao_nn::{train, FeatTree, ScoreScratch, TcnnConfig, TrainConfig, TreeCnn};
use bao_opt::{HintSet, Optimizer, OptimizerProfile};
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};
use bao_workloads::Workload;

/// One Bao run on the PostgreSQL-like engine, N1-16.
fn bao_run(db: &Database, wl: &Workload, settings: BaoSettings, seed: u64) -> RunResult {
    run(db, wl, N1_16, OptimizerProfile::PostgresLike, Strategy::Bao(settings), seed)
}

/// Cache-state featurization on vs off.
///
/// Paper §3.1.1: "when Bao's feature representation is augmented with
/// information about the cache, Bao can learn how to change query plans
/// based on the cache state." The warm-cache IMDb run exercises this.
pub fn cache(args: &Args) {
    let scale = args.scale(0.12);
    let n = args.queries(300);
    let seed = args.seed();

    print_header(
        "Ablation: cache-state features on/off (warm cache, IMDb)",
        &format!("(scale {scale}, {n} queries)"),
    );

    let (db, wl) = imdb(scale, n, seed);
    let mut t = Table::new(&["Featurization", "Exec (s)", "p99 (ms)"]);
    for (label, cache_features) in
        [("with cache features", true), ("without cache features", false)]
    {
        let res = bao_run(&db, &wl, BaoSettings { cache_features, ..bao_settings(6, n) }, seed);
        let p99 = percentile(&res.latencies_ms(), 99.0);
        t.row(vec![
            label.to_string(),
            format!("{:.2}", res.total_exec.as_secs()),
            format!("{p99:.0}"),
        ]);
    }
    t.print();
}

/// Thompson sampling via bootstrap vs pure maximum-likelihood training
/// (no exploration).
///
/// Paper §3: training on a bootstrap of the experience samples model
/// parameters from P(θ|E), balancing exploration and exploitation; a pure
/// MLE model "never tries alternative strategies, never learns when we
/// are wrong".
pub fn exploration(args: &Args) {
    let scale = args.scale(0.12);
    let n = args.queries(300);
    let seed = args.seed();

    print_header(
        "Ablation: bootstrap Thompson sampling vs greedy MLE",
        &format!("(IMDb scale {scale}, {n} queries, averaged over 3 seeds)"),
    );

    let (db, wl) = imdb(scale, n, seed);
    let mut t = Table::new(&["Training", "Mean exec (s)", "Worst seed (s)"]);
    for (label, bootstrap) in [("bootstrap (Thompson)", true), ("full window (greedy MLE)", false)]
    {
        let totals: Vec<f64> = (0..3u64)
            .map(|s_off| {
                let settings = BaoSettings { bootstrap, ..bao_settings(6, n) };
                bao_run(&db, &wl, settings, seed + s_off).total_exec.as_secs()
            })
            .collect();
        let mean = mean(&totals);
        let worst = totals.iter().cloned().fold(0.0f64, f64::max);
        t.row(vec![label.to_string(), format!("{mean:.2}"), format!("{worst:.2}")]);
    }
    t.print();
}

/// Sliding-window size k and retrain period n — the §3.2 knobs trading
/// model quality against training overhead.
pub fn window(args: &Args) {
    let scale = args.scale(0.12);
    let n = args.queries(300);
    let seed = args.seed();

    print_header(
        "Ablation: window size k and retrain period n",
        &format!("(IMDb scale {scale}, {n} queries; paper defaults k = 2000, n = 100)"),
    );

    let (db, wl) = imdb(scale, n, seed);
    let mut t = Table::new(&["k (window)", "n (retrain)", "Exec (s)", "GPU (s)", "Retrains"]);
    for (window, retrain) in [(50, 50), (150, 50), (n, 50), (n, 25), (n, 100)] {
        let res = bao_run(&db, &wl, BaoSettings { window, retrain, ..bao_settings(6, n) }, seed);
        let retrains = res.records.iter().filter(|r| r.gpu_time.as_ms() > 0.0).count();
        t.row(vec![
            format!("{window}"),
            format!("{retrain}"),
            format!("{:.2}", res.total_exec.as_secs()),
            format!("{:.1}", res.total_gpu.as_secs()),
            format!("{retrains}"),
        ]);
    }
    t.print();
    println!();
    println!("Too small a window forgets the catastrophic plans Bao learned to avoid;");
    println!("frequent retraining costs GPU time for little extra quality.");
}

/// Triggered exploration for performance-critical queries (paper §4).
/// Marking a query executes every arm once, flags the experiences as
/// critical, and guarantees the retrained model keeps choosing that
/// query's best plan.
pub fn critical(args: &Args) {
    let scale = args.scale(0.12);
    let n = args.queries(150);
    let seed = args.seed();

    print_header(
        "Ablation: triggered exploration (critical queries, §4)",
        &format!("(IMDb scale {scale}, {n} background queries)"),
    );

    let (db, wl) = imdb(scale, n, seed);
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();
    // Cache-blind featurization: the critical-query guarantee pins the
    // model's ranking of specific plan *trees*; with cache features the
    // tree varies with buffer state, so hard pinning uses the
    // state-independent encoding.
    let settings = BaoSettings { cache_features: false, ..bao_settings(6, n) };

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
        let mut bao = settings.build(seed);
        let mut pool = BufferPool::new(N1_16.buffer_pool_pages());
        if mark {
            for step in &marked {
                let (_, family) =
                    bao.evaluate_arms(&opt, &step.query, &db, &cat, Some(&pool)).unwrap();
                // Each distinct plan runs once, cold, at its last arm's
                // turn: the pool ends as running every arm in order left it.
                let arms = &family.arm_plan;
                let mut latency = vec![0.0; family.plans.len()];
                for (arm, &p) in arms.iter().enumerate() {
                    if !arms[arm + 1..].contains(&p) {
                        pool.clear();
                        let plan = &family.plans[p].0;
                        let m = execute(plan, &step.query, &db, &mut pool, &opt.params, &rates)
                            .unwrap();
                        latency[p] = m.latency.as_ms();
                    }
                }
                let entries =
                    arms.iter().map(|&p| (family.plans[p].1.clone(), latency[p])).collect();
                bao.add_critical(step.label.clone(), entries);
            }
        }
        let mut rounds = 0;
        for step in &wl.steps {
            let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool)).unwrap();
            let m = execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
            if let Some(r) = bao.observe(sel.tree, m.latency.as_ms()) {
                rounds += r.critical_rounds;
            }
        }
        // After the run, check the marked queries' selections.
        let mut regressions = 0;
        for step in &marked {
            let sel = bao.select_plan(&opt, &step.query, &db, &cat, Some(&pool)).unwrap();
            pool.clear();
            let m = execute(&sel.plan, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
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

fn std_dev(xs: &[f64]) -> f64 {
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Mean over trees of the std of each tree's prediction across draws.
fn mean_spread(draws: &[Vec<f32>], n_trees: usize) -> f64 {
    let per_tree: Vec<f64> = (0..n_trees)
        .map(|i| std_dev(&draws.iter().map(|d| d[i] as f64).collect::<Vec<f64>>()))
        .collect();
    mean(&per_tree)
}

/// Extension ablation: posterior sampling mechanisms for Thompson
/// sampling — the bootstrap the paper chose (§3.1.2, "we selected this
/// bootstrapping technique for its simplicity") versus the MC-dropout
/// alternative it cites (Gal & Ghahramani [24], Riquelme et al. [68]).
///
/// Both mechanisms are compared on the magnitude and placement of their
/// posterior spread: how much sampled predictions vary per plan, and
/// whether plans from never-executed hint sets get more spread than
/// well-observed ones.
pub fn dropout(args: &Args) {
    let scale = args.scale(0.08);
    let n = args.queries(150);
    let seed = args.seed();
    let samples = args.usize("samples", 8);

    print_header(
        "Extension: bootstrap vs MC-dropout posterior sampling",
        &format!("(IMDb scale {scale}, {n} training executions, {samples} posterior draws)"),
    );

    // Training experiences: default-arm plans only, so hinted plans are
    // out-of-distribution.
    let (db, wl) = imdb(scale, n + 10, seed);
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = N1_16.charge_rates();
    let featurizer = Featurizer::new(false);
    let mut trees: Vec<FeatTree> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut pool = BufferPool::new(N1_16.buffer_pool_pages());
    for step in wl.steps.iter().take(n) {
        let plan = opt.plan(&step.query, &db, &cat, HintSet::all_enabled()).unwrap();
        let m = execute(&plan.root, &step.query, &db, &mut pool, &opt.params, &rates).unwrap();
        trees.push(featurizer.featurize(&plan.root, &step.query, &db, None));
        ys.push(m.latency.as_ms());
    }
    let norm = TargetNorm::fit(&ys);
    let zs: Vec<f32> = ys.iter().map(|&y| norm.forward(y) as f32).collect();
    let tc = TrainConfig { max_epochs: 40, ..TrainConfig::default() };

    // Evaluation plans: default-arm (familiar) and forced-merge-join
    // (never executed during training).
    let eval_trees = |hints: HintSet| -> Vec<FeatTree> {
        wl.steps
            .iter()
            .skip(n)
            .take(10)
            .map(|s| {
                let plan = opt.plan(&s.query, &db, &cat, hints).unwrap();
                featurizer.featurize(&plan.root, &s.query, &db, None)
            })
            .collect()
    };
    let familiar = eval_trees(HintSet::all_enabled());
    let unfamiliar = eval_trees(HintSet::from_masks(0b010, 0b001));

    // --- Bootstrap ensemble: K models, each on its own resample.
    let mut boot_nets = Vec::with_capacity(samples);
    for k in 0..samples {
        let idx = bootstrap_sample(trees.len(), split_seed(seed, 100 + k as u64));
        let bt: Vec<FeatTree> = idx.iter().map(|&i| trees[i].clone()).collect();
        let bz: Vec<f32> = idx.iter().map(|&i| zs[i]).collect();
        let mut net = TreeCnn::new(TcnnConfig::tiny(featurizer.input_dim()), 200 + k as u64);
        train(&mut net, &bt, &bz, &TrainConfig { seed: k as u64, ..tc });
        boot_nets.push(net);
    }
    let boot_spread = |set: &[FeatTree]| -> f64 {
        // Each ensemble member scores the whole set in one call.
        let refs: Vec<&FeatTree> = set.iter().collect();
        let mut scratch = ScoreScratch::new();
        let member_preds: Vec<Vec<f32>> =
            boot_nets.iter().map(|n| n.score(&refs, &mut scratch)).collect();
        mean_spread(&member_preds, set.len())
    };

    // --- MC-dropout: one model, K stochastic draws.
    let mut drop_net =
        TreeCnn::new(TcnnConfig::tiny(featurizer.input_dim()).with_dropout(0.2), 300);
    train(&mut drop_net, &trees, &zs, &TrainConfig { seed, ..tc });
    let mc_spread = |set: &[FeatTree]| -> f64 {
        // One packed batch per posterior draw: every tree shares draw k's
        // dropout stream, and the whole set runs as a single forward pass.
        let refs: Vec<&FeatTree> = set.iter().collect();
        let draws: Vec<Vec<f32>> = (0..samples)
            .map(|k| {
                let mut rng = rng_from_seed(split_seed(seed, 400 + k as u64));
                drop_net.predict_sample_batch(&refs, &mut rng)
            })
            .collect();
        mean_spread(&draws, set.len())
    };

    let mut t = Table::new(&[
        "Mechanism",
        "Spread on familiar plans",
        "Spread on unfamiliar plans",
        "Ratio",
    ]);
    for (name, fam, unfam) in [
        ("bootstrap ensemble", boot_spread(&familiar), boot_spread(&unfamiliar)),
        ("MC-dropout", mc_spread(&familiar), mc_spread(&unfamiliar)),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{fam:.3}"),
            format!("{unfam:.3}"),
            format!("{:.2}", unfam / fam.max(1e-9)),
        ]);
    }
    t.print();
    println!();
    println!("(Spreads are mean per-plan std of normalized predictions across draws.)");
    println!("At this scale the bootstrap ensemble's posterior spread is substantially");
    println!("wider than MC-dropout's — each resampled network lands in a different");
    println!("basin, which is what makes bootstrap-driven Thompson sampling");
    println!("explore aggressively (and why the paper found it sufficient). Neither");
    println!("mechanism concentrates extra uncertainty on unseen hint sets here: the");
    println!("featurization is schema-agnostic, so hinted plans are not far out of");
    println!("distribution — exploration pressure comes from overall spread instead.");
}
