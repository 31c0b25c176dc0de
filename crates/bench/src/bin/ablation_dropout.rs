//! Extension ablation: posterior sampling mechanisms for Thompson
//! sampling — the bootstrap the paper chose (§3.1.2, "we selected this
//! bootstrapping technique for its simplicity") versus the MC-dropout
//! alternative it cites (Gal & Ghahramani [24], Riquelme et al. [68]).
//!
//! Both mechanisms are compared on the magnitude and placement of their
//! posterior spread: how much sampled predictions vary per plan, and
//! whether plans from never-executed hint sets get more spread than
//! well-observed ones.

use bao_bench::timing::note_headlines;
use bao_bench::{build_workload, print_header, Args, Table, WorkloadName};
use bao_cloud::N1_16;
use bao_common::{rng_from_seed, split_seed};
use bao_core::Featurizer;
use bao_exec::execute;
use bao_models::{bootstrap_sample, TargetNorm};
use bao_nn::{train, FeatTree, ScoreScratch, TcnnConfig, TrainConfig, TreeCnn};
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;
use bao_storage::BufferPool;

fn std_dev(xs: &[f64]) -> f64 {
    let m = xs.iter().sum::<f64>() / xs.len() as f64;
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

fn main() {
    let args = Args::from_env();
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
    let (db, wl) = build_workload(WorkloadName::Imdb, scale, n + 10, seed).expect("workload");
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
        let per_tree: Vec<f64> = (0..set.len())
            .map(|i| {
                let preds: Vec<f64> = member_preds.iter().map(|p| p[i] as f64).collect();
                std_dev(&preds)
            })
            .collect();
        per_tree.iter().sum::<f64>() / per_tree.len() as f64
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
        let per_tree: Vec<f64> = (0..set.len())
            .map(|i| {
                let preds: Vec<f64> = draws.iter().map(|d| d[i] as f64).collect();
                std_dev(&preds)
            })
            .collect();
        per_tree.iter().sum::<f64>() / per_tree.len() as f64
    };

    let mut t = Table::new(&[
        "Mechanism",
        "Spread on familiar plans",
        "Spread on unfamiliar plans",
        "Ratio",
    ]);
    let boot_fam = boot_spread(&familiar);
    let mc_fam = mc_spread(&familiar);
    for (name, fam, unfam) in [
        ("bootstrap ensemble", boot_fam, boot_spread(&unfamiliar)),
        ("MC-dropout", mc_fam, mc_spread(&unfamiliar)),
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
    // Headline: how much wider the bootstrap posterior is than
    // MC-dropout's — the margin that justifies the paper's choice.
    note_headlines(
        &[("abl_dropout_bootstrap_vs_mc_spread", boot_fam / mc_fam.max(1e-9))],
        args.has("update-baseline"),
    );
}
