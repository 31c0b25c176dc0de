//! Microbenchmark for the TCNN trainer: the one wall-clock gate in the
//! repo that the benchmark in `benchmark/` does not cover.
//!
//! Measures minibatch training throughput inline (`threads: 1`) versus
//! auto (`threads: 0`, one per core) on the 49-arm families of real
//! IMDb queries, the two trainers sampled in turn. (Scoring is the
//! benchmark's `nn.score_family_us_mean` / `nn.score_wave_us_mean`:
//! every prediction runs one engine, so there is no second path to race
//! it against.) Nothing is recorded; `--quick` shrinks the work for smoke
//! use (`scripts/check.sh --bench-smoke`).
//!
//! One absolute floor, and a missed floor is always a non-zero exit:
//! auto-width training must not lose to inline training (on one core it
//! *is* inline). How far auto *wins* with >= 2 cores is printed, not
//! gated: on the 2-vCPU reference VM it reads 1.20-1.23 or, when the
//! guest scheduler stacks the helper on the coordinator's vCPU, 0.94-0.97
//! on unchanged code (DESIGN.md §8 "Known limit").

use bao_bench::timing::Group;
use bao_bench::{build_workload, print_header, Args, WorkloadName};
use bao_common::pool::resolve_width;
use bao_core::Featurizer;
use bao_nn::{train, FeatTree, TcnnConfig, TrainConfig, TreeCnn};
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;

/// The floor: auto-width training (`threads: 0`) must never lose to
/// inline (`threads: 1`). 0.85, not 1.0, because in the stacked-vCPU
/// spells above 90 consecutive `--quick` runs on unchanged code read
/// 0.87-1.04 (median 0.96, two of them under 0.90); a trainer that really
/// serialises behind its helpers reads well under that.
const MIN_AUTO_VS_INLINE: f64 = 0.85;

/// Plan each query under every arm in the 49-family and featurize each
/// plan — the tree sets `Bao::evaluate_arms` scores, and so the trees
/// Bao's experience is made of.
fn arm_trees(seed: u64, scale: f64, n_queries: usize) -> Vec<Vec<FeatTree>> {
    let (db, wl) = build_workload(WorkloadName::Imdb, scale, n_queries, seed).expect("workload");
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let featurizer = Featurizer::new(false);
    let arms = HintSet::family_49();
    wl.steps
        .iter()
        .take(n_queries)
        .map(|step| {
            arms.iter()
                .map(|&arm| {
                    let out = opt.plan(&step.query, &db, &cat, arm).expect("plan");
                    featurizer.featurize(&out.root, &step.query, &db, None)
                })
                .collect()
        })
        .collect()
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let seed = args.seed();
    let scale = args.scale(if quick { 0.03 } else { 0.06 });
    let cores = resolve_width(0);

    // A run is ~10 ms and varies by +-15 % on a shared host: the gate
    // needs a median over more than a handful.
    let train_samples = 15;
    print_header(
        "TCNN training benchmark",
        &format!(
            "(IMDb scale {scale}, {train_samples} samples{})",
            if quick { ", quick" } else { "" }
        ),
    );

    let per_query = arm_trees(seed, scale, 4);
    assert_eq!(per_query[0].len(), 49, "expected the 49-arm family");
    let input_dim = per_query[0][0].feat_dim;

    // --- Training throughput: the trainer inline and at auto width.
    let train_trees: Vec<FeatTree> = per_query.iter().flatten().cloned().collect();
    let targets: Vec<f32> =
        (0..train_trees.len()).map(|i| ((i * 7919) % 100) as f32 / 100.0).collect();
    let epochs = if quick { 2 } else { 5 };
    // Batch and shard size stay at the defaults every product model
    // trains with (16 / 8: two shards per minibatch), so the ratio below is
    // the one a retrain sees.
    let tc = TrainConfig {
        max_epochs: epochs,
        patience: epochs + 1, // no early stop: fixed work per run
        seed,
        threads: 1,
        ..TrainConfig::default()
    };
    let tgroup = Group::new("train", train_samples);
    let tree_epochs = (train_trees.len() * epochs) as f64;
    let fresh_net = || TreeCnn::new(TcnnConfig::small(input_dim), seed);
    // Sampled in turn, so the ratios of medians below survive a noise
    // spell that a block of one trainer's samples would absorb alone.
    let stats = tgroup.bench_interleaved(&mut [
        ("batched_1_thread", &mut || {
            train(&mut fresh_net(), &train_trees, &targets, &tc);
        }),
        ("batched_auto", &mut || {
            train(&mut fresh_net(), &train_trees, &targets, &TrainConfig { threads: 0, ..tc });
        }),
    ]);
    let (t_one, t_auto) = (stats[0], stats[1]);
    let train_auto_vs_inline = t_one.median / t_auto.median;
    println!();
    println!(
        "training: auto width {train_auto_vs_inline:.2}x 1 thread ({cores} core(s) available)"
    );
    println!(
        "training throughput: {:.0} tree-epochs/s (1 thread), {:.0} tree-epochs/s (auto)",
        tree_epochs / t_one.median,
        tree_epochs / t_auto.median,
    );

    println!();
    let auto_ok = train_auto_vs_inline >= MIN_AUTO_VS_INLINE;
    println!(
        "auto-width training {:.2}x inline (floor >= {:.2}x on every host; not gated: 1.20-1.23x measured on 2 cores, 0.87-1.04x when the helper shares a core; {} here): {}",
        train_auto_vs_inline,
        MIN_AUTO_VS_INLINE,
        cores,
        if auto_ok { "PASS" } else { "FAIL" }
    );
    if !auto_ok {
        eprintln!("bench gate failed");
        std::process::exit(1);
    }
}
