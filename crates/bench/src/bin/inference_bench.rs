//! Microbenchmark for the batched TCNN compute path, with a persisted
//! baseline gate.
//!
//! Measures (a) arm-scoring latency — the 49 candidate plans of a real
//! IMDb query scored one tree at a time versus as a single packed batch,
//! at batch sizes 1/8/49 — and (b) minibatch training throughput inline
//! (`threads: 1`) versus auto (`threads: 0`, one per core). Ratio metrics
//! (speedups) are recorded to
//! `results/bench_baselines.json`; later runs compare against the file
//! and warn on >20% regression. `--gate` turns ratio regressions into a
//! non-zero exit (the `scripts/check.sh --bench-smoke` stage), `--quick`
//! shrinks sample counts for smoke use, and `--update-baseline`
//! overwrites previously recorded values.
//!
//! Speedups are gated because they are machine-independent (the batched
//! path wins on instruction-level parallelism, not clock speed). The
//! training ratio `train_auto_vs_inline` is gated by absolute floors
//! only, because how far auto wins depends on the host: on every host
//! auto must not lose to inline (on one core it *is* inline), and with
//! >= 2 cores it must actually win. Its recorded baseline is warn-only.

use bao_bench::timing::{BaselineStore, Comparison, Group, Stats};
use bao_bench::{build_workload, print_header, Args, WorkloadName};
use bao_core::Featurizer;
use bao_nn::{train, train_reference, FeatTree, TcnnConfig, TrainConfig, TreeCnn};
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;

/// Regression tolerance on gated ratio metrics.
const TOLERANCE: f64 = 0.20;
/// Acceptance floor: batched 49-arm scoring must beat the per-tree loop
/// by at least this factor.
const MIN_BATCH49_SPEEDUP: f64 = 3.0;
/// Acceptance floor on every host: auto-width training (`threads: 0`)
/// must never lose to inline (`threads: 1`) by more than timer noise.
const MIN_AUTO_VS_INLINE: f64 = 0.95;
/// Acceptance floor on hosts with >= 2 cores, where auto spawns helpers.
const MIN_AUTO_VS_INLINE_MULTICORE: f64 = 1.3;

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_baselines.json")
}

/// Plan one query under every arm in the 49-family and featurize each
/// plan — the exact tree set `Bao::evaluate_arms` scores per query.
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
    let gate = args.has("gate");
    let update = args.has("update-baseline");
    let seed = args.seed();
    let scale = args.scale(if quick { 0.03 } else { 0.06 });
    let samples = if quick { 6 } else { 20 };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    print_header(
        "Batched TCNN inference / training benchmark",
        &format!("(IMDb scale {scale}, {samples} samples{})", if quick { ", quick" } else { "" }),
    );

    let per_query = arm_trees(seed, scale, 4);
    let arm_set: &[FeatTree] = &per_query[0];
    assert_eq!(arm_set.len(), 49, "expected the 49-arm family");
    let input_dim = arm_set[0].feat_dim;
    let net = TreeCnn::new(TcnnConfig::small(input_dim), seed);

    // --- Arm scoring: per-tree loop vs one packed batch.
    let group = Group::new("score", samples);
    let mut results: Vec<(usize, Stats, Stats)> = Vec::new();
    for &b in &[1usize, 8, 49] {
        let set = &arm_set[..b];
        let refs: Vec<&FeatTree> = set.iter().collect();
        let per_tree = group.bench_stats(&format!("per_tree_b{b}"), || {
            let mut acc = 0.0f32;
            for t in set {
                acc += net.predict(t);
            }
            std::hint::black_box(acc);
        });
        let batched = group.bench_stats(&format!("batched_b{b}"), || {
            std::hint::black_box(net.predict_batch(&refs));
        });
        results.push((b, per_tree, batched));
    }
    println!();
    let speedup = |b: usize| -> f64 {
        let &(_, pt, bt) = results.iter().find(|&&(n, _, _)| n == b).expect("batch size");
        pt.trimmed_mean / bt.trimmed_mean
    };
    for &(b, pt, bt) in &results {
        println!(
            "batch size {b:>2}: batched scoring {:.2}x the per-tree loop",
            pt.trimmed_mean / bt.trimmed_mean
        );
    }
    let speedup49 = speedup(49);
    let batched49 = results.iter().find(|&&(n, _, _)| n == 49).expect("b=49").2;

    // --- Training throughput: batched trainer inline and at auto width,
    // plus the per-tree reference loop for context.
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
    // A run is ~10 ms and varies by +-15 % on a shared host: the gate
    // needs a median over more than a handful.
    let train_samples = 15;
    let tgroup = Group::new("train", train_samples);
    let tree_epochs = (train_trees.len() * epochs) as f64;
    let fresh_net = || TreeCnn::new(TcnnConfig::small(input_dim), seed);
    // Sampled in turn, so the ratios of medians below survive a noise
    // spell that a block of one trainer's samples would absorb alone.
    let stats = tgroup.bench_interleaved(&mut [
        ("reference_per_tree", &mut || {
            train_reference(&mut fresh_net(), &train_trees, &targets, &tc);
        }),
        ("batched_1_thread", &mut || {
            train(&mut fresh_net(), &train_trees, &targets, &tc);
        }),
        ("batched_auto", &mut || {
            train(&mut fresh_net(), &train_trees, &targets, &TrainConfig { threads: 0, ..tc });
        }),
    ]);
    let (t_ref, t_one, t_auto) = (stats[0], stats[1], stats[2]);
    let train_speedup_batched = t_ref.median / t_one.median;
    let train_auto_vs_inline = t_one.median / t_auto.median;
    println!();
    println!(
        "training: batched 1-thread {:.2}x the per-tree reference, auto width {:.2}x 1 thread ({} core(s) available)",
        train_speedup_batched, train_auto_vs_inline, cores
    );
    println!(
        "training throughput: {:.0} tree-epochs/s (1 thread), {:.0} tree-epochs/s (auto)",
        tree_epochs / t_one.median,
        tree_epochs / t_auto.median,
    );

    // --- Baseline comparison.
    let path = baseline_path();
    let mut store = BaselineStore::load(&path).expect("load baselines");
    // Gated against the baseline: machine-independent ratios. Warn-only:
    // everything core-count dependent (auto width has its own absolute
    // floors below) and absolute throughputs.
    let gated: Vec<(&str, f64)> = vec![("score_batched_speedup_b49", speedup49)];
    let warned: Vec<(&str, f64)> = vec![
        ("score_batched_speedup_b8", speedup(8)),
        ("train_batched_speedup_1t", train_speedup_batched),
        ("train_auto_vs_inline", train_auto_vs_inline),
        ("train_tree_epochs_per_sec_1t", tree_epochs / t_one.median),
        ("score_batched_plans_per_sec_b49", 49.0 / batched49.trimmed_mean),
    ];
    println!();
    let mut regression = false;
    for (name, value) in gated.iter().chain(warned.iter()) {
        let is_gated = gated.iter().any(|(g, _)| g == name);
        match store.compare(name, *value, TOLERANCE) {
            Comparison::New => {
                println!("baseline {name}: recorded {value:.3} (new)");
                store.record(name, *value);
            }
            Comparison::Ok { ratio } => {
                println!("baseline {name}: {value:.3} ({:.0}% of baseline) ok", ratio * 100.0);
                if update {
                    store.record(name, *value);
                }
            }
            Comparison::Regressed { ratio } => {
                println!(
                    "WARNING: {name} regressed to {value:.3} ({:.0}% of baseline{})",
                    ratio * 100.0,
                    if is_gated { ", gated" } else { "" }
                );
                if is_gated {
                    regression = true;
                }
                if update {
                    store.record(name, *value);
                }
            }
        }
    }
    store.save().expect("save baselines");

    println!();
    let batch_ok = speedup49 >= MIN_BATCH49_SPEEDUP;
    println!(
        "49-arm batched speedup {:.2}x (target >= {:.1}x): {}",
        speedup49,
        MIN_BATCH49_SPEEDUP,
        if batch_ok { "PASS" } else { "FAIL" }
    );
    let auto_floor =
        if cores >= 2 { MIN_AUTO_VS_INLINE_MULTICORE } else { MIN_AUTO_VS_INLINE };
    let auto_ok = train_auto_vs_inline >= auto_floor;
    println!(
        "auto-width training {:.2}x inline (target >= {:.2}x on every host, >= {:.1}x with >= 2 cores; {} here): {}",
        train_auto_vs_inline,
        MIN_AUTO_VS_INLINE,
        MIN_AUTO_VS_INLINE_MULTICORE,
        cores,
        if auto_ok { "PASS" } else { "FAIL" }
    );
    if gate && (regression || !batch_ok || !auto_ok) {
        eprintln!("bench gate failed");
        std::process::exit(1);
    }
}
