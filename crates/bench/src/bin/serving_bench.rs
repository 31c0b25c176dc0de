//! Serving-layer benchmark: cross-query coalesced arm scoring and
//! end-to-end concurrent throughput, with a persisted baseline gate.
//!
//! Two measurements:
//!
//! 1. **What wave coalescing buys (gated).** Eight queries' 49-arm
//!    families are scored (a) one `TreeCnn::score` call per family, the
//!    way a concurrency-1 run does, and (b) in one `score` call over all
//!    392 trees, the way a serving wave does. Both sides run the same
//!    engine and dedup the heavily aliased arm plans, so the ratio is
//!    only what `bao-core` saves by concatenating families: seven sets of
//!    weight transposes and per-call set-up, plus whatever plans repeat
//!    *across* queries. It is small and it must not be below 1.0 — a
//!    coalesced call that loses to per-family calls means the engine's
//!    working set stopped being per-tree.
//!
//! 2. **Serving throughput (warn-only).** A full `ServingRunner` pass at
//!    concurrency 1/4/8 records simulated queries/sec. The makespan is
//!    `SimDuration` (machine-free and fully deterministic), but the
//!    values track workload composition rather than code quality, so
//!    they are recorded for trend visibility and never gated.
//!
//! `--gate` turns gated regressions into a non-zero exit
//! (`scripts/check.sh --bench-smoke`), `--quick` shrinks sample counts,
//! `--update-baseline` overwrites recorded values.

use bao_bench::timing::{BaselineStore, Group};
use bao_bench::{build_workload, print_header, Args, WorkloadName};
use bao_core::Featurizer;
use bao_harness::{BaoSettings, ModelKind, RunConfig, ServingConfig, ServingRunner, Strategy};
use bao_nn::{FeatTree, ScoreScratch, TcnnConfig, TreeCnn};
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;

/// Regression tolerance on gated ratio metrics.
const TOLERANCE: f64 = 0.20;
/// Acceptance floor: a concurrency-8 wave's one coalesced `score` call
/// must not lose to eight per-family calls.
const MIN_COALESCED_SPEEDUP: f64 = 1.0;
/// Waves scored per timed sample, so a sample is milliseconds long.
const REPS: usize = 10;
/// Queries per coalesced wave in the scoring microbenchmark.
const WAVE: usize = 8;

/// The exact tree sets a serving wave coalesces: every arm of the
/// 49-family planned and featurized for each of `n_queries` queries.
fn arm_trees(seed: u64, scale: f64, n_queries: usize) -> Vec<Vec<FeatTree>> {
    let (db, wl) = build_workload(WorkloadName::Imdb, scale, n_queries, seed).expect("workload");
    let cat = StatsCatalog::analyze(&db, 500, seed);
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

/// End-to-end serving run at the given concurrency; returns simulated
/// queries/sec (deterministic: the makespan is simulated time).
fn serving_qps(seed: u64, concurrency: usize) -> f64 {
    const SCALE: f64 = 0.02;
    const N_QUERIES: usize = 36;
    let (db, wl) = build_workload(WorkloadName::Imdb, SCALE, N_QUERIES, seed).expect("workload");
    let settings = BaoSettings {
        model: ModelKind::TcnnFast,
        window: N_QUERIES,
        retrain: 12,
        cache_features: false,
        ..BaoSettings::default()
    };
    let cfg = RunConfig {
        seed,
        stats_sample: 400,
        ..RunConfig::new(bao_cloud::N1_4, Strategy::Bao(settings))
    };
    let report = ServingRunner::new(cfg, db, ServingConfig::new(concurrency, concurrency))
        .run(&wl)
        .expect("serving run");
    report.queries_per_sec()
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let gate = args.has("gate");
    let update = args.has("update-baseline");
    let seed = args.seed();
    let scale = args.scale(0.03);
    let samples = if quick { 6 } else { 20 };

    print_header(
        "Concurrent serving benchmark",
        &format!("(IMDb scale {scale}, {samples} samples{})", if quick { ", quick" } else { "" }),
    );

    // --- Coalesced scoring: a wave of 8 arm families, one `score` call
    // per family vs one call over the whole wave.
    let per_query = arm_trees(seed, scale, WAVE);
    assert!(per_query.iter().all(|q| q.len() == 49), "expected 49-arm families");
    let input_dim = per_query[0][0].feat_dim;
    let net = TreeCnn::new(TcnnConfig::small(input_dim), seed);
    let per_refs: Vec<Vec<&FeatTree>> =
        per_query.iter().map(|q| q.iter().collect()).collect();
    let all_refs: Vec<&FeatTree> = per_query.iter().flatten().collect();

    // Sampled in turn, and compared by medians: the ratio is close to 1,
    // so a noise spell must land on both sides alike.
    let group = Group::new("serving_score", samples);
    let (mut family_scratch, mut scratch) = (ScoreScratch::new(), ScoreScratch::new());
    let stats = group.bench_interleaved(&mut [
        (&format!("per_family_x{WAVE}_x{REPS}"), &mut || {
            for _ in 0..REPS {
                for q in &per_refs {
                    std::hint::black_box(net.score(q, &mut family_scratch));
                }
            }
        }),
        (&format!("coalesced_{}_x{REPS}", all_refs.len()), &mut || {
            for _ in 0..REPS {
                std::hint::black_box(net.score(&all_refs, &mut scratch));
            }
        }),
    ]);
    let (serial, coalesced) = (stats[0].median / REPS as f64, stats[1].median / REPS as f64);
    let speedup = serial / coalesced;
    // Telemetry from the engine: how much of the wave was duplicate arms.
    let (scored, requested) = (scratch.last_scored, scratch.last_requested);
    let distinct_frac = scored as f64 / requested.max(1) as f64;
    println!();
    println!(
        "wave of {WAVE} queries ({} trees, {} distinct plans = {:.0}%):",
        requested,
        scored,
        distinct_frac * 100.0
    );
    println!(
        "  per-family scoring {:.3} ms, coalesced wave {:.3} ms -> {:.2}x",
        serial * 1e3,
        coalesced * 1e3,
        speedup
    );

    // --- End-to-end serving throughput (simulated, deterministic).
    println!();
    let mut qps = Vec::new();
    for &c in &[1usize, 4, 8] {
        let v = serving_qps(seed, c);
        println!("serving concurrency {c}: {v:.1} queries/sec (simulated)");
        qps.push((c, v));
    }

    // --- Baseline comparison. Gated: the coalesced-vs-per-family
    // scoring ratio. Warn-only: simulated throughputs (workload-shaped)
    // and the dedup rate (workload-shaped).
    let gated = [("serving_wave_vs_family_score_c8", speedup)];
    let warned = [
        ("serving_qps_c1", qps[0].1),
        ("serving_qps_c4", qps[1].1),
        ("serving_qps_c8", qps[2].1),
        ("serving_distinct_plan_frac", distinct_frac),
        (
            "serving_coalesced_plans_per_sec",
            requested as f64 / coalesced,
        ),
    ];
    let regression =
        BaselineStore::gate(&BaselineStore::repo_path(), &gated, &warned, TOLERANCE, update);

    println!();
    let target_ok = speedup >= MIN_COALESCED_SPEEDUP;
    println!(
        "coalesced wave scoring {:.2}x per-family calls (target >= {:.1}x): {}",
        speedup,
        MIN_COALESCED_SPEEDUP,
        if target_ok { "PASS" } else { "FAIL" }
    );
    if gate && (regression || !target_ok) {
        eprintln!("serving bench gate failed");
        std::process::exit(1);
    }
}
