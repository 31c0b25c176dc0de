//! Template plan-cache benchmark: serving throughput with and without
//! the `bao-cache` layer on a template-heavy workload, with a persisted
//! baseline gate (DESIGN.md §11).
//!
//! The workload tiles a handful of IMDb templates so that — once the
//! model is fitted — most admitted queries are re-parameterized repeats.
//! Uncached serving scores all 49 arms for every one of them; cached
//! serving scores each (template, param-bucket) once per model version
//! and plans exactly one arm on every hit. Both runs are fully
//! simulated (`SimDuration` makespans), so the two gated metrics are
//! machine-independent:
//!
//! * **hit rate** — fraction of scored-mode lookups served from cache;
//!   a retrain flushes the cache, so this measures how quickly the cache
//!   re-converges between model versions.
//! * **QPS speedup at c=8** — simulated throughput ratio cached vs
//!   uncached. Wave cost is the *max* optimization time over its
//!   members, so the win only materializes when whole waves hit — which
//!   the retrain-flush design delivers: misses cluster in the first wave
//!   after each retrain and the rest of the interval serves all-hit.
//!
//! `--gate` turns gated regressions into a non-zero exit
//! (`scripts/check.sh --bench-smoke`), `--quick` shrinks the workload,
//! `--update-baseline` overwrites recorded values.

use bao_bench::timing::BaselineStore;
use bao_bench::{build_workload, print_header, Args, WorkloadName};
use bao_cache::{CacheStats, PlanCacheConfig};
use bao_exec::execute;
use bao_harness::{BaoSettings, ModelKind, RunConfig, ServingConfig, ServingRunner, Strategy};
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};
use bao_workloads::{Workload, WorkloadStep};

/// Regression tolerance on gated metrics.
const TOLERANCE: f64 = 0.20;
/// Acceptance floor on the scored-mode cache hit rate.
const MIN_HIT_RATE: f64 = 0.5;
/// Acceptance floor on the simulated-QPS ratio cached vs uncached, c=8.
const MIN_QPS_SPEEDUP: f64 = 1.3;
/// Distinct templates tiled through the workload.
const TEMPLATES: usize = 6;
/// Generated candidates the templates are picked from.
const CANDIDATES: usize = 24;
const CONCURRENCY: usize = 8;

/// Tile `TEMPLATES` IMDb queries to `n` steps: the serving traffic shape
/// the cache is built for — few hot templates, many repeats. Templates
/// are picked from `CANDIDATES` generated queries by probing each once
/// with the (deterministic) simulated executor and keeping those with
/// the lowest execution-latency-to-planning-work ratio: high-QPS
/// interactive probes whose response time is dominated by the 49-arm
/// optimization pass — precisely the traffic a plan cache exists for.
fn template_workload(seed: u64, scale: f64, n: usize) -> (Database, Workload) {
    let (db, wl) = build_workload(WorkloadName::Imdb, scale, CANDIDATES, seed).expect("workload");
    let cat = StatsCatalog::analyze(&db, 400, seed);
    let opt = Optimizer::postgres();
    let vm = bao_cloud::N1_4;
    let mut pool = BufferPool::new(vm.buffer_pool_pages());
    let mut ranked: Vec<(f64, usize)> = wl
        .steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let out = opt.plan(&s.query, &db, &cat, HintSet::default()).expect("plan");
            let m = execute(&out.root, &s.query, &db, &mut pool, &opt.params, &vm.charge_rates())
                .expect("probe execution");
            let plan_ms = 0.5 + out.work as f64 * 0.002; // mirrors VmType::optimization_time
            (m.latency.as_ms() / plan_ms, i)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let picks: Vec<usize> = ranked.iter().take(TEMPLATES).map(|&(_, i)| i).collect();
    let steps: Vec<WorkloadStep> = (0..n)
        .map(|i| {
            let s = &wl.steps[picks[i % TEMPLATES]];
            WorkloadStep { label: s.label.clone(), query: s.query.clone(), event: None }
        })
        .collect();
    (db, Workload { name: "imdb-templates".into(), steps })
}

fn run_config(seed: u64, n: usize, retrain: usize) -> RunConfig {
    RunConfig {
        seed,
        stats_sample: 400,
        ..RunConfig::new(
            bao_cloud::N1_4,
            Strategy::Bao(BaoSettings {
                model: ModelKind::TcnnFast,
                window: n,
                retrain,
                ..BaoSettings::default()
            }),
        )
    }
}

/// One simulated serving pass; returns (queries/sec, cache stats).
fn serving_pass(
    seed: u64,
    scale: f64,
    n: usize,
    retrain: usize,
    cache: Option<PlanCacheConfig>,
) -> (f64, Option<CacheStats>) {
    let (db, wl) = template_workload(seed, scale, n);
    let mut serving = ServingConfig::new(CONCURRENCY, CONCURRENCY);
    if let Some(c) = cache {
        serving = serving.with_cache(c);
    }
    let report =
        ServingRunner::new(run_config(seed, n, retrain), db, serving).run(&wl).expect("serving");
    (report.queries_per_sec(), report.cache)
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let gate = args.has("gate");
    let update = args.has("update-baseline");
    let seed = args.seed();
    let scale = args.scale(0.02);
    // The model fits at the first retrain; everything after is scored
    // mode, where the cache serves. Three scored intervals measure the
    // steady state (flush + re-converge) rather than a lucky warm run.
    let (n, retrain) = if quick { (120, 40) } else { (240, 60) };

    print_header(
        "Template plan-cache benchmark",
        &format!(
            "(IMDb scale {scale}, {TEMPLATES} templates x {n} queries, retrain {retrain}{})",
            if quick { ", quick" } else { "" }
        ),
    );

    // Steady-state throughput config: a wide drift threshold keeps the
    // model's honest prediction error on these sub-millisecond templates
    // from masquerading as drift (drift behaviour itself is pinned by
    // `tests/plan_cache.rs`, which injects a real latency fault).
    let cache_cfg =
        PlanCacheConfig { capacity: 64, drift_threshold: 4.0, ..PlanCacheConfig::default() };
    let (qps_base, no_stats) = serving_pass(seed, scale, n, retrain, None);
    assert!(no_stats.is_none(), "uncached run must not report cache stats");
    let (qps_cached, stats) = serving_pass(seed, scale, n, retrain, Some(cache_cfg));
    let stats = stats.expect("cached run reports stats");
    let hit_rate = stats.hit_rate();
    let speedup = if qps_base > 0.0 { qps_cached / qps_base } else { 0.0 };

    println!();
    println!(
        "uncached serving c={CONCURRENCY}: {qps_base:.1} queries/sec (simulated); \
         cached: {qps_cached:.1} -> {speedup:.2}x"
    );
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate), {} inserts, \
         {} retrain invalidations, {} drift evictions",
        stats.hits,
        stats.misses,
        hit_rate * 100.0,
        stats.inserts,
        stats.retrain_invalidations,
        stats.drift_evictions
    );

    // --- Baseline comparison. Both headline metrics are simulated and
    // machine-independent, so both gate; the raw throughputs are
    // workload-shaped and warn-only.
    let gated = [("cache_hit_rate", hit_rate), ("cache_qps_speedup_c8", speedup)];
    let warned = [
        ("cache_qps_uncached_c8", qps_base),
        ("cache_qps_cached_c8", qps_cached),
    ];
    let regression =
        BaselineStore::gate(&BaselineStore::repo_path(), &gated, &warned, TOLERANCE, update);

    println!();
    let hit_ok = hit_rate >= MIN_HIT_RATE;
    let qps_ok = speedup >= MIN_QPS_SPEEDUP;
    println!(
        "cache hit rate {:.2} (target >= {MIN_HIT_RATE}): {}",
        hit_rate,
        if hit_ok { "PASS" } else { "FAIL" }
    );
    println!(
        "cached serving {:.2}x uncached at c={CONCURRENCY} (target >= {MIN_QPS_SPEEDUP}x): {}",
        speedup,
        if qps_ok { "PASS" } else { "FAIL" }
    );
    if gate && (regression || !hit_ok || !qps_ok) {
        eprintln!("cache bench gate failed");
        std::process::exit(1);
    }
}
