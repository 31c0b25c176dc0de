//! Integration tests of the template plan cache (DESIGN.md §11): on a
//! template-heavy workload the cache must actually hit and buy at least
//! 1.3x simulated throughput over uncached serving, a deterministic
//! latency fault must trigger drift eviction and re-scoring within the
//! configured window, and under overload the drifted entry must be shed
//! to arm 0 with the count surfaced in the cache's counters.

use bao_bench::{build_workload, WorkloadName};
use bao_cache::PlanCacheConfig;
use bao_harness::{
    BaoSettings, ExecFault, ModelKind, RunConfig, ServingConfig, ServingRunner, Strategy,
};
use bao_plan::fingerprint;
use bao_sched::{QueryArrival, SchedConfig};
use bao_storage::Database;
use bao_workloads::{Workload, WorkloadStep};

const SCALE: f64 = 0.02;
/// Tiled workload length; long enough for one retrain (the model fits at
/// observation `RETRAIN`) plus a scored tail where the cache serves.
const N: usize = 120;
const RETRAIN: usize = 60;
const TEMPLATES: usize = 3;
/// The fault lands mid-scored-tail: entries are cached (and stable) for
/// twenty steps before latencies jump.
const FAULT_STEP: usize = 80;

/// A template-heavy closed-loop workload: the first `TEMPLATES` IMDb
/// queries tiled to `N` steps. Every step `i` shares a fingerprint with
/// step `i + TEMPLATES`, so once the model is fitted the cache hits on
/// all but the first occurrence of each template. Events are dropped —
/// epoch handling is `tests/sched_equivalence.rs`'s concern.
fn template_workload(seed: u64) -> (Database, Workload) {
    let (db, wl) = build_workload(WorkloadName::Imdb, SCALE, TEMPLATES, seed).unwrap();
    let steps: Vec<WorkloadStep> = (0..N)
        .map(|i| {
            let s = &wl.steps[i % TEMPLATES];
            WorkloadStep { label: s.label.clone(), query: s.query.clone(), event: None }
        })
        .collect();
    (db, Workload { name: "imdb-templates".into(), steps })
}

fn config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        stats_sample: 400,
        ..RunConfig::new(
            bao_cloud::N1_4,
            Strategy::Bao(BaoSettings {
                model: ModelKind::TcnnFast,
                window: N,
                retrain: RETRAIN,
                ..BaoSettings::default()
            }),
        )
    }
}

fn cache_cfg(overload_backlog: usize) -> PlanCacheConfig {
    PlanCacheConfig { capacity: 64, drift_window: 4, drift_threshold: 1.0, overload_backlog }
}

#[test]
fn drift_injection_evicts_and_rescores_within_the_window() {
    let seed = 13;
    let (db, wl) = template_workload(seed);
    let distinct: std::collections::BTreeSet<_> =
        wl.steps.iter().map(|s| fingerprint(&s.query)).collect();
    assert_eq!(distinct.len(), TEMPLATES, "tiled steps must share fingerprints");

    let serving = ServingConfig::new(4, 4)
        .with_cache(cache_cfg(usize::MAX))
        .with_fault(ExecFault { from_step: FAULT_STEP, factor: 10.0 });
    let report = ServingRunner::new(config(seed), db, serving).run(&wl).unwrap();
    let stats = report.cache.expect("cached run reports stats");

    // The scored tail is dominated by repeats of three templates, so the
    // cache must hit most lookups (the bench gates this bound too).
    assert!(stats.hits > 0 && stats.hit_rate() > 0.5, "{stats:?}");

    // The 10x latency fault pushes each entry's rolling-window mean past
    // the threshold within one `drift_window` of post-fault repeats:
    // entries are evicted, not silently kept serving a stale arm.
    assert!(stats.drift_evictions >= 1, "no drift eviction: {stats:?}");

    // Re-scoring after eviction: the only retrain with lookups after it
    // is the one that *enters* scored mode, LRU never fires (capacity 64
    // >> 3 templates), so more inserts than distinct templates means an
    // evicted fingerprint went back through the full scoring pass.
    assert_eq!(stats.evictions, 0, "LRU must not fire at this capacity");
    assert!(
        stats.inserts > TEMPLATES,
        "drift-evicted templates must be re-scored and re-cached: {stats:?}"
    );
}

#[test]
fn drift_under_overload_sheds_to_arm_zero_and_reports_counts() {
    let seed = 13;
    let (db, wl) = template_workload(seed);
    // `overload_backlog: 0` treats any queued backlog as overload; the
    // closed-loop arrival plan keeps the queue deep until the very end,
    // so the post-fault drift verdicts shed instead of evicting.
    let serving = ServingConfig::new(4, 4)
        .with_cache(cache_cfg(0))
        .with_fault(ExecFault { from_step: FAULT_STEP, factor: 10.0 });
    let arrivals: Vec<QueryArrival> = (0..wl.len()).map(QueryArrival::step).collect();
    let report = ServingRunner::new(config(seed), db, serving)
        .with_sched(SchedConfig::default())
        .run_scheduled(&wl, &arrivals)
        .unwrap();

    let stats = report.serving.cache.expect("cached run reports stats");
    assert!(stats.drift_sheds >= 1, "no overload shed: {stats:?}");

    // A shed entry keeps serving: it re-pins to arm 0 and later repeats
    // of the template hit the pinned entry instead of re-scoring.
    assert!(stats.hits > 0, "{stats:?}");
}

#[test]
fn cached_serving_outruns_uncached_on_template_traffic() {
    let seed = 13;
    let (db, wl) = template_workload(seed);
    let run = |serving: ServingConfig| {
        ServingRunner::new(config(seed), db.clone(), serving).run(&wl).unwrap()
    };
    // Steady-state throughput: a wide drift threshold keeps the model's
    // honest prediction error on these sub-millisecond templates from
    // masquerading as drift (the tests above inject a real fault).
    let cache = PlanCacheConfig { drift_threshold: 4.0, ..cache_cfg(usize::MAX) };
    let uncached = run(ServingConfig::new(4, 4));
    let cached = run(ServingConfig::new(4, 4).with_cache(cache));
    assert!(uncached.cache.is_none(), "uncached run must not report cache stats");
    let stats = cached.cache.as_ref().expect("cached run reports stats");
    assert!(stats.hit_rate() > 0.5, "{stats:?}");

    // Uncached serving plans and scores the whole arm family for every
    // repeat; a hit plans one arm. Both makespans are simulated, so the
    // ratio (1.79 here) is machine-independent.
    let speedup = cached.queries_per_sec() / uncached.queries_per_sec();
    assert!(speedup >= 1.3, "cached {speedup:.2}x uncached ({stats:?})");
}
