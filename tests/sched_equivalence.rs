//! Contracts of the `bao-sched` admission queue (DESIGN.md §10):
//!
//! 1. The default config (no queue bound, no deadline) dispatches in
//!    arrival order: at concurrency 1, 4 and 8 the `RunResult` is
//!    *bit-identical* (`RunResult::canonical_json`) to `Runner::run` —
//!    the same pipeline at concurrency 1 with the default closed-loop
//!    arrivals — on the default and on the scheduled entry point.
//! 2. Shed queries always execute arm 0 (the graceful-degradation
//!    contract) and are never dropped: every workload step still runs.
//! 3. Scheduled runs are exactly replayable: same seed, same arrivals,
//!    same result and dispatch log, byte for byte.

use bao_bench::{build_workload, WorkloadName};
use bao_common::SimDuration;
use bao_harness::{
    BaoSettings, ModelKind, RunConfig, Runner, ServingConfig, ServingRunner, Strategy,
};
use bao_sched::{QueryArrival, SchedConfig};
use bao_storage::Database;
use bao_workloads::Workload;

const SCALE: f64 = 0.02;
const N_QUERIES: usize = 36;

fn settings() -> BaoSettings {
    BaoSettings {
        model: ModelKind::TcnnFast,
        window: N_QUERIES,
        retrain: 12,
        cache_features: false,
        ..BaoSettings::default()
    }
}

fn config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        stats_sample: 400,
        ..RunConfig::new(bao_cloud::N1_4, Strategy::Bao(settings()))
    }
}

fn workload_for(seed: u64) -> (Database, Workload) {
    build_workload(WorkloadName::Imdb, SCALE, N_QUERIES, seed).unwrap()
}

/// Closed-loop arrivals: every step already arrived at time zero.
fn closed_loop(n: usize) -> Vec<QueryArrival> {
    (0..n).map(QueryArrival::step).collect()
}

#[test]
fn single_tenant_sched_is_bit_identical_to_fifo_serving() {
    let seed = 42;
    let (db, wl) = workload_for(seed);
    // The FIFO contract: the pipeline at (1, 1), default arrivals.
    let serial = Runner::new(config(seed), db.clone()).run(&wl).unwrap().canonical_json();
    for concurrency in [1usize, 4, 8] {
        let serving_cfg = ServingConfig::new(concurrency, concurrency.max(1));
        // Default closed-loop path (QueryArrival::step under the hood).
        let default_run =
            ServingRunner::new(config(seed), db.clone(), serving_cfg).run(&wl).unwrap();
        assert_eq!(
            serial,
            default_run.result.canonical_json(),
            "c={concurrency}: default sched diverged from the FIFO contract"
        );
        // The default config via the scheduled entry point with explicit
        // arrivals.
        let report = ServingRunner::new(config(seed), db.clone(), serving_cfg)
            .with_sched(SchedConfig::default())
            .run_scheduled(&wl, &closed_loop(N_QUERIES))
            .unwrap();
        assert_eq!(report.dispatches.len(), N_QUERIES);
        assert!(report.dispatches.iter().all(|d| !d.shed));
        assert_eq!(
            serial,
            report.serving.result.canonical_json(),
            "c={concurrency}: scheduled default config diverged"
        );
    }
}

#[test]
fn shed_queries_always_execute_arm_zero_and_nothing_is_dropped() {
    let seed = 19;
    let (db, wl) = workload_for(seed);
    // A depth-3 queue flooded by every step at time zero: each epoch's
    // releases past the third are shed.
    let sched = SchedConfig { queue_depth: Some(3), shed_deadline: None };
    let report = ServingRunner::new(config(seed), db.clone(), ServingConfig::new(4, 4))
        .with_sched(sched)
        .run_scheduled(&wl, &closed_loop(N_QUERIES))
        .unwrap();

    // Nothing dropped: every step executed exactly once.
    let mut seen = vec![0usize; N_QUERIES];
    for r in &report.serving.result.records {
        seen[r.idx] += 1;
    }
    assert!(seen.iter().all(|&c| c == 1), "each step executes exactly once: {seen:?}");
    assert_eq!(report.dispatches.len(), N_QUERIES);

    // The degradation contract: every shed dispatch executed arm 0.
    let mut checked = 0;
    for d in &report.dispatches {
        if d.shed {
            let rec = report.serving.result.records.iter().find(|r| r.idx == d.idx).unwrap();
            assert_eq!(
                rec.arm, 0,
                "shed step {} must execute arm 0 (the safe arm), got arm {}",
                d.idx, rec.arm
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "flooded bounded queue must shed");
    // Sanity: the run was not all-shed — scored queries picked real arms.
    assert!(checked < N_QUERIES);
}

#[test]
fn scheduled_runs_replay_byte_identically() {
    let seed = 7;
    let (db, wl) = workload_for(seed);
    let deadline = SimDuration::from_ms(40.0);
    let sched = SchedConfig { queue_depth: Some(6), shed_deadline: Some(deadline) };
    // Open-loop arrivals spread over sim-time.
    let arrivals: Vec<QueryArrival> = (0..N_QUERIES)
        .map(|i| QueryArrival { idx: i, arrival: SimDuration::from_ms(5.0 * i as f64) })
        .collect();
    let run = |db: Database| {
        ServingRunner::new(config(seed), db, ServingConfig::new(4, 4))
            .with_sched(sched)
            .run_scheduled(&wl, &arrivals)
            .unwrap()
    };
    let a = run(db.clone());
    let b = run(db);
    assert_eq!(a.serving.result.canonical_json(), b.serving.result.canonical_json());
    assert_eq!(format!("{:?}", a.dispatches), format!("{:?}", b.dispatches));
    assert_eq!(a.serving.makespan, b.serving.makespan);
    // Both bounds fired, and not on every dispatch: a shed past the
    // deadline, a shed by the depth bound alone, and scored dispatches.
    assert!(a.dispatches.iter().any(|d| d.shed && d.wait > deadline));
    assert!(a.dispatches.iter().any(|d| d.shed && d.wait <= deadline));
    assert!(a.dispatches.iter().any(|d| !d.shed));
}
