//! Contracts of the `bao-sched` admission layer (DESIGN.md §10):
//!
//! 1. The single-tenant, unlimited-bucket scheduler config dispatches
//!    in arrival order under either wave policy: at concurrency 1, 4,
//!    and 8 the `RunResult` is *bit-identical*
//!    (`RunResult::canonical_json`) to `Runner::run` — the same pipeline
//!    at concurrency 1 with the default closed-loop arrivals.
//! 2. Shed queries always execute arm 0 (the graceful-degradation
//!    contract) and are never dropped: every workload step still runs.
//! 3. Scheduled runs are exactly replayable: same seed, same arrivals,
//!    same report, byte for byte.

use bao_bench::{build_workload, WorkloadName};
use bao_common::json::ToJson;
use bao_common::SimDuration;
use bao_harness::{
    BaoSettings, ModelKind, RunConfig, Runner, ServingConfig, ServingRunner, Strategy,
};
use bao_sched::{QueryArrival, SchedConfig, TenantSpec, WavePolicy};
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
fn closed_loop(n: usize, tenant_of: impl Fn(usize) -> usize) -> Vec<QueryArrival> {
    (0..n)
        .map(|i| QueryArrival { idx: i, tenant: tenant_of(i), arrival: SimDuration::ZERO })
        .collect()
}

#[test]
fn single_tenant_sched_is_bit_identical_to_fifo_serving() {
    let seed = 42;
    let (db, wl) = workload_for(seed);
    // The FIFO contract: the pipeline at (1, 1), default arrivals.
    let serial = Runner::new(config(seed), db.clone()).run(&wl).unwrap().canonical_json();
    for concurrency in [1usize, 4, 8] {
        let serving_cfg = ServingConfig::new(concurrency, concurrency.max(1));
        // Default closed-loop path (tenant 0 threaded through
        // QueryArrival::step under the hood).
        let default_run =
            ServingRunner::new(config(seed), db.clone(), serving_cfg).run(&wl).unwrap();
        assert_eq!(
            serial,
            default_run.result.canonical_json(),
            "c={concurrency}: default sched diverged from the FIFO contract"
        );
        // Explicit single-tenant configs, both policies, via the
        // scheduled entry point with explicit arrivals.
        for policy in [WavePolicy::Drr, WavePolicy::Fifo] {
            let report = ServingRunner::new(config(seed), db.clone(), serving_cfg)
                .with_sched(SchedConfig::single_tenant().with_policy(policy))
                .run_scheduled(&wl, &closed_loop(N_QUERIES, |_| 0))
                .unwrap();
            assert_eq!(report.sched.total_shed(), 0);
            assert_eq!(report.sched.total_served(), N_QUERIES);
            assert_eq!(
                serial,
                report.serving.result.canonical_json(),
                "c={concurrency} policy={policy:?}: single-tenant sched diverged"
            );
        }
    }
}

#[test]
fn shed_queries_always_execute_arm_zero_and_nothing_is_dropped() {
    let seed = 19;
    let (db, wl) = workload_for(seed);
    // Tiny queue bound plus a tight deadline on a flooded tenant forces
    // shedding; the light tenant stays clean.
    let sched = SchedConfig {
        tenants: vec![
            TenantSpec::new("light").with_weight(1),
            TenantSpec::new("heavy").with_weight(1).with_queue_depth(3),
        ],
        policy: WavePolicy::Drr,
        quantum: 1,
        shed_deadline: None,
    };
    // Three of every four steps flood the heavy tenant at time zero.
    let arrivals = closed_loop(N_QUERIES, |i| usize::from(i % 4 != 0));
    let report = ServingRunner::new(config(seed), db.clone(), ServingConfig::new(4, 4))
        .with_sched(sched)
        .run_scheduled(&wl, &arrivals)
        .unwrap();

    assert!(report.sched.total_shed() > 0, "flooded bounded queue must shed");
    assert_eq!(report.sched.tenant("light").unwrap().shed, 0);
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
    assert_eq!(checked, report.sched.total_shed());
    // Sanity: the run was not all-shed — scored queries picked real arms.
    assert!(checked < N_QUERIES);
}

#[test]
fn scheduled_runs_replay_byte_identically() {
    let seed = 7;
    let (db, wl) = workload_for(seed);
    let sched = || SchedConfig {
        tenants: vec![
            TenantSpec::new("a").with_weight(1).with_rate(4.0, 200.0),
            TenantSpec::new("b").with_weight(3),
        ],
        policy: WavePolicy::Drr,
        quantum: 1,
        shed_deadline: Some(SimDuration::from_secs(30.0)),
    };
    // Open-loop arrivals spread over sim-time, alternating tenants.
    let arrivals: Vec<QueryArrival> = (0..N_QUERIES)
        .map(|i| QueryArrival {
            idx: i,
            tenant: i % 2,
            arrival: SimDuration::from_ms(20.0 * i as f64),
        })
        .collect();
    let run = |db: Database| {
        ServingRunner::new(config(seed), db, ServingConfig::new(4, 4))
            .with_sched(sched())
            .run_scheduled(&wl, &arrivals)
            .unwrap()
    };
    let a = run(db.clone());
    let b = run(db);
    assert_eq!(a.serving.result.canonical_json(), b.serving.result.canonical_json());
    assert_eq!(a.sched.to_json().to_string(), b.sched.to_json().to_string());
    assert_eq!(a.serving.makespan, b.serving.makespan);
    // The report reflects real scheduling: both tenants served work.
    assert!(a.sched.tenant("a").unwrap().served > 0);
    assert!(a.sched.tenant("b").unwrap().served > 0);
    assert!(a.sched.jain_fairness > 0.0 && a.sched.jain_fairness <= 1.0 + 1e-12);
}
