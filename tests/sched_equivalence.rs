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
//! 4. What DRR is for: under a bulk tenant's flood a light tenant's
//!    query gets past the burst at least 2x sooner than under FIFO, at
//!    equal scheduling overhead. Everything here is `SimDuration`, so
//!    the floor is machine-independent.

use bao_bench::{build_workload, WorkloadName};
use bao_common::stats::percentile;
use bao_common::SimDuration;
use bao_harness::{
    BaoSettings, ModelKind, RunConfig, Runner, SchedServingReport, ServingConfig, ServingRunner,
    Strategy,
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
    assert_eq!(format!("{:?}", a.sched), format!("{:?}", b.sched));
    assert_eq!(a.serving.makespan, b.serving.makespan);
    // The report reflects real scheduling: both tenants served work.
    assert!(a.sched.tenant("a").unwrap().served > 0);
    assert!(a.sched.tenant("b").unwrap().served > 0);
    assert!(a.sched.jain_fairness > 0.0 && a.sched.jain_fairness <= 1.0 + 1e-12);
}

#[test]
fn drr_lets_light_tenants_past_a_bulk_flood_and_conserves_work() {
    const BULK: usize = 3;
    let seed = 42;
    let (db, wl) = workload_for(seed);
    let serving = ServingConfig::new(4, 4);
    // Mean service time from a closed-loop run, so the arrival plan
    // stresses the queue the same way at any scale.
    let calibration = ServingRunner::new(config(seed), db.clone(), serving).run(&wl).unwrap();
    let spacing = SimDuration::from_ms(1.5 * calibration.makespan.as_ms() / N_QUERIES as f64);
    // The pattern where FIFO strands interactive traffic: every third
    // step belongs to a light tenant (cycling a, b, c) and trickles in;
    // the rest is the bulk tenant's batch, all of it due at time zero and
    // more than its bounded queue holds.
    let mut lights = 0.0;
    let arrivals: Vec<QueryArrival> = (0..N_QUERIES)
        .map(|idx| {
            if idx % 3 != 0 {
                return QueryArrival { idx, tenant: BULK, arrival: SimDuration::ZERO };
            }
            lights += 1.0;
            QueryArrival { idx, tenant: (idx / 3) % 3, arrival: spacing * (lights - 0.5) }
        })
        .collect();
    let run = |policy| {
        let sched = SchedConfig {
            tenants: vec![
                TenantSpec::new("light-a"),
                TenantSpec::new("light-b"),
                TenantSpec::new("light-c"),
                TenantSpec::new("bulk").with_weight(8).with_queue_depth(16),
            ],
            policy,
            quantum: 1,
            shed_deadline: None,
        };
        ServingRunner::new(config(seed), db.clone(), serving)
            .with_sched(sched)
            .run_scheduled(&wl, &arrivals)
            .unwrap()
    };
    let (fifo, drr) = (run(WavePolicy::Fifo), run(WavePolicy::Drr));

    // The statistic `sched_bench` gated (and labelled p99): the 0.99th
    // percentile of the twelve light queries' queue waits — nine parts
    // the shortest wait, one part the second shortest, i.e. how long the
    // best-served light query sat behind the flood. FIFO makes even that
    // one wait out the whole burst (92 ms against 27 ms, 3.46x). The
    // *tail* is another matter: the true p99 reads 219 ms under FIFO and
    // 291 ms under DRR here, because dispatch order changes what the
    // model trains on and the DRR run's arms execute 1.6x longer.
    let head_wait_ms = |r: &SchedServingReport| {
        let waits: Vec<f64> =
            r.dispatches.iter().filter(|d| d.tenant != BULK).map(|d| d.wait.as_ms()).collect();
        assert_eq!(waits.len(), N_QUERIES / 3);
        percentile(&waits, 0.99)
    };
    let (fifo_wait, drr_wait) = (head_wait_ms(&fifo), head_wait_ms(&drr));
    assert!(
        fifo_wait >= 2.0 * drr_wait,
        "light tenants' head-of-queue wait: fifo {fifo_wait:.1} ms, drr {drr_wait:.1} ms"
    );

    // Work conservation: both policies complete every query, and their
    // scheduling overhead — makespan per unit of the run's own execution
    // work, which covers idle gaps and planning serialization — agrees.
    // Raw makespans are not compared, for the arm-luck reason above.
    let overhead = |r: &SchedServingReport| {
        assert_eq!(r.sched.total_served(), N_QUERIES);
        r.serving.makespan.as_ms() / r.serving.result.total_exec.as_ms()
    };
    let skew = overhead(&fifo) / overhead(&drr);
    assert!((0.8..=1.25).contains(&skew), "scheduling overhead skew {skew:.3}");
}
