//! Multi-tenant admission benchmark: DRR fair wave scheduling vs FIFO
//! under a heavy-tenant flood, with a persisted baseline gate.
//!
//! Scenario: four tenants share the serving layer — three light
//! interactive tenants (weight 1 each) trickling queries in, and one
//! heavy bulk tenant (weight 8, bounded queue) that dumps its entire
//! batch at sim-time zero. The same workload and the same arrival plan
//! run twice, once under each wave policy:
//!
//! - **FIFO** dispatches strictly by arrival order, so every light query
//!   queues behind the heavy burst that got there first.
//! - **DRR** credits each tenant per round by weight, so light tenants
//!   keep landing in every wave while the heavy backlog drains at its
//!   8/11 share.
//!
//! **Gated:** `sched_drr_light_p99_speedup` — the pooled light-tenant
//! p99 queue wait under FIFO divided by the same under DRR, with an
//! acceptance floor of 2x, plus throughput parity: both policies must
//! complete every query (nothing dropped) and their *scheduling
//! overhead* — makespan divided by the run's own total execution time,
//! which covers idle gaps and planning serialization — must agree within
//! tolerance. Raw makespans are deliberately not compared: dispatch
//! order changes the model's training order and hence which arms it
//! picks, so raw execution totals differ by arm luck, not by scheduler
//! quality. All inputs are `SimDuration`, so every number here is
//! machine-independent and deterministic.
//!
//! **Warn-only:** shed rate on the bounded heavy queue, Jain fairness of
//! weight-normalized service, and absolute waits/throughput (these track
//! workload composition rather than scheduler quality).
//!
//! `--gate` turns gated regressions into a non-zero exit
//! (`scripts/check.sh --bench-smoke`), `--update-baseline` overwrites
//! recorded values; the run is already short, so `--quick` is a no-op.

use bao_bench::timing::BaselineStore;
use bao_bench::{build_workload, print_header, Args, WorkloadName};
use bao_common::stats::percentile_sorted;
use bao_common::SimDuration;
use bao_harness::{
    BaoSettings, ModelKind, RunConfig, SchedServingReport, ServingConfig, ServingRunner, Strategy,
};
use bao_sched::{QueryArrival, SchedConfig, TenantSpec, WavePolicy};
use bao_storage::Database;
use bao_workloads::Workload;

/// Regression tolerance on gated metrics.
const TOLERANCE: f64 = 0.20;
/// Acceptance floor: DRR must cut the light tenants' p99 queue wait at
/// least this much relative to FIFO on the same arrivals.
const MIN_LIGHT_P99_SPEEDUP: f64 = 2.0;
/// Both policies serve the identical query set; their scheduling
/// overheads (makespan normalized by own execution work) may differ only
/// by wave-composition noise, bounded by this factor.
const MAX_OVERHEAD_SKEW: f64 = 1.25;

/// Index of the heavy bulk tenant in the registry below.
const HEAVY: usize = 3;
const SCALE: f64 = 0.02;

/// Three light interactive tenants and one 8x-weighted bulk tenant whose
/// queue is bounded (the flood below overflows it, exercising shedding).
fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("light-a"),
        TenantSpec::new("light-b"),
        TenantSpec::new("light-c"),
        TenantSpec::new("bulk").with_weight(8).with_queue_depth(16),
    ]
}

fn sched_config(policy: WavePolicy) -> SchedConfig {
    SchedConfig { tenants: tenants(), policy, quantum: 1, shed_deadline: None }
}

/// Every third step belongs to a light tenant (cycling a, b, c); the
/// other two thirds are the bulk tenant's batch.
fn tenant_of(idx: usize) -> usize {
    if idx % 3 == 0 {
        (idx / 3) % 3
    } else {
        HEAVY
    }
}

/// The adversarial arrival plan: the bulk tenant's whole batch lands at
/// sim-time zero, while light queries trickle in at a fixed spacing
/// scaled to the calibrated mean service time — exactly the pattern
/// where FIFO strands interactive traffic behind the flood.
fn arrival_plan(n: usize, service_ms: f64) -> Vec<QueryArrival> {
    let spacing = SimDuration::from_ms(1.5 * service_ms);
    let mut lights = 0usize;
    (0..n)
        .map(|idx| {
            let tenant = tenant_of(idx);
            let arrival = if tenant == HEAVY {
                SimDuration::ZERO
            } else {
                lights += 1;
                spacing * (lights as f64 - 0.5)
            };
            QueryArrival { idx, tenant, arrival }
        })
        .collect()
}

fn run_config(seed: u64, n_queries: usize) -> RunConfig {
    let settings = BaoSettings {
        model: ModelKind::TcnnFast,
        window: n_queries,
        retrain: 12,
        cache_features: false,
        ..BaoSettings::default()
    };
    RunConfig { seed, stats_sample: 400, ..RunConfig::new(bao_cloud::N1_4, Strategy::Bao(settings)) }
}

/// Calibrate the mean per-query service time from a closed-loop run, so
/// the arrival plan stresses the queue the same way at any scale.
fn mean_service_ms(seed: u64, n_queries: usize, db: &Database, wl: &Workload) -> f64 {
    let report = ServingRunner::new(run_config(seed, n_queries), db.clone(), ServingConfig::new(4, 4))
        .run(wl)
        .expect("calibration run");
    report.makespan.as_ms() / n_queries as f64
}

fn run_policy(
    policy: WavePolicy,
    seed: u64,
    n_queries: usize,
    db: &Database,
    wl: &Workload,
    arrivals: &[QueryArrival],
) -> SchedServingReport {
    ServingRunner::new(run_config(seed, n_queries), db.clone(), ServingConfig::new(4, 4))
        .with_sched(sched_config(policy))
        .run_scheduled(wl, arrivals)
        .expect("scheduled run")
}

/// Pooled p99 queue wait (ms) across the three light tenants.
fn light_p99_wait_ms(report: &SchedServingReport) -> f64 {
    let mut waits: Vec<f64> = report
        .dispatches
        .iter()
        .filter(|d| d.tenant != HEAVY)
        .map(|d| d.wait.as_ms())
        .collect();
    waits.sort_by(f64::total_cmp);
    percentile_sorted(&waits, 0.99)
}

fn main() {
    let args = Args::from_env();
    // --quick is accepted for CLI uniformity with the other benches but
    // changes nothing: the bench is three short serving passes, and
    // shrinking the workload would shift every metric away from the
    // recorded baseline.
    let _ = args.has("quick");
    let gate = args.has("gate");
    let update = args.has("update-baseline");
    let seed = args.seed();
    let n_queries = 36;

    print_header(
        "Multi-tenant scheduling benchmark",
        &format!("(IMDb scale {SCALE}, {n_queries} queries, 3 light + 1 bulk tenant)"),
    );

    let (db, wl) = build_workload(WorkloadName::Imdb, SCALE, n_queries, seed).expect("workload");
    let service_ms = mean_service_ms(seed, n_queries, &db, &wl);
    println!("calibrated mean service time: {service_ms:.2} ms/query (simulated)");

    let arrivals = arrival_plan(n_queries, service_ms);
    let fifo = run_policy(WavePolicy::Fifo, seed, n_queries, &db, &wl, &arrivals);
    let drr = run_policy(WavePolicy::Drr, seed, n_queries, &db, &wl, &arrivals);

    let fifo_p99 = light_p99_wait_ms(&fifo);
    let drr_p99 = light_p99_wait_ms(&drr);
    let speedup = if drr_p99 > 0.0 { fifo_p99 / drr_p99 } else { f64::INFINITY };
    // Work conservation: every query completes under both policies, and
    // the scheduling overhead per unit of execution work matches.
    let complete = fifo.sched.total_served() == n_queries && drr.sched.total_served() == n_queries;
    let overhead = |r: &SchedServingReport| {
        r.serving.makespan.as_ms() / r.serving.result.total_exec.as_ms().max(1e-9)
    };
    let overhead_skew = overhead(&fifo) / overhead(&drr);
    let parity_ok =
        complete && (1.0 / MAX_OVERHEAD_SKEW..=MAX_OVERHEAD_SKEW).contains(&overhead_skew);

    println!();
    for (name, r) in [("fifo", &fifo), ("drr", &drr)] {
        println!(
            "{name}: light p99 wait {:.1} ms, shed {}/{} ({:.0}%), jain {:.3}, \
             makespan {:.1} ms, {:.1} q/s",
            light_p99_wait_ms(r),
            r.sched.total_shed(),
            n_queries,
            r.sched.shed_rate() * 100.0,
            r.sched.jain_fairness,
            r.serving.makespan.as_ms(),
            r.serving.queries_per_sec(),
        );
    }
    println!();
    println!(
        "light-tenant p99 wait: fifo {:.1} ms / drr {:.1} ms -> {:.2}x, \
         overhead skew {:.3} (fifo {:.3} / drr {:.3})",
        fifo_p99,
        drr_p99,
        speedup,
        overhead_skew,
        overhead(&fifo),
        overhead(&drr)
    );

    // --- Baseline comparison. Gated: the machine-independent fairness
    // speedup. Warn-only: shed rate, Jain index, absolute waits and
    // throughput (workload-shaped).
    let gated = [("sched_drr_light_p99_speedup", speedup)];
    let warned = [
        ("sched_fifo_light_p99_wait_ms", fifo_p99),
        ("sched_drr_light_p99_wait_ms", drr_p99),
        ("sched_drr_shed_rate", drr.sched.shed_rate()),
        ("sched_drr_jain", drr.sched.jain_fairness),
        ("sched_drr_qps", drr.serving.queries_per_sec()),
    ];
    let regression =
        BaselineStore::gate(&BaselineStore::repo_path(), &gated, &warned, TOLERANCE, update);

    println!();
    let target_ok = speedup >= MIN_LIGHT_P99_SPEEDUP;
    println!(
        "drr light p99 speedup {:.2}x fifo (target >= {:.1}x): {}",
        speedup,
        MIN_LIGHT_P99_SPEEDUP,
        if target_ok { "PASS" } else { "FAIL" }
    );
    println!(
        "work conservation (all {n_queries} served x2: {}, overhead skew {:.3}, bound {:.2}x): {}",
        complete,
        overhead_skew,
        MAX_OVERHEAD_SKEW,
        if parity_ok { "PASS" } else { "FAIL" }
    );
    if gate && (regression || !target_ok || !parity_ok) {
        eprintln!("sched bench gate failed");
        std::process::exit(1);
    }
}
