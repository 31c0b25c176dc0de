//! Morsel-driven sharded execution benchmark (DESIGN.md §13), with a
//! persisted baseline gate.
//!
//! Measures wall-clock execution of multi-join IMDb templates through
//! `execute_with` on the single-shard serial path (`shard_workers: 1`)
//! versus the 4-worker morsel pool. The equivalence suite
//! (`tests/shard_equivalence.rs`) pins both paths bit-identical, so this
//! benchmark is purely about wall-clock: identical work, different
//! parallelism. Each sample replays the full template set against a
//! clone of the same warmed buffer pool, so page traffic is identical
//! across widths and runs.
//!
//! **Gating is core-count aware**: the `shard_speedup`
//! floor (>= 1.8x at 4 workers) is enforced only on hosts with >= 4
//! cores — on narrower hosts a 4-worker pool cannot physically beat
//! serial and the honest value (recorded, warn-only) sits near or below
//! 1.0. The 2-worker ratio and absolute row throughput are always
//! warn-only trend metrics.
//!
//! `--gate` turns gated regressions into a non-zero exit
//! (`scripts/check.sh --bench-smoke`), `--quick` shrinks sample counts,
//! `--update-baseline` overwrites recorded values.

use bao_bench::timing::{BaselineStore, Group};
use bao_bench::{build_workload, print_header, Args, WorkloadName};
use bao_common::pool::resolve_width;
use bao_exec::{execute_with, ExecConfig};
use bao_opt::{HintSet, Optimizer, PlanOutput};
use bao_plan::Query;
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};

/// Regression tolerance on gated ratio metrics.
const TOLERANCE: f64 = 0.20;
/// Acceptance floor on hosts with at least `GATE_CORES` cores: the
/// 4-worker morsel pool must beat serial by this factor on multi-join
/// templates.
const MIN_SHARD_SPEEDUP: f64 = 1.8;
/// Minimum host cores for the speedup floor to be enforceable.
const GATE_CORES: usize = 4;
/// Pool width the gated ratio is measured at.
const BENCH_WORKERS: usize = 4;

struct BenchSet {
    db: Database,
    plans: Vec<(PlanOutput, Query)>,
    warmed: BufferPool,
    opt: Optimizer,
    rates: bao_exec::ChargeRates,
    total_rows: u64,
}

/// Plan the workload's multi-join templates (>= 2 join predicates) and
/// warm a buffer pool with one serial pass, so every timed sample starts
/// from the same resident set.
fn build_bench_set(seed: u64, scale: f64, n_queries: usize) -> BenchSet {
    let (db, wl) = build_workload(WorkloadName::Imdb, scale, n_queries, seed).expect("workload");
    let cat = StatsCatalog::analyze(&db, 1_000, seed);
    let opt = Optimizer::postgres();
    let rates = bao_cloud::N1_4.charge_rates();
    let plans: Vec<(PlanOutput, Query)> = wl
        .steps
        .iter()
        .filter(|s| s.query.joins.len() >= 2)
        .map(|s| {
            let p = opt.plan(&s.query, &db, &cat, HintSet::all_enabled()).expect("plan");
            (p, s.query.clone())
        })
        .collect();
    assert!(!plans.is_empty(), "workload produced no multi-join templates");
    let mut warmed = BufferPool::new(bao_cloud::N1_4.buffer_pool_pages());
    let cfg = ExecConfig::default();
    let mut total_rows = 0u64;
    for (p, q) in &plans {
        let m = execute_with(&p.root, q, &db, &mut warmed, &opt.params, &rates, &cfg)
            .expect("warmup execution");
        // Rows flowing through every plan node — the work the morsel
        // pool fans out over.
        total_rows += m.node_true_rows.iter().sum::<u64>();
    }
    BenchSet { db, plans, warmed, opt, rates, total_rows }
}

/// One full pass over the template set at the given pool width, against
/// a fresh clone of the warmed pool.
fn run_set(set: &BenchSet, workers: usize) {
    let cfg = ExecConfig { shard_workers: workers, ..ExecConfig::default() };
    let mut pool = set.warmed.clone();
    for (p, q) in &set.plans {
        let m = execute_with(&p.root, q, &set.db, &mut pool, &set.opt.params, &set.rates, &cfg)
            .expect("bench execution");
        std::hint::black_box(m.rows_out);
    }
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let gate = args.has("gate");
    let update = args.has("update-baseline");
    let seed = args.seed();
    let scale = args.scale(if quick { 0.05 } else { 0.1 });
    let n_queries = if quick { 24 } else { 48 };
    let samples = if quick { 6 } else { 20 };
    let cores = resolve_width(0);
    let enforce = cores >= GATE_CORES;

    print_header(
        "Morsel-driven sharded execution benchmark",
        &format!(
            "(IMDb scale {scale}, {samples} samples, {cores} core(s){})",
            if quick { ", quick" } else { "" }
        ),
    );

    let set = build_bench_set(seed, scale, n_queries);
    println!(
        "{} multi-join templates, {} input rows per pass",
        set.plans.len(),
        set.total_rows
    );

    let group = Group::new("shard_exec", samples);
    let serial = group.bench_stats("workers_1", || run_set(&set, 1));
    let two = group.bench_stats("workers_2", || run_set(&set, 2));
    let four = group.bench_stats(&format!("workers_{BENCH_WORKERS}"), || {
        run_set(&set, BENCH_WORKERS)
    });
    let speedup2 = serial.trimmed_mean / two.trimmed_mean;
    let speedup = serial.trimmed_mean / four.trimmed_mean;
    let rows_per_sec = set.total_rows as f64 / four.trimmed_mean;
    println!();
    println!(
        "serial {:.3} ms, 2 workers {:.3} ms ({:.2}x), {BENCH_WORKERS} workers {:.3} ms ({:.2}x)",
        serial.trimmed_mean * 1e3,
        two.trimmed_mean * 1e3,
        speedup2,
        four.trimmed_mean * 1e3,
        speedup
    );

    // --- Baseline comparison. The 4-worker speedup is gated only when
    // the host can physically exhibit it; everything else is warn-only.
    let mut gated: Vec<(&str, f64)> = Vec::new();
    let mut warned: Vec<(&str, f64)> = vec![
        ("shard_speedup_w2", speedup2),
        ("shard_exec_rows_per_sec_w4", rows_per_sec),
    ];
    if enforce {
        gated.push(("shard_speedup", speedup));
    } else {
        warned.insert(0, ("shard_speedup", speedup));
        println!(
            "host has {cores} core(s) < {GATE_CORES}: shard_speedup recorded warn-only \
             (floor {MIN_SHARD_SPEEDUP:.1}x enforced on >= {GATE_CORES}-core hosts)"
        );
    }
    let regression =
        BaselineStore::gate(&BaselineStore::repo_path(), &gated, &warned, TOLERANCE, update);

    println!();
    let target_ok = !enforce || speedup >= MIN_SHARD_SPEEDUP;
    println!(
        "{BENCH_WORKERS}-worker shard speedup {:.2}x (target >= {:.1}x on >= {GATE_CORES}-core hosts): {}",
        speedup,
        MIN_SHARD_SPEEDUP,
        if !enforce {
            "SKIPPED (narrow host)"
        } else if target_ok {
            "PASS"
        } else {
            "FAIL"
        }
    );
    if gate && (regression || !target_ok) {
        eprintln!("shard bench gate failed");
        std::process::exit(1);
    }
}
