//! Determinism contract of morsel-driven sharded execution (DESIGN.md
//! §13): executing any plan over {2, 4, 8} range/hash shards on the
//! work-stealing morsel pool produces output rows and `ExecutionMetrics`
//! byte-identical (via ToJson) to the single-shard serial path — same
//! filter results, same join order, same aggregate sums bit-for-bit, same
//! buffer-pool traffic — and a full Bao `Runner` workload is equally
//! invariant in `shard_workers`.

use bao_bench::{build_workload, WorkloadName};
use bao_common::json::ToJson;
use bao_exec::{execute_with, ExecConfig};
use bao_harness::{BaoSettings, ModelKind, RunConfig, Runner, Strategy};
use bao_opt::{HintSet, Optimizer};
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, PoolStats};

const SCALE: f64 = 0.05;
const N_QUERIES: usize = 24;
const SEEDS: [u64; 3] = [3, 19, 42];

/// Tiny morsels so even the small test tables split into many jobs per
/// operator — the worst case for merge-order bugs.
fn exec_cfg(shard_workers: usize) -> ExecConfig {
    ExecConfig { shard_workers, morsel_rows: 64 }
}

/// Execute the whole workload's all-enabled plans against a shared
/// (warming) pool at the given width; returns per-query canonical metrics
/// JSON (covering rows_out, node_true_rows, latencies, page traffic, and
/// the materialized output rows).
fn run_executor(seed: u64, shard_workers: usize) -> Vec<String> {
    let (db, wl) = build_workload(WorkloadName::Imdb, SCALE, N_QUERIES, seed).unwrap();
    let cat = StatsCatalog::analyze(&db, 400, seed);
    let opt = Optimizer::postgres();
    let rates = bao_cloud::N1_4.charge_rates();
    let mut pool = BufferPool::new(bao_cloud::N1_4.buffer_pool_pages());
    let cfg = exec_cfg(shard_workers);
    let mut out = Vec::with_capacity(wl.steps.len());
    for step in &wl.steps {
        let plan = opt.plan(&step.query, &db, &cat, HintSet::all_enabled()).unwrap();
        let m = execute_with(
            &plan.root,
            &step.query,
            &db,
            &mut pool,
            &opt.params,
            &rates,
            &cfg,
        )
        .unwrap();
        out.push(m.to_json().to_string());
    }
    // The shard annotations must partition the pool totals exactly.
    let summed = pool
        .shard_stats()
        .values()
        .fold(PoolStats::default(), |acc, s| PoolStats {
            hits: acc.hits + s.hits,
            misses: acc.misses + s.misses,
        });
    assert_eq!(summed, pool.stats(), "per-shard stats must sum to the pool totals");
    out
}

#[test]
fn executor_is_bit_identical_across_shard_counts() {
    for seed in SEEDS {
        let single = run_executor(seed, 1);
        for shards in [2usize, 4, 8] {
            let sharded = run_executor(seed, shards);
            for (i, (a, b)) in single.iter().zip(sharded.iter()).enumerate() {
                assert_eq!(
                    a, b,
                    "seed {seed} shards {shards} query {i}: sharded metrics diverged"
                );
            }
        }
    }
}

fn run_config(seed: u64, shard_workers: usize) -> RunConfig {
    RunConfig {
        seed,
        stats_sample: 400,
        ..RunConfig::new(
            bao_cloud::N1_4,
            Strategy::Bao(BaoSettings {
                model: ModelKind::TcnnFast,
                window: N_QUERIES,
                retrain: 12,
                cache_features: false,
                shard_workers,
                ..BaoSettings::default()
            }),
        )
    }
}

#[test]
fn full_bao_runs_are_invariant_in_shard_workers() {
    for seed in SEEDS {
        let (db, wl) = build_workload(WorkloadName::Imdb, 0.02, N_QUERIES, seed).unwrap();
        let serial =
            Runner::new(run_config(seed, 1), db.clone()).run(&wl).unwrap().canonical_json();
        for shards in [2usize, 4, 8] {
            let sharded =
                Runner::new(run_config(seed, shards), db.clone()).run(&wl).unwrap().canonical_json();
            assert_eq!(
                serial, sharded,
                "seed {seed} shard_workers {shards}: Bao run diverged from serial"
            );
        }
    }
}

#[test]
fn host_sized_width_is_also_invariant() {
    // `shard_workers: 0` resolves to the host's core count — whatever
    // that is, the run must match the pinned serial result.
    let seed = 7;
    let (db, wl) = build_workload(WorkloadName::Imdb, 0.02, N_QUERIES, seed).unwrap();
    let serial = Runner::new(run_config(seed, 1), db.clone()).run(&wl).unwrap().canonical_json();
    let host = Runner::new(run_config(seed, 0), db.clone()).run(&wl).unwrap().canonical_json();
    assert_eq!(serial, host, "host-sized shard pool diverged from serial");
}
