//! WAL overhead + recovery throughput benchmark (DESIGN.md §14).
//!
//! Two measurements:
//!
//! 1. **Serving throughput with logging (gated).** The same concurrency-8
//!    serving run is wall-clocked with durability off and with the WAL on
//!    (group commit: one buffered batch + fsync decision per wave,
//!    `FsyncPolicy::EveryN(8)`). The gated metric is the ratio
//!    `wall(no wal) / wall(wal)` — i.e. the fraction of no-WAL throughput
//!    the logging run retains. Group commit is the whole point: one
//!    write+fsync per wave instead of per frame keeps the ratio near 1.
//!    Acceptance floor: >= 0.9 (logging may cost at most ~11% wall).
//! 2. **Recovery scan rate (warn-only).** `Wal::scan` over the log the
//!    serving run just wrote, in records/sec. Machine-dependent, so it is
//!    recorded for trend visibility and never gated.
//!
//! `--gate` turns gated regressions into a non-zero exit
//! (`scripts/check.sh --bench-smoke`), `--quick` shrinks sample counts,
//! `--update-baseline` overwrites recorded values.

use std::cell::Cell;
use std::path::PathBuf;

use bao_bench::timing::{BaselineStore, Group};
use bao_bench::{build_workload, print_header, Args, WorkloadName};
use bao_harness::{BaoSettings, ModelKind, RunConfig, ServingConfig, ServingRunner, Strategy};
use bao_storage::Database;
use bao_wal::{DurabilityConfig, FsyncPolicy, Wal};
use bao_workloads::Workload;

/// Regression tolerance on the gated ratio metric.
const TOLERANCE: f64 = 0.20;
/// Acceptance floor: WAL'd serving must retain at least this fraction of
/// the no-WAL wall-clock throughput at concurrency 8.
const MIN_QPS_RATIO: f64 = 0.9;
const SCALE: f64 = 0.02;
const N_QUERIES: usize = 36;
const CONCURRENCY: usize = 8;

fn settings(dir: Option<PathBuf>) -> BaoSettings {
    BaoSettings {
        model: ModelKind::TcnnFast,
        window: N_QUERIES,
        retrain: 12,
        cache_features: false,
        durability: dir.map(|d| {
            DurabilityConfig::new(d).with_fsync(FsyncPolicy::EveryN(8))
        }),
        ..BaoSettings::default()
    }
}

/// One full serving run; `wal_dir` Some => durable. The directory is
/// wiped first: `Wal::open` refuses a directory that already holds a log.
fn serving_run(seed: u64, db: &Database, wl: &Workload, wal_dir: Option<&PathBuf>) {
    if let Some(d) = wal_dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let cfg = RunConfig {
        seed,
        stats_sample: 400,
        ..RunConfig::new(bao_cloud::N1_4, Strategy::Bao(settings(wal_dir.cloned())))
    };
    let report = ServingRunner::new(
        cfg,
        db.clone(),
        ServingConfig::new(CONCURRENCY, CONCURRENCY),
    )
    .run(wl)
    .expect("serving run");
    assert_eq!(report.result.records.len(), N_QUERIES);
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let gate = args.has("gate");
    let update = args.has("update-baseline");
    let seed = args.seed();
    let samples = if quick { 6 } else { 20 };

    print_header(
        "WAL overhead benchmark",
        &format!(
            "(IMDb scale {SCALE}, c={CONCURRENCY}, group commit EveryN(8), {samples} samples{})",
            if quick { ", quick" } else { "" }
        ),
    );

    let (db, wl) =
        build_workload(WorkloadName::Imdb, SCALE, N_QUERIES, seed).expect("workload");
    let root = std::env::temp_dir().join(format!("bao-wal-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // --- Serving wall-clock, durability off vs on.
    let group = Group::new("wal_serving", samples);
    let no_wal = group.bench_stats("no_wal_c8", || serving_run(seed, &db, &wl, None));
    let iter = Cell::new(0u64);
    let walled = group.bench_stats("wal_c8", || {
        // Fresh directory per iteration; kept on disk so the recovery
        // scan below reads a real log.
        let dir = root.join(format!("run-{}", iter.get()));
        iter.set(iter.get() + 1);
        serving_run(seed, &db, &wl, Some(&dir));
    });
    let qps_ratio = no_wal.trimmed_mean / walled.trimmed_mean;
    println!();
    println!(
        "serving c={CONCURRENCY}: no-wal {:.2} ms, wal {:.2} ms -> logging retains {:.1}% of throughput",
        no_wal.trimmed_mean * 1e3,
        walled.trimmed_mean * 1e3,
        qps_ratio * 100.0
    );

    // --- Recovery scan rate over the last run's log.
    let last_dir = root.join(format!("run-{}", iter.get() - 1));
    let scan_group = Group::new("wal_recovery", samples.max(10));
    let mut frames = 0u64;
    let mut bytes = 0u64;
    let scan = scan_group.bench_stats("scan", || {
        let s = Wal::scan(&last_dir).expect("scan");
        frames = s.report.frames_valid;
        bytes = s.report.bytes_valid;
    });
    let records_per_sec = frames as f64 / scan.trimmed_mean;
    let mb_per_sec = bytes as f64 / (1 << 20) as f64 / scan.trimmed_mean;
    println!();
    println!(
        "recovery scan: {frames} frames / {bytes} bytes in {:.3} ms -> {:.0} records/sec ({:.0} MB/s)",
        scan.trimmed_mean * 1e3,
        records_per_sec,
        mb_per_sec
    );

    // --- Baseline comparison. Gated: the throughput-retention ratio
    // (machine-independent-ish: both sides run on the same box back to
    // back). Warn-only: the machine-dependent recovery scan rate.
    let gated = [("wal_qps_ratio_c8", qps_ratio)];
    let warned = [
        ("wal_recovery_records_per_sec", records_per_sec),
        ("wal_log_bytes_per_query", bytes as f64 / N_QUERIES as f64),
    ];
    let regression =
        BaselineStore::gate(&BaselineStore::repo_path(), &gated, &warned, TOLERANCE, update);
    let _ = std::fs::remove_dir_all(&root);

    println!();
    let target_ok = qps_ratio >= MIN_QPS_RATIO;
    println!(
        "WAL'd serving retains {:.1}% of no-WAL throughput (target >= {:.0}%): {}",
        qps_ratio * 100.0,
        MIN_QPS_RATIO * 100.0,
        if target_ok { "PASS" } else { "FAIL" }
    );
    if gate && (regression || !target_ok) {
        eprintln!("wal bench gate failed");
        std::process::exit(1);
    }
}
