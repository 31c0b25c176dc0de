//! Absolute pins on the query pipeline's output.
//!
//! The equivalence suites (`serving_equivalence`, `sched_equivalence`,
//! `crash_recovery`) compare two runs to each other. That proves
//! invariance across concurrency / window / admission config / crash point,
//! but says nothing once both sides are the same code. These digests pin
//! the canonical `RunResult` JSON (and one durable run's final WAL
//! segment) to fixed values, so a refactor of the pipeline that changes
//! any selection, clock, plan, or logged byte fails here.
//!
//! A digest moves only when behaviour moves. When that is intended,
//! re-pin from the assertion message and say why in CHANGES.md.

use bao_bench::{build_workload, WorkloadName};
use bao_harness::{BaoSettings, ModelKind, RunConfig, Runner, Strategy};
use bao_opt::HintSet;
use bao_storage::Database;
use bao_wal::{fnv64, DurabilityConfig, FsyncPolicy};
use bao_workloads::Workload;

const SCALE: f64 = 0.02;
const N_QUERIES: usize = 36;
/// Shared by the in-memory and the durable run of seed 19: logging never
/// changes what is computed.
const BAO_SEED_19_CACHE_FEATURES: u64 = 0xdc88af0181ff345b;

/// The `serving_equivalence` shape: fitted after 12 queries, so two
/// thirds of the workload goes through 49-arm scoring.
fn settings(cache_features: bool) -> BaoSettings {
    BaoSettings {
        model: ModelKind::TcnnFast,
        window: N_QUERIES,
        retrain: 12,
        cache_features,
        ..BaoSettings::default()
    }
}

fn config(seed: u64, strategy: Strategy) -> RunConfig {
    RunConfig { seed, stats_sample: 400, ..RunConfig::new(bao_cloud::N1_4, strategy) }
}

fn workload_for(seed: u64) -> (Database, Workload) {
    build_workload(WorkloadName::Imdb, SCALE, N_QUERIES, seed).unwrap()
}

fn digest_of(cfg: RunConfig) -> u64 {
    let (db, wl) = workload_for(cfg.seed);
    let result = Runner::new(cfg, db).run(&wl).unwrap();
    assert_eq!(result.records.len(), N_QUERIES);
    fnv64(result.canonical_json().as_bytes())
}

fn assert_pin(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what}: digest {got:#018x}, pinned {want:#018x}");
}

#[test]
fn bao_runs_match_pinned_digests() {
    let pins: [(u64, bool, u64); 6] = [
        (3, false, 0x2dc8fee1a0634b6b),
        (3, true, 0xf487f63cd951adf8),
        (19, false, 0x3f65fdb048d0b66d),
        (19, true, BAO_SEED_19_CACHE_FEATURES),
        (42, false, 0x307bae49cdc5cc87),
        (42, true, 0xfe45e84f98ea2621),
    ];
    for (seed, cache_features, want) in pins {
        let got = digest_of(config(seed, Strategy::Bao(settings(cache_features))));
        assert_pin(&format!("bao seed {seed} cache_features {cache_features}"), got, want);
    }
}

#[test]
fn non_bao_strategies_match_pinned_digests() {
    let seed = 5;
    assert_pin("traditional", digest_of(config(seed, Strategy::Traditional)), 0x4f086bf620a21bef);
    let no_loop = Strategy::FixedHint(HintSet::from_masks(0b011, 0b111));
    assert_pin("fixed hint", digest_of(config(seed, no_loop)), 0x2fc8f78715dfe748);
    let oracle = Strategy::Optimal { arms: HintSet::top_arms(5) };
    assert_pin("optimal top-5", digest_of(config(seed, oracle)), 0xe5619e7d65b9409b);
}

#[test]
fn cold_cache_and_sequential_arms_match_pinned_digests() {
    let seed = 42;
    let cold = RunConfig { cold_cache: true, ..config(seed, Strategy::Bao(settings(true))) };
    assert_pin("cold cache", digest_of(cold), 0x11b94b2c9788b9b7);
    let sequential =
        RunConfig { sequential_arms: true, ..config(seed, Strategy::Bao(settings(false))) };
    assert_pin("sequential arms", digest_of(sequential), 0xbf327a160c690fff);
}

#[test]
fn durable_run_wal_bytes_match_pinned_digest() {
    let seed = 19;
    let dir = std::env::temp_dir().join(format!("bao-golden-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = BaoSettings {
        durability: Some(DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never)),
        ..settings(true)
    };
    let (db, wl) = workload_for(seed);
    let result = Runner::new(config(seed, Strategy::Bao(durable)), db).run(&wl).unwrap();
    let digest = fnv64(result.canonical_json().as_bytes());
    assert_pin("durable result", digest, BAO_SEED_19_CACHE_FEATURES);

    let mut segments: Vec<_> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    segments.sort();
    let last = std::fs::read(segments.last().expect("durable run wrote a segment")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_pin("final wal segment", fnv64(&last), 0xc094b51beeca748c);
}
