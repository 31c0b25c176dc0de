//! Determinism contract of the query pipeline: at any concurrency level
//! and coalescing window it produces the same `RunResult`, byte for byte
//! (`RunResult::canonical_json`) — same selections, same clocks, same
//! experience ordering, same retrain schedule — on a full 49-arm
//! workload. The reference is `Runner::run`, which *is* the pipeline at
//! concurrency 1, window 1, so what these tests check is invariance
//! across the serving configuration; the absolute values are pinned by
//! `tests/pipeline_golden.rs`.

use bao_bench::{build_workload, WorkloadName};
use bao_harness::{
    BaoSettings, ModelKind, RunConfig, Runner, ServingConfig, ServingRunner, Strategy,
};
use bao_storage::Database;
use bao_workloads::Workload;

const SCALE: f64 = 0.02;
const N_QUERIES: usize = 36;

/// Settings that reach scored (fitted-model) mode early so coalesced
/// waves actually form: retrain every 12 queries leaves two thirds of
/// the workload scored by the full 49-arm batch.
fn settings(cache_features: bool) -> BaoSettings {
    BaoSettings {
        model: ModelKind::TcnnFast,
        window: N_QUERIES,
        retrain: 12,
        cache_features,
        ..BaoSettings::default()
    }
}

fn config(seed: u64, cache_features: bool) -> RunConfig {
    RunConfig {
        seed,
        stats_sample: 400,
        ..RunConfig::new(bao_cloud::N1_4, Strategy::Bao(settings(cache_features)))
    }
}

fn workload_for(seed: u64) -> (Database, Workload) {
    build_workload(WorkloadName::Imdb, SCALE, N_QUERIES, seed).unwrap()
}

#[test]
fn serving_is_bit_identical_to_serial_across_concurrency_and_windows() {
    for seed in [3, 19, 42] {
        let (db, wl) = workload_for(seed);
        let serial =
            Runner::new(config(seed, false), db.clone()).run(&wl).unwrap().canonical_json();
        for concurrency in [1usize, 4, 8] {
            for window in [1usize, 8] {
                let report = ServingRunner::new(
                    config(seed, false),
                    db.clone(),
                    ServingConfig::new(concurrency, window),
                )
                .run(&wl)
                .unwrap();
                assert!(
                    report.waves >= 1 && report.max_wave <= concurrency.min(window).max(1),
                    "seed {seed} c={concurrency} w={window}: waves {} max_wave {}",
                    report.waves,
                    report.max_wave
                );
                // Coalescing must actually engage once the window opens:
                // fewer waves than queries, and cross-query batches seen.
                if concurrency.min(window) > 1 {
                    assert!(
                        report.waves < N_QUERIES,
                        "seed {seed} c={concurrency} w={window}: no coalescing happened"
                    );
                    assert!(report.coalesced_trees > 0);
                }
                let concurrent = report.result.canonical_json();
                assert_eq!(
                    serial, concurrent,
                    "seed {seed} concurrency {concurrency} window {window}: \
                     serving run diverged from serial run"
                );
            }
        }
    }
}

#[test]
fn cache_feature_mode_clamps_waves_and_stays_identical() {
    // With cache features on, featurization reads buffer-pool state that
    // depends on every preceding execution; the pipeline must clamp its
    // waves to 1 (DESIGN.md §9) and still reproduce the (1, 1) run.
    let seed = 7;
    let (db, wl) = workload_for(seed);
    let serial = Runner::new(config(seed, true), db.clone()).run(&wl).unwrap().canonical_json();
    let report = ServingRunner::new(config(seed, true), db.clone(), ServingConfig::new(8, 8))
        .run(&wl)
        .unwrap();
    assert_eq!(report.max_wave, 1, "cache-feature mode must not coalesce");
    assert_eq!(report.waves, N_QUERIES);
    assert_eq!(serial, report.result.canonical_json());
}

#[test]
fn inert_plan_cache_is_byte_identical_to_uncached_serving() {
    // The plan cache's no-op contract (DESIGN.md §11): serving with the
    // cache disabled (`None`) and with a size-0 cache must produce
    // byte-identical results to each other and to the (1, 1) run — a
    // size-0 cache never hits and never stores, so the wave loop must
    // be indistinguishable from the uncached one.
    let seed = 11;
    let (db, wl) = workload_for(seed);
    let serial = Runner::new(config(seed, false), db.clone()).run(&wl).unwrap().canonical_json();
    for concurrency in [1usize, 4, 8] {
        let uncached = ServingRunner::new(
            config(seed, false),
            db.clone(),
            ServingConfig::new(concurrency, concurrency),
        )
        .run(&wl)
        .unwrap();
        let zero_cap = bao_cache::PlanCacheConfig { capacity: 0, ..Default::default() };
        let inert = ServingRunner::new(
            config(seed, false),
            db.clone(),
            ServingConfig::new(concurrency, concurrency).with_cache(zero_cap),
        )
        .run(&wl)
        .unwrap();
        assert!(uncached.cache.is_none());
        let stats = inert.cache.expect("size-0 cache still reports stats");
        assert_eq!(stats.hits, 0, "a size-0 cache can never hit");
        assert_eq!(stats.inserts, 0, "a size-0 cache can never store");
        let a = uncached.result.canonical_json();
        let b = inert.result.canonical_json();
        assert_eq!(serial, a, "c={concurrency}: uncached serving diverged from serial");
        assert_eq!(a, b, "c={concurrency}: size-0 cache changed the serving path");
    }
}

#[test]
fn non_bao_strategies_pass_through_serving_unchanged() {
    let seed = 5;
    let (db, wl) = workload_for(seed);
    let cfg = RunConfig {
        seed,
        stats_sample: 400,
        ..RunConfig::new(bao_cloud::N1_4, Strategy::Traditional)
    };
    let serial = Runner::new(cfg.clone(), db.clone()).run(&wl).unwrap().canonical_json();
    let report = ServingRunner::new(cfg, db, ServingConfig::new(8, 8)).run(&wl).unwrap();
    assert_eq!(report.max_wave, 1);
    assert_eq!(serial, report.result.canonical_json());
}
