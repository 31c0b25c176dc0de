//! The two production race suites from DESIGN.md §12: the two places in
//! the workspace that spawn threads, explored exhaustively (bounded
//! preemption) under the instrumented `bao_common::sync` shim.
//!
//! 1. `training_pool` — the `bao_nn::train` shard hand-off (the
//!    coordinator plus 2 persistent helpers × 2 minibatches of 3 shards
//!    each, one shard per thread), the one pool that has channels.
//! 2. `worker_pool` — `bao_common::pool::run_jobs`, under every planning
//!    fan-out and every morsel phase: 3 threads × 7 jobs.
//!
//! Each suite asserts zero races / zero lock-order cycles / byte-identical
//! output across every explored interleaving, then records the explored
//! count into `results/race_report.json`.
//!
//! Smoke runs bound each suite's interleaving cap so the whole pass stays
//! within ~60s; `BAO_RACE_UNBOUNDED=1` (the `scripts/check.sh
//! --race-nightly` stage) lifts every cap so the bounded-preemption space
//! is explored to completion.
#![cfg(bao_race)]

use bao_common::pool::run_jobs;
use bao_nn::{train, FeatTree, ScoreScratch, TcnnConfig, TrainConfig, TreeCnn};
use bao_race::explorer::Explorer;
use bao_race::report::record_suite;

/// Interleaving cap for one suite: `BAO_RACE_UNBOUNDED` explores the
/// bounded-preemption space to completion (the nightly mode), otherwise
/// the suite's smoke default applies.
fn cap(smoke_default: usize) -> usize {
    match std::env::var("BAO_RACE_UNBOUNDED") {
        Ok(v) if !v.is_empty() && v != "0" => usize::MAX,
        _ => smoke_default,
    }
}

/// Deterministic little synthetic training set: 3-node trees whose target
/// is a function of the features. 12 trees / batch 6 / shard 2 ⇒ exactly
/// 2 minibatches of 3 shards per epoch.
fn training_data(n: usize) -> (Vec<FeatTree>, Vec<f32>) {
    let mut trees = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let a = (i % 5) as f32;
        let b = ((i * 7) % 3) as f32;
        let nodes = vec![vec![a, 1.0, 0.5], vec![b, 1.0, 0.25], vec![a + b, 1.0, 0.75]];
        trees.push(FeatTree::new(3, nodes, vec![1, -1, -1], vec![2, -1, -1]));
        ys.push(a * 2.0 + b + 1.0);
    }
    (trees, ys)
}

/// Suite 1: the training pool. The coordinator computes shard 0 of every
/// minibatch itself, so width 3 over 3 shards is two helpers each taking
/// one slot per minibatch and handing it back. All sync-bearing state
/// (the net, the channels, the helpers) is created inside the body; the
/// dataset is immutable shared input.
#[test]
fn training_pool_suite() {
    let (trees, ys) = training_data(12);
    let cfg = TrainConfig {
        max_epochs: 1,
        batch_size: 6,
        shard_size: 2,
        threads: 3,
        seed: 11,
        ..TrainConfig::default()
    };
    let n = Explorer::new("training_pool", cap(600), 2)
        .check(|| {
            let mut net = TreeCnn::new(TcnnConfig::tiny(3), 17);
            let report = train(&mut net, &trees, &ys, &cfg);
            let mut bytes = Vec::new();
            for l in &report.loss_history {
                bytes.extend_from_slice(&l.to_le_bytes());
            }
            let score = net.score(&[&trees[0]], &mut ScoreScratch::new())[0];
            bytes.extend_from_slice(&score.to_le_bytes());
            bytes
        })
        .expect_clean();
    assert!(n >= 200, "training pool explored only {n} interleavings");
    record_suite("training_pool", n);
}

/// Suite 2: the workspace pool (`bao_common::pool::run_jobs`), which
/// every arm-planning fan-out and every morsel phase goes through. Three
/// threads over seven jobs: a ragged last stripe, the caller computing
/// stripe 0 beside two helpers. The jobs are pure compute over immutable
/// shared input, as real planning and morsel jobs are; the fingerprint is
/// the slot-ordered concatenation of every job's output. The pool shares
/// nothing between threads, so its bounded-preemption space is small by
/// design and the suite asserts it was explored to completion.
#[test]
fn worker_pool_suite() {
    let col: Vec<i64> = (0..112).map(|i| (i * 37) % 101).collect();
    let outcome = Explorer::new("worker_pool", cap(600), 2).check(|| {
        let parts = run_jobs(3, 7, |j| {
            Ok((16 * j..16 * (j + 1)).filter(|&r| col[r] >= 50).collect::<Vec<usize>>())
        })
        .unwrap();
        let mut bytes = Vec::new();
        for (slot, rows) in parts.iter().enumerate() {
            bytes.push(slot as u8);
            bytes.push(rows.len() as u8);
            bytes.extend(rows.iter().map(|&r| r as u8));
        }
        bytes
    });
    let exhausted = outcome.exhausted;
    let n = outcome.expect_clean();
    assert!(exhausted, "worker pool space not exhausted after {n} interleavings");
    record_suite("worker_pool", n);
}
