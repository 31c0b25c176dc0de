//! The four production race suites from DESIGN.md §12: every concurrent
//! path in the workspace, explored exhaustively (bounded preemption) under
//! the instrumented `bao_common::sync` shim.
//!
//! 1. `training_pool` — the `bao_nn::train` shard hand-off (the
//!    coordinator plus 2 persistent helpers × 2 minibatches of 3 shards
//!    each, one shard per thread).
//! 2. `planning_fanout` — `Bao::evaluate_arms_multi`'s slot-tagged
//!    planner pool (2 workers over 4 (query, arm) jobs).
//! 3. `sched_serving_handoff` — the full sched → serving wave loop,
//!    including a mid-run retrain so post-retrain waves exercise the
//!    scoring fan-out against the new model.
//! 4. `morsel_pool` — the executor's morsel work-stealing pool
//!    (`bao_exec::run_jobs`, DESIGN.md §13): 2 workers × 4 morsel jobs.
//!
//! Each suite asserts zero races / zero lock-order cycles / byte-identical
//! output across ≥ 200 distinct interleavings, then records the explored
//! count into `results/race_report.json`.
//!
//! Smoke runs bound each suite's interleaving cap so the whole pass stays
//! within ~60s; `BAO_RACE_UNBOUNDED=1` (the `scripts/check.sh
//! --race-nightly` stage) lifts every cap so the bounded-preemption space
//! is explored to completion.
#![cfg(bao_race)]

use bao_common::json::ToJson;
use bao_common::SimDuration;
use bao_core::{Bao, BaoConfig};
use bao_harness::{
    BaoSettings, ModelKind, RunConfig, ServingConfig, ServingRunner, Strategy,
};
use bao_nn::{train, FeatTree, ScoreScratch, TcnnConfig, TrainConfig, TreeCnn};
use bao_opt::{HintSet, Optimizer};
use bao_race::explorer::Explorer;
use bao_race::report::record_suite;
use bao_sched::{QueryArrival, SchedConfig, TenantSpec, WavePolicy};
use bao_sql::parse_query;
use bao_stats::StatsCatalog;
use bao_storage::{ColumnDef, Database, DataType, Schema, Table, Value};

/// Interleaving cap for one suite. Priority order:
///
/// 1. `BAO_RACE_BUDGET=<n>` — an explicit bound, so nightly runs of
///    suites whose full bounded-preemption space is impractically large
///    (`sched_serving_handoff`) still record a reproducible count in
///    `results/race_report.json` instead of being skipped or running
///    forever.
/// 2. `BAO_RACE_UNBOUNDED` — explore the bounded-preemption space to
///    completion (the nightly mode for the suites that terminate).
/// 3. Otherwise the suite's smoke default.
fn cap(smoke_default: usize) -> usize {
    if let Ok(v) = std::env::var("BAO_RACE_BUDGET") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
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

/// Small two-table IMDB-shaped database (the `bao_loop_tests` schema at
/// reduced row count): enough structure for hint-sensitive join plans,
/// cheap enough to plan hundreds of times.
fn tiny_db() -> (Database, StatsCatalog) {
    let mut title = Table::new(
        "title",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("kind", DataType::Int),
            ColumnDef::new("year", DataType::Int),
        ]),
    );
    for i in 0..400i64 {
        let kind = if i % 5 == 0 { 2 } else { 1 };
        let year = if kind == 2 { 2010 } else { 1950 + (i % 60) };
        title.insert(vec![Value::Int(i), Value::Int(kind), Value::Int(year)]).unwrap();
    }
    let mut ci = Table::new(
        "cast_info",
        Schema::new(vec![
            ColumnDef::new("movie_id", DataType::Int),
            ColumnDef::new("role", DataType::Int),
        ]),
    );
    for i in 0..1200i64 {
        ci.insert(vec![Value::Int((i * 31) % 400), Value::Int(i % 11)]).unwrap();
    }
    let mut db = Database::new();
    db.create_table(title).unwrap();
    db.create_table(ci).unwrap();
    db.create_index("title", "id").unwrap();
    db.create_index("cast_info", "movie_id").unwrap();
    let cat = StatsCatalog::analyze(&db, 400, 3);
    (db, cat)
}

/// Suite 2: the arm fan-out pool. Two queries × two arms = four jobs on a
/// pinned two-worker pool; planning is read-only over `(query, db, cat)`,
/// so the database is shared input and every shim object (job/result
/// channels, the receiver mutex, the scoped workers) is body-local.
#[test]
fn planning_fanout_suite() {
    let (db, cat) = tiny_db();
    let queries = vec![
        parse_query(
            "SELECT COUNT(*) FROM title t, cast_info ci \
             WHERE t.id = ci.movie_id AND t.kind = 2 AND t.year = 2010",
        )
        .unwrap(),
        parse_query("SELECT COUNT(*) FROM title t WHERE t.year >= 1999").unwrap(),
    ];
    let opt = Optimizer::postgres();
    let n = Explorer::new("planning_fanout", cap(600), 2)
        .check(|| {
            let bao = Bao::new(BaoConfig {
                arms: HintSet::top_arms(2),
                parallel_planning: true,
                planning_threads: 2,
                ..BaoConfig::default()
            });
            let qrefs: Vec<&_> = queries.iter().collect();
            let results = bao.evaluate_arms_multi(&opt, &qrefs, &db, &cat, None).unwrap();
            let mut bytes = Vec::new();
            for (sel, pairs) in &results {
                bytes.push(sel.arm as u8);
                bytes.push(sel.arms_planned as u8);
                for w in &sel.per_arm_work {
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
                // Full plan + featurization fingerprint: any re-slotting
                // bug (worker output landing in the wrong (query, arm)
                // slot) changes these bytes.
                bytes.extend_from_slice(format!("{pairs:?}").as_bytes());
            }
            bytes
        })
        .expect_clean();
    assert!(n >= 200, "planning fan-out explored only {n} interleavings");
    record_suite("planning_fanout", n);
}

/// Suite 3: the sched → serving wave handoff. Two tenants, six queries,
/// retrain interval 3 ⇒ the model retrains mid-run and the post-retrain
/// waves score their arm fan-out against the new weights. Everything
/// mutable (runner, scheduler, buffer pool, Bao state) is built inside
/// the body; only the workload description is shared input.
#[test]
fn sched_serving_handoff_suite() {
    let (db, wl) = bao_bench::build_workload(bao_bench::WorkloadName::Imdb, 0.01, 6, 7).unwrap();
    let settings = BaoSettings {
        model: ModelKind::TcnnFast,
        window: 6,
        retrain: 3,
        cache_features: false,
        planning_threads: 2,
        arms: HintSet::top_arms(2),
        ..BaoSettings::default()
    };
    let sched = SchedConfig {
        tenants: vec![TenantSpec::new("a").with_weight(2), TenantSpec::new("b").with_weight(1)],
        policy: WavePolicy::Drr,
        quantum: 1,
        shed_deadline: None,
    };
    let arrivals: Vec<QueryArrival> = (0..6)
        .map(|i| QueryArrival { idx: i, tenant: i % 2, arrival: SimDuration::ZERO })
        .collect();
    let n = Explorer::new("sched_serving_handoff", cap(220), 2)
        .check(|| {
            let cfg = RunConfig {
                seed: 7,
                stats_sample: 200,
                ..RunConfig::new(bao_cloud::N1_4, Strategy::Bao(settings.clone()))
            };
            let report = ServingRunner::new(cfg, db.clone(), ServingConfig::new(2, 2))
                .with_sched(sched.clone())
                .run_scheduled(&wl, &arrivals)
                .unwrap();
            let mut bytes = report.serving.result.canonical_json().into_bytes();
            for d in &report.dispatches {
                bytes.push(d.idx as u8);
                bytes.push(d.tenant as u8);
                bytes.push(d.shed as u8);
            }
            bytes
        })
        .expect_clean();
    assert!(n >= 200, "sched/serving handoff explored only {n} interleavings");
    record_suite("sched_serving_handoff", n);
}

/// Suite 4: the executor's morsel pool (DESIGN.md §13). Two workers pull
/// four morsel jobs off the shared job channel — the exact shape a
/// 2-shard scan splits into at small morsel size. The jobs are pure
/// compute over immutable shared input (like real morsel jobs: predicate
/// evaluation over a row range); the fingerprint is the slot-ordered
/// concatenation of every job's output, so any re-slotting or lost-job
/// bug changes the bytes.
#[test]
fn morsel_pool_suite() {
    // Immutable shared input: a little "column" the jobs filter.
    let col: Vec<i64> = (0..64).map(|i| (i * 37) % 101).collect();
    let ranges = [(0u32, 16u32), (16, 32), (32, 48), (48, 64)];
    let n = Explorer::new("morsel_pool", cap(600), 2)
        .check(|| {
            let parts = bao_exec::run_jobs(2, ranges.len(), |j| {
                let (lo, hi) = ranges[j];
                Ok((lo..hi).filter(|&r| col[r as usize] >= 50).collect::<Vec<u32>>())
            })
            .unwrap();
            let mut bytes = Vec::new();
            for (slot, rows) in parts.iter().enumerate() {
                bytes.push(slot as u8);
                bytes.push(rows.len() as u8);
                for r in rows {
                    bytes.extend_from_slice(&r.to_le_bytes());
                }
            }
            bytes
        })
        .expect_clean();
    assert!(n >= 200, "morsel pool explored only {n} interleavings");
    record_suite("morsel_pool", n);
}
