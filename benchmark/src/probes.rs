//! Layer probes of the traced run. After the timed passes, each layer's
//! public function is called in isolation on inputs taken from the
//! workload (its SQL texts, queries, database and statistics), whether or
//! not the workload's own path goes through that layer: the figure says
//! what the layer costs on these inputs, and `metrics::DEFS` says which
//! workload's end-to-end metric it should move.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bao_cache::{PlanCache, PlanCacheConfig};
use bao_common::json::ToJson;
use bao_common::SimDuration;
use bao_core::Featurizer;
use bao_exec::{execute, execute_with, ExecConfig};
use bao_harness::QueryRecord;
use bao_models::{TcnnModel, ValueModel};
use bao_nn::FeatTree;
use bao_opt::{annotate_estimates, HintSet, Optimizer};
use bao_plan::{fingerprint, PlanNode, QueryFingerprint};
use bao_sched::{QueryArrival, SchedConfig, Scheduler};
use bao_storage::BufferPool;
use bao_wal::{DurabilityConfig, Wal, WalRecord};

use crate::metrics::Metrics;
use crate::stats::{mean, percentile};
use crate::workloads::{new_bao, reset_dir, tmp_dir, Inputs, POPULATION_SEED};

const VM: bao_cloud::VmType = bao_cloud::N1_4;

/// Statements executed by the capture loop: enough for a 95th percentile
/// (12 samples beyond it).
const CAPTURE: usize = 250;
/// Fitted `select_plan` calls: 200 leaves ten beyond the 95th percentile.
const SELECTS: usize = 200;
/// Queries whose 49-arm family is planned, annotated, featurized, scored.
const FAMILIES: usize = 32;
/// Statements of the shard-width probe, slowest first.
const SHARD_PROBE: usize = 20;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// What the capture loop keeps of one executed statement.
struct Captured {
    stmt: usize,
    plan: PlanNode,
    tree: FeatTree,
    perf: f64,
    latency: SimDuration,
    exec: Duration,
}

/// Run every probe and record its metrics. `Err` is a product call that
/// failed where the workload's own passes did not.
pub fn run(inp: &Inputs, cache_features: bool, m: &mut Metrics) -> Result<(), String> {
    let opt = Optimizer::postgres();
    let rates = VM.charge_rates();
    let feat = Featurizer::new(cache_features);
    let n = inp.sql.len();
    let err = |e: bao_common::BaoError| e.to_string();

    // -- bao-sql --
    let (parsed, d) = timed(|| {
        inp.sql
            .iter()
            .filter(|s| bao_sql::parse_query(s).is_ok())
            .count()
    });
    if parsed != n {
        return Err(format!(
            "parse_query failed on {} of {n} SQL texts",
            n - parsed
        ));
    }
    m.put("sql.parse_us_mean", us(d) / n as f64);

    // -- bao-plan fingerprint, bao-cache lookup --
    let reps = 20_000usize.div_ceil(n);
    let (fps, d) = timed(|| {
        let mut last: Vec<QueryFingerprint> = Vec::new();
        for _ in 0..reps {
            last = inp
                .wl
                .steps
                .iter()
                .map(|s| fingerprint(black_box(&s.query)))
                .collect();
        }
        last
    });
    m.put(
        "plan.fingerprint_ns_mean",
        d.as_secs_f64() * 1e9 / (reps * n) as f64,
    );
    let mut cache = PlanCache::new(PlanCacheConfig {
        capacity: n.max(1),
        ..PlanCacheConfig::default()
    });
    for fp in &fps {
        cache.insert(*fp, 0, 1.0, 1);
    }
    let (hits, d) = timed(|| {
        let mut hits = 0usize;
        for _ in 0..reps {
            hits += fps
                .iter()
                .filter(|fp| cache.lookup(black_box(**fp), 1).is_some())
                .count();
        }
        hits
    });
    if hits != reps * n {
        return Err(format!(
            "PlanCache::lookup hit {hits} of {} inserted fingerprints",
            reps * n
        ));
    }
    m.put(
        "cache.lookup_ns_mean",
        d.as_secs_f64() * 1e9 / (reps * n) as f64,
    );

    // -- bao-sched --
    let arrivals: Vec<QueryArrival> = (0..n).map(QueryArrival::step).collect();
    let mut waves = 0usize;
    let mut dispatched = 0usize;
    let ((), d) = timed(|| {
        for _ in 0..reps {
            let Ok(mut s) = Scheduler::new(SchedConfig::single_tenant()) else {
                return;
            };
            if s.submit(&arrivals).is_err() {
                return;
            }
            s.release(SimDuration::ZERO);
            loop {
                let wave = s.form_wave(SimDuration::ZERO, 8);
                if wave.is_empty() {
                    break;
                }
                waves += 1;
                dispatched += wave.len();
            }
        }
    });
    if dispatched != reps * n {
        return Err(format!(
            "Scheduler dispatched {dispatched} of {} arrivals",
            reps * n
        ));
    }
    m.put("sched.form_wave_us_mean", us(d) / waves as f64);

    // -- capture loop: default plan, executed in stream order on one pool --
    let mut pool = BufferPool::new(VM.buffer_pool_pages());
    let mut captured: Vec<Captured> = Vec::new();
    let (mut plan_d, mut node_rows, mut hits, mut misses) = (Duration::ZERO, 0u64, 0u64, 0u64);
    for (stmt, step) in inp.wl.steps.iter().enumerate().take(CAPTURE) {
        let q = &step.query;
        let (out, d) = timed(|| opt.plan(q, &inp.db, &inp.cat, HintSet::all_enabled()));
        plan_d += d;
        let mut plan = out.map_err(err)?.root;
        annotate_estimates(
            &mut plan,
            q,
            &inp.db,
            &inp.cat,
            opt.estimator(),
            &opt.params,
        )
        .map_err(err)?;
        let tree = feat.featurize(&plan, q, &inp.db, Some(&pool));
        let (out, exec) = timed(|| execute(&plan, q, &inp.db, &mut pool, &opt.params, &rates));
        let metrics = out.map_err(err)?;
        node_rows += metrics.node_true_rows.iter().sum::<u64>();
        hits += metrics.page_hits;
        misses += metrics.page_misses;
        captured.push(Captured {
            stmt,
            plan,
            tree,
            perf: metrics.latency.as_ms(),
            latency: metrics.latency,
            exec,
        });
    }
    let k = captured.len();
    let exec_ms: Vec<f64> = captured.iter().map(|c| ms(c.exec)).collect();
    let exec_s: f64 = captured.iter().map(|c| c.exec.as_secs_f64()).sum();
    m.put("opt.plan_default_us_mean", us(plan_d) / k as f64);
    m.put("exec.execute_ms_mean", mean(&exec_ms).unwrap_or(0.0));
    m.put(
        "exec.execute_ms_p95",
        percentile(&exec_ms, 95.0).unwrap_or(0.0),
    );
    m.put("exec.node_rows_per_s", node_rows as f64 / exec_s);
    m.put(
        "storage.page_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.put("storage.page_misses", misses as f64);

    // -- bao-exec shard width: host-sized pool against the serial default --
    let mut slowest: Vec<&Captured> = captured.iter().collect();
    slowest.sort_by(|a, b| b.exec.cmp(&a.exec).then(a.stmt.cmp(&b.stmt)));
    let (mut auto, mut serial) = (Duration::ZERO, Duration::ZERO);
    for c in slowest.iter().take(SHARD_PROBE) {
        let q = &inp.wl.steps[c.stmt].query;
        for (workers, total) in [(1usize, &mut serial), (0usize, &mut auto)] {
            let mut scratch = BufferPool::new(VM.buffer_pool_pages());
            let cfg = ExecConfig {
                shard_workers: workers,
                ..ExecConfig::default()
            };
            let (out, d) = timed(|| {
                execute_with(&c.plan, q, &inp.db, &mut scratch, &opt.params, &rates, &cfg)
            });
            out.map_err(err)?;
            *total += d;
        }
    }
    m.put(
        "exec.shard_auto_ratio",
        auto.as_secs_f64() / serial.as_secs_f64(),
    );

    // -- bao-opt + featurizer over whole arm families --
    let arms = HintSet::family_49();
    let stride = (n / FAMILIES).max(1);
    let mut families: Vec<Vec<FeatTree>> = Vec::new();
    let (mut plan_d, mut annotate_d, mut feat_d) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut distinct, mut planned) = (0usize, 0usize);
    for step in inp.wl.steps.iter().step_by(stride).take(FAMILIES) {
        let q = &step.query;
        let mut plans: Vec<PlanNode> = Vec::with_capacity(arms.len());
        let mut trees = Vec::with_capacity(arms.len());
        for &arm in &arms {
            let (out, d) = timed(|| opt.plan(q, &inp.db, &inp.cat, arm));
            plan_d += d;
            let mut root = out.map_err(err)?.root;
            let (out, d) = timed(|| {
                annotate_estimates(
                    &mut root,
                    q,
                    &inp.db,
                    &inp.cat,
                    opt.estimator(),
                    &opt.params,
                )
            });
            annotate_d += d;
            out.map_err(err)?;
            let (tree, d) = timed(|| feat.featurize(&root, q, &inp.db, Some(&pool)));
            feat_d += d;
            trees.push(tree);
            if !plans.contains(&root) {
                distinct += 1;
            }
            plans.push(root);
        }
        planned += arms.len();
        families.push(trees);
    }
    m.put("opt.plan_arm_us_mean", us(plan_d) / planned as f64);
    m.put("opt.annotate_us_mean", us(annotate_d) / planned as f64);
    m.put("core.featurize_us_mean", us(feat_d) / planned as f64);
    m.put("opt.distinct_plan_frac", distinct as f64 / planned as f64);

    // -- bao-nn through ValueModel: fit at three experience sizes --
    let pairs = |size: usize| -> (Vec<FeatTree>, Vec<f64>) {
        captured
            .iter()
            .cycle()
            .take(size)
            .map(|c| (c.tree.clone(), c.perf))
            .unzip()
    };
    let mut model = TcnnModel::with_defaults(feat.input_dim());
    // e100 runs last, so that scoring below uses a model fitted on the
    // first 100 observations.
    for (name, size) in [
        ("nn.fit_ms_e2000", 2000),
        ("nn.fit_ms_e250", 250),
        ("nn.fit_ms_e100", 100),
    ] {
        let (trees, ys) = pairs(size);
        let ((), d) = timed(|| model.fit(&trees, &ys, POPULATION_SEED));
        m.put(name, ms(d));
        if size == 2000 {
            m.put("nn.fit_epochs_e2000", model.last_epochs() as f64);
        }
    }

    // -- scoring: one family at a time, and eight coalesced --
    let mut family_d = Duration::ZERO;
    for fam in &families {
        let refs: Vec<&FeatTree> = fam.iter().collect();
        let (out, d) = timed(|| model.predict_batch(&refs));
        family_d += d;
        black_box(out.map_err(err)?);
    }
    m.put(
        "nn.score_family_us_mean",
        us(family_d) / families.len() as f64,
    );
    let mut wave_d = Duration::ZERO;
    let (mut scored, mut requested, mut waves) = (0usize, 0usize, 0usize);
    for wave in families.chunks_exact(8) {
        let refs: Vec<&FeatTree> = wave.iter().flatten().collect();
        let (out, d) = timed(|| model.predict_batch_coalesced(&refs));
        wave_d += d;
        black_box(out.map_err(err)?);
        if let Some((s, r)) = model.coalesce_stats() {
            scored += s;
            requested += r;
        }
        waves += 1;
    }
    m.put("nn.score_wave_us_mean", us(wave_d) / waves.max(1) as f64);
    m.put(
        "nn.coalesce_distinct_frac",
        scored as f64 / requested.max(1) as f64,
    );

    // -- bao-core: select_plan before and after the first retrain, observe --
    let mut bao = new_bao(cache_features, false);
    let mut unfitted = Duration::ZERO;
    for step in inp.wl.steps.iter().take(50) {
        let (out, d) = timed(|| bao.select_plan(&opt, &step.query, &inp.db, &inp.cat, Some(&pool)));
        unfitted += d;
        black_box(out.map_err(err)?);
    }
    m.put(
        "core.select_unfitted_us_mean",
        us(unfitted) / n.min(50) as f64,
    );
    let mut observe_d = Duration::ZERO;
    let mut observes = 0usize;
    for c in captured.iter().cycle().take(bao.cfg.retrain_interval) {
        let tree = c.tree.clone();
        let (report, d) = timed(|| bao.observe(tree, c.perf));
        if report.is_none() {
            observe_d += d;
            observes += 1;
        }
    }
    m.put(
        "core.observe_us_mean",
        us(observe_d) / observes.max(1) as f64,
    );
    if !bao.is_model_fitted() {
        return Err("Bao did not retrain after retrain_interval observations".into());
    }
    let mut select_ms = Vec::with_capacity(SELECTS);
    for step in inp.wl.steps.iter().cycle().take(SELECTS) {
        let (out, d) = timed(|| bao.select_plan(&opt, &step.query, &inp.db, &inp.cat, Some(&pool)));
        black_box(out.map_err(err)?);
        select_ms.push(ms(d));
    }
    m.put("core.select_ms_mean", mean(&select_ms).unwrap_or(0.0));
    m.put(
        "core.select_ms_p95",
        percentile(&select_ms, 95.0).unwrap_or(0.0),
    );

    // -- bao-wal: the frames a durable run writes per statement --
    let dir = tmp_dir("probe-wal");
    reset_dir(&dir)?;
    let snapshot = model.snapshot_json();
    let records: Vec<(WalRecord, WalRecord)> = captured
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let record = QueryRecord {
                idx: i,
                label: inp.wl.steps[c.stmt].label.clone(),
                arm: 0,
                opt_time: SimDuration::ZERO,
                latency: c.latency,
                cpu_time: c.latency,
                physical_io: 0,
                perf: c.perf,
                clock: c.latency,
                gpu_time: SimDuration::ZERO,
                arm_perfs: None,
                plan: c.plan.clone(),
            };
            (
                WalRecord::ExperienceAppend {
                    step: i as u64,
                    tree: c.tree.clone(),
                    perf: c.perf,
                },
                WalRecord::QueryOutcome {
                    record: record.to_json(),
                },
            )
        })
        .collect();
    let mut wal = Wal::open(DurabilityConfig::new(&dir)).map_err(err)?;
    let (out, d) = timed(|| -> bao_common::Result<()> {
        for (i, (experience, outcome)) in records.iter().enumerate() {
            wal.append(experience);
            if (i + 1) % 100 == 0 {
                let version = ((i + 1) / 100) as u64;
                if let Some(model) = &snapshot {
                    wal.append(&WalRecord::ModelCheckpoint {
                        version,
                        model: model.clone(),
                    });
                }
                wal.append(&WalRecord::RetrainBoundary {
                    version,
                    experience_size: (i + 1) as u64,
                });
            }
            wal.append(outcome);
            wal.commit()?;
        }
        wal.sync()
    });
    out.map_err(err)?;
    drop(wal);
    m.put("wal.append_commit_us_mean", us(d) / records.len() as f64);
    let (scan, d) = timed(|| Wal::scan(&dir));
    let scan = scan.map_err(err)?;
    let outcomes = scan
        .frames
        .iter()
        .filter(|f| matches!(f.record, WalRecord::QueryOutcome { .. }))
        .count();
    let _ = std::fs::remove_dir_all(&dir);
    if outcomes != records.len() {
        return Err(format!(
            "Wal::scan found {outcomes} of {} committed outcomes",
            records.len()
        ));
    }
    m.put("wal.scan_ms", ms(d));
    Ok(())
}
