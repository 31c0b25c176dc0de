//! The four workloads: how each builds its inputs from the seed, what one
//! timed pass of it does, and what it hands back for checking.
//!
//! All four are closed loops with one statement in flight, because every
//! product entry point is synchronous. A pass runs the whole fixed-size
//! stream on fresh state (model, buffer pool, plan cache, log), so passes
//! of one run do identical work and their digests must agree.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bao_cache::{CacheStats, PlanCacheConfig};
use bao_common::json::ToJson;
use bao_common::split_seed;
use bao_core::{Bao, BaoConfig};
use bao_exec::{execute, ChargeRates};
use bao_harness::{
    recover, BaoSettings, RunConfig, RunResult, Runner, ServingConfig, ServingRunner, Strategy,
};
use bao_opt::{HintSet, Optimizer};
use bao_plan::PlanNode;
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};
use bao_wal::{DurabilityConfig, Wal, WalRecord};
use bao_workloads::{build_imdb, ImdbConfig};

use crate::digest::Fnv1a;
use crate::trace::Trace;

/// Every `SAMPLE_EVERY`-th statement has its chosen plan kept for the
/// result-equality check; the seed picks which residue.
pub const SAMPLE_EVERY: usize = 20;
/// `StatsCatalog::analyze` sample size, as `RunConfig::new` sets it.
pub const STATS_SAMPLE: usize = 1_000;
/// The name of the span that is the timed region; stage spans hang off it.
pub const REGION: &str = "bench.timed_region";

const VM: bao_cloud::VmType = bao_cloud::N1_4;

/// Seed of the database, the statement population, the statistics sample
/// and Bao's Thompson sampling: the same for every run.
///
/// `--seed` draws (a) the arrival order of `exec_heavy`, and (b) on every
/// workload, which statements the result check re-executes. It does not
/// touch what the three learned workloads run, because Bao's learning is
/// chaotic at the stream lengths a 20 s run affords. Measured on this
/// commit over ten seeds: with the same statements and only their arrival
/// order drawn from the seed, statements per second differ between seeds
/// by 14 % (`paper_serial`) to 24 % (`serving_templates`) between the
/// quartiles, the geometric mean of simulated latency by 17 to 24 %, and
/// the simulated workload time of `paper_serial` ranges from 20 to 100 s;
/// drawing the parameters or the data from the seed as well doubles that.
/// Runs at different seeds would then not be comparable, and a bound wide
/// enough to hold them would catch no regression. So every run of a
/// learned workload replays one trajectory, and a change is compared with
/// its parent on exactly the work the parent did.
pub const POPULATION_SEED: u64 = 42;
/// Template phases of the dynamic stream (`build_imdb` activates templates
/// in four steps); `exec_heavy`'s arrival order is shuffled within a phase.
const PHASES: usize = 4;
/// Distinct statements of `serving_templates`.
const SERVING_DISTINCT: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSerial,
    ServingTemplates,
    DurableRecover,
    ExecHeavy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSerial,
        Workload::ServingTemplates,
        Workload::DurableRecover,
        Workload::ExecHeavy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSerial => "paper_serial",
            Workload::ServingTemplates => "serving_templates",
            Workload::DurableRecover => "durable_recover",
            Workload::ExecHeavy => "exec_heavy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// IMDb-like data scale (`ImdbConfig::scale`).
    pub fn scale(self) -> f64 {
        match self {
            Workload::ExecHeavy => 1.0,
            _ => 0.05,
        }
    }

    /// Statements in one pass, sized so that a pass takes 4 to 5 s on the
    /// 2-core reference host and a 20 s run fits four of them.
    pub fn n(self, quick: bool) -> usize {
        let n = match self {
            Workload::PaperSerial => 500,
            Workload::ServingTemplates => 1_500,
            Workload::DurableRecover => 600,
            Workload::ExecHeavy => 240,
        };
        if quick {
            n / 10
        } else {
            n
        }
    }

    /// Whether the workload's featurizer reads buffer-pool state.
    pub fn cache_features(self) -> bool {
        self != Workload::ServingTemplates
    }

    /// Driven statement by statement from this file (true), or through one
    /// opaque harness call (false).
    pub fn statement_driven(self) -> bool {
        matches!(self, Workload::PaperSerial | Workload::ExecHeavy)
    }

    /// The configuration, as printed in the report.
    pub fn config(self) -> &'static str {
        match self {
            Workload::PaperSerial => "SQL text -> parse_query -> Bao::select_plan -> execute -> Bao::observe; BaoConfig::default() (49 arms, small TCNN, window 2000, retrain every 100, cache features, bootstrap); dynamic template phases; VM N1-4",
            Workload::ServingTemplates => "ServingRunner::new(cfg, db, ServingConfig::new(8, 8).with_cache(PlanCacheConfig::default())).run; BaoSettings { cache_features: false, window: 250, retrain: 250 }; the first 24 statements of a non-dynamic stream, tiled; VM N1-4",
            Workload::DurableRecover => "Runner::run with DurabilityConfig::new(dir) (fsync EveryN(8), 4 MiB segments), then recover + resume on the complete log; BaoSettings { window: 200, retrain: 100 }; dynamic template phases; VM N1-4",
            Workload::ExecHeavy => "SQL text -> parse_query -> Optimizer::postgres().plan(HintSet::all_enabled()) -> execute; no Bao; dynamic template phases without imdb/q10; VM N1-4",
        }
    }
}

/// What a workload runs on, and how long each part of building it took.
pub struct Inputs {
    pub db: Database,
    pub wl: bao_workloads::Workload,
    /// `wl`'s queries rendered to SQL text (`Query`'s `Display`).
    pub sql: Vec<String>,
    pub cat: StatsCatalog,
    /// Statement `i` is kept for the result check when
    /// `i % SAMPLE_EVERY == sample_offset`.
    pub sample_offset: usize,
    pub build_ms: f64,
    pub analyze_ms: f64,
    pub new_ms: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `imdb/q10` is kept out of `exec_heavy`: at scale 1.0 some of its
/// parameter draws exceed the executor's intermediate-row cap and fail
/// (2 of 2000 statements at seed 42), and one such statement takes up to
/// 2 s, a fifth of a pass.
const EXEC_HEAVY_EXCLUDED: &str = "imdb/q10";

/// splitmix64: the benchmark's own generator, so that the arrival order a
/// seed stands for does not move with the product's RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher-Yates within consecutive blocks of `block` items.
fn shuffle_blocks<T>(items: &mut [T], block: usize, seed: u64) {
    let mut state = seed;
    for part in items.chunks_mut(block.max(1)) {
        for i in (1..part.len()).rev() {
            // The modulo bias is at most 2^-54 for blocks this small.
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            part.swap(i, j);
        }
    }
}

/// The dynamic stream (`build_imdb` activates templates in four phases)
/// of the fixed population, at the workload's data scale.
fn population(w: Workload) -> ImdbConfig {
    ImdbConfig {
        scale: w.scale(),
        n_queries: 0,
        dynamic: true,
        seed: POPULATION_SEED,
    }
}

/// Build one workload's inputs, timing each part. See [`POPULATION_SEED`]
/// for what `seed` draws.
pub fn build_inputs(w: Workload, seed: u64, quick: bool) -> Result<Inputs, String> {
    let n = w.n(quick);
    let t0 = Instant::now();
    let cfg = match w {
        // Two dozen distinct statements, tiled: the plan cache sees each
        // of them again in every tile.
        Workload::ServingTemplates => ImdbConfig {
            n_queries: SERVING_DISTINCT,
            dynamic: false,
            ..population(w)
        },
        // A quarter more than n, so that n are left without `imdb/q10`.
        Workload::ExecHeavy => ImdbConfig {
            n_queries: n + n / 4,
            ..population(w)
        },
        _ => ImdbConfig {
            n_queries: n,
            ..population(w)
        },
    };
    let (db, mut wl) = build_imdb(&cfg).map_err(|e| e.to_string())?;
    match w {
        Workload::ServingTemplates => {
            wl.steps = wl.steps.iter().cycle().take(n).cloned().collect();
        }
        Workload::ExecHeavy => {
            wl.steps.retain(|s| s.label != EXEC_HEAVY_EXCLUDED);
            wl.steps.truncate(n);
            shuffle_blocks(&mut wl.steps, n.div_ceil(PHASES), seed);
        }
        _ => {}
    }
    if wl.steps.len() != n {
        return Err(format!(
            "stream selection produced {} statements, wanted {n}",
            wl.steps.len()
        ));
    }
    let sql: Vec<String> = wl.steps.iter().map(|s| s.query.to_string()).collect();
    let t1 = Instant::now();
    let cat = StatsCatalog::analyze(&db, STATS_SAMPLE, split_seed(POPULATION_SEED, 1));
    let t2 = Instant::now();
    match w {
        Workload::PaperSerial => drop(new_bao(true, quick)),
        Workload::ExecHeavy => drop(Optimizer::postgres()),
        Workload::ServingTemplates => drop(new_serving_runner(&db, quick)),
        Workload::DurableRecover => {
            let dir = tmp_dir("setup");
            reset_dir(&dir)?;
            drop(Runner::new(durable_cfg(Some(&dir), quick), db.clone()));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let t3 = Instant::now();
    Ok(Inputs {
        db,
        wl,
        sql,
        cat,
        sample_offset: (seed % SAMPLE_EVERY as u64) as usize,
        build_ms: ms(t1 - t0),
        analyze_ms: ms(t2 - t1),
        new_ms: ms(t3 - t2),
    })
}

/// FNV-1a over the SQL texts and the per-table row counts.
pub fn input_digest(inp: &Inputs) -> u64 {
    let mut h = Fnv1a::new();
    for s in &inp.sql {
        h.str(s);
    }
    for name in inp.db.table_names() {
        h.str(name);
        let rows = inp
            .db
            .by_name(name)
            .map(|t| t.table.row_count())
            .unwrap_or(0);
        h.u64(rows as u64);
    }
    h.finish()
}

/// `--quick` divides the stream length by ten; dividing the retrain
/// interval and window with it keeps every code path (retrains, fitted
/// selection, cache hits and invalidations, checkpoints) in the short run.
fn div(quick: bool) -> usize {
    if quick {
        10
    } else {
        1
    }
}

/// Bao as the paper configures it (`BaoConfig::default()`), seeded as
/// `Runner::new` seeds its own.
pub fn new_bao(cache_features: bool, quick: bool) -> Bao {
    let d = BaoConfig::default();
    Bao::new(BaoConfig {
        seed: split_seed(POPULATION_SEED, 2),
        cache_features,
        window_size: d.window_size / div(quick),
        retrain_interval: d.retrain_interval / div(quick),
        ..d
    })
}

fn run_cfg(settings: BaoSettings) -> RunConfig {
    RunConfig {
        seed: POPULATION_SEED,
        stats_sample: STATS_SAMPLE,
        ..RunConfig::new(VM, Strategy::Bao(settings))
    }
}

fn new_serving_runner(db: &Database, quick: bool) -> ServingRunner {
    let settings = BaoSettings {
        cache_features: false,
        window: 250 / div(quick),
        retrain: 250 / div(quick),
        ..BaoSettings::default()
    };
    let serving = ServingConfig::new(8, 8).with_cache(PlanCacheConfig::default());
    ServingRunner::new(run_cfg(settings), db.clone(), serving)
}

fn durable_cfg(dir: Option<&Path>, quick: bool) -> RunConfig {
    run_cfg(BaoSettings {
        window: 200 / div(quick),
        retrain: 100 / div(quick),
        durability: dir.map(DurabilityConfig::new),
        ..BaoSettings::default()
    })
}

/// Where reports, traces and temporary logs go: `benchmark/out`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory of this process under `out/tmp`.
pub fn tmp_dir(what: &str) -> PathBuf {
    out_dir()
        .join("tmp")
        .join(format!("{}-{what}", std::process::id()))
}

pub fn reset_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Remove every scratch directory this process made.
pub fn remove_tmp_dirs() {
    let prefix = format!("{}-", std::process::id());
    if let Ok(entries) = std::fs::read_dir(out_dir().join("tmp")) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

/// How a pass is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Untraced,
    Traced,
    /// `durable_recover` only: the same `Runner::run` with durability off,
    /// for `wal.run_overhead_frac`.
    PlainRun,
}

/// What the harness-driven workloads report beside the common figures.
#[derive(Debug, Default)]
pub struct Extra {
    pub waves: usize,
    pub cache: Option<CacheStats>,
    pub run_s: Option<f64>,
    pub recover_s: Option<f64>,
    pub wal_bytes: u64,
    pub wal_segments: usize,
    pub wal_frames: usize,
    pub wal_checkpoint_bytes: u64,
}

/// One pass over the workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of the timed region.
    pub region_s: f64,
    /// Wall seconds of model training inside the region.
    pub train_s: f64,
    pub ok: usize,
    pub failed: usize,
    /// Sum of simulated execution latency, seconds.
    pub sim_s: f64,
    /// Sum of ln(simulated execution latency in ms), for the geometric
    /// mean.
    pub sim_ln_ms: f64,
    /// FNV-1a over per-statement arm and simulated-latency bits.
    pub digest: u64,
    /// Per-statement wall latency without retrains (statement-driven).
    pub stmt_ms: Vec<f64>,
    /// Wall time of each retrain (statement-driven).
    pub retrain_ms: Vec<f64>,
    pub retrains: usize,
    pub arm0: usize,
    /// (statement index, executed plan) of every `SAMPLE_EVERY`-th one.
    pub sampled: Vec<(usize, PlanNode)>,
    pub trace: Option<Trace>,
    pub extra: Extra,
    /// First few error messages.
    pub errors: Vec<String>,
    /// Expectations checked inside the pass (recovered == original, ...).
    pub check_failures: Vec<String>,
}

impl Pass {
    fn note_error(&mut self, i: usize, what: &str, e: impl std::fmt::Display) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("statement {i}: {what}: {e}"));
        }
    }

    fn fail_all(&mut self, n: usize, what: &str, e: impl std::fmt::Display) {
        self.ok = 0;
        self.failed = n;
        self.errors
            .push(format!("{what}: {e} (all {n} statements count as failed)"));
    }
}

/// Fold one completed statement into the pass's result figures.
fn count_statement(p: &mut Pass, h: &mut Fnv1a, arm: usize, latency_ms: f64) {
    h.u64(arm as u64);
    h.u64(latency_ms.to_bits());
    p.ok += 1;
    p.arm0 += usize::from(arm == 0);
    p.sim_s += latency_ms / 1e3;
    p.sim_ln_ms += latency_ms.max(f64::MIN_POSITIVE).ln();
}

pub fn run_pass(w: Workload, inp: &Inputs, quick: bool, mode: Mode, pass_no: usize) -> Pass {
    match w {
        Workload::PaperSerial => statement_pass(inp, Some(new_bao(true, quick)), mode),
        Workload::ExecHeavy => statement_pass(inp, None, mode),
        Workload::ServingTemplates => serving_pass(inp, quick, mode),
        Workload::DurableRecover => durable_pass(inp, quick, mode, pass_no),
    }
}

/// The `baodb` statement path, from SQL text. With `bao` it is the paper's
/// configuration; without, the default optimizer alone (`exec_heavy`).
/// A statement that fails anywhere counts as a failed operation and the
/// loop goes on.
fn statement_pass(inp: &Inputs, mut bao: Option<Bao>, mode: Mode) -> Pass {
    let opt = Optimizer::postgres();
    let rates: ChargeRates = VM.charge_rates();
    let mut pool = BufferPool::new(VM.buffer_pool_pages());
    let mut p = Pass::default();
    let mut h = Fnv1a::new();
    let mut train = Duration::ZERO;
    let start = Instant::now();
    let mut trace = (mode == Mode::Traced).then(|| Trace::new(start));
    // The region span is pushed first so that stage spans can name it;
    // its end is set when the loop is done.
    let region = trace
        .as_mut()
        .map(|t| t.push(REGION, start, start, None, None));

    for (i, sql) in inp.sql.iter().enumerate() {
        let t0 = Instant::now();
        let q = match bao_sql::parse_query(sql) {
            Ok(q) => q,
            Err(e) => {
                p.note_error(i, "parse_query", e);
                continue;
            }
        };
        let t1 = Instant::now();
        let fitted = bao.as_ref().is_some_and(|b| b.is_model_fitted());
        let planned = match &bao {
            Some(b) => b
                .select_plan(&opt, &q, &inp.db, &inp.cat, Some(&pool))
                .map(|s| (s.arm, s.plan, Some(s.tree))),
            None => opt
                .plan(&q, &inp.db, &inp.cat, HintSet::all_enabled())
                .map(|o| (0, o.root, None)),
        };
        let (arm, plan, tree) = match planned {
            Ok(x) => x,
            Err(e) => {
                p.note_error(i, "plan", e);
                continue;
            }
        };
        let t2 = Instant::now();
        let m = match execute(&plan, &q, &inp.db, &mut pool, &opt.params, &rates) {
            Ok(m) => m,
            Err(e) => {
                p.note_error(i, "execute", e);
                continue;
            }
        };
        let t3 = Instant::now();
        let latency_ms = m.latency.as_ms();
        let report = match (bao.as_mut(), tree) {
            (Some(b), Some(tree)) => b.observe(tree, latency_ms),
            _ => None,
        };
        let t4 = Instant::now();

        let retrain = report
            .as_ref()
            .map_or(Duration::ZERO, |r| r.wall.min(t4 - t3));
        if report.is_some() {
            p.retrains += 1;
            p.retrain_ms.push(ms(retrain));
            train += retrain;
        }
        p.stmt_ms.push(ms((t4 - t0) - retrain));
        count_statement(&mut p, &mut h, arm, latency_ms);
        if i % SAMPLE_EVERY == inp.sample_offset {
            p.sampled.push((i, plan));
        }
        if let Some(t) = trace.as_mut() {
            t.push("sql.parse", t0, t1, region, Some(i));
            let plan_span = match (&bao, fitted) {
                (None, _) => "opt.plan_default",
                (Some(_), true) => "core.select",
                (Some(_), false) => "core.select_unfitted",
            };
            t.push(plan_span, t1, t2, region, Some(i));
            t.push("exec.execute", t2, t3, region, Some(i));
            if bao.is_some() {
                let observe = t.push("core.observe", t3, t4, region, Some(i));
                if report.is_some() {
                    t.push("core.retrain", t4 - retrain, t4, Some(observe), Some(i));
                }
            }
        }
    }
    let end = Instant::now();
    if let (Some(t), Some(r)) = (trace.as_mut(), region) {
        t.spans[r].end_ns = t.ns(end);
    }
    p.region_s = (end - start).as_secs_f64();
    p.train_s = train.as_secs_f64();
    p.digest = h.finish();
    p.trace = trace;
    p
}

/// Fold a harness `RunResult` into the pass's common figures.
fn absorb_result(p: &mut Pass, r: &RunResult, sample_offset: usize) {
    let mut h = Fnv1a::new();
    for rec in &r.records {
        count_statement(p, &mut h, rec.arm, rec.latency.as_ms());
        if rec.idx % SAMPLE_EVERY == sample_offset {
            p.sampled.push((rec.idx, rec.plan.clone()));
        }
        p.retrains += usize::from(rec.gpu_time.as_ms() > 0.0);
    }
    p.train_s = r.wall_train.as_secs_f64();
    p.digest = h.finish();
}

/// The product call is opaque from outside, so the trace of a
/// harness-driven pass is one coarse span per entry point.
fn coarse_trace(
    mode: Mode,
    start: Instant,
    end: Instant,
    spans: &[(&'static str, Instant, Instant)],
) -> Option<Trace> {
    (mode == Mode::Traced).then(|| {
        let mut t = Trace::new(start);
        let region = t.push(REGION, start, end, None, None);
        for &(name, a, b) in spans {
            t.push(name, a, b, Some(region), None);
        }
        t
    })
}

fn serving_pass(inp: &Inputs, quick: bool, mode: Mode) -> Pass {
    let mut p = Pass::default();
    let runner = new_serving_runner(&inp.db, quick);
    let t0 = Instant::now();
    let report = runner.run(&inp.wl);
    let t1 = Instant::now();
    p.region_s = (t1 - t0).as_secs_f64();
    match report {
        Ok(rep) => {
            absorb_result(&mut p, &rep.result, inp.sample_offset);
            p.extra.waves = rep.waves;
            p.extra.cache = rep.cache;
        }
        Err(e) => p.fail_all(inp.wl.len(), "ServingRunner::run", e),
    }
    p.trace = coarse_trace(mode, t0, t1, &[("harness.serving_run", t0, t1)]);
    p
}

/// A `RunResult` as bytes, with the one wall-clock field zeroed: the
/// workspace's convention for comparing runs.
fn canonical(mut r: RunResult) -> String {
    r.wall_train = Duration::ZERO;
    r.to_json().to_string()
}

fn durable_pass(inp: &Inputs, quick: bool, mode: Mode, pass_no: usize) -> Pass {
    let mut p = Pass::default();
    let n = inp.wl.len();
    if mode == Mode::PlainRun {
        let runner = Runner::new(durable_cfg(None, quick), inp.db.clone());
        let t0 = Instant::now();
        let result = runner.run(&inp.wl);
        p.region_s = t0.elapsed().as_secs_f64();
        p.extra.run_s = Some(p.region_s);
        match result {
            Ok(r) => absorb_result(&mut p, &r, inp.sample_offset),
            Err(e) => p.fail_all(n, "Runner::run", e),
        }
        return p;
    }

    let dir = tmp_dir(&format!("wal-{pass_no}"));
    if let Err(e) = reset_dir(&dir) {
        p.fail_all(n, "wal dir", e);
        return p;
    }
    let cfg = durable_cfg(Some(&dir), quick);
    let runner = Runner::new(cfg.clone(), inp.db.clone());
    let db_for_recovery = inp.db.clone();

    let t0 = Instant::now();
    let result = runner.run(&inp.wl);
    let t1 = Instant::now();
    let recovered = recover(cfg, db_for_recovery, &inp.wl).and_then(|rec| {
        let at = rec.resumed_at_step();
        rec.resume(&inp.wl).map(|r| (at, r))
    });
    let t2 = Instant::now();

    p.region_s = (t2 - t0).as_secs_f64();
    p.extra.run_s = Some((t1 - t0).as_secs_f64());
    p.extra.recover_s = Some((t2 - t1).as_secs_f64());
    p.trace = coarse_trace(
        mode,
        t0,
        t2,
        &[("harness.run", t0, t1), ("harness.recover", t1, t2)],
    );
    match (result, recovered) {
        (Ok(original), Ok((at, again))) => {
            absorb_result(&mut p, &original, inp.sample_offset);
            if at != n {
                p.check_failures
                    .push(format!("recovery resumed at step {at}, expected {n}"));
            }
            if canonical(again) != canonical(original) {
                p.check_failures
                    .push("recovered RunResult differs from the original".into());
            }
        }
        (Err(e), _) => p.fail_all(n, "Runner::run", e),
        (_, Err(e)) => p.fail_all(n, "recover + resume", e),
    }
    log_census(&dir, mode == Mode::Traced, &mut p);
    let _ = std::fs::remove_dir_all(&dir);
    p
}

/// Size of the log on disk; with `scan`, also its frames.
fn log_census(dir: &Path, scan: bool, p: &mut Pass) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(meta) = e.metadata() {
                p.extra.wal_bytes += meta.len();
                p.extra.wal_segments += 1;
            }
        }
    }
    if scan {
        match Wal::scan(dir) {
            Ok(s) => {
                p.extra.wal_frames = s.frames.len();
                p.extra.wal_checkpoint_bytes = s
                    .frames
                    .iter()
                    .map(|f| match &f.record {
                        WalRecord::ModelCheckpoint { model, .. } => model.len() as u64,
                        _ => 0,
                    })
                    .sum();
            }
            Err(e) => p
                .check_failures
                .push(format!("Wal::scan of the finished log: {e}")),
        }
    }
}

/// Row multiset of an execution's output, or `None` when the executor
/// truncated it (row order is unspecified, so a truncated output need not
/// hold the same rows under another plan).
fn output_multiset(m: &bao_exec::ExecutionMetrics) -> Option<Vec<String>> {
    if m.output.len() as u64 != m.rows_out {
        return None;
    }
    let mut rows: Vec<String> = m.output.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    Some(rows)
}

/// The hint-set invariant (paper §2): a hinted plan returns what the
/// default plan returns. Re-execute each sampled chosen plan and the
/// `HintSet::all_enabled()` plan on scratch buffer pools and compare.
/// Returns (statements compared, mismatches).
pub fn check_sampled_results(inp: &Inputs, sampled: &[(usize, PlanNode)]) -> (usize, Vec<String>) {
    let opt = Optimizer::postgres();
    let rates = VM.charge_rates();
    let mut bad = Vec::new();
    for (i, chosen) in sampled {
        let q = &inp.wl.steps[*i].query;
        let run = |plan: &PlanNode| {
            let mut pool = BufferPool::new(VM.buffer_pool_pages());
            execute(plan, q, &inp.db, &mut pool, &opt.params, &rates)
        };
        let outcome = opt
            .plan(q, &inp.db, &inp.cat, HintSet::all_enabled())
            .and_then(|d| Ok((run(chosen)?, run(&d.root)?)));
        match outcome {
            Ok((a, b)) => {
                if a.rows_out != b.rows_out {
                    bad.push(format!(
                        "statement {i}: {} rows, default plan {}",
                        a.rows_out, b.rows_out
                    ));
                } else if let (Some(x), Some(y)) = (output_multiset(&a), output_multiset(&b)) {
                    if x != y {
                        bad.push(format!(
                            "statement {i}: output differs from the default plan's"
                        ));
                    }
                }
            }
            Err(e) => bad.push(format!("statement {i}: re-execution failed: {e}")),
        }
    }
    (sampled.len(), bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation_within_blocks() {
        let base: Vec<usize> = (0..20).collect();
        let shuffled = |seed| {
            let mut v = base.clone();
            shuffle_blocks(&mut v, 8, seed);
            v
        };
        assert_eq!(shuffled(7), shuffled(7), "same seed, same order");
        assert_ne!(shuffled(7), shuffled(8));
        assert_ne!(shuffled(7), base);
        for (i, block) in shuffled(7).chunks(8).enumerate() {
            let mut sorted = block.to_vec();
            sorted.sort_unstable();
            let expect: Vec<usize> = (i * 8..(i * 8 + block.len())).collect();
            assert_eq!(sorted, expect, "items stay in their block");
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.n(true) >= SAMPLE_EVERY && w.n(false) == w.n(true) * 10);
        }
        assert_eq!(Workload::parse("all"), None);
    }
}
