//! The workload runner.

use crate::serving::ServingConfig;
use bao_cache::PlanCache;
use bao_cloud::{CostReport, VmType};
use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::{split_seed, BaoError, Result, SimDuration};
use bao_core::{Bao, BaoConfig};
use bao_exec::{execute, PerfMetric};
use bao_models::{LinearModel, RandomForestModel, TcnnModel, ValueModel};
use bao_nn::{FeatTree, TcnnConfig, TrainConfig};
use bao_opt::{HintSet, Optimizer, OptimizerProfile};
use bao_plan::{fingerprint, PlanNode, Query, QueryFingerprint};
use bao_sched::{Dispatch, SchedConfig};
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};
use bao_wal::{fnv64, DurabilityConfig, Wal};
use bao_workloads::{Workload, WorkloadStep};

/// Which value model Bao runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Reduced-width TCNN (default for experiment sweeps).
    TcnnSmall,
    /// Tiny TCNN for fast smoke runs and unit tests.
    TcnnFast,
    RandomForest,
    Linear,
}

impl ModelKind {
    pub fn build(self, input_dim: usize) -> Box<dyn ValueModel> {
        match self {
            // Paper stopping rule: <=100 epochs or convergence; slightly
            // hotter optimizer and stricter plateau detection than the
            // library default so small windows still reach convergence.
            ModelKind::TcnnSmall => Box::new(TcnnModel::new(
                TcnnConfig::small(input_dim),
                TrainConfig {
                    adam: bao_nn::AdamConfig { lr: 3e-3, ..Default::default() },
                    min_improvement: 0.002,
                    ..TrainConfig::default()
                },
            )),
            ModelKind::TcnnFast => Box::new(TcnnModel::new(
                TcnnConfig::tiny(input_dim),
                TrainConfig { max_epochs: 20, ..TrainConfig::default() },
            )),
            ModelKind::RandomForest => Box::new(RandomForestModel::default()),
            ModelKind::Linear => Box::new(LinearModel::default()),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ModelKind::TcnnSmall => "tcnn",
            ModelKind::TcnnFast => "tcnn-fast",
            ModelKind::RandomForest => "random-forest",
            ModelKind::Linear => "linear",
        }
    }
}

/// Bao's knobs for a run (paper defaults in [`BaoSettings::default`]).
#[derive(Debug, Clone)]
pub struct BaoSettings {
    pub arms: Vec<HintSet>,
    pub model: ModelKind,
    pub window: usize,
    pub retrain: usize,
    pub cache_features: bool,
    pub bootstrap: bool,
    /// Write-ahead logging (DESIGN.md §14), the one durability setting:
    /// `Some` makes the query pipeline (`Runner::drive`) open a log in
    /// this directory before the first query, write every experience
    /// append, retrain checkpoint and boundary, cache invalidation and
    /// query outcome, and group-commit them once per wave; `Bao` itself
    /// never logs. `None` (the default) is the in-memory run. The knob
    /// never changes what is computed — only whether it survives a
    /// crash — so it is excluded from the run-config fingerprint.
    pub durability: Option<DurabilityConfig>,
}

impl Default for BaoSettings {
    fn default() -> Self {
        BaoSettings {
            arms: HintSet::family_49(),
            model: ModelKind::TcnnSmall,
            window: 2_000,
            retrain: 100,
            cache_features: true,
            bootstrap: true,
            durability: None,
        }
    }
}

impl BaoSettings {
    /// Smaller settings for experiment sweeps that repeat many runs.
    pub fn fast(n_arms: usize) -> Self {
        BaoSettings {
            arms: HintSet::top_arms(n_arms),
            model: ModelKind::TcnnFast,
            window: 500,
            retrain: 50,
            ..BaoSettings::default()
        }
    }

    /// The `Bao` these settings describe, sampling from `seed`: the one
    /// place harness knobs are spelled as `BaoConfig` fields and the
    /// model is sized to the featurization.
    pub fn build(&self, seed: u64) -> Bao {
        let cfg = BaoConfig {
            arms: self.arms.clone(),
            window_size: self.window,
            retrain_interval: self.retrain,
            cache_features: self.cache_features,
            bootstrap: self.bootstrap,
            seed,
            ..BaoConfig::default()
        };
        let dim = bao_core::Featurizer::new(self.cache_features).input_dim();
        Bao::with_model(cfg, self.model.build(dim))
    }
}

/// What selects plans during the run.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// The traditional optimizer (PostgreSQL / ComSys baseline).
    Traditional,
    /// Bao in active mode.
    Bao(BaoSettings),
    /// One fixed hint set for every query (§6.3 "best single hint set").
    FixedHint(HintSet),
    /// Per-query oracle: execute every arm (on a cache snapshot), run the
    /// true best. Also records per-arm performances for regret analysis.
    Optimal { arms: Vec<HintSet> },
}

/// Full configuration of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub vm: VmType,
    pub profile: OptimizerProfile,
    pub metric: PerfMetric,
    pub strategy: Strategy,
    /// Clear the buffer pool before every query (the C2 cold-cache
    /// experiments of Figures 15a/16).
    pub cold_cache: bool,
    /// Plan arms one-at-a-time instead of in parallel (Figure 12).
    pub sequential_arms: bool,
    pub seed: u64,
    pub stats_sample: usize,
}

impl RunConfig {
    pub fn new(vm: VmType, strategy: Strategy) -> RunConfig {
        RunConfig {
            vm,
            profile: OptimizerProfile::PostgresLike,
            metric: PerfMetric::Latency,
            strategy,
            cold_cache: false,
            sequential_arms: false,
            seed: 0,
            stats_sample: 1_000,
        }
    }
}

/// Per-query observation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    pub idx: usize,
    pub label: String,
    /// Arm executed (0 = unhinted).
    pub arm: usize,
    pub opt_time: SimDuration,
    pub latency: SimDuration,
    pub cpu_time: SimDuration,
    pub physical_io: u64,
    /// Value of the configured performance metric.
    pub perf: f64,
    /// Cumulative workload clock (optimization + execution) when this
    /// query finished — Figure 10's x-axis.
    pub clock: SimDuration,
    /// Simulated GPU seconds if a retrain followed this query.
    pub gpu_time: SimDuration,
    /// Oracle runs: the performance of every arm (cache-snapshot
    /// isolated), for regret and Figure 11.
    pub arm_perfs: Option<Vec<f64>>,
    /// The executed plan (kept for §6.3 plan-change analysis).
    pub plan: PlanNode,
}

/// Everything observed during one run. `Default` is the run that has not
/// started: the pipeline grows it one committed query at a time, and a
/// recovered run continues from the prefix replayed out of the WAL.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub records: Vec<QueryRecord>,
    pub total_exec: SimDuration,
    pub total_opt: SimDuration,
    pub total_gpu: SimDuration,
    /// Real wall-clock spent training models in this process.
    pub wall_train: std::time::Duration,
}

impl ToJson for QueryRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("idx", self.idx.to_json()),
            ("label", self.label.to_json()),
            ("arm", self.arm.to_json()),
            ("opt_time", self.opt_time.to_json()),
            ("latency", self.latency.to_json()),
            ("cpu_time", self.cpu_time.to_json()),
            ("physical_io", self.physical_io.to_json()),
            ("perf", self.perf.to_json()),
            ("clock", self.clock.to_json()),
            ("gpu_time", self.gpu_time.to_json()),
            ("arm_perfs", self.arm_perfs.to_json()),
            ("plan", self.plan.to_json()),
        ])
    }
}

impl ToJson for RunResult {
    fn to_json(&self) -> Json {
        self.json_with_wall_train(self.wall_train)
    }
}

impl FromJson for QueryRecord {
    fn from_json(j: &Json) -> Result<QueryRecord> {
        Ok(QueryRecord {
            idx: json::field(j, "idx")?,
            label: json::field(j, "label")?,
            arm: json::field(j, "arm")?,
            opt_time: json::field(j, "opt_time")?,
            latency: json::field(j, "latency")?,
            cpu_time: json::field(j, "cpu_time")?,
            physical_io: json::field(j, "physical_io")?,
            perf: json::field(j, "perf")?,
            clock: json::field(j, "clock")?,
            gpu_time: json::field(j, "gpu_time")?,
            arm_perfs: json::field(j, "arm_perfs")?,
            plan: json::field(j, "plan")?,
        })
    }
}

impl RunResult {
    fn json_with_wall_train(&self, wall_train: std::time::Duration) -> Json {
        Json::obj([
            ("records", self.records.to_json()),
            ("total_exec", self.total_exec.to_json()),
            ("total_opt", self.total_opt.to_json()),
            ("total_gpu", self.total_gpu.to_json()),
            ("wall_train_secs", wall_train.as_secs_f64().to_json()),
        ])
    }

    /// The run as JSON text for bitwise comparison. `wall_train` is real
    /// wall-clock spent in `fit` — the one legitimately non-deterministic
    /// field — and is written as zero, so two canonical strings are equal
    /// iff every simulated quantity agrees bit-for-bit.
    pub fn canonical_json(&self) -> String {
        self.json_with_wall_train(std::time::Duration::ZERO).to_string()
    }

    /// End-to-end workload time (training overlaps execution per §3.2 —
    /// GPU time is billed but does not extend the clock).
    pub fn workload_time(&self) -> SimDuration {
        self.total_exec + self.total_opt
    }

    pub fn cost(&self, vm: VmType) -> CostReport {
        CostReport::compute(vm, self.workload_time(), self.total_gpu)
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency.as_ms()).collect()
    }

    /// (elapsed seconds, queries completed) pairs — Figure 10's curve.
    pub fn convergence_curve(&self) -> Vec<(f64, usize)> {
        self.records.iter().enumerate().map(|(i, r)| (r.clock.as_secs(), i + 1)).collect()
    }
}

/// Fingerprint of the behaviour-determining run configuration — every
/// field that changes what the run computes. The durability knob is
/// deliberately excluded: a WAL written into one directory must replay
/// into a recovery run pointed at another, and logging itself never
/// changes results.
pub fn config_fingerprint(cfg: &RunConfig) -> u64 {
    let strat = match &cfg.strategy {
        Strategy::Traditional => "traditional".to_string(),
        Strategy::FixedHint(h) => format!("fixed[{h}]"),
        Strategy::Optimal { arms } => format!("optimal[{}]", arms.len()),
        Strategy::Bao(s) => format!(
            "bao[arms={},model={},window={},retrain={},cache_features={},bootstrap={}]",
            s.arms.len(),
            s.model.name(),
            s.window,
            s.retrain,
            s.cache_features,
            s.bootstrap
        ),
    };
    let desc = format!(
        "vm={:?};profile={:?};metric={:?};strategy={strat};cold={};seq={};seed={};stats={}",
        cfg.vm,
        cfg.profile,
        cfg.metric,
        cfg.cold_cache,
        cfg.sequential_arms,
        cfg.seed,
        cfg.stats_sample
    );
    fnv64(desc.as_bytes())
}

/// How the configured strategy picks each query's plan. Built once from
/// [`Strategy`], so a Bao strategy always carries its `Bao`.
pub(crate) enum Chooser {
    /// One hint set for every query (`Traditional` is the unhinted one).
    Fixed(HintSet),
    Bao(Box<Bao>),
    /// Execute every arm on a cache snapshot, run the true best.
    Optimal(Vec<HintSet>),
}

/// One query as chosen, ready for the pipeline's shared tail.
pub(crate) struct Chosen {
    /// The query's record with the plan side (`arm`, `opt_time`,
    /// `arm_perfs`, `plan`) final and the execution side still zero — the
    /// tail fills that in. A replayed query's is its logged record: the
    /// tail re-derives the execution side, recovery checks it comes out
    /// the same.
    pub(crate) record: QueryRecord,
    /// Featurized plan Bao learns from once the reward is known.
    pub(crate) tree: Option<FeatTree>,
    /// Plan-cache key whose drift window this execution feeds.
    pub(crate) fp: Option<QueryFingerprint>,
}

/// Drives one workload under one configuration.
///
/// Fields are crate-visible so the pipeline (`crate::serving`) and
/// recovery (`crate::recover`) drive this exact state.
pub struct Runner {
    pub(crate) cfg: RunConfig,
    pub(crate) db: Database,
    pub(crate) cat: StatsCatalog,
    pub(crate) pool: BufferPool,
    pub(crate) opt: Optimizer,
    pub(crate) chooser: Chooser,
    /// How the query pipeline runs. A plain `Runner` is the pipeline
    /// configured down to one query in flight, no plan cache, an
    /// unbounded admission queue; `ServingRunner` is the builder that sets
    /// these.
    pub(crate) serving: ServingConfig,
    pub(crate) sched: SchedConfig,
    /// The durable run's open log, written only by the pipeline. A fresh
    /// run opens it at its first `drive`; recovery attaches the resumed
    /// log, truncated to the committed prefix.
    pub(crate) wal: Option<Wal>,
}

impl Runner {
    pub fn new(cfg: RunConfig, db: Database) -> Runner {
        let cat = StatsCatalog::analyze(&db, cfg.stats_sample, split_seed(cfg.seed, 1));
        let opt = match cfg.profile {
            OptimizerProfile::PostgresLike => Optimizer::postgres(),
            OptimizerProfile::ComSysLike => Optimizer::comsys(),
        };
        let pool = BufferPool::new(cfg.vm.buffer_pool_pages());
        let chooser = match &cfg.strategy {
            Strategy::Traditional => Chooser::Fixed(HintSet::all_enabled()),
            Strategy::FixedHint(h) => Chooser::Fixed(*h),
            Strategy::Optimal { arms } => Chooser::Optimal(arms.clone()),
            Strategy::Bao(s) => Chooser::Bao(Box::new(s.build(split_seed(cfg.seed, 2)))),
        };
        let (serving, sched) = (ServingConfig::new(1, 1), SchedConfig::default());
        Runner { cfg, db, cat, pool, opt, chooser, serving, sched, wal: None }
    }

    /// Override the buffer pool size (Figure 13's in-memory regime).
    pub fn with_pool_pages(mut self, pages: usize) -> Runner {
        self.pool = BufferPool::new(pages);
        self
    }

    /// Access the Bao instance (e.g. to register critical queries).
    pub fn bao_mut(&mut self) -> Option<&mut Bao> {
        match &mut self.chooser {
            Chooser::Bao(bao) => Some(bao),
            _ => None,
        }
    }

    pub(crate) fn bao(&self) -> Option<&Bao> {
        match &self.chooser {
            Chooser::Bao(bao) => Some(bao),
            _ => None,
        }
    }

    /// Execute the full workload, closed-loop.
    pub fn run(mut self, workload: &Workload) -> Result<RunResult> {
        Ok(self.drive(workload, None, RunResult::default(), None)?.serving.result)
    }

    /// The strategy's "choose a plan" step for one admission wave. Only
    /// Bao has an arm family to coalesce, so only its waves may hold more
    /// than one dispatch (the pipeline caps the others at 1).
    pub(crate) fn choose(
        &self,
        wave: &[Dispatch],
        steps: &[WorkloadStep],
        mut cache: Option<&mut PlanCache>,
        coalesced_trees: &mut usize,
    ) -> Result<Vec<Chosen>> {
        let vm = self.cfg.vm;
        let planned = |d: &Dispatch, arm, plan, work: &[u64], arm_perfs| QueryRecord {
            idx: d.idx,
            label: steps[d.idx].label.clone(),
            arm,
            opt_time: vm.optimization_time(work, self.cfg.sequential_arms),
            latency: SimDuration::ZERO,
            cpu_time: SimDuration::ZERO,
            physical_io: 0,
            perf: 0.0,
            clock: SimDuration::ZERO,
            gpu_time: SimDuration::ZERO,
            arm_perfs,
            plan,
        };
        let query = |d: &Dispatch| &steps[d.idx].query;
        match &self.chooser {
            Chooser::Fixed(hints) => wave
                .iter()
                .map(|d| {
                    let out = self.opt.plan(query(d), &self.db, &self.cat, *hints)?;
                    let record = planned(d, 0, out.root, &[out.work], None);
                    Ok(Chosen { record, tree: None, fp: None })
                })
                .collect(),
            Chooser::Optimal(arms) => wave
                .iter()
                .map(|d| {
                    let q = query(d);
                    let mut outs = self.opt.plan_arms(q, &self.db, &self.cat, arms)?;
                    let works: Vec<u64> = outs.iter().map(|out| out.work).collect();
                    // Evaluate each arm against a snapshot of the cache.
                    let mut perfs = Vec::with_capacity(outs.len());
                    for out in &outs {
                        let mut snapshot = self.pool.clone();
                        let m = execute(
                            &out.root,
                            q,
                            &self.db,
                            &mut snapshot,
                            &self.opt.params,
                            &vm.charge_rates(),
                        )?;
                        perfs.push(m.perf(self.cfg.metric));
                    }
                    let best = argmin(&perfs);
                    let plan = outs.swap_remove(best).root;
                    let record = planned(d, best, plan, &works, Some(perfs));
                    Ok(Chosen { record, tree: None, fp: None })
                })
                .collect(),
            Chooser::Bao(bao) => {
                // Fallback mode (disabled or unfitted model) has no
                // scoring stage; the fitted flag can only flip at a
                // retrain boundary, which a wave never crosses, so the
                // whole wave is uniformly one mode.
                let scored_mode = bao.cfg.enabled && bao.is_model_fitted();
                // The model version is read once per wave — it cannot
                // change mid-wave either.
                let version = bao.model_version();
                // Per dispatch: its plan-cache key (if consulted) and the
                // one arm to plan without scoring, if any. Fallback and
                // shed dispatches pin arm 0 — no model involvement, the
                // graceful-degradation contract (DESIGN.md §10). Only
                // dispatches that would otherwise pay the full scoring
                // pass consult the cache; a hit pins the cached arm.
                let pins: Vec<(Option<QueryFingerprint>, Option<usize>)> = wave
                    .iter()
                    .map(|d| match cache.as_deref_mut() {
                        _ if !scored_mode || d.shed => (None, Some(0)),
                        None => (None, None),
                        Some(cache) => {
                            let fp = fingerprint(query(d));
                            (Some(fp), cache.lookup(fp, version).map(|hit| hit.arm))
                        }
                    })
                    .collect();
                // Coalesced selection: plan every unpinned (query, arm)
                // job on the worker pool and score all arm families in
                // one pass.
                let queries: Vec<&Query> = wave
                    .iter()
                    .zip(&pins)
                    .filter(|(_, (_, pin))| pin.is_none())
                    .map(|(d, _)| query(d))
                    .collect();
                *coalesced_trees += queries.len() * bao.cfg.arms.len();
                let pool = Some(&self.pool);
                let mut scored = bao
                    .evaluate_arms_multi(&self.opt, &queries, &self.db, &self.cat, pool)?
                    .into_iter();
                let mut chosen = Vec::with_capacity(wave.len());
                for (d, (fp, pin)) in wave.iter().zip(pins) {
                    let sel = match pin {
                        Some(arm) => {
                            bao.plan_arm(arm, &self.opt, query(d), &self.db, &self.cat, pool)?
                        }
                        None => {
                            let (sel, _) = scored.next().ok_or_else(|| {
                                BaoError::Planning("scorer returned too few selections".into())
                            })?;
                            // Populate on miss: the drift window needs the
                            // model's prediction for the chosen arm as its
                            // reference point; without one there is nothing
                            // to compare against, so skip the insert.
                            let predicted = sel.predictions.get(sel.arm).copied().flatten();
                            if let (Some(cache), Some(fp), Some(p)) =
                                (cache.as_deref_mut(), fp, predicted)
                            {
                                cache.insert(fp, sel.arm, p, version);
                            }
                            sel
                        }
                    };
                    let record = planned(d, sel.arm, sel.plan, &sel.per_arm_work, None);
                    chosen.push(Chosen { record, tree: Some(sel.tree), fp });
                }
                Ok(chosen)
            }
        }
    }
}

fn argmin(vals: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in vals.iter().enumerate() {
        if *v < vals[best] {
            best = i;
        }
    }
    best
}

/// Convenience: run one configuration over a freshly cloned database.
pub fn run_once(cfg: RunConfig, db: &Database, workload: &Workload) -> Result<RunResult> {
    Runner::new(cfg, db.clone()).run(workload)
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Traditional => write!(f, "traditional"),
            Strategy::Bao(s) => write!(f, "bao[{} arms, {}]", s.arms.len(), s.model.name()),
            Strategy::FixedHint(h) => write!(f, "fixed[{h}]"),
            Strategy::Optimal { arms } => write!(f, "optimal[{} arms]", arms.len()),
        }
    }
}

impl RunResult {
    /// Guard against silently-empty runs in experiment binaries.
    pub fn ensure_non_empty(&self) -> Result<()> {
        if self.records.is_empty() {
            Err(BaoError::Config("run produced no records".into()))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::json;
    use bao_plan::{Operator, PlanNode};

    fn sample_result() -> RunResult {
        let plan = PlanNode::new(
            Operator::HashJoin {
                pred: bao_plan::JoinPred::new(
                    bao_plan::ColRef::new(0, "id"),
                    bao_plan::ColRef::new(1, "movie_id"),
                ),
            },
            vec![
                PlanNode::new(Operator::SeqScan { table: 0, preds: vec![] }, vec![])
                    .with_estimates(100.0, 10.5),
                PlanNode::new(Operator::SeqScan { table: 1, preds: vec![] }, vec![]),
            ],
        );
        let record = QueryRecord {
            idx: 3,
            label: "q16b".into(),
            arm: 2,
            opt_time: SimDuration::from_ms(1.5),
            latency: SimDuration::from_ms(250.25),
            cpu_time: SimDuration::from_ms(200.0),
            physical_io: 1 << 60, // exercises the u64 lane past 2^53
            perf: 250.25,
            clock: SimDuration::from_ms(251.75),
            gpu_time: SimDuration::ZERO,
            arm_perfs: Some(vec![250.25, 300.0]),
            plan,
        };
        RunResult {
            records: vec![record],
            total_exec: SimDuration::from_ms(250.25),
            total_opt: SimDuration::from_ms(1.5),
            total_gpu: SimDuration::ZERO,
            wall_train: std::time::Duration::from_millis(12),
        }
    }

    #[test]
    fn run_report_json_round_trips_through_writer_and_parser() {
        let result = sample_result();
        let j = result.to_json();
        for text in [j.to_string(), j.to_string_pretty()] {
            let back = json::parse(&text).unwrap();
            assert_eq!(back, j, "writer output must parse back to the same value");
        }
        // Spot-check that typed values survive the text round trip.
        let back = json::parse(&j.to_string()).unwrap();
        let records = back.get("records").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(json::field::<String>(&records[0], "label").unwrap(), "q16b");
        assert_eq!(json::field::<u64>(&records[0], "physical_io").unwrap(), 1u64 << 60);
        assert_eq!(json::field::<f64>(&records[0], "perf").unwrap(), 250.25);
        assert!(records[0].get("plan").and_then(|p| p.get("op")).is_some());
    }

    #[test]
    fn query_record_decodes_back_from_json() {
        let record = &sample_result().records[0];
        let j = record.to_json();
        let parsed = json::parse(&j.to_string()).unwrap();
        let back = QueryRecord::from_json(&parsed).expect("decode QueryRecord");
        // Decode → encode is the identity on the JSON text, which pins
        // every field (including the full plan tree) bit-for-bit.
        assert_eq!(back.to_json().to_string(), j.to_string());
        assert_eq!(back.arm, record.arm);
        assert_eq!(back.plan, record.plan);
        // Corrupt input surfaces as a parse error.
        let bad = Json::obj([("idx", Json::Arr(vec![]))]);
        assert!(QueryRecord::from_json(&bad).is_err());
    }
}
