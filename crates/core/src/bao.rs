//! The Bao orchestrator: arm planning, model-based selection, and the
//! Thompson-sampling training loop.

use crate::experience::Experience;
use crate::featurize::Featurizer;
use bao_common::hash::{FastHasher, FastMap};
use bao_common::pool::{resolve_width, run_jobs};
use bao_common::{split_seed, BaoError, Result};
use bao_models::{bootstrap_sample, TcnnModel, ValueModel};
use bao_nn::FeatTree;
use bao_opt::{HintSet, Optimizer, PlanOutput};
use bao_plan::{PlanNode, Query};
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};
use std::hash::Hasher;
use std::time::Duration;

/// Bao configuration (paper §6.1 defaults: 48/49 arms, window k = 2000,
/// retrain every n = 100 queries, cache features on).
#[derive(Debug, Clone)]
pub struct BaoConfig {
    pub arms: Vec<HintSet>,
    /// Sliding window size k.
    pub window_size: usize,
    /// Retrain period n (queries between model resamples).
    pub retrain_interval: usize,
    /// Augment scan-node vectors with buffer-cache state.
    pub cache_features: bool,
    /// Per-query activation (paper §4): when false Bao only observes and
    /// always selects the unhinted optimizer's plan.
    pub enabled: bool,
    /// Thompson sampling via bootstrap (true, the paper's approach) or
    /// maximum-likelihood training on the full window (the no-exploration
    /// ablation).
    pub bootstrap: bool,
    pub seed: u64,
}

impl Default for BaoConfig {
    fn default() -> Self {
        BaoConfig {
            arms: HintSet::family_49(),
            window_size: 2_000,
            retrain_interval: 100,
            cache_features: true,
            enabled: true,
            bootstrap: true,
            seed: 0,
        }
    }
}

/// Bao's choice for one query.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Index into [`BaoConfig::arms`].
    pub arm: usize,
    pub hints: HintSet,
    pub plan: PlanNode,
    /// Featurization of the chosen plan — pass back to [`Bao::observe`]
    /// with the observed performance.
    pub tree: FeatTree,
    /// Per-arm model predictions (`None` when the model is unfitted or
    /// the arm was not evaluated).
    pub predictions: Vec<Option<f64>>,
    /// Planning effort per planned arm (the cloud model turns this into
    /// parallel or sequential optimization time).
    pub per_arm_work: Vec<u64>,
    /// Number of arms actually planned (1 when Bao is disabled).
    pub arms_planned: usize,
    /// Distinct plans among the planned arms.
    pub distinct_plans: usize,
    /// Every planned arm whose plan is the chosen one, ascending; `arm`
    /// is among them.
    pub same_plan_arms: Vec<usize>,
}

/// One query's arms with aliasing arms folded together: each distinct
/// plan once, annotated and featurized, and which of them each arm
/// planned (DESIGN.md §9).
#[derive(Debug, Clone)]
pub struct ArmFamily {
    /// Distinct plans in the order of their first arm.
    pub plans: Vec<(PlanNode, FeatTree)>,
    /// Per arm, in arm order, its plan's index into `plans`.
    pub arm_plan: Vec<usize>,
}

/// Result of one model retrain.
#[derive(Debug, Clone)]
pub struct RetrainReport {
    pub wall: Duration,
    pub experience_size: usize,
    /// Training epochs (0 for models without an epoch notion).
    pub epochs: usize,
    /// Extra refit rounds spent satisfying critical queries (§4).
    pub critical_rounds: usize,
}

/// A performance-critical query's exhaustively explored arms (paper §4
/// "triggered exploration").
#[derive(Debug, Clone)]
struct CriticalGroup {
    label: String,
    /// One (plan tree, observed perf) per arm.
    entries: Vec<(FeatTree, f64)>,
}

/// The bandit optimizer.
pub struct Bao {
    pub cfg: BaoConfig,
    featurizer: Featurizer,
    model: Box<dyn ValueModel>,
    experience: Experience,
    since_retrain: usize,
    retrains: usize,
    critical: Vec<CriticalGroup>,
    /// Cumulative wall-clock time spent training (Figure 15c).
    pub total_train_wall: Duration,
}

impl Bao {
    /// Bao with the default TCNN value model.
    pub fn new(cfg: BaoConfig) -> Bao {
        let featurizer = Featurizer::new(cfg.cache_features);
        let model = Box::new(TcnnModel::with_defaults(featurizer.input_dim()));
        Bao::with_model(cfg, model)
    }

    /// Bao with a custom value model (the Figure 15a ablation swaps in a
    /// random forest / linear model here).
    pub fn with_model(cfg: BaoConfig, model: Box<dyn ValueModel>) -> Bao {
        assert!(!cfg.arms.is_empty(), "Bao needs at least one arm");
        let featurizer = Featurizer::new(cfg.cache_features);
        let window = cfg.window_size;
        Bao {
            cfg,
            featurizer,
            model,
            experience: Experience::new(window),
            since_retrain: 0,
            retrains: 0,
            critical: Vec::new(),
            total_train_wall: Duration::ZERO,
        }
    }

    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }

    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    pub fn is_model_fitted(&self) -> bool {
        self.model.is_fitted()
    }

    /// The value model's weights as JSON, for a durable log's checkpoint
    /// frame; `None` for models without snapshots.
    pub fn model_snapshot(&self) -> Option<String> {
        self.model.snapshot_json()
    }

    pub fn experience_len(&self) -> usize {
        self.experience.len()
    }

    pub fn retrains(&self) -> usize {
        self.retrains
    }

    /// The value model's version: bumped exactly once per retrain. Plan
    /// caches key their entries on this — an arm chosen under version v
    /// says nothing about the model at v+1, so a version mismatch is an
    /// invalidation (DESIGN.md §11).
    pub fn model_version(&self) -> usize {
        self.retrains
    }

    /// How many more observations [`Bao::observe`] will accept before one
    /// of them triggers a retrain (always ≥ 1: the boundary observation
    /// itself is scored against the *pre*-retrain model, so it may still
    /// join a coalesced scoring batch). Serving layers must not coalesce
    /// queries across this boundary — the model they would be scored with
    /// changes underneath them.
    pub fn queries_until_retrain(&self) -> usize {
        self.cfg.retrain_interval.saturating_sub(self.since_retrain).max(1)
    }

    /// Plan the query under every arm and select the plan with the best
    /// predicted performance. Falls back to the unhinted optimizer when
    /// Bao is disabled or the model is not yet fitted (paper: "Bao can be
    /// configured to start out using only the traditional optimizer").
    pub fn select_plan(
        &self,
        opt: &Optimizer,
        query: &Query,
        db: &Database,
        cat: &StatsCatalog,
        pool: Option<&BufferPool>,
    ) -> Result<Selection> {
        if !self.cfg.enabled || !self.model.is_fitted() {
            return self.plan_arm(0, opt, query, db, cat, pool);
        }
        let (selection, _) = self.evaluate_arms(opt, query, db, cat, pool)?;
        Ok(selection)
    }

    /// Plan exactly one arm — no fan-out, no model scoring. The plan-
    /// cache hit path lives here: a cached arm index replays through the
    /// same annotate → verify → featurize pipeline as a scored arm, so
    /// its observed reward feeds the experience buffer identically; only
    /// the 49-way planning and the TCNN inference are skipped.
    ///
    /// Arm 0 (the unhinted traditional optimizer) is both the fallback
    /// when Bao is disabled or unfitted and the degraded path an
    /// overloaded serving layer sheds queries onto (the graceful-
    /// degradation contract, DESIGN.md §10): the selection still carries
    /// a featurized tree, so its observed reward feeds the experience
    /// buffer like any other.
    pub fn plan_arm(
        &self,
        arm: usize,
        opt: &Optimizer,
        query: &Query,
        db: &Database,
        cat: &StatsCatalog,
        pool: Option<&BufferPool>,
    ) -> Result<Selection> {
        let hints = *self.cfg.arms.get(arm).ok_or_else(|| {
            BaoError::Planning(format!(
                "arm {arm} out of range ({} arms configured)",
                self.cfg.arms.len()
            ))
        })?;
        let out = opt.plan(query, db, cat, hints)?;
        let mut root = out.root;
        bao_opt::annotate_estimates(&mut root, query, db, cat, opt.estimator(), &opt.params)?;
        #[cfg(debug_assertions)]
        bao_plan::verify::verify(&root, query, db)?;
        let tree = self.featurizer.featurize(&root, query, db, pool);
        Ok(Selection {
            arm,
            hints,
            plan: root,
            tree,
            predictions: vec![None; self.cfg.arms.len()],
            per_arm_work: vec![out.work],
            arms_planned: 1,
            distinct_plans: 1,
            same_plan_arms: vec![arm],
        })
    }

    /// Plan and predict every arm; returns the winning selection plus the
    /// arm family (advisor mode and critical-query marking both need
    /// it). Single-query case of [`Bao::evaluate_arms_multi`].
    pub fn evaluate_arms(
        &self,
        opt: &Optimizer,
        query: &Query,
        db: &Database,
        cat: &StatsCatalog,
        pool: Option<&BufferPool>,
    ) -> Result<(Selection, ArmFamily)> {
        let mut multi = self.evaluate_arms_multi(opt, &[query], db, cat, pool)?;
        multi
            .pop()
            .ok_or_else(|| BaoError::Planning("evaluate_arms_multi returned no result".into()))
    }

    /// Plan every query's arm family on the workspace pool and
    /// score *all* queries' distinct plans in one coalesced
    /// `predict_batch` pass (cross-query batching, the serving-layer hot
    /// path). Results are returned in query order and are bit-identical
    /// to calling [`Bao::evaluate_arms`] once per query: planning is
    /// read-only over `(query, db, cat)`, the pool returns families in
    /// query slot order at any width, each in arm order, and a value
    /// model's prediction for a tree does not depend on its batch
    /// neighbours (for the TCNN, every kernel of the scorer is per-node or
    /// per-tree — `bao_nn::infer`).
    ///
    /// Arms that plan the same tree share one annotation, featurization
    /// and score: re-annotation overwrites every estimate from the
    /// operators alone, so equal shapes give equal trees and equal
    /// predictions, and each arm's prediction is its plan's.
    ///
    /// The `pool` snapshot is shared by every query in the batch; callers
    /// that enable cache features must therefore coalesce only queries
    /// whose featurization may legally observe the same buffer-pool state
    /// (the serving runner clamps its window to 1 in that mode).
    pub fn evaluate_arms_multi(
        &self,
        opt: &Optimizer,
        queries: &[&Query],
        db: &Database,
        cat: &StatsCatalog,
        pool: Option<&BufferPool>,
    ) -> Result<Vec<(Selection, ArmFamily)>> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let n_arms = self.cfg.arms.len();
        let outputs = self.plan_jobs(opt, queries, db, cat)?;

        // Fold each query's arms by plan shape, then annotate, verify and
        // featurize the first plan of each shape, in (query, arm) order.
        // Hinted plans carry `disable_cost` penalties in their estimates
        // when a hint cannot be fully honoured; re-annotate with
        // penalty-free estimates so the model's cost/cardinality features
        // reflect expected runtime rather than planner bookkeeping.
        let mut families: Vec<ArmFamily> = Vec::with_capacity(queries.len());
        let mut work: Vec<Vec<u64>> = Vec::with_capacity(queries.len());
        for (&query, arms) in queries.iter().zip(outputs) {
            let mut family = ArmFamily { plans: Vec::new(), arm_plan: Vec::with_capacity(n_arms) };
            let mut by_shape: FastMap<u64, usize> = FastMap::default();
            work.push(arms.iter().map(|o| o.work).collect());
            for o in arms {
                let key = match find_shape(&by_shape, &family.plans, &o.root) {
                    Ok(p) => {
                        family.arm_plan.push(p);
                        continue;
                    }
                    Err(key) => key,
                };
                let mut root = o.root;
                bao_opt::annotate_estimates(
                    &mut root,
                    query,
                    db,
                    cat,
                    opt.estimator(),
                    &opt.params,
                )?;
                // Re-annotation must preserve well-formedness; arms whose
                // features would be malformed are a training-data hazard.
                #[cfg(debug_assertions)]
                bao_plan::verify::verify(&root, query, db)?;
                let tree = self.featurizer.featurize(&root, query, db, pool);
                by_shape.insert(key, family.plans.len());
                family.arm_plan.push(family.plans.len());
                family.plans.push((root, tree));
            }
            families.push(family);
        }

        // Score every query's distinct plans in ONE batch. A tree's score
        // does not depend on its batch neighbours, so each query reads
        // its plans' scores back by offset. The only error a model
        // returns is "not fitted", and then no arm has a prediction.
        let all_trees: Vec<&FeatTree> =
            families.iter().flat_map(|f| f.plans.iter().map(|(_, t)| t)).collect();
        let scored: Option<Vec<f64>> = self.model.predict_batch(&all_trees).ok();

        let mut results = Vec::with_capacity(queries.len());
        let mut offset = 0;
        for (family, per_arm_work) in families.into_iter().zip(work) {
            let predictions: Vec<Option<f64>> = match &scored {
                Some(preds) => family.arm_plan.iter().map(|&p| Some(preds[offset + p])).collect(),
                None => vec![None; n_arms],
            };
            offset += family.plans.len();
            let best = predictions
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|v| (i, v)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            let chosen = family.arm_plan[best];
            let (plan, tree) = family.plans[chosen].clone();
            results.push((
                Selection {
                    arm: best,
                    hints: self.cfg.arms[best],
                    plan,
                    tree,
                    predictions,
                    per_arm_work,
                    arms_planned: n_arms,
                    distinct_plans: family.plans.len(),
                    same_plan_arms: (0..n_arms).filter(|&a| family.arm_plan[a] == chosen).collect(),
                },
                family,
            ));
        }
        Ok(results)
    }

    /// Plan every query's arm family, one job per query on the workspace
    /// pool at host width; a family shares one planning context
    /// (`Optimizer::plan_arms`), so a single query runs inline on the
    /// caller. The paper (§6.2) plans each arm concurrently; here the
    /// arms of a query cost too little apart to be worth a thread
    /// (DESIGN.md §9). Returned per query in arm order.
    fn plan_jobs(
        &self,
        opt: &Optimizer,
        queries: &[&Query],
        db: &Database,
        cat: &StatsCatalog,
    ) -> Result<Vec<Vec<PlanOutput>>> {
        let arms = &self.cfg.arms;
        run_jobs(resolve_width(0), queries.len(), |qi| opt.plan_arms(queries[qi], db, cat, arms))
    }

    /// Record an observed (plan, performance) pair and retrain when the
    /// period elapses. Off-policy observations (plans Bao did not select,
    /// paper §4) go through the same path.
    pub fn observe(&mut self, tree: FeatTree, perf: f64) -> Option<RetrainReport> {
        self.experience.add(tree, perf);
        self.since_retrain += 1;
        if self.since_retrain >= self.cfg.retrain_interval {
            Some(self.retrain_now())
        } else {
            None
        }
    }

    /// Replay one logged experience append during recovery: identical
    /// state transitions to [`Bao::observe`] except no retrain fires —
    /// retrains are driven by the logged boundary records via
    /// [`Bao::restore_retrain`].
    pub fn restore_experience(&mut self, tree: FeatTree, perf: f64) {
        self.experience.add(tree, perf);
        self.since_retrain += 1;
    }

    /// Replay one logged retrain boundary during recovery. With a
    /// checkpoint the model's weights are restored byte-for-byte; with
    /// none the model is re-fitted deterministically from the replayed
    /// experience window — both land on exactly the state an
    /// uninterrupted run would hold at this boundary.
    pub fn restore_retrain(&mut self, version: u64, checkpoint: Option<&str>) -> Result<()> {
        self.since_retrain = 0;
        self.retrains = version as usize;
        match checkpoint {
            Some(snapshot) => self.model.restore_json(snapshot),
            None => {
                self.fit_from_experience();
                Ok(())
            }
        }
    }

    /// Register a performance-critical query whose arms were exhaustively
    /// executed (paper §4 "triggered exploration"). Future retrains
    /// guarantee the model ranks this query's best arm first.
    pub fn add_critical(&mut self, label: impl Into<String>, entries: Vec<(FeatTree, f64)>) {
        assert!(!entries.is_empty());
        self.critical.push(CriticalGroup { label: label.into(), entries });
    }

    pub fn critical_labels(&self) -> Vec<&str> {
        self.critical.iter().map(|g| g.label.as_str()).collect()
    }

    /// Immediately resample the model from the current experience.
    pub fn retrain_now(&mut self) -> RetrainReport {
        // Training telemetry only: the duration is reported, never fed
        // back into plan choice. bao-lint: allow(no-wall-clock)
        let started = std::time::Instant::now();
        self.since_retrain = 0;
        self.retrains += 1;
        let critical_rounds = self.fit_from_experience();
        let wall = started.elapsed();
        self.total_train_wall += wall;
        RetrainReport {
            wall,
            experience_size: self.experience.len(),
            epochs: self.model.last_epochs(),
            critical_rounds,
        }
    }

    /// The deterministic fit at a retrain boundary: bootstrap resample,
    /// critical-group refit loop, seeds derived from `(cfg.seed,
    /// retrains)`. Shared verbatim by [`Bao::retrain_now`] and the
    /// checkpoint-less recovery path in [`Bao::restore_retrain`] — which
    /// is what makes refit-based recovery land on identical weights.
    fn fit_from_experience(&mut self) -> usize {
        let seed = split_seed(self.cfg.seed, self.retrains as u64);
        let (trees, ys) = self.experience.training_data();

        // Bootstrap resample (Thompson) or the raw window (MLE ablation).
        let (mut train_trees, mut train_ys): (Vec<FeatTree>, Vec<f64>) = if self.cfg.bootstrap {
            let idx = bootstrap_sample(trees.len(), split_seed(seed, 99));
            (
                idx.iter().map(|&i| trees[i].clone()).collect(),
                idx.iter().map(|&i| ys[i]).collect(),
            )
        } else {
            (trees, ys)
        };
        // Critical experiences always participate (flagged, never evicted).
        for g in &self.critical {
            for (t, y) in &g.entries {
                train_trees.push(t.clone());
                train_ys.push(*y);
            }
        }

        let mut critical_rounds = 0;
        const MAX_CRITICAL_ROUNDS: usize = 4;
        loop {
            self.model.fit(&train_trees, &train_ys, split_seed(seed, critical_rounds as u64));
            // Verify every critical group: the model must pick its true
            // best arm; re-weight (duplicate) violated groups and refit.
            let mut violated = Vec::new();
            for g in &self.critical {
                let true_best = argmin(g.entries.iter().map(|&(_, y)| y));
                let group_trees: Vec<&FeatTree> = g.entries.iter().map(|(t, _)| t).collect();
                let preds: Vec<f64> = self
                    .model
                    .predict_batch(&group_trees)
                    .unwrap_or_else(|_| vec![f64::INFINITY; g.entries.len()]);
                let pred_best = argmin(preds.iter().copied());
                // Arms frequently alias to the same physical plan; the
                // guarantee is about *plans*, so a predicted winner whose
                // plan tree equals the true best's is correct.
                if g.entries[pred_best].0 != g.entries[true_best].0 {
                    violated.push(g.clone());
                }
            }
            if violated.is_empty() || critical_rounds >= MAX_CRITICAL_ROUNDS {
                break;
            }
            critical_rounds += 1;
            for g in violated {
                for (t, y) in g.entries {
                    train_trees.push(t);
                    train_ys.push(y);
                }
            }
        }
        critical_rounds
    }
}

/// `Ok` with the index of the plan in `plans` whose shape `plan` has, or
/// `Err` with the free key to file `plan` under in `by_shape`. Shapes
/// whose hashes collide take the next free key, so a collision costs a
/// compare and never merges two plans.
fn find_shape(
    by_shape: &FastMap<u64, usize>,
    plans: &[(PlanNode, FeatTree)],
    plan: &PlanNode,
) -> std::result::Result<usize, u64> {
    let mut key = shape_hash(plan);
    loop {
        match by_shape.get(&key) {
            Some(&p) if same_shape(&plans[p].0, plan) => return Ok(p),
            Some(_) => key = key.wrapping_add(1),
            None => return Err(key),
        }
    }
}

/// Hash of a plan's operator kinds, scanned tables and tree shape; the
/// estimates are left out. [`same_shape`] settles what it cannot.
fn shape_hash(plan: &PlanNode) -> u64 {
    let mut h = FastHasher::default();
    for node in plan.iter() {
        h.write_usize(node.op.kind().index());
        h.write_usize(node.op.scan_kind().map_or(usize::MAX, |(table, _)| table));
        h.write_usize(node.children.len());
    }
    h.finish()
}

/// Equal operators in equal trees, estimates aside.
fn same_shape(a: &PlanNode, b: &PlanNode) -> bool {
    a.op == b.op
        && a.children.len() == b.children.len()
        && a.children.iter().zip(&b.children).all(|(x, y)| same_shape(x, y))
}

fn argmin(vals: impl Iterator<Item = f64>) -> usize {
    let mut best = 0;
    let mut best_v = f64::INFINITY;
    for (i, v) in vals.enumerate() {
        if v < best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_plan::Operator;

    fn index_scan(column: &str, est_rows: f64) -> PlanNode {
        let op = Operator::IndexScan {
            table: 0,
            column: column.into(),
            lo: None,
            hi: None,
            residual: vec![],
            param: None,
        };
        PlanNode::new(op, vec![]).with_estimates(est_rows, 2.0 * est_rows)
    }

    /// Two scans of one table through different indexes share a hash:
    /// the second is filed under the next key, never merged with the
    /// first, and a plan that differs only in its estimates is found.
    #[test]
    fn colliding_shapes_take_the_next_key() {
        let tree = FeatTree { feat_dim: 1, feats: vec![0.0], left: vec![-1], right: vec![-1] };
        let (a, b) = (index_scan("a", 10.0), index_scan("b", 10.0));
        let key = shape_hash(&a);
        assert_eq!(shape_hash(&b), key);
        let mut by_shape = FastMap::default();
        let mut plans = Vec::new();
        assert_eq!(find_shape(&by_shape, &plans, &a), Err(key));
        by_shape.insert(key, 0);
        plans.push((a, tree.clone()));
        assert_eq!(find_shape(&by_shape, &plans, &index_scan("a", 99.0)), Ok(0));
        assert_eq!(find_shape(&by_shape, &plans, &b), Err(key.wrapping_add(1)));
        by_shape.insert(key.wrapping_add(1), 1);
        plans.push((b, tree));
        assert_eq!(find_shape(&by_shape, &plans, &index_scan("b", 3.0)), Ok(1));
    }
}
