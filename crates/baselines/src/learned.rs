//! The Neo-like / DQ-like learned optimizer loop.

use crate::planspace::random_plan;
use bao_common::Rng;
use bao_common::{rng_from_seed, split_seed, Result};
use bao_core::Featurizer;
use bao_models::{pooled_features, TcnnModel, ValueModel};
use bao_nn::{FeatTree, TcnnConfig, TrainConfig};
use bao_opt::{annotate_estimates, HintSet, Optimizer};
use bao_plan::{PlanNode, Query};
use bao_stats::StatsCatalog;
use bao_storage::Database;
use std::collections::VecDeque;

/// Which baseline this instance emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnedKind {
    /// Tree-convolution value network (Neo [51]).
    Neo,
    /// Flat featurization + fully connected value network (DQ [40]).
    Dq,
}

/// Configuration of a learned-optimizer baseline.
#[derive(Debug, Clone, Copy)]
pub struct LearnedConfig {
    pub kind: LearnedKind,
    /// Candidate plans sampled per query.
    pub candidates: usize,
    /// Experience window and retrain period.
    pub window: usize,
    pub retrain_interval: usize,
    /// ε-greedy exploration: ε decays linearly from `eps0` to 0.05 over
    /// `eps_decay_queries` queries.
    pub eps0: f64,
    pub eps_decay_queries: usize,
    pub seed: u64,
}

impl LearnedConfig {
    pub fn neo(seed: u64) -> LearnedConfig {
        LearnedConfig {
            kind: LearnedKind::Neo,
            candidates: 20,
            window: 500,
            retrain_interval: 50,
            eps0: 0.5,
            eps_decay_queries: 300,
            seed,
        }
    }

    pub fn dq(seed: u64) -> LearnedConfig {
        LearnedConfig { kind: LearnedKind::Dq, ..LearnedConfig::neo(seed) }
    }
}

/// An unrestricted learned optimizer (Figure 14 baseline).
pub struct LearnedOptimizer {
    cfg: LearnedConfig,
    featurizer: Featurizer,
    model: TcnnModel,
    experience: VecDeque<(FeatTree, f64)>,
    since_retrain: usize,
    retrains: usize,
    queries_seen: usize,
}

impl LearnedOptimizer {
    pub fn new(cfg: LearnedConfig) -> LearnedOptimizer {
        let featurizer = Featurizer::new(false);
        let input_dim = match cfg.kind {
            LearnedKind::Neo => featurizer.input_dim(),
            // DQ sees pooled features wrapped as a single-node tree — the
            // TCNN degenerates into a plain MLP over that vector.
            LearnedKind::Dq => 2 * featurizer.input_dim() + 2,
        };
        let model = TcnnModel::new(
            TcnnConfig::tiny(input_dim),
            TrainConfig { max_epochs: 25, ..TrainConfig::default() },
        );
        LearnedOptimizer {
            cfg,
            featurizer,
            model,
            experience: VecDeque::new(),
            since_retrain: 0,
            retrains: 0,
            queries_seen: 0,
        }
    }

    pub fn neo(seed: u64) -> LearnedOptimizer {
        LearnedOptimizer::new(LearnedConfig::neo(seed))
    }

    pub fn dq(seed: u64) -> LearnedOptimizer {
        LearnedOptimizer::new(LearnedConfig::dq(seed))
    }

    pub fn kind(&self) -> LearnedKind {
        self.cfg.kind
    }

    pub fn is_fitted(&self) -> bool {
        self.model.is_fitted()
    }

    fn eps(&self) -> f64 {
        let progress =
            (self.queries_seen as f64 / self.cfg.eps_decay_queries.max(1) as f64).min(1.0);
        (self.cfg.eps0 * (1.0 - progress)).max(0.05)
    }

    /// Featurize per the baseline's view of a plan.
    fn features(&self, plan: &PlanNode, query: &Query, db: &Database) -> FeatTree {
        let tree = self.featurizer.featurize(plan, query, db, None);
        match self.cfg.kind {
            LearnedKind::Neo => tree,
            LearnedKind::Dq => {
                let flat: Vec<f32> = pooled_features(&tree).into_iter().map(|v| v as f32).collect();
                FeatTree::leaf(flat)
            }
        }
    }

    /// Choose a plan for the query. Returns the plan and its featurization
    /// (hand back to [`LearnedOptimizer::observe`] after execution).
    ///
    /// Before the first training this bootstraps from the traditional
    /// optimizer; afterwards it samples candidate plans and picks by
    /// predicted latency (ε-greedy).
    pub fn select_plan(
        &mut self,
        opt: &Optimizer,
        query: &Query,
        db: &Database,
        cat: &StatsCatalog,
    ) -> Result<(PlanNode, FeatTree)> {
        self.queries_seen += 1;
        let mut rng = rng_from_seed(split_seed(self.cfg.seed, 5_000 + self.queries_seen as u64));
        if !self.model.is_fitted() {
            let out = opt.plan(query, db, cat, HintSet::all_enabled())?;
            let tree = self.features(&out.root, query, db);
            return Ok((out.root, tree));
        }

        let mut candidates: Vec<PlanNode> = Vec::with_capacity(self.cfg.candidates + 1);
        // The expert plan stays in the candidate set (Neo's bootstrap
        // never disappears entirely).
        candidates.push(opt.plan(query, db, cat, HintSet::all_enabled())?.root);
        for _ in 0..self.cfg.candidates {
            let mut p = random_plan(query, db, &mut rng)?;
            annotate_estimates(&mut p, query, db, cat, opt.estimator(), &opt.params)?;
            candidates.push(p);
        }

        if rng.gen_bool(self.eps()) {
            // Explore: a uniformly random candidate.
            let i = rng.gen_range(0..candidates.len());
            let plan = candidates.swap_remove(i);
            let tree = self.features(&plan, query, db);
            return Ok((plan, tree));
        }
        let mut best = 0;
        let mut best_pred = f64::INFINITY;
        for (i, c) in candidates.iter().enumerate() {
            let tree = self.features(c, query, db);
            let pred = self.model.predict(&tree).unwrap_or(f64::INFINITY);
            if pred < best_pred {
                best_pred = pred;
                best = i;
            }
        }
        let plan = candidates.swap_remove(best);
        let tree = self.features(&plan, query, db);
        Ok((plan, tree))
    }

    /// Record an executed plan's performance; retrains on schedule.
    /// Returns true when a retrain happened.
    pub fn observe(&mut self, tree: FeatTree, perf: f64) -> bool {
        self.experience.push_back((tree, perf));
        while self.experience.len() > self.cfg.window {
            self.experience.pop_front();
        }
        self.since_retrain += 1;
        if self.since_retrain < self.cfg.retrain_interval {
            return false;
        }
        self.since_retrain = 0;
        self.retrains += 1;
        let trees: Vec<FeatTree> = self.experience.iter().map(|(t, _)| t.clone()).collect();
        let ys: Vec<f64> = self.experience.iter().map(|&(_, y)| y).collect();
        self.model.fit(&trees, &ys, split_seed(self.cfg.seed, self.retrains as u64));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_exec::{execute, ChargeRates};
    use bao_storage::BufferPool;
    use bao_workloads::imdb::build_imdb_database;

    fn setup() -> (Database, StatsCatalog, Query) {
        let db = build_imdb_database(0.05, 3).unwrap();
        let cat = StatsCatalog::analyze(&db, 300, 1);
        let q = bao_sql::parse_query(
            "SELECT COUNT(*) FROM title t, cast_info ci \
             WHERE t.id = ci.movie_id AND t.production_year > 2000",
        )
        .unwrap();
        (db, cat, q)
    }

    #[test]
    fn bootstraps_from_expert_until_trained() {
        let (db, cat, q) = setup();
        let opt = Optimizer::postgres();
        let mut neo = LearnedOptimizer::neo(1);
        assert!(!neo.is_fitted());
        let (plan, _) = neo.select_plan(&opt, &q, &db, &cat).unwrap();
        let expert = opt.plan(&q, &db, &cat, HintSet::all_enabled()).unwrap().root;
        assert_eq!(plan, expert);
    }

    #[test]
    fn learning_loop_runs_for_both_kinds() {
        let (db, cat, q) = setup();
        let opt = Optimizer::postgres();
        let rates = ChargeRates::default();
        for mut lo in [LearnedOptimizer::neo(2), LearnedOptimizer::dq(2)] {
            let mut cfg = lo.cfg;
            cfg.retrain_interval = 6;
            lo.cfg = cfg;
            let mut pool = BufferPool::new(512);
            let mut retrained = false;
            for _ in 0..14 {
                let (plan, tree) = lo.select_plan(&opt, &q, &db, &cat).unwrap();
                let m = execute(&plan, &q, &db, &mut pool, &opt.params, &rates).unwrap();
                retrained |= lo.observe(tree, m.latency.as_ms());
            }
            assert!(retrained);
            assert!(lo.is_fitted());
            // after fitting, selection still yields valid plans
            let (plan, _) = lo.select_plan(&opt, &q, &db, &cat).unwrap();
            assert_eq!(plan.tables_covered(), vec![0, 1]);
        }
    }

    #[test]
    fn dq_features_are_flat() {
        let (db, cat, q) = setup();
        let opt = Optimizer::postgres();
        let mut dq = LearnedOptimizer::dq(3);
        let (_, tree) = dq.select_plan(&opt, &q, &db, &cat).unwrap();
        assert_eq!(tree.n_nodes(), 1, "DQ sees a single flat vector");
        let mut neo = LearnedOptimizer::neo(3);
        let (_, tree) = neo.select_plan(&opt, &q, &db, &cat).unwrap();
        assert!(tree.n_nodes() > 1, "Neo sees the plan tree");
    }

    #[test]
    fn epsilon_decays() {
        let (db, cat, q) = setup();
        let opt = Optimizer::postgres();
        let mut neo = LearnedOptimizer::neo(4);
        let e0 = neo.eps();
        for _ in 0..200 {
            let _ = neo.select_plan(&opt, &q, &db, &cat).unwrap();
        }
        assert!(neo.eps() < e0);
        assert!(neo.eps() >= 0.05);
    }
}
