//! The TCNN value model (Bao's production predictor).

use crate::norm::TargetNorm;
use crate::ValueModel;
use bao_common::json::{self, Json, ToJson};
use bao_common::{BaoError, Result};
use bao_nn::{train, FeatTree, ScoreScratch, TcnnConfig, TrainConfig, TreeCnn};
use std::sync::Mutex;

/// Tree-CNN predictor: trains from scratch on each `fit` (each Thompson
/// resample draws fresh weights), on standardized log targets.
///
/// Serializable: [`TcnnModel::to_json`]/[`TcnnModel::from_json`] persist a
/// trained model (weights + target normalization) so a deployment can
/// restart without retraining — the paper's low-integration-cost story.
#[derive(Debug)]
pub struct TcnnModel {
    cfg: TcnnConfig,
    train_cfg: TrainConfig,
    net: Option<TreeCnn>,
    norm: Option<TargetNorm>,
    /// Epochs run by the most recent fit (surfaced for the Figure 15c
    /// training-time accounting).
    pub last_epochs: usize,
    /// Inference arena every prediction runs in. Interior mutability
    /// keeps the predict methods `&self`; the arena is pure cache, so a
    /// poisoned lock (a panic mid-score) scores in a fresh one rather
    /// than erroring.
    scratch: Mutex<ScoreScratch>,
}

impl Clone for TcnnModel {
    fn clone(&self) -> TcnnModel {
        TcnnModel {
            cfg: self.cfg,
            train_cfg: self.train_cfg,
            net: self.net.clone(),
            norm: self.norm,
            last_epochs: self.last_epochs,
            // Scratch is pure cache; a clone starts with a fresh one.
            scratch: Mutex::new(ScoreScratch::new()),
        }
    }
}

impl TcnnModel {
    pub fn new(cfg: TcnnConfig, train_cfg: TrainConfig) -> TcnnModel {
        TcnnModel {
            cfg,
            train_cfg,
            net: None,
            norm: None,
            last_epochs: 0,
            scratch: Mutex::new(ScoreScratch::new()),
        }
    }

    /// Reduced-width default (see [`TcnnConfig::small`]).
    pub fn with_defaults(input_dim: usize) -> TcnnModel {
        TcnnModel::new(TcnnConfig::small(input_dim), TrainConfig::default())
    }

    pub fn config(&self) -> &TcnnConfig {
        &self.cfg
    }

    /// Serialize the model (weights, config, normalization) to JSON.
    pub fn to_json(&self) -> Result<String> {
        let j = Json::obj([
            ("cfg", self.cfg.to_json()),
            ("train_cfg", self.train_cfg.to_json()),
            ("net", self.net.as_ref().map(ToJson::to_json).unwrap_or(Json::Null)),
            ("norm", self.norm.to_json()),
            ("last_epochs", self.last_epochs.to_json()),
        ]);
        Ok(j.to_string())
    }

    /// Restore a model saved with [`TcnnModel::to_json`].
    pub fn from_json(text: &str) -> Result<TcnnModel> {
        let j = json::parse(text).map_err(|e| BaoError::Config(format!("parse: {e}")))?;
        let decode = || -> Result<TcnnModel> {
            Ok(TcnnModel {
                cfg: json::field(&j, "cfg")?,
                train_cfg: json::field(&j, "train_cfg")?,
                net: json::field(&j, "net")?,
                norm: json::field(&j, "norm")?,
                last_epochs: json::field(&j, "last_epochs")?,
                scratch: Mutex::new(ScoreScratch::new()),
            })
        };
        let mut m = decode().map_err(|e| BaoError::Config(format!("parse: {e}")))?;
        if let Some(net) = &mut m.net {
            net.reset_scratch();
        }
        Ok(m)
    }
}

impl ValueModel for TcnnModel {
    fn name(&self) -> &'static str {
        "tcnn"
    }

    fn fit(&mut self, trees: &[FeatTree], targets: &[f64], seed: u64) {
        let norm = TargetNorm::fit(targets);
        let ys: Vec<f32> = targets.iter().map(|&y| norm.forward(y) as f32).collect();
        let mut net = TreeCnn::new(self.cfg, seed);
        let cfg = TrainConfig { seed, ..self.train_cfg };
        let report = train(&mut net, trees, &ys, &cfg);
        self.last_epochs = report.epochs_run;
        self.net = Some(net);
        self.norm = Some(norm);
    }

    /// A batch of one: same engine, same bits as inside any batch.
    fn predict(&self, tree: &FeatTree) -> Result<f64> {
        Ok(self.predict_batch(&[tree])?[0])
    }

    /// Every TCNN prediction: the tape-free scorer (`bao_nn::infer`),
    /// fused kernels, persistent scratch, duplicate plans scored once. A
    /// tree's score does not depend on what it is batched with, which is
    /// what lets the serving layer coalesce queries into one call.
    fn predict_batch(&self, trees: &[&FeatTree]) -> Result<Vec<f64>> {
        let (net, norm) = match (&self.net, &self.norm) {
            (Some(n), Some(m)) => (n, m),
            _ => return Err(BaoError::ModelNotFitted),
        };
        let preds = match self.scratch.lock() {
            Ok(mut s) => net.score(trees, &mut s),
            Err(_) => net.score(trees, &mut ScoreScratch::new()),
        };
        Ok(preds.into_iter().map(|p| norm.inverse(p as f64)).collect())
    }

    fn coalesce_stats(&self) -> Option<(usize, usize)> {
        let s = self.scratch.lock().ok()?;
        (s.last_requested > 0).then_some((s.last_scored, s.last_requested))
    }

    fn is_fitted(&self) -> bool {
        self.net.is_some()
    }

    fn last_epochs(&self) -> usize {
        self.last_epochs
    }

    fn snapshot_json(&self) -> Option<String> {
        self.to_json().ok()
    }

    fn restore_json(&mut self, snapshot: &str) -> Result<()> {
        *self = TcnnModel::from_json(snapshot)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::{rng_from_seed, Rng};

    /// Synthetic plan-like trees where the target is the sum of the
    /// "cost" feature — learnable, latency-scaled.
    fn dataset(n: usize, seed: u64) -> (Vec<FeatTree>, Vec<f64>) {
        let mut rng = rng_from_seed(seed);
        let mut trees = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let costs: Vec<f32> = (0..3).map(|_| rng.gen_range(0.0..5.0)).collect();
            let nodes: Vec<Vec<f32>> =
                costs.iter().map(|&c| vec![c, 1.0, rng.gen_range(0.0..1.0)]).collect();
            trees.push(FeatTree::new(3, nodes, vec![1, -1, -1], vec![2, -1, -1]));
            let total: f64 = costs.iter().sum::<f32>() as f64;
            // Heavy-tailed latency-like targets spanning ~4 decades.
            ys.push(total.powi(3) * 20.0 + 10.0);
        }
        (trees, ys)
    }

    #[test]
    fn unfitted_errors() {
        let m = TcnnModel::with_defaults(3);
        assert!(!m.is_fitted());
        assert!(matches!(m.predict(&FeatTree::leaf(vec![0.0; 3])), Err(BaoError::ModelNotFitted)));
    }

    #[test]
    fn learns_cost_ordering() {
        let (trees, ys) = dataset(120, 31);
        let mut m = TcnnModel::new(
            TcnnConfig::tiny(3),
            TrainConfig { max_epochs: 60, ..TrainConfig::default() },
        );
        m.fit(&trees, &ys, 5);
        assert!(m.is_fitted());
        assert!(m.last_epochs > 0);
        // Rank correlation: cheap trees predicted cheaper than expensive
        // ones, on average.
        let (test_trees, test_ys) = dataset(40, 77);
        let preds: Vec<f64> = test_trees.iter().map(|t| m.predict(t).unwrap()).collect();
        let mut concordant = 0;
        let mut total = 0;
        for i in 0..preds.len() {
            for j in (i + 1)..preds.len() {
                if (test_ys[i] - test_ys[j]).abs() < 1.0 {
                    continue;
                }
                total += 1;
                if (preds[i] < preds[j]) == (test_ys[i] < test_ys[j]) {
                    concordant += 1;
                }
            }
        }
        let frac = concordant as f64 / total as f64;
        assert!(frac > 0.7, "rank agreement {frac}");
    }

    #[test]
    fn predict_batch_matches_per_tree() {
        let (trees, ys) = dataset(40, 14);
        let mut m = TcnnModel::new(TcnnConfig::tiny(3), TrainConfig::default());
        assert!(m.predict_batch(&[&trees[0]]).is_err());
        m.fit(&trees, &ys, 4);
        let refs: Vec<&FeatTree> = trees.iter().collect();
        let batch = m.predict_batch(&refs).unwrap();
        assert_eq!(batch.len(), trees.len());
        for (t, &pb) in trees.iter().zip(batch.iter()) {
            let p = m.predict(t).unwrap();
            assert_eq!(p.to_bits(), pb.to_bits(), "batch {pb} vs batch of one {p}");
        }
    }

    #[test]
    fn predictions_are_nonnegative() {
        let (trees, ys) = dataset(40, 9);
        let mut m = TcnnModel::new(TcnnConfig::tiny(3), TrainConfig::default());
        m.fit(&trees, &ys, 1);
        for t in &trees {
            assert!(m.predict(t).unwrap() >= 0.0);
        }
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let (trees, ys) = dataset(30, 21);
        let mut m = TcnnModel::new(TcnnConfig::tiny(3), TrainConfig::default());
        m.fit(&trees, &ys, 3);
        let json = m.to_json().unwrap();
        let restored = TcnnModel::from_json(&json).unwrap();
        assert!(restored.is_fitted());
        for t in trees.iter().take(5) {
            assert_eq!(m.predict(t).unwrap(), restored.predict(t).unwrap());
        }
        assert!(TcnnModel::from_json("{bad json").is_err());
    }

    #[test]
    fn refit_replaces_model() {
        let (trees, ys) = dataset(40, 10);
        let mut m = TcnnModel::new(TcnnConfig::tiny(3), TrainConfig::default());
        m.fit(&trees, &ys, 1);
        let p1 = m.predict(&trees[0]).unwrap();
        m.fit(&trees, &ys, 2);
        let p2 = m.predict(&trees[0]).unwrap();
        // different seed -> different weights -> (almost surely) different
        // prediction
        assert_ne!(p1, p2);
    }
}
