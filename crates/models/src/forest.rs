//! Random-forest regression over pooled features (Figure 15a baseline).
//!
//! Bagged CART trees: variance-reduction splits, per-split feature
//! subsampling, bootstrap per tree. The paper notes it performed an
//! "extensive grid search" to tune this baseline; the defaults here came
//! from the same kind of sweep on the synthetic workloads.

use crate::norm::TargetNorm;
use crate::pooled::pooled_features;
use crate::ValueModel;
use bao_common::{rng_from_seed, split_seed, BaoError, Result, Rng};
use bao_nn::FeatTree;

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub max_depth: usize,
    pub min_leaf: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig { n_trees: 50, max_depth: 10, min_leaf: 3 }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(f64),
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

impl Node {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            Node::Leaf(v) => *v,
            Node::Split { feature, threshold, left, right } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }
}

fn mean(ys: &[f64]) -> f64 {
    if ys.is_empty() {
        0.0
    } else {
        ys.iter().sum::<f64>() / ys.len() as f64
    }
}

fn sse(ys: &[f64]) -> f64 {
    let m = mean(ys);
    ys.iter().map(|&y| (y - m) * (y - m)).sum()
}

fn build(
    xs: &[Vec<f64>],
    ys: &[f64],
    idx: &[usize],
    depth: usize,
    cfg: &ForestConfig,
    rng: &mut impl Rng,
) -> Node {
    let here: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
    if depth >= cfg.max_depth || idx.len() < 2 * cfg.min_leaf || sse(&here) < 1e-12 {
        return Node::Leaf(mean(&here));
    }
    let d = xs[0].len();
    // Feature subsampling: ~sqrt(d) features per split.
    let k = ((d as f64).sqrt().ceil() as usize).clamp(1, d);
    let mut feats: Vec<usize> = (0..d).collect();
    rng.shuffle(&mut feats);
    feats.truncate(k);

    let parent_sse = sse(&here);
    let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
    for &f in &feats {
        let mut vals: Vec<f64> = idx.iter().map(|&i| xs[i][f]).collect();
        // `total_cmp` orders finite values as `partial_cmp` does except
        // `-0.0 < +0.0`; `dedup` merges the two, and `(±0 + x) / 2` has
        // the same bits either way, so every threshold keeps its bits.
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        // Up to 16 candidate thresholds between distinct values.
        let step = (vals.len() / 16).max(1);
        for w in (0..vals.len() - 1).step_by(step) {
            let thr = (vals[w] + vals[w + 1]) / 2.0;
            let (mut ly, mut ry) = (Vec::new(), Vec::new());
            for &i in idx {
                if xs[i][f] <= thr {
                    ly.push(ys[i]);
                } else {
                    ry.push(ys[i]);
                }
            }
            if ly.len() < cfg.min_leaf || ry.len() < cfg.min_leaf {
                continue;
            }
            let gain = parent_sse - sse(&ly) - sse(&ry);
            if best.as_ref().is_none_or(|&(g, _, _)| gain > g) {
                best = Some((gain, f, thr));
            }
        }
    }
    let Some((gain, feature, threshold)) = best else {
        return Node::Leaf(mean(&here));
    };
    if gain <= 1e-12 {
        return Node::Leaf(mean(&here));
    }
    let (mut li, mut ri) = (Vec::new(), Vec::new());
    for &i in idx {
        if xs[i][feature] <= threshold {
            li.push(i);
        } else {
            ri.push(i);
        }
    }
    Node::Split {
        feature,
        threshold,
        left: Box::new(build(xs, ys, &li, depth + 1, cfg, rng)),
        right: Box::new(build(xs, ys, &ri, depth + 1, cfg, rng)),
    }
}

/// Bagged regression forest over pooled tree features.
#[derive(Debug, Clone)]
pub struct RandomForestModel {
    cfg: ForestConfig,
    trees: Vec<Node>,
    norm: Option<TargetNorm>,
}

impl RandomForestModel {
    pub fn new(cfg: ForestConfig) -> Self {
        RandomForestModel { cfg, trees: vec![], norm: None }
    }
}

impl Default for RandomForestModel {
    fn default() -> Self {
        RandomForestModel::new(ForestConfig::default())
    }
}

impl ValueModel for RandomForestModel {
    fn name(&self) -> &'static str {
        "random_forest"
    }

    fn fit(&mut self, trees: &[FeatTree], targets: &[f64], seed: u64) {
        let norm = TargetNorm::fit(targets);
        let xs: Vec<Vec<f64>> = trees.iter().map(pooled_features).collect();
        let ys: Vec<f64> = targets.iter().map(|&y| norm.forward(y)).collect();
        self.norm = Some(norm);
        self.trees.clear();
        if xs.is_empty() {
            return;
        }
        for t in 0..self.cfg.n_trees {
            let mut rng = rng_from_seed(split_seed(seed, t as u64));
            let bag: Vec<usize> = (0..xs.len()).map(|_| rng.gen_range(0..xs.len())).collect();
            self.trees.push(build(&xs, &ys, &bag, 0, &self.cfg, &mut rng));
        }
    }

    fn predict(&self, tree: &FeatTree) -> Result<f64> {
        let norm = self.norm.ok_or(BaoError::ModelNotFitted)?;
        if self.trees.is_empty() {
            return Err(BaoError::ModelNotFitted);
        }
        let x = pooled_features(tree);
        let z = self.trees.iter().map(|t| t.predict(&x)).sum::<f64>() / self.trees.len() as f64;
        Ok(norm.inverse(z))
    }

    fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize, seed: u64) -> (Vec<FeatTree>, Vec<f64>) {
        let mut rng = rng_from_seed(seed);
        let mut trees = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let c: f32 = rng.gen_range(0.0..10.0);
            trees.push(FeatTree::leaf(vec![c, rng.gen_range(0.0..1.0)]));
            ys.push((c as f64 * 50.0) + 10.0);
        }
        (trees, ys)
    }

    #[test]
    fn fits_monotone_function() {
        let (trees, ys) = dataset(200, 3);
        let mut m = RandomForestModel::default();
        m.fit(&trees, &ys, 4);
        assert!(m.is_fitted());
        let cheap = m.predict(&FeatTree::leaf(vec![1.0, 0.5])).unwrap();
        let pricey = m.predict(&FeatTree::leaf(vec![9.0, 0.5])).unwrap();
        assert!(pricey > cheap * 2.0, "cheap={cheap} pricey={pricey}");
    }

    #[test]
    fn unfitted_errors() {
        let m = RandomForestModel::default();
        assert!(m.predict(&FeatTree::leaf(vec![1.0, 0.0])).is_err());
        assert!(!m.is_fitted());
    }

    #[test]
    fn constant_targets_predict_constant() {
        let (trees, _) = dataset(50, 5);
        let ys = vec![42.0; trees.len()];
        let mut m = RandomForestModel::default();
        m.fit(&trees, &ys, 6);
        let p = m.predict(&trees[0]).unwrap();
        assert!((p - 42.0).abs() < 2.0, "p={p}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (trees, ys) = dataset(60, 7);
        let mut a = RandomForestModel::default();
        let mut b = RandomForestModel::default();
        a.fit(&trees, &ys, 8);
        b.fit(&trees, &ys, 8);
        assert_eq!(a.predict(&trees[0]).unwrap(), b.predict(&trees[0]).unwrap());
    }

    /// A NaN feature sorts to the end of a split's candidate values
    /// instead of aborting the fit.
    #[test]
    fn nan_feature_fits_without_panicking() {
        let (mut trees, ys) = dataset(60, 9);
        trees[3] = FeatTree::leaf(vec![f32::NAN, 0.5]);
        let mut m = RandomForestModel::default();
        m.fit(&trees, &ys, 10);
        assert!(m.predict(&trees[0]).unwrap().is_finite());
    }

    #[test]
    fn empty_fit_stays_unfitted() {
        let mut m = RandomForestModel::default();
        m.fit(&[], &[], 1);
        assert!(!m.is_fitted());
    }
}
