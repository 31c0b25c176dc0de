//! Ridge regression over pooled features (Figure 15a's weakest baseline).

use crate::norm::TargetNorm;
use crate::pooled::pooled_features;
use crate::ValueModel;
use bao_common::{BaoError, Result};
use bao_nn::FeatTree;

/// Ridge-regularized linear model on standardized pooled features.
#[derive(Debug, Clone)]
pub struct LinearModel {
    lambda: f64,
    /// Weights (last entry is the intercept) in standardized space.
    weights: Vec<f64>,
    feat_mean: Vec<f64>,
    feat_std: Vec<f64>,
    norm: Option<TargetNorm>,
}

impl LinearModel {
    pub fn new(lambda: f64) -> LinearModel {
        LinearModel { lambda, weights: vec![], feat_mean: vec![], feat_std: vec![], norm: None }
    }

    fn standardize(&self, x: &[f64]) -> Vec<f64> {
        x.iter().enumerate().map(|(j, &v)| (v - self.feat_mean[j]) / self.feat_std[j]).collect()
    }
}

impl Default for LinearModel {
    fn default() -> Self {
        LinearModel::new(1e-2)
    }
}

/// Solve `A w = b` by Gaussian elimination with partial pivoting.
/// `A` is row-major `n × n`. Returns `None` for singular systems.
fn solve(mut a: Vec<f64>, mut b: Vec<f64>, n: usize) -> Option<Vec<f64>> {
    for col in 0..n {
        // pivot
        let mut piv = col;
        for r in (col + 1)..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        if a[piv * n + col].abs() < 1e-12 {
            return None;
        }
        if piv != col {
            for j in 0..n {
                a.swap(col * n + j, piv * n + j);
            }
            b.swap(col, piv);
        }
        let d = a[col * n + col];
        for r in (col + 1)..n {
            let f = a[r * n + col] / d;
            // bao-lint: allow(no-float-eq) — exact-zero pivot-row skip
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                a[r * n + j] -= f * a[col * n + j];
            }
            b[r] -= f * b[col];
        }
    }
    let mut w = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for j in (col + 1)..n {
            acc -= a[col * n + j] * w[j];
        }
        w[col] = acc / a[col * n + col];
    }
    Some(w)
}

impl ValueModel for LinearModel {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn fit(&mut self, trees: &[FeatTree], targets: &[f64], _seed: u64) {
        if trees.is_empty() {
            self.weights.clear();
            return;
        }
        let norm = TargetNorm::fit(targets);
        let raw: Vec<Vec<f64>> = trees.iter().map(pooled_features).collect();
        let d = raw[0].len();
        let n = raw.len() as f64;
        self.feat_mean = (0..d).map(|j| raw.iter().map(|x| x[j]).sum::<f64>() / n).collect();
        self.feat_std = (0..d)
            .map(|j| {
                let m = self.feat_mean[j];
                (raw.iter().map(|x| (x[j] - m) * (x[j] - m)).sum::<f64>() / n).sqrt().max(1e-9)
            })
            .collect();
        let xs: Vec<Vec<f64>> = raw
            .iter()
            .map(|x| {
                let mut z = self.standardize(x);
                z.push(1.0); // intercept
                z
            })
            .collect();
        let ys: Vec<f64> = targets.iter().map(|&y| norm.forward(y)).collect();
        let dim = d + 1;
        // Normal equations: (XᵀX + λI) w = Xᵀy (intercept unregularized).
        let mut a = vec![0.0f64; dim * dim];
        let mut b = vec![0.0f64; dim];
        for (x, &y) in xs.iter().zip(ys.iter()) {
            for i in 0..dim {
                b[i] += x[i] * y;
                for j in 0..dim {
                    a[i * dim + j] += x[i] * x[j];
                }
            }
        }
        for i in 0..d {
            a[i * dim + i] += self.lambda * xs.len() as f64;
        }
        self.weights = solve(a, b, dim).unwrap_or_else(|| vec![0.0; dim]);
        self.norm = Some(norm);
    }

    fn predict(&self, tree: &FeatTree) -> Result<f64> {
        let norm = self.norm.ok_or(BaoError::ModelNotFitted)?;
        if self.weights.is_empty() {
            return Err(BaoError::ModelNotFitted);
        }
        let mut z = self.standardize(&pooled_features(tree));
        z.push(1.0);
        let pred: f64 = z.iter().zip(self.weights.iter()).map(|(a, b)| a * b).sum();
        Ok(norm.inverse(pred))
    }

    fn is_fitted(&self) -> bool {
        !self.weights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::{rng_from_seed, Rng};

    #[test]
    fn solver_inverts_known_system() {
        // 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3
        let w = solve(vec![2.0, 1.0, 1.0, 3.0], vec![5.0, 10.0], 2).unwrap();
        assert!((w[0] - 1.0).abs() < 1e-9);
        assert!((w[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solver_detects_singularity() {
        assert!(solve(vec![1.0, 2.0, 2.0, 4.0], vec![1.0, 2.0], 2).is_none());
    }

    #[test]
    fn fits_log_linear_relationship() {
        let mut rng = rng_from_seed(2);
        let mut trees = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..150 {
            let c: f32 = rng.gen_range(0.0..8.0);
            trees.push(FeatTree::leaf(vec![c, 1.0]));
            // log-linear in the pooled feature
            ys.push((0.8 * c as f64 + 2.0).exp());
        }
        let mut m = LinearModel::default();
        m.fit(&trees, &ys, 0);
        assert!(m.is_fitted());
        let lo = m.predict(&FeatTree::leaf(vec![1.0, 1.0])).unwrap();
        let hi = m.predict(&FeatTree::leaf(vec![7.0, 1.0])).unwrap();
        let truth_ratio = ((0.8 * 7.0f64 + 2.0).exp()) / ((0.8 * 1.0f64 + 2.0).exp());
        assert!(hi / lo > truth_ratio * 0.5, "hi/lo={} truth={truth_ratio}", hi / lo);
    }

    #[test]
    fn unfitted_errors() {
        let m = LinearModel::default();
        assert!(m.predict(&FeatTree::leaf(vec![0.0, 0.0])).is_err());
        let mut m = LinearModel::default();
        m.fit(&[], &[], 0);
        assert!(!m.is_fitted());
    }

    #[test]
    fn constant_feature_does_not_nan() {
        let trees: Vec<FeatTree> = (0..20).map(|_| FeatTree::leaf(vec![5.0])).collect();
        let ys: Vec<f64> = (0..20).map(|i| 10.0 + i as f64).collect();
        let mut m = LinearModel::default();
        m.fit(&trees, &ys, 0);
        let p = m.predict(&trees[0]).unwrap();
        assert!(p.is_finite());
    }
}
