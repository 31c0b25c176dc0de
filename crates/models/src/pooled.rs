//! Pooled (flat) featurization for the non-tree models.
//!
//! The random forest and linear baselines of Figure 15a cannot consume
//! trees, so each tree is summarized as: per-dimension sum over nodes,
//! per-dimension max over nodes, node count, and depth-proxy. This is a
//! strong flat summary — the ablation's point is that even with it,
//! structure-blind models underperform tree convolution.

use bao_nn::FeatTree;

/// Flat feature dimension for trees with `feat_dim`-wide node vectors.
pub fn pooled_dim(feat_dim: usize) -> usize {
    2 * feat_dim + 2
}

/// Summarize a tree to a fixed-length vector.
pub fn pooled_features(tree: &FeatTree) -> Vec<f64> {
    let d = tree.feat_dim;
    let n = tree.n_nodes();
    let mut sum = vec![0.0f64; d];
    let mut max = vec![f64::NEG_INFINITY; d];
    for i in 0..n {
        for (j, &v) in tree.feat(i).iter().enumerate() {
            sum[j] += v as f64;
            max[j] = max[j].max(v as f64);
        }
    }
    if n == 0 {
        max.iter_mut().for_each(|m| *m = 0.0);
    }
    // Depth proxy: length of the leftmost spine (trees are left-deep-ish
    // after binarization, and true depth costs another traversal).
    let mut depth = 0usize;
    let mut cur = 0i32;
    while cur >= 0 && (cur as usize) < n {
        depth += 1;
        cur = tree.left[cur as usize];
    }
    let mut out = Vec::with_capacity(pooled_dim(d));
    out.extend_from_slice(&sum);
    out.extend_from_slice(&max);
    out.push(n as f64);
    out.push(depth as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_and_values() {
        let t = FeatTree::new(
            2,
            vec![vec![1.0, 5.0], vec![2.0, -1.0], vec![3.0, 0.0]],
            vec![1, -1, -1],
            vec![2, -1, -1],
        );
        let f = pooled_features(&t);
        assert_eq!(f.len(), pooled_dim(2));
        assert_eq!(&f[0..2], &[6.0, 4.0]); // sums
        assert_eq!(&f[2..4], &[3.0, 5.0]); // maxes
        assert_eq!(f[4], 3.0); // node count
        assert_eq!(f[5], 2.0); // left spine length
    }

    #[test]
    fn leaf() {
        let f = pooled_features(&FeatTree::leaf(vec![7.0]));
        assert_eq!(f, vec![7.0, 7.0, 1.0, 1.0]);
    }

    #[test]
    fn bigger_trees_have_bigger_sums() {
        let small = FeatTree::leaf(vec![1.0]);
        let big =
            FeatTree::new(1, vec![vec![1.0]; 5], vec![1, 3, -1, -1, -1], vec![2, 4, -1, -1, -1]);
        assert!(pooled_features(&big)[0] > pooled_features(&small)[0]);
        assert!(pooled_features(&big)[2] > pooled_features(&small)[2]);
    }
}
