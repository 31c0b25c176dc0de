//! Binarized feature trees: the TCNN's input format.

use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::Result;

/// A binary tree of feature vectors, flattened to parallel arrays.
///
/// Nodes are stored in pre-order; `left[i]`/`right[i]` hold child indices
/// or `-1`. Bao's featurizer guarantees every node has either zero or two
/// children (nulls are explicit nodes after binarization, paper Figure 3),
/// but the network also tolerates one-sided nodes (missing child
/// contributes a zero vector).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatTree {
    pub feat_dim: usize,
    /// `n_nodes * feat_dim` features, node-major.
    pub feats: Vec<f32>,
    pub left: Vec<i32>,
    pub right: Vec<i32>,
}

impl ToJson for FeatTree {
    fn to_json(&self) -> Json {
        Json::obj([
            ("feat_dim", self.feat_dim.to_json()),
            ("feats", self.feats.to_json()),
            ("left", self.left.to_json()),
            ("right", self.right.to_json()),
        ])
    }
}

impl FromJson for FeatTree {
    fn from_json(j: &Json) -> Result<FeatTree> {
        Ok(FeatTree {
            feat_dim: json::field(j, "feat_dim")?,
            feats: json::field(j, "feats")?,
            left: json::field(j, "left")?,
            right: json::field(j, "right")?,
        })
    }
}

impl FeatTree {
    /// A single-node tree.
    pub fn leaf(feat: Vec<f32>) -> FeatTree {
        FeatTree { feat_dim: feat.len(), feats: feat, left: vec![-1], right: vec![-1] }
    }

    /// Build from per-node vectors and child links.
    pub fn new(feat_dim: usize, nodes: Vec<Vec<f32>>, left: Vec<i32>, right: Vec<i32>) -> FeatTree {
        assert_eq!(nodes.len(), left.len());
        assert_eq!(nodes.len(), right.len());
        let mut feats = Vec::with_capacity(nodes.len() * feat_dim);
        for n in &nodes {
            assert_eq!(n.len(), feat_dim, "inconsistent feature dimension");
            feats.extend_from_slice(n);
        }
        FeatTree { feat_dim, feats, left, right }
    }

    pub fn n_nodes(&self) -> usize {
        self.left.len()
    }

    pub fn feat(&self, node: usize) -> &[f32] {
        &self.feats[node * self.feat_dim..(node + 1) * self.feat_dim]
    }

    /// Validate structural invariants (child indices in range, acyclic by
    /// the pre-order convention children follow parents).
    pub fn is_well_formed(&self) -> bool {
        let n = self.n_nodes() as i32;
        if self.feats.len() != self.n_nodes() * self.feat_dim {
            return false;
        }
        for i in 0..self.n_nodes() {
            for &c in [self.left[i], self.right[i]].iter() {
                if c != -1 && (c <= i as i32 || c >= n) {
                    return false;
                }
            }
        }
        true
    }
}

/// Several [`FeatTree`]s packed into one node-major buffer so every layer
/// kernel runs as a single batched GEMM over all trees at once.
///
/// Layout: tree `t`'s nodes occupy batch positions
/// `offsets[t]..offsets[t + 1]`, features stay node-major
/// (`total_nodes × feat_dim`), and child indices are rebased to
/// batch-global positions (`-1` still means "no child"). Per-node kernels
/// (tree conv, layer norm, ReLU, dropout) never need the tree boundaries;
/// only pooling consumes `offsets`.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeBatch {
    pub feat_dim: usize,
    /// `total_nodes × feat_dim` features, node-major across all trees.
    pub feats: Vec<f32>,
    /// Batch-global child indices (rebased), `-1` for none.
    pub left: Vec<i32>,
    pub right: Vec<i32>,
    /// `n_trees + 1` cumulative node offsets; `offsets[0] == 0` and
    /// `offsets[n_trees] == total_nodes`.
    pub offsets: Vec<usize>,
}

impl TreeBatch {
    /// Pack trees into one batch. All trees must share `feat_dim`; an
    /// empty iterator yields an empty batch (`feat_dim` 0).
    pub fn pack<'a>(trees: impl IntoIterator<Item = &'a FeatTree>) -> TreeBatch {
        let (feats, left, right, offsets) = Default::default();
        let mut batch = TreeBatch { feat_dim: 0, feats, left, right, offsets };
        batch.repack(trees);
        batch
    }

    /// Replace the contents with `trees`, packed as by
    /// [`TreeBatch::pack`], in the buffers already held: a batch reused
    /// across shards allocates nothing once it has held the largest.
    pub fn repack<'a>(&mut self, trees: impl IntoIterator<Item = &'a FeatTree>) {
        self.feat_dim = 0;
        self.feats.clear();
        self.left.clear();
        self.right.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for tree in trees {
            if self.n_trees() == 0 {
                self.feat_dim = tree.feat_dim;
            } else {
                assert_eq!(tree.feat_dim, self.feat_dim, "inconsistent feature dimension");
            }
            let base = self.total_nodes() as i32;
            self.feats.extend_from_slice(&tree.feats);
            self.left.extend(tree.left.iter().map(|&c| if c < 0 { -1 } else { c + base }));
            self.right.extend(tree.right.iter().map(|&c| if c < 0 { -1 } else { c + base }));
            self.offsets.push(self.left.len());
        }
    }

    pub fn n_trees(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn total_nodes(&self) -> usize {
        self.left.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_node() -> FeatTree {
        FeatTree::new(
            2,
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            vec![1, -1, -1],
            vec![2, -1, -1],
        )
    }

    #[test]
    fn construction_and_access() {
        let t = three_node();
        assert_eq!(t.n_nodes(), 3);
        assert_eq!(t.feat(1), &[3.0, 4.0]);
        assert!(t.is_well_formed());
    }

    #[test]
    fn leaf_tree() {
        let t = FeatTree::leaf(vec![1.0, 0.0, 0.5]);
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.feat_dim, 3);
        assert!(t.is_well_formed());
    }

    #[test]
    fn malformed_trees_detected() {
        let mut t = three_node();
        t.left[2] = 0; // back-edge
        assert!(!t.is_well_formed());
        let mut t = three_node();
        t.right[0] = 7; // out of range
        assert!(!t.is_well_formed());
        let mut t = three_node();
        t.feats.pop();
        assert!(!t.is_well_formed());
    }

    #[test]
    #[should_panic(expected = "inconsistent feature dimension")]
    fn dimension_mismatch_panics() {
        FeatTree::new(2, vec![vec![1.0]], vec![-1], vec![-1]);
    }

    #[test]
    fn pack_rebases_children_and_offsets() {
        let a = three_node();
        let b = FeatTree::leaf(vec![9.0, 9.5]);
        let c = three_node();
        let batch = TreeBatch::pack([&a, &b, &c]);
        assert_eq!(batch.n_trees(), 3);
        assert_eq!(batch.total_nodes(), 7);
        assert_eq!(batch.offsets, vec![0, 3, 4, 7]);
        // tree 0 keeps its indices, tree 2 is rebased by 4
        assert_eq!(batch.left, vec![1, -1, -1, -1, 5, -1, -1]);
        assert_eq!(batch.right, vec![2, -1, -1, -1, 6, -1, -1]);
        // features are concatenated node-major
        assert_eq!(&batch.feats[6..8], &[9.0, 9.5]);
        assert_eq!(batch.feats.len(), 7 * 2);
    }

    #[test]
    fn pack_empty_and_single() {
        let empty = TreeBatch::pack(std::iter::empty::<&FeatTree>());
        assert_eq!(empty.n_trees(), 0);
        assert_eq!(empty.total_nodes(), 0);
        let t = three_node();
        let one = TreeBatch::pack([&t]);
        assert_eq!(one.n_trees(), 1);
        assert_eq!(one.feats, t.feats);
        assert_eq!(one.left, t.left);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature dimension")]
    fn pack_rejects_mixed_dims() {
        let a = three_node();
        let b = FeatTree::leaf(vec![1.0]);
        TreeBatch::pack([&a, &b]);
    }
}
