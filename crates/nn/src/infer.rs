//! The scorer: the one way to get a prediction out of a [`TreeCnn`].
//!
//! The crate has one network and two forward passes over it, one per
//! role:
//!
//! * [`TreeCnn::score`] (this module) — every prediction any product
//!   crate makes: arm selection, coalesced serving waves, the
//!   critical-group check, the learned baselines, a single-tree
//!   `predict` (a forest of one);
//! * the batched taped forward in `net.rs` — training and MC-dropout
//!   sampling, which need the activations (or live dropout masks) the
//!   scorer throws away.
//!
//! **Numerics contract.** A score is a function of the weights and the
//! tree alone: every dense product, convolutions and fully connected
//! head alike, runs [`axpy_nz`] on one row at a time — per output
//! element, the terms in a fixed order and each term's nonzero inputs
//! in ascending `k` — and layer norm and pooling are per node and per
//! tree. Nothing depends on how many trees or node rows a call carries,
//! so a tree scores to the same bits alone, after dedup, or inside a
//! coalesced wave of hundreds: that is what makes cross-query coalescing
//! and duplicate scattering legal. The batched training forward runs the
//! same kernel in the same order whenever a GEMM clears its small-batch
//! threshold (see `Param::matmul_add`), so for a forest of four or more
//! trees `score` also equals that pass bit for bit; below it the
//! training forward switches to `matvec_add` (its rounding is pinned by
//! `tests/train_golden.rs`, which also pins `score`'s own bits) and the
//! two agree to ~1e-6 relative.
//!
//! **Why it is fast.** Scoring keeps nothing for backward, so it does
//! not pay for a tape:
//!
//! * **no pack** — trees are scored straight out of their own feature
//!   buffers; child indices are tree-local already, so nothing is copied
//!   or rebased;
//! * **zeros looked at once** — each layer's input rows are compacted to
//!   their nonzeros once ([`RowNz`], branch-free), and a row's compaction
//!   serves both its own self term and its parent's child term; a plan
//!   node's feature row has at most four nonzeros (operator one-hot, log
//!   rows, log cost, cache fraction) and a null node's one;
//! * **fused layers in register tiles** — each convolution layer runs
//!   per node as the bias, then one [`axpy_nz`] over the three conv
//!   terms with the output row held in 32/16/8-wide register
//!   accumulators while every term streams through, then layer norm and
//!   ReLU on the row: one buffer write per layer where a taped pass
//!   writes four;
//! * **per-tree execution** — a tree runs start to finish (three conv
//!   layers, pooling, the FC head) in a ping-pong arena sized to the
//!   largest tree, so the working set is cache-resident at any forest
//!   size and coalescing scales instead of thrashing;
//! * **amortized weights** — the weight transposes are built once per
//!   call and reused across every tree, and the arena, compaction
//!   included, persists across calls (a model scores everything through
//!   one [`ScoreScratch`]), so a warm scorer allocates nothing per tree;
//! * **dedup** — arm families alias heavily: many hint sets do not
//!   change the optimizer's chosen plan (the paper leans on this when it
//!   dedups hinted plans before execution), so a 49-arm family typically
//!   holds a handful of *distinct* plan trees and a coalesced wave
//!   concentrates even more duplicates. The forest is deduplicated by
//!   exact bitwise equality (features, child indices), each distinct
//!   tree is scored once, and the score is scattered to every duplicate:
//!   work scales with distinct plans, not arms.

use crate::layers::LN_EPS;
use crate::net::TreeCnn;
use crate::param::{axpy_nz, Param, RowNz};
use crate::tree::FeatTree;

/// Reusable inference arena for [`TreeCnn::score`].
///
/// Holds the per-call weight transposes and every intermediate buffer;
/// all storage is grown on demand and retained across calls, so a
/// long-lived scratch (one per serving loop) amortizes allocation to
/// zero. Plain data — cheap to construct, safe to drop.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// Transposed conv weights, `[layer][top, left, right]`.
    wt_conv: Vec<Vec<f32>>,
    wt_fc1: Vec<f32>,
    wt_fc2: Vec<f32>,
    /// Ping-pong node-major activation buffers for the current tree.
    act_a: Vec<f32>,
    act_b: Vec<f32>,
    /// The current tree's pooled activations (`c3`) and FC hidden
    /// activations (`hidden`).
    pooled: Vec<f32>,
    fc1: Vec<f32>,
    /// The nonzeros of whichever buffer is the current product's input.
    nz: RowNz,
    /// Trees the last call actually pushed through the network after
    /// duplicate elimination (telemetry for benches and serving reports).
    pub last_scored: usize,
    /// Trees the last call was asked to score.
    pub last_requested: usize,
}

impl ScoreScratch {
    pub fn new() -> ScoreScratch {
        ScoreScratch::default()
    }
}

/// FNV-1a over a tree's structure and exact feature bits. Equal trees
/// hash equal; the dedup pass still confirms candidates with a full
/// bitwise comparison, so collisions only cost a compare.
fn tree_hash(t: &FeatTree) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    h = (h ^ t.n_nodes() as u64).wrapping_mul(PRIME);
    for &l in &t.left {
        h = (h ^ l as u64).wrapping_mul(PRIME);
    }
    for &r in &t.right {
        h = (h ^ r as u64).wrapping_mul(PRIME);
    }
    for &f in &t.feats {
        h = (h ^ f.to_bits() as u64).wrapping_mul(PRIME);
    }
    h
}

/// Exact equality: same shape, same children, same feature *bits*
/// (`to_bits`, so `-0.0` and `0.0` stay distinct — strictly conservative).
fn same_tree(a: &FeatTree, b: &FeatTree) -> bool {
    a.n_nodes() == b.n_nodes()
        && a.left == b.left
        && a.right == b.right
        && a.feats.iter().zip(b.feats.iter()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Duplicate elimination over a forest. Returns the indices of the
/// distinct trees plus, for every input tree, the position of its
/// representative in that distinct list. Grouping is by `(hash, index)`
/// sort — fully deterministic, no hash-map iteration anywhere — and
/// every group member is confirmed by [`same_tree`] before it shares a
/// representative.
fn dedup_forest(trees: &[&FeatTree]) -> (Vec<usize>, Vec<usize>) {
    let mut order: Vec<(u64, usize)> =
        trees.iter().enumerate().map(|(i, t)| (tree_hash(t), i)).collect();
    order.sort_unstable();
    let mut remap = vec![usize::MAX; trees.len()];
    let mut distinct: Vec<usize> = Vec::new();
    let mut g0 = 0;
    while g0 < order.len() {
        let mut g1 = g0 + 1;
        while g1 < order.len() && order[g1].0 == order[g0].0 {
            g1 += 1;
        }
        let group_start = distinct.len();
        for &(_, i) in &order[g0..g1] {
            let found =
                (group_start..distinct.len()).find(|&d| same_tree(trees[distinct[d]], trees[i]));
            match found {
                Some(d) => remap[i] = d,
                None => {
                    remap[i] = distinct.len();
                    distinct.push(i);
                }
            }
        }
        g0 = g1;
    }
    (distinct, remap)
}

/// Layer norm + ReLU on one node row, in place. Bitwise identical to
/// `layer_norm_forward` followed by `relu_forward`: same mean/variance
/// reductions, same `gamma * xhat + beta` then `max(_, 0.0)` per element.
#[inline]
fn ln_relu_row(gamma: &Param, beta: &Param, yi: &mut [f32]) {
    let c = yi.len();
    let mean = yi.iter().sum::<f32>() / c as f32;
    let var = yi.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / c as f32;
    let istd = 1.0 / (var + LN_EPS).sqrt();
    for (j, v) in yi.iter_mut().enumerate() {
        let h = (*v - mean) * istd;
        *v = (gamma.w[j] * h + beta.w[j]).max(0.0);
    }
}

impl TreeCnn {
    /// Predict every tree of a forest: duplicates are scored once and
    /// their result scattered, each distinct tree runs the fused
    /// per-tree forward pass. A tree's score depends only on the weights
    /// and the tree — see the module docs for the contract.
    pub fn score(&self, trees: &[&FeatTree], s: &mut ScoreScratch) -> Vec<f32> {
        let (distinct, remap) = dedup_forest(trees);
        s.last_requested = trees.len();
        s.last_scored = distinct.len();
        let uniq: Vec<&FeatTree> = distinct.iter().map(|&i| trees[i]).collect();
        let scores = self.score_forest(&uniq, s);
        remap.into_iter().map(|d| scores[d]).collect()
    }

    /// The fused forward pass, one tree at a time (no dedup).
    fn score_forest(&self, trees: &[&FeatTree], s: &mut ScoreScratch) -> Vec<f32> {
        let in_c = self.cfg.input_dim;
        let channels = self.cfg.channels;
        let c3 = channels[2];

        // Weight transposes: once per call, shared by every tree.
        s.wt_conv.resize_with(9, Vec::new);
        for k in 0..3 {
            self.conv[k].top.transpose_into(&mut s.wt_conv[k * 3]);
            self.conv[k].left.transpose_into(&mut s.wt_conv[k * 3 + 1]);
            self.conv[k].right.transpose_into(&mut s.wt_conv[k * 3 + 2]);
        }
        self.fc1_w.transpose_into(&mut s.wt_fc1);
        self.fc2_w.transpose_into(&mut s.wt_fc2);
        s.pooled.resize(c3, 0.0);
        s.fc1.resize(self.fc1_w.rows, 0.0);

        let max_c = channels[0].max(channels[1]).max(c3);
        let mut out = Vec::with_capacity(trees.len());
        for tree in trees {
            debug_assert_eq!(tree.feat_dim, in_c, "feature dim mismatch");
            let n = tree.n_nodes();
            if s.act_a.len() < n * max_c {
                s.act_a.resize(n * max_c, 0.0);
                s.act_b.resize(n * max_c, 0.0);
            }
            let (mut src, mut dst) = (&mut s.act_a, &mut s.act_b);
            for k in 0..3 {
                let out_c = channels[k];
                let xc = if k == 0 { in_c } else { channels[k - 1] };
                let x: &[f32] = if k == 0 { &tree.feats } else { &src[..n * xc] };
                let (wt_top, wt_left, wt_right) =
                    (&s.wt_conv[k * 3], &s.wt_conv[k * 3 + 1], &s.wt_conv[k * 3 + 2]);
                let (gamma, beta) = (&self.ln[k].gamma, &self.ln[k].beta);
                let bias = &self.conv[k].bias.w;
                // Whole layer fused per node: the input rows compacted
                // once, then bias and the three conv terms in the fixed
                // order self, left child, right child in one register
                // pass, then layer norm + ReLU on the row while it is
                // still cache-hot.
                s.nz.compact(&x[..n * xc], xc);
                for i in 0..n {
                    let yi = &mut dst[i * out_c..(i + 1) * out_c];
                    yi.copy_from_slice(bias);
                    let nz = &s.nz;
                    axpy_nz(
                        yi,
                        &[
                            (nz.row(i), wt_top),
                            (nz.child(tree.left[i]), wt_left),
                            (nz.child(tree.right[i]), wt_right),
                        ],
                    );
                    ln_relu_row(gamma, beta, yi);
                }
                std::mem::swap(&mut src, &mut dst);
            }
            // `src` holds the tree's final conv activations: dynamic
            // pooling is the per-channel max over its nodes.
            s.pooled.fill(f32::NEG_INFINITY);
            for row in src[..n * c3].chunks_exact(c3) {
                for (yv, &v) in s.pooled.iter_mut().zip(row.iter()) {
                    if v > *yv {
                        *yv = v;
                    }
                }
            }
            // FC head, per tree like everything above it.
            s.fc1.copy_from_slice(&self.fc1_b.w);
            s.nz.compact(&s.pooled, c3);
            axpy_nz(&mut s.fc1, &[(s.nz.row(0), &s.wt_fc1)]);
            for v in s.fc1.iter_mut() {
                *v = v.max(0.0);
            }
            s.nz.compact(&s.fc1, s.fc1.len());
            let mut y = [self.fc2_b.w[0]];
            axpy_nz(&mut y, &[(s.nz.row(0), &s.wt_fc2)]);
            out.push(y[0]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::TcnnConfig;
    use crate::train::{train, TrainConfig};
    use crate::tree::TreeBatch;
    use bao_common::{rng_from_seed, Rng};

    /// Random plan-like tree: a complete-ish binary tree of `2 * depth + 1`
    /// nodes with random features (`depth` 0 is a single leaf).
    fn random_tree(dim: usize, depth: usize, rng: &mut impl Rng) -> FeatTree {
        let n = 2 * depth + 1;
        let mut nodes = Vec::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        for i in 0..n {
            // Sparse one-hot-ish rows, like real featurized plans.
            let mut f = vec![0.0f32; dim];
            f[i % dim] = 1.0;
            f[(i * 7 + 3) % dim] = rng.gen_range(0.0f32..2.0);
            nodes.push(f);
            if 2 * i + 2 < n {
                left.push((2 * i + 1) as i32);
                right.push((2 * i + 2) as i32);
            } else {
                left.push(-1);
                right.push(-1);
            }
        }
        FeatTree::new(dim, nodes, left, right)
    }

    /// Trees of 1, 3, 5, .. 19 nodes in rotation.
    fn random_forest(dim: usize, count: usize, seed: u64) -> Vec<FeatTree> {
        let mut rng = rng_from_seed(seed);
        (0..count).map(|i| random_tree(dim, i % 10, &mut rng)).collect()
    }

    /// A net a few Adam steps from initialization. A fresh net's biases
    /// are all 0.0, where accumulation orders that differ in general
    /// happen to coincide — bit-level tests on it prove nothing.
    fn trained_net(dim: usize, seed: u64) -> TreeCnn {
        let trees = random_forest(dim, 40, seed ^ 0x7EA);
        let ys: Vec<f32> = (0..trees.len()).map(|i| (i % 7) as f32 * 0.4 - 1.0).collect();
        let mut net = TreeCnn::new(TcnnConfig::tiny(dim), seed);
        train(&mut net, &trees, &ys, &TrainConfig { max_epochs: 3, ..TrainConfig::default() });
        assert!(
            net.fc1_b.w.iter().any(|&b| b != 0.0) && net.conv[0].bias.w.iter().any(|&b| b != 0.0)
        );
        net
    }

    /// The batched training forward, dropout off: the pass `score` must
    /// equal bit for bit on forests of four or more trees.
    fn tape(net: &TreeCnn, trees: &[&FeatTree]) -> Vec<f32> {
        net.forward_batch(&TreeBatch::pack(trees.iter().copied())).0
    }

    fn assert_same_bits(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}, tree {i}: {x} vs {y}");
        }
    }

    /// The scorer returns the same bits as the batched training forward,
    /// from the smallest forest that pass runs as GEMMs to many queries'
    /// worth, at a plan-sized input and at one wider than 64 features.
    #[test]
    fn scratch_path_is_bitwise_identical_to_tape_path() {
        for dim in [11, 70] {
            let net = trained_net(dim, 42);
            let mut s = ScoreScratch::new();
            for count in [4usize, 7, 49, 130] {
                let trees = random_forest(dim, count, 0xBA0 + count as u64);
                let refs: Vec<&FeatTree> = trees.iter().collect();
                let what = format!("dim {dim}, {count} trees");
                assert_same_bits(&tape(&net, &refs), &net.score(&refs, &mut s), &what);
            }
        }
    }

    /// The contract cross-query coalescing rests on: a tree — a 1-node
    /// leaf as much as a 19-node plan — scores to the same bits alone, in
    /// a forest of two, and inside a 60-tree forest.
    #[test]
    fn forest_composition_never_changes_a_tree() {
        let dim = 9;
        let net = trained_net(dim, 7);
        let trees = random_forest(dim, 60, 99);
        let refs: Vec<&FeatTree> = trees.iter().collect();
        let mut s = ScoreScratch::new();
        let together = net.score(&refs, &mut s);
        for (i, t) in trees.iter().enumerate() {
            let alone = net.score(&[t], &mut s);
            let paired = net.score(&[t, &trees[(i + 1) % trees.len()]], &mut s);
            assert_eq!(together[i].to_bits(), alone[0].to_bits(), "tree {i} alone");
            assert_eq!(together[i].to_bits(), paired[0].to_bits(), "tree {i} in a pair");
        }
    }

    /// Scratch reuse across calls (the serving pattern) stays identical
    /// to the batched training forward, which keeps no state.
    #[test]
    fn scratch_reuse_across_calls_is_clean() {
        let dim = 8;
        let net = trained_net(dim, 3);
        let mut s = ScoreScratch::new();
        for round in 0..4u64 {
            let trees = random_forest(dim, 25 + round as usize * 10, round);
            let refs: Vec<&FeatTree> = trees.iter().collect();
            assert_same_bits(
                &tape(&net, &refs),
                &net.score(&refs, &mut s),
                &format!("round {round}"),
            );
        }
    }

    /// Arm families alias to few distinct plans; the engine must score
    /// the duplicates once, scatter exactly, and stay bit-identical to
    /// the batched training forward scoring every copy.
    #[test]
    fn duplicate_heavy_forest_dedups_and_matches_tape_path() {
        let dim = 10;
        let net = trained_net(dim, 21);
        let base = random_forest(dim, 9, 1234);
        // 63 trees referencing only 9 distinct plans, interleaved the way
        // a coalesced wave of aliasing arm families would be.
        let refs: Vec<&FeatTree> = (0..63).map(|i| &base[(i * 4) % 9]).collect();
        let mut s = ScoreScratch::new();
        let fast = net.score(&refs, &mut s);
        assert_eq!(s.last_requested, 63);
        assert_eq!(s.last_scored, 9, "nine distinct plans must be scored once each");
        assert_same_bits(&tape(&net, &refs), &fast, "dedup");
    }

    /// Dedup has no threshold: a forest that collapses to two distinct
    /// trees is scored as two, each to the bits it gets alone.
    #[test]
    fn two_distinct_trees_are_scored_as_two() {
        let dim = 7;
        let net = trained_net(dim, 13);
        let base = random_forest(dim, 2, 77);
        let refs: Vec<&FeatTree> = (0..12).map(|i| &base[i % 2]).collect();
        let mut s = ScoreScratch::new();
        let fast = net.score(&refs, &mut s);
        assert_eq!((s.last_scored, s.last_requested), (2, 12));
        let alone: Vec<f32> = refs.iter().map(|&t| net.score(&[t], &mut s)[0]).collect();
        assert_same_bits(&alone, &fast, "scatter");
    }
}
