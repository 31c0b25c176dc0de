//! The tree convolutional neural network of paper Figure 5.

use crate::layers::{
    dyn_pool_backward_batch, dyn_pool_forward_batch, layer_norm_backward, layer_norm_forward,
    linear_backward_batch, linear_forward_batch, relu_backward, relu_forward,
    tree_conv_backward_batch_input, tree_conv_backward_batch_params, tree_conv_forward_batch,
    TreeConvParams,
};
use crate::param::{KernelScratch, Param};
use crate::tree::{FeatTree, TreeBatch};
use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::{split_seed, Result, Rng, RngCore};

/// Network shape. `channels` are the three tree-convolution widths and
/// `hidden` the width of the first fully connected layer; the output is a
/// single cost prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcnnConfig {
    pub input_dim: usize,
    pub channels: [usize; 3],
    pub hidden: usize,
    /// Dropout probability applied after each tree-conv block's ReLU
    /// during training. 0.0 (the default and the paper's choice) disables
    /// it; a positive value enables MC-dropout posterior sampling via
    /// [`TreeCnn::predict_sample_batch`] — the alternative Thompson-sampling
    /// mechanism the paper cites (Gal & Ghahramani [24], Riquelme et al.
    /// [68]) but passes over in favour of bootstrapping.
    pub dropout: f32,
}

impl TcnnConfig {
    /// The paper's published widths (Figure 5): 256/128/64 convolutions,
    /// 32-wide hidden layer.
    pub fn paper(input_dim: usize) -> Self {
        TcnnConfig { input_dim, channels: [256, 128, 64], hidden: 32, dropout: 0.0 }
    }

    /// Reduced widths used by default in the experiment harness so full
    /// workload sweeps train in seconds on CPU. The architecture (and its
    /// inductive bias) is identical; only capacity shrinks.
    pub fn small(input_dim: usize) -> Self {
        TcnnConfig { input_dim, channels: [64, 32, 16], hidden: 16, dropout: 0.0 }
    }

    /// An even smaller shape for unit tests and gradient checks.
    pub fn tiny(input_dim: usize) -> Self {
        TcnnConfig { input_dim, channels: [8, 6, 4], hidden: 4, dropout: 0.0 }
    }

    pub fn with_dropout(mut self, p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout must be in [0, 1)");
        self.dropout = p;
        self
    }
}

impl ToJson for TcnnConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("input_dim", self.input_dim.to_json()),
            ("channels", self.channels.to_json()),
            ("hidden", self.hidden.to_json()),
            ("dropout", self.dropout.to_json()),
        ])
    }
}

impl FromJson for TcnnConfig {
    fn from_json(j: &Json) -> Result<TcnnConfig> {
        Ok(TcnnConfig {
            input_dim: json::field(j, "input_dim")?,
            channels: json::field(j, "channels")?,
            hidden: json::field(j, "hidden")?,
            dropout: json::field(j, "dropout")?,
        })
    }
}

/// One layer-norm parameter pair.
#[derive(Debug, Clone)]
pub(crate) struct LnParams {
    pub(crate) gamma: Param,
    pub(crate) beta: Param,
}

impl ToJson for LnParams {
    fn to_json(&self) -> Json {
        Json::obj([("gamma", self.gamma.to_json()), ("beta", self.beta.to_json())])
    }
}

impl FromJson for LnParams {
    fn from_json(j: &Json) -> Result<LnParams> {
        Ok(LnParams { gamma: json::field(j, "gamma")?, beta: json::field(j, "beta")? })
    }
}

/// The TCNN: 3 × (tree conv → layer norm → ReLU) → dynamic max pool →
/// FC → ReLU → FC → scalar.
#[derive(Debug, Clone)]
pub struct TreeCnn {
    pub cfg: TcnnConfig,
    pub(crate) conv: Vec<TreeConvParams>,
    pub(crate) ln: Vec<LnParams>,
    pub(crate) fc1_w: Param,
    pub(crate) fc1_b: Param,
    pub(crate) fc2_w: Param,
    pub(crate) fc2_b: Param,
}

impl ToJson for TreeCnn {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cfg", self.cfg.to_json()),
            ("conv", self.conv.to_json()),
            ("ln", self.ln.to_json()),
            ("fc1_w", self.fc1_w.to_json()),
            ("fc1_b", self.fc1_b.to_json()),
            ("fc2_w", self.fc2_w.to_json()),
            ("fc2_b", self.fc2_b.to_json()),
        ])
    }
}

impl FromJson for TreeCnn {
    fn from_json(j: &Json) -> Result<TreeCnn> {
        Ok(TreeCnn {
            cfg: json::field(j, "cfg")?,
            conv: json::field(j, "conv")?,
            ln: json::field(j, "ln")?,
            fc1_w: json::field(j, "fc1_w")?,
            fc1_b: json::field(j, "fc1_b")?,
            fc2_w: json::field(j, "fc2_w")?,
            fc2_b: json::field(j, "fc2_b")?,
        })
    }
}

/// Inverted dropout in one pass: draws each unit's keep/drop decision and
/// scales `act` in place, writing the mask for backward into `mask`;
/// returns `false` (mask untouched) when dropout is inactive. Draw order
/// and count match the historical build-mask-then-multiply
/// implementation, so seeded dropout streams are unchanged.
fn apply_dropout(
    act: &mut [f32],
    p: f32,
    rng: &mut Option<&mut dyn RngCore>,
    mask: &mut Vec<f32>,
) -> bool {
    let rng = match (rng, p > 0.0) {
        (Some(r), true) => r,
        _ => return false,
    };
    let keep = 1.0 / (1.0 - p);
    mask.resize(act.len(), 0.0);
    for (a, m) in act.iter_mut().zip(mask.iter_mut()) {
        if rng.gen_f32() < p {
            *a = 0.0;
            *m = 0.0;
        } else {
            *m = keep;
            *a *= keep;
        }
    }
    true
}

/// The workspace of one batched training pass over a [`TreeBatch`]: the
/// activations [`TreeCnn::backward_batch`] reads, each spanning the
/// packed batch (`pooled`/`fc1_y` are `n_trees × c` row batches,
/// `pool_arg` holds batch-global node indices), plus every buffer either
/// direction writes. Storage only grows and is never read before
/// the pass that uses it overwrites it, so one workspace serves shard
/// after shard of any size (each trainer slot keeps one) and allocates
/// nothing once it has seen the largest.
#[derive(Debug, Default)]
pub struct BatchTape {
    /// `acts[k]`: the ReLU (and dropout) output of block `k`; block 0's
    /// input is the batch's own features.
    acts: [Vec<f32>; 3],
    ln_xhat: [Vec<f32>; 3],
    ln_inv_std: [Vec<f32>; 3],
    /// Inverted-dropout masks per block, meaningful only when `dropped`.
    drop_masks: [Vec<f32>; 3],
    dropped: bool,
    pool_arg: Vec<usize>,
    pooled: Vec<f32>,
    fc1_y: Vec<f32>,
    /// Per-tree predictions.
    out: Vec<f32>,
    /// Scratch of one direction. Forward: `conv` is a block's pre-norm
    /// convolution output. Backward: `d_ln` and `conv` first carry the FC
    /// head's gradients (`fc1_y`, `pooled`), then `d` and `d_ln` the rows
    /// flowing back through each block.
    conv: Vec<f32>,
    d: Vec<f32>,
    d_ln: Vec<f32>,
    ks: KernelScratch,
}

impl TreeCnn {
    pub fn new(cfg: TcnnConfig, seed: u64) -> TreeCnn {
        let dims = [cfg.input_dim, cfg.channels[0], cfg.channels[1], cfg.channels[2]];
        let conv = (0..3)
            .map(|k| TreeConvParams::new(dims[k], dims[k + 1], split_seed(seed, k as u64)))
            .collect();
        let ln = (0..3)
            .map(|k| LnParams {
                gamma: Param::ones(dims[k + 1], 1),
                beta: Param::zeros(dims[k + 1], 1),
            })
            .collect();
        TreeCnn {
            cfg,
            conv,
            ln,
            fc1_w: Param::he(cfg.hidden, cfg.channels[2], split_seed(seed, 10)),
            fc1_b: Param::zeros(cfg.hidden, 1),
            fc2_w: Param::he(1, cfg.hidden, split_seed(seed, 11)),
            fc2_b: Param::zeros(1, 1),
        }
    }

    // -----------------------------------------------------------------
    // The batched tape: minibatch training and MC-dropout sampling go
    // through these because they need activations or live dropout masks.
    // Plain prediction does not — that is [`TreeCnn::score`] (`infer.rs`).
    // -----------------------------------------------------------------

    /// One stochastic MC-dropout posterior draw for every tree in the
    /// batch: dropout masks stay active at inference (Gal & Ghahramani).
    /// Only meaningful when the network was configured (and trained) with
    /// `dropout > 0`.
    pub fn predict_sample_batch(&self, trees: &[&FeatTree], rng: &mut impl Rng) -> Vec<f32> {
        self.forward_train_batch(&TreeBatch::pack(trees.iter().copied()), rng).0
    }

    /// Training forward pass over a packed batch (dropout active when
    /// configured), returning per-tree predictions and a fresh workspace
    /// holding the batch tape.
    pub fn forward_train_batch(
        &self,
        batch: &TreeBatch,
        rng: &mut impl Rng,
    ) -> (Vec<f32>, BatchTape) {
        self.forward_fresh(batch, Some(rng as &mut dyn RngCore))
    }

    /// Deterministic (no-dropout) forward pass with tape, batched.
    pub fn forward_batch(&self, batch: &TreeBatch) -> (Vec<f32>, BatchTape) {
        self.forward_fresh(batch, None)
    }

    fn forward_fresh(
        &self,
        batch: &TreeBatch,
        rng: Option<&mut dyn RngCore>,
    ) -> (Vec<f32>, BatchTape) {
        let mut tape = BatchTape::default();
        self.forward_batch_into(batch, rng, &mut tape);
        (std::mem::take(&mut tape.out), tape)
    }

    /// The batched forward pass (dropout active when `rng` is given and
    /// the net is configured with it), written into the workspace `t`;
    /// returns the per-tree predictions. The one implementation behind
    /// the allocating entry points above and the trainer's slots.
    pub fn forward_batch_into<'t>(
        &self,
        batch: &TreeBatch,
        mut rng: Option<&mut dyn RngCore>,
        t: &'t mut BatchTape,
    ) -> &'t [f32] {
        let n_trees = batch.n_trees();
        t.out.clear();
        if n_trees == 0 {
            return &t.out;
        }
        debug_assert_eq!(batch.feat_dim, self.cfg.input_dim, "feature dim mismatch");
        let p = self.cfg.dropout;
        let (left, right) = (&batch.left, &batch.right);
        for k in 0..3 {
            let x = if k == 0 { &batch.feats } else { &t.acts[k - 1] };
            tree_conv_forward_batch(&self.conv[k], left, right, x, &mut t.conv, &mut t.ks);
            let (gamma, beta) = (&self.ln[k].gamma, &self.ln[k].beta);
            let outs = [&mut t.acts[k], &mut t.ln_xhat[k], &mut t.ln_inv_std[k]];
            layer_norm_forward(gamma, beta, &t.conv, outs);
            relu_forward(&mut t.acts[k]);
            t.dropped = apply_dropout(&mut t.acts[k], p, &mut rng, &mut t.drop_masks[k]);
        }
        let c3 = self.cfg.channels[2];
        dyn_pool_forward_batch(&t.acts[2], c3, &batch.offsets, &mut t.pooled, &mut t.pool_arg);
        let ks = &mut t.ks;
        linear_forward_batch(&self.fc1_w, &self.fc1_b, &t.pooled, n_trees, &mut t.fc1_y, ks);
        relu_forward(&mut t.fc1_y);
        linear_forward_batch(&self.fc2_w, &self.fc2_b, &t.fc1_y, n_trees, &mut t.out, ks);
        &t.out
    }

    /// Backpropagate per-tree output gradients (`d_outs[t]` =
    /// ∂loss/∂prediction of tree `t`) through the batched forward pass
    /// whose workspace is `t`, accumulating into every parameter (its
    /// gradient scratch lives in `t` too). The finite-difference checks in
    /// this module's tests hold it to the forward pass it differentiates.
    pub fn backward_batch(&mut self, batch: &TreeBatch, t: &mut BatchTape, d_outs: &[f32]) {
        let n_trees = batch.n_trees();
        debug_assert_eq!(d_outs.len(), n_trees);
        if n_trees == 0 {
            return;
        }
        let (ks, d_fc1y, d_pooled) = (&mut t.ks, &mut t.d_ln, &mut t.conv);
        let (fc2_w, fc2_b) = (&mut self.fc2_w, &mut self.fc2_b);
        linear_backward_batch(fc2_w, fc2_b, &t.fc1_y, d_outs, n_trees, d_fc1y, ks);
        relu_backward(&t.fc1_y, d_fc1y);
        let (fc1_w, fc1_b) = (&mut self.fc1_w, &mut self.fc1_b);
        linear_backward_batch(fc1_w, fc1_b, &t.pooled, d_fc1y, n_trees, d_pooled, ks);
        let c3 = self.cfg.channels[2];
        dyn_pool_backward_batch(&t.pool_arg, d_pooled, batch.total_nodes(), c3, &mut t.d);
        let (left, right) = (&batch.left, &batch.right);
        for k in (0..3).rev() {
            // Undo dropout first: surviving units carry the 1/(1-p) scale,
            // dropped units pass no gradient.
            if t.dropped {
                for (dv, m) in t.d.iter_mut().zip(t.drop_masks[k].iter()) {
                    *dv *= m;
                }
            }
            relu_backward(&t.acts[k], &mut t.d);
            let ln = &mut self.ln[k];
            let (xhat, inv_std) = (&t.ln_xhat[k], &t.ln_inv_std[k]);
            layer_norm_backward(&mut ln.gamma, &mut ln.beta, xhat, inv_std, &t.d, &mut t.d_ln);
            let conv = &mut self.conv[k];
            let x = if k == 0 { &batch.feats } else { &t.acts[k - 1] };
            tree_conv_backward_batch_params(conv, left, right, x, &t.d_ln, &mut t.ks);
            // Layer 0's input is the raw plan features: nothing reads a
            // gradient for them, so none is computed.
            if k > 0 {
                tree_conv_backward_batch_input(conv, left, right, &t.d_ln, &mut t.d, &mut t.ks);
            }
        }
    }

    /// Every parameter tensor, in the one fixed order all the visitors
    /// below walk: per conv layer top, left, right, bias; per layer norm
    /// gamma, beta; then the FC head.
    pub(crate) fn params(&self) -> impl Iterator<Item = &Param> {
        let conv = self.conv.iter().flat_map(|c| [&c.top, &c.left, &c.right, &c.bias]);
        let ln = self.ln.iter().flat_map(|l| [&l.gamma, &l.beta]);
        conv.chain(ln).chain([&self.fc1_w, &self.fc1_b, &self.fc2_w, &self.fc2_b])
    }

    /// [`TreeCnn::params`], mutably.
    pub(crate) fn params_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        let conv =
            self.conv.iter_mut().flat_map(|c| [&mut c.top, &mut c.left, &mut c.right, &mut c.bias]);
        let ln = self.ln.iter_mut().flat_map(|l| [&mut l.gamma, &mut l.beta]);
        conv.chain(ln).chain([&mut self.fc1_w, &mut self.fc1_b, &mut self.fc2_w, &mut self.fc2_b])
    }

    /// Visit every parameter tensor of `self` paired with the matching
    /// tensor of `other` (same config required). Shard slots take the
    /// master's weights through it.
    pub(crate) fn for_each_param_pair(
        &mut self,
        other: &TreeCnn,
        mut f: impl FnMut(&mut Param, &Param),
    ) {
        debug_assert_eq!(self.cfg, other.cfg, "config mismatch");
        self.params_mut().zip(other.params()).for_each(|(p, q)| f(p, q));
    }

    /// Visit every parameter tensor (optimizer hook).
    pub fn for_each_param(&mut self, f: impl FnMut(&mut Param)) {
        self.params_mut().for_each(f);
    }

    pub fn zero_grad(&mut self) {
        self.for_each_param(|p| p.zero_grad());
    }

    /// Restore optimizer scratch after deserialization.
    pub fn reset_scratch(&mut self) {
        self.for_each_param(|p| p.reset_scratch());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::infer::ScoreScratch;
    use crate::param::tests::buf;
    use bao_common::rng_from_seed;

    impl BatchTape {
        /// Capacity and data pointer of every buffer of the workspace
        /// (the trainer's allocation guard).
        pub(crate) fn buffers(&self) -> Vec<(usize, usize)> {
            let per_block = [&self.acts, &self.ln_xhat, &self.ln_inv_std, &self.drop_masks];
            let mut out: Vec<(usize, usize)> =
                per_block.iter().flat_map(|b| b.iter().map(buf)).collect();
            out.push(buf(&self.pool_arg));
            for v in [&self.pooled, &self.fc1_y, &self.out, &self.conv, &self.d, &self.d_ln] {
                out.push(buf(v));
            }
            out.extend(self.ks.buffers());
            out
        }
    }

    fn random_tree(rng: &mut impl Rng, dim: usize) -> FeatTree {
        // A fixed 5-node binary shape with random features.
        let nodes: Vec<Vec<f32>> =
            (0..5).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        FeatTree::new(dim, nodes, vec![1, 3, -1, -1, -1], vec![2, 4, -1, -1, -1])
    }

    fn score_one(net: &TreeCnn, tree: &FeatTree) -> f32 {
        net.score(&[tree], &mut ScoreScratch::new())[0]
    }

    #[test]
    fn forward_is_deterministic() {
        let mut rng = rng_from_seed(4);
        let tree = random_tree(&mut rng, 3);
        let net = TreeCnn::new(TcnnConfig::tiny(3), 7);
        assert_eq!(score_one(&net, &tree), score_one(&net, &tree));
        let batch = TreeBatch::pack([&tree]);
        assert_eq!(net.forward_batch(&batch).0, net.forward_batch(&batch).0);
        let other = TreeCnn::new(TcnnConfig::tiny(3), 8);
        assert_ne!(score_one(&net, &tree), score_one(&other, &tree));
    }

    #[test]
    fn param_count_matches_config() {
        let mut net = TreeCnn::new(
            TcnnConfig { input_dim: 3, channels: [4, 4, 4], hidden: 2, dropout: 0.0 },
            1,
        );
        // conv1: 3*(4*3)+4; conv2,3: 3*(4*4)+4 each; ln: 3*(4+4);
        // fc1: 2*4+2; fc2: 1*2+1
        let expected = (3 * 12 + 4) + 2 * (3 * 16 + 4) + 24 + 10 + 3;
        let mut n_params = 0;
        net.for_each_param(|p| n_params += p.len());
        assert_eq!(n_params, expected);
    }

    /// Loss `Σ (pred - y)²` of one batched forward pass over `batch`:
    /// deterministic without `drop_seed`, else through the dropout masks
    /// that seed draws (the same masks on every call).
    fn batch_loss(
        net: &TreeCnn,
        batch: &TreeBatch,
        ys: &[f32],
        drop_seed: Option<u64>,
    ) -> (f64, Vec<f32>, BatchTape) {
        let (preds, tape) = match drop_seed {
            Some(seed) => net.forward_train_batch(batch, &mut rng_from_seed(seed)),
            None => net.forward_batch(batch),
        };
        let errs: Vec<f32> = preds.iter().zip(ys).map(|(p, y)| p - y).collect();
        let loss = errs.iter().map(|&e| f64::from(e * e)).sum();
        (loss, errs.iter().map(|e| 2.0 * e).collect(), tape)
    }

    /// Finite-difference check of `backward_batch` over the whole network:
    /// the analytic gradient of `Σ (pred - y)²` over `trees`, packed as one
    /// batch, against central differences on every `stride`-th weight.
    /// ReLU kinks and pool-argmax switches make a few differences
    /// unreliable (more of them the more trees share the loss), so at most
    /// one in ten checked weights may disagree by 8 % or more.
    fn assert_gradient_matches_finite_differences(
        mut net: TreeCnn,
        trees: &[FeatTree],
        drop_seed: Option<u64>,
        stride: usize,
    ) {
        let what = format!("{} trees, drop seed {drop_seed:?}", trees.len());
        let batch = TreeBatch::pack(trees.iter());
        let ys: Vec<f32> = (0..trees.len()).map(|t| 0.7 - 0.3 * t as f32).collect();
        net.zero_grad();
        let (_, d_outs, mut tape) = batch_loss(&net, &batch, &ys, drop_seed);
        assert!(d_outs.iter().all(|d| d.is_finite()), "{what}");
        net.backward_batch(&batch, &mut tape, &d_outs);
        let analytic: Vec<f32> = net.params().flat_map(|p| p.g.iter().copied()).collect();

        let eps = 3e-3f32;
        let loss_at = |probe: usize, delta: f32| {
            let mut q = net.clone();
            if let Some(w) = q.params_mut().flat_map(|p| p.w.iter_mut()).nth(probe) {
                *w += delta;
            }
            batch_loss(&q, &batch, &ys, drop_seed).0
        };
        let (mut checked, mut outliers) = (0, 0);
        for probe in (0..analytic.len()).step_by(stride) {
            let numeric =
                ((loss_at(probe, eps) - loss_at(probe, -eps)) / (2.0 * f64::from(eps))) as f32;
            let a = analytic[probe];
            if a.abs() < 1e-4 && numeric.abs() < 1e-4 {
                continue;
            }
            checked += 1;
            if (a - numeric).abs() / a.abs().max(numeric.abs()).max(1e-4) >= 0.08 {
                outliers += 1;
            }
        }
        assert!(checked > 10, "{what}: too few weights checked ({checked})");
        assert!(outliers * 10 <= checked, "{what}: gradient mismatches {outliers}/{checked}");
    }

    /// The gradient the trainer steps on, held to calculus: one tree (the
    /// FC head takes `matmul_add`'s small-batch branch) and six (every
    /// GEMM of the pass clears `MATMUL_MIN_BATCH`). The single most
    /// important test of the NN substrate.
    #[test]
    fn gradient_check() {
        let mut rng = rng_from_seed(12);
        let one = [random_tree(&mut rng, 3)];
        assert_gradient_matches_finite_differences(
            TreeCnn::new(TcnnConfig::tiny(3), 21),
            &one,
            None,
            7,
        );
        let zoo = tree_zoo(&mut rng, 3);
        assert!(zoo.len() >= Param::MATMUL_MIN_BATCH);
        assert!(zoo.iter().map(FeatTree::n_nodes).sum::<usize>() >= Param::MATMUL_MIN_BATCH);
        assert_gradient_matches_finite_differences(
            TreeCnn::new(TcnnConfig::tiny(3), 21),
            &zoo,
            None,
            7,
        );
    }

    /// [`gradient_check`] through live dropout masks, fixed by reusing one
    /// seed for the analytic pass and every finite-difference evaluation.
    #[test]
    fn dropout_gradient_check() {
        let mut rng = rng_from_seed(13);
        let one = [random_tree(&mut rng, 3)];
        let net = TreeCnn::new(TcnnConfig::tiny(3).with_dropout(0.15), 34);
        let pred = net.forward_train_batch(&TreeBatch::pack(one.iter()), &mut rng_from_seed(78)).0;
        assert!(pred[0].abs() > 1e-5, "degenerate (dead) forward pass; pick another seed");
        assert_gradient_matches_finite_differences(net.clone(), &one, Some(78), 11);
        let zoo = tree_zoo(&mut rng, 3);
        assert_gradient_matches_finite_differences(net, &zoo, Some(78), 11);
    }

    #[test]
    fn serde_round_trip() {
        let net = TreeCnn::new(TcnnConfig::tiny(3), 5);
        let text = net.to_json().to_string();
        let mut restored = TreeCnn::from_json(&bao_common::json::parse(&text).unwrap()).unwrap();
        restored.reset_scratch();
        let mut rng = rng_from_seed(1);
        let tree = random_tree(&mut rng, 3);
        assert_eq!(score_one(&net, &tree).to_bits(), score_one(&restored, &tree).to_bits());
    }

    #[test]
    fn dropout_inference_is_deterministic_but_samples_vary() {
        let mut rng = rng_from_seed(6);
        let tree = random_tree(&mut rng, 3);
        let net = TreeCnn::new(TcnnConfig::tiny(3).with_dropout(0.3), 9);
        // the deterministic forward never applies dropout
        let batch = TreeBatch::pack([&tree]);
        assert_eq!(net.forward_batch(&batch).0, net.forward_batch(&batch).0);
        // MC samples differ across draws (posterior sampling)...
        let s1 = net.predict_sample_batch(&[&tree], &mut rng_from_seed(1));
        let s2 = net.predict_sample_batch(&[&tree], &mut rng_from_seed(2));
        assert_ne!(s1, s2);
        // ...but are reproducible per seed
        assert_eq!(s1, net.predict_sample_batch(&[&tree], &mut rng_from_seed(1)));
        // zero dropout: sampling equals deterministic prediction
        let plain = TreeCnn::new(TcnnConfig::tiny(3), 9);
        let sample = plain.predict_sample_batch(&[&tree], &mut rng_from_seed(3));
        assert_eq!(plain.forward_batch(&batch).0, sample);
    }

    #[test]
    fn handles_single_node_tree() {
        let net = TreeCnn::new(TcnnConfig::tiny(2), 3);
        let tree = FeatTree::leaf(vec![0.5, -0.5]);
        assert!(net.forward_batch(&TreeBatch::pack([&tree])).0[0].is_finite());
        assert!(score_one(&net, &tree).is_finite());
    }

    /// A varied set of trees (different shapes and sizes) for batch tests.
    fn tree_zoo(rng: &mut impl Rng, dim: usize) -> Vec<FeatTree> {
        let mut out = vec![FeatTree::leaf((0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())];
        for _ in 0..4 {
            out.push(random_tree(rng, dim));
        }
        let nodes: Vec<Vec<f32>> =
            (0..3).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        out.push(FeatTree::new(dim, nodes, vec![1, -1, -1], vec![2, -1, -1]));
        out
    }

    /// Scoring a packed forest agrees with one-tree batched forwards,
    /// which take `matmul_add`'s small-batch branch in the FC head (and in
    /// the convolutions of trees under `MATMUL_MIN_BATCH` nodes): the two
    /// branches round apart by ~1e-6 relative, never more.
    #[test]
    fn predict_batch_matches_per_tree() {
        let mut rng = rng_from_seed(19);
        let trees = tree_zoo(&mut rng, 3);
        let net = TreeCnn::new(TcnnConfig::tiny(3), 7);
        let refs: Vec<&FeatTree> = trees.iter().collect();
        let mut scratch = ScoreScratch::new();
        let batch_preds = net.score(&refs, &mut scratch);
        assert_eq!(batch_preds.len(), trees.len());
        for (t, &bp) in trees.iter().zip(batch_preds.iter()) {
            let sp = net.forward_batch(&TreeBatch::pack([t])).0[0];
            assert!((bp - sp).abs() <= 1e-5 * sp.abs().max(1.0), "{bp} vs {sp}");
        }
        assert!(net.score(&[], &mut scratch).is_empty());
    }

    /// A packed batch's gradient is the sum of its trees' gradients, each
    /// tree run as a batch of its own: nothing leaks between trees through
    /// the rebased child indices or the per-tree pooling.
    #[test]
    fn backward_batch_matches_summed_per_tree() {
        let mut rng = rng_from_seed(23);
        let trees = tree_zoo(&mut rng, 3);
        let d_outs: Vec<f32> = (0..trees.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let mut a = TreeCnn::new(TcnnConfig::tiny(3), 77);
        a.zero_grad();
        for (t, &d) in trees.iter().zip(d_outs.iter()) {
            let batch = TreeBatch::pack([t]);
            let (_, mut tape) = a.forward_batch(&batch);
            a.backward_batch(&batch, &mut tape, &[d]);
        }
        let ref_grads: Vec<f32> = a.params().flat_map(|p| p.g.iter().copied()).collect();

        let mut b = TreeCnn::new(TcnnConfig::tiny(3), 77);
        b.zero_grad();
        let batch = TreeBatch::pack(trees.iter());
        let (_, mut tape) = b.forward_batch(&batch);
        b.backward_batch(&batch, &mut tape, &d_outs);
        let batch_grads: Vec<f32> = b.params().flat_map(|p| p.g.iter().copied()).collect();

        assert_eq!(ref_grads.len(), batch_grads.len());
        for (i, (r, g)) in ref_grads.iter().zip(batch_grads.iter()).enumerate() {
            assert!(
                (r - g).abs() <= 1e-4 * r.abs().max(g.abs()).max(1e-2),
                "grad [{i}]: {r} vs {g}"
            );
        }
    }

    #[test]
    fn sample_batch_is_seeded_and_varies() {
        let mut rng = rng_from_seed(31);
        let trees = tree_zoo(&mut rng, 3);
        let refs: Vec<&FeatTree> = trees.iter().collect();
        let net = TreeCnn::new(TcnnConfig::tiny(3).with_dropout(0.3), 9);
        let s1 = net.predict_sample_batch(&refs, &mut rng_from_seed(1));
        let s2 = net.predict_sample_batch(&refs, &mut rng_from_seed(2));
        assert_ne!(s1, s2);
        assert_eq!(s1, net.predict_sample_batch(&refs, &mut rng_from_seed(1)));
        // no dropout: sampling equals the deterministic batch prediction
        let plain = TreeCnn::new(TcnnConfig::tiny(3), 9);
        assert_eq!(
            plain.forward_batch(&TreeBatch::pack(refs.iter().copied())).0,
            plain.predict_sample_batch(&refs, &mut rng_from_seed(3))
        );
    }

    /// A tree of `2 * depth + 1` nodes with random features (a one-node
    /// leaf at depth 0).
    pub(crate) fn sized_tree(rng: &mut impl Rng, dim: usize, depth: usize) -> FeatTree {
        let n = 2 * depth + 1;
        let nodes = (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let child = |off: usize| -> Vec<i32> {
            (0..n).map(|i| if 2 * i + 2 < n { (2 * i + off) as i32 } else { -1 }).collect()
        };
        FeatTree::new(dim, nodes, child(1), child(2))
    }

    fn grad_bits(net: &mut TreeCnn) -> Vec<u32> {
        let mut out = Vec::new();
        net.for_each_param(|p| out.extend(p.g.iter().map(|g| g.to_bits())));
        out
    }

    /// One workspace driven through shards of 1–16 trees in a random
    /// size order — a 16-tree shard right before a one-leaf shard,
    /// shards under `MATMUL_MIN_BATCH` node rows, one-node trees — must
    /// give, pass after pass, the bits of a fresh `forward_train_batch`
    /// and `backward_batch`: predictions, loss and every parameter
    /// gradient. A smaller shard reading a stale row a larger one left
    /// behind fails here. On trained nets, with and without dropout.
    #[test]
    fn one_workspace_matches_fresh_passes_bit_for_bit() {
        let dim = 5;
        let mut rng = rng_from_seed(44);
        let pool: Vec<FeatTree> = (0..48).map(|i| sized_tree(&mut rng, dim, i % 6)).collect();
        let leaves: Vec<&FeatTree> = pool.iter().filter(|t| t.n_nodes() == 1).collect();
        let ys: Vec<f32> = (0..pool.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        for dropout in [0.0, 0.2] {
            let mut net = TreeCnn::new(TcnnConfig::tiny(dim).with_dropout(dropout), 3);
            let cfg = crate::train::TrainConfig { max_epochs: 3, ..Default::default() };
            crate::train::train(&mut net, &pool, &ys, &cfg);
            // Forced shapes first, then random sizes in random order.
            let mut shards: Vec<Vec<usize>> =
                vec![(0..16).collect(), vec![0], (16..28).collect(), vec![6, 12, 18], vec![1]];
            for _ in 0..30 {
                let k = rng.gen_range(1..=16usize);
                shards.push((0..k).map(|_| rng.gen_range(0..pool.len())).collect());
            }
            assert!(leaves.len() >= 3 && [0, 6, 12, 18].iter().all(|&i| pool[i].n_nodes() == 1));
            let (mut ws_net, mut ws_batch, mut ws_tape) =
                (net.clone(), TreeBatch::pack([]), BatchTape::default());
            for (pass, idxs) in shards.iter().enumerate() {
                let what = format!("dropout {dropout}, pass {pass}, {} trees", idxs.len());
                let seed = 900 + pass as u64;
                let loss_and_grad = |preds: &[f32]| {
                    let errs = idxs.iter().zip(preds).map(|(&i, &p)| p - ys[i]);
                    let loss: f64 = errs.clone().map(|e| (e * e) as f64).sum();
                    (loss, errs.map(|e| 2.0 * e / idxs.len() as f32).collect::<Vec<f32>>())
                };

                let mut fresh = net.clone();
                fresh.zero_grad();
                let batch = TreeBatch::pack(idxs.iter().map(|&i| &pool[i]));
                let (preds, mut tape) = fresh.forward_train_batch(&batch, &mut rng_from_seed(seed));
                let (loss, d_outs) = loss_and_grad(&preds);
                fresh.backward_batch(&batch, &mut tape, &d_outs);

                ws_net.zero_grad();
                ws_batch.repack(idxs.iter().map(|&i| &pool[i]));
                let mut ws_rng = rng_from_seed(seed);
                let ws_preds =
                    ws_net.forward_batch_into(&ws_batch, Some(&mut ws_rng), &mut ws_tape).to_vec();
                let (ws_loss, ws_d_outs) = loss_and_grad(&ws_preds);
                ws_net.backward_batch(&ws_batch, &mut ws_tape, &ws_d_outs);

                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&preds), bits(&ws_preds), "predictions, {what}");
                assert_eq!(loss.to_bits(), ws_loss.to_bits(), "loss, {what}");
                assert_eq!(grad_bits(&mut fresh), grad_bits(&mut ws_net), "gradients, {what}");
            }
        }
    }

    /// `params` and `params_mut` spell the tensor order twice; they must
    /// agree, since the trainer pairs them tensor by tensor.
    #[test]
    fn params_and_params_mut_walk_one_order() {
        let mut net = TreeCnn::new(TcnnConfig::tiny(3), 1);
        for (i, p) in net.params_mut().enumerate() {
            p.w.fill(i as f32);
        }
        assert_eq!(net.params().count(), 3 * 4 + 3 * 2 + 4);
        for (i, p) in net.params().enumerate() {
            assert!(p.w.iter().all(|&w| w == i as f32), "tensor {i}");
        }
    }

    #[test]
    fn for_each_param_pair_walks_in_lockstep() {
        let mut a = TreeCnn::new(TcnnConfig::tiny(3), 1);
        let b = TreeCnn::new(TcnnConfig::tiny(3), 1);
        let mut pairs = 0usize;
        a.for_each_param_pair(&b, |p, q| {
            assert_eq!(p.len(), q.len());
            assert_eq!(p.w, q.w); // same seed -> same tensors, in order
            pairs += 1;
        });
        assert_eq!(pairs, 3 * 4 + 3 * 2 + 4);
    }
}
