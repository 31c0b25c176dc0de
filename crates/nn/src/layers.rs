//! Layer forward/backward kernels.
//!
//! All kernels operate on node-major activation buffers (`n_nodes × c`)
//! and are written as free functions so the network's tape (in `net.rs`)
//! owns every cached activation explicitly — no hidden state, which makes
//! the finite-difference gradient check in `net.rs` meaningful.
//!
//! Two sets coexist (scoring has its own fused kernels in `infer.rs`):
//!
//! * the per-node kernels (`tree_conv_forward`, `linear_forward`, ...) —
//!   the scalar reference, kept for the finite-difference gradient
//!   checks and as what the tests compare the other passes against;
//! * `*_batch` kernels — the training path. They run over a packed
//!   multi-tree buffer ([`crate::tree::TreeBatch`]) and route every dense
//!   product through the kernels in `param.rs` (`axpy_nz` over rows
//!   compacted once per layer, `Param::matmul_add` and friends), which
//!   read child rows through the child index, so no gathered copy of a
//!   layer's input is ever made.
//!
//! Batched results match the reference within float-reassociation noise
//! (~1e-6 relative), not bit-for-bit: the GEMM's transposed axpy order
//! accumulates differently from a per-row dot product.

use crate::param::{axpy_nz, Param, RowNz};
use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::Result;

/// Parameters of one tree-convolution layer: a triangle filter with
/// separate weights for the node, its left child, and its right child.
#[derive(Debug, Clone)]
pub struct TreeConvParams {
    pub top: Param,
    pub left: Param,
    pub right: Param,
    pub bias: Param,
}

impl ToJson for TreeConvParams {
    fn to_json(&self) -> Json {
        Json::obj([
            ("top", self.top.to_json()),
            ("left", self.left.to_json()),
            ("right", self.right.to_json()),
            ("bias", self.bias.to_json()),
        ])
    }
}

impl FromJson for TreeConvParams {
    fn from_json(j: &Json) -> Result<TreeConvParams> {
        Ok(TreeConvParams {
            top: json::field(j, "top")?,
            left: json::field(j, "left")?,
            right: json::field(j, "right")?,
            bias: json::field(j, "bias")?,
        })
    }
}

impl TreeConvParams {
    pub fn new(in_c: usize, out_c: usize, seed: u64) -> Self {
        TreeConvParams {
            top: Param::he(out_c, in_c, seed),
            left: Param::he(out_c, in_c, seed.wrapping_add(1)),
            right: Param::he(out_c, in_c, seed.wrapping_add(2)),
            bias: Param::zeros(out_c, 1),
        }
    }

    pub fn out_c(&self) -> usize {
        self.top.rows
    }

    pub fn in_c(&self) -> usize {
        self.top.cols
    }
}

/// Tree convolution: `y[i] = W_top x[i] + W_left x[l(i)] + W_right x[r(i)]
/// + b`, with missing children contributing zero.
pub fn tree_conv_forward(
    p: &TreeConvParams,
    left: &[i32],
    right: &[i32],
    x: &[f32],
) -> Vec<f32> {
    let (in_c, out_c) = (p.in_c(), p.out_c());
    let n = left.len();
    debug_assert_eq!(x.len(), n * in_c);
    let mut y = vec![0.0f32; n * out_c];
    for i in 0..n {
        let yi = &mut y[i * out_c..(i + 1) * out_c];
        for (o, b) in yi.iter_mut().zip(p.bias.w.iter()) {
            *o = *b;
        }
        p.top.matvec_add(&x[i * in_c..(i + 1) * in_c], yi);
        if left[i] >= 0 {
            let l = left[i] as usize;
            p.left.matvec_add(&x[l * in_c..(l + 1) * in_c], yi);
        }
        if right[i] >= 0 {
            let r = right[i] as usize;
            p.right.matvec_add(&x[r * in_c..(r + 1) * in_c], yi);
        }
    }
    y
}

/// Backward pass of [`tree_conv_forward`]; accumulates parameter
/// gradients and returns `dx`.
pub fn tree_conv_backward(
    p: &mut TreeConvParams,
    left: &[i32],
    right: &[i32],
    x: &[f32],
    dy: &[f32],
) -> Vec<f32> {
    let (in_c, out_c) = (p.in_c(), p.out_c());
    let n = left.len();
    let mut dx = vec![0.0f32; n * in_c];
    for i in 0..n {
        let dyi = &dy[i * out_c..(i + 1) * out_c];
        for (bg, &d) in p.bias.g.iter_mut().zip(dyi.iter()) {
            *bg += d;
        }
        let xi = &x[i * in_c..(i + 1) * in_c];
        p.top.grad_outer_add(dyi, xi);
        p.top.matvec_t_add(dyi, &mut dx[i * in_c..(i + 1) * in_c]);
        if left[i] >= 0 {
            let l = left[i] as usize;
            p.left.grad_outer_add(dyi, &x[l * in_c..(l + 1) * in_c]);
            p.left.matvec_t_add(dyi, &mut dx[l * in_c..(l + 1) * in_c]);
        }
        if right[i] >= 0 {
            let r = right[i] as usize;
            p.right.grad_outer_add(dyi, &x[r * in_c..(r + 1) * in_c]);
            p.right.matvec_t_add(dyi, &mut dx[r * in_c..(r + 1) * in_c]);
        }
    }
    dx
}

/// ReLU, out of place (the output doubles as the backward mask).
pub fn relu_forward(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| v.max(0.0)).collect()
}

/// ReLU backward: zero the gradient where the output was clamped.
pub fn relu_backward(y: &[f32], dy: &[f32]) -> Vec<f32> {
    y.iter().zip(dy.iter()).map(|(&yv, &d)| if yv > 0.0 { d } else { 0.0 }).collect()
}

pub(crate) const LN_EPS: f32 = 1e-5;

/// Per-node layer normalization over channels. Returns `(y, xhat,
/// inv_std)`; the latter two are backward caches.
pub fn layer_norm_forward(
    gamma: &Param,
    beta: &Param,
    x: &[f32],
    c: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let n = x.len() / c;
    let mut y = vec![0.0f32; x.len()];
    let mut xhat = vec![0.0f32; x.len()];
    let mut inv_std = vec![0.0f32; n];
    for i in 0..n {
        let xi = &x[i * c..(i + 1) * c];
        let mean = xi.iter().sum::<f32>() / c as f32;
        let var = xi.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / c as f32;
        let istd = 1.0 / (var + LN_EPS).sqrt();
        inv_std[i] = istd;
        for j in 0..c {
            let h = (xi[j] - mean) * istd;
            xhat[i * c + j] = h;
            y[i * c + j] = gamma.w[j] * h + beta.w[j];
        }
    }
    (y, xhat, inv_std)
}

/// Layer-norm backward; accumulates `gamma`/`beta` gradients and returns
/// `dx`.
pub fn layer_norm_backward(
    gamma: &mut Param,
    beta: &mut Param,
    xhat: &[f32],
    inv_std: &[f32],
    dy: &[f32],
    c: usize,
) -> Vec<f32> {
    let n = xhat.len() / c;
    let mut dx = vec![0.0f32; xhat.len()];
    for i in 0..n {
        let h = &xhat[i * c..(i + 1) * c];
        let d = &dy[i * c..(i + 1) * c];
        let mut sum_dxhat = 0.0f32;
        let mut sum_dxhat_h = 0.0f32;
        for j in 0..c {
            let dxh = d[j] * gamma.w[j];
            sum_dxhat += dxh;
            sum_dxhat_h += dxh * h[j];
            gamma.g[j] += d[j] * h[j];
            beta.g[j] += d[j];
        }
        let istd = inv_std[i];
        let cf = c as f32;
        for j in 0..c {
            let dxh = d[j] * gamma.w[j];
            dx[i * c + j] = istd * (dxh - sum_dxhat / cf - h[j] * sum_dxhat_h / cf);
        }
    }
    dx
}

/// Dynamic max pooling: per-channel max over all nodes. Returns the
/// pooled vector and the winning node per channel.
pub fn dyn_pool_forward(x: &[f32], c: usize) -> (Vec<f32>, Vec<usize>) {
    let n = x.len() / c;
    debug_assert!(n >= 1);
    let mut y = vec![f32::NEG_INFINITY; c];
    let mut arg = vec![0usize; c];
    for i in 0..n {
        for j in 0..c {
            let v = x[i * c + j];
            if v > y[j] {
                y[j] = v;
                arg[j] = i;
            }
        }
    }
    (y, arg)
}

/// Scatter pooled gradients back to the winning nodes.
pub fn dyn_pool_backward(arg: &[usize], dy: &[f32], n: usize, c: usize) -> Vec<f32> {
    let mut dx = vec![0.0f32; n * c];
    for j in 0..c {
        dx[arg[j] * c + j] += dy[j];
    }
    dx
}

/// Fully connected layer on a single vector.
pub fn linear_forward(w: &Param, b: &Param, x: &[f32]) -> Vec<f32> {
    let mut y = b.w.clone();
    w.matvec_add(x, &mut y);
    y
}

/// Backward of [`linear_forward`].
pub fn linear_backward(w: &mut Param, b: &mut Param, x: &[f32], dy: &[f32]) -> Vec<f32> {
    for (bg, &d) in b.g.iter_mut().zip(dy.iter()) {
        *bg += d;
    }
    w.grad_outer_add(dy, x);
    let mut dx = vec![0.0f32; w.cols];
    w.matvec_t_add(dy, &mut dx);
    dx
}

// ---------------------------------------------------------------------------
// Batched kernels (packed multi-tree buffers; see crate::tree::TreeBatch).
//
// ReLU and layer norm are per-node, so `relu_forward` and
// `layer_norm_forward` above already run unchanged on a packed batch; only
// the kernels that touch tree structure (convolution gathers, pooling) or
// benefit from GEMM (convolution, FC) need batch variants.
// ---------------------------------------------------------------------------

/// Batched [`tree_conv_forward`]: child indices may span a packed
/// multi-tree batch (rebased, so trees never alias). The layer input is
/// compacted once ([`RowNz`]) and each node row then runs one
/// [`axpy_nz`] over its three terms (self, left child, right child, read
/// through the child index, so no gathered copy of `x` is materialized)
/// against weights transposed once per call. Below
/// [`Param::MATMUL_MIN_BATCH`] node rows it takes the per-node
/// `matvec_add` branch of [`Param::matmul_add`] instead.
pub fn tree_conv_forward_batch(
    p: &TreeConvParams,
    left: &[i32],
    right: &[i32],
    x: &[f32],
) -> Vec<f32> {
    let (in_c, out_c) = (p.in_c(), p.out_c());
    let n = left.len();
    debug_assert_eq!(x.len(), n * in_c);
    let mut y = vec![0.0f32; n * out_c];
    for yi in y.chunks_exact_mut(out_c) {
        yi.copy_from_slice(&p.bias.w);
    }
    if n < Param::MATMUL_MIN_BATCH {
        let row = |j: usize| &x[j * in_c..(j + 1) * in_c];
        for (i, yi) in y.chunks_exact_mut(out_c).enumerate() {
            p.top.matvec_add(row(i), yi);
            for (w, child) in [(&p.left, left[i]), (&p.right, right[i])] {
                if child >= 0 {
                    w.matvec_add(row(child as usize), yi);
                }
            }
        }
        return y;
    }
    let [wt_top, wt_left, wt_right] = [&p.top, &p.left, &p.right].map(|w| {
        let mut wt = Vec::new();
        w.transpose_into(&mut wt);
        wt
    });
    let xnz = RowNz::of(x, in_c);
    for (i, yi) in y.chunks_exact_mut(out_c).enumerate() {
        axpy_nz(
            yi,
            &[
                (xnz.row(i), &wt_top),
                (xnz.child(left[i]), &wt_left),
                (xnz.child(right[i]), &wt_right),
            ],
        );
    }
    y
}

/// Parameter half of the backward of [`tree_conv_forward_batch`]:
/// accumulates the bias and the three weight gradients through the
/// batched outer-product GEMM. The child terms read their input rows
/// through the child index ([`Param::grad_outer_gather_add`]), so no
/// gathered copy of `x` is materialized and missing children cost
/// nothing.
pub fn tree_conv_backward_batch_params(
    p: &mut TreeConvParams,
    left: &[i32],
    right: &[i32],
    x: &[f32],
    dy: &[f32],
) {
    let out_c = p.out_c();
    let n = left.len();
    for dyi in dy.chunks_exact(out_c) {
        for (bg, &d) in p.bias.g.iter_mut().zip(dyi.iter()) {
            *bg += d;
        }
    }
    p.top.grad_outer_batch_add(dy, x, n);
    p.left.grad_outer_gather_add(dy, x, left);
    p.right.grad_outer_gather_add(dy, x, right);
}

/// Input half of the backward of [`tree_conv_forward_batch`]: returns
/// `dx`. The first layer of a network has no use for it — its input is
/// the raw plan features — and skips this call. `dy` is compacted once;
/// the self term runs per node and the child terms scatter-add into
/// their (data-dependent) child rows, self then left then right, each
/// row through [`axpy_nz`] against `W` itself.
pub fn tree_conv_backward_batch_input(
    p: &TreeConvParams,
    left: &[i32],
    right: &[i32],
    dy: &[f32],
) -> Vec<f32> {
    let (in_c, out_c) = (p.in_c(), p.out_c());
    let n = left.len();
    let mut dx = vec![0.0f32; n * in_c];
    let dynz = RowNz::of(dy, out_c);
    for (i, dxi) in dx.chunks_exact_mut(in_c).enumerate() {
        axpy_nz(dxi, &[(dynz.row(i), &p.top.w)]);
    }
    for (w, child) in [(&p.left, left), (&p.right, right)] {
        for (i, &c) in child.iter().enumerate() {
            if c >= 0 {
                let c = c as usize;
                axpy_nz(&mut dx[c * in_c..(c + 1) * in_c], &[(dynz.row(i), &w.w)]);
            }
        }
    }
    dx
}

/// Per-tree dynamic max pooling over a packed batch: tree `t` pools its
/// `offsets[t]..offsets[t+1]` node rows. Returns `n_trees × c` pooled
/// activations and the winning *batch-global* node per (tree, channel).
pub fn dyn_pool_forward_batch(
    x: &[f32],
    c: usize,
    offsets: &[usize],
) -> (Vec<f32>, Vec<usize>) {
    let n_trees = offsets.len() - 1;
    let mut y = vec![f32::NEG_INFINITY; n_trees * c];
    let mut arg = vec![0usize; n_trees * c];
    for t in 0..n_trees {
        debug_assert!(offsets[t] < offsets[t + 1], "empty tree in batch");
        for i in offsets[t]..offsets[t + 1] {
            for j in 0..c {
                let v = x[i * c + j];
                if v > y[t * c + j] {
                    y[t * c + j] = v;
                    arg[t * c + j] = i;
                }
            }
        }
    }
    (y, arg)
}

/// Scatter pooled gradients back to the winning nodes of every tree.
pub fn dyn_pool_backward_batch(
    arg: &[usize],
    dy: &[f32],
    total_nodes: usize,
    c: usize,
) -> Vec<f32> {
    let mut dx = vec![0.0f32; total_nodes * c];
    for (slot, (&i, &d)) in arg.iter().zip(dy.iter()).enumerate() {
        dx[i * c + slot % c] += d;
    }
    dx
}

/// Fully connected layer over a row batch (`n × in` → `n × out`).
pub fn linear_forward_batch(w: &Param, b: &Param, x: &[f32], n: usize) -> Vec<f32> {
    let mut y = vec![0.0f32; n * w.rows];
    for yi in y.chunks_exact_mut(w.rows) {
        yi.copy_from_slice(&b.w);
    }
    w.matmul_add(x, &mut y, n);
    y
}

/// Backward of [`linear_forward_batch`].
pub fn linear_backward_batch(
    w: &mut Param,
    b: &mut Param,
    x: &[f32],
    dy: &[f32],
    n: usize,
) -> Vec<f32> {
    for dyi in dy.chunks_exact(w.rows) {
        for (bg, &d) in b.g.iter_mut().zip(dyi.iter()) {
            *bg += d;
        }
    }
    w.grad_outer_batch_add(dy, x, n);
    let mut dx = vec![0.0f32; n * w.cols];
    w.matmul_t_add(dy, &mut dx, n);
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_masks() {
        let y = relu_forward(&[-1.0, 0.0, 2.0]);
        assert_eq!(y, vec![0.0, 0.0, 2.0]);
        let dx = relu_backward(&y, &[5.0, 5.0, 5.0]);
        assert_eq!(dx, vec![0.0, 0.0, 5.0]);
    }

    #[test]
    fn pool_and_scatter() {
        // two nodes, three channels
        let x = vec![1.0, 9.0, 3.0, 4.0, 2.0, 8.0];
        let (y, arg) = dyn_pool_forward(&x, 3);
        assert_eq!(y, vec![4.0, 9.0, 8.0]);
        assert_eq!(arg, vec![1, 0, 1]);
        let dx = dyn_pool_backward(&arg, &[0.1, 0.2, 0.3], 2, 3);
        assert_eq!(dx, vec![0.0, 0.2, 0.0, 0.1, 0.0, 0.3]);
    }

    #[test]
    fn layer_norm_normalizes() {
        let gamma = Param::ones(3, 1);
        let beta = Param::zeros(3, 1);
        let (y, _, _) = layer_norm_forward(&gamma, &beta, &[1.0, 2.0, 3.0], 3);
        let mean: f32 = y.iter().sum::<f32>() / 3.0;
        assert!(mean.abs() < 1e-5);
        let var: f32 = y.iter().map(|v| v * v).sum::<f32>() / 3.0;
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn tree_conv_sums_children() {
        // identity-ish weights: out = top*x + left*xl + right*xr
        let mut p = TreeConvParams::new(1, 1, 3);
        p.top = Param::from_weights(1, 1, vec![1.0]);
        p.left = Param::from_weights(1, 1, vec![10.0]);
        p.right = Param::from_weights(1, 1, vec![100.0]);
        p.bias = Param::zeros(1, 1);
        let left = vec![1, -1, -1];
        let right = vec![2, -1, -1];
        let x = vec![1.0, 2.0, 3.0];
        let y = tree_conv_forward(&p, &left, &right, &x);
        assert_eq!(y, vec![1.0 + 20.0 + 300.0, 2.0, 3.0]);
    }

    #[test]
    fn linear_known_values() {
        let w = Param::from_weights(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        let b = Param::from_weights(2, 1, vec![0.5, -0.5]);
        let y = linear_forward(&w, &b, &[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![1.5, 4.5]);
    }

    use bao_common::{rng_from_seed, Rng};

    /// A packed two-tree batch (5 + 3 nodes) with random features.
    fn packed_pair(in_c: usize, seed: u64) -> (Vec<i32>, Vec<i32>, Vec<f32>, Vec<usize>) {
        let mut rng = rng_from_seed(seed);
        // tree 0: 5 nodes rooted at 0; tree 1: 3 nodes rooted at 5
        let left = vec![1, 3, -1, -1, -1, 6, -1, -1];
        let right = vec![2, 4, -1, -1, -1, 7, -1, -1];
        let x: Vec<f32> = (0..8 * in_c).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        (left, right, x, vec![0, 5, 8])
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0), "[{i}] {x} vs {y}");
        }
    }

    #[test]
    fn batched_conv_matches_reference() {
        let (left, right, x, offsets) = packed_pair(5, 42);
        let p = TreeConvParams::new(5, 7, 9);
        let batched = tree_conv_forward_batch(&p, &left, &right, &x);
        // Reference: run each tree separately through the per-node kernel.
        for (t, w) in offsets.windows(2).enumerate() {
            let (lo, hi) = (w[0], w[1]);
            let l: Vec<i32> =
                left[lo..hi].iter().map(|&c| if c < 0 { -1 } else { c - lo as i32 }).collect();
            let r: Vec<i32> =
                right[lo..hi].iter().map(|&c| if c < 0 { -1 } else { c - lo as i32 }).collect();
            let y = tree_conv_forward(&p, &l, &r, &x[lo * 5..hi * 5]);
            assert_close(&batched[lo * 7..hi * 7], &y, 1e-5);
            let _ = t;
        }
    }

    #[test]
    fn batched_conv_backward_matches_reference() {
        let (left, right, x, _) = packed_pair(4, 7);
        let mut rng = rng_from_seed(8);
        let dy: Vec<f32> = (0..8 * 6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut pa = TreeConvParams::new(4, 6, 3);
        let mut pb = pa.clone();
        tree_conv_backward_batch_params(&mut pa, &left, &right, &x, &dy);
        let dxa = tree_conv_backward_batch_input(&pa, &left, &right, &dy);
        let dxb = tree_conv_backward(&mut pb, &left, &right, &x, &dy);
        assert_close(&dxa, &dxb, 1e-5);
        assert_close(&pa.top.g, &pb.top.g, 1e-5);
        assert_close(&pa.left.g, &pb.left.g, 1e-5);
        assert_close(&pa.right.g, &pb.right.g, 1e-5);
        assert_close(&pa.bias.g, &pb.bias.g, 1e-5);
    }

    #[test]
    fn batched_pool_segments_trees() {
        // 2 trees (2 + 1 nodes), 2 channels
        let x = vec![1.0, 9.0, 4.0, 2.0, 7.0, 3.0];
        let (y, arg) = dyn_pool_forward_batch(&x, 2, &[0, 2, 3]);
        assert_eq!(y, vec![4.0, 9.0, 7.0, 3.0]);
        assert_eq!(arg, vec![1, 0, 2, 2]);
        let dx = dyn_pool_backward_batch(&arg, &[0.1, 0.2, 0.3, 0.4], 3, 2);
        assert_eq!(dx, vec![0.0, 0.2, 0.1, 0.0, 0.3, 0.4]);
    }

    #[test]
    fn batched_linear_matches_reference() {
        let mut rng = rng_from_seed(15);
        let mut w = Param::he(3, 4, 1);
        let mut b = Param::he(3, 1, 2);
        let n = 5;
        let x: Vec<f32> = (0..n * 4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let y = linear_forward_batch(&w, &b, &x, n);
        for i in 0..n {
            let yi = linear_forward(&w, &b, &x[i * 4..(i + 1) * 4]);
            assert_close(&y[i * 3..(i + 1) * 3], &yi, 1e-5);
        }
        let dy: Vec<f32> = (0..n * 3).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut w2 = w.clone();
        let mut b2 = b.clone();
        let dx = linear_backward_batch(&mut w, &mut b, &x, &dy, n);
        for i in 0..n {
            let dxi =
                linear_backward(&mut w2, &mut b2, &x[i * 4..(i + 1) * 4], &dy[i * 3..(i + 1) * 3]);
            assert_close(&dx[i * 4..(i + 1) * 4], &dxi, 1e-5);
        }
        assert_close(&w.g, &w2.g, 1e-5);
        assert_close(&b.g, &b2.g, 1e-5);
    }
}
