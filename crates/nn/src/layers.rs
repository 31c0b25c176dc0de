//! Layer forward/backward kernels of the TCNN's one taped pass.
//!
//! All kernels operate on node-major activation buffers (`n_nodes × c`)
//! and are written as free functions so the network's tape (in `net.rs`)
//! owns every cached activation explicitly — no hidden state, which makes
//! the finite-difference gradient checks in `net.rs` meaningful.
//!
//! They run over a packed multi-tree buffer ([`crate::tree::TreeBatch`]):
//! ReLU and layer norm are per node, and the kernels that touch tree
//! structure (convolution, pooling) or run a dense product (convolution,
//! FC) route every product through the kernels in `param.rs` (`axpy_nz`
//! over rows compacted once per layer, `Param::matmul_add` and friends),
//! which read child rows through the child index, so no gathered copy of
//! a layer's input is ever made. Each writes its result into a
//! caller-owned buffer (resized) and keeps compactions and transposes in
//! a caller-owned `KernelScratch`, so a reused workspace allocates
//! nothing. Scoring has its own fused kernels in `infer.rs`.

use crate::param::{axpy_nz, KernelScratch, Param};
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

/// ReLU, in place (the output doubles as the backward mask).
pub fn relu_forward(x: &mut [f32]) {
    x.iter_mut().for_each(|v| *v = v.max(0.0));
}

/// ReLU backward, in place: zero the gradient where the output was
/// clamped.
pub fn relu_backward(y: &[f32], dy: &mut [f32]) {
    for (d, &yv) in dy.iter_mut().zip(y) {
        *d = if yv > 0.0 { *d } else { 0.0 };
    }
}

pub(crate) const LN_EPS: f32 = 1e-5;

/// Per-node layer normalization over the `gamma.len()` channels into
/// `y`, with the backward caches `xhat` and `inv_std` (all three resized;
/// every element is overwritten). A row's mean and variance are each one
/// strictly ordered f32 sum — a chain of dependent adds — so rows are
/// normalized four at a time, their sums running as independent chains,
/// each in its own row's order: the bits of one row at a time.
pub fn layer_norm_forward(
    gamma: &Param,
    beta: &Param,
    x: &[f32],
    [y, xhat, inv_std]: [&mut Vec<f32>; 3],
) {
    let (c, quad) = (gamma.len(), 4 * gamma.len());
    y.resize(x.len(), 0.0);
    xhat.resize(x.len(), 0.0);
    inv_std.resize(x.len() / c, 0.0);
    let quads = x.len() / quad * 4;
    let rows = x.chunks_exact(quad).zip(y.chunks_exact_mut(quad)).zip(xhat.chunks_exact_mut(quad));
    for (((x, y), h), s) in rows.zip(inv_std.chunks_exact_mut(4)) {
        ln_rows::<4>(gamma, beta, x, y, h, s);
    }
    let rows = x.chunks_exact(c).zip(y.chunks_exact_mut(c)).zip(xhat.chunks_exact_mut(c));
    for (((x, y), h), s) in rows.zip(inv_std.chunks_exact_mut(1)).skip(quads) {
        ln_rows::<1>(gamma, beta, x, y, h, s);
    }
}

/// [`layer_norm_forward`] on `R` consecutive rows. The sums start from
/// `-0.0`, the value `f32: Sum` folds from, so each equals the row's
/// `iter().sum()` — what the scorer's `ln_relu_row` computes.
#[inline(always)]
#[expect(clippy::needless_range_loop, reason = "column `j` of all `R` rows in lockstep")]
fn ln_rows<const R: usize>(
    gamma: &Param,
    beta: &Param,
    x: &[f32],
    y: &mut [f32],
    xhat: &mut [f32],
    inv_std: &mut [f32],
) {
    let c = gamma.w.len();
    let cf = c as f32;
    let rows: [&[f32]; R] = std::array::from_fn(|r| &x[r * c..][..c]);
    let mut mean = [-0.0f32; R];
    let mut var = [-0.0f32; R];
    for j in 0..c {
        for r in 0..R {
            mean[r] += rows[r][j];
        }
    }
    let mean = mean.map(|s| s / cf);
    for j in 0..c {
        for r in 0..R {
            var[r] += (rows[r][j] - mean[r]) * (rows[r][j] - mean[r]);
        }
    }
    for r in 0..R {
        let istd = 1.0 / (var[r] / cf + LN_EPS).sqrt();
        inv_std[r] = istd;
        let (yr, hr) = (&mut y[r * c..(r + 1) * c], &mut xhat[r * c..(r + 1) * c]);
        let params = gamma.w.iter().zip(&beta.w);
        for (((&xv, yv), hv), (&g, &b)) in x[r * c..].iter().zip(yr).zip(hr).zip(params) {
            let h = (xv - mean[r]) * istd;
            *hv = h;
            *yv = g * h + b;
        }
    }
}

/// Layer-norm backward; accumulates `gamma`/`beta` gradients and writes
/// `dx` (resized; every element is overwritten). Four rows at a time, as
/// the forward: each row's two sums are dependent chains in its own
/// order, and each `gamma` / `beta` gradient element still takes its rows
/// in ascending order.
pub fn layer_norm_backward(
    gamma: &mut Param,
    beta: &mut Param,
    xhat: &[f32],
    inv_std: &[f32],
    dy: &[f32],
    dx: &mut Vec<f32>,
) {
    let c = gamma.len();
    dx.resize(xhat.len(), 0.0);
    let quads = inv_std.len() / 4 * 4;
    let rows = xhat.chunks_exact(4 * c).zip(dy.chunks_exact(4 * c)).zip(dx.chunks_exact_mut(4 * c));
    for (((h, d), dx), s) in rows.zip(inv_std.chunks_exact(4)) {
        ln_back_rows::<4>(gamma, beta, h, s, d, dx);
    }
    let rows = xhat.chunks_exact(c).zip(dy.chunks_exact(c)).zip(dx.chunks_exact_mut(c));
    for (((h, d), dx), s) in rows.zip(inv_std.chunks_exact(1)).skip(quads) {
        ln_back_rows::<1>(gamma, beta, h, s, d, dx);
    }
}

/// [`layer_norm_backward`] on `R` consecutive rows.
#[inline(always)]
fn ln_back_rows<const R: usize>(
    gamma: &mut Param,
    beta: &mut Param,
    h: &[f32],
    inv_std: &[f32],
    d: &[f32],
    dx: &mut [f32],
) {
    let c = gamma.w.len();
    let cf = c as f32;
    let (d_rows, h_rows): ([&[f32]; R], [&[f32]; R]) =
        (std::array::from_fn(|r| &d[r * c..][..c]), std::array::from_fn(|r| &h[r * c..][..c]));
    let mut sum_dxhat = [0.0f32; R];
    let mut sum_dxhat_h = [0.0f32; R];
    let grads = gamma.g[..c].iter_mut().zip(&mut beta.g[..c]);
    for (j, ((gg, bg), &gw)) in grads.zip(&gamma.w).enumerate() {
        for r in 0..R {
            let (dj, hj) = (d_rows[r][j], h_rows[r][j]);
            let dxh = dj * gw;
            sum_dxhat[r] += dxh;
            sum_dxhat_h[r] += dxh * hj;
            *gg += dj * hj;
            *bg += dj;
        }
    }
    for r in 0..R {
        let (istd, s, sh) = (inv_std[r], sum_dxhat[r], sum_dxhat_h[r]);
        let row = d[r * c..].iter().zip(&h[r * c..]).zip(&gamma.w);
        for (dv, ((&dj, &hj), &gw)) in dx[r * c..(r + 1) * c].iter_mut().zip(row) {
            let dxh = dj * gw;
            *dv = istd * (dxh - s / cf - hj * sh / cf);
        }
    }
}

/// Tree convolution into `y`: `y[i] = W_top x[i] + W_left x[l(i)] +
/// W_right x[r(i)] + b`, missing children contributing zero. Child
/// indices may span a packed multi-tree batch (rebased, so trees never
/// alias). The layer input is compacted once (`RowNz`) and each node row
/// then runs one [`axpy_nz`] over its three terms (self, left child,
/// right child, read through the child index, so no gathered copy of `x`
/// is materialized) against weights transposed once per call. Below
/// [`Param::MATMUL_MIN_BATCH`] node rows it takes the per-node
/// `matvec_add` branch of [`Param::matmul_add`] instead.
pub fn tree_conv_forward_batch(
    p: &TreeConvParams,
    left: &[i32],
    right: &[i32],
    x: &[f32],
    y: &mut Vec<f32>,
    ks: &mut KernelScratch,
) {
    let (in_c, out_c) = (p.in_c(), p.out_c());
    let n = left.len();
    debug_assert_eq!(x.len(), n * in_c);
    y.resize(n * out_c, 0.0);
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
        return;
    }
    let KernelScratch { nz, wt } = ks;
    for (w, wt) in [&p.top, &p.left, &p.right].into_iter().zip(wt.iter_mut()) {
        w.transpose_into(wt);
    }
    nz.compact(x, in_c);
    for (i, yi) in y.chunks_exact_mut(out_c).enumerate() {
        axpy_nz(
            yi,
            &[(nz.row(i), &wt[0]), (nz.child(left[i]), &wt[1]), (nz.child(right[i]), &wt[2])],
        );
    }
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
    ks: &mut KernelScratch,
) {
    let out_c = p.out_c();
    let n = left.len();
    for dyi in dy.chunks_exact(out_c) {
        for (bg, &d) in p.bias.g.iter_mut().zip(dyi.iter()) {
            *bg += d;
        }
    }
    p.top.grad_outer_batch_add(dy, x, n, ks);
    p.left.grad_outer_gather_add(dy, x, left, ks);
    p.right.grad_outer_gather_add(dy, x, right, ks);
}

/// Input half of the backward of [`tree_conv_forward_batch`]: writes `dx`
/// (resized and zeroed: the terms accumulate). The first layer of a
/// network has no use for it — its input is the raw plan features — and
/// skips this call. `dy` is compacted once; the self term runs per node
/// and the child terms scatter-add into their (data-dependent) child
/// rows, self then left then right, each row through [`axpy_nz`] against
/// `W` itself.
pub fn tree_conv_backward_batch_input(
    p: &TreeConvParams,
    left: &[i32],
    right: &[i32],
    dy: &[f32],
    dx: &mut Vec<f32>,
    ks: &mut KernelScratch,
) {
    let (in_c, out_c) = (p.in_c(), p.out_c());
    let n = left.len();
    dx.clear();
    dx.resize(n * in_c, 0.0);
    let nz = &mut ks.nz;
    nz.compact(dy, out_c);
    for (i, dxi) in dx.chunks_exact_mut(in_c).enumerate() {
        axpy_nz(dxi, &[(nz.row(i), &p.top.w)]);
    }
    for (w, child) in [(&p.left, left), (&p.right, right)] {
        for (i, &c) in child.iter().enumerate() {
            if c >= 0 {
                let c = c as usize;
                axpy_nz(&mut dx[c * in_c..(c + 1) * in_c], &[(nz.row(i), &w.w)]);
            }
        }
    }
}

/// Dynamic max pooling, per channel and per tree: tree `t` pools its
/// `offsets[t]..offsets[t+1]` node rows into `n_trees × c` pooled
/// activations `y`, and `arg` gets the winning *batch-global* node per
/// (tree, channel).
pub fn dyn_pool_forward_batch(
    x: &[f32],
    c: usize,
    offsets: &[usize],
    y: &mut Vec<f32>,
    arg: &mut Vec<usize>,
) {
    let n_trees = offsets.len() - 1;
    y.clear();
    y.resize(n_trees * c, f32::NEG_INFINITY);
    arg.clear();
    arg.resize(n_trees * c, 0);
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
}

/// Scatter pooled gradients back to the winning nodes of every tree,
/// into `dx` (resized and zeroed).
pub fn dyn_pool_backward_batch(
    arg: &[usize],
    dy: &[f32],
    total_nodes: usize,
    c: usize,
    dx: &mut Vec<f32>,
) {
    dx.clear();
    dx.resize(total_nodes * c, 0.0);
    for (slot, (&i, &d)) in arg.iter().zip(dy.iter()).enumerate() {
        dx[i * c + slot % c] += d;
    }
}

/// Fully connected layer over a row batch (`n × in` → `n × out`), into
/// `y`; below [`Param::MATMUL_MIN_BATCH`] rows [`Param::matmul_add`] runs
/// one `matvec_add` per row.
pub fn linear_forward_batch(
    w: &Param,
    b: &Param,
    x: &[f32],
    n: usize,
    y: &mut Vec<f32>,
    ks: &mut KernelScratch,
) {
    y.resize(n * w.rows, 0.0);
    for yi in y.chunks_exact_mut(w.rows) {
        yi.copy_from_slice(&b.w);
    }
    w.matmul_add(x, y, n, ks);
}

/// Backward of [`linear_forward_batch`]: accumulates the parameter
/// gradients and writes `dx` (resized and zeroed).
pub fn linear_backward_batch(
    w: &mut Param,
    b: &mut Param,
    x: &[f32],
    dy: &[f32],
    n: usize,
    dx: &mut Vec<f32>,
    ks: &mut KernelScratch,
) {
    for dyi in dy.chunks_exact(w.rows) {
        for (bg, &d) in b.g.iter_mut().zip(dyi.iter()) {
            *bg += d;
        }
    }
    w.grad_outer_batch_add(dy, x, n, ks);
    dx.clear();
    dx.resize(n * w.cols, 0.0);
    w.matmul_t_add(dy, dx, n, ks);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_masks() {
        let mut y = [-1.0, 0.0, 2.0];
        relu_forward(&mut y);
        assert_eq!(y, [0.0, 0.0, 2.0]);
        let mut dx = [5.0, 5.0, 5.0];
        relu_backward(&y, &mut dx);
        assert_eq!(dx, [0.0, 0.0, 5.0]);
    }

    /// Layer norm one row at a time, as it was before the four-row
    /// kernels: the oracle they must match to the bit.
    fn ln_forward_oracle(gamma: &Param, beta: &Param, x: &[f32], c: usize) -> [Vec<f32>; 3] {
        let n = x.len() / c;
        let (mut y, mut xhat, mut inv_std) = (vec![0.0; x.len()], vec![0.0; x.len()], vec![0.0; n]);
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
        [y, xhat, inv_std]
    }

    fn ln_backward_oracle(
        gamma: &mut Param,
        beta: &mut Param,
        xhat: &[f32],
        inv_std: &[f32],
        dy: &[f32],
        c: usize,
    ) -> Vec<f32> {
        let mut dx = vec![0.0f32; xhat.len()];
        for i in 0..xhat.len() / c {
            let (h, d) = (&xhat[i * c..(i + 1) * c], &dy[i * c..(i + 1) * c]);
            let (mut sum_dxhat, mut sum_dxhat_h) = (0.0f32, 0.0f32);
            for j in 0..c {
                let dxh = d[j] * gamma.w[j];
                sum_dxhat += dxh;
                sum_dxhat_h += dxh * h[j];
                gamma.g[j] += d[j] * h[j];
                beta.g[j] += d[j];
            }
            let cf = c as f32;
            for j in 0..c {
                let dxh = d[j] * gamma.w[j];
                dx[i * c + j] = inv_std[i] * (dxh - sum_dxhat / cf - h[j] * sum_dxhat_h / cf);
            }
        }
        dx
    }

    /// The four-row layer norm against the per-row loops, `to_bits` on
    /// every output and gradient: row counts on both sides of four and
    /// with every remainder, the `small` net's widths and odd ones, rows
    /// all `-0.0`, all `+0.0`, constant, or mixed with signed zeros, and
    /// gradients accumulating onto a nonzero `g`. One set of output
    /// buffers serves every case, larger and smaller.
    #[test]
    fn four_row_layer_norm_matches_the_per_row_loops_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = rng_from_seed(29);
        let (mut y, mut xhat, mut inv_std) = (Vec::new(), Vec::new(), Vec::new());
        let mut dx = Vec::new();
        for c in [64, 32, 16, 13, 4, 1] {
            for n in [11, 8, 5, 4, 3, 1] {
                let what = format!("c {c}, n {n}");
                let mut x: Vec<f32> = (0..n * c).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                for (i, row) in x.chunks_exact_mut(c).enumerate() {
                    match i % 5 {
                        0 => row.fill(-0.0),
                        1 => row.fill(0.0),
                        2 => row.fill(0.75),
                        3 => row.iter_mut().step_by(2).for_each(|v| *v = -0.0),
                        _ => {}
                    }
                }
                let mut gamma = Param::he(c, 1, n as u64);
                let mut beta = Param::he(c, 1, c as u64);
                for g in gamma.g.iter_mut().chain(beta.g.iter_mut()) {
                    *g = rng.gen_range(-1.0f32..1.0);
                }
                let (mut gamma_old, mut beta_old) = (gamma.clone(), beta.clone());
                let mut dy_at = |k| if k % 3 == 0 { 0.0 } else { rng.gen_range(-1.0f32..1.0) };
                let dy: Vec<f32> = (0..n * c).map(&mut dy_at).collect();

                layer_norm_forward(&gamma, &beta, &x, [&mut y, &mut xhat, &mut inv_std]);
                let [y_old, xhat_old, inv_std_old] = ln_forward_oracle(&gamma, &beta, &x, c);
                assert_eq!(bits(&y), bits(&y_old), "y, {what}");
                assert_eq!(bits(&xhat), bits(&xhat_old), "xhat, {what}");
                assert_eq!(bits(&inv_std), bits(&inv_std_old), "inv_std, {what}");

                layer_norm_backward(&mut gamma, &mut beta, &xhat, &inv_std, &dy, &mut dx);
                let dx_old =
                    ln_backward_oracle(&mut gamma_old, &mut beta_old, &xhat, &inv_std, &dy, c);
                assert_eq!(bits(&dx), bits(&dx_old), "dx, {what}");
                assert_eq!(bits(&gamma.g), bits(&gamma_old.g), "gamma grad, {what}");
                assert_eq!(bits(&beta.g), bits(&beta_old.g), "beta grad, {what}");
            }
        }
    }

    #[test]
    fn pool_and_scatter() {
        // one tree of two nodes, three channels
        let x = vec![1.0, 9.0, 3.0, 4.0, 2.0, 8.0];
        let (mut y, mut arg, mut dx) = (Vec::new(), Vec::new(), Vec::new());
        dyn_pool_forward_batch(&x, 3, &[0, 2], &mut y, &mut arg);
        assert_eq!(y, vec![4.0, 9.0, 8.0]);
        assert_eq!(arg, vec![1, 0, 1]);
        dyn_pool_backward_batch(&arg, &[0.1, 0.2, 0.3], 2, 3, &mut dx);
        assert_eq!(dx, vec![0.0, 0.2, 0.0, 0.1, 0.0, 0.3]);
    }

    #[test]
    fn layer_norm_normalizes() {
        let gamma = Param::ones(3, 1);
        let beta = Param::zeros(3, 1);
        let (mut y, mut xhat, mut inv_std) = (Vec::new(), Vec::new(), Vec::new());
        layer_norm_forward(&gamma, &beta, &[1.0, 2.0, 3.0], [&mut y, &mut xhat, &mut inv_std]);
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
        let (mut y, mut ks) = (Vec::new(), KernelScratch::default());
        // One 3-node tree: the per-node branch, below `MATMUL_MIN_BATCH`.
        tree_conv_forward_batch(&p, &[1, -1, -1], &[2, -1, -1], &[1.0, 2.0, 3.0], &mut y, &mut ks);
        assert_eq!(y, vec![1.0 + 20.0 + 300.0, 2.0, 3.0]);
        // Two such trees packed: six node rows, the GEMM branch.
        let (left, right) = ([1, -1, -1, 4, -1, -1], [2, -1, -1, 5, -1, -1]);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        tree_conv_forward_batch(&p, &left, &right, &x, &mut y, &mut ks);
        assert_eq!(y, vec![321.0, 2.0, 3.0, 4.0 + 50.0 + 600.0, 5.0, 6.0]);
    }

    #[test]
    fn linear_known_values() {
        let w = Param::from_weights(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        let b = Param::from_weights(2, 1, vec![0.5, -0.5]);
        let (mut y, mut ks) = (Vec::new(), KernelScratch::default());
        // One row (the per-row branch), then four (the GEMM).
        linear_forward_batch(&w, &b, &[1.0, 2.0, 3.0], 1, &mut y, &mut ks);
        assert_eq!(y, vec![1.5, 4.5]);
        let x = [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, -1.0, 4.0, 0.0, 2.0, 0.0, -2.0];
        linear_forward_batch(&w, &b, &x, 4, &mut y, &mut ks);
        assert_eq!(y, vec![1.5, 4.5, 0.5, -0.5, -0.5, 3.5, 2.5, -2.5]);
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

    /// Tree `lo..hi` of a packed batch on its own: child indices rebased
    /// to its first node.
    fn rebase(child: &[i32], lo: usize) -> Vec<i32> {
        child.iter().map(|&c| if c < 0 { -1 } else { c - lo as i32 }).collect()
    }

    /// The packed pair against each of its trees convolved alone: the
    /// 5-node tree and the packed 8 rows take the GEMM branch, the 3-node
    /// tree the per-node one.
    #[test]
    fn batched_conv_matches_reference() {
        let (left, right, x, offsets) = packed_pair(5, 42);
        let p = TreeConvParams::new(5, 7, 9);
        let (mut batched, mut alone, mut ks) = (Vec::new(), Vec::new(), KernelScratch::default());
        tree_conv_forward_batch(&p, &left, &right, &x, &mut batched, &mut ks);
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let (l, r) = (rebase(&left[lo..hi], lo), rebase(&right[lo..hi], lo));
            tree_conv_forward_batch(&p, &l, &r, &x[lo * 5..hi * 5], &mut alone, &mut ks);
            assert_close(&batched[lo * 7..hi * 7], &alone, 1e-5);
        }
    }

    /// The packed pair's backward against its trees' backward passes run
    /// alone: each tree's input gradient, and the parameter gradients
    /// summed over both trees.
    #[test]
    fn batched_conv_backward_matches_reference() {
        let (left, right, x, offsets) = packed_pair(4, 7);
        let mut rng = rng_from_seed(8);
        let dy: Vec<f32> = (0..8 * 6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut pa = TreeConvParams::new(4, 6, 3);
        let mut pb = pa.clone();
        let (mut dxa, mut dxb, mut ks) = (Vec::new(), Vec::new(), KernelScratch::default());
        tree_conv_backward_batch_params(&mut pa, &left, &right, &x, &dy, &mut ks);
        tree_conv_backward_batch_input(&pa, &left, &right, &dy, &mut dxa, &mut ks);
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let (l, r) = (rebase(&left[lo..hi], lo), rebase(&right[lo..hi], lo));
            let (x, dy) = (&x[lo * 4..hi * 4], &dy[lo * 6..hi * 6]);
            tree_conv_backward_batch_params(&mut pb, &l, &r, x, dy, &mut ks);
            tree_conv_backward_batch_input(&pb, &l, &r, dy, &mut dxb, &mut ks);
            assert_close(&dxa[lo * 4..hi * 4], &dxb, 1e-5);
        }
        assert_close(&pa.top.g, &pb.top.g, 1e-5);
        assert_close(&pa.left.g, &pb.left.g, 1e-5);
        assert_close(&pa.right.g, &pb.right.g, 1e-5);
        assert_close(&pa.bias.g, &pb.bias.g, 1e-5);
    }

    #[test]
    fn batched_pool_segments_trees() {
        // 2 trees (2 + 1 nodes), 2 channels
        let x = vec![1.0, 9.0, 4.0, 2.0, 7.0, 3.0];
        let (mut y, mut arg, mut dx) = (Vec::new(), Vec::new(), Vec::new());
        dyn_pool_forward_batch(&x, 2, &[0, 2, 3], &mut y, &mut arg);
        assert_eq!(y, vec![4.0, 9.0, 7.0, 3.0]);
        assert_eq!(arg, vec![1, 0, 2, 2]);
        dyn_pool_backward_batch(&arg, &[0.1, 0.2, 0.3, 0.4], 3, 2, &mut dx);
        assert_eq!(dx, vec![0.0, 0.2, 0.1, 0.0, 0.3, 0.4]);
    }

    /// The FC layer's backward over four rows against hand-computed
    /// values: `b.g = Σ dy`, `w.g = Σ dyᵀ x`, `dx = dy W`.
    #[test]
    fn batched_linear_matches_reference() {
        let mut w = Param::from_weights(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        let mut b = Param::from_weights(2, 1, vec![0.5, -0.5]);
        let x = [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, -1.0, 4.0, 0.0, 2.0, 0.0, -2.0];
        let dy = [1.0, 0.0, 0.0, 2.0, -1.0, 1.0, 0.5, -1.0];
        let (mut dx, mut ks) = (Vec::new(), KernelScratch::default());
        linear_backward_batch(&mut w, &mut b, &x, &dy, 4, &mut dx, &mut ks);
        assert_eq!(b.g, vec![0.5, 2.0]);
        assert_eq!(w.g, vec![3.0, -2.0, 2.0, -3.0, 4.0, 2.0]);
        assert_eq!(dx, vec![1.0, 0.0, 0.0, 0.0, 2.0, 2.0, -1.0, 1.0, 1.0, 0.5, -1.0, -1.0]);
    }
}
