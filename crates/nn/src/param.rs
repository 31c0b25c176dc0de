//! Parameter tensors with gradient and Adam-moment storage.

use bao_common::json::{self, FromJson, Json, ToJson};
use bao_common::{rng_from_seed, Result, Rng};

/// A learnable tensor: weights, accumulated gradient, and Adam moments.
/// Stored row-major as `rows × cols` (a vector parameter has `cols == 1`).
/// Only `w` is serialized; scratch buffers stay empty until
/// [`Param::reset_scratch`].
#[derive(Debug, Clone)]
pub struct Param {
    pub rows: usize,
    pub cols: usize,
    pub w: Vec<f32>,
    pub g: Vec<f32>,
    pub m: Vec<f32>,
    pub v: Vec<f32>,
}

impl ToJson for Param {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.to_json()),
            ("cols", self.cols.to_json()),
            ("w", self.w.to_json()),
        ])
    }
}

impl FromJson for Param {
    fn from_json(j: &Json) -> Result<Param> {
        Ok(Param {
            rows: json::field(j, "rows")?,
            cols: json::field(j, "cols")?,
            w: json::field(j, "w")?,
            g: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
        })
    }
}

impl Param {
    /// He-uniform initialization (suited to ReLU networks).
    pub fn he(rows: usize, cols: usize, seed: u64) -> Param {
        let mut rng = rng_from_seed(seed);
        let bound = (6.0 / cols.max(1) as f64).sqrt() as f32;
        let w = (0..rows * cols).map(|_| rng.gen_range(-bound..=bound)).collect();
        Param::from_weights(rows, cols, w)
    }

    /// Zero initialization (biases, layer-norm shifts).
    pub fn zeros(rows: usize, cols: usize) -> Param {
        Param::from_weights(rows, cols, vec![0.0; rows * cols])
    }

    /// One initialization (layer-norm gains).
    pub fn ones(rows: usize, cols: usize) -> Param {
        Param::from_weights(rows, cols, vec![1.0; rows * cols])
    }

    pub fn from_weights(rows: usize, cols: usize, w: Vec<f32>) -> Param {
        assert_eq!(w.len(), rows * cols);
        let n = w.len();
        Param { rows, cols, w, g: vec![0.0; n], m: vec![0.0; n], v: vec![0.0; n] }
    }

    pub fn len(&self) -> usize {
        self.w.len()
    }

    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Reset optimizer scratch (after deserialization the skipped fields
    /// are empty).
    pub fn reset_scratch(&mut self) {
        let n = self.w.len();
        self.g = vec![0.0; n];
        self.m = vec![0.0; n];
        self.v = vec![0.0; n];
    }

    pub fn zero_grad(&mut self) {
        self.g.iter_mut().for_each(|g| *g = 0.0);
    }

    /// `y += W x` where `x` has `cols` entries and `y` has `rows`.
    pub fn matvec_add(&self, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.w[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yr += acc;
        }
    }

    /// `dx += Wᵀ dy` — the input gradient of `matvec_add`.
    pub fn matvec_t_add(&self, dy: &[f32], dx: &mut [f32]) {
        debug_assert_eq!(dy.len(), self.rows);
        debug_assert_eq!(dx.len(), self.cols);
        for (r, &d) in dy.iter().enumerate() {
            if d == 0.0 { // bao-lint: allow(no-float-eq) — exact-zero sparsity skip
                continue;
            }
            let row = &self.w[r * self.cols..(r + 1) * self.cols];
            for (xg, &wv) in dx.iter_mut().zip(row.iter()) {
                *xg += d * wv;
            }
        }
    }

    /// `dW += dy ⊗ x` — the weight gradient of `matvec_add`.
    pub fn grad_outer_add(&mut self, dy: &[f32], x: &[f32]) {
        debug_assert_eq!(dy.len(), self.rows);
        debug_assert_eq!(x.len(), self.cols);
        for (r, &d) in dy.iter().enumerate() {
            if d == 0.0 { // bao-lint: allow(no-float-eq) — exact-zero sparsity skip
                continue;
            }
            let row = &mut self.g[r * self.cols..(r + 1) * self.cols];
            for (gv, &xv) in row.iter_mut().zip(x.iter()) {
                *gv += d * xv;
            }
        }
    }

    /// Batched `Y += X Wᵀ`: `x` is a node-major `n × cols` buffer, `y` a
    /// node-major `n × rows` buffer.
    ///
    /// This is the forward GEMM of the batched training pass.
    /// [`Param::matvec_add`] is bound by a serial FMA reduction (strict f32
    /// semantics forbid the compiler from reassociating one accumulator
    /// into SIMD lanes), so the batched kernel flips the loop: the weights
    /// are transposed once per call, and each input row then runs
    /// [`axpy_row`] — independent lanes, which LLVM auto-vectorizes. The
    /// transpose cost amortizes over the whole batch; below
    /// [`Self::MATMUL_MIN_BATCH`] rows the kernel falls back to per-node
    /// `matvec_add`, where the transpose would dominate. The two branches
    /// round differently (~1e-6 relative), and which one a shard takes is
    /// part of the trainer's pinned numerics (`tests/train_golden.rs`).
    pub fn matmul_add(&self, x: &[f32], y: &mut [f32], n: usize) {
        let c = self.cols;
        let rows = self.rows;
        debug_assert_eq!(x.len(), n * c);
        debug_assert_eq!(y.len(), n * rows);
        let rows_in_out = x.chunks_exact(c).zip(y.chunks_exact_mut(rows));
        if n < Self::MATMUL_MIN_BATCH {
            rows_in_out.for_each(|(xi, yi)| self.matvec_add(xi, yi));
            return;
        }
        let mut wt = Vec::new();
        self.transpose_into(&mut wt);
        rows_in_out.for_each(|(xi, yi)| axpy_row(yi, xi, &wt));
    }

    /// Below this many batch rows, [`Param::matmul_add`]'s weight
    /// transpose costs more than the vectorization gains.
    pub const MATMUL_MIN_BATCH: usize = 4;

    /// Gathered batched forward: `y[i] += W x[idx[i]]` for every `i` with
    /// `idx[i] >= 0`. The tree convolution's child terms use this instead
    /// of materializing a gathered copy of `x` — missing children (`-1`)
    /// are skipped without touching memory at all. Same two branches as
    /// [`Param::matmul_add`].
    pub fn matmul_gather_add(&self, x: &[f32], idx: &[i32], y: &mut [f32]) {
        let c = self.cols;
        let rows = self.rows;
        let n = idx.len();
        debug_assert_eq!(y.len(), n * rows);
        let rows_in_out = idx.iter().zip(y.chunks_exact_mut(rows)).filter_map(|(&j, yi)| {
            (j >= 0).then(|| (&x[j as usize * c..(j as usize + 1) * c], yi))
        });
        if n < Self::MATMUL_MIN_BATCH {
            rows_in_out.for_each(|(xj, yi)| self.matvec_add(xj, yi));
            return;
        }
        let mut wt = Vec::new();
        self.transpose_into(&mut wt);
        rows_in_out.for_each(|(xj, yi)| axpy_row(yi, xj, &wt));
    }

    /// Write this parameter's transpose into `wt` (resized to
    /// `cols × rows`), the layout [`axpy_row`] reads. The scoring engine
    /// transposes once per call here and reuses it across every tree.
    pub fn transpose_into(&self, wt: &mut Vec<f32>) {
        let (c, rows) = (self.cols, self.rows);
        wt.clear();
        wt.resize(c * rows, 0.0);
        for r in 0..rows {
            for k in 0..c {
                wt[k * rows + r] = self.w[r * c + k];
            }
        }
    }

    /// Batched `dX += dY W`: `dy` is `n × rows`, `dx` is `n × cols`.
    /// The input-gradient GEMM of [`Param::matmul_add`]. Rows with a zero
    /// upstream gradient (common after ReLU) are skipped.
    pub fn matmul_t_add(&self, dy: &[f32], dx: &mut [f32], n: usize) {
        let c = self.cols;
        let rows = self.rows;
        debug_assert_eq!(dy.len(), n * rows);
        debug_assert_eq!(dx.len(), n * c);
        for i in 0..n {
            let dyi = &dy[i * rows..(i + 1) * rows];
            let dxi = &mut dx[i * c..(i + 1) * c];
            for (r, &d) in dyi.iter().enumerate() {
                if d == 0.0 { // bao-lint: allow(no-float-eq) — exact-zero sparsity skip
                    continue;
                }
                let wr = &self.w[r * c..(r + 1) * c];
                for (xg, &wv) in dxi.iter_mut().zip(wr.iter()) {
                    *xg += d * wv;
                }
            }
        }
    }

    /// Batched `dW += dYᵀ X`: `dy` is `n × rows`, `x` is `n × cols`.
    /// The weight-gradient GEMM of [`Param::matmul_add`]. Nodes are
    /// accumulated in ascending order, matching a sequential per-node
    /// [`Param::grad_outer_add`] loop bit-for-bit.
    pub fn grad_outer_batch_add(&mut self, dy: &[f32], x: &[f32], n: usize) {
        let c = self.cols;
        let rows = self.rows;
        debug_assert_eq!(dy.len(), n * rows);
        debug_assert_eq!(x.len(), n * c);
        for i in 0..n {
            let dyi = &dy[i * rows..(i + 1) * rows];
            let xi = &x[i * c..(i + 1) * c];
            for (r, &d) in dyi.iter().enumerate() {
                if d == 0.0 { // bao-lint: allow(no-float-eq) — exact-zero sparsity skip
                    continue;
                }
                let row = &mut self.g[r * c..(r + 1) * c];
                for (gv, &xv) in row.iter_mut().zip(xi.iter()) {
                    *gv += d * xv;
                }
            }
        }
    }

    /// Gathered [`Param::grad_outer_batch_add`]: `dW += dy[i] ⊗ x[idx[i]]`
    /// for every `i` with `idx[i] >= 0`. Bit-identical to running the
    /// dense kernel over a gathered copy of `x` whose missing-child rows
    /// are zero: those rows only ever added `d * 0.0` to an accumulator
    /// that is never `-0.0`.
    pub fn grad_outer_gather_add(&mut self, dy: &[f32], x: &[f32], idx: &[i32]) {
        let c = self.cols;
        let rows = self.rows;
        debug_assert_eq!(dy.len(), idx.len() * rows);
        for (i, &j) in idx.iter().enumerate() {
            if j < 0 {
                continue;
            }
            let j = j as usize;
            self.grad_outer_add(&dy[i * rows..(i + 1) * rows], &x[j * c..(j + 1) * c]);
        }
    }
}

/// `yi += Wᵀ-weighted xi` for one row, against a transpose from
/// [`Param::transpose_into`]: each input element contributes an axpy
/// over the output row, in ascending-`k` order, zero inputs (one-hot
/// features, ReLU-clamped activations) skipped. The one forward kernel
/// of the scoring engine and of the batched training pass's GEMM branch,
/// so the two agree to the bit wherever the latter takes that branch.
#[inline]
pub(crate) fn axpy_row(yi: &mut [f32], xi: &[f32], wt: &[f32]) {
    let rows = yi.len();
    for (k, &xv) in xi.iter().enumerate() {
        if xv == 0.0 { // bao-lint: allow(no-float-eq) — exact-zero sparsity skip
            continue;
        }
        let wk = &wt[k * rows..(k + 1) * rows];
        for (yv, &wv) in yi.iter_mut().zip(wk.iter()) {
            *yv += xv * wv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_shapes() {
        let p = Param::he(3, 4, 1);
        assert_eq!(p.len(), 12);
        assert_eq!(p.g.len(), 12);
        assert!(p.w.iter().any(|&x| x != 0.0));
        let z = Param::zeros(2, 1);
        assert!(z.w.iter().all(|&x| x == 0.0));
        let o = Param::ones(2, 1);
        assert!(o.w.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn he_is_deterministic() {
        assert_eq!(Param::he(4, 4, 9).w, Param::he(4, 4, 9).w);
        assert_ne!(Param::he(4, 4, 9).w, Param::he(4, 4, 10).w);
    }

    #[test]
    fn matvec_roundtrip() {
        // W = [[1,2],[3,4]]
        let p = Param::from_weights(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut y = vec![0.0; 2];
        p.matvec_add(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
        let mut dx = vec![0.0; 2];
        p.matvec_t_add(&[1.0, 1.0], &mut dx);
        assert_eq!(dx, vec![4.0, 6.0]);
    }

    #[test]
    fn outer_grad() {
        let mut p = Param::zeros(2, 2);
        p.grad_outer_add(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(p.g, vec![3.0, 4.0, 6.0, 8.0]);
        p.zero_grad();
        assert!(p.g.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn matmul_matches_per_row_matvec() {
        // Odd shapes exercise the 4-row block and its tail.
        let p = Param::he(7, 5, 11);
        let n = 9;
        let mut rng = rng_from_seed(3);
        let x: Vec<f32> = (0..n * 5).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut y_batch = vec![0.5f32; n * 7];
        p.matmul_add(&x, &mut y_batch, n);
        for i in 0..n {
            let mut y = vec![0.5f32; 7];
            p.matvec_add(&x[i * 5..(i + 1) * 5], &mut y);
            for (a, b) in y_batch[i * 7..(i + 1) * 7].iter().zip(y.iter()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn matmul_t_matches_per_row() {
        let p = Param::he(6, 4, 2);
        let n = 5;
        let mut rng = rng_from_seed(8);
        let dy: Vec<f32> = (0..n * 6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut dx_batch = vec![0.0f32; n * 4];
        p.matmul_t_add(&dy, &mut dx_batch, n);
        for i in 0..n {
            let mut dx = vec![0.0f32; 4];
            p.matvec_t_add(&dy[i * 6..(i + 1) * 6], &mut dx);
            for (a, b) in dx_batch[i * 4..(i + 1) * 4].iter().zip(dx.iter()) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn grad_outer_batch_matches_sequential() {
        let mut pa = Param::zeros(3, 4);
        let mut pb = Param::zeros(3, 4);
        let n = 6;
        let mut rng = rng_from_seed(5);
        let dy: Vec<f32> = (0..n * 3).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let x: Vec<f32> = (0..n * 4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        pa.grad_outer_batch_add(&dy, &x, n);
        for i in 0..n {
            pb.grad_outer_add(&dy[i * 3..(i + 1) * 3], &x[i * 4..(i + 1) * 4]);
        }
        assert_eq!(pa.g, pb.g); // node-ascending order matches bit-for-bit
    }

    #[test]
    fn grad_outer_gather_matches_dense_over_gathered_rows() {
        let (n, rows, c) = (6, 3, 4);
        let mut rng = rng_from_seed(6);
        let dy: Vec<f32> = (0..n * rows).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let x: Vec<f32> = (0..n * c).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let idx = [3, -1, 5, 0, -1, 3];
        let mut gathered = vec![0.0f32; n * c];
        for (i, &j) in idx.iter().enumerate() {
            if j >= 0 {
                let j = j as usize;
                gathered[i * c..(i + 1) * c].copy_from_slice(&x[j * c..(j + 1) * c]);
            }
        }
        let mut pa = Param::zeros(rows, c);
        let mut pb = Param::zeros(rows, c);
        pa.grad_outer_gather_add(&dy, &x, &idx);
        pb.grad_outer_batch_add(&dy, &gathered, n);
        // Skipped rows only ever contributed `d * 0.0`: bit-for-bit equal.
        assert_eq!(
            pa.g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            pb.g.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn serde_skips_scratch() {
        let p = Param::he(2, 2, 3);
        let text = p.to_json().to_string();
        let mut q = Param::from_json(&bao_common::json::parse(&text).unwrap()).unwrap();
        assert_eq!(p.w, q.w);
        assert!(q.g.is_empty());
        q.reset_scratch();
        assert_eq!(q.g.len(), 4);
    }
}
