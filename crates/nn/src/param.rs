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

    /// `dW += dy ⊗ x` — the weight gradient of `matvec_add`.
    pub fn grad_outer_add(&mut self, dy: &[f32], x: &[f32]) {
        debug_assert_eq!(dy.len(), self.rows);
        debug_assert_eq!(x.len(), self.cols);
        for (r, &d) in dy.iter().enumerate() {
            // bao-lint: allow(no-float-eq) — exact-zero sparsity skip
            if d == 0.0 {
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
    /// are transposed once per call, the input rows are compacted once
    /// ([`RowNz`]), and each row then runs [`axpy_nz`] — independent lanes
    /// in register tiles. The transpose cost amortizes over the whole
    /// batch; below [`Self::MATMUL_MIN_BATCH`] rows the kernel falls back
    /// to per-node `matvec_add`, where the transpose would dominate. The
    /// two branches round differently (~1e-6 relative), and which one a
    /// shard takes is part of the trainer's pinned numerics
    /// (`tests/train_golden.rs`).
    pub fn matmul_add(&self, x: &[f32], y: &mut [f32], n: usize, ks: &mut KernelScratch) {
        let c = self.cols;
        let rows = self.rows;
        debug_assert_eq!(x.len(), n * c);
        debug_assert_eq!(y.len(), n * rows);
        let rows_in_out = x.chunks_exact(c).zip(y.chunks_exact_mut(rows));
        if n < Self::MATMUL_MIN_BATCH {
            rows_in_out.for_each(|(xi, yi)| self.matvec_add(xi, yi));
            return;
        }
        self.transpose_into(&mut ks.wt[0]);
        ks.nz.compact(x, c);
        for (i, yi) in y.chunks_exact_mut(rows).enumerate() {
            axpy_nz(yi, &[(ks.nz.row(i), &ks.wt[0])]);
        }
    }

    /// Below this many batch rows, [`Param::matmul_add`]'s weight
    /// transpose costs more than the vectorization gains.
    pub const MATMUL_MIN_BATCH: usize = 4;

    /// Write this parameter's transpose into `wt` (resized to
    /// `cols × rows`), the layout [`axpy_nz`] reads. The scoring engine
    /// transposes once per call here and reuses it across every tree.
    pub fn transpose_into(&self, wt: &mut Vec<f32>) {
        transpose(&self.w, self.rows, self.cols, wt);
    }

    /// Batched `dX += dY W`: `dy` is `n × rows`, `dx` is `n × cols`.
    /// The input-gradient GEMM of [`Param::matmul_add`]: `W`'s rows are
    /// already the layout [`axpy_nz`] reads, and zero upstream gradients
    /// (common after ReLU) drop out in the compaction.
    pub fn matmul_t_add(&self, dy: &[f32], dx: &mut [f32], n: usize, ks: &mut KernelScratch) {
        debug_assert_eq!(dy.len(), n * self.rows);
        debug_assert_eq!(dx.len(), n * self.cols);
        ks.nz.compact(dy, self.rows);
        for (i, dxi) in dx.chunks_exact_mut(self.cols).enumerate() {
            axpy_nz(dxi, &[(ks.nz.row(i), &self.w)]);
        }
    }

    /// Batched `dW += dYᵀ X`: `dy` is `n × rows`, `x` is `n × cols`.
    /// The weight-gradient GEMM of [`Param::matmul_add`]; see
    /// [`Param::grad_outer_rows_add`].
    pub fn grad_outer_batch_add(
        &mut self,
        dy: &[f32],
        x: &[f32],
        n: usize,
        ks: &mut KernelScratch,
    ) {
        debug_assert_eq!(dy.len(), n * self.rows);
        debug_assert_eq!(x.len(), n * self.cols);
        self.grad_outer_rows_add(dy, x, (0..n).map(|i| (i, i)), ks);
    }

    /// Gathered [`Param::grad_outer_batch_add`]: `dW += dy[i] ⊗ x[idx[i]]`
    /// for every `i` with `idx[i] >= 0`. Bit-identical to running the
    /// dense kernel over a gathered copy of `x` whose missing-child rows
    /// are zero: those rows only ever added `d * 0.0` to an accumulator
    /// that is never `-0.0`.
    pub fn grad_outer_gather_add(
        &mut self,
        dy: &[f32],
        x: &[f32],
        idx: &[i32],
        ks: &mut KernelScratch,
    ) {
        debug_assert_eq!(dy.len(), idx.len() * self.rows);
        let pairs = idx.iter().enumerate().filter(|&(_, &j)| j >= 0);
        self.grad_outer_rows_add(dy, x, pairs.map(|(i, &j)| (i, j as usize)), ks);
    }

    /// `dW += dy[i] ⊗ x[j]` for each `(i, j)` in ascending `i`: per
    /// element of `g`, the terms of a sequential [`Param::grad_outer_add`]
    /// loop in its order. The axpys run along the wider of the two
    /// dimensions. Along `x` (`cols >= rows`: every layer but the first)
    /// that loop is the kernel, zero upstream gradients skipped. Along
    /// `dy` (the first layer: 13 one-hot plan features against 64
    /// channels) the sum goes through `gᵀ`: each nonzero `x[j][k]` adds
    /// `dy[i] · x[j][k]` to the contiguous row `k` of the transpose, so
    /// the zeros of a feature row are never touched. That skips `d · 0.0`
    /// terms and keeps `0.0 · x` ones: both are `±0.0`, which leaves an
    /// accumulator that is not `-0.0` unchanged (DESIGN.md §8), so the
    /// two agree bit for bit whenever `g` holds no `-0.0` on entry (a
    /// zeroed `g` never does).
    fn grad_outer_rows_add(
        &mut self,
        dy: &[f32],
        x: &[f32],
        pairs: impl Iterator<Item = (usize, usize)>,
        ks: &mut KernelScratch,
    ) {
        let (rows, c) = (self.rows, self.cols);
        let pairs = pairs.map(|(i, j)| (&dy[i * rows..(i + 1) * rows], &x[j * c..(j + 1) * c]));
        if c >= rows {
            pairs.for_each(|(dyi, xj)| self.grad_outer_add(dyi, xj));
            return;
        }
        let KernelScratch { nz, wt } = ks;
        let gt = &mut wt[0];
        transpose(&self.g, rows, c, gt);
        for (dyi, xj) in pairs {
            nz.compact(xj, c);
            for &(k, xv) in nz.row(0) {
                let gk = &mut gt[k as usize * rows..(k as usize + 1) * rows];
                for (gv, &d) in gk.iter_mut().zip(dyi.iter()) {
                    *gv += d * xv;
                }
            }
        }
        transpose(gt, c, rows, &mut self.g);
    }
}

/// `dst = srcᵀ` for a row-major `rows × cols` `src` (`dst` resized; every
/// element is overwritten).
fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut Vec<f32>) {
    dst.resize(rows * cols, 0.0);
    for (k, column) in dst.chunks_exact_mut(rows).enumerate() {
        for (d, &s) in column.iter_mut().zip(src[k..].iter().step_by(cols)) {
            *d = s;
        }
    }
}

/// The reusable buffers of the batched training kernels: one layer
/// input's compacted rows and up to three transposed weight (or weight
/// gradient) matrices. Storage only grows, so a scratch reused across
/// calls (each trainer slot's [`crate::BatchTape`] holds one) allocates
/// nothing once warm.
#[derive(Debug, Default)]
pub struct KernelScratch {
    pub(crate) nz: RowNz,
    pub(crate) wt: [Vec<f32>; 3],
}

/// The nonzero entries of every row of a node-major `n × c` buffer, each
/// row's in ascending column order: the one place the dense kernels look
/// at zeros. Built once per layer and shared by every product that reads
/// the layer's rows (the self, left-child and right-child terms of a tree
/// convolution). Storage only grows, so a reused `RowNz` (the scorer's)
/// allocates nothing once warm.
#[derive(Debug, Default)]
pub(crate) struct RowNz {
    nz: Vec<(u32, f32)>,
    /// Row `i`'s entries are `nz[start[i]..start[i + 1]]`.
    start: Vec<usize>,
}

impl RowNz {
    /// Replace the contents with the nonzeros of `x`, branch-free: every
    /// entry is written, and the cursor advances past the nonzero ones.
    pub(crate) fn compact(&mut self, x: &[f32], c: usize) {
        if self.nz.len() < x.len() {
            self.nz.resize(x.len(), (0, 0.0));
        }
        self.start.clear();
        self.start.push(0);
        let mut at = 0;
        for row in x.chunks_exact(c) {
            for (k, &v) in row.iter().enumerate() {
                self.nz[at] = (k as u32, v);
                at += (v != 0.0) as usize; // bao-lint: allow(no-float-eq) — exact-zero sparsity skip
            }
            self.start.push(at);
        }
    }

    pub(crate) fn row(&self, i: usize) -> &[(u32, f32)] {
        &self.nz[self.start[i]..self.start[i + 1]]
    }

    /// Row `j` of a child index, nothing for a missing child (`-1`).
    pub(crate) fn child(&self, j: i32) -> &[(u32, f32)] {
        if j < 0 {
            &[]
        } else {
            self.row(j as usize)
        }
    }
}

/// One product of [`axpy_nz`]: an input row's nonzeros and the weights
/// they scale, laid out so input `k` owns the contiguous row
/// `wt[k * y.len()..(k + 1) * y.len()]` (a transpose from
/// [`Param::transpose_into`], or `W` itself for an input gradient).
pub(crate) type Term<'a> = (&'a [(u32, f32)], &'a [f32]);

/// `y += Σ terms`, each term an axpy per nonzero input over the output
/// row. The output is cut into 32-, 16- and 8-wide tiles (then single
/// lanes) held in registers while every term streams through, so `y` is
/// read and written once per call; a 32-wide tile is eight independent
/// four-lane add chains, enough to hide the add latency on baseline
/// x86-64. Per output element the additions are in term order,
/// ascending `k`, zero inputs skipped — exactly the order of one axpy
/// per input element per term. The one dense kernel of the scorer and
/// of the batched training pass (forward GEMMs, input gradients), so the
/// scorer and the GEMM branch of the training forward agree to the bit.
#[inline]
pub(crate) fn axpy_nz(y: &mut [f32], terms: &[Term]) {
    let rows = y.len();
    let mut r0 = 0;
    let mut t32 = y.chunks_exact_mut(32);
    for yt in &mut t32 {
        axpy_tile::<32>(yt, r0, rows, terms);
        r0 += 32;
    }
    let mut t16 = t32.into_remainder().chunks_exact_mut(16);
    for yt in &mut t16 {
        axpy_tile::<16>(yt, r0, rows, terms);
        r0 += 16;
    }
    let mut t8 = t16.into_remainder().chunks_exact_mut(8);
    for yt in &mut t8 {
        axpy_tile::<8>(yt, r0, rows, terms);
        r0 += 8;
    }
    for yt in t8.into_remainder().chunks_exact_mut(1) {
        axpy_tile::<1>(yt, r0, rows, terms);
        r0 += 1;
    }
}

/// Output elements `r0..r0 + T` of [`axpy_nz`], in a fixed-size
/// accumulator.
#[inline(always)]
fn axpy_tile<const T: usize>(yt: &mut [f32], r0: usize, rows: usize, terms: &[Term]) {
    let mut acc = [0.0f32; T];
    acc.copy_from_slice(yt);
    for &(nz, wt) in terms {
        for &(k, xv) in nz {
            let w = &wt[k as usize * rows + r0..][..T];
            for (a, &wv) in acc.iter_mut().zip(w.iter()) {
                *a += xv * wv;
            }
        }
    }
    yt.copy_from_slice(&acc);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Capacity and data pointer of a buffer: equal before and after a
    /// call exactly when the call neither grew nor moved it.
    pub(crate) fn buf<T>(v: &Vec<T>) -> (usize, usize) {
        (v.capacity(), v.as_ptr() as usize)
    }

    impl KernelScratch {
        /// [`buf`] of every buffer (the trainer's allocation guard).
        pub(crate) fn buffers(&self) -> Vec<(usize, usize)> {
            let mut out = vec![buf(&self.nz.nz), buf(&self.nz.start)];
            out.extend(self.wt.iter().map(buf));
            out
        }
    }

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
        oracle::matvec_t_add(&p, &[1.0, 1.0], &mut dx);
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
        p.matmul_add(&x, &mut y_batch, n, &mut KernelScratch::default());
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
        p.matmul_t_add(&dy, &mut dx_batch, n, &mut KernelScratch::default());
        for i in 0..n {
            let mut dx = vec![0.0f32; 4];
            oracle::matvec_t_add(&p, &dy[i * 6..(i + 1) * 6], &mut dx);
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
        pa.grad_outer_batch_add(&dy, &x, n, &mut KernelScratch::default());
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
        let mut ks = KernelScratch::default();
        pa.grad_outer_gather_add(&dy, &x, &idx, &mut ks);
        pb.grad_outer_batch_add(&dy, &gathered, n, &mut ks);
        // Skipped rows only ever contributed `d * 0.0`: bit-for-bit equal.
        assert_eq!(
            pa.g.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            pb.g.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The batched kernels as they were before compaction and register
    /// tiles: plain loops, each the specification its replacement must
    /// match to the bit.
    mod oracle {
        use crate::layers::TreeConvParams;
        use crate::param::Param;

        /// `dx += Wᵀ dy` — the input gradient of `matvec_add`.
        pub fn matvec_t_add(p: &Param, dy: &[f32], dx: &mut [f32]) {
            for (r, &d) in dy.iter().enumerate() {
                if d == 0.0 {
                    continue;
                }
                let row = &p.w[r * p.cols..(r + 1) * p.cols];
                for (xg, &wv) in dx.iter_mut().zip(row.iter()) {
                    *xg += d * wv;
                }
            }
        }

        pub fn axpy_row(yi: &mut [f32], xi: &[f32], wt: &[f32]) {
            let rows = yi.len();
            for (k, &xv) in xi.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                let wk = &wt[k * rows..(k + 1) * rows];
                for (yv, &wv) in yi.iter_mut().zip(wk.iter()) {
                    *yv += xv * wv;
                }
            }
        }

        pub fn matmul_add(p: &Param, x: &[f32], y: &mut [f32], n: usize) {
            let rows_in_out = x.chunks_exact(p.cols).zip(y.chunks_exact_mut(p.rows));
            if n < Param::MATMUL_MIN_BATCH {
                rows_in_out.for_each(|(xi, yi)| p.matvec_add(xi, yi));
                return;
            }
            let mut wt = Vec::new();
            p.transpose_into(&mut wt);
            rows_in_out.for_each(|(xi, yi)| axpy_row(yi, xi, &wt));
        }

        pub fn matmul_gather_add(p: &Param, x: &[f32], idx: &[i32], y: &mut [f32]) {
            let c = p.cols;
            let n = idx.len();
            let rows_in_out = idx.iter().zip(y.chunks_exact_mut(p.rows)).filter_map(|(&j, yi)| {
                (j >= 0).then(|| (&x[j as usize * c..(j as usize + 1) * c], yi))
            });
            if n < Param::MATMUL_MIN_BATCH {
                rows_in_out.for_each(|(xj, yi)| p.matvec_add(xj, yi));
                return;
            }
            let mut wt = Vec::new();
            p.transpose_into(&mut wt);
            rows_in_out.for_each(|(xj, yi)| axpy_row(yi, xj, &wt));
        }

        pub fn matmul_t_add(p: &Param, dy: &[f32], dx: &mut [f32], n: usize) {
            let (c, rows) = (p.cols, p.rows);
            for i in 0..n {
                let dyi = &dy[i * rows..(i + 1) * rows];
                let dxi = &mut dx[i * c..(i + 1) * c];
                for (r, &d) in dyi.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let wr = &p.w[r * c..(r + 1) * c];
                    for (xg, &wv) in dxi.iter_mut().zip(wr.iter()) {
                        *xg += d * wv;
                    }
                }
            }
        }

        pub fn grad_outer_batch_add(p: &mut Param, dy: &[f32], x: &[f32], n: usize) {
            let (c, rows) = (p.cols, p.rows);
            for i in 0..n {
                p.grad_outer_add(&dy[i * rows..(i + 1) * rows], &x[i * c..(i + 1) * c]);
            }
        }

        pub fn grad_outer_gather_add(p: &mut Param, dy: &[f32], x: &[f32], idx: &[i32]) {
            let (c, rows) = (p.cols, p.rows);
            for (i, &j) in idx.iter().enumerate() {
                if j >= 0 {
                    let j = j as usize;
                    p.grad_outer_add(&dy[i * rows..(i + 1) * rows], &x[j * c..(j + 1) * c]);
                }
            }
        }

        pub fn tree_conv_forward_batch(
            p: &TreeConvParams,
            left: &[i32],
            right: &[i32],
            x: &[f32],
        ) -> Vec<f32> {
            let n = left.len();
            let mut y: Vec<f32> = p.bias.w.iter().copied().cycle().take(n * p.out_c()).collect();
            matmul_add(&p.top, x, &mut y, n);
            matmul_gather_add(&p.left, x, left, &mut y);
            matmul_gather_add(&p.right, x, right, &mut y);
            y
        }

        pub fn tree_conv_backward_batch_params(
            p: &mut TreeConvParams,
            left: &[i32],
            right: &[i32],
            x: &[f32],
            dy: &[f32],
        ) {
            for dyi in dy.chunks_exact(p.out_c()) {
                for (bg, &d) in p.bias.g.iter_mut().zip(dyi.iter()) {
                    *bg += d;
                }
            }
            grad_outer_batch_add(&mut p.top, dy, x, left.len());
            grad_outer_gather_add(&mut p.left, dy, x, left);
            grad_outer_gather_add(&mut p.right, dy, x, right);
        }

        pub fn tree_conv_backward_batch_input(
            p: &TreeConvParams,
            left: &[i32],
            right: &[i32],
            dy: &[f32],
        ) -> Vec<f32> {
            let (in_c, out_c) = (p.in_c(), p.out_c());
            let n = left.len();
            let mut dx = vec![0.0f32; n * in_c];
            matmul_t_add(&p.top, dy, &mut dx, n);
            for (w, child) in [(&p.left, left), (&p.right, right)] {
                for (i, &c) in child.iter().enumerate() {
                    if c >= 0 {
                        let c = c as usize;
                        let dyi = &dy[i * out_c..(i + 1) * out_c];
                        matvec_t_add(w, dyi, &mut dx[c * in_c..(c + 1) * in_c]);
                    }
                }
            }
            dx
        }
    }

    /// A node-major `n × c` buffer whose rows are, at random, all zero,
    /// one-hot, dense, or dense with exact zeros and `-0.0` mixed in.
    fn mixed_rows(rng: &mut impl Rng, n: usize, c: usize) -> Vec<f32> {
        let mut x = vec![0.0f32; n * c];
        for row in x.chunks_exact_mut(c) {
            match rng.gen_range(0..4u32) {
                0 => {}
                1 => row[rng.gen_range(0..c)] = rng.gen_range(0.5f32..2.0),
                2 => row.iter_mut().for_each(|v| *v = rng.gen_range(-1.0f32..1.0)),
                _ => row.iter_mut().for_each(|v| {
                    *v = match rng.gen_range(0..3u32) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-1.0f32..1.0),
                    }
                }),
            }
        }
        x
    }

    /// Every rewritten kernel against the loop it replaced, `to_bits`
    /// equal on `y`, `dx` and `g`: the `small` net's layer shapes and odd
    /// ones (tile tails, a 257-wide row), batches on both sides of
    /// `MATMUL_MIN_BATCH`, rows that are zero, one-hot or hold `-0.0`,
    /// exact-zero upstream gradients, and missing children. Gradients
    /// accumulate onto a nonzero `g`, as a second minibatch term would,
    /// and one kernel scratch and one set of output buffers serve every
    /// case, larger and smaller, as a trainer slot's workspace does.
    #[test]
    fn rewritten_kernels_match_their_oracles_bit_for_bit() {
        use crate::layers::{
            tree_conv_backward_batch_input, tree_conv_backward_batch_params,
            tree_conv_forward_batch, TreeConvParams,
        };
        let shapes = [(64, 13), (32, 64), (16, 32), (16, 16), (1, 16), (7, 5), (3, 257)];
        let mut rng = rng_from_seed(26);
        let mut ks = KernelScratch::default();
        let (mut y_conv, mut dx_conv) = (Vec::new(), Vec::new());
        for (case, &(rows, cols)) in shapes.iter().enumerate() {
            for n in [1usize, 3, 4, 9, 160] {
                let what = format!("{rows}x{cols}, n = {n}");
                let mut p = TreeConvParams::new(cols, rows, case as u64 * 31 + n as u64);
                p.bias = Param::he(rows, 1, n as u64);
                for q in [&mut p.top, &mut p.left, &mut p.right, &mut p.bias] {
                    q.g.iter_mut().for_each(|v| *v = rng.gen_range(-1.0f32..1.0));
                }
                let x = mixed_rows(&mut rng, n, cols);
                let dy = mixed_rows(&mut rng, n, rows);
                let mut child =
                    || -> Vec<i32> { (0..n).map(|_| rng.gen_range(-1..n as i32)).collect() };
                let (left, right) = (child(), child());

                let mut y = mixed_rows(&mut rng, n, rows);
                let mut y_old = y.clone();
                p.top.matmul_add(&x, &mut y, n, &mut ks);
                oracle::matmul_add(&p.top, &x, &mut y_old, n);
                assert_eq!(bits(&y), bits(&y_old), "matmul_add y, {what}");

                let mut dx = mixed_rows(&mut rng, n, cols);
                let mut dx_old = dx.clone();
                p.top.matmul_t_add(&dy, &mut dx, n, &mut ks);
                oracle::matmul_t_add(&p.top, &dy, &mut dx_old, n);
                assert_eq!(bits(&dx), bits(&dx_old), "matmul_t_add dx, {what}");

                let mut q = p.top.clone();
                p.top.grad_outer_batch_add(&dy, &x, n, &mut ks);
                oracle::grad_outer_batch_add(&mut q, &dy, &x, n);
                assert_eq!(bits(&p.top.g), bits(&q.g), "grad_outer_batch_add g, {what}");

                tree_conv_forward_batch(&p, &left, &right, &x, &mut y_conv, &mut ks);
                let y_old = oracle::tree_conv_forward_batch(&p, &left, &right, &x);
                assert_eq!(bits(&y_conv), bits(&y_old), "tree conv y, {what}");

                tree_conv_backward_batch_input(&p, &left, &right, &dy, &mut dx_conv, &mut ks);
                let dx_old = oracle::tree_conv_backward_batch_input(&p, &left, &right, &dy);
                assert_eq!(bits(&dx_conv), bits(&dx_old), "tree conv dx, {what}");

                let mut q = p.clone();
                tree_conv_backward_batch_params(&mut p, &left, &right, &x, &dy, &mut ks);
                oracle::tree_conv_backward_batch_params(&mut q, &left, &right, &x, &dy);
                let pairs = [
                    (&p.top, &q.top),
                    (&p.left, &q.left),
                    (&p.right, &q.right),
                    (&p.bias, &q.bias),
                ];
                for (a, b) in pairs {
                    assert_eq!(bits(&a.g), bits(&b.g), "tree conv g, {what}");
                }
            }
        }
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
