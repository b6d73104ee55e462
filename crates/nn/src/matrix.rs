//! Dense row-major matrices over `f32`.
//!
//! The MOCC policy networks are tiny (two hidden layers of 64 and 32
//! units), so plain row-major storage suffices. `matmul`, `matmul_t`
//! and the forward pass share one blocked kernel, `Matrix::accumulate`,
//! whose fixed per-element order keeps every result bit reproducible.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Depth-blocking edge for the blocked matmul kernels: a 64-deep slice
/// of the right-hand operand (≤ 64 × 64 × 4 B = 16 KiB) stays resident
/// in L1 while every output row streams over it. Blocks are visited in
/// ascending order, so per-element accumulation order — and therefore
/// every bit of the result — is identical to the naive triple loop.
pub(crate) const K_BLOCK: usize = 64;

/// A dense `rows × cols` matrix of `f32` in row-major order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `data[r * cols + c]`.
    pub data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty 0 × 0 matrix (a reusable scratch buffer in its initial
    /// state).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// A 1×n row matrix wrapping a slice.
    pub fn row_vector(xs: &[f32]) -> Self {
        Matrix::from_vec(1, xs.len(), xs.to_vec())
    }

    /// Xavier/Glorot-uniform initialization, the conventional choice for
    /// tanh networks like the MOCC policy.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..limit))
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows × cols` reusing the existing allocation. The
    /// contents are unspecified afterwards — callers overwrite every
    /// element. No allocation occurs once the buffer has grown to its
    /// steady-state size.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows × cols` and zeroes every element, reusing the
    /// existing allocation.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.reshape(rows, cols);
        self.fill_zero();
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self · other` written into `out` (reshaped to
    /// fit, allocation-free at steady state). Inner loops are blocked
    /// over the shared dimension in ascending `K_BLOCK` tiles, which
    /// keeps the active slice of `other` cache-resident while leaving
    /// the per-element accumulation order — and hence every result bit
    /// — identical to the naive loop.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        out.reshape_zeroed(self.rows, other.cols);
        Matrix::accumulate(self, other, out);
    }

    /// `selfᵀ · other`, without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let srow = self.row(r);
            let orow = other.row(r);
            for (k, &a) in srow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(k);
                for c in 0..other.cols {
                    out_row[c] += a * orow[c];
                }
            }
        }
        out
    }

    /// `self · otherᵀ` on the blocked `Matrix::accumulate` kernel. Each
    /// element stays one +0.0-started chain adding `self[r][k] ·
    /// other[c][k]` in ascending `k`; the kernel's zero-skip only drops
    /// adds of ±0, so this is bitwise the serial dot product for finite inputs.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t dimension mismatch");
        self.matmul(&other.transpose())
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Adds `bias` (length `cols`) to every row, in place.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (x, b) in self.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Applies `f` to every element, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise product, in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard_inplace(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (x, y) in self.data.iter_mut().zip(&other.data) {
            *x *= y;
        }
    }

    /// Accumulates `x · w` into the pre-initialized `out` (`+=`, not
    /// `=`): the one blocked kernel behind both [`Matrix::matmul_into`]
    /// (zero-initialized `out`) and the bias-initialized dense-layer
    /// forward in `mlp.rs` — a single implementation is what keeps the
    /// "batched == scalar, bitwise" contract from depending on two
    /// hand-synchronized copies of the same loop. Blocks the shared
    /// dimension in ascending `K_BLOCK` tiles so the active slice of
    /// `w` stays cache-resident across rows; per-element accumulation
    /// order is ascending `k`, identical to the naive triple loop.
    pub(crate) fn accumulate(x: &Matrix, w: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(x.cols, w.rows);
        debug_assert_eq!(out.rows, x.rows);
        debug_assert_eq!(out.cols, w.cols);
        // The traversal lives in `simd.rs` so the inner `out += a·w`
        // step can dispatch to the vector backends; every backend is
        // bitwise identical to the plain loop (see `simd::axpy`).
        crate::simd::accumulate(x, w, out);
    }

    /// Sums each column into a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// `self += k * other`.
    pub fn axpy(&mut self, k: f32, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len(), "axpy shape mismatch");
        for (x, y) in self.data.iter_mut().zip(&other.data) {
            *x += k * y;
        }
    }

    /// Horizontal concatenation `[self | other]` (same row count).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// A copy of columns `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_cols(&self, from: usize, to: usize) -> Matrix {
        assert!(from <= to && to <= self.cols, "column range out of bounds");
        let mut out = Matrix::zeros(self.rows, to - from);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[from..to]);
        }
        out
    }

    /// Copies columns `[from, to)` into `out` (reshaped to fit,
    /// allocation-free at steady state).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn copy_cols_into(&self, from: usize, to: usize, out: &mut Matrix) {
        assert!(from <= to && to <= self.cols, "column range out of bounds");
        out.reshape(self.rows, to - from);
        for r in 0..self.rows {
            let src = &self.row(r)[from..to];
            out.row_mut(r).copy_from_slice(src);
        }
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[1., 0., 0., 1., 1., 1.]);
        assert_eq!(a.t_matmul(&b).data, a.transpose().matmul(&b).data);
    }

    /// A random matrix with about a quarter of its entries `0.0` or
    /// `-0.0`, so the kernel's zero-skip is exercised on both signs.
    fn with_zeros(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        })
    }

    /// `matmul_t` is bitwise the serial dot product it replaced — one
    /// accumulator per element, starting at +0.0, ascending `k` — across
    /// the K_BLOCK edge, with ±0 entries, and at the PPO backward shapes
    /// 64×64·(46×64)ᵀ and 64×32·(64×32)ᵀ.
    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(4, 3, &[1., 0., 0., 0., 1., 0., 0., 0., 1., 1., 1., 1.]);
        assert_eq!(a.matmul_t(&b).data, a.matmul(&b.transpose()).data);

        let mut rng = StdRng::seed_from_u64(12);
        for (rows, k, n) in [
            (3, 5, 4),
            (2, K_BLOCK + 7, 9),
            (5, 2 * K_BLOCK + 1, 3),
            (64, 64, 46),
            (64, 32, 64),
        ] {
            let mut a = with_zeros(rows, k, &mut rng);
            a.row_mut(0).fill(-0.0); // Every add skipped: must stay +0.0.
            let b = with_zeros(n, k, &mut rng);
            let mut serial = Matrix::zeros(rows, n);
            for r in 0..rows {
                let srow = a.row(r);
                for c in 0..n {
                    let orow = b.row(c);
                    let mut acc = 0.0;
                    for k in 0..a.cols {
                        acc += srow[k] * orow[k];
                    }
                    serial.set(r, c, acc);
                }
            }
            let out = a.matmul_t(&b);
            assert_eq!((out.rows, out.cols), (rows, n));
            for (x, y) in out.data.iter().zip(&serial.data) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "matmul_t drifted at {rows}x{k}x{n}"
                );
            }
            assert!(out.row(0).iter().all(|x| x.to_bits() == 0));
        }
    }

    #[test]
    fn broadcast_and_sums() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.col_sums(), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Matrix::xavier(64, 32, &mut rng);
        let limit = (6.0f32 / 96.0).sqrt();
        assert!(w.data.iter().all(|x| x.abs() <= limit));
        // Not all identical.
        assert!(w.data.iter().any(|&x| x != w.data[0]));
    }

    #[test]
    fn hstack_and_slice_roundtrip() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(2, 3, &[5., 6., 7., 8., 9., 10.]);
        let c = a.hstack(&b);
        assert_eq!(c.cols, 5);
        assert_eq!(c.row(0), &[1., 2., 5., 6., 7.]);
        assert_eq!(c.slice_cols(0, 2).data, a.data);
        assert_eq!(c.slice_cols(2, 5).data, b.data);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// The blocked kernel must agree with the naive triple loop to the
    /// last bit, including across the K_BLOCK boundary and with ±0
    /// entries on both sides.
    #[test]
    fn matmul_into_bitwise_matches_naive() {
        let mut rng = StdRng::seed_from_u64(9);
        for (m, k, n) in [(3, 5, 4), (2, K_BLOCK + 7, 9), (1, 200, 33), (64, 64, 46)] {
            let a = with_zeros(m, k, &mut rng);
            let b = with_zeros(k, n, &mut rng);
            // Naive reference with the documented accumulation order.
            let mut naive = Matrix::zeros(m, n);
            for r in 0..m {
                for kk in 0..k {
                    let x = a.get(r, kk);
                    for c in 0..n {
                        let v = naive.get(r, c) + x * b.get(kk, c);
                        naive.set(r, c, v);
                    }
                }
            }
            let mut out = Matrix::default();
            a.matmul_into(&b, &mut out);
            for (x, y) in out.data.iter().zip(&naive.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "blocked kernel drifted");
            }
        }
    }

    #[test]
    fn matmul_into_reuses_buffer_across_shapes() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let mut out = Matrix::zeros(5, 5); // Wrong shape, stale contents.
        out.map_inplace(|_| 99.0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.rows, 2);
        assert_eq!(out.cols, 2);
        assert_eq!(out.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn reshape_and_copy_cols() {
        let a = m(2, 4, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let mut out = Matrix::default();
        a.copy_cols_into(1, 3, &mut out);
        assert_eq!(out.rows, 2);
        assert_eq!(out.cols, 2);
        assert_eq!(out.data, vec![2., 3., 6., 7.]);
        let mut z = Matrix::default();
        z.reshape_zeroed(2, 2);
        assert_eq!(z.data, vec![0.0; 4]);
    }
}
