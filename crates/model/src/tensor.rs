//! Minimal dense linear algebra for the reference transformer.
//!
//! A row-major `f32` matrix plus the handful of elementwise kernels a
//! decoder layer needs (LayerNorm, GELU). This is deliberately
//! simple — the reference model exists to propagate real quantization
//! error — and the arithmetic that decides a layer's time lives in the
//! kernels crate: `matmul_t` is its register-blocked GEMM (the one the
//! packed weights use), `gelu` its whole-vector kernel over the model's
//! one `exp` (attention applies the kernels crate's softmax itself).
//! `matmul` is a plain ikj loop, and every row loop runs on the calling
//! thread.

use llmpq_kernels::gemm_t;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix from existing row-major data.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Matrix with i.i.d. entries uniform in `[-scale, scale]`, seeded for
    /// reproducibility. `1/sqrt(cols)` scaling mimics trained-weight
    /// magnitudes so activations stay O(1) through the stack.
    pub fn random(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen_range(-scale..=scale)).collect();
        Self { rows, cols, data }
    }

    /// Borrow row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other` with an ikj-ordered loop per output row.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        out.data
            .chunks_mut(n)
            .enumerate()
            .for_each(|(i, out_row)| {
                let a_row = self.row(i);
                // No value-dependent skip here: a branch per k-step makes
                // GEMM timing input-dependent, which skews calibration.
                for (k, &a) in a_row.iter().enumerate() {
                    let b_row = other.row(k);
                    for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a * b;
                    }
                }
            });
        out
    }

    /// `self · otherᵀ` — the natural layout for projection weights stored
    /// as `(out_features, in_features)`. Every output is the scalar
    /// ascending-k dot product, computed by the kernels crate's
    /// register-blocked GEMM (bit-identical to [`Matrix::matmul_t_scalar`];
    /// each weight tile is staged once for all rows).
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "inner dimensions must agree");
        let data = gemm_t(&self.data, self.rows, &other.data, other.rows, other.cols);
        Matrix { rows: self.rows, cols: other.rows, data }
    }

    /// [`Matrix::matmul_t`] as the plain loop: one dependent ascending-k
    /// chain per output, one fused multiply-add (`a.mul_add(b, acc)`, a
    /// single rounding) per term. The reference the workspace's
    /// bit-identity tests hold the blocked kernel to.
    pub fn matmul_t_scalar(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            for j in 0..other.rows {
                let mut acc = 0.0f32;
                for (&a, &b) in self.row(i).iter().zip(other.row(j)) {
                    acc = a.mul_add(b, acc);
                }
                out.data[i * other.rows + j] = acc;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt()
    }

    /// Mean of all entries.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&x| x as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Population variance of all entries.
    pub fn variance(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.data.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / self.data.len() as f64
    }
}

/// In-place LayerNorm over each row: `(x - μ)/σ · γ + β`.
pub fn layer_norm(x: &mut Matrix, gamma: &[f32], beta: &[f32]) {
    assert_eq!(gamma.len(), x.cols);
    assert_eq!(beta.len(), x.cols);
    let cols = x.cols;
    x.data.chunks_mut(cols).for_each(|row| {
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv = 1.0 / (var + 1e-5).sqrt();
        for ((v, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
            *v = (*v - mean) * inv * g + b;
        }
    });
}

/// In-place GELU (tanh approximation, as used by OPT/BLOOM), with
/// `tanh` built on the model's `exp` ([`llmpq_kernels::elementwise`]).
pub fn gelu(x: &mut Matrix) {
    llmpq_kernels::gelu(&mut x.data);
}

/// `a += b` elementwise.
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.cols, b.cols);
    a.data.iter_mut().zip(&b.data).for_each(|(x, &y)| *x += y);
}

/// Add a bias row vector to every row of `a`.
pub fn add_bias(a: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), a.cols);
    let cols = a.cols;
    a.data.chunks_mut(cols).for_each(|row| {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let id = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_t_agrees_with_matmul() {
        let a = Matrix::random(5, 7, 1.0, 1);
        let b = Matrix::random(4, 7, 1.0, 2);
        // Build bᵀ explicitly.
        let mut bt = Matrix::zeros(7, 4);
        for i in 0..4 {
            for j in 0..7 {
                bt.data[j * 4 + i] = b.data[i * 7 + j];
            }
        }
        let c1 = a.matmul_t(&b);
        let c2 = a.matmul(&bt);
        for (x, y) in c1.data.iter().zip(c2.data.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_t_is_bit_identical_to_the_scalar_reference() {
        // One row (decode, the LM head) and several; 19 outputs leave a
        // partial panel.
        let b = Matrix::random(19, 37, 1.0, 6);
        for rows in [1, 5] {
            let a = Matrix::random(rows, 37, 1.0, 5);
            let (blocked, scalar) = (a.matmul_t(&b), a.matmul_t_scalar(&b));
            assert_eq!((blocked.rows, blocked.cols), (rows, 19));
            for (x, y) in blocked.data.iter().zip(&scalar.data) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(Matrix::zeros(0, 37).matmul_t(&b).data.is_empty());
        assert!(Matrix::zeros(0, 37).matmul_t_scalar(&b).data.is_empty());
    }

    #[test]
    fn layer_norm_normalizes() {
        let mut m = Matrix::random(3, 64, 5.0, 4);
        let gamma = vec![1.0; 64];
        let beta = vec![0.0; 64];
        layer_norm(&mut m, &gamma, &beta);
        for r in 0..3 {
            let row = m.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 64.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn gelu_fixed_points() {
        let mut m = Matrix::from_vec(1, 3, vec![0.0, 10.0, -10.0]);
        gelu(&mut m);
        assert!(m.data[0].abs() < 1e-6);
        assert!((m.data[1] - 10.0).abs() < 1e-3);
        assert!(m.data[2].abs() < 1e-3);
    }

    #[test]
    fn random_is_reproducible() {
        let a = Matrix::random(4, 4, 1.0, 42);
        let b = Matrix::random(4, 4, 1.0, 42);
        assert_eq!(a, b);
        let c = Matrix::random(4, 4, 1.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn variance_and_mean() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        assert!((m.mean() - 2.5).abs() < 1e-12);
        assert!((m.variance() - 1.25).abs() < 1e-12);
    }
}
