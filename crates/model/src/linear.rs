//! A linear operator that is either a dense `f32` matrix or a packed
//! low-bit weight served by the fused dequant-GEMM.
//!
//! Every projection in [`crate::reference::LayerWeights`] is a
//! [`LinearOp`]. The FP path stores a plain [`Matrix`]; a quantized
//! layer stores a [`PackedMatrix`] and never materializes `f32` weights
//! in memory — [`LinearOp::forward_t`] dequantizes one small tile at a
//! time inside the blocked GEMM. Both variants produce bit-identical
//! outputs to `x.matmul_t(dequantized_weight)`, so swapping the
//! representation never changes served tokens.

use crate::tensor::Matrix;
use llmpq_kernels::{qgemm_t, PackedMatrix};
use serde::{Deserialize, Serialize};

/// A linear projection in `(out_features, in_features)` orientation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LinearOp {
    /// Dense `f32` weights (the FP16-stand-in path).
    Dense(Matrix),
    /// Packed low-bit weights served by the fused dequant-GEMM.
    Packed(PackedMatrix),
}

impl LinearOp {
    /// Output features (rows of the `(out, in)` weight).
    pub fn out_features(&self) -> usize {
        match self {
            LinearOp::Dense(m) => m.rows,
            LinearOp::Packed(p) => p.rows,
        }
    }

    /// Input features (the GEMM reduction length).
    pub fn in_features(&self) -> usize {
        match self {
            LinearOp::Dense(m) => m.cols,
            LinearOp::Packed(p) => p.cols,
        }
    }

    /// Whether the operator is stored packed.
    pub fn is_packed(&self) -> bool {
        matches!(self, LinearOp::Packed(_))
    }

    /// `x · wᵀ` — the projection the transformer layers call. Dense
    /// weights run `Matrix::matmul_t`; packed weights run the fused
    /// dequant-GEMM, which is bit-identical to dequantizing first.
    pub fn forward_t(&self, x: &Matrix) -> Matrix {
        match self {
            LinearOp::Dense(m) => x.matmul_t(m),
            LinearOp::Packed(p) => {
                assert_eq!(x.cols, p.cols, "in_features mismatch");
                Matrix { rows: x.rows, cols: p.rows, data: qgemm_t(&x.data, x.rows, p) }
            }
        }
    }

    /// The dense matrix, for calibration/indicator paths that inspect
    /// FP weights. Panics on a packed operator — those paths run before
    /// quantization by construction.
    pub fn dense(&self) -> &Matrix {
        match self {
            LinearOp::Dense(m) => m,
            LinearOp::Packed(p) => panic!(
                "operator is packed ({} {}×{}); dense() is only valid on the FP model",
                p.bits, p.rows, p.cols
            ),
        }
    }

    /// Mutable dense access (same contract as [`LinearOp::dense`]).
    pub fn dense_mut(&mut self) -> &mut Matrix {
        match self {
            LinearOp::Dense(m) => m,
            LinearOp::Packed(p) => panic!(
                "operator is packed ({} {}×{}); dense_mut() is only valid on the FP model",
                p.bits, p.rows, p.cols
            ),
        }
    }

    /// Materialize the operator as a dense matrix (dequantizing if
    /// packed) — value-identical to what [`LinearOp::forward_t`]
    /// multiplies against.
    pub fn to_matrix(&self) -> Matrix {
        match self {
            LinearOp::Dense(m) => m.clone(),
            LinearOp::Packed(p) => Matrix { rows: p.rows, cols: p.cols, data: p.unpack() },
        }
    }

    /// Bytes this operator keeps resident: packed payload + scales
    /// for the quantized path, `4 · rows · cols` for the dense path.
    pub fn resident_bytes(&self) -> usize {
        match self {
            LinearOp::Dense(m) => m.data.len() * 4,
            LinearOp::Packed(p) => p.resident_bytes(),
        }
    }
}

impl From<Matrix> for LinearOp {
    fn from(m: Matrix) -> Self {
        LinearOp::Dense(m)
    }
}

impl From<PackedMatrix> for LinearOp {
    fn from(p: PackedMatrix) -> Self {
        LinearOp::Packed(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_kernels::{quantize_packed, PackBits};

    #[test]
    fn dense_forward_matches_matmul_t() {
        let x = Matrix::random(3, 16, 0.5, 1);
        let w = Matrix::random(8, 16, 0.5, 2);
        let op = LinearOp::Dense(w.clone());
        assert_eq!(op.forward_t(&x), x.matmul_t(&w));
    }

    #[test]
    fn packed_forward_bit_identical_to_dequant_matmul_t() {
        let x = Matrix::random(2, 24, 0.5, 3);
        let w = Matrix::random(10, 24, 0.5, 4);
        let p = quantize_packed(&w.data, 10, 24, PackBits::Int4, 8);
        let op = LinearOp::Packed(p);
        let fused = op.forward_t(&x);
        let reference = x.matmul_t_scalar(&op.to_matrix());
        assert_eq!(fused.rows, 2);
        assert_eq!(fused.cols, 10);
        for (a, b) in fused.data.iter().zip(&reference.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn resident_bytes_shrink_when_packed() {
        let w = Matrix::random(64, 128, 0.5, 5);
        let dense = LinearOp::Dense(w.clone());
        let packed = LinearOp::Packed(quantize_packed(&w.data, 64, 128, PackBits::Int4, 64));
        assert!(packed.resident_bytes() * 4 < dense.resident_bytes());
        assert_eq!(dense.out_features(), packed.out_features());
        assert_eq!(dense.in_features(), packed.in_features());
    }

    #[test]
    #[should_panic(expected = "only valid on the FP model")]
    fn dense_accessor_rejects_packed() {
        let w = Matrix::random(4, 8, 0.5, 6);
        LinearOp::Packed(quantize_packed(&w.data, 4, 8, PackBits::Int8, 8)).dense();
    }
}
