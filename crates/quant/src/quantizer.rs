//! Symmetric per-channel weight quantization.
//!
//! Matches the numerics the paper builds on (§2.4): the weight range of
//! each output channel (row) is split into a fixed number of bins; each
//! weight is mapped to `round(w / s)` on a signed integer grid and
//! dequantized as `ŵ = s · q`. Two rounding modes are supported —
//! deterministic (round-to-nearest, as GPTQ/bitsandbytes) and stochastic
//! (unbiased randomized rounding) — because the paper's Theorem 1 derives
//! a different output-variance bound for each.

use crate::bitwidth::Bitwidth;
use llmpq_kernels::{PackBits, PackedMatrix, DEFAULT_GROUP};
use llmpq_model::{LinearOp, Matrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Rounding mode used when mapping weights onto the integer grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rounding {
    /// Round to nearest (used by GPTQ, SmoothQuant, bitsandbytes).
    Deterministic,
    /// Unbiased stochastic rounding: round up with probability equal to
    /// the fractional part.
    Stochastic,
}

/// A quantized weight matrix: `i8` payload + one `f32` scale per row
/// (output channel). Symmetric quantization, so no zero points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedMatrix {
    /// Rows (output channels).
    pub rows: usize,
    /// Columns (input features).
    pub cols: usize,
    /// Precision of the payload grid.
    pub bits: Bitwidth,
    /// Row-major quantized values in `[-qmax, qmax]`.
    pub q: Vec<i8>,
    /// Per-row scale factors `S_W` (the paper's scaling factor).
    pub scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Dequantize back to `f32`.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        out.data
            .chunks_mut(self.cols)
            .zip(self.q.chunks(self.cols))
            .zip(&self.scales)
            .for_each(|((dst, src), &s)| {
                for (d, &qv) in dst.iter_mut().zip(src) {
                    *d = qv as f32 * s;
                }
            });
        out
    }

    /// Storage bytes of this quantized matrix: payload at `bits` plus
    /// per-row FP16 scales.
    pub fn storage_bytes(&self) -> f64 {
        self.bits.payload_bytes((self.rows * self.cols) as u64) + self.rows as f64 * 2.0
    }

    /// Convert to the kernel crate's packed layout for fused serving.
    ///
    /// The per-row scale is replicated into every `group`-length group
    /// (zero points 0), so `PackedMatrix::unpack()` — and therefore the
    /// fused `qgemm_t` — reproduces [`QuantizedMatrix::dequantize`]
    /// bit-for-bit.
    pub fn to_packed(&self, group: usize) -> PackedMatrix {
        let bits = match self.bits {
            Bitwidth::Int3 => PackBits::Int3,
            Bitwidth::Int4 => PackBits::Int4,
            Bitwidth::Int8 => PackBits::Int8,
            Bitwidth::Fp16 => panic!("fp16 weights stay dense, not packed"),
        };
        PackedMatrix::from_rowwise(self.rows, self.cols, bits, group, &self.q, &self.scales)
    }
}

/// Quantize a dense operator and keep it packed: the serving-side
/// counterpart of [`fake_quantize`]. The returned [`LinearOp::Packed`]
/// forwards bit-identically to a dense forward over
/// `fake_quantize(m, …)` while keeping only `bits`-scaled payload bytes
/// resident.
pub fn pack_operator(m: &Matrix, bits: Bitwidth, rounding: Rounding, seed: u64) -> LinearOp {
    if bits == Bitwidth::Fp16 {
        return LinearOp::Dense(m.clone());
    }
    LinearOp::Packed(quantize_matrix(m, bits, rounding, seed).to_packed(DEFAULT_GROUP))
}

/// Quantize `m` row-wise to `bits` with the given `rounding`. The `seed`
/// only matters for stochastic rounding.
///
/// Every input has a defined result, carried unchanged through
/// [`QuantizedMatrix::to_packed`] and the fused GEMM (pinned by
/// `packed_edge_rows_have_defined_values`):
///
/// * an all-zero row gets scale 1 and grid 0 — it dequantizes to `+0.0`;
/// * a constant row lands on `±qmax` at scale `|c| / qmax`;
/// * a NaN weight is ignored by the row's range and stored as grid 0
///   (it dequantizes to `0.0`); the rest of its row is unaffected;
/// * a row holding `±inf` gets scale `+inf` and grid 0 throughout, so
///   the whole row dequantizes to NaN (`0 · inf`) and so does every
///   output computed from it — a poisoned row stays visibly poisoned.
///
/// FP16 is handled by the caller (no quantization); passing it here
/// panics, keeping the `i8` payload honest.
pub fn quantize_matrix(m: &Matrix, bits: Bitwidth, rounding: Rounding, seed: u64) -> QuantizedMatrix {
    let qmax = bits
        .qmax()
        .unwrap_or_else(|| panic!("cannot integer-quantize {bits}")) as f32;
    let cols = m.cols;
    let mut q = vec![0i8; m.rows * cols];
    let mut scales = vec![0.0f32; m.rows];
    q.chunks_mut(cols)
        .zip(&mut scales)
        .enumerate()
        .for_each(|(r, (qrow, scale))| {
            let row = m.row(r);
            let absmax = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let s = if absmax == 0.0 { 1.0 } else { absmax / qmax };
            *scale = s;
            match rounding {
                Rounding::Deterministic => {
                    for (qv, &w) in qrow.iter_mut().zip(row) {
                        let x = (w / s).round().clamp(-qmax, qmax);
                        *qv = x as i8;
                    }
                }
                Rounding::Stochastic => {
                    let mut rng = SmallRng::seed_from_u64(seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    for (qv, &w) in qrow.iter_mut().zip(row) {
                        let x = w / s;
                        let floor = x.floor();
                        let frac = x - floor;
                        let rounded = if rng.gen::<f32>() < frac { floor + 1.0 } else { floor };
                        *qv = rounded.clamp(-qmax, qmax) as i8;
                    }
                }
            }
        });
    QuantizedMatrix { rows: m.rows, cols: m.cols, bits, q, scales }
}

/// Quantize-dequantize a matrix in one step ("fake quantization") —
/// exactly what serving does numerically when a weight-only kernel
/// dequantizes on the fly into the FP16 GEMM.
pub fn fake_quantize(m: &Matrix, bits: Bitwidth, rounding: Rounding, seed: u64) -> Matrix {
    if bits == Bitwidth::Fp16 {
        return m.clone();
    }
    quantize_matrix(m, bits, rounding, seed).dequantize()
}

/// Mean squared quantization error of a matrix at `bits`.
pub fn quantization_mse(m: &Matrix, bits: Bitwidth, rounding: Rounding, seed: u64) -> f64 {
    if bits == Bitwidth::Fp16 {
        return 0.0;
    }
    let dq = fake_quantize(m, bits, rounding, seed);
    m.data
        .iter()
        .zip(dq.data.iter())
        .map(|(&a, &b)| ((a - b) as f64).powi(2))
        .sum::<f64>()
        / m.data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::random(16, 32, 0.3, 42)
    }

    #[test]
    fn dequantize_error_bounded_by_half_scale() {
        let m = sample();
        for bits in [Bitwidth::Int3, Bitwidth::Int4, Bitwidth::Int8] {
            let qm = quantize_matrix(&m, bits, Rounding::Deterministic, 0);
            let dq = qm.dequantize();
            for r in 0..m.rows {
                let s = qm.scales[r];
                for (a, b) in m.row(r).iter().zip(dq.row(r)) {
                    assert!(
                        (a - b).abs() <= s * 0.5 + 1e-6,
                        "{bits}: err {} > s/2 {}",
                        (a - b).abs(),
                        s * 0.5
                    );
                }
            }
        }
    }

    #[test]
    fn error_decreases_with_bits() {
        let m = sample();
        let e3 = quantization_mse(&m, Bitwidth::Int3, Rounding::Deterministic, 0);
        let e4 = quantization_mse(&m, Bitwidth::Int4, Rounding::Deterministic, 0);
        let e8 = quantization_mse(&m, Bitwidth::Int8, Rounding::Deterministic, 0);
        let e16 = quantization_mse(&m, Bitwidth::Fp16, Rounding::Deterministic, 0);
        assert!(e3 > e4 && e4 > e8 && e8 > e16);
        assert_eq!(e16, 0.0);
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        // Mean dequantized value over many seeds approaches the original.
        let m = Matrix::from_vec(1, 1, vec![0.137]);
        let mut sum = 0.0f64;
        let n = 4000;
        for seed in 0..n {
            let dq = fake_quantize(&m, Bitwidth::Int4, Rounding::Stochastic, seed);
            sum += dq.data[0] as f64;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 0.137).abs() < 0.002,
            "stochastic rounding biased: mean {mean}"
        );
    }

    #[test]
    fn deterministic_ignores_seed() {
        let m = sample();
        let a = quantize_matrix(&m, Bitwidth::Int4, Rounding::Deterministic, 1);
        let b = quantize_matrix(&m, Bitwidth::Int4, Rounding::Deterministic, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn stochastic_is_reproducible() {
        let m = sample();
        let a = quantize_matrix(&m, Bitwidth::Int4, Rounding::Stochastic, 5);
        let b = quantize_matrix(&m, Bitwidth::Int4, Rounding::Stochastic, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn payload_within_grid() {
        let m = sample();
        for bits in [Bitwidth::Int3, Bitwidth::Int4, Bitwidth::Int8] {
            let qm = quantize_matrix(&m, bits, Rounding::Stochastic, 9);
            let qmax = bits.qmax().unwrap() as i8;
            assert!(qm.q.iter().all(|&v| v >= -qmax && v <= qmax));
        }
    }

    #[test]
    fn zero_row_is_stable() {
        let m = Matrix::zeros(2, 8);
        let qm = quantize_matrix(&m, Bitwidth::Int8, Rounding::Deterministic, 0);
        assert!(qm.dequantize().data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn packed_edge_rows_have_defined_values() {
        use llmpq_kernels::qgemm_t;
        // k = 37 at group 16 leaves a short last group; 6 rows a padded panel.
        let (k, group) = (37, 16);
        let mut m = Matrix::random(6, k, 0.3, 7);
        m.row_mut(0).fill(0.0);
        m.row_mut(1).fill(-0.75);
        m.row_mut(2)[5] = f32::NAN;
        m.row_mut(3)[9] = f32::INFINITY;
        m.row_mut(4)[0] = f32::NEG_INFINITY;
        let x = Matrix::random(3, k, 0.5, 8);
        for bits in [Bitwidth::Int3, Bitwidth::Int4, Bitwidth::Int8] {
            for rounding in [Rounding::Deterministic, Rounding::Stochastic] {
                let qm = quantize_matrix(&m, bits, rounding, 3);
                let qmax = bits.qmax().unwrap() as i8;
                assert!(qm.q.iter().all(|&v| (-qmax..=qmax).contains(&v)), "{bits}: grid stays in range");
                let packed = qm.to_packed(group);
                let dq = qm.dequantize();
                // The packed form is the row-wise dequantization, NaN for NaN.
                for (u, d) in packed.unpack().iter().zip(&dq.data) {
                    assert!(u.to_bits() == d.to_bits() || (u.is_nan() && d.is_nan()), "{bits}: {u} vs {d}");
                }
                assert_eq!(qm.scales[0], 1.0);
                assert!(dq.row(0).iter().all(|v| v.to_bits() == 0), "{bits}: zero row is +0.0");
                if rounding == Rounding::Deterministic {
                    assert!(qm.q[k..2 * k].iter().all(|&v| v == -qmax), "{bits}: constant row sits on -qmax");
                    assert!(dq.row(1).iter().all(|v| (v + 0.75).abs() < 1e-6));
                }
                assert_eq!(qm.q[2 * k + 5], 0, "{bits}: NaN weight stores grid 0");
                assert!(qm.scales[2].is_finite() && dq.row(2).iter().all(|v| v.is_finite()));
                for r in [3, 4] {
                    assert_eq!(qm.scales[r], f32::INFINITY);
                    assert!(qm.q[r * k..(r + 1) * k].iter().all(|&v| v == 0));
                    assert!(dq.row(r).iter().all(|v| v.is_nan()), "{bits}: inf row dequantizes to NaN");
                }
                // The fused GEMM agrees with the scalar product over the
                // dequantized matrix: NaN exactly on the poisoned rows.
                let fused = qgemm_t(&x.data, x.rows, &packed);
                let reference = x.matmul_t_scalar(&dq);
                for (i, (f, r)) in fused.iter().zip(&reference.data).enumerate() {
                    let poisoned = matches!(i % m.rows, 3 | 4);
                    assert_eq!(f.is_nan(), poisoned, "{bits}: output {i}");
                    assert!(f.to_bits() == r.to_bits() || poisoned, "{bits}: output {i}: {f} vs {r}");
                }
            }
        }
    }

    #[test]
    fn storage_accounts_scales() {
        let m = sample();
        let qm = quantize_matrix(&m, Bitwidth::Int8, Rounding::Deterministic, 0);
        assert_eq!(qm.storage_bytes(), 16.0 * 32.0 + 16.0 * 2.0);
    }

    #[test]
    #[should_panic(expected = "cannot integer-quantize")]
    fn rejects_fp16_grid() {
        quantize_matrix(&sample(), Bitwidth::Fp16, Rounding::Deterministic, 0);
    }
}
