//! Quantization-sensitivity indicators (paper §4.2, Table 6).
//!
//! An indicator assigns each `(layer, bitwidth)` pair a scalar ω
//! quantifying how much model quality suffers if that layer is served at
//! that precision. The assigner's ILP objective trades `θ·Σω` against
//! latency, so a good indicator steers low bits toward insensitive layers.
//!
//! Three implementations:
//!
//! * [`variance_indicator`] — the paper's contribution: the closed-form
//!   output-variance bound of Theorem 1, `ω(i,b) = Σ_o D_o·S_o(b)²·G(X_o)`
//!   where `D` is the operator fan-in, `S(b)` the quantization scale at
//!   `b` bits, and `G` folds calibration activation statistics
//!   (`Var[X]/4` deterministic, `(E[X]²+Var[X])/6` stochastic). Costs one
//!   calibration pass.
//! * [`hessian_indicator`] — the GPTQ/HAWQ-style baseline that actually
//!   evaluates `‖WX − W̃X‖²` per operator/bitwidth on calibration data.
//!   Accurate, but it quantizes every operator at every precision —
//!   Table 6 reports it 58–72× slower.
//! * [`random_indicator`] — ablation control.

use crate::bitwidth::Bitwidth;
use crate::calibrate::{calibrate, tap_layers, CalibrationReport};
use crate::quantizer::{quantize_matrix, Rounding};
use llmpq_model::{Matrix, RefModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which indicator to build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IndicatorKind {
    /// The paper's variance indicator under a rounding mode.
    Variance(Rounding),
    /// Hessian-proxy (measured ‖WX − W̃X‖²).
    Hessian(Rounding),
    /// Uniform-random ω, seeded.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// ω values for every `(layer, bitwidth)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndicatorTable {
    /// `omega[layer][k]` where `k` indexes [`Bitwidth::ALL`].
    pub omega: Vec<[f64; 4]>,
}

impl IndicatorTable {
    /// ω for a layer at a bitwidth.
    pub fn get(&self, layer: usize, bits: Bitwidth) -> f64 {
        let k = Bitwidth::ALL.iter().position(|b| *b == bits).unwrap();
        self.omega[layer][k]
    }

    /// Number of layers covered.
    pub fn n_layers(&self) -> usize {
        self.omega.len()
    }

    /// Rescale so the largest ω is `target` — the paper normalizes
    /// indicators to a common range before the Table 6 comparison so the
    /// latency/quality trade-off in the ILP is unaffected by indicator
    /// units.
    pub fn normalized_to(&self, target: f64) -> IndicatorTable {
        let max = self
            .omega
            .iter()
            .flat_map(|r| r.iter())
            .fold(0.0f64, |m, &v| m.max(v));
        if max == 0.0 {
            return self.clone();
        }
        let f = target / max;
        IndicatorTable {
            omega: self
                .omega
                .iter()
                .map(|r| [r[0] * f, r[1] * f, r[2] * f, r[3] * f])
                .collect(),
        }
    }

    /// Rescale so the *total* ω of a uniform-INT3 assignment equals
    /// `target` — the worst-case quality degradation becomes one unit.
    /// This gives the user scalar θ a stable meaning across models:
    /// `θ·Σω ∈ [0, θ]` regardless of layer count or weight scale.
    pub fn normalized_budget(&self, target: f64) -> IndicatorTable {
        let int3: f64 = (0..self.n_layers()).map(|l| self.get(l, Bitwidth::Int3)).sum();
        if int3 == 0.0 {
            return self.clone();
        }
        let f = target / int3;
        IndicatorTable {
            omega: self
                .omega
                .iter()
                .map(|r| [r[0] * f, r[1] * f, r[2] * f, r[3] * f])
                .collect(),
        }
    }

    /// Sum of ω over a per-layer bit assignment — the quality-degradation
    /// term of the ILP objective.
    pub fn total(&self, bits: &[Bitwidth]) -> f64 {
        bits.iter().enumerate().map(|(i, &b)| self.get(i, b)).sum()
    }
}

/// Mean squared per-row quantization scale of a weight matrix at `bits` —
/// the `S_W(b)²` statistic of Theorem 1, computed without materializing
/// the quantized payload.
fn mean_sq_scale(w: &Matrix, bits: Bitwidth) -> f64 {
    let Some(qmax) = bits.qmax() else { return 0.0 };
    let qmax = qmax as f64;
    let mut acc = 0.0f64;
    for r in 0..w.rows {
        let absmax = w.row(r).iter().fold(0.0f32, |m, &v| m.max(v.abs())) as f64;
        let s = absmax / qmax;
        acc += s * s;
    }
    acc / w.rows as f64
}

/// `G(X)` of Proposition 2 for each rounding mode.
fn g_of_x(mean: f64, var: f64, rounding: Rounding) -> f64 {
    match rounding {
        Rounding::Deterministic => var / 4.0,
        Rounding::Stochastic => (mean * mean + var) / 6.0,
    }
}

/// The paper's variance indicator: one calibration pass, then closed-form
/// per-(layer, bitwidth) scores.
pub fn variance_indicator(
    model: &RefModel,
    report: &CalibrationReport,
    rounding: Rounding,
) -> IndicatorTable {
    assert_eq!(report.n_layers(), model.cfg.n_layers, "calibration/model mismatch");
    let omega = model
        .layers
        .iter()
        .enumerate()
        .map(|(l, layer)| {
            let mut row = [0.0f64; 4];
            for (k, &bits) in Bitwidth::ALL.iter().enumerate() {
                if bits == Bitwidth::Fp16 {
                    row[k] = 0.0;
                    continue;
                }
                let mut total = 0.0;
                for ((_, w), stats) in layer.linear_operators().into_iter().zip(&report.stats[l]) {
                    let w = w.dense(); // indicators run on the FP model
                    let d = w.cols as f64; // fan-in: errors from D weights sum per output
                    let s2 = mean_sq_scale(w, bits);
                    total += d * s2 * g_of_x(stats.mean, stats.variance(), rounding);
                }
                row[k] = total;
            }
            row
        })
        .collect();
    IndicatorTable { omega }
}

/// Hessian-proxy indicator: measure `‖WX − W̃X‖²_F` per operator on real
/// calibration activations, summed per layer, for every candidate
/// bitwidth. This is the expensive baseline of Table 6.
pub fn hessian_indicator(model: &RefModel, sequences: &[Vec<usize>], rounding: Rounding) -> IndicatorTable {
    let mut omega = vec![[0.0f64; 4]; model.cfg.n_layers];
    for seq in sequences {
        tap_layers(model, seq, |l, taps| {
            for (k, &bits) in Bitwidth::ALL.iter().enumerate() {
                if bits == Bitwidth::Fp16 {
                    continue;
                }
                for ((_, w), input) in model.layers[l].linear_operators().into_iter().zip(taps.inputs()) {
                    let w = w.dense();
                    let dq = quantize_matrix(w, bits, rounding, 0xC0FFEE ^ l as u64).dequantize();
                    // ΔW = W − W̃; error energy = ‖X·ΔWᵀ‖²_F.
                    let mut dw = w.clone();
                    for (a, &b) in dw.data.iter_mut().zip(dq.data.iter()) {
                        *a -= b;
                    }
                    let e = input.matmul_t(&dw).frobenius();
                    omega[l][k] += e * e;
                }
            }
        });
    }
    IndicatorTable { omega }
}

/// Random indicator: ω drawn uniform in `(0, scale]`, zero at FP16 so the
/// "do nothing" option stays free.
pub fn random_indicator(n_layers: usize, seed: u64, scale: f64) -> IndicatorTable {
    let mut rng = SmallRng::seed_from_u64(seed);
    let omega = (0..n_layers)
        .map(|_| {
            let mut row = [0.0f64; 4];
            for (k, &bits) in Bitwidth::ALL.iter().enumerate() {
                row[k] = if bits == Bitwidth::Fp16 { 0.0 } else { rng.gen_range(f64::EPSILON..=scale) };
            }
            row
        })
        .collect();
    IndicatorTable { omega }
}

/// Build the requested indicator, running calibration internally.
/// Returns the table and the wall-clock seconds spent — the "Overhead"
/// column of Table 6.
pub fn build_indicator(
    kind: IndicatorKind,
    model: &RefModel,
    sequences: &[Vec<usize>],
) -> (IndicatorTable, f64) {
    let start = std::time::Instant::now();
    let table = match kind {
        IndicatorKind::Variance(r) => {
            let report = calibrate(model, sequences);
            variance_indicator(model, &report, r)
        }
        IndicatorKind::Hessian(r) => hessian_indicator(model, sequences, r),
        IndicatorKind::Random { seed } => random_indicator(model.cfg.n_layers, seed, 1.0),
    };
    (table, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_model::{RefConfig, RefModel};

    fn setup() -> (RefModel, Vec<Vec<usize>>) {
        let model = RefModel::new(RefConfig::tiny());
        let seqs = vec![vec![1, 2, 3, 4, 5, 6, 7, 8], vec![10, 20, 30, 40]];
        (model, seqs)
    }

    #[test]
    fn variance_indicator_monotone_in_bits() {
        let (model, seqs) = setup();
        let report = calibrate(&model, &seqs);
        let t = variance_indicator(&model, &report, Rounding::Deterministic);
        for l in 0..t.n_layers() {
            let w3 = t.get(l, Bitwidth::Int3);
            let w4 = t.get(l, Bitwidth::Int4);
            let w8 = t.get(l, Bitwidth::Int8);
            let w16 = t.get(l, Bitwidth::Fp16);
            assert!(w3 > w4 && w4 > w8 && w8 > w16, "layer {l}: {w3} {w4} {w8} {w16}");
            assert_eq!(w16, 0.0);
        }
    }

    #[test]
    fn hessian_indicator_monotone_in_bits() {
        let (model, seqs) = setup();
        let t = hessian_indicator(&model, &seqs, Rounding::Deterministic);
        for l in 0..t.n_layers() {
            assert!(t.get(l, Bitwidth::Int3) > t.get(l, Bitwidth::Int4));
            assert!(t.get(l, Bitwidth::Int4) > t.get(l, Bitwidth::Int8));
        }
    }

    #[test]
    fn variance_ranks_layers_like_hessian() {
        // The whole point of the indicator: it should order layers by
        // sensitivity similarly to the expensive measured baseline.
        let (model, seqs) = setup();
        let report = calibrate(&model, &seqs);
        let v = variance_indicator(&model, &report, Rounding::Deterministic);
        let h = hessian_indicator(&model, &seqs, Rounding::Deterministic);
        // Spearman on per-layer INT4 sensitivity.
        let rank = |t: &IndicatorTable| {
            let mut idx: Vec<usize> = (0..t.n_layers()).collect();
            idx.sort_by(|&a, &b| {
                t.get(a, Bitwidth::Int4).partial_cmp(&t.get(b, Bitwidth::Int4)).unwrap()
            });
            idx
        };
        // With only 2 layers in tiny config, the orders must simply agree.
        assert_eq!(rank(&v), rank(&h));
    }

    #[test]
    fn variance_indicator_is_much_cheaper_than_hessian() {
        let model = RefModel::new(RefConfig {
            n_layers: 4,
            hidden: 64,
            n_heads: 4,
            ffn: 128,
            vocab: 128,
            max_seq: 64,
            seed: 3,
            alibi: false,
        });
        let seqs: Vec<Vec<usize>> = (0..4).map(|i| (0..32).map(|j| (i * 31 + j * 7) % 128).collect()).collect();
        let (_, t_var) = build_indicator(IndicatorKind::Variance(Rounding::Deterministic), &model, &seqs);
        let (_, t_hes) = build_indicator(IndicatorKind::Hessian(Rounding::Deterministic), &model, &seqs);
        assert!(
            t_hes > t_var,
            "hessian ({t_hes:.4}s) should cost more than variance ({t_var:.4}s)"
        );
    }

    #[test]
    fn theorem1_bound_dominates_empirical_variance_inflation() {
        // Empirically check Theorem 1: the indicator's predicted added
        // variance should upper-bound (within sampling slack) the actual
        // output-variance inflation of a quantized operator.
        let w = Matrix::random(48, 48, 0.15, 5);
        let x = Matrix::random(256, 48, 1.0, 6);
        let y = x.matmul_t(&w);
        let dq = quantize_matrix(&w, Bitwidth::Int3, Rounding::Stochastic, 7).dequantize();
        let yq = x.matmul_t(&dq);
        let inflation = (yq.variance() - y.variance()).abs();
        let d = w.cols as f64;
        let s2 = mean_sq_scale(&w, Bitwidth::Int3);
        let bound = d * s2 * g_of_x(x.mean(), x.variance(), Rounding::Stochastic);
        assert!(
            inflation < bound * 3.0,
            "empirical {inflation:.5} vs bound {bound:.5}"
        );
        assert!(bound > 0.0);
    }

    #[test]
    fn random_indicator_reproducible_and_positive() {
        let a = random_indicator(6, 9, 1.0);
        let b = random_indicator(6, 9, 1.0);
        assert_eq!(a, b);
        for l in 0..6 {
            assert!(a.get(l, Bitwidth::Int3) > 0.0);
            assert_eq!(a.get(l, Bitwidth::Fp16), 0.0);
        }
    }

    #[test]
    fn normalization_preserves_ratios() {
        let (model, seqs) = setup();
        let report = calibrate(&model, &seqs);
        let t = variance_indicator(&model, &report, Rounding::Deterministic);
        let n = t.normalized_to(10.0);
        let max = n.omega.iter().flat_map(|r| r.iter()).fold(0.0f64, |m, &v| m.max(v));
        assert!((max - 10.0).abs() < 1e-9);
        let r_before = t.get(0, Bitwidth::Int3) / t.get(0, Bitwidth::Int4);
        let r_after = n.get(0, Bitwidth::Int3) / n.get(0, Bitwidth::Int4);
        assert!((r_before - r_after).abs() < 1e-9);
    }

    #[test]
    fn total_sums_selected_bits() {
        let (model, seqs) = setup();
        let report = calibrate(&model, &seqs);
        let t = variance_indicator(&model, &report, Rounding::Deterministic);
        let bits = vec![Bitwidth::Int4, Bitwidth::Fp16];
        let expect = t.get(0, Bitwidth::Int4);
        assert!((t.total(&bits) - expect).abs() < 1e-12);
    }
}
