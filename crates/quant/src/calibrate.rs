//! Calibration: collect activation statistics per linear operator.
//!
//! The paper determines quantization statistics from calibration data
//! (128 segments of C4 in §6.1). The variance indicator needs only two
//! scalars per operator input — `E[X]` and `Var[X]` (the `G(X)` term in
//! Proposition 2) — so calibration here runs the reference model over a
//! handful of sequences and streams Welford statistics off the operator
//! input taps.

use llmpq_model::{forward_layer, KvCache, Matrix, OperatorTaps, OutRows, RefModel};
use serde::{Deserialize, Serialize};

/// Streaming mean/variance (Welford) over activation elements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OperatorStats {
    /// Number of elements observed.
    pub n: u64,
    /// Running mean `E[X]`.
    pub mean: f64,
    /// Sum of squared deviations (divide by `n` for `Var[X]`).
    m2: f64,
}

impl OperatorStats {
    /// Fold one activation value into the stream.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Population variance `Var[X]`.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Merge another stream into this one (parallel Welford).
    pub fn merge(&mut self, other: &OperatorStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
    }
}

/// Per-layer, per-operator activation statistics from a calibration run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// `stats[layer][op]`, `op` in
    /// [`llmpq_model::LayerWeights::linear_operators`] order.
    pub stats: Vec<[OperatorStats; 6]>,
}

impl CalibrationReport {
    /// Number of layers covered.
    pub fn n_layers(&self) -> usize {
        self.stats.len()
    }
}

/// Prefill `seq` through `model` layer by layer — the forward
/// [`RefModel::prefill`] runs, ALiBi included — handing `f` each layer's
/// index and operator taps; returns the final layer's hidden states.
pub(crate) fn tap_layers(model: &RefModel, seq: &[usize], mut f: impl FnMut(usize, &OperatorTaps)) -> Matrix {
    let mut cache = KvCache::new(model.cfg.n_layers, model.cfg.hidden);
    let mut x = model.embed_tokens(seq, 0);
    let mut taps = OperatorTaps::default();
    for (l, w) in model.layers.iter().enumerate() {
        x = forward_layer(&model.cfg, w, l, &x, &mut cache, OutRows::All, Some(&mut taps));
        f(l, &taps);
    }
    x
}

/// Run `model` over each calibration sequence (prefill only — the paper
/// calibrates on text segments) and collect activation statistics at the
/// input of every linear operator of every layer.
pub fn calibrate(model: &RefModel, sequences: &[Vec<usize>]) -> CalibrationReport {
    let mut stats = vec![[OperatorStats::default(); 6]; model.cfg.n_layers];
    for seq in sequences {
        assert!(!seq.is_empty(), "calibration sequence must be non-empty");
        tap_layers(model, seq, |l, taps| {
            for (s, input) in stats[l].iter_mut().zip(taps.inputs()) {
                for &v in &input.data {
                    s.push(v as f64);
                }
            }
        });
    }
    CalibrationReport { stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_model::RefConfig;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut s = OperatorStats::default();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0).collect();
        let mut whole = OperatorStats::default();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OperatorStats::default();
        let mut b = OperatorStats::default();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.n, whole.n);
        assert!((a.mean - whole.mean).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn calibration_covers_all_layers_and_ops() {
        let model = RefModel::new(RefConfig::tiny());
        let seqs = vec![vec![1, 2, 3, 4, 5], vec![9, 8, 7]];
        let report = calibrate(&model, &seqs);
        assert_eq!(report.n_layers(), model.cfg.n_layers);
        for l in 0..report.n_layers() {
            for ((op, _), s) in model.layers[l].linear_operators().iter().zip(&report.stats[l]) {
                assert!(s.n > 0, "layer {l} op {op} saw no data");
                assert!(s.variance() > 0.0, "layer {l} op {op} degenerate");
            }
        }
    }

    #[test]
    fn attention_inputs_are_normalized() {
        // wq/wk/wv taps sit right after LayerNorm, so their variance
        // should be near 1.
        let model = RefModel::new(RefConfig::tiny());
        let report = calibrate(&model, &[vec![3, 1, 4, 1, 5, 9, 2, 6]]);
        for l in 0..report.n_layers() {
            let v = report.stats[l][0].variance();
            assert!(v > 0.5 && v < 1.5, "layer {l} wq var {v}");
        }
    }

    #[test]
    fn the_taps_loop_runs_the_served_forward_under_alibi() {
        // Calibration must see the activations the model serves: under
        // ALiBi, no positional table and a distance bias per head.
        let model = RefModel::new(RefConfig { alibi: true, ..RefConfig::tiny() });
        let seq = [3, 1, 4, 1, 5, 9, 2, 6];
        let mut layers = 0;
        let x = tap_layers(&model, &seq, |l, _| {
            assert_eq!(l, layers);
            layers += 1;
        });
        assert_eq!(layers, model.cfg.n_layers);
        let (want, _) = model.prefill(&seq);
        let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&model.project_logits(&x)), bits(&want));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_sequence() {
        let model = RefModel::new(RefConfig::tiny());
        calibrate(&model, &[vec![]]);
    }
}
