//! Distributional divergence between a quantized model and its
//! full-precision teacher.
//!
//! Perplexity measures quality against a corpus; these metrics measure
//! *drift from the teacher directly* — per-position KL divergence and
//! top-1 agreement of the next-token distributions — which is the
//! quantity quantization actually perturbs and is corpus-independent.
//! Used by the quality harness as a finer-grained companion to the
//! paper's PPL columns.

use crate::corpus::Corpus;
use llmpq_model::{Matrix, RefModel};
use serde::{Deserialize, Serialize};

/// Drift statistics of a model against its teacher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DivergenceReport {
    /// Mean per-position KL(teacher ‖ model), nats.
    pub mean_kl: f64,
    /// Fraction of positions where both models agree on the argmax token.
    pub top1_agreement: f64,
    /// Number of scored positions.
    pub positions: usize,
}

fn softmax(row: &[f32]) -> Vec<f64> {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v)) as f64;
    let exps: Vec<f64> = row.iter().map(|&v| ((v as f64) - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}

/// Compare `model` to `teacher` over every position of every corpus
/// sequence.
pub fn divergence(teacher: &RefModel, model: &RefModel, corpus: &Corpus) -> DivergenceReport {
    assert_eq!(teacher.cfg.vocab, model.cfg.vocab, "models must share a vocabulary");
    let stats: Vec<(f64, usize, usize)> = corpus
        .sequences
        .iter()
        .map(|seq| {
            let (t_logits, _): (Matrix, _) = teacher.prefill(&seq[..seq.len() - 1]);
            let (m_logits, _) = model.prefill(&seq[..seq.len() - 1]);
            let mut kl = 0.0f64;
            let mut agree = 0usize;
            for pos in 0..t_logits.rows {
                let p = softmax(t_logits.row(pos));
                let q = softmax(m_logits.row(pos));
                kl += p
                    .iter()
                    .zip(&q)
                    .map(|(&pi, &qi)| if pi > 0.0 { pi * (pi / qi.max(1e-12)).ln() } else { 0.0 })
                    .sum::<f64>();
                if argmax(t_logits.row(pos)) == argmax(m_logits.row(pos)) {
                    agree += 1;
                }
            }
            (kl, agree, t_logits.rows)
        })
        .collect();
    let total_kl: f64 = stats.iter().map(|s| s.0).sum();
    let total_agree: usize = stats.iter().map(|s| s.1).sum();
    let positions: usize = stats.iter().map(|s| s.2).sum();
    DivergenceReport {
        mean_kl: total_kl / positions as f64,
        top1_agreement: total_agree as f64 / positions as f64,
        positions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::standard_corpora;
    use llmpq_model::{RefConfig, RefModel};
    use llmpq_quant::{quantize_model_uniform, Bitwidth, Rounding};

    fn setup() -> (RefModel, Corpus) {
        let m = RefModel::new(RefConfig::tiny());
        let c = standard_corpora(&m, 4, 20).remove(0);
        (m, c)
    }

    #[test]
    fn self_divergence_is_zero() {
        let (m, c) = setup();
        let r = divergence(&m, &m, &c);
        assert!(r.mean_kl.abs() < 1e-9);
        assert_eq!(r.top1_agreement, 1.0);
        assert_eq!(r.positions, 4 * 19);
    }

    #[test]
    fn kl_grows_as_bits_shrink() {
        // A hotter, larger corpus than setup()'s: the int3 argmax-flip
        // assertion below needs positions where the teacher distribution
        // is flat enough that quantization noise can change the winner.
        let m = RefModel::new(RefConfig::tiny());
        let c = Corpus::sample("kl-ladder", &m, 8, 40, 1.6, 0xD1F);
        let mut prev_kl = 0.0;
        let mut prev_agree = 1.0;
        for bits in [Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int3] {
            let q = quantize_model_uniform(&m, bits, Rounding::Deterministic, 0);
            let r = divergence(&m, &q, &c);
            assert!(r.mean_kl >= prev_kl - 1e-9, "{bits}: KL {:.5} < {prev_kl:.5}", r.mean_kl);
            assert!(
                r.top1_agreement <= prev_agree + 0.05,
                "{bits}: agreement should not recover"
            );
            prev_kl = r.mean_kl;
            prev_agree = r.top1_agreement;
        }
        assert!(prev_kl > 0.0, "int3 must diverge measurably");
        assert!(prev_agree < 1.0, "int3 must flip some argmaxes");
    }

    #[test]
    fn kl_is_nonnegative() {
        let (m, c) = setup();
        let q = quantize_model_uniform(&m, Bitwidth::Int4, Rounding::Stochastic, 3);
        let r = divergence(&m, &q, &c);
        assert!(r.mean_kl >= 0.0);
        assert!((0.0..=1.0).contains(&r.top1_agreement));
    }

    #[test]
    #[should_panic(expected = "share a vocabulary")]
    fn rejects_vocab_mismatch() {
        let (m, c) = setup();
        let other = RefModel::new(RefConfig { vocab: 128, ..RefConfig::tiny() });
        divergence(&m, &other, &c);
    }
}
