//! Perplexity evaluation.

use crate::corpus::Corpus;
use llmpq_model::RefModel;
use serde::{Deserialize, Serialize};

/// Mean per-token negative log-likelihood of a model over a corpus,
/// summed sequence by sequence in corpus order.
pub fn mean_nll(model: &RefModel, corpus: &Corpus) -> f64 {
    let (total, tokens): (f64, usize) = corpus
        .sequences
        .iter()
        .map(|s| (model.nll(s) * (s.len() - 1) as f64, s.len() - 1))
        .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    total / tokens as f64
}

/// Perplexity: `exp(mean NLL)`. "Smaller PPL means the model is more
/// confident in its prediction" (Fig 4 caption).
pub fn perplexity(model: &RefModel, corpus: &Corpus) -> f64 {
    mean_nll(model, corpus).exp()
}

/// Per-corpus perplexities plus their average — the "Avg. Perplexity"
/// column of Tables 1/4/5/6/7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PplReport {
    /// `(corpus name, PPL)` rows.
    pub per_corpus: Vec<(String, f64)>,
    /// Mean over corpora.
    pub average: f64,
}

/// Evaluate a model on several corpora.
pub fn perplexity_suite(model: &RefModel, corpora: &[Corpus]) -> PplReport {
    assert!(!corpora.is_empty());
    let per_corpus: Vec<(String, f64)> = corpora
        .iter()
        .map(|c| (c.name.clone(), perplexity(model, c)))
        .collect();
    let average = per_corpus.iter().map(|(_, p)| p).sum::<f64>() / per_corpus.len() as f64;
    PplReport { per_corpus, average }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::standard_corpora;
    use llmpq_model::{RefConfig, RefModel};
    use llmpq_quant::{quantize_model_uniform, Bitwidth, Rounding};

    #[test]
    fn teacher_beats_quantized_on_every_corpus() {
        let m = RefModel::new(RefConfig::tiny());
        let corpora = standard_corpora(&m, 4, 24);
        let q3 = quantize_model_uniform(&m, Bitwidth::Int3, Rounding::Deterministic, 0);
        for c in &corpora {
            let base = perplexity(&m, c);
            let quant = perplexity(&q3, c);
            assert!(quant > base, "{}: {quant} should exceed {base}", c.name);
        }
    }

    #[test]
    fn suite_average_is_mean() {
        let m = RefModel::new(RefConfig::tiny());
        let corpora = standard_corpora(&m, 3, 16);
        let r = perplexity_suite(&m, &corpora);
        let mean = r.per_corpus.iter().map(|(_, p)| p).sum::<f64>() / 3.0;
        assert!((r.average - mean).abs() < 1e-12);
        assert_eq!(r.per_corpus.len(), 3);
    }

    #[test]
    fn lower_temperature_corpus_has_lower_ppl() {
        let m = RefModel::new(RefConfig::tiny());
        let corpora = standard_corpora(&m, 6, 24);
        let ppl: Vec<f64> = corpora.iter().map(|c| perplexity(&m, c)).collect();
        // ptb-syn (T=0.75) should be easier than c4-syn (T=1.0).
        assert!(ppl[1] < ppl[2], "ptb {} vs c4 {}", ppl[1], ppl[2]);
    }

    #[test]
    fn nll_weighted_by_sequence_length() {
        let m = RefModel::new(RefConfig::tiny());
        let c = Corpus {
            name: "mixed".into(),
            sequences: vec![vec![1, 2, 3], vec![4, 5, 6, 7, 8, 9]],
        };
        let manual = (m.nll(&c.sequences[0]) * 2.0 + m.nll(&c.sequences[1]) * 5.0) / 7.0;
        assert!((mean_nll(&m, &c) - manual).abs() < 1e-12);
    }
}
