//! Quality harness: turn a plan's bit assignment into PPL / accuracy.
//!
//! Serving-scale models (OPT-30b…BLOOM-176b) cannot run on a laptop, so
//! quality is measured on the *scaled stand-in*: a reference transformer
//! with the zoo model's exact layer count but reduced width (DESIGN.md
//! substitution table). A plan's per-layer bit assignment applies
//! one-to-one, so layer-sensitivity effects (Table 1) and mixed-precision
//! effects (Fig 4, Tables 4–7) keep their structure.

use llmpq_model::{zoo, ModelSpec, RefConfig, RefModel};
use llmpq_quant::{
    calibrate, quantize_model, variance_indicator, BitAssignment, IndicatorTable, Rounding,
};
use llmpq_quality::{perplexity_suite, standard_corpora, Corpus};

/// Stable per-model seed (FNV-1a over the name) so every experiment
/// sees the same stand-in.
fn model_seed(spec: &ModelSpec) -> u64 {
    spec.name
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

/// The scaled stand-in teacher for a zoo model: same layer count,
/// laptop-scale width.
pub fn scaled_teacher(spec: &ModelSpec) -> RefModel {
    let cfg = match spec.family {
        llmpq_model::ModelFamily::Bloom => {
            RefConfig::scaled_like_bloom(spec.n_layers, model_seed(spec))
        }
        llmpq_model::ModelFamily::Opt => RefConfig::scaled_like(spec.n_layers, model_seed(spec)),
    };
    RefModel::new(cfg)
}

/// Build the (normalized) variance indicator for a zoo model from its
/// scaled teacher — what the paper's Indicator Generator produces.
pub fn zoo_indicator(spec: &ModelSpec) -> IndicatorTable {
    let teacher = scaled_teacher(spec);
    let calib = llmpq_quality::corpus::calibration_set(&teacher, 4, 32);
    let report = calibrate(&teacher, &calib);
    variance_indicator(&teacher, &report, Rounding::Deterministic).normalized_budget(1.0)
}

/// Everything needed to score plans for one zoo model.
pub struct QualityHarness {
    /// The FP32 stand-in teacher.
    pub teacher: RefModel,
    /// Evaluation corpora (WikiText2/PTB/C4-like).
    pub corpora: Vec<Corpus>,
    /// Baseline (FP16) average perplexity.
    pub fp16_ppl: f64,
}

impl QualityHarness {
    /// Build the harness for a zoo model.
    pub fn new(spec: &ModelSpec) -> Self {
        let teacher = scaled_teacher(spec);
        let corpora = standard_corpora(&teacher, 6, 28);
        let fp16_ppl = perplexity_suite(&teacher, &corpora).average;
        Self { teacher, corpora, fp16_ppl }
    }

    /// Average PPL of the teacher quantized per `bits`.
    pub fn ppl(&self, bits: &BitAssignment) -> f64 {
        let q = quantize_model(&self.teacher, bits, Rounding::Deterministic, 0);
        perplexity_suite(&q, &self.corpora).average
    }
}

/// Resolve a zoo model by name, panicking with a clear message.
pub fn model_by_name(name: &str) -> ModelSpec {
    zoo::by_name(name).unwrap_or_else(|| panic!("unknown model '{name}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_quant::Bitwidth;

    #[test]
    fn harness_quantized_worse_than_fp16() {
        let spec = zoo::opt_1_3b();
        let h = QualityHarness::new(&spec);
        let int3 = h.ppl(&BitAssignment::uniform(spec.n_layers, Bitwidth::Int3));
        assert!(int3 > h.fp16_ppl, "int3 {int3} vs fp16 {}", h.fp16_ppl);
        let fp16 = h.ppl(&BitAssignment::uniform(spec.n_layers, Bitwidth::Fp16));
        assert!((fp16 - h.fp16_ppl).abs() < 1e-9);
    }

    #[test]
    fn indicator_matches_layer_count() {
        let spec = zoo::opt_1_3b();
        let ind = zoo_indicator(&spec);
        assert_eq!(ind.n_layers(), spec.n_layers);
        let int3_total: f64 = (0..ind.n_layers())
            .map(|l| ind.get(l, Bitwidth::Int3))
            .sum();
        assert!((int3_total - 1.0).abs() < 1e-9, "budget-normalized to 1.0");
    }

    #[test]
    fn teacher_is_deterministic_per_model() {
        let spec = zoo::opt_1_3b();
        let a = scaled_teacher(&spec);
        let b = scaled_teacher(&spec);
        assert_eq!(a.layers[0].wq, b.layers[0].wq);
        let other = scaled_teacher(&zoo::bloom_3b());
        assert_ne!(a.cfg.n_layers, other.cfg.n_layers);
    }
}
