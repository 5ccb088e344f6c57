//! Apply a bit assignment to a reference model.
//!
//! Quantized operators stay *packed* (`LinearOp::Packed`): the fused
//! dequant-GEMM serves them with bit-identical numerics to an FP16 GEMM
//! over dequantized weights, so quality experiments see exactly the
//! fake-quantization values while resident weight bytes shrink by
//! `bits/32`.

use crate::bitwidth::{BitAssignment, Bitwidth};
use crate::loader::load_stage_weights;
use crate::quantizer::Rounding;
use llmpq_model::RefModel;

/// Return a copy of `model` whose decoder layers are quantized per
/// `assignment` (layer `i` at `assignment.bits[i]`), stored packed: one
/// pass of the on-the-fly loader over every layer, so the result is what
/// the pipeline stages of the same assignment serve, bit for bit.
/// Embeddings, norms and biases stay FP16/FP32, as in the paper.
pub fn quantize_model(model: &RefModel, assignment: &BitAssignment, rounding: Rounding, seed: u64) -> RefModel {
    assert_eq!(
        assignment.len(),
        model.cfg.n_layers,
        "assignment must cover every layer"
    );
    let (layers, _) = load_stage_weights(model, 0, &assignment.bits, rounding, seed);
    model.with_layers(layers)
}

/// Quantize every layer to the same bitwidth.
pub fn quantize_model_uniform(model: &RefModel, bits: Bitwidth, rounding: Rounding, seed: u64) -> RefModel {
    quantize_model(model, &BitAssignment::uniform(model.cfg.n_layers, bits), rounding, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_model::{RefConfig, RefModel};

    fn corpus(model: &RefModel, n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let toks = model.generate(&[1 + i], 24, 0.9, 100 + i as u64).tokens;
                let mut s = vec![1 + i];
                s.extend(toks);
                s
            })
            .collect()
    }

    fn mean_nll(model: &RefModel, corpus: &[Vec<usize>]) -> f64 {
        corpus.iter().map(|s| model.nll(s)).sum::<f64>() / corpus.len() as f64
    }

    #[test]
    fn fp16_assignment_is_identity() {
        let model = RefModel::new(RefConfig::tiny());
        let q = quantize_model_uniform(&model, Bitwidth::Fp16, Rounding::Deterministic, 0);
        assert_eq!(q.layers[0].wq, model.layers[0].wq);
    }

    #[test]
    fn quantized_layers_stay_packed_and_shrink() {
        let model = RefModel::new(RefConfig::tiny());
        let q = quantize_model_uniform(&model, Bitwidth::Int4, Rounding::Deterministic, 0);
        for layer in &q.layers {
            for (name, op) in layer.linear_operators() {
                assert!(op.is_packed(), "{name} should be packed at int4");
            }
        }
        let dense: usize = model.layers.iter().map(|l| l.resident_weight_bytes()).sum();
        let packed: usize = q.layers.iter().map(|l| l.resident_weight_bytes()).sum();
        assert!(
            packed * 5 < dense,
            "int4 resident bytes {packed} should be well under a fifth of dense {dense}"
        );
    }

    #[test]
    fn the_memory_model_charges_what_a_packed_layer_holds() {
        // One decoder layer of a model shaped like the `ref256x4` serving
        // model: the planner's weight bytes (payload at `bits` plus
        // `quant_scale_bytes`) are the loaded layer's resident bytes, to
        // the byte. Two gaps stay open and are not asserted: int3 is
        // packed in nibbles (4 bits held, 3 charged), and FP16 weights
        // and KV are held as `f32` where the model charges 16 bits.
        use llmpq_model::{ModelFamily, ModelSpec, QUANT_GROUP};
        let (n_layers, hidden, n_heads, ffn, vocab, max_seq) = (4, 256, 4, 1024, 512, 512);
        let cfg = RefConfig { n_layers, hidden, n_heads, ffn, vocab, max_seq, seed: 11, alibi: false };
        let spec = ModelSpec::new(ModelFamily::Opt, "ref256x4", n_layers, hidden, n_heads, vocab, max_seq);
        assert_eq!(spec.ffn_hidden, cfg.ffn);
        let model = RefModel::new(cfg);
        for bits in [Bitwidth::Int8, Bitwidth::Int4] {
            let q = quantize_model_uniform(&model, bits, Rounding::Deterministic, 0);
            let charged = spec.linear_params_per_layer() as f64 * bits.bits_f64() / 8.0
                + spec.quant_scale_bytes(QUANT_GROUP);
            assert_eq!(charged, q.layers[0].resident_weight_bytes() as f64, "{bits}");
        }
    }

    #[test]
    fn packed_forward_matches_fake_quantize_forward() {
        // The bit-exactness contract end-to-end: serving from packed
        // weights generates the same tokens as the dequantize-everything
        // model the quality experiments used to build.
        use crate::quantizer::fake_quantize;
        let model = RefModel::new(RefConfig::tiny());
        let packed = quantize_model_uniform(&model, Bitwidth::Int4, Rounding::Deterministic, 0);
        // Deterministic rounding never reads the seed.
        let dequantized = |_, w: &llmpq_model::LinearOp| {
            fake_quantize(w.dense(), Bitwidth::Int4, Rounding::Deterministic, 0).into()
        };
        let layers = model.layers.iter().map(|l| l.map_operators(dequantized)).collect();
        let dense = model.with_layers(layers);
        let a = packed.generate(&[1, 2, 3], 12, 0.0, 0);
        let b = dense.generate(&[1, 2, 3], 12, 0.0, 0);
        assert_eq!(a, b, "packed and dequantized serving must emit identical tokens");
        let (la, _) = packed.prefill(&[4, 5, 6]);
        let (lb, _) = dense.prefill(&[4, 5, 6]);
        for (x, y) in la.data.iter().zip(&lb.data) {
            assert_eq!(x.to_bits(), y.to_bits(), "logits must be bit-identical");
        }
    }

    #[test]
    fn nll_degrades_monotonically_with_lower_bits() {
        // The Fig-4 mechanism end-to-end: uniform 3-bit worse than 4-bit
        // worse than 8-bit worse than FP16, on the model's own corpus.
        let model = RefModel::new(RefConfig::tiny());
        let corpus = corpus(&model, 3);
        let base = mean_nll(&model, &corpus);
        let mut prev = base;
        for bits in [Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int3] {
            let q = quantize_model_uniform(&model, bits, Rounding::Deterministic, 0);
            let nll = mean_nll(&q, &corpus);
            assert!(
                nll >= prev - 0.02,
                "{bits}: nll {nll:.4} should be >= {prev:.4}"
            );
            prev = nll;
        }
        let q3 = quantize_model_uniform(&model, Bitwidth::Int3, Rounding::Deterministic, 0);
        assert!(mean_nll(&q3, &corpus) > base, "int3 must be worse than fp16");
    }

    #[test]
    fn mixed_assignment_between_uniform_extremes() {
        // mixed4-8 should sit between uniform-4 and uniform-8 — the
        // paper's Fig 4 observation.
        let model = RefModel::new(RefConfig::tiny());
        let corpus = corpus(&model, 3);
        let u4 = mean_nll(
            &quantize_model_uniform(&model, Bitwidth::Int4, Rounding::Deterministic, 0),
            &corpus,
        );
        let u8 = mean_nll(
            &quantize_model_uniform(&model, Bitwidth::Int8, Rounding::Deterministic, 0),
            &corpus,
        );
        let mut mixed = BitAssignment::uniform(model.cfg.n_layers, Bitwidth::Int8);
        mixed.bits[0] = Bitwidth::Int4;
        let m = mean_nll(&quantize_model(&model, &mixed, Rounding::Deterministic, 0), &corpus);
        assert!(
            m <= u4 + 0.02 && m >= u8 - 0.02,
            "mixed {m:.4} should lie between int8 {u8:.4} and int4 {u4:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "cover every layer")]
    fn rejects_wrong_length_assignment() {
        let model = RefModel::new(RefConfig::tiny());
        let bad = BitAssignment::uniform(model.cfg.n_layers + 1, Bitwidth::Int8);
        quantize_model(&model, &bad, Rounding::Deterministic, 0);
    }
}
