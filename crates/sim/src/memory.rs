//! Allocator-level "measured" peak memory of a model shard.
//!
//! This is the real-system side of the Fig 7 fidelity experiment: it
//! walks an actual serving timeline (load weights → pre-allocate KV →
//! run prefill → run decode) with caching-allocator behaviour (block
//! rounding, workspace reuse), which the analytical cost model in
//! `llmpq-cost` then has to predict.

use llmpq_model::{ModelSpec, Phase, QUANT_GROUP, SCALE_BYTES};
use llmpq_quant::Bitwidth;

/// CUDA caching allocators hand out memory in 2 MiB blocks. This and
/// the context size below are stated again in `llmpq_cost::memory` on
/// purpose: this module is the ground truth `fig7_cost_fidelity` holds
/// that model against, so it must not read the model's constants.
const BLOCK: f64 = 2.0 * 1024.0 * 1024.0;

fn round_block(bytes: f64) -> f64 {
    (bytes / BLOCK).ceil() * BLOCK
}

/// Peak temporary (workspace) bytes of one decoder layer in `phase`:
/// the largest live intermediate — MLP activations and attention scores
/// in FP16, plus a dequantization scratch for weight-only kernels.
pub fn layer_workspace_bytes(
    spec: &ModelSpec,
    phase: Phase,
    batch: usize,
    prompt_len: usize,
    bits: Bitwidth,
) -> f64 {
    let h = spec.hidden as f64;
    let f = spec.ffn_hidden as f64;
    let b = batch as f64;
    let tokens = match phase {
        Phase::Prefill => prompt_len as f64,
        Phase::Decode => 1.0,
    };
    let mlp_act = b * tokens * f * 2.0;
    let attn_scores = match phase {
        Phase::Prefill => b * spec.n_heads as f64 * (prompt_len as f64) * (prompt_len as f64) * 2.0,
        Phase::Decode => b * spec.n_heads as f64 * (prompt_len as f64) * 2.0,
    };
    // Weight-only kernels dequantize one projection tile into FP16.
    let dequant_scratch = if bits.is_quantized() && bits != Bitwidth::Int8 {
        h * f * 2.0
    } else {
        0.0
    };
    let residuals = 3.0 * b * tokens * h * 2.0;
    mlp_act + attn_scores + dequant_scratch + residuals
}

/// Walk the serving timeline of a stage holding `layer_bits` (one entry
/// per layer) and report the allocator-level peak, in bytes.
///
/// * `kv_batch` is the **global** batch size: every stage keeps KV for
///   all sequences of the job, reserved at `prompt_len + n_generate`
///   (LLM-PQ pre-allocates the maximum sentence length).
/// * `micro_batch` is the largest micro-batch that flows through at
///   once; it sizes the temporary workspace — which is how LLM-PQ's
///   micro-batch sizing "reduces the peak temporary memory needed by the
///   model" (the cluster-1 result in Table 4).
/// * `with_embedding` adds the FP16 embedding tables — needed on the
///   device co-hosting the master engine, the imbalance §2.2 warns about.
#[allow(clippy::too_many_arguments)]
pub fn measured_peak_memory(
    spec: &ModelSpec,
    layer_bits: &[Bitwidth],
    kv_batch: usize,
    micro_batch: usize,
    prompt_len: usize,
    n_generate: usize,
    kv_bits: f64,
    with_embedding: bool,
) -> f64 {
    assert!(!layer_bits.is_empty(), "stage must own at least one layer");
    let seq = prompt_len + n_generate;

    // Weights: payload + the packed layout's scales for quantized layers.
    let mut weights = 0.0;
    for &bits in layer_bits {
        let base = spec.layer_weight_bytes(bits.bits_f64());
        let scales = if bits.is_quantized() {
            spec.quant_groups(QUANT_GROUP) * SCALE_BYTES as f64
        } else {
            0.0
        };
        weights += round_block(base + scales);
    }
    if with_embedding {
        weights += round_block(spec.embedding_bytes());
    }

    // KV cache pre-allocated at the maximum sentence length.
    let kv: f64 = layer_bits
        .iter()
        .map(|_| round_block(spec.kv_bytes_per_layer(kv_batch, seq, kv_bits)))
        .sum();

    // Workspace: the caching allocator reuses one arena sized by the
    // worst layer over both phases.
    let workspace = layer_bits
        .iter()
        .map(|&b| {
            let pre = layer_workspace_bytes(spec, Phase::Prefill, micro_batch, prompt_len, b);
            let dec = layer_workspace_bytes(spec, Phase::Decode, micro_batch, prompt_len, b);
            pre.max(dec)
        })
        .fold(0.0f64, f64::max);
    let workspace = round_block(workspace);

    // CUDA context + cuBLAS handles etc.
    let context = 600e6;

    weights + kv + workspace + context
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_model::zoo;

    #[test]
    fn peak_grows_with_batch_and_sequence() {
        let spec = zoo::opt_13b();
        let bits = vec![Bitwidth::Fp16; 8];
        let a = measured_peak_memory(&spec, &bits, 8, 8, 512, 100, 16.0, false);
        let b = measured_peak_memory(&spec, &bits, 16, 16, 512, 100, 16.0, false);
        let c = measured_peak_memory(&spec, &bits, 8, 8, 512, 500, 16.0, false);
        assert!(b > a && c > a);
    }

    #[test]
    fn quantization_reduces_peak() {
        let spec = zoo::opt_13b();
        let fp16 = measured_peak_memory(&spec, &[Bitwidth::Fp16; 10], 8, 8, 512, 100, 16.0, false);
        let int4 = measured_peak_memory(&spec, &[Bitwidth::Int4; 10], 8, 8, 512, 100, 16.0, false);
        assert!(int4 < fp16 * 0.6, "int4 {int4:.2e} vs fp16 {fp16:.2e}");
    }

    #[test]
    fn embedding_adds_meaningful_memory() {
        let spec = zoo::opt_13b();
        let base = measured_peak_memory(&spec, &[Bitwidth::Int8; 4], 8, 8, 512, 100, 16.0, false);
        let with = measured_peak_memory(&spec, &[Bitwidth::Int8; 4], 8, 8, 512, 100, 16.0, true);
        // OPT-13b embeddings ≈ (50272+2048)·5120·2 ≈ 0.54 GB.
        assert!(with - base > 0.4e9);
    }

    #[test]
    fn opt13b_int8_fits_v100_but_fp16_does_not() {
        // The cluster-1 story (Table 4): OPT-13b FP16 ≈ 26 GB of weights
        // + KV + embeddings exceeds a 32 GB V100, while INT8 fits.
        // Batch 28: group-wise metadata (~0.8 GB at group 64, 4 B per
        // group) eats the slack the old per-channel approximation left
        // at batch 32.
        let spec = zoo::opt_13b();
        let v100 = 32e9;
        let all = spec.n_layers;
        let fp16 =
            measured_peak_memory(&spec, &vec![Bitwidth::Fp16; all], 28, 28, 512, 100, 16.0, true);
        let int8 =
            measured_peak_memory(&spec, &vec![Bitwidth::Int8; all], 28, 28, 512, 100, 16.0, true);
        assert!(fp16 > v100, "fp16 {:.1} GB should exceed 32 GB", fp16 / 1e9);
        assert!(int8 < v100, "int8 {:.1} GB should fit in 32 GB", int8 / 1e9);
    }

    #[test]
    fn prefill_workspace_dominates_decode() {
        let spec = zoo::opt_13b();
        let pre = layer_workspace_bytes(&spec, Phase::Prefill, 8, 512, Bitwidth::Fp16);
        let dec = layer_workspace_bytes(&spec, Phase::Decode, 8, 512, Bitwidth::Fp16);
        assert!(pre > 10.0 * dec);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn rejects_empty_stage() {
        measured_peak_memory(&zoo::opt_13b(), &[], 8, 8, 512, 100, 16.0, false);
    }
}
