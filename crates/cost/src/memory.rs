//! Analytical memory cost model (paper §4.1, "Memory Cost Model").
//!
//! "Memory is a first-class citizen in LLM serving systems." Peak usage
//! of a pipeline stage = model weights (at each layer's bitwidth)
//! + pre-allocated KV cache for the maximum sentence length
//! + peak temporary workspace (worst case over both phases)
//! + embedding tables on the master-hosting stage
//! + framework fixed cost.
//!
//! The model is *predictive*: it never executes anything. Its fidelity
//! against the allocator-level measurement lives in [`crate::fidelity`].

use llmpq_model::{ModelSpec, Phase};
use llmpq_quant::Bitwidth;
use llmpq_sim::layer_workspace_bytes;
use serde::{Deserialize, Serialize};

/// Fixed framework overhead (CUDA context, cuBLAS workspaces…).
pub const FRAMEWORK_BYTES: f64 = 600e6;

/// Allocator block granularity the prediction accounts for.
const BLOCK: f64 = 2.0 * 1024.0 * 1024.0;

/// `bytes` rounded up to whole allocator blocks — with
/// [`FRAMEWORK_BYTES`], the memory model's constants, stated here for
/// this module and for the planners that rebuild its terms per layer.
pub fn round_block(bytes: f64) -> f64 {
    (bytes / BLOCK).ceil() * BLOCK
}

/// Itemized memory prediction for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBreakdown {
    /// Weight bytes (payload + quantization scales), allocator-rounded.
    pub weights: f64,
    /// Pre-allocated KV-cache bytes for `prompt + n_generate` tokens.
    pub kv_cache: f64,
    /// Peak temporary workspace bytes.
    pub workspace: f64,
    /// Embedding tables (0 unless this stage hosts the master engine).
    pub embedding: f64,
    /// Fixed framework cost: one context per GPU of the device.
    pub framework: f64,
}

impl MemoryBreakdown {
    /// Total predicted peak bytes.
    pub fn total(&self) -> f64 {
        self.weights + self.kv_cache + self.workspace + self.embedding + self.framework
    }
}

/// Group-wise quantization metadata of one decoder layer as the planner
/// charges it (`ModelSpec::quant_scale_bytes`: 5 B per (row, group),
/// one byte above the scale the serving kernels hold resident).
fn scale_overhead(spec: &ModelSpec, bits: Bitwidth) -> f64 {
    if bits.is_quantized() {
        spec.quant_scale_bytes(llmpq_model::QUANT_GROUP)
    } else {
        0.0
    }
}

/// Predict the peak memory of a stage owning `layer_bits` under the
/// job shape `(batch, prompt_len, n_generate)` with KV at `kv_bits`, on
/// a device of `tp_width` GPUs (1, or a tensor-parallel group): every
/// GPU holds a framework context, while the group splits one workspace
/// arena between its members.
#[allow(clippy::too_many_arguments)]
pub fn stage_memory(
    spec: &ModelSpec,
    layer_bits: &[Bitwidth],
    kv_batch: usize,
    micro_batch: usize,
    prompt_len: usize,
    n_generate: usize,
    kv_bits: f64,
    with_embedding: bool,
    tp_width: usize,
) -> MemoryBreakdown {
    assert!(!layer_bits.is_empty(), "stage must own at least one layer");
    let seq = prompt_len + n_generate;
    let weights = layer_bits
        .iter()
        .map(|&b| round_block(spec.layer_weight_bytes(b.bits_f64()) + scale_overhead(spec, b)))
        .sum();
    let kv_cache = layer_bits
        .iter()
        .map(|_| round_block(spec.kv_bytes_per_layer(kv_batch, seq, kv_bits)))
        .sum();
    let workspace = layer_bits
        .iter()
        .map(|&b| {
            let pre = layer_workspace_bytes(spec, Phase::Prefill, micro_batch, prompt_len, b);
            let dec = layer_workspace_bytes(spec, Phase::Decode, micro_batch, prompt_len, b);
            pre.max(dec)
        })
        .fold(0.0f64, f64::max);
    MemoryBreakdown {
        weights,
        kv_cache,
        workspace: round_block(workspace),
        embedding: if with_embedding { round_block(spec.embedding_bytes()) } else { 0.0 },
        framework: FRAMEWORK_BYTES * tp_width as f64,
    }
}

/// Shorthand for [`stage_memory`]`.total()`.
#[allow(clippy::too_many_arguments)]
pub fn stage_memory_bytes(
    spec: &ModelSpec,
    layer_bits: &[Bitwidth],
    kv_batch: usize,
    micro_batch: usize,
    prompt_len: usize,
    n_generate: usize,
    kv_bits: f64,
    with_embedding: bool,
    tp_width: usize,
) -> f64 {
    stage_memory(
        spec,
        layer_bits,
        kv_batch,
        micro_batch,
        prompt_len,
        n_generate,
        kv_bits,
        with_embedding,
        tp_width,
    )
    .total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_model::zoo;
    use llmpq_sim::measured_peak_memory;

    #[test]
    fn prediction_matches_measurement_closely() {
        // Fig 7: "the error of the memory cost model is almost
        // negligible". Require <1% against the allocator-level walk.
        let spec = zoo::opt_13b();
        for (bits, batch, s, n) in [
            (Bitwidth::Fp16, 2, 128, 100),
            (Bitwidth::Int8, 4, 384, 150),
            (Bitwidth::Int4, 8, 512, 200),
            (Bitwidth::Int3, 3, 256, 120),
        ] {
            let layers = vec![bits; 10];
            let pred = stage_memory_bytes(&spec, &layers, batch, batch, s, n, 16.0, false, 1);
            let meas = measured_peak_memory(&spec, &layers, batch, batch, s, n, 16.0, false);
            let err = (pred - meas).abs() / meas;
            assert!(err < 0.01, "{bits} b{batch} s{s}: err {:.3}%", err * 100.0);
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let spec = zoo::opt_30b();
        let b = stage_memory(&spec, &[Bitwidth::Int4; 12], 8, 8, 512, 100, 16.0, true, 1);
        let total = b.weights + b.kv_cache + b.workspace + b.embedding + b.framework;
        assert_eq!(total, b.total());
        assert!(b.embedding > 0.0);
    }

    #[test]
    fn mixed_precision_between_uniform_bounds() {
        let spec = zoo::opt_13b();
        let lo = stage_memory_bytes(&spec, &[Bitwidth::Int4; 8], 8, 8, 512, 100, 16.0, false, 1);
        let hi = stage_memory_bytes(&spec, &[Bitwidth::Fp16; 8], 8, 8, 512, 100, 16.0, false, 1);
        let mut mixed = vec![Bitwidth::Int4; 8];
        mixed[0] = Bitwidth::Fp16;
        mixed[1] = Bitwidth::Fp16;
        let m = stage_memory_bytes(&spec, &mixed, 8, 8, 512, 100, 16.0, false, 1);
        assert!(lo < m && m < hi);
    }

    #[test]
    fn kv_dominates_long_generations() {
        let spec = zoo::opt_66b();
        let short = stage_memory(&spec, &[Bitwidth::Int4; 16], 32, 32, 512, 10, 16.0, false, 1);
        let long = stage_memory(&spec, &[Bitwidth::Int4; 16], 32, 32, 512, 1500, 16.0, false, 1);
        assert!(long.kv_cache > 2.0 * short.kv_cache);
        assert_eq!(long.weights, short.weights);
    }
}
