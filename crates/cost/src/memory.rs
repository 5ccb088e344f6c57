//! Analytical memory cost model (paper §4.1, "Memory Cost Model").
//!
//! "Memory is a first-class citizen in LLM serving systems." Peak usage
//! of a pipeline stage is the sum of two charges, each term rounded up
//! to whole allocator blocks:
//!
//! * per layer ([`layer_charge`]): the weights at the layer's bitwidth
//!   (payload + the packed layout's scales) and the KV cache
//!   pre-allocated for the maximum sentence length;
//! * per device ([`device_charge`]): one framework context per GPU, the
//!   embedding tables on the device co-hosting the master engine, and
//!   one workspace arena sized by the worst layer over a bit set, each
//!   phase at its own micro-batch.
//!
//! [`stage_memory`] adds them up over a stage's own layers; the
//! assigner's partition problem charges the same two functions with its
//! bitwidth menu as the bit set, so the DP never admits a stage the
//! evaluation would call out of memory.
//!
//! The model is *predictive*: it never executes anything. Its fidelity
//! against the allocator-level measurement lives in [`crate::fidelity`].

use llmpq_model::{ModelSpec, Phase, QUANT_GROUP};
use llmpq_quant::Bitwidth;
use llmpq_sim::layer_workspace_bytes;
use serde::{Deserialize, Serialize};

/// Fixed framework overhead (CUDA context, cuBLAS workspaces…).
pub const FRAMEWORK_BYTES: f64 = 600e6;

/// Allocator block granularity the prediction accounts for.
const BLOCK: f64 = 2.0 * 1024.0 * 1024.0;

fn round_block(bytes: f64) -> f64 {
    (bytes / BLOCK).ceil() * BLOCK
}

/// The job shape a stage's memory is charged under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryJob {
    /// Sequences every stage keeps KV for: the job's **global** batch.
    pub kv_batch: usize,
    /// Micro-batch the prefill workspace is sized at.
    pub prefill_size: usize,
    /// Micro-batch the decode workspace is sized at.
    pub decode_size: usize,
    /// Prompt tokens per sequence.
    pub prompt_len: usize,
    /// Generated tokens per sequence (KV is reserved for all of them).
    pub n_generate: usize,
    /// Bits per KV-cache element.
    pub kv_bits: f64,
}

impl MemoryJob {
    /// `batch` sequences run as one micro-batch in both phases.
    pub fn unsplit(batch: usize, prompt_len: usize, n_generate: usize, kv_bits: f64) -> Self {
        Self { kv_batch: batch, prefill_size: batch, decode_size: batch, prompt_len, n_generate, kv_bits }
    }
}

/// Itemized memory prediction for one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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

/// What one decoder layer at `bits` costs wherever it is placed: its
/// weights (payload + [`ModelSpec::quant_scale_bytes`] when quantized)
/// and its KV cache for `job`, each block-rounded.
pub fn layer_charge(spec: &ModelSpec, bits: Bitwidth, job: &MemoryJob) -> MemoryBreakdown {
    let scales = if bits.is_quantized() { spec.quant_scale_bytes(QUANT_GROUP) } else { 0.0 };
    let seq = job.prompt_len + job.n_generate;
    MemoryBreakdown {
        weights: round_block(spec.layer_weight_bytes(bits.bits_f64()) + scales),
        kv_cache: round_block(spec.kv_bytes_per_layer(job.kv_batch, seq, job.kv_bits)),
        ..MemoryBreakdown::default()
    }
}

/// What a device costs before its first layer: one framework context
/// per GPU (`tp_width` of them in a tensor-parallel group), the
/// embedding tables if it co-hosts the master engine, and one workspace
/// arena — a group splits it between its members — sized by the worst
/// layer at any of `bits` in either phase, prefill at
/// `job.prefill_size` and decode at `job.decode_size`.
pub fn device_charge(
    spec: &ModelSpec,
    bits: &[Bitwidth],
    job: &MemoryJob,
    with_embedding: bool,
    tp_width: usize,
) -> MemoryBreakdown {
    let workspace = bits
        .iter()
        .map(|&b| {
            let pre = layer_workspace_bytes(spec, Phase::Prefill, job.prefill_size, job.prompt_len, b);
            let dec = layer_workspace_bytes(spec, Phase::Decode, job.decode_size, job.prompt_len, b);
            pre.max(dec)
        })
        .fold(0.0f64, f64::max);
    MemoryBreakdown {
        workspace: round_block(workspace),
        embedding: if with_embedding { round_block(spec.embedding_bytes()) } else { 0.0 },
        framework: FRAMEWORK_BYTES * tp_width as f64,
        ..MemoryBreakdown::default()
    }
}

/// Predict the peak memory of a stage owning `layer_bits` on a device
/// of `tp_width` GPUs: [`device_charge`] over the stage's own bits plus
/// one [`layer_charge`] per layer.
pub fn stage_memory(
    spec: &ModelSpec,
    layer_bits: &[Bitwidth],
    job: &MemoryJob,
    with_embedding: bool,
    tp_width: usize,
) -> MemoryBreakdown {
    assert!(!layer_bits.is_empty(), "stage must own at least one layer");
    let (weights, kv_cache) = layer_bits
        .iter()
        .map(|&b| layer_charge(spec, b, job))
        .fold((0.0, 0.0), |(w, kv), m| (w + m.weights, kv + m.kv_cache));
    MemoryBreakdown { weights, kv_cache, ..device_charge(spec, layer_bits, job, with_embedding, tp_width) }
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
            let pred = stage_memory(&spec, &layers, &MemoryJob::unsplit(batch, s, n, 16.0), false, 1).total();
            let meas = measured_peak_memory(&spec, &layers, batch, batch, s, n, 16.0, false);
            let err = (pred - meas).abs() / meas;
            assert!(err < 0.01, "{bits} b{batch} s{s}: err {:.3}%", err * 100.0);
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let spec = zoo::opt_30b();
        let b = stage_memory(&spec, &[Bitwidth::Int4; 12], &MemoryJob::unsplit(8, 512, 100, 16.0), true, 1);
        let total = b.weights + b.kv_cache + b.workspace + b.embedding + b.framework;
        assert_eq!(total, b.total());
        assert!(b.embedding > 0.0);
    }

    #[test]
    fn mixed_precision_between_uniform_bounds() {
        let spec = zoo::opt_13b();
        let job = MemoryJob::unsplit(8, 512, 100, 16.0);
        let bytes = |bits: &[Bitwidth]| stage_memory(&spec, bits, &job, false, 1).total();
        let lo = bytes(&[Bitwidth::Int4; 8]);
        let hi = bytes(&[Bitwidth::Fp16; 8]);
        let mut mixed = vec![Bitwidth::Int4; 8];
        mixed[0] = Bitwidth::Fp16;
        mixed[1] = Bitwidth::Fp16;
        let m = bytes(&mixed);
        assert!(lo < m && m < hi);
    }

    #[test]
    fn kv_dominates_long_generations() {
        let spec = zoo::opt_66b();
        let at = |n| {
            stage_memory(&spec, &[Bitwidth::Int4; 16], &MemoryJob::unsplit(32, 512, n, 16.0), false, 1)
        };
        let (short, long) = (at(10), at(1500));
        assert!(long.kv_cache > 2.0 * short.kv_cache);
        assert_eq!(long.weights, short.weights);
    }
}
