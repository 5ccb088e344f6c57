//! On-the-fly quantizing model loader (paper §5).
//!
//! "We have decoupled the integrated model weight into module-level
//! weights. During runtime, we determine the granularity of processed
//! weights by overlapping the disk-to-CPU weight loading time with the
//! on-GPU model quantization and CPU-to-GPU memory copy. This results in
//! a significant reduction in DRAM required for model loading."
//!
//! Here the "checkpoint" is the FP32 reference model; the loader streams
//! it one linear module at a time, quantizing each module to its layer's
//! target precision before the next module is staged. [`LoaderStats`]
//! tracks the peak staging footprint, which must stay bounded by one
//! module — not one model.
//!
//! This is the only way a checkpoint layer becomes served
//! [`LayerWeights`]: a pipeline stage loads its shard through
//! [`load_stage_weights`], a worker preparing a live swap does the same,
//! and [`quantize_model`](crate::quantize_model) is one pass over every
//! layer.

use crate::bitwidth::Bitwidth;
use crate::quantizer::{pack_operator, Rounding};
use llmpq_model::{LayerWeights, LinearOp, RefModel};
use serde::{Deserialize, Serialize};

/// Statistics of a loading pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LoaderStats {
    /// Total bytes streamed from the checkpoint.
    pub bytes_streamed: u64,
    /// Peak bytes staged in "CPU RAM" at any moment.
    pub peak_staging_bytes: u64,
    /// Number of modules processed.
    pub modules: usize,
    /// Number of modules that were quantized (vs copied at FP16).
    pub quantized_modules: usize,
}

/// Streams layer weights module-by-module, quantizing on the fly.
#[derive(Debug)]
pub struct OnTheFlyQuantizer {
    rounding: Rounding,
    seed: u64,
    stats: LoaderStats,
    staged: u64,
}

impl OnTheFlyQuantizer {
    /// New loader with the quantization rounding mode and seed.
    pub fn new(rounding: Rounding, seed: u64) -> Self {
        Self { rounding, seed, stats: LoaderStats::default(), staged: 0 }
    }

    /// Loader statistics so far.
    pub fn stats(&self) -> LoaderStats {
        self.stats
    }

    /// Stream operator `op` of `layer` (`op` indexes
    /// [`LayerWeights::linear_operators`]): stage it, bring it to `bits`
    /// — packed, or a dense copy at FP16 — and release the staging
    /// buffer. The module's quantizer seed is derived here and nowhere
    /// else; only stochastic rounding reads it.
    fn load_module(&mut self, src: &LinearOp, layer: usize, op: usize, bits: Bitwidth) -> LinearOp {
        let src = src.dense();
        let bytes = (src.data.len() * std::mem::size_of::<f32>()) as u64;
        self.staged += bytes;
        self.stats.peak_staging_bytes = self.stats.peak_staging_bytes.max(self.staged);
        self.stats.bytes_streamed += bytes;
        self.stats.modules += 1;
        self.stats.quantized_modules += usize::from(bits != Bitwidth::Fp16);
        let module_seed = self.seed ^ ((layer as u64) << 32) ^ op as u64;
        let out = pack_operator(src, bits, self.rounding, module_seed);
        // Staging buffer released once the module is on the "GPU".
        self.staged -= bytes;
        out
    }

    /// Load one decoder layer of `checkpoint` at `bits`, module by module.
    pub fn load_layer(&mut self, checkpoint: &RefModel, layer: usize, bits: Bitwidth) -> LayerWeights {
        checkpoint.layers[layer].map_operators(|op, w| self.load_module(w, layer, op, bits))
    }
}

/// Load a contiguous shard of layers at the given per-layer precisions;
/// returns the stage's weights and the loader statistics.
pub fn load_stage_weights(
    checkpoint: &RefModel,
    layer_start: usize,
    bits: &[Bitwidth],
    rounding: Rounding,
    seed: u64,
) -> (Vec<LayerWeights>, LoaderStats) {
    let mut loader = OnTheFlyQuantizer::new(rounding, seed);
    let weights = bits
        .iter()
        .enumerate()
        .map(|(i, &b)| loader.load_layer(checkpoint, layer_start + i, b))
        .collect();
    (weights, loader.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{quantize_model, BitAssignment};
    use llmpq_model::{RefConfig, RefModel};

    fn model() -> RefModel {
        RefModel::new(RefConfig::tiny())
    }

    #[test]
    fn staging_bounded_by_one_module() {
        let m = model();
        let bits = vec![Bitwidth::Int4; m.cfg.n_layers];
        let (_, stats) = load_stage_weights(&m, 0, &bits, Rounding::Deterministic, 0);
        let largest_module = m.layers[0]
            .linear_operators()
            .iter()
            .map(|(_, w)| (w.dense().data.len() * 4) as u64)
            .max()
            .unwrap();
        assert_eq!(
            stats.peak_staging_bytes, largest_module,
            "peak staging must equal the largest single module"
        );
        let total: u64 = stats.bytes_streamed;
        assert!(total >= 6 * largest_module, "whole shard streamed through");
    }

    #[test]
    fn quantize_model_is_one_loader_pass_over_every_layer() {
        let m = model();
        let bits = vec![Bitwidth::Int4, Bitwidth::Int8];
        for rounding in [Rounding::Deterministic, Rounding::Stochastic] {
            let whole = quantize_model(&m, &BitAssignment { bits: bits.clone() }, rounding, 5);
            let (streamed, _) = load_stage_weights(&m, 0, &bits, rounding, 5);
            assert_eq!(whole.layers, streamed, "{rounding:?}");
            // A later shard's layers get the seeds of their global index.
            let (tail, _) = load_stage_weights(&m, 1, &bits[1..], rounding, 5);
            assert_eq!(whole.layers[1..], tail, "{rounding:?}");
        }
    }

    #[test]
    fn same_shaped_operators_of_a_layer_draw_different_noise() {
        // wq and wk are both `hidden × hidden`; give them the same
        // weights, so any difference between their grids is the seed's.
        let mut m = model();
        m.layers[0].wk = m.layers[0].wq.clone();
        let grid = |rounding| {
            let (w, _) = load_stage_weights(&m, 0, &[Bitwidth::Int4], rounding, 9);
            (w[0].wq.clone(), w[0].wk.clone())
        };
        let (q, k) = grid(Rounding::Stochastic);
        assert_ne!(q, k, "stochastic rounding must not reuse one noise stream per layer");
        // Deterministic rounding never reads the seed: both operators
        // get the grid any seed gives.
        let (q, k) = grid(Rounding::Deterministic);
        let any_seed = pack_operator(m.layers[0].wq.dense(), Bitwidth::Int4, Rounding::Deterministic, 0);
        assert_eq!((&q, &k), (&any_seed, &any_seed));
    }

    #[test]
    fn fp16_layers_pass_through_unchanged() {
        let m = model();
        let (w, stats) =
            load_stage_weights(&m, 1, &[Bitwidth::Fp16], Rounding::Deterministic, 0);
        assert_eq!(w[0], m.layers[1]);
        assert_eq!(stats.quantized_modules, 0);
        assert_eq!(stats.modules, 6);
    }

    #[test]
    fn stats_count_quantized_modules() {
        let m = model();
        let (_, stats) = load_stage_weights(
            &m,
            0,
            &[Bitwidth::Int3, Bitwidth::Fp16],
            Rounding::Deterministic,
            7,
        );
        assert_eq!(stats.quantized_modules, 6, "one quantized layer = 6 modules");
        assert_eq!(stats.modules, 12);
    }
}
