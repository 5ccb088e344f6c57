//! Execution plans — the assigner's output and the runtime's input.
//!
//! Mirrors the paper's strategy file: `llmpq-algo` emits a plan that
//! `llmpq-dist` launches directly. Plans serialize to JSON.

use llmpq_quant::{BitAssignment, Bitwidth};
use llmpq_workload::MicrobatchPlan;
use serde::{Deserialize, Serialize};

/// One pipeline stage: a device and its contiguous shard of layers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagePlan {
    /// Index into the cluster's device list.
    pub device: usize,
    /// First decoder layer (inclusive).
    pub layer_start: usize,
    /// One past the last decoder layer.
    pub layer_end: usize,
    /// Precision per owned layer (`layer_end - layer_start` entries).
    pub bits: Vec<Bitwidth>,
}

impl StagePlan {
    /// Number of layers on this stage.
    pub fn n_layers(&self) -> usize {
        self.layer_end - self.layer_start
    }
}

/// A complete serving plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Model id (`"opt-30b"`).
    pub model: String,
    /// Cluster name the plan was made for.
    pub cluster: String,
    /// Stages in pipeline order. The first stage's device co-hosts the
    /// master engine (embedding + logits).
    pub stages: Vec<StagePlan>,
    /// Hybrid micro-batch sizing.
    pub microbatch: MicrobatchPlan,
    /// Scheme label for report tables (`"LLM-PQ"`, `"PipeEdge"`, …).
    pub scheme: String,
    /// KV-cache precision in bits (16 = FP16, 8 = quantized cache — the
    /// KV-quantization extension). Defaults to 16 in older plan files.
    #[serde(default = "default_kv_bits")]
    pub kv_bits: u32,
}

fn default_kv_bits() -> u32 {
    16
}

impl ExecutionPlan {
    /// A hand-made plan: stage `s` runs on device `s` and holds the next
    /// `stage_bits[s].len()` layers at those bitwidths. Scheme `LLM-PQ`,
    /// FP16 KV cache.
    pub fn contiguous(
        model: &str,
        cluster: &str,
        stage_bits: Vec<Vec<Bitwidth>>,
        microbatch: MicrobatchPlan,
    ) -> Self {
        let mut layer_start = 0;
        let stages = stage_bits
            .into_iter()
            .enumerate()
            .map(|(device, bits)| {
                let stage = StagePlan { device, layer_start, layer_end: layer_start + bits.len(), bits };
                layer_start = stage.layer_end;
                stage
            })
            .collect();
        Self { model: model.into(), cluster: cluster.into(), stages, microbatch, scheme: "LLM-PQ".into(), kv_bits: 16 }
    }

    /// The same stages with every layer at Int4 and, when some stage has
    /// layers to spare, one layer moved across the first boundary that
    /// can take it — a swap target whose commit hands KV over.
    pub fn int4_with_one_layer_moved(&self) -> Self {
        let mut cuts: Vec<(usize, usize)> = self.stages.iter().map(|s| (s.layer_start, s.layer_end)).collect();
        for i in 0..cuts.len().saturating_sub(1) {
            if cuts[i + 1].1 - cuts[i + 1].0 >= 2 {
                cuts[i].1 += 1;
                cuts[i + 1].0 += 1;
                break;
            }
            if cuts[i].1 - cuts[i].0 >= 2 {
                cuts[i].1 -= 1;
                cuts[i + 1].0 -= 1;
                break;
            }
        }
        let stages = cuts
            .iter()
            .zip(&self.stages)
            .map(|(&(lo, hi), s)| StagePlan {
                device: s.device,
                layer_start: lo,
                layer_end: hi,
                bits: vec![Bitwidth::Int4; hi - lo],
            })
            .collect();
        Self { stages, ..self.clone() }
    }

    /// Validate structural invariants: stages cover `0..n_layers`
    /// contiguously with no overlap and carry matching bit vectors.
    pub fn validate(&self, n_layers: usize) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("plan has no stages".into());
        }
        let mut next = 0usize;
        for (i, s) in self.stages.iter().enumerate() {
            if s.layer_start != next {
                return Err(format!(
                    "stage {i} starts at layer {} but {} expected",
                    s.layer_start, next
                ));
            }
            if s.layer_end <= s.layer_start {
                return Err(format!("stage {i} is empty"));
            }
            if s.bits.len() != s.n_layers() {
                return Err(format!(
                    "stage {i} has {} bit entries for {} layers",
                    s.bits.len(),
                    s.n_layers()
                ));
            }
            next = s.layer_end;
        }
        if next != n_layers {
            return Err(format!("plan covers {next} of {n_layers} layers"));
        }
        Ok(())
    }

    /// Flatten to a per-layer bit assignment.
    pub fn bit_assignment(&self) -> BitAssignment {
        let mut bits = Vec::new();
        for s in &self.stages {
            bits.extend_from_slice(&s.bits);
        }
        BitAssignment { bits }
    }

    /// Total number of decoder layers covered.
    pub fn n_layers(&self) -> usize {
        self.stages.last().map_or(0, |s| s.layer_end)
    }

    /// Serialize to the JSON strategy-file format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plans are serializable")
    }

    /// Parse a strategy file.
    pub fn from_json(s: &str) -> Result<ExecutionPlan, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_workload::MicrobatchPlan;

    fn mb() -> MicrobatchPlan {
        MicrobatchPlan { prefill_size: 4, prefill_count: 8, decode_size: 16, decode_count: 2 }
    }

    fn sample_plan() -> ExecutionPlan {
        ExecutionPlan {
            model: "opt-13b".into(),
            cluster: "cluster-3".into(),
            stages: vec![
                StagePlan {
                    device: 0,
                    layer_start: 0,
                    layer_end: 3,
                    bits: vec![Bitwidth::Int4, Bitwidth::Int4, Bitwidth::Int8],
                },
                StagePlan {
                    device: 1,
                    layer_start: 3,
                    layer_end: 5,
                    bits: vec![Bitwidth::Fp16, Bitwidth::Fp16],
                },
            ],
            microbatch: mb(),
            scheme: "LLM-PQ".into(),
            kv_bits: 16,
        }
    }

    #[test]
    fn validates_good_plan() {
        assert!(sample_plan().validate(5).is_ok());
    }

    #[test]
    fn rejects_gap() {
        let mut p = sample_plan();
        p.stages[1].layer_start = 4;
        assert!(p.validate(5).unwrap_err().contains("starts at layer"));
    }

    #[test]
    fn rejects_partial_coverage() {
        assert!(sample_plan().validate(6).unwrap_err().contains("covers"));
    }

    #[test]
    fn rejects_bits_mismatch() {
        let mut p = sample_plan();
        p.stages[0].bits.pop();
        assert!(p.validate(5).unwrap_err().contains("bit entries"));
    }

    #[test]
    fn bit_assignment_flattens_in_order() {
        let p = sample_plan();
        let a = p.bit_assignment();
        assert_eq!(
            a.bits,
            vec![Bitwidth::Int4, Bitwidth::Int4, Bitwidth::Int8, Bitwidth::Fp16, Bitwidth::Fp16]
        );
    }

    #[test]
    fn json_round_trip() {
        let p = sample_plan();
        let s = p.to_json();
        let q = ExecutionPlan::from_json(&s).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn contiguous_stages_follow_one_another_on_devices_in_order() {
        let bits = vec![vec![Bitwidth::Int4, Bitwidth::Int4, Bitwidth::Int8], vec![Bitwidth::Fp16; 2]];
        let p = ExecutionPlan::contiguous("opt-13b", "cluster-3", bits, mb());
        assert_eq!(p, sample_plan());
    }

    #[test]
    fn the_int4_target_moves_one_layer_across_the_first_boundary_that_can_take_it() {
        let moved = sample_plan().int4_with_one_layer_moved();
        assert_eq!(moved.validate(5), Ok(()));
        assert_eq!(moved.bit_assignment().bits, vec![Bitwidth::Int4; 5]);
        let cuts: Vec<_> = moved.stages.iter().map(|s| (s.layer_start, s.layer_end)).collect();
        assert_eq!(cuts, [(0, 4), (4, 5)]);
        let ones = ExecutionPlan::contiguous("m", "c", vec![vec![Bitwidth::Fp16]; 2], mb());
        assert_eq!(ones.int4_with_one_layer_moved().stages[1].layer_start, 1, "nothing to spare: no move");
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(ExecutionPlan::from_json("{not json").is_err());
    }
}
