//! Pipeline supervision: heartbeat/timeout failure detection, bounded
//! restarts with exponential backoff, and replan-on-device-loss — the
//! policy types [`Pipeline::supervised`](crate::Pipeline::supervised)
//! and [`run_master`](crate::net::dist::run_master) run under (the
//! restart loop itself lives in [`crate::engine`], once for both).
//!
//! An unsupervised run only notices failures when a channel
//! disconnects — a *dead* worker — and gives up. A production pipeline
//! must resume, and also sees workers that are alive but wedged (driver
//! hang, network partition) and devices that are gone for good.
//! Supervision covers all three:
//!
//! * every stage worker stamps a [`Heartbeats`](crate::Heartbeats) slot
//!   on each channel tick; the master flags a stage whose stamp goes stale
//!   ([`StageHung`](crate::RuntimeError::StageHung)) and a pipeline that
//!   produces nothing within the progress timeout
//!   ([`Stalled`](crate::RuntimeError::Stalled));
//! * failed attempts are retried up to
//!   [`SupervisorConfig::max_restarts`] times with backoff doubling per
//!   restart, resuming from the lock-step token checkpoint;
//! * a permanently lost device is never retried: with a [`Replanner`]
//!   attached it triggers a *replan* — the replanner produces an
//!   [`ExecutionPlan`] over the survivors (re-running Algorithm 1 on the
//!   shrunken cluster, or falling back to folding the lost stages into
//!   their neighbors), the stage shards are reloaded through the
//!   on-the-fly quantizing loader — the fast-recovery path §5 motivates
//!   — and generation resumes bit-identically to sequential execution
//!   of the *new* plan from the resume point; without one the run ends
//!   as [`DeviceLost`](crate::RuntimeError::DeviceLost), no restart
//!   counted.

use llm_pq::{ExecutionPlan, StagePlan};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Supervisor tuning. All durations are in milliseconds so the config
/// serializes with the rest of the strategy artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// A stage whose heartbeat is older than this is declared hung.
    pub heartbeat_timeout_ms: u64,
    /// The run is declared stalled if the master receives nothing for
    /// this long (catches dropped messages).
    pub progress_timeout_ms: u64,
    /// Channel-poll granularity for workers and master.
    pub tick_ms: u64,
    /// Maximum restarts (attempts − 1) before giving up.
    pub max_restarts: usize,
    /// First backoff delay before a restart; it doubles per
    /// consecutive restart.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Inter-stage queue bound. `Some(n)` makes every channel in the
    /// pipeline hold at most `n` items, so a slow stage backpressures
    /// its upstream all the way to the master instead of letting queues
    /// grow without bound; `None` keeps the legacy unbounded channels.
    #[serde(default)]
    pub max_queue: Option<usize>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            heartbeat_timeout_ms: 1_000,
            progress_timeout_ms: 5_000,
            tick_ms: 2,
            max_restarts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            max_queue: None,
        }
    }
}

impl SupervisorConfig {
    /// Backoff before restart number `restart` (0-based), capped.
    pub fn backoff(&self, restart: usize) -> Duration {
        let ms = self.backoff_base_ms as f64 * 2f64.powi(restart as i32);
        Duration::from_millis((ms as u64).min(self.backoff_cap_ms))
    }
}

/// Produces a new execution plan when devices are lost. Implementations
/// range from the structural [`FoldReplanner`] to a full re-run of
/// Algorithm 1 on the surviving sub-cluster
/// (`llm_pq::IncrementalPlanner::replan_after_loss`). The caller wires
/// that one in — `llmpq-dist` does, keeping one planner per run so a
/// second loss warm-starts from the first — because it needs a cost
/// database and an indicator table, which the supervisor does not
/// carry (this crate depends on `llm-pq` for the plan types only).
pub trait Replanner {
    /// Plan around `lost_devices` (cluster device ids). The returned
    /// plan must cover the same layers and avoid every lost device.
    fn replan(&self, old_plan: &ExecutionPlan, lost_devices: &[usize]) -> Result<ExecutionPlan, String>;
}

/// Structural fallback replanner: folds the layers of every stage on a
/// lost device into the nearest surviving neighbor stage, keeping each
/// layer's bitwidth. Needs no cost model, so it always works — at the
/// price of an unbalanced pipeline; use the assigner-backed replanner
/// when the cost models are at hand.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldReplanner;

impl Replanner for FoldReplanner {
    fn replan(&self, old_plan: &ExecutionPlan, lost_devices: &[usize]) -> Result<ExecutionPlan, String> {
        let mut merged: Vec<StagePlan> = Vec::new();
        let mut orphan_bits = Vec::new();
        for s in &old_plan.stages {
            if lost_devices.contains(&s.device) {
                match merged.last_mut() {
                    Some(prev) => prev.bits.extend_from_slice(&s.bits),
                    None => orphan_bits.extend_from_slice(&s.bits),
                }
            } else {
                let mut bits = std::mem::take(&mut orphan_bits);
                bits.extend_from_slice(&s.bits);
                merged.push(StagePlan { device: s.device, layer_start: 0, layer_end: 0, bits });
            }
        }
        if merged.is_empty() {
            return Err(format!("no surviving devices (lost {lost_devices:?})"));
        }
        let mut next = 0usize;
        for s in &mut merged {
            s.layer_start = next;
            s.layer_end = next + s.bits.len();
            next = s.layer_end;
        }
        Ok(ExecutionPlan { stages: merged, ..old_plan.clone() })
    }
}

/// What the supervisor did about one failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// Retried the same plan after the given backoff.
    Restart {
        /// Backoff slept before the retry, milliseconds.
        backoff_ms: u64,
    },
    /// Replanned around lost devices and reloaded the stage shards.
    Replan {
        /// Devices routed around.
        lost_devices: Vec<usize>,
        /// Stage count of the new plan.
        new_stages: usize,
    },
}

/// One failure the supervisor handled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Attempt number that failed (0-based).
    pub attempt: usize,
    /// The failure, as reported.
    pub error: String,
    /// Tokens per sequence safely checkpointed at the failure.
    pub checkpointed_tokens: usize,
    /// What the supervisor did.
    pub action: RecoveryAction,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Pipeline, RuntimeError};
    use crate::fault::{FaultEvent, FaultKind, FaultPlan};
    use crate::telemetry::Telemetry;
    use llmpq_model::{RefConfig, RefModel};
    use llmpq_quant::{quantize_model, BitAssignment, Bitwidth, Rounding};
    use llmpq_workload::MicrobatchPlan;

    fn model() -> RefModel {
        RefModel::new(RefConfig::tiny())
    }

    fn plan(bits: Vec<Bitwidth>, split: usize, mb: MicrobatchPlan) -> ExecutionPlan {
        let n = bits.len();
        ExecutionPlan {
            model: "tiny".into(),
            cluster: "test".into(),
            stages: vec![
                StagePlan { device: 0, layer_start: 0, layer_end: split, bits: bits[..split].to_vec() },
                StagePlan { device: 1, layer_start: split, layer_end: n, bits: bits[split..].to_vec() },
            ],
            microbatch: mb,
            scheme: "LLM-PQ".into(),
            kv_bits: 16,
        }
    }

    fn mb(p: usize, d: usize, n_seqs: usize) -> MicrobatchPlan {
        MicrobatchPlan {
            prefill_size: p,
            prefill_count: n_seqs.div_ceil(p),
            decode_size: d,
            decode_count: n_seqs.div_ceil(d),
        }
    }

    /// A fast-detection config for tests.
    fn test_cfg() -> SupervisorConfig {
        SupervisorConfig {
            heartbeat_timeout_ms: 60,
            progress_timeout_ms: 150,
            tick_ms: 1,
            max_restarts: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 8,
            max_queue: None,
        }
    }

    #[test]
    fn fault_free_supervised_run_matches_reference() {
        let m = model();
        let bits = vec![Bitwidth::Int8, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3], vec![9, 8, 7]];
        let out = Pipeline::new(&m, &plan(bits.clone(), 1, mb(2, 2, 2)))
            .supervised(test_cfg())
            .run(&prompts, 5)
            .expect("clean run");
        assert_eq!(out.restarts, 0);
        assert_eq!(out.replans, 0);
        assert!(out.events.is_empty());
        let qm = quantize_model(&m, &BitAssignment { bits }, Rounding::Deterministic, 0);
        for (i, p) in prompts.iter().enumerate() {
            assert_eq!(out.tokens[i], qm.generate(p, 5, 0.0, 0).tokens, "sequence {i}");
        }
    }

    #[test]
    fn bounded_queues_backpressure_without_changing_tokens() {
        // With every inter-stage queue capped at one item the master is
        // forced to pace itself against the slowest stage; the run must
        // still finish and produce exactly the reference tokens.
        let m = model();
        let bits = vec![Bitwidth::Int8, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3], vec![9, 8, 7], vec![4, 5], vec![6]];
        let cfg = SupervisorConfig { max_queue: Some(1), ..test_cfg() };
        let out = Pipeline::new(&m, &plan(bits.clone(), 1, mb(1, 1, 4)))
            .supervised(cfg)
            .run(&prompts, 6)
            .expect("bounded run");
        assert_eq!(out.restarts, 0, "backpressure must not look like a failure");
        let qm = quantize_model(&m, &BitAssignment { bits }, Rounding::Deterministic, 0);
        for (i, p) in prompts.iter().enumerate() {
            assert_eq!(out.tokens[i], qm.generate(p, 6, 0.0, 0).tokens, "sequence {i}");
        }
    }

    #[test]
    fn bounded_queues_compose_with_fault_recovery() {
        // Backpressure and the supervisor's restart path interact: a
        // crash while the master is potentially blocked on a full queue
        // must still be detected and recovered from.
        let m = model();
        let bits = vec![Bitwidth::Int8, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3], vec![9, 8, 7]];
        let faults = FaultPlan::crash_schedule(&[(1, 2)]);
        let cfg = SupervisorConfig { max_queue: Some(1), ..test_cfg() };
        let out = Pipeline::new(&m, &plan(bits.clone(), 1, mb(1, 1, 2)))
            .supervised(cfg)
            .faults(&faults)
            .replanner(&FoldReplanner)
            .run(&prompts, 6)
            .expect("recovered under backpressure");
        assert_eq!(out.restarts, 1);
        let qm = quantize_model(&m, &BitAssignment { bits }, Rounding::Deterministic, 0);
        for (i, p) in prompts.iter().enumerate() {
            assert_eq!(out.tokens[i], qm.generate(p, 6, 0.0, 0).tokens, "sequence {i}");
        }
    }

    #[test]
    fn bounded_queue_run_reports_stage_metrics_for_the_final_plan() {
        // A crash (plain restart, same ring) and then a device loss
        // (replan → a fresh ring over the folded plan), all under
        // one-deep queues: the per-stage outputs describe the plan that
        // finished the run, not the one that started it.
        let m = model();
        let bits = vec![Bitwidth::Int8, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3], vec![9, 8, 7]];
        let faults = FaultPlan {
            events: vec![
                FaultEvent { stage: 0, step: 1, attempt: Some(0), kind: FaultKind::Crash },
                FaultEvent { stage: 1, step: 2, attempt: Some(1), kind: FaultKind::DeviceLoss },
            ],
        };
        let cfg = SupervisorConfig { max_queue: Some(1), ..test_cfg() };
        let out = Pipeline::new(&m, &plan(bits.clone(), 1, mb(1, 1, 2)))
            .supervised(cfg)
            .faults(&faults)
            .replanner(&FoldReplanner)
            .run(&prompts, 6)
            .expect("recovered twice under backpressure");
        assert_eq!((out.restarts, out.replans), (2, 1));
        assert!(matches!(out.events[0].action, RecoveryAction::Restart { .. }));
        assert!(matches!(out.events[1].action, RecoveryAction::Replan { .. }));
        assert_eq!(out.final_plan.stages.len(), 1, "folded onto the survivor");
        assert_eq!(out.stage_metrics.len(), 1);
        assert!(out.stage_metrics[0].items > 0 && out.stage_metrics[0].busy_s > 0.0);
        assert_eq!(out.loader_stats.len(), 1);
        // The folded stage loaded both layers; only the Int8 one quantizes.
        assert_eq!(out.loader_stats[0].quantized_modules, 6);
        let qm = quantize_model(&m, &BitAssignment { bits }, Rounding::Deterministic, 0);
        for (i, p) in prompts.iter().enumerate() {
            assert_eq!(out.tokens[i], qm.generate(p, 6, 0.0, 0).tokens, "sequence {i}");
        }
    }

    #[test]
    fn device_loss_replans_and_resumes_bit_identically() {
        // The acceptance path: stage 1's device dies permanently after
        // three items. The supervisor must replan onto device 0 (fold),
        // reload through the on-the-fly loader, and resume from the
        // lock-step checkpoint with tokens bit-identical to sequential
        // execution of the *new* plan from the resume point. (The fold
        // keeps per-layer bits, so old and new quantized models agree —
        // the degraded-bits variant is covered below.)
        let m = model();
        let bits = vec![Bitwidth::Int8, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3], vec![9, 8, 7]];
        let n_gen = 7;
        let faults = FaultPlan::device_loss(1, 3); // prefill + 2 decode steps, then gone
        let out = Pipeline::new(&m, &plan(bits.clone(), 1, mb(2, 2, 2)))
            .supervised(test_cfg())
            .faults(&faults)
            .replanner(&FoldReplanner)
            .run(&prompts, n_gen)
            .expect("recovered by replanning");
        assert_eq!(out.replans, 1);
        assert_eq!(out.restarts, 1);
        assert_eq!(out.final_plan.stages.len(), 1, "folded onto the survivor");
        assert_eq!(out.final_plan.stages[0].device, 0);
        assert!(matches!(out.events[0].action, RecoveryAction::Replan { .. }));
        assert_eq!(out.events[0].checkpointed_tokens, 3);
        let qm = quantize_model(&m, &BitAssignment { bits }, Rounding::Deterministic, 0);
        for (i, p) in prompts.iter().enumerate() {
            assert_eq!(out.tokens[i], qm.generate(p, n_gen, 0.0, 0).tokens, "sequence {i}");
        }
    }

    /// Replanner that degrades every layer to INT4 on the survivor —
    /// the "shrunken cluster no longer fits the old precision" case.
    struct DegradingReplanner;
    impl Replanner for DegradingReplanner {
        fn replan(&self, old: &ExecutionPlan, lost: &[usize]) -> Result<ExecutionPlan, String> {
            let mut p = FoldReplanner.replan(old, lost)?;
            for s in &mut p.stages {
                for b in &mut s.bits {
                    *b = Bitwidth::Int4;
                }
            }
            Ok(p)
        }
    }

    #[test]
    fn replan_with_degraded_bits_matches_new_plan_from_resume_point() {
        // After the device loss the survivor cannot hold FP16, so the
        // replanner degrades to INT4. Tokens before the failure follow
        // the old model; tokens from the resume point must be exactly
        // what sequential execution of the *new* (INT4) model produces
        // when fed prompt ++ old prefix.
        let m = model();
        let old_bits = vec![Bitwidth::Int8, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3], vec![9, 8, 7]];
        let n_gen = 7;
        let faults = FaultPlan::device_loss(1, 3);
        let out = Pipeline::new(&m, &plan(old_bits.clone(), 1, mb(2, 2, 2)))
            .supervised(test_cfg())
            .faults(&faults)
            .replanner(&DegradingReplanner)
            .run(&prompts, n_gen)
            .expect("recovered with degraded bits");
        assert_eq!(out.replans, 1);
        let done = out.events[0].checkpointed_tokens;
        assert_eq!(done, 3);
        let qm_old = quantize_model(&m, &BitAssignment { bits: old_bits }, Rounding::Deterministic, 0);
        let qm_new = quantize_model(
            &m,
            &BitAssignment { bits: vec![Bitwidth::Int4, Bitwidth::Int4] },
            Rounding::Deterministic,
            0,
        );
        for (i, p) in prompts.iter().enumerate() {
            let old_full = qm_old.generate(p, n_gen, 0.0, 0).tokens;
            assert_eq!(&out.tokens[i][..done], &old_full[..done], "prefix, sequence {i}");
            let mut resumed_prompt = p.clone();
            resumed_prompt.extend_from_slice(&old_full[..done]);
            let want_tail = qm_new.generate(&resumed_prompt, n_gen - done, 0.0, 0).tokens;
            assert_eq!(&out.tokens[i][done..], &want_tail[..], "resume tail, sequence {i}");
        }
    }

    #[test]
    fn hung_stage_detected_by_heartbeat_not_disconnect() {
        // Stage 1 wedges (stops heartbeating, channels stay open). The
        // supervisor must flag StageHung(1) and recover by restarting —
        // the hang is one-shot, so attempt 1 completes.
        let m = model();
        let bits = vec![Bitwidth::Int8, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3], vec![9, 8, 7]];
        let faults = FaultPlan {
            events: vec![FaultEvent { stage: 1, step: 2, attempt: None, kind: FaultKind::Hang }],
        };
        let out = Pipeline::new(&m, &plan(bits.clone(), 1, mb(2, 2, 2)))
            .supervised(test_cfg())
            .faults(&faults)
            .replanner(&FoldReplanner)
            .run(&prompts, 5)
            .expect("recovered from hang");
        assert_eq!(out.restarts, 1);
        assert_eq!(out.replans, 0, "a hang is transient — no replan");
        assert!(
            out.events[0].error.contains("stage 1 hung"),
            "must be detected by heartbeat timeout, got: {}",
            out.events[0].error
        );
        let qm = quantize_model(&m, &BitAssignment { bits }, Rounding::Deterministic, 0);
        for (i, p) in prompts.iter().enumerate() {
            assert_eq!(out.tokens[i], qm.generate(p, 5, 0.0, 0).tokens, "sequence {i}");
        }
    }

    #[test]
    fn dropped_message_detected_as_stall_and_recovered() {
        let m = model();
        let bits = vec![Bitwidth::Fp16, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2], vec![3, 4]];
        let faults = FaultPlan {
            events: vec![FaultEvent { stage: 0, step: 2, attempt: None, kind: FaultKind::DropMessage }],
        };
        let out = Pipeline::new(&m, &plan(bits.clone(), 1, mb(1, 2, 2)))
            .supervised(test_cfg())
            .faults(&faults)
            .replanner(&FoldReplanner)
            .run(&prompts, 5)
            .expect("recovered from dropped message");
        assert_eq!(out.restarts, 1);
        assert!(out.events[0].error.contains("stalled"), "{}", out.events[0].error);
        let qm = quantize_model(&m, &BitAssignment { bits }, Rounding::Deterministic, 0);
        assert_eq!(out.tokens[0], qm.generate(&prompts[0], 5, 0.0, 0).tokens);
    }

    #[test]
    fn device_loss_without_replanner_fails_without_counting_a_restart() {
        // A restart cannot route around a lost device (the injector
        // kills its stage on every attempt), so with nothing to replan
        // the first failure is final: the error names the device, and
        // neither the hub nor any stage recorder counts a restart that
        // never happened.
        let m = model();
        let bits = vec![Bitwidth::Fp16, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2]];
        let faults = FaultPlan::device_loss(1, 1);
        let hub = Telemetry::new(2);
        let res = Pipeline::new(&m, &plan(bits, 1, mb(1, 1, 1)))
            .supervised(test_cfg())
            .faults(&faults)
            .telemetry(hub.clone())
            .run(&prompts, 5);
        assert!(matches!(res, Err(RuntimeError::DeviceLost(1))), "{res:?}");
        assert_eq!(hub.restarts(), 0);
        for s in 0..hub.n_stages() {
            assert_eq!(hub.stage(s).unwrap().restarts(), 0, "stage {s}");
        }
    }

    #[test]
    fn replan_policy_without_replanner_reports_device_loss() {
        let m = model();
        let bits = vec![Bitwidth::Fp16, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2]];
        let faults = FaultPlan::device_loss(0, 0);
        let res = Pipeline::new(&m, &plan(bits, 1, mb(1, 1, 1)))
            .supervised(test_cfg())
            .faults(&faults)
            .run(&prompts, 5);
        assert!(matches!(res, Err(RuntimeError::DeviceLost(0))), "{res:?}");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = SupervisorConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: 50,
            ..SupervisorConfig::default()
        };
        assert_eq!(cfg.backoff(0), Duration::from_millis(10));
        assert_eq!(cfg.backoff(1), Duration::from_millis(20));
        assert_eq!(cfg.backoff(2), Duration::from_millis(40));
        assert_eq!(cfg.backoff(3), Duration::from_millis(50), "capped");
        assert_eq!(cfg.backoff(10), Duration::from_millis(50), "capped");
    }

    #[test]
    fn fold_replanner_merges_lost_stages() {
        let p = ExecutionPlan {
            model: "t".into(),
            cluster: "c".into(),
            stages: vec![
                StagePlan { device: 0, layer_start: 0, layer_end: 1, bits: vec![Bitwidth::Int8] },
                StagePlan { device: 1, layer_start: 1, layer_end: 3, bits: vec![Bitwidth::Int4, Bitwidth::Int4] },
                StagePlan { device: 2, layer_start: 3, layer_end: 4, bits: vec![Bitwidth::Fp16] },
            ],
            microbatch: MicrobatchPlan { prefill_size: 1, prefill_count: 1, decode_size: 1, decode_count: 1 },
            scheme: "LLM-PQ".into(),
            kv_bits: 16,
        };
        // Middle device lost: its layers fold into the previous stage.
        let f = FoldReplanner.replan(&p, &[1]).unwrap();
        f.validate(4).unwrap();
        assert_eq!(f.stages.len(), 2);
        assert_eq!(f.stages[0].device, 0);
        assert_eq!(f.stages[0].bits, vec![Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int4]);
        // First device lost: its layers fold into the next survivor.
        let f = FoldReplanner.replan(&p, &[0]).unwrap();
        f.validate(4).unwrap();
        assert_eq!(f.stages[0].device, 1);
        assert_eq!(f.stages[0].bits.len(), 3);
        // Everything lost: error.
        assert!(FoldReplanner.replan(&p, &[0, 1, 2]).is_err());
    }
}
