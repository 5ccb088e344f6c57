//! Property tests for the fault-tolerance subsystem: under *arbitrary*
//! bounded fault plans, supervised execution either completes with
//! output bit-identical to sequential execution of the quantized model,
//! or fails only because no devices survived — and never exceeds the
//! restart budget.

use llm_pq::{ExecutionPlan, StagePlan};
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{quantize_model, BitAssignment, Bitwidth, Rounding};
use llmpq_runtime::{FaultPlan, FoldReplanner, Pipeline, RuntimeError, SupervisorConfig};
use llmpq_workload::MicrobatchPlan;
use proptest::prelude::*;

fn two_stage_plan(bits: &[Bitwidth]) -> ExecutionPlan {
    let n = bits.len();
    let split = n / 2;
    ExecutionPlan {
        model: "tiny".into(),
        cluster: "prop".into(),
        stages: vec![
            StagePlan { device: 0, layer_start: 0, layer_end: split, bits: bits[..split].to_vec() },
            StagePlan { device: 1, layer_start: split, layer_end: n, bits: bits[split..].to_vec() },
        ],
        microbatch: MicrobatchPlan {
            prefill_size: 2,
            prefill_count: 1,
            decode_size: 2,
            decode_count: 1,
        },
        scheme: "LLM-PQ".into(),
        kv_bits: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn supervised_runs_are_bit_identical_or_out_of_devices(
        fault_seed in 0u64..1_000_000,
        model_seed in 0u64..4,
        n_generate in 3usize..7,
    ) {
        let m = RefModel::new(RefConfig::scaled_like(4, model_seed));
        let bits =
            vec![Bitwidth::Int8, Bitwidth::Fp16, Bitwidth::Int8, Bitwidth::Fp16];
        let plan = two_stage_plan(&bits);
        let prompts = vec![vec![1usize, 2, 3], vec![9, 8, 7]];
        let faults = FaultPlan::random(fault_seed, plan.stages.len(), 8, 4);
        let cfg = SupervisorConfig {
            heartbeat_timeout_ms: 100,
            progress_timeout_ms: 250,
            tick_ms: 1,
            max_restarts: faults.events.len() + 1,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            max_queue: None,
        };
        let res = Pipeline::new(&m, &plan)
            .supervised(cfg)
            .faults(&faults)
            .replanner(&FoldReplanner)
            .run(&prompts, n_generate);
        match res {
            Ok(out) => {
                // Restart budget respected.
                prop_assert!(out.restarts <= cfg.max_restarts,
                    "restarts {} > bound {}", out.restarts, cfg.max_restarts);
                // The fold keeps every layer's bitwidth, so whatever
                // sequence of crashes/losses/replans happened, the
                // tokens must equal sequential execution of the
                // original quantized model.
                let qm = quantize_model(
                    &m,
                    &BitAssignment { bits: bits.clone() },
                    Rounding::Deterministic,
                    0,
                );
                for (i, p) in prompts.iter().enumerate() {
                    let want = qm.generate(p, n_generate, 0.0, 0).tokens;
                    prop_assert_eq!(&out.tokens[i], &want,
                        "sequence {} diverged under faults {:?}", i, faults);
                }
            }
            Err(e) => {
                // Only acceptable terminal failure: every device is
                // gone (both stages hit DeviceLoss), so neither
                // restart nor replan can make progress.
                let out_of_devices = matches!(e, RuntimeError::DeviceLost(_))
                    || matches!(&e, RuntimeError::BadPlan(msg)
                        if msg.contains("no surviving devices"));
                prop_assert!(out_of_devices,
                    "unexpected terminal error {e} under faults {faults:?}");
            }
        }
    }

    #[test]
    fn random_fault_plans_always_validate(seed in 0u64..1_000_000) {
        let fp = FaultPlan::random(seed, 3, 10, 5);
        prop_assert!(fp.validate(3).is_ok());
        prop_assert!(fp.events.len() <= 5);
    }
}
