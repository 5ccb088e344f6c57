//! Integration: live plan migration — the epoch-numbered two-phase
//! swap protocol (`llmpq_runtime::migrate`) driving a *real* 3-stage
//! pipeline through mid-decode precision and partition changes, with
//! tokens bit-identical to a hybrid oracle that runs the pre-swap model
//! up to the boundary and the post-swap model after it.

use llm_pq::{ExecutionPlan, MicrobatchPlan};
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{quantize_model, Bitwidth, Rounding};
use llmpq_runtime::{
    hybrid_oracle_tokens, FaultEvent, FaultKind, FaultPlan, FoldReplanner, Pipeline,
    RecoveryAction, RuntimeError, SupervisorConfig, SwapRequest, Telemetry,
};

const N_LAYERS: usize = 4;

fn checkpoint() -> RefModel {
    RefModel::new(RefConfig::scaled_like(N_LAYERS, 42))
}

fn prompts(n: usize) -> Vec<Vec<usize>> {
    (0..n).map(|i| (0..8).map(|j| (i * 31 + j * 7) % 256).collect()).collect()
}

fn plan(partition: &[(usize, usize)], bits: &[Bitwidth]) -> ExecutionPlan {
    let stage_bits = partition.iter().map(|&(lo, hi)| bits[lo..hi].to_vec()).collect();
    let mb = MicrobatchPlan { prefill_size: 1, prefill_count: 2, decode_size: 2, decode_count: 1 };
    ExecutionPlan::contiguous("tiny-4l", "trio", stage_bits, mb)
}

fn fast_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        heartbeat_timeout_ms: 2_000,
        progress_timeout_ms: 5_000,
        tick_ms: 1,
        max_restarts: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 8,
        max_queue: None,
    }
}

/// The oracle for one prompt: old-plan model up to `swap_at` generated
/// tokens, target-plan model after, both quantized exactly like the
/// pipeline's loader quantizes them.
fn oracle(
    ck: &RefModel,
    old: &ExecutionPlan,
    new: &ExecutionPlan,
    swap_at: usize,
    prompt: &[usize],
    n_gen: usize,
    resume_at: Option<usize>,
) -> Vec<usize> {
    let qo = quantize_model(ck, &old.bit_assignment(), Rounding::Deterministic, 0);
    let qn = quantize_model(ck, &new.bit_assignment(), Rounding::Deterministic, 0);
    hybrid_oracle_tokens(&[(0, &qo), (swap_at, &qn)], prompt, n_gen, resume_at)
}

#[test]
fn mid_decode_bitwidth_swap_is_token_identical_to_oracle() {
    let ck = checkpoint();
    let part = [(0, 1), (1, 3), (3, 4)];
    let base = plan(&part, &[Bitwidth::Fp16; N_LAYERS]);
    let target = plan(&part, &[Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int8, Bitwidth::Int4]);
    let prompts = prompts(3);
    let n_gen = 8;
    let swap_at = 3;
    let telemetry = Telemetry::new(3);

    let out = Pipeline::new(&ck, &base)
        .supervised(fast_supervisor())
        .telemetry(telemetry.clone())
        .swaps(&[SwapRequest { at_token: swap_at, plan: target.clone() }])
        .run(&prompts, n_gen)
        .expect("swap run ok");

    assert_eq!(out.restarts, 0);
    assert_eq!(out.swaps.len(), 1);
    let report = &out.swaps[0];
    assert!(report.committed, "clean run must commit: {:?}", report.reason);
    assert_eq!(report.epoch, 1);
    assert_eq!(report.at_token, swap_at);
    // Pure precision swap: every stage keeps its layers, no KV moves.
    assert_eq!(report.kv_bytes, 0, "bitwidth-only swap must not ship KV");
    assert_eq!(out.final_plan, target);
    assert_eq!(telemetry.epoch(), 1);
    assert_eq!(telemetry.swaps(), 1);

    for (i, p) in prompts.iter().enumerate() {
        let want = oracle(&ck, &base, &target, swap_at, p, n_gen, None);
        assert_eq!(out.tokens[i], want, "sequence {i}");
    }
}

#[test]
fn repartition_swap_ships_kv_and_is_token_identical_to_oracle() {
    let ck = checkpoint();
    let bits = [Bitwidth::Int8, Bitwidth::Fp16, Bitwidth::Int8, Bitwidth::Fp16];
    let base = plan(&[(0, 1), (1, 3), (3, 4)], &bits);
    // Layer 1 moves from stage 1 to stage 0, layer 3's stage unchanged:
    // stage 0 must receive layer 1's KV slices from stage 1 in the
    // commit window.
    let target = plan(&[(0, 2), (2, 3), (3, 4)], &bits);
    let prompts = prompts(2);
    let n_gen = 7;
    let swap_at = 4;
    let telemetry = Telemetry::new(3);

    let out = Pipeline::new(&ck, &base)
        .supervised(fast_supervisor())
        .telemetry(telemetry.clone())
        .swaps(&[SwapRequest { at_token: swap_at, plan: target.clone() }])
        .run(&prompts, n_gen)
        .expect("repartition run ok");

    assert_eq!(out.restarts, 0);
    let report = &out.swaps[0];
    assert!(report.committed, "clean run must commit: {:?}", report.reason);
    // Same bits, so the oracle equals a plain old-plan run — the swap
    // must be invisible in token space but visible in KV traffic.
    assert!(report.kv_bytes > 0, "repartition must account KV migration bytes");
    assert_eq!(telemetry.kv_migrated_bytes(), report.kv_bytes);
    assert_eq!(out.final_plan, target);

    for (i, p) in prompts.iter().enumerate() {
        let want = oracle(&ck, &base, &target, swap_at, p, n_gen, None);
        assert_eq!(out.tokens[i], want, "sequence {i}");
    }
}

#[test]
fn chained_swaps_walk_precision_down_then_repartition() {
    let ck = checkpoint();
    let base = plan(&[(0, 1), (1, 3), (3, 4)], &[Bitwidth::Fp16; N_LAYERS]);
    let mid = plan(&[(0, 1), (1, 3), (3, 4)], &[Bitwidth::Int8; N_LAYERS]);
    let last = plan(&[(0, 2), (2, 3), (3, 4)], &[Bitwidth::Int8; N_LAYERS]);
    let prompts = prompts(2);
    let n_gen = 9;

    let out = Pipeline::new(&ck, &base)
        .supervised(fast_supervisor())
        .swaps(&[
            SwapRequest { at_token: 2, plan: mid.clone() },
            SwapRequest { at_token: 5, plan: last.clone() },
        ])
        .run(&prompts, n_gen)
        .expect("chained swaps ok");

    assert_eq!(out.swaps.len(), 2);
    assert!(out.swaps.iter().all(|r| r.committed));
    assert_eq!((out.swaps[0].epoch, out.swaps[1].epoch), (1, 2));
    assert!(out.swaps.windows(2).all(|w| w[0].epoch < w[1].epoch), "epochs strictly increase");
    assert_eq!(out.final_plan, last);

    let qb = quantize_model(&ck, &base.bit_assignment(), Rounding::Deterministic, 0);
    let qm = quantize_model(&ck, &mid.bit_assignment(), Rounding::Deterministic, 0);
    let ql = quantize_model(&ck, &last.bit_assignment(), Rounding::Deterministic, 0);
    for (i, p) in prompts.iter().enumerate() {
        let want = hybrid_oracle_tokens(&[(0, &qb), (2, &qm), (5, &ql)], p, n_gen, None);
        assert_eq!(out.tokens[i], want, "sequence {i}");
    }
}

#[test]
fn mid_migration_crash_recovers_without_dropping_requests() {
    let ck = checkpoint();
    let part = [(0, 1), (1, 3), (3, 4)];
    let base = plan(&part, &[Bitwidth::Fp16; N_LAYERS]);
    let target = plan(&part, &[Bitwidth::Int4; N_LAYERS]);
    let prompts = prompts(2);
    let n_gen = 8;
    let swap_at = 3;

    // Crash stage 1 somewhere around the swap boundary: prefill is 2
    // stage-local items, so item 4 lands inside decode near at_token.
    let faults = FaultPlan::crash(1, 4);
    let out = Pipeline::new(&ck, &base)
        .supervised(fast_supervisor())
        .faults(&faults)
        .swaps(&[SwapRequest { at_token: swap_at, plan: target.clone() }])
        .run(&prompts, n_gen)
        .expect("supervised migration run recovers");

    assert!(out.restarts >= 1, "the scheduled crash must have fired");
    // No dropped requests: every sequence finished all its tokens.
    assert!(out.tokens.iter().all(|t| t.len() == n_gen));

    // The run must be bit-identical to *some* legal recovery history:
    // the hybrid oracle resumed (re-prefilled) at the restart point, or
    // never interrupted (resume before any decode progress).
    let legal: Vec<Vec<usize>> = std::iter::once(None)
        .chain((1..=n_gen).map(Some))
        .map(|resume| oracle(&ck, &base, &target, swap_at, &prompts[0], n_gen, resume))
        .collect();
    assert!(
        legal.contains(&out.tokens[0]),
        "recovered tokens match no legal oracle history: {:?}",
        out.tokens[0]
    );
    // Both sequences took the same history.
    let k = legal.iter().position(|l| l == &out.tokens[0]).unwrap();
    let resume = if k == 0 { None } else { Some(k) };
    assert_eq!(
        out.tokens[1],
        oracle(&ck, &base, &target, swap_at, &prompts[1], n_gen, resume),
        "sequences disagree on the recovery history"
    );
}

#[test]
fn swap_schedule_validation_rejects_stage_count_changes() {
    let ck = checkpoint();
    let base = plan(&[(0, 1), (1, 3), (3, 4)], &[Bitwidth::Fp16; N_LAYERS]);
    let two_stage = plan(&[(0, 2), (2, 4)], &[Bitwidth::Fp16; N_LAYERS]);
    let err = Pipeline::new(&ck, &base)
        .supervised(fast_supervisor())
        .swaps(&[SwapRequest { at_token: 2, plan: two_stage }])
        .run(&prompts(1), 4)
        .unwrap_err();
    assert!(err.to_string().contains("stage count"), "got: {err}");
}

#[test]
fn post_commit_failure_is_logged_and_attributed_like_any_supervised_restart() {
    let ck = checkpoint();
    let part = [(0, 1), (1, 3), (3, 4)];
    let base = plan(&part, &[Bitwidth::Fp16; N_LAYERS]);
    let target = plan(&part, &[Bitwidth::Int4; N_LAYERS]);
    let prompts = prompts(2);
    let (n_gen, swap_at) = (8, 2);
    let telemetry = Telemetry::new(3);

    // Stage 1 wedges on its sixth item: two prefill items, then one
    // decode item per token, so tokens 0..4 are out and the swap at
    // token 2 has committed. A hang rather than a crash because only
    // the heartbeat timeout names the failed stage itself; a crash
    // surfaces as a disconnect, which names at most the upstream stage
    // that lost an item.
    let faults = FaultPlan {
        events: vec![FaultEvent { stage: 1, step: 5, attempt: None, kind: FaultKind::Hang }],
    };
    let out = Pipeline::new(&ck, &base)
        .supervised(fast_supervisor())
        .swaps(&[SwapRequest { at_token: swap_at, plan: target.clone() }])
        .faults(&faults)
        .telemetry(telemetry.clone())
        .run(&prompts, n_gen)
        .expect("restarts on the target plan");

    assert_eq!(out.restarts, 1, "{:?}", out.events);
    assert_eq!(out.events.len(), 1, "one recovery event per restart");
    let ev = &out.events[0];
    assert_eq!(ev.attempt, 0);
    assert_eq!(ev.checkpointed_tokens, 4);
    assert!(ev.error.contains("stage 1 hung"), "{}", ev.error);
    assert!(matches!(ev.action, RecoveryAction::Restart { .. }));
    assert_eq!(telemetry.restarts(), 1);
    assert_eq!(telemetry.stage(1).expect("stage recorder").restarts(), 1);
    assert!(out.swaps.len() == 1 && out.swaps[0].committed, "{:?}", out.swaps);
    assert_eq!(out.final_plan, target);

    for (i, p) in prompts.iter().enumerate() {
        let want = oracle(&ck, &base, &target, swap_at, p, n_gen, Some(ev.checkpointed_tokens));
        assert_eq!(out.tokens[i], want, "sequence {i}");
    }
}

#[test]
fn swap_schedule_needs_supervision_and_excludes_a_replanner() {
    let ck = checkpoint();
    let part = [(0, 1), (1, 3), (3, 4)];
    let base = plan(&part, &[Bitwidth::Fp16; N_LAYERS]);
    let swaps = [SwapRequest { at_token: 2, plan: plan(&part, &[Bitwidth::Int4; N_LAYERS]) }];

    let err = Pipeline::new(&ck, &base).swaps(&swaps).run(&prompts(1), 4).unwrap_err();
    assert!(matches!(&err, RuntimeError::BadPlan(m) if m.contains("supervised")), "got: {err}");

    let err = Pipeline::new(&ck, &base)
        .supervised(fast_supervisor())
        .replanner(&FoldReplanner)
        .swaps(&swaps)
        .run(&prompts(1), 4)
        .unwrap_err();
    assert!(matches!(&err, RuntimeError::BadPlan(m) if m.contains("replanner")), "got: {err}");
}
