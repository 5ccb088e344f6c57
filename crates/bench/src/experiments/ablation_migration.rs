//! Ablation: live plan migration vs. restart-from-checkpoint.
//!
//! Both mechanisms move a serving pipeline from a mixed Int8/Fp16 plan
//! to an all-Int4 plan with one layer re-homed onto the next stage,
//! mid-generation, with requests in flight:
//!
//! * **live swap** (`Pipeline::swaps`): the two-phase protocol —
//!   workers requantize the target shard while the old plan keeps
//!   serving, commit at the token boundary, and re-partitioned layers
//!   ship their KV slices as bit-exact chunks. The switch costs one
//!   commit window; nothing is recomputed.
//! * **restart baseline** (PR 1's recovery path): stop at the lock-step
//!   checkpoint, reload every stage on the target plan, re-prefill the
//!   prompt *plus every token generated so far*, and resume. The switch
//!   costs a full weight reload plus a KV recompute that grows with the
//!   prefix already served.
//!
//! Emits `BENCH_migration.json` so the recovery path has a tracked perf
//! trajectory, and prints a comparison table.

use crate::{Args, Out, TextTable};
use llm_pq::{ExecutionPlan, MicrobatchPlan};
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{Bitwidth, Rounding};
use llmpq_runtime::{load_stage_weights, Pipeline, SupervisorConfig, SwapRequest};
use std::time::Instant;

/// Evenly partition `n_layers` into `n_stages`, alternating Int8/Fp16.
fn base_plan(n_layers: usize, n_stages: usize, n_seqs: usize) -> ExecutionPlan {
    let (per, rem) = (n_layers / n_stages, n_layers % n_stages);
    let mut layers = (0..n_layers).map(|l| if l % 2 == 0 { Bitwidth::Int8 } else { Bitwidth::Fp16 });
    let bits = (0..n_stages).map(|s| layers.by_ref().take(per + usize::from(s < rem)).collect()).collect();
    let mb = MicrobatchPlan {
        prefill_size: 2,
        prefill_count: n_seqs.div_ceil(2).max(1),
        decode_size: n_seqs.max(1),
        decode_count: 1,
    };
    ExecutionPlan::contiguous(&format!("bench-{n_layers}l"), "ablation", bits, mb)
}

pub fn run(out: &mut Out, _: &Args) {
    let n_layers = 16;
    let n_stages = 4;
    let batch = 4usize;
    let prompt_len = 8usize;
    let n_generate = 12usize;
    let at_token = 4usize;
    let seed = 0u64;

    say!(out,
        "Ablation — live plan migration vs. restart-from-checkpoint \
         ({n_layers} layers / {n_stages} stages, batch {batch}, swap at token {at_token}/{n_generate})\n"
    );

    let checkpoint = RefModel::new(RefConfig::scaled_like(n_layers, 0xBE7C));
    let base = base_plan(n_layers, n_stages, batch);
    let target = base.int4_with_one_layer_moved();
    let prompts: Vec<Vec<usize>> = (0..batch)
        .map(|i| (0..prompt_len).map(|j| (i * 41 + j * 17) % checkpoint.cfg.vocab).collect())
        .collect();

    // --- live swap ------------------------------------------------------
    let t = Instant::now();
    let live = Pipeline::new(&checkpoint, &base)
        .quantizer(Rounding::Deterministic, seed)
        .supervised(SupervisorConfig::default())
        .swaps(&[SwapRequest { at_token, plan: target.clone() }])
        .run(&prompts, n_generate)
        .expect("live swap run");
    let live_wall_s = t.elapsed().as_secs_f64();
    let swap = live.swaps.first().expect("one swap scheduled");
    assert!(swap.committed, "fault-free live swap must commit");

    // --- restart-from-checkpoint baseline -------------------------------
    // Serve the prefix under the old plan, stop at the boundary.
    let t = Instant::now();
    let prefix = Pipeline::new(&checkpoint, &base)
        .quantizer(Rounding::Deterministic, seed)
        .run(&prompts, at_token)
        .expect("prefix run");
    let prefix_s = t.elapsed().as_secs_f64();
    // Reload every stage's weights on the target plan (serving is down).
    let t = Instant::now();
    let mut reload_modules = 0usize;
    for sp in &target.stages {
        let (w, stats) = load_stage_weights(&checkpoint, sp.layer_start, &sp.bits, Rounding::Deterministic, seed);
        reload_modules += stats.modules;
        std::hint::black_box(w);
    }
    let reload_s = t.elapsed().as_secs_f64();
    // Re-prefill prompt + served prefix, then decode the remainder.
    let resumed_prompts: Vec<Vec<usize>> = prompts
        .iter()
        .zip(&prefix.tokens)
        .map(|(p, gen)| p.iter().chain(gen.iter()).copied().collect())
        .collect();
    let t = Instant::now();
    let tail = Pipeline::new(&checkpoint, &target)
        .quantizer(Rounding::Deterministic, seed)
        .run(&resumed_prompts, n_generate - at_token)
        .expect("resumed run");
    let resume_s = t.elapsed().as_secs_f64();
    let baseline_wall_s = prefix_s + reload_s + resume_s;
    // KV the restart recomputes at the boundary: every cached position of
    // every layer, k + v rows of `hidden` f32s per position.
    let recomputed_rows = batch * (prompt_len + at_token);
    let recomputed_kv_bytes = recomputed_rows * n_layers * checkpoint.cfg.hidden * 2 * 4;

    // Same tokens either way is NOT expected (Int4 vs the hybrid history
    // differ) — but both must serve every request full-length.
    assert!(live.tokens.iter().all(|t| t.len() == n_generate));
    assert!(tail.tokens.iter().all(|t| t.len() == n_generate - at_token));

    let mut table = TextTable::new(&["mechanism", "total wall (s)", "switch cost", "KV moved/recomputed"]);
    table.row(vec![
        "live swap".into(),
        format!("{live_wall_s:.3}"),
        format!("{} µs commit window", swap.latency_us),
        format!("{} B shipped", swap.kv_bytes),
    ]);
    table.row(vec![
        "restart+checkpoint".into(),
        format!("{baseline_wall_s:.3}"),
        format!("{:.3} s reload + {:.3} s re-prefill+decode", reload_s, resume_s),
        format!("{recomputed_kv_bytes} B recomputed"),
    ]);
    out.table(&table);
    say!(out,
        "live swap commit window: {} µs; restart switch gap: {:.1} ms ({} modules reloaded)",
        swap.latency_us,
        (reload_s + resume_s) * 1e3,
        reload_modules
    );

    let report = BenchReport {
        bench: "ablation_migration",
        config: BenchConfig { n_layers, n_stages, batch, prompt_len, n_generate, at_token },
        live_swap: LiveSwap {
            wall_s: live_wall_s,
            commit_latency_us: swap.latency_us,
            kv_bytes_shipped: swap.kv_bytes,
            restarts: live.restarts,
            committed: swap.committed,
        },
        restart_baseline: RestartBaseline {
            wall_s: baseline_wall_s,
            reload_s,
            resume_s,
            reloaded_modules: reload_modules,
            kv_bytes_recomputed: recomputed_kv_bytes,
        },
    };
    out.json("BENCH_migration.json", &report);
}

#[derive(serde::Serialize)]
struct BenchReport {
    bench: &'static str,
    config: BenchConfig,
    live_swap: LiveSwap,
    restart_baseline: RestartBaseline,
}

#[derive(serde::Serialize)]
struct BenchConfig {
    n_layers: usize,
    n_stages: usize,
    batch: usize,
    prompt_len: usize,
    n_generate: usize,
    at_token: usize,
}

#[derive(serde::Serialize)]
struct LiveSwap {
    wall_s: f64,
    commit_latency_us: u64,
    kv_bytes_shipped: u64,
    restarts: usize,
    committed: bool,
}

#[derive(serde::Serialize)]
struct RestartBaseline {
    wall_s: f64,
    reload_s: f64,
    resume_s: f64,
    reloaded_modules: usize,
    kv_bytes_recomputed: usize,
}
