//! Failure recovery in the pipeline runtime.
//!
//! ```bash
//! cargo run --release --example failure_recovery
//! ```
//!
//! Injects a stage-worker crash mid-generation and shows the supervisor
//! checkpointing progress, reloading the stage through the on-the-fly
//! quantizer (the fast-recovery path the paper's §5 loader was built
//! for), and resuming to a bit-identical result.

use llm_pq::ExecutionPlan;
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{quantize_model, BitAssignment, Bitwidth, Rounding};
use llmpq_runtime::{FaultPlan, Pipeline, RuntimeError, SupervisorConfig};
use llmpq_workload::MicrobatchPlan;

fn main() -> Result<(), RuntimeError> {
    let checkpoint = RefModel::new(RefConfig::scaled_like(6, 77));
    let bits = vec![
        Bitwidth::Int8,
        Bitwidth::Int8,
        Bitwidth::Int4,
        Bitwidth::Int4,
        Bitwidth::Int4,
        Bitwidth::Fp16,
    ];
    let mb = MicrobatchPlan { prefill_size: 2, prefill_count: 2, decode_size: 4, decode_count: 1 };
    let plan = ExecutionPlan::contiguous("demo-6l", "demo", vec![bits[..3].to_vec(), bits[3..].to_vec()], mb);
    let prompts: Vec<Vec<usize>> =
        (0..4).map(|i| (0..10).map(|j| (i * 31 + j * 7) % 256).collect()).collect();

    println!("running 24-token generation with stage 1 crashing after 8 work items…");
    // stage 1 dies mid-decode on the first attempt
    let faults = FaultPlan::crash(1, 8);
    let out = Pipeline::new(&checkpoint, &plan)
        .supervised(SupervisorConfig::default())
        .faults(&faults)
        .run(&prompts, 24)?;
    println!("recovered with {} restart(s); wall {:.3}s", out.restarts, out.wall_s);
    for ev in &out.events {
        println!(
            "  attempt {}: {} -> {:?} ({} tokens checkpointed)",
            ev.attempt, ev.error, ev.action, ev.checkpointed_tokens
        );
    }
    for (i, m) in out.stage_metrics.iter().enumerate() {
        println!("  stage {i}: {} items, {:.4}s busy", m.items, m.busy_s);
    }

    // Verify against sequential execution of the same quantized model.
    let qm = quantize_model(&checkpoint, &BitAssignment { bits }, Rounding::Deterministic, 0);
    for (i, p) in prompts.iter().enumerate() {
        assert_eq!(out.tokens[i], qm.generate(p, 24, 0.0, 0).tokens, "sequence {i}");
    }
    println!("\ntokens verified bit-identical to an uninterrupted sequential run ✓");
    Ok(())
}
