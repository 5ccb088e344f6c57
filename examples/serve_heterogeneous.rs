//! End-to-end serving: plan with the assigner, then *execute* the plan
//! on the live pipeline runtime.
//!
//! ```bash
//! cargo run --release --example serve_heterogeneous
//! ```
//!
//! Uses a laptop-scale reference transformer as the checkpoint so the
//! whole flow — phase-aware partition, adaptive quantization, on-the-fly
//! quantized loading, master engine + stage workers — actually runs and
//! generates tokens, bit-identical to sequential execution.

use llm_pq::{assign, AssignerConfig, SolverChoice};
use llmpq_cluster::{Cluster, GpuModel, Interconnect};
use llmpq_cost::CostDb;
use llmpq_model::{ModelFamily, ModelSpec, RefConfig, RefModel};
use llmpq_quant::{calibrate, variance_indicator, Rounding};
use llmpq_runtime::Pipeline;
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;

fn main() {
    // A small heterogeneous "cluster": one T4 and one V100.
    let cluster = Cluster::from_groups(
        "demo",
        &[(GpuModel::T4_16G, 1), (GpuModel::V100_32G, 1)],
        Interconnect::Ethernet800G,
        None,
    );
    // The model as the *planner* sees it: 8 transformer layers at a
    // serving-scale width (hidden 12288), so real memory pressure forces
    // adaptive quantization…
    let spec = ModelSpec::new(ModelFamily::Opt, "demo-8l", 8, 12288, 96, 50272, 2048);
    // …and as the *runtime* executes it: the scaled stand-in checkpoint
    // with the same layer count (the DESIGN.md substitution).
    let checkpoint = RefModel::new(RefConfig::scaled_like(8, 123));

    let job = BatchJob { global_batch: 32, prompt_len: 512, n_generate: 100 };
    let db = CostDb::oracle(&KernelEnv::default());
    let calib: Vec<Vec<usize>> =
        (0..4).map(|i| (0..24).map(|j| (i * 29 + j * 13) % 256).collect()).collect();
    let report = calibrate(&checkpoint, &calib);
    let indicator =
        variance_indicator(&checkpoint, &report, Rounding::Deterministic).normalized_budget(1.0);

    let cfg = AssignerConfig { theta: 0.2, solver: SolverChoice::Dp { group: 1 }, ..Default::default() };
    let out = assign(&cluster, &spec, &job, &db, &indicator, &cfg).expect("plan");
    println!("plan: {} stages, mean bits {:.1}", out.plan.stages.len(), out.report.mean_bits);

    // Six prompts of 12 tokens each.
    let prompts: Vec<Vec<usize>> = (0..6)
        .map(|i| (0..12).map(|j| (i * 41 + j * 17) % 256).collect())
        .collect();

    let n_generate = 16; // runtime demo length (the plan covers n=100)
    let run =
        Pipeline::new(&checkpoint, &out.plan).run(&prompts, n_generate).expect("pipeline runs");
    println!("\ngenerated {n_generate} tokens per sequence in {:.3}s (wall):", run.wall_s);
    for (i, toks) in run.tokens.iter().enumerate() {
        println!("  seq {i}: {:?}", &toks[..8.min(toks.len())]);
    }
    for (i, s) in run.loader_stats.iter().enumerate() {
        println!(
            "  stage {i} loader: {} modules streamed ({} quantized), peak staging {} KiB",
            s.modules,
            s.quantized_modules,
            s.peak_staging_bytes / 1024
        );
    }

    // Prove equivalence with single-threaded execution.
    let qm = llmpq_quant::quantize_model(
        &checkpoint,
        &out.plan.bit_assignment(),
        Rounding::Deterministic,
        0,
    );
    let want = qm.generate(&prompts[0], n_generate, 0.0, 0).tokens;
    assert_eq!(run.tokens[0], want);
    println!("\npipeline output verified bit-identical to sequential execution ✓");
}
