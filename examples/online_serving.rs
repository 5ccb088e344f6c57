//! Serve online traffic with an offline plan (paper §7 discussion).
//!
//! ```bash
//! cargo run --release --example online_serving
//! ```
//!
//! Builds an LLM-PQ plan for a small heterogeneous cluster, then feeds it
//! Poisson arrivals with ShareGPT-like prompt lengths and reports the
//! latency/throughput/padding profile at increasing load.

use llm_pq::evaluate::batch_profile;
use llm_pq::{assign, AssignerConfig, SolverChoice};
use llmpq_cluster::{Cluster, GpuModel, Interconnect};
use llmpq_cost::CostDb;
use llmpq_model::{zoo, RefConfig, RefModel};
use llmpq_quant::{calibrate, variance_indicator, Rounding};
use llmpq_sim::{simulate_pipeline, KernelEnv};
use llmpq_workload::{simulate_online, BatchJob, OnlineConfig, PromptLengthModel};

fn main() {
    let cluster = Cluster::from_groups(
        "online-demo",
        &[(GpuModel::T4_16G, 2), (GpuModel::V100_32G, 1)],
        Interconnect::Ethernet800G,
        None,
    );
    let spec = zoo::opt_13b();
    let job = BatchJob { global_batch: 8, prompt_len: 512, n_generate: 100 };
    let db = CostDb::oracle(&KernelEnv::default());
    let teacher = RefModel::new(RefConfig::scaled_like(spec.n_layers, 1));
    let calib: Vec<Vec<usize>> =
        (0..4).map(|i| (0..32).map(|j| (i * 37 + j * 11) % teacher.cfg.vocab).collect()).collect();
    let report = calibrate(&teacher, &calib);
    let indicator =
        variance_indicator(&teacher, &report, Rounding::Deterministic).normalized_budget(1.0);
    let cfg = AssignerConfig { theta: 0.5, solver: SolverChoice::Dp { group: 4 }, ..Default::default() };
    let out = assign(&cluster, &spec, &job, &db, &indicator, &cfg).expect("plan");
    println!(
        "plan: {} stages, {:.1} mean bits, offline {:.1} tok/s\n",
        out.plan.stages.len(),
        out.report.mean_bits,
        out.report.throughput
    );

    let batch_cost = |s: usize, n: usize, b: usize| {
        let job = BatchJob { global_batch: b, prompt_len: s, n_generate: n };
        let (loads, wl) = batch_profile(&out.plan, &cluster, &spec, &db, &job);
        simulate_pipeline(&loads, &wl).total_latency
    };

    let prompt_model = PromptLengthModel::default();
    println!("{:>8} {:>10} {:>10} {:>12} {:>10}", "req/s", "p50 (s)", "p95 (s)", "tok/s", "padding");
    for rate in [0.1, 0.3, 1.0, 3.0] {
        let cfg = OnlineConfig { arrival_rate: rate, n_requests: 100, batch_size: 8, ..Default::default() };
        let s = simulate_online(&cfg, &prompt_model, &batch_cost).expect("online sim");
        println!(
            "{rate:>8} {:>10.2} {:>10.2} {:>12.1} {:>9.0}%",
            s.p50_latency,
            s.p95_latency,
            s.throughput,
            s.padding_fraction * 100.0
        );
    }
    println!("\nthe knee marks this plan's online capacity; beyond it requests queue.");
}
