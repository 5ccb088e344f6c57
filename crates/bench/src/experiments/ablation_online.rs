//! Ablation: the offline plan under online traffic (paper §7).
//!
//! Serves Poisson arrivals with ShareGPT-like prompt lengths through the
//! cluster-3 LLM-PQ plan, batching requests offline-style (pad to the
//! longest prompt, generate to the longest request). Sweeps the arrival
//! rate to find the saturation knee and reports the padding waste the
//! paper's offline assumption incurs on unpredictable workloads — the
//! gap ORCA-style iteration scheduling and vLLM's paged KV attack.

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::evaluate::batch_profile;
use llm_pq::assign;
use llmpq_cost::CostDb;
use llmpq_sim::{simulate_pipeline, KernelEnv};
use llmpq_workload::{simulate_online, BatchJob, OnlineConfig, PromptLengthModel};

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Ablation — offline plan under online (Poisson) traffic, cluster 3\n");
    let setup = ServingSetup::paper(3);
    let db = CostDb::oracle(&KernelEnv::default());
    let indicator = zoo_indicator(&setup.spec);
    let planned = assign(&setup.cluster, &setup.spec, &setup.job, &db, &indicator, &setup.cfg)
        .expect("plan");
    say!(out,
        "plan: {} stages, {:.1} mean bits, offline throughput {:.1} tok/s\n",
        planned.plan.stages.len(),
        planned.report.mean_bits,
        planned.report.throughput
    );

    // Batch-cost function: the plan's pipeline profile for the batch's
    // padded shape, simulated.
    let batch_cost = |s: usize, n: usize, b: usize| -> f64 {
        let job = BatchJob { global_batch: b, prompt_len: s, n_generate: n };
        let (loads, wl) = batch_profile(&planned.plan, &setup.cluster, &setup.spec, &db, &job);
        simulate_pipeline(&loads, &wl).total_latency
    };

    let prompt_model = PromptLengthModel::default();
    let mut t = TextTable::new(&[
        "arrival (req/s)", "failure rate", "p50 latency (s)", "p95 latency (s)",
        "queue wait (s)", "throughput (tok/s)", "retried", "padding waste",
    ]);
    for (rate, failure_rate) in
        [(0.2, 0.0), (0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 0.1), (4.0, 0.0), (8.0, 0.0)]
    {
        let cfg = OnlineConfig { arrival_rate: rate, n_requests: 150, batch_size: 8, max_wait_s: 2.0, n_generate: (50, 150), failure_rate, seed: 5 };
        let stats = simulate_online(&cfg, &prompt_model, &batch_cost).expect("online sim");
        t.row(vec![
            format!("{rate}"),
            format!("{:.0}%", failure_rate * 100.0),
            format!("{:.2}", stats.p50_latency),
            format!("{:.2}", stats.p95_latency),
            format!("{:.2}", stats.mean_queue_wait),
            format!("{:.1}", stats.throughput),
            format!("{}", stats.retried),
            format!("{:.0}%", stats.padding_fraction * 100.0),
        ]);
    }
    out.table(&t);
    say!(out, "Expectation: a saturation knee — past the engine's capacity the queue wait");
    say!(out, "dominates p95; padding waste stays large because offline batching pads to");
    say!(out, "the longest prompt (the inefficiency ORCA/vLLM address, paper §7). With a");
    say!(out, "10% per-batch failure rate, retried batches appear and tail latency grows.");
}
