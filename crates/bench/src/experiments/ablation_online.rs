//! Ablation: the offline plan under online traffic (paper §7).
//!
//! Serves Poisson arrivals with ShareGPT-like prompt lengths through the
//! cluster-3 LLM-PQ plan, batching requests offline-style (pad to the
//! longest prompt, generate to the longest request): the runtime's
//! static-batching loop over an engine whose iteration cost is fitted
//! from the plan's batch latency. Sweeps the arrival rate to find the
//! saturation knee and reports the padding waste the paper's offline
//! assumption incurs on unpredictable workloads — the gap ORCA-style
//! iteration scheduling and vLLM's paged KV attack.

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::assign;
use llm_pq::evaluate::batch_latency;
use llmpq_cost::CostDb;
use llmpq_runtime::{arrival_requests, serve_trace_static, IterCost};
use llmpq_sim::KernelEnv;
use llmpq_workload::{sample_arrivals, OnlineConfig, PromptLengthModel};

const BATCH: usize = 8;
const MAX_WAIT_S: f64 = 2.0;

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

    let mut t = TextTable::new(&[
        "arrival (req/s)", "p50 latency (s)", "p95 latency (s)", "mean ttft (s)",
        "throughput (tok/s)", "padding waste",
    ]);
    for rate in [0.2, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let cfg =
            OnlineConfig { arrival_rate: rate, n_requests: 150, n_generate: (50, 150), seed: 5 };
        let trace = arrival_requests(
            &sample_arrivals(&cfg, &PromptLengthModel::default()).expect("arrivals"),
        );
        let cost = IterCost::fit_trace(&trace, BATCH, |job| {
            batch_latency(&planned.plan, &setup.cluster, &setup.spec, &db, job)
        });
        let rep = serve_trace_static(&trace, vec![cost], BATCH, MAX_WAIT_S, cfg.seed)
            .expect("static run");
        assert!(rep.conserves() && rep.completed == trace.len(), "rate {rate}: {:?}", rep.stats);
        let (sojourn, ttft) = (rep.sojourn.as_ref().unwrap(), rep.ttft.as_ref().unwrap());
        t.row(vec![
            format!("{rate}"),
            format!("{:.2}", sojourn.p50),
            format!("{:.2}", sojourn.p95),
            format!("{:.2}", ttft.mean),
            format!("{:.1}", rep.throughput_tok_s),
            format!("{:.0}%", rep.padding_fraction(&trace) * 100.0),
        ]);
    }
    out.table(&t);
    say!(out, "Expectation: a saturation knee — past the engine's capacity the queue wait");
    say!(out, "dominates p95; padding waste stays large because offline batching pads to");
    say!(out, "the longest prompt (the inefficiency ORCA/vLLM address, paper §7).");
}
