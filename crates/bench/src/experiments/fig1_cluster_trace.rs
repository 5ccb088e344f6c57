//! Figure 1: GPU proportions and utilization in a production AI cluster.
//!
//! Regenerates both panels from the synthetic production trace:
//! (a) the fleet share per GPU type, (b) the one-month average
//! utilization per type. The paper's qualitative claims to reproduce:
//! high-calibre GPUs (A100/V100) are a minority of the fleet and run far
//! hotter than the plentiful inference cards (T4/P100).

use crate::{Args, Out, TextTable};
use llmpq_cluster::{ProductionTrace, TraceConfig};

pub fn run(out: &mut Out, _: &Args) {
    let cfg = TraceConfig::default();
    say!(out, "Figure 1 — production-cluster trace (seed {}, {} GPUs, {} h)\n", cfg.seed, cfg.fleet_size, cfg.hours);
    let trace = ProductionTrace::generate(&cfg);

    let mut t = TextTable::new(&["GPU", "Fleet share", "Avg utilization", "Idle GPU-hours"]);
    let portions = trace.portions();
    let utils = trace.mean_utilization();
    let idle = trace.idle_gpu_hours();
    for ((g, share), ((_, util), (_, idle_h))) in portions.iter().zip(utils.iter().zip(idle.iter())) {
        t.row(vec![
            g.to_string(),
            format!("{:.1}%", share * 100.0),
            format!("{:.1}%", util * 100.0),
            format!("{:.0}", idle_h),
        ]);
    }
    out.table(&t);

    let t4 = portions.iter().find(|(g, _)| g.to_string() == "T4-16G").unwrap().1;
    let a100 = portions.iter().find(|(g, _)| g.to_string() == "A100-40G").unwrap().1;
    let t4u = utils.iter().find(|(g, _)| g.to_string() == "T4-16G").unwrap().1;
    let a100u = utils.iter().find(|(g, _)| g.to_string() == "A100-40G").unwrap().1;
    say!(out, "Paper shape check:");
    say!(out, "  low-calibre cards dominate the fleet:  T4 share / A100 share = {:.1}x", t4 / a100);
    say!(out, "  high-calibre cards run hot:            A100 util / T4 util   = {:.1}x", a100u / t4u);
    say!(out, "\n=> idle low-calibre capacity is the resource pool LLM-PQ targets.");
}
