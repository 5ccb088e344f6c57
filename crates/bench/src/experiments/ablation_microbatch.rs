//! Ablation: the micro-batch pruning window ξ and hybrid sizing
//! (Optimization #1).
//!
//! Sweeps the prefill window ξ and compares hybrid (per-phase) sizing
//! against PipeEdge's single shared micro-batch size on cluster 3.

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::assign;
use llmpq_cost::CostDb;
use llmpq_sim::KernelEnv;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Ablation — micro-batch pruning window ξ (cluster 3, OPT-30b)\n");
    let db = CostDb::oracle(&KernelEnv::default());
    let mut setup = ServingSetup::paper(3);
    let indicator = zoo_indicator(&setup.spec);

    let mut t = TextTable::new(&["xi", "Throughput (tok/s)", "prefill µ", "decode µ", "Overhead (s)"])
        .measured(&["Overhead (s)"]);
    for xi in [1usize, 2, 4, 8, 16, 32] {
        setup.cfg.xi = xi;
        match assign(&setup.cluster, &setup.spec, &setup.job, &db, &indicator, &setup.cfg) {
            Ok(out) => t.row(vec![
                xi.to_string(),
                format!("{:.2}", out.report.throughput),
                out.plan.microbatch.prefill_size.to_string(),
                out.plan.microbatch.decode_size.to_string(),
                format!("{:.2}", out.overhead_s),
            ]),
            Err(e) => t.row(vec![xi.to_string(), e, "-".into(), "-".into(), "-".into()]),
        }
    }
    out.table(&t);
    say!(out, "Expectation: throughput saturates once ξ covers the useful prefill sizes,");
    say!(out, "while overhead grows with the enumeration; the chosen decode µ stays large");
    say!(out, "(weight-read amortization) and the prefill µ small (bubble control).");
}
