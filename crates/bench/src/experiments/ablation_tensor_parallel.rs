//! Ablation: tensor-parallel device meshes (paper §7).
//!
//! Enumerates the valid uniform TP widths on clusters with same-type
//! device groups (7 and 11) and runs Algorithm 1 with the Table 9 setup
//! on each fold, so the width-1 rows are Tables 4/5's LLM-PQ rows. The
//! paper argues TP "can be readily included in our search space" by
//! treating a TP group as a bigger virtual device; this bench shows when
//! the trade pays: wider TP cuts pipeline depth and buys memory at
//! all-reduce cost.

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::tp_sweep;
use llmpq_sim::KernelEnv;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Ablation — tensor-parallel mesh search\n");
    for n in [7usize, 11] {
        let setup = ServingSetup::paper(n);
        let indicator = zoo_indicator(&setup.spec);
        say!(out, "cluster {n}: {:?} -> {}", setup.cluster.model_counts(), setup.spec.name);
        let widths = tp_sweep(&setup.cluster, &setup.spec, &setup.job, &KernelEnv::default(), &indicator, &setup.cfg);
        let mut t = TextTable::new(&["TP width", "Pipeline stages", "Throughput (tok/s)", "mean bits"]);
        for (width, outcome) in &widths {
            let o = outcome.as_ref().unwrap_or_else(|e| panic!("cluster {n} at TP width {width}: {e}"));
            t.row(vec![
                width.to_string(),
                o.plan.stages.len().to_string(),
                format!("{:.2}", o.report.throughput),
                format!("{:.1}", o.report.mean_bits),
            ]);
        }
        out.table(&t);
    }
    say!(out, "Reading: TP shortens the pipeline and widens memory per folded device;");
    say!(out, "Algorithm 1 spends that memory on bits only where theta * sum(omega) outweighs");
    say!(out, "the latency they cost. Throughput improves where the all-reduce tax is");
    say!(out, "cheaper than the pipeline bubbles it removes.");
}
