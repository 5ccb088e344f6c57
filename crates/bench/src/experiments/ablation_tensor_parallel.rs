//! Ablation: tensor-parallel device meshes (paper §7).
//!
//! Enumerates the valid uniform TP widths on clusters with same-type
//! device groups (7 and 11) and plans at each width. The paper argues TP
//! "can be readily included in our search space" by treating a TP group
//! as a bigger virtual device; this bench shows when the trade pays:
//! wider TP cuts pipeline depth and buys memory (milder quantization)
//! at all-reduce cost.

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::tp_sweep;
use llmpq_sim::KernelEnv;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Ablation — tensor-parallel mesh search\n");
    for n in [7usize, 11] {
        let setup = ServingSetup::paper(n);
        let indicator = zoo_indicator(&setup.spec);
        say!(out, "cluster {n}: {:?} -> {}", setup.cluster.model_counts(), setup.spec.name);
        let widths = tp_sweep(
            &setup.cluster,
            &setup.spec,
            &setup.job,
            &KernelEnv::default(),
            &indicator,
            setup.cfg.theta,
            4,
        );
        let mut t = TextTable::new(&["TP width", "Pipeline stages", "Throughput (tok/s)", "mean bits"]);
        for o in &widths {
            t.row(vec![
                o.tp_width.to_string(),
                o.n_stages.to_string(),
                format!("{:.2}", o.throughput),
                format!("{:.1}", o.mean_bits),
            ]);
        }
        out.table(&t);
    }
    say!(out, "Expectation: TP widens memory per virtual device (higher mean bits) and");
    say!(out, "shortens the pipeline; whether throughput improves depends on whether the");
    say!(out, "all-reduce tax is cheaper than the pipeline bubbles it removes.");
}
