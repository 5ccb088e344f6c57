//! Table 7: serving with shorter prompts (s=128, n=200).
//!
//! Clusters 1 (OPT-13b), 4 (OPT-30b) and 6 (OPT-66b). Paper shape:
//! LLM-PQ still wins (1.78× / 1.40× / 1.74×), but the cluster-4 gain is
//! smaller than at s=512 — less KV memory and a longer decode run make
//! the job closer to the single-phase regime PipeEdge was designed for.

use crate::{compare_cluster, Args, Out, ServingSetup};
use crate::serving::{llmpq_speedup, rows_to_table};

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Table 7 — shorter prompts (s=128, n=200, batch 32)\n");
    let paper = [(1usize, 1.78), (4, 1.40), (6, 1.74)];
    let mut short_gain_c4 = None;
    for (n, paper_x) in paper {
        let setup = ServingSetup::paper_short(n);
        say!(out, "cluster {n}: {:?} -> {}", setup.cluster.model_counts(), setup.spec.name);
        let rows = compare_cluster(&setup, true);
        out.table(&rows_to_table(&setup.spec.name, &setup.cluster.name, &rows));
        if let Some(s) = llmpq_speedup(&rows) {
            say!(out, "LLM-PQ vs PipeEdge: {s:.2}x (paper: {paper_x:.2}x)\n");
            if n == 4 {
                short_gain_c4 = Some(s);
            }
        }
    }
    // Cross-check the paper's cluster-4 observation against s=512.
    let long = compare_cluster(&ServingSetup::paper(4), false);
    if let (Some(long_s), Some(short_s)) = (llmpq_speedup(&long), short_gain_c4) {
        say!(out,
            "cluster 4 gain at s=512: {long_s:.2}x vs s=128: {short_s:.2}x — paper notes the \
             short-prompt gain is lower ({})",
            if short_s < long_s { "reproduced" } else { "NOT reproduced" }
        );
    }
}
