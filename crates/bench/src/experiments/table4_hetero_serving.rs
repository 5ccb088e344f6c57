//! Table 4: serving performance on the heterogeneous clusters (1–8).
//!
//! For each cluster: PipeEdge, Uniform, FlexGen, FlexGen-int8 and LLM-PQ
//! with the Table 9 solver/θ setup — PPL, end-to-end batch latency, and
//! token throughput with the speedup over PipeEdge in parentheses.
//! Workload: prompts padded to 512 tokens, batch 32, n=100 generated
//! tokens (§6.1).
//!
//! Paper shape to reproduce: LLM-PQ wins throughput on the mixed
//! clusters (up to ~2.9×) while matching or improving PPL; missing
//! entries are OOM.

use crate::{compare_cluster, Args, Out, ServingSetup};
use crate::serving::{llmpq_speedup, rows_to_table};

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Table 4 — heterogeneous clusters (s=512, n=100, batch 32)\n");
    let mut speedups = Vec::new();
    for n in 1..=8 {
        let setup = ServingSetup::paper(n);
        say!(out,
            "cluster {n}: {:?} -> {}",
            setup.cluster.model_counts(),
            setup.spec.name
        );
        let rows = compare_cluster(&setup, true);
        out.table(&rows_to_table(&setup.spec.name, &setup.cluster.name, &rows));
        if let Some(s) = llmpq_speedup(&rows) {
            speedups.push((n, s));
        }
    }
    say!(out, "LLM-PQ throughput speedup over PipeEdge per cluster:");
    for (n, s) in &speedups {
        say!(out, "  cluster {n}: {s:.2}x");
    }
    if !speedups.is_empty() {
        let gm = speedups.iter().map(|(_, s)| s.ln()).sum::<f64>() / speedups.len() as f64;
        say!(out, "  geometric mean: {:.2}x (paper: up to 2.88x, hetero clusters)", gm.exp());
    }
}
