//! Table 5: serving performance on the homogeneous clusters (9–11).
//!
//! Same protocol as Table 4. Paper shape: LLM-PQ still helps on
//! homogeneous clusters but by smaller margins (1.02–2.57×), and on the
//! very memory-tight cluster 9 FlexGen-int8 can win (heavy compression
//! makes compute slower while swapping gets efficient).

use crate::{compare_cluster, Args, Out, ServingSetup};
use crate::serving::{llmpq_speedup, rows_to_table};

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Table 5 — homogeneous clusters (s=512, n=100, batch 32)\n");
    for n in 9..=11 {
        let setup = ServingSetup::paper(n);
        say!(out,
            "cluster {n}: {:?} -> {}",
            setup.cluster.model_counts(),
            setup.spec.name
        );
        let rows = compare_cluster(&setup, true);
        out.table(&rows_to_table(&setup.spec.name, &setup.cluster.name, &rows));
        if let Some(s) = llmpq_speedup(&rows) {
            say!(out, "LLM-PQ vs PipeEdge: {s:.2}x (paper: 2.57x / 1.02x / 1.08x)\n");
        }
    }
}
