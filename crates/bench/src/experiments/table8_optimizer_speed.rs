//! Table 8: grouping and heuristic approaches under a time limit.
//!
//! Clusters 3, 4, 6, 10 with three strategies: Group=2, Group=1 (full
//! space) and the Algorithm-2 heuristic, reporting resulting throughput
//! and solving overhead. Paper shapes: Group=1 usually matches or beats
//! Group=2 at higher overhead; the heuristic has the smallest overhead
//! and wins on some clusters (4 and 10 in the paper).

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::{assign, SolverChoice};
use llmpq_cost::CostDb;
use llmpq_sim::KernelEnv;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Table 8 — optimizer strategies under a 60 s limit\n");
    let db = CostDb::oracle(&KernelEnv::default());
    let mut t = TextTable::new(&["Model", "Cluster", "Method", "Throughput (tok/s)", "Overhead (s)"])
        .measured(&["Overhead (s)"]);
    for n in [3usize, 4, 6, 10] {
        let base = ServingSetup::paper(n);
        let indicator = zoo_indicator(&base.spec);
        let methods: Vec<(&str, SolverChoice)> = vec![
            ("Group=2", SolverChoice::Dp { group: 2 }),
            ("Group=1", SolverChoice::Dp { group: 1 }),
            ("Heuristic", SolverChoice::Heuristic),
        ];
        for (name, solver) in methods {
            let mut setup = ServingSetup::paper(n);
            setup.cfg.solver = solver;
            match assign(&setup.cluster, &setup.spec, &setup.job, &db, &indicator, &setup.cfg) {
                Ok(out) => t.row(vec![
                    setup.spec.name.clone(),
                    n.to_string(),
                    name.into(),
                    format!("{:.2}", out.report.throughput),
                    format!("{:.2}", out.overhead_s),
                ]),
                Err(e) => t.row(vec![setup.spec.name.clone(), n.to_string(), name.into(), e, "-".into()]),
            }
        }
    }
    out.table(&t);
    say!(out, "Paper shape check: heuristic has the smallest overhead; Group=1 explores");
    say!(out, "the largest space (highest overhead); throughputs stay in the same band.");
}
