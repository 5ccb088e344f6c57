//! Tables 9 & 10: per-cluster solver setup and assigner overhead.
//!
//! Runs the LLM-PQ assigner with the Table 9 configuration on every
//! cluster (1–11) and reports the wall-clock overhead — the paper's
//! Table 10 (average 18.4 s, slowest 116 s on real GUROBI; ours differ
//! in absolute terms but the *relative* pattern — heuristic clusters
//! cheap, big grouped DP/ILP clusters expensive — should hold).

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::{assign, SolverChoice};
use llmpq_cost::CostDb;
use llmpq_sim::KernelEnv;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Tables 9 & 10 — per-cluster solver setup and assigner overhead\n");
    let db = CostDb::oracle(&KernelEnv::default());
    let mut t = TextTable::new(&["Cluster", "Solver (Table 9)", "theta", "Overhead (s)", "Combos", "Throughput"])
        .measured(&["Overhead (s)"]);
    let mut total = 0.0;
    let mut slowest: f64 = 0.0;
    let mut count = 0usize;
    for n in 1..=11 {
        let setup = ServingSetup::paper(n);
        let indicator = zoo_indicator(&setup.spec);
        let solver = match setup.cfg.solver {
            SolverChoice::Dp { group } => format!("DP group={group}"),
            SolverChoice::Heuristic => "Heuristic".into(),
        };
        match assign(&setup.cluster, &setup.spec, &setup.job, &db, &indicator, &setup.cfg) {
            Ok(out) => {
                total += out.overhead_s;
                slowest = slowest.max(out.overhead_s);
                count += 1;
                t.row(vec![
                    n.to_string(),
                    solver,
                    format!("{}", setup.cfg.theta),
                    format!("{:.3}", out.overhead_s),
                    out.combinations.to_string(),
                    format!("{:.2}", out.report.throughput),
                ]);
            }
            Err(e) => t.row(vec![n.to_string(), solver, format!("{}", setup.cfg.theta), e, "-".into(), "-".into()]),
        }
    }
    out.table(&t);
    if count > 0 {
        out.measured(format!("AVG overhead: {:.3} s   SLOWEST: {:.3} s", total / count as f64, slowest));
        say!(out, "(paper Table 10: AVG 18.38 s, SLOWEST 115.98 s, on GUROBI)");
    }
}
