//! Ablation: exact DP vs branch-and-bound ILP on the same instances.
//!
//! Builds one assigner subproblem per cluster and solves it with both
//! inner solvers. The ILP explores per-layer bit mixing (a superset of
//! the DP's per-stage-uniform class) so its objective can only be ≤,
//! but at branch-and-bound cost that explodes with instance size —
//! the reason the paper needs grouping and the heuristic at all.

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::assigner::build_problem;
use llm_pq::ilp::solve_ilp;
use llmpq_cost::CostDb;
use llmpq_quant::Bitwidth;
use llmpq_sim::KernelEnv;
use llmpq_solver::{solve_partition, MilpConfig};
use llmpq_workload::{microbatch_counts, MicrobatchPlan};
use std::time::Instant;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Ablation — DP vs branch-and-bound ILP (one subproblem per cluster)\n");
    let db = CostDb::oracle(&KernelEnv::default());
    let mut t = TextTable::new(&[
        "Cluster", "Groups", "DP objective", "DP time (s)", "ILP objective", "ILP time (s)",
    ])
    .measured(&["DP time (s)", "ILP time (s)"]);
    for (n, group) in [(3usize, 6usize), (4, 6), (6, 8)] {
        let setup = ServingSetup::paper(n);
        let indicator = zoo_indicator(&setup.spec);
        let ordering: Vec<usize> = (0..setup.cluster.len()).collect();
        let mb: MicrobatchPlan = microbatch_counts(&setup.job, setup.cluster.len(), 4)[0];
        let (problem, _q, sizes) = build_problem(
            &setup.cluster,
            &ordering,
            &setup.spec,
            &setup.job,
            &db,
            Some(&indicator),
            setup.cfg.theta,
            &mb,
            group,
            &Bitwidth::ALL,
            true,
            None, // exact candidate grid
            16.0,
        );
        let t0 = Instant::now();
        let dp = solve_partition(&problem);
        let dp_time = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let ilp = solve_ilp(&problem, &MilpConfig { time_limit_s: 60.0, ..Default::default() });
        let ilp_time = t0.elapsed().as_secs_f64();
        t.row(vec![
            n.to_string(),
            sizes.len().to_string(),
            dp.as_ref().map_or("-".into(), |s| format!("{:.3}", s.objective)),
            format!("{dp_time:.3}"),
            ilp.as_ref().map_or("timeout/-".into(), |s| format!("{:.3}", s.objective)),
            format!("{ilp_time:.3}"),
        ]);
    }
    out.table(&t);
    say!(out, "Expectation: ILP objective ≤ DP objective (superset class), ILP time ≫ DP time.");
}
