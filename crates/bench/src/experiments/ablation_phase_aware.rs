//! Ablation: phase-aware vs prefill-only partitioning (Opportunity 1).
//!
//! Identical assigner with the decode terms zeroed (a PipeEdge-style
//! single-phase objective) vs the full phase-aware objective, on the
//! mixed clusters. The gap quantifies the value of modelling both
//! phases when devices are heterogeneous.

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::assigner::{build_problem, device_orderings, solution_to_plan};
use llm_pq::evaluate_plan;
use llmpq_cost::CostDb;
use llmpq_quant::Bitwidth;
use llmpq_sim::KernelEnv;
use llmpq_solver::solve_partition;
use llmpq_workload::microbatch_counts;

fn best_throughput(setup: &ServingSetup, phase_aware: bool) -> Option<f64> {
    let db = CostDb::oracle(&KernelEnv::default());
    let indicator = zoo_indicator(&setup.spec);
    let mut best: Option<f64> = None;
    for ordering in device_orderings(&setup.cluster, setup.cfg.max_orderings) {
        for mb in microbatch_counts(&setup.job, ordering.len(), setup.cfg.xi) {
            let (problem, _q, sizes) = build_problem(
                &setup.cluster,
                &ordering,
                &setup.spec,
                &setup.job,
                &db,
                Some(&indicator),
                setup.cfg.theta,
                &mb,
                2,
                &Bitwidth::ALL,
                phase_aware,
                setup.cfg.dp_grid,
                16.0,
            );
            let Some(sol) = solve_partition(&problem) else { continue };
            let plan = solution_to_plan(
                &setup.cluster,
                &ordering,
                &setup.spec,
                &sizes,
                &sol,
                &mb,
                if phase_aware { "phase-aware" } else { "prefill-only" },
                &Bitwidth::ALL,
                16,
            );
            if let Ok(r) = evaluate_plan(&plan, &setup.cluster, &setup.spec, &db, &setup.job) {
                if best.is_none_or(|b| r.throughput > b) {
                    best = Some(r.throughput);
                }
            }
        }
    }
    best
}

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Ablation — phase-aware vs prefill-only partition objective\n");
    let mut t = TextTable::new(&["Cluster", "Model", "prefill-only (tok/s)", "phase-aware (tok/s)", "gain"]);
    for n in [3usize, 4, 5, 6] {
        let setup = ServingSetup::paper(n);
        let single = best_throughput(&setup, false);
        let aware = best_throughput(&setup, true);
        t.row(vec![
            n.to_string(),
            setup.spec.name.clone(),
            single.map_or("-".into(), |x| format!("{x:.2}")),
            aware.map_or("-".into(), |x| format!("{x:.2}")),
            match (single, aware) {
                (Some(s), Some(a)) => format!("{:.2}x", a / s),
                _ => "-".into(),
            },
        ]);
    }
    out.table(&t);
    say!(out, "Expectation: phase-aware ≥ prefill-only on heterogeneous clusters — the");
    say!(out, "decode phase dominates wall-clock (n=100 steps) and balances differently.");
}
