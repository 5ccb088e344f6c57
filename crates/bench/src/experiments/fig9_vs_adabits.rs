//! Figure 9: LLM-PQ vs pure adaptive quantization (adabits).
//!
//! adabits is the seed of Algorithm 2: quality-only bit assignment on an
//! even partition, no phase-aware placement, no micro-batch tuning.
//! Clusters 3, 5, 6, 9 at s=512 and cluster 4 at s=128. Paper shape:
//! LLM-PQ outperforms adabits everywhere — joint optimization matters.

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::{adabits_plan, assign};
use llmpq_cost::CostDb;
use llmpq_sim::KernelEnv;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Figure 9 — LLM-PQ vs pure adaptive quantization\n");
    let db = CostDb::oracle(&KernelEnv::default());
    let mut t = TextTable::new(&["Cluster", "Model", "adabits (tok/s)", "LLM-PQ (tok/s)", "gain"]);
    let cases: Vec<(usize, bool)> = vec![(3, false), (5, false), (6, false), (9, false), (4, true)];
    for (n, short) in cases {
        let setup = if short { ServingSetup::paper_short(n) } else { ServingSetup::paper(n) };
        let indicator = zoo_indicator(&setup.spec);
        let ada = adabits_plan(&setup.cluster, &setup.spec, &setup.job, &db, &indicator, setup.cfg.theta);
        let pq = assign(&setup.cluster, &setup.spec, &setup.job, &db, &indicator, &setup.cfg);
        let (ada_t, pq_t) = (
            ada.as_ref().ok().map(|(_, r)| r.throughput),
            pq.as_ref().ok().map(|o| o.report.throughput),
        );
        t.row(vec![
            format!("{n}{}", if short { " (s=128)" } else { "" }),
            setup.spec.name.clone(),
            ada_t.map_or("OOM".into(), |x| format!("{x:.2}")),
            pq_t.map_or("-".into(), |x| format!("{x:.2}")),
            match (ada_t, pq_t) {
                (Some(a), Some(p)) => format!("{:.2}x", p / a),
                _ => "-".into(),
            },
        ]);
    }
    out.table(&t);
    say!(out, "Paper shape check: LLM-PQ ≥ adabits in all selected cases.");
}
