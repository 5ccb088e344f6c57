//! Ablation: serving economics — the introduction's claim quantified.
//!
//! "Utilizing a heterogeneous cluster with a mix of available high- and
//! low-capacity GPUs can potentially substantially reduce the serving
//! cost." This bench prices each paper cluster at public-cloud-style
//! hourly rates and compares **dollars per million generated tokens**
//! under the best LLM-PQ plan, against both the PipeEdge baseline on the
//! same cluster and a homogeneous premium-GPU alternative.

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::baselines::pipeedge_plan;
use llm_pq::assign;
use llmpq_cluster::{cluster_hourly_cost, serving_cost};
use llmpq_cost::CostDb;
use llmpq_sim::KernelEnv;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Ablation — $/Mtok across clusters (on-demand-style rates)\n");
    let db = CostDb::oracle(&KernelEnv::default());
    let mut t = TextTable::new(&[
        "Cluster", "Model", "$/hour", "PipeEdge $/Mtok", "LLM-PQ $/Mtok", "saving",
    ]);
    for n in [3usize, 4, 5, 6, 9, 10] {
        let setup = ServingSetup::paper(n);
        let indicator = zoo_indicator(&setup.spec);
        let hourly = cluster_hourly_cost(&setup.cluster);
        let pe = pipeedge_plan(&setup.cluster, &setup.spec, &setup.job, &db)
            .ok()
            .map(|(_, r)| serving_cost(&setup.cluster, r.throughput));
        let pq = assign(&setup.cluster, &setup.spec, &setup.job, &db, &indicator, &setup.cfg)
            .ok()
            .map(|o| serving_cost(&setup.cluster, o.report.throughput));
        t.row(vec![
            n.to_string(),
            setup.spec.name.clone(),
            format!("{hourly:.2}"),
            pe.map_or("-".into(), |c| format!("{:.2}", c.dollars_per_mtok)),
            pq.map_or("-".into(), |c| format!("{:.2}", c.dollars_per_mtok)),
            match (pe, pq) {
                (Some(a), Some(b)) => format!("{:.0}%", (1.0 - b.dollars_per_mtok / a.dollars_per_mtok) * 100.0),
                _ => "-".into(),
            },
        ]);
    }
    out.table(&t);
    say!(out, "Expectation: LLM-PQ's throughput gains translate 1:1 into $/Mtok savings on");
    say!(out, "the same hardware, and scavenged heterogeneous clusters (3, 5) become cost-");
    say!(out, "competitive with premium homogeneous ones (10) — the Fig-1 motivation.");
}
