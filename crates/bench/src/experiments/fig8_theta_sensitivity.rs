//! Figure 8: sensitivity to the user quality scalar θ.
//!
//! Clusters 9 (OPT-30b) and 5 (OPT-66b), sweeping θ over orders of
//! magnitude. Paper shape: growing θ trades throughput for model
//! quality — PPL (and Σω) falls, tokens/s falls or stays flat.

use crate::{zoo_indicator, Args, Out, QualityHarness, ServingSetup, TextTable};
use llm_pq::assign;
use llmpq_cost::CostDb;
use llmpq_sim::KernelEnv;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Figure 8 — θ sensitivity\n");
    let db = CostDb::oracle(&KernelEnv::default());
    for cluster_no in [9usize, 5] {
        let mut setup = ServingSetup::paper(cluster_no);
        let indicator = zoo_indicator(&setup.spec);
        let harness = QualityHarness::new(&setup.spec);
        say!(out, "{} on cluster {cluster_no} (fp16 PPL {:.3}):", setup.spec.name, harness.fp16_ppl);
        let mut t = TextTable::new(&["theta", "Throughput (tok/s)", "Σω", "PPL", "mean bits"]);
        for theta in [0.0, 0.1, 1.0, 10.0, 100.0, 1000.0] {
            setup.cfg.theta = theta;
            match assign(&setup.cluster, &setup.spec, &setup.job, &db, &indicator, &setup.cfg) {
                Ok(out) => t.row(vec![
                    format!("{theta}"),
                    format!("{:.2}", out.report.throughput),
                    format!("{:.3}", out.omega_total),
                    format!("{:.3}", harness.ppl(&out.plan.bit_assignment())),
                    format!("{:.1}", out.report.mean_bits),
                ]),
                Err(e) => t.row(vec![format!("{theta}"), "-".into(), "-".into(), e, "-".into()]),
            }
        }
        out.table(&t);
    }
    say!(out, "Paper shape check: larger θ ⇒ lower Σω / PPL, generally lower throughput.");
}
