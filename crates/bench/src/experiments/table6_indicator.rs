//! Table 6: effectiveness of the variance indicator vs Random and
//! Hessian.
//!
//! Protocol (§6.5): build each indicator, normalize to a common range so
//! the ILP's latency/quality trade-off is unchanged, assign bits with
//! the same assigner setup, and compare the resulting perplexity and the
//! indicator-construction overhead. Paper shape: LLM-PQ's variance
//! indicator matches Hessian PPL at a 58–72× lower overhead and beats
//! Random.

use crate::{scaled_teacher, Args, Out, QualityHarness, ServingSetup, TextTable};
use llm_pq::assign;
use llmpq_cost::CostDb;
use llmpq_quant::{build_indicator, IndicatorKind, Rounding};
use llmpq_sim::KernelEnv;

pub fn run(out: &mut Out, _: &Args) {
    say!(out, "Table 6 — indicator comparison (OPT-66b-like on cluster 6, OPT-30b-like on cluster 9)\n");
    let kinds = [
        ("Random", IndicatorKind::Random { seed: 99 }),
        ("Hessian", IndicatorKind::Hessian(Rounding::Deterministic)),
        ("LLM-PQ", IndicatorKind::Variance(Rounding::Deterministic)),
    ];
    for cluster_no in [6usize, 9] {
        let setup = ServingSetup::paper(cluster_no);
        let teacher = scaled_teacher(&setup.spec);
        let calib = llmpq_quality::corpus::calibration_set(&teacher, 4, 32);
        let harness = QualityHarness::new(&setup.spec);
        let db = CostDb::oracle(&KernelEnv::default());
        say!(out, "{} on cluster {cluster_no} (fp16 PPL {:.3}):", setup.spec.name, harness.fp16_ppl);

        let mut t = TextTable::new(&["Method", "PPL", "Overhead (s)", "vs Hessian overhead"])
            .measured(&["Overhead (s)", "vs Hessian overhead"]);
        let mut rows: Vec<(String, f64, f64)> = Vec::new();
        for (name, kind) in kinds {
            let (table, overhead) = build_indicator(kind, &teacher, &calib);
            let table = table.normalized_budget(1.0);
            let out = assign(&setup.cluster, &setup.spec, &setup.job, &db, &table, &setup.cfg)
                .expect("feasible cluster");
            let ppl = harness.ppl(&out.plan.bit_assignment());
            rows.push((name.to_string(), ppl, overhead));
        }
        let hessian_overhead = rows.iter().find(|r| r.0 == "Hessian").unwrap().2;
        for (name, ppl, overhead) in &rows {
            t.row(vec![
                name.clone(),
                format!("{ppl:.3}"),
                format!("{overhead:.3}"),
                if *overhead > 1e-3 && name != "Random" {
                    format!("{:.1}x cheaper", hessian_overhead / overhead)
                } else {
                    "-".into()
                },
            ]);
        }
        out.table(&t);
    }
    say!(out, "Paper shape check: variance ≈ Hessian PPL, ≤ Random PPL, at a");
    say!(out, "large overhead reduction (paper: 58.15x and 72.69x).");
}
