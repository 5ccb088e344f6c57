//! The serving-comparison driver behind Tables 4, 5 and 7.
//!
//! For one paper cluster it runs LLM-PQ (with the Table 9 solver/θ
//! setup) against PipeEdge, Uniform, FlexGen and FlexGen-int8, scoring
//! throughput, end-to-end latency and perplexity, and reporting the
//! paper-style speedup over PipeEdge.

use crate::quality::{model_by_name, zoo_indicator, QualityHarness};
use llm_pq::baselines::{flexgen_report, pipeedge_plan, uniform_plan};
use llm_pq::{assign, AssignerConfig};
use llmpq_cluster::{paper_cluster, Cluster};
use llmpq_cost::CostDb;
use llmpq_model::ModelSpec;
use llmpq_quant::{BitAssignment, Bitwidth};
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;
use serde::{Deserialize, Serialize};

/// One line of a serving-comparison table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Scheme name.
    pub scheme: String,
    /// Average perplexity (None when the scheme could not run).
    pub ppl: Option<f64>,
    /// End-to-end batch latency, seconds.
    pub latency: Option<f64>,
    /// Token throughput, tokens/second.
    pub throughput: Option<f64>,
    /// Assigner overhead, seconds (LLM-PQ only).
    pub overhead_s: Option<f64>,
}

impl ComparisonRow {
    fn missing(scheme: &str) -> Self {
        Self { scheme: scheme.into(), ppl: None, latency: None, throughput: None, overhead_s: None }
    }
}

/// Setup for one cluster comparison.
#[derive(Debug, Clone)]
pub struct ServingSetup {
    /// The cluster.
    pub cluster: Cluster,
    /// The model the paper assigns to it.
    pub spec: ModelSpec,
    /// The batch job.
    pub job: BatchJob,
    /// LLM-PQ assigner configuration (Table 9).
    pub cfg: AssignerConfig,
}

impl ServingSetup {
    /// The paper's setup for cluster `n` with the default workload.
    pub fn paper(n: usize) -> Self {
        let cluster = paper_cluster(n);
        let spec = model_by_name(cluster.paper_model.as_deref().expect("table 3 model"));
        let mut cfg = AssignerConfig::paper_setup(n);
        // Keep enumeration tractable on a laptop while preserving the
        // search structure.
        cfg.max_orderings = 6;
        cfg.dp_grid = Some(12);
        if let llm_pq::SolverChoice::Dp { group } = &mut cfg.solver {
            // Optimization #2: group layers for the big models.
            *group = if spec.n_layers > 48 { 2 } else { *group }.max(2);
        }
        ServingSetup { cluster, spec, job: BatchJob::paper_default(), cfg }
    }

    /// Same cluster with the short-prompt workload of Table 7.
    pub fn paper_short(n: usize) -> Self {
        let mut s = Self::paper(n);
        s.job = BatchJob::paper_short();
        s
    }
}

/// Run the full scheme comparison on a setup. Returns rows in the
/// paper's order: PipeEdge, Uniform, FlexGen, FlexGen-int8, LLM-PQ.
pub fn compare_cluster(setup: &ServingSetup, with_quality: bool) -> Vec<ComparisonRow> {
    let env = KernelEnv::default();
    let db = CostDb::oracle(&env);
    let quality = with_quality.then(|| QualityHarness::new(&setup.spec));
    let ppl_of = |bits: &BitAssignment| quality.as_ref().map(|q| q.ppl(bits));
    let uniform_bits = |b: Bitwidth| BitAssignment::uniform(setup.spec.n_layers, b);
    let row = |scheme: &str, bits: &BitAssignment, latency: f64, throughput: f64, overhead_s| ComparisonRow {
        scheme: scheme.into(),
        ppl: ppl_of(bits),
        latency: Some(latency),
        throughput: Some(throughput),
        overhead_s,
    };
    let flexgen = |int8: bool, label: &str| match flexgen_report(&setup.cluster, &setup.spec, &setup.job, &env, int8) {
        Some(r) => row(label, &uniform_bits(if int8 { Bitwidth::Int8 } else { Bitwidth::Fp16 }), r.total_latency, r.throughput, None),
        None => ComparisonRow::missing(label),
    };
    let indicator = zoo_indicator(&setup.spec);
    vec![
        match pipeedge_plan(&setup.cluster, &setup.spec, &setup.job, &db) {
            Ok((plan, r)) => row("PipeEdge", &plan.bit_assignment(), r.total_latency, r.throughput, None),
            Err(_) => ComparisonRow::missing("PipeEdge"),
        },
        match uniform_plan(&setup.cluster, &setup.spec, &setup.job, &db) {
            Ok((plan, r)) => row("Uniform", &plan.bit_assignment(), r.total_latency, r.throughput, None),
            Err(_) => ComparisonRow::missing("Uniform"),
        },
        // FlexGen / FlexGen-int8 (OPT only).
        flexgen(false, "FlexGen"),
        flexgen(true, "FlexGen-int8"),
        match assign(&setup.cluster, &setup.spec, &setup.job, &db, &indicator, &setup.cfg) {
            Ok(out) => row("LLM-PQ", &out.plan.bit_assignment(), out.report.total_latency, out.report.throughput, Some(out.overhead_s)),
            Err(_) => ComparisonRow::missing("LLM-PQ"),
        },
    ]
}

/// Extract LLM-PQ's throughput speedup over PipeEdge from comparison
/// rows — the parenthesized `×` in Tables 4/5/7.
pub fn llmpq_speedup(rows: &[ComparisonRow]) -> Option<f64> {
    let pipeedge = rows.iter().find(|r| r.scheme == "PipeEdge")?.throughput?;
    let llmpq = rows.iter().find(|r| r.scheme == "LLM-PQ")?.throughput?;
    Some(llmpq / pipeedge)
}

/// Render rows into a [`crate::TextTable`].
pub fn rows_to_table(model: &str, cluster: &str, rows: &[ComparisonRow]) -> crate::TextTable {
    let mut t = crate::TextTable::new(&["Model", "Cluster", "Scheme", "PPL", "Latency (s)", "Throughput (Token/s)"]);
    let base = rows.iter().find(|r| r.scheme == "PipeEdge").and_then(|r| r.throughput);
    for r in rows {
        let tput = match (r.throughput, base) {
            (Some(t), Some(b)) if r.scheme != "PipeEdge" => crate::table::speedup(t, b),
            (Some(t), _) => format!("{t:.2}"),
            (None, _) => "OOM/-".into(),
        };
        t.row(vec![
            model.into(),
            cluster.into(),
            r.scheme.clone(),
            r.ppl.map_or("-".into(), |p| format!("{p:.3}")),
            r.latency.map_or("-".into(), |l| format!("{l:.2}")),
            tput,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster3_comparison_shapes() {
        // Fast smoke test (no quality scoring): all five rows present;
        // LLM-PQ feasible and at least as fast as Uniform.
        let mut setup = ServingSetup::paper(3);
        setup.cfg.max_orderings = 2;
        setup.cfg.dp_grid = Some(8);
        setup.cfg.solver = llm_pq::SolverChoice::Dp { group: 8 };
        setup.cfg.xi = 2;
        let rows = compare_cluster(&setup, false);
        assert_eq!(rows.len(), 5);
        let llmpq = rows.iter().find(|r| r.scheme == "LLM-PQ").unwrap();
        assert!(llmpq.throughput.is_some(), "LLM-PQ must be feasible on cluster 3");
        let speedup = llmpq_speedup(&rows).unwrap();
        assert!(speedup > 0.5, "speedup {speedup}");
    }

    #[test]
    fn table_renders_missing_as_dash() {
        let rows = vec![ComparisonRow::missing("FlexGen")];
        let t = rows_to_table("opt-30b", "cluster-7", &rows);
        assert!(t.render().contains("OOM/-"));
    }
}
