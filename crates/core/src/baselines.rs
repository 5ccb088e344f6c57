//! Baseline planners for the paper's comparison rows (§6.1):
//!
//! * **PipeEdge** — uniform quantization, single-phase (prefill-only)
//!   heterogeneous partition, one micro-batch size for both phases.
//! * **Uniform** — uniform quantization, *even* layer partition, and the
//!   latency-minimizing micro-batch sizes (the HF-Transformers /
//!   DeepSpeed policy).
//! * **FlexGen / FlexGen-int8** — even partition with CPU/NVMe
//!   offloading on each stage (the swap-heavy baseline).
//! * **adabits** — pure adaptive quantization (Fig 9): the quality-only
//!   bit assignment with an even partition, no phase-aware placement.
//!
//! For PipeEdge and Uniform the bitwidth starts at FP16 and is lowered
//! until the model fits or no feasible precision remains.

use crate::assigner::{build_problem, even_plan, solution_to_plan};
use crate::evaluate::{evaluate_plan, representative_past, PlanError, PlanReport};
use crate::plan::ExecutionPlan;
use crate::transfer::adabits_seed;
use llmpq_cluster::Cluster;
use llmpq_cost::CostDb;
use llmpq_model::{flops, ModelFamily, ModelSpec, PhaseWorkload};
use llmpq_quant::{Bitwidth, IndicatorTable};
use llmpq_sim::{offload_stage, simulate_pipeline, KernelEnv, OffloadConfig, PipelineWorkload, StageLoad};
use llmpq_solver::solve_partition;
use llmpq_workload::{microbatch_counts, BatchJob, MicrobatchPlan};
use serde::{Deserialize, Serialize};

/// The comparison schemes of Tables 4/5/7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaselineKind {
    /// PipeEdge (uniform quantization + single-phase partition).
    PipeEdge,
    /// Even partition + uniform quantization.
    Uniform,
    /// FlexGen offloading at FP16.
    FlexGen,
    /// FlexGen offloading at INT8.
    FlexGenInt8,
    /// Pure adaptive quantization (adabits).
    Adabits,
}

impl BaselineKind {
    /// Scheme label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::PipeEdge => "PipeEdge",
            BaselineKind::Uniform => "Uniform",
            BaselineKind::FlexGen => "FlexGen",
            BaselineKind::FlexGenInt8 => "FlexGen-int8",
            BaselineKind::Adabits => "adabits",
        }
    }
}

/// Uniform precisions tried from best quality downward.
const LADDER: [Bitwidth; 4] = [Bitwidth::Fp16, Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int3];

/// Shared micro-batch policy of PipeEdge/FlexGen: the same size for both
/// phases, the global batch divided by the number of stages.
fn even_microbatch(job: &BatchJob, n_stages: usize) -> MicrobatchPlan {
    let g = job.global_batch;
    let mut size = (g / n_stages).max(1);
    while !g.is_multiple_of(size) {
        size -= 1;
    }
    MicrobatchPlan {
        prefill_size: size,
        prefill_count: g / size,
        decode_size: size,
        decode_count: g / size,
    }
}

/// PipeEdge: heterogeneous partition balancing *prefill only*, uniform
/// quantization lowered until feasible.
pub fn pipeedge_plan(
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    db: &CostDb,
) -> Result<(ExecutionPlan, PlanReport), String> {
    let ordering: Vec<usize> = (0..cluster.len()).collect();
    let mb = even_microbatch(job, cluster.len());
    for bits in LADDER {
        let (problem, _q, sizes) = build_problem(
            cluster, &ordering, spec, job, db, None, 0.0, &mb, 1, &[bits], false, Some(24), 16.0,
        );
        let Some(sol) = solve_partition(&problem) else { continue };
        let plan = solution_to_plan(
            cluster, &ordering, spec, &sizes, &sol, &mb, "PipeEdge", &[bits], 16,
        );
        match evaluate_plan(&plan, cluster, spec, db, job) {
            Ok(report) => return Ok((plan, report)),
            Err(PlanError::Oom { .. }) => continue,
            Err(e) => return Err(e.to_string()),
        }
    }
    Err("PipeEdge: no uniform precision fits".into())
}

/// Uniform: even partition, uniform quantization lowered until feasible,
/// micro-batch sizes searched for minimal latency.
pub fn uniform_plan(
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    db: &CostDb,
) -> Result<(ExecutionPlan, PlanReport), String> {
    for bits in LADDER {
        let mut best: Option<(ExecutionPlan, PlanReport)> = None;
        for mb in microbatch_counts(job, cluster.len(), 8) {
            let plan = even_plan(cluster, spec, bits, mb, "Uniform");
            if let Ok(report) = evaluate_plan(&plan, cluster, spec, db, job) {
                if best.as_ref().is_none_or(|(_, r)| report.total_latency < r.total_latency) {
                    best = Some((plan, report));
                }
            }
        }
        if let Some(found) = best {
            return Ok(found);
        }
    }
    Err("Uniform: no uniform precision fits".into())
}

/// FlexGen(-int8): even partition with offloading; never OOMs, but pays
/// swap traffic. Returns a report directly (the plan over-commits GPU
/// memory by design, so it has no OOM-checked `ExecutionPlan`).
///
/// Returns `None` for BLOOM models — "FlexGen is specialized for OPT
/// models and thus has no results on BLOOM" (§6.1).
pub fn flexgen_report(
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    env: &KernelEnv,
    int8: bool,
) -> Option<PlanReport> {
    if spec.family == ModelFamily::Bloom {
        return None;
    }
    let bits = if int8 { Bitwidth::Int8 } else { Bitwidth::Fp16 };
    let mb = even_microbatch(job, cluster.len());
    let pre_w = PhaseWorkload::prefill(mb.prefill_size, job.prompt_len);
    let dec_w = PhaseWorkload::decode(mb.decode_size, job.prompt_len, representative_past(job));
    let cfg = OffloadConfig::default();
    let stages = even_plan(cluster, spec, bits, mb, "FlexGen").stages;
    let loads: Vec<StageLoad> = stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let dev = cluster.devices[s.device].spec();
            // Reserved: KV for the global batch + embeddings on stage 0.
            let kv = spec.kv_bytes_per_layer(job.global_batch, job.max_seq(), 16.0)
                * s.n_layers() as f64;
            let reserved = kv + if i == 0 { spec.embedding_bytes() } else { 0.0 } + 1e9;
            let r = offload_stage(&dev, env, &cfg, spec, s.n_layers(), bits, reserved, &pre_w, &dec_w);
            let (comm_prefill, comm_decode) = if i + 1 < stages.len() {
                let link = cluster.link_between(s.device, i + 1);
                (
                    link.transfer_time(flops::boundary_activation_bytes(spec, &pre_w)),
                    link.transfer_time(flops::boundary_activation_bytes(spec, &dec_w)),
                )
            } else {
                (0.0, 0.0)
            };
            StageLoad { prefill_time: r.prefill_time, decode_time: r.decode_time, comm_prefill, comm_decode }
        })
        .collect();
    let first_gpu = cluster.devices[0].gpu;
    let db = CostDb::oracle(env);
    let wl = PipelineWorkload {
        prefill_microbatches: mb.prefill_count,
        decode_microbatches: mb.decode_count,
        n_tokens: job.n_generate,
        master_prefill: db.master_latency(first_gpu, spec, &pre_w),
        master_decode: db.master_latency(first_gpu, spec, &dec_w),
    };
    let r = simulate_pipeline(&loads, &wl);
    Some(PlanReport {
        scheme: if int8 { "FlexGen-int8" } else { "FlexGen" }.into(),
        prefill_latency: r.prefill_latency,
        decode_latency: r.decode_latency,
        total_latency: r.total_latency,
        throughput: job.total_tokens() as f64 / r.total_latency,
        max_bubble: r.max_bubble_fraction,
        stage_memory: stages
            .iter()
            .map(|s| cluster.devices[s.device].mem_bytes())
            .collect(),
        mean_bits: bits.bits_f64(),
    })
}

/// adabits: pure adaptive quantization (Fig 9) — even partition,
/// quality-greedy bits under memory, even micro-batches.
pub fn adabits_plan(
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    db: &CostDb,
    indicator: &IndicatorTable,
    theta: f64,
) -> Result<(ExecutionPlan, PlanReport), String> {
    let ordering: Vec<usize> = (0..cluster.len()).collect();
    let mb = even_microbatch(job, cluster.len());
    let (problem, quality, sizes) = build_problem(
        cluster,
        &ordering,
        spec,
        job,
        db,
        Some(indicator),
        theta,
        &mb,
        1,
        &Bitwidth::ALL,
        true,
        Some(16),
        16.0,
    );
    let seed = adabits_seed(&problem, &quality).ok_or("adabits: memory infeasible")?;
    let sol = seed.to_solution(&problem);
    let plan = solution_to_plan(
        cluster, &ordering, spec, &sizes, &sol, &mb, "adabits", &Bitwidth::ALL, 16,
    );
    let report = evaluate_plan(&plan, cluster, spec, db, job).map_err(|e| e.to_string())?;
    Ok((plan, report))
}

/// Convenience dispatcher used by the bench harness.
#[allow(clippy::too_many_arguments)]
pub fn baseline_report(
    kind: BaselineKind,
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    db: &CostDb,
    env: &KernelEnv,
    indicator: Option<&IndicatorTable>,
    theta: f64,
) -> Option<PlanReport> {
    match kind {
        BaselineKind::PipeEdge => pipeedge_plan(cluster, spec, job, db).ok().map(|(_, r)| r),
        BaselineKind::Uniform => uniform_plan(cluster, spec, job, db).ok().map(|(_, r)| r),
        BaselineKind::FlexGen => flexgen_report(cluster, spec, job, env, false),
        BaselineKind::FlexGenInt8 => flexgen_report(cluster, spec, job, env, true),
        BaselineKind::Adabits => {
            adabits_plan(cluster, spec, job, db, indicator?, theta).ok().map(|(_, r)| r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_cluster::paper_cluster;
    use llmpq_model::zoo;
    use llmpq_quant::IndicatorTable;

    fn db() -> CostDb {
        CostDb::oracle(&KernelEnv::default())
    }

    fn indicator(n: usize) -> IndicatorTable {
        IndicatorTable {
            omega: (0..n)
                .map(|l| {
                    let base = 1.0 / (1.0 + l as f64 * 0.1);
                    [base, base * 0.2, base * 0.01, 0.0]
                })
                .collect(),
        }
    }

    #[test]
    fn pipeedge_finds_feasible_uniform_plan() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let (plan, report) = pipeedge_plan(&cluster, &spec, &BatchJob::paper_default(), &db()).unwrap();
        plan.validate(spec.n_layers).unwrap();
        // Uniform bits everywhere.
        let bits = plan.bit_assignment();
        assert!(bits.bits.windows(2).all(|w| w[0] == w[1]));
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn pipeedge_quantizes_when_memory_is_tight() {
        // 30b FP16 ≈ 60 GB cannot fit cluster 3's 80 GB with KV of batch
        // 32 on 16 GB cards; PipeEdge must drop below FP16.
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let (plan, _) = pipeedge_plan(&cluster, &spec, &BatchJob::paper_default(), &db()).unwrap();
        assert!(plan.bit_assignment().bits[0] < Bitwidth::Fp16);
    }

    #[test]
    fn uniform_plan_is_even_split() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let (plan, _) = uniform_plan(&cluster, &spec, &BatchJob::paper_default(), &db()).unwrap();
        let sizes: Vec<usize> = plan.stages.iter().map(|s| s.n_layers()).collect();
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert!(max - min <= 1, "even split expected, got {sizes:?}");
    }

    #[test]
    fn flexgen_runs_oversized_models() {
        // OPT-66b on cluster 5 at FP16 does not fit — FlexGen still
        // produces a (slow) result.
        let cluster = paper_cluster(5);
        let spec = zoo::opt_66b();
        let r = flexgen_report(&cluster, &spec, &BatchJob::paper_default(), &KernelEnv::default(), false)
            .unwrap();
        assert!(r.throughput > 0.0);
        let r8 = flexgen_report(&cluster, &spec, &BatchJob::paper_default(), &KernelEnv::default(), true)
            .unwrap();
        assert!(
            r8.throughput > r.throughput,
            "int8 {} should beat fp16 {}",
            r8.throughput,
            r.throughput
        );
    }

    #[test]
    fn flexgen_skips_bloom() {
        let cluster = paper_cluster(7);
        let spec = zoo::bloom_176b();
        assert!(flexgen_report(&cluster, &spec, &BatchJob::paper_default(), &KernelEnv::default(), false)
            .is_none());
    }

    #[test]
    fn adabits_produces_mixed_precision() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let ind = indicator(spec.n_layers);
        let (plan, report) =
            adabits_plan(&cluster, &spec, &BatchJob::paper_default(), &db(), &ind, 1.0).unwrap();
        plan.validate(spec.n_layers).unwrap();
        assert!(report.mean_bits < 16.0, "memory pressure forces quantization");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BaselineKind::FlexGenInt8.label(), "FlexGen-int8");
        assert_eq!(BaselineKind::PipeEdge.label(), "PipeEdge");
    }
}
