//! Plan evaluation: memory feasibility + pipeline simulation.
//!
//! Turns an [`ExecutionPlan`] into per-stage loads (via the latency cost
//! database and the interconnect model), checks every device against its
//! memory capacity (OOM detection — the missing rows of Table 4 are OOM
//! entries), runs the discrete-event pipeline simulation, and reports
//! latency and token throughput.

use crate::plan::ExecutionPlan;
use llmpq_cluster::Cluster;
use llmpq_cost::{stage_memory, CostDb, MemoryJob};
use llmpq_model::{flops, ModelSpec, PhaseWorkload};
use llmpq_sim::{simulate_pipeline, PipelineWorkload, StageLoad};
use llmpq_workload::{BatchJob, MicrobatchPlan};
use serde::{Deserialize, Serialize};

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanError {
    /// A stage does not fit its device.
    Oom {
        /// Stage index.
        stage: usize,
        /// Predicted bytes needed.
        needed: f64,
        /// Device capacity in bytes.
        capacity: f64,
    },
    /// Structural problem in the plan.
    Invalid(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Oom { stage, needed, capacity } => write!(
                f,
                "OOM on stage {stage}: needs {:.1} GB, capacity {:.1} GB",
                needed / 1e9,
                capacity / 1e9
            ),
            PlanError::Invalid(s) => write!(f, "invalid plan: {s}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Evaluation result for one plan on one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// Scheme label copied from the plan.
    pub scheme: String,
    /// Prefill wall-clock, seconds.
    pub prefill_latency: f64,
    /// Decode wall-clock, seconds.
    pub decode_latency: f64,
    /// End-to-end batch latency, seconds ("Latency (s)" column).
    pub total_latency: f64,
    /// Token throughput = generated tokens / latency ("Token/s" column).
    pub throughput: f64,
    /// Largest per-stage bubble fraction during decode.
    pub max_bubble: f64,
    /// Predicted peak memory per stage, bytes.
    pub stage_memory: Vec<f64>,
    /// Mean bits per layer of the plan.
    pub mean_bits: f64,
}

/// Representative decode context length used for planning and
/// simulation: half the generation is done on average.
pub fn representative_past(job: &BatchJob) -> usize {
    job.prompt_len + job.n_generate / 2
}

/// Build the per-stage loads of a plan.
pub fn stage_loads(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    spec: &ModelSpec,
    db: &CostDb,
    job: &BatchJob,
) -> Vec<StageLoad> {
    let mb = &plan.microbatch;
    let pre_w = PhaseWorkload::prefill(mb.prefill_size, job.prompt_len);
    let dec_w = PhaseWorkload::decode(mb.decode_size, job.prompt_len, representative_past(job));
    plan.stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let d = &cluster.devices[s.device];
            let kv = plan.kv_bits as f64;
            let prefill_time = db.stage_latency_kv(d.gpu, d.tp_width, spec, &s.bits, &pre_w, kv);
            let decode_time = db.stage_latency_kv(d.gpu, d.tp_width, spec, &s.bits, &dec_w, kv);
            let (comm_prefill, comm_decode) = if i + 1 < plan.stages.len() {
                let link = cluster.link_between(s.device, plan.stages[i + 1].device);
                (
                    link.transfer_time(flops::boundary_activation_bytes(spec, &pre_w)),
                    link.transfer_time(flops::boundary_activation_bytes(spec, &dec_w)),
                )
            } else {
                (0.0, 0.0)
            };
            StageLoad { prefill_time, decode_time, comm_prefill, comm_decode }
        })
        .collect()
}

/// `plan` serving one batch of `job.global_batch` sequences: its
/// micro-batch sizes clamped to that batch, the stage loads they give,
/// and the pipeline workload with no master time — what
/// `simulate_pipeline` and `predicted_stage_seconds` take.
pub fn batch_profile(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    spec: &ModelSpec,
    db: &CostDb,
    job: &BatchJob,
) -> (Vec<StageLoad>, PipelineWorkload) {
    let b = job.global_batch;
    let mut p = plan.clone();
    let mb = &mut p.microbatch;
    mb.prefill_size = mb.prefill_size.min(b).max(1);
    mb.prefill_count = b.div_ceil(mb.prefill_size);
    mb.decode_size = mb.decode_size.min(b).max(1);
    mb.decode_count = b.div_ceil(mb.decode_size);
    let wl = PipelineWorkload {
        prefill_microbatches: mb.prefill_count,
        decode_microbatches: mb.decode_count,
        n_tokens: job.n_generate,
        master_prefill: 0.0,
        master_decode: 0.0,
    };
    (stage_loads(&p, cluster, spec, db, job), wl)
}

/// Predicted end-to-end latency, seconds, of `plan` serving one batch of
/// `job.global_batch` sequences: [`batch_profile`] through the pipeline
/// simulation. The batch cost every online pass of a plan is fitted from.
pub fn batch_latency(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    spec: &ModelSpec,
    db: &CostDb,
    job: &BatchJob,
) -> f64 {
    let (loads, wl) = batch_profile(plan, cluster, spec, db, job);
    simulate_pipeline(&loads, &wl).total_latency
}

/// The shape `job` run in `mb`'s micro-batches is charged memory under:
/// KV for the whole batch at `kv_bits`, each phase's workspace at its
/// own micro-batch.
pub(crate) fn memory_job(job: &BatchJob, mb: &MicrobatchPlan, kv_bits: f64) -> MemoryJob {
    MemoryJob {
        kv_batch: job.global_batch,
        prefill_size: mb.prefill_size.max(1),
        decode_size: mb.decode_size.max(1),
        prompt_len: job.prompt_len,
        n_generate: job.n_generate,
        kv_bits,
    }
}

/// Predicted peak memory per stage on `cluster`'s devices (embedding
/// charged to stage 0, which co-hosts the master engine; one framework
/// context per GPU of a tensor-parallel group).
pub fn stage_memories(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
) -> Vec<f64> {
    let mj = memory_job(job, &plan.microbatch, plan.kv_bits as f64);
    plan.stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            stage_memory(spec, &s.bits, &mj, i == 0, cluster.devices[s.device].tp_width).total()
        })
        .collect()
}

/// Evaluate a plan end to end.
pub fn evaluate_plan(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    spec: &ModelSpec,
    db: &CostDb,
    job: &BatchJob,
) -> Result<PlanReport, PlanError> {
    plan.validate(spec.n_layers).map_err(PlanError::Invalid)?;
    for s in &plan.stages {
        if s.device >= cluster.len() {
            return Err(PlanError::Invalid(format!("stage device {} out of range", s.device)));
        }
    }

    // Memory feasibility.
    let mems = stage_memories(plan, cluster, spec, job);
    for (i, (&m, s)) in mems.iter().zip(&plan.stages).enumerate() {
        let cap = cluster.devices[s.device].mem_bytes();
        if m > cap {
            return Err(PlanError::Oom { stage: i, needed: m, capacity: cap });
        }
    }

    // Simulate.
    let loads = stage_loads(plan, cluster, spec, db, job);
    let first_gpu = cluster.devices[plan.stages[0].device].gpu;
    let mb = &plan.microbatch;
    let pre_w = PhaseWorkload::prefill(mb.prefill_size, job.prompt_len);
    let dec_w = PhaseWorkload::decode(mb.decode_size, job.prompt_len, representative_past(job));
    let wl = PipelineWorkload {
        prefill_microbatches: mb.prefill_count,
        decode_microbatches: mb.decode_count,
        n_tokens: job.n_generate,
        master_prefill: db.master_latency(first_gpu, spec, &pre_w),
        master_decode: db.master_latency(first_gpu, spec, &dec_w),
    };
    let r = simulate_pipeline(&loads, &wl);
    Ok(PlanReport {
        scheme: plan.scheme.clone(),
        prefill_latency: r.prefill_latency,
        decode_latency: r.decode_latency,
        total_latency: r.total_latency,
        throughput: job.total_tokens() as f64 / r.total_latency,
        max_bubble: r.max_bubble_fraction,
        stage_memory: mems,
        mean_bits: plan.bit_assignment().mean_bits(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StagePlan;
    use llmpq_cluster::paper_cluster;
    use llmpq_cost::CostDb;
    use llmpq_model::zoo;
    use llmpq_quant::Bitwidth;
    use llmpq_sim::KernelEnv;
    use llmpq_workload::MicrobatchPlan;

    fn simple_plan(n_layers: usize, n_stages: usize, bits: Bitwidth, scheme: &str) -> ExecutionPlan {
        let per = n_layers / n_stages;
        let stages = (0..n_stages)
            .map(|i| {
                let start = i * per;
                let end = if i + 1 == n_stages { n_layers } else { start + per };
                StagePlan { device: i, layer_start: start, layer_end: end, bits: vec![bits; end - start] }
            })
            .collect();
        ExecutionPlan {
            model: "opt-30b".into(),
            cluster: "cluster-3".into(),
            stages,
            microbatch: MicrobatchPlan { prefill_size: 2, prefill_count: 16, decode_size: 8, decode_count: 4 },
            scheme: scheme.into(),
            kv_bits: 16,
        }
    }

    #[test]
    fn evaluates_feasible_plan() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let plan = simple_plan(spec.n_layers, 4, Bitwidth::Int4, "test");
        let r = evaluate_plan(&plan, &cluster, &spec, &db, &job).expect("feasible");
        assert!(r.total_latency > 0.0);
        assert!(r.throughput > 0.0);
        assert_eq!(r.stage_memory.len(), 4);
        assert!((r.mean_bits - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fp16_oom_on_small_cluster() {
        // OPT-30b FP16 cannot fit cluster 3 (3×16 GB + 32 GB) evenly.
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let plan = simple_plan(spec.n_layers, 4, Bitwidth::Fp16, "test");
        match evaluate_plan(&plan, &cluster, &spec, &db, &job) {
            Err(PlanError::Oom { .. }) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn invalid_plan_rejected() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let mut plan = simple_plan(spec.n_layers, 4, Bitwidth::Int4, "test");
        plan.stages[2].layer_start += 1;
        assert!(matches!(
            evaluate_plan(&plan, &cluster, &spec, &db, &job),
            Err(PlanError::Invalid(_))
        ));
    }

    #[test]
    fn throughput_definition_matches_paper() {
        // Throughput = generated tokens in the batch / end-to-end latency.
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let plan = simple_plan(spec.n_layers, 4, Bitwidth::Int4, "test");
        let r = evaluate_plan(&plan, &cluster, &spec, &db, &job).unwrap();
        assert!((r.throughput - 3200.0 / r.total_latency).abs() < 1e-9);
    }

    #[test]
    fn batch_latency_is_the_simulated_batch_profile() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let plan = simple_plan(spec.n_layers, 4, Bitwidth::Int4, "t");
        let job = |global_batch| BatchJob { global_batch, prompt_len: 128, n_generate: 32 };
        let (loads, wl) = batch_profile(&plan, &cluster, &spec, &db, &job(8));
        let one = batch_latency(&plan, &cluster, &spec, &db, &job(1));
        let eight = batch_latency(&plan, &cluster, &spec, &db, &job(8));
        assert_eq!(eight, simulate_pipeline(&loads, &wl).total_latency);
        assert!(one > 0.0 && eight > one, "a bigger batch costs more: {one} vs {eight}");
    }

    #[test]
    fn comm_heavier_on_slow_interconnect() {
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let plan = simple_plan(spec.n_layers, 4, Bitwidth::Int4, "t");
        let fast = stage_loads(&plan, &paper_cluster(3), &spec, &db, &job); // 800G
        let slow = stage_loads(&plan, &paper_cluster(4), &spec, &db, &job); // 100G
        // Boundary 2→3 crosses nodes in both clusters 3 and 4.
        assert!(slow[2].comm_prefill > fast[2].comm_prefill);
    }

    #[test]
    fn smaller_prefill_microbatch_reduces_memory() {
        let spec = zoo::opt_30b();
        let job = BatchJob::paper_default();
        let mut plan = simple_plan(spec.n_layers, 4, Bitwidth::Int8, "t");
        plan.microbatch.prefill_size = 32;
        plan.microbatch.prefill_count = 1;
        let big = stage_memories(&plan, &paper_cluster(3), &spec, &job);
        plan.microbatch.prefill_size = 1;
        plan.microbatch.prefill_count = 32;
        let small = stage_memories(&plan, &paper_cluster(3), &spec, &job);
        assert!(small[1] < big[1]);
    }
}
