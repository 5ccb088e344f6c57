//! Integration: the supervisor recovering from permanent device loss by
//! re-running the *real* assigner (Algorithm 1) on the surviving
//! sub-cluster, reloading through the on-the-fly quantizing loader, and
//! resuming bit-identically — the full LLM-PQ recovery story wired
//! end-to-end across `llm-pq`, `llmpq-cluster` and `llmpq-runtime`.

use llm_pq::{assign, replan_after_loss, AssignerConfig, ExecutionPlan, SolverChoice};
use llmpq_cluster::{Cluster, GpuModel, Interconnect};
use llmpq_cost::CostDb;
use llmpq_model::{ModelFamily, ModelSpec, RefConfig, RefModel};
use llmpq_quant::{quantize_model, IndicatorTable, Rounding};
use llmpq_runtime::{FaultPlan, Pipeline, Replanner, SupervisorConfig};
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;

fn tiny_spec() -> ModelSpec {
    ModelSpec::new(ModelFamily::Opt, "tiny-4l", 4, 64, 4, 256, 128)
}

fn tiny_indicator(n_layers: usize) -> IndicatorTable {
    IndicatorTable {
        omega: (0..n_layers)
            .map(|l| {
                let base = 1.0 / (1.0 + l as f64);
                [base, base * 0.2, base * 0.01, 0.0]
            })
            .collect(),
    }
}

fn two_device_cluster() -> Cluster {
    Cluster::from_groups(
        "duo",
        &[(GpuModel::T4_16G, 1), (GpuModel::V100_32G, 1)],
        Interconnect::Ethernet800G,
        None,
    )
}

fn quick_cfg() -> AssignerConfig {
    AssignerConfig {
        theta: 0.05,
        solver: SolverChoice::Dp { group: 1 },
        xi: 2,
        max_orderings: 2,
        dp_grid: Some(8),
        search_kv8: false,
        max_bits: None,
    }
}

/// The production-shaped replanner: delegates to Algorithm 1 on the
/// surviving sub-cluster via `llm_pq::replan_after_loss`.
struct AssignerReplanner<'a> {
    cluster: &'a Cluster,
    spec: &'a ModelSpec,
    job: &'a BatchJob,
    db: &'a CostDb,
    indicator: &'a IndicatorTable,
    cfg: &'a AssignerConfig,
}

impl Replanner for AssignerReplanner<'_> {
    fn replan(&self, _old: &ExecutionPlan, lost: &[usize]) -> Result<ExecutionPlan, String> {
        replan_after_loss(self.cluster, lost, self.spec, self.job, self.db, self.indicator, self.cfg)
            .map(|o| o.plan)
            .map_err(|e| e.to_string())
    }
}

/// Fast restarts, but failure-detection timeouts no healthy stage can
/// trip. The device loss ends its attempt through a channel disconnect,
/// which needs no timeout. A debug-build stage computing one item on a
/// loaded two-core box can go well past 100 ms without a heartbeat; at
/// the 100 / 300 ms this test once used, such a stall was declared
/// `StageHung` and used up the restart budget (`max_restarts: 2`)
/// before or after the replan, or put a spurious restart ahead of the
/// loss in `events`.
fn fast_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        heartbeat_timeout_ms: 2_000,
        progress_timeout_ms: 5_000,
        tick_ms: 1,
        max_restarts: 2,
        backoff_base_ms: 1,
        backoff_cap_ms: 8,
        max_queue: None,
    }
}

#[test]
fn device_loss_recovers_via_assigner_replan_bit_identically() {
    let spec = tiny_spec();
    let cluster = two_device_cluster();
    let db = CostDb::oracle(&KernelEnv::default());
    let job = BatchJob { global_batch: 4, prompt_len: 8, n_generate: 6 };
    let indicator = tiny_indicator(spec.n_layers);
    let cfg = quick_cfg();
    let out = assign(&cluster, &spec, &job, &db, &indicator, &cfg).expect("initial plan");
    let plan = out.plan;
    plan.validate(spec.n_layers).unwrap();
    assert_eq!(plan.stages.len(), 2, "need a two-stage pipeline to kill a stage");

    let checkpoint = RefModel::new(RefConfig::scaled_like(4, 42));
    let prompts: Vec<Vec<usize>> =
        (0..4).map(|i| (0..8).map(|j| (i * 31 + j * 7) % 256).collect()).collect();
    let n_gen = 6;

    // Permanently lose the device hosting stage 1 after a few items.
    let faults = FaultPlan::device_loss(1, 3);
    let replanner = AssignerReplanner {
        cluster: &cluster,
        spec: &spec,
        job: &job,
        db: &db,
        indicator: &indicator,
        cfg: &cfg,
    };
    let sup = Pipeline::new(&checkpoint, &plan)
        .supervised(fast_supervisor())
        .faults(&faults)
        .replanner(&replanner)
        .run(&prompts, n_gen)
        .expect("recovered via replan");

    assert_eq!(sup.replans, 1);
    let lost_device = plan.stages[1].device;
    assert!(
        sup.final_plan.stages.iter().all(|s| s.device != lost_device),
        "replanned plan must avoid the lost device"
    );
    sup.final_plan.validate(spec.n_layers).unwrap();

    // Bit-identity: prefix follows the old plan's quantized model, the
    // resumed tail follows sequential execution of the *new* plan's
    // model fed prompt ++ prefix.
    let done = sup.events[0].checkpointed_tokens;
    assert!(done > 0 && done < n_gen, "loss must land mid-generation, got {done}");
    let qm_old =
        quantize_model(&checkpoint, &plan.bit_assignment(), Rounding::Deterministic, 0);
    let qm_new = quantize_model(
        &checkpoint,
        &sup.final_plan.bit_assignment(),
        Rounding::Deterministic,
        0,
    );
    for (i, p) in prompts.iter().enumerate() {
        let old_full = qm_old.generate(p, n_gen, 0.0, 0).tokens;
        assert_eq!(&sup.tokens[i][..done], &old_full[..done], "prefix, sequence {i}");
        let mut resumed = p.clone();
        resumed.extend_from_slice(&old_full[..done]);
        let tail = qm_new.generate(&resumed, n_gen - done, 0.0, 0).tokens;
        assert_eq!(&sup.tokens[i][done..], &tail[..], "resumed tail, sequence {i}");
    }
}

#[test]
fn fault_plan_survives_json_round_trip_through_strategy_files() {
    // The CLI ships fault plans as JSON next to the strategy file; the
    // two layers must agree on the format.
    let fp = FaultPlan::random(0xFA17, 3, 10, 5);
    let json = fp.to_json();
    let back = FaultPlan::from_json(&json).expect("parse");
    assert_eq!(fp, back);
}
