//! Property tests for the memory model's one owner. Algorithm 1's
//! partition problem charges a stage through the same two functions
//! (`llmpq_cost::layer_charge`, `llmpq_cost::device_charge`) whose sum
//! `stage_memory` is, with the bitwidth menu as the workspace arena's
//! bit set. So every plan `assign` returns passes the evaluator's OOM
//! check, and the DP's charge for each of its stages (Σ `mem` +
//! `fixed_mem`) is at least the evaluator's prediction — equal to it
//! when the menu holds one bitwidth, where the two bit sets coincide.

use llm_pq::evaluate::stage_memories;
use llm_pq::{assign, build_problem, evaluate_plan, AssignerConfig, ExecutionPlan, SolverChoice};
use llmpq_cluster::{paper_cluster, Cluster, GpuModel, Interconnect};
use llmpq_cost::CostDb;
use llmpq_model::{zoo, ModelFamily, ModelSpec};
use llmpq_quant::{Bitwidth, IndicatorTable};
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;
use proptest::prelude::*;

fn indicator(n_layers: usize) -> IndicatorTable {
    IndicatorTable {
        omega: (0..n_layers)
            .map(|l| {
                let base = 1.0 / (1.0 + l as f64 * 0.2);
                [base, base * 0.2, base * 0.01, 0.0]
            })
            .collect(),
    }
}

/// The bitwidth menu `assign` draws from under `cfg` (all of
/// `Bitwidth::ALL` up to the cap).
fn menu(cfg: &AssignerConfig) -> Vec<Bitwidth> {
    Bitwidth::ALL.into_iter().filter(|b| cfg.max_bits.is_none_or(|cap| b.bits() <= cap.bits())).collect()
}

/// The DP's memory charge for each stage of `plan`: the partition
/// problem built over the plan's own device order and micro-batches, at
/// one layer per group, summed over each stage's layers at their bits.
fn dp_charges(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    menu: &[Bitwidth],
) -> Vec<f64> {
    let db = CostDb::oracle(&KernelEnv::default());
    let ordering: Vec<usize> = plan.stages.iter().map(|s| s.device).collect();
    let kv_bits = plan.kv_bits as f64;
    let mb = &plan.microbatch;
    let (p, _, _) = build_problem(cluster, &ordering, spec, job, &db, None, 0.0, mb, 1, menu, true, None, kv_bits);
    plan.stages
        .iter()
        .enumerate()
        .map(|(j, s)| {
            let layers: f64 = (s.layer_start..s.layer_end)
                .zip(&s.bits)
                .map(|(layer, b)| {
                    let bi = menu.iter().position(|m| m == b).expect("plan bits come from the menu");
                    p.mem[(layer * p.n_devices + j) * p.n_bits + bi]
                })
                .sum();
            layers + p.fixed_mem[j]
        })
        .collect()
}

/// Run `assign` and check both properties on what it returns; `false`
/// when nothing fits the cluster.
fn check(cluster: &Cluster, spec: &ModelSpec, job: &BatchJob, cfg: &AssignerConfig) -> bool {
    let db = CostDb::oracle(&KernelEnv::default());
    let Ok(out) = assign(cluster, spec, job, &db, &indicator(spec.n_layers), cfg) else { return false };
    let plan = &out.plan;
    let ctx = format!("{} on {} at {job:?}, {:?}", spec.name, cluster.name, plan.microbatch);
    assert!(evaluate_plan(plan, cluster, spec, &db, job).is_ok(), "{ctx}: returned plan fails evaluation");
    let menu = menu(cfg);
    let eval = stage_memories(plan, cluster, spec, job);
    for (j, (dp, ev)) in dp_charges(plan, cluster, spec, job, &menu).into_iter().zip(eval).enumerate() {
        assert!(dp >= ev, "{ctx}: stage {j}: DP charges {dp} < evaluator's {ev}");
        if menu.len() == 1 {
            assert_eq!(dp, ev, "{ctx}: stage {j}: one-bitwidth menu");
        }
    }
    true
}

fn quick_cfg(max_bits: Option<Bitwidth>, search_kv8: bool) -> AssignerConfig {
    AssignerConfig {
        theta: 0.1,
        solver: SolverChoice::Dp { group: 1 },
        xi: 2,
        max_orderings: 2,
        dp_grid: Some(8),
        search_kv8,
        max_bits,
    }
}

#[test]
fn paper_clusters_plan_within_the_evaluators_memory() {
    let mut planned = 0;
    for n in 1..=11 {
        let cluster = paper_cluster(n);
        let spec = zoo::by_name(cluster.paper_model.as_deref().expect("paper model")).expect("zoo model");
        for prompt_len in [128, 512] {
            let job = BatchJob { prompt_len, ..BatchJob::paper_default() };
            let cfg = AssignerConfig { solver: SolverChoice::Dp { group: 4 }, ..quick_cfg(None, false) };
            planned += usize::from(check(&cluster, &spec, &job, &cfg));
        }
    }
    assert_eq!(planned, 22, "every paper cell has a plan");
}

fn gpu() -> impl Strategy<Value = GpuModel> {
    prop_oneof![
        Just(GpuModel::P100_12G),
        Just(GpuModel::T4_16G),
        Just(GpuModel::V100_32G),
        Just(GpuModel::A100_40G),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Small random instances, sized so that memory binds on some of
    /// them: ≤ 6 layers (one per group), ≤ 3 devices, a menu of 1–3
    /// bitwidths.
    #[test]
    fn small_instances_plan_within_the_evaluators_memory(
        n_layers in 1usize..=6,
        hidden in prop_oneof![Just(4096usize), Just(8192), Just(12288)],
        devices in prop::collection::vec(gpu(), 1..=3),
        batch in 1usize..=16,
        prompt_len in 16usize..=512,
        n_generate in 1usize..=200,
        cap in prop_oneof![Just(Bitwidth::Int3), Just(Bitwidth::Int4), Just(Bitwidth::Int8)],
        search_kv8 in prop_oneof![Just(false), Just(true)],
    ) {
        let spec = ModelSpec::new(ModelFamily::Opt, "mem-prop", n_layers, hidden, 32, 50_272, 2_048);
        let groups: Vec<(GpuModel, usize)> = devices.iter().map(|&g| (g, 1)).collect();
        let cluster = Cluster::from_groups("mem-prop", &groups, Interconnect::Ethernet800G, None);
        let job = BatchJob { global_batch: batch, prompt_len, n_generate };
        check(&cluster, &spec, &job, &quick_cfg(Some(cap), search_kv8));
    }
}
