//! Cross-crate integration tests: the full LLM-PQ flow from assigner to
//! live pipeline execution.

use llm_pq::{assign, AssignerConfig, ExecutionPlan, SolverChoice};
use llm_pq::baselines::{pipeedge_plan, uniform_plan};
use llmpq_cluster::{paper_cluster, Cluster, GpuModel, Interconnect};
use llmpq_cost::CostDb;
use llmpq_model::{ModelFamily, ModelSpec, RefConfig, RefModel};
use llmpq_quant::{quantize_model, IndicatorTable, Rounding};
use llmpq_runtime::Pipeline;
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;

/// A toy model spec small enough that any cluster holds it — used when
/// the plan must afterwards run on the real reference transformer.
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
        "itest",
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

#[test]
fn assigner_plan_executes_on_live_runtime() {
    // Plan on the metadata, then execute the plan on the real reference
    // transformer and verify tokens against sequential generation.
    let spec = tiny_spec();
    let cluster = two_device_cluster();
    let db = CostDb::oracle(&KernelEnv::default());
    let job = BatchJob { global_batch: 4, prompt_len: 8, n_generate: 5 };
    let out = assign(&cluster, &spec, &job, &db, &tiny_indicator(4), &quick_cfg()).expect("plan");
    out.plan.validate(4).unwrap();

    let checkpoint = RefModel::new(RefConfig::scaled_like(4, 42));
    let prompts: Vec<Vec<usize>> =
        (0..4).map(|i| (0..8).map(|j| (i * 31 + j * 7) % 256).collect()).collect();
    let run = Pipeline::new(&checkpoint, &out.plan).run(&prompts, 5)
        .expect("runtime ok");

    let qm = quantize_model(
        &checkpoint,
        &out.plan.bit_assignment(),
        Rounding::Deterministic,
        0,
    );
    for (i, p) in prompts.iter().enumerate() {
        assert_eq!(run.tokens[i], qm.generate(p, 5, 0.0, 0).tokens, "sequence {i}");
    }
}

#[test]
fn llmpq_never_loses_to_its_baselines() {
    // On the paper clusters the LLM-PQ objective (θ→0) must produce at
    // least the throughput of PipeEdge and Uniform — its search space
    // contains both.
    let db = CostDb::oracle(&KernelEnv::default());
    let job = BatchJob::paper_default();
    for n in [3usize, 9] {
        let cluster = paper_cluster(n);
        let spec = llmpq_model::zoo::by_name(cluster.paper_model.as_deref().unwrap()).unwrap();
        let indicator = tiny_indicator(spec.n_layers);
        let cfg = AssignerConfig {
            theta: 0.0,
            solver: SolverChoice::Dp { group: 4 },
            xi: 4,
            max_orderings: 4,
            dp_grid: Some(10),
            search_kv8: false,
        max_bits: None,
        };
        let pq = assign(&cluster, &spec, &job, &db, &indicator, &cfg).expect("feasible");
        if let Ok((_, pe)) = pipeedge_plan(&cluster, &spec, &job, &db) {
            assert!(
                pq.report.throughput >= pe.throughput * 0.999,
                "cluster {n}: LLM-PQ {} < PipeEdge {}",
                pq.report.throughput,
                pe.throughput
            );
        }
        if let Ok((_, un)) = uniform_plan(&cluster, &spec, &job, &db) {
            assert!(
                pq.report.throughput >= un.throughput * 0.999,
                "cluster {n}: LLM-PQ {} < Uniform {}",
                pq.report.throughput,
                un.throughput
            );
        }
    }
}

#[test]
fn strategy_file_round_trips_through_runtime() {
    // The llmpq-algo → strategy file → llmpq-dist flow: serialize the
    // plan, parse it back, execute it.
    let spec = tiny_spec();
    let cluster = two_device_cluster();
    let db = CostDb::oracle(&KernelEnv::default());
    let job = BatchJob { global_batch: 2, prompt_len: 6, n_generate: 4 };
    let out = assign(&cluster, &spec, &job, &db, &tiny_indicator(4), &quick_cfg()).expect("plan");

    let json = out.plan.to_json();
    let parsed = ExecutionPlan::from_json(&json).expect("parse strategy file");
    assert_eq!(parsed, out.plan);

    let checkpoint = RefModel::new(RefConfig::scaled_like(4, 7));
    let prompts = vec![vec![1, 2, 3, 4, 5, 6], vec![10, 20, 30, 40, 50, 60]];
    let run = Pipeline::new(&checkpoint, &parsed)
        .quantizer(Rounding::Deterministic, 1)
        .run(&prompts, 4)
        .expect("runtime ok");
    assert_eq!(run.tokens.len(), 2);
    assert!(run.tokens.iter().all(|t| t.len() == 4));
}

#[test]
fn paper_clusters_all_get_feasible_plans() {
    // Every Table 3 cluster must admit a feasible LLM-PQ plan for its
    // paper-assigned model (the paper sizes models to fit quantized).
    let db = CostDb::oracle(&KernelEnv::default());
    let job = BatchJob::paper_default();
    for n in 1..=11 {
        let cluster = paper_cluster(n);
        let spec = llmpq_model::zoo::by_name(cluster.paper_model.as_deref().unwrap()).unwrap();
        let indicator = tiny_indicator(spec.n_layers);
        let cfg = AssignerConfig {
            theta: 0.1,
            solver: SolverChoice::Dp { group: 8 },
            xi: 2,
            max_orderings: 2,
            dp_grid: Some(8),
            search_kv8: false,
        max_bits: None,
        };
        let out = assign(&cluster, &spec, &job, &db, &indicator, &cfg)
            .unwrap_or_else(|e| panic!("cluster {n}: {e}"));
        out.plan.validate(spec.n_layers).unwrap();
        assert!(out.report.throughput > 0.0, "cluster {n}");
    }
}

#[test]
fn heterogeneous_plan_weights_fast_devices() {
    // On cluster 3 (3×T4 + V100) the V100 should host more layers than
    // an average T4 under a throughput-oriented objective.
    let db = CostDb::oracle(&KernelEnv::default());
    let cluster = paper_cluster(3);
    let spec = llmpq_model::zoo::opt_30b();
    let cfg = AssignerConfig {
        theta: 0.0,
        solver: SolverChoice::Dp { group: 4 },
        xi: 4,
        max_orderings: 4,
        dp_grid: Some(10),
        search_kv8: false,
        max_bits: None,
    };
    let out = assign(&cluster, &spec, &BatchJob::paper_default(), &db, &tiny_indicator(spec.n_layers), &cfg)
        .expect("feasible");
    let mut per_device = vec![0usize; cluster.len()];
    for s in &out.plan.stages {
        per_device[s.device] += s.n_layers();
    }
    let v100_layers = per_device[3]; // device 3 is the V100
    let t4_avg = (per_device[0] + per_device[1] + per_device[2]) as f64 / 3.0;
    assert!(
        v100_layers as f64 >= t4_avg,
        "V100 {v100_layers} layers vs T4 avg {t4_avg:.1}"
    );
}
