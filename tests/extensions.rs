//! Cross-crate integration tests for the §7-discussion extensions:
//! tensor parallelism, KV-cache quantization, online serving, recovery.

use llm_pq::evaluate::batch_latency;
use llm_pq::{assign, tp_sweep, AssignerConfig, SolverChoice};
use llmpq_cluster::paper_cluster;
use llmpq_cost::CostDb;
use llmpq_model::{zoo, RefConfig, RefModel};
use llmpq_quant::IndicatorTable;
use llmpq_runtime::{
    arrival_requests, serve_trace_static, FaultPlan, IterCost, Pipeline, SupervisorConfig,
};
use llmpq_sim::KernelEnv;
use llmpq_workload::{sample_arrivals, BatchJob, OnlineConfig, PromptLengthModel};

fn flat_indicator(n: usize) -> IndicatorTable {
    IndicatorTable {
        omega: (0..n)
            .map(|l| {
                let b = 1.0 / (1.0 + l as f64 * 0.05) / n as f64;
                [b, b * 0.2, b * 0.01, 0.0]
            })
            .collect(),
    }
}

#[test]
fn tensor_parallel_sweep_covers_all_widths_feasibly() {
    let cluster = paper_cluster(11);
    let spec = zoo::bloom_176b();
    let job = BatchJob::paper_default();
    let out = tp_sweep(
        &cluster,
        &spec,
        &job,
        &KernelEnv::default(),
        &flat_indicator(spec.n_layers),
        0.1,
        10,
    );
    assert_eq!(out.len(), 3, "TP widths 1/2/4 on 4×A800");
    for o in &out {
        assert!(o.throughput > 0.0 && o.total_latency > 0.0, "width {}", o.tp_width);
        assert!(o.n_stages >= 1 && o.n_stages <= 4 / o.tp_width);
    }
}

#[test]
fn kv8_search_never_hurts_the_objective() {
    // Searching a strict superset of plans cannot worsen the outcome.
    let cluster = paper_cluster(9);
    let spec = zoo::opt_30b();
    let job = BatchJob { global_batch: 32, prompt_len: 512, n_generate: 400 };
    let db = CostDb::oracle(&KernelEnv::default());
    let indicator = flat_indicator(spec.n_layers);
    let mut cfg = AssignerConfig {
        theta: 0.1,
        solver: SolverChoice::Dp { group: 8 },
        xi: 2,
        max_orderings: 2,
        dp_grid: Some(8),
        search_kv8: false,
        max_bits: None,
    };
    let base = assign(&cluster, &spec, &job, &db, &indicator, &cfg).ok();
    cfg.search_kv8 = true;
    let wide = assign(&cluster, &spec, &job, &db, &indicator, &cfg).expect("kv8 superset feasible");
    if let Some(base) = base {
        assert!(
            wide.report.throughput >= base.report.throughput * 0.999,
            "kv8 search regressed: {} < {}",
            wide.report.throughput,
            base.report.throughput
        );
    }
    assert!(wide.plan.kv_bits == 8 || wide.plan.kv_bits == 16);
}

#[test]
fn online_simulation_over_a_real_plan_saturates_monotonically() {
    let cluster = paper_cluster(3);
    let spec = zoo::opt_30b();
    let job = BatchJob::paper_default();
    let db = CostDb::oracle(&KernelEnv::default());
    let cfg = AssignerConfig {
        theta: 0.1,
        solver: SolverChoice::Dp { group: 8 },
        xi: 2,
        max_orderings: 2,
        dp_grid: Some(8),
        search_kv8: false,
        max_bits: None,
    };
    let out = assign(&cluster, &spec, &job, &db, &flat_indicator(spec.n_layers), &cfg).unwrap();
    let serve = |rate: f64| {
        let cfg = OnlineConfig { arrival_rate: rate, n_requests: 40, ..Default::default() };
        let arrivals = sample_arrivals(&cfg, &PromptLengthModel::default()).unwrap();
        let trace = arrival_requests(&arrivals);
        let cost = IterCost::fit_trace(&trace, 8, |job| {
            batch_latency(&out.plan, &cluster, &spec, &db, job)
        });
        let rep = serve_trace_static(&trace, vec![cost], 8, 2.0, 0).expect("static run");
        assert!(rep.conserves() && rep.completed == trace.len(), "rate {rate}: {:?}", rep.stats);
        (rep.sojourn.expect("requests served").p95, rep.throughput_tok_s)
    };
    let (light_p95, light_tput) = serve(0.1);
    let (heavy_p95, heavy_tput) = serve(10.0);
    assert!(heavy_p95 >= light_p95 * 0.9, "saturation inverted");
    assert!(heavy_tput >= light_tput * 0.9, "batching should help at load");
}

#[test]
fn recovery_works_for_an_assigned_plan() {
    // Full loop: assign on metadata → execute with an injected crash →
    // recover → verify token count and determinism across runs.
    let spec = llmpq_model::ModelSpec::new(
        llmpq_model::ModelFamily::Opt,
        "itest-6l",
        6,
        64,
        4,
        256,
        128,
    );
    let cluster = llmpq_cluster::Cluster::from_groups(
        "itest",
        &[(llmpq_cluster::GpuModel::T4_16G, 1), (llmpq_cluster::GpuModel::V100_32G, 1)],
        llmpq_cluster::Interconnect::Ethernet800G,
        None,
    );
    let db = CostDb::oracle(&KernelEnv::default());
    let job = BatchJob { global_batch: 4, prompt_len: 8, n_generate: 10 };
    let cfg = AssignerConfig {
        theta: 0.05,
        solver: SolverChoice::Dp { group: 1 },
        xi: 2,
        max_orderings: 2,
        dp_grid: Some(8),
        search_kv8: false,
        max_bits: None,
    };
    let out = assign(&cluster, &spec, &job, &db, &flat_indicator(6), &cfg).unwrap();
    let checkpoint = RefModel::new(RefConfig::scaled_like(6, 5));
    let prompts: Vec<Vec<usize>> =
        (0..4).map(|i| (0..8).map(|j| (i * 29 + j * 13) % 256).collect()).collect();
    let crash_stage = out.plan.stages.len() - 1;
    let sup = SupervisorConfig {
        max_restarts: 2,
        ..SupervisorConfig::default()
    };
    let run = || Pipeline::new(&checkpoint, &out.plan).supervised(sup);
    // Two consecutive crashes: attempt 0 loses the last stage mid-decode,
    // attempt 1 loses stage 0 right after resuming.
    let faults = FaultPlan::crash_schedule(&[(crash_stage, 3), (0, 1)]);
    let rec = run().faults(&faults).run(&prompts, 10).expect("recovered");
    assert_eq!(rec.restarts, 2);
    let clean = run().run(&prompts, 10).unwrap();
    assert_eq!(clean.restarts, 0);
    assert_eq!(rec.tokens, clean.tokens, "recovery must not change tokens");
}
