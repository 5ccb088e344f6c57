//! Integration: overload control driving the *real* stage ring,
//! end-to-end across `llm-pq` (degradation ladder from Algorithm 1) and
//! `llmpq-runtime` (admission → paged-KV preemption → ladder → the
//! continuous scheduler over `DistStepEngine` with fault injection,
//! ring restarts and live rung swaps).

use llm_pq::{degradation_ladder, AssignerConfig, ExecutionPlan, SolverChoice, DEFAULT_CAPS};
use llmpq_cluster::{Cluster, GpuModel, Interconnect};
use llmpq_cost::CostDb;
use llmpq_model::{ModelFamily, ModelSpec, RefConfig, RefModel};
use llmpq_quant::{quantize_model, BitAssignment, IndicatorTable, Rounding};
use llmpq_runtime::{
    poisson_requests, serve_continuous, AdmissionConfig, AdmissionPolicy, ContinuousConfig,
    ContinuousScheduler, DegradationConfig, DistServeConfig, DistStepEngine, FaultPlan,
    KvPoolConfig, ModelStepEngine,
};
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

fn duo() -> Cluster {
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

const PROMPT_LEN: usize = 4;
const N_GENERATE: usize = 3;

/// The Algorithm-1 degradation ladder on the two-device cluster, cut to
/// the rungs that share rung 0's stage count: the ring keeps a fixed
/// shape across live swaps (`DistStepEngine::over_ring` rejects
/// anything else).
fn same_shape_ladder() -> Vec<ExecutionPlan> {
    let spec = tiny_spec();
    let db = CostDb::oracle(&KernelEnv::default());
    let job = BatchJob { global_batch: 2, prompt_len: PROMPT_LEN, n_generate: N_GENERATE };
    let ladder = degradation_ladder(
        &duo(),
        &spec,
        &job,
        &db,
        &tiny_indicator(spec.n_layers),
        &quick_cfg(),
        &DEFAULT_CAPS,
    )
    .expect("ladder");
    let n_stages = ladder.rungs[0].plan.stages.len();
    ladder.rungs.into_iter().map(|r| r.plan).filter(|p| p.stages.len() == n_stages).collect()
}

/// Ring engine over `plans` with a pool that holds ~4 of this file's
/// requests, so KV pressure is live alongside queue pressure.
fn ring_engine(
    checkpoint: &RefModel,
    plans: Vec<ExecutionPlan>,
    faults: Option<FaultPlan>,
) -> DistStepEngine {
    let cfg = DistServeConfig {
        n_slots: 4,
        pool: KvPoolConfig { n_blocks: 8, block_tokens: 4 },
        ..DistServeConfig::default()
    };
    DistStepEngine::over_channels(checkpoint, plans, Rounding::Deterministic, 0, cfg, faults)
        .expect("engine")
}

/// Serve an overload burst down the real Algorithm-1 ladder on the
/// stage ring, with a stage crash mid-run — admission, degradation,
/// live swaps and restart recovery in one run.
#[test]
fn overload_with_faults_conserves_and_degrades() {
    let plans = same_shape_ladder();
    assert!(plans.len() >= 2, "need at least two same-shape rungs, got {}", plans.len());
    let checkpoint = RefModel::new(RefConfig::scaled_like(tiny_spec().n_layers, 11));
    // Stage 0 dies on its sixth work item of the first attempt.
    let engine = ring_engine(&checkpoint, plans, Some(FaultPlan::crash(0, 5)));

    // Everything arrives within a few virtual milliseconds against a
    // tight queue: the bound sheds and pressure crosses `high` at once.
    let n = 12usize;
    let requests = poisson_requests(n, 5000.0, PROMPT_LEN, N_GENERATE, 9).expect("arrivals");
    let cfg = ContinuousConfig {
        admission: AdmissionConfig {
            policy: AdmissionPolicy::Reject,
            max_queue: 6,
            default_deadline_s: None,
            queue_timeout_s: 1.0,
        },
        degradation: Some(DegradationConfig { high: 0.7, low: 0.2, dwell: 1 }),
        max_batch: 2,
        ..ContinuousConfig::default()
    };
    let mut sched = ContinuousScheduler::new(engine, cfg).expect("scheduler");
    let makespan = sched.run_trace(&requests).expect("served");
    let restarts = sched.engine().restarts();
    assert!(!sched.transitions().is_empty(), "the ladder must have moved");
    let rep = sched.into_report(makespan, "continuous");

    assert!(rep.conserves(), "{:?}", rep.stats);
    assert_eq!(rep.stats.offered, n);
    assert!(rep.stats.shed > 0, "the queue bound must shed under the burst");
    assert!(rep.stats.served > 0, "the ring must make progress under faults");
    // Every served request produced its full token budget on the ring.
    assert_eq!(rep.outputs.len(), rep.stats.served);
    for fin in &rep.outputs {
        assert_eq!(fin.tokens.len(), N_GENERATE);
    }
    assert!(restarts >= 1, "the injected crash must have cost a restart");
    assert!(rep.stats.recovered >= 1, "the restart requeued in-flight work");
}

/// Tokens served through the loop at rung 0 are bit-identical to
/// sequential execution of the rung-0 quantized model — overload
/// control must not perturb generation.
#[test]
fn overload_served_tokens_match_reference() {
    let rung0 = same_shape_ladder().swap_remove(0);
    let checkpoint = RefModel::new(RefConfig::scaled_like(tiny_spec().n_layers, 23));
    let reference = {
        let bits = rung0.bit_assignment();
        quantize_model(&checkpoint, &BitAssignment { bits: bits.bits }, Rounding::Deterministic, 0)
    };

    let requests = poisson_requests(4, 2.0, PROMPT_LEN, N_GENERATE, 5).expect("arrivals");
    let cfg = ContinuousConfig {
        admission: AdmissionConfig { max_queue: 8, ..AdmissionConfig::default() },
        max_batch: 2,
        ..ContinuousConfig::default()
    };
    let rep = serve_continuous(ring_engine(&checkpoint, vec![rung0], None), &requests, cfg, None)
        .expect("served");
    assert_eq!(rep.stats.served, 4);
    for fin in &rep.outputs {
        let req = &requests[fin.id];
        let want = reference.generate(&req.prompt, req.n_generate, 0.0, 0).tokens;
        assert_eq!(fin.tokens, want, "request {} diverged from sequential reference", fin.id);
    }
}

/// Sanity: the served path's KV block size is the cost model's
/// per-layer KV bytes (f32 cache) over every layer, so pool sizes
/// computed from `ModelSpec` line up with what the scheduler gates on.
#[test]
fn kv_block_bytes_tracks_cost_model() {
    let spec = tiny_spec();
    let cfg = RefConfig::scaled_like(spec.n_layers, 3);
    assert_eq!(cfg.hidden, spec.hidden);
    let block_tokens = 16;
    let want = spec.kv_bytes_per_layer(1, block_tokens, 32.0) * spec.n_layers as f64;
    assert_eq!(ModelStepEngine::kv_block_bytes(&cfg, block_tokens) as f64, want);
}

/// Ladder transitions execute as *live* plan swaps (the two-phase
/// barrier between scheduler iterations) and the admission conservation
/// invariant holds across the epoch boundary — no request is counted
/// twice or lost because the ring changed plans while it was in flight.
#[test]
fn rung_transitions_run_as_live_swaps_and_conserve() {
    let spec = tiny_spec();
    let checkpoint = RefModel::new(RefConfig::scaled_like(spec.n_layers, 17));
    let mk_plan = |bits: llmpq_quant::Bitwidth| ExecutionPlan {
        model: "tiny-4l".into(),
        cluster: "duo".into(),
        stages: vec![
            llm_pq::StagePlan { device: 0, layer_start: 0, layer_end: 2, bits: vec![bits; 2] },
            llm_pq::StagePlan { device: 1, layer_start: 2, layer_end: 4, bits: vec![bits; 2] },
        ],
        microbatch: llmpq_workload::MicrobatchPlan {
            prefill_size: 1,
            prefill_count: 2,
            decode_size: 2,
            decode_count: 1,
        },
        scheme: "LLM-PQ".into(),
        kv_bits: 16,
    };
    let plans = vec![mk_plan(llmpq_quant::Bitwidth::Fp16), mk_plan(llmpq_quant::Bitwidth::Int4)];

    let n = 10usize;
    let n_generate = 4usize;
    // A burst: everything arrives inside ~10 ms against a tight queue,
    // so pressure crosses `high` after the first iteration.
    let requests = poisson_requests(n, 1000.0, PROMPT_LEN, n_generate, 31).expect("arrivals");
    let cfg = ContinuousConfig {
        admission: AdmissionConfig {
            policy: AdmissionPolicy::Reject,
            max_queue: 5,
            default_deadline_s: None,
            queue_timeout_s: 5.0,
        },
        // dwell 1: one high-pressure sample climbs the ladder, with
        // requests in flight on the ring.
        degradation: Some(DegradationConfig { high: 0.5, low: 0.05, dwell: 1 }),
        max_batch: 2,
        ..ContinuousConfig::default()
    };
    let mut sched =
        ContinuousScheduler::new(ring_engine(&checkpoint, plans, None), cfg).expect("scheduler");
    let makespan = sched.run_trace(&requests).expect("served");
    let n_transitions = sched.transitions().len() as u64;
    assert!(n_transitions > 0, "the ladder must have moved");
    // Fault-free swaps commit: one ring epoch per transition, no restart.
    assert_eq!(sched.engine().restarts(), 0);
    assert_eq!(sched.engine().epoch(), n_transitions, "every transition is a committed live swap");
    let rep = sched.into_report(makespan, "continuous");

    assert!(rep.conserves(), "conservation across live swaps: {:?}", rep.stats);
    assert_eq!(rep.stats.offered, n);
    // Served requests are whole: every one has its full token budget.
    assert_eq!(rep.outputs.len(), rep.stats.served);
    for fin in &rep.outputs {
        assert_eq!(fin.tokens.len(), n_generate);
    }
}
