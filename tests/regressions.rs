//! Fast cross-crate regression tests for behaviours that earlier
//! development iterations got wrong — pinned here so they stay fixed.

use llm_pq::evaluate::{stage_loads, stage_memories};
use llm_pq::ExecutionPlan;
use llmpq_cluster::paper_cluster;
use llmpq_cost::CostDb;
use llmpq_model::{zoo, Phase};
use llmpq_quant::{Bitwidth, IndicatorTable};
use llmpq_sim::{simulate_pipeline, KernelEnv, PipelineWorkload, StageLoad};
use llmpq_workload::{BatchJob, MicrobatchPlan};

fn even_plan(n_layers: usize, n_stages: usize, bits: Bitwidth, kv_bits: u32) -> ExecutionPlan {
    let per = n_layers / n_stages;
    let stage_bits = (0..n_stages).map(|i| vec![bits; if i + 1 == n_stages { n_layers - i * per } else { per }]);
    let mb = MicrobatchPlan { prefill_size: 2, prefill_count: 16, decode_size: 8, decode_count: 4 };
    let plan = ExecutionPlan::contiguous("opt-30b", "cluster-3", stage_bits.collect(), mb);
    ExecutionPlan { scheme: "test".into(), kv_bits, ..plan }
}

/// Regression: the master engine must not serialize the pipeline when
/// its per-micro-batch cost is zero (an early implementation ratcheted
/// `master_free` forward on zero-duration jobs, destroying overlap).
#[test]
fn zero_cost_master_does_not_serialize_pipeline() {
    let stages = vec![
        StageLoad { prefill_time: 1.0, decode_time: 0.1, comm_prefill: 0.0, comm_decode: 0.0 };
        4
    ];
    let w = PipelineWorkload {
        prefill_microbatches: 4,
        decode_microbatches: 4,
        n_tokens: 1,
        master_prefill: 0.0,
        master_decode: 0.0,
    };
    let r = simulate_pipeline(&stages, &w);
    assert!((r.prefill_latency - 7.0).abs() < 1e-9, "perfect overlap expected, got {}", r.prefill_latency);
}

/// Regression: KV bits must flow from the plan into both the memory
/// check and the stage latencies (early version hardcoded FP16).
#[test]
fn plan_kv_bits_affect_memory_and_latency() {
    let cluster = paper_cluster(3);
    let spec = zoo::opt_30b();
    let db = CostDb::oracle(&KernelEnv::default());
    let job = BatchJob { global_batch: 32, prompt_len: 512, n_generate: 400 };
    let p16 = even_plan(spec.n_layers, 4, Bitwidth::Int4, 16);
    let p8 = even_plan(spec.n_layers, 4, Bitwidth::Int4, 8);
    let m16 = stage_memories(&p16, &spec, &job);
    let m8 = stage_memories(&p8, &spec, &job);
    for (a, b) in m16.iter().zip(&m8) {
        assert!(b < a, "int8 KV must shrink memory: {b} vs {a}");
    }
    let l16 = stage_loads(&p16, &cluster, &spec, &db, &job);
    let l8 = stage_loads(&p8, &cluster, &spec, &db, &job);
    for (a, b) in l16.iter().zip(&l8) {
        assert!(b.decode_time < a.decode_time, "int8 KV must cut decode traffic");
    }
}

/// Regression: the paper-named bitwidth set stays {3,4,8,16}, ascending
/// — the assigner indexes `Bitwidth::ALL` positionally.
#[test]
fn bitwidth_all_order_is_load_bearing() {
    assert_eq!(
        Bitwidth::ALL.map(|b| b.bits()),
        [3u32, 4, 8, 16],
        "changing this order silently corrupts every IndicatorTable"
    );
    let t = IndicatorTable { omega: vec![[3.0, 4.0, 8.0, 0.0]] };
    assert_eq!(t.get(0, Bitwidth::Int3), 3.0);
    assert_eq!(t.get(0, Bitwidth::Fp16), 0.0);
}

/// Regression: workspace memory must follow the *micro-batch* size, not
/// the global batch (the cluster-1 enabler).
#[test]
fn workspace_follows_microbatch_not_global_batch() {
    let spec = zoo::opt_13b();
    let small_mb = llmpq_sim::layer_workspace_bytes(&spec, Phase::Prefill, 1, 512, Bitwidth::Int8);
    let big_mb = llmpq_sim::layer_workspace_bytes(&spec, Phase::Prefill, 32, 512, Bitwidth::Int8);
    assert!(big_mb > 10.0 * small_mb);
}

/// Regression: plan JSON without `kv_bits` (pre-extension strategy
/// files) must still parse, defaulting to FP16 KV.
#[test]
fn legacy_strategy_files_parse() {
    let legacy = r#"{
        "model": "opt-13b",
        "cluster": "cluster-1",
        "stages": [
            { "device": 0, "layer_start": 0, "layer_end": 2, "bits": ["Int8", "Int8"] }
        ],
        "microbatch": { "prefill_size": 1, "prefill_count": 2, "decode_size": 2, "decode_count": 1 },
        "scheme": "LLM-PQ"
    }"#;
    let plan = ExecutionPlan::from_json(legacy).expect("legacy plan parses");
    assert_eq!(plan.kv_bits, 16);
    plan.validate(2).unwrap();
}

/// Regression: evaluating the same plan twice is deterministic (the DES
/// and cost models are seed-free).
#[test]
fn evaluation_is_deterministic() {
    let cluster = paper_cluster(3);
    let spec = zoo::opt_30b();
    let db = CostDb::oracle(&KernelEnv::default());
    let job = BatchJob::paper_default();
    let plan = even_plan(spec.n_layers, 4, Bitwidth::Int4, 16);
    let a = llm_pq::evaluate_plan(&plan, &cluster, &spec, &db, &job).unwrap();
    let b = llm_pq::evaluate_plan(&plan, &cluster, &spec, &db, &job).unwrap();
    assert_eq!(a, b);
}
