//! Property-based tests (proptest) over the core invariants.

use llm_pq::{evaluate_plan, ExecutionPlan, StagePlan};
use llmpq_cluster::{Cluster, GpuModel, Interconnect};
use llmpq_cost::CostDb;
use llmpq_model::{Matrix, RefConfig, RefModel};
use llmpq_quant::{quantize_matrix, BitAssignment, Bitwidth, Rounding};
use llmpq_runtime::Pipeline;
use llmpq_sim::{simulate_pipeline, KernelEnv, PipelineWorkload, StageLoad};
use llmpq_workload::{BatchJob, MicrobatchPlan};
use proptest::prelude::*;

fn bitwidth_strategy() -> impl Strategy<Value = Bitwidth> {
    prop_oneof![
        Just(Bitwidth::Int3),
        Just(Bitwidth::Int4),
        Just(Bitwidth::Int8),
        Just(Bitwidth::Fp16),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Symmetric quantization error is bounded by half the per-row scale
    /// for any matrix and any integer bitwidth.
    #[test]
    fn quantization_error_bounded(
        rows in 1usize..12,
        cols in 1usize..24,
        seed in 0u64..1000,
        scale in 0.01f32..3.0,
    ) {
        let m = Matrix::random(rows, cols, scale, seed);
        for bits in [Bitwidth::Int3, Bitwidth::Int4, Bitwidth::Int8] {
            let q = quantize_matrix(&m, bits, Rounding::Deterministic, 0);
            let dq = q.dequantize();
            for r in 0..rows {
                let bound = q.scales[r] * 0.5 + 1e-5;
                for (a, b) in m.row(r).iter().zip(dq.row(r)) {
                    prop_assert!((a - b).abs() <= bound);
                }
            }
        }
    }

    /// Stochastic rounding never increases the representable range and
    /// stays reproducible per seed.
    #[test]
    fn stochastic_quantization_reproducible(seed in 0u64..500) {
        let m = Matrix::random(6, 10, 0.4, seed);
        let a = quantize_matrix(&m, Bitwidth::Int4, Rounding::Stochastic, seed);
        let b = quantize_matrix(&m, Bitwidth::Int4, Rounding::Stochastic, seed);
        prop_assert_eq!(a, b);
    }

    /// The pipeline DES respects causality: the batch can never finish
    /// faster than the critical path of a single micro-batch, nor faster
    /// than the busiest stage's total work.
    #[test]
    fn pipeline_lower_bounds(
        n_stages in 1usize..6,
        pre in 0.01f64..2.0,
        dec in 0.001f64..0.5,
        mu_p in 1usize..6,
        mu_d in 1usize..6,
        n_tokens in 1usize..20,
    ) {
        let stages = vec![StageLoad {
            prefill_time: pre,
            decode_time: dec,
            comm_prefill: 0.0,
            comm_decode: 0.0,
        }; n_stages];
        let w = PipelineWorkload {
            prefill_microbatches: mu_p,
            decode_microbatches: mu_d,
            n_tokens,
            master_prefill: 0.0,
            master_decode: 0.0,
        };
        let r = simulate_pipeline(&stages, &w);
        // Critical path of one micro-batch through the pipeline.
        let path = n_stages as f64 * pre
            + (n_tokens - 1) as f64 * n_stages as f64 * dec;
        prop_assert!(r.total_latency >= path - 1e-9);
        // Busiest stage work: all prefill + all decode items.
        let work = mu_p as f64 * pre + (mu_d * (n_tokens - 1)) as f64 * dec;
        prop_assert!(r.total_latency >= work - 1e-9);
        // Latency is finite and phases are consistent.
        prop_assert!(r.prefill_latency <= r.total_latency + 1e-12);
        prop_assert!((r.prefill_latency + r.decode_latency - r.total_latency).abs() < 1e-9);
    }

    /// Any structurally valid plan evaluates to positive latency or a
    /// clean OOM error — never a panic — for arbitrary per-layer bits.
    #[test]
    fn evaluate_never_panics(
        bits in prop::collection::vec(bitwidth_strategy(), 8),
        split in 1usize..8,
        prefill_size in 1usize..5,
    ) {
        let cluster = Cluster::from_groups(
            "prop",
            &[(GpuModel::T4_16G, 1), (GpuModel::A100_40G, 1)],
            Interconnect::Ethernet100G,
            None,
        );
        let spec = llmpq_model::ModelSpec::new(
            llmpq_model::ModelFamily::Opt, "prop-8l", 8, 512, 8, 5000, 1024,
        );
        let mb = MicrobatchPlan {
            prefill_size,
            prefill_count: 8usize.div_ceil(prefill_size),
            decode_size: 4,
            decode_count: 2,
        };
        let stage_bits = vec![bits[..split].to_vec(), bits[split..].to_vec()];
        let plan = ExecutionPlan {
            scheme: "prop".into(),
            ..ExecutionPlan::contiguous(&spec.name, &cluster.name, stage_bits, mb)
        };
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob { global_batch: 8, prompt_len: 64, n_generate: 16 };
        match evaluate_plan(&plan, &cluster, &spec, &db, &job) {
            Ok(r) => {
                prop_assert!(r.total_latency > 0.0);
                prop_assert!(r.throughput > 0.0);
            }
            Err(e) => {
                let msg = format!("{e}");
                prop_assert!(msg.contains("OOM"), "unexpected error: {}", msg);
            }
        }
    }

    /// The threaded pipeline runtime is equivalent to sequential greedy
    /// generation for arbitrary prompts and stage splits.
    #[test]
    fn runtime_equals_sequential(
        seed in 0u64..50,
        split in 1usize..2,
        n_gen in 1usize..5,
        prompt_lens in prop::collection::vec(1usize..6, 1..4),
    ) {
        let checkpoint = RefModel::new(RefConfig::tiny()); // 2 layers
        let bits = vec![Bitwidth::Int8, Bitwidth::Int4];
        let prompts: Vec<Vec<usize>> = prompt_lens
            .iter()
            .enumerate()
            .map(|(i, &l)| (0..l).map(|j| (seed as usize + i * 13 + j * 7) % 96).collect())
            .collect();
        let n_seqs = prompts.len();
        let mb = MicrobatchPlan { prefill_size: 1, prefill_count: n_seqs, decode_size: n_seqs, decode_count: 1 };
        let stage_bits = vec![bits[..split].to_vec(), bits[split..].to_vec()];
        let plan = ExecutionPlan {
            scheme: "prop".into(),
            ..ExecutionPlan::contiguous("tiny", "prop", stage_bits, mb)
        };
        let out = Pipeline::new(&checkpoint, &plan).run(&prompts, n_gen)
            .expect("runtime ok");
        let qm = llmpq_quant::quantize_model(
            &checkpoint,
            &BitAssignment { bits },
            Rounding::Deterministic,
            0,
        );
        for (i, p) in prompts.iter().enumerate() {
            prop_assert_eq!(&out.tokens[i], &qm.generate(p, n_gen, 0.0, 0).tokens);
        }
    }

    /// Plan JSON serialization round-trips for arbitrary valid plans.
    #[test]
    fn plan_json_round_trip(
        bits in prop::collection::vec(bitwidth_strategy(), 1..20),
        device in 0usize..4,
    ) {
        let n = bits.len();
        let plan = ExecutionPlan {
            model: "m".into(),
            cluster: "c".into(),
            stages: vec![StagePlan { device, layer_start: 0, layer_end: n, bits }],
            microbatch: MicrobatchPlan {
                prefill_size: 1,
                prefill_count: 1,
                decode_size: 1,
                decode_count: 1,
            },
            scheme: "s".into(),
            kv_bits: 16,
        };
        let parsed = ExecutionPlan::from_json(&plan.to_json()).unwrap();
        prop_assert_eq!(parsed, plan);
    }
}
