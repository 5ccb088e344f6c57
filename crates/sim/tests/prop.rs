//! Property-based tests for the execution simulator.

use llmpq_cluster::GpuModel;
use llmpq_model::{zoo, PhaseWorkload};
use llmpq_quant::Bitwidth;
use llmpq_sim::{
    layer_latency, measured_peak_memory, simulate_pipeline, KernelEnv, PipelineReport,
    PipelineWorkload, StageLoad,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn any_gpu() -> impl Strategy<Value = GpuModel> {
    prop_oneof![
        Just(GpuModel::P100_12G),
        Just(GpuModel::T4_16G),
        Just(GpuModel::V100_32G),
        Just(GpuModel::A100_40G),
        Just(GpuModel::A800_80G),
    ]
}

fn any_bits() -> impl Strategy<Value = Bitwidth> {
    prop_oneof![
        Just(Bitwidth::Int3),
        Just(Bitwidth::Int4),
        Just(Bitwidth::Int8),
        Just(Bitwidth::Fp16),
    ]
}

/// `simulate_pipeline` with its decode events picked by a linear scan
/// for the earliest `(ready, step, m, pos)`, as it was before the event
/// heap: the reference the heap must match bit for bit.
fn linear_scan_reference(stages: &[StageLoad], w: &PipelineWorkload) -> PipelineReport {
    let n_stages = stages.len();
    let mut stage_free = vec![0.0f64; n_stages];
    let mut stage_busy = vec![0.0f64; n_stages];
    let half_master = w.master_prefill / 2.0;
    let mut prefill_end = 0.0f64;
    let mut master_free = w.prefill_microbatches as f64 * half_master;
    let mut stage_out = vec![0.0f64; w.prefill_microbatches];
    for (m, out) in stage_out.iter_mut().enumerate() {
        let mut t = (m + 1) as f64 * half_master;
        for (s, st) in stages.iter().enumerate() {
            let done = t.max(stage_free[s]) + st.prefill_time;
            stage_free[s] = done;
            stage_busy[s] += st.prefill_time;
            t = done + if s + 1 < n_stages { st.comm_prefill } else { 0.0 };
        }
        *out = t;
    }
    for &out in &stage_out {
        let done = out.max(master_free) + half_master;
        master_free = done;
        prefill_end = prefill_end.max(done);
    }
    let decode_busy_start = stage_busy.clone();
    let mut decode_end = prefill_end;
    if w.n_tokens > 1 {
        for f in &mut stage_free {
            *f = f.max(prefill_end);
        }
        master_free = master_free.max(prefill_end);
        let half_dec = w.master_decode / 2.0;
        // (ready, m, step, pos)
        let mut pending: Vec<(f64, usize, usize, usize)> =
            (0..w.decode_microbatches).map(|m| (prefill_end, m, 1, 0)).collect();
        while !pending.is_empty() {
            let mut best = 0;
            for i in 1..pending.len() {
                let (a, b) = (pending[i], pending[best]);
                if (a.0, a.2, a.1, a.3) < (b.0, b.2, b.1, b.3) {
                    best = i;
                }
            }
            let (ready, m, step, pos) = pending.swap_remove(best);
            let last_pos = n_stages + 1;
            let done = if pos == 0 || pos == last_pos {
                let done = ready.max(master_free) + half_dec;
                master_free = done;
                done
            } else {
                let done = ready.max(stage_free[pos - 1]) + stages[pos - 1].decode_time;
                stage_free[pos - 1] = done;
                stage_busy[pos - 1] += stages[pos - 1].decode_time;
                done
            };
            if pos == last_pos {
                decode_end = decode_end.max(done);
                if step + 1 < w.n_tokens {
                    pending.push((done, m, step + 1, 0));
                }
            } else {
                let comm = if pos >= 1 && pos < n_stages { stages[pos - 1].comm_decode } else { 0.0 };
                pending.push((done + comm, m, step, pos + 1));
            }
        }
    }
    let decode_span = (decode_end - prefill_end).max(f64::MIN_POSITIVE);
    let max_bubble = if w.n_tokens > 1 {
        (0..n_stages)
            .map(|s| 1.0 - (stage_busy[s] - decode_busy_start[s]) / decode_span)
            .fold(0.0f64, f64::max)
    } else {
        0.0
    };
    PipelineReport {
        prefill_latency: prefill_end,
        decode_latency: decode_end - prefill_end,
        total_latency: decode_end,
        stage_busy,
        max_bubble_fraction: max_bubble.clamp(0.0, 1.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The decode event heap pops what a linear scan for the minimum
    /// pops, so the report is the reference's bit for bit — including
    /// loads that make many events ready at once: times drawn from a
    /// few round values (zero comm, equal stage times, a zero-cost
    /// master) and up to 48 decode micro-batches.
    #[test]
    fn event_heap_matches_linear_scan(seed in 0u64..1_000_000, ties in 0usize..2) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let time = |rng: &mut SmallRng, scale: f64| -> f64 {
            if ties == 1 {
                [0.0, 0.5, 1.0][rng.gen_range(0..3usize)] * scale
            } else {
                rng.gen_range(0.0..1.0) * scale
            }
        };
        let stages: Vec<StageLoad> = (0..rng.gen_range(1..=6usize))
            .map(|_| StageLoad {
                prefill_time: time(&mut rng, 1.0),
                decode_time: time(&mut rng, 0.1),
                comm_prefill: time(&mut rng, 0.05),
                comm_decode: time(&mut rng, 0.01),
            })
            .collect();
        let w = PipelineWorkload {
            prefill_microbatches: rng.gen_range(1..=8usize),
            decode_microbatches: rng.gen_range(1..=48usize),
            n_tokens: rng.gen_range(1..=12usize),
            master_prefill: time(&mut rng, 0.2),
            master_decode: time(&mut rng, 0.02),
        };
        let got = simulate_pipeline(&stages, &w);
        let want = linear_scan_reference(&stages, &w);
        let bits = |r: &PipelineReport| {
            let mut v = vec![
                r.prefill_latency.to_bits(),
                r.decode_latency.to_bits(),
                r.total_latency.to_bits(),
                r.max_bubble_fraction.to_bits(),
            ];
            v.extend(r.stage_busy.iter().map(|b| b.to_bits()));
            v
        };
        prop_assert_eq!(bits(&got), bits(&want), "{:?} {:?}", stages, w);
    }

    /// Kernel latency is positive, finite, and monotone in batch size
    /// and prompt length for every device × precision.
    #[test]
    fn kernel_latency_monotone(
        gpu in any_gpu(),
        bits in any_bits(),
        batch in 1usize..32,
        s in 32usize..512,
    ) {
        let dev = gpu.spec();
        let env = KernelEnv::default();
        let spec = zoo::opt_13b();
        let t = layer_latency(&dev, &env, &spec, &PhaseWorkload::prefill(batch, s), bits, 16.0);
        prop_assert!(t.is_finite() && t > 0.0);
        let t_bigger_batch =
            layer_latency(&dev, &env, &spec, &PhaseWorkload::prefill(batch + 1, s), bits, 16.0);
        prop_assert!(t_bigger_batch >= t - 1e-12);
        let t_longer =
            layer_latency(&dev, &env, &spec, &PhaseWorkload::prefill(batch, s + 64), bits, 16.0);
        prop_assert!(t_longer >= t - 1e-12);
    }

    /// Decode latency never decreases with context length.
    #[test]
    fn decode_latency_monotone_in_context(
        gpu in any_gpu(),
        bits in any_bits(),
        past in 16usize..1024,
    ) {
        let dev = gpu.spec();
        let env = KernelEnv::default();
        let spec = zoo::opt_30b();
        let a = layer_latency(&dev, &env, &spec, &PhaseWorkload::decode(8, 512, past), bits, 16.0);
        let b = layer_latency(&dev, &env, &spec, &PhaseWorkload::decode(8, 512, past + 64), bits, 16.0);
        prop_assert!(b >= a - 1e-12);
    }

    /// Pipeline latency is monotone: slowing any stage cannot finish the
    /// batch earlier.
    #[test]
    fn pipeline_monotone_in_stage_time(
        n_stages in 1usize..5,
        victim in 0usize..5,
        pre in 0.1f64..1.0,
        dec in 0.01f64..0.1,
        extra in 0.01f64..1.0,
        mu_p in 1usize..4,
        mu_d in 1usize..4,
    ) {
        let victim = victim % n_stages;
        let base = vec![StageLoad { prefill_time: pre, decode_time: dec, comm_prefill: 0.0, comm_decode: 0.0 }; n_stages];
        let w = PipelineWorkload {
            prefill_microbatches: mu_p,
            decode_microbatches: mu_d,
            n_tokens: 10,
            master_prefill: 0.0,
            master_decode: 0.0,
        };
        let t0 = simulate_pipeline(&base, &w).total_latency;
        let mut slower = base.clone();
        slower[victim].prefill_time += extra;
        slower[victim].decode_time += extra / 10.0;
        let t1 = simulate_pipeline(&slower, &w).total_latency;
        prop_assert!(t1 >= t0 - 1e-9, "slowing stage {victim} sped up: {t0} -> {t1}");
    }

    /// Peak memory is monotone in every workload dimension and in bits.
    #[test]
    fn memory_monotone(
        n_layers in 1usize..12,
        batch in 1usize..32,
        s in 64usize..512,
        n_gen in 10usize..300,
    ) {
        let spec = zoo::opt_13b();
        let bits = vec![Bitwidth::Int4; n_layers];
        let m = measured_peak_memory(&spec, &bits, batch, batch, s, n_gen, 16.0, false);
        prop_assert!(m > 0.0);
        let more_layers = measured_peak_memory(&spec, &vec![Bitwidth::Int4; n_layers + 1], batch, batch, s, n_gen, 16.0, false);
        prop_assert!(more_layers > m);
        let more_batch = measured_peak_memory(&spec, &bits, batch + 1, batch + 1, s, n_gen, 16.0, false);
        prop_assert!(more_batch >= m);
        let higher_bits = measured_peak_memory(&spec, &vec![Bitwidth::Fp16; n_layers], batch, batch, s, n_gen, 16.0, false);
        prop_assert!(higher_bits > m);
        let kv8 = measured_peak_memory(&spec, &bits, batch, batch, s, n_gen, 8.0, false);
        prop_assert!(kv8 <= m);
    }

    /// Stage busy time in the DES exactly equals the scheduled work.
    #[test]
    fn pipeline_busy_accounting(
        n_stages in 1usize..4,
        mu_p in 1usize..4,
        mu_d in 1usize..4,
        n_tokens in 2usize..12,
    ) {
        let stages = vec![StageLoad { prefill_time: 0.7, decode_time: 0.03, comm_prefill: 0.01, comm_decode: 0.002 }; n_stages];
        let w = PipelineWorkload {
            prefill_microbatches: mu_p,
            decode_microbatches: mu_d,
            n_tokens,
            master_prefill: 0.05,
            master_decode: 0.004,
        };
        let r = simulate_pipeline(&stages, &w);
        for s in 0..n_stages {
            let expect = mu_p as f64 * 0.7 + (mu_d * (n_tokens - 1)) as f64 * 0.03;
            prop_assert!((r.stage_busy[s] - expect).abs() < 1e-9);
        }
    }
}
