//! Direct-call probes: per-layer numbers measured by timing calls into
//! single public functions of each layer, plus the two machine ceilings
//! the kernel numbers are read against. They depend on the seed only
//! through the bench model's weights and run in every traced run.

use crate::gen::Rng;
use crate::plan::PlanInputs;
use crate::stats::{median, pctl_any, slope, sorted};
use crate::trace::{Kind, Span, SpanLog, NO_PARENT};
use crate::workloads::{dist_engine, local_engine, ref256x4, Serving, VOCAB};
use llm_pq::{build_problem, device_orderings, IncrementalPlanner};
use llmpq_kernels::{qgemm_t, quantize_packed, PackBits, PackedMatrix, DEFAULT_GROUP};
use llmpq_model::{KvCache, Matrix, Phase, RefConfig, RefModel};
use llmpq_quant::{quantize_model, BitAssignment, Bitwidth, Rounding};
use llmpq_runtime::net::frame::{encode_frame, read_frame};
use llmpq_runtime::net::wire::{work_item_wire_bytes, WireMsg};
use llmpq_runtime::{
    parse_completion, read_request, HttpLimits, KvPoolConfig, PagedKvStore, StepEngine, WorkItem,
};
use llmpq_solver::solve_partition;
use llmpq_workload::microbatch_counts;
use std::hint::black_box;
use std::time::Instant;

/// Named per-layer values, in reporting order.
pub type Values = Vec<(&'static str, f64)>;

/// Median wall seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

fn random_vec(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = Rng::keyed(seed, 21, n as u64);
    (0..n)
        .map(|_| (rng.below(2001) as f32 - 1000.0) / 1000.0)
        .collect()
}

/// STREAM-style triad over 64 MB (three `f64` arrays): best of five
/// passes, counting two reads and one write per element.
fn mem_bw_gbs() -> f64 {
    let n = 64 * 1024 * 1024 / 8 / 3;
    let (b, c) = (vec![1.5f64; n], vec![0.25f64; n]);
    let mut a = vec![0.0f64; n];
    let best = (0..5)
        .map(|pass| {
            let s = pass as f64 + 2.0;
            let t = Instant::now();
            for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
                *x = *y + s * *z;
            }
            black_box(&mut a);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min);
    (3 * 8 * n) as f64 / best / 1e9
}

/// Peak `f32` multiply-add rate of this build's code generation: eight
/// independent 8-lane accumulator rows held in registers, no memory
/// traffic. One core; two flops per lane per step.
fn peak_f32_gflops() -> f64 {
    const ROWS: usize = 8;
    const LANES: usize = 8;
    const STEPS: usize = 4_000_000;
    let mut acc = [[1.0f32; LANES]; ROWS];
    let (mul, add) = (black_box(0.999_999f32), black_box(1e-7f32));
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..STEPS {
                for row in acc.iter_mut() {
                    for v in row.iter_mut() {
                        *v = *v * mul + add;
                    }
                }
            }
            black_box(&mut acc);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min);
    (2 * ROWS * LANES * STEPS) as f64 / best / 1e9
}

/// `(out, in)` shapes of the linear operators one token passes through
/// in one decoder layer of the bench model: q, k, v, o, then the MLP.
const LAYER_GEMMS: [(usize, usize); 6] = [
    (256, 256),
    (256, 256),
    (256, 256),
    (256, 256),
    (1024, 256),
    (256, 1024),
];
const N_LAYERS: usize = 4;
const HIDDEN: usize = 256;
/// KV pool geometry of the model workloads.
const POOL: KvPoolConfig = KvPoolConfig {
    n_blocks: 512,
    block_tokens: 16,
};

enum Weights {
    Dense(Matrix),
    Packed(PackedMatrix),
}

/// The model's per-token GEMM list at one precision (the logits
/// projection stays dense, as in the model).
fn gemm_list(seed: u64, bits: Option<PackBits>) -> Vec<Weights> {
    let mut list = Vec::new();
    for layer in 0..N_LAYERS {
        for (i, &(out, inp)) in LAYER_GEMMS.iter().enumerate() {
            let data = random_vec(seed ^ ((layer * 8 + i) as u64), out * inp);
            list.push(match bits {
                None => Weights::Dense(Matrix::from_vec(out, inp, data)),
                Some(b) => Weights::Packed(quantize_packed(&data, out, inp, b, DEFAULT_GROUP)),
            });
        }
    }
    list.push(Weights::Dense(Matrix::from_vec(
        VOCAB,
        HIDDEN,
        random_vec(seed ^ 99, VOCAB * HIDDEN),
    )));
    list
}

/// Wall seconds per token of replaying `list` at `m` rows.
fn replay_gemms(list: &[Weights], m: usize, reps: usize) -> f64 {
    let inputs: Vec<Matrix> = [256usize, 1024]
        .iter()
        .map(|&k| Matrix::from_vec(m, k, random_vec(k as u64, m * k)))
        .collect();
    let per_pass = time_median(reps, || {
        for w in list {
            match w {
                Weights::Dense(w) => {
                    black_box(inputs[usize::from(w.cols == 1024)].matmul_t(w));
                }
                Weights::Packed(w) => {
                    black_box(qgemm_t(&inputs[usize::from(w.cols == 1024)].data, m, w));
                }
            }
        }
    });
    per_pass / m as f64
}

/// Returns the int4 decode replay's seconds per token.
fn kernels(seed: u64, out: &mut Values) -> f64 {
    let mut decode_int4 = 0.0;
    let mut prefill_int4 = 0.0;
    for (bits, dec_name, pre_name) in [
        (
            None,
            "kernels.decode_gemv_us_per_tok.f32",
            "kernels.prefill_gemm_us_per_tok.f32",
        ),
        (
            Some(PackBits::Int8),
            "kernels.decode_gemv_us_per_tok.int8",
            "kernels.prefill_gemm_us_per_tok.int8",
        ),
        (
            Some(PackBits::Int4),
            "kernels.decode_gemv_us_per_tok.int4",
            "kernels.prefill_gemm_us_per_tok.int4",
        ),
    ] {
        let list = gemm_list(seed, bits);
        let dec = replay_gemms(&list, 1, 15);
        let pre = replay_gemms(&list, 64, 3);
        out.push((dec_name, dec * 1e6));
        out.push((pre_name, pre * 1e6));
        if bits == Some(PackBits::Int4) {
            (decode_int4, prefill_int4) = (dec, pre);
            let bytes: usize = list
                .iter()
                .map(|w| match w {
                    Weights::Dense(w) => w.data.len() * 4,
                    Weights::Packed(w) => w.resident_bytes(),
                })
                .sum();
            out.push(("kernels.weight_bytes_per_tok.int4", bytes as f64));
            out.push(("kernels.decode_eff_gbs.int4", bytes as f64 / dec / 1e9));
        }
    }
    // Computed from the shapes, not measured: two flops per weight.
    let weights: usize =
        N_LAYERS * LAYER_GEMMS.iter().map(|(o, i)| o * i).sum::<usize>() + VOCAB * HIDDEN;
    out.push(("kernels.flops_per_tok", 2.0 * weights as f64));
    out.push((
        "kernels.prefill_gflops.int4",
        2.0 * weights as f64 / prefill_int4 / 1e9,
    ));

    let n = 4096;
    let w = quantize_packed(
        &random_vec(seed ^ 4096, n * n),
        n,
        n,
        PackBits::Int4,
        DEFAULT_GROUP,
    );
    let x = random_vec(7, n);
    out.push((
        "kernels.gemv4096_ms.int4",
        time_median(5, || drop(black_box(qgemm_t(&x, 1, &w)))) * 1e3,
    ));
    decode_int4
}

fn kv_rows(n_layers: usize, rows: usize, seed: u64) -> KvCache {
    let mut cache = KvCache::new(n_layers, HIDDEN);
    for l in 0..n_layers {
        for (m, salt) in [(&mut cache.k[l], 0u64), (&mut cache.v[l], 1)] {
            m.data = random_vec(seed ^ ((l as u64) << 8) ^ salt, rows * HIDDEN);
            m.rows = rows;
        }
    }
    cache
}

/// `PagedKvStore` at the bench model's geometry: gather of a 128- and a
/// 384-token sequence, and the append of one decoded row.
fn kvpool(out: &mut Values) -> Result<(f64, f64), String> {
    let mut store = PagedKvStore::new(POOL, N_LAYERS, HIDDEN);
    let mut gathers = [0.0f64; 2];
    for (slot, (seq, ctx)) in [(1u64, 128usize), (2, 384)].into_iter().enumerate() {
        store.register(seq).map_err(|e| e.to_string())?;
        store
            .append(seq, &kv_rows(N_LAYERS, ctx, seq), 0)
            .map_err(|e| e.to_string())?;
        gathers[slot] = time_median(200, || drop(black_box(store.gather(seq))));
    }
    out.push(("kvpool.gather_us.ctx128", gathers[0] * 1e6));
    out.push(("kvpool.gather_us.ctx384", gathers[1] * 1e6));
    let mut appends = Vec::new();
    for _ in 0..100 {
        let mut cache = store.gather(1).map_err(|e| e.to_string())?;
        let from = cache.len();
        for l in 0..N_LAYERS {
            for m in [&mut cache.k[l], &mut cache.v[l]] {
                m.data.extend(std::iter::repeat_n(0.5f32, HIDDEN));
                m.rows += 1;
            }
        }
        let t = Instant::now();
        store.append(1, &cache, from).map_err(|e| e.to_string())?;
        appends.push(t.elapsed().as_secs_f64());
    }
    let append = median(&appends).unwrap_or(0.0);
    out.push(("kvpool.append_us", append * 1e6));
    Ok((gathers[0], append))
}

/// Seconds of one `decode_one` after an 8-token prefill: the `q`-th
/// quantile of `steps` consecutive steps.
fn decode_step_s(engine: &mut dyn StepEngine, steps: usize, q: f64) -> Result<f64, String> {
    engine.register(0).map_err(|e| e.to_string())?;
    let prompt: Vec<usize> = (1..=8).collect();
    let mut last = engine
        .prefill_chunk(0, &prompt, 0, true)
        .map_err(|e| e.to_string())?
        .ok_or("prefill returned no token")?;
    let mut samples = Vec::with_capacity(steps);
    for k in 0..steps {
        let t = Instant::now();
        last = engine
            .decode_one(0, last, prompt.len() + k)
            .map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64());
    }
    engine.release(0);
    Ok(pctl_any(&sorted(samples), q).unwrap_or(0.0))
}

fn wire_codec_us(rows: usize, phase: Phase) -> (f64, usize) {
    let item = WorkItem {
        step: 1,
        epoch: 0,
        microbatch: 0,
        phase,
        sent_us: 0,
        seqs: vec![(
            0,
            Matrix::from_vec(rows, HIDDEN, random_vec(rows as u64, rows * HIDDEN)),
        )],
    };
    let bytes = work_item_wire_bytes(&item);
    let msg = WireMsg::Work(item);
    let secs = time_median(200, || {
        let frame = encode_frame(&msg.encode());
        let payload = read_frame(&mut frame.as_slice()).expect("a frame just encoded");
        black_box(WireMsg::decode(&payload).expect("a message just encoded"));
    });
    (secs * 1e6, bytes)
}

/// The ring: per-hop cost as the slope of a decode step over 1-, 2- and
/// 4-stage plans of one model, and the wire codec on its own. The model
/// is a 4-layer hidden-32 one, not the bench model: the hand-off between
/// stage threads is tens of microseconds, which the run-to-run noise of
/// a 2.5 ms `ref256x4` step swallows (its slope came out between -24 and
/// +200 µs), while this model's whole step is GEMM-free for practical
/// purposes and the slope is the hop.
fn ring(seed: u64, out: &mut Values) -> Result<(), String> {
    let tiny = RefModel::new(RefConfig {
        n_layers: N_LAYERS,
        hidden: 32,
        n_heads: 4,
        ffn: 64,
        vocab: 64,
        max_seq: 512,
        seed,
        alibi: false,
    });
    let bits = [Bitwidth::Int8; N_LAYERS];
    let stages = [1.0f64, 2.0, 4.0];
    let mut step_us = Vec::new();
    for s in stages {
        let mut engine = dist_engine(&tiny, &bits, s as usize, seed, 2, POOL)?;
        step_us.push(decode_step_s(&mut engine, 400, 0.5)? * 1e6);
    }
    out.push(("ring.hop_us", slope(&stages, &step_us)));
    let (decode_us, decode_bytes) = wire_codec_us(1, Phase::Decode);
    out.push(("ring.wire_codec_us.decode", decode_us));
    out.push((
        "ring.wire_codec_us.prefill64",
        wire_codec_us(64, Phase::Prefill).0,
    ));
    // Computed: a decode token crosses master→stage 0→stage 1→master on
    // the 2-stage `chat_decode` plan, one frame of this size per hop.
    out.push(("ring.wire_bytes_per_tok", (3 * decode_bytes) as f64));
    Ok(())
}

/// `runtime::http`'s parser replayed over the bytes a workload sends.
fn http_parse(w: &Serving, seed: u64) -> f64 {
    let requests: Vec<Vec<u8>> = (0..512)
        .map(|i| w.mix.request(seed, i).http_bytes())
        .collect();
    let limits = HttpLimits::default();
    time_median(5, || {
        for bytes in &requests {
            let req = read_request(&mut bytes.as_slice(), &limits)
                .expect("generated request parses")
                .expect("not EOF");
            black_box(parse_completion(&req.body, VOCAB, 256).expect("generated body is valid"));
        }
    }) / requests.len() as f64
        * 1e6
}

/// `core` / `solver` / `cost` called directly on the `plan_fleet` fleet,
/// and the planner's own counters for one cold-then-warm pair.
fn planner(inp: &PlanInputs, out: &mut Values) -> Result<(), String> {
    let cluster = &inp.fleets[0];
    let ordering = device_orderings(cluster, inp.cfg.max_orderings).swap_remove(0);
    let mb = microbatch_counts(&inp.job, ordering.len(), inp.cfg.xi).swap_remove(0);
    let llm_pq::SolverChoice::Dp { group } = inp.cfg.solver else {
        return Err("plan_fleet plans with the DP solver".into());
    };
    let menu = Bitwidth::ALL;
    let build = || {
        build_problem(
            cluster,
            &ordering,
            &inp.spec,
            &inp.job,
            &inp.db,
            Some(&inp.indicator),
            inp.cfg.theta,
            &mb,
            group,
            &menu,
            true,
            inp.cfg.dp_grid,
            16.0,
        )
    };
    out.push((
        "planner.build_problem_ms",
        time_median(3, || drop(black_box(build()))) * 1e3,
    ));
    let (problem, _, _) = build();
    out.push((
        "planner.partition_solve_ms",
        time_median(3, || drop(black_box(solve_partition(&problem)))) * 1e3,
    ));

    let mut p = IncrementalPlanner::new(inp.spec.clone(), inp.job, inp.cfg);
    p.plan(cluster, &inp.db, &inp.indicator)
        .map_err(|e| e.to_string())?;
    let warm = p
        .plan(&inp.fleets[1], &inp.db, &inp.indicator)
        .map_err(|e| e.to_string())?
        .stats;
    out.push(("planner.dp_calls", warm.dp_calls as f64));
    out.push(("planner.pairs_pruned", warm.pairs_pruned as f64));
    out.push(("planner.seeds_pruned", warm.seeds_pruned as f64));
    out.push(("planner.hints_applied", warm.hints_applied as f64));
    out.push(("planner.cost_cache_hit_rate", warm.cost.hit_rate()));
    out.push(("planner.eval_cache_hit_rate", warm.eval.hit_rate()));
    Ok(())
}

/// Seconds one span costs its recorder (two clock reads and a push).
pub fn span_cost_s() -> f64 {
    const N: usize = 200_000;
    let log = SpanLog::new(N);
    let t = Instant::now();
    for i in 0..N {
        let start_ns = log.now_ns();
        let end_ns = log.now_ns();
        log.record(Span {
            kind: Kind::Decode,
            start_ns,
            end_ns,
            parent: NO_PARENT,
            req: i as u64,
            arg: 0,
        });
    }
    t.elapsed().as_secs_f64() / N as f64
}

/// Every direct-call probe. `http_for` is the workload whose request
/// bytes the HTTP parser replays (the traced one when it speaks HTTP).
pub fn run_all(seed: u64, http_for: &Serving, plan: &PlanInputs) -> Result<Values, String> {
    let mut out = Values::new();
    out.push(("probe.mem_bw_gbs", mem_bw_gbs()));
    out.push(("probe.peak_f32_gflops", peak_f32_gflops()));
    let gemm = kernels(seed, &mut out);
    let (gather128, append) = kvpool(&mut out)?;

    let checkpoint = RefModel::new(ref256x4(seed));
    ring(seed, &mut out)?;
    out.push(("http.parse_us_per_req", http_parse(http_for, seed)));

    let int4 = BitAssignment::uniform(N_LAYERS, Bitwidth::Int4);
    let t = Instant::now();
    black_box(quantize_model(
        &checkpoint,
        &int4,
        Rounding::Deterministic,
        seed,
    ));
    out.push(("model.quantize_s", t.elapsed().as_secs_f64()));
    // What a local int4 decode step at context ≤ 64 spends outside the
    // GEMMs and the KV pool: attention, norms, embedding, sampling. The
    // gather is scaled from its 128-token timing to the ~32 tokens held.
    let mut local = local_engine(&checkpoint, seed, POOL)?;
    let step = decode_step_s(&mut local, 48, 0.5)?;
    out.push((
        "model.nongemm_us_per_tok.decode",
        (step - gemm - gather128 * 32.0 / 128.0 - append) * 1e6,
    ));
    planner(plan, &mut out)?;
    Ok(out)
}
