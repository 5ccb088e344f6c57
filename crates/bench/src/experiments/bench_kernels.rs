//! Kernel-level throughput of the packed dequant-GEMM subsystem.
//!
//! Measures, on the host CPU, what Fig 5 measures on GPUs: sustained
//! weight throughput of the serving GEMM at each precision, for both
//! phases (prefill `m>1`, decode `m=1`), plus the dequantize-then-f32
//! baseline the fused kernel must beat. Decode is judged in
//! **effective FP16-equivalent GB/s** — `(n·k·2 bytes) / time` — so a
//! kernel that moves fewer physical bytes per weight shows up as a
//! higher effective rate, exactly the quantity the planner's roofline
//! tables model, and against the box: `roofline_frac` is the bytes the
//! kernel actually streams (payload + scales + zeros, or `4·n·k` dense)
//! over its time, as a fraction of a STREAM-style triad taken in the
//! same run. Prefill is compute-bound and judged in **GFLOP/s**
//! (`2·m·n·k / time`); the prefill shape is run at `m = 1`, the phase's
//! usual `m`, and `m = 64` (one serving chunk), so the table shows how
//! far staging each weight tile once per row block amortises. A third
//! table replays the `ref256x4` serving model's per-token GEMM list at
//! `m = 1`, `2` and `3` — the shapes a decode step actually runs (one
//! sequence, or a few stacked; also every prefill tail block),
//! L2-resident, with the time per weight beside each, and the dense
//! 512 × 256 logits projection alone at `m = 1` from the row-major table
//! and from the k-major copy a serving head keeps. A
//! fourth times the other half of that model's layer at int4: GELU per
//! element, the attention kernel alone, and the whole layer forward next
//! to its own six GEMM calls (`layer_over_gemm`, a quotient of two
//! timings from one run) at a prefill chunk on an empty and on a 64-token
//! cache and at a decode step on 50 and 150 cached positions.
//!
//! Those four tables are taken once per kernel instantiation the host can
//! run — baseline, AVX2, AVX-512 — each under
//! `llmpq_kernels::dispatch::with_cap`, and the report holds one section
//! per instantiation (`"sections"`, narrowest first; `"isa"` names the
//! widest, `llmpq_kernels::isa()`, which is what serving runs — there is
//! no way to select one outside this bench).
//!
//! Also emits end-to-end tokens/s through the reference model at each
//! precision ladder rung, the solver's wall-clock overhead (the other
//! latency the serving path pays), and a [`kernel_crosscheck`] row per
//! quantized precision comparing the measured decode speedup over FP16
//! with the speedup the simulator's `KernelEnv` roofline predicts for a
//! modeled device.
//!
//! Flags of `run_all bench_kernels`: `--quick` (fewer repetitions,
//! CI-friendly), `--check-ordering` (assert fused beats
//! dequant-then-GEMM, fused int8 and int4 each run the 4096² decode at
//! least [`MIN_DECODE_SPEEDUP_VECTOR`]× faster than dense f32 and int4 at least [`MIN_INT4_OVER_INT8_VECTOR`]× as fast as
//! int8, and a fused `m = 64` prefill row costs at most
//! [`MAX_PREFILL_AMORTISATION`] of the `m = 1` call at the same shape, in
//! every section a vector instantiation ran — AVX2 or AVX-512 — and the
//! layer forward of both prefill shapes costs at most
//! [`MAX_LAYER_OVER_GEMM`] of its GEMMs in every section),
//! `--compare FILE` (fail if any of those ratios is more than 10 %
//! worse than in the same ISA's section of the report at `FILE`, or if
//! that report has no such section),
//! `--out FILE` (default `BENCH_kernels.json`).

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::{assign, SolverChoice};
use llmpq_cluster::GpuModel;
use llmpq_cost::{kernel_crosscheck, CostDb, KernelCrosscheck, KernelObservation};
use llmpq_kernels::dispatch::with_cap;
use llmpq_kernels::{qgemm_t, DensePanels, Isa, PackedMatrix};
use serde::Deserialize;
use llmpq_model::{forward_layer_with, KvCache, Matrix, PhaseWorkload, RefConfig, RefModel};
use llmpq_quant::{quantize_matrix, quantize_model_uniform, Bitwidth, Rounding};
use llmpq_sim::KernelEnv;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize)]
struct GemmRow {
    phase: &'static str,
    kernel: String,
    m: usize,
    n: usize,
    k: usize,
    ms: f64,
    /// FP16-equivalent weight throughput: `n·k·2 bytes / time`.
    effective_gbs: f64,
    /// Arithmetic rate: `2·m·n·k / time`.
    gflops: f64,
    /// Decode rows: resident weight bytes ÷ time ÷ the triad probe.
    roofline_frac: Option<f64>,
}

/// One pass over the `ref256x4` model's per-token GEMM list with `m`
/// activation rows.
#[derive(Serialize)]
struct ListRow {
    kernel: String,
    m: usize,
    us_per_call: f64,
    /// Time per call over the weights the pass touches.
    ns_per_weight: f64,
    /// Weight bytes the pass streams (the logits projection stays dense).
    weight_bytes: usize,
    roofline_frac: f64,
}

/// The `ref256x4` logits projection (dense, 512 × 256) alone.
#[derive(Serialize)]
struct HeadRow {
    /// `"row-major"` (`Matrix::matmul_t`, a transposing fill) or
    /// `"panel-copy"` (`DensePanels`, what a serving `ModelHead` runs).
    form: &'static str,
    m: usize,
    us_per_call: f64,
}

/// The attention kernel alone at `ref256x4` geometry (4 heads × 64).
#[derive(Serialize)]
struct AttentionRow {
    m: usize,
    past: usize,
    attention_us: f64,
}

/// One int4 `ref256x4` layer forward of `m` rows on `past` cached
/// positions, beside its own six GEMM calls.
#[derive(Serialize, Deserialize)]
struct LayerRow {
    m: usize,
    past: usize,
    layer_us: f64,
    gemm_us: f64,
    /// `layer_us / gemm_us`: 1 would be a layer that is only its GEMMs.
    layer_over_gemm: f64,
}

#[derive(Serialize)]
struct TokensRow {
    bits: String,
    prefill_tok_s: f64,
    decode_tok_s: f64,
}

#[derive(Serialize)]
struct SolverRow {
    cluster: usize,
    solver: String,
    overhead_s: f64,
    throughput_tok_s: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    quick: bool,
    /// The widest kernel instantiation the host has — what serving runs:
    /// `"avx512"`, `"avx2"` or `"baseline"`.
    isa: &'static str,
    /// STREAM-style triad over 64 MB, the `roofline_frac` denominator.
    mem_bw_gbs: f64,
    /// One per instantiation the host can run, narrowest first.
    sections: Vec<Section>,
    /// End to end through the reference model, widest instantiation.
    tokens: Vec<TokensRow>,
    solver: SolverRow,
    /// Measured decode speedups (widest instantiation) vs the roofline
    /// prediction on a modeled device (scale-free ratio comparison).
    crosscheck_device: String,
    crosscheck: Vec<KernelCrosscheck>,
}

/// The kernel tables under one instantiation.
#[derive(Serialize)]
struct Section {
    isa: &'static str,
    gemm: Vec<GemmRow>,
    decode_list: Vec<ListRow>,
    head: Vec<HeadRow>,
    /// GELU over one prefill chunk's FFN activations (64 × 1024).
    gelu_ns_per_elem: f64,
    attention: Vec<AttentionRow>,
    /// Prefill rows (`m = 64`) are gated at ≤ [`MAX_LAYER_OVER_GEMM`].
    layer: Vec<LayerRow>,
    fused_beats_dequant_decode: bool,
    /// Dense-f32 time over fused time at the 4096² decode, per
    /// precision; in a vector instantiation the gate is ≥
    /// [`MIN_DECODE_SPEEDUP_VECTOR`].
    decode_speedup_vs_f32: Vec<(String, f64)>,
    /// Fused-int8 time over fused-int4 time at the 4096² decode: int4
    /// streams half the bytes, and both precisions spend about one
    /// instruction per weight converting and accumulating it in
    /// registers. In a vector instantiation the gate is ≥
    /// [`MIN_INT4_OVER_INT8_VECTOR`].
    int4_over_int8_decode: f64,
    /// Fused `m = 64` time per row over fused `m = 1` time at the
    /// prefill shape, per precision; in a vector instantiation the gate
    /// is ≤ [`MAX_PREFILL_AMORTISATION`].
    prefill_amortisation: Vec<(String, f64)>,
}

/// The part of a committed report `--compare` reads.
#[derive(Deserialize)]
struct Committed {
    sections: Vec<CommittedSection>,
}

#[derive(Deserialize)]
struct CommittedSection {
    isa: String,
    decode_speedup_vs_f32: Vec<(String, f64)>,
    prefill_amortisation: Vec<(String, f64)>,
    layer: Vec<LayerRow>,
}

/// In a vector instantiation (AVX2, AVX-512), fused int8 / int4 must run
/// the 4096² decode this much faster than dense f32 (measured 3.5–5.6×
/// under AVX2 and 4.5–6× under AVX-512 since the decode body converts
/// and accumulates in registers, the upper end on a host short of memory
/// bandwidth, which slows the 64 MB dense call alone; 2.3–2.9× while it
/// staged its tiles). On the baseline ISA the ratio is reported, not
/// gated: SSE2 has no byte→dword widen, and there packing buys footprint
/// more than time.
const MIN_DECODE_SPEEDUP_VECTOR: f64 = 2.5;

/// In a vector instantiation, fused int4 must run the 4096² decode at
/// least this fast relative to fused int8 — the inversion guard: a 4-bit
/// kernel slower than the 8-bit one inverts the ordering the planner's
/// cost model assumes (measured 1.0–1.4×; 0.88–0.90× under AVX2 while the
/// 16-lane decode body converted a whole nibble load before accumulating
/// any of it, 0.91–0.97× while nibbles took a second pass through a byte
/// scratch).
const MIN_INT4_OVER_INT8_VECTOR: f64 = 0.95;

/// Upper bar on "one row of an `m = 64` call ÷ the `m = 1` call" at one
/// shape. The `m = 1` call is the denominator, so the quotient rises when
/// decode gets cheaper: 0.17 when the fill was scalar, 0.26–0.32 with the
/// whole-vector fill, 0.26–0.52 (0.28–0.54 under AVX-512) now that an
/// `m = 1` call converts in registers (≈ 0.12 ns per weight at 1024²
/// under AVX2, against ≈ 0.04 for one row
/// of the blocked sweep plus 1/64 of a ≈ 0.07 ns fill; the top of the
/// range is a busy host slowing the compute-bound `m = 64` call more
/// than the `m = 1` one). Paying the conversion per row would put the
/// numerator at about the decode body's own cost, a quotient of 0.9–1.
/// The bar sits between (it was 0.5 while decode staged its tiles). It
/// holds in the vector instantiations only: in the baseline of a stock
/// `x86_64` build every fused multiply-add is a call to libm's `fmaf`,
/// which costs an `m = 64` row what it costs the `m = 1` call, and the
/// quotient reads 0.8–0.95.
const MAX_PREFILL_AMORTISATION: f64 = 0.65;

/// Upper bar on an int4 `ref256x4` prefill layer forward over its own six
/// GEMM calls. With scalar libm GELU / softmax and one dependent add
/// chain per attention score the quotient was 1.84 on an empty cache and
/// 2.1–2.2 on a 64-token one; as whole-vector kernels the rest of the
/// layer costs 0.15–0.3 of the GEMMs.
const MAX_LAYER_OVER_GEMM: f64 = 1.5;

/// A labeled closure the interleaved timer can re-run.
type TimedKernel<'a> = (String, Box<dyn FnMut() + 'a>);

/// Interleaved best-of timer for a *set* of kernels: every round times
/// one batch of each kernel back-to-back, so slow drift on a shared
/// machine (noisy neighbors, frequency steps) hits all kernels alike
/// instead of whichever was measured last. Returns best per-call
/// seconds per kernel, in input order.
fn time_interleaved(iters: usize, rounds: usize, kernels: &mut [TimedKernel<'_>]) -> Vec<f64> {
    for (_, f) in kernels.iter_mut() {
        f();
    }
    let mut best = vec![f64::INFINITY; kernels.len()];
    for _ in 0..rounds {
        for (i, (_, f)) in kernels.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            best[i] = best[i].min(t0.elapsed().as_secs_f64() / iters as f64);
        }
    }
    best
}

fn pack(w: &Matrix, bits: Bitwidth) -> PackedMatrix {
    quantize_matrix(w, bits, Rounding::Deterministic, 3)
        .to_packed(llmpq_kernels::DEFAULT_GROUP)
}

/// Rows of one serving prefill chunk.
const CHUNK_M: usize = 64;

fn gemm_suite(quick: bool, mem_bw_gbs: f64, rows: &mut Vec<GemmRow>) {
    // Decode is the memory-bound phase: m = 1, square weight sized to
    // spill L2 in both modes so the run measures sustained traffic (the
    // L2-resident case is the `ref256x4` list). The prefill shape is
    // the same in both modes too, so that `--compare` sets a quick
    // run's ratios against a full run's.
    let (dec_nk, pre_nk, pre_m) = (4096, 1024, if quick { 16 } else { 32 });
    let (iters, rounds) = if quick { (2, 5) } else { (4, 5) };

    for (phase, m, nk) in [
        ("decode", 1usize, dec_nk),
        ("prefill", 1, pre_nk),
        ("prefill", pre_m, pre_nk),
        ("prefill", CHUNK_M, pre_nk),
    ] {
        let w = Matrix::random(nk, nk, 0.2, 5);
        let x = Matrix::random(m, nk, 0.5, 9);
        let packs: Vec<(Bitwidth, PackedMatrix)> = [Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int3]
            .iter()
            .map(|&b| (b, pack(&w, b)))
            .collect();

        let (xr, wr) = (&x, &w);
        let mut kernels: Vec<TimedKernel<'_>> = Vec::new();
        kernels.push((
            "dense-f32".into(),
            Box::new(move || {
                black_box(xr.matmul_t(black_box(wr)));
            }),
        ));
        for (bits, p) in &packs {
            kernels.push((
                format!("fused-{bits}"),
                Box::new(move || {
                    black_box(qgemm_t(black_box(&xr.data), m, black_box(p)));
                }),
            ));
        }
        // The baseline the fused kernel exists to beat: expand the packed
        // weight to f32, then run the dense GEMM — what serving would pay
        // per step without a fused kernel.
        for (bits, p) in packs.iter().filter(|(b, _)| *b != Bitwidth::Int3) {
            kernels.push((
                format!("dequant-then-f32-{bits}"),
                Box::new(move || {
                    let dense = Matrix { rows: p.rows, cols: p.cols, data: p.unpack() };
                    black_box(xr.matmul_t(black_box(&dense)));
                }),
            ));
        }

        let times = time_interleaved(iters, rounds, &mut kernels);
        let eq_bytes = (nk * nk * 2) as f64;
        let resident = |kernel: &str| match packs.iter().find(|(b, _)| kernel == format!("fused-{b}")) {
            Some((_, p)) => Some(p.resident_bytes()),
            None if kernel == "dense-f32" => Some(nk * nk * 4),
            None => None,
        };
        for ((kernel, _), s) in kernels.iter().zip(&times) {
            let roofline_frac = resident(kernel)
                .filter(|_| phase == "decode")
                .map(|bytes| bytes as f64 / s / 1e9 / mem_bw_gbs);
            rows.push(GemmRow {
                phase,
                kernel: kernel.clone(),
                m,
                n: nk,
                k: nk,
                ms: s * 1e3,
                effective_gbs: eq_bytes / s / 1e9,
                gflops: (2 * m * nk * nk) as f64 / s / 1e9,
                roofline_frac,
            });
        }
    }
}

/// STREAM-style triad over 64 MB (three `f64` arrays): best of five
/// passes, two reads and one write per element — the same probe
/// `benchmark/` reports as `probe.mem_bw_gbs`.
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

/// Activation rows of the `ref256x4` GEMM list: one decoding sequence,
/// and the two short blocks a stacked decode or a prefill tail adds.
const LIST_M: [usize; 3] = [1, 2, 3];

/// The `ref256x4` serving model's per-token GEMM list (hidden 256, FFN
/// 1024, four layers, a dense 512-row logits projection) replayed at
/// each of [`LIST_M`]: what one decode step spends in the kernel, at
/// shapes that sit in L2 rather than stream from memory. The logits
/// projection runs from the k-major copy a serving `ModelHead` keeps, and
/// is timed alone from both forms.
fn decode_list_suite(quick: bool, mem_bw_gbs: f64) -> (Vec<ListRow>, Vec<HeadRow>) {
    const LAYER: [(usize, usize); 6] = [(256, 256), (256, 256), (256, 256), (256, 256), (1024, 256), (256, 1024)];
    let dense: Vec<Matrix> = (0..4 * LAYER.len())
        .map(|i| {
            let (out, inp) = LAYER[i % LAYER.len()];
            Matrix::random(out, inp, 0.2, 40 + i as u64)
        })
        .collect();
    let head = Matrix::random(512, 256, 0.2, 39);
    let head_copy = DensePanels::new(&head.data, head.rows, head.cols);
    let inputs: Vec<[Matrix; 2]> =
        LIST_M.iter().map(|&m| [Matrix::random(m, 256, 0.5, 9), Matrix::random(m, 1024, 0.5, 10)]).collect();
    let packed: Vec<(Bitwidth, Vec<PackedMatrix>)> = [Bitwidth::Int8, Bitwidth::Int4]
        .iter()
        .map(|&b| (b, dense.iter().map(|w| pack(w, b)).collect()))
        .collect();

    let (dense, head, head_copy) = (&dense, &head, &head_copy);
    let weights = dense.iter().chain([head]).map(|w| w.data.len()).sum::<usize>();
    let mut kernels: Vec<TimedKernel<'_>> = Vec::new();
    // Per kernel: its `m` and the weight bytes of the 24 layer GEMMs.
    let mut shape = Vec::new();
    for (&m, inputs) in LIST_M.iter().zip(&inputs) {
        let input = move |cols: usize| &inputs[usize::from(cols == 1024)];
        shape.push((m, dense.iter().map(|w| w.data.len() * 4).sum::<usize>()));
        kernels.push((
            "dense-f32".into(),
            Box::new(move || {
                for w in dense {
                    black_box(input(w.cols).matmul_t(black_box(w)));
                }
                black_box(head_copy.gemm_t(&input(head.cols).data, m));
            }),
        ));
        for (bits, list) in &packed {
            shape.push((m, list.iter().map(PackedMatrix::resident_bytes).sum()));
            kernels.push((
                format!("fused-{bits}"),
                Box::new(move || {
                    for w in list {
                        black_box(qgemm_t(black_box(&input(w.cols).data), m, black_box(w)));
                    }
                    black_box(head_copy.gemm_t(&input(head.cols).data, m));
                }),
            ));
        }
    }
    let (iters, rounds) = if quick { (20, 5) } else { (50, 9) };
    let times = time_interleaved(iters, rounds, &mut kernels);
    let x1 = &inputs[0][0];
    let mut head_kernels: Vec<TimedKernel<'_>> = vec![
        ("row-major".into(), Box::new(|| drop(black_box(x1.matmul_t(black_box(head)))))),
        ("panel-copy".into(), Box::new(|| drop(black_box(head_copy.gemm_t(black_box(&x1.data), 1))))),
    ];
    let head_rows = ["row-major", "panel-copy"]
        .into_iter()
        .zip(time_interleaved(4 * iters, rounds, &mut head_kernels))
        .map(|(form, s)| HeadRow { form, m: 1, us_per_call: s * 1e6 })
        .collect();
    let list = kernels
        .iter()
        .zip(&times)
        .zip(&shape)
        .map(|(((kernel, _), s), &(m, list_bytes))| {
            let weight_bytes = list_bytes + head.data.len() * 4;
            ListRow {
                kernel: kernel.clone(),
                m,
                us_per_call: s * 1e6,
                ns_per_weight: s * 1e9 / weights as f64,
                weight_bytes,
                roofline_frac: weight_bytes as f64 / s / 1e9 / mem_bw_gbs,
            }
        })
        .collect();
    (list, head_rows)
}

/// The non-GEMM half of an int4 `ref256x4` layer: GELU, attention, and
/// the layer forward beside its GEMMs.
fn layer_suite(quick: bool) -> (f64, Vec<AttentionRow>, Vec<LayerRow>) {
    const SHAPES: [(usize, usize); 4] = [(CHUNK_M, 0), (CHUNK_M, 64), (1, 50), (1, 150)];
    let cfg =
        RefConfig { n_layers: 1, hidden: 256, n_heads: 4, ffn: 1024, vocab: 512, max_seq: 512, seed: 11, alibi: false };
    let model = quantize_model_uniform(&RefModel::new(cfg), Bitwidth::Int4, Rounding::Deterministic, 0);
    let w = &model.layers[0];
    let rounds = if quick { 5 } else { 15 };

    let mut act = Matrix::random(CHUNK_M, cfg.ffn, 2.0, 3);
    let fresh = act.clone();
    let mut gelu: Vec<TimedKernel<'_>> = vec![(
        "gelu".into(),
        Box::new(|| {
            act.data.copy_from_slice(&fresh.data);
            llmpq_model::tensor::gelu(black_box(&mut act));
        }),
    )];
    let mut copy_only = fresh.clone();
    let mut copy: Vec<TimedKernel<'_>> = vec![(
        "copy".into(),
        Box::new(|| {
            copy_only.data.copy_from_slice(&fresh.data);
            black_box(&mut copy_only);
        }),
    )];
    let gelu_s = time_interleaved(20, rounds, &mut gelu)[0] - time_interleaved(20, rounds, &mut copy)[0];
    let gelu_ns_per_elem = gelu_s * 1e9 / (CHUNK_M * cfg.ffn) as f64;

    let attention = [(CHUNK_M, 64), (1, 128)]
        .into_iter()
        .map(|(m, past)| {
            let (q, k, v) = (
                Matrix::random(m, cfg.hidden, 1.0, 5),
                Matrix::random(past + m, cfg.hidden, 1.0, 6),
                Matrix::random(past + m, cfg.hidden, 1.0, 7),
            );
            let mut out = vec![0.0f32; m * cfg.hidden];
            let mut kernel: Vec<TimedKernel<'_>> = vec![(
                "attention".into(),
                Box::new(|| {
                    llmpq_kernels::attention(
                        black_box(&q.data),
                        m,
                        cfg.hidden,
                        past,
                        &[0.0; 4],
                        |j| k.row(j),
                        |j| v.row(j),
                        &mut out,
                    );
                    black_box(&mut out);
                }),
            )];
            let iters = if m == 1 { 200 } else { 10 };
            AttentionRow { m, past, attention_us: time_interleaved(iters, rounds, &mut kernel)[0] * 1e6 }
        })
        .collect();

    let layer = SHAPES
        .into_iter()
        .map(|(m, past)| {
            let x = Matrix::random(m, cfg.hidden, 1.0, 21);
            let mid = Matrix::random(m, cfg.ffn, 1.0, 22);
            // A cache holding `past` positions, cut back after each call.
            let mut cache = KvCache::new(1, cfg.hidden);
            forward_layer_with(w, cfg.n_heads, 0, &Matrix::random(past, cfg.hidden, 1.0, 23), &mut cache);
            let (xr, midr) = (&x, &mid);
            let mut kernels: Vec<TimedKernel<'_>> = vec![
                (
                    "layer".into(),
                    Box::new(move || {
                        black_box(forward_layer_with(w, cfg.n_heads, 0, black_box(xr), &mut cache));
                        for kv in [&mut cache.k[0], &mut cache.v[0]] {
                            kv.data.truncate(past * cfg.hidden);
                            kv.rows = past;
                        }
                    }),
                ),
                (
                    "gemms".into(),
                    Box::new(move || {
                        for op in [&w.wq, &w.wk, &w.wv, &w.wo, &w.w1] {
                            black_box(op.forward_t(black_box(xr)));
                        }
                        black_box(w.w2.forward_t(black_box(midr)));
                    }),
                ),
            ];
            let iters = if m == 1 { 100 } else { 5 };
            let s = time_interleaved(iters, rounds, &mut kernels);
            LayerRow { m, past, layer_us: s[0] * 1e6, gemm_us: s[1] * 1e6, layer_over_gemm: s[0] / s[1] }
        })
        .collect();
    (gelu_ns_per_elem, attention, layer)
}

fn tokens_suite(quick: bool) -> Vec<TokensRow> {
    let cfg = RefConfig {
        n_layers: 4,
        hidden: if quick { 128 } else { 256 },
        n_heads: 4,
        ffn: if quick { 512 } else { 1024 },
        vocab: 256,
        max_seq: 128,
        seed: 11,
        alibi: false,
    };
    let base = RefModel::new(cfg);
    let prompt: Vec<usize> = (0..48).map(|i| 1 + (i * 7) % 251).collect();
    let n_new = if quick { 16 } else { 32 };
    let all_bits = [Bitwidth::Fp16, Bitwidth::Int8, Bitwidth::Int4];
    let models: Vec<RefModel> = all_bits
        .iter()
        .map(|&bits| {
            if bits == Bitwidth::Fp16 {
                base.clone()
            } else {
                quantize_model_uniform(&base, bits, Rounding::Deterministic, 0)
            }
        })
        .collect();
    // Interleave precisions round-robin (like the GEMM suite) so host
    // drift hits every bitwidth alike instead of skewing whichever model
    // happened to run during a noisy window.
    let mut pre_kernels: Vec<TimedKernel<'_>> = Vec::new();
    let mut gen_kernels: Vec<TimedKernel<'_>> = Vec::new();
    for (bits, model) in all_bits.iter().zip(&models) {
        let p = &prompt;
        pre_kernels.push((
            format!("prefill-{bits}"),
            Box::new(move || {
                black_box(model.prefill(black_box(p)));
            }),
        ));
        gen_kernels.push((
            format!("generate-{bits}"),
            Box::new(move || {
                black_box(model.generate(black_box(&p[..8]), n_new, 0.0, 1));
            }),
        ));
    }
    let s_pre = time_interleaved(2, 3, &mut pre_kernels);
    let s_gen = time_interleaved(2, 3, &mut gen_kernels);
    // generate() = prefill over 8 tokens + n_new decode steps; the
    // prompt is short so the decode steps dominate.
    all_bits
        .iter()
        .enumerate()
        .map(|(i, bits)| TokensRow {
            bits: bits.to_string(),
            prefill_tok_s: prompt.len() as f64 / s_pre[i],
            decode_tok_s: n_new as f64 / s_gen[i],
        })
        .collect()
}

fn solver_suite() -> SolverRow {
    let db = CostDb::oracle(&KernelEnv::default());
    let mut setup = ServingSetup::paper(3);
    setup.cfg.solver = SolverChoice::Dp { group: 2 };
    let indicator = zoo_indicator(&setup.spec);
    let out = assign(&setup.cluster, &setup.spec, &setup.job, &db, &indicator, &setup.cfg)
        .expect("paper cluster 3 must be solvable");
    SolverRow {
        cluster: 3,
        solver: "Dp{group=2}".into(),
        overhead_s: out.overhead_s,
        throughput_tok_s: out.report.throughput,
    }
}

/// The kernel tables with every kernel entry held to `isa`, printed as
/// they are taken.
fn section(out: &mut Out, isa: Isa, quick: bool, mem_bw_gbs: f64) -> Section {
    say!(out, "== kernel isa: {} ==\n", isa.name());
    let mut gemm = Vec::new();
    gemm_suite(quick, mem_bw_gbs, &mut gemm);

    let mut t = TextTable::new(&["phase", "kernel", "m", "n=k", "ms", "eff GB/s (fp16-eq)", "GFLOP/s", "roofline"]);
    for r in &gemm {
        t.row(vec![
            r.phase.into(),
            r.kernel.clone(),
            r.m.to_string(),
            r.n.to_string(),
            format!("{:.3}", r.ms),
            format!("{:.2}", r.effective_gbs),
            format!("{:.2}", r.gflops),
            r.roofline_frac.map_or("-".into(), |f| format!("{f:.2}")),
        ]);
    }
    out.table(&t);

    let (decode_list, head) = decode_list_suite(quick, mem_bw_gbs);
    let mut t = TextTable::new(&["ref256x4 GEMM list", "m", "us/call", "ns/weight", "weight KB", "roofline"]);
    for r in &decode_list {
        t.row(vec![
            r.kernel.clone(),
            r.m.to_string(),
            format!("{:.1}", r.us_per_call),
            format!("{:.3}", r.ns_per_weight),
            format!("{:.0}", r.weight_bytes as f64 / 1024.0),
            format!("{:.2}", r.roofline_frac),
        ]);
    }
    out.table(&t);
    for r in &head {
        say!(out, "logits projection (512 x 256, dense), m = {}, {}: {:.1} us", r.m, r.form, r.us_per_call);
    }

    let (gelu_ns_per_elem, attention, layer) = layer_suite(quick);
    say!(out, "ref256x4 int4 layer, beyond its GEMMs: GELU {gelu_ns_per_elem:.2} ns/element");
    for r in &attention {
        say!(out, "attention (4 heads x 64), m = {}, past = {}: {:.1} us", r.m, r.past, r.attention_us);
    }
    let mut t = TextTable::new(&["layer forward, m", "past", "layer us", "six GEMMs us", "layer / GEMMs"]);
    for r in &layer {
        t.row(vec![
            r.m.to_string(),
            r.past.to_string(),
            format!("{:.1}", r.layer_us),
            format!("{:.1}", r.gemm_us),
            format!("{:.2}", r.layer_over_gemm),
        ]);
    }
    out.table(&t);

    let decode_ms = |kernel: &str| {
        gemm.iter()
            .find(|r| r.phase == "decode" && r.kernel == kernel)
            .map(|r| r.ms)
            .expect("decode row present")
    };
    let fused_beats_dequant = [Bitwidth::Int8, Bitwidth::Int4]
        .iter()
        .all(|&b| decode_ms(&format!("fused-{b}")) < decode_ms(&format!("dequant-then-f32-{b}")));
    let decode_speedup_vs_f32: Vec<(String, f64)> = [Bitwidth::Int8, Bitwidth::Int4]
        .iter()
        .map(|b| {
            let kernel = format!("fused-{b}");
            let speedup = decode_ms("dense-f32") / decode_ms(&kernel);
            (kernel, speedup)
        })
        .collect();
    let int4_over_int8_decode = decode_ms("fused-int8") / decode_ms("fused-int4");
    say!(out,
        "fused {} dequant-then-f32 in decode; 4096² decode vs dense f32: {}; int4 runs at {:.2}x int8 ({})",
        if fused_beats_dequant { "beats" } else { "DOES NOT beat" },
        decode_speedup_vs_f32.iter().map(|(k, s)| format!("{k} {s:.2}x")).collect::<Vec<_>>().join(", "),
        int4_over_int8_decode,
        if int4_over_int8_decode >= 1.05 {
            "ahead: the halved bytes are the cost at this size"
        } else if int4_over_int8_decode >= MIN_INT4_OVER_INT8_VECTOR {
            "level: both spend about one instruction per weight, and the halved bytes do not pay yet"
        } else {
            "BEHIND, although it streams half the bytes"
        },
    );
    // A ratio of two timings of one kernel on one machine, so it holds
    // wherever the weight tile is staged once per row block and fails
    // (ratio ≈ 1) wherever it is staged once per row.
    let prefill_ms = |kernel: &str, m: usize| {
        gemm.iter()
            .find(|r| r.phase == "prefill" && r.kernel == kernel && r.m == m)
            .map(|r| r.ms)
            .expect("prefill row present")
    };
    let prefill_amortisation: Vec<(String, f64)> = [Bitwidth::Int8, Bitwidth::Int4]
        .iter()
        .map(|b| {
            let kernel = format!("fused-{b}");
            let ratio = prefill_ms(&kernel, CHUNK_M) / CHUNK_M as f64 / prefill_ms(&kernel, 1);
            say!(out, "{kernel}: one row of an m = {CHUNK_M} prefill costs {ratio:.2} of an m = 1 call");
            (kernel, ratio)
        })
        .collect();
    say!(out);
    Section {
        isa: isa.name(),
        gemm,
        decode_list,
        head,
        gelu_ns_per_elem,
        attention,
        layer,
        fused_beats_dequant_decode: fused_beats_dequant,
        decode_speedup_vs_f32,
        int4_over_int8_decode,
        prefill_amortisation,
    }
}

/// `--check-ordering` on one section. The decode and prefill
/// amortisation gates apply wherever a vector instantiation ran,
/// whichever it was.
fn check_ordering(out: &mut Out, s: &Section) {
    let isa = s.isa;
    assert!(
        s.fused_beats_dequant_decode,
        "{isa}: fused dequant-GEMM must beat the dequantize-then-f32 baseline in decode"
    );
    if isa == Isa::Baseline.name() {
        say!(out, "{isa}: decode speedup over dense f32 and int4 over int8 not gated (no vector instantiation)");
        say!(out,
            "{isa}: prefill amortisation not gated (on x86_64 without FMA every fused multiply-add is a software \
             fmaf call, as dear per row at m = {CHUNK_M} as at m = 1)"
        );
    } else {
        for (kernel, speedup) in &s.decode_speedup_vs_f32 {
            assert!(
                *speedup >= MIN_DECODE_SPEEDUP_VECTOR,
                "{isa} {kernel}: the 4096² decode must be at least {MIN_DECODE_SPEEDUP_VECTOR}x dense f32, got {speedup:.2}x"
            );
        }
        assert!(
            s.int4_over_int8_decode >= MIN_INT4_OVER_INT8_VECTOR,
            "{isa}: fused-int4 must run the 4096² decode at least {MIN_INT4_OVER_INT8_VECTOR}x as fast as fused-int8, got {:.2}x",
            s.int4_over_int8_decode
        );
        for (kernel, ratio) in &s.prefill_amortisation {
            assert!(
                *ratio <= MAX_PREFILL_AMORTISATION,
                "{isa} {kernel}: a prefill row must cost at most {MAX_PREFILL_AMORTISATION} of an m = 1 call, got {ratio:.2}"
            );
        }
    }
    for r in s.layer.iter().filter(|r| r.m == CHUNK_M) {
        assert!(
            r.layer_over_gemm <= MAX_LAYER_OVER_GEMM,
            "{isa} m = {} on {} cached: the layer forward must cost at most {MAX_LAYER_OVER_GEMM} of its GEMMs, got {:.2}",
            r.m,
            r.past,
            r.layer_over_gemm
        );
    }
}

/// `--compare` on one section: every ratio is a quotient of two timings
/// taken in one run on one machine under one instantiation.
fn compare(out: &mut Out, now: &Section, was: &CommittedSection) {
    let isa = now.isa;
    let find = |rows: &[(String, f64)], kernel: &str| {
        rows.iter().find(|(k, _)| k == kernel).map(|(_, v)| *v).expect("kernel present in both reports")
    };
    for (kernel, was) in &was.decode_speedup_vs_f32 {
        let now = find(&now.decode_speedup_vs_f32, kernel);
        say!(out, "{isa} {kernel}: decode speedup over dense f32 {now:.2}x (committed {was:.2}x)");
        assert!(now >= 0.9 * was, "{isa} {kernel}: decode speedup over dense f32 regressed more than 10%");
    }
    for (kernel, was) in &was.prefill_amortisation {
        let now = find(&now.prefill_amortisation, kernel);
        say!(out, "{isa} {kernel}: m = 64 row over m = 1 call {now:.2} (committed {was:.2})");
        assert!(now <= 1.1 * was, "{isa} {kernel}: m = 64 row over m = 1 call regressed more than 10%");
    }
    for was in &was.layer {
        let now = now
            .layer
            .iter()
            .find(|r| (r.m, r.past) == (was.m, was.past))
            .expect("layer shape present in both reports")
            .layer_over_gemm;
        say!(out,
            "{isa} m = {}, past = {}: layer over its GEMMs {now:.2} (committed {:.2})",
            was.m, was.past, was.layer_over_gemm
        );
        assert!(
            now <= 1.1 * was.layer_over_gemm,
            "{isa} m = {}, past = {}: layer over its GEMMs regressed more than 10%",
            was.m,
            was.past
        );
    }
}

pub fn run(out: &mut Out, args: &Args) {
    let quick = args.has("--quick");
    // Read before the run: `--out` defaults to the committed file.
    let committed: Option<Committed> = args.value("--compare").map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{path} is not a bench_kernels report with per-ISA sections: {e}"))
    });

    let host = Isa::detected();
    let mem_bw_gbs = mem_bw_gbs();
    say!(out,
        "bench_kernels — packed dequant-GEMM throughput{}\nwidest kernel isa: {}; STREAM triad: {mem_bw_gbs:.1} GB/s\n",
        if quick { " (quick)" } else { "" },
        host.name(),
    );

    let sections: Vec<Section> = Isa::ALL
        .into_iter()
        .filter(|&isa| isa <= host)
        .map(|isa| with_cap(isa, || section(out, isa, quick, mem_bw_gbs)))
        .collect();
    let widest = sections.last().expect("the baseline instantiation runs everywhere");

    let tokens = tokens_suite(quick);
    let mut t = TextTable::new(&["bits", "prefill tok/s", "decode tok/s"]);
    for r in &tokens {
        t.row(vec![
            r.bits.clone(),
            format!("{:.1}", r.prefill_tok_s),
            format!("{:.1}", r.decode_tok_s),
        ]);
    }
    out.table(&t);

    let solver = solver_suite();
    say!(out,
        "solver overhead: cluster {} {} -> {:.3} s ({:.1} tok/s plan)\n",
        solver.cluster, solver.solver, solver.overhead_s, solver.throughput_tok_s
    );

    // Cross-check measured decode speedups against the roofline tables
    // for a modeled device. Absolute scales differ (CPU vs modeled GPU);
    // only the fp16-relative ratios are compared.
    let eff = |kernel: &str| {
        widest
            .gemm
            .iter()
            .find(|r| r.phase == "decode" && r.kernel == kernel)
            .map(|r| r.effective_gbs)
            .expect("decode row present")
    };
    let obs = [
        KernelObservation { bits: Bitwidth::Fp16, throughput: eff("dense-f32") },
        KernelObservation { bits: Bitwidth::Int8, throughput: eff("fused-int8") },
        KernelObservation { bits: Bitwidth::Int4, throughput: eff("fused-int4") },
        KernelObservation { bits: Bitwidth::Int3, throughput: eff("fused-int3") },
    ];
    let gpu = GpuModel::A100_40G;
    let crosscheck = kernel_crosscheck(
        &gpu.spec(),
        &KernelEnv::default(),
        &llmpq_model::zoo::opt_13b(),
        &PhaseWorkload::decode(8, 512, 512),
        16.0,
        &obs,
    );
    let mut t = TextTable::new(&["bits", "predicted speedup", "measured speedup", "rel err"]);
    for r in &crosscheck {
        t.row(vec![
            r.bits.to_string(),
            format!("{:.2}x", r.predicted_speedup),
            format!("{:.2}x", r.observed_speedup),
            format!("{:.2}", r.rel_err),
        ]);
    }
    say!(out, "decode speedup ({}) vs {gpu} roofline:", widest.isa);
    out.table(&t);

    let report = Report {
        bench: "bench_kernels",
        quick,
        isa: host.name(),
        mem_bw_gbs,
        sections,
        tokens,
        solver,
        crosscheck_device: gpu.to_string(),
        crosscheck,
    };
    out.json(args.value("--out").unwrap_or("BENCH_kernels.json"), &report);
    if args.has("--check-ordering") {
        report.sections.iter().for_each(|s| check_ordering(out, s));
    }
    if let Some(committed) = committed {
        for now in &report.sections {
            let was = committed.sections.iter().find(|was| was.isa == now.isa);
            compare(out, now, was.unwrap_or_else(|| panic!("the committed report has no {} section", now.isa)));
        }
        for was in committed.sections.iter().filter(|was| report.sections.iter().all(|now| now.isa != was.isa)) {
            say!(out, "committed {} section not compared: this host cannot run that instantiation", was.isa);
        }
    }
}
