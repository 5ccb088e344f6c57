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
//! kernel actually streams (payload + scales, or `4·n·k` dense)
//! over its time, as a fraction of a STREAM-style triad taken in the
//! same run. Prefill is compute-bound and judged in **GFLOP/s**
//! (`2·m·n·k / time`), its `roofline_frac` a fraction of the
//! instantiation's own fused multiply-add peak, probed in the same run
//! (`llmpq_kernels::dispatch::fma_peak_probe`: independent chains and
//! nothing else); the prefill shape is run at `m = 1`, the phase's
//! usual `m`, and `m = 64` (one serving chunk), so the table shows how
//! far staging each weight tile once per row block amortises. A third
//! table replays the `ref256x4` serving model's per-token GEMM list at
//! `m = 1`, `2` and `3` — the shapes a decode step actually runs (one
//! sequence, or a few stacked; also every prefill tail block),
//! L2-resident, with the time per weight beside each, and the dense
//! 512 × 256 logits projection alone at `m = 1` from the row-major table
//! and from the k-major copy a serving head keeps; the FMA peak probe
//! runs in the same rounds, and each fused `m = 1` pass is also given
//! as a fraction of it (`decode_list_peak_frac`). A
//! fourth times the other half of that model's layer at int4: GELU per
//! element; the attention kernel alone at a prefill chunk on an empty and
//! on a 64-token cache and at a decode step on 16, 64 and 128 cached
//! positions, each with the keys in the paged store's k-major blocks and
//! transposed per call out of a row-major `KvCache`; and the whole layer
//! forward over a `PagedKvStore` view — what both serving engines compute
//! on — next to its own six GEMM calls (`layer_over_gemm`, a quotient of
//! two timings from one run) at a prefill chunk on an empty and on a
//! 64-token cache and at a decode step on 50 and 150 cached positions;
//! and the model's four layers over that prefill chunk in the serving
//! form (the final layer computes the last row alone) over the full form
//! (`stack`, `serving_over_full`).
//!
//! Those tables are taken once per kernel instantiation the host can
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
//! CI-friendly), `--check-ordering` (gate: fused beats
//! dequant-then-GEMM, fused int8 and int4 each run the 4096² decode at
//! least [`MIN_DECODE_SPEEDUP_VECTOR`]× faster than dense f32 and int4 at least [`MIN_INT4_OVER_INT8_VECTOR`]× as fast as
//! int8, and a fused `m = 64` prefill row costs at most
//! [`MAX_PREFILL_AMORTISATION`] of the `m = 1` call at the same shape,
//! decode attention over key blocks costs at most
//! [`MAX_BLOCK_OVER_ROW_ATTENTION`] of the row-major form at 64 and 128
//! cached positions, and the decode layer forward on 150 at most
//! [`MAX_DECODE_LAYER_OVER_GEMM`] of its GEMMs, and the fused int8 and
//! int4 `ref256x4` GEMM lists at `m = 1` run at their
//! [`MIN_DECODE_LIST_PEAK_FRAC`] of the section's FMA peak or more, in
//! every section a
//! vector instantiation ran — AVX2 or AVX-512 — the layer forward of
//! both prefill shapes costs at most [`MAX_LAYER_OVER_GEMM`] of its
//! GEMMs and the serving form of the four-layer prefill at most
//! [`MAX_STACK_SERVING_OVER_FULL`] of the full form in every section,
//! and in the AVX-512 section, where the host has
//! one, the fused-int4 `m = 64` prefill runs at
//! [`MIN_PREFILL_PEAK_FRAC_AVX512`] of that section's FMA peak or more),
//! `--compare FILE` (fail if any of those ratios is more than 10 %
//! worse than in the same ISA's section of the report at `FILE`, or if
//! that report has no such section),
//! `--out FILE` (default `BENCH_kernels.json`). A run with either gate
//! flag checks every gate, prints each failed one with its value, bar
//! and margin, and then fails.

use super::bench_solver::median;
use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::{assign, SolverChoice};
use llmpq_cluster::GpuModel;
use llmpq_cost::{kernel_crosscheck, CostDb, KernelCrosscheck, KernelObservation};
use llmpq_kernels::dispatch::with_cap;
use llmpq_kernels::{qgemm_t, DensePanels, Isa, PackedMatrix};
use serde::Deserialize;
use llmpq_model::{
    forward_layer, forward_shard, KvCache, KvSeq, Matrix, OperatorTaps, OutRows, PhaseWorkload, RefConfig,
    RefModel, KV_BLOCK,
};
use llmpq_runtime::{KvPoolConfig, PagedKvStore};
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
    /// Prefill rows: `gflops` ÷ the FMA peak probed in the same rounds.
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
    /// `"blocks"` (the paged store's k-major key blocks, read in place) or
    /// `"rows"` (a row-major `KvCache`, its keys transposed per call).
    keys: &'static str,
    attention_us: f64,
}

/// One int4 `ref256x4` layer forward of `m` rows on `past` cached
/// positions of a `PagedKvStore`, beside its own six GEMM calls.
#[derive(Serialize, Deserialize)]
struct LayerRow {
    m: usize,
    past: usize,
    layer_us: f64,
    gemm_us: f64,
    /// `layer_us / gemm_us`: 1 would be a layer that is only its GEMMs.
    layer_over_gemm: f64,
    /// Min and max of the per-round quotients behind `layer_over_gemm`:
    /// how far the host's noise moves it within one run.
    #[serde(default)]
    layer_over_gemm_rounds: [f64; 2],
}

/// The int4 `ref256x4` model's four layers over one prefill chunk of `m`
/// rows on `past` cached positions of a `PagedKvStore`, in the two forms
/// the workspace runs them: every layer returning every row (the oracles:
/// `generate`, `nll`, calibration) and the serving form, whose final layer
/// computes the K/V of every row and the rest for the last row alone.
#[derive(Serialize)]
struct StackRow {
    m: usize,
    past: usize,
    full_us: f64,
    serving_us: f64,
    /// `serving_us / full_us`: 1 would be a final layer that still
    /// computes rows nobody reads.
    serving_over_full: f64,
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
    /// Fused multiply-add throughput of independent chains in this
    /// instantiation, the best of the prefill shapes' probes: each
    /// prefill row's `roofline_frac` divides by the probe timed in the
    /// same rounds as it.
    fma_peak_gflops: f64,
    gemm: Vec<GemmRow>,
    decode_list: Vec<ListRow>,
    head: Vec<HeadRow>,
    /// The fused int8 and int4 `decode_list` passes at `m = 1` over the
    /// FMA peak probed in their rounds; in a vector instantiation the gate
    /// is ≥ [`MIN_DECODE_LIST_PEAK_FRAC`].
    decode_list_peak_frac: Vec<ListPeakFrac>,
    /// GELU over one prefill chunk's FFN activations (64 × 1024).
    gelu_ns_per_elem: f64,
    /// In a vector instantiation the `m = 1` rows at 64 and 128 cached
    /// positions are gated: blocks ≤ [`MAX_BLOCK_OVER_ROW_ATTENTION`] of
    /// rows.
    attention: Vec<AttentionRow>,
    /// Prefill rows (`m = 64`) are gated at ≤ [`MAX_LAYER_OVER_GEMM`], and
    /// in a vector instantiation the decode row on 150 cached positions at
    /// ≤ [`MAX_DECODE_LAYER_OVER_GEMM`].
    layer: Vec<LayerRow>,
    /// Gated at ≤ [`MAX_STACK_SERVING_OVER_FULL`] on both shapes.
    stack: Vec<StackRow>,
    fused_beats_dequant_decode: bool,
    /// Dense-f32 time over fused time at the 4096² decode, per
    /// precision, the median of per-round quotients; in a vector
    /// instantiation the gate is ≥ [`MIN_DECODE_SPEEDUP_VECTOR`].
    decode_speedup_vs_f32: Vec<(String, f64)>,
    /// Min and max of the per-round quotients behind each
    /// `decode_speedup_vs_f32` entry.
    decode_speedup_vs_f32_rounds: Vec<(String, [f64; 2])>,
    /// Fused-int8 time over fused-int4 time at the 4096² decode, the
    /// median of per-round quotients: int4 streams half the bytes, and
    /// both precisions spend about one instruction per weight converting
    /// and accumulating it in registers. In a vector instantiation the
    /// gate is ≥ [`MIN_INT4_OVER_INT8_VECTOR`].
    int4_over_int8_decode: f64,
    /// Min and max of the per-round quotients behind
    /// `int4_over_int8_decode`.
    int4_over_int8_decode_rounds: [f64; 2],
    /// Fused `m = 64` time per row over fused `m = 1` time at the
    /// prefill shape, per precision; in a vector instantiation the gate
    /// is ≤ [`MAX_PREFILL_AMORTISATION`].
    prefill_amortisation: Vec<(String, f64)>,
    /// Min and max of the per-round quotients behind each
    /// `prefill_amortisation` entry, round `i` of the `m = 64` call over
    /// round `i` of the `m = 1` call.
    prefill_amortisation_rounds: Vec<(String, [f64; 2])>,
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

/// In a vector instantiation, lower bars on the fused int8 and int4
/// `ref256x4` GEMM lists at `m = 1` over the FMA peak probed in the same
/// rounds, per (section, kernel). At these L2-resident shapes the decode
/// body is bound by vector instructions per weight, not by bytes, so the
/// fraction counts them: dropping the zero point's subtract took one of
/// five per 16 int8 weights and one of five and a half per 16 nibbles.
/// Each bar sits between the medians of ten quick runs before and after
/// that change (EXPERIMENTS.md "Decode without a zero point"); under
/// AVX-512 the host's state between runs moves the fraction more than
/// the change did, and the change passed 7 of 10 there.
const MIN_DECODE_LIST_PEAK_FRAC: [(&str, &str, f64); 4] = [
    ("avx2", "fused-int8", 0.205),
    ("avx2", "fused-int4", 0.15),
    ("avx512", "fused-int8", 0.145),
    ("avx512", "fused-int4", 0.145),
];

/// Upper bar on an int4 `ref256x4` prefill layer forward over its own six
/// GEMM calls. With scalar libm GELU / softmax and one dependent add
/// chain per attention score the quotient was 1.84 on an empty cache and
/// 2.1–2.2 on a 64-token one; as whole-vector kernels the rest of the
/// layer costs 0.15–0.3 of the GEMMs.
const MAX_LAYER_OVER_GEMM: f64 = 1.5;

/// In a vector instantiation, upper bar on decode attention (`m = 1`) over
/// the paged store's key blocks ÷ the same call over a row-major
/// `KvCache` at 64 and 128 cached positions. The block form sweeps keys
/// in place and accumulates value rows in registers; the row form first
/// transposes every cached key into blocks. Measured 0.16–0.28.
const MAX_BLOCK_OVER_ROW_ATTENTION: f64 = 0.5;

/// In the AVX-512 section, lower bar on the fused-int4 `m = 64` prefill
/// over the FMA peak probed in the same rounds. Ten quick runs on one
/// AVX-512 host read 0.61–0.85 (median 0.78) with the `MR`-row ×
/// four-panel register block, sixteen `zmm` chains; with `MR` rows of
/// one panel, four chains and latency-bound, the same row ran at 55–87
/// GFLOP/s against a 151–179 GFLOP/s peak, about 0.3–0.5. Skipped where
/// the host has no AVX-512: at 256 bits the one-panel block is eight
/// chains already (0.61–0.79 of the AVX2 peak), and its fraction is
/// reported, not gated.
const MIN_PREFILL_PEAK_FRAC_AVX512: f64 = 0.55;

/// In a vector instantiation, upper bar on the int4 decode layer forward
/// (`m = 1`) on 150 cached positions over its own six GEMM calls. Measured
/// 1.41–1.68 while decode attention staged its keys and values, 1.01–1.25
/// since it reads them in place.
const MAX_DECODE_LAYER_OVER_GEMM: f64 = 1.3;

/// Upper bar on the int4 `ref256x4` four-layer prefill at `m = 64` in its
/// serving form over its full form, on an empty and on a 64-token cache.
/// The serving form's final layer runs LN1 and the K/V GEMMs over every
/// row and the rest — Q, attention, `wo`, LN2, the MLP — over the last
/// row alone, so the quotient is about `(3 + kv) / 4` with `kv` the share
/// of a layer that is LN1 and its K/V GEMMs. Ten quick runs on one
/// AVX-512 host read 0.74–0.87, medians 0.80–0.81 in every section and
/// at both cache lengths; a final layer that computed every row again
/// would read 1.
const MAX_STACK_SERVING_OVER_FULL: f64 = 0.9;

/// A labeled closure the interleaved timer can re-run.
type TimedKernel<'a> = (String, Box<dyn FnMut() + 'a>);

/// Interleaved timer for a *set* of kernels: every round times one
/// batch of each kernel back-to-back, so slow drift on a shared machine
/// (noisy neighbors, frequency steps) hits all kernels alike instead of
/// whichever was measured last. Returns per-call seconds per kernel, in
/// input order, one per round.
fn time_rounds(iters: usize, rounds: usize, kernels: &mut [TimedKernel<'_>]) -> Vec<Vec<f64>> {
    for (_, f) in kernels.iter_mut() {
        f();
    }
    let mut times = vec![Vec::with_capacity(rounds); kernels.len()];
    for _ in 0..rounds {
        for (i, (_, f)) in kernels.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            times[i].push(t0.elapsed().as_secs_f64() / iters as f64);
        }
    }
    times
}

/// The fastest of a kernel's rounds.
fn best(rounds: &[f64]) -> f64 {
    rounds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Min and max of per-round quotients.
fn round_range(quotients: &[f64]) -> [f64; 2] {
    [best(quotients), quotients.iter().copied().fold(f64::NEG_INFINITY, f64::max)]
}

/// [`time_rounds`]' best round per kernel.
fn time_interleaved(iters: usize, rounds: usize, kernels: &mut [TimedKernel<'_>]) -> Vec<f64> {
    time_rounds(iters, rounds, kernels).iter().map(|t| best(t)).collect()
}

fn pack(w: &Matrix, bits: Bitwidth) -> PackedMatrix {
    quantize_matrix(w, bits, Rounding::Deterministic, 3)
        .to_packed(llmpq_kernels::DEFAULT_GROUP)
}

/// Rows of one serving prefill chunk.
const CHUNK_M: usize = 64;

/// Steps of one FMA-peak probe call: a few hundred microseconds.
const PROBE_STEPS: usize = 100_000;

/// Each GEMM row's per-call seconds, one per round, keyed by its
/// `(phase, m, kernel)`.
type RoundTimes = Vec<((&'static str, usize, String), Vec<f64>)>;

/// The rounds of the GEMM row `(phase, m, kernel)`.
fn rounds_of<'a>(rounds: &'a RoundTimes, phase: &str, m: usize, kernel: &str) -> &'a [f64] {
    let found = rounds.iter().find(|((p, rm, k), _)| (*p, *rm, k.as_str()) == (phase, m, kernel));
    &found.expect("GEMM row timed").1
}

/// Per-round quotients of two kernels' rounds, taken in the same rounds.
fn quotients(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter().zip(den).map(|(n, d)| n / d).collect()
}

/// The GEMM rows, the FMA peak in GFLOP/s — the chain probe
/// (`llmpq_kernels::dispatch::fma_peak_probe`) runs as one more kernel
/// in each prefill shape's interleaved rounds, so that a row and the
/// peak it is divided by see the same state of a shared host — and every
/// row's rounds.
fn gemm_suite(quick: bool, mem_bw_gbs: f64, rows: &mut Vec<GemmRow>) -> (f64, RoundTimes) {
    // Decode is the memory-bound phase: m = 1, square weight sized to
    // spill L2 in both modes so the run measures sustained traffic (the
    // L2-resident case is the `ref256x4` list). The prefill shape and
    // the calls per round are the same in both modes too, so that
    // `--compare` sets a quick run's ratios against a full run's of the
    // same call shape.
    let (dec_nk, pre_nk, pre_m) = (4096, 1024, if quick { 16 } else { 32 });
    let (iters, rounds) = (4, 5);
    let mut peak = 0.0f64;
    let mut round_times = Vec::new();

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

        if phase == "prefill" {
            kernels.push((
                "fma-peak".into(),
                Box::new(|| {
                    black_box(llmpq_kernels::dispatch::fma_peak_probe(black_box(PROBE_STEPS)));
                }),
            ));
        }
        let per_round = time_rounds(iters, rounds, &mut kernels);
        let mut times: Vec<f64> = per_round.iter().map(|t| best(t)).collect();
        round_times.extend(kernels.iter().map(|(kernel, _)| (phase, m, kernel.clone())).zip(per_round));
        let peak_gflops = match phase {
            "prefill" => {
                kernels.pop();
                let probe_s = times.pop().expect("the probe was timed");
                llmpq_kernels::dispatch::fma_peak_probe(PROBE_STEPS) as f64 / probe_s / 1e9
            }
            _ => f64::NAN,
        };
        peak = peak.max(peak_gflops);
        let eq_bytes = (nk * nk * 2) as f64;
        let resident = |kernel: &str| match packs.iter().find(|(b, _)| kernel == format!("fused-{b}")) {
            Some((_, p)) => Some(p.resident_bytes()),
            None if kernel == "dense-f32" => Some(nk * nk * 4),
            None => None,
        };
        for ((kernel, _), s) in kernels.iter().zip(&times) {
            let gflops = (2 * m * nk * nk) as f64 / s / 1e9;
            let roofline_frac = match phase {
                "decode" => resident(kernel).map(|bytes| bytes as f64 / s / 1e9 / mem_bw_gbs),
                _ => Some(gflops / peak_gflops),
            };
            rows.push(GemmRow {
                phase,
                kernel: kernel.clone(),
                m,
                n: nk,
                k: nk,
                ms: s * 1e3,
                effective_gbs: eq_bytes / s / 1e9,
                gflops,
                roofline_frac,
            });
        }
    }
    (peak, round_times)
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

/// A fused `m = 1` pass over the `ref256x4` GEMM list as a fraction of
/// the FMA peak probed in the same rounds: the best round of each, and
/// the min and max of the per-round quotients. (The median of per-round
/// quotients hardly moved when the zero point's subtract went, under
/// AVX-512: over ten quick runs each, 0.139 against 0.141 for int8,
/// while the list ran 12 % faster.)
#[derive(Serialize)]
struct ListPeakFrac {
    kernel: String,
    frac: f64,
    rounds: [f64; 2],
}

/// The `ref256x4` serving model's per-token GEMM list (hidden 256, FFN
/// 1024, four layers, a dense 512-row logits projection) replayed at
/// each of [`LIST_M`]: what one decode step spends in the kernel, at
/// shapes that sit in L2 rather than stream from memory. The logits
/// projection runs from the k-major copy a serving `ModelHead` keeps, and
/// is timed alone from both forms. The FMA peak probe runs as one more
/// kernel in the list's rounds, so each fused `m = 1` pass also comes as
/// a fraction of it.
fn decode_list_suite(quick: bool, mem_bw_gbs: f64) -> (Vec<ListRow>, Vec<HeadRow>, Vec<ListPeakFrac>) {
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
    kernels.push((
        "fma-peak".into(),
        Box::new(|| {
            black_box(llmpq_kernels::dispatch::fma_peak_probe(black_box(PROBE_STEPS)));
        }),
    ));
    let (iters, rounds) = if quick { (20, 5) } else { (50, 9) };
    let mut per_round = time_rounds(iters, rounds, &mut kernels);
    kernels.pop();
    let probe = per_round.pop().expect("the probe was timed");
    let probe_flops = llmpq_kernels::dispatch::fma_peak_probe(PROBE_STEPS) as f64;
    let peak_frac = kernels
        .iter()
        .zip(&per_round)
        .zip(&shape)
        .filter(|(((kernel, _), _), (m, _))| *m == 1 && kernel.starts_with("fused-"))
        .map(|(((kernel, _), list), _)| {
            // (2·weights / list time) / (probe flops / probe time): the
            // best rounds of each, as the prefill rows' `roofline_frac`.
            let frac = |list: f64, probe: f64| probe / list * (2 * weights) as f64 / probe_flops;
            let per_round: Vec<f64> = list.iter().zip(&probe).map(|(&l, &p)| frac(l, p)).collect();
            ListPeakFrac { kernel: kernel.clone(), rounds: round_range(&per_round), frac: frac(best(list), best(&probe)) }
        })
        .collect();
    let times: Vec<f64> = per_round.iter().map(|t| best(t)).collect();
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
    (list, head_rows, peak_frac)
}

/// The non-GEMM half of an int4 `ref256x4` layer: GELU, attention, and
/// the layer forward beside its GEMMs.
fn layer_suite(quick: bool) -> (f64, Vec<AttentionRow>, Vec<LayerRow>) {
    const SHAPES: [(usize, usize); 4] = [(CHUNK_M, 0), (CHUNK_M, 64), (1, 50), (1, 150)];
    let cfg =
        RefConfig { n_layers: 1, hidden: 256, n_heads: 4, ffn: 1024, vocab: 512, max_seq: 512, seed: 11, alibi: false };
    let model = quantize_model_uniform(&RefModel::new(cfg), Bitwidth::Int4, Rounding::Deterministic, 0);
    let (layers, w) = (&model.layers[..], &model.layers[0]);
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

    let attention = [(CHUNK_M, 0), (CHUNK_M, 64), (1, 16), (1, 64), (1, 128)]
        .into_iter()
        .flat_map(|(m, past)| {
            let t = past + m;
            let q = Matrix::random(m, cfg.hidden, 1.0, 5);
            let cache = KvCache {
                k: vec![Matrix::random(t, cfg.hidden, 1.0, 6)],
                v: vec![Matrix::random(t, cfg.hidden, 1.0, 7)],
            };
            let mut store = paged_store(t, 1, cfg.hidden);
            store.append(0, &cache, 0).expect("the store holds the sequence");
            let view = store.extend_seq(0, 0).expect("a registered sequence");
            let (mut over_blocks, mut over_rows) = (vec![0.0f32; m * cfg.hidden], vec![0.0f32; m * cfg.hidden]);
            let mut kernels: Vec<TimedKernel<'_>> = vec![
                (
                    "blocks".into(),
                    Box::new(|| {
                        let (q, kv) = (black_box(&q.data), view.blocks(0));
                        llmpq_kernels::attention(q, m, cfg.hidden, past, &[0.0; 4], &kv, &mut over_blocks);
                        black_box(&mut over_blocks);
                    }),
                ),
                (
                    "rows".into(),
                    Box::new(|| {
                        let (q, kv) = (black_box(&q.data), cache.blocks(0));
                        llmpq_kernels::attention(q, m, cfg.hidden, past, &[0.0; 4], &kv, &mut over_rows);
                        black_box(&mut over_rows);
                    }),
                ),
            ];
            let iters = if m == 1 { 200 } else { 10 };
            let s = time_interleaved(iters, rounds, &mut kernels);
            drop(kernels);
            let same = over_blocks.iter().zip(&over_rows).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "attention over blocks and over rows must agree bit for bit (m = {m}, past = {past})");
            [("blocks", s[0]), ("rows", s[1])].map(|(keys, s)| AttentionRow { m, past, keys, attention_us: s * 1e6 })
        })
        .collect();

    let layer = SHAPES
        .into_iter()
        .map(|(m, past)| {
            let x = Matrix::random(m, cfg.hidden, 1.0, 21);
            // A sequence holding `past` positions, cut back after each
            // call: released and registered again, it gets the same chain
            // back off the LIFO free list, the `past` positions' rows
            // still in it, for two pool calls.
            let mut store = paged_store(past + m, 1, cfg.hidden);
            let prefix = Matrix::random(past, cfg.hidden, 1.0, 23);
            let mut kv = store.extend_seq(0, past).expect("room for the prefix");
            forward_shard(&cfg, layers, 0, prefix, &mut kv, OutRows::All);
            // The six GEMM calls this layer forward makes, on the inputs
            // it hands them, each output kept to the end of the pass as
            // the layer keeps its own. Fed random inputs made up front and
            // dropping each output at once, this row timed the AVX2 m = 1
            // GEMMs at twice the layer that contains them in every full
            // run on one AVX-512 host (162–205 against 85–129 µs), and a
            // change to the binary's layout alone made that vanish.
            let mut taps = OperatorTaps::default();
            let mut kv = store.extend_seq(0, m).expect("room for the rows");
            forward_layer(&cfg, w, 0, &x, &mut kv, OutRows::All, Some(&mut taps));
            let xr = &x;
            let ops = w.linear_operators().map(|(_, op)| op);
            let inputs = taps.inputs().map(Matrix::clone);
            let mut kernels: Vec<TimedKernel<'_>> = vec![
                (
                    "layer".into(),
                    Box::new(move || {
                        store.release(0);
                        store.register(0).expect("a released sequence registers again");
                        store.extend_seq(0, past).expect("the same chain");
                        let mut kv = store.extend_seq(0, m).expect("room for the new rows");
                        black_box(forward_shard(&cfg, layers, 0, black_box(xr).clone(), &mut kv, OutRows::All));
                    }),
                ),
                (
                    "gemms".into(),
                    Box::new(move || {
                        let outs: [Matrix; 6] = std::array::from_fn(|i| ops[i].forward_t(black_box(&inputs[i])));
                        black_box(outs);
                    }),
                ),
            ];
            let iters = if m == 1 { 100 } else { 5 };
            let t = time_rounds(iters, rounds, &mut kernels);
            let (layer_s, gemm_s) = (best(&t[0]), best(&t[1]));
            let per_round: Vec<f64> = t[0].iter().zip(&t[1]).map(|(l, g)| l / g).collect();
            LayerRow {
                m,
                past,
                layer_us: layer_s * 1e6,
                gemm_us: gemm_s * 1e6,
                layer_over_gemm: layer_s / gemm_s,
                layer_over_gemm_rounds: round_range(&per_round),
            }
        })
        .collect();
    (gelu_ns_per_elem, attention, layer)
}

/// A store of `n_layers` layers with room for exactly `t` positions of
/// one sequence, registered as sequence 0.
fn paged_store(t: usize, n_layers: usize, hidden: usize) -> PagedKvStore {
    let cfg = KvPoolConfig { n_blocks: t.div_ceil(KV_BLOCK), block_tokens: KV_BLOCK };
    let mut store = PagedKvStore::new(cfg, n_layers, hidden);
    store.register(0).expect("an empty store");
    store
}

/// The four-layer prefill chunk of [`StackRow`] in both forms, timed
/// interleaved; the serving form's row must be the full form's last row,
/// bit for bit.
fn stack_suite(quick: bool) -> Vec<StackRow> {
    let cfg =
        RefConfig { n_layers: 4, hidden: 256, n_heads: 4, ffn: 1024, vocab: 512, max_seq: 512, seed: 11, alibi: false };
    let model = quantize_model_uniform(&RefModel::new(cfg), Bitwidth::Int4, Rounding::Deterministic, 0);
    // Rounds from a time budget per shape: one call costs ~5 ms under
    // AVX-512 and ~0.6 s in the baseline's software `fmaf`.
    let budget_s = if quick { 0.5 } else { 1.5 };
    [(CHUNK_M, 0), (CHUNK_M, 64)]
        .into_iter()
        .map(|(m, past)| {
            let x = Matrix::random(m, cfg.hidden, 1.0, 21);
            let prefix = Matrix::random(past, cfg.hidden, 1.0, 23);
            // Both forms on the sequence holding `past` positions, cut
            // back after each call (see the layer rows).
            let run = |store: &mut PagedKvStore, last: OutRows| {
                store.release(0);
                store.register(0).expect("a released sequence registers again");
                store.extend_seq(0, past).expect("the same chain");
                let mut kv = store.extend_seq(0, m).expect("room for the new rows");
                forward_shard(&cfg, &model.layers, 0, black_box(&x).clone(), &mut kv, last)
            };
            let stores = [OutRows::All, OutRows::Last].map(|_| {
                let mut store = paged_store(past + m, cfg.n_layers, cfg.hidden);
                let mut kv = store.extend_seq(0, past).expect("room for the prefix");
                forward_shard(&cfg, &model.layers, 0, prefix.clone(), &mut kv, OutRows::All);
                store
            });
            let [mut full_store, mut serving_store] = stores;
            let t0 = Instant::now();
            let full = run(&mut full_store, OutRows::All);
            let rounds = ((budget_s / 2.0 / t0.elapsed().as_secs_f64()) as usize).clamp(3, 40);
            let serving = run(&mut serving_store, OutRows::Last);
            let same = full.row(m - 1).iter().zip(&serving.data).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same && serving.rows == 1, "the serving form must return the full form's last row (past = {past})");
            let mut kernels: Vec<TimedKernel<'_>> = vec![
                ("full".into(), Box::new(|| drop(black_box(run(&mut full_store, OutRows::All))))),
                ("serving".into(), Box::new(|| drop(black_box(run(&mut serving_store, OutRows::Last))))),
            ];
            let s = time_interleaved(1, rounds, &mut kernels);
            StackRow { m, past, full_us: s[0] * 1e6, serving_us: s[1] * 1e6, serving_over_full: s[1] / s[0] }
        })
        .collect()
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
    let (fma_peak_gflops, round_times) = gemm_suite(quick, mem_bw_gbs, &mut gemm);
    say!(out, "FMA peak (independent chains): {fma_peak_gflops:.1} GFLOP/s");

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

    let (decode_list, head, decode_list_peak_frac) = decode_list_suite(quick, mem_bw_gbs);
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
    for r in &decode_list_peak_frac {
        let [lo, hi] = r.rounds;
        say!(out, "{} ref256x4 GEMM list, m = 1: {:.3} of the FMA peak (rounds {lo:.3}-{hi:.3})", r.kernel, r.frac);
    }

    let (gelu_ns_per_elem, attention, layer) = layer_suite(quick);
    say!(out, "ref256x4 int4 layer, beyond its GEMMs: GELU {gelu_ns_per_elem:.2} ns/element");
    for r in &attention {
        say!(out, "attention (4 heads x 64), m = {}, past = {}, keys as {}: {:.1} us", r.m, r.past, r.keys, r.attention_us);
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
    let stack = stack_suite(quick);
    for r in &stack {
        say!(out,
            "ref256x4 int4 four-layer prefill, m = {}, past = {}: full {:.1} us, serving (last row of the final layer) \
             {:.1} us, serving / full {:.2}",
            r.m, r.past, r.full_us, r.serving_us, r.serving_over_full
        );
    }

    let decode_ms = |kernel: &str| {
        gemm.iter()
            .find(|r| r.phase == "decode" && r.kernel == kernel)
            .map(|r| r.ms)
            .expect("decode row present")
    };
    let fused_beats_dequant = [Bitwidth::Int8, Bitwidth::Int4]
        .iter()
        .all(|&b| decode_ms(&format!("fused-{b}")) < decode_ms(&format!("dequant-then-f32-{b}")));
    // Quotients of two kernels at the 4096² decode: the median over rounds
    // of one round's quotient. The 64 MB dense call follows the host's
    // bandwidth state, and a quotient of two best-of-rounds times can set
    // one kernel's fast round against the other's slow one.
    // Each comes with the min and max of its per-round quotients.
    let decode_quotient = |num: &str, den: &str| {
        let rounds = |kernel: &str| rounds_of(&round_times, "decode", 1, kernel);
        let per_round = quotients(rounds(num), rounds(den));
        let range = round_range(&per_round);
        (median(per_round), range)
    };
    let mut decode_speedup_vs_f32 = Vec::new();
    let mut decode_speedup_vs_f32_rounds = Vec::new();
    for b in [Bitwidth::Int8, Bitwidth::Int4] {
        let kernel = format!("fused-{b}");
        let (speedup, range) = decode_quotient("dense-f32", &kernel);
        decode_speedup_vs_f32.push((kernel.clone(), speedup));
        decode_speedup_vs_f32_rounds.push((kernel, range));
    }
    let (int4_over_int8_decode, int4_over_int8_decode_rounds) = decode_quotient("fused-int8", "fused-int4");
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
    // Its range pairs the two shapes' rounds by index: they are timed in
    // rounds of their own, one shape after the other.
    let mut prefill_amortisation = Vec::new();
    let mut prefill_amortisation_rounds = Vec::new();
    for b in [Bitwidth::Int8, Bitwidth::Int4] {
        let kernel = format!("fused-{b}");
        let ratio = prefill_ms(&kernel, CHUNK_M) / CHUNK_M as f64 / prefill_ms(&kernel, 1);
        let per_round = quotients(
            rounds_of(&round_times, "prefill", CHUNK_M, &kernel),
            rounds_of(&round_times, "prefill", 1, &kernel),
        );
        let [lo, hi] = round_range(&per_round).map(|q| q / CHUNK_M as f64);
        say!(out,
            "{kernel}: one row of an m = {CHUNK_M} prefill costs {ratio:.2} of an m = 1 call (rounds {lo:.2}-{hi:.2})"
        );
        prefill_amortisation.push((kernel.clone(), ratio));
        prefill_amortisation_rounds.push((kernel, [lo, hi]));
    }
    say!(out);
    Section {
        isa: isa.name(),
        fma_peak_gflops,
        gemm,
        decode_list,
        head,
        decode_list_peak_frac,
        gelu_ns_per_elem,
        attention,
        layer,
        stack,
        fused_beats_dequant_decode: fused_beats_dequant,
        decode_speedup_vs_f32,
        decode_speedup_vs_f32_rounds,
        int4_over_int8_decode,
        int4_over_int8_decode_rounds,
        prefill_amortisation,
        prefill_amortisation_rounds,
    }
}

/// The gates of one run. A failed gate is kept with its value, bar and
/// margin — and, for a quotient timed over rounds, the min and max of
/// its per-round quotients — so that a run reports every verdict before
/// it fails.
#[derive(Default)]
struct Gates {
    checked: usize,
    failed: Vec<String>,
}

impl Gates {
    fn record(&mut self, ok: bool, what: String, value: f64, rounds: Option<[f64; 2]>, op: &str, bar: f64) {
        self.checked += 1;
        if !ok {
            let rounds = rounds.map_or(String::new(), |[lo, hi]| format!(" (rounds {lo:.2}-{hi:.2})"));
            self.failed.push(format!(
                "{what}: {value:.2}{rounds}, bar {op} {bar:.2}, off by {:.2} ({:.1} %)",
                (value - bar).abs(),
                100.0 * (value - bar).abs() / bar.abs()
            ));
        }
    }

    fn at_least(&mut self, what: String, value: f64, bar: f64) {
        self.record(value >= bar, what, value, None, ">=", bar);
    }

    fn at_most(&mut self, what: String, value: f64, bar: f64) {
        self.record(value <= bar, what, value, None, "<=", bar);
    }

    fn below(&mut self, what: String, value: f64, bar: f64) {
        self.record(value < bar, what, value, None, "<", bar);
    }

    /// Print every failed gate, then fail the run if there was one.
    fn finish(self, out: &mut Out) {
        if self.checked == 0 {
            return;
        }
        for f in &self.failed {
            say!(out, "FAILED {f}");
        }
        say!(out, "{} of {} gates failed", self.failed.len(), self.checked);
        assert!(self.failed.is_empty(), "{} of {} bench_kernels gates failed", self.failed.len(), self.checked);
    }
}

/// `--check-ordering` on one section. The decode and prefill
/// amortisation gates apply wherever a vector instantiation ran,
/// whichever it was.
fn check_ordering(out: &mut Out, s: &Section, gates: &mut Gates) {
    let isa = s.isa;
    let decode_ms = |kernel: &str| {
        s.gemm
            .iter()
            .find(|r| r.phase == "decode" && r.kernel == kernel)
            .map(|r| r.ms)
            .expect("decode row present")
    };
    for b in [Bitwidth::Int8, Bitwidth::Int4] {
        gates.below(
            format!("{isa} fused-{b}: decode time over the dequantize-then-f32 baseline's"),
            decode_ms(&format!("fused-{b}")) / decode_ms(&format!("dequant-then-f32-{b}")),
            1.0,
        );
    }
    if isa == Isa::Baseline.name() {
        say!(out, "{isa}: decode speedup over dense f32 and int4 over int8 not gated (no vector instantiation)");
        say!(out,
            "{isa}: prefill amortisation not gated (on x86_64 without FMA every fused multiply-add is a software \
             fmaf call, as dear per row at m = {CHUNK_M} as at m = 1)"
        );
    } else {
        for ((kernel, speedup), (_, rounds)) in s.decode_speedup_vs_f32.iter().zip(&s.decode_speedup_vs_f32_rounds) {
            gates.record(
                *speedup >= MIN_DECODE_SPEEDUP_VECTOR,
                format!("{isa} {kernel}: 4096² decode speedup over dense f32"),
                *speedup,
                Some(*rounds),
                ">=",
                MIN_DECODE_SPEEDUP_VECTOR,
            );
        }
        gates.record(
            s.int4_over_int8_decode >= MIN_INT4_OVER_INT8_VECTOR,
            format!("{isa}: fused-int4 4096² decode speed over fused-int8's"),
            s.int4_over_int8_decode,
            Some(s.int4_over_int8_decode_rounds),
            ">=",
            MIN_INT4_OVER_INT8_VECTOR,
        );
        for ((kernel, ratio), (_, rounds)) in s.prefill_amortisation.iter().zip(&s.prefill_amortisation_rounds) {
            gates.record(
                *ratio <= MAX_PREFILL_AMORTISATION,
                format!("{isa} {kernel}: one row of an m = {CHUNK_M} prefill over an m = 1 call"),
                *ratio,
                Some(*rounds),
                "<=",
                MAX_PREFILL_AMORTISATION,
            );
        }
        for r in &s.decode_list_peak_frac {
            let bar = MIN_DECODE_LIST_PEAK_FRAC.iter().find(|(i, k, _)| (*i, *k) == (isa, r.kernel.as_str()));
            let Some(&(_, _, bar)) = bar else { continue };
            gates.record(
                r.frac >= bar,
                format!("{isa} {}: ref256x4 GEMM list at m = 1 fraction of the FMA peak", r.kernel),
                r.frac,
                Some(r.rounds),
                ">=",
                bar,
            );
        }
        for past in [64, 128] {
            let us = |keys: &str| {
                s.attention
                    .iter()
                    .find(|r| (r.m, r.past, r.keys) == (1, past, keys))
                    .map(|r| r.attention_us)
                    .expect("decode attention row present")
            };
            let ratio = us("blocks") / us("rows");
            say!(out, "{isa}: decode attention on {past} cached positions, blocks over rows {ratio:.2}");
            gates.at_most(
                format!("{isa}: decode attention over key blocks over the row-major form on {past} cached positions"),
                ratio,
                MAX_BLOCK_OVER_ROW_ATTENTION,
            );
        }
        let decode = s.layer.iter().find(|r| (r.m, r.past) == (1, 150)).expect("decode layer row present");
        gates.record(
            decode.layer_over_gemm <= MAX_DECODE_LAYER_OVER_GEMM,
            format!("{isa} m = 1 on 150 cached: layer forward over its GEMMs"),
            decode.layer_over_gemm,
            Some(decode.layer_over_gemm_rounds),
            "<=",
            MAX_DECODE_LAYER_OVER_GEMM,
        );
    }
    if isa == Isa::Avx512.name() {
        let frac = s
            .gemm
            .iter()
            .find(|r| (r.phase, r.kernel.as_str(), r.m) == ("prefill", "fused-int4", CHUNK_M))
            .and_then(|r| r.roofline_frac)
            .expect("prefill row present");
        say!(out, "{isa}: fused-int4 m = {CHUNK_M} prefill at {frac:.2} of the FMA peak");
        gates.at_least(
            format!("{isa}: fused-int4 m = {CHUNK_M} prefill fraction of the FMA peak"),
            frac,
            MIN_PREFILL_PEAK_FRAC_AVX512,
        );
    } else {
        say!(out, "{isa}: prefill fraction of the FMA peak not gated (the register block is AVX-512's)");
    }
    for r in s.layer.iter().filter(|r| r.m == CHUNK_M) {
        gates.record(
            r.layer_over_gemm <= MAX_LAYER_OVER_GEMM,
            format!("{isa} m = {} on {} cached: layer forward over its GEMMs", r.m, r.past),
            r.layer_over_gemm,
            Some(r.layer_over_gemm_rounds),
            "<=",
            MAX_LAYER_OVER_GEMM,
        );
    }
    for r in &s.stack {
        gates.at_most(
            format!("{isa} m = {} on {} cached: four-layer prefill, serving form over full form", r.m, r.past),
            r.serving_over_full,
            MAX_STACK_SERVING_OVER_FULL,
        );
    }
}

/// `--compare` on one section: every ratio is a quotient of two timings
/// taken in one run on one machine under one instantiation, and may be
/// at most 10 % worse than the committed one.
fn compare(out: &mut Out, now: &Section, was: &CommittedSection, gates: &mut Gates) {
    let isa = now.isa;
    let find = |rows: &[(String, f64)], kernel: &str| {
        rows.iter().find(|(k, _)| k == kernel).map(|(_, v)| *v).expect("kernel present in both reports")
    };
    for (kernel, was) in &was.decode_speedup_vs_f32 {
        let rounds = now.decode_speedup_vs_f32_rounds.iter().find(|(k, _)| k == kernel).map(|(_, r)| *r);
        let now = find(&now.decode_speedup_vs_f32, kernel);
        say!(out, "{isa} {kernel}: decode speedup over dense f32 {now:.2}x (committed {was:.2}x)");
        gates.record(
            now >= 0.9 * was,
            format!("{isa} {kernel}: decode speedup over dense f32 against committed {was:.2}x"),
            now,
            rounds,
            ">=",
            0.9 * was,
        );
    }
    for (kernel, was) in &was.prefill_amortisation {
        let now = find(&now.prefill_amortisation, kernel);
        say!(out, "{isa} {kernel}: m = 64 row over m = 1 call {now:.2} (committed {was:.2})");
        gates.at_most(format!("{isa} {kernel}: m = 64 row over m = 1 call against committed {was:.2}"), now, 1.1 * was);
    }
    for was in &was.layer {
        let row = now.layer.iter().find(|r| (r.m, r.past) == (was.m, was.past)).expect("layer shape present in both reports");
        let now = row.layer_over_gemm;
        say!(out,
            "{isa} m = {}, past = {}: layer over its GEMMs {now:.2} (committed {:.2})",
            was.m, was.past, was.layer_over_gemm
        );
        gates.record(
            now <= 1.1 * was.layer_over_gemm,
            format!(
                "{isa} m = {}, past = {}: layer over its GEMMs against committed {:.2}",
                was.m, was.past, was.layer_over_gemm
            ),
            now,
            Some(row.layer_over_gemm_rounds),
            "<=",
            1.1 * was.layer_over_gemm,
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
    let mut gates = Gates::default();
    if args.has("--check-ordering") {
        report.sections.iter().for_each(|s| check_ordering(out, s, &mut gates));
    }
    if let Some(committed) = committed {
        for now in &report.sections {
            let was = committed.sections.iter().find(|was| was.isa == now.isa);
            let was = was.unwrap_or_else(|| panic!("the committed report has no {} section", now.isa));
            compare(out, now, was, &mut gates);
        }
        for was in committed.sections.iter().filter(|was| report.sections.iter().all(|now| now.isa != was.isa)) {
            say!(out, "committed {} section not compared: this host cannot run that instantiation", was.isa);
        }
    }
    gates.finish(out);
}
