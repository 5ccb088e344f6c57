//! Kernel-level throughput of the packed dequant-GEMM subsystem.
//!
//! Measures, on the host CPU, what Fig 5 measures on GPUs: sustained
//! weight throughput of the serving GEMM at each precision, for both
//! phases (prefill `m>1`, decode `m=1`), plus the dequantize-then-f32
//! baseline the fused kernel must beat. Decode is judged in
//! **effective FP16-equivalent GB/s** — `(n·k·2 bytes) / time` — so a
//! kernel that moves fewer physical bytes per weight shows up as a
//! higher effective rate, exactly the quantity the planner's roofline
//! tables model. Prefill is compute-bound and judged in **GFLOP/s**
//! (`2·m·n·k / time`); the prefill shape is run at `m = 1`, the phase's
//! usual `m`, and `m = 64` (one serving chunk), so the table shows how
//! far staging each weight tile once per row block amortises.
//!
//! Also emits end-to-end tokens/s through the reference model at each
//! precision ladder rung, the solver's wall-clock overhead (the other
//! latency the serving path pays), and a [`kernel_crosscheck`] row per
//! quantized precision comparing the measured decode speedup over FP16
//! with the speedup the simulator's `KernelEnv` roofline predicts for a
//! modeled device.
//!
//! Flags: `--quick` (small shapes, CI-friendly), `--check-ordering`
//! (assert fused beats dequant-then-GEMM, effective GB/s orders
//! int4 ≥ int8 ≥ fp16 in decode, and a fused `m = 64` prefill row costs
//! at most a third of the `m = 1` call at the same shape), `--out PATH`
//! (default `BENCH_kernels.json`).

use llmpq_bench::quality::zoo_indicator;
use llmpq_bench::serving::ServingSetup;
use llmpq_bench::TextTable;
use llm_pq::{assign, SolverChoice};
use llmpq_cluster::GpuModel;
use llmpq_cost::{kernel_crosscheck, CostDb, KernelCrosscheck, KernelObservation};
use llmpq_kernels::{qgemm_t, PackedMatrix};
use llmpq_model::{Matrix, PhaseWorkload, RefConfig, RefModel};
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
    gemm: Vec<GemmRow>,
    tokens: Vec<TokensRow>,
    solver: SolverRow,
    /// Measured decode speedups vs the roofline prediction on a modeled
    /// device (scale-free ratio comparison).
    crosscheck_device: String,
    crosscheck: Vec<KernelCrosscheck>,
    fused_beats_dequant_decode: bool,
    decode_ordering_int4_int8_fp16: bool,
    /// Fused `m = 64` time per row over fused `m = 1` time at the
    /// prefill shape, per precision; the gate is ≤ 1/3.
    prefill_amortisation: Vec<(String, f64)>,
}

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

fn gemm_suite(quick: bool, rows: &mut Vec<GemmRow>) {
    // Decode is the memory-bound phase: m = 1, square weight sized to
    // spill L2 even in quick mode so the run measures sustained traffic
    // (cache-resident shapes are instruction-bound and rank precisions
    // by vectorization luck, not by bytes moved).
    // The decode shape stays 4096 even in quick mode: smaller weights sit
    // in cache, where all precisions run at the same instructions/element
    // pace and the traffic-proportional ordering disappears into noise.
    let (dec_nk, pre_nk, pre_m) = if quick { (4096, 512, 16) } else { (4096, 1024, 32) };
    let (iters, rounds) = if quick { (2, 3) } else { (4, 5) };

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
        for ((kernel, _), s) in kernels.iter().zip(&times) {
            rows.push(GemmRow {
                phase,
                kernel: kernel.clone(),
                m,
                n: nk,
                k: nk,
                ms: s * 1e3,
                effective_gbs: eq_bytes / s / 1e9,
                gflops: (2 * m * nk * nk) as f64 / s / 1e9,
            });
        }
    }
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check-ordering");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_kernels.json".into());

    println!("bench_kernels — packed dequant-GEMM throughput{}\n", if quick { " (quick)" } else { "" });

    let mut gemm = Vec::new();
    gemm_suite(quick, &mut gemm);

    let mut t = TextTable::new(&["phase", "kernel", "m", "n=k", "ms", "eff GB/s (fp16-eq)", "GFLOP/s"]);
    for r in &gemm {
        t.row(vec![
            r.phase.into(),
            r.kernel.clone(),
            r.m.to_string(),
            r.n.to_string(),
            format!("{:.3}", r.ms),
            format!("{:.2}", r.effective_gbs),
            format!("{:.2}", r.gflops),
        ]);
    }
    println!("{}", t.render());

    let tokens = tokens_suite(quick);
    let mut t = TextTable::new(&["bits", "prefill tok/s", "decode tok/s"]);
    for r in &tokens {
        t.row(vec![
            r.bits.clone(),
            format!("{:.1}", r.prefill_tok_s),
            format!("{:.1}", r.decode_tok_s),
        ]);
    }
    println!("{}", t.render());

    let solver = solver_suite();
    println!(
        "solver overhead: cluster {} {} -> {:.3} s ({:.1} tok/s plan)\n",
        solver.cluster, solver.solver, solver.overhead_s, solver.throughput_tok_s
    );

    // Cross-check measured decode speedups against the roofline tables
    // for a modeled device. Absolute scales differ (CPU vs modeled GPU);
    // only the fp16-relative ratios are compared.
    let eff = |kernel: &str| {
        gemm.iter()
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
    println!("decode speedup vs {gpu} roofline:\n{}", t.render());

    let fused_beats_dequant = [Bitwidth::Int8, Bitwidth::Int4].iter().all(|&b| {
        eff(&format!("fused-{b}")) > eff(&format!("dequant-then-f32-{b}"))
    });
    // int8 must clearly beat dense f32 (the margin is large); int4 must
    // not fall materially below int8. The 3% tie tolerance covers the
    // cache-resident regime, where both packed kernels run at the same
    // instructions-per-element pace and only measurement noise separates
    // them — a real int4 regression (like a scalarized unpack) shows up
    // as tens of percent, far outside it.
    let ordering = eff("fused-int4") >= 0.97 * eff("fused-int8")
        && eff("fused-int8") >= eff("dense-f32");
    println!(
        "fused {} dequant-then-f32 in decode; effective-GB/s ordering int4 >= int8 >= fp16 {}",
        if fused_beats_dequant { "beats" } else { "DOES NOT beat" },
        if ordering { "holds (3% tie tolerance)" } else { "DOES NOT hold" },
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
            println!("{kernel}: one row of an m = {CHUNK_M} prefill costs {ratio:.2} of an m = 1 call");
            (kernel, ratio)
        })
        .collect();

    let report = Report {
        bench: "bench_kernels",
        quick,
        gemm,
        tokens,
        solver,
        crosscheck_device: gpu.to_string(),
        crosscheck,
        fused_beats_dequant_decode: fused_beats_dequant,
        decode_ordering_int4_int8_fp16: ordering,
        prefill_amortisation,
    };
    match std::fs::write(&out_path, serde_json::to_string_pretty(&report).expect("serializable") + "\n") {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    if check {
        assert!(
            fused_beats_dequant,
            "fused dequant-GEMM must beat the dequantize-then-f32 baseline in decode"
        );
        assert!(
            ordering,
            "decode effective GB/s must order int4 >= int8 >= fp16"
        );
        for (kernel, ratio) in &report.prefill_amortisation {
            assert!(
                *ratio <= 1.0 / 3.0,
                "{kernel}: a prefill row must cost at most 1/3 of an m = 1 call, got {ratio:.2}"
            );
        }
    }
}
