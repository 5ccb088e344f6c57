//! Figure 5: prefill/decode execution time under different precisions
//! and batch sizes.
//!
//! Regenerates the grid: one OPT-30b layer, prompt length 512, batch
//! sizes 1–32, precisions {FP16, INT8, INT4, INT3} on T4, V100 and
//! A100. Paper shapes to reproduce:
//!  * FP16 is often fastest in prefill (quantization overhead);
//!  * low-precision weight-only kernels win decode (weight traffic);
//!  * T4's INT8 ≈ FP16 while V100's INT8 is always slower.
//!
//! A final section grounds the modeled grid in *measured* numbers: the
//! repo's fused dequant-GEMM (`llmpq-kernels`) is timed on this host at
//! the decode shape, and [`kernel_crosscheck`] compares the measured
//! fp16-relative speedups against the same roofline tables that
//! produced the grid above.

use crate::{Args, Out, TextTable};
use llmpq_cluster::GpuModel;
use llmpq_cost::{kernel_crosscheck, KernelObservation};
use llmpq_kernels::qgemm_t;
use llmpq_model::{zoo, Matrix, PhaseWorkload};
use llmpq_quant::{quantize_matrix, Bitwidth, Rounding};
use llmpq_sim::{layer_latency, KernelEnv};
use std::hint::black_box;
use std::time::Instant;

/// Measured decode-shape (m = 1) per-call seconds for dense f32 and each
/// packed precision, interleaved round-robin so machine drift hits every
/// kernel alike.
fn measure_decode(nk: usize) -> Vec<KernelObservation> {
    let w = Matrix::random(nk, nk, 0.2, 5);
    let x = Matrix::random(1, nk, 0.5, 9);
    let packs: Vec<_> = [Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int3]
        .iter()
        .map(|&b| {
            (b, quantize_matrix(&w, b, Rounding::Deterministic, 3).to_packed(llmpq_kernels::DEFAULT_GROUP))
        })
        .collect();
    let mut best = vec![f64::INFINITY; 1 + packs.len()];
    black_box(x.matmul_t(&w));
    for (_, p) in &packs {
        black_box(qgemm_t(&x.data, 1, p));
    }
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..2 {
            black_box(x.matmul_t(black_box(&w)));
        }
        best[0] = best[0].min(t0.elapsed().as_secs_f64() / 2.0);
        for (i, (_, p)) in packs.iter().enumerate() {
            let t0 = Instant::now();
            for _ in 0..2 {
                black_box(qgemm_t(black_box(&x.data), 1, black_box(p)));
            }
            best[1 + i] = best[1 + i].min(t0.elapsed().as_secs_f64() / 2.0);
        }
    }
    let mut obs = vec![KernelObservation { bits: Bitwidth::Fp16, throughput: 1.0 / best[0] }];
    for (i, (b, _)) in packs.iter().enumerate() {
        obs.push(KernelObservation { bits: *b, throughput: 1.0 / best[1 + i] });
    }
    obs
}

#[allow(clippy::type_complexity)]
pub fn run(out: &mut Out, _: &Args) {
    let spec = zoo::opt_30b();
    let env = KernelEnv::default();
    say!(out, "Figure 5 — single {} layer, s=512\n", spec.name);

    for gpu in [GpuModel::T4_16G, GpuModel::V100_32G, GpuModel::A100_40G] {
        let dev = gpu.spec();
        let phases: [(&str, fn(usize) -> PhaseWorkload); 2] = [
            ("prefill", |b| PhaseWorkload::prefill(b, 512)),
            ("decode", |b| PhaseWorkload::decode(b, 512, 512)),
        ];
        for (phase_name, mk) in phases {
            let mut t = TextTable::new(&["batch", "fp16 (ms)", "int8 (ms)", "int4 (ms)", "int3 (ms)", "fastest"]);
            for b in [1usize, 2, 4, 8, 16, 32] {
                let w = mk(b);
                let times: Vec<(Bitwidth, f64)> = [Bitwidth::Fp16, Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int3]
                    .iter()
                    .map(|&bits| (bits, layer_latency(&dev, &env, &spec, &w, bits, 16.0)))
                    .collect();
                let fastest = times
                    .iter()
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .unwrap()
                    .0;
                t.row(vec![
                    b.to_string(),
                    format!("{:.3}", times[0].1 * 1e3),
                    format!("{:.3}", times[1].1 * 1e3),
                    format!("{:.3}", times[2].1 * 1e3),
                    format!("{:.3}", times[3].1 * 1e3),
                    fastest.to_string(),
                ]);
            }
            say!(out, "{gpu} / {phase_name}:");
            out.table(&t);
        }
    }
    // Measured grounding: the repo's fused dequant-GEMM on this host at
    // the decode shape, cross-checked (fp16-relative ratios) against the
    // same roofline tables that produced the modeled grid.
    let obs = measure_decode(4096);
    let gpu = GpuModel::A100_40G;
    let rows = kernel_crosscheck(
        &gpu.spec(),
        &env,
        &spec,
        &PhaseWorkload::decode(8, 512, 512),
        16.0,
        &obs,
    );
    let mut t = TextTable::new(&["bits", "predicted speedup", "measured speedup", "rel err"])
        .measured(&["measured speedup", "rel err"]);
    for r in &rows {
        t.row(vec![
            r.bits.to_string(),
            format!("{:.2}x", r.predicted_speedup),
            format!("{:.2}x", r.observed_speedup),
            format!("{:.2}", r.rel_err),
        ]);
    }
    say!(out, "Measured fused-kernel decode speedups (this host, m=1 n=k=4096) vs");
    say!(out, "{gpu} roofline — kernel_crosscheck rel_err on fp16-relative ratios:");
    out.table(&t);
    assert!(
        rows.iter().all(|r| r.rel_err.is_finite()),
        "kernel_crosscheck must produce finite rel_err for every precision"
    );
    say!(out, "Paper shape check: FP16 should dominate prefill columns on compute-rich");
    say!(out, "devices, while int4/int3 dominate decode; T4's int8 stays close to fp16;");
    say!(out, "measured speedups land within the roofline's band (finite rel_err).");
}
