//! Figure 3: phase time decomposition with different precisions,
//! P100 vs V100.
//!
//! Regenerates the per-layer prefill/decode execution times at prompt
//! length 512, batch size 8, for FP16/INT8/INT4/INT3 on both devices,
//! with the P100/V100 ratio annotated. Paper shape: the P100/V100 gap is
//! far larger in (compute-bound) prefill than in (bandwidth-bound)
//! decode — paper quotes 14.53× for prefill under FP16 — which is why
//! single-phase partitioning mis-balances heterogeneous pipelines.

use crate::{Args, Out, TextTable};
use llmpq_cluster::GpuModel;
use llmpq_model::{zoo, PhaseWorkload};
use llmpq_quant::Bitwidth;
use llmpq_sim::{layer_latency, KernelEnv};

pub fn run(out: &mut Out, _: &Args) {
    let spec = zoo::opt_13b();
    let env = KernelEnv::default();
    let pre = PhaseWorkload::prefill(8, 512);
    let dec = PhaseWorkload::decode(8, 512, 512);
    say!(out, "Figure 3 — single {} layer, s=512, b=8\n", spec.name);

    let mut t = TextTable::new(&["Precision", "Phase", "V100 (ms)", "P100 (ms)", "P100/V100"]);
    for bits in [Bitwidth::Fp16, Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int3] {
        for (phase, w) in [("prefill", &pre), ("decode", &dec)] {
            let v = layer_latency(&GpuModel::V100_32G.spec(), &env, &spec, w, bits, 16.0);
            let p = layer_latency(&GpuModel::P100_12G.spec(), &env, &spec, w, bits, 16.0);
            t.row(vec![
                bits.to_string(),
                phase.into(),
                format!("{:.3}", v * 1e3),
                format!("{:.3}", p * 1e3),
                format!("{:.2}x", p / v),
            ]);
        }
    }
    out.table(&t);

    let v_pre = layer_latency(&GpuModel::V100_32G.spec(), &env, &spec, &pre, Bitwidth::Fp16, 16.0);
    let p_pre = layer_latency(&GpuModel::P100_12G.spec(), &env, &spec, &pre, Bitwidth::Fp16, 16.0);
    let v_dec = layer_latency(&GpuModel::V100_32G.spec(), &env, &spec, &dec, Bitwidth::Fp16, 16.0);
    let p_dec = layer_latency(&GpuModel::P100_12G.spec(), &env, &spec, &dec, Bitwidth::Fp16, 16.0);
    say!(out, "Paper shape check (FP16): prefill ratio {:.2}x vs decode ratio {:.2}x", p_pre / v_pre, p_dec / v_dec);
    say!(out, "(paper reports the prefill gap at 14.53x and a much smaller decode gap;");
    say!(out, " the divergence between the two ratios is the phase-awareness motivation)");
}
