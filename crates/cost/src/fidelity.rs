//! Cost-model fidelity evaluation (Figure 7).
//!
//! The paper validates both cost models against real systems: memory on
//! BLOOM-560m/1b7 and OPT-13b/30b/66b with random shapes and precisions,
//! latency on 50 unseen workloads per device. This module reproduces the
//! protocol with the simulator as the "real system".
//!
//! [`stage_crosscheck`] extends the protocol to *live runs*: the
//! telemetry layer (`llmpq-runtime`'s `telemetry` module) observes each
//! stage's busy time, and the cross-check compares those against
//! [`predicted_stage_seconds`] from the analytical model, so every
//! traced pipeline run doubles as a cost-model validation experiment.

use crate::latency::CostDb;
use crate::memory::{stage_memory, MemoryJob};
use llmpq_cluster::GpuModel;
use llmpq_model::{ModelSpec, PhaseWorkload};
use llmpq_quant::Bitwidth;
use llmpq_sim::{layer_latency, measured_peak_memory, KernelEnv, PipelineWorkload, StageLoad};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Error statistics of a fidelity run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Number of evaluated cases.
    pub n: usize,
    /// Mean absolute relative error.
    pub mean_rel_err: f64,
    /// Maximum absolute relative error.
    pub max_rel_err: f64,
}

impl FidelityReport {
    fn from_errors(errs: &[f64]) -> Self {
        assert!(!errs.is_empty());
        Self {
            n: errs.len(),
            mean_rel_err: errs.iter().sum::<f64>() / errs.len() as f64,
            max_rel_err: errs.iter().cloned().fold(0.0, f64::max),
        }
    }
}

/// Memory fidelity: random workloads per the paper's protocol — prompt
/// length uniform in [128, 512], batch in {2,4,8}, generation in
/// [100, 200], random per-layer precision.
pub fn memory_fidelity(spec: &ModelSpec, cases: usize, seed: u64) -> FidelityReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut errs = Vec::with_capacity(cases);
    for _ in 0..cases {
        let s = rng.gen_range(128..=512);
        let batch = *[2usize, 4, 8].get(rng.gen_range(0..3)).unwrap();
        let n = rng.gen_range(100..=200);
        let n_layers = rng.gen_range(2..=spec.n_layers.min(12));
        let bits: Vec<Bitwidth> = (0..n_layers)
            .map(|_| Bitwidth::ALL[rng.gen_range(0..4)])
            .collect();
        let with_embed = rng.gen_bool(0.3);
        let pred = stage_memory(spec, &bits, &MemoryJob::unsplit(batch, s, n, 16.0), with_embed, 1).total();
        let meas = measured_peak_memory(spec, &bits, batch, batch, s, n, 16.0, with_embed);
        errs.push((pred - meas).abs() / meas);
    }
    FidelityReport::from_errors(&errs)
}

/// Latency fidelity: `cases` unseen workloads per device with batch in
/// {3,5,7} and past length in {384, 768} — shapes absent from the
/// profiling grid, matching §6.2.
pub fn latency_fidelity(
    db: &CostDb,
    env: &KernelEnv,
    spec: &ModelSpec,
    devices: &[GpuModel],
    cases: usize,
    seed: u64,
) -> FidelityReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut errs = Vec::new();
    for _ in 0..cases {
        let gpu = devices[rng.gen_range(0..devices.len())];
        let bits = Bitwidth::ALL[rng.gen_range(0..4)];
        let batch = *[3usize, 5, 7].get(rng.gen_range(0..3)).unwrap();
        let s = rng.gen_range(128..=512);
        let w = if rng.gen_bool(0.5) {
            PhaseWorkload::prefill(batch, s)
        } else {
            let past = *[384usize, 768].get(rng.gen_range(0..2)).unwrap();
            PhaseWorkload::decode(batch, s, past)
        };
        let pred = db.layer_latency(gpu, spec, &w, bits);
        let truth = layer_latency(&gpu.spec(), env, spec, &w, bits, 16.0);
        errs.push((pred - truth).abs() / truth);
    }
    FidelityReport::from_errors(&errs)
}

/// Predicted vs observed compute time of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCrosscheck {
    /// Stage index.
    pub stage: usize,
    /// Analytical prediction of the stage's total compute seconds.
    pub predicted_s: f64,
    /// Observed busy seconds (from telemetry / stage metrics).
    pub observed_s: f64,
    /// `|predicted − observed| / observed` (0 when both are 0).
    pub rel_err: f64,
    /// Predicted share of the pipeline's total compute.
    pub predicted_share: f64,
    /// Observed share of the pipeline's total compute.
    pub observed_share: f64,
    /// `|predicted_share − observed_share|` — the *balance* error, which
    /// stays meaningful even when the absolute scales differ (e.g. a
    /// CPU stand-in executing a plan costed for GPUs).
    pub share_err: f64,
}

/// Analytical per-stage total compute seconds for one batch job:
/// `prefill_time × prefill µ-batches + decode_time × decode µ-batches ×
/// (n − 1)` (the first token comes from prefill logits, the remaining
/// `n − 1` from decode steps).
pub fn predicted_stage_seconds(loads: &[StageLoad], wl: &PipelineWorkload) -> Vec<f64> {
    loads
        .iter()
        .map(|l| {
            l.prefill_time * wl.prefill_microbatches as f64
                + l.decode_time
                    * wl.decode_microbatches as f64
                    * wl.n_tokens.saturating_sub(1) as f64
        })
        .collect()
}

/// Cross-check analytical per-stage compute predictions against
/// observed busy seconds. Both slices must have the same length; returns
/// one row per stage plus both error views (absolute relative error and
/// pipeline-share error — the latter is scale-free, see
/// [`StageCrosscheck::share_err`]).
pub fn stage_crosscheck(predicted_s: &[f64], observed_s: &[f64]) -> Vec<StageCrosscheck> {
    assert_eq!(
        predicted_s.len(),
        observed_s.len(),
        "predicted and observed stage counts must match"
    );
    let pred_total: f64 = predicted_s.iter().sum();
    let obs_total: f64 = observed_s.iter().sum();
    predicted_s
        .iter()
        .zip(observed_s)
        .enumerate()
        .map(|(stage, (&p, &o))| {
            let rel_err = if o > 0.0 {
                (p - o).abs() / o
            } else if p > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            let predicted_share = if pred_total > 0.0 { p / pred_total } else { 0.0 };
            let observed_share = if obs_total > 0.0 { o / obs_total } else { 0.0 };
            StageCrosscheck {
                stage,
                predicted_s: p,
                observed_s: o,
                rel_err,
                predicted_share,
                observed_share,
                share_err: (predicted_share - observed_share).abs(),
            }
        })
        .collect()
}

/// One observed inter-stage link, as counted by the transport layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkObservation {
    /// Link index (link `i` carries traffic *into* stage `i`; the last
    /// link returns activations to the master).
    pub link: usize,
    /// Total payload + framing bytes that crossed the link.
    pub bytes: f64,
    /// Number of frames (messages) that crossed the link.
    pub frames: u64,
    /// Observed wall-clock seconds spent in transfer (summed comm spans).
    pub observed_s: f64,
}

/// Predicted vs observed transfer time of one link, the communication
/// analog of [`StageCrosscheck`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkCrosscheck {
    /// Link index.
    pub link: usize,
    /// α-β model prediction: `frames × latency + bytes / bandwidth`.
    pub predicted_s: f64,
    /// Observed transfer seconds.
    pub observed_s: f64,
    /// `|predicted − observed| / observed` (0 when both are 0).
    pub rel_err: f64,
}

/// Cross-check the interconnect α-β model against transfer times
/// observed by the wire transport (per-link byte/frame counters and
/// comm spans from telemetry). Each frame pays the link's one-way
/// latency once; bytes stream at the link's sustained bandwidth:
/// `predicted = frames × α + bytes / β`.
///
/// On loopback runs pass [`llmpq_cluster::interconnect::Link::loopback`]
/// as the model; in a real deployment, the link class from the cluster
/// spec.
pub fn link_crosscheck(
    link_model: &llmpq_cluster::interconnect::Link,
    observed: &[LinkObservation],
) -> Vec<LinkCrosscheck> {
    observed
        .iter()
        .map(|o| {
            let predicted_s =
                o.frames as f64 * link_model.latency_s + o.bytes / link_model.bandwidth_bps;
            let rel_err = if o.observed_s > 0.0 {
                (predicted_s - o.observed_s).abs() / o.observed_s
            } else if predicted_s > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            LinkCrosscheck { link: o.link, predicted_s, observed_s: o.observed_s, rel_err }
        })
        .collect()
}

/// One measured kernel data point: sustained throughput of the serving
/// GEMM at a given weight precision. Units are free (tokens/s, effective
/// GB/s…) as long as they are consistent across the set — the cross-check
/// only consumes *ratios*.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelObservation {
    /// Weight bitwidth of the measured kernel.
    pub bits: Bitwidth,
    /// Measured sustained throughput (any consistent unit).
    pub throughput: f64,
}

/// Predicted vs observed speedup of a quantized kernel over FP16 — the
/// kernel-level analog of [`StageCrosscheck`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelCrosscheck {
    /// Weight bitwidth.
    pub bits: Bitwidth,
    /// Roofline-model speedup over FP16: `latency(fp16) / latency(bits)`
    /// under the device's [`KernelEnv`] efficiency tables.
    pub predicted_speedup: f64,
    /// Measured speedup over FP16: `throughput(bits) / throughput(fp16)`.
    pub observed_speedup: f64,
    /// `|predicted − observed| / observed` (∞ when observed is 0 but
    /// predicted is not).
    pub rel_err: f64,
}

/// Cross-check measured per-bitwidth kernel throughput against the
/// simulator's roofline tables. Absolute scales never match (the bench
/// host is not the modeled GPU), so both sides are normalized to their
/// own FP16 baseline and only the *speedup ratios* are compared — the
/// quantity the planner actually consumes when trading precision for
/// latency.
///
/// `observed` must contain an [`Bitwidth::Fp16`] entry with nonzero
/// throughput to serve as the baseline; rows are returned for every
/// non-FP16 observation, in input order.
pub fn kernel_crosscheck(
    dev: &llmpq_cluster::DeviceSpec,
    env: &KernelEnv,
    spec: &ModelSpec,
    w: &PhaseWorkload,
    kv_bits: f64,
    observed: &[KernelObservation],
) -> Vec<KernelCrosscheck> {
    let base = observed
        .iter()
        .find(|o| o.bits == Bitwidth::Fp16 && o.throughput > 0.0)
        .expect("kernel_crosscheck needs an fp16 baseline observation");
    let fp16_latency = layer_latency(dev, env, spec, w, Bitwidth::Fp16, kv_bits);
    observed
        .iter()
        .filter(|o| o.bits != Bitwidth::Fp16)
        .map(|o| {
            let predicted_speedup =
                fp16_latency / layer_latency(dev, env, spec, w, o.bits, kv_bits);
            let observed_speedup = o.throughput / base.throughput;
            let rel_err = if observed_speedup > 0.0 {
                (predicted_speedup - observed_speedup).abs() / observed_speedup
            } else if predicted_speedup > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            KernelCrosscheck { bits: o.bits, predicted_speedup, observed_speedup, rel_err }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerConfig;
    use llmpq_model::zoo;

    #[test]
    fn memory_error_negligible_across_models() {
        for spec in [zoo::bloom_560m(), zoo::opt_13b()] {
            let r = memory_fidelity(&spec, 40, 11);
            assert!(
                r.mean_rel_err < 0.01,
                "{}: mean memory err {:.3}%",
                spec.name,
                r.mean_rel_err * 100.0
            );
        }
    }

    #[test]
    fn latency_error_below_six_percent() {
        let spec = zoo::opt_30b();
        let env = KernelEnv::default();
        let devices = [GpuModel::T4_16G, GpuModel::V100_32G, GpuModel::A100_40G];
        let specs: Vec<_> = devices.iter().map(|g| g.spec()).collect();
        let db = CostDb::fit(&specs, &env, &spec, &ProfilerConfig::default());
        let r = latency_fidelity(&db, &env, &spec, &devices, 50, 3);
        assert!(
            r.mean_rel_err < 0.06,
            "mean latency err {:.2}%",
            r.mean_rel_err * 100.0
        );
        assert_eq!(r.n, 50);
    }

    #[test]
    fn report_statistics_consistent() {
        let r = FidelityReport::from_errors(&[0.01, 0.03, 0.02]);
        assert_eq!(r.n, 3);
        assert!((r.mean_rel_err - 0.02).abs() < 1e-12);
        assert_eq!(r.max_rel_err, 0.03);
    }

    #[test]
    fn predicted_stage_seconds_combines_phases() {
        let loads = vec![
            StageLoad { prefill_time: 0.5, decode_time: 0.01, comm_prefill: 0.0, comm_decode: 0.0 },
            StageLoad { prefill_time: 0.2, decode_time: 0.04, comm_prefill: 0.0, comm_decode: 0.0 },
        ];
        let wl = PipelineWorkload {
            prefill_microbatches: 4,
            decode_microbatches: 2,
            n_tokens: 11,
            master_prefill: 0.0,
            master_decode: 0.0,
        };
        let pred = predicted_stage_seconds(&loads, &wl);
        assert!((pred[0] - (0.5 * 4.0 + 0.01 * 2.0 * 10.0)).abs() < 1e-12);
        assert!((pred[1] - (0.2 * 4.0 + 0.04 * 2.0 * 10.0)).abs() < 1e-12);
    }

    #[test]
    fn crosscheck_exact_match_has_zero_error() {
        let rows = stage_crosscheck(&[1.0, 3.0], &[1.0, 3.0]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.rel_err, 0.0);
            assert_eq!(r.share_err, 0.0);
        }
        assert!((rows[0].observed_share - 0.25).abs() < 1e-12);
        assert!((rows[1].predicted_share - 0.75).abs() < 1e-12);
    }

    #[test]
    fn crosscheck_share_error_is_scale_free() {
        // Prediction 100× off in absolute scale but perfectly balanced:
        // rel_err is huge, share_err is zero. This is exactly the
        // CPU-stand-in-vs-GPU-costing situation.
        let rows = stage_crosscheck(&[100.0, 300.0], &[1.0, 3.0]);
        assert!(rows.iter().all(|r| r.rel_err > 10.0));
        assert!(rows.iter().all(|r| r.share_err < 1e-12));
    }

    #[test]
    fn crosscheck_handles_zero_observed() {
        let rows = stage_crosscheck(&[0.0, 1.0], &[0.0, 2.0]);
        assert_eq!(rows[0].rel_err, 0.0, "0 vs 0 is a perfect match");
        assert!((rows[1].rel_err - 0.5).abs() < 1e-12);
        let inf = stage_crosscheck(&[1.0], &[0.0]);
        assert!(inf[0].rel_err.is_infinite());
    }

    #[test]
    fn link_crosscheck_applies_alpha_beta_per_frame() {
        let link = llmpq_cluster::interconnect::Link { bandwidth_bps: 1e9, latency_s: 1e-5 };
        let obs = vec![LinkObservation { link: 0, bytes: 1e6, frames: 100, observed_s: 2e-3 }];
        let rows = link_crosscheck(&link, &obs);
        assert_eq!(rows.len(), 1);
        // 100 frames × 10 µs + 1 MB / 1 GB/s = 1 ms + 1 ms = 2 ms.
        assert!((rows[0].predicted_s - 2e-3).abs() < 1e-12);
        assert!(rows[0].rel_err < 1e-9, "exact match: {:?}", rows[0]);
    }

    #[test]
    fn link_crosscheck_handles_idle_links() {
        let link = llmpq_cluster::interconnect::Link::loopback();
        let rows = link_crosscheck(
            &link,
            &[
                LinkObservation { link: 0, bytes: 0.0, frames: 0, observed_s: 0.0 },
                LinkObservation { link: 1, bytes: 1e3, frames: 1, observed_s: 0.0 },
            ],
        );
        assert_eq!(rows[0].rel_err, 0.0, "idle link is a perfect match");
        assert!(rows[1].rel_err.is_infinite(), "traffic with no observed time");
    }

    #[test]
    fn kernel_crosscheck_zero_error_on_exact_ratios() {
        // Feed back the model's own speedups as "measurements": every
        // rel_err must collapse to zero regardless of absolute scale.
        let dev = GpuModel::A100_40G.spec();
        let env = KernelEnv::default();
        let spec = zoo::opt_13b();
        let w = PhaseWorkload::decode(8, 512, 512);
        let fp16 = layer_latency(&dev, &env, &spec, &w, Bitwidth::Fp16, 16.0);
        let scale = 1234.5; // arbitrary measurement unit
        let obs: Vec<KernelObservation> = [Bitwidth::Fp16, Bitwidth::Int8, Bitwidth::Int4]
            .iter()
            .map(|&bits| KernelObservation {
                bits,
                throughput: scale * fp16 / layer_latency(&dev, &env, &spec, &w, bits, 16.0),
            })
            .collect();
        let rows = kernel_crosscheck(&dev, &env, &spec, &w, 16.0, &obs);
        assert_eq!(rows.len(), 2, "one row per non-fp16 observation");
        for r in &rows {
            assert!(r.rel_err < 1e-12, "{:?}", r);
            assert!(r.predicted_speedup > 1.0, "decode should favor low bits: {:?}", r);
        }
    }

    #[test]
    fn kernel_crosscheck_flags_mismatched_ratios() {
        let dev = GpuModel::V100_32G.spec();
        let env = KernelEnv::default();
        let spec = zoo::opt_13b();
        let w = PhaseWorkload::decode(8, 512, 512);
        let obs = [
            KernelObservation { bits: Bitwidth::Fp16, throughput: 100.0 },
            // Claim int4 is *slower* than fp16 in decode — the roofline
            // predicts a clear speedup, so the error must be large.
            KernelObservation { bits: Bitwidth::Int4, throughput: 50.0 },
        ];
        let rows = kernel_crosscheck(&dev, &env, &spec, &w, 16.0, &obs);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].rel_err > 0.5, "{:?}", rows[0]);
        assert!(rows[0].rel_err.is_finite());
    }

    #[test]
    #[should_panic(expected = "fp16 baseline")]
    fn kernel_crosscheck_requires_fp16_baseline() {
        let dev = GpuModel::T4_16G.spec();
        let obs = [KernelObservation { bits: Bitwidth::Int8, throughput: 10.0 }];
        kernel_crosscheck(
            &dev,
            &KernelEnv::default(),
            &zoo::opt_13b(),
            &PhaseWorkload::decode(4, 256, 256),
            16.0,
            &obs,
        );
    }

    #[test]
    fn loopback_link_is_fast_but_not_free() {
        let l = llmpq_cluster::interconnect::Link::loopback();
        assert!(l.transfer_time(0.0) > 0.0);
        // 1 MB on loopback lands in the hundreds-of-microseconds regime.
        let t = l.transfer_time(1e6);
        assert!(t > 1e-5 && t < 1e-2, "loopback 1MB: {t}");
    }
}
