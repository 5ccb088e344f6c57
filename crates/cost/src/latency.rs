//! Learned latency cost model (paper §4.1, "Latency Cost Model").
//!
//! "GEMM takes more than 80% latency and is either FLOPs- and MOPs-
//! related, while the other operators scale with MOPs, thus workload can
//! be shaped and scaled by the previous parameters." Accordingly, for
//! every (device, bitwidth, phase) triple we fit by ordinary least
//! squares
//!
//! ```text
//! latency ≈ β₀ + β₁·FLOPs + β₂·MOPs(bits)
//! ```
//!
//! on the profiler's samples and interpolate to unseen shapes — the
//! paper's `--fit` path. The `--use_profiler_prediction` path (query the
//! profiler directly) is available as [`CostDb::oracle`].

use crate::profiler::{profile_device, ProfileSample, ProfilerConfig};
use llmpq_cluster::{DeviceSpec, GpuModel};
use llmpq_model::{flops, ModelSpec, Phase, PhaseWorkload};
use llmpq_quant::Bitwidth;
use llmpq_sim::{embedding_latency, tp_layer_latency, KernelEnv, TpGroup};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Feature scaling keeps the normal equations well-conditioned.
const FLOPS_SCALE: f64 = 1e12;
const BYTES_SCALE: f64 = 1e9;

fn features(spec: &ModelSpec, w: &PhaseWorkload, bits: Bitwidth, kv_bits: f64) -> [f64; 3] {
    let c = flops::layer_cost(spec, w);
    [1.0, c.flops / FLOPS_SCALE, c.total_bytes(bits.bits_f64(), kv_bits) / BYTES_SCALE]
}

/// Solve a 3×3 linear system by Gaussian elimination with partial
/// pivoting. Returns `None` if singular.
#[allow(clippy::needless_range_loop)]
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..3 {
            let f = a[row][col] / a[col][col];
            for k in col..3 {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0f64; 3];
    for col in (0..3).rev() {
        let mut acc = b[col];
        for k in col + 1..3 {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// A training row for the regression: `(features, observed latency)`.
pub type FitRow = ([f64; 3], f64);

/// One fitted regression.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// `[β₀, β₁ (per scaled FLOP), β₂ (per scaled byte)]`.
    pub coeffs: [f64; 3],
}

impl LatencyModel {
    /// Ordinary least squares over `(features, latency)` rows.
    pub fn fit(rows: &[FitRow]) -> Option<LatencyModel> {
        if rows.len() < 3 {
            return None;
        }
        let mut xtx = [[0.0f64; 3]; 3];
        let mut xty = [0.0f64; 3];
        for (x, y) in rows {
            for i in 0..3 {
                for j in 0..3 {
                    xtx[i][j] += x[i] * x[j];
                }
                xty[i] += x[i] * y;
            }
        }
        // Tiny ridge for numerical safety on degenerate grids.
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += 1e-9;
        }
        solve3(xtx, xty).map(|coeffs| LatencyModel { coeffs })
    }

    /// Predicted latency for a feature vector, clamped non-negative.
    pub fn predict(&self, x: &[f64; 3]) -> f64 {
        (self.coeffs[0] * x[0] + self.coeffs[1] * x[1] + self.coeffs[2] * x[2]).max(0.0)
    }
}

/// How latencies are estimated.
#[derive(Debug, Clone)]
enum Source {
    /// Fitted regressions keyed by (device, bits, phase).
    Fitted(HashMap<(GpuModel, Bitwidth, Phase), LatencyModel>),
    /// Direct roofline queries (`--use_profiler_prediction`).
    Oracle(KernelEnv),
}

/// The latency cost database the assigner queries.
#[derive(Debug, Clone)]
pub struct CostDb {
    source: Source,
    env: KernelEnv,
}

impl CostDb {
    /// Fit regressions for every listed device from profiler samples.
    pub fn fit(devices: &[DeviceSpec], env: &KernelEnv, spec: &ModelSpec, cfg: &ProfilerConfig) -> CostDb {
        let mut models = HashMap::new();
        for dev in devices {
            let samples = profile_device(dev, env, spec, cfg);
            for &bits in &Bitwidth::ALL {
                for phase in Phase::ALL {
                    let rows: Vec<FitRow> = samples
                        .iter()
                        .filter(|s| s.bits == bits && s.phase == phase)
                        .map(|s| (features(spec, &s.workload(), bits, 16.0), s.latency))
                        .collect();
                    if let Some(m) = LatencyModel::fit(&rows) {
                        models.insert((dev.model, bits, phase), m);
                    }
                }
            }
        }
        CostDb { source: Source::Fitted(models), env: *env }
    }

    /// Fit from pre-collected samples of one device (e.g. imported
    /// profiles), merged into an existing database.
    pub fn fit_from_samples(&mut self, gpu: GpuModel, spec: &ModelSpec, samples: &[ProfileSample]) {
        if let Source::Fitted(models) = &mut self.source {
            for &bits in &Bitwidth::ALL {
                for phase in Phase::ALL {
                    let rows: Vec<FitRow> = samples
                        .iter()
                        .filter(|s| s.bits == bits && s.phase == phase)
                        .map(|s| (features(spec, &s.workload(), bits, 16.0), s.latency))
                        .collect();
                    if let Some(m) = LatencyModel::fit(&rows) {
                        models.insert((gpu, bits, phase), m);
                    }
                }
            }
        }
    }

    /// A database that answers from the roofline model directly.
    pub fn oracle(env: &KernelEnv) -> CostDb {
        CostDb { source: Source::Oracle(*env), env: *env }
    }

    /// Predicted latency of **one decoder layer** on one GPU with an FP16
    /// KV cache.
    pub fn layer_latency(&self, gpu: GpuModel, spec: &ModelSpec, w: &PhaseWorkload, bits: Bitwidth) -> f64 {
        self.layer_latency_kv(gpu, 1, spec, w, bits, 16.0)
    }

    /// Predicted latency of one decoder layer on a device of `tp_width`
    /// GPUs (1 = one GPU; more = a tensor-parallel group, paper §7) with
    /// the KV cache stored at `kv_bits` bits (the memory-traffic feature
    /// scales; the fitted per-byte coefficient transfers —
    /// KV-quantization extension). The roofline prices every device
    /// through [`tp_layer_latency`], which at width 1 is
    /// [`llmpq_sim::layer_latency`] itself; the fitted regressions have
    /// no TP model and refuse a group as they refuse a GPU they were not
    /// fitted on.
    pub fn layer_latency_kv(
        &self,
        gpu: GpuModel,
        tp_width: usize,
        spec: &ModelSpec,
        w: &PhaseWorkload,
        bits: Bitwidth,
        kv_bits: f64,
    ) -> f64 {
        match &self.source {
            Source::Fitted(models) => {
                let m = models
                    .get(&(gpu, bits, w.phase))
                    .filter(|_| tp_width == 1)
                    .unwrap_or_else(|| panic!("no model for {gpu} ×{tp_width} {bits} {}", w.phase));
                m.predict(&features(spec, w, bits, kv_bits))
            }
            Source::Oracle(env) => {
                let group = if tp_width == 1 { TpGroup::solo() } else { TpGroup::nvlink(tp_width) };
                tp_layer_latency(&gpu.spec(), env, &group, spec, w, bits, kv_bits)
            }
        }
    }

    /// Predicted latency of a model shard on one GPU: the sum of its
    /// layers at their respective precisions (paper: "the latency of a
    /// model shard can be obtained by summing up the latencies of all
    /// involved decoder layers with respect to their precisions").
    pub fn stage_latency(&self, gpu: GpuModel, spec: &ModelSpec, layer_bits: &[Bitwidth], w: &PhaseWorkload) -> f64 {
        self.stage_latency_kv(gpu, 1, spec, layer_bits, w, 16.0)
    }

    /// [`CostDb::stage_latency`] on a device of `tp_width` GPUs with a
    /// quantized KV cache.
    pub fn stage_latency_kv(
        &self,
        gpu: GpuModel,
        tp_width: usize,
        spec: &ModelSpec,
        layer_bits: &[Bitwidth],
        w: &PhaseWorkload,
        kv_bits: f64,
    ) -> f64 {
        layer_bits.iter().map(|&b| self.layer_latency_kv(gpu, tp_width, spec, w, b, kv_bits)).sum()
    }

    /// Master-engine (embedding + logits) latency; not regression-fitted
    /// because it has a single shape per job.
    pub fn master_latency(&self, gpu: GpuModel, spec: &ModelSpec, w: &PhaseWorkload) -> f64 {
        embedding_latency(&gpu.spec(), &self.env, spec, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_model::zoo;
    use llmpq_sim::layer_latency;

    #[test]
    fn solve3_inverts_known_system() {
        let a = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]];
        let x_true = [1.0, -2.0, 3.0];
        let b = [
            a[0][0] * x_true[0] + a[0][1] * x_true[1] + a[0][2] * x_true[2],
            a[1][0] * x_true[0] + a[1][1] * x_true[1] + a[1][2] * x_true[2],
            a[2][0] * x_true[0] + a[2][1] * x_true[1] + a[2][2] * x_true[2],
        ];
        let x = solve3(a, b).unwrap();
        for (got, want) in x.iter().zip(x_true.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn solve3_rejects_singular() {
        let a = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]];
        assert!(solve3(a, [1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn regression_recovers_exact_linear_data() {
        let rows: Vec<([f64; 3], f64)> = (1..20)
            .map(|i| {
                let x = [1.0, i as f64, (i * i) as f64 * 0.1];
                (x, 0.5 + 2.0 * x[1] + 3.0 * x[2])
            })
            .collect();
        let m = LatencyModel::fit(&rows).unwrap();
        assert!((m.coeffs[0] - 0.5).abs() < 1e-6);
        assert!((m.coeffs[1] - 2.0).abs() < 1e-6);
        assert!((m.coeffs[2] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn fitted_db_interpolates_unseen_shapes_under_6_percent() {
        // The Fig 7 headline: average latency error < 6% on workloads the
        // profiler never saw.
        let spec = zoo::opt_13b();
        let env = KernelEnv::default();
        let devices = [GpuModel::T4_16G.spec(), GpuModel::V100_32G.spec()];
        let db = CostDb::fit(&devices, &env, &spec, &ProfilerConfig::default());
        let mut errs = Vec::new();
        for gpu in [GpuModel::T4_16G, GpuModel::V100_32G] {
            for bits in Bitwidth::ALL {
                // Unseen: batches 3/5/7, past 384/768 (not in the grid).
                for (b, s, p) in [(3, 192, 384), (5, 320, 768), (7, 448, 384)] {
                    for w in [PhaseWorkload::prefill(b, s), PhaseWorkload::decode(b, s, p)] {
                        let pred = db.layer_latency(gpu, &spec, &w, bits);
                        let truth = layer_latency(&gpu.spec(), &env, &spec, &w, bits, 16.0);
                        errs.push((pred - truth).abs() / truth);
                    }
                }
            }
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 0.06, "mean latency error {:.2}% >= 6%", mean * 100.0);
    }

    #[test]
    fn oracle_matches_simulator_exactly() {
        let spec = zoo::opt_30b();
        let env = KernelEnv::default();
        let db = CostDb::oracle(&env);
        let w = PhaseWorkload::decode(8, 512, 600);
        let pred = db.layer_latency(GpuModel::A100_40G, &spec, &w, Bitwidth::Int4);
        let truth = layer_latency(&GpuModel::A100_40G.spec(), &env, &spec, &w, Bitwidth::Int4, 16.0);
        assert_eq!(pred, truth);
    }

    #[test]
    fn oracle_prices_a_tp_group_through_the_tp_model() {
        let spec = zoo::bloom_176b();
        let env = KernelEnv::default();
        let db = CostDb::oracle(&env);
        let w = PhaseWorkload::prefill(8, 512);
        let dev = GpuModel::A800_80G.spec();
        let solo = db.layer_latency_kv(GpuModel::A800_80G, 1, &spec, &w, Bitwidth::Int8, 16.0);
        assert_eq!(solo.to_bits(), layer_latency(&dev, &env, &spec, &w, Bitwidth::Int8, 16.0).to_bits());
        let group = db.layer_latency_kv(GpuModel::A800_80G, 4, &spec, &w, Bitwidth::Int8, 16.0);
        let tp = llmpq_sim::tp_layer_latency(&dev, &env, &TpGroup::nvlink(4), &spec, &w, Bitwidth::Int8, 16.0);
        assert_eq!(group.to_bits(), tp.to_bits());
        assert!(group < solo);
    }

    #[test]
    #[should_panic(expected = "no model for T4-16G ×2")]
    fn fitted_db_refuses_a_tp_group() {
        let spec = zoo::opt_13b();
        let env = KernelEnv::default();
        let db = CostDb::fit(&[GpuModel::T4_16G.spec()], &env, &spec, &ProfilerConfig::default());
        db.layer_latency_kv(GpuModel::T4_16G, 2, &spec, &PhaseWorkload::prefill(1, 128), Bitwidth::Fp16, 16.0);
    }

    #[test]
    fn stage_latency_sums_layers() {
        let spec = zoo::opt_13b();
        let db = CostDb::oracle(&KernelEnv::default());
        let w = PhaseWorkload::prefill(4, 256);
        let one = db.layer_latency(GpuModel::V100_32G, &spec, &w, Bitwidth::Int8);
        let stage = db.stage_latency(GpuModel::V100_32G, &spec, &[Bitwidth::Int8; 5], &w);
        assert!((stage - 5.0 * one).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no model for")]
    fn fitted_db_panics_on_unknown_device() {
        let spec = zoo::opt_13b();
        let db = CostDb::fit(&[], &KernelEnv::default(), &spec, &ProfilerConfig::default());
        db.layer_latency(GpuModel::A800_80G, &spec, &PhaseWorkload::prefill(1, 128), Bitwidth::Fp16);
    }
}
