//! Tensor-parallel mesh search (paper §7).
//!
//! "Given 2 nodes with 8 GPUs per node we can represent them as a device
//! mesh of size 2×8, 1×16, 4×4 … As the possible device mesh is
//! limited, it is similar to how we enumerate all possible 1-D device
//! orderings … we can view the device along the tensor-parallel
//! dimension as a new device with larger memory and different kernel
//! performance, and it is still a 1-D partition problem along another
//! axis, which conforms to our solutions."
//!
//! This module does exactly that and nothing more: enumerate the
//! uniform TP widths that divide every same-node device group, fold each
//! TP group into one [`DeviceInstance`] of that `tp_width` (memory
//! ×width; the cost DB prices it through `llmpq_sim::tp_layer_latency`,
//! all-reduces included), and run Algorithm 1 ([`assign`]) over the
//! folded cluster. There is no second partition builder or simulator.

use crate::assigner::{assign, AssignOutcome};
use crate::config::AssignerConfig;
use llmpq_cluster::{Cluster, DeviceInstance};
use llmpq_cost::CostDb;
use llmpq_model::ModelSpec;
use llmpq_quant::IndicatorTable;
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;

/// TP widths valid for this cluster: powers of two dividing every
/// same-node device-group size (TP requires identical devices sharing a
/// node).
pub fn candidate_tp_widths(cluster: &Cluster) -> Vec<usize> {
    let mut group_sizes: Vec<usize> = Vec::new();
    let mut counts = std::collections::HashMap::new();
    for d in &cluster.devices {
        *counts.entry((d.node, d.gpu)).or_insert(0usize) += 1;
    }
    for (_, c) in counts {
        group_sizes.push(c);
    }
    let min = group_sizes.iter().cloned().min().unwrap_or(1);
    let mut widths = vec![1usize];
    let mut w = 2;
    while w <= min && group_sizes.iter().all(|g| g % w == 0) {
        widths.push(w);
        w *= 2;
    }
    widths
}

/// Fold the cluster into TP groups of `width`: every `width` devices of
/// one (node, GPU) group, in device order, become one device of that GPU
/// on that node with `tp_width = width`, placed where its last member
/// was. `None` if `width` is 0 or does not divide some group; width 1
/// gives the cluster itself.
pub fn virtual_devices(cluster: &Cluster, width: usize) -> Option<Cluster> {
    if width == 0 {
        return None;
    }
    let mut seen = std::collections::HashMap::new();
    let mut devices = Vec::with_capacity(cluster.len() / width);
    for d in &cluster.devices {
        let n = seen.entry((d.node, d.gpu)).or_insert(0usize);
        *n += 1;
        if *n % width == 0 {
            devices.push(DeviceInstance { gpu: d.gpu, node: d.node, tp_width: width });
        }
    }
    if seen.values().any(|n| n % width != 0) {
        return None;
    }
    Some(Cluster { devices, ..cluster.clone() })
}

/// Algorithm 1 at every candidate TP width: [`assign`] with the caller's
/// `cfg` on each fold of [`candidate_tp_widths`], priced by the roofline
/// over `env` (the fitted cost model has no TP model). One
/// `(width, outcome)` per width, narrowest first; the width-1 entry is
/// `assign` on `cluster` itself.
pub fn tp_sweep(
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    env: &KernelEnv,
    indicator: &IndicatorTable,
    cfg: &AssignerConfig,
) -> Vec<(usize, Result<AssignOutcome, String>)> {
    let db = CostDb::oracle(env);
    candidate_tp_widths(cluster)
        .into_iter()
        .map(|w| {
            let folded = virtual_devices(cluster, w).expect("a candidate width divides every group");
            (w, assign(&folded, spec, job, &db, indicator, cfg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverChoice;
    use llmpq_cluster::paper_cluster;
    use llmpq_model::zoo;

    fn indicator(n: usize) -> IndicatorTable {
        IndicatorTable {
            omega: (0..n).map(|_| [0.01, 0.002, 0.0001, 0.0]).collect(),
        }
    }

    fn cfg() -> AssignerConfig {
        AssignerConfig {
            theta: 0.1,
            solver: SolverChoice::Dp { group: 10 },
            dp_grid: Some(12),
            ..AssignerConfig::default()
        }
    }

    fn bloom_sweep(cluster: usize) -> Vec<(usize, AssignOutcome)> {
        let spec = zoo::bloom_176b();
        let job = BatchJob::paper_default();
        let c = paper_cluster(cluster);
        tp_sweep(&c, &spec, &job, &KernelEnv::default(), &indicator(spec.n_layers), &cfg())
            .into_iter()
            .map(|(w, r)| (w, r.unwrap_or_else(|e| panic!("width {w}: {e}"))))
            .collect()
    }

    #[test]
    fn candidate_widths_respect_group_sizes() {
        assert_eq!(candidate_tp_widths(&paper_cluster(11)), vec![1, 2, 4]); // 4×A800
        assert_eq!(candidate_tp_widths(&paper_cluster(3)), vec![1]); // 3×T4 + 1×V100
        assert_eq!(candidate_tp_widths(&paper_cluster(7)), vec![1, 2, 4]); // 4+4
    }

    #[test]
    fn virtual_devices_partition_members() {
        let c = paper_cluster(7);
        for width in [1, 2, 4] {
            let v = virtual_devices(&c, width).unwrap();
            assert_eq!(v.len(), 8 / width);
            assert_eq!(v.total_mem_bytes(), c.total_mem_bytes());
            // Every physical device sits in exactly one folded device of
            // its own GPU on its own node: the widths per (node, GPU)
            // add up to the physical count.
            for p in &c.devices {
                let group = |d: &&DeviceInstance| (d.node, d.gpu) == (p.node, p.gpu);
                let physical = c.devices.iter().filter(group).count();
                let folded: usize = v.devices.iter().filter(group).map(|d| d.tp_width).sum();
                assert_eq!(folded, physical, "{} on node {} at width {width}", p.gpu, p.node);
            }
            for d in &v.devices {
                assert_eq!(d.tp_width, width);
                assert_eq!(d.mem_bytes(), width as f64 * d.spec().mem_bytes());
            }
        }
        assert_eq!(virtual_devices(&c, 1).unwrap(), c, "width 1 is the cluster itself");
    }

    #[test]
    fn a_fold_reserves_one_framework_context_per_member() {
        // Cluster 11 folded at width 4 is one device of four A800s, with
        // their memory: the DP's fixed memory and evaluate_plan's stage
        // prediction both charge the four GPUs' framework contexts
        // (1.8 GB more than one), and nothing else changes.
        use crate::assigner::build_problem;
        use crate::evaluate::stage_memories;
        use crate::plan::ExecutionPlan;
        use llmpq_cost::FRAMEWORK_BYTES;
        use llmpq_quant::Bitwidth;
        use llmpq_workload::MicrobatchPlan;
        let spec = zoo::bloom_176b();
        let job = BatchJob::paper_default();
        let db = CostDb::oracle(&KernelEnv::default());
        let flat = paper_cluster(11);
        let fold = virtual_devices(&flat, 4).unwrap();
        let mb = MicrobatchPlan { prefill_size: 4, prefill_count: 8, decode_size: 8, decode_count: 4 };
        let fixed = |c: &Cluster| {
            let bits = [Bitwidth::Int4, Bitwidth::Int8];
            build_problem(c, &[0], &spec, &job, &db, None, 0.0, &mb, 10, &bits, true, None, 16.0)
                .0
                .fixed_mem[0]
        };
        assert_eq!(fixed(&fold) - fixed(&flat), 3.0 * FRAMEWORK_BYTES);
        let plan = ExecutionPlan::contiguous(
            &spec.name,
            &fold.name,
            vec![vec![Bitwidth::Int4; spec.n_layers]],
            mb,
        );
        let on = |c: &Cluster| stage_memories(&plan, c, &spec, &job)[0];
        assert_eq!(on(&fold) - on(&flat), 3.0 * FRAMEWORK_BYTES);
    }

    #[test]
    fn invalid_width_rejected() {
        let c = paper_cluster(3); // groups of 3 and 1
        assert!(virtual_devices(&c, 2).is_none());
        assert!(virtual_devices(&c, 0).is_none());
    }

    #[test]
    fn tp_sweep_produces_outcomes_per_width() {
        let out = bloom_sweep(11);
        let widths: Vec<usize> = out.iter().map(|(w, _)| *w).collect();
        assert_eq!(widths, vec![1, 2, 4]);
        for (w, o) in &out {
            assert!(o.report.throughput > 0.0, "width {w}");
            o.plan.validate(zoo::bloom_176b().n_layers).unwrap();
        }
    }

    #[test]
    fn wider_tp_trades_pipeline_depth_for_memory() {
        let out = bloom_sweep(11);
        let stages: Vec<usize> = out.iter().map(|(_, o)| o.plan.stages.len()).collect();
        // Wider TP ⇒ fewer pipeline stages available.
        assert!(stages.windows(2).all(|w| w[1] <= w[0]), "{stages:?}");
        // More aggregate memory per folded device ⇒ milder quantization.
        let (w1, w4) = (&out[0].1.report, &out[2].1.report);
        assert!(w4.mean_bits >= w1.mean_bits, "{} vs {}", w4.mean_bits, w1.mean_bits);
    }

    #[test]
    fn width_one_entry_is_assign_on_the_unfolded_cluster() {
        let spec = zoo::bloom_176b();
        let job = BatchJob::paper_default();
        let ind = indicator(spec.n_layers);
        let env = KernelEnv::default();
        for n in [7, 11] {
            let c = paper_cluster(n);
            let sweep = tp_sweep(&c, &spec, &job, &env, &ind, &cfg());
            let (w, swept) = &sweep[0];
            let swept = swept.as_ref().unwrap();
            let direct = assign(&c, &spec, &job, &CostDb::oracle(&env), &ind, &cfg()).unwrap();
            assert_eq!(*w, 1);
            assert_eq!(swept.plan, direct.plan, "cluster {n}");
            assert_eq!(swept.report.total_latency.to_bits(), direct.report.total_latency.to_bits());
            assert_eq!(swept.report.throughput.to_bits(), direct.report.throughput.to_bits());
        }
    }
}
