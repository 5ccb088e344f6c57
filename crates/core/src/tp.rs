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
//! This module does exactly that: enumerate uniform TP widths that
//! divide every same-node device group, fold each TP group into one
//! *virtual pipeline device* (memory ×width, TP-adjusted kernel times,
//! all-reduce overhead), and run the same partition solver over the
//! virtual chain.

use crate::evaluate::representative_past;
use llmpq_cluster::Cluster;
use llmpq_cost::{round_block, FRAMEWORK_BYTES};
use llmpq_model::{flops, ModelSpec, Phase, PhaseWorkload};
use llmpq_quant::{Bitwidth, IndicatorTable};
use llmpq_sim::{
    layer_workspace_bytes, simulate_pipeline, tp_layer_latency, KernelEnv, PipelineWorkload,
    StageLoad, TpGroup,
};
use llmpq_solver::{solve_partition, PartitionProblem, PartitionSolution};
use llmpq_workload::{microbatch_counts, BatchJob, MicrobatchPlan};
use serde::{Deserialize, Serialize};

/// One virtual pipeline device: a TP group of identical GPUs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtualDevice {
    /// Member device indices in the underlying cluster.
    pub members: Vec<usize>,
    /// Node hosting the group (TP stays intra-node).
    pub node: usize,
}

/// Result of planning at one TP width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TpOutcome {
    /// Uniform TP width used.
    pub tp_width: usize,
    /// Number of (non-empty) pipeline stages.
    pub n_stages: usize,
    /// Predicted end-to-end batch latency, seconds.
    pub total_latency: f64,
    /// Token throughput, tokens/second.
    pub throughput: f64,
    /// Mean bits of the winning assignment.
    pub mean_bits: f64,
    /// Micro-batch plan chosen.
    pub microbatch: MicrobatchPlan,
}

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

/// Fold the cluster into virtual TP devices of `width`.
pub fn virtual_devices(cluster: &Cluster, width: usize) -> Option<Vec<VirtualDevice>> {
    let mut by_group: std::collections::BTreeMap<(usize, llmpq_cluster::GpuModel), Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, d) in cluster.devices.iter().enumerate() {
        by_group.entry((d.node, d.gpu)).or_default().push(i);
    }
    let mut out = Vec::new();
    for ((node, _), members) in by_group {
        if members.len() % width != 0 {
            return None;
        }
        for chunk in members.chunks(width) {
            out.push(VirtualDevice { members: chunk.to_vec(), node });
        }
    }
    Some(out)
}

/// Plan at a fixed TP width: enumerate micro-batch plans, solve the
/// partition problem over the virtual chain, and simulate the best.
#[allow(clippy::too_many_arguments)]
pub fn plan_with_tp(
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    env: &KernelEnv,
    indicator: &IndicatorTable,
    theta: f64,
    width: usize,
    group: usize,
) -> Option<TpOutcome> {
    let virtuals = virtual_devices(cluster, width)?;
    let n = virtuals.len();
    let nb = Bitwidth::ALL.len();
    let l = spec.n_layers.div_ceil(group);
    let sizes: Vec<usize> = (0..l)
        .map(|g| group.min(spec.n_layers - g * group))
        .collect();

    let mut best: Option<TpOutcome> = None;
    for mb in microbatch_counts(job, n, 4) {
        let pre_w = PhaseWorkload::prefill(mb.prefill_size, job.prompt_len);
        let dec_w = PhaseWorkload::decode(mb.decode_size, job.prompt_len, representative_past(job));

        let size = l * n * nb;
        let mut pre = vec![0.0; size];
        let mut dec = vec![0.0; size];
        let mut mem = vec![0.0; size];
        let mut lin = vec![0.0; size];
        let kv_per_layer =
            round_block(spec.kv_bytes_per_layer(job.global_batch, job.max_seq(), 16.0));
        let mut layer0 = 0;
        for (g, &gsz) in sizes.iter().enumerate() {
            for (j, vd) in virtuals.iter().enumerate() {
                let dev = cluster.devices[vd.members[0]].spec();
                let tp = if width == 1 { TpGroup::solo() } else { TpGroup::nvlink(width) };
                for (bi, &bits) in Bitwidth::ALL.iter().enumerate() {
                    let k = (g * n + j) * nb + bi;
                    pre[k] = gsz as f64 * tp_layer_latency(&dev, env, &tp, spec, &pre_w, bits, 16.0);
                    dec[k] = gsz as f64 * tp_layer_latency(&dev, env, &tp, spec, &dec_w, bits, 16.0);
                    mem[k] = gsz as f64
                        * (round_block(spec.layer_weight_bytes(bits.bits_f64())) + kv_per_layer);
                    let omega: f64 =
                        (layer0..layer0 + gsz).map(|layer| indicator.get(layer, bits)).sum();
                    lin[k] = pre[k] + dec[k] + theta * omega;
                }
            }
            layer0 += gsz;
        }

        let workspace = layer_workspace_bytes(spec, Phase::Prefill, mb.prefill_size, job.prompt_len, Bitwidth::Int3);
        let mut fixed_mem = vec![FRAMEWORK_BYTES + round_block(workspace); n];
        fixed_mem[0] += round_block(spec.embedding_bytes());
        let capacity: Vec<f64> = virtuals
            .iter()
            .map(|vd| cluster.devices[vd.members[0]].spec().mem_bytes() * width as f64)
            .collect();
        let mut comm_pre = vec![0.0; n];
        let mut comm_dec = vec![0.0; n];
        for j in 0..n.saturating_sub(1) {
            let link = cluster.link_between(virtuals[j].members[0], virtuals[j + 1].members[0]);
            comm_pre[j] = link.transfer_time(flops::boundary_activation_bytes(spec, &pre_w));
            comm_dec[j] = link.transfer_time(flops::boundary_activation_bytes(spec, &dec_w));
        }

        let problem = PartitionProblem {
            n_groups: l,
            n_devices: n,
            n_bits: nb,
            pre_time: pre,
            dec_time: dec,
            mem,
            lin_cost: lin,
            capacity,
            fixed_mem,
            comm_pre,
            comm_dec,
            alpha_pre: (mb.prefill_count.saturating_sub(1)) as f64,
            alpha_dec: ((job.n_generate.saturating_sub(1)) * mb.decode_count).saturating_sub(1)
                as f64,
            allow_empty_stages: n > 1,
            grid: Some(12),
        };
        let Some(sol) = solve_partition(&problem) else { continue };
        let outcome = simulate_solution(&problem, &sol, job, &mb, width);
        if best.as_ref().is_none_or(|b| outcome.throughput > b.throughput) {
            best = Some(outcome);
        }
    }
    best
}

/// Simulate a solved TP plan with the DES pipeline.
fn simulate_solution(
    p: &PartitionProblem,
    sol: &PartitionSolution,
    job: &BatchJob,
    mb: &MicrobatchPlan,
    width: usize,
) -> TpOutcome {
    let mut loads: Vec<StageLoad> = Vec::new();
    for j in 0..p.n_devices {
        let groups: Vec<usize> = (0..p.n_groups)
            .filter(|&g| sol.assignment[g].0 == j)
            .collect();
        if groups.is_empty() {
            continue;
        }
        let pre: f64 = groups
            .iter()
            .map(|&g| p.pre_time[(g * p.n_devices + j) * p.n_bits + sol.assignment[g].1])
            .sum();
        let dec: f64 = groups
            .iter()
            .map(|&g| p.dec_time[(g * p.n_devices + j) * p.n_bits + sol.assignment[g].1])
            .sum();
        loads.push(StageLoad {
            prefill_time: pre,
            decode_time: dec,
            comm_prefill: p.comm_pre[j],
            comm_decode: p.comm_dec[j],
        });
    }
    let wl = PipelineWorkload {
        prefill_microbatches: mb.prefill_count,
        decode_microbatches: mb.decode_count,
        n_tokens: job.n_generate,
        master_prefill: 0.0,
        master_decode: 0.0,
    };
    let r = simulate_pipeline(&loads, &wl);
    let bits_sum: f64 = sol
        .assignment
        .iter()
        .map(|&(_, b)| Bitwidth::ALL[b].bits_f64())
        .sum();
    TpOutcome {
        tp_width: width,
        n_stages: loads.len(),
        total_latency: r.total_latency,
        throughput: job.total_tokens() as f64 / r.total_latency,
        mean_bits: bits_sum / sol.assignment.len() as f64,
        microbatch: *mb,
    }
}

/// Sweep all candidate TP widths and return the outcome per width.
pub fn tp_sweep(
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    env: &KernelEnv,
    indicator: &IndicatorTable,
    theta: f64,
    group: usize,
) -> Vec<TpOutcome> {
    candidate_tp_widths(cluster)
        .into_iter()
        .filter_map(|w| plan_with_tp(cluster, spec, job, env, indicator, theta, w, group))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_cluster::paper_cluster;
    use llmpq_model::zoo;

    fn indicator(n: usize) -> IndicatorTable {
        IndicatorTable {
            omega: (0..n).map(|_| [0.01, 0.002, 0.0001, 0.0]).collect(),
        }
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
        let v = virtual_devices(&c, 2).unwrap();
        assert_eq!(v.len(), 4);
        let all: Vec<usize> = v.iter().flat_map(|d| d.members.clone()).collect();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        // Groups never span nodes.
        for d in &v {
            let nodes: std::collections::HashSet<usize> =
                d.members.iter().map(|&m| c.devices[m].node).collect();
            assert_eq!(nodes.len(), 1);
        }
    }

    #[test]
    fn invalid_width_rejected() {
        let c = paper_cluster(3); // groups of 3 and 1
        assert!(virtual_devices(&c, 2).is_none());
    }

    #[test]
    fn tp_sweep_produces_outcomes_per_width() {
        let c = paper_cluster(11);
        let spec = zoo::bloom_176b();
        let job = BatchJob::paper_default();
        let out = tp_sweep(&c, &spec, &job, &KernelEnv::default(), &indicator(spec.n_layers), 0.1, 10);
        assert_eq!(out.len(), 3, "widths 1, 2, 4");
        for o in &out {
            assert!(o.throughput > 0.0, "width {} infeasible", o.tp_width);
        }
    }

    #[test]
    fn wider_tp_trades_pipeline_depth_for_memory() {
        let c = paper_cluster(11);
        let spec = zoo::bloom_176b();
        let job = BatchJob::paper_default();
        let out = tp_sweep(&c, &spec, &job, &KernelEnv::default(), &indicator(spec.n_layers), 0.1, 10);
        let stages: Vec<usize> = out.iter().map(|o| o.n_stages).collect();
        // Wider TP ⇒ fewer pipeline stages available.
        assert!(stages.windows(2).all(|w| w[1] <= w[0]), "{stages:?}");
        // More aggregate memory per virtual device ⇒ milder quantization.
        let w1 = out.iter().find(|o| o.tp_width == 1).unwrap();
        let w4 = out.iter().find(|o| o.tp_width == 4).unwrap();
        assert!(w4.mean_bits >= w1.mean_bits, "{} vs {}", w4.mean_bits, w1.mean_bits);
    }
}
