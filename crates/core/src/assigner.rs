//! Algorithm 1: the LLM-PQ assigner.
//!
//! One search (`search`) enumerates device-topology orderings and
//! hybrid (prefill, decode) micro-batch pairs in the pruned search
//! space; for each combination it builds the partition/bitwidth problem
//! from the cost models and the variance indicator and solves it with
//! the configured inner solver (the exact DP or the Algorithm-2
//! heuristic), then tries the uniform even-split seed plans. The best
//! plan by `latency + θ·Σω` wins. Cost-model lookups and plan
//! evaluations are memoised and every candidate plan is pruned by a
//! sound makespan lower bound for every caller: [`assign`] is the
//! search on empty caches with no previous plan,
//! [`crate::IncrementalPlanner`] the same search on caches it keeps
//! between calls.

use crate::config::{AssignerConfig, SolverChoice};
use crate::evaluate::{memory_job, representative_past, PlanReport};
use crate::incremental::{repair_hint, CostCache, EvalCache, PlannerStats};
use crate::plan::{ExecutionPlan, StagePlan};
use crate::transfer::heuristic_solve;
use llmpq_cluster::Cluster;
use llmpq_cost::{device_charge, layer_charge, CostDb};
use llmpq_model::{flops, ModelSpec, PhaseWorkload};
use llmpq_quant::{Bitwidth, IndicatorTable};
use llmpq_solver::{solve_partition_warm_stats, PartitionProblem, PartitionSolution};
use llmpq_workload::{microbatch_counts, BatchJob, MicrobatchPlan};
use serde::{Deserialize, Serialize};

/// Result of an assignment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AssignOutcome {
    /// The winning plan.
    pub plan: ExecutionPlan,
    /// Its evaluation on the job.
    pub report: PlanReport,
    /// θ-weighted indicator total of the plan.
    pub omega_total: f64,
    /// Wall-clock seconds the assigner spent (Table 10's "Overhead").
    pub overhead_s: f64,
    /// Number of (ordering, micro-batch) combinations explored.
    pub combinations: usize,
}

/// Enumerate distinct device orderings (by GPU-type sequence), capped.
/// The paper's `GetDeviceOrder` enumerates orderings because the stage
/// position interacts with both the embedding placement (stage 0 hosts
/// the master) and the interconnect boundaries.
pub fn device_orderings(cluster: &Cluster, cap: usize) -> Vec<Vec<usize>> {
    let n = cluster.len();
    let mut indices: Vec<usize> = (0..n).collect();
    // Canonical start: sort by type so permutations dedupe.
    indices.sort_by_key(|&i| cluster.devices[i].gpu);
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<llmpq_cluster::GpuModel>> =
        std::collections::HashSet::new();
    permute(cluster, &mut indices, 0, &mut seen, &mut out, cap);
    out
}

fn permute(
    cluster: &Cluster,
    idx: &mut Vec<usize>,
    k: usize,
    seen: &mut std::collections::HashSet<Vec<llmpq_cluster::GpuModel>>,
    out: &mut Vec<Vec<usize>>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    if k == idx.len() {
        let types: Vec<_> = idx.iter().map(|&i| cluster.devices[i].gpu).collect();
        if seen.insert(types) {
            out.push(idx.clone());
        }
        return;
    }
    let mut used_types = Vec::new();
    for i in k..idx.len() {
        let t = cluster.devices[idx[i]].gpu;
        if used_types.contains(&t) {
            continue; // same type at this position ⇒ duplicate ordering
        }
        used_types.push(t);
        idx.swap(k, i);
        permute(cluster, idx, k + 1, seen, out, cap);
        idx.swap(k, i);
        if out.len() >= cap {
            return;
        }
    }
}

/// Group layers into `ceil(L/group)` contiguous groups.
fn group_sizes(n_layers: usize, group: usize) -> Vec<usize> {
    assert!(group >= 1);
    let mut sizes = Vec::new();
    let mut left = n_layers;
    while left > 0 {
        let take = group.min(left);
        sizes.push(take);
        left -= take;
    }
    sizes
}

/// Build the partition problem for one (ordering, micro-batch) pair.
/// Also returns the θ-scaled quality cost tensor used by the heuristic.
///
/// `bits_set` restricts the candidate precisions (baselines pass a
/// single uniform bitwidth); `phase_aware = false` zeroes the decode
/// terms, turning the solver into a PipeEdge-style single-phase
/// partitioner; `indicator = None` disables the quality term.
#[allow(clippy::too_many_arguments)]
pub fn build_problem(
    cluster: &Cluster,
    ordering: &[usize],
    spec: &ModelSpec,
    job: &BatchJob,
    db: &CostDb,
    indicator: Option<&IndicatorTable>,
    theta: f64,
    mb: &MicrobatchPlan,
    group: usize,
    bits_set: &[Bitwidth],
    phase_aware: bool,
    dp_grid: Option<usize>,
    kv_bits: f64,
) -> (PartitionProblem, Vec<f64>, Vec<usize>) {
    build_problem_cached(
        cluster, ordering, spec, job, db, indicator, theta, mb, group, bits_set, phase_aware,
        dp_grid, kv_bits, &mut CostCache::default(), &mut Tensors::default(),
    )
}

/// The `[g][j][b]` tensors of spent problems, kept so that a search
/// refills them instead of allocating (and paging in) five fresh ones
/// per combination — at fleet scale they are tens of kilobytes each.
#[derive(Default)]
struct Tensors {
    spare: Vec<Vec<f64>>,
}

impl Tensors {
    /// A zeroed tensor of `len` entries, reusing a spare one if any.
    fn take(&mut self, len: usize) -> Vec<f64> {
        let mut v = self.spare.pop().unwrap_or_default();
        v.clear();
        v.resize(len, 0.0);
        v
    }

    /// Keep a spent problem's tensors (and its quality tensor).
    fn recycle(&mut self, p: PartitionProblem, quality: Vec<f64>) {
        self.spare.extend([p.pre_time, p.dec_time, p.mem, p.lin_cost, quality]);
    }
}

/// [`build_problem`] with the cost-model and ω lookups routed through
/// `cache` (a throw-away cache gives the uncached answer bit for bit)
/// and the tensors drawn from `tensors`.
#[allow(clippy::too_many_arguments)]
fn build_problem_cached(
    cluster: &Cluster,
    ordering: &[usize],
    spec: &ModelSpec,
    job: &BatchJob,
    db: &CostDb,
    indicator: Option<&IndicatorTable>,
    theta: f64,
    mb: &MicrobatchPlan,
    group: usize,
    bits_set: &[Bitwidth],
    phase_aware: bool,
    dp_grid: Option<usize>,
    kv_bits: f64,
    cache: &mut CostCache,
    tensors: &mut Tensors,
) -> (PartitionProblem, Vec<f64>, Vec<usize>) {
    let sizes = group_sizes(spec.n_layers, group);
    let l = sizes.len();
    let n = ordering.len();
    let nb = bits_set.len();
    let pre_w = PhaseWorkload::prefill(mb.prefill_size, job.prompt_len);
    let dec_w = PhaseWorkload::decode(mb.decode_size, job.prompt_len, representative_past(job));

    let size = l * n * nb;
    let mut pre = tensors.take(size);
    let mut dec = tensors.take(size);
    let mut mem = tensors.take(size);
    let mut lin = tensors.take(size);
    let mut quality = tensors.take(size);

    // Per-layer latency depends only on the device *class* (GPU and TP
    // width, plus phase and bits), per-layer bytes only on bits, and the
    // ω group sum only on (group, bits) — so hoist all three out of the
    // l × n × nb fill loop. At fleet scale this turns ~700k cost-model
    // lookups per build into O(classes × bits), which is what keeps
    // planning fast on 100+ device clusters.
    let class_of = |dev_idx: usize| {
        let d = &cluster.devices[dev_idx];
        (d.gpu, d.tp_width)
    };
    let mut classes = Vec::new();
    let mut class_lat: Vec<Vec<(f64, f64)>> = Vec::new();
    for &dev_idx in ordering {
        let (gpu, tp_width) = class_of(dev_idx);
        if classes.contains(&(gpu, tp_width)) {
            continue;
        }
        let mut rows = Vec::with_capacity(nb);
        for &bits in bits_set {
            rows.push((
                cache.layer_latency(db, gpu, tp_width, spec, &pre_w, bits, kv_bits),
                cache.layer_latency(db, gpu, tp_width, spec, &dec_w, bits, kv_bits),
            ));
        }
        classes.push((gpu, tp_width));
        class_lat.push(rows);
    }
    let dev_class: Vec<usize> = ordering
        .iter()
        .map(|&dev_idx| {
            let class = class_of(dev_idx);
            classes.iter().position(|&c| c == class).expect("class collected above")
        })
        .collect();
    let mem_job = memory_job(job, mb, kv_bits);
    let bytes_per_layer: Vec<f64> =
        bits_set.iter().map(|&bits| layer_charge(spec, bits, &mem_job).total()).collect();

    let mut layer0 = 0usize;
    for (g, &gsz) in sizes.iter().enumerate() {
        let mut omegas = Vec::with_capacity(nb);
        for &bits in bits_set {
            omegas.push(indicator.map_or(0.0, |ind| cache.omega_sum(ind, layer0, gsz, bits)));
        }
        for (j, &cls) in dev_class.iter().enumerate() {
            let rows = &class_lat[cls];
            for bi in 0..nb {
                let k = (g * n + j) * nb + bi;
                let (lp, ld) = rows[bi];
                pre[k] = gsz as f64 * lp;
                dec[k] = if phase_aware { gsz as f64 * ld } else { 0.0 };
                mem[k] = gsz as f64 * bytes_per_layer[bi];
                quality[k] = theta * omegas[bi];
                lin[k] = pre[k] + dec[k] + quality[k];
            }
        }
        layer0 += gsz;
    }

    // Fixed per-device memory, its workspace arena the worst case over
    // the whole menu; embeddings on the master's device (position 0).
    let fixed_mem: Vec<f64> = ordering
        .iter()
        .enumerate()
        .map(|(j, &i)| {
            device_charge(spec, bits_set, &mem_job, j == 0, cluster.devices[i].tp_width).total()
        })
        .collect();

    let capacity: Vec<f64> =
        ordering.iter().map(|&i| cluster.devices[i].mem_bytes()).collect();

    let mut comm_pre = vec![0.0; n];
    let mut comm_dec = vec![0.0; n];
    for j in 0..n.saturating_sub(1) {
        let link = cluster.link_between(ordering[j], ordering[j + 1]);
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
        alpha_dec: if phase_aware {
            ((job.n_generate.saturating_sub(1)) * mb.decode_count).saturating_sub(1) as f64
        } else {
            0.0
        },
        allow_empty_stages: cluster.len() > 1,
        grid: dp_grid,
    };
    (problem, quality, sizes)
}

/// Convert a solver solution into an [`ExecutionPlan`].
#[allow(clippy::too_many_arguments)]
pub fn solution_to_plan(
    cluster: &Cluster,
    ordering: &[usize],
    spec: &ModelSpec,
    sizes: &[usize],
    sol: &PartitionSolution,
    mb: &MicrobatchPlan,
    scheme: &str,
    bits_set: &[Bitwidth],
    kv_bits: u32,
) -> ExecutionPlan {
    let mut stages: Vec<StagePlan> = Vec::new();
    let mut layer = 0usize;
    for (g, &(pos, bi)) in sol.assignment.iter().enumerate() {
        let bits = bits_set[bi];
        let device = ordering[pos];
        let gsz = sizes[g];
        match stages.last_mut() {
            Some(s) if s.device == device => {
                s.layer_end += gsz;
                s.bits.extend(std::iter::repeat_n(bits, gsz));
            }
            _ => stages.push(StagePlan {
                device,
                layer_start: layer,
                layer_end: layer + gsz,
                bits: vec![bits; gsz],
            }),
        }
        layer += gsz;
    }
    ExecutionPlan {
        model: spec.name.clone(),
        cluster: cluster.name.clone(),
        stages,
        microbatch: *mb,
        scheme: scheme.into(),
        kv_bits,
    }
}

/// The bitwidth menu the solver may draw from under `cfg.max_bits`
/// (degradation ladders shrink the menu from above to force lower-bit,
/// lighter plans), after checking the inputs the search cannot run
/// without: a non-empty menu and an indicator row per decoder layer.
pub(crate) fn checked_menu(
    cfg: &AssignerConfig,
    spec: &ModelSpec,
    indicator: &IndicatorTable,
) -> Result<Vec<Bitwidth>, String> {
    if indicator.n_layers() != spec.n_layers {
        return Err(format!(
            "indicator covers {} layers but {} has {}",
            indicator.n_layers(),
            spec.name,
            spec.n_layers
        ));
    }
    let menu: Vec<Bitwidth> = Bitwidth::ALL
        .into_iter()
        .filter(|b| cfg.max_bits.is_none_or(|cap| b.bits() <= cap.bits()))
        .collect();
    if menu.is_empty() {
        return Err(format!("max_bits cap {:?} leaves no bitwidth candidates", cfg.max_bits));
    }
    Ok(menu)
}

/// The uniform plan: an even contiguous layer split over the cluster's
/// natural device order at one bitwidth, FP16 KV. Devices beyond the
/// layer count get no stage.
pub fn even_plan(
    cluster: &Cluster,
    spec: &ModelSpec,
    bits: Bitwidth,
    mb: MicrobatchPlan,
    scheme: &str,
) -> ExecutionPlan {
    let n = cluster.len();
    let base = spec.n_layers / n;
    let extra = spec.n_layers % n;
    let mut stages = Vec::with_capacity(n);
    let mut start = 0usize;
    for device in 0..n {
        let take = base + usize::from(device < extra);
        if take == 0 {
            break;
        }
        stages.push(StagePlan {
            device,
            layer_start: start,
            layer_end: start + take,
            bits: vec![bits; take],
        });
        start += take;
    }
    ExecutionPlan {
        model: spec.name.clone(),
        cluster: cluster.name.clone(),
        stages,
        microbatch: mb,
        scheme: scheme.into(),
        kv_bits: 16,
    }
}

/// Sound lower bound on the simulated end-to-end latency of a plan with
/// per-stage times `pre`/`dec`, boundary comm times, and master-engine
/// times. Derived from the discrete-event semantics of
/// [`llmpq_sim::simulate_pipeline`]:
///
/// * the master is a serial resource doing 2 half-cost ops per
///   micro-batch per phase step;
/// * every stage is a serial FIFO resource;
/// * the last prefill micro-batch embeds after all others and must then
///   traverse the full chain;
/// * decode steps of one micro-batch are serialized by the
///   autoregressive dependency.
///
/// Every term is a valid lower bound on its own, so the max is too.
#[allow(clippy::too_many_arguments)]
fn makespan_lower_bound(
    pre: &[f64],
    dec: &[f64],
    comm_pre: &[f64],
    comm_dec: &[f64],
    master_pre: f64,
    master_dec: f64,
    mb: &MicrobatchPlan,
    n_generate: usize,
) -> f64 {
    let hm = master_pre / 2.0;
    let mup = mb.prefill_count as f64;
    let sum_pre: f64 = pre.iter().sum::<f64>() + comm_pre.iter().sum::<f64>();
    let max_pre = pre.iter().copied().fold(0.0f64, f64::max);
    let lb_last_mb = (mup + 1.0) * hm + sum_pre;
    let lb_straggler = 2.0 * hm + mup * max_pre;
    let lb_master = mup * master_pre;
    let prefill_lb = lb_last_mb.max(lb_straggler).max(lb_master);
    let decode_lb = if n_generate > 1 {
        let steps = ((n_generate - 1) * mb.decode_count) as f64;
        let per_mb = (n_generate - 1) as f64;
        let max_dec = dec.iter().copied().fold(0.0f64, f64::max);
        let sum_dec: f64 = dec.iter().sum::<f64>() + comm_dec.iter().sum::<f64>();
        (steps * max_dec)
            .max(steps * master_dec)
            .max(per_mb * (master_dec + sum_dec))
    } else {
        0.0
    };
    prefill_lb + decode_lb
}

/// Sound lower bound on the simulated latency of `plan`, assembled from
/// memoised per-layer and master latencies: never above what
/// [`crate::evaluate_plan`] reports as `total_latency` for the plan,
/// short of float rounding (see `BOUND_MARGIN`). A stage's time is
/// the same per-layer sum, in the same order, that the evaluation's
/// [`CostDb::stage_latency_kv`] takes, so mixed precision within a
/// stage is priced layer by layer.
pub fn plan_lower_bound(
    plan: &ExecutionPlan,
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    db: &CostDb,
    cost: &mut CostCache,
) -> f64 {
    let mb = &plan.microbatch;
    let kv = plan.kv_bits as f64;
    let pw = PhaseWorkload::prefill(mb.prefill_size, job.prompt_len);
    let dw = PhaseWorkload::decode(mb.decode_size, job.prompt_len, representative_past(job));
    let n_stages = plan.stages.len();
    let mut pre = Vec::with_capacity(n_stages);
    let mut dec = Vec::with_capacity(n_stages);
    let mut comm_pre = Vec::new();
    let mut comm_dec = Vec::new();
    for (i, s) in plan.stages.iter().enumerate() {
        let d = cluster.devices[s.device];
        let mut stage_time = |w: &PhaseWorkload| -> f64 {
            // One lookup per run of equal bits; the sum still adds
            // every layer's latency in layer order.
            let mut last: Option<(Bitwidth, f64)> = None;
            s.bits
                .iter()
                .map(|&b| match last {
                    Some((lb, t)) if lb == b => t,
                    _ => {
                        let t = cost.layer_latency(db, d.gpu, d.tp_width, spec, w, b, kv);
                        last = Some((b, t));
                        t
                    }
                })
                .sum()
        };
        pre.push(stage_time(&pw));
        dec.push(stage_time(&dw));
        if i + 1 < n_stages {
            let link = cluster.link_between(s.device, plan.stages[i + 1].device);
            comm_pre.push(link.transfer_time(flops::boundary_activation_bytes(spec, &pw)));
            comm_dec.push(link.transfer_time(flops::boundary_activation_bytes(spec, &dw)));
        }
    }
    let first_gpu = cluster.devices[plan.stages[0].device].gpu;
    let master_pre = cost.master_latency(db, first_gpu, spec, &pw);
    let master_dec = cost.master_latency(db, first_gpu, spec, &dw);
    makespan_lower_bound(
        &pre, &dec, &comm_pre, &comm_dec, master_pre, master_dec, mb, job.n_generate,
    )
}

/// Relative slack of the bound prune. [`plan_lower_bound`] and the
/// simulation reach the same quantities through different sequences of
/// float additions and maxima, so a bound that is exact in real
/// arithmetic can exceed the simulated latency by a few ulps (relative
/// ~1e-15 per operation, a few dozen operations). A plan is skipped only
/// when its bound beats the incumbent by this margin, orders of
/// magnitude above that rounding, so a skipped plan could never have
/// won under the strict-improvement rule.
const BOUND_MARGIN: f64 = 1e-9;

/// Whether a plan whose latency is at least `lb` and whose quality term
/// is `quality` cannot beat the incumbent objective `best`.
fn bound_rules_out(lb: f64, quality: f64, best: f64) -> bool {
    lb + quality >= best + BOUND_MARGIN * best.abs()
}

/// Algorithm 1: the (ordering × micro-batch × KV width) enumeration
/// around the inner solver, then the uniform seed pass. Costs and plan
/// evaluations go through `cost` / `eval`; with `prev`, the previous
/// winner is repaired onto each ordering and handed to the DP as its
/// incumbent. Every candidate plan — the solver's and the seeds — is
/// simulated only if its makespan lower bound plus its exactly
/// computable ω term can still beat the best objective so far. None of
/// this changes the best objective: memoised values are the values, the
/// bound is sound, and both it and the incumbent only prune candidates
/// that cannot win under the strict-improvement rule (ties keep the
/// earlier plan). `menu` comes from [`checked_menu`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn search(
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    db: &CostDb,
    indicator: &IndicatorTable,
    cfg: &AssignerConfig,
    menu: &[Bitwidth],
    cost: &mut CostCache,
    eval: &mut EvalCache,
    prev: Option<(&Cluster, &ExecutionPlan)>,
    stats: &mut PlannerStats,
) -> Result<AssignOutcome, String> {
    let start = std::time::Instant::now();
    let orderings = device_orderings(cluster, cfg.max_orderings);
    let mut best: Option<(ExecutionPlan, PlanReport, f64, f64)> = None;
    let mut combos = 0usize;

    let group = match cfg.solver {
        SolverChoice::Dp { group } => group,
        SolverChoice::Heuristic => 1,
    };
    let kv_options: Vec<u32> = if cfg.search_kv8 { vec![16, 8] } else { vec![16] };
    let mut tensors = Tensors::default();
    for ordering in &orderings {
        let mb_plans = microbatch_counts(job, ordering.len(), cfg.xi);
        for mb in &mb_plans {
            for &kv in &kv_options {
                combos += 1;
                let (problem, quality, sizes) = build_problem_cached(
                    cluster, ordering, spec, job, db, Some(indicator), cfg.theta, mb, group,
                    menu, true, cfg.dp_grid, kv as f64, cost, &mut tensors,
                );
                let sol = match cfg.solver {
                    SolverChoice::Dp { .. } => {
                        let hint = prev.and_then(|(pc, pp)| {
                            repair_hint(pc, pp, cluster, ordering, &sizes, menu)
                        });
                        let (sol, sstats) =
                            solve_partition_warm_stats(&problem, hint.as_deref());
                        if sstats.incumbent_used {
                            stats.hints_applied += 1;
                        }
                        stats.dp_calls += sstats.dp_calls as u64;
                        stats.pairs_pruned += sstats.pruned as u64;
                        sol
                    }
                    SolverChoice::Heuristic => heuristic_solve(&problem, &quality, 400),
                };
                tensors.recycle(problem, quality);
                let Some(sol) = sol else { continue };
                let plan = solution_to_plan(
                    cluster, ordering, spec, &sizes, &sol, mb, "LLM-PQ", menu, kv,
                );
                let omega = indicator.total(&plan.bit_assignment().bits);
                if let Some((_, _, _, best_obj)) = best.as_ref() {
                    let lb = plan_lower_bound(&plan, cluster, spec, job, db, cost);
                    if bound_rules_out(lb, cfg.theta * omega, *best_obj) {
                        continue;
                    }
                }
                let Ok(report) = eval.evaluate(&plan, cluster, spec, db, job) else {
                    continue;
                };
                let objective = report.total_latency + cfg.theta * omega;
                if best.as_ref().is_none_or(|(_, _, _, o)| objective < *o) {
                    best = Some((plan, report, omega, objective));
                }
            }
        }
    }

    // Seed candidates the coarse DP grid / heuristic can miss but that
    // eq. 4–16's search space trivially contains: even partitions with
    // uniform bits (FP16 KV), over every micro-batch plan. This
    // guarantees LLM-PQ never loses to the Uniform baseline, matching
    // the paper's dominance. Seeds meet the same bound test as the
    // solver's plans above.
    for mb in microbatch_counts(job, cluster.len(), cfg.xi) {
        for bits in menu.iter().copied() {
            let plan = even_plan(cluster, spec, bits, mb, "LLM-PQ");
            let omega = indicator.total(&plan.bit_assignment().bits);
            if let Some((_, _, _, best_obj)) = best.as_ref() {
                let lb = plan_lower_bound(&plan, cluster, spec, job, db, cost);
                if bound_rules_out(lb, cfg.theta * omega, *best_obj) {
                    stats.seeds_pruned += 1;
                    continue;
                }
            }
            stats.seeds_evaluated += 1;
            let Ok(report) = eval.evaluate(&plan, cluster, spec, db, job) else {
                continue;
            };
            let objective = report.total_latency + cfg.theta * omega;
            if best.as_ref().is_none_or(|(_, _, _, o)| objective < *o) {
                best = Some((plan, report, omega, objective));
            }
        }
    }

    let (plan, report, omega, _) =
        best.ok_or_else(|| "no feasible plan: model cannot fit this cluster".to_string())?;
    Ok(AssignOutcome {
        plan,
        report,
        omega_total: omega,
        overhead_s: start.elapsed().as_secs_f64(),
        combinations: combos,
    })
}

/// Run Algorithm 1 and return the best plan: `search` on empty caches
/// with no previous plan to warm-start from. Errors (never panics) when
/// the indicator does not cover the model's layers, the bitwidth cap
/// leaves no candidates, or nothing fits the cluster.
pub fn assign(
    cluster: &Cluster,
    spec: &ModelSpec,
    job: &BatchJob,
    db: &CostDb,
    indicator: &IndicatorTable,
    cfg: &AssignerConfig,
) -> Result<AssignOutcome, String> {
    let menu = checked_menu(cfg, spec, indicator)?;
    search(
        cluster,
        spec,
        job,
        db,
        indicator,
        cfg,
        &menu,
        &mut CostCache::default(),
        &mut EvalCache::default(),
        None,
        &mut PlannerStats::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_plan;
    use llmpq_cluster::paper_cluster;
    use llmpq_model::zoo;
    use llmpq_quant::IndicatorTable;
    use llmpq_sim::KernelEnv;

    /// A synthetic indicator: sensitivity decays with depth, scaled per
    /// bitwidth like the variance indicator would be.
    fn synthetic_indicator(n_layers: usize) -> IndicatorTable {
        let omega = (0..n_layers)
            .map(|l| {
                let base = 1.0 / (1.0 + l as f64 * 0.15);
                // [int3, int4, int8, fp16]
                [base, base * 0.22, base * 0.01, 0.0]
            })
            .collect();
        IndicatorTable { omega }
    }

    fn quick_cfg() -> AssignerConfig {
        AssignerConfig {
            theta: 0.1,
            solver: SolverChoice::Dp { group: 8 },
            xi: 2,
            max_orderings: 2,
            dp_grid: Some(8),
            search_kv8: false,
            max_bits: None,
        }
    }

    #[test]
    fn orderings_dedupe_by_type() {
        let c = paper_cluster(3); // T4 ×3 + V100 ×1
        let ords = device_orderings(&c, 100);
        // Distinct type sequences of {T,T,T,V} = 4.
        assert_eq!(ords.len(), 4);
        for o in &ords {
            let mut sorted = o.clone();
            sorted.sort();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn ordering_cap_respected() {
        let c = paper_cluster(7); // 4 V100 + 4 A100 → C(8,4)=70 orderings
        let ords = device_orderings(&c, 10);
        assert_eq!(ords.len(), 10);
    }

    #[test]
    fn group_sizes_cover_layers() {
        assert_eq!(group_sizes(10, 3), vec![3, 3, 3, 1]);
        assert_eq!(group_sizes(8, 2), vec![2; 4]);
        assert_eq!(group_sizes(5, 8), vec![5]);
    }

    #[test]
    fn assign_produces_valid_feasible_plan() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = llmpq_workload::BatchJob::paper_default();
        let indicator = synthetic_indicator(spec.n_layers);
        let out = assign(&cluster, &spec, &job, &db, &indicator, &quick_cfg()).expect("plan");
        out.plan.validate(spec.n_layers).unwrap();
        assert!(out.report.throughput > 0.0);
        assert!(out.combinations > 0);
        // Must be quantized somewhere: FP16 everywhere cannot fit 30b in 80 GB.
        assert!(out.report.mean_bits < 16.0);
    }

    #[test]
    fn assign_beats_worst_ordering() {
        // The chosen plan should be at least as good as any single
        // arbitrary combination it enumerated.
        let cluster = paper_cluster(4);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = llmpq_workload::BatchJob::paper_default();
        let indicator = synthetic_indicator(spec.n_layers);
        let mut cfg = quick_cfg();
        cfg.max_orderings = 4;
        let full = assign(&cluster, &spec, &job, &db, &indicator, &cfg).expect("plan");
        cfg.max_orderings = 1;
        let limited = assign(&cluster, &spec, &job, &db, &indicator, &cfg).expect("plan");
        let obj_full = full.report.total_latency + cfg.theta * full.omega_total;
        let obj_lim = limited.report.total_latency + cfg.theta * limited.omega_total;
        assert!(obj_full <= obj_lim + 1e-9);
    }

    #[test]
    fn heuristic_solver_also_produces_plans() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = llmpq_workload::BatchJob::paper_default();
        let indicator = synthetic_indicator(spec.n_layers);
        let cfg = AssignerConfig {
            solver: SolverChoice::Heuristic,
            ..quick_cfg()
        };
        let out = assign(&cluster, &spec, &job, &db, &indicator, &cfg).expect("plan");
        out.plan.validate(spec.n_layers).unwrap();
    }

    #[test]
    fn infeasible_cluster_reports_error() {
        // OPT-175b on a single T4 cannot fit even at 3 bits.
        let cluster = llmpq_cluster::Cluster::from_groups(
            "tiny",
            &[(llmpq_cluster::GpuModel::T4_16G, 1)],
            llmpq_cluster::Interconnect::Ethernet100G,
            None,
        );
        let spec = zoo::opt_175b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = llmpq_workload::BatchJob::paper_default();
        let indicator = synthetic_indicator(spec.n_layers);
        assert!(assign(&cluster, &spec, &job, &db, &indicator, &quick_cfg()).is_err());
    }

    #[test]
    fn wrong_length_indicator_is_an_error_not_a_panic() {
        // `llmpq-algo --omega_file` feeds a table from outside the
        // program; one for another model must come back as a message.
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = llmpq_workload::BatchJob::paper_default();
        let err = assign(&cluster, &spec, &job, &db, &synthetic_indicator(3), &quick_cfg())
            .unwrap_err();
        assert!(err.contains("3 layers") && err.contains("opt-30b"), "{err}");
    }

    #[test]
    fn seed_lower_bound_never_exceeds_simulated_latency() {
        // The pruning bound must be sound: LB ≤ DES latency for every
        // seed shape on a real cluster.
        let cluster = paper_cluster(5);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let mut cost = CostCache::default();
        for mb in microbatch_counts(&job, cluster.len(), 4) {
            for bits in Bitwidth::ALL {
                let plan = even_plan(&cluster, &spec, bits, mb, "LLM-PQ");
                let Ok(report) = evaluate_plan(&plan, &cluster, &spec, &db, &job) else {
                    continue;
                };
                let lb = plan_lower_bound(&plan, &cluster, &spec, &job, &db, &mut cost);
                assert!(
                    lb <= report.total_latency + 1e-9,
                    "LB {lb} exceeds simulated {} for mb {mb:?} bits {bits:?}",
                    report.total_latency
                );
            }
        }
    }

    #[test]
    fn theta_zero_prefers_throughput() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = llmpq_workload::BatchJob::paper_default();
        let indicator = synthetic_indicator(spec.n_layers);
        let mut cfg = quick_cfg();
        cfg.theta = 0.0;
        let fast = assign(&cluster, &spec, &job, &db, &indicator, &cfg).expect("plan");
        cfg.theta = 10.0;
        let careful = assign(&cluster, &spec, &job, &db, &indicator, &cfg).expect("plan");
        // θ=0 must be at least as fast; θ large must be at least as
        // high-quality (lower ω).
        assert!(fast.report.total_latency <= careful.report.total_latency + 1e-9);
        assert!(careful.omega_total <= fast.omega_total + 1e-9);
    }
}
