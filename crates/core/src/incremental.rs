//! The stateful planner for an elastic fleet.
//!
//! A fleet that scales while serving replans often — every device join,
//! leave, or degrade re-runs Algorithm 1, and at the 50–200 device scale
//! of ROADMAP item 5 that puts the solver on the serving critical path.
//! There is one Algorithm 1 ([`crate::assigner`]'s search); this module
//! holds what it memoises and what a planner keeps between calls:
//!
//! * [`CostCache`] memoizes the per-layer latency model and the ω
//!   indicator sums keyed by (device class, workload shape, bitwidth) —
//!   values that survive any membership change that keeps a device
//!   class around.
//! * [`EvalCache`] memoizes full plan evaluations by a structural
//!   fingerprint (per-stage device class + layer count + precision,
//!   boundary interconnect class, micro-batch shape), so re-evaluating
//!   the same candidate shape on the churned cluster is a lookup.
//! * [`IncrementalPlanner`] carries both caches and the previous
//!   winning plan across calls. After a *small* membership delta it
//!   repairs that plan onto each new device ordering and feeds it to
//!   the partition solver as its incumbent
//!   ([`llmpq_solver::solve_partition_warm_stats`]), which only prunes
//!   candidates that cannot beat it. After a large delta (beyond
//!   `WARM_MAX_ABS_DELTA` devices and `WARM_MAX_FRAC_DELTA` of the
//!   previous fleet) the caches still help, the hint is not offered.
//!   It also owns the one fallback ladder: configured solver, then the
//!   Algorithm-2 heuristic, then a typed [`ReplanError::Infeasible`].
//!
//! A fresh planner (empty caches, no previous plan) is exactly
//! [`crate::assign`] plus that ladder. All of this is deterministic:
//! warm-vs-fresh objective equivalence is asserted in unit tests here
//! and in `tests/warm_props.rs` proptests.

use crate::assigner::{checked_menu, search, AssignOutcome};
use crate::config::{AssignerConfig, SolverChoice};
use crate::evaluate::{evaluate_plan, PlanError, PlanReport};
use crate::plan::ExecutionPlan;
use llmpq_cluster::{Cluster, GpuModel};
use llmpq_cost::CostDb;
use llmpq_model::{ModelSpec, Phase, PhaseWorkload};
use llmpq_quant::{Bitwidth, IndicatorTable};
use llmpq_workload::BatchJob;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Where a committed plan came from. Operators watch this: a fleet that
/// keeps serving `Heuristic` plans is running on degraded planning
/// quality and should be looked at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanOrigin {
    /// The configured solver, no incumbent (the variant name and its
    /// `"ilp"` label predate the DP and are a metrics surface).
    Ilp,
    /// The Algorithm-2 heuristic — either configured, or the fallback
    /// after the exact solver failed.
    Heuristic,
    /// The configured DP seeded with the previous assignment, repaired
    /// onto the new fleet, as its incumbent.
    WarmStart,
}

impl std::fmt::Display for PlanOrigin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanOrigin::Ilp => write!(f, "ilp"),
            PlanOrigin::Heuristic => write!(f, "heuristic"),
            PlanOrigin::WarmStart => write!(f, "warm-start"),
        }
    }
}

/// Typed replan failure. The fleet controller holds the old plan and
/// raises an alarm on `Infeasible` instead of crashing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplanError {
    /// Every device is gone; there is nothing to plan onto.
    AllDevicesLost {
        /// Devices the cluster had before the loss.
        total: usize,
    },
    /// The survivors cannot hold the model even at the lowest ladder
    /// rung (memory-infeasible fleet).
    Infeasible {
        /// Number of surviving devices.
        devices: usize,
        /// Solver-level detail.
        reason: String,
    },
    /// Bad planner input (an empty bitwidth menu, an indicator table
    /// for a different layer count).
    Config(String),
}

impl std::fmt::Display for ReplanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplanError::AllDevicesLost { total } => {
                write!(f, "cannot replan: all {total} devices lost")
            }
            ReplanError::Infeasible { devices, reason } => {
                write!(f, "replan infeasible on {devices} survivors: {reason}")
            }
            ReplanError::Config(s) => write!(f, "replan config error: {s}"),
        }
    }
}

impl std::error::Error for ReplanError {}

/// Hit/miss counters for one memoization layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl CacheCounters {
    /// Fraction of lookups answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

type LayerKey = (GpuModel, usize, Phase, usize, usize, usize, Bitwidth, u64);
type MasterKey = (GpuModel, Phase, usize, usize, usize);

/// Memoized cost-model and ω-indicator evaluations.
///
/// Keys are (device class, TP width, workload shape, bitwidth) —
/// device *identity* never enters, so every value survives joins/leaves
/// that keep the class present, and a device-class change simply misses
/// into fresh keys. The cache is pinned to one (model spec, cost DB)
/// pair; a cost DB swap is detected by [`CostCache::sync_db`]'s
/// fingerprint probe and clears it.
#[derive(Debug, Default)]
pub struct CostCache {
    layer: HashMap<LayerKey, f64>,
    master: HashMap<MasterKey, f64>,
    omega: HashMap<(usize, usize, Bitwidth), f64>,
    /// Per-layer latency lookup counters.
    pub layer_counters: CacheCounters,
    /// ω group-sum lookup counters.
    pub omega_counters: CacheCounters,
    db_stamp: Option<u64>,
}

impl CostCache {
    /// Memoized [`CostDb::layer_latency_kv`].
    #[allow(clippy::too_many_arguments)]
    pub fn layer_latency(
        &mut self,
        db: &CostDb,
        gpu: GpuModel,
        tp_width: usize,
        spec: &ModelSpec,
        w: &PhaseWorkload,
        bits: Bitwidth,
        kv_bits: f64,
    ) -> f64 {
        let key = (gpu, tp_width, w.phase, w.batch, w.prompt_len, w.past_len, bits, kv_bits.to_bits());
        if let Some(&v) = self.layer.get(&key) {
            self.layer_counters.hits += 1;
            return v;
        }
        self.layer_counters.misses += 1;
        let v = db.layer_latency_kv(gpu, tp_width, spec, w, bits, kv_bits);
        self.layer.insert(key, v);
        v
    }

    /// Memoized [`CostDb::master_latency`].
    pub fn master_latency(
        &mut self,
        db: &CostDb,
        gpu: GpuModel,
        spec: &ModelSpec,
        w: &PhaseWorkload,
    ) -> f64 {
        let key = (gpu, w.phase, w.batch, w.prompt_len, w.past_len);
        if let Some(&v) = self.master.get(&key) {
            self.layer_counters.hits += 1;
            return v;
        }
        self.layer_counters.misses += 1;
        let v = db.master_latency(gpu, spec, w);
        self.master.insert(key, v);
        v
    }

    /// Memoized ω sum over the contiguous layer range
    /// `[layer0, layer0 + len)` at one bitwidth.
    pub fn omega_sum(
        &mut self,
        indicator: &IndicatorTable,
        layer0: usize,
        len: usize,
        bits: Bitwidth,
    ) -> f64 {
        let key = (layer0, len, bits);
        if let Some(&v) = self.omega.get(&key) {
            self.omega_counters.hits += 1;
            return v;
        }
        self.omega_counters.misses += 1;
        let v: f64 = (layer0..layer0 + len).map(|l| indicator.get(l, bits)).sum();
        self.omega.insert(key, v);
        v
    }

    /// Detect a cost-DB swap (or refit) by probing one prefill and one
    /// decode latency per (device class, bitwidth) of the fleet; clear
    /// everything and return `true` if the answers changed. The caller
    /// must then also drop whatever else it derived from the old DB
    /// (the planner clears its [`EvalCache`], whose fingerprint does
    /// not cover the DB).
    pub fn sync_db(
        &mut self,
        db: &CostDb,
        spec: &ModelSpec,
        cluster: &Cluster,
        menu: &[Bitwidth],
    ) -> bool {
        let mut h = DefaultHasher::new();
        spec.name.hash(&mut h);
        let probes = [PhaseWorkload::prefill(1, 16), PhaseWorkload::decode(1, 16, 16)];
        for (gpu, _) in cluster.model_counts() {
            for &bits in menu {
                for w in &probes {
                    db.layer_latency(gpu, spec, w, bits).to_bits().hash(&mut h);
                }
            }
        }
        let stamp = Some(h.finish());
        let changed = self.db_stamp != stamp;
        if changed {
            self.clear();
            self.db_stamp = stamp;
        }
        changed
    }

    /// Drop every memoized value (counters survive).
    pub fn clear(&mut self) {
        self.layer.clear();
        self.master.clear();
        self.omega.clear();
        self.db_stamp = None;
    }

    /// Number of live memoized entries across all layers.
    pub fn len(&self) -> usize {
        self.layer.len() + self.master.len() + self.omega.len()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Memoized full-plan evaluations keyed by a structural fingerprint.
///
/// Two plans with the same fingerprint produce the same
/// [`PlanReport`]: the fingerprint covers everything
/// [`evaluate_plan`] reads — spec, job, per-stage device class, TP width,
/// layer count and per-layer precision, boundary interconnect class,
/// micro-batch shape, KV precision, and scheme label. Device ids and
/// cluster names are deliberately absent, so an evaluation computed
/// before a churn event answers for the structurally identical plan
/// after it.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: HashMap<u64, Result<PlanReport, PlanError>>,
    /// Lookup counters.
    pub counters: CacheCounters,
}

impl EvalCache {
    fn fingerprint(plan: &ExecutionPlan, cluster: &Cluster, spec: &ModelSpec, job: &BatchJob) -> u64 {
        let mut h = DefaultHasher::new();
        spec.name.hash(&mut h);
        job.global_batch.hash(&mut h);
        job.prompt_len.hash(&mut h);
        job.n_generate.hash(&mut h);
        plan.kv_bits.hash(&mut h);
        plan.scheme.hash(&mut h);
        plan.microbatch.prefill_size.hash(&mut h);
        plan.microbatch.prefill_count.hash(&mut h);
        plan.microbatch.decode_size.hash(&mut h);
        plan.microbatch.decode_count.hash(&mut h);
        plan.stages.len().hash(&mut h);
        for (i, s) in plan.stages.iter().enumerate() {
            let d = &cluster.devices[s.device];
            d.gpu.hash(&mut h);
            d.tp_width.hash(&mut h);
            (s.layer_end - s.layer_start).hash(&mut h);
            for &b in &s.bits {
                b.hash(&mut h);
            }
            if i + 1 < plan.stages.len() {
                cluster.link_between(s.device, plan.stages[i + 1].device).hash(&mut h);
            }
        }
        h.finish()
    }

    /// [`evaluate_plan`] through the cache. Structural validation runs
    /// fresh every time (it is cheap and device-id-dependent); only the
    /// expensive memory + simulation verdict is memoized.
    pub fn evaluate(
        &mut self,
        plan: &ExecutionPlan,
        cluster: &Cluster,
        spec: &ModelSpec,
        db: &CostDb,
        job: &BatchJob,
    ) -> Result<PlanReport, PlanError> {
        if let Err(e) = plan.validate(spec.n_layers) {
            return Err(PlanError::Invalid(e));
        }
        if plan.stages.iter().any(|s| s.device >= cluster.len()) {
            return evaluate_plan(plan, cluster, spec, db, job);
        }
        let fp = Self::fingerprint(plan, cluster, spec, job);
        if let Some(r) = self.map.get(&fp) {
            self.counters.hits += 1;
            return r.clone();
        }
        self.counters.misses += 1;
        let r = evaluate_plan(plan, cluster, spec, db, job);
        self.map.insert(fp, r.clone());
        r
    }

    /// Drop every memoized evaluation (counters survive).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Number of memoized evaluations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Multiset difference between two clusters, by (device class, node).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterDelta {
    /// Devices present in the new cluster but not the old.
    pub added: usize,
    /// Devices present in the old cluster but not the new.
    pub removed: usize,
}

impl ClusterDelta {
    /// Total churn magnitude.
    pub fn magnitude(&self) -> usize {
        self.added + self.removed
    }
}

/// Compute the (class, node)-multiset delta between two clusters.
pub fn cluster_delta(old: &Cluster, new: &Cluster) -> ClusterDelta {
    let mut counts: HashMap<(GpuModel, usize), i64> = HashMap::new();
    for d in &old.devices {
        *counts.entry((d.gpu, d.node)).or_insert(0) -= 1;
    }
    for d in &new.devices {
        *counts.entry((d.gpu, d.node)).or_insert(0) += 1;
    }
    let added = counts.values().filter(|&&v| v > 0).sum::<i64>() as usize;
    let removed = -counts.values().filter(|&&v| v < 0).sum::<i64>() as usize;
    ClusterDelta { added, removed }
}

/// Absolute churn (added + removed devices) always allowed to
/// warm-start: ±1–2 devices.
const WARM_MAX_ABS_DELTA: usize = 2;
/// Fraction of the previous fleet the churn may reach and still
/// warm-start; beyond a quarter the repaired hint stops resembling the
/// optimum.
const WARM_MAX_FRAC_DELTA: f64 = 0.25;

/// Work counters for one `plan` call (and cumulatively, if summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlannerStats {
    /// Cost-model cache counters over this call.
    pub cost: CacheCounters,
    /// ω cache counters over this call.
    pub omega: CacheCounters,
    /// Plan-evaluation cache counters over this call.
    pub eval: CacheCounters,
    /// Uniform seed plans skipped via the makespan lower bound.
    pub seeds_pruned: u64,
    /// Uniform seed plans fully evaluated.
    pub seeds_evaluated: u64,
    /// Combos where a repaired hint seeded the solver incumbent.
    pub hints_applied: u64,
    /// Inner DP feasibility probes actually run.
    pub dp_calls: u64,
    /// Candidate (T_pre, T_dec) pairs pruned by the incumbent bound.
    pub pairs_pruned: u64,
}

/// One successful planning round.
#[derive(Debug, Clone)]
pub struct PlannedOutcome {
    /// The winning plan and its evaluation.
    pub outcome: AssignOutcome,
    /// Provenance of the plan.
    pub origin: PlanOrigin,
    /// Work counters for this round.
    pub stats: PlannerStats,
    /// Delta against the previously planned cluster, if any.
    pub delta: Option<ClusterDelta>,
}

impl PlannedOutcome {
    /// Objective value `latency + θ·Σω` given the θ it was planned with.
    pub fn objective(&self, theta: f64) -> f64 {
        self.outcome.report.total_latency + theta * self.outcome.omega_total
    }
}

/// A stateful planner that carries caches and the previous winning plan
/// across replans, warm-starting after small cluster deltas.
#[derive(Debug)]
pub struct IncrementalPlanner {
    spec: ModelSpec,
    job: BatchJob,
    cfg: AssignerConfig,
    cost: CostCache,
    eval: EvalCache,
    last: Option<(Cluster, ExecutionPlan)>,
}

impl IncrementalPlanner {
    /// A planner for one (model, job) pair under `cfg`.
    pub fn new(spec: ModelSpec, job: BatchJob, cfg: AssignerConfig) -> Self {
        Self { spec, job, cfg, cost: CostCache::default(), eval: EvalCache::default(), last: None }
    }

    /// The assigner configuration this planner runs.
    pub fn config(&self) -> &AssignerConfig {
        &self.cfg
    }

    /// The previous committed plan, if any.
    pub fn last_plan(&self) -> Option<&ExecutionPlan> {
        self.last.as_ref().map(|(_, p)| p)
    }

    /// Number of memoized cost entries (for invalidation tests).
    pub fn cached_cost_entries(&self) -> usize {
        self.cost.len()
    }

    /// Forget caches and the previous plan.
    pub fn reset(&mut self) {
        self.cost.clear();
        self.eval.clear();
        self.last = None;
    }

    /// Plan for `cluster`, warm-starting from the previous round when
    /// the membership delta is small. If the configured solver finds
    /// nothing, retries once with the always-feasible Algorithm-2
    /// heuristic before declaring the fleet infeasible. On failure the
    /// previous plan is kept (the caller holds the old plan;
    /// [`IncrementalPlanner::last_plan`] still answers).
    pub fn plan(
        &mut self,
        cluster: &Cluster,
        db: &CostDb,
        indicator: &IndicatorTable,
    ) -> Result<PlannedOutcome, ReplanError> {
        if cluster.is_empty() {
            let total = self.last.as_ref().map_or(0, |(c, _)| c.len());
            return Err(ReplanError::AllDevicesLost { total });
        }
        let menu = checked_menu(&self.cfg, &self.spec, indicator).map_err(ReplanError::Config)?;
        if self.cost.sync_db(db, &self.spec, cluster, &menu) {
            self.eval.clear();
        }

        let delta = self.last.as_ref().map(|(c, _)| cluster_delta(c, cluster));
        // The warm gate: the previous plan is offered as a hint only to
        // the DP, and only after a small delta.
        let prev = self.last.as_ref().zip(delta).and_then(|((c, p), d)| {
            let cap = WARM_MAX_ABS_DELTA.max((c.len() as f64 * WARM_MAX_FRAC_DELTA).floor() as usize);
            (matches!(self.cfg.solver, SolverChoice::Dp { .. }) && d.magnitude() <= cap)
                .then_some((c, p))
        });

        let cost0 = self.cost.layer_counters;
        let omega0 = self.cost.omega_counters;
        let eval0 = self.eval.counters;
        let mut stats = PlannerStats::default();
        let mut run = |cfg: &AssignerConfig, prev, stats: &mut PlannerStats| {
            search(
                cluster, &self.spec, &self.job, db, indicator, cfg, &menu, &mut self.cost,
                &mut self.eval, prev, stats,
            )
        };
        let heuristic = matches!(self.cfg.solver, SolverChoice::Heuristic);
        let (outcome, origin) = match run(&self.cfg, prev, &mut stats) {
            Ok(outcome) if stats.hints_applied > 0 => (outcome, PlanOrigin::WarmStart),
            Ok(outcome) if heuristic => (outcome, PlanOrigin::Heuristic),
            Ok(outcome) => (outcome, PlanOrigin::Ilp),
            Err(reason) if heuristic => {
                return Err(ReplanError::Infeasible { devices: cluster.len(), reason });
            }
            Err(primary) => {
                let fallback = AssignerConfig { solver: SolverChoice::Heuristic, ..self.cfg };
                let out = run(&fallback, None, &mut stats).map_err(|h| ReplanError::Infeasible {
                    devices: cluster.len(),
                    reason: format!("solver: {primary}; heuristic fallback: {h}"),
                })?;
                (out, PlanOrigin::Heuristic)
            }
        };
        let since = |now: CacheCounters, then: CacheCounters| CacheCounters {
            hits: now.hits - then.hits,
            misses: now.misses - then.misses,
        };
        stats.cost = since(self.cost.layer_counters, cost0);
        stats.omega = since(self.cost.omega_counters, omega0);
        stats.eval = since(self.eval.counters, eval0);
        self.last = Some((cluster.clone(), outcome.plan.clone()));
        Ok(PlannedOutcome { outcome, origin, stats, delta })
    }
}

/// Repair the previous winning plan onto one (ordering, group-sizes)
/// combination of the new cluster, producing a group-level assignment
/// `(position-in-ordering, bit-index)` the solver can use as incumbent.
///
/// The previous stages are read off as runs of (device class, bitwidth)
/// and matched monotonically onto positions of the same class in the
/// new ordering; a run whose class has no position left folds into the
/// previously placed stage. The result is only a *hint* — the solver
/// validates it against the new problem's memory and feasibility
/// constraints and ignores it if it does not hold.
pub(crate) fn repair_hint(
    prev_cluster: &Cluster,
    prev_plan: &ExecutionPlan,
    cluster: &Cluster,
    ordering: &[usize],
    sizes: &[usize],
    menu: &[Bitwidth],
) -> Option<Vec<(usize, usize)>> {
    let new_types: Vec<GpuModel> = ordering.iter().map(|&i| cluster.devices[i].gpu).collect();
    // Desired (previous stage, class, bit) per layer group, read off the
    // previous winner. The stage index keeps two same-class devices that
    // held different shards from collapsing into one overloaded stage.
    let mut wanted: Vec<(usize, GpuModel, usize)> = Vec::with_capacity(sizes.len());
    let mut l0 = 0usize;
    for &gsz in sizes {
        let (si, s) = prev_plan
            .stages
            .iter()
            .enumerate()
            .find(|(_, s)| s.layer_start <= l0 && l0 < s.layer_end)?;
        let gpu = prev_cluster.devices.get(s.device)?.gpu;
        let bits = *s.bits.get(l0 - s.layer_start)?;
        let bit = menu.iter().position(|&b| b == bits)?;
        wanted.push((si, gpu, bit));
        l0 += gsz;
    }
    // Monotone walk of previous-stage runs onto the new ordering.
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(sizes.len());
    let mut next = 0usize;
    let mut placed: Option<(usize, usize)> = None;
    let mut g = 0usize;
    while g < wanted.len() {
        let (si, ty, bit) = wanted[g];
        let mut run = 1usize;
        while g + run < wanted.len() && wanted[g + run] == (si, ty, bit) {
            run += 1;
        }
        let slot = (next..new_types.len()).find(|&j| new_types[j] == ty);
        let cur = match (slot, placed) {
            (Some(j), _) => {
                next = j + 1;
                (j, bit)
            }
            (None, Some(prev)) => prev,
            (None, None) => {
                next = 1;
                (0, bit)
            }
        };
        placed = Some(cur);
        out.extend(std::iter::repeat_n(cur, run));
        g += run;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assigner::{assign, device_orderings, even_plan};
    use llmpq_cluster::{paper_cluster, Interconnect};
    use llmpq_cost::{profile_device, ProfilerConfig};
    use llmpq_model::zoo;
    use llmpq_sim::KernelEnv;
    use llmpq_workload::MicrobatchPlan;

    fn synthetic_indicator(n_layers: usize) -> IndicatorTable {
        IndicatorTable {
            omega: (0..n_layers)
                .map(|l| {
                    let base = 1.0 / (1.0 + l as f64 * 0.15);
                    [base, base * 0.22, base * 0.01, 0.0]
                })
                .collect(),
        }
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

    fn objective(out: &AssignOutcome, theta: f64) -> f64 {
        out.report.total_latency + theta * out.omega_total
    }

    #[test]
    fn warm_assign_matches_cold_assign_exactly() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let ind = synthetic_indicator(spec.n_layers);
        let cfg = quick_cfg();
        let cold = assign(&cluster, &spec, &job, &db, &ind, &cfg).expect("cold");
        let mut planner = IncrementalPlanner::new(spec.clone(), job, cfg);
        let first = planner.plan(&cluster, &db, &ind).expect("first plan");
        assert_eq!(first.origin, PlanOrigin::Ilp, "no previous plan to warm from");
        assert!(
            (objective(&first.outcome, cfg.theta) - objective(&cold, cfg.theta)).abs() < 1e-9,
            "first incremental plan must equal cold assign"
        );
        // Replanning the *same* cluster warm-starts and still matches.
        let second = planner.plan(&cluster, &db, &ind).expect("second plan");
        assert_eq!(second.origin, PlanOrigin::WarmStart);
        assert!(
            objective(&second.outcome, cfg.theta) <= objective(&cold, cfg.theta) + 1e-9,
            "warm replan must not regress the cold objective"
        );
        assert!(second.stats.eval.hits > 0, "second round should reuse evaluations");
    }

    #[test]
    fn warm_replan_after_loss_matches_cold_solve_on_survivors() {
        let cluster = paper_cluster(5); // 4×T4 + 2×V100
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let ind = synthetic_indicator(spec.n_layers);
        let cfg = quick_cfg();
        let mut planner = IncrementalPlanner::new(spec.clone(), job, cfg);
        planner.plan(&cluster, &db, &ind).expect("initial plan");
        let (survivors, _) = cluster.without_devices(&[1]);
        let warm = planner.plan(&survivors, &db, &ind).expect("warm replan");
        assert_eq!(warm.origin, PlanOrigin::WarmStart);
        assert_eq!(warm.delta, Some(ClusterDelta { added: 0, removed: 1 }));
        let cold = assign(&survivors, &spec, &job, &db, &ind, &cfg).expect("cold");
        let wo = objective(&warm.outcome, cfg.theta);
        let co = objective(&cold, cfg.theta);
        assert!(
            wo <= co + 1e-9,
            "warm {wo} must not regress cold {co} on the surviving cluster"
        );
        assert!(warm.stats.cost.hits > 0, "cost cache must be reused across the delta");
    }

    #[test]
    fn large_delta_falls_back_to_cold_origin() {
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let ind = synthetic_indicator(spec.n_layers);
        let cfg = quick_cfg();
        let mut planner = IncrementalPlanner::new(spec, job, cfg);
        let big = paper_cluster(5); // 6 devices
        planner.plan(&big, &db, &ind).expect("initial plan");
        // Lose 4 of 6 devices: far beyond the warm-start policy.
        let (survivors, _) = big.without_devices(&[0, 1, 2, 3]);
        let replanned = planner.plan(&survivors, &db, &ind).expect("cold replan");
        assert_eq!(replanned.origin, PlanOrigin::Ilp);
        assert_eq!(replanned.stats.hints_applied, 0);
    }

    #[test]
    fn empty_cluster_is_a_typed_error() {
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let ind = synthetic_indicator(spec.n_layers);
        let mut planner = IncrementalPlanner::new(spec, job, quick_cfg());
        let cluster = paper_cluster(3);
        planner.plan(&cluster, &db, &ind).expect("plan");
        let (empty, _) = cluster.without_devices(&[0, 1, 2, 3]);
        match planner.plan(&empty, &db, &ind) {
            Err(ReplanError::AllDevicesLost { total: 4 }) => {}
            other => panic!("expected AllDevicesLost, got {other:?}"),
        }
        // The previous plan is held.
        assert!(planner.last_plan().is_some());
    }

    #[test]
    fn memory_infeasible_fleet_is_a_typed_error_and_old_plan_held() {
        let spec = zoo::opt_175b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let ind = synthetic_indicator(spec.n_layers);
        let mut planner = IncrementalPlanner::new(spec, job, quick_cfg());
        // 175b fits nowhere on a single T4, even at 3 bits.
        let tiny = Cluster::from_groups(
            "tiny",
            &[(GpuModel::T4_16G, 1)],
            Interconnect::Ethernet100G,
            None,
        );
        match planner.plan(&tiny, &db, &ind) {
            Err(ReplanError::Infeasible { devices: 1, .. }) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
        assert!(planner.last_plan().is_none());
    }

    #[test]
    fn cluster_delta_counts_multiset_changes() {
        let a = paper_cluster(3); // 3×T4 @node0 + 1×V100 @node1
        let (b, _) = a.without_devices(&[0]);
        assert_eq!(cluster_delta(&a, &b), ClusterDelta { added: 0, removed: 1 });
        assert_eq!(cluster_delta(&b, &a), ClusterDelta { added: 1, removed: 0 });
        assert_eq!(cluster_delta(&a, &a), ClusterDelta::default());
        let c = Cluster::from_groups(
            "other",
            &[(GpuModel::A100_40G, 2)],
            Interconnect::Ethernet800G,
            None,
        );
        let d = cluster_delta(&a, &c);
        assert_eq!(d, ClusterDelta { added: 2, removed: 4 });
        assert_eq!(d.magnitude(), 6);
    }

    #[test]
    fn eval_cache_fingerprint_is_structural() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let mb = MicrobatchPlan {
            prefill_size: 2,
            prefill_count: 16,
            decode_size: 8,
            decode_count: 4,
        };
        let plan = even_plan(&cluster, &spec, Bitwidth::Int4, mb, "LLM-PQ");
        let mut cache = EvalCache::default();
        let r1 = cache.evaluate(&plan, &cluster, &spec, &db, &job).expect("ok");
        assert_eq!(cache.counters, CacheCounters { hits: 0, misses: 1 });
        let r2 = cache.evaluate(&plan, &cluster, &spec, &db, &job).expect("ok");
        assert_eq!(cache.counters, CacheCounters { hits: 1, misses: 1 });
        assert_eq!(r1, r2);
        // A different precision is a different structure → miss.
        let other = even_plan(&cluster, &spec, Bitwidth::Int8, mb, "LLM-PQ");
        let _ = cache.evaluate(&other, &cluster, &spec, &db, &job);
        assert_eq!(cache.counters.misses, 2);
    }

    #[test]
    fn cost_cache_invalidates_on_db_swap() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let menu = Bitwidth::ALL.to_vec();
        let db1 = CostDb::oracle(&KernelEnv::default());
        let mut cache = CostCache::default();
        cache.sync_db(&db1, &spec, &cluster, &menu);
        let w = PhaseWorkload::prefill(2, 128);
        cache.layer_latency(&db1, GpuModel::T4_16G, 1, &spec, &w, Bitwidth::Int4, 16.0);
        assert_eq!(cache.len(), 1);
        // Same DB: cache survives.
        cache.sync_db(&db1, &spec, &cluster, &menu);
        assert_eq!(cache.len(), 1);
        // A different kernel environment changes the answers: cleared.
        let env2 = KernelEnv { max_mfu: 0.1, ..KernelEnv::default() };
        let db2 = CostDb::oracle(&env2);
        cache.sync_db(&db2, &spec, &cluster, &menu);
        assert_eq!(cache.len(), 0, "db swap must invalidate the cache");
    }

    #[test]
    fn cost_cache_invalidates_on_decode_only_refit() {
        // The online-refit case: new decode samples only. The stamp
        // must cover the decode phase or the decode latencies go stale.
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let menu = Bitwidth::ALL.to_vec();
        let env = KernelEnv::default();
        let pcfg = ProfilerConfig::default();
        let devices: Vec<_> = cluster.model_counts().iter().map(|(g, _)| g.spec()).collect();
        let mut db = CostDb::fit(&devices, &env, &spec, &pcfg);
        let mut cache = CostCache::default();
        assert!(cache.sync_db(&db, &spec, &cluster, &menu), "first sync stamps the cache");
        let w = PhaseWorkload::decode(8, 512, 562);
        let before = cache.layer_latency(&db, GpuModel::T4_16G, 1, &spec, &w, Bitwidth::Int4, 16.0);
        assert!(!cache.sync_db(&db, &spec, &cluster, &menu), "same DB: cache survives");
        assert_eq!(cache.len(), 1);

        let mut samples = profile_device(&GpuModel::T4_16G.spec(), &env, &spec, &pcfg);
        for s in samples.iter_mut().filter(|s| s.phase == Phase::Decode) {
            s.latency *= 2.0;
        }
        db.fit_from_samples(GpuModel::T4_16G, &spec, &samples);
        assert!(
            cache.sync_db(&db, &spec, &cluster, &menu),
            "a decode-only refit must change the stamp"
        );
        assert_eq!(cache.len(), 0, "decode-only refit must invalidate the cache");
        let after = cache.layer_latency(&db, GpuModel::T4_16G, 1, &spec, &w, Bitwidth::Int4, 16.0);
        assert!(after > 1.5 * before, "refitted decode latency {after} vs stale {before}");
    }

    #[test]
    fn wrong_length_indicator_is_a_config_error_and_old_plan_held() {
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let ind = synthetic_indicator(spec.n_layers);
        let mut planner = IncrementalPlanner::new(spec, BatchJob::paper_default(), quick_cfg());
        let cluster = paper_cluster(3);
        planner.plan(&cluster, &db, &ind).expect("plan");
        match planner.plan(&cluster, &db, &synthetic_indicator(3)) {
            Err(ReplanError::Config(msg)) => assert!(msg.contains("3 layers"), "{msg}"),
            other => panic!("expected Config, got {other:?}"),
        }
        assert!(planner.last_plan().is_some());
    }

    #[test]
    fn repair_hint_survives_device_loss() {
        let cluster = paper_cluster(3);
        let spec = zoo::opt_30b();
        let db = CostDb::oracle(&KernelEnv::default());
        let job = BatchJob::paper_default();
        let ind = synthetic_indicator(spec.n_layers);
        let cfg = quick_cfg();
        let cold = assign(&cluster, &spec, &job, &db, &ind, &cfg).expect("cold");
        let (survivors, _) = cluster.without_devices(&[0]);
        let menu = Bitwidth::ALL.to_vec();
        let orderings = device_orderings(&survivors, 2);
        let sizes: Vec<usize> = {
            // group 8 over the 30b layer count
            let mut v = Vec::new();
            let mut left = spec.n_layers;
            while left > 0 {
                let t = 8.min(left);
                v.push(t);
                left -= t;
            }
            v
        };
        let hint = repair_hint(&cluster, &cold.plan, &survivors, &orderings[0], &sizes, &menu)
            .expect("repairable");
        assert_eq!(hint.len(), sizes.len());
        // Positions are non-decreasing and in range.
        for w in hint.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for &(p, b) in &hint {
            assert!(p < survivors.len());
            assert!(b < menu.len());
        }
    }
}

