//! Replanning after permanent device loss.
//!
//! When the runtime supervisor reports a device as permanently gone, the
//! remaining cluster is a *new* (smaller, usually still heterogeneous)
//! cluster — exactly the input Algorithm 1 was built for. This module
//! runs the planner on the survivors and translates the resulting plan
//! back into the original cluster's device numbering, so the runtime
//! can keep addressing devices by their stable ids.
//!
//! The shrunken cluster may no longer fit the old precision mix; the
//! inner solver then degrades bitwidths via the DP's precision
//! dimension (or the Algorithm-2 transfer rules) just as it would for a
//! fresh plan. The solver → heuristic → typed-error ladder is
//! [`IncrementalPlanner::plan`]'s; a caller that keeps its planner
//! across losses ([`IncrementalPlanner::replan_after_loss`]) gets the
//! second loss warm-started from the first.

use crate::config::AssignerConfig;
use crate::incremental::{IncrementalPlanner, PlanOrigin, ReplanError};
use crate::plan::ExecutionPlan;
use llmpq_cluster::Cluster;
use llmpq_cost::CostDb;
use llmpq_model::ModelSpec;
use llmpq_quant::IndicatorTable;
use llmpq_workload::BatchJob;

/// Outcome of a replan, with provenance for the supervisor's log.
#[derive(Debug, Clone)]
pub struct ReplanOutcome {
    /// The new plan, in *original* cluster device ids.
    pub plan: ExecutionPlan,
    /// The surviving sub-cluster the plan was computed on.
    pub surviving: Cluster,
    /// Where the plan came from: the configured solver (with or without
    /// a warm-start incumbent), or the Algorithm-2 heuristic after the
    /// solver failed. Telemetry and the `llmpq-dist` end-of-run summary
    /// surface this so operators can see degraded planning quality.
    pub origin: PlanOrigin,
    /// Assigner wall-clock, seconds (the recovery-path "Overhead").
    pub overhead_s: f64,
}

impl ReplanOutcome {
    /// Whether the configured solver failed and the Algorithm-2
    /// heuristic produced the plan instead.
    pub fn fell_back_to_heuristic(&self) -> bool {
        self.origin == PlanOrigin::Heuristic
    }
}

impl IncrementalPlanner {
    /// Plan onto `cluster` minus `lost_devices` and remap the winning
    /// plan's device ids back to `cluster`'s numbering.
    ///
    /// Errors (typed, never panics) if every device is lost
    /// ([`ReplanError::AllDevicesLost`]) or if neither the configured
    /// solver nor the heuristic fallback can fit the model on the
    /// survivors ([`ReplanError::Infeasible`]).
    pub fn replan_after_loss(
        &mut self,
        cluster: &Cluster,
        lost_devices: &[usize],
        db: &CostDb,
        indicator: &IndicatorTable,
    ) -> Result<ReplanOutcome, ReplanError> {
        let (surviving, new_to_old) = cluster.without_devices(lost_devices);
        if surviving.is_empty() {
            return Err(ReplanError::AllDevicesLost { total: cluster.len() });
        }
        let planned = self.plan(&surviving, db, indicator)?;
        let mut plan = planned.outcome.plan;
        for stage in &mut plan.stages {
            stage.device = new_to_old[stage.device];
        }
        plan.cluster = cluster.name.clone();
        Ok(ReplanOutcome {
            plan,
            surviving,
            origin: planned.origin,
            overhead_s: planned.outcome.overhead_s,
        })
    }
}

/// One-shot [`IncrementalPlanner::replan_after_loss`]: a fresh planner
/// (empty caches, nothing to warm-start from) for one loss.
pub fn replan_after_loss(
    cluster: &Cluster,
    lost_devices: &[usize],
    spec: &ModelSpec,
    job: &BatchJob,
    db: &CostDb,
    indicator: &IndicatorTable,
    cfg: &AssignerConfig,
) -> Result<ReplanOutcome, ReplanError> {
    IncrementalPlanner::new(spec.clone(), *job, *cfg)
        .replan_after_loss(cluster, lost_devices, db, indicator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverChoice;
    use llmpq_cluster::{GpuModel, Interconnect};
    use llmpq_model::{ModelFamily, ModelSpec};
    use llmpq_quant::IndicatorTable;
    use llmpq_sim::KernelEnv;

    fn tiny_spec() -> ModelSpec {
        ModelSpec::new(ModelFamily::Opt, "tiny-4l", 4, 64, 4, 256, 128)
    }

    fn tiny_indicator(n_layers: usize) -> IndicatorTable {
        IndicatorTable {
            omega: (0..n_layers)
                .map(|l| {
                    let base = 1.0 / (1.0 + l as f64);
                    [base, base * 0.2, base * 0.01, 0.0]
                })
                .collect(),
        }
    }

    fn three_device_cluster() -> Cluster {
        Cluster::from_groups(
            "trio",
            &[(GpuModel::T4_16G, 2), (GpuModel::V100_32G, 1)],
            Interconnect::Ethernet800G,
            None,
        )
    }

    fn quick_cfg() -> AssignerConfig {
        AssignerConfig {
            theta: 0.05,
            solver: SolverChoice::Dp { group: 1 },
            xi: 2,
            max_orderings: 2,
            dp_grid: Some(8),
            search_kv8: false,
            max_bits: None,
        }
    }

    #[test]
    fn replan_avoids_lost_device_and_uses_original_ids() {
        let cluster = three_device_cluster();
        let spec = tiny_spec();
        let job = llmpq_workload::BatchJob { global_batch: 4, prompt_len: 8, n_generate: 5 };
        let db = CostDb::oracle(&KernelEnv::default());
        let ind = tiny_indicator(spec.n_layers);
        let out =
            replan_after_loss(&cluster, &[1], &spec, &job, &db, &ind, &quick_cfg()).expect("replan");
        out.plan.validate(spec.n_layers).expect("valid plan");
        assert_eq!(out.surviving.len(), 2);
        for s in &out.plan.stages {
            assert_ne!(s.device, 1, "lost device must not appear");
            assert!(s.device < 3, "ids are in the original numbering");
        }
        // Device 2 (the V100) survives under its original id.
        assert!(out.plan.stages.iter().any(|s| s.device == 2));
        assert_eq!(out.plan.cluster, "trio");
    }

    #[test]
    fn replan_to_single_survivor_still_plans() {
        let cluster = three_device_cluster();
        let spec = tiny_spec();
        let job = llmpq_workload::BatchJob { global_batch: 4, prompt_len: 8, n_generate: 5 };
        let db = CostDb::oracle(&KernelEnv::default());
        let ind = tiny_indicator(spec.n_layers);
        let out = replan_after_loss(&cluster, &[0, 1], &spec, &job, &db, &ind, &quick_cfg())
            .expect("replan onto the lone V100");
        out.plan.validate(spec.n_layers).expect("valid plan");
        assert_eq!(out.plan.stages.len(), 1);
        assert_eq!(out.plan.stages[0].device, 2);
    }

    #[test]
    fn replan_with_everything_lost_errors() {
        let cluster = three_device_cluster();
        let spec = tiny_spec();
        let job = llmpq_workload::BatchJob { global_batch: 4, prompt_len: 8, n_generate: 5 };
        let db = CostDb::oracle(&KernelEnv::default());
        let ind = tiny_indicator(spec.n_layers);
        let err = replan_after_loss(&cluster, &[0, 1, 2], &spec, &job, &db, &ind, &quick_cfg())
            .unwrap_err();
        assert_eq!(err, ReplanError::AllDevicesLost { total: 3 });
        assert!(err.to_string().contains("all 3 devices lost"), "{err}");
    }
}
