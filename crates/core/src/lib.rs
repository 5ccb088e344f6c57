//! # llm-pq
//!
//! The paper's primary contribution: the **LLM-PQ assigner**, which
//! jointly decides
//!
//! 1. how to partition a decoder-only LLM's layers into pipeline stages
//!    across a *heterogeneous* ordered device chain (phase-aware: both
//!    prefill and decode times drive the balance),
//! 2. which quantization precision each layer runs at (adaptive
//!    mixed-precision guided by the variance indicator), and
//! 3. hybrid micro-batch sizes for the two generative phases,
//!
//! minimizing end-to-end batch latency plus `θ ×` the quality-
//! degradation indicator, under per-device memory constraints
//! (paper eq. 4–16, Algorithms 1 and 2).
//!
//! Modules:
//!
//! * [`plan`] — execution plans (the `llmpq-dist` strategy-file format).
//! * [`config`] — assigner configuration incl. the paper's Table 9 setups.
//! * [`evaluate`] — plan evaluation: stage loads, memory checks, pipeline
//!   simulation, throughput.
//! * [`ilp`] — the paper's exact ILP (eq. 4–16) built for the
//!   branch-and-bound MILP solver: the reference `ablation_solver`
//!   checks the DP against, not an inner solver of Algorithm 1.
//! * [`assigner`] — Algorithm 1: the one device-order × micro-batch
//!   enumeration around the DP (or Algorithm-2) inner solver, with
//!   memoised costs and evaluations; [`assign`] runs it on empty caches.
//! * [`transfer`] — Algorithm 2: the adabits seed + bitwidth-transfer
//!   heuristic.
//! * [`incremental`] — the caches and [`IncrementalPlanner`], which
//!   keeps them and the previous plan between calls (warm start) and
//!   owns the solver → heuristic fallback ladder.
//! * [`replan`] — planning around lost devices: the planner on the
//!   survivors, ids remapped to the original cluster.
//! * [`baselines`] — PipeEdge, Uniform, FlexGen(-int8) and pure-adaptive
//!   (adabits) planners for the paper's comparison rows.

#![forbid(unsafe_code)]

pub mod assigner;
pub mod baselines;
pub mod config;
pub mod degrade;
pub mod evaluate;
pub mod ilp;
pub mod incremental;
pub mod plan;
pub mod replan;
pub mod tp;
pub mod transfer;

pub use assigner::{assign, build_problem, device_orderings, solution_to_plan, AssignOutcome};
pub use baselines::{adabits_plan, baseline_report, flexgen_report, pipeedge_plan, uniform_plan, BaselineKind};
pub use config::{AssignerConfig, SolverChoice};
pub use degrade::{degradation_ladder, DegradationLadder, LadderRung, DEFAULT_CAPS};
pub use evaluate::{evaluate_plan, PlanReport};
pub use incremental::{
    cluster_delta, CacheCounters, ClusterDelta, CostCache, EvalCache, IncrementalPlanner,
    PlanOrigin, PlannedOutcome, PlannerStats, ReplanError,
};
pub use plan::{ExecutionPlan, StagePlan};
// Re-exported so downstream crates can construct `ExecutionPlan`s
// without depending on `llmpq-workload` directly.
pub use llmpq_workload::MicrobatchPlan;
pub use replan::{replan_after_loss, ReplanOutcome};
pub use tp::{candidate_tp_widths, tp_sweep};
