//! # llmpq-solver
//!
//! Optimization substrate replacing the paper's off-the-shelf GUROBI:
//!
//! * [`simplex`] — a dense two-phase primal simplex for linear programs.
//! * [`milp`] — branch-and-bound mixed-integer solver on top of the LP,
//!   with incumbent tracking, best-bound pruning, node and wall-clock
//!   limits (the paper runs GUROBI under a 60 s limit in Table 8).
//! * [`partition`] — an exact dynamic-programming solver specialized to
//!   the pipeline partition + bitwidth assignment problem: contiguous
//!   layer groups over an ordered device chain, per-stage bitwidths,
//!   per-device memory capacities, and the paper's objective
//!   `α_pre·T_max_pre + α_dec·T_max_dec + Σ c(group, device, bits)`.
//!   It scans a candidate grid of (T_max_pre, T_max_dec) bounds and runs
//!   a feasibility DP per candidate, paying per device profile (a run
//!   of devices the problem cannot tell apart) rather than per device.
//!   The MILP and the DP cross-validate each other in tests.

#![forbid(unsafe_code)]

pub mod milp;
pub mod partition;
pub mod simplex;

pub use milp::{solve_milp, MilpConfig, MilpResult, MilpSpec};
pub use partition::{
    evaluate_assignment, solve_partition, solve_partition_warm_stats, PartitionProblem,
    PartitionSolution, PartitionSolveStats,
};
pub use simplex::{solve_lp, Constraint, ConstraintOp, LinProg, LpResult, LpSolution};
