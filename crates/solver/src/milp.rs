//! Branch-and-bound mixed-integer linear programming.
//!
//! Depth-first branch and bound over the [`crate::simplex`] LP
//! relaxation: most-fractional branching, best-bound pruning against the
//! incumbent, and the node/wall-clock limits the paper applies to GUROBI
//! (60 s in Table 8). Integer variables must carry finite upper bounds
//! (they are binaries in the assigner's formulation).

use crate::simplex::{solve_lp_capped, Constraint, LinProg, LpResult, LpSolution};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A MILP: an LP plus a set of integer-constrained variables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MilpSpec {
    /// The relaxation.
    pub lp: LinProg,
    /// Indices of integer variables.
    pub integers: Vec<usize>,
}

/// Solver limits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MilpConfig {
    /// Wall-clock limit, seconds.
    pub time_limit_s: f64,
    /// Maximum branch-and-bound nodes.
    pub max_nodes: usize,
    /// Accept incumbents within this relative gap of the best bound.
    pub rel_gap: f64,
}

impl Default for MilpConfig {
    fn default() -> Self {
        Self { time_limit_s: 60.0, max_nodes: 200_000, rel_gap: 1e-6 }
    }
}

/// Solve outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MilpResult {
    /// Proven optimal.
    Optimal(LpSolution),
    /// Limits hit; best incumbent returned with the proven lower bound.
    Feasible {
        /// Best integer solution found.
        best: LpSolution,
        /// Proven lower bound on the optimum.
        bound: f64,
    },
    /// No integer-feasible point.
    Infeasible,
    /// Limits hit with no incumbent.
    Unknown,
}

impl MilpResult {
    /// The incumbent solution, if any.
    pub fn solution(&self) -> Option<&LpSolution> {
        match self {
            MilpResult::Optimal(s) => Some(s),
            MilpResult::Feasible { best, .. } => Some(best),
            _ => None,
        }
    }
}

const INT_EPS: f64 = 1e-6;

fn most_fractional(x: &[f64], integers: &[usize]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (var, value, dist)
    for &v in integers {
        let val = x[v];
        let frac = (val - val.round()).abs();
        if frac > INT_EPS {
            let dist = (val - val.floor() - 0.5).abs(); // 0 = most fractional
            match best {
                None => best = Some((v, val, dist)),
                Some((_, _, bd)) if dist < bd => best = Some((v, val, dist)),
                _ => {}
            }
        }
    }
    best.map(|(v, val, _)| (v, val))
}

/// Solve a MILP by branch and bound. A node whose relaxation runs out of
/// simplex pivots is dropped unexplored, so the search is not exhausted:
/// the result is then [`MilpResult::Feasible`] or [`MilpResult::Unknown`],
/// never a proof.
pub fn solve_milp(spec: &MilpSpec, cfg: &MilpConfig) -> MilpResult {
    solve_milp_capped(spec, cfg, None)
}

/// [`solve_milp`] with every relaxation solved under the pivot budget
/// `max_pivots` instead of the size-derived one, when given.
pub(crate) fn solve_milp_capped(
    spec: &MilpSpec,
    cfg: &MilpConfig,
    max_pivots: Option<usize>,
) -> MilpResult {
    let start = Instant::now();
    let mut incumbent: Option<LpSolution> = None;
    let mut nodes_explored = 0usize;
    let mut exhausted = true;
    // Stack of subproblems (DFS). Each node owns its LP copy with the
    // branching constraints applied.
    let mut stack = vec![spec.lp.clone()];
    let mut global_bound = f64::NEG_INFINITY;
    let mut root_bound: Option<f64> = None;

    while let Some(lp) = stack.pop() {
        if start.elapsed().as_secs_f64() > cfg.time_limit_s || nodes_explored >= cfg.max_nodes {
            exhausted = false;
            break;
        }
        nodes_explored += 1;
        let relax = match solve_lp_capped(&lp, max_pivots) {
            LpResult::Optimal(s) => s,
            LpResult::Infeasible => continue,
            LpResult::Unsolved => {
                exhausted = false;
                continue;
            }
            LpResult::Unbounded => {
                // Unbounded relaxation at the root means an unbounded or
                // ill-posed MILP; deeper nodes inherit the issue.
                return MilpResult::Unknown;
            }
        };
        if root_bound.is_none() {
            root_bound = Some(relax.objective);
            global_bound = relax.objective;
        }
        // Prune by bound.
        if let Some(inc) = &incumbent {
            if relax.objective >= inc.objective - cfg.rel_gap * inc.objective.abs().max(1.0) {
                continue;
            }
        }
        match most_fractional(&relax.x, &spec.integers) {
            None => {
                // Integer feasible.
                let mut sol = relax;
                for &v in &spec.integers {
                    sol.x[v] = sol.x[v].round();
                }
                if incumbent.as_ref().is_none_or(|i| sol.objective < i.objective) {
                    incumbent = Some(sol);
                }
            }
            Some((var, val)) => {
                // Branch: x ≤ floor, x ≥ ceil. Push the "down" branch
                // last so DFS dives toward smaller values first (binaries
                // often want 0).
                let mut up = lp.clone();
                up.constraints.push(Constraint::ge(vec![(var, 1.0)], val.ceil()));
                stack.push(up);
                let mut down = lp;
                down.constraints.push(Constraint::le(vec![(var, 1.0)], val.floor()));
                stack.push(down);
            }
        }
    }

    match (incumbent, exhausted) {
        (Some(best), true) => MilpResult::Optimal(best),
        (Some(best), false) => MilpResult::Feasible { best, bound: global_bound },
        (None, true) => MilpResult::Infeasible,
        (None, false) => MilpResult::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::LinProg;

    fn cfg() -> MilpConfig {
        MilpConfig::default()
    }

    #[test]
    fn integer_knapsack() {
        // max 10a + 6b + 4c s.t. a+b+c ≤ 2, binaries → a,b → 16.
        let lp = LinProg::minimize(vec![-10.0, -6.0, -4.0])
            .bound(0, 1.0)
            .bound(1, 1.0)
            .bound(2, 1.0)
            .with(Constraint::le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 2.0));
        let spec = MilpSpec { lp, integers: vec![0, 1, 2] };
        match solve_milp(&spec, &cfg()) {
            MilpResult::Optimal(s) => {
                assert!((s.objective + 16.0).abs() < 1e-6);
                assert!((s.x[0] - 1.0).abs() < 1e-6);
                assert!((s.x[1] - 1.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fractional_relaxation_gets_branched() {
        // max 2x + y s.t. 3x + 2y ≤ 4, binaries.
        // LP relaxation: x=1, y=0.5 → 2.5; integer optimum → 2.
        let lp = LinProg::minimize(vec![-2.0, -1.0])
            .bound(0, 1.0)
            .bound(1, 1.0)
            .with(Constraint::le(vec![(0, 3.0), (1, 2.0)], 4.0));
        let spec = MilpSpec { lp, integers: vec![0, 1] };
        match solve_milp(&spec, &cfg()) {
            MilpResult::Optimal(s) => assert!((s.objective + 2.0).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsolved_relaxations_leave_the_search_unexhausted() {
        // With one pivot per relaxation the knapsack's root LP (two
        // pivots) is never solved: no incumbent and no proof, so Unknown —
        // not Infeasible, and no hang.
        let lp = LinProg::minimize(vec![-10.0, -6.0, -4.0])
            .bound(0, 1.0)
            .bound(1, 1.0)
            .bound(2, 1.0)
            .with(Constraint::le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 2.0));
        let spec = MilpSpec { lp, integers: vec![0, 1, 2] };
        assert_eq!(solve_milp_capped(&spec, &cfg(), Some(1)), MilpResult::Unknown);
        assert!(matches!(solve_milp(&spec, &cfg()), MilpResult::Optimal(_)));
    }

    #[test]
    fn infeasible_milp() {
        // 0.4 ≤ x ≤ 0.6 admits no integer.
        let lp = LinProg::minimize(vec![1.0])
            .bound(0, 1.0)
            .with(Constraint::ge(vec![(0, 1.0)], 0.4))
            .with(Constraint::le(vec![(0, 1.0)], 0.6));
        let spec = MilpSpec { lp, integers: vec![0] };
        assert_eq!(solve_milp(&spec, &cfg()), MilpResult::Infeasible);
    }

    #[test]
    fn assignment_with_one_hot_rows() {
        // 3 items × 2 bins, each item to exactly one bin, bin capacity 2,
        // costs chosen so the optimum is forced — the shape of the
        // assigner's z[i,j,b] formulation in miniature.
        let idx = |i: usize, j: usize| i * 2 + j;
        let costs = vec![1.0, 5.0, 5.0, 1.0, 1.0, 5.0];
        let mut lp = LinProg::minimize(costs);
        for v in 0..6 {
            lp = lp.bound(v, 1.0);
        }
        for i in 0..3 {
            lp = lp.with(Constraint::eq(vec![(idx(i, 0), 1.0), (idx(i, 1), 1.0)], 1.0));
        }
        for j in 0..2 {
            lp = lp.with(Constraint::le((0..3).map(|i| (idx(i, j), 1.0)).collect(), 2.0));
        }
        let spec = MilpSpec { lp, integers: (0..6).collect() };
        match solve_milp(&spec, &cfg()) {
            MilpResult::Optimal(s) => {
                assert!((s.objective - 3.0).abs() < 1e-6);
                assert!((s.x[idx(0, 0)] - 1.0).abs() < 1e-6);
                assert!((s.x[idx(1, 1)] - 1.0).abs() < 1e-6);
                assert!((s.x[idx(2, 0)] - 1.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        let n = 12;
        let values: Vec<f64> = (0..n).map(|i| -((i % 5 + 1) as f64)).collect();
        let mut lp = LinProg::minimize(values);
        for v in 0..n {
            lp = lp.bound(v, 1.0);
        }
        lp = lp.with(Constraint::le((0..n).map(|i| (i, (i % 3 + 1) as f64)).collect(), 6.0));
        let spec = MilpSpec { lp, integers: (0..n).collect() };
        let res = solve_milp(&spec, &MilpConfig { max_nodes: 1, ..cfg() });
        assert!(matches!(res, MilpResult::Feasible { .. } | MilpResult::Unknown));
    }

    #[test]
    fn continuous_variables_stay_continuous() {
        // min −x − 10y, y binary, x ≤ 1.5 continuous, x + y ≤ 2.
        let lp = LinProg::minimize(vec![-1.0, -10.0])
            .bound(0, 1.5)
            .bound(1, 1.0)
            .with(Constraint::le(vec![(0, 1.0), (1, 1.0)], 2.0));
        let spec = MilpSpec { lp, integers: vec![1] };
        match solve_milp(&spec, &cfg()) {
            MilpResult::Optimal(s) => {
                assert!((s.x[1] - 1.0).abs() < 1e-6);
                assert!((s.x[0] - 1.0).abs() < 1e-6);
                assert!((s.objective + 11.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bound_tracks_optimum() {
        let lp = LinProg::minimize(vec![-3.0, -2.0])
            .bound(0, 1.0)
            .bound(1, 1.0)
            .with(Constraint::le(vec![(0, 2.0), (1, 2.0)], 3.0));
        let spec = MilpSpec { lp, integers: vec![0, 1] };
        match solve_milp(&spec, &cfg()) {
            MilpResult::Optimal(s) => assert!((s.objective + 3.0).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
    }
}
