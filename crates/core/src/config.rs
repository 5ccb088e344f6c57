//! Assigner configuration, including the paper's per-cluster setups
//! (Appendix Table 9).

use llmpq_quant::Bitwidth;
use serde::{Deserialize, Serialize};

/// Which inner solver Algorithm 1 uses for bitwidth + partition. (The
/// per-layer ILP of [`crate::ilp`] is the reference the DP is checked
/// against in `ablation_solver`, not a selectable inner solver.)
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SolverChoice {
    /// Exact DP over per-stage bitwidths with the given layer-group size
    /// (paper "Group=k" rows; `1` = per-layer groups).
    Dp {
        /// Layers per group (Optimization #2).
        group: usize,
    },
    /// The bitwidth-transfer heuristic seeded by adabits (Algorithm 2).
    Heuristic,
}

/// Full assigner configuration (the `llmpq-algo` command line).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AssignerConfig {
    /// The user quality scalar θ: weight on the quality-degradation term
    /// of the objective. Larger θ → better model quality, possibly lower
    /// throughput (§6.8).
    pub theta: f64,
    /// Inner solver.
    pub solver: SolverChoice,
    /// Prefill micro-batch pruning window ξ (Optimization #1).
    pub xi: usize,
    /// Maximum device orderings Algorithm 1 enumerates.
    pub max_orderings: usize,
    /// Candidate-grid size for the DP solver (`None` = exhaustive).
    pub dp_grid: Option<usize>,
    /// Also search an INT8 KV cache (KV-quantization extension; the
    /// paper's evaluation keeps KV at FP16).
    pub search_kv8: bool,
    /// Cap on the per-layer bitwidth candidates the solver may use
    /// (`None` = the full [`Bitwidth::ALL`] menu). Degradation ladders
    /// (`llm_pq::degrade`) re-run the assigner with progressively lower
    /// caps to precompute throughput-over-quality fallback plans.
    #[serde(default)]
    pub max_bits: Option<Bitwidth>,
}

impl Default for AssignerConfig {
    fn default() -> Self {
        Self {
            theta: 1.0,
            solver: SolverChoice::Dp { group: 1 },
            xi: 8,
            max_orderings: 24,
            dp_grid: Some(16),
            search_kv8: false,
            max_bits: None,
        }
    }
}

impl AssignerConfig {
    /// The paper's Table 9 setup for a given cluster number: (group,
    /// heuristic?, θ).
    pub fn paper_setup(cluster: usize) -> AssignerConfig {
        let (solver, theta) = match cluster {
            1 => (SolverChoice::Dp { group: 1 }, 1.0),
            2 => (SolverChoice::Dp { group: 1 }, 1.0),
            3 => (SolverChoice::Dp { group: 1 }, 1.0),
            4 => (SolverChoice::Heuristic, 1000.0),
            5 => (SolverChoice::Heuristic, 50.0),
            6 => (SolverChoice::Dp { group: 1 }, 100.0),
            7 => (SolverChoice::Dp { group: 1 }, 10.0),
            8 => (SolverChoice::Dp { group: 1 }, 10.0),
            9 => (SolverChoice::Dp { group: 1 }, 1.0),
            10 => (SolverChoice::Heuristic, 1.0),
            11 => (SolverChoice::Heuristic, 10.0),
            other => panic!("paper defines clusters 1–11, got {other}"),
        };
        AssignerConfig { theta, solver, ..AssignerConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table9_heuristic_rows() {
        for c in [4, 5, 10, 11] {
            assert!(matches!(AssignerConfig::paper_setup(c).solver, SolverChoice::Heuristic));
        }
        for c in [1, 2, 3, 6, 7, 8, 9] {
            assert!(matches!(
                AssignerConfig::paper_setup(c).solver,
                SolverChoice::Dp { group: 1 }
            ));
        }
    }

    #[test]
    fn table9_theta_values() {
        assert_eq!(AssignerConfig::paper_setup(4).theta, 1000.0);
        assert_eq!(AssignerConfig::paper_setup(5).theta, 50.0);
        assert_eq!(AssignerConfig::paper_setup(6).theta, 100.0);
        assert_eq!(AssignerConfig::paper_setup(1).theta, 1.0);
    }

    #[test]
    #[should_panic(expected = "clusters 1–11")]
    fn rejects_unknown_cluster() {
        AssignerConfig::paper_setup(0);
    }
}
