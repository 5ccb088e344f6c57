//! `plan_fleet`: the paper's Algorithm 1 and the elastic warm replan on
//! a 50-device mixed fleet — the one workload where `core`, `solver`
//! and `cost` do the work.
//!
//! An *episode* is what an elastic controller does to one fleet: a cold
//! plan on a fresh planner, then two device-loss events, each answered
//! by a warm replan. A planning *call* is the operation that is timed,
//! so one call in three is cold and two in three are warm: the median
//! call latency is a warm replan and the 75th percentile a cold plan.

use llm_pq::{assign, AssignerConfig, IncrementalPlanner, SolverChoice};
use llmpq_cluster::{Cluster, GpuModel, Interconnect};
use llmpq_cost::CostDb;
use llmpq_model::ModelSpec;
use llmpq_quant::IndicatorTable;
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;
use std::time::Instant;

use crate::drive::Stop;
use crate::gen::Rng;

/// Planning calls per episode (one cold, then the warm replans).
pub const CALLS_PER_EPISODE: usize = 3;

/// Planning calls per lap (see `stats::quiet_laps`): five episodes, some
/// 150 ms. Every episode plans the same fleets, so any whole number of
/// them is the same work.
pub const LAP_CALLS: usize = 5 * CALLS_PER_EPISODE;

/// Devices in the full fleet.
pub const FLEET: usize = 50;

/// Everything the planner takes as input, derived from the seed.
pub struct PlanInputs {
    /// `opt-30b`.
    pub spec: ModelSpec,
    /// Oracle cost database.
    pub db: CostDb,
    /// The paper's default batch job.
    pub job: BatchJob,
    /// Per-layer sensitivity.
    pub indicator: IndicatorTable,
    /// θ = 0.1, grouped DP: the `bench_solver` configuration.
    pub cfg: AssignerConfig,
    /// The full fleet, then the fleet after each loss event.
    pub fleets: [Cluster; CALLS_PER_EPISODE],
}

fn fleet(name: &str, t4: usize, v100: usize, a100: usize) -> Cluster {
    let groups = [
        (GpuModel::T4_16G, t4),
        (GpuModel::V100_32G, v100),
        (GpuModel::A100_40G, a100),
    ];
    Cluster::from_groups(name, &groups, Interconnect::Ethernet800G, None)
}

/// The seeded inputs: `bench_solver`'s 40/40/20 % T4/V100/A100 mix with
/// the T4/V100 split moved by up to two devices, a ±10 % jitter on the
/// sensitivity table, and a seeded choice of which kind fails first.
pub fn inputs(seed: u64) -> PlanInputs {
    let mut rng = Rng::keyed(seed, 9, 0);
    let t4 = 18 + rng.below(5);
    let v100 = 18 + rng.below(5);
    let a100 = FLEET - t4 - v100;
    let spec = llmpq_model::zoo::opt_30b();
    let indicator = IndicatorTable {
        omega: (0..spec.n_layers)
            .map(|l| {
                let base =
                    (1.0 + (rng.below(201) as f64 - 100.0) / 1000.0) / (1.0 + l as f64 * 0.15);
                [base, base * 0.22, base * 0.01, 0.0]
            })
            .collect(),
    };
    // Two T4s fail, then two V100s — or the other way round.
    let (first, second) = if rng.below(2) == 0 {
        ((2, 0), (2, 2))
    } else {
        ((0, 2), (2, 2))
    };
    PlanInputs {
        fleets: [
            fleet("fleet-50", t4, v100, a100),
            fleet("fleet-50-loss1", t4 - first.0, v100 - first.1, a100),
            fleet("fleet-50-loss2", t4 - second.0, v100 - second.1, a100),
        ],
        spec,
        db: CostDb::oracle(&KernelEnv::default()),
        job: BatchJob::paper_default(),
        indicator,
        cfg: AssignerConfig {
            theta: 0.1,
            solver: SolverChoice::Dp { group: 8 },
            xi: 2,
            max_orderings: 6,
            dp_grid: Some(16),
            search_kv8: false,
            max_bits: None,
        },
    }
}

/// Set-up's stand-in for a warm-up request: one plan of an 8-device rig,
/// so anything the planner initialises lazily is paid before timing.
pub fn warmup(inp: &PlanInputs) -> Result<(), String> {
    let rig = fleet("rig-8", 3, 3, 2);
    assign(&rig, &inp.spec, &inp.job, &inp.db, &inp.indicator, &inp.cfg).map(|_| ())
}

/// One timed planning call.
#[derive(Debug, Clone)]
pub struct Call {
    /// Position in the episode (0 = cold).
    pub slot: usize,
    /// Start of the call.
    pub start: Instant,
    /// Wall seconds.
    pub secs: f64,
    /// Objective the planner reached.
    pub objective: f64,
}

/// What a `plan_fleet` run produced.
pub struct PlanRun {
    /// Start of the measured window.
    pub start: Instant,
    /// Wall seconds of the measured window.
    pub wall_s: f64,
    /// Every call, in order.
    pub calls: Vec<Call>,
    /// Plans of the last episode, for the output check.
    pub last_plans: Vec<llm_pq::ExecutionPlan>,
}

/// Run whole episodes until `stop` (a count is in planning calls).
pub fn run(inp: &PlanInputs, stop: Stop) -> Result<PlanRun, String> {
    let start = Instant::now();
    let mut calls = Vec::new();
    let mut last_plans = Vec::new();
    loop {
        if stop.reached(start, calls.len()) && !calls.is_empty() {
            break;
        }
        let mut planner = IncrementalPlanner::new(inp.spec.clone(), inp.job, inp.cfg);
        last_plans.clear();
        for (slot, cluster) in inp.fleets.iter().enumerate() {
            let t = Instant::now();
            let out = planner
                .plan(cluster, &inp.db, &inp.indicator)
                .map_err(|e| e.to_string())?;
            calls.push(Call {
                slot,
                start: t,
                secs: t.elapsed().as_secs_f64(),
                objective: out.objective(inp.cfg.theta),
            });
            last_plans.push(out.outcome.plan);
        }
    }
    Ok(PlanRun {
        start,
        wall_s: start.elapsed().as_secs_f64(),
        calls,
        last_plans,
    })
}

/// Output check: every warm replan reached the objective a cold
/// `assign` on the same shrunken fleet reaches (it may beat it when the
/// repaired incumbent lands off the cold solver's subsampled grid), and
/// every plan validates against the model.
pub fn check(inp: &PlanInputs, run: &PlanRun) -> Vec<String> {
    let mut failures = Vec::new();
    for plan in &run.last_plans {
        if let Err(e) = plan.validate(inp.spec.n_layers) {
            failures.push(format!(
                "plan_fleet: invalid plan for {}: {e}",
                plan.cluster
            ));
        }
    }
    for slot in 1..CALLS_PER_EPISODE {
        let cold = match assign(
            &inp.fleets[slot],
            &inp.spec,
            &inp.job,
            &inp.db,
            &inp.indicator,
            &inp.cfg,
        ) {
            Ok(out) => out.report.total_latency + inp.cfg.theta * out.omega_total,
            Err(e) => {
                failures.push(format!("plan_fleet: cold plan of loss {slot} failed: {e}"));
                continue;
            }
        };
        let tol = 1e-9 * cold.abs().max(1.0);
        for call in run.calls.iter().filter(|c| c.slot == slot) {
            if call.objective > cold + tol {
                failures.push(format!(
                    "plan_fleet: warm objective {} worse than cold {cold} after loss {slot}",
                    call.objective
                ));
                break;
            }
        }
    }
    failures
}
