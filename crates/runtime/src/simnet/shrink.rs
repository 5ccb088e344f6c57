//! Seed sweeps and counterexample shrinking, once for every chaos mode.
//!
//! A [`SimScenario`] says how to draw a schedule from a seed and how to
//! run one; [`seed_sweep`] runs a block of consecutive seeds and shrinks
//! any invariant violation with [`shrink_schedule`]: it greedily deletes
//! schedule events one at a time, keeping every deletion that still
//! reproduces a violation, until no single event can be removed — a
//! minimal counterexample, serialized as replayable JSON. The pipeline
//! simulation ([`SimConfig`]), the serving-chaos harness
//! ([`ServingChaosConfig`](super::ServingChaosConfig)) and the
//! elastic-fleet harness ([`ElasticSimConfig`](super::ElasticSimConfig))
//! are the three scenarios.

use super::plan::SimFaultPlan;
use super::{run_sim, SimConfig};
use serde::{Deserialize, Serialize};

/// A fault or churn schedule the shrinker can take apart.
pub trait SimSchedule: Clone + Serialize {
    /// Number of events in the schedule.
    fn events(&self) -> usize;
    /// The schedule with event `idx` (`< events()`) removed.
    fn without(&self, idx: usize) -> Self;
    /// Replayable JSON (what `--schedule` reads back).
    fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("schedules serialize")
    }
}

/// One chaos mode: a seeded schedule generator plus a deterministic run
/// with an invariant verdict.
pub trait SimScenario {
    /// What a seed draws and a run consumes.
    type Schedule: SimSchedule;
    /// Per-sweep counters a run bumps (runs with faults, restarts,
    /// commits, …), so a sweep can show it was not vacuous.
    type Tally: Default;
    /// The schedule `seed` draws.
    fn draw(&self, seed: u64) -> Self::Schedule;
    /// Run `schedule` at `seed` (which also seeds whatever else the mode
    /// randomizes, e.g. arrivals), count the run into `tally`, and
    /// return the invariant violations — empty means the run passed.
    fn run(&self, seed: u64, schedule: &Self::Schedule, tally: &mut Self::Tally)
        -> Vec<String>;
}

/// Greedily minimize a violating `schedule`: repeatedly try removing
/// each event; keep removals under which the run at `seed` still
/// reports a violation; stop at a fixpoint. If `schedule` does not
/// actually violate, it is returned unchanged.
pub fn shrink_schedule<S: SimScenario>(
    scenario: &S,
    seed: u64,
    schedule: &S::Schedule,
) -> S::Schedule {
    let fails = |p: &S::Schedule| !scenario.run(seed, p, &mut S::Tally::default()).is_empty();
    if !fails(schedule) {
        return schedule.clone();
    }
    let mut current = schedule.clone();
    loop {
        let mut shrunk = false;
        let mut idx = 0;
        while idx < current.events() {
            let candidate = current.without(idx);
            if fails(&candidate) {
                current = candidate;
                shrunk = true;
                // Indices shifted; restart the scan from the front so
                // the walk stays deterministic.
                idx = 0;
            } else {
                idx += 1;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// One seed whose schedule violated an invariant, with the minimized
/// reproducing schedule attached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepFailure {
    /// Seed that drew the original schedule.
    pub seed: u64,
    /// Violations reported by the original (unshrunk) run.
    pub violations: Vec<String>,
    /// Events left in the minimal schedule that still reproduces a
    /// violation.
    pub minimized_events: usize,
    /// That schedule as replayable JSON (what CI uploads as an artifact).
    pub minimized_json: String,
}

/// Outcome of a [`seed_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport<T> {
    /// First seed swept.
    pub start_seed: u64,
    /// Number of consecutive seeds swept.
    pub n_seeds: u64,
    /// Every violating seed, minimized.
    pub failures: Vec<SweepFailure>,
    /// The scenario's counters over the whole sweep.
    pub tally: T,
}

impl<T> SweepReport<T> {
    /// Whether the sweep found no invariant violations.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run `n_seeds` consecutive seeds starting at `start_seed`, one drawn
/// schedule per seed, shrinking every failure. Deterministic: the same
/// `(scenario, start_seed, n_seeds)` yields the same report.
pub fn seed_sweep<S: SimScenario>(
    scenario: &S,
    start_seed: u64,
    n_seeds: u64,
) -> SweepReport<S::Tally> {
    let mut report =
        SweepReport { start_seed, n_seeds, failures: Vec::new(), tally: S::Tally::default() };
    for seed in start_seed..start_seed.saturating_add(n_seeds) {
        let schedule = scenario.draw(seed);
        let violations = scenario.run(seed, &schedule, &mut report.tally);
        if !violations.is_empty() {
            let minimized = shrink_schedule(scenario, seed, &schedule);
            report.failures.push(SweepFailure {
                seed,
                violations,
                minimized_events: minimized.events(),
                minimized_json: minimized.to_json(),
            });
        }
    }
    report
}

impl SimSchedule for SimFaultPlan {
    fn events(&self) -> usize {
        self.event_count()
    }

    fn without(&self, idx: usize) -> Self {
        SimFaultPlan::without(self, idx)
    }
}

/// What a sweep of the pipeline simulation counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimTally {
    /// How many schedules contained at least one fault event.
    pub runs_with_faults: u64,
    /// How many runs recovered through at least one restart.
    pub runs_with_restarts: u64,
    /// How many runs legitimately failed over (exhausted restarts under
    /// an unsurvivable schedule) — allowed, not a violation.
    pub runs_failed_over: u64,
    /// Migration sweeps only: runs whose plan swap committed.
    pub runs_committed: u64,
    /// Migration sweeps only: runs whose plan swap aborted back to the
    /// old plan (a legal outcome under faults).
    pub runs_aborted: u64,
}

/// The master + stages protocol under [`run_sim`]; the seed only picks
/// the schedule. When `migration` is set, schedules are drawn with
/// [`SimFaultPlan::random_migration`] so faults concentrate inside the
/// prepare/commit window.
impl SimScenario for SimConfig {
    type Schedule = SimFaultPlan;
    type Tally = SimTally;

    fn draw(&self, seed: u64) -> SimFaultPlan {
        if self.migration.is_some() {
            SimFaultPlan::random_migration(seed, self.n_stages)
        } else {
            SimFaultPlan::random(seed, self.n_stages)
        }
    }

    fn run(&self, _seed: u64, plan: &SimFaultPlan, tally: &mut SimTally) -> Vec<String> {
        let run = run_sim(self, plan);
        tally.runs_with_faults += u64::from(!plan.is_empty());
        tally.runs_with_restarts += u64::from(run.restarts > 0);
        tally.runs_failed_over += u64::from(run.error.is_some());
        if run.swaps.iter().any(|s| s.committed) {
            tally.runs_committed += 1;
        } else if !run.swaps.is_empty() {
            tally.runs_aborted += 1;
        }
        run.violations
    }
}
