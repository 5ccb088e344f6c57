//! Serving-chaos harness: the distributed continuous-serving engine
//! ([`DistStepEngine`] over the in-process channel ring) driven through
//! seeded arrival traces and seeded, migration-biased fault schedules,
//! with every run checked against the **hybrid oracle** — the local
//! [`ModelStepEngine`] serving the identical trace, config and swap
//! schedule — by simnet's one invariant checker (see
//! [`run_serving_chaos`] for which rules apply and why). Any violation
//! shrinks to a minimal replayable counterexample exactly like the
//! wire-level sweep in [`super::shrink_schedule`].
//!
//! Entry points: [`run_serving_chaos`] (one seed, one schedule) and the
//! [`SimScenario`] impl on [`ServingChaosConfig`], which [`super::seed_sweep`]
//! and [`super::shrink_schedule`] run (consecutive seeds, one random schedule
//! each, shrinking failures). `llmpq-simnet --serving` is a thin CLI
//! wrapper.

use super::invariants::Invariants;
use super::plan::splitmix64;
use super::shrink::{SimScenario, SimSchedule};
use crate::elastic::even_split;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::kvpool::KvPoolConfig;
use crate::overload::{poisson_requests, Request};
use crate::serve::{
    ContinuousConfig, ContinuousReport, ContinuousScheduler, ModelStepEngine, RungSwap, StepEngine,
};
use crate::serve_dist::{DistServeConfig, DistStepEngine};
use llm_pq::{ExecutionPlan, MicrobatchPlan};
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{BitAssignment, Bitwidth, Rounding};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Scheduler token budget per iteration.
const TOKEN_BUDGET: usize = 16;
/// Scheduler batch cap.
const MAX_BATCH: usize = 4;

/// Parameters of one serving-chaos run (the model is always the tiny
/// reference transformer split across two stages, rung ladder
/// fp16 → int8 — the same shape the `serve_dist` unit tests pin).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingChaosConfig {
    /// Requests in the Poisson arrival trace (prompt lengths and
    /// generation counts are drawn per seed).
    pub n_requests: usize,
    /// Ring rebuilds the engine may absorb; schedules are drawn with at
    /// most this many ring-loss events so every run is survivable and
    /// an exhausted budget is a violation, not an allowed fail-over.
    pub max_restarts: usize,
    /// Draw a live precision swap per seed and bias fault steps into
    /// its window (the hardest interleaving: fault meets barrier).
    pub migration: bool,
}

impl Default for ServingChaosConfig {
    fn default() -> Self {
        Self { n_requests: 6, max_restarts: 4, migration: true }
    }
}

/// Outcome of one serving-chaos run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingChaosRun {
    /// Seed that drew the trace (and, in sweeps, the schedule).
    pub seed: u64,
    /// Invariant violations (empty = run passed).
    pub violations: Vec<String>,
    /// Ring restarts the engine absorbed.
    pub restarts: u64,
    /// Committed swap epoch at the end (0 = never swapped).
    pub epoch: u64,
    /// In-flight sequences requeued for recompute across restarts.
    pub recovered: usize,
    /// Events in the injected schedule.
    pub fault_events: usize,
    /// Iteration of the seeded live swap, if one was scheduled.
    pub swap_at: Option<u64>,
}

/// What a serving-chaos sweep counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServingTally {
    /// Schedules containing at least one fault event.
    pub runs_with_faults: u64,
    /// Runs that recovered through at least one ring restart.
    pub runs_with_restarts: u64,
    /// Runs whose seeded live swap committed (epoch > 0 at the end).
    pub runs_committed: u64,
    /// Total in-flight sequences requeued for recompute across the
    /// sweep — the conservation leg the restarts exercised.
    pub sequences_recovered: u64,
}

/// Random fault schedule for one serving run, seeded and
/// migration-biased: at most `cfg.max_restarts` ring-loss events
/// (crash / hang / dropped item — each costs one restart, so the
/// budget always survives the schedule), plus up to two straggler
/// slowdowns that must *not* restart anything. Step ordinals
/// concentrate in the first ~20 work items — with a seeded swap at
/// iteration 1..=6 that lands faults before, inside and just after the
/// two-phase barrier window.
pub fn serving_fault_plan(cfg: &ServingChaosConfig, seed: u64) -> FaultPlan {
    let mut state = seed ^ 0x5345_5256_4531_4135; // "SERVE1A5"
    let mut next = move |bound: u64| splitmix64(&mut state) % bound.max(1);
    let mut events = Vec::new();
    let n_loss = next(cfg.max_restarts as u64 + 1);
    for attempt in 0..n_loss {
        let kind = match next(4) {
            // Crashes dominate: they are cheap to detect (disconnect)
            // and exercise the restart-replay path hardest.
            0 | 1 => FaultKind::Crash,
            2 => FaultKind::Hang,
            _ => FaultKind::DropMessage,
        };
        events.push(FaultEvent {
            stage: next(2) as usize,
            step: next(20) as usize,
            // Pin each loss to its own attempt: the k-th loss fires on
            // the ring's k-th incarnation (if the run lasts that long),
            // so restarts never exceed the loss count.
            attempt: Some(attempt as usize),
            kind,
        });
    }
    for _ in 0..next(3) {
        events.push(FaultEvent {
            stage: next(2) as usize,
            step: next(20) as usize,
            attempt: None,
            kind: FaultKind::Slowdown { factor: 1.5 + next(4) as f64 * 0.5 },
        });
    }
    FaultPlan { events }
}

/// The seeded live swap for this seed (`None` when migration is off):
/// fp16 → int8 at iteration 1..=6, early enough that requests are
/// still in flight when the barrier runs.
pub fn serving_swap(cfg: &ServingChaosConfig, seed: u64) -> Option<RungSwap> {
    if !cfg.migration {
        return None;
    }
    let mut state = seed ^ 0x5357_4150_5F41_5431; // "SWAP_AT1"
    Some(RungSwap { at_iteration: 1 + splitmix64(&mut state) % 6, rung: 1 })
}

fn checkpoint() -> RefModel {
    RefModel::new(RefConfig::tiny())
}

/// Two-stage plan over the tiny model at uniform `bits`.
fn stage_plan(bits: Bitwidth) -> ExecutionPlan {
    ExecutionPlan {
        model: "tiny".into(),
        cluster: "chaos".into(),
        stages: even_split(RefConfig::tiny().n_layers, &[0, 1], |_| usize::MAX, |_, _| bits),
        microbatch: MicrobatchPlan {
            prefill_size: 1,
            prefill_count: 1,
            decode_size: 1,
            decode_count: 1,
        },
        scheme: "LLM-PQ".into(),
        kv_bits: 16,
    }
}

/// Seeded Poisson trace with per-seed prompt/generation geometry.
fn chaos_trace(cfg: &ServingChaosConfig, seed: u64) -> Result<Vec<Request>, String> {
    let mut state = seed ^ 0x5452_4143_4531_4135; // "TRACE1A5"
    let mut next = move |bound: u64| splitmix64(&mut state) % bound.max(1);
    let prompt_len = 3 + next(5) as usize; // 3..=7
    let n_generate = 2 + next(4) as usize; // 2..=5
    poisson_requests(cfg.n_requests, 50.0, prompt_len, n_generate, seed)
}

fn serve_cfg(swap: Option<RungSwap>) -> ContinuousConfig {
    ContinuousConfig {
        token_budget: TOKEN_BUDGET,
        max_batch: MAX_BATCH,
        swaps: swap.into_iter().collect(),
        ..ContinuousConfig::default()
    }
}

/// What one serving pass leaves for the verdict: its report, every
/// `(request, index, token)` it landed in order, and the engine's
/// restart and epoch counters, read out before the scheduler is consumed.
type Served = (ContinuousReport, Vec<(usize, usize, usize)>, u64, u64);

/// [`crate::serve::serve_continuous`], keeping what the verdict reads.
fn drive<E: StepEngine>(
    engine: E,
    requests: &[Request],
    cfg: ContinuousConfig,
) -> Result<Served, String> {
    let mut sched = ContinuousScheduler::new(engine, cfg)?;
    let mut landed = Vec::new();
    let makespan = sched.run_trace_with(requests, |out| landed.extend_from_slice(&out.landed))?;
    let (restarts, epoch) = (sched.engine().restarts(), sched.engine().epoch());
    Ok((sched.into_report(makespan, "continuous"), landed, restarts, epoch))
}

/// Run one seed's serving-chaos scenario under `faults` and return the
/// invariant verdict. The oracle is the local [`ModelStepEngine`] on
/// the identical trace, quantization seed, admission config and swap
/// schedule.
///
/// Invariant tiers: a run that absorbed **no** restart must match the
/// oracle token for token — faults the engine rode out (stragglers,
/// unconsumed events) are invisible. A run that restarted legitimately
/// reshapes its timeline (the recovery iteration shifts when an
/// iteration-keyed swap lands relative to request progress, and prefix
/// KV is rebuilt at the committed rung), so exact oracle equality is
/// not demanded; instead every run must complete (schedules are drawn
/// survivable), conserve admissions, respect the restart budget, serve
/// every finished request once at its exact requested length, and never
/// contradict a token it already landed (stream consistency — restored
/// sequences resume preserved tokens rather than re-sampling).
pub fn run_serving_chaos(
    cfg: &ServingChaosConfig,
    seed: u64,
    faults: &FaultPlan,
) -> ServingChaosRun {
    let swap = serving_swap(cfg, seed);
    let mut inv = Invariants::default();
    let (restarts, epoch, recovered) =
        serve_and_check(cfg, seed, faults, swap, &mut inv).unwrap_or_default();
    ServingChaosRun {
        seed,
        violations: inv.into_violations(),
        restarts,
        epoch,
        recovered,
        fault_events: faults.events.len(),
        swap_at: swap.map(|s| s.at_iteration),
    }
}

/// The body of [`run_serving_chaos`]: the distributed run's restarts,
/// final epoch and recovered sequences, or `None` at the first pass
/// that fails to complete (the checker has recorded why).
fn serve_and_check(
    cfg: &ServingChaosConfig,
    seed: u64,
    faults: &FaultPlan,
    swap: Option<RungSwap>,
    inv: &mut Invariants,
) -> Option<(u64, u64, usize)> {
    let trace = inv.completed("trace generation", chaos_trace(cfg, seed))?;
    let model = checkpoint();
    let n = model.cfg.n_layers;
    let bit_ladder = vec![
        BitAssignment::uniform(n, Bitwidth::Fp16),
        BitAssignment::uniform(n, Bitwidth::Int8),
    ];
    let local = ModelStepEngine::new(
        &model,
        &bit_ladder,
        Rounding::Deterministic,
        seed,
        KvPoolConfig::default(),
    )
    .and_then(|eng| drive(eng, &trace, serve_cfg(swap)));
    let (oracle, oracle_landed, _, _) = inv.completed("local oracle", local)?;
    inv.stream_consistent("local oracle", &oracle_landed);
    let dist_cfg = DistServeConfig {
        n_slots: (MAX_BATCH * 2).max(8),
        max_restarts: cfg.max_restarts,
        // Hung stages and dropped items are detected by this real-time
        // deadline; keep it short so hang-heavy sweeps stay fast.
        op_timeout: Duration::from_millis(150),
        tick: Duration::from_millis(1),
        ..DistServeConfig::default()
    };
    let dist = DistStepEngine::over_channels(
        &model,
        vec![stage_plan(Bitwidth::Fp16), stage_plan(Bitwidth::Int8)],
        Rounding::Deterministic,
        seed,
        dist_cfg,
        Some(faults.clone()),
    )
    .and_then(|eng| drive(eng, &trace, serve_cfg(swap)));
    // Schedules are drawn survivable (ring losses ≤ budget), so even an
    // exhausted restart budget is a violation here.
    let (report, landed, restarts, epoch) = inv.completed("distributed run", dist)?;
    inv.stream_consistent("distributed run", &landed);
    if restarts == 0 {
        let tokens = |r: &ContinuousReport| -> Vec<_> {
            r.outputs.iter().map(|f| (f.id, f.tokens.clone())).collect()
        };
        inv.matches_oracle("the local oracle without any restart", tokens(&oracle), tokens(&report));
    }
    let offered = trace.iter().map(|r| (r.id, Some(r.n_generate))).collect();
    inv.served_once(&offered, report.outputs.iter().map(|f| (f.id, f.tokens.len())));
    inv.conservation(&report.stats, report.pending_end);
    inv.restart_bound(restarts, cfg.max_restarts);
    Some((restarts, epoch, report.stats.recovered))
}

impl SimSchedule for FaultPlan {
    fn events(&self) -> usize {
        self.events.len()
    }

    fn without(&self, idx: usize) -> Self {
        let mut out = self.clone();
        out.events.remove(idx);
        out
    }
}

/// [`run_serving_chaos`] under one random migration-biased schedule per
/// seed ([`serving_fault_plan`]).
impl SimScenario for ServingChaosConfig {
    type Schedule = FaultPlan;
    type Tally = ServingTally;

    fn draw(&self, seed: u64) -> FaultPlan {
        serving_fault_plan(self, seed)
    }

    fn run(&self, seed: u64, plan: &FaultPlan, tally: &mut ServingTally) -> Vec<String> {
        let run = run_serving_chaos(self, seed, plan);
        tally.runs_with_faults += u64::from(!plan.events.is_empty());
        tally.runs_with_restarts += u64::from(run.restarts > 0);
        tally.runs_committed += u64::from(run.epoch > 0);
        tally.sequences_recovered += run.recovered as u64;
        run.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plans_are_deterministic_and_survivable() {
        let cfg = ServingChaosConfig::default();
        for seed in 0..100 {
            let a = serving_fault_plan(&cfg, seed);
            assert_eq!(a, serving_fault_plan(&cfg, seed), "seed {seed}");
            let losses = a
                .events
                .iter()
                .filter(|e| !matches!(e.kind, FaultKind::Slowdown { .. }))
                .count();
            assert!(losses <= cfg.max_restarts, "seed {seed}: {losses} ring losses");
        }
    }

    #[test]
    fn fault_free_run_matches_oracle() {
        let cfg = ServingChaosConfig::default();
        let run = run_serving_chaos(&cfg, 3, &FaultPlan::none());
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.restarts, 0);
    }

    #[test]
    fn crash_schedule_recovers_without_violations() {
        let cfg = ServingChaosConfig::default();
        let faults = FaultPlan::crash(1, 5);
        let run = run_serving_chaos(&cfg, 3, &faults);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(run.restarts > 0, "crash must surface as a restart");
    }

    #[test]
    fn small_sweep_is_clean_and_exercises_restarts() {
        let cfg = ServingChaosConfig::default();
        let report = crate::simnet::seed_sweep(&cfg, 0, 12);
        assert!(report.ok(), "failures: {:#?}", report.failures);
        assert!(report.tally.runs_with_faults > 0, "sweep never drew a fault");
        assert!(report.tally.runs_with_restarts > 0, "sweep never restarted");
        assert!(report.tally.runs_committed > 0, "sweep never committed a swap");
    }
}
