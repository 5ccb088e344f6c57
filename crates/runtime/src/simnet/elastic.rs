//! Elastic-fleet chaos harness: the [`FleetController`] driven through
//! seeded membership churn (joins, leaves, degrades, flap bursts — with
//! leaves biased into migration windows) against seeded diurnal +
//! bursty request arrivals, inside a deterministic discrete-event
//! simulation of a single serving queue. Every run is checked by
//! simnet's one invariant checker (DESIGN.md §13): committed plans use
//! only live devices; every offered request is served exactly once
//! across scale-out, scale-in and aborted migrations (work in flight on
//! a dying device is requeued, not dropped); shedding is legitimate only
//! when the fleet cannot hold the model at the lowest rung, so a
//! serviceable fleet with stranded requests or a dead plan fails.
//!
//! Violations shrink greedily to a minimal replayable churn schedule,
//! exactly like the wire-level and serving-chaos sweeps: the harness is
//! a [`SimScenario`] that [`super::seed_sweep`] and [`super::shrink_schedule`] run.
//! `llmpq-simnet --elastic` is a thin CLI wrapper over it.

use super::invariants::Invariants;
use super::shrink::{SimScenario, SimSchedule};
use crate::elastic::{
    even_split, ControllerCommand, ControllerState, DebouncedPolicy, EvenSplitPlanner,
    FleetController, FleetEvent, FleetEventKind,
};
use crate::overload::AdmissionStats;
use crate::splitmix64;
use llm_pq::{ExecutionPlan, MicrobatchPlan};
use llmpq_quant::Bitwidth;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Simulated horizon, µs (churn stops at ¾ of it; the run gets a settle
/// grace period past it).
const HORIZON_US: u64 = 60_000_000;
/// Layers of the abstract model being served.
const N_LAYERS: usize = 8;
/// Lowest-rung per-device capacity, in layers.
const MAX_LAYERS_PER_DEVICE: usize = 4;
/// Controller debounce window, µs.
const DEBOUNCE_US: u64 = 20_000;
/// Controller post-commit cooldown, µs.
const COOLDOWN_US: u64 = 200_000;
/// Flap-detection window, µs.
const FLAP_WINDOW_US: u64 = 500_000;
/// Membership toggles inside the window that quarantine a device.
const FLAP_MAX_TOGGLES: u32 = 3;
/// Duration of the two-phase migration barrier, µs (leaves landing
/// inside it abort the migration).
const MIGRATION_US: u64 = 30_000;
/// Service cost per bottleneck layer, µs (Int4/degraded layers count
/// double).
const BASE_SERVICE_US: u64 = 5_000;

/// Parameters of one elastic-fleet simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticSimConfig {
    /// Devices live at t = 0 (ids `0..n_devices`).
    pub n_devices: usize,
    /// Total device ids churn may draw from (spares join later).
    pub device_pool: usize,
    /// Requests in the arrival trace.
    pub n_requests: usize,
    /// Dev hook: serve the first request twice, to prove the
    /// double-serve invariant actually fires.
    pub inject_double_serve: bool,
}

impl Default for ElasticSimConfig {
    fn default() -> Self {
        Self {
            n_devices: 3,
            device_pool: 6,
            n_requests: 40,
            inject_double_serve: false,
        }
    }
}

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When the event is observed, µs.
    pub at_us: u64,
    /// Device id (within the pool).
    pub device: usize,
    /// Join / Leave / Degrade.
    pub kind: FleetEventKind,
}

/// A replayable churn schedule (the shrink target and CI artifact).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ElasticChurnPlan {
    /// Events in chronological order.
    pub events: Vec<ChurnEvent>,
}

impl ElasticChurnPlan {
    /// No churn at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Serialize for counterexample artifacts / `--replay`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("churn plan serializes")
    }

    /// Parse a schedule previously written by [`to_json`](Self::to_json).
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad churn plan JSON: {e}"))
    }
}

/// Seeded churn schedule: joins of spare devices (half of them followed
/// by a leave timed to land *inside* the resulting migration window —
/// the abort path), plain leaves (which may shrink the fleet below
/// feasibility — the typed-infeasible path), degrades, and 3–4-toggle
/// flap bursts on a spare (the hysteresis path). Deterministic in
/// `(cfg, seed)`.
pub fn elastic_churn_plan(cfg: &ElasticSimConfig, seed: u64) -> ElasticChurnPlan {
    let mut state = seed ^ 0x454C_4153_5449_4331; // "ELASTIC1"
    let mut next = move |bound: u64| splitmix64(&mut state) % bound.max(1);
    let mut live: BTreeSet<usize> = (0..cfg.n_devices).collect();
    let mut events: Vec<ChurnEvent> = Vec::new();
    let mut t = 1_000_000 + next(4_000_000);
    let churn_end = HORIZON_US * 3 / 4;
    while t < churn_end {
        let spares: Vec<usize> = (0..cfg.device_pool).filter(|d| !live.contains(d)).collect();
        let lives: Vec<usize> = live.iter().copied().collect();
        match next(8) {
            0..=2 => {
                if let Some(&d) = spares.get(next(spares.len() as u64) as usize) {
                    events.push(ChurnEvent { at_us: t, device: d, kind: FleetEventKind::Join });
                    live.insert(d);
                    // Bias: half the joins are chased by a leave timed
                    // into the middle of the migration they trigger.
                    if next(2) == 0 && live.len() > 1 {
                        let lv: Vec<usize> = live.iter().copied().collect();
                        let victim = lv[next(lv.len() as u64) as usize];
                        events.push(ChurnEvent {
                            at_us: t + DEBOUNCE_US + MIGRATION_US / 2,
                            device: victim,
                            kind: FleetEventKind::Leave,
                        });
                        live.remove(&victim);
                    }
                }
            }
            3..=4 => {
                if let Some(&d) = lives.get(next(lives.len() as u64) as usize) {
                    events.push(ChurnEvent { at_us: t, device: d, kind: FleetEventKind::Leave });
                    live.remove(&d);
                }
            }
            5 => {
                if let Some(&d) = lives.get(next(lives.len() as u64) as usize) {
                    events.push(ChurnEvent { at_us: t, device: d, kind: FleetEventKind::Degrade });
                }
            }
            _ => {
                // Flap burst on a spare: 4 toggles net out to "still
                // gone" (pure hysteresis), 3 end joined (the
                // stabilized-flapper recheck path).
                if let Some(&d) = spares.get(next(spares.len() as u64) as usize) {
                    let toggles = 3 + next(2);
                    for k in 0..toggles {
                        let kind = if k % 2 == 0 {
                            FleetEventKind::Join
                        } else {
                            FleetEventKind::Leave
                        };
                        events.push(ChurnEvent { at_us: t + k * 40_000, device: d, kind });
                    }
                    if toggles % 2 == 1 {
                        live.insert(d);
                    }
                }
            }
        }
        t += 2_000_000 + next(6_000_000);
    }
    events.sort_by_key(|e| (e.at_us, e.device));
    ElasticChurnPlan { events }
}

/// Seeded arrival trace: a diurnal sinusoid over the horizon modulating
/// the mean gap, with every third triple of requests compressed into a
/// burst. Deterministic in `(cfg, seed)`.
pub fn elastic_arrivals(cfg: &ElasticSimConfig, seed: u64) -> Vec<u64> {
    let mut state = seed ^ 0x4152_5249_5645_5331; // "ARRIVES1"
    let mut next = move |bound: u64| splitmix64(&mut state) % bound.max(1);
    let base_gap = HORIZON_US / (2 * cfg.n_requests.max(1) as u64);
    let mut t = 0u64;
    let mut out = Vec::with_capacity(cfg.n_requests);
    for i in 0..cfg.n_requests {
        let phase = (t as f64 / HORIZON_US as f64) * std::f64::consts::TAU;
        let diurnal = (1.0 + 0.6 * phase.sin()).max(0.2);
        let jitter = 0.5 + next(1_000) as f64 / 1_000.0;
        let burst = if (i / 3) % 4 == 0 { 0.15 } else { 1.0 };
        t += ((base_gap as f64 * diurnal * jitter * burst) as u64).max(1_000);
        out.push(t);
    }
    out
}

/// Outcome of one elastic simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ElasticRun {
    /// Seed that drew arrivals (and, in sweeps, the churn schedule).
    pub seed: u64,
    /// Invariant violations (empty = run passed).
    pub violations: Vec<String>,
    /// Replans committed through the migration barrier.
    pub commits: u64,
    /// Migrations aborted by device loss mid-barrier.
    pub aborts: u64,
    /// Pending events dropped by flap hysteresis.
    pub suppressed: u64,
    /// Replans refused as typed-infeasible (old plan held).
    pub infeasible: u64,
    /// Requests offered / served / shed (shed only counted when the
    /// fleet ended genuinely unable to hold the model).
    pub offered: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Requests shed because the fleet ended infeasible.
    pub shed: usize,
    /// In-flight requests requeued off a dying device.
    pub recovered: usize,
    /// Events in the churn schedule.
    pub churn_events: usize,
}

/// What an elastic-fleet sweep counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ElasticTally {
    /// Runs that committed at least one replan.
    pub runs_with_commits: u64,
    /// Runs that aborted at least one migration.
    pub runs_with_aborts: u64,
    /// Runs that quarantined at least one flapping device.
    pub runs_with_suppressions: u64,
    /// Runs that raised the infeasible-fleet alarm.
    pub runs_infeasible: u64,
    /// Total in-flight requests recovered off dying devices.
    pub requests_recovered: u64,
}

fn initial_plan(cfg: &ElasticSimConfig) -> ExecutionPlan {
    let devices: Vec<usize> = (0..cfg.n_devices).collect();
    let stages = even_split(N_LAYERS, &devices, |_| usize::MAX, |_, _| Bitwidth::Int8);
    ExecutionPlan {
        model: "elastic-sim".into(),
        cluster: "elastic-sim".into(),
        stages,
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

fn service_time(plan: &ExecutionPlan) -> u64 {
    // Pipeline bottleneck: the slowest stage, with low-rung (degraded)
    // layers costing double.
    let bottleneck = plan
        .stages
        .iter()
        .map(|s| {
            s.bits
                .iter()
                .map(|&b| if b == Bitwidth::Int4 { 2u64 } else { 1 })
                .sum::<u64>()
        })
        .max()
        .unwrap_or(1);
    BASE_SERVICE_US * bottleneck.max(1)
}

fn plan_fully_live(plan: &ExecutionPlan, live: &BTreeSet<usize>) -> bool {
    plan.stages.iter().all(|s| live.contains(&s.device))
}

fn fleet_feasible(live: &BTreeSet<usize>, degraded: &BTreeSet<usize>) -> bool {
    let cap: usize = live
        .iter()
        .map(|d| {
            if degraded.contains(d) {
                (MAX_LAYERS_PER_DEVICE / 2).max(1)
            } else {
                MAX_LAYERS_PER_DEVICE
            }
        })
        .sum();
    !live.is_empty() && cap >= N_LAYERS
}

/// Run one seed's elastic scenario under `churn` and return the
/// invariant verdict (see the module docs for the invariant list).
/// Fully deterministic in `(cfg, seed, churn)`.
pub fn run_elastic(cfg: &ElasticSimConfig, seed: u64, churn: &ElasticChurnPlan) -> ElasticRun {
    let mut run = ElasticRun { seed, churn_events: churn.events.len(), ..ElasticRun::default() };
    let mut inv = Invariants::default();
    let arrivals = elastic_arrivals(cfg, seed);
    let mut controller = FleetController::new(
        Box::new(EvenSplitPlanner {
            n_layers: N_LAYERS,
            max_layers_per_device: MAX_LAYERS_PER_DEVICE,
        }),
        DebouncedPolicy::new(DEBOUNCE_US, COOLDOWN_US, FLAP_WINDOW_US, FLAP_MAX_TOGGLES),
        0..cfg.n_devices,
        initial_plan(cfg),
    );
    // External mirror of membership (the sim is the "cluster watcher").
    let mut live: BTreeSet<usize> = (0..cfg.n_devices).collect();
    let mut degraded: BTreeSet<usize> = BTreeSet::new();

    let tick_us = (DEBOUNCE_US / 2).max(1_000);
    let hard_cap = HORIZON_US + COOLDOWN_US + FLAP_WINDOW_US + 5_000_000;
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut in_service: Option<(usize, u64)> = None; // (request id, finish time)
    let mut migration_end: Option<u64> = None;
    let mut serve_counts: BTreeMap<usize, usize> = BTreeMap::new();
    let mut ci = 0usize; // churn cursor
    let mut ai = 0usize; // arrival cursor
    let mut next_tick = 0u64;

    loop {
        // Next event: churn, arrival, service completion, barrier end,
        // or controller tick — whichever is earliest.
        let mut t = next_tick;
        if let Some(e) = churn.events.get(ci) {
            t = t.min(e.at_us);
        }
        if let Some(&a) = arrivals.get(ai) {
            t = t.min(a);
        }
        if let Some((_, fin)) = in_service {
            t = t.min(fin);
        }
        if let Some(end) = migration_end {
            t = t.min(end);
        }
        let now = t;
        if now > hard_cap {
            break;
        }

        // 1. Membership churn (before commits at the same instant — a
        //    leave racing the barrier end must win and abort).
        while churn.events.get(ci).is_some_and(|e| e.at_us <= now) {
            let e = churn.events[ci];
            ci += 1;
            match e.kind {
                FleetEventKind::Join => {
                    live.insert(e.device);
                    degraded.remove(&e.device);
                }
                FleetEventKind::Leave => {
                    live.remove(&e.device);
                    degraded.remove(&e.device);
                }
                FleetEventKind::Degrade => {
                    if live.contains(&e.device) {
                        degraded.insert(e.device);
                    }
                }
            }
            // Work in flight on a dying device is recovered, never lost.
            if e.kind == FleetEventKind::Leave {
                let plan_uses = controller.plan().stages.iter().any(|s| s.device == e.device);
                if plan_uses {
                    if let Some((id, _)) = in_service.take() {
                        queue.push_front(id);
                        run.recovered += 1;
                    }
                }
            }
            let cmd =
                controller.on_event(FleetEvent { device: e.device, kind: e.kind, at_us: e.at_us });
            if let Some(ControllerCommand::AbortMigration { .. }) = cmd {
                if migration_end.take().is_some() {
                    controller.migration_resolved(false, now);
                }
            }
        }

        // 2. Arrivals.
        while arrivals.get(ai).is_some_and(|&a| a <= now) {
            queue.push_back(ai);
            run.offered += 1;
            ai += 1;
        }

        // 3. Service completion.
        if let Some((id, fin)) = in_service {
            if fin <= now {
                in_service = None;
                let hits = serve_counts.entry(id).or_insert(0);
                *hits += 1;
                if cfg.inject_double_serve && id == 0 {
                    // Dev hook: a buggy retry path re-serves a request
                    // that already completed.
                    *hits += 1;
                }
            }
        }

        // 4. Migration barrier end → commit.
        if migration_end.is_some_and(|end| end <= now) {
            migration_end = None;
            controller.migration_resolved(true, now);
            inv.plan_live(controller.plan(), &live, format_args!("at t={now}us"));
        }

        // 5. Controller tick.
        if next_tick <= now {
            next_tick = now.saturating_add(tick_us);
            if let Some(ControllerCommand::BeginMigration { .. }) = controller.tick(now) {
                migration_end = Some(now + MIGRATION_US);
            }
        }

        // 6. Dispatch: the old plan keeps serving through the barrier
        //    (that is what live migration buys), but only while every
        //    device it names is still alive.
        if in_service.is_none() && plan_fully_live(controller.plan(), &live) {
            if let Some(id) = queue.pop_front() {
                in_service = Some((id, now + service_time(controller.plan())));
            }
        }

        let drained = ci >= churn.events.len()
            && ai >= arrivals.len()
            && queue.is_empty()
            && in_service.is_none()
            && migration_end.is_none();
        if drained && now >= HORIZON_US && controller.state() == ControllerState::Idle {
            break;
        }
    }

    // --- verdict ---
    let alarms = controller.alarms();
    run.commits = controller.commits();
    run.aborts = alarms.aborted_migrations;
    run.suppressed = alarms.flap_suppressed;
    run.infeasible = alarms.infeasible_fleet;
    run.served = serve_counts.len();
    // What is still queued or in service was shed if the fleet ended
    // unable to hold the model, and is stranded (pending) if it could.
    let left = queue.len() + usize::from(in_service.is_some());
    let feasible = fleet_feasible(&live, &degraded);
    run.shed = if feasible { 0 } else { left };
    let completions = serve_counts.iter().flat_map(|(&id, &n)| std::iter::repeat_n((id, 0), n));
    inv.served_once(&(0..run.offered).map(|id| (id, None)).collect(), completions);
    let (offered, served, shed, recovered) = (run.offered, run.served, run.shed, run.recovered);
    let stats = AdmissionStats { offered, admitted: offered, served, shed, expired: 0, recovered };
    inv.conservation(&stats, left - run.shed);
    if feasible {
        inv.plan_live(controller.plan(), &live, "at the end of a serviceable run (stuck replan)");
    }
    let planner = match alarms.planner_errors {
        0 => Ok(()),
        n => Err(format!("{n} planner error(s)")),
    };
    inv.completed("fleet control loop", planner);
    run.violations = inv.into_violations();
    run
}

impl SimSchedule for ElasticChurnPlan {
    fn events(&self) -> usize {
        self.events.len()
    }

    fn without(&self, idx: usize) -> Self {
        let mut out = self.clone();
        out.events.remove(idx);
        out
    }
}

/// [`run_elastic`] under one seeded churn schedule per seed
/// ([`elastic_churn_plan`]).
impl SimScenario for ElasticSimConfig {
    type Schedule = ElasticChurnPlan;
    type Tally = ElasticTally;

    fn draw(&self, seed: u64) -> ElasticChurnPlan {
        elastic_churn_plan(self, seed)
    }

    fn run(&self, seed: u64, plan: &ElasticChurnPlan, tally: &mut ElasticTally) -> Vec<String> {
        let run = run_elastic(self, seed, plan);
        tally.runs_with_commits += u64::from(run.commits > 0);
        tally.runs_with_aborts += u64::from(run.aborts > 0);
        tally.runs_with_suppressions += u64::from(run.suppressed > 0);
        tally.runs_infeasible += u64::from(run.infeasible > 0);
        tally.requests_recovered += run.recovered as u64;
        run.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_plans_are_deterministic_and_round_trip_json() {
        let cfg = ElasticSimConfig::default();
        for seed in 0..50 {
            let a = elastic_churn_plan(&cfg, seed);
            assert_eq!(a, elastic_churn_plan(&cfg, seed), "seed {seed}");
            let back = ElasticChurnPlan::from_json(&a.to_json()).expect("parse");
            assert_eq!(a, back, "seed {seed}");
            assert_eq!(elastic_arrivals(&cfg, seed), elastic_arrivals(&cfg, seed));
        }
    }

    #[test]
    fn churn_free_run_serves_everything_without_replanning() {
        let cfg = ElasticSimConfig::default();
        let run = run_elastic(&cfg, 7, &ElasticChurnPlan::none());
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.served, cfg.n_requests);
        assert_eq!(run.commits, 0);
        assert_eq!(run.shed, 0);
    }

    #[test]
    fn scripted_join_scales_out_with_one_commit() {
        let cfg = ElasticSimConfig::default();
        let churn = ElasticChurnPlan {
            events: vec![ChurnEvent {
                at_us: 2_000_000,
                device: 4,
                kind: FleetEventKind::Join,
            }],
        };
        let run = run_elastic(&cfg, 11, &churn);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.commits, 1, "one join, one replan");
        assert_eq!(run.served, cfg.n_requests);
    }

    #[test]
    fn scripted_leave_mid_migration_aborts_then_recovers() {
        let cfg = ElasticSimConfig::default();
        // Join at 2 s starts a migration after the 20 ms debounce; the
        // leave lands in the middle of its 30 ms barrier.
        let churn = ElasticChurnPlan {
            events: vec![
                ChurnEvent { at_us: 2_000_000, device: 4, kind: FleetEventKind::Join },
                ChurnEvent {
                    at_us: 2_000_000 + DEBOUNCE_US + MIGRATION_US / 2,
                    device: 0,
                    kind: FleetEventKind::Leave,
                },
            ],
        };
        let run = run_elastic(&cfg, 11, &churn);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(run.aborts >= 1, "leave mid-barrier must abort: {run:?}");
        assert!(run.commits >= 1, "the survivors must still be replanned onto: {run:?}");
        assert_eq!(run.served, cfg.n_requests, "no request lost across the abort");
    }

    #[test]
    fn small_sweep_is_clean_and_exercises_the_elastic_paths() {
        let cfg = ElasticSimConfig::default();
        let report = crate::simnet::seed_sweep(&cfg, 0, 25);
        assert!(report.ok(), "failures: {:#?}", report.failures);
        assert!(report.tally.runs_with_commits > 0, "sweep never committed a replan");
        assert!(report.tally.runs_with_aborts > 0, "sweep never aborted a migration");
        assert!(report.tally.runs_with_suppressions > 0, "sweep never quarantined a flapper");
        assert!(report.tally.runs_infeasible > 0, "sweep never hit the infeasible path");
    }

    #[test]
    fn injected_double_serve_is_caught_and_shrinks() {
        let cfg = ElasticSimConfig { inject_double_serve: true, ..Default::default() };
        let churn = elastic_churn_plan(&cfg, 3);
        let run = run_elastic(&cfg, 3, &churn);
        assert!(
            run.violations.iter().any(|v| v.contains("served 2 times")),
            "double-serve must be flagged: {:?}",
            run.violations
        );
        let minimized = crate::simnet::shrink_schedule(&cfg, 3, &churn);
        assert!(
            minimized.events.is_empty(),
            "the injected bug reproduces without any churn, so shrinking must drain the \
             schedule: {minimized:?}"
        );
    }
}
