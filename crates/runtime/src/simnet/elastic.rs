//! Elastic-fleet chaos harness: the [`FleetController`] driven through
//! seeded membership churn (joins, leaves, degrades, flap bursts — with
//! leaves biased into migration windows) against seeded diurnal +
//! bursty request arrivals on a virtual clock. Algorithm 1
//! ([`FleetPlanner`]) plans a pool of simulated T4s and V100s, and every
//! request is offered to and stepped through [`ContinuousScheduler`] on
//! a [`SimStepEngine`] priced by the plan in force. The scheduler idles
//! while that plan names a dead device; a serving device's leave
//! requeues the work in flight through the ring-restart recovery. Every
//! run is checked by simnet's one invariant checker (DESIGN.md §13):
//! committed plans use only live devices; every offered request is
//! served exactly once, with [`sim_oracle_tokens`]' tokens and no
//! streamed token contradicted, or shed while the planner has no plan
//! for the fleet — so a serviceable fleet with stranded requests or a
//! dead plan fails.
//!
//! Violations shrink greedily to a minimal replayable churn schedule,
//! exactly like the wire-level and serving-chaos sweeps: the harness is
//! a [`SimScenario`] that [`super::seed_sweep`] and [`super::shrink_schedule`] run.
//! `llmpq-simnet --elastic` is a thin CLI wrapper over it.

use super::invariants::Invariants;
use super::shrink::{SimScenario, SimSchedule};
use crate::elastic::{
    ControllerCommand, ControllerState, DebouncedPolicy, ElasticPlanner, FleetController,
    FleetEvent, FleetEventKind, FleetPlanner, FleetView,
};
use crate::overload::{arrival_requests, AdmissionConfig, Request};
use crate::serve::{sim_oracle_tokens, ContinuousConfig, ContinuousScheduler, IterCost, SimStepEngine};
use crate::splitmix64;
use llm_pq::evaluate::batch_latency;
use llm_pq::{AssignerConfig, ExecutionPlan, IncrementalPlanner, SolverChoice};
use llmpq_cluster::{Cluster, GpuModel, Interconnect};
use llmpq_cost::CostDb;
use llmpq_model::{ModelFamily, ModelSpec};
use llmpq_quant::random_indicator;
use llmpq_sim::KernelEnv;
use llmpq_workload::{ArrivalSpec, BatchJob};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Simulated horizon, µs (churn stops at ¾ of it; the run gets a settle
/// grace period past it).
const HORIZON_US: u64 = 60_000_000;
/// Layers of the simulated model: with [`HIDDEN`], enough that a lone
/// T4 misses it by more than 5 % of its memory at the lowest rung.
const N_LAYERS: usize = 9;
/// Hidden width of the simulated model.
const HIDDEN: usize = 16_384;
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
/// Scheduler token budget per iteration.
const TOKEN_BUDGET: usize = 16;
/// Scheduler batch cap (and the batch the planner plans for).
const MAX_BATCH: usize = 4;
/// The vocabulary `SimStepEngine::for_trace` samples from.
const VOCAB: usize = 97;

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

/// Seeded request trace: a diurnal sinusoid over the horizon modulating
/// the mean arrival gap, with every third triple of requests compressed
/// into a burst; prompts of 4–8 tokens, 2–6 tokens asked for.
/// Deterministic in `(cfg, seed)`.
pub fn elastic_arrivals(cfg: &ElasticSimConfig, seed: u64) -> Vec<Request> {
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
        let (prompt_len, n_generate) = (4 + next(5) as usize, 2 + next(5) as usize);
        out.push(ArrivalSpec { arrival_s: t as f64 / 1e6, prompt_len, n_generate, priority: 0 });
    }
    arrival_requests(&out)
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
    /// The plan in force when the run ended (`None`: no initial plan).
    pub final_plan: Option<ExecutionPlan>,
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

/// Pool device `d`: every third one a V100, the rest T4s, each on a
/// node of its own.
fn pool(cfg: &ElasticSimConfig) -> Cluster {
    let class = |d: usize| if d % 3 == 2 { GpuModel::V100_32G } else { GpuModel::T4_16G };
    let groups: Vec<(GpuModel, usize)> = (0..cfg.device_pool).map(|d| (class(d), 1)).collect();
    Cluster::from_groups("elastic-sim", &groups, Interconnect::Ethernet800G, None)
}

fn spec() -> ModelSpec {
    ModelSpec::new(ModelFamily::Opt, "elastic-sim", N_LAYERS, HIDDEN, 64, 50_272, 2_048)
}

/// The simulated fleet's Algorithm-1 planner, sized like `llmpq-dist`'s
/// recovery-path search.
pub(crate) fn fleet_planner(cfg: &ElasticSimConfig) -> FleetPlanner {
    let job = BatchJob { global_batch: MAX_BATCH, prompt_len: 8, n_generate: 4 };
    let search = AssignerConfig {
        theta: 0.1,
        solver: SolverChoice::Dp { group: 2 },
        xi: 2,
        max_orderings: 4,
        dp_grid: Some(8),
        ..AssignerConfig::default()
    };
    FleetPlanner::new(
        pool(cfg),
        IncrementalPlanner::new(spec(), job, search),
        CostDb::oracle(&KernelEnv::default()),
        random_indicator(N_LAYERS, 0xE1A5_71C5, 1.0),
    )
}

/// What an iteration costs under `plan` on `fleet`: the plan's batch
/// latency, fitted to `trace`'s shape.
fn price(plan: &ExecutionPlan, fleet: &Cluster, trace: &[Request]) -> IterCost {
    let (spec, db) = (spec(), CostDb::oracle(&KernelEnv::default()));
    IterCost::fit_trace(trace, MAX_BATCH, |job| batch_latency(plan, fleet, &spec, &db, job))
}

/// Run one seed's elastic scenario under `churn` and return the
/// invariant verdict (see the module docs for the invariant list).
/// Fully deterministic in `(cfg, seed, churn)`.
pub fn run_elastic(cfg: &ElasticSimConfig, seed: u64, churn: &ElasticChurnPlan) -> ElasticRun {
    let mut run = ElasticRun { seed, churn_events: churn.events.len(), ..ElasticRun::default() };
    let mut inv = Invariants::default();
    let trace = elastic_arrivals(cfg, seed);
    // External mirror of membership (the sim is the "cluster watcher").
    let mut live: BTreeSet<usize> = (0..cfg.n_devices).collect();
    let mut degraded: BTreeSet<usize> = BTreeSet::new();
    // A second planner prices plans and judges, at the end, whether the
    // fleet can be served.
    let mut judge = fleet_planner(cfg);
    let mut planner = fleet_planner(cfg);
    let spares: Vec<usize> = (cfg.n_devices..cfg.device_pool).collect();
    let initial = planner.replan(&spares, &degraded).map(|out| out.plan);
    let Some(initial) = inv.completed("initial plan", initial) else {
        run.violations = inv.into_violations();
        return run;
    };
    let cost = price(&initial, &judge.fleet(&degraded), &trace);
    let engine = SimStepEngine::for_trace(&trace, vec![cost], MAX_BATCH, seed);
    let serve_cfg = ContinuousConfig {
        admission: AdmissionConfig { max_queue: trace.len().max(1), ..AdmissionConfig::default() },
        token_budget: TOKEN_BUDGET,
        max_batch: MAX_BATCH,
        ..ContinuousConfig::default()
    };
    let mut sched = ContinuousScheduler::new(engine, serve_cfg).expect("a valid scheduler config");
    let mut controller = FleetController::new(
        Box::new(planner),
        DebouncedPolicy::new(DEBOUNCE_US, COOLDOWN_US, FLAP_WINDOW_US, FLAP_MAX_TOGGLES),
        0..cfg.n_devices,
        initial,
    );

    let tick_us = (DEBOUNCE_US / 2).max(1_000);
    let hard_cap = HORIZON_US + COOLDOWN_US + FLAP_WINDOW_US + 5_000_000;
    let arrival_us = |r: &Request| (r.arrival_s * 1e6).round() as u64;
    let mut busy_until: Option<u64> = None; // end of the iteration in progress
    let mut migration_end: Option<u64> = None;
    let mut finished: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut landed: Vec<(usize, usize, usize)> = Vec::new();
    let mut ci = 0usize; // churn cursor
    let mut ai = 0usize; // arrival cursor
    let mut next_tick = 0u64;

    loop {
        // Next event: churn, arrival, iteration end, barrier end, or
        // controller tick — whichever is earliest.
        let mut t = next_tick;
        if let Some(e) = churn.events.get(ci) {
            t = t.min(e.at_us);
        }
        if let Some(r) = trace.get(ai) {
            t = t.min(arrival_us(r));
        }
        for end in [busy_until, migration_end].into_iter().flatten() {
            t = t.min(end);
        }
        let now = t;
        if now > hard_cap {
            break;
        }
        let mut reprice = false;

        // 1. Membership churn (before commits at the same instant — a
        //    leave racing the barrier end must win and abort).
        while churn.events.get(ci).is_some_and(|e| e.at_us <= now) {
            let e = churn.events[ci];
            ci += 1;
            reprice = true;
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
            // Work in flight on a dying device is recovered, never lost:
            // the ring it ran on is gone, as after a ring restart.
            if e.kind == FleetEventKind::Leave
                && controller.plan().stages.iter().any(|s| s.device == e.device)
            {
                sched.recover_from_restart();
                busy_until = None;
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
        while trace.get(ai).is_some_and(|r| arrival_us(r) <= now) {
            sched.offer(trace[ai].clone(), now as f64 / 1e6);
            ai += 1;
        }

        // 3. The iteration in progress ends.
        if busy_until.is_some_and(|end| end <= now) {
            busy_until = None;
        }

        // 4. Migration barrier end → commit.
        if migration_end.is_some_and(|end| end <= now) {
            migration_end = None;
            controller.migration_resolved(true, now);
            inv.plan_live(controller.plan(), &live, format_args!("at t={now}us"));
            reprice = true;
        }
        if reprice {
            let cost = price(controller.plan(), &judge.fleet(&degraded), &trace);
            sched.engine_mut().reprice(cost);
        }

        // 5. Controller tick.
        if next_tick <= now {
            next_tick = now.saturating_add(tick_us);
            if let Some(ControllerCommand::BeginMigration { .. }) = controller.tick(now) {
                migration_end = Some(now + MIGRATION_US);
            }
        }

        // 6. Step: the old plan keeps serving through the barrier (that
        //    is what live migration buys), but only while every device
        //    it names is still alive.
        let work = sched.queued() + sched.in_flight() > 0;
        let plan_live = controller.plan().stages.iter().all(|s| live.contains(&s.device));
        if busy_until.is_none() && work && plan_live {
            let Some(out) = inv.completed("scheduler step", sched.step(now as f64 / 1e6)) else {
                break;
            };
            if !out.idle {
                busy_until = Some(now + ((out.cost_s * 1e6).ceil() as u64).max(1));
            }
            landed.extend_from_slice(&out.landed);
            for fin in out.finished {
                if cfg.inject_double_serve && fin.id == 0 {
                    // Dev hook: a buggy retry path re-serves a request
                    // that already completed.
                    finished.push((fin.id, fin.tokens.clone()));
                }
                finished.push((fin.id, fin.tokens));
            }
        }

        let drained = ci >= churn.events.len()
            && ai >= trace.len()
            && !work
            && busy_until.is_none()
            && migration_end.is_none();
        if drained && now >= HORIZON_US && controller.state() == ControllerState::Idle {
            break;
        }
    }

    // --- verdict ---
    let alarms = controller.alarms();
    run.commits = controller.commits();
    run.final_plan = Some(controller.plan().clone());
    run.aborts = alarms.aborted_migrations;
    run.suppressed = alarms.flap_suppressed;
    run.infeasible = alarms.infeasible_fleet;
    // What is still queued or in flight was shed if the planner has no
    // plan for the final fleet, and is stranded (pending) if it has.
    let left = sched.queued() + sched.in_flight();
    let plan_live = controller.plan().stages.iter().all(|s| live.contains(&s.device));
    let servable = plan_live || judge.plan(&FleetView { live: &live, degraded: &degraded }).is_ok();
    let mut stats = sched.stats();
    if !servable {
        stats.shed += left;
    }
    (run.offered, run.served, run.shed, run.recovered) =
        (stats.offered, stats.served, stats.shed, stats.recovered);
    let offered = trace.iter().map(|r| (r.id, Some(r.n_generate))).collect();
    inv.served_once(&offered, finished.iter().map(|(id, tokens)| (*id, tokens.len())));
    let oracle = |r: &Request| sim_oracle_tokens(seed, VOCAB, &r.prompt, r.n_generate);
    let want = finished.iter().map(|&(id, _)| (id, oracle(&trace[id])));
    inv.matches_oracle("sim_oracle_tokens", want, finished.clone());
    inv.stream_consistent("elastic run", &landed);
    inv.conservation(&stats, if servable { left } else { 0 });
    if servable {
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
    fn a_lone_t4_misses_the_model_by_five_percent() {
        // The cheapest stage there is — every layer at int3, 8-bit KV,
        // one-sequence micro-batches — still overflows a T4 by more than
        // 5 % of its memory, so the infeasible-fleet path is not a
        // rounding accident of the memory model.
        use llmpq_cost::{stage_memory, MemoryJob};
        use llmpq_quant::Bitwidth;
        let job = MemoryJob { prefill_size: 1, decode_size: 1, ..MemoryJob::unsplit(MAX_BATCH, 8, 4, 8.0) };
        let need = stage_memory(&spec(), &[Bitwidth::Int3; N_LAYERS], &job, true, 1).total();
        let t4 = GpuModel::T4_16G.spec().mem_bytes();
        assert!(need > 1.05 * t4, "needs {:.2} GB of {:.2} GB", need / 1e9, t4 / 1e9);
    }

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
    fn serving_device_leaving_mid_request_is_recovered_and_replanned_by_algorithm_1() {
        let cfg = ElasticSimConfig::default();
        let seed = 11;
        // Request 0 is being served 10 ms after it arrives, when device
        // 1, which serves a stage of the initial plan, leaves.
        let t0 = (elastic_arrivals(&cfg, seed)[0].arrival_s * 1e6).round() as u64;
        let churn = ElasticChurnPlan {
            events: vec![ChurnEvent { at_us: t0 + 10_000, device: 1, kind: FleetEventKind::Leave }],
        };
        let run = run_elastic(&cfg, seed, &churn);
        // The verdict includes the token oracle (`sim_oracle_tokens` for
        // every served request), stream consistency and served-once.
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(run.recovered >= 1, "request 0 was in flight on device 1: {run:?}");
        assert_eq!((run.served, run.offered, run.shed), (cfg.n_requests, cfg.n_requests, 0));
        assert_eq!(run.commits, 1);
        let committed = run.final_plan.expect("a plan is in force");
        assert!(committed.stages.iter().all(|s| s.device != 1), "{committed:?}");
        let survivors = fleet_planner(&cfg).replan(&[1, 3, 4, 5], &BTreeSet::new()).unwrap().plan;
        assert_eq!(committed, survivors, "the committed plan is Algorithm 1's on the survivors");
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
