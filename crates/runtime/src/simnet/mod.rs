//! Deterministic simulation harness for the distributed runtime —
//! virtual clock + simulated network for exhaustive fault-schedule
//! exploration.
//!
//! The real multi-process pipeline ([`crate::net::dist`]) can only be
//! tested against the faults a wire-level injector happens to fire
//! while wall-clock time races by. This module replays the **same
//! protocol** — master engine, stage workers, heartbeat control plane,
//! attempt epochs, admission accounting — inside a simulated world
//! where:
//!
//! * **time is virtual**: every sleep, timeout and deadline runs on a
//!   [`VirtualClock`] that only advances when *every* actor is blocked,
//!   so a 60-second recovery scenario simulates in milliseconds and two
//!   runs with the same seed produce byte-identical event traces;
//! * **the network is simulated**: [`SimFaultPlan`] schedules delays,
//!   drops, duplicates, corruptions (surfaced through the *real* frame
//!   CRC), disconnects, partitions (with or without heal) and stage
//!   crash-and-restarts, deterministically seeded;
//! * **invariants are checked after every run**, by the one checker
//!   every chaos harness reports through (`invariants::Invariants`;
//!   DESIGN.md §13 tabulates its rules): token output must be
//!   bit-identical to the fault-free sequential oracle, admission must
//!   conserve (`offered == served + shed + expired + pending`), virtual
//!   time must never run past the horizon with work pending (deadlock /
//!   livelock), restarts must respect the recovery bound, and swap
//!   epochs must strictly increase;
//! * **failures shrink**: [`seed_sweep`] drives hundreds of random
//!   schedules and, on a violation, [`shrink_schedule`] greedily removes events
//!   until a minimal reproducing counterexample remains, serialized as
//!   replayable JSON — one sweep and one shrinker for this simulation,
//!   the serving-chaos harness and the elastic-fleet harness alike
//!   (each is a [`SimScenario`]).
//!
//! The determinism contract (also stated on [`crate::clock::Clock`]):
//! simulated code paths read time only through a [`Clock`] and contain
//! no unseeded randomness. `engine::drive_generation` over the one
//! master endpoint (`engine::Master`, live-swap barrier included) and
//! `worker::run_worker_transport` — the actual production loops — run
//! unchanged inside the simulation; only the transport and the clock
//! are swapped. The master actor is production's offline master too: a
//! [`Pipeline`] driving the simulated net as a `ServingRing`, under one
//! `SupervisorConfig` like every offline run, the ring supplying the
//! virtual clock, the per-attempt trace lines and the plan its stage
//! actors boot on — the lines, and where they fall in virtual time, are
//! part of the byte-identical replay contract. (The serving loop,
//! [`ContinuousScheduler`](crate::serve::ContinuousScheduler), honors
//! the contract by construction: every entry point takes `now` and it
//! never reads a clock of its own.)

mod conn;
mod elastic;
mod invariants;
mod plan;
mod sched;
mod serving;
mod shrink;
mod testbed;

pub use conn::VirtualClock;
pub use elastic::{
    elastic_arrivals, elastic_churn_plan, run_elastic, ChurnEvent, ElasticChurnPlan, ElasticRun,
    ElasticSimConfig, ElasticTally,
};
#[cfg(test)]
pub(crate) use elastic::fleet_planner;
pub use plan::{SimCrash, SimDeviceJoin, SimFaultKind, SimFaultPlan, SimLinkEvent, SimPartition};
pub use serving::{
    run_serving_chaos, serving_fault_plan, serving_swap, ServingChaosConfig, ServingChaosRun,
    ServingTally,
};
pub use shrink::{
    seed_sweep, shrink_schedule, SimScenario, SimSchedule, SimTally, SweepFailure, SweepReport,
};
pub use testbed::{wire_exchange, WireExchange, WireExchangeConfig};

use crate::clock::Clock;
use crate::engine::{Pipeline, RuntimeError};
use crate::fault::Heartbeats;
use crate::loader::load_stage_weights;
use crate::migrate::{MigrationCoordinator, MigrationHost, SwapReport, SwapRequest};
use crate::net::transport::Transport;
use crate::net::wire::WireMsg;
use crate::overload::{AdmissionConfig, AdmissionController, AdmissionStats, Request};
use crate::serve_dist::ServingRing;
use crate::supervisor::SupervisorConfig;
use crate::telemetry::Telemetry;
use crate::worker::{run_worker_transport, WorkerCtx};
use conn::{SimConn, SimTransport};
use invariants::Invariants;
use llm_pq::{ExecutionPlan, MicrobatchPlan};
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{quantize_model, Bitwidth, Rounding};
use sched::{ActorGuard, AwaitEpoch, CrashEnd, RecvEnd, SimNet, NEVER_US};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Prompts every simulated run offers to admission and generates over.
fn offered_prompts() -> Vec<Vec<usize>> {
    vec![vec![1, 2, 3], vec![9, 8]]
}

/// The master's failure policy, in virtual time: a 1 ms tick, a stage
/// stale for 250 ms is hung, 500 ms without progress is a stall (and
/// bounds both deadlines of a plan swap), and restarts back off from
/// 5 ms, doubling up to 320 ms. `max_restarts` is the run's budget.
const SUPERVISOR: SupervisorConfig = SupervisorConfig {
    heartbeat_timeout_ms: 250,
    progress_timeout_ms: 500,
    tick_ms: 1,
    max_restarts: 0,
    backoff_base_ms: 5,
    backoff_cap_ms: 320,
    max_queue: None,
};
/// Supervision tick, virtual µs (stage workers and control readers
/// poll at it too).
const TICK_US: u64 = SUPERVISOR.tick_ms * 1_000;
/// Both deadlines of a plan swap: the progress timeout.
const SWAP_TIMEOUT: Duration = Duration::from_millis(SUPERVISOR.progress_timeout_ms);
/// One-way link latency, virtual µs.
const LINK_LATENCY_US: u64 = 50;
/// Virtual-time budget: a run that would pass this with work still
/// pending is flagged as deadlocked/livelocked.
const HORIZON_US: u64 = 60_000_000;

/// Parameters of one simulated pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Pipeline stages (clamped to the tiny model's layer count).
    pub n_stages: usize,
    /// Tokens generated per prompt.
    pub n_generate: usize,
    /// Recovery bound: restarts allowed before the master gives up.
    pub max_restarts: usize,
    /// Dev-only checker-validation hook: double-count one served
    /// request after a recovered run, breaking admission conservation
    /// on purpose so tests can prove the invariant checker (and the
    /// shrinker) catch real accounting bugs.
    pub inject_conservation_bug: bool,
    /// Layer count of the simulated model (`None` = the 2-layer tiny
    /// default). Migration scenarios use 4 so a repartition has a layer
    /// to move.
    #[serde(default)]
    pub n_layers: Option<usize>,
    /// Live plan-swap scenario driven through the two-phase protocol
    /// while the fault schedule fires. `None` = plain serving.
    #[serde(default)]
    pub migration: Option<SimMigration>,
}

/// A live migration the simulated master schedules: one plan swap to
/// [`ExecutionPlan::int4_with_one_layer_moved`], shipping the moved
/// layer's KV slices in the commit window. When the fault schedule
/// contains a [`SimDeviceJoin`], the last stage is re-homed onto the
/// joined device — the migrate-onto-new-device move.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimMigration {
    /// Generated-token boundary of the swap (clamped to ≥ 1; token 0 is
    /// produced by the prefill under the base plan).
    pub at_token: usize,
}

impl Default for SimMigration {
    fn default() -> Self {
        Self { at_token: 2 }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            n_stages: 2,
            n_generate: 4,
            max_restarts: 3,
            inject_conservation_bug: false,
            n_layers: None,
            migration: None,
        }
    }
}

impl SimConfig {
    /// The default live-migration scenario: 4 layers over the stages, a
    /// precision-drop + repartition swap at token 2 of a 6-token run —
    /// long enough that faults can land before, inside, and after the
    /// prepare/commit window.
    pub fn migration_default() -> Self {
        Self {
            n_layers: Some(4),
            n_generate: 6,
            migration: Some(SimMigration::default()),
            ..Self::default()
        }
    }
}

/// Everything one simulated run produced, invariant verdict included.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Seed the schedule was drawn from, if it came from a sweep.
    pub seed: Option<u64>,
    /// Generated tokens (present iff the run succeeded).
    pub tokens: Option<Vec<Vec<usize>>>,
    /// Terminal error of the run, if it failed after exhausting
    /// restarts — an *allowed* outcome under unsurvivable schedules.
    pub error: Option<String>,
    /// Restarts the master took.
    pub restarts: usize,
    /// Admission counters at the end of the run.
    pub admission: AdmissionStats,
    /// Requests still queued at the end (conservation term).
    pub pending: usize,
    /// Frames rejected by stale-attempt protection.
    pub stale_drops: u64,
    /// Frames the receivers detected as corrupt via the frame CRC.
    pub corrupt_detected: u64,
    /// One report per resolved plan swap (live-migration runs only).
    #[serde(default)]
    pub swaps: Vec<SwapReport>,
    /// The deterministic event trace (same seed ⇒ byte-identical).
    pub trace: Vec<String>,
    /// Invariant violations; empty means the run upheld every invariant
    /// (which includes runs that *failed over* legitimately).
    pub violations: Vec<String>,
    /// Virtual time at which the world wound down.
    pub final_virtual_us: u64,
}

impl SimReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The trace as one newline-joined string (byte-comparable).
    pub fn trace_text(&self) -> String {
        self.trace.join("\n")
    }
}

/// Evenly split the tiny model's layers into `n_stages` (≤ its layers;
/// the first stages take the larger shares), alternating Int8/Fp16 so
/// the oracle exercises the quantized path.
fn build_exec_plan(model: &RefModel, n_stages: usize, n_seqs: usize) -> ExecutionPlan {
    let n = model.cfg.n_layers;
    let mut bits = (0..n).map(|l| if l % 2 == 0 { Bitwidth::Int8 } else { Bitwidth::Fp16 });
    let stage_bits =
        (0..n_stages).map(|i| bits.by_ref().take(n / n_stages + usize::from(i < n % n_stages)).collect());
    let microbatch = MicrobatchPlan {
        prefill_size: 2,
        prefill_count: n_seqs.div_ceil(2).max(1),
        decode_size: n_seqs.max(1),
        decode_count: 1,
    };
    ExecutionPlan::contiguous("tiny", "simnet", stage_bits.collect(), microbatch)
}

/// The migration target for a simulated run: every layer drops to Int4
/// (so commit vs. abort is visible in token space against the mixed
/// Int8/Fp16 base) and one layer moves across the first movable stage
/// boundary (so commit ships KV); when the fault schedule has a device
/// join, the last stage is re-homed onto the joined device.
fn build_target_plan(base: &ExecutionPlan, joins: &[plan::SimDeviceJoin]) -> ExecutionPlan {
    let mut target = base.int4_with_one_layer_moved();
    if let (Some(j), Some(last)) = (joins.first(), target.stages.last_mut()) {
        last.device = j.device;
    }
    target
}

/// The simulated network as the master's [`ServingRing`]: a dial is
/// one attempt epoch on the master's two data links. Stage actors run
/// on their own and pick the epoch up; there is nothing to reap.
struct SimRing {
    net: Arc<SimNet>,
    master_id: usize,
    n_stages: usize,
    /// The master actor's virtual clock.
    clock: Arc<dyn Clock>,
    /// The master's board, fed by the control readers.
    hb: Arc<Heartbeats>,
    telemetry: Arc<Telemetry>,
    /// The plan in force, which every stage actor re-reads on each
    /// attempt like a restarted stage process would.
    plan: Arc<Mutex<ExecutionPlan>>,
}

impl ServingRing for SimRing {
    fn dial(&mut self, attempt: usize) -> Result<Box<dyn Transport + Send>, String> {
        self.net.trace(&format!("master: attempt {attempt} begins"));
        // A (re)connected stage counts as alive — reset the staleness
        // baseline like the dist handshake does.
        for s in 0..self.n_stages {
            self.hb.beat(s);
        }
        let conn = |link: usize| SimConn {
            net: self.net.clone(),
            me: self.master_id,
            owner_stage: None,
            link,
            epoch: attempt as u64,
        };
        // Dropping the link closes the outbound epoch (EOF cascade).
        Ok(Box::new(SimTransport::new(conn(self.n_stages), conn(0))))
    }

    /// Publish the plan so (re)started stages boot on it.
    fn retarget(&mut self, plan: &ExecutionPlan) -> Result<(), RuntimeError> {
        *self.plan.lock().unwrap_or_else(PoisonError::into_inner) = plan.clone();
        Ok(())
    }

    fn attempt_ended(&self, attempt: usize, failure: Option<&RuntimeError>) {
        self.net.trace(&match failure {
            None => format!("master: attempt {attempt} succeeded"),
            Some(e) => format!("master: attempt {attempt} failed: {e}"),
        })
    }

    fn n_stages(&self) -> usize {
        self.n_stages
    }

    fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    fn heartbeats(&self) -> Option<Arc<Heartbeats>> {
        Some(self.hb.clone())
    }
}

struct MasterOutcome {
    result: Result<Vec<Vec<usize>>, RuntimeError>,
    restarts: usize,
    stats: AdmissionStats,
    pending: usize,
    swaps: Vec<SwapReport>,
}

/// One timed chaos operation, pre-sorted for deterministic application.
enum ChaosOp {
    Partition { link: usize, until: u64 },
    Crash { stage: usize, restart_at: u64 },
}

/// Run the master + `n`-stage distributed protocol once under `plan`,
/// deterministically, and check every invariant. Same `(cfg, plan)` ⇒
/// byte-identical [`SimReport::trace`] and verdict.
pub fn run_sim(cfg: &SimConfig, plan: &SimFaultPlan) -> SimReport {
    let ref_cfg = cfg
        .n_layers
        .map_or_else(RefConfig::tiny, |l| RefConfig { n_layers: l.clamp(1, 8), ..RefConfig::tiny() });
    let model = Arc::new(RefModel::new(ref_cfg));
    let n = cfg.n_stages.clamp(1, model.cfg.n_layers);
    let offered = offered_prompts();
    let n_seqs = offered.len();
    let exec = build_exec_plan(&model, n, n_seqs);
    // Live-migration state: the swap target, the plan currently in force
    // (workers re-read it on every attempt — after a committed swap a
    // restarted stage must boot on the *target* plan), and the shared
    // host that lets workers requantize their shard on `PlanPropose`.
    let target = cfg.migration.as_ref().map(|_| build_target_plan(&exec, &plan.joins));
    let shared_plan = Arc::new(Mutex::new(exec.clone()));
    let host = cfg.migration.as_ref().map(|_| {
        let mut h = MigrationHost::new(Arc::clone(&model), Rounding::Deterministic, 0);
        h.commit_timeout = SWAP_TIMEOUT;
        Arc::new(h)
    });

    let net = Arc::new(SimNet::new(HORIZON_US, n));
    // Links: data 0..=n (link i feeds stage i; link n returns to the
    // master), then one control link per stage.
    let events_for = |link: usize| {
        plan.link_events
            .iter()
            .filter(|e| e.link == link)
            .map(|e| (e.after_frames, e.kind.clone()))
            .collect::<Vec<_>>()
    };
    for i in 0..=n {
        let name = if i == n { format!("data {n}→master") } else { format!("data →stage {i}") };
        net.add_link(name, LINK_LATENCY_US, events_for(i));
    }
    for s in 0..n {
        net.add_link(format!("ctl stage {s}"), LINK_LATENCY_US, events_for(n + 1 + s));
    }
    // Actors: master, stages, control readers, chaos — ids fixed by
    // registration order, which fixes the schedule.
    let master_id = net.add_actor("master");
    let stage_ids: Vec<usize> = (0..n).map(|s| net.add_actor(format!("stage {s}"))).collect();
    let reader_ids: Vec<usize> = (0..n).map(|s| net.add_actor(format!("ctl reader {s}"))).collect();
    let chaos_id = net.add_actor("chaos");
    for (s, &actor) in stage_ids.iter().enumerate() {
        net.set_receiver(s, actor);
    }
    net.set_receiver(n, master_id);
    for (s, &actor) in reader_ids.iter().enumerate() {
        net.set_receiver(n + 1 + s, actor);
    }

    let observer: Arc<dyn Clock> = Arc::new(VirtualClock::observer(net.clone()));
    let hb = Heartbeats::with_clock(n, observer.clone());
    // The master's hub stamps every work item it sends with virtual time
    // (the stamp is in the frame bytes, hence in a corrupt frame's trace
    // line). A stage actor stands for a stage *process*: like
    // `run_stage` it counts into a hub that keeps no spans, and so
    // forwards the master's stamp as it came.
    let telemetry = Telemetry::with_clock(n, observer.clone());
    let stage_hub = Telemetry::counters_only(n, observer);

    // Timed chaos operations, sorted by (time, declaration order).
    let mut ops: Vec<(u64, usize, ChaosOp)> = Vec::new();
    for p in &plan.partitions {
        let until = p.heal_at_us.unwrap_or(NEVER_US);
        ops.push((p.at_us, ops.len(), ChaosOp::Partition { link: p.link, until }));
    }
    for c in &plan.crashes {
        let restart_at = c.restart_after_us.map_or(NEVER_US, |r| c.at_us.saturating_add(r));
        ops.push((c.at_us, ops.len(), ChaosOp::Crash { stage: c.stage, restart_at }));
    }
    ops.sort_by_key(|(at, idx, _)| (*at, *idx));

    let outcome: Mutex<Option<MasterOutcome>> = Mutex::new(None);

    std::thread::scope(|scope| {
        // --- master actor -------------------------------------------------
        {
            let net = net.clone();
            let hb = hb.clone();
            let telemetry = telemetry.clone();
            let (model, exec, outcome, target) = (&model, &exec, &outcome, &target);
            let offered = &offered;
            let shared_plan = shared_plan.clone();
            scope.spawn(move || {
                net.enter(master_id);
                let _g = ActorGuard::new(&net, master_id);
                let clock: Arc<dyn Clock> =
                    Arc::new(VirtualClock::actor(net.clone(), master_id));
                let mut admission = AdmissionController::new(AdmissionConfig {
                    max_queue: offered.len().max(1),
                    ..AdmissionConfig::default()
                });
                let now_s = clock.now().as_secs_f64();
                for (i, p) in offered.iter().enumerate() {
                    admission.offer(
                        Request {
                            id: i,
                            arrival_s: now_s,
                            prompt: p.clone(),
                            n_generate: cfg.n_generate,
                            deadline_s: None,
                            priority: 0,
                        },
                        now_s,
                    );
                }
                let mut prompts: Vec<Vec<usize>> = Vec::new();
                while let Some(r) = admission.take() {
                    prompts.push(r.prompt);
                }
                let mut coord = target.as_ref().map(|t| {
                    let m = cfg.migration.as_ref().expect("target implies migration config");
                    MigrationCoordinator::new(
                        vec![SwapRequest { at_token: m.at_token.max(1), plan: t.clone() }],
                        n,
                        SWAP_TIMEOUT,
                    )
                });
                let mut ring = SimRing {
                    net: net.clone(),
                    master_id,
                    n_stages: n,
                    clock,
                    hb,
                    telemetry: telemetry.clone(),
                    plan: shared_plan,
                };
                let supervisor = SupervisorConfig { max_restarts: cfg.max_restarts, ..SUPERVISOR };
                let result = Pipeline::new(model, exec)
                    .supervised(supervisor)
                    .drive(&mut ring, &prompts, cfg.n_generate, coord.as_mut())
                    .map(|out| out.tokens);
                let restarts = telemetry.restarts() as usize;
                match &result {
                    Ok(_) => admission.note_served(prompts.len()),
                    Err(_) => admission.note_shed(prompts.len()),
                }
                if cfg.inject_conservation_bug && restarts > 0 {
                    // Deliberate accounting bug (see SimConfig docs).
                    admission.note_served(1);
                }
                // Resolve a swap whose commit went out on the final
                // attempt but whose report is still pending.
                if let Some(c) = coord.as_mut() {
                    c.begin_attempt();
                }
                let record = MasterOutcome {
                    result,
                    restarts,
                    stats: admission.stats(),
                    pending: admission.pending(),
                    swaps: coord.map(|c| c.reports).unwrap_or_default(),
                };
                *outcome.lock().unwrap_or_else(PoisonError::into_inner) = Some(record);
                net.set_run_over();
            });
        }

        // --- stage actors -------------------------------------------------
        for (s, &me) in stage_ids.iter().enumerate() {
            let net = net.clone();
            let model = &model;
            let shared_plan = shared_plan.clone();
            let host = host.clone();
            let stage_hub = stage_hub.clone();
            scope.spawn(move || {
                net.enter(me);
                let _g = ActorGuard::new(&net, me);
                let clock: Arc<dyn Clock> = Arc::new(VirtualClock::actor(net.clone(), me));
                let (data_in, data_out, ctl) = (s, s + 1, n + 1 + s);
                let mut expected = 0u64;
                loop {
                    match net.await_epoch(me, s, data_in, expected, TICK_US) {
                        AwaitEpoch::Serve(e) => {
                            net.trace(&format!("stage {s}: serving attempt {e}"));
                            // The plan in force for this attempt — a
                            // committed swap changes it — and its shard,
                            // loaded like a restarted stage process would.
                            let sp = shared_plan
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .stages[s]
                                .clone();
                            let (weights, _) = load_stage_weights(
                                model,
                                sp.layer_start,
                                &sp.bits,
                                Rounding::Deterministic,
                                0,
                            );
                            let mut ctx = WorkerCtx::new(
                                &model.cfg,
                                s,
                                &sp,
                                n_seqs,
                                Duration::from_micros(TICK_US),
                                clock.clone(),
                                stage_hub.clone(),
                            );
                            ctx.migration = host.clone();
                            let conn = |link: usize, epoch: u64| SimConn {
                                net: net.clone(),
                                me,
                                owner_stage: Some(s),
                                link,
                                epoch,
                            };
                            let transport = SimTransport::with_control(
                                conn(data_in, e),
                                conn(data_out, e),
                                conn(ctl, 0),
                                s as u32,
                            );
                            // The real production worker loop — fresh KV
                            // caches per attempt, like a restarted process.
                            run_worker_transport(&weights, &ctx, &transport);
                            drop(transport);
                            expected = e + 1;
                        }
                        AwaitEpoch::Crashed => match net.crash_wait(me, s) {
                            CrashEnd::Restarted => net.trace(&format!("stage {s}: restarted")),
                            CrashEnd::Permanent => {
                                net.trace(&format!("stage {s}: down for good"));
                                return;
                            }
                            CrashEnd::Over => return,
                        },
                        AwaitEpoch::Over => return,
                    }
                }
            });
        }

        // --- control readers ----------------------------------------------
        for (s, &me) in reader_ids.iter().enumerate() {
            let net = net.clone();
            let hb = hb.clone();
            let ctl = n + 1 + s;
            scope.spawn(move || {
                net.enter(me);
                let _g = ActorGuard::new(&net, me);
                loop {
                    match net.recv_frame(me, None, ctl, 0, TICK_US * 5) {
                        Ok(WireMsg::Heartbeat { stage }) => hb.beat(stage as usize),
                        Ok(_) => {}
                        Err(RecvEnd::Disconnected) => return,
                        Err(RecvEnd::Timeout) => {
                            if net.run_over() {
                                return;
                            }
                        }
                    }
                }
            });
        }

        // --- chaos actor --------------------------------------------------
        {
            let net = net.clone();
            let stage_ids = stage_ids.clone();
            let ops = &ops;
            scope.spawn(move || {
                net.enter(chaos_id);
                let _g = ActorGuard::new(&net, chaos_id);
                for (at, _, op) in ops {
                    // Loop: a run-over nudge may wake the sleep early.
                    loop {
                        let now = net.now_us();
                        if now >= *at || net.poisoned() {
                            break;
                        }
                        net.sleep(chaos_id, *at - now);
                    }
                    if net.poisoned() {
                        return;
                    }
                    match op {
                        ChaosOp::Partition { link, until } => net.apply_partition(*link, *until),
                        ChaosOp::Crash { stage, restart_at } => {
                            let actor = stage_ids.get(*stage).copied().unwrap_or(chaos_id);
                            net.apply_crash(*stage, actor, *restart_at);
                        }
                    }
                }
            });
        }

        net.start();
    });

    let sim = net.finish();
    // Infallible: the master actor stores its outcome before `run_over`,
    // and the thread scope joined it above.
    let MasterOutcome { result, restarts, stats, pending, swaps } = outcome
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .expect("master actor records an outcome before exiting");
    let mut inv = Invariants::new(sim.violations);
    inv.conservation(&stats, pending);
    let committed = swaps.iter().any(|r| r.committed);
    if plan.is_empty() {
        inv.completed("fault-free run", result.as_ref());
        inv.fault_free(restarts as u64, result.is_ok() && target.is_some() && !committed);
    }
    // The oracles: single-threaded greedy generation on the eagerly
    // quantized model(s) — what the pipeline must match bit-for-bit.
    let q = |p: &ExecutionPlan| quantize_model(&model, &p.bit_assignment(), Rounding::Deterministic, 0);
    match (&result, &target, &cfg.migration) {
        (Ok(tokens), Some(t), Some(m)) if committed => {
            inv.legal_swap_history(&q(&exec), &q(t), m.at_token, &offered, cfg.n_generate, tokens)
        }
        (Ok(tokens), _, _) => {
            let qm = q(&exec);
            let want: Vec<_> =
                offered.iter().map(|p| qm.generate(p, cfg.n_generate, 0.0, 0).tokens).collect();
            // An aborted swap leaves the base plan in force throughout.
            let (want, got) = (want.into_iter().enumerate(), tokens.iter().cloned().enumerate());
            inv.matches_oracle("the fault-free sequential oracle", want, got);
        }
        (Err(_), _, _) => {}
    }
    inv.restart_bound(restarts as u64, cfg.max_restarts);
    inv.epochs_increase(&swaps);
    SimReport {
        seed: None,
        tokens: result.as_ref().ok().cloned(),
        error: result.err().map(|e| e.to_string()),
        restarts,
        admission: stats,
        pending,
        stale_drops: sim.stale_drops,
        corrupt_detected: sim.corrupt_detected,
        swaps,
        trace: sim.trace,
        violations: inv.into_violations(),
        final_virtual_us: sim.final_now_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_master_backs_off_from_5_ms_doubling_up_to_320_ms() {
        for r in 0..12 {
            let want = Duration::from_micros(5_000 << r.min(6));
            assert_eq!(SUPERVISOR.backoff(r), want, "restart {r}");
        }
    }
}
