//! The master engine and pipeline orchestration.
//!
//! The master (paper §3) handles pre- and post-processing — embedding
//! lookup, logits projection, greedy token selection — and the
//! micro-batch manager, which chunks the global batch with *different*
//! micro-batch sizes for prefill and decode (hybrid micro-batch sizing).
//! Stage workers run on their own threads and communicate through
//! asynchronous channels, mirroring the paper's per-GPU worker
//! processes.
//!
//! Three things live here, each exactly once in the runtime:
//!
//! * `Master` — the master's endpoint on a pipeline ring: send toward
//!   stage 0 with backpressure, receive from the last stage with
//!   duplicate suppression, and the master half of the two-phase
//!   live-swap barrier. The offline generation loop
//!   (`drive_generation`), the serving engine
//!   ([`DistStepEngine`](crate::serve_dist::DistStepEngine)) and the
//!   simulated master ([`crate::simnet`]) are three *drivers* of it —
//!   a closed batch in lock step with several items in flight, one item
//!   per scheduler call, the same under a virtual clock — over
//!   channels, TCP or the simulated network alike. The first two stay
//!   apart until the scheduler hands the engine a whole iteration
//!   (ROADMAP item 1).
//! * `AttemptLoop` — the restart loop over a [`ServingRing`]: dial an
//!   attempt, drive generation, and on failure ask
//!   `after_failed_attempt` — the one place a failed attempt is
//!   classified, counted, bounded and answered, for this loop and for
//!   the serving engine alike — then checkpoint, replan or back off,
//!   log. [`Pipeline::run`] runs it over an in-process [`ChannelRing`],
//!   [`run_master`](crate::net::dist::run_master) over the TCP fleet,
//!   the [`crate::simnet`] master actor over the simulated network.
//! * [`Pipeline`] — the one way to run a plan offline: a builder whose
//!   options — quantizer settings, a [`FaultPlan`], a [`Telemetry`] hub,
//!   supervision, a replanner, a live-swap schedule — are properties of
//!   one run. Unsupervised, a run is one attempt that detects failures
//!   by channel disconnect only and reports them;
//!   [`Pipeline::supervised`] adds heartbeat and progress timeouts (hung
//!   stages, dropped messages), bounded restarts from the lock-step
//!   token checkpoint, and replan-on-device-loss.

use crate::clock::{real_clock, Clock};
use crate::fault::{FaultInjector, FaultPlan, Heartbeats};
use crate::loader::{load_stage_weights, LoaderStats};
use crate::migrate::{
    validate_swaps, MigrationCoordinator, MigrationHost, SwapReport, SwapRequest,
};
use crate::net::transport::{Transport, TransportRecvError, TransportSendError};
use crate::serve_dist::{ChannelRing, ServingRing};
use crate::supervisor::{RecoveryAction, RecoveryEvent, Replanner, SupervisorConfig};
use crate::telemetry::{Span, StageMetrics, Telemetry};
use crate::worker::{WorkItem, WorkerMsg};
use llm_pq::ExecutionPlan;
use llmpq_model::{argmax, Phase, RefModel};
use llmpq_quant::Rounding;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// Runtime failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuntimeError {
    /// The plan does not match the model or batch.
    BadPlan(String),
    /// A stage worker died or disconnected.
    WorkerDied(String),
    /// A stage stopped heartbeating within the supervisor's timeout —
    /// hung, not dead: its channels were still connected.
    StageHung(usize),
    /// The pipeline made no progress within the supervisor's progress
    /// timeout (e.g. a message was lost in transit).
    Stalled(String),
    /// A stage reported a protocol violation.
    Protocol(String),
    /// A device was lost permanently and no replan could route around
    /// it.
    DeviceLost(usize),
    /// A stage dropped a work item because its downstream channel
    /// disconnected mid-run (the downstream stage died). The payload is
    /// the stage that *lost* the item; see
    /// [`DisconnectBoard`](crate::worker::DisconnectBoard).
    StageDisconnected(usize),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::BadPlan(s) => write!(f, "bad plan: {s}"),
            RuntimeError::WorkerDied(s) => write!(f, "worker died: {s}"),
            RuntimeError::StageHung(s) => write!(f, "stage {s} hung (heartbeat timeout)"),
            RuntimeError::Stalled(s) => write!(f, "pipeline stalled: {s}"),
            RuntimeError::Protocol(s) => write!(f, "protocol violation: {s}"),
            RuntimeError::DeviceLost(d) => write!(f, "device {d} lost permanently"),
            RuntimeError::StageDisconnected(s) => {
                write!(f, "stage {s} dropped a work item: downstream stage disconnected")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Result of a pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeOutput {
    /// Generated tokens per input sequence (`n_generate` each).
    pub tokens: Vec<Vec<usize>>,
    /// Loader statistics per stage.
    pub loader_stats: Vec<LoaderStats>,
    /// Wall-clock seconds of the generation run (excluding loading).
    pub wall_s: f64,
    /// Per-stage execution counters (busy time, items): the run totals of
    /// the hub's stage recorders — every attempt included — for the
    /// stages of the final plan.
    pub stage_metrics: Vec<StageMetrics>,
    /// Restarts taken (attempts − 1).
    pub restarts: usize,
    /// How many of those restarts replanned.
    pub replans: usize,
    /// The plan serving when the run finished: the input plan unless a
    /// replan or a committed swap replaced it.
    pub final_plan: ExecutionPlan,
    /// The supervisor's decision log, one entry per restart.
    pub events: Vec<RecoveryEvent>,
    /// One report per resolved live swap, in schedule order.
    pub swaps: Vec<SwapReport>,
}

/// Master-side failure detection for one attempt. An unsupervised run
/// leaves every timeout off (failure = disconnect); supervision turns
/// them on. The serving engine runs under the same settings with its
/// op timeout as the progress timeout and no heartbeat board.
#[derive(Clone)]
pub(crate) struct AttemptSupervision {
    pub heartbeats: Option<Arc<Heartbeats>>,
    pub heartbeat_timeout: Option<Duration>,
    pub progress_timeout: Option<Duration>,
    /// Channel-poll granularity of every bounded wait.
    pub tick: Duration,
    /// Time source for every deadline and sleep of the attempt: wall
    /// clock in production, virtual under [`crate::simnet`].
    pub clock: Arc<dyn Clock>,
}

impl AttemptSupervision {
    /// `StageHung` if the heartbeat board shows a stage stale past the
    /// timeout — checked whenever the master finds itself waiting.
    fn check_heartbeats(&self) -> Result<(), RuntimeError> {
        if let (Some(hb), Some(t)) = (&self.heartbeats, self.heartbeat_timeout) {
            if let Some(stage) = hb.stalest_over(t) {
                return Err(RuntimeError::StageHung(stage));
            }
        }
        Ok(())
    }
}

/// Channel-poll granularity of an unsupervised run.
const DEFAULT_TICK: Duration = Duration::from_millis(5);

/// The master's endpoint on a pipeline ring: the outbound edge to stage
/// 0 and the inbound edge from the last stage of one attempt, dialled
/// from a [`ServingRing`](crate::serve_dist::ServingRing) — channels,
/// TCP or the simulated net. Every master in the runtime — offline,
/// serving, simulated — sends, receives and swaps plans through this
/// one type, which is what makes a loopback run bit-identical to an
/// in-process one.
pub(crate) struct Master {
    link: Box<dyn Transport + Send>,
    /// Last work-item id received — duplicates are discarded here when
    /// the final stage is the one duplicating.
    last_step: Cell<Option<u64>>,
    /// Observability hub of the ring this endpoint was dialled from.
    telemetry: Arc<Telemetry>,
}

impl Master {
    pub(crate) fn new(link: Box<dyn Transport + Send>, telemetry: Arc<Telemetry>) -> Self {
        Master { link, last_step: Cell::new(None), telemetry }
    }

    /// Send toward stage 0 — work items, and the control traffic the
    /// master originates or re-forwards (plan proposals and commits,
    /// aborts, in-transit KV chunks, slot resets) — blocking in
    /// `tick`-sized slices while the (bounded) first queue is full. This
    /// is where backpressure reaches the master: admission slows to the
    /// pipeline's pace instead of buffering unboundedly. While blocked,
    /// the heartbeat and progress checks still run, so a genuinely hung
    /// stage surfaces as `StageHung`/`Stalled` rather than a silent
    /// deadlock.
    pub(crate) fn send(
        &self,
        mut msg: WorkerMsg,
        sup: &AttemptSupervision,
    ) -> Result<(), RuntimeError> {
        if let WorkerMsg::Work(item) = &mut msg {
            item.sent_us = self.telemetry.now_us();
        }
        let deadline = sup.progress_timeout.map(|t| sup.clock.deadline(t));
        loop {
            match self.link.send_msg(msg, sup.tick) {
                Ok(()) => return Ok(()),
                Err(TransportSendError::Disconnected) => {
                    return Err(RuntimeError::WorkerDied("first stage unreachable".into()))
                }
                Err(TransportSendError::Timeout(m)) => {
                    msg = m;
                    sup.check_heartbeats()?;
                    if deadline.is_some_and(|d| sup.clock.expired(d)) {
                        return Err(RuntimeError::Stalled(
                            "master blocked on stage-0 backpressure past the progress timeout"
                                .into(),
                        ));
                    }
                }
            }
        }
    }

    /// Best-effort graceful `Shutdown` downstream. A full (bounded)
    /// queue may time this out; the workers then exit via channel
    /// disconnect (or wire EOF) when the endpoint drops, which flushes
    /// metrics all the same.
    pub(crate) fn shutdown(&self, sup: &AttemptSupervision) {
        let _ = self.link.send_msg(WorkerMsg::Shutdown, sup.tick);
    }

    /// Handle one non-`Work` ring message at the master: plan-swap
    /// acknowledgements feed the coordinator; the master's own
    /// `PlanPropose`/`PlanCommit` wrapping around the ring are sunk;
    /// worker aborts are recorded and rebroadcast downstream exactly
    /// once; in-transit KV chunks are re-forwarded to stage 0 (one extra
    /// circle at most — consumers never re-forward consumed slices).
    /// Returns an error only for failures that kill the attempt.
    fn on_ring_msg(
        &self,
        msg: WorkerMsg,
        sup: &AttemptSupervision,
        migration: Option<&mut MigrationCoordinator>,
    ) -> Result<(), RuntimeError> {
        match msg {
            WorkerMsg::PlanReady { epoch, stage, swapped } => {
                if let Some(c) = migration {
                    c.on_ready(epoch, stage, swapped);
                }
            }
            WorkerMsg::PlanPropose { .. } | WorkerMsg::PlanCommit { .. } => {
                // The master's own broadcast completed the circle: sink.
            }
            WorkerMsg::PlanAbort { epoch, reason } => {
                if let Some(c) = migration {
                    if c.on_worker_abort(epoch, &reason) {
                        // Post-commit abort: the target plan is already
                        // authoritative — fail the attempt so the
                        // supervisor restarts on it.
                        return Err(RuntimeError::Stalled(format!(
                            "plan swap epoch {epoch} failed after commit: {reason}"
                        )));
                    }
                    if !c.abort_seen(epoch) {
                        // Make sure every stage tears the proposal down.
                        self.send(WorkerMsg::PlanAbort { epoch, reason }, sup)?;
                    }
                }
            }
            WorkerMsg::KvChunk(c) => {
                let active = migration
                    .is_some_and(|m| m.pending.as_ref().is_some_and(|p| p.epoch == c.epoch));
                if active {
                    self.send(WorkerMsg::KvChunk(c), sup)?;
                }
                // else: stale chunk from a dead epoch — sink it.
            }
            WorkerMsg::KvReset { .. } => {
                // The serving engine's own slot-recycle broadcast wrapped
                // around the ring: every stage has cleared the slot — sink.
            }
            WorkerMsg::Work(_) | WorkerMsg::Shutdown | WorkerMsg::Protocol(_) => {
                unreachable!("on_ring_msg only receives migration traffic")
            }
        }
        Ok(())
    }

    /// Receive the next fresh work item, with live-migration handling:
    /// plan-swap traffic arriving between work items is dispatched to
    /// the coordinator instead of being treated as a protocol violation.
    pub(crate) fn recv_m(
        &self,
        sup: &AttemptSupervision,
        mut migration: Option<&mut MigrationCoordinator>,
    ) -> Result<WorkItem, RuntimeError> {
        let deadline = sup.progress_timeout.map(|t| sup.clock.deadline(t));
        loop {
            match self.link.recv_msg(sup.tick) {
                Ok(WorkerMsg::Work(item)) => {
                    if self.last_step.get() == Some(item.step) {
                        continue; // duplicated delivery
                    }
                    self.last_step.set(Some(item.step));
                    return Ok(item);
                }
                Ok(WorkerMsg::Shutdown) => {
                    return Err(RuntimeError::WorkerDied("premature shutdown".into()))
                }
                Ok(WorkerMsg::Protocol(e)) => return Err(RuntimeError::Protocol(e)),
                Ok(other) => self.on_ring_msg(other, sup, migration.as_deref_mut())?,
                Err(TransportRecvError::Disconnected) => {
                    return Err(RuntimeError::WorkerDied("last stage disconnected".into()))
                }
                Err(TransportRecvError::Timeout) => {
                    sup.check_heartbeats()?;
                    if deadline.is_some_and(|d| sup.clock.expired(d)) {
                        return Err(RuntimeError::Stalled(
                            "no output from the last stage within the progress timeout".into(),
                        ));
                    }
                }
            }
        }
    }

    /// One bounded-wait pump of the ring during a swap barrier or commit
    /// window: processes a single message if one is available. Returns
    /// whether a message was processed. A fresh (non-duplicate) work
    /// item here is a protocol violation — the pipeline is quiescent at
    /// a token boundary.
    fn pump_migration(
        &self,
        sup: &AttemptSupervision,
        migration: &mut MigrationCoordinator,
    ) -> Result<bool, RuntimeError> {
        match self.link.recv_msg(sup.tick) {
            Ok(WorkerMsg::Work(item)) => {
                if self.last_step.get() == Some(item.step) {
                    return Ok(true); // fault-injected duplicate: drop
                }
                Err(RuntimeError::Protocol(format!(
                    "work item step {} crossed a swap barrier",
                    item.step
                )))
            }
            Ok(WorkerMsg::Shutdown) => {
                Err(RuntimeError::WorkerDied("premature shutdown".into()))
            }
            Ok(WorkerMsg::Protocol(e)) => Err(RuntimeError::Protocol(e)),
            Ok(other) => {
                self.on_ring_msg(other, sup, Some(migration))?;
                Ok(true)
            }
            Err(TransportRecvError::Disconnected) => {
                Err(RuntimeError::WorkerDied("last stage disconnected".into()))
            }
            Err(TransportRecvError::Timeout) => {
                sup.check_heartbeats()?;
                Ok(false)
            }
        }
    }

    /// Open the coordinator's next scheduled proposal, if none is
    /// pending: phase 1 of a live swap starts here, and the workers'
    /// prepare (requantize) overlaps whatever the ring serves until the
    /// barrier.
    pub(crate) fn propose(
        &self,
        sup: &AttemptSupervision,
        c: &mut MigrationCoordinator,
    ) -> Result<(), RuntimeError> {
        match c.open_proposal() {
            Some((epoch, plan_json)) => self.send(WorkerMsg::PlanPropose { epoch, plan_json }, sup),
            None => Ok(()),
        }
    }

    /// The master half of the two-phase live-swap barrier for the
    /// coordinator's pending proposal, run while the ring is quiescent
    /// (between lock-step decode iterations offline, between scheduler
    /// iterations when serving): wait for every stage's prepared
    /// `PlanReady`, send `PlanCommit`, keep migrating KV chunks moving,
    /// wait for every swapped `PlanReady`.
    ///
    /// `Ok(Some(report))` — committed, the target plan serves from here.
    /// `Ok(None)` — a worker abort or the prepare timeout cancelled the
    /// proposal before commit: nothing was destroyed, the abort was
    /// broadcast and recorded, and the old plan is still in place. What
    /// that means is the caller's policy — the offline run keeps
    /// decoding on the old plan, the serving engine treats it as a lost
    /// ring and restarts onto the target rung. `Err` — the attempt is
    /// dead; if the commit had gone out the coordinator keeps the target
    /// authoritative for the restart.
    pub(crate) fn swap_barrier(
        &self,
        sup: &AttemptSupervision,
        c: &mut MigrationCoordinator,
    ) -> Result<Option<SwapReport>, RuntimeError> {
        // Phase 1 barrier: every stage prepared, or abort.
        let deadline = sup.clock.deadline(c.timeout);
        let abort_reason = loop {
            if c.all_prepared() {
                break None;
            }
            if let Some(r) = c.pending_abort() {
                break Some(r);
            }
            if sup.clock.expired(deadline) {
                break Some("prepare barrier timed out".into());
            }
            self.pump_migration(sup, c)?;
        };
        if let Some(reason) = abort_reason {
            if let Some(e) = c.abort_pending(&reason) {
                if !c.abort_seen(e) {
                    self.send(WorkerMsg::PlanAbort { epoch: e, reason }, sup)?;
                }
            }
            self.telemetry.note_migration_aborted();
            return Ok(None);
        }
        // Phase 2: point of no return.
        let e = c.pending.as_ref().expect("barrier passed").epoch;
        c.mark_commit_sent(sup.clock.now().as_micros() as u64);
        self.send(WorkerMsg::PlanCommit { epoch: e }, sup)?;
        let commit_deadline = sup.clock.deadline(c.timeout);
        while !c.all_swapped() {
            if sup.clock.expired(commit_deadline) {
                return Err(RuntimeError::Stalled(format!(
                    "plan swap epoch {e} commit window timed out"
                )));
            }
            self.pump_migration(sup, c)?;
        }
        let now_us = sup.clock.now().as_micros() as u64;
        let report = c.finish_commit(now_us).expect("pending resolved").clone();
        self.telemetry.note_swap(report.latency_us, report.kv_bytes);
        self.telemetry.set_epoch(report.epoch);
        Ok(Some(report))
    }

    /// Logits for the last position of each sequence in a work item.
    /// Traced as a `"sample"` span on the master's trace thread.
    fn sample_next(&self, model: &RefModel, item: &WorkItem) -> Vec<(usize, usize)> {
        let t = &self.telemetry;
        let ts_us = t.now_us();
        let out: Vec<(usize, usize)> = item
            .seqs
            .iter()
            .map(|(seq, h)| {
                (*seq, argmax(&model.last_row_logits(h)))
            })
            .collect();
        t.add_tokens(out.len() as u64);
        t.record_span(Span {
            tid: 0,
            name: "sample",
            phase: item.phase,
            ts_us,
            dur_us: t.now_us().saturating_sub(ts_us),
            step: item.step,
            microbatch: item.microbatch,
            bits: Arc::from(""),
        });
        out
    }
}

/// One offline run of an execution plan on the in-process pipeline:
/// the master on the calling thread, one worker thread per stage.
///
/// ```text
/// Pipeline::new(&checkpoint, &plan)
///     .quantizer(rounding, seed)      // default: deterministic, seed 0
///     .faults(&fault_plan)            // deterministic failure injection
///     .telemetry(hub)                 // Telemetry::new(plan.stages.len())
///     .supervised(SupervisorConfig::default())
///     .replanner(&FoldReplanner)      // or .swaps(&schedule), not both
///     .run(&prompts, n_generate)
/// ```
///
/// Without [`supervised`](Self::supervised) the run is a single attempt
/// with disconnect-only failure detection and unbounded inter-stage
/// queues; fault kinds that need timeout detection (`Hang`,
/// `DropMessage`) need supervision. A swap schedule needs supervision
/// (a post-commit failure restarts on the target plan) and excludes a
/// replanner (a live swap keeps the stage count, a replan shrinks it);
/// [`run`](Self::run) rejects both combinations as
/// [`RuntimeError::BadPlan`] before anything is loaded.
pub struct Pipeline<'a> {
    checkpoint: &'a RefModel,
    plan: &'a ExecutionPlan,
    rounding: Rounding,
    seed: u64,
    faults: Option<&'a FaultPlan>,
    telemetry: Arc<Telemetry>,
    supervisor: Option<SupervisorConfig>,
    replanner: Option<&'a dyn Replanner>,
    swaps: &'a [SwapRequest],
}

impl<'a> Pipeline<'a> {
    /// A run of `plan` over `checkpoint` with deterministic rounding,
    /// seed 0, and every option off.
    pub fn new(checkpoint: &'a RefModel, plan: &'a ExecutionPlan) -> Self {
        Self {
            checkpoint,
            plan,
            rounding: Rounding::Deterministic,
            seed: 0,
            faults: None,
            telemetry: Telemetry::counters_only(plan.stages.len(), real_clock()),
            supervisor: None,
            replanner: None,
            swaps: &[],
        }
    }

    /// Rounding mode and seed of the on-the-fly quantizing loader.
    pub fn quantizer(mut self, rounding: Rounding, seed: u64) -> Self {
        self.rounding = rounding;
        self.seed = seed;
        self
    }

    /// Inject deterministic failures (tests and resilience experiments).
    pub fn faults(mut self, faults: &'a FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Record into `telemetry`: every stage's latency histograms, queue
    /// depths and lifecycle spans, the supervisor's restart and replan
    /// decisions (a restart is attributed to the stage the failure
    /// names), and swap commits and aborts. Size the hub for the input
    /// plan ([`run`](Self::run) rejects a smaller one) — replans only
    /// shrink the pipeline and swaps keep its stage count, so the
    /// recorders stay in range. Without this call the run counts into a
    /// hub of its own, which keeps no spans; either way
    /// [`RuntimeOutput::stage_metrics`] is read from the hub's recorders.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Run under supervision: heartbeat and progress timeouts, restarts
    /// bounded by `cfg.max_restarts` with exponential backoff, queues
    /// bounded by `cfg.max_queue`, and — policy permitting —
    /// replan-on-device-loss through the [`replanner`](Self::replanner).
    pub fn supervised(mut self, cfg: SupervisorConfig) -> Self {
        self.supervisor = Some(cfg);
        self
    }

    /// The replanner a supervised run consults when a device is lost
    /// for good. Without one, such a loss ends the run as
    /// [`RuntimeError::DeviceLost`].
    pub fn replanner(mut self, replanner: &'a dyn Replanner) -> Self {
        self.replanner = Some(replanner);
        self
    }

    /// Live-swap to each scheduled target at its token boundary —
    /// precision and/or partition change while requests stay in flight;
    /// re-homed KV slices ship between stages as bit-exact chunks at
    /// commit. A failure before a commit aborts back to the old plan; a
    /// failure after it restarts *on the target plan* from the
    /// lock-step checkpoint. Tokens are bit-identical to the
    /// [`hybrid_oracle_tokens`](crate::migrate::hybrid_oracle_tokens)
    /// oracle of whatever commits and aborts actually happened.
    pub fn swaps(mut self, swaps: &'a [SwapRequest]) -> Self {
        self.swaps = swaps;
        self
    }

    /// Generate `n_generate` tokens per prompt with greedy decoding.
    pub fn run(
        &self,
        prompts: &[Vec<usize>],
        n_generate: usize,
    ) -> Result<RuntimeOutput, RuntimeError> {
        let checkpoint = self.checkpoint;
        validate_inputs(checkpoint, self.plan, prompts, n_generate, self.faults)?;
        if self.telemetry.n_stages() < self.plan.stages.len() {
            return Err(RuntimeError::BadPlan(format!(
                "the telemetry hub has {} stage recorder(s), the plan has {} stages",
                self.telemetry.n_stages(),
                self.plan.stages.len()
            )));
        }
        if !self.swaps.is_empty() {
            if self.supervisor.is_none() {
                return Err(RuntimeError::BadPlan(
                    "a swap schedule needs a supervised run (a post-commit failure restarts on \
                     the target plan)"
                        .into(),
                ));
            }
            if self.replanner.is_some() {
                return Err(RuntimeError::BadPlan(
                    "a swap schedule and a replanner cannot be combined (a live swap keeps the \
                     stage count, a replan shrinks it)"
                        .into(),
                ));
            }
            validate_swaps(self.plan, self.swaps, checkpoint.cfg.n_layers)?;
        }
        let injector = self.faults.map(FaultInjector::new);
        let mut coord = match &self.supervisor {
            Some(cfg) if !self.swaps.is_empty() => Some(MigrationCoordinator::new(
                self.swaps.to_vec(),
                self.plan.stages.len(),
                Duration::from_millis(cfg.progress_timeout_ms),
            )),
            _ => None,
        };
        // Workers need the dense checkpoint only to prepare a proposed
        // plan: one shared copy, and only when swaps are scheduled.
        let host = coord.is_some().then(|| {
            Arc::new(MigrationHost::new(Arc::new(checkpoint.clone()), self.rounding, self.seed))
        });
        // The in-process ring serving a plan: shards loaded through the
        // on-the-fly quantizing loader (every shard, where a real
        // deployment would reload only the re-homed ones), wired to this
        // run's injector and hub and — supervised — the queue bound.
        let ring_for = |plan: &ExecutionPlan| {
            let mut ring = ChannelRing::load(
                checkpoint,
                plan.clone(),
                self.rounding,
                self.seed,
                prompts.len(),
                tick_of(self.supervisor.as_ref()),
            );
            ring.injector = injector.clone();
            ring.host = host.clone();
            ring.telemetry = self.telemetry.clone();
            ring.queue_cap = self.supervisor.as_ref().and_then(|cfg| cfg.max_queue);
            ring
        };
        let mut ring = ring_for(self.plan);
        let attempts = AttemptLoop::new(
            checkpoint,
            prompts,
            n_generate,
            self.supervisor.as_ref(),
            self.replanner,
        );
        let out = attempts
            .run(&mut ring, self.plan.clone(), coord.as_mut(), |ring, plan| *ring = ring_for(plan))?;
        Ok(RuntimeOutput {
            loader_stats: ring.loader_stats.clone(),
            swaps: coord.map(|c| c.reports).unwrap_or_default(),
            ..out
        })
    }
}

/// Channel-poll granularity of a run: the supervisor's tick, or the
/// unsupervised default.
fn tick_of(cfg: Option<&SupervisorConfig>) -> Duration {
    cfg.map_or(DEFAULT_TICK, |c| Duration::from_millis(c.tick_ms.max(1)))
}

/// How a master answers a failed attempt: the restart budget, whether a
/// lost device is replanned around (a replanner is attached), and the
/// pause before restart `n`.
pub(crate) struct RestartPolicy<'a> {
    pub max_restarts: usize,
    pub replan_on_loss: bool,
    pub backoff: Box<dyn Fn(usize) -> Duration + 'a>,
}

/// What [`after_failed_attempt`] decided.
pub(crate) enum Recovery {
    /// Dial the same plan again after `backoff`.
    Restart { backoff: Duration },
    /// The devices in `lost` are gone for good and the plan uses one of
    /// them, `device`: replan around them.
    Replan { lost: Vec<usize>, device: usize },
}

/// The failure path's one decision point: every master — [`AttemptLoop`]
/// over channels, TCP or the simulated net, and the serving
/// [`DistStepEngine`](crate::serve_dist::DistStepEngine) — asks it what
/// follows attempt `attempt` (0-based) of `plan` ending in `seen`, once
/// `ring` has torn the attempt down.
///
/// *Classify:* a generic "worker died / stalled" is a symptom when a
/// stage noted dropping a work item on a downstream disconnect — the
/// cause is that [`StageDisconnected`](RuntimeError::StageDisconnected)
/// (hangs and protocol violations keep their own diagnosis). *Budget:*
/// without a `policy` (an unsupervised run) the cause is final. It is
/// final too past `max_restarts`, and at once when the plan sits on a
/// device reported lost that the policy cannot replan around; either
/// way a plan on a lost device reports
/// [`DeviceLost`](RuntimeError::DeviceLost), since no restart could
/// succeed. *Count:* a restart that will happen is counted on the
/// ring's hub against the stage the cause implicates: the hung stage,
/// the stage behind the link a neighbour lost an item on, or — for a
/// bare disconnect — the first stage the ring saw leave. *Decide:*
/// replan when the plan lost a device, else restart after the policy's
/// backoff.
pub(crate) fn after_failed_attempt(
    ring: &dyn ServingRing,
    plan: &ExecutionPlan,
    seen: RuntimeError,
    attempt: usize,
    policy: Option<&RestartPolicy<'_>>,
) -> Result<(RuntimeError, Recovery), RuntimeError> {
    let cause = match (seen, ring.dropped_stage()) {
        (RuntimeError::WorkerDied(_) | RuntimeError::Stalled(_), Some(stage)) => {
            RuntimeError::StageDisconnected(stage)
        }
        (seen, _) => seen,
    };
    let Some(policy) = policy else { return Err(cause) };
    let lost = ring.lost_devices();
    let lost_in_plan = plan.stages.iter().map(|s| s.device).find(|d| lost.contains(d));
    if attempt >= policy.max_restarts || (lost_in_plan.is_some() && !policy.replan_on_loss) {
        return Err(lost_in_plan.map_or(cause, RuntimeError::DeviceLost));
    }
    ring.telemetry().note_restart(match &cause {
        RuntimeError::StageHung(s) => Some(*s),
        RuntimeError::StageDisconnected(s) => Some(s + 1),
        RuntimeError::WorkerDied(_) => ring.first_exit(),
        _ => None,
    });
    let recovery = match lost_in_plan {
        Some(device) => Recovery::Replan { lost, device },
        None => Recovery::Restart { backoff: (policy.backoff)(attempt) },
    };
    Ok((cause, recovery))
}

/// The restart loop every offline master runs, over whatever ring
/// carries the attempt: in-process channels for [`Pipeline::run`], the
/// TCP stage fleet for [`run_master`](crate::net::dist::run_master), the
/// simulated network for the [`crate::simnet`] master actor (which
/// injects its virtual clock, its µs-granular timeouts and backoff, and
/// the hook that writes its per-attempt trace lines).
pub(crate) struct AttemptLoop<'a> {
    pub model: &'a RefModel,
    pub prompts: &'a [Vec<usize>],
    pub n_generate: usize,
    /// Failure detection, clock and tick of every attempt; its board is
    /// the dialled ring's.
    pub sup: AttemptSupervision,
    /// `None` = one attempt, its error returned as classified.
    pub restarts: Option<RestartPolicy<'a>>,
    pub replanner: Option<&'a dyn Replanner>,
    /// Told how each attempt ended, as the master saw it.
    pub on_attempt_end: &'a dyn Fn(usize, Option<&RuntimeError>),
}

impl<'a> AttemptLoop<'a> {
    /// The loop of a wall-clock run: unsupervised (one attempt,
    /// disconnect-only detection) or under `supervisor`'s timeouts,
    /// budget and backoff, replanning a lost device through `replanner`
    /// if one is attached.
    pub(crate) fn new(
        model: &'a RefModel,
        prompts: &'a [Vec<usize>],
        n_generate: usize,
        supervisor: Option<&SupervisorConfig>,
        replanner: Option<&'a dyn Replanner>,
    ) -> Self {
        Self {
            model,
            prompts,
            n_generate,
            sup: AttemptSupervision {
                heartbeats: None,
                heartbeat_timeout: supervisor.map(|c| Duration::from_millis(c.heartbeat_timeout_ms)),
                progress_timeout: supervisor.map(|c| Duration::from_millis(c.progress_timeout_ms)),
                tick: tick_of(supervisor),
                clock: real_clock(),
            },
            restarts: supervisor.copied().map(|cfg| RestartPolicy {
                max_restarts: cfg.max_restarts,
                replan_on_loss: replanner.is_some(),
                backoff: Box::new(move |restart| cfg.backoff(restart)),
            }),
            replanner,
            on_attempt_end: &|_, _| {},
        }
    }

    /// Run attempts on `ring` until one completes or the restart budget
    /// is spent. `reload` re-targets the ring when the plan changes
    /// under it — a replan, or a swap that committed before an attempt
    /// failed — so the next dial boots on the new plan. The output's
    /// `stage_metrics` are the run totals of the ring's hub for the
    /// final plan's stages; `loader_stats` and `swaps` are left for the
    /// caller, who owns the ring and the coordinator, to fill in.
    pub(crate) fn run<R: ServingRing>(
        &self,
        ring: &mut R,
        mut plan: ExecutionPlan,
        mut coord: Option<&mut MigrationCoordinator>,
        mut reload: impl FnMut(&mut R, &ExecutionPlan),
    ) -> Result<RuntimeOutput, RuntimeError> {
        let clock = &self.sup.clock;
        let start = clock.now();
        let mut tokens: Vec<Vec<usize>> =
            vec![Vec::with_capacity(self.n_generate); self.prompts.len()];
        let mut events = Vec::new();
        let mut replans = 0usize;
        loop {
            let attempt = events.len();
            if let Some(c) = coord.as_deref_mut() {
                // A swap that committed before the previous attempt
                // failed made its target authoritative.
                c.begin_attempt();
                if c.attempt_plan(&plan) != &plan {
                    plan = c.attempt_plan(&plan).clone();
                    reload(ring, &plan);
                }
            }
            let res = self.attempt(ring, attempt, &plan, &mut tokens, coord.as_deref_mut());
            let seen = match res {
                Ok(()) => {
                    // A swap whose commit went out in the final decode
                    // steps resolves here.
                    if let Some(c) = coord.as_deref_mut() {
                        c.begin_attempt();
                        plan = c.attempt_plan(&plan).clone();
                    }
                    let hub = ring.telemetry();
                    return Ok(RuntimeOutput {
                        tokens,
                        loader_stats: Vec::new(),
                        wall_s: clock.now().saturating_sub(start).as_secs_f64(),
                        stage_metrics: (0..plan.stages.len())
                            .map(|i| hub.stage(i).map(|r| r.snapshot()).unwrap_or_default())
                            .collect(),
                        restarts: events.len(),
                        replans,
                        final_plan: plan,
                        events,
                        swaps: Vec::new(),
                    });
                }
                Err(e) => e,
            };
            let (cause, recovery) =
                after_failed_attempt(ring, &plan, seen, attempt, self.restarts.as_ref())?;
            checkpoint_lockstep(&mut tokens);
            let checkpointed_tokens = tokens.first().map_or(0, Vec::len);
            let action = match recovery {
                Recovery::Replan { lost, device } => {
                    let Some(r) = self.replanner else {
                        return Err(RuntimeError::DeviceLost(device));
                    };
                    let new_plan = r
                        .replan(&plan, &lost)
                        .map_err(|m| RuntimeError::BadPlan(format!("replan failed: {m}")))?;
                    new_plan.validate(self.model.cfg.n_layers).map_err(|m| {
                        RuntimeError::BadPlan(format!("replanned plan invalid: {m}"))
                    })?;
                    if new_plan.stages.iter().any(|s| lost.contains(&s.device)) {
                        return Err(RuntimeError::BadPlan(
                            "replanned plan still uses a lost device".into(),
                        ));
                    }
                    reload(ring, &new_plan);
                    plan = new_plan;
                    replans += 1;
                    ring.telemetry().note_replan();
                    RecoveryAction::Replan { lost_devices: lost, new_stages: plan.stages.len() }
                }
                Recovery::Restart { backoff } => {
                    clock.sleep(backoff);
                    RecoveryAction::Restart { backoff_ms: backoff.as_millis() as u64 }
                }
            };
            let error = cause.to_string();
            events.push(RecoveryEvent { attempt, error, checkpointed_tokens, action });
        }
    }

    /// One generation attempt: dial the ring, drive generation over the
    /// fresh endpoint, tear the attempt down. `tokens` may hold an
    /// already-generated lock-step prefix (recovery resume); on failure
    /// it retains whatever progress was made.
    fn attempt(
        &self,
        ring: &mut dyn ServingRing,
        attempt: usize,
        plan: &ExecutionPlan,
        tokens: &mut [Vec<usize>],
        migration: Option<&mut MigrationCoordinator>,
    ) -> Result<(), RuntimeError> {
        let link = ring
            .dial(attempt)
            .map_err(|e| RuntimeError::WorkerDied(format!("dialing attempt {attempt}: {e}")))?;
        let sup = AttemptSupervision { heartbeats: ring.heartbeats(), ..self.sup.clone() };
        let master = Master::new(link, ring.telemetry());
        let res = drive_generation(
            &master,
            self.model,
            plan,
            self.prompts,
            tokens,
            self.n_generate,
            &sup,
            migration,
        );
        // Dropping the endpoint starts the disconnect (or wire EOF)
        // cascade down the ring; the ring then reaps what is its to reap.
        drop(master);
        ring.teardown();
        (self.on_attempt_end)(attempt, res.as_ref().err());
        res
    }
}

/// Truncate ragged progress to the shortest sequence so every sequence
/// resumes from the same decode step.
fn checkpoint_lockstep(tokens: &mut [Vec<usize>]) {
    let done = tokens.iter().map(Vec::len).min().unwrap_or(0);
    for t in tokens.iter_mut() {
        t.truncate(done);
    }
}

pub(crate) fn validate_inputs(
    checkpoint: &RefModel,
    plan: &ExecutionPlan,
    prompts: &[Vec<usize>],
    n_generate: usize,
    faults: Option<&FaultPlan>,
) -> Result<(), RuntimeError> {
    plan.validate(checkpoint.cfg.n_layers).map_err(RuntimeError::BadPlan)?;
    if let Some(f) = faults {
        f.validate(plan.stages.len()).map_err(RuntimeError::BadPlan)?;
    }
    if prompts.is_empty() {
        return Err(RuntimeError::BadPlan("no prompts".into()));
    }
    if n_generate == 0 {
        return Err(RuntimeError::BadPlan("n_generate must be ≥ 1".into()));
    }
    for (i, p) in prompts.iter().enumerate() {
        if p.is_empty() {
            return Err(RuntimeError::BadPlan(format!("prompt {i} is empty")));
        }
        if p.len() + n_generate > checkpoint.cfg.max_seq {
            return Err(RuntimeError::BadPlan(format!("prompt {i} exceeds max_seq")));
        }
    }
    Ok(())
}

pub(crate) type StageWeights = Vec<Vec<llmpq_model::LayerWeights>>;

pub(crate) fn load_all_stages(
    checkpoint: &RefModel,
    plan: &ExecutionPlan,
    rounding: Rounding,
    seed: u64,
) -> (StageWeights, Vec<LoaderStats>) {
    let mut stage_weights = Vec::new();
    let mut loader_stats = Vec::new();
    for s in &plan.stages {
        let (w, stats) = load_stage_weights(checkpoint, s.layer_start, &s.bits, rounding, seed);
        stage_weights.push(w);
        loader_stats.push(stats);
    }
    (stage_weights, loader_stats)
}

/// Sequence-chunking of the global batch for one phase.
fn batch_chunks(n_seqs: usize, size: usize) -> Vec<Vec<usize>> {
    (0..n_seqs).collect::<Vec<_>>().chunks(size.max(1)).map(|c| c.to_vec()).collect()
}

/// Exact KV payload bytes a swap from `old` to `new` must move: every
/// `(sequence, layer)` slice whose owning stage changes ships its K and
/// V rows (`rows × hidden` f32 each).
fn swap_kv_payload_bytes(
    old: &ExecutionPlan,
    new: &ExecutionPlan,
    positions: &[usize],
    hidden: usize,
) -> u64 {
    let owner = |plan: &ExecutionPlan, layer: usize| {
        plan.stages.iter().position(|s| (s.layer_start..s.layer_end).contains(&layer))
    };
    let n_layers = old.n_layers();
    let moved_layers: u64 =
        (0..n_layers).filter(|&l| owner(old, l) != owner(new, l)).count() as u64;
    let total_rows: u64 = positions.iter().map(|&p| p as u64).sum();
    moved_layers * total_rows * hidden as u64 * 4 * 2 // K and V
}

/// The generation loop the master drives, transport-agnostic: prefill
/// over `prompt ++ generated-prefix`, then lock-step decode with hybrid
/// micro-batch sizing, finishing with a best-effort graceful `Shutdown`
/// downstream. The same function serves the in-process engine (channel
/// transport), the multi-process runner (TCP transport) and the simnet,
/// which is what makes a distributed loopback run bit-identical to a
/// local one. `tokens` may hold a lock-step prefix (recovery resume).
///
/// With a live-swap coordinator attached, swap proposals are opened as
/// early as possible (prepare overlaps serving), and at each scheduled
/// token boundary the master runs [`Master::swap_barrier`] before
/// decoding under the target plan. A proposal that aborts before commit
/// leaves the old plan decoding uninterrupted; post-commit failures fail
/// the attempt (the coordinator keeps the target plan authoritative for
/// the restart).
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_generation(
    master: &Master,
    model: &RefModel,
    plan: &ExecutionPlan,
    prompts: &[Vec<usize>],
    tokens: &mut [Vec<usize>],
    n_generate: usize,
    sup: &AttemptSupervision,
    mut migration: Option<&mut MigrationCoordinator>,
) -> Result<(), RuntimeError> {
    let n_seqs = prompts.len();
    let done = tokens.iter().map(Vec::len).min().unwrap_or(0);
    let mut epoch = migration.as_deref().map_or(0, |c| c.active_epoch);
    let mut next_step = 0u64;
    let mut step = || {
        let s = next_step;
        next_step += 1;
        s
    };

    // Positions after the (extended) prefill below. Invariant: every
    // stage's KV cache holds exactly `positions[s]` rows for sequence
    // `s`, which is what sizes the KV handoff at a swap.
    let mut positions: Vec<usize> = prompts.iter().map(|p| p.len() + done).collect();

    // --- Prefill over prompt ++ generated prefix ---
    let chunks = batch_chunks(n_seqs, plan.microbatch.prefill_size);
    for (mb, chunk) in chunks.iter().enumerate() {
        let seqs = chunk
            .iter()
            .map(|&s| {
                let mut full = prompts[s].clone();
                full.extend_from_slice(&tokens[s][..done]);
                (s, model.embed_tokens(&full, 0))
            })
            .collect();
        let item =
            WorkItem { step: step(), epoch, microbatch: mb, phase: Phase::Prefill, sent_us: 0, seqs };
        master.send(WorkerMsg::Work(item), sup)?;
    }
    for _ in &chunks {
        let item = master.recv_m(sup, migration.as_deref_mut())?;
        for (seq, tok) in master.sample_next(model, &item) {
            tokens[seq].push(tok);
        }
    }

    // --- Decode ---
    let mut cur_plan: Option<ExecutionPlan> = None; // Some(_) after a committed swap
    let mut dec_chunks = batch_chunks(n_seqs, plan.microbatch.decode_size);
    for _step in done + 1..n_generate {
        if let Some(c) = migration.as_deref_mut() {
            master.propose(sup, c)?;
            // Swap boundary: the pipeline is quiescent between decode
            // iterations, so tokens `0.._step` were produced by the old
            // plan and everything from `_step` on belongs to the target.
            let due = c
                .pending
                .as_ref()
                .filter(|p| !p.commit_sent && _step >= c.schedule[p.idx].at_token)
                .map(|p| p.idx);
            if let Some(idx) = due {
                let target = c.schedule[idx].plan.clone();
                let old = cur_plan.as_ref().unwrap_or(plan);
                c.add_kv_bytes(swap_kv_payload_bytes(old, &target, &positions, model.cfg.hidden));
                if let Some(report) = master.swap_barrier(sup, c)? {
                    epoch = report.epoch;
                    dec_chunks = batch_chunks(n_seqs, target.microbatch.decode_size);
                    cur_plan = Some(target);
                }
            }
        }
        for (mb, chunk) in dec_chunks.iter().enumerate() {
            let seqs = chunk
                .iter()
                .map(|&s| {
                    // Infallible: the decode loop starts at done+1, so the
                    // prefill above pushed ≥1 token into every sequence.
                    let last = *tokens[s].last().expect("prefill produced a token");
                    let x = model.embed_tokens(&[last], positions[s]);
                    (s, x)
                })
                .collect();
            let item =
                WorkItem { step: step(), epoch, microbatch: mb, phase: Phase::Decode, sent_us: 0, seqs };
            master.send(WorkerMsg::Work(item), sup)?;
        }
        for chunk in &dec_chunks {
            let item = master.recv_m(sup, migration.as_deref_mut())?;
            for (seq, tok) in master.sample_next(model, &item) {
                tokens[seq].push(tok);
            }
            for &s in chunk {
                positions[s] += 1;
            }
        }
    }

    master.shutdown(sup);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_pq::{ExecutionPlan, StagePlan};
    use llmpq_model::RefConfig;
    use llmpq_quant::{quantize_model, BitAssignment, Bitwidth};
    use llmpq_workload::MicrobatchPlan;

    fn model() -> RefModel {
        RefModel::new(RefConfig::tiny())
    }

    fn plan(bits: Vec<Bitwidth>, split: usize, mb: MicrobatchPlan) -> ExecutionPlan {
        let n = bits.len();
        ExecutionPlan {
            model: "tiny".into(),
            cluster: "test".into(),
            stages: vec![
                StagePlan { device: 0, layer_start: 0, layer_end: split, bits: bits[..split].to_vec() },
                StagePlan { device: 1, layer_start: split, layer_end: n, bits: bits[split..].to_vec() },
            ],
            microbatch: mb,
            scheme: "LLM-PQ".into(),
            kv_bits: 16,
        }
    }

    fn mb(p: usize, d: usize, n_seqs: usize) -> MicrobatchPlan {
        MicrobatchPlan {
            prefill_size: p,
            prefill_count: n_seqs.div_ceil(p),
            decode_size: d,
            decode_count: n_seqs.div_ceil(d),
        }
    }

    #[test]
    fn pipeline_matches_sequential_reference() {
        // The headline correctness test: the multi-threaded, pipelined,
        // on-the-fly-quantized runtime must emit exactly the tokens of
        // single-threaded greedy generation on the eagerly quantized
        // model.
        let m = model();
        let bits = vec![Bitwidth::Int8, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3], vec![9, 8, 7, 6], vec![4, 4]];
        let out = Pipeline::new(&m, &plan(bits.clone(), 1, mb(2, 3, 3))).run(&prompts, 6)
            .expect("runtime ok");

        let qm = quantize_model(&m, &BitAssignment { bits }, Rounding::Deterministic, 0);
        for (i, p) in prompts.iter().enumerate() {
            let want = qm.generate(p, 6, 0.0, 0).tokens;
            assert_eq!(out.tokens[i], want, "sequence {i}");
        }
    }

    #[test]
    fn microbatch_sizing_does_not_change_tokens() {
        let m = model();
        let bits = vec![Bitwidth::Int4, Bitwidth::Int4];
        let prompts = vec![vec![5, 6, 7], vec![8, 9], vec![10, 11, 12], vec![13]];
        let a = Pipeline::new(&m, &plan(bits.clone(), 1, mb(1, 4, 4)))
            .quantizer(Rounding::Deterministic, 3)
            .run(&prompts, 5)
            .unwrap();
        let b = Pipeline::new(&m, &plan(bits, 1, mb(4, 1, 4)))
            .quantizer(Rounding::Deterministic, 3)
            .run(&prompts, 5)
            .unwrap();
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn worker_failure_is_reported_not_hung() {
        let m = model();
        let bits = vec![Bitwidth::Fp16, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2], vec![3, 4]];
        let faults = FaultPlan::crash(1, 1); // stage 1 dies after one item
        let res = Pipeline::new(&m, &plan(bits, 1, mb(1, 2, 2))).faults(&faults).run(&prompts, 4);
        // Depending on timing the master sees the crash directly
        // (WorkerDied) or an upstream stage reports the broken link
        // first (StageDisconnected) — both name the failure, not a hang.
        assert!(
            matches!(res, Err(RuntimeError::WorkerDied(_) | RuntimeError::StageDisconnected(_))),
            "{res:?}"
        );
    }

    #[test]
    fn bad_plans_rejected_up_front() {
        let m = model();
        let bits = vec![Bitwidth::Fp16, Bitwidth::Fp16];
        let good = plan(bits.clone(), 1, mb(1, 1, 1));
        assert!(matches!(
            Pipeline::new(&m, &good).run(&[], 4),
            Err(RuntimeError::BadPlan(_))
        ));
        assert!(matches!(
            Pipeline::new(&m, &good).run(&[vec![]], 4),
            Err(RuntimeError::BadPlan(_))
        ));
        assert!(matches!(
            Pipeline::new(&m, &good).run(&[vec![1; 200]], 4),
            Err(RuntimeError::BadPlan(_))
        ));
        let mut broken = plan(bits.clone(), 1, mb(1, 1, 1));
        broken.stages[1].layer_start = 2;
        assert!(matches!(
            Pipeline::new(&m, &broken).run(&[vec![1]], 4),
            Err(RuntimeError::BadPlan(_))
        ));
        // A fault plan targeting a stage the plan doesn't have.
        let good = plan(bits, 1, mb(1, 1, 1));
        let faults = FaultPlan::crash(5, 0);
        assert!(matches!(
            Pipeline::new(&m, &good).faults(&faults).run(&[vec![1]], 4),
            Err(RuntimeError::BadPlan(_))
        ));
    }

    #[test]
    fn slowdown_fault_does_not_change_tokens() {
        // A straggler stage slows the pipeline but must not perturb the
        // numerics.
        let m = model();
        let bits = vec![Bitwidth::Int8, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3], vec![4, 5]];
        let faults = FaultPlan {
            events: vec![crate::fault::FaultEvent {
                stage: 0,
                step: 1,
                attempt: None,
                kind: crate::fault::FaultKind::Slowdown { factor: 3.0 },
            }],
        };
        let slow = Pipeline::new(&m, &plan(bits.clone(), 1, mb(1, 2, 2)))
            .faults(&faults)
            .run(&prompts, 5)
            .expect("slow but correct");
        let plain = Pipeline::new(&m, &plan(bits, 1, mb(1, 2, 2))).run(&prompts, 5)
            .unwrap();
        assert_eq!(slow.tokens, plain.tokens);
    }

    #[test]
    fn duplicate_fault_does_not_change_tokens() {
        // Duplication at an interior stage (worker dedups) and at the
        // last stage (master dedups): tokens must be unaffected.
        let m = model();
        let bits = vec![Bitwidth::Int8, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3], vec![4, 5]];
        for stage in [0usize, 1] {
            let faults = FaultPlan {
                events: vec![crate::fault::FaultEvent {
                    stage,
                    step: 2,
                    attempt: None,
                    kind: crate::fault::FaultKind::DuplicateMessage,
                }],
            };
            let dup = Pipeline::new(&m, &plan(bits.clone(), 1, mb(1, 2, 2)))
                .faults(&faults)
                .run(&prompts, 5)
                .expect("duplicate handled");
            let plain = Pipeline::new(&m, &plan(bits.clone(), 1, mb(1, 2, 2))).run(&prompts, 5)
                .unwrap();
            assert_eq!(dup.tokens, plain.tokens, "duplicating stage {stage}");
        }
    }

    #[test]
    fn stage_metrics_account_all_work() {
        let m = model();
        let bits = vec![Bitwidth::Fp16, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3], vec![4, 5]];
        let n_gen = 5;
        let out = Pipeline::new(&m, &plan(bits, 1, mb(1, 2, 2))).run(&prompts, n_gen)
            .unwrap();
        assert_eq!(out.stage_metrics.len(), 2);
        for (i, sm) in out.stage_metrics.iter().enumerate() {
            // 2 prefill items (µ=1) + 4 decode steps × 1 item (µ=2).
            assert_eq!(sm.items, 2 + (n_gen - 1), "stage {i} items");
            // Each item carries its sequences: prefill 1 each, decode 2.
            assert_eq!(sm.seq_forwards, 2 + (n_gen - 1) * 2, "stage {i} forwards");
            assert!(sm.busy_s > 0.0);
        }
    }

    #[test]
    fn stage_metrics_are_the_hubs_recorders_with_or_without_a_caller_hub() {
        let m = model();
        let p = plan(vec![Bitwidth::Fp16, Bitwidth::Fp16], 1, mb(1, 2, 2));
        let prompts = vec![vec![1, 2, 3], vec![4, 5]];
        let own = Pipeline::new(&m, &p).run(&prompts, 5).unwrap();
        let hub = Telemetry::new(2);
        let traced = Pipeline::new(&m, &p).telemetry(hub.clone()).run(&prompts, 5).unwrap();
        let counts = |out: &RuntimeOutput| -> Vec<(usize, usize)> {
            out.stage_metrics.iter().map(|sm| (sm.items, sm.seq_forwards)).collect()
        };
        assert_eq!(counts(&own), counts(&traced));
        let recorded: Vec<StageMetrics> =
            (0..2).map(|i| hub.stage(i).unwrap().snapshot()).collect();
        assert_eq!(traced.stage_metrics, recorded);
        assert!(!hub.spans().is_empty(), "a hub created to trace into gets the spans");
        // A hub with fewer recorders than the plan has stages would lose
        // a stage's counters: refused before anything is loaded.
        let small = Pipeline::new(&m, &p).telemetry(Telemetry::new(1)).run(&prompts, 5);
        assert!(matches!(small, Err(RuntimeError::BadPlan(ref e)) if e.contains("recorder")), "{small:?}");
    }

    #[test]
    fn loader_stats_surface_per_stage() {
        let m = model();
        let bits = vec![Bitwidth::Int3, Bitwidth::Fp16];
        let prompts = vec![vec![1, 2, 3]];
        let out = Pipeline::new(&m, &plan(bits, 1, mb(1, 1, 1))).run(&prompts, 3)
            .unwrap();
        assert_eq!(out.loader_stats.len(), 2);
        assert_eq!(out.loader_stats[0].quantized_modules, 6);
        assert_eq!(out.loader_stats[1].quantized_modules, 0);
        assert!(out.wall_s > 0.0);
    }
}
