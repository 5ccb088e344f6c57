//! Distributed continuous serving: a [`StepEngine`] that executes each
//! scheduler iteration through the multi-stage pipeline ring.
//!
//! [`DistStepEngine`] is the third implementation of the serving
//! engine trait, after the analytic
//! [`SimStepEngine`](crate::serve::SimStepEngine) and the local
//! [`ModelStepEngine`](crate::serve::ModelStepEngine): the master keeps
//! embedding, logits projection and sampling, while decoder layers run
//! on stage workers connected by a [`Transport`] ring — in-process
//! channels or real TCP processes, through the same engine. The
//! [`ContinuousScheduler`](crate::serve::ContinuousScheduler) runs
//! unchanged on top.
//!
//! The ring layer is shared with the offline runner. A [`ServingRing`]
//! is how an attempt's ring comes to exist — [`ChannelRing`] (threads
//! and channels; also what [`Pipeline::run`](crate::Pipeline::run) dials
//! every attempt from) or the TCP stage fleet in [`crate::net::dist`] —
//! and the engine talks to the dialled link through the one master
//! endpoint, `engine::Master`: a forward is a send and a receive, a
//! slot recycle is a send, a rung change is the master-side swap
//! barrier the offline generation loop also runs. What stays the
//! engine's own is the *driver*: one work item per scheduler call, and
//! the serving failure policy below.
//!
//! Fault model: any ring failure (crash, hang past the op timeout, wire
//! disconnect, a swap that aborts or dies in its barrier) marks the ring
//! *down* and surfaces as [`StepError::RingRestarted`] on the next
//! engine call. The scheduler reacts by requeueing every in-flight
//! sequence for recompute (the `recovered` conservation leg); the next
//! call lazily rebuilds the ring from the boot plan and — when the
//! engine is on a rung other than 0 — replays the two-phase barrier so
//! the fresh ring resumes on that rung. Greedy decoding makes the
//! recompute bit-identical, so a crash is invisible in the token stream.
//!
//! Precision rungs are full [`ExecutionPlan`]s: `set_rung` runs the
//! live-migration protocol (§14) between scheduler iterations — the
//! ring is quiescent there, so the propose/prepare/commit/swapped
//! barrier needs no token boundary bookkeeping.

use crate::clock::{real_clock, Clock};
use crate::engine::{
    after_failed_attempt, load_all_stages, AttemptSupervision, Master, RestartPolicy, RuntimeError,
};
use crate::fault::{FaultInjector, FaultPlan, Heartbeats};
use crate::kvpool::{KvPool, KvPoolConfig, KvPoolError};
use crate::loader::LoaderStats;
use crate::migrate::{MigrationCoordinator, MigrationHost, SwapRequest};
use crate::net::transport::{ChannelTransport, Transport};
use crate::serve::{IterCost, StepEngine, StepError};
use crate::telemetry::Telemetry;
use crate::worker::{
    disconnect_board, run_worker_transport, DisconnectBoard, WorkItem, WorkerCtx, WorkerMsg,
};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use llm_pq::ExecutionPlan;
use llmpq_model::{argmax, Matrix, ModelHead, Phase, RefConfig, RefModel};
use llmpq_quant::Rounding;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Knobs of the distributed serving engine.
#[derive(Debug, Clone, Copy)]
pub struct DistServeConfig {
    /// Worker-side sequence slots (must cover the scheduler's
    /// `max_batch`; each stage pre-allocates one KV cache per slot).
    pub n_slots: usize,
    /// Geometry of the mirror KV pool the scheduler sees.
    pub pool: KvPoolConfig,
    /// Ring rebuilds allowed before the engine gives up for good.
    pub max_restarts: usize,
    /// Real-time deadline for one ring send, one wait for an echo, or
    /// one barrier phase (the master endpoint's progress timeout); an op
    /// exceeding it is treated as a lost ring (hung stage).
    pub op_timeout: Duration,
    /// Receive/retry granularity on the ring link.
    pub tick: Duration,
}

impl Default for DistServeConfig {
    fn default() -> Self {
        Self {
            n_slots: 32,
            pool: KvPoolConfig::default(),
            max_restarts: 4,
            op_timeout: Duration::from_secs(10),
            tick: Duration::from_millis(2),
        }
    }
}

/// Virtual stall charged per precision swap: none, like
/// [`ModelStepEngine`](crate::serve::ModelStepEngine), which keeps the
/// virtual timelines of a local and a distributed run identical — the
/// token-equality tests rely on that.
const SWAP_STALL_S: f64 = 0.0;

/// A pipeline-ring backend a master can (re)dial: per attempt it hands
/// out a fresh master-side [`Transport`] whose far end is stage 0 and
/// whose receive side is the last stage. Implementations:
/// [`ChannelRing`] (in-process threads) and the TCP stage ring in
/// [`crate::net::dist`]. The defaulted methods are what a medium can
/// observe about the attempt it carries; a master's restart loop reads
/// them to detect hangs and name root causes.
pub trait ServingRing: Send {
    /// Establish attempt `attempt` and return the master link. Stages
    /// boot on the ring's *boot* plan; the serving engine replays
    /// committed swaps on top.
    fn dial(&mut self, attempt: usize) -> Result<Box<dyn Transport + Send>, String>;
    /// Tear down the current attempt (un-wedge hung workers, join them).
    /// Called after the master link is dropped; must be idempotent. The
    /// default suits a ring whose stages run on their own: dropping the
    /// link closes both data endpoints, the EOF cascades down the ring,
    /// and each stage circles back to accepting the next attempt.
    fn teardown(&mut self) {}
    /// Number of pipeline stages in the ring.
    fn n_stages(&self) -> usize;
    /// The ring's observability hub, one for all of its attempts — the
    /// hub its caller handed it, or a counters-only one it made: stage
    /// workers (where they share the process), link transports, the
    /// master endpoint and the restart path all count into it.
    fn telemetry(&self) -> Arc<Telemetry>;
    /// The board the stages of the current attempt stamp their
    /// heartbeats on, if the ring keeps one.
    fn heartbeats(&self) -> Option<Arc<Heartbeats>> {
        None
    }
    /// The first stage that reported dropping a work item during the
    /// current attempt because its downstream link disconnected.
    fn dropped_stage(&self) -> Option<usize> {
        None
    }
    /// The stage whose worker left the torn-down attempt first, where
    /// the ring can tell (its workers share the process). It names a
    /// culprit only when the master saw the ring break on its own — a
    /// teardown the master started unwinds from stage 0.
    fn first_exit(&self) -> Option<usize> {
        None
    }
    /// Cluster device ids reported permanently lost so far.
    fn lost_devices(&self) -> Vec<usize> {
        Vec::new()
    }
}

/// In-process ring: one OS thread per stage over crossbeam channels,
/// the plan's shards quantized once and shared across attempts — the
/// runtime's only channel-chain builder. The serving engine gets one
/// from [`new`](Self::new) (fault injector, and a [`MigrationHost`] on
/// every worker when its rung ladder can swap); the offline
/// [`Pipeline`](crate::Pipeline) loads one per plan and attaches the
/// supervision of its run through the crate-private fields.
pub struct ChannelRing {
    stage_weights: Vec<Arc<Vec<llmpq_model::LayerWeights>>>,
    /// What the on-the-fly loader did for each stage's shard.
    pub(crate) loader_stats: Vec<LoaderStats>,
    boot: ExecutionPlan,
    model: RefConfig,
    n_slots: usize,
    tick: Duration,
    clock: Arc<dyn Clock>,
    /// Worker fault injection, shared across the rings of one run so
    /// consumed events and lost devices persist.
    pub(crate) injector: Option<Arc<FaultInjector>>,
    /// Lets workers prepare proposed plans; without it they refuse a
    /// proposal with a typed abort.
    pub(crate) host: Option<Arc<MigrationHost>>,
    /// Heartbeat board the workers stamp (read by supervised masters).
    heartbeats: Arc<Heartbeats>,
    /// Hub for stage recorders, worker spans, queue gauges and link
    /// counters: counters-only until a caller assigns its own.
    pub(crate) telemetry: Arc<Telemetry>,
    /// `Some(k)` bounds every channel of an attempt to `k` in-flight
    /// messages, so a slow stage backpressures its upstream (and
    /// ultimately the master's admission) instead of buffering
    /// unboundedly.
    pub(crate) queue_cap: Option<usize>,
    /// Which stages dropped an item on a downstream disconnect during
    /// the current attempt.
    disconnects: DisconnectBoard,
    /// The current attempt's stages in the order their workers left,
    /// each noted before its channels closed — so no stage can have seen
    /// a neighbour go before that neighbour is on the list.
    exits: DisconnectBoard,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ChannelRing {
    /// Quantize `boot`'s shards (no threads run until the first
    /// [`dial`](ServingRing::dial)); every optional attachment off.
    pub(crate) fn load(
        checkpoint: &RefModel,
        boot: ExecutionPlan,
        rounding: Rounding,
        seed: u64,
        n_slots: usize,
        tick: Duration,
    ) -> Self {
        let (weights, loader_stats) = load_all_stages(checkpoint, &boot, rounding, seed);
        let clock = real_clock();
        Self {
            stage_weights: weights.into_iter().map(Arc::new).collect(),
            loader_stats,
            model: checkpoint.cfg,
            n_slots,
            tick,
            injector: None,
            host: None,
            heartbeats: Heartbeats::with_clock(boot.stages.len(), clock.clone()),
            telemetry: Telemetry::counters_only(boot.stages.len(), clock.clone()),
            queue_cap: None,
            disconnects: disconnect_board(),
            exits: disconnect_board(),
            threads: Vec::new(),
            boot,
            clock,
        }
    }

    /// The serving ring of the rung ladder `plans`, booted on `plans[0]`;
    /// `faults` attaches deterministic worker-fault injection for chaos
    /// tests. A rung change is the only thing that proposes a plan to a
    /// serving ring, so the workers get a [`MigrationHost`] — and the
    /// process a resident dense checkpoint — only when there is a second
    /// rung to change to.
    pub fn new(
        checkpoint: &RefModel,
        plans: &[ExecutionPlan],
        rounding: Rounding,
        seed: u64,
        n_slots: usize,
        tick: Duration,
        faults: Option<FaultPlan>,
    ) -> Result<Self, String> {
        let boot = plans.first().ok_or("need at least one plan in the rung ladder")?;
        boot.validate(checkpoint.cfg.n_layers)?;
        let mut ring = Self::load(checkpoint, boot.clone(), rounding, seed, n_slots, tick);
        ring.injector = Some(FaultInjector::new(&faults.unwrap_or_default()));
        if plans.len() > 1 {
            let dense = Arc::new(checkpoint.clone());
            ring.host = Some(Arc::new(MigrationHost::new(dense, rounding, seed)));
        }
        Ok(ring)
    }
}

impl ServingRing for ChannelRing {
    fn dial(&mut self, attempt: usize) -> Result<Box<dyn Transport + Send>, String> {
        self.teardown();
        if let Some(inj) = &self.injector {
            inj.begin_attempt(attempt);
        }
        self.disconnects.lock().clear();
        self.exits.lock().clear();
        let n_stages = self.boot.stages.len();
        // A freshly spawned stage counts as alive: its slot would
        // otherwise read as stale since the previous attempt until the
        // worker thread's first beat.
        (0..n_stages).for_each(|s| self.heartbeats.beat(s));
        // Channel chain: master → s0 → s1 → … → master.
        let mut senders: Vec<Sender<WorkerMsg>> = Vec::new();
        let mut receivers: Vec<Receiver<WorkerMsg>> = Vec::new();
        for _ in 0..=n_stages {
            let (tx, rx) = match self.queue_cap {
                Some(cap) => bounded(cap),
                None => unbounded(),
            };
            senders.push(tx);
            receivers.push(rx);
        }
        let to_first = senders[0].clone();
        let from_last = receivers[n_stages].clone();
        for (i, weights) in self.stage_weights.iter().enumerate() {
            let weights = weights.clone();
            // Inbound edge = link `i`, outbound edge = link `i + 1`.
            let link = ChannelTransport::new(
                receivers[i].clone(),
                senders[i + 1].clone(),
                self.telemetry.clone(),
                i,
                i + 1,
            );
            let exits = self.exits.clone();
            let mut ctx = WorkerCtx::new(
                &self.model,
                i,
                &self.boot.stages[i],
                self.n_slots,
                self.tick,
                self.clock.clone(),
                self.telemetry.clone(),
            );
            ctx.injector = self.injector.clone();
            ctx.migration = self.host.clone();
            // The boards the master of this process reads.
            ctx.heartbeats = self.heartbeats.clone();
            ctx.disconnects = self.disconnects.clone();
            self.threads.push(std::thread::spawn(move || {
                run_worker_transport(&weights, &ctx, &link);
                exits.lock().push(i);
            }));
        }
        // Master link: outbound = link 0, inbound = link `n_stages`.
        Ok(Box::new(ChannelTransport::new(from_last, to_first, self.telemetry.clone(), n_stages, 0)))
    }

    fn teardown(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        // Un-wedge hung workers; live ones exit via channel disconnect
        // once the master link (dropped by the caller) cascades.
        if let Some(inj) = &self.injector {
            inj.set_abort();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn n_stages(&self) -> usize {
        self.boot.stages.len()
    }

    fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    fn heartbeats(&self) -> Option<Arc<Heartbeats>> {
        Some(self.heartbeats.clone())
    }

    fn dropped_stage(&self) -> Option<usize> {
        self.disconnects.lock().first().copied()
    }

    fn first_exit(&self) -> Option<usize> {
        self.exits.lock().first().copied()
    }

    fn lost_devices(&self) -> Vec<usize> {
        self.injector.as_ref().map(|i| i.lost_devices()).unwrap_or_default()
    }
}

impl Drop for ChannelRing {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// The distributed serving engine (module docs above).
pub struct DistStepEngine {
    /// Embedding + logits live on the master, like the offline engine;
    /// the decoder layers live on the ring.
    head: ModelHead,
    /// Rung ladder: full execution plans, same stage count, rung 0 is
    /// the boot plan every (re)started ring loads.
    plans: Vec<ExecutionPlan>,
    costs: Vec<IterCost>,
    pool: KvPool,
    ring: Box<dyn ServingRing>,
    /// The master endpoint on the current attempt's ring.
    link: Option<Master>,
    /// How the endpoint waits: `op_timeout` as the progress timeout,
    /// `tick` as the poll granularity, no heartbeat board.
    sup: AttemptSupervision,
    /// slot → live sequence (index is the worker-side sequence id).
    slots: Vec<Option<u64>>,
    seq_slot: HashMap<u64, usize>,
    /// Mirror of each live sequence's cached positions (debug asserts).
    positions: HashMap<u64, usize>,
    rung: usize,
    epoch: u64,
    next_step: u64,
    restarts: u64,
    /// `Some(what the master saw)` while the ring is down; the next
    /// call restarts it.
    lost: Option<RuntimeError>,
    cfg: DistServeConfig,
}

impl DistStepEngine {
    /// Engine over an in-process [`ChannelRing`] on `plans[0]`, with
    /// optional deterministic worker faults.
    pub fn over_channels(
        checkpoint: &RefModel,
        plans: Vec<ExecutionPlan>,
        rounding: Rounding,
        seed: u64,
        cfg: DistServeConfig,
        faults: Option<FaultPlan>,
    ) -> Result<Self, String> {
        let ring =
            ChannelRing::new(checkpoint, &plans, rounding, seed, cfg.n_slots, cfg.tick, faults)?;
        Self::over_ring(checkpoint, plans, cfg, Box::new(ring))
    }

    /// Engine over any [`ServingRing`] backend (the TCP stage ring uses
    /// this). Stages must boot on `plans[0]`.
    pub fn over_ring(
        checkpoint: &RefModel,
        plans: Vec<ExecutionPlan>,
        cfg: DistServeConfig,
        ring: Box<dyn ServingRing>,
    ) -> Result<Self, String> {
        if plans.is_empty() {
            return Err("need at least one plan in the rung ladder".into());
        }
        let n_stages = plans[0].stages.len();
        for (i, p) in plans.iter().enumerate() {
            p.validate(checkpoint.cfg.n_layers).map_err(|e| format!("rung {i}: {e}"))?;
            if p.stages.len() != n_stages {
                return Err(format!(
                    "rung {i} has {} stages, rung 0 has {n_stages} — live swap needs a fixed ring",
                    p.stages.len()
                ));
            }
        }
        if ring.n_stages() != n_stages {
            return Err(format!(
                "ring has {} stages, plans have {n_stages}",
                ring.n_stages()
            ));
        }
        if cfg.n_slots == 0 {
            return Err("n_slots must be ≥ 1".into());
        }
        let costs = IterCost::default_ladder(plans.len());
        Ok(Self {
            head: ModelHead::of(checkpoint),
            plans,
            costs,
            pool: KvPool::new(cfg.pool),
            ring,
            link: None,
            sup: AttemptSupervision {
                heartbeats: None,
                heartbeat_timeout: None,
                progress_timeout: Some(cfg.op_timeout),
                tick: cfg.tick,
                clock: real_clock(),
            },
            slots: vec![None; cfg.n_slots],
            seq_slot: HashMap::new(),
            positions: HashMap::new(),
            rung: 0,
            epoch: 0,
            next_step: 0,
            restarts: 0,
            lost: None,
            cfg,
        })
    }

    /// Ring rebuilds taken so far (the `/healthz` restart counter).
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Committed live-swap epoch of the current ring attempt.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the ring is currently down (next call restarts it).
    pub fn ring_down(&self) -> bool {
        self.lost.is_some()
    }

    /// The ring's observability hub — what `/metrics` should render for
    /// this engine: per-stage, per-phase counters of the ring workers,
    /// link counters, and the restarts and plan epoch this engine
    /// records on it.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.ring.telemetry()
    }

    fn master(&self) -> &Master {
        self.link.as_ref().expect("ensure_ring established the link")
    }

    /// Lazily (re)establish the ring. Restart path: tear the lost
    /// attempt down, put what the master saw through the runtime's one
    /// failure decision (root cause, restart counted on the hub against
    /// the stage it names, budget — the serving policy is an immediate
    /// restart on the boot plan, and a device lost for good is fatal,
    /// since nothing here replans), dial fresh, then replay the committed
    /// rung through the swap barrier so the new ring serves the
    /// precision the scheduler believes is active.
    fn ensure_ring(&mut self) -> Result<(), StepError> {
        if self.link.is_some() && self.lost.is_none() {
            return Ok(());
        }
        self.link = None; // EOF cascade tears the old attempt down
        self.ring.teardown();
        if let Some(seen) = self.lost.take() {
            let policy = RestartPolicy {
                max_restarts: self.cfg.max_restarts,
                replan_on_loss: false,
                backoff: Box::new(|_| Duration::ZERO),
            };
            let restarts = self.restarts as usize;
            match after_failed_attempt(&*self.ring, &self.plans[0], seen, restarts, Some(&policy)) {
                Ok(_) => self.restarts += 1,
                Err(cause) => {
                    self.lost = Some(cause.clone()); // still down: the next call says so again
                    return Err(StepError::Engine(match cause {
                        RuntimeError::DeviceLost(d) => {
                            format!("ring lost: device {d} is gone for good, no restart can help")
                        }
                        _ => format!(
                            "ring lost and restart budget ({}) exhausted: {cause}",
                            self.cfg.max_restarts
                        ),
                    }));
                }
            }
        }
        let attempt = self.restarts as usize;
        let link = self.ring.dial(attempt).map_err(|e| {
            self.lost = Some(RuntimeError::WorkerDied(format!("dialing attempt {attempt}: {e}")));
            StepError::Engine(e)
        })?;
        self.link = Some(Master::new(link, self.ring.telemetry()));
        self.epoch = 0;
        self.ring.telemetry().set_epoch(0);
        self.next_step = 0;
        if self.rung != 0 {
            // Caches are empty at attempt start, so the KV handoff is
            // trivial — the barrier only moves the shard boundaries and
            // requantized weights into place. A failure here is another
            // lost ring, not a fatal error: the budget bounds retries.
            if self.swap_to(self.rung).is_err() {
                return Err(StepError::RingRestarted);
            }
        }
        Ok(())
    }

    /// Live-swap the ring to rung `target`: a one-entry schedule run
    /// through the master endpoint's two-phase barrier. Serving policy:
    /// on *any* failure — a proposal that aborts before commit included
    /// — the ring is down and the target stays authoritative; the
    /// restart boots `plans[0]` and replays this barrier, which keeps
    /// the swap's effect on the token stream deterministic.
    fn swap_to(&mut self, target: usize) -> Result<(), StepError> {
        let schedule = vec![SwapRequest { at_token: 0, plan: self.plans[target].clone() }];
        let mut coord =
            MigrationCoordinator::new(schedule, self.ring.n_stages(), self.cfg.op_timeout);
        coord.active_epoch = self.epoch;
        let master = self.master();
        let res = master
            .propose(&self.sup, &mut coord)
            .and_then(|()| master.swap_barrier(&self.sup, &mut coord));
        let seen = match res {
            Ok(Some(report)) => {
                self.epoch = report.epoch;
                return Ok(());
            }
            Ok(None) => {
                let reason = coord.reports.pop().and_then(|r| r.reason).unwrap_or_default();
                RuntimeError::Stalled(format!("plan swap aborted before commit: {reason}"))
            }
            Err(e) => e,
        };
        let why = format!("swap to rung {target} failed: {seen}");
        self.lost = Some(seen);
        Err(StepError::Engine(why))
    }

    fn slot_of(&self, seq: u64) -> Result<usize, StepError> {
        self.seq_slot
            .get(&seq)
            .copied()
            .ok_or_else(|| StepError::Engine(format!("unregistered sequence {seq}")))
    }

    /// Send one item through the ring, wait for it to come back from
    /// the last stage and sample the last row of the returned hidden
    /// states (greedy, same tie-breaking as the offline engine). A lost
    /// ring marks the engine down and surfaces as
    /// [`StepError::RingRestarted`].
    fn forward(&mut self, slot: usize, x: Matrix, phase: Phase, sample: bool) -> Result<Option<usize>, StepError> {
        self.ensure_ring()?;
        let step = self.next_step;
        self.next_step += 1;
        let item = WorkItem {
            step,
            epoch: self.epoch,
            microbatch: 0,
            phase,
            sent_us: 0,
            seqs: vec![(slot, x)],
        };
        let master = self.master();
        let res = master
            .send(WorkerMsg::Work(item), &self.sup)
            .and_then(|()| master.recv_m(&self.sup, None));
        match res {
            Ok(echo) => {
                if !sample {
                    return Ok(None);
                }
                let (_, h) = echo
                    .seqs
                    .into_iter()
                    .next()
                    .ok_or_else(|| StepError::Engine("empty work item echo".into()))?;
                Ok(Some(argmax(&self.head.last_row_logits(&h))))
            }
            Err(seen) => {
                self.lost = Some(seen);
                Err(StepError::RingRestarted)
            }
        }
    }
}

impl StepEngine for DistStepEngine {
    fn pool(&self) -> &KvPool {
        &self.pool
    }

    fn register(&mut self, seq: u64) -> Result<(), StepError> {
        let slot = self
            .slots
            .iter()
            .position(Option::is_none)
            .ok_or_else(|| StepError::Engine(format!("all {} slots in use", self.cfg.n_slots)))?;
        self.pool.alloc(seq, 0).map_err(|e| StepError::Engine(e.to_string()))?;
        self.slots[slot] = Some(seq);
        self.seq_slot.insert(seq, slot);
        self.positions.insert(seq, 0);
        Ok(())
    }

    fn prefill_chunk(
        &mut self,
        seq: u64,
        tokens: &[usize],
        pos0: usize,
        is_last: bool,
    ) -> Result<Option<usize>, StepError> {
        let slot = self.slot_of(seq)?;
        debug_assert_eq!(self.positions[&seq], pos0, "prefill chunks must be contiguous");
        // Mirror the allocator first: an exhausted pool must preempt
        // without touching the ring, exactly like the local engine.
        match self.pool.extend(seq, tokens.len()) {
            Err(KvPoolError::Exhausted { needed, free }) => {
                return Err(StepError::KvExhausted { needed, free })
            }
            Err(e) => return Err(StepError::Engine(e.to_string())),
            Ok(()) => {}
        }
        let x = self.head.embed_tokens(tokens, pos0);
        let tok = self.forward(slot, x, Phase::Prefill, is_last)?;
        *self.positions.get_mut(&seq).expect("registered") += tokens.len();
        Ok(tok)
    }

    fn decode_one(&mut self, seq: u64, last: usize, pos: usize) -> Result<usize, StepError> {
        let slot = self.slot_of(seq)?;
        debug_assert_eq!(self.positions[&seq], pos, "decode position must follow the cache");
        match self.pool.extend(seq, 1) {
            Err(KvPoolError::Exhausted { needed, free }) => {
                return Err(StepError::KvExhausted { needed, free })
            }
            Err(e) => return Err(StepError::Engine(e.to_string())),
            Ok(()) => {}
        }
        let x = self.head.embed_tokens(&[last], pos);
        let tok = self
            .forward(slot, x, Phase::Decode, true)?
            .expect("sampled decode step returns a token");
        *self.positions.get_mut(&seq).expect("registered") += 1;
        Ok(tok)
    }

    fn release(&mut self, seq: u64) {
        self.pool.free(seq);
        self.positions.remove(&seq);
        let Some(slot) = self.seq_slot.remove(&seq) else { return };
        self.slots[slot] = None;
        // Recycle the worker-side slot: broadcast a KV reset around the
        // ring. Per-hop FIFO ordering guarantees it lands before any
        // work item of the slot's next occupant; the endpoint sinks the
        // echo on a later receive. A downed ring needs no reset — the
        // rebuilt attempt starts from empty caches anyway.
        if self.lost.is_some() || self.link.is_none() {
            return;
        }
        if let Err(seen) = self.master().send(WorkerMsg::KvReset { seq: slot }, &self.sup) {
            self.lost = Some(seen);
        }
    }

    fn iteration_cost_s(&self, rung: usize, p: usize, d: usize) -> f64 {
        self.costs[rung.min(self.costs.len() - 1)].cost(p, d)
    }

    fn n_rungs(&self) -> usize {
        self.plans.len()
    }

    fn set_rung(&mut self, rung: usize) -> f64 {
        let target = rung.min(self.plans.len() - 1);
        if target == self.rung {
            return 0.0;
        }
        if self.link.is_some() && self.lost.is_none() {
            // Live swap; on failure the restart boots into the target.
            let _ = self.swap_to(target);
        }
        self.rung = target;
        SWAP_STALL_S
    }

    fn rung(&self) -> usize {
        self.rung
    }

    fn max_seq(&self) -> usize {
        self.head.cfg.max_seq
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn restarts(&self) -> u64 {
        self.restarts
    }
}

impl Drop for DistStepEngine {
    fn drop(&mut self) {
        if let Some(master) = self.link.take() {
            // Best-effort graceful drain; EOF cascade finishes the job.
            master.shutdown(&self.sup);
        }
        self.ring.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind};
    use crate::net::transport::{TransportRecvError, TransportSendError};
    use crate::overload::poisson_requests;
    use crate::serve::{
        serve_continuous, ContinuousConfig, ContinuousScheduler, ModelStepEngine, RungSwap,
    };
    use llm_pq::StagePlan;
    use llmpq_model::RefConfig;
    use llmpq_quant::{BitAssignment, Bitwidth};
    use llmpq_workload::MicrobatchPlan;

    const SEED: u64 = 11;

    fn checkpoint() -> RefModel {
        RefModel::new(RefConfig::tiny())
    }

    fn mb() -> MicrobatchPlan {
        MicrobatchPlan { prefill_size: 1, prefill_count: 1, decode_size: 1, decode_count: 1 }
    }

    /// Two-stage plan over the tiny model at uniform `bits`.
    fn plan(bits: Bitwidth) -> ExecutionPlan {
        let n = checkpoint().cfg.n_layers;
        let split = n / 2;
        ExecutionPlan {
            model: "tiny".into(),
            cluster: "test".into(),
            stages: vec![
                StagePlan { device: 0, layer_start: 0, layer_end: split, bits: vec![bits; split] },
                StagePlan { device: 1, layer_start: split, layer_end: n, bits: vec![bits; n - split] },
            ],
            microbatch: mb(),
            scheme: "LLM-PQ".into(),
            kv_bits: 16,
        }
    }

    fn ladder() -> Vec<ExecutionPlan> {
        vec![plan(Bitwidth::Fp16), plan(Bitwidth::Int8)]
    }

    fn bit_ladder() -> Vec<BitAssignment> {
        let n = checkpoint().cfg.n_layers;
        vec![BitAssignment::uniform(n, Bitwidth::Fp16), BitAssignment::uniform(n, Bitwidth::Int8)]
    }

    fn cfg() -> ContinuousConfig {
        ContinuousConfig {
            token_budget: 16,
            max_batch: 4,
            ..ContinuousConfig::default()
        }
    }

    fn dist_engine(faults: Option<FaultPlan>) -> DistStepEngine {
        DistStepEngine::over_channels(
            &checkpoint(),
            ladder(),
            Rounding::Deterministic,
            SEED,
            DistServeConfig { n_slots: 8, ..DistServeConfig::default() },
            faults,
        )
        .expect("engine")
    }

    fn local_engine() -> ModelStepEngine {
        ModelStepEngine::new(
            &checkpoint(),
            &bit_ladder(),
            Rounding::Deterministic,
            SEED,
            KvPoolConfig::default(),
        )
        .expect("engine")
    }

    fn trace(n: usize) -> Vec<crate::overload::Request> {
        poisson_requests(n, 50.0, 6, 4, 5).expect("trace")
    }

    fn finished_tokens(
        report: &crate::serve::ContinuousReport,
    ) -> std::collections::BTreeMap<usize, Vec<usize>> {
        report.outputs.iter().map(|f| (f.id, f.tokens.clone())).collect()
    }

    /// What `over_channels` builds its ring with, kept in hand so a test
    /// can wrap it, or look inside after the engine has boxed it.
    fn channel_ring(plans: &[ExecutionPlan], tick: Duration, faults: Option<FaultPlan>) -> ChannelRing {
        ChannelRing::new(&checkpoint(), plans, Rounding::Deterministic, SEED, 8, tick, faults)
            .expect("ring")
    }

    #[test]
    fn one_rung_ring_has_no_host_and_refuses_a_proposal() {
        // Nothing proposes a plan to a one-rung ladder, so nothing in the
        // process keeps dense decoder layers: the ring has no host (and
        // the engine's `head` has no layers to keep, by type). A
        // proposal that arrives anyway gets the typed refusal.
        let mut ring = channel_ring(&ladder()[..1], DistServeConfig::default().tick, None);
        assert!(ring.host.is_none());
        let link = ring.dial(0).expect("dial");
        let propose = WorkerMsg::PlanPropose { epoch: 1, plan_json: plan(Bitwidth::Int8).to_json() };
        link.send_msg(propose, Duration::from_secs(5)).expect("send");
        let reason = loop {
            match link.recv_msg(Duration::from_secs(5)).expect("the ring answers") {
                WorkerMsg::PlanAbort { reason, .. } => break reason,
                WorkerMsg::PlanReady { .. } => panic!("a ring without a host prepared a plan"),
                _ => {}
            }
        };
        assert!(reason.contains("no migration host"), "{reason}");
    }

    #[test]
    fn two_rung_engine_holds_the_dense_checkpoint_once() {
        let ring = channel_ring(&ladder(), DistServeConfig::default().tick, None);
        let host = ring.host.clone().expect("a second rung can be swapped to");
        let dcfg = DistServeConfig { n_slots: 8, ..DistServeConfig::default() };
        let mut eng = DistStepEngine::over_ring(&checkpoint(), ladder(), dcfg, Box::new(ring))
            .expect("engine");
        // Holders of the host before a dial: the ring and this test.
        assert_eq!(Arc::strong_count(&host), 2);
        eng.register(0).unwrap();
        assert!(eng.prefill_chunk(0, &[1, 2, 3], 0, true).unwrap().is_some());
        // … and one per stage worker once the ring runs. All of them
        // reach the same dense model, which nothing else holds.
        assert_eq!(Arc::strong_count(&host), 2 + eng.ring.n_stages());
        assert_eq!(Arc::strong_count(&host.checkpoint), 1);
        // The swap those layers are kept for still works.
        eng.set_rung(1);
        assert_eq!((eng.epoch(), eng.ring_down()), (1, false));
        assert_eq!(Arc::strong_count(&host.checkpoint), 1);
    }

    #[test]
    fn channel_ring_matches_local_engine() {
        let reqs = trace(6);
        let local = serve_continuous(local_engine(), &reqs, cfg()).expect("local");
        let dist = serve_continuous(dist_engine(None), &reqs, cfg()).expect("dist");
        assert_eq!(finished_tokens(&local), finished_tokens(&dist));
        assert!(dist.stats.conserves(dist.pending_end), "conservation");
    }

    #[test]
    fn crash_recovers_bit_identically() {
        let reqs = trace(6);
        let local = serve_continuous(local_engine(), &reqs, cfg()).expect("local");
        let faults = FaultPlan {
            events: vec![FaultEvent { stage: 1, step: 5, attempt: Some(0), kind: FaultKind::Crash }],
        };
        let engine = dist_engine(Some(faults));
        let hub = engine.telemetry();
        let dist = serve_continuous(engine, &reqs, cfg()).expect("dist");
        assert_eq!(finished_tokens(&local), finished_tokens(&dist), "recompute is exact");
        assert!(dist.stats.recovered > 0, "restart requeued in-flight work");
        assert!(dist.stats.conserves(dist.pending_end), "conservation incl. recovered");
        // The ring's hub saw it all: one restart, against the stage that
        // went down first, and both stages' work in both phases — the
        // attempt that died included.
        assert_eq!(hub.n_stages(), 2);
        assert_eq!(hub.restarts(), 1);
        let per_stage: Vec<u64> = (0..2).map(|s| hub.stage(s).unwrap().restarts()).collect();
        assert_eq!(per_stage, [0, 1]);
        for s in 0..2 {
            let rec = hub.stage(s).unwrap();
            assert!(rec.items() > 0 && rec.seq_forwards() == rec.items(), "stage {s}");
            assert!(rec.prefill_latency.count() > 0, "stage {s} prefill histogram");
            assert!(rec.decode_latency.count() > 0, "stage {s} decode histogram");
        }
        assert!(hub.stage(0).unwrap().items() >= hub.stage(1).unwrap().items());
        assert!(hub.link_stats().iter().all(|l| l.frames_tx > 0), "every link counted");
        assert!(hub.spans().is_empty(), "a ring-made hub keeps no spans");
        assert!(hub.metrics_text().contains("stage 1: items="), "{}", hub.metrics_text());
    }

    #[test]
    fn lost_device_ends_the_ring_by_name_without_a_restart() {
        // Nothing in serving replans, so a device lost for good is not
        // retried: the engine fails at once, its error names the device
        // (not a spent restart budget), and no restart is counted.
        let engine = dist_engine(Some(FaultPlan::device_loss(1, 1)));
        let hub = engine.telemetry();
        let err = serve_continuous(engine, &trace(6), cfg()).expect_err("a lost device is fatal");
        assert!(err.contains("device 1 is gone for good"), "{err}");
        assert_eq!(hub.restarts(), 0);
    }

    #[test]
    fn live_swap_matches_local_swap() {
        let reqs = trace(6);
        let mut c = cfg();
        c.swaps = vec![RungSwap { at_iteration: 3, rung: 1 }];
        let local = serve_continuous(local_engine(), &reqs, c.clone()).expect("local");
        let dist = serve_continuous(dist_engine(None), &reqs, c).expect("dist");
        assert_eq!(finished_tokens(&local), finished_tokens(&dist), "swap is transparent");
    }

    #[test]
    fn crash_then_swap_restores_committed_rung() {
        // Crash after the swap: the rebuilt ring must replay the barrier
        // and resume on rung 1, or tokens would diverge.
        let reqs = trace(6);
        let mut c = cfg();
        c.swaps = vec![RungSwap { at_iteration: 2, rung: 1 }];
        let local = serve_continuous(local_engine(), &reqs, c.clone()).expect("local");
        let faults = FaultPlan {
            events: vec![FaultEvent { stage: 0, step: 9, attempt: Some(0), kind: FaultKind::Crash }],
        };
        let dist = serve_continuous(dist_engine(Some(faults)), &reqs, c).expect("dist");
        assert_eq!(finished_tokens(&local), finished_tokens(&dist));
        assert!(dist.stats.conserves(dist.pending_end));
    }

    #[test]
    fn duplicate_deliveries_around_a_swap_do_not_change_tokens() {
        // A duplicated work item at an interior stage (the next worker
        // dedups) and at the last stage (the master endpoint dedups — on
        // its next receive, or, for the last item before the barrier,
        // while it pumps the swap). The step sweep walks the duplicate
        // from well before the scheduled swap, through its window, to
        // after it: tokens never move and nothing restarts.
        let reqs = trace(6);
        let mut c = cfg();
        c.swaps = vec![RungSwap { at_iteration: 3, rung: 1 }];
        let local = serve_continuous(local_engine(), &reqs, c.clone()).expect("local");
        for stage in [0usize, 1] {
            for step in 0..20 {
                let faults = FaultPlan {
                    events: vec![FaultEvent {
                        stage,
                        step,
                        attempt: None,
                        kind: FaultKind::DuplicateMessage,
                    }],
                };
                let mut sched =
                    ContinuousScheduler::new(dist_engine(Some(faults)), c.clone()).expect("sched");
                let makespan = sched.run_trace(&reqs).expect("dist");
                let what = format!("duplicate at stage {stage}, item {step}");
                assert_eq!(sched.engine().restarts(), 0, "{what}");
                assert_eq!(sched.engine().epoch(), 1, "{what}");
                let dist = sched.into_report(makespan, "continuous");
                assert_eq!(finished_tokens(&local), finished_tokens(&dist), "{what}");
            }
        }
    }

    /// A ring whose first attempt goes silent at the swap barrier: the
    /// proposal never reaches stage 0, so no `PlanReady` comes back
    /// while every link stays connected — what a stage wedged in its
    /// prepare looks like from the master. (`FaultKind::Hang` cannot
    /// produce this: it fires on a work item, and the barrier runs on a
    /// quiescent ring.)
    struct SilentBarrierRing(ChannelRing);

    struct SwallowProposals(Box<dyn Transport + Send>);

    impl Transport for SwallowProposals {
        fn recv_msg(&self, timeout: Duration) -> Result<WorkerMsg, TransportRecvError> {
            self.0.recv_msg(timeout)
        }

        fn send_msg(&self, msg: WorkerMsg, timeout: Duration) -> Result<(), TransportSendError> {
            match msg {
                WorkerMsg::PlanPropose { .. } => Ok(()),
                other => self.0.send_msg(other, timeout),
            }
        }
    }

    impl ServingRing for SilentBarrierRing {
        fn dial(&mut self, attempt: usize) -> Result<Box<dyn Transport + Send>, String> {
            let link = self.0.dial(attempt)?;
            Ok(if attempt == 0 { Box::new(SwallowProposals(link)) } else { link })
        }

        fn teardown(&mut self) {
            self.0.teardown()
        }

        fn n_stages(&self) -> usize {
            self.0.n_stages()
        }

        fn telemetry(&self) -> Arc<Telemetry> {
            self.0.telemetry()
        }
    }

    #[test]
    fn hang_around_the_barrier_costs_one_restart_and_lands_on_the_target_rung() {
        // Two ways a stage can stop answering around a scheduled swap:
        // the barrier itself waits for a `PlanReady` that never comes
        // (first row), or a stage hangs on a work item next to it
        // (second row: a real `Hang`, detected by the op timeout on the
        // echo). Either way the engine's policy is one ring restart with
        // the target rung authoritative — the rebuilt ring boots
        // `plans[0]` and replays the barrier — so the run ends on rung 1
        // at epoch 1 with every request served in full.
        let reqs = trace(6);
        let mut c = cfg();
        c.swaps = vec![RungSwap { at_iteration: 2, rung: 1 }];
        let dcfg = DistServeConfig {
            n_slots: 8,
            op_timeout: Duration::from_millis(150),
            tick: Duration::from_millis(1),
            ..DistServeConfig::default()
        };
        let ring = |faults| channel_ring(&ladder(), dcfg.tick, faults);
        let hang = FaultPlan {
            events: vec![FaultEvent { stage: 1, step: 6, attempt: Some(0), kind: FaultKind::Hang }],
        };
        let rows: Vec<(&str, Box<dyn ServingRing>)> = vec![
            ("silent barrier", Box::new(SilentBarrierRing(ring(None)))),
            ("stage hung on a work item", Box::new(ring(Some(hang)))),
        ];
        for (what, ring) in rows {
            let engine =
                DistStepEngine::over_ring(&checkpoint(), ladder(), dcfg, ring).expect("engine");
            let mut sched = ContinuousScheduler::new(engine, c.clone()).expect("sched");
            let t0 = std::time::Instant::now();
            let makespan = sched.run_trace(&reqs).expect("dist");
            // One op timeout to notice, not the default ten seconds.
            assert!(t0.elapsed() < Duration::from_secs(5), "{what}: took {:?}", t0.elapsed());
            assert_eq!(sched.engine().restarts(), 1, "{what}");
            assert_eq!(sched.engine().rung(), 1, "{what}");
            assert_eq!(sched.engine().epoch(), 1, "{what}");
            let report = sched.into_report(makespan, "continuous");
            assert!(report.stats.conserves(report.pending_end), "{what}: {:?}", report.stats);
            assert_eq!(report.outputs.len(), reqs.len(), "{what}");
            for f in &report.outputs {
                assert_eq!(f.tokens.len(), reqs[f.id].n_generate, "{what}: request {}", f.id);
            }
        }
    }

    #[test]
    fn restart_budget_is_enforced() {
        let mut eng = DistStepEngine::over_channels(
            &checkpoint(),
            ladder(),
            Rounding::Deterministic,
            SEED,
            DistServeConfig { n_slots: 2, max_restarts: 0, ..DistServeConfig::default() },
            None,
        )
        .expect("engine");
        eng.register(0).unwrap();
        assert!(eng.prefill_chunk(0, &[1, 2], 0, true).unwrap().is_some());
        eng.lost = Some(RuntimeError::WorkerDied("pulled by the test".into()));
        let err = eng.decode_one(0, 1, 2).unwrap_err();
        // First failure surfaces as a restart; the retry exhausts the
        // zero budget.
        assert!(matches!(err, StepError::RingRestarted) || matches!(err, StepError::Engine(_)));
        let err = eng.decode_one(0, 1, 2).unwrap_err();
        // The last classified cause, not a bare "budget exhausted" — and
        // an attempt that was never restarted is not counted as one.
        assert!(
            matches!(err, StepError::Engine(ref m) if m.contains("budget") && m.contains("pulled by the test")),
            "{err:?}"
        );
        assert_eq!((eng.restarts(), eng.telemetry().restarts()), (0, 0));
    }

    #[test]
    fn ladder_with_mismatched_stage_count_is_rejected() {
        let n = checkpoint().cfg.n_layers;
        let one_stage = ExecutionPlan {
            model: "tiny".into(),
            cluster: "test".into(),
            stages: vec![StagePlan {
                device: 0,
                layer_start: 0,
                layer_end: n,
                bits: vec![Bitwidth::Fp16; n],
            }],
            microbatch: mb(),
            scheme: "LLM-PQ".into(),
            kv_bits: 16,
        };
        let err = DistStepEngine::over_channels(
            &checkpoint(),
            vec![plan(Bitwidth::Fp16), one_stage],
            Rounding::Deterministic,
            SEED,
            DistServeConfig::default(),
            None,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.contains("stages"), "{err}");
    }
}
