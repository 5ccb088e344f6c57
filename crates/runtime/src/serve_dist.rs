//! Distributed continuous serving: a [`StepEngine`] that executes each
//! scheduler iteration through the multi-stage pipeline ring.
//!
//! [`DistStepEngine`] is the third implementation of the serving
//! engine trait, after the analytic
//! [`SimStepEngine`](crate::serve::SimStepEngine) and the local
//! [`ModelStepEngine`](crate::serve::ModelStepEngine): the master keeps
//! embedding, logits projection and sampling, while decoder layers run
//! on stage workers connected by a [`Transport`] ring — in-process
//! channels, real TCP processes, or the simulated network, all through
//! the same engine. The [`ContinuousScheduler`](crate::serve::ContinuousScheduler)
//! runs unchanged on top.
//!
//! Fault model: any ring failure (crash, hang past the op deadline,
//! wire disconnect, post-commit swap loss) marks the ring *down* and
//! surfaces as [`StepError::RingRestarted`] on the next engine call.
//! The scheduler reacts by requeueing every in-flight sequence for
//! recompute (the `recovered` conservation leg); the next call lazily
//! rebuilds the ring from the boot plan and — when the engine had
//! already committed a precision swap — replays the two-phase barrier
//! so the fresh ring resumes on the committed rung. Greedy decoding
//! makes the recompute bit-identical, so a crash is invisible in the
//! token stream.
//!
//! Precision rungs are full [`ExecutionPlan`]s: `set_rung` runs the
//! live-migration protocol (§14) between scheduler iterations — the
//! ring is quiescent there, so the propose/prepare/commit/swapped
//! barrier needs no token boundary bookkeeping.

use crate::clock::{real_clock, Clock};
use crate::engine::bits_label;
use crate::fault::{FaultInjector, FaultPlan};
use crate::kvpool::{KvPool, KvPoolConfig, KvPoolError};
use crate::loader::load_stage_weights;
use crate::migrate::MigrationHost;
use crate::net::transport::{Transport, TransportRecvError, TransportSendError};
use crate::serve::{IterCost, StepEngine, StepError};
use crate::worker::{run_worker_ctx, WorkItem, WorkerCtx, WorkerMsg};
use crossbeam::channel::{unbounded, Receiver, Sender};
use llm_pq::ExecutionPlan;
use llmpq_model::{argmax, Matrix, Phase, RefModel};
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
    /// Real-time deadline for one ring round-trip or barrier phase; an
    /// op exceeding it is treated as a lost ring (hung stage).
    pub op_timeout: Duration,
    /// Receive/retry granularity on the ring link.
    pub tick: Duration,
    /// Virtual stall charged per committed precision swap. The default
    /// (0) matches [`ModelStepEngine`](crate::serve::ModelStepEngine),
    /// keeping the virtual timelines of a local and a distributed run
    /// identical — the token-equality tests rely on that.
    pub swap_stall_s: f64,
}

impl Default for DistServeConfig {
    fn default() -> Self {
        Self {
            n_slots: 32,
            pool: KvPoolConfig::default(),
            max_restarts: 4,
            op_timeout: Duration::from_secs(10),
            tick: Duration::from_millis(2),
            swap_stall_s: 0.0,
        }
    }
}

/// A pipeline-ring backend the engine can (re)dial: per attempt it
/// hands out a fresh master-side [`Transport`] whose far end is stage
/// 0 and whose receive side is the last stage. Implementations:
/// [`ChannelRing`] (in-process threads) and the TCP stage ring in
/// [`crate::net::dist`].
pub trait ServingRing: Send {
    /// Establish attempt `attempt` and return the master link. Stages
    /// always boot on the *boot* plan; the engine replays committed
    /// swaps on top.
    fn dial(&mut self, attempt: usize) -> Result<Box<dyn Transport + Send>, String>;
    /// Tear down the current attempt (un-wedge hung workers, join or
    /// disown them). Called after the master link is dropped; must be
    /// idempotent.
    fn teardown(&mut self);
    /// Number of pipeline stages in the ring.
    fn n_stages(&self) -> usize;
}

/// In-process ring: one OS thread per stage over crossbeam channels,
/// boot-plan weights quantized once and shared across attempts. The
/// serving analog of [`run_attempt`](crate::engine)'s channel chain,
/// with a [`MigrationHost`] on every worker so live swaps work.
pub struct ChannelRing {
    stage_weights: Vec<Arc<Vec<llmpq_model::LayerWeights>>>,
    boot: ExecutionPlan,
    n_heads: usize,
    hidden: usize,
    alibi: bool,
    n_slots: usize,
    tick: Duration,
    injector: Arc<FaultInjector>,
    host: Arc<MigrationHost>,
    clock: Arc<dyn Clock>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ChannelRing {
    /// Quantize the boot shards and prepare the ring (no threads run
    /// until the first [`dial`](ServingRing::dial)). `faults` attaches
    /// deterministic worker-fault injection for chaos tests.
    pub fn new(
        checkpoint: &RefModel,
        boot: ExecutionPlan,
        rounding: Rounding,
        seed: u64,
        n_slots: usize,
        tick: Duration,
        faults: Option<FaultPlan>,
    ) -> Result<Self, String> {
        boot.validate(checkpoint.cfg.n_layers)?;
        let stage_weights = boot
            .stages
            .iter()
            .map(|s| {
                let (w, _) = load_stage_weights(checkpoint, s.layer_start, &s.bits, rounding, seed);
                Arc::new(w)
            })
            .collect();
        Ok(Self {
            stage_weights,
            n_heads: checkpoint.cfg.n_heads,
            hidden: checkpoint.cfg.hidden,
            alibi: checkpoint.cfg.alibi,
            boot,
            n_slots,
            tick,
            injector: FaultInjector::new(&faults.unwrap_or_default()),
            host: Arc::new(MigrationHost::new(checkpoint.clone(), rounding, seed)),
            clock: real_clock(),
            threads: Vec::new(),
        })
    }

    /// The shared fault injector (tests flip its abort flag directly).
    pub fn injector(&self) -> Arc<FaultInjector> {
        self.injector.clone()
    }
}

impl ServingRing for ChannelRing {
    fn dial(&mut self, attempt: usize) -> Result<Box<dyn Transport + Send>, String> {
        self.teardown();
        self.injector.begin_attempt(attempt);
        let n_stages = self.boot.stages.len();
        let mut senders: Vec<Sender<WorkerMsg>> = Vec::new();
        let mut receivers: Vec<Receiver<WorkerMsg>> = Vec::new();
        for _ in 0..=n_stages {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let to_first = senders[0].clone();
        let from_last = receivers[n_stages].clone();
        for (i, weights) in self.stage_weights.iter().enumerate() {
            let weights = weights.clone();
            let rx = receivers[i].clone();
            let tx = senders[i + 1].clone();
            let ctx = WorkerCtx {
                stage: i,
                device: self.boot.stages[i].device,
                n_heads: self.n_heads,
                hidden: self.hidden,
                alibi: self.alibi,
                n_seqs: self.n_slots,
                injector: Some(self.injector.clone()),
                heartbeats: None,
                sink: None,
                telemetry: None,
                bits: bits_label(&self.boot.stages[i]),
                tick: self.tick,
                disconnects: None,
                clock: self.clock.clone(),
                layer_start: self.boot.stages[i].layer_start,
                migration: Some(self.host.clone()),
            };
            self.threads.push(std::thread::spawn(move || run_worker_ctx(&weights, &ctx, rx, tx)));
        }
        Ok(Box::new(crate::net::transport::ChannelTransport::new(from_last, to_first)))
    }

    fn teardown(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        // Un-wedge hung workers; live ones exit via channel disconnect
        // once the master link (dropped by the caller) cascades.
        self.injector.set_abort();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn n_stages(&self) -> usize {
        self.boot.stages.len()
    }
}

impl Drop for ChannelRing {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Any ring failure, collapsed: the engine's reaction is always the
/// same — mark the ring down and let the scheduler requeue.
struct RingLost(String);

/// Borrowed view over the master link for one ring operation.
struct RingIo<'a> {
    link: &'a dyn Transport,
    tick: Duration,
    clock: &'a dyn Clock,
    deadline: Duration,
}

impl<'a> RingIo<'a> {
    fn send(&self, msg: WorkerMsg) -> Result<(), RingLost> {
        let mut msg = msg;
        loop {
            match self.link.send_msg(msg, self.tick) {
                Ok(()) => return Ok(()),
                Err(TransportSendError::Disconnected) => {
                    return Err(RingLost("first stage unreachable".into()))
                }
                Err(TransportSendError::Timeout(m)) => {
                    msg = m;
                    if self.clock.expired(self.deadline) {
                        return Err(RingLost("ring send timed out".into()));
                    }
                }
            }
        }
    }

    /// One work-item round trip: send, then receive until the echo with
    /// the same step id returns from the last stage. Duplicates (older
    /// steps) and stale migration traffic are sunk; everything fatal is
    /// a lost ring.
    fn roundtrip(&self, item: WorkItem) -> Result<WorkItem, RingLost> {
        let step = item.step;
        self.send(WorkerMsg::Work(item))?;
        loop {
            match self.link.recv_msg(self.tick) {
                Ok(WorkerMsg::Work(it)) => {
                    if it.step == step {
                        return Ok(it);
                    }
                    // Older step: a fault-injected duplicate — drop.
                }
                Ok(WorkerMsg::Shutdown) => return Err(RingLost("premature shutdown".into())),
                Ok(WorkerMsg::Protocol(e)) => return Err(RingLost(format!("protocol: {e}"))),
                // The engine's own broadcasts wrapping the ring, or
                // stragglers from a dead swap epoch: sink.
                Ok(WorkerMsg::KvReset { .. })
                | Ok(WorkerMsg::PlanPropose { .. })
                | Ok(WorkerMsg::PlanCommit { .. })
                | Ok(WorkerMsg::PlanReady { .. })
                | Ok(WorkerMsg::PlanAbort { .. })
                | Ok(WorkerMsg::KvChunk(_)) => {}
                Err(TransportRecvError::Disconnected) => {
                    return Err(RingLost("last stage disconnected".into()))
                }
                Err(TransportRecvError::Timeout) => {
                    if self.clock.expired(self.deadline) {
                        return Err(RingLost(format!("step {step} never returned")));
                    }
                }
            }
        }
    }

    /// The two-phase live-swap barrier, run while the ring is quiescent
    /// between scheduler iterations: propose → every stage prepared →
    /// commit → every stage swapped (KV chunks re-forwarded around the
    /// ring). Any failure — prepare abort included — is a lost ring;
    /// the restart resumes directly on the target plan, which keeps the
    /// swap's effect on the token stream deterministic.
    fn swap_barrier(&self, epoch: u64, plan_json: String, n_stages: usize) -> Result<(), RingLost> {
        self.send(WorkerMsg::PlanPropose { epoch, plan_json })?;
        let mut prepared = vec![false; n_stages];
        let mut swapped = vec![false; n_stages];
        let mut committed = false;
        loop {
            if !committed && prepared.iter().all(|&p| p) {
                self.send(WorkerMsg::PlanCommit { epoch })?;
                committed = true;
            }
            if committed && swapped.iter().all(|&s| s) {
                return Ok(());
            }
            match self.link.recv_msg(self.tick) {
                Ok(WorkerMsg::PlanReady { epoch: e, stage, swapped: sw }) if e == epoch => {
                    let slot = stage as usize;
                    if slot < n_stages {
                        if sw {
                            swapped[slot] = true;
                        } else {
                            prepared[slot] = true;
                        }
                    }
                }
                Ok(WorkerMsg::PlanAbort { epoch: e, reason }) if e == epoch => {
                    // Pre-commit: tear the proposal down everywhere so no
                    // stage is left holding a prepared shard, then fail —
                    // the rebuilt ring boots onto the target plan anyway.
                    if !committed {
                        let _ = self.send(WorkerMsg::PlanAbort { epoch: e, reason: reason.clone() });
                    }
                    return Err(RingLost(format!("swap epoch {epoch} aborted: {reason}")));
                }
                Ok(WorkerMsg::KvChunk(c)) if c.epoch == epoch => {
                    // In transit between stages: keep it moving.
                    self.send(WorkerMsg::KvChunk(c))?;
                }
                Ok(WorkerMsg::Work(_)) => {
                    // Quiescent barrier: only fault-injected duplicates of
                    // already-consumed steps can appear — drop.
                }
                Ok(WorkerMsg::Shutdown) => return Err(RingLost("premature shutdown".into())),
                Ok(WorkerMsg::Protocol(e)) => return Err(RingLost(format!("protocol: {e}"))),
                Ok(_) => {} // echoes and stale-epoch traffic: sink
                Err(TransportRecvError::Disconnected) => {
                    return Err(RingLost("last stage disconnected".into()))
                }
                Err(TransportRecvError::Timeout) => {
                    if self.clock.expired(self.deadline) {
                        return Err(RingLost(format!("swap epoch {epoch} barrier timed out")));
                    }
                }
            }
        }
    }
}

/// The distributed serving engine (module docs above).
pub struct DistStepEngine {
    /// Embedding + logits live on the master, like the offline engine.
    master: RefModel,
    /// Rung ladder: full execution plans, same stage count, rung 0 is
    /// the boot plan every (re)started ring loads.
    plans: Vec<ExecutionPlan>,
    costs: Vec<IterCost>,
    pool: KvPool,
    ring: Box<dyn ServingRing>,
    link: Option<Box<dyn Transport + Send>>,
    /// slot → live sequence (index is the worker-side sequence id).
    slots: Vec<Option<u64>>,
    seq_slot: HashMap<u64, usize>,
    /// Mirror of each live sequence's cached positions (debug asserts).
    positions: HashMap<u64, usize>,
    rung: usize,
    epoch: u64,
    next_step: u64,
    attempt: usize,
    restarts: u64,
    ring_down: bool,
    started: bool,
    cfg: DistServeConfig,
    clock: Arc<dyn Clock>,
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
        let boot = plans.first().ok_or("need at least one plan in the rung ladder")?.clone();
        let ring =
            ChannelRing::new(checkpoint, boot, rounding, seed, cfg.n_slots, cfg.tick, faults)?;
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
            master: checkpoint.clone(),
            plans,
            costs,
            pool: KvPool::new(cfg.pool),
            ring,
            link: None,
            slots: vec![None; cfg.n_slots],
            seq_slot: HashMap::new(),
            positions: HashMap::new(),
            rung: 0,
            epoch: 0,
            next_step: 0,
            attempt: 0,
            restarts: 0,
            ring_down: false,
            started: false,
            cfg,
            clock: real_clock(),
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
        self.ring_down
    }

    fn io(&self) -> RingIo<'_> {
        RingIo {
            link: self.link.as_deref().expect("ensure_ring established the link"),
            tick: self.cfg.tick,
            clock: &*self.clock,
            deadline: self.clock.deadline(self.cfg.op_timeout),
        }
    }

    /// Lazily (re)establish the ring. Restart path: count against the
    /// budget, tear the old attempt down, dial fresh (boot plan), then
    /// replay the committed rung through the swap barrier so the new
    /// ring serves the precision the scheduler believes is active.
    fn ensure_ring(&mut self) -> Result<(), StepError> {
        if self.link.is_some() && !self.ring_down {
            return Ok(());
        }
        if self.started {
            if self.restarts >= self.cfg.max_restarts as u64 {
                return Err(StepError::Engine(format!(
                    "ring lost and restart budget ({}) exhausted",
                    self.cfg.max_restarts
                )));
            }
            self.restarts += 1;
            self.attempt += 1;
        }
        self.link = None; // EOF cascade tears the old attempt down
        self.ring.teardown();
        let link = self.ring.dial(self.attempt).map_err(StepError::Engine)?;
        self.link = Some(link);
        self.ring_down = false;
        self.started = true;
        self.epoch = 0;
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

    /// Run the live-swap barrier to `target`. On failure the ring is
    /// down and the *target* stays authoritative: the restart boots
    /// into it, exactly like the offline migration's post-commit rule.
    fn swap_to(&mut self, target: usize) -> Result<(), StepError> {
        let epoch = self.epoch + 1;
        let json = self.plans[target].to_json();
        let n_stages = self.ring.n_stages();
        let res = self.io().swap_barrier(epoch, json, n_stages);
        match res {
            Ok(()) => {
                self.epoch = epoch;
                Ok(())
            }
            Err(RingLost(why)) => {
                self.ring_down = true;
                Err(StepError::Engine(format!("swap to rung {target} failed: {why}")))
            }
        }
    }

    fn slot_of(&self, seq: u64) -> Result<usize, StepError> {
        self.seq_slot
            .get(&seq)
            .copied()
            .ok_or_else(|| StepError::Engine(format!("unregistered sequence {seq}")))
    }

    /// Send one item through the ring and sample the last row of the
    /// returned hidden states (greedy, same tie-breaking as the offline
    /// engine). A lost ring marks the engine down and surfaces as
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
        let res = self.io().roundtrip(item);
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
                Ok(Some(argmax(&self.master.last_row_logits(&h))))
            }
            Err(RingLost(_)) => {
                self.ring_down = true;
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
        let x = self.master.embed_tokens(tokens, pos0);
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
        let x = self.master.embed_tokens(&[last], pos);
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
        // work item of the slot's next occupant; the echo is sunk by
        // the next receive loop. A downed ring needs no reset — the
        // rebuilt attempt starts from empty caches anyway.
        if self.ring_down || self.link.is_none() {
            return;
        }
        if self.io().send(WorkerMsg::KvReset { seq: slot }).is_err() {
            self.ring_down = true;
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
        if self.link.is_some() && !self.ring_down {
            // Live swap; on failure the restart boots into the target.
            let _ = self.swap_to(target);
        }
        self.rung = target;
        self.cfg.swap_stall_s
    }

    fn rung(&self) -> usize {
        self.rung
    }

    fn max_seq(&self) -> usize {
        self.master.cfg.max_seq
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
        if let Some(link) = self.link.take() {
            // Best-effort graceful drain; EOF cascade finishes the job.
            let _ = link.send_msg(WorkerMsg::Shutdown, self.cfg.tick);
        }
        self.ring.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind};
    use crate::overload::poisson_requests;
    use crate::serve::{serve_continuous, ContinuousConfig, ModelStepEngine, RungSwap};
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

    #[test]
    fn channel_ring_matches_local_engine() {
        let reqs = trace(6);
        let local = serve_continuous(local_engine(), &reqs, cfg(), None).expect("local");
        let dist = serve_continuous(dist_engine(None), &reqs, cfg(), None).expect("dist");
        assert_eq!(finished_tokens(&local), finished_tokens(&dist));
        assert!(dist.stats.conserves(dist.pending_end), "conservation");
    }

    #[test]
    fn crash_recovers_bit_identically() {
        let reqs = trace(6);
        let local = serve_continuous(local_engine(), &reqs, cfg(), None).expect("local");
        let faults = FaultPlan {
            events: vec![FaultEvent { stage: 1, step: 5, attempt: Some(0), kind: FaultKind::Crash }],
        };
        let dist = serve_continuous(dist_engine(Some(faults)), &reqs, cfg(), None).expect("dist");
        assert_eq!(finished_tokens(&local), finished_tokens(&dist), "recompute is exact");
        assert!(dist.stats.recovered > 0, "restart requeued in-flight work");
        assert!(dist.stats.conserves(dist.pending_end), "conservation incl. recovered");
    }

    #[test]
    fn live_swap_matches_local_swap() {
        let reqs = trace(6);
        let mut c = cfg();
        c.swaps = vec![RungSwap { at_iteration: 3, rung: 1 }];
        let local = serve_continuous(local_engine(), &reqs, c.clone(), None).expect("local");
        let dist = serve_continuous(dist_engine(None), &reqs, c, None).expect("dist");
        assert_eq!(finished_tokens(&local), finished_tokens(&dist), "swap is transparent");
    }

    #[test]
    fn crash_then_swap_restores_committed_rung() {
        // Crash after the swap: the rebuilt ring must replay the barrier
        // and resume on rung 1, or tokens would diverge.
        let reqs = trace(6);
        let mut c = cfg();
        c.swaps = vec![RungSwap { at_iteration: 2, rung: 1 }];
        let local = serve_continuous(local_engine(), &reqs, c.clone(), None).expect("local");
        let faults = FaultPlan {
            events: vec![FaultEvent { stage: 0, step: 9, attempt: Some(0), kind: FaultKind::Crash }],
        };
        let dist = serve_continuous(dist_engine(Some(faults)), &reqs, c, None).expect("dist");
        assert_eq!(finished_tokens(&local), finished_tokens(&dist));
        assert!(dist.stats.conserves(dist.pending_end));
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
        eng.ring_down = true;
        let err = eng.decode_one(0, 1, 2).unwrap_err();
        // First failure surfaces as a restart; the retry exhausts the
        // zero budget.
        assert!(matches!(err, StepError::RingRestarted) || matches!(err, StepError::Engine(_)));
        let err = eng.decode_one(0, 1, 2).unwrap_err();
        assert!(matches!(err, StepError::Engine(ref m) if m.contains("budget")), "{err:?}");
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
