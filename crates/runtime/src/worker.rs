//! Stage workers: each owns a shard of decoder layers and the KV of every
//! in-flight sequence for those layers, and processes work items from the
//! previous stage asynchronously.
//!
//! A worker's KV is one [`PagedKvStore`] — the store the local serving
//! engine computes on, so both engines share one KV form: keys in
//! 16-position k-major blocks that attention reads in place. It holds
//! `n_seqs × ⌈max_seq / 16⌉` blocks with every sequence slot registered;
//! a slot grows block by block as its sequence is computed and
//! [`WorkerMsg::KvReset`] hands its blocks back. The arenas grow to the
//! highest block granted and the free list is LIFO, so resident memory
//! follows the blocks in use, not the capacity. A live swap moves KV through the
//! contiguous form ([`PagedKvStore::gather`] / [`PagedKvStore::append`]),
//! which is what travels as [`KvChunkMsg`] frames.
//!
//! Workers are supervised: they receive with a bounded timeout so they
//! can stamp a heartbeat even while idle, consult the shared
//! [`FaultInjector`] before every item, and
//! deduplicate items by their global `step` id so a duplicated channel
//! message cannot corrupt the KV caches. Protocol violations (e.g. a
//! sequence id outside the batch) are answered with a
//! [`WorkerMsg::Protocol`] reply that travels down the chain to the
//! master instead of panicking the thread.
//!
//! A worker has one shape wherever it runs — an in-process ring thread,
//! a TCP stage process, a simulated stage actor: [`WorkerCtx::new`]
//! builds it, and it counts its work in its stage's
//! [`StageRecorder`](crate::telemetry::StageRecorder) and nowhere else.

use crate::clock::Clock;
use crate::fault::{FaultAction, FaultInjector, Heartbeats};
use crate::kvpool::{KvPoolConfig, PagedKvStore};
use crate::migrate::{kv_to_chunks, CommitDecision, KvAssembler, KvChunkMsg, MigrationHost, WorkerSwap};
use crate::net::transport::{Transport, TransportRecvError, TransportSendError};
use crate::telemetry::{Span, Telemetry};
use llm_pq::StagePlan;
use llmpq_model::{forward_shard, KvCache, LayerWeights, Matrix, OutRows, Phase, RefConfig, KV_BLOCK};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Shared board where a stage records that it *lost a work item*
/// because its downstream channel disconnected mid-run. The master
/// engine consults it when an attempt fails, so a silently dropped item
/// surfaces as [`RuntimeError::StageDisconnected`](crate::engine::RuntimeError::StageDisconnected)
/// with the stage that dropped it, instead of a generic worker death.
pub type DisconnectBoard = Arc<Mutex<Vec<usize>>>;

/// Fresh, empty disconnect board.
pub fn disconnect_board() -> DisconnectBoard {
    Arc::new(Mutex::new(Vec::new()))
}

/// One unit of pipeline work: the hidden states of each sequence of a
/// micro-batch (prefill sends `t×h`, decode `1×h` per sequence).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItem {
    /// Globally unique, monotonically increasing id the master assigns
    /// per attempt; used to deduplicate duplicated channel messages.
    pub step: u64,
    /// Plan epoch this item belongs to. A worker that committed a live
    /// plan swap drops items from an older epoch instead of appending
    /// them to the wrong KV cache.
    pub epoch: u64,
    /// Micro-batch id (for bookkeeping/tracing).
    pub microbatch: usize,
    /// Generative phase of this item (tags telemetry spans and routes
    /// latency samples to the per-phase histograms).
    pub phase: Phase,
    /// Send timestamp, µs since the telemetry epoch (0 when telemetry is
    /// off); the receiving stage derives its queue-wait span from it.
    pub sent_us: u64,
    /// `(sequence id, hidden states)` pairs: every row of a chunk on the
    /// way through the ring, its last row alone in the last stage's echo.
    pub seqs: Vec<(usize, Matrix)>,
}

/// Messages between stages.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Process and forward.
    Work(WorkItem),
    /// Drain and exit.
    Shutdown,
    /// A protocol violation detected by a stage; forwarded unchanged to
    /// the master, where it surfaces as a `RuntimeError::Protocol`.
    Protocol(String),
    /// Live-swap phase 1 (master → ring): prepare this plan as `epoch`
    /// while the old plan keeps serving.
    PlanPropose {
        /// Epoch of the proposal.
        epoch: u64,
        /// JSON of the proposed `ExecutionPlan`.
        plan_json: String,
    },
    /// Stage acknowledgement riding the ring back to the master:
    /// prepared (`swapped == false`) or installed (`swapped == true`).
    PlanReady {
        /// Epoch being acknowledged.
        epoch: u64,
        /// Acknowledging stage.
        stage: u32,
        /// False = prepared, true = swapped.
        swapped: bool,
    },
    /// Live-swap phase 2 (master → ring, at a token boundary): install
    /// the prepared plan, shipping re-homed KV slices as [`KvChunk`]
    /// frames.
    ///
    /// [`KvChunk`]: WorkerMsg::KvChunk
    PlanCommit {
        /// Epoch being committed.
        epoch: u64,
    },
    /// Tear down the proposal for `epoch`; the old plan keeps serving.
    PlanAbort {
        /// Epoch being aborted.
        epoch: u64,
        /// Why the proposal died.
        reason: String,
    },
    /// One migrating KV fragment (commit window only).
    KvChunk(KvChunkMsg),
    /// Master → ring: return the KV blocks of sequence slot `seq` so the
    /// continuous-serving engine can reuse the slot for a new request.
    /// Forwarded around the ring; the master sinks the echo.
    KvReset {
        /// Worker-side sequence slot to clear.
        seq: usize,
    },
}

/// Everything a supervised stage worker needs besides its weights and
/// its link. Built by [`WorkerCtx::new`] wherever a stage runs; the two
/// `Option`s are the two attachments that exist for a reason.
#[derive(Clone)]
pub struct WorkerCtx {
    /// Pipeline stage index.
    pub stage: usize,
    /// Cluster device id hosting the stage (for device-loss injection).
    pub device: usize,
    /// Shape of the whole model: the layer forward's heads and ALiBi,
    /// the width of the rows on the wire, and `max_seq`, which with
    /// `n_seqs` sizes the stage's KV store. A stage whose shard ends at
    /// `n_layers` is the ring's last and echoes one row per sequence.
    pub model: RefConfig,
    /// Number of in-flight sequences (bounds sequence ids).
    pub n_seqs: usize,
    /// Fault injection, if this run is under test.
    pub injector: Option<Arc<FaultInjector>>,
    /// Board this worker stamps its liveness on. A ring whose master
    /// shares the process hands every stage the board it reads; a stage
    /// on its own (TCP process, simulated actor) stamps a private one
    /// and its liveness travels through [`Transport::beat`].
    pub heartbeats: Arc<Heartbeats>,
    /// Observability hub: this stage's recorder, the link counters, and
    /// — on a hub created to trace into — the lifecycle spans (see
    /// [`crate::telemetry`]).
    pub telemetry: Arc<Telemetry>,
    /// Bitwidth label of this stage's shard (e.g. `"int4,int8"`), tagged
    /// onto trace spans.
    pub bits: Arc<str>,
    /// Receive-timeout granularity: how often an idle worker wakes to
    /// heartbeat and check the abort flag. With bounded queues it is
    /// also the send-retry granularity under backpressure.
    pub tick: Duration,
    /// Where this worker notes a work item lost to a downstream
    /// disconnect.
    pub disconnects: DisconnectBoard,
    /// Time source for compute timing and injected sleeps: wall clock in
    /// production, virtual under [`crate::simnet`].
    pub clock: Arc<dyn Clock>,
    /// First global layer of this stage's shard (global↔local layer
    /// translation during KV handoff).
    pub layer_start: usize,
    /// Live-migration support: the checkpoint + quantizer settings this
    /// worker prepares proposed plans from, present only where a
    /// `PlanPropose` can arrive. `None` = plan-swap messages are refused
    /// with a typed `PlanAbort`.
    pub migration: Option<Arc<MigrationHost>>,
}

impl WorkerCtx {
    /// The worker of stage `stage` of a ring serving `plan` over a model
    /// of shape `model`: a private heartbeat board and disconnect board
    /// (a ring that reads them assigns its own), no fault injection, no
    /// migration host.
    pub fn new(
        model: &RefConfig,
        stage: usize,
        plan: &StagePlan,
        n_seqs: usize,
        tick: Duration,
        clock: Arc<dyn Clock>,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        let bits = plan.bits.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(",");
        WorkerCtx {
            stage,
            device: plan.device,
            model: *model,
            n_seqs,
            injector: None,
            heartbeats: Heartbeats::with_clock(stage + 1, clock.clone()),
            telemetry,
            bits: Arc::from(bits.as_str()),
            tick,
            disconnects: disconnect_board(),
            clock,
            layer_start: plan.layer_start,
            migration: None,
        }
    }

    /// A KV store for `n_layers` layers of this stage: room for `n_seqs`
    /// sequences of `max_seq` positions, every slot registered and empty.
    fn kv_store(&self, n_layers: usize) -> PagedKvStore {
        let cfg = KvPoolConfig { n_blocks: self.n_seqs * self.model.max_seq.div_ceil(KV_BLOCK), block_tokens: KV_BLOCK };
        let mut store = PagedKvStore::new(cfg, n_layers, self.model.hidden);
        for seq in 0..self.n_seqs as u64 {
            store.register(seq).expect("a fresh store registers every slot");
        }
        store
    }
}

/// Send `msg` downstream, honoring bounded-queue backpressure: a full
/// queue blocks in `tick`-sized slices, heartbeating between tries so a
/// backpressured (but healthy) stage is never mistaken for a hung one,
/// and bailing out if the attempt was aborted. Returns `false` when the
/// message could not be delivered. A *disconnected* downstream is
/// recorded on the ctx's [`DisconnectBoard`] when `note_drop` is set
/// (work items and protocol replies — real losses; shutdown forwards
/// during teardown are not).
fn send_downstream<T: Transport>(ctx: &WorkerCtx, out: &T, msg: WorkerMsg, note_drop: bool) -> bool {
    let mut msg = msg;
    loop {
        match out.send_msg(msg, ctx.tick) {
            Ok(()) => return true,
            Err(TransportSendError::Disconnected) => {
                if note_drop {
                    ctx.disconnects.lock().push(ctx.stage);
                }
                return false;
            }
            Err(TransportSendError::Timeout(m)) => {
                msg = m;
                ctx.heartbeats.beat(ctx.stage);
                out.beat();
                if ctx.injector.as_ref().is_some_and(|i| i.aborted()) {
                    return false;
                }
            }
        }
    }
}

/// What a committed live swap installed on a worker.
struct SwapInstall {
    weights: Vec<LayerWeights>,
    layer_start: usize,
    store: PagedKvStore,
}

/// Execute the commit window on a worker: ship KV slices of layers
/// leaving this stage downstream as bit-exact chunks, collect the
/// slices of layers arriving here (reassembled across fragmentation,
/// duplicates deduplicated), and hand back the target shard and its KV
/// store ready to install. `Err(())` means the attempt is lost
/// (disconnect, abort, deadline, a handoff that does not add up) — the
/// caller exits the worker and the supervisor recovers on the *target*
/// plan, which is authoritative once commit was sent.
fn execute_swap<T: Transport>(
    ctx: &WorkerCtx,
    link: &T,
    prepared: crate::migrate::PreparedPlan,
    cur_start: usize,
    store: &PagedKvStore,
) -> Result<SwapInstall, ()> {
    let epoch = prepared.epoch;
    let cur_end = cur_start + store.n_layers();
    let (new_start, new_end) = (prepared.layer_start, prepared.layer_end);
    let n_new = new_end - new_start;
    let mut new_caches: Vec<KvCache> =
        (0..ctx.n_seqs).map(|_| KvCache::new(n_new, ctx.model.hidden)).collect();
    // Kept layers move locally; leaving layers ship downstream, both
    // from the contiguous form of each slot.
    for (seq, new_cache) in new_caches.iter_mut().enumerate() {
        let mut cache = store.gather(seq as u64).expect("every slot is registered");
        for gl in cur_start..cur_end {
            let li = gl - cur_start;
            if (new_start..new_end).contains(&gl) {
                let nli = gl - new_start;
                new_cache.k[nli] = std::mem::take(&mut cache.k[li]);
                new_cache.v[nli] = std::mem::take(&mut cache.v[li]);
            } else {
                for c in kv_to_chunks(epoch, seq as u32, gl as u32, &cache.k[li], &cache.v[li]) {
                    if !send_downstream(ctx, link, WorkerMsg::KvChunk(c), true) {
                        return Err(());
                    }
                }
            }
        }
    }
    // Await the slices of layers arriving at this stage.
    let expected: Vec<(u32, u32)> = (0..ctx.n_seqs as u32)
        .flat_map(|seq| {
            (new_start..new_end)
                .filter(|gl| !(cur_start..cur_end).contains(gl))
                .map(move |gl| (seq, gl as u32))
        })
        .collect();
    let mut asm = KvAssembler::new(epoch, &expected);
    let host = ctx.migration.as_ref().expect("prepared implies a migration host");
    let deadline = ctx.clock.now() + host.commit_timeout;
    while !asm.done() {
        if ctx.injector.as_ref().is_some_and(|i| i.aborted()) || ctx.clock.now() > deadline {
            return Err(());
        }
        match link.recv_msg(ctx.tick) {
            Ok(WorkerMsg::KvChunk(c)) => {
                let mine = c.epoch == epoch
                    && (new_start..new_end).contains(&(c.layer as usize))
                    && !(cur_start..cur_end).contains(&(c.layer as usize));
                if !mine {
                    if c.epoch >= epoch {
                        // In transit to another stage: keep it moving.
                        if !send_downstream(ctx, link, WorkerMsg::KvChunk(c), true) {
                            return Err(());
                        }
                    }
                    continue; // stale epoch: drop
                }
                match asm.push(c) {
                    Ok(Some((seq, layer, k, v))) => {
                        let nli = layer as usize - new_start;
                        new_caches[seq as usize].k[nli] = k;
                        new_caches[seq as usize].v[nli] = v;
                    }
                    Ok(None) => {}
                    Err(reason) => return abort_handoff(ctx, link, epoch, reason),
                }
            }
            // Ring traffic keeps flowing through the commit window.
            Ok(m @ (WorkerMsg::PlanReady { .. }
            | WorkerMsg::PlanPropose { .. }
            | WorkerMsg::PlanCommit { .. }
            | WorkerMsg::KvReset { .. }
            | WorkerMsg::Protocol(_))) => {
                if !send_downstream(ctx, link, m, true) {
                    return Err(());
                }
            }
            Ok(m @ WorkerMsg::PlanAbort { .. }) => {
                // Post-commit abort: propagate, then fail the attempt —
                // KV already left this stage, rollback is impossible; the
                // supervisor restarts on the committed plan.
                send_downstream(ctx, link, m, true);
                return Err(());
            }
            Ok(WorkerMsg::Work(_)) => {
                // The pipeline is quiescent at the boundary; only
                // fault-injected duplicates can appear here. Drop them —
                // their step was already processed.
            }
            Ok(WorkerMsg::Shutdown) => {
                send_downstream(ctx, link, WorkerMsg::Shutdown, false);
                return Err(());
            }
            Err(TransportRecvError::Timeout) => {
                ctx.heartbeats.beat(ctx.stage);
                link.beat();
            }
            Err(TransportRecvError::Disconnected) => return Err(()),
        }
    }
    // Every slot's layers into the target shard's store.
    let mut new_store = ctx.kv_store(n_new);
    for (seq, cache) in new_caches.iter().enumerate() {
        // Every layer holds every position of the sequence, within the
        // store's room, or the handoff is corrupt.
        let rows: Vec<usize> = cache.k.iter().chain(&cache.v).map(|m| m.rows).collect();
        if rows.iter().any(|&n| n != cache.len()) || new_store.append(seq as u64, cache, 0).is_err() {
            let reason = format!("kv handoff of sequence {seq} does not fit the stage: K/V rows per layer {rows:?}");
            return abort_handoff(ctx, link, epoch, reason);
        }
    }
    Ok(SwapInstall { weights: prepared.weights, layer_start: new_start, store: new_store })
}

/// A corrupt handoff: typed abort toward the master, then fail the
/// attempt (commit already passed the point of no return).
fn abort_handoff<T: Transport>(ctx: &WorkerCtx, link: &T, epoch: u64, reason: String) -> Result<SwapInstall, ()> {
    let m = WorkerMsg::PlanAbort { epoch, reason: format!("stage {}: {reason}", ctx.stage) };
    send_downstream(ctx, link, m, true);
    Err(())
}

/// The supervised stage-worker loop, generic over the transport that
/// carries its messages — the same loop drives an in-process thread and
/// a stage process on the other end of a TCP link. It ends — upstream
/// disconnect, `Shutdown`, abort, an injected crash, a lost downstream
/// — by falling out of the loop; what it counted is in the hub.
pub fn run_worker_transport<T: Transport>(weights: &[LayerWeights], ctx: &WorkerCtx, link: &T) {
    // Every slot's KV, local layer indexing.
    let mut store = ctx.kv_store(weights.len());
    // Live-swap state: `owned` overlays the borrowed startup weights
    // once a swap installs a requantized shard.
    let mut swap = WorkerSwap::new();
    let mut owned: Option<Vec<LayerWeights>> = None;
    let mut layer_start = ctx.layer_start;
    // Work items this incarnation has taken: the `step` a fault plan
    // addresses (the recorder's count spans every attempt).
    let mut fault_step = 0usize;
    let mut slowdown = 1.0f64;
    let mut last_step: Option<u64> = None;
    let tel = &*ctx.telemetry;
    let rec = tel.stage(ctx.stage);
    let beat = || {
        ctx.heartbeats.beat(ctx.stage);
        link.beat();
    };
    let aborted = || ctx.injector.as_ref().is_some_and(|i| i.aborted());
    // Forward around the ring; a lost downstream is noted on the board.
    let forward = |m: WorkerMsg| send_downstream(ctx, link, m, true);
    beat();
    while !aborted() {
        let msg = match link.recv_msg(ctx.tick) {
            Ok(m) => m,
            Err(TransportRecvError::Timeout) => {
                beat();
                continue;
            }
            Err(TransportRecvError::Disconnected) => break,
        };
        beat();
        match msg {
            WorkerMsg::Shutdown => {
                // Teardown: a downstream that is already gone is not a
                // lost work item, so no disconnect note.
                send_downstream(ctx, link, WorkerMsg::Shutdown, false);
                break;
            }
            // Propagate toward the master (losing the reply would hide
            // the violation, so a disconnect is recorded); another
            // stage's acknowledgement riding to the master; a chunk in
            // transit to another stage outside a commit window (or a
            // stale duplicate the master will sink).
            m @ (WorkerMsg::Protocol(_) | WorkerMsg::PlanReady { .. } | WorkerMsg::KvChunk(_)) => {
                if !forward(m) {
                    break;
                }
            }
            WorkerMsg::PlanPropose { epoch, plan_json } => {
                // Ring rule: forward first so every stage prepares in
                // parallel, then prepare locally.
                if !forward(WorkerMsg::PlanPropose { epoch, plan_json: plan_json.clone() }) {
                    break;
                }
                let reply = match &ctx.migration {
                    Some(host) => match swap.on_propose(host, ctx.stage, epoch, &plan_json) {
                        Ok(true) => {
                            Some(WorkerMsg::PlanReady { epoch, stage: ctx.stage as u32, swapped: false })
                        }
                        Ok(false) => None, // duplicate / stale, already handled
                        Err(reason) => Some(WorkerMsg::PlanAbort { epoch, reason }),
                    },
                    None => Some(WorkerMsg::PlanAbort {
                        epoch,
                        reason: format!("stage {}: no migration host", ctx.stage),
                    }),
                };
                if reply.is_some_and(|m| !forward(m)) {
                    break;
                }
            }
            WorkerMsg::PlanAbort { epoch, reason } => {
                if !forward(WorkerMsg::PlanAbort { epoch, reason }) {
                    break;
                }
                swap.on_abort(epoch); // old plan keeps serving untouched
            }
            WorkerMsg::PlanCommit { epoch } => {
                // Forward first: downstream stages must enter their
                // commit windows before this stage's KV chunks arrive.
                if !forward(WorkerMsg::PlanCommit { epoch }) {
                    break;
                }
                let reply = match swap.decide_commit(epoch) {
                    CommitDecision::Ignore => continue,
                    CommitDecision::Abort(reason) => WorkerMsg::PlanAbort {
                        epoch,
                        reason: format!("stage {}: {reason}", ctx.stage),
                    },
                    CommitDecision::Swap => {
                        let prepared = swap.prepared.take().expect("decide_commit checked");
                        // A post-commit failure loses the attempt; the
                        // supervisor restarts on the committed plan.
                        let Ok(install) = execute_swap(ctx, link, prepared, layer_start, &store) else {
                            break;
                        };
                        layer_start = install.layer_start;
                        owned = Some(install.weights);
                        store = install.store;
                        swap.active_epoch = epoch;
                        WorkerMsg::PlanReady { epoch, stage: ctx.stage as u32, swapped: true }
                    }
                };
                if !forward(reply) {
                    break;
                }
            }
            WorkerMsg::KvReset { seq } => {
                // Sequence retired by the serving engine: return its
                // blocks so the next request reusing the slot starts from
                // empty KV.
                if seq < ctx.n_seqs {
                    store.release(seq as u64);
                    store.register(seq as u64).expect("a released slot registers again");
                }
                if !forward(WorkerMsg::KvReset { seq }) {
                    break;
                }
            }
            WorkerMsg::Work(mut item) => {
                if let Some(r) = rec {
                    r.on_dequeue();
                }
                if item.epoch < swap.active_epoch {
                    // A straggler from before (or duplicate racing past) a
                    // committed swap: its activations were computed against
                    // the old plan — touching the new caches would corrupt
                    // them.
                    continue;
                }
                // A *higher* epoch means this worker was (re)started into a
                // pipeline whose plan already committed swaps — the
                // lock-step commit barrier guarantees no old-epoch work can
                // follow it, so adopting is safe.
                swap.active_epoch = item.epoch;
                if last_step == Some(item.step) {
                    // Duplicated channel message: already processed.
                    continue;
                }
                let violation = item.seqs.iter().find_map(|(seq, x)| {
                    if *seq >= ctx.n_seqs {
                        Some(format!("sequence id {seq} out of range (batch has {})", ctx.n_seqs))
                    } else if x.rows == 0 || x.cols != ctx.model.hidden {
                        Some(format!(
                            "sequence id {seq} carries {}x{} hidden states, not rows of width {}",
                            x.rows, x.cols, ctx.model.hidden
                        ))
                    } else {
                        None
                    }
                });
                if let Some(v) = violation {
                    if !forward(WorkerMsg::Protocol(format!("stage {}: {v}", ctx.stage))) {
                        break;
                    }
                    continue;
                }
                let mut duplicate = false;
                match ctx
                    .injector
                    .as_ref()
                    .map_or(FaultAction::None, |i| i.on_item(ctx.stage, ctx.device, fault_step))
                {
                    // Simulated crash: drop channels without draining.
                    FaultAction::Crash => break,
                    FaultAction::Hang => {
                        // Wedged, not dead: stop heartbeating and stop
                        // reading, but keep the channels open so the
                        // failure is invisible to disconnect detection.
                        while !aborted() {
                            ctx.clock.sleep(Duration::from_micros(200));
                        }
                        break;
                    }
                    FaultAction::Slowdown(f) => slowdown = f,
                    FaultAction::Drop => continue,
                    FaultAction::Duplicate => duplicate = true,
                    FaultAction::None => {}
                }
                last_step = Some(item.step);
                fault_step += 1;
                let (phase, step, microbatch) = (item.phase, item.step, item.microbatch);
                // Spans exist only on a hub created to trace into.
                let traces = tel.traces();
                let span = |name: &'static str, ts_us: u64, end_us: u64| {
                    if traces {
                        tel.record_span(Span {
                            tid: ctx.stage + 1,
                            name,
                            phase,
                            ts_us,
                            dur_us: end_us.saturating_sub(ts_us),
                            step,
                            microbatch,
                            bits: ctx.bits.clone(),
                        });
                    }
                };
                // Queue-wait span: send stamp → dequeue.
                let start = tel.now_us();
                span("wait", item.sent_us.min(start), start);
                let t0 = ctx.clock.now();
                let active: &[LayerWeights] = owned.as_deref().unwrap_or(weights);
                let mut outgrown = None;
                for (seq, x) in item.seqs.iter_mut() {
                    // The chain grows first: a refusal computes nothing.
                    let Ok(mut kv) = store.extend_seq(*seq as u64, x.rows) else {
                        outgrown = Some(*seq);
                        break;
                    };
                    // If this shard ends the model (the boundary moves with
                    // every live swap), only the row the master samples.
                    *x = forward_shard(&ctx.model, active, layer_start, std::mem::take(x), &mut kv, OutRows::Last);
                }
                if let Some(seq) = outgrown {
                    let report = WorkerMsg::Protocol(format!(
                        "stage {}: sequence id {seq} needs more KV than {} sequences of {} positions",
                        ctx.stage, ctx.n_seqs, ctx.model.max_seq
                    ));
                    if !forward(report) {
                        break;
                    }
                    continue;
                }
                if slowdown > 1.0 {
                    // Straggler injection: pad compute to factor × real.
                    let elapsed = ctx.clock.now().saturating_sub(t0);
                    ctx.clock.sleep(elapsed.mul_f64(slowdown - 1.0));
                }
                let sent = tel.now_us();
                if let Some(r) = rec {
                    r.on_compute(phase, sent.saturating_sub(start), item.seqs.len());
                    // KV occupancy: cached positions summed over every
                    // sequence × local layers.
                    let pool = store.pool();
                    let positions: usize = (0..ctx.n_seqs as u64).filter_map(|s| pool.tokens_of(s)).sum();
                    r.set_kv_entries((positions * store.n_layers()) as u64);
                }
                span("compute", start, sent);
                beat();
                if traces {
                    // Restamp so the next stage's wait span starts here.
                    item.sent_us = sent;
                }
                if duplicate && !forward(WorkerMsg::Work(item.clone())) {
                    break;
                }
                if !forward(WorkerMsg::Work(item)) {
                    break; // downstream gone; drop recorded on the board
                }
                span("send", sent, tel.now_us());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::real_clock;
    use crate::fault::FaultPlan;
    use crate::net::transport::ChannelTransport;
    use crossbeam::channel::{unbounded, Receiver, Sender};
    use llmpq_model::{forward_layer, RefModel};

    /// Stage 0 of `model`, one sequence slot, recording into `hub`.
    fn ctx_on(model: &RefModel, hub: Arc<Telemetry>) -> WorkerCtx {
        let stage = StagePlan { device: 0, layer_start: 0, layer_end: 1, bits: Vec::new() };
        WorkerCtx::new(&model.cfg, 0, &stage, 1, Duration::from_millis(5), real_clock(), hub)
    }

    /// The same on a hub of its own: no faults, nobody reading.
    fn plain_ctx(model: &RefModel) -> WorkerCtx {
        ctx_on(model, Telemetry::new(1))
    }

    /// Run `ctx`'s worker over a channel pair: inbound edge = link
    /// `stage`, outbound edge = link `stage + 1`, like a ring's.
    fn run_worker_ctx(
        weights: &[LayerWeights],
        ctx: &WorkerCtx,
        input: Receiver<WorkerMsg>,
        output: Sender<WorkerMsg>,
    ) {
        let link =
            ChannelTransport::new(input, output, ctx.telemetry.clone(), ctx.stage, ctx.stage + 1);
        run_worker_transport(weights, ctx, &link)
    }

    /// Run an unsupervised worker over a channel pair.
    fn run_worker(
        weights: &[LayerWeights],
        model: &RefModel,
        input: Receiver<WorkerMsg>,
        output: Sender<WorkerMsg>,
    ) {
        run_worker_ctx(weights, &plain_ctx(model), input, output)
    }

    fn item(step: u64, seqs: Vec<(usize, Matrix)>) -> WorkItem {
        WorkItem { step, epoch: 0, microbatch: 0, phase: Phase::Prefill, sent_us: 0, seqs }
    }

    /// Receive the next Work item or report the message that arrived
    /// instead — no panic paths in the happy-path tests.
    fn recv_work(rx: &Receiver<WorkerMsg>) -> Result<WorkItem, String> {
        match rx.recv() {
            Ok(WorkerMsg::Work(i)) => Ok(i),
            Ok(WorkerMsg::Protocol(e)) => Err(format!("protocol error: {e}")),
            Ok(WorkerMsg::Shutdown) => Err("premature shutdown".into()),
            Ok(other) => Err(format!("unexpected message: {other:?}")),
            Err(_) => Err("disconnected".into()),
        }
    }

    #[test]
    fn worker_forwards_transformed_hidden_states() {
        let model = RefModel::new(RefConfig::tiny());
        let (tx_in, rx_in) = unbounded();
        let (tx_out, rx_out) = unbounded();
        let weights = vec![model.layers[0].clone()];
        let x = model.embed_tokens(&[1, 2, 3], 0);
        tx_in.send(WorkerMsg::Work(item(0, vec![(0, x.clone())]))).unwrap();
        tx_in.send(WorkerMsg::Shutdown).unwrap();
        run_worker(&weights, &model, rx_in, tx_out);

        let got = recv_work(&rx_out).expect("work item");
        // Must equal a direct single-layer forward.
        let mut cache = llmpq_model::KvCache::new(1, model.cfg.hidden);
        let want = forward_layer(&model.cfg, &weights[0], 0, &x, &mut cache, OutRows::All, None);
        assert_eq!(got.seqs[0].1, want);
        assert!(matches!(rx_out.recv().unwrap(), WorkerMsg::Shutdown));
    }

    #[test]
    fn a_ring_made_hub_counts_every_item_and_keeps_no_span() {
        // A long-lived stage on the hub a ring makes for itself: the
        // counters see all of the work, and the one unbounded part of a
        // hub — the span list nobody could export — stays empty.
        let model = RefModel::new(RefConfig::tiny());
        let weights = vec![model.layers[0].clone()];
        let (tx_in, rx_in) = unbounded();
        let (tx_out, rx_out) = unbounded();
        let n = 1_000u64;
        for step in 0..n {
            let mut it = item(step, vec![(0, model.embed_tokens(&[1], 0))]);
            it.phase = if step % 2 == 0 { Phase::Prefill } else { Phase::Decode };
            tx_in.send(WorkerMsg::Work(it)).unwrap();
            // Keep the one slot's cache short: the point is the count.
            tx_in.send(WorkerMsg::KvReset { seq: 0 }).unwrap();
        }
        tx_in.send(WorkerMsg::Shutdown).unwrap();
        let hub = Telemetry::counters_only(1, real_clock());
        run_worker_ctx(&weights, &ctx_on(&model, hub.clone()), rx_in, tx_out);
        let forwarded = std::iter::from_fn(|| rx_out.try_recv().ok())
            .filter(|m| matches!(m, WorkerMsg::Work(_)))
            .count();
        assert_eq!(forwarded as u64, n);
        let rec = hub.stage(0).unwrap();
        assert_eq!((rec.items(), rec.seq_forwards()), (n, n));
        assert_eq!(rec.prefill_latency.count() + rec.decode_latency.count(), n);
        assert_eq!(rec.snapshot().items, n as usize);
        assert!(hub.spans().is_empty(), "a counters-only hub must not grow");
        // The same worker on a hub created to trace into does record.
        let traced = Telemetry::new(1);
        let (tx_in, rx_in) = unbounded();
        let (tx_out, _rx_out) = unbounded();
        tx_in.send(WorkerMsg::Work(item(0, vec![(0, model.embed_tokens(&[1], 0))]))).unwrap();
        tx_in.send(WorkerMsg::Shutdown).unwrap();
        run_worker_ctx(&weights, &ctx_on(&model, traced.clone()), rx_in, tx_out);
        let names: Vec<&str> = traced.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["wait", "compute", "send"]);
    }

    #[test]
    fn worker_keeps_kv_state_across_items() {
        // Two sequential decode items for the same sequence must attend
        // to the accumulated cache — outputs differ from a fresh cache.
        let model = RefModel::new(RefConfig::tiny());
        let weights = vec![model.layers[0].clone()];
        let (tx_in, rx_in) = unbounded();
        let (tx_out, rx_out) = unbounded();
        let x1 = model.embed_tokens(&[5], 0);
        let x2 = model.embed_tokens(&[9], 1);
        tx_in.send(WorkerMsg::Work(item(0, vec![(0, x1)]))).unwrap();
        tx_in.send(WorkerMsg::Work(item(1, vec![(0, x2.clone())]))).unwrap();
        tx_in.send(WorkerMsg::Shutdown).unwrap();
        run_worker(&weights, &model, rx_in, tx_out);
        let _first = recv_work(&rx_out).expect("first item");
        let second = recv_work(&rx_out).expect("second item").seqs[0].1.clone();
        // Fresh-cache forward of x2 alone gives a different answer.
        let mut fresh = llmpq_model::KvCache::new(1, model.cfg.hidden);
        let lone = forward_layer(&model.cfg, &weights[0], 0, &x2, &mut fresh, OutRows::All, None);
        assert_ne!(second, lone, "cache state must influence decode");
    }

    #[test]
    fn injected_crash_drops_channel() {
        let model = RefModel::new(RefConfig::tiny());
        let weights = vec![model.layers[0].clone()];
        let (tx_in, rx_in) = unbounded();
        let (tx_out, rx_out) = unbounded();
        let x = model.embed_tokens(&[1], 0);
        tx_in.send(WorkerMsg::Work(item(0, vec![(0, x)]))).unwrap();
        let mut ctx = plain_ctx(&model);
        ctx.injector = Some(crate::fault::FaultInjector::new(&FaultPlan::crash(0, 0)));
        run_worker_ctx(&weights, &ctx, rx_in, tx_out);
        // Worker died before processing: output channel disconnects
        // without delivering work.
        assert!(rx_out.recv().is_err());
    }

    #[test]
    fn duplicate_deliveries_are_deduplicated() {
        // The same step id twice: the second copy must be skipped, not
        // re-run through the KV cache.
        let model = RefModel::new(RefConfig::tiny());
        let weights = vec![model.layers[0].clone()];
        let (tx_in, rx_in) = unbounded();
        let (tx_out, rx_out) = unbounded();
        let x1 = model.embed_tokens(&[5], 0);
        let x2 = model.embed_tokens(&[9], 1);
        tx_in.send(WorkerMsg::Work(item(0, vec![(0, x1.clone())]))).unwrap();
        tx_in.send(WorkerMsg::Work(item(0, vec![(0, x1)]))).unwrap();
        tx_in.send(WorkerMsg::Work(item(1, vec![(0, x2)]))).unwrap();
        tx_in.send(WorkerMsg::Shutdown).unwrap();
        run_worker(&weights, &model, rx_in, tx_out);
        let mut works = 0;
        while let Ok(msg) = rx_out.recv() {
            match msg {
                WorkerMsg::Work(_) => works += 1,
                WorkerMsg::Shutdown => break,
                WorkerMsg::Protocol(e) => panic!("unexpected protocol error: {e}"),
                other => panic!("unexpected message: {other:?}"),
            }
        }
        assert_eq!(works, 2, "duplicate must be swallowed");
    }

    #[test]
    fn out_of_range_sequence_reports_protocol_error() {
        let model = RefModel::new(RefConfig::tiny());
        let weights = vec![model.layers[0].clone()];
        let (tx_in, rx_in) = unbounded();
        let (tx_out, rx_out) = unbounded();
        let x = model.embed_tokens(&[1], 0);
        // Sequence id 5 in a batch of 1: protocol violation.
        tx_in.send(WorkerMsg::Work(item(0, vec![(5, x)]))).unwrap();
        tx_in.send(WorkerMsg::Shutdown).unwrap();
        run_worker(&weights, &model, rx_in, tx_out);
        match rx_out.recv().unwrap() {
            WorkerMsg::Protocol(e) => assert!(e.contains("out of range"), "{e}"),
            other => panic!("violation must surface as a protocol reply, got {other:?}"),
        }
    }

    #[test]
    fn an_item_without_rows_of_the_models_width_reports_protocol_error() {
        // A zero-row or wrongly wide matrix (a TCP peer can send either)
        // is refused before anything touches the KV store.
        let model = RefModel::new(RefConfig::tiny());
        let weights = vec![model.layers[0].clone()];
        let h = model.cfg.hidden;
        for bad in [Matrix::zeros(0, h), Matrix::zeros(0, 0), Matrix::zeros(2, h + 1)] {
            let (tx_in, rx_in) = unbounded();
            let (tx_out, rx_out) = unbounded();
            tx_in.send(WorkerMsg::Work(item(0, vec![(0, bad.clone())]))).unwrap();
            tx_in.send(WorkerMsg::Work(item(1, vec![(0, model.embed_tokens(&[1], 0))]))).unwrap();
            tx_in.send(WorkerMsg::Shutdown).unwrap();
            run_worker(&weights, &model, rx_in, tx_out);
            match rx_out.recv().unwrap() {
                WorkerMsg::Protocol(e) => assert!(e.contains("hidden states"), "{e}"),
                other => panic!("a {}x{} item must surface as a protocol reply, got {other:?}", bad.rows, bad.cols),
            }
            let next = recv_work(&rx_out).expect("the next item is served");
            assert_eq!((next.seqs[0].1.rows, next.seqs[0].1.cols), (1, h));
        }
    }

    #[test]
    fn the_stage_that_ends_the_model_echoes_the_last_row_alone() {
        // Stage 1 of the two-layer tiny model: its echo of a 5-row
        // prefill is the last row of the full forward, bit for bit,
        // and its K/V are the full forward's (the decode after agrees).
        let model = RefModel::new(RefConfig::tiny());
        let weights = vec![model.layers[1].clone()];
        let plan = StagePlan { device: 1, layer_start: 1, layer_end: 2, bits: Vec::new() };
        let ctx = WorkerCtx::new(&model.cfg, 0, &plan, 1, Duration::from_millis(5), real_clock(), Telemetry::new(1));
        let (x, y) = (model.embed_tokens(&[1, 2, 3, 4, 5], 0), model.embed_tokens(&[6], 5));
        let (tx_in, rx_in) = unbounded();
        let (tx_out, rx_out) = unbounded();
        tx_in.send(WorkerMsg::Work(item(0, vec![(0, x.clone())]))).unwrap();
        tx_in.send(WorkerMsg::Work(item(1, vec![(0, y.clone())]))).unwrap();
        tx_in.send(WorkerMsg::Shutdown).unwrap();
        run_worker_ctx(&weights, &ctx, rx_in, tx_out);
        let mut cache = KvCache::new(1, model.cfg.hidden);
        let full = forward_layer(&model.cfg, &weights[0], 0, &x, &mut cache, OutRows::All, None);
        let next = forward_layer(&model.cfg, &weights[0], 0, &y, &mut cache, OutRows::All, None);
        for want in [Matrix::from_vec(1, model.cfg.hidden, full.row(4).to_vec()), next] {
            let got = recv_work(&rx_out).expect("echo").seqs.remove(0).1;
            let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!((got.rows, bits(&got)), (1, bits(&want)));
        }
    }

    #[test]
    fn a_sequence_outgrowing_the_store_reports_protocol_error() {
        // One slot of a 64-position model: the store holds 64 positions,
        // and a 65th is a violation, not a panic or a silent overwrite.
        let model = RefModel::new(RefConfig::tiny());
        let weights = vec![model.layers[0].clone()];
        let (tx_in, rx_in) = unbounded();
        let (tx_out, rx_out) = unbounded();
        let tokens: Vec<usize> = (0..64).collect();
        tx_in.send(WorkerMsg::Work(item(0, vec![(0, model.embed_tokens(&tokens, 0))]))).unwrap();
        tx_in.send(WorkerMsg::Work(item(1, vec![(0, model.embed_tokens(&[1], 0))]))).unwrap();
        tx_in.send(WorkerMsg::Shutdown).unwrap();
        run_worker(&weights, &model, rx_in, tx_out);
        recv_work(&rx_out).expect("64 positions fit");
        match rx_out.recv().unwrap() {
            WorkerMsg::Protocol(e) => assert!(e.contains("needs more KV"), "{e}"),
            other => panic!("an overflow must surface as a protocol reply, got {other:?}"),
        }
    }

    #[test]
    fn protocol_errors_propagate_downstream() {
        let model = RefModel::new(RefConfig::tiny());
        let weights = vec![model.layers[0].clone()];
        let (tx_in, rx_in) = unbounded();
        let (tx_out, rx_out) = unbounded();
        tx_in.send(WorkerMsg::Protocol("upstream failed".into())).unwrap();
        tx_in.send(WorkerMsg::Shutdown).unwrap();
        run_worker(&weights, &model, rx_in, tx_out);
        assert!(matches!(rx_out.recv().unwrap(), WorkerMsg::Protocol(e) if e == "upstream failed"));
    }
}
