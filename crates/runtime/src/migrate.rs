//! Live plan migration: epoch-numbered two-phase plan swap with KV
//! handoff (ROADMAP item 2 — precision and partition as *runtime*
//! dimensions).
//!
//! The master proposes a new [`ExecutionPlan`] (different bitwidths
//! and/or layer ranges) over `PlanPropose`; every worker *prepares* the
//! target (requantizes its new shard through the on-the-fly loader)
//! while the old plan keeps serving, and answers `PlanReady`. At a token
//! boundary — the pipeline is empty between lock-step decode steps — the
//! master sends `PlanCommit`: workers move the KV rows of re-homed
//! layers over the existing transport as bit-exact [`KvChunkMsg`]
//! frames, install the prepared weights, and answer a second
//! `PlanReady` (swapped). Any failure or timeout *before* commit aborts
//! back to the old plan via `PlanAbort` with nothing destroyed; once
//! commit is sent the target plan is authoritative, so a mid-commit
//! crash is recovered by restarting *on the target plan* from the
//! lock-step checkpoint (re-prefill needs no KV transfer). Either way a
//! wedge is impossible: every path ends in "old plan serving", "new
//! plan serving", or a typed error after bounded restarts.
//!
//! Epoch rules: the run starts in epoch 0; each swap proposal carries
//! `active_epoch + 1`. A `PlanCommit` for anything other than the
//! prepared epoch is refused with a typed abort (stale-epoch
//! rejection); duplicated commits for the already-active epoch are
//! ignored. Work items are epoch-tagged so a post-swap worker drops
//! stragglers from the previous epoch instead of appending them to the
//! wrong KV cache.

use crate::engine::RuntimeError;
use llm_pq::ExecutionPlan;
use llmpq_model::{argmax, Matrix, RefModel};
use llmpq_quant::Rounding;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// Maximum KV rows per [`KvChunkMsg`] — keeps every chunk well under the
/// frame-size cap and exercises reassembly across fragmentation.
pub const KV_CHUNK_ROWS: usize = 16;

/// One requested live swap: at the boundary before generating token
/// index `at_token` (0-based, so `at_token ≥ 1` — token 0 comes out of
/// the prefill under the old plan), atomically switch to `plan`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapRequest {
    /// Token boundary of the swap (commit happens when every sequence
    /// has exactly this many generated tokens).
    pub at_token: usize,
    /// The target plan. Must keep the stage count and cover the same
    /// layers as the running plan.
    pub plan: ExecutionPlan,
}

/// What happened to one scheduled swap.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SwapReport {
    /// Epoch the swap ran as.
    pub epoch: u64,
    /// Token boundary it fired at.
    pub at_token: usize,
    /// Whether the swap committed (false = aborted back to the old
    /// plan).
    pub committed: bool,
    /// Abort reason, when not committed.
    pub reason: Option<String>,
    /// Commit-window latency: `PlanCommit` sent → last `PlanReady`
    /// (swapped) received, microseconds. 0 for aborted swaps.
    pub latency_us: u64,
    /// KV bytes shipped between stages during the commit window.
    pub kv_bytes: u64,
}

/// Everything a stage worker needs to *prepare* a proposed plan: the
/// full checkpoint (workers requantize their new shard locally through
/// the on-the-fly loader) and the quantizer settings of the run. It is
/// the one holder of dense decoder layers beside a running ring, so it
/// exists only where a `PlanPropose` can arrive, and shares the
/// checkpoint with whoever else in the process holds it.
#[derive(Debug, Clone)]
pub struct MigrationHost {
    /// The full-precision checkpoint.
    pub checkpoint: Arc<RefModel>,
    /// Rounding mode of the run (must match the master's).
    pub rounding: Rounding,
    /// Quantizer seed of the run.
    pub seed: u64,
    /// Safety-net deadline for the worker's commit window (the usual
    /// exit path on failure is upstream disconnect, not this timer).
    pub commit_timeout: Duration,
}

impl MigrationHost {
    /// Host with the default commit-window safety timeout.
    pub fn new(checkpoint: Arc<RefModel>, rounding: Rounding, seed: u64) -> Self {
        Self { checkpoint, rounding, seed, commit_timeout: Duration::from_secs(30) }
    }
}

/// One fragment of a `(sequence, layer)` KV slice in flight between
/// stages. K and V rows travel as raw IEEE-754 bit patterns (the wire
/// codec serializes matrices with `to_le_bytes`), so reassembly is
/// bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct KvChunkMsg {
    /// Epoch of the swap this chunk belongs to.
    pub epoch: u64,
    /// Sequence id of the slice.
    pub seq: u32,
    /// Global layer index of the slice.
    pub layer: u32,
    /// Fragment index, `0..n_chunks`.
    pub chunk: u32,
    /// Total fragments of this `(seq, layer)` slice.
    pub n_chunks: u32,
    /// Total cached rows of the slice (validated on completion).
    pub rows_total: u32,
    /// Key rows of this fragment.
    pub k: Matrix,
    /// Value rows of this fragment.
    pub v: Matrix,
}

/// Split one `(seq, layer)` KV slice into [`KV_CHUNK_ROWS`]-row
/// fragments. An empty cache still yields one (empty) chunk so the
/// receiver can complete the slice.
pub fn kv_to_chunks(epoch: u64, seq: u32, layer: u32, k: &Matrix, v: &Matrix) -> Vec<KvChunkMsg> {
    debug_assert_eq!(k.rows, v.rows);
    let rows = k.rows;
    let n_chunks = rows.div_ceil(KV_CHUNK_ROWS).max(1);
    let slice_rows = |m: &Matrix, lo: usize, hi: usize| Matrix {
        rows: hi - lo,
        cols: m.cols,
        data: m.data[lo * m.cols..hi * m.cols].to_vec(),
    };
    (0..n_chunks)
        .map(|c| {
            let lo = c * KV_CHUNK_ROWS;
            let hi = ((c + 1) * KV_CHUNK_ROWS).min(rows);
            KvChunkMsg {
                epoch,
                seq,
                layer,
                chunk: c as u32,
                n_chunks: n_chunks as u32,
                rows_total: rows as u32,
                k: slice_rows(k, lo, hi),
                v: slice_rows(v, lo, hi),
            }
        })
        .collect()
}

/// Per-slice reassembly state.
struct PartialSlice {
    n_chunks: u32,
    k: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

/// Reassembles [`KvChunkMsg`] fragments into complete `(seq, layer)` KV
/// slices, deduplicating repeated fragments (the transports may
/// duplicate frames under fault injection) and validating shape
/// consistency.
pub struct KvAssembler {
    epoch: u64,
    pending: BTreeMap<(u32, u32), PartialSlice>,
    completed: BTreeSet<(u32, u32)>,
    outstanding: usize,
}

impl KvAssembler {
    /// Assembler for `epoch` expecting one complete slice per
    /// `(seq, layer)` pair in `expected`.
    pub fn new(epoch: u64, expected: &[(u32, u32)]) -> Self {
        Self {
            epoch,
            pending: BTreeMap::new(),
            completed: BTreeSet::new(),
            outstanding: expected.len(),
        }
    }

    /// Whether every expected slice has been fully assembled.
    pub fn done(&self) -> bool {
        self.outstanding == 0
    }

    /// Feed one fragment. Returns the completed `(seq, layer, k, v)`
    /// slice when this fragment finishes it, `None` while incomplete or
    /// on a duplicate, and an error on any inconsistency (wrong epoch,
    /// fragment index out of range, shape disagreement).
    #[allow(clippy::type_complexity)]
    pub fn push(&mut self, c: KvChunkMsg) -> Result<Option<(u32, u32, Matrix, Matrix)>, String> {
        if c.epoch != self.epoch {
            return Err(format!("kv chunk for epoch {} in swap epoch {}", c.epoch, self.epoch));
        }
        if c.n_chunks == 0 || c.chunk >= c.n_chunks {
            return Err(format!("kv chunk {}/{} out of range", c.chunk, c.n_chunks));
        }
        if c.k.rows != c.v.rows || c.k.cols != c.v.cols {
            return Err("kv chunk k/v shape mismatch".into());
        }
        let key = (c.seq, c.layer);
        if self.completed.contains(&key) {
            // A fragment duplicated by the transport can arrive after
            // its slice already assembled; re-opening the slice here
            // would hand the caller the same KV twice.
            return Ok(None);
        }
        let slot = self.pending.entry(key).or_insert_with(|| PartialSlice {
            n_chunks: c.n_chunks,
            k: vec![None; c.n_chunks as usize],
            v: vec![None; c.n_chunks as usize],
        });
        if slot.n_chunks != c.n_chunks {
            return Err(format!(
                "kv chunk count disagreement for seq {} layer {}: {} vs {}",
                c.seq, c.layer, slot.n_chunks, c.n_chunks
            ));
        }
        let i = c.chunk as usize;
        if slot.k[i].is_some() {
            return Ok(None); // duplicated fragment
        }
        let rows_total = c.rows_total;
        slot.k[i] = Some(c.k);
        slot.v[i] = Some(c.v);
        if slot.k.iter().any(Option::is_none) {
            return Ok(None);
        }
        let slot = self.pending.remove(&key).expect("slice present");
        let glue = |parts: Vec<Option<Matrix>>| -> Matrix {
            let mut it = parts.into_iter().flatten();
            let mut out = it.next().expect("n_chunks >= 1");
            for p in it {
                out.data.extend_from_slice(&p.data);
                out.rows += p.rows;
            }
            out
        };
        let k = glue(slot.k);
        let v = glue(slot.v);
        if k.rows as u32 != rows_total {
            return Err(format!(
                "kv slice seq {} layer {}: reassembled {} rows, sender declared {}",
                key.0, key.1, k.rows, rows_total
            ));
        }
        self.completed.insert(key);
        self.outstanding = self.outstanding.saturating_sub(1);
        Ok(Some((key.0, key.1, k, v)))
    }
}

/// A worker's view of the swap protocol, factored out of the worker
/// loop so the epoch rules are unit-testable without a pipeline.
#[derive(Debug)]
pub struct WorkerSwap {
    /// Epoch currently serving.
    pub active_epoch: u64,
    /// Prepared-but-uncommitted target, if any.
    pub prepared: Option<PreparedPlan>,
}

/// A prepared (requantized, not yet installed) target plan shard.
#[derive(Debug)]
pub struct PreparedPlan {
    /// Epoch of the proposal.
    pub epoch: u64,
    /// First global layer of the target shard.
    pub layer_start: usize,
    /// One past the last global layer of the target shard.
    pub layer_end: usize,
    /// The requantized shard weights.
    pub weights: Vec<llmpq_model::LayerWeights>,
    /// The full target plan (for routing leaving KV slices).
    pub plan: ExecutionPlan,
}

/// What a worker must do with an incoming `PlanCommit`.
#[derive(Debug, PartialEq, Eq)]
pub enum CommitDecision {
    /// The prepared epoch matches: execute the swap.
    Swap,
    /// Duplicate commit for the already-active epoch: drop it.
    Ignore,
    /// Stale or unknown epoch: refuse with a typed `PlanAbort` carrying
    /// this reason.
    Abort(String),
}

impl WorkerSwap {
    /// Fresh state serving epoch 0.
    pub fn new() -> Self {
        Self { active_epoch: 0, prepared: None }
    }

    /// Handle a `PlanPropose`: requantize this stage's target shard
    /// through the on-the-fly loader. Returns `Ok(true)` when a
    /// `PlanReady` (prepared) should be sent, `Ok(false)` for an
    /// ignorable duplicate, `Err(reason)` when the proposal must be
    /// answered with `PlanAbort`.
    pub fn on_propose(
        &mut self,
        host: &MigrationHost,
        stage: usize,
        epoch: u64,
        plan_json: &str,
    ) -> Result<bool, String> {
        if epoch <= self.active_epoch {
            return Ok(false); // stale re-delivery of an older epoch
        }
        if self.prepared.as_ref().is_some_and(|p| p.epoch == epoch) {
            return Ok(false); // duplicated proposal, already prepared
        }
        let plan = ExecutionPlan::from_json(plan_json)
            .map_err(|e| format!("stage {stage}: bad proposed plan: {e}"))?;
        plan.validate(host.checkpoint.cfg.n_layers)
            .map_err(|e| format!("stage {stage}: proposed plan invalid: {e}"))?;
        let Some(sp) = plan.stages.get(stage) else {
            return Err(format!("stage {stage}: proposed plan has only {} stages", plan.stages.len()));
        };
        let (weights, _) = crate::loader::load_stage_weights(
            &host.checkpoint,
            sp.layer_start,
            &sp.bits,
            host.rounding,
            host.seed,
        );
        self.prepared = Some(PreparedPlan {
            epoch,
            layer_start: sp.layer_start,
            layer_end: sp.layer_end,
            weights,
            plan,
        });
        Ok(true)
    }

    /// Epoch rule for an incoming `PlanCommit`.
    pub fn decide_commit(&self, epoch: u64) -> CommitDecision {
        if epoch <= self.active_epoch {
            return CommitDecision::Ignore;
        }
        match &self.prepared {
            Some(p) if p.epoch == epoch => CommitDecision::Swap,
            Some(p) => CommitDecision::Abort(format!(
                "commit for epoch {epoch} but epoch {} is prepared",
                p.epoch
            )),
            None => CommitDecision::Abort(format!("commit for unprepared epoch {epoch}")),
        }
    }

    /// Handle a `PlanAbort`: discard matching prepared state. The old
    /// plan keeps serving untouched.
    pub fn on_abort(&mut self, epoch: u64) {
        if self.prepared.as_ref().is_some_and(|p| p.epoch == epoch) {
            self.prepared = None;
        }
    }
}

impl Default for WorkerSwap {
    fn default() -> Self {
        Self::new()
    }
}

/// A pending proposal on the master side.
#[derive(Debug)]
pub(crate) struct PendingSwap {
    pub(crate) epoch: u64,
    /// Index into the coordinator's schedule.
    pub(crate) idx: usize,
    /// Per-stage `PlanReady` (prepared) flags — flags, not a counter, so
    /// duplicated frames cannot trip the barrier early.
    pub(crate) prepared: Vec<bool>,
    /// Per-stage `PlanReady` (swapped) flags.
    pub(crate) swapped: Vec<bool>,
    /// Whether `PlanCommit` went out — the point of no return: from here
    /// the target plan is authoritative.
    pub(crate) commit_sent: bool,
    /// An abort reported by a worker before commit.
    pub(crate) abort: Option<String>,
    /// KV bytes forwarded during the commit window.
    pub(crate) kv_bytes: u64,
    /// Commit-send timestamp (µs on the run's clock).
    pub(crate) commit_at_us: u64,
}

/// Master-side swap state, shared across supervised attempts so a
/// mid-migration crash restarts on the correct (authoritative) plan.
#[derive(Debug)]
pub struct MigrationCoordinator {
    /// Scheduled swaps, ascending `at_token`.
    pub schedule: Vec<SwapRequest>,
    /// Index of the next swap not yet resolved.
    pub next: usize,
    /// Epoch currently serving.
    pub active_epoch: u64,
    pub(crate) pending: Option<PendingSwap>,
    /// Resolved swaps, in order.
    pub reports: Vec<SwapReport>,
    /// The last committed target plan — authoritative for restarts.
    pub committed_plan: Option<ExecutionPlan>,
    /// How long the master waits at the boundary for every stage's
    /// prepared `PlanReady` before aborting back to the old plan.
    pub prepare_timeout: Duration,
    /// Commit-window deadline; expiring it fails the attempt (the
    /// supervisor then restarts on the target plan).
    pub commit_timeout: Duration,
    /// Stage count of the pipeline.
    pub n_stages: usize,
    /// Epochs whose abort was already rebroadcast (the master is the
    /// ring's sink: worker aborts circulate to it exactly once and it
    /// re-emits them downstream exactly once).
    pub(crate) abort_broadcast: Vec<u64>,
}

impl MigrationCoordinator {
    /// Coordinator over `schedule` for an `n_stages` pipeline.
    pub fn new(schedule: Vec<SwapRequest>, n_stages: usize) -> Self {
        let mut schedule = schedule;
        schedule.sort_by_key(|s| s.at_token);
        Self {
            schedule,
            next: 0,
            active_epoch: 0,
            pending: None,
            reports: Vec::new(),
            committed_plan: None,
            prepare_timeout: Duration::from_secs(10),
            commit_timeout: Duration::from_secs(10),
            n_stages,
            abort_broadcast: Vec::new(),
        }
    }

    /// The plan an attempt must run: the last committed target if any,
    /// else `base`.
    pub fn attempt_plan<'a>(&'a self, base: &'a ExecutionPlan) -> &'a ExecutionPlan {
        self.committed_plan.as_ref().unwrap_or(base)
    }

    /// Reset per-attempt transient state. A proposal that never reached
    /// commit is retried from scratch (the workers' prepared state died
    /// with the attempt); a committed-but-unfinished swap is resolved as
    /// committed — the restart loads the target plan directly, so the
    /// swap completes via re-prefill rather than KV handoff.
    pub fn begin_attempt(&mut self) {
        if let Some(p) = self.pending.take() {
            if p.commit_sent {
                self.resolve_committed(p, 0);
            }
            // else: retry the proposal next boundary.
        }
    }

    /// Whether a swap boundary is due at `done` generated tokens.
    pub fn swap_due(&self, done: usize) -> bool {
        self.pending.is_none()
            && self.next < self.schedule.len()
            && done >= self.schedule[self.next].at_token
    }

    /// Open the next proposal (if none is pending and one is scheduled),
    /// returning `(epoch, plan_json)` to send as `PlanPropose`.
    pub fn open_proposal(&mut self) -> Option<(u64, String)> {
        if self.pending.is_some() || self.next >= self.schedule.len() {
            return None;
        }
        let epoch = self.active_epoch + 1;
        let json = self.schedule[self.next].plan.to_json();
        self.pending = Some(PendingSwap {
            epoch,
            idx: self.next,
            prepared: vec![false; self.n_stages],
            swapped: vec![false; self.n_stages],
            commit_sent: false,
            abort: None,
            kv_bytes: 0,
            commit_at_us: 0,
        });
        Some((epoch, json))
    }

    /// Record a `PlanReady`.
    pub fn on_ready(&mut self, epoch: u64, stage: u32, swapped: bool) {
        if let Some(p) = &mut self.pending {
            if p.epoch == epoch && (stage as usize) < p.prepared.len() {
                if swapped {
                    p.swapped[stage as usize] = true;
                } else {
                    p.prepared[stage as usize] = true;
                }
            }
        }
    }

    /// Record a worker `PlanAbort`. Returns `true` when this abort kills
    /// a *committed* swap — the attempt must fail (and restart on the
    /// target plan); pre-commit aborts just cancel the proposal.
    #[must_use]
    pub fn on_worker_abort(&mut self, epoch: u64, reason: &str) -> bool {
        match &mut self.pending {
            Some(p) if p.epoch == epoch => {
                if p.commit_sent {
                    return true;
                }
                p.abort = Some(reason.to_string());
                false
            }
            _ => false,
        }
    }

    /// Whether the pending proposal was aborted by a worker.
    pub fn pending_abort(&self) -> Option<String> {
        self.pending.as_ref().and_then(|p| p.abort.clone())
    }

    /// Whether every stage sent its prepared `PlanReady`.
    pub fn all_prepared(&self) -> bool {
        self.pending.as_ref().is_some_and(|p| p.prepared.iter().all(|&b| b))
    }

    /// Whether every stage sent its swapped `PlanReady`.
    pub fn all_swapped(&self) -> bool {
        self.pending.as_ref().is_some_and(|p| p.swapped.iter().all(|&b| b))
    }

    /// Mark the point of no return (`PlanCommit` sent at `now_us`).
    pub fn mark_commit_sent(&mut self, now_us: u64) {
        if let Some(p) = &mut self.pending {
            p.commit_sent = true;
            p.commit_at_us = now_us;
        }
    }

    /// Account KV bytes forwarded through the master during the commit
    /// window.
    pub fn add_kv_bytes(&mut self, n: u64) {
        if let Some(p) = &mut self.pending {
            p.kv_bytes += n;
        }
    }

    /// Close a committed swap: the target plan becomes active (and
    /// authoritative for any later restart).
    pub fn finish_commit(&mut self, now_us: u64) -> Option<&SwapReport> {
        let p = self.pending.take()?;
        let latency = now_us.saturating_sub(p.commit_at_us);
        self.resolve_committed(p, latency);
        self.reports.last()
    }

    fn resolve_committed(&mut self, p: PendingSwap, latency_us: u64) {
        let req = &self.schedule[p.idx];
        self.reports.push(SwapReport {
            epoch: p.epoch,
            at_token: req.at_token,
            committed: true,
            reason: None,
            latency_us,
            kv_bytes: p.kv_bytes,
        });
        self.committed_plan = Some(req.plan.clone());
        self.active_epoch = p.epoch;
        self.next = p.idx + 1;
    }

    /// Abort the pending proposal back to the old plan (records the
    /// report; the caller broadcasts `PlanAbort`). Returns the epoch to
    /// broadcast.
    pub fn abort_pending(&mut self, reason: &str) -> Option<u64> {
        let p = self.pending.take()?;
        self.reports.push(SwapReport {
            epoch: p.epoch,
            at_token: self.schedule[p.idx].at_token,
            committed: false,
            reason: Some(reason.to_string()),
            latency_us: 0,
            kv_bytes: 0,
        });
        self.next = p.idx + 1;
        Some(p.epoch)
    }

    /// Whether an abort for `epoch` was already rebroadcast (ring
    /// dedup).
    pub fn abort_seen(&mut self, epoch: u64) -> bool {
        if self.abort_broadcast.contains(&epoch) {
            return true;
        }
        self.abort_broadcast.push(epoch);
        false
    }
}

// --- oracles ------------------------------------------------------------

/// Greedy generation under a *piecewise* model schedule, on one shared
/// KV cache: `segments` is an ascending list of `(from_token, model)` —
/// token index `t` is produced by the model of the segment containing
/// `t` (the first segment must start at 0 and produces the prefill).
///
/// This is the oracle for a committed live swap: a bitwidth swap keeps
/// the old-precision KV bit-exact (only weights change), and a
/// repartition moves KV rows bit-exactly, so the pipeline after a swap
/// behaves exactly like *continuing decode with the new model on the
/// old cache*.
///
/// `resume_at = Some(r)` models a post-commit restart at the lock-step
/// checkpoint `r`: from there the supervisor re-prefills under the
/// then-active model, so the remaining tail is that model's plain
/// greedy continuation of `prompt ++ tokens[..r]`.
pub fn hybrid_oracle_tokens(
    segments: &[(usize, &RefModel)],
    prompt: &[usize],
    n_generate: usize,
    resume_at: Option<usize>,
) -> Vec<usize> {
    assert!(!segments.is_empty() && segments[0].0 == 0, "first segment must start at token 0");
    let model_for =
        |t: usize| segments.iter().rev().find(|(s, _)| *s <= t).expect("segment for token").1;
    let (logits, mut cache) = segments[0].1.prefill(prompt);
    let mut out = vec![argmax(logits.row(logits.rows - 1))];
    while out.len() < n_generate {
        let t = out.len();
        if resume_at == Some(t) {
            let mut full = prompt.to_vec();
            full.extend_from_slice(&out);
            out.extend(model_for(t).generate(&full, n_generate - t, 0.0, 0).tokens);
            break;
        }
        let logits = model_for(t).decode_step(*out.last().expect("nonempty"), &mut cache);
        out.push(argmax(&logits));
    }
    out
}

/// Single-swap convenience over [`hybrid_oracle_tokens`]: tokens
/// `0..swap_at` under `old`, the rest under `new`.
pub fn swap_oracle_tokens(
    old: &RefModel,
    new: &RefModel,
    prompt: &[usize],
    swap_at: usize,
    resume_at: Option<usize>,
    n_generate: usize,
) -> Vec<usize> {
    hybrid_oracle_tokens(&[(0, old), (swap_at, new)], prompt, n_generate, resume_at)
}

// --- swap schedule validation -------------------------------------------

/// Validate a swap schedule against the base plan: same stage count and
/// layer coverage, `at_token ≥ 1` (token 0 is produced by the prefill
/// under the base plan), ascending boundaries.
pub fn validate_swaps(
    base: &ExecutionPlan,
    swaps: &[SwapRequest],
    n_layers: usize,
) -> Result<(), RuntimeError> {
    let mut last = 0usize;
    for (i, s) in swaps.iter().enumerate() {
        s.plan
            .validate(n_layers)
            .map_err(|e| RuntimeError::BadPlan(format!("swap {i} target: {e}")))?;
        if s.plan.stages.len() != base.stages.len() {
            return Err(RuntimeError::BadPlan(format!(
                "swap {i} target has {} stages, pipeline has {} (live swaps keep the stage count)",
                s.plan.stages.len(),
                base.stages.len()
            )));
        }
        if s.at_token == 0 {
            return Err(RuntimeError::BadPlan(format!("swap {i}: at_token must be ≥ 1")));
        }
        if s.at_token < last {
            return Err(RuntimeError::BadPlan(format!("swap {i}: boundaries must be ascending")));
        }
        last = s.at_token;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_model::RefConfig;
    use llmpq_quant::{quantize_model, BitAssignment, Bitwidth};

    #[test]
    fn kv_chunks_round_trip_across_fragmentation() {
        let rows = KV_CHUNK_ROWS * 2 + 3; // forces 3 fragments
        let cols = 4;
        let mk = |salt: u32| Matrix {
            rows,
            cols,
            data: (0..rows * cols).map(|i| (i as f32 + salt as f32) * 0.5 - 7.0).collect(),
        };
        let (k, v) = (mk(1), mk(2));
        let chunks = kv_to_chunks(3, 1, 5, &k, &v);
        assert_eq!(chunks.len(), 3);
        let mut asm = KvAssembler::new(3, &[(1, 5)]);
        let mut got = None;
        // Deliver out of order with a duplicate.
        for c in [chunks[2].clone(), chunks[0].clone(), chunks[0].clone(), chunks[1].clone()] {
            if let Some(done) = asm.push(c).expect("consistent chunks") {
                got = Some(done);
            }
        }
        let (seq, layer, k2, v2) = got.expect("slice completes");
        assert!(asm.done());
        assert_eq!((seq, layer), (1, 5));
        let bits = |m: &Matrix| m.data.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&k), bits(&k2), "bit-exact K");
        assert_eq!(bits(&v), bits(&v2), "bit-exact V");
    }

    #[test]
    fn empty_cache_ships_as_one_chunk() {
        let m = Matrix::zeros(0, 4);
        let chunks = kv_to_chunks(1, 0, 0, &m, &m);
        assert_eq!(chunks.len(), 1);
        let mut asm = KvAssembler::new(1, &[(0, 0)]);
        let done = asm.push(chunks[0].clone()).unwrap().expect("completes");
        assert_eq!(done.2.rows, 0);
        assert!(asm.done());
    }

    #[test]
    fn assembler_rejects_inconsistent_chunks() {
        let m = Matrix::zeros(2, 4);
        let mut c = kv_to_chunks(1, 0, 0, &m, &m).remove(0);
        let mut asm = KvAssembler::new(2, &[(0, 0)]);
        assert!(asm.push(c.clone()).is_err(), "wrong epoch");
        let mut asm = KvAssembler::new(1, &[(0, 0)]);
        c.chunk = 9;
        assert!(asm.push(c.clone()).is_err(), "fragment out of range");
        c.chunk = 0;
        c.rows_total = 99;
        assert!(asm.push(c).is_err(), "declared rows mismatch");
    }

    #[test]
    fn stale_epoch_commit_is_refused_with_typed_abort() {
        let mut ws = WorkerSwap::new();
        // Nothing prepared: any future-epoch commit is refused.
        assert!(matches!(ws.decide_commit(1), CommitDecision::Abort(_)));
        // A commit at or below the active epoch is a duplicate, not an
        // error.
        assert_eq!(ws.decide_commit(0), CommitDecision::Ignore);
        ws.active_epoch = 4;
        assert_eq!(ws.decide_commit(3), CommitDecision::Ignore);
        // Prepared epoch 5, commit for 6: typed refusal.
        ws.prepared = Some(PreparedPlan {
            epoch: 5,
            layer_start: 0,
            layer_end: 1,
            weights: Vec::new(),
            plan: ExecutionPlan {
                model: "t".into(),
                cluster: "c".into(),
                stages: Vec::new(),
                microbatch: llmpq_workload::MicrobatchPlan {
                    prefill_size: 1,
                    prefill_count: 1,
                    decode_size: 1,
                    decode_count: 1,
                },
                scheme: "LLM-PQ".into(),
                kv_bits: 16,
            },
        });
        assert!(matches!(ws.decide_commit(6), CommitDecision::Abort(_)));
        assert_eq!(ws.decide_commit(5), CommitDecision::Swap);
        // Abort discards the prepared plan; the old epoch keeps serving.
        ws.on_abort(5);
        assert!(ws.prepared.is_none());
        assert!(matches!(ws.decide_commit(5), CommitDecision::Abort(_)));
    }

    #[test]
    fn coordinator_ready_flags_resist_duplicates() {
        let plan = ExecutionPlan {
            model: "t".into(),
            cluster: "c".into(),
            stages: vec![llm_pq::StagePlan {
                device: 0,
                layer_start: 0,
                layer_end: 2,
                bits: vec![Bitwidth::Int8, Bitwidth::Int8],
            }],
            microbatch: llmpq_workload::MicrobatchPlan {
                prefill_size: 1,
                prefill_count: 1,
                decode_size: 1,
                decode_count: 1,
            },
            scheme: "LLM-PQ".into(),
            kv_bits: 16,
        };
        let mut c =
            MigrationCoordinator::new(vec![SwapRequest { at_token: 2, plan: plan.clone() }], 2);
        assert!(!c.swap_due(1));
        assert!(c.swap_due(2));
        let (epoch, _) = c.open_proposal().expect("proposal opens");
        assert_eq!(epoch, 1);
        c.on_ready(epoch, 0, false);
        c.on_ready(epoch, 0, false); // duplicated frame
        assert!(!c.all_prepared(), "one stage ready twice is not two stages ready");
        c.on_ready(epoch, 1, false);
        assert!(c.all_prepared());
        c.mark_commit_sent(100);
        c.on_ready(epoch, 0, true);
        c.on_ready(epoch, 1, true);
        assert!(c.all_swapped());
        let r = c.finish_commit(350).expect("commit resolves").clone();
        assert!(r.committed);
        assert_eq!(r.latency_us, 250);
        assert_eq!(c.active_epoch, 1);
        assert_eq!(c.attempt_plan(&plan), &plan);
    }

    #[test]
    fn pre_commit_crash_retries_and_post_commit_crash_keeps_target() {
        let plan_a = ExecutionPlan {
            model: "t".into(),
            cluster: "c".into(),
            stages: vec![llm_pq::StagePlan {
                device: 0,
                layer_start: 0,
                layer_end: 1,
                bits: vec![Bitwidth::Fp16],
            }],
            microbatch: llmpq_workload::MicrobatchPlan {
                prefill_size: 1,
                prefill_count: 1,
                decode_size: 1,
                decode_count: 1,
            },
            scheme: "LLM-PQ".into(),
            kv_bits: 16,
        };
        let mut plan_b = plan_a.clone();
        plan_b.stages[0].bits = vec![Bitwidth::Int4];
        let mut c =
            MigrationCoordinator::new(vec![SwapRequest { at_token: 1, plan: plan_b.clone() }], 1);
        c.open_proposal().unwrap();
        // Crash before commit: the proposal is dropped and retried.
        c.begin_attempt();
        assert!(c.committed_plan.is_none());
        assert_eq!(c.attempt_plan(&plan_a), &plan_a);
        assert!(c.swap_due(1), "swap still pending after a pre-commit crash");
        // Crash after commit: the target is authoritative.
        c.open_proposal().unwrap();
        c.mark_commit_sent(10);
        c.begin_attempt();
        assert_eq!(c.attempt_plan(&plan_a), &plan_b);
        assert!(c.reports.last().is_some_and(|r| r.committed));
        assert!(!c.swap_due(5), "a committed swap is not retried");
    }

    #[test]
    fn hybrid_oracle_degenerates_to_plain_generation() {
        let m = RefModel::new(RefConfig::tiny());
        let q = quantize_model(
            &m,
            &BitAssignment { bits: vec![Bitwidth::Int8, Bitwidth::Int8] },
            Rounding::Deterministic,
            0,
        );
        let prompt = vec![1, 2, 3];
        let plain = q.generate(&prompt, 6, 0.0, 0).tokens;
        // One segment: identical to plain greedy generation.
        assert_eq!(hybrid_oracle_tokens(&[(0, &q)], &prompt, 6, None), plain);
        // Same model on both sides of a swap: still identical.
        assert_eq!(swap_oracle_tokens(&q, &q, &prompt, 3, None, 6), plain);
        // Resume under the same model: still identical (re-prefill is
        // bit-equivalent to continuing the cache).
        assert_eq!(swap_oracle_tokens(&q, &q, &prompt, 3, Some(4), 6), plain);
    }
}
