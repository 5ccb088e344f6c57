//! Iteration-level continuous batching (Orca/vLLM-style) — the serving
//! engine behind `llmpq-serve`.
//!
//! The offline runtime executes one fixed batch per pipeline run; a
//! server admits a *stream*. This module replaces run-at-a-time
//! execution with an **iteration loop**: every iteration the scheduler
//! re-forms the micro-batch from whatever is in flight, so requests
//! join the moment KV blocks are free and leave the moment their last
//! token is sampled — no waiting for stragglers, no padding to the
//! longest sequence.
//!
//! Three pieces:
//!
//! * [`StepEngine`] — the per-iteration execution backend. Two
//!   implementations: [`SimStepEngine`] (analytic cost, oracle tokens;
//!   drives 10k-concurrent virtual-clock sweeps) and
//!   [`ModelStepEngine`] (the real quantized reference transformer over
//!   a [`PagedKvStore`], bit-identical to the offline engine).
//! * [`ContinuousScheduler`] — join/leave rules, the **phase-aware
//!   interleaver** ([`PhasePolicy`]) that packs prefill chunks and
//!   decode steps into one token budget, KV-pressure preemption, and
//!   the wiring into the existing admission ([`AdmissionController`])
//!   and degradation ([`DegradationController`]) machinery.
//! * Drivers: [`serve_continuous`] replays a request trace on the
//!   virtual clock; [`serve_static`] runs the same trace, same engine,
//!   same admission under *static* batching (accumulate, pad, run to
//!   the longest) — the baseline `ablation_serving` compares against.
//!   The live HTTP front door ([`crate::http`]) drives the scheduler
//!   from a real clock instead.
//!
//! Phase-awareness is the paper's core asymmetry made a *scheduling*
//! decision: prefill is throughput-bound and batches beautifully,
//! decode is latency-bound and cheap per token. [`PhasePolicy`] decides
//! which side of that trade each iteration's budget favors.

use std::collections::HashMap;
use std::sync::Arc;

use crate::clock::real_clock;
use crate::kvpool::{KvPool, KvPoolConfig, KvPoolError, PagedKvStore};
use crate::overload::{
    AdmissionConfig, AdmissionController, AdmissionStats, DegradationConfig,
    DegradationController, Request, RungTransition,
};
use crate::telemetry::{HistogramSnapshot, Telemetry};
use llmpq_model::{argmax, forward_shard, KvSeq, LayerWeights, Matrix, ModelHead, OutRows, RefModel};
use llmpq_quant::{load_stage_weights, BitAssignment, Rounding};
use llmpq_workload::BatchJob;
use serde::{Deserialize, Serialize};

/// Why an engine step failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// KV pool out of blocks. The scheduler pre-reserves, so reaching
    /// this from [`ContinuousScheduler::step`] indicates a bookkeeping
    /// bug — it is surfaced, never swallowed.
    KvExhausted { needed: usize, free: usize },
    /// A distributed engine lost its ring (stage crash, wire fault) and
    /// will rebuild it on the next call. All engine-side sequence state
    /// is gone; the scheduler requeues every in-flight sequence for
    /// recompute — recoverable, never fatal.
    RingRestarted,
    /// Anything else (unknown sequence, model error).
    Engine(String),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::KvExhausted { needed, free } => {
                write!(f, "kv exhausted mid-iteration: need {needed} blocks, {free} free")
            }
            StepError::RingRestarted => {
                write!(f, "pipeline ring lost; in-flight sequences requeued for recompute")
            }
            StepError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for StepError {}

/// An exhausted pool is the scheduler's to handle (preempt); any other
/// pool error is an engine fault.
impl From<KvPoolError> for StepError {
    fn from(e: KvPoolError) -> Self {
        match e {
            KvPoolError::Exhausted { needed, free } => StepError::KvExhausted { needed, free },
            e => StepError::Engine(e.to_string()),
        }
    }
}

/// Affine per-iteration cost at one degradation rung:
/// `base + per_prefill_token·p + per_decode_token·d` virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterCost {
    /// Fixed launch overhead per iteration.
    pub base_s: f64,
    /// Marginal cost of one prefill token.
    pub per_prefill_token_s: f64,
    /// Marginal cost of one decode token (attention over the cache
    /// dominates, so decode tokens are the expensive ones).
    pub per_decode_token_s: f64,
}

impl IterCost {
    /// Cost of an iteration with `p` prefill and `d` decode tokens.
    pub fn cost(&self, p: usize, d: usize) -> f64 {
        self.base_s + self.per_prefill_token_s * p as f64 + self.per_decode_token_s * d as f64
    }

    /// Fit the iteration cost of a plan from two points of its batch
    /// cost: `c1` seconds to serve one request alone, `cb` seconds to
    /// serve `b` together (each `prompt_len` prompt tokens, `n_generate`
    /// generated). A batch replayed lock-step — one prefill iteration,
    /// then `n_generate − 1` decode iterations — costs exactly the
    /// affine `c1 + per·(batch − 1)` those points define: the intercept
    /// spreads over the iterations, the slope over the request's tokens.
    pub fn fit_batch(c1: f64, cb: f64, b: usize, prompt_len: usize, n_generate: usize) -> Self {
        let per = if b > 1 { ((cb - c1) / (b - 1) as f64).max(0.0) } else { 0.0 };
        let per_token = per / (prompt_len + n_generate).saturating_sub(1).max(1) as f64;
        Self {
            base_s: (c1 - per).max(1e-9) / n_generate.max(1) as f64,
            per_prefill_token_s: per_token,
            per_decode_token_s: per_token,
        }
    }

    /// [`Self::fit_batch`] at the mean prompt and generation lengths of
    /// `trace`: `batch_latency(job)` prices one batch of
    /// `job.global_batch` requests of that shape
    /// (`llm_pq::evaluate::batch_latency` for a plan) and is asked at
    /// batch 1 and at batch `b`.
    pub fn fit_trace(
        trace: &[Request],
        b: usize,
        batch_latency: impl Fn(&BatchJob) -> f64,
    ) -> Self {
        let n = trace.len().max(1) as f64;
        let mean = |len: fn(&Request) -> usize| {
            (trace.iter().map(len).sum::<usize>() as f64 / n).round().max(1.0) as usize
        };
        let job = BatchJob {
            global_batch: b.max(1),
            prompt_len: mean(|r| r.prompt.len()),
            n_generate: mean(|r| r.n_generate),
        };
        let c1 = batch_latency(&BatchJob { global_batch: 1, ..job });
        Self::fit_batch(c1, batch_latency(&job), job.global_batch, job.prompt_len, job.n_generate)
    }

    /// A degradation ladder of `n` rungs: rung 0 is full precision,
    /// each further rung ~20% cheaper (lower bits → faster GEMMs).
    pub fn default_ladder(n: usize) -> Vec<IterCost> {
        (0..n.max(1))
            .map(|r| {
                let f = 0.8f64.powi(r as i32);
                IterCost {
                    base_s: 2e-3,
                    per_prefill_token_s: 2e-5 * f,
                    per_decode_token_s: 1.2e-4 * f,
                }
            })
            .collect()
    }
}

/// The per-iteration execution backend the scheduler drives.
///
/// Object-safe: the CLI boxes one of the two implementations behind
/// `Box<dyn StepEngine + Send>`.
pub trait StepEngine {
    /// The KV allocator — the scheduler reads it for join/preempt
    /// decisions.
    fn pool(&self) -> &KvPool;
    /// Register a sequence (owns no KV yet).
    fn register(&mut self, seq: u64) -> Result<(), StepError>;
    /// Run a prefill chunk (`tokens` at absolute positions starting at
    /// `pos0`). When `is_last`, sample and return the first generated
    /// token.
    fn prefill_chunk(
        &mut self,
        seq: u64,
        tokens: &[usize],
        pos0: usize,
        is_last: bool,
    ) -> Result<Option<usize>, StepError>;
    /// One decode step: feed `last` (the previously sampled token, at
    /// absolute position `pos`) and sample the next.
    fn decode_one(&mut self, seq: u64, last: usize, pos: usize) -> Result<usize, StepError>;
    /// Drop a sequence and free its KV (finish or preempt).
    fn release(&mut self, seq: u64);
    /// Virtual seconds one iteration costs at `rung`.
    fn iteration_cost_s(&self, rung: usize, prefill_tokens: usize, decode_tokens: usize) -> f64;
    /// Rungs available to the degradation controller.
    fn n_rungs(&self) -> usize {
        1
    }
    /// Hot precision swap (the live-migration analog on the serving
    /// path); returns the stall in virtual seconds.
    fn set_rung(&mut self, _rung: usize) -> f64 {
        0.0
    }
    /// Current rung.
    fn rung(&self) -> usize {
        0
    }
    /// Longest prompt+generation the backend can hold (model context).
    fn max_seq(&self) -> usize {
        usize::MAX
    }
    /// Committed live-swap epoch (ring generation). Local engines have
    /// no ring and stay at 0; the front door reports this in `/healthz`.
    fn epoch(&self) -> u64 {
        0
    }
    /// Supervisor restarts absorbed so far (0 for local engines).
    fn restarts(&self) -> u64 {
        0
    }
}

impl<T: StepEngine + ?Sized> StepEngine for Box<T> {
    fn pool(&self) -> &KvPool {
        (**self).pool()
    }
    fn register(&mut self, seq: u64) -> Result<(), StepError> {
        (**self).register(seq)
    }
    fn prefill_chunk(
        &mut self,
        seq: u64,
        tokens: &[usize],
        pos0: usize,
        is_last: bool,
    ) -> Result<Option<usize>, StepError> {
        (**self).prefill_chunk(seq, tokens, pos0, is_last)
    }
    fn decode_one(&mut self, seq: u64, last: usize, pos: usize) -> Result<usize, StepError> {
        (**self).decode_one(seq, last, pos)
    }
    fn release(&mut self, seq: u64) {
        (**self).release(seq)
    }
    fn iteration_cost_s(&self, rung: usize, p: usize, d: usize) -> f64 {
        (**self).iteration_cost_s(rung, p, d)
    }
    fn n_rungs(&self) -> usize {
        (**self).n_rungs()
    }
    fn set_rung(&mut self, rung: usize) -> f64 {
        (**self).set_rung(rung)
    }
    fn rung(&self) -> usize {
        (**self).rung()
    }
    fn max_seq(&self) -> usize {
        (**self).max_seq()
    }
    fn epoch(&self) -> u64 {
        (**self).epoch()
    }
    fn restarts(&self) -> u64 {
        (**self).restarts()
    }
}

fn absorb(h: u64, tok: usize, pos: usize) -> u64 {
    let mut state = h ^ (tok as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ (((pos as u64) << 1) | 1);
    crate::splitmix64(&mut state)
}

fn emit(h: u64, vocab: usize) -> usize {
    ((h >> 17) % vocab.max(1) as u64) as usize
}

/// The closed-form token oracle [`SimStepEngine`] implements: what the
/// simulated model generates for `prompt`, independent of batch
/// composition, preemption, or chunking. Sweeps recompute this to check
/// the scheduler never mixes sequences up.
pub fn sim_oracle_tokens(seed: u64, vocab: usize, prompt: &[usize], n_generate: usize) -> Vec<usize> {
    let mut h = seed;
    for (i, &t) in prompt.iter().enumerate() {
        h = absorb(h, t, i);
    }
    let mut out = Vec::with_capacity(n_generate);
    if n_generate == 0 {
        return out;
    }
    out.push(emit(h, vocab));
    for k in 1..n_generate {
        h = absorb(h, out[k - 1], prompt.len() + k - 1);
        out.push(emit(h, vocab));
    }
    out
}

#[derive(Debug, Clone, Default)]
struct SimSeq {
    hash: u64,
    len: usize,
}

/// Analytic-cost engine: KV accounting through a real [`KvPool`], token
/// generation by the [`sim_oracle_tokens`] hash chain, per-rung affine
/// iteration costs. Fast enough for 10k+ concurrent requests under the
/// virtual clock.
#[derive(Debug, Clone)]
pub struct SimStepEngine {
    pool: KvPool,
    costs: Vec<IterCost>,
    vocab: usize,
    seed: u64,
    rung: usize,
    max_seq: usize,
    seqs: HashMap<u64, SimSeq>,
}

/// Virtual stall the analytic engine charges per precision swap.
const SIM_SWAP_STALL_S: f64 = 5e-3;

impl SimStepEngine {
    /// Engine over `pool_cfg` blocks with the given per-rung costs.
    pub fn new(pool_cfg: KvPoolConfig, costs: Vec<IterCost>, vocab: usize, seed: u64) -> Self {
        assert!(!costs.is_empty(), "need at least one rung");
        Self {
            pool: KvPool::new(pool_cfg),
            costs,
            vocab: vocab.max(1),
            seed,
            rung: 0,
            max_seq: usize::MAX,
            seqs: HashMap::new(),
        }
    }

    /// Engine for replaying `trace` in batches of up to `batch`: its pool
    /// holds `2 × batch` of the trace's longest request, so the batch
    /// bound and the admission queue — not KV — shape the replay.
    pub fn for_trace(trace: &[Request], costs: Vec<IterCost>, batch: usize, seed: u64) -> Self {
        let block_tokens = 16;
        let longest = trace.iter().map(|r| r.prompt.len() + r.n_generate).max().unwrap_or(1);
        let pool = KvPoolConfig {
            n_blocks: 2 * batch.max(1) * longest.div_ceil(block_tokens),
            block_tokens,
        };
        Self::new(pool, costs, 97, seed)
    }

    /// Charge every iteration at `cost` from now on, one rung.
    pub(crate) fn reprice(&mut self, cost: IterCost) {
        self.costs = vec![cost];
        self.rung = 0;
    }

    /// Cap sequence length (prompt + generation) like a model context.
    pub fn with_max_seq(mut self, max_seq: usize) -> Self {
        self.max_seq = max_seq;
        self
    }
}

impl StepEngine for SimStepEngine {
    fn pool(&self) -> &KvPool {
        &self.pool
    }

    fn register(&mut self, seq: u64) -> Result<(), StepError> {
        self.pool.alloc(seq, 0).map_err(|e| StepError::Engine(e.to_string()))?;
        self.seqs.insert(seq, SimSeq { hash: self.seed, len: 0 });
        Ok(())
    }

    fn prefill_chunk(
        &mut self,
        seq: u64,
        tokens: &[usize],
        pos0: usize,
        is_last: bool,
    ) -> Result<Option<usize>, StepError> {
        self.pool.extend(seq, tokens.len())?;
        let s = self.seqs.get_mut(&seq).ok_or_else(|| StepError::Engine(format!("seq {seq}")))?;
        debug_assert_eq!(s.len, pos0, "prefill chunks must be contiguous");
        for (i, &t) in tokens.iter().enumerate() {
            s.hash = absorb(s.hash, t, pos0 + i);
        }
        s.len += tokens.len();
        Ok(if is_last { Some(emit(s.hash, self.vocab)) } else { None })
    }

    fn decode_one(&mut self, seq: u64, last: usize, pos: usize) -> Result<usize, StepError> {
        self.pool.extend(seq, 1)?;
        let s = self.seqs.get_mut(&seq).ok_or_else(|| StepError::Engine(format!("seq {seq}")))?;
        s.hash = absorb(s.hash, last, pos);
        s.len += 1;
        Ok(emit(s.hash, self.vocab))
    }

    fn release(&mut self, seq: u64) {
        self.pool.free(seq);
        self.seqs.remove(&seq);
    }

    fn iteration_cost_s(&self, rung: usize, p: usize, d: usize) -> f64 {
        self.costs[rung.min(self.costs.len() - 1)].cost(p, d)
    }

    fn n_rungs(&self) -> usize {
        self.costs.len()
    }

    fn set_rung(&mut self, rung: usize) -> f64 {
        self.rung = rung.min(self.costs.len() - 1);
        SIM_SWAP_STALL_S
    }

    fn rung(&self) -> usize {
        self.rung
    }

    fn max_seq(&self) -> usize {
        self.max_seq
    }
}

/// The real thing: the quantized reference transformer executing over a
/// [`PagedKvStore`]. Greedy decoding is per-sequence independent, so
/// tokens are **bit-identical** to the offline
/// `quantize_model(...).generate(prompt, n, 0.0, 0)` path no matter how
/// the scheduler batches, chunks, or preempts — `tests/serving.rs`
/// asserts exactly that.
pub struct ModelStepEngine {
    head: ModelHead,
    // One packed copy of every layer per rung; all rungs share `head`.
    rungs: Vec<Vec<LayerWeights>>,
    store: PagedKvStore,
    costs: Vec<IterCost>,
    rung: usize,
    swaps: u64,
}

impl ModelStepEngine {
    /// Load `checkpoint`'s layers once per rung of `ladder` (rung 0
    /// first, served until a swap) through the §5 loader, exactly as a
    /// ring stage holding every layer would, over a paged store of
    /// `pool_cfg` blocks — of 16 positions, the one size a store holds
    /// ([`PagedKvStore::check_block_tokens`] names the rule otherwise).
    pub fn new(
        checkpoint: &RefModel,
        ladder: &[BitAssignment],
        rounding: Rounding,
        seed: u64,
        pool_cfg: KvPoolConfig,
    ) -> Result<Self, String> {
        if ladder.is_empty() {
            return Err("need at least one rung in the bit ladder".into());
        }
        PagedKvStore::check_block_tokens(pool_cfg.block_tokens)?;
        let cfg = &checkpoint.cfg;
        for a in ladder {
            assert_eq!(a.len(), cfg.n_layers, "assignment must cover every layer");
        }
        let rungs = ladder
            .iter()
            .map(|a| load_stage_weights(checkpoint, 0, &a.bits, rounding, seed).0)
            .collect();
        let store = PagedKvStore::new(pool_cfg, cfg.n_layers, cfg.hidden);
        let costs = IterCost::default_ladder(ladder.len());
        Ok(Self { head: ModelHead::of(checkpoint), rungs, store, costs, rung: 0, swaps: 0 })
    }

    /// Like [`ModelStepEngine::new`], but size the KV pool from a
    /// unified device memory budget instead of a fixed block count:
    /// whatever `mem_budget_bytes` leaves after the *packed* resident
    /// weights is carved into KV blocks of `block_tokens` positions
    /// (which must be 16, as for [`ModelStepEngine::new`]).
    /// Lower-bit ladders keep fewer weight bytes resident, so
    /// quantization directly buys KV headroom — the serve-path guard
    /// (`pool().feasible`/`can_fit`) then admits more concurrent
    /// sequences.
    pub fn new_with_budget(
        checkpoint: &RefModel,
        ladder: &[BitAssignment],
        rounding: Rounding,
        seed: u64,
        block_tokens: usize,
        mem_budget_bytes: usize,
    ) -> Result<Self, String> {
        PagedKvStore::check_block_tokens(block_tokens)?;
        // Quantize first; the real packed footprint decides the split.
        let probe = Self::new(
            checkpoint,
            ladder,
            rounding,
            seed,
            KvPoolConfig { n_blocks: 1, block_tokens },
        )?;
        let weights = probe.weight_resident_bytes();
        let block_bytes = Self::kv_block_bytes(&checkpoint.cfg, block_tokens);
        let left = mem_budget_bytes.saturating_sub(weights);
        let n_blocks = left / block_bytes;
        if n_blocks == 0 {
            return Err(format!(
                "memory budget {mem_budget_bytes} B cannot hold {weights} B of resident \
                 weights plus one {block_bytes} B KV block"
            ));
        }
        let cfg = &probe.head.cfg;
        let store =
            PagedKvStore::new(KvPoolConfig { n_blocks, block_tokens }, cfg.n_layers, cfg.hidden);
        Ok(Self { store, ..probe })
    }

    /// Bytes of one KV block: `block_tokens` positions × hidden × (K+V)
    /// × 4 bytes, across every layer.
    pub fn kv_block_bytes(cfg: &llmpq_model::RefConfig, block_tokens: usize) -> usize {
        block_tokens * cfg.hidden * 2 * 4 * cfg.n_layers
    }

    /// Bytes the engine keeps resident for weights, summed over every
    /// rung of the ladder (all rungs stay loaded for hot swapping).
    /// Packed rungs count their true bits-scaled footprint.
    pub fn weight_resident_bytes(&self) -> usize {
        self.rungs.iter().flatten().map(|l| l.resident_weight_bytes()).sum()
    }

    /// The paged store (tests inspect block usage).
    pub fn store(&self) -> &PagedKvStore {
        &self.store
    }

    /// Precision swaps performed.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Run `tokens` of `seq`, at positions `pos0..`, through the served
    /// rung (every layer of the model) and return the final layer's
    /// `rows` of their hidden states.
    /// The sequence's chain is extended first — exhaustion is reported
    /// before anything is computed — and every layer then reads the
    /// cached K/V where its blocks live and writes the new rows straight
    /// into the tail blocks.
    fn forward(&mut self, seq: u64, tokens: &[usize], pos0: usize, rows: OutRows) -> Result<Matrix, StepError> {
        let x = self.head.embed_tokens(tokens, pos0);
        let mut kv = self.store.extend_seq(seq, tokens.len())?;
        debug_assert_eq!(kv.cached(0), pos0, "a sequence is computed in position order");
        Ok(forward_shard(&self.head.cfg, &self.rungs[self.rung], 0, x, &mut kv, rows))
    }
}

impl StepEngine for ModelStepEngine {
    fn pool(&self) -> &KvPool {
        self.store.pool()
    }

    fn register(&mut self, seq: u64) -> Result<(), StepError> {
        self.store.register(seq).map_err(|e| StepError::Engine(e.to_string()))
    }

    fn prefill_chunk(
        &mut self,
        seq: u64,
        tokens: &[usize],
        pos0: usize,
        is_last: bool,
    ) -> Result<Option<usize>, StepError> {
        // A chunk that does not sample needs only its K/V from the final layer.
        let x = self.forward(seq, tokens, pos0, if is_last { OutRows::Last } else { OutRows::KvOnly })?;
        Ok(is_last.then(|| argmax(&self.head.last_row_logits(&x))))
    }

    fn decode_one(&mut self, seq: u64, last: usize, pos: usize) -> Result<usize, StepError> {
        let x = self.forward(seq, &[last], pos, OutRows::Last)?;
        Ok(argmax(&self.head.last_row_logits(&x)))
    }

    fn release(&mut self, seq: u64) {
        self.store.release(seq);
    }

    fn iteration_cost_s(&self, rung: usize, p: usize, d: usize) -> f64 {
        self.costs[rung.min(self.costs.len() - 1)].cost(p, d)
    }

    fn n_rungs(&self) -> usize {
        self.rungs.len()
    }

    fn set_rung(&mut self, rung: usize) -> f64 {
        let r = rung.min(self.rungs.len() - 1);
        if r != self.rung {
            self.rung = r;
            self.swaps += 1;
        }
        0.0
    }

    fn rung(&self) -> usize {
        self.rung
    }

    fn max_seq(&self) -> usize {
        self.head.cfg.max_seq
    }
}

/// How the interleaver splits the per-iteration token budget between
/// phases.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PhasePolicy {
    /// Decode steps first (protects TPOT / inter-token latency), then
    /// fill what remains with prefill chunks. The default.
    DecodeFirst,
    /// Prefill first (protects TTFT under bursts of new requests), then
    /// decodes.
    PrefillFirst,
    /// Reserve at most `prefill_frac` of the budget for prefill; unused
    /// reservations spill to the other phase.
    Mixed {
        /// Fraction of the budget reserved for prefill, in `[0, 1]`.
        prefill_frac: f64,
    },
}

impl std::str::FromStr for PhasePolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "decode-first" => Ok(PhasePolicy::DecodeFirst),
            "prefill-first" => Ok(PhasePolicy::PrefillFirst),
            "mixed" => Ok(PhasePolicy::Mixed { prefill_frac: 0.5 }),
            other => match other.strip_prefix("mixed:") {
                Some(f) => {
                    let frac: f64 =
                        f.parse().map_err(|_| format!("bad mixed fraction {f:?}"))?;
                    if !(0.0..=1.0).contains(&frac) {
                        return Err(format!("mixed fraction {frac} outside [0, 1]"));
                    }
                    Ok(PhasePolicy::Mixed { prefill_frac: frac })
                }
                None => Err(format!(
                    "unknown phase policy {other:?} (decode-first | prefill-first | mixed[:frac])"
                )),
            },
        }
    }
}

/// A scheduled precision swap: after the scheduler completes iteration
/// `at_iteration`, move the engine to `rung`. On a distributed engine
/// this drives a live plan migration at the iteration boundary; on a
/// local engine it swaps the quantized weights in place — both paths
/// take effect at the same deterministic point, which is what makes
/// swap-under-load runs comparable token-for-token across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RungSwap {
    /// Iteration count after which the swap fires (the swap happens at
    /// the end of the first non-idle iteration with `iterations >= at`).
    pub at_iteration: u64,
    /// Target degradation rung.
    pub rung: usize,
}

/// Continuous-batching scheduler parameters.
#[derive(Debug, Clone)]
pub struct ContinuousConfig {
    /// Admission queue policy.
    pub admission: AdmissionConfig,
    /// Per-iteration token budget (prefill tokens + decode steps).
    pub token_budget: usize,
    /// Max sequences in flight at once.
    pub max_batch: usize,
    /// Longest prefill chunk per sequence per iteration (chunked
    /// prefill keeps one huge prompt from starving decodes).
    pub prefill_chunk: usize,
    /// Phase interleaving policy.
    pub policy: PhasePolicy,
    /// Optional graceful degradation (precision rungs swap hot).
    pub degradation: Option<DegradationConfig>,
    /// Scheduled precision swaps (sorted by `at_iteration`; applied in
    /// order at iteration boundaries). Empty = never.
    pub swaps: Vec<RungSwap>,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        Self {
            admission: AdmissionConfig::default(),
            token_budget: 256,
            max_batch: 32,
            prefill_chunk: 64,
            policy: PhasePolicy::DecodeFirst,
            degradation: None,
            swaps: Vec::new(),
        }
    }
}

/// A completed request, with everything the front door and the bench
/// need to answer/aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FinishedRequest {
    /// Request id.
    pub id: usize,
    /// Generated tokens (length = requested `n_generate`).
    pub tokens: Vec<usize>,
    /// Arrival → first token, seconds.
    pub ttft_s: f64,
    /// Completion timestamp.
    pub finish_s: f64,
    /// Arrival → completion.
    pub sojourn_s: f64,
    /// Finished before its SLO deadline (true when no deadline).
    pub deadline_met: bool,
    /// Times this request was preempted and recomputed.
    pub preempted: u32,
}

/// What one scheduler step did.
#[derive(Debug, Clone, Default)]
pub struct StepOutcome {
    /// Iteration cost in seconds (0 when idle).
    pub cost_s: f64,
    /// Nothing in flight and nothing joinable.
    pub idle: bool,
    /// Requests completed this iteration.
    pub finished: Vec<FinishedRequest>,
    /// Queued requests reaped past their deadline/timeout.
    pub expired_ids: Vec<usize>,
    /// Requests refused at join (infeasible for the pool/context).
    pub shed_ids: Vec<usize>,
    /// Degradation moved to this rung.
    pub rung_changed: Option<usize>,
    /// Tokens that landed this iteration as `(request id, token index,
    /// token)` — the streaming front door forwards these as they land.
    /// A ring restart never re-lands (preserved tokens resume as a
    /// forced prefix), but a KV preemption recomputes on the same rung
    /// and re-lands the identical earlier indices; consumers that
    /// already emitted an index must dedup on it.
    pub landed: Vec<(usize, usize, usize)>,
    /// In-flight sequences requeued for recompute because the engine
    /// lost its ring this iteration (0 on the happy path).
    pub recovered: usize,
}

#[derive(Debug, Clone)]
struct InFlight {
    req: Request,
    prefilled: usize,
    generated: Vec<usize>,
    // Tokens restored from a pre-restart incarnation (0 for a fresh
    // sequence): they seed `generated` at join and stretch the prefill
    // phase so their KV is rebuilt before decoding resumes.
    resume_prefix: usize,
    // Arrival → first delivered token, once one has landed (in this
    // incarnation or an earlier one).
    ttft_s: Option<f64>,
    preempted: u32,
}

/// What a request keeps of its time in `running` while it waits in the
/// queue to run again. Written when a live sequence leaves `running`
/// unfinished, moved back into its [`InFlight`] when it rejoins, dropped
/// if it dies queued — so there are never more of these than queued
/// requests, and a request that is never requeued never has one.
#[derive(Debug, Default)]
struct Carry {
    /// Times it has left `running` unfinished.
    preempted: u32,
    /// Tokens preserved across a ring restart, resumed as a forced
    /// prefix instead of re-sampled: recovery can then never contradict
    /// tokens a streaming consumer already emitted (re-sampling is only
    /// bit-stable while the rung never changes — a live swap between
    /// generation and recompute would rewrite history). Empty after a KV
    /// preemption, which recomputes on the same rung.
    generated: Vec<usize>,
    /// TTFT of the first token, if it was already delivered.
    ttft_s: Option<f64>,
}

impl InFlight {
    fn decode_ready(&self) -> bool {
        self.prefilled == self.prefill_target() && !self.generated.is_empty()
    }

    /// Positions that must be in KV before decoding can (re)start: the
    /// prompt, plus — for a sequence restored after a ring restart —
    /// all but the last preserved token. That token is the next decode
    /// input, mirroring the normal prefill → decode handoff.
    fn prefill_target(&self) -> usize {
        self.req.prompt.len() + self.resume_prefix.saturating_sub(1)
    }

    /// Token at absolute position `pos` of the prompt ⊕ preserved-token
    /// prefix (callers stay below [`Self::prefill_target`]).
    fn prefix_token(&self, pos: usize) -> usize {
        let p = self.req.prompt.len();
        if pos < p {
            self.req.prompt[pos]
        } else {
            self.generated[pos - p]
        }
    }
}

/// Latency percentiles over raw (virtual or real) seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencySummary {
    /// Summarize `samples`; `None` when empty.
    pub fn from_samples(mut samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
        Some(Self {
            p50: pct(0.5),
            p95: pct(0.95),
            p99: pct(0.99),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            max: *samples.last().unwrap(),
        })
    }

    /// Summarize a microsecond histogram, in seconds; `None` when empty.
    /// Mean and max are exact to the µs, the percentiles interpolated inside the
    /// histogram's power-of-two buckets.
    pub(crate) fn from_histogram_us(h: &HistogramSnapshot) -> Option<Self> {
        let pct = |p: f64| h.percentile(p).map(|us| us / 1e6);
        Some(Self {
            p50: pct(0.5)?,
            p95: pct(0.95)?,
            p99: pct(0.99)?,
            mean: h.mean()? / 1e6,
            max: h.max_us as f64 / 1e6,
        })
    }
}

/// Totals over the requests a run completed, bumped as each one retires.
#[derive(Debug, Clone, Copy, Default)]
struct Retired {
    completed: usize,
    on_time: usize,
    generated_tokens: u64,
}

impl Retired {
    fn note(&mut self, fin: &FinishedRequest) {
        self.completed += 1;
        self.on_time += usize::from(fin.deadline_met);
        self.generated_tokens += fin.tokens.len() as u64;
    }
}

/// End-of-run summary for one serving run (continuous or static).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ContinuousReport {
    /// `"continuous"` or `"static"`.
    pub mode: String,
    /// Admission counters; [`AdmissionStats::conserves`] must hold with
    /// [`Self::pending_end`].
    pub stats: AdmissionStats,
    /// Requests still queued/in flight at the end (0 for trace runs).
    pub pending_end: usize,
    /// Requests completed.
    pub completed: usize,
    /// Tokens generated (decode side).
    pub generated_tokens: u64,
    /// Prefill tokens processed (inflated by padding under static
    /// batching).
    pub prefill_tokens: u64,
    /// Scheduler iterations executed.
    pub iterations: u64,
    /// Virtual makespan.
    pub makespan_s: f64,
    /// Generated tokens per second over the makespan.
    pub throughput_tok_s: f64,
    /// On-time completions per second (the paper-facing serving
    /// metric: work delivered *within SLO*).
    pub goodput_rps: f64,
    /// Fraction of completed requests that missed their deadline.
    pub deadline_miss_rate: f64,
    /// Time to first token.
    pub ttft: Option<LatencySummary>,
    /// Time per output token after the first.
    pub tpot: Option<LatencySummary>,
    /// Arrival → completion.
    pub sojourn: Option<LatencySummary>,
    /// Mean sequences in flight per iteration.
    pub mean_batch_occupancy: f64,
    /// Peak sequences in flight.
    pub peak_batch: usize,
    /// Peak KV pool occupancy in `[0, 1]`.
    pub kv_peak_occupancy: f64,
    /// Peak KV blocks in use.
    pub kv_peak_blocks: usize,
    /// Preempt-and-recompute events.
    pub preemptions: u64,
    /// Degradation rung changes.
    pub rung_transitions: u64,
    /// Every completed request of a closed-trace run, in finish order.
    /// Empty when the scheduler was stepped by a caller that took each
    /// [`StepOutcome::finished`] itself (the HTTP server).
    pub outputs: Vec<FinishedRequest>,
}

impl ContinuousReport {
    /// The conservation invariant: every offered request accounted for.
    pub fn conserves(&self) -> bool {
        self.stats.conserves(self.pending_end)
    }

    /// Fraction of the prefill tokens processed that were padding:
    /// `1 −` the prompt tokens of the served requests (looked up by id
    /// in `trace`, the requests the run replayed) over
    /// [`Self::prefill_tokens`]. Static batching pads every prompt to its
    /// batch's longest; a continuous run only counts recompute here.
    pub fn padding_fraction(&self, trace: &[Request]) -> f64 {
        if self.prefill_tokens == 0 {
            return 0.0;
        }
        let prompt_len: HashMap<usize, usize> =
            trace.iter().map(|r| (r.id, r.prompt.len())).collect();
        let real: usize = self.outputs.iter().filter_map(|f| prompt_len.get(&f.id)).sum();
        1.0 - real as f64 / self.prefill_tokens as f64
    }

    /// Everything derivable from the retired totals and the archived
    /// requests (latency summaries are `None` without an archive); the
    /// loop counters (iterations, occupancy, KV peaks, preemptions, rung
    /// changes) are left at zero for the caller to fill in.
    fn from_finished(
        mode: &str,
        stats: AdmissionStats,
        pending_end: usize,
        makespan_s: f64,
        retired: Retired,
        outputs: Vec<FinishedRequest>,
    ) -> Self {
        let Retired { completed, on_time, generated_tokens } = retired;
        let per_s = |n: f64| if makespan_s > 0.0 { n / makespan_s } else { 0.0 };
        Self {
            mode: mode.to_string(),
            stats,
            pending_end,
            completed,
            generated_tokens,
            makespan_s,
            throughput_tok_s: per_s(generated_tokens as f64),
            goodput_rps: per_s(on_time as f64),
            deadline_miss_rate: if completed > 0 {
                (completed - on_time) as f64 / completed as f64
            } else {
                0.0
            },
            ttft: LatencySummary::from_samples(outputs.iter().map(|f| f.ttft_s).collect()),
            tpot: LatencySummary::from_samples(
                outputs
                    .iter()
                    .filter(|f| f.tokens.len() > 1)
                    .map(|f| (f.sojourn_s - f.ttft_s).max(0.0) / (f.tokens.len() - 1) as f64)
                    .collect(),
            ),
            sojourn: LatencySummary::from_samples(outputs.iter().map(|f| f.sojourn_s).collect()),
            outputs,
            ..Self::default()
        }
    }
}

/// The continuous-batching scheduler. Time-agnostic: every entry point
/// takes `now`, so the same struct runs under the virtual clock (trace
/// drivers, simnet) or a real one (the HTTP front door).
pub struct ContinuousScheduler<E: StepEngine> {
    engine: E,
    cfg: ContinuousConfig,
    adm: AdmissionController,
    degrade: Option<DegradationController>,
    running: Vec<InFlight>,
    telemetry: Arc<Telemetry>,
    // Accumulators for the report.
    iterations: u64,
    prefill_tokens: u64,
    preemptions: u64,
    rung_transitions: u64,
    swaps_done: usize,
    occupancy_sum: f64,
    peak_batch: usize,
    kv_peak_occupancy: f64,
    retired: Retired,
    // Keyed by request id; holds an entry exactly while a requeued
    // request is in the queue.
    carry: HashMap<usize, Carry>,
    // What `run_trace_with` replayed, in finish order. `step` never
    // appends here: a caller that steps by hand owns what
    // `StepOutcome::finished` hands it.
    archive: Vec<FinishedRequest>,
}

impl<E: StepEngine> ContinuousScheduler<E> {
    /// Build a scheduler; rejects a zero budget/batch/chunk.
    pub fn new(engine: E, cfg: ContinuousConfig) -> Result<Self, String> {
        if cfg.token_budget == 0 {
            return Err("token_budget must be at least 1".into());
        }
        if cfg.max_batch == 0 {
            return Err("max_batch must be at least 1".into());
        }
        if cfg.prefill_chunk == 0 {
            return Err("prefill_chunk must be at least 1".into());
        }
        let mut cfg = cfg;
        cfg.swaps.sort_by_key(|s| s.at_iteration);
        if let Some(s) = cfg.swaps.iter().find(|s| s.rung >= engine.n_rungs()) {
            return Err(format!(
                "swap at iteration {} targets rung {} but the engine has {} rungs",
                s.at_iteration,
                s.rung,
                engine.n_rungs()
            ));
        }
        let degrade =
            cfg.degradation.map(|d| DegradationController::new(d, engine.n_rungs()));
        Ok(Self {
            adm: AdmissionController::new(cfg.admission),
            degrade,
            running: Vec::new(),
            telemetry: Telemetry::counters_only(0, real_clock()),
            iterations: 0,
            prefill_tokens: 0,
            preemptions: 0,
            rung_transitions: 0,
            swaps_done: 0,
            occupancy_sum: 0.0,
            peak_batch: 0,
            kv_peak_occupancy: 0.0,
            retired: Retired::default(),
            carry: HashMap::new(),
            archive: Vec::new(),
            engine,
            cfg,
        })
    }

    /// Count into `t` (serving gauges + histograms) instead of the
    /// counters-only hub [`new`](Self::new) made.
    pub fn with_telemetry(mut self, t: Arc<Telemetry>) -> Self {
        self.telemetry = t;
        self
    }

    /// Offer one arrival; `false` means shed/expired immediately.
    pub fn offer(&mut self, req: Request, now: f64) -> bool {
        if !self.feasible(&req) {
            self.adm.refuse();
            self.sync_telemetry();
            return false;
        }
        let ok = self.adm.offer(req, now);
        self.sync_telemetry();
        ok
    }

    fn feasible(&self, req: &Request) -> bool {
        let total = req.prompt.len() + req.n_generate;
        !req.prompt.is_empty()
            && req.n_generate > 0
            && self.engine.pool().feasible(total)
            && total <= self.engine.max_seq()
    }

    /// Queued requests (not counting in-flight).
    pub fn queued(&self) -> usize {
        self.adm.pending()
    }

    /// The step engine (the front door reads epoch/restart counters).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The step engine, to reprice when the plan in force changes.
    pub(crate) fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Sequences in flight.
    pub fn in_flight(&self) -> usize {
        self.running.len()
    }

    /// Admission counters so far.
    pub fn stats(&self) -> AdmissionStats {
        self.adm.stats()
    }

    /// Current degradation rung.
    pub fn rung(&self) -> usize {
        self.engine.rung()
    }

    /// Every degradation-ladder transition taken so far (empty when
    /// degradation is off).
    pub fn transitions(&self) -> &[RungTransition] {
        self.degrade.as_ref().map_or(&[], |d| d.transitions())
    }

    /// One iteration: reap, join, interleave, reserve KV (preempting
    /// if needed), execute, retire. Returns what happened; `idle` when
    /// there was nothing to do.
    ///
    /// A distributed engine losing its ring mid-iteration surfaces as
    /// [`StepError::RingRestarted`]; the scheduler absorbs it here by
    /// requeueing every in-flight sequence for recompute (the engine
    /// rebuilds the ring lazily on the next call), so callers only ever
    /// see fatal errors.
    pub fn step(&mut self, now: f64) -> Result<StepOutcome, StepError> {
        match self.step_impl(now) {
            Err(StepError::RingRestarted) => Ok(self.recover_from_restart()),
            r => r,
        }
    }

    /// Requeue everything in flight after the engine lost its ring:
    /// drop the (now gone) KV, put the original requests back at the
    /// front of the queue, and charge one base iteration for the
    /// stall. Tokens already generated are preserved and resumed as a
    /// forced prefix when the sequence rejoins — re-sampling would
    /// only be bit-stable while the rung never changed, and a streaming
    /// consumer has already emitted them.
    pub(crate) fn recover_from_restart(&mut self) -> StepOutcome {
        let mut out = StepOutcome { recovered: self.running.len(), ..Default::default() };
        // Reverse order keeps the original join order once everything
        // is pushed back onto the front of the queue.
        for s in std::mem::take(&mut self.running).into_iter().rev() {
            // With the ring down the release inside is local bookkeeping
            // only; the worker-side slots were lost with the attempt.
            self.requeue(s, true);
        }
        self.adm.note_recovered(out.recovered);
        self.iterations += 1;
        out.cost_s = self.engine.iteration_cost_s(self.engine.rung(), 0, 0);
        self.sync_telemetry();
        out
    }

    fn step_impl(&mut self, now: f64) -> Result<StepOutcome, StepError> {
        let mut out = StepOutcome::default();
        self.adm.reap(now);
        out.expired_ids = self.adm.drain_expired_ids();
        for id in &out.expired_ids {
            self.carry.remove(id);
        }

        // Join: pull from the queue while batch slots and KV blocks
        // allow. Requiring room for prompt + 1 token means a feasible
        // request always joins an empty pool (no admit/preempt livelock).
        while self.running.len() < self.cfg.max_batch {
            let Some(req) = self.adm.take() else { break };
            if !self.feasible(&req) {
                self.carry.remove(&req.id);
                self.adm.note_shed(1);
                out.shed_ids.push(req.id);
                continue;
            }
            let preserved = self.carry.get(&req.id).map_or(0, |c| c.generated.len());
            if !self.engine.pool().can_fit(req.prompt.len() + preserved + 1) {
                self.adm.requeue_front(req);
                break;
            }
            if let Err(e) = self.engine.register(req.id as u64) {
                // The request is already out of the queue: put it back
                // before surfacing, or it would leak from conservation.
                self.adm.requeue_front(req);
                return Err(e);
            }
            // It joins: from here its `InFlight` owns its whole record.
            // A sequence restored after a ring restart resumes its
            // preserved tokens as a forced prefix (re-prefilled, never
            // re-sampled).
            let Carry { preempted, generated, ttft_s } =
                self.carry.remove(&req.id).unwrap_or_default();
            self.running.push(InFlight {
                req,
                prefilled: 0,
                resume_prefix: generated.len(),
                generated,
                ttft_s,
                preempted,
            });
        }

        if self.running.is_empty() {
            out.idle = true;
            self.sync_telemetry();
            return Ok(out);
        }

        // Phase-aware interleave: split the token budget between decode
        // steps (1 token each) and prefill chunks.
        let decode_ready: Vec<usize> =
            (0..self.running.len()).filter(|&i| self.running[i].decode_ready()).collect();
        let prefill_ready: Vec<usize> = (0..self.running.len())
            .filter(|&i| self.running[i].prefilled < self.running[i].prefill_target())
            .collect();
        let budget = self.cfg.token_budget;
        let (decode_budget, prefill_budget) = match self.cfg.policy {
            PhasePolicy::DecodeFirst => {
                let d = decode_ready.len().min(budget);
                (d, budget - d)
            }
            PhasePolicy::PrefillFirst => {
                let want: usize = prefill_ready
                    .iter()
                    .map(|&i| {
                        (self.running[i].prefill_target() - self.running[i].prefilled)
                            .min(self.cfg.prefill_chunk)
                    })
                    .sum();
                let p = want.min(budget);
                (budget - p, p)
            }
            PhasePolicy::Mixed { prefill_frac } => {
                let p_reserved = ((budget as f64 * prefill_frac).ceil() as usize).min(budget);
                let want: usize = prefill_ready
                    .iter()
                    .map(|&i| {
                        (self.running[i].prefill_target() - self.running[i].prefilled)
                            .min(self.cfg.prefill_chunk)
                    })
                    .sum();
                let p = p_reserved.min(want);
                let d = decode_ready.len().min(budget - p);
                // Spill unused decode budget back to prefill.
                (d, (budget - d).min(want))
            }
        };
        // Rotate the decode start index so budget-starved decodes make
        // progress in later iterations (no starvation).
        let mut decodes: Vec<usize> = Vec::with_capacity(decode_budget.min(decode_ready.len()));
        if !decode_ready.is_empty() && decode_budget > 0 {
            let start = (self.iterations as usize) % decode_ready.len();
            for k in 0..decode_ready.len() {
                if decodes.len() == decode_budget {
                    break;
                }
                decodes.push(decode_ready[(start + k) % decode_ready.len()]);
            }
        }
        // Prefill chunks in join (≈ queue) order.
        let mut prefills: Vec<(usize, usize)> = Vec::new(); // (slot, chunk_len)
        let mut p_left = prefill_budget;
        for &i in &prefill_ready {
            if p_left == 0 {
                break;
            }
            let remaining = self.running[i].prefill_target() - self.running[i].prefilled;
            let chunk = remaining.min(self.cfg.prefill_chunk).min(p_left);
            if chunk == 0 {
                break;
            }
            prefills.push((i, chunk));
            p_left -= chunk;
        }

        if decodes.is_empty() && prefills.is_empty() {
            // Every in-flight sequence is blocked (budget exhausted by
            // policy edge cases) — treat as one empty iteration to keep
            // time moving rather than deadlocking.
            out.idle = true;
            self.sync_telemetry();
            return Ok(out);
        }

        // Reserve KV for this iteration up front, preempting victims
        // (lowest priority, then latest joined) until everything fits.
        loop {
            let pool = self.engine.pool();
            let mut needed = 0usize;
            for &(i, chunk) in &prefills {
                needed += pool.blocks_needed(self.running[i].req.id as u64, chunk);
            }
            for &i in &decodes {
                needed += pool.blocks_needed(self.running[i].req.id as u64, 1);
            }
            if needed <= pool.free_blocks() {
                break;
            }
            let victim = self.pick_victim()?;
            self.preempt(victim, &mut prefills, &mut decodes);
        }

        // Execute: prefills first (they feed TTFT), then decodes.
        let rung = self.engine.rung();
        let mut p_tokens = 0usize;
        let mut d_tokens = 0usize;
        let mut first_landed: Vec<usize> = Vec::new();
        for &(i, chunk) in &prefills {
            let s = &self.running[i];
            let (id, lo) = (s.req.id as u64, s.prefilled);
            let tokens: Vec<usize> = (lo..lo + chunk).map(|p| s.prefix_token(p)).collect();
            // A restored sequence never samples at the end of its
            // prefix re-prefill: its next token input is the last
            // preserved token, fed through the decode path below.
            let is_last = s.resume_prefix == 0 && lo + chunk == s.req.prompt.len();
            let got = self.engine.prefill_chunk(id, &tokens, lo, is_last)?;
            let s = &mut self.running[i];
            s.prefilled += chunk;
            p_tokens += chunk;
            if let Some(tok) = got {
                s.generated.push(tok);
                out.landed.push((s.req.id, 0, tok));
                first_landed.push(i);
            }
        }
        for &i in &decodes {
            let s = &self.running[i];
            let last = *s.generated.last().expect("decode-ready has a token");
            let pos = s.req.prompt.len() + s.generated.len() - 1;
            let tok = self.engine.decode_one(s.req.id as u64, last, pos)?;
            let s = &mut self.running[i];
            s.generated.push(tok);
            out.landed.push((s.req.id, s.generated.len() - 1, tok));
            d_tokens += 1;
        }

        let mut cost = self.engine.iteration_cost_s(rung, p_tokens, d_tokens);
        let t_end = now + cost;
        self.iterations += 1;
        self.prefill_tokens += p_tokens as u64;
        self.occupancy_sum += self.running.len() as f64;
        self.peak_batch = self.peak_batch.max(self.running.len());
        self.kv_peak_occupancy = self.kv_peak_occupancy.max(self.engine.pool().occupancy());

        // First tokens land at the end of the iteration; a preempted
        // request keeps the TTFT of the token it already delivered.
        for &i in &first_landed {
            let s = &mut self.running[i];
            s.ttft_s.get_or_insert(t_end - s.req.arrival_s);
        }

        // Retire sequences that reached their requested length.
        let mut j = 0;
        while j < self.running.len() {
            if self.running[j].generated.len() >= self.running[j].req.n_generate {
                let s = self.running.swap_remove(j);
                self.engine.release(s.req.id as u64);
                self.adm.note_served(1);
                let fin = FinishedRequest {
                    id: s.req.id,
                    tokens: s.generated,
                    ttft_s: s.ttft_s.unwrap_or(0.0),
                    finish_s: t_end,
                    sojourn_s: t_end - s.req.arrival_s,
                    deadline_met: s.req.deadline_s.is_none_or(|d| t_end <= d),
                    preempted: s.preempted,
                };
                let t = &self.telemetry;
                t.record_ttft_us((fin.ttft_s * 1e6) as u64);
                let n = fin.tokens.len();
                if n > 1 {
                    t.record_tpot_us(
                        ((fin.sojourn_s - fin.ttft_s).max(0.0) * 1e6) as u64 / (n as u64 - 1),
                    );
                }
                t.record_request_us((fin.sojourn_s * 1e6) as u64);
                t.add_tokens(n as u64);
                self.retired.note(&fin);
                out.finished.push(fin);
            } else {
                j += 1;
            }
        }

        // Degradation rides queue pressure, swapping precision hot.
        if let Some(d) = &mut self.degrade {
            if let Some(rung) = d.observe(self.adm.pressure(), t_end) {
                cost += self.engine.set_rung(rung);
                self.rung_transitions += 1;
                out.rung_changed = Some(rung);
                self.telemetry.set_rung(rung);
            }
        }

        // Scheduled swaps fire at the same deterministic point as
        // degradation: the end of a non-idle iteration. On a
        // distributed engine this is a live plan migration at a
        // quiescent ring; requests keep flowing either side of it.
        while self
            .cfg
            .swaps
            .get(self.swaps_done)
            .is_some_and(|s| self.iterations >= s.at_iteration)
        {
            let target = self.cfg.swaps[self.swaps_done].rung;
            self.swaps_done += 1;
            if target != self.engine.rung() {
                cost += self.engine.set_rung(target);
                self.rung_transitions += 1;
                out.rung_changed = Some(target);
                self.telemetry.set_rung(target);
            }
        }

        out.cost_s = cost;
        self.sync_telemetry();
        Ok(out)
    }

    /// Victim for KV preemption: lowest priority, then latest joined
    /// (the back of `running`). Never the only sequence.
    fn pick_victim(&self) -> Result<usize, StepError> {
        if self.running.len() <= 1 {
            // Feasibility at admission guarantees a lone sequence fits;
            // getting here means the books are wrong.
            return Err(StepError::KvExhausted {
                needed: 1,
                free: self.engine.pool().free_blocks(),
            });
        }
        let mut best = 0usize;
        for i in 1..self.running.len() {
            let (a, b) = (&self.running[i].req, &self.running[best].req);
            if a.priority < b.priority || (a.priority == b.priority && i > best) {
                best = i;
            }
        }
        Ok(best)
    }

    fn preempt(&mut self, victim: usize, prefills: &mut Vec<(usize, usize)>, decodes: &mut Vec<usize>) {
        let s = self.running.swap_remove(victim);
        self.preemptions += 1;
        self.telemetry.note_preempted();
        // Recompute-style preemption: nothing generated is preserved;
        // greedy decoding regenerates the same tokens when it rejoins.
        self.requeue(s, false);
        // swap_remove moved the last slot into `victim`: fix indices.
        let moved = self.running.len(); // old index of the moved element
        prefills.retain_mut(|(i, _)| {
            if *i == victim {
                return false;
            }
            if *i == moved {
                *i = victim;
            }
            true
        });
        decodes.retain_mut(|i| {
            if *i == victim {
                return false;
            }
            if *i == moved {
                *i = victim;
            }
            true
        });
    }

    /// A live sequence leaves `running` unfinished: drop its KV, put the
    /// original request back at the front of the queue, and keep what
    /// its next incarnation needs — its tokens too if `keep_tokens` —
    /// for as long as it is queued.
    fn requeue(&mut self, s: InFlight, keep_tokens: bool) {
        self.engine.release(s.req.id as u64);
        let generated = if keep_tokens { s.generated } else { Vec::new() };
        self.carry.insert(
            s.req.id,
            Carry { preempted: s.preempted + 1, generated, ttft_s: s.ttft_s },
        );
        self.adm.requeue_front(s.req);
    }

    fn sync_telemetry(&self) {
        let (t, st) = (&self.telemetry, self.adm.stats());
        t.sync_shed(st.shed as u64);
        t.sync_expired(st.expired as u64);
        t.set_queue_pressure(self.adm.pressure());
        t.set_batch_occupancy(self.running.len() as u64);
        t.set_kv_occupancy(self.engine.pool().occupancy());
        t.set_inflight((self.adm.pending() + self.running.len()) as u64);
    }

    /// Replay `requests` (pre-sorted by `arrival_s`) on the virtual
    /// clock until every one is served, shed or expired; returns the
    /// makespan. Callers that need the live scheduler afterwards (rung
    /// [`transitions`](Self::transitions), engine restart counters)
    /// use this instead of [`serve_continuous`].
    pub fn run_trace(&mut self, requests: &[Request]) -> Result<f64, String> {
        self.run_trace_with(requests, |_| {})
    }

    /// [`run_trace`](Self::run_trace), handing every iteration's
    /// [`StepOutcome`] to `on_step` (the chaos harness collects landed
    /// tokens there for its stream-consistency check).
    pub(crate) fn run_trace_with(
        &mut self,
        requests: &[Request],
        mut on_step: impl FnMut(&StepOutcome),
    ) -> Result<f64, String> {
        let mut now = 0.0f64;
        let mut idx = 0usize;
        let mut makespan = 0.0f64;
        loop {
            while idx < requests.len() && requests[idx].arrival_s <= now + 1e-12 {
                self.offer(requests[idx].clone(), now);
                idx += 1;
            }
            let mut out = self.step(now).map_err(|e| e.to_string())?;
            on_step(&out);
            self.archive.append(&mut out.finished);
            if out.idle {
                if idx < requests.len() {
                    now = requests[idx].arrival_s;
                    continue;
                }
                if self.queued() == 0 && self.in_flight() == 0 {
                    return Ok(makespan);
                }
                return Err(format!(
                    "scheduler livelock: {} queued, {} in flight, nothing runnable",
                    self.queued(),
                    self.in_flight()
                ));
            }
            now += out.cost_s;
            makespan = now;
        }
    }

    /// Consume the scheduler into its end-of-run report. `outputs` and
    /// the latency summaries cover what [`run_trace`](Self::run_trace)
    /// replayed; a scheduler that was only stepped by hand has neither.
    pub fn into_report(self, makespan_s: f64, mode: &str) -> ContinuousReport {
        ContinuousReport {
            prefill_tokens: self.prefill_tokens,
            iterations: self.iterations,
            mean_batch_occupancy: if self.iterations > 0 {
                self.occupancy_sum / self.iterations as f64
            } else {
                0.0
            },
            peak_batch: self.peak_batch,
            kv_peak_occupancy: self.kv_peak_occupancy,
            kv_peak_blocks: self.engine.pool().stats().peak_blocks,
            preemptions: self.preemptions,
            rung_transitions: self.rung_transitions,
            ..ContinuousReport::from_finished(
                mode,
                self.adm.stats(),
                self.adm.pending() + self.running.len(),
                makespan_s,
                self.retired,
                self.archive,
            )
        }
    }
}

/// Replay a request trace under the virtual clock with continuous
/// batching. Requests must be pre-sorted by `arrival_s` (as
/// [`crate::overload::poisson_requests`] and
/// `workload::sample_arrivals` produce them).
pub fn serve_continuous<E: StepEngine>(
    engine: E,
    requests: &[Request],
    cfg: ContinuousConfig,
) -> Result<ContinuousReport, String> {
    let mut sched = ContinuousScheduler::new(engine, cfg)?;
    let makespan = sched.run_trace(requests)?;
    Ok(sched.into_report(makespan, "continuous"))
}

/// The static-batching baseline on the *same* engine, cost model, and
/// admission controller: accumulate up to `batch_size` requests (or
/// give up after `max_wait_s`), prefill them padded to the longest
/// prompt, then decode lock-step to the longest requested length —
/// exactly what the offline pipeline does per run. Finished sequences
/// keep burning decode slots (padding waste), nobody joins mid-flight.
pub fn serve_static<E: StepEngine>(
    mut engine: E,
    requests: &[Request],
    cfg: ContinuousConfig,
    batch_size: usize,
    max_wait_s: f64,
) -> Result<ContinuousReport, String> {
    if batch_size == 0 {
        return Err("batch_size must be at least 1".into());
    }
    let mut adm = AdmissionController::new(cfg.admission);
    let mut now = 0.0f64;
    let mut idx = 0usize;
    let mut makespan = 0.0f64;
    let mut retired = Retired::default();
    let mut outputs: Vec<FinishedRequest> = Vec::new();
    let mut prefill_tokens = 0u64;
    let mut iterations = 0u64;
    let mut occupancy_sum = 0.0f64;
    let mut peak_batch = 0usize;
    let mut kv_peak = 0.0f64;

    loop {
        while idx < requests.len() && requests[idx].arrival_s <= now + 1e-12 {
            let req = &requests[idx];
            let total = req.prompt.len() + req.n_generate;
            if req.prompt.is_empty()
                || req.n_generate == 0
                || !engine.pool().feasible(total)
                || total > engine.max_seq()
            {
                adm.refuse();
            } else {
                adm.offer(req.clone(), now);
            }
            idx += 1;
        }
        adm.reap(now);
        adm.drain_expired_ids();

        if adm.pending() == 0 {
            if idx >= requests.len() {
                break;
            }
            now = requests[idx].arrival_s;
            continue;
        }
        // Static window: wait for a full batch up to max_wait_s past
        // the moment the head request was ready — it had arrived and the
        // previous batch had finished.
        if adm.pending() < batch_size && idx < requests.len() {
            let head_ready = adm.head().map_or(now, |r| r.arrival_s.max(makespan));
            let closes = head_ready + max_wait_s;
            let next = requests[idx].arrival_s;
            if next <= closes {
                now = next;
                continue;
            }
            now = now.max(closes);
            adm.reap(now);
            adm.drain_expired_ids();
            if adm.pending() == 0 {
                continue;
            }
        }
        // Form the batch, bounded by size and by KV capacity (each
        // sequence rounds up to whole blocks on its own).
        let mut batch: Vec<Request> = Vec::new();
        let mut kv_blocks = 0usize;
        while batch.len() < batch_size {
            let Some(req) = adm.take() else { break };
            let need = engine.pool().blocks_for(req.prompt.len() + req.n_generate);
            if kv_blocks + need > engine.pool().free_blocks() {
                adm.requeue_front(req);
                break;
            }
            kv_blocks += need;
            batch.push(req);
        }
        if batch.is_empty() {
            return Err("static batch formation stalled: head request never fits".into());
        }
        let b = batch.len();
        let pad_prompt = batch.iter().map(|r| r.prompt.len()).max().unwrap();
        let pad_gen = batch.iter().map(|r| r.n_generate).max().unwrap();
        let rung = engine.rung();
        let start = now;

        // Prefill all, padded to the longest prompt (the padding is
        // *cost*, the KV holds only real tokens).
        let mut gens: Vec<Vec<usize>> = Vec::with_capacity(b);
        for req in &batch {
            engine.register(req.id as u64).map_err(|e| e.to_string())?;
            let first = engine
                .prefill_chunk(req.id as u64, &req.prompt, 0, true)
                .map_err(|e| e.to_string())?
                .expect("full prefill returns the first token");
            gens.push(vec![first]);
        }
        let prefill_cost = engine.iteration_cost_s(rung, pad_prompt * b, 0);
        prefill_tokens += (pad_prompt * b) as u64;
        iterations += 1;
        let t_first = start + prefill_cost;
        kv_peak = kv_peak.max(engine.pool().occupancy());

        // Lock-step decode to the longest request; finished sequences
        // still occupy their slot.
        let mut t_cursor = t_first;
        for _step in 1..pad_gen {
            for (req, gen) in batch.iter().zip(gens.iter_mut()) {
                if gen.len() < req.n_generate {
                    let last = *gen.last().unwrap();
                    let pos = req.prompt.len() + gen.len() - 1;
                    let tok = engine
                        .decode_one(req.id as u64, last, pos)
                        .map_err(|e| e.to_string())?;
                    gen.push(tok);
                }
            }
            t_cursor += engine.iteration_cost_s(rung, 0, b);
            iterations += 1;
            kv_peak = kv_peak.max(engine.pool().occupancy());
        }
        occupancy_sum += (b * pad_gen.max(1)) as f64;
        peak_batch = peak_batch.max(b);

        let end = t_cursor;
        for (req, gen) in batch.iter().zip(gens) {
            engine.release(req.id as u64);
            adm.note_served(1);
            let fin = FinishedRequest {
                id: req.id,
                tokens: gen,
                ttft_s: t_first - req.arrival_s,
                finish_s: end,
                sojourn_s: end - req.arrival_s,
                deadline_met: req.deadline_s.is_none_or(|d| end <= d),
                preempted: 0,
            };
            retired.note(&fin);
            outputs.push(fin);
        }
        now = end;
        makespan = end;
    }

    Ok(ContinuousReport {
        prefill_tokens,
        iterations,
        mean_batch_occupancy: if iterations > 0 { occupancy_sum / iterations as f64 } else { 0.0 },
        peak_batch,
        kv_peak_occupancy: kv_peak,
        kv_peak_blocks: engine.pool().stats().peak_blocks,
        ..ContinuousReport::from_finished("static", adm.stats(), adm.pending(), makespan, retired, outputs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::poisson_requests;

    fn sim_engine(n_blocks: usize) -> SimStepEngine {
        SimStepEngine::new(
            KvPoolConfig { n_blocks, block_tokens: 16 },
            IterCost::default_ladder(3),
            97,
            42,
        )
    }

    fn trace(n: usize, rate: f64, seed: u64) -> Vec<Request> {
        poisson_requests(n, rate, 24, 8, seed).unwrap()
    }

    #[test]
    fn completes_everything_and_conserves() {
        let report =
            serve_continuous(sim_engine(512), &trace(200, 50.0, 1), ContinuousConfig::default())
                .unwrap();
        assert!(report.conserves(), "conservation: {:?}", report.stats);
        assert_eq!(report.pending_end, 0);
        assert_eq!(
            report.completed + report.stats.shed + report.stats.expired,
            report.stats.offered
        );
        assert!(report.completed > 0);
    }

    #[test]
    fn tokens_match_the_oracle_exactly() {
        let reqs = trace(100, 80.0, 7);
        let report =
            serve_continuous(sim_engine(256), &reqs, ContinuousConfig::default()).unwrap();
        let by_id: HashMap<usize, &Request> = reqs.iter().map(|r| (r.id, r)).collect();
        assert!(!report.outputs.is_empty());
        for fin in &report.outputs {
            let req = by_id[&fin.id];
            assert_eq!(
                fin.tokens,
                sim_oracle_tokens(42, 97, &req.prompt, req.n_generate),
                "request {}",
                fin.id
            );
            assert_eq!(fin.tokens.len(), req.n_generate);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let reqs = trace(150, 60.0, 3);
        let a = serve_continuous(sim_engine(256), &reqs, ContinuousConfig::default()).unwrap();
        let b = serve_continuous(sim_engine(256), &reqs, ContinuousConfig::default()).unwrap();
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn kv_pressure_preempts_and_still_finishes_everything() {
        // A pool far too small for the offered concurrency: preemption
        // must kick in, and every request must still finish with
        // oracle-exact tokens.
        let cfg = ContinuousConfig { max_batch: 16, ..ContinuousConfig::default() };
        let reqs = trace(60, 500.0, 9);
        let report = serve_continuous(sim_engine(8), &reqs, cfg).unwrap();
        assert!(report.conserves());
        assert_eq!(report.pending_end, 0);
        assert!(report.preemptions > 0, "tiny pool must force preemption");
        let by_id: HashMap<usize, &Request> = reqs.iter().map(|r| (r.id, r)).collect();
        for fin in &report.outputs {
            let req = by_id[&fin.id];
            assert_eq!(fin.tokens, sim_oracle_tokens(42, 97, &req.prompt, req.n_generate));
        }
    }

    #[test]
    fn infeasible_requests_are_shed_not_livelocked() {
        let mut reqs = trace(10, 10.0, 5);
        // One request that can never fit the pool.
        reqs[3].prompt = vec![1; 16 * 600];
        let report =
            serve_continuous(sim_engine(512), &reqs, ContinuousConfig::default()).unwrap();
        assert!(report.conserves());
        assert!(report.stats.shed >= 1);
        assert_eq!(report.completed, 9);
    }

    #[test]
    fn continuous_beats_static_on_sojourn_under_dispersion() {
        // Mixed lengths + bursty arrivals: static padding and
        // run-to-longest must cost sojourn vs continuous.
        let reqs = trace(300, 120.0, 11);
        let cont = serve_continuous(sim_engine(1024), &reqs, ContinuousConfig::default())
            .unwrap();
        let stat =
            serve_static(sim_engine(1024), &reqs, ContinuousConfig::default(), 8, 0.5).unwrap();
        assert!(cont.conserves() && stat.conserves());
        let (cs, ss) = (cont.sojourn.unwrap(), stat.sojourn.unwrap());
        assert!(
            cs.mean < ss.mean,
            "continuous mean sojourn {} must beat static {}",
            cs.mean,
            ss.mean
        );
    }

    #[test]
    fn static_window_closes_max_wait_after_the_head_was_ready() {
        // Arrivals every 0.6 s against a 1 s window: the window opened by
        // the request at 0 closes at 1.0 with two requests, it does not
        // slide open again with each arrival until all four are in.
        let free = IterCost { base_s: 0.0, per_prefill_token_s: 0.0, per_decode_token_s: 0.0 };
        let pool = KvPoolConfig { n_blocks: 64, block_tokens: 16 };
        let engine = SimStepEngine::new(pool, vec![free], 97, 1);
        let reqs: Vec<Request> = [0.0, 0.6, 1.2, 1.8]
            .iter()
            .enumerate()
            .map(|(id, &arrival_s)| Request {
                id,
                arrival_s,
                prompt: vec![1, 2, 3],
                n_generate: 2,
                deadline_s: None,
                priority: 0,
            })
            .collect();
        let rep = serve_static(engine, &reqs, ContinuousConfig::default(), 4, 1.0).unwrap();
        let ttft: HashMap<usize, f64> = rep.outputs.iter().map(|f| (f.id, f.ttft_s)).collect();
        assert!((ttft[&0] - 1.0).abs() < 1e-12, "head TTFT {}", ttft[&0]);
        assert!((ttft[&1] - 0.4).abs() < 1e-12, "second TTFT {}", ttft[&1]);
        assert_eq!(rep.completed, 4);
    }

    #[test]
    fn static_and_continuous_generate_identical_tokens() {
        let reqs = trace(40, 30.0, 13);
        let cont =
            serve_continuous(sim_engine(512), &reqs, ContinuousConfig::default()).unwrap();
        let stat = serve_static(sim_engine(512), &reqs, ContinuousConfig::default(), 4, 0.5).unwrap();
        let mut a: Vec<_> = cont.outputs.iter().map(|f| (f.id, f.tokens.clone())).collect();
        let mut b: Vec<_> = stat.outputs.iter().map(|f| (f.id, f.tokens.clone())).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "batching policy must not change tokens");
    }

    #[test]
    fn phase_policies_all_complete_and_prefill_first_helps_ttft() {
        let reqs = trace(200, 100.0, 17);
        let mk = |policy| ContinuousConfig { policy, ..ContinuousConfig::default() };
        let df = serve_continuous(sim_engine(1024), &reqs, mk(PhasePolicy::DecodeFirst))
            .unwrap();
        let pf = serve_continuous(sim_engine(1024), &reqs, mk(PhasePolicy::PrefillFirst))
            .unwrap();
        let mx = serve_continuous(
            sim_engine(1024),
            &reqs,
            mk(PhasePolicy::Mixed { prefill_frac: 0.5 }),
        )
        .unwrap();
        for r in [&df, &pf, &mx] {
            assert!(r.conserves());
            assert_eq!(r.pending_end, 0);
        }
        // Prefill-first must not be worse on TTFT than decode-first.
        assert!(pf.ttft.unwrap().mean <= df.ttft.unwrap().mean * 1.25 + 1e-9);
    }

    #[test]
    fn degradation_rungs_engage_under_overload_and_recover() {
        let cfg = ContinuousConfig {
            admission: AdmissionConfig { max_queue: 32, ..AdmissionConfig::default() },
            degradation: Some(DegradationConfig { high: 0.5, low: 0.1, dwell: 2 }),
            token_budget: 64,
            max_batch: 8,
            ..ContinuousConfig::default()
        };
        // A burst far past capacity, then a quiet tail so pressure
        // decays while the loop still has observations to make.
        let mut reqs = trace(400, 2000.0, 19);
        let burst_end = reqs.last().unwrap().arrival_s;
        for (i, mut r) in trace(20, 5.0, 20).into_iter().enumerate() {
            r.id = 400 + i;
            r.arrival_s += burst_end + 1.0;
            reqs.push(r);
        }
        let mut sched = ContinuousScheduler::new(sim_engine(2048), cfg).unwrap();
        let makespan = sched.run_trace(&reqs).unwrap();
        let peak = sched.transitions().iter().map(|t| t.to).max().unwrap_or(0);
        assert!(peak >= 1, "sustained overload must climb the ladder");
        assert_eq!(sched.rung(), 0, "must recover when pressure clears: {:?}", sched.transitions());
        let report = sched.into_report(makespan, "continuous");
        assert!(report.conserves());
        assert!(report.rung_transitions >= 2, "down and back up");
    }

    #[test]
    fn deadline_shed_conserves_and_misses_show_up() {
        let cfg = ContinuousConfig {
            admission: AdmissionConfig {
                policy: crate::overload::AdmissionPolicy::DeadlineShed,
                default_deadline_s: Some(0.15),
                max_queue: 4096,
                ..AdmissionConfig::default()
            },
            ..ContinuousConfig::default()
        };
        let reqs = trace(500, 800.0, 23);
        let report = serve_continuous(sim_engine(1024), &reqs, cfg).unwrap();
        assert!(report.conserves());
        assert!(report.stats.expired > 0, "overload at 800 rps must expire something");
    }

    #[test]
    fn ten_k_concurrent_virtual_clock_run_holds_invariants() {
        // The acceptance-scale run: 10k requests at far-over-capacity
        // arrival rate, all in flight or queued concurrently.
        let cfg = ContinuousConfig {
            admission: AdmissionConfig { max_queue: 20_000, ..AdmissionConfig::default() },
            token_budget: 512,
            max_batch: 256,
            ..ContinuousConfig::default()
        };
        let reqs = poisson_requests(10_000, 5_000.0, 16, 4, 29).unwrap();
        let report = serve_continuous(sim_engine(8192), &reqs, cfg).unwrap();
        assert!(report.conserves(), "conservation at 10k: {:?}", report.stats);
        assert_eq!(report.pending_end, 0);
        assert_eq!(report.completed, 10_000, "no starvation: everything finishes");
        assert!(report.peak_batch > 64, "the batch must actually fill");
        // Spot-check oracle consistency on a sample.
        let by_id: HashMap<usize, &Request> = reqs.iter().map(|r| (r.id, r)).collect();
        for fin in report.outputs.iter().step_by(997) {
            let req = by_id[&fin.id];
            assert_eq!(fin.tokens, sim_oracle_tokens(42, 97, &req.prompt, req.n_generate));
        }
    }

    #[test]
    fn scheduler_step_api_reports_expired_ids() {
        let cfg = ContinuousConfig {
            admission: AdmissionConfig {
                policy: crate::overload::AdmissionPolicy::QueueTimeout,
                queue_timeout_s: 0.01,
                ..AdmissionConfig::default()
            },
            max_batch: 1,
            ..ContinuousConfig::default()
        };
        let mut sched = ContinuousScheduler::new(sim_engine(64), cfg).unwrap();
        for id in 0..3 {
            sched.offer(
                Request {
                    id,
                    arrival_s: 0.0,
                    prompt: vec![1, 2, 3],
                    n_generate: 2,
                    deadline_s: None,
                    priority: 1,
                },
                0.0,
            );
        }
        // Only one joins (max_batch = 1); jumping far past the queue
        // timeout must reap the two still queued, by id.
        let out = sched.step(0.0).unwrap();
        assert!(out.expired_ids.is_empty());
        let out = sched.step(10.0).unwrap();
        assert_eq!(out.expired_ids, vec![1, 2]);
        assert!(sched.stats().expired == 2);
    }

    /// Replay `reqs` through `offer` / `step` the way a caller that owns
    /// the clock does (the HTTP serve loop, the benchmark's direct
    /// drive), showing `on_step` the scheduler and each outcome; returns
    /// the makespan.
    fn step_by_hand(
        sched: &mut ContinuousScheduler<SimStepEngine>,
        reqs: &[Request],
        mut on_step: impl FnMut(&ContinuousScheduler<SimStepEngine>, StepOutcome),
    ) -> f64 {
        let (mut now, mut idx, mut makespan) = (0.0f64, 0usize, 0.0f64);
        loop {
            while idx < reqs.len() && reqs[idx].arrival_s <= now + 1e-12 {
                sched.offer(reqs[idx].clone(), now);
                idx += 1;
            }
            let out = sched.step(now).unwrap();
            let (idle, cost_s) = (out.idle, out.cost_s);
            on_step(sched, out);
            if !idle {
                now += cost_s;
                makespan = now;
            } else if idx < reqs.len() {
                now = reqs[idx].arrival_s;
            } else {
                return makespan;
            }
        }
    }

    #[test]
    fn a_requeued_request_that_dies_in_the_queue_leaves_nothing_behind() {
        // A pool too small for the batch forces preemption; deadlines a
        // few iterations long make some preempted requests expire while
        // they wait to run again. The carry must follow the queue: its
        // keys are queued ids after every step, and nothing is left of
        // it (or of anything else per request) at the end.
        let cfg = ContinuousConfig {
            admission: AdmissionConfig {
                policy: crate::overload::AdmissionPolicy::DeadlineShed,
                default_deadline_s: Some(0.04),
                max_queue: 4096,
                ..AdmissionConfig::default()
            },
            max_batch: 16,
            ..ContinuousConfig::default()
        };
        let reqs = trace(120, 500.0, 9);
        let mut sched = ContinuousScheduler::new(sim_engine(8), cfg).unwrap();
        let mut requeued: std::collections::HashSet<usize> = Default::default();
        let mut died_requeued = 0usize;
        let makespan = step_by_hand(&mut sched, &reqs, |sched, out| {
            died_requeued += out.expired_ids.iter().filter(|id| requeued.contains(id)).count();
            let queued: std::collections::HashSet<usize> = sched.adm.queued_ids().collect();
            for id in sched.carry.keys() {
                assert!(queued.contains(id), "carry holds {id}, which is not queued");
                requeued.insert(*id);
            }
        });
        assert!(sched.preemptions > 0, "the tiny pool must force preemption");
        assert!(died_requeued > 0, "no preempted request expired in the queue: tighten the deadline");
        assert_eq!((sched.queued(), sched.in_flight()), (0, 0));
        assert!(sched.carry.is_empty(), "left behind: {:?}", sched.carry);
        let report = sched.into_report(makespan, "continuous");
        assert!(report.conserves(), "{:?}", report.stats);
        assert!(report.completed > 0 && report.stats.expired > 0, "{:?}", report.stats);
    }

    #[test]
    fn a_hand_stepped_scheduler_keeps_no_history() {
        // 50 000 requests through `step` the way the HTTP serve loop
        // drives it: every finished request leaves in the outcome and
        // nothing per request stays behind. The counters agree with the
        // archive of a closed-trace run over the same requests.
        const N: usize = 50_000;
        let cfg = || ContinuousConfig {
            admission: AdmissionConfig { max_queue: 2 * N, ..AdmissionConfig::default() },
            token_budget: 512,
            max_batch: 256,
            ..ContinuousConfig::default()
        };
        let reqs = poisson_requests(N, 5_000.0, 16, 4, 31).unwrap();
        let traced = serve_continuous(sim_engine(8192), &reqs, cfg()).unwrap();
        assert_eq!(traced.outputs.len(), N);

        let mut sched = ContinuousScheduler::new(sim_engine(8192), cfg()).unwrap();
        let mut delivered = 0usize;
        let makespan = step_by_hand(&mut sched, &reqs, |_, out| delivered += out.finished.len());
        assert_eq!(delivered, N, "each request leaves exactly once, through the outcome");
        assert!(sched.carry.is_empty() && sched.running.is_empty() && sched.archive.is_empty());
        assert_eq!(sched.queued(), 0);
        let stepped = sched.into_report(makespan, "continuous");
        assert!(stepped.outputs.is_empty(), "the scheduler archived {}", stepped.outputs.len());
        assert!(stepped.conserves(), "{:?}", stepped.stats);
        assert_eq!(stepped.completed, N);
        assert_eq!(stepped.generated_tokens, traced.generated_tokens);
        assert_eq!(stepped.goodput_rps, traced.goodput_rps);
        assert_eq!(stepped.deadline_miss_rate, traced.deadline_miss_rate);
        assert_eq!((stepped.iterations, stepped.makespan_s), (traced.iterations, traced.makespan_s));
        assert!(stepped.ttft.is_none() && stepped.sojourn.is_none(), "no archive, no samples");
    }

    #[test]
    fn histogram_summary_is_ordered_and_in_seconds() {
        let h = crate::telemetry::LatencyHistogram::new();
        assert_eq!(LatencySummary::from_histogram_us(&h.snapshot()), None);
        for us in [1_000u64, 2_000, 3_000, 250_000] {
            h.record(us);
        }
        let l = LatencySummary::from_histogram_us(&h.snapshot()).unwrap();
        assert!(l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.max, "{l:?}");
        assert_eq!(l.max, 0.25);
        assert_eq!(l.mean, 0.064);
        assert!((0.001..=0.004).contains(&l.p50), "{l:?}");
    }

    #[test]
    fn oracle_is_chunking_invariant() {
        // Prefilling in chunks of 1 vs all-at-once gives identical
        // tokens (the e2e analog is chunked vs full prefill).
        let prompt: Vec<usize> = (0..37).map(|i| (i * 13) % 90).collect();
        let small_chunks = {
            let mut e = sim_engine(64);
            e.register(5).unwrap();
            let mut first = None;
            for (i, &t) in prompt.iter().enumerate() {
                first = e.prefill_chunk(5, &[t], i, i + 1 == prompt.len()).unwrap();
            }
            first.unwrap()
        };
        let bulk = {
            let mut e = sim_engine(64);
            e.register(5).unwrap();
            e.prefill_chunk(5, &prompt, 0, true).unwrap().unwrap()
        };
        assert_eq!(small_chunks, bulk);
        assert_eq!(bulk, sim_oracle_tokens(42, 97, &prompt, 1)[0]);
    }

    #[test]
    fn quantization_buys_kv_headroom_under_a_memory_budget() {
        // The packed-weights payoff online: under the same device
        // budget, an int4 ladder leaves more bytes for KV blocks than
        // an fp16 ladder — so the serve-path guard admits longer/more
        // sequences.
        use llmpq_model::{RefConfig, RefModel};
        use llmpq_quant::Bitwidth;
        let checkpoint = RefModel::new(RefConfig::tiny());
        let fp16 = vec![BitAssignment::uniform(checkpoint.cfg.n_layers, Bitwidth::Fp16)];
        let int4 = vec![BitAssignment::uniform(checkpoint.cfg.n_layers, Bitwidth::Int4)];
        let budget = 2 * 1024 * 1024;
        let e16 = ModelStepEngine::new_with_budget(
            &checkpoint, &fp16, Rounding::Deterministic, 0, 16, budget,
        )
        .unwrap();
        let e4 = ModelStepEngine::new_with_budget(
            &checkpoint, &int4, Rounding::Deterministic, 0, 16, budget,
        )
        .unwrap();
        assert!(
            e4.weight_resident_bytes() * 5 < e16.weight_resident_bytes(),
            "int4 weights {} should be well under a fifth of fp16 {}",
            e4.weight_resident_bytes(),
            e16.weight_resident_bytes()
        );
        assert!(
            e4.pool().free_blocks() > e16.pool().free_blocks(),
            "int4 pool {} blocks should exceed fp16 pool {}",
            e4.pool().free_blocks(),
            e16.pool().free_blocks()
        );
        // The carve-up actually respects the budget.
        let block = ModelStepEngine::kv_block_bytes(&checkpoint.cfg, 16);
        for e in [&e16, &e4] {
            assert!(e.weight_resident_bytes() + e.pool().free_blocks() * block <= budget);
        }
    }

    #[test]
    fn paged_forward_matches_contiguous_generate_across_block_edges() {
        // The engine computes on the block chain in place — keys k-major,
        // values as rows; the oracle on one contiguous cache. Same tokens
        // with chunks that straddle 16-position blocks, a pool of three
        // blocks, tight enough to preempt, and a sequence dropped
        // mid-prefill and recomputed.
        use llmpq_model::{RefConfig, RefModel};
        use llmpq_quant::{quantize_model, Bitwidth};
        let checkpoint = RefModel::new(RefConfig::tiny());
        let ladder = vec![BitAssignment::uniform(checkpoint.cfg.n_layers, Bitwidth::Int4)];
        let oracle = quantize_model(&checkpoint, &ladder[0], Rounding::Deterministic, 3);
        let want = |prompt: &[usize], n: usize| oracle.generate(prompt, n, 0.0, 0).tokens;
        let prompt =
            |id: usize, len: usize| -> Vec<usize> { (0..len).map(|p| (7 * id + 13 * p + 1) % 96).collect() };
        // Prefill in `chunk`-token pieces, then decode up to `n` tokens.
        fn drive(e: &mut ModelStepEngine, seq: u64, prompt: &[usize], chunk: usize, n: usize) -> Vec<usize> {
            let mut out = Vec::new();
            for (c, piece) in prompt.chunks(chunk).enumerate() {
                let is_last = (c + 1) * chunk >= prompt.len();
                out.extend(e.prefill_chunk(seq, piece, c * chunk, is_last).unwrap());
            }
            while out.len() < n {
                let pos = prompt.len() + out.len() - 1;
                out.push(e.decode_one(seq, *out.last().unwrap(), pos).unwrap());
            }
            out
        }
        // 48 positions of KV in all.
        let pool = KvPoolConfig { n_blocks: 3, block_tokens: 16 };
        let engine = || ModelStepEngine::new(&checkpoint, &ladder, Rounding::Deterministic, 3, pool).unwrap();

        // Under the scheduler: five requests of 18–30 positions.
        let reqs: Vec<Request> = (0..5)
            .map(|id| Request {
                id,
                arrival_s: 0.0,
                prompt: prompt(id, 11 + 3 * id),
                n_generate: 7,
                deadline_s: None,
                priority: 0,
            })
            .collect();
        let cfg = ContinuousConfig { prefill_chunk: 5, token_budget: 12, max_batch: 4, ..Default::default() };
        let report = serve_continuous(engine(), &reqs, cfg).unwrap();
        assert_eq!(report.completed, 5);
        assert!(report.preemptions > 0, "the pool must force preemption");
        for fin in &report.outputs {
            assert_eq!(fin.tokens, want(&reqs[fin.id].prompt, 7), "request {}", fin.id);
        }

        // By hand: sequence 1 is 7 tokens into its prompt when
        // sequence 2 takes the rest of the pool.
        let (a, b) = (prompt(8, 20), prompt(9, 30));
        let mut e = engine();
        e.register(1).unwrap();
        e.register(2).unwrap();
        assert_eq!(e.prefill_chunk(1, &a[..7], 0, false).unwrap(), None);
        let b_first = e.prefill_chunk(2, &b, 0, true).unwrap().unwrap();
        // The next chunk does not fit: refused before anything is
        // computed, chain and arenas untouched.
        let bits = |e: &ModelStepEngine| -> Vec<u32> {
            let (k, v) = e.store().arenas();
            k.iter().chain(v).flatten().map(|x| x.to_bits()).collect()
        };
        let before = bits(&e);
        let blocks = e.pool().blocks_of(1).unwrap().to_vec();
        let refused = e.prefill_chunk(1, &a[7..], 7, true).unwrap_err();
        assert!(matches!(refused, StepError::KvExhausted { .. }), "{refused:?}");
        assert_eq!(e.pool().tokens_of(1), Some(7));
        assert_eq!(e.pool().blocks_of(1).unwrap(), blocks);
        assert!(bits(&e) == before, "the arenas changed");
        // Preempt it mid-prefill; sequence 2 decodes on into the block
        // it gave back, whose slots still hold sequence 1's rows; then
        // recompute it from the start.
        e.release(1);
        let mut b_out = vec![b_first];
        while b_out.len() < 6 {
            let pos = b.len() + b_out.len() - 1;
            b_out.push(e.decode_one(2, *b_out.last().unwrap(), pos).unwrap());
        }
        assert_eq!(b_out, want(&b, 6));
        e.release(2);
        e.register(1).unwrap();
        assert_eq!(drive(&mut e, 1, &a, 5, 5), want(&a, 5));
    }

    #[test]
    fn the_model_engine_refuses_blocks_other_than_sixteen_positions() {
        // An error naming the store's rule, not the store's panic.
        use llmpq_model::{RefConfig, RefModel};
        use llmpq_quant::Bitwidth;
        let checkpoint = RefModel::new(RefConfig::tiny());
        let ladder = vec![BitAssignment::uniform(checkpoint.cfg.n_layers, Bitwidth::Int4)];
        for block_tokens in [0, 1, 4, 15, 17, 32] {
            let pool = KvPoolConfig { n_blocks: 8, block_tokens };
            let err = ModelStepEngine::new(&checkpoint, &ladder, Rounding::Deterministic, 3, pool).map(|_| ());
            assert_eq!(err, PagedKvStore::check_block_tokens(block_tokens));
            let err = ModelStepEngine::new_with_budget(
                &checkpoint, &ladder, Rounding::Deterministic, 3, block_tokens, 1 << 24,
            )
            .map(|_| ());
            assert_eq!(err, PagedKvStore::check_block_tokens(block_tokens));
            assert!(err.is_err());
        }
    }

    #[test]
    fn three_rung_engine_holds_one_head() {
        // Every rung is a set of layers from the stage loader; the
        // embeddings, positional table and final norm exist once and
        // serve whichever rung is live.
        use llmpq_model::{RefConfig, RefModel};
        use llmpq_quant::{quantize_model, Bitwidth};
        let checkpoint = RefModel::new(RefConfig::tiny());
        let ladder: Vec<BitAssignment> = [Bitwidth::Fp16, Bitwidth::Int8, Bitwidth::Int4]
            .iter()
            .map(|&b| BitAssignment::uniform(checkpoint.cfg.n_layers, b))
            .collect();
        let pool = KvPoolConfig { n_blocks: 8, block_tokens: 16 };
        let mut e = ModelStepEngine::new(&checkpoint, &ladder, Rounding::Deterministic, 3, pool).unwrap();
        assert_eq!(e.head, ModelHead::of(&checkpoint));
        assert_eq!((e.n_rungs(), e.rungs.len()), (3, 3));
        let prompt = [3usize, 1, 4, 1, 5, 9, 2, 6];
        let mut layer_bytes = 0usize;
        for (rung, a) in ladder.iter().enumerate() {
            let oracle = quantize_model(&checkpoint, a, Rounding::Deterministic, 3);
            assert_eq!(e.rungs[rung], oracle.layers, "rung {rung}");
            layer_bytes += oracle.layers.iter().map(|l| l.resident_weight_bytes()).sum::<usize>();
            e.set_rung(rung);
            let seq = rung as u64;
            e.register(seq).unwrap();
            let mut out = vec![e.prefill_chunk(seq, &prompt, 0, true).unwrap().unwrap()];
            while out.len() < 5 {
                let pos = prompt.len() + out.len() - 1;
                out.push(e.decode_one(seq, *out.last().unwrap(), pos).unwrap());
            }
            e.release(seq);
            assert_eq!(out, oracle.generate(&prompt, 5, 0.0, 0).tokens, "rung {rung}");
        }
        assert_eq!(e.weight_resident_bytes(), layer_bytes, "layers only, all rungs");
    }

    #[test]
    fn budget_too_small_for_weights_is_an_error() {
        use llmpq_model::{RefConfig, RefModel};
        use llmpq_quant::Bitwidth;
        let checkpoint = RefModel::new(RefConfig::tiny());
        let ladder = vec![BitAssignment::uniform(checkpoint.cfg.n_layers, Bitwidth::Fp16)];
        let err = ModelStepEngine::new_with_budget(
            &checkpoint, &ladder, Rounding::Deterministic, 0, 16, 1024,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.contains("memory budget"), "{err}");
    }

    #[test]
    fn fitted_iter_cost_reproduces_the_batch_costs() {
        let (c1, cb, b, p, g) = (1.8, 2.5, 8usize, 32usize, 32usize);
        let c = IterCost::fit_batch(c1, cb, b, p, g);
        let lockstep = |n: usize| c.cost(n * p, 0) + (g - 1) as f64 * c.cost(0, n);
        assert!((lockstep(1) - c1).abs() < 1e-9);
        assert!((lockstep(b) - cb).abs() < 1e-9);
    }

    #[test]
    fn trace_fit_prices_batches_at_the_trace_mean_shape() {
        // Prompts of 10 and 31 tokens, 4 and 7 generated: the mean shape
        // is (21, 6) after rounding, asked at batch 1 and batch 4.
        let reqs: Vec<Request> = [(10, 4), (31, 7)]
            .iter()
            .enumerate()
            .map(|(id, &(p, g))| Request {
                id,
                arrival_s: 0.0,
                prompt: vec![1; p],
                n_generate: g,
                deadline_s: None,
                priority: 0,
            })
            .collect();
        let asked = std::cell::RefCell::new(Vec::new());
        let latency = |job: &BatchJob| {
            asked.borrow_mut().push(*job);
            0.5 + 0.25 * job.global_batch as f64
        };
        let c = IterCost::fit_trace(&reqs, 4, latency);
        let shape = |global_batch| BatchJob { global_batch, prompt_len: 21, n_generate: 6 };
        assert_eq!(*asked.borrow(), vec![shape(1), shape(4)]);
        assert_eq!(c, IterCost::fit_batch(0.75, 1.5, 4, 21, 6));
    }

    #[test]
    fn phase_policy_parses() {
        assert_eq!("decode-first".parse::<PhasePolicy>().unwrap(), PhasePolicy::DecodeFirst);
        assert_eq!("prefill-first".parse::<PhasePolicy>().unwrap(), PhasePolicy::PrefillFirst);
        assert_eq!(
            "mixed:0.25".parse::<PhasePolicy>().unwrap(),
            PhasePolicy::Mixed { prefill_frac: 0.25 }
        );
        assert!("mixed:1.5".parse::<PhasePolicy>().is_err());
        assert!("bogus".parse::<PhasePolicy>().is_err());
    }
}
