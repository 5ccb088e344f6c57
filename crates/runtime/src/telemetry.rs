//! Per-stage observability for the pipeline runtime.
//!
//! The paper evaluates its runtime through end-to-end latency and
//! throughput tables only (Tables 4–8); a production pipeline needs
//! *per-stage* visibility to find stragglers, validate the §4.1 cost
//! model against observed stage times, and feed the
//! [`supervisor`](crate::supervisor) real signals instead of heartbeats
//! alone. This module provides that layer:
//!
//! * **Lock-free metric recorders** ([`StageRecorder`]) — one per
//!   pipeline stage, holding log-bucketed latency histograms
//!   ([`LatencyHistogram`], p50/p95/p99 per phase), input-queue depth
//!   gauges with peak tracking, KV-cache occupancy, item/sequence
//!   counters and busy time. All counters are plain atomics, so workers
//!   never contend on a lock in the hot path.
//! * **Span-style structured tracing** ([`Span`]) of every micro-batch's
//!   lifecycle through every stage — `wait` (enqueue → dequeue),
//!   `compute`, and `send` — tagged with the generative phase
//!   (prefill/decode), the stage's bitwidths, and the global step id.
//! * **Two exporters**: [`Telemetry::to_chrome_trace`] emits Chrome
//!   `trace_event` JSON loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev), and
//!   [`Telemetry::metrics_text`] renders a plain-text snapshot with
//!   per-stage percentiles, throughput, and the supervisor's restart and
//!   replan counters.
//!
//! The cost-model cross-check that compares these observed stage times
//! against the analytical prediction lives in `llmpq-cost`
//! (`fidelity::stage_crosscheck`), keeping this crate free of the cost
//! models; `llmpq-dist --trace-out/--metrics-out` wires the two
//! together so every distributed run doubles as a cost-model fidelity
//! experiment.

use crate::clock::{real_clock, Clock};
use llm_pq::PlanOrigin;
use llmpq_model::Phase;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of power-of-two latency buckets: bucket 0 holds `0 µs`,
/// bucket `k ≥ 1` holds `[2^(k-1), 2^k)` µs. 40 buckets cover up to
/// ~2^39 µs ≈ 6 days, far beyond any run.
const N_BUCKETS: usize = 40;

/// A lock-free latency histogram over power-of-two microsecond buckets.
///
/// Recording is a handful of relaxed atomic adds; percentile queries
/// ([`LatencyHistogram::percentile`]) interpolate within the winning
/// bucket and clamp to the exact observed `[min, max]`, so single-sample
/// histograms report the sample itself. Querying while writers are
/// active yields a slightly stale but internally consistent-enough
/// snapshot (the exporters run after the pipeline drains).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    min_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
        }
    }
}

/// An immutable copy of a histogram's state, on which the percentile
/// math runs. Snapshots of different histograms can be merged to get
/// all-phase percentiles from per-phase recorders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; N_BUCKETS],
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded values, µs.
    pub sum_us: u64,
    /// Smallest recorded value, µs (`u64::MAX` when empty).
    pub min_us: u64,
    /// Largest recorded value, µs (0 when empty).
    pub max_us: u64,
}

fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(N_BUCKETS - 1)
    }
}

/// Inclusive value range covered by bucket `b`.
fn bucket_bounds(b: usize) -> (u64, u64) {
    if b == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (b - 1);
        let hi = if b == N_BUCKETS - 1 { u64::MAX } else { (1u64 << b) - 1 };
        (lo, hi)
    }
}

impl LatencyHistogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample in microseconds. Lock-free.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.min_us.fetch_min(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state for percentile queries and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; N_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            min_us: self.min_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }

    /// Percentile in microseconds; see [`HistogramSnapshot::percentile`].
    pub fn percentile(&self, p: f64) -> Option<f64> {
        self.snapshot().percentile(p)
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (identity for [`HistogramSnapshot::merge`]).
    pub fn empty() -> Self {
        Self { buckets: [0; N_BUCKETS], count: 0, sum_us: 0, min_us: u64::MAX, max_us: 0 }
    }

    /// Combine two snapshots (e.g. prefill + decode → all phases).
    pub fn merge(&self, other: &Self) -> Self {
        let mut buckets = [0u64; N_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i] + other.buckets[i];
        }
        Self {
            buckets,
            count: self.count + other.count,
            sum_us: self.sum_us + other.sum_us,
            min_us: self.min_us.min(other.min_us),
            max_us: self.max_us.max(other.max_us),
        }
    }

    /// Estimate the `p`-th percentile (`p ∈ [0, 1]`) in microseconds.
    ///
    /// Returns `None` for an empty histogram. The estimate interpolates
    /// linearly inside the winning power-of-two bucket and is clamped to
    /// the exact observed `[min, max]`, so a single-sample histogram
    /// returns that sample exactly, for every `p`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        // 1-based rank of the order statistic we want.
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank <= seen + c {
                let (lo, hi) = bucket_bounds(b);
                let within = (rank - seen) as f64 / c as f64; // (0, 1]
                let est = lo as f64 + (hi.saturating_sub(lo)) as f64 * within;
                return Some(est.clamp(self.min_us as f64, self.max_us as f64));
            }
            seen += c;
        }
        // Unreachable when counters are consistent; fall back to max.
        Some(self.max_us as f64)
    }

    /// Mean of the recorded samples, µs.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_us as f64 / self.count as f64)
    }
}

/// Execution counters of one stage: the snapshot
/// [`StageRecorder::snapshot`] returns, and what a stage process ships
/// home in its end-of-run report. Cumulative over every attempt the
/// recorder lived through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Work items processed (micro-batch × step units).
    pub items: usize,
    /// Sequence-forwards executed (items × sequences per item).
    pub seq_forwards: usize,
    /// Seconds spent computing (excludes channel waits).
    pub busy_s: f64,
}

/// Lock-free per-stage metric recorder — the one place a stage worker
/// counts its work.
///
/// One lives per pipeline stage inside a [`Telemetry`]; the stage's
/// worker thread updates it with relaxed atomics on every work item.
#[derive(Debug)]
pub struct StageRecorder {
    /// Compute latency of prefill work items.
    pub prefill_latency: LatencyHistogram,
    /// Compute latency of decode work items.
    pub decode_latency: LatencyHistogram,
    /// Items currently sitting in (or in flight toward) this stage's
    /// input queue.
    queue_depth: AtomicI64,
    /// High-water mark of `queue_depth`.
    queue_peak: AtomicI64,
    /// Work items processed.
    items: AtomicU64,
    /// Sequence-forwards executed (items × sequences per item).
    seq_forwards: AtomicU64,
    /// Busy time, µs (compute only, excludes channel waits).
    busy_us: AtomicU64,
    /// Current KV-cache occupancy: cached positions summed over every
    /// in-flight sequence × local layers.
    kv_entries: AtomicU64,
    /// Times the supervisor restarted an attempt after this stage was
    /// implicated in a failure.
    restarts: AtomicU64,
}

impl Default for StageRecorder {
    fn default() -> Self {
        Self {
            prefill_latency: LatencyHistogram::new(),
            decode_latency: LatencyHistogram::new(),
            queue_depth: AtomicI64::new(0),
            queue_peak: AtomicI64::new(0),
            items: AtomicU64::new(0),
            seq_forwards: AtomicU64::new(0),
            busy_us: AtomicU64::new(0),
            kv_entries: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        }
    }
}

impl StageRecorder {
    /// A work item was sent toward this stage.
    pub fn on_enqueue(&self) {
        let d = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(d, Ordering::Relaxed);
    }

    /// The stage's worker picked an item off its input queue.
    pub fn on_dequeue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// The worker finished computing an item: record its latency under
    /// the right phase histogram and bump the work counters.
    pub fn on_compute(&self, phase: Phase, compute_us: u64, n_seqs: usize) {
        match phase {
            Phase::Prefill => self.prefill_latency.record(compute_us),
            Phase::Decode => self.decode_latency.record(compute_us),
        }
        self.items.fetch_add(1, Ordering::Relaxed);
        self.seq_forwards.fetch_add(n_seqs as u64, Ordering::Relaxed);
        self.busy_us.fetch_add(compute_us, Ordering::Relaxed);
    }

    /// Update the KV-occupancy gauge (cached positions × local layers).
    pub fn set_kv_entries(&self, entries: u64) {
        self.kv_entries.store(entries, Ordering::Relaxed);
    }

    /// Count one supervisor restart against this stage.
    pub fn on_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Work items processed.
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// Sequence-forwards executed.
    pub fn seq_forwards(&self) -> u64 {
        self.seq_forwards.load(Ordering::Relaxed)
    }

    /// Busy (compute) seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_us.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// High-water mark of the input queue depth.
    pub fn queue_peak(&self) -> u64 {
        self.queue_peak.load(Ordering::Relaxed).max(0) as u64
    }

    /// Current KV-cache occupancy gauge.
    pub fn kv_entries(&self) -> u64 {
        self.kv_entries.load(Ordering::Relaxed)
    }

    /// Supervisor restarts attributed to this stage.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// The work counters as one plain value.
    pub fn snapshot(&self) -> StageMetrics {
        StageMetrics {
            items: self.items() as usize,
            seq_forwards: self.seq_forwards() as usize,
            busy_s: self.busy_s(),
        }
    }

    /// Fold a remote stage's reported work counters into this recorder
    /// (additive; its latency histograms stay the ones counted here).
    pub fn merge(&self, m: &StageMetrics) {
        self.items.fetch_add(m.items as u64, Ordering::Relaxed);
        self.seq_forwards.fetch_add(m.seq_forwards as u64, Ordering::Relaxed);
        self.busy_us.fetch_add((m.busy_s * 1e6).round() as u64, Ordering::Relaxed);
    }

    /// Combined prefill + decode latency distribution.
    pub fn latency_all(&self) -> HistogramSnapshot {
        self.prefill_latency.snapshot().merge(&self.decode_latency.snapshot())
    }
}

/// Immutable copy of one link's transfer counters — what a remote stage
/// ships home in its end-of-run report, and what the
/// `cost::fidelity` link cross-check consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Bytes written to the link (frame headers included).
    pub bytes_tx: u64,
    /// Bytes read from the link (frame headers included).
    pub bytes_rx: u64,
    /// Frames written.
    pub frames_tx: u64,
    /// Frames read.
    pub frames_rx: u64,
    /// Microseconds spent serializing + writing outbound frames — the
    /// observed transfer time the α-β interconnect model predicts.
    pub comm_us: u64,
    /// Inbound frames rejected by checksum or framing validation.
    pub corrupt_frames: u64,
}

impl LinkStats {
    /// Observed outbound transfer time in seconds.
    pub fn comm_s(&self) -> f64 {
        self.comm_us as f64 / 1e6
    }
}

/// Lock-free transfer counters for one inter-stage link.
///
/// Link `i` is the edge *into* stage `i`: link 0 is master → stage 0,
/// link `n` (for an `n`-stage pipeline) is the last stage → master. The
/// sender of a link bumps its `tx` side, the receiver the `rx` side; in
/// a single-process run both live in the same [`Telemetry`], while in a
/// multi-process run each side counts locally and the master merges the
/// stage reports at shutdown ([`LinkRecorder::merge`]).
#[derive(Debug, Default)]
pub struct LinkRecorder {
    bytes_tx: AtomicU64,
    bytes_rx: AtomicU64,
    frames_tx: AtomicU64,
    frames_rx: AtomicU64,
    comm_us: AtomicU64,
    corrupt_frames: AtomicU64,
}

impl LinkRecorder {
    /// One frame of `bytes` was written to the link.
    pub fn on_tx(&self, bytes: u64) {
        self.bytes_tx.fetch_add(bytes, Ordering::Relaxed);
        self.frames_tx.fetch_add(1, Ordering::Relaxed);
    }

    /// One frame of `bytes` was read off the link.
    pub fn on_rx(&self, bytes: u64) {
        self.bytes_rx.fetch_add(bytes, Ordering::Relaxed);
        self.frames_rx.fetch_add(1, Ordering::Relaxed);
    }

    /// Account `us` microseconds of outbound serialize+write time.
    pub fn add_comm_us(&self, us: u64) {
        self.comm_us.fetch_add(us, Ordering::Relaxed);
    }

    /// An inbound frame failed checksum or framing validation.
    pub fn on_corrupt(&self) {
        self.corrupt_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Immutable copy of the counters.
    pub fn snapshot(&self) -> LinkStats {
        LinkStats {
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            frames_tx: self.frames_tx.load(Ordering::Relaxed),
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            comm_us: self.comm_us.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
        }
    }

    /// Fold a remote side's counters into this recorder (additive).
    pub fn merge(&self, s: &LinkStats) {
        self.bytes_tx.fetch_add(s.bytes_tx, Ordering::Relaxed);
        self.bytes_rx.fetch_add(s.bytes_rx, Ordering::Relaxed);
        self.frames_tx.fetch_add(s.frames_tx, Ordering::Relaxed);
        self.frames_rx.fetch_add(s.frames_rx, Ordering::Relaxed);
        self.comm_us.fetch_add(s.comm_us, Ordering::Relaxed);
        self.corrupt_frames.fetch_add(s.corrupt_frames, Ordering::Relaxed);
    }
}

/// One traced interval of a micro-batch's lifecycle on one pipeline
/// actor (the master, or a stage worker).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace thread id: 0 is the master, stage *s* is `s + 1`.
    pub tid: usize,
    /// Interval kind: `"wait"` (enqueue → dequeue), `"compute"`,
    /// `"send"`, `"sample"` (master-side logits + sampling), or
    /// `"comm"` (wire transfer of one frame on a TCP link).
    pub name: &'static str,
    /// Generative phase of the work item.
    pub phase: Phase,
    /// Start, µs since the telemetry epoch.
    pub ts_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Global step id of the work item.
    pub step: u64,
    /// Micro-batch id of the work item.
    pub microbatch: usize,
    /// Bitwidths of the stage that produced the span (empty for the
    /// master).
    pub bits: Arc<str>,
}

impl Span {
    /// Pipeline stage this span ran on (`None` for the master).
    pub fn stage(&self) -> Option<usize> {
        self.tid.checked_sub(1)
    }
}

/// Shared observability hub for one pipeline run (plus its supervised
/// restarts). Create with [`Telemetry::new`], pass to
/// [`Pipeline::telemetry`](crate::Pipeline::telemetry), then export with
/// [`Telemetry::to_chrome_trace`] and [`Telemetry::metrics_text`].
pub struct Telemetry {
    clock: Arc<dyn Clock>,
    stages: Vec<StageRecorder>,
    /// Per-link transfer counters: `n_stages + 1` edges, link `i` being
    /// the edge into stage `i` and the last the return to the master.
    links: Vec<LinkRecorder>,
    /// `None` on a counters-only hub: the span list is the one part of a
    /// hub that grows without bound, so only a hub its caller created to
    /// trace into keeps one.
    spans: Option<Mutex<Vec<Span>>>,
    restarts: AtomicU64,
    replans: AtomicU64,
    // Plan provenance (see `PlanOrigin`): how many installed
    // plans came from the exact solver, the Algorithm-2 heuristic
    // fallback, and the warm-started incremental path.
    plans_ilp: AtomicU64,
    plans_heuristic: AtomicU64,
    plans_warm: AtomicU64,
    // Fleet-health alarm: replans refused because the surviving fleet
    // cannot hold the model even at the lowest rung (the old plan was
    // held instead).
    fleet_infeasible: AtomicU64,
    tokens: AtomicU64,
    // Overload-control signals (see `crate::overload`).
    shed: AtomicU64,
    expired: AtomicU64,
    preempted: AtomicU64,
    rung: AtomicU64,
    rung_peak: AtomicU64,
    queue_pressure_milli: AtomicU64,
    queue_pressure_peak_milli: AtomicU64,
    // Live plan-migration signals (see `crate::migrate`).
    swap_latency: LatencyHistogram,
    epoch: AtomicU64,
    kv_migrated_bytes: AtomicU64,
    swaps: AtomicU64,
    migration_aborts: AtomicU64,
    // Continuous-batching serving signals (see `crate::serve`).
    ttft: LatencyHistogram,
    tpot: LatencyHistogram,
    request_latency: LatencyHistogram,
    batch_occupancy: AtomicU64,
    batch_occupancy_peak: AtomicU64,
    kv_occupancy_milli: AtomicU64,
    kv_occupancy_peak_milli: AtomicU64,
    inflight: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("stages", &self.stages.len())
            .field("links", &self.links.len())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Telemetry for a pipeline of `n_stages` stages. Replanning after
    /// device loss only ever *shrinks* the pipeline, so the initial
    /// stage count is the high-water mark. Timestamps are wall-clock,
    /// with epoch = creation.
    pub fn new(n_stages: usize) -> Arc<Self> {
        Self::with_clock(n_stages, real_clock())
    }

    /// Telemetry stamping spans from `clock` — under [`crate::simnet`]
    /// every span carries a *virtual* timestamp, so traces from a
    /// simulated run are deterministic too.
    pub fn with_clock(n_stages: usize, clock: Arc<dyn Clock>) -> Arc<Self> {
        Self::build(n_stages, clock, Some(Mutex::new(Vec::new())))
    }

    /// The hub a ring makes for itself when its caller passed none:
    /// every counter, gauge and histogram, and no span list — nobody
    /// holds the handle that could export one.
    pub(crate) fn counters_only(n_stages: usize, clock: Arc<dyn Clock>) -> Arc<Self> {
        Self::build(n_stages, clock, None)
    }

    fn build(n_stages: usize, clock: Arc<dyn Clock>, spans: Option<Mutex<Vec<Span>>>) -> Arc<Self> {
        Arc::new(Self {
            clock,
            stages: (0..n_stages).map(|_| StageRecorder::default()).collect(),
            links: (0..=n_stages).map(|_| LinkRecorder::default()).collect(),
            spans,
            restarts: AtomicU64::new(0),
            replans: AtomicU64::new(0),
            plans_ilp: AtomicU64::new(0),
            plans_heuristic: AtomicU64::new(0),
            plans_warm: AtomicU64::new(0),
            fleet_infeasible: AtomicU64::new(0),
            tokens: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            preempted: AtomicU64::new(0),
            rung: AtomicU64::new(0),
            rung_peak: AtomicU64::new(0),
            queue_pressure_milli: AtomicU64::new(0),
            queue_pressure_peak_milli: AtomicU64::new(0),
            swap_latency: LatencyHistogram::new(),
            epoch: AtomicU64::new(0),
            kv_migrated_bytes: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            migration_aborts: AtomicU64::new(0),
            ttft: LatencyHistogram::new(),
            tpot: LatencyHistogram::new(),
            request_latency: LatencyHistogram::new(),
            batch_occupancy: AtomicU64::new(0),
            batch_occupancy_peak: AtomicU64::new(0),
            kv_occupancy_milli: AtomicU64::new(0),
            kv_occupancy_peak_milli: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
        })
    }

    /// Microseconds elapsed since this telemetry's clock epoch.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Number of stage recorders.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// The recorder of stage `i`, if in range.
    pub fn stage(&self, i: usize) -> Option<&StageRecorder> {
        self.stages.get(i)
    }

    /// Number of link recorders (`n_stages + 1`).
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// The transfer counters of link `i` (the edge *into* stage `i`;
    /// the last link is the return edge to the master), if in range.
    pub fn link(&self, i: usize) -> Option<&LinkRecorder> {
        self.links.get(i)
    }

    /// Snapshot of every link's counters, in link order.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.links.iter().map(LinkRecorder::snapshot).collect()
    }

    /// Whether this hub keeps the spans it is handed.
    pub(crate) fn traces(&self) -> bool {
        self.spans.is_some()
    }

    /// Append a span to the trace (dropped on a counters-only hub).
    pub fn record_span(&self, span: Span) {
        if let Some(spans) = &self.spans {
            spans.lock().push(span);
        }
    }

    /// Copy of all spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.as_ref().map(|s| s.lock().clone()).unwrap_or_default()
    }

    /// Count one supervisor restart (optionally against the stage the
    /// failure implicated).
    pub fn note_restart(&self, stage: Option<usize>) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = stage.and_then(|s| self.stages.get(s)) {
            s.on_restart();
        }
    }

    /// Count one replan-on-device-loss.
    pub fn note_replan(&self) {
        self.replans.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the provenance of an installed plan.
    pub fn note_plan_origin(&self, origin: PlanOrigin) {
        match origin {
            PlanOrigin::Ilp => self.plans_ilp.fetch_add(1, Ordering::Relaxed),
            PlanOrigin::WarmStart => self.plans_warm.fetch_add(1, Ordering::Relaxed),
            PlanOrigin::Heuristic => self.plans_heuristic.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Raise the fleet-health alarm: a replan was refused because the
    /// survivors cannot hold the model; the old plan stays in force.
    pub fn note_fleet_infeasible(&self) {
        self.fleet_infeasible.fetch_add(1, Ordering::Relaxed);
    }

    /// Plans whose provenance was the exact solver.
    pub fn plans_ilp(&self) -> u64 {
        self.plans_ilp.load(Ordering::Relaxed)
    }

    /// Plans whose provenance was the Algorithm-2 heuristic fallback.
    pub fn plans_heuristic(&self) -> u64 {
        self.plans_heuristic.load(Ordering::Relaxed)
    }

    /// Plans whose provenance was the warm-started incremental solver.
    pub fn plans_warm(&self) -> u64 {
        self.plans_warm.load(Ordering::Relaxed)
    }

    /// Fleet-infeasible alarms raised so far.
    pub fn fleet_infeasible(&self) -> u64 {
        self.fleet_infeasible.load(Ordering::Relaxed)
    }

    /// Count generated tokens (for tokens/s in the snapshot).
    pub fn add_tokens(&self, n: u64) {
        self.tokens.fetch_add(n, Ordering::Relaxed);
    }

    /// Supervisor restarts observed so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Replans observed so far.
    pub fn replans(&self) -> u64 {
        self.replans.load(Ordering::Relaxed)
    }

    /// Generated tokens observed so far.
    pub fn tokens(&self) -> u64 {
        self.tokens.load(Ordering::Relaxed)
    }

    /// Set the count of requests turned away by admission control. The
    /// serving loop (`ContinuousScheduler`) owns the canonical total and
    /// mirrors it here, so nothing counts a shed request twice.
    pub fn sync_shed(&self, total: u64) {
        self.shed.store(total, Ordering::Relaxed);
    }

    /// Set the count of admitted requests dropped after their deadline
    /// or queue timeout expired — mirrored like [`Self::sync_shed`].
    pub fn sync_expired(&self, total: u64) {
        self.expired.store(total, Ordering::Relaxed);
    }

    /// Count one KV-pressure preemption (the batch is requeued, not
    /// lost).
    pub fn note_preempted(&self) {
        self.preempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests shed so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests expired so far.
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// KV-pressure preemptions so far.
    pub fn preempted(&self) -> u64 {
        self.preempted.load(Ordering::Relaxed)
    }

    /// Set the degradation-ladder rung gauge (0 = normal quality).
    pub fn set_rung(&self, rung: usize) {
        self.rung.store(rung as u64, Ordering::Relaxed);
        self.rung_peak.fetch_max(rung as u64, Ordering::Relaxed);
    }

    /// Current degradation-ladder rung.
    pub fn rung(&self) -> usize {
        self.rung.load(Ordering::Relaxed) as usize
    }

    /// Deepest rung reached so far.
    pub fn rung_peak(&self) -> usize {
        self.rung_peak.load(Ordering::Relaxed) as usize
    }

    /// Set the admission-queue pressure gauge (`pending / max_queue`,
    /// clamped to `[0, 1]`; stored in milli-units).
    pub fn set_queue_pressure(&self, pressure: f64) {
        let milli = (pressure.clamp(0.0, 1.0) * 1000.0).round() as u64;
        self.queue_pressure_milli.store(milli, Ordering::Relaxed);
        self.queue_pressure_peak_milli.fetch_max(milli, Ordering::Relaxed);
    }

    /// Current admission-queue pressure in `[0, 1]`.
    pub fn queue_pressure(&self) -> f64 {
        self.queue_pressure_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// High-water mark of the queue-pressure gauge.
    pub fn queue_pressure_peak(&self) -> f64 {
        self.queue_pressure_peak_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Count one committed live plan swap: its commit-window latency and
    /// the KV bytes that crossed the wire (or moved locally) for it.
    pub fn note_swap(&self, latency_us: u64, kv_bytes: u64) {
        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.swap_latency.record(latency_us);
        self.kv_migrated_bytes.fetch_add(kv_bytes, Ordering::Relaxed);
    }

    /// Count one migration attempt that aborted back to the old plan.
    pub fn note_migration_aborted(&self) {
        self.migration_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Set the active plan-epoch gauge (bumps on every committed swap).
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Committed live swaps so far.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Aborted migration attempts so far.
    pub fn migration_aborts(&self) -> u64 {
        self.migration_aborts.load(Ordering::Relaxed)
    }

    /// Active plan epoch (0 = the plan the pipeline started on).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// KV bytes migrated across all committed swaps.
    pub fn kv_migrated_bytes(&self) -> u64 {
        self.kv_migrated_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the swap commit-window latency histogram.
    pub fn swap_latency(&self) -> HistogramSnapshot {
        self.swap_latency.snapshot()
    }

    /// Record one request's time-to-first-token (µs).
    pub fn record_ttft_us(&self, us: u64) {
        self.ttft.record(us);
    }

    /// Record one request's mean time-per-output-token (µs).
    pub fn record_tpot_us(&self, us: u64) {
        self.tpot.record(us);
    }

    /// Record one request's arrival→completion latency (µs).
    pub fn record_request_us(&self, us: u64) {
        self.request_latency.record(us);
    }

    /// Snapshot of the time-to-first-token histogram.
    pub fn ttft(&self) -> HistogramSnapshot {
        self.ttft.snapshot()
    }

    /// Snapshot of the time-per-output-token histogram.
    pub fn tpot(&self) -> HistogramSnapshot {
        self.tpot.snapshot()
    }

    /// Snapshot of the per-request sojourn histogram.
    pub fn request_latency(&self) -> HistogramSnapshot {
        self.request_latency.snapshot()
    }

    /// Set the continuous-batching occupancy gauge: sequences in the
    /// in-flight batch right now.
    pub fn set_batch_occupancy(&self, n: u64) {
        self.batch_occupancy.store(n, Ordering::Relaxed);
        self.batch_occupancy_peak.fetch_max(n, Ordering::Relaxed);
    }

    /// Sequences in the in-flight batch.
    pub fn batch_occupancy(&self) -> u64 {
        self.batch_occupancy.load(Ordering::Relaxed)
    }

    /// High-water mark of the batch-occupancy gauge.
    pub fn batch_occupancy_peak(&self) -> u64 {
        self.batch_occupancy_peak.load(Ordering::Relaxed)
    }

    /// Set the paged-KV pool occupancy gauge (fraction of blocks in
    /// use, clamped to `[0, 1]`; stored in milli-units).
    pub fn set_kv_occupancy(&self, frac: f64) {
        let milli = (frac.clamp(0.0, 1.0) * 1000.0).round() as u64;
        self.kv_occupancy_milli.store(milli, Ordering::Relaxed);
        self.kv_occupancy_peak_milli.fetch_max(milli, Ordering::Relaxed);
    }

    /// KV pool occupancy in `[0, 1]`.
    pub fn kv_occupancy(&self) -> f64 {
        self.kv_occupancy_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// High-water mark of the KV-occupancy gauge.
    pub fn kv_occupancy_peak(&self) -> f64 {
        self.kv_occupancy_peak_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Set the requests-in-system gauge (queued + in flight).
    pub fn set_inflight(&self, n: u64) {
        self.inflight.store(n, Ordering::Relaxed);
    }

    /// Requests in the system (queued + in flight).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Spans grouped per trace thread, sorted by start time, with
    /// overlaps from µs rounding clamped away — the invariant the trace
    /// tests assert: per tid, spans are monotonically ordered and
    /// non-overlapping.
    pub fn ordered_spans(&self) -> Vec<(usize, Vec<Span>)> {
        let spans = self.spans();
        let mut tids: Vec<usize> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        tids.into_iter()
            .map(|tid| {
                let mut row: Vec<Span> = spans.iter().filter(|s| s.tid == tid).cloned().collect();
                row.sort_by_key(|s| (s.ts_us, s.step));
                let mut prev_end = 0u64;
                for s in &mut row {
                    if s.ts_us < prev_end {
                        s.ts_us = prev_end;
                    }
                    prev_end = s.ts_us + s.dur_us;
                }
                (tid, row)
            })
            .collect()
    }

    /// Export the trace as Chrome `trace_event` JSON (the "JSON Array
    /// Format" with a `traceEvents` wrapper), loadable in
    /// `chrome://tracing` and Perfetto. Complete `"ph":"X"` duration
    /// events; one metadata event names each thread.
    pub fn to_chrome_trace(&self) -> String {
        let rows = self.ordered_spans();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&ev);
        };
        for (tid, row) in &rows {
            let tname = match tid {
                0 => "master".to_string(),
                t => format!("stage {}", t - 1),
            };
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{tname}\"}}}}"
                ),
            );
            for s in row {
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"step\":{},\"microbatch\":{},\"phase\":\"{}\",\"bits\":\"{}\"}}}}",
                        s.name,
                        s.phase.name(),
                        s.tid,
                        s.ts_us,
                        s.dur_us,
                        s.step,
                        s.microbatch,
                        s.phase.name(),
                        s.bits,
                    ),
                );
            }
        }
        out.push_str("\n]}");
        out
    }

    /// Render the plain-text metrics snapshot: wall clock, tokens/s,
    /// restart/replan counters, and per-stage p50/p95/p99 latency
    /// (overall and per phase), queue peaks and KV occupancy.
    pub fn metrics_text(&self) -> String {
        let wall_s = self.clock.now().as_secs_f64();
        let tokens = self.tokens();
        let mut out = String::from("# llmpq runtime telemetry snapshot\n");
        out.push_str(&format!("wall_s: {wall_s:.4}\n"));
        out.push_str(&format!("tokens: {tokens}\n"));
        out.push_str(&format!(
            "tokens_per_s: {:.2}\n",
            if wall_s > 0.0 { tokens as f64 / wall_s } else { 0.0 }
        ));
        out.push_str(&format!("restarts: {}\n", self.restarts()));
        out.push_str(&format!("replans: {}\n", self.replans()));
        out.push_str(&format!(
            "plan_origin: ilp={} heuristic={} warm-start={}\n",
            self.plans_ilp(),
            self.plans_heuristic(),
            self.plans_warm()
        ));
        out.push_str(&format!("fleet_infeasible_alarms: {}\n", self.fleet_infeasible()));
        out.push_str(&format!("shed: {}\n", self.shed()));
        out.push_str(&format!("expired: {}\n", self.expired()));
        out.push_str(&format!("preempted: {}\n", self.preempted()));
        out.push_str(&format!("rung: {} (peak {})\n", self.rung(), self.rung_peak()));
        out.push_str(&format!(
            "queue_pressure: {:.3} (peak {:.3})\n",
            self.queue_pressure(),
            self.queue_pressure_peak()
        ));
        out.push_str(&format!("plan_epoch: {}\n", self.epoch()));
        out.push_str(&format!(
            "plan_swaps: {} (aborted {})\n",
            self.swaps(),
            self.migration_aborts()
        ));
        out.push_str(&format!("kv_migrated_bytes: {}\n", self.kv_migrated_bytes()));
        let fmt_hist = |label: &str, h: &HistogramSnapshot| -> String {
            match h.percentile(0.5) {
                None => format!("  latency_us {label}: (no samples)\n"),
                Some(p50) => format!(
                    "  latency_us {label}: p50={:.0} p95={:.0} p99={:.0} mean={:.0} max={}\n",
                    p50,
                    h.percentile(0.95).unwrap_or(0.0),
                    h.percentile(0.99).unwrap_or(0.0),
                    h.mean().unwrap_or(0.0),
                    h.max_us,
                ),
            }
        };
        out.push_str(&fmt_hist("plan_swap", &self.swap_latency()));
        out.push_str("serving:\n");
        out.push_str(&format!("  inflight: {}\n", self.inflight()));
        out.push_str(&format!(
            "  batch_occupancy: {} (peak {})\n",
            self.batch_occupancy(),
            self.batch_occupancy_peak()
        ));
        out.push_str(&format!(
            "  kv_occupancy: {:.3} (peak {:.3})\n",
            self.kv_occupancy(),
            self.kv_occupancy_peak()
        ));
        out.push_str(&fmt_hist("ttft", &self.ttft()));
        out.push_str(&fmt_hist("tpot", &self.tpot()));
        out.push_str(&fmt_hist("request", &self.request_latency()));
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "stage {i}: items={} seq_forwards={} busy_s={:.4} queue_peak={} kv_entries={} restarts={}\n",
                s.items(),
                s.seq_forwards(),
                s.busy_s(),
                s.queue_peak(),
                s.kv_entries(),
                s.restarts(),
            ));
            out.push_str(&fmt_hist("all", &s.latency_all()));
            out.push_str(&fmt_hist("prefill", &s.prefill_latency.snapshot()));
            out.push_str(&fmt_hist("decode", &s.decode_latency.snapshot()));
        }
        for (i, l) in self.links.iter().enumerate() {
            let s = l.snapshot();
            out.push_str(&format!(
                "link {i}: bytes_tx={} bytes_rx={} frames_tx={} frames_rx={} comm_s={:.6} corrupt={}\n",
                s.bytes_tx, s.bytes_rx, s.frames_tx, s.frames_rx, s.comm_s(), s.corrupt_frames,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(1.0), None);
        assert_eq!(h.snapshot().mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let h = LatencyHistogram::new();
        h.record(1234);
        for p in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(p), Some(1234.0), "p={p}");
        }
        assert_eq!(h.snapshot().mean(), Some(1234.0));
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.percentile(0.5), Some(0.0));
        let s = h.snapshot();
        assert_eq!((s.min_us, s.max_us), (0, 0));
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let h = LatencyHistogram::new();
        for v in [3u64, 17, 90, 160, 900, 4_000, 22_000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let mut prev = 0.0f64;
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = s.percentile(p).unwrap();
            assert!(v >= prev, "p{p}: {v} < {prev}");
            assert!(v >= s.min_us as f64 && v <= s.max_us as f64);
            prev = v;
        }
        // The p100 estimate must sit in the max's bucket (within 2× of
        // the true max, the log-bucket resolution).
        assert!(s.percentile(1.0).unwrap() >= 100_000.0 / 2.0);
    }

    #[test]
    fn uniform_samples_give_sane_median() {
        // 100 samples of exactly 1000 µs: every percentile is within the
        // [512, 1023] bucket, clamped to the exact observed bounds.
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(1000);
        }
        assert_eq!(h.percentile(0.5), Some(1000.0));
        assert_eq!(h.percentile(0.99), Some(1000.0));
    }

    #[test]
    fn skewed_samples_separate_p50_from_p99() {
        // 98 fast samples and 2 slow ones: p50 stays fast, p99 slow.
        let h = LatencyHistogram::new();
        for _ in 0..98 {
            h.record(100);
        }
        h.record(50_000);
        h.record(60_000);
        let p50 = h.percentile(0.5).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert_eq!(p50, 100.0);
        assert!(p99 >= 32_768.0, "p99 must land in the slow tail, got {p99}");
    }

    #[test]
    fn merge_combines_distributions() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for _ in 0..10 {
            a.record(100);
            b.record(10_000);
        }
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 20);
        assert_eq!(m.min_us, 100);
        assert_eq!(m.max_us, 10_000);
        assert!(m.percentile(0.25).unwrap() <= 127.0);
        assert!(m.percentile(0.95).unwrap() >= 8192.0);
    }

    #[test]
    fn bucket_bounds_partition_the_axis() {
        // Every value belongs to exactly the bucket whose bounds contain
        // it.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2] {
            let b = bucket_of(v);
            let (lo, hi) = bucket_bounds(b);
            assert!(v >= lo && v <= hi, "{v} not in bucket {b} [{lo}, {hi}]");
        }
    }

    #[test]
    fn stage_recorder_tracks_queue_peak() {
        let r = StageRecorder::default();
        r.on_enqueue();
        r.on_enqueue();
        r.on_enqueue();
        r.on_dequeue();
        r.on_enqueue();
        assert_eq!(r.queue_peak(), 3);
    }

    #[test]
    fn recorder_routes_phases_to_their_histograms() {
        let r = StageRecorder::default();
        r.on_compute(Phase::Prefill, 500, 2);
        r.on_compute(Phase::Decode, 50, 2);
        r.on_compute(Phase::Decode, 60, 2);
        assert_eq!(r.prefill_latency.count(), 1);
        assert_eq!(r.decode_latency.count(), 2);
        assert_eq!(r.items(), 3);
        assert_eq!(r.seq_forwards(), 6);
        assert!((r.busy_s() - 610e-6).abs() < 1e-12);
        assert_eq!(r.latency_all().count, 3);
        assert_eq!(r.snapshot(), StageMetrics { items: 3, seq_forwards: 6, busy_s: r.busy_s() });
    }

    #[test]
    fn a_counters_only_hub_counts_and_keeps_no_span() {
        let tel = Telemetry::counters_only(1, real_clock());
        assert!(!tel.traces());
        tel.stage(0).unwrap().on_compute(Phase::Decode, 5, 1);
        tel.note_restart(Some(0));
        tel.record_span(Span {
            tid: 1,
            name: "compute",
            phase: Phase::Decode,
            ts_us: 0,
            dur_us: 5,
            step: 0,
            microbatch: 0,
            bits: Arc::from(""),
        });
        assert!(tel.spans().is_empty() && tel.ordered_spans().is_empty());
        assert_eq!((tel.stage(0).unwrap().items(), tel.restarts()), (1, 1));
        assert!(tel.metrics_text().contains("stage 0: items=1"));
        assert!(Telemetry::new(1).traces());
    }

    #[test]
    fn ordered_spans_sort_and_declamp_overlaps() {
        let tel = Telemetry::new(1);
        let span = |ts, dur, step| Span {
            tid: 1,
            name: "compute",
            phase: Phase::Decode,
            ts_us: ts,
            dur_us: dur,
            step,
            microbatch: 0,
            bits: Arc::from("int8"),
        };
        tel.record_span(span(100, 50, 2));
        tel.record_span(span(0, 120, 1)); // overlaps the first by 20 µs
        let rows = tel.ordered_spans();
        assert_eq!(rows.len(), 1);
        let row = &rows[0].1;
        assert_eq!(row[0].ts_us, 0);
        assert_eq!(row[1].ts_us, 120, "clamped to the previous span's end");
        assert!(row[0].ts_us + row[0].dur_us <= row[1].ts_us);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_thread_names() {
        let tel = Telemetry::new(2);
        tel.record_span(Span {
            tid: 1,
            name: "compute",
            phase: Phase::Prefill,
            ts_us: 10,
            dur_us: 40,
            step: 0,
            microbatch: 0,
            bits: Arc::from("int4,fp16"),
        });
        let json = tel.to_chrome_trace();
        let v = serde_json::parse_value(&json).expect("valid JSON");
        let serde::Value::Obj(pairs) = v else { panic!("object expected") };
        let events = pairs
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents key");
        let serde::Value::Arr(evs) = events else { panic!("array expected") };
        assert_eq!(evs.len(), 2, "one metadata + one X event");
    }

    #[test]
    fn metrics_text_reports_percentiles_and_counters() {
        let tel = Telemetry::new(1);
        tel.stage(0).unwrap().on_compute(Phase::Decode, 777, 1);
        tel.add_tokens(42);
        tel.note_restart(Some(0));
        tel.note_replan();
        let text = tel.metrics_text();
        assert!(text.contains("p50=777"), "{text}");
        assert!(text.contains("p95=777") && text.contains("p99=777"));
        assert!(text.contains("tokens: 42"));
        assert!(text.contains("restarts: 1"));
        assert!(text.contains("replans: 1"));
        assert!(text.contains("latency_us prefill: (no samples)"));
    }

    #[test]
    fn overload_gauges_track_peaks() {
        let tel = Telemetry::new(1);
        tel.sync_shed(3);
        tel.sync_expired(2);
        tel.note_preempted();
        tel.set_rung(2);
        tel.set_rung(1);
        tel.set_queue_pressure(0.75);
        tel.set_queue_pressure(0.25);
        assert_eq!(tel.shed(), 3);
        assert_eq!(tel.expired(), 2);
        assert_eq!(tel.preempted(), 1);
        assert_eq!(tel.rung(), 1);
        assert_eq!(tel.rung_peak(), 2, "peak survives stepping back up");
        assert!((tel.queue_pressure() - 0.25).abs() < 1e-9);
        assert!((tel.queue_pressure_peak() - 0.75).abs() < 1e-9);
        let text = tel.metrics_text();
        assert!(text.contains("shed: 3"), "{text}");
        assert!(text.contains("rung: 1 (peak 2)"), "{text}");
        assert!(text.contains("queue_pressure: 0.250 (peak 0.750)"), "{text}");
    }

    #[test]
    fn queue_pressure_is_clamped_to_unit_interval() {
        let tel = Telemetry::new(1);
        tel.set_queue_pressure(7.3);
        assert_eq!(tel.queue_pressure(), 1.0);
        tel.set_queue_pressure(-1.0);
        assert_eq!(tel.queue_pressure(), 0.0);
        assert_eq!(tel.queue_pressure_peak(), 1.0);
    }

    #[test]
    fn link_recorders_count_and_merge() {
        let tel = Telemetry::new(2);
        assert_eq!(tel.n_links(), 3, "n_stages + 1 edges");
        let l0 = tel.link(0).unwrap();
        l0.on_tx(100);
        l0.on_tx(50);
        l0.on_rx(70);
        l0.add_comm_us(1_500);
        l0.on_corrupt();
        let s = l0.snapshot();
        assert_eq!((s.bytes_tx, s.frames_tx), (150, 2));
        assert_eq!((s.bytes_rx, s.frames_rx), (70, 1));
        assert_eq!(s.comm_us, 1_500);
        assert_eq!(s.corrupt_frames, 1);
        assert!((s.comm_s() - 0.0015).abs() < 1e-12);
        // Merging a remote report is additive.
        l0.merge(&s);
        assert_eq!(l0.snapshot().bytes_tx, 300);
        assert!(tel.link(3).is_none());
        let text = tel.metrics_text();
        assert!(text.contains("link 0: bytes_tx=300"), "{text}");
        assert!(text.contains("link 2: bytes_tx=0"), "{text}");
    }

    #[test]
    fn restart_attribution_is_bounds_checked() {
        let tel = Telemetry::new(1);
        tel.note_restart(Some(7)); // out of range: global counter only
        assert_eq!(tel.restarts(), 1);
        assert_eq!(tel.stage(0).unwrap().restarts(), 0);
    }
}
