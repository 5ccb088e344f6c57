//! Outside-in tracing: spans recorded from the benchmark's own files
//! around the calls into each layer of the program under test.
//!
//! [`TracedEngine`] wraps whatever [`StepEngine`] a workload serves with
//! and records one span per `register` / `prefill_chunk` / `decode_one`
//! / `release` the scheduler makes; client threads add one span per
//! request. Spans sit in a pre-sized in-memory vector and are written
//! out as Chrome-trace JSON after the run. With no log attached the
//! wrapper forwards without reading the clock, so the untraced run pays
//! one branch per call.

use llmpq_runtime::{KvPool, StepEngine, StepError};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `Span::parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A client's request, send to last byte (`arg` = tokens received).
    Request,
    /// One `ContinuousScheduler::step` of the direct-drive replay.
    Step,
    /// `StepEngine::register`.
    Register,
    /// `StepEngine::prefill_chunk` (`arg` = tokens in the chunk).
    Prefill,
    /// `StepEngine::decode_one` (`arg` = absolute position).
    Decode,
    /// `StepEngine::release`.
    Release,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Request => "request",
            Kind::Step => "step",
            Kind::Register => "register",
            Kind::Prefill => "prefill_chunk",
            Kind::Decode => "decode_one",
            Kind::Release => "release",
        }
    }
}

/// One timed interval, nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub kind: Kind,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Request id shared by every span of one request (the server's
    /// `cmpl-<id>` is the scheduler's sequence id).
    pub req: u64,
    /// Kind-specific count (see [`Kind`]).
    pub arg: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The shared in-memory span sink.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Parent given to engine spans; the replay points it at the current
    /// `Step` span, the live run leaves it at [`NO_PARENT`].
    parent: AtomicU32,
    /// Σ over sampled engine calls of KV token positions reserved
    /// (blocks in use × block size) and actually holding a token.
    kv_reserved: AtomicU64,
    kv_used: AtomicU64,
}

impl SpanLog {
    /// A log with room for `capacity` spans before it reallocates.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
            parent: AtomicU32::new(NO_PARENT),
            kv_reserved: AtomicU64::new(0),
            kv_used: AtomicU64::new(0),
        })
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The same clock for an `Instant` taken elsewhere.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Append a span; returns its index.
    pub fn record(&self, span: Span) -> u32 {
        let mut v = self
            .spans
            .lock()
            .expect("no thread panics while holding the span log");
        v.push(span);
        (v.len() - 1) as u32
    }

    /// Parent for the engine spans recorded from now on.
    pub fn set_parent(&self, parent: u32) {
        self.parent.store(parent, Ordering::Relaxed);
    }

    /// Close span `idx` at `end_ns` (the replay opens a `Step` span
    /// before the call so its children can name it).
    pub fn close(&self, idx: u32, end_ns: u64) {
        self.spans.lock().expect("span log")[idx as usize].end_ns = end_ns;
    }

    /// Copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span log").clone()
    }

    /// Mean KV positions reserved per position in use over the sampled
    /// engine calls (1.0 = no slack); 0 when nothing was sampled.
    pub fn kv_reserved_over_used(&self) -> f64 {
        let used = self.kv_used.load(Ordering::Relaxed);
        if used == 0 {
            0.0
        } else {
            self.kv_reserved.load(Ordering::Relaxed) as f64 / used as f64
        }
    }
}

/// A [`StepEngine`] that records a span around every call.
pub struct TracedEngine {
    inner: Box<dyn StepEngine + Send>,
    log: Option<Arc<SpanLog>>,
    /// Token positions each live sequence holds (traced runs only).
    held: HashMap<u64, usize>,
    held_total: usize,
}

impl TracedEngine {
    /// Wrap `inner`; `log = None` forwards without timing.
    pub fn new(inner: Box<dyn StepEngine + Send>, log: Option<Arc<SpanLog>>) -> Self {
        Self {
            inner,
            log,
            held: HashMap::new(),
            held_total: 0,
        }
    }

    fn span<T>(
        &mut self,
        kind: Kind,
        req: u64,
        arg: u32,
        call: impl FnOnce(&mut dyn StepEngine) -> T,
    ) -> T {
        let Some(log) = self.log.clone() else {
            return call(self.inner.as_mut());
        };
        let start_ns = log.now_ns();
        let out = call(self.inner.as_mut());
        let end_ns = log.now_ns();
        let parent = log.parent.load(Ordering::Relaxed);
        log.record(Span {
            kind,
            start_ns,
            end_ns,
            parent,
            req,
            arg,
        });
        out
    }

    fn sample_kv(&mut self, seq: u64, grown: usize) {
        let Some(log) = &self.log else { return };
        *self.held.entry(seq).or_insert(0) += grown;
        self.held_total += grown;
        let pool = self.inner.pool();
        let reserved = pool.used_blocks() * pool.config().block_tokens;
        log.kv_reserved
            .fetch_add(reserved as u64, Ordering::Relaxed);
        log.kv_used
            .fetch_add(self.held_total as u64, Ordering::Relaxed);
    }
}

impl StepEngine for TracedEngine {
    fn pool(&self) -> &KvPool {
        self.inner.pool()
    }
    fn register(&mut self, seq: u64) -> Result<(), StepError> {
        self.span(Kind::Register, seq, 0, |e| e.register(seq))
    }
    fn prefill_chunk(
        &mut self,
        seq: u64,
        tokens: &[usize],
        pos0: usize,
        is_last: bool,
    ) -> Result<Option<usize>, StepError> {
        let out = self.span(Kind::Prefill, seq, tokens.len() as u32, |e| {
            e.prefill_chunk(seq, tokens, pos0, is_last)
        });
        if out.is_ok() {
            self.sample_kv(seq, tokens.len());
        }
        out
    }
    fn decode_one(&mut self, seq: u64, last: usize, pos: usize) -> Result<usize, StepError> {
        let out = self.span(Kind::Decode, seq, pos as u32, |e| {
            e.decode_one(seq, last, pos)
        });
        if out.is_ok() {
            self.sample_kv(seq, 1);
        }
        out
    }
    fn release(&mut self, seq: u64) {
        self.span(Kind::Release, seq, 0, |e| e.release(seq));
        if let Some(n) = self.held.remove(&seq) {
            self.held_total -= n;
        }
    }
    fn iteration_cost_s(&self, rung: usize, p: usize, d: usize) -> f64 {
        self.inner.iteration_cost_s(rung, p, d)
    }
    fn n_rungs(&self) -> usize {
        self.inner.n_rungs()
    }
    fn set_rung(&mut self, rung: usize) -> f64 {
        self.inner.set_rung(rung)
    }
    fn rung(&self) -> usize {
        self.inner.rung()
    }
    fn max_seq(&self) -> usize {
        self.inner.max_seq()
    }
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
    fn restarts(&self) -> u64 {
        self.inner.restarts()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            total += e - s;
            edge = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover (overlapping children count once,
/// children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = kids
                .get_mut(&(i as u32))
                .map_or(0, |k| covered_ns(k, s.start_ns, s.end_ns));
            s.dur_ns() - covered
        })
        .collect()
}

/// Give every engine span of the live run its request span as parent
/// (matched on the request id), so the written trace nests.
pub fn link_to_requests(spans: &mut [Span]) {
    let by_req: HashMap<u64, u32> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == Kind::Request)
        .map(|(i, s)| (s.req, i as u32))
        .collect();
    for s in spans
        .iter_mut()
        .filter(|s| s.kind != Kind::Request && s.parent == NO_PARENT)
    {
        if let Some(&p) = by_req.get(&s.req) {
            s.parent = p;
        }
    }
}

/// Largest number of spans written to a trace file; a `frontdoor_sim`
/// run records about a million, which no viewer opens.
pub const MAX_WRITTEN_SPANS: usize = 50_000;

/// Render `spans` as Chrome `trace_event` JSON (`ph:"X"`, µs). Request
/// spans go on tid 1, engine and step spans on tid 0.
pub fn chrome_json(spans: &[Span]) -> String {
    let shown = &spans[..spans.len().min(MAX_WRITTEN_SPANS)];
    let mut out = String::with_capacity(64 + 120 * shown.len());
    let _ = write!(
        out,
        "{{\"displayTimeUnit\":\"ms\",\"spans_recorded\":{},\"spans_written\":{},\"traceEvents\":[",
        spans.len(),
        shown.len()
    );
    for (i, s) in shown.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"arg\":{}}}}}",
            s.kind.name(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            u32::from(s.kind == Kind::Request),
            i,
            if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
            s.req,
            s.arg,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
            req: 0,
            arg: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // step [0,100): children [10,30), [20,50) (overlap), [90,120)
        // (runs past the parent). Covered = [10,50) + [90,100) = 50.
        // The grandchild under span 1 only reduces span 1.
        let spans = vec![
            span(Kind::Step, 0, 100, NO_PARENT),
            span(Kind::Prefill, 10, 30, 0),
            span(Kind::Decode, 20, 50, 0),
            span(Kind::Decode, 90, 120, 0),
            span(Kind::Release, 12, 17, 1),
            span(Kind::Step, 200, 260, NO_PARENT),
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 30, 30, 5, 60]);
    }

    #[test]
    fn covered_clips_and_merges() {
        assert_eq!(covered_ns(&mut [(5, 10), (0, 3), (8, 20)], 2, 15), 1 + 10);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
    }

    #[test]
    fn engine_spans_are_linked_to_their_request_and_rendered() {
        let mut spans = vec![
            Span {
                kind: Kind::Decode,
                start_ns: 5,
                end_ns: 9,
                parent: NO_PARENT,
                req: 7,
                arg: 3,
            },
            Span {
                kind: Kind::Request,
                start_ns: 0,
                end_ns: 20,
                parent: NO_PARENT,
                req: 7,
                arg: 1,
            },
            Span {
                kind: Kind::Decode,
                start_ns: 5,
                end_ns: 9,
                parent: NO_PARENT,
                req: 8,
                arg: 3,
            },
        ];
        link_to_requests(&mut spans);
        assert_eq!(spans[0].parent, 1);
        assert_eq!(spans[1].parent, NO_PARENT);
        assert_eq!(spans[2].parent, NO_PARENT);
        let json = chrome_json(&spans);
        let v = serde_json::parse_value(&json).expect("valid JSON");
        let serde::Value::Arr(events) = v.get("traceEvents").unwrap() else {
            panic!()
        };
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].get("name"),
            Some(&serde::Value::Str("decode_one".into()))
        );
    }
}
