//! Pure-`std` HTTP/1.1 front door for the continuous-batching engine —
//! the library half of `llmpq-serve`.
//!
//! No async runtime, no hyper: a blocking accept loop, one OS thread
//! per connection, and `std::net` sockets, which is plenty for a
//! reproduction-scale server and keeps the build hermetic. Three
//! routes:
//!
//! * `POST /v1/completions` — OpenAI-ish JSON: `{"prompt": [1,2,3] |
//!   "text", "max_tokens": 16, "priority": 2, "deadline_ms": 2000,
//!   "stream": false}`. Strict parsing: bad JSON, wrong types, and
//!   *unknown fields* are all 400s with the offending field named; an
//!   oversized body is 413 before the JSON is even looked at. A body
//!   framed any way but one plain-digit `Content-Length` (a request
//!   `Transfer-Encoding`, copies that disagree) is a 400 that closes the
//!   connection, so no byte of it is read as a next request. With
//!   `"stream": true` the response is `Transfer-Encoding: chunked`,
//!   one JSON line per token as it lands, ending with a `done` chunk
//!   (drain-on-shutdown terminates live streams the same way).
//! * `GET /metrics` — the plain-text [`Telemetry::metrics_text`]
//!   snapshot (including the `serving:` block: in-flight gauge, batch
//!   and KV occupancy, TTFT/TPOT histograms) plus a `serving_dist:`
//!   line with the engine's live-swap epoch and restart counters.
//! * `GET /healthz` — liveness: `{"status":"ok"|"draining",
//!   "uptime_s":…, "epoch":…, "restarts":…, "queued":…}`.
//!
//! The connection thread hands the parsed request to the scheduler
//! thread through a channel ([`ServeHandle::submit`]) and blocks until
//! the request finishes, is shed (429), or expires (504) — so HTTP
//! backpressure is the admission controller's backpressure, not a
//! second queue with its own policy. Overload answers (429 shed, 503
//! draining) carry a `Retry-After` header derived from the queue depth
//! and the observed time-per-output-token.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::clock::Clock;
use crate::overload::Request;
use crate::serve::{
    ContinuousConfig, ContinuousReport, ContinuousScheduler, FinishedRequest, LatencySummary,
    StepEngine,
};
use crate::telemetry::Telemetry;

/// Parser bounds: how much of a request we are willing to buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Max bytes across the request line + headers.
    pub max_header_bytes: usize,
    /// Max request-body bytes (a longer `Content-Length` is a 413).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self { max_header_bytes: 8 * 1024, max_body_bytes: 1024 * 1024 }
    }
}

/// A parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path with query string, e.g. `/v1/completions`.
    pub path: String,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close after this response.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be parsed; maps to a status code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// Malformed request line.
    BadRequestLine(String),
    /// Malformed header line.
    BadHeader(String),
    /// Request line + headers exceed the limit.
    HeadersTooLarge,
    /// `Content-Length` exceeds the body limit.
    BodyTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// `Content-Length` that is not plain digits, or copies of it that
    /// disagree.
    BadLength(String),
    /// A request `Transfer-Encoding` (bodies are framed by
    /// `Content-Length` only).
    TransferEncoding(String),
    /// Socket error / truncated request.
    Io(String),
}

impl HttpParseError {
    /// The HTTP status this error answers with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpParseError::BodyTooLarge { .. } => (413, "Payload Too Large"),
            HttpParseError::HeadersTooLarge => (431, "Request Header Fields Too Large"),
            HttpParseError::Io(_) => (400, "Bad Request"),
            _ => (400, "Bad Request"),
        }
    }
}

impl std::fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpParseError::BadRequestLine(l) => write!(f, "bad request line {l:?}"),
            HttpParseError::BadHeader(l) => write!(f, "bad header {l:?}"),
            HttpParseError::HeadersTooLarge => write!(f, "headers too large"),
            HttpParseError::BodyTooLarge { limit } => {
                write!(f, "body exceeds limit of {limit} bytes")
            }
            HttpParseError::BadLength(v) => write!(f, "bad content-length {v:?}"),
            HttpParseError::TransferEncoding(v) => write!(f, "transfer-encoding {v:?} not accepted"),
            HttpParseError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for HttpParseError {}

fn read_line_bounded<R: BufRead>(
    r: &mut R,
    budget: &mut usize,
) -> Result<Option<String>, HttpParseError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None); // clean EOF between requests
                }
                return Err(HttpParseError::Io("truncated request".into()));
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(HttpParseError::HeadersTooLarge);
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(HttpParseError::Io(e.to_string())),
        }
    }
}

/// Read one HTTP/1.1 request off `r`. `Ok(None)` means the peer closed
/// the connection cleanly between requests (keep-alive end).
pub fn read_request<R: BufRead>(
    r: &mut R,
    limits: &HttpLimits,
) -> Result<Option<HttpRequest>, HttpParseError> {
    let mut budget = limits.max_header_bytes;
    let Some(request_line) = read_line_bounded(r, &mut budget)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if v.starts_with("HTTP/1.") => {
            (m.to_string(), p.to_string(), v)
        }
        _ => return Err(HttpParseError::BadRequestLine(request_line)),
    };
    let _ = version;
    let mut headers = Vec::new();
    loop {
        let line = read_line_bounded(r, &mut budget)?
            .ok_or_else(|| HttpParseError::Io("truncated headers".into()))?;
        if line.is_empty() {
            break;
        }
        let Some((k, v)) = line.split_once(':') else {
            return Err(HttpParseError::BadHeader(line));
        };
        headers.push((k.trim().to_string(), v.trim().to_string()));
    }
    let req = HttpRequest { method, path, headers, body: Vec::new() };
    if let Some(te) = req.header("transfer-encoding") {
        return Err(HttpParseError::TransferEncoding(te.into()));
    }
    // One plain-digit length, however many copies: a request two parsers
    // could frame differently is refused, never guessed at.
    let mut lens = req.headers.iter().filter(|(k, _)| k.eq_ignore_ascii_case("content-length"));
    let len = match lens.next().map(|(_, v)| v) {
        None => 0usize,
        Some(v) if v.bytes().all(|b| b.is_ascii_digit()) && lens.all(|(_, w)| w == v) => {
            v.parse::<usize>().map_err(|_| HttpParseError::BadLength(v.clone()))?
        }
        Some(v) => return Err(HttpParseError::BadLength(v.clone())),
    };
    if len > limits.max_body_bytes {
        return Err(HttpParseError::BodyTooLarge { limit: limits.max_body_bytes });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| HttpParseError::Io(e.to_string()))?;
    Ok(Some(HttpRequest { body, ..req }))
}

/// A validated `/v1/completions` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletionRequest {
    /// Prompt token ids (a string prompt is byte-tokenized mod vocab).
    pub prompt: Vec<usize>,
    /// Tokens to generate.
    pub max_tokens: usize,
    /// Larger = more important (preemption victims are the smallest).
    pub priority: u32,
    /// SLO deadline relative to arrival, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Model name, echoed back (the server has exactly one).
    pub model: Option<String>,
    /// Stream tokens as they land (chunked transfer-encoding).
    pub stream: bool,
}

fn as_count(v: &serde::Value, field: &str) -> Result<usize, String> {
    match v {
        serde::Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
        _ => Err(format!("field {field:?} must be a non-negative integer")),
    }
}

/// Parse + validate a completions body. Strict: unknown fields are
/// errors, so operator typos (`max_token`) fail loudly instead of
/// silently defaulting.
pub fn parse_completion(
    body: &[u8],
    vocab: usize,
    max_tokens_cap: usize,
) -> Result<CompletionRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = serde_json::parse_value(text).map_err(|e| format!("bad JSON: {e}"))?;
    let serde::Value::Obj(pairs) = &value else {
        return Err("body must be a JSON object".to_string());
    };
    let mut out = CompletionRequest {
        prompt: Vec::new(),
        max_tokens: 16,
        priority: 1,
        deadline_ms: None,
        model: None,
        stream: false,
    };
    let mut saw_prompt = false;
    for (k, v) in pairs {
        match k.as_str() {
            "model" => match v {
                serde::Value::Str(s) => out.model = Some(s.clone()),
                _ => return Err("field \"model\" must be a string".to_string()),
            },
            "prompt" => {
                saw_prompt = true;
                match v {
                    serde::Value::Arr(items) => {
                        for item in items {
                            let tok = as_count(item, "prompt")?;
                            if tok >= vocab {
                                return Err(format!(
                                    "prompt token {tok} out of range (vocab {vocab})"
                                ));
                            }
                            out.prompt.push(tok);
                        }
                    }
                    serde::Value::Str(s) => {
                        out.prompt = s.bytes().map(|b| b as usize % vocab).collect();
                    }
                    _ => {
                        return Err(
                            "field \"prompt\" must be an array of token ids or a string".into()
                        )
                    }
                }
            }
            "max_tokens" => {
                let n = as_count(v, "max_tokens")?;
                if n == 0 {
                    return Err("field \"max_tokens\" must be at least 1".to_string());
                }
                if n > max_tokens_cap {
                    return Err(format!("max_tokens {n} exceeds the server cap {max_tokens_cap}"));
                }
                out.max_tokens = n;
            }
            "priority" => out.priority = as_count(v, "priority")? as u32,
            "deadline_ms" => out.deadline_ms = Some(as_count(v, "deadline_ms")? as u64),
            "stream" => match v {
                serde::Value::Bool(b) => out.stream = *b,
                _ => return Err("field \"stream\" must be a boolean".to_string()),
            },
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    if !saw_prompt {
        return Err("missing field \"prompt\"".to_string());
    }
    if out.prompt.is_empty() {
        return Err("prompt must be non-empty".to_string());
    }
    Ok(out)
}

fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    write_response_hdrs(w, status, reason, content_type, &[], body, close)
}

fn write_response_hdrs(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    for (k, v) in extra {
        write!(w, "{k}: {v}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// Write one chunk of a `Transfer-Encoding: chunked` body and flush, so
/// a streaming client sees each token the moment it lands.
fn write_chunk(w: &mut impl Write, data: &[u8]) -> std::io::Result<()> {
    write!(w, "{:x}\r\n", data.len())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")?;
    w.flush()
}

fn json_error(msg: &str) -> Vec<u8> {
    let v = serde::Value::Obj(vec![("error".to_string(), serde::Value::Str(msg.to_string()))]);
    serde_json::to_string(&v).unwrap_or_else(|_| "{}".into()).into_bytes()
}

/// Why a completion gets no tokens.
enum Refusal {
    /// Refused by admission.
    Shed,
    /// Reaped past its deadline before service.
    Expired,
    /// The scheduler thread is gone.
    Closed,
}

/// The answer to a refused completion, streamed or not: status line,
/// `Retry-After` where waiting helps, JSON error body, and the counter
/// bump.
fn refuse(
    w: &mut impl Write,
    handle: &ServeHandle,
    stats: &HttpServerStats,
    why: Refusal,
    close: bool,
) -> std::io::Result<()> {
    let (status, reason, msg, retry) = match why {
        Refusal::Shed => (429, "Too Many Requests", "shed by admission control", true),
        Refusal::Expired => (504, "Gateway Timeout", "deadline expired before service", false),
        Refusal::Closed => (503, "Service Unavailable", "scheduler is shutting down", true),
    };
    let counter = if status < 500 { &stats.client_err_4xx } else { &stats.server_err_5xx };
    counter.fetch_add(1, Ordering::Relaxed);
    let retry: Vec<_> =
        retry.then(|| ("Retry-After", handle.retry_after_s().to_string())).into_iter().collect();
    write_response_hdrs(w, status, reason, "application/json", &retry, &json_error(msg), close)
}

/// What `ServeHandle::submit` came back with.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// Request completed; tokens inside.
    Done(FinishedRequest),
    /// Refused by admission (queue full / infeasible) → 429.
    Shed,
    /// Admitted but reaped past its deadline/timeout → 504.
    Expired,
    /// The scheduler thread is gone → 503.
    Closed,
}

/// One event on a (streaming) completion. Non-streaming submissions
/// only ever see the last three.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A token landed; `index` is its position in the output. After a
    /// ring restart the recompute re-lands earlier indices, so a
    /// consumer that already emitted an index must dedup on it.
    Token {
        /// Position in the generated output, starting at 0.
        index: usize,
        /// The token id.
        token: usize,
    },
    /// Completion finished; the full record inside.
    Done(FinishedRequest),
    /// Refused by admission (queue full / infeasible) → 429.
    Shed,
    /// Admitted but reaped past its deadline/timeout → 504.
    Expired,
}

struct Submission {
    req: Request,
    resp: mpsc::Sender<StreamEvent>,
    stream: bool,
}

/// Live serving gauges shared between the scheduler loop and the
/// connection threads: `/healthz` and `/metrics` report them, and
/// overload responses derive their `Retry-After` hint from them.
#[derive(Debug, Default)]
pub struct ServeStatus {
    /// Committed live-swap epoch of the engine's ring (0 = boot plan,
    /// local engines stay at 0).
    pub epoch: AtomicU64,
    /// Supervisor restarts the engine has absorbed.
    pub restarts: AtomicU64,
    /// Requests queued (not counting in-flight).
    pub queued: AtomicU64,
    /// EWMA of observed time-per-output-token, microseconds.
    pub tpot_us: AtomicU64,
    /// EWMA of tokens per finished request, scaled ×1000.
    tokens_per_req_milli: AtomicU64,
    /// Shutdown started; `/healthz` answers `"draining"`.
    pub draining: AtomicBool,
}

/// 1/8-weight EWMA on an atomic gauge (one writer — the serve loop —
/// many readers).
fn ewma_update(cell: &AtomicU64, sample: u64) {
    let prev = cell.load(Ordering::Relaxed);
    let next =
        if prev == 0 { sample } else { (prev as f64 * 0.875 + sample as f64 * 0.125) as u64 };
    cell.store(next.max(1), Ordering::Relaxed);
}

impl ServeStatus {
    /// Seconds a shed or drained client should wait before retrying:
    /// the work queued ahead of it — queue depth × tokens/request ×
    /// observed tpot, spread across the batch — rounded up and clamped
    /// to `[1, 60]`.
    pub fn retry_after_s(&self, max_batch: usize) -> u64 {
        let queued = self.queued.load(Ordering::Relaxed).max(1);
        let tpot_s = self.tpot_us.load(Ordering::Relaxed).max(1) as f64 / 1e6;
        let toks = self.tokens_per_req_milli.load(Ordering::Relaxed).max(1000) as f64 / 1e3;
        let wait = queued as f64 * toks * tpot_s / max_batch.max(1) as f64;
        (wait.ceil() as u64).clamp(1, 60)
    }

    fn observe_finished(&self, fin: &FinishedRequest) {
        let n = fin.tokens.len().max(1);
        ewma_update(&self.tpot_us, (fin.sojourn_s.max(0.0) / n as f64 * 1e6) as u64);
        ewma_update(&self.tokens_per_req_milli, n as u64 * 1000);
    }
}

/// Cloneable front door to the scheduler thread: stamps arrivals from
/// the shared clock, assigns ids, and blocks until the verdict.
#[derive(Clone)]
pub struct ServeHandle {
    tx: mpsc::Sender<Submission>,
    next_id: Arc<AtomicU64>,
    clock: Arc<dyn Clock>,
    epoch: Duration,
    status: Arc<ServeStatus>,
    max_batch: usize,
}

impl ServeHandle {
    /// Seconds since the serve loop started.
    pub fn now_s(&self) -> f64 {
        self.clock.now().saturating_sub(self.epoch).as_secs_f64()
    }

    /// The live serving gauges (epoch, restarts, queue depth, tpot).
    pub fn status(&self) -> &ServeStatus {
        &self.status
    }

    /// Current `Retry-After` hint in whole seconds.
    pub fn retry_after_s(&self) -> u64 {
        self.status.retry_after_s(self.max_batch)
    }

    fn enqueue(
        &self,
        prompt: Vec<usize>,
        max_tokens: usize,
        priority: u32,
        deadline_ms: Option<u64>,
        stream: bool,
    ) -> Option<mpsc::Receiver<StreamEvent>> {
        let arrival_s = self.now_s();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) as usize;
        let (resp_tx, resp_rx) = mpsc::channel();
        let req = Request {
            id,
            arrival_s,
            prompt,
            n_generate: max_tokens,
            deadline_s: deadline_ms.map(|ms| arrival_s + ms as f64 / 1000.0),
            priority,
        };
        if self.tx.send(Submission { req, resp: resp_tx, stream }).is_err() {
            return None;
        }
        Some(resp_rx)
    }

    /// Submit one request and wait for its outcome.
    pub fn submit(
        &self,
        prompt: Vec<usize>,
        max_tokens: usize,
        priority: u32,
        deadline_ms: Option<u64>,
    ) -> SubmitOutcome {
        let Some(rx) = self.enqueue(prompt, max_tokens, priority, deadline_ms, false) else {
            return SubmitOutcome::Closed;
        };
        loop {
            match rx.recv() {
                Ok(StreamEvent::Token { .. }) => continue, // not streaming
                Ok(StreamEvent::Done(fin)) => return SubmitOutcome::Done(fin),
                Ok(StreamEvent::Shed) => return SubmitOutcome::Shed,
                Ok(StreamEvent::Expired) => return SubmitOutcome::Expired,
                Err(_) => return SubmitOutcome::Closed,
            }
        }
    }

    /// Submit with per-token streaming: the receiver yields one
    /// [`StreamEvent::Token`] per landed token, ending with `Done`,
    /// `Shed`, or `Expired` (channel close = scheduler gone). `None`
    /// means the scheduler is already shut down.
    pub fn submit_stream(
        &self,
        prompt: Vec<usize>,
        max_tokens: usize,
        priority: u32,
        deadline_ms: Option<u64>,
    ) -> Option<mpsc::Receiver<StreamEvent>> {
        self.enqueue(prompt, max_tokens, priority, deadline_ms, true)
    }
}

#[allow(clippy::too_many_arguments)] // one call site; the args are the loop's whole world
fn run_serve_loop<E: StepEngine>(
    engine: E,
    cfg: ContinuousConfig,
    telemetry: Arc<Telemetry>,
    clock: Arc<dyn Clock>,
    epoch: Duration,
    rx: mpsc::Receiver<Submission>,
    stop: Arc<AtomicBool>,
    status: Arc<ServeStatus>,
) -> Result<ContinuousReport, String> {
    let mut sched = ContinuousScheduler::new(engine, cfg)?.with_telemetry(telemetry.clone());
    let mut responders: HashMap<usize, (mpsc::Sender<StreamEvent>, bool)> = HashMap::new();
    // Offer a submission; one the scheduler refuses is answered `Shed`
    // at once, an admitted one waits in `responders` for its verdict.
    let admit = |sched: &mut ContinuousScheduler<E>,
                 responders: &mut HashMap<_, _>,
                 sub: Submission,
                 now: f64| {
        let id = sub.req.id;
        if sched.offer(sub.req, now) {
            responders.insert(id, (sub.resp, sub.stream));
        } else {
            let _ = sub.resp.send(StreamEvent::Shed);
        }
    };
    let mut disconnected = false;
    let mut makespan = 0.0f64;
    loop {
        let now = clock.now().saturating_sub(epoch).as_secs_f64();
        loop {
            match rx.try_recv() {
                Ok(sub) => admit(&mut sched, &mut responders, sub, now),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        let out = sched.step(now).map_err(|e| e.to_string())?;
        // Streamed tokens go out before the Done verdicts below, so a
        // streaming client sees every token and then the final record.
        for &(id, index, token) in &out.landed {
            if let Some((tx, true)) = responders.get(&id) {
                let _ = tx.send(StreamEvent::Token { index, token });
            }
        }
        for id in &out.expired_ids {
            if let Some((tx, _)) = responders.remove(id) {
                let _ = tx.send(StreamEvent::Expired);
            }
        }
        for id in &out.shed_ids {
            if let Some((tx, _)) = responders.remove(id) {
                let _ = tx.send(StreamEvent::Shed);
            }
        }
        for fin in out.finished {
            status.observe_finished(&fin);
            if let Some((tx, _)) = responders.remove(&fin.id) {
                let _ = tx.send(StreamEvent::Done(fin));
            }
        }
        status.epoch.store(sched.engine().epoch(), Ordering::Relaxed);
        status.restarts.store(sched.engine().restarts(), Ordering::Relaxed);
        status.queued.store(sched.queued() as u64, Ordering::Relaxed);
        if !out.idle {
            makespan = now + out.cost_s;
            continue;
        }
        let drained =
            responders.is_empty() && sched.queued() == 0 && sched.in_flight() == 0;
        if drained && (stop.load(Ordering::Relaxed) || disconnected) {
            break;
        }
        // Idle: park briefly on the channel so a new submission wakes
        // us without spinning.
        match rx.recv_timeout(Duration::from_millis(2)) {
            Ok(sub) => {
                let now = clock.now().saturating_sub(epoch).as_secs_f64();
                admit(&mut sched, &mut responders, sub, now);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                disconnected = true;
                if drained {
                    break;
                }
                // Still work in flight: let the loop finish it.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    // Every finished request went to its connection thread, so the
    // report has counters and no `outputs`; the latency distributions
    // are the ones `step` recorded in the hub, request by request.
    Ok(ContinuousReport {
        ttft: LatencySummary::from_histogram_us(&telemetry.ttft()),
        tpot: LatencySummary::from_histogram_us(&telemetry.tpot()),
        sojourn: LatencySummary::from_histogram_us(&telemetry.request_latency()),
        ..sched.into_report(makespan, "continuous")
    })
}

/// Server knobs.
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Parser bounds.
    pub limits: HttpLimits,
    /// Vocabulary size prompts are validated against.
    pub vocab: usize,
    /// Largest `max_tokens` a request may ask for.
    pub max_tokens_cap: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Deadline applied when the request names none, milliseconds.
    pub default_deadline_ms: Option<u64>,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        Self {
            limits: HttpLimits::default(),
            vocab: 256,
            max_tokens_cap: 256,
            read_timeout: Duration::from_secs(30),
            default_deadline_ms: None,
        }
    }
}

/// Connection/response counters (atomics; read them live).
#[derive(Debug, Default)]
pub struct HttpServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests parsed off sockets.
    pub requests: AtomicU64,
    /// 2xx responses written.
    pub ok_2xx: AtomicU64,
    /// 4xx responses written.
    pub client_err_4xx: AtomicU64,
    /// 5xx responses written.
    pub server_err_5xx: AtomicU64,
    /// Connections that died without a response (socket error).
    pub dropped: AtomicU64,
}

/// A running server: accept thread + scheduler thread.
pub struct HttpServer {
    /// Bound address (useful with port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
    loop_thread: JoinHandle<Result<ContinuousReport, String>>,
    handle: ServeHandle,
    stats: Arc<HttpServerStats>,
    telemetry: Arc<Telemetry>,
}

impl HttpServer {
    /// Bind `listener`'s traffic to `engine` and start serving.
    pub fn start<E: StepEngine + Send + 'static>(
        listener: TcpListener,
        engine: E,
        cfg: ContinuousConfig,
        http_cfg: HttpServerConfig,
        telemetry: Arc<Telemetry>,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, String> {
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(HttpServerStats::default());
        let status = Arc::new(ServeStatus::default());
        let (tx, rx) = mpsc::channel();
        let epoch = clock.now();
        let handle = ServeHandle {
            tx,
            next_id: Arc::new(AtomicU64::new(0)),
            clock: clock.clone(),
            epoch,
            status: status.clone(),
            max_batch: cfg.max_batch,
        };
        let loop_telemetry = telemetry.clone();
        let loop_clock = clock.clone();
        let loop_stop = stop.clone();
        let loop_status = status;
        let loop_thread = std::thread::Builder::new()
            .name("llmpq-serve-sched".into())
            .spawn(move || {
                run_serve_loop(
                    engine,
                    cfg,
                    loop_telemetry,
                    loop_clock,
                    epoch,
                    rx,
                    loop_stop,
                    loop_status,
                )
            })
            .map_err(|e| e.to_string())?;
        let accept_stop = stop.clone();
        let accept_stats = stats.clone();
        let accept_handle = handle.clone();
        let accept_telemetry = telemetry.clone();
        let accept_thread = std::thread::Builder::new()
            .name("llmpq-serve-accept".into())
            .spawn(move || {
                while !accept_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            accept_stats.connections.fetch_add(1, Ordering::Relaxed);
                            let h = accept_handle.clone();
                            let s = accept_stats.clone();
                            let t = accept_telemetry.clone();
                            let c = http_cfg.clone();
                            let _ = std::thread::Builder::new()
                                .name("llmpq-serve-conn".into())
                                .spawn(move || handle_connection(stream, h, t, c, s));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
            .map_err(|e| e.to_string())?;
        Ok(Self { addr, stop, accept_thread, loop_thread, handle, stats, telemetry })
    }

    /// A submission handle bypassing HTTP (the soak driver uses this
    /// for direct load alongside socket traffic).
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Live server counters.
    pub fn stats(&self) -> &HttpServerStats {
        &self.stats
    }

    /// The telemetry hub behind `/metrics`.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    /// Stop accepting, drain in-flight work, and return the scheduler's
    /// end-of-run report: counters, no `outputs` (each finished request
    /// went to its client), and latency summaries read from the
    /// telemetry hub's histograms (bucket-interpolated percentiles).
    pub fn shutdown(self) -> Result<ContinuousReport, String> {
        self.handle.status.draining.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
        self.accept_thread.join().map_err(|_| "accept thread panicked".to_string())?;
        // Dropping our ServeHandle closes the channel once connection
        // threads finish; the loop drains and exits.
        drop(self.handle);
        self.loop_thread.join().map_err(|_| "scheduler thread panicked".to_string())?
    }
}

fn handle_connection(
    stream: TcpStream,
    handle: ServeHandle,
    telemetry: Arc<Telemetry>,
    cfg: HttpServerConfig,
    stats: Arc<HttpServerStats>,
) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader, &cfg.limits) {
            Ok(None) => return, // clean close
            Ok(Some(r)) => r,
            Err(e) => {
                let (status, reason) = e.status();
                stats.client_err_4xx.fetch_add(1, Ordering::Relaxed);
                let _ = write_response(
                    &mut writer,
                    status,
                    reason,
                    "application/json",
                    &json_error(&e.to_string()),
                    true,
                );
                return;
            }
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let close = req.wants_close();
        let ok = route(&req, &handle, &telemetry, &cfg, &stats, &mut writer, close);
        if ok.is_err() {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if close {
            return;
        }
    }
}

fn route(
    req: &HttpRequest,
    handle: &ServeHandle,
    telemetry: &Telemetry,
    cfg: &HttpServerConfig,
    stats: &HttpServerStats,
    w: &mut impl Write,
    close: bool,
) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let st = handle.status();
            let body = format!(
                "{{\"status\":\"{}\",\"uptime_s\":{:.3},\"epoch\":{},\"restarts\":{},\"queued\":{}}}",
                if st.draining.load(Ordering::Relaxed) { "draining" } else { "ok" },
                handle.now_s(),
                st.epoch.load(Ordering::Relaxed),
                st.restarts.load(Ordering::Relaxed),
                st.queued.load(Ordering::Relaxed),
            );
            stats.ok_2xx.fetch_add(1, Ordering::Relaxed);
            write_response(w, 200, "OK", "application/json", body.as_bytes(), close)
        }
        ("GET", "/metrics") => {
            stats.ok_2xx.fetch_add(1, Ordering::Relaxed);
            let st = handle.status();
            let mut text = telemetry.metrics_text();
            text.push_str(&format!(
                "serving_dist: epoch={} restarts={}\n",
                st.epoch.load(Ordering::Relaxed),
                st.restarts.load(Ordering::Relaxed),
            ));
            write_response(w, 200, "OK", "text/plain; charset=utf-8", text.as_bytes(), close)
        }
        ("POST", "/v1/completions") => {
            match parse_completion(&req.body, cfg.vocab, cfg.max_tokens_cap) {
                Err(msg) => {
                    stats.client_err_4xx.fetch_add(1, Ordering::Relaxed);
                    write_response(w, 400, "Bad Request", "application/json", &json_error(&msg), close)
                }
                Ok(c) if c.stream => stream_completion(w, handle, c, cfg, stats, close),
                Ok(c) => {
                    let deadline = c.deadline_ms.or(cfg.default_deadline_ms);
                    match handle.submit(c.prompt, c.max_tokens, c.priority, deadline) {
                        SubmitOutcome::Done(fin) => {
                            let tokens = fin
                                .tokens
                                .iter()
                                .map(|t| t.to_string())
                                .collect::<Vec<_>>()
                                .join(",");
                            let body = format!(
                                "{{\"id\":\"cmpl-{}\",\"object\":\"text_completion\",\"model\":{:?},\"tokens\":[{}],\"usage\":{{\"completion_tokens\":{}}},\"ttft_ms\":{:.3},\"latency_ms\":{:.3}}}",
                                fin.id,
                                c.model.as_deref().unwrap_or("llmpq"),
                                tokens,
                                fin.tokens.len(),
                                fin.ttft_s * 1e3,
                                fin.sojourn_s * 1e3,
                            );
                            stats.ok_2xx.fetch_add(1, Ordering::Relaxed);
                            write_response(w, 200, "OK", "application/json", body.as_bytes(), close)
                        }
                        SubmitOutcome::Shed => refuse(w, handle, stats, Refusal::Shed, close),
                        SubmitOutcome::Expired => {
                            refuse(w, handle, stats, Refusal::Expired, close)
                        }
                        SubmitOutcome::Closed => refuse(w, handle, stats, Refusal::Closed, close),
                    }
                }
            }
        }
        ("GET" | "POST", _) => {
            stats.client_err_4xx.fetch_add(1, Ordering::Relaxed);
            write_response(w, 404, "Not Found", "application/json", &json_error("no such route"), close)
        }
        _ => {
            stats.client_err_4xx.fetch_add(1, Ordering::Relaxed);
            write_response(
                w,
                405,
                "Method Not Allowed",
                "application/json",
                &json_error("method not allowed"),
                close,
            )
        }
    }
}

/// Answer a `"stream": true` completion: chunked transfer-encoding,
/// one JSON line per token as it lands, then a final `done` chunk. The
/// status line is only committed once the first event arrives, so shed
/// and expired requests still get their proper 429/504.
fn stream_completion(
    w: &mut impl Write,
    handle: &ServeHandle,
    c: CompletionRequest,
    cfg: &HttpServerConfig,
    stats: &HttpServerStats,
    close: bool,
) -> std::io::Result<()> {
    let deadline = c.deadline_ms.or(cfg.default_deadline_ms);
    let first = handle
        .submit_stream(c.prompt, c.max_tokens, c.priority, deadline)
        .and_then(|rx| rx.recv().ok().map(|first| (rx, first)));
    let Some((rx, first)) = first else {
        return refuse(w, handle, stats, Refusal::Closed, close);
    };
    match first {
        StreamEvent::Shed => refuse(w, handle, stats, Refusal::Shed, close),
        StreamEvent::Expired => refuse(w, handle, stats, Refusal::Expired, close),
        ev @ (StreamEvent::Token { .. } | StreamEvent::Done(_)) => {
            stats.ok_2xx.fetch_add(1, Ordering::Relaxed);
            write!(
                w,
                "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
                if close { "close" } else { "keep-alive" },
            )?;
            w.flush()?;
            let mut pending = Some(ev);
            // High-water dedup: after a ring restart the recompute
            // re-lands earlier indices, which must not be re-emitted.
            let mut next_index = 0usize;
            loop {
                let event = match pending.take() {
                    Some(e) => e,
                    None => match rx.recv() {
                        Ok(e) => e,
                        Err(_) => {
                            // Scheduler gone mid-stream (shutdown):
                            // terminate cleanly with a done chunk.
                            write_chunk(
                                w,
                                format!(
                                    "{{\"done\":true,\"reason\":\"shutdown\",\"tokens\":{next_index}}}\n"
                                )
                                .as_bytes(),
                            )?;
                            break;
                        }
                    },
                };
                match event {
                    StreamEvent::Token { index, token } => {
                        if index >= next_index {
                            write_chunk(
                                w,
                                format!("{{\"index\":{index},\"token\":{token}}}\n").as_bytes(),
                            )?;
                            next_index = index + 1;
                        }
                    }
                    StreamEvent::Done(fin) => {
                        write_chunk(
                            w,
                            format!(
                                "{{\"done\":true,\"id\":\"cmpl-{}\",\"usage\":{{\"completion_tokens\":{}}},\"ttft_ms\":{:.3},\"latency_ms\":{:.3}}}\n",
                                fin.id,
                                fin.tokens.len(),
                                fin.ttft_s * 1e3,
                                fin.sojourn_s * 1e3,
                            )
                            .as_bytes(),
                        )?;
                        break;
                    }
                    StreamEvent::Expired => {
                        write_chunk(w, b"{\"done\":true,\"reason\":\"expired\"}\n")?;
                        break;
                    }
                    StreamEvent::Shed => {
                        write_chunk(w, b"{\"done\":true,\"reason\":\"shed\"}\n")?;
                        break;
                    }
                }
            }
            w.write_all(b"0\r\n\r\n")?;
            w.flush()
        }
    }
}

/// Convenience for the CLI serve mode: start and block forever (the
/// process exits by signal).
pub fn run_http_server<E: StepEngine + Send + 'static>(
    listener: TcpListener,
    engine: E,
    cfg: ContinuousConfig,
    http_cfg: HttpServerConfig,
    telemetry: Arc<Telemetry>,
    clock: Arc<dyn Clock>,
) -> Result<(), String> {
    let server = HttpServer::start(listener, engine, cfg, http_cfg, telemetry, clock)?;
    eprintln!("listening on {}", server.addr);
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::real_clock;
    use crate::kvpool::KvPoolConfig;
    use crate::serve::{sim_oracle_tokens, IterCost, SimStepEngine};
    use std::io::{Cursor, Read};

    fn limits() -> HttpLimits {
        HttpLimits::default()
    }

    fn parse(raw: &str) -> Result<Option<HttpRequest>, HttpParseError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()), &limits())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/completions");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
    }

    #[test]
    fn eof_between_requests_is_none() {
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn rejects_garbage_request_line() {
        assert!(matches!(parse("NONSENSE\r\n\r\n"), Err(HttpParseError::BadRequestLine(_))));
        assert!(matches!(
            parse("GET /x HTTP/1.1 extra\r\n\r\n"),
            Err(HttpParseError::BadRequestLine(_))
        ));
    }

    #[test]
    fn rejects_bad_header_and_bad_length() {
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpParseError::BadHeader(_))
        ));
        // Smuggling shapes: lengths that disagree (the rest of the body
        // would be read as a second request), a signed length, a list.
        for len in ["soup", "4\r\nContent-Length: 40", "+3", "3, 3"] {
            let err = parse(&format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\nabcd")).unwrap_err();
            assert!(matches!(err, HttpParseError::BadLength(_)) && err.status().0 == 400, "{err:?}");
        }
        let chunked = parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n");
        let err = chunked.unwrap_err();
        assert_eq!((err.status().0, err), (400, HttpParseError::TransferEncoding("chunked".into())));
        // Copies that agree frame one way only: accepted.
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc");
        assert_eq!(req.unwrap().unwrap().body, b"abc");
    }

    #[test]
    fn oversized_body_is_413_before_reading_it() {
        let lim = HttpLimits { max_body_bytes: 8, ..limits() };
        let err = read_request(
            &mut Cursor::new(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789".to_vec()),
            &lim,
        )
        .unwrap_err();
        assert_eq!(err, HttpParseError::BodyTooLarge { limit: 8 });
        assert_eq!(err.status().0, 413);
    }

    #[test]
    fn oversized_headers_are_431() {
        let lim = HttpLimits { max_header_bytes: 32, ..limits() };
        let raw = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(100));
        let err = read_request(&mut Cursor::new(raw.into_bytes()), &lim).unwrap_err();
        assert_eq!(err, HttpParseError::HeadersTooLarge);
        assert_eq!(err.status().0, 431);
    }

    #[test]
    fn completion_parses_token_array_and_string() {
        let c = parse_completion(br#"{"prompt": [1, 2, 3], "max_tokens": 5}"#, 100, 64).unwrap();
        assert_eq!(c.prompt, vec![1, 2, 3]);
        assert_eq!(c.max_tokens, 5);
        let c = parse_completion(br#"{"prompt": "hi"}"#, 100, 64).unwrap();
        assert_eq!(c.prompt, vec![b'h' as usize % 100, b'i' as usize % 100]);
        assert_eq!(c.max_tokens, 16, "default");
    }

    #[test]
    fn completion_rejects_bad_json_unknown_fields_and_bad_types() {
        assert!(parse_completion(b"{nope", 100, 64).unwrap_err().contains("bad JSON"));
        assert!(parse_completion(br#"[1,2]"#, 100, 64).unwrap_err().contains("object"));
        let err = parse_completion(br#"{"prompt":[1],"max_token":3}"#, 100, 64).unwrap_err();
        assert!(err.contains("unknown field") && err.contains("max_token"), "{err}");
        assert!(parse_completion(br#"{"prompt":[1],"max_tokens":0}"#, 100, 64).is_err());
        assert!(parse_completion(br#"{"prompt":[1],"max_tokens":65}"#, 100, 64)
            .unwrap_err()
            .contains("cap"));
        assert!(parse_completion(br#"{"prompt":[250]}"#, 100, 64)
            .unwrap_err()
            .contains("out of range"));
        assert!(parse_completion(br#"{"prompt":[1.5]}"#, 100, 64).is_err());
        assert!(parse_completion(br#"{"max_tokens":3}"#, 100, 64)
            .unwrap_err()
            .contains("missing field"));
        assert!(parse_completion(br#"{"prompt":[]}"#, 100, 64)
            .unwrap_err()
            .contains("non-empty"));
    }

    fn start_sim_server() -> HttpServer {
        let engine = SimStepEngine::new(
            KvPoolConfig { n_blocks: 512, block_tokens: 16 },
            vec![IterCost { base_s: 1e-5, per_prefill_token_s: 1e-7, per_decode_token_s: 1e-7 }],
            97,
            42,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        HttpServer::start(
            listener,
            engine,
            ContinuousConfig::default(),
            HttpServerConfig { vocab: 97, ..HttpServerConfig::default() },
            Telemetry::new(0),
            real_clock(),
        )
        .unwrap()
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut out = String::new();
        let mut buf = [0u8; 4096];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    out.push_str(&String::from_utf8_lossy(&buf[..n]));
                    // For keep-alive responses, stop once the body of
                    // the first response is complete.
                    if let Some(done) = response_complete(&out) {
                        if done {
                            break;
                        }
                    }
                }
                Err(_) => break,
            }
        }
        out
    }

    fn response_complete(out: &str) -> Option<bool> {
        let head_end = out.find("\r\n\r\n")?;
        let len = out[..head_end]
            .lines()
            .find(|l| l.to_ascii_lowercase().starts_with("content-length:"))?
            .split(':')
            .nth(1)?
            .trim()
            .parse::<usize>()
            .ok()?;
        Some(out.len() >= head_end + 4 + len)
    }

    #[test]
    fn healthz_metrics_completion_and_errors_over_real_sockets() {
        let server = start_sim_server();
        let addr = server.addr;

        let health = roundtrip(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\"status\":\"ok\""));

        let body = r#"{"prompt":[5,6,7],"max_tokens":4}"#;
        let raw = format!(
            "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let resp = roundtrip(addr, &raw);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let expect = sim_oracle_tokens(42, 97, &[5, 6, 7], 4)
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",");
        assert!(resp.contains(&format!("\"tokens\":[{expect}]")), "{resp}");

        let bad = roundtrip(
            addr,
            "POST /v1/completions HTTP/1.1\r\nContent-Length: 6\r\nConnection: close\r\n\r\n{nope}",
        );
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        let unknown_body = r#"{"prompt":[1],"maxx":2}"#;
        let unknown = roundtrip(
            addr,
            &format!(
                "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{unknown_body}",
                unknown_body.len()
            ),
        );
        assert!(unknown.starts_with("HTTP/1.1 400"), "{unknown}");
        assert!(unknown.contains("unknown field"));

        let missing = roundtrip(addr, "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        let wrong = roundtrip(addr, "DELETE /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(wrong.starts_with("HTTP/1.1 405"), "{wrong}");

        let huge = format!(
            "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            2 * 1024 * 1024
        );
        let too_big = roundtrip(addr, &huge);
        assert!(too_big.starts_with("HTTP/1.1 413"), "{too_big}");

        // Metrics: after a completion, the serving block must be there
        // with real counts.
        let metrics = roundtrip(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        for needle in
            ["# llmpq runtime telemetry snapshot", "serving:", "batch_occupancy:", "kv_occupancy:", "latency_us ttft:", "latency_us tpot:"]
        {
            assert!(metrics.contains(needle), "missing {needle:?} in {metrics}");
        }

        let report = server.shutdown().unwrap();
        assert!(report.conserves(), "{:?}", report.stats);
        assert_eq!(report.completed, 1);
    }

    /// `n` completions of `max_tokens` tokens each, one after another on
    /// one keep-alive connection; every answer must be a 200.
    fn keep_alive_completions(addr: SocketAddr, n: usize, max_tokens: usize) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for i in 0..n {
            let body = format!(r#"{{"prompt":[{}],"max_tokens":{max_tokens}}}"#, i % 97);
            write!(
                s,
                "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
            s.flush().unwrap();
            let mut out = String::new();
            let mut buf = [0u8; 2048];
            while response_complete(&out) != Some(true) {
                let n = s.read(&mut buf).unwrap();
                assert!(n > 0, "server closed a keep-alive connection");
                out.push_str(&String::from_utf8_lossy(&buf[..n]));
            }
            assert!(out.starts_with("HTTP/1.1 200"), "request {i}: {out}");
        }
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let server = start_sim_server();
        keep_alive_completions(server.addr, 3, 2);
        let report = server.shutdown().unwrap();
        assert_eq!(report.completed, 3);
        assert!(report.conserves());
    }

    /// A `SimStepEngine` whose first prefill waits for `go`: the request
    /// it serves stays in flight until the test lets it run.
    struct HeldEngine {
        inner: SimStepEngine,
        go: Option<mpsc::Receiver<()>>,
    }

    impl StepEngine for HeldEngine {
        fn pool(&self) -> &crate::kvpool::KvPool {
            self.inner.pool()
        }
        fn register(&mut self, seq: u64) -> Result<(), crate::serve::StepError> {
            self.inner.register(seq)
        }
        fn prefill_chunk(
            &mut self,
            seq: u64,
            tokens: &[usize],
            pos0: usize,
            is_last: bool,
        ) -> Result<Option<usize>, crate::serve::StepError> {
            if let Some(go) = self.go.take() {
                let _ = go.recv();
            }
            self.inner.prefill_chunk(seq, tokens, pos0, is_last)
        }
        fn decode_one(&mut self, seq: u64, last: usize, pos: usize) -> Result<usize, crate::serve::StepError> {
            self.inner.decode_one(seq, last, pos)
        }
        fn release(&mut self, seq: u64) {
            self.inner.release(seq)
        }
        fn iteration_cost_s(&self, rung: usize, prefill_tokens: usize, decode_tokens: usize) -> f64 {
            self.inner.iteration_cost_s(rung, prefill_tokens, decode_tokens)
        }
    }

    #[test]
    fn shed_when_queue_full_returns_429_with_retry_after() {
        use crate::overload::AdmissionConfig;
        // Batch 1 and queue 1 hold two requests. The engine holds its
        // first prefill until all of a flood of eight is on its way to the
        // scheduler, so however loaded the host, the flood meets a full
        // queue: some requests are shed, and each is still answered.
        const FLOOD: u64 = 8;
        let (go, held) = mpsc::channel();
        let engine = HeldEngine {
            inner: SimStepEngine::new(
                KvPoolConfig { n_blocks: 64, block_tokens: 16 },
                vec![IterCost { base_s: 0.05, per_prefill_token_s: 0.0, per_decode_token_s: 0.0 }],
                97,
                42,
            ),
            go: Some(held),
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = HttpServer::start(
            listener,
            engine,
            ContinuousConfig {
                admission: AdmissionConfig { max_queue: 1, ..AdmissionConfig::default() },
                max_batch: 1,
                ..ContinuousConfig::default()
            },
            HttpServerConfig { vocab: 97, ..HttpServerConfig::default() },
            Telemetry::new(0),
            real_clock(),
        )
        .unwrap();
        let threads: Vec<_> = (0..FLOOD)
            .map(|i| {
                let addr = server.addr;
                std::thread::spawn(move || {
                    let body = format!(r#"{{"prompt":[{i}],"max_tokens":2}}"#);
                    let raw = format!(
                        "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    );
                    roundtrip(addr, &raw)
                })
            })
            .collect();
        // A request takes its id just before it is sent to the scheduler;
        // the grace covers that last step.
        while server.handle.next_id.load(Ordering::Relaxed) < FLOOD {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        go.send(()).unwrap();
        let (mut ok, mut shed) = (0, 0);
        for t in threads {
            let resp = t.join().unwrap();
            assert!(!resp.is_empty(), "dropped connection");
            match resp.split_whitespace().nth(1) {
                Some("200") => ok += 1,
                Some("429") => {
                    shed += 1;
                    let retry = resp
                        .lines()
                        .find(|l| l.to_ascii_lowercase().starts_with("retry-after:"))
                        .unwrap_or_else(|| panic!("429 without Retry-After:\n{resp}"));
                    let secs: u64 = retry.split(':').nth(1).unwrap().trim().parse().unwrap();
                    assert!((1..=60).contains(&secs), "retry-after {secs} out of range");
                }
                _ => panic!("neither 200 nor 429:\n{resp}"),
            }
        }
        assert!(ok >= 1 && shed >= 1, "{ok} served, {shed} shed");
        let dropped = server.stats().dropped.load(Ordering::Relaxed);
        let report = server.shutdown().unwrap();
        assert!(report.conserves(), "{:?}", report.stats);
        assert_eq!(dropped, 0, "a shed request is answered, not dropped");
    }

    #[test]
    fn shutdown_report_has_counters_and_hub_latencies_but_no_outputs() {
        // The server hands every finished request to its connection
        // thread and keeps none: after N completions the report counts
        // them, archives nothing, and summarises the hub's histograms.
        const N: usize = 40;
        let server = start_sim_server();
        keep_alive_completions(server.addr, N, 3);
        let report = server.shutdown().unwrap();
        assert!(report.conserves(), "{:?}", report.stats);
        assert_eq!(report.completed, N);
        assert_eq!(report.generated_tokens, 3 * N as u64);
        assert!(report.outputs.is_empty(), "the server archived {} requests", report.outputs.len());
        for (what, l) in [("ttft", report.ttft), ("tpot", report.tpot), ("sojourn", report.sojourn)] {
            let l = l.unwrap_or_else(|| panic!("{what} summary missing"));
            assert!(
                0.0 <= l.p50 && l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.max,
                "{what} out of order: {l:?}"
            );
            assert!(l.mean <= l.max, "{what}: {l:?}");
        }
        let (ttft, sojourn) = (report.ttft.unwrap(), report.sojourn.unwrap());
        assert!(ttft.max <= sojourn.max, "first token after the last: {ttft:?} {sojourn:?}");
    }

    /// Split a chunked response into (headers, decoded body). Panics on
    /// malformed framing — that *is* the assertion.
    fn decode_chunked(raw: &str) -> (String, String) {
        let head_end = raw.find("\r\n\r\n").expect("headers");
        let head = raw[..head_end].to_string();
        let mut rest = &raw[head_end + 4..];
        let mut body = String::new();
        loop {
            let line_end = rest.find("\r\n").expect("chunk size line");
            let size = usize::from_str_radix(rest[..line_end].trim(), 16).expect("hex size");
            rest = &rest[line_end + 2..];
            if size == 0 {
                break;
            }
            body.push_str(&rest[..size]);
            assert_eq!(&rest[size..size + 2], "\r\n", "chunk terminator");
            rest = &rest[size + 2..];
        }
        (head, body)
    }

    #[test]
    fn streaming_completion_delivers_tokens_as_chunks() {
        let server = start_sim_server();
        let body = r#"{"prompt":[5,6,7],"max_tokens":4,"stream":true}"#;
        let raw = format!(
            "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let resp = roundtrip(server.addr, &raw);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let (head, body) = decode_chunked(&resp);
        assert!(
            head.to_ascii_lowercase().contains("transfer-encoding: chunked"),
            "{head}"
        );
        let lines: Vec<&str> = body.lines().collect();
        let expect = sim_oracle_tokens(42, 97, &[5, 6, 7], 4);
        assert_eq!(lines.len(), expect.len() + 1, "4 token lines + done: {body}");
        for (i, tok) in expect.iter().enumerate() {
            assert_eq!(lines[i], format!("{{\"index\":{i},\"token\":{tok}}}"), "{body}");
        }
        assert!(lines.last().unwrap().contains("\"done\":true"), "{body}");
        assert!(lines.last().unwrap().contains("\"completion_tokens\":4"), "{body}");
        let report = server.shutdown().unwrap();
        assert_eq!(report.completed, 1);
        assert!(report.conserves());
    }

    #[test]
    fn streamed_and_unstreamed_tokens_agree() {
        let server = start_sim_server();
        let plain = r#"{"prompt":[9,1],"max_tokens":3}"#;
        let streamed = r#"{"prompt":[9,1],"max_tokens":3,"stream":true}"#;
        let get = |body: &str| {
            roundtrip(
                server.addr,
                &format!(
                    "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                ),
            )
        };
        let plain_resp = get(plain);
        let stream_resp = get(streamed);
        let expect = sim_oracle_tokens(42, 97, &[9, 1], 3);
        let joined = expect.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",");
        assert!(plain_resp.contains(&format!("\"tokens\":[{joined}]")), "{plain_resp}");
        let (_, body) = decode_chunked(&stream_resp);
        for (i, tok) in expect.iter().enumerate() {
            assert!(
                body.contains(&format!("{{\"index\":{i},\"token\":{tok}}}")),
                "missing token {i} in {body}"
            );
        }
        server.shutdown().unwrap();
    }

    /// A front door whose scheduler answers every submission with
    /// `verdict` (`None`: the scheduler is gone).
    fn canned_handle(verdict: Option<StreamEvent>) -> ServeHandle {
        let (tx, rx) = mpsc::channel::<Submission>();
        if let Some(verdict) = verdict {
            std::thread::spawn(move || {
                for sub in rx {
                    let _ = sub.resp.send(verdict.clone());
                }
            });
        }
        ServeHandle {
            tx,
            next_id: Arc::new(AtomicU64::new(0)),
            clock: real_clock(),
            epoch: Duration::ZERO,
            status: Arc::new(ServeStatus::default()),
            max_batch: 8,
        }
    }

    #[test]
    fn streamed_and_unstreamed_refusals_are_the_same_bytes() {
        // A request refused before its first token — shed, expired past
        // its deadline, or met by a scheduler that is gone — has not
        // committed to chunked encoding yet, so `"stream": true` must
        // not change a byte of the answer.
        let cfg = HttpServerConfig { vocab: 97, ..HttpServerConfig::default() };
        let stats = HttpServerStats::default();
        let rows = [(Some(StreamEvent::Shed), 429), (Some(StreamEvent::Expired), 504), (None, 503)];
        for (verdict, status) in rows {
            let handle = canned_handle(verdict);
            let answer = |stream: bool| {
                let body = format!(r#"{{"prompt":[1,2],"max_tokens":2,"stream":{stream}}}"#);
                let raw = format!(
                    "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                let req = parse(&raw).unwrap().unwrap();
                let mut out = Vec::new();
                route(&req, &handle, &Telemetry::new(0), &cfg, &stats, &mut out, false).unwrap();
                String::from_utf8(out).unwrap()
            };
            let (plain, streamed) = (answer(false), answer(true));
            assert!(plain.starts_with(&format!("HTTP/1.1 {status} ")), "{plain}");
            assert_eq!(plain.contains("\r\nRetry-After: "), status != 504, "{plain}");
            assert_eq!(plain, streamed);
        }
        assert_eq!(stats.client_err_4xx.load(Ordering::Relaxed), 2);
        assert_eq!(stats.server_err_5xx.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn healthz_reports_epoch_restarts_and_queue() {
        let server = start_sim_server();
        let health = roundtrip(server.addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        for needle in ["\"status\":\"ok\"", "\"epoch\":0", "\"restarts\":0", "\"queued\":"] {
            assert!(health.contains(needle), "missing {needle} in {health}");
        }
        let metrics = roundtrip(server.addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(metrics.contains("serving_dist: epoch=0 restarts=0"), "{metrics}");
        server.shutdown().unwrap();
    }

    #[test]
    fn stream_field_must_be_a_boolean() {
        let err = parse_completion(br#"{"prompt":[1],"stream":1}"#, 100, 64).unwrap_err();
        assert!(err.contains("stream") && err.contains("boolean"), "{err}");
        let c = parse_completion(br#"{"prompt":[1],"stream":true}"#, 100, 64).unwrap();
        assert!(c.stream);
    }
}
