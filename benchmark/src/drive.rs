//! The load generators: a closed loop over keep-alive HTTP connections
//! and an open loop submitting on a schedule, both producing one
//! [`Record`] per request with client-side clock readings only.

use crate::client::Conn;
use crate::gen::{poisson_schedule, Mix, Rng, BLOCK};
use llmpq_runtime::{ServeHandle, StreamEvent};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// When a run stops sending: after `seconds`, or after `count` requests,
/// whichever comes first. Requests in flight are completed and counted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stop {
    /// No request starts (or is due) after this many seconds.
    pub seconds: Option<f64>,
    /// At most this many requests are sent.
    pub count: Option<usize>,
}

impl Stop {
    /// Whether a run started at `start` that has sent `sent` requests
    /// must stop sending.
    pub fn reached(&self, start: Instant, sent: usize) -> bool {
        self.seconds
            .is_some_and(|s| start.elapsed().as_secs_f64() >= s)
            || self.count.is_some_and(|n| sent >= n)
    }
}

/// One request as its client saw it. Compact — a `frontdoor_sim` run
/// keeps a few hundred thousand of them, and they must not become the
/// process's memory footprint.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Index into the seeded request list.
    pub index: u32,
    /// Scheduler-side request id.
    pub server_id: u32,
    /// Handed to the server, nanoseconds after [`Observed::start`].
    pub sent_ns: u64,
    /// Last byte / final event observed, same clock.
    pub done_ns: u64,
    /// How long after its due time it was sent, µs (0 in a closed loop,
    /// where a request is due when it is sent).
    pub late_us: u32,
    /// Sent → first streamed token observed, µs (0 = none streamed).
    pub first_us: u32,
    /// Server-reported arrival → completion, milliseconds (HTTP only).
    pub server_latency_ms: f32,
    /// Tokens received.
    pub n_tokens: u16,
    /// Completed with every requested token.
    pub ok: bool,
}

impl Record {
    /// Due → last byte, milliseconds: what a user waited.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6 + f64::from(self.late_us) / 1e3
    }

    /// Due → first streamed token, milliseconds.
    pub fn ttft_ms(&self) -> Option<f64> {
        (self.first_us > 0).then(|| f64::from(self.first_us + self.late_us) / 1e3)
    }

    /// Time per output token after the first, milliseconds.
    pub fn tpot_ms(&self) -> Option<f64> {
        let after_first =
            (self.done_ns - self.sent_ns) as f64 / 1e6 - f64::from(self.first_us) / 1e3;
        (self.first_us > 0 && self.n_tokens > 1).then(|| after_first / f64::from(self.n_tokens - 1))
    }
}

/// Requests whose tokens are kept for the output check: one in this many.
pub const CHECK_EVERY: usize = 8;

/// Records and check samples a client keeps at most in an untraced run.
/// Beyond that the records are a uniform reservoir sample, so that the
/// benchmark's own memory stays a few megabytes however many requests
/// a run completes (`frontdoor_sim`: some 300 000) and does not become
/// `peak_rss_mb`. A traced run keeps everything: its spans need it.
pub const KEEP_PER_CLIENT: usize = 16_384;

/// Everything a load generator observed.
#[derive(Debug)]
pub struct Observed {
    /// Start of the measured window.
    pub start: Instant,
    /// End of the measured window (the last completion), ns after start.
    pub end_ns: u64,
    /// Requests sent.
    pub attempted: usize,
    /// Of those, how many did not complete with every requested token.
    pub failed: usize,
    /// The requests, or a uniform sample of them (see [`KEEP_PER_CLIENT`]).
    pub records: Vec<Record>,
    /// `(request index, latency ms)` of every completed request, eight
    /// bytes each: what the laps are cut from (`stats::quiet_laps`).
    pub latencies: Vec<(u32, f32)>,
    /// `(request index, tokens)` of every [`CHECK_EVERY`]-th request.
    pub sampled: Vec<(u32, Vec<usize>)>,
    /// Client-observed gaps between streamed chunks, milliseconds.
    pub gaps_ms: Vec<f64>,
    /// Completed requests per second: Σ over clients of requests over
    /// that client's own wall time, so a client that drains a slow last
    /// request does not dilute the others.
    pub req_per_s: f64,
    /// Generated tokens per second, summed the same way.
    pub tok_per_s: f64,
}

impl Observed {
    fn empty(start: Instant) -> Self {
        Self {
            start,
            end_ns: 0,
            attempted: 0,
            failed: 0,
            records: Vec::new(),
            latencies: Vec::new(),
            sampled: Vec::new(),
            gaps_ms: Vec::new(),
            req_per_s: 0.0,
            tok_per_s: 0.0,
        }
    }

    /// Count `r` and keep it while there is room for `keep` records;
    /// past that, let it replace a random earlier one with probability
    /// `keep / attempted` (a uniform reservoir sample).
    fn note(&mut self, r: Record, keep: usize, rng: &mut Rng) {
        self.attempted += 1;
        self.failed += usize::from(!r.ok);
        self.end_ns = self.end_ns.max(r.done_ns);
        if r.ok {
            self.latencies.push((r.index, r.latency_ms() as f32));
        }
        if self.records.len() < keep {
            self.records.push(r);
        } else if let Some(slot) = self.records.get_mut(rng.below(self.attempted)) {
            *slot = r;
        }
    }
}

fn since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// Closed loop: client `c` of `C` sends requests `c, c+C, c+2C, …` of
/// the seeded list back to back on its own connection, keeping at most
/// `keep` records.
pub fn closed_loop(
    conns: Vec<Conn>,
    mix: Mix,
    seed: u64,
    stop: Stop,
    keep: usize,
) -> Result<Observed, String> {
    let n_clients = conns.len();
    let gate = Arc::new(Barrier::new(n_clients + 1));
    let workers: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(c, mut conn)| {
            let gate = gate.clone();
            std::thread::spawn(move || -> Result<Observed, String> {
                let mut rng = Rng::keyed(seed, 7, c as u64);
                gate.wait();
                let start = Instant::now();
                let mut seen = Observed::empty(start);
                let (mut index, mut tokens_ok) = (c, 0usize);
                while !stop.reached(start, index) {
                    let spec = mix.request(seed, index);
                    let bytes = spec.http_bytes();
                    let sent = Instant::now();
                    let reply = conn
                        .roundtrip(&bytes)
                        .map_err(|e| format!("request {index}: {e}"))?;
                    let done = Instant::now();
                    seen.gaps_ms
                        .extend(reply.gaps_ms.iter().map(|g| f64::from(*g)));
                    let ok = reply.status == 200 && reply.tokens.len() == spec.max_tokens;
                    tokens_ok += if ok { reply.tokens.len() } else { 0 };
                    let record = Record {
                        index: index as u32,
                        server_id: reply.server_id as u32,
                        sent_ns: since(start, sent),
                        done_ns: since(start, done),
                        late_us: 0,
                        first_us: reply
                            .first_token
                            .map_or(0, |f| (since(sent, f) / 1000).max(1) as u32),
                        server_latency_ms: reply.server_latency_ms as f32,
                        n_tokens: reply.tokens.len() as u16,
                        ok,
                    };
                    seen.note(record, keep, &mut rng);
                    if index.is_multiple_of(CHECK_EVERY) && seen.sampled.len() < keep {
                        seen.sampled.push((index as u32, reply.tokens));
                    }
                    index += n_clients;
                }
                let wall = seen.end_ns as f64 / 1e9;
                seen.req_per_s = (seen.attempted - seen.failed) as f64 / wall;
                seen.tok_per_s = tokens_ok as f64 / wall;
                Ok(seen)
            })
        })
        .collect();
    gate.wait();
    // Each client's clock starts when it leaves the gate, microseconds
    // after this; its records are shifted onto this common start.
    let mut out = Observed::empty(Instant::now());
    for w in workers {
        let mut seen = w
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        let shift = since(out.start, seen.start);
        for r in &mut seen.records {
            r.sent_ns += shift;
            r.done_ns += shift;
        }
        out.end_ns = out.end_ns.max(seen.end_ns + shift);
        out.attempted += seen.attempted;
        out.failed += seen.failed;
        out.req_per_s += seen.req_per_s;
        out.tok_per_s += seen.tok_per_s;
        out.records.append(&mut seen.records);
        out.latencies.append(&mut seen.latencies);
        out.sampled.append(&mut seen.sampled);
        out.gaps_ms.append(&mut seen.gaps_ms);
    }
    Ok(out)
}

struct Pending {
    index: usize,
    want: usize,
    due: Instant,
    sent: Instant,
    first: Option<Instant>,
    tokens: Vec<usize>,
    rx: Receiver<StreamEvent>,
}

/// Open loop: one generator thread submits request `i` at its scheduled
/// time whatever the server is doing; the calling thread collects the
/// streams by polling (two load-generator threads in all).
pub fn open_loop(
    handle: ServeHandle,
    mix: Mix,
    seed: u64,
    rate: f64,
    stop: Stop,
) -> Result<Observed, String> {
    // Whole stratification blocks only: each spans exactly BLOCK / rate
    // seconds, so every seed offers the same work in the same time.
    let timed = stop
        .seconds
        .map(|s| ((rate * s) as usize / BLOCK).max(1) * BLOCK);
    let n = timed
        .unwrap_or(usize::MAX)
        .min(stop.count.unwrap_or(usize::MAX));
    let schedule = poisson_schedule(seed, rate, n);
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now() + Duration::from_millis(2);
    let generator = std::thread::spawn(move || -> Result<(), String> {
        for (index, due_s) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(*due_s);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let spec = mix.request(seed, index);
            let sent = Instant::now();
            let stream = handle
                .submit_stream(spec.prompt, spec.max_tokens, 1, None)
                .ok_or("scheduler closed mid-run")?;
            let p = Pending {
                index,
                want: spec.max_tokens,
                due,
                sent,
                first: None,
                tokens: Vec::new(),
                rx: stream,
            };
            tx.send(p).map_err(|_| "collector gone".to_string())?;
        }
        Ok(())
    });

    let mut active: Vec<Pending> = Vec::new();
    let mut out = Observed::empty(start);
    // An open loop sends a few hundred requests at most: all are kept,
    // and the reservoir's generator is never drawn from.
    let mut rng = Rng::keyed(seed, 7, 0);
    let mut feeding = true;
    while feeding || !active.is_empty() {
        let mut progressed = false;
        while feeding {
            match rx.try_recv() {
                Ok(p) => active.push(p),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => feeding = false,
            }
        }
        let mut i = 0;
        while i < active.len() {
            let mut finished: Option<(bool, u64)> = None;
            loop {
                match active[i].rx.try_recv() {
                    // A preemption re-lands earlier indices: keep the first copy.
                    Ok(StreamEvent::Token { index, token }) => {
                        progressed = true;
                        let p = &mut active[i];
                        if index == p.tokens.len() {
                            p.tokens.push(token);
                            p.first.get_or_insert_with(Instant::now);
                        }
                    }
                    Ok(StreamEvent::Done(fin)) => finished = Some((true, fin.id as u64)),
                    Ok(StreamEvent::Shed | StreamEvent::Expired) => finished = Some((false, 0)),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => finished = Some((false, 0)),
                }
                if finished.is_some() {
                    break;
                }
            }
            match finished {
                None => i += 1,
                Some((done_ok, server_id)) => {
                    progressed = true;
                    let p = active.swap_remove(i);
                    let record = Record {
                        index: p.index as u32,
                        server_id: server_id as u32,
                        sent_ns: since(start, p.sent),
                        done_ns: since(start, Instant::now()),
                        late_us: (since(p.due, p.sent) / 1000) as u32,
                        first_us: p
                            .first
                            .map_or(0, |f| (since(p.sent, f) / 1000).max(1) as u32),
                        server_latency_ms: 0.0,
                        n_tokens: p.tokens.len() as u16,
                        ok: done_ok && p.tokens.len() == p.want,
                    };
                    out.note(record, usize::MAX, &mut rng);
                    if p.index.is_multiple_of(CHECK_EVERY) {
                        out.sampled.push((p.index as u32, p.tokens));
                    }
                }
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    generator
        .join()
        .map_err(|_| "generator thread panicked".to_string())??;
    let wall = out.end_ns as f64 / 1e9;
    let ok = out.records.iter().filter(|r| r.ok);
    out.req_per_s = ok.clone().count() as f64 / wall.max(f64::MIN_POSITIVE);
    out.tok_per_s =
        ok.map(|r| usize::from(r.n_tokens)).sum::<usize>() as f64 / wall.max(f64::MIN_POSITIVE);
    Ok(out)
}
