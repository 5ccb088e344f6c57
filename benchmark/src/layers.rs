//! Per-layer metrics read off the spans of a traced serving run, the
//! scheduler's self time from a direct-drive replay, and the wall-time
//! attribution that sums to one.

use crate::gen::ReqSpec;
use crate::probes::Values;
use crate::stats::{mean, pctl, pctl_any, sorted};
use crate::trace::{covered_ns, self_times, Kind, Span, SpanLog, TracedEngine, NO_PARENT};
use crate::workloads::{sim_engine, Load, Serving};
use llmpq_runtime::{ContinuousReport, ContinuousScheduler, Request};
use std::collections::HashMap;

/// One request on the span log's clock.
#[derive(Debug, Clone, Copy)]
pub struct Seen {
    /// Scheduler-side id (the `req` of its engine spans).
    pub server_id: u64,
    /// Handed to the server.
    pub sent_ns: u64,
    /// Last byte / final event read.
    pub done_ns: u64,
    /// Client latency minus the server's own `latency_ms`, µs (HTTP).
    pub frontdoor_us: Option<f64>,
}

/// Front-door counters of the measured window (warm-ups discounted).
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpCounts {
    /// Requests parsed off sockets.
    pub requests: u64,
    /// Connections that died without a response.
    pub dropped: u64,
    /// 5xx responses.
    pub resp_5xx: u64,
}

/// What the per-layer tables take from the scheduler's end-of-run
/// report.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedFacts {
    /// Scheduler iterations executed.
    pub iterations: u64,
    /// Mean sequences in flight per iteration.
    pub mean_batch_occupancy: f64,
    /// Peak sequences in flight.
    pub peak_batch: usize,
    /// Preempt-and-recompute events.
    pub preemptions: u64,
    /// Requests shed by admission.
    pub shed: usize,
    /// Prefill tokens the engine ran.
    pub prefill_tokens: u64,
    /// Peak KV blocks in use.
    pub kv_peak_blocks: usize,
}

impl From<&ContinuousReport> for SchedFacts {
    fn from(r: &ContinuousReport) -> Self {
        Self {
            iterations: r.iterations,
            mean_batch_occupancy: r.mean_batch_occupancy,
            peak_batch: r.peak_batch,
            preemptions: r.preemptions,
            shed: r.stats.shed,
            prefill_tokens: r.prefill_tokens,
            kv_peak_blocks: r.kv_peak_blocks,
        }
    }
}

/// Everything the live traced run hands to the per-layer tables.
#[derive(Default)]
pub struct Live<'a> {
    /// Engine spans recorded by `TracedEngine` (any order).
    pub spans: &'a [Span],
    /// Measured window on the log's clock.
    pub window: (u64, u64),
    /// Completed requests.
    pub seen: &'a [Seen],
    /// The scheduler's end-of-run report.
    pub report: SchedFacts,
    /// Front-door counters.
    pub http: HttpCounts,
    /// Prompt tokens offered over the whole run (warm-ups included, as
    /// in the report's prefill count).
    pub prompt_tokens: u64,
    /// Open-loop submit lateness, ms (empty for a closed loop).
    pub lateness_ms: &'a [f64],
    /// Scheduler self time per iteration from the replay, µs.
    pub step_self_us: f64,
    /// KV positions reserved per position in use.
    pub kv_reserved_over_used: f64,
    /// Seconds one span costs to record.
    pub span_cost_s: f64,
}

fn is_engine(k: Kind) -> bool {
    matches!(
        k,
        Kind::Register | Kind::Prefill | Kind::Decode | Kind::Release
    )
}

fn top(sorted_vals: &[f64], p: f64) -> f64 {
    pctl(sorted_vals, p)
        .or_else(|| pctl_any(sorted_vals, p))
        .unwrap_or(0.0)
}

/// The `http`, `serve`, `engine`, `kvpool` counters, the generator's
/// lateness, the tracing overhead and the `attr.*` fractions.
pub fn live_layers(l: &Live) -> Values {
    let (w0, w1) = l.window;
    let wall_ns = (w1 - w0).max(1) as f64;
    let in_window: Vec<&Span> = l
        .spans
        .iter()
        .filter(|s| is_engine(s.kind) && s.start_ns >= w0 && s.end_ns <= w1)
        .collect();
    let mut out = Values::new();

    let fd = sorted(l.seen.iter().filter_map(|s| s.frontdoor_us).collect());
    out.push(("http.frontdoor_us_p50", pctl_any(&fd, 0.5).unwrap_or(0.0)));
    out.push(("http.requests", l.http.requests as f64));
    out.push(("http.dropped", l.http.dropped as f64));
    out.push(("http.resp_5xx", l.http.resp_5xx as f64));

    // Queue wait: handed to the server → the scheduler registers it
    // (includes the request's own parse and the channel hand-off).
    let mut registered: HashMap<u64, u64> = HashMap::new();
    let mut lifetime: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in &in_window {
        if s.kind == Kind::Register {
            registered.entry(s.req).or_insert(s.start_ns);
        }
        let e = lifetime.entry(s.req).or_insert((s.start_ns, s.end_ns));
        *e = (e.0.min(s.start_ns), e.1.max(s.end_ns));
    }
    let waits = sorted(
        l.seen
            .iter()
            .filter_map(|s| {
                registered
                    .get(&s.server_id)
                    .map(|r| r.saturating_sub(s.sent_ns) as f64 / 1e6)
            })
            .collect(),
    );
    out.push(("serve.step_self_us_mean", l.step_self_us));
    out.push(("serve.iterations", l.report.iterations as f64));
    out.push((
        "serve.queue_wait_ms_p50",
        pctl_any(&waits, 0.5).unwrap_or(0.0),
    ));
    out.push(("serve.queue_wait_ms_p90", top(&waits, 0.9)));
    out.push(("serve.batch_occupancy_mean", l.report.mean_batch_occupancy));
    out.push(("serve.peak_batch", l.report.peak_batch as f64));
    out.push(("serve.preemptions", l.report.preemptions as f64));
    out.push(("serve.shed", l.report.shed as f64));
    out.push((
        "serve.recompute_ratio",
        if l.prompt_tokens == 0 {
            0.0
        } else {
            l.report.prefill_tokens as f64 / l.prompt_tokens as f64
        },
    ));

    let of = |k: Kind| in_window.iter().filter(move |s| s.kind == k);
    let prefill_ns: u64 = of(Kind::Prefill).map(|s| s.dur_ns()).sum();
    let prefill_tok: u64 = of(Kind::Prefill).map(|s| u64::from(s.arg)).sum();
    let decode_us = sorted(of(Kind::Decode).map(|s| s.dur_ns() as f64 / 1e3).collect());
    let decode_ns: u64 = of(Kind::Decode).map(|s| s.dur_ns()).sum();
    let ctx = |keep: fn(u32) -> bool| {
        mean(
            &of(Kind::Decode)
                .filter(|s| keep(s.arg))
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let engine_ns: u64 = in_window.iter().map(|s| s.dur_ns()).sum();
    out.push((
        "engine.prefill_us_per_tok",
        if prefill_tok == 0 {
            0.0
        } else {
            prefill_ns as f64 / 1e3 / prefill_tok as f64
        },
    ));
    out.push((
        "engine.decode_us_per_tok_p50",
        pctl_any(&decode_us, 0.5).unwrap_or(0.0),
    ));
    out.push(("engine.decode_us_per_tok_p99", top(&decode_us, 0.99)));
    out.push(("engine.decode_us_per_tok.ctx_le64", ctx(|pos| pos <= 64)));
    out.push(("engine.decode_us_per_tok.ctx_gt128", ctx(|pos| pos > 128)));
    out.push(("engine.prefill_busy_s", prefill_ns as f64 / 1e9));
    out.push(("engine.decode_busy_s", decode_ns as f64 / 1e9));
    out.push(("engine.busy_frac", engine_ns as f64 / wall_ns));

    out.push(("kvpool.peak_blocks", l.report.kv_peak_blocks as f64));
    out.push(("kvpool.reserved_over_used", l.kv_reserved_over_used));
    out.push((
        "loadgen.lateness_ms_p99",
        top(&sorted(l.lateness_ms.to_vec()), 0.99),
    ));
    // Computed: spans recorded × the measured cost of recording one,
    // over the wall time they were recorded in.
    let recorded = in_window.len() + l.seen.len();
    out.push((
        "trace.overhead_frac",
        recorded as f64 * l.span_cost_s * 1e9 / wall_ns,
    ));

    // Wall-time attribution on the scheduler thread. While no sequence
    // is registered the scheduler is starved: either no client has a
    // request outstanding (idle) or requests are in the front door.
    let mut inflight: Vec<(u64, u64)> = lifetime.values().copied().collect();
    let mut outstanding: Vec<(u64, u64)> = l.seen.iter().map(|s| (s.sent_ns, s.done_ns)).collect();
    let starved = wall_ns - covered_ns(&mut inflight, w0, w1) as f64;
    let idle = wall_ns - covered_ns(&mut outstanding, w0, w1) as f64;
    let engine = engine_ns as f64 / wall_ns;
    let sched = l.report.iterations as f64 * l.step_self_us * 1e3 / wall_ns;
    let idle_frac = idle / wall_ns;
    let frontdoor = (starved - idle).max(0.0) / wall_ns;
    out.push(("attr.engine_frac", engine));
    out.push(("attr.sched_frac", sched));
    out.push(("attr.frontdoor_frac", frontdoor));
    out.push(("attr.idle_frac", idle_frac));
    out.push((
        "attr.unattributed_frac",
        1.0 - engine - sched - frontdoor - idle_frac,
    ));
    out
}

/// Requests the replay drives at most (a `frontdoor_sim` run sends more
/// than a hundred thousand; the scheduler's cost per step does not
/// depend on how many came before).
const REPLAY_REQUESTS: usize = 4000;

/// Direct-drive replay: the workload's request list offered to a
/// `ContinuousScheduler` over a traced zero-work engine on this thread,
/// one `Step` span around every `step`. Virtual time advances by
/// `per_token_s` per scheduled token, so batches form as they did live.
/// Returns the mean self time of the non-idle steps, µs.
pub fn replay_step_self_us(
    w: &Serving,
    requests: &[ReqSpec],
    due_s: &[f64],
    per_token_s: f64,
) -> Result<f64, String> {
    let n = requests.len().min(REPLAY_REQUESTS);
    let engine = sim_engine(0, w.pool, per_token_s);
    let log = SpanLog::new(8 * n + 64);
    let mut sched = ContinuousScheduler::new(
        TracedEngine::new(Box::new(engine), Some(log.clone())),
        w.sched_config(),
    )?;
    let (mut now, mut next, mut outstanding) = (0.0f64, 0usize, 0usize);
    let offer = |sched: &mut ContinuousScheduler<TracedEngine>, i: usize, now: f64| {
        let r = &requests[i];
        sched.offer(
            Request {
                id: i,
                arrival_s: now,
                prompt: r.prompt.clone(),
                n_generate: r.max_tokens,
                deadline_s: None,
                priority: 1,
            },
            now,
        )
    };
    loop {
        match w.load {
            Load::Closed { conns } => {
                while outstanding < conns && next < n {
                    outstanding += usize::from(offer(&mut sched, next, now));
                    next += 1;
                }
            }
            Load::Open { .. } => {
                while next < n && due_s[next] <= now {
                    outstanding += usize::from(offer(&mut sched, next, now));
                    next += 1;
                }
            }
        }
        let start_ns = log.now_ns();
        let idx = log.record(Span {
            kind: Kind::Step,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
            req: 0,
            arg: 0,
        });
        log.set_parent(idx);
        let step = sched.step(now).map_err(|e| e.to_string())?;
        log.close(idx, log.now_ns());
        log.set_parent(NO_PARENT);
        outstanding -= step.finished.len() + step.shed_ids.len() + step.expired_ids.len();
        if step.idle {
            if next >= n {
                break;
            }
            if let Load::Open { .. } = w.load {
                now = due_s[next];
            }
            continue;
        }
        now += step.cost_s.max(1e-9);
    }
    let spans = log.snapshot();
    let selfs = self_times(&spans);
    let busy: std::collections::HashSet<u32> = spans.iter().map(|s| s.parent).collect();
    let steps: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.kind == Kind::Step && busy.contains(&(*i as u32)))
        .map(|(i, _)| selfs[i] as f64 / 1e3)
        .collect();
    Ok(mean(&steps))
}

/// Per-layer names the live tables fill, zeroed: what a workload that
/// serves nothing (`plan_fleet`) reports for them.
pub fn zero_live_layers() -> Values {
    let nothing = Live {
        window: (0, 1),
        ..Live::default()
    };
    live_layers(&nothing)
        .into_iter()
        .map(|(name, _)| (name, 0.0))
        .collect()
}
