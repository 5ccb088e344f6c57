//! One run of one workload: set-up (several times, for its median),
//! the measured window, the output checks, and the metrics — end-to-end
//! from an untraced run, per-layer from a traced one.

use crate::drive::{closed_loop, open_loop, Observed, Record, Stop, KEEP_PER_CLIENT};
use crate::gen::{poisson_schedule, ReqSpec};
use crate::layers::{live_layers, replay_step_self_us, zero_live_layers, HttpCounts, Live, Seen};
use crate::plan::{self, PlanInputs};
use crate::probes;
use crate::report::{Outcome, PER_LAYER};
use crate::stats::{median, pctl, pctl_any, quiet_laps, sorted, Quiet};
use crate::sys::{peak_rss_mb, pin_to_one_cpu};
use crate::trace::{chrome_json, link_to_requests, Kind, Span, SpanLog, NO_PARENT};
use crate::workloads::{
    serving, setup, warmup_count, warmup_request, EngineKind, Env, Load, Serving, VOCAB,
};
use llmpq_model::RefModel;
use llmpq_quant::{quantize_model, Rounding};
use llmpq_runtime::sim_oracle_tokens;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups timed per untraced run (`setup_s` is their median): at least
/// [`SETUP_REPS`], and more while they have taken under
/// [`SETUP_BUDGET_S`] together, up to [`SETUP_REPS_MAX`] — a set-up of
/// a third of a millisecond (`frontdoor_sim`) needs a hundred samples
/// for its median to repeat, one of a tenth of a second (`chat_decode`)
/// is affordable nine times. A `--quick` run makes do with
/// [`SETUP_REPS_QUICK`]; a traced one, which reports no end-to-end
/// metric, sets up once.
const SETUP_REPS: usize = 9;
const SETUP_REPS_MAX: usize = 200;
const SETUP_BUDGET_S: f64 = 0.5;
const SETUP_REPS_QUICK: usize = 3;

/// Sampled replies (one request in `drive::CHECK_EVERY`) checked against
/// a model oracle per run, at most.
const CHECK_CAP: usize = 12;

/// `mixed_open`'s goodput limits, pinned once: at the seed commit six
/// to nine requests in ten meet both.
const GOODPUT_TTFT_MS: f64 = 500.0;
const GOODPUT_TPOT_MS: f64 = 40.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs and of the model weights.
    pub seed: u64,
    /// When to stop sending.
    pub stop: Stop,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where `trace_<workload>.json` goes.
    pub out_dir: PathBuf,
    /// Self-test: corrupt one expected token so the check must fail.
    pub corrupt_oracle: bool,
    /// Part of a `--quick` suite: spend less on set-up repetitions.
    pub quick: bool,
}

impl RunArgs {
    /// Whether another set-up is due after `done` of them took `spent_s`.
    fn setup_again(&self, done: usize, spent_s: f64) -> bool {
        match (self.trace, self.quick) {
            (true, _) => false,
            (false, true) => done < SETUP_REPS_QUICK,
            (false, false) => {
                done < SETUP_REPS || (done < SETUP_REPS_MAX && spent_s < SETUP_BUDGET_S)
            }
        }
    }
}

/// Run the workload `args` names. `t0` is the process start.
pub fn run(args: &RunArgs, t0: Instant) -> Result<Outcome, String> {
    // One CPU for the whole process, the load generator included (the
    // threads started from here on inherit it). The program runs one
    // thread at a time on every workload here (`vendor/rayon` is
    // sequential, the ring forwards one sequence at a time), so a second
    // CPU buys it nothing, and costs the measurement its repeatability:
    // every hand-off to a thread on the other, halted, vCPU waits for
    // the shared host to schedule that vCPU. `chat_decode` was 15 %
    // slower on two CPUs than on one and spread three times as wide.
    // When the program learns to use a second CPU, this goes.
    pin_to_one_cpu();
    match serving(&args.workload) {
        Some(w) => run_serving(&w, args, t0),
        None if args.workload == "plan_fleet" => run_plan(args, t0),
        None => Err(format!("unknown workload {:?}", args.workload)),
    }
}

fn teardown(env: Env) -> Result<llmpq_runtime::ContinuousReport, String> {
    let Env { server, conns, .. } = env;
    // Closing the sockets lets the connection threads return.
    drop(conns);
    server.shutdown()
}

/// Time set-ups while `args` asks for another; the last one is kept
/// (with `log` attached).
fn timed_setups(
    w: &Serving,
    args: &RunArgs,
    log: Option<Arc<SpanLog>>,
    t0: Instant,
) -> Result<(Env, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut from = t0;
    while args.setup_again(secs.len() + 1, secs.iter().sum()) {
        let env = setup(w, args.seed, None)?;
        secs.push(from.elapsed().as_secs_f64());
        teardown(env)?;
        from = Instant::now();
    }
    let env = setup(w, args.seed, log)?;
    secs.push(from.elapsed().as_secs_f64());
    Ok((env, secs))
}

/// The five metrics every workload reports. The latencies are those of
/// the run's quiet laps (see [`Quiet`] for why).
fn universal(out: &mut Outcome, setup_secs: &[f64], quiet: &Quiet, req_per_s: f64) {
    let (lat, n) = (&quiet.latencies_ms, quiet.latencies_ms.len());
    out.metric(
        "setup_s",
        median(setup_secs).unwrap_or(0.0),
        setup_secs.len(),
    );
    out.metric("latency_p50_ms", pctl_any(lat, 0.5).unwrap_or(0.0), n);
    out.metric("latency_p75_ms", pctl_any(lat, 0.75).unwrap_or(0.0), n);
    out.metric("req_per_s", req_per_s, n);
    out.metric("peak_rss_mb", peak_rss_mb(), 0);
    out.extra("laps", Some(quiet.laps as f64), 0);
}

/// Compare the sampled replies with the offline oracle: the quantized
/// model's own greedy generation, or the simulated engine's hash chain.
fn check_tokens(
    w: &Serving,
    checkpoint: Option<&RefModel>,
    args: &RunArgs,
    obs: &Observed,
) -> Vec<String> {
    let oracle = checkpoint
        .zip(w.assignment())
        .map(|(ck, bits)| quantize_model(ck, &bits, Rounding::Deterministic, args.seed));
    // A model oracle run costs as much as the request did; a hash chain is free.
    let cap = if oracle.is_some() {
        CHECK_CAP
    } else {
        usize::MAX
    };
    let mut failures = Vec::new();
    for (n, (index, tokens)) in obs.sampled.iter().take(cap).enumerate() {
        let spec = w.mix.request(args.seed, *index as usize);
        let mut expected = match &oracle {
            Some(model) => model.generate(&spec.prompt, spec.max_tokens, 0.0, 0).tokens,
            None => sim_oracle_tokens(args.seed, VOCAB, &spec.prompt, spec.max_tokens),
        };
        if args.corrupt_oracle && n == 0 {
            expected[0] = (expected[0] + 1) % VOCAB;
        }
        if *tokens != expected {
            failures.push(format!(
                "{}: request {index} tokens {tokens:?} != oracle {expected:?}",
                w.name
            ));
        }
    }
    failures
}

fn run_serving(w: &Serving, args: &RunArgs, t0: Instant) -> Result<Outcome, String> {
    let log = args.trace.then(|| SpanLog::new(1 << 22));
    let (mut env, setup_secs) = timed_setups(w, args, log.clone(), t0)?;

    let stop = Stop {
        count: args.stop.count.or(w.timed_cap),
        ..args.stop
    };
    let obs: Observed = match w.load {
        Load::Closed { .. } => {
            let keep = if args.trace {
                usize::MAX
            } else {
                KEEP_PER_CLIENT
            };
            closed_loop(std::mem::take(&mut env.conns), w.mix, args.seed, stop, keep)?
        }
        Load::Open { rate } => open_loop(env.server.handle(), w.mix, args.seed, rate, stop)?,
    };

    let stats = env.server.stats();
    let over_http = matches!(w.load, Load::Closed { .. });
    let http = HttpCounts {
        requests: stats
            .requests
            .load(Ordering::Relaxed)
            .saturating_sub(if over_http { warmup_count(w) as u64 } else { 0 }),
        dropped: stats.dropped.load(Ordering::Relaxed),
        resp_5xx: stats.server_err_5xx.load(Ordering::Relaxed),
    };
    let checkpoint = env.checkpoint.take();
    let report = teardown(env)?;

    let mut out = Outcome {
        attempted: obs.attempted,
        failed: obs.failed,
        ..Outcome::default()
    };
    if !report.conserves() {
        out.failures.push(format!(
            "{}: admission does not conserve: {:?}",
            w.name, report.stats
        ));
    }
    if http.dropped != 0 || http.resp_5xx != 0 {
        out.failures.push(format!(
            "{}: {} dropped connections, {} 5xx",
            w.name, http.dropped, http.resp_5xx
        ));
    }
    if report.stats.shed != 0 || report.stats.expired != 0 {
        out.failures.push(format!(
            "{}: {} shed, {} expired",
            w.name, report.stats.shed, report.stats.expired
        ));
    }
    if out.failed != 0 {
        out.failures.push(format!(
            "{}: {} of {} requests failed",
            w.name, out.failed, out.attempted
        ));
    }
    out.failures
        .extend(check_tokens(w, checkpoint.as_ref(), args, &obs));

    let ok: Vec<&Record> = obs.records.iter().filter(|r| r.ok).collect();
    let latency = sorted(ok.iter().map(|r| r.latency_ms()).collect());
    if !args.trace {
        let quiet = quiet_laps(&obs.latencies, w.lap);
        // An open loop keeps no fixed number of requests in flight: its
        // throughput is the whole run's.
        let req_per_s = match w.load {
            Load::Closed { conns } => quiet.per_second(conns),
            Load::Open { .. } => obs.req_per_s,
        };
        universal(&mut out, &setup_secs, &quiet, req_per_s);
    }

    // Metrics only some workloads have.
    let ttft = sorted(ok.iter().filter_map(|r| r.ttft_ms()).collect());
    let tpot = sorted(ok.iter().filter_map(|r| r.tpot_ms()).collect());
    out.extra("ttft_p50_ms", pctl(&ttft, 0.5), ttft.len());
    out.extra("ttft_p90_ms", pctl(&ttft, 0.9), ttft.len());
    out.extra("tpot_p50_ms", pctl(&tpot, 0.5), tpot.len());
    out.extra("tpot_p90_ms", pctl(&tpot, 0.9), tpot.len());
    if w.name == "chat_decode" {
        let gaps = sorted(obs.gaps_ms.clone());
        out.extra("itl_p99_ms", pctl(&gaps, 0.99), gaps.len());
    }
    match (w.engine, w.load) {
        (EngineKind::Sim, _) => out.extra("latency_p99_ms", pctl(&latency, 0.99), latency.len()),
        (_, Load::Closed { .. }) => out.extra(
            "output_tok_s",
            Some(obs.tok_per_s),
            obs.attempted - obs.failed,
        ),
        (_, Load::Open { .. }) => {
            let good = ok
                .iter()
                .filter(|r| r.ttft_ms().is_some_and(|t| t <= GOODPUT_TTFT_MS))
                .filter(|r| r.tpot_ms().is_none_or(|t| t <= GOODPUT_TPOT_MS))
                .count();
            out.extra(
                "goodput_rps",
                Some(good as f64 / (obs.end_ns as f64 / 1e9)),
                obs.attempted,
            );
        }
    }

    if let Some(log) = log {
        let t_start = log.ns_of(obs.start);
        let seen: Vec<Seen> = ok
            .iter()
            .map(|r| Seen {
                server_id: u64::from(r.server_id),
                sent_ns: t_start + r.sent_ns,
                done_ns: t_start + r.done_ns,
                frontdoor_us: over_http.then(|| {
                    (r.done_ns - r.sent_ns) as f64 / 1e3 - f64::from(r.server_latency_ms) * 1e3
                }),
            })
            .collect();
        let mut spans = log.snapshot();
        let engine_spans = spans.len();
        let requests: Vec<ReqSpec> = (0..obs.attempted)
            .map(|i| w.mix.request(args.seed, i))
            .collect();
        let prompt_tokens = requests.iter().map(|r| r.prompt.len()).sum::<usize>()
            + warmup_count(w) * warmup_request(true).prompt.len();
        let busy_ns: u64 = spans
            .iter()
            .filter(|s| matches!(s.kind, Kind::Prefill | Kind::Decode))
            .map(Span::dur_ns)
            .sum();
        let tokens: u64 = spans
            .iter()
            .map(|s| match s.kind {
                Kind::Prefill => u64::from(s.arg),
                Kind::Decode => 1,
                _ => 0,
            })
            .sum();
        let due_s = match w.load {
            Load::Open { rate } => poisson_schedule(args.seed, rate, requests.len()),
            Load::Closed { .. } => Vec::new(),
        };
        let lateness_ms: Vec<f64> = obs
            .records
            .iter()
            .map(|r| f64::from(r.late_us) / 1e3)
            .collect();
        let live = Live {
            spans: &spans[..engine_spans],
            window: (t_start, t_start + obs.end_ns),
            seen: &seen,
            report: (&report).into(),
            http,
            prompt_tokens: prompt_tokens as u64,
            lateness_ms: &lateness_ms,
            step_self_us: replay_step_self_us(
                w,
                &requests,
                &due_s,
                busy_ns as f64 / 1e9 / tokens.max(1) as f64,
            )?,
            kv_reserved_over_used: log.kv_reserved_over_used(),
            span_cost_s: probes::span_cost_s(),
        };
        let mut values = live_layers(&live);
        values.extend(probes::run_all(args.seed, w, &plan::inputs(args.seed))?);
        layer_metrics(&mut out, &values)?;

        spans.extend(seen.iter().zip(&ok).map(|(s, r)| Span {
            kind: Kind::Request,
            start_ns: s.sent_ns,
            end_ns: s.done_ns,
            parent: NO_PARENT,
            req: s.server_id,
            arg: u32::from(r.n_tokens),
        }));
        link_to_requests(&mut spans);
        write_trace(args, &spans)?;
    }
    Ok(out)
}

/// Put `values` into `out.metrics` in `BENCHMARK.json` order; a metric
/// nobody computed is a bug in this crate.
fn layer_metrics(out: &mut Outcome, values: &[(&'static str, f64)]) -> Result<(), String> {
    for (name, _, _) in PER_LAYER {
        let (_, v) = values
            .iter()
            .find(|(n, _)| n == &name)
            .ok_or_else(|| format!("per-layer metric {name} was not computed"))?;
        out.metric(name, *v, 0);
    }
    Ok(())
}

fn write_trace(args: &RunArgs, spans: &[Span]) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!("trace_{}.json", args.workload));
    std::fs::write(&path, chrome_json(spans)).map_err(|e| format!("{}: {e}", path.display()))
}

/// `plan_fleet`'s set-up: build the inputs and plan the small rig once.
fn plan_ready(seed: u64) -> Result<PlanInputs, String> {
    let inp = plan::inputs(seed);
    plan::warmup(&inp)?;
    Ok(inp)
}

fn run_plan(args: &RunArgs, t0: Instant) -> Result<Outcome, String> {
    let mut inp = plan_ready(args.seed)?;
    let mut setup_secs = vec![t0.elapsed().as_secs_f64()];
    while args.setup_again(setup_secs.len(), setup_secs.iter().sum()) {
        let from = Instant::now();
        inp = plan_ready(args.seed)?;
        setup_secs.push(from.elapsed().as_secs_f64());
    }

    // A count is in planning calls; whole episodes are always run.
    let run = plan::run(&inp, args.stop)?;

    let mut out = Outcome {
        attempted: run.calls.len(),
        ..Outcome::default()
    };
    out.failures = plan::check(&inp, &run);
    if args.corrupt_oracle {
        out.failures
            .push("plan_fleet: oracle corrupted on request".into());
    }
    let of_slot = |cold: bool| -> Vec<f64> {
        run.calls
            .iter()
            .filter(|c| (c.slot == 0) == cold)
            .map(|c| c.secs)
            .collect()
    };
    if !args.trace {
        let calls: Vec<(u32, f32)> = run
            .calls
            .iter()
            .enumerate()
            .map(|(i, c)| (i as u32, (c.secs * 1e3) as f32))
            .collect();
        let quiet = quiet_laps(&calls, plan::LAP_CALLS);
        universal(&mut out, &setup_secs, &quiet, quiet.per_second(1));
    }
    let (cold, warm) = (of_slot(true), of_slot(false));
    out.extra("plan_cold_s", median(&cold), cold.len());
    out.extra("replan_warm_s", median(&warm), warm.len());

    if args.trace {
        let spans: Vec<Span> = run
            .calls
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let start_ns = c.start.duration_since(run.start).as_nanos() as u64;
                Span {
                    kind: Kind::Request,
                    start_ns,
                    end_ns: start_ns + (c.secs * 1e9) as u64,
                    parent: NO_PARENT,
                    req: i as u64,
                    arg: c.slot as u32,
                }
            })
            .collect();
        let mut values = zero_live_layers();
        // No request bytes of its own: the HTTP parser replays `chat_decode`'s.
        let chat = serving("chat_decode").expect("a workload of this benchmark");
        values.extend(probes::run_all(args.seed, &chat, &inp)?);
        layer_metrics(&mut out, &values)?;
        write_trace(args, &spans)?;
    }
    Ok(out)
}
