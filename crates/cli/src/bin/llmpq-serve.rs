//! `llmpq-serve`: the online-serving front end — continuous batching
//! over the paged KV pool, exposed three ways.
//!
//! ```text
//! # real HTTP server (OpenAI-ish /v1/completions, /metrics, /healthz)
//! llmpq-serve --mode serve --addr 127.0.0.1:8080
//!
//! # virtual-clock trace run: 10k concurrent requests, exact invariants
//! llmpq-serve --mode drive --requests 10000 --rate 5000
//!
//! # continuous vs static on the same trace (the ablation in miniature)
//! llmpq-serve --mode drive --requests 2000 --rate 200 --compare-static
//!
//! # self-contained HTTP soak: real sockets at ~2x capacity, asserts
//! # conservation + zero dropped connections, exits nonzero on failure
//! llmpq-serve --mode soak --clients 16 --per-client 25
//! ```
//!
//! `drive` replays a Poisson trace (either the runtime's synthetic
//! `poisson_requests` or the workload crate's ShareGPT-like arrival
//! sampler via `--workload sharegpt`) under the virtual clock and prints a
//! `ContinuousReport` as JSON — the same struct `ablation_serving`
//! aggregates. `soak` is the CI job: it starts the real server on an
//! ephemeral port, floods it from real client sockets, and checks that
//! every connection got an answer and every request is accounted for
//! (`offered == served + shed + expired`).

use llm_pq::ExecutionPlan;
use llmpq_cli::Args;
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{BitAssignment, Bitwidth, Rounding};
use llmpq_runtime::{
    poisson_requests, real_clock, serve_continuous, serve_static, AdmissionConfig,
    AdmissionPolicy, ContinuousConfig, ContinuousReport, DistServeConfig, DistStepEngine,
    HttpServerConfig, IterCost, KvPoolConfig, ModelStepEngine, PhasePolicy, Request, RungSwap,
    SimStepEngine, StepEngine, Telemetry,
};
use llmpq_workload::{
    sample_arrivals, sample_arrivals_for_duration, MicrobatchPlan, OnlineConfig, PromptLengthModel,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: llmpq-serve --mode serve|drive|soak
  engine (all modes):
    [--engine sim|model|dist] analytic cost model, real quantized transformer, or the
                             distributed ring engine (in-process stages; default sim)
    [--rungs 3]              degradation ladder depth (model/dist: Fp16>Int8>Int4>Int3)
    [--blocks 4096]          KV pool blocks
    [--block-tokens 16]      tokens per KV block
    [--mem-budget-mb 0]      model engine: unified memory budget; packed weights are
                             subtracted, the rest becomes KV blocks (0 = use --blocks)
    [--vocab 97]             sim-engine vocabulary
    [--seed 42]              engine + trace seed
  scheduler (all modes):
    [--token-budget 256]     prefill+decode tokens per iteration
    [--max-batch 32]         max sequences in flight
    [--prefill-chunk 64]     chunked-prefill granularity
    [--policy decode-first]  decode-first|prefill-first|mixed:<frac>
    [--max-queue 256]        admission queue bound
    [--admission reject]     reject|deadline-shed|queue-timeout
    [--queue-timeout-s 1.0]  bound for queue-timeout admission
    [--deadline-ms 0]        per-request SLO (0 = none)
    [--degrade]              enable graceful degradation over the rung ladder
    [--swap-at 0]            live plan swap after this iteration (0 = never)
    [--swap-rung 1]          target rung for --swap-at
  serve:
    [--addr 127.0.0.1:8080]  listen address
    [--max-tokens-cap 256]   largest max_tokens a request may ask
  drive:
    [--requests 2000]        trace length
    [--rate 200]             Poisson arrival rate (req/s, virtual)
    [--workload poisson]     poisson (short prompts) | sharegpt (length mixture)
    [--duration 0]           keep only sharegpt arrivals within this window, seconds
                             (an empty window is a hard error, not an empty run)
    [--prompt-len 24]        max prompt length for the poisson trace
    [--gen 8]                tokens generated per request (poisson trace)
    [--compare-static]       also run the static-batching baseline
    [--batch-size 8]         static baseline batch size
    [--max-wait-s 0.5]       static baseline batch window
    [--keep-outputs]         keep per-request outputs in the JSON (large)
  soak:
    [--clients 16]           concurrent client connections
    [--per-client 25]        requests per client (keep-alive)
    (every 429/503 must carry a parseable Retry-After or the soak fails)
    [--help]";

/// Every flag [`USAGE`] documents; anything else is a typo.
const FLAGS: &[&str] = &[
    "mode", "engine", "rungs", "blocks", "block-tokens", "mem-budget-mb", "vocab", "seed",
    "token-budget", "max-batch", "prefill-chunk", "policy", "max-queue", "admission",
    "queue-timeout-s", "deadline-ms", "degrade", "swap-at", "swap-rung", "addr", "max-tokens-cap",
    "requests", "rate", "workload", "duration", "prompt-len", "gen", "compare-static",
    "batch-size", "max-wait-s", "keep-outputs", "clients", "per-client", "help",
];

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

macro_rules! get {
    ($args:expr, $name:expr, $default:expr) => {
        match $args.get_parse($name, $default) {
            Ok(v) => v,
            Err(e) => return fail(&e.to_string()),
        }
    };
}

struct EngineParams {
    kind: String,
    rungs: usize,
    pool: KvPoolConfig,
    vocab: usize,
    seed: u64,
    /// Worker-side sequence slots for the dist engine (covers the
    /// scheduler's max batch).
    slots: usize,
    /// Unified device memory budget in MiB for the model engine
    /// (0 = size the pool from `--blocks` instead). Packed weights are
    /// subtracted first; the remainder becomes KV blocks.
    mem_budget_mb: usize,
}

/// What `--engine` names.
struct BuiltEngine {
    engine: Box<dyn StepEngine + Send>,
    vocab: usize,
    /// The hub `/metrics` renders: the ring's own for `dist`, so the
    /// restarts, plan epoch and per-stage lines it shows are the ring's.
    telemetry: Arc<Telemetry>,
}

fn build_engine(p: &EngineParams) -> Result<BuiltEngine, String> {
    let local = |engine, vocab| BuiltEngine { engine, vocab, telemetry: Telemetry::new(0) };
    match p.kind.as_str() {
        "sim" => {
            let e = SimStepEngine::new(
                p.pool,
                IterCost::default_ladder(p.rungs),
                p.vocab,
                p.seed,
            );
            Ok(local(Box::new(e), p.vocab))
        }
        "model" => {
            let cfg = RefConfig::scaled_like(4, p.seed);
            let vocab = cfg.vocab;
            let checkpoint = RefModel::new(cfg);
            let all = [Bitwidth::Fp16, Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int3];
            let ladder: Vec<BitAssignment> = all
                .iter()
                .take(p.rungs.clamp(1, all.len()))
                .map(|b| BitAssignment::uniform(checkpoint.cfg.n_layers, *b))
                .collect();
            let e = if p.mem_budget_mb > 0 {
                ModelStepEngine::new_with_budget(
                    &checkpoint,
                    &ladder,
                    Rounding::Deterministic,
                    p.seed,
                    p.pool.block_tokens,
                    p.mem_budget_mb * 1024 * 1024,
                )?
            } else {
                ModelStepEngine::new(&checkpoint, &ladder, Rounding::Deterministic, p.seed, p.pool)?
            };
            Ok(local(Box::new(e), vocab))
        }
        "dist" => {
            // The same checkpoint/ladder as `model`, but executed
            // through the two-stage in-process serving ring — the CLI
            // face of the distributed continuous-serving path (with
            // live `--swap-at` migration and supervisor restarts).
            let cfg = RefConfig::scaled_like(4, p.seed);
            let vocab = cfg.vocab;
            let checkpoint = RefModel::new(cfg);
            let n_layers = checkpoint.cfg.n_layers;
            let cut = n_layers / 2;
            let all = [Bitwidth::Fp16, Bitwidth::Int8, Bitwidth::Int4, Bitwidth::Int3];
            let plans: Vec<ExecutionPlan> = all
                .iter()
                .take(p.rungs.clamp(1, all.len()))
                .map(|&b| {
                    let mb = MicrobatchPlan { prefill_size: 1, prefill_count: 1, decode_size: 1, decode_count: 1 };
                    ExecutionPlan::contiguous("llmpq-serve", "in-process", vec![vec![b; cut], vec![b; n_layers - cut]], mb)
                })
                .collect();
            let e = DistStepEngine::over_channels(
                &checkpoint,
                plans,
                Rounding::Deterministic,
                p.seed,
                DistServeConfig { n_slots: p.slots, pool: p.pool, ..DistServeConfig::default() },
                None,
            )?;
            Ok(BuiltEngine { telemetry: e.telemetry(), engine: Box::new(e), vocab })
        }
        other => Err(format!("unknown engine '{other}' (sim|model|dist)")),
    }
}

fn scheduler_cfg(args: &Args) -> Result<ContinuousConfig, String> {
    let policy: PhasePolicy = args
        .get("policy")
        .unwrap_or("decode-first")
        .parse()
        .map_err(|e: String| e)?;
    let admission: AdmissionPolicy = args
        .get("admission")
        .unwrap_or("reject")
        .parse()
        .map_err(|e: String| e)?;
    let deadline_ms = args.get_parse("deadline-ms", 0u64).map_err(|e| e.to_string())?;
    Ok(ContinuousConfig {
        admission: AdmissionConfig {
            policy: admission,
            max_queue: args.get_parse("max-queue", 256usize).map_err(|e| e.to_string())?,
            default_deadline_s: (deadline_ms > 0).then_some(deadline_ms as f64 / 1000.0),
            queue_timeout_s: args.get_parse("queue-timeout-s", 1.0f64).map_err(|e| e.to_string())?,
        },
        token_budget: args.get_parse("token-budget", 256usize).map_err(|e| e.to_string())?,
        max_batch: args.get_parse("max-batch", 32usize).map_err(|e| e.to_string())?,
        prefill_chunk: args.get_parse("prefill-chunk", 64usize).map_err(|e| e.to_string())?,
        policy,
        degradation: args.switch("degrade").then(Default::default),
        swaps: {
            let at = args.get_parse("swap-at", 0u64).map_err(|e| e.to_string())?;
            let rung = args.get_parse("swap-rung", 1usize).map_err(|e| e.to_string())?;
            (at > 0).then_some(RungSwap { at_iteration: at, rung }).into_iter().collect()
        },
    })
}

/// Deterministic prompt tokens for a sampled arrival (the trace only
/// fixes lengths; tokens come from a seeded hash so reruns match).
fn fill_prompt(i: usize, len: usize, vocab: usize, seed: u64) -> Vec<usize> {
    let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % vocab as u64) as usize
        })
        .collect()
}

fn sharegpt_trace(
    n: usize,
    rate: f64,
    seed: u64,
    vocab: usize,
    max_seq: usize,
    deadline_ms: u64,
    duration_s: Option<f64>,
) -> Result<Vec<Request>, String> {
    let cfg = OnlineConfig {
        arrival_rate: rate,
        n_requests: n,
        n_generate: (4, 24),
        seed,
    };
    let model = PromptLengthModel::default();
    // A window that holds zero arrivals is a typed OnlineError — the
    // drive mode surfaces it instead of serving an empty trace.
    let arrivals = match duration_s {
        Some(d) => sample_arrivals_for_duration(&cfg, &model, d),
        None => sample_arrivals(&cfg, &model),
    }
    .map_err(|e| e.to_string())?;
    Ok(arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            // Clamp into the engine context so length dispersion stresses
            // the scheduler, not the feasibility check.
            let plen = a.prompt_len.min(max_seq.saturating_sub(a.n_generate + 1)).max(1);
            Request {
                id: i,
                arrival_s: a.arrival_s,
                prompt: fill_prompt(i, plen, vocab, seed),
                n_generate: a.n_generate,
                deadline_s: (deadline_ms > 0)
                    .then(|| a.arrival_s + deadline_ms as f64 / 1000.0),
                priority: a.priority,
            }
        })
        .collect())
}

fn report_json(mut r: ContinuousReport, keep_outputs: bool) -> String {
    if !keep_outputs {
        r.outputs.clear();
    }
    serde_json::to_string_pretty(&r).unwrap_or_else(|e| format!("{{\"error\":{e:?}}}"))
}

fn run_drive(args: &Args, cfg: ContinuousConfig, params: &EngineParams) -> Result<ExitCode, String> {
    let n = args.get_parse("requests", 2000usize).map_err(|e| e.to_string())?;
    let rate = args.get_parse("rate", 200.0f64).map_err(|e| e.to_string())?;
    let prompt_len = args.get_parse("prompt-len", 24usize).map_err(|e| e.to_string())?;
    let gen = args.get_parse("gen", 8usize).map_err(|e| e.to_string())?;
    let deadline_ms = args.get_parse("deadline-ms", 0u64).map_err(|e| e.to_string())?;
    let duration = args.get_parse("duration", 0.0f64).map_err(|e| e.to_string())?;
    let duration_s = (duration != 0.0).then_some(duration);
    let trace_kind = args.get("workload").unwrap_or("poisson");
    let BuiltEngine { engine, vocab, .. } = build_engine(params)?;
    let max_seq = engine.max_seq();
    let mut requests = match trace_kind {
        "poisson" => {
            if duration_s.is_some() {
                return Err("--duration requires --workload sharegpt".into());
            }
            let mut reqs = poisson_requests(n, rate, prompt_len, gen, params.seed)?;
            if deadline_ms > 0 {
                for r in &mut reqs {
                    r.deadline_s = Some(r.arrival_s + deadline_ms as f64 / 1000.0);
                }
            }
            reqs
        }
        "sharegpt" => {
            sharegpt_trace(n, rate, params.seed, vocab, max_seq, deadline_ms, duration_s)?
        }
        other => return Err(format!("unknown workload '{other}' (poisson|sharegpt)")),
    };
    for r in &mut requests {
        for t in &mut r.prompt {
            *t %= vocab.max(1);
        }
    }
    let keep = args.switch("keep-outputs");
    let report = serve_continuous(engine, &requests, cfg.clone(), None)?;
    let conserves = report.conserves();
    if !args.switch("compare-static") {
        println!("{}", report_json(report, keep));
        return Ok(if conserves { ExitCode::SUCCESS } else { ExitCode::from(1) });
    }
    let batch_size = args.get_parse("batch-size", 8usize).map_err(|e| e.to_string())?;
    let max_wait = args.get_parse("max-wait-s", 0.5f64).map_err(|e| e.to_string())?;
    let engine2 = build_engine(params)?.engine;
    let baseline = serve_static(engine2, &requests, cfg, batch_size, max_wait)?;
    let both_ok = conserves && baseline.conserves();
    println!(
        "{{\n\"continuous\": {},\n\"static\": {}\n}}",
        report_json(report, keep),
        report_json(baseline, keep)
    );
    Ok(if both_ok { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn run_serve(args: &Args, cfg: ContinuousConfig, params: &EngineParams) -> Result<ExitCode, String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let deadline_ms = args.get_parse("deadline-ms", 0u64).map_err(|e| e.to_string())?;
    let BuiltEngine { engine, vocab, telemetry } = build_engine(params)?;
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let http_cfg = HttpServerConfig {
        vocab,
        max_tokens_cap: args.get_parse("max-tokens-cap", 256usize).map_err(|e| e.to_string())?,
        default_deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
        ..HttpServerConfig::default()
    };
    llmpq_runtime::run_http_server(listener, engine, cfg, http_cfg, telemetry, real_clock())?;
    Ok(ExitCode::SUCCESS)
}

/// A 429/503 answer must tell the client when to come back; a missing
/// or unparseable `Retry-After` counts against the soak.
fn retry_after_ok(resp: &str) -> bool {
    resp.lines()
        .find(|l| l.to_ascii_lowercase().starts_with("retry-after:"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .is_some()
}

fn soak_client(
    addr: std::net::SocketAddr,
    client: usize,
    per_client: usize,
    vocab: usize,
    answered: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
    bad_retry: Arc<AtomicU64>,
) -> Vec<u16> {
    let mut codes = Vec::with_capacity(per_client);
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            dropped.fetch_add(per_client as u64, Ordering::Relaxed);
            return codes;
        }
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    for i in 0..per_client {
        let tok = (client * 31 + i * 7) % vocab.max(1);
        let body = format!("{{\"prompt\":[{tok}],\"max_tokens\":4,\"priority\":{}}}", i % 4);
        let raw = format!(
            "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if stream.write_all(raw.as_bytes()).is_err() {
            dropped.fetch_add((per_client - i) as u64, Ordering::Relaxed);
            return codes;
        }
        // Read one full response (headers + Content-Length body).
        let mut resp = String::new();
        let mut buf = [0u8; 4096];
        let code = loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break None,
                Ok(n) => {
                    resp.push_str(&String::from_utf8_lossy(&buf[..n]));
                    if let Some(done) = body_complete(&resp) {
                        if done {
                            break resp
                                .split_whitespace()
                                .nth(1)
                                .and_then(|c| c.parse::<u16>().ok());
                        }
                    }
                }
            }
        };
        match code {
            Some(c) => {
                answered.fetch_add(1, Ordering::Relaxed);
                if (c == 429 || c == 503) && !retry_after_ok(&resp) {
                    bad_retry.fetch_add(1, Ordering::Relaxed);
                }
                codes.push(c);
            }
            None => {
                dropped.fetch_add((per_client - i) as u64, Ordering::Relaxed);
                return codes;
            }
        }
    }
    codes
}

fn body_complete(resp: &str) -> Option<bool> {
    let head_end = resp.find("\r\n\r\n")?;
    let len = resp[..head_end]
        .lines()
        .find(|l| l.to_ascii_lowercase().starts_with("content-length:"))?
        .split(':')
        .nth(1)?
        .trim()
        .parse::<usize>()
        .ok()?;
    Some(resp.len() >= head_end + 4 + len)
}

fn run_soak(args: &Args, cfg: ContinuousConfig, params: &EngineParams) -> Result<ExitCode, String> {
    let clients = args.get_parse("clients", 16usize).map_err(|e| e.to_string())?;
    let per_client = args.get_parse("per-client", 25usize).map_err(|e| e.to_string())?;
    let BuiltEngine { engine, vocab, telemetry } = build_engine(params)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let http_cfg = HttpServerConfig { vocab, ..HttpServerConfig::default() };
    let server =
        llmpq_runtime::HttpServer::start(listener, engine, cfg, http_cfg, telemetry, real_clock())?;
    let addr = server.addr;
    let answered = Arc::new(AtomicU64::new(0));
    let client_dropped = Arc::new(AtomicU64::new(0));
    let bad_retry = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let (a, d, b) = (answered.clone(), client_dropped.clone(), bad_retry.clone());
            std::thread::spawn(move || soak_client(addr, c, per_client, vocab, a, d, b))
        })
        .collect();
    let mut codes: Vec<u16> = Vec::new();
    for t in threads {
        codes.extend(t.join().map_err(|_| "client thread panicked".to_string())?);
    }
    let server_dropped = server.stats().dropped.load(Ordering::Relaxed);
    let report = server.shutdown()?;
    let total = (clients * per_client) as u64;
    let got = answered.load(Ordering::Relaxed);
    let lost = client_dropped.load(Ordering::Relaxed);
    let count = |code: u16| codes.iter().filter(|c| **c == code).count();
    let no_retry = bad_retry.load(Ordering::Relaxed);
    let ok = report.conserves()
        && server_dropped == 0
        && lost == 0
        && got == total
        && no_retry == 0;
    println!(
        "{{\"offered\":{},\"answered\":{got},\"expected\":{total},\"dropped_server\":{server_dropped},\"dropped_client\":{lost},\"retry_after_missing\":{no_retry},\"status_200\":{},\"status_429\":{},\"status_504\":{},\"completed\":{},\"shed\":{},\"expired\":{},\"preemptions\":{},\"conserves\":{},\"ok\":{ok}}}",
        report.stats.offered,
        count(200),
        count(429),
        count(504),
        report.completed,
        report.stats.shed,
        report.stats.expired,
        report.preemptions,
        report.conserves(),
    );
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)).and_then(|a| a.reject_unknown(FLAGS)) {
        Ok(a) => a,
        Err(e) => return fail(&e.to_string()),
    };
    if args.switch("help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let params = EngineParams {
        kind: args.get("engine").unwrap_or("sim").to_string(),
        rungs: get!(args, "rungs", 3usize),
        pool: KvPoolConfig {
            n_blocks: get!(args, "blocks", 4096usize),
            block_tokens: get!(args, "block-tokens", 16usize),
        },
        vocab: get!(args, "vocab", 97usize),
        seed: get!(args, "seed", 42u64),
        slots: get!(args, "max-batch", 32usize),
        mem_budget_mb: get!(args, "mem-budget-mb", 0usize),
    };
    let cfg = match scheduler_cfg(&args) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let mode = args.get("mode").unwrap_or("drive");
    let out = match mode {
        "drive" => run_drive(&args, cfg, &params),
        "serve" => run_serve(&args, cfg, &params),
        "soak" => run_soak(&args, cfg, &params),
        other => Err(format!("unknown mode '{other}' (serve|drive|soak)")),
    };
    match out {
        Ok(code) => code,
        Err(e) => fail(&e),
    }
}
