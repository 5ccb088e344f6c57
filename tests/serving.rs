//! End-to-end serving tests: the continuous-batching engine against the
//! offline single-sequence oracle, over both the scheduler API and the
//! real HTTP front door.
//!
//! The load-bearing claim: continuous batching — chunked prefill,
//! iteration-level join/leave, paged KV, preempt-and-recompute — is a
//! *scheduling* change only. Greedy decoding is per-sequence
//! independent, so every served request must produce tokens
//! bit-identical to `quantize_model(..).generate(..)` run alone,
//! regardless of what batch composition the arrival pattern produced.

use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{quantize_model, BitAssignment, Bitwidth, Rounding};
use llmpq_runtime::{
    real_clock, serve_continuous, serve_static, AdmissionConfig, AdmissionPolicy,
    ContinuousConfig, DistServeConfig, DistStepEngine, HttpServer, HttpServerConfig, IterCost,
    KvPoolConfig, ModelStepEngine, PhasePolicy, Request, SimStepEngine, StepEngine, Telemetry,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const SEED: u64 = 7;

fn checkpoint() -> RefModel {
    RefModel::new(RefConfig::scaled_like(3, SEED))
}

fn ladder(n_layers: usize) -> Vec<BitAssignment> {
    vec![
        BitAssignment::uniform(n_layers, Bitwidth::Fp16),
        BitAssignment::uniform(n_layers, Bitwidth::Int8),
    ]
}

/// The local engine over `n_blocks` blocks of 16 positions, the one
/// block size its store holds.
fn model_engine(n_blocks: usize) -> ModelStepEngine {
    let ckpt = checkpoint();
    ModelStepEngine::new(
        &ckpt,
        &ladder(ckpt.cfg.n_layers),
        Rounding::Deterministic,
        SEED,
        KvPoolConfig { n_blocks, block_tokens: 16 },
    )
    .expect("engine builds")
}

/// What the offline path generates for `prompt`: the rung-0 quantized
/// model, greedy, run alone.
fn offline_tokens(prompt: &[usize], n: usize) -> Vec<usize> {
    let ckpt = checkpoint();
    let quantized = quantize_model(
        &ckpt,
        &BitAssignment::uniform(ckpt.cfg.n_layers, Bitwidth::Fp16),
        Rounding::Deterministic,
        SEED,
    );
    quantized.generate(prompt, n, 0.0, 0).tokens
}

fn prompt_for(i: usize, len: usize, vocab: usize) -> Vec<usize> {
    (0..len).map(|j| (i * 131 + j * 17 + 3) % vocab).collect()
}

#[test]
fn continuous_batching_is_bit_identical_to_offline_generation() {
    // Tight pool + tiny prefill chunks + staggered arrivals: the batch
    // composition changes every iteration and at least some prompts are
    // prefilled across multiple chunks.
    let engine = model_engine(24);
    let vocab = checkpoint().cfg.vocab;
    let requests: Vec<Request> = (0..12)
        .map(|i| Request {
            id: i,
            arrival_s: i as f64 * 0.004,
            prompt: prompt_for(i, 3 + (i * 5) % 21, vocab),
            n_generate: 2 + i % 6,
            deadline_s: None,
            priority: (i % 3) as u32,
        })
        .collect();
    let cfg = ContinuousConfig {
        prefill_chunk: 5,
        token_budget: 48,
        max_batch: 8,
        policy: PhasePolicy::Mixed { prefill_frac: 0.5 },
        ..ContinuousConfig::default()
    };
    let report = serve_continuous(engine, &requests, cfg).expect("run completes");
    assert!(report.conserves(), "conservation: {:?}", report.stats);
    assert_eq!(report.completed, requests.len(), "everything admitted must finish");
    for fin in &report.outputs {
        let req = &requests[fin.id];
        assert_eq!(
            fin.tokens,
            offline_tokens(&req.prompt, req.n_generate),
            "request {} diverged from the offline oracle",
            fin.id
        );
    }
}

#[test]
fn preemption_under_kv_pressure_keeps_tokens_exact() {
    // A pool small enough that concurrent sequences cannot all hold KV:
    // six sequences start in one block each and cross into a second
    // with two blocks left, so the scheduler must preempt (drop KV,
    // requeue, recompute) and the regenerated tokens must still match
    // the oracle.
    let engine = model_engine(8);
    let vocab = checkpoint().cfg.vocab;
    let requests: Vec<Request> = (0..6)
        .map(|i| Request {
            id: i,
            arrival_s: 0.0,
            prompt: prompt_for(i, 14, vocab),
            n_generate: 6,
            deadline_s: None,
            priority: (i % 2) as u32,
        })
        .collect();
    let report =
        serve_continuous(engine, &requests, ContinuousConfig::default()).expect("run completes");
    assert!(report.conserves());
    assert_eq!(report.completed, 6);
    assert!(report.preemptions > 0, "the pool must force preemption");
    for fin in &report.outputs {
        let req = &requests[fin.id];
        assert_eq!(fin.tokens, offline_tokens(&req.prompt, req.n_generate));
    }
}

#[test]
fn static_baseline_matches_the_same_oracle() {
    // The comparison in BENCH_serving.json is only fair if both
    // schedulers compute the same function.
    let vocab = checkpoint().cfg.vocab;
    let requests: Vec<Request> = (0..5)
        .map(|i| Request {
            id: i,
            arrival_s: i as f64 * 0.01,
            prompt: prompt_for(i, 4 + i, vocab),
            n_generate: 3 + i % 3,
            deadline_s: None,
            priority: 0,
        })
        .collect();
    let report =
        serve_static(model_engine(32), &requests, ContinuousConfig::default(), 4, 0.05)
            .expect("run completes");
    assert!(report.conserves());
    assert_eq!(report.completed, 5);
    for fin in &report.outputs {
        let req = &requests[fin.id];
        assert_eq!(fin.tokens, offline_tokens(&req.prompt, req.n_generate));
    }
}

#[test]
fn overload_conserves_and_sheds_with_deadlines() {
    // 10x over capacity with a deadline-shedding queue: nothing may be
    // lost or double-counted, and the pressure must actually shed.
    let engine = SimStepEngine::new(
        KvPoolConfig { n_blocks: 256, block_tokens: 16 },
        vec![IterCost { base_s: 5e-3, per_prefill_token_s: 1e-4, per_decode_token_s: 1e-3 }],
        97,
        SEED,
    );
    let requests = llmpq_runtime::poisson_requests(600, 400.0, 24, 8, SEED).expect("trace");
    let cfg = ContinuousConfig {
        admission: AdmissionConfig {
            policy: AdmissionPolicy::DeadlineShed,
            max_queue: 64,
            default_deadline_s: Some(0.5),
            ..AdmissionConfig::default()
        },
        ..ContinuousConfig::default()
    };
    let report = serve_continuous(engine, &requests, cfg).expect("run completes");
    assert!(report.conserves(), "conservation: {:?}", report.stats);
    assert!(report.stats.shed + report.stats.expired > 0, "overload must shed");
    assert_eq!(
        report.stats.offered,
        report.stats.served + report.stats.shed + report.stats.expired,
        "trace drains fully"
    );
}

fn http_roundtrip(addr: std::net::SocketAddr, raw: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(raw.as_bytes()).expect("send");
    let mut out = String::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
        }
    }
    out
}

#[test]
fn http_front_door_serves_model_tokens_and_metrics() {
    let ckpt = checkpoint();
    let vocab = ckpt.cfg.vocab;
    let engine = model_engine(32);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let telemetry = Telemetry::new(0);
    let server = HttpServer::start(
        listener,
        engine,
        ContinuousConfig::default(),
        HttpServerConfig { vocab, ..HttpServerConfig::default() },
        telemetry,
        real_clock(),
    )
    .expect("server starts");
    let addr = server.addr;

    let prompt = prompt_for(1, 7, vocab);
    let body = format!(
        "{{\"prompt\":{:?},\"max_tokens\":5}}",
        prompt
    );
    let resp = http_roundtrip(
        addr,
        &format!(
            "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let expect = offline_tokens(&prompt, 5)
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",");
    assert!(
        resp.contains(&format!("\"tokens\":[{expect}]")),
        "HTTP tokens must match the offline oracle: {resp}"
    );

    // /metrics carries the serving block with a recorded request.
    let metrics = http_roundtrip(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    for needle in ["serving:", "batch_occupancy:", "kv_occupancy:", "latency_us ttft:"] {
        assert!(metrics.contains(needle), "metrics missing {needle:?}:\n{metrics}");
    }

    // Strict JSON surface: unknown fields 400, bad JSON 400, wrong
    // route 404.
    let bad = http_roundtrip(
        addr,
        "POST /v1/completions HTTP/1.1\r\nContent-Length: 26\r\nConnection: close\r\n\r\n{\"prompt\":[1],\"maxtok\":2}x",
    );
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
    let lost = http_roundtrip(addr, "GET /v2/completions HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(lost.starts_with("HTTP/1.1 404"), "{lost}");

    let report = server.shutdown().expect("clean shutdown");
    assert!(report.conserves(), "server run conserves: {:?}", report.stats);
    assert_eq!(report.completed, 1);
}

/// Register `seqs` and prefill them in interleaved chunks of random
/// sizes (1–17 tokens), each sampling its first token on its last chunk.
fn prefill_in_chunks(
    engine: &mut dyn StepEngine,
    prompts: &[Vec<usize>],
    seqs: std::ops::Range<usize>,
    out: &mut [Vec<usize>],
    rng: &mut SmallRng,
) {
    let mut pos = vec![0usize; prompts.len()];
    for s in seqs.clone() {
        engine.register(s as u64).expect("register");
    }
    while seqs.clone().any(|s| pos[s] < prompts[s].len()) {
        for s in seqs.clone().filter(|&s| pos[s] < prompts[s].len()).collect::<Vec<_>>() {
            let take = rng.gen_range(1..=17).min(prompts[s].len() - pos[s]);
            let is_last = pos[s] + take == prompts[s].len();
            let tok = engine.prefill_chunk(s as u64, &prompts[s][pos[s]..pos[s] + take], pos[s], is_last);
            assert_eq!(tok.as_ref().map(Option::is_some), Ok(is_last), "sequence {s} at {}", pos[s]);
            out[s].extend(tok.unwrap());
            pos[s] += take;
        }
    }
}

/// Decode, in turn, every sequence that has sampled until each holds `n`.
fn decode_until(engine: &mut dyn StepEngine, prompts: &[Vec<usize>], out: &mut [Vec<usize>], n: usize) {
    while out.iter().any(|t| !t.is_empty() && t.len() < n) {
        for (s, toks) in out.iter_mut().enumerate().filter(|(_, t)| !t.is_empty() && t.len() < n) {
            let last = *toks.last().expect("prefill sampled");
            let pos = prompts[s].len() + toks.len() - 1;
            toks.push(engine.decode_one(s as u64, last, pos).expect("decode"));
        }
    }
}

/// Drive `engine` by hand: the first half of `prompts` is prefilled in
/// random chunks and decoded halfway; then, if `swap`, the engine moves
/// to rung 1 with that KV in place; then the second half is prefilled
/// (through the new shards) and everything decoded to `n` tokens.
fn hand_stepped(engine: &mut dyn StepEngine, prompts: &[Vec<usize>], n: usize, swap: bool, rng: &mut SmallRng) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); prompts.len()];
    let half = prompts.len() / 2;
    prefill_in_chunks(engine, prompts, 0..half, &mut out, rng);
    decode_until(engine, prompts, &mut out, n / 2);
    if swap {
        engine.set_rung(1);
    }
    prefill_in_chunks(engine, prompts, half..prompts.len(), &mut out, rng);
    decode_until(engine, prompts, &mut out, n);
    out
}

#[test]
fn both_engines_emit_generates_tokens_for_prompts_in_random_chunks() {
    // The final layer of a serving engine computes only the row it
    // samples (none at all for a chunk that does not sample); the tokens
    // must still be `generate`'s. The local engine, then the channel
    // ring at 1, 2 and 3 stages; a live swap between two prefills moves
    // the final stage's first layer (2 → 3 at two stages, 3 → 2 at
    // three) with KV in place, and the later prompts prefill through it.
    let n_layers = 4;
    let ckpt = RefModel::new(RefConfig::scaled_like(n_layers, SEED));
    let bits = Bitwidth::Int4;
    let oracle = quantize_model(&ckpt, &BitAssignment::uniform(n_layers, bits), Rounding::Deterministic, SEED);
    let mb = llmpq_workload::MicrobatchPlan { prefill_size: 1, prefill_count: 1, decode_size: 1, decode_count: 1 };
    let plan = |shards: &[usize]| {
        let stages = shards.iter().map(|&n| vec![bits; n]).collect();
        llm_pq::ExecutionPlan::contiguous("random-chunks", "channels", stages, mb)
    };
    let rings: [&[&[usize]]; 3] = [&[&[4]], &[&[2, 2], &[3, 1]], &[&[1, 2, 1], &[1, 1, 2]]];
    let mut rng = SmallRng::seed_from_u64(SEED);
    for round in 0..3 {
        let prompts: Vec<Vec<usize>> =
            (0..4).map(|_| (0..rng.gen_range(1..=40)).map(|_| rng.gen_range(0..ckpt.cfg.vocab)).collect()).collect();
        let n = 6;
        let want: Vec<Vec<usize>> = prompts.iter().map(|p| oracle.generate(p, n, 0.0, 0).tokens).collect();
        let mut local = ModelStepEngine::new(
            &ckpt,
            &[BitAssignment::uniform(n_layers, bits)],
            Rounding::Deterministic,
            SEED,
            KvPoolConfig { n_blocks: 32, block_tokens: 16 },
        )
        .expect("local engine");
        assert_eq!(hand_stepped(&mut local, &prompts, n, false, &mut rng), want, "local engine, round {round}");
        for shards in rings {
            let plans: Vec<_> = shards.iter().map(|s| plan(s)).collect();
            let swap = plans.len() > 1;
            let cfg = DistServeConfig { n_slots: prompts.len(), ..DistServeConfig::default() };
            let mut dist = DistStepEngine::over_channels(&ckpt, plans, Rounding::Deterministic, SEED, cfg, None)
                .expect("dist engine");
            let got = hand_stepped(&mut dist, &prompts, n, swap, &mut rng);
            assert_eq!(got, want, "{} stage(s) {shards:?}, round {round}", shards[0].len());
            assert_eq!((dist.restarts(), dist.epoch()), (0, swap as u64), "{shards:?}");
        }
    }
}
