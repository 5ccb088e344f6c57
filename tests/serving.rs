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
    ContinuousConfig, HttpServer, HttpServerConfig, IterCost, KvPoolConfig, ModelStepEngine,
    PhasePolicy, Request, SimStepEngine, Telemetry,
};
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
    let report = serve_continuous(engine, &requests, cfg, None).expect("run completes");
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
    let report = serve_continuous(engine, &requests, ContinuousConfig::default(), None)
        .expect("run completes");
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
    let report = serve_continuous(engine, &requests, cfg, None).expect("run completes");
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
