//! Ablation: continuous (iteration-level) batching vs static batching
//! on the online serving path.
//!
//! Same arrival trace, same engine, same admission policy, same SLO —
//! the only variable is the scheduler:
//!
//! * **continuous** (`serve_continuous`): requests join the running
//!   batch at token boundaries the moment KV blocks free up, prefill is
//!   chunked and interleaved with decodes under one token budget, and
//!   finished sequences leave immediately.
//! * **static** (`serve_static`): the offline-style baseline —
//!   accumulate a batch (or time out), pad every prompt to the longest,
//!   lock-step decode to the longest generation, all finish together.
//!
//! The paper-facing metric is **goodput** (completions inside the SLO
//! per second) with the p99 deadline-miss picture alongside: padding
//! and lock-step decode make static batching burn budget on work that
//! was already late. Emits `BENCH_serving.json` and prints the table.
//!
//! A second section prices the distributed ring itself: the same
//! continuous scheduler over the real reference model, once on the
//! in-process [`ModelStepEngine`] and once on the two-stage
//! [`DistStepEngine`] channel ring (no faults). The rings must agree
//! token for token; the row pair shows what the pipeline hop costs in
//! throughput and tail latency.

use crate::{Args, Out, TextTable};
use llm_pq::{ExecutionPlan, MicrobatchPlan};
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{BitAssignment, Bitwidth, Rounding};
use llmpq_runtime::{
    poisson_requests, serve_continuous, serve_static, ContinuousConfig, ContinuousReport,
    DistServeConfig, DistStepEngine, IterCost, KvPoolConfig, LatencySummary, ModelStepEngine,
    Request, SimStepEngine,
};
use llmpq_workload::{sample_arrivals, OnlineConfig, PromptLengthModel};
use serde::Serialize;
use std::time::Duration;

const N_REQUESTS: usize = 1500;
const DEADLINE_S: f64 = 2.0;
const SEED: u64 = 42;
const VOCAB: usize = 97;
const STATIC_BATCH: usize = 8;
const STATIC_WAIT_S: f64 = 0.25;

fn pool() -> KvPoolConfig {
    KvPoolConfig { n_blocks: 4096, block_tokens: 16 }
}

fn engine() -> SimStepEngine {
    SimStepEngine::new(pool(), IterCost::default_ladder(1), VOCAB, SEED)
}

/// Deterministic prompt tokens; the trace fixes only lengths.
fn fill_prompt(i: usize, len: usize) -> Vec<usize> {
    let mut x = SEED ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % VOCAB as u64) as usize
        })
        .collect()
}

fn trace(rate: f64) -> Vec<Request> {
    let cfg = OnlineConfig {
        arrival_rate: rate,
        n_requests: N_REQUESTS,
        n_generate: (4, 24),
        seed: SEED,
    };
    sample_arrivals(&cfg, &PromptLengthModel::default())
        .expect("valid trace config")
        .iter()
        .enumerate()
        .map(|(i, a)| Request {
            id: i,
            arrival_s: a.arrival_s,
            prompt: fill_prompt(i, a.prompt_len.min(512)),
            n_generate: a.n_generate,
            deadline_s: Some(a.arrival_s + DEADLINE_S),
            priority: a.priority,
        })
        .collect()
}

fn sched_cfg() -> ContinuousConfig {
    ContinuousConfig {
        admission: llmpq_runtime::AdmissionConfig {
            max_queue: 4096,
            ..Default::default()
        },
        ..ContinuousConfig::default()
    }
}

#[derive(Serialize, Clone, Copy)]
struct Pct {
    p50_ms: f64,
    p99_ms: f64,
}

fn pct(l: &Option<LatencySummary>) -> Pct {
    match l {
        Some(s) => Pct { p50_ms: s.p50 * 1e3, p99_ms: s.p99 * 1e3 },
        None => Pct { p50_ms: f64::NAN, p99_ms: f64::NAN },
    }
}

#[derive(Serialize)]
struct Row {
    rate_rps: f64,
    mode: String,
    completed: usize,
    goodput_rps: f64,
    deadline_miss_rate: f64,
    throughput_tok_s: f64,
    ttft: Pct,
    tpot: Pct,
    sojourn: Pct,
    mean_batch_occupancy: f64,
    peak_batch: usize,
    kv_peak_occupancy: f64,
    preemptions: u64,
    prefill_tokens: u64,
    conserves: bool,
}

/// Record one run as a report row and a table line.
fn record(rows: &mut Vec<Row>, table: &mut TextTable, rate: f64, mode: &str, r: &ContinuousReport) {
    let w = Row {
        rate_rps: rate,
        mode: mode.into(),
        completed: r.completed,
        goodput_rps: r.goodput_rps,
        deadline_miss_rate: r.deadline_miss_rate,
        throughput_tok_s: r.throughput_tok_s,
        ttft: pct(&r.ttft),
        tpot: pct(&r.tpot),
        sojourn: pct(&r.sojourn),
        mean_batch_occupancy: r.mean_batch_occupancy,
        peak_batch: r.peak_batch,
        kv_peak_occupancy: r.kv_peak_occupancy,
        preemptions: r.preemptions,
        prefill_tokens: r.prefill_tokens,
        conserves: r.conserves(),
    };
    table.row(vec![
        format!("{rate}"),
        w.mode.clone(),
        format!("{}", w.completed),
        format!("{:.1}", w.goodput_rps),
        format!("{:.1}", w.deadline_miss_rate * 100.0),
        format!("{:.2}", w.ttft.p99_ms),
        format!("{:.3}", w.tpot.p99_ms),
        format!("{:.1}", w.mean_batch_occupancy),
        format!("{}", w.prefill_tokens),
    ]);
    rows.push(w);
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    /// Every timing below is on the engines' modelled `iteration_cost_s`
    /// clock, not wall time.
    clock: &'static str,
    n_requests: usize,
    deadline_s: f64,
    static_batch: usize,
    static_wait_s: f64,
    rows: Vec<Row>,
    /// Continuous must win (or tie) goodput at every rate while its
    /// p99 deadline-miss picture is no worse — the claim CI checks.
    continuous_wins_goodput: bool,
    /// Requests in the distributed-vs-local section.
    dist_requests: usize,
    /// The `distributed` / `local-model` row pair must produce
    /// identical tokens for every request — the other claim CI checks.
    distributed_matches_local: bool,
}

/// Distributed-vs-local: the real tiny reference model served by the
/// continuous scheduler on the in-process engine and on the two-stage
/// channel ring, same trace, same quantization seed, no faults. Rows
/// land as modes `local-model` and `distributed`; returns whether the
/// two produced bit-identical outputs.
const DIST_REQUESTS: usize = 120;
const DIST_RATE_RPS: f64 = 50.0;

fn dist_stage_plan(bits: Bitwidth) -> ExecutionPlan {
    let n = RefConfig::tiny().n_layers;
    let mb = MicrobatchPlan { prefill_size: 1, prefill_count: 1, decode_size: 1, decode_count: 1 };
    ExecutionPlan::contiguous("tiny", "bench", vec![vec![bits; n / 2], vec![bits; n - n / 2]], mb)
}

fn dist_vs_local(rows: &mut Vec<Row>, table: &mut TextTable) -> bool {
    let model = RefModel::new(RefConfig::tiny());
    let n = model.cfg.n_layers;
    let bit_ladder = vec![
        BitAssignment::uniform(n, Bitwidth::Fp16),
        BitAssignment::uniform(n, Bitwidth::Int8),
    ];
    let reqs = poisson_requests(DIST_REQUESTS, DIST_RATE_RPS, 6, 8, SEED).expect("valid trace");
    let cfg = || ContinuousConfig {
        token_budget: 16,
        max_batch: 8,
        ..ContinuousConfig::default()
    };
    let local_engine = ModelStepEngine::new(
        &model,
        &bit_ladder,
        Rounding::Deterministic,
        SEED,
        KvPoolConfig::default(),
    )
    .expect("local engine");
    let local = serve_continuous(local_engine, &reqs, cfg(), None).expect("local run");
    let dist_engine = DistStepEngine::over_channels(
        &model,
        vec![dist_stage_plan(Bitwidth::Fp16), dist_stage_plan(Bitwidth::Int8)],
        Rounding::Deterministic,
        SEED,
        DistServeConfig { n_slots: 16, tick: Duration::from_millis(1), ..Default::default() },
        None,
    )
    .expect("channel ring");
    let dist = serve_continuous(dist_engine, &reqs, cfg(), None).expect("distributed run");
    assert!(local.conserves(), "local-model run must conserve");
    assert!(dist.conserves(), "distributed run must conserve");
    let tokens = |r: &ContinuousReport| {
        let mut m: Vec<(usize, Vec<usize>)> =
            r.outputs.iter().map(|f| (f.id, f.tokens.clone())).collect();
        m.sort();
        m
    };
    let matches = tokens(&local) == tokens(&dist);
    for (mode, r) in [("local-model", &local), ("distributed", &dist)] {
        record(rows, table, DIST_RATE_RPS, mode, r);
    }
    matches
}

pub fn run(out: &mut Out, _: &Args) {
    let rates = [50.0, 150.0, 400.0];
    let mut rows = Vec::new();
    let mut wins = true;
    let mut table = TextTable::new(&[
        "rate", "mode", "done", "goodput", "miss%", "ttft p99 ms", "tpot p99 ms", "occ", "prefill tok",
    ]);
    for rate in rates {
        let reqs = trace(rate);
        let cont = serve_continuous(engine(), &reqs, sched_cfg(), None).expect("continuous run");
        let stat = serve_static(engine(), &reqs, sched_cfg(), STATIC_BATCH, STATIC_WAIT_S)
            .expect("static run");
        assert!(cont.conserves(), "continuous must conserve at rate {rate}");
        assert!(stat.conserves(), "static must conserve at rate {rate}");
        wins &= cont.goodput_rps >= stat.goodput_rps
            && cont.deadline_miss_rate <= stat.deadline_miss_rate + 1e-9;
        for r in [&cont, &stat] {
            record(&mut rows, &mut table, rate, &r.mode, r);
        }
    }
    let matches = dist_vs_local(&mut rows, &mut table);
    out.table(&table);
    say!(out,
        "continuous {} static batching on goodput at matched-or-better deadline-miss rate",
        if wins { "beats-or-ties" } else { "DOES NOT beat" }
    );
    say!(out,
        "distributed ring {} the local engine token-for-token on {DIST_REQUESTS} requests",
        if matches { "matches" } else { "DOES NOT match" }
    );
    let report = BenchReport {
        bench: "ablation_serving",
        clock: "virtual",
        n_requests: N_REQUESTS,
        deadline_s: DEADLINE_S,
        static_batch: STATIC_BATCH,
        static_wait_s: STATIC_WAIT_S,
        rows,
        continuous_wins_goodput: wins,
        dist_requests: DIST_REQUESTS,
        distributed_matches_local: matches,
    };
    out.json("BENCH_serving.json", &report);
    assert!(wins, "continuous batching must not lose to the static baseline");
    assert!(matches, "distributed ring must match the local engine token-for-token");
}
