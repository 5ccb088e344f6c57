//! Ablation: transport layer — in-process channels vs loopback TCP.
//!
//! Runs the same plan and prompts through (a) the in-process channel
//! pipeline and (b) the distributed master/stage runtime over loopback
//! TCP (stages as threads of this process, but every activation crossing
//! a real socket with framing + CRC), asserting bit-identical tokens,
//! and reports wall time, per-link traffic, observed comm time, and the
//! α-β loopback model's prediction for that traffic. The acceptance
//! bar: tokens identical, and every link's traffic is accounted on both
//! the tx and rx side.

use llm_pq::ExecutionPlan;
use crate::{Args, Out, TextTable};
use llmpq_cluster::interconnect::Link;
use llmpq_cost::{link_crosscheck, LinkObservation};
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{Bitwidth, Rounding};
use llmpq_runtime::{
    run_master, run_stage, DistMasterConfig, DistStageConfig, Pipeline, Telemetry, WireFaultPlan,
};
use llmpq_workload::MicrobatchPlan;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 4;
const PROMPT_LEN: usize = 12;
const N_GENERATE: usize = 24;
const SEED: u64 = 0;

fn plan() -> ExecutionPlan {
    let bits = vec![vec![Bitwidth::Int8; 2], vec![Bitwidth::Int4; 2], vec![Bitwidth::Fp16; 2]];
    let mb = MicrobatchPlan { prefill_size: 2, prefill_count: 2, decode_size: 2, decode_count: 2 };
    ExecutionPlan::contiguous("ablation-transport", "loopback", bits, mb)
}

pub fn run(out: &mut Out, _: &Args) {
    let plan = plan();
    let checkpoint = Arc::new(RefModel::new(RefConfig::scaled_like(plan.n_layers(), 0xD157 ^ SEED)));
    let prompts: Vec<Vec<usize>> = (0..BATCH)
        .map(|i| {
            (0..PROMPT_LEN)
                .map(|j| (i * 41 + j * 17 + SEED as usize) % checkpoint.cfg.vocab)
                .collect()
        })
        .collect();

    // (a) In-process channel transport.
    let t0 = Instant::now();
    let local =
        Pipeline::new(&checkpoint, &plan)
            .quantizer(Rounding::Deterministic, SEED)
            .run(&prompts, N_GENERATE)
            .expect("in-process run");
    let channel_wall = t0.elapsed().as_secs_f64();

    // (b) Loopback TCP: the distributed master plus one stage server per
    // stage (threads here, processes in `llmpq-dist` / CI — same wire).
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind master listener");
    let addr = listener.local_addr().unwrap().to_string();
    let stage_handles: Vec<_> = (0..plan.stages.len())
        .map(|s| {
            let (plan, checkpoint) = (plan.clone(), Arc::clone(&checkpoint));
            let cfg = DistStageConfig {
                stage: s,
                listen: "127.0.0.1:0".into(),
                master: addr.clone(),
                rounding: Rounding::Deterministic,
                seed: SEED,
                wire_faults: WireFaultPlan::none(),
                tick: Duration::from_millis(2),
            };
            std::thread::spawn(move || run_stage(checkpoint, &plan, BATCH, &cfg))
        })
        .collect();
    let telemetry = Telemetry::new(plan.stages.len());
    let cfg = DistMasterConfig { telemetry: Some(telemetry), ..Default::default() };
    let t0 = Instant::now();
    let dist = run_master(&checkpoint, &plan, &prompts, N_GENERATE, &listener, &cfg)
        .expect("distributed run");
    let tcp_wall = t0.elapsed().as_secs_f64();
    for h in stage_handles {
        h.join().unwrap().expect("stage exits cleanly");
    }

    assert_eq!(dist.tokens, local.tokens, "TCP transport must not perturb tokens");
    assert!(dist.admission.conserves(0), "admission invariant: {:?}", dist.admission);

    let mut t = TextTable::new(&["Transport", "Wall (s)", "Tokens", "Bytes on wire", "Comm (s)"]);
    let total_bytes: u64 = dist.link_stats.iter().map(|l| l.bytes_tx).sum();
    let total_comm: f64 = dist.link_stats.iter().map(|l| l.comm_s()).sum();
    t.row(vec![
        "channels (1 process)".into(),
        format!("{channel_wall:.3}"),
        format!("{}", N_GENERATE * BATCH),
        "0".into(),
        "n/a".into(),
    ]);
    t.row(vec![
        "tcp loopback".into(),
        format!("{tcp_wall:.3}"),
        format!("{}", N_GENERATE * BATCH),
        format!("{total_bytes}"),
        format!("{total_comm:.4}"),
    ]);
    out.table(&t);

    let obs: Vec<LinkObservation> = dist
        .link_stats
        .iter()
        .enumerate()
        .map(|(i, l)| LinkObservation {
            link: i,
            bytes: l.bytes_tx.max(l.bytes_rx) as f64,
            frames: l.frames_tx.max(l.frames_rx),
            observed_s: l.comm_s(),
        })
        .collect();
    let mut lt = TextTable::new(&["Link", "Bytes", "Frames", "Observed (s)", "α-β model (s)", "Rel err"]);
    for r in link_crosscheck(&Link::loopback(), &obs) {
        let o = &obs[r.link];
        assert!(o.bytes > 0.0, "link {} never carried traffic", r.link);
        lt.row(vec![
            format!("{}", r.link),
            format!("{}", o.bytes as u64),
            format!("{}", o.frames),
            format!("{:.5}", r.observed_s),
            format!("{:.5}", r.predicted_s),
            if r.rel_err.is_finite() { format!("{:.1}%", r.rel_err * 100.0) } else { "n/a".into() },
        ]);
    }
    out.table(&lt);
    say!(out,
        "tokens bit-identical across transports ({} restarts, overhead {:.1}%)",
        dist.restarts,
        (tcp_wall / channel_wall - 1.0) * 100.0
    );
}
