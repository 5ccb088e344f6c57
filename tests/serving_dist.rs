//! Distributed continuous serving: the online scheduler driven through
//! the real multi-process TCP ring — three stage OS processes (spawned
//! via the `llmpq-dist` binary) plus the serving master in this test
//! process — must produce tokens bit-identical to the single-process
//! `serve_continuous` engine, including through an injected mid-serve
//! wire fault (supervisor restart + recompute) and a committed live
//! plan swap at an iteration boundary.
//!
//! The load-bearing claim mirrors `tests/serving.rs`, one level up:
//! continuous batching is a scheduling change, and the *placement* of
//! the step engine — local threads vs a TCP pipeline ring — is an
//! execution-transport change. Neither may perturb a single token.

use llm_pq::{ExecutionPlan, StagePlan};
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{BitAssignment, Bitwidth, Rounding};
use llmpq_runtime::{
    poisson_requests, serve_continuous, ContinuousConfig, ContinuousReport, DistMasterConfig,
    DistServeConfig, DistStepEngine, KvPoolConfig, ModelStepEngine, Request, RungSwap,
    TcpServingRing, Telemetry, WireFaultPlan,
};
use llmpq_workload::MicrobatchPlan;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SEED: u64 = 0;
const N_LAYERS: usize = 3;
/// Stage-side KV slots; doubles as the `--batch` flag handed to the
/// stage processes (their per-sequence cache count).
const N_SLOTS: usize = 8;

/// The exact checkpoint `llmpq-dist` derives from `--seed`: the stage
/// processes must build identical stand-in weights or the activations
/// (and therefore the tokens) would diverge.
fn checkpoint() -> RefModel {
    RefModel::new(RefConfig::scaled_like(N_LAYERS, 0xD157 ^ SEED))
}

/// Three stages, one layer each, at uniform `bits`.
fn plan(bits: Bitwidth) -> ExecutionPlan {
    ExecutionPlan {
        model: "serving-dist".into(),
        cluster: "loopback".into(),
        stages: (0..N_LAYERS)
            .map(|s| StagePlan { device: s, layer_start: s, layer_end: s + 1, bits: vec![bits] })
            .collect(),
        microbatch: MicrobatchPlan {
            prefill_size: 1,
            prefill_count: 1,
            decode_size: 1,
            decode_count: 1,
        },
        scheme: "LLM-PQ".into(),
        kv_bits: 16,
    }
}

/// Rung ladder: boot on Fp16, degrade (or live-swap) to Int8.
fn ladder() -> Vec<ExecutionPlan> {
    vec![plan(Bitwidth::Fp16), plan(Bitwidth::Int8)]
}

fn bit_ladder() -> Vec<BitAssignment> {
    vec![
        BitAssignment::uniform(N_LAYERS, Bitwidth::Fp16),
        BitAssignment::uniform(N_LAYERS, Bitwidth::Int8),
    ]
}

fn serve_cfg() -> ContinuousConfig {
    ContinuousConfig { token_budget: 16, max_batch: 4, ..ContinuousConfig::default() }
}

fn trace() -> Vec<Request> {
    poisson_requests(6, 50.0, 6, 4, 5).expect("arrival trace")
}

fn finished_tokens(report: &ContinuousReport) -> BTreeMap<usize, Vec<usize>> {
    report.outputs.iter().map(|f| (f.id, f.tokens.clone())).collect()
}

/// The single-process reference: the same scheduler over the local
/// model-backed step engine.
fn local_report(cfg: ContinuousConfig) -> ContinuousReport {
    let engine = ModelStepEngine::new(
        &checkpoint(),
        &bit_ladder(),
        Rounding::Deterministic,
        SEED,
        KvPoolConfig::default(),
    )
    .expect("local engine");
    serve_continuous(engine, &trace(), cfg, None).expect("local serve")
}

/// Locate (building if necessary) the `llmpq-dist` binary — the same
/// resolution `tests/distributed.rs` uses.
fn dist_binary() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join(format!("llmpq-dist{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        let status = Command::new(env!("CARGO", "cargo"))
            .args(["build", "-p", "llmpq-cli", "--bin", "llmpq-dist"])
            .status()
            .expect("cargo build llmpq-dist");
        assert!(status.success(), "building llmpq-dist failed");
    }
    assert!(bin.exists(), "llmpq-dist not found at {}", bin.display());
    bin
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("llmpq-serving-dist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

struct KillOnDrop(Child, String);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Wait for a stage process under a watchdog and return its stdout.
fn wait_stage(mut child: KillOnDrop, limit: Duration) -> String {
    let start = Instant::now();
    loop {
        match child.0.try_wait().expect("try_wait") {
            Some(status) => {
                let mut out = String::new();
                if let Some(mut stdout) = child.0.stdout.take() {
                    use std::io::Read;
                    let _ = stdout.read_to_string(&mut out);
                }
                assert!(status.success(), "{} exited with {status}:\n{out}", child.1);
                return out;
            }
            None if start.elapsed() > limit => panic!("{} still running after {limit:?}", child.1),
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Run the distributed serving path: spawn one OS process per stage of
/// the boot plan (stage 0 optionally carrying a wire-fault plan), bring
/// up the serving ring, and drive the continuous scheduler through it.
/// Returns the serving report and each stage process's stdout.
fn dist_report(
    cfg: ContinuousConfig,
    stage0_faults: Option<&WireFaultPlan>,
    tag: &str,
) -> (ContinuousReport, Vec<String>) {
    let bin = dist_binary();
    let boot = ladder().remove(0);
    let strat = scratch(&format!("{tag}-plan.json"));
    std::fs::write(&strat, boot.to_json()).unwrap();
    let fault_file = stage0_faults.map(|f| {
        let p = scratch(&format!("{tag}-wire.json"));
        std::fs::write(&p, f.to_json()).unwrap();
        p
    });

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind master listener");
    let addr = listener.local_addr().unwrap().to_string();

    let mut stages = Vec::new();
    for s in 0..boot.stages.len() {
        let mut cmd = Command::new(&bin);
        cmd.args(["--strat_file_name", strat.to_str().unwrap()])
            .args(["--stage", &s.to_string()])
            .args(["--listen", "127.0.0.1:0"])
            .args(["--connect", &addr])
            .args(["--batch", &N_SLOTS.to_string()])
            .args(["--seed", &SEED.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if s == 0 {
            if let Some(f) = &fault_file {
                cmd.args(["--wire-fault", f.to_str().unwrap()]);
            }
        }
        stages.push(KillOnDrop(cmd.spawn().expect("spawn stage"), format!("stage {s}")));
    }

    // The ring's hub counts the master's own two links: link 0 out,
    // the return link in.
    let hub = Telemetry::new(boot.stages.len());
    let master_cfg = DistMasterConfig { telemetry: Some(hub.clone()), ..Default::default() };
    let ring =
        TcpServingRing::establish(&boot, listener, &master_cfg).expect("stage fleet checks in");
    let engine = DistStepEngine::over_ring(
        &checkpoint(),
        ladder(),
        DistServeConfig { n_slots: N_SLOTS, ..DistServeConfig::default() },
        Box::new(ring),
    )
    .expect("dist engine");
    let report = serve_continuous(engine, &trace(), cfg, None).expect("dist serve");
    let links = hub.link_stats();
    assert!(links[0].bytes_tx > 0, "link 0 tx never counted: {:?}", links[0]);
    let ret = links[boot.stages.len()];
    assert!(ret.bytes_rx > 0, "return link rx never counted: {ret:?}");
    // `engine` (and the ring inside it) dropped above: the ring said
    // `Bye`, so every stage process flushes its report and exits.
    let outs = stages.into_iter().map(|c| wait_stage(c, Duration::from_secs(30))).collect();
    (report, outs)
}

#[test]
fn three_process_serving_is_bit_identical_to_local_engine() {
    let local = local_report(serve_cfg());
    let (dist, stage_outs) = dist_report(serve_cfg(), None, "clean");
    assert_eq!(
        finished_tokens(&local),
        finished_tokens(&dist),
        "distributed continuous serving must not perturb a single token"
    );
    assert!(dist.stats.conserves(dist.pending_end), "conservation: {:?}", dist.stats);
    for (s, out) in stage_outs.iter().enumerate() {
        assert!(out.contains("served 1 attempt(s)"), "stage {s} restarted unexpectedly:\n{out}");
    }
}

#[test]
fn wire_fault_mid_serve_recovers_bit_identically() {
    let local = local_report(serve_cfg());
    // Stage 0's downstream link dies after 6 data frames — mid-serve,
    // with sequences in flight.
    let faults = WireFaultPlan::disconnect_tx(0, 6);
    let (dist, stage_outs) = dist_report(serve_cfg(), Some(&faults), "fault");
    assert_eq!(
        finished_tokens(&local),
        finished_tokens(&dist),
        "recompute after the ring restart must be exact"
    );
    assert!(dist.stats.recovered > 0, "restart requeued in-flight work: {:?}", dist.stats);
    assert!(dist.stats.conserves(dist.pending_end), "no request lost: {:?}", dist.stats);
    assert!(
        stage_outs.iter().any(|o| o.contains("served 2 attempt(s)")),
        "expected exactly one supervisor restart:\n{}",
        stage_outs.join("\n")
    );
}

#[test]
fn live_swap_mid_serve_over_processes_matches_local_swap() {
    let mut cfg = serve_cfg();
    cfg.swaps = vec![RungSwap { at_iteration: 3, rung: 1 }];
    let local = local_report(cfg.clone());
    let (dist, stage_outs) = dist_report(cfg, None, "swap");
    assert_eq!(
        finished_tokens(&local),
        finished_tokens(&dist),
        "a committed live swap must be transparent to the token stream"
    );
    assert!(dist.stats.conserves(dist.pending_end), "conservation: {:?}", dist.stats);
    // The swap requantizes in place over the existing ring — no restart.
    for (s, out) in stage_outs.iter().enumerate() {
        assert!(out.contains("served 1 attempt(s)"), "stage {s} restarted during swap:\n{out}");
    }
}

#[test]
fn wire_fault_after_swap_boots_restart_into_committed_rung() {
    // The hardest path: the swap commits at iteration 2, then stage 0's
    // link dies. The rebuilt ring boots on the Fp16 boot plan, so the
    // engine must replay the Int8 barrier before resuming — or every
    // token decoded after the restart would come from the wrong rung.
    let mut cfg = serve_cfg();
    cfg.swaps = vec![RungSwap { at_iteration: 2, rung: 1 }];
    let local = local_report(cfg.clone());
    let faults = WireFaultPlan::disconnect_tx(0, 10);
    let (dist, _) = dist_report(cfg, Some(&faults), "swap-fault");
    assert_eq!(
        finished_tokens(&local),
        finished_tokens(&dist),
        "restart must resume on the committed rung"
    );
    assert!(dist.stats.recovered > 0, "the fault landed mid-serve: {:?}", dist.stats);
    assert!(dist.stats.conserves(dist.pending_end), "no request lost: {:?}", dist.stats);
}
