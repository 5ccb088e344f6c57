//! Multi-process integration: a real 3-stage pipeline — one OS process
//! per stage plus a master — over loopback TCP, spawned through the
//! `llmpq-dist` binary, must generate tokens bit-identical to the
//! in-process engine, and must survive an injected mid-run connection
//! drop via the supervisor's restart path.

use llm_pq::ExecutionPlan;
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{Bitwidth, Rounding};
use llmpq_runtime::{Pipeline, WireFaultPlan};
use llmpq_workload::MicrobatchPlan;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BATCH: usize = 2;
const PROMPT_LEN: usize = 6;
const N_GENERATE: usize = 5;
const SEED: u64 = 0;

/// The 3-stage plan every process is handed (as a strategy file).
fn plan3() -> ExecutionPlan {
    let bits = vec![vec![Bitwidth::Int8, Bitwidth::Int4], vec![Bitwidth::Fp16], vec![Bitwidth::Int8]];
    let mb = MicrobatchPlan { prefill_size: 1, prefill_count: 2, decode_size: 1, decode_count: 2 };
    ExecutionPlan::contiguous("tiny-dist", "loopback", bits, mb)
}

/// The exact checkpoint + prompts `llmpq-dist` derives from the shared
/// flags — reproduced here so the in-process reference run matches.
fn reference_tokens() -> Vec<Vec<usize>> {
    let plan = plan3();
    let checkpoint = RefModel::new(RefConfig::scaled_like(plan.n_layers(), 0xD157 ^ SEED));
    let prompts: Vec<Vec<usize>> = (0..BATCH)
        .map(|i| {
            (0..PROMPT_LEN)
                .map(|j| (i * 41 + j * 17 + SEED as usize) % checkpoint.cfg.vocab)
                .collect()
        })
        .collect();
    Pipeline::new(&checkpoint, &plan)
        .quantizer(Rounding::Deterministic, SEED)
        .run(&prompts, N_GENERATE)
        .expect("in-process reference run")
        .tokens
}

/// Locate (building if necessary) the `llmpq-dist` binary. Integration
/// tests of the suite package don't implicitly build other packages'
/// bins, so fall back to an explicit `cargo build`.
fn dist_binary() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop(); // the test executable
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
    let dir = std::env::temp_dir().join(format!("llmpq-dist-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

struct KillOnDrop(Child, &'static str);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Wait for a child with a wall-clock watchdog; returns its stdout.
fn wait_with_timeout(mut child: KillOnDrop, limit: Duration) -> String {
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
            None if start.elapsed() > limit => {
                panic!("{} still running after {limit:?}", child.1);
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Spawn the master, read its `listening on ADDR` line, then spawn one
/// stage process per pipeline stage (stage 0 optionally with a wire
/// fault plan). Returns the master's remaining stdout.
fn run_cluster(strat: &Path, stage0_faults: Option<&Path>) -> String {
    let bin = dist_binary();
    let common = |cmd: &mut Command| {
        cmd.args(["--strat_file_name", strat.to_str().unwrap()])
            .args(["--batch", &BATCH.to_string()])
            .args(["--prompt-len", &PROMPT_LEN.to_string()])
            .args(["--n-generate", &N_GENERATE.to_string()])
            .args(["--seed", &SEED.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
    };

    let mut master_cmd = Command::new(&bin);
    common(&mut master_cmd);
    master_cmd.args(["--listen", "127.0.0.1:0"]);
    let mut master = KillOnDrop(master_cmd.spawn().expect("spawn master"), "master");

    // The first stdout line announces the ephemeral port.
    let mut reader = BufReader::new(master.0.stdout.take().expect("master stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();

    let mut stages = Vec::new();
    for s in 0..plan3().stages.len() {
        let mut cmd = Command::new(&bin);
        common(&mut cmd);
        cmd.args(["--stage", &s.to_string()])
            .args(["--listen", "127.0.0.1:0"])
            .args(["--connect", &addr]);
        if s == 0 {
            if let Some(faults) = stage0_faults {
                cmd.args(["--wire-fault", faults.to_str().unwrap()]);
            }
        }
        stages.push(KillOnDrop(cmd.spawn().expect("spawn stage"), "stage"));
    }

    // Drain the master's stdout on this thread (it is small), then the
    // watchdog only has to poll exit codes.
    let mut master_out = line;
    for l in reader.lines() {
        master_out.push_str(&l.expect("master stdout"));
        master_out.push('\n');
    }
    let limit = Duration::from_secs(120);
    let start = Instant::now();
    loop {
        match master.0.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "master exited with {status}:\n{master_out}");
                break;
            }
            None if start.elapsed() > limit => panic!("master still running after {limit:?}"),
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    for st in stages {
        wait_with_timeout(st, Duration::from_secs(30));
    }
    master_out
}

#[test]
fn three_process_loopback_run_is_bit_identical() {
    let strat = scratch("plan3.json");
    std::fs::write(&strat, plan3().to_json()).unwrap();

    let out = run_cluster(&strat, None);

    let expected = reference_tokens();
    for (i, toks) in expected.iter().enumerate() {
        let line = format!("seq {i}: {toks:?}");
        assert!(out.contains(&line), "missing/mismatched `{line}` in master output:\n{out}");
    }
    assert!(out.contains("(conserved=true)"), "admission conservation not reported:\n{out}");
    assert!(out.contains("0 restarts"), "clean run should not restart:\n{out}");
}

#[test]
fn injected_connection_drop_recovers_bit_identically() {
    let strat = scratch("plan3-faulty.json");
    std::fs::write(&strat, plan3().to_json()).unwrap();
    // Stage 0 kills its downstream connection after 4 data frames —
    // mid-run — and the master's supervisor must rebuild the ring and
    // resume from the lock-step checkpoint.
    let faults = scratch("wire-faults.json");
    std::fs::write(&faults, WireFaultPlan::disconnect_tx(0, 4).to_json()).unwrap();

    let out = run_cluster(&strat, Some(&faults));

    let expected = reference_tokens();
    for (i, toks) in expected.iter().enumerate() {
        let line = format!("seq {i}: {toks:?}");
        assert!(out.contains(&line), "recovery perturbed `{line}`:\n{out}");
    }
    assert!(out.contains("1 restarts"), "expected exactly one restart:\n{out}");
    assert!(out.contains("(conserved=true)"), "admission conservation violated:\n{out}");
}
