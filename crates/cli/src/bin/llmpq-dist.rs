//! `llmpq-dist`: execute a strategy file on the pipeline runtime (§5).
//!
//! ```text
//! llmpq-dist --strat_file_name strategy.json [--n-generate 16]
//!     [--batch 4] [--prompt-len 12] [--seed 0] [--fault-plan faults.json]
//!     [--trace-out trace.json] [--metrics-out metrics.txt]
//!     [--online-rate 2.0] [--online-requests 150]
//! ```
//!
//! The paper's `llmpq-dist` launches the distributed PyTorch runtime;
//! here the runtime is the in-process threaded pipeline executing the
//! scaled stand-in checkpoint (same layer count as the planned model),
//! which demonstrates the full flow and verifies the generated tokens
//! against sequential execution.
//!
//! Every run is supervised. With `--fault-plan`, the JSON file (see
//! `FaultPlan`) schedules worker crashes, hangs, stragglers, message
//! drops/duplicates and permanent device losses; the supervisor detects
//! them via heartbeats, restarts with backoff, and replans around lost
//! devices (folding their layers into surviving stages), resuming from
//! the lock-step token checkpoint.
//!
//! With `--trace-out` / `--metrics-out`, the run is observed by the
//! telemetry layer: `--trace-out` writes a Chrome `trace_event` JSON
//! (open in `chrome://tracing` or Perfetto) of every micro-batch's
//! wait/compute/send lifecycle per stage, and `--metrics-out` writes a
//! plain-text snapshot with per-stage p50/p95/p99 latency, queue peaks,
//! KV occupancy, restart counters — and a cost-model cross-check
//! comparing each stage's observed busy time against the analytical §4.1
//! prediction.
//!
//! With `--swap-at N`, the run hot-swaps to a target plan at generated-
//! token boundary N (live plan migration: two-phase commit, KV handoff).
//! The in-process flags compose — one `Pipeline` is built from all of
//! them, so a swap run is traced, bounded and fault-injected like any
//! other; it is supervised (a post-commit failure restarts on the target
//! plan) and runs without the replanner (a swap keeps the stage count).
//!
//! With `--online-rate`, a Poisson online workload (paper §7) is served
//! after the run by the runtime's static-batching loop, over an engine
//! whose iteration cost is fitted from the plan's batch latency, and the
//! summary reports its latency, throughput and padding waste. Adding
//! `--admission` serves the same trace on the same engine through the
//! continuous loop with admission control.
//!
//! ## Multi-process mode
//!
//! With `--listen`, the same binary becomes one node of a *real*
//! multi-process pipeline over TCP (the paper's deployment shape: a
//! master plus one worker process per stage):
//!
//! ```text
//! # one process per stage (any order; they retry until the master is up)
//! llmpq-dist --strat_file_name s.json --stage 0 --listen 127.0.0.1:0 --connect 127.0.0.1:7000
//! llmpq-dist --strat_file_name s.json --stage 1 --listen 127.0.0.1:0 --connect 127.0.0.1:7000
//! # the master (no --stage): drives generation, prints the tokens
//! llmpq-dist --strat_file_name s.json --listen 127.0.0.1:7000
//! ```
//!
//! All processes must be given the same strategy file, seed, batch and
//! prompt length: the handshake carries a plan fingerprint and refuses
//! mismatched peers. Tokens are bit-identical to the in-process run.
//! `--wire-fault` injects transport faults (delayed / dropped /
//! duplicated / corrupted frames, connection drops) from a JSON plan;
//! the master's supervisor restarts the attempt on a lost connection.
//! The master runs the same offline `Pipeline` as the in-process run,
//! over the stage fleet. Each mode refuses (exit 2) a flag it does not
//! read: a stage reads `--listen`, `--connect` and `--wire-fault`; the
//! master `--listen`, `--wire-fault`, `--trace-out` and `--metrics-out`;
//! the in-process run every other flag.

use llm_pq::evaluate::{batch_latency, batch_profile};
use llm_pq::{
    degradation_ladder, AssignerConfig, DegradationLadder, ExecutionPlan, IncrementalPlanner,
    PlanOrigin, SolverChoice, DEFAULT_CAPS,
};
use llmpq_cli::Args;
use llmpq_cluster::{paper_cluster, Cluster};
use llmpq_cost::{
    link_crosscheck, predicted_stage_seconds, stage_crosscheck, CostDb, LinkObservation,
    StageCrosscheck,
};
use llmpq_model::{zoo, ModelSpec, RefConfig, RefModel};
use llmpq_quant::{random_indicator, Rounding};
use llmpq_runtime::{
    arrival_requests, run_stage, serve_trace_static, AdmissionConfig, AdmissionController,
    AdmissionPolicy, ContinuousConfig, ContinuousScheduler, DegradationConfig, DistMasterConfig,
    DistStageConfig, FaultPlan, FleetPlanner, FoldReplanner, IterCost, Pipeline, Replanner,
    Request, SimStepEngine, SupervisorConfig, SwapRequest, TcpServingRing, Telemetry,
    WireFaultPlan,
};
use llmpq_sim::KernelEnv;
use llmpq_workload::{sample_arrivals, BatchJob, OnlineConfig, PromptLengthModel};
use std::collections::BTreeSet;

const USAGE: &str = "usage: llmpq-dist --strat_file_name <strategy.json>
    [--checkpoint model.ckpt.json] [--n-generate 16] [--batch 4] [--prompt-len 12] [--seed 0]
    [--fault-plan faults.json] [--trace-out trace.json] [--metrics-out metrics.txt]
    [--online-rate req_per_s] [--online-requests 150]
    [--max-queue N] [--admission reject|deadline|timeout] [--deadline-ms 2000]
    [--degrade-ladder auto|ladder.json]
    [--swap-at N] [--swap-to target.json]
        live plan migration: at generated-token boundary N, hot-swap to the
        target plan (default: every layer at Int4, one layer moved to the next
        stage) with KV handoff — requests stay in flight across the swap

multi-process mode (one OS process per stage + a master, TCP loopback or LAN):
  master:  llmpq-dist --strat_file_name s.json --listen HOST:PORT
           [--wire-fault wire.json] [--metrics-out metrics.txt] [--trace-out trace.json]
  stage:   llmpq-dist --strat_file_name s.json --stage I --listen HOST:0 --connect MASTER
           [--wire-fault wire.json]
  (same strategy file / checkpoint / seed / batch / prompt-len / n-generate
   everywhere; the master prints 'listening on HOST:PORT' on stdout once ready;
   a flag the chosen mode does not read exits 2)";

/// Every flag [`USAGE`] documents; anything else is a typo.
const FLAGS: &[&str] = &[
    "strat_file_name", "checkpoint", "n-generate", "batch", "prompt-len", "seed", "fault-plan",
    "trace-out", "metrics-out", "online-rate", "online-requests", "max-queue",
    "admission", "deadline-ms", "degrade-ladder", "swap-at", "swap-to", "listen", "stage",
    "connect", "wire-fault", "help",
];

/// Flags every process reads: they derive the plan, the stand-in
/// checkpoint and the prompts, which must agree across a fleet.
const SHARED_FLAGS: &[&str] =
    &["strat_file_name", "checkpoint", "n-generate", "batch", "prompt-len", "seed", "help"];

/// The mode `args` select — a stage process (`--stage`), the master of
/// a stage fleet (`--listen`) or the in-process run — and the flags it
/// reads besides [`SHARED_FLAGS`].
fn mode(args: &Args) -> (&'static str, &'static [&'static str]) {
    if args.get("stage").is_some() {
        ("a stage process (--stage)", &["stage", "listen", "connect", "wire-fault"])
    } else if args.get("listen").is_some() {
        ("the master process (--listen)", &["listen", "wire-fault", "trace-out", "metrics-out"])
    } else {
        (
            "the in-process run",
            &[
                "fault-plan", "trace-out", "metrics-out", "online-rate", "online-requests",
                "max-queue", "admission", "deadline-ms", "degrade-ladder", "swap-at", "swap-to",
            ],
        )
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)).and_then(|a| a.reject_unknown(FLAGS)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.switch("help") {
        println!("{USAGE}");
        return;
    }
    // A flag the chosen mode would not read is refused, not ignored.
    let (name, reads) = mode(&args);
    let ignored = FLAGS.iter().find(|f| {
        let given = args.get(f).is_some() || args.switch(f);
        given && !SHARED_FLAGS.contains(f) && !reads.contains(f)
    });
    if let Some(flag) = ignored {
        eprintln!("error: --{flag} is not read by {name}\n{USAGE}");
        std::process::exit(2);
    }
    if let Err(e) = run(&args) {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let path = args.required("strat_file_name").map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let plan = ExecutionPlan::from_json(&text)?;
    let n_layers = plan.n_layers();
    eprintln!(
        "loaded plan for {} on {}: {} stages over {n_layers} layers",
        plan.model,
        plan.cluster,
        plan.stages.len()
    );

    // Build the stand-in checkpoint with the planned layer count.
    let seed = args.get_parse("seed", 0u64).map_err(|e| e.to_string())?;
    if let Some(spec) = zoo::by_name(&plan.model) {
        if spec.n_layers != n_layers {
            return Err(format!(
                "plan covers {n_layers} layers but {} has {}",
                plan.model, spec.n_layers
            ));
        }
    }
    let checkpoint = match args.get("checkpoint") {
        Some(path) => {
            let m = llmpq_model::load_checkpoint(std::path::Path::new(path))?;
            if m.cfg.n_layers != n_layers {
                return Err(format!(
                    "checkpoint has {} layers but the plan covers {n_layers}",
                    m.cfg.n_layers
                ));
            }
            m
        }
        None => RefModel::new(RefConfig::scaled_like(n_layers, 0xD157 ^ seed)),
    };

    let n_generate = args.get_parse("n-generate", 16usize).map_err(|e| e.to_string())?;
    let batch = args.get_parse("batch", 4usize).map_err(|e| e.to_string())?;
    let prompt_len = args.get_parse("prompt-len", 12usize).map_err(|e| e.to_string())?;
    let prompts: Vec<Vec<usize>> = (0..batch)
        .map(|i| (0..prompt_len).map(|j| (i * 41 + j * 17 + seed as usize) % checkpoint.cfg.vocab).collect())
        .collect();

    // Multi-process mode: `--stage I` makes this process serve pipeline
    // stage I; `--listen` without `--stage` makes it the master. Both
    // derive the identical stand-in checkpoint and prompt set from the
    // shared flags, which is what makes the distributed tokens
    // bit-comparable to the in-process engine.
    if args.get("stage").is_some() {
        return run_stage_process(args, &plan, checkpoint, batch);
    }
    if args.get("listen").is_some() {
        return run_master_process(args, &plan, &checkpoint, &prompts, n_generate);
    }

    let faults = match args.get("fault-plan") {
        Some(fp) => {
            let text = std::fs::read_to_string(fp).map_err(|e| format!("{fp}: {e}"))?;
            let plan = FaultPlan::from_json(&text)?;
            eprintln!("fault plan: {} scheduled events", plan.events.len());
            Some(plan)
        }
        None => None,
    };

    let trace_out = args.get("trace-out");
    let metrics_out = args.get("metrics-out");
    let telemetry = (trace_out.is_some() || metrics_out.is_some())
        .then(|| Telemetry::new(plan.stages.len()));

    // `--max-queue` bounds every inter-stage channel so a slow stage
    // backpressures the master instead of queueing without limit; it is
    // also the admission queue bound of the overload pass below.
    let max_queue = match args.get("max-queue") {
        Some(_) => Some(args.get_parse("max-queue", 64usize).map_err(|e| e.to_string())?),
        None => None,
    };
    let swaps = swap_schedule(args, &plan)?;
    let online = OnlineArgs::parse(args)?;

    let replanner = DistReplanner::new(
        &plan,
        BatchJob { global_batch: batch, prompt_len, n_generate },
        telemetry.clone(),
    );
    let mut pipeline = Pipeline::new(&checkpoint, &plan)
        .quantizer(Rounding::Deterministic, seed)
        .supervised(SupervisorConfig { max_queue, ..SupervisorConfig::default() })
        .swaps(&swaps);
    if let Some(f) = &faults {
        pipeline = pipeline.faults(f);
        // Only a fault plan loses a device in-process. A live swap keeps
        // the stage count and a replan shrinks it, so a swap run goes
        // without the replanner.
        if swaps.is_empty() {
            pipeline = pipeline.replanner(&replanner);
        }
    }
    if let Some(t) = &telemetry {
        pipeline = pipeline.telemetry(t.clone());
    }
    let out = pipeline.run(&prompts, n_generate).map_err(|e| e.to_string())?;
    for ev in &out.events {
        eprintln!(
            "attempt {}: {} -> {:?} (checkpointed {} tokens)",
            ev.attempt, ev.error, ev.action, ev.checkpointed_tokens
        );
    }
    eprintln!(
        "supervisor: {} restarts, {} replans, final plan has {} stages",
        out.restarts,
        out.replans,
        out.final_plan.stages.len()
    );
    for (i, r) in out.swaps.iter().enumerate() {
        if r.committed {
            println!(
                "swap {i} (epoch {}) at token {}: committed in {} µs, {} KV bytes shipped",
                r.epoch, r.at_token, r.latency_us, r.kv_bytes
            );
        } else {
            println!(
                "swap {i} (epoch {}) at token {}: aborted back to the old plan ({})",
                r.epoch,
                r.at_token,
                r.reason.as_deref().unwrap_or("unknown")
            );
        }
    }

    // Cost-model cross-check: analytical per-stage prediction vs the busy
    // time the run actually observed. Only resolvable for the paper
    // clusters ("cluster-N") and zoo models, and only for a run of one
    // attempt; other runs skip it.
    let job = BatchJob { global_batch: batch, prompt_len, n_generate };
    let crosscheck = resolve_crosscheck(&plan, &job, &out.stage_metrics, out.restarts);

    if let (Some(path), Some(t)) = (trace_out, &telemetry) {
        std::fs::write(path, t.to_chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
    if let (Some(path), Some(t)) = (metrics_out, &telemetry) {
        let mut text = t.metrics_text();
        text.push_str(&render_crosscheck(&crosscheck));
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote metrics snapshot to {path}");
    }

    // Optional §7 online passes over the plan's cost profile.
    if let Some(online) = &online {
        let ladder = args.get("degrade-ladder");
        run_online(&plan, online, max_queue.unwrap_or(64), ladder, &job, seed)?;
    }

    println!(
        "generated {} tokens x {} sequences in {:.3}s wall ({} restarts, {} replans)",
        n_generate, batch, out.wall_s, out.restarts, out.replans
    );
    let origins = replanner.origins();
    if !origins.is_empty() {
        // Provenance of every replan: exact solver ("ilp"), Algorithm-2
        // fallback ("heuristic"), structural fold, or a typed-infeasible
        // refusal that kept the old plan.
        println!("replan origins: {}", origins.join(", "));
    }
    for (i, toks) in out.tokens.iter().enumerate() {
        println!("seq {i}: {toks:?}");
    }
    for (i, s) in out.loader_stats.iter().enumerate() {
        eprintln!(
            "stage {i}: {} modules ({} quantized), peak staging {} B",
            s.modules, s.quantized_modules, s.peak_staging_bytes
        );
    }
    if let Ok(rows) = &crosscheck {
        for r in rows {
            eprintln!(
                "stage {}: cost model predicted {:.4}s / observed {:.4}s busy (share err {:.1}pp)",
                r.stage,
                r.predicted_s,
                r.observed_s,
                r.share_err * 100.0
            );
        }
    }
    Ok(())
}

/// Production-shaped replanner with provenance. For a paper-cluster
/// ("cluster-N") plan over a zoo model, permanent device loss re-runs
/// Algorithm 1 on the survivors through one [`FleetPlanner`] kept for
/// the run (a second loss reuses the first's caches and warm-starts from
/// its plan), recording each plan's origin — `ilp`, `warm-start`, or the
/// Algorithm-2 `heuristic` after a solver failure. Other plans fold
/// ([`FoldReplanner`], recorded as such). Origins feed telemetry
/// (`plan_origin` in the metrics snapshot) and the end-of-run summary.
struct DistReplanner {
    planner: Option<std::sync::Mutex<FleetPlanner>>,
    origins: std::sync::Mutex<Vec<String>>,
    telemetry: Option<std::sync::Arc<Telemetry>>,
}

impl DistReplanner {
    fn new(plan: &ExecutionPlan, job: BatchJob, telemetry: Option<std::sync::Arc<Telemetry>>) -> Self {
        let planner = paper_setup(plan, "").ok().map(|(_, cluster, spec)| {
            let indicator = random_indicator(spec.n_layers, 0xA11CE, 1.0);
            // Recovery-path sizing: a lighter search than offline
            // planning, so the pipeline is back before the heartbeat
            // budget runs out.
            let search = AssignerConfig {
                theta: 0.1,
                solver: SolverChoice::Dp { group: 8 },
                xi: 2,
                max_orderings: 4,
                dp_grid: Some(12),
                ..AssignerConfig::default()
            };
            std::sync::Mutex::new(FleetPlanner::new(
                cluster,
                IncrementalPlanner::new(spec, job, search),
                CostDb::oracle(&KernelEnv::default()),
                indicator,
            ))
        });
        Self { planner, origins: std::sync::Mutex::new(Vec::new()), telemetry }
    }

    fn origins(&self) -> Vec<String> {
        self.origins.lock().unwrap().clone()
    }
}

impl Replanner for DistReplanner {
    fn replan(&self, old: &ExecutionPlan, lost: &[usize]) -> Result<ExecutionPlan, String> {
        let Some(planner) = &self.planner else {
            let plan = FoldReplanner.replan(old, lost)?;
            if let Some(t) = &self.telemetry {
                t.note_plan_origin(PlanOrigin::Heuristic);
            }
            self.origins.lock().unwrap().push("fold".into());
            return Ok(plan);
        };
        let mut planner = planner.lock().expect("a replan panicked while holding the planner");
        match planner.replan(lost, &BTreeSet::new()) {
            Ok(out) => {
                if let Some(t) = &self.telemetry {
                    t.note_plan_origin(out.origin);
                }
                self.origins.lock().unwrap().push(out.origin.to_string());
                Ok(out.plan)
            }
            Err(e) => {
                // Typed infeasibility: the survivors cannot hold the
                // model at any rung. The supervisor keeps the old plan;
                // surface the alarm rather than panicking.
                if let Some(t) = &self.telemetry {
                    t.note_fleet_infeasible();
                }
                self.origins.lock().unwrap().push(format!("infeasible ({e})"));
                Err(e.to_string())
            }
        }
    }
}

/// The swap schedule `--swap-at N [--swap-to target.json]` asks for: one
/// live plan migration at token boundary N — two-phase prepare/commit,
/// KV handoff for re-partitioned layers, abort back to the old plan on
/// any failure inside the prepare window. Empty without `--swap-at`.
fn swap_schedule(args: &Args, plan: &ExecutionPlan) -> Result<Vec<SwapRequest>, String> {
    if args.get("swap-at").is_none() {
        return Ok(Vec::new());
    }
    let at_token = args.get_parse("swap-at", 1usize).map_err(|e| e.to_string())?;
    let target = match args.get("swap-to") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            ExecutionPlan::from_json(&text)?
        }
        None => plan.int4_with_one_layer_moved(),
    };
    // Compact per-stage layout: a uniform stage collapses to one
    // bitwidth name, a mixed stage lists its distinct bitwidths.
    let describe = |s: &llm_pq::StagePlan| {
        let mut kinds: Vec<String> = Vec::new();
        for b in &s.bits {
            let name = format!("{b:?}");
            if !kinds.contains(&name) {
                kinds.push(name);
            }
        }
        format!("L{}..{} {}", s.layer_start, s.layer_end, kinds.join("/"))
    };
    let old_bits: Vec<String> = plan.stages.iter().map(describe).collect();
    let new_bits: Vec<String> = target.stages.iter().map(describe).collect();
    eprintln!("swap scheduled at token {at_token}:");
    eprintln!("  from: {}", old_bits.join(" | "));
    eprintln!("  to:   {}", new_bits.join(" | "));
    Ok(vec![SwapRequest { at_token, plan: target }])
}

/// Load `--wire-fault` (transport-level fault plan) if given.
fn load_wire_faults(args: &Args) -> Result<WireFaultPlan, String> {
    match args.get("wire-fault") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let plan = WireFaultPlan::from_json(&text)?;
            eprintln!("wire-fault plan: {} scheduled events", plan.events.len());
            Ok(plan)
        }
        None => Ok(WireFaultPlan::none()),
    }
}

/// `--listen` without `--stage`: run the distributed master. Prints
/// `listening on HOST:PORT` to stdout once bound (scripts and tests
/// parse this to learn the ephemeral port), then blocks until all stage
/// processes check in and generation completes.
fn run_master_process(
    args: &Args,
    plan: &ExecutionPlan,
    checkpoint: &RefModel,
    prompts: &[Vec<usize>],
    n_generate: usize,
) -> Result<(), String> {
    use std::io::Write as _;
    let listen = args.required("listen").map_err(|e| e.to_string())?;
    let wire_faults = load_wire_faults(args)?;
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();
    eprintln!("master: waiting for {} stage process(es) to check in", plan.stages.len());

    // Closed-batch admission accounting: the whole batch is offered,
    // dispatched and (once generated) served through the controller, so
    // the conservation invariant is checked on the distributed path too.
    let mut admission = AdmissionController::new(AdmissionConfig {
        policy: AdmissionPolicy::Reject,
        max_queue: prompts.len().max(1),
        ..AdmissionConfig::default()
    });
    for (id, prompt) in prompts.iter().enumerate() {
        let req =
            Request { id, arrival_s: 0.0, prompt: prompt.clone(), n_generate, deadline_s: None, priority: 0 };
        if !admission.offer(req, 0.0) {
            return Err("admission rejected a batch prompt".into());
        }
    }
    while admission.take().is_some() {} // dispatch the whole batch

    let telemetry = Telemetry::new(plan.stages.len());
    let cfg = DistMasterConfig { wire_faults, telemetry: Some(telemetry.clone()) };
    let mut ring = TcpServingRing::establish(plan, listener, &cfg).map_err(|e| e.to_string())?;
    let out = Pipeline::new(checkpoint, plan)
        .run_on(&mut ring, prompts, n_generate)
        .map_err(|e| e.to_string())?;
    admission.note_served(prompts.len());
    let stats = admission.stats();
    if !stats.conserves(admission.pending()) {
        return Err(format!(
            "admission conservation violated: {stats:?} pending={}",
            admission.pending()
        ));
    }
    // The hub counted the master's own two links; the stage reports the
    // ring merged at the end of the run filled in the rest.
    let link_stats = telemetry.link_stats();

    if let Some(path) = args.get("trace-out") {
        std::fs::write(path, telemetry.to_chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }

    // Interconnect-model cross-check: the α-β loopback link vs the
    // transfer time the transport actually observed per link.
    let obs: Vec<LinkObservation> = link_stats
        .iter()
        .enumerate()
        .map(|(i, l)| LinkObservation {
            link: i,
            bytes: l.bytes_tx.max(l.bytes_rx) as f64,
            frames: l.frames_tx.max(l.frames_rx),
            observed_s: l.comm_s(),
        })
        .collect();
    let rows = link_crosscheck(&llmpq_cluster::interconnect::Link::loopback(), &obs);

    if let Some(path) = args.get("metrics-out") {
        let mut text = telemetry.metrics_text();
        text.push_str(&render_link_crosscheck(&rows));
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote metrics snapshot to {path}");
    }

    println!(
        "generated {} tokens x {} sequences in {:.3}s wall ({} restarts)",
        n_generate,
        prompts.len(),
        out.wall_s,
        out.restarts
    );
    println!(
        "admission: offered {} served {} shed {} expired {} (conserved={})",
        stats.offered,
        stats.served,
        stats.shed,
        stats.expired,
        stats.conserves(0)
    );
    for (i, toks) in out.tokens.iter().enumerate() {
        println!("seq {i}: {toks:?}");
    }
    for (i, l) in link_stats.iter().enumerate() {
        eprintln!(
            "link {i}: {} B tx / {} B rx, {} frames, {:.4}s comm, {} corrupt",
            l.bytes_tx,
            l.bytes_rx,
            l.frames_tx.max(l.frames_rx),
            l.comm_s(),
            l.corrupt_frames
        );
    }
    for r in &rows {
        eprintln!(
            "link {}: α-β predicted {:.6}s / observed {:.6}s transfer (rel err {})",
            r.link,
            r.predicted_s,
            r.observed_s,
            if r.rel_err.is_finite() { format!("{:.1}%", r.rel_err * 100.0) } else { "n/a".into() }
        );
    }
    Ok(())
}

/// Render the link cross-check as a metrics-snapshot section.
fn render_link_crosscheck(rows: &[llmpq_cost::LinkCrosscheck]) -> String {
    let mut out =
        String::from("# interconnect cross-check (α-β loopback model vs observed transfer)\n");
    for r in rows {
        out.push_str(&format!(
            "link {}: predicted_s={:.6} observed_s={:.6} rel_err={}\n",
            r.link,
            r.predicted_s,
            r.observed_s,
            if r.rel_err.is_finite() { format!("{:.1}%", r.rel_err * 100.0) } else { "n/a".into() }
        ));
    }
    out
}

/// `--stage I --listen DATA --connect MASTER`: serve one pipeline stage
/// until the master says goodbye.
fn run_stage_process(
    args: &Args,
    plan: &ExecutionPlan,
    checkpoint: RefModel,
    batch: usize,
) -> Result<(), String> {
    let stage = args.get_parse("stage", 0usize).map_err(|e| e.to_string())?;
    let seed = args.get_parse("seed", 0u64).map_err(|e| e.to_string())?;
    let cfg = DistStageConfig {
        stage,
        listen: args.get("listen").unwrap_or("127.0.0.1:0").to_string(),
        master: args.required("connect").map_err(|e| e.to_string())?.to_string(),
        rounding: Rounding::Deterministic,
        seed,
        wire_faults: load_wire_faults(args)?,
        tick: std::time::Duration::from_millis(2),
    };
    eprintln!("stage {stage}: dialing master at {}", cfg.master);
    let summary =
        run_stage(std::sync::Arc::new(checkpoint), plan, batch, &cfg).map_err(|e| e.to_string())?;
    println!(
        "stage {stage}: served {} attempt(s), {} items, rx {} B, tx {} B",
        summary.attempts_served,
        summary.metrics.items,
        summary.rx_link.bytes_rx,
        summary.tx_link.bytes_tx
    );
    Ok(())
}

/// The paper cluster (`cluster-N`, N in 1..=11: N and the cluster) and
/// zoo model `plan` was made for, or why `flag` cannot use them.
fn paper_setup(plan: &ExecutionPlan, flag: &str) -> Result<(usize, Cluster, ModelSpec), String> {
    let n: usize = plan
        .cluster
        .strip_prefix("cluster-")
        .and_then(|s| s.parse().ok())
        .filter(|n| (1..=11).contains(n))
        .ok_or_else(|| format!("{flag} needs a paper cluster plan, got '{}'", plan.cluster))?;
    let spec = zoo::by_name(&plan.model).ok_or_else(|| format!("{flag} needs a zoo model, got '{}'", plan.model))?;
    Ok((n, paper_cluster(n), spec))
}

/// Analytical-vs-observed per-stage cross-check, or why there is none:
/// the run restarted (the stage counters are run totals — every
/// attempt's busy time — while the model predicts one uninterrupted
/// run), or the plan's cluster or model cannot be resolved.
fn resolve_crosscheck(
    plan: &ExecutionPlan,
    job: &BatchJob,
    stage_metrics: &[llmpq_runtime::StageMetrics],
    restarts: usize,
) -> Result<Vec<StageCrosscheck>, String> {
    if restarts > 0 {
        return Err(format!(
            "{restarts} restart(s): observed busy time covers every attempt, the prediction one run"
        ));
    }
    let (_, cluster, spec) = paper_setup(plan, "").map_err(|_| "cluster/model not resolvable".to_string())?;
    let db = CostDb::oracle(&KernelEnv::default());
    let (loads, wl) = batch_profile(plan, &cluster, &spec, &db, job);
    let predicted = predicted_stage_seconds(&loads, &wl);
    let observed: Vec<f64> = stage_metrics.iter().map(|m| m.busy_s).collect();
    if predicted.len() != observed.len() {
        return Err("stage count changed".into());
    }
    Ok(stage_crosscheck(&predicted, &observed))
}

/// Render the cross-check as a metrics-snapshot section.
fn render_crosscheck(rows: &Result<Vec<StageCrosscheck>, String>) -> String {
    let mut out = String::from("# cost-model cross-check (predicted vs observed stage busy time)\n");
    match rows {
        Err(why) => out.push_str(&format!("(skipped: {why})\n")),
        Ok(rows) => {
            for r in rows {
                out.push_str(&format!(
                    "stage {}: predicted_s={:.4} observed_s={:.4} rel_err={:.1}% \
                     share_pred={:.1}% share_obs={:.1}% share_err={:.1}pp\n",
                    r.stage,
                    r.predicted_s,
                    r.observed_s,
                    r.rel_err * 100.0,
                    r.predicted_share * 100.0,
                    r.observed_share * 100.0,
                    r.share_err * 100.0,
                ));
            }
        }
    }
    out
}

/// How long the static pass waits for a full batch past the moment its
/// head request was ready, seconds.
const STATIC_WAIT_S: f64 = 2.0;

/// `--online-rate` and the flags that shape its passes, parsed before
/// the run so a malformed value fails first.
struct OnlineArgs {
    rate: f64,
    n_requests: usize,
    admission: Option<AdmissionPolicy>,
    deadline_ms: u64,
}

impl OnlineArgs {
    fn parse(args: &Args) -> Result<Option<Self>, String> {
        let n_requests = args.get_parse("online-requests", 150usize).map_err(|e| e.to_string())?;
        let deadline_ms = args.get_parse("deadline-ms", 2_000u64).map_err(|e| e.to_string())?;
        let admission = args.get("admission").map(str::parse::<AdmissionPolicy>).transpose()?;
        if args.get("online-rate").is_none() {
            return match admission {
                Some(_) => Err("--admission needs --online-rate to set the arrival rate".into()),
                None => Ok(None),
            };
        }
        let rate = args.get_parse("online-rate", 1.0f64).map_err(|e| e.to_string())?;
        Ok(Some(Self { rate, n_requests, admission, deadline_ms }))
    }
}

/// The §7 online passes: one Poisson trace with ShareGPT-like prompt
/// lengths, one engine whose per-rung iteration cost is fitted from each
/// rung plan's batch latency at the trace's mean lengths and batch
/// `job.global_batch`. The static pass batches `job.global_batch`
/// requests (or what arrived within `STATIC_WAIT_S`), pads them to the
/// longest prompt and runs them to the longest generation — what the
/// offline plan does — with a queue that holds the whole trace, so it
/// measures batching, not shedding. With `--admission`, the continuous
/// pass serves the same trace on the same engine through admission
/// control (`max_queue`, the deadline) and the degradation ladder, and
/// prints shed/expired/goodput and the ladder's rung trajectory. Either
/// pass that loses a request is an error.
fn run_online(
    plan: &ExecutionPlan,
    online: &OnlineArgs,
    max_queue: usize,
    ladder_arg: Option<&str>,
    job: &BatchJob,
    seed: u64,
) -> Result<(), String> {
    let (n, cluster, spec) = paper_setup(plan, "--online-rate")?;
    let db = CostDb::oracle(&KernelEnv::default());
    let cfg = OnlineConfig {
        arrival_rate: online.rate,
        n_requests: online.n_requests,
        seed,
        ..OnlineConfig::default()
    };
    let arrivals =
        sample_arrivals(&cfg, &PromptLengthModel::default()).map_err(|e| e.to_string())?;
    let trace = arrival_requests(&arrivals);

    // Rung plans: just this plan, a precomputed ladder file, or a fresh
    // ladder solved here (`auto`; synthetic indicator — profile-backed
    // ladders should be precomputed offline and passed as a file). Only
    // the continuous pass walks the ladder.
    let rung_plans: Vec<ExecutionPlan> = match (online.admission, ladder_arg) {
        (None, _) | (_, None) => vec![plan.clone()],
        (Some(_), Some("auto")) => {
            let indicator = random_indicator(spec.n_layers, 0xA11CE, 1.0);
            let cfg = AssignerConfig {
                max_orderings: 4,
                dp_grid: Some(8),
                ..AssignerConfig::paper_setup(n)
            };
            let ladder =
                degradation_ladder(&cluster, &spec, job, &db, &indicator, &cfg, &DEFAULT_CAPS)?;
            eprintln!("degradation ladder (auto): {} rungs", ladder.len());
            for r in &ladder.rungs {
                eprintln!(
                    "  rung {}: predicted {:.3}s, quality cost {:.3}, mean {:.1} bits",
                    r.label, r.predicted_latency_s, r.quality_cost, r.mean_bits
                );
            }
            ladder.rungs.into_iter().map(|r| r.plan).collect()
        }
        (Some(_), Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let ladder = DegradationLadder::from_json(&text, plan.n_layers())?;
            eprintln!("degradation ladder ({path}): {} rungs", ladder.len());
            ladder.rungs.into_iter().map(|r| r.plan).collect()
        }
    };
    let batch = job.global_batch.max(1);
    let costs: Vec<IterCost> = rung_plans
        .iter()
        .map(|p| IterCost::fit_trace(&trace, batch, |j| batch_latency(p, &cluster, &spec, &db, j)))
        .collect();
    let rep = serve_trace_static(&trace, costs.clone(), batch, STATIC_WAIT_S, seed)?;
    let (p50, p95) = rep.sojourn.as_ref().map_or((0.0, 0.0), |s| (s.p50, s.p95));
    println!(
        "online[static]: offered {} served {} | batches of {batch}, p50 {p50:.2}s p95 {p95:.2}s, \
         {:.1} tok/s, {:.0}% padding",
        rep.stats.offered,
        rep.stats.served,
        rep.throughput_tok_s,
        rep.padding_fraction(&trace) * 100.0,
    );
    if !rep.conserves() {
        return Err(format!("static online pass lost requests: {:?}", rep.stats));
    }

    let Some(policy) = online.admission else { return Ok(()) };
    let deadline_s = online.deadline_ms as f64 / 1000.0;
    let cfg = ContinuousConfig {
        admission: AdmissionConfig {
            policy,
            max_queue,
            default_deadline_s: Some(deadline_s),
            queue_timeout_s: deadline_s,
        },
        max_batch: batch,
        token_budget: batch * ContinuousConfig::default().prefill_chunk,
        degradation: Some(DegradationConfig::default()),
        ..ContinuousConfig::default()
    };
    let engine = SimStepEngine::for_trace(&trace, costs, batch, seed);
    let mut sched = ContinuousScheduler::new(engine, cfg)?;
    let makespan = sched.run_trace(&trace)?;
    let transitions = sched.transitions().to_vec();
    let final_rung = sched.rung();
    let rep = sched.into_report(makespan, "continuous");
    let (p50, p99) = rep.sojourn.map_or((0.0, 0.0), |s| (s.p50, s.p99));
    println!(
        "overload[{policy}]: offered {} served {} shed {} expired {} | goodput {:.2} req/s, \
         p50 {p50:.2}s p99 {p99:.2}s | rung final {final_rung} peak {} ({} transitions)",
        rep.stats.offered,
        rep.stats.served,
        rep.stats.shed,
        rep.stats.expired,
        rep.goodput_rps,
        transitions.iter().map(|t| t.to).max().unwrap_or(0),
        transitions.len(),
    );
    if !rep.conserves() {
        return Err(format!("overload pass lost requests: {:?}", rep.stats));
    }
    for tr in &transitions {
        eprintln!(
            "  t={:.2}s rung {} -> {} (pressure {:.2})",
            tr.at_s, tr.from, tr.to, tr.pressure
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_model::Phase;
    use llmpq_quant::Bitwidth;
    use llmpq_workload::MicrobatchPlan;

    #[test]
    fn crosscheck_needs_a_run_of_one_attempt_and_says_so_otherwise() {
        // opt-125m (12 layers) over two devices of paper cluster 3.
        let mb = MicrobatchPlan { prefill_size: 2, prefill_count: 2, decode_size: 4, decode_count: 1 };
        let mut plan = ExecutionPlan::contiguous("opt-125m", "cluster-3", vec![vec![Bitwidth::Int8; 6]; 2], mb);
        plan.stages[1].device = 3;
        let job = BatchJob { global_batch: 4, prompt_len: 10, n_generate: 8 };
        // Stage counters as a run leaves them: recorder snapshots.
        let hub = Telemetry::new(2);
        hub.stage(0).unwrap().on_compute(Phase::Decode, 300_000, 4);
        hub.stage(1).unwrap().on_compute(Phase::Decode, 100_000, 4);
        let observed: Vec<_> = (0..2).map(|s| hub.stage(s).unwrap().snapshot()).collect();

        let rows = resolve_crosscheck(&plan, &job, &observed, 0).expect("one attempt: compared");
        assert_eq!(rows.len(), 2);
        assert!((rows[0].observed_s - 0.3).abs() < 1e-9 && rows[0].predicted_s > 0.0);
        assert!(render_crosscheck(&Ok(rows)).contains("stage 1: predicted_s="));

        let skipped = resolve_crosscheck(&plan, &job, &observed, 2);
        let why = skipped.as_ref().expect_err("run totals of three attempts are not one run");
        assert!(why.contains("2 restart(s)"), "{why}");
        assert!(render_crosscheck(&skipped).contains("(skipped: 2 restart(s)"));

        let custom = ExecutionPlan { cluster: "my-rack".into(), ..plan };
        let why = resolve_crosscheck(&custom, &job, &observed, 0).expect_err("unknown cluster");
        assert!(why.contains("not resolvable"), "{why}");
    }
}
