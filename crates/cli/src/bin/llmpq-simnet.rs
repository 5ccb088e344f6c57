//! `llmpq-simnet`: exhaustive fault-schedule exploration of the
//! distributed runtime under deterministic simulation.
//!
//! ```text
//! # sweep 500 seeded random fault schedules over master + 2 stages
//! llmpq-simnet --seeds 500
//!
//! # replay a minimized counterexample exactly
//! llmpq-simnet --schedule counterexample.json --trace
//! ```
//!
//! Every run executes the *real* master engine and stage-worker loops
//! over a simulated network on a virtual clock: same seed ⇒
//! byte-identical event trace. After each run the invariant checker
//! verifies token output against the fault-free oracle, admission
//! conservation, deadlock freedom and the restart bound. Any violation
//! is shrunk to a minimal reproducing schedule and written as
//! replayable JSON (`--out`), and the process exits nonzero.

use llmpq_cli::Args;
use llmpq_runtime::{
    elastic_seed_sweep, run_elastic, run_serving_chaos, run_sim, seed_sweep, serving_seed_sweep,
    shrink_elastic_plan, shrink_fault_plan, shrink_serving_plan, ElasticChurnPlan,
    ElasticSimConfig, FaultPlan, ServingChaosConfig, SimConfig, SimFaultPlan,
};
use std::process::ExitCode;

const USAGE: &str = "usage: llmpq-simnet
    [--seeds 500]            number of consecutive seeds to sweep
    [--seed 0]               first seed of the sweep
    [--stages 2]             pipeline stages in the simulated protocol
    [--n-generate 4]         tokens generated per prompt
    [--max-restarts 3]       recovery bound per run
    [--schedule plan.json]   replay one fault schedule instead of sweeping
    [--out minimized.json]   where to write a shrunk counterexample
    [--migrations]           live-migration mode: every run schedules a hot
                             precision/partition swap and faults are drawn
                             inside the prepare/commit window
    [--serving]              serving-chaos mode: run the continuous-batching
                             scheduler on the distributed step engine under a
                             seeded arrival trace, seeded live swap and a
                             migration-biased fault schedule, checked against
                             the local-engine oracle (crash/hang/drop faults;
                             --schedule replays a FaultPlan JSON instead)
    [--requests 6]           serving mode: requests per arrival trace
    [--no-swaps]             serving mode: disable the seeded live swaps
    [--elastic]              elastic-fleet mode: drive the autoscaling
                             controller through seeded membership churn
                             (joins/leaves/degrades/flap bursts, leaves biased
                             into migration windows) against diurnal + bursty
                             arrivals; checks the elasticity invariants
                             (committed plans reference only live devices, no
                             request lost or double-served across scale
                             events; --schedule replays a churn-plan JSON)
    [--devices 3]            elastic mode: devices live at t=0
    [--pool 6]               elastic mode: total device ids churn draws from
    [--inject-bug]           dev hook: break admission conservation on purpose
                             (elastic mode: double-serve the first request)
    [--trace]                print the deterministic event trace(s)";

/// Every flag [`USAGE`] documents; anything else is a typo.
const FLAGS: &[&str] = &[
    "seeds", "seed", "stages", "n-generate", "max-restarts", "schedule", "out", "migrations",
    "serving", "requests", "no-swaps", "elastic", "devices", "pool", "inject-bug", "trace", "help",
];

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
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
    let mut cfg = SimConfig::default();
    cfg.n_stages = match args.get_parse("stages", cfg.n_stages) {
        Ok(v) => v,
        Err(e) => return fail(&e.to_string()),
    };
    cfg.n_generate = match args.get_parse("n-generate", cfg.n_generate) {
        Ok(v) => v,
        Err(e) => return fail(&e.to_string()),
    };
    cfg.max_restarts = match args.get_parse("max-restarts", cfg.max_restarts) {
        Ok(v) => v,
        Err(e) => return fail(&e.to_string()),
    };
    cfg.inject_conservation_bug = args.switch("inject-bug");
    if args.switch("migrations") {
        let stages = cfg.n_stages;
        let n_generate = cfg.n_generate.max(SimConfig::migration_default().n_generate);
        let max_restarts = cfg.max_restarts;
        let inject = cfg.inject_conservation_bug;
        cfg = SimConfig {
            n_stages: stages,
            n_generate,
            max_restarts,
            inject_conservation_bug: inject,
            ..SimConfig::migration_default()
        };
    }
    let out_path = args.get("out").unwrap_or("sim-counterexample.json").to_string();

    let n_seeds: u64 = match args.get_parse("seeds", 500) {
        Ok(v) => v,
        Err(e) => return fail(&e.to_string()),
    };
    let start_seed: u64 = match args.get_parse("seed", 0) {
        Ok(v) => v,
        Err(e) => return fail(&e.to_string()),
    };

    if args.switch("elastic") {
        let mut ecfg = ElasticSimConfig::default();
        ecfg.n_requests = match args.get_parse("requests", ecfg.n_requests) {
            Ok(v) => v,
            Err(e) => return fail(&e.to_string()),
        };
        ecfg.n_devices = match args.get_parse("devices", ecfg.n_devices) {
            Ok(v) => v,
            Err(e) => return fail(&e.to_string()),
        };
        ecfg.device_pool = match args.get_parse("pool", ecfg.device_pool) {
            Ok(v) => v,
            Err(e) => return fail(&e.to_string()),
        };
        if ecfg.device_pool < ecfg.n_devices {
            return fail("--pool must be at least --devices");
        }
        ecfg.inject_double_serve = args.switch("inject-bug");
        if let Some(path) = args.get("schedule") {
            return elastic_replay(&ecfg, path, start_seed);
        }
        return elastic_sweep(&ecfg, start_seed, n_seeds, &out_path);
    }

    if args.switch("serving") {
        let mut scfg = ServingChaosConfig::default();
        scfg.n_requests = match args.get_parse("requests", scfg.n_requests) {
            Ok(v) => v,
            Err(e) => return fail(&e.to_string()),
        };
        scfg.max_restarts = match args.get_parse("max-restarts", scfg.max_restarts) {
            Ok(v) => v,
            Err(e) => return fail(&e.to_string()),
        };
        scfg.migration = !args.switch("no-swaps");
        if let Some(path) = args.get("schedule") {
            return serving_replay(&scfg, path, start_seed);
        }
        return serving_sweep(&scfg, start_seed, n_seeds, &out_path);
    }

    if let Some(path) = args.get("schedule") {
        return replay(&cfg, path, args.switch("trace"));
    }

    let report = seed_sweep(&cfg, start_seed, n_seeds);
    println!(
        "swept {} seeds ({}..{}) over master + {} stage(s): {} schedules carried faults, \
         {} runs recovered via restart, {} failed over after exhausting restarts",
        report.n_seeds,
        report.start_seed,
        report.start_seed + report.n_seeds,
        cfg.n_stages,
        report.runs_with_faults,
        report.runs_with_restarts,
        report.runs_failed_over,
    );
    if cfg.migration.is_some() {
        println!(
            "plan swaps: {} committed, {} aborted back to the old plan",
            report.runs_committed, report.runs_aborted
        );
    }
    if report.ok() {
        println!("all invariants held on every schedule");
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        eprintln!(
            "seed {} violated: {} (shrunk to {} event(s))",
            f.seed,
            f.violations.join("; "),
            f.minimized.event_count()
        );
        if args.switch("trace") {
            let rerun = run_sim(&cfg, &f.minimized);
            eprintln!("--- minimized trace (seed {}) ---\n{}", f.seed, rerun.trace_text());
        }
    }
    let first = &report.failures[0];
    match std::fs::write(&out_path, &first.minimized_json) {
        Ok(()) => eprintln!(
            "minimized counterexample for seed {} written to {out_path} — replay with: \
             llmpq-simnet --schedule {out_path}",
            first.seed
        ),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    ExitCode::FAILURE
}

/// Serving-chaos sweep: the continuous-batching scheduler on the
/// distributed engine, one seeded trace + swap + fault schedule per
/// seed, token-checked against the local-engine oracle.
fn serving_sweep(
    cfg: &ServingChaosConfig,
    start_seed: u64,
    n_seeds: u64,
    out_path: &str,
) -> ExitCode {
    let report = serving_seed_sweep(cfg, start_seed, n_seeds);
    println!(
        "served {} seeds ({}..{}) through the distributed ring: {} schedules carried faults, \
         {} runs recovered via restart ({} in-flight sequences requeued), {} live swaps committed",
        report.n_seeds,
        report.start_seed,
        report.start_seed + report.n_seeds,
        report.runs_with_faults,
        report.runs_with_restarts,
        report.sequences_recovered,
        report.runs_committed,
    );
    if report.ok() {
        println!("all serving invariants held on every schedule (token equality vs local \
                  oracle, admission conservation incl. recovered leg, restart bound)");
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        eprintln!(
            "seed {} violated: {} (shrunk to {} event(s))",
            f.seed,
            f.violations.join("; "),
            f.minimized.events.len()
        );
    }
    let first = &report.failures[0];
    match std::fs::write(out_path, &first.minimized_json) {
        Ok(()) => eprintln!(
            "minimized counterexample for seed {} written to {out_path} — replay with: \
             llmpq-simnet --serving --seed {} --schedule {out_path}",
            first.seed, first.seed
        ),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    ExitCode::FAILURE
}

/// Elastic-fleet sweep: the autoscaling controller under seeded churn
/// and seeded diurnal/bursty arrivals, one schedule per seed.
fn elastic_sweep(
    cfg: &ElasticSimConfig,
    start_seed: u64,
    n_seeds: u64,
    out_path: &str,
) -> ExitCode {
    let report = elastic_seed_sweep(cfg, start_seed, n_seeds);
    println!(
        "churned {} seeds ({}..{}) through the fleet controller: {} runs committed replans, \
         {} aborted a migration mid-barrier, {} quarantined a flapping device, {} hit the \
         typed-infeasible path, {} in-flight request(s) recovered off dying devices",
        report.n_seeds,
        report.start_seed,
        report.start_seed + report.n_seeds,
        report.runs_with_commits,
        report.runs_with_aborts,
        report.runs_with_suppressions,
        report.runs_infeasible,
        report.requests_recovered,
    );
    if report.ok() {
        println!(
            "all elasticity invariants held on every schedule (committed plans reference only \
             live devices; no request lost or double-served across scale events)"
        );
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        eprintln!(
            "seed {} violated: {} (shrunk to {} event(s))",
            f.seed,
            f.violations.join("; "),
            f.minimized.events.len()
        );
    }
    let first = &report.failures[0];
    match std::fs::write(out_path, &first.minimized_json) {
        Ok(()) => eprintln!(
            "minimized counterexample for seed {} written to {out_path} — replay with: \
             llmpq-simnet --elastic --seed {} --schedule {out_path}",
            first.seed, first.seed
        ),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    ExitCode::FAILURE
}

/// Replay one churn schedule (an [`ElasticChurnPlan`] JSON) at `seed`.
fn elastic_replay(cfg: &ElasticSimConfig, path: &str, seed: u64) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let plan = match ElasticChurnPlan::from_json(&text) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let run = run_elastic(cfg, seed, &plan);
    println!(
        "replayed {} churn event(s) at seed {seed}: {} replan(s) committed, {} migration(s) \
         aborted, {} event(s) flap-suppressed, {} infeasible alarm(s); {}/{} requests served \
         ({} shed, {} recovered)",
        run.churn_events,
        run.commits,
        run.aborts,
        run.suppressed,
        run.infeasible,
        run.served,
        run.offered,
        run.shed,
        run.recovered,
    );
    if run.violations.is_empty() {
        println!("all elasticity invariants held");
        ExitCode::SUCCESS
    } else {
        for v in &run.violations {
            eprintln!("violation: {v}");
        }
        let minimized = shrink_elastic_plan(cfg, seed, &plan);
        if minimized.events.len() < plan.events.len() {
            eprintln!(
                "shrinks further to {} event(s):\n{}",
                minimized.events.len(),
                minimized.to_json()
            );
        }
        ExitCode::FAILURE
    }
}

/// Replay one serving fault schedule (a [`FaultPlan`] JSON) at `seed`.
fn serving_replay(cfg: &ServingChaosConfig, path: &str, seed: u64) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let plan = match FaultPlan::from_json(&text) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let run = run_serving_chaos(cfg, seed, &plan);
    println!(
        "replayed {} fault event(s) at seed {seed}: {} restart(s), {} sequence(s) requeued, \
         final epoch {}{}",
        run.fault_events,
        run.restarts,
        run.recovered,
        run.epoch,
        run.swap_at.map_or(String::new(), |i| format!(", swap scheduled at iteration {i}")),
    );
    if run.violations.is_empty() {
        println!("all serving invariants held");
        ExitCode::SUCCESS
    } else {
        for v in &run.violations {
            eprintln!("violation: {v}");
        }
        let minimized = shrink_serving_plan(cfg, seed, &plan);
        if minimized.events.len() < plan.events.len() {
            eprintln!(
                "shrinks further to {} event(s):\n{}",
                minimized.events.len(),
                minimized.to_json()
            );
        }
        ExitCode::FAILURE
    }
}

fn replay(cfg: &SimConfig, path: &str, show_trace: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let plan = match SimFaultPlan::from_json(&text) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let report = run_sim(cfg, &plan);
    if show_trace {
        println!("{}", report.trace_text());
    }
    println!(
        "replayed {} fault event(s): {} restart(s), {} stale frame(s) rejected, {} corrupt \
         frame(s) detected, finished at {}µs virtual",
        plan.event_count(),
        report.restarts,
        report.stale_drops,
        report.corrupt_detected,
        report.final_virtual_us
    );
    if report.ok() {
        println!("all invariants held");
        ExitCode::SUCCESS
    } else {
        for v in &report.violations {
            eprintln!("violation: {v}");
        }
        let minimized = shrink_fault_plan(cfg, &plan);
        if minimized.event_count() < plan.event_count() {
            eprintln!("shrinks further to {} event(s):\n{}", minimized.event_count(), minimized.to_json());
        }
        ExitCode::FAILURE
    }
}
