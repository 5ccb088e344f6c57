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
    run_elastic, run_serving_chaos, run_sim, seed_sweep, shrink_schedule, ElasticChurnPlan,
    ElasticSimConfig, ElasticTally, FaultPlan, ServingChaosConfig, ServingTally, SimConfig,
    SimFaultPlan, SimScenario, SimSchedule, SimTally, SweepReport,
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
        return run_mode(&ecfg, &args, start_seed, n_seeds, &out_path);
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
        return run_mode(&scfg, &args, start_seed, n_seeds, &out_path);
    }

    run_mode(&cfg, &args, start_seed, n_seeds, &out_path)
}

/// What a chaos mode adds to its [`SimScenario`] at the command line:
/// how a schedule file parses, and the lines the mode prints.
trait Mode: SimScenario {
    /// The flag that selects this mode; empty for the plain sweep
    /// (whose replay takes no `--seed` either).
    const FLAG: &'static str;
    /// The all-clear lines of a sweep and of a replay.
    const SWEEP_HELD: &'static str;
    const REPLAY_HELD: &'static str;
    fn parse(&self, text: &str) -> Result<Self::Schedule, String>;
    /// The summary line(s) of a sweep.
    fn swept(&self, report: &SweepReport<Self::Tally>) -> String;
    /// Replay `schedule` at `seed`: the summary line, the violations,
    /// and the deterministic event trace if the mode records one.
    fn replayed(
        &self,
        seed: u64,
        schedule: &Self::Schedule,
    ) -> (String, Vec<String>, Option<String>);
}

/// Replay `--schedule` if given, else sweep `n_seeds` seeds.
fn run_mode<M: Mode>(
    mode: &M,
    args: &Args,
    start_seed: u64,
    n_seeds: u64,
    out_path: &str,
) -> ExitCode {
    match args.get("schedule") {
        Some(path) => replay(mode, path, start_seed, args.switch("trace")),
        None => sweep(mode, start_seed, n_seeds, out_path, args.switch("trace")),
    }
}

/// Sweep consecutive seeds, one drawn schedule each; on a violation
/// print every failing seed with its shrunk size and write the first
/// minimized counterexample to `out_path`.
fn sweep<M: Mode>(
    mode: &M,
    start_seed: u64,
    n_seeds: u64,
    out_path: &str,
    show_trace: bool,
) -> ExitCode {
    let report = seed_sweep(mode, start_seed, n_seeds);
    println!("{}", mode.swept(&report));
    if report.ok() {
        println!("{}", M::SWEEP_HELD);
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        eprintln!(
            "seed {} violated: {} (shrunk to {} event(s))",
            f.seed,
            f.violations.join("; "),
            f.minimized_events
        );
        if !show_trace {
            continue;
        }
        let plan = mode.parse(&f.minimized_json).ok();
        if let Some(t) = plan.and_then(|p| mode.replayed(f.seed, &p).2) {
            eprintln!("--- minimized trace (seed {}) ---\n{t}", f.seed);
        }
    }
    let first = &report.failures[0];
    let flags = match M::FLAG {
        "" => String::new(),
        flag => format!(" {flag} --seed {}", first.seed),
    };
    match std::fs::write(out_path, &first.minimized_json) {
        Ok(()) => eprintln!(
            "minimized counterexample for seed {} written to {out_path} — replay with: \
             llmpq-simnet{flags} --schedule {out_path}",
            first.seed
        ),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    ExitCode::FAILURE
}

/// Replay one schedule file at `seed`; a violating schedule is shrunk
/// further if it can be.
fn replay<M: Mode>(mode: &M, path: &str, seed: u64, show_trace: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let plan = match mode.parse(&text) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let (summary, violations, trace) = mode.replayed(seed, &plan);
    if let (true, Some(t)) = (show_trace, trace) {
        println!("{t}");
    }
    println!("{summary}");
    if violations.is_empty() {
        println!("{}", M::REPLAY_HELD);
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("violation: {v}");
    }
    let minimized = shrink_schedule(mode, seed, &plan);
    if minimized.events() < plan.events() {
        eprintln!("shrinks further to {} event(s):\n{}", minimized.events(), minimized.to_json());
    }
    ExitCode::FAILURE
}

/// The master + stages protocol under the simulated network.
impl Mode for SimConfig {
    const FLAG: &'static str = "";
    const SWEEP_HELD: &'static str = "all invariants held on every schedule";
    const REPLAY_HELD: &'static str = "all invariants held";

    fn parse(&self, text: &str) -> Result<SimFaultPlan, String> {
        SimFaultPlan::from_json(text)
    }

    fn swept(&self, report: &SweepReport<SimTally>) -> String {
        let t = &report.tally;
        let mut out = format!(
            "swept {} seeds ({}..{}) over master + {} stage(s): {} schedules carried faults, \
             {} runs recovered via restart, {} failed over after exhausting restarts",
            report.n_seeds,
            report.start_seed,
            report.start_seed + report.n_seeds,
            self.n_stages,
            t.runs_with_faults,
            t.runs_with_restarts,
            t.runs_failed_over,
        );
        if self.migration.is_some() {
            out += &format!(
                "\nplan swaps: {} committed, {} aborted back to the old plan",
                t.runs_committed, t.runs_aborted
            );
        }
        out
    }

    fn replayed(
        &self,
        _seed: u64,
        plan: &SimFaultPlan,
    ) -> (String, Vec<String>, Option<String>) {
        let report = run_sim(self, plan);
        let summary = format!(
            "replayed {} fault event(s): {} restart(s), {} stale frame(s) rejected, {} corrupt \
             frame(s) detected, finished at {}µs virtual",
            plan.event_count(),
            report.restarts,
            report.stale_drops,
            report.corrupt_detected,
            report.final_virtual_us
        );
        let trace = report.trace_text();
        (summary, report.violations, Some(trace))
    }
}

/// Serving chaos: the continuous-batching scheduler on the distributed
/// engine, one seeded trace + swap + fault schedule per seed,
/// token-checked against the local-engine oracle.
impl Mode for ServingChaosConfig {
    const FLAG: &'static str = "--serving";
    const SWEEP_HELD: &'static str = "all serving invariants held on every schedule (token \
        equality vs local oracle, admission conservation incl. recovered leg, restart bound)";
    const REPLAY_HELD: &'static str = "all serving invariants held";

    fn parse(&self, text: &str) -> Result<FaultPlan, String> {
        FaultPlan::from_json(text)
    }

    fn swept(&self, report: &SweepReport<ServingTally>) -> String {
        let t = &report.tally;
        format!(
            "served {} seeds ({}..{}) through the distributed ring: {} schedules carried faults, \
             {} runs recovered via restart ({} in-flight sequences requeued), {} live swaps \
             committed",
            report.n_seeds,
            report.start_seed,
            report.start_seed + report.n_seeds,
            t.runs_with_faults,
            t.runs_with_restarts,
            t.sequences_recovered,
            t.runs_committed,
        )
    }

    fn replayed(&self, seed: u64, plan: &FaultPlan) -> (String, Vec<String>, Option<String>) {
        let run = run_serving_chaos(self, seed, plan);
        let summary = format!(
            "replayed {} fault event(s) at seed {seed}: {} restart(s), {} sequence(s) requeued, \
             final epoch {}{}",
            run.fault_events,
            run.restarts,
            run.recovered,
            run.epoch,
            run.swap_at.map_or(String::new(), |i| format!(", swap scheduled at iteration {i}")),
        );
        (summary, run.violations, None)
    }
}

/// Elastic fleet: the autoscaling controller under seeded churn and
/// seeded diurnal/bursty arrivals, one schedule per seed.
impl Mode for ElasticSimConfig {
    const FLAG: &'static str = "--elastic";
    const SWEEP_HELD: &'static str = "all elasticity invariants held on every schedule \
        (committed plans reference only live devices; no request lost or double-served across \
        scale events)";
    const REPLAY_HELD: &'static str = "all elasticity invariants held";

    fn parse(&self, text: &str) -> Result<ElasticChurnPlan, String> {
        ElasticChurnPlan::from_json(text)
    }

    fn swept(&self, report: &SweepReport<ElasticTally>) -> String {
        let t = &report.tally;
        format!(
            "churned {} seeds ({}..{}) through the fleet controller: {} runs committed replans, \
             {} aborted a migration mid-barrier, {} quarantined a flapping device, {} hit the \
             typed-infeasible path, {} in-flight request(s) recovered off dying devices",
            report.n_seeds,
            report.start_seed,
            report.start_seed + report.n_seeds,
            t.runs_with_commits,
            t.runs_with_aborts,
            t.runs_with_suppressions,
            t.runs_infeasible,
            t.requests_recovered,
        )
    }

    fn replayed(
        &self,
        seed: u64,
        plan: &ElasticChurnPlan,
    ) -> (String, Vec<String>, Option<String>) {
        let run = run_elastic(self, seed, plan);
        let summary = format!(
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
        (summary, run.violations, None)
    }
}
