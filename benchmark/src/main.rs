//! `bench_e2e` command line.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! bench_e2e [--all] [--seed N] [--quick] [--reps R] [--trace] [--out DIR]
//!                                                           the suite, one child process per run
//! bench_e2e compare A B                                     two result sets against the bounds
//! ```

use llmpq_benchmark::bench::{run, RunArgs};
use llmpq_benchmark::drive::Stop;
use llmpq_benchmark::plan::LAP_CALLS;
use llmpq_benchmark::report::compare;
use llmpq_benchmark::workloads::{serving, NAMES};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage:
  bench_e2e --workload <name> --seed <n> (--seconds <s> | --requests <n>) [--trace 0|1]
            [--out <dir>] [--append] [--corrupt-oracle]
  bench_e2e [--all] [--seed <n>] [--quick] [--reps <r>] [--trace] [--out <dir>]
  bench_e2e compare <dir A> <dir B>
workloads: chat_decode doc_prefill mixed_closed mixed_open frontdoor_sim plan_fleet";

/// Planning calls of a full `plan_fleet` suite run: twenty laps.
const PLAN_SUITE_CALLS: usize = 20 * LAP_CALLS;

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    requests: Option<usize>,
    trace: bool,
    quick: bool,
    reps: usize,
    out: Option<PathBuf>,
    append: bool,
    corrupt_oracle: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        reps: 1,
        ..Cli::default()
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--all" => {}
            "--quick" => cli.quick = true,
            "--append" => cli.append = true,
            "--corrupt-oracle" => cli.corrupt_oracle = true,
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => cli.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                cli.seconds = Some(value("a number")?.parse().map_err(|_| "bad --seconds")?)
            }
            "--requests" => {
                cli.requests = Some(value("a number")?.parse().map_err(|_| "bad --requests")?)
            }
            "--reps" => cli.reps = value("a number")?.parse().map_err(|_| "bad --reps")?,
            "--out" => cli.out = Some(PathBuf::from(value("a directory")?)),
            // The driver passes `--trace 0|1`; the suite takes a bare `--trace`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Result files live beside the benchmark by default.
fn out_dir(cli: &Cli) -> PathBuf {
    cli.out
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out"))
}

/// Add this run to `<out>/<prefix><workload>.json` (replacing the file
/// unless `append`).
fn keep(
    path: &Path,
    workload: &str,
    mode: &str,
    seed: u64,
    run: Value,
    append: bool,
) -> Result<(), String> {
    let mut runs = Vec::new();
    if append {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Some(Value::Arr(old)) = serde_json::parse_value(&text)?.get("runs") {
                runs = old.clone();
            }
        }
    }
    runs.push(run);
    let file = Value::Obj(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("mode".into(), Value::Str(mode.into())),
        ("seed".into(), Value::Num(seed as f64)),
        ("runs".into(), Value::Arr(runs)),
    ]);
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn one_run(cli: &Cli, workload: &str, t0: Instant) -> Result<bool, String> {
    let stop = Stop {
        seconds: cli.seconds,
        count: cli.requests,
    };
    if !matches!((stop.seconds, stop.count), (Some(s), None) if s > 0.0)
        && !matches!((stop.seconds, stop.count), (None, Some(n)) if n > 0)
    {
        return Err("give exactly one of --seconds and --requests, above zero".into());
    }
    let dir = out_dir(cli);
    let args = RunArgs {
        workload: workload.into(),
        seed: cli.seed,
        stop,
        trace: cli.trace,
        out_dir: dir.clone(),
        corrupt_oracle: cli.corrupt_oracle,
        quick: cli.quick,
    };
    let outcome = run(&args, t0)?;
    print!("{}", outcome.lines(workload));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (prefix, mode) = match (cli.trace, stop.seconds) {
        (true, _) => ("layers_", "traced"),
        (false, Some(_)) => ("", "timed"),
        (false, None) => ("", if cli.quick { "quick" } else { "suite" }),
    };
    let path = dir.join(format!("{prefix}{workload}.json"));
    keep(
        &path,
        workload,
        mode,
        cli.seed,
        outcome.file_value(),
        cli.append,
    )?;
    println!("{}", outcome.result_json());
    Ok(outcome.failures.is_empty())
}

fn suite(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = out_dir(cli);
    if cli.quick {
        println!("quick mode: an eighth of every request count; metrics are not comparable with full runs");
    }
    let mut all_ok = true;
    for name in NAMES {
        let full = serving(name).map_or(PLAN_SUITE_CALLS, |w| w.suite_requests);
        let requests = if cli.quick { full.div_ceil(8) } else { full };
        let passes = [(false, cli.reps), (true, usize::from(cli.trace))];
        for (trace, reps) in passes {
            for rep in 0..reps {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", name, "--seed", &cli.seed.to_string()])
                    .args([
                        "--requests",
                        &requests.to_string(),
                        "--trace",
                        if trace { "1" } else { "0" },
                    ])
                    .arg("--out")
                    .arg(&dir);
                if cli.quick {
                    child.arg("--quick");
                }
                if rep > 0 {
                    child.arg("--append");
                }
                let status = child
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                all_ok &= status.success();
            }
        }
    }
    println!(
        "{}",
        if all_ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(all_ok)
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, a, b] => compare(Path::new(a), Path::new(b)).map(|(table, regressed)| {
                print!("{table}");
                !regressed
            }),
            _ => Err("compare takes two directories".into()),
        }
    } else {
        parse(&args).and_then(|cli| match cli.workload.clone() {
            Some(w) => one_run(&cli, &w, t0),
            None => suite(&cli),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
