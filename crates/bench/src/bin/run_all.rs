//! The experiment binary: every table, figure, ablation and bench.
//!
//! ```bash
//! run_all                   # regenerate every results/<name>.txt
//! run_all --check           # regenerate in memory and diff against results/
//! run_all <name> [flags]    # one experiment, printed as it runs
//! ```
//!
//! `--check` writes nothing. It ignores the cells of table columns
//! declared wall-clock and exits 1 naming the file and first stale line
//! of each stale file. An unknown experiment or flag exits 2.

use llmpq_bench::experiments::find;
use llmpq_bench::{Args, Out, Output, EXPERIMENTS};
use std::io::Write;
use std::time::Instant;

fn usage() -> String {
    let mut s = String::from("usage: run_all | run_all --check | run_all <name> [flags]\n\nexperiments:\n");
    for e in EXPERIMENTS {
        s.push_str(format!("  {:<28} {}", e.name, e.flags.join(" ")).trim_end());
        s.push('\n');
    }
    s
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        None => over_results(false),
        Some("--check") => match argv.get(1) {
            None => over_results(true),
            Some(extra) => usage_error(&format!("--check takes no arguments, got '{extra}'")),
        },
        Some(name) => match find(name).map(|e| (e, Args::parse(e.flags, &argv[1..]))) {
            Some((e, Ok(args))) => i32::from(e.run(&args, Out::console()).is_none()),
            Some((_, Err(why))) => usage_error(&why),
            None => usage_error(&format!("unknown experiment or flag '{name}'")),
        },
    };
    std::process::exit(code);
}

fn usage_error(why: &str) -> i32 {
    eprint!("run_all: {why}\n\n{}", usage());
    2
}

/// Regenerate every `results/` file, or (`check`) compare each
/// repeatable one with a fresh run in memory.
fn over_results(check: bool) -> i32 {
    let started = Instant::now();
    let mut failed = Vec::new();
    let todo = EXPERIMENTS.iter().filter(|e| if check { e.output == Output::Repeats } else { e.output != Output::Console });
    for e in todo {
        print!("{:<28} ", e.name);
        let _ = std::io::stdout().flush();
        let t0 = Instant::now();
        let path = format!("results/{}.txt", e.name);
        let verdict = match e.run(&Args::default(), Out::capture(!check)) {
            None => Err("FAILED (panicked)".to_string()),
            Some(out) if check => compare(&out, &path),
            Some(out) => std::fs::create_dir_all("results")
                .and_then(|()| std::fs::write(&path, out.text()))
                .map(|()| format!(" -> {path}"))
                .map_err(|e| format!("FAILED (write {path}: {e})")),
        };
        match verdict {
            Ok(note) => println!("ok ({:.1}s){note}", t0.elapsed().as_secs_f64()),
            Err(why) => {
                println!("{why}");
                failed.push(e.name);
            }
        }
    }
    if !failed.is_empty() {
        println!("\n{} experiments failed: {failed:?}", failed.len());
        return 1;
    }
    let done = if check { "match results/" } else { "regenerated" };
    println!("\nall experiments {done} ({:.0}s).", started.elapsed().as_secs_f64());
    0
}

/// `Ok` if `out` matches the committed file at `path` outside its
/// measured cells, else where and how it does not.
fn compare(out: &Out, path: &str) -> Result<String, String> {
    let committed = std::fs::read_to_string(path).map_err(|e| format!("STALE: {path}: {e}"))?;
    let Some(line) = out.first_difference(&committed) else { return Ok(String::new()) };
    let show = |text: &str| text.split('\n').nth(line - 1).map_or("<end of file>".into(), |l| format!("{l:?}"));
    Err(format!("STALE: {path}:{line}\n    committed: {}\n    now:       {}", show(&committed), show(out.text())))
}
