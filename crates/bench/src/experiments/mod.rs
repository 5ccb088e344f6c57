//! Every experiment, registered once: its name, the flags it takes and
//! whether its output repeats. Each is one `run_all <name> [flags]`.

use crate::Out;

/// What becomes of an experiment's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// `results/<name>.txt`, the same on every run outside the cells its
    /// tables declare measured: `run_all` rewrites it, `--check` compares.
    Repeats,
    /// `results/<name>.txt`, measured throughout: `run_all` rewrites it,
    /// `--check` leaves it alone.
    Measured,
    /// Printed only (a soak, a wall-clock report or a `BENCH_*.json`).
    Console,
}

/// One experiment.
pub struct Experiment {
    /// `run_all <name>`, and `results/<name>.txt`.
    pub name: &'static str,
    /// The flags it takes: `--flag`, or `--flag VALUE` for one with a value.
    pub flags: &'static [&'static str],
    /// Where its output goes.
    pub output: Output,
    body: fn(&mut Out, &Args),
}

/// Declare each experiment's module (whose `run` it is) and its entry.
macro_rules! experiments {
    ($($name:ident: $output:ident [$($flag:literal),*];)*) => {
        $(mod $name;)*
        /// The registry, in `run_all`'s regeneration order.
        pub const EXPERIMENTS: &[Experiment] = &[$(
            Experiment { name: stringify!($name), flags: &[$($flag),*], output: Output::$output, body: $name::run },
        )*];
    };
}

experiments! {
    fig1_cluster_trace: Repeats [];
    fig3_phase_decomposition: Repeats [];
    fig4_ppl_vs_bitwidth: Repeats [];
    fig5_quant_speed: Repeats [];
    fig7_cost_fidelity: Repeats [];
    fig8_theta_sensitivity: Repeats [];
    fig9_vs_adabits: Repeats [];
    table1_layer_sensitivity: Repeats [];
    table4_hetero_serving: Repeats [];
    table5_homo_serving: Repeats [];
    table6_indicator: Repeats [];
    table7_short_prompts: Repeats [];
    table8_optimizer_speed: Repeats [];
    table10_solver_overhead: Repeats [];
    ablation_phase_aware: Repeats [];
    ablation_solver: Repeats [];
    ablation_microbatch: Repeats [];
    ablation_tensor_parallel: Repeats [];
    ablation_kv_cache: Repeats [];
    ablation_online: Repeats [];
    ablation_cost_per_token: Repeats [];
    bench_kernels: Measured ["--quick", "--check-ordering", "--compare FILE", "--out FILE"];
    bench_solver: Console ["--check", "--out FILE"];
    ablation_overload: Console ["--soak SECS"];
    ablation_serving: Console [];
    ablation_migration: Console [];
    ablation_recovery: Console [];
    ablation_telemetry_overhead: Console [];
    ablation_transport: Console [];
}

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

impl Experiment {
    /// Run into `out` on a thread of its own, so that nothing
    /// thread-local it leaves behind (a `kernels::with_cap` scope a panic
    /// cut short) reaches the next experiment. `None` if it panicked; the
    /// panic message is on stderr.
    pub fn run(&self, args: &Args, mut out: Out) -> Option<Out> {
        std::thread::scope(|s| {
            let body = || {
                (self.body)(&mut out, args);
                out
            };
            let thread = std::thread::Builder::new().name(self.name.into()).stack_size(16 << 20);
            thread.spawn_scoped(s, body).expect("spawn an experiment thread").join().ok()
        })
    }
}

/// The flags one experiment was given, checked against those it takes.
#[derive(Debug, Default)]
pub struct Args {
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse `argv` against `takes` (see [`Experiment::flags`]).
    pub fn parse(takes: &[&str], argv: &[String]) -> Result<Self, String> {
        let mut given = Vec::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let spec = takes
                .iter()
                .find(|spec| spec.split(' ').next() == Some(arg.as_str()))
                .ok_or_else(|| format!("unknown flag '{arg}'"))?;
            let value = match spec.split_once(' ') {
                Some((_, what)) => Some(argv.next().ok_or_else(|| format!("{arg} takes a {what}"))?.clone()),
                None => None,
            };
            given.push((arg.clone(), value));
        }
        Ok(Self { given })
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The value given with `flag` (the last, if it was given twice).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_against_the_experiment_that_takes_them() {
        let parse = |name: &str, argv: &str| {
            let argv: Vec<String> = argv.split_whitespace().map(str::to_string).collect();
            Args::parse(find(name).unwrap().flags, &argv)
        };
        let args = parse("bench_kernels", "--quick --compare A.json --out B.json").unwrap();
        assert!(args.has("--quick") && !args.has("--check-ordering"));
        assert_eq!((args.value("--compare"), args.value("--out")), (Some("A.json"), Some("B.json")));
        assert_eq!(parse("bench_kernels", "--check-ordreing").unwrap_err(), "unknown flag '--check-ordreing'");
        assert_eq!(parse("bench_kernels", "--out").unwrap_err(), "--out takes a FILE");
        assert!(parse("fig1_cluster_trace", "--quick").is_err());
        assert_eq!(EXPERIMENTS.iter().filter(|e| e.output != Output::Console).count(), 22);
    }

    #[test]
    fn a_panicking_experiment_is_contained_on_its_own_thread() {
        let boom = Experiment { name: "boom", flags: &[], output: Output::Console, body: |_, _| panic!("boom") };
        assert!(boom.run(&Args::default(), Out::capture(false)).is_none());
        let fine = Experiment { body: |out, _| say!(out, "fine"), ..boom };
        assert_eq!(fine.run(&Args::default(), Out::capture(false)).unwrap().text(), "fine\n");
    }
}
