//! `llmpq-algo`: the paper's plan-generation entry point (§5).
//!
//! ```text
//! llmpq-algo --model-name opt --model_size 30b --cluster 3 \
//!     --global_bz 32 --s 512 --n 100 --theta 1 --group 2 \
//!     [--shaq-efficient] [--fit | --use_profiler_prediction] [--kv8] \
//!     [-o strategy.json]
//! ```
//!
//! Either `--cluster <1..11>` (Table 3) or `--device-names`/
//! `--device-numbers` describe the hardware. Prints the plan summary and
//! writes the strategy file for `llmpq-dist`.

use llm_pq::{assign, AssignerConfig, SolverChoice};
use llmpq_cli::Args;
use llmpq_cluster::{paper_cluster, Cluster, GpuModel, Interconnect};
use llmpq_cost::{CostDb, ProfilerConfig};
use llmpq_model::zoo;
use llmpq_quant::{calibrate, variance_indicator, Rounding};
use llmpq_model::{RefConfig, RefModel};
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;

const USAGE: &str = "usage: llmpq-algo --model-name <opt|bloom> --model_size <13b|30b|66b|176b|...>
    (--cluster <1..11> | --cluster_file spec.json | --device-names <T4 V100 ...> --device-numbers <k1 k2 ...>)
    [--global_bz 32] [--s 512] [--n 100] [--theta 1.0] [--group 1]
    [--shaq-efficient] [--fit | --use_profiler_prediction] [--kv8]
    [--omega_file indicator.json] [-o strategy.json]";

/// Every flag [`USAGE`] documents; anything else is a typo.
const FLAGS: &[&str] = &[
    "model-name", "model_size", "cluster", "cluster_file", "device-names", "device-numbers",
    "global_bz", "s", "n", "theta", "group", "shaq-efficient", "fit", "use_profiler_prediction",
    "kv8", "omega_file", "o", "help",
];

fn gpu_by_name(name: &str) -> Option<GpuModel> {
    let n = name.to_ascii_uppercase();
    GpuModel::ALL
        .into_iter()
        .find(|g| g.spec().name.to_ascii_uppercase().starts_with(&n))
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
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    // --- Model ---
    let family = args.required("model-name").map_err(|e| e.to_string())?;
    let size = args.required("model_size").map_err(|e| e.to_string())?;
    let model_id = format!("{family}-{size}");
    let spec = zoo::by_name(&model_id).ok_or(format!("unknown model '{model_id}'"))?;

    // --- Cluster ---
    let cluster: Cluster = if let Some(path) = args.get("cluster_file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        llmpq_cluster::ClusterSpec::from_json(&text)?.to_cluster()?
    } else if let Some(c) = args.get("cluster") {
        let n: usize = c.parse().map_err(|_| format!("bad cluster '{c}'"))?;
        if !(1..=11).contains(&n) {
            return Err(format!("cluster must be 1..11, got {n}"));
        }
        paper_cluster(n)
    } else {
        let names = args.get_all("device-names");
        let numbers = args.get_all("device-numbers");
        if names.is_empty() || names.len() != numbers.len() {
            return Err("--device-names and --device-numbers must match".into());
        }
        let mut groups = Vec::new();
        for (name, num) in names.iter().zip(numbers) {
            let gpu = gpu_by_name(name).ok_or(format!("unknown device '{name}'"))?;
            let k: usize = num.parse().map_err(|_| format!("bad device count '{num}'"))?;
            groups.push((gpu, k));
        }
        Cluster::from_groups("custom", &groups, Interconnect::Ethernet100G, None)
    };

    // --- Workload ---
    let job = BatchJob {
        global_batch: args.get_parse("global_bz", 32usize).map_err(|e| e.to_string())?,
        prompt_len: args.get_parse("s", 512usize).map_err(|e| e.to_string())?,
        n_generate: args.get_parse("n", 100usize).map_err(|e| e.to_string())?,
    };

    // --- Assigner config ---
    let theta: f64 = args.get_parse("theta", 1.0).map_err(|e| e.to_string())?;
    let group: usize = args.get_parse("group", 2usize).map_err(|e| e.to_string())?;
    let solver = if args.switch("shaq-efficient") {
        SolverChoice::Heuristic
    } else {
        SolverChoice::Dp { group }
    };
    let cfg = AssignerConfig {
        theta,
        solver,
        search_kv8: args.switch("kv8"),
        max_bits: None,
        max_orderings: 6,
        dp_grid: Some(12),
        ..Default::default()
    };

    // --- Cost database: --fit trains the regression; the default
    //     (--use_profiler_prediction) queries the profiler directly. ---
    let env = KernelEnv::default();
    let db = if args.switch("fit") {
        let specs: Vec<_> = cluster.model_counts().iter().map(|(g, _)| g.spec()).collect();
        CostDb::fit(&specs, &env, &spec, &ProfilerConfig::default())
    } else {
        CostDb::oracle(&env)
    };

    // --- Indicator: from --omega_file or generated on the fly. ---
    let indicator = if let Some(path) = args.get("omega_file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?
    } else {
        eprintln!("note: no --omega_file given; generating the variance indicator");
        let teacher = RefModel::new(RefConfig::scaled_like(spec.n_layers, 1));
        let calib: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..32).map(|j| (i * 37 + j * 11) % teacher.cfg.vocab).collect())
            .collect();
        let report = calibrate(&teacher, &calib);
        variance_indicator(&teacher, &report, Rounding::Deterministic).normalized_budget(1.0)
    };

    // --- Solve ---
    let out = assign(&cluster, &spec, &job, &db, &indicator, &cfg)?;
    eprintln!(
        "plan: {} stages, {:.1} mean bits, kv{}, predicted {:.1} tok/s ({:.2}s/batch), solved in {:.2}s over {} combos",
        out.plan.stages.len(),
        out.report.mean_bits,
        out.plan.kv_bits,
        out.report.throughput,
        out.report.total_latency,
        out.overhead_s,
        out.combinations,
    );
    for (i, s) in out.plan.stages.iter().enumerate() {
        eprintln!(
            "  stage {i}: {} layers {}..{} ({})",
            cluster.devices[s.device].gpu,
            s.layer_start,
            s.layer_end,
            s.bits.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(",")
        );
    }
    let json = out.plan.to_json();
    match args.get("o") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("strategy written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}
