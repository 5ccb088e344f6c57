//! `llmpq-profile`: produce a per-device profiling artifact.
//!
//! ```text
//! llmpq-profile --device V100 --model-name opt --model_size 13b -o v100.profile.json
//! ```
//!
//! Mirrors the paper's profiler, which measures single-decoder-layer
//! latencies per (precision, phase, shape) on each GPU once and feeds
//! the samples to the cost fitter.

use llmpq_cli::Args;
use llmpq_cluster::GpuModel;
use llmpq_cost::{profile_device, ProfileFile, ProfilerConfig};
use llmpq_model::zoo;
use llmpq_sim::KernelEnv;

const USAGE: &str =
    "usage: llmpq-profile --device <P100|T4|V100|A100|A800> --model-name <opt|bloom> --model_size <13b|...> [-o out.json]";

/// Every flag [`USAGE`] documents; anything else is a typo.
const FLAGS: &[&str] = &["device", "model-name", "model_size", "o"];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)).and_then(|a| a.reject_unknown(FLAGS)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let dev_name = args.required("device").map_err(|e| e.to_string())?.to_ascii_uppercase();
    let gpu = GpuModel::ALL
        .into_iter()
        .find(|g| g.spec().name.to_ascii_uppercase().starts_with(&dev_name))
        .ok_or(format!("unknown device '{dev_name}'"))?;
    let family = args.required("model-name").map_err(|e| e.to_string())?;
    let size = args.required("model_size").map_err(|e| e.to_string())?;
    let model_id = format!("{family}-{size}");
    let spec = zoo::by_name(&model_id).ok_or(format!("unknown model '{model_id}'"))?;

    eprintln!("profiling one {model_id} decoder layer on {gpu}…");
    let samples = profile_device(&gpu.spec(), &KernelEnv::default(), &spec, &ProfilerConfig::default());
    eprintln!("collected {} samples", samples.len());
    let file = ProfileFile { gpu, model: spec.name.clone(), samples };
    let json = file.to_json();
    match args.get("o") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("profile written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}
