//! `llmpq-omega`: the paper's Indicator Generator as a CLI — produce the
//! ω file `llmpq-algo` consumes.
//!
//! ```text
//! llmpq-omega --model-name opt --model_size 30b [--method variance|hessian|random]
//!     [--rounding det|stoch] [-o omega.json]
//! ```

use llmpq_cli::Args;
use llmpq_model::{zoo, RefConfig, RefModel};
use llmpq_quant::{build_indicator, IndicatorKind, Rounding};

const USAGE: &str = "usage: llmpq-omega --model-name <opt|bloom> --model_size <13b|...>
    [--method variance|hessian|random] [--rounding det|stoch] [-o omega.json]";

/// Every flag [`USAGE`] documents; anything else is a typo.
const FLAGS: &[&str] = &["model-name", "model_size", "method", "rounding", "o"];

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
    let family = args.required("model-name").map_err(|e| e.to_string())?;
    let size = args.required("model_size").map_err(|e| e.to_string())?;
    let model_id = format!("{family}-{size}");
    let spec = zoo::by_name(&model_id).ok_or(format!("unknown model '{model_id}'"))?;

    let rounding = match args.get("rounding").unwrap_or("det") {
        "det" | "deterministic" => Rounding::Deterministic,
        "stoch" | "stochastic" => Rounding::Stochastic,
        other => return Err(format!("unknown rounding '{other}'")),
    };
    let kind = match args.get("method").unwrap_or("variance") {
        "variance" => IndicatorKind::Variance(rounding),
        "hessian" => IndicatorKind::Hessian(rounding),
        "random" => IndicatorKind::Random { seed: 99 },
        other => return Err(format!("unknown method '{other}'")),
    };

    let teacher = if spec.family == llmpq_model::ModelFamily::Bloom {
        RefModel::new(RefConfig::scaled_like_bloom(spec.n_layers, 1))
    } else {
        RefModel::new(RefConfig::scaled_like(spec.n_layers, 1))
    };
    let calib: Vec<Vec<usize>> = (0..4)
        .map(|i| (0..32).map(|j| (i * 37 + j * 11) % teacher.cfg.vocab).collect())
        .collect();
    let (table, overhead) = build_indicator(kind, &teacher, &calib);
    let table = table.normalized_budget(1.0);
    eprintln!(
        "built {:?} indicator for {model_id} ({} layers) in {overhead:.3}s",
        kind,
        table.n_layers()
    );
    let json = serde_json::to_string_pretty(&table).expect("indicator serializes");
    match args.get("o") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("omega file written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}
