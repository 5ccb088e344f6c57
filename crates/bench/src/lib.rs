//! # llmpq-bench
//!
//! The experiment harness: every table and figure of the paper, the
//! ablations and the two wall-clock benches, each a library function
//! registered in [`experiments::EXPERIMENTS`] and run by the one binary,
//! `run_all`. They share the setup code in this library — indicator
//! construction, cost-database fitting, the serving-comparison driver
//! behind Tables 4/5/7, the quality harness that turns a plan's bit
//! assignment into perplexity/accuracy numbers, plain-text tables — and
//! report through one emitter, [`Out`].
//!
//! ```bash
//! cargo run --release -p llmpq-bench --bin run_all -- <name> [flags]
//! ```

#![forbid(unsafe_code)]

/// `println!` into an [`Out`].
macro_rules! say {
    ($out:expr) => {
        $out.line("")
    };
    ($out:expr, $($arg:tt)*) => {
        $out.line(format!($($arg)*))
    };
}

pub mod emit;
pub mod experiments;
pub mod quality;
pub mod serving;
pub mod table;

pub use emit::Out;
pub use experiments::{Args, Experiment, Output, EXPERIMENTS};
pub use quality::{scaled_teacher, zoo_indicator, QualityHarness};
pub use serving::{compare_cluster, ComparisonRow, ServingSetup};
pub use table::TextTable;
