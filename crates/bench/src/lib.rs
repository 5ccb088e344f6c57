//! # llmpq-bench
//!
//! The experiment harness: one binary per table and figure of the paper
//! (see `src/bin/`), sharing the setup code in this library —
//! indicator construction, cost-database fitting, the serving-comparison
//! driver behind Tables 4/5/7, the quality harness that turns a plan's
//! bit assignment into perplexity/accuracy numbers, and plain-text table
//! rendering.
//!
//! Run any experiment with
//! `cargo run --release -p llmpq-bench --bin <name>`.

#![forbid(unsafe_code)]

pub mod quality;
pub mod serving;
pub mod table;

pub use quality::{plan_ppl, scaled_teacher, zoo_indicator, QualityHarness};
pub use serving::{compare_cluster, ComparisonRow, ServingSetup};
pub use table::TextTable;
