//! # llmpq-workload
//!
//! Serving-workload generation for the offline batch task LLM-PQ
//! targets: prompts padded to a uniform length, a fixed global batch
//! size, and a predetermined token-generation count (§2.3). Also
//! provides a ShareGPT-like prompt-length mixture reproducing the §2.1
//! observation that real prompt lengths vary substantially, plus the
//! micro-batch arithmetic the assigner enumerates over.

#![forbid(unsafe_code)]

pub mod batch;
pub mod online;
pub mod prompts;

pub use batch::{microbatch_counts, BatchJob, MicrobatchPlan};
pub use online::{
    sample_arrivals, sample_arrivals_for_duration, ArrivalSpec, OnlineConfig, OnlineError,
};
pub use prompts::{PromptLengthModel, PromptSample};
