//! # llmpq-quality
//!
//! Model-quality measurement for quantization experiments: synthetic
//! corpora, perplexity, and zero-shot multiple-choice accuracy.
//!
//! The paper measures perplexity on WikiText2/PTB/C4 and accuracy on
//! LAMBADA/ARC/PIQA. Those datasets gauge one thing in a quantization
//! study: *how much the quantized model's predictive distribution drifts
//! from the full-precision one*. We reproduce that measurement with
//! corpora sampled from the FP32 reference model itself (so the teacher
//! is by construction the true distribution and quantization can only
//! hurt) and with teacher-derived multiple-choice tasks.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod divergence;
pub mod ppl;
pub mod tasks;

pub use corpus::{standard_corpora, Corpus};
pub use divergence::{divergence, DivergenceReport};
pub use ppl::{mean_nll, perplexity, perplexity_suite};
pub use tasks::{accuracy_suite, task_accuracy, ChoiceTask, TaskSet};
