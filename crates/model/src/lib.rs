//! # llmpq-model
//!
//! Decoder-only transformer model descriptions and a small, runnable
//! reference implementation.
//!
//! This crate provides the two model-side substrates the LLM-PQ paper
//! depends on:
//!
//! 1. **Architecture metadata** ([`ModelSpec`], [`zoo`]) for the OPT and
//!    BLOOM families the paper evaluates (OPT-1.3b … 175b, BLOOM-560m …
//!    176b), together with exact per-layer parameter, FLOP and memory-
//!    operation accounting ([`flops`]). The assigner and the cost models
//!    consume only this metadata — they never need real weights.
//! 2. **A real, runnable reference transformer** ([`mod@reference`]) with
//!    pre-allocated KV cache and the two generative phases (prefill and
//!    decode). It is small enough to run on a laptop but numerically
//!    faithful: quantization-quality experiments (perplexity vs. bitwidth,
//!    layer sensitivity) run real attention/MLP math through really
//!    quantized weights.
//!
//! The split mirrors the paper's system: planning happens on metadata,
//! quality measurement happens on a live model.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod flops;
pub mod linear;
pub mod phase;
pub mod reference;
pub mod spec;
pub mod tensor;
pub mod zoo;

pub use checkpoint::{load_checkpoint, save_checkpoint};
pub use flops::{LayerCost, PhaseWorkload};
pub use linear::LinearOp;
pub use phase::Phase;
pub use reference::{
    alibi_slope, argmax, forward_layer, forward_shard, log_softmax_at, sample_from_logits,
    GenerationOutput, KvCache, KvSeq, LayerWeights, ModelHead, OperatorTaps, OutRows, RefConfig, RefModel,
};
pub use spec::{ModelFamily, ModelSpec};
pub use tensor::Matrix;

/// Group length of the packed quantized layout the serving path uses,
/// and the bytes that layout holds per `(row, group)`; re-exported so
/// the memory model and the allocator walk charge scale metadata
/// without depending on `llmpq-kernels` directly.
pub use llmpq_kernels::{DEFAULT_GROUP as QUANT_GROUP, SCALE_BYTES};

/// How [`KvSeq`] hands K/V to attention — 16-position blocks, keys
/// k-major — re-exported so that a KV store implements the contract
/// without depending on `llmpq-kernels` directly.
pub use llmpq_kernels::{KvBlocks, KV_BLOCK};
