//! # llmpq-sim
//!
//! The execution substrate standing in for the paper's GPU testbed.
//!
//! * [`kernel`] — a roofline model of single-layer execution on a given
//!   GPU at a given precision: `t = max(compute, memory) + overhead`,
//!   with per-device per-bitwidth efficiency tables from `llmpq-cluster`.
//!   This is the *ground truth* the profiler samples and the regression
//!   cost model approximates.
//! * [`pipeline`] — a discrete-event simulation of pipeline-parallel
//!   generative serving: prefill micro-batches streaming through stages,
//!   then autoregressive decode steps with the real inter-token
//!   dependency (token *t* of a micro-batch cannot enter stage 0 before
//!   token *t−1* left the last stage).
//! * [`offload`] — a FlexGen-style CPU/NVMe offloading executor for the
//!   baseline rows of Tables 4, 5 and 7.
//! * [`memory`] — an allocator-level "measured" peak-memory accounting
//!   used as the real-system side of the Fig 7 fidelity experiment.

#![forbid(unsafe_code)]

pub mod kernel;
pub mod memory;
pub mod offload;
pub mod pipeline;
pub mod tp;

pub use kernel::{embedding_latency, layer_latency, KernelEnv};
pub use memory::{layer_workspace_bytes, measured_peak_memory};
pub use offload::{offload_stage, offload_throughput, OffloadConfig, OffloadReport};
pub use pipeline::{
    analytical_latency, recovery_cost, simulate_pipeline, FailureModel, PipelineReport,
    PipelineWorkload, RecoveryReport, StageLoad,
};
pub use tp::{allreduce_time, tp_layer_latency, TpGroup};
