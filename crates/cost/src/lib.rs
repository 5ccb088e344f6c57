//! # llmpq-cost
//!
//! The assigner's two cost models (paper §4.1) plus the profiler that
//! feeds them:
//!
//! * [`memory`] — an *analytical* memory model: weight storage per
//!   bitwidth, pre-allocated KV cache, worst-case temporary workspace and
//!   the embedding stage. Fig 7 reports its error as "almost negligible";
//!   here it is validated against the allocator-level measurement in
//!   `llmpq-sim`.
//! * [`profiler`] — samples single-decoder-layer latencies on each
//!   (device, bitwidth, phase) over a grid of common prompt lengths and
//!   batch sizes, with measurement noise, standing in for the paper's
//!   on-GPU profiler.
//! * [`latency`] — a linear-regression latency model per (device,
//!   bitwidth, phase) over FLOPs/MOPs features, fitted by ordinary least
//!   squares on the profiled samples and interpolating to unseen shapes
//!   (<6% average error in the paper; reproduced in `fidelity`).
//! * [`fidelity`] — the Fig 7 harness comparing both models against the
//!   "real system" (the simulator), plus [`stage_crosscheck`], which
//!   compares the analytical per-stage predictions against busy times
//!   *observed* by the runtime's telemetry layer.

#![forbid(unsafe_code)]

pub mod fidelity;
pub mod latency;
pub mod memory;
pub mod profiler;
pub mod store;

pub use fidelity::{
    kernel_crosscheck, latency_fidelity, link_crosscheck, memory_fidelity,
    predicted_stage_seconds, stage_crosscheck, FidelityReport, KernelCrosscheck,
    KernelObservation, LinkCrosscheck, LinkObservation, StageCrosscheck,
};
pub use latency::{CostDb, LatencyModel};
pub use memory::{
    device_charge, layer_charge, stage_memory, MemoryBreakdown, MemoryJob, FRAMEWORK_BYTES,
};
pub use profiler::{profile_device, ProfileSample, ProfilerConfig};
pub use store::ProfileFile;
