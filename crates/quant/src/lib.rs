//! # llmpq-quant
//!
//! Weight quantization for LLM serving, mirroring the kernels LLM-PQ
//! builds on: symmetric per-channel quantization with deterministic or
//! stochastic rounding (GPTQ-style weight-only 3/4-bit, bitsandbytes-style
//! INT8), plus the *quantization-sensitivity indicators* that guide the
//! assigner's bitwidth choices:
//!
//! * the paper's **variance indicator** ω(i,b) (Theorem 1 /
//!   Proposition 2) — a closed-form bound on the output variance a
//!   quantized linear operator introduces, computable from weight scale
//!   statistics and cheap activation statistics;
//! * a **Hessian-proxy indicator** (HAWQ/GPTQ-objective style) that
//!   actually measures ‖WX − W̃X‖² on calibration data — accurate but
//!   orders of magnitude slower (Table 6's comparison);
//! * a **random indicator** (the paper's ablation control).

#![forbid(unsafe_code)]

pub mod apply;
pub mod bitwidth;
pub mod calibrate;
pub mod indicator;
pub mod loader;
pub mod quantizer;
pub mod schemes;
pub mod smoothquant;

pub use apply::{quantize_model, quantize_model_uniform};
pub use bitwidth::{BitAssignment, Bitwidth};
pub use calibrate::{calibrate, CalibrationReport, OperatorStats};
pub use indicator::{
    build_indicator, hessian_indicator, random_indicator, variance_indicator, IndicatorKind,
    IndicatorTable,
};
pub use loader::{load_stage_weights, LoaderStats, OnTheFlyQuantizer};
pub use quantizer::{
    fake_quantize, pack_operator, quantization_mse, quantize_matrix, QuantizedMatrix, Rounding,
};
pub use schemes::{fake_quantize_scheme, scheme_mse, QuantScheme};
pub use smoothquant::{apply_smoothing, smoothed_w8a8_error, smoothing_factors, w8a8_error, SmoothingFactors};
