//! The on-the-fly quantizing model loader (paper §5) lives in
//! [`llmpq_quant::loader`], next to the quantizer it drives; the runtime
//! re-exports it under the path it has always had.

pub use llmpq_quant::loader::{load_stage_weights, LoaderStats, OnTheFlyQuantizer};
