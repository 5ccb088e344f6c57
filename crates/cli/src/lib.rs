//! # llmpq-cli
//!
//! Command-line entry points mirroring the paper's §5 interface:
//!
//! ```text
//! llmpq-algo --model-name opt --model-size 30b \
//!     --cluster 3                # or --device-names T4 V100 --device-numbers 3 1
//!     --global_bz 32 --s 512 --n 100 \
//!     --theta 1 --group 2 --shaq-efficient \
//!     --fit                      # or --use_profiler_prediction
//!     -o strategy.json
//!
//! llmpq-dist --strat_file_name strategy.json --n-generate 16
//! ```
//!
//! `llmpq-algo` produces the strategy file; `llmpq-dist` executes one on
//! the in-process pipeline runtime with a scaled stand-in checkpoint.

#![forbid(unsafe_code)]

pub mod args;

pub use args::{ArgError, Args};
