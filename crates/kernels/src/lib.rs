//! # llmpq-kernels
//!
//! Packed low-bit weight storage and the fused dequant-GEMM that serves
//! from it — the subsystem that makes a bitwidth decision change memory
//! *traffic*, not just memory *accounting*.
//!
//! Before this crate the reference runtime stored every quantized
//! operator as a dequantized `f32` matrix: an int4 layer occupied (and
//! streamed) exactly as many bytes per token as an fp16 one, so the
//! adaptive-bitwidth planner was optimizing numbers that the execution
//! engine never realized. Here a quantized operator stays packed —
//! group-wise int8 bytes or nibble-packed int4/int3 — and the GEMM
//! dequantizes one L1-sized tile at a time, once per block of
//! activation rows, so resident bytes and per-token weight traffic
//! both scale with `bits/32` of the dense-f32 path and a prefill chunk
//! pays the unpack once, not once per row.
//!
//! Two invariants shape every design choice:
//!
//! 1. **Bit-exactness.** [`qgemm_t`] produces results bit-identical to
//!    dequantize-then-`matmul_t`-style scalar GEMM: each output
//!    accumulates `x[k] * (q[k] as f32 * scale)` in ascending-`k` order
//!    with the same two f32 roundings. Register blocking parallelizes
//!    across *outputs* (independent accumulator chains per row and
//!    lane), never within one output's reduction, so serving tokens are
//!    unchanged when a layer flips from the dense to the packed
//!    representation, or when a row is computed alone or in a block.
//!    [`gemm_t`] runs dense weights through the same kernel.
//! 2. **Sequential k-access.** The payload is laid out row-major per
//!    output feature, so the hot k-loop streams each lane's bytes in
//!    order and per-group scales are hoisted out of the inner loop
//!    (Opt4GPTQ's layout/loop co-design, scalar-CPU edition).
//!
//! The crate is dependency-free (vendored `rayon`/`serde` only) so it
//! sits *below* `llmpq-model` in the workspace graph: the reference
//! transformer's `LinearOp` wraps [`PackedMatrix`] directly.

pub mod gemm;
pub mod pack;

pub use gemm::{gemm_t, qgemm_t, qgemm_t_into};
pub use pack::{quantize_packed, PackBits, PackedMatrix, DEFAULT_GROUP};
