//! # llmpq-kernels
//!
//! Packed low-bit weight storage, the fused dequant-GEMM that serves
//! from it — the subsystem that makes a bitwidth decision change memory
//! *traffic*, not just memory *accounting* — and the rest of a decoder
//! layer's arithmetic ([`elementwise`]: the model's one `exp`, GELU,
//! softmax; [`mod@attention`]: causal attention over 16-position blocks
//! of keys, k-major, and value rows, read where they live), so that what is left between the quantized GEMMs does not
//! decide a layer's time.
//!
//! Before this crate the reference runtime stored every quantized
//! operator as a dequantized `f32` matrix: an int4 layer occupied (and
//! streamed) exactly as many bytes per token as an fp16 one, so the
//! adaptive-bitwidth planner was optimizing numbers that the execution
//! engine never realized. Here a quantized operator stays packed —
//! group-wise int8 bytes or nibble-packed int4/int3 — and the GEMM
//! dequantizes one L1-sized tile at a time, once per block of
//! activation rows (or, for a decode step's one row, straight into the
//! registers that accumulate it), so resident bytes and per-token weight
//! traffic both scale with `bits/32` of the dense-f32 path and a prefill
//! chunk pays the unpack once, not once per row.
//!
//! Two invariants shape every design choice:
//!
//! 1. **Bit-exactness.** [`qgemm_t`] produces results bit-identical to
//!    dequantize-then-`matmul_t`-style scalar GEMM: each output
//!    accumulates `x[k].mul_add(q[k] as f32 * scale, acc)` in
//!    ascending-`k` order with the same f32 roundings (one for the
//!    dequantized weight, one per fused multiply-add). Register blocking
//!    parallelizes across *outputs* (independent accumulator chains per row and
//!    lane), never within one output's reduction, so serving tokens are
//!    unchanged when a layer flips from the dense to the packed
//!    representation, or when a row is computed alone or in a block.
//!    [`gemm_t`] runs dense weights through the same kernel.
//! 2. **Whole-vector conversion.** The payload is stored as
//!    lane-interleaved panels — sixteen output features, k-major /
//!    lane-minor — so turning it into `f32` is "load 32 bytes, (split
//!    nibbles,) widen, convert, scale" with per-group scales hoisted out
//!    of the loop and no cross-lane move, and the result is either stored
//!    to a tile that a block of rows sweeps (prefill) or multiplied and
//!    accumulated where it is (decode) — unpack inside the compute loop
//!    on vector-wide loads, Opt4GPTQ's layout/loop co-design, CPU
//!    edition. The layout is private to this crate; callers address
//!    weights by `(row, col)`.
//!
//! Every kernel is one safe, intrinsic-free body compiled three times on
//! `x86_64` — for the build's baseline ISA, for AVX2 and for AVX-512 —
//! and the widest the CPU has is chosen per call (per row block in the
//! GEMM) by run-time feature detection ([`isa`] says which). That
//! dispatch ([`dispatch`]) is the workspace's only `unsafe` block: this
//! crate denies `unsafe_code` with one `#[allow]` on the dispatch
//! function, and every other workspace crate forbids it. The three
//! instantiations agree `to_bits()`.
//!
//! The crate is dependency-free (vendored `serde` only) so it
//! sits *below* `llmpq-model` in the workspace graph: the reference
//! transformer's `LinearOp` wraps [`PackedMatrix`] directly.

#![deny(unsafe_code)]

pub mod attention;
pub mod dispatch;
pub mod elementwise;
pub mod gemm;
pub mod pack;
#[cfg(test)]
mod testutil;

pub use attention::{attention, KvBlocks, RowKv, KV_BLOCK};
pub use dispatch::{isa, Isa};
pub use elementwise::{exp, gelu, softmax_rows};
pub use gemm::{gemm_t, qgemm_t, qgemm_t_into, DensePanels};
pub use pack::{quantize_packed, PackBits, PackedMatrix, DEFAULT_GROUP};
