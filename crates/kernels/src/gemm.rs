//! Blocked fused dequant-GEMM over [`PackedMatrix`] (and dense) weights.
//!
//! [`qgemm_t`] computes `out = x · wᵀ` for an activation block `x`
//! (`m × k`, row-major) against a packed weight (`n × k`, i.e. the
//! `(out_features, in_features)` orientation of the repo's `matmul_t`).
//! The weight is never materialized as `f32` in memory: one small tile
//! at a time is dequantized into an L1-resident scratch buffer, and that
//! staged tile is then multiplied against *every* activation row of the
//! block before the next tile is touched. Unpack-and-scale — the
//! expensive part of a fused kernel on a CPU — is therefore paid once
//! per weight per 64-row block, not once per weight per row, which is
//! what separates compute-bound prefill from memory-bound decode.
//! [`gemm_t`] is the same kernel over a dense `f32` weight, with a
//! transposing copy as the tile fill.
//!
//! ## Loop structure
//!
//! ```text
//! par over row blocks of ≤ ROW_BLOCK = 64 activation rows (disjoint chunks of out)
//!   scratch[TILE_K × LANES]                            ← one 4 KB tile per block
//!   for each lane-tile of LANES = 8 output features    ← f32x8-style unroll
//!     for each k-tile: one quant group, or TILE_K = 128 steps of a longer one
//!       fill: scratch[kk][lane] = ((q − z) as f32) * s ← ONCE, scale/zero hoisted
//!       for each register block of MR = 4 rows (then the m % 4 tail, one row each):
//!         acc[MR][LANES] = out[rows][lanes]            ← carried between k-tiles
//!         for kk in tile:                              ← sequential k
//!           for r, lane: acc[r][lane] += x[r][kk] * scratch[kk][lane]
//!         out[rows][lanes] = acc
//! ```
//!
//! There is one such kernel for every `m`. Decode (`m == 1`) is the
//! row tail of an empty set of full blocks: the same fill, the same
//! inner loop with one accumulator row. The `MR × LANES` accumulators
//! are *independent outputs*, which is what lets the CPU overlap f32 add
//! latency — parallelism is never introduced within a single output's
//! reduction.
//!
//! ## Bit-exactness
//!
//! For every output `(i, j)` the accumulation is `acc += x[i][k] * w[j][k]`
//! for `k = 0, 1, …` from `acc = 0`, where `w[j][k] = ((q − z) as f32) * s`
//! — exactly the roundings of dequantizing the whole matrix first and
//! running the scalar `matmul_t` reference. Tiling changes only *when* a
//! dequantized value is produced and where the running sum rests between
//! k-tiles (an `f32` store and reload of the same value), never a bit
//! pattern or the order terms enter the sum, so the result is
//! bit-identical for packed and dense weights alike. It also makes row
//! `i` of an `m`-row call equal to the one-row call on `x[i]`, which is
//! what lets serving chunk, batch and recompute prefill freely.
//!
//! Nibble precisions unpack a payload byte into two consecutive k-steps
//! with shifts and masks (`((u − 8 − z) as f32) * s`, int8's rounding
//! chain), so int4/int3 stage a tile in about the time int8 does while
//! reading half the payload bytes.

use crate::pack::{PackBits, PackedMatrix};
use rayon::prelude::*;

/// Output features per register tile: eight independent f32 accumulator
/// chains per activation row, the stable-Rust stand-in for one `f32x8`.
const LANES: usize = 8;

/// Activation rows per register block: `MR × LANES` accumulators stay in
/// registers while one weight tile streams past them.
const MR: usize = 4;

/// k-steps per scratch tile (`TILE_K × LANES` f32 = 4 KB, L1-resident).
/// A quant group longer than this is swept in `TILE_K` pieces, still in
/// ascending k.
const TILE_K: usize = 128;

/// Activation rows per parallel chunk of `out`.
const ROW_BLOCK: usize = 64;

const NIBBLE_BIAS: i32 = 8;

/// `out = x · wᵀ`, freshly allocated (`m × w.rows`, row-major).
///
/// `x` is `m × k` row-major with `k == w.cols`.
pub fn qgemm_t(x: &[f32], m: usize, w: &PackedMatrix) -> Vec<f32> {
    let mut out = vec![0.0f32; m * w.rows];
    qgemm_t_into(x, m, w, &mut out);
    out
}

/// [`qgemm_t`] into a caller-provided buffer of length `m * w.rows`.
pub fn qgemm_t_into(x: &[f32], m: usize, w: &PackedMatrix, out: &mut [f32]) {
    gemm_blocked(x, m, w, out);
}

/// Dense `out = x · wᵀ` through the same blocked kernel: `w` is `n × k`
/// row-major `f32`, and the tile fill is a plain transpose (an identity
/// dequant). Bit-identical to the scalar ascending-k dot product per
/// output.
pub fn gemm_t(x: &[f32], m: usize, w: &[f32], n: usize, k: usize) -> Vec<f32> {
    assert_eq!(w.len(), n * k, "weight shape mismatch");
    let mut out = vec![0.0f32; m * n];
    gemm_blocked(x, m, &DenseWeight { data: w, n, k }, &mut out);
    out
}

/// What the blocked kernel needs from a weight: its shape, the k-spans
/// that share dequant state, and a way to stage a tile as `f32`.
trait TileSource: Sync {
    /// Output features.
    fn n(&self) -> usize;
    /// Reduction length.
    fn k(&self) -> usize;
    /// A tile never straddles a multiple of this k-span.
    fn group(&self) -> usize;
    /// Stage `w[j + lane][k_lo + kk]` at `tile[kk * NL + lane]` for the
    /// `tile.len() / NL` k-steps from `k_lo`, all inside one group.
    fn fill<const NL: usize>(&self, j: usize, k_lo: usize, tile: &mut [f32]);
}

struct DenseWeight<'a> {
    data: &'a [f32],
    n: usize,
    k: usize,
}

impl TileSource for DenseWeight<'_> {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn group(&self) -> usize {
        TILE_K
    }

    fn fill<const NL: usize>(&self, j: usize, k_lo: usize, tile: &mut [f32]) {
        let klen = tile.len() / NL;
        for lane in 0..NL {
            let row = &self.data[(j + lane) * self.k + k_lo..][..klen];
            for (kk, &v) in row.iter().enumerate() {
                tile[kk * NL + lane] = v;
            }
        }
    }
}

impl TileSource for PackedMatrix {
    fn n(&self) -> usize {
        self.rows
    }

    fn k(&self) -> usize {
        self.cols
    }

    fn group(&self) -> usize {
        self.group
    }

    fn fill<const NL: usize>(&self, j: usize, k_lo: usize, tile: &mut [f32]) {
        let klen = tile.len() / NL;
        let gpr = self.groups_per_row();
        let g = k_lo / self.group;
        let stride = self.row_stride();
        for lane in 0..NL {
            // Hoisted per-(lane, group) dequant state.
            let s = self.scales[(j + lane) * gpr + g];
            let z = self.zeros[(j + lane) * gpr + g] as i32;
            let row = &self.payload[(j + lane) * stride..][..stride];
            match self.bits {
                PackBits::Int8 => {
                    for (kk, &b) in row[k_lo..k_lo + klen].iter().enumerate() {
                        tile[kk * NL + lane] = ((b as i8 as i32 - z) as f32) * s;
                    }
                }
                PackBits::Int3 | PackBits::Int4 => {
                    // `((u − bias − z) as f32) * s`: int8's rounding
                    // chain. Even k is a byte's low nibble. An odd
                    // `k_lo` starts mid-byte and an odd end stops
                    // mid-byte; between them whole bytes unpack two
                    // k-steps at a time.
                    let zb = NIBBLE_BIAS + z;
                    let deq = |u: u8| ((u as i32 - zb) as f32) * s;
                    let head = k_lo % 2;
                    if head == 1 {
                        tile[lane] = deq(row[k_lo / 2] >> 4);
                    }
                    let body = &mut tile[head * NL..];
                    let bytes = &row[(k_lo + head) / 2..];
                    for (pair, &b) in body.chunks_exact_mut(2 * NL).zip(bytes) {
                        pair[lane] = deq(b & 0x0F);
                        pair[NL + lane] = deq(b >> 4);
                    }
                    if (klen - head) % 2 == 1 {
                        tile[(klen - 1) * NL + lane] = deq(row[(k_lo + klen - 1) / 2] & 0x0F);
                    }
                }
            }
        }
    }
}

/// The one accumulation kernel: every `m`, packed or dense.
fn gemm_blocked<W: TileSource>(x: &[f32], m: usize, w: &W, out: &mut [f32]) {
    let (n, k) = (w.n(), w.k());
    assert_eq!(x.len(), m * k, "activation shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    // Accumulators are loaded from `out` at every tile, the first included.
    out.fill(0.0);
    out.par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(|(b, oblk)| {
        let rows = oblk.len() / n;
        let xblk = &x[b * ROW_BLOCK * k..][..rows * k];
        let mut scratch = [0.0f32; TILE_K * LANES];
        let mut j = 0;
        while j + LANES <= n {
            lane_panel::<LANES, W>(xblk, rows, w, j, oblk, &mut scratch);
            j += LANES;
        }
        // Tail outputs (n % LANES): single-lane tiles — the same
        // ascending-k accumulation per output.
        while j < n {
            lane_panel::<1, W>(xblk, rows, w, j, oblk, &mut scratch);
            j += 1;
        }
    });
}

/// Outputs `[j, j + NL)` of every row in the block: stage each weight
/// tile once, then sweep it over the rows `MR` at a time.
fn lane_panel<const NL: usize, W: TileSource>(
    x: &[f32],
    rows: usize,
    w: &W,
    j: usize,
    out: &mut [f32],
    scratch: &mut [f32; TILE_K * LANES],
) {
    let (n, k, group) = (w.n(), w.k(), w.group());
    let mut k_lo = 0;
    while k_lo < k {
        let k_hi = (k_lo + TILE_K).min((k_lo / group + 1) * group).min(k);
        let tile = &mut scratch[..(k_hi - k_lo) * NL];
        w.fill::<NL>(j, k_lo, tile);
        let mut i = 0;
        while i + MR <= rows {
            mac_rows::<MR, NL>(&x[i * k + k_lo..], k, tile, &mut out[i * n + j..], n);
            i += MR;
        }
        // Row tail, and all of decode (`m == 1`): one-row blocks.
        while i < rows {
            mac_rows::<1, NL>(&x[i * k + k_lo..], k, tile, &mut out[i * n + j..], n);
            i += 1;
        }
        k_lo = k_hi;
    }
}

/// `R × NL` register block over one staged tile: ascending k, one
/// independent chain per (row, lane), carried in `out` between tiles.
/// Row `r` reads `x[r * k..]` and accumulates into `out[r * n..][..NL]`.
#[inline(always)]
fn mac_rows<const R: usize, const NL: usize>(x: &[f32], k: usize, tile: &[f32], out: &mut [f32], n: usize) {
    let klen = tile.len() / NL;
    let xr: [&[f32]; R] = std::array::from_fn(|r| &x[r * k..][..klen]);
    let mut acc = [[0.0f32; NL]; R];
    for r in 0..R {
        acc[r].copy_from_slice(&out[r * n..][..NL]);
    }
    for (kk, wk) in tile.chunks_exact(NL).enumerate() {
        for r in 0..R {
            let xv = xr[r][kk];
            for lane in 0..NL {
                acc[r][lane] += xv * wk[lane];
            }
        }
    }
    for r in 0..R {
        out[r * n..][..NL].copy_from_slice(&acc[r]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::quantize_packed;

    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    /// Scalar dequantize-then-matmul_t reference: the exact accumulation
    /// order the repo's `Matrix::matmul_t` uses on a dequantized weight.
    fn reference(x: &[f32], m: usize, w: &PackedMatrix) -> Vec<f32> {
        let dq = w.unpack();
        let (k, n) = (w.cols, w.rows);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += x[i * k + kk] * dq[j * k + kk];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn assert_bit_identical(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (l, r)) in a.iter().zip(b).enumerate() {
            assert_eq!(l.to_bits(), r.to_bits(), "index {i}: {l} vs {r}");
        }
    }

    #[test]
    fn matches_reference_across_shapes_and_bits() {
        for &(m, n, k, group) in
            &[(1, 8, 16, 16), (1, 19, 33, 8), (3, 24, 40, 16), (2, 7, 5, 3), (4, 300, 65, 64)]
        {
            for bits in [PackBits::Int3, PackBits::Int4, PackBits::Int8] {
                let data = pseudo(n * k, 7 + m as u64);
                let w = quantize_packed(&data, n, k, bits, group);
                let x = pseudo(m * k, 11 + n as u64);
                assert_bit_identical(&qgemm_t(&x, m, &w), &reference(&x, m, &w));
            }
        }
    }

    #[test]
    fn decode_path_crosses_parallel_tile_boundary() {
        // Decode (`m == 1`) over 75 lane tiles and three quant groups.
        let (n, k) = (600, 96);
        let w = quantize_packed(&pseudo(n * k, 21), n, k, PackBits::Int4, 32);
        let x = pseudo(k, 22);
        assert_bit_identical(&qgemm_t(&x, 1, &w), &reference(&x, 1, &w));
    }

    #[test]
    fn into_variant_matches_alloc_variant() {
        let (m, n, k) = (2, 30, 48);
        let w = quantize_packed(&pseudo(n * k, 31), n, k, PackBits::Int8, 16);
        let x = pseudo(m * k, 32);
        let mut out = vec![f32::NAN; m * n];
        qgemm_t_into(&x, m, &w, &mut out);
        assert_bit_identical(&out, &qgemm_t(&x, m, &w));
    }

    #[test]
    fn long_groups_are_chunked_in_order() {
        // group (512) > TILE_K (128): exercises the in-group k-chunking
        // path.
        let (n, k) = (16, 512);
        let w = quantize_packed(&pseudo(n * k, 41), n, k, PackBits::Int8, 512);
        let x = pseudo(k, 42);
        assert_bit_identical(&qgemm_t(&x, 1, &w), &reference(&x, 1, &w));
    }

    #[test]
    fn empty_inputs_are_fine() {
        let w = quantize_packed(&pseudo(8 * 4, 51), 8, 4, PackBits::Int4, 4);
        assert!(qgemm_t(&[], 0, &w).is_empty());
    }
}
