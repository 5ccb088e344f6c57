//! Blocked fused dequant-GEMM over [`PackedMatrix`] (and dense) weights.
//!
//! [`qgemm_t`] computes `out = x · wᵀ` for an activation block `x`
//! (`m × k`, row-major) against a packed weight (`n × k`, i.e. the
//! `(out_features, in_features)` orientation of the repo's `matmul_t`).
//! The weight is never materialized as `f32` in memory: one small tile
//! at a time is dequantized into an L1-resident scratch buffer, and that
//! staged tile is then multiplied against *every* activation row of the
//! block before the next tile is touched. Unpack-and-scale is therefore
//! paid once per weight per 64-row block, not once per weight per row,
//! which is what separates compute-bound prefill from memory-bound
//! decode. [`gemm_t`] is the same kernel over a dense `f32` weight, with
//! a transposing copy as the tile fill.
//!
//! ## Loop structure
//!
//! ```text
//! par over row blocks of ≤ ROW_BLOCK = 64 activation rows (disjoint chunks of out)
//!   dispatch: the AVX2 or the baseline instantiation of `row_block`
//!   scratch: PANELS tiles of TILE_K × LANES f32 (4 KB each), the block's accumulators
//!   for each panel of LANES = 8 output features        ← one f32x8 of accumulators per row
//!     acc[rows][LANES] = 0                             ← block-local, carried between k-tiles
//!     for each k-tile: one quant group, or TILE_K = 128 steps of a longer one
//!       fill: tile[kk][lane] = ((q − z) as f32) * s    ← ONCE, 16 weights per step
//!       for each register block of MR = 4 rows (then the m % 4 tail, one row each):
//!         reg[MR][LANES] = acc[rows]
//!         for kk in tile:                              ← sequential k
//!           for r, lane: reg[r][lane] += x[r][kk] * tile[kk][lane]
//!         acc[rows] = reg
//!     out[rows][panel's lanes below n] = acc
//! ```
//!
//! There is one such kernel for every `m`. The `MR × LANES` accumulators
//! are *independent outputs*, which is what lets the CPU overlap f32 add
//! latency — parallelism is never introduced within a single output's
//! reduction. A block of fewer than `MR` rows (decode, `m == 1`) would
//! leave a single add chain per vector, so it swaps the roles: `PANELS = 4`
//! adjacent panels are filled together and each row sweeps all four
//! tiles at once — the same register block turned on its side, the same
//! ascending-k chain per output.
//!
//! ## The fill is whole vectors
//!
//! [`PackedMatrix`] stores each panel k-major / lane-minor (see
//! [`crate::pack`]), so the 16 payload bytes of two k-steps are adjacent
//! and in tile order, and the per-lane scale and zero point repeat with
//! period 8. `dequant16` is therefore a fixed-size `[u8; 16] → [f32; 16]`
//! body — widen, subtract, convert, multiply, store — that the compiler
//! turns into straight vector code with no cross-lane move. Nibble
//! precisions first unpack the tile's 16-byte units (4 k-steps each) with
//! `b & 0x0F` / `b >> 4` over whole bytes into a byte scratch that has
//! int8's shape, then run the same convert. A panel that reaches past `n`
//! is padded in the weight (grid 0, scale 0) and only its valid lanes are
//! copied out of the accumulators, so there is no narrow tail
//! instantiation.
//!
//! ## Two instantiations of one body
//!
//! `row_block` is safe, intrinsic-free generic Rust, run per row block
//! through the crate's one ISA dispatch ([`crate::dispatch`]): compiled
//! once for the build's baseline ISA and once at 256-bit width, chosen by
//! run-time feature detection. [`crate::isa`] reports the choice.
//!
//! ## Rows that live elsewhere
//!
//! The dense tile source takes its weight rows from an accessor
//! (`j ↦ &[f32]` of length `k`), activations and outputs carry a row
//! stride, and a source may declare its outputs causal (row `i` of the
//! block reads only outputs `j ≤ past + i`; panels no row reads are not
//! staged or swept). That is all QKᵀ of attention needs to be this
//! kernel with the cached keys as the weight, read where they live — a
//! contiguous cache, one head's column slice of it, or a paged block
//! chain ([`mod@crate::attention`]).
//!
//! ## Bit-exactness
//!
//! For every output `(i, j)` the accumulation is `acc += x[i][k] * w[j][k]`
//! for `k = 0, 1, …` from `acc = 0`, where `w[j][k] = ((q − z) as f32) * s`
//! — exactly the roundings of dequantizing the whole matrix first and
//! running the scalar ascending-k dot product. Tiling changes only *when*
//! a dequantized value is produced and where the running sum rests
//! between k-tiles (an `f32` store and reload of the same value), and
//! sweeping four panels together only interleaves distinct outputs.
//! Neither touches a bit pattern or the order terms enter a sum, so the
//! result is bit-identical for packed and dense weights alike, and row
//! `i` of an `m`-row call equals the one-row call on `x[i]` — which is
//! what lets serving chunk, batch and recompute prefill freely.
//!
//! Vector width does not change it either: lanes are distinct outputs,
//! every operation is an IEEE-754 single-precision multiply, add or exact
//! integer conversion, and FMA is not enabled, so no multiply-add is
//! contracted — the AVX2 and baseline instantiations agree `to_bits()`
//! for `to_bits()`.

use crate::dispatch::{dispatch, Body};
use crate::pack::{PackBits, PackedMatrix, LANES, NIBBLE_BIAS, UNIT_BYTES, UNIT_K};
use rayon::prelude::*;

/// Activation rows per register block: `MR × LANES` accumulators stay in
/// registers while one weight tile streams past them.
pub(crate) const MR: usize = 4;

/// k-steps per scratch tile (`TILE_K × LANES` f32 = 4 KB, L1-resident).
/// A quant group longer than this is swept in `TILE_K` pieces, still in
/// ascending k.
const TILE_K: usize = 128;

/// Panels swept together when a block has fewer than `MR` rows.
pub(crate) const PANELS: usize = 4;

/// Activation rows per parallel chunk of `out`.
pub(crate) const ROW_BLOCK: usize = 64;

/// Values one [`dequant16`] call stages: two k-steps of a panel.
const PAIR: usize = 2 * LANES;

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
    gemm_blocked(x, m, w, out, true);
}

/// Dense `out = x · wᵀ` through the same blocked kernel: `w` is `n × k`
/// row-major `f32`, and the tile fill is a plain transpose (an identity
/// dequant). Bit-identical to the scalar ascending-k dot product per
/// output.
pub fn gemm_t(x: &[f32], m: usize, w: &[f32], n: usize, k: usize) -> Vec<f32> {
    assert_eq!(w.len(), n * k, "weight shape mismatch");
    let mut out = vec![0.0f32; m * n];
    gemm_blocked(x, m, &DenseWeight { row: |j| &w[j * k..][..k], n, k, causal_past: None }, &mut out, true);
    out
}

/// What the blocked kernel needs from a weight: its shape, the k-spans
/// that share dequant state, and a way to stage a tile as `f32`.
pub(crate) trait TileSource {
    /// Output features.
    fn n(&self) -> usize;
    /// Reduction length.
    fn k(&self) -> usize;
    /// A tile never straddles a multiple of this k-span.
    fn group(&self) -> usize;
    /// The first row of the block that reads output `j`: rows below it
    /// are not computed for `j` or any later output, so it must not
    /// decrease with `j`. `0` for a weight matrix.
    fn first_row(&self, _j: usize) -> usize {
        0
    }
    /// Stage `w[panel * LANES + lane][k_lo + kk]` at `tile[kk * LANES + lane]`
    /// for the `tile.len() / LANES ≤ TILE_K` k-steps from `k_lo`, all
    /// inside one group. What lanes past `n` stage does not matter: their
    /// outputs are discarded. `grid` is byte scratch for the nibble
    /// precisions.
    fn fill(&self, panel: usize, k_lo: usize, tile: &mut [f32], grid: &mut GridScratch);
}

/// A nibble tile's units unpacked to biased grid bytes: one unit more
/// than `TILE_K` k-steps, for a tile that starts inside a unit.
type GridScratch = [u8; (TILE_K + UNIT_K) * LANES];

/// Per-row-block staging buffers, L1-resident. Cache-line aligned so
/// that no vector load of a tile straddles two lines.
#[repr(align(64))]
pub(crate) struct Scratch {
    /// Dequantized tiles, one per panel swept together.
    tiles: [[f32; TILE_K * LANES]; PANELS],
    /// The block's accumulators for the panels in flight.
    acc: [f32; ROW_BLOCK * LANES],
    grid: GridScratch,
}

impl Scratch {
    #[inline(always)]
    pub(crate) fn new() -> Self {
        Self {
            tiles: [[0.0; TILE_K * LANES]; PANELS],
            acc: [0.0; ROW_BLOCK * LANES],
            grid: [0; (TILE_K + UNIT_K) * LANES],
        }
    }
}

/// Dense `f32` rows handed out by an accessor: `row(j)` is the `k`
/// weights of output `j`, wherever they live. With `causal_past = Some(p)`
/// the rows are cached keys and row `i` of the activation block reads
/// only outputs `j ≤ p + i`.
pub(crate) struct DenseWeight<F> {
    pub(crate) row: F,
    pub(crate) n: usize,
    pub(crate) k: usize,
    pub(crate) causal_past: Option<usize>,
}

impl<'a, F: Fn(usize) -> &'a [f32]> TileSource for DenseWeight<F> {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn group(&self) -> usize {
        TILE_K
    }

    #[inline(always)]
    fn first_row(&self, j: usize) -> usize {
        self.causal_past.map_or(0, |past| j.saturating_sub(past))
    }

    #[inline(always)]
    fn fill(&self, panel: usize, k_lo: usize, tile: &mut [f32], _grid: &mut GridScratch) {
        static ZEROS: [f32; TILE_K] = [0.0; TILE_K];
        let (steps, _) = tile.as_chunks_mut::<LANES>();
        let klen = steps.len();
        // Lanes past `n` stage zeros.
        let rows: [&[f32]; LANES] = std::array::from_fn(|lane| match panel * LANES + lane {
            j if j < self.n => &(self.row)(j)[k_lo..][..klen],
            _ => &ZEROS[..klen],
        });
        for (kk, step) in steps.iter_mut().enumerate() {
            *step = std::array::from_fn(|lane| rows[lane][kk]);
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

    #[inline(always)]
    fn fill(&self, panel: usize, k_lo: usize, tile: &mut [f32], grid: &mut GridScratch) {
        let klen = tile.len() / LANES;
        let (scales, zeros) = self.panel_meta(panel, k_lo / self.group);
        let payload = self.panel(panel);
        // The tile's grid values as bytes, k-major / lane-minor, and what
        // turns a byte into an unsigned `q + bias`: int8 payload bytes
        // flip their sign bit (bias 128), unpacked nibbles already carry
        // bias 8. Widening unsigned bytes is the cheap direction on
        // every ISA, and `(q + bias) − (z + bias)` is `q − z` exactly.
        let (flip, bias, bytes): (u8, i32, &[u8]) = match self.bits {
            PackBits::Int8 => (0x80, 0x80, &payload[k_lo * LANES..][..klen * LANES]),
            PackBits::Int3 | PackBits::Int4 => {
                // Every unit the tile touches is unpacked whole; a tile
                // that starts inside one (a group length that is not a
                // multiple of 4) skips the k-steps it does not own.
                let units = &payload.as_chunks::<UNIT_BYTES>().0[k_lo / UNIT_K..(k_lo + klen).div_ceil(UNIT_K)];
                for (unit, out) in units.iter().zip(grid.as_chunks_mut::<{ 2 * UNIT_BYTES }>().0) {
                    unpack_unit(*unit, out);
                }
                (0, NIBBLE_BIAS as i32, &grid[k_lo % UNIT_K * LANES..][..klen * LANES])
            }
        };
        // Per-(lane, group) dequant state, hoisted and laid out for two
        // k-steps at a time.
        let s: [f32; PAIR] = std::array::from_fn(|i| scales[i % LANES]);
        let z: [i32; PAIR] = std::array::from_fn(|i| zeros[i % LANES] as i32 + bias);
        let (pairs, last) = bytes.as_chunks::<PAIR>();
        let (tile_pairs, tile_last) = tile.as_chunks_mut::<PAIR>();
        for (q, t) in pairs.iter().zip(tile_pairs) {
            dequant16(*q, flip, &z, &s, t);
        }
        // Odd `klen`: one k-step left, staged through a padded pair.
        if !last.is_empty() {
            let mut q = [0u8; PAIR];
            q[..LANES].copy_from_slice(last);
            let mut t = [0.0f32; PAIR];
            dequant16(q, flip, &z, &s, &mut t);
            tile_last.copy_from_slice(&t[..LANES]);
        }
    }
}

/// One nibble unit to 32 biased grid bytes in tile order: the low
/// nibbles are its first two k-steps, the high nibbles its last two.
#[inline(always)]
fn unpack_unit(unit: [u8; UNIT_BYTES], out: &mut [u8; 2 * UNIT_BYTES]) {
    for i in 0..UNIT_BYTES {
        out[i] = unit[i] & 0x0F;
        out[UNIT_BYTES + i] = unit[i] >> 4;
    }
}

/// Two k-steps of a panel: `((q − z) as f32) * s` per value, with `q ^
/// flip` the biased grid byte and `z` carrying the same bias. Fixed-size,
/// and `q` by value so that all sixteen loads precede the first store
/// (the payload may alias `out` as far as the optimiser can tell once
/// this is inlined): that is what compiles it to whole-vector code.
#[inline(always)]
fn dequant16(q: [u8; PAIR], flip: u8, z: &[i32; PAIR], s: &[f32; PAIR], out: &mut [f32; PAIR]) {
    for i in 0..PAIR {
        out[i] = (((q[i] ^ flip) as i32 - z[i]) as f32) * s[i];
    }
}

/// The one accumulation kernel: every `m`, packed or dense.
/// `allow_avx2` is `true` outside the tests that pin the baseline
/// instantiation to compare the two.
fn gemm_blocked<W: TileSource + Sync>(x: &[f32], m: usize, w: &W, out: &mut [f32], allow_avx2: bool) {
    let (n, k) = (w.n(), w.k());
    assert_eq!(x.len(), m * k, "activation shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    out.par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(|(b, out)| {
        dispatch(allow_avx2, GemmBlock { x: &x[b * ROW_BLOCK * k..], w, out });
    });
}

/// One row block of a GEMM: `out` is its `rows × n` outputs, `x` starts
/// at its first activation row.
struct GemmBlock<'a, W> {
    x: &'a [f32],
    w: &'a W,
    out: &'a mut [f32],
}

impl<W: TileSource> Body for GemmBlock<'_, W> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let (n, k) = (self.w.n(), self.w.k());
        row_block(self.x, k, self.w, self.out, n, self.out.len() / n, &mut Scratch::new());
    }
}

/// One block of `rows ≤ ROW_BLOCK` activation rows against every panel:
/// `out[i * ldo + j] = Σ_k x[i * ldx + k] · w[j][k]` for `j < n` and the
/// rows `i ≥ w.first_row(j)`; other outputs are left as they were.
#[inline(always)]
pub(crate) fn row_block<W: TileSource>(
    x: &[f32],
    ldx: usize,
    w: &W,
    out: &mut [f32],
    ldo: usize,
    rows: usize,
    scratch: &mut Scratch,
) {
    let n = w.n();
    let mut j = 0;
    // The register block is `MR` rows of one panel. A block with fewer
    // rows than that (decode) would leave one add chain per vector, so
    // it takes one row of `PANELS` panels instead: as many independent
    // chains, and every output still sums in ascending k.
    if rows < MR {
        while j + PANELS * LANES <= n {
            lane_panels::<1, PANELS, W>(x, ldx, w, j, out, ldo, rows, scratch);
            j += PANELS * LANES;
        }
    }
    // The last panel may reach past `n`; only its valid lanes exist in `out`.
    while j < n {
        lane_panels::<MR, 1, W>(x, ldx, w, j, out, ldo, rows, scratch);
        j += LANES;
    }
}

/// Outputs `[j, j + P * LANES)` (those below `n`) of every row in the
/// block that reads them, `P` adjacent panels: stage each weight tile
/// once, then sweep it over the rows `R` at a time.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lane_panels<const R: usize, const P: usize, W: TileSource>(
    x: &[f32],
    ldx: usize,
    w: &W,
    j: usize,
    out: &mut [f32],
    ldo: usize,
    rows: usize,
    scratch: &mut Scratch,
) {
    let (n, k, group) = (w.n(), w.k(), w.group());
    let first = w.first_row(j);
    if first >= rows {
        return;
    }
    // Row `i`'s accumulators, carried here between k-tiles.
    let width = P * LANES;
    let acc = &mut scratch.acc[..rows * width];
    acc[first * width..].fill(0.0);
    let mut k_lo = 0;
    while k_lo < k {
        let k_hi = (k_lo + TILE_K).min((k_lo / group + 1) * group).min(k);
        let len = (k_hi - k_lo) * LANES;
        for p in 0..P {
            w.fill(j / LANES + p, k_lo, &mut scratch.tiles[p][..len], &mut scratch.grid);
        }
        let tiles: [&[f32]; P] = std::array::from_fn(|p| &scratch.tiles[p][..len]);
        let mut i = first;
        while i + R <= rows {
            mac_rows::<R, P>(&x[i * ldx + k_lo..], ldx, tiles, &mut acc[i * width..]);
            i += R;
        }
        // Row tail: one-row blocks.
        while i < rows {
            mac_rows::<1, P>(&x[i * ldx + k_lo..], ldx, tiles, &mut acc[i * width..]);
            i += 1;
        }
        k_lo = k_hi;
    }
    let valid = width.min(n - j);
    for (i, arow) in acc.chunks_exact(width).enumerate().skip(first) {
        out[i * ldo + j..][..valid].copy_from_slice(&arow[..valid]);
    }
}

/// `R × P × LANES` register block over `P` staged tiles: ascending k,
/// one independent chain per (row, panel, lane), carried in `acc`
/// (`R` rows of `P * LANES`) between tiles. Row `r` reads `x[r * ldx..]`.
#[inline(always)]
pub(crate) fn mac_rows<const R: usize, const P: usize>(x: &[f32], ldx: usize, tiles: [&[f32]; P], acc: &mut [f32]) {
    let klen = tiles[0].len() / LANES;
    let tiles: [&[[f32; LANES]]; P] = tiles.map(|t| &t.as_chunks().0[..klen]);
    let xr: [&[f32]; R] = std::array::from_fn(|r| &x[r * ldx..][..klen]);
    let (rows, _) = acc.as_chunks_mut::<LANES>();
    let mut reg: [[[f32; LANES]; P]; R] = std::array::from_fn(|r| std::array::from_fn(|p| rows[r * P + p]));
    for kk in 0..klen {
        for r in 0..R {
            let xv = xr[r][kk];
            for p in 0..P {
                for lane in 0..LANES {
                    reg[r][p][lane] += xv * tiles[p][kk][lane];
                }
            }
        }
    }
    for r in 0..R {
        for p in 0..P {
            rows[r * P + p] = reg[r][p];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::quantize_packed;
    use crate::testutil::{assert_bit_identical, avx2_or_note, pseudo};
    use proptest::prelude::*;

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

    /// The whole GEMM with the baseline instantiation pinned, or not.
    fn run<W: TileSource + Sync>(x: &[f32], m: usize, w: &W, allow_avx2: bool) -> Vec<f32> {
        let mut out = vec![f32::NAN; m * w.n()];
        gemm_blocked(x, m, w, &mut out, allow_avx2);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The two instantiations of `row_block` agree bit for bit, and
        /// with the scalar oracle: `m` crosses the register and row
        /// blocks, `n` leaves a partial panel, `k` is odd, and the groups
        /// include one that splits nibble units and one longer than a tile.
        #[test]
        fn avx2_and_baseline_instantiations_are_bit_identical(
            bits in prop_oneof![Just(PackBits::Int3), Just(PackBits::Int4), Just(PackBits::Int8)],
            m in 1usize..=70,
            panels in 0usize..6,
            tail in 1usize..8,
            half_k in 0usize..135,
            group_choice in 0usize..5,
            seed in 0u64..1000,
        ) {
            let (n, k) = (8 * panels + tail, 2 * half_k + 1);
            let data = pseudo(n * k, seed);
            let packed = quantize_packed(&data, n, k, bits, [3, 16, 64, 192, k][group_choice]);
            let dense = DenseWeight { row: |j| &data[j * k..][..k], n, k, causal_past: None };
            let x = pseudo(m * k, seed ^ 0x3C3C);
            let base_packed = run(&x, m, &packed, false);
            let base_dense = run(&x, m, &dense, false);
            assert_bit_identical(&base_packed, &reference(&x, m, &packed));
            if avx2_or_note() {
                assert_bit_identical(&run(&x, m, &packed, true), &base_packed);
                assert_bit_identical(&run(&x, m, &dense, true), &base_dense);
            }
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let w = quantize_packed(&pseudo(8 * 4, 51), 8, 4, PackBits::Int4, 4);
        assert!(qgemm_t(&[], 0, &w).is_empty());
    }
}
