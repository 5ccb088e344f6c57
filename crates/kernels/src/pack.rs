//! Packed low-bit weight storage: group-wise int8 and nibble-packed
//! int4/int3 with per-group scales and zero points.
//!
//! ## Layout
//!
//! A [`PackedMatrix`] stores an `(out_features × in_features)` weight as
//! **lane-interleaved panels**. A panel is `LANES = 16` consecutive
//! output features (the last panel is padded with grid zeros at scale 0)
//! — one 512-bit vector of `f32` accumulators, or two 256-bit ones —
//! stored k-major / lane-minor, so the bytes the fused kernel needs for
//! one k-step of all sixteen lanes are adjacent and converting them is
//! "load 32 bytes, widen, convert, scale" — whole vectors, no cross-lane
//! move:
//!
//! ```text
//! int8     panel p, k-step k, lane l  →  byte (p·K + k)·16 + l
//!
//!          | k=0: l0 l1 … l15 | k=1: l0 l1 … l15 | k=2: … |    1 byte / weight
//!
//! int4/3   panel p, unit u = k / 4 (32 bytes, 4 k-steps × 16 lanes):
//!          byte b of the unit holds value b      in its low nibble
//!                              and value b + 32  in its high nibble,
//!          where value v of a unit is (k-step 4u + v / 16, lane v % 16)
//!
//!          lo: | k=4u: l0 … l15 | k=4u+1: l0 … l15 |             1 byte / 2 weights
//!          hi: | k=4u+2: l0 … l15 | k=4u+3: l0 … l15 |
//!
//!          so `b & 0x0F` over the 32 bytes is k-steps 4u, 4u+1 and
//!          `b >> 4` is k-steps 4u+2, 4u+3, each already in tile order.
//!          K is padded to a multiple of 4 with grid zeros.
//! scales   `[panel][group][lane]`, one f32 per (row, group)
//! zeros    `[panel][group][lane]`, one i8  per (row, group)
//! ```
//!
//! The layout is private to this crate: everything outside addresses a
//! weight by `(row, col)` through [`PackedMatrix::get_q`],
//! [`PackedMatrix::scale`], [`PackedMatrix::zero`] and
//! [`PackedMatrix::unpack`]. A serialized matrix carries its panel width
//! (`lanes`; absent means 8, the width before the field existed) and the
//! kernels refuse one laid out at another width: when `rows` is a
//! multiple of both widths every buffer has the same length under
//! either, so the lengths alone cannot tell.
//!
//! Each row is divided into `ceil(cols / group)` groups of `group`
//! consecutive `k` positions (the last group may be short). A stored
//! grid value `q` dequantizes as `((q − zero) as f32) * scale`; the
//! symmetric packers set every zero point to 0, which makes the
//! dequantized value bit-identical to the repo's row-wise
//! `quantize→dequantize` reference (`q as f32 * scale` — the i8→i32→f32
//! and i8→f32 conversions are both exact).
//!
//! Int3 shares the nibble layout with int4 (a 3-bit value fits in a
//! nibble); it spends 4 payload bits per weight instead of the ideal 3,
//! a deliberate trade for byte-aligned, branch-free unpacking.

use serde::{Deserialize, Serialize};

/// Default quantization group length along `k` (input features).
///
/// 64 keeps per-group metadata (4 B scale + 1 B zero) under 2 % of an
/// int4 group's payload while the group's packed bytes (32) still fit
/// in a single cache line.
pub const DEFAULT_GROUP: usize = 64;

/// Integer grids the packed format supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PackBits {
    /// 3-bit symmetric grid, stored in a nibble.
    Int3,
    /// 4-bit symmetric grid, two weights per byte.
    Int4,
    /// 8-bit symmetric grid, one byte per weight.
    Int8,
}

impl PackBits {
    /// Largest representable magnitude on the signed grid.
    pub fn qmax(self) -> i32 {
        match self {
            PackBits::Int3 => 3,
            PackBits::Int4 => 7,
            PackBits::Int8 => 127,
        }
    }

    /// Nominal bits per weight of the *grid* (3, 4, 8).
    pub fn bits(self) -> u32 {
        match self {
            PackBits::Int3 => 3,
            PackBits::Int4 => 4,
            PackBits::Int8 => 8,
        }
    }

    /// Whether the payload is nibble-packed (two weights per byte).
    pub fn is_nibble(self) -> bool {
        matches!(self, PackBits::Int3 | PackBits::Int4)
    }
}

impl std::fmt::Display for PackBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackBits::Int3 => write!(f, "int3"),
            PackBits::Int4 => write!(f, "int4"),
            PackBits::Int8 => write!(f, "int8"),
        }
    }
}

/// Output features per panel: the sixteen independent accumulator
/// chains the fused kernel keeps per activation row — one 512-bit vector
/// or two 256-bit ones.
pub(crate) const LANES: usize = 16;

/// Panel width of a serialized matrix that does not say: what `LANES`
/// was before the `lanes` field existed.
fn lanes_before_the_field() -> usize {
    8
}

/// k-steps per nibble unit.
pub(crate) const UNIT_K: usize = 4;

/// Bytes per nibble unit: `UNIT_K × LANES` values at two per byte.
pub(crate) const UNIT_BYTES: usize = UNIT_K * LANES / 2;

/// Bias added when storing a signed nibble value: `q ∈ [-8, 7]` maps to
/// `u = q + 8 ∈ [0, 15]`.
pub(crate) const NIBBLE_BIAS: u8 = 8;

/// A weight matrix stored on its integer grid: packed payload plus
/// per-group scales and zero points. See the module docs for layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedMatrix {
    /// Output features (rows of the logical `(out, in)` matrix).
    pub rows: usize,
    /// Input features (the GEMM reduction length `k`).
    pub cols: usize,
    /// Grid precision of the payload.
    pub bits: PackBits,
    /// Group length along `k`; the last group of a row may be short.
    pub group: usize,
    /// Panel width the buffers below are laid out at: `LANES` for every
    /// matrix this build constructs.
    #[serde(default = "lanes_before_the_field")]
    lanes: usize,
    /// Packed payload, one run per panel (see module docs).
    payload: Vec<u8>,
    /// One scale per `(row, group)`, `[panel][group][lane]`.
    scales: Vec<f32>,
    /// One zero point per `(row, group)`, `[panel][group][lane]`. All
    /// zero for the symmetric packers.
    zeros: Vec<i8>,
}

impl PackedMatrix {
    /// Number of groups along one row.
    pub fn groups_per_row(&self) -> usize {
        self.cols.div_ceil(self.group)
    }

    /// Pack raw grid values with explicit per-group scales and zeros.
    ///
    /// `q` is row-major `rows × cols` on the signed grid of `bits`;
    /// `scales`/`zeros` are row-major `rows × ceil(cols/group)`.
    pub fn from_i8(
        rows: usize,
        cols: usize,
        bits: PackBits,
        group: usize,
        q: &[i8],
        scales: &[f32],
        zeros: &[i8],
    ) -> Self {
        assert!(group > 0, "group must be at least 1");
        assert_eq!(q.len(), rows * cols, "grid shape mismatch");
        let gpr = cols.div_ceil(group);
        assert_eq!(scales.len(), rows * gpr, "one scale per (row, group)");
        assert_eq!(zeros.len(), rows * gpr, "one zero per (row, group)");
        let qmax = bits.qmax();
        if bits.is_nibble() {
            for &v in q {
                assert!((v as i32).abs() <= qmax, "value {v} off the {bits} grid");
            }
        } else {
            debug_assert!(q.iter().all(|&v| (v as i32).abs() <= qmax), "value off the int8 grid");
        }
        // Grid value at `(r, c)`; the padding rows and k-steps hold 0.
        let at = |r: usize, c: usize| if r < rows && c < cols { q[r * cols + c] } else { 0 };
        let panels = rows.div_ceil(LANES);
        let stride = panel_stride(cols, bits);
        let mut payload = vec![0u8; panels * stride];
        // (`cols == 0` makes the stride 0 and the payload empty.)
        for (p, dst) in payload.chunks_exact_mut(stride.max(1)).enumerate() {
            let r0 = p * LANES;
            match bits {
                PackBits::Int8 => {
                    for (c, step) in dst.chunks_exact_mut(LANES).enumerate() {
                        for (lane, d) in step.iter_mut().enumerate() {
                            *d = at(r0 + lane, c) as u8;
                        }
                    }
                }
                PackBits::Int3 | PackBits::Int4 => {
                    for (u, unit) in dst.chunks_exact_mut(UNIT_BYTES).enumerate() {
                        for (b, d) in unit.iter_mut().enumerate() {
                            let (r, c) = (r0 + b % LANES, u * UNIT_K + b / LANES);
                            let lo = (at(r, c) as u8).wrapping_add(NIBBLE_BIAS);
                            let hi = (at(r, c + UNIT_K / 2) as u8).wrapping_add(NIBBLE_BIAS);
                            *d = (lo & 0x0F) | (hi << 4);
                        }
                    }
                }
            }
        }
        let mut panel_scales = vec![0.0f32; panels * gpr * LANES];
        let mut panel_zeros = vec![0i8; panels * gpr * LANES];
        for r in 0..rows {
            for g in 0..gpr {
                let i = meta_index(r, g, gpr);
                panel_scales[i] = scales[r * gpr + g];
                panel_zeros[i] = zeros[r * gpr + g];
            }
        }
        Self { rows, cols, bits, group, lanes: LANES, payload, scales: panel_scales, zeros: panel_zeros }
    }

    /// Pack raw grid values that carry one scale per *row* (the repo's
    /// symmetric per-output-channel quantizer): the row scale is
    /// replicated into every group and all zero points are 0, so
    /// `unpack()` reproduces the row-wise dequantization bit-for-bit.
    pub fn from_rowwise(
        rows: usize,
        cols: usize,
        bits: PackBits,
        group: usize,
        q: &[i8],
        row_scales: &[f32],
    ) -> Self {
        assert_eq!(row_scales.len(), rows, "one scale per row");
        let gpr = cols.div_ceil(group);
        let mut scales = Vec::with_capacity(rows * gpr);
        for &s in row_scales {
            scales.extend(std::iter::repeat_n(s, gpr));
        }
        let zeros = vec![0i8; rows * gpr];
        Self::from_i8(rows, cols, bits, group, q, &scales, &zeros)
    }

    /// Raw grid value at `(r, c)`.
    pub fn get_q(&self, r: usize, c: usize) -> i8 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let panel = self.panel(r / LANES);
        let lane = r % LANES;
        match self.bits {
            PackBits::Int8 => panel[c * LANES + lane] as i8,
            PackBits::Int3 | PackBits::Int4 => {
                let step = c % UNIT_K;
                let byte = panel[c / UNIT_K * UNIT_BYTES + step % (UNIT_K / 2) * LANES + lane];
                let u = if step < UNIT_K / 2 { byte & 0x0F } else { byte >> 4 };
                u.wrapping_sub(NIBBLE_BIAS) as i8
            }
        }
    }

    /// Scale of `(row, group)`.
    pub fn scale(&self, r: usize, g: usize) -> f32 {
        self.scales[self.meta_index(r, g)]
    }

    /// Zero point of `(row, group)`.
    pub fn zero(&self, r: usize, g: usize) -> i8 {
        self.zeros[self.meta_index(r, g)]
    }

    /// Dequantized value at `(r, c)`: `((q − zero) as f32) * scale`.
    pub fn dequant(&self, r: usize, c: usize) -> f32 {
        let g = c / self.group;
        ((self.get_q(r, c) as i32 - self.zero(r, g) as i32) as f32) * self.scale(r, g)
    }

    /// Dequantize the whole matrix to row-major `f32`, value-identical
    /// to what the fused GEMM multiplies against.
    pub fn unpack(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            let row = &mut out[r * self.cols..(r + 1) * self.cols];
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = self.dequant(r, c);
            }
        }
        out
    }

    /// Resident bytes of this matrix: payload + scales + zeros, padding
    /// of the last panel (at most `LANES − 1` rows) included.
    pub fn resident_bytes(&self) -> usize {
        self.payload.len() + self.scales.len() * 4 + self.zeros.len()
    }

    /// Bytes the same matrix occupies dequantized to `f32` — what the
    /// pre-kernel runtime actually kept resident.
    pub fn f32_bytes(&self) -> usize {
        self.rows * self.cols * 4
    }

    /// Panic unless the buffers are laid out at this build's panel width
    /// and every one has the length the public shape fields imply. The
    /// constructors guarantee it; a deserialized matrix (the fields are
    /// public and the type derives `Deserialize`) need not, and the
    /// kernels index by shape.
    pub(crate) fn check_shape(&self) {
        assert!(self.group > 0, "packed weight shape mismatch: group is 0");
        assert!(
            self.lanes == LANES,
            "packed weight shape mismatch: laid out in panels of {}, the kernels read panels of {LANES}",
            self.lanes,
        );
        let panels = self.rows.div_ceil(LANES);
        let fields = [
            ("payload", self.payload.len(), panel_stride(self.cols, self.bits)),
            ("scales", self.scales.len(), self.groups_per_row() * LANES),
            ("zeros", self.zeros.len(), self.groups_per_row() * LANES),
        ];
        for (field, len, per_panel) in fields {
            assert!(
                panels.checked_mul(per_panel) == Some(len),
                "packed weight shape mismatch: {field} holds {len}, {}×{} {} in groups of {} needs {panels} panels of {per_panel}",
                self.rows,
                self.cols,
                self.bits,
                self.group,
            );
        }
    }

    /// Payload of panel `p`: output features `[LANES·p, LANES·(p + 1))`.
    #[inline(always)]
    pub(crate) fn panel(&self, p: usize) -> &[u8] {
        let stride = panel_stride(self.cols, self.bits);
        &self.payload[p * stride..][..stride]
    }

    /// Per-lane scales and zero points of panel `p` in group `g`.
    #[inline(always)]
    pub(crate) fn panel_meta(&self, p: usize, g: usize) -> (&[f32; LANES], &[i8; LANES]) {
        let i = (p * self.groups_per_row() + g) * LANES;
        let scales = self.scales[i..].first_chunk().expect("one scale per lane");
        let zeros = self.zeros[i..].first_chunk().expect("one zero per lane");
        (scales, zeros)
    }

    fn meta_index(&self, r: usize, g: usize) -> usize {
        let gpr = self.groups_per_row();
        assert!(r < self.rows && g < gpr, "index out of bounds");
        meta_index(r, g, gpr)
    }
}

/// Payload bytes per panel.
fn panel_stride(cols: usize, bits: PackBits) -> usize {
    match bits {
        PackBits::Int8 => cols * LANES,
        PackBits::Int3 | PackBits::Int4 => cols.div_ceil(UNIT_K) * UNIT_BYTES,
    }
}

/// Index of `(row, group)` in the `[panel][group][lane]` metadata.
fn meta_index(r: usize, g: usize, gpr: usize) -> usize {
    (r / LANES * gpr + g) * LANES + r % LANES
}

/// Quantize a row-major `f32` matrix directly to the packed format with
/// *native group-wise* scales: each `(row, group)` gets `absmax/qmax`
/// (zero point 0), round-to-nearest onto the grid.
///
/// This is the standalone entry the benches and property tests use; the
/// model path instead packs the output of the repo's row-wise quantizer
/// via [`PackedMatrix::from_rowwise`] to preserve its exact numerics.
pub fn quantize_packed(data: &[f32], rows: usize, cols: usize, bits: PackBits, group: usize) -> PackedMatrix {
    assert_eq!(data.len(), rows * cols, "shape mismatch");
    assert!(group > 0, "group must be at least 1");
    let qmax = bits.qmax() as f32;
    let gpr = cols.div_ceil(group);
    let mut q = vec![0i8; rows * cols];
    let mut scales = vec![0.0f32; rows * gpr];
    for r in 0..rows {
        let src = &data[r * cols..(r + 1) * cols];
        for g in 0..gpr {
            let lo = g * group;
            let hi = (lo + group).min(cols);
            let absmax = src[lo..hi].iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let s = if absmax == 0.0 { 1.0 } else { absmax / qmax };
            scales[r * gpr + g] = s;
            for c in lo..hi {
                q[r * cols + c] = (src[c] / s).round().clamp(-qmax, qmax) as i8;
            }
        }
    }
    let zeros = vec![0i8; rows * gpr];
    PackedMatrix::from_i8(rows, cols, bits, group, &q, &scales, &zeros)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(rows: usize, cols: usize, qmax: i32, seed: u64) -> Vec<i8> {
        // Simple splitmix-style generator; no rand dependency down here.
        let mut s = seed;
        (0..rows * cols)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (((s >> 33) as i64 % (2 * qmax as i64 + 1)) - qmax as i64) as i8
            })
            .collect()
    }

    #[test]
    fn int8_round_trip_exact() {
        let q = grid(5, 37, 127, 1);
        let scales: Vec<f32> = (0..5).map(|r| 0.01 + r as f32 * 0.003).collect();
        let p = PackedMatrix::from_rowwise(5, 37, PackBits::Int8, 16, &q, &scales);
        for r in 0..5 {
            for c in 0..37 {
                assert_eq!(p.get_q(r, c), q[r * 37 + c]);
                let want = q[r * 37 + c] as f32 * scales[r];
                assert_eq!(p.dequant(r, c).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn int4_round_trip_odd_cols() {
        let q = grid(3, 9, 7, 2);
        let scales = vec![0.02f32; 3];
        let p = PackedMatrix::from_rowwise(3, 9, PackBits::Int4, 4, &q, &scales);
        assert_eq!(p.payload.len(), 3 * UNIT_BYTES, "one panel of three 4-step units");
        for r in 0..3 {
            for c in 0..9 {
                assert_eq!(p.get_q(r, c), q[r * 9 + c], "({r},{c})");
            }
        }
    }

    #[test]
    fn int3_shares_nibble_layout() {
        let q = grid(2, 7, 3, 3);
        let p = PackedMatrix::from_rowwise(2, 7, PackBits::Int3, 3, &q, &[0.1, 0.2]);
        assert_eq!(p.payload.len(), 2 * UNIT_BYTES);
        for r in 0..2 {
            for c in 0..7 {
                assert_eq!(p.get_q(r, c), q[r * 7 + c]);
            }
        }
    }

    #[test]
    fn resident_bytes_scale_with_bits() {
        let q8 = grid(64, 128, 127, 4);
        let q4 = grid(64, 128, 7, 4);
        let s = vec![0.01f32; 64];
        let p8 = PackedMatrix::from_rowwise(64, 128, PackBits::Int8, 64, &q8, &s);
        let p4 = PackedMatrix::from_rowwise(64, 128, PackBits::Int4, 64, &q4, &s);
        assert_eq!(p8.payload.len(), 64 * 128);
        assert_eq!(p4.payload.len(), 64 * 64);
        assert!(p8.resident_bytes() < p8.f32_bytes() / 3);
        // ~4 bits/weight payload + per-group scale/zero metadata lands
        // just above f32/7 at group 64; f32/6 is the honest bound.
        assert!(p4.resident_bytes() < p4.f32_bytes() / 6);
        assert!(p4.resident_bytes() < p8.resident_bytes() * 6 / 10);
    }

    #[test]
    fn native_groupwise_quantization_bounds_error() {
        let data: Vec<f32> = (0..6 * 50).map(|i| ((i * 37 % 101) as f32 - 50.0) / 50.0).collect();
        for bits in [PackBits::Int3, PackBits::Int4, PackBits::Int8] {
            let p = quantize_packed(&data, 6, 50, bits, 16);
            let dq = p.unpack();
            for r in 0..6 {
                for c in 0..50 {
                    let s = p.scale(r, c / 16);
                    let err = (data[r * 50 + c] - dq[r * 50 + c]).abs();
                    assert!(err <= s * 0.5 + 1e-6, "{bits} ({r},{c}): {err} > {}", s * 0.5);
                }
            }
        }
    }

    #[test]
    fn groupwise_scales_tighter_than_rowwise() {
        // A row with one huge group and one tiny group: group-wise scales
        // give the tiny group a finer grid.
        let mut data = vec![0.0f32; 64];
        for (i, v) in data.iter_mut().enumerate() {
            *v = if i < 32 { 10.0 } else { 0.01 } * ((i % 5) as f32 - 2.0);
        }
        let p = quantize_packed(&data, 1, 64, PackBits::Int4, 32);
        assert!(p.scale(0, 1) < p.scale(0, 0) / 100.0);
    }

    #[test]
    #[should_panic(expected = "off the int4 grid")]
    fn rejects_values_off_grid() {
        PackedMatrix::from_rowwise(1, 2, PackBits::Int4, 2, &[8, 0], &[1.0]);
    }

    #[test]
    fn zero_points_shift_dequant() {
        let p = PackedMatrix::from_i8(1, 2, PackBits::Int4, 2, &[1, 3], &[0.5], &[1]);
        assert_eq!(p.dequant(0, 0), 0.0);
        assert_eq!(p.dequant(0, 1), 1.0);
    }

    #[test]
    fn padding_holds_grid_zero_at_scale_zero() {
        // Three rows more than a panel → a second panel with `LANES − 3`
        // padded lanes; 9 cols → a third nibble unit with 3 padded k-steps.
        let (rows, live) = (LANES + 3, 3);
        let q = grid(rows, 9, 7, 5);
        let p = PackedMatrix::from_rowwise(rows, 9, PackBits::Int4, 4, &q, &vec![0.3f32; rows]);
        let panel = p.panel(1);
        for (u, unit) in panel.chunks_exact(UNIT_BYTES).enumerate() {
            for (b, &byte) in unit.iter().enumerate() {
                let (lane, step) = (b % LANES, u * UNIT_K + b / LANES);
                if lane >= live || step >= 9 {
                    assert_eq!(byte & 0x0F, NIBBLE_BIAS, "unit {u} byte {b} low nibble");
                }
                if lane >= live || step + UNIT_K / 2 >= 9 {
                    assert_eq!(byte >> 4, NIBBLE_BIAS, "unit {u} byte {b} high nibble");
                }
            }
        }
        for g in 0..p.groups_per_row() {
            let (scales, zeros) = p.panel_meta(1, g);
            assert!(scales[live..].iter().all(|&s| s == 0.0) && zeros[live..].iter().all(|&z| z == 0));
        }
        let p8 = PackedMatrix::from_rowwise(rows, 9, PackBits::Int8, 4, &q, &vec![0.3f32; rows]);
        for step in p8.panel(1).chunks_exact(LANES) {
            assert!(step[live..].iter().all(|&b| b == 0));
        }
    }
}
