//! Property tests for the packed-weight subsystem: pack/unpack identity
//! across odd shapes and group sizes, bit-exactness of the blocked
//! dequant-GEMM (packed and dense) against the scalar
//! dequantize-then-`matmul_t` reference, and its defined behaviour on
//! numeric edge cases.

use llmpq_kernels::dispatch::with_cap;
use llmpq_kernels::{gemm_t, qgemm_t, qgemm_t_into, quantize_packed, DensePanels, Isa, PackBits, PackedMatrix};
use proptest::prelude::*;

fn any_pack_bits() -> impl Strategy<Value = PackBits> {
    prop_oneof![Just(PackBits::Int3), Just(PackBits::Int4), Just(PackBits::Int8)]
}

fn pseudo(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

fn pseudo_grid(n: usize, qmax: i32, seed: u64) -> Vec<i8> {
    let mut s = seed.wrapping_add(0xD1B54A32D192ED03);
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (((s >> 33) as i64 % (2 * qmax as i64 + 1)) - qmax as i64) as i8
        })
        .collect()
}

/// The repo's scalar `Matrix::matmul_t_scalar` accumulation over a dense
/// `n × k` weight: per output, ascending-k `acc = a.mul_add(b, acc)`.
fn scalar_matmul_t(x: &[f32], m: usize, w: &[f32], n: usize, k: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = x[i * k + kk].mul_add(w[j * k + kk], acc);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// [`scalar_matmul_t`] against a dequantized copy of the packed weight.
fn dequant_then_matmul_t(x: &[f32], m: usize, w: &PackedMatrix) -> Vec<f32> {
    scalar_matmul_t(x, m, &w.unpack(), w.rows, w.cols)
}

/// A packed matrix with random grid values over the whole grid and
/// random positive scales, one per `(row, group)` — not the absmax scales
/// of a quantizer, so that no group's scale follows from its values.
fn random_scales(n: usize, k: usize, bits: PackBits, group: usize, seed: u64) -> PackedMatrix {
    let gpr = k.div_ceil(group);
    let q = pseudo_grid(n * k, bits.qmax(), seed);
    let scales: Vec<f32> = pseudo(n * gpr, seed ^ 0xA1).iter().map(|v| v.abs() + 1e-3).collect();
    PackedMatrix::from_i8(n, k, bits, group, &q, &scales)
}

/// Group lengths the blocked kernel must cross cleanly for a given `k`:
/// tiny, sub-tile, the default, longer than the 128-step scratch tile,
/// and one group spanning the row. With odd `k` every fixed length
/// leaves a short last group.
fn group_for(choice: usize, k: usize) -> usize {
    [3, 16, 64, 192, k][choice]
}

/// Output features per storage panel. The layout is private to the crate;
/// the shapes below only need to land on either side of its multiples.
const PANEL: usize = 16;

/// NaN exactly where the reference is NaN, bit-equal everywhere else.
fn assert_same_or_both_nan(got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if w.is_nan() {
            assert!(g.is_nan(), "output {i}: reference is NaN, kernel gave {g}");
        } else {
            assert_eq!(g.to_bits(), w.to_bits(), "output {i}: {g} vs {w}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pack → unpack reproduces the row-wise quantizer's dequantization
    /// bit-for-bit, for every grid, odd shape, and group size.
    #[test]
    fn rowwise_round_trip_identity(
        bits in any_pack_bits(),
        rows in 1usize..12,
        cols in 1usize..70,
        group in 1usize..40,
        seed in 0u64..1000,
    ) {
        let q = pseudo_grid(rows * cols, bits.qmax(), seed);
        let scales = pseudo(rows, seed ^ 0xABCD).iter().map(|v| v.abs() + 1e-3).collect::<Vec<_>>();
        let p = PackedMatrix::from_rowwise(rows, cols, bits, group, &q, &scales);
        let dq = p.unpack();
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(p.get_q(r, c), q[r * cols + c], "grid value at ({}, {})", r, c);
                let want = q[r * cols + c] as f32 * scales[r];
                prop_assert_eq!(dq[r * cols + c].to_bits(), want.to_bits(),
                    "dequant at ({}, {})", r, c);
            }
        }
    }

    /// Pack → `get_q` / `scale` / `dequant` / `unpack` read back what
    /// went in, at `(row, col)` addresses, whatever the storage order: `n`
    /// leaves a padded last panel, odd `k` ends inside a nibble unit, the
    /// scales are random per group and of either sign, and the group set
    /// includes lengths that split units and one longer than a tile. A
    /// value dequantizes as `q as f32 * s`. The JSON form round-trips to
    /// an equal matrix, and the GEMM agrees with the reference on it.
    #[test]
    fn pack_round_trips_through_accessors_and_json(
        bits in any_pack_bits(),
        panels in 0usize..4,
        tail in 1usize..=PANEL,
        half_k in 0usize..40,
        group_choice in 0usize..5,
        seed in 0u64..1000,
    ) {
        let (n, k) = (PANEL * panels + tail, 2 * half_k + 1);
        let group = group_for(group_choice, k);
        let gpr = k.div_ceil(group);
        let q = pseudo_grid(n * k, bits.qmax(), seed);
        let scales: Vec<f32> = pseudo(n * gpr, seed ^ 0xA1).iter().map(|v| v + v.signum() * 1e-3).collect();
        let p = PackedMatrix::from_i8(n, k, bits, group, &q, &scales);
        prop_assert_eq!(p.groups_per_row(), gpr);
        let dq = p.unpack();
        prop_assert_eq!(dq.len(), n * k);
        for r in 0..n {
            for g in 0..gpr {
                prop_assert_eq!(p.scale(r, g).to_bits(), scales[r * gpr + g].to_bits(), "scale ({}, {})", r, g);
            }
            for c in 0..k {
                let g = c / group;
                prop_assert_eq!(p.get_q(r, c), q[r * k + c], "grid value at ({}, {})", r, c);
                let want = q[r * k + c] as f32 * scales[r * gpr + g];
                prop_assert_eq!(dq[r * k + c].to_bits(), want.to_bits(), "unpack at ({}, {})", r, c);
                prop_assert_eq!(p.dequant(r, c).to_bits(), want.to_bits(), "dequant at ({}, {})", r, c);
            }
        }
        let json = serde_json::to_string(&p).expect("serializable");
        let back: PackedMatrix = serde_json::from_str(&json).expect("deserializable");
        prop_assert_eq!(&back, &p);
        let x = pseudo(3 * k, seed ^ 0xC3);
        let (fused, reference) = (qgemm_t(&x, 3, &back), dequant_then_matmul_t(&x, 3, &p));
        for (f, r) in fused.iter().zip(&reference) {
            prop_assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    /// Fused qgemm_t is bit-identical to scalar dequantize-then-matmul_t
    /// on random matrices, across grids, shapes (including lane-tile
    /// tails), and group sizes.
    #[test]
    fn qgemm_bit_identical_to_scalar_reference(
        bits in any_pack_bits(),
        m in 1usize..5,
        n in 1usize..40,
        k in 1usize..50,
        group in 1usize..24,
        seed in 0u64..1000,
    ) {
        let w = quantize_packed(&pseudo(n * k, seed), n, k, bits, group);
        let x = pseudo(m * k, seed ^ 0x5151);
        let fused = qgemm_t(&x, m, &w);
        let reference = dequant_then_matmul_t(&x, m, &w);
        for (i, (f, r)) in fused.iter().zip(&reference).enumerate() {
            prop_assert_eq!(f.to_bits(), r.to_bits(), "output {}: {} vs {}", i, f, r);
        }
    }

    /// Blocks of fewer than four rows over a packed weight take the
    /// register-resident decode body, and this reaches all of it: scales
    /// are random per group, `n` runs to several multi-panel sweeps, then
    /// single panels, then a partial last one, `k` is odd or even, and
    /// the groups split payload loads (3), align with nibble units only
    /// (4), or run longer than a staged tile (192). `m` of 4 to 6 is the
    /// staged path on the same weights. Every output equals the scalar
    /// dequantize-then-dot product, and a row's outputs do not depend on
    /// the rows it shares the call with.
    #[test]
    fn random_scales_match_reference_through_both_bodies(
        bits in any_pack_bits(),
        m in 1usize..=6,
        n in 1usize..=220,
        k in 1usize..=200,
        group_choice in 0usize..6,
        seed in 0u64..1000,
    ) {
        let w = random_scales(n, k, bits, [3, 4, 16, 64, 192, k][group_choice], seed);
        let x = pseudo(m * k, seed ^ 0xC3);
        let fused = qgemm_t(&x, m, &w);
        let reference = dequant_then_matmul_t(&x, m, &w);
        for (i, (f, r)) in fused.iter().zip(&reference).enumerate() {
            prop_assert_eq!(f.to_bits(), r.to_bits(), "output {}: {} vs {}", i, f, r);
        }
        for i in 0..m {
            let alone = qgemm_t(&x[i * k..(i + 1) * k], 1, &w);
            for j in 0..n {
                prop_assert_eq!(fused[i * n + j].to_bits(), alone[j].to_bits(), "row {} output {}", i, j);
            }
        }
    }

    /// Odd `in_features` end inside a nibble unit; the padding k-steps
    /// must never leak into values, dequantization, or GEMM.
    #[test]
    fn nibble_odd_tail_is_inert(
        bits in prop_oneof![Just(PackBits::Int3), Just(PackBits::Int4)],
        n in 1usize..16,
        half_k in 0usize..20,
        group in 1usize..16,
        seed in 0u64..500,
    ) {
        let k = 2 * half_k + 1; // always odd
        let q = pseudo_grid(n * k, bits.qmax(), seed);
        let scales = vec![0.017f32; n];
        let p = PackedMatrix::from_rowwise(n, k, bits, group, &q, &scales);
        // The last real k-step reads back; nothing past it is addressable.
        let dq = p.unpack();
        prop_assert_eq!(dq.len(), n * k);
        for r in 0..n {
            prop_assert_eq!(p.get_q(r, k - 1), q[r * k + k - 1], "row {} last k-step", r);
            prop_assert_eq!(dq[r * k + k - 1].to_bits(), (q[r * k + k - 1] as f32 * 0.017).to_bits());
        }
        // And the fused GEMM over the odd-k weight still matches.
        let x = pseudo(k, seed ^ 0x77);
        let fused = qgemm_t(&x, 1, &p);
        let reference = dequant_then_matmul_t(&x, 1, &p);
        for (f, r) in fused.iter().zip(&reference) {
            prop_assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    /// Native group-wise quantization keeps every element within half a
    /// step of its group's scale.
    #[test]
    fn native_quantization_error_bounded(
        bits in any_pack_bits(),
        n in 1usize..10,
        k in 1usize..50,
        group in 1usize..32,
        seed in 0u64..500,
    ) {
        let data = pseudo(n * k, seed);
        let p = quantize_packed(&data, n, k, bits, group);
        let dq = p.unpack();
        for r in 0..n {
            for c in 0..k {
                let s = p.scale(r, c / group);
                let err = (data[r * k + c] - dq[r * k + c]).abs();
                prop_assert!(err <= 0.5 * s + 1e-6,
                    "({}, {}): err {} exceeds half-step {}", r, c, err, 0.5 * s);
            }
        }
    }

    /// The blocked path at serving shapes: `m` crosses the 4-row register
    /// block and the 64-row parallel block, `n` lands on and on either
    /// side of one, two and three whole panels (16 / 32 / 48), `k` is
    /// odd, and the group set includes a short last group and a group
    /// longer than the scratch tile.
    #[test]
    fn blocked_qgemm_bit_identical_across_row_blocks(
        bits in any_pack_bits(),
        m in 1usize..=70,
        lane_tiles in 0usize..4,
        lane_tail in 1usize..=PANEL,
        half_k in 0usize..135,
        group_choice in 0usize..5,
        seed in 0u64..1000,
    ) {
        let (n, k) = (PANEL * lane_tiles + lane_tail, 2 * half_k + 1);
        let w = quantize_packed(&pseudo(n * k, seed), n, k, bits, group_for(group_choice, k));
        let x = pseudo(m * k, seed ^ 0x3C3C);
        let fused = qgemm_t(&x, m, &w);
        let reference = dequant_then_matmul_t(&x, m, &w);
        for (i, (f, r)) in fused.iter().zip(&reference).enumerate() {
            prop_assert_eq!(f.to_bits(), r.to_bits(), "output {}: {} vs {}", i, f, r);
        }
    }

    /// The dense entry point runs the same kernel with a transposing
    /// fill and must equal the scalar dot product bit-for-bit; the
    /// k-major copy of the same weight (what a serving head keeps for its
    /// one-row logits product) runs it with a copying fill and must too.
    #[test]
    fn blocked_dense_gemm_bit_identical_to_scalar_reference(
        m in 1usize..=70,
        lane_tiles in 0usize..4,
        lane_tail in 1usize..=PANEL,
        half_k in 0usize..135,
        seed in 0u64..1000,
    ) {
        let (n, k) = (PANEL * lane_tiles + lane_tail, 2 * half_k + 1);
        let w = pseudo(n * k, seed);
        let x = pseudo(m * k, seed ^ 0x3C3C);
        let blocked = gemm_t(&x, m, &w, n, k);
        let reference = scalar_matmul_t(&x, m, &w, n, k);
        for (i, (b, r)) in blocked.iter().zip(&reference).enumerate() {
            prop_assert_eq!(b.to_bits(), r.to_bits(), "output {}: {} vs {}", i, b, r);
        }
        let copy = DensePanels::new(&w, n, k);
        for (rows, xs) in [(m, &x[..]), (1, &x[(m - 1) * k..])] {
            let (from_copy, from_rows) = (copy.gemm_t(xs, rows), gemm_t(xs, rows, &w, n, k));
            for (i, (c, r)) in from_copy.iter().zip(&from_rows).enumerate() {
                prop_assert_eq!(c.to_bits(), r.to_bits(), "m = {} output {}: {} vs {}", rows, i, c, r);
            }
        }
    }

    /// What serving leans on for chunked prefill ≡ decode ≡
    /// preempt-and-recompute: a row's outputs do not depend on which
    /// other rows share its GEMM call.
    #[test]
    fn rows_are_independent_of_their_block(
        bits in any_pack_bits(),
        m in 1usize..=70,
        n in 1usize..30,
        k in 1usize..200,
        group_choice in 0usize..5,
        seed in 0u64..1000,
    ) {
        let data = pseudo(n * k, seed);
        let w = quantize_packed(&data, n, k, bits, group_for(group_choice, k));
        let x = pseudo(m * k, seed ^ 0x0F0F);
        let packed = qgemm_t(&x, m, &w);
        let dense = gemm_t(&x, m, &data, n, k);
        for i in 0..m {
            let xi = &x[i * k..(i + 1) * k];
            let (p1, d1) = (qgemm_t(xi, 1, &w), gemm_t(xi, 1, &data, n, k));
            for j in 0..n {
                prop_assert_eq!(packed[i * n + j].to_bits(), p1[j].to_bits(), "packed ({}, {})", i, j);
                prop_assert_eq!(dense[i * n + j].to_bits(), d1[j].to_bits(), "dense ({}, {})", i, j);
            }
        }
    }
}

// Numeric edge cases (ROADMAP item 5): defined behaviour, pinned through
// the blocked kernel at a shape that has full and tail row blocks, a
// lane tail, and a group length that does not divide k.

const EDGE: (usize, usize, usize, usize) = (6, 11, 37, 16); // m, n, k, group

#[test]
fn zero_and_constant_weight_rows_match_reference() {
    let (m, n, k, group) = EDGE;
    let x = pseudo(m * k, 1);
    for bits in [PackBits::Int3, PackBits::Int4, PackBits::Int8] {
        // Row 0 all-zero, row 1 constant, the rest random — through the
        // native quantizer (an all-zero group gets scale 1, grid 0) …
        let mut data = pseudo(n * k, 2);
        data[..k].fill(0.0);
        data[k..2 * k].fill(0.75);
        let w = quantize_packed(&data, n, k, bits, group);
        let out = qgemm_t(&x, m, &w);
        assert_same_or_both_nan(&out, &dequant_then_matmul_t(&x, m, &w));
        for i in 0..m {
            assert_eq!(out[i * n].to_bits(), 0.0f32.to_bits(), "zero row must give +0.0");
        }
        // … and with an explicit scale of 0 on a nonzero grid.
        let gpr = k.div_ceil(group);
        let q = pseudo_grid(n * k, bits.qmax(), 3);
        let mut scales = vec![0.02f32; n * gpr];
        scales[..gpr].fill(0.0);
        let w0 = PackedMatrix::from_i8(n, k, bits, group, &q, &scales);
        assert_same_or_both_nan(&qgemm_t(&x, m, &w0), &dequant_then_matmul_t(&x, m, &w0));
    }
    let mut dense = pseudo(n * k, 4);
    dense[..k].fill(0.0);
    dense[k..2 * k].fill(0.75);
    assert_same_or_both_nan(&gemm_t(&x, m, &dense, n, k), &scalar_matmul_t(&x, m, &dense, n, k));
}

#[test]
fn non_finite_activations_propagate_like_the_reference() {
    let (m, n, k, group) = EDGE;
    let data = pseudo(n * k, 5);
    // One poisoned element per row kind: +inf, −inf, NaN, and inf
    // against a zero weight (inf · 0 = NaN); rows 4 and 5 stay finite
    // and must stay bit-equal.
    let mut x = pseudo(m * k, 6);
    x[3] = f32::INFINITY;
    x[k + 20] = f32::NEG_INFINITY;
    x[2 * k + 36] = f32::NAN;
    x[3 * k + 7] = f32::INFINITY;
    let mut zeroed = data.clone();
    for j in 0..n {
        zeroed[j * k + 7] = 0.0;
    }
    for bits in [PackBits::Int3, PackBits::Int4, PackBits::Int8] {
        for src in [&data, &zeroed] {
            let w = quantize_packed(src, n, k, bits, group);
            let out = qgemm_t(&x, m, &w);
            let reference = dequant_then_matmul_t(&x, m, &w);
            assert_same_or_both_nan(&out, &reference);
            assert!(out[4 * n..].iter().all(|v| v.is_finite()), "finite rows stay finite");
        }
    }
    for src in [&data, &zeroed] {
        assert_same_or_both_nan(&gemm_t(&x, m, src, n, k), &scalar_matmul_t(&x, m, src, n, k));
    }
    // The zero-weight column turns row 3's +inf into NaN on every output.
    let w = quantize_packed(&zeroed, n, k, PackBits::Int8, group);
    assert!(qgemm_t(&x, m, &w)[3 * n..4 * n].iter().all(|v| v.is_nan()));
}

/// The edges of the nibble conversion, int4 and int3, in every
/// instantiation the host has, through the decode body (`m` of 1 to 3)
/// and the staged blocks (`m` of 4 and 9): groups whose scale is
/// `f32::MAX / 8` (the largest the fused form takes), one step above it
/// and `f32::MAX / 4` (`8·s` overflows), `+inf`, NaN (every weight of the
/// group NaN), zero, negative and subnormal, beside ordinary groups in the
/// same multi-panel sweep and in the padded last panel. Every output
/// equals, `to_bits()`, the scalar fused dot product against
/// `q as f32 * s`.
#[test]
fn nibble_conversion_edges_match_the_reference_in_every_instantiation() {
    let (n, k, group) = (70, 96, 32);
    let gpr = k / group;
    let edges = [
        (2, 0, f32::MAX / 8.0),
        (3, 1, (f32::MAX / 8.0).next_up()),
        (5, 2, f32::MAX / 4.0),
        (17, 0, f32::INFINITY),
        (20, 1, 1e-40),
        (33, 2, f32::NAN),
        (40, 0, 0.0),
        (50, 1, -0.03),
        (66, 2, f32::INFINITY),
        (69, 0, 1e-44),
    ];
    for bits in [PackBits::Int3, PackBits::Int4] {
        let q = pseudo_grid(n * k, bits.qmax(), 61);
        let mut scales: Vec<f32> = pseudo(n * gpr, 62).iter().map(|v| v.abs() + 1e-3).collect();
        for (r, g, s) in edges {
            scales[r * gpr + g] = s;
        }
        let w = PackedMatrix::from_i8(n, k, bits, group, &q, &scales);
        for m in [1, 2, 3, 4, 9] {
            let x = pseudo(m * k, 63 + m as u64);
            let want = dequant_then_matmul_t(&x, m, &w);
            for isa in Isa::ALL.into_iter().filter(|&isa| isa <= Isa::detected()) {
                let got = with_cap(isa, || qgemm_t(&x, m, &w));
                for (i, (g, r)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), r.to_bits(), "{bits} {isa:?} m {m} output ({}, {}): {g} vs {r}", i / n, i % n);
                }
            }
        }
    }
}

#[test]
fn empty_shapes_are_defined() {
    let w = quantize_packed(&pseudo(5 * 9, 7), 5, 9, PackBits::Int4, 4);
    assert!(qgemm_t(&[], 0, &w).is_empty(), "m = 0");
    let none = quantize_packed(&[], 0, 9, PackBits::Int4, 4);
    assert!(qgemm_t(&pseudo(3 * 9, 8), 3, &none).is_empty(), "n = 0");
    assert!(gemm_t(&[], 0, &pseudo(5 * 9, 9), 5, 9).is_empty(), "dense m = 0");
    assert!(gemm_t(&pseudo(3 * 9, 8), 3, &[], 0, 9).is_empty(), "dense n = 0");
    // k = 0: every output is the empty sum, and a dirty buffer is overwritten.
    let flat = quantize_packed(&[], 4, 0, PackBits::Int8, 4);
    let mut out = vec![f32::NAN; 2 * 4];
    qgemm_t_into(&[], 2, &flat, &mut out);
    assert!(out.iter().all(|v| v.to_bits() == 0));
}

// A `PackedMatrix` can also arrive through `Deserialize`, with whatever
// lengths the JSON holds: the GEMM refuses one whose buffers do not match
// its shape before any kernel indexes by it.

/// The JSON of `w` with the first `from` replaced by `to`.
fn edited_json(w: &PackedMatrix, from: &str, to: &str) -> PackedMatrix {
    let json = serde_json::to_string(w).expect("serializable");
    assert!(json.contains(from), "{from} not in {json}");
    serde_json::from_str(&json.replacen(from, to, 1)).expect("still a PackedMatrix as far as serde can tell")
}

#[test]
#[should_panic(expected = "packed weight shape mismatch: payload")]
fn truncated_payload_is_refused_at_entry() {
    let w = quantize_packed(&pseudo(16 * 32, 10), 16, 32, PackBits::Int4, 16);
    let cut = edited_json(&w, "\"payload\":[", "\"payload\":[136],\"was\":[");
    qgemm_t(&pseudo(32, 11), 1, &cut);
}

// Sixteen rows fill two panels of 8 or one of 16 with buffers of the same
// lengths, so only the serialized panel width can tell a matrix written
// by an 8-lane build from one this build can read; a report without the
// field predates it and was written at 8.

#[test]
#[should_panic(expected = "packed weight shape mismatch: laid out in panels of 8")]
fn another_panel_width_is_refused_at_entry() {
    let w = quantize_packed(&pseudo(16 * 32, 10), 16, 32, PackBits::Int4, 16);
    let narrow = edited_json(&w, "\"lanes\":16", "\"lanes\":8");
    qgemm_t(&pseudo(32, 11), 1, &narrow);
}

#[test]
#[should_panic(expected = "packed weight shape mismatch: laid out in panels of 8")]
fn a_matrix_serialized_before_the_width_field_is_refused_at_entry() {
    let w = quantize_packed(&pseudo(16 * 32, 10), 16, 32, PackBits::Int8, 16);
    let old = edited_json(&w, "\"lanes\":16,", "");
    qgemm_t(&pseudo(32, 11), 1, &old);
}

#[test]
#[should_panic(expected = "packed weight shape mismatch: scales")]
fn short_scales_are_refused_at_entry() {
    let w = quantize_packed(&pseudo(16 * 32, 12), 16, 32, PackBits::Int8, 16);
    let cut = edited_json(&w, "\"scales\":[", "\"scales\":[0.5],\"was\":[");
    qgemm_t(&pseudo(5 * 32, 13), 5, &cut);
}

#[test]
#[should_panic(expected = "packed weight shape mismatch: group is 0")]
fn zero_group_is_refused_at_entry() {
    let w = quantize_packed(&pseudo(8 * 8, 14), 8, 8, PackBits::Int8, 8);
    let broken = edited_json(&w, "\"group\":8", "\"group\":0");
    qgemm_t(&pseudo(8, 15), 1, &broken);
}
