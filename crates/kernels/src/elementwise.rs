//! The transformer layer's transcendental elementwise kernels — `exp`,
//! GELU, softmax — as whole-vector code.
//!
//! ## One `exp`
//!
//! [`exp`] is the only exponential the reference model's forward uses:
//! GELU's `tanh` and the attention softmax are both built on it, in the
//! serving engine and in every oracle alike. It is branch-free and
//! libm-free, made only of IEEE-754 single-precision multiply, add,
//! subtract, compare-select and bit moves, so it vectorises as written
//! and the AVX-512, AVX2 and baseline instantiations agree `to_bits()`:
//!
//! ```text
//! x  ← clamp(x, −88, 88.37)                    (selects; NaN passes through)
//! t  ← x · log2(e) + 1.5·2²³                   n = round(x / ln 2) sits in t's low mantissa bits
//! nf ← t − 1.5·2²³                             n as a float, exact
//! r  ← (x − nf · LN2_HI) − nf · LN2_LO         |r| ≤ ln 2 / 2; the first product and difference are exact
//! p  ← 1 + (r + r² · q(r))                     q: degree-5 minimax polynomial (Cephes `expf`)
//! 2ⁿ ← from_bits((bits(t) − bits(1.5·2²³) + 127) << 23)
//! exp ← p · 2ⁿ
//! ```
//!
//! `n` is read from the *bits* of the magic-number sum, so there is no
//! float → int cast for the optimiser to guard against overflow. Error:
//! at most 2.4e-7 relative to the exact value on [−87, 88] (measured
//! 8.0e-8 on a 2 M-point sweep; the unit tests hold the bound); `exp(0) = 1`
//! exactly; below −87.34 the result is subnormal and below about −87.7
//! it is `+0` (so `exp(−∞) = 0`); above 88.37 it saturates at
//! `e^88.37 ≈ 2.4e38` instead of overflowing; NaN in, NaN out.
//!
//! ## GELU and softmax
//!
//! [`gelu`] is the tanh approximation OPT and BLOOM use,
//! `0.5·u·(1 + tanh y)`, `y = √(2/π)·(u + 0.044715·u³)`, with
//! `tanh y = 1 − 2 / (e^{2y} + 1)` on `y` clamped to ±10 (where `tanh`
//! already rounds to ±1). Within 1e-6 absolute of the exact formula on
//! [−12, 12]; `gelu(±0) = ±0`, `gelu(+∞) = +∞`, `gelu(−∞)` and
//! `gelu(NaN)` are NaN — what the libm-`tanh` expression returns.
//!
//! [`softmax_rows`] normalises each row: lane-wise running maximum
//! (NaNs ignored, as `f32::max` does), `e_j = exp(s_j − max)` over whole
//! vectors, the sum as one ascending-`j` chain from `+0.0`, and
//! `p_j = e_j · (1 / sum)`. Attention applies the same row kernel to the
//! live prefix of each score row ([`mod@crate::attention`]).

use crate::dispatch::{cap, dispatch, Body, Isa};
use crate::pack::LANES;

const EXP_LO: f32 = -88.0;
const EXP_HI: f32 = 88.37;
/// `1.5 · 2²³`: adding it to `|v| < 2²²` rounds `v` to an integer held in
/// the sum's low mantissa bits.
const MAGIC: f32 = 12_582_912.0;
/// `ln 2` split so that `n · LN2_HI` is exact for `|n| < 2¹⁵`.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// The larger of `v` and `lo` as one compare-select; a NaN `lo` is
/// ignored (what `f32::max` does with more instructions).
#[inline(always)]
fn at_least(v: f32, lo: f32) -> f32 {
    if v < lo {
        lo
    } else {
        v
    }
}

/// `e^x`, the model's one exponential (see the module docs for the
/// algorithm, the error bound and the edge cases).
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // `clamp` is two compare-selects and passes NaN through.
    let x = x.clamp(EXP_LO, EXP_HI);
    let t = x * std::f32::consts::LOG2_E + MAGIC;
    let nf = t - MAGIC;
    let r = (x - nf * LN2_HI) - nf * LN2_LO;
    let mut q = 1.987_569_1e-4f32;
    for c in [1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_5e-1, 0.5] {
        q = q * r + c;
    }
    let p = 1.0 + (r + r * r * q);
    // `n + 127` shifted into the exponent field: n = −127 gives +0.0.
    let two_n = f32::from_bits(((t.to_bits() as i32 - (MAGIC.to_bits() as i32 - 127)) << 23) as u32);
    p * two_n
}

/// GELU of one value (see [`gelu`]).
#[inline(always)]
fn gelu_one(u: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    let y = (C * (u + 0.044715 * u * u * u)).clamp(-10.0, 10.0);
    let tanh = 1.0 - 2.0 / (exp(2.0 * y) + 1.0);
    0.5 * u * (1.0 + tanh)
}

/// A function applied to every element of a slice, whole vectors at a
/// time. A trait and not a closure so that `apply` is certain to be
/// inlined into the loop of whichever instantiation runs it.
trait Lanewise: Copy {
    fn apply(self, v: f32) -> f32;
}

#[derive(Clone, Copy)]
struct Gelu;

impl Lanewise for Gelu {
    #[inline(always)]
    fn apply(self, v: f32) -> f32 {
        gelu_one(v)
    }
}

/// `v ↦ exp(v − shift)`.
#[derive(Clone, Copy)]
struct ExpShifted(f32);

impl Lanewise for ExpShifted {
    #[inline(always)]
    fn apply(self, v: f32) -> f32 {
        exp(v - self.0)
    }
}

/// `x[i] ← f(x[i])`: fixed-width inner loops the compiler turns into
/// straight vector code; the tail goes through one padded vector, so no
/// element outside `x` is read or written.
#[inline(always)]
fn map_lanes<F: Lanewise>(x: &mut [f32], f: F) {
    let (chunks, tail) = x.as_chunks_mut::<LANES>();
    for chunk in chunks {
        for v in chunk.iter_mut() {
            *v = f.apply(*v);
        }
    }
    if !tail.is_empty() {
        let mut pad = [0.0f32; LANES];
        pad[..tail.len()].copy_from_slice(tail);
        for v in pad.iter_mut() {
            *v = f.apply(*v);
        }
        tail.copy_from_slice(&pad[..tail.len()]);
    }
}

/// Softmax of one row in place (the row is the whole live prefix).
#[inline(always)]
pub(crate) fn softmax_row(row: &mut [f32]) {
    // `LANES` running maxima, then their maximum: `max` is exact, so the
    // order only decides which of two equal values (or zeros of either
    // sign) wins, and `exp(s − max)` is the same for both.
    let mut lane_max = [f32::NEG_INFINITY; LANES];
    let (chunks, tail) = row.as_chunks::<LANES>();
    for chunk in chunks {
        for (m, &s) in lane_max.iter_mut().zip(chunk) {
            *m = at_least(*m, s);
        }
    }
    for (m, &s) in lane_max.iter_mut().zip(tail) {
        *m = at_least(*m, s);
    }
    let max = lane_max.into_iter().fold(f32::NEG_INFINITY, at_least);
    map_lanes(row, ExpShifted(max));
    let mut sum = 0.0f32;
    for &e in row.iter() {
        sum += e;
    }
    let inv = 1.0 / sum;
    for p in row.iter_mut() {
        *p *= inv;
    }
}

struct GeluBody<'a>(&'a mut [f32]);

impl Body for GeluBody<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self, _: Isa) {
        map_lanes(self.0, Gelu);
    }
}

struct SoftmaxBody<'a> {
    x: &'a mut [f32],
    cols: usize,
}

impl Body for SoftmaxBody<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self, _: Isa) {
        for row in self.x.chunks_exact_mut(self.cols) {
            softmax_row(row);
        }
    }
}

/// In-place GELU (tanh approximation) of every element of `x`.
pub fn gelu(x: &mut [f32]) {
    dispatch(cap(), GeluBody(x));
}

/// In-place softmax of each `cols`-long row of `x`.
pub fn softmax_rows(x: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    assert_eq!(x.len() % cols, 0, "row length must divide the data");
    dispatch(cap(), SoftmaxBody { x, cols });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_bit_identical, pseudo, wider_instantiations};
    use proptest::prelude::*;

    /// `n` points spread evenly over `[lo, hi]`, ends included.
    fn sweep(lo: f32, hi: f32, n: usize) -> impl Iterator<Item = f32> {
        (0..=n).map(move |i| lo + (hi - lo) * (i as f32 / n as f32))
    }

    fn gelu_f64(u: f64) -> f64 {
        0.5 * u * (1.0 + ((2.0 / std::f64::consts::PI).sqrt() * (u + 0.044715 * u * u * u)).tanh())
    }

    /// The parent's expression: one libm `tanhf` per element.
    fn gelu_libm(u: f32) -> f32 {
        0.5 * u * (1.0 + (0.797_884_6 * (u + 0.044715 * u * u * u)).tanh())
    }

    #[test]
    fn exp_is_within_two_ulp_of_the_exact_value() {
        let mut worst = 0.0f64;
        for x in sweep(-87.0, 88.0, 2_000_000) {
            let (got, want) = (exp(x) as f64, (x as f64).exp());
            assert!(got.is_finite() && got > 0.0, "exp({x}) = {got}");
            worst = worst.max(((got - want) / want).abs());
        }
        assert!(worst <= 2.4e-7, "worst relative error {worst:e}");
    }

    #[test]
    fn exp_edge_cases() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(-1000.0), 0.0);
        assert!(exp(f32::NAN).is_nan());
        // Saturates instead of overflowing; subnormal before it is zero.
        assert_eq!(exp(f32::INFINITY), exp(88.37));
        assert!(exp(f32::INFINITY).is_finite());
        assert!(exp(-87.5) > 0.0 && exp(-87.5) < f32::MIN_POSITIVE);
        // No finite input gives NaN or a negative value, whatever the
        // exponent field does at the ends of the range.
        for bits in (0..=u32::MAX).step_by(4099) {
            let x = f32::from_bits(bits);
            if x.is_finite() {
                let y = exp(x);
                assert!(y >= 0.0 && y.is_finite(), "exp({x}) = {y}");
            }
        }
        // Monotone across every rounding boundary of `n`.
        let mut prev = 0.0f32;
        for x in sweep(-88.5, 88.5, 400_000) {
            let y = exp(x);
            assert!(y >= prev * (1.0 - 3e-7), "exp({x}) = {y} after {prev}");
            prev = y;
        }
    }

    #[test]
    fn gelu_is_within_1e6_of_the_exact_formula_and_keeps_the_parents_edges() {
        let mut worst = 0.0f64;
        for u in sweep(-12.0, 12.0, 1_000_000) {
            worst = worst.max((gelu_one(u) as f64 - gelu_f64(u as f64)).abs());
        }
        assert!(worst <= 1e-6, "worst absolute error {worst:e}");
        for u in [0.0f32, -0.0, f32::INFINITY, -12.0, 12.0, 30.0, -30.0] {
            assert_eq!(gelu_one(u).to_bits(), gelu_libm(u).to_bits(), "gelu({u})");
        }
        assert!(gelu_libm(f32::NEG_INFINITY).is_nan() && gelu_one(f32::NEG_INFINITY).is_nan());
        assert!(gelu_libm(f32::NAN).is_nan() && gelu_one(f32::NAN).is_nan());
        // The slice kernel is the scalar definition, tail included.
        let mut x: Vec<f32> = sweep(-6.0, 6.0, 42).collect();
        let want: Vec<f32> = x.iter().map(|&u| gelu_one(u)).collect();
        gelu(&mut x);
        assert_bit_identical(&x, &want);
    }

    #[test]
    fn softmax_rows_normalise_and_survive_large_logits() {
        let mut x = vec![1000.0, 1000.0, 999.0, -3.0, 0.5, 2.0];
        softmax_rows(&mut x, 3);
        for row in x.chunks(3) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|p| p.is_finite() && *p >= 0.0));
        }
        assert_eq!(x[0], x[1]);
        softmax_rows(&mut [], 0);
    }

    /// Softmax as the plain loops, with the model's `exp`.
    fn softmax_reference(row: &mut [f32]) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = exp(*v - max);
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every instantiation of `exp`, GELU and the prefix softmax the
        /// host can run agrees bit for bit with the others and with the
        /// scalar definition, whatever the length leaves as a lane tail.
        #[test]
        fn every_elementwise_instantiation_is_bit_identical(
            len in 1usize..200,
            scale in prop_oneof![Just(0.5f32), Just(8.0), Just(60.0), Just(200.0)],
            seed in 0u64..1000,
        ) {
            let mut x: Vec<f32> = pseudo(len, seed).into_iter().map(|v| v * scale).collect();
            x[seed as usize % len] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY][seed as usize % 4];
            struct ExpBody<'a>(&'a mut [f32]);
            impl Body for ExpBody<'_> {
                type Out = ();
                #[inline(always)]
                fn run(self, _: Isa) {
                    map_lanes(self.0, ExpShifted(0.25));
                }
            }
            let run = |cap: Isa| {
                let (mut e, mut g, mut s) = (x.clone(), x.clone(), x.clone());
                dispatch(cap, ExpBody(&mut e));
                dispatch(cap, GeluBody(&mut g));
                // A finite row: softmax of ±∞ is NaN in both, with no
                // promise about the NaN's payload.
                s.iter_mut().for_each(|v| *v = v.clamp(-300.0, 300.0));
                dispatch(cap, SoftmaxBody { x: &mut s, cols: len });
                (e, g, s)
            };
            let (e, g, s) = run(Isa::Baseline);
            assert_bit_identical(&e, &x.iter().map(|&v| exp(v - 0.25)).collect::<Vec<_>>());
            // −∞ gives NaN: compare where the definition is a number.
            for (got, &u) in g.iter().zip(&x) {
                let want = gelu_one(u);
                prop_assert!(got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()));
            }
            let mut want = x.iter().map(|v| v.clamp(-300.0, 300.0)).collect::<Vec<_>>();
            softmax_reference(&mut want);
            assert_bit_identical(&s, &want);
            for isa in wider_instantiations() {
                let (e2, g2, s2) = run(isa);
                assert_bit_identical(&e2, &e);
                assert_bit_identical(&s2, &s);
                for (a, b) in g2.iter().zip(&g) {
                    prop_assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
                }
            }
        }
    }
}
