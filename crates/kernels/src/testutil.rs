//! Helpers the crate's unit tests share.

use crate::dispatch::Isa;

/// `n` reproducible values in `[-1, 1)`.
pub(crate) fn pseudo(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// One term of a dot product: the kernels' fused multiply-add, rounded
/// once, or (`fused = false`) a separate multiply and add, rounded twice.
pub(crate) fn mac(a: f32, b: f32, acc: f32, fused: bool) -> f32 {
    if fused {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// The ascending-k chain of [`mac`] terms from `+0.0`.
pub(crate) fn dot(x: &[f32], w: &[f32], fused: bool) -> f32 {
    x.iter().zip(w).fold(0.0, |acc, (&a, &b)| mac(a, b, acc, fused))
}

/// `1 + 2⁻¹²`, scaled: its square needs one mantissa bit more than an
/// `f32` has, so `mul_add(−s, s, ·)` followed by `mul_add(s, s, ·)` from
/// `+0.0` leaves `2⁻²⁴ · scale²`, and the same two terms as a separate
/// multiply and add leave `0`.
pub(crate) fn split_square(scale: f32) -> f32 {
    scale * (1.0 + 2f32.powi(-12))
}

pub(crate) fn assert_bit_identical(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (i, (l, r)) in a.iter().zip(b).enumerate() {
        assert_eq!(l.to_bits(), r.to_bits(), "index {i}: {l} vs {r}");
    }
}

/// The instantiations wider than the baseline that this CPU can run, so
/// that a test can set each beside the baseline; says once per missing
/// one that it was skipped.
pub(crate) fn wider_instantiations() -> impl Iterator<Item = Isa> {
    static NOTES: [std::sync::Once; Isa::ALL.len()] = [const { std::sync::Once::new() }; Isa::ALL.len()];
    Isa::ALL[1..].iter().copied().filter(|&isa| {
        let runs = isa <= Isa::detected();
        if !runs {
            NOTES[isa as usize].call_once(|| {
                eprintln!("skipped: {} not detected, its instantiation was not checked", isa.name())
            });
        }
        runs
    })
}
