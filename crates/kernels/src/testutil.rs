//! Helpers the crate's unit tests share.

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

pub(crate) fn assert_bit_identical(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (i, (l, r)) in a.iter().zip(b).enumerate() {
        assert_eq!(l.to_bits(), r.to_bits(), "index {i}: {l} vs {r}");
    }
}

/// Whether the AVX2 instantiation can be compared on this CPU; says so
/// once when it cannot.
pub(crate) fn avx2_or_note() -> bool {
    if !crate::dispatch::avx2_detected() {
        static NOTE: std::sync::Once = std::sync::Once::new();
        NOTE.call_once(|| eprintln!("skipped: AVX2 not detected, only the baseline instantiation was checked"));
    }
    crate::dispatch::avx2_detected()
}
