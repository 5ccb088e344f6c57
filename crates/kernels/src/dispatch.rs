//! The crate's one ISA dispatch point.
//!
//! Every kernel in this crate is safe, intrinsic-free Rust whose loops
//! the compiler vectorises at whatever width the enclosing function is
//! allowed to use. A kernel is therefore written once, as the
//! `#[inline(always)]` `Body::run` of a small argument struct, and
//! compiled twice on `x86_64`: inlined into the caller as is (the
//! build's baseline ISA), and inlined into `run_avx2`, a
//! `#[target_feature(enable = "avx2")]` wrapper, so the same loops are
//! emitted at 256-bit width. `dispatch` picks between the two with
//! `is_x86_feature_detected!` — the workspace's only `unsafe` block,
//! sound because the wrapper is reached only after the feature was
//! detected on the running CPU. There is no flag, environment variable
//! or cargo feature; [`isa`] reports the choice. Other targets compile
//! the baseline only.
//!
//! Vector width never changes a result: lanes are distinct outputs,
//! every operation is an IEEE-754 single-precision multiply, add,
//! subtract, divide, compare-select, exact integer conversion or bit
//! move, and FMA is not enabled, so no multiply-add is contracted — the
//! two instantiations agree `to_bits()` for `to_bits()`.
//!
//! To check that the dispatch is still the only one:
//! `grep -rn unsafe crates/*/src vendor/*/src src` must show, besides
//! `forbid(unsafe_code)` lines and prose, exactly one
//! `#[allow(unsafe_code)]` and one `unsafe { .. }`, both in this file.

/// A kernel the dispatcher can run in either instantiation. `run` must be
/// `#[inline(always)]`, and so must every function on its hot path:
/// code that is called rather than inlined is compiled for the baseline
/// ISA whatever the caller was.
pub(crate) trait Body {
    /// What the kernel returns.
    type Out;
    /// The kernel.
    fn run(self) -> Self::Out;
}

/// Run `body` in the AVX2 instantiation where allowed and the CPU has
/// it, in the baseline one otherwise. `allow_avx2` is `true` outside the
/// tests that pin the baseline instantiation to compare the two.
#[allow(unsafe_code)]
pub(crate) fn dispatch<B: Body>(allow_avx2: bool, body: B) -> B::Out {
    #[cfg(target_arch = "x86_64")]
    if allow_avx2 && avx2_detected() {
        // SAFETY: `run_avx2` requires AVX2, which was just detected on
        // the running CPU.
        return unsafe { run_avx2(body) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = allow_avx2;
    body.run()
}

/// [`Body::run`] compiled with AVX2 enabled: the same safe body, inlined
/// here so its loops are emitted at 256-bit width. FMA stays off, so
/// every rounding is the baseline's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<B: Body>(body: B) -> B::Out {
    body.run()
}

/// Which instantiation of the kernels this process runs: `"avx2"` where
/// the CPU has it, `"baseline"` (the build's target features) otherwise.
pub fn isa() -> &'static str {
    if avx2_detected() {
        "avx2"
    } else {
        "baseline"
    }
}

pub(crate) fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}
