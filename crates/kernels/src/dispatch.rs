//! The crate's one ISA dispatch point.
//!
//! Every kernel in this crate is safe, intrinsic-free Rust whose loops
//! the compiler vectorises at whatever width the enclosing function is
//! allowed to use. A kernel is therefore written once, as the
//! `#[inline(always)]` `Body::run` of a small argument struct, and
//! compiled three times on `x86_64`: inlined into the caller as is (the
//! build's baseline ISA), inlined into `run_avx2`, a
//! `#[target_feature(enable = "avx2,fma")]` wrapper, so the same loops
//! are emitted at 256-bit width, and inlined into `run_avx512`, the same
//! wrapper with AVX-512 (F, BW, VL, DQ) and FMA enabled, so they are
//! emitted at 512-bit width. `dispatch` picks the widest of the three the
//! running CPU has with `is_x86_feature_detected!` — the workspace's only
//! `unsafe` block, sound because a wrapper is reached only after its
//! features were detected on the running CPU. There is no flag,
//! environment variable or cargo feature; [`isa`] reports the choice.
//! Other targets compile the baseline only.
//!
//! Vector width never changes a result: lanes are distinct outputs, and
//! every operation is an IEEE-754 single-precision multiply, add,
//! subtract, divide, compare-select, exact integer conversion, bit move
//! or — every term of a dot product — fused multiply-add
//! (`f32::mul_add`), which is exactly rounded wherever it runs. The
//! compiler never contracts a separate multiply and add into one, so a
//! body rounds the same in each instantiation and the three agree
//! `to_bits()` for `to_bits()`. What the wrappers' `fma` changes is speed:
//! it makes `mul_add` one `vfmadd` instruction, where the baseline of a
//! stock `x86_64` build (no FMA) calls libm's `fmaf` once per lane and
//! term — same bits, 13–30× slower. On `aarch64` the baseline has FMA.
//!
//! To check that the dispatch is still the only one:
//! `grep -rn unsafe crates/*/src vendor/*/src src` must show, besides
//! `forbid(unsafe_code)` lines and prose, exactly one
//! `#[allow(unsafe_code)]` and one `unsafe { .. }`, both in this file
//! (CI's `clippy` job counts them).

use std::cell::Cell;

/// The instantiations a kernel body is compiled in, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The build's target features (SSE2 on a stock `x86_64` build).
    Baseline,
    /// 256-bit vectors: AVX2 and FMA.
    Avx2,
    /// 512-bit vectors: AVX-512 F, BW, VL and DQ, and FMA.
    Avx512,
}

impl Isa {
    /// Every instantiation, narrowest first.
    pub const ALL: [Isa; 3] = [Isa::Baseline, Isa::Avx2, Isa::Avx512];

    /// `"baseline"`, `"avx2"` or `"avx512"`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// The widest instantiation the running CPU can execute.
    pub fn detected() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vl")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("fma")
            {
                return Isa::Avx512;
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return Isa::Avx2;
            }
        }
        Isa::Baseline
    }
}

/// A kernel the dispatcher can run in any instantiation. `run` must be
/// `#[inline(always)]`, and so must every function on its hot path:
/// code that is called rather than inlined is compiled for the baseline
/// ISA whatever the caller was.
pub(crate) trait Body {
    /// What the kernel returns.
    type Out;
    /// The kernel, told which instantiation it is being compiled into (a
    /// constant by the time it is inlined there). Only a register-budget
    /// choice may depend on it — how many accumulators a block keeps in
    /// flight — never a loop or an order of operations.
    fn run(self, isa: Isa) -> Self::Out;
}

/// Run `body` in the widest instantiation that is no wider than `cap`
/// and that the CPU has. `cap` is [`cap`] at every public entry; the
/// crate's tests pass each [`Isa`] in turn to compare the instantiations.
#[allow(unsafe_code)]
pub(crate) fn dispatch<B: Body>(cap: Isa, body: B) -> B::Out {
    #[cfg(target_arch = "x86_64")]
    match cap.min(Isa::detected()) {
        Isa::Baseline => {}
        // SAFETY: each wrapper requires exactly the features
        // `Isa::detected` just found on the running CPU before it
        // returned that variant.
        isa => {
            return unsafe {
                match isa {
                    Isa::Avx512 => run_avx512(body),
                    _ => run_avx2(body),
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = cap;
    body.run(Isa::Baseline)
}

/// [`Body::run`] compiled with AVX2 and FMA enabled: the same safe body,
/// inlined here so its loops are emitted at 256-bit width and every
/// `mul_add` is one `vfmadd` (without `fma` each would be a call to
/// `fmaf` per lane: the same bits, many times slower).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_avx2<B: Body>(body: B) -> B::Out {
    body.run(Isa::Avx2)
}

/// [`Body::run`] compiled with AVX-512 and FMA enabled: 512-bit vectors,
/// 32 of them, the byte → dword widening loads and the fused
/// multiply-add at that width.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512dq,fma")]
fn run_avx512<B: Body>(body: B) -> B::Out {
    body.run(Isa::Avx512)
}

/// Which instantiation of the kernels this process runs: `"avx512"` or
/// `"avx2"` where the CPU has it, `"baseline"` (the build's target
/// features) otherwise.
pub fn isa() -> &'static str {
    Isa::detected().name()
}

thread_local! {
    /// What the public entries on this thread pass to [`dispatch`].
    static CAP: Cell<Isa> = const { Cell::new(Isa::Avx512) };
}

/// The cap the public entries dispatch under: no cap, outside [`with_cap`].
pub(crate) fn cap() -> Isa {
    CAP.get()
}

/// Run `f` with every kernel entry called on this thread held to
/// instantiations no wider than `cap`: how `bench_kernels` times each
/// instantiation the host has through the public API. Not a switch for
/// serving — results are bit-identical in every instantiation, the
/// widest is the fastest, and nothing in the workspace calls this but
/// the bench.
#[doc(hidden)]
pub fn with_cap<R>(cap: Isa, f: impl FnOnce() -> R) -> R {
    let outer = CAP.replace(cap);
    let out = f();
    CAP.set(outer);
    out
}

/// The compute ceiling of the instantiation within [`with_cap`]'s cap:
/// `steps` steps of independent fused multiply-add chains, sixteen lanes
/// each, with nothing else in the loop. Returns the floating-point
/// operations done (two per lane per step); `bench_kernels` divides them
/// by the time taken. A chain retires one step per FMA latency, so the
/// ports are full only with more chains in flight than latency × ports
/// (four cycles × two ports): twelve `zmm` under AVX-512 and twelve
/// `ymm` (six 16-lane rows) under AVX2 and below, where sixteen
/// registers must also hold the two operands. Like [`with_cap`], for
/// the bench only.
#[doc(hidden)]
pub fn fma_peak_probe(steps: usize) -> usize {
    dispatch(cap(), FmaProbe { steps })
}

struct FmaProbe {
    steps: usize,
}

impl Body for FmaProbe {
    type Out = usize;

    #[inline(always)]
    fn run(self, isa: Isa) -> usize {
        match isa {
            Isa::Avx512 => fma_chains::<12>(self.steps),
            _ => fma_chains::<6>(self.steps),
        }
    }
}

/// `R` rows of 16 lanes, each lane its own chain `a = a · m + b`, which
/// stays near `b / (1 − m)`: no value ever leaves the normal range.
#[inline(always)]
fn fma_chains<const R: usize>(steps: usize) -> usize {
    let mut acc = [[0.0f32; 16]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        for (lane, a) in row.iter_mut().enumerate() {
            *a = (r * 16 + lane) as f32;
        }
    }
    let (m, b) = std::hint::black_box((0.999_9f32, 0.01f32));
    for _ in 0..steps {
        // The rows, written out: as `for row in acc.iter_mut()` the loop
        // stays a loop, `acc` lives in memory, and every step of a chain
        // waits on a store and a reload.
        macro_rules! rows {
            ($($r:literal)*) => {$(
                if $r < R {
                    for a in acc[$r].iter_mut() {
                        *a = a.mul_add(m, b);
                    }
                }
            )*};
        }
        const { assert!(R <= 12) };
        rows!(0 1 2 3 4 5 6 7 8 9 10 11);
    }
    std::hint::black_box(&acc);
    2 * R * 16 * steps
}
