//! Causal multi-head attention as two register-blocked sweeps over K/V
//! read where it lives.
//!
//! [`attention`] takes the new query rows and two row accessors —
//! position `j` ↦ that position's cached key / value row, `hidden` wide —
//! so the same code serves a contiguous per-sequence cache and a paged
//! block chain, and no head is copied out: a head is the column slice
//! `[head · d, (head + 1) · d)` of every row.
//!
//! ```text
//! for each head, for each block of ≤ 64 query rows (row i attends to positions j ≤ past + i):
//!   sweep 1  s[i][j] = Σ_d q[i][d] · k[j][d]       the blocked GEMM kernel with the keys as the weight:
//!                                                  16 keys transposed into a tile once per block, swept
//!                                                  over the rows 4 at a time; panels no row attends to
//!                                                  are skipped
//!   row-wise s[i][j] ← s[i][j] · 1/√d − slope · (past + i − j)          (ALiBi; slope 0 = none)
//!            p[i][..] = softmax(s[i][0 ..= past + i])                    live prefix only
//!   sweep 2  out[i][d] = Σ_j p[i][j] · v[j][d]     ≤ 64 value rows staged once per block, d in lanes,
//!                                                  4 rows × 16 lanes of accumulators in registers
//! ```
//!
//! The masked triangle `j > past + i` is never exponentiated, summed or
//! multiplied, and (beyond the few lanes of the panel that straddles the
//! diagonal) never computed; the score matrix is one reused row-block
//! scratch, not a `t_new × t_all` allocation per head.
//!
//! ## Summation order
//!
//! Every score is the ascending-`d` chain of fused multiply-adds
//! (`q.mul_add(k, acc)`) from `+0.0`, every softmax sum the ascending-`j`
//! chain of adds over the live prefix, and every output the ascending-`j`
//! chain of fused multiply-adds from `+0.0` in which each live position
//! contributes `p · v` exactly once (a zero probability is not skipped) —
//! both sweeps are the GEMM kernel's register block, and a fused
//! multiply-add rounds once in every instantiation.
//! Blocking only interleaves distinct outputs. Row `i` of an `m`-row call
//! is therefore bit-identical to the one-row call at `past + i`, so
//! chunked prefill ≡ whole-prompt prefill ≡ token-by-token decode
//! `to_bits()`, in every ISA instantiation — what lets serving chunk,
//! preempt and recompute without changing a token.

use crate::dispatch::{cap, dispatch, Body, Isa};
use crate::elementwise::softmax_row;
use crate::gemm::{mac_rows, row_block, DenseWeight, Scratch, MR, PANELS, ROW_BLOCK};
use crate::pack::LANES;

/// Cached positions per staged value tile (`TILE_J × d` f32: 16 KB at
/// `d = 64`, L1-resident beside the probabilities it is swept with).
const TILE_J: usize = 64;

/// `out = softmax(q · Kᵀ / √d + ALiBi, causal) · V` for `m` new positions
/// of one sequence.
///
/// `q` and `out` are `m × hidden` row-major; `slopes` holds one ALiBi
/// slope per head (`0.0` for none), so `hidden / slopes.len()` is the
/// head width `d`; `k_row(j)` / `v_row(j)` return the `hidden`-wide cached
/// row of position `j < past + m`, the new positions' rows included. Query
/// row `i` sits at position `past + i` and attends to positions
/// `0 ..= past + i`. `out` is overwritten.
#[allow(clippy::too_many_arguments)]
pub fn attention<'a>(
    q: &[f32],
    m: usize,
    hidden: usize,
    past: usize,
    slopes: &[f32],
    k_row: impl Fn(usize) -> &'a [f32],
    v_row: impl Fn(usize) -> &'a [f32],
    out: &mut [f32],
) {
    attention_on(cap(), Attention { q, m, hidden, past, slopes, k_row, v_row, out });
}

fn attention_on<'a, K, V>(cap: Isa, call: Attention<'_, K, V>)
where
    K: Fn(usize) -> &'a [f32],
    V: Fn(usize) -> &'a [f32],
{
    let n_heads = call.slopes.len();
    assert!(n_heads > 0 && call.hidden.is_multiple_of(n_heads), "hidden must divide evenly by heads");
    assert_eq!(call.q.len(), call.m * call.hidden, "query shape mismatch");
    assert_eq!(call.out.len(), call.m * call.hidden, "output shape mismatch");
    assert!(call.past + call.m <= i32::MAX as usize, "sequence too long");
    if call.m > 0 {
        dispatch(cap, call);
    }
}

struct Attention<'a, K, V> {
    q: &'a [f32],
    m: usize,
    hidden: usize,
    past: usize,
    slopes: &'a [f32],
    k_row: K,
    v_row: V,
    out: &'a mut [f32],
}

impl<'a, K, V> Body for Attention<'_, K, V>
where
    K: Fn(usize) -> &'a [f32],
    V: Fn(usize) -> &'a [f32],
{
    type Out = ();

    #[inline(always)]
    fn run(self, _: Isa) {
        let Attention { q, m, hidden, past, slopes, k_row, v_row, out } = self;
        let d = hidden / slopes.len();
        let scale = 1.0 / (d as f32).sqrt();
        // One block's score rows, reused by every block of every head.
        let ld = (past + m).next_multiple_of(LANES);
        let mut scores = vec![0.0f32; m.min(ROW_BLOCK) * ld];
        let mut staged = vec![0.0f32; d.div_ceil(LANES) * TILE_J * LANES];
        let mut scratch = Scratch::new();
        for (head, &slope) in slopes.iter().enumerate() {
            let lo = head * d;
            for i0 in (0..m).step_by(ROW_BLOCK) {
                let rows = ROW_BLOCK.min(m - i0);
                // Row `r` of the block attends to positions `j ≤ visible + r`.
                let visible = past + i0;
                let keys = DenseWeight {
                    row: |j| &k_row(j)[lo..lo + d],
                    n: visible + rows,
                    k: d,
                    causal_past: Some(visible),
                };
                row_block::<PANELS, _>(&q[i0 * hidden + lo..], hidden, &keys, &mut scores, ld, rows, &mut scratch);
                for r in 0..rows {
                    let limit = visible + r;
                    let row = &mut scores[r * ld..][..=limit];
                    for (j, s) in row.iter_mut().enumerate() {
                        *s = *s * scale - slope * ((limit - j) as i32 as f32);
                    }
                    softmax_row(row);
                }
                let block_out = &mut out[i0 * hidden + lo..];
                weighted_values(&scores, ld, rows, visible, &v_row, lo, d, block_out, hidden, &mut staged);
            }
        }
    }
}

/// Sweep 2 for one block of one head: `out[r * ldo + dd] = Σ_j p[r * ld + j]
/// · v_row(j)[lo + dd]` over `j ≤ visible + r`, ascending.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn weighted_values<'a>(
    p: &[f32],
    ld: usize,
    rows: usize,
    visible: usize,
    v_row: &impl Fn(usize) -> &'a [f32],
    lo: usize,
    d: usize,
    out: &mut [f32],
    ldo: usize,
    staged: &mut [f32],
) {
    for r in 0..rows {
        out[r * ldo..][..d].fill(0.0);
    }
    let chunks = d.div_ceil(LANES);
    let n_live = visible + rows;
    let mut j_lo = 0;
    while j_lo < n_live {
        // Stage the tile lane-chunk-major: `staged[c][jj]` is the `LANES`
        // values `v(j_lo + jj)[lo + LANES·c ..]`, the layout `mac_rows` sweeps.
        let len = TILE_J.min(n_live - j_lo);
        for jj in 0..len {
            let v = &v_row(j_lo + jj)[lo..lo + d];
            for (c, part) in v.chunks(LANES).enumerate() {
                staged[(c * TILE_J + jj) * LANES..][..part.len()].copy_from_slice(part);
            }
        }
        let tile = |c: usize| &staged[c * TILE_J * LANES..][..len * LANES];
        // How many of the tile's positions row `i` attends to, and the
        // first row that attends to any.
        let live = |i: usize| (visible + i + 1 - j_lo).min(len);
        let first = j_lo.saturating_sub(visible);
        let mut c = 0;
        // As in `row_block`: fewer rows than a register block (decode)
        // take one row of `PANELS` lane chunks instead, for as many
        // independent add chains.
        if rows < MR {
            while c + PANELS <= chunks {
                for i in first..rows {
                    let tiles = std::array::from_fn(|p| tile(c + p));
                    value_block::<1, PANELS>(&p[i * ld + j_lo..], ld, tiles, [live(i)], &mut out[i * ldo + c * LANES..], ldo, d - c * LANES);
                }
                c += PANELS;
            }
        }
        while c < chunks {
            let mut i = first;
            while i + MR <= rows {
                let lives = std::array::from_fn(|r| live(i + r));
                value_block::<MR, 1>(&p[i * ld + j_lo..], ld, [tile(c)], lives, &mut out[i * ldo + c * LANES..], ldo, d - c * LANES);
                i += MR;
            }
            while i < rows {
                value_block::<1, 1>(&p[i * ld + j_lo..], ld, [tile(c)], [live(i)], &mut out[i * ldo + c * LANES..], ldo, d - c * LANES);
                i += 1;
            }
            c += 1;
        }
        j_lo += len;
    }
}

/// `R` rows × `P` lane chunks of outputs advanced over one staged tile.
/// Row `r` reads `p[r * ld..]` and attends to the tile's first `live[r]`
/// positions (`live` does not decrease: the causal diagonal); its
/// accumulators rest in `out[r * ldo..]`, of which `width` lanes exist.
#[inline(always)]
fn value_block<const R: usize, const P: usize>(
    p: &[f32],
    ld: usize,
    tiles: [&[f32]; P],
    live: [usize; R],
    out: &mut [f32],
    ldo: usize,
    width: usize,
) {
    let width = width.min(P * LANES);
    let mut acc = [[[0.0f32; LANES]; P]; R];
    for (r, a) in acc.iter_mut().enumerate() {
        a.as_flattened_mut()[..width].copy_from_slice(&out[r * ldo..][..width]);
    }
    // Every row attends to the first `live[0]` positions: one register
    // block. Later rows then take the few more the diagonal gives them.
    let shared = live[0];
    mac_rows::<R, P>(p, ld, tiles.map(|t| &t[..shared * LANES]), acc.as_flattened_mut().as_flattened_mut());
    for r in 1..R {
        let own = tiles.map(|t| &t[shared * LANES..live[r] * LANES]);
        mac_rows::<1, P>(&p[r * ld + shared..], ld, own, acc[r].as_flattened_mut());
    }
    for (r, a) in acc.iter().enumerate() {
        out[r * ldo..][..width].copy_from_slice(&a.as_flattened()[..width]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementwise::exp;
    use crate::testutil::{assert_bit_identical, dot, mac, pseudo, split_square, wider_instantiations};
    use proptest::prelude::*;

    /// The contract as plain scalar loops over the live prefix — the
    /// reference model's attention before it moved here, with the
    /// model's `exp` — for one score row at a time. Both dot products take
    /// one fused multiply-add per term, or with `fused = false` a separate
    /// multiply and add.
    #[allow(clippy::too_many_arguments)]
    fn reference<'a>(
        q: &[f32],
        m: usize,
        hidden: usize,
        past: usize,
        slopes: &[f32],
        k_row: impl Fn(usize) -> &'a [f32],
        v_row: impl Fn(usize) -> &'a [f32],
        fused: bool,
    ) -> Vec<f32> {
        let d = hidden / slopes.len();
        let scale = 1.0 / (d as f32).sqrt();
        let mut out = vec![0.0f32; m * hidden];
        for (head, &slope) in slopes.iter().enumerate() {
            let (lo, hi) = (head * d, (head + 1) * d);
            for i in 0..m {
                let qi = &q[i * hidden..][lo..hi];
                let limit = past + i;
                let mut scores: Vec<f32> = (0..=limit)
                    .map(|j| {
                        dot(qi, &k_row(j)[lo..hi], fused) * scale - slope * (limit - j) as f32
                    })
                    .collect();
                let max = scores.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                let mut sum = 0.0f32;
                for s in scores.iter_mut() {
                    *s = exp(*s - max);
                    sum += *s;
                }
                let inv = 1.0 / sum;
                for (j, e) in scores.iter().enumerate() {
                    let p = e * inv;
                    for (o, &vv) in out[i * hidden..][lo..hi].iter_mut().zip(&v_row(j)[lo..hi]) {
                        *o = mac(p, vv, *o, fused);
                    }
                }
            }
        }
        out
    }

    /// K/V for `t` positions stored out of order in an arena, the way a
    /// paged block chain scatters them.
    struct Scattered {
        k: Vec<f32>,
        v: Vec<f32>,
        hidden: usize,
        slot: Vec<usize>,
    }

    impl Scattered {
        fn new(t: usize, hidden: usize, seed: u64) -> Self {
            // Position j lives in arena row (7j + 3) mod p for a prime
            // p ≥ t other than 7, which would put every j in one row.
            let p = (t.max(8)..).find(|n| (2..*n).all(|f| n % f != 0)).unwrap();
            Self {
                k: pseudo(p * hidden, seed),
                v: pseudo(p * hidden, seed ^ 0xBEEF),
                hidden,
                slot: (0..t).map(|j| (7 * j + 3) % p).collect(),
            }
        }

        fn k_row(&self, j: usize) -> &[f32] {
            &self.k[self.slot[j] * self.hidden..][..self.hidden]
        }

        fn v_row(&self, j: usize) -> &[f32] {
            &self.v[self.slot[j] * self.hidden..][..self.hidden]
        }
    }

    fn slopes(n_heads: usize, alibi: bool) -> Vec<f32> {
        (0..n_heads).map(|h| if alibi { 0.5f32.powi(h as i32 + 1) } else { 0.0 }).collect()
    }

    fn run(cap: Isa, q: &[f32], m: usize, past: usize, slopes: &[f32], kv: &Scattered) -> Vec<f32> {
        let mut out = vec![f32::NAN; q.len()];
        let call = Attention {
            q,
            m,
            hidden: kv.hidden,
            past,
            slopes,
            k_row: |j| kv.k_row(j),
            v_row: |j| kv.v_row(j),
            out: &mut out,
        };
        attention_on(cap, call);
        out
    }

    #[test]
    fn matches_the_scalar_reference_at_prefill_decode_and_block_edges() {
        // (m, past): whole prompts, chunks on a cache, decode steps, and
        // shapes that cross the 64-row block and the 64-position tile.
        for &(m, past) in &[(1, 0), (1, 5), (1, 130), (3, 70), (5, 0), (64, 0), (64, 64), (70, 3), (9, 120)] {
            for &(n_heads, d) in &[(1, 4), (2, 12), (4, 64), (4, 8)] {
                for alibi in [false, true] {
                    let hidden = n_heads * d;
                    let kv = Scattered::new(past + m, hidden, (m * 131 + past) as u64);
                    let q = pseudo(m * hidden, 17 + d as u64);
                    let s = slopes(n_heads, alibi);
                    let want = reference(&q, m, hidden, past, &s, |j| kv.k_row(j), |j| kv.v_row(j), true);
                    let mut got = vec![f32::NAN; m * hidden];
                    attention(&q, m, hidden, past, &s, |j| kv.k_row(j), |j| kv.v_row(j), &mut got);
                    assert_bit_identical(&got, &want);
                }
            }
        }
    }

    #[test]
    fn masked_positions_are_never_read_into_a_result() {
        // Whatever sits in rows a query may not attend to — stale rows of
        // a reused block, NaN, infinities — leaves no trace.
        let (m, past, n_heads, d) = (6, 9, 2, 12);
        let hidden = n_heads * d;
        let kv = Scattered::new(past + m, hidden, 5);
        let q = pseudo(m * hidden, 6);
        let s = slopes(n_heads, true);
        let whole = run(Isa::Avx512, &q, m, past, &s, &kv);
        for i in 0..m {
            // Row i alone, with every later position poisoned.
            let mut poisoned = Scattered::new(past + m, hidden, 5);
            for j in past + i + 1..past + m {
                let at = poisoned.slot[j] * hidden;
                poisoned.k[at..at + hidden].fill(f32::NAN);
                poisoned.v[at..at + hidden].fill(f32::INFINITY);
            }
            let alone = run(Isa::Avx512, &q[i * hidden..][..hidden], 1, past + i, &s, &poisoned);
            assert_bit_identical(&alone, &whole[i * hidden..][..hidden]);
        }
    }

    #[test]
    fn empty_call_and_bad_head_count() {
        attention(&[], 0, 8, 3, &[0.0, 0.0], |_| &[][..], |_| &[][..], &mut []);
        let bad = std::panic::catch_unwind(|| {
            attention(&[0.0; 6], 1, 6, 0, &[0.0; 4], |_| &[0.0; 6][..], |_| &[0.0; 6][..], &mut [0.0; 6]);
        });
        assert!(bad.is_err(), "6 columns cannot be split into 4 heads");
    }

    /// Both sweeps take one fused multiply-add per term, which the
    /// bit-identity tests alone would not notice if the kernel and the
    /// reference went back to a separate multiply and add together. Every
    /// query element is `s` and each head of key `j` is `−s, s` (times
    /// `2^(j % 4)`) at two adjacent dimensions ([`split_square`]), so
    /// fused scores are `2⁻⁶ · 2^(j % 4)` where unfused ones are all `0`:
    /// the probabilities, and with random values every output, differ.
    #[test]
    fn every_term_is_one_fused_multiply_add() {
        let (n_heads, d, past) = (2, 16, 5);
        let hidden = n_heads * d;
        let s = split_square(1024.0);
        let heads = slopes(n_heads, false);
        for m in [1, 3, 4, 67] {
            let mut kv = Scattered::new(past + m, hidden, 9);
            for j in 0..past + m {
                let row = &mut kv.k[kv.slot[j] * hidden..][..hidden];
                row.fill(0.0);
                let (at, mag) = (2 * (j % (d / 2)), (1 << (j % 4)) as f32);
                for head in row.chunks_exact_mut(d) {
                    (head[at], head[at + 1]) = (-s * mag, s * mag);
                }
            }
            let q = vec![s; m * hidden];
            let fused = reference(&q, m, hidden, past, &heads, |j| kv.k_row(j), |j| kv.v_row(j), true);
            let unfused = reference(&q, m, hidden, past, &heads, |j| kv.k_row(j), |j| kv.v_row(j), false);
            for (o, (f, u)) in fused.iter().zip(&unfused).enumerate() {
                assert_ne!(f.to_bits(), u.to_bits(), "m {m} output {o}: the inputs must tell the two apart");
            }
            for isa in std::iter::once(Isa::Baseline).chain(wider_instantiations()) {
                assert_bit_identical(&run(isa, &q, m, past, &heads, &kv), &fused);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both sweeps in every instantiation the host can run agree bit
        /// for bit with each other and with the scalar reference, and row
        /// `i` of an `m`-row call is the one-row call at `past + i`.
        #[test]
        fn every_attention_instantiation_is_bit_identical(
            n_heads in prop_oneof![Just(1usize), Just(2), Just(4)],
            d in prop_oneof![Just(4usize), Just(12), Just(64), Just(9)],
            m in 1usize..=70,
            past in 0usize..=80,
            alibi in prop_oneof![Just(false), Just(true)],
            seed in 0u64..1000,
        ) {
            let hidden = n_heads * d;
            let kv = Scattered::new(past + m, hidden, seed);
            let q = pseudo(m * hidden, seed ^ 0x5A5A);
            let s = slopes(n_heads, alibi);
            let base = run(Isa::Baseline, &q, m, past, &s, &kv);
            assert_bit_identical(&base, &reference(&q, m, hidden, past, &s, |j| kv.k_row(j), |j| kv.v_row(j), true));
            let i = seed as usize % m;
            let alone = run(Isa::Baseline, &q[i * hidden..][..hidden], 1, past + i, &s, &kv);
            assert_bit_identical(&alone, &base[i * hidden..][..hidden]);
            for isa in wider_instantiations() {
                assert_bit_identical(&run(isa, &q, m, past, &s, &kv), &base);
            }
        }
    }
}
