//! Causal multi-head attention over K/V stored the way it reads them.
//!
//! [`attention`] takes the new query rows and the cached keys and values
//! as [`KvBlocks`] — 16-position blocks, handed out one call per block —
//! so one kernel serves a paged block chain, read where it lives, and a
//! contiguous cache, whose keys [`RowKv`] transposes into blocks once per
//! call. No head is copied out: a head is a slice of every block.
//!
//! ## Layout
//!
//! A block is [`KV_BLOCK`] = 16 positions. Its keys are k-major:
//! `key_block[dim · 16 + slot]` is dimension `dim` of position
//! `16 · b + slot`. QKᵀ sums over `dim` with positions in lanes, so the `d`
//! dimensions of one head — the contiguous `[lo · 16, (lo + d) · 16)` of a
//! key block — are the `d` k-steps of sixteen independent chains, laid
//! out exactly as a panel of the GEMM kernel: nothing is transposed on
//! the way in. Its values are rows: PV sums over positions with `dim` in
//! lanes, so one value row already is one k-step of that sweep, and a
//! block is 16 of them back to back.
//!
//! ```text
//! for each block of ≤ 64 query rows (row i sits at position past + i and attends to j ≤ past + i):
//!   rows < MR = 4 (decode) — one row at a time, nothing staged:
//!     per head  s[j] = Σ_d q[d] · k[j][d]     PANELS = 4 key blocks in flight, read in place,
//!                                            one 16-lane chain each
//!               s[j] ← s[j] · 1/√d − slope · (past + i − j)      (ALiBi; slope 0 = none)
//!               p = softmax(s[0 ..= past + i])                    live prefix only
//!     per block out[d] += Σ_slot p[j] · v[j][d]   the block's 16 value rows read in place
//!                                            for every head in turn, d in lanes:
//!                                            PANELS × 16 dims of sums in registers
//!   rows ≥ MR (prefill) — per head, staged register blocks:
//!     sweep 1  the blocked GEMM kernel with the key blocks as the weight: a tile is a copy of
//!              a block's head rows, swept over the rows 4 at a time, four key blocks at a
//!              time under AVX-512; blocks no row attends to are skipped
//!     row-wise scale, ALiBi and softmax as above
//!     sweep 2  ≤ 64 value rows staged once per tile, d in lanes, 4 rows × 16 lanes of
//!              accumulators in registers — × 4 lane chunks of the head (d ≥ 64) under
//!              AVX-512, sixteen zmm chains as in the GEMM
//! ```
//!
//! The masked triangle `j > past + i` is never exponentiated, summed or
//! multiplied, and (beyond the few lanes of the block that straddles the
//! diagonal) never computed. Slots of the last block past the cached
//! length may hold anything — a reused block's previous keys and values,
//! NaN — and reach no result either: lanes are distinct outputs, only the
//! live prefix of a score row is read, and only live value rows are. Score
//! rows and the staged value tiles live in one buffer per thread, grown to
//! the longest call it has seen, and the key tiles in the GEMM's
//! per-thread scratch: neither body allocates or clears anything per call.
//!
//! ## Summation order
//!
//! Every score is the ascending-`d` chain of fused multiply-adds
//! (`q.mul_add(k, acc)`) from `+0.0`, every softmax sum the ascending-`j`
//! chain of adds over the live prefix, and every output the ascending-`j`
//! chain of fused multiply-adds from `+0.0` in which each live position
//! contributes `p · v` exactly once (a zero probability is not skipped) —
//! in both bodies, and a fused multiply-add rounds once in every
//! instantiation. Blocking only interleaves distinct outputs. Row `i` of
//! an `m`-row call is therefore bit-identical to the one-row call at
//! `past + i`, whichever body either ran in, so chunked prefill ≡
//! whole-prompt prefill ≡ token-by-token decode `to_bits()`, in every ISA
//! instantiation — what lets serving chunk, preempt and recompute without
//! changing a token.

use crate::dispatch::{cap, dispatch, Body, Isa};
use crate::elementwise::softmax_row;
use crate::gemm::{mac_rows, staged_panels, with_scratch, Scratch, TileSource, MR, PANELS, ROW_BLOCK, TILE_K};
use crate::pack::LANES;
use std::cell::RefCell;

/// Positions per block: one lane per position.
pub const KV_BLOCK: usize = LANES;

/// Cached positions per staged value tile (`TILE_J × d` f32: 16 KB at
/// `d = 64`, L1-resident beside the probabilities it is swept with). A
/// whole number of blocks.
const TILE_J: usize = 64;

/// One sequence's cached keys and values as attention reads them,
/// [`KV_BLOCK`] positions at a time.
pub trait KvBlocks {
    /// The keys of block `b` — positions `[16 · b, 16 · b + 16)` — as
    /// `hidden × 16` floats, `block[dim · 16 + slot]`. Slots past the last
    /// cached position may hold anything.
    fn key_block(&self, b: usize) -> &[f32];
    /// The values of block `b` as rows, `hidden` floats each, position
    /// `16 · b` first: at least every cached position's row (a block of a
    /// contiguous cache ends at the last one; a paged block holds 16, the
    /// rows past the cached length holding anything).
    fn value_block(&self, b: usize) -> &[f32];
}

/// A contiguous row-major cache as blocks: its keys transposed into
/// blocks — the work a row-major source pays on every call — and its
/// value rows read in place. The form the offline oracle, calibration and
/// the KV transfer path keep K/V in.
#[derive(Debug, Clone)]
pub struct RowKv<'a> {
    hidden: usize,
    keys: Vec<f32>,
    values: &'a [f32],
}

impl<'a> RowKv<'a> {
    /// The first `n` positions of key rows `k` and value rows `v`
    /// (`hidden` wide, row-major); the last key block's slots past `n`
    /// are zero.
    pub fn new(k: &[f32], v: &'a [f32], n: usize, hidden: usize) -> Self {
        let block = hidden * KV_BLOCK;
        let mut keys = vec![0.0f32; n.div_ceil(KV_BLOCK) * block];
        for (pos, row) in k[..n * hidden].chunks_exact(hidden.max(1)).enumerate() {
            let dst = &mut keys[pos / KV_BLOCK * block + pos % KV_BLOCK..];
            for (dim, &x) in row.iter().enumerate() {
                dst[dim * KV_BLOCK] = x;
            }
        }
        Self { hidden, keys, values: &v[..n * hidden] }
    }
}

impl KvBlocks for RowKv<'_> {
    fn key_block(&self, b: usize) -> &[f32] {
        let block = self.hidden * KV_BLOCK;
        &self.keys[b * block..][..block]
    }

    fn value_block(&self, b: usize) -> &[f32] {
        let rows = &self.values[b * KV_BLOCK * self.hidden..];
        &rows[..rows.len().min(KV_BLOCK * self.hidden)]
    }
}

/// `out = softmax(q · Kᵀ / √d + ALiBi, causal) · V` for `m` new positions
/// of one sequence.
///
/// `q` and `out` are `m × hidden` row-major; `slopes` holds one ALiBi
/// slope per head (`0.0` for none), so `hidden / slopes.len()` is the
/// head width `d`; `kv` holds the blocks of positions `0 .. past + m`,
/// the new positions included. Query row `i` sits at position `past + i`
/// and attends to positions `0 ..= past + i`. `out` is overwritten.
pub fn attention(q: &[f32], m: usize, hidden: usize, past: usize, slopes: &[f32], kv: &impl KvBlocks, out: &mut [f32]) {
    attention_on(cap(), q, m, hidden, past, slopes, kv, out);
}

thread_local! {
    /// Score rows of the calls on this thread — one row per head for the
    /// decode body, a row block's worth for the staged one — and behind
    /// them the staged body's value tiles. Grown, never cleared: a score
    /// is written before it is read, and a tile lane is staged before any
    /// output reads it.
    static SCORES: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

#[allow(clippy::too_many_arguments)]
fn attention_on<K: KvBlocks>(
    cap: Isa,
    q: &[f32],
    m: usize,
    hidden: usize,
    past: usize,
    slopes: &[f32],
    kv: &K,
    out: &mut [f32],
) {
    let n_heads = slopes.len();
    assert!(n_heads > 0 && hidden.is_multiple_of(n_heads), "hidden must divide evenly by heads");
    assert_eq!(q.len(), m * hidden, "query shape mismatch");
    assert_eq!(out.len(), m * hidden, "output shape mismatch");
    assert!(past + m <= i32::MAX as usize, "sequence too long");
    if m == 0 {
        return;
    }
    let ld = (past + m).next_multiple_of(LANES);
    let decode = n_heads * ld;
    let (need, staged) = match m < MR {
        true => (decode, 0),
        false => ((m.min(ROW_BLOCK) * ld).max(decode), (hidden / n_heads).div_ceil(LANES) * TILE_J * LANES),
    };
    SCORES.with_borrow_mut(|buf| {
        if buf.len() < need + staged {
            buf.resize(need + staged, 0.0);
        }
        let (scores, staged) = buf[..need + staged].split_at_mut(need);
        with_scratch(|scratch| {
            dispatch(cap, Attention { q, m, hidden, past, slopes, kv, out, scores, ld, staged, scratch });
        });
    });
}

struct Attention<'a, K> {
    q: &'a [f32],
    m: usize,
    hidden: usize,
    past: usize,
    slopes: &'a [f32],
    kv: &'a K,
    out: &'a mut [f32],
    /// Row `r` of a staged block is `scores[r * ld..][..ld]`; a decode
    /// row has one such row per head.
    scores: &'a mut [f32],
    ld: usize,
    /// The staged body's value tiles: [`TILE_J`] positions of every lane
    /// chunk of a head.
    staged: &'a mut [f32],
    scratch: &'a mut Scratch,
}

impl<K: KvBlocks> Body for Attention<'_, K> {
    type Out = ();

    #[inline(always)]
    fn run(self, isa: Isa) {
        let Attention { q, m, hidden, past, slopes, kv, out, scores, ld, staged, scratch } = self;
        let d = hidden / slopes.len();
        let scale = 1.0 / (d as f32).sqrt();
        for i0 in (0..m).step_by(ROW_BLOCK) {
            let rows = ROW_BLOCK.min(m - i0);
            if rows < MR {
                for i in i0..i0 + rows {
                    let (q, out) = (&q[i * hidden..][..hidden], &mut out[i * hidden..][..hidden]);
                    decode_row(q, past + i, d, scale, slopes, kv, out, scores);
                }
                continue;
            }
            // Row `r` of the block attends to positions `j ≤ visible + r`.
            let visible = past + i0;
            for (head, &slope) in slopes.iter().enumerate() {
                let lo = head * d;
                let keys = HeadKeys { kv, lo, n: visible + rows, d, past: visible };
                staged_panels(isa, &q[i0 * hidden + lo..], hidden, &keys, scores, ld, rows, scratch);
                for r in 0..rows {
                    let limit = visible + r;
                    scale_and_normalise(&mut scores[r * ld..][..=limit], scale, slope);
                }
                let block_out = &mut out[i0 * hidden + lo..];
                weighted_values(isa, scores, ld, rows, visible, kv, hidden, lo, d, block_out, staged);
            }
        }
    }
}

/// One score row over the live prefix `row = s[0 ..= limit]`: scale, the
/// ALiBi distance penalty, softmax.
#[inline(always)]
fn scale_and_normalise(row: &mut [f32], scale: f32, slope: f32) {
    let limit = row.len() - 1;
    for (j, s) in row.iter_mut().enumerate() {
        *s = *s * scale - slope * ((limit - j) as i32 as f32);
    }
    softmax_row(row);
}

/// The decode body: one query row at position `limit`, every head, the
/// key blocks and value rows read where they live. Every score is one
/// chain in registers; every output sums in registers across a value
/// block and rests in `out` between blocks (a store and a reload of the
/// same bits). `scores` holds, per head, a row of `limit + 1` floats
/// rounded up to a whole block.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn decode_row<K: KvBlocks>(
    q: &[f32],
    limit: usize,
    d: usize,
    scale: f32,
    slopes: &[f32],
    kv: &K,
    out: &mut [f32],
    scores: &mut [f32],
) {
    let hidden = q.len();
    let n_blocks = (limit + 1).div_ceil(LANES);
    let ld = n_blocks * LANES;
    for (head, &slope) in slopes.iter().enumerate() {
        let lo = head * d;
        let q = &q[lo..lo + d];
        let s = &mut scores[head * ld..][..ld];
        let mut b = 0;
        while b + PANELS <= n_blocks {
            block_scores::<K, PANELS>(q, kv, b, lo, &mut s[b * LANES..]);
            b += PANELS;
        }
        while b < n_blocks {
            block_scores::<K, 1>(q, kv, b, lo, &mut s[b * LANES..]);
            b += 1;
        }
        scale_and_normalise(&mut s[..=limit], scale, slope);
    }
    // The value rows a block at a time, every head's sums advanced over
    // each before the next: a block is 16 rows back to back, read once
    // in order (head by head over all rows, the same bytes ran ~10 %
    // slower at 60–128 positions).
    out.fill(0.0);
    for b in 0..n_blocks {
        let rows = kv.value_block(b);
        let live = LANES.min(limit + 1 - b * LANES);
        for head in 0..slopes.len() {
            let p = &scores[head * ld + b * LANES..][..live];
            let lo = head * d;
            let mut c = 0;
            while c + PANELS * LANES <= d {
                value_lanes::<PANELS>(p, rows, hidden, lo + c, &mut out[lo + c..]);
                c += PANELS * LANES;
            }
            while c + LANES <= d {
                value_lanes::<1>(p, rows, hidden, lo + c, &mut out[lo + c..]);
                c += LANES;
            }
            if c < d {
                let w = d - c;
                let o = &mut out[lo + c..lo + d];
                for (slot, &pj) in p.iter().enumerate() {
                    for (a, &v) in o.iter_mut().zip(&rows[slot * hidden + lo + c..][..w]) {
                        *a = pj.mul_add(v, *a);
                    }
                }
            }
        }
    }
}

/// The 16 scores of each of blocks `[b, b + P)` for one head's query `q`
/// into `scores[..P * 16]`: `P` blocks in flight, one chain per lane,
/// ascending `d` from `+0.0`.
#[inline(always)]
fn block_scores<K: KvBlocks, const P: usize>(q: &[f32], kv: &K, b: usize, lo: usize, scores: &mut [f32]) {
    let d = q.len();
    let mut tiles: [&[f32]; P] = [&[]; P];
    for (p, tile) in tiles.iter_mut().enumerate() {
        *tile = &kv.key_block(b + p)[lo * LANES..(lo + d) * LANES];
    }
    let mut acc = [[0.0f32; LANES]; P];
    mac_rows::<1, P>(q, 0, tiles, acc.as_flattened_mut());
    scores[..P * LANES].copy_from_slice(acc.as_flattened());
}

/// `out[..P * 16] += Σ_slot p[slot] · rows[slot][at..at + P * 16]`, the
/// sums in registers across the block, in ascending slot order.
#[inline(always)]
fn value_lanes<const P: usize>(p: &[f32], rows: &[f32], hidden: usize, at: usize, out: &mut [f32]) {
    let out = &mut out.as_chunks_mut::<LANES>().0[..P];
    let mut acc = [[0.0f32; LANES]; P];
    for (a, o) in acc.iter_mut().zip(out.iter()) {
        *a = *o;
    }
    for (slot, &pj) in p.iter().enumerate() {
        let v = &rows[slot * hidden + at..].as_chunks::<LANES>().0[..P];
        for (a, v) in acc.iter_mut().zip(v) {
            for lane in 0..LANES {
                a[lane] = pj.mul_add(v[lane], a[lane]);
            }
        }
    }
    for (o, a) in out.iter_mut().zip(acc) {
        *o = a;
    }
}

/// One head's cached keys as the weight of the blocked GEMM kernel:
/// output `j` is position `j` (a panel is a key block), the reduction
/// runs over the head's `d` dimensions, and row `i` of the activation
/// block reads only outputs `j ≤ past + i`. A tile is a plain copy out of
/// a block.
struct HeadKeys<'a, K> {
    kv: &'a K,
    lo: usize,
    n: usize,
    d: usize,
    past: usize,
}

impl<K: KvBlocks> TileSource for HeadKeys<'_, K> {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.d
    }

    fn group(&self) -> usize {
        TILE_K
    }

    #[inline(always)]
    fn first_row(&self, j: usize) -> usize {
        j.saturating_sub(self.past)
    }

    #[inline(always)]
    fn fill(&self, _: Isa, panel: usize, k_lo: usize, tile: &mut [f32]) {
        tile.copy_from_slice(&self.kv.key_block(panel)[(self.lo + k_lo) * LANES..][..tile.len()]);
    }
}

/// Sweep 2 of the staged body for one block of `rows ≥ MR` rows of one
/// head: `out[r * hidden + dd] = Σ_j p[r * ld + j] · v[j][lo + dd]` over
/// `j ≤ visible + r`, ascending. The register block is `MR` rows of
/// `PANELS` lane chunks under AVX-512 while that many remain, as in the
/// GEMM's staged sweep, and `MR` rows of one chunk otherwise.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn weighted_values<K: KvBlocks>(
    isa: Isa,
    p: &[f32],
    ld: usize,
    rows: usize,
    visible: usize,
    kv: &K,
    hidden: usize,
    lo: usize,
    d: usize,
    out: &mut [f32],
    staged: &mut [f32],
) {
    for r in 0..rows {
        out[r * hidden..][..d].fill(0.0);
    }
    let chunks = d.div_ceil(LANES);
    let n_live = visible + rows;
    let mut j_lo = 0;
    while j_lo < n_live {
        // Stage the tile lane-chunk-major: `staged[c][jj]` is the `LANES`
        // values `v(j_lo + jj)[lo + LANES·c ..]`, the layout `mac_rows`
        // sweeps, a value block at a time.
        let len = TILE_J.min(n_live - j_lo);
        for jj0 in (0..len).step_by(KV_BLOCK) {
            let block = kv.value_block((j_lo + jj0) / KV_BLOCK);
            for (slot, v) in block.chunks_exact(hidden.max(1)).take(len - jj0).enumerate() {
                for (c, part) in v[lo..lo + d].chunks(LANES).enumerate() {
                    staged[(c * TILE_J + jj0 + slot) * LANES..][..part.len()].copy_from_slice(part);
                }
            }
        }
        let tile = |c: usize| &staged[c * TILE_J * LANES..][..len * LANES];
        // How many of the tile's positions row `i` attends to, and the
        // first row that attends to any.
        let live = |i: usize| (visible + i + 1 - j_lo).min(len);
        let first = j_lo.saturating_sub(visible);
        // Lane chunks `[c, c + P)` of every row that attends to the tile.
        macro_rules! sweep {
            ($p:expr, $c:expr) => {{
                const P: usize = $p;
                let c = $c;
                let mut tiles: [&[f32]; P] = [&[]; P];
                for (q, t) in tiles.iter_mut().enumerate() {
                    *t = tile(c + q);
                }
                let mut i = first;
                while i + MR <= rows {
                    let mut lives = [0; MR];
                    for (r, l) in lives.iter_mut().enumerate() {
                        *l = live(i + r);
                    }
                    let at = &mut out[i * hidden + c * LANES..];
                    value_block::<MR, P>(&p[i * ld + j_lo..], ld, tiles, lives, at, hidden, d - c * LANES);
                    i += MR;
                }
                while i < rows {
                    let at = &mut out[i * hidden + c * LANES..];
                    value_block::<1, P>(&p[i * ld + j_lo..], ld, tiles, [live(i)], at, hidden, d - c * LANES);
                    i += 1;
                }
            }};
        }
        let mut c = 0;
        if isa == Isa::Avx512 {
            while c + PANELS <= chunks {
                sweep!(PANELS, c);
                c += PANELS;
            }
        }
        while c < chunks {
            sweep!(1, c);
            c += 1;
        }
        j_lo += len;
    }
}

/// `R` rows of `P` lane chunks of outputs advanced over their staged
/// tiles. Row `r` reads `p[r * ld..]` and attends to the tiles' first
/// `live[r]` positions (`live` does not decrease: the causal diagonal);
/// its accumulators rest in `out[r * ldo..]`, of which `width` lanes
/// exist.
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
    let mut part: [&[f32]; P] = [&[]; P];
    for (t, tile) in part.iter_mut().zip(tiles) {
        *t = &tile[..shared * LANES];
    }
    mac_rows::<R, P>(p, ld, part, acc.as_flattened_mut().as_flattened_mut());
    for r in 1..R {
        for (t, tile) in part.iter_mut().zip(tiles) {
            *t = &tile[shared * LANES..live[r] * LANES];
        }
        mac_rows::<1, P>(&p[r * ld + shared..], ld, part, acc[r].as_flattened_mut());
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
    /// model's `exp` — for one score row at a time, keys and values read
    /// as rows. Both dot products take one fused multiply-add per term, or
    /// with `fused = false` a separate multiply and add.
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

    /// K/V of `t` positions in blocks stored out of order in an arena, the
    /// way a paged chain scatters them — keys k-major per block, values
    /// row-major — beside the same rows kept contiguous.
    struct Scattered {
        hidden: usize,
        /// Arena block of each block of the chain.
        slot: Vec<usize>,
        k: Vec<f32>,
        v: Vec<f32>,
        k_rows: Vec<f32>,
        v_rows: Vec<f32>,
    }

    impl Scattered {
        fn new(t: usize, hidden: usize, seed: u64) -> Self {
            Self::from_rows(pseudo(t * hidden, seed), pseudo(t * hidden, seed ^ 0xBEEF), hidden)
        }

        fn from_rows(k_rows: Vec<f32>, v_rows: Vec<f32>, hidden: usize) -> Self {
            let t = k_rows.len() / hidden;
            // Block b lives in arena block (7b + 3) mod p for a prime
            // p ≥ the chain other than 7, which would put every b in one.
            let n_blocks = t.div_ceil(KV_BLOCK);
            let p = (n_blocks.max(8)..).find(|n| (2..*n).all(|f| n % f != 0)).unwrap();
            let block = hidden * KV_BLOCK;
            let mut kv = Self {
                hidden,
                slot: (0..n_blocks).map(|b| (7 * b + 3) % p).collect(),
                k: pseudo(p * block, 0x51A1E),
                v: pseudo(p * block, 0x51A1F),
                k_rows,
                v_rows,
            };
            for pos in 0..t {
                let (k, v) = (kv.k_rows[pos * hidden..][..hidden].to_vec(), kv.v_rows[pos * hidden..][..hidden].to_vec());
                kv.set_row(pos, &k, &v);
            }
            kv
        }

        /// Arena offsets of position `pos`: its key block and its value row.
        fn at(&self, pos: usize) -> (usize, usize) {
            let b = self.slot[pos / KV_BLOCK];
            (b * self.hidden * KV_BLOCK + pos % KV_BLOCK, (b * KV_BLOCK + pos % KV_BLOCK) * self.hidden)
        }

        /// Write `k` / `v` into position `pos`'s places in the arena only.
        fn set_row(&mut self, pos: usize, k: &[f32], v: &[f32]) {
            let (kb, vr) = self.at(pos);
            for (dim, &x) in k.iter().enumerate() {
                self.k[kb + dim * KV_BLOCK] = x;
            }
            self.v[vr..vr + self.hidden].copy_from_slice(v);
        }

        fn k_row(&self, j: usize) -> &[f32] {
            &self.k_rows[j * self.hidden..][..self.hidden]
        }

        fn v_row(&self, j: usize) -> &[f32] {
            &self.v[self.at(j).1..][..self.hidden]
        }
    }

    impl KvBlocks for Scattered {
        fn key_block(&self, b: usize) -> &[f32] {
            &self.k[self.slot[b] * self.hidden * KV_BLOCK..][..self.hidden * KV_BLOCK]
        }

        fn value_block(&self, b: usize) -> &[f32] {
            &self.v[self.slot[b] * self.hidden * KV_BLOCK..][..self.hidden * KV_BLOCK]
        }
    }

    fn slopes(n_heads: usize, alibi: bool) -> Vec<f32> {
        (0..n_heads).map(|h| if alibi { 0.5f32.powi(h as i32 + 1) } else { 0.0 }).collect()
    }

    /// Over the scattered blocks in place.
    fn run(cap: Isa, q: &[f32], m: usize, past: usize, slopes: &[f32], kv: &Scattered) -> Vec<f32> {
        let mut out = vec![f32::NAN; q.len()];
        attention_on(cap, q, m, kv.hidden, past, slopes, kv, &mut out);
        out
    }

    /// Over the contiguous rows, keys transposed into blocks per call:
    /// what a row-major `KvCache` hands attention.
    fn run_rows(cap: Isa, q: &[f32], m: usize, past: usize, slopes: &[f32], kv: &Scattered) -> Vec<f32> {
        let rows = RowKv::new(&kv.k_rows, &kv.v_rows, past + m, kv.hidden);
        let mut out = vec![f32::NAN; q.len()];
        attention_on(cap, q, m, kv.hidden, past, slopes, &rows, &mut out);
        out
    }

    #[test]
    fn matches_the_scalar_reference_at_prefill_decode_and_block_edges() {
        // (m, past): whole prompts, chunks on a cache, decode steps, and
        // shapes that cross key blocks, the 64-row block and the
        // 64-position tile.
        for &(m, past) in &[(1, 0), (1, 5), (1, 15), (1, 16), (1, 130), (3, 70), (5, 0), (64, 0), (64, 64), (70, 3), (9, 120)] {
            for &(n_heads, d) in &[(1, 4), (2, 12), (4, 64), (4, 8)] {
                for alibi in [false, true] {
                    let hidden = n_heads * d;
                    let kv = Scattered::new(past + m, hidden, (m * 131 + past) as u64);
                    let q = pseudo(m * hidden, 17 + d as u64);
                    let s = slopes(n_heads, alibi);
                    let want = reference(&q, m, hidden, past, &s, |j| kv.k_row(j), |j| kv.v_row(j), true);
                    let mut got = vec![f32::NAN; m * hidden];
                    attention(&q, m, hidden, past, &s, &kv, &mut got);
                    assert_bit_identical(&got, &want);
                }
            }
        }
    }

    #[test]
    fn masked_positions_are_never_read_into_a_result() {
        // Whatever sits where a query may not look leaves no trace: the
        // slots of the chain's last block past the cached length — a
        // block taken back off a LIFO free list keeps its previous
        // occupant's keys and values there — and, for each row alone,
        // every position beyond its causal limit. NaN and infinities in
        // both, through both bodies, in every instantiation.
        let (n_heads, d) = (4, 12);
        let hidden = n_heads * d;
        let s = slopes(n_heads, true);
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for (m, past) in [(1, 0), (1, 17), (3, 40), (6, 9), (66, 3), (4, 60)] {
            let t = past + m;
            let clean = Scattered::new(t, hidden, 77);
            let q = pseudo(m * hidden, 78);
            let want = reference(&q, m, hidden, past, &s, |j| clean.k_row(j), |j| clean.v_row(j), true);
            // Poison every position from `from` to the end of its block.
            let poisoned = |from: usize| {
                let mut kv = Scattered::new(t, hidden, 77);
                for pos in from..t.next_multiple_of(KV_BLOCK) {
                    let x = poison[pos % 3];
                    kv.set_row(pos, &vec![x; hidden], &vec![-x; hidden]);
                }
                kv
            };
            let stale = poisoned(t);
            for isa in std::iter::once(Isa::Baseline).chain(wider_instantiations()) {
                assert_bit_identical(&run(isa, &q, m, past, &s, &stale), &want);
                for i in 0..m {
                    let alone = run(isa, &q[i * hidden..][..hidden], 1, past + i, &s, &poisoned(past + i + 1));
                    assert_bit_identical(&alone, &want[i * hidden..][..hidden]);
                }
            }
        }
    }

    #[test]
    fn empty_call_and_bad_head_count() {
        attention(&[], 0, 8, 3, &[0.0, 0.0], &RowKv::new(&[], &[], 0, 8), &mut []);
        let bad = std::panic::catch_unwind(|| {
            let kv = RowKv::new(&[0.0; 6], &[0.0; 6], 1, 6);
            attention(&[0.0; 6], 1, 6, 0, &[0.0; 4], &kv, &mut [0.0; 6]);
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
            let t = past + m;
            let mut k_rows = vec![0.0f32; t * hidden];
            for (j, row) in k_rows.chunks_exact_mut(hidden).enumerate() {
                let (at, mag) = (2 * (j % (d / 2)), (1 << (j % 4)) as f32);
                for head in row.chunks_exact_mut(d) {
                    (head[at], head[at + 1]) = (-s * mag, s * mag);
                }
            }
            let kv = Scattered::from_rows(k_rows, pseudo(t * hidden, 9), hidden);
            let q = vec![s; m * hidden];
            let fused = reference(&q, m, hidden, past, &heads, |j| kv.k_row(j), |j| kv.v_row(j), true);
            let unfused = reference(&q, m, hidden, past, &heads, |j| kv.k_row(j), |j| kv.v_row(j), false);
            for (o, (f, u)) in fused.iter().zip(&unfused).enumerate() {
                assert_ne!(f.to_bits(), u.to_bits(), "m {m} output {o}: the inputs must tell the two apart");
            }
            for isa in std::iter::once(Isa::Baseline).chain(wider_instantiations()) {
                assert_bit_identical(&run(isa, &q, m, past, &heads, &kv), &fused);
                assert_bit_identical(&run_rows(isa, &q, m, past, &heads, &kv), &fused);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The staged body's register blocks — `MR` rows of four key
        /// blocks for QKᵀ and of four lane chunks for PV under AVX-512 —
        /// in every instantiation: at whole four-row groups and row tails,
        /// on an empty cache, a short one and a whole row block's worth,
        /// the call is the scalar reference and every row of it the
        /// one-row decode call at `past + i`.
        #[test]
        fn every_staged_row_is_the_decode_call_at_its_position(
            m in prop::sample::select(vec![4usize, 17, 64, 70]),
            past in prop::sample::select(vec![0usize, 5, 64]),
            shape in prop::sample::select(vec![(4usize, 64usize), (2, 24), (1, 9)]),
            seed in 0u64..1000,
        ) {
            let (n_heads, d) = shape;
            let hidden = n_heads * d;
            let kv = Scattered::new(past + m, hidden, seed);
            let q = pseudo(m * hidden, seed ^ 0xA5A5);
            let s = slopes(n_heads, seed % 2 == 1);
            let want = reference(&q, m, hidden, past, &s, |j| kv.k_row(j), |j| kv.v_row(j), true);
            for isa in std::iter::once(Isa::Baseline).chain(wider_instantiations()) {
                let got = run(isa, &q, m, past, &s, &kv);
                assert_bit_identical(&got, &want);
                for i in 0..m {
                    let alone = run(isa, &q[i * hidden..][..hidden], 1, past + i, &s, &kv);
                    assert_bit_identical(&alone, &got[i * hidden..][..hidden]);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both bodies in every instantiation the host can run, over key
        /// blocks in place, agree bit for bit with the scalar reference
        /// and with the same call over a row-major cache; and row `i` of
        /// an `m`-row call is the one-row call at `past + i` in each
        /// instantiation. `m` reaches both bodies (and a staged block
        /// with a decode tail), `d` leaves lane tails, `past` crosses
        /// block edges.
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
            for isa in std::iter::once(Isa::Baseline).chain(wider_instantiations()) {
                let got = run(isa, &q, m, past, &s, &kv);
                assert_bit_identical(&got, &base);
                assert_bit_identical(&run_rows(isa, &q, m, past, &s, &kv), &base);
                let alone = run(isa, &q[i * hidden..][..hidden], 1, past + i, &s, &kv);
                assert_bit_identical(&alone, &base[i * hidden..][..hidden]);
            }
        }
    }
}
