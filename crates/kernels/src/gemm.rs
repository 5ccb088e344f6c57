//! Blocked fused dequant-GEMM over [`PackedMatrix`] (and dense) weights.
//!
//! [`qgemm_t`] computes `out = x · wᵀ` for an activation block `x`
//! (`m × k`, row-major) against a packed weight (`n × k`, i.e. the
//! `(out_features, in_features)` orientation of the repo's `matmul_t`).
//! The weight is never materialized as `f32` in memory. A block of at
//! least `MR` activation rows (prefill) dequantizes one small tile at a
//! time into an L1-resident scratch buffer and multiplies that staged
//! tile against *every* row of the block before the next tile is
//! touched, so unpack-and-scale is paid once per weight per 64-row
//! block, not once per weight per row — which is what separates
//! compute-bound prefill from memory-bound decode. A block of fewer rows
//! (decode) has nothing to amortise a staged tile over: it converts each
//! weight in registers and accumulates it at once, with no scratch at
//! all. [`gemm_t`] is the staged kernel over a dense `f32` weight, with a
//! transposing copy as the tile fill, for every `m`.
//!
//! ## Loop structure
//!
//! ```text
//! par over row blocks of ≤ ROW_BLOCK = 64 activation rows (disjoint chunks of out)
//!   each block picks its body and hands it to the ISA dispatch:
//!
//!   rows ≥ MR = 4 — `StagedBlock`, packed or dense
//!     scratch: PANELS tiles of TILE_K × LANES f32 (8 KB each), the block's accumulators
//!     for each panel of LANES = 16 output features     ← one f32x16 (or two f32x8) of accumulators per row
//!       acc[rows][LANES] = 0                           ← block-local, carried between k-tiles
//!       for each k-tile: one quant group, or TILE_K = 128 steps of a longer one
//!         fill: tile[kk][lane] = convert(payload)      ← ONCE, 32 or 64 weights per load
//!         for each register block of MR rows (then the m % 4 tail, one row each):
//!           reg[MR][LANES] = acc[rows]
//!           for kk in tile:                            ← sequential k
//!             for r, lane: reg[r][lane] = x[r][kk].mul_add(tile[kk][lane], reg[r][lane])
//!           acc[rows] = reg
//!       out[rows][panel's lanes below n] = acc
//!
//!   rows < MR, packed — `DecodeBlock`, no scratch
//!     for each P = PANELS panels (half as many in 16 registers for three rows or a nibble weight; then single ones):
//!       acc[P][rows][LANES] = 0                        ← registers, for the whole of k
//!       for each quant group:                          ← scales and zero points hoisted
//!         for each 32-byte load of the group, per panel:
//!           w[2 or 4 k-steps][LANES] = convert(load)   ← registers
//!           for kk in load, r, lane: acc[p][r][lane] = x[r][kk].mul_add(w[kk][lane], acc[p][r][lane])
//!       out[rows][panels' lanes below n] = acc
//!
//!   rows < MR, dense — `StagedBlock` with `SHORT`
//!     as above, but PANELS = 4 adjacent panels' tiles are filled
//!     together and each row sweeps all four at once
//! ```
//!
//! The accumulators of a register block are *independent outputs*, which
//! is what lets the CPU overlap fused multiply-add latency — parallelism
//! is never introduced within a single output's reduction. `MR` rows of
//! one panel are `MR` chains at 512 bits and `2 · MR = 8` at 256 (an FMA
//! retires per cycle only with more chains in flight than its latency:
//! the eight-lane panel this replaced left four at 256 bits and ran the
//! `m = 64` GEMM list 1.2× slower; `MR = 8` at eight lanes spills; and a
//! 4-row × 2-panel `zmm` block, eight chains, ran 2–4 % slower than
//! `MR × 1`). A block with fewer rows would leave one or two, so both short
//! bodies turn the block on its side and walk several panels together:
//! the same ascending-k chain per output, as many chains in flight.
//!
//! ## One conversion, whole vectors
//!
//! [`PackedMatrix`] stores each panel k-major / lane-minor (see
//! [`crate::pack`]), so 32 payload bytes are two k-steps of int8, or —
//! nibble-packed — four k-steps of int4/int3 (`b & 0x0F` the first two,
//! `b >> 4` the last two), each already in tile order, and the per-lane
//! scale and zero point repeat with period 16. `convert` is the one place
//! a packed weight becomes an `f32`: a fixed-size `[u8; 32] → [f32; 32]`
//! or `[f32; 64]` body — widen (and split the nibbles of the widened
//! lanes), subtract, convert, multiply — that the compiler turns into
//! straight vector code with no cross-lane move, the widening load
//! straight from the payload. The staged fill is "convert, then store"; the decode
//! body is "convert, then accumulate". Neither has a second pass or a
//! byte buffer. A span of k that starts or ends inside a load (a group
//! length that is not a multiple of the load's k-steps, the end of an odd
//! `k`) converts the whole load and uses the k-steps it owns. A panel
//! that reaches past `n` is padded in the weight (grid 0, scale 0) and
//! only its valid lanes are copied out of the accumulators, so there is
//! no narrow tail instantiation.
//!
//! Whether a body compiled to that is a question for timings and
//! `--emit asm`, not for its source shape (see the notes in `convert`,
//! `fill_packed` and the dense `fill`): in the AVX-512 instantiation of
//! `StagedBlock` and `DecodeBlock` every hot loop should hold one
//! `vpmovsxbd zmm` (int8) or half a `vpmovzxbd zmm` (nibbles, then
//! `vpandd` / `vpsrld` on the dwords) per `vcvtdq2ps zmm`, taken from
//! memory, and every term a `vfmadd…ps`; in the AVX2 one the same on
//! `ymm`; in neither a `vpsrlw` (a nibble split on bytes), a `vpinsrb`, a
//! `cvtsi2ss`, a call (`array::map` and `array::from_fn` can be one:
//! called code is baseline-ISA code; so is `fmaf`, which is what a
//! `mul_add` becomes where `fma` is not enabled) or an accumulator on the
//! stack — and no gather or scatter in the dense fill, which is scalar
//! moves by design.
//!
//! ## Three instantiations of each body
//!
//! The bodies are safe, intrinsic-free generic Rust, run per row block
//! through the crate's one ISA dispatch ([`crate::dispatch`]): each is
//! compiled once for the build's baseline ISA, once at 256-bit width and
//! once at 512, and the widest the CPU has is chosen by run-time feature
//! detection. [`crate::isa`] reports the choice. The decode body is a
//! `Body` of its own rather than a branch of `StagedBlock`: inlined
//! beside the `MR × 1` path it changed that path's register allocation
//! and cost the `m = 64` GEMM 30 %. It is also the one body that asks
//! which instantiation it is in — for how many panels its accumulators
//! may span, 32 `zmm` against 16 `ymm` — and nothing else does.
//! (Short blocks are where the number of *streams* shows, too: a panel
//! of payload is one, a weight row of the dense fill is one, and a large
//! weight wants several in flight but not dozens — `PANELS`,
//! `WEIGHT_PANELS`.)
//!
//! ## Weights that live elsewhere
//!
//! The dense tile source takes its weight rows from an accessor
//! (`j ↦ &[f32]` of length `k`) and stages them through a transposing
//! fill. A dense weight that meets short blocks over and over (the LM
//! head: one row per decode step) is kept as [`DensePanels`] instead, the
//! tile layout itself, so that staging it is a copy and not a transpose.
//! Activations and outputs carry a row stride, and a source may declare
//! its outputs causal (row `i` of the block reads only outputs
//! `j ≤ past + i`; panels no row reads are not staged or swept). That is
//! all a prefill block's QKᵀ needs to be this kernel with the cached keys
//! as the weight: they are stored as panels already — 16-position k-major
//! blocks — so their fill is a copy too ([`mod@crate::attention`]).
//!
//! ## Bit-exactness
//!
//! For every output `(i, j)` the accumulation is one fused multiply-add
//! per term, `acc = x[i][k].mul_add(w[j][k], acc)` for `k = 0, 1, …` from
//! `acc = +0.0`, where `w[j][k] = ((q − z) as f32) * s` — exactly the
//! roundings of dequantizing the whole matrix first and running the
//! scalar ascending-k fused dot product (`Matrix::matmul_t_scalar`). The
//! staged bodies change only *when* a dequantized value is produced and
//! where the running sum
//! rests between k-tiles (an `f32` store and reload of the same value);
//! the decode body produces the same value from the same expression and
//! uses it without the store; walking several panels together only
//! interleaves distinct outputs. None of it touches a bit pattern or the
//! order terms enter a sum, so the result is bit-identical for packed and
//! dense weights alike, and row `i` of an `m`-row call equals the
//! one-row call on `x[i]` whichever body either ran in — which is what
//! lets serving chunk, batch and recompute prefill freely.
//!
//! Vector width does not change it either: lanes are distinct outputs,
//! and every operation is an IEEE-754 single-precision multiply, exact
//! integer conversion or fused multiply-add, each correctly rounded
//! whether it is a `vfmadd` (the AVX2 and AVX-512 instantiations, built
//! with `fma`) or libm's `fmaf` (the baseline of a stock `x86_64` build)
//! — the AVX-512, AVX2 and baseline instantiations agree `to_bits()` for
//! `to_bits()`.

use crate::dispatch::{cap, dispatch, Body, Isa};
use crate::pack::{PackBits, PackedMatrix, LANES, NIBBLE_BIAS, UNIT_BYTES, UNIT_K};

/// Activation rows per register block: `MR × LANES` accumulators stay in
/// registers while one weight tile streams past them.
pub(crate) const MR: usize = 4;

/// k-steps per scratch tile (`TILE_K × LANES` f32 = 8 KB, L1-resident).
/// A quant group longer than this is swept in `TILE_K` pieces, still in
/// ascending k.
pub(crate) const TILE_K: usize = 128;

/// Most panels a block of fewer than `MR` rows walks together: 64 outputs
/// in flight, four 512-bit add chains or eight 256-bit ones per row, and
/// for a packed weight four streams of payload. Decode attention sweeps
/// as many key blocks, and as many lane chunks of a value row, together.
pub(crate) const PANELS: usize = 4;

/// Panels a short block over a dense *weight* walks together. Every
/// lane of a tile is a stream of its own through the weight's memory, and
/// past 32 of them the fill of a large matrix slows more than the extra
/// add chains gain (64 rows together ran the 4096² dense `m = 1` call 2×
/// slower than 32).
const WEIGHT_PANELS: usize = PANELS / 2;

/// Activation rows per chunk of `out`.
pub(crate) const ROW_BLOCK: usize = 64;

/// Weight rows the transposing dense fill walks together.
const FILL_ROWS: usize = 8;

/// Payload bytes one [`convert`] call reads: [`INT8_K`] k-steps of int8,
/// or one nibble unit — `UNIT_K` k-steps of int4/int3.
const LOAD: usize = UNIT_BYTES;

/// k-steps of an int8 panel in `LOAD` bytes.
const INT8_K: usize = LOAD / LANES;

/// `out = x · wᵀ`, freshly allocated (`m × w.rows`, row-major).
///
/// `x` is `m × k` row-major with `k == w.cols`.
pub fn qgemm_t(x: &[f32], m: usize, w: &PackedMatrix) -> Vec<f32> {
    let mut out = vec![0.0f32; m * w.rows];
    qgemm_t_into(x, m, w, &mut out);
    out
}

/// [`qgemm_t`] into a caller-provided buffer of length `m * w.rows`.
///
/// Panics with `packed weight shape mismatch: …` on a weight whose
/// buffers do not have the lengths its shape implies (only a
/// deserialized [`PackedMatrix`] can be one).
pub fn qgemm_t_into(x: &[f32], m: usize, w: &PackedMatrix, out: &mut [f32]) {
    w.check_shape();
    gemm_blocked(x, m, w, out, cap());
}

/// Dense `out = x · wᵀ` through the same blocked kernel: `w` is `n × k`
/// row-major `f32`, and the tile fill is a plain transpose (an identity
/// dequant). Bit-identical to the scalar ascending-k dot product per
/// output.
pub fn gemm_t(x: &[f32], m: usize, w: &[f32], n: usize, k: usize) -> Vec<f32> {
    assert_eq!(w.len(), n * k, "weight shape mismatch");
    let mut out = vec![0.0f32; m * n];
    gemm_blocked(x, m, &DenseWeight { row: |j| &w[j * k..][..k], n, k }, &mut out, cap());
    out
}

/// What the blocked kernel needs from a weight: its shape, the k-spans
/// that share dequant state, a way to stage a tile as `f32`, and the
/// body that runs a block too short for the staged register block.
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
    /// outputs are discarded.
    fn fill(&self, panel: usize, k_lo: usize, tile: &mut [f32]);
    /// One contiguous row block of fewer than `MR` rows (`out` is its
    /// `rows × n` outputs, `x` starts at its first row), through the ISA
    /// dispatch: staged like any other block, `WEIGHT_PANELS` panels'
    /// tiles swept together, unless the source has a body of its own.
    fn short_block(&self, cap: Isa, x: &[f32], out: &mut [f32])
    where
        Self: Sized,
    {
        dispatch(cap, StagedBlock::<_, true> { x, w: self, out });
    }
}

/// Per-row-block staging buffers, L1-resident. Cache-line aligned so
/// that no vector load of a tile straddles two lines.
#[repr(align(64))]
pub(crate) struct Scratch {
    /// Dequantized tiles, one per panel swept together.
    tiles: [[f32; TILE_K * LANES]; PANELS],
    /// The block's accumulators for the panels in flight.
    acc: [f32; ROW_BLOCK * LANES],
}

impl Scratch {
    #[inline(always)]
    pub(crate) fn new() -> Self {
        Self { tiles: [[0.0; TILE_K * LANES]; PANELS], acc: [0.0; ROW_BLOCK * LANES] }
    }
}

/// Dense `f32` rows handed out by an accessor: `row(j)` is the `k`
/// weights of output `j`, wherever they live.
struct DenseWeight<F> {
    row: F,
    n: usize,
    k: usize,
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
    fn fill(&self, panel: usize, k_lo: usize, tile: &mut [f32]) {
        static ZEROS: [f32; TILE_K] = [0.0; TILE_K];
        let (steps, _) = tile.as_chunks_mut::<LANES>();
        let klen = steps.len();
        // `FILL_ROWS` weight rows at a time, each walked along k: that
        // many row pointers fit the general registers, `LANES` of them do
        // not. The rows are cut to `klen` in a loop written out here —
        // `array::from_fn` is a call, made once per tile, that leaves the
        // eight lengths in memory and a bounds check per element behind.
        for part in 0..LANES / FILL_ROWS {
            // Lanes past `n` stage zeros.
            let mut rows: [&[f32]; FILL_ROWS] = [&[]; FILL_ROWS];
            for (lane, row) in rows.iter_mut().enumerate() {
                *row = match panel * LANES + part * FILL_ROWS + lane {
                    j if j < self.n => &(self.row)(j)[k_lo..][..klen],
                    _ => &ZEROS[..klen],
                };
            }
            for (kk, step) in steps.iter_mut().enumerate() {
                for (lane, row) in rows.iter().enumerate() {
                    step[part * FILL_ROWS + lane] = row[kk];
                }
                // An opaque use of the step, for the machine code and
                // nothing else: with AVX-512 in reach the loop vectoriser
                // otherwise walks sixteen k-steps of one row at a time
                // and scatters them (`vscatterdps`; the LM head at
                // `m = 1` ran 1.5× slower than these scalar moves).
                std::hint::black_box(&*step);
            }
        }
    }
}

/// A dense `f32` weight (`n × k`) kept the way the staged kernel reads
/// it — panels of `LANES` output features, k-major / lane-minor, the
/// last panel padded with zeros — so that staging a tile is a plain copy
/// where a row-major weight pays a transpose. Worth its `n × k` floats
/// for a weight that meets short blocks again and again (the LM head at
/// every decode step); the values, and so every output bit, are those of
/// [`gemm_t`] on the rows it was made from. The layout is private.
#[derive(Debug, Clone, PartialEq)]
pub struct DensePanels {
    n: usize,
    k: usize,
    /// `[panel][k][lane]`.
    data: Vec<f32>,
}

impl DensePanels {
    /// The panel copy of `w`, `n × k` row-major.
    pub fn new(w: &[f32], n: usize, k: usize) -> Self {
        assert_eq!(w.len(), n * k, "weight shape mismatch");
        let mut data = vec![0.0f32; n.div_ceil(LANES) * k * LANES];
        for (j, row) in w.chunks_exact(k.max(1)).enumerate() {
            for (kk, &v) in row.iter().enumerate() {
                data[(j / LANES * k + kk) * LANES + j % LANES] = v;
            }
        }
        Self { n, k, data }
    }

    /// `out = x · wᵀ` (`m × n`, row-major) for `x` of `m × k`:
    /// bit-identical to [`gemm_t`] on the row-major weight.
    pub fn gemm_t(&self, x: &[f32], m: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * self.n];
        gemm_blocked(x, m, self, &mut out, cap());
        out
    }
}

impl TileSource for DensePanels {
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
    fn fill(&self, panel: usize, k_lo: usize, tile: &mut [f32]) {
        tile.copy_from_slice(&self.data[(panel * self.k + k_lo) * LANES..][..tile.len()]);
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

    /// Convert, then store.
    #[inline(always)]
    fn fill(&self, panel: usize, k_lo: usize, tile: &mut [f32]) {
        match self.bits {
            PackBits::Int8 => fill_packed::<INT8_K>(self, panel, k_lo, tile),
            PackBits::Int3 | PackBits::Int4 => fill_packed::<UNIT_K>(self, panel, k_lo, tile),
        }
    }

    /// Convert and accumulate in registers: nothing is staged.
    fn short_block(&self, cap: Isa, x: &[f32], out: &mut [f32]) {
        dispatch(cap, DecodeBlock { x, w: self, out });
    }
}

/// `LOAD` payload bytes of a panel to the `S` k-steps they hold,
/// `((q − z) as f32) * s` per value — the one place a packed weight
/// becomes an `f32`, for the staged fill and the decode body alike.
/// `S = INT8_K` is int8 (the bytes are two k-steps), `S = UNIT_K` the
/// nibble precisions (the low nibbles are the unit's first two k-steps,
/// the high nibbles its last two). `z` and `s` are a [`group_state`]. Fixed-size,
/// and `q` by value so that all `LOAD` byte loads precede the first
/// store (the payload may alias `out` as far as the optimiser can tell
/// once this is inlined): that is what compiles it to whole-vector code.
#[inline(always)]
fn convert<const S: usize>(q: [u8; LOAD], z: &[i32; LANES], s: &[f32; LANES], out: &mut [[f32; LANES]; S]) {
    let wide = widen::<S>(q);
    for (step, w) in out.iter_mut().enumerate() {
        *w = convert_step::<S>(&wide, step, z, s);
    }
}

/// The bytes of one load as 32-bit lanes, a pass of its own. An int8 byte
/// is the grid value itself. A nibble is `q + 8`, kept unsigned (`z`
/// carries the same bias, and `(q + 8) − (z + 8)` is `q − z` exactly),
/// and is split off *after* its byte is widened: a shift of 32-bit lanes
/// is one instruction, a shift of bytes is two. Written as one expression
/// per weight — widen, shift, mask — the sixteen-lane body has the split
/// narrowed back to bytes, eight at a time (`vpsrlw` + `vpand` on `xmm`,
/// then a widen from a register: twice the instructions before the
/// subtraction, `m = 1` int4 6 % slower than at eight lanes).
#[inline(always)]
fn widen<const S: usize>(q: [u8; LOAD]) -> [i32; LOAD] {
    let mut wide = [0i32; LOAD];
    for (w, b) in wide.iter_mut().zip(q) {
        *w = if S == INT8_K { b as i8 as i32 } else { b as i32 };
    }
    wide
}

/// k-step `step` of a widened load, dequantized.
#[inline(always)]
fn convert_step<const S: usize>(wide: &[i32; LOAD], step: usize, z: &[i32; LANES], s: &[f32; LANES]) -> [f32; LANES] {
    let mut w = [0.0f32; LANES];
    for lane in 0..LANES {
        let b = wide[step % INT8_K * LANES + lane];
        let u = if S == INT8_K { b } else { (b >> (step / INT8_K * 4)) & 0x0F };
        w[lane] = ((u - z[lane]) as f32) * s[lane];
    }
    w
}

/// Per-lane dequant state of one `(panel, group)`: zero points (with the
/// nibble bias [`convert`] leaves on its values) and scales.
#[inline(always)]
fn group_state<const S: usize>(w: &PackedMatrix, panel: usize, g: usize) -> ([i32; LANES], [f32; LANES]) {
    let (scales, zeros) = w.panel_meta(panel, g);
    let bias = if S == INT8_K { 0 } else { NIBBLE_BIAS as i32 };
    (zeros.map(|z| z as i32 + bias), *scales)
}

/// Split the k-span `[k_lo, k_hi)` at the boundaries of `steps`-long
/// payload loads: `[k_lo, head)` is the part of a load the span starts
/// inside (empty when aligned), `[head, body)` whole loads, `[body,
/// k_hi)` the part of a load it ends inside. Only a group length that
/// is not a multiple of `steps`, or the end of an odd `k`, makes an end
/// part non-empty.
#[inline(always)]
fn split_span(k_lo: usize, k_hi: usize, steps: usize) -> (usize, usize) {
    let head = k_lo.next_multiple_of(steps).min(k_hi);
    (head, head + (k_hi - head) / steps * steps)
}

/// Load `u` of a panel's payload for a span that owns only some of its
/// k-steps. The last load of an odd-`k` int8 panel is half there; the
/// missing bytes read as zero and belong to k-steps nobody owns.
#[inline(always)]
fn partial_load(payload: &[u8], u: usize) -> [u8; LOAD] {
    let rest = &payload[u * LOAD..];
    let mut q = [0u8; LOAD];
    let len = rest.len().min(LOAD);
    q[..len].copy_from_slice(&rest[..len]);
    q
}

/// The packed tile fill: [`convert`] every load the span touches and
/// store the k-steps it owns.
#[inline(always)]
fn fill_packed<const S: usize>(w: &PackedMatrix, panel: usize, k_lo: usize, tile: &mut [f32]) {
    let (tile, _) = tile.as_chunks_mut::<LANES>();
    let k_hi = k_lo + tile.len();
    let (z, s) = group_state::<S>(w, panel, k_lo / w.group);
    let payload = w.panel(panel);
    let (head, body) = split_span(k_lo, k_hi, S);
    for (lo, hi) in [(k_lo, head), (body, k_hi)] {
        if lo < hi {
            let u = lo / S;
            let mut wv = [[0.0f32; LANES]; S];
            convert::<S>(partial_load(payload, u), &z, &s, &mut wv);
            tile[lo - k_lo..hi - k_lo].copy_from_slice(&wv[lo - u * S..hi - u * S]);
        }
    }
    let loads = &payload.as_chunks::<LOAD>().0[head / S..body / S];
    for (q, t) in loads.iter().zip(tile[head - k_lo..].as_chunks_mut::<S>().0) {
        // An opaque use of `z` per load, for the machine code and nothing
        // else. The iterations are independent, and left to itself the
        // loop vectoriser takes eight of them at once and gathers their
        // bytes one by one (112 `vpinsrb`; the `ref256x4` GEMM list ran 2×
        // slower at `m = 4` and 12 % or more at `m = 64`); and with the
        // zero points' range in view int8's subtraction is narrowed to 16
        // bits and widened again (one more shuffle per vector). Behind
        // the barrier one load stays the unit of vector code and `z` a
        // vector of `i32`: widen, subtract, convert, scale, store.
        convert::<S>(*q, std::hint::black_box(&z), &s, t);
    }
}

/// The blocked GEMM: every `m`, packed or dense. Each row block picks
/// its body — [`StagedBlock`], or the weight's own body for a block of
/// fewer than `MR` rows — and runs it in the widest instantiation within
/// `cap`.
fn gemm_blocked<W: TileSource + Sync>(x: &[f32], m: usize, w: &W, out: &mut [f32], cap: Isa) {
    let (n, k) = (w.n(), w.k());
    assert_eq!(x.len(), m * k, "activation shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    out.chunks_mut(ROW_BLOCK * n).enumerate().for_each(|(b, out)| {
        let x = &x[b * ROW_BLOCK * k..];
        if out.len() < MR * n {
            w.short_block(cap, x, out);
        } else {
            dispatch(cap, StagedBlock::<_, false> { x, w, out });
        }
    });
}

/// One row block through staged tiles: `out` is its `rows × n` outputs,
/// `x` starts at its first activation row. `SHORT` blocks have fewer than
/// `MR` rows and sweep `PANELS` tiles together; the others take `MR × 1`
/// register blocks only, so that a source with a short body of its own
/// compiles no second one here.
struct StagedBlock<'a, W, const SHORT: bool> {
    x: &'a [f32],
    w: &'a W,
    out: &'a mut [f32],
}

impl<W: TileSource, const SHORT: bool> Body for StagedBlock<'_, W, SHORT> {
    type Out = ();

    #[inline(always)]
    fn run(self, _: Isa) {
        let (n, k) = (self.w.n(), self.w.k());
        let (rows, scratch) = (self.out.len() / n, &mut Scratch::new());
        if SHORT {
            row_block::<WEIGHT_PANELS, W>(self.x, k, self.w, self.out, n, rows, scratch);
        } else {
            single_panels(self.x, k, self.w, 0, self.out, n, rows, scratch);
        }
    }
}

/// One block of `rows ≤ ROW_BLOCK` activation rows against every panel,
/// staged: `out[i * ldo + j] = Σ_k x[i * ldx + k] · w[j][k]` for `j < n`
/// and the rows `i ≥ w.first_row(j)`; other outputs are left as they
/// were.
#[inline(always)]
fn row_block<const P: usize, W: TileSource>(
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
    // it takes one row of `P ≤ PANELS` panels instead: as many
    // independent chains, and every output still sums in ascending k.
    if rows < MR {
        while j + P * LANES <= n {
            lane_panels::<1, P, W>(x, ldx, w, j, out, ldo, rows, scratch);
            j += P * LANES;
        }
    }
    single_panels(x, ldx, w, j, out, ldo, rows, scratch);
}

/// The panels from output `j` on, one at a time in `MR`-row register
/// blocks. The last panel may reach past `n`; only its valid lanes exist
/// in `out`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn single_panels<W: TileSource>(
    x: &[f32],
    ldx: usize,
    w: &W,
    mut j: usize,
    out: &mut [f32],
    ldo: usize,
    rows: usize,
    scratch: &mut Scratch,
) {
    while j < w.n() {
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
            w.fill(j / LANES + p, k_lo, &mut scratch.tiles[p][..len]);
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
/// one fused multiply-add per term, one independent chain per (row,
/// panel, lane), carried in `acc`
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
                    reg[r][p][lane] = xv.mul_add(tiles[p][kk][lane], reg[r][p][lane]);
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

/// A row block of fewer than `MR` rows over a packed weight (decode):
/// contiguous `x` (`rows × k`) and `out` (`rows × n`).
struct DecodeBlock<'a> {
    x: &'a [f32],
    w: &'a PackedMatrix,
    out: &'a mut [f32],
}

impl Body for DecodeBlock<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self, isa: Isa) {
        let Self { x, w, out } = self;
        // `PANELS` panels together: each is a stream of payload for the
        // prefetchers to run ahead on (with two where this takes four,
        // 4096² int8 at `m = 1` ran 1.3–1.5× slower before the fused
        // multiply-add, and still runs 4–6 % slower) and `R` rows of
        // accumulators. Three rows of four panels are 12 `zmm` but 24
        // `ymm`, which is more than there are (int8 on the cache-resident
        // `ref256x4` list: 10–40 % slower than with two panels). A nibble
        // load is four `ymm` of widened bytes beside its accumulators:
        // with four panels every accumulator goes to the stack and back
        // once per load, and under AVX2 the nibble precisions take two at
        // any row count (4096² int4 at `m = 1` 6 % faster, cold or warm,
        // and 1024² at `m = 2` 9 %).
        let fits = isa == Isa::Avx512;
        match (w.bits, out.len() / w.rows, fits) {
            (PackBits::Int8, 1, _) => decode_block::<INT8_K, 1, PANELS>(x, w, out),
            (PackBits::Int8, 2, _) => decode_block::<INT8_K, 2, PANELS>(x, w, out),
            (PackBits::Int8, _, true) => decode_block::<INT8_K, 3, PANELS>(x, w, out),
            (PackBits::Int8, _, false) => decode_block::<INT8_K, 3, { PANELS / 2 }>(x, w, out),
            (PackBits::Int3 | PackBits::Int4, 1, true) => decode_block::<UNIT_K, 1, PANELS>(x, w, out),
            (PackBits::Int3 | PackBits::Int4, 2, true) => decode_block::<UNIT_K, 2, PANELS>(x, w, out),
            (PackBits::Int3 | PackBits::Int4, _, true) => decode_block::<UNIT_K, 3, PANELS>(x, w, out),
            (PackBits::Int3 | PackBits::Int4, 1, false) => decode_block::<UNIT_K, 1, { PANELS / 2 }>(x, w, out),
            (PackBits::Int3 | PackBits::Int4, 2, false) => decode_block::<UNIT_K, 2, { PANELS / 2 }>(x, w, out),
            (PackBits::Int3 | PackBits::Int4, _, false) => decode_block::<UNIT_K, 3, { PANELS / 2 }>(x, w, out),
        }
    }
}

/// `R < MR` rows against every panel, `P` at a time and then the rest
/// one by one: `R × P` panels' worth of independent add chains — where
/// one row of one panel would leave one or two — that still fit the
/// register file beside the weights being converted.
#[inline(always)]
fn decode_block<const S: usize, const R: usize, const P: usize>(x: &[f32], w: &PackedMatrix, out: &mut [f32]) {
    let panels = w.rows.div_ceil(LANES);
    let mut p = 0;
    while p + P <= panels {
        decode_panels::<S, R, P>(x, w, p, out);
        p += P;
    }
    while p < panels {
        decode_panels::<S, R, 1>(x, w, p, out);
        p += 1;
    }
}

/// Outputs of panels `[p0, p0 + P)` for `R` rows, nothing staged: each
/// payload load is converted in registers and every k-step it holds is
/// accumulated at once, `acc[panel][row][lane] = x[row][k].mul_add(w, ..)`,
/// in ascending k — one chain per output.
#[inline(always)]
fn decode_panels<const S: usize, const R: usize, const P: usize>(
    x: &[f32],
    w: &PackedMatrix,
    p0: usize,
    out: &mut [f32],
) {
    let (n, k) = (w.rows, w.cols);
    let mut payload: [&[u8]; P] = [&[]; P];
    for (p, bytes) in payload.iter_mut().enumerate() {
        *bytes = w.panel(p0 + p);
    }
    let mut acc = [[[0.0f32; LANES]; R]; P];
    let mut k_lo = 0;
    while k_lo < k {
        let k_hi = (k_lo + w.group).min(k);
        let mut z = [[0i32; LANES]; P];
        let mut s = [[0.0f32; LANES]; P];
        for p in 0..P {
            (z[p], s[p]) = group_state::<S>(w, p0 + p, k_lo / w.group);
        }
        // Ascending k: the load the group starts inside, its whole
        // loads, the load it ends inside.
        let (head, body) = split_span(k_lo, k_hi, S);
        if k_lo < head {
            mac_part::<S, R, P>(&payload, &z, &s, x, k, k_lo, head, &mut acc);
        }
        // The whole loads and the activations they meet, cut to one
        // length up front so that the loop indexes without checks.
        let mut loads: [&[[u8; LOAD]]; P] = [&[]; P];
        for p in 0..P {
            loads[p] = &payload[p].as_chunks().0[head / S..body / S];
        }
        let mut xs: [&[[f32; S]]; R] = [&[]; R];
        for r in 0..R {
            xs[r] = &x[r * k + head..r * k + body].as_chunks().0[..(body - head) / S];
        }
        for i in 0..(body - head) / S {
            let mut xi = [[0.0f32; S]; R];
            for r in 0..R {
                xi[r] = xs[r][i];
            }
            // The panels, written out. As `for p in 0..P` the nibble body
            // is too large for the unroller: the loop stays a loop,
            // `acc[p]` is indexed at run time and so lives in memory, and
            // 4096² int4 at `m = 1` runs 20 % slower.
            macro_rules! panel {
                ($($p:literal)*) => {$(
                    if $p < P {
                        mac_load::<S, R>(loads[$p][i], &z[$p], &s[$p], &xi, 0, S, &mut acc[$p]);
                    }
                )*};
            }
            const { assert!(P <= PANELS) };
            panel!(0 1 2 3);
        }
        if body < k_hi {
            mac_part::<S, R, P>(&payload, &z, &s, x, k, body, k_hi, &mut acc);
        }
        k_lo = k_hi;
    }
    for (p, rows) in acc.iter().enumerate() {
        let j = (p0 + p) * LANES;
        let valid = LANES.min(n - j);
        for (r, lanes) in rows.iter().enumerate() {
            // By value: a run-time-length copy straight out of `acc`
            // would pin the accumulators to memory for the whole loop.
            let lanes = *lanes;
            out[r * n + j..][..valid].copy_from_slice(&lanes[..valid]);
        }
    }
}

/// k-steps `[lo, hi)` of every panel, all inside one load of which the
/// group owns only those.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mac_part<const S: usize, const R: usize, const P: usize>(
    payload: &[&[u8]; P],
    z: &[[i32; LANES]; P],
    s: &[[f32; LANES]; P],
    x: &[f32],
    k: usize,
    lo: usize,
    hi: usize,
    acc: &mut [[[f32; LANES]; R]; P],
) {
    let u = lo / S;
    let (a, b) = (lo - u * S, hi - u * S);
    let mut xi = [[0.0f32; S]; R];
    for r in 0..R {
        xi[r][a..b].copy_from_slice(&x[r * k + lo..r * k + hi]);
    }
    for p in 0..P {
        mac_load::<S, R>(partial_load(payload[p], u), &z[p], &s[p], &xi, a, b, &mut acc[p]);
    }
}

/// One load of one panel, converted and accumulated into `R` rows:
/// k-steps `[a, b)` of the `S` it holds, `xi[r][step]` the activation
/// of row `r` at that k-step.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `step` is a k-step of the load, not an index into one slice
fn mac_load<const S: usize, const R: usize>(
    q: [u8; LOAD],
    z: &[i32; LANES],
    s: &[f32; LANES],
    xi: &[[f32; S]; R],
    a: usize,
    b: usize,
    acc: &mut [[f32; LANES]; R],
) {
    // A k-step at a time, so that no more than one step's weights are
    // live beside the accumulators.
    let wide = widen::<S>(q);
    for step in a..b {
        let w = convert_step::<S>(&wide, step, z, s);
        for r in 0..R {
            for lane in 0..LANES {
                acc[r][lane] = xi[r][step].mul_add(w[lane], acc[r][lane]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::quantize_packed;
    use crate::testutil::{assert_bit_identical, dot, pseudo, split_square, wider_instantiations};
    use proptest::prelude::*;

    /// Scalar dequantize-then-matmul_t reference: the exact accumulation
    /// the repo's `Matrix::matmul_t_scalar` does on a dequantized weight,
    /// one fused multiply-add per term in ascending k.
    fn reference(x: &[f32], m: usize, w: &PackedMatrix) -> Vec<f32> {
        dense_reference(x, m, &w.unpack(), w.rows, w.cols, true)
    }

    /// `x · wᵀ` for a dense `n × k` weight, one [`dot`] chain per output.
    fn dense_reference(x: &[f32], m: usize, w: &[f32], n: usize, k: usize, fused: bool) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = dot(&x[i * k..][..k], &w[j * k..][..k], fused);
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

    /// The whole GEMM in the widest instantiation within `cap`.
    fn run<W: TileSource + Sync>(x: &[f32], m: usize, w: &W, cap: Isa) -> Vec<f32> {
        let mut out = vec![f32::NAN; m * w.n()];
        gemm_blocked(x, m, w, &mut out, cap);
        out
    }

    /// What the bit-identity tests cannot see: they would all still pass
    /// if the kernels and their oracles went back to a separate multiply
    /// and add together. Output `j`'s weight row is `−s, s` at two
    /// adjacent k-steps and zero elsewhere, and every activation is `s`
    /// times a power of two ([`split_square`]), so one fused multiply-add
    /// per term leaves a nonzero residue in every output where a multiply
    /// then an add leaves `0`. The pairs sit all along `k` — inside and
    /// across payload loads, groups and tiles — and `m` reaches the
    /// decode body, the short staged block and the register block, in
    /// every instantiation the host has.
    #[test]
    fn every_term_is_one_fused_multiply_add() {
        let (n, k) = (40, 200);
        let s = split_square(1.0);
        let mut q = vec![0i8; n * k];
        for j in 0..n {
            let p = j * 37 % (k - 1);
            (q[j * k + p], q[j * k + p + 1]) = (-1, 1);
        }
        let isas: Vec<Isa> = std::iter::once(Isa::Baseline).chain(wider_instantiations()).collect();
        for m in [1, 2, 3, 4, 67] {
            let x: Vec<f32> = (0..m * k).map(|e| s * (1 << (e / k % 3)) as f32).collect();
            for group in [3, 64, k] {
                let gpr = k.div_ceil(group);
                let mut weights = Vec::new();
                for bits in [PackBits::Int3, PackBits::Int4, PackBits::Int8] {
                    weights.push(PackedMatrix::from_i8(n, k, bits, group, &q, &vec![s; n * gpr], &vec![0; n * gpr]));
                }
                let dq = weights[0].unpack();
                let fused = dense_reference(&x, m, &dq, n, k, true);
                let unfused = dense_reference(&x, m, &dq, n, k, false);
                for (f, u) in fused.iter().zip(&unfused) {
                    assert_ne!(f.to_bits(), u.to_bits(), "the inputs must tell the two apart");
                }
                let dense = DenseWeight { row: |j| &dq[j * k..][..k], n, k };
                let copy = DensePanels::new(&dq, n, k);
                for &isa in &isas {
                    for w in &weights {
                        assert_bit_identical(&run(&x, m, w, isa), &fused);
                    }
                    assert_bit_identical(&run(&x, m, &dense, isa), &fused);
                    assert_bit_identical(&run(&x, m, &copy, isa), &fused);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every instantiation of each body the host can run agrees bit
        /// for bit with the baseline one, and that with the scalar
        /// oracle: `m` crosses the register and row blocks, `n` leaves a
        /// partial panel on either side of one, two and three whole ones,
        /// `k` is odd, and the groups include one that splits nibble
        /// units and one longer than a tile. The k-major copy of the
        /// dense weight gives what the row-major one does.
        #[test]
        fn every_instantiation_is_bit_identical(
            bits in prop_oneof![Just(PackBits::Int3), Just(PackBits::Int4), Just(PackBits::Int8)],
            m in 1usize..=70,
            panels in 0usize..4,
            tail in 1usize..=LANES,
            half_k in 0usize..135,
            group_choice in 0usize..5,
            seed in 0u64..1000,
        ) {
            let (n, k) = (LANES * panels + tail, 2 * half_k + 1);
            let data = pseudo(n * k, seed);
            let packed = quantize_packed(&data, n, k, bits, [3, 16, 64, 192, k][group_choice]);
            let dense = DenseWeight { row: |j| &data[j * k..][..k], n, k };
            let copy = DensePanels::new(&data, n, k);
            let x = pseudo(m * k, seed ^ 0x3C3C);
            let base_packed = run(&x, m, &packed, Isa::Baseline);
            let base_dense = run(&x, m, &dense, Isa::Baseline);
            assert_bit_identical(&base_packed, &reference(&x, m, &packed));
            assert_bit_identical(&run(&x, m, &copy, Isa::Baseline), &base_dense);
            for isa in wider_instantiations() {
                assert_bit_identical(&run(&x, m, &packed, isa), &base_packed);
                assert_bit_identical(&run(&x, m, &dense, isa), &base_dense);
                assert_bit_identical(&run(&x, m, &copy, isa), &base_dense);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The decode body's instantiations agree bit for bit, and the
        /// baseline one with the scalar oracle, on an asymmetric grid:
        /// nonzero zero points, `m` on both sides of `MR`, `n` up to
        /// several multi-panel sweeps plus single panels plus a partial
        /// one, odd and even `k`, groups that split a payload load.
        #[test]
        fn every_decode_instantiation_is_bit_identical(
            bits in prop_oneof![Just(PackBits::Int3), Just(PackBits::Int4), Just(PackBits::Int8)],
            m in 1usize..=6,
            n in 1usize..=220,
            k in 1usize..=200,
            group_choice in 0usize..6,
            seed in 0u64..1000,
        ) {
            let group = [3, 4, 16, 64, 192, k][group_choice];
            let gpr = k.div_ceil(group);
            let q: Vec<i8> = pseudo(n * k, seed).iter().map(|v| (v * bits.qmax() as f32) as i8).collect();
            let scales: Vec<f32> = pseudo(n * gpr, seed ^ 0xA1).iter().map(|v| v.abs() + 1e-3).collect();
            let zeros: Vec<i8> = pseudo(n * gpr, seed ^ 0xB2).iter().map(|v| (v * 127.0) as i8).collect();
            let w = PackedMatrix::from_i8(n, k, bits, group, &q, &scales, &zeros);
            let x = pseudo(m * k, seed ^ 0x3C3C);
            let base = run(&x, m, &w, Isa::Baseline);
            assert_bit_identical(&base, &reference(&x, m, &w));
            for isa in wider_instantiations() {
                assert_bit_identical(&run(&x, m, &w, isa), &base);
            }
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let w = quantize_packed(&pseudo(8 * 4, 51), 8, 4, PackBits::Int4, 4);
        assert!(qgemm_t(&[], 0, &w).is_empty());
    }
}
