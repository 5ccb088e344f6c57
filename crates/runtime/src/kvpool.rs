//! Paged/slab KV-cache allocator for the continuous-batching serving
//! path (vLLM-style "PagedAttention" bookkeeping, scalar edition).
//!
//! The offline pipeline pre-allocates one [`KvCache`] per sequence for
//! the whole run — fine when the batch is fixed, hopeless when requests
//! join and leave every iteration. [`KvPool`] instead carves the KV
//! budget into fixed-size *blocks* of `block_tokens` positions and hands
//! them out from a free-list: a sequence owns a chain of blocks, grows
//! one block at a time as it decodes, and returns the whole chain the
//! iteration it finishes (or is preempted). Fragmentation is bounded to
//! less than one block per live sequence, and "does this request fit?"
//! becomes integer arithmetic on the free-list — which is exactly what
//! the scheduler's join/preempt rules (see [`mod@crate::serve`]) need.
//!
//! [`PagedKvStore`] adds the actual tensor storage: per-layer K/V arenas
//! indexed by block id, each block's keys kept the way attention reads
//! them — k-major, `hidden × 16` — and its values as rows (see
//! [`PagedKvStore`] for why, and for the one block size a store holds).
//! The layer forward reads and writes them in place:
//! [`PagedKvStore::extend_seq`] grows a sequence's chain for the
//! positions about to be computed and returns a [`PagedSeq`], the
//! [`KvSeq`] view through which attention reads every cached block where
//! it lives and the new rows go straight into the tail blocks —
//! numerically identical to running on a monolithic [`KvCache`], with no
//! per-call copy of the context. Both serving
//! engines compute on it: the local engine on one store, every ring
//! stage on a store of its own. [`PagedKvStore::gather`] /
//! [`PagedKvStore::append`] convert to and from the contiguous form
//! (the plan-swap KV handoff, export, probes), transposing keys at that
//! boundary.
//!
//! [`KvCache`]: llmpq_model::KvCache

use std::collections::HashMap;

use llmpq_model::{KvBlocks, KvCache, KvSeq, Matrix, KV_BLOCK};
use serde::{Deserialize, Serialize};

/// Geometry of a [`KvPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvPoolConfig {
    /// Total number of blocks in the pool.
    pub n_blocks: usize,
    /// Token positions per block.
    pub block_tokens: usize,
}

impl Default for KvPoolConfig {
    fn default() -> Self {
        Self { n_blocks: 256, block_tokens: 16 }
    }
}

/// Why a pool operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvPoolError {
    /// Not enough free blocks: `needed` > `free`. The scheduler reacts
    /// by preempting a victim sequence, not by crashing.
    Exhausted { needed: usize, free: usize },
    /// The sequence id is not registered.
    UnknownSeq(u64),
    /// The sequence id is already registered.
    DoubleAlloc(u64),
}

impl std::fmt::Display for KvPoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvPoolError::Exhausted { needed, free } => {
                write!(f, "kv pool exhausted: need {needed} blocks, {free} free")
            }
            KvPoolError::UnknownSeq(s) => write!(f, "unknown kv sequence {s}"),
            KvPoolError::DoubleAlloc(s) => write!(f, "kv sequence {s} already allocated"),
        }
    }
}

impl std::error::Error for KvPoolError {}

/// Lifetime counters, for the `/metrics` serving block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvPoolStats {
    /// Successful block grants.
    pub block_allocs: u64,
    /// Blocks returned to the free-list.
    pub block_frees: u64,
    /// Grants refused for lack of blocks (each one is a preemption
    /// trigger upstream).
    pub failed_allocs: u64,
    /// High-water mark of blocks in use.
    pub peak_blocks: usize,
}

#[derive(Debug, Clone)]
struct SeqAlloc {
    blocks: Vec<u32>,
    tokens: usize,
}

/// Block-granular KV allocator with a LIFO free-list.
///
/// Pure bookkeeping — no tensor data — so the simulated serving engine
/// can use it for admission/preemption decisions at 10k+ concurrent
/// requests without touching floats. [`PagedKvStore`] pairs it with
/// real storage for the model-executing engine.
#[derive(Debug, Clone)]
pub struct KvPool {
    cfg: KvPoolConfig,
    free: Vec<u32>,
    seqs: HashMap<u64, SeqAlloc>,
    stats: KvPoolStats,
}

impl KvPool {
    /// An empty pool of `cfg.n_blocks` blocks, all free.
    pub fn new(cfg: KvPoolConfig) -> Self {
        // LIFO list popping from the back: block 0 is granted first,
        // recently freed blocks are reused first (cache-friendly and
        // deterministic).
        let free = (0..cfg.n_blocks as u32).rev().collect();
        Self { cfg, free, seqs: HashMap::new(), stats: KvPoolStats::default() }
    }

    /// Pool geometry.
    pub fn config(&self) -> KvPoolConfig {
        self.cfg
    }

    /// Blocks needed to hold `tokens` positions.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.cfg.block_tokens)
    }

    /// Register `seq` and grant blocks for `tokens` positions (0 is
    /// fine: the sequence exists but owns nothing yet).
    pub fn alloc(&mut self, seq: u64, tokens: usize) -> Result<(), KvPoolError> {
        if self.seqs.contains_key(&seq) {
            return Err(KvPoolError::DoubleAlloc(seq));
        }
        let needed = self.blocks_for(tokens);
        if needed > self.free.len() {
            self.stats.failed_allocs += 1;
            return Err(KvPoolError::Exhausted { needed, free: self.free.len() });
        }
        let blocks: Vec<u32> = (0..needed).map(|_| self.free.pop().unwrap()).collect();
        self.stats.block_allocs += blocks.len() as u64;
        self.seqs.insert(seq, SeqAlloc { blocks, tokens });
        self.note_peak();
        Ok(())
    }

    /// Grow `seq` by `tokens` more positions, granting blocks as chain
    /// boundaries are crossed. On [`KvPoolError::Exhausted`] the
    /// sequence is left exactly as it was.
    pub fn extend(&mut self, seq: u64, tokens: usize) -> Result<(), KvPoolError> {
        let free_now = self.free.len();
        let a = self.seqs.get_mut(&seq).ok_or(KvPoolError::UnknownSeq(seq))?;
        let have = a.blocks.len();
        let needed = (a.tokens + tokens).div_ceil(self.cfg.block_tokens);
        let grow = needed.saturating_sub(have);
        if grow > free_now {
            self.stats.failed_allocs += 1;
            return Err(KvPoolError::Exhausted { needed: grow, free: free_now });
        }
        for _ in 0..grow {
            a.blocks.push(self.free.pop().unwrap());
        }
        a.tokens += tokens;
        self.stats.block_allocs += grow as u64;
        self.note_peak();
        Ok(())
    }

    /// New blocks an `extend(seq, tokens)` would need right now.
    pub fn blocks_needed(&self, seq: u64, tokens: usize) -> usize {
        match self.seqs.get(&seq) {
            None => self.blocks_for(tokens),
            Some(a) => {
                (a.tokens + tokens).div_ceil(self.cfg.block_tokens).saturating_sub(a.blocks.len())
            }
        }
    }

    /// Release `seq`'s whole chain back to the free-list. Returns the
    /// number of blocks freed (0 for an unknown sequence — freeing
    /// twice is harmless by design, the scheduler calls this on both
    /// finish and preempt paths).
    pub fn free(&mut self, seq: u64) -> usize {
        match self.seqs.remove(&seq) {
            None => 0,
            Some(a) => {
                let n = a.blocks.len();
                self.free.extend(a.blocks.into_iter().rev());
                self.stats.block_frees += n as u64;
                n
            }
        }
    }

    /// Token positions currently held by `seq` (None if unregistered).
    pub fn tokens_of(&self, seq: u64) -> Option<usize> {
        self.seqs.get(&seq).map(|a| a.tokens)
    }

    /// The block chain of `seq`, in position order.
    pub fn blocks_of(&self, seq: u64) -> Option<&[u32]> {
        self.seqs.get(&seq).map(|a| a.blocks.as_slice())
    }

    /// Free blocks available.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Blocks currently granted.
    pub fn used_blocks(&self) -> usize {
        self.cfg.n_blocks - self.free.len()
    }

    /// Whether `tokens` more positions could be granted to a *new*
    /// sequence right now.
    pub fn can_fit(&self, tokens: usize) -> bool {
        self.blocks_for(tokens) <= self.free.len()
    }

    /// Whether a request of `tokens` total positions could *ever* fit
    /// (i.e. in an empty pool) — requests failing this are infeasible
    /// and must be shed at admission, not admitted and preempted
    /// forever.
    pub fn feasible(&self, tokens: usize) -> bool {
        self.blocks_for(tokens) <= self.cfg.n_blocks
    }

    /// Occupancy in `[0, 1]`: granted blocks over total.
    pub fn occupancy(&self) -> f64 {
        if self.cfg.n_blocks == 0 {
            return 1.0;
        }
        self.used_blocks() as f64 / self.cfg.n_blocks as f64
    }

    /// Live (registered) sequences.
    pub fn live_seqs(&self) -> usize {
        self.seqs.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> KvPoolStats {
        self.stats
    }

    fn note_peak(&mut self) {
        self.stats.peak_blocks = self.stats.peak_blocks.max(self.used_blocks());
    }
}

/// Block-paged K/V tensor storage on top of [`KvPool`].
///
/// One K and one V arena per layer, one block of each per pool block.
/// A key block is `hidden × 16` floats, k-major — `block[dim · 16 +
/// slot]` is dimension `dim` of the block's position `slot` — which is
/// the panel layout QKᵀ sweeps with positions in lanes, so attention
/// reads keys in place with no transposing fill. A value block is 16
/// rows of `hidden`: PV sweeps values with dimensions in lanes, and a
/// row already is that. Rows for a sequence live wherever its block
/// chain points. The serving engines compute on them in place through
/// [`PagedKvStore::extend_seq`]; [`PagedKvStore::gather`] materialises a
/// contiguous per-sequence [`KvCache`] copy and [`PagedKvStore::append`]
/// scatters the rows of one back into the chain (growing it
/// block-by-block), both transposing keys.
///
/// A block is one key block, so a store holds blocks of exactly
/// [`KV_BLOCK`] = 16 positions and refuses any other size rather than
/// pad ([`PagedKvStore::check_block_tokens`]); a [`KvPool`] on its own
/// accounts at any granularity. The arenas grow with the chains, to the
/// highest block ever granted; the free list is LIFO from block 0, so
/// that is the peak number of blocks in use, and resident memory follows
/// the blocks used, not the capacity. (Zero-allocated at full capacity
/// up front they were resident or not at the allocator's whim: once a
/// ring had been built and dropped, the next one's came from freed heap
/// memory, zeroed page by page.)
#[derive(Debug, Clone)]
pub struct PagedKvStore {
    pool: KvPool,
    n_layers: usize,
    hidden: usize,
    /// `k[layer]`: block `b` is `[b · hidden · 16, (b + 1) · hidden · 16)`,
    /// k-major; as long as the highest block granted so far needs.
    k: Vec<Vec<f32>>,
    /// `v[layer]`: row `b · 16 + slot` holds that position's vector.
    v: Vec<Vec<f32>>,
}

impl PagedKvStore {
    /// Arenas for `n_layers` layers of width `hidden` over `cfg` blocks.
    ///
    /// Panics with [`Self::check_block_tokens`]'s message unless
    /// `cfg.block_tokens` is 16.
    pub fn new(cfg: KvPoolConfig, n_layers: usize, hidden: usize) -> Self {
        if let Err(rule) = Self::check_block_tokens(cfg.block_tokens) {
            panic!("{rule}");
        }
        Self { pool: KvPool::new(cfg), n_layers, hidden, k: vec![Vec::new(); n_layers], v: vec![Vec::new(); n_layers] }
    }

    /// Extend `seq`'s chain by `tokens` positions, then grow the arenas
    /// to cover every block it holds. On exhaustion nothing changes.
    fn grow(&mut self, seq: u64, tokens: usize) -> Result<(), KvPoolError> {
        self.pool.extend(seq, tokens)?;
        let top = self.pool.seqs[&seq].blocks.iter().map(|&b| b as usize + 1).max().unwrap_or(0);
        let floats = top * self.hidden * KV_BLOCK;
        for arena in self.k.iter_mut().chain(&mut self.v) {
            if arena.len() < floats {
                arena.resize(floats, 0.0);
            }
        }
        Ok(())
    }

    /// Whether a store can hold blocks of `block_tokens` positions: only
    /// 16, one k-major key block. The error names the rule.
    pub fn check_block_tokens(block_tokens: usize) -> Result<(), String> {
        if block_tokens == KV_BLOCK {
            Ok(())
        } else {
            Err(format!(
                "a KV store keeps keys in {KV_BLOCK}-position k-major blocks: block_tokens must be \
                 {KV_BLOCK}, got {block_tokens}"
            ))
        }
    }

    /// The underlying allocator (read-only; mutation goes through
    /// [`Self::register`] / [`Self::extend_seq`] / [`Self::append`] /
    /// [`Self::release`]).
    pub fn pool(&self) -> &KvPool {
        &self.pool
    }

    /// Register a sequence with no KV yet.
    pub fn register(&mut self, seq: u64) -> Result<(), KvPoolError> {
        self.pool.alloc(seq, 0)
    }

    /// Drop a sequence and return its blocks.
    pub fn release(&mut self, seq: u64) -> usize {
        self.pool.free(seq)
    }

    /// Grow `seq`'s chain by `new_tokens` positions and return the view
    /// a layer forward computes them through. The chain is extended
    /// *first*: on [`KvPoolError::Exhausted`] nothing has been computed,
    /// and the chain and the arenas are exactly as they were.
    pub fn extend_seq(&mut self, seq: u64, new_tokens: usize) -> Result<PagedSeq<'_>, KvPoolError> {
        self.grow(seq, new_tokens)?;
        let a = &self.pool.seqs[&seq];
        Ok(PagedSeq {
            blocks: &a.blocks,
            tokens: a.tokens,
            hidden: self.hidden,
            k: &mut self.k,
            v: &mut self.v,
            filled: vec![a.tokens - new_tokens; self.n_layers],
        })
    }

    /// Gather `seq`'s KV into a contiguous cache of `tokens_of(seq)`
    /// rows per layer.
    pub fn gather(&self, seq: u64) -> Result<KvCache, KvPoolError> {
        let a = self.pool.seqs.get(&seq).ok_or(KvPoolError::UnknownSeq(seq))?;
        let (hidden, block) = (self.hidden, self.hidden * KV_BLOCK);
        let mut cache = KvCache::new(self.n_layers, hidden);
        for layer in 0..self.n_layers {
            let (km, vm) = (&mut cache.k[layer], &mut cache.v[layer]);
            km.data = vec![0.0; a.tokens * hidden];
            vm.data.reserve(a.tokens * hidden);
            for (i, &b) in a.blocks.iter().enumerate() {
                let b = b as usize;
                let take = (a.tokens - i * KV_BLOCK).min(KV_BLOCK);
                let keys = &self.k[layer][b * block..][..block];
                for (slot, row) in km.data[i * block..].chunks_exact_mut(hidden.max(1)).take(take).enumerate() {
                    for (dim, x) in row.iter_mut().enumerate() {
                        *x = keys[dim * KV_BLOCK + slot];
                    }
                }
                vm.data.extend_from_slice(&self.v[layer][b * block..][..take * hidden]);
            }
            km.rows = a.tokens;
            vm.rows = a.tokens;
        }
        Ok(cache)
    }

    /// Scatter rows `[from_row..]` of `cache` (a gathered cache the
    /// forward pass appended to) back into `seq`'s chain, growing it.
    /// On exhaustion nothing is written and the chain is unchanged.
    pub fn append(&mut self, seq: u64, cache: &KvCache, from_row: usize) -> Result<(), KvPoolError> {
        let new_rows = cache.len().saturating_sub(from_row);
        if new_rows == 0 {
            return Ok(());
        }
        self.grow(seq, new_rows)?;
        let blocks = &self.pool.seqs[&seq].blocks;
        for layer in 0..self.n_layers {
            for pos in from_row..from_row + new_rows {
                let (k, v) = (cache.k[layer].row(pos), cache.v[layer].row(pos));
                put(&mut self.k[layer], &mut self.v[layer], blocks, pos, k, v);
            }
        }
        Ok(())
    }

    /// The raw K and V arenas, for tests that pin "nothing was written".
    #[cfg(test)]
    pub(crate) fn arenas(&self) -> (&[Vec<f32>], &[Vec<f32>]) {
        (&self.k, &self.v)
    }

    /// Hidden width per row.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Layers per arena.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// KV bytes resident (f32 K+V over granted blocks, all layers) —
    /// the figure the occupancy gauge reports.
    pub fn resident_bytes(&self) -> u64 {
        let rows = self.pool.used_blocks() * self.pool.cfg.block_tokens;
        (rows * self.hidden * self.n_layers * 2 * std::mem::size_of::<f32>()) as u64
    }
}

/// Store position `pos` of a chain: its key into its block's slot,
/// dimension by dimension, and its value row.
fn put(k_arena: &mut [f32], v_arena: &mut [f32], blocks: &[u32], pos: usize, k: &[f32], v: &[f32]) {
    let hidden = k.len();
    let (b, slot) = (blocks[pos / KV_BLOCK] as usize, pos % KV_BLOCK);
    let keys = &mut k_arena[b * hidden * KV_BLOCK..][..hidden * KV_BLOCK];
    for (dim, &x) in k.iter().enumerate() {
        keys[dim * KV_BLOCK + slot] = x;
    }
    v_arena[(b * KV_BLOCK + slot) * hidden..][..hidden].copy_from_slice(v);
}

/// One sequence of a [`PagedKvStore`] as the layer forward sees it
/// ([`PagedKvStore::extend_seq`]): every cached block read where it
/// lives, the reserved positions written in place.
#[derive(Debug)]
pub struct PagedSeq<'a> {
    /// The chain: one arena block per 16 positions, the reserved ones
    /// included.
    blocks: &'a [u32],
    /// Positions the chain holds once every reserved one is written.
    tokens: usize,
    hidden: usize,
    k: &'a mut [Vec<f32>],
    v: &'a mut [Vec<f32>],
    /// Positions written so far, per layer.
    filled: Vec<usize>,
}

/// One layer of a [`PagedSeq`], block by block where it lives.
#[derive(Debug, Clone, Copy)]
pub struct PagedBlocks<'a> {
    k: &'a [f32],
    v: &'a [f32],
    blocks: &'a [u32],
    /// Floats per block, of keys and of values alike: `hidden × 16`.
    block: usize,
}

impl KvBlocks for PagedBlocks<'_> {
    fn key_block(&self, b: usize) -> &[f32] {
        &self.k[self.blocks[b] as usize * self.block..][..self.block]
    }

    fn value_block(&self, b: usize) -> &[f32] {
        &self.v[self.blocks[b] as usize * self.block..][..self.block]
    }
}

impl KvSeq for PagedSeq<'_> {
    type Blocks<'s>
        = PagedBlocks<'s>
    where
        Self: 's;

    fn cached(&self, layer: usize) -> usize {
        self.filled[layer]
    }

    fn blocks(&self, layer: usize) -> PagedBlocks<'_> {
        let block = self.hidden * KV_BLOCK;
        PagedBlocks { k: &self.k[layer], v: &self.v[layer], blocks: self.blocks, block }
    }

    fn push_rows(&mut self, layer: usize, k: &Matrix, v: &Matrix) {
        let from = self.filled[layer];
        assert!(from + k.rows <= self.tokens, "more rows than the chain was extended for");
        for r in 0..k.rows {
            put(&mut self.k[layer], &mut self.v[layer], self.blocks, from + r, k.row(r), v.row(r));
        }
        self.filled[layer] += k.rows;
    }
}

/// Convenience: a `Matrix` wrapper used in tests to fabricate KV rows.
pub fn kv_row_matrix(rows: usize, hidden: usize, fill: impl Fn(usize, usize) -> f32) -> Matrix {
    let mut m = Matrix::zeros(rows, hidden);
    for r in 0..rows {
        for c in 0..hidden {
            m.data[r * hidden + c] = fill(r, c);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n_blocks: usize, block_tokens: usize) -> KvPool {
        KvPool::new(KvPoolConfig { n_blocks, block_tokens })
    }

    #[test]
    fn alloc_rounds_up_to_blocks() {
        let mut p = pool(8, 16);
        p.alloc(1, 17).unwrap();
        assert_eq!(p.blocks_of(1).unwrap().len(), 2);
        assert_eq!(p.tokens_of(1), Some(17));
        assert_eq!(p.free_blocks(), 6);
    }

    #[test]
    fn zero_token_alloc_registers_without_blocks() {
        let mut p = pool(4, 16);
        p.alloc(9, 0).unwrap();
        assert_eq!(p.blocks_of(9).unwrap().len(), 0);
        assert_eq!(p.free_blocks(), 4);
        p.extend(9, 1).unwrap();
        assert_eq!(p.blocks_of(9).unwrap().len(), 1);
    }

    #[test]
    fn extend_grants_only_on_boundary() {
        let mut p = pool(8, 4);
        p.alloc(1, 3).unwrap();
        assert_eq!(p.used_blocks(), 1);
        p.extend(1, 1).unwrap(); // 4 tokens: still one block
        assert_eq!(p.used_blocks(), 1);
        p.extend(1, 1).unwrap(); // 5 tokens: crosses into a second
        assert_eq!(p.used_blocks(), 2);
        assert_eq!(p.blocks_needed(1, 3), 0);
        assert_eq!(p.blocks_needed(1, 4), 1);
    }

    #[test]
    fn exhaustion_is_reported_and_leaves_state_intact() {
        let mut p = pool(2, 4);
        p.alloc(1, 8).unwrap();
        let err = p.alloc(2, 1).unwrap_err();
        assert!(matches!(err, KvPoolError::Exhausted { needed: 1, free: 0 }));
        p.alloc(2, 0).unwrap();
        let err = p.extend(2, 1).unwrap_err();
        assert!(matches!(err, KvPoolError::Exhausted { .. }));
        assert_eq!(p.tokens_of(2), Some(0));
        assert_eq!(p.stats().failed_allocs, 2);
    }

    #[test]
    fn free_returns_blocks_for_reuse() {
        let mut p = pool(2, 4);
        p.alloc(1, 8).unwrap();
        assert!(!p.can_fit(1));
        assert_eq!(p.free(1), 2);
        assert!(p.can_fit(8));
        assert_eq!(p.free(1), 0, "double free is a no-op");
        p.alloc(2, 8).unwrap();
        assert_eq!(p.used_blocks(), 2);
    }

    #[test]
    fn feasible_vs_can_fit() {
        let mut p = pool(4, 4);
        p.alloc(1, 12).unwrap();
        assert!(!p.can_fit(8), "only one block free");
        assert!(p.feasible(16), "fits an empty pool");
        assert!(!p.feasible(17), "never fits");
    }

    #[test]
    fn double_alloc_and_unknown_seq_are_errors() {
        let mut p = pool(4, 4);
        p.alloc(1, 1).unwrap();
        assert_eq!(p.alloc(1, 1).unwrap_err(), KvPoolError::DoubleAlloc(1));
        assert_eq!(p.extend(2, 1).unwrap_err(), KvPoolError::UnknownSeq(2));
    }

    #[test]
    fn occupancy_and_peak_track_usage() {
        let mut p = pool(10, 4);
        p.alloc(1, 16).unwrap();
        assert!((p.occupancy() - 0.4).abs() < 1e-12);
        p.free(1);
        assert_eq!(p.occupancy(), 0.0);
        assert_eq!(p.stats().peak_blocks, 4);
        assert_eq!(p.stats().block_allocs, 4);
        assert_eq!(p.stats().block_frees, 4);
    }

    #[test]
    fn interleaved_alloc_free_never_leaks_blocks() {
        let mut p = pool(16, 8);
        for round in 0u64..50 {
            for s in 0..4 {
                p.alloc(round * 10 + s, (s as usize + 1) * 7).unwrap();
            }
            for s in 0..4 {
                p.free(round * 10 + s);
            }
            assert_eq!(p.free_blocks(), 16, "round {round}");
            assert_eq!(p.live_seqs(), 0);
        }
    }

    /// Blocks of 16 positions, as every store has.
    fn store(n_blocks: usize, n_layers: usize, hidden: usize) -> PagedKvStore {
        PagedKvStore::new(KvPoolConfig { n_blocks, block_tokens: 16 }, n_layers, hidden)
    }

    #[test]
    fn store_gather_matches_append_round_trip() {
        let mut st = store(8, 2, 3);
        st.register(7).unwrap();
        // Fabricate a "forward pass" that appended 20 rows to an empty
        // gathered cache.
        let mut cache = st.gather(7).unwrap();
        for layer in 0..2 {
            let km = kv_row_matrix(20, 3, |r, c| (layer * 100 + r * 10 + c) as f32);
            let vm = kv_row_matrix(20, 3, |r, c| -((layer * 100 + r * 10 + c) as f32));
            cache.k[layer] = km;
            cache.v[layer] = vm;
        }
        st.append(7, &cache, 0).unwrap();
        assert_eq!(st.pool().tokens_of(7), Some(20));
        assert_eq!(st.pool().used_blocks(), 2);
        let back = st.gather(7).unwrap();
        assert_eq!(back.len(), 20);
        for layer in 0..2 {
            assert_eq!(back.k[layer].data, cache.k[layer].data, "layer {layer} K");
            assert_eq!(back.v[layer].data, cache.v[layer].data, "layer {layer} V");
        }
    }

    #[test]
    fn store_incremental_append_matches_monolithic() {
        // Growing one row at a time across block boundaries must read
        // back identically to a single bulk append.
        let mut bulk = store(8, 1, 2);
        let mut inc = store(8, 1, 2);
        bulk.register(1).unwrap();
        inc.register(1).unwrap();
        let full = kv_row_matrix(40, 2, |r, c| (r * 2 + c) as f32 * 0.5);
        let mut c = bulk.gather(1).unwrap();
        c.k[0] = full.clone();
        c.v[0] = full.clone();
        bulk.append(1, &c, 0).unwrap();
        for row in 0..40 {
            let mut g = inc.gather(1).unwrap();
            let one = kv_row_matrix(1, 2, |_, cix| (row * 2 + cix) as f32 * 0.5);
            g.k[0].data.extend_from_slice(&one.data);
            g.k[0].rows += 1;
            g.v[0].data.extend_from_slice(&one.data);
            g.v[0].rows += 1;
            inc.append(1, &g, row).unwrap();
        }
        assert_eq!(inc.gather(1).unwrap().k[0].data, bulk.gather(1).unwrap().k[0].data);
        assert_eq!(inc.pool().used_blocks(), bulk.pool().used_blocks());
    }

    #[test]
    fn store_release_then_reuse_is_clean() {
        let mut st = store(2, 1, 1);
        st.register(1).unwrap();
        let mut c = st.gather(1).unwrap();
        c.k[0] = kv_row_matrix(32, 1, |_, _| 7.0);
        c.v[0] = kv_row_matrix(32, 1, |_, _| 7.0);
        st.append(1, &c, 0).unwrap();
        assert_eq!(st.release(1), 2);
        // A new sequence reusing the same blocks sees only its own rows.
        st.register(2).unwrap();
        let mut c2 = st.gather(2).unwrap();
        c2.k[0] = kv_row_matrix(1, 1, |_, _| 3.0);
        c2.v[0] = kv_row_matrix(1, 1, |_, _| 3.0);
        st.append(2, &c2, 0).unwrap();
        let g = st.gather(2).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.k[0].data, vec![3.0]);
    }

    #[test]
    fn view_writes_in_place_what_gather_reads_back() {
        // Two interleaved sequences over 16-token blocks: rows pushed
        // through the view land where `gather` finds them, and the view
        // hands out, as key blocks and value rows, rows appended the
        // copying way.
        let mut st = store(8, 2, 2);
        st.register(1).unwrap();
        st.register(2).unwrap();
        let rows = |seq: usize, layer: usize, from: usize, n: usize, sign: f32| {
            kv_row_matrix(n, 2, |r, c| sign * (seq * 1000 + layer * 100 + (from + r) * 2 + c) as f32)
        };
        for (seq, from, n) in [(1usize, 0usize, 20usize), (2, 0, 10), (1, 20, 5), (2, 10, 25), (1, 25, 15)] {
            let mut view = st.extend_seq(seq as u64, n).unwrap();
            for layer in 0..2 {
                assert_eq!(view.cached(layer), from);
                view.push_rows(layer, &rows(seq, layer, from, n, 1.0), &rows(seq, layer, from, n, -1.0));
                assert_eq!(view.cached(layer), from + n);
            }
        }
        for (seq, total) in [(1usize, 40usize), (2, 35)] {
            let back = st.gather(seq as u64).unwrap();
            assert_eq!(st.pool().tokens_of(seq as u64), Some(total));
            let view = st.extend_seq(seq as u64, 0).unwrap();
            for layer in 0..2 {
                assert_eq!(back.k[layer], rows(seq, layer, 0, total, 1.0));
                assert_eq!(back.v[layer], rows(seq, layer, 0, total, -1.0));
                let blocks = view.blocks(layer);
                for pos in 0..total {
                    let (b, slot) = (pos / KV_BLOCK, pos % KV_BLOCK);
                    let keys = blocks.key_block(b);
                    let key: Vec<f32> = (0..2).map(|dim| keys[dim * KV_BLOCK + slot]).collect();
                    assert_eq!(key, back.k[layer].row(pos));
                    assert_eq!(&blocks.value_block(b)[slot * 2..][..2], back.v[layer].row(pos));
                }
            }
        }
    }

    #[test]
    fn view_refused_for_lack_of_blocks_changes_nothing() {
        let mut st = store(2, 1, 1);
        st.register(1).unwrap();
        let mut view = st.extend_seq(1, 17).unwrap();
        view.push_rows(0, &kv_row_matrix(17, 1, |r, _| r as f32), &kv_row_matrix(17, 1, |r, _| -(r as f32)));
        let before = (st.pool().blocks_of(1).unwrap().to_vec(), st.k.clone(), st.v.clone());
        let err = st.extend_seq(1, 16).map(|_| ()).unwrap_err();
        assert_eq!(err, KvPoolError::Exhausted { needed: 1, free: 0 });
        assert_eq!(st.extend_seq(9, 1).map(|_| ()).unwrap_err(), KvPoolError::UnknownSeq(9));
        assert_eq!(st.pool().tokens_of(1), Some(17));
        assert_eq!((st.pool().blocks_of(1).unwrap().to_vec(), st.k.clone(), st.v.clone()), before);
        // The last free positions are still grantable.
        st.extend_seq(1, 15).unwrap();
    }

    #[test]
    fn arenas_grow_to_the_highest_block_granted_and_no_further() {
        // A store sized for 64 blocks holds nothing until a chain grows;
        // blocks come back LIFO, so a sequence reusing released ones does
        // not grow the arenas again.
        let mut st = store(64, 2, 8);
        let floats = |st: &PagedKvStore| -> Vec<usize> {
            let (k, v) = st.arenas();
            k.iter().chain(v).map(Vec::len).collect()
        };
        assert_eq!(floats(&st), vec![0; 4]);
        st.register(1).unwrap();
        st.extend_seq(1, 20).unwrap();
        assert_eq!(floats(&st), vec![2 * 16 * 8; 4]);
        st.release(1);
        st.register(2).unwrap();
        st.extend_seq(2, 32).unwrap();
        assert_eq!(floats(&st), vec![2 * 16 * 8; 4]);
        st.register(3).unwrap();
        st.append(3, &st.gather(2).unwrap(), 0).unwrap();
        assert_eq!(floats(&st), vec![4 * 16 * 8; 4]);
    }

    #[test]
    fn resident_bytes_follows_blocks() {
        let mut st = store(4, 3, 5);
        assert_eq!(st.resident_bytes(), 0);
        st.register(1).unwrap();
        let mut c = st.gather(1).unwrap();
        c.k[0] = kv_row_matrix(17, 5, |_, _| 1.0);
        c.v[0] = kv_row_matrix(17, 5, |_, _| 1.0);
        c.k[1] = c.k[0].clone();
        c.v[1] = c.v[0].clone();
        c.k[2] = c.k[0].clone();
        c.v[2] = c.v[0].clone();
        st.append(1, &c, 0).unwrap();
        // 2 blocks × 16 tokens × 5 hidden × 3 layers × (K+V) × 4 bytes.
        assert_eq!(st.resident_bytes(), (2 * 16 * 5 * 3 * 2 * 4) as u64);
    }
}
