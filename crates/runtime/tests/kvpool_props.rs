//! Property tests for the paged KV allocator: arbitrary interleavings
//! of alloc / extend / free against a naive token-count model. The
//! scheduler trusts this bookkeeping for admission and preemption, so
//! the invariants here are the ones a corrupted free-list would break
//! first: every block is owned by exactly one chain or the free-list
//! (no double-grant, no leak, no double-free), accounting matches the
//! live sequences exactly, and fragmentation stays under one partial
//! block per live sequence. The tensor store on top of it keeps keys in
//! 16-position k-major blocks: what goes in as rows — appended, or pushed
//! by a layer forward through a view — comes back out as the same bits,
//! and it holds no other block size.

use llmpq_model::{KvBlocks, KvCache, KvSeq, Matrix};
use llmpq_runtime::{KvPool, KvPoolConfig, KvPoolError, PagedKvStore};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One allocator call, decoded from a raw `(kind, seq, tokens)` draw.
/// Sequence ids are kept small so ops collide on live and dead
/// sequences (double-alloc, unknown-extend, double-free paths).
#[derive(Debug, Clone)]
enum Op {
    Alloc { seq: u64, tokens: usize },
    Extend { seq: u64, tokens: usize },
    Free { seq: u64 },
}

fn decode(kind: usize, seq: u64, tokens: usize) -> Op {
    match kind {
        0 | 1 => Op::Alloc { seq, tokens },
        2 | 3 => Op::Extend { seq, tokens: tokens % 12 },
        _ => Op::Free { seq },
    }
}

/// Every invariant the scheduler relies on, checked after every op.
fn check_invariants(p: &KvPool, model: &BTreeMap<u64, usize>) {
    let cfg = p.config();
    let bt = cfg.block_tokens;

    // Accounting: the pool sees exactly the model's live sequences.
    assert_eq!(p.live_seqs(), model.len(), "live sequence count");
    let mut expect_used = 0usize;
    for (&seq, &tokens) in model {
        assert_eq!(p.tokens_of(seq), Some(tokens), "seq {seq} token count");
        let blocks = p.blocks_of(seq).expect("live seq has a chain");
        // Fragmentation bound: the chain is exactly ceil(tokens/bt)
        // blocks — at most one partially filled block per sequence,
        // never a fully empty trailing block.
        assert_eq!(blocks.len(), tokens.div_ceil(bt), "seq {seq} chain length");
        expect_used += blocks.len();
    }
    assert_eq!(p.used_blocks(), expect_used, "used == sum of live chains");
    assert_eq!(p.free_blocks() + p.used_blocks(), cfg.n_blocks, "free + used == total");

    // Ownership: every block id appears exactly once across all chains
    // (the free-list holds the rest) — a double-grant would show up as
    // a duplicate, a leak as a missing id.
    let mut seen = BTreeSet::new();
    for &seq in model.keys() {
        for &b in p.blocks_of(seq).unwrap() {
            assert!((b as usize) < cfg.n_blocks, "block {b} out of range");
            assert!(seen.insert(b), "block {b} granted to two chains");
        }
    }
    assert_eq!(seen.len(), expect_used);

    // Lifetime counters never drift from the live state.
    let stats = p.stats();
    assert_eq!(
        stats.block_allocs - stats.block_frees,
        expect_used as u64,
        "allocs - frees == blocks in use"
    );
    assert!(stats.peak_blocks >= expect_used, "peak below current usage");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary op interleavings keep the pool consistent with the
    /// naive model, error for error.
    // The contains_key/insert split mirrors the three-way outcome match;
    // the entry API would bury the per-branch assertions.
    #[test]
    #[allow(clippy::map_entry)]
    fn interleavings_match_model(
        n_blocks in 1usize..24,
        block_tokens in 1usize..8,
        raw_ops in prop::collection::vec((0usize..6, 0u64..8, 0usize..40), 1..120),
    ) {
        let cfg = KvPoolConfig { n_blocks, block_tokens };
        let mut p = KvPool::new(cfg);
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();
        let mut free_model = n_blocks;

        for (kind, seq, tokens) in raw_ops {
            match decode(kind, seq, tokens) {
                Op::Alloc { seq, tokens } => {
                    let needed = tokens.div_ceil(block_tokens);
                    let r = p.alloc(seq, tokens);
                    if model.contains_key(&seq) {
                        prop_assert_eq!(r, Err(KvPoolError::DoubleAlloc(seq)));
                    } else if needed > free_model {
                        prop_assert_eq!(
                            r,
                            Err(KvPoolError::Exhausted { needed, free: free_model })
                        );
                    } else {
                        prop_assert_eq!(r, Ok(()));
                        model.insert(seq, tokens);
                        free_model -= needed;
                    }
                }
                Op::Extend { seq, tokens } => {
                    let r = p.extend(seq, tokens);
                    match model.get_mut(&seq) {
                        None => prop_assert_eq!(r, Err(KvPoolError::UnknownSeq(seq))),
                        Some(have) => {
                            let old_blocks = have.div_ceil(block_tokens);
                            let new_blocks = (*have + tokens).div_ceil(block_tokens);
                            let grow = new_blocks - old_blocks;
                            if grow > free_model {
                                prop_assert_eq!(
                                    r,
                                    Err(KvPoolError::Exhausted { needed: grow, free: free_model })
                                );
                                // Failed extend must leave the sequence
                                // exactly as it was.
                                prop_assert_eq!(p.tokens_of(seq), Some(*have));
                            } else {
                                prop_assert_eq!(r, Ok(()));
                                *have += tokens;
                                free_model -= grow;
                            }
                        }
                    }
                }
                Op::Free { seq } => {
                    let freed = p.free(seq);
                    match model.remove(&seq) {
                        None => prop_assert_eq!(freed, 0, "double free must be a no-op"),
                        Some(tokens) => {
                            let chain = tokens.div_ceil(block_tokens);
                            prop_assert_eq!(freed, chain, "free returns the whole chain");
                            free_model += chain;
                        }
                    }
                    // Freeing again immediately is always a no-op.
                    prop_assert_eq!(p.free(seq), 0);
                }
            }
            prop_assert_eq!(p.free_blocks(), free_model);
            check_invariants(&p, &model);
        }

        // Drain everything: the pool must come back whole.
        for seq in model.keys().copied().collect::<Vec<_>>() {
            p.free(seq);
        }
        prop_assert_eq!(p.free_blocks(), n_blocks);
        prop_assert_eq!(p.live_seqs(), 0);
        let stats = p.stats();
        prop_assert_eq!(stats.block_allocs, stats.block_frees);
    }

    /// `blocks_needed` / `can_fit` / `feasible` are consistent oracles
    /// for what `alloc` / `extend` will actually do.
    #[test]
    fn planning_oracles_predict_grants(
        n_blocks in 1usize..16,
        block_tokens in 1usize..8,
        first in 0usize..40,
        grow in 0usize..24,
    ) {
        let cfg = KvPoolConfig { n_blocks, block_tokens };
        let mut p = KvPool::new(cfg);

        let fits = p.can_fit(first);
        prop_assert_eq!(fits, p.blocks_for(first) <= n_blocks);
        prop_assert_eq!(p.blocks_needed(1, first), p.blocks_for(first));
        let r = p.alloc(1, first);
        prop_assert_eq!(r.is_ok(), fits, "can_fit must predict alloc on an empty pool");
        if !fits {
            prop_assert!(!p.feasible(first), "infeasible requests can never fit");
            return Ok(());
        }

        let need = p.blocks_needed(1, grow);
        let would_fit = need <= p.free_blocks();
        let before = p.tokens_of(1);
        let r = p.extend(1, grow);
        prop_assert_eq!(r.is_ok(), would_fit, "blocks_needed must predict extend");
        if would_fit {
            prop_assert_eq!(p.tokens_of(1), Some(first + grow));
        } else {
            prop_assert_eq!(p.tokens_of(1), before, "failed extend leaves state intact");
        }
    }

    /// Rows appended to the k-major store in arbitrary chunks — into
    /// blocks a released sequence left its own rows in — gather back bit
    /// for bit, NaN payloads and signed zeros included.
    #[test]
    fn append_then_gather_round_trips_bit_exactly(
        n_layers in 1usize..4,
        hidden in 1usize..20,
        total in 0usize..70,
        cuts in prop::collection::vec(1usize..24, 1..10),
        seed in 0u64..1000,
    ) {
        let mut st = store(n_layers, hidden);
        // A previous occupant fills blocks that go back on the free list.
        st.register(9).unwrap();
        st.append(9, &rows(n_layers, 40, hidden, !seed), 0).unwrap();
        st.release(9);
        st.register(1).unwrap();
        let whole = rows(n_layers, total, hidden, seed);
        let mut at = 0;
        for cut in cuts.iter().cycle() {
            if at == total {
                break;
            }
            let end = (at + cut).min(total);
            st.append(1, &prefix(&whole, end), at).unwrap();
            at = end;
        }
        prop_assert_eq!(st.pool().tokens_of(1), Some(total));
        prop_assert_eq!(bits(&st.gather(1).unwrap()), bits(&whole));
    }

    /// A layer forward's writes — `extend_seq`, then `push_rows` layer by
    /// layer — over arbitrary chunk sizes leave the store as appending
    /// the same rows does, and the view hands them back as key blocks and
    /// value blocks.
    #[test]
    fn pushed_rows_equal_appended_rows(
        n_layers in 1usize..4,
        hidden in 1usize..20,
        total in 1usize..70,
        cuts in prop::collection::vec(1usize..24, 1..10),
        seed in 0u64..1000,
    ) {
        let whole = rows(n_layers, total, hidden, seed);
        let mut appended = store(n_layers, hidden);
        appended.register(1).unwrap();
        appended.append(1, &whole, 0).unwrap();
        let mut pushed = store(n_layers, hidden);
        pushed.register(1).unwrap();
        let mut at = 0;
        for cut in cuts.iter().cycle() {
            if at == total {
                break;
            }
            let n = (*cut).min(total - at);
            let mut view = pushed.extend_seq(1, n).unwrap();
            for layer in 0..n_layers {
                prop_assert_eq!(view.cached(layer), at);
                let (k, v) = (slice(&whole.k[layer], at, n), slice(&whole.v[layer], at, n));
                view.push_rows(layer, &k, &v);
            }
            at += n;
        }
        prop_assert_eq!(bits(&pushed.gather(1).unwrap()), bits(&appended.gather(1).unwrap()));
        let view = pushed.extend_seq(1, 0).unwrap();
        for layer in 0..n_layers {
            let blocks = view.blocks(layer);
            for pos in 0..total {
                let (b, slot) = (pos / 16, pos % 16);
                let keys = blocks.key_block(b);
                for dim in 0..hidden {
                    prop_assert_eq!(keys[dim * 16 + slot].to_bits(), whole.k[layer].row(pos)[dim].to_bits());
                }
                let v: Vec<u32> = blocks.value_block(b)[slot * hidden..][..hidden].iter().map(|x| x.to_bits()).collect();
                let want: Vec<u32> = whole.v[layer].row(pos).iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(v, want);
            }
        }
    }
}

/// A store holds 16-position blocks and nothing else — no padding —
/// while the pool on its own accounts at any granularity.
#[test]
fn a_store_refuses_any_other_block_size() {
    for block_tokens in 0..64 {
        let cfg = KvPoolConfig { n_blocks: 2, block_tokens };
        assert_eq!(KvPool::new(cfg).config(), cfg);
        match PagedKvStore::check_block_tokens(block_tokens) {
            Ok(()) => assert_eq!(PagedKvStore::new(cfg, 1, 4).pool().config(), cfg),
            Err(rule) => {
                assert_ne!(block_tokens, 16);
                assert_eq!(rule, format!(
                    "a KV store keeps keys in 16-position k-major blocks: block_tokens must be 16, got {block_tokens}"
                ));
            }
        }
    }
    let refused = std::panic::catch_unwind(|| PagedKvStore::new(KvPoolConfig { n_blocks: 2, block_tokens: 8 }, 1, 4));
    let msg = refused.expect_err("the store must refuse 8-position blocks");
    assert_eq!(msg.downcast_ref::<String>(), PagedKvStore::check_block_tokens(8).err().as_ref());
}

/// A store of 16-position blocks with room for 160 positions.
fn store(n_layers: usize, hidden: usize) -> PagedKvStore {
    PagedKvStore::new(KvPoolConfig { n_blocks: 10, block_tokens: 16 }, n_layers, hidden)
}

/// `t` rows per layer of arbitrary bit patterns — NaNs with payloads,
/// infinities, signed zeros, subnormals — keys and values distinct.
fn rows(n_layers: usize, t: usize, hidden: usize, seed: u64) -> KvCache {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        f32::from_bits(s as u32)
    };
    let mut cache = KvCache::new(n_layers, hidden);
    for layer in 0..n_layers {
        cache.k[layer] = Matrix::from_vec(t, hidden, (0..t * hidden).map(|_| next()).collect());
        cache.v[layer] = Matrix::from_vec(t, hidden, (0..t * hidden).map(|_| next()).collect());
    }
    cache
}

/// Rows `[at, at + n)` of `m`.
fn slice(m: &Matrix, at: usize, n: usize) -> Matrix {
    Matrix::from_vec(n, m.cols, m.data[at * m.cols..(at + n) * m.cols].to_vec())
}

/// The first `end` rows of every layer of `c`.
fn prefix(c: &KvCache, end: usize) -> KvCache {
    KvCache {
        k: c.k.iter().map(|m| slice(m, 0, end)).collect(),
        v: c.v.iter().map(|m| slice(m, 0, end)).collect(),
    }
}

/// Every value of `c` as its bit pattern, with the shape.
fn bits(c: &KvCache) -> Vec<(usize, Vec<u32>)> {
    c.k.iter().chain(&c.v).map(|m| (m.rows, m.data.iter().map(|x| x.to_bits()).collect())).collect()
}
