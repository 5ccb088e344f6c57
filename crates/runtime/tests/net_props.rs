//! Property tests for the wire layer: the frame codec and the message
//! codec must round-trip arbitrary traffic byte-exactly, reject every
//! corruption of the length prefix / magic / payload, and reassemble
//! frames delivered one fragment at a time.
//!
//! The second half drives the same codec through the simulated network
//! ([`llmpq_runtime::wire_exchange`]) under adversarial schedules —
//! delay, drop, duplicate, reorder, corrupt, disconnect, partition —
//! and asserts the connection-level invariants: no message is ever
//! invented, corruption always surfaces as a typed disconnect via the
//! real CRC, and stale-epoch dials are rejected wholesale.

use llm_pq::{ExecutionPlan, MicrobatchPlan, StagePlan};
use llmpq_model::{Matrix, Phase, RefConfig, RefModel};
use llmpq_quant::{Bitwidth, Rounding};
use llmpq_runtime::migrate::KV_CHUNK_ROWS;
use llmpq_runtime::net::frame::{
    crc32, encode_frame, read_frame, FrameError, FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use llmpq_runtime::net::wire::{
    worker_msg_to_wire, worker_msg_wire_bytes, Hello, HelloAck, Role, StageReport, WireMsg, WIRE_VERSION,
};
use llmpq_runtime::telemetry::LinkStats;
use llmpq_runtime::{
    kv_to_chunks, wire_exchange, CommitDecision, KvAssembler, KvChunkMsg, MigrationHost, SimFaultKind,
    SimLinkEvent, SimPartition, StageMetrics, WireExchangeConfig, WorkItem, WorkerMsg, WorkerSwap,
};
use proptest::prelude::*;
use proptest::strategy::TestRng;
use std::io::Read;
use std::sync::Arc;

/// Arbitrary worker messages: work items with random shapes and
/// bit-pattern-derived (finite) floats, shutdowns, protocol errors.
struct ArbMsg;

impl Strategy for ArbMsg {
    type Value = WorkerMsg;

    fn generate(&self, rng: &mut TestRng) -> WorkerMsg {
        match rng.below(4) {
            0 => WorkerMsg::Shutdown,
            1 => {
                let n = rng.below(48);
                let s: String =
                    (0..n).map(|_| (b' ' + rng.below(95) as u8) as char).collect();
                WorkerMsg::Protocol(s)
            }
            _ => {
                let n_seqs = rng.below(4);
                let seqs = (0..n_seqs)
                    .map(|_| {
                        let rows = 1 + rng.below(3);
                        let cols = 1 + rng.below(5);
                        let data = (0..rows * cols)
                            .map(|_| loop {
                                // Drawing from raw bit patterns covers
                                // negative zero, subnormals and extreme
                                // exponents, not just round numbers.
                                let v = f32::from_bits(rng.next_u64() as u32);
                                if v.is_finite() {
                                    break v;
                                }
                            })
                            .collect();
                        (rng.below(64), Matrix::from_vec(rows, cols, data))
                    })
                    .collect();
                WorkerMsg::Work(WorkItem {
                    step: rng.next_u64(),
                    epoch: rng.next_u64(),
                    microbatch: rng.below(1024),
                    phase: if rng.below(2) == 0 { Phase::Prefill } else { Phase::Decode },
                    sent_us: rng.next_u64(),
                    seqs,
                })
            }
        }
    }
}

/// One message of every wire kind in turn (`rng` picks which and fills
/// it): the handshake, control and report messages beside the data
/// plane [`ArbMsg`] draws.
struct ArbWire;

impl Strategy for ArbWire {
    type Value = WireMsg;

    fn generate(&self, rng: &mut TestRng) -> WireMsg {
        let text = |rng: &mut TestRng| -> String { (0..rng.below(24)).map(|_| (b'a' + rng.below(26) as u8) as char).collect() };
        let link = |rng: &mut TestRng| LinkStats {
            bytes_tx: rng.next_u64(),
            bytes_rx: rng.next_u64(),
            frames_tx: rng.next_u64(),
            frames_rx: rng.next_u64(),
            comm_us: rng.next_u64(),
            corrupt_frames: rng.next_u64(),
        };
        let (epoch, stage) = (rng.next_u64(), rng.next_u64() as u32);
        match rng.below(17) {
            0 => WireMsg::Hello(Hello {
                version: WIRE_VERSION,
                role: [Role::Control, Role::Data, Role::ReturnData][rng.below(3)],
                stage,
                attempt: rng.next_u64() as u32,
                plan_hash: rng.next_u64(),
                listen_addr: text(rng),
                bits: (0..rng.below(6)).map(|_| [3, 4, 8, 16][rng.below(4)]).collect(),
            }),
            1 => WireMsg::HelloAck(HelloAck {
                version: WIRE_VERSION,
                plan_hash: rng.next_u64(),
                accepted: rng.below(2) == 0,
                reason: text(rng),
            }),
            2 => WireMsg::Shutdown,
            3 => WireMsg::Protocol(text(rng)),
            4 => WireMsg::Heartbeat { stage },
            5 => WireMsg::Topology { next_addr: text(rng), next_role: rng.below(3) as u8 },
            6 => WireMsg::Bye,
            7 => WireMsg::Report(StageReport {
                stage,
                metrics: StageMetrics { items: rng.below(1 << 20), seq_forwards: rng.below(1 << 20), busy_s: 0.5 },
                rx_link: link(rng),
                tx_link: link(rng),
            }),
            8 => WireMsg::DeviceLost { device: stage },
            9 => WireMsg::Dropped { stage },
            10 => WireMsg::PlanPropose { epoch, plan_json: text(rng) },
            11 => WireMsg::PlanReady { epoch, stage, swapped: rng.below(2) == 0 },
            12 => WireMsg::PlanCommit { epoch },
            13 => WireMsg::PlanAbort { epoch, reason: text(rng) },
            14 => {
                let rows = rng.below(3);
                WireMsg::KvChunk(KvChunkMsg {
                    epoch,
                    seq: stage,
                    layer: rng.below(8) as u32,
                    chunk: 0,
                    n_chunks: 1,
                    rows_total: rows as u32,
                    k: kv_matrix(rows, 4, epoch),
                    v: kv_matrix(rows, 4, !epoch),
                })
            }
            15 => WireMsg::KvReset { seq: epoch },
            _ => loop {
                if let WorkerMsg::Work(item) = ArbMsg.generate(rng) {
                    break WireMsg::Work(item);
                }
            },
        }
    }
}

/// Arbitrary adversarial link schedules for the simulated wire:
/// 0..=3 one-shot faults drawn from every kind, including `Reorder`,
/// which the protocol-level random schedules exclude.
#[derive(Clone, Copy)]
struct ArbFaults;

impl Strategy for ArbFaults {
    type Value = Vec<SimLinkEvent>;

    fn generate(&self, rng: &mut TestRng) -> Vec<SimLinkEvent> {
        let n = rng.below(4);
        (0..n)
            .map(|_| {
                let kind = match rng.below(6) {
                    0 => SimFaultKind::Delay { us: 1 + rng.below(50_000) as u64 },
                    1 => SimFaultKind::Drop,
                    2 => SimFaultKind::Duplicate,
                    3 => SimFaultKind::Corrupt,
                    4 => SimFaultKind::Reorder { us: rng.below(5_000) as u64 },
                    _ => SimFaultKind::Disconnect,
                };
                SimLinkEvent { link: 0, after_frames: rng.below(6) as u64, kind }
            })
            .collect()
    }
}

/// A reader that yields at most `chunk` bytes per `read` call, forcing
/// the frame decoder to reassemble from partial reads.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn worker_messages_round_trip_bit_exactly(msg in ArbMsg) {
        let wire = worker_msg_to_wire(msg.clone());
        let payload = wire.encode();
        prop_assert_eq!(payload.len(), wire.encoded_len(), "encoded_len must match encode");
        if matches!(&wire, WireMsg::Work(_)) {
            prop_assert_eq!(payload.len(), worker_msg_wire_bytes(&msg));
        }
        let framed = encode_frame(&payload);
        let back = read_frame(&mut framed.as_slice()).expect("well-formed frame");
        prop_assert_eq!(&back, &payload);
        let decoded = WireMsg::decode(&back).expect("well-formed payload");
        // Equality through the wire type: f32 payloads must be bit-exact.
        prop_assert_eq!(decoded, wire);
    }

    #[test]
    fn any_single_byte_payload_corruption_is_detected(
        msg in ArbMsg,
        at in 0usize..1 << 20,
        flip in 1u8..=255,
    ) {
        let payload = worker_msg_to_wire(msg).encode();
        let mut framed = encode_frame(&payload);
        // Flip one payload byte (past the 12-byte header): the CRC-32
        // must notice, whatever the byte and whatever the bit pattern.
        let i = FRAME_HEADER_BYTES + at % payload.len();
        framed[i] ^= flip;
        match read_frame(&mut framed.as_slice()) {
            Err(FrameError::ChecksumMismatch { .. }) => {}
            other => prop_assert!(false, "corruption at byte {i} undetected: {other:?}"),
        }
    }

    #[test]
    fn corrupt_length_prefixes_never_cause_huge_allocations(
        msg in ArbMsg,
        len in 0u32..=u32::MAX,
    ) {
        let payload = worker_msg_to_wire(msg).encode();
        let mut framed = encode_frame(&payload);
        framed[4..8].copy_from_slice(&len.to_le_bytes());
        match read_frame(&mut framed.as_slice()) {
            Ok(p) => {
                // Only the true length can survive: the CRC covers the
                // exact payload.
                prop_assert_eq!(len as usize, payload.len());
                prop_assert_eq!(p, payload);
            }
            Err(FrameError::OversizedFrame(l)) => {
                prop_assert!(l > MAX_FRAME_BYTES, "rejected in-range length {l}");
            }
            Err(FrameError::Io(e)) => {
                // Claimed more bytes than the stream holds: clean EOF,
                // never an attempted quarter-gigabyte allocation.
                prop_assert!(len as usize > payload.len());
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            Err(FrameError::ChecksumMismatch { .. }) => {
                // Claimed fewer bytes: the CRC over the truncation fails.
                prop_assert!((len as usize) < payload.len());
            }
            Err(e) => prop_assert!(false, "unexpected rejection: {e:?}"),
        }
    }

    #[test]
    fn corrupt_magic_is_rejected(msg in ArbMsg, wrong in 0u32..=u32::MAX) {
        let payload = worker_msg_to_wire(msg).encode();
        let mut framed = encode_frame(&payload);
        if wrong.to_le_bytes() == [framed[0], framed[1], framed[2], framed[3]] {
            return Ok(()); // drew the genuine magic; nothing to corrupt
        }
        framed[..4].copy_from_slice(&wrong.to_le_bytes());
        match read_frame(&mut framed.as_slice()) {
            Err(FrameError::BadMagic { .. }) => {}
            other => prop_assert!(false, "bad magic accepted: {other:?}"),
        }
    }

    #[test]
    fn partial_reads_reassemble_exactly(msg in ArbMsg, chunk in 1usize..7) {
        let payload = worker_msg_to_wire(msg).encode();
        let framed = encode_frame(&payload);
        let mut r = Trickle { data: &framed, pos: 0, chunk };
        let back = read_frame(&mut r).expect("reassembles from fragments");
        prop_assert_eq!(back, payload);
        prop_assert_eq!(r.pos, framed.len(), "consumed exactly one frame");
    }

    #[test]
    fn truncated_streams_are_io_errors_not_panics(msg in ArbMsg, cut in 0usize..1 << 20) {
        let payload = worker_msg_to_wire(msg).encode();
        let framed = encode_frame(&payload);
        let keep = cut % framed.len(); // 0..len-1: always truncated
        match read_frame(&mut &framed[..keep]) {
            Err(FrameError::Io(e)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => prop_assert!(false, "truncation at {keep} gave {other:?}"),
        }
    }

    /// A frame whose CRC held but whose payload is cut short or has a
    /// flipped byte — a buggy or hostile peer — decodes to a typed error
    /// or to some message, never to a panic or an allocation its bytes
    /// cannot back, whatever the kind.
    #[test]
    fn truncated_and_flipped_payloads_of_every_kind_decode_without_panicking(
        msg in ArbWire,
        cut in 0usize..1 << 20,
        at in 0usize..1 << 20,
        flip in 1u8..=255,
    ) {
        let payload = msg.encode();
        prop_assert_eq!(WireMsg::decode(&payload).as_ref().ok(), Some(&msg), "round trip");
        let keep = cut % payload.len();
        prop_assert!(WireMsg::decode(&payload[..keep]).is_err(), "cut at {keep} of {msg:?} decoded");
        let mut flipped = payload.clone();
        flipped[at % payload.len()] ^= flip;
        let _ = WireMsg::decode(&flipped);
    }

    #[test]
    fn wire_decode_rejects_trailing_garbage(msg in ArbMsg, extra in 1usize..8) {
        let mut payload = worker_msg_to_wire(msg).encode();
        payload.extend(std::iter::repeat_n(0xA5, extra));
        prop_assert!(WireMsg::decode(&payload).is_err(), "trailing bytes accepted");
    }

    #[test]
    fn sim_link_never_invents_messages(
        msgs in prop::collection::vec(ArbMsg, 1..5),
        faults in ArbFaults,
    ) {
        let cfg = WireExchangeConfig {
            msgs: msgs.clone(),
            events: faults.clone(),
            ..WireExchangeConfig::default()
        };
        let out = wire_exchange(&cfg);
        for (i, d) in out.delivered.iter().enumerate() {
            prop_assert!(
                msgs.contains(d),
                "delivered[{i}] was never sent\ntrace:\n{}",
                out.trace.join("\n")
            );
        }
        let dups = faults
            .iter()
            .filter(|e| matches!(e.kind, SimFaultKind::Duplicate))
            .count();
        prop_assert!(
            out.delivered.len() <= msgs.len() + dups,
            "{} delivered from {} sent (+{dups} dup events)",
            out.delivered.len(),
            msgs.len()
        );
        // Without reordering the link is a faulty-but-FIFO stream: the
        // delivered sequence (consecutive duplicates collapsed) must be
        // a subsequence of what was sent.
        if faults.iter().all(|e| !matches!(e.kind, SimFaultKind::Reorder { .. })) {
            let mut collapsed: Vec<&WorkerMsg> = Vec::new();
            for d in &out.delivered {
                if collapsed.last().map(|l| *l == d) != Some(true) {
                    collapsed.push(d);
                }
            }
            let mut it = msgs.iter();
            for d in collapsed {
                prop_assert!(
                    it.any(|m| m == d),
                    "FIFO schedule delivered out of order\ntrace:\n{}",
                    out.trace.join("\n")
                );
            }
        }
    }

    #[test]
    fn corrupt_frames_surface_as_typed_disconnects(
        msgs in prop::collection::vec(ArbMsg, 1..5),
        at in 0usize..8,
    ) {
        let k = at % msgs.len();
        let cfg = WireExchangeConfig {
            msgs: msgs.clone(),
            events: vec![SimLinkEvent {
                link: 0,
                after_frames: k as u64,
                kind: SimFaultKind::Corrupt,
            }],
            ..WireExchangeConfig::default()
        };
        let out = wire_exchange(&cfg);
        prop_assert_eq!(out.corrupt_detected, 1, "CRC must catch the flipped byte");
        prop_assert!(out.clean_eof, "corruption must end the stream as a typed disconnect");
        prop_assert!(!out.timed_out);
        // Everything before the corrupt frame arrives intact; nothing
        // after it leaks through the poisoned connection.
        prop_assert_eq!(&out.delivered[..], &msgs[..k]);
    }

    #[test]
    fn stale_epoch_dials_are_rejected_wholesale(
        msgs in prop::collection::vec(ArbMsg, 1..5),
        behind in 1u64..4,
    ) {
        let cfg = WireExchangeConfig {
            msgs: msgs.clone(),
            sender_epoch: 0,
            receiver_epoch: behind, // the receiver has moved on
            ..WireExchangeConfig::default()
        };
        let out = wire_exchange(&cfg);
        prop_assert!(out.delivered.is_empty(), "stale-attempt frames must never deliver");
        prop_assert_eq!(out.stale_rejected, msgs.len() as u64);
        prop_assert!(out.timed_out, "a stale dial looks like silence, not EOF");
        prop_assert!(!out.clean_eof);
    }

    #[test]
    fn permanent_partition_times_out_without_inventing(
        msgs in prop::collection::vec(ArbMsg, 2..5),
    ) {
        // The partition lands after the first in-flight frame; the
        // sender keeps writing into the void and never closes.
        let cfg = WireExchangeConfig {
            msgs: msgs.clone(),
            partitions: vec![SimPartition { link: 0, at_us: 1, heal_at_us: None }],
            close_after_send: false,
            ..WireExchangeConfig::default()
        };
        let out = wire_exchange(&cfg);
        prop_assert!(out.timed_out, "a dead link must look like a timeout, not EOF");
        prop_assert!(!out.clean_eof);
        prop_assert_eq!(out.corrupt_detected, 0);
        prop_assert_eq!(&out.delivered[..], &msgs[..1]);
    }

    #[test]
    fn healed_partition_delivers_everything_in_order(
        msgs in prop::collection::vec(ArbMsg, 1..5),
        heal in 10_000u64..100_000,
    ) {
        let cfg = WireExchangeConfig {
            msgs: msgs.clone(),
            partitions: vec![SimPartition { link: 0, at_us: 1, heal_at_us: Some(heal) }],
            ..WireExchangeConfig::default()
        };
        let out = wire_exchange(&cfg);
        prop_assert_eq!(&out.delivered[..], &msgs[..], "heal must release the full stream");
        prop_assert!(out.clean_eof, "EOF after drain");
        prop_assert!(!out.timed_out);
    }

    #[test]
    fn crc32_detects_any_single_bit_flip(
        data in prop::collection::vec(0u8..=255, 1..128),
        bit in 0usize..1 << 20,
    ) {
        let before = crc32(&data);
        let mut flipped = data.clone();
        let b = bit % (data.len() * 8);
        flipped[b / 8] ^= 1 << (b % 8);
        prop_assert_ne!(before, crc32(&flipped));
    }
}

// ---- live plan migration: KV handoff + epoch rules -------------------

/// `splitmix64` output step, for deterministic in-test shuffles/fill.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A finite f32 from raw bit patterns — covers negative zero,
/// subnormals and extreme exponents, the cases where "close enough"
/// float handling would hide a broken bit-exact handoff.
fn finite_f32(seed: u64) -> f32 {
    let mut s = seed;
    loop {
        s = mix(s.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let v = f32::from_bits(s as u32);
        if v.is_finite() {
            return v;
        }
    }
}

fn kv_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|i| finite_f32(salt ^ ((i as u64) << 17))).collect(),
    )
}

fn one_stage_plan() -> ExecutionPlan {
    ExecutionPlan {
        model: "tiny-2l".into(),
        cluster: "solo".into(),
        stages: vec![StagePlan {
            device: 0,
            layer_start: 0,
            layer_end: 2,
            bits: vec![Bitwidth::Fp16; 2],
        }],
        microbatch: MicrobatchPlan {
            prefill_size: 1,
            prefill_count: 1,
            decode_size: 1,
            decode_count: 1,
        },
        scheme: "LLM-PQ".into(),
        kv_bits: 16,
    }
}

fn bit_patterns(m: &Matrix) -> Vec<u32> {
    m.data.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `(seq, layer)` KV slice fragments into chunks, every fragment
    /// crosses the real wire codec and frame CRC, the fragments arrive
    /// shuffled with mid-stream duplicates, and the assembler rebuilds
    /// K and V with identical IEEE-754 bit patterns.
    #[test]
    fn kv_slices_survive_fragmentation_shuffling_and_duplication(
        rows in 0usize..40,
        cols in 1usize..6,
        epoch in 1u64..8,
        seq in 0u32..4,
        layer in 0u32..8,
        order_seed in 0u64..u64::MAX,
    ) {
        let k = kv_matrix(rows, cols, order_seed ^ 1);
        let v = kv_matrix(rows, cols, order_seed ^ 2);
        let chunks = kv_to_chunks(epoch, seq, layer, &k, &v);
        prop_assert_eq!(chunks.len(), rows.div_ceil(KV_CHUNK_ROWS).max(1));

        let mut wired = Vec::with_capacity(chunks.len());
        for c in &chunks {
            let payload = worker_msg_to_wire(WorkerMsg::KvChunk(c.clone())).encode();
            let framed = encode_frame(&payload);
            let back = read_frame(&mut framed.as_slice()).expect("well-formed frame");
            match WireMsg::decode(&back).expect("well-formed payload") {
                WireMsg::KvChunk(got) => {
                    prop_assert_eq!(&got, c, "codec must be bit-exact");
                    wired.push(got);
                }
                other => prop_assert!(false, "decoded to {other:?}"),
            }
        }

        // Deterministic shuffle, then duplicate fragments both *before*
        // and *after* the last one lands: duplicates must be absorbed
        // while the slice is incomplete AND once it has assembled (a
        // late transport duplicate must never re-open a completed slice
        // and hand the caller the same KV rows twice).
        wired.sort_by_key(|c| mix(order_seed ^ u64::from(c.chunk)));
        let last = wired.pop().expect("at least one fragment");
        let dups = wired.clone();
        let mut feed = wired;
        feed.extend(dups);
        feed.push(last.clone());
        feed.push(last);

        let mut asm = KvAssembler::new(epoch, &[(seq, layer)]);
        let mut done = None;
        for c in feed {
            if let Some(slice) = asm.push(c)? {
                prop_assert!(done.is_none(), "slice completed twice");
                done = Some(slice);
            }
        }
        prop_assert!(asm.done(), "assembler must report completion");
        let (s, l, gk, gv) = done.expect("slice completes");
        prop_assert_eq!((s, l), (seq, layer));
        prop_assert_eq!((gk.rows, gk.cols), (k.rows, k.cols));
        prop_assert_eq!(bit_patterns(&gk), bit_patterns(&k));
        prop_assert_eq!(bit_patterns(&gv), bit_patterns(&v));
    }

    /// Any single-byte corruption of a framed KV chunk surfaces as the
    /// typed CRC failure that aborts the migration — never as silently
    /// wrong cache rows.
    #[test]
    fn kv_chunk_corruption_is_detected_by_the_frame_crc(
        rows in 1usize..40,
        cols in 1usize..6,
        at in 0usize..1 << 20,
        flip in 1u8..=255,
        salt in 0u64..u64::MAX,
    ) {
        let k = kv_matrix(rows, cols, salt ^ 1);
        let v = kv_matrix(rows, cols, salt ^ 2);
        let chunks = kv_to_chunks(3, 0, 1, &k, &v);
        let c = chunks[at % chunks.len()].clone();
        let payload = worker_msg_to_wire(WorkerMsg::KvChunk(c)).encode();
        let mut framed = encode_frame(&payload);
        let i = FRAME_HEADER_BYTES + at % payload.len();
        framed[i] ^= flip;
        match read_frame(&mut framed.as_slice()) {
            Err(FrameError::ChecksumMismatch { .. }) => {}
            other => prop_assert!(false, "corrupt KV chunk passed the CRC: {other:?}"),
        }
    }

    /// A chunk from a different epoch is a typed assembler error, not a
    /// silently merged cache row.
    #[test]
    fn cross_epoch_kv_chunks_are_typed_errors(
        epoch in 0u64..6,
        other in 0u64..6,
        rows in 0usize..20,
        salt in 0u64..u64::MAX,
    ) {
        if epoch == other {
            return Ok(()); // only cross-epoch deliveries are interesting
        }
        let k = kv_matrix(rows, 3, salt ^ 1);
        let v = kv_matrix(rows, 3, salt ^ 2);
        let mut asm = KvAssembler::new(epoch, &[(0, 0)]);
        let err = asm.push(kv_to_chunks(other, 0, 0, &k, &v).remove(0)).unwrap_err();
        prop_assert!(err.contains("epoch"), "untyped rejection: {err}");
        prop_assert!(!asm.done());
    }

    /// Epoch rule with nothing prepared: a `PlanCommit` at or below the
    /// active epoch is a droppable duplicate; above it, a typed abort.
    /// It must never swap.
    #[test]
    fn stale_epoch_commits_never_swap(active in 0u64..6, commit in 0u64..10) {
        let swap = WorkerSwap { active_epoch: active, prepared: None };
        match swap.decide_commit(commit) {
            CommitDecision::Ignore => prop_assert!(commit <= active),
            CommitDecision::Abort(r) => {
                prop_assert!(commit > active);
                prop_assert!(r.contains("unprepared"), "reason must be typed: {r}");
            }
            CommitDecision::Swap => {
                prop_assert!(false, "commit for epoch {commit} swapped with nothing prepared")
            }
        }
    }

    /// With a genuinely prepared proposal (through the real requantize
    /// path), only the prepared epoch commits: stale commits are
    /// ignored, mismatched future commits abort.
    #[test]
    fn commits_only_swap_the_prepared_epoch(prepared_epoch in 1u64..6, commit in 0u64..10) {
        let host = MigrationHost::new(
            Arc::new(RefModel::new(RefConfig::scaled_like(2, 7))),
            Rounding::Deterministic,
            0,
        );
        let mut swap = WorkerSwap::new();
        let ready = swap
            .on_propose(&host, 0, prepared_epoch, &one_stage_plan().to_json())
            .expect("well-formed proposal prepares");
        prop_assert!(ready, "first proposal must answer PlanReady");
        match swap.decide_commit(commit) {
            CommitDecision::Swap => prop_assert_eq!(commit, prepared_epoch),
            CommitDecision::Ignore => prop_assert_eq!(commit, 0),
            CommitDecision::Abort(r) => {
                prop_assert!(commit > 0 && commit != prepared_epoch, "spurious abort: {r}");
            }
        }
        // Re-delivery of the same proposal is idempotent, not a re-prepare.
        let again = swap
            .on_propose(&host, 0, prepared_epoch, &one_stage_plan().to_json())
            .expect("duplicate proposal is benign");
        prop_assert!(!again, "duplicate proposal must not re-answer PlanReady");
    }
}
