//! Binary wire codec for the distributed pipeline.
//!
//! Every inter-process message is a [`WireMsg`] serialized with an
//! explicit little-endian layout (no serde on the hot path: activations
//! are `f32` matrices whose bits must survive the trip untouched so the
//! distributed run stays *bit-identical* to the in-process engine —
//! floats travel as raw IEEE-754 bit patterns via `to_le_bytes`).
//!
//! The first message on every connection is a [`Hello`] carrying the
//! wire-format version, the sender's role and stage id, the attempt
//! number, the [fingerprint](plan_fingerprint) of the execution plan,
//! and the sender's per-layer bitwidth config; the receiver answers with
//! a [`HelloAck`] and tears the connection down on any mismatch, so a
//! master and a stage disagreeing about the plan fail fast with a typed
//! reason instead of corrupting KV caches at step 40.

use super::frame::FrameError;
use crate::migrate::KvChunkMsg;
use crate::telemetry::LinkStats;
use crate::telemetry::StageMetrics;
use crate::worker::{WorkItem, WorkerMsg};
use llm_pq::ExecutionPlan;
use llmpq_model::{Matrix, Phase};

/// Version of the wire format. Bumped on any layout change; both ends
/// refuse to talk across versions. Version 2 added the epoch field to
/// `Work` and the live plan-swap messages (`PlanPropose`/`PlanReady`/
/// `PlanCommit`/`PlanAbort`/`KvChunk`). Version 3 added `KvReset`,
/// which the continuous-serving master uses to recycle a worker KV
/// slot when a sequence leaves the batch.
pub const WIRE_VERSION: u16 = 3;

/// Why a message could not be decoded (framing errors are separate — see
/// [`FrameError`]).
#[derive(Debug)]
pub enum WireError {
    /// The frame layer failed (I/O, magic, length, checksum).
    Frame(FrameError),
    /// The payload was a valid frame but not a valid message.
    Decode(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "{e}"),
            WireError::Decode(m) => write!(f, "wire decode: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

/// What a connection is for, declared in its [`Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Stage → master: handshake, heartbeats, reports. One per stage,
    /// persistent across attempt restarts.
    Control,
    /// Activation flow into a stage (master → stage 0, stage i →
    /// stage i+1). Re-established per attempt.
    Data,
    /// The last stage's activation flow back to the master.
    ReturnData,
}

impl Role {
    /// Wire byte of this role.
    pub fn to_u8(self) -> u8 {
        match self {
            Role::Control => 0,
            Role::Data => 1,
            Role::ReturnData => 2,
        }
    }

    /// Role for a wire byte.
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(Role::Control),
            1 => Ok(Role::Data),
            2 => Ok(Role::ReturnData),
            _ => Err(WireError::Decode(format!("unknown role {v}"))),
        }
    }
}

/// Connection-opening handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Wire-format version of the sender.
    pub version: u16,
    /// What this connection carries.
    pub role: Role,
    /// Sender's pipeline stage (`u32::MAX` for the master).
    pub stage: u32,
    /// Attempt number this data connection belongs to (0 for control).
    pub attempt: u32,
    /// [`plan_fingerprint`] of the sender's execution plan.
    pub plan_hash: u64,
    /// Address the sender's data listener is bound to (control hellos
    /// only; lets the master assemble the ring without per-process
    /// topology flags).
    pub listen_addr: String,
    /// Per-layer bitwidths of the sender's shard (3/4/8/16), for
    /// human-readable mismatch diagnostics beyond the hash.
    pub bits: Vec<u8>,
}

/// Handshake response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// Wire-format version of the responder.
    pub version: u16,
    /// Responder's plan fingerprint.
    pub plan_hash: u64,
    /// Whether the connection is accepted.
    pub accepted: bool,
    /// Refusal reason when not accepted.
    pub reason: String,
}

/// End-of-run report from one stage process.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Reporting stage.
    pub stage: u32,
    /// The stage's execution counters.
    pub metrics: StageMetrics,
    /// Counters of the stage's *upstream* link (link `stage`): the
    /// stage is that link's receiver, so only `rx` fields are filled.
    pub rx_link: LinkStats,
    /// Counters of the stage's *downstream* link (link `stage + 1`):
    /// the stage is that link's sender (`tx` fields + comm time).
    pub tx_link: LinkStats,
}

/// Every message that crosses a wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Connection-opening handshake.
    Hello(Hello),
    /// Handshake response.
    HelloAck(HelloAck),
    /// A pipeline work item (activations).
    Work(WorkItem),
    /// Drain and exit the attempt.
    Shutdown,
    /// A protocol violation travelling toward the master.
    Protocol(String),
    /// Stage liveness signal (control connections).
    Heartbeat {
        /// The beating stage.
        stage: u32,
    },
    /// Master → stage: where to send your output (closes the ring).
    Topology {
        /// Address of the next hop's data listener (or the master's
        /// listener for the last stage).
        next_addr: String,
        /// Role the stage must declare when dialing the next hop.
        next_role: u8,
    },
    /// Master → stage: the run is over, send your report and exit.
    Bye,
    /// Stage → master: final counters, sent in response to `Bye`.
    Report(StageReport),
    /// Stage → master: this stage's device is gone for good (fault
    /// injection or a real health signal); lets the master surface the
    /// typed `DeviceLost` error across process boundaries.
    DeviceLost {
        /// Cluster device id that was lost.
        device: u32,
    },
    /// Stage → master: this stage lost a work item because its
    /// downstream connection dropped mid-attempt — the wire analog of
    /// the in-process `DisconnectBoard`, so the master attributes the
    /// failure as `StageDisconnected(stage)` instead of a generic death.
    Dropped {
        /// Stage that lost the item.
        stage: u32,
    },
    /// Master → stages (rides the data ring): prepare this plan as
    /// `epoch` while the old plan keeps serving. Workers forward it
    /// downstream, requantize their target shard, and answer with
    /// `PlanReady` (prepared) or `PlanAbort`.
    PlanPropose {
        /// Epoch of the proposal (`active + 1`).
        epoch: u64,
        /// JSON of the proposed `ExecutionPlan`.
        plan_json: String,
    },
    /// Stage → master (rides the data ring): this stage finished the
    /// prepare phase (`swapped == false`) or installed the committed
    /// plan (`swapped == true`).
    PlanReady {
        /// Epoch being acknowledged.
        epoch: u64,
        /// Acknowledging stage.
        stage: u32,
        /// False = prepared, true = swapped.
        swapped: bool,
    },
    /// Master → stages at a token boundary: the prepared `epoch` is now
    /// authoritative — ship re-homed KV, install the prepared weights,
    /// answer `PlanReady` (swapped).
    PlanCommit {
        /// Epoch being committed.
        epoch: u64,
    },
    /// Any node → the ring: tear down the proposal for `epoch` and keep
    /// serving the old plan. Carries a typed reason for diagnostics.
    PlanAbort {
        /// Epoch being aborted.
        epoch: u64,
        /// Why the proposal died.
        reason: String,
    },
    /// One fragment of a `(sequence, layer)` KV slice migrating to the
    /// stage that owns the layer under the committed plan. Floats travel
    /// as raw IEEE-754 bits, so the handoff is bit-exact.
    KvChunk(KvChunkMsg),
    /// Master → stages (rides the data ring): sequence slot `seq` is
    /// retired — clear its KV cache so the slot can be reused by a new
    /// request. Workers forward it around the ring; the master sinks
    /// the echo.
    KvReset {
        /// Worker-side sequence slot to clear.
        seq: u64,
    },
}

// --- encoding -----------------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    out.extend_from_slice(&(m.rows as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols as u32).to_le_bytes());
    for v in &m.data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn phase_to_u8(p: Phase) -> u8 {
    match p {
        Phase::Prefill => 0,
        Phase::Decode => 1,
    }
}

fn phase_from_u8(v: u8) -> Result<Phase, WireError> {
    match v {
        0 => Ok(Phase::Prefill),
        1 => Ok(Phase::Decode),
        _ => Err(WireError::Decode(format!("unknown phase {v}"))),
    }
}

impl WireMsg {
    /// Serialize to the wire layout (the frame layer adds header +
    /// checksum around this payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WireMsg::Hello(h) => {
                out.push(0x01);
                out.extend_from_slice(&h.version.to_le_bytes());
                out.push(h.role.to_u8());
                out.extend_from_slice(&h.stage.to_le_bytes());
                out.extend_from_slice(&h.attempt.to_le_bytes());
                out.extend_from_slice(&h.plan_hash.to_le_bytes());
                put_str(&mut out, &h.listen_addr);
                put_bytes(&mut out, &h.bits);
            }
            WireMsg::HelloAck(a) => {
                out.push(0x02);
                out.extend_from_slice(&a.version.to_le_bytes());
                out.extend_from_slice(&a.plan_hash.to_le_bytes());
                out.push(a.accepted as u8);
                put_str(&mut out, &a.reason);
            }
            WireMsg::Work(item) => {
                out.push(0x03);
                out.extend_from_slice(&item.step.to_le_bytes());
                out.extend_from_slice(&item.epoch.to_le_bytes());
                out.extend_from_slice(&(item.microbatch as u64).to_le_bytes());
                out.push(phase_to_u8(item.phase));
                out.extend_from_slice(&item.sent_us.to_le_bytes());
                out.extend_from_slice(&(item.seqs.len() as u32).to_le_bytes());
                for (seq, m) in &item.seqs {
                    out.extend_from_slice(&(*seq as u64).to_le_bytes());
                    put_matrix(&mut out, m);
                }
            }
            WireMsg::Shutdown => out.push(0x04),
            WireMsg::Protocol(s) => {
                out.push(0x05);
                put_str(&mut out, s);
            }
            WireMsg::Heartbeat { stage } => {
                out.push(0x06);
                out.extend_from_slice(&stage.to_le_bytes());
            }
            WireMsg::Topology { next_addr, next_role } => {
                out.push(0x07);
                put_str(&mut out, next_addr);
                out.push(*next_role);
            }
            WireMsg::Bye => out.push(0x08),
            WireMsg::Report(r) => {
                out.push(0x09);
                out.extend_from_slice(&r.stage.to_le_bytes());
                out.extend_from_slice(&(r.metrics.items as u64).to_le_bytes());
                out.extend_from_slice(&(r.metrics.seq_forwards as u64).to_le_bytes());
                out.extend_from_slice(&r.metrics.busy_s.to_le_bytes());
                for l in [&r.rx_link, &r.tx_link] {
                    for v in [l.bytes_tx, l.bytes_rx, l.frames_tx, l.frames_rx, l.comm_us, l.corrupt_frames] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            WireMsg::DeviceLost { device } => {
                out.push(0x0A);
                out.extend_from_slice(&device.to_le_bytes());
            }
            WireMsg::Dropped { stage } => {
                out.push(0x0B);
                out.extend_from_slice(&stage.to_le_bytes());
            }
            WireMsg::PlanPropose { epoch, plan_json } => {
                out.push(0x0C);
                out.extend_from_slice(&epoch.to_le_bytes());
                put_str(&mut out, plan_json);
            }
            WireMsg::PlanReady { epoch, stage, swapped } => {
                out.push(0x0D);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&stage.to_le_bytes());
                out.push(*swapped as u8);
            }
            WireMsg::PlanCommit { epoch } => {
                out.push(0x0E);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            WireMsg::PlanAbort { epoch, reason } => {
                out.push(0x0F);
                out.extend_from_slice(&epoch.to_le_bytes());
                put_str(&mut out, reason);
            }
            WireMsg::KvChunk(c) => {
                out.push(0x10);
                out.extend_from_slice(&c.epoch.to_le_bytes());
                out.extend_from_slice(&c.seq.to_le_bytes());
                out.extend_from_slice(&c.layer.to_le_bytes());
                out.extend_from_slice(&c.chunk.to_le_bytes());
                out.extend_from_slice(&c.n_chunks.to_le_bytes());
                out.extend_from_slice(&c.rows_total.to_le_bytes());
                put_matrix(&mut out, &c.k);
                put_matrix(&mut out, &c.v);
            }
            WireMsg::KvReset { seq } => {
                out.push(0x11);
                out.extend_from_slice(&seq.to_le_bytes());
            }
        }
        out
    }

    /// Decode one message from a frame payload.
    pub fn decode(buf: &[u8]) -> Result<WireMsg, WireError> {
        let mut d = Dec { buf, pos: 0 };
        let tag = d.u8()?;
        let msg = match tag {
            0x01 => WireMsg::Hello(Hello {
                version: d.u16()?,
                role: Role::from_u8(d.u8()?)?,
                stage: d.u32()?,
                attempt: d.u32()?,
                plan_hash: d.u64()?,
                listen_addr: d.string()?,
                bits: d.bytes()?,
            }),
            0x02 => WireMsg::HelloAck(HelloAck {
                version: d.u16()?,
                plan_hash: d.u64()?,
                accepted: d.u8()? != 0,
                reason: d.string()?,
            }),
            0x03 => {
                let step = d.u64()?;
                let epoch = d.u64()?;
                let microbatch = d.u64()? as usize;
                let phase = phase_from_u8(d.u8()?)?;
                let sent_us = d.u64()?;
                let n = d.u32()? as usize;
                // Each sequence takes at least its id and a matrix header:
                // a count its bytes cannot back allocates nothing.
                let left = buf.len() - d.pos;
                if n > left / 16 {
                    return Err(WireError::Decode(format!("work item claims {n} sequences in {left} bytes")));
                }
                let mut seqs = Vec::with_capacity(n);
                for _ in 0..n {
                    let seq = d.u64()? as usize;
                    seqs.push((seq, d.matrix()?));
                }
                WireMsg::Work(WorkItem { step, epoch, microbatch, phase, sent_us, seqs })
            }
            0x04 => WireMsg::Shutdown,
            0x05 => WireMsg::Protocol(d.string()?),
            0x06 => WireMsg::Heartbeat { stage: d.u32()? },
            0x07 => WireMsg::Topology { next_addr: d.string()?, next_role: d.u8()? },
            0x08 => WireMsg::Bye,
            0x09 => {
                let stage = d.u32()?;
                let metrics = StageMetrics {
                    items: d.u64()? as usize,
                    seq_forwards: d.u64()? as usize,
                    busy_s: d.f64()?,
                };
                let mut links = [LinkStats::default(); 2];
                for l in &mut links {
                    *l = LinkStats {
                        bytes_tx: d.u64()?,
                        bytes_rx: d.u64()?,
                        frames_tx: d.u64()?,
                        frames_rx: d.u64()?,
                        comm_us: d.u64()?,
                        corrupt_frames: d.u64()?,
                    };
                }
                WireMsg::Report(StageReport { stage, metrics, rx_link: links[0], tx_link: links[1] })
            }
            0x0A => WireMsg::DeviceLost { device: d.u32()? },
            0x0B => WireMsg::Dropped { stage: d.u32()? },
            0x0C => WireMsg::PlanPropose { epoch: d.u64()?, plan_json: d.string()? },
            0x0D => WireMsg::PlanReady {
                epoch: d.u64()?,
                stage: d.u32()?,
                swapped: d.u8()? != 0,
            },
            0x0E => WireMsg::PlanCommit { epoch: d.u64()? },
            0x0F => WireMsg::PlanAbort { epoch: d.u64()?, reason: d.string()? },
            0x10 => {
                let epoch = d.u64()?;
                let seq = d.u32()?;
                let layer = d.u32()?;
                let chunk = d.u32()?;
                let n_chunks = d.u32()?;
                let rows_total = d.u32()?;
                let k = d.matrix()?;
                let v = d.matrix()?;
                WireMsg::KvChunk(KvChunkMsg { epoch, seq, layer, chunk, n_chunks, rows_total, k, v })
            }
            0x11 => WireMsg::KvReset { seq: d.u64()? },
            _ => return Err(WireError::Decode(format!("unknown message tag {tag:#04x}"))),
        };
        if d.pos != buf.len() {
            return Err(WireError::Decode(format!(
                "{} trailing bytes after message tag {tag:#04x}",
                buf.len() - d.pos
            )));
        }
        Ok(msg)
    }

    /// Wire payload size of this message without serializing it —
    /// exact for `Work` (the dominant traffic), used by the in-process
    /// channel transport so per-link byte counters mean the same thing
    /// under both transports.
    pub fn encoded_len(&self) -> usize {
        match self {
            WireMsg::Work(item) => work_item_wire_bytes(item),
            WireMsg::KvChunk(c) => kv_chunk_wire_bytes(c),
            other => other.encode().len(),
        }
    }
}

/// Exact serialized payload size of a work item.
pub fn work_item_wire_bytes(item: &WorkItem) -> usize {
    // tag, step, epoch, microbatch, phase, sent_us, count
    let mut n = 1 + 8 + 8 + 8 + 1 + 8 + 4;
    for (_, m) in &item.seqs {
        n += 8 + 4 + 4 + 4 * m.rows * m.cols;
    }
    n
}

/// Exact serialized payload size of a KV migration chunk.
pub fn kv_chunk_wire_bytes(c: &KvChunkMsg) -> usize {
    // tag, epoch, seq, layer, chunk, n_chunks, rows_total, 2 matrices
    1 + 8 + 4 * 5 + 2 * (4 + 4) + 4 * (c.k.rows * c.k.cols + c.v.rows * c.v.cols)
}

/// Exact serialized payload size of a data-plane [`WorkerMsg`] without
/// serializing it — lets the in-process channel transport account the
/// same per-link byte counts a TCP link would observe.
pub fn worker_msg_wire_bytes(msg: &WorkerMsg) -> usize {
    match msg {
        WorkerMsg::Work(i) => work_item_wire_bytes(i),
        WorkerMsg::Shutdown => 1,
        WorkerMsg::Protocol(s) => 1 + 4 + s.len(),
        WorkerMsg::PlanPropose { plan_json, .. } => 1 + 8 + 4 + plan_json.len(),
        WorkerMsg::PlanReady { .. } => 1 + 8 + 4 + 1,
        WorkerMsg::PlanCommit { .. } => 1 + 8,
        WorkerMsg::PlanAbort { reason, .. } => 1 + 8 + 4 + reason.len(),
        WorkerMsg::KvChunk(c) => kv_chunk_wire_bytes(c),
        WorkerMsg::KvReset { .. } => 1 + 8,
    }
}

/// Map a pipeline [`WorkerMsg`] onto the wire (the variants the data
/// plane carries: activations, teardown, violations, and the plan-swap
/// protocol).
pub fn worker_msg_to_wire(msg: WorkerMsg) -> WireMsg {
    match msg {
        WorkerMsg::Work(i) => WireMsg::Work(i),
        WorkerMsg::Shutdown => WireMsg::Shutdown,
        WorkerMsg::Protocol(s) => WireMsg::Protocol(s),
        WorkerMsg::PlanPropose { epoch, plan_json } => WireMsg::PlanPropose { epoch, plan_json },
        WorkerMsg::PlanReady { epoch, stage, swapped } => {
            WireMsg::PlanReady { epoch, stage, swapped }
        }
        WorkerMsg::PlanCommit { epoch } => WireMsg::PlanCommit { epoch },
        WorkerMsg::PlanAbort { epoch, reason } => WireMsg::PlanAbort { epoch, reason },
        WorkerMsg::KvChunk(c) => WireMsg::KvChunk(c),
        WorkerMsg::KvReset { seq } => WireMsg::KvReset { seq: seq as u64 },
    }
}

/// Map a wire message back onto the data plane, if it belongs there —
/// the single mapping both the TCP pump and the simulated transport use,
/// so the set of data-plane messages cannot drift between transports.
pub fn wire_to_worker_msg(msg: WireMsg) -> Option<WorkerMsg> {
    match msg {
        WireMsg::Work(i) => Some(WorkerMsg::Work(i)),
        WireMsg::Shutdown => Some(WorkerMsg::Shutdown),
        WireMsg::Protocol(s) => Some(WorkerMsg::Protocol(s)),
        WireMsg::PlanPropose { epoch, plan_json } => {
            Some(WorkerMsg::PlanPropose { epoch, plan_json })
        }
        WireMsg::PlanReady { epoch, stage, swapped } => {
            Some(WorkerMsg::PlanReady { epoch, stage, swapped })
        }
        WireMsg::PlanCommit { epoch } => Some(WorkerMsg::PlanCommit { epoch }),
        WireMsg::PlanAbort { epoch, reason } => Some(WorkerMsg::PlanAbort { epoch, reason }),
        WireMsg::KvChunk(c) => Some(WorkerMsg::KvChunk(c)),
        WireMsg::KvReset { seq } => Some(WorkerMsg::KvReset { seq: seq as usize }),
        _ => None,
    }
}

/// FNV-1a 64-bit over the plan's canonical JSON: both ends of every
/// connection must present the same fingerprint during the handshake.
pub fn plan_fingerprint(plan: &ExecutionPlan) -> u64 {
    let json = plan.to_json();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in json.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Little-endian cursor over a decode buffer.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Decode(format!(
                "message truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|e| WireError::Decode(format!("bad utf-8 string: {e}")))
    }

    fn matrix(&mut self) -> Result<Matrix, WireError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| n <= super::frame::MAX_FRAME_BYTES / 4)
            .ok_or_else(|| WireError::Decode(format!("matrix {rows}x{cols} too large")))?;
        let raw = self.take(4 * n)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Matrix { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item() -> WorkItem {
        WorkItem {
            step: 7,
            epoch: 3,
            microbatch: 2,
            phase: Phase::Decode,
            sent_us: 123_456,
            seqs: vec![
                (0, Matrix::from_vec(1, 3, vec![1.0, -2.5, f32::MIN_POSITIVE])),
                (4, Matrix::from_vec(2, 2, vec![0.0, -0.0, f32::MAX, 1e-30])),
            ],
        }
    }

    #[test]
    fn work_item_round_trips_bit_exactly() {
        let msg = WireMsg::Work(item());
        let buf = msg.encode();
        assert_eq!(buf.len(), msg.encoded_len());
        let back = WireMsg::decode(&buf).unwrap();
        let WireMsg::Work(got) = back else { panic!("work expected") };
        let want = item();
        assert_eq!(got.step, want.step);
        assert_eq!(got.epoch, want.epoch);
        assert_eq!(got.phase, want.phase);
        for ((s0, m0), (s1, m1)) in want.seqs.iter().zip(&got.seqs) {
            assert_eq!(s0, s1);
            // Bit-exact: compare the raw f32 bit patterns, not values
            // (−0.0 == 0.0 would pass a value compare).
            let a: Vec<u32> = m0.data.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = m1.data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn control_messages_round_trip() {
        let msgs = vec![
            WireMsg::Hello(Hello {
                version: WIRE_VERSION,
                role: Role::Control,
                stage: 3,
                attempt: 1,
                plan_hash: 0xDEAD_BEEF_CAFE_F00D,
                listen_addr: "127.0.0.1:7001".into(),
                bits: vec![4, 8, 16],
            }),
            WireMsg::HelloAck(HelloAck {
                version: WIRE_VERSION,
                plan_hash: 42,
                accepted: false,
                reason: "plan hash mismatch".into(),
            }),
            WireMsg::Shutdown,
            WireMsg::Protocol("stage 1: seq out of range".into()),
            WireMsg::Heartbeat { stage: 2 },
            WireMsg::Topology { next_addr: "127.0.0.1:7002".into(), next_role: 2 },
            WireMsg::Bye,
            WireMsg::Report(StageReport {
                stage: 1,
                metrics: StageMetrics { items: 10, seq_forwards: 20, busy_s: 0.25 },
                rx_link: LinkStats { bytes_rx: 900, frames_rx: 11, corrupt_frames: 1, ..Default::default() },
                tx_link: LinkStats { bytes_tx: 1000, frames_tx: 12, comm_us: 333, ..Default::default() },
            }),
            WireMsg::DeviceLost { device: 5 },
            WireMsg::Dropped { stage: 0 },
            WireMsg::PlanPropose { epoch: 9, plan_json: "{\"stages\":[]}".into() },
            WireMsg::PlanReady { epoch: 9, stage: 2, swapped: true },
            WireMsg::PlanReady { epoch: 9, stage: 0, swapped: false },
            WireMsg::PlanCommit { epoch: 9 },
            WireMsg::PlanAbort { epoch: 9, reason: "stage 1: prepare timeout".into() },
            WireMsg::KvReset { seq: 0 },
            WireMsg::KvReset { seq: u64::MAX },
        ];
        for m in msgs {
            let back = WireMsg::decode(&m.encode()).unwrap();
            assert_eq!(back, m, "round trip of {m:?}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = WireMsg::Shutdown.encode();
        buf.push(0);
        assert!(matches!(WireMsg::decode(&buf), Err(WireError::Decode(_))));
    }

    #[test]
    fn truncated_message_is_rejected() {
        let buf = WireMsg::Work(item()).encode();
        for cut in [1usize, 5, buf.len() - 1] {
            assert!(
                matches!(WireMsg::decode(&buf[..cut]), Err(WireError::Decode(_))),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn a_sequence_count_the_bytes_cannot_back_is_rejected_before_allocating() {
        // The header of a one-sequence item, its count raised to one
        // million: refused on the count, not after reserving room for it.
        let mut buf = WireMsg::Work(WorkItem { seqs: vec![(0, Matrix::zeros(0, 0))], ..item() }).encode();
        let count_at = 1 + 8 + 8 + 8 + 1 + 8;
        buf[count_at..count_at + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        match WireMsg::decode(&buf) {
            Err(WireError::Decode(e)) => assert!(e.contains("claims 1000000 sequences in 16 bytes"), "{e}"),
            other => panic!("an unbacked count must be refused, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(matches!(WireMsg::decode(&[0xFF]), Err(WireError::Decode(_))));
        assert!(matches!(WireMsg::decode(&[]), Err(WireError::Decode(_))));
    }

    #[test]
    fn kv_chunk_round_trips_bit_exactly() {
        let c = KvChunkMsg {
            epoch: 4,
            seq: 1,
            layer: 6,
            chunk: 2,
            n_chunks: 3,
            rows_total: 37,
            k: Matrix::from_vec(2, 2, vec![0.0, -0.0, f32::MIN_POSITIVE, -1.5]),
            v: Matrix::from_vec(2, 2, vec![f32::MAX, 1e-30, -3.25, 42.0]),
        };
        let msg = WireMsg::KvChunk(c.clone());
        let buf = msg.encode();
        assert_eq!(buf.len(), msg.encoded_len(), "exact size accounting");
        let WireMsg::KvChunk(got) = WireMsg::decode(&buf).unwrap() else {
            panic!("kv chunk expected")
        };
        assert_eq!((got.epoch, got.seq, got.layer, got.chunk, got.n_chunks, got.rows_total),
                   (c.epoch, c.seq, c.layer, c.chunk, c.n_chunks, c.rows_total));
        for (a, b) in [(&got.k, &c.k), (&got.v, &c.v)] {
            let x: Vec<u32> = a.data.iter().map(|v| v.to_bits()).collect();
            let y: Vec<u32> = b.data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(x, y, "bit-exact KV payload");
        }
    }

    #[test]
    fn plan_fingerprint_tracks_plan_content() {
        use llm_pq::StagePlan;
        use llmpq_quant::Bitwidth;
        use llmpq_workload::MicrobatchPlan;
        let plan = ExecutionPlan {
            model: "tiny".into(),
            cluster: "test".into(),
            stages: vec![StagePlan {
                device: 0,
                layer_start: 0,
                layer_end: 2,
                bits: vec![Bitwidth::Int8, Bitwidth::Fp16],
            }],
            microbatch: MicrobatchPlan {
                prefill_size: 1,
                prefill_count: 1,
                decode_size: 1,
                decode_count: 1,
            },
            scheme: "LLM-PQ".into(),
            kv_bits: 16,
        };
        let h = plan_fingerprint(&plan);
        assert_eq!(h, plan_fingerprint(&plan), "deterministic");
        let mut other = plan.clone();
        other.stages[0].bits[0] = Bitwidth::Int4;
        assert_ne!(h, plan_fingerprint(&other), "bit config must change the hash");
    }
}
