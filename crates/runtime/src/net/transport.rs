//! The transport abstraction that makes the pipeline engine
//! transport-agnostic.
//!
//! A [`Transport`] is one stage's (or the master's) view of the
//! pipeline: an inbound edge to receive [`WorkerMsg`]s from and an
//! outbound edge to send them to, with crossbeam-channel semantics —
//! bounded-timeout receive (so supervised workers can heartbeat while
//! idle), timeout-aware send that hands the message back for retry
//! under backpressure, and disconnect as a first-class outcome. Two
//! implementations exist:
//!
//! * [`ChannelTransport`] — the original in-process crossbeam pair,
//!   now also accounting per-link byte/frame counters so single-process
//!   runs report the same link telemetry a wire would;
//! * [`TcpTransport`] — real sockets: outbound messages are serialized
//!   into checksummed frames and written directly; inbound frames are
//!   read by a pump thread that validates, decodes and feeds a local
//!   channel, so EOF and poisoned streams surface as exactly the
//!   channel-disconnect the engine already understands.

use super::fault::{WireFaultAction, WireFaultInjector};
use super::frame::{encode_frame, read_frame, FrameError, FRAME_HEADER_BYTES};
use super::wire::{wire_to_worker_msg, worker_msg_to_wire, worker_msg_wire_bytes, WireMsg};
use crate::clock::{real_clock, Clock};
use crate::telemetry::{Span, Telemetry};
use crate::worker::WorkerMsg;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Why a receive produced no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportRecvError {
    /// Nothing arrived within the timeout; the link is still up.
    Timeout,
    /// The upstream endpoint is gone.
    Disconnected,
}

/// Why a send did not complete.
#[derive(Debug)]
pub enum TransportSendError {
    /// No queue space within the timeout — the message is handed back
    /// so the caller can heartbeat and retry without cloning.
    Timeout(WorkerMsg),
    /// The downstream endpoint is gone; the message is lost.
    Disconnected,
}

/// One pipeline endpoint's bidirectional message channel.
pub trait Transport {
    /// Receive the next inbound message, waiting at most `timeout`.
    fn recv_msg(&self, timeout: Duration) -> Result<WorkerMsg, TransportRecvError>;

    /// Send `msg` downstream, waiting at most `timeout` for space.
    fn send_msg(&self, msg: WorkerMsg, timeout: Duration) -> Result<(), TransportSendError>;

    /// Liveness hook, called whenever the owning worker heartbeats. TCP
    /// transports forward it over the control connection (rate-limited);
    /// in-process transports need nothing — the shared heartbeat board
    /// already covers them.
    fn beat(&self) {}
}

/// The in-process transport: a crossbeam receiver/sender pair, with
/// per-link accounting against a [`Telemetry`] hub so channel runs and
/// TCP runs report comparable link counters.
pub struct ChannelTransport {
    input: Receiver<WorkerMsg>,
    output: Sender<WorkerMsg>,
    telemetry: Arc<Telemetry>,
    rx_link: usize,
    tx_link: usize,
    clock: Arc<dyn Clock>,
}

impl ChannelTransport {
    /// Received messages count against link `rx_link`'s rx side, sent
    /// messages against `tx_link`'s tx side; a work item sent also grows
    /// the input-queue gauge of the stage `tx_link` leads into (the
    /// receiver shares the process, so the sender is where its queue
    /// grows; a link back to the master has no such stage).
    pub fn new(
        input: Receiver<WorkerMsg>,
        output: Sender<WorkerMsg>,
        telemetry: Arc<Telemetry>,
        rx_link: usize,
        tx_link: usize,
    ) -> Self {
        Self { input, output, telemetry, rx_link, tx_link, clock: real_clock() }
    }
}

/// Frame bytes `msg` would occupy on a wire (header + payload).
fn framed_bytes(msg: &WorkerMsg) -> u64 {
    (FRAME_HEADER_BYTES + worker_msg_wire_bytes(msg)) as u64
}

impl Transport for ChannelTransport {
    fn recv_msg(&self, timeout: Duration) -> Result<WorkerMsg, TransportRecvError> {
        match self.input.recv_timeout(timeout) {
            Ok(m) => {
                if let Some(l) = self.telemetry.link(self.rx_link) {
                    l.on_rx(framed_bytes(&m));
                }
                Ok(m)
            }
            Err(RecvTimeoutError::Timeout) => Err(TransportRecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportRecvError::Disconnected),
        }
    }

    fn send_msg(&self, msg: WorkerMsg, timeout: Duration) -> Result<(), TransportSendError> {
        let bytes = framed_bytes(&msg);
        // Counted before the hand-off (the receiver may dequeue before
        // this thread runs again) and taken back if nothing was queued.
        let queue = match &msg {
            WorkerMsg::Work(_) => self.telemetry.stage(self.tx_link),
            _ => None,
        };
        if let Some(q) = queue {
            q.on_enqueue();
        }
        let t0 = self.clock.now();
        match self.output.send_timeout(msg, timeout) {
            Ok(()) => {
                if let Some(l) = self.telemetry.link(self.tx_link) {
                    l.on_tx(bytes);
                    l.add_comm_us(self.clock.now().saturating_sub(t0).as_micros() as u64);
                }
                Ok(())
            }
            Err(e) => {
                if let Some(q) = queue {
                    q.on_dequeue();
                }
                Err(match e {
                    SendTimeoutError::Timeout(m) => TransportSendError::Timeout(m),
                    SendTimeoutError::Disconnected(_) => TransportSendError::Disconnected,
                })
            }
        }
    }
}

/// Configuration for a [`TcpTransport`].
pub struct TcpTransportConfig {
    /// Wire-fault injection for this process, if under test.
    pub faults: Option<Arc<WireFaultInjector>>,
    /// Telemetry hub for link counters and — on a hub created to trace
    /// into — comm spans.
    pub telemetry: Arc<Telemetry>,
    /// Link index of the inbound edge.
    pub rx_link: usize,
    /// Link index of the outbound edge.
    pub tx_link: usize,
    /// Trace thread id for `"comm"` spans (0 master, stage *s* is `s+1`).
    pub tid: usize,
    /// Time source for injected delays, comm timing and the heartbeat
    /// rate limit.
    pub clock: Arc<dyn Clock>,
}

impl Default for TcpTransportConfig {
    fn default() -> Self {
        let clock = real_clock();
        Self {
            faults: None,
            telemetry: Telemetry::counters_only(0, clock.clone()),
            rx_link: 0,
            tx_link: 0,
            tid: 0,
            clock,
        }
    }
}

struct ControlBeat {
    stream: Arc<Mutex<TcpStream>>,
    stage: u32,
    interval: Duration,
    last: Mutex<Duration>,
}

/// The wire transport: upstream frames are pumped off a socket by a
/// reader thread into a local channel; downstream messages are framed
/// and written directly. Dropping the transport closes the outbound
/// stream, which is how attempt teardown propagates (EOF cascade).
pub struct TcpTransport {
    rx: Receiver<WorkerMsg>,
    tx: Mutex<TcpStream>,
    cfg: TcpTransportConfig,
    control: Option<ControlBeat>,
}

impl TcpTransport {
    /// Wrap an (upstream, downstream) stream pair, spawning the reader
    /// pump for the upstream side. Both streams should be past their
    /// handshake. `Shutdown` and `Protocol` frames arriving upstream are
    /// delivered like any data message; other wire messages on a data
    /// stream are a protocol error and poison the connection.
    pub fn spawn(upstream: TcpStream, downstream: TcpStream, cfg: TcpTransportConfig) -> Self {
        let _ = upstream.set_nodelay(true);
        let _ = downstream.set_nodelay(true);
        let _ = upstream.set_read_timeout(None);
        let (pump_tx, rx) = unbounded();
        let faults = cfg.faults.clone();
        let telemetry = cfg.telemetry.clone();
        let rx_link = cfg.rx_link;
        let clock = cfg.clock.clone();
        std::thread::spawn(move || {
            run_pump(upstream, pump_tx, faults, telemetry, rx_link, clock);
        });
        Self { rx, tx: Mutex::new(downstream), cfg, control: None }
    }

    /// Attach a shared control stream: every rate-limited [`beat`]
    /// writes a `Heartbeat { stage }` frame to it.
    ///
    /// [`beat`]: Transport::beat
    pub fn with_control(
        mut self,
        stream: Arc<Mutex<TcpStream>>,
        stage: u32,
        interval: Duration,
    ) -> Self {
        let last = Mutex::new(self.cfg.clock.now());
        self.control = Some(ControlBeat { stream, stage, interval, last });
        self
    }
}

/// Reader pump: blocking frame reads → validated, decoded messages into
/// the local channel. Exits (dropping the channel sender, i.e. a
/// disconnect for the consumer) on EOF, any framing error, an injected
/// rx `Disconnect`/`Corrupt` fault, or a dead consumer.
fn run_pump(
    mut stream: TcpStream,
    out: Sender<WorkerMsg>,
    faults: Option<Arc<WireFaultInjector>>,
    telemetry: Arc<Telemetry>,
    rx_link: usize,
    clock: Arc<dyn Clock>,
) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(e) => {
                if !matches!(e, FrameError::Io(_)) {
                    // Header/checksum damage, not a plain close.
                    if let Some(l) = telemetry.link(rx_link) {
                        l.on_corrupt();
                    }
                }
                return;
            }
        };
        let mut deliveries = 1;
        match faults.as_ref().map_or(WireFaultAction::None, |f| f.on_rx()) {
            WireFaultAction::None => {}
            WireFaultAction::Delay(d) => clock.sleep(d),
            WireFaultAction::Drop => continue,
            WireFaultAction::Duplicate => deliveries = 2,
            WireFaultAction::Corrupt => {
                if let Some(l) = telemetry.link(rx_link) {
                    l.on_corrupt();
                }
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            WireFaultAction::Disconnect => {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        }
        if let Some(l) = telemetry.link(rx_link) {
            l.on_rx((FRAME_HEADER_BYTES + payload.len()) as u64);
        }
        let msg = match WireMsg::decode(&payload).map(wire_to_worker_msg) {
            Ok(Some(m)) => m,
            Ok(None) | Err(_) => {
                // Not a data-plane message: the stream is confused or
                // damaged; poison it.
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        // Mirror the in-process enqueue gauge: the sender lives in
        // another process, so arrival is where this stage's input-queue
        // depth grows.
        if let Some(r) = telemetry.stage(rx_link) {
            for _ in 0..deliveries {
                r.on_enqueue();
            }
        }
        for _ in 0..deliveries {
            if out.send(msg.clone()).is_err() {
                return;
            }
        }
    }
}

impl Transport for TcpTransport {
    fn recv_msg(&self, timeout: Duration) -> Result<WorkerMsg, TransportRecvError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(TransportRecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportRecvError::Disconnected),
        }
    }

    fn send_msg(&self, msg: WorkerMsg, _timeout: Duration) -> Result<(), TransportSendError> {
        // Tags for the comm span, captured before the message is moved.
        let work_tags = match &msg {
            WorkerMsg::Work(i) => Some((i.step, i.microbatch, i.phase)),
            _ => None,
        };
        let t0 = self.cfg.clock.now();
        let ts_us = self.cfg.telemetry.now_us();
        let mut frame = encode_frame(&worker_msg_to_wire(msg).encode());
        let mut writes = 1;
        match self.cfg.faults.as_ref().map_or(WireFaultAction::None, |f| f.on_tx()) {
            WireFaultAction::None => {}
            WireFaultAction::Delay(d) => self.cfg.clock.sleep(d),
            WireFaultAction::Drop => return Ok(()), // lost in transit
            WireFaultAction::Duplicate => writes = 2,
            WireFaultAction::Corrupt => {
                // Flip a payload byte *after* checksumming, so the
                // receiver's CRC catches it.
                let last = frame.len() - 1;
                frame[last] ^= 0x01;
            }
            WireFaultAction::Disconnect => {
                let _ = self.tx.lock().shutdown(Shutdown::Both);
                return Err(TransportSendError::Disconnected);
            }
        }
        {
            let mut stream = self.tx.lock();
            for _ in 0..writes {
                if stream.write_all(&frame).and_then(|()| stream.flush()).is_err() {
                    return Err(TransportSendError::Disconnected);
                }
            }
        }
        let t = &self.cfg.telemetry;
        let dur_us = self.cfg.clock.now().saturating_sub(t0).as_micros() as u64;
        if let Some(l) = t.link(self.cfg.tx_link) {
            l.on_tx(frame.len() as u64 * writes as u64);
            l.add_comm_us(dur_us);
        }
        if let Some((step, microbatch, phase)) = work_tags {
            t.record_span(Span {
                tid: self.cfg.tid,
                name: "comm",
                phase,
                ts_us,
                dur_us,
                step,
                microbatch,
                bits: Arc::from(""),
            });
        }
        Ok(())
    }

    fn beat(&self) {
        let Some(c) = &self.control else { return };
        {
            let now = self.cfg.clock.now();
            let mut last = c.last.lock();
            if now.saturating_sub(*last) < c.interval {
                return;
            }
            *last = now;
        }
        let frame = encode_frame(&WireMsg::Heartbeat { stage: c.stage }.encode());
        let mut stream = c.stream.lock();
        // A dead control link is not this transport's failure to report:
        // the data path will surface it.
        let _ = stream.write_all(&frame).and_then(|()| stream.flush());
    }
}

/// Write one wire message as a frame. Returns bytes put on the wire.
pub fn write_wire_msg<W: Write>(w: &mut W, msg: &WireMsg) -> Result<usize, super::wire::WireError> {
    let frame = encode_frame(&msg.encode());
    w.write_all(&frame).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)?;
    Ok(frame.len())
}

/// Read one wire message from a framed stream.
pub fn read_wire_msg<R: io::Read>(r: &mut R) -> Result<WireMsg, super::wire::WireError> {
    WireMsg::decode(&read_frame(r)?)
}

/// Dial `addr` with retry and jittered exponential backoff: up to
/// `attempts` tries; between them the nominal delay grows `base ×
/// factor^k` (capped at `cap`) but the actual sleep is *equal-jitter* —
/// `delay/2` plus a seeded pseudo-random slice of the other half — so
/// many stages redialing a restarted master spread out instead of
/// stampeding in lockstep. The jitter is a deterministic function of
/// `jitter_seed` (callers derive it from stage/attempt identity), which
/// keeps retry timing reproducible for a given topology — no unseeded
/// randomness, per the simulation determinism contract. Returns the
/// last error if every try fails.
pub fn connect_retry(
    addr: &str,
    attempts: usize,
    base: Duration,
    factor: f64,
    cap: Duration,
    jitter_seed: u64,
) -> io::Result<TcpStream> {
    // Seeded, so many dialers decorrelate reproducibly.
    let mut state = jitter_seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || crate::splitmix64(&mut state);
    let mut delay = base;
    let mut last_err = io::Error::new(io::ErrorKind::InvalidInput, "zero connect attempts");
    for i in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => last_err = e,
        }
        if i + 1 < attempts.max(1) {
            let half = delay / 2;
            let span_us = half.as_micros() as u64 + 1;
            std::thread::sleep(half + Duration::from_micros(next() % span_us));
            delay = delay.mul_f64(factor).min(cap);
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::fault::{WireFaultEvent, WireFaultKind, WireFaultPlan, WireDir};
    use crate::worker::WorkItem;
    use llmpq_model::{Matrix, Phase};
    use std::net::TcpListener;

    fn work(step: u64) -> WorkerMsg {
        WorkerMsg::Work(WorkItem {
            step,
            microbatch: 0,
            phase: Phase::Decode,
            sent_us: 0,
            epoch: 0,
            seqs: vec![(0, Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]))],
        })
    }

    fn tick() -> Duration {
        Duration::from_millis(200)
    }

    /// Loopback socket pair (a → b).
    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    #[test]
    fn channel_transport_counts_link_bytes() {
        let tel = Telemetry::new(1);
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t = ChannelTransport::new(rx0, tx1, tel.clone(), 0, 1);
        tx0.send(work(0)).unwrap();
        let got = t.recv_msg(tick()).unwrap();
        assert!(matches!(got, WorkerMsg::Work(_)));
        t.send_msg(work(1), tick()).unwrap();
        assert!(matches!(rx1.recv().unwrap(), WorkerMsg::Work(_)));
        let s0 = tel.link(0).unwrap().snapshot();
        let s1 = tel.link(1).unwrap().snapshot();
        assert_eq!(s0.frames_rx, 1);
        assert_eq!(s1.frames_tx, 1);
        assert_eq!(s0.bytes_rx, s1.bytes_tx, "same message shape both ways");
        assert!(s0.bytes_rx > FRAME_HEADER_BYTES as u64);
        drop(tx0);
        assert!(matches!(t.recv_msg(tick()), Err(TransportRecvError::Disconnected)));
    }

    #[test]
    fn tcp_transport_round_trips_messages() {
        // a ── work ──▶ b (echo server over raw frames) ── back ──▶ a
        let (up_a, down_b) = pair(); // b writes, a's pump reads
        let (down_a, up_b) = pair(); // a writes, b reads raw
        let tel = Telemetry::new(1);
        let t = TcpTransport::spawn(
            up_a,
            down_a,
            TcpTransportConfig { telemetry: tel.clone(), rx_link: 0, tx_link: 1, ..Default::default() },
        );
        // Echo thread: raw frame read on b, write back unchanged.
        std::thread::spawn(move || {
            let mut r = up_b;
            let mut w = down_b;
            while let Ok(p) = read_frame(&mut r) {
                let _ = w.write_all(&encode_frame(&p));
            }
        });
        t.send_msg(work(7), tick()).unwrap();
        let got = t.recv_msg(Duration::from_secs(5)).expect("echoed back");
        let WorkerMsg::Work(i) = got else { panic!("work expected") };
        assert_eq!(i.step, 7);
        let s1 = tel.link(1).unwrap().snapshot();
        let s0 = tel.link(0).unwrap().snapshot();
        assert_eq!(s1.frames_tx, 1);
        assert_eq!(s0.frames_rx, 1);
        assert_eq!(s1.bytes_tx, s0.bytes_rx);
        // One comm span was traced for the Work send.
        assert!(tel.spans().iter().any(|s| s.name == "comm" && s.step == 7));
    }

    #[test]
    fn tcp_eof_surfaces_as_disconnect() {
        let (up_a, down_b) = pair();
        let (down_a, _up_b) = pair();
        let t = TcpTransport::spawn(up_a, down_a, TcpTransportConfig::default());
        drop(down_b); // peer closes → pump EOF → channel disconnect
        let mut waited = Duration::ZERO;
        loop {
            match t.recv_msg(tick()) {
                Err(TransportRecvError::Disconnected) => break,
                Err(TransportRecvError::Timeout) => {
                    waited += tick();
                    assert!(waited < Duration::from_secs(10), "disconnect never surfaced");
                }
                Ok(m) => panic!("unexpected message {m:?}"),
            }
        }
    }

    #[test]
    fn corrupt_tx_fault_is_detected_by_receiver_crc() {
        let (up_a, down_b) = pair();
        let (down_a, mut up_b) = pair();
        let plan = WireFaultPlan {
            events: vec![WireFaultEvent {
                stage: 2,
                dir: WireDir::Tx,
                after_frames: 0,
                kind: WireFaultKind::CorruptFrame,
            }],
        };
        let t = TcpTransport::spawn(
            up_a,
            down_a,
            TcpTransportConfig { faults: Some(WireFaultInjector::new(&plan, 2)), ..Default::default() },
        );
        drop(down_b);
        t.send_msg(work(0), tick()).unwrap(); // corrupted on the wire
        let err = read_frame(&mut up_b).expect_err("CRC must fail");
        assert!(matches!(err, FrameError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn duplicate_rx_fault_delivers_twice() {
        let (up_a, mut down_b) = pair();
        let (down_a, _up_b) = pair();
        let plan = WireFaultPlan {
            events: vec![WireFaultEvent {
                stage: 0,
                dir: WireDir::Rx,
                after_frames: 0,
                kind: WireFaultKind::DuplicateFrame,
            }],
        };
        let t = TcpTransport::spawn(
            up_a,
            down_a,
            TcpTransportConfig { faults: Some(WireFaultInjector::new(&plan, 0)), ..Default::default() },
        );
        down_b.write_all(&encode_frame(&worker_msg_to_wire(work(3)).encode())).unwrap();
        for copy in 0..2 {
            let got = t.recv_msg(Duration::from_secs(5)).unwrap_or_else(|e| panic!("copy {copy}: {e:?}"));
            assert!(matches!(got, WorkerMsg::Work(i) if i.step == 3));
        }
    }

    #[test]
    fn connect_retry_eventually_reaches_late_listener() {
        // Reserve a port, close it, re-bind it shortly after — the dial
        // must survive the gap via its backoff loop.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        drop(l);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let l = TcpListener::bind(addr).unwrap();
            let _ = l.accept();
        });
        let got = connect_retry(
            &addr.to_string(),
            50,
            Duration::from_millis(5),
            2.0,
            Duration::from_millis(40),
            7,
        );
        assert!(got.is_ok(), "{got:?}");
        handle.join().unwrap();
    }

    #[test]
    fn connect_retry_reports_last_error() {
        // A port nothing listens on (bound then dropped; immediate
        // refusals, bounded retries).
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        drop(l);
        let got =
            connect_retry(&addr, 3, Duration::from_millis(1), 2.0, Duration::from_millis(4), 7);
        assert!(got.is_err());
    }
}
