//! Multi-process pipeline: one OS process per stage plus a master,
//! connected over TCP.
//!
//! Topology (n stages → n+2 processes, n+1 data links):
//!
//! ```text
//!            control (persistent, per stage): hello/ack, topology,
//!            heartbeats, dropped/device-lost notes, bye/report
//!          ┌───────────────────────────────────────────────┐
//!          ▼                                               │
//!   master ── data link 0 ──▶ stage 0 ── link 1 ──▶ … ──▶ stage n−1
//!      ▲                                                       │
//!      └──────────────── return data (link n) ─────────────────┘
//! ```
//!
//! The master owns one listener. At startup every stage dials it with a
//! `Control` hello (carrying the address its own data listener bound —
//! stages may bind port 0) and the master answers the ring topology.
//! Data connections are *per attempt*: the master dials stage 0, each
//! stage dials its successor on first use, and the last stage dials the
//! master's listener back with a `ReturnData` hello. A failed attempt is
//! torn down by dropping the master's endpoints — the EOF cascades down
//! the ring, every worker loop exits, and the stages circle back to
//! accepting the next attempt, which resumes from the lock-step token
//! checkpoint exactly like a supervised in-process
//! [`Pipeline`](crate::Pipeline) run.
//!
//! The master side is the shared ring layer pointed at sockets:
//! [`TcpServingRing`] is the stage fleet as a
//! [`ServingRing`] (control plane once,
//! one data ring per dial, the stages' end-of-run reports merged into
//! its hub), [`Pipeline::run_on`](crate::Pipeline::run_on) drives a
//! closed batch over it — the one offline master, the same restart loop
//! and generation loop the in-process engine runs over channels — and
//! the serving engine dials the same ring type. That, plus the
//! bit-exact activation codec, is why a loopback multi-process run
//! emits byte-identical tokens.

use super::fault::{WireFaultInjector, WireFaultPlan, MASTER_STAGE};
use super::transport::{
    connect_retry, read_wire_msg, write_wire_msg, TcpTransport, TcpTransportConfig, Transport,
};
use super::wire::{plan_fingerprint, Hello, HelloAck, Role, StageReport, WireMsg, WIRE_VERSION};
use crate::clock::{real_clock, Clock};
use crate::engine::RuntimeError;
use crate::fault::Heartbeats;
use crate::loader::load_stage_weights;
use crate::migrate::MigrationHost;
use crate::serve_dist::ServingRing;
use crate::telemetry::{LinkStats, StageMetrics, Telemetry};
use crate::worker::{run_worker_transport, WorkerCtx};
use llm_pq::ExecutionPlan;
use llmpq_model::RefModel;
use llmpq_quant::Rounding;
use parking_lot::Mutex;
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Duration;

/// How long handshakes (control collection, per-attempt data hellos) may
/// take before the peer is declared unreachable.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Interval between heartbeat frames a stage puts on its control
/// connection (rate limit; the worker offers beats far more often).
const HEARTBEAT_WIRE_INTERVAL: Duration = Duration::from_millis(50);

/// How long the master waits for stage reports after `Bye`.
const REPORT_TIMEOUT: Duration = Duration::from_secs(5);

/// Redial pacing of an attempt's data ring (stage 0 may still be tearing
/// the previous attempt down): a first retry after this, doubling up to
/// [`REDIAL_CAP`].
const REDIAL_BASE: Duration = Duration::from_millis(10);
const REDIAL_CAP: Duration = Duration::from_secs(1);

/// Master-side configuration of a [`TcpServingRing`]. The master's
/// timeouts and restart budget are the run's own: its
/// [`Pipeline`](crate::Pipeline) or serving engine.
#[derive(Clone, Default)]
pub struct DistMasterConfig {
    /// Wire faults this process should inject (events targeting
    /// [`MASTER_STAGE`]).
    pub wire_faults: WireFaultPlan,
    /// Observability hub to record into; also receives the stages'
    /// reported link counters at the end of the run. `None` = the ring
    /// counts into a counters-only hub of its own.
    pub telemetry: Option<Arc<Telemetry>>,
}

/// Stage-side configuration.
#[derive(Clone)]
pub struct DistStageConfig {
    /// This process's pipeline stage.
    pub stage: usize,
    /// Address to bind the data listener on (port 0 is fine — the real
    /// address is reported to the master in the control hello).
    pub listen: String,
    /// The master's listener address.
    pub master: String,
    /// Quantizer rounding (must match the master's run).
    pub rounding: Rounding,
    /// Quantizer seed (must match the master's run).
    pub seed: u64,
    /// Wire faults this process should inject.
    pub wire_faults: WireFaultPlan,
    /// Worker receive/retry granularity.
    pub tick: Duration,
}

/// What a stage process did, for logs and tests.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Data connections served (1 = no restarts).
    pub attempts_served: usize,
    /// Final execution counters, every served attempt included.
    pub metrics: StageMetrics,
    /// Upstream-link counters (link `stage`, rx side).
    pub rx_link: LinkStats,
    /// Downstream-link counters (link `stage + 1`, tx side).
    pub tx_link: LinkStats,
}

/// Accept one connection, polling so the deadline (and nothing else)
/// bounds the wait — std has no native accept timeout. The deadline is
/// in `clock`'s timeline (see [`Clock::deadline`]).
fn accept_deadline(
    listener: &TcpListener,
    clock: &dyn Clock,
    deadline: Duration,
) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let res = loop {
        match listener.accept() {
            Ok((s, _)) => break Ok(s),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if clock.expired(deadline) {
                    break Err(io::Error::new(io::ErrorKind::TimedOut, "accept deadline passed"));
                }
                clock.sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        }
    };
    let _ = listener.set_nonblocking(false);
    if let Ok(s) = &res {
        s.set_nonblocking(false)?;
    }
    res
}

/// Accept until a connection arrives or `stop` is raised.
fn accept_until_stopped(
    listener: &TcpListener,
    clock: &dyn Clock,
    stop: &AtomicBool,
) -> Option<TcpStream> {
    if listener.set_nonblocking(true).is_err() {
        return None;
    }
    let res = loop {
        if stop.load(Ordering::Acquire) {
            break None;
        }
        match listener.accept() {
            Ok((s, _)) => break Some(s),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                clock.sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break None,
        }
    };
    let _ = listener.set_nonblocking(false);
    if let Some(s) = &res {
        if s.set_nonblocking(false).is_err() {
            return None;
        }
    }
    res
}

fn wire_io(what: &str, e: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::WorkerDied(format!("{what}: {e}"))
}

/// Master-side shared state fed by the per-stage control readers.
///
/// `reports` lives under a std mutex (not parking_lot) because the
/// report wait at the end of a run parks on the paired [`Condvar`] — the
/// vendored parking_lot has no condvar, and a poisoned lock just means
/// a reader panicked mid-store, which the wait tolerates.
struct ControlShared {
    hb: Arc<Heartbeats>,
    dropped: Mutex<Vec<usize>>,
    reports: std::sync::Mutex<Vec<Option<StageReport>>>,
    /// Notified on every report arrival and on control-reader exit, so
    /// the master's report wait parks instead of polling.
    reports_cv: Condvar,
    device_lost: Mutex<Option<usize>>,
}

fn control_reader(mut stream: TcpStream, shared: Arc<ControlShared>, n_stages: usize) {
    loop {
        match read_wire_msg(&mut stream) {
            Ok(WireMsg::Heartbeat { stage }) if (stage as usize) < n_stages => {
                shared.hb.beat(stage as usize);
            }
            Ok(WireMsg::Dropped { stage }) => shared.dropped.lock().push(stage as usize),
            Ok(WireMsg::DeviceLost { device }) => {
                *shared.device_lost.lock() = Some(device as usize);
            }
            Ok(WireMsg::Report(r)) if (r.stage as usize) < n_stages => {
                let s = r.stage as usize;
                shared.reports.lock().unwrap_or_else(PoisonError::into_inner)[s] = Some(r);
                shared.reports_cv.notify_all();
            }
            Ok(_) => {}
            Err(_) => {
                // EOF / poisoned control — supervision notices; wake the
                // report wait so it re-checks rather than sleeping out
                // its full timeout.
                shared.reports_cv.notify_all();
                return;
            }
        }
    }
}

/// Master-side control plane: the persistent per-stage connections plus
/// the shared state their reader threads feed. Built once per run by
/// [`establish_control_plane`] for a [`TcpServingRing`].
struct ControlPlane {
    /// Data-listener address each stage reported in its control hello.
    stage_addrs: Vec<String>,
    shared: Arc<ControlShared>,
    writers: Vec<Arc<Mutex<TcpStream>>>,
}

/// Phases 1–3 of the master bring-up: collect one control connection
/// per stage (validating version, plan hash, and bit config), answer
/// the ring topology, then split each connection into a reader thread
/// and a shared writer.
fn establish_control_plane(
    plan: &ExecutionPlan,
    listener: &TcpListener,
    fp: u64,
    master_addr: &str,
    clock: &Arc<dyn Clock>,
) -> Result<ControlPlane, RuntimeError> {
    let n_stages = plan.stages.len();

    // --- Phase 1: collect one control connection per stage -------------
    let mut controls: Vec<Option<(TcpStream, String)>> = (0..n_stages).map(|_| None).collect();
    let deadline = clock.deadline(HANDSHAKE_TIMEOUT);
    while controls.iter().any(Option::is_none) {
        let mut c = accept_deadline(listener, clock.as_ref(), deadline)
            .map_err(|e| wire_io("waiting for stage control connections", e))?;
        let _ = c.set_read_timeout(Some(Duration::from_secs(3)));
        let hello = match read_wire_msg(&mut c) {
            Ok(WireMsg::Hello(h)) if h.role == Role::Control => h,
            _ => continue, // stray or damaged connection: drop it
        };
        let s = hello.stage as usize;
        let want_bits: Vec<u8> =
            plan.stages.get(s).map_or(Vec::new(), |sp| sp.bits.iter().map(|b| b.bits() as u8).collect());
        let refusal = if hello.version != WIRE_VERSION {
            Some(format!("wire version mismatch: master {WIRE_VERSION}, stage {}", hello.version))
        } else if s >= n_stages {
            Some(format!("stage {s} out of range (plan has {n_stages})"))
        } else if hello.plan_hash != fp {
            Some(format!("plan hash mismatch: master {fp:#018x}, stage {:#018x}", hello.plan_hash))
        } else if hello.bits != want_bits {
            Some(format!("bitwidth config mismatch at stage {s}: master expects {want_bits:?}, stage has {:?}", hello.bits))
        } else if controls[s].is_some() {
            Some(format!("stage {s} already connected"))
        } else {
            None
        };
        let ack = HelloAck {
            version: WIRE_VERSION,
            plan_hash: fp,
            accepted: refusal.is_none(),
            reason: refusal.clone().unwrap_or_default(),
        };
        let _ = write_wire_msg(&mut c, &WireMsg::HelloAck(ack));
        match refusal {
            // A misconfigured fleet is not going to heal: fail fast with
            // the same typed reason the stage saw.
            Some(r) => return Err(RuntimeError::BadPlan(r)),
            None => controls[s] = Some((c, hello.listen_addr)),
        }
    }

    // The collection loop above only exits once every slot is filled;
    // surface a logic regression as a typed error instead of a panic.
    let mut controls: Vec<(TcpStream, String)> = controls
        .into_iter()
        .enumerate()
        .map(|(s, c)| {
            c.ok_or_else(|| {
                RuntimeError::Protocol(format!("stage {s} control connection never collected"))
            })
        })
        .collect::<Result<_, _>>()?;

    // --- Phase 2: answer the ring topology ------------------------------
    let stage_addrs: Vec<String> = controls.iter().map(|(_, a)| a.clone()).collect();
    for s in 0..n_stages {
        let (next_addr, next_role) = if s + 1 < n_stages {
            (stage_addrs[s + 1].clone(), Role::Data.to_u8())
        } else {
            (master_addr.to_string(), Role::ReturnData.to_u8())
        };
        let (c, _) = &mut controls[s];
        write_wire_msg(c, &WireMsg::Topology { next_addr, next_role })
            .map_err(|e| wire_io("sending topology", e))?;
    }

    // --- Phase 3: split controls into reader threads + shared writers ---
    let shared = Arc::new(ControlShared {
        hb: Heartbeats::with_clock(n_stages, clock.clone()),
        dropped: Mutex::new(Vec::new()),
        reports: std::sync::Mutex::new(vec![None; n_stages]),
        reports_cv: Condvar::new(),
        device_lost: Mutex::new(None),
    });
    let mut control_writers: Vec<Arc<Mutex<TcpStream>>> = Vec::new();
    for (c, _) in controls {
        let _ = c.set_read_timeout(None);
        let reader = c.try_clone().map_err(|e| wire_io("cloning control stream", e))?;
        control_writers.push(Arc::new(Mutex::new(c)));
        let sh = shared.clone();
        std::thread::spawn(move || control_reader(reader, sh, n_stages));
    }

    Ok(ControlPlane { stage_addrs, shared, writers: control_writers })
}

/// Park on the report condvar until every stage report arrived or the
/// timeout lapsed. The control readers notify on every report arrival
/// (and when a reader exits), so no core burns in the wait.
fn wait_for_reports(shared: &ControlShared, clock: &dyn Clock, timeout: Duration) {
    let deadline = clock.deadline(timeout);
    let mut guard = shared.reports.lock().unwrap_or_else(PoisonError::into_inner);
    while guard.iter().any(Option::is_none) {
        let left = deadline.saturating_sub(clock.now());
        if left.is_zero() {
            break;
        }
        guard = shared
            .reports_cv
            .wait_timeout(guard, left)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

/// Multi-process ring: the TCP counterpart of
/// [`ChannelRing`](crate::serve_dist::ChannelRing), with one
/// [`run_stage`] process per pipeline stage.
/// [`Pipeline::run_on`](crate::Pipeline::run_on) runs a batch over it; a
/// [`DistStepEngine`](crate::serve_dist::DistStepEngine) serves over it.
///
/// The control plane (stage check-in, topology, heartbeats, reports) is
/// established once; each `dial` builds a fresh per-attempt data ring.
/// Teardown is the EOF cascade: the master drops its link, every
/// stage's worker loop exits, and the stages circle back to accepting
/// the next attempt — so `teardown` itself has nothing to do. Stages
/// always serve the *boot* plan on a fresh attempt, so the ring refuses
/// to be re-targeted to any other; the serving engine replays any
/// committed live-swap on top before resuming traffic. At the end of a
/// run ([`finish`](ServingRing::finish), or on drop)
/// the ring says `Bye` and merges the link and stage counters every
/// stage reports into its hub.
pub struct TcpServingRing {
    listener: TcpListener,
    fp: u64,
    n_stages: usize,
    s0_addr: String,
    injector: Arc<WireFaultInjector>,
    telemetry: Arc<Telemetry>,
    clock: Arc<dyn Clock>,
    shared: Arc<ControlShared>,
    writers: Vec<Arc<Mutex<TcpStream>>>,
}

impl TcpServingRing {
    /// Collect the stage fleet on an already-bound listener (bind
    /// `127.0.0.1:0` and publish `local_addr` to let stages find you)
    /// and answer the ring topology. Blocks until every stage of
    /// `boot` has checked in or the handshake deadline lapses.
    pub fn establish(
        boot: &ExecutionPlan,
        listener: TcpListener,
        cfg: &DistMasterConfig,
    ) -> Result<Self, RuntimeError> {
        let fp = plan_fingerprint(boot);
        let clock = real_clock();
        let master_addr = listener
            .local_addr()
            .map_err(|e| wire_io("master listener has no local address", e))?
            .to_string();
        let cp = establish_control_plane(boot, &listener, fp, &master_addr, &clock)?;
        Ok(Self {
            listener,
            fp,
            n_stages: boot.stages.len(),
            s0_addr: cp.stage_addrs[0].clone(),
            injector: WireFaultInjector::new(&cfg.wire_faults, MASTER_STAGE),
            telemetry: cfg
                .telemetry
                .clone()
                .unwrap_or_else(|| Telemetry::counters_only(boot.stages.len(), clock.clone())),
            clock,
            shared: cp.shared,
            writers: cp.writers,
        })
    }

    /// Build one attempt's data ring: dial stage 0 (retrying from
    /// [`REDIAL_BASE`] up), then accept the last stage's return
    /// connection, refusing stray or stale dials. Returns the
    /// `(return, downstream)` endpoint pair for [`TcpTransport::spawn`].
    fn dial_data_ring(&self, attempt: usize) -> Result<(TcpStream, TcpStream), String> {
        let (fp, s0_addr) = (self.fp, &self.s0_addr);
        // Jitter seeded by the attempt so redial timing stays deterministic
        // per topology.
        let mut down = connect_retry(s0_addr, 16, REDIAL_BASE, 2.0, REDIAL_CAP, attempt as u64)
        .map_err(|e| format!("dialing stage 0 at {s0_addr}: {e}"))?;
        let _ = down.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
        let hello = Hello {
            version: WIRE_VERSION,
            role: Role::Data,
            stage: 0,
            attempt: attempt as u32,
            plan_hash: fp,
            listen_addr: String::new(),
            bits: Vec::new(),
        };
        write_wire_msg(&mut down, &WireMsg::Hello(hello))
            .map_err(|e| format!("sending data hello to stage 0: {e}"))?;
        match read_wire_msg(&mut down) {
            Ok(WireMsg::HelloAck(a)) if a.accepted => {}
            Ok(WireMsg::HelloAck(a)) => {
                return Err(format!("stage 0 refused the data hello: {}", a.reason))
            }
            Ok(m) => return Err(format!("expected hello-ack from stage 0, got {m:?}")),
            Err(e) => return Err(format!("reading stage 0 hello-ack: {e}")),
        }

        // Accept the last stage's return connection. Stray or stale dials
        // (e.g. a previous attempt's late return) are acked away and the
        // accept continues until the deadline.
        let ret = loop {
            let deadline = self.clock.deadline(HANDSHAKE_TIMEOUT);
            let mut c = accept_deadline(&self.listener, self.clock.as_ref(), deadline)
                .map_err(|e| format!("waiting for the return data connection: {e}"))?;
            let _ = c.set_read_timeout(Some(Duration::from_secs(3)));
            match read_wire_msg(&mut c) {
                Ok(WireMsg::Hello(h))
                    if h.role == Role::ReturnData
                        && h.attempt == attempt as u32
                        && h.plan_hash == fp =>
                {
                    let ack = HelloAck {
                        version: WIRE_VERSION,
                        plan_hash: fp,
                        accepted: true,
                        reason: String::new(),
                    };
                    write_wire_msg(&mut c, &WireMsg::HelloAck(ack))
                        .map_err(|e| format!("acking the return connection: {e}"))?;
                    break c;
                }
                Ok(WireMsg::Hello(_)) => {
                    let ack = HelloAck {
                        version: WIRE_VERSION,
                        plan_hash: fp,
                        accepted: false,
                        reason: "stale or mismatched return connection".into(),
                    };
                    let _ = write_wire_msg(&mut c, &WireMsg::HelloAck(ack));
                }
                _ => {} // damaged stray; drop and keep accepting
            }
        };
        Ok((ret, down))
    }
}

impl ServingRing for TcpServingRing {
    fn dial(&mut self, attempt: usize) -> Result<Box<dyn Transport + Send>, String> {
        // Per-attempt view of what the control plane reports: forget the
        // last attempt's dropped-item notes and restart every stage's
        // staleness clock — a (re)connecting stage counts as alive.
        self.shared.dropped.lock().clear();
        for s in 0..self.n_stages {
            self.shared.hb.beat(s);
        }
        let (ret, down) = self.dial_data_ring(attempt)?;
        Ok(Box::new(TcpTransport::spawn(
            ret,
            down,
            TcpTransportConfig {
                faults: Some(self.injector.clone()),
                telemetry: self.telemetry.clone(),
                rx_link: self.n_stages,
                tx_link: 0,
                tid: 0,
                clock: self.clock.clone(),
            },
        )))
    }

    /// Stage processes load their shard once, from the plan they were
    /// started with: any other plan is refused.
    fn retarget(&mut self, plan: &ExecutionPlan) -> Result<(), RuntimeError> {
        if plan_fingerprint(plan) == self.fp {
            return Ok(());
        }
        Err(RuntimeError::BadPlan(
            "a TCP stage fleet serves the plan its processes were started with; restart the \
             fleet on the new plan"
                .into(),
        ))
    }

    /// Say `Bye` to every stage, wait for their reports if the run
    /// completed (a fleet whose run failed may never send them), merge
    /// what arrived into the hub — link `s` rx and link `s + 1` tx, the
    /// stage's work counters — and close the control plane. `Drop` does
    /// this too; a second call is a no-op.
    fn finish(&mut self, completed: bool) {
        if self.writers.is_empty() {
            return;
        }
        for w in &self.writers {
            let _ = write_wire_msg(&mut *w.lock(), &WireMsg::Bye);
        }
        if completed {
            wait_for_reports(&self.shared, self.clock.as_ref(), REPORT_TIMEOUT);
            let reports = self.shared.reports.lock().unwrap_or_else(PoisonError::into_inner);
            for r in reports.iter().flatten() {
                let s = r.stage as usize;
                if let Some(l) = self.telemetry.link(s) {
                    l.merge(&r.rx_link);
                }
                if let Some(l) = self.telemetry.link(s + 1) {
                    l.merge(&r.tx_link);
                }
                if let Some(rec) = self.telemetry.stage(s) {
                    rec.merge(&r.metrics);
                }
            }
        }
        for w in self.writers.drain(..) {
            let _ = w.lock().shutdown(Shutdown::Both);
        }
    }

    fn n_stages(&self) -> usize {
        self.n_stages
    }

    fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    fn heartbeats(&self) -> Option<Arc<Heartbeats>> {
        Some(self.shared.hb.clone())
    }

    /// A wire `Dropped` note names the stage whose downstream link died.
    fn dropped_stage(&self) -> Option<usize> {
        self.shared.dropped.lock().first().copied()
    }

    fn lost_devices(&self) -> Vec<usize> {
        self.shared.device_lost.lock().iter().copied().collect()
    }
}

impl Drop for TcpServingRing {
    fn drop(&mut self) {
        self.finish(true);
    }
}

/// Run one stage process: bind the data listener, check in with the
/// master, then serve data connections — one per attempt — until the
/// master says `Bye` (graceful: answer with a [`StageReport`]) or the
/// control connection dies (orphaned: exit with an error so process
/// supervisors notice). Blocks for the whole run. The stage quantizes
/// its shard from `checkpoint` and then keeps that same allocation for
/// live swaps, so a caller that holds on to its `Arc` shares the dense
/// layers with the stage rather than doubling them.
pub fn run_stage(
    checkpoint: Arc<RefModel>,
    plan: &ExecutionPlan,
    n_seqs: usize,
    cfg: &DistStageConfig,
) -> Result<StageSummary, RuntimeError> {
    let s = cfg.stage;
    let n_stages = plan.stages.len();
    let clock = real_clock();
    plan.validate(checkpoint.cfg.n_layers).map_err(RuntimeError::BadPlan)?;
    let sp = plan
        .stages
        .get(s)
        .ok_or_else(|| RuntimeError::BadPlan(format!("stage {s} out of range ({n_stages} stages)")))?;
    let fp = plan_fingerprint(plan);
    let (weights, _loader_stats) =
        load_stage_weights(&checkpoint, sp.layer_start, &sp.bits, cfg.rounding, cfg.seed);

    let listener =
        TcpListener::bind(&cfg.listen).map_err(|e| wire_io(&format!("binding {}", cfg.listen), e))?;
    let data_addr = listener
        .local_addr()
        .map_err(|e| wire_io("data listener has no local address", e))?
        .to_string();

    // Check in with the master over the persistent control connection.
    // Jitter seeded by the stage id: a fleet restarting together fans
    // its dials out instead of stampeding the master's listener.
    let mut control = connect_retry(
        &cfg.master,
        40,
        Duration::from_millis(25),
        1.5,
        Duration::from_millis(500),
        s as u64,
    )
    .map_err(|e| wire_io(&format!("dialing master at {}", cfg.master), e))?;
    let _ = control.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let hello = Hello {
        version: WIRE_VERSION,
        role: Role::Control,
        stage: s as u32,
        attempt: 0,
        plan_hash: fp,
        listen_addr: data_addr,
        bits: sp.bits.iter().map(|b| b.bits() as u8).collect(),
    };
    write_wire_msg(&mut control, &WireMsg::Hello(hello))
        .map_err(|e| wire_io("sending control hello", e))?;
    match read_wire_msg(&mut control) {
        Ok(WireMsg::HelloAck(a)) if a.accepted => {}
        Ok(WireMsg::HelloAck(a)) => return Err(RuntimeError::BadPlan(a.reason)),
        Ok(m) => return Err(RuntimeError::Protocol(format!("expected hello-ack, got {m:?}"))),
        Err(e) => return Err(wire_io("reading hello-ack", e)),
    }
    let (next_addr, next_role) = match read_wire_msg(&mut control) {
        Ok(WireMsg::Topology { next_addr, next_role }) => (
            next_addr,
            Role::from_u8(next_role).map_err(|e| RuntimeError::Protocol(e.to_string()))?,
        ),
        Ok(m) => return Err(RuntimeError::Protocol(format!("expected topology, got {m:?}"))),
        Err(e) => return Err(wire_io("reading topology", e)),
    };
    let _ = control.set_read_timeout(None);

    // Control reader: Bye → graceful stop; EOF → orphaned (the master
    // process died — stop too, but say so).
    let stop = Arc::new(AtomicBool::new(false));
    let orphaned = Arc::new(AtomicBool::new(false));
    let mut reader = control.try_clone().map_err(|e| wire_io("cloning control stream", e))?;
    {
        let (stop, orphaned) = (stop.clone(), orphaned.clone());
        std::thread::spawn(move || loop {
            match read_wire_msg(&mut reader) {
                Ok(WireMsg::Bye) => {
                    stop.store(true, Ordering::Release);
                    return;
                }
                Ok(_) => {}
                Err(_) => {
                    orphaned.store(true, Ordering::Release);
                    stop.store(true, Ordering::Release);
                    return;
                }
            }
        });
    }
    let control_w = Arc::new(Mutex::new(control));

    // This process's hub: its stage recorder, link `s`'s rx side and
    // link `s + 1`'s tx side, all reported to the master at the end.
    // Counters only — a stage process lives as long as its fleet, and
    // nothing here could export a span.
    let telemetry = Telemetry::counters_only(n_stages, clock.clone());
    let injector = WireFaultInjector::new(&cfg.wire_faults, s);
    let mut ctx = WorkerCtx::new(
        &checkpoint.cfg,
        s,
        sp,
        n_seqs,
        cfg.tick,
        clock.clone(),
        telemetry.clone(),
    );
    // Live-swap support: a stage process cannot know whether its master
    // will propose a plan, so it keeps the checkpoint it was started
    // with (shared, not copied) to requantize its shard from.
    ctx.migration = Some(Arc::new(MigrationHost::new(checkpoint, cfg.rounding, cfg.seed)));

    let mut attempts_served = 0usize;
    while !stop.load(Ordering::Acquire) {
        // One data connection per attempt.
        let Some(mut up) = accept_until_stopped(&listener, clock.as_ref(), &stop) else { break };
        let _ = up.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
        let hello = match read_wire_msg(&mut up) {
            Ok(WireMsg::Hello(h)) => h,
            _ => continue, // stray/dead dial; keep serving
        };
        let refusal = if hello.version != WIRE_VERSION {
            Some("wire version mismatch".to_string())
        } else if hello.role != Role::Data {
            Some(format!("unexpected role {:?} on a data listener", hello.role))
        } else if hello.stage as usize != s {
            Some(format!("data connection for stage {} reached stage {s}", hello.stage))
        } else if hello.plan_hash != fp {
            Some("plan hash mismatch".to_string())
        } else {
            None
        };
        let ack = HelloAck {
            version: WIRE_VERSION,
            plan_hash: fp,
            accepted: refusal.is_none(),
            reason: refusal.clone().unwrap_or_default(),
        };
        if write_wire_msg(&mut up, &WireMsg::HelloAck(ack)).is_err() || refusal.is_some() {
            continue;
        }

        // Dial the next hop; its stage may also still be tearing down.
        // Jitter seed mixes stage and attempt so concurrent redials
        // decorrelate while staying reproducible.
        let Ok(mut down) = connect_retry(
            &next_addr,
            40,
            Duration::from_millis(10),
            2.0,
            Duration::from_millis(250),
            ((s as u64) << 32) | hello.attempt as u64,
        ) else {
            continue; // dropping `up` tells upstream this attempt is dead
        };
        let _ = down.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
        let fwd = Hello {
            version: WIRE_VERSION,
            role: next_role,
            stage: (s + 1) as u32,
            attempt: hello.attempt,
            plan_hash: fp,
            listen_addr: String::new(),
            bits: Vec::new(),
        };
        if write_wire_msg(&mut down, &WireMsg::Hello(fwd)).is_err() {
            continue;
        }
        match read_wire_msg(&mut down) {
            Ok(WireMsg::HelloAck(a)) if a.accepted => {}
            _ => continue,
        }

        let transport = TcpTransport::spawn(
            up,
            down,
            TcpTransportConfig {
                faults: Some(injector.clone()),
                telemetry: telemetry.clone(),
                rx_link: s,
                tx_link: s + 1,
                tid: s + 1,
                clock: clock.clone(),
            },
        )
        .with_control(control_w.clone(), s as u32, HEARTBEAT_WIRE_INTERVAL);
        run_worker_transport(&weights, &ctx, &transport);
        attempts_served += 1;

        // Dropped-item attribution across the process boundary: the wire
        // analog of the in-process disconnect board.
        let drops: Vec<usize> = std::mem::take(&mut *ctx.disconnects.lock());
        if !drops.is_empty() {
            let _ = write_wire_msg(&mut *control_w.lock(), &WireMsg::Dropped { stage: s as u32 });
        }
        // `transport` drops here: the downstream connection closes, so
        // the EOF keeps cascading even if this stage saw it first.
    }

    let metrics = telemetry.stage(s).map(|r| r.snapshot()).unwrap_or_default();
    let rx_link = telemetry.link(s).map(|l| l.snapshot()).unwrap_or_default();
    let tx_link = telemetry.link(s + 1).map(|l| l.snapshot()).unwrap_or_default();
    if orphaned.load(Ordering::Acquire) {
        return Err(RuntimeError::WorkerDied(format!(
            "stage {s}: master control connection lost"
        )));
    }
    let report =
        StageReport { stage: s as u32, metrics, rx_link, tx_link };
    let _ = write_wire_msg(&mut *control_w.lock(), &WireMsg::Report(report));
    let _ = control_w.lock().shutdown(Shutdown::Both);
    Ok(StageSummary { attempts_served, metrics, rx_link, tx_link })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Pipeline;
    use llm_pq::StagePlan;
    use llmpq_model::RefConfig;
    use llmpq_quant::Bitwidth;
    use llmpq_workload::MicrobatchPlan;

    fn model() -> RefModel {
        RefModel::new(RefConfig::tiny())
    }

    fn plan3() -> ExecutionPlan {
        ExecutionPlan {
            model: "tiny".into(),
            cluster: "test".into(),
            stages: vec![
                StagePlan { device: 0, layer_start: 0, layer_end: 1, bits: vec![Bitwidth::Int8] },
                StagePlan { device: 1, layer_start: 1, layer_end: 2, bits: vec![Bitwidth::Fp16] },
            ],
            microbatch: MicrobatchPlan {
                prefill_size: 2,
                prefill_count: 1,
                decode_size: 2,
                decode_count: 1,
            },
            scheme: "LLM-PQ".into(),
            kv_bits: 16,
        }
    }

    fn spawn_stages(
        plan: &ExecutionPlan,
        master_addr: &str,
        n_seqs: usize,
        wire_faults: &WireFaultPlan,
    ) -> Vec<std::thread::JoinHandle<Result<StageSummary, RuntimeError>>> {
        (0..plan.stages.len())
            .map(|s| {
                let plan = plan.clone();
                let cfg = DistStageConfig {
                    stage: s,
                    listen: "127.0.0.1:0".into(),
                    master: master_addr.to_string(),
                    rounding: Rounding::Deterministic,
                    seed: 0,
                    wire_faults: wire_faults.clone(),
                    tick: Duration::from_millis(2),
                };
                std::thread::spawn(move || run_stage(Arc::new(model()), &plan, n_seqs, &cfg))
            })
            .collect()
    }

    /// Collect a stage fleet on `listener` and generate over it.
    fn run_over_tcp(
        plan: &ExecutionPlan,
        prompts: &[Vec<usize>],
        n_generate: usize,
        listener: TcpListener,
        cfg: &DistMasterConfig,
    ) -> Result<crate::RuntimeOutput, RuntimeError> {
        let mut ring = TcpServingRing::establish(plan, listener, cfg)?;
        Pipeline::new(&model(), plan).run_on(&mut ring, prompts, n_generate)
    }

    #[test]
    fn distributed_loopback_matches_in_process_tokens() {
        let plan = plan3();
        let prompts = vec![vec![1, 2, 3], vec![9, 8]];
        let n_generate = 5;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stages = spawn_stages(&plan, &addr, prompts.len(), &WireFaultPlan::none());
        let telemetry = Telemetry::new(plan.stages.len());
        let cfg = DistMasterConfig { telemetry: Some(telemetry.clone()), ..Default::default() };
        let out = run_over_tcp(&plan, &prompts, n_generate, listener, &cfg).expect("distributed run");
        let local = Pipeline::new(&model(), &plan)
            .run(&prompts, n_generate)
            .expect("in-process run");
        assert_eq!(out.tokens, local.tokens, "must be bit-identical to the in-process engine");
        assert_eq!(out.restarts, 0);
        // Both sides of every link were accounted: the master counted
        // link 0 tx + link n rx itself, the stage reports filled the rest.
        for (i, l) in telemetry.link_stats().iter().enumerate() {
            assert!(l.bytes_tx > 0, "link {i} tx never counted: {l:?}");
            assert!(l.bytes_rx > 0, "link {i} rx never counted: {l:?}");
        }
        // Stage metrics made it across the wire, into the hub and out.
        for (i, m) in out.stage_metrics.iter().enumerate() {
            assert!(m.items > 0, "stage {i} reported no items");
            assert_eq!(*m, telemetry.stage(i).unwrap().snapshot(), "stage {i}");
        }
        assert_eq!(out.stage_metrics.len(), plan.stages.len());
        for h in stages {
            let summary = h.join().unwrap().expect("stage exits cleanly");
            assert_eq!(summary.attempts_served, 1);
        }
    }

    #[test]
    fn injected_disconnect_recovers_with_identical_tokens() {
        let plan = plan3();
        let prompts = vec![vec![4, 5, 6], vec![7, 8]];
        let n_generate = 6;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Stage 0's downstream link dies after 4 data frames, mid-run.
        let faults = WireFaultPlan::disconnect_tx(0, 4);
        let stages = spawn_stages(&plan, &addr, prompts.len(), &faults);
        let out = run_over_tcp(&plan, &prompts, n_generate, listener, &DistMasterConfig::default())
            .expect("recovers from the injected drop");
        assert_eq!(out.restarts, 1, "exactly one restart");
        let local = Pipeline::new(&model(), &plan).run(&prompts, n_generate).unwrap();
        assert_eq!(out.tokens, local.tokens, "recovery must not perturb tokens");
        for h in stages {
            let summary = h.join().unwrap().expect("stage exits cleanly");
            assert!(summary.attempts_served >= 1);
        }
    }

    #[test]
    fn plan_mismatch_is_refused_at_handshake() {
        let plan = plan3();
        let mut other = plan.clone();
        other.stages[0].bits = vec![Bitwidth::Int4]; // different quant config
        let prompts = vec![vec![1, 2]];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Stage 0 runs the *other* plan.
        let handles: Vec<_> = vec![{
            let cfg = DistStageConfig {
                stage: 0,
                listen: "127.0.0.1:0".into(),
                master: addr.clone(),
                rounding: Rounding::Deterministic,
                seed: 0,
                wire_faults: WireFaultPlan::none(),
                tick: Duration::from_millis(2),
            };
            std::thread::spawn(move || run_stage(Arc::new(model()), &other, 1, &cfg))
        }];
        let res = run_over_tcp(&plan, &prompts, 3, listener, &DistMasterConfig::default());
        assert!(matches!(res, Err(RuntimeError::BadPlan(_))), "{res:?}");
        for h in handles {
            let res = h.join().unwrap();
            assert!(matches!(res, Err(RuntimeError::BadPlan(_))), "{res:?}");
        }
    }

    #[test]
    fn a_tcp_fleet_refuses_any_plan_but_its_boot_plan() {
        let plan = plan3();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stages = spawn_stages(&plan, &addr, 1, &WireFaultPlan::none());
        let mut ring = TcpServingRing::establish(&plan, listener, &DistMasterConfig::default())
            .expect("fleet checks in");
        assert_eq!(ring.retarget(&plan), Ok(()));
        let mut other = plan.clone();
        other.stages[0].bits = vec![Bitwidth::Int4];
        let res = ring.retarget(&other);
        assert!(matches!(res, Err(RuntimeError::BadPlan(ref e)) if e.contains("started with")), "{res:?}");
        // The in-process ring's settings are the fleet's own here.
        let m = model();
        let quantized = Pipeline::new(&m, &plan).quantizer(Rounding::Deterministic, 0);
        let res = quantized.run_on(&mut ring, &[vec![1, 2]], 3);
        assert!(matches!(res, Err(RuntimeError::BadPlan(ref e)) if e.contains("quantizer")), "{res:?}");
        let out = Pipeline::new(&m, &plan).run_on(&mut ring, &[vec![1, 2]], 3).expect("runs");
        assert_eq!(out.tokens.len(), 1);
        for h in stages {
            h.join().unwrap().expect("stage exits cleanly");
        }
    }
}
