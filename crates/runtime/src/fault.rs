//! Seeded, deterministic fault injection for the pipeline runtime.
//!
//! The paper motivates the on-the-fly quantizing loader partly as a
//! *recovery* mechanism (§5: it "improves recovery speed"); this module
//! supplies the other half of that story — a reproducible way to make
//! things fail. A [`FaultPlan`] schedules faults at `(stage, step)`
//! points: worker crashes, hung (not dead) stages, straggler slowdowns,
//! dropped or duplicated channel messages, and permanent device loss.
//! Every event fires at most once (one-shot consumption), so a restarted
//! attempt does not trip over the same transient fault again — except
//! for [`FaultKind::DeviceLoss`], which is permanent by definition: any
//! later attempt whose plan still maps a stage onto the lost device is
//! killed immediately, which is what forces the supervisor to *replan*.
//!
//! Plans serialize to JSON (`llmpq-dist --fault-plan faults.json`) and
//! can be generated from a seed for property tests.

use crate::clock::{real_clock, Clock};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The stage worker dies, dropping its channels (process crash).
    Crash,
    /// The stage worker stops processing *and* stops heartbeating but
    /// keeps its channels open — detectable only by heartbeat timeout,
    /// never by disconnect.
    Hang,
    /// The stage becomes a straggler: every subsequent item takes
    /// `factor ×` its compute time for the rest of the attempt.
    Slowdown {
        /// Latency multiplier (≥ 1.0).
        factor: f64,
    },
    /// The work item is lost in transit: neither processed nor
    /// forwarded. The pipeline stalls until the supervisor notices the
    /// lack of progress.
    DropMessage,
    /// The work item is forwarded twice; downstream must deduplicate or
    /// its KV caches corrupt.
    DuplicateMessage,
    /// The stage's device is lost permanently: this attempt crashes and
    /// every future attempt placing work on the device crashes at step
    /// 0, until the plan stops using it.
    DeviceLoss,
}

/// One scheduled fault: fires when `stage` is about to process its
/// `step`-th work item (stage-local ordinal, counted from 0).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Pipeline stage index the fault targets.
    pub stage: usize,
    /// Stage-local work-item ordinal at which the fault fires.
    pub step: usize,
    /// Restrict the fault to one attempt (`None` = first attempt that
    /// reaches the step).
    #[serde(default)]
    pub attempt: Option<usize>,
    /// The failure mode.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults for one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults, each consumed at most once.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Single crash of `stage` when it reaches item `step` — the
    /// replacement for the old `fail_stage_after: Option<(stage, k)>`
    /// tuple.
    pub fn crash(stage: usize, step: usize) -> Self {
        Self { events: vec![FaultEvent { stage, step, attempt: None, kind: FaultKind::Crash }] }
    }

    /// One crash per attempt: `schedule[k]` crashes that stage/step on
    /// attempt `k` — the replacement for the old `fail_schedule` slice.
    pub fn crash_schedule(schedule: &[(usize, usize)]) -> Self {
        Self {
            events: schedule
                .iter()
                .enumerate()
                .map(|(k, &(stage, step))| FaultEvent {
                    stage,
                    step,
                    attempt: Some(k),
                    kind: FaultKind::Crash,
                })
                .collect(),
        }
    }

    /// Permanent loss of the device hosting `stage`, at item `step`.
    pub fn device_loss(stage: usize, step: usize) -> Self {
        Self { events: vec![FaultEvent { stage, step, attempt: None, kind: FaultKind::DeviceLoss }] }
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Structural check against a pipeline with `n_stages` stages.
    pub fn validate(&self, n_stages: usize) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            if e.stage >= n_stages {
                return Err(format!("fault event {i} targets stage {} of {n_stages}", e.stage));
            }
            if let FaultKind::Slowdown { factor } = e.kind {
                if factor < 1.0 || factor.is_nan() {
                    return Err(format!("fault event {i}: slowdown factor {factor} < 1"));
                }
            }
        }
        Ok(())
    }

    /// A bounded, seeded random plan (property-test generator): up to
    /// `max_events` events over `n_stages` stages and `max_steps` steps.
    /// The same seed always yields the same plan.
    pub fn random(seed: u64, n_stages: usize, max_steps: usize, max_events: usize) -> Self {
        assert!(n_stages > 0 && max_steps > 0);
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || crate::splitmix64(&mut state);
        let n = (next() as usize) % (max_events + 1);
        let events = (0..n)
            .map(|_| {
                let stage = (next() as usize) % n_stages;
                let step = (next() as usize) % max_steps;
                let kind = match next() % 5 {
                    0 => FaultKind::Crash,
                    1 => FaultKind::Slowdown { factor: 1.0 + (next() % 4) as f64 },
                    2 => FaultKind::DropMessage,
                    3 => FaultKind::DuplicateMessage,
                    _ => FaultKind::DeviceLoss,
                };
                FaultEvent { stage, step, attempt: None, kind }
            })
            .collect();
        Self { events }
    }

    /// Serialize to the `--fault-plan` JSON format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fault plans are serializable")
    }

    /// Parse a `--fault-plan` file.
    pub fn from_json(s: &str) -> Result<FaultPlan, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

/// What a worker must do with the work item it is about to process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Business as usual.
    None,
    /// Die now, dropping channels without draining.
    Crash,
    /// Stop processing and heartbeating; keep channels open until the
    /// run aborts.
    Hang,
    /// Process, but multiply compute time by the factor from here on.
    Slowdown(f64),
    /// Lose the item: do not process, do not forward.
    Drop,
    /// Process once, forward twice.
    Duplicate,
}

/// Shared fault-injection state for one supervised run: consumes plan
/// events, tracks permanently lost devices, and carries the abort flag
/// that un-wedges hung workers at attempt teardown.
///
/// `lost_devices` doubles as the simulated cluster-health view: in a
/// real deployment the cluster manager reports unreachable devices; here
/// the supervisor reads them from the injector.
#[derive(Debug)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    consumed: Vec<AtomicBool>,
    lost: Mutex<Vec<usize>>,
    abort: AtomicBool,
    attempt: AtomicUsize,
}

impl FaultInjector {
    /// Injector over a plan (validated by the caller).
    pub fn new(plan: &FaultPlan) -> Arc<Self> {
        Arc::new(Self {
            consumed: plan.events.iter().map(|_| AtomicBool::new(false)).collect(),
            events: plan.events.clone(),
            lost: Mutex::new(Vec::new()),
            abort: AtomicBool::new(false),
            attempt: AtomicUsize::new(0),
        })
    }

    /// Reset per-attempt state (abort flag) and record the attempt
    /// number events may filter on.
    pub fn begin_attempt(&self, attempt: usize) {
        self.attempt.store(attempt, Ordering::SeqCst);
        self.abort.store(false, Ordering::SeqCst);
    }

    /// Signal every worker (including hung ones) to exit.
    pub fn set_abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
    }

    /// Whether the current attempt is being torn down.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Devices reported permanently lost so far.
    pub fn lost_devices(&self) -> Vec<usize> {
        self.lost.lock().clone()
    }

    /// Whether `device` has been lost.
    pub fn device_is_lost(&self, device: usize) -> bool {
        self.lost.lock().contains(&device)
    }

    /// Decide the fate of the item `stage` (running on `device`) is
    /// about to process as its `step`-th of this attempt. Matching
    /// events are consumed exactly once.
    pub fn on_item(&self, stage: usize, device: usize, step: usize) -> FaultAction {
        if self.device_is_lost(device) {
            return FaultAction::Crash;
        }
        let attempt = self.attempt.load(Ordering::SeqCst);
        for (i, e) in self.events.iter().enumerate() {
            if e.stage != stage || e.step != step {
                continue;
            }
            if let Some(a) = e.attempt {
                if a != attempt {
                    continue;
                }
            }
            if self.consumed[i].swap(true, Ordering::SeqCst) {
                continue;
            }
            return match e.kind {
                FaultKind::Crash => FaultAction::Crash,
                FaultKind::Hang => FaultAction::Hang,
                FaultKind::Slowdown { factor } => FaultAction::Slowdown(factor),
                FaultKind::DropMessage => FaultAction::Drop,
                FaultKind::DuplicateMessage => FaultAction::Duplicate,
                FaultKind::DeviceLoss => {
                    let mut lost = self.lost.lock();
                    if !lost.contains(&device) {
                        lost.push(device);
                    }
                    FaultAction::Crash
                }
            };
        }
        FaultAction::None
    }
}

/// Per-stage liveness signals: each worker stamps its slot on every
/// channel tick and after every processed item; the supervisor flags a
/// stage whose stamp goes stale. This detects *hung* stages — a dead
/// one already shows up as a channel disconnect.
///
/// Staleness is measured against a [`Clock`], so the same board works
/// on wall-clock time (production) and on the virtual timeline of the
/// deterministic simulation harness ([`crate::simnet`]).
pub struct Heartbeats {
    clock: Arc<dyn Clock>,
    beats: Vec<AtomicU64>,
}

impl std::fmt::Debug for Heartbeats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heartbeats").field("stages", &self.beats.len()).finish()
    }
}

impl Heartbeats {
    /// Fresh heartbeat board for `n_stages` stages; every stage counts
    /// as live at creation time. Ages are wall-clock.
    pub fn new(n_stages: usize) -> Arc<Self> {
        Self::with_clock(n_stages, real_clock())
    }

    /// Heartbeat board reading time from `clock` (the simulation
    /// harness passes a virtual clock here).
    pub fn with_clock(n_stages: usize, clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(Self { clock, beats: (0..n_stages).map(|_| AtomicU64::new(0)).collect() })
    }

    /// Record that `stage` is alive now.
    pub fn beat(&self, stage: usize) {
        if let Some(b) = self.beats.get(stage) {
            b.store(self.clock.now_us(), Ordering::Relaxed);
        }
    }

    /// Time since `stage` last beat.
    pub fn age(&self, stage: usize) -> Duration {
        let last = self.beats.get(stage).map_or(0, |b| b.load(Ordering::Relaxed));
        self.clock.now().saturating_sub(Duration::from_micros(last))
    }

    /// Index of the stalest stage exceeding `timeout`, if any.
    pub fn stalest_over(&self, timeout: Duration) -> Option<usize> {
        (0..self.beats.len())
            .map(|s| (s, self.age(s)))
            .filter(|(_, a)| *a > timeout)
            .max_by_key(|(_, a)| *a)
            .map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_once() {
        let plan = FaultPlan::crash(1, 2);
        let inj = FaultInjector::new(&plan);
        inj.begin_attempt(0);
        assert_eq!(inj.on_item(1, 9, 0), FaultAction::None);
        assert_eq!(inj.on_item(0, 8, 2), FaultAction::None, "wrong stage");
        assert_eq!(inj.on_item(1, 9, 2), FaultAction::Crash);
        inj.begin_attempt(1);
        assert_eq!(inj.on_item(1, 9, 2), FaultAction::None, "consumed");
    }

    #[test]
    fn attempt_filter_respected() {
        let plan = FaultPlan::crash_schedule(&[(0, 1), (1, 3)]);
        let inj = FaultInjector::new(&plan);
        inj.begin_attempt(0);
        assert_eq!(inj.on_item(1, 5, 3), FaultAction::None, "attempt-1 event");
        assert_eq!(inj.on_item(0, 4, 1), FaultAction::Crash);
        inj.begin_attempt(1);
        assert_eq!(inj.on_item(1, 5, 3), FaultAction::Crash);
    }

    #[test]
    fn device_loss_is_permanent() {
        let plan = FaultPlan::device_loss(0, 1);
        let inj = FaultInjector::new(&plan);
        inj.begin_attempt(0);
        assert_eq!(inj.on_item(0, 7, 1), FaultAction::Crash);
        assert_eq!(inj.lost_devices(), vec![7]);
        inj.begin_attempt(1);
        // Same device, any step: still dead. Another device: fine.
        assert_eq!(inj.on_item(0, 7, 0), FaultAction::Crash);
        assert_eq!(inj.on_item(0, 3, 0), FaultAction::None);
    }

    #[test]
    fn json_round_trip() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent { stage: 0, step: 3, attempt: Some(1), kind: FaultKind::Slowdown { factor: 2.5 } },
                FaultEvent { stage: 2, step: 0, attempt: None, kind: FaultKind::DuplicateMessage },
                FaultEvent { stage: 1, step: 5, attempt: None, kind: FaultKind::DeviceLoss },
            ],
        };
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn validate_rejects_bad_events() {
        assert!(FaultPlan::crash(3, 0).validate(2).is_err());
        let bad = FaultPlan {
            events: vec![FaultEvent { stage: 0, step: 0, attempt: None, kind: FaultKind::Slowdown { factor: 0.5 } }],
        };
        assert!(bad.validate(1).is_err());
        assert!(FaultPlan::crash(1, 0).validate(2).is_ok());
    }

    #[test]
    fn random_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::random(42, 3, 8, 5);
        let b = FaultPlan::random(42, 3, 8, 5);
        assert_eq!(a, b);
        assert!(a.events.len() <= 5);
        a.validate(3).unwrap();
        for e in &a.events {
            assert!(e.stage < 3 && e.step < 8);
        }
        // Different seeds should (eventually) differ.
        assert!((0..20).any(|s| FaultPlan::random(s, 3, 8, 5) != a));
    }

    #[test]
    fn heartbeats_age_and_reset() {
        let hb = Heartbeats::new(2);
        std::thread::sleep(Duration::from_millis(5));
        hb.beat(0);
        assert!(hb.age(0) < hb.age(1));
        assert_eq!(hb.stalest_over(Duration::from_millis(2)), Some(1));
        assert_eq!(hb.stalest_over(Duration::from_secs(60)), None);
    }
}
