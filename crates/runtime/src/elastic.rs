//! Elastic fleet control: an autoscaling loop that watches cluster
//! membership (device join / leave / degrade), decides *whether and
//! when* to replan through a [`DebouncedPolicy`], and applies the
//! new plan through the two-phase live-migration barrier
//! ([`crate::migrate`]) — scale-out and scale-in without a restart.
//!
//! The [`FleetController`] is a synchronous state machine so the same
//! code runs under the deterministic simulation harness
//! ([`crate::simnet`] `--elastic` mode), the root `tests/elastic.rs`
//! integration scenarios and a real supervised deployment:
//!
//! ```text
//!          fleet event                debounce/cooldown pass
//!  Idle ──────────────▶ Debouncing ─────────────────────▶ Planning
//!    ▲                      │  flap suppressed                │ planner Ok
//!    │◀─────────────────────┘  (alarm, hold old plan)         ▼
//!    │   abort (alarm) ◀──────────────────────────────── Migrating
//!    │◀─ Cooldown ◀── commit ────────────────────────────────┘
//! ```
//!
//! * **Debouncing** batches near-simultaneous deltas (a rack powering
//!   on delivers N joins in one replan, not N migrations).
//! * **Cooldown + hysteresis** defend against flapping: a device that
//!   keeps toggling join/leave inside the flap window is quarantined —
//!   its events stop triggering replans (counted in
//!   [`FleetAlarms::flap_suppressed`]) until it holds still.
//! * **Planning** is delegated to an [`ElasticPlanner`]. What is
//!   wired in today is structural: [`EvenSplitPlanner`] (simulation)
//!   and a test planner in `tests/elastic.rs`; an Algorithm-1
//!   planner (`llm_pq::IncrementalPlanner`, which warm-starts across
//!   membership deltas) fits the trait but no binary injects one yet —
//!   its caller today is `llmpq-dist`'s device-loss replanner, behind
//!   `supervisor::Replanner`. A planner failure is *typed*
//!   ([`PlanFailure`]): the controller holds the old, still-serving
//!   plan and raises [`FleetAlarms::infeasible_fleet`] — it never
//!   panics and never commits a plan referencing a dead device.
//! * **Migrating** hands the target plan to the driver, which runs the
//!   §14 prepare/commit barrier. A device lost mid-migration makes the
//!   controller emit [`ControllerCommand::AbortMigration`]; the old
//!   plan keeps serving and the loss joins the next debounce batch.

use llm_pq::ExecutionPlan;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// One observed change in cluster membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetEventKind {
    /// A device became available for placement.
    Join,
    /// A device left (graceful drain or permanent failure — the
    /// controller treats both as "not placeable").
    Leave,
    /// A device is still alive but running at reduced capability
    /// (thermal throttle, ECC degradation): replan, don't evict.
    Degrade,
}

/// A membership event, stamped with the (virtual or wall) time it was
/// observed at, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetEvent {
    /// Stable cluster device id.
    pub device: usize,
    /// What happened.
    pub kind: FleetEventKind,
    /// Observation time, µs.
    pub at_us: u64,
}

/// Typed planner failure. The controller maps every variant to
/// "hold the old plan + raise an alarm"; the variants exist so
/// telemetry and operators can tell *why* the fleet can't be replanned.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanFailure {
    /// No live devices remain.
    NoDevices,
    /// The survivors cannot hold the model even at the lowest
    /// quantization rung.
    Infeasible {
        /// Live devices the planner had to work with.
        devices: usize,
        /// Solver/heuristic diagnostics.
        reason: String,
    },
    /// Any other planner error (bad config, internal failure).
    Other(String),
}

impl std::fmt::Display for PlanFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanFailure::NoDevices => write!(f, "no live devices to plan on"),
            PlanFailure::Infeasible { devices, reason } => {
                write!(f, "infeasible on {devices} device(s): {reason}")
            }
            PlanFailure::Other(e) => write!(f, "planner error: {e}"),
        }
    }
}

/// The controller's view of the fleet, handed to the planner.
#[derive(Debug)]
pub struct FleetView<'a> {
    /// Devices currently placeable.
    pub live: &'a BTreeSet<usize>,
    /// Subset of `live` running degraded.
    pub degraded: &'a BTreeSet<usize>,
    /// The committed plan still serving.
    pub current: &'a ExecutionPlan,
}

/// Produces an execution plan for the current fleet. The structural
/// [`EvenSplitPlanner`] (no cost model, used by the simulation) is the
/// implementation wired in today; the trait is where an Algorithm-1
/// planner (`llm_pq::IncrementalPlanner` plus the cost database and
/// indicator it needs, which the controller does not carry) plugs in.
pub trait ElasticPlanner {
    /// Plan onto exactly the live devices in `view`. The returned
    /// plan's device ids must be a subset of `view.live` — the
    /// controller re-checks and refuses to migrate otherwise.
    fn plan(&mut self, view: &FleetView<'_>) -> Result<ExecutionPlan, PlanFailure>;
}

/// What the policy wants done with the pending delta batch.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PolicyVerdict {
    /// Not yet (debouncing or cooling down) — re-ask on a later tick.
    Wait,
    /// The batch is stable and out of cooldown: plan now.
    Replan,
    /// `device` is flapping: drop its pending events, re-examine the
    /// fleet at `recheck_us` if nothing else triggers first.
    Suppress {
        /// The quarantined device.
        device: usize,
        /// When its quarantine window expires, µs.
        recheck_us: u64,
    },
}

/// Decides *when* a batch of membership deltas becomes a replan:
/// debounce + cooldown + per-device flap hysteresis. Stateful: sees
/// every event, is told about commits (for cooldown), and is polled by
/// the controller's `tick`.
#[derive(Debug, Clone)]
pub struct DebouncedPolicy {
    /// Quiet period after the *last* event before planning — batches
    /// near-simultaneous deltas into one replan.
    pub debounce_us: u64,
    /// Minimum spacing after a committed replan before the next one.
    pub cooldown_us: u64,
    /// Sliding window for flap detection.
    pub flap_window_us: u64,
    /// Join/leave toggles within the window that quarantine a device.
    pub flap_max_toggles: u32,
    last_event_us: u64,
    /// End of the current cooldown window, µs (0 = not cooling down).
    cooldown_until_us: u64,
    toggles: HashMap<usize, VecDeque<u64>>,
}

impl DebouncedPolicy {
    /// Policy with the given windows (all µs).
    pub fn new(debounce_us: u64, cooldown_us: u64, flap_window_us: u64, flap_max_toggles: u32) -> Self {
        Self {
            debounce_us,
            cooldown_us,
            flap_window_us,
            flap_max_toggles,
            last_event_us: 0,
            cooldown_until_us: 0,
            toggles: HashMap::new(),
        }
    }

    fn flapping(&self, device: usize, now_us: u64) -> Option<u64> {
        let t = self.toggles.get(&device)?;
        let cutoff = now_us.saturating_sub(self.flap_window_us);
        let recent = t.iter().filter(|&&at| at >= cutoff).count() as u32;
        if recent >= self.flap_max_toggles {
            // Quarantine until the window has slid past the latest toggle.
            t.back().map(|&last| last + self.flap_window_us)
        } else {
            None
        }
    }

    /// Observe one membership event (called before `decide`).
    fn observe(&mut self, ev: &FleetEvent) {
        self.last_event_us = self.last_event_us.max(ev.at_us);
        if matches!(ev.kind, FleetEventKind::Join | FleetEventKind::Leave) {
            let t = self.toggles.entry(ev.device).or_default();
            t.push_back(ev.at_us);
            while t.len() > 16 {
                t.pop_front();
            }
        }
    }

    /// Decide what to do with the currently pending events.
    fn decide(&mut self, pending: &[FleetEvent], now_us: u64) -> PolicyVerdict {
        // Hysteresis first: a flapping device must not hold the whole
        // fleet hostage — suppress it, then re-decide on the rest.
        for ev in pending {
            if let Some(recheck_us) = self.flapping(ev.device, now_us) {
                return PolicyVerdict::Suppress { device: ev.device, recheck_us };
            }
        }
        let gate = (self.last_event_us + self.debounce_us).max(self.cooldown_until_us);
        if now_us < gate {
            PolicyVerdict::Wait
        } else {
            PolicyVerdict::Replan
        }
    }

    /// A replan committed: start the cooldown clock.
    fn note_committed(&mut self, now_us: u64) {
        self.cooldown_until_us = now_us + self.cooldown_us;
    }
}

/// Fleet-health alarm counters — the operator-facing signal that the
/// control loop is holding the old plan instead of migrating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetAlarms {
    /// Replans refused because the survivors cannot hold the model even
    /// at the lowest rung (typed [`PlanFailure::Infeasible`] /
    /// [`PlanFailure::NoDevices`]); the old plan stays in force.
    pub infeasible_fleet: u64,
    /// Migrations aborted back to the still-serving old plan (device
    /// lost mid-barrier, or the driver reported a barrier failure).
    pub aborted_migrations: u64,
    /// Pending events dropped because their device was flapping.
    pub flap_suppressed: u64,
    /// Planner errors that were neither infeasibility nor emptiness.
    pub planner_errors: u64,
}

/// Where the controller is in its replan lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControllerState {
    /// No pending membership deltas.
    Idle,
    /// Deltas pending; the policy hasn't released them yet.
    Debouncing,
    /// Planner running (transient: `tick` enters and leaves it in one
    /// call, but the state is distinct so drivers and the decision log
    /// can observe it).
    Planning,
    /// A target plan is in the two-phase barrier; awaiting
    /// [`FleetController::migration_resolved`].
    Migrating,
    /// A replan just committed; the policy's cooldown gates the next.
    Cooldown,
}

/// An instruction to the driver that owns the data plane.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerCommand {
    /// Run the two-phase migration barrier to `target`; report the
    /// outcome via [`FleetController::migration_resolved`].
    BeginMigration {
        /// The plan to migrate to (devices ⊆ live set).
        target: ExecutionPlan,
    },
    /// Abort the in-flight migration (a device it needed was lost);
    /// the driver must resolve with `committed = false`.
    AbortMigration {
        /// The device whose loss poisoned the barrier.
        device: usize,
    },
}

/// The autoscaling control loop (module docs above). Drive it with
/// [`on_event`](Self::on_event) as membership changes arrive and
/// [`tick`](Self::tick) on a timer; execute the returned
/// [`ControllerCommand`]s against the data plane and report migration
/// outcomes back via [`migration_resolved`](Self::migration_resolved).
pub struct FleetController {
    planner: Box<dyn ElasticPlanner>,
    policy: DebouncedPolicy,
    live: BTreeSet<usize>,
    degraded: BTreeSet<usize>,
    plan: ExecutionPlan,
    state: ControllerState,
    pending: Vec<FleetEvent>,
    inflight: Option<ExecutionPlan>,
    alarms: FleetAlarms,
    commits: u64,
    /// Live set snapshot at the moment each plan committed — the
    /// elasticity invariant ("committed plans reference only live
    /// devices") is checked against these.
    planned_live: BTreeSet<usize>,
    recheck_at_us: Option<u64>,
    log: Vec<String>,
}

impl FleetController {
    /// Controller serving `initial_plan` on the devices in `live`.
    pub fn new(
        planner: Box<dyn ElasticPlanner>,
        policy: DebouncedPolicy,
        live: impl IntoIterator<Item = usize>,
        initial_plan: ExecutionPlan,
    ) -> Self {
        let live: BTreeSet<usize> = live.into_iter().collect();
        Self {
            planner,
            policy,
            planned_live: live.clone(),
            live,
            degraded: BTreeSet::new(),
            plan: initial_plan,
            state: ControllerState::Idle,
            pending: Vec::new(),
            inflight: None,
            alarms: FleetAlarms::default(),
            commits: 0,
            recheck_at_us: None,
            log: Vec::new(),
        }
    }

    /// The committed plan currently in force.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Devices currently placeable.
    pub fn live(&self) -> &BTreeSet<usize> {
        &self.live
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ControllerState {
        self.state
    }

    /// Fleet-health alarms raised so far.
    pub fn alarms(&self) -> FleetAlarms {
        self.alarms
    }

    /// Replans committed so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Decision log (human-readable, for tests and operator dumps).
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// The elasticity invariant: every device the committed plan uses
    /// was live at commit time *and* is live now.
    pub fn plan_is_live(&self) -> bool {
        self.plan
            .stages
            .iter()
            .all(|s| self.planned_live.contains(&s.device) && self.live.contains(&s.device))
    }

    fn note(&mut self, at_us: u64, msg: String) {
        self.log.push(format!("[{at_us}us] {msg}"));
    }

    /// Feed one membership event. Returns a command when the event
    /// poisons an in-flight migration.
    pub fn on_event(&mut self, ev: FleetEvent) -> Option<ControllerCommand> {
        match ev.kind {
            FleetEventKind::Join => {
                self.live.insert(ev.device);
                self.degraded.remove(&ev.device);
            }
            FleetEventKind::Leave => {
                self.live.remove(&ev.device);
                self.degraded.remove(&ev.device);
            }
            FleetEventKind::Degrade => {
                if self.live.contains(&ev.device) {
                    self.degraded.insert(ev.device);
                }
            }
        }
        self.policy.observe(&ev);
        self.pending.push(ev);
        self.note(ev.at_us, format!("event: {:?} device {}", ev.kind, ev.device));
        if self.state == ControllerState::Migrating {
            if ev.kind == FleetEventKind::Leave {
                let poisoned = self
                    .inflight
                    .as_ref()
                    .is_some_and(|t| t.stages.iter().any(|s| s.device == ev.device))
                    || self.plan.stages.iter().any(|s| s.device == ev.device);
                if poisoned {
                    self.note(
                        ev.at_us,
                        format!("device {} lost mid-migration: aborting the barrier", ev.device),
                    );
                    return Some(ControllerCommand::AbortMigration { device: ev.device });
                }
            }
            return None;
        }
        if matches!(self.state, ControllerState::Idle | ControllerState::Cooldown) {
            self.state = ControllerState::Debouncing;
        }
        None
    }

    /// Poll the policy and, when it releases the pending batch, run the
    /// planner and hand back a migration command. Call on a timer (or
    /// after every event in an event-driven harness).
    pub fn tick(&mut self, now_us: u64) -> Option<ControllerCommand> {
        // A quarantine expired: if membership drifted from what the
        // committed plan was built for, synthesize a recheck so the
        // stabilized device is finally integrated (or routed around).
        if let Some(at) = self.recheck_at_us {
            if now_us >= at
                && matches!(self.state, ControllerState::Idle | ControllerState::Cooldown)
            {
                self.recheck_at_us = None;
                if self.live != self.planned_live {
                    self.note(now_us, "flap quarantine expired with drifted membership: recheck".into());
                    self.state = ControllerState::Debouncing;
                }
            }
        }
        if self.state == ControllerState::Cooldown
            && now_us >= self.policy.cooldown_until_us
        {
            self.state = if self.pending.is_empty() {
                ControllerState::Idle
            } else {
                ControllerState::Debouncing
            };
        }
        if self.state != ControllerState::Debouncing {
            return None;
        }
        loop {
            match self.policy.decide(&self.pending, now_us) {
                PolicyVerdict::Wait => return None,
                PolicyVerdict::Suppress { device, recheck_us } => {
                    let before = self.pending.len();
                    self.pending.retain(|e| e.device != device);
                    self.alarms.flap_suppressed += (before - self.pending.len()) as u64;
                    self.recheck_at_us =
                        Some(self.recheck_at_us.map_or(recheck_us, |r| r.max(recheck_us)));
                    self.note(
                        now_us,
                        format!("device {device} is flapping: suppressed its pending events"),
                    );
                    if self.pending.is_empty() {
                        self.state = ControllerState::Idle;
                        return None;
                    }
                }
                PolicyVerdict::Replan => return self.run_planner(now_us),
            }
        }
    }

    fn run_planner(&mut self, now_us: u64) -> Option<ControllerCommand> {
        self.state = ControllerState::Planning;
        let view = FleetView {
            live: &self.live,
            degraded: &self.degraded,
            current: &self.plan,
        };
        match self.planner.plan(&view) {
            Ok(target) => {
                if !target.stages.iter().all(|s| self.live.contains(&s.device)) {
                    self.alarms.planner_errors += 1;
                    self.note(now_us, "planner returned a plan using a dead device: held old plan".into());
                    self.pending.clear();
                    self.state = ControllerState::Idle;
                    return None;
                }
                self.pending.clear();
                self.inflight = Some(target.clone());
                self.state = ControllerState::Migrating;
                self.note(
                    now_us,
                    format!("planned onto {} device(s): migrating", target.stages.len()),
                );
                Some(ControllerCommand::BeginMigration { target })
            }
            Err(failure) => {
                match &failure {
                    PlanFailure::NoDevices | PlanFailure::Infeasible { .. } => {
                        self.alarms.infeasible_fleet += 1;
                    }
                    PlanFailure::Other(_) => self.alarms.planner_errors += 1,
                }
                self.note(now_us, format!("replan failed ({failure}): holding old plan"));
                self.pending.clear();
                self.state = ControllerState::Idle;
                None
            }
        }
    }

    /// The driver finished (or aborted) the migration barrier.
    /// `committed = true` installs the in-flight target as the plan in
    /// force; `false` keeps the old plan serving and raises the abort
    /// alarm. Either way, deltas that arrived mid-barrier go back into
    /// the debounce batch.
    pub fn migration_resolved(&mut self, committed: bool, now_us: u64) {
        debug_assert_eq!(self.state, ControllerState::Migrating);
        if committed {
            if let Some(target) = self.inflight.take() {
                self.plan = target;
                self.planned_live = self.live.clone();
                self.commits += 1;
                self.policy.note_committed(now_us);
                self.note(now_us, format!("migration committed (replan #{})", self.commits));
            }
            self.state = ControllerState::Cooldown;
        } else {
            self.inflight = None;
            self.alarms.aborted_migrations += 1;
            self.note(now_us, "migration aborted: old plan still serving".into());
            self.state = if self.pending.is_empty() {
                ControllerState::Idle
            } else {
                ControllerState::Debouncing
            };
        }
    }
}

impl std::fmt::Debug for FleetController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetController")
            .field("state", &self.state)
            .field("live", &self.live)
            .field("pending", &self.pending.len())
            .field("commits", &self.commits)
            .field("alarms", &self.alarms)
            .finish_non_exhaustive()
    }
}

/// The runtime's one contiguous even split: `n_layers` over `devices` in
/// order, the first devices taking the larger shares, no device more
/// than `cap(device)` layers, layer `l` on device `d` served at
/// `bits(d, l)`. A device left with nothing gets no stage; layers the
/// caps strand are simply not covered (the last stage's `layer_end`
/// says how far the split got).
pub(crate) fn even_split(
    n_layers: usize,
    devices: &[usize],
    cap: impl Fn(usize) -> usize,
    bits: impl Fn(usize, usize) -> llmpq_quant::Bitwidth,
) -> Vec<llm_pq::StagePlan> {
    let mut stages = Vec::new();
    let mut start = 0usize;
    for (i, &d) in devices.iter().enumerate() {
        let remaining = n_layers - start;
        let take = remaining.div_ceil(devices.len() - i).min(cap(d));
        if take == 0 {
            continue;
        }
        stages.push(llm_pq::StagePlan {
            device: d,
            layer_start: start,
            layer_end: start + take,
            bits: (start..start + take).map(|l| bits(d, l)).collect(),
        });
        start += take;
    }
    stages
}

/// Structural planner for the simulation harness and controller tests:
/// splits `n_layers` evenly across the live devices (in id order),
/// capping each device at [`max_layers_per_device`] layers — degraded
/// devices count half capacity and serve their layers at Int4 instead
/// of Int8. No cost model, deterministic, typed-infeasible when the
/// fleet can't hold the model even with every cap applied.
///
/// [`max_layers_per_device`]: EvenSplitPlanner::max_layers_per_device
#[derive(Debug, Clone)]
pub struct EvenSplitPlanner {
    /// Layers of the (abstract) model being placed.
    pub n_layers: usize,
    /// Lowest-rung capacity of a healthy device, in layers.
    pub max_layers_per_device: usize,
}

impl ElasticPlanner for EvenSplitPlanner {
    fn plan(&mut self, view: &FleetView<'_>) -> Result<ExecutionPlan, PlanFailure> {
        use llmpq_quant::Bitwidth;
        if view.live.is_empty() {
            return Err(PlanFailure::NoDevices);
        }
        let cap_of = |d: usize| {
            if view.degraded.contains(&d) {
                (self.max_layers_per_device / 2).max(1)
            } else {
                self.max_layers_per_device
            }
        };
        let total_cap: usize = view.live.iter().map(|&d| cap_of(d)).sum();
        if total_cap < self.n_layers {
            return Err(PlanFailure::Infeasible {
                devices: view.live.len(),
                reason: format!(
                    "{} layer(s) exceed the fleet's lowest-rung capacity of {total_cap}",
                    self.n_layers
                ),
            });
        }
        let devices: Vec<usize> = view.live.iter().copied().collect();
        let stages = even_split(self.n_layers, &devices, cap_of, |d, _| {
            if view.degraded.contains(&d) {
                Bitwidth::Int4
            } else {
                Bitwidth::Int8
            }
        });
        let remaining = self.n_layers - stages.last().map_or(0, |s| s.layer_end);
        if remaining > 0 {
            // Caps can strand layers when early devices are degraded;
            // a second pass would rebalance, but for the structural
            // planner this is simply infeasible-as-split.
            return Err(PlanFailure::Infeasible {
                devices: view.live.len(),
                reason: format!("{remaining} layer(s) left unplaced by the even split"),
            });
        }
        Ok(ExecutionPlan {
            stages,
            cluster: view.current.cluster.clone(),
            model: view.current.model.clone(),
            microbatch: view.current.microbatch,
            scheme: view.current.scheme.clone(),
            kv_bits: view.current.kv_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_pq::{MicrobatchPlan, StagePlan};
    use llmpq_quant::Bitwidth;

    fn base_plan(devices: &[usize], n_layers: usize) -> ExecutionPlan {
        let per = n_layers / devices.len();
        let rem = n_layers % devices.len();
        let mut stages = Vec::new();
        let mut start = 0usize;
        for (i, &d) in devices.iter().enumerate() {
            let take = per + usize::from(i < rem);
            stages.push(StagePlan {
                device: d,
                layer_start: start,
                layer_end: start + take,
                bits: vec![Bitwidth::Int8; take],
            });
            start += take;
        }
        ExecutionPlan {
            model: "tiny".into(),
            cluster: "elastic".into(),
            stages,
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

    fn controller(devices: &[usize], n_layers: usize) -> FleetController {
        FleetController::new(
            Box::new(EvenSplitPlanner { n_layers, max_layers_per_device: 4 }),
            DebouncedPolicy::new(10_000, 50_000, 200_000, 3),
            devices.iter().copied(),
            base_plan(devices, n_layers),
        )
    }

    fn ev(device: usize, kind: FleetEventKind, at_us: u64) -> FleetEvent {
        FleetEvent { device, kind, at_us }
    }

    #[test]
    fn join_debounces_then_migrates_and_commits() {
        let mut c = controller(&[0, 1], 8);
        assert_eq!(c.state(), ControllerState::Idle);
        assert!(c.on_event(ev(2, FleetEventKind::Join, 1_000)).is_none());
        assert_eq!(c.state(), ControllerState::Debouncing);
        // Inside the debounce window: nothing yet.
        assert!(c.tick(5_000).is_none());
        let cmd = c.tick(12_000).expect("debounce expired");
        let ControllerCommand::BeginMigration { target } = cmd else {
            panic!("expected BeginMigration, got {cmd:?}")
        };
        assert!(target.stages.iter().any(|s| s.device == 2), "scale-out uses the joiner");
        assert_eq!(c.state(), ControllerState::Migrating);
        c.migration_resolved(true, 15_000);
        assert_eq!(c.state(), ControllerState::Cooldown);
        assert_eq!(c.commits(), 1);
        assert!(c.plan_is_live());
        assert!(c.plan().stages.iter().any(|s| s.device == 2));
    }

    #[test]
    fn near_simultaneous_joins_batch_into_one_replan() {
        let mut c = controller(&[0, 1], 8);
        c.on_event(ev(2, FleetEventKind::Join, 1_000));
        c.on_event(ev(3, FleetEventKind::Join, 3_000));
        c.on_event(ev(4, FleetEventKind::Join, 5_000));
        let cmd = c.tick(16_000).expect("one batched replan");
        let ControllerCommand::BeginMigration { target } = cmd else { panic!() };
        let devs: BTreeSet<usize> = target.stages.iter().map(|s| s.device).collect();
        assert!(devs.contains(&2) && devs.contains(&3) && devs.contains(&4));
        c.migration_resolved(true, 20_000);
        assert_eq!(c.commits(), 1, "three deltas, one migration");
        assert!(c.tick(300_000).is_none(), "nothing left to do");
    }

    #[test]
    fn cooldown_defers_the_next_replan() {
        let mut c = controller(&[0, 1], 8);
        c.on_event(ev(2, FleetEventKind::Join, 0));
        let _ = c.tick(11_000).expect("first replan");
        c.migration_resolved(true, 12_000);
        // Immediately another join: the policy must hold it until the
        // 50 ms cooldown from commit has passed.
        c.on_event(ev(3, FleetEventKind::Join, 13_000));
        assert!(c.tick(30_000).is_none(), "still cooling down");
        let cmd = c.tick(63_000).expect("cooldown over");
        assert!(matches!(cmd, ControllerCommand::BeginMigration { .. }));
    }

    #[test]
    fn scale_in_replans_off_the_leaver() {
        let mut c = controller(&[0, 1, 2], 6);
        c.on_event(ev(2, FleetEventKind::Leave, 1_000));
        let cmd = c.tick(20_000).expect("replan");
        let ControllerCommand::BeginMigration { target } = cmd else { panic!() };
        assert!(target.stages.iter().all(|s| s.device != 2));
        c.migration_resolved(true, 25_000);
        assert!(c.plan_is_live());
    }

    #[test]
    fn device_loss_mid_migration_aborts_to_old_plan() {
        let mut c = controller(&[0, 1], 8);
        let old = c.plan().clone();
        c.on_event(ev(2, FleetEventKind::Join, 0));
        let _ = c.tick(11_000).expect("begin migration");
        // The joiner dies while the barrier is running.
        let cmd = c.on_event(ev(2, FleetEventKind::Leave, 12_000));
        assert!(
            matches!(cmd, Some(ControllerCommand::AbortMigration { device: 2 })),
            "{cmd:?}"
        );
        c.migration_resolved(false, 13_000);
        assert_eq!(c.plan(), &old, "old plan still serving");
        assert_eq!(c.alarms().aborted_migrations, 1);
        assert!(c.plan_is_live());
        // The leave is still pending; once debounced it replans onto
        // the survivors (same membership as the old plan → even split).
        let cmd = c.tick(30_000).expect("post-abort replan");
        let ControllerCommand::BeginMigration { target } = cmd else { panic!() };
        assert!(target.stages.iter().all(|s| s.device != 2));
    }

    #[test]
    fn infeasible_fleet_raises_alarm_and_holds_plan() {
        let mut c = controller(&[0, 1], 8);
        let old = c.plan().clone();
        // One survivor can hold at most 4 layers of the 8-layer model.
        c.on_event(ev(1, FleetEventKind::Leave, 1_000));
        assert!(c.tick(20_000).is_none(), "no migration command");
        assert_eq!(c.alarms().infeasible_fleet, 1);
        assert_eq!(c.plan(), &old, "old plan held");
        assert_eq!(c.state(), ControllerState::Idle);
        // Everything lost: typed NoDevices, second alarm, still no panic.
        c.on_event(ev(0, FleetEventKind::Leave, 30_000));
        assert!(c.tick(50_000).is_none());
        assert_eq!(c.alarms().infeasible_fleet, 2);
    }

    #[test]
    fn flapping_device_is_suppressed_and_counted() {
        let mut c = controller(&[0, 1], 8);
        // Device 2 toggles 4 times inside the 200 ms flap window.
        c.on_event(ev(2, FleetEventKind::Join, 1_000));
        c.on_event(ev(2, FleetEventKind::Leave, 2_000));
        c.on_event(ev(2, FleetEventKind::Join, 3_000));
        c.on_event(ev(2, FleetEventKind::Leave, 4_000));
        assert!(c.tick(20_000).is_none(), "flapper must not trigger a migration");
        assert!(c.alarms().flap_suppressed >= 4, "{:?}", c.alarms());
        assert_eq!(c.state(), ControllerState::Idle);
        assert_eq!(c.commits(), 0);
    }

    #[test]
    fn stabilized_flapper_is_integrated_after_quarantine() {
        let mut c = controller(&[0, 1], 8);
        c.on_event(ev(2, FleetEventKind::Join, 1_000));
        c.on_event(ev(2, FleetEventKind::Leave, 2_000));
        c.on_event(ev(2, FleetEventKind::Join, 3_000));
        c.on_event(ev(2, FleetEventKind::Join, 4_000));
        assert!(c.tick(20_000).is_none(), "quarantined");
        // Quarantine window (200 ms after the last toggle) expires with
        // device 2 stably joined: the recheck integrates it.
        assert!(c.tick(150_000).is_none(), "still inside quarantine");
        let cmd = c.tick(250_000).expect("recheck after quarantine");
        let ControllerCommand::BeginMigration { target } = cmd else { panic!() };
        assert!(target.stages.iter().any(|s| s.device == 2));
    }

    #[test]
    fn degrade_replans_without_evicting() {
        let mut c = controller(&[0, 1, 2], 8);
        c.on_event(ev(1, FleetEventKind::Degrade, 1_000));
        let cmd = c.tick(20_000).expect("degrade triggers a replan");
        let ControllerCommand::BeginMigration { target } = cmd else { panic!() };
        // Device 1 still serves, at half capacity and the low rung.
        let s1 = target.stages.iter().find(|s| s.device == 1).expect("still placed");
        assert!(s1.bits.iter().all(|&b| b == Bitwidth::Int4));
        assert!(s1.bits.len() <= 2, "degraded cap is half");
    }

    #[test]
    fn even_split_planner_is_typed_never_panicking() {
        let mut p = EvenSplitPlanner { n_layers: 8, max_layers_per_device: 4 };
        let empty = BTreeSet::new();
        let degraded = BTreeSet::new();
        let current = base_plan(&[0], 8);
        let err = p
            .plan(&FleetView { live: &empty, degraded: &degraded, current: &current })
            .unwrap_err();
        assert_eq!(err, PlanFailure::NoDevices);
        let one: BTreeSet<usize> = [0].into();
        let err = p
            .plan(&FleetView { live: &one, degraded: &degraded, current: &current })
            .unwrap_err();
        assert!(matches!(err, PlanFailure::Infeasible { devices: 1, .. }), "{err:?}");
        assert!(err.to_string().contains("infeasible on 1 device(s)"));
    }
}
