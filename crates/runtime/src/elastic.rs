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
//! * **Planning** is delegated to an [`ElasticPlanner`]. The runtime's
//!   one is [`FleetPlanner`]: LLM-PQ's Algorithm 1
//!   (`llm_pq::IncrementalPlanner`, warm-started across membership
//!   deltas) over a fixed device pool. The simulation plans with it,
//!   and so does `llmpq-dist`'s device-loss replanner (behind
//!   `supervisor::Replanner`). A planner failure is *typed*
//!   ([`ReplanError`]): the controller holds the old, still-serving
//!   plan and raises [`FleetAlarms::infeasible_fleet`] — it never
//!   panics and never commits a plan referencing a dead device. A
//!   target equal to the plan in force (say, a joiner the planner
//!   leaves idle) ends planning there: no migration, no cooldown.
//! * **Migrating** hands the target plan to the driver, which runs the
//!   §14 prepare/commit barrier. A device lost mid-migration makes the
//!   controller emit [`ControllerCommand::AbortMigration`]; the old
//!   plan keeps serving and the loss joins the next debounce batch.

use llm_pq::{ExecutionPlan, IncrementalPlanner, ReplanError, ReplanOutcome};
use llmpq_cluster::{Cluster, GpuModel};
use llmpq_cost::CostDb;
use llmpq_quant::IndicatorTable;
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

/// The controller's view of the fleet, handed to the planner.
#[derive(Debug)]
pub struct FleetView<'a> {
    /// Devices currently placeable.
    pub live: &'a BTreeSet<usize>,
    /// Subset of `live` running degraded ([`FleetPlanner`] plans each
    /// one class down).
    pub degraded: &'a BTreeSet<usize>,
}

/// Produces an execution plan for the current fleet. [`FleetPlanner`]
/// (Algorithm 1) is the runtime's implementation; the trait is the seam
/// `tests/elastic.rs` uses to drive the controller with a scripted one.
pub trait ElasticPlanner {
    /// Plan onto exactly the live devices in `view`. The returned
    /// plan's device ids must be a subset of `view.live` — the
    /// controller re-checks and refuses to migrate otherwise.
    /// A failure is typed: the controller maps every variant to "hold
    /// the old plan + raise an alarm"; the variants tell telemetry and
    /// operators *why* the fleet can't be replanned.
    fn plan(&mut self, view: &FleetView<'_>) -> Result<ExecutionPlan, ReplanError>;
}

/// The runtime's Algorithm-1 [`ElasticPlanner`]: an [`IncrementalPlanner`]
/// over a fixed device pool (a pool index is a device id), with the cost
/// database and indicator table it plans against. A fleet is planned as
/// the pool minus every device not live
/// ([`IncrementalPlanner::replan_after_loss`]: plans come back in pool
/// ids, each warm-started from the last), every degraded device one
/// [`GpuModel`] class down. A fleet holds the model iff this returns a plan.
#[derive(Debug)]
pub struct FleetPlanner {
    pool: Cluster,
    db: CostDb,
    indicator: IndicatorTable,
    planner: IncrementalPlanner,
}

impl FleetPlanner {
    /// Plan onto `pool` with `planner`, `db` and `indicator`.
    pub fn new(pool: Cluster, planner: IncrementalPlanner, db: CostDb, indicator: IndicatorTable) -> Self {
        Self { pool, db, indicator, planner }
    }

    /// The pool as planned with `degraded` devices one class down.
    pub(crate) fn fleet(&self, degraded: &BTreeSet<usize>) -> Cluster {
        let mut fleet = self.pool.clone();
        for (d, dev) in fleet.devices.iter_mut().enumerate() {
            if degraded.contains(&d) {
                let class = GpuModel::ALL.iter().position(|&g| g == dev.gpu).unwrap_or(0);
                dev.gpu = GpuModel::ALL[class.saturating_sub(1)];
            }
        }
        fleet
    }

    /// Algorithm 1 on the pool minus `lost`, `degraded` devices one
    /// class down, with the plan's provenance.
    pub fn replan(&mut self, lost: &[usize], degraded: &BTreeSet<usize>) -> Result<ReplanOutcome, ReplanError> {
        let fleet = self.fleet(degraded);
        self.planner.replan_after_loss(&fleet, lost, &self.db, &self.indicator)
    }
}

impl ElasticPlanner for FleetPlanner {
    fn plan(&mut self, view: &FleetView<'_>) -> Result<ExecutionPlan, ReplanError> {
        let lost: Vec<usize> = (0..self.pool.len()).filter(|d| !view.live.contains(d)).collect();
        self.replan(&lost, view.degraded).map(|out| out.plan)
    }
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
    /// at the lowest rung (typed [`ReplanError::Infeasible`] /
    /// [`ReplanError::AllDevicesLost`]); the old plan stays in force.
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
        self.pending.clear();
        let held = match self.planner.plan(&FleetView { live: &self.live, degraded: &self.degraded }) {
            Ok(target) if !target.stages.iter().all(|s| self.live.contains(&s.device)) => {
                self.alarms.planner_errors += 1;
                "planner returned a plan using a dead device: held old plan".to_string()
            }
            Ok(target) if target == self.plan => {
                self.planned_live = self.live.clone();
                "planned the plan in force: nothing to migrate".to_string()
            }
            Ok(target) => {
                self.note(now_us, format!("planned onto {} device(s): migrating", target.stages.len()));
                self.inflight = Some(target.clone());
                self.state = ControllerState::Migrating;
                return Some(ControllerCommand::BeginMigration { target });
            }
            Err(failure) => {
                match &failure {
                    ReplanError::AllDevicesLost { .. } | ReplanError::Infeasible { .. } => {
                        self.alarms.infeasible_fleet += 1;
                    }
                    ReplanError::Config(_) => self.alarms.planner_errors += 1,
                }
                format!("replan failed ({failure}): holding old plan")
            }
        };
        self.note(now_us, held);
        self.state = ControllerState::Idle;
        None
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The simulated fleet's planner: a pool of six, T4, T4, V100, T4, …
    fn planner() -> FleetPlanner {
        crate::simnet::fleet_planner(&crate::simnet::ElasticSimConfig::default())
    }

    /// A controller serving Algorithm 1's plan for `devices`.
    fn controller(devices: &[usize]) -> FleetController {
        let mut planner = planner();
        let lost: Vec<usize> = (0..6).filter(|d| !devices.contains(d)).collect();
        let initial = planner.replan(&lost, &BTreeSet::new()).expect("initial fleet holds the model");
        FleetController::new(
            Box::new(planner),
            DebouncedPolicy::new(10_000, 50_000, 200_000, 3),
            devices.iter().copied(),
            initial.plan,
        )
    }

    fn ev(device: usize, kind: FleetEventKind, at_us: u64) -> FleetEvent {
        FleetEvent { device, kind, at_us }
    }

    #[test]
    fn join_debounces_then_migrates_and_commits() {
        let mut c = controller(&[0, 1]);
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
        let mut c = controller(&[0, 1]);
        c.on_event(ev(2, FleetEventKind::Join, 1_000));
        c.on_event(ev(3, FleetEventKind::Join, 3_000));
        c.on_event(ev(4, FleetEventKind::Join, 5_000));
        let cmd = c.tick(16_000).expect("one batched replan");
        let ControllerCommand::BeginMigration { target } = cmd else { panic!() };
        // Algorithm 1 places the first and the last joiner (not device
        // 3): the one replan saw the whole batch.
        let devs: BTreeSet<usize> = target.stages.iter().map(|s| s.device).collect();
        assert!(devs.contains(&2) && devs.contains(&4), "{devs:?}");
        c.migration_resolved(true, 20_000);
        assert_eq!(c.commits(), 1, "three deltas, one migration");
        assert!(c.tick(300_000).is_none(), "nothing left to do");
    }

    #[test]
    fn cooldown_defers_the_next_replan() {
        let mut c = controller(&[0, 1]);
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
        let mut c = controller(&[0, 1, 2]);
        c.on_event(ev(2, FleetEventKind::Leave, 1_000));
        let cmd = c.tick(20_000).expect("replan");
        let ControllerCommand::BeginMigration { target } = cmd else { panic!() };
        assert!(target.stages.iter().all(|s| s.device != 2));
        c.migration_resolved(true, 25_000);
        assert!(c.plan_is_live());
    }

    #[test]
    fn device_loss_mid_migration_aborts_to_old_plan() {
        let mut c = controller(&[0, 1]);
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
        // the survivors — the old plan's own fleet, so Algorithm 1
        // returns the plan in force and nothing migrates.
        assert!(c.tick(30_000).is_none(), "nothing to migrate after the abort");
        assert_eq!((c.state(), c.commits(), c.plan()), (ControllerState::Idle, 0, &old));
    }

    #[test]
    fn infeasible_fleet_raises_alarm_and_holds_plan() {
        let mut c = controller(&[0, 1]);
        let old = c.plan().clone();
        // A lone T4 cannot hold the model at any rung.
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
        let mut c = controller(&[0, 1]);
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
        let mut c = controller(&[0, 1]);
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
        let mut c = controller(&[0, 1, 2]);
        let layers_on = |p: &ExecutionPlan| {
            p.stages.iter().filter(|s| s.device == 2).map(|s| s.bits.len()).sum::<usize>()
        };
        let before = layers_on(c.plan());
        // Device 2, a V100, is planned as a T4 from now on.
        c.on_event(ev(2, FleetEventKind::Degrade, 1_000));
        let cmd = c.tick(20_000).expect("degrade triggers a replan");
        let ControllerCommand::BeginMigration { target } = cmd else { panic!() };
        // Device 2 still serves, a smaller share of the layers.
        let after = layers_on(&target);
        assert!(after > 0 && after < before, "device 2: {before} -> {after} layers");
    }

    #[test]
    fn replanning_the_plan_in_force_migrates_nothing_and_starts_no_cooldown() {
        let mut c = controller(&[0, 1]);
        let old = c.plan().clone();
        // Device 5 is not live, so its degrade changes nothing planned.
        c.on_event(ev(5, FleetEventKind::Degrade, 1_000));
        assert!(c.tick(20_000).is_none(), "an identical target is no migration");
        assert_eq!((c.state(), c.commits(), c.plan()), (ControllerState::Idle, 0, &old));
        assert_eq!(c.log().iter().filter(|l| l.contains("plan in force")).count(), 1);
        // No cooldown: a join right after replans once debounced.
        c.on_event(ev(2, FleetEventKind::Join, 21_000));
        assert!(matches!(c.tick(32_000), Some(ControllerCommand::BeginMigration { .. })));
    }

    #[test]
    fn fleet_planner_is_typed_never_panicking() {
        let mut p = planner();
        let none = BTreeSet::new();
        let mut plan = |live: BTreeSet<usize>| p.plan(&FleetView { live: &live, degraded: &none }).unwrap_err();
        assert!(matches!(plan([].into()), ReplanError::AllDevicesLost { .. }));
        let err = plan([0].into());
        assert!(matches!(err, ReplanError::Infeasible { devices: 1, .. }), "{err:?}");
        assert!(err.to_string().contains("infeasible on 1 survivors"));
        // A degraded device is planned one class down.
        let classes: Vec<GpuModel> = p.fleet(&[0, 2].into()).devices[..3].iter().map(|d| d.gpu).collect();
        assert_eq!(classes, [GpuModel::P100_12G, GpuModel::T4_16G, GpuModel::T4_16G]);
    }
}
