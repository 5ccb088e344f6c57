//! Fault schedules for the simulation harness: what goes wrong, where,
//! and when — serializable to JSON so a failing schedule can be saved,
//! shipped in a bug report, and replayed bit-for-bit.

use crate::splitmix64;
use serde::{Deserialize, Serialize};

/// What happens to one frame on a link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimFaultKind {
    /// Hold the frame (and, FIFO, everything behind it) for `us`.
    Delay {
        /// Extra virtual µs before delivery.
        us: u64,
    },
    /// Lose the frame silently.
    Drop,
    /// Deliver the frame twice.
    Duplicate,
    /// Flip a payload bit — detected by the receiver through the real
    /// frame CRC, never by simulator fiat.
    Corrupt,
    /// Let the frame overtake the FIFO stream by delivering it `us`
    /// later than send time but *exempt from the stream clamp*. Real
    /// TCP cannot reorder within a stream, so protocol-level random
    /// schedules never draw this; the wire-level testbed uses it.
    Reorder {
        /// Virtual µs after send at which the frame lands.
        us: u64,
    },
    /// Cut the connection (epoch) at this frame.
    Disconnect,
}

/// A one-shot fault on the `after_frames`-th frame sent over a link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimLinkEvent {
    /// Target link: data links are `0..=n_stages` (link `i` feeds stage
    /// `i`; link `n_stages` returns to the master), control links
    /// follow at `n_stages + 1 + s`.
    pub link: usize,
    /// Cumulative send ordinal on the link that triggers the fault.
    pub after_frames: u64,
    /// What happens to that frame.
    pub kind: SimFaultKind,
}

/// A link partition: frames sent in `[at_us, heal)` are stalled until
/// the heal (or forever).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimPartition {
    /// Target link (same numbering as [`SimLinkEvent::link`]).
    pub link: usize,
    /// Virtual µs at which the partition starts.
    pub at_us: u64,
    /// Virtual µs at which it heals; `None` = never.
    pub heal_at_us: Option<u64>,
}

/// A stage crash-and-restart.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimCrash {
    /// Stage that dies.
    pub stage: usize,
    /// Virtual µs of the crash.
    pub at_us: u64,
    /// Virtual µs after the crash at which the stage restarts; `None` =
    /// the stage is gone for good.
    pub restart_after_us: Option<u64>,
}

/// A device *joining* the cluster mid-run: from `at_us` on, `device` is
/// available as a migration target. A join is not a fault on its own —
/// frames and stages are untouched — but it triggers any configured
/// migrate-onto-new-device policy (see `SimConfig::migration`), so join
/// schedules stress the plan-swap window exactly like crash schedules
/// stress recovery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimDeviceJoin {
    /// Cluster device id that becomes available.
    pub device: usize,
    /// Virtual µs at which it joins.
    pub at_us: u64,
}

/// A complete fault schedule. Serializable, shrinkable, replayable.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimFaultPlan {
    /// Per-frame faults.
    #[serde(default)]
    pub link_events: Vec<SimLinkEvent>,
    /// Timed partitions.
    #[serde(default)]
    pub partitions: Vec<SimPartition>,
    /// Timed crashes.
    #[serde(default)]
    pub crashes: Vec<SimCrash>,
    /// Timed device joins.
    #[serde(default)]
    pub joins: Vec<SimDeviceJoin>,
}

impl SimFaultPlan {
    /// The empty (fault-free) schedule.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the schedule has no events at all.
    pub fn is_empty(&self) -> bool {
        self.link_events.is_empty()
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.joins.is_empty()
    }

    /// Total number of fault events across all four classes.
    pub fn event_count(&self) -> usize {
        self.link_events.len() + self.partitions.len() + self.crashes.len() + self.joins.len()
    }

    /// Schedule with the `idx`-th event (flat index over link events,
    /// then partitions, then crashes, then joins) removed — the
    /// shrinker's step.
    pub(crate) fn without(&self, idx: usize) -> Self {
        let mut out = self.clone();
        let n_l = out.link_events.len();
        let n_p = out.partitions.len();
        let n_c = out.crashes.len();
        if idx < n_l {
            out.link_events.remove(idx);
        } else if idx < n_l + n_p {
            out.partitions.remove(idx - n_l);
        } else if idx < n_l + n_p + n_c {
            out.crashes.remove(idx - n_l - n_p);
        } else {
            out.joins.remove(idx - n_l - n_p - n_c);
        }
        out
    }

    /// Deterministic random schedule for `seed` against a pipeline of
    /// `n_stages` stages. Draws only stream-faithful fault kinds (no
    /// `Reorder` — TCP cannot reorder within a stream, and a reordered
    /// work item would make token divergence a modeling artifact rather
    /// than a bug).
    pub fn random(seed: u64, n_stages: usize) -> Self {
        let mut state = seed;
        let mut next = move |bound: u64| splitmix64(&mut state) % bound.max(1);
        let n_links = 2 * n_stages + 1;
        let n_events = next(5); // 0..=4 faults per schedule
        let mut plan = Self::none();
        for _ in 0..n_events {
            match next(10) {
                0..=4 => {
                    let kind = match next(5) {
                        0 => SimFaultKind::Delay { us: 1_000 + next(120_000) },
                        1 => SimFaultKind::Drop,
                        2 => SimFaultKind::Duplicate,
                        3 => SimFaultKind::Corrupt,
                        _ => SimFaultKind::Disconnect,
                    };
                    plan.link_events.push(SimLinkEvent {
                        link: next(n_links as u64) as usize,
                        after_frames: next(12),
                        kind,
                    });
                }
                9 => {
                    // A spare (or returning) device comes up early in
                    // the run — in range for a migration policy to
                    // target while requests are still in flight.
                    plan.joins.push(SimDeviceJoin {
                        device: next(n_stages as u64 + 2) as usize,
                        at_us: next(2_000),
                    });
                }
                5 | 6 => {
                    // Timed events draw from the first virtual
                    // milliseconds: the tiny-model run completes in well
                    // under that, so they land mid-flight rather than
                    // after the pipeline already drained.
                    let at_us = next(2_000);
                    let heal_at_us =
                        if next(4) == 0 { None } else { Some(at_us + 1_000 + next(250_000)) };
                    plan.partitions.push(SimPartition {
                        link: next(n_links as u64) as usize,
                        at_us,
                        heal_at_us,
                    });
                }
                _ => {
                    let restart_after_us = if next(4) == 0 { None } else { Some(1_000 + next(300_000)) };
                    plan.crashes.push(SimCrash {
                        stage: next(n_stages as u64) as usize,
                        at_us: next(2_000),
                        restart_after_us,
                    });
                }
            }
        }
        plan
    }

    /// Deterministic random schedule biased into a live migration's
    /// prepare/commit window. The default migration scenario
    /// (`SimConfig::migration_default`) proposes around 200 virtual µs
    /// and finishes the commit handshake by ~600µs, so timed events
    /// here land in the first ~1.5 virtual ms, every schedule carries
    /// at least one event, crashed stages restart quickly enough to
    /// re-enter the swap path, and device joins are drawn more often
    /// (a join re-homes the repartitioned stage mid-protocol).
    pub fn random_migration(seed: u64, n_stages: usize) -> Self {
        let mut state = seed ^ 0x4D49_4752_4154_4531; // "MIGRATE1"
        let mut next = move |bound: u64| splitmix64(&mut state) % bound.max(1);
        let n_links = 2 * n_stages + 1;
        let n_events = 1 + next(5); // 1..=5 — every schedule hits the window
        let mut plan = Self::none();
        for _ in 0..n_events {
            match next(10) {
                0..=3 => {
                    let kind = match next(5) {
                        0 => SimFaultKind::Delay { us: 500 + next(60_000) },
                        1 => SimFaultKind::Drop,
                        2 => SimFaultKind::Duplicate,
                        3 => SimFaultKind::Corrupt,
                        _ => SimFaultKind::Disconnect,
                    };
                    // Low frame ordinals: the propose/ready/commit and
                    // KV-chunk frames all travel within the first ~16
                    // frames of a migration run.
                    plan.link_events.push(SimLinkEvent {
                        link: next(n_links as u64) as usize,
                        after_frames: next(16),
                        kind,
                    });
                }
                4 | 5 => {
                    let at_us = 100 + next(1_400);
                    let heal_at_us =
                        if next(4) == 0 { None } else { Some(at_us + 500 + next(60_000)) };
                    plan.partitions.push(SimPartition {
                        link: next(n_links as u64) as usize,
                        at_us,
                        heal_at_us,
                    });
                }
                6 => {
                    plan.joins.push(SimDeviceJoin {
                        device: next(n_stages as u64 + 2) as usize,
                        at_us: next(1_500),
                    });
                }
                _ => {
                    let restart_after_us =
                        if next(4) == 0 { None } else { Some(1_000 + next(50_000)) };
                    plan.crashes.push(SimCrash {
                        stage: next(n_stages as u64) as usize,
                        at_us: 100 + next(1_400),
                        restart_after_us,
                    });
                }
            }
        }
        plan
    }

    /// Serialize to pretty JSON (the replayable counterexample format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }

    /// Parse a schedule back from [`SimFaultPlan::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad fault-schedule JSON: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_and_reorder_free() {
        for seed in 0..200 {
            let a = SimFaultPlan::random(seed, 2);
            let b = SimFaultPlan::random(seed, 2);
            assert_eq!(a, b, "seed {seed}");
            assert!(
                a.link_events.iter().all(|e| !matches!(e.kind, SimFaultKind::Reorder { .. })),
                "protocol schedules must be stream-faithful (seed {seed})"
            );
        }
    }

    #[test]
    fn json_round_trips() {
        let plan = SimFaultPlan {
            link_events: vec![SimLinkEvent {
                link: 1,
                after_frames: 3,
                kind: SimFaultKind::Delay { us: 77 },
            }],
            partitions: vec![SimPartition { link: 0, at_us: 10, heal_at_us: None }],
            crashes: vec![SimCrash { stage: 1, at_us: 5, restart_after_us: Some(9) }],
            joins: vec![SimDeviceJoin { device: 2, at_us: 40 }],
        };
        let back = SimFaultPlan::from_json(&plan.to_json()).expect("round trip");
        assert_eq!(plan, back);
        // Pre-join schedules (no `joins` key) still parse.
        let legacy = SimFaultPlan::from_json(r#"{"crashes":[{"stage":0,"at_us":1,"restart_after_us":null}]}"#)
            .expect("legacy JSON");
        assert!(legacy.joins.is_empty());
        assert_eq!(legacy.event_count(), 1);
    }

    #[test]
    fn without_walks_all_four_classes() {
        let plan = SimFaultPlan {
            link_events: vec![SimLinkEvent { link: 0, after_frames: 0, kind: SimFaultKind::Drop }],
            partitions: vec![SimPartition { link: 0, at_us: 0, heal_at_us: Some(5) }],
            crashes: vec![SimCrash { stage: 0, at_us: 0, restart_after_us: None }],
            joins: vec![SimDeviceJoin { device: 3, at_us: 7 }],
        };
        assert_eq!(plan.event_count(), 4);
        assert!(plan.without(0).link_events.is_empty());
        assert!(plan.without(1).partitions.is_empty());
        assert!(plan.without(2).crashes.is_empty());
        assert!(plan.without(3).joins.is_empty());
        assert_eq!(plan.without(3).event_count(), 3);
    }

    #[test]
    fn random_eventually_draws_joins() {
        let hit = (0..400).any(|seed| !SimFaultPlan::random(seed, 2).joins.is_empty());
        assert!(hit, "random schedules must be able to contain device joins");
    }
}
