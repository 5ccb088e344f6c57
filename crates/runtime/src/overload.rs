//! Overload control: admission and graceful degradation down a
//! precomputed quantization ladder.
//!
//! A serving deployment sized for the steady state will sooner or later
//! see more offered load than it can clear. Without protection the
//! arrival queue grows without bound, every request's latency diverges,
//! and the system does maximum work for zero goodput. This module holds
//! the two controllers the serving loop
//! ([`ContinuousScheduler`](crate::serve::ContinuousScheduler)) consults
//! every iteration to stay stable past saturation:
//!
//! * an **admission controller** in front of the arrival queue with a
//!   pluggable [`AdmissionPolicy`]: hard rejection at a queue bound,
//!   deadline-aware shedding (requests that would miss their SLO are
//!   dropped *before* consuming compute), or queue-with-timeout;
//! * a **degradation controller** ([`DegradationController`]) that walks
//!   a precomputed ladder of plans (`llm_pq::degradation_ladder` — each
//!   rung re-runs Algorithm 1 with the bitwidth menu capped, trading ω
//!   quality for latency) when queue pressure stays above a high
//!   watermark, and walks back up when pressure clears, with dwell-based
//!   hysteresis so a noisy queue doesn't make quality flap.
//!
//! KV pressure is the scheduler's job (paged
//! [`KvPool`](crate::kvpool::KvPool), priority-ordered
//! preempt-and-recompute); [`poisson_requests`] generates the seeded
//! arrival traces the tests and the `ablation_overload` bench replay.

use llmpq_workload::ArrivalSpec;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What the admission controller does when the queue is stressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Hard bound: reject (shed) arrivals once the queue is full.
    Reject,
    /// Reject at the bound *and* drop queued requests whose deadline has
    /// already passed before they reach the head — a request that will
    /// miss its SLO anyway should not consume compute.
    DeadlineShed,
    /// Reject at the bound and expire requests that have waited in the
    /// queue longer than the configured timeout.
    QueueTimeout,
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "reject" => Ok(Self::Reject),
            "deadline" | "deadline-shed" => Ok(Self::DeadlineShed),
            "timeout" | "queue-timeout" => Ok(Self::QueueTimeout),
            other => Err(format!("unknown admission policy '{other}' (want reject|deadline|timeout)")),
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Reject => write!(f, "reject"),
            Self::DeadlineShed => write!(f, "deadline"),
            Self::QueueTimeout => write!(f, "timeout"),
        }
    }
}

/// Admission-controller tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Shedding policy.
    pub policy: AdmissionPolicy,
    /// Queue bound: arrivals beyond this many waiters are shed.
    pub max_queue: usize,
    /// Default relative SLO deadline (seconds from arrival) applied to
    /// requests that carry none, under [`AdmissionPolicy::DeadlineShed`].
    pub default_deadline_s: Option<f64>,
    /// Maximum queue wait under [`AdmissionPolicy::QueueTimeout`].
    pub queue_timeout_s: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self { policy: AdmissionPolicy::Reject, max_queue: 64, default_deadline_s: None, queue_timeout_s: 1.0 }
    }
}

/// One serving request on the virtual clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Caller-assigned id, unique within a serving run.
    pub id: usize,
    /// Arrival time, seconds on the virtual clock.
    pub arrival_s: f64,
    /// Prompt tokens.
    pub prompt: Vec<usize>,
    /// Tokens to generate.
    pub n_generate: usize,
    /// Absolute SLO deadline (virtual-clock seconds), if any.
    pub deadline_s: Option<f64>,
    /// Larger = more important; KV preemption evicts the smallest.
    pub priority: u32,
}

/// Admission counters. The fundamental invariant — checked by
/// [`AdmissionStats::conserves`] and the property tests — is that every
/// offered request is accounted for exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionStats {
    /// Requests presented to the controller.
    pub offered: usize,
    /// Requests that entered the queue.
    pub admitted: usize,
    /// Requests that completed execution.
    pub served: usize,
    /// Requests dropped by policy (queue full, infeasible for the KV
    /// pool or model context).
    pub shed: usize,
    /// Requests dropped because their deadline or queue timeout passed.
    pub expired: usize,
    /// In-flight requests requeued for recompute after a pipeline-ring
    /// restart. Informational: a recovered request is back in the queue
    /// (so it still counts as pending/served/expired in the conservation
    /// sum) — this leg proves restarts requeued rather than lost them.
    #[serde(default)]
    pub recovered: usize,
}

impl AdmissionStats {
    /// `offered == served + shed + expired + pending` — nothing is lost,
    /// nothing is double-counted. Recovered requests are back in the
    /// queue, so they are already counted by one of those legs.
    pub fn conserves(&self, pending: usize) -> bool {
        self.offered == self.served + self.shed + self.expired + pending
    }
}

/// Bounded arrival queue with policy-driven shedding.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    queue: VecDeque<Request>,
    stats: AdmissionStats,
    expired_ids: Vec<usize>,
}

impl AdmissionController {
    /// New controller with an empty queue.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self { cfg, queue: VecDeque::new(), stats: AdmissionStats::default(), expired_ids: Vec::new() }
    }

    /// Offer one arrival. Returns `true` if the request was admitted to
    /// the queue, `false` if it was shed (or arrived already past its
    /// deadline, which counts as expired).
    pub fn offer(&mut self, mut req: Request, now: f64) -> bool {
        self.stats.offered += 1;
        if self.cfg.policy == AdmissionPolicy::DeadlineShed {
            if req.deadline_s.is_none() {
                req.deadline_s = self.cfg.default_deadline_s.map(|d| req.arrival_s + d);
            }
            if req.deadline_s.is_some_and(|d| now >= d) {
                self.stats.expired += 1;
                return false;
            }
        }
        if self.queue.len() >= self.cfg.max_queue {
            self.stats.shed += 1;
            return false;
        }
        self.stats.admitted += 1;
        self.queue.push_back(req);
        true
    }

    /// Drop queued requests the policy says are no longer worth serving
    /// (passed deadline / queue timeout). Returns how many expired.
    pub fn reap(&mut self, now: f64) -> usize {
        let before = self.queue.len();
        let ids = &mut self.expired_ids;
        match self.cfg.policy {
            AdmissionPolicy::Reject => {}
            AdmissionPolicy::DeadlineShed => {
                self.queue.retain(|r| {
                    let keep = !r.deadline_s.is_some_and(|d| now >= d);
                    if !keep {
                        ids.push(r.id);
                    }
                    keep
                });
            }
            AdmissionPolicy::QueueTimeout => {
                let t = self.cfg.queue_timeout_s;
                self.queue.retain(|r| {
                    let keep = now - r.arrival_s <= t;
                    if !keep {
                        ids.push(r.id);
                    }
                    keep
                });
            }
        }
        let expired = before - self.queue.len();
        self.stats.expired += expired;
        expired
    }

    /// Ids of requests dropped by [`Self::reap`] since the last drain —
    /// the serving front door uses these to answer the waiting HTTP
    /// handlers (504) instead of leaving them hanging.
    pub fn drain_expired_ids(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.expired_ids)
    }

    /// Count a request that was refused *before* entering the queue
    /// (infeasible: longer than the KV pool or the model context can
    /// ever hold). Keeps the conservation books: offered + shed.
    pub fn refuse(&mut self) {
        self.stats.offered += 1;
        self.stats.shed += 1;
    }

    /// The head of the queue, the next [`Self::take`] returns.
    pub fn head(&self) -> Option<&Request> {
        self.queue.front()
    }

    /// Pop the head of the queue.
    pub fn take(&mut self) -> Option<Request> {
        self.queue.pop_front()
    }

    /// Put a preempted or recovered request back at the *front* so it is
    /// the next to run — preemption must not also cost queue position.
    pub fn requeue_front(&mut self, req: Request) {
        self.queue.push_front(req);
    }

    /// Record `n` completed requests.
    pub fn note_served(&mut self, n: usize) {
        self.stats.served += n;
    }

    /// Record `n` requests dropped after leaving the queue (found
    /// infeasible at join).
    pub fn note_shed(&mut self, n: usize) {
        self.stats.shed += n;
    }

    /// Record `n` in-flight requests requeued after a ring restart
    /// (they re-enter via [`Self::requeue_front`], this only bumps the
    /// informational counter).
    pub fn note_recovered(&mut self, n: usize) {
        self.stats.recovered += n;
    }

    /// Requests currently waiting.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Ids of the requests currently waiting, head first.
    #[cfg(test)]
    pub(crate) fn queued_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.queue.iter().map(|r| r.id)
    }

    /// Queue pressure in `[0, 1]`: occupancy relative to the bound.
    pub fn pressure(&self) -> f64 {
        if self.cfg.max_queue == 0 {
            return 1.0;
        }
        (self.queue.len() as f64 / self.cfg.max_queue as f64).clamp(0.0, 1.0)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }
}

/// Hysteresis tuning for the degradation controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// Step *down* the ladder (lower quality, faster) once pressure has
    /// been at or above this for `dwell` consecutive observations.
    pub high: f64,
    /// Step back *up* once pressure has been at or below this for
    /// `dwell` consecutive observations.
    pub low: f64,
    /// Consecutive observations required before acting — the hysteresis
    /// dwell that keeps a noisy queue from flapping quality.
    pub dwell: usize,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self { high: 0.8, low: 0.3, dwell: 3 }
    }
}

/// One quality change the controller made.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RungTransition {
    /// Virtual-clock time of the change.
    pub at_s: f64,
    /// Rung before.
    pub from: usize,
    /// Rung after.
    pub to: usize,
    /// The pressure observation that triggered it.
    pub pressure: f64,
}

/// Walks a degradation ladder under pressure, with dwell hysteresis.
/// Rung 0 is full quality; higher rungs are the faster, lower-quality
/// plans of a precomputed `DegradationLadder`.
#[derive(Debug)]
pub struct DegradationController {
    cfg: DegradationConfig,
    n_rungs: usize,
    rung: usize,
    high_streak: usize,
    low_streak: usize,
    transitions: Vec<RungTransition>,
}

impl DegradationController {
    /// Controller over a ladder with `n_rungs` rungs, starting at rung 0.
    pub fn new(cfg: DegradationConfig, n_rungs: usize) -> Self {
        Self { cfg, n_rungs: n_rungs.max(1), rung: 0, high_streak: 0, low_streak: 0, transitions: Vec::new() }
    }

    /// Feed one pressure observation; returns the new rung if it changed.
    pub fn observe(&mut self, pressure: f64, now: f64) -> Option<usize> {
        if pressure >= self.cfg.high {
            self.high_streak += 1;
            self.low_streak = 0;
            if self.high_streak >= self.cfg.dwell.max(1) && self.rung + 1 < self.n_rungs {
                self.high_streak = 0;
                let from = self.rung;
                self.rung += 1;
                self.transitions.push(RungTransition { at_s: now, from, to: self.rung, pressure });
                return Some(self.rung);
            }
        } else if pressure <= self.cfg.low {
            self.low_streak += 1;
            self.high_streak = 0;
            if self.low_streak >= self.cfg.dwell.max(1) && self.rung > 0 {
                self.low_streak = 0;
                let from = self.rung;
                self.rung -= 1;
                self.transitions.push(RungTransition { at_s: now, from, to: self.rung, pressure });
                return Some(self.rung);
            }
        } else {
            // Inside the hysteresis band: hold position, reset streaks.
            self.high_streak = 0;
            self.low_streak = 0;
        }
        None
    }

    /// Current rung.
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Every transition taken so far.
    pub fn transitions(&self) -> &[RungTransition] {
        &self.transitions
    }
}

/// Deterministic Poisson arrival generator (SplitMix64 + inverse-CDF
/// exponential gaps) for overload sweeps. Errors on a non-positive or
/// non-finite rate.
pub fn poisson_requests(
    n: usize,
    rate_rps: f64,
    prompt_len: usize,
    n_generate: usize,
    seed: u64,
) -> Result<Vec<Request>, String> {
    if !(rate_rps.is_finite() && rate_rps > 0.0) {
        return Err(format!("arrival rate must be finite and > 0, got {rate_rps}"));
    }
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next_u64 = move || crate::splitmix64(&mut state);
    let mut uniform = move || ((next_u64() >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    let mut now = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for id in 0..n {
        now += -uniform().ln() / rate_rps;
        let prompt: Vec<usize> = (0..prompt_len.max(1)).map(|_| (next_u64() % 50) as usize + 1).collect();
        out.push(Request {
            id,
            arrival_s: now,
            prompt,
            n_generate: n_generate.max(1),
            deadline_s: None,
            priority: (next_u64() % 4) as u32,
        });
    }
    Ok(out)
}

/// The requests replaying a sampled arrival trace
/// (`llmpq_workload::sample_arrivals`): request `i` is arrival `i` — its
/// time, lengths and priority — with a deterministic prompt of the
/// sampled length and no deadline.
pub fn arrival_requests(arrivals: &[ArrivalSpec]) -> Vec<Request> {
    arrivals
        .iter()
        .enumerate()
        .map(|(id, a)| Request {
            id,
            arrival_s: a.arrival_s,
            prompt: (0..a.prompt_len).map(|j| (id * 31 + j * 7) % 50 + 1).collect(),
            n_generate: a.n_generate,
            deadline_s: None,
            priority: a.priority,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpq_workload::{sample_arrivals, OnlineConfig, PromptLengthModel};

    #[test]
    fn arrival_requests_replay_the_sampled_trace() {
        let cfg = OnlineConfig { n_requests: 50, ..OnlineConfig::default() };
        let arrivals = sample_arrivals(&cfg, &PromptLengthModel::default()).unwrap();
        let reqs = arrival_requests(&arrivals);
        assert_eq!(reqs.len(), arrivals.len());
        for (i, (r, a)) in reqs.iter().zip(&arrivals).enumerate() {
            assert_eq!((r.id, r.arrival_s, r.n_generate), (i, a.arrival_s, a.n_generate));
            assert_eq!(r.priority, a.priority);
            assert_eq!(r.prompt.len(), a.prompt_len);
            assert!(r.deadline_s.is_none());
        }
        assert_eq!(reqs, arrival_requests(&arrivals), "prompts are a function of the trace");
    }

    fn req(id: usize, arrival_s: f64) -> Request {
        Request { id, arrival_s, prompt: vec![1, 2, 3], n_generate: 4, deadline_s: None, priority: 1 }
    }

    #[test]
    fn reject_policy_sheds_at_the_bound() {
        let mut a = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::Reject,
            max_queue: 2,
            ..AdmissionConfig::default()
        });
        assert!(a.offer(req(0, 0.0), 0.0));
        assert!(a.offer(req(1, 0.0), 0.0));
        assert!(!a.offer(req(2, 0.0), 0.0), "third must bounce off the bound");
        let s = a.stats();
        assert_eq!((s.offered, s.admitted, s.shed), (3, 2, 1));
        assert!(s.conserves(a.pending()));
        assert!((a.pressure() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_shed_expires_before_compute() {
        let mut a = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::DeadlineShed,
            max_queue: 8,
            default_deadline_s: Some(1.0),
            queue_timeout_s: 1.0,
        });
        assert!(a.offer(req(0, 0.0), 0.0));
        // Arrives already past its (default) deadline.
        assert!(!a.offer(req(1, 0.0), 5.0));
        assert_eq!(a.stats().expired, 1);
        // The queued one expires once the clock passes arrival + 1s.
        assert_eq!(a.reap(2.0), 1);
        assert_eq!(a.stats().expired, 2);
        assert_eq!(a.pending(), 0);
        assert!(a.stats().conserves(0));
    }

    #[test]
    fn queue_timeout_expires_long_waiters() {
        let mut a = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::QueueTimeout,
            max_queue: 8,
            default_deadline_s: None,
            queue_timeout_s: 0.5,
        });
        assert!(a.offer(req(0, 0.0), 0.0));
        assert!(a.offer(req(1, 0.4), 0.4));
        assert_eq!(a.reap(0.6), 1, "only the 0.0 arrival has waited > 0.5s");
        assert_eq!(a.pending(), 1);
        assert!(a.stats().conserves(1));
    }

    #[test]
    fn ladder_controller_has_hysteresis() {
        let mut c = DegradationController::new(DegradationConfig { high: 0.8, low: 0.2, dwell: 3 }, 3);
        // Two highs then a band value: dwell resets, no step.
        assert!(c.observe(0.9, 0.0).is_none());
        assert!(c.observe(0.9, 0.1).is_none());
        assert!(c.observe(0.5, 0.2).is_none());
        assert_eq!(c.rung(), 0);
        // Three consecutive highs: step down one rung only.
        assert!(c.observe(0.9, 0.3).is_none());
        assert!(c.observe(0.9, 0.4).is_none());
        assert_eq!(c.observe(0.9, 0.5), Some(1));
        assert_eq!(c.rung(), 1);
        // Three lows: step back up.
        assert!(c.observe(0.1, 0.6).is_none());
        assert!(c.observe(0.1, 0.7).is_none());
        assert_eq!(c.observe(0.1, 0.8), Some(0));
        // Never leaves [0, n_rungs).
        for i in 0..20 {
            c.observe(0.95, 1.0 + i as f64 * 0.1);
        }
        assert_eq!(c.rung(), 2, "clamped at the last rung");
        let t = c.transitions();
        assert!(t.iter().all(|tr| tr.from.abs_diff(tr.to) == 1), "single-rung steps only");
    }

    #[test]
    fn poisson_rejects_bad_rates_and_is_deterministic() {
        assert!(poisson_requests(4, 0.0, 4, 4, 0).is_err());
        assert!(poisson_requests(4, -1.0, 4, 4, 0).is_err());
        assert!(poisson_requests(4, f64::NAN, 4, 4, 0).is_err());
        let a = poisson_requests(10, 5.0, 4, 4, 42).unwrap();
        let b = poisson_requests(10, 5.0, 4, 4, 42).unwrap();
        assert_eq!(a, b, "same seed, same trace");
        assert!(a.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
    }

    #[test]
    fn admission_policy_parses_from_flags() {
        use std::str::FromStr;
        assert_eq!(AdmissionPolicy::from_str("reject").unwrap(), AdmissionPolicy::Reject);
        assert_eq!(AdmissionPolicy::from_str("deadline").unwrap(), AdmissionPolicy::DeadlineShed);
        assert_eq!(AdmissionPolicy::from_str("TIMEOUT").unwrap(), AdmissionPolicy::QueueTimeout);
        assert!(AdmissionPolicy::from_str("yolo").is_err());
    }
}
