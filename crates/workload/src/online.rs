//! Online arrival traces (paper §7, "Apply to ORCA or vLLM").
//!
//! LLM-PQ targets the offline batch task; the paper's discussion section
//! asks what happens under online traffic, where "the online workload is
//! unpredictable". This module samples that traffic: Poisson arrivals
//! with ShareGPT-like prompt lengths and uniform generation lengths, as a
//! list of [`ArrivalSpec`]s. Serving them is the runtime's job — its
//! static-batching loop (`runtime::serve_static`) measures what an
//! offline plan does under the stream, its continuous loop what
//! iteration-level scheduling does instead.

use crate::prompts::PromptLengthModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Online workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Mean request arrival rate, requests/second (Poisson).
    pub arrival_rate: f64,
    /// Number of requests to sample.
    pub n_requests: usize,
    /// Generation length range (uniform, inclusive).
    pub n_generate: (usize, usize),
    /// RNG seed.
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self { arrival_rate: 1.0, n_requests: 200, n_generate: (50, 150), seed: 11 }
    }
}

/// A malformed [`OnlineConfig`], reported instead of panicking or
/// looping forever (a non-positive arrival rate would make the
/// inter-arrival draw divide by zero).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OnlineError {
    /// `arrival_rate` must be finite and strictly positive.
    BadArrivalRate(f64),
    /// `n_requests` must be at least 1.
    NoRequests,
    /// The trace window must be finite and strictly positive.
    BadDuration(f64),
    /// The requested rate × duration produced zero arrivals — reported
    /// as an error instead of silently serving an empty trace.
    EmptyTrace {
        /// Requested arrival rate, requests/second.
        rate: f64,
        /// Requested trace window, seconds.
        duration_s: f64,
    },
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::BadArrivalRate(r) => {
                write!(f, "arrival_rate must be finite and > 0 (got {r})")
            }
            OnlineError::NoRequests => write!(f, "n_requests must be at least 1"),
            OnlineError::BadDuration(d) => {
                write!(f, "duration must be finite and > 0 seconds (got {d})")
            }
            OnlineError::EmptyTrace { rate, duration_s } => write!(
                f,
                "rate {rate} req/s over {duration_s} s produces zero arrivals — \
                 raise the rate or lengthen the window"
            ),
        }
    }
}

impl std::error::Error for OnlineError {}

/// One sampled arrival: everything a serving front end needs to build
/// a concrete request (the tokens themselves are up to the caller —
/// deterministic fills and oracle-hash prompts both work).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSpec {
    /// Arrival time, seconds from trace start.
    pub arrival_s: f64,
    /// Prompt length in tokens (ShareGPT-like mixture draw).
    pub prompt_len: usize,
    /// Tokens to generate.
    pub n_generate: usize,
    /// Scheduling priority, `0..4` (higher = more important). Drawn
    /// from its own RNG stream so enabling priorities never perturbs
    /// the arrival process.
    pub priority: u32,
}

/// Sample the arrival trace `cfg` describes — same config, same seed,
/// same draws — so every serving loop (`runtime::serve`, the
/// `llmpq-serve` drive/soak modes) can replay *identical* traffic.
///
/// Validates the arrival rate and the request count.
pub fn sample_arrivals(
    cfg: &OnlineConfig,
    prompt_model: &PromptLengthModel,
) -> Result<Vec<ArrivalSpec>, OnlineError> {
    if !(cfg.arrival_rate.is_finite() && cfg.arrival_rate > 0.0) {
        return Err(OnlineError::BadArrivalRate(cfg.arrival_rate));
    }
    if cfg.n_requests == 0 {
        return Err(OnlineError::NoRequests);
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut prio_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x50);
    let lens = prompt_model.sample(cfg.n_requests, cfg.seed ^ 0x9A);
    let mut t = 0.0f64;
    Ok(lens
        .iter()
        .map(|p| {
            t += -rng.gen::<f64>().max(1e-12).ln() / cfg.arrival_rate;
            ArrivalSpec {
                arrival_s: t,
                prompt_len: p.len.max(1),
                n_generate: rng.gen_range(cfg.n_generate.0..=cfg.n_generate.1),
                priority: prio_rng.gen_range(0..4),
            }
        })
        .collect())
}

/// Like [`sample_arrivals`], but keep only the arrivals that land
/// within the first `duration_s` seconds. A window too short for even
/// one arrival at the requested rate is a typed [`OnlineError::
/// EmptyTrace`] — never a silently empty (or clamped) trace, so a
/// mistyped `--rate`/`--duration` fails loudly at the front door.
pub fn sample_arrivals_for_duration(
    cfg: &OnlineConfig,
    prompt_model: &PromptLengthModel,
    duration_s: f64,
) -> Result<Vec<ArrivalSpec>, OnlineError> {
    if !(duration_s.is_finite() && duration_s > 0.0) {
        return Err(OnlineError::BadDuration(duration_s));
    }
    let mut arrivals = sample_arrivals(cfg, prompt_model)?;
    arrivals.retain(|a| a.arrival_s <= duration_s);
    if arrivals.is_empty() {
        return Err(OnlineError::EmptyTrace { rate: cfg.arrival_rate, duration_s });
    }
    Ok(arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: f64) -> OnlineConfig {
        OnlineConfig { arrival_rate: rate, n_requests: 300, ..Default::default() }
    }

    #[test]
    fn deterministic_per_seed() {
        let m = PromptLengthModel::default();
        let a = sample_arrivals(&cfg(2.0), &m).unwrap();
        assert_eq!(a, sample_arrivals(&cfg(2.0), &m).unwrap());
        let other = sample_arrivals(&OnlineConfig { seed: 12, ..cfg(2.0) }, &m).unwrap();
        assert_ne!(a, other, "a different seed draws a different trace");
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s), "sorted by arrival");
        assert!(a.iter().all(|r| r.prompt_len >= 1 && (50..=150).contains(&r.n_generate)));
    }

    #[test]
    fn rejects_zero_and_negative_arrival_rate() {
        let m = PromptLengthModel::default();
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = sample_arrivals(&cfg(rate), &m).unwrap_err();
            assert!(
                matches!(err, OnlineError::BadArrivalRate(_)),
                "rate {rate} must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn rejects_empty_workload() {
        let m = PromptLengthModel::default();
        let none = OnlineConfig { n_requests: 0, ..cfg(1.0) };
        assert_eq!(sample_arrivals(&none, &m).unwrap_err(), OnlineError::NoRequests);
    }

    #[test]
    fn duration_window_truncates_and_stays_deterministic() {
        let m = PromptLengthModel::default();
        let full = sample_arrivals(&cfg(10.0), &m).unwrap();
        let cut = sample_arrivals_for_duration(&cfg(10.0), &m, 5.0).unwrap();
        assert!(!cut.is_empty() && cut.len() < full.len());
        assert_eq!(&full[..cut.len()], &cut[..], "a prefix of the same trace");
        assert!(cut.iter().all(|a| a.arrival_s <= 5.0));
    }

    #[test]
    fn zero_arrival_window_is_a_typed_error() {
        let m = PromptLengthModel::default();
        // ~1 arrival every 1000 s; a 1 ms window holds none.
        let err = sample_arrivals_for_duration(&cfg(0.001), &m, 0.001).unwrap_err();
        assert!(
            matches!(err, OnlineError::EmptyTrace { .. }),
            "expected EmptyTrace, got {err:?}"
        );
        assert!(err.to_string().contains("zero arrivals"), "{err}");
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let err = sample_arrivals_for_duration(&cfg(1.0), &m, bad).unwrap_err();
            assert!(matches!(err, OnlineError::BadDuration(_)), "{bad}: {err:?}");
        }
        // Rate validation still fires first.
        let err = sample_arrivals_for_duration(&cfg(0.0), &m, 1.0).unwrap_err();
        assert!(matches!(err, OnlineError::BadArrivalRate(_)));
    }
}
