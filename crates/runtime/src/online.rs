//! The offline plan under online traffic (paper §7, "Apply to ORCA or
//! vLLM").
//!
//! LLM-PQ plans for an offline batch job; the paper's discussion asks
//! what that plan does when requests arrive one by one. This module
//! answers it the way the offline pipeline would serve them: a sampled
//! arrival trace (`workload::sample_arrivals` → [`arrival_requests`])
//! replayed through [`serve_static`] on an analytic engine whose
//! iteration cost is fitted from the plan ([`IterCost::fit_trace`]).
//! `llmpq-dist --online-rate`, the online ablation and the example all
//! go through [`serve_trace_static`].
//!
//! [`arrival_requests`]: crate::overload::arrival_requests

use crate::overload::{AdmissionConfig, Request};
use crate::serve::{serve_static, ContinuousConfig, ContinuousReport, IterCost, SimStepEngine};

/// Serve `trace` in static batches of `batch` (each padded to its
/// longest prompt and decoded to its longest request, waiting at most
/// `max_wait_s` for a batch to fill) on a [`SimStepEngine::for_trace`]
/// that charges `costs[0]` per iteration. The queue is as deep as the
/// trace, so nothing is shed: every request is served, however late.
pub fn serve_trace_static(
    trace: &[Request],
    costs: Vec<IterCost>,
    batch: usize,
    max_wait_s: f64,
    seed: u64,
) -> Result<ContinuousReport, String> {
    let engine = SimStepEngine::for_trace(trace, costs, batch, seed);
    let admission = AdmissionConfig { max_queue: trace.len(), ..AdmissionConfig::default() };
    let cfg = ContinuousConfig { admission, ..ContinuousConfig::default() };
    serve_static(engine, trace, cfg, batch, max_wait_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::arrival_requests;
    use llmpq_workload::{sample_arrivals, OnlineConfig, PromptLengthModel};

    /// A toy engine: a fixed cost per iteration plus a per-token cost.
    const TOY: IterCost =
        IterCost { base_s: 1e-3, per_prefill_token_s: 1e-5, per_decode_token_s: 2e-5 };

    fn trace(rate: f64) -> Vec<Request> {
        let cfg = OnlineConfig { arrival_rate: rate, n_requests: 300, ..OnlineConfig::default() };
        arrival_requests(&sample_arrivals(&cfg, &PromptLengthModel::default()).unwrap())
    }

    fn serve(trace: &[Request], cost: IterCost, batch: usize) -> ContinuousReport {
        serve_trace_static(trace, vec![cost], batch, 2.0, 7).unwrap()
    }

    #[test]
    fn all_requests_complete() {
        let reqs = trace(3.0);
        let rep = serve(&reqs, TOY, 8);
        assert!(rep.conserves() && rep.completed == reqs.len(), "{:?}", rep.stats);
        assert_eq!(rep.pending_end, 0);
        assert!(rep.peak_batch <= 8);
        assert!(rep.sojourn.as_ref().unwrap().mean > 0.0, "every request costs time");
        let again = serve(&reqs, TOY, 8);
        assert_eq!(
            serde_json::to_string(&rep).unwrap(),
            serde_json::to_string(&again).unwrap(),
            "one trace, one run"
        );
    }

    #[test]
    fn latency_grows_with_load() {
        let light = serve(&trace(0.5), TOY, 8);
        let heavy = serve(&trace(50.0), TOY, 8);
        // Heavy load fills batches faster (less timeout waiting, so its
        // sojourn may even drop below the light run's), and the fuller
        // batches must not cost throughput.
        assert!(light.conserves() && heavy.conserves());
        assert!(
            heavy.throughput_tok_s >= light.throughput_tok_s * 0.9,
            "light {} heavy {} tok/s",
            light.throughput_tok_s,
            heavy.throughput_tok_s
        );
        assert!(heavy.mean_batch_occupancy > light.mean_batch_occupancy, "fuller batches");
    }

    #[test]
    fn saturation_blows_up_latency() {
        // Arrival far beyond capacity (~100 iterations of 50 ms per
        // batch of ≤ 8): queue wait dominates sojourn.
        let slow = IterCost { base_s: 0.05, ..TOY };
        let rep = serve(&trace(100.0), slow, 8);
        assert!(rep.conserves() && rep.completed == 300, "{:?}", rep.stats);
        let (ttft, sojourn) = (rep.ttft.unwrap(), rep.sojourn.unwrap());
        assert!(ttft.mean > sojourn.mean * 0.5, "ttft {ttft:?} sojourn {sojourn:?}");
        assert!(sojourn.p95 > sojourn.p50, "{sojourn:?}");
    }

    #[test]
    fn padding_reflects_length_dispersion() {
        // ShareGPT-like dispersion ⇒ substantial padding waste in
        // max-padded batches; and it must be a valid fraction.
        let reqs = trace(10.0);
        let pad = serve(&reqs, TOY, 8).padding_fraction(&reqs);
        assert!(pad > 0.2 && pad < 0.95, "padding {pad}");
    }

    #[test]
    fn batch_size_one_has_no_padding() {
        let reqs = trace(5.0);
        let rep = serve(&reqs, TOY, 1);
        assert!(rep.padding_fraction(&reqs).abs() < 1e-12);
        assert_eq!((rep.completed, rep.peak_batch), (reqs.len(), 1));
        let zero = serve_trace_static(&reqs, vec![TOY], 0, 2.0, 7).unwrap_err();
        assert_eq!(zero, "batch_size must be at least 1");
    }
}
