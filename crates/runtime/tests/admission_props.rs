//! Property tests for the overload-control layer: under arbitrary
//! arrival traces, policies, queue bounds and KV pool sizes, the serving
//! loop conserves requests (served + shed + expired == offered), never
//! outputs a request it shed, and only moves the degradation ladder one
//! watermark-consistent rung at a time.

use llmpq_runtime::{
    poisson_requests, serve_continuous, sim_oracle_tokens, AdmissionConfig, AdmissionPolicy,
    ContinuousConfig, ContinuousScheduler, DegradationConfig, IterCost, KvPoolConfig, Request,
    SimStepEngine,
};
use proptest::prelude::*;
use std::collections::HashSet;

const VOCAB: usize = 97;
const SEED: u64 = 42;

fn policy_strategy() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        Just(AdmissionPolicy::Reject),
        Just(AdmissionPolicy::DeadlineShed),
        Just(AdmissionPolicy::QueueTimeout),
    ]
}

/// Engine whose rung `r` costs `1/(r+1)` of rung 0: a lone 4+4-token
/// request takes ~60 ms at rung 0, so the rates below straddle capacity.
fn engine(n_rungs: usize, n_blocks: usize) -> SimStepEngine {
    let costs = (0..n_rungs.max(1))
        .map(|r| {
            let f = 1.0 / (r + 1) as f64;
            IterCost { base_s: 0.012 * f, per_prefill_token_s: 0.001 * f, per_decode_token_s: 0.002 * f }
        })
        .collect();
    SimStepEngine::new(KvPoolConfig { n_blocks, block_tokens: 4 }, costs, VOCAB, SEED)
}

fn cfg(admission: AdmissionConfig, degradation: Option<DegradationConfig>) -> ContinuousConfig {
    ContinuousConfig { admission, degradation, max_batch: 3, ..ContinuousConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every offered request ends up in exactly one terminal bucket, for
    /// any policy, rate, queue bound, and KV pool size.
    #[test]
    fn serve_conserves_requests(
        seed in 0u64..500,
        rate in 0.5f64..100.0,
        n in 1usize..80,
        max_queue in 1usize..24,
        policy in policy_strategy(),
        n_blocks in 2usize..32,
    ) {
        let requests = poisson_requests(n, rate, 4, 4, seed).unwrap();
        let admission = AdmissionConfig {
            policy,
            max_queue,
            default_deadline_s: Some(0.5),
            queue_timeout_s: 0.3,
        };
        let rep = serve_continuous(
            engine(2, n_blocks),
            &requests,
            cfg(admission, Some(DegradationConfig::default())),
            None,
        )
        .unwrap();
        prop_assert_eq!(rep.stats.offered, n);
        prop_assert_eq!(rep.pending_end, 0);
        prop_assert!(
            rep.conserves(),
            "offered {} != served {} + shed {} + expired {}",
            rep.stats.offered, rep.stats.served, rep.stats.shed, rep.stats.expired
        );
    }

    /// A shed or expired request never appears in the outputs, and no
    /// served request is output twice.
    #[test]
    fn no_compute_after_shed(
        seed in 0u64..500,
        rate in 5.0f64..200.0,
        n in 1usize..60,
        max_queue in 1usize..8,
        policy in policy_strategy(),
    ) {
        let requests = poisson_requests(n, rate, 4, 4, seed).unwrap();
        let admission = AdmissionConfig {
            policy,
            max_queue,
            default_deadline_s: Some(0.2),
            queue_timeout_s: 0.2,
        };
        let rep = serve_continuous(engine(1, 64), &requests, cfg(admission, None), None).unwrap();
        let uniq: HashSet<usize> = rep.outputs.iter().map(|f| f.id).collect();
        prop_assert_eq!(rep.outputs.len(), uniq.len(), "a request was output twice");
        prop_assert_eq!(
            rep.outputs.len(), rep.stats.served,
            "output set must be exactly the served set"
        );
        // Everything that was not output was dropped, exactly once.
        prop_assert_eq!(uniq.len() + rep.stats.shed + rep.stats.expired, n);
    }

    /// KV preemption requeues rather than loses: with a pool too small
    /// for the batch and mixed priorities, every request is still served
    /// exactly once with oracle-exact tokens.
    #[test]
    fn kv_preemption_never_loses_requests(
        seed in 0u64..500,
        n in 2usize..40,
        n_blocks in 4usize..8,
    ) {
        let mut requests = poisson_requests(n, 200.0, 4, 4, seed).unwrap();
        for (i, r) in requests.iter_mut().enumerate() {
            r.priority = (i % 5) as u32;
            if i % 3 == 0 {
                r.prompt = vec![1; 12]; // mix sizes so the pool binds
            }
        }
        let admission = AdmissionConfig { max_queue: 64, ..AdmissionConfig::default() };
        let rep =
            serve_continuous(engine(1, n_blocks), &requests, cfg(admission, None), None).unwrap();
        prop_assert!(rep.conserves());
        prop_assert_eq!(rep.stats.served, n, "preemption lost a request: {:?}", rep.stats);
        let uniq: HashSet<usize> = rep.outputs.iter().map(|f| f.id).collect();
        prop_assert_eq!(uniq.len(), n, "preemption output a request twice");
        for fin in &rep.outputs {
            let req = &requests[fin.id];
            prop_assert_eq!(&fin.tokens, &sim_oracle_tokens(SEED, VOCAB, &req.prompt, req.n_generate));
        }
    }

    /// Ladder transitions are monotone per pressure episode: every step
    /// moves exactly one rung, downs only fire at/above the high
    /// watermark, ups only at/below the low watermark, and the rung
    /// stays inside the ladder.
    #[test]
    fn ladder_transitions_are_watermark_consistent(
        seed in 0u64..500,
        rate in 1.0f64..150.0,
        n in 5usize..80,
        high in 0.6f64..0.95,
        low_frac in 0.1f64..0.8,
        dwell in 1usize..5,
        n_rungs in 1usize..4,
    ) {
        let low = high * low_frac; // keep low < high so the band exists
        let requests = poisson_requests(n, rate, 4, 4, seed).unwrap();
        let admission = AdmissionConfig { max_queue: 8, ..AdmissionConfig::default() };
        let mut sched = ContinuousScheduler::new(
            engine(n_rungs, 64),
            cfg(admission, Some(DegradationConfig { high, low, dwell })),
        )
        .unwrap();
        sched.run_trace(&requests).unwrap();
        let mut rung = 0usize;
        for tr in sched.transitions() {
            prop_assert_eq!(tr.from, rung, "transition chain broken: {:?}", sched.transitions());
            prop_assert_eq!(tr.from.abs_diff(tr.to), 1, "multi-rung jump: {:?}", tr);
            prop_assert!(tr.to < n_rungs, "rung out of range: {:?}", tr);
            if tr.to > tr.from {
                prop_assert!(tr.pressure >= high, "step-down below high watermark: {:?}", tr);
            } else {
                prop_assert!(tr.pressure <= low, "step-up above low watermark: {:?}", tr);
            }
            rung = tr.to;
        }
        prop_assert_eq!(sched.rung(), rung);
    }

    /// Offering a hand-built adversarial trace (bursts, ties, identical
    /// arrival times) through the controller alone also conserves.
    #[test]
    fn controller_counters_conserve(
        n in 1usize..60,
        max_queue in 1usize..10,
        policy in policy_strategy(),
        takes in 0usize..40,
    ) {
        use llmpq_runtime::AdmissionController;
        let mut a = AdmissionController::new(AdmissionConfig {
            policy,
            max_queue,
            default_deadline_s: Some(0.1),
            queue_timeout_s: 0.05,
        });
        for i in 0..n {
            let t = (i / 3) as f64 * 0.04; // bursts of three per tick
            a.offer(
                Request {
                    id: i,
                    arrival_s: t,
                    prompt: vec![1, 2],
                    n_generate: 2,
                    deadline_s: None,
                    priority: (i % 3) as u32,
                },
                t,
            );
            if i % 5 == 4 {
                a.reap(t + 0.02);
            }
        }
        let mut served = 0usize;
        for _ in 0..takes {
            if a.take().is_some() {
                served += 1;
                a.note_served(1);
            }
        }
        a.reap(f64::MAX); // expire whatever the policy still can
        let s = a.stats();
        prop_assert!(s.conserves(a.pending()), "{:?} pending {}", s, a.pending());
        prop_assert_eq!(s.served, served);
    }
}
