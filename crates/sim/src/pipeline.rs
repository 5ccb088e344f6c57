//! Discrete-event simulation of pipeline-parallel generative serving.
//!
//! Models exactly the execution the paper's runtime performs on an
//! offline batch job: the master engine embeds micro-batches and feeds
//! them through the stage pipeline; prefill micro-batches stream freely
//! (GPipe-style), while decode steps carry the autoregressive dependency
//! — token *t* of a micro-batch enters stage 0 only after token *t−1*
//! finished the last stage and its logits were processed.
//!
//! Because LLM-PQ sizes micro-batches *per phase* (hybrid micro-batch
//! sizing), the global batch is re-chunked at the prefill→decode
//! boundary, which acts as a barrier.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Per-stage execution profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageLoad {
    /// Time to process one *prefill* micro-batch on this stage (s).
    pub prefill_time: f64,
    /// Time to process one *decode* micro-batch token-step (s).
    pub decode_time: f64,
    /// Time to ship a prefill activation to the next stage (s).
    pub comm_prefill: f64,
    /// Time to ship a decode activation to the next stage (s).
    pub comm_decode: f64,
}

/// Workload shape for one batch job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineWorkload {
    /// Number of prefill micro-batches (global batch / prefill µ-size).
    pub prefill_microbatches: usize,
    /// Number of decode micro-batches.
    pub decode_microbatches: usize,
    /// Tokens generated per sequence (`n`); the first comes from prefill
    /// logits, the remaining `n−1` from decode steps.
    pub n_tokens: usize,
    /// Master-engine time per prefill micro-batch (embedding + logits).
    pub master_prefill: f64,
    /// Master-engine time per decode micro-batch step.
    pub master_decode: f64,
}

/// Result of a pipeline simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Wall-clock until the last prefill logits were produced (s).
    pub prefill_latency: f64,
    /// Wall-clock of the decode phase (s).
    pub decode_latency: f64,
    /// End-to-end latency of the batch (s).
    pub total_latency: f64,
    /// Busy seconds per stage.
    pub stage_busy: Vec<f64>,
    /// 1 − busy/total of the most idle stage during decode.
    pub max_bubble_fraction: f64,
}

/// One decode request: micro-batch `m` at token `step`, waiting from
/// `ready` for position `pos` of its chain (0 = master embed, 1..=k =
/// stage pos−1, k+1 = master logits).
#[derive(Debug, Clone, Copy)]
struct Req {
    ready: f64,
    /// `(ready, step, m, pos)` as integers, `ready` in
    /// `f64::total_cmp`'s integer order with −0 folded into +0, so it
    /// orders like `<` on every non-NaN time.
    key: (i64, usize, usize, usize),
}

impl Req {
    fn new(ready: f64, m: usize, step: usize, pos: usize) -> Req {
        let bits = (ready + 0.0).to_bits() as i64;
        let time = bits ^ ((((bits >> 63) as u64) >> 1) as i64);
        Req { ready, key: (time, step, m, pos) }
    }
}

impl PartialEq for Req {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Req {}

impl PartialOrd for Req {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reversed, so that `BinaryHeap`, a max-heap, pops the earliest
/// `(ready, step, m, pos)` first.
impl Ord for Req {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// Simulate one batch job. `stages` orders pipeline stages from input to
/// output.
#[allow(clippy::needless_range_loop)]
pub fn simulate_pipeline(stages: &[StageLoad], w: &PipelineWorkload) -> PipelineReport {
    assert!(!stages.is_empty(), "need at least one stage");
    assert!(w.prefill_microbatches > 0, "need at least one prefill micro-batch");
    assert!(w.n_tokens >= 1, "must generate at least one token");
    if w.n_tokens > 1 {
        assert!(w.decode_microbatches > 0, "decode requires micro-batches");
    }
    let n_stages = stages.len();
    let mut stage_free = vec![0.0f64; n_stages];
    let mut stage_busy = vec![0.0f64; n_stages];
    let mut master_free;

    // --- Prefill: free-streaming micro-batches ---
    // The master prioritizes feeding the pipeline: it embeds every
    // micro-batch back to back (they are all ready at t=0), then handles
    // logits jobs as stage outputs arrive.
    let half_master = w.master_prefill / 2.0;
    let mut prefill_end = 0.0f64;
    let embed_done: Vec<f64> = (0..w.prefill_microbatches)
        .map(|m| (m + 1) as f64 * half_master)
        .collect();
    master_free = w.prefill_microbatches as f64 * half_master;
    let mut stage_out = vec![0.0f64; w.prefill_microbatches];
    for (m, out) in stage_out.iter_mut().enumerate() {
        let mut t = embed_done[m];
        for (s, st) in stages.iter().enumerate() {
            let start = t.max(stage_free[s]);
            let done = start + st.prefill_time;
            stage_free[s] = done;
            stage_busy[s] += st.prefill_time;
            t = done + if s + 1 < n_stages { st.comm_prefill } else { 0.0 };
        }
        *out = t;
    }
    // Stage outputs complete in micro-batch order (stage occupancy is
    // FIFO), so processing logits in that order is arrival order.
    for &out in &stage_out {
        let start = out.max(master_free);
        let done = start + half_master;
        master_free = done;
        prefill_end = prefill_end.max(done);
    }

    // --- Decode: autoregressive steps with re-chunk barrier ---
    let decode_busy_start: Vec<f64> = stage_busy.clone();
    let mut decode_end = prefill_end;
    if w.n_tokens > 1 {
        for s in 0..n_stages {
            stage_free[s] = stage_free[s].max(prefill_end);
        }
        master_free = master_free.max(prefill_end);
        let half_dec = w.master_decode / 2.0;
        // Event-driven FIFO scheduling. Each micro-batch walks the chain
        //   master-embed → stage 0 → … → stage k−1 → master-logits
        // once per token step; every resource (master, each stage) is a
        // single FIFO server. Requests are served in ready-time order.
        // Each micro-batch has one request in flight, so the
        // (ready, step, m, pos) order is strict: the heap pops exactly
        // the sequence a scan for the minimum would, in O(log µ).
        let mut heap: BinaryHeap<Req> = (0..w.decode_microbatches)
            .map(|m| Req::new(prefill_end, m, 1, 0))
            .collect();
        // Every event but a micro-batch's last enqueues exactly one
        // successor, which replaces the popped request in place.
        let last_pos = n_stages + 1;
        while let Some(mut top) = heap.peek_mut() {
            let (ready, (_, step, m, pos)) = (top.ready, top.key);
            let done = if pos == 0 || pos == last_pos {
                let done = ready.max(master_free) + half_dec;
                master_free = done;
                done
            } else {
                let s = pos - 1;
                let done = ready.max(stage_free[s]) + stages[s].decode_time;
                stage_free[s] = done;
                stage_busy[s] += stages[s].decode_time;
                done
            };
            if pos == last_pos {
                decode_end = decode_end.max(done);
                if step + 1 < w.n_tokens {
                    *top = Req::new(done, m, step + 1, 0);
                } else {
                    PeekMut::pop(top);
                }
            } else {
                let comm = if pos >= 1 && pos < n_stages { stages[pos - 1].comm_decode } else { 0.0 };
                *top = Req::new(done + comm, m, step, pos + 1);
            }
        }
    }

    let decode_span = (decode_end - prefill_end).max(f64::MIN_POSITIVE);
    let max_bubble = if w.n_tokens > 1 {
        (0..n_stages)
            .map(|s| 1.0 - (stage_busy[s] - decode_busy_start[s]) / decode_span)
            .fold(0.0f64, f64::max)
    } else {
        0.0
    };

    PipelineReport {
        prefill_latency: prefill_end,
        decode_latency: decode_end - prefill_end,
        total_latency: decode_end,
        stage_busy,
        max_bubble_fraction: max_bubble.clamp(0.0, 1.0),
    }
}

/// MTTF/MTTR failure model for a pipeline run, quantifying what the
/// runtime supervisor's recovery paths cost in expectation.
///
/// Transient faults (worker crash, hang, dropped message) strike each
/// stage as a Poisson process with mean time to failure `mttf_s`; each
/// costs a detection+restart round trip plus the
/// re-prefill of the lock-step checkpoint. A *permanent* device loss
/// additionally forces a replan: Algorithm 1 on the survivors plus the
/// on-the-fly reload, after which the remaining tokens run at the
/// degraded plan's (usually slower) rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    /// Mean time to (transient) failure per stage, seconds.
    pub mttf_s: f64,
    /// Mean time to detect + repair a transient failure (heartbeat
    /// timeout, backoff, worker respawn), seconds.
    pub mttr_s: f64,
    /// Fixed overhead per restart beyond `mttr_s` (channel teardown,
    /// KV-cache reallocation), seconds.
    pub restart_overhead_s: f64,
    /// Replan cost on permanent loss: assigner wall-clock plus the
    /// on-the-fly quantizing reload of re-homed shards, seconds.
    pub replan_overhead_s: f64,
    /// Latency multiplier (≥ 1) of the replanned pipeline relative to
    /// the original — the price of running on fewer devices.
    pub replan_slowdown: f64,
}

impl Default for FailureModel {
    fn default() -> Self {
        Self {
            mttf_s: 24.0 * 3600.0,
            mttr_s: 5.0,
            restart_overhead_s: 1.0,
            replan_overhead_s: 30.0,
            replan_slowdown: 1.5,
        }
    }
}

/// Expected cost of the supervisor's recovery paths for one batch job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Fault-free batch latency (s).
    pub fault_free_latency: f64,
    /// Expected number of transient failures during the run (over all
    /// stages).
    pub expected_transient_failures: f64,
    /// Expected latency with restart-based recovery of transient
    /// failures (s).
    pub restart_latency: f64,
    /// Latency when one device is lost permanently mid-run and the
    /// supervisor replans onto the survivors (s).
    pub replan_latency: f64,
    /// Latency under restart-only recovery when the loss is permanent:
    /// infinite, since the same plan can never complete.
    pub restart_only_permanent_latency: f64,
    /// `(restart_latency − fault_free) / fault_free`.
    pub transient_overhead_fraction: f64,
}

/// Quantify recovery cost for a pipeline described by `stages`/`w` under
/// failure model `fm`.
///
/// Work lost per failure is one re-prefill of the checkpointed context
/// (lock-step checkpointing truncates to the last complete token, and
/// resume replays prompt + prefix through the pipeline once), which the
/// fault-free prefill latency approximates. The permanent loss is
/// assumed to strike at the half-way point of the run.
pub fn recovery_cost(stages: &[StageLoad], w: &PipelineWorkload, fm: &FailureModel) -> RecoveryReport {
    assert!(fm.mttf_s > 0.0, "mttf must be positive");
    assert!(fm.replan_slowdown >= 1.0, "a replanned pipeline cannot be faster");
    let base = simulate_pipeline(stages, w);
    let t0 = base.total_latency;
    let lost_per_failure = base.prefill_latency;
    let n_fail = t0 / fm.mttf_s * stages.len() as f64;
    let restart_latency =
        t0 + n_fail * (fm.mttr_s + fm.restart_overhead_s + lost_per_failure);
    let tau = t0 / 2.0;
    let replan_latency =
        tau + fm.mttr_s + fm.replan_overhead_s + lost_per_failure + (t0 - tau) * fm.replan_slowdown;
    RecoveryReport {
        fault_free_latency: t0,
        expected_transient_failures: n_fail,
        restart_latency,
        replan_latency,
        restart_only_permanent_latency: f64::INFINITY,
        transient_overhead_fraction: (restart_latency - t0) / t0,
    }
}

/// The paper's closed-form objective (eq. 4): pipeline latency
/// `(µ_pre −1)·T_max_pre + ΣT_pre + ((n−1)·µ_dec −1)·T_max_dec + ΣT_dec`,
/// with per-stage times including outgoing communication. The ILP
/// minimizes this; the DES above validates it.
pub fn analytical_latency(stages: &[StageLoad], w: &PipelineWorkload) -> f64 {
    let pre: Vec<f64> = stages.iter().map(|s| s.prefill_time + s.comm_prefill).collect();
    let dec: Vec<f64> = stages.iter().map(|s| s.decode_time + s.comm_decode).collect();
    let t_max_pre = pre.iter().cloned().fold(w.master_prefill, f64::max);
    let t_max_dec = dec.iter().cloned().fold(w.master_decode, f64::max);
    let sum_pre: f64 = pre.iter().sum::<f64>() + w.master_prefill;
    let sum_dec: f64 = dec.iter().sum::<f64>() + w.master_decode;
    let prefill = (w.prefill_microbatches as f64 - 1.0) * t_max_pre + sum_pre;
    let decode_steps = (w.n_tokens.saturating_sub(1) * w.decode_microbatches) as f64;
    let decode = if decode_steps > 0.0 {
        (decode_steps - 1.0) * t_max_dec + sum_dec
    } else {
        0.0
    };
    prefill + decode
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_stages(n: usize, pre: f64, dec: f64) -> Vec<StageLoad> {
        vec![
            StageLoad { prefill_time: pre, decode_time: dec, comm_prefill: 0.0, comm_decode: 0.0 };
            n
        ]
    }

    fn wl(mu_p: usize, mu_d: usize, n: usize) -> PipelineWorkload {
        PipelineWorkload {
            prefill_microbatches: mu_p,
            decode_microbatches: mu_d,
            n_tokens: n,
            master_prefill: 0.0,
            master_decode: 0.0,
        }
    }

    #[test]
    fn single_stage_single_microbatch() {
        let stages = uniform_stages(1, 2.0, 0.1);
        let r = simulate_pipeline(&stages, &wl(1, 1, 11));
        assert!((r.prefill_latency - 2.0).abs() < 1e-9);
        assert!((r.decode_latency - 1.0).abs() < 1e-9);
        assert!((r.total_latency - 3.0).abs() < 1e-9);
    }

    #[test]
    fn pipelining_overlaps_microbatches() {
        // 4 stages × 1s each; 4 micro-batches: perfect pipeline finishes
        // in 4 (fill) + 3 (drain) = 7s, far below serial 16s.
        let stages = uniform_stages(4, 1.0, 0.0);
        let r = simulate_pipeline(&stages, &wl(4, 1, 1));
        assert!((r.prefill_latency - 7.0).abs() < 1e-9, "got {}", r.prefill_latency);
    }

    #[test]
    fn slowest_stage_bounds_throughput() {
        let mut stages = uniform_stages(3, 1.0, 0.0);
        stages[1].prefill_time = 3.0; // straggler
        let r = simulate_pipeline(&stages, &wl(8, 1, 1));
        // Steady state: one micro-batch per 3s through the straggler.
        let expect = analytical_latency(&stages, &wl(8, 1, 1));
        assert!((r.prefill_latency - expect).abs() / expect < 0.05, "{} vs {expect}", r.prefill_latency);
    }

    #[test]
    fn matches_analytical_formula_when_saturated() {
        let stages = uniform_stages(4, 2.0, 0.2);
        let w = wl(8, 4, 50);
        let des = simulate_pipeline(&stages, &w).total_latency;
        let ana = analytical_latency(&stages, &w);
        let err = (des - ana).abs() / ana;
        assert!(err < 0.10, "DES {des:.2} vs analytical {ana:.2} ({:.1}%)", err * 100.0);
    }

    #[test]
    fn decode_dependency_serializes_single_microbatch() {
        // With one decode micro-batch, steps cannot overlap: each token
        // must traverse the whole pipeline before the next starts.
        let stages = uniform_stages(3, 1.0, 0.5);
        let r = simulate_pipeline(&stages, &wl(1, 1, 11));
        // 10 decode steps × 3 stages × 0.5s
        assert!((r.decode_latency - 15.0).abs() < 1e-9, "got {}", r.decode_latency);
        assert!(r.max_bubble_fraction > 0.5, "pipeline mostly idle per stage");
    }

    #[test]
    fn more_decode_microbatches_fill_bubbles() {
        let stages = uniform_stages(4, 1.0, 0.5);
        let one = simulate_pipeline(&stages, &wl(1, 1, 21));
        let four = simulate_pipeline(&stages, &wl(1, 4, 21));
        // 4 µ-batches of work is 4× the tokens, but overlap means far
        // less than 4× the time.
        assert!(four.decode_latency < 2.0 * one.decode_latency);
        assert!(four.max_bubble_fraction < one.max_bubble_fraction);
    }

    #[test]
    fn comm_time_extends_latency() {
        let mut stages = uniform_stages(2, 1.0, 0.1);
        let base = simulate_pipeline(&stages, &wl(2, 2, 10)).total_latency;
        stages[0].comm_prefill = 0.5;
        stages[0].comm_decode = 0.5;
        let slow = simulate_pipeline(&stages, &wl(2, 2, 10)).total_latency;
        assert!(slow > base);
    }

    #[test]
    fn master_engine_is_a_serial_resource() {
        let stages = uniform_stages(2, 1.0, 0.1);
        let mut w = wl(4, 2, 5);
        w.master_prefill = 2.0; // master slower than the stages
        let r = simulate_pipeline(&stages, &w);
        // Master alone needs 4 × 2s just for prefill pre/post-processing.
        assert!(r.prefill_latency >= 8.0);
    }

    #[test]
    fn stage_busy_accounts_all_work() {
        let stages = uniform_stages(3, 1.0, 0.25);
        let w = wl(4, 2, 9);
        let r = simulate_pipeline(&stages, &w);
        for s in 0..3 {
            let expect = 4.0 * 1.0 + (2 * 8) as f64 * 0.25;
            assert!((r.stage_busy[s] - expect).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn rejects_empty_pipeline() {
        simulate_pipeline(&[], &wl(1, 1, 1));
    }

    #[test]
    fn n_tokens_one_skips_decode() {
        let stages = uniform_stages(2, 1.0, 9.0);
        let r = simulate_pipeline(&stages, &wl(2, 0, 1));
        assert_eq!(r.decode_latency, 0.0);
    }

    #[test]
    fn reliable_cluster_has_negligible_recovery_overhead() {
        let stages = uniform_stages(3, 1.0, 0.1);
        let w = wl(4, 2, 10);
        let fm = FailureModel { mttf_s: 1e9, ..FailureModel::default() };
        let r = recovery_cost(&stages, &w, &fm);
        assert!(r.expected_transient_failures < 1e-6);
        assert!((r.restart_latency - r.fault_free_latency) / r.fault_free_latency < 1e-6);
        assert!(r.transient_overhead_fraction < 1e-6);
    }

    #[test]
    fn flaky_cluster_pays_for_restarts() {
        let stages = uniform_stages(3, 1.0, 0.1);
        let w = wl(4, 2, 10);
        let good = recovery_cost(&stages, &w, &FailureModel { mttf_s: 1e6, ..FailureModel::default() });
        let bad = recovery_cost(&stages, &w, &FailureModel { mttf_s: 30.0, ..FailureModel::default() });
        assert!(bad.expected_transient_failures > good.expected_transient_failures);
        assert!(bad.restart_latency > good.restart_latency);
        assert!(bad.transient_overhead_fraction > 0.1);
    }

    #[test]
    fn replan_is_finite_where_restart_is_not() {
        let stages = uniform_stages(3, 1.0, 0.1);
        let w = wl(4, 2, 10);
        let r = recovery_cost(&stages, &w, &FailureModel::default());
        assert!(r.restart_only_permanent_latency.is_infinite());
        assert!(r.replan_latency.is_finite());
        assert!(
            r.replan_latency > r.fault_free_latency,
            "recovery is never free: {} vs {}",
            r.replan_latency,
            r.fault_free_latency
        );
    }

    #[test]
    fn slower_replanned_pipeline_costs_more() {
        let stages = uniform_stages(3, 1.0, 0.1);
        let w = wl(4, 2, 10);
        let mild = recovery_cost(&stages, &w, &FailureModel { replan_slowdown: 1.1, ..FailureModel::default() });
        let harsh = recovery_cost(&stages, &w, &FailureModel { replan_slowdown: 3.0, ..FailureModel::default() });
        assert!(harsh.replan_latency > mild.replan_latency);
    }

    #[test]
    #[should_panic(expected = "mttf must be positive")]
    fn rejects_nonpositive_mttf() {
        let stages = uniform_stages(1, 1.0, 0.1);
        recovery_cost(&stages, &wl(1, 1, 2), &FailureModel { mttf_s: 0.0, ..FailureModel::default() });
    }
}
