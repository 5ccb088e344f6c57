//! Ablation: overload behavior past the saturation point.
//!
//! Calibrates the cluster-3 LLM-PQ plan's serving capacity from the
//! cost profile, then drives the continuous-batching serving loop
//! (admission + paged KV + degradation) at 0.5×/1×/2×/4× that capacity
//! under each admission policy, reporting goodput, tail sojourn,
//! shed/expired counts, and the degradation ladder's rung trajectory.
//! The acceptance bar: at 4× capacity under deadline shedding, goodput
//! stays within 90% of the 1× goodput (load shedding keeps useful work
//! flowing instead of collapsing), and the ladder demonstrably steps
//! down and recovers.
//!
//! `run_all ablation_overload --soak SECS` instead runs the same loop
//! over the *real* stage ring (tiny stand-in model, one thread per
//! stage) at 2× capacity with a crash fault in every round, checking
//! request conservation and that RSS stays bounded — the CI
//! overload-soak job drives this mode under a wall-clock watchdog.

use crate::{zoo_indicator, Args, Out, ServingSetup, TextTable};
use llm_pq::evaluate::batch_latency;
use llm_pq::{degradation_ladder, AssignerConfig, ExecutionPlan, MicrobatchPlan, DEFAULT_CAPS};
use llmpq_cost::CostDb;
use llmpq_model::{RefConfig, RefModel};
use llmpq_quant::{Bitwidth, Rounding};
use llmpq_runtime::{
    poisson_requests, serve_continuous, AdmissionConfig, AdmissionPolicy, AdmissionStats,
    ContinuousConfig, ContinuousScheduler, DegradationConfig, DistServeConfig, DistStepEngine,
    FaultPlan, IterCost, KvPoolConfig, SimStepEngine,
};
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;

const PROMPT_LEN: usize = 32;
const N_GENERATE: usize = 32;
const MAX_BATCH: usize = 8;

fn plan_cost(plan: &ExecutionPlan, setup: &ServingSetup, db: &CostDb, b: usize) -> f64 {
    let job = BatchJob { global_batch: b, prompt_len: PROMPT_LEN, n_generate: N_GENERATE };
    batch_latency(plan, &setup.cluster, &setup.spec, db, &job)
}

fn rss_kib() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4) // 4 KiB pages
}

pub fn run(out: &mut Out, args: &Args) {
    match args.value("--soak") {
        Some(secs) => {
            soak(out, secs.parse().unwrap_or_else(|_| panic!("--soak takes whole seconds, got '{secs}'")))
        }
        None => sweep(out),
    }
}

/// The rate sweep over admission policies, on the cost-profile engine.
fn sweep(out: &mut Out) {
    say!(out, "Ablation — overload control past saturation, cluster 3\n");
    let setup = ServingSetup::paper(3);
    let db = CostDb::oracle(&KernelEnv::default());
    let indicator = zoo_indicator(&setup.spec);
    // Trimmed search so the four ladder solves stay interactive.
    let cfg = AssignerConfig { max_orderings: 2, dp_grid: Some(8), ..setup.cfg };
    let job = BatchJob { global_batch: MAX_BATCH, prompt_len: PROMPT_LEN, n_generate: N_GENERATE };
    let ladder =
        degradation_ladder(&setup.cluster, &setup.spec, &job, &db, &indicator, &cfg, &DEFAULT_CAPS)
            .expect("ladder");
    say!(out, "degradation ladder: {} rungs", ladder.len());
    for r in &ladder.rungs {
        say!(out,
            "  {}: predicted {:.2}s/batch, quality cost {:.3}, mean {:.1} bits",
            r.label, r.predicted_latency_s, r.quality_cost, r.mean_bits
        );
    }

    // Per-rung iteration cost fitted from the plan's batch cost at
    // batch 1 and MAX_BATCH, and capacity from rung 0 at full batch.
    let batch_costs: Vec<(f64, f64)> = ladder
        .rungs
        .iter()
        .map(|r| (plan_cost(&r.plan, &setup, &db, 1), plan_cost(&r.plan, &setup, &db, MAX_BATCH)))
        .collect();
    let costs: Vec<IterCost> = batch_costs
        .iter()
        .map(|&(c1, cb)| IterCost::fit_batch(c1, cb, MAX_BATCH, PROMPT_LEN, N_GENERATE))
        .collect();
    let (c1, cb) = batch_costs[0];
    let capacity_rps = MAX_BATCH as f64 / cb;
    say!(out, "\ncalibrated capacity (rung 0, batch {MAX_BATCH}): {capacity_rps:.2} req/s\n");

    // KV pool: room for a small multiple of the batch at full length.
    let block_tokens = 16;
    let pool = KvPoolConfig {
        n_blocks: 2 * MAX_BATCH * (PROMPT_LEN + N_GENERATE).div_ceil(block_tokens),
        block_tokens,
    };

    let n_requests = 200usize;
    let deadline_s = 8.0 * c1; // generous SLO: 8× single-request service
    let policies =
        [AdmissionPolicy::Reject, AdmissionPolicy::DeadlineShed, AdmissionPolicy::QueueTimeout];
    let mut table = TextTable::new(&[
        "rate", "policy", "offered", "served", "shed", "expired", "goodput (req/s)",
        "p50 (s)", "p99 (s)", "rung peak", "rung final",
    ]);
    let mut goodput_1x_deadline = 0.0f64;
    let mut goodput_4x_deadline = 0.0f64;
    let mut peak_rung_4x = 0usize;
    let mut final_rung_4x = 0usize;
    for mult in [0.5, 1.0, 2.0, 4.0] {
        let rate = capacity_rps * mult;
        // Burst at the target rate, then a quiet drain tail so the
        // ladder's recovery (step back up) is observable in-run.
        let mut requests =
            poisson_requests(n_requests, rate, PROMPT_LEN, N_GENERATE, 17).expect("arrivals");
        let burst_end = requests.last().map(|r| r.arrival_s).unwrap_or(0.0);
        for (i, mut r) in poisson_requests(20, capacity_rps * 0.2, PROMPT_LEN, N_GENERATE, 18)
            .expect("tail")
            .into_iter()
            .enumerate()
        {
            r.id = n_requests + i;
            r.arrival_s += burst_end;
            requests.push(r);
        }
        for policy in policies {
            let engine = SimStepEngine::new(pool, costs.clone(), 97, 17);
            let cfg = ContinuousConfig {
                admission: AdmissionConfig {
                    policy,
                    max_queue: 4 * MAX_BATCH,
                    default_deadline_s: Some(deadline_s),
                    queue_timeout_s: deadline_s,
                },
                token_budget: MAX_BATCH * PROMPT_LEN,
                max_batch: MAX_BATCH,
                degradation: Some(DegradationConfig { high: 0.75, low: 0.25, dwell: 2 }),
                ..ContinuousConfig::default()
            };
            let mut sched = ContinuousScheduler::new(engine, cfg).expect("scheduler");
            let makespan = sched.run_trace(&requests).expect("trace");
            let peak_rung = sched.transitions().iter().map(|t| t.to).max().unwrap_or(0);
            let final_rung = sched.rung();
            let rep = sched.into_report(makespan, "continuous");
            assert!(rep.conserves(), "conservation violated: {:?}", rep.stats);
            let sojourn = rep.sojourn.expect("something was served");
            table.row(vec![
                format!("{mult:.1}x"),
                policy.to_string(),
                format!("{}", rep.stats.offered),
                format!("{}", rep.stats.served),
                format!("{}", rep.stats.shed),
                format!("{}", rep.stats.expired),
                format!("{:.2}", rep.goodput_rps),
                format!("{:.2}", sojourn.p50),
                format!("{:.2}", sojourn.p99),
                format!("{peak_rung}"),
                format!("{final_rung}"),
            ]);
            if policy == AdmissionPolicy::DeadlineShed {
                if mult == 1.0 {
                    goodput_1x_deadline = rep.goodput_rps;
                }
                if mult == 4.0 {
                    goodput_4x_deadline = rep.goodput_rps;
                    peak_rung_4x = peak_rung;
                    final_rung_4x = final_rung;
                }
            }
        }
    }
    out.table(&table);

    // Acceptance: overload must not collapse goodput, and the ladder
    // must both engage and release.
    say!(out,
        "deadline-shed goodput: 1x {:.2} req/s, 4x {:.2} req/s ({:.0}% retained)",
        goodput_1x_deadline,
        goodput_4x_deadline,
        100.0 * goodput_4x_deadline / goodput_1x_deadline.max(1e-9),
    );
    assert!(
        goodput_4x_deadline >= 0.9 * goodput_1x_deadline,
        "goodput collapsed past saturation: 4x {goodput_4x_deadline:.2} vs 1x {goodput_1x_deadline:.2}"
    );
    assert!(peak_rung_4x >= 1, "ladder never stepped down at 4x capacity");
    assert_eq!(final_rung_4x, 0, "ladder did not recover after the burst drained");
    say!(out, "PASS: goodput retained >= 90% at 4x, ladder engaged (peak rung {peak_rung_4x}) and recovered");
}

/// `--soak <seconds>`: the real stage ring under sustained 2× overload
/// with a crash injected every round, watching conservation and RSS.
fn soak(out: &mut Out, secs: u64) {
    say!(out, "Overload soak: real stage ring at 2x capacity with faults, {secs}s\n");
    let n_layers = 4usize;
    let checkpoint = RefModel::new(RefConfig::scaled_like(n_layers, 77));
    // Two rungs built by hand (full-quality and all-int4) — the soak
    // exercises the serving loop and ring recovery, not the solver.
    let mb = MicrobatchPlan { prefill_size: 2, prefill_count: 1, decode_size: 2, decode_count: 1 };
    let mk_plan = |bits| ExecutionPlan::contiguous("soak", "duo", vec![vec![bits; 2]; 2], mb);
    let plans = vec![mk_plan(Bitwidth::Fp16), mk_plan(Bitwidth::Int4)];
    let max_batch = 4usize;
    let ring = |faults: Option<FaultPlan>| {
        DistStepEngine::over_channels(
            &checkpoint,
            plans.clone(),
            Rounding::Deterministic,
            0,
            DistServeConfig { n_slots: max_batch, ..DistServeConfig::default() },
            faults,
        )
        .expect("ring engine")
    };

    // Calibrate capacity (on the engine's virtual clock) with one
    // warmup batch arriving at once.
    let warm = poisson_requests(max_batch, 1e6, 4, 4, 999).expect("warmup");
    let warm_cfg = ContinuousConfig { max_batch, ..ContinuousConfig::default() };
    let warm_rep = serve_continuous(ring(None), &warm, warm_cfg).expect("warmup run");
    let capacity_rps = warm_rep.completed as f64 / warm_rep.makespan_s;
    say!(out, "calibrated capacity: {capacity_rps:.1} req/s (virtual clock)");

    let rss_start = rss_kib().unwrap_or(0);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
    let mut round = 0u64;
    let mut total = AdmissionStats::default();
    let mut restarts = 0u64;
    while std::time::Instant::now() < deadline {
        round += 1;
        // One crash per round, alternating stages.
        let engine = ring(Some(FaultPlan::crash_schedule(&[(round as usize % 2, 1)])));
        let requests =
            poisson_requests(24, capacity_rps * 2.0, 4, 4, 1000 + round).expect("arrivals");
        let cfg = ContinuousConfig {
            admission: AdmissionConfig {
                policy: AdmissionPolicy::DeadlineShed,
                max_queue: 12,
                default_deadline_s: Some(24.0 / capacity_rps),
                queue_timeout_s: 24.0 / capacity_rps,
            },
            max_batch,
            degradation: Some(DegradationConfig { high: 0.7, low: 0.2, dwell: 2 }),
            ..ContinuousConfig::default()
        };
        let mut sched = ContinuousScheduler::new(engine, cfg).expect("scheduler");
        let makespan = sched.run_trace(&requests).expect("round");
        restarts += sched.engine().restarts();
        let rep = sched.into_report(makespan, "continuous");
        assert!(rep.conserves(), "round {round}: conservation violated: {:?}", rep.stats);
        assert_eq!(
            rep.outputs.len(),
            rep.stats.served,
            "round {round}: served requests without outputs"
        );
        total.offered += rep.stats.offered;
        total.served += rep.stats.served;
        total.shed += rep.stats.shed;
        total.expired += rep.stats.expired;
        total.recovered += rep.stats.recovered;
        if round.is_multiple_of(50) {
            let rss = rss_kib().unwrap_or(0);
            say!(out,
                "round {round}: offered {} served {} shed {} expired {} | restarts {restarts} | rss {rss} KiB",
                total.offered, total.served, total.shed, total.expired
            );
        }
    }
    let rss_end = rss_kib().unwrap_or(0);
    assert!(total.conserves(0), "soak lost requests: {total:?}");
    assert!(total.served > 0, "soak made no progress");
    assert!(restarts > 0, "the injected crashes never cost a ring restart");
    // RSS must stay bounded: allow generous slack for allocator noise,
    // but catch a real leak (unbounded queues would grow far past this).
    let growth = rss_end.saturating_sub(rss_start);
    assert!(growth < 256 * 1024, "RSS grew {growth} KiB during the soak — leak?");
    say!(out,
        "\nPASS: {round} rounds, {} offered / {} served / {} shed / {} expired, \
         {restarts} ring restarts ({} requests requeued), RSS {rss_start} -> {rss_end} KiB",
        total.offered, total.served, total.shed, total.expired, total.recovered
    );
}
