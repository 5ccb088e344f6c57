//! Property tests for the planner: random small cluster deltas (±1–2
//! devices) must leave the warm-started objective exactly equal to a
//! fresh planner's on the same fleet, caches must be reused across
//! deltas and correctly invalidated when the cost database or device
//! classes change. Algorithm 1 has one implementation, so there is no
//! unpruned, unmemoised twin to compare it with; the two things its
//! exactness rests on are properties here too — the plan lower bound
//! never exceeds the simulated latency, and the evaluation cache
//! answers exactly what `evaluate_plan` answers.
//!
//! Case counts are kept small (each case runs several full assigner
//! passes); the properties are about *equivalence*, not coverage
//! volume — any divergence at all is a bug.

use llm_pq::assigner::{even_plan, plan_lower_bound};
use llm_pq::transfer::heuristic_solve;
use llm_pq::{
    build_problem, device_orderings, evaluate_plan, solution_to_plan, AssignerConfig, CostCache,
    EvalCache, ExecutionPlan, IncrementalPlanner, PlanOrigin, SolverChoice, StagePlan,
};
use llmpq_cluster::{paper_cluster, Cluster, GpuModel, Interconnect};
use llmpq_cost::CostDb;
use llmpq_model::{zoo, ModelFamily, ModelSpec};
use llmpq_quant::{Bitwidth, IndicatorTable};
use llmpq_sim::KernelEnv;
use llmpq_workload::{microbatch_counts, BatchJob};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn tiny_spec() -> ModelSpec {
    ModelSpec::new(ModelFamily::Opt, "tiny-4l", 4, 64, 4, 256, 128)
}

fn tiny_indicator(n_layers: usize) -> IndicatorTable {
    IndicatorTable {
        omega: (0..n_layers)
            .map(|l| {
                let base = 1.0 / (1.0 + l as f64);
                [base, base * 0.2, base * 0.01, 0.0]
            })
            .collect(),
    }
}

fn quick_cfg() -> AssignerConfig {
    AssignerConfig {
        theta: 0.05,
        solver: SolverChoice::Dp { group: 1 },
        xi: 2,
        max_orderings: 2,
        // Exhaustive (T_pre, T_dec) candidates: warm == cold holds
        // exactly. Under grid subsampling the warm incumbent's realized
        // maxima are injected into the candidate lists, so warm may
        // legitimately *beat* a coarse cold solve — a different (and
        // weaker) property than the equivalence these tests pin down.
        dp_grid: None,
        search_kv8: false,
        max_bits: None,
    }
}

fn job() -> BatchJob {
    BatchJob { global_batch: 4, prompt_len: 8, n_generate: 5 }
}

fn cluster_of(name: &str, devices: &[GpuModel]) -> Cluster {
    let mut groups: BTreeMap<GpuModel, usize> = BTreeMap::new();
    for &g in devices {
        *groups.entry(g).or_insert(0) += 1;
    }
    let groups: Vec<(GpuModel, usize)> = groups.into_iter().collect();
    Cluster::from_groups(name, &groups, Interconnect::Ethernet800G, None)
}

fn gpu_strategy() -> impl Strategy<Value = GpuModel> {
    prop_oneof![
        Just(GpuModel::T4_16G),
        Just(GpuModel::V100_32G),
        Just(GpuModel::A100_40G),
    ]
}

/// Clamp a raw draw into a ±1–2 device delta that always keeps at
/// least two survivors (so the new fleet shares device classes with
/// the old one and warm-starting is on the table) and is never a
/// no-op.
fn clamp_delta(
    base: &[GpuModel],
    remove: usize,
    mut added: Vec<GpuModel>,
) -> (usize, Vec<GpuModel>) {
    let remove = remove.min(base.len().saturating_sub(2));
    if remove == 0 && added.is_empty() {
        added.push(GpuModel::T4_16G);
    }
    (remove, added)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// After a small delta (±1–2 devices), the warm-started planner
    /// finds exactly the cold objective on the new fleet — the warm
    /// path only prunes work, never the optimum — and actually reuses
    /// its cost cache across the delta.
    #[test]
    fn warm_objective_equals_cold_after_small_delta(
        (base, raw_remove, raw_added) in (
            prop::collection::vec(gpu_strategy(), 3..=6),
            0usize..=2,
            prop::collection::vec(gpu_strategy(), 0..=2),
        )
    ) {
        let (remove, added) = clamp_delta(&base, raw_remove, raw_added);
        let spec = tiny_spec();
        let indicator = tiny_indicator(spec.n_layers);
        let db = CostDb::oracle(&KernelEnv::default());
        let cfg = quick_cfg();
        let theta = cfg.theta;

        let old = cluster_of("old", &base);
        let mut devices: Vec<GpuModel> = base[remove..].to_vec();
        devices.extend_from_slice(&added);
        let new = cluster_of("new", &devices);

        let mut warm = IncrementalPlanner::new(spec.clone(), job(), cfg);
        warm.plan(&old, &db, &indicator).expect("base fleet plans");

        let mut cold = IncrementalPlanner::new(spec, job(), cfg);
        match (warm.plan(&new, &db, &indicator), cold.plan(&new, &db, &indicator)) {
            (Ok(w), Ok(c)) => {
                let wo = w.objective(theta);
                let co = c.objective(theta);
                prop_assert!(
                    (wo - co).abs() <= 1e-9 * co.abs().max(1.0),
                    "warm objective {wo} != cold {co} after delta -{remove}+{} on {} devices",
                    added.len(),
                    base.len(),
                );
                // When the delta preserves the set of device classes
                // the cost cache survives it (the DB fingerprint probe
                // hashes per-class latencies, so a class-set change
                // conservatively clears the cache) and the surviving
                // classes must hit the memoized entries from the base
                // round.
                let classes = |d: &[GpuModel]| {
                    d.iter().copied().collect::<std::collections::BTreeSet<_>>()
                };
                if classes(&devices) == classes(&base) {
                    prop_assert!(
                        w.stats.cost.hits > 0,
                        "no cost-cache reuse across the delta: {:?}",
                        w.stats
                    );
                }
                if w.origin == PlanOrigin::WarmStart {
                    prop_assert!(w.stats.hints_applied > 0);
                }
            }
            // If the new fleet is infeasible for one planner it must be
            // infeasible for both — warm-starting must not change
            // feasibility in either direction.
            (Err(_), Err(_)) => {}
            (w, c) => prop_assert!(
                false,
                "feasibility diverged: warm {:?} vs cold {:?}",
                w.map(|o| o.origin),
                c.map(|o| o.origin)
            ),
        }
    }

    /// Replanning the *same* fleet twice must reuse both caches (the
    /// second round is mostly hits) and land on the identical
    /// objective.
    #[test]
    fn identical_replan_is_served_from_cache(
        base in prop::collection::vec(gpu_strategy(), 3..=5)
    ) {
        let spec = tiny_spec();
        let indicator = tiny_indicator(spec.n_layers);
        let db = CostDb::oracle(&KernelEnv::default());
        let cfg = quick_cfg();
        let theta = cfg.theta;
        let cluster = cluster_of("same", &base);

        let mut planner = IncrementalPlanner::new(spec, job(), cfg);
        let first = planner.plan(&cluster, &db, &indicator).expect("first plan");
        let second = planner.plan(&cluster, &db, &indicator).expect("second plan");

        prop_assert!(
            (first.objective(theta) - second.objective(theta)).abs() <= 1e-12,
            "identical fleet, different objective"
        );
        prop_assert!(second.stats.eval.hits > 0, "evaluation cache unused: {:?}", second.stats);
        prop_assert!(
            second.stats.cost.hit_rate() > 0.5,
            "cost cache mostly missed on an identical replan: {:?}",
            second.stats.cost
        );
        prop_assert!(second.stats.omega.hits > 0, "omega cache unused: {:?}", second.stats);
    }

    /// Changing the cost database between rounds must invalidate
    /// everything derived from the old one — memoized cost entries
    /// *and* memoized plan evaluations: the planner's answer on the new
    /// database is the plan a fresh planner finds on that database.
    /// `tiny_spec` is insensitive to `max_mfu`, so opt-30b on paper
    /// cluster 3 (where stale evaluations picked a different plan) rides
    /// along as a second input.
    #[test]
    fn cost_db_change_invalidates_the_cache(
        base in prop::collection::vec(gpu_strategy(), 3..=5)
    ) {
        let db1 = CostDb::oracle(&KernelEnv::default());
        let db2 = CostDb::oracle(&KernelEnv { max_mfu: 0.1, ..KernelEnv::default() });
        let opt30b = zoo::opt_30b();
        let opt30b_indicator = IndicatorTable {
            omega: (0..opt30b.n_layers)
                .map(|l| {
                    let base = 1.0 / (1.0 + l as f64 * 0.15);
                    [base, base * 0.22, base * 0.01, 0.0]
                })
                .collect(),
        };
        let opt30b_cfg = AssignerConfig {
            theta: 0.1,
            solver: SolverChoice::Dp { group: 8 },
            dp_grid: Some(8),
            ..quick_cfg()
        };
        let inputs = [
            (tiny_spec(), tiny_indicator(4), job(), quick_cfg(), cluster_of("dbflip", &base)),
            (opt30b, opt30b_indicator, BatchJob::paper_default(), opt30b_cfg, paper_cluster(3)),
        ];
        for (spec, indicator, job, cfg, cluster) in inputs {
            let theta = cfg.theta;
            let mut warm = IncrementalPlanner::new(spec.clone(), job, cfg);
            warm.plan(&cluster, &db1, &indicator).expect("plan on db1");
            let switched = warm.plan(&cluster, &db2, &indicator).expect("plan on db2");

            let mut cold = IncrementalPlanner::new(spec.clone(), job, cfg);
            let fresh = cold.plan(&cluster, &db2, &indicator).expect("cold plan on db2");

            prop_assert!(
                (switched.objective(theta) - fresh.objective(theta)).abs()
                    <= 1e-9 * fresh.objective(theta).abs().max(1.0),
                "{}: stale entries leaked across the database change: warm {} vs cold {}",
                spec.name,
                switched.objective(theta),
                fresh.objective(theta)
            );
            prop_assert_eq!(
                &switched.outcome.plan,
                &fresh.outcome.plan,
                "{}: plan after the database change differs from a fresh planner's",
                spec.name
            );
        }
    }

    /// Swapping every device class between rounds must not let the old
    /// classes' cost entries answer for the new ones: the fingerprint
    /// probe (which hashes per-class latencies of the *current* fleet)
    /// detects the swap and clears stale entries, so the warm planner's
    /// answer and its rebuilt cache both match a cold solve exactly.
    #[test]
    fn device_class_change_misses_into_fresh_entries(
        n in 3usize..=5
    ) {
        let spec = tiny_spec();
        let indicator = tiny_indicator(spec.n_layers);
        let db = CostDb::oracle(&KernelEnv::default());
        let cfg = quick_cfg();
        let theta = cfg.theta;
        let old = cluster_of("cls-a", &vec![GpuModel::T4_16G; n]);
        let new = cluster_of("cls-b", &vec![GpuModel::A100_40G; n]);

        let mut warm = IncrementalPlanner::new(spec.clone(), job(), cfg);
        warm.plan(&old, &db, &indicator).expect("plan on the T4 fleet");
        let switched = warm.plan(&new, &db, &indicator).expect("plan on the A100 fleet");

        let mut cold = IncrementalPlanner::new(spec, job(), cfg);
        let fresh = cold.plan(&new, &db, &indicator).expect("cold plan on the A100 fleet");

        prop_assert!(
            (switched.objective(theta) - fresh.objective(theta)).abs()
                <= 1e-9 * fresh.objective(theta).abs().max(1.0),
            "old device class answered for the new one: warm {} vs cold {}",
            switched.objective(theta),
            fresh.objective(theta)
        );
        // The stale T4 entries were cleared; everything left was
        // rebuilt for the A100 fleet, so the caches of the two planners
        // are structurally identical.
        prop_assert!(switched.stats.cost.misses > 0, "class swap served without misses");
        prop_assert_eq!(
            warm.cached_cost_entries(),
            cold.cached_cost_entries(),
            "cache after the class swap must hold exactly the fresh fleet's entries"
        );
    }

    /// The search skips a candidate plan — a uniform even-split seed, a
    /// DP plan or an Algorithm-2 plan — when its makespan lower bound
    /// (plus its ω term) cannot beat the incumbent; that is only sound
    /// if the bound never exceeds the latency the plan would have been
    /// given. Every seed shape the search can draw (each micro-batch
    /// plan × each bitwidth), the DP's and the heuristic's plans for
    /// each ordering × micro-batch plan, and those plans again with
    /// their stages' bits mixed layer by layer, on random fleets. The
    /// tolerance is a relative 1e-12, far inside the prune's margin.
    #[test]
    fn seed_lower_bound_is_below_evaluated_latency(
        fleet in prop::collection::vec(gpu_strategy(), 3..=6),
        mix in prop::collection::vec(0usize..4, 48),
    ) {
        let db = CostDb::oracle(&KernelEnv::default());
        let cluster = cluster_of("seeds", &fleet);
        let (mut seeds, mut solved, mut mixed) = (0usize, 0usize, 0usize);
        for (spec, job, group) in
            [(tiny_spec(), job(), 1), (zoo::opt_30b(), BatchJob::paper_default(), 8)]
        {
            let mut cost = CostCache::default();
            let check = |plan: &ExecutionPlan, cost: &mut CostCache| -> bool {
                // Plans that do not fit are never compared with the bound.
                let Ok(report) = evaluate_plan(plan, &cluster, &spec, &db, &job) else {
                    return false;
                };
                let lb = plan_lower_bound(plan, &cluster, &spec, &job, &db, cost);
                prop_assert!(
                    lb <= report.total_latency * (1.0 + 1e-12),
                    "{} on {fleet:?}: bound {lb} exceeds simulated {} for {plan:?}",
                    spec.name,
                    report.total_latency
                );
                true
            };
            for mb in microbatch_counts(&job, cluster.len(), 4) {
                for bits in Bitwidth::ALL {
                    seeds += usize::from(check(&even_plan(&cluster, &spec, bits, mb, "LLM-PQ"), &mut cost));
                }
            }
            for ordering in device_orderings(&cluster, 2) {
                for mb in microbatch_counts(&job, ordering.len(), 2) {
                    let (problem, quality, sizes) = build_problem(
                        &cluster, &ordering, &spec, &job, &db, Some(&tiny_indicator(spec.n_layers)),
                        0.05, &mb, group, &Bitwidth::ALL, true, Some(8), 16.0,
                    );
                    let sols = [
                        llmpq_solver::solve_partition(&problem),
                        heuristic_solve(&problem, &quality, 50),
                    ];
                    for sol in sols.iter().flatten() {
                        let mut plan = solution_to_plan(
                            &cluster, &ordering, &spec, &sizes, sol, &mb, "LLM-PQ", &Bitwidth::ALL, 16,
                        );
                        solved += usize::from(check(&plan, &mut cost));
                        for s in &mut plan.stages {
                            for (l, b) in (s.layer_start..s.layer_end).zip(s.bits.iter_mut()) {
                                *b = Bitwidth::ALL[mix[l % mix.len()]];
                            }
                        }
                        mixed += usize::from(check(&plan, &mut cost));
                    }
                }
            }
        }
        prop_assert!(
            seeds > 0 && solved > 0 && mixed > 0,
            "{fleet:?}: {seeds} seed, {solved} solver and {mixed} mixed-bit plans fit"
        );
    }

    /// One `EvalCache` shared across a fleet and a churned copy of it
    /// (device ids shift, so the same id may name another class) must
    /// answer every plan exactly as `evaluate_plan` does — reports and
    /// errors alike. A fingerprint that dropped something the
    /// evaluation reads would serve one plan's verdict for another.
    #[test]
    fn eval_cache_answers_what_evaluate_plan_answers(
        (base, raw_remove, raw_added, shapes) in (
            prop::collection::vec(gpu_strategy(), 3..=6),
            0usize..=2,
            prop::collection::vec(gpu_strategy(), 0..=2),
            prop::collection::vec(
                (
                    prop::collection::vec(1usize..40, 0..=2), // stage cuts
                    prop::collection::vec(0usize..4, 40),     // per-layer bit index
                    0usize..6,                                 // first device
                    0usize..64,                                // micro-batch pick
                    0usize..=1,                                // KV width pick
                ),
                1..=6,
            ),
        )
    ) {
        let (remove, added) = clamp_delta(&base, raw_remove, raw_added);
        let spec = zoo::opt_13b();
        prop_assert_eq!(spec.n_layers, 40);
        let job = BatchJob::paper_default();
        let db = CostDb::oracle(&KernelEnv::default());
        let old = cluster_of("old", &base);
        let mut churned: Vec<GpuModel> = base[remove..].to_vec();
        churned.extend_from_slice(&added);
        let new = cluster_of("new", &churned);

        let plans: Vec<ExecutionPlan> = shapes
            .into_iter()
            .map(|(mut cuts, bit_idx, first, mb_pick, kv_pick)| {
                cuts.sort_unstable();
                cuts.dedup();
                cuts.push(spec.n_layers);
                let mut start = 0usize;
                let stages: Vec<StagePlan> = cuts
                    .iter()
                    .enumerate()
                    .map(|(i, &end)| {
                        let stage = StagePlan {
                            device: (first + i) % old.len(),
                            layer_start: start,
                            layer_end: end,
                            bits: bit_idx[start..end].iter().map(|&b| Bitwidth::ALL[b]).collect(),
                        };
                        start = end;
                        stage
                    })
                    .collect();
                let mbs = microbatch_counts(&job, stages.len(), 4);
                ExecutionPlan {
                    model: spec.name.clone(),
                    cluster: old.name.clone(),
                    stages,
                    microbatch: mbs[mb_pick % mbs.len()],
                    scheme: "LLM-PQ".into(),
                    kv_bits: [16, 8][kv_pick],
                }
            })
            .collect();

        let mut cache = EvalCache::default();
        // Twice over both fleets, so every plan is also answered from
        // entries another fleet (or another plan) put there.
        for _ in 0..2 {
            for cluster in [&old, &new] {
                for plan in &plans {
                    prop_assert_eq!(
                        cache.evaluate(plan, cluster, &spec, &db, &job),
                        evaluate_plan(plan, cluster, &spec, &db, &job),
                        "cached verdict differs for {:?} on {}",
                        plan,
                        &cluster.name
                    );
                }
            }
        }
        prop_assert!(cache.counters.hits > 0, "second pass never hit the cache");
    }
}
