//! `bench_solver`: replan wall time after a 1–2 device loss as the fleet
//! scales. Emits `BENCH_solver.json` (committed at the repo root) with
//! one row per fleet size comparing two runs of the one Algorithm-1
//! search on the survivors: `cold_s`, an `assign` (empty caches, no
//! previous plan), and `warm_s`, a planner that solved the full fleet
//! first and so brings filled cost/evaluation caches and a repaired
//! incumbent — each the median of 15 timed runs, the two alternating,
//! and `speedup` the median of the 15 pairs' `cold / warm` ratios.
//! Memoisation within a call and bound pruning are in both columns; the
//! gap between them is what carrying state across the loss buys.
//!
//! `run_all bench_solver --check` turns the acceptance bar into an exit
//! code: at every size the warm objective must never be worse than the
//! cold one (the incumbent only prunes work, never the optimum; under
//! grid subsampling it may legitimately *beat* the cold grid), and at
//! fleet scale (≥ 50 devices) warm must not be slower than cold (a
//! median speedup of at least 1) and a cold plan must finish within
//! 30 ms — the bar that pins the memoisation, the per-profile partition
//! DP and the bound prune on every candidate plan (the unmemoised
//! `assign` took ~200 ms there, the per-device DP without the prune
//! 14–33 ms). `--out FILE` writes the report elsewhere.

use crate::{Args, Out};
use llm_pq::{assign, AssignerConfig, IncrementalPlanner, SolverChoice};
use llmpq_cluster::{Cluster, GpuModel, Interconnect};
use llmpq_cost::CostDb;
use llmpq_quant::IndicatorTable;
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;
use serde::Serialize;
use std::time::Instant;

/// A heterogeneous mix in fixed proportions: 40% T4, 40% V100, 20%
/// A100 — the fleet shape ROADMAP item 5 targets.
fn mix(n: usize) -> [(GpuModel, usize); 3] {
    let t4 = n * 2 / 5;
    let v100 = n * 2 / 5;
    [(GpuModel::T4_16G, t4), (GpuModel::V100_32G, v100), (GpuModel::A100_40G, n - t4 - v100)]
}

fn fleet(name: &str, groups: &[(GpuModel, usize)]) -> Cluster {
    Cluster::from_groups(name, groups, Interconnect::Ethernet800G, None)
}

fn indicator(n_layers: usize) -> IndicatorTable {
    IndicatorTable {
        omega: (0..n_layers)
            .map(|l| {
                let base = 1.0 / (1.0 + l as f64 * 0.15);
                [base, base * 0.22, base * 0.01, 0.0]
            })
            .collect(),
    }
}

fn cfg() -> AssignerConfig {
    AssignerConfig {
        theta: 0.1,
        solver: SolverChoice::Dp { group: 8 },
        xi: 2,
        max_orderings: 6,
        dp_grid: Some(16),
        search_kv8: false,
        max_bits: None,
    }
}

/// Wall-time budget for a cold plan at fleet scale (≥ 50 devices).
const COLD_BUDGET_S: f64 = 0.03;

/// Timed warm/cold pairs per fleet size. Each column is the median of
/// its runs and the speedup the median of the pairs' ratios, so a slow
/// spell of a shared host, which falls on both runs of a pair, cannot
/// decide a bar on its own.
const TIMED_RUNS: usize = 15;

pub(super) fn median(mut secs: Vec<f64>) -> f64 {
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

#[derive(Serialize)]
struct Row {
    n_devices: usize,
    devices_lost: usize,
    cold_s: f64,
    warm_s: f64,
    speedup: f64,
    cold_obj: f64,
    warm_obj: f64,
    /// Warm is never worse than cold (within fp tolerance); it may be
    /// strictly better when the repaired incumbent lands off the cold
    /// solver's subsampled candidate grid.
    equal_objective: bool,
    origin: String,
    hints_applied: u64,
    seeds_pruned: u64,
    cost_cache_hit_rate: f64,
    eval_cache_hit_rate: f64,
}

#[derive(Serialize)]
struct Report {
    model: String,
    theta: f64,
    rows: Vec<Row>,
}

pub fn run(out: &mut Out, args: &Args) {
    let check = args.has("--check");

    let spec = llmpq_model::zoo::opt_30b();
    let db = CostDb::oracle(&KernelEnv::default());
    let job = BatchJob::paper_default();
    let ind = indicator(spec.n_layers);
    let cfg = cfg();
    let theta = cfg.theta;

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for n in [8usize, 50, 100, 200] {
        // The elastic scenario: a fleet loses 1–2 devices (two at
        // scale, one on the small rig) and must be replanned *now* —
        // the window between loss and commit is served degraded.
        let lost = if n >= 50 { 2 } else { 1 };
        let full = fleet(&format!("fleet-{n}"), &mix(n));
        let mut shrunk_mix = mix(n);
        shrunk_mix[0].1 -= lost; // T4s die
        let shrunk = fleet(&format!("fleet-{n}-minus{lost}"), &shrunk_mix);

        // Warm path: the planner has already solved the full fleet
        // (steady state before the loss), then replans the survivors.
        // Cold: the same search from scratch on the survivors. The two
        // alternate, so a slow spell of the host falls on both.
        let mut warm_runs = Vec::with_capacity(TIMED_RUNS);
        let mut cold_runs = Vec::with_capacity(TIMED_RUNS);
        let mut last = None;
        for _ in 0..TIMED_RUNS {
            let mut warm = IncrementalPlanner::new(spec.clone(), job, cfg);
            warm.plan(&full, &db, &ind).expect("full fleet plans");
            let t0 = Instant::now();
            let w = warm.plan(&shrunk, &db, &ind).expect("warm replan");
            warm_runs.push(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let cold = assign(&shrunk, &spec, &job, &db, &ind, &cfg).expect("cold plan");
            cold_runs.push(t1.elapsed().as_secs_f64());
            last = Some((w, cold));
        }
        let (w, cold) = last.expect("at least one timed run");
        let speedup =
            median(cold_runs.iter().zip(&warm_runs).map(|(c, w)| c / w.max(1e-12)).collect());
        let (warm_s, cold_s) = (median(warm_runs), median(cold_runs));
        let warm_obj = w.objective(theta);
        let cold_obj = cold.report.total_latency + theta * cold.omega_total;

        let tol = 1e-9 * cold_obj.abs().max(1.0);
        let equal_objective = warm_obj <= cold_obj + tol;
        let row = Row {
            n_devices: n,
            devices_lost: lost,
            cold_s,
            warm_s,
            speedup,
            cold_obj,
            warm_obj,
            equal_objective,
            origin: w.origin.to_string(),
            hints_applied: w.stats.hints_applied,
            seeds_pruned: w.stats.seeds_pruned,
            cost_cache_hit_rate: w.stats.cost.hit_rate(),
            eval_cache_hit_rate: w.stats.eval.hit_rate(),
        };
        say!(out,
            "n={n} (-{lost}): cold {cold_s:.3}s obj {cold_obj:.4} | warm {warm_s:.3}s obj \
             {warm_obj:.4} ({}) | {speedup:.1}x, cost-cache {:.0}% eval-cache {:.0}%, \
             {} hint(s), {} seed(s) pruned",
            row.origin,
            100.0 * row.cost_cache_hit_rate,
            100.0 * row.eval_cache_hit_rate,
            row.hints_applied,
            row.seeds_pruned,
        );
        say!(out,
            "  warm stats: dp_calls {} pairs_pruned {} seeds_evaluated {} cost {}h/{}m eval {}h/{}m",
            w.stats.dp_calls,
            w.stats.pairs_pruned,
            w.stats.seeds_evaluated,
            w.stats.cost.hits,
            w.stats.cost.misses,
            w.stats.eval.hits,
            w.stats.eval.misses,
        );
        if !equal_objective {
            failures.push(format!(
                "n={n}: warm objective {warm_obj} worse than cold {cold_obj}"
            ));
        }
        if n >= 50 && speedup < 1.0 {
            failures.push(format!(
                "n={n}: warm slower than cold (median speedup {speedup:.2}x, warm {warm_s:.4}s, \
                 cold {cold_s:.4}s)"
            ));
        }
        if n >= 50 && cold_s > COLD_BUDGET_S {
            failures.push(format!(
                "n={n}: cold plan took {cold_s:.4}s, over the {COLD_BUDGET_S}s budget"
            ));
        }
        rows.push(row);
    }

    let report = Report { model: spec.name.clone(), theta, rows };
    out.json(args.value("--out").unwrap_or("BENCH_solver.json"), &report);

    if check && !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        panic!("{} acceptance check(s) failed", failures.len());
    }
    if check {
        say!(out, "acceptance held: warm never worse nor slower, cold within budget at fleet scale");
    }
}
