//! Property-based tests for the optimization substrate.

use llmpq_solver::{
    evaluate_assignment, solve_lp, solve_milp, solve_partition, solve_partition_warm_stats,
    Constraint, LinProg, LpResult, MilpConfig, MilpResult, MilpSpec, PartitionProblem,
    PartitionSolution,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The partition solver as it was before it grouped devices into
/// profiles: prefix sums, candidate values, the window relaxation and
/// every DP row paid per device. Kept here, and only here, as the
/// oracle the profile-grouped solver must match bit for bit.
mod per_device {
    use llmpq_solver::{evaluate_assignment, PartitionProblem, PartitionSolution, PartitionSolveStats};

    const INF: f64 = f64::INFINITY;

    fn idx(p: &PartitionProblem, g: usize, j: usize, b: usize) -> usize {
        (g * p.n_devices + j) * p.n_bits + b
    }

    struct Prefix {
        pre: Vec<f64>,
        dec: Vec<f64>,
        mem: Vec<f64>,
        cost: Vec<f64>,
        n_bits: usize,
    }

    impl Prefix {
        fn build(p: &PartitionProblem) -> Vec<Prefix> {
            (0..p.n_devices)
                .map(|j| {
                    let mut pre = vec![0.0; (p.n_groups + 1) * p.n_bits];
                    let mut dec = pre.clone();
                    let mut mem = pre.clone();
                    let mut cost = pre.clone();
                    for b in 0..p.n_bits {
                        for g in 0..p.n_groups {
                            let src = idx(p, g, j, b);
                            let dst = (g + 1) * p.n_bits + b;
                            let prev = g * p.n_bits + b;
                            pre[dst] = pre[prev] + p.pre_time[src];
                            dec[dst] = dec[prev] + p.dec_time[src];
                            mem[dst] = mem[prev] + p.mem[src];
                            cost[dst] = cost[prev] + p.lin_cost[src];
                        }
                    }
                    Prefix { pre, dec, mem, cost, n_bits: p.n_bits }
                })
                .collect()
        }

        fn seg(&self, v: &[f64], g0: usize, g1: usize, b: usize) -> f64 {
            v[g1 * self.n_bits + b] - v[g0 * self.n_bits + b]
        }
    }

    fn candidates(p: &PartitionProblem, prefix: &[Prefix], decode: bool) -> Vec<f64> {
        let mut reps: Vec<usize> = Vec::new();
        let mut vals = Vec::new();
        'devices: for (j, pf) in prefix.iter().enumerate() {
            let comm = if decode { p.comm_dec[j] } else { p.comm_pre[j] };
            let v = if decode { &pf.dec } else { &pf.pre };
            for &r in &reps {
                let rcomm = if decode { p.comm_dec[r] } else { p.comm_pre[r] };
                let rv = if decode { &prefix[r].dec } else { &prefix[r].pre };
                if comm == rcomm && v == rv {
                    continue 'devices;
                }
            }
            reps.push(j);
            for b in 0..p.n_bits {
                for g0 in 0..p.n_groups {
                    for g1 in g0 + 1..=p.n_groups {
                        vals.push(pf.seg(v, g0, g1, b) + comm);
                    }
                }
            }
        }
        vals.sort_unstable_by(f64::total_cmp);
        vals.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        if let Some(k) = p.grid {
            if vals.len() > k {
                let n = vals.len();
                let mut picked: Vec<f64> =
                    (0..k).map(|i| vals[(i * (n - 1)) / (k - 1).max(1)]).collect();
                picked.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
                return picked;
            }
        }
        vals
    }

    fn insert_sorted(vals: &mut Vec<f64>, v: f64) {
        if let Err(i) = vals.binary_search_by(|x| x.partial_cmp(&v).unwrap()) {
            if (i > 0 && (vals[i - 1] - v).abs() < 1e-12)
                || (i < vals.len() && (vals[i] - v).abs() < 1e-12)
            {
                return;
            }
            vals.insert(i, v);
        }
    }

    fn relaxation_feasible(p: &PartitionProblem, prefix: &[Prefix], tp: f64, td: f64) -> bool {
        let l = p.n_groups;
        let mut coverable = 0usize;
        for (j, pf) in prefix.iter().enumerate() {
            let cap_pre = tp - p.comm_pre[j] + 1e-12;
            let cap_dec = td - p.comm_dec[j] + 1e-12;
            let cap_mem = p.capacity[j] - p.fixed_mem[j] + 1e-6;
            let mut best_window = 0usize;
            for b in 0..p.n_bits {
                let mut g0 = 0usize;
                for g1 in 1..=l {
                    while g0 < g1
                        && (pf.seg(&pf.pre, g0, g1, b) > cap_pre
                            || pf.seg(&pf.dec, g0, g1, b) > cap_dec
                            || pf.seg(&pf.mem, g0, g1, b) > cap_mem)
                    {
                        g0 += 1;
                    }
                    best_window = best_window.max(g1 - g0);
                }
            }
            coverable += best_window;
            if coverable >= l {
                return true;
            }
        }
        coverable >= l
    }

    fn dp_for_bounds(p: &PartitionProblem, prefix: &[Prefix], tp: f64, td: f64) -> Option<PartitionSolution> {
        let l = p.n_groups;
        let n = p.n_devices;
        let mut dp = vec![vec![INF; l + 1]; n + 1];
        let mut parent = vec![vec![(usize::MAX, usize::MAX); l + 1]; n + 1];
        dp[0][0] = 0.0;
        for j in 1..=n {
            let pf = &prefix[j - 1];
            let cap = p.capacity[j - 1] - p.fixed_mem[j - 1];
            for i in 0..=l {
                if p.allow_empty_stages && dp[j - 1][i] < dp[j][i] {
                    dp[j][i] = dp[j - 1][i];
                    parent[j][i] = (i, usize::MAX);
                }
                for i0 in 0..i {
                    if dp[j - 1][i0] == INF {
                        continue;
                    }
                    for b in 0..p.n_bits {
                        if pf.seg(&pf.pre, i0, i, b) + p.comm_pre[j - 1] > tp + 1e-12
                            || pf.seg(&pf.dec, i0, i, b) + p.comm_dec[j - 1] > td + 1e-12
                            || pf.seg(&pf.mem, i0, i, b) > cap + 1e-6
                        {
                            continue;
                        }
                        let cost = dp[j - 1][i0] + pf.seg(&pf.cost, i0, i, b);
                        if cost < dp[j][i] {
                            dp[j][i] = cost;
                            parent[j][i] = (i0, b);
                        }
                    }
                }
            }
        }
        if dp[n][l] == INF {
            return None;
        }
        let mut assignment = vec![(usize::MAX, usize::MAX); l];
        let mut stage_pre = vec![0.0; n];
        let mut stage_dec = vec![0.0; n];
        let mut i = l;
        for j in (1..=n).rev() {
            let (i0, b) = parent[j][i];
            if b == usize::MAX {
                i = i0;
                continue;
            }
            let pf = &prefix[j - 1];
            stage_pre[j - 1] = pf.seg(&pf.pre, i0, i, b) + p.comm_pre[j - 1];
            stage_dec[j - 1] = pf.seg(&pf.dec, i0, i, b) + p.comm_dec[j - 1];
            for a in &mut assignment[i0..i] {
                *a = (j - 1, b);
            }
            i = i0;
        }
        let t_max_pre = stage_pre.iter().cloned().fold(0.0, f64::max);
        let t_max_dec = stage_dec.iter().cloned().fold(0.0, f64::max);
        let objective = p.alpha_pre * t_max_pre + p.alpha_dec * t_max_dec + dp[n][l];
        Some(PartitionSolution { assignment, objective, t_max_pre, t_max_dec, stage_pre, stage_dec })
    }

    pub fn solve(
        p: &PartitionProblem,
        hint: Option<&[(usize, usize)]>,
    ) -> (Option<PartitionSolution>, PartitionSolveStats) {
        let prefix = Prefix::build(p);
        let mut tp_cands = candidates(p, &prefix, false);
        let mut td_cands = candidates(p, &prefix, true);
        let mut stats = PartitionSolveStats::default();
        let mut best: Option<PartitionSolution> = hint.and_then(|a| evaluate_assignment(p, a));
        if let Some(inc) = &best {
            stats.incumbent_used = true;
            insert_sorted(&mut tp_cands, inc.t_max_pre);
            insert_sorted(&mut td_cands, inc.t_max_dec);
        }
        let lin_floor: f64 = (0..p.n_groups)
            .map(|g| {
                (0..p.n_devices)
                    .flat_map(|j| (0..p.n_bits).map(move |b| (j, b)))
                    .map(|(j, b)| p.lin_cost[idx(p, g, j, b)])
                    .fold(INF, f64::min)
            })
            .sum();
        for &tp in &tp_cands {
            for &td in &td_cands {
                if let Some(b) = &best {
                    if p.alpha_pre * tp + p.alpha_dec * td + lin_floor >= b.objective {
                        stats.pruned += 1;
                        continue;
                    }
                }
                if !relaxation_feasible(p, &prefix, tp, td) {
                    stats.relaxed_out += 1;
                    continue;
                }
                stats.dp_calls += 1;
                if let Some(sol) = dp_for_bounds(p, &prefix, tp, td) {
                    if best.as_ref().is_none_or(|b| sol.objective < b.objective) {
                        best = Some(sol);
                    }
                }
            }
        }
        (best, stats)
    }
}

/// A fleet-shaped partition problem: a few device classes laid out in
/// runs along the chain, every device of a class sharing its class's
/// columns bit for bit, while the boundary terms differ — a run's last
/// device pays a slower outgoing link, the chain's last device none,
/// the first device the master's embeddings, and each run its own
/// capacity. `tight` sizes capacities so memory binds.
fn fleet_problem(seed: u64, allow_empty: bool, grid: Option<usize>, tight: bool) -> PartitionProblem {
    let mut rng = SmallRng::seed_from_u64(seed);
    let l = rng.gen_range(2..=6usize);
    let nb = rng.gen_range(1..=3usize);
    let n_classes = rng.gen_range(1..=3usize);
    let classes: Vec<[Vec<f64>; 4]> = (0..n_classes)
        .map(|_| {
            let speed = rng.gen_range(0.5..3.0);
            let col = |rng: &mut SmallRng, lo: f64, hi: f64| -> Vec<f64> {
                (0..l * nb).map(|_| rng.gen_range(lo..hi)).collect()
            };
            [col(&mut rng, 0.1, 1.0).iter().map(|v| v / speed).collect(),
             col(&mut rng, 0.01, 0.1).iter().map(|v| v / speed).collect(),
             col(&mut rng, 1.0, 3.0),
             col(&mut rng, 0.0, 0.5)]
        })
        .collect();
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for _ in 0..rng.gen_range(1..=4usize) {
        runs.push((rng.gen_range(0..n_classes), rng.gen_range(1..=5usize)));
    }
    let n: usize = runs.iter().map(|r| r.1).sum();
    let size = l * n * nb;
    let (mut pre, mut dec, mut mem, mut lin) =
        (vec![0.0; size], vec![0.0; size], vec![0.0; size], vec![0.0; size]);
    let mut capacity = Vec::with_capacity(n);
    let mut comm_pre = Vec::with_capacity(n);
    let mut comm_dec = Vec::with_capacity(n);
    let (intra_pre, intra_dec) = (rng.gen_range(0.0..0.02), rng.gen_range(0.0..0.002));
    let mut j = 0;
    for (run, &(class, len)) in runs.iter().enumerate() {
        let cap = if tight {
            rng.gen_range(2.0..6.0)
        } else {
            rng.gen_range(20.0..40.0)
        };
        let (edge_pre, edge_dec) = (rng.gen_range(0.02..0.2), rng.gen_range(0.002..0.02));
        for k in 0..len {
            for g in 0..l {
                for b in 0..nb {
                    let (src, dst) = (g * nb + b, (g * n + j) * nb + b);
                    pre[dst] = classes[class][0][src];
                    dec[dst] = classes[class][1][src];
                    mem[dst] = classes[class][2][src];
                    lin[dst] = classes[class][3][src];
                }
            }
            capacity.push(cap);
            let last_of_run = k + 1 == len;
            let last = run + 1 == runs.len() && last_of_run;
            let (cp, cd) = if last {
                (0.0, 0.0)
            } else if last_of_run {
                (edge_pre, edge_dec)
            } else {
                (intra_pre, intra_dec)
            };
            comm_pre.push(cp);
            comm_dec.push(cd);
            j += 1;
        }
    }
    let mut fixed_mem = vec![0.1; n];
    fixed_mem[0] += rng.gen_range(0.2..1.0);
    PartitionProblem {
        n_groups: l,
        n_devices: n,
        n_bits: nb,
        pre_time: pre,
        dec_time: dec,
        mem,
        lin_cost: lin,
        capacity,
        fixed_mem,
        comm_pre,
        comm_dec,
        alpha_pre: rng.gen_range(0.0..10.0),
        alpha_dec: rng.gen_range(0.0..100.0),
        allow_empty_stages: allow_empty,
        grid,
    }
}

/// Solutions equal bit for bit: assignment, objective, realized maxima
/// and every stage time.
fn same_solution(a: &Option<PartitionSolution>, b: &Option<PartitionSolution>) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.assignment == b.assignment
                && a.objective.to_bits() == b.objective.to_bits()
                && a.t_max_pre.to_bits() == b.t_max_pre.to_bits()
                && a.t_max_dec.to_bits() == b.t_max_dec.to_bits()
                && bits(&a.stage_pre) == bits(&b.stage_pre)
                && bits(&a.stage_dec) == bits(&b.stage_dec)
        }
        _ => false,
    }
}

/// Build a random small LP: minimize cᵀx over box-bounded x with a few
/// ≤-constraints (always feasible at x = 0 when rhs ≥ 0).
fn random_lp(
    n: usize,
    costs: &[f64],
    rows: &[(Vec<f64>, f64)],
) -> LinProg {
    let mut lp = LinProg::minimize(costs[..n].to_vec());
    for v in 0..n {
        lp = lp.bound(v, 1.0);
    }
    for (coeffs, rhs) in rows {
        let c: Vec<(usize, f64)> =
            coeffs.iter().take(n).enumerate().map(|(i, &v)| (i, v)).collect();
        lp = lp.with(Constraint::le(c, *rhs));
    }
    lp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Simplex solutions satisfy every constraint and bound.
    #[test]
    fn lp_solutions_are_feasible(
        n in 2usize..6,
        costs in prop::collection::vec(-5.0f64..5.0, 6),
        rows in prop::collection::vec(
            (prop::collection::vec(0.0f64..3.0, 6), 0.5f64..8.0),
            1..4
        ),
    ) {
        let lp = random_lp(n, &costs, &rows);
        match solve_lp(&lp) {
            LpResult::Optimal(sol) => {
                for (v, &x) in sol.x.iter().enumerate() {
                    prop_assert!(x >= -1e-7, "x[{v}] = {x} negative");
                    prop_assert!(x <= 1.0 + 1e-7, "x[{v}] = {x} above bound");
                }
                for (coeffs, rhs) in &rows {
                    let lhs: f64 = coeffs.iter().take(n).zip(&sol.x).map(|(a, x)| a * x).sum();
                    prop_assert!(lhs <= rhs + 1e-6, "constraint violated: {lhs} > {rhs}");
                }
                // Objective is consistent with x.
                let obj: f64 = costs.iter().take(n).zip(&sol.x).map(|(c, x)| c * x).sum();
                prop_assert!((obj - sol.objective).abs() < 1e-6);
            }
            other => prop_assert!(false, "x = 0 is feasible, got {other:?}"),
        }
    }

    /// The MILP optimum is never better than the LP relaxation and its
    /// solution is integral on the integer variables.
    #[test]
    fn milp_respects_relaxation_bound(
        n in 2usize..5,
        costs in prop::collection::vec(-5.0f64..5.0, 6),
        rows in prop::collection::vec(
            (prop::collection::vec(0.0f64..3.0, 6), 0.5f64..6.0),
            1..3
        ),
    ) {
        let lp = random_lp(n, &costs, &rows);
        let relax = match solve_lp(&lp) {
            LpResult::Optimal(s) => s.objective,
            _ => return Ok(()),
        };
        let spec = MilpSpec { lp, integers: (0..n).collect() };
        match solve_milp(&spec, &MilpConfig::default()) {
            MilpResult::Optimal(sol) => {
                prop_assert!(sol.objective >= relax - 1e-6,
                    "milp {} beats relaxation {relax}", sol.objective);
                for &v in &spec.integers {
                    let frac = (sol.x[v] - sol.x[v].round()).abs();
                    prop_assert!(frac < 1e-6, "x[{v}] = {} not integral", sol.x[v]);
                }
            }
            MilpResult::Infeasible => prop_assert!(false, "x=0 integral-feasible"),
            _ => {}
        }
    }

    /// The partition DP's reported objective matches its assignment, and
    /// the assignment is contiguous and memory-feasible.
    #[test]
    fn partition_solution_is_self_consistent(
        l in 2usize..7,
        n in 1usize..4,
        nb in 1usize..4,
        seed in 0u64..500,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let size = l * n * nb;
        let p = PartitionProblem {
            n_groups: l,
            n_devices: n,
            n_bits: nb,
            pre_time: (0..size).map(|_| rng.gen_range(0.1..1.0)).collect(),
            dec_time: (0..size).map(|_| rng.gen_range(0.01..0.1)).collect(),
            mem: (0..size).map(|_| rng.gen_range(1.0..3.0)).collect(),
            lin_cost: (0..size).map(|_| rng.gen_range(0.0..1.0)).collect(),
            capacity: vec![3.5 * l as f64 / n as f64; n],
            fixed_mem: vec![0.1; n],
            comm_pre: vec![0.01; n],
            comm_dec: vec![0.001; n],
            alpha_pre: rng.gen_range(0.0..10.0),
            alpha_dec: rng.gen_range(0.0..100.0),
            allow_empty_stages: n > 1,
            grid: None,
        };
        if let Some(sol) = solve_partition(&p) {
            // Contiguity.
            for w in sol.assignment.windows(2) {
                prop_assert!(w[1].0 >= w[0].0);
            }
            // Recompute objective from scratch.
            let mut stage_pre = vec![0.0f64; n];
            let mut stage_dec = vec![0.0f64; n];
            let mut stage_mem = vec![0.0f64; n];
            let mut lin = 0.0;
            for (g, &(j, b)) in sol.assignment.iter().enumerate() {
                let k = (g * n + j) * nb + b;
                stage_pre[j] += p.pre_time[k];
                stage_dec[j] += p.dec_time[k];
                stage_mem[j] += p.mem[k];
                lin += p.lin_cost[k];
            }
            for j in 0..n {
                if stage_pre[j] > 0.0 {
                    prop_assert!(stage_mem[j] + p.fixed_mem[j] <= p.capacity[j] + 1e-6);
                    stage_pre[j] += p.comm_pre[j];
                    stage_dec[j] += p.comm_dec[j];
                }
            }
            let tp = stage_pre.iter().cloned().fold(0.0, f64::max);
            let td = stage_dec.iter().cloned().fold(0.0, f64::max);
            let obj = p.alpha_pre * tp + p.alpha_dec * td + lin;
            prop_assert!((obj - sol.objective).abs() < 1e-6,
                "reported {} vs recomputed {obj}", sol.objective);
        }
    }

    /// Relaxing a memory capacity can never worsen the DP optimum.
    #[test]
    fn partition_monotone_in_capacity(seed in 0u64..200) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let (l, n, nb) = (5usize, 2usize, 2usize);
        let size = l * n * nb;
        let mut p = PartitionProblem {
            n_groups: l,
            n_devices: n,
            n_bits: nb,
            pre_time: (0..size).map(|_| rng.gen_range(0.1..1.0)).collect(),
            dec_time: (0..size).map(|_| rng.gen_range(0.01..0.1)).collect(),
            mem: (0..size).map(|_| rng.gen_range(1.0..3.0)).collect(),
            lin_cost: (0..size).map(|_| rng.gen_range(0.0..1.0)).collect(),
            capacity: vec![7.0; n],
            fixed_mem: vec![0.0; n],
            comm_pre: vec![0.0; n],
            comm_dec: vec![0.0; n],
            alpha_pre: 3.0,
            alpha_dec: 30.0,
            allow_empty_stages: true,
            grid: None,
        };
        let tight = solve_partition(&p).map(|s| s.objective);
        p.capacity = vec![100.0; n];
        let loose = solve_partition(&p).map(|s| s.objective).expect("loose is feasible");
        if let Some(t) = tight {
            prop_assert!(loose <= t + 1e-9, "loose {loose} worse than tight {t}");
        }
    }

    /// The profile-grouped solver is the per-device solver, bit for bit:
    /// the same solution and the same counters on fleet-shaped problems,
    /// with empty stages allowed or not, an exhaustive or a subsampled
    /// candidate grid, memory loose or binding, and no hint, the
    /// optimum as a hint, or a shifted (possibly infeasible) hint.
    #[test]
    fn profile_solver_matches_per_device_reference(
        seed in 0u64..100_000,
        allow_empty in 0usize..2,
        grid in 0usize..3,
        tight in 0usize..2,
    ) {
        let grid = [None, Some(6), Some(16)][grid];
        let p = fleet_problem(seed, allow_empty == 1, grid, tight == 1);
        let (want, want_stats) = per_device::solve(&p, None);
        let (got, got_stats) = solve_partition_warm_stats(&p, None);
        prop_assert!(same_solution(&got, &want), "seed {seed}: cold {got:?} vs reference {want:?}");
        prop_assert_eq!(got_stats, want_stats, "seed {seed}: cold counters");
        let Some(opt) = want else { return Ok(()) };
        let mut shifted = opt.assignment.clone();
        let last = shifted.len() - 1;
        shifted[last].0 = (shifted[last].0 + 1).min(p.n_devices - 1);
        for hint in [opt.assignment.clone(), shifted] {
            let (want, want_stats) = per_device::solve(&p, Some(&hint));
            let (got, got_stats) = solve_partition_warm_stats(&p, Some(&hint));
            prop_assert!(same_solution(&got, &want), "seed {seed}: hinted {got:?} vs reference {want:?}");
            prop_assert_eq!(got_stats, want_stats, "seed {seed}: hinted counters");
        }
        prop_assert!(evaluate_assignment(&p, &opt.assignment).is_some());
    }
}
