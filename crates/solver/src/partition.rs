//! Exact DP solver for pipeline partition + bitwidth assignment.
//!
//! The assigner's inner problem (paper eq. 4–16): place `L` contiguous
//! layer groups onto `N` ordered devices and pick a quantization
//! precision, minimizing
//!
//! ```text
//! α_pre·T_max_pre + α_dec·T_max_dec + Σ_g lin_cost(g, device(g), bits(g))
//! ```
//!
//! subject to per-device memory capacities, where `T_max_phase` is the
//! largest per-stage time (compute + outgoing communication). The `α`
//! weights carry the micro-batch counts of the pipeline-latency formula
//! and `lin_cost` carries the per-layer latency sums and the θ-weighted
//! quality indicator.
//!
//! This solver is exact over the class of plans that use **one bitwidth
//! per stage** (mixed precision across stages, uniform within a stage).
//! The paper's per-layer mixing inside a stage is recovered afterwards by
//! the bitwidth-transfer refinement (Algorithm 2, in `llm-pq`); the
//! branch-and-bound MILP covers full per-layer mixing for small/grouped
//! instances. Strategy: enumerate a candidate grid of
//! `(T_max_pre, T_max_dec)` bounds drawn from the achievable stage times
//! and run a feasibility DP per candidate pair.
//!
//! Cost is paid per device *profile*, not per device: a profile is a run
//! of adjacent devices whose columns, boundary communication, capacity
//! and fixed memory agree bit for bit (one GPU class, split only where
//! a node-boundary link or the master's embeddings differ). Prefix sums
//! and candidate values take `O(P·L²·B)` for `P` profiles, the window
//! relaxation `O(P·L·B)` per pair, and the DP `O(L²·B)` per device until
//! a run's row reaches its fixed point (see `dp_for_bounds`), so a
//! 50-device fleet of three classes costs about what its eight or so
//! profiles cost.

use serde::{Deserialize, Serialize};

/// Problem instance. All tensors are flattened `[g][j][b]` row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionProblem {
    /// Number of contiguous layer groups `L`.
    pub n_groups: usize,
    /// Number of ordered devices `N`.
    pub n_devices: usize,
    /// Number of candidate bitwidths `B`.
    pub n_bits: usize,
    /// Prefill-time contribution of group `g` on device `j` at bits `b`.
    pub pre_time: Vec<f64>,
    /// Decode-time contribution.
    pub dec_time: Vec<f64>,
    /// Memory bytes of the group's weights + KV on that device.
    pub mem: Vec<f64>,
    /// Linear objective term (latency sums + θ·ω), same indexing.
    pub lin_cost: Vec<f64>,
    /// Memory capacity per device, bytes.
    pub capacity: Vec<f64>,
    /// Fixed memory per device if it hosts at least one group
    /// (framework overhead; embeddings on the master's device).
    pub fixed_mem: Vec<f64>,
    /// Outgoing-boundary communication added to a non-empty stage's
    /// prefill time.
    pub comm_pre: Vec<f64>,
    /// Same for decode.
    pub comm_dec: Vec<f64>,
    /// Weight on `T_max_pre` (e.g. `µ_pre − 1`).
    pub alpha_pre: f64,
    /// Weight on `T_max_dec` (e.g. `(n−1)·µ_dec − 1`).
    pub alpha_dec: f64,
    /// Whether a device may be left without layers.
    pub allow_empty_stages: bool,
    /// Candidate-grid size per phase; `None` = exhaustive (exact).
    pub grid: Option<usize>,
}

impl PartitionProblem {
    #[inline]
    fn idx(&self, g: usize, j: usize, b: usize) -> usize {
        (g * self.n_devices + j) * self.n_bits + b
    }
}

/// A solved plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSolution {
    /// Per group: `(device, bit index)`. Devices are non-decreasing.
    pub assignment: Vec<(usize, usize)>,
    /// Total objective value.
    pub objective: f64,
    /// Realized max prefill stage time (incl. comm).
    pub t_max_pre: f64,
    /// Realized max decode stage time (incl. comm).
    pub t_max_dec: f64,
    /// Realized per-stage prefill times (empty stages are 0).
    pub stage_pre: Vec<f64>,
    /// Realized per-stage decode times.
    pub stage_dec: Vec<f64>,
}

/// Prefix sums per bitwidth over the groups of one device column, for
/// O(1) segment queries.
struct Prefix {
    pre: Vec<f64>,
    dec: Vec<f64>,
    mem: Vec<f64>,
    cost: Vec<f64>,
    n_groups: usize,
    n_bits: usize,
}

impl Prefix {
    fn build(p: &PartitionProblem, j: usize) -> Prefix {
        let mut pre = vec![0.0; (p.n_groups + 1) * p.n_bits];
        let mut dec = pre.clone();
        let mut mem = pre.clone();
        let mut cost = pre.clone();
        for b in 0..p.n_bits {
            for g in 0..p.n_groups {
                let src = p.idx(g, j, b);
                let dst = (g + 1) * p.n_bits + b;
                let prev = g * p.n_bits + b;
                pre[dst] = pre[prev] + p.pre_time[src];
                dec[dst] = dec[prev] + p.dec_time[src];
                mem[dst] = mem[prev] + p.mem[src];
                cost[dst] = cost[prev] + p.lin_cost[src];
            }
        }
        Prefix { pre, dec, mem, cost, n_groups: p.n_groups, n_bits: p.n_bits }
    }

    #[inline]
    fn seg(&self, v: &[f64], g0: usize, g1: usize, b: usize) -> f64 {
        debug_assert!(g0 <= g1 && g1 <= self.n_groups);
        v[g1 * self.n_bits + b] - v[g0 * self.n_bits + b]
    }
}

/// A run of adjacent devices the problem cannot tell apart: the same
/// `[g][j][b]` columns of every tensor and the same boundary
/// communication, capacity and fixed memory, bit for bit. Everything
/// the solver derives from one device it derives once per profile.
struct Profile {
    /// First device of the run.
    first: usize,
    /// Devices in the run.
    count: usize,
    prefix: Prefix,
    comm_pre: f64,
    comm_dec: f64,
    capacity: f64,
    fixed_mem: f64,
}

/// Split the device chain into profiles. Orderings place one class in
/// a run, so comparing each device with the one before it finds them;
/// a fleet of a few classes has a handful of profiles, split further
/// only by node-boundary links, the master's embeddings and the last
/// device's missing outgoing link. The comparison walks each tensor
/// one group row at a time, where neighbouring devices sit side by side.
fn profiles(p: &PartitionProblem) -> (Vec<Profile>, Vec<usize>) {
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits();
    // repeats[j]: device j matches device j − 1 bit for bit.
    let mut repeats: Vec<bool> = (0..p.n_devices)
        .map(|j| {
            j > 0
                && same(p.comm_pre[j], p.comm_pre[j - 1])
                && same(p.comm_dec[j], p.comm_dec[j - 1])
                && same(p.capacity[j], p.capacity[j - 1])
                && same(p.fixed_mem[j], p.fixed_mem[j - 1])
        })
        .collect();
    for v in [&p.pre_time, &p.dec_time, &p.mem, &p.lin_cost] {
        for row in v.chunks_exact(p.n_devices * p.n_bits) {
            let cols = row.chunks_exact(p.n_bits);
            for ((r, a), b) in repeats[1..].iter_mut().zip(cols.clone()).zip(cols.skip(1)) {
                *r = *r && a.iter().zip(b).all(|(&x, &y)| same(x, y));
            }
        }
    }
    let mut list: Vec<Profile> = Vec::new();
    let mut of = Vec::with_capacity(p.n_devices);
    for (j, &repeat) in repeats.iter().enumerate() {
        match list.last_mut() {
            Some(last) if repeat => last.count += 1,
            _ => list.push(Profile {
                first: j,
                count: 1,
                prefix: Prefix::build(p, j),
                comm_pre: p.comm_pre[j],
                comm_dec: p.comm_dec[j],
                capacity: p.capacity[j],
                fixed_mem: p.fixed_mem[j],
            }),
        }
        of.push(list.len() - 1);
    }
    (list, of)
}

/// `f64::total_cmp`'s order as an integer, and back: the map is its
/// own inverse.
fn total_order_key(x: i64) -> i64 {
    x ^ ((((x >> 63) as u64) >> 1) as i64)
}

/// Collect candidate `T` values per phase from achievable stage times:
/// every segment of every profile at every bitwidth, plus its outgoing
/// communication, in `f64::total_cmp` order (sorted as integer keys).
/// A profile whose phase column and link repeat an earlier profile's
/// (the master's device, a class recurring after another) would add
/// only exact duplicates, which never change what the dedup keeps, so
/// it is skipped.
fn candidates(p: &PartitionProblem, profiles: &[Profile], decode: bool) -> Vec<f64> {
    let mut keys = Vec::new();
    let mut seen: Vec<(f64, &[f64])> = Vec::new();
    for pr in profiles {
        let pf = &pr.prefix;
        let (comm, v) = if decode { (pr.comm_dec, &pf.dec) } else { (pr.comm_pre, &pf.pre) };
        if seen.iter().any(|&(c, sv)| c == comm && sv == v.as_slice()) {
            continue;
        }
        seen.push((comm, v));
        for b in 0..p.n_bits {
            for g0 in 0..p.n_groups {
                for g1 in g0 + 1..=p.n_groups {
                    let t = pf.seg(v, g0, g1, b) + comm;
                    keys.push(total_order_key(t.to_bits() as i64));
                }
            }
        }
    }
    keys.sort_unstable();
    let mut vals: Vec<f64> =
        keys.into_iter().map(|k| f64::from_bits(total_order_key(k) as u64)).collect();
    vals.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    if let Some(k) = p.grid {
        if vals.len() > k {
            // Quantile subsample, always keeping the extremes.
            let n = vals.len();
            let mut picked: Vec<f64> =
                (0..k).map(|i| vals[(i * (n - 1)) / (k - 1).max(1)]).collect();
            picked.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
            return picked;
        }
    }
    vals
}

const INF: f64 = f64::INFINITY;

/// Solve the partition problem. Returns `None` when no feasible plan
/// exists (e.g. the model cannot fit even at the lowest precision).
pub fn solve_partition(p: &PartitionProblem) -> Option<PartitionSolution> {
    solve_partition_warm_stats(p, None).0
}

/// Counters from one warm-started solve, for cache/pruning assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionSolveStats {
    /// Candidate `(T_pre, T_dec)` pairs whose feasibility DP ran.
    pub dp_calls: usize,
    /// Candidate pairs skipped by the α-bound incumbent prune.
    pub pruned: usize,
    /// Candidate pairs proven infeasible by the cheap window relaxation
    /// (no DP run).
    pub relaxed_out: usize,
    /// Whether the warm-start hint was feasible and seeded the search.
    pub incumbent_used: bool,
}

/// Warm-started [`solve_partition`], with pruning counters: `hint` —
/// typically the previous solve's assignment repaired onto the new
/// device ordering — is evaluated first and, when feasible, seeds the
/// incumbent so the candidate loop prunes most `(T_pre, T_dec)` pairs
/// before paying for their DP. Exactness: the prune only
/// skips pairs whose α-weighted lower bound already meets the
/// incumbent, every achievable solution is re-discoverable at its own
/// realized-maxima pair (`lin_cost ≥ 0`), and with exhaustive
/// candidates those pairs are in the grid — so the returned objective
/// equals the cold solve's. Under grid subsampling the incumbent's
/// realized maxima are injected into the candidate lists to preserve
/// that argument for the hint itself.
pub fn solve_partition_warm_stats(
    p: &PartitionProblem,
    hint: Option<&[(usize, usize)]>,
) -> (Option<PartitionSolution>, PartitionSolveStats) {
    assert_eq!(p.pre_time.len(), p.n_groups * p.n_devices * p.n_bits);
    assert_eq!(p.dec_time.len(), p.pre_time.len());
    assert_eq!(p.mem.len(), p.pre_time.len());
    assert_eq!(p.lin_cost.len(), p.pre_time.len());
    assert_eq!(p.capacity.len(), p.n_devices);
    assert!(p.n_groups > 0 && p.n_devices > 0 && p.n_bits > 0);

    let (profiles, profile_of) = profiles(p);
    let mut tp_cands = candidates(p, &profiles, false);
    let mut td_cands = candidates(p, &profiles, true);

    let mut stats = PartitionSolveStats::default();
    let mut best: Option<PartitionSolution> = hint.and_then(|a| evaluate_assignment(p, a));
    if let Some(inc) = &best {
        stats.incumbent_used = true;
        insert_sorted(&mut tp_cands, inc.t_max_pre);
        insert_sorted(&mut td_cands, inc.t_max_dec);
    }
    // Admissible floor on the linear term: every plan hosts each group
    // somewhere, so it pays at least the group's cheapest (j, b) cost.
    let lin_floor: f64 = (0..p.n_groups)
        .map(|g| {
            profiles
                .iter()
                .flat_map(|pr| (0..p.n_bits).map(move |b| (pr.first, b)))
                .map(|(j, b)| p.lin_cost[p.idx(g, j, b)])
                .fold(INF, f64::min)
        })
        .sum();
    // Pruning: a pair's objective is lower-bounded by the α terms at the
    // bounds plus `lin_floor`; skip it once the incumbent already meets
    // that. Safe: any solution realizable at a pruned pair has realized
    // maxima ≤ the bounds and lin ≥ lin_floor, so it cannot beat the
    // incumbent that caused the skip.
    for &tp in &tp_cands {
        for &td in &td_cands {
            if let Some(b) = &best {
                if p.alpha_pre * tp + p.alpha_dec * td + lin_floor >= b.objective {
                    stats.pruned += 1;
                    continue;
                }
            }
            if !relaxation_feasible(p, &profiles, tp, td) {
                stats.relaxed_out += 1;
                continue;
            }
            stats.dp_calls += 1;
            if let Some(sol) = dp_for_bounds(p, &profiles, &profile_of, tp, td) {
                if best.as_ref().is_none_or(|b| sol.objective < b.objective) {
                    best = Some(sol);
                }
            }
        }
    }
    (best, stats)
}

/// Cheap necessary condition for `(tp, td)` feasibility: each device's
/// contiguous segment is at most its longest window (over any single
/// bitwidth) satisfying the time and memory caps, so if those maxima
/// cannot jointly cover all groups the DP must come up empty. All
/// segment contributions are non-negative, so a sliding window per
/// `(profile, bits)` finds the longest fit in `O(L)`; every device of a
/// profile has that window.
fn relaxation_feasible(p: &PartitionProblem, profiles: &[Profile], tp: f64, td: f64) -> bool {
    let l = p.n_groups;
    let mut coverable = 0usize;
    for pr in profiles {
        let pf = &pr.prefix;
        let cap_pre = tp - pr.comm_pre + 1e-12;
        let cap_dec = td - pr.comm_dec + 1e-12;
        let cap_mem = pr.capacity - pr.fixed_mem + 1e-6;
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
        coverable += best_window * pr.count;
        if coverable >= l {
            return true;
        }
    }
    coverable >= l
}

/// Insert `v` into a sorted candidate list unless already present.
fn insert_sorted(vals: &mut Vec<f64>, v: f64) {
    match vals.binary_search_by(|x| x.partial_cmp(&v).unwrap()) {
        Ok(_) => {}
        Err(i) => {
            if i > 0 && (vals[i - 1] - v).abs() < 1e-12 {
                return;
            }
            if i < vals.len() && (vals[i] - v).abs() < 1e-12 {
                return;
            }
            vals.insert(i, v);
        }
    }
}

/// Evaluate a fixed per-group `(device, bit)` assignment: structural
/// validity (non-decreasing devices ⇒ contiguous stages, one bitwidth
/// per stage), memory feasibility, and the realized objective. `None`
/// when malformed or infeasible — callers use this to turn a previous
/// solution into a warm-start incumbent after the cluster changed.
pub fn evaluate_assignment(
    p: &PartitionProblem,
    assignment: &[(usize, usize)],
) -> Option<PartitionSolution> {
    if assignment.len() != p.n_groups {
        return None;
    }
    let mut stage_pre = vec![0.0; p.n_devices];
    let mut stage_dec = vec![0.0; p.n_devices];
    let mut stage_mem = vec![0.0; p.n_devices];
    let mut dev_bits: Vec<Option<usize>> = vec![None; p.n_devices];
    let mut lin = 0.0;
    let mut last_dev = 0usize;
    for (g, &(j, b)) in assignment.iter().enumerate() {
        if j >= p.n_devices || b >= p.n_bits || j < last_dev {
            return None;
        }
        last_dev = j;
        match dev_bits[j] {
            None => dev_bits[j] = Some(b),
            Some(prev) if prev == b => {}
            Some(_) => return None,
        }
        let k = p.idx(g, j, b);
        stage_pre[j] += p.pre_time[k];
        stage_dec[j] += p.dec_time[k];
        stage_mem[j] += p.mem[k];
        lin += p.lin_cost[k];
    }
    for j in 0..p.n_devices {
        match dev_bits[j] {
            Some(_) => {
                if stage_mem[j] + p.fixed_mem[j] > p.capacity[j] + 1e-6 {
                    return None;
                }
                stage_pre[j] += p.comm_pre[j];
                stage_dec[j] += p.comm_dec[j];
            }
            None if !p.allow_empty_stages => return None,
            None => {}
        }
    }
    let t_max_pre = stage_pre.iter().cloned().fold(0.0, f64::max);
    let t_max_dec = stage_dec.iter().cloned().fold(0.0, f64::max);
    let objective = p.alpha_pre * t_max_pre + p.alpha_dec * t_max_dec + lin;
    Some(PartitionSolution {
        assignment: assignment.to_vec(),
        objective,
        t_max_pre,
        t_max_dec,
        stage_pre,
        stage_dec,
    })
}

/// Feasibility DP for fixed stage-time bounds. Returns the realized
/// solution (with *actual* maxima, which may beat the bounds).
///
/// A device's row is a function of the row before it and of its
/// profile alone. So when a device repeats the previous device's
/// profile and the previous device left its input row unchanged, that
/// row is a fixed point: this device leaves it unchanged too, with the
/// same parents, and the row is copied instead of recomputed. Empty
/// stages are what make such a fixed point reachable (without them only
/// a row with nothing feasible is one); in a long run of one class the
/// row stops changing once the run has more devices than it can use, so
/// the DP costs what the fleet's profiles cost.
fn dp_for_bounds(
    p: &PartitionProblem,
    profiles: &[Profile],
    profile_of: &[usize],
    tp: f64,
    td: f64,
) -> Option<PartitionSolution> {
    let l = p.n_groups;
    let n = p.n_devices;
    let w = l + 1;
    // Row j, entry i: min linear cost covering the first i groups with
    // devices 0..j, and its parent (i0, bit) — groups i0..i on device
    // j−1; bit == usize::MAX → skipped device.
    let mut dp = vec![INF; (n + 1) * w];
    let mut parent = vec![(usize::MAX, usize::MAX); (n + 1) * w];
    dp[0] = 0.0;
    for j in 1..=n {
        let (done, rest) = dp.split_at_mut(j * w);
        let (prev, cur) = (&done[(j - 1) * w..], &mut rest[..w]);
        let (par_done, par_rest) = parent.split_at_mut(j * w);
        let par = &mut par_rest[..w];
        if j >= 2
            && profile_of[j - 1] == profile_of[j - 2]
            && same_row(prev, &done[(j - 2) * w..(j - 1) * w])
        {
            cur.copy_from_slice(prev);
            par.copy_from_slice(&par_done[(j - 1) * w..]);
            continue;
        }
        let pr = &profiles[profile_of[j - 1]];
        let pf = &pr.prefix;
        let cap = pr.capacity - pr.fixed_mem;
        for i in 0..=l {
            // Skip this device entirely.
            if p.allow_empty_stages && prev[i] < cur[i] {
                cur[i] = prev[i];
                par[i] = (i, usize::MAX);
            }
            // Assign groups i0..i (non-empty) to device j−1.
            for (i0, &from) in prev[..i].iter().enumerate() {
                if from == INF {
                    continue;
                }
                for b in 0..p.n_bits {
                    let seg_pre = pf.seg(&pf.pre, i0, i, b) + pr.comm_pre;
                    if seg_pre > tp + 1e-12 {
                        continue;
                    }
                    let seg_dec = pf.seg(&pf.dec, i0, i, b) + pr.comm_dec;
                    if seg_dec > td + 1e-12 {
                        continue;
                    }
                    let seg_mem = pf.seg(&pf.mem, i0, i, b);
                    if seg_mem > cap + 1e-6 {
                        continue;
                    }
                    let cost = from + pf.seg(&pf.cost, i0, i, b);
                    if cost < cur[i] {
                        cur[i] = cost;
                        par[i] = (i0, b);
                    }
                }
            }
        }
    }
    let best = dp[n * w + l];
    if best == INF {
        return None;
    }

    // Reconstruct.
    let mut assignment = vec![(usize::MAX, usize::MAX); l];
    let mut stage_pre = vec![0.0; n];
    let mut stage_dec = vec![0.0; n];
    let mut i = l;
    for j in (1..=n).rev() {
        let (i0, b) = parent[j * w + i];
        if b == usize::MAX {
            i = i0;
            continue;
        }
        let pr = &profiles[profile_of[j - 1]];
        let pf = &pr.prefix;
        stage_pre[j - 1] = pf.seg(&pf.pre, i0, i, b) + pr.comm_pre;
        stage_dec[j - 1] = pf.seg(&pf.dec, i0, i, b) + pr.comm_dec;
        for a in &mut assignment[i0..i] {
            *a = (j - 1, b);
        }
        i = i0;
    }
    debug_assert_eq!(i, 0, "reconstruction must consume all groups");

    let t_max_pre = stage_pre.iter().cloned().fold(0.0, f64::max);
    let t_max_dec = stage_dec.iter().cloned().fold(0.0, f64::max);
    let objective = p.alpha_pre * t_max_pre + p.alpha_dec * t_max_dec + best;
    Some(PartitionSolution { assignment, objective, t_max_pre, t_max_dec, stage_pre, stage_dec })
}

/// Bit-for-bit row equality.
fn same_row(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force reference: enumerate all contiguous partitions and
    /// per-stage bit choices.
    fn brute_force(p: &PartitionProblem) -> Option<f64> {
        let mut best: Option<f64> = None;
        // boundaries: 0 = b0 ≤ b1 ≤ … ≤ bn = l; device j gets [b_{j}, b_{j+1})
        fn rec(
            p: &PartitionProblem,
            j: usize,
            start: usize,
            stage_pre: &mut Vec<f64>,
            stage_dec: &mut Vec<f64>,
            lin: f64,
            best: &mut Option<f64>,
        ) {
            let l = p.n_groups;
            let n = p.n_devices;
            if j == n {
                if start == l {
                    let tp = stage_pre.iter().cloned().fold(0.0, f64::max);
                    let td = stage_dec.iter().cloned().fold(0.0, f64::max);
                    let obj = p.alpha_pre * tp + p.alpha_dec * td + lin;
                    if best.is_none_or(|b| obj < b) {
                        *best = Some(obj);
                    }
                }
                return;
            }
            let min_end = if p.allow_empty_stages { start } else { start + 1 };
            for end in min_end..=l {
                if end == start {
                    stage_pre.push(0.0);
                    stage_dec.push(0.0);
                    rec(p, j + 1, end, stage_pre, stage_dec, lin, best);
                    stage_pre.pop();
                    stage_dec.pop();
                    continue;
                }
                for b in 0..p.n_bits {
                    let mut pre = p.comm_pre[j];
                    let mut dec = p.comm_dec[j];
                    let mut mem = p.fixed_mem[j];
                    let mut cost = 0.0;
                    for g in start..end {
                        let k = (g * p.n_devices + j) * p.n_bits + b;
                        pre += p.pre_time[k];
                        dec += p.dec_time[k];
                        mem += p.mem[k];
                        cost += p.lin_cost[k];
                    }
                    if mem > p.capacity[j] + 1e-9 {
                        continue;
                    }
                    stage_pre.push(pre);
                    stage_dec.push(dec);
                    rec(p, j + 1, end, stage_pre, stage_dec, lin + cost, best);
                    stage_pre.pop();
                    stage_dec.pop();
                }
            }
        }
        rec(p, 0, 0, &mut Vec::new(), &mut Vec::new(), 0.0, &mut best);
        best
    }

    fn random_problem(seed: u64, l: usize, n: usize, b: usize, tight_mem: bool) -> PartitionProblem {
        let mut rng = SmallRng::seed_from_u64(seed);
        let size = l * n * b;
        let mut pre = vec![0.0; size];
        let mut dec = vec![0.0; size];
        let mut mem = vec![0.0; size];
        let mut cost = vec![0.0; size];
        for g in 0..l {
            for j in 0..n {
                let speed = 1.0 + j as f64; // later devices faster
                for bi in 0..b {
                    let k = (g * n + j) * b + bi;
                    let bits = [3.0, 4.0, 8.0, 16.0][bi % 4];
                    pre[k] = rng.gen_range(0.5..1.5) / speed * (0.8 + bits / 32.0);
                    dec[k] = rng.gen_range(0.05..0.15) / speed * (bits / 16.0 + 0.3);
                    mem[k] = bits * (1.0 + g as f64 * 0.1);
                    cost[k] = rng.gen_range(0.0..0.5) * (16.0 - bits);
                }
            }
        }
        let cap = if tight_mem { 40.0 } else { 1e9 };
        PartitionProblem {
            n_groups: l,
            n_devices: n,
            n_bits: b,
            pre_time: pre,
            dec_time: dec,
            mem,
            lin_cost: cost,
            capacity: vec![cap; n],
            fixed_mem: vec![0.0; n],
            comm_pre: vec![0.01; n],
            comm_dec: vec![0.001; n],
            alpha_pre: 3.0,
            alpha_dec: 50.0,
            allow_empty_stages: false,
            grid: None,
        }
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        for seed in 0..8 {
            let p = random_problem(seed, 5, 2, 2, false);
            let dp = solve_partition(&p).expect("feasible");
            let bf = brute_force(&p).expect("feasible");
            assert!(
                (dp.objective - bf).abs() < 1e-9,
                "seed {seed}: dp {} vs brute {bf}",
                dp.objective
            );
        }
    }

    #[test]
    fn matches_brute_force_with_memory_pressure() {
        for seed in 20..26 {
            let p = random_problem(seed, 4, 3, 3, true);
            let dp = solve_partition(&p);
            let bf = brute_force(&p);
            match (dp, bf) {
                (Some(d), Some(b)) => {
                    assert!((d.objective - b).abs() < 1e-9, "seed {seed}")
                }
                (None, None) => {}
                (d, b) => panic!("seed {seed}: dp {d:?} vs brute {b:?}"),
            }
        }
    }

    #[test]
    fn assignment_is_contiguous_and_complete() {
        let p = random_problem(3, 8, 3, 2, false);
        let sol = solve_partition(&p).unwrap();
        assert_eq!(sol.assignment.len(), 8);
        for w in sol.assignment.windows(2) {
            assert!(w[1].0 >= w[0].0, "devices must be non-decreasing");
        }
        // Same device ⇒ same bits (per-stage uniform class).
        for w in sol.assignment.windows(2) {
            if w[0].0 == w[1].0 {
                assert_eq!(w[0].1, w[1].1);
            }
        }
    }

    #[test]
    fn memory_constraint_is_respected() {
        let p = random_problem(40, 6, 2, 2, true);
        if let Some(sol) = solve_partition(&p) {
            for j in 0..p.n_devices {
                let used: f64 = sol
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|(_, (d, _))| *d == j)
                    .map(|(g, (d, b))| p.mem[(g * p.n_devices + d) * p.n_bits + b])
                    .sum();
                assert!(used <= p.capacity[j] + 1e-6, "device {j} over capacity");
            }
        }
    }

    #[test]
    fn infeasible_when_memory_too_small() {
        let mut p = random_problem(5, 4, 2, 1, false);
        p.capacity = vec![1.0; 2]; // nothing fits
        assert!(solve_partition(&p).is_none());
    }

    #[test]
    fn empty_stages_allow_fewer_devices_than_needed() {
        let mut p = random_problem(6, 2, 4, 2, false);
        p.allow_empty_stages = true;
        let sol = solve_partition(&p).unwrap();
        let used: std::collections::HashSet<usize> =
            sol.assignment.iter().map(|(d, _)| *d).collect();
        assert!(used.len() <= 2, "2 groups can use at most 2 devices");
    }

    #[test]
    fn grid_subsampling_stays_close_to_exact() {
        let exact_p = random_problem(9, 6, 3, 3, false);
        let exact = solve_partition(&exact_p).unwrap();
        let mut coarse_p = exact_p.clone();
        coarse_p.grid = Some(12);
        let coarse = solve_partition(&coarse_p).unwrap();
        assert!(coarse.objective >= exact.objective - 1e-9);
        assert!(
            coarse.objective <= exact.objective * 1.2,
            "coarse {} vs exact {}",
            coarse.objective,
            exact.objective
        );
    }

    #[test]
    fn evaluate_assignment_matches_solver_objective() {
        for seed in 0..6 {
            let p = random_problem(seed, 6, 3, 2, false);
            let sol = solve_partition(&p).expect("feasible");
            let eval = evaluate_assignment(&p, &sol.assignment).expect("solver output is valid");
            assert!(
                (eval.objective - sol.objective).abs() < 1e-9,
                "seed {seed}: eval {} vs solve {}",
                eval.objective,
                sol.objective
            );
            assert!((eval.t_max_pre - sol.t_max_pre).abs() < 1e-9);
            assert!((eval.t_max_dec - sol.t_max_dec).abs() < 1e-9);
        }
    }

    #[test]
    fn evaluate_assignment_rejects_malformed() {
        let p = random_problem(1, 4, 2, 2, false);
        // Wrong length.
        assert!(evaluate_assignment(&p, &[(0, 0)]).is_none());
        // Decreasing devices.
        assert!(evaluate_assignment(&p, &[(1, 0), (0, 0), (0, 0), (1, 0)]).is_none());
        // Mixed bits within a stage.
        assert!(evaluate_assignment(&p, &[(0, 0), (0, 1), (1, 0), (1, 0)]).is_none());
        // Empty stage without allow_empty_stages.
        assert!(evaluate_assignment(&p, &[(0, 0), (0, 0), (0, 0), (0, 0)]).is_none());
    }

    #[test]
    fn evaluate_assignment_rejects_over_capacity() {
        let mut p = random_problem(2, 4, 2, 1, false);
        let sol = solve_partition(&p).expect("feasible");
        p.capacity = vec![1e-9; 2];
        assert!(evaluate_assignment(&p, &sol.assignment).is_none());
    }

    #[test]
    fn warm_start_objective_equals_cold() {
        for seed in 0..10 {
            let p = random_problem(seed, 6, 3, 2, seed % 2 == 0);
            let Some(cold) = solve_partition(&p) else { continue };
            // Warm-start from the optimum itself and from a perturbed
            // (still valid) assignment: both must land on the cold
            // objective exactly.
            let (warm, stats) = solve_partition_warm_stats(&p, Some(&cold.assignment));
            let warm = warm.expect("warm must be feasible when cold is");
            assert!(stats.incumbent_used, "seed {seed}: optimum hint must seed the search");
            assert!(
                (warm.objective - cold.objective).abs() < 1e-9,
                "seed {seed}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            assert!(
                stats.pruned > 0,
                "seed {seed}: an optimal incumbent should prune candidate pairs"
            );
        }
    }

    #[test]
    fn warm_start_with_garbage_hint_falls_back_to_cold() {
        let p = random_problem(7, 6, 3, 2, false);
        let cold = solve_partition(&p).expect("feasible");
        let garbage = vec![(2, 0), (1, 0), (0, 0), (0, 0), (0, 0), (0, 0)];
        let (warm, stats) = solve_partition_warm_stats(&p, Some(&garbage));
        let warm = warm.expect("feasible");
        assert!(!stats.incumbent_used, "invalid hint must not seed an incumbent");
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_start_prunes_most_dp_calls_with_good_incumbent() {
        // The realistic LLM-PQ regime: the α-weighted pipeline terms
        // dominate the linear cost (microbatch counts multiply T_max),
        // so the incumbent's α-bound prune has teeth. Grid-subsampled
        // like the production assigner config.
        let mut p = random_problem(17, 10, 4, 3, false);
        for c in p.lin_cost.iter_mut() {
            *c *= 0.02;
        }
        p.grid = Some(16);
        let (cold, cold_stats) = solve_partition_warm_stats(&p, None);
        let cold = cold.expect("feasible");
        let (warm, warm_stats) = solve_partition_warm_stats(&p, Some(&cold.assignment));
        let warm = warm.expect("feasible");
        assert!(warm.objective <= cold.objective + 1e-9);
        // The incumbent lets warm skip every pair whose α-bound exceeds the
        // optimum; the pairs that remain are irreducible for an exact scan,
        // so assert warm never explores more and prunes strictly more.
        assert!(warm_stats.incumbent_used);
        assert!(
            warm_stats.dp_calls <= cold_stats.dp_calls,
            "warm {} dp calls vs cold {}",
            warm_stats.dp_calls,
            cold_stats.dp_calls
        );
        assert!(
            warm_stats.pruned > cold_stats.pruned,
            "warm pruned {} vs cold pruned {}",
            warm_stats.pruned,
            cold_stats.pruned
        );
    }

    #[test]
    fn warm_start_equals_cold_under_grid_subsampling() {
        for seed in 30..36 {
            let mut p = random_problem(seed, 8, 3, 3, false);
            p.grid = Some(12);
            let Some(cold) = solve_partition(&p) else { continue };
            let warm = solve_partition_warm_stats(&p, Some(&cold.assignment)).0.expect("feasible");
            assert!(
                warm.objective <= cold.objective + 1e-9,
                "seed {seed}: warm {} must not regress cold {}",
                warm.objective,
                cold.objective
            );
        }
    }

    #[test]
    fn straggler_penalty_moves_layers_to_fast_device() {
        // Device 1 is much faster; with a large decode α the solver must
        // give it most groups.
        let mut p = random_problem(13, 8, 2, 1, false);
        for g in 0..8 {
            let k_slow = g * 2;
            let k_fast = g * 2 + 1;
            p.pre_time[k_slow] = 1.0;
            p.pre_time[k_fast] = 0.2;
            p.dec_time[k_slow] = 0.1;
            p.dec_time[k_fast] = 0.02;
            p.lin_cost[k_slow] = 0.0;
            p.lin_cost[k_fast] = 0.0;
        }
        let sol = solve_partition(&p).unwrap();
        let fast_count = sol.assignment.iter().filter(|(d, _)| *d == 1).count();
        assert!(fast_count > 4, "fast device should host the majority, got {fast_count}");
    }
}
