//! Dense two-phase primal simplex.
//!
//! Solves `min cᵀx  s.t.  Ax {≤,=,≥} b,  0 ≤ x ≤ u` with a classic
//! tableau implementation: upper bounds become explicit rows, phase 1
//! drives artificial variables out of the basis, phase 2 optimizes the
//! real objective. Bland's rule breaks ties, guaranteeing termination.
//!
//! Built for the assigner's MILP relaxations (hundreds of variables /
//! constraints), not for industrial scale — clarity and correctness over
//! sparsity tricks.

use serde::{Deserialize, Serialize};

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstraintOp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

/// A sparse linear constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs.
    pub coeffs: Vec<(usize, f64)>,
    /// Comparison operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// `Σ coeffs ≤ rhs`.
    pub fn le(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self { coeffs, op: ConstraintOp::Le, rhs }
    }

    /// `Σ coeffs = rhs`.
    pub fn eq(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self { coeffs, op: ConstraintOp::Eq, rhs }
    }

    /// `Σ coeffs ≥ rhs`.
    pub fn ge(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self { coeffs, op: ConstraintOp::Ge, rhs }
    }
}

/// A linear program: minimize `objective · x` subject to `constraints`,
/// with `x ≥ 0` and optional per-variable upper bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinProg {
    /// Number of decision variables.
    pub n_vars: usize,
    /// Objective coefficients (minimization).
    pub objective: Vec<f64>,
    /// Linear constraints.
    pub constraints: Vec<Constraint>,
    /// Optional upper bound per variable (`None` = unbounded above).
    pub upper_bounds: Vec<Option<f64>>,
}

impl LinProg {
    /// An LP with `n_vars` non-negative variables and the given
    /// minimization objective.
    pub fn minimize(objective: Vec<f64>) -> Self {
        let n = objective.len();
        Self { n_vars: n, objective, constraints: Vec::new(), upper_bounds: vec![None; n] }
    }

    /// Add a constraint (builder style).
    pub fn with(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Set an upper bound on a variable.
    pub fn bound(mut self, var: usize, upper: f64) -> Self {
        self.upper_bounds[var] = Some(upper);
        self
    }
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpSolution {
    /// Primal values.
    pub x: Vec<f64>,
    /// Objective value.
    pub objective: f64,
}

/// LP solve outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LpResult {
    /// Optimum found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
    /// The pivot limit — 100 × (rows + columns + 10) of the tableau — ran
    /// out before both phases finished: nothing is known about the LP.
    Unsolved,
}

/// Pivots one solve may take over a tableau of `rows` × `cols`: a hundred
/// per row and column, with a floor for tiny LPs. A solve that needs more
/// is treated as stuck (cycling, or creeping along a degenerate face) and
/// gives up instead of hanging — the MILP checks its time limit only
/// between LP solves.
fn pivot_limit(rows: usize, cols: usize) -> usize {
    100 * (rows + cols + 10)
}

const EPS: f64 = 1e-9;

/// Smallest entry the ratio test pivots on, and smallest reduced cost
/// that lets a column enter. With [`EPS`] for both, a column whose
/// reduced cost was rounding noise entered on a pivot just above `EPS`,
/// which scales its row by ~10⁹: on an assigner relaxation with
/// coefficients down to 5·10⁻⁶ the tableau grew to 10²¹ and the simplex
/// never returned. Raising either alone still let it report an
/// infeasible point as optimal, or a feasible problem as infeasible.
const PIVOT_EPS: f64 = 1e-7;

struct Tableau {
    /// rows × (n_total + 1); last column is RHS.
    a: Vec<Vec<f64>>,
    basis: Vec<usize>,
    n_total: usize,
    /// Pivots [`Tableau::optimize`] may still take, over both phases.
    pivots_left: usize,
}

/// How a run of [`Tableau::optimize`] ended.
#[derive(Debug, PartialEq)]
enum Optimized {
    Optimal,
    Unbounded,
    PivotLimit,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.a[row][col];
        debug_assert!(p.abs() > EPS);
        let inv = 1.0 / p;
        for v in self.a[row].iter_mut() {
            *v *= inv;
        }
        let pivot_row = self.a[row].clone();
        for (r, arow) in self.a.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let f = arow[col];
            if f.abs() > EPS {
                for (v, pv) in arow.iter_mut().zip(pivot_row.iter()) {
                    *v -= f * pv;
                }
            }
        }
        self.basis[row] = col;
    }

    /// Primal simplex iterations on reduced costs `z` (length n_total+1,
    /// last entry = −objective), within the remaining pivot budget.
    ///
    /// Pricing: Dantzig's rule (most negative reduced cost) for speed,
    /// falling back to Bland's rule after a run of degenerate pivots so
    /// termination stays guaranteed.
    fn optimize(&mut self, z: &mut [f64], allowed: &[bool]) -> Optimized {
        let mut degenerate_run = 0usize;
        const BLAND_AFTER: usize = 40;
        loop {
            let mut enter = None;
            if degenerate_run < BLAND_AFTER {
                // Dantzig: most negative reduced cost.
                let mut best = -PIVOT_EPS;
                for j in 0..self.n_total {
                    if allowed[j] && z[j] < best {
                        best = z[j];
                        enter = Some(j);
                    }
                }
            } else {
                // Bland: smallest index (anti-cycling).
                for j in 0..self.n_total {
                    if allowed[j] && z[j] < -PIVOT_EPS {
                        enter = Some(j);
                        break;
                    }
                }
            }
            let Some(col) = enter else { return Optimized::Optimal };
            // Ratio test, smallest basis index breaking ties.
            let mut leave: Option<(usize, f64)> = None;
            for (r, arow) in self.a.iter().enumerate() {
                if arow[col] > PIVOT_EPS {
                    let ratio = arow[self.n_total] / arow[col];
                    match leave {
                        None => leave = Some((r, ratio)),
                        Some((lr, lratio)) => {
                            if ratio < lratio - EPS
                                || (ratio < lratio + EPS && self.basis[r] < self.basis[lr])
                            {
                                leave = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, ratio)) = leave else { return Optimized::Unbounded };
            if self.pivots_left == 0 {
                return Optimized::PivotLimit;
            }
            self.pivots_left -= 1;
            if ratio.abs() <= EPS {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }
            self.pivot(row, col);
            // Update reduced-cost row.
            let f = z[col];
            for (zv, av) in z.iter_mut().zip(self.a[row].iter()) {
                *zv -= f * av;
            }
        }
    }
}

/// A normalized constraint row: `(coefficients, op, rhs)`.
type Row = (Vec<(usize, f64)>, ConstraintOp, f64);

/// Solve a linear program with the two-phase simplex, giving up
/// ([`LpResult::Unsolved`]) when the tableau's pivot limit runs out.
pub fn solve_lp(lp: &LinProg) -> LpResult {
    solve_lp_capped(lp, None)
}

/// [`solve_lp`] with the pivot budget `max_pivots`, when given, instead
/// of [`pivot_limit`].
#[allow(clippy::needless_range_loop)]
pub(crate) fn solve_lp_capped(lp: &LinProg, max_pivots: Option<usize>) -> LpResult {
    // Assemble rows: user constraints plus upper-bound rows.
    let mut rows: Vec<Row> = lp
        .constraints
        .iter()
        .map(|c| (c.coeffs.clone(), c.op, c.rhs))
        .collect();
    for (v, ub) in lp.upper_bounds.iter().enumerate() {
        if let Some(u) = ub {
            rows.push((vec![(v, 1.0)], ConstraintOp::Le, *u));
        }
    }

    let m = rows.len();
    let n = lp.n_vars;
    // Column layout: [vars | slacks/surplus | artificials]
    let mut n_slack = 0usize;
    for (_, op, _) in &rows {
        if *op != ConstraintOp::Eq {
            n_slack += 1;
        }
    }
    let mut n_art = 0usize;
    // Decide per-row artificial need after normalizing RHS sign.
    let n_total_guess = n + n_slack + m;
    let mut a = vec![vec![0.0f64; n_total_guess + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut slack_idx = n;
    let mut art_cols: Vec<usize> = Vec::new();

    for (r, (coeffs, op, rhs)) in rows.iter().enumerate() {
        let mut rhs = *rhs;
        let mut sign = 1.0;
        if rhs < 0.0 {
            rhs = -rhs;
            sign = -1.0;
        }
        for &(v, c) in coeffs {
            assert!(v < n, "constraint references variable {v} out of range");
            a[r][v] += sign * c;
        }
        a[r][n_total_guess] = rhs;
        let op = match (op, sign < 0.0) {
            (ConstraintOp::Le, false) | (ConstraintOp::Ge, true) => ConstraintOp::Le,
            (ConstraintOp::Ge, false) | (ConstraintOp::Le, true) => ConstraintOp::Ge,
            (ConstraintOp::Eq, _) => ConstraintOp::Eq,
        };
        match op {
            ConstraintOp::Le => {
                a[r][slack_idx] = 1.0;
                basis[r] = slack_idx;
                slack_idx += 1;
            }
            ConstraintOp::Ge => {
                a[r][slack_idx] = -1.0;
                slack_idx += 1;
                let art = n + n_slack + n_art;
                a[r][art] = 1.0;
                basis[r] = art;
                art_cols.push(art);
                n_art += 1;
            }
            ConstraintOp::Eq => {
                let art = n + n_slack + n_art;
                a[r][art] = 1.0;
                basis[r] = art;
                art_cols.push(art);
                n_art += 1;
            }
        }
    }
    let n_total = n + n_slack + n_art;
    // Shrink rows to actual width (artificial guess was m).
    for row in a.iter_mut() {
        let rhs = row[n_total_guess];
        row.truncate(n_total);
        row.push(rhs);
    }

    let pivots_left = max_pivots.unwrap_or_else(|| pivot_limit(m, n_total));
    let mut t = Tableau { a, basis, n_total, pivots_left };

    // --- Phase 1: minimize sum of artificials ---
    if n_art > 0 {
        let mut z = vec![0.0f64; n_total + 1];
        for &c in &art_cols {
            z[c] = 1.0;
        }
        // Express z in terms of non-basic variables (price out basics).
        for (r, &b) in t.basis.iter().enumerate() {
            if z[b].abs() > EPS {
                let f = z[b];
                for (zv, av) in z.iter_mut().zip(t.a[r].iter()) {
                    *zv -= f * av;
                }
            }
        }
        let allowed = vec![true; n_total];
        let phase1 = t.optimize(&mut z, &allowed);
        if phase1 == Optimized::PivotLimit {
            return LpResult::Unsolved;
        }
        debug_assert_eq!(phase1, Optimized::Optimal, "phase 1 cannot be unbounded");
        let phase1_obj = -z[n_total];
        if phase1_obj > 1e-7 {
            return LpResult::Infeasible;
        }
        // Drive any remaining artificial out of the basis.
        for r in 0..m {
            if art_cols.contains(&t.basis[r]) {
                let col = (0..n + n_slack).find(|&j| t.a[r][j].abs() > EPS);
                if let Some(c) = col {
                    t.pivot(r, c);
                }
                // If the whole row is zero it is redundant; leave it.
            }
        }
    }

    // --- Phase 2: minimize the real objective, artificials forbidden ---
    let mut z = vec![0.0f64; n_total + 1];
    for (j, &c) in lp.objective.iter().enumerate() {
        z[j] = c;
    }
    for (r, &b) in t.basis.iter().enumerate() {
        if z[b].abs() > EPS {
            let f = z[b];
            for (zv, av) in z.iter_mut().zip(t.a[r].iter()) {
                *zv -= f * av;
            }
        }
    }
    let mut allowed = vec![true; n_total];
    for &c in &art_cols {
        allowed[c] = false;
    }
    match t.optimize(&mut z, &allowed) {
        Optimized::Optimal => {}
        Optimized::Unbounded => return LpResult::Unbounded,
        Optimized::PivotLimit => return LpResult::Unsolved,
    }

    let mut x = vec![0.0f64; n];
    for (r, &b) in t.basis.iter().enumerate() {
        if b < n {
            x[b] = t.a[r][n_total];
        }
    }
    let objective = lp.objective.iter().zip(x.iter()).map(|(c, v)| c * v).sum();
    LpResult::Optimal(LpSolution { x, objective })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_opt(res: &LpResult, obj: f64) -> &LpSolution {
        match res {
            LpResult::Optimal(s) => {
                assert!((s.objective - obj).abs() < 1e-6, "objective {} != {obj}", s.objective);
                s
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn pivot_limit_reports_the_lp_unsolved() {
        // The textbook LP below needs two pivots: a budget of one gives
        // up with nothing claimed, the size-derived budget solves it.
        let lp = LinProg::minimize(vec![-3.0, -5.0])
            .with(Constraint::le(vec![(0, 1.0)], 4.0))
            .with(Constraint::le(vec![(1, 2.0)], 12.0))
            .with(Constraint::le(vec![(0, 3.0), (1, 2.0)], 18.0));
        assert_eq!(solve_lp_capped(&lp, Some(1)), LpResult::Unsolved);
        assert_opt(&solve_lp(&lp), -36.0);
        // A phase-1 LP (an equality row) gives up in phase 1 as well.
        let eq = LinProg::minimize(vec![1.0, 1.0])
            .with(Constraint::eq(vec![(0, 1.0), (1, 1.0)], 2.0))
            .with(Constraint::ge(vec![(0, 1.0)], 1.0));
        assert_eq!(solve_lp_capped(&eq, Some(0)), LpResult::Unsolved);
        assert_opt(&solve_lp(&eq), 2.0);
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), 36.
        let lp = LinProg::minimize(vec![-3.0, -5.0])
            .with(Constraint::le(vec![(0, 1.0)], 4.0))
            .with(Constraint::le(vec![(1, 2.0)], 12.0))
            .with(Constraint::le(vec![(0, 3.0), (1, 2.0)], 18.0));
        let s = solve_lp(&lp);
        let sol = assert_opt(&s, -36.0);
        assert!((sol.x[0] - 2.0).abs() < 1e-6);
        assert!((sol.x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + 2y s.t. x + y = 10, x ≥ 3 → (10−y…) optimum x=10,y=0? x≥3:
        // min at y=0, x=10 → 10. But check x≥3 active case: obj prefers x.
        let lp = LinProg::minimize(vec![1.0, 2.0])
            .with(Constraint::eq(vec![(0, 1.0), (1, 1.0)], 10.0))
            .with(Constraint::ge(vec![(0, 1.0)], 3.0));
        let sol = assert_opt(&solve_lp(&lp), 10.0).clone();
        assert!((sol.x[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let lp = LinProg::minimize(vec![1.0])
            .with(Constraint::ge(vec![(0, 1.0)], 5.0))
            .with(Constraint::le(vec![(0, 1.0)], 3.0));
        assert_eq!(solve_lp(&lp), LpResult::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let lp = LinProg::minimize(vec![-1.0]).with(Constraint::ge(vec![(0, 1.0)], 1.0));
        assert_eq!(solve_lp(&lp), LpResult::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        let lp = LinProg::minimize(vec![-1.0, -1.0])
            .bound(0, 2.5)
            .bound(1, 1.5)
            .with(Constraint::le(vec![(0, 1.0), (1, 1.0)], 10.0));
        let sol = assert_opt(&solve_lp(&lp), -4.0).clone();
        assert!((sol.x[0] - 2.5).abs() < 1e-6);
        assert!((sol.x[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x − y ≥ −2 with min x at y=0 → x=0 feasible (0 ≥ −2).
        let lp = LinProg::minimize(vec![1.0, 0.0])
            .with(Constraint::ge(vec![(0, 1.0), (1, -1.0)], -2.0));
        assert_opt(&solve_lp(&lp), 0.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic cycling candidate; Bland's rule must terminate.
        let lp = LinProg::minimize(vec![-0.75, 150.0, -0.02, 6.0])
            .with(Constraint::le(vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], 0.0))
            .with(Constraint::le(vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], 0.0))
            .with(Constraint::le(vec![(2, 1.0)], 1.0));
        match solve_lp(&lp) {
            LpResult::Optimal(s) => assert!((s.objective + 0.05).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transportation_structure() {
        // 2 sources (supply 3, 4) × 2 sinks (demand 5, 2), costs [[1,4],[2,1]].
        // Optimum: x00=3, x10=2, x11=2 → 3+4+2 = 9.
        let idx = |i: usize, j: usize| i * 2 + j;
        let lp = LinProg::minimize(vec![1.0, 4.0, 2.0, 1.0])
            .with(Constraint::le(vec![(idx(0, 0), 1.0), (idx(0, 1), 1.0)], 3.0))
            .with(Constraint::le(vec![(idx(1, 0), 1.0), (idx(1, 1), 1.0)], 4.0))
            .with(Constraint::eq(vec![(idx(0, 0), 1.0), (idx(1, 0), 1.0)], 5.0))
            .with(Constraint::eq(vec![(idx(0, 1), 1.0), (idx(1, 1), 1.0)], 2.0));
        assert_opt(&solve_lp(&lp), 9.0);
    }

    #[test]
    fn zero_variable_lp() {
        let lp = LinProg::minimize(vec![]);
        match solve_lp(&lp) {
            LpResult::Optimal(s) => assert_eq!(s.objective, 0.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn redundant_equalities_ok() {
        let lp = LinProg::minimize(vec![1.0, 1.0])
            .with(Constraint::eq(vec![(0, 1.0), (1, 1.0)], 4.0))
            .with(Constraint::eq(vec![(0, 2.0), (1, 2.0)], 8.0));
        assert_opt(&solve_lp(&lp), 4.0);
    }

    /// Rows of a relaxation the assigner built (the memory rows carry
    /// coefficients down to 5·10⁻⁶), trimmed to a feasibility problem
    /// that [`EPS`] in place of [`PIVOT_EPS`] gets wrong: it returned a
    /// point 5.45 outside the constraints as feasible, and the untrimmed
    /// relaxation never returned at all. One line per
    /// constraint: `L`/`E`/`G`, the right-hand side, `variable:coefficient`.
    const ILL_CONDITIONED: &str = "
        E 1 32:1
        E 1 34:1 37:1
        E 1 39:1
        L 0 10:1
        L 0 5:1 15:1 35:1 44:-8
        L 0 27:1 28:1 29:1 32:1 37:1 43:1 45:-8
        L 0 0:0.17447707042633312 1:0.14933993624961225 2:0.2213235477556766 8:0.17447707042633312 9:0.14933993624961225 10:0.2213235477556766 46:-1
        L 0 0:0.006964037605228757 1:0.008050702904374056 2:0.013290304055093256 3:0.02355792414117647 8:0.006964037605228757 9:0.008050702904374056 10:0.013290304055093256 11:0.02355792414117647 20:0.006964037605228757 21:0.008050702904374056 22:0.013290304055093256 23:0.02355792414117647 47:-1
        L 0 12:0.06284448681970933 13:0.053820900192168494 14:0.04042224126036544 15:0.04434613423325062 35:0.06284448681970933 39:0.06284448681970933 44:3.645728e-05 46:-1
        L 0 4:0.004136819192736902 12:0.004136819192736902 13:0.004765757307997846 15:0.01374099789521468 35:0.004136819192736902 39:0.004136819192736902 44:5.49152e-06 47:-1
        L 0 6:0.06284448681970933 7:0.053820900192168494 24:0.06284448681970933 25:0.053820900192168494 26:0.04042224126036544 27:0.04434613423325062 28:0.04042224126036544 29:0.04434613423325062 32:0.053820900192168494 33:0.04434613423325062 36:0.053820900192168494 37:0.04434613423325062 43:0.06284448681970933 46:-1
        L 0 6:0.004136819192736902 7:0.004765757307997846 24:0.004136819192736902 28:0.007798323890407672 32:0.004765757307997846 36:0.004765757307997846 43:0.004136819192736902 47:-1
        G 0 8:1 2:-1 3:-1 12:2 4:-2 13:2 5:-2 15:2 16:3 17:3 7:-3 18:3 19:3
        G 0 12:-2 13:-2 15:-2 24:3
        G 0 24:-3 28:3 26:-3 27:-3
        G 0 32:3 28:-3
        G 0 35:2 36:3 32:-3
        G 0 38:1 39:2 35:-2 40:3 36:-3 41:3 42:3 37:-3
        G 0 39:-2 43:3
        L 0 41:1
        L 0 40:1
        L 0 3:1
        L 0 18:1
        L 0 17:1
        L 0 11:1
        L 0 26:1
        L 0 13:1
        L 0 36:1
        L 0 25:1
        L 0 19:1
        L 0 37:1
        L 0 27:1
        L 0 15:1
        L 0 16:1
        L 0 30:1
        L 0 42:1
        L 0 31:1
        G 1 44:1
        G 1 45:1
        G 1 39:1
    ";

    #[test]
    fn tiny_pivots_are_refused() {
        let rows: Vec<Constraint> = ILL_CONDITIONED
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let mut it = l.split_whitespace();
                let op = it.next().unwrap();
                let rhs: f64 = it.next().unwrap().parse().unwrap();
                let coeffs = it
                    .map(|t| {
                        let (v, c) = t.split_once(':').unwrap();
                        (v.parse().unwrap(), c.parse().unwrap())
                    })
                    .collect();
                match op {
                    "L" => Constraint::le(coeffs, rhs),
                    "E" => Constraint::eq(coeffs, rhs),
                    _ => Constraint::ge(coeffs, rhs),
                }
            })
            .collect();
        let n = rows.iter().flat_map(|c| &c.coeffs).map(|&(v, _)| v + 1).max().unwrap();
        let lp = rows.iter().cloned().fold(LinProg::minimize(vec![0.0; n]), LinProg::with);
        let res = solve_lp(&lp);
        let x = &assert_opt(&res, 0.0).x;
        assert!(x.iter().all(|&v| v >= -1e-9));
        for (i, c) in rows.iter().enumerate() {
            let lhs: f64 = c.coeffs.iter().map(|&(v, a)| a * x[v]).sum();
            let slack = match c.op {
                ConstraintOp::Le => c.rhs - lhs,
                ConstraintOp::Ge => lhs - c.rhs,
                ConstraintOp::Eq => -(lhs - c.rhs).abs(),
            };
            assert!(slack > -1e-6, "row {i} violated by {}", -slack);
        }
    }
}
