//! Two-phase primal simplex for LP relaxations, on a dense tableau with
//! sparse-aware pivots.
//!
//! The solver handles general variable bounds by preprocessing: fixed
//! variables (`lower == upper`) are substituted away, remaining variables
//! are shifted to `x' = x − lower ≥ 0`, and finite upper bounds become
//! explicit bound rows. Phase 1 minimizes the sum of artificial variables;
//! phase 2 optimizes the real objective. Bland's rule is engaged after a
//! degeneracy threshold to guarantee termination.
//!
//! The tableau is stored densely, but the scheduling models it solves are
//! very sparse: a pivot row typically holds about ten nonzeros among
//! several hundred columns, and a few dozen of several hundred rows have a
//! nonzero in the pivot column. So a pivot touches little more than that
//! cross:
//!
//! * a per-column bitset over the rows (the *pattern*) holds every row
//!   whose entry may be nonzero; the ratio test reads only those rows of
//!   the entering column and records the ones above the elimination
//!   threshold (1e-12);
//! * `pivot` collects the nonzeros of the scaled pivot row once, updates
//!   each recorded row at those columns only, and extends the pattern;
//! * the phase-1 cost row is summed over the artificial rows' own nonzeros.
//!
//! The tableau buffer is kept per thread and reused by the next solve on
//! that thread (branch and bound solves one LP per node); it keeps the
//! size of the largest LP the thread has solved. Between solves it is all
//! zero: a solve zeroes the cells its pattern marks on its way out,
//! instead of clearing or allocating the whole buffer.
//!
//! Results are bit-for-bit those of the plain dense Gauss-Jordan sweep. A
//! skipped update would have computed `a − f·(±0)` for a finite `a`, which
//! is `a` itself except that a zero `a` may change sign; rows outside the
//! pattern hold exact zeros, which the ratio test would skip anyway; and
//! no comparison, ratio or returned value depends on the sign of a zero.
//! The unit tests keep the dense solver as a reference (`simplex/dense.rs`)
//! and check that both agree exactly.

use crate::model::{Model, Sense};
use std::time::Instant;

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal within tolerances.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
    /// Iteration cap hit before convergence (rare; callers must treat the
    /// result as "no usable bound").
    IterationLimit,
}

/// LP relaxation result. `x` is in the *original* variable space of the
/// model (fixed variables included); it is only meaningful for
/// [`LpStatus::Optimal`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Solve status.
    pub status: LpStatus,
    /// Primal point (original variable space).
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
}

const EPS: f64 = 1e-7;
const PIVOT_EPS: f64 = 1e-9;
/// Rows whose pivot-column entry is at most this in magnitude are left
/// out of the elimination.
const ELIM_EPS: f64 = 1e-12;

/// Storage reused by every LP solve on one thread.
#[derive(Default)]
struct Workspace {
    /// Tableau cells, row-major; row 0 is the objective row. All zero
    /// between solves.
    t: Vec<f64>,
    sparsity: Sparsity,
}

/// The tableau's sparsity pattern and the per-pivot index lists.
#[derive(Default)]
struct Sparsity {
    width: usize,
    /// `u64` words per column bitset.
    words: usize,
    /// Per column, a bitset over constraint rows (bit `i` is tableau row
    /// `i + 1`) that holds every row whose entry may be nonzero. Pivots
    /// keep it a superset of the true pattern. All zero between solves.
    pattern: Vec<u64>,
    /// The constraint rows of `hit`, as a bitset.
    hit_bits: Vec<u64>,
    /// Tableau rows (0 = objective) with a nonzero in the entering column.
    hit: Vec<usize>,
    /// Nonzeros of the scaled pivot row, as `(column, value)`.
    nz: Vec<(usize, f64)>,
}

impl Sparsity {
    /// Sizes the pattern for an `m`-row, `width`-column tableau.
    fn start(&mut self, m: usize, width: usize) {
        self.width = width;
        self.words = m.div_ceil(64).max(1);
        if self.pattern.len() < width * self.words {
            self.pattern.resize(width * self.words, 0);
        }
        self.hit_bits.clear();
        self.hit_bits.resize(self.words, 0);
    }

    /// Marks constraint row `i`'s entry in column `j` as possibly nonzero.
    fn mark(&mut self, i: usize, j: usize) {
        self.pattern[j * self.words + i / 64] |= 1 << (i % 64);
    }

    /// Zeroes the objective row and every cell the pattern marks, then
    /// the pattern itself.
    fn clear(&mut self, t: &mut [f64]) {
        let width = self.width;
        if width == 0 {
            return; // no tableau was built
        }
        t[..width].fill(0.0);
        for (j, col) in self.pattern[..width * self.words]
            .chunks_exact_mut(self.words)
            .enumerate()
        {
            for i in bits(col) {
                t[(i + 1) * width + j] = 0.0;
            }
            col.fill(0);
        }
        self.width = 0;
    }
}

/// Indices of the set bits of `words`, in increasing order.
fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

thread_local! {
    static WORKSPACE: std::cell::Cell<Workspace> = std::cell::Cell::new(Workspace::default());
}

/// Solves the LP relaxation of `model` (integrality dropped, bounds kept).
pub fn solve_lp(model: &Model) -> LpSolution {
    solve_lp_with_deadline(model, None)
}

/// Like [`solve_lp`] but aborts with [`LpStatus::IterationLimit`] once the
/// deadline passes (checked every few dozen pivots). Branch-and-bound
/// passes its remaining budget here so that one oversized LP cannot blow
/// the whole solve's wall clock.
pub fn solve_lp_with_deadline(model: &Model, deadline: Option<Instant>) -> LpSolution {
    // Taken out of the thread-local for the solve's duration, so a panic
    // mid-solve only costs the next solve a fresh allocation.
    let mut ws = WORKSPACE.take();
    let sol = solve_in(model, deadline, &mut ws);
    ws.sparsity.clear(&mut ws.t);
    debug_assert!(
        ws.t.iter().all(|&v| v == 0.0),
        "a tableau write fell outside the sparsity pattern"
    );
    WORKSPACE.set(ws);
    sol
}

fn solve_in(model: &Model, deadline: Option<Instant>, ws: &mut Workspace) -> LpSolution {
    let n = model.n_vars();
    let (lower, upper) = model.bounds();

    // Preprocess: substitute fixed variables, shift the rest to >= 0.
    let mut col_of = vec![usize::MAX; n]; // model var -> tableau structural column
    let mut var_of = Vec::new(); // tableau structural column -> model var
    for v in 0..n {
        if upper[v] - lower[v] > EPS {
            col_of[v] = var_of.len();
            var_of.push(v);
        } else if upper[v] < lower[v] - EPS {
            return LpSolution {
                status: LpStatus::Infeasible,
                x: vec![],
                objective: f64::INFINITY,
            };
        }
    }
    let ns = var_of.len(); // structural columns

    // Row data: (sparse terms over structural cols, sense, rhs), with the
    // terms of all rows in one buffer.
    struct Row {
        terms: std::ops::Range<usize>,
        sense: Sense,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(model.n_constraints() + ns);
    let mut terms: Vec<(usize, f64)> = Vec::new();
    for c in model.constraints() {
        let mut rhs = c.rhs;
        let start = terms.len();
        for &(v, coef) in &c.terms {
            let vi = v.index();
            if col_of[vi] == usize::MAX {
                rhs -= coef * lower[vi]; // fixed variable
            } else {
                rhs -= coef * lower[vi]; // shift x = lower + x'
                terms.push((col_of[vi], coef));
            }
        }
        rows.push(Row {
            terms: start..terms.len(),
            sense: c.sense,
            rhs,
        });
    }
    // Bound rows x' <= upper - lower for finite upper bounds.
    for (col, &v) in var_of.iter().enumerate() {
        if upper[v].is_finite() {
            terms.push((col, 1.0));
            rows.push(Row {
                terms: terms.len() - 1..terms.len(),
                sense: Sense::Le,
                rhs: upper[v] - lower[v],
            });
        }
    }

    // Normalize rhs >= 0.
    for r in &mut rows {
        if r.rhs < 0.0 {
            r.rhs = -r.rhs;
            for t in &mut terms[r.terms.clone()] {
                t.1 = -t.1;
            }
            r.sense = match r.sense {
                Sense::Le => Sense::Ge,
                Sense::Ge => Sense::Le,
                Sense::Eq => Sense::Eq,
            };
        }
    }

    let m = rows.len();
    // Columns: structural | slacks/surplus | artificials | rhs.
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for r in &rows {
        match r.sense {
            Sense::Le => n_slack += 1,
            Sense::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Sense::Eq => n_art += 1,
        }
    }
    let total = ns + n_slack + n_art;
    let width = total + 1; // + rhs
    let size = (m + 1) * width;
    if ws.t.len() < size {
        ws.t.resize(size, 0.0);
    }
    let t = &mut ws.t[..size];
    let s = &mut ws.sparsity;
    s.start(m, width);
    let mut basis = vec![usize::MAX; m];
    let art_start = ns + n_slack;

    // Row 0 starts as the phase-1 cost row: 1 on every artificial, minus
    // each artificial row, which prices the artificials out of the basis
    // (their own entries cancel to 0). Each row is subtracted at its own
    // nonzeros only; the model merges duplicate variables, so a row's
    // terms name distinct columns.
    {
        let mut slack_i = 0usize;
        let mut art_i = 0usize;
        for (i, r) in rows.iter().enumerate() {
            let row = (i + 1) * width;
            let r_terms = &terms[r.terms.clone()];
            for &(c, coef) in r_terms {
                t[row + c] += coef;
                s.mark(i, c);
            }
            t[row + total] = r.rhs;
            s.mark(i, total);
            let art = match r.sense {
                Sense::Le => {
                    t[row + ns + slack_i] = 1.0;
                    s.mark(i, ns + slack_i);
                    basis[i] = ns + slack_i;
                    slack_i += 1;
                    continue;
                }
                Sense::Ge => {
                    t[row + ns + slack_i] = -1.0;
                    s.mark(i, ns + slack_i);
                    t[ns + slack_i] = 1.0; // 0 − (−1)
                    slack_i += 1;
                    art_start + art_i
                }
                Sense::Eq => art_start + art_i,
            };
            t[row + art] = 1.0;
            s.mark(i, art);
            basis[i] = art;
            art_i += 1;
            for &(c, _) in r_terms {
                t[c] -= t[row + c];
            }
            t[total] -= t[row + total];
        }
    }

    let max_iters = 50 * (m + total) + 2000;
    let bland_after = 10 * (m + total) + 500;

    // --- Phase 1: minimize the sum of artificials.
    if n_art > 0 {
        match run_simplex(
            t,
            &mut basis,
            total,
            width,
            max_iters,
            bland_after,
            None,
            deadline,
            s,
        ) {
            SimplexOutcome::Optimal => {}
            SimplexOutcome::Unbounded => {
                // Phase 1 objective is bounded below by 0; numerical trouble.
                return LpSolution {
                    status: LpStatus::IterationLimit,
                    x: vec![],
                    objective: 0.0,
                };
            }
            SimplexOutcome::IterationLimit => {
                return LpSolution {
                    status: LpStatus::IterationLimit,
                    x: vec![],
                    objective: 0.0,
                };
            }
        }
        // Phase-1 objective value is -t[total] (row 0 holds -obj).
        if -t[total] > 1e-6 {
            return LpSolution {
                status: LpStatus::Infeasible,
                x: vec![],
                objective: f64::INFINITY,
            };
        }
        // Pivot remaining artificials out of the basis where possible.
        for i in 0..m {
            if basis[i] >= art_start {
                let row = (i + 1) * width;
                if let Some(j) = (0..art_start).find(|&j| t[row + j].abs() > 1e-6) {
                    let column = &s.pattern[j * s.words..(j + 1) * s.words];
                    s.hit.clear();
                    s.hit.extend(
                        std::iter::once(0)
                            .chain(bits(column).map(|k| k + 1))
                            .filter(|&k| t[k * width + j].abs() > ELIM_EPS),
                    );
                    pivot(t, width, i, j, s);
                    basis[i] = j;
                }
                // Otherwise the row is redundant (all-zero over real columns);
                // the artificial stays basic at value 0, which is harmless as
                // long as it can never re-enter (enforced below).
            }
        }
    }

    // --- Phase 2: original objective. Rebuild the cost row.
    for j in 0..width {
        t[j] = 0.0;
    }
    for (c, &v) in var_of.iter().enumerate() {
        t[c] = model.objective_coeff(crate::model::VarId(v));
    }
    for (i, &b) in basis.iter().enumerate() {
        if b < ns {
            let cost = model.objective_coeff(crate::model::VarId(var_of[b]));
            if cost != 0.0 {
                let row = (i + 1) * width;
                for j in 0..width {
                    t[j] -= cost * t[row + j];
                }
            }
        }
    }
    let outcome = run_simplex(
        t,
        &mut basis,
        total,
        width,
        max_iters,
        bland_after,
        Some(art_start),
        deadline,
        s,
    );
    let status = match outcome {
        SimplexOutcome::Optimal => LpStatus::Optimal,
        SimplexOutcome::Unbounded => {
            return LpSolution {
                status: LpStatus::Unbounded,
                x: vec![],
                objective: f64::NEG_INFINITY,
            }
        }
        SimplexOutcome::IterationLimit => LpStatus::IterationLimit,
    };

    // Extract the primal point in original space.
    let mut x = vec![0.0f64; n];
    for v in 0..n {
        x[v] = lower[v];
    }
    for (i, &b) in basis.iter().enumerate() {
        if b < ns {
            x[var_of[b]] += t[(i + 1) * width + total];
        }
    }
    let objective = model.eval_objective(&x);
    LpSolution {
        status,
        x,
        objective,
    }
}

enum SimplexOutcome {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// Runs primal simplex iterations on the tableau until optimality. Columns
/// `>= forbidden_from` (artificials in phase 2) may never enter the basis.
/// `s` holds the sparsity pattern and the index lists of [`pivot`].
#[allow(clippy::too_many_arguments)]
fn run_simplex(
    t: &mut [f64],
    basis: &mut [usize],
    total: usize,
    width: usize,
    max_iters: usize,
    bland_after: usize,
    forbidden_from: Option<usize>,
    deadline: Option<Instant>,
    s: &mut Sparsity,
) -> SimplexOutcome {
    let limit = forbidden_from.unwrap_or(total);
    for iter in 0..max_iters {
        if iter % 64 == 0 {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return SimplexOutcome::IterationLimit;
                }
            }
        }
        let bland = iter >= bland_after;
        let Some(enter) = entering(&t[..limit], bland) else {
            return SimplexOutcome::Optimal;
        };
        // Ratio test, which also records the rows the pivot must eliminate.
        // Rows outside the column's pattern hold exact zeros: skipping them
        // changes nothing.
        s.hit.clear();
        if t[enter].abs() > ELIM_EPS {
            s.hit.push(0);
        }
        let mut leave = usize::MAX;
        let mut best_ratio = f64::INFINITY;
        for i in bits(&s.pattern[enter * s.words..(enter + 1) * s.words]) {
            let a = t[(i + 1) * width + enter];
            if a.abs() > ELIM_EPS {
                s.hit.push(i + 1);
            }
            if a > PIVOT_EPS {
                let ratio = t[(i + 1) * width + total] / a;
                if ratio < best_ratio - 1e-12
                    || (bland
                        && (ratio - best_ratio).abs() <= 1e-12
                        && leave != usize::MAX
                        && basis[i] < basis[leave])
                {
                    best_ratio = ratio;
                    leave = i;
                }
            }
        }
        if leave == usize::MAX {
            return SimplexOutcome::Unbounded;
        }
        pivot(t, width, leave, enter, s);
        basis[leave] = enter;
    }
    SimplexOutcome::IterationLimit
}

/// Entering column for reduced costs `costs`: the most negative one below
/// `-EPS`, the first on ties, or under Bland's rule the first below `-EPS`.
fn entering(costs: &[f64], bland: bool) -> Option<usize> {
    if bland {
        return costs.iter().position(|&rc| rc < -EPS);
    }
    // Eight independent running minima vectorize. A minimum is exact, so
    // its first position is what a sequential strict-`<` scan would pick.
    let mut lanes = [-EPS; 8];
    let chunks = costs.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &rc) in lanes.iter_mut().zip(chunk) {
            if rc < *lane {
                *lane = rc;
            }
        }
    }
    let best = lanes
        .iter()
        .chain(tail)
        .fold(-EPS, |best, &rc| if rc < best { rc } else { best });
    if best < -EPS {
        costs.iter().position(|&rc| rc == best)
    } else {
        None
    }
}

/// Gauss-Jordan pivot on constraint row `row` (0-based) and column `col`.
///
/// `s.hit` must list every tableau row (0 = objective row) whose entry in
/// `col` exceeds [`ELIM_EPS`] in magnitude; the other rows are left as
/// they are. Each listed row is updated only at the nonzeros of the scaled
/// pivot row, gathered into `s.nz`. Everything skipped would have
/// subtracted `factor·(±0)`, so the result equals a full dense sweep. The
/// pattern gains the listed rows in every column of `s.nz`, and column
/// `col` drops the eliminated rows.
fn pivot(t: &mut [f64], width: usize, row: usize, col: usize, s: &mut Sparsity) {
    let r = (row + 1) * width;
    let pv = t[r + col];
    debug_assert!(pv.abs() > PIVOT_EPS);
    let inv = 1.0 / pv;
    s.nz.clear();
    for j in 0..width {
        t[r + j] *= inv;
        if t[r + j] != 0.0 {
            s.nz.push((j, t[r + j]));
        }
    }
    for &i in &s.hit {
        if i == row + 1 {
            continue;
        }
        let base = i * width;
        let factor = t[base + col];
        for &(j, pr) in &s.nz {
            t[base + j] -= factor * pr;
        }
        t[base + col] = 0.0; // kill residual round-off
    }

    s.hit_bits.fill(0);
    for &i in s.hit.iter().filter(|&&i| i > 0) {
        s.hit_bits[(i - 1) / 64] |= 1 << ((i - 1) % 64);
    }
    let words = s.words;
    for &(j, _) in &s.nz {
        for (p, &h) in s.pattern[j * words..].iter_mut().zip(&s.hit_bits) {
            *p |= h;
        }
    }
    for (p, &h) in s.pattern[col * words..].iter_mut().zip(&s.hit_bits) {
        *p &= !h;
    }
    s.mark(row, col);
}

#[cfg(test)]
mod dense;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};
    use proptest::prelude::*;

    /// A cell of a random tableau: mostly zeros (of both signs), some
    /// entries below the elimination threshold, small integers and floats.
    fn cell(kind: u8, value: f64) -> f64 {
        match kind {
            0..=3 => 0.0,
            4 => -0.0,
            5 => value.signum() * 1e-13,
            6 => value.round(),
            _ => value,
        }
    }

    /// A random `(m + 1) × width` tableau and a few pivot positions; one
    /// in four has more than 64 rows, so its pattern spans several words.
    fn arb_tableau() -> impl Strategy<Value = (usize, Vec<f64>, Vec<(usize, usize)>)> {
        (0u8..4, 1usize..10, 60usize..140, 2usize..16).prop_flat_map(|(k, small, big, width)| {
            let m = if k == 0 { big } else { small };
            let cells = proptest::collection::vec((0u8..10, -5.0..5.0f64), (m + 1) * width);
            let pivots = proptest::collection::vec((0..m, 0..width), 1..5);
            (cells, pivots).prop_map(move |(cells, pivots)| {
                let t = cells.into_iter().map(|(k, v)| cell(k, v)).collect();
                (width, t, pivots)
            })
        })
    }

    /// A random LP built around a point `x0`: per variable `(lower, span,
    /// objective, position of x0 in [lower, lower + span])` (`span` 0 fixes
    /// it, infinity leaves it unbounded above); per row `(terms, sense,
    /// slack)`. A row's rhs is its value at `x0`, loosened by `slack`; a
    /// negative slack cuts `x0` off, so some LPs are infeasible.
    #[derive(Debug, Clone)]
    struct RandomLp {
        vars: Vec<(f64, f64, f64, f64)>,
        rows: Vec<(Vec<(usize, f64)>, u8, f64)>,
    }

    /// Random LPs with `n_vars` variables, `n_rows` constraint rows (bound
    /// rows come on top) and fewer than `max_terms` terms per row; one row
    /// in `cut_one_in` has a negative slack.
    fn arb_lp(
        n_vars: std::ops::Range<usize>,
        n_rows: std::ops::Range<usize>,
        max_terms: usize,
        cut_one_in: u16,
    ) -> impl Strategy<Value = RandomLp> {
        n_vars.prop_flat_map(move |n| {
            let span = (0u8..6).prop_map(|k| match k {
                0 => 0.0,
                5 => f64::INFINITY,
                k => k as f64,
            });
            let var = (-2i8..3, span, (0u8..10, -5.0..5.0f64), 0u8..5);
            let vars = proptest::collection::vec(var, n).prop_map(|vs| {
                vs.into_iter()
                    .map(|(lo, span, (k, c), pos)| (lo as f64, span, cell(k, c), pos as f64 / 4.0))
                    .collect::<Vec<_>>()
            });
            let term = (0..n, (5u8..10, -4.0..4.0f64)).prop_map(|(v, (k, c))| (v, cell(k, c)));
            let row = (
                proptest::collection::vec(term, 1..max_terms.min(n + 1)),
                0u8..3,
                (0..cut_one_in, 0.0..4.0f64),
            )
                .prop_map(|(terms, sense, (k, slack))| {
                    let slack = if k == 0 {
                        -1.0
                    } else {
                        (slack * 2.0).round() / 2.0
                    };
                    (terms, sense, slack)
                });
            let rows = proptest::collection::vec(row, n_rows.clone());
            (vars, rows).prop_map(|(vars, rows)| RandomLp { vars, rows })
        })
    }

    fn build_lp(p: &RandomLp) -> Model {
        let mut m = Model::new();
        let mut x0 = Vec::new();
        let vars: Vec<_> = p
            .vars
            .iter()
            .map(|&(lo, span, obj, pos)| {
                x0.push(lo + pos * if span.is_finite() { span } else { 3.0 });
                m.add_continuous(lo, lo + span, obj)
            })
            .collect();
        for (terms, sense, slack) in &p.rows {
            let at_x0: f64 = terms.iter().map(|&(v, c)| c * x0[v]).sum();
            let (sense, rhs) = match sense {
                0 => (Sense::Le, at_x0 + slack),
                1 => (Sense::Ge, at_x0 - slack),
                _ => (Sense::Eq, at_x0 + slack.min(0.0)),
            };
            m.add_constraint(
                terms.iter().map(|&(v, c)| (vars[v], c)).collect(),
                sense,
                rhs,
            );
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sparse_pivot_matches_dense_sweep((width, t0, pivots) in arb_tableau()) {
            let m = t0.len() / width - 1;
            let (mut sparse, mut dense) = (t0.clone(), t0);
            let mut s = Sparsity::default();
            s.start(m, width);
            let nonzeros = |t: &[f64]| {
                (0..m)
                    .flat_map(|i| (0..width).map(move |j| (i, j)))
                    .filter(|&(i, j)| t[(i + 1) * width + j] != 0.0)
                    .collect::<Vec<_>>()
            };
            for (i, j) in nonzeros(&sparse) {
                s.mark(i, j);
            }
            for (row, col) in pivots {
                if sparse[(row + 1) * width + col].abs() <= PIVOT_EPS {
                    continue;
                }
                s.hit.clear();
                s.hit.extend((0..=m).filter(|&k| sparse[k * width + col].abs() > ELIM_EPS));
                pivot(&mut sparse, width, row, col, &mut s);
                dense::pivot(&mut dense, m, width, row, col);
                prop_assert_eq!(&sparse, &dense);
                for (i, j) in nonzeros(&sparse) {
                    prop_assert!(
                        s.pattern[j * s.words + i / 64] & (1 << (i % 64)) != 0,
                        "nonzero ({i}, {j}) outside the pattern"
                    );
                }
            }
        }

        #[test]
        fn solve_lp_matches_dense_path(p in arb_lp(1..9, 0..8, 10, 10)) {
            assert_same_as_dense(&build_lp(&p))?;
        }

        #[test]
        fn entering_matches_sequential_scan(
            costs in proptest::collection::vec((0u8..10, -3i8..3), 0..40),
            bland in proptest::bool::ANY,
        ) {
            // Few distinct values, so ties are common.
            let costs: Vec<f64> = costs.iter().map(|&(k, v)| cell(k, v as f64)).collect();
            let mut expect = None;
            let mut best = -EPS;
            for (j, &rc) in costs.iter().enumerate() {
                if rc < best {
                    expect = Some(j);
                    best = rc;
                    if bland {
                        break;
                    }
                }
            }
            prop_assert_eq!(entering(&costs, bland), expect);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// About 50 to 100 tableau rows: patterns of one or two words.
        #[test]
        fn larger_solve_lp_matches_dense_path(p in arb_lp(30..45, 30..60, 7, 200)) {
            assert_same_as_dense(&build_lp(&p))?;
        }
    }

    fn assert_same_as_dense(model: &Model) -> Result<(), proptest::test_runner::TestCaseError> {
        let sparse = solve_lp(model);
        let dense = dense::solve_lp(model);
        prop_assert_eq!(sparse.status, dense.status);
        prop_assert_eq!(&sparse.x, &dense.x);
        prop_assert!(
            sparse.objective == dense.objective,
            "objective {} vs {}",
            sparse.objective,
            dense.objective
        );
        Ok(())
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18 (classic): opt (2,6)=36.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -3.0);
        let y = m.add_continuous(0.0, f64::INFINITY, -5.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0);
        m.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y st x + y >= 2, x - y = 0 -> x = y = 1.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, 1.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 2.0);
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Eq, 0.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
        assert_close(s.x[0], 1.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 0.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0);
        assert_eq!(solve_lp(&m).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -1.0);
        m.add_constraint(vec![(x, -1.0)], Sense::Le, 0.0);
        assert_eq!(solve_lp(&m).status, LpStatus::Unbounded);
    }

    #[test]
    fn crossed_bounds_on_a_fresh_thread() {
        // The solve returns before building a tableau, on a thread whose
        // workspace was never sized.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        m.set_bounds(x, 2.0, 1.0);
        let status = std::thread::spawn(move || solve_lp(&m).status)
            .join()
            .unwrap();
        assert_eq!(status, LpStatus::Infeasible);
    }

    #[test]
    fn no_rows() {
        // No constraints and no finite upper bounds: an empty tableau.
        let mut m = Model::new();
        let _x = m.add_continuous(0.0, f64::INFINITY, 1.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.x, vec![0.0]);
        let mut m = Model::new();
        let _x = m.add_continuous(1.0, f64::INFINITY, -1.0);
        assert_eq!(solve_lp(&m).status, LpStatus::Unbounded);
    }

    #[test]
    fn bounds_respected() {
        // min -x with x in [0, 7].
        let mut m = Model::new();
        let _x = m.add_continuous(0.0, 7.0, -1.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 7.0);
    }

    #[test]
    fn nonzero_lower_bounds_shifted() {
        // min x + y with x in [2, 10], y in [3, 10], x + y >= 8.
        let mut m = Model::new();
        let x = m.add_continuous(2.0, 10.0, 1.0);
        let y = m.add_continuous(3.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 8.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 8.0);
    }

    #[test]
    fn fixed_variables_substituted() {
        // x fixed to 3; min y st y >= x -> y = 3.
        let mut m = Model::new();
        let x = m.add_continuous(3.0, 3.0, 0.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(y, 1.0), (x, -1.0)], Sense::Ge, 0.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 3.0);
        assert_close(s.x[1], 3.0);
    }

    #[test]
    fn negative_rhs_normalized() {
        // min x st -x <= -2 (i.e. x >= 2).
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, -1.0)], Sense::Le, -2.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the origin.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, -1.0);
        let y = m.add_continuous(0.0, 1.0, -1.0);
        for k in 1..20 {
            m.add_constraint(vec![(x, k as f64), (y, 1.0)], Sense::Le, k as f64 + 1.0);
        }
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -2.0);
    }

    #[test]
    fn fractional_lp_relaxation_of_knapsack() {
        // max 10x1 + 6x2 st 5x1 + 4x2 <= 7, x in [0,1]: LP opt x1=1, x2=0.5.
        let mut m = Model::new();
        let x1 = m.add_binary(-10.0);
        let x2 = m.add_binary(-6.0);
        m.add_constraint(vec![(x1, 5.0), (x2, 4.0)], Sense::Le, 7.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -13.0);
        assert_close(s.x[1], 0.5);
    }
}
