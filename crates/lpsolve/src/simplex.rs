//! Dense simplex with Bland's anti-cycling rule, for packing LPs.
//!
//! Generic over [`LpNum`], so the identical pivot code runs in `f64` and in
//! exact rational arithmetic. The problems here are tiny (tens of variables
//! and constraints), so a dense tableau with Bland's rule — slow but
//! provably terminating — is the right engineering trade.
//!
//! Every row is `a·x ≤ b` with `b ≥ 0` (the [`LinearProgram`] builder
//! enforces it), so each row's `+1` slack is a feasible starting basis at
//! `x = 0` and one phase suffices: no artificial columns, no row flips, and
//! no infeasible outcome. Columns are `[originals | slacks]`.

use crate::model::LinearProgram;
use crate::num::LpNum;

/// The outcome of solving an LP.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome<T> {
    /// An optimal solution exists.
    Optimal {
        /// Objective value.
        objective: T,
        /// Primal solution (original variables only).
        x: Vec<T>,
        /// Dual solution, one per constraint row: row `i`'s price, read
        /// from the final objective row at that row's slack column.
        duals: Vec<T>,
    },
    /// The objective is unbounded above.
    Unbounded,
}

/// A dense simplex tableau.
struct Tableau<T> {
    /// rows[m][n+1]: constraint rows, last column is the RHS.
    rows: Vec<Vec<T>>,
    /// Objective row (reduced costs), length n+1; maximization.
    obj: Vec<T>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    n: usize,
}

impl<T: LpNum> Tableau<T> {
    fn pivot(&mut self, row: usize, col: usize) {
        let pivot_val = self.rows[row][col].clone();
        debug_assert!(!pivot_val.near_zero(), "pivot on (near-)zero element");
        // Normalize pivot row.
        for v in self.rows[row].iter_mut() {
            *v = v.div(&pivot_val);
        }
        // Eliminate the column from all other rows and the objective.
        for r in 0..self.rows.len() {
            if r == row {
                continue;
            }
            let factor = self.rows[r][col].clone();
            if factor.near_zero() {
                continue;
            }
            for c in 0..=self.n {
                let delta = factor.mul(&self.rows[row][c]);
                self.rows[r][c] = self.rows[r][c].sub(&delta);
            }
        }
        let factor = self.obj[col].clone();
        if !factor.near_zero() {
            for c in 0..=self.n {
                let delta = factor.mul(&self.rows[row][c]);
                self.obj[c] = self.obj[c].sub(&delta);
            }
        }
        self.basis[row] = col;
    }

    /// Run the simplex loop on the objective row. Bland's rule: entering =
    /// lowest-index column with positive reduced cost; leaving = lowest
    /// ratio, ties by lowest basic-variable index. Returns false if
    /// unbounded.
    fn optimize(&mut self) -> bool {
        loop {
            // Entering column (maximization: positive coefficient in obj).
            let Some(col) = (0..self.n).find(|&c| self.obj[c].gt_zero()) else {
                return true; // optimal
            };
            // Ratio test.
            let mut best: Option<(usize, T)> = None;
            for r in 0..self.rows.len() {
                let a = &self.rows[r][col];
                if !a.gt_zero() {
                    continue;
                }
                let ratio = self.rows[r][self.n].div(a);
                let better = match &best {
                    None => true,
                    Some((br, bratio)) => {
                        ratio < *bratio || (ratio == *bratio && self.basis[r] < self.basis[*br])
                    }
                };
                if better {
                    best = Some((r, ratio));
                }
            }
            let Some((row, _)) = best else {
                return false; // unbounded
            };
            self.pivot(row, col);
        }
    }
}

/// Solve `lp` (maximization) in the arithmetic of `T`.
pub fn solve<T: LpNum>(lp: &LinearProgram) -> LpOutcome<T> {
    let m = lp.num_constraints();
    let nv = lp.num_vars();
    let n = nv + m;

    // Row i: its coefficients, a +1 in slack column nv + i, which starts
    // basic, and the RHS.
    let rows = lp
        .constraints()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut row = vec![T::zero(); n + 1];
            for (j, &a) in c.coeffs.iter().enumerate() {
                row[j] = T::from_f64(a);
            }
            row[nv + i] = T::one();
            row[n] = T::from_f64(c.rhs);
            row
        })
        .collect();
    // The slacks cost nothing, so the starting basis needs no pricing out.
    let mut obj = vec![T::zero(); n + 1];
    for (j, &cj) in lp.objective().iter().enumerate() {
        obj[j] = T::from_f64(cj);
    }
    let mut tab = Tableau {
        rows,
        obj,
        basis: (nv..n).collect(),
        n,
    };
    if !tab.optimize() {
        return LpOutcome::Unbounded;
    }

    // Extract the solution.
    let mut x = vec![T::zero(); nv];
    for r in 0..m {
        let b = tab.basis[r];
        if b < nv {
            x[b] = tab.rows[r][n].clone();
        }
    }
    // Recompute the objective directly from x for robustness.
    let mut objective = T::zero();
    for (j, &cj) in lp.objective().iter().enumerate() {
        objective = objective.add(&T::from_f64(cj).mul(&x[j]));
    }
    // Row i's slack has cost 0 and column e_i, so its reduced cost is
    // minus row i's dual price.
    let duals = tab
        .obj
        .iter()
        .skip(nv)
        .take(m)
        .map(|r| T::zero().sub(r))
        .collect();
    LpOutcome::Optimal {
        objective,
        x,
        duals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::Rational;

    fn assert_optimal_f64(lp: &LinearProgram, want_obj: f64, want_x: Option<&[f64]>) {
        match solve::<f64>(lp) {
            LpOutcome::Optimal { objective, x, .. } => {
                assert!(
                    (objective - want_obj).abs() < 1e-6,
                    "objective {objective} != {want_obj}"
                );
                assert!(lp.is_feasible(&x, 1e-6), "solution infeasible: {x:?}");
                if let Some(w) = want_x {
                    for (a, b) in x.iter().zip(w) {
                        assert!((a - b).abs() < 1e-6, "x {x:?} != {w:?}");
                    }
                }
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn paper_lp_gives_90() {
        let mut lp = LinearProgram::new();
        let x1 = lp.add_var("x1", 1.0);
        let x2 = lp.add_var("x2", 1.0);
        let x3 = lp.add_var("x3", 1.0);
        lp.add_constraint("b12", &[(x1, 1.0), (x2, 1.0)], 40.0);
        lp.add_constraint("b13", &[(x1, 1.0), (x3, 1.0)], 60.0);
        lp.add_constraint("b23", &[(x2, 1.0), (x3, 1.0)], 80.0);
        assert_optimal_f64(&lp, 90.0, Some(&[10.0, 30.0, 50.0]));
        // Exact arithmetic agrees.
        match solve::<Rational>(&lp) {
            LpOutcome::Optimal {
                objective,
                x,
                duals,
            } => {
                assert_eq!(objective, Rational::from_int(90));
                assert_eq!(duals, vec![Rational::new(1, 2); 3]);
                assert_eq!(
                    x,
                    vec![
                        Rational::from_int(10),
                        Rational::from_int(30),
                        Rational::from_int(50)
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_erratum_variant_also_90_but_permuted() {
        // The constraint set as literally printed in the paper.
        let mut lp = LinearProgram::new();
        let x1 = lp.add_var("x1", 1.0);
        let x2 = lp.add_var("x2", 1.0);
        let x3 = lp.add_var("x3", 1.0);
        lp.add_constraint("b12", &[(x1, 1.0), (x2, 1.0)], 40.0);
        lp.add_constraint("b23", &[(x2, 1.0), (x3, 1.0)], 60.0);
        lp.add_constraint("b13", &[(x1, 1.0), (x3, 1.0)], 80.0);
        assert_optimal_f64(&lp, 90.0, Some(&[30.0, 10.0, 50.0]));
    }

    #[test]
    fn single_variable_box() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 3.0);
        lp.add_constraint("cap", &[(x, 1.0)], 7.0);
        assert_optimal_f64(&lp, 21.0, Some(&[7.0]));
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 0.0);
        lp.add_constraint("only-y", &[(y, 1.0)], 5.0);
        let _ = x;
        assert_eq!(solve::<f64>(&lp), LpOutcome::Unbounded);
    }

    #[test]
    fn degenerate_redundant_constraints() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var("x", 1.0);
        lp.add_constraint("a", &[(x, 1.0)], 5.0);
        lp.add_constraint("b", &[(x, 1.0)], 5.0);
        lp.add_constraint("c", &[(x, 2.0)], 10.0);
        assert_optimal_f64(&lp, 5.0, Some(&[5.0]));
    }

    #[test]
    fn klee_minty_3d_terminates() {
        // A classic worst case for naive pivoting; Bland's rule must
        // terminate and find 10^3-ish optimum.
        let mut lp = LinearProgram::new();
        let xs: Vec<usize> = (0..3)
            .map(|i| lp.add_var(format!("x{i}"), 10f64.powi(2 - i)))
            .collect();
        // Constraints: 2*sum_{j<i} 10^(i-j) x_j + x_i <= 100^i
        for i in 0..3 {
            let mut terms = Vec::new();
            for (j, &xj) in xs.iter().enumerate().take(i) {
                terms.push((xj, 2.0 * 10f64.powi((i - j) as i32)));
            }
            terms.push((xs[i], 1.0));
            lp.add_constraint(format!("c{i}"), &terms, 100f64.powi(i as i32 + 1));
        }
        match solve::<f64>(&lp) {
            LpOutcome::Optimal { objective, .. } => {
                assert!((objective - 1_000_000.0).abs() < 1e-3, "{objective}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_constraint_problem() {
        // No constraints at all but zero objective: optimal trivially.
        let mut lp = LinearProgram::new();
        lp.add_var("x", 0.0);
        match solve::<f64>(&lp) {
            LpOutcome::Optimal {
                objective,
                x,
                duals,
            } => {
                assert_eq!(objective, 0.0);
                assert_eq!(x, vec![0.0]);
                assert!(duals.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }
}
