//! Linear program model builder.
//!
//! A thin, explicit representation of a packing LP: maximize `c·x` subject
//! to `a·x ≤ b` rows with `b ≥ 0`, and `x ≥ 0`. Every LP in this workspace
//! is a capacity problem of that shape (a variable per path, a `≤` row per
//! link), so `x = 0` is always feasible; the problems are tiny, so clarity
//! beats sparsity.

use std::fmt;

/// One linear constraint `coeffs · x ≤ rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Coefficient per variable (dense; length = variable count).
    pub coeffs: Vec<f64>,
    /// Right-hand side: finite and `≥ 0`.
    pub rhs: f64,
    /// Optional label (e.g. the link this capacity constraint models).
    pub label: String,
}

/// A linear program: maximize `objective · x`, `x ≥ 0`, subject to
/// [`Constraint`]s.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    var_names: Vec<String>,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with the given objective coefficient; returns its index.
    pub fn add_var(&mut self, name: impl Into<String>, objective: f64) -> usize {
        assert!(objective.is_finite());
        self.var_names.push(name.into());
        self.objective.push(objective);
        // Extend existing constraints with a zero coefficient.
        for c in &mut self.constraints {
            c.coeffs.push(0.0);
        }
        self.var_names.len() - 1
    }

    /// Add the constraint `Σ coeff·x[var] ≤ rhs` given sparse
    /// `(var, coeff)` terms. `rhs` must be finite and `≥ 0`: a capacity.
    pub fn add_constraint(
        &mut self,
        label: impl Into<String>,
        terms: &[(usize, f64)],
        rhs: f64,
    ) -> usize {
        assert!(rhs.is_finite() && rhs >= 0.0, "rhs {rhs} is not a capacity");
        let mut coeffs = vec![0.0; self.var_names.len()];
        for &(v, c) in terms {
            assert!(v < coeffs.len(), "unknown variable {v}");
            assert!(c.is_finite());
            coeffs[v] += c;
        }
        self.constraints.push(Constraint {
            coeffs,
            rhs,
            label: label.into(),
        });
        self.constraints.len() - 1
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable name.
    pub fn var_name(&self, i: usize) -> &str {
        &self.var_names[i]
    }

    /// Objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluate a candidate point's objective.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.objective.len());
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Check feasibility of a candidate point within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() || x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().zip(x).map(|(a, v)| a * v).sum();
            lhs <= c.rhs + tol
        })
    }

    /// The slack `rhs - lhs` of constraint `i` at point `x`: 0 means
    /// tight, positive means loose.
    pub fn slack(&self, i: usize, x: &[f64]) -> f64 {
        let c = &self.constraints[i];
        let lhs: f64 = c.coeffs.iter().zip(x).map(|(a, v)| a * v).sum();
        c.rhs - lhs
    }
}

impl fmt::Display for LinearProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "maximize ")?;
        for (i, c) in self.objective.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{}·{}", c, self.var_names[i])?;
        }
        writeln!(f)?;
        for c in &self.constraints {
            write!(f, "  [{}] ", c.label)?;
            let mut first = true;
            for (i, &a) in c.coeffs.iter().enumerate() {
                // simlint: allow(float-eq, reason = "Display-only: hide exactly-zero coefficients")
                if a == 0.0 {
                    continue;
                }
                if !first {
                    write!(f, " + ")?;
                }
                first = false;
                // simlint: allow(float-eq, reason = "Display-only: elide the unit coefficient")
                if a == 1.0 {
                    write!(f, "{}", self.var_names[i])?;
                } else {
                    write!(f, "{}·{}", a, self.var_names[i])?;
                }
            }
            writeln!(f, " <= {}", c.rhs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_lp() -> LinearProgram {
        let mut lp = LinearProgram::new();
        let x1 = lp.add_var("x1", 1.0);
        let x2 = lp.add_var("x2", 1.0);
        let x3 = lp.add_var("x3", 1.0);
        lp.add_constraint("s-v1", &[(x1, 1.0), (x2, 1.0)], 40.0);
        lp.add_constraint("v4-v2", &[(x1, 1.0), (x3, 1.0)], 60.0);
        lp.add_constraint("v3-d", &[(x2, 1.0), (x3, 1.0)], 80.0);
        lp
    }

    #[test]
    fn builder_tracks_shape() {
        let lp = paper_lp();
        assert_eq!(lp.num_vars(), 3);
        assert_eq!(lp.num_constraints(), 3);
        assert_eq!(lp.var_name(1), "x2");
        assert_eq!(lp.objective(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn feasibility_and_objective() {
        let lp = paper_lp();
        // The paper's optimum.
        let x = [10.0, 30.0, 50.0];
        assert!(lp.is_feasible(&x, 1e-9));
        assert_eq!(lp.objective_value(&x), 90.0);
        // Infeasible points.
        assert!(!lp.is_feasible(&[40.0, 40.0, 0.0], 1e-9));
        assert!(!lp.is_feasible(&[-1.0, 0.0, 0.0], 1e-9));
    }

    #[test]
    fn slack_is_zero_on_tight_constraints() {
        let lp = paper_lp();
        let x = [10.0, 30.0, 50.0];
        for i in 0..3 {
            assert!(
                lp.slack(i, &x).abs() < 1e-9,
                "constraint {i} should be tight"
            );
        }
        let x = [0.0, 0.0, 0.0];
        assert_eq!(lp.slack(0, &x), 40.0);
    }

    #[test]
    fn late_variables_extend_constraints() {
        let mut lp = LinearProgram::new();
        let a = lp.add_var("a", 1.0);
        lp.add_constraint("c0", &[(a, 1.0)], 5.0);
        let b = lp.add_var("b", 2.0);
        lp.add_constraint("c1", &[(a, 1.0), (b, 1.0)], 7.0);
        assert_eq!(lp.constraints()[0].coeffs.len(), 2);
        assert_eq!(lp.constraints()[0].coeffs[1], 0.0);
    }

    #[test]
    fn display_renders_readably() {
        let lp = paper_lp();
        let s = format!("{lp}");
        assert!(s.contains("maximize"), "{s}");
        assert!(s.contains("x1 + x2 <= 40"), "{s}");
    }

    #[test]
    #[should_panic(expected = "is not a capacity")]
    fn negative_rhs_is_refused() {
        let mut lp = LinearProgram::new();
        let a = lp.add_var("a", 1.0);
        lp.add_constraint("c", &[(a, -1.0)], -2.0);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        let mut lp = LinearProgram::new();
        let a = lp.add_var("a", 1.0);
        lp.add_constraint("c", &[(a, 1.0), (a, 2.0)], 6.0);
        assert_eq!(lp.constraints()[0].coeffs[0], 3.0);
    }
}
