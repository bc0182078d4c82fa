//! # lpsolve — linear programming for throughput ground truth
//!
//! The paper frames MPTCP's task on overlapping paths as a linear program:
//! maximize `x1 + x2 + x3` under per-link capacity constraints. This crate
//! provides:
//!
//! * [`model`] — an explicit packing-LP builder (`maximize c·x`, `x ≥ 0`,
//!   `≤` rows with non-negative capacities).
//! * [`simplex`] — a one-phase dense simplex with Bland's rule, started
//!   from the slack basis (feasible because `x = 0` is), generic over the
//!   arithmetic ([`num::LpNum`]): fast `f64` for experiments and exact
//!   [`num::Rational`] for cross-validation in tests.
//! * [`flow`] — automatic extraction of the max-throughput LP from a
//!   `netsim` topology + path set, plus the greedy-fill baseline the paper
//!   contrasts against, and tight-constraint (bottleneck) reporting.
//! * [`cache`] — a thread-safe memo table keyed by the canonicalized
//!   constraint set, so parameter sweeps solve each distinct LP once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod flow;
pub mod model;
pub mod num;
pub mod simplex;

pub use cache::{LpCache, LpCacheStats};
pub use flow::{max_throughput_lp, solve_max_throughput, MaxThroughput};
pub use model::{Constraint, LinearProgram};
pub use num::{LpNum, Rational, F64_EPS};
pub use simplex::{solve, LpOutcome};

#[cfg(test)]
mod proptests {
    //! Property tests: the f64 solver agrees with the exact rational solver
    //! on random feasible capacity-style LPs.
    use super::*;
    use proptest::prelude::*;

    /// Random small capacity LP: n vars, m ≤-constraints with 0/1
    /// coefficients and positive integer capacities. Always feasible (x=0)
    /// and bounded because every variable gets a box constraint.
    fn capacity_lp(n: usize, rows: Vec<(Vec<bool>, u32)>) -> LinearProgram {
        let mut lp = LinearProgram::new();
        for i in 0..n {
            lp.add_var(format!("x{i}"), 1.0);
        }
        for i in 0..n {
            lp.add_constraint(format!("box{i}"), &[(i, 1.0)], 100.0);
        }
        for (ri, (mask, cap)) in rows.into_iter().enumerate() {
            let terms: Vec<(usize, f64)> = mask
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| (i, 1.0))
                .collect();
            if !terms.is_empty() {
                lp.add_constraint(format!("c{ri}"), &terms, cap as f64 % 97.0 + 1.0);
            }
        }
        lp
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn f64_simplex_matches_exact_rational(
            n in 1usize..5,
            rows in proptest::collection::vec(
                (proptest::collection::vec(any::<bool>(), 5), any::<u32>()),
                0..6
            ),
        ) {
            let rows: Vec<(Vec<bool>, u32)> =
                rows.into_iter().map(|(m, c)| (m[..n].to_vec(), c)).collect();
            let lp = capacity_lp(n, rows);
            let f = solve::<f64>(&lp);
            let r = solve::<Rational>(&lp);
            match (f, r) {
                (LpOutcome::Optimal { objective: fo, x: fx, .. },
                 LpOutcome::Optimal { objective: ro, x: rx, .. }) => {
                    prop_assert!((fo - ro.to_f64()).abs() < 1e-6,
                        "objectives diverge: {fo} vs {ro:?}");
                    // Both solutions must be feasible; vertices may differ
                    // when the optimum face is degenerate, so compare only
                    // objective values and feasibility.
                    prop_assert!(lp.is_feasible(&fx, 1e-6));
                    let rxf: Vec<f64> = rx.iter().map(|v| v.to_f64()).collect();
                    prop_assert!(lp.is_feasible(&rxf, 1e-6));
                }
                (a, b) => prop_assert!(false, "outcome mismatch: {a:?} vs {b:?}"),
            }
        }

        #[test]
        fn optimum_dominates_random_feasible_points(
            n in 1usize..5,
            rows in proptest::collection::vec(
                (proptest::collection::vec(any::<bool>(), 5), any::<u32>()),
                1..6
            ),
            point in proptest::collection::vec(0.0f64..100.0, 5),
        ) {
            let rows: Vec<(Vec<bool>, u32)> =
                rows.into_iter().map(|(m, c)| (m[..n].to_vec(), c)).collect();
            let lp = capacity_lp(n, rows);
            if let LpOutcome::Optimal { objective, .. } = solve::<f64>(&lp) {
                // Scale the random point down until feasible, then check it
                // cannot beat the optimum.
                let mut x: Vec<f64> = point[..n].to_vec();
                for _ in 0..40 {
                    if lp.is_feasible(&x, 1e-9) {
                        break;
                    }
                    for v in &mut x {
                        *v *= 0.7;
                    }
                }
                if lp.is_feasible(&x, 1e-9) {
                    prop_assert!(lp.objective_value(&x) <= objective + 1e-6);
                }
            } else {
                prop_assert!(false, "capacity LP must be optimal");
            }
        }
    }
}
