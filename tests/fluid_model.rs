//! Fluid-model ground-truth properties.
//!
//! The ODE subsystem is only a useful second oracle if it is *bounded by
//! physics* (no fluid equilibrium can beat the max-throughput LP of the
//! same network), *accurate where the paper makes claims* (OLIA and Balia
//! reach the 90 Mbps optimum corner on the Figure-1 network; LIA does
//! not), and *exactly reproducible* (two solves of the same model are
//! bit-identical). This file pins all three.

use mptcp_overlap::fluidsim::{solve, FluidLaw, FluidModel};
use mptcp_overlap::overlap_core::{
    fluid_paper_run, ConstraintVariant, RandomOverlapConfig, RandomOverlapNet,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any random generalized-overlap topology, every coupled law's
    /// fluid long-run allocation is feasible: its aggregate never exceeds
    /// the LP optimum of the same (topology, paths) pair. The tiny slack
    /// covers cycle-averaged allocations, whose within-cycle excursions
    /// straddle the capacity surface.
    #[test]
    fn fluid_equilibrium_never_beats_the_lp(
        seed in 0u64..1000,
        law_pick in 0usize..3,
    ) {
        let law = [FluidLaw::Lia, FluidLaw::Olia, FluidLaw::Balia][law_pick];
        let net = RandomOverlapNet::generate(&RandomOverlapConfig {
            seed,
            ..Default::default()
        });
        let lp = net.lp_optimum();
        let model = FluidModel::from_topology(&net.topology, &net.paths);
        let run = solve(&model, law, 180.0);
        prop_assert!(
            run.outcome != mptcp_overlap::fluidsim::FluidOutcome::Divergent,
            "seed {seed} {}: diverged", law.name()
        );
        prop_assert!(
            run.total_mbps <= lp.total_mbps * 1.005 + 1e-9,
            "seed {seed} {}: fluid {:.3} beats LP {:.3}",
            law.name(), run.total_mbps, lp.total_mbps
        );
        for (i, &x) in run.per_path_mbps.iter().enumerate() {
            prop_assert!(x >= 0.0, "seed {seed} {}: path {i} rate {x}", law.name());
        }
    }
}

#[test]
fn olia_and_balia_reach_the_optimum_corner() {
    // Consistent variant, Path 2 default (the paper's headline setup):
    // both optimum-seeking laws within 5% of the 90 Mbps LP optimum.
    for law in [FluidLaw::Olia, FluidLaw::Balia] {
        let run = fluid_paper_run(ConstraintVariant::Consistent, 1, law);
        assert!(run.settled(), "{}: {:?}", law.name(), run.outcome);
        assert!(
            run.total_mbps >= 0.95 * 90.0,
            "{}: {:.2} Mbps",
            law.name(),
            run.total_mbps
        );
    }
}

#[test]
fn erratum_variant_reaches_the_permuted_optimum() {
    // AsPrinted constraints with Path 1 default (the fast path is the one
    // the permuted optimum favors): OLIA and Balia land within 5% of the
    // erratum-corrected optimum x1=30, x2=10, x3=50.
    let expect = [30.0, 10.0, 50.0];
    for (law, per_path_tol) in [(FluidLaw::Olia, 1.0), (FluidLaw::Balia, 3.0)] {
        let run = fluid_paper_run(ConstraintVariant::AsPrinted, 0, law);
        assert!(run.settled(), "{}: {:?}", law.name(), run.outcome);
        assert!(
            run.total_mbps >= 0.95 * 90.0,
            "{}: {:.2} Mbps",
            law.name(),
            run.total_mbps
        );
        for (i, (&got, &want)) in run.per_path_mbps.iter().zip(&expect).enumerate() {
            assert!(
                (got - want).abs() <= per_path_tol,
                "{} path {}: {:.2} vs optimum {:.0}",
                law.name(),
                i + 1,
                got,
                want
            );
        }
    }
}

#[test]
fn lia_lands_in_the_suboptimal_corner() {
    // The paper's LIA claim, in fluid form: strictly below the optimum
    // and below both optimum-reaching laws, with the third bottleneck
    // (x2 + x3 ≤ 80) left slack.
    let lia = fluid_paper_run(ConstraintVariant::Consistent, 1, FluidLaw::Lia);
    assert!(lia.settled());
    assert!(lia.total_mbps < 89.0, "LIA {:.2}", lia.total_mbps);
    let b23_load = lia.per_path_mbps[1] + lia.per_path_mbps[2];
    assert!(
        b23_load < 79.0,
        "LIA must leave the 80 Mbps bottleneck slack, loads it to {b23_load:.2}"
    );
    let olia = fluid_paper_run(ConstraintVariant::Consistent, 1, FluidLaw::Olia);
    let balia = fluid_paper_run(ConstraintVariant::Consistent, 1, FluidLaw::Balia);
    assert!(lia.total_mbps < olia.total_mbps);
    assert!(lia.total_mbps < balia.total_mbps);
}

#[test]
fn double_solve_is_bit_identical_on_the_paper_network() {
    // Acceptance gate: FluidRun is a pure function of its inputs, down to
    // the last bit of every reported float.
    for law in FluidLaw::ALL {
        let a = fluid_paper_run(ConstraintVariant::Consistent, 1, law);
        let b = fluid_paper_run(ConstraintVariant::Consistent, 1, law);
        assert_eq!(a.digest, b.digest, "{}", law.name());
        assert_eq!(a.steps, b.steps, "{}", law.name());
        assert_eq!(a.outcome, b.outcome, "{}", law.name());
        for (x, y) in a.per_path_mbps.iter().zip(&b.per_path_mbps) {
            assert_eq!(x.to_bits(), y.to_bits(), "{}", law.name());
        }
        for (x, y) in a.windows.iter().zip(&b.windows) {
            assert_eq!(x.to_bits(), y.to_bits(), "{}", law.name());
        }
    }
}
