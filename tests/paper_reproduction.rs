//! Integration tests for the headline reproduction: the Figure-1 LP ground
//! truth and the Figure-2 measurement shapes, exercised through the public
//! facade crate exactly as a downstream user would.

use mptcp_overlap::lpsolve::MaxThroughput;
use mptcp_overlap::overlap_core::FIG2_SEED;
use mptcp_overlap::prelude::*;

#[test]
fn figure_1c_lp_optimum_is_90_with_the_papers_split() {
    let net = PaperNetwork::new();
    let sol = net.lp_optimum();
    assert!((sol.total_mbps - 90.0).abs() < 1e-6);
    assert!((sol.per_path_mbps[0] - 10.0).abs() < 1e-6);
    assert!((sol.per_path_mbps[1] - 30.0).abs() < 1e-6);
    assert!((sol.per_path_mbps[2] - 50.0).abs() < 1e-6);
    assert_eq!(sol.tight_links.len(), 3);
}

#[test]
fn erratum_variant_swaps_x1_and_x2() {
    let net = PaperNetwork::build(&PaperNetworkConfig {
        variant: ConstraintVariant::AsPrinted,
        ..Default::default()
    });
    let sol = net.lp_optimum();
    assert!((sol.total_mbps - 90.0).abs() < 1e-6);
    assert!((sol.per_path_mbps[0] - 30.0).abs() < 1e-6);
    assert!((sol.per_path_mbps[1] - 10.0).abs() < 1e-6);
}

#[test]
fn greedy_fill_is_the_pareto_trap_the_paper_describes() {
    // "the simplest greedy approach to increase the rates independently
    //  would give a suboptimal solution"
    let net = PaperNetwork::new();
    let greedy = mptcp_overlap::lpsolve::MaxThroughput::greedy_fill(
        &net.topology,
        &net.paths,
        &[1, 0, 2], // start from the default path (Path 2)
    );
    let total: f64 = greedy.iter().sum();
    assert!(
        total < 90.0 - 5.0,
        "greedy from Path 2 must be clearly suboptimal: {total}"
    );
    // And it is Pareto-optimal: no single rate can grow.
    let sol = net.lp_optimum();
    for i in 0..3 {
        let mut bumped = greedy.clone();
        bumped[i] += 1.0;
        assert!(
            !sol.is_feasible(&bumped, 1e-6),
            "greedy must be Pareto (path {i} bumpable)"
        );
    }
}

#[test]
fn the_at_optimum_criterion_rejects_every_greedy_corner_and_accepts_x_star() {
    let at_optimum = |lp: &MaxThroughput, rates: &[f64]| {
        tight_utilisation(lp, rates)
            .iter()
            .all(|&u| u >= AT_OPTIMUM_UTILISATION)
    };
    for variant in [ConstraintVariant::Consistent, ConstraintVariant::AsPrinted] {
        let net = PaperNetwork::build(&PaperNetworkConfig {
            variant,
            ..Default::default()
        });
        let lp = net.lp_optimum();
        assert!(at_optimum(&lp, &lp.per_path_mbps), "{variant:?}: x*");
        for default_path in 0..3 {
            let corner = net.greedy_corner(default_path);
            assert!(
                !at_optimum(&lp, &corner),
                "{variant:?}: Path {} corner {corner:?}",
                default_path + 1
            );
        }
    }
}

#[test]
fn figure_2a_cubic_approaches_the_optimum() {
    let r = fig2a(FIG2_SEED);
    assert!(
        r.efficiency() > 0.8,
        "CUBIC efficiency {:.2}",
        r.efficiency()
    );
    // Every bottleneck the LP optimum saturates is at least 85 % busy over
    // the second half: the old total band's 15 % tolerance, applied per
    // bottleneck, which no greedy corner meets.
    let busy = tight_utilisation(&r.lp, &r.per_path_steady_mbps);
    assert!(
        busy.len() == 3 && busy.iter().all(|&u| u >= 0.85),
        "CUBIC should load every tight bottleneck within 4 s: {busy:?}"
    );
    // Physical sanity: the measured allocation is LP-feasible.
    assert!(
        r.is_physically_consistent(3.0),
        "{:?}",
        r.per_path_steady_mbps
    );
}

#[test]
fn figure_2a_default_path_saturates_first() {
    // "MPTCP-CUBIC first increases the transmission rate on the default
    //  shortest path (Path 2) reaching the capacity of the bottleneck".
    let r = fig2c(FIG2_SEED);
    // In the first 100 ms only Path 2 carries traffic and approaches 40.
    let early = SimTime::from_millis(100);
    let p2 = r.per_path[1].mean_over(SimTime::ZERO, early);
    let p1 = r.per_path[0].mean_over(SimTime::ZERO, early);
    let p3 = r.per_path[2].mean_over(SimTime::ZERO, early);
    assert!(p2 > 20.0, "Path 2 must ramp in 100 ms: {p2:.1}");
    assert!(
        p1 < 5.0 && p3 < 5.0,
        "other paths join later: {p1:.1} / {p3:.1}"
    );
    // And Path 2 peaks near its 40 Mbps bottleneck within the window.
    assert!(
        r.per_path[1].max() > 33.0,
        "Path 2 peak {:.1}",
        r.per_path[1].max()
    );
}

#[test]
fn figure_2b_olia_stays_below_cubic_within_4s() {
    let cubic = fig2a(FIG2_SEED);
    let olia = fig2b(FIG2_SEED);
    assert!(
        olia.steady_total_mbps() <= cubic.steady_total_mbps() + 2.0,
        "OLIA {:.1} vs CUBIC {:.1}",
        olia.steady_total_mbps(),
        cubic.steady_total_mbps()
    );
}

#[test]
fn runs_are_reproducible_end_to_end() {
    let a = fig2a(123);
    let b = fig2a(123);
    assert_eq!(a.total.values(), b.total.values());
    assert_eq!(a.drops, b.drops);
    let c = fig2a(124);
    assert_ne!(
        a.total.values(),
        c.total.values(),
        "different seeds must differ"
    );
}

#[test]
fn measured_rates_never_violate_lp_constraints() {
    // The LP is a hard physical bound: measured steady rates (plus header
    // slack) must always be feasible, whatever the algorithm.
    for algo in [CcAlgo::Cubic, CcAlgo::Lia, CcAlgo::Olia] {
        let net = PaperNetwork::new();
        let r = Scenario {
            default_path: net.default_path,
            ..Scenario::new(net.topology, net.paths)
        }
        .with_algo(algo)
        .run();
        assert!(
            r.is_physically_consistent(3.0),
            "{}: {:?}",
            algo.name(),
            r.per_path_steady_mbps
        );
    }
}
