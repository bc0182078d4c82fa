//! Max-throughput LP extraction from a topology and path set.
//!
//! This is the paper's Section 2 made executable: given the paths MPTCP may
//! use, every link shared by one or more of them yields a capacity
//! constraint `Σ x_i ≤ c`, and the optimum of `max Σ x_i` is the ground
//! truth each congestion-control algorithm is measured against. Because the
//! LP is built from the *same* `netsim::Topology` object the packets flow
//! through, the baseline can never drift from the simulated network.

use crate::model::LinearProgram;
use crate::num::F64_EPS;
use crate::simplex::{solve, LpOutcome};
use netsim::{LinkId, Path, SharingAnalysis, Topology};
use simbase::Bandwidth;

/// The solved max-throughput problem for a path set.
#[derive(Debug, Clone)]
pub struct MaxThroughput {
    /// The LP that was solved (inspectable / printable).
    pub lp: LinearProgram,
    /// Optimal rate per path, Mbps.
    pub per_path_mbps: Vec<f64>,
    /// Optimal total, Mbps.
    pub total_mbps: f64,
    /// Links whose capacity constraint is tight at the optimum.
    pub tight_links: Vec<LinkId>,
    /// For every constrained link: (link, paths using it, capacity).
    pub link_constraints: Vec<(LinkId, Vec<usize>, Bandwidth)>,
}

/// Build the max-throughput LP for `paths` over `topo`.
///
/// One variable per path (rate in Mbps); one `≤` constraint per link used
/// by at least one path. Links used by a single path become that path's raw
/// capacity bound; links shared by several paths are exactly the paper's
/// coupling constraints.
pub fn max_throughput_lp(
    topo: &Topology,
    paths: &[Path],
) -> (LinearProgram, Vec<(LinkId, Vec<usize>, Bandwidth)>) {
    let mut lp = LinearProgram::new();
    for (i, _) in paths.iter().enumerate() {
        lp.add_var(format!("x{}", i + 1), 1.0);
    }
    let analysis = SharingAnalysis::new(paths);
    let mut link_constraints = Vec::new();
    for (link, users) in &analysis.link_users {
        let cap = topo.link(*link).capacity;
        let terms: Vec<(usize, f64)> = users.iter().map(|&u| (u, 1.0)).collect();
        let (a, b) = (topo.link(*link).a, topo.link(*link).b);
        let label = format!("{}-{}", topo.node_name(a), topo.node_name(b));
        lp.add_constraint(label, &terms, cap.as_mbps_f64());
        link_constraints.push((*link, users.clone(), cap));
    }
    (lp, link_constraints)
}

/// Solve the max-throughput problem.
///
/// Panics if the LP is unbounded — impossible for a well-formed capacity
/// problem (every variable is capped by its path's links).
pub fn solve_max_throughput(topo: &Topology, paths: &[Path]) -> MaxThroughput {
    assert!(!paths.is_empty(), "need at least one path");
    let (lp, link_constraints) = max_throughput_lp(topo, paths);
    match solve::<f64>(&lp) {
        LpOutcome::Optimal { objective, x, .. } => {
            let tight_links = link_constraints
                .iter()
                .enumerate()
                .filter(|(ci, _)| lp.slack(*ci, &x).abs() <= 1e-6)
                .map(|(_, (l, _, _))| *l)
                .collect();
            MaxThroughput {
                lp,
                per_path_mbps: x,
                total_mbps: objective,
                tight_links,
                link_constraints,
            }
        }
        LpOutcome::Unbounded => {
            unreachable!("every path crosses at least one finite-capacity link")
        }
    }
}

impl MaxThroughput {
    /// Shadow prices (dual values) of the link-capacity constraints, one
    /// per entry of `link_constraints`: how much the optimal total grows per
    /// extra Mbps of capacity on each constrained link, read from the final
    /// simplex tableau. They are dual-feasible (`≥ 0`, and every path's
    /// prices sum to at least its objective coefficient 1) and price the
    /// capacities at the optimum (`Σ λ_l c_l` is the optimal total). On the
    /// paper's network every pairwise bottleneck prices at 0.5 — relaxing
    /// any one of the three coupled constraints buys half its slack in
    /// total throughput, which is exactly the "decrease x2 by x to gain 2x
    /// elsewhere" observation of Section 3. Empty for an unbounded LP,
    /// which has no dual solution (a capacity LP never is one).
    pub fn shadow_prices(&self) -> Vec<(LinkId, f64)> {
        match solve::<f64>(&self.lp) {
            LpOutcome::Optimal { duals, .. } => self
                .link_constraints
                .iter()
                .map(|(link, _, _)| *link)
                .zip(duals)
                .collect(),
            LpOutcome::Unbounded => Vec::new(),
        }
    }

    /// Each constrained link's load under `rates` (Mbps per path) as a share
    /// of its capacity, `Σ_{p∈users} x_p / c`, in `link_constraints` order.
    pub fn utilisation(&self, rates: &[f64]) -> Vec<(LinkId, f64)> {
        self.link_constraints
            .iter()
            .map(|(link, users, cap)| {
                let load: f64 = users.iter().filter_map(|&p| rates.get(p)).sum();
                (*link, load / cap.as_mbps_f64())
            })
            .collect()
    }

    /// The greedy baseline the paper contrasts with: fill paths one at a
    /// time (in the given order), each up to the residual capacity of its
    /// links. Returns per-path rates in Mbps. This is what "increase the
    /// rates independently" converges to — a Pareto point that is generally
    /// *not* the LP optimum.
    pub fn greedy_fill(topo: &Topology, paths: &[Path], order: &[usize]) -> Vec<f64> {
        assert_eq!(order.len(), paths.len());
        let mut residual: std::collections::BTreeMap<LinkId, f64> =
            std::collections::BTreeMap::new();
        for p in paths {
            for &l in p.links() {
                residual
                    .entry(l)
                    .or_insert_with(|| topo.link(l).capacity.as_mbps_f64());
            }
        }
        let mut rates = vec![0.0; paths.len()];
        for &i in order {
            let room = paths[i]
                .links()
                .iter()
                .map(|l| residual[l])
                .fold(f64::INFINITY, f64::min);
            let take = room.max(0.0);
            rates[i] = take;
            for l in paths[i].links() {
                if let Some(r) = residual.get_mut(l) {
                    *r -= take;
                }
            }
        }
        rates
    }

    /// Check that a measured allocation is feasible (within `tol_mbps`) —
    /// used as an invariant on simulator output: measured throughput can
    /// never beat the LP's constraints.
    pub fn is_feasible(&self, rates_mbps: &[f64], tol_mbps: f64) -> bool {
        self.lp.is_feasible(rates_mbps, tol_mbps.max(F64_EPS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::QueueConfig;
    use simbase::SimDuration;

    /// The paper's Figure-1 network (consistent-variant constraints:
    /// x1+x2 ≤ 40, x1+x3 ≤ 60, x2+x3 ≤ 80).
    fn paper_network() -> (Topology, Vec<Path>) {
        paper_network_with(60, 80)
    }

    /// The Figure-1 network with the given capacities on the links Path 1
    /// shares with Path 3 and Path 2 shares with Path 3: (60, 80) is the
    /// consistent variant, (80, 60) the constraints as the paper prints them.
    fn paper_network_with(cap13: u64, cap23: u64) -> (Topology, Vec<Path>) {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let v1 = t.add_node("v1");
        let v2 = t.add_node("v2");
        let v3 = t.add_node("v3");
        let v4 = t.add_node("v4");
        let d = t.add_node("d");
        let bw = Bandwidth::from_mbps;
        let ms = SimDuration::from_millis;
        let q = QueueConfig::default;
        t.add_link(s, v1, bw(40), ms(1), q()); // shared by paths 1,2
        t.add_link(v1, v4, bw(100), ms(1), q());
        t.add_link(v4, v2, bw(cap13), ms(1), q()); // shared by paths 1,3
        t.add_link(v2, d, bw(100), ms(1), q());
        t.add_link(v1, v3, bw(100), ms(1), q());
        t.add_link(v3, d, bw(cap23), ms(1), q()); // shared by paths 2,3
        t.add_link(s, v4, bw(100), ms(1), q());
        t.add_link(v2, v3, bw(100), ms(1), q());
        let p1 = Path::from_nodes(&t, &[s, v1, v4, v2, d]).unwrap();
        let p2 = Path::from_nodes(&t, &[s, v1, v3, d]).unwrap();
        let p3 = Path::from_nodes(&t, &[s, v4, v2, v3, d]).unwrap();
        (t, vec![p1, p2, p3])
    }

    #[test]
    fn paper_lp_reproduces_figure_1c() {
        let (t, paths) = paper_network();
        let sol = solve_max_throughput(&t, &paths);
        assert!(
            (sol.total_mbps - 90.0).abs() < 1e-6,
            "total {}",
            sol.total_mbps
        );
        assert!(
            (sol.per_path_mbps[0] - 10.0).abs() < 1e-6,
            "{:?}",
            sol.per_path_mbps
        );
        assert!((sol.per_path_mbps[1] - 30.0).abs() < 1e-6);
        assert!((sol.per_path_mbps[2] - 50.0).abs() < 1e-6);
        // All three pairwise bottlenecks are tight.
        assert_eq!(sol.tight_links.len(), 3);
    }

    #[test]
    fn greedy_fill_is_suboptimal_on_the_paper_network() {
        let (t, paths) = paper_network();
        let sol = solve_max_throughput(&t, &paths);
        // Greedy starting with Path 2 (the default shortest path).
        let greedy = MaxThroughput::greedy_fill(&t, &paths, &[1, 0, 2]);
        let greedy_total: f64 = greedy.iter().sum();
        assert!(
            greedy_total < sol.total_mbps - 5.0,
            "greedy {greedy_total} vs opt {}",
            sol.total_mbps
        );
        // Specifically: x2 = 40 exhausts s-v1, x1 = 0, x3 = min(60, 40) = 40.
        assert!((greedy[1] - 40.0).abs() < 1e-9);
        assert!((greedy[0] - 0.0).abs() < 1e-9);
        assert!((greedy[2] - 40.0).abs() < 1e-9);
        // Greedy allocations are feasible — just not optimal.
        assert!(sol.is_feasible(&greedy, 1e-6));
    }

    #[test]
    fn greedy_order_matters() {
        let (t, paths) = paper_network();
        let g1: f64 = MaxThroughput::greedy_fill(&t, &paths, &[0, 1, 2])
            .iter()
            .sum();
        let g2: f64 = MaxThroughput::greedy_fill(&t, &paths, &[2, 1, 0])
            .iter()
            .sum();
        // Different orders give different Pareto corners; none beats 90.
        assert!(g1 <= 90.0 + 1e-9);
        assert!(g2 <= 90.0 + 1e-9);
    }

    #[test]
    fn disjoint_paths_sum_their_capacities() {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("d");
        let bw = Bandwidth::from_mbps;
        let ms = SimDuration::from_millis;
        t.add_link(s, a, bw(30), ms(1), QueueConfig::default());
        t.add_link(a, d, bw(30), ms(1), QueueConfig::default());
        t.add_link(s, b, bw(20), ms(1), QueueConfig::default());
        t.add_link(b, d, bw(20), ms(1), QueueConfig::default());
        let p1 = Path::from_nodes(&t, &[s, a, d]).unwrap();
        let p2 = Path::from_nodes(&t, &[s, b, d]).unwrap();
        let sol = solve_max_throughput(&t, &[p1, p2]);
        assert!((sol.total_mbps - 50.0).abs() < 1e-6);
        assert_eq!(sol.per_path_mbps, vec![30.0, 20.0]);
        // Greedy equals optimal when paths are disjoint.
        let greedy: f64 = MaxThroughput::greedy_fill(
            &t,
            &[
                Path::from_nodes(&t, &[s, a, d]).unwrap(),
                Path::from_nodes(&t, &[s, b, d]).unwrap(),
            ],
            &[0, 1],
        )
        .iter()
        .sum();
        assert!((greedy - 50.0).abs() < 1e-9);
    }

    #[test]
    fn single_path_is_bottleneck_capacity() {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let m = t.add_node("m");
        let d = t.add_node("d");
        t.add_link(
            s,
            m,
            Bandwidth::from_mbps(100),
            SimDuration::ZERO,
            QueueConfig::default(),
        );
        t.add_link(
            m,
            d,
            Bandwidth::from_mbps(35),
            SimDuration::ZERO,
            QueueConfig::default(),
        );
        let p = Path::from_nodes(&t, &[s, m, d]).unwrap();
        let sol = solve_max_throughput(&t, &[p]);
        assert!((sol.total_mbps - 35.0).abs() < 1e-6);
        assert_eq!(sol.tight_links, vec![netsim::LinkId(1)]);
    }

    #[test]
    fn shared_first_hop_couples_everything() {
        // Both paths share s-m (cap 10); downstream is wide.
        let mut t = Topology::new();
        let s = t.add_node("s");
        let m = t.add_node("m");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("d");
        let bw = Bandwidth::from_mbps;
        t.add_link(s, m, bw(10), SimDuration::ZERO, QueueConfig::default());
        t.add_link(m, a, bw(100), SimDuration::ZERO, QueueConfig::default());
        t.add_link(a, d, bw(100), SimDuration::ZERO, QueueConfig::default());
        t.add_link(m, b, bw(100), SimDuration::ZERO, QueueConfig::default());
        t.add_link(b, d, bw(100), SimDuration::ZERO, QueueConfig::default());
        let p1 = Path::from_nodes(&t, &[s, m, a, d]).unwrap();
        let p2 = Path::from_nodes(&t, &[s, m, b, d]).unwrap();
        let sol = solve_max_throughput(&t, &[p1, p2]);
        assert!(
            (sol.total_mbps - 10.0).abs() < 1e-6,
            "MPTCP gains nothing here"
        );
    }

    #[test]
    fn feasibility_bound_rejects_overcount() {
        let (t, paths) = paper_network();
        let sol = solve_max_throughput(&t, &paths);
        assert!(sol.is_feasible(&[10.0, 30.0, 50.0], 0.01));
        assert!(!sol.is_feasible(&[20.0, 30.0, 50.0], 0.01));
    }

    #[test]
    fn shadow_prices_of_the_paper_bottlenecks_are_half() {
        let (t, paths) = paper_network();
        let sol = solve_max_throughput(&t, &paths);
        let prices = sol.shadow_prices();
        // Every tight pairwise bottleneck is worth 0.5 Mbps of total per
        // Mbps of capacity; every slack 100 Mbps link is worth 0.
        for (link, price) in prices {
            if sol.tight_links.contains(&link) {
                assert!((price - 0.5).abs() < 1e-3, "{link:?}: {price}");
            } else {
                assert_eq!(price, 0.0, "{link:?} is slack");
            }
        }
    }

    #[test]
    fn tableau_prices_satisfy_duality_on_both_paper_variants() {
        for (cap13, cap23) in [(60, 80), (80, 60)] {
            let (t, paths) = paper_network_with(cap13, cap23);
            let sol = solve_max_throughput(&t, &paths);
            let prices = sol.shadow_prices();
            assert_eq!(prices.len(), sol.link_constraints.len());
            let mut priced_capacity = 0.0;
            let mut path_price = vec![0.0; paths.len()];
            for ((link, price), (l, users, cap)) in prices.iter().zip(&sol.link_constraints) {
                assert_eq!(link, l);
                assert!(*price >= -1e-6, "{link:?} has price {price}");
                priced_capacity += price * cap.as_mbps_f64();
                for &p in users {
                    path_price[p] += price;
                }
            }
            for (p, price) in path_price.iter().enumerate() {
                assert!(
                    price - 1.0 >= -1e-6,
                    "path {p}: reduced cost {}",
                    price - 1.0
                );
            }
            assert!(
                (priced_capacity - sol.total_mbps).abs() < 1e-6,
                "({cap13}, {cap23}): Σ λc = {priced_capacity}, optimum {}",
                sol.total_mbps
            );
        }
    }

    #[test]
    fn utilisation_is_each_links_load_over_its_capacity() {
        let (t, paths) = paper_network();
        let sol = solve_max_throughput(&t, &paths);
        let at_optimum = sol.utilisation(&sol.per_path_mbps);
        assert_eq!(at_optimum.len(), sol.link_constraints.len());
        for (link, u) in &at_optimum {
            if sol.tight_links.contains(link) {
                assert!((u - 1.0).abs() < 1e-9, "{link:?}: {u}");
            } else {
                assert!(*u < 1.0, "{link:?} is slack: {u}");
            }
        }
        // Greedy from Path 2, (0, 40, 40): s-v1 and v3-d full, v4-v2 at
        // 40 of 60 (links 0, 5 and 2 in construction order).
        let greedy = sol.utilisation(&[0.0, 40.0, 40.0]);
        let of = |l: u32| greedy.iter().find(|(link, _)| link.0 == l).map(|(_, u)| *u);
        assert_eq!(of(0), Some(1.0));
        assert_eq!(of(2), Some(40.0 / 60.0));
        assert_eq!(of(5), Some(1.0));
    }

    #[test]
    fn shadow_price_of_a_single_bottleneck_is_one() {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let d = t.add_node("d");
        let l = t.add_link(
            s,
            d,
            Bandwidth::from_mbps(10),
            SimDuration::ZERO,
            QueueConfig::default(),
        );
        let p = Path::from_nodes(&t, &[s, d]).unwrap();
        let sol = solve_max_throughput(&t, &[p]);
        let prices = sol.shadow_prices();
        assert_eq!(prices.len(), 1);
        assert_eq!(prices[0].0, l);
        assert!((prices[0].1 - 1.0).abs() < 1e-3);
    }
}
