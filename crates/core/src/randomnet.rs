//! Generalized overlapping-path networks (beyond the paper).
//!
//! The paper's topology is the 3-path instance of a family: `n` paths from
//! `s` to `d` where **every pair shares exactly one bottleneck link**. This
//! module generates random members of that family — random pairwise
//! bottleneck capacities — so the convergence comparison can be run on many
//! instances instead of one hand-built example.
//!
//! Construction: for each unordered pair `{i, j}` create a dedicated
//! bottleneck link `u_ij → v_ij`. Path `i` visits its `n-1` bottlenecks in
//! ascending partner order, stitched together with private high-capacity
//! links. Paths `i` and `j` both traverse `u_ij → v_ij` and nothing else in
//! common, so the throughput LP is exactly `x_i + x_j ≤ c_ij` for all
//! pairs.

use netsim::{LinkId, NodeId, Path, QueueConfig, Topology};
use simbase::{Bandwidth, SimDuration, SimRng, Xoshiro256StarStar};

/// Private (non-shared) link capacity, Mbps: above any bottleneck
/// capacity a config may draw, so only the shared links constrain.
const PRIVATE_CAPACITY: u64 = 200;
/// Per-link one-way delay.
const LINK_DELAY: SimDuration = SimDuration::from_millis(1);
/// Queue configuration for every link.
const QUEUE: QueueConfig = QueueConfig::DropTailPackets(64);

/// Parameters for the generator.
#[derive(Debug, Clone)]
pub struct RandomOverlapConfig {
    /// Number of paths (≥ 2).
    pub paths: usize,
    /// Bottleneck capacities drawn uniformly from this range (Mbps).
    pub capacity_range: (u64, u64),
    /// Generator seed.
    pub seed: u64,
}

impl Default for RandomOverlapConfig {
    fn default() -> Self {
        RandomOverlapConfig {
            paths: 3,
            capacity_range: (20, 100),
            seed: 1,
        }
    }
}

/// A generated network.
#[derive(Debug, Clone)]
pub struct RandomOverlapNet {
    /// The topology.
    pub topology: Topology,
    /// The paths, in index order.
    pub paths: Vec<Path>,
    /// `(i, j, capacity_mbps)` for every pairwise bottleneck.
    pub bottlenecks: Vec<(usize, usize, u64)>,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

impl RandomOverlapNet {
    /// Generate a network from the configuration.
    pub fn generate(cfg: &RandomOverlapConfig) -> Self {
        assert!(cfg.paths >= 2, "need at least two paths");
        assert!(cfg.capacity_range.0 <= cfg.capacity_range.1);
        assert!(
            PRIVATE_CAPACITY > cfg.capacity_range.1,
            "private links must not constrain"
        );
        let n = cfg.paths;
        let mut rng = Xoshiro256StarStar::new(cfg.seed);
        let mut t = Topology::new();
        let s = t.add_node("s");
        let d = t.add_node("d");

        // Bottleneck nodes and links per pair.
        let mut pair_nodes = std::collections::BTreeMap::new();
        let mut pair_links: std::collections::BTreeMap<(usize, usize), LinkId> = Default::default();
        let mut bottlenecks = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let u = t.add_node(format!("u{i}{j}"));
                let v = t.add_node(format!("v{i}{j}"));
                let cap = rng.next_range(cfg.capacity_range.0, cfg.capacity_range.1);
                let l = t.add_link(u, v, Bandwidth::from_mbps(cap), LINK_DELAY, QUEUE);
                pair_nodes.insert((i, j), (u, v));
                pair_links.insert((i, j), l);
                bottlenecks.push((i, j, cap));
            }
        }

        // Stitch each path through its bottlenecks with private links.
        let private = Bandwidth::from_mbps(PRIVATE_CAPACITY);
        let mut paths = Vec::with_capacity(n);
        for i in 0..n {
            let partners: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            let mut links = Vec::new();
            let mut cur = s;
            for &j in &partners {
                let key = (i.min(j), i.max(j));
                let (u, v) = pair_nodes[&key];
                // Private connector cur -> u (a fresh link per path).
                links.push(t.add_link(cur, u, private, LINK_DELAY, QUEUE));
                links.push(pair_links[&key]);
                cur = v;
            }
            links.push(t.add_link(cur, d, private, LINK_DELAY, QUEUE));
            #[expect(
                clippy::expect_used,
                reason = "generator emits fresh nodes per hop, so the walk is simple by construction"
            )]
            let path = Path::from_links(&t, s, &links).expect("generated path is simple");
            paths.push(path);
        }

        RandomOverlapNet {
            topology: t,
            paths,
            bottlenecks,
            src: s,
            dst: d,
        }
    }

    /// The LP ground truth for this instance.
    pub fn lp_optimum(&self) -> lpsolve::MaxThroughput {
        lpsolve::solve_max_throughput(&self.topology, &self.paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_path_instance_matches_closed_form() {
        // With capacities c01, c02, c12 and all three constraints tight,
        // the optimum total is (c01 + c02 + c12) / 2 — provided the
        // triangle inequality holds so all x_i >= 0.
        for seed in 0..20 {
            let cfg = RandomOverlapConfig {
                seed,
                capacity_range: (50, 60),
                ..Default::default()
            };
            let net = RandomOverlapNet::generate(&cfg);
            let sol = net.lp_optimum();
            let sum: u64 = net.bottlenecks.iter().map(|&(_, _, c)| c).sum();
            // Capacities within [50, 60] always satisfy the triangle
            // condition, so the closed form applies.
            assert!(
                (sol.total_mbps - sum as f64 / 2.0).abs() < 1e-6,
                "seed {seed}: {} vs {}",
                sol.total_mbps,
                sum as f64 / 2.0
            );
        }
    }

    #[test]
    fn pairwise_sharing_is_exact() {
        let net = RandomOverlapNet::generate(&RandomOverlapConfig {
            paths: 4,
            ..Default::default()
        });
        assert_eq!(net.paths.len(), 4);
        for i in 0..4 {
            for j in i + 1..4 {
                let shared = net.paths[i].shared_links(&net.paths[j]);
                assert_eq!(shared.len(), 1, "paths {i},{j} must share exactly one link");
            }
        }
        assert_eq!(net.bottlenecks.len(), 6);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = RandomOverlapNet::generate(&RandomOverlapConfig {
            seed: 9,
            ..Default::default()
        });
        let b = RandomOverlapNet::generate(&RandomOverlapConfig {
            seed: 9,
            ..Default::default()
        });
        assert_eq!(a.bottlenecks, b.bottlenecks);
        let c = RandomOverlapNet::generate(&RandomOverlapConfig {
            seed: 10,
            ..Default::default()
        });
        assert_ne!(a.bottlenecks, c.bottlenecks);
    }

    #[test]
    fn two_path_degenerate_case() {
        let net = RandomOverlapNet::generate(&RandomOverlapConfig {
            paths: 2,
            capacity_range: (30, 30),
            ..Default::default()
        });
        let sol = net.lp_optimum();
        // One shared bottleneck of 30: x0 + x1 <= 30.
        assert!((sol.total_mbps - 30.0).abs() < 1e-6);
    }

    /// The tableau's prices are a dual solution that prices the optimum:
    /// every price is `≥ 0`, every path's reduced cost `Σ_{l∈p} λ_l − 1` is
    /// `≥ 0`, and `Σ_l λ_l c_l` is the optimal total (within 1e-6). This is
    /// the identity that splits a run's deficit `OPT − T` into idle priced
    /// capacity and over-priced allocation.
    fn assert_strong_duality(what: &str, sol: &lpsolve::MaxThroughput) {
        let prices = sol.shadow_prices();
        assert_eq!(prices.len(), sol.link_constraints.len(), "{what}");
        let mut priced_capacity = 0.0;
        let mut path_price = vec![0.0; sol.per_path_mbps.len()];
        for ((link, price), (l, users, cap)) in prices.iter().zip(&sol.link_constraints) {
            assert_eq!(link, l, "{what}");
            assert!(*price >= -1e-6, "{what}: {link:?} has price {price}");
            priced_capacity += price * cap.as_mbps_f64();
            for &p in users {
                path_price[p] += price;
            }
        }
        for (p, price) in path_price.iter().enumerate() {
            let reduced = price - 1.0;
            assert!(
                reduced >= -1e-6,
                "{what}: path {p} has reduced cost {reduced}"
            );
        }
        assert!(
            (priced_capacity - sol.total_mbps).abs() < 1e-6,
            "{what}: Σ λc = {priced_capacity}, optimum {}",
            sol.total_mbps
        );
    }

    #[test]
    fn lp_duals_satisfy_strong_duality_on_both_topology_families() {
        use crate::paper::{ConstraintVariant, PaperNetwork, PaperNetworkConfig};
        for variant in [ConstraintVariant::Consistent, ConstraintVariant::AsPrinted] {
            let net = PaperNetwork::build(&PaperNetworkConfig {
                variant,
                ..Default::default()
            });
            assert_strong_duality(&format!("paper {variant:?}"), &net.lp_optimum());
        }
        // table2's random overlapping topologies: 3 and 4 paths, seeds 0..10.
        for paths in [3, 4] {
            for seed in 0..10 {
                let net = RandomOverlapNet::generate(&RandomOverlapConfig {
                    paths,
                    seed,
                    ..Default::default()
                });
                assert_strong_duality(&format!("{paths} paths, seed {seed}"), &net.lp_optimum());
            }
        }
    }

    #[test]
    fn lp_never_exceeds_greedy_upper_bounds() {
        let net = RandomOverlapNet::generate(&RandomOverlapConfig {
            seed: 3,
            ..Default::default()
        });
        let sol = net.lp_optimum();
        // Each x_i is bounded by the min of its two bottlenecks.
        for (i, &x) in sol.per_path_mbps.iter().enumerate() {
            let min_cap = net
                .bottlenecks
                .iter()
                .filter(|&&(a, b, _)| a == i || b == i)
                .map(|&(_, _, c)| c as f64)
                .fold(f64::INFINITY, f64::min);
            assert!(x <= min_cap + 1e-9);
        }
    }
}
