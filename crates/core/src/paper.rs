//! The paper's Figure-1 network.
//!
//! Six nodes `s, v1, v2, v3, v4, d`; three paths from `s` to `d`; every
//! pair of paths shares exactly one bottleneck link. Our concrete
//! realisation:
//!
//! ```text
//! Path 1:  s —[40]→ v1 → v4 —[60]→ v2 → d
//! Path 2:  s —[40]→ v1 → v3 —[80]→ d
//! Path 3:  s → v4 —[60]→ v2 → v3 —[80]→ d
//! ```
//!
//! so `x1+x2 ≤ 40` (link s–v1), `x1+x3 ≤ 60` (link v4–v2) and `x2+x3 ≤ 80`
//! (link v3–d); all other links are 100 Mbps. The LP optimum is
//! `x1 = 10, x2 = 30, x3 = 50` (total 90), matching the optimum stated in
//! the paper.
//!
//! **Erratum note:** the paper's *text* prints the constraints as
//! `x2+x3 ≤ 60, x1+x3 ≤ 80`, which contradicts its own stated optimum; see
//! DESIGN.md §2. [`ConstraintVariant::AsPrinted`] builds that version too
//! (its optimum is the permutation `x1 = 30, x2 = 10, x3 = 50`).

use netsim::{NodeId, Path, QueueConfig, Topology};
use simbase::{Bandwidth, SimDuration};

/// Which of the two published constraint sets to realise (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintVariant {
    /// `x1+x2 ≤ 40, x1+x3 ≤ 60, x2+x3 ≤ 80` — consistent with the paper's
    /// stated optimum (10, 30, 50). The default.
    Consistent,
    /// `x1+x2 ≤ 40, x2+x3 ≤ 60, x1+x3 ≤ 80` — the constraints as literally
    /// printed; optimum (30, 10, 50).
    AsPrinted,
}

/// Per-link one-way propagation delay.
const LINK_DELAY: SimDuration = SimDuration::from_millis(2);
/// Delay of the default path's exclusive links: below `LINK_DELAY`, so
/// that path really has the lowest RTT.
const FAST_DELAY: SimDuration = SimDuration::from_micros(200);

/// Construction parameters for the paper network.
#[derive(Debug, Clone)]
pub struct PaperNetworkConfig {
    /// Constraint variant (see module docs).
    pub variant: ConstraintVariant,
    /// Which path (0-based) is the *default*: the one with the lowest RTT,
    /// used first by the minRTT scheduler. The paper's headline setup is
    /// Path 2, i.e. index 1.
    pub default_path: usize,
    /// Output queue per link direction.
    pub queue: QueueConfig,
}

impl Default for PaperNetworkConfig {
    fn default() -> Self {
        PaperNetworkConfig {
            variant: ConstraintVariant::Consistent,
            default_path: 1,
            queue: QueueConfig::DropTailPackets(32),
        }
    }
}

/// The built network: topology plus the three paths in x1/x2/x3 order.
#[derive(Debug, Clone)]
pub struct PaperNetwork {
    /// The six-node topology.
    pub topology: Topology,
    /// `paths[i]` carries rate `x_{i+1}` of the paper's LP.
    pub paths: Vec<Path>,
    /// Index of the default (lowest-RTT) path.
    pub default_path: usize,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
}

impl PaperNetwork {
    /// Build with defaults (consistent variant, Path 2 default).
    pub fn new() -> Self {
        Self::build(&PaperNetworkConfig::default())
    }

    /// Build with explicit parameters.
    pub fn build(cfg: &PaperNetworkConfig) -> Self {
        assert!(cfg.default_path < 3, "default_path must be 0, 1 or 2");
        let mut t = Topology::new();
        let s = t.add_node("s");
        let v1 = t.add_node("v1");
        let v2 = t.add_node("v2");
        let v3 = t.add_node("v3");
        let v4 = t.add_node("v4");
        let d = t.add_node("d");

        let bw = Bandwidth::from_mbps;
        // Choose per-link delays: links exclusive to the default path get
        // the fast delay so it ends up with the lowest RTT.
        // Exclusive links per path (Consistent variant):
        //   P1: v1-v4, v2-d     P2: v1-v3     P3: s-v4, v2-v3
        let fast = |path: usize, cfg: &PaperNetworkConfig| {
            if cfg.default_path == path {
                FAST_DELAY
            } else {
                LINK_DELAY
            }
        };

        // The two constraint variants differ only in which pair of paths
        // the 60- and 80-capacity links couple; we realise that by swapping
        // the capacities of the two shared links.
        let (cap_b13, cap_b23) = match cfg.variant {
            ConstraintVariant::Consistent => (60, 80), // v4-v2 couples P1&P3, v3-d couples P2&P3
            ConstraintVariant::AsPrinted => (80, 60),
        };

        let q = cfg.queue;
        let dl = LINK_DELAY;
        // Shared links (always the base delay: they belong to two paths).
        t.add_link(s, v1, bw(40), dl, q); // b12: P1 & P2
        t.add_link(v4, v2, bw(cap_b13), dl, q); // b13: P1 & P3
        t.add_link(v3, d, bw(cap_b23), dl, q); // b23: P2 & P3
                                               // Exclusive links.
        t.add_link(v1, v4, bw(100), fast(0, cfg), q); // P1
        t.add_link(v2, d, bw(100), fast(0, cfg), q); // P1
        t.add_link(v1, v3, bw(100), fast(1, cfg), q); // P2
        t.add_link(s, v4, bw(100), fast(2, cfg), q); // P3
        t.add_link(v2, v3, bw(100), fast(2, cfg), q); // P3

        #[expect(
            clippy::expect_used,
            reason = "hard-coded Figure-1 walk; failure means the topology constants are wrong"
        )]
        let p1 = Path::from_nodes(&t, &[s, v1, v4, v2, d]).expect("path 1");
        #[expect(
            clippy::expect_used,
            reason = "hard-coded Figure-1 walk; failure means the topology constants are wrong"
        )]
        let p2 = Path::from_nodes(&t, &[s, v1, v3, d]).expect("path 2");
        #[expect(
            clippy::expect_used,
            reason = "hard-coded Figure-1 walk; failure means the topology constants are wrong"
        )]
        let p3 = Path::from_nodes(&t, &[s, v4, v2, v3, d]).expect("path 3");

        PaperNetwork {
            topology: t,
            paths: vec![p1, p2, p3],
            default_path: cfg.default_path,
            src: s,
            dst: d,
        }
    }

    /// The LP optimum for this network (solved fresh; cheap).
    pub fn lp_optimum(&self) -> lpsolve::MaxThroughput {
        lpsolve::solve_max_throughput(&self.topology, &self.paths)
    }

    /// The Pareto corner a greedy controller parks at when `first` is its
    /// default path: `greedy_fill` from `first`, then the other paths in
    /// index order (Figure 1c's "greedy fill starting with Path k").
    pub fn greedy_corner(&self, first: usize) -> Vec<f64> {
        let order: Vec<usize> = std::iter::once(first)
            .chain((0..self.paths.len()).filter(|&i| i != first))
            .collect();
        lpsolve::MaxThroughput::greedy_fill(&self.topology, &self.paths, &order)
    }
}

impl Default for PaperNetwork {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_variant_matches_paper_optimum() {
        let net = PaperNetwork::new();
        let sol = net.lp_optimum();
        assert!((sol.total_mbps - 90.0).abs() < 1e-6);
        assert!((sol.per_path_mbps[0] - 10.0).abs() < 1e-6);
        assert!((sol.per_path_mbps[1] - 30.0).abs() < 1e-6);
        assert!((sol.per_path_mbps[2] - 50.0).abs() < 1e-6);
        assert_eq!(sol.tight_links.len(), 3, "all three bottlenecks tight");
    }

    #[test]
    fn as_printed_variant_gives_permuted_optimum() {
        let cfg = PaperNetworkConfig {
            variant: ConstraintVariant::AsPrinted,
            ..Default::default()
        };
        let net = PaperNetwork::build(&cfg);
        let sol = net.lp_optimum();
        assert!((sol.total_mbps - 90.0).abs() < 1e-6);
        assert!((sol.per_path_mbps[0] - 30.0).abs() < 1e-6);
        assert!((sol.per_path_mbps[1] - 10.0).abs() < 1e-6);
        assert!((sol.per_path_mbps[2] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn pairwise_sharing_structure() {
        let net = PaperNetwork::new();
        let [p1, p2, p3] = [&net.paths[0], &net.paths[1], &net.paths[2]];
        assert_eq!(p1.shared_links(p2).len(), 1);
        assert_eq!(p1.shared_links(p3).len(), 1);
        assert_eq!(p2.shared_links(p3).len(), 1);
        // The three shared links are distinct.
        let mut shared: Vec<_> = [
            p1.shared_links(p2),
            p1.shared_links(p3),
            p2.shared_links(p3),
        ]
        .into_iter()
        .flatten()
        .collect();
        shared.sort();
        shared.dedup();
        assert_eq!(shared.len(), 3);
        // Capacities 40 / 60 / 80.
        let mut caps: Vec<u64> = shared
            .iter()
            .map(|&l| net.topology.link(l).capacity.as_bps() / 1_000_000)
            .collect();
        caps.sort();
        assert_eq!(caps, vec![40, 60, 80]);
    }

    #[test]
    fn default_path_has_lowest_rtt() {
        for default in 0..3 {
            let cfg = PaperNetworkConfig {
                default_path: default,
                ..Default::default()
            };
            let net = PaperNetwork::build(&cfg);
            let delays: Vec<_> = net
                .paths
                .iter()
                .map(|p| p.one_way_delay(&net.topology))
                .collect();
            for (i, &dly) in delays.iter().enumerate() {
                if i != default {
                    assert!(
                        delays[default] < dly,
                        "default path {default} ({:?}) must beat path {i} ({dly:?})",
                        delays[default],
                    );
                }
            }
        }
    }

    #[test]
    fn paper_quote_path2_capacity_is_40() {
        // "the default shortest path has a maximal capacity of 40 Mbps"
        let net = PaperNetwork::new();
        assert_eq!(
            net.paths[1].raw_capacity(&net.topology),
            Bandwidth::from_mbps(40)
        );
    }

    #[test]
    fn greedy_fill_from_path2_leaves_30_mbps_unused() {
        // The Pareto trap the paper describes: x2=40 first, then x1=0, x3=40.
        let net = PaperNetwork::new();
        let greedy = net.greedy_corner(1);
        assert_eq!(greedy, vec![0.0, 40.0, 40.0]);
        let total: f64 = greedy.iter().sum();
        assert!((total - 80.0).abs() < 1e-9);
        assert!(total < net.lp_optimum().total_mbps);
    }
}
