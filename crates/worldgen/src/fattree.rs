//! k-ary fat-tree datacenter fabrics with seeded ECMP hashing.
//!
//! The classic three-layer Clos: `k` pods, each with `k/2` edge and `k/2`
//! aggregation switches, `(k/2)²` core switches, and `k³/4` hosts. Every
//! inter-pod host pair has `(k/2)²` equal-cost shortest paths; which one a
//! flow takes is decided by ECMP hashing — and when two MPTCP subflows hash
//! onto a shared fabric link, the overlap regime the paper studies appears
//! at datacenter scale.
//!
//! Determinism: topology construction is pure arithmetic over the config;
//! each switch's ECMP hash seed is derived from the config seed and the
//! switch's node id ([`crate::STREAM_ECMP_SWITCH`]), so where every flow
//! goes is a pure function of [`FatTreeConfig`]. Placement is arithmetic
//! too: on an up-down path only two switches choose — the source's edge
//! switch picks an aggregation position and that aggregation switch a core
//! column; every other hop is forced — so [`FatTree::ecmp_path`] hashes the
//! flow at those two with `ecmp_select` and builds the path. No packet is
//! hashed in flight: a subflow is pinned to its placed path by a tag, the
//! way the paper pins its subflows.

use netsim::{LinkId, NodeId, Path, QueueConfig, RoutingTables, Topology};
use simbase::{Bandwidth, SimDuration, SplitMix64};

/// Capacity of every link (classic fat-trees are single-speed; full
/// bisection bandwidth means overlap, not oversubscription, is what costs
/// throughput).
const LINK_BW: Bandwidth = Bandwidth::from_mbps(20);
/// Propagation delay of host↔edge links. The delays are scaled up from real
/// datacenter microseconds into the millisecond regime where a
/// 1460-byte-MSS TCP keeps a multi-packet bandwidth-delay product and the
/// fluid ODE oracle is numerically trustworthy — path *ratios* (the overlap
/// story) are preserved, absolute RTTs are not the claim.
const HOST_DELAY: SimDuration = SimDuration::from_micros(250);
/// Propagation delay of fabric (edge↔agg, agg↔core) links.
const FABRIC_DELAY: SimDuration = SimDuration::from_micros(500);
/// Output queue of every link.
const QUEUE: QueueConfig = QueueConfig::DropTailPackets(32);

/// The ECMP member index for a flow: Fibonacci hash of the flow key mixed
/// with the switch's seed. Seed 0 reproduces the historical unseeded hash
/// (XOR with 0 is the identity).
///
/// This function is the *specification* of ECMP selection: a switch that
/// hashes a flow onto one of its `group_len` equal-cost next hops takes
/// member `ecmp_select(flow_hash, switch seed, group_len)`.
#[expect(
    clippy::integer_division_remainder_used,
    reason = "group_len = k/2 >= 1, asserted even and >= 2 at build"
)]
fn ecmp_select(flow_hash: u64, seed: u64, group_len: usize) -> usize {
    let h = (flow_hash ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize % group_len
}

/// Parameters of a k-ary fat-tree.
#[derive(Debug, Clone)]
pub struct FatTreeConfig {
    /// Arity: pods = `k`, hosts = `k³/4`. Must be even and ≥ 2.
    pub k: usize,
    /// Master seed: per-switch ECMP hash seeds derive from it.
    pub seed: u64,
}

impl Default for FatTreeConfig {
    fn default() -> Self {
        FatTreeConfig { k: 4, seed: 1 }
    }
}

/// How a pair of subflow paths relates on the fabric (the paper's Table-1
/// taxonomy, counted in shared *fabric* links — access links at the common
/// endpoints are shared by construction and say nothing about routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PairClass {
    /// No shared fabric link: the ideal MPTCP configuration.
    Disjoint,
    /// `n ≥ 1` shared fabric links, but the paths are not identical.
    Partial(usize),
    /// The ECMP hashes collided at every hop: one physical path twice.
    Identical,
}

impl PairClass {
    /// Fixed-width label for tables.
    pub fn label(&self) -> String {
        match self {
            PairClass::Disjoint => "disjoint".to_string(),
            PairClass::Partial(n) => format!("share-{n}"),
            PairClass::Identical => "identical".to_string(),
        }
    }
}

/// A built fat-tree: topology, empty routing tables, and the node-id layout
/// needed to reason about it.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// The network.
    pub topology: Topology,
    /// Empty tables for the fabric's nodes, for connections to pin their
    /// subflows' tag routes in.
    pub routing: RoutingTables,
    /// Arity.
    pub k: usize,
    /// Master seed the switch hash seeds derive from.
    pub seed: u64,
    /// All hosts, in (pod, edge, index) order.
    pub hosts: Vec<NodeId>,
    /// Edge switches, in (pod, index) order.
    pub edge: Vec<NodeId>,
    /// Aggregation switches, in (pod, index) order.
    pub agg: Vec<NodeId>,
    /// Core switches, in (group, column) order — group `g` connects to
    /// aggregation position `g` of every pod.
    pub core: Vec<NodeId>,
}

impl FatTree {
    /// Build the fabric.
    pub fn build(cfg: &FatTreeConfig) -> FatTree {
        #[expect(
            clippy::disallowed_macros,
            reason = "config validation before any construction"
        )]
        {
            assert!(
                cfg.k >= 2 && cfg.k.is_multiple_of(2),
                "fat-tree arity must be even and >= 2, got {}",
                cfg.k
            );
        }
        let k = cfg.k;
        let half = k / 2;
        let mut topo = Topology::new();

        // Nodes, in a documented id order: hosts, edge, agg, core.
        let mut hosts = Vec::with_capacity(k * half * half);
        for p in 0..k {
            for e in 0..half {
                for h in 0..half {
                    hosts.push(topo.add_node(format!("h{p}_{e}_{h}")));
                }
            }
        }
        let mut edge = Vec::with_capacity(k * half);
        for p in 0..k {
            for e in 0..half {
                edge.push(topo.add_node(format!("e{p}_{e}")));
            }
        }
        let mut agg = Vec::with_capacity(k * half);
        for p in 0..k {
            for a in 0..half {
                agg.push(topo.add_node(format!("a{p}_{a}")));
            }
        }
        let mut core = Vec::with_capacity(half * half);
        for g in 0..half {
            for c in 0..half {
                core.push(topo.add_node(format!("c{g}_{c}")));
            }
        }

        // Links: host access, then edge↔agg, then agg↔core. The closures
        // name the (pod, position) → id coordinate maps the vectors were
        // just filled in.
        #[expect(
            clippy::indexing_slicing,
            reason = "loop coordinates stay inside the vector filled above"
        )]
        let host_at = |p: usize, e: usize, h: usize| hosts[(p * half + e) * half + h];
        #[expect(
            clippy::indexing_slicing,
            reason = "loop coordinates stay inside the vector filled above"
        )]
        let edge_at = |p: usize, e: usize| edge[p * half + e];
        #[expect(
            clippy::indexing_slicing,
            reason = "loop coordinates stay inside the vector filled above"
        )]
        let agg_at = |p: usize, a: usize| agg[p * half + a];
        #[expect(
            clippy::indexing_slicing,
            reason = "loop coordinates stay inside the vector filled above"
        )]
        let core_at = |g: usize, c: usize| core[g * half + c];
        for p in 0..k {
            for e in 0..half {
                for h in 0..half {
                    topo.add_link(host_at(p, e, h), edge_at(p, e), LINK_BW, HOST_DELAY, QUEUE);
                }
            }
        }
        for p in 0..k {
            for e in 0..half {
                for a in 0..half {
                    topo.add_link(edge_at(p, e), agg_at(p, a), LINK_BW, FABRIC_DELAY, QUEUE);
                }
            }
        }
        for p in 0..k {
            for a in 0..half {
                for c in 0..half {
                    topo.add_link(agg_at(p, a), core_at(a, c), LINK_BW, FABRIC_DELAY, QUEUE);
                }
            }
        }

        FatTree {
            routing: RoutingTables::new(&topo),
            topology: topo,
            k,
            seed: cfg.seed,
            hosts,
            edge,
            agg,
            core,
        }
    }

    /// The ECMP hash seed of a switch: derived from the master seed and the
    /// node id, so every switch models an independent hardware hash.
    pub fn switch_seed(&self, node: NodeId) -> u64 {
        SplitMix64::derive(self.seed, crate::STREAM_ECMP_SWITCH | node.0 as u64)
    }

    /// The edge switch at (pod `p`, position `e`).
    fn edge_at(&self, p: usize, e: usize) -> NodeId {
        #[expect(
            clippy::indexing_slicing,
            clippy::integer_division_remainder_used,
            reason = "coordinates are < k and < k/2 wherever they originate"
        )]
        self.edge[p * (self.k / 2) + e]
    }

    /// The aggregation switch at (pod `p`, position `a`).
    fn agg_at(&self, p: usize, a: usize) -> NodeId {
        #[expect(
            clippy::indexing_slicing,
            clippy::integer_division_remainder_used,
            reason = "coordinates are < k and < k/2 wherever they originate"
        )]
        self.agg[p * (self.k / 2) + a]
    }

    /// The core switch at (group `g`, column `c`).
    fn core_at(&self, g: usize, c: usize) -> NodeId {
        #[expect(
            clippy::indexing_slicing,
            clippy::integer_division_remainder_used,
            reason = "coordinates are < k/2 wherever they originate"
        )]
        self.core[g * (self.k / 2) + c]
    }

    /// (pod, edge, host) coordinates of `hosts[i]`.
    pub fn host_coords(&self, i: usize) -> (usize, usize, usize) {
        let half = self.k / 2;
        #[expect(
            clippy::integer_division_remainder_used,
            reason = "half = k/2 >= 1, asserted even and >= 2 at build"
        )]
        (i / (half * half), (i / half) % half, i % half)
    }

    /// Does `l` touch a host (access link)? Fabric links never do.
    pub fn is_access_link(&self, l: LinkId) -> bool {
        let spec = self.topology.link(l);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "node ids are u32; the host count fits by construction"
        )]
        let n_hosts = self.hosts.len() as u32;
        spec.a.0 < n_hosts || spec.b.0 < n_hosts
    }

    /// The path ECMP hashing gives a flow with `flow_hash` from `src` to
    /// `dst`: the source's edge switch hashes it onto aggregation position
    /// `a`, that aggregation switch hashes it onto core column `c`, each
    /// with its own seed (`ecmp_select`), and [`FatTree::equal_cost_path`]
    /// ignores whichever choice the pair never reaches.
    pub fn ecmp_path(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Path {
        #[expect(
            clippy::disallowed_macros,
            reason = "argument validation before any placement"
        )]
        {
            assert_ne!(src, dst, "a path needs distinct endpoints");
        }
        let half = self.k / 2;
        let (sp, se, _) = self.host_coords(self.host_index(src));
        let a = ecmp_select(flow_hash, self.switch_seed(self.edge_at(sp, se)), half);
        let c = ecmp_select(flow_hash, self.switch_seed(self.agg_at(sp, a)), half);
        self.equal_cost_path(src, dst, a, c)
    }

    /// The flow hash of subflow `sf` of a connection: derived from the
    /// connection seed, modelling ndiffports-style distinct five-tuples.
    pub fn subflow_hash(conn_seed: u64, sf: usize) -> u64 {
        SplitMix64::derive(conn_seed, crate::STREAM_SUBFLOW | sf as u64)
    }

    /// The paths ECMP gives an MPTCP connection's `n` subflows — the
    /// hash-and-hope baseline the paper measures against.
    pub fn ecmp_subflow_paths(
        &self,
        src: NodeId,
        dst: NodeId,
        conn_seed: u64,
        n: usize,
    ) -> Vec<Path> {
        (0..n)
            .map(|sf| self.ecmp_path(src, dst, Self::subflow_hash(conn_seed, sf)))
            .collect()
    }

    /// A Nakasan-style max-disjoint selection: `n` equal-cost paths chosen
    /// by a controller that knows the topology, pairwise link-disjoint on
    /// the fabric whenever the tree offers that many disjoint routes
    /// (inter-pod and intra-pod pairs always do for `n ≤ k/2`; same-edge
    /// pairs have a single route, which is returned for every subflow).
    ///
    /// Disjointness needs only *distinct aggregation positions per
    /// subflow*; which positions — and which core column each rides — is
    /// free. A naive `sf % (k/2)` choice sends **every** connection over
    /// the same diagonal of core switches, so per-connection disjointness
    /// buys fleet-level congestion. Instead both indices are rotated by
    /// offsets derived from the endpoint host indices: each connection is
    /// still pairwise disjoint, but different connections land on
    /// different aggregation/core combinations, spreading load across the
    /// whole fabric the way ECMP's hashing does.
    pub fn max_disjoint_paths(&self, src: NodeId, dst: NodeId, n: usize) -> Vec<Path> {
        let half = self.k / 2;
        let (si, di) = (self.host_index(src), self.host_index(dst));
        #[expect(
            clippy::integer_division_remainder_used,
            reason = "half = k/2 >= 1, asserted even and >= 2 at build"
        )]
        let oa = (7 * si + di) % half;
        #[expect(
            clippy::integer_division_remainder_used,
            reason = "half = k/2 >= 1, asserted even and >= 2 at build"
        )]
        let oc = (si + 7 * di) % half;
        #[expect(
            clippy::integer_division_remainder_used,
            reason = "half = k/2 >= 1, asserted even and >= 2 at build"
        )]
        (0..n)
            .map(|sf| self.equal_cost_path(src, dst, (sf + oa) % half, (sf + oc) % half))
            .collect()
    }

    /// The equal-cost shortest path through aggregation position `a` and
    /// core column `c` (both ignored when the pair does not reach that
    /// layer). Enumerating `a × c` enumerates all equal-cost paths.
    pub fn equal_cost_path(&self, src: NodeId, dst: NodeId, a: usize, c: usize) -> Path {
        let half = self.k / 2;
        #[expect(
            clippy::disallowed_macros,
            reason = "argument validation before any construction"
        )]
        {
            assert!(a < half && c < half, "path selector out of range");
        }
        let si = self.host_index(src);
        let di = self.host_index(dst);
        let (sp, se, _) = self.host_coords(si);
        let (dp, de, _) = self.host_coords(di);
        let src_edge = self.edge_at(sp, se);
        let dst_edge = self.edge_at(dp, de);
        let nodes: Vec<NodeId> = if src_edge == dst_edge {
            vec![src, src_edge, dst]
        } else if sp == dp {
            vec![src, src_edge, self.agg_at(sp, a), dst_edge, dst]
        } else {
            vec![
                src,
                src_edge,
                self.agg_at(sp, a),
                self.core_at(a, c),
                self.agg_at(dp, a),
                dst_edge,
                dst,
            ]
        };
        #[expect(
            clippy::expect_used,
            reason = "node sequence follows links the builder created"
        )]
        Path::from_nodes(&self.topology, &nodes).expect("equal-cost node sequence forms a path")
    }

    /// Index of a host node in `hosts`.
    pub fn host_index(&self, host: NodeId) -> usize {
        let i = host.0 as usize;
        #[expect(
            clippy::disallowed_macros,
            reason = "argument validation; hosts occupy the low node ids by construction"
        )]
        {
            assert!(i < self.hosts.len(), "{host:?} is not a host");
        }
        i
    }

    /// Number of equal-cost shortest paths between two distinct hosts:
    /// 1 under one edge switch, `k/2` across a pod, `(k/2)²` across pods.
    pub fn equal_cost_path_count(&self, src: NodeId, dst: NodeId) -> usize {
        let half = self.k / 2;
        let (sp, se, _) = self.host_coords(self.host_index(src));
        let (dp, de, _) = self.host_coords(self.host_index(dst));
        if (sp, se) == (dp, de) {
            1
        } else if sp == dp {
            half
        } else {
            half * half
        }
    }

    /// Shared *fabric* links between two paths (access links excluded: the
    /// common endpoints force those regardless of routing).
    pub fn shared_fabric_links(&self, a: &Path, b: &Path) -> usize {
        a.shared_links(b)
            .iter()
            .filter(|&&l| !self.is_access_link(l))
            .count()
    }

    /// Classify a subflow path pair (see [`PairClass`]).
    pub fn classify_pair(&self, a: &Path, b: &Path) -> PairClass {
        if a.links() == b.links() {
            return PairClass::Identical;
        }
        match self.shared_fabric_links(a, b) {
            0 => PairClass::Disjoint,
            n => PairClass::Partial(n),
        }
    }
}

/// The ECMP collision rate of a set of connections: the fraction of
/// unordered connection pairs whose path sets share at least one fabric
/// link. This is the population-scale metric Nakasan et al. route around —
/// per-connection subflow overlap is classified separately by
/// [`FatTree::classify_pair`].
pub fn collision_rate(tree: &FatTree, path_sets: &[Vec<Path>]) -> f64 {
    let n = path_sets.len();
    if n < 2 {
        return 0.0;
    }
    let mut colliding = 0usize;
    let mut pairs = 0usize;
    for (i, set_a) in path_sets.iter().enumerate() {
        for set_b in path_sets.iter().skip(i + 1) {
            pairs += 1;
            let hit = set_a
                .iter()
                .any(|a| set_b.iter().any(|b| tree.shared_fabric_links(a, b) > 0));
            if hit {
                colliding += 1;
            }
        }
    }
    colliding as f64 / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Ecn, Packet, Payload, Protocol, Tag};
    use simbase::Fnv64;

    fn tree(k: usize, seed: u64) -> FatTree {
        FatTree::build(&FatTreeConfig { k, seed })
    }

    #[test]
    fn counts_match_the_clos_arithmetic() {
        for k in [2usize, 4, 6, 8] {
            let t = tree(k, 1);
            assert_eq!(t.hosts.len(), k * k * k / 4);
            assert_eq!(t.edge.len(), k * k / 2);
            assert_eq!(t.agg.len(), k * k / 2);
            assert_eq!(t.core.len(), k * k / 4);
            assert_eq!(t.topology.node_count(), k * k * k / 4 + k * k + k * k / 4);
            assert_eq!(t.topology.link_count(), k * k * k / 4 + k * k * k / 2);
        }
    }

    #[test]
    fn ecmp_path_is_a_valid_equal_cost_route() {
        let t = tree(4, 7);
        let src = t.hosts[0];
        for (di, &dst) in t.hosts.iter().enumerate().skip(1) {
            let p = t.ecmp_path(src, dst, di as u64 * 977 + 13);
            assert_eq!(p.src(), src);
            assert_eq!(p.dst(), dst);
            let expect_hops = match t.equal_cost_path_count(src, dst) {
                1 => 2,
                2 => 4,
                _ => 6,
            };
            assert_eq!(p.links().len(), expect_hops, "dst {di}");
        }
    }

    #[test]
    fn extractor_agrees_with_every_equal_cost_enumeration() {
        // Every extracted path must be one of the enumerated equal-cost
        // paths — the extractor can't invent a route the fabric lacks.
        let t = tree(4, 3);
        let src = t.hosts[1];
        let dst = t.hosts[14]; // other pod
        let all: Vec<Path> = (0..2)
            .flat_map(|a| (0..2).map(move |c| (a, c)))
            .map(|(a, c)| t.equal_cost_path(src, dst, a, c))
            .collect();
        for flow in 0..64u64 {
            let p = t.ecmp_path(src, dst, flow);
            assert!(
                all.iter().any(|q| q.links() == p.links()),
                "flow {flow} walked an unknown route"
            );
        }
    }

    #[test]
    fn first_hop_matches_the_published_spec_function() {
        // The edge switch's uplink is member ecmp_select(flow, its seed, k/2)
        // of its uplinks, in aggregation-position order; across pods the
        // aggregation switch picks the core column the same way.
        let t = tree(4, 9);
        let src = t.hosts[0];
        let dst = t.hosts[15]; // other pod: both switches above src choose
        let edge = t.edge[0];
        let seed = t.switch_seed(edge);
        for flow in 0..32u64 {
            let p = t.ecmp_path(src, dst, flow);
            let a = ecmp_select(flow, seed, 2);
            let agg = t.agg[a];
            let c = ecmp_select(flow, t.switch_seed(agg), 2);
            // Hops after the access link: up to the aggregation switch,
            // then up to core (group a, column c).
            assert_eq!(Some(p.links()[1]), t.topology.link_between(edge, agg));
            let core = t.core[a * 2 + c];
            assert_eq!(Some(p.links()[2]), t.topology.link_between(agg, core));
        }
    }

    #[test]
    fn zero_seed_reproduces_the_unseeded_ecmp_hash() {
        for flow in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            for len in [1usize, 2, 3, 8] {
                let h = flow.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                assert_eq!(ecmp_select(flow, 0, len), (h >> 32) as usize % len);
            }
        }
    }

    #[test]
    fn ecmp_select_spreads_flows_and_seeds_decorrelate_it() {
        // Consecutive flow keys spread over both members ...
        let mut counts = [0usize; 2];
        for flow in 0..100u64 {
            counts[ecmp_select(flow, 0, 2)] += 1;
        }
        assert!(
            counts[0] > 20 && counts[1] > 20,
            "hash should spread: {counts:?}"
        );
        // ... and two switches with different seeds do not pick the same
        // member for every flow (the correlation per-switch seeds break).
        let differs = (0..200u64)
            .filter(|&flow| ecmp_select(flow, 0x1234_5678_9ABC_DEF0, 2) != ecmp_select(flow, 0, 2))
            .count();
        assert!(differs > 40, "seed changed only {differs}/200 choices");
    }

    #[test]
    fn ecmp_placement_is_pinned() {
        // One FNV-1a digest over the links of every placement: all ordered
        // host pairs of k = 4 and k = 8 fabrics, seeds 0-3, four flow
        // hashes each (263 936 paths). The pin is what the fabric's ECMP
        // forwarding tables gave when a probe packet walked them; the
        // arithmetic placement must reproduce every path.
        let mut h = Fnv64::new();
        let mut placed = 0usize;
        for k in [4usize, 8] {
            for seed in 0..4u64 {
                let t = tree(k, seed);
                for &src in &t.hosts {
                    for &dst in t.hosts.iter().filter(|&&dst| dst != src) {
                        for flow in [0u64, 1, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
                            let p = t.ecmp_path(src, dst, flow);
                            h.write_u64(p.links().len() as u64);
                            for l in p.links() {
                                h.write_u64(u64::from(l.0));
                            }
                            placed += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(placed, 263_936);
        assert_eq!(h.finish(), 0x1b8a_6c65_830b_6da5);
    }

    #[test]
    fn max_disjoint_pairs_share_no_fabric_link() {
        let t = tree(4, 5);
        // Inter-pod and intra-pod pairs: fully fabric-disjoint.
        for (s, d) in [(0usize, 13usize), (0, 5)] {
            let ps = t.max_disjoint_paths(t.hosts[s], t.hosts[d], 2);
            assert_eq!(t.shared_fabric_links(&ps[0], &ps[1]), 0);
            assert_eq!(t.classify_pair(&ps[0], &ps[1]), PairClass::Disjoint);
        }
        // Same edge switch: a single route exists.
        let ps = t.max_disjoint_paths(t.hosts[0], t.hosts[1], 2);
        assert_eq!(t.classify_pair(&ps[0], &ps[1]), PairClass::Identical);
    }

    #[test]
    fn switch_seeds_vary_and_rebuild_identically() {
        let a = tree(4, 42);
        let b = tree(4, 42);
        let c = tree(4, 43);
        assert_eq!(a.switch_seed(a.edge[0]), b.switch_seed(b.edge[0]));
        assert_ne!(a.switch_seed(a.edge[0]), a.switch_seed(a.edge[1]));
        assert_ne!(a.switch_seed(a.edge[0]), c.switch_seed(c.edge[0]));
        // Whole-fabric determinism: same flow, same route, across builds.
        for flow in 0..32u64 {
            let pa = a.ecmp_path(a.hosts[2], a.hosts[11], flow);
            let pb = b.ecmp_path(b.hosts[2], b.hosts[11], flow);
            assert_eq!(pa.links(), pb.links());
        }
    }

    #[test]
    fn a_six_hop_tagged_path_resolves_at_every_node_in_both_directions() {
        // An inter-pod path is six hops: two route sets per direction
        // (netsim keeps four hops per set), into tables the fabric leaves
        // empty.
        let t = tree(4, 11);
        let (src, dst) = (t.hosts[0], t.hosts[15]);
        let path = t.equal_cost_path(src, dst, 1, 0);
        assert_eq!(path.links().len(), 6);
        let mut routing = t.routing.clone();
        assert_eq!((routing.route_sets(), routing.untagged_routes()), (0, 0));
        routing.install_path(&path, Tag(9));
        assert_eq!(routing.route_sets(), 4);
        let towards = |to: NodeId| Packet {
            id: 0,
            src: if to == dst { src } else { dst },
            dst: to,
            tag: Tag(9),
            protocol: Protocol::Raw,
            payload: Payload::empty(),
            data_len: 0,
            ecn: Ecn::NotEct,
        };
        let (nodes, links) = (path.nodes(), path.links());
        for (i, &link) in links.iter().enumerate() {
            assert_eq!(routing.route(nodes[i], &towards(dst)), Some(link));
            assert_eq!(routing.route(nodes[i + 1], &towards(src)), Some(link));
        }
        // A switch off the path has no route: the tag means nothing there.
        let other_agg = t.agg[0];
        assert!(!nodes.contains(&other_agg));
        assert_eq!(routing.route(other_agg, &towards(dst)), None);
    }

    #[test]
    fn collision_rate_bounds_and_known_cases() {
        let t = tree(4, 9);
        let disjoint = vec![
            t.max_disjoint_paths(t.hosts[0], t.hosts[12], 1),
            t.max_disjoint_paths(t.hosts[5], t.hosts[9], 1),
        ];
        // Different (agg, core) columns chosen per pair may still collide;
        // just bound-check here and pin the self-collision case.
        let r = collision_rate(&t, &disjoint);
        assert!((0.0..=1.0).contains(&r));
        let same = vec![
            t.ecmp_subflow_paths(t.hosts[0], t.hosts[12], 1, 1),
            t.ecmp_subflow_paths(t.hosts[0], t.hosts[12], 1, 1),
        ];
        assert_eq!(collision_rate(&t, &same), 1.0);
        assert_eq!(collision_rate(&t, &same[..1]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Well-formedness across arities and seeds: Clos counts, full
        /// equal-cost fan-out for inter-pod pairs, and hash determinism.
        #[test]
        fn fat_trees_are_well_formed(k_half in 1usize..5, seed in 0u64..1000) {
            let k = 2 * k_half;
            let cfg = FatTreeConfig { k, seed };
            let t = FatTree::build(&cfg);
            prop_assert_eq!(t.hosts.len(), k * k * k / 4);
            prop_assert_eq!(t.topology.link_count(), 3 * k * k * k / 4);

            // All (k/2)² inter-pod equal-cost paths are distinct and valid.
            if k >= 4 {
                let src = t.hosts[0];
                let dst = t.hosts[t.hosts.len() - 1];
                prop_assert_eq!(t.equal_cost_path_count(src, dst), k_half * k_half);
                let mut seen = std::collections::BTreeSet::new();
                for a in 0..k_half {
                    for c in 0..k_half {
                        let p = t.equal_cost_path(src, dst, a, c);
                        prop_assert_eq!(p.links().len(), 6);
                        seen.insert(p.links().to_vec());
                    }
                }
                prop_assert_eq!(seen.len(), k_half * k_half);
            }

            // ECMP hash determinism: the same build yields the same path.
            let t2 = FatTree::build(&cfg);
            let src = t.hosts[0];
            let dst = t.hosts[t.hosts.len() / 2];
            if src != dst {
                for flow in [0u64, 1, seed, seed.wrapping_mul(31)] {
                    prop_assert_eq!(
                        t.ecmp_path(src, dst, flow).links(),
                        t2.ecmp_path(src, dst, flow).links()
                    );
                }
            }
        }

        /// Placement is a pure function: changing only the flow hash can
        /// change the route; changing nothing never does.
        #[test]
        fn extraction_is_a_pure_function(seed in 0u64..500, flow in 0u64..10_000) {
            let t = FatTree::build(&FatTreeConfig { seed, ..FatTreeConfig::default() });
            let src = t.hosts[3];
            let dst = t.hosts[12];
            let p1 = t.ecmp_path(src, dst, flow);
            let p2 = t.ecmp_path(src, dst, flow);
            prop_assert_eq!(p1.links(), p2.links());
        }
    }
}
