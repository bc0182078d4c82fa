//! k-ary fat-tree datacenter fabrics with seeded ECMP hashing.
//!
//! The classic three-layer Clos: `k` pods, each with `k/2` edge and `k/2`
//! aggregation switches, `(k/2)²` core switches, and `k³/4` hosts. Every
//! inter-pod host pair has `(k/2)²` equal-cost shortest paths; which one a
//! flow takes is decided hop by hop by ECMP hashing — and when two MPTCP
//! subflows hash onto a shared fabric link, the overlap regime the paper
//! studies appears at datacenter scale.
//!
//! Determinism: topology construction is pure arithmetic over the config;
//! each switch's ECMP hash seed is derived from the config seed and the
//! switch's node id ([`crate::STREAM_ECMP_SWITCH`]), so the fabric's entire
//! forwarding function is a pure function of [`FatTreeConfig`]. The path
//! extractor ([`FatTree::ecmp_path`]) walks the same FIBs with
//! [`netsim::ecmp_select`] — the specification the runtime FIB uses — so an
//! extracted path *is* the path the live simulator would forward over.

use netsim::{
    Ecn, LinkId, NodeId, Packet, Path, Payload, Protocol, QueueConfig, RoutingTables, Tag, Topology,
};
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

/// A built fat-tree: topology, ECMP-programmed routing tables, and the
/// node-id layout needed to reason about it.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// The network.
    pub topology: Topology,
    /// FIBs with default routes down and seeded ECMP groups up.
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
    /// Build the fabric and program its routing tables.
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

        let mut tree = FatTree {
            routing: RoutingTables::new(&topo),
            topology: topo,
            k,
            seed: cfg.seed,
            hosts,
            edge,
            agg,
            core,
        };
        tree.install_routes();
        tree
    }

    /// The ECMP hash seed of a switch: derived from the master seed and the
    /// node id, so every switch models an independent hardware hash.
    pub fn switch_seed(&self, node: NodeId) -> u64 {
        SplitMix64::derive(self.seed, crate::STREAM_ECMP_SWITCH | node.0 as u64)
    }

    /// Program the routing tables: per-destination-host down routes and
    /// seeded ECMP groups up. Node by node, so that each switch builds the
    /// uplink list it hashes over once and every row fills in destination
    /// order.
    fn install_routes(&mut self) {
        let half = self.k / 2;
        let hosts = &self.hosts;
        // Hosts: single access link towards everything.
        for (si, &src) in hosts.iter().enumerate() {
            let (sp, se, _sh) = self.host_coords(si);
            let l = self.access_link(src, self.edge_at(sp, se));
            for &dst in hosts.iter().filter(|&&dst| dst != src) {
                self.routing.set_default_route(src, dst, l);
            }
        }
        for p in 0..self.k {
            for i in 0..half {
                // Edge switch: deliver locally, hash up otherwise.
                let sw = self.edge_at(p, i);
                self.routing.set_ecmp_seed(sw, self.switch_seed(sw));
                let ups: Vec<LinkId> = (0..half)
                    .map(|a| self.fabric_link(sw, self.agg_at(p, a)))
                    .collect();
                for (hi, &dst) in hosts.iter().enumerate() {
                    let (dp, de, _dh) = self.host_coords(hi);
                    if (dp, de) == (p, i) {
                        let l = self.access_link(dst, sw);
                        self.routing.set_default_route(sw, dst, l);
                    } else {
                        self.routing.set_ecmp_group(sw, dst, &ups);
                    }
                }
                // Aggregation switch: down inside the pod, hash to core across.
                let sw = self.agg_at(p, i);
                self.routing.set_ecmp_seed(sw, self.switch_seed(sw));
                let ups: Vec<LinkId> = (0..half)
                    .map(|c| self.fabric_link(sw, self.core_at(i, c)))
                    .collect();
                for (hi, &dst) in hosts.iter().enumerate() {
                    let (dp, de, _dh) = self.host_coords(hi);
                    if dp == p {
                        let l = self.fabric_link(self.edge_at(dp, de), sw);
                        self.routing.set_default_route(sw, dst, l);
                    } else {
                        self.routing.set_ecmp_group(sw, dst, &ups);
                    }
                }
            }
        }
        // Core switches: one down link into the destination pod.
        for g in 0..half {
            for c in 0..half {
                let sw = self.core_at(g, c);
                for (hi, &dst) in hosts.iter().enumerate() {
                    let (dp, _de, _dh) = self.host_coords(hi);
                    let l = self.fabric_link(self.agg_at(dp, g), sw);
                    self.routing.set_default_route(sw, dst, l);
                }
            }
        }
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

    fn access_link(&self, host: NodeId, edge: NodeId) -> LinkId {
        #[expect(
            clippy::expect_used,
            reason = "the builder created this link; absence is a construction bug"
        )]
        self.topology
            .link_between(host, edge)
            .expect("host access link")
    }

    fn fabric_link(&self, a: NodeId, b: NodeId) -> LinkId {
        #[expect(
            clippy::expect_used,
            reason = "the builder created this link; absence is a construction bug"
        )]
        self.topology.link_between(a, b).expect("fabric link")
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

    /// The exact path ECMP forwards a flow with `flow_hash` along, from
    /// `src` to `dst`, by walking the programmed FIBs with the runtime
    /// selection function ([`netsim::ecmp_select`] via
    /// [`netsim::RoutingTables::route`]).
    pub fn ecmp_path(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Path {
        #[expect(
            clippy::disallowed_macros,
            reason = "argument validation before any walking"
        )]
        {
            assert_ne!(src, dst, "a path needs distinct endpoints");
        }
        let probe = Packet {
            id: 0,
            src,
            dst,
            tag: Tag::NONE,
            protocol: Protocol::Raw,
            payload: Payload::empty(),
            data_len: 0,
            flow_hash,
            ecn: Ecn::NotEct,
        };
        let mut nodes = vec![src];
        let mut cur = src;
        // host → edge → agg → core → agg → edge → host is the longest walk.
        for _ in 0..6 {
            if cur == dst {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "install_routes programmed every (switch, host) entry; a miss is a construction bug"
            )]
            let link = self
                .routing
                .route(cur, &probe)
                .expect("fat-tree FIBs cover every host destination");
            cur = self.topology.link(link).other_end(cur);
            nodes.push(cur);
        }
        #[expect(
            clippy::disallowed_macros,
            reason = "loop bound is the tree diameter; not reaching dst is a construction bug"
        )]
        {
            assert_eq!(cur, dst, "ECMP walk did not reach the destination");
        }
        #[expect(
            clippy::expect_used,
            reason = "nodes were collected along existing links"
        )]
        Path::from_nodes(&self.topology, &nodes).expect("walked nodes form a path")
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
    use netsim::ecmp_select;

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
        // The extractor walks real FIBs; the FIB implements ecmp_select.
        // Check the chain end to end at the edge switch's uplink choice.
        let t = tree(4, 9);
        let src = t.hosts[0];
        let dst = t.hosts[15]; // other pod: edge switch uses its ECMP group
        let edge = t.edge[0];
        let group: Vec<LinkId> = t
            .routing
            .ecmp_group(edge, dst)
            .expect("edge switch has an ECMP group for a remote host")
            .to_vec();
        let seed = t.switch_seed(edge);
        for flow in 0..32u64 {
            let p = t.ecmp_path(src, dst, flow);
            let uplink = p.links()[1]; // hop after the access link
            assert_eq!(uplink, group[ecmp_select(flow, seed, group.len())]);
        }
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
        // (netsim keeps four hops per set), and the tag outranks the
        // ECMP groups and default routes every switch on the way has.
        let t = tree(4, 11);
        let (src, dst) = (t.hosts[0], t.hosts[15]);
        let path = t.equal_cost_path(src, dst, 1, 0);
        assert_eq!(path.links().len(), 6);
        let mut routing = t.routing.clone();
        assert_eq!(routing.route_sets(), 0, "the fabric itself routes untagged");
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
            flow_hash: 77,
            ecn: Ecn::NotEct,
        };
        let (nodes, links) = (path.nodes(), path.links());
        for (i, &link) in links.iter().enumerate() {
            assert_eq!(routing.route(nodes[i], &towards(dst)), Some(link));
            assert_eq!(routing.route(nodes[i + 1], &towards(src)), Some(link));
        }
        // A switch off the path still hashes: the tag means nothing there.
        let other_agg = t.agg[0];
        assert!(!nodes.contains(&other_agg));
        assert_eq!(
            routing.route(other_agg, &towards(dst)),
            t.routing.route(other_agg, &towards(dst))
        );
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

            // ECMP hash determinism: the same build yields the same walk.
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

        /// The extractor's route matches the FIB hash choice at the edge:
        /// changing only the flow hash can change the route; changing
        /// nothing never does.
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
