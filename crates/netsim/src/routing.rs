//! Forwarding tables and route installation.
//!
//! Each node owns a [`Fib`] consulted per packet, in priority order:
//!
//! 1. **Exact tag route** `(destination, tag) → link` — the paper's tagging
//!    mechanism: deterministic, per-tag forwarding.
//! 2. **Default route** `destination → link` — shortest path, used by
//!    untagged traffic and as a fallback.
//! 3. **ECMP group** `destination → {links}` — hash of the packet's flow key
//!    selects among equal-cost next hops (the alternative tagging substrate
//!    mentioned in the paper, where tags are realized through ECMP hashing).
//!
//! [`install_path`] writes tag routes for a path in both directions so that
//! ACKs of a tagged subflow retrace the same path — matching the Mininet
//! setup where each subflow's five-tuple is pinned to one route.

use crate::packet::{LinkId, NodeId, Packet, Tag};
use crate::paths::{shortest_path, Path};
use crate::topology::Topology;
use std::collections::BTreeMap;

/// Per-node forwarding information base.
///
/// The default and ECMP tables are `BTreeMap`s so that iteration
/// (diagnostics, future dump/export) is in key order and the structure is
/// deterministic across processes — `HashMap`'s per-process seed would make
/// any traversal order a hidden source of nondeterminism (enforced by
/// simlint's `hash-iter` rule). The exact tag routes, the table every
/// tagged packet consults at every hop, are an [`ExactRoutes`] hash table:
/// its hash function is fixed and *nothing iterates it* (it answers
/// point lookups and a count), so no slot order can leak into a run.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    exact: ExactRoutes,
    default_route: BTreeMap<NodeId, LinkId>,
    ecmp: BTreeMap<NodeId, Vec<LinkId>>,
    ecmp_seed: u64,
}

/// The ECMP member index for a flow: Fibonacci hash of the flow key mixed
/// with the switch's seed. Seed 0 reproduces the historical unseeded hash
/// (XOR with 0 is the identity), so existing topologies are unaffected.
///
/// This function is the *specification* of ECMP selection: generators that
/// pre-compute the path a flow will take (e.g. `worldgen`'s fat-tree path
/// extractor) call it with the same arguments the FIB uses at forwarding
/// time, and the two must agree by construction.
pub fn ecmp_select(flow_hash: u64, seed: u64, group_len: usize) -> usize {
    debug_assert!(group_len > 0);
    let h = (flow_hash ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize % group_len
}

/// `(destination, tag) → link` for tagged routes: open addressing with
/// linear probing over a power-of-two slot array, keyed by
/// `dst << 16 | tag`. A tagged route's key is never 0 (its tag is not), so
/// key 0 marks a vacant slot. The table grows at half load, which bounds
/// probe runs and guarantees every probe ends at a vacant slot; routes are
/// only ever added or overwritten, so there are no tombstones. A gateway
/// of a 4 000-pair cell holds 16 000 routes: one multiply and (nearly
/// always) one cache line per lookup, where the B-tree it replaces walked
/// four levels of key comparisons.
#[derive(Debug, Clone, Default)]
struct ExactRoutes {
    slots: Vec<(u64, LinkId)>,
    len: usize,
}

impl ExactRoutes {
    fn key(dst: NodeId, tag: Tag) -> u64 {
        u64::from(dst.0) << 16 | u64::from(tag.0)
    }

    /// The slot `key` is probed from: Fibonacci hashing, so consecutive
    /// destinations and tags scatter.
    fn home(key: u64, mask: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
    }

    /// The slot holding `key`, or the vacant slot where it belongs. `None`
    /// only for a table with no slots at all.
    fn probe(&self, key: u64) -> Option<usize> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = Self::home(key, mask);
        loop {
            match self.slots.get(i) {
                Some(&(k, _)) if k == key || k == 0 => return Some(i),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    fn get(&self, dst: NodeId, tag: Tag) -> Option<LinkId> {
        let key = Self::key(dst, tag);
        match self.slots.get(self.probe(key)?) {
            Some(&(k, link)) if k == key => Some(link),
            _ => None,
        }
    }

    fn insert(&mut self, dst: NodeId, tag: Tag, link: LinkId) {
        if (self.len + 1) * 2 > self.slots.len() {
            let doubled = vec![(0, LinkId(0)); (self.slots.len() * 2).max(4)];
            for (key, link) in std::mem::replace(&mut self.slots, doubled) {
                if key != 0 {
                    self.place(key, link);
                }
            }
        }
        self.len += usize::from(self.place(Self::key(dst, tag), link));
    }

    /// Write `key → link`; true if `key` was not in the table before.
    fn place(&mut self, key: u64, link: LinkId) -> bool {
        let slot = self.probe(key).and_then(|i| self.slots.get_mut(i));
        let Some(slot) = slot else {
            return false; // unreachable: insert sized the table first
        };
        let new = slot.0 == 0;
        *slot = (key, link);
        new
    }
}

impl Fib {
    /// Empty FIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set this node's ECMP hash seed (see [`ecmp_select`]). Distinct seeds
    /// per switch model independent hardware hash functions — without them,
    /// every switch in a layered fabric would make correlated choices and
    /// ECMP collisions would be systematically under- or over-counted.
    pub fn set_ecmp_seed(&mut self, seed: u64) {
        self.ecmp_seed = seed;
    }

    /// This node's ECMP hash seed.
    pub fn ecmp_seed(&self) -> u64 {
        self.ecmp_seed
    }

    /// The ECMP group towards `dst`, if one is installed.
    pub fn ecmp_group(&self, dst: NodeId) -> Option<&[LinkId]> {
        self.ecmp.get(&dst).map(Vec::as_slice)
    }

    /// Install an exact `(dst, tag)` route. Later installs overwrite.
    /// A route under [`Tag::NONE`] could never match a packet ([`Fib::route`]
    /// sends untagged traffic to the ECMP and default tables), so it is
    /// not stored.
    pub fn set_tag_route(&mut self, dst: NodeId, tag: Tag, out: LinkId) {
        if tag.is_tagged() {
            self.exact.insert(dst, tag, out);
        }
    }

    /// Install the default route towards `dst`.
    pub fn set_default_route(&mut self, dst: NodeId, out: LinkId) {
        self.default_route.insert(dst, out);
    }

    /// Install an ECMP group towards `dst` (replaces any previous group).
    pub fn set_ecmp_group(&mut self, dst: NodeId, outs: Vec<LinkId>) {
        assert!(!outs.is_empty(), "empty ECMP group");
        self.ecmp.insert(dst, outs);
    }

    /// Route a packet: exact tag route, then default, then ECMP hash.
    pub fn route(&self, pkt: &Packet) -> Option<LinkId> {
        if pkt.tag.is_tagged() {
            if let Some(l) = self.exact.get(pkt.dst, pkt.tag) {
                return Some(l);
            }
        }
        if let Some(group) = self.ecmp.get(&pkt.dst) {
            // Deterministic flow hash -> group member. Fibonacci hashing
            // spreads consecutive flow keys across members.
            return Some(group[ecmp_select(pkt.flow_hash, self.ecmp_seed, group.len())]);
        }
        self.default_route.get(&pkt.dst).copied()
    }

    /// Number of exact tag routes (diagnostics).
    pub fn tag_route_count(&self) -> usize {
        self.exact.len
    }
}

/// The set of FIBs for a topology, indexed by node.
#[derive(Debug, Clone, Default)]
pub struct RoutingTables {
    fibs: Vec<Fib>,
}

impl RoutingTables {
    /// One empty FIB per node.
    pub fn new(topo: &Topology) -> Self {
        RoutingTables {
            fibs: vec![Fib::new(); topo.node_count()],
        }
    }

    /// The FIB of `node`.
    pub fn fib(&self, node: NodeId) -> &Fib {
        &self.fibs[node.0 as usize]
    }

    /// Mutable FIB of `node`.
    pub fn fib_mut(&mut self, node: NodeId) -> &mut Fib {
        &mut self.fibs[node.0 as usize]
    }

    /// Install tag routes for `path` under `tag`, forward **and** reverse,
    /// so data and ACKs of the tagged subflow use the same physical route.
    pub fn install_path(&mut self, path: &Path, tag: Tag) {
        assert!(tag.is_tagged(), "cannot install a path under Tag::NONE");
        let dst = path.dst();
        let src = path.src();
        let nodes = path.nodes();
        let links = path.links();
        for i in 0..links.len() {
            // Forward direction: at nodes[i], towards dst via links[i].
            self.fib_mut(nodes[i]).set_tag_route(dst, tag, links[i]);
            // Reverse direction: at nodes[i+1], towards src via links[i].
            self.fib_mut(nodes[i + 1]).set_tag_route(src, tag, links[i]);
        }
    }

    /// Compute shortest paths (by delay) from every node to `dst` and
    /// install them as default routes. O(nodes * Dijkstra); fine for the
    /// evaluation-scale topologies.
    pub fn install_default_routes_to(&mut self, topo: &Topology, dst: NodeId) {
        for n in topo.node_ids() {
            if n == dst {
                continue;
            }
            if let Some(p) = shortest_path(topo, n, dst) {
                self.fib_mut(n).set_default_route(dst, p.links()[0]);
            }
        }
    }

    /// Install default routes between all node pairs.
    pub fn install_all_default_routes(&mut self, topo: &Topology) {
        for dst in topo.node_ids() {
            self.install_default_routes_to(topo, dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Protocol;
    use crate::payload::Payload;
    use crate::queue::QueueConfig;
    use simbase::{Bandwidth, SimDuration};

    fn pkt(dst: NodeId, tag: Tag, flow_hash: u64) -> Packet {
        Packet {
            id: 0,
            src: NodeId(0),
            dst,
            tag,
            protocol: Protocol::Raw,
            payload: Payload::empty(),
            data_len: 0,
            flow_hash,
            ecn: crate::packet::Ecn::NotEct,
        }
    }

    fn diamond() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let u = t.add_node("u");
        let v = t.add_node("v");
        let d = t.add_node("d");
        let bw = Bandwidth::from_mbps(10);
        let ms = SimDuration::from_millis;
        t.add_link(s, u, bw, ms(1), QueueConfig::default());
        t.add_link(u, d, bw, ms(1), QueueConfig::default());
        t.add_link(s, v, bw, ms(5), QueueConfig::default());
        t.add_link(v, d, bw, ms(5), QueueConfig::default());
        (t, s, u, v, d)
    }

    #[test]
    fn tag_route_beats_default() {
        let (t, s, _u, v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        rt.install_all_default_routes(&t);
        let via_v = Path::from_nodes(&t, &[s, v, d]).unwrap();
        rt.install_path(&via_v, Tag(7));

        // Untagged: default (shortest) route via u -> link 0.
        assert_eq!(rt.fib(s).route(&pkt(d, Tag::NONE, 1)), Some(LinkId(0)));
        // Tagged: pinned route via v -> link 2.
        assert_eq!(rt.fib(s).route(&pkt(d, Tag(7), 1)), Some(LinkId(2)));
        // Unknown tag falls back to default.
        assert_eq!(rt.fib(s).route(&pkt(d, Tag(9), 1)), Some(LinkId(0)));
    }

    #[test]
    fn install_path_covers_reverse_direction() {
        let (t, s, _u, v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        let via_v = Path::from_nodes(&t, &[s, v, d]).unwrap();
        rt.install_path(&via_v, Tag(7));
        // ACK from d back to s with the same tag goes via v (link 3 then 2).
        assert_eq!(rt.fib(d).route(&pkt(s, Tag(7), 1)), Some(LinkId(3)));
        assert_eq!(rt.fib(v).route(&pkt(s, Tag(7), 1)), Some(LinkId(2)));
    }

    #[test]
    fn default_routes_reach_everywhere() {
        let (t, s, u, v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        rt.install_all_default_routes(&t);
        for from in [s, u, v] {
            assert!(
                rt.fib(from).route(&pkt(d, Tag::NONE, 0)).is_some(),
                "{from:?} -> d missing"
            );
        }
        assert!(rt.fib(d).route(&pkt(s, Tag::NONE, 0)).is_some());
    }

    #[test]
    fn no_route_returns_none() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(
            a,
            b,
            Bandwidth::from_mbps(1),
            SimDuration::ZERO,
            QueueConfig::default(),
        );
        let rt = RoutingTables::new(&t);
        assert_eq!(rt.fib(a).route(&pkt(b, Tag::NONE, 0)), None);
    }

    #[test]
    fn ecmp_is_deterministic_per_flow_and_spreads() {
        let (t, s, _u, _v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        rt.fib_mut(s).set_ecmp_group(d, vec![LinkId(0), LinkId(2)]);
        let mut counts = [0usize; 2];
        for flow in 0..100 {
            let l1 = rt.fib(s).route(&pkt(d, Tag::NONE, flow)).unwrap();
            let l2 = rt.fib(s).route(&pkt(d, Tag::NONE, flow)).unwrap();
            assert_eq!(l1, l2, "same flow must hash to same member");
            counts[if l1 == LinkId(0) { 0 } else { 1 }] += 1;
        }
        assert!(
            counts[0] > 20 && counts[1] > 20,
            "hash should spread: {counts:?}"
        );
    }

    #[test]
    fn ecmp_seed_zero_reproduces_the_unseeded_hash() {
        for flow in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            for len in [1usize, 2, 3, 8] {
                let h = flow.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                assert_eq!(ecmp_select(flow, 0, len), (h >> 32) as usize % len);
            }
        }
    }

    #[test]
    fn ecmp_seeds_decorrelate_switch_choices() {
        // Two switches with different seeds must not pick the same member
        // index for every flow (that correlation is what per-switch seeds
        // exist to break); each individually stays deterministic.
        let (t, s, _u, _v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        rt.fib_mut(s).set_ecmp_group(d, vec![LinkId(0), LinkId(2)]);
        rt.fib_mut(s).set_ecmp_seed(0x1234_5678_9ABC_DEF0);
        assert_eq!(rt.fib(s).ecmp_seed(), 0x1234_5678_9ABC_DEF0);
        let mut differs = 0;
        for flow in 0..200u64 {
            let seeded = ecmp_select(flow, 0x1234_5678_9ABC_DEF0, 2);
            let unseeded = ecmp_select(flow, 0, 2);
            if seeded != unseeded {
                differs += 1;
            }
            // The FIB must apply its own seed.
            let routed = rt.fib(s).route(&pkt(d, Tag::NONE, flow)).unwrap();
            let expect = [LinkId(0), LinkId(2)][seeded];
            assert_eq!(routed, expect);
        }
        assert!(differs > 40, "seed changed only {differs}/200 choices");
    }

    #[test]
    #[should_panic(expected = "Tag::NONE")]
    fn installing_untagged_path_panics() {
        let (t, s, u, _v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        let p = Path::from_nodes(&t, &[s, u, d]).unwrap();
        rt.install_path(&p, Tag::NONE);
    }

    #[test]
    fn tag_route_count_tracks() {
        let (t, s, _u, v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        let p = Path::from_nodes(&t, &[s, v, d]).unwrap();
        rt.install_path(&p, Tag(1));
        // 2 hops -> 2 forward entries at s and v, 2 reverse at d and v.
        assert_eq!(rt.fib(s).tag_route_count(), 1);
        assert_eq!(rt.fib(v).tag_route_count(), 2);
        assert_eq!(rt.fib(d).tag_route_count(), 1);
    }

    #[test]
    fn untagged_tag_route_is_not_stored() {
        let mut fib = Fib::new();
        fib.set_tag_route(NodeId(0), Tag::NONE, LinkId(3));
        assert_eq!(fib.tag_route_count(), 0);
        assert_eq!(fib.route(&pkt(NodeId(0), Tag::NONE, 0)), None);
    }

    #[test]
    fn exact_routes_of_a_4000_pair_gateway() {
        // The shape the traffic substrate installs on a gateway: per pair,
        // two tags towards each of two hosts. Every route resolves to its
        // own link through several growth steps.
        let mut fib = Fib::new();
        let route = |host: u32, tag: u16| LinkId(host * 2 + u32::from(tag));
        for host in 0..8000u32 {
            for tag in [1u16, 2] {
                fib.set_tag_route(NodeId(5 + host), Tag(tag), route(host, tag));
            }
        }
        assert_eq!(fib.tag_route_count(), 16_000);
        for host in 0..8000u32 {
            for tag in [1u16, 2] {
                let got = fib.route(&pkt(NodeId(5 + host), Tag(tag), 0));
                assert_eq!(got, Some(route(host, tag)));
            }
            assert_eq!(fib.route(&pkt(NodeId(5 + host), Tag(3), 0)), None);
        }
    }

    proptest::proptest! {
        // The exact-route table against a `BTreeMap` oracle: random
        // installs (few destinations and tags, so overwrites are common),
        // then every (dst, tag) in range looked up through `route` — a
        // present key answers its latest link, an absent one falls through
        // to the ECMP group, then the default route, then nothing.
        #[test]
        fn exact_routes_match_a_btreemap_oracle(
            installs in proptest::collection::vec((0u32..40, 1u16..6, 0u32..1000), 0..300),
            fallback in 0u8..3,
        ) {
            let mut fib = Fib::new();
            let mut oracle = BTreeMap::new();
            for &(dst, tag, link) in &installs {
                fib.set_tag_route(NodeId(dst), Tag(tag), LinkId(link));
                oracle.insert((dst, tag), LinkId(link));
                proptest::prop_assert_eq!(fib.tag_route_count(), oracle.len());
            }
            let below = match fallback {
                0 => None,
                1 => Some(LinkId(7001)),
                _ => Some(LinkId(7002)),
            };
            for dst in 0..41u32 {
                match fallback {
                    1 => fib.set_default_route(NodeId(dst), LinkId(7001)),
                    2 => {
                        // ECMP outranks the default route.
                        fib.set_default_route(NodeId(dst), LinkId(7001));
                        fib.set_ecmp_group(NodeId(dst), vec![LinkId(7002)]);
                    }
                    _ => {}
                }
                for tag in 0..7u16 {
                    let want = oracle.get(&(dst, tag)).copied().or(below);
                    proptest::prop_assert_eq!(fib.route(&pkt(NodeId(dst), Tag(tag), 9)), want);
                }
            }
        }
    }
}
