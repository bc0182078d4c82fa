//! Forwarding state and route installation.
//!
//! A packet at a node is forwarded by the first of these that matches:
//!
//! 1. **Exact tag route** `(node, destination, tag) → link` — the paper's
//!    tagging mechanism: deterministic, per-tag forwarding.
//! 2. **ECMP group** `(node, destination) → {links}` — hash of the packet's
//!    flow key selects among equal-cost next hops (the alternative tagging
//!    substrate mentioned in the paper, where tags are realized through
//!    ECMP hashing).
//! 3. **Default route** `(node, destination) → link` — shortest path, used
//!    by untagged traffic and as a fallback.
//!
//! [`RoutingTables::install_path`] writes tag routes for a path in both
//! directions so that ACKs of a tagged subflow retrace the same path —
//! matching the Mininet setup where each subflow's five-tuple is pinned to
//! one route.
//!
//! # Tagged routes are stored as the paths they are
//!
//! A tagged route is a path of a handful of hops, installed once and read
//! by every packet of its subflow at every hop. So tagged routes are kept
//! once for the whole network, *by destination*: `head[dst]` starts a short
//! chain of fixed-size [`RouteSet`]s, each holding up to four
//! `(node, out-link)` hops of one tag towards that destination. A lookup is
//! an index, a tag compare per set and a scan of at most a path's worth of
//! hops — no hash, no probe, no per-node table — and the hops of a path sit
//! next to each other in memory in the order a packet visits them.
//!
//! * **Overwrite.** A `(node, destination, tag)` triple has at most one hop
//!   in the chain: installing it again replaces the link in place ("later
//!   installs overwrite", per node). Installing a second path under a
//!   `(destination, tag)` that already has one therefore re-points the
//!   nodes the two share and leaves every other node of the first path
//!   with the route it had.
//! * **Spill.** A hop goes into the first set of its tag that has room;
//!   when none has, a new set is linked at the end of the destination's
//!   chain. A four-hop path (the traffic substrate's) is one set per
//!   direction; a six-hop fat-tree path is two.
//!
//! Untagged state (default routes, ECMP groups, the ECMP seed) stays per
//! node, allocated only for nodes that have any: a traffic cell's 8 000
//! hosts route by tag alone and own nothing here.

use crate::packet::{LinkId, NodeId, Packet, Tag};
use crate::paths::{shortest_path, Path};
use crate::topology::Topology;
use std::collections::BTreeMap;

/// The ECMP member index for a flow: Fibonacci hash of the flow key mixed
/// with the switch's seed. Seed 0 reproduces the historical unseeded hash
/// (XOR with 0 is the identity), so existing topologies are unaffected.
///
/// This function is the *specification* of ECMP selection: generators that
/// pre-compute the path a flow will take (e.g. `worldgen`'s fat-tree path
/// extractor) call it with the same arguments the routing tables use at
/// forwarding time, and the two must agree by construction.
pub fn ecmp_select(flow_hash: u64, seed: u64, group_len: usize) -> usize {
    debug_assert!(group_len > 0);
    let h = (flow_hash ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize % group_len
}

/// Hops one [`RouteSet`] holds inline.
const SET_HOPS: usize = 4;

/// End of a destination's chain (and "no chain" in `head`): no set has
/// this index, so following it finds nothing.
const NIL: u32 = u32::MAX;

/// No node has this id: an unused hop slot holds it and matches nothing.
const NO_NODE: NodeId = NodeId(u32::MAX);

/// Up to [`SET_HOPS`] hops of the tagged routes towards one destination
/// under one tag, and the link to the destination's next set.
#[derive(Debug, Clone, Copy)]
struct RouteSet {
    tag: Tag,
    /// Hops in use.
    len: u8,
    /// Index of the destination's next set, or [`NIL`].
    next: u32,
    /// At `nodes[i]`, a packet for this destination and tag leaves on
    /// `links[i]`. Unused slots hold [`NO_NODE`], so a lookup compares all
    /// four nodes without looking at `len` — four compares the compiler
    /// does at once, where a scan that stops at the hit ends at a
    /// different trip count for every hop of a path and mispredicts.
    nodes: [NodeId; SET_HOPS],
    links: [LinkId; SET_HOPS],
}

// simlint: allow(panic-surface, reason = "evaluated at compile time: a fatter route set fails the build, not a run")
const _: () = assert!(std::mem::size_of::<RouteSet>() == 40);

impl RouteSet {
    /// The slot holding `node`'s hop, if this set has one.
    fn slot_of(&self, node: NodeId) -> Option<usize> {
        let mut hits = 0u32;
        for (i, &n) in self.nodes.iter().enumerate() {
            hits |= u32::from(n == node) << i;
        }
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }
}

/// What a node knows about untagged traffic.
///
/// `BTreeMap`s so that iteration (diagnostics, future dump/export) is in
/// key order and the structure is deterministic across processes —
/// `HashMap`'s per-process seed would make any traversal order a hidden
/// source of nondeterminism (enforced by simlint's `hash-iter` rule).
#[derive(Debug, Clone, Default)]
struct Untagged {
    default_route: BTreeMap<NodeId, LinkId>,
    ecmp: BTreeMap<NodeId, Vec<LinkId>>,
    ecmp_seed: u64,
}

/// The forwarding state of a whole topology (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct RoutingTables {
    /// Per destination: index into `sets` of its first route set.
    head: Vec<u32>,
    sets: Vec<RouteSet>,
    /// Per node, reaching as far as the highest node that has any: `None`
    /// until the node gets a default route, an ECMP group or a seed.
    untagged: Vec<Option<Box<Untagged>>>,
}

impl RoutingTables {
    /// Empty tables for `topo`'s nodes, with room for two tagged routes of
    /// up to [`SET_HOPS`] hops towards every node — a world of two-subflow
    /// connections between hosts — so that installing those never copies
    /// the table (a doubling 640 KB buffer in a 4 000-pair cell moved the
    /// process's peak RSS by 1.1 MB from one heap layout to the next).
    /// More routes grow it.
    pub fn new(topo: &Topology) -> Self {
        RoutingTables {
            head: vec![NIL; topo.node_count()],
            sets: Vec::with_capacity(2 * topo.node_count()),
            untagged: Vec::new(),
        }
    }

    /// Install an exact `(dst, tag)` route at `node`. Later installs
    /// overwrite. A route under [`Tag::NONE`] could never match a packet
    /// ([`RoutingTables::route`] sends untagged traffic to the ECMP and
    /// default tables), so it is not stored.
    pub fn set_tag_route(&mut self, node: NodeId, dst: NodeId, tag: Tag, out: LinkId) {
        if !tag.is_tagged() {
            return;
        }
        // Walk the chain once: the hop to overwrite if there is one, else
        // the first set of this tag with room, else the chain's last link.
        let mut roomy = None;
        let mut last = None;
        let mut at = self.head.get(dst.0 as usize).copied().unwrap_or(NIL);
        while let Some(set) = self.sets.get_mut(at as usize) {
            if set.tag == tag {
                if let Some(link) = set.slot_of(node).and_then(|i| set.links.get_mut(i)) {
                    *link = out;
                    return;
                }
                if roomy.is_none() && usize::from(set.len) < SET_HOPS {
                    roomy = Some(at);
                }
            }
            last = Some(at);
            at = set.next;
        }
        let at = match roomy {
            Some(at) => at,
            None => {
                // simlint: allow(unwrap, reason = "id allocation: 2^32 route sets is out of scope by design, like 2^32 nodes")
                let new = u32::try_from(self.sets.len()).expect("route set index fits u32");
                self.sets.push(RouteSet {
                    tag,
                    len: 0,
                    next: NIL,
                    nodes: [NO_NODE; SET_HOPS],
                    links: [LinkId(0); SET_HOPS],
                });
                match last.and_then(|i| self.sets.get_mut(i as usize)) {
                    Some(set) => set.next = new,
                    None => *slot(&mut self.head, dst, NIL) = new,
                }
                new
            }
        };
        if let Some(set) = self.sets.get_mut(at as usize) {
            let free = usize::from(set.len);
            if let (Some(n), Some(l)) = (set.nodes.get_mut(free), set.links.get_mut(free)) {
                (*n, *l) = (node, out);
                set.len += 1;
            }
        }
    }

    /// `node`'s untagged state, allocated on first use.
    fn untagged_mut(&mut self, node: NodeId) -> &mut Untagged {
        slot(&mut self.untagged, node, None).get_or_insert_with(Box::default)
    }

    fn untagged(&self, node: NodeId) -> Option<&Untagged> {
        self.untagged.get(node.0 as usize)?.as_deref()
    }

    /// Set `node`'s ECMP hash seed (see [`ecmp_select`]). Distinct seeds
    /// per switch model independent hardware hash functions — without them,
    /// every switch in a layered fabric would make correlated choices and
    /// ECMP collisions would be systematically under- or over-counted.
    pub fn set_ecmp_seed(&mut self, node: NodeId, seed: u64) {
        self.untagged_mut(node).ecmp_seed = seed;
    }

    /// `node`'s ECMP hash seed (0 unless set).
    pub fn ecmp_seed(&self, node: NodeId) -> u64 {
        self.untagged(node).map_or(0, |u| u.ecmp_seed)
    }

    /// `node`'s ECMP group towards `dst`, if one is installed.
    pub fn ecmp_group(&self, node: NodeId, dst: NodeId) -> Option<&[LinkId]> {
        self.untagged(node)?.ecmp.get(&dst).map(Vec::as_slice)
    }

    /// Install `node`'s default route towards `dst`.
    pub fn set_default_route(&mut self, node: NodeId, dst: NodeId, out: LinkId) {
        self.untagged_mut(node).default_route.insert(dst, out);
    }

    /// Install `node`'s ECMP group towards `dst` (replaces any previous
    /// group).
    pub fn set_ecmp_group(&mut self, node: NodeId, dst: NodeId, outs: Vec<LinkId>) {
        assert!(!outs.is_empty(), "empty ECMP group");
        self.untagged_mut(node).ecmp.insert(dst, outs);
    }

    /// Route a packet standing at `node`: exact tag route, then ECMP hash,
    /// then default.
    pub fn route(&self, node: NodeId, pkt: &Packet) -> Option<LinkId> {
        if pkt.tag.is_tagged() {
            let mut at = self.head.get(pkt.dst.0 as usize).copied().unwrap_or(NIL);
            while let Some(set) = self.sets.get(at as usize) {
                if set.tag == pkt.tag {
                    if let Some(i) = set.slot_of(node) {
                        return set.links.get(i).copied();
                    }
                }
                at = set.next;
            }
        }
        let untagged = self.untagged(node)?;
        if let Some(group) = untagged.ecmp.get(&pkt.dst) {
            // Deterministic flow hash -> group member. Fibonacci hashing
            // spreads consecutive flow keys across members.
            return group
                .get(ecmp_select(pkt.flow_hash, untagged.ecmp_seed, group.len()))
                .copied();
        }
        untagged.default_route.get(&pkt.dst).copied()
    }

    /// Number of exact tag routes installed at `node`. Diagnostics: scans
    /// every route set.
    pub fn tag_route_count(&self, node: NodeId) -> usize {
        self.sets
            .iter()
            .filter(|set| set.slot_of(node).is_some())
            .count()
    }

    /// Number of route sets in use (40 bytes each): what the tagged routes
    /// of the whole network cost.
    pub fn route_sets(&self) -> usize {
        self.sets.len()
    }

    /// Install tag routes for `path` under `tag`, forward **and** reverse,
    /// so data and ACKs of the tagged subflow use the same physical route.
    pub fn install_path(&mut self, path: &Path, tag: Tag) {
        assert!(tag.is_tagged(), "cannot install a path under Tag::NONE");
        let (src, dst) = (path.src(), path.dst());
        let nodes = path.nodes();
        for ((&from, &to), &link) in nodes.iter().zip(nodes.iter().skip(1)).zip(path.links()) {
            // Forward direction: at `from`, towards dst via `link`.
            self.set_tag_route(from, dst, tag, link);
            // Reverse direction: at `to`, towards src via `link`.
            self.set_tag_route(to, src, tag, link);
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
            let path = shortest_path(topo, n, dst);
            if let Some(&first) = path.as_ref().and_then(|p| p.links().first()) {
                self.set_default_route(n, dst, first);
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

/// `table[node]`, growing the table with `fill` to reach it.
fn slot<T: Clone>(table: &mut Vec<T>, node: NodeId, fill: T) -> &mut T {
    let i = node.0 as usize;
    if i >= table.len() {
        table.resize(i + 1, fill);
    }
    &mut table[i] // simlint: allow(panic-surface, reason = "the resize above made i a valid index")
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
        assert_eq!(rt.route(s, &pkt(d, Tag::NONE, 1)), Some(LinkId(0)));
        // Tagged: pinned route via v -> link 2.
        assert_eq!(rt.route(s, &pkt(d, Tag(7), 1)), Some(LinkId(2)));
        // Unknown tag falls back to default.
        assert_eq!(rt.route(s, &pkt(d, Tag(9), 1)), Some(LinkId(0)));
    }

    #[test]
    fn install_path_covers_reverse_direction() {
        let (t, s, _u, v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        let via_v = Path::from_nodes(&t, &[s, v, d]).unwrap();
        rt.install_path(&via_v, Tag(7));
        // ACK from d back to s with the same tag goes via v (link 3 then 2).
        assert_eq!(rt.route(d, &pkt(s, Tag(7), 1)), Some(LinkId(3)));
        assert_eq!(rt.route(v, &pkt(s, Tag(7), 1)), Some(LinkId(2)));
    }

    #[test]
    fn default_routes_reach_everywhere() {
        let (t, s, u, v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        rt.install_all_default_routes(&t);
        for from in [s, u, v] {
            assert!(
                rt.route(from, &pkt(d, Tag::NONE, 0)).is_some(),
                "{from:?} -> d missing"
            );
        }
        assert!(rt.route(d, &pkt(s, Tag::NONE, 0)).is_some());
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
        assert_eq!(rt.route(a, &pkt(b, Tag::NONE, 0)), None);
    }

    #[test]
    fn ecmp_is_deterministic_per_flow_and_spreads() {
        let (t, s, _u, _v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        rt.set_ecmp_group(s, d, vec![LinkId(0), LinkId(2)]);
        let mut counts = [0usize; 2];
        for flow in 0..100 {
            let l1 = rt.route(s, &pkt(d, Tag::NONE, flow)).unwrap();
            let l2 = rt.route(s, &pkt(d, Tag::NONE, flow)).unwrap();
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
        rt.set_ecmp_group(s, d, vec![LinkId(0), LinkId(2)]);
        rt.set_ecmp_seed(s, 0x1234_5678_9ABC_DEF0);
        assert_eq!(rt.ecmp_seed(s), 0x1234_5678_9ABC_DEF0);
        let mut differs = 0;
        for flow in 0..200u64 {
            let seeded = ecmp_select(flow, 0x1234_5678_9ABC_DEF0, 2);
            let unseeded = ecmp_select(flow, 0, 2);
            if seeded != unseeded {
                differs += 1;
            }
            // The FIB must apply its own seed.
            let routed = rt.route(s, &pkt(d, Tag::NONE, flow)).unwrap();
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
        assert_eq!(rt.tag_route_count(s), 1);
        assert_eq!(rt.tag_route_count(v), 2);
        assert_eq!(rt.tag_route_count(d), 1);
    }

    #[test]
    fn untagged_tag_route_is_not_stored() {
        let gw = NodeId(0);
        let mut rt = RoutingTables::default();
        rt.set_tag_route(gw, NodeId(0), Tag::NONE, LinkId(3));
        assert_eq!(rt.tag_route_count(gw), 0);
        assert_eq!(rt.route_sets(), 0);
        assert_eq!(rt.route(gw, &pkt(NodeId(0), Tag::NONE, 0)), None);
    }

    #[test]
    fn exact_routes_of_a_4000_pair_gateway() {
        // The shape the traffic substrate installs on a gateway: per pair,
        // two tags towards each of two hosts. Every route resolves to its
        // own link through several growth steps.
        let gw = NodeId(0);
        let mut rt = RoutingTables::default();
        let route = |host: u32, tag: u16| LinkId(host * 2 + u32::from(tag));
        for host in 0..8000u32 {
            for tag in [1u16, 2] {
                rt.set_tag_route(gw, NodeId(5 + host), Tag(tag), route(host, tag));
            }
        }
        assert_eq!(rt.tag_route_count(gw), 16_000);
        assert_eq!(rt.route_sets(), 16_000);
        for host in 0..8000u32 {
            for tag in [1u16, 2] {
                let got = rt.route(gw, &pkt(NodeId(5 + host), Tag(tag), 0));
                assert_eq!(got, Some(route(host, tag)));
            }
            assert_eq!(rt.route(gw, &pkt(NodeId(5 + host), Tag(3), 0)), None);
        }
    }

    #[test]
    fn a_second_path_under_one_tag_repoints_only_the_nodes_it_visits() {
        let (t, s, u, v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        let via_u = Path::from_nodes(&t, &[s, u, d]).unwrap();
        let via_v = Path::from_nodes(&t, &[s, v, d]).unwrap();
        rt.install_path(&via_u, Tag(7));
        assert_eq!(rt.route_sets(), 2, "one set per direction");
        rt.install_path(&via_v, Tag(7));
        assert_eq!(rt.route_sets(), 2, "three hops per direction still fit");
        // Shared nodes follow the later install, in both directions ...
        assert_eq!(rt.route(s, &pkt(d, Tag(7), 1)), Some(LinkId(2)));
        assert_eq!(rt.route(d, &pkt(s, Tag(7), 1)), Some(LinkId(3)));
        assert_eq!(rt.route(v, &pkt(d, Tag(7), 1)), Some(LinkId(3)));
        assert_eq!(rt.route(v, &pkt(s, Tag(7), 1)), Some(LinkId(2)));
        // ... and u, which only the first path visits, keeps its routes.
        assert_eq!(rt.route(u, &pkt(d, Tag(7), 1)), Some(LinkId(1)));
        assert_eq!(rt.route(u, &pkt(s, Tag(7), 1)), Some(LinkId(0)));
        for n in [s, u, v, d] {
            let want = if n == u || n == v { 2 } else { 1 };
            assert_eq!(rt.tag_route_count(n), want, "{n:?}");
        }
    }

    #[test]
    fn a_long_path_spills_into_a_second_set() {
        // A seven-node line: six hops per direction, SET_HOPS per set.
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..7).map(|i| t.add_node(format!("n{i}"))).collect();
        for pair in nodes.windows(2) {
            t.add_link(
                pair[0],
                pair[1],
                Bandwidth::from_mbps(10),
                SimDuration::from_millis(1),
                QueueConfig::default(),
            );
        }
        let path = Path::from_nodes(&t, &nodes).unwrap();
        let mut rt = RoutingTables::new(&t);
        rt.install_path(&path, Tag(3));
        assert_eq!(rt.route_sets(), 2 * 6usize.div_ceil(SET_HOPS));
        let (src, dst) = (nodes[0], nodes[6]);
        for (i, &n) in nodes.iter().enumerate() {
            let fwd = (i < 6).then_some(LinkId(i as u32));
            let rev = i.checked_sub(1).map(|l| LinkId(l as u32));
            assert_eq!(rt.route(n, &pkt(dst, Tag(3), 0)), fwd, "{n:?} forward");
            assert_eq!(rt.route(n, &pkt(src, Tag(3), 0)), rev, "{n:?} reverse");
            assert_eq!(rt.route(n, &pkt(dst, Tag(4), 0)), None);
        }
        // Re-installing overwrites in place, spilled hops included.
        rt.install_path(&path, Tag(3));
        assert_eq!(rt.route_sets(), 4);
    }

    proptest::proptest! {
        // The route sets against a `BTreeMap` oracle: random installs (few
        // nodes, destinations and tags, so overwrites are common and a
        // `(dst, tag)` collects more hops than one set holds), then every
        // (node, dst, tag) in range looked up through `route` — a present
        // key answers its latest link, an absent one falls through to the
        // node's ECMP group, then its default route, then nothing.
        #[test]
        fn exact_routes_match_a_btreemap_oracle(
            installs in proptest::collection::vec(
                (0u32..7, 0u32..12, 1u16..4, 0u32..1000),
                0..300,
            ),
            fallback in 0u8..3,
        ) {
            let mut rt = RoutingTables::default();
            let mut oracle = BTreeMap::new();
            for &(node, dst, tag, link) in &installs {
                rt.set_tag_route(NodeId(node), NodeId(dst), Tag(tag), LinkId(link));
                oracle.insert((node, dst, tag), LinkId(link));
                let at_node = oracle.keys().filter(|k| k.0 == node).count();
                proptest::prop_assert_eq!(rt.tag_route_count(NodeId(node)), at_node);
            }
            // No set is wasted: each (dst, tag) fills one before the next.
            let mut per_key = BTreeMap::new();
            for &(_, dst, tag) in oracle.keys() {
                *per_key.entry((dst, tag)).or_insert(0usize) += 1;
            }
            let want_sets: usize = per_key.values().map(|n| n.div_ceil(SET_HOPS)).sum();
            proptest::prop_assert_eq!(rt.route_sets(), want_sets);
            let below = match fallback {
                0 => None,
                1 => Some(LinkId(7001)),
                _ => Some(LinkId(7002)),
            };
            for node in (0..8u32).map(NodeId) {
                for dst in (0..13u32).map(NodeId) {
                    match fallback {
                        1 => rt.set_default_route(node, dst, LinkId(7001)),
                        2 => {
                            // ECMP outranks the default route.
                            rt.set_default_route(node, dst, LinkId(7001));
                            rt.set_ecmp_group(node, dst, vec![LinkId(7002)]);
                        }
                        _ => {}
                    }
                    for tag in 0..5u16 {
                        let want = oracle.get(&(node.0, dst.0, tag)).copied().or(below);
                        proptest::prop_assert_eq!(rt.route(node, &pkt(dst, Tag(tag), 9)), want);
                    }
                }
            }
        }
    }
}
