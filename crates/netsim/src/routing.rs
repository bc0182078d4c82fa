//! Forwarding state and route installation.
//!
//! A packet at a node is forwarded by the first of these that matches:
//!
//! 1. **Exact tag route** `(node, destination, tag) → link` — the paper's
//!    tagging mechanism: deterministic, per-tag forwarding.
//! 2. **Default route** `(node, destination) → link` — shortest path, used
//!    by untagged traffic and as a fallback.
//!
//! No packet is hashed: where a generator models ECMP (`worldgen`'s fat
//! tree), it picks a subflow's equal-cost path up front and pins it with a
//! tag like any other path.
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
//! Untagged state stays per node, allocated only for nodes that have any: a
//! traffic cell's 8 000 hosts route by tag alone and own nothing here. A
//! node's default routes are one row of 8-byte [`UntaggedRoute`]s sorted by
//! destination.

use crate::packet::{LinkId, NodeId, Packet, Tag};
use crate::paths::{shortest_path, Path};
use crate::topology::Topology;

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

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter route set fails the build, not a run"
)]
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

/// A node's default route towards one destination.
#[derive(Debug, Clone, Copy)]
struct UntaggedRoute {
    dst: NodeId,
    link: LinkId,
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter entry fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<UntaggedRoute>() == 8);

/// The forwarding state of a whole topology (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct RoutingTables {
    /// Per destination: index into `sets` of its first route set.
    head: Vec<u32>,
    sets: Vec<RouteSet>,
    /// Per node, reaching as far as the highest node that has any: its
    /// untagged routes, sorted by destination.
    untagged: Vec<Vec<UntaggedRoute>>,
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
            ..RoutingTables::default()
        }
    }

    /// Install an exact `(dst, tag)` route at `node`. Later installs
    /// overwrite. A route under [`Tag::NONE`] could never match a packet
    /// ([`RoutingTables::route`] sends untagged traffic to the default
    /// routes), so it is not stored.
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
                #[expect(
                    clippy::expect_used,
                    reason = "id allocation: 2^32 route sets is out of scope by design, like 2^32 nodes"
                )]
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

    /// Install `node`'s default route towards `dst` (replaces any previous).
    pub fn set_default_route(&mut self, node: NodeId, dst: NodeId, out: LinkId) {
        let routes = slot(&mut self.untagged, node, Vec::new());
        let route = UntaggedRoute { dst, link: out };
        match routes.binary_search_by_key(&dst, |r| r.dst) {
            Ok(i) => {
                if let Some(r) = routes.get_mut(i) {
                    *r = route;
                }
            }
            Err(i) => routes.insert(i, route),
        }
    }

    /// Route a packet standing at `node`: exact tag route, then default.
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
        let routes = self.untagged.get(node.0 as usize)?;
        let i = routes.binary_search_by_key(&pkt.dst, |r| r.dst).ok()?;
        routes.get(i).map(|r| r.link)
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

    /// Number of `(node, destination)` default route entries (8 B each).
    pub fn untagged_routes(&self) -> usize {
        self.untagged.iter().map(Vec::len).sum()
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
    #[expect(
        clippy::indexing_slicing,
        reason = "the resize above made i a valid index"
    )]
    &mut table[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Protocol;
    use crate::payload::Payload;
    use crate::queue::QueueConfig;
    use simbase::{Bandwidth, SimDuration};
    use std::collections::BTreeMap;

    fn pkt(dst: NodeId, tag: Tag) -> Packet {
        Packet {
            id: 0,
            src: NodeId(0),
            dst,
            tag,
            protocol: Protocol::Raw,
            payload: Payload::empty(),
            data_len: 0,
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
        assert_eq!(rt.route(s, &pkt(d, Tag::NONE)), Some(LinkId(0)));
        // Tagged: pinned route via v -> link 2.
        assert_eq!(rt.route(s, &pkt(d, Tag(7))), Some(LinkId(2)));
        // Unknown tag falls back to default.
        assert_eq!(rt.route(s, &pkt(d, Tag(9))), Some(LinkId(0)));
    }

    #[test]
    fn install_path_covers_reverse_direction() {
        let (t, s, _u, v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        let via_v = Path::from_nodes(&t, &[s, v, d]).unwrap();
        rt.install_path(&via_v, Tag(7));
        // ACK from d back to s with the same tag goes via v (link 3 then 2).
        assert_eq!(rt.route(d, &pkt(s, Tag(7))), Some(LinkId(3)));
        assert_eq!(rt.route(v, &pkt(s, Tag(7))), Some(LinkId(2)));
    }

    #[test]
    fn default_routes_reach_everywhere() {
        let (t, s, u, v, d) = diamond();
        let mut rt = RoutingTables::new(&t);
        rt.install_all_default_routes(&t);
        for from in [s, u, v] {
            assert!(
                rt.route(from, &pkt(d, Tag::NONE)).is_some(),
                "{from:?} -> d missing"
            );
        }
        assert!(rt.route(d, &pkt(s, Tag::NONE)).is_some());
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
        assert_eq!(rt.route(a, &pkt(b, Tag::NONE)), None);
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
        assert_eq!(rt.route(gw, &pkt(NodeId(0), Tag::NONE)), None);
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
                let got = rt.route(gw, &pkt(NodeId(5 + host), Tag(tag)));
                assert_eq!(got, Some(route(host, tag)));
            }
            assert_eq!(rt.route(gw, &pkt(NodeId(5 + host), Tag(3))), None);
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
        assert_eq!(rt.route(s, &pkt(d, Tag(7))), Some(LinkId(2)));
        assert_eq!(rt.route(d, &pkt(s, Tag(7))), Some(LinkId(3)));
        assert_eq!(rt.route(v, &pkt(d, Tag(7))), Some(LinkId(3)));
        assert_eq!(rt.route(v, &pkt(s, Tag(7))), Some(LinkId(2)));
        // ... and u, which only the first path visits, keeps its routes.
        assert_eq!(rt.route(u, &pkt(d, Tag(7))), Some(LinkId(1)));
        assert_eq!(rt.route(u, &pkt(s, Tag(7))), Some(LinkId(0)));
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
            assert_eq!(rt.route(n, &pkt(dst, Tag(3))), fwd, "{n:?} forward");
            assert_eq!(rt.route(n, &pkt(src, Tag(3))), rev, "{n:?} reverse");
            assert_eq!(rt.route(n, &pkt(dst, Tag(4))), None);
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
        // node's default route, then nothing.
        #[test]
        fn exact_routes_match_a_btreemap_oracle(
            installs in proptest::collection::vec(
                (0u32..7, 0u32..12, 1u16..4, 0u32..1000),
                0..300,
            ),
            fallback in proptest::prelude::any::<bool>(),
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
            let below = fallback.then_some(LinkId(7001));
            for node in (0..8u32).map(NodeId) {
                for dst in (0..13u32).map(NodeId) {
                    if fallback {
                        rt.set_default_route(node, dst, LinkId(7001));
                    }
                    for tag in 0..5u16 {
                        let want = oracle.get(&(node.0, dst.0, tag)).copied().or(below);
                        proptest::prop_assert_eq!(rt.route(node, &pkt(dst, Tag(tag))), want);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        // The default-route rows against a `BTreeMap` oracle: random
        // installs over few nodes and destinations, so overwrites are
        // common; then every (node, dst) looked up through `route` for an
        // untagged packet and a tag miss.
        #[test]
        fn untagged_routes_match_a_btreemap_oracle(
            installs in proptest::collection::vec((0u32..6, 0u32..9, 0u32..1000), 0..200),
        ) {
            let mut rt = RoutingTables::default();
            let mut defaults: BTreeMap<(u32, u32), LinkId> = BTreeMap::new();
            for &(node, dst, link) in &installs {
                rt.set_default_route(NodeId(node), NodeId(dst), LinkId(link));
                defaults.insert((node, dst), LinkId(link));
            }
            proptest::prop_assert_eq!(rt.untagged_routes(), defaults.len());
            for node in 0..7u32 {
                for dst in 0..10u32 {
                    let want = defaults.get(&(node, dst)).copied();
                    for tag in [Tag::NONE, Tag(5)] {
                        let got = rt.route(NodeId(node), &pkt(NodeId(dst), tag));
                        proptest::prop_assert_eq!(got, want);
                    }
                }
            }
        }
    }
}
