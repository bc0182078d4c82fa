//! Network topology: nodes and duplex links with capacities, delays and
//! queue configurations.
//!
//! A [`Topology`] is a passive description; the [`crate::sim::Simulator`]
//! instantiates runtime state (queues, busy flags) from it. Keeping the two
//! separate lets one topology be solved by `lpsolve` and simulated by
//! `netsim` with no duplication — the LP ground truth and the packet
//! simulation are guaranteed to describe the same network.

use crate::packet::{LinkId, NodeId};
use crate::queue::QueueConfig;
use simbase::{Bandwidth, Fnv64, SimDuration};
use std::collections::BTreeSet;
use std::fmt;

/// Static description of one duplex link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Capacity, applied independently per direction (full duplex).
    pub capacity: Bandwidth,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Output queue configuration, per direction.
    pub queue: QueueConfig,
    /// Independent per-packet corruption-loss probability (wireless model);
    /// 0 for wired links. Applied after serialization, before propagation.
    pub loss_rate: f64,
}

impl LinkSpec {
    /// Given one endpoint, return the other. Panics if `n` is not an endpoint.
    pub fn other_end(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("{n:?} is not an endpoint of this link");
        }
    }

    /// True if `n` is one of the endpoints.
    pub fn touches(&self, n: NodeId) -> bool {
        n == self.a || n == self.b
    }
}

/// "No link": the end of an adjacency list.
const NO_LINK: u32 = u32::MAX;

/// What a topology keeps per node: no allocation of its own. The name is a
/// range of [`Topology`]'s name arena, and the adjacency list is threaded
/// through the link table.
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    /// End of the node's name in the arena; it starts where the previous
    /// node's ends.
    name_end: u32,
    /// First and last link of the adjacency list (`NO_LINK` when empty).
    first: u32,
    last: u32,
    /// Length of the adjacency list.
    degree: u32,
}

/// An undirected multigraph of nodes and duplex links.
///
/// Nothing is allocated per node: names sit back to back in one arena,
/// each node's adjacency list is linked through the link table in
/// insertion order (a link is on two lists, one per endpoint), and the
/// name index holds a fixed FNV-1a hash of each name, confirmed against
/// the arena on lookup.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeRec>,
    names: String,
    links: Vec<LinkSpec>,
    /// `next[l]`: the link after `l` on its `a` end's list and on its `b`
    /// end's list (`NO_LINK` at the end).
    next: Vec<[u32; 2]>,
    // A B-tree of (hash, node): lookups are deterministic to traverse and
    // Topology stays free of per-process hash seeds; a hash collision only
    // costs a second name comparison.
    by_name: BTreeSet<(u64, NodeId)>,
}

/// The name index's key: FNV-1a of the name's bytes, the same in every
/// process.
fn name_key(name: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(name.as_bytes());
    h.finish()
}

/// Which of `spec`'s two adjacency threads belongs to `n`.
fn end_of(spec: &LinkSpec, n: NodeId) -> usize {
    usize::from(spec.a != n)
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with a unique name.
    pub fn add_node(&mut self, name: impl AsRef<str>) -> NodeId {
        let name = name.as_ref();
        assert!(
            self.node_by_name(name).is_none(),
            "duplicate node name {name:?}"
        );
        #[expect(
            clippy::cast_possible_truncation,
            reason = "id allocation: a topology with 2^32 nodes is out of scope by design"
        )]
        let id = NodeId(self.nodes.len() as u32);
        self.names.push_str(name);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "arena offsets: 4 GiB of node names is out of scope by design"
        )]
        let name_end = self.names.len() as u32;
        self.by_name.insert((name_key(name), id));
        self.nodes.push(NodeRec {
            name_end,
            first: NO_LINK,
            last: NO_LINK,
            degree: 0,
        });
        id
    }

    /// Add a duplex link between two distinct nodes.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: Bandwidth,
        delay: SimDuration,
        queue: QueueConfig,
    ) -> LinkId {
        assert!(a != b, "self-loop links are not allowed");
        assert!((a.0 as usize) < self.nodes.len(), "unknown node {a:?}");
        assert!((b.0 as usize) < self.nodes.len(), "unknown node {b:?}");
        assert!(capacity.as_bps() > 0, "zero-capacity link");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "id allocation: a topology with 2^32 links is out of scope by design"
        )]
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec {
            a,
            b,
            capacity,
            delay,
            queue,
            loss_rate: 0.0,
        });
        self.next.push([NO_LINK; 2]);
        for n in [a, b] {
            let rec = self.rec_mut(n);
            let last = std::mem::replace(&mut rec.last, id.0);
            rec.degree += 1;
            if last == NO_LINK {
                rec.first = id.0;
            } else {
                let end = end_of(self.link(LinkId(last)), n);
                if let Some(next) = self.next.get_mut(last as usize) {
                    next[end] = id.0;
                }
            }
        }
        id
    }

    fn rec(&self, n: NodeId) -> &NodeRec {
        #[expect(
            clippy::indexing_slicing,
            reason = "NodeId is topology-issued: an unknown one is a caller bug"
        )]
        &self.nodes[n.0 as usize]
    }

    fn rec_mut(&mut self, n: NodeId) -> &mut NodeRec {
        #[expect(
            clippy::indexing_slicing,
            reason = "NodeId is topology-issued: an unknown one is a caller bug"
        )]
        &mut self.nodes[n.0 as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids, in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "node ids were allocated as u32, so the count fits"
        )]
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All link ids, in creation order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "link ids were allocated as u32, so the count fits"
        )]
        (0..self.links.len() as u32).map(LinkId)
    }

    /// A node's name (unique in the topology).
    pub fn node_name(&self, n: NodeId) -> &str {
        let start = match n.0.checked_sub(1) {
            Some(prev) => self.rec(NodeId(prev)).name_end,
            None => 0,
        };
        // Byte offsets `add_node` took from the arena: in order, at char
        // boundaries.
        &self.names[start as usize..self.rec(n).name_end as usize]
    }

    /// Link metadata.
    pub fn link(&self, l: LinkId) -> &LinkSpec {
        &self.links[l.0 as usize]
    }

    /// Give a link an independent per-packet loss probability (both
    /// directions) — the standard first-order model of a wireless hop.
    /// `1.0` is allowed: a fully lossy (blackholed) link.
    pub fn set_link_loss(&mut self, l: LinkId, loss_rate: f64) {
        assert!((0.0..=1.0).contains(&loss_rate), "loss rate in [0, 1]");
        self.links[l.0 as usize].loss_rate = loss_rate;
    }

    /// Change a link's capacity (both directions). Used by the fault layer
    /// to model mid-run renegotiation; transmissions already serializing
    /// keep the timing they started with.
    pub fn set_link_capacity(&mut self, l: LinkId, capacity: Bandwidth) {
        assert!(capacity.as_bps() > 0, "zero-capacity link");
        self.links[l.0 as usize].capacity = capacity;
    }

    /// Change a link's one-way propagation delay (both directions).
    pub fn set_link_delay(&mut self, l: LinkId, delay: SimDuration) {
        self.links[l.0 as usize].delay = delay;
    }

    /// Look a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        let key = name_key(name);
        self.by_name
            .range((key, NodeId(0))..=(key, NodeId(u32::MAX)))
            .map(|&(_, n)| n)
            .find(|&n| self.node_name(n) == name)
    }

    /// Neighbors of `n` as `(neighbor, link)` pairs, in link-creation
    /// order.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        let mut at = self.rec(n).first;
        std::iter::from_fn(move || {
            if at == NO_LINK {
                return None;
            }
            let l = LinkId(at);
            let spec = self.link(l);
            at = self
                .next
                .get(at as usize)
                .map_or(NO_LINK, |next| next[end_of(spec, n)]);
            Some((spec.other_end(n), l))
        })
    }

    /// Number of links at `n` (parallel links each count).
    fn degree(&self, n: NodeId) -> usize {
        self.rec(n).degree as usize
    }

    /// The first link between `a` and `b` (the one created earliest), if
    /// any. Scans the shorter of the two adjacency lists: both are in
    /// link-creation order, so the first link to the other endpoint is the
    /// same link from either end — and a host hanging off a gateway with
    /// thousands of neighbours is found from the host's side.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let (from, to) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(from)
            .find(|&(nbr, _)| nbr == to)
            .map(|(_, l)| l)
    }

    /// Sum of one-way delays along a sequence of links.
    pub fn path_delay(&self, links: &[LinkId]) -> SimDuration {
        links
            .iter()
            .fold(SimDuration::ZERO, |acc, &l| acc + self.link(l).delay)
    }

    /// The minimum capacity along a sequence of links (a path's raw
    /// bottleneck, ignoring sharing).
    pub fn path_capacity(&self, links: &[LinkId]) -> Bandwidth {
        links
            .iter()
            .map(|&l| self.link(l).capacity)
            .min()
            .unwrap_or(Bandwidth::ZERO)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Topology: {} nodes, {} links",
            self.node_count(),
            self.link_count()
        )?;
        for (i, l) in self.links.iter().enumerate() {
            writeln!(
                f,
                "  l{}: {} -- {}  {} delay={} queue={:?}",
                i,
                self.node_name(l.a),
                self.node_name(l.b),
                l.capacity,
                l.delay,
                l.queue,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_link(
            a,
            b,
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(1),
            QueueConfig::default(),
        );
        t.add_link(
            b,
            c,
            Bandwidth::from_mbps(20),
            SimDuration::from_millis(2),
            QueueConfig::default(),
        );
        (t, a, b, c)
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let (t, a, b, c) = line3();
        assert_eq!(a, NodeId(0));
        assert_eq!(b, NodeId(1));
        assert_eq!(c, NodeId(2));
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.node_name(b), "b");
    }

    #[test]
    fn lookup_by_name() {
        let (t, a, ..) = line3();
        assert_eq!(t.node_by_name("a"), Some(a));
        assert_eq!(t.node_by_name("zz"), None);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (t, a, b, c) = line3();
        let nbrs = |n| t.neighbors(n).collect::<Vec<_>>();
        assert_eq!(nbrs(a), [(b, LinkId(0))]);
        assert_eq!(nbrs(b), [(a, LinkId(0)), (c, LinkId(1))]);
        assert_eq!(nbrs(c), [(b, LinkId(1))]);
        assert_eq!((t.degree(a), t.degree(b), t.degree(c)), (1, 2, 1));
        assert_eq!(t.link_between(a, b), Some(LinkId(0)));
        assert_eq!(t.link_between(b, a), Some(LinkId(0)));
        assert_eq!(t.link_between(a, c), None);
    }

    #[test]
    fn other_end_works() {
        let (t, a, b, _) = line3();
        let l = t.link(LinkId(0));
        assert_eq!(l.other_end(a), b);
        assert_eq!(l.other_end(b), a);
        assert!(l.touches(a));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_end_panics_for_stranger() {
        let (t, _, _, c) = line3();
        let _ = t.link(LinkId(0)).other_end(c);
    }

    #[test]
    fn path_delay_and_capacity() {
        let (t, ..) = line3();
        let links = [LinkId(0), LinkId(1)];
        assert_eq!(t.path_delay(&links), SimDuration::from_millis(3));
        assert_eq!(t.path_capacity(&links), Bandwidth::from_mbps(10));
        assert_eq!(t.path_capacity(&[]), Bandwidth::ZERO);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.add_node("x");
        t.add_node("x");
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        t.add_link(
            a,
            a,
            Bandwidth::from_mbps(1),
            SimDuration::ZERO,
            QueueConfig::default(),
        );
    }

    #[test]
    fn link_loss_rate_is_settable() {
        let (mut t, ..) = line3();
        assert_eq!(t.link(LinkId(0)).loss_rate, 0.0);
        t.set_link_loss(LinkId(0), 0.02);
        assert_eq!(t.link(LinkId(0)).loss_rate, 0.02);
    }

    #[test]
    fn fully_lossy_link_is_allowed() {
        // The documented range is [0, 1]: a blackholed link is a legal
        // (if hostile) configuration, not a programming error.
        let (mut t, ..) = line3();
        t.set_link_loss(LinkId(0), 1.0);
        assert_eq!(t.link(LinkId(0)).loss_rate, 1.0);
        t.set_link_loss(LinkId(0), 0.0);
        assert_eq!(t.link(LinkId(0)).loss_rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "loss rate in [0, 1]")]
    fn invalid_loss_rate_rejected() {
        let (mut t, ..) = line3();
        t.set_link_loss(LinkId(0), 1.5);
    }

    #[test]
    fn parallel_links_are_allowed() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l1 = t.add_link(
            a,
            b,
            Bandwidth::from_mbps(1),
            SimDuration::ZERO,
            QueueConfig::default(),
        );
        let l2 = t.add_link(
            a,
            b,
            Bandwidth::from_mbps(2),
            SimDuration::ZERO,
            QueueConfig::default(),
        );
        assert_ne!(l1, l2);
        assert_eq!(t.neighbors(a).collect::<Vec<_>>(), [(b, l1), (b, l2)]);
        assert_eq!(t.degree(b), 2);
    }

    #[test]
    fn link_between_is_the_earliest_link_from_either_end() {
        // Two pairs of parallel links on a multigraph, each pair's second
        // link created after unrelated ones: hub -- x, where x's list is
        // the shorter one, and hub -- y, where hub's is.
        let mut t = Topology::new();
        let hub = t.add_node("hub");
        let x = t.add_node("x");
        let y = t.add_node("y");
        let link = |t: &mut Topology, a, b| {
            t.add_link(
                a,
                b,
                Bandwidth::from_mbps(1),
                SimDuration::ZERO,
                QueueConfig::default(),
            )
        };
        let hub_y = link(&mut t, y, hub);
        let hub_x = link(&mut t, hub, x);
        for i in 0..8 {
            let leaf = t.add_node(format!("leaf{i}"));
            link(&mut t, if i < 2 { hub } else { y }, leaf);
        }
        assert_ne!(link(&mut t, x, hub), hub_x);
        assert_ne!(link(&mut t, hub, y), hub_y);
        assert!(t.degree(x) < t.degree(hub));
        assert!(t.degree(hub) < t.degree(y));
        // Each list is in creation order, whichever end a link was added
        // from.
        let hub_links: Vec<LinkId> = t.neighbors(hub).map(|(_, l)| l).collect();
        assert!(hub_links.windows(2).all(|w| w[0] < w[1]), "{hub_links:?}");
        assert_eq!(hub_links.len(), t.degree(hub));
        for (a, b, first) in [(hub, x, hub_x), (hub, y, hub_y)] {
            assert_eq!(t.link_between(a, b), Some(first));
            assert_eq!(t.link_between(b, a), Some(first));
        }
        assert_eq!(t.link_between(x, y), None);
        assert_eq!(t.link_between(y, x), None);
    }

    #[test]
    fn names_share_one_arena_and_resolve_by_hash() {
        let mut t = Topology::new();
        let names = ["s", "v1", "", "gw-0", "host-3999", "ü"];
        let ids: Vec<NodeId> = names.iter().map(|n| t.add_node(n)).collect();
        for (n, &id) in names.iter().zip(&ids) {
            assert_eq!(t.node_name(id), *n);
            assert_eq!(t.node_by_name(n), Some(id));
        }
        assert_eq!(t.node_by_name("v"), None);
        assert_eq!(t.node_by_name("gw-00"), None);
        // A clone answers the same.
        let c = t.clone();
        assert_eq!(c.node_name(ids[4]), "host-3999");
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn a_duplicate_name_later_in_a_big_topology_is_rejected() {
        let mut t = Topology::new();
        for i in 0..1000 {
            t.add_node(format!("h{i}"));
        }
        t.add_node("h517");
    }

    #[test]
    fn display_lists_links() {
        let (t, ..) = line3();
        let s = format!("{t}");
        assert!(s.contains("3 nodes, 2 links"));
        assert!(s.contains("a -- b"));
    }
}
