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
use simbase::{Bandwidth, SimDuration};
use std::collections::BTreeMap;
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

/// Static description of one node.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Human-readable name (unique).
    pub name: String,
}

/// An undirected multigraph of nodes and duplex links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    links: Vec<LinkSpec>,
    /// adjacency[n] = (neighbor, link) pairs, in insertion order.
    adj: Vec<Vec<(NodeId, LinkId)>>,
    // BTreeMap: name lookups are deterministic to traverse and Topology
    // stays free of per-process hash seeds (simlint: hash-iter).
    by_name: BTreeMap<String, NodeId>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with a unique name.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate node name {name:?}"
        );
        #[expect(
            clippy::cast_possible_truncation,
            reason = "id allocation: a topology with 2^32 nodes is out of scope by design"
        )]
        let id = NodeId(self.nodes.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nodes.push(NodeInfo { name });
        self.adj.push(Vec::new());
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
        self.adj[a.0 as usize].push((b, id));
        self.adj[b.0 as usize].push((a, id));
        id
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

    /// Node metadata.
    pub fn node(&self, n: NodeId) -> &NodeInfo {
        &self.nodes[n.0 as usize]
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
        self.by_name.get(name).copied()
    }

    /// Neighbors of `n` as `(neighbor, link)` pairs.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[n.0 as usize]
    }

    /// The first link between `a` and `b` (the one created earliest), if
    /// any. Scans the shorter of the two adjacency lists: both are in
    /// link-creation order, so the first link to the other endpoint is the
    /// same link from either end — and a host hanging off a gateway with
    /// thousands of neighbours is found from the host's side.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let (from, to) = if self.neighbors(a).len() <= self.neighbors(b).len() {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(from)
            .iter()
            .find(|(nbr, _)| *nbr == to)
            .map(|(_, l)| *l)
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
                self.node(l.a).name,
                self.node(l.b).name,
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
        assert_eq!(t.node(b).name, "b");
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
        assert_eq!(t.neighbors(a), &[(b, LinkId(0))]);
        assert_eq!(t.neighbors(b), &[(a, LinkId(0)), (c, LinkId(1))]);
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
        assert_eq!(t.neighbors(a).len(), 2);
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
        assert!(t.neighbors(x).len() < t.neighbors(hub).len());
        assert!(t.neighbors(hub).len() < t.neighbors(y).len());
        for (a, b, first) in [(hub, x, hub_x), (hub, y, hub_y)] {
            assert_eq!(t.link_between(a, b), Some(first));
            assert_eq!(t.link_between(b, a), Some(first));
        }
        assert_eq!(t.link_between(x, y), None);
        assert_eq!(t.link_between(y, x), None);
    }

    #[test]
    fn display_lists_links() {
        let (t, ..) = line3();
        let s = format!("{t}");
        assert!(s.contains("3 nodes, 2 links"));
        assert!(s.contains("a -- b"));
    }
}
