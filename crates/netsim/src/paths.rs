//! Paths through a topology and overlap analysis.
//!
//! The paper's core object is a *set of partially overlapping paths*: the
//! pairwise shared links become coupling constraints on per-path throughput.
//! [`Path`] is a validated node/link walk, built by hand from nodes or links
//! (every experiment picks its paths; nothing here enumerates them);
//! [`shortest_path`] is the delay-shortest walk default routes follow; and
//! [`SharingAnalysis`] extracts exactly which links are shared by which
//! subsets of paths — the input to `lpsolve`'s constraint generation.

use crate::packet::{LinkId, NodeId};
use crate::topology::Topology;
use simbase::{Bandwidth, SimDuration};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

/// A simple (loop-free) walk from a source to a destination.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

/// Errors constructing a [`Path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// Fewer than two nodes.
    TooShort,
    /// Two consecutive nodes have no connecting link.
    NoLink(NodeId, NodeId),
    /// A node repeats (the walk is not simple).
    NotSimple(NodeId),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::TooShort => write!(f, "path needs at least two nodes"),
            PathError::NoLink(a, b) => write!(f, "no link between {a:?} and {b:?}"),
            PathError::NotSimple(n) => write!(f, "node {n:?} repeats"),
        }
    }
}

impl std::error::Error for PathError {}

impl Path {
    /// Build a path from a node sequence, resolving links via the topology.
    /// Uses the first link between each consecutive pair.
    pub fn from_nodes(topo: &Topology, nodes: &[NodeId]) -> Result<Path, PathError> {
        if nodes.len() < 2 {
            return Err(PathError::TooShort);
        }
        let mut seen = BTreeSet::new();
        for &n in nodes {
            if !seen.insert(n) {
                return Err(PathError::NotSimple(n));
            }
        }
        let mut links = Vec::with_capacity(nodes.len() - 1);
        for w in nodes.windows(2) {
            let l = topo
                .link_between(w[0], w[1])
                .ok_or(PathError::NoLink(w[0], w[1]))?;
            links.push(l);
        }
        Ok(Path {
            nodes: nodes.to_vec(),
            links,
        })
    }

    /// Build from explicit links (for multigraphs where `from_nodes` would
    /// pick the wrong parallel link).
    pub fn from_links(topo: &Topology, src: NodeId, links: &[LinkId]) -> Result<Path, PathError> {
        if links.is_empty() {
            return Err(PathError::TooShort);
        }
        let mut nodes = vec![src];
        let mut cur = src;
        for &l in links {
            let spec = topo.link(l);
            if !spec.touches(cur) {
                return Err(PathError::NoLink(cur, spec.a));
            }
            cur = spec.other_end(cur);
            nodes.push(cur);
        }
        let mut seen = BTreeSet::new();
        for &n in &nodes {
            if !seen.insert(n) {
                return Err(PathError::NotSimple(n));
            }
        }
        Ok(Path {
            nodes,
            links: links.to_vec(),
        })
    }

    /// Source node.
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        // A Path always has >= 2 nodes (enforced by both constructors).
        self.nodes[self.nodes.len() - 1]
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The link sequence.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Number of hops (links).
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Sum of one-way link delays.
    pub fn one_way_delay(&self, topo: &Topology) -> SimDuration {
        topo.path_delay(&self.links)
    }

    /// Minimum link capacity along the path (ignores sharing).
    pub fn raw_capacity(&self, topo: &Topology) -> Bandwidth {
        topo.path_capacity(&self.links)
    }

    /// Links present in both paths, in this path's order.
    pub fn shared_links(&self, other: &Path) -> Vec<LinkId> {
        let other_set: BTreeSet<LinkId> = other.links.iter().copied().collect();
        self.links
            .iter()
            .copied()
            .filter(|l| other_set.contains(l))
            .collect()
    }

    /// True if the two paths have no link in common.
    pub fn is_link_disjoint(&self, other: &Path) -> bool {
        self.shared_links(other).is_empty()
    }

    /// Render as `a -> b -> c` using topology names.
    pub fn display(&self, topo: &Topology) -> String {
        self.nodes
            .iter()
            .map(|&n| topo.node_name(n))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Dijkstra shortest path by cumulative delay, with deterministic
/// tie-breaking (lower node id wins). Returns `None` if unreachable.
pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
    #[derive(PartialEq, Eq)]
    struct Entry(u64, NodeId); // (dist_ns, node), min-heap via Reverse ordering
    impl Ord for Entry {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            o.0.cmp(&self.0).then_with(|| o.1.cmp(&self.1))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }

    let n = topo.node_count();
    let mut dist = vec![u64::MAX; n];
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.0 as usize] = 0;
    heap.push(Entry(0, src));

    while let Some(Entry(d, u)) = heap.pop() {
        if d > dist[u.0 as usize] {
            continue;
        }
        if u == dst {
            break;
        }
        for (v, link) in topo.neighbors(u) {
            // Cost: delay in ns, +1 so zero-delay links still count a hop
            // (keeps Dijkstra's tie-breaking meaningful on uniform graphs).
            let w = topo.link(link).delay.as_nanos().saturating_add(1);
            let nd = d.saturating_add(w);
            if nd < dist[v.0 as usize] {
                dist[v.0 as usize] = nd;
                prev[v.0 as usize] = Some((u, link));
                heap.push(Entry(nd, v));
            }
        }
    }

    if dist[dst.0 as usize] == u64::MAX {
        return None;
    }
    let mut nodes = vec![dst];
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        // dist[dst] < MAX guarantees an unbroken prev chain back to src;
        // bail out rather than panic if that invariant is ever violated.
        let (p, l) = prev[cur.0 as usize]?;
        nodes.push(p);
        links.push(l);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    Some(Path { nodes, links })
}

/// Which links are shared by which paths: the structural core of the paper.
#[derive(Debug, Clone)]
pub struct SharingAnalysis {
    /// For every link used by ≥1 path: the (sorted) indices of paths using it.
    pub link_users: Vec<(LinkId, Vec<usize>)>,
}

impl SharingAnalysis {
    /// Analyse a path set.
    pub fn new(paths: &[Path]) -> Self {
        // BTreeMap so `into_iter` yields links in id order with no
        // post-sort; path indices are pushed in increasing order already.
        let mut map: BTreeMap<LinkId, Vec<usize>> = BTreeMap::new();
        for (i, p) in paths.iter().enumerate() {
            for &l in p.links() {
                map.entry(l).or_default().push(i);
            }
        }
        let link_users: Vec<(LinkId, Vec<usize>)> = map.into_iter().collect();
        SharingAnalysis { link_users }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueConfig;

    /// A diamond: s -> {u, v} -> d, plus a direct long link s -> d.
    fn diamond() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let u = t.add_node("u");
        let v = t.add_node("v");
        let d = t.add_node("d");
        let ms = SimDuration::from_millis;
        let bw = Bandwidth::from_mbps;
        t.add_link(s, u, bw(10), ms(1), QueueConfig::default());
        t.add_link(u, d, bw(10), ms(1), QueueConfig::default());
        t.add_link(s, v, bw(20), ms(2), QueueConfig::default());
        t.add_link(v, d, bw(20), ms(2), QueueConfig::default());
        t.add_link(s, d, bw(5), ms(10), QueueConfig::default());
        (t, s, d)
    }

    #[test]
    fn from_nodes_resolves_links() {
        let (t, s, d) = diamond();
        let u = t.node_by_name("u").unwrap();
        let p = Path::from_nodes(&t, &[s, u, d]).unwrap();
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.src(), s);
        assert_eq!(p.dst(), d);
        assert_eq!(p.one_way_delay(&t), SimDuration::from_millis(2));
        assert_eq!(p.raw_capacity(&t), Bandwidth::from_mbps(10));
        assert_eq!(p.display(&t), "s -> u -> d");
    }

    #[test]
    fn from_nodes_rejects_bad_walks() {
        let (t, s, _d) = diamond();
        let u = t.node_by_name("u").unwrap();
        let v = t.node_by_name("v").unwrap();
        assert_eq!(Path::from_nodes(&t, &[s]), Err(PathError::TooShort));
        assert_eq!(Path::from_nodes(&t, &[u, v]), Err(PathError::NoLink(u, v)));
        assert_eq!(
            Path::from_nodes(&t, &[s, u, s]),
            Err(PathError::NotSimple(s))
        );
    }

    #[test]
    fn from_links_walks_correctly() {
        let (t, s, d) = diamond();
        let p = Path::from_links(&t, s, &[LinkId(0), LinkId(1)]).unwrap();
        assert_eq!(p.dst(), d);
        assert_eq!(p.nodes().len(), 3);
        assert!(Path::from_links(&t, s, &[LinkId(1)]).is_err()); // u-d doesn't touch s
    }

    #[test]
    fn shortest_path_picks_min_delay() {
        let (t, s, d) = diamond();
        let p = shortest_path(&t, s, d).unwrap();
        assert_eq!(p.display(&t), "s -> u -> d"); // 2ms beats 4ms and 10ms
    }

    #[test]
    fn shortest_path_unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        assert!(shortest_path(&t, a, b).is_none());
    }

    #[test]
    fn sharing_analysis_disjoint_paths() {
        let (t, s, d) = diamond();
        let u = t.node_by_name("u").unwrap();
        let v = t.node_by_name("v").unwrap();
        let ps = [
            Path::from_nodes(&t, &[s, u, d]).unwrap(),
            Path::from_nodes(&t, &[s, v, d]).unwrap(),
        ];
        let an = SharingAnalysis::new(&ps);
        assert!(an.link_users.iter().all(|(_, users)| users.len() == 1));
        assert!(ps[0].is_link_disjoint(&ps[1]));
    }

    #[test]
    fn sharing_analysis_overlapping_paths() {
        // s - m shared by both paths; then m->a->d and m->b->d.
        let mut t = Topology::new();
        let s = t.add_node("s");
        let m = t.add_node("m");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("d");
        let bw = Bandwidth::from_mbps;
        let ms = SimDuration::from_millis;
        let shared = t.add_link(s, m, bw(40), ms(1), QueueConfig::default());
        t.add_link(m, a, bw(100), ms(1), QueueConfig::default());
        t.add_link(a, d, bw(100), ms(1), QueueConfig::default());
        t.add_link(m, b, bw(100), ms(1), QueueConfig::default());
        t.add_link(b, d, bw(100), ms(1), QueueConfig::default());
        let p1 = Path::from_nodes(&t, &[s, m, a, d]).unwrap();
        let p2 = Path::from_nodes(&t, &[s, m, b, d]).unwrap();
        assert_eq!(p1.shared_links(&p2), vec![shared]);

        let an = SharingAnalysis::new(&[p1, p2]);
        assert_eq!(an.link_users[0], (shared, vec![0, 1]));
        assert_eq!(an.link_users.len(), 5);
    }
}
