//! Packet capture — the simulator's "tshark".
//!
//! The paper measures throughput by capturing at the destination with tshark
//! and filtering by tag. [`CaptureConfig`] selects which nodes and which
//! event kinds to record; the simulator hands a [`CaptureRecord`] per
//! matching event to the installed [`CaptureSink`]. `simtrace` provides the
//! streaming sink that hashes, checks and bins the record stream as it is
//! emitted; [`BufferSink`] keeps the records for export and debugging.

use crate::packet::{LinkId, NodeId, PacketMeta};
use simbase::SimTime;
use std::any::Any;

/// What happened to the packet at the capture point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CaptureKind {
    /// A host agent handed the packet to the network.
    Sent,
    /// A node forwarded the packet towards the next hop.
    Forwarded,
    /// The packet reached its destination agent.
    Delivered,
    /// The packet was dropped at a link's output queue.
    Dropped,
    /// The packet arrived at a node with no route and was discarded.
    Unroutable,
}

impl CaptureKind {
    /// This kind's bit in [`CaptureConfig`]'s kind mask.
    const fn bit(self) -> u8 {
        match self {
            CaptureKind::Sent => 1,
            CaptureKind::Forwarded => 1 << 1,
            CaptureKind::Delivered => 1 << 2,
            CaptureKind::Dropped => 1 << 3,
            CaptureKind::Unroutable => 1 << 4,
        }
    }
}

/// One capture record.
#[derive(Debug, Clone)]
pub struct CaptureRecord {
    /// Simulated timestamp of the event.
    pub time: SimTime,
    /// Node where the event occurred.
    pub node: NodeId,
    /// Event kind.
    pub kind: CaptureKind,
    /// Link involved (outgoing for `Forwarded`/`Dropped`, none otherwise).
    pub link: Option<LinkId>,
    /// Packet metadata.
    pub pkt: PacketMeta,
}

/// Where capture records go.
///
/// The simulator hands every record that passes its [`CaptureConfig`] to the
/// one installed sink, exactly once and in the order the run executes
/// events, which is canonical `(time, key)` order. The sink is part
/// of the simulator's deterministic state: [`crate::Simulator::checkpoint`]
/// and [`crate::Simulator::restore`] deep-copy it through
/// [`CaptureSink::clone_sink`]. A sink only observes; nothing it computes
/// feeds back into the run.
///
/// `Any` so the installer can read its results back out of the simulator by
/// concrete type ([`crate::Simulator::sink`], [`crate::Simulator::sink_mut`]).
pub trait CaptureSink: Any {
    /// Consume one record.
    fn record(&mut self, rec: &CaptureRecord);

    /// Deep-copy the sink's accumulated state (checkpoint/restore).
    fn clone_sink(&self) -> Box<dyn CaptureSink>;
}

/// The buffering sink: keeps every record, O(packets) memory. Installed by
/// [`crate::Simulator::set_capture`] for tests, export and debugging;
/// measurement runs install a streaming sink instead.
#[derive(Debug, Clone, Default)]
pub struct BufferSink {
    records: Vec<CaptureRecord>,
}

impl BufferSink {
    /// Records received so far, in emission order.
    pub fn records(&self) -> &[CaptureRecord] {
        &self.records
    }
}

impl CaptureSink for BufferSink {
    fn record(&mut self, rec: &CaptureRecord) {
        self.records.push(rec.clone());
    }

    fn clone_sink(&self) -> Box<dyn CaptureSink> {
        Box::new(self.clone())
    }
}

/// Which events to record.
#[derive(Debug, Clone)]
pub struct CaptureConfig {
    /// Nodes to capture at, as a bitset indexed by `NodeId` (bit `n % 64`
    /// of word `n / 64`); `None` = all nodes. `wants` runs on every send,
    /// hop and delivery, and a many-receiver world filters on thousands of
    /// nodes: one shift and mask, where an ordered set walked a tree.
    nodes: Option<Vec<u64>>,
    /// Kinds to capture, one [`CaptureKind::bit`] each.
    kinds: u8,
    /// Master switch.
    enabled: bool,
}

impl Default for CaptureConfig {
    /// Disabled by default; enabling capture is an explicit choice because
    /// record volume scales with packet volume.
    fn default() -> Self {
        CaptureConfig {
            nodes: None,
            kinds: 0,
            enabled: false,
        }
    }
}

impl CaptureConfig {
    /// Capture nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// The paper's setup: record deliveries at the destination host (plus
    /// drops anywhere, which are cheap and invaluable for debugging).
    pub fn receiver_side(dst: NodeId) -> Self {
        Self::off().and_receiver_side(dst)
    }

    /// Also capture receiver-side at `dst` (many-receiver worlds grow one
    /// configuration a receiver at a time).
    pub fn and_receiver_side(self, dst: NodeId) -> Self {
        self.add_node(dst)
            .add_kind(CaptureKind::Delivered)
            .add_kind(CaptureKind::Dropped)
            .add_kind(CaptureKind::Unroutable)
    }

    /// Record every kind at every node (tests, small runs).
    pub fn everything() -> Self {
        CaptureConfig {
            nodes: None,
            kinds: CaptureKind::Sent.bit()
                | CaptureKind::Forwarded.bit()
                | CaptureKind::Delivered.bit()
                | CaptureKind::Dropped.bit()
                | CaptureKind::Unroutable.bit(),
            enabled: true,
        }
    }

    /// Also capture at `node`. An explicit node set grows by one; the
    /// "all nodes" wildcard is *replaced* by the set `{node}`, so adding a
    /// node to an unrestricted config restricts it to that node.
    pub fn add_node(mut self, node: NodeId) -> Self {
        let set = self.nodes.get_or_insert_with(Vec::new);
        let (word, bit) = (node.0 as usize / 64, node.0 % 64);
        if set.len() <= word {
            set.resize(word + 1, 0);
        }
        if let Some(w) = set.get_mut(word) {
            *w |= 1 << bit;
        }
        self.enabled = true;
        self
    }

    /// Also capture events of `kind`.
    pub fn add_kind(mut self, kind: CaptureKind) -> Self {
        self.kinds |= kind.bit();
        self.enabled = true;
        self
    }

    /// Should an event of `kind` at `node` be recorded?
    ///
    /// `Dropped`/`Unroutable` events are recorded regardless of the node
    /// filter (they occur at interior nodes the receiver-side filter would
    /// exclude, and losing them silently would make debugging miserable).
    pub fn wants(&self, node: NodeId, kind: CaptureKind) -> bool {
        if !self.enabled || self.kinds & kind.bit() == 0 {
            return false;
        }
        if matches!(kind, CaptureKind::Dropped | CaptureKind::Unroutable) {
            return true;
        }
        match &self.nodes {
            None => true,
            Some(set) => set
                .get(node.0 as usize / 64)
                .is_some_and(|w| w >> (node.0 % 64) & 1 == 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default() {
        let c = CaptureConfig::default();
        assert!(!c.wants(NodeId(0), CaptureKind::Delivered));
    }

    #[test]
    fn receiver_side_filters_by_node() {
        let c = CaptureConfig::receiver_side(NodeId(5));
        assert!(c.wants(NodeId(5), CaptureKind::Delivered));
        assert!(!c.wants(NodeId(4), CaptureKind::Delivered));
        assert!(!c.wants(NodeId(5), CaptureKind::Sent));
    }

    #[test]
    fn drops_recorded_anywhere() {
        let c = CaptureConfig::receiver_side(NodeId(5));
        assert!(c.wants(NodeId(2), CaptureKind::Dropped));
        assert!(c.wants(NodeId(0), CaptureKind::Unroutable));
    }

    #[test]
    fn everything_captures_everything() {
        let c = CaptureConfig::everything();
        for kind in [
            CaptureKind::Sent,
            CaptureKind::Forwarded,
            CaptureKind::Delivered,
            CaptureKind::Dropped,
        ] {
            assert!(c.wants(NodeId(9), kind));
        }
    }

    #[test]
    fn node_filter_holds_exactly_the_nodes_added() {
        // Word boundaries, a sparse high id, and ids past the last word.
        let added = [0u32, 63, 64, 127, 4_000, 70_001];
        let c = added
            .iter()
            .fold(CaptureConfig::off().add_kind(CaptureKind::Sent), |c, &n| {
                c.add_node(NodeId(n))
            });
        for n in (0..200).chain(3_990..4_010).chain(69_990..70_200) {
            assert_eq!(
                c.wants(NodeId(n), CaptureKind::Sent),
                added.contains(&n),
                "node {n}"
            );
        }
        assert!(!c.wants(NodeId(u32::MAX), CaptureKind::Sent));
        // The wildcard is replaced by the first node added, not widened.
        let one = CaptureConfig::everything().add_node(NodeId(65));
        assert!(one.wants(NodeId(65), CaptureKind::Forwarded));
        assert!(!one.wants(NodeId(1), CaptureKind::Forwarded));
    }

    #[test]
    fn builders_compose() {
        let c = CaptureConfig::off()
            .add_node(NodeId(1))
            .add_kind(CaptureKind::Sent);
        assert!(c.wants(NodeId(1), CaptureKind::Sent));
        assert!(!c.wants(NodeId(2), CaptureKind::Sent));
        assert!(!c.wants(NodeId(1), CaptureKind::Delivered));
    }
}
