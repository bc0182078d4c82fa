//! Packets and their identifiers.
//!
//! A [`Packet`] models one IP datagram and carries only what the network
//! and the endpoints read: id, source, destination, routing tag, protocol,
//! ECN codepoint, the transport header and the length of the data. The
//! header is *really encoded* (see `tcpsim::wire`) into [`Packet::payload`],
//! but bulk application data is represented by a length only — the
//! simulator charges links for [`Packet::wire_size`] bytes while keeping
//! memory flat. This is the standard packet-level simulation compromise
//! (ns-3 does the same with virtual payloads). No packet is hashed: a
//! subflow's path is pinned by its tag.

use crate::payload::Payload;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of a (duplex) link in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// Direction of travel across a duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dir {
    /// From endpoint `a` to endpoint `b` (as given at link creation).
    AtoB,
    /// From endpoint `b` to endpoint `a`.
    BtoA,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::AtoB => Dir::BtoA,
            Dir::BtoA => Dir::AtoB,
        }
    }

    /// Stable small index (0 or 1) for per-direction arrays.
    pub fn index(self) -> usize {
        match self {
            Dir::AtoB => 0,
            Dir::BtoA => 1,
        }
    }
}

/// A routing tag, the paper's path-selection mechanism.
///
/// Tags are short identifiers carried in the packet header; forwarding is
/// deterministic per `(destination, tag)` pair. `Tag::NONE` (0) means
/// untagged traffic, which follows the default route.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Tag(pub u16);

impl Tag {
    /// The untagged value; follows default routes.
    pub const NONE: Tag = Tag(0);

    /// True if this is a real tag (non-zero).
    pub fn is_tagged(self) -> bool {
        self.0 != 0
    }
}

/// ECN codepoint of a packet (RFC 3168, two-bit field collapsed to the
/// three meaningful states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Ecn {
    /// Not ECN-capable transport: congestion is signalled by dropping.
    #[default]
    NotEct,
    /// ECN-capable: queues may mark instead of dropping.
    Ect,
    /// Congestion experienced: a queue marked this packet.
    Ce,
}

/// The transport protocol carried by a packet (drives demultiplexing at the
/// destination agent and pretty-printing in traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// A TCP segment; `payload` holds the encoded header (`tcpsim::wire`).
    Tcp,
    /// An opaque datagram (test traffic, probe packets).
    Raw,
}

/// Overhead charged per packet for the network-layer header, in bytes.
/// (20-byte IPv4-like header; we do not model IP options.)
pub const IP_HEADER_BYTES: u32 = 20;

/// One datagram in flight.
#[derive(Clone)]
pub struct Packet {
    /// Globally unique packet id (assigned by the simulator at send time).
    pub id: u64,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Routing tag (0 = untagged).
    pub tag: Tag,
    /// Transport protocol of the payload.
    pub protocol: Protocol,
    /// Encoded transport header bytes (not the bulk data), at most
    /// [`crate::payload::INLINE_CAP`] of them, in place: cloning a packet
    /// in flight does not allocate.
    pub payload: Payload,
    /// Bytes of *virtual* application data represented by this packet.
    pub data_len: u32,
    /// ECN codepoint.
    pub ecn: Ecn,
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter packet (and packet-slab slot) fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<Packet>() <= 96);

impl Packet {
    /// Total bytes this packet occupies on the wire:
    /// IP-like overhead + encoded transport header + virtual payload.
    pub fn wire_size(&self) -> u32 {
        #[expect(
            clippy::expect_used,
            reason = "a transport header beyond u32::MAX bytes is a stack bug; truncating it would silently shrink serialization times"
        )]
        let header = u32::try_from(self.payload.len()).expect("transport header exceeds u32::MAX");
        IP_HEADER_BYTES + header + self.data_len
    }

    /// Cheap copy of the identifying metadata (for capture records).
    pub fn meta(&self) -> PacketMeta {
        PacketMeta {
            id: self.id,
            src: self.src,
            dst: self.dst,
            tag: self.tag,
            protocol: self.protocol,
            wire_size: self.wire_size(),
            data_len: self.data_len,
            ecn: self.ecn,
        }
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Packet#{}[{:?}->{:?} tag={} {:?} {}B]",
            self.id,
            self.src,
            self.dst,
            self.tag.0,
            self.protocol,
            self.wire_size()
        )
    }
}

/// Identifying metadata of a packet, recorded by capture points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketMeta {
    /// Globally unique packet id.
    pub id: u64,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Routing tag.
    pub tag: Tag,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Total on-wire size in bytes.
    pub wire_size: u32,
    /// Virtual application payload length in bytes.
    pub data_len: u32,
    /// ECN codepoint at capture time.
    pub ecn: Ecn,
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet(payload_len: usize, data_len: u32) -> Packet {
        Packet {
            id: 1,
            src: NodeId(0),
            dst: NodeId(5),
            tag: Tag(3),
            protocol: Protocol::Tcp,
            payload: Payload::from_array([0; crate::payload::INLINE_CAP], payload_len),
            data_len,
            ecn: Ecn::NotEct,
        }
    }

    #[test]
    fn wire_size_accounts_for_all_layers() {
        let p = sample_packet(20, 1460);
        assert_eq!(p.wire_size(), 20 + 20 + 1460);
        let ack = sample_packet(20, 0);
        assert_eq!(ack.wire_size(), 40);
    }

    #[test]
    fn meta_matches_packet() {
        let p = sample_packet(24, 1000);
        let m = p.meta();
        assert_eq!(m.id, p.id);
        assert_eq!(m.wire_size, p.wire_size());
        assert_eq!(m.tag, Tag(3));
        assert_eq!(m.data_len, 1000);
    }

    #[test]
    fn tag_semantics() {
        assert!(!Tag::NONE.is_tagged());
        assert!(Tag(1).is_tagged());
        assert_eq!(Tag::default(), Tag::NONE);
    }

    #[test]
    fn dir_flip_and_index() {
        assert_eq!(Dir::AtoB.flip(), Dir::BtoA);
        assert_eq!(Dir::BtoA.flip(), Dir::AtoB);
        assert_eq!(Dir::AtoB.index(), 0);
        assert_eq!(Dir::BtoA.index(), 1);
    }

    #[test]
    fn debug_formats_are_compact() {
        let p = sample_packet(20, 0);
        let s = format!("{p:?}");
        assert!(s.contains("tag=3"), "{s}");
        assert!(s.contains("40B"), "{s}");
    }
}
