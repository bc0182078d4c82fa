//! The one place packets in the network live.
//!
//! A [`Packet`] embeds its inline transport header (104 bytes in all), and a
//! hop used to move it three times: into the output queue, out into the
//! transmitter, into the wire pool. [`PacketSlab`] owns every packet from
//! `Effect::Send` until delivery, drop or unroutable — written once, never
//! moved in between — and everything on the forwarding path (queues, the
//! transmitter, `Arrive` events) carries a four-byte [`PacketHandle`].
//!
//! Slots are recycled through a free list, so steady-state forwarding
//! allocates nothing, and `live()` is exactly the number of packets inside
//! the network: the simulator's conservation check asserts it equals its own
//! in-flight count, so a leaked or double-freed slot fails a run.

use crate::packet::Packet;
use std::num::NonZeroU32;

/// Names one occupied [`PacketSlab`] slot. Non-zero inside, so an
/// `Option<PacketHandle>` (an idle transmitter) costs no extra word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketHandle(NonZeroU32);

impl PacketHandle {
    fn index(self) -> usize {
        self.0.get() as usize - 1
    }

    /// The handle of the last slot of a slab `len` slots long. Overflowing
    /// `u32` would alias two live slots and silently cross-deliver packets,
    /// so it is a hard error, not a saturation.
    fn last_of(len: usize) -> PacketHandle {
        let h = u32::try_from(len)
            .ok()
            .and_then(NonZeroU32::new)
            // simlint: allow(unwrap, reason = "aliasing packet slots corrupts the run; fail loudly at the 2^32 boundary")
            .expect("packet slab exceeded u32::MAX slots");
        PacketHandle(h)
    }
}

/// Slab of the packets currently inside the network.
#[derive(Debug, Clone, Default)]
pub struct PacketSlab {
    /// Grows to the most packets ever in the network at once.
    slots: Vec<Option<Packet>>,
    /// Vacant `slots` indices.
    free: Vec<PacketHandle>,
}

impl PacketSlab {
    /// Store `pkt`; the handle stays valid until [`PacketSlab::take`].
    pub fn insert(&mut self, pkt: Packet) -> PacketHandle {
        if let Some(h) = self.free.pop() {
            if let Some(slot) = self.slots.get_mut(h.index()) {
                *slot = Some(pkt);
                return h;
            }
        }
        self.slots.push(Some(pkt));
        PacketHandle::last_of(self.slots.len())
    }

    /// The packet `h` names.
    pub fn get(&self, h: PacketHandle) -> &Packet {
        self.slots
            .get(h.index())
            .and_then(Option::as_ref)
            // simlint: allow(unwrap, reason = "a handle is held by exactly one queue entry, transmitter or Arrive event, and its slot is vacated only by the take that consumes that holder")
            .expect("packet handle names a vacant slot")
    }

    /// The packet `h` names, mutably (an AQM setting its CE mark).
    pub fn get_mut(&mut self, h: PacketHandle) -> &mut Packet {
        self.slots
            .get_mut(h.index())
            .and_then(Option::as_mut)
            // simlint: allow(unwrap, reason = "a handle is held by exactly one queue entry, transmitter or Arrive event, and its slot is vacated only by the take that consumes that holder")
            .expect("packet handle names a vacant slot")
    }

    /// Move the packet out (delivery) or let it go (drop), vacating the
    /// slot for reuse. `h` is dead afterwards.
    pub fn take(&mut self, h: PacketHandle) -> Packet {
        let pkt = self
            .slots
            .get_mut(h.index())
            .and_then(Option::take)
            // simlint: allow(unwrap, reason = "a handle is held by exactly one queue entry, transmitter or Arrive event, and its slot is vacated only by the take that consumes that holder")
            .expect("packet handle names a vacant slot");
        self.free.push(h);
        pkt
    }

    /// Occupied slots: the packets inside the network right now.
    pub fn live(&self) -> u64 {
        (self.slots.len() - self.free.len()) as u64
    }

    /// Slots ever allocated: the most packets inside the network at once.
    pub fn high_water(&self) -> u64 {
        self.slots.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, NodeId, Protocol, Tag};
    use crate::payload::Payload;

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            src: NodeId(0),
            dst: NodeId(1),
            tag: Tag::NONE,
            protocol: Protocol::Raw,
            payload: Payload::empty(),
            data_len: 100,
            flow_hash: id,
            ecn: Ecn::NotEct,
        }
    }

    #[test]
    fn slots_are_recycled_and_live_counts_what_is_held() {
        let mut slab = PacketSlab::default();
        let a = slab.insert(pkt(1));
        let b = slab.insert(pkt(2));
        assert_eq!((slab.live(), slab.high_water()), (2, 2));
        assert_eq!(slab.get(a).id, 1);
        slab.get_mut(b).ecn = Ecn::Ce;
        assert_eq!(slab.take(a).id, 1);
        assert_eq!((slab.live(), slab.high_water()), (1, 2));
        // The vacated slot is the next one handed out; nothing grows.
        let c = slab.insert(pkt(3));
        assert_eq!(c, a);
        assert_eq!((slab.live(), slab.high_water()), (2, 2));
        assert_eq!(slab.take(b).ecn, Ecn::Ce);
        assert_eq!(slab.take(c).id, 3);
        assert_eq!((slab.live(), slab.high_water()), (0, 2));
    }

    #[test]
    #[should_panic(expected = "packet handle names a vacant slot")]
    fn a_dead_handle_is_a_hard_error() {
        let mut slab = PacketSlab::default();
        let h = slab.insert(pkt(1));
        let _ = slab.take(h);
        let _ = slab.get(h);
    }

    #[test]
    fn handles_are_exact_below_the_boundary() {
        assert_eq!(PacketHandle::last_of(1).index(), 0);
        assert_eq!(PacketHandle::last_of(124).index(), 123);
        let top = PacketHandle::last_of(u32::MAX as usize);
        assert_eq!(top.index(), u32::MAX as usize - 1);
    }

    #[test]
    #[should_panic(expected = "packet slab exceeded u32::MAX slots")]
    fn handle_overflow_is_a_hard_error() {
        let _ = PacketHandle::last_of(u32::MAX as usize + 1);
    }

    #[test]
    fn an_idle_transmitter_costs_no_extra_word() {
        assert_eq!(std::mem::size_of::<Option<PacketHandle>>(), 4);
    }
}
