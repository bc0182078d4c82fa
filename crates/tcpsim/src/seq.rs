//! TCP sequence-number arithmetic.
//!
//! Wire sequence numbers are 32-bit and wrap; comparing them naively breaks
//! after 4 GiB of transfer. [`SeqNum`] implements RFC 1982-style serial
//! arithmetic. Internally the sender and receiver track *absolute* 64-bit
//! stream offsets and convert at the wire boundary ([`SeqNum::from_offset`]
//! / [`SeqNum::expand`]), which is how production stacks avoid wraparound
//! bugs in their bookkeeping.

use std::fmt;

/// A 32-bit wrapping TCP sequence number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(pub u32);

/// The initial sequence number of every subflow. The sender numbers its
/// stream from it and the receiver places segments against it, so one
/// constant keeps the two ends from disagreeing.
pub const ISN: SeqNum = SeqNum(1);

impl SeqNum {
    /// Add a byte count, wrapping.
    pub fn wrapping_add(self, n: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(n))
    }

    /// Subtract a byte count, wrapping.
    pub fn wrapping_sub(self, n: u32) -> SeqNum {
        SeqNum(self.0.wrapping_sub(n))
    }

    /// Signed distance `self - other` in serial arithmetic
    /// (positive if `self` is logically after `other`).
    pub fn distance(self, other: SeqNum) -> i32 {
        self.0.wrapping_sub(other.0).cast_signed()
    }

    /// Serial "less than": true if `self` is logically before `other`.
    pub fn lt(self, other: SeqNum) -> bool {
        self.distance(other) < 0
    }

    /// Serial "less than or equal".
    pub fn le(self, other: SeqNum) -> bool {
        self.distance(other) <= 0
    }

    /// Map an absolute stream offset to a wire sequence number, given the
    /// connection's initial sequence number.
    pub fn from_offset(isn: SeqNum, offset: u64) -> SeqNum {
        // Offsets map onto the 32-bit wire space modulo 2^32 by design;
        // the mask makes the conversion total.
        let low = u32::try_from(offset & u64::from(u32::MAX)).unwrap_or(u32::MAX);
        SeqNum(isn.0.wrapping_add(low))
    }

    /// Recover the absolute stream offset of this wire number: the offset
    /// within ±2^31 of `near` that maps onto it (a live connection's window
    /// is far smaller than 2 GiB, so that is the one the peer meant).
    /// `None` when that offset would lie before the start of the stream —
    /// a number no peer that started at `isn` can have sent, which only
    /// wild wire input produces; callers drop such a segment.
    pub fn expand(self, isn: SeqNum, near: u64) -> Option<u64> {
        let near_wire = SeqNum::from_offset(isn, near);
        let delta = self.distance(near_wire) as i64;
        near.checked_add_signed(delta)
    }
}

impl fmt::Debug for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq{}", self.0)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_add_sub() {
        let s = SeqNum(u32::MAX - 1);
        assert_eq!(s.wrapping_add(3), SeqNum(1));
        assert_eq!(SeqNum(1).wrapping_sub(3), SeqNum(u32::MAX - 1));
    }

    #[test]
    fn serial_comparison_across_wrap() {
        let before = SeqNum(u32::MAX - 10);
        let after = SeqNum(5); // 16 bytes later, wrapped
        assert!(before.lt(after));
        assert!(!after.lt(before));
        assert!(before.le(after));
        assert!(before.le(before));
        assert_eq!(after.distance(before), 16);
        assert_eq!(before.distance(after), -16);
    }

    #[test]
    fn offset_roundtrip_without_wrap() {
        let isn = SeqNum(1000);
        for off in [0u64, 1, 1460, 123_456] {
            let wire = SeqNum::from_offset(isn, off);
            assert_eq!(wire.expand(isn, off), Some(off));
            // Works as long as the hint is within 2 GiB.
            assert_eq!(wire.expand(isn, off.saturating_sub(10_000)), Some(off));
        }
    }

    #[test]
    fn offset_roundtrip_across_4gib() {
        let isn = SeqNum(0xDEAD_BEEF);
        // Stream offsets beyond 4 GiB wrap the wire number but expand fine.
        let off = (1u64 << 32) + 777;
        let wire = SeqNum::from_offset(isn, off);
        assert_eq!(wire.expand(isn, off - 1000), Some(off));
        assert_eq!(wire.expand(isn, off + 1000), Some(off));
    }

    #[test]
    fn expand_handles_slightly_stale_hints() {
        let isn = SeqNum(42);
        let off = 10_000u64;
        let wire = SeqNum::from_offset(isn, off);
        // An ACK for offset 10_000 arriving when snd_una is anywhere nearby.
        for near in [9_000u64, 10_000, 11_000] {
            assert_eq!(wire.expand(isn, near), Some(off));
        }
    }

    #[test]
    fn expand_is_total() {
        // A wire number "before" the ISN, offered while the stream is still
        // near its start, names an offset below zero: no such byte exists.
        let isn = SeqNum(1000);
        assert_eq!(SeqNum(999).expand(isn, 0), None);
        assert_eq!(SeqNum(1000).wrapping_sub(1 << 31).expand(isn, 0), None);
        assert_eq!(SeqNum(0).expand(isn, 500), None);
        // The same numbers are fine once the stream has advanced past them.
        assert_eq!(SeqNum(999).expand(isn, 1 << 32), Some((1 << 32) - 1));
        // And nothing overflows at the far end either.
        for wire in [0, 1, u32::MAX / 2, u32::MAX] {
            let _ = SeqNum(wire).expand(isn, u64::MAX);
            let _ = SeqNum(wire).expand(isn, u64::MAX - (1 << 31));
        }
    }
}
