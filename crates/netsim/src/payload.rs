//! Allocation-free packet payloads.
//!
//! Every simulated packet carries its *really encoded* transport header in
//! [`crate::Packet::payload`]. A TCP header with every option this workspace
//! implements is at most 60 bytes, so a payload is one inline array of
//! [`INLINE_CAP`] bytes and a length: it never touches the heap, and the hot
//! path of the simulator copies a few words instead of bumping an `Arc` or
//! allocating. Nothing larger can be built.
//!
//! A wire codec builds its header in place: it writes fields into a zeroed
//! `[u8; INLINE_CAP]` and hands the array over with [`Payload::from_array`],
//! without another copy.

use std::fmt;
use std::ops::Deref;

/// Largest payload a packet carries (covers the 60-byte TCP header maximum).
pub const INLINE_CAP: usize = 64;

/// A packet payload: up to [`INLINE_CAP`] encoded header bytes, stored in
/// place.
///
/// Equality is by content: the bytes past `len` are not part of the value.
/// Dereferences to `[u8]`.
#[derive(Clone)]
pub struct Payload {
    /// Invariant: `len as usize <= INLINE_CAP`, enforced at every
    /// construction site.
    len: u8,
    buf: [u8; INLINE_CAP],
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a payload with a second representation fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<Payload>() == INLINE_CAP + 1);

impl Payload {
    /// The empty payload.
    pub const fn empty() -> Payload {
        Payload {
            len: 0,
            buf: [0; INLINE_CAP],
        }
    }

    /// A copy of `s`, or `None` if it is longer than [`INLINE_CAP`].
    pub fn from_slice(s: &[u8]) -> Option<Payload> {
        let mut buf = [0u8; INLINE_CAP];
        buf.get_mut(..s.len())?.copy_from_slice(s);
        Some(Payload::from_array(buf, s.len()))
    }

    /// The payload holding the first `len` bytes of `buf` (a `len` past
    /// [`INLINE_CAP`] is clamped to it). The array is kept as it is: an
    /// encoder that wrote its fields into `buf` hands it over whole.
    #[inline]
    pub fn from_array(buf: [u8; INLINE_CAP], len: usize) -> Payload {
        let len = u8::try_from(len.min(INLINE_CAP)).unwrap_or(u8::MAX);
        Payload { len, buf }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.buf.get(..usize::from(self.len)).unwrap_or(&[])
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy out to a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::empty()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero_length() {
        let p = Payload::empty();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.as_slice(), &[] as &[u8]);
        assert_eq!(Payload::default(), p);
    }

    #[test]
    fn slices_up_to_the_cap_are_copied_and_longer_ones_refused() {
        let data: Vec<u8> = (0..INLINE_CAP as u8).collect();
        let p = Payload::from_slice(&data).unwrap();
        assert_eq!(p.len(), INLINE_CAP);
        assert_eq!(p.as_slice(), &data[..]);
        assert_eq!(p.to_vec(), data);
        assert!(Payload::from_slice(&[7u8; INLINE_CAP + 1]).is_none());
    }

    #[test]
    fn equality_is_by_content() {
        let a = Payload::from_array([1; INLINE_CAP], 4);
        let b = Payload::from_slice(&[1, 1, 1, 1]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, Payload::empty());
    }

    #[test]
    fn deref_and_as_ref_expose_bytes() {
        let p = Payload::from_slice(&[9, 8, 7]).unwrap();
        assert_eq!(&p[..], &[9, 8, 7]);
        assert_eq!(p.as_ref(), &[9, 8, 7]);
        assert_eq!(p.iter().copied().sum::<u8>(), 24);
    }

    #[test]
    fn from_array_keeps_the_prefix() {
        let mut buf = [0u8; INLINE_CAP];
        buf[..3].copy_from_slice(&[7, 0xBE, 0xEF]);
        let p = Payload::from_array(buf, 3);
        assert_eq!(p.as_slice(), &[7, 0xBE, 0xEF]);
        assert_eq!(p, Payload::from_slice(&[7, 0xBE, 0xEF]).unwrap());
        let full = Payload::from_array([0xAA; INLINE_CAP], INLINE_CAP);
        assert_eq!(full.as_slice(), &[0xAA; INLINE_CAP]);
        // A length past the array is clamped to it, never read past it.
        let clamped = Payload::from_array([1; INLINE_CAP], INLINE_CAP + 1);
        assert_eq!(clamped.as_slice(), &[1; INLINE_CAP]);
    }

    #[test]
    fn debug_format_is_hex() {
        let p = Payload::from_slice(&[0x01, 0xFF]).unwrap();
        assert_eq!(format!("{p:?}"), "b\"\\x01\\xff\"");
    }
}
