//! Allocation-free packet payloads.
//!
//! Every simulated packet carries its *really encoded* transport header in
//! [`crate::Packet::payload`]. A TCP header with every option this workspace
//! implements is at most 60 bytes, so the common case fits in a small inline
//! buffer and never touches the heap — the hot path of the simulator copies
//! a few words instead of bumping an `Arc` or allocating. Payloads larger
//! than [`INLINE_CAP`] bytes (only possible for exotic test traffic) fall
//! back to a shared [`Bytes`] buffer transparently.
//!
//! A wire codec that knows its header fits builds it in place: it writes
//! fields into a zeroed `[u8; INLINE_CAP]` and hands the array over with
//! [`Payload::from_array`], without another copy or an allocation.

use bytes::Bytes;
use std::fmt;
use std::ops::Deref;

/// Largest payload stored inline (covers the 60-byte TCP header maximum).
pub const INLINE_CAP: usize = 64;

/// A packet payload: encoded header bytes, inline when they fit.
///
/// Equality and ordering are by content — an inline payload and a heap
/// payload holding the same bytes compare equal. Dereferences to `[u8]`.
#[derive(Clone)]
pub struct Payload(Repr);

#[derive(Clone)]
enum Repr {
    /// Up to [`INLINE_CAP`] bytes stored in place. Invariant: `len as usize
    /// <= INLINE_CAP`, enforced at every construction site.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// Spill-over for payloads that do not fit inline.
    Heap(Bytes),
}

impl Payload {
    /// The empty payload (inline, zero-length).
    pub const fn empty() -> Payload {
        Payload(Repr::Inline {
            len: 0,
            buf: [0; INLINE_CAP],
        })
    }

    /// Copy `s` into a payload: inline when it fits, heap otherwise.
    pub fn from_slice(s: &[u8]) -> Payload {
        match u8::try_from(s.len()) {
            Ok(len) if s.len() <= INLINE_CAP => {
                let mut buf = [0u8; INLINE_CAP];
                if let Some(dst) = buf.get_mut(..s.len()) {
                    dst.copy_from_slice(s);
                }
                Payload(Repr::Inline { len, buf })
            }
            _ => Payload(Repr::Heap(Bytes::copy_from_slice(s))),
        }
    }

    /// The inline payload holding the first `len` bytes of `buf` (a `len`
    /// past [`INLINE_CAP`] is clamped to it). The array is kept as it is:
    /// an encoder that wrote its fields into `buf` hands it over whole.
    #[inline]
    pub fn from_array(buf: [u8; INLINE_CAP], len: usize) -> Payload {
        let len = u8::try_from(len.min(INLINE_CAP)).unwrap_or(u8::MAX);
        Payload(Repr::Inline { len, buf })
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => buf.get(..usize::from(*len)).unwrap_or(&[]),
            Repr::Heap(b) => b,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Heap(b) => b.len(),
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out to a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// True if this payload is stored inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
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

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Payload {
        if b.len() <= INLINE_CAP {
            Payload::from_slice(&b)
        } else {
            Payload(Repr::Heap(b))
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        if v.len() <= INLINE_CAP {
            Payload::from_slice(&v)
        } else {
            Payload(Repr::Heap(Bytes::from(v)))
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        Payload::from_slice(s)
    }
}

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
    fn empty_is_inline_and_zero_length() {
        let p = Payload::empty();
        assert!(p.is_inline());
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.as_slice(), &[] as &[u8]);
        assert_eq!(Payload::default(), p);
    }

    #[test]
    fn small_slices_stay_inline() {
        let data: Vec<u8> = (0..INLINE_CAP as u8).collect();
        let p = Payload::from_slice(&data);
        assert!(p.is_inline());
        assert_eq!(p.len(), INLINE_CAP);
        assert_eq!(p.as_slice(), &data[..]);
        assert_eq!(p.to_vec(), data);
    }

    #[test]
    fn oversized_slices_spill_to_heap() {
        let data = vec![7u8; INLINE_CAP + 1];
        let p = Payload::from_slice(&data);
        assert!(!p.is_inline());
        assert_eq!(p.len(), INLINE_CAP + 1);
        assert_eq!(p.as_slice(), &data[..]);
    }

    #[test]
    fn equality_is_by_content_across_representations() {
        let data = vec![1u8, 2, 3, 4];
        let inline = Payload::from_slice(&data);
        let heap = Payload(Repr::Heap(Bytes::from(data.clone())));
        assert!(inline.is_inline());
        assert!(!heap.is_inline());
        assert_eq!(inline, heap);
        assert_ne!(inline, Payload::empty());
    }

    #[test]
    fn conversions_pick_inline_when_small() {
        assert!(Payload::from(Bytes::from(vec![1, 2, 3])).is_inline());
        assert!(Payload::from(vec![1u8, 2, 3]).is_inline());
        assert!(Payload::from(&[1u8, 2, 3][..]).is_inline());
        assert!(!Payload::from(vec![0u8; 200]).is_inline());
        assert!(!Payload::from(Bytes::from(vec![0u8; 200])).is_inline());
        assert_eq!(Payload::from(vec![1u8, 2, 3]).as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn deref_and_as_ref_expose_bytes() {
        let p = Payload::from_slice(&[9, 8, 7]);
        assert_eq!(&p[..], &[9, 8, 7]);
        assert_eq!(p.as_ref(), &[9, 8, 7]);
        assert_eq!(p.iter().copied().sum::<u8>(), 24);
    }

    #[test]
    fn from_array_keeps_the_prefix_inline() {
        let mut buf = [0u8; INLINE_CAP];
        buf[..3].copy_from_slice(&[7, 0xBE, 0xEF]);
        let p = Payload::from_array(buf, 3);
        assert!(p.is_inline());
        assert_eq!(p.as_slice(), &[7, 0xBE, 0xEF]);
        assert_eq!(p, Payload::from_slice(&[7, 0xBE, 0xEF]));
        let full = Payload::from_array([0xAA; INLINE_CAP], INLINE_CAP);
        assert_eq!(full.as_slice(), &[0xAA; INLINE_CAP]);
        // A length past the array is clamped to it, never read past it.
        let clamped = Payload::from_array([1; INLINE_CAP], INLINE_CAP + 1);
        assert_eq!(clamped.as_slice(), &[1; INLINE_CAP]);
    }

    #[test]
    fn debug_format_is_hex() {
        let p = Payload::from_slice(&[0x01, 0xFF]);
        assert_eq!(format!("{p:?}"), "b\"\\x01\\xff\"");
    }
}
