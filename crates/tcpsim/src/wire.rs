//! TCP segment wire format.
//!
//! Segments are genuinely encoded to and decoded from bytes — the simulator
//! carries the encoded header in `netsim::Packet::payload` and charges the
//! link for header + virtual payload. Implemented options:
//!
//! * **Timestamps** (RFC 7323): `tsval`/`tsecr`, used for RTT sampling with
//!   Karn-safe measurements.
//! * **SACK** (RFC 2018): up to three blocks, newest first on the wire.
//! * **DSS** — a compact MPTCP Data Sequence Signal carrying a 64-bit data
//!   sequence number, 64-bit data ACK, subflow-relative start and length
//!   (modelled on RFC 8684 §3.3, with fixed-width fields for simplicity;
//!   the semantics MPTCP needs are identical).
//!
//! Bulk payload bytes are *not* materialised: the virtual payload length
//! travels in `netsim::Packet::data_len` (like the IP total-length field).
//!
//! The codec works at fixed offsets. [`TcpSegment::encode`] writes each
//! field once, big-endian, into one zeroed `[u8; INLINE_CAP]` that becomes
//! the inline payload. [`TcpSegment::decode`] checks the length and data
//! offset, reads the 20-byte fixed header through one array pattern, then
//! splits each option off the front of the option region by its fixed size.
//! Options go on the wire in the order TS, SACK, DSS, padded with
//! `OPT_END` zeros to a 4-byte boundary. No subflow opens, closes or
//! resets, so no segment carries SYN, FIN, RST or an MSS option: the flags
//! are ACK, ECE and CWR at their RFC 793 / RFC 3168 positions, the decoder
//! ignores the other bits, and an MSS option is an unknown kind.

use crate::seq::SeqNum;
use netsim::{Payload, INLINE_CAP};
use simbase::SimTime;
use std::fmt;
use std::ops::Deref;

/// The TCP header flags a segment carries (no connection ever opens,
/// closes or resets, so no SYN, FIN or RST).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// ECN-Echo (RFC 3168): the receiver saw a CE mark.
    pub ece: bool,
    /// Congestion Window Reduced: the sender has reacted to ECE.
    pub cwr: bool,
}

impl TcpFlags {
    /// A plain ACK.
    pub const ACK: TcpFlags = TcpFlags {
        ack: true,
        ece: false,
        cwr: false,
    };

    fn to_byte(self) -> u8 {
        u8::from(self.ack) << 1 | u8::from(self.ece) << 4 | u8::from(self.cwr) << 5
    }

    /// The flags of a header's flag byte; the SYN, FIN and RST bits (and
    /// the two above CWR) are ignored.
    fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            ack: b & 2 != 0,
            ece: b & 16 != 0,
            cwr: b & 32 != 0,
        }
    }
}

/// RFC 7323 timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timestamps {
    /// Sender's clock at transmit (we use simulated microseconds, truncated).
    pub tsval: u32,
    /// Echo of the peer's most recent `tsval`.
    pub tsecr: u32,
}

impl Timestamps {
    /// The wire TS value for `now`: simulated microseconds modulo 2^32
    /// (timestamps wrap by design, RFC 7323 §5.4; the mask makes the
    /// conversion total).
    pub fn tsval_at(now: SimTime) -> u32 {
        u32::try_from((now.as_nanos() / 1_000) & u64::from(u32::MAX)).unwrap_or(u32::MAX)
    }
}

/// A SACK block: a received range `[left, right)` above the cumulative ACK.
pub type SackBlock = (SeqNum, SeqNum);

/// Fixed capacity of a [`SackList`]: one more slot than [`MAX_SACK_BLOCKS`]
/// so an over-full list reaches [`TcpSegment::encode`]'s limit check (or
/// [`TcpSegment::trim_sack_to_fit`]) instead of being silently truncated at
/// construction. Beyond this, [`SackList::push`] evicts oldest-first.
pub const SACK_CAP: usize = MAX_SACK_BLOCKS + 1;

/// An inline, allocation-free list of SACK blocks.
///
/// Replaces `Vec<SackBlock>` in [`TcpSegment`]: segments are built and
/// cloned for every packet, and SACK-carrying ACKs dominate reverse-path
/// traffic, so keeping the blocks inline removes a heap allocation per ACK.
/// Equality is by content; iteration is in insertion order. Dereferences to
/// `[SackBlock]`.
#[derive(Clone, Copy)]
pub struct SackList {
    blocks: [SackBlock; SACK_CAP],
    len: u8,
}

impl SackList {
    /// An empty list.
    pub const fn new() -> SackList {
        SackList {
            blocks: [(SeqNum(0), SeqNum(0)); SACK_CAP],
            len: 0,
        }
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True if no blocks are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The blocks as a slice.
    pub fn as_slice(&self) -> &[SackBlock] {
        self.blocks.get(..usize::from(self.len)).unwrap_or(&[])
    }

    /// Append a block. Blocks are stored in insertion (chronological)
    /// order, oldest first. On overflow the *oldest* block is evicted:
    /// RFC 2018 §4 wants the most recently received block reported, so a
    /// full list forgets history, never the newest information.
    /// (Regression: this used to drop the incoming block instead, so a
    /// fourth loss event's hole was never SACKed.)
    pub fn push(&mut self, block: SackBlock) {
        if usize::from(self.len) == SACK_CAP {
            self.blocks.copy_within(1.., 0);
            self.len -= 1;
        }
        if let Some(slot) = self.blocks.get_mut(usize::from(self.len)) {
            *slot = block;
            self.len += 1;
        }
    }

    /// Remove and return the oldest block (the first inserted). Used when
    /// option space runs out: the newest blocks carry the information the
    /// sender does not have yet.
    pub fn pop_oldest(&mut self) -> Option<SackBlock> {
        if self.len == 0 {
            return None;
        }
        let oldest = self.blocks.first().copied();
        self.blocks.copy_within(1.., 0);
        self.len -= 1;
        oldest
    }

    /// Drop all blocks.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Iterate over the blocks in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, SackBlock> {
        self.as_slice().iter()
    }
}

impl Default for SackList {
    fn default() -> SackList {
        SackList::new()
    }
}

impl Deref for SackList {
    type Target = [SackBlock];
    fn deref(&self) -> &[SackBlock] {
        self.as_slice()
    }
}

impl PartialEq for SackList {
    fn eq(&self, other: &SackList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SackList {}

impl fmt::Debug for SackList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a SackList {
    type Item = &'a SackBlock;
    type IntoIter = std::slice::Iter<'a, SackBlock>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<SackBlock> for SackList {
    fn from_iter<I: IntoIterator<Item = SackBlock>>(it: I) -> SackList {
        let mut list = SackList::new();
        for block in it {
            list.push(block);
        }
        list
    }
}

impl From<Vec<SackBlock>> for SackList {
    fn from(v: Vec<SackBlock>) -> SackList {
        v.into_iter().collect()
    }
}

/// MPTCP Data Sequence Signal (fixed-width variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DssOption {
    /// Connection-level data ACK (next expected DSN), if present.
    pub data_ack: Option<u64>,
    /// Mapping: connection-level sequence of the first payload byte.
    pub dsn: Option<u64>,
    /// Mapping: subflow-relative stream offset the mapping starts at.
    pub subflow_seq: u32,
    /// Mapping: length in bytes.
    pub data_len: u16,
}

/// The window field is carried with a fixed scale factor (RFC 7323 window
/// scaling with shift 7, negotiated implicitly), so the advertised window
/// has 128-byte granularity and an 8 MiB ceiling — ample for the paper's
/// bandwidth-delay products.
pub const WINDOW_SHIFT: u32 = 7;

/// A TCP segment (header only; payload is virtual).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port (identifies the subflow under `ndiffports`).
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: SeqNum,
    /// Acknowledgement number (valid when `flags.ack`).
    pub ack: SeqNum,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes. Encoded with [`WINDOW_SHIFT`]
    /// granularity; values round down to a multiple of 128 on the wire,
    /// except that a non-zero window below one granule rounds *up* to 128
    /// (a live window must never be advertised as closed).
    pub window: u32,
    /// Timestamps option.
    pub ts: Option<Timestamps>,
    /// SACK blocks (RFC 2018), at most [`MAX_SACK_BLOCKS`]; stored inline.
    pub sack: SackList,
    /// MPTCP DSS option.
    pub dss: Option<DssOption>,
}

/// Maximum SACK blocks per segment (3 when timestamps are in use,
/// RFC 2018 §3 option-space arithmetic).
pub const MAX_SACK_BLOCKS: usize = 3;

impl Default for TcpSegment {
    fn default() -> Self {
        TcpSegment {
            src_port: 0,
            dst_port: 0,
            seq: SeqNum(0),
            ack: SeqNum(0),
            flags: TcpFlags::default(),
            window: 0,
            ts: None,
            sack: SackList::new(),
            dss: None,
        }
    }
}

/// Option kind bytes (private wire constants).
const OPT_END: u8 = 0;
const OPT_TS: u8 = 8;
const OPT_SACK: u8 = 5;
const OPT_DSS: u8 = 30; // MPTCP option kind

/// The fixed header: ports, seq, ack, data offset, flags, window, checksum,
/// urgent pointer.
const FIXED_LEN: usize = 20;
/// The data-offset field counts 4-byte words in 4 bits: 15 words at most.
const MAX_HEADER_LEN: usize = 60;
/// Option lengths (the option's own length byte, kind and length included).
const TS_LEN: u8 = 10;
const SACK_BASE_LEN: usize = 2;
const SACK_BLOCK_LEN: usize = 8;
/// DSS: kind, length, flags, then the data ACK and the mapping if flagged.
const DSS_BASE_LEN: usize = 3;
const DSS_ACK_LEN: usize = 8;
const DSS_MAP_LEN: usize = 14;
/// DSS flag bits.
const DSS_HAS_ACK: u8 = 1;
const DSS_HAS_MAP: u8 = 2;

/// Errors decoding a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// data_offset field inconsistent with the buffer.
    BadDataOffset,
    /// An option ran past the header end or had a bad length.
    BadOption(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "segment truncated"),
            WireError::BadDataOffset => write!(f, "bad data offset"),
            WireError::BadOption(k) => write!(f, "malformed option kind {k}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Narrow a small length (bounded below 256 by the caller's protocol
/// arithmetic) to the byte the wire format stores it in. Saturates instead
/// of truncating if the caller's bound is ever violated.
fn len_byte(v: usize) -> u8 {
    debug_assert!(v <= usize::from(u8::MAX), "length {v} does not fit a byte");
    u8::try_from(v).unwrap_or(u8::MAX)
}

impl DssOption {
    /// Option length on the wire: kind, length, flags, then the data ACK
    /// and the mapping when present.
    fn wire_len(&self) -> usize {
        DSS_BASE_LEN
            + self.data_ack.map_or(0, |_| DSS_ACK_LEN)
            + self.dsn.map_or(0, |_| DSS_MAP_LEN)
    }
}

impl TcpSegment {
    /// Encode the header (with options, padded to a 4-byte boundary).
    ///
    /// The result is always an inline [`Payload`]: the data-offset field
    /// caps a TCP header at 60 bytes, under [`netsim::INLINE_CAP`], so
    /// encoding never allocates. Every field is written once, into the
    /// array the payload keeps.
    pub fn encode(&self) -> Payload {
        assert!(self.sack.len() <= MAX_SACK_BLOCKS, "too many SACK blocks");
        let len = self.header_len();
        assert!(len <= MAX_HEADER_LEN, "options too long");
        // A live (non-zero) window must never encode as zero: rounding
        // 1..128 bytes down to 0 granules would advertise a closed window,
        // and a sender with no persist timer parks forever. Clamp up to one
        // granule instead — over-advertising by at most 127 bytes.
        let scaled = (self.window >> WINDOW_SHIFT).min(u32::from(u16::MAX));
        let window_wire = if self.window > 0 && scaled == 0 {
            1
        } else {
            u16::try_from(scaled).unwrap_or(u16::MAX)
        };
        // Zeroed, so the `OPT_END` padding after the last option needs no
        // writes.
        let mut buf = [0u8; INLINE_CAP];
        // `put` copies a field to the front of what is left and moves past
        // it. `len` was checked above, so the split never fails; if it
        // did, the write would be dropped, not wrapped.
        let mut out = buf.as_mut_slice();
        let mut put = |field: &[u8]| {
            if let Some((head, rest)) = std::mem::take(&mut out).split_at_mut_checked(field.len()) {
                head.copy_from_slice(field);
                out = rest;
            }
        };
        put(&self.src_port.to_be_bytes());
        put(&self.dst_port.to_be_bytes());
        put(&self.seq.0.to_be_bytes());
        put(&self.ack.0.to_be_bytes());
        put(&[len_byte(len / 4) << 4, self.flags.to_byte()]);
        put(&window_wire.to_be_bytes());
        // Checksum (links are error-free in the model), urgent pointer
        // (unused).
        put(&[0; 4]);
        if let Some(ts) = &self.ts {
            put(&[OPT_TS, TS_LEN]);
            put(&ts.tsval.to_be_bytes());
            put(&ts.tsecr.to_be_bytes());
        }
        if !self.sack.is_empty() {
            let sack_len = SACK_BASE_LEN + SACK_BLOCK_LEN * self.sack.len();
            put(&[OPT_SACK, len_byte(sack_len)]);
            // RFC 2018 §4: the first block reports the most recently
            // received range. The list stores chronological (oldest-first)
            // order, so the wire emits it in reverse.
            for (l, r) in self.sack.iter().rev() {
                put(&l.0.to_be_bytes());
                put(&r.0.to_be_bytes());
            }
        }
        if let Some(dss) = &self.dss {
            let has_ack = dss.data_ack.map_or(0, |_| DSS_HAS_ACK);
            let has_map = dss.dsn.map_or(0, |_| DSS_HAS_MAP);
            put(&[OPT_DSS, len_byte(dss.wire_len()), has_ack | has_map]);
            if let Some(da) = dss.data_ack {
                put(&da.to_be_bytes());
            }
            if let Some(dsn) = dss.dsn {
                put(&dsn.to_be_bytes());
                put(&dss.subflow_seq.to_be_bytes());
                put(&dss.data_len.to_be_bytes());
            }
        }
        Payload::from_array(buf, len)
    }

    /// Decode a header previously produced by [`TcpSegment::encode`].
    ///
    /// Total: every input is a segment or a [`WireError`]. A repeated
    /// option replaces the earlier one, and an `OPT_END` ends the options.
    pub fn decode(buf: &[u8]) -> Result<TcpSegment, WireError> {
        let Some(
            &[sp0, sp1, dp0, dp1, sq0, sq1, sq2, sq3, ak0, ak1, ak2, ak3, offset, flags, w0, w1, ..],
        ) = buf.first_chunk::<FIXED_LEN>()
        else {
            return Err(WireError::Truncated);
        };
        let header_len = usize::from(offset >> 4) * 4;
        // `None` both below the fixed header and past the buffer's end.
        let Some(mut opts) = buf.get(FIXED_LEN..header_len) else {
            return Err(WireError::BadDataOffset);
        };
        let mut seg = TcpSegment {
            src_port: u16::from_be_bytes([sp0, sp1]),
            dst_port: u16::from_be_bytes([dp0, dp1]),
            seq: SeqNum(u32::from_be_bytes([sq0, sq1, sq2, sq3])),
            ack: SeqNum(u32::from_be_bytes([ak0, ak1, ak2, ak3])),
            flags: TcpFlags::from_byte(flags),
            window: u32::from(u16::from_be_bytes([w0, w1])) << WINDOW_SHIFT,
            ts: None,
            sack: SackList::new(),
            dss: None,
        };
        while let Some((&kind, rest)) = opts.split_first() {
            if kind == OPT_END {
                break;
            }
            opts = seg
                .decode_option(kind, rest)
                .ok_or(WireError::BadOption(kind))?;
        }
        Ok(seg)
    }

    /// Read the body of one `kind` option off the front of `opts` into
    /// `self` and return what follows it; `None` if the option is malformed
    /// or of an unknown kind.
    fn decode_option<'a>(&mut self, kind: u8, opts: &'a [u8]) -> Option<&'a [u8]> {
        match kind {
            OPT_TS => {
                let (&[TS_LEN], rest) = opts.split_first_chunk()? else {
                    return None;
                };
                let (tsval, rest) = rest.split_first_chunk()?;
                let (tsecr, rest) = rest.split_first_chunk()?;
                self.ts = Some(Timestamps {
                    tsval: u32::from_be_bytes(*tsval),
                    tsecr: u32::from_be_bytes(*tsecr),
                });
                Some(rest)
            }
            OPT_SACK => {
                let (&len, rest) = opts.split_first()?;
                let body = usize::from(len).checked_sub(SACK_BASE_LEN)?;
                let (mut blocks, rest) = rest.split_at_checked(body)?;
                if !body.is_multiple_of(SACK_BLOCK_LEN) || body > MAX_SACK_BLOCKS * SACK_BLOCK_LEN {
                    return None;
                }
                // A repeated SACK option replaces the earlier one (same
                // last-wins rule as TS/DSS) and keeps the inline list
                // within capacity on adversarial inputs.
                self.sack.clear();
                // The wire carries blocks newest-first (RFC 2018 §4);
                // reading from the back restores the list's chronological
                // order, so a decode mirrors the segment that was encoded.
                while let Some((front, &[l0, l1, l2, l3, r0, r1, r2, r3])) =
                    blocks.split_last_chunk::<SACK_BLOCK_LEN>()
                {
                    self.sack.push((
                        SeqNum(u32::from_be_bytes([l0, l1, l2, l3])),
                        SeqNum(u32::from_be_bytes([r0, r1, r2, r3])),
                    ));
                    blocks = front;
                }
                Some(rest)
            }
            OPT_DSS => {
                let (&[len, flags], mut rest) = opts.split_first_chunk()?;
                let has_ack = flags & DSS_HAS_ACK != 0;
                let has_map = flags & DSS_HAS_MAP != 0;
                let need =
                    if has_ack { DSS_ACK_LEN } else { 0 } + if has_map { DSS_MAP_LEN } else { 0 };
                if usize::from(len) != DSS_BASE_LEN + need {
                    return None;
                }
                let mut dss = DssOption {
                    data_ack: None,
                    dsn: None,
                    subflow_seq: 0,
                    data_len: 0,
                };
                if has_ack {
                    let (data_ack, tail) = rest.split_first_chunk()?;
                    dss.data_ack = Some(u64::from_be_bytes(*data_ack));
                    rest = tail;
                }
                if has_map {
                    let (dsn, tail) = rest.split_first_chunk()?;
                    let (subflow_seq, tail) = tail.split_first_chunk()?;
                    let (data_len, tail) = tail.split_first_chunk()?;
                    dss.dsn = Some(u64::from_be_bytes(*dsn));
                    dss.subflow_seq = u32::from_be_bytes(*subflow_seq);
                    dss.data_len = u16::from_be_bytes(*data_len);
                    rest = tail;
                }
                self.dss = Some(dss);
                Some(rest)
            }
            _ => None,
        }
    }

    /// Drop the *oldest* SACK blocks until the header fits the TCP
    /// data-offset limit (60 bytes). Real stacks do the same arithmetic
    /// when timestamps/MPTCP options compete for the 40 bytes of option
    /// space (RFC 2018 §3): the first (most recent) blocks survive.
    pub fn trim_sack_to_fit(&mut self) {
        while self.header_len() > MAX_HEADER_LEN && !self.sack.is_empty() {
            self.sack.pop_oldest();
        }
    }

    /// Header length on the wire (what `encode().len()` will be).
    pub fn header_len(&self) -> usize {
        let mut opts = 0usize;
        if self.ts.is_some() {
            opts += usize::from(TS_LEN);
        }
        if !self.sack.is_empty() {
            opts += SACK_BASE_LEN + SACK_BLOCK_LEN * self.sack.len();
        }
        if let Some(dss) = &self.dss {
            opts += dss.wire_len();
        }
        FIXED_LEN + opts.div_ceil(4) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The codec this one replaced, byte-at-a-time: the differential
    /// oracle for the properties below.
    pub(super) mod reference;

    /// Segments covering every option and mix, with a distinct value in
    /// every field so a swapped or misplaced field changes the bytes.
    fn golden_segments() -> Vec<(&'static str, TcpSegment)> {
        let base = TcpSegment {
            src_port: 5001,
            dst_port: 80,
            seq: SeqNum(0x0102_0304),
            ack: SeqNum(0xA1B2_C3D4),
            flags: TcpFlags::ACK,
            window: 65536,
            ..Default::default()
        };
        let ts = Some(Timestamps {
            tsval: 0xDEAD_BEEF,
            tsecr: 0x0506_0708,
        });
        let sack = |k: u32| -> SackList {
            (0..k)
                .map(|i| {
                    (
                        SeqNum(0x1000_0000 + 0x100 * i),
                        SeqNum(0x1000_0080 + 0x100 * i),
                    )
                })
                .collect()
        };
        let data_ack = Some(0x1122_3344_5566_7788);
        let map = |data_ack| DssOption {
            data_ack,
            dsn: Some(0x99AA_BBCC_DDEE_FF00),
            subflow_seq: 0x0BAD_F00D,
            data_len: 1448,
        };
        let mut full_mix = TcpSegment {
            flags: TcpFlags {
                ece: true,
                cwr: true,
                ..TcpFlags::ACK
            },
            ts,
            sack: sack(3),
            dss: Some(DssOption {
                data_ack,
                dsn: None,
                subflow_seq: 0,
                data_len: 0,
            }),
            ..base.clone()
        };
        full_mix.trim_sack_to_fit();
        vec![
            ("bare", base.clone()),
            (
                "ts",
                TcpSegment {
                    flags: TcpFlags {
                        ece: true,
                        ..TcpFlags::ACK
                    },
                    ts,
                    ..base.clone()
                },
            ),
            (
                "sack_1",
                TcpSegment {
                    ts,
                    sack: sack(1),
                    ..base.clone()
                },
            ),
            (
                "sack_2",
                TcpSegment {
                    ts,
                    sack: sack(2),
                    ..base.clone()
                },
            ),
            (
                "sack_3",
                TcpSegment {
                    ts,
                    sack: sack(3),
                    ..base.clone()
                },
            ),
            (
                "dss_ack_only",
                TcpSegment {
                    dss: Some(DssOption {
                        data_ack,
                        dsn: None,
                        subflow_seq: 0,
                        data_len: 0,
                    }),
                    ..base.clone()
                },
            ),
            (
                "dss_map_only",
                TcpSegment {
                    dss: Some(map(None)),
                    ..base.clone()
                },
            ),
            (
                "dss_full",
                TcpSegment {
                    ts,
                    dss: Some(map(data_ack)),
                    ..base.clone()
                },
            ),
            ("trimmed_full_mix", full_mix),
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// What the byte-at-a-time encoder this codec replaced produced for
    /// [`golden_segments`]. Trace hashes see a packet's `wire_size`, never
    /// its header's contents, so these pin the layout field by field.
    const GOLDEN_HEX: [(&str, &str); 9] = [
        ("bare", "1389005001020304a1b2c3d45002020000000000"),
        (
            "ts",
            "1389005001020304a1b2c3d48012020000000000080adeadbeef050607080000",
        ),
        (
            "sack_1",
            "1389005001020304a1b2c3d4a002020000000000080adeadbeef05060708050a1000000010000080",
        ),
        (
            "sack_2",
            "1389005001020304a1b2c3d4c002020000000000080adeadbeef0506070805121000010010000180\
             1000000010000080",
        ),
        (
            "sack_3",
            "1389005001020304a1b2c3d4e002020000000000080adeadbeef05060708051a1000020010000280\
             10000100100001801000000010000080",
        ),
        (
            "dss_ack_only",
            "1389005001020304a1b2c3d480020200000000001e0b01112233445566778800",
        ),
        (
            "dss_map_only",
            "1389005001020304a1b2c3d4a0020200000000001e110299aabbccddeeff000badf00d05a8000000",
        ),
        (
            "dss_full",
            "1389005001020304a1b2c3d4e002020000000000080adeadbeef050607081e190311223344556677\
             8899aabbccddeeff000badf00d05a800",
        ),
        (
            "trimmed_full_mix",
            "1389005001020304a1b2c3d4f032020000000000080adeadbeef0506070805121000020010000280\
             10000100100001801e0b01112233445566778800",
        ),
    ];

    #[test]
    fn encodings_match_golden_bytes() {
        let segments = golden_segments();
        assert_eq!(segments.len(), GOLDEN_HEX.len());
        for ((name, seg), (golden_name, golden)) in segments.iter().zip(GOLDEN_HEX) {
            assert_eq!(*name, golden_name);
            let bytes = seg.encode();
            assert_eq!(hex(&bytes), golden, "{name}");
            assert_eq!(bytes.len(), seg.header_len(), "{name}");
            let back = TcpSegment::decode(&bytes).expect(name);
            assert_eq!(back.encode(), bytes, "{name}: decode, then encode");
        }
    }

    fn roundtrip(seg: &TcpSegment) -> TcpSegment {
        let bytes = seg.encode();
        assert_eq!(
            bytes.len(),
            seg.header_len(),
            "header_len must predict encoding"
        );
        TcpSegment::decode(&bytes).expect("decode")
    }

    #[test]
    fn bare_header_roundtrips() {
        let seg = TcpSegment {
            src_port: 5001,
            dst_port: 80,
            seq: SeqNum(12345),
            ack: SeqNum(67890),
            flags: TcpFlags::ACK,
            window: 65536,
            ..Default::default()
        };
        assert_eq!(roundtrip(&seg), seg);
        assert_eq!(seg.encode().len(), 20);
    }

    #[test]
    fn window_granularity_rounds_down() {
        let seg = TcpSegment {
            window: 1000,
            ..Default::default()
        };
        let dec = roundtrip(&seg);
        assert_eq!(dec.window, 1000 >> WINDOW_SHIFT << WINDOW_SHIFT);
        assert_eq!(dec.window, 896);
    }

    #[test]
    fn tiny_nonzero_window_clamps_up_not_to_zero() {
        // Regression: windows in 1..128 used to round down to a zero
        // advertisement, parking the peer forever (no persist timer in the
        // model). They must clamp up to one granule; only a genuinely
        // closed window encodes as zero.
        for w in [1u32, 27, 127] {
            let seg = TcpSegment {
                window: w,
                ..Default::default()
            };
            let dec = roundtrip(&seg);
            assert_eq!(dec.window, 1 << WINDOW_SHIFT, "window {w}");
        }
        let closed = TcpSegment {
            window: 0,
            ..Default::default()
        };
        assert_eq!(roundtrip(&closed).window, 0);
    }

    #[test]
    fn sack_overflow_keeps_newest_block() {
        // Regression: a 4th loss event's block used to be silently dropped
        // on push; RFC 2018 §4 wants the newest range reported first, so
        // the *oldest* block must be the one evicted.
        let mut sack = SackList::new();
        for i in 0..SACK_CAP as u32 + 2 {
            sack.push((SeqNum(1000 * i), SeqNum(1000 * i + 100)));
        }
        assert_eq!(sack.len(), SACK_CAP);
        let newest = sack.as_slice().last().copied();
        assert_eq!(newest, Some((SeqNum(5000), SeqNum(5100))), "newest kept");
        assert_eq!(
            sack.as_slice().first().copied(),
            Some((SeqNum(2000), SeqNum(2100))),
            "oldest evicted"
        );
    }

    #[test]
    fn sack_wire_order_is_newest_first() {
        // The list stores chronological order; the wire must lead with the
        // most recent block (RFC 2018 §4) and decode back chronologically.
        let seg = TcpSegment {
            flags: TcpFlags::ACK,
            sack: (0..3u32)
                .map(|i| (SeqNum(1000 * i), SeqNum(1000 * i + 100)))
                .collect(),
            ..Default::default()
        };
        let bytes = seg.encode();
        // First block on the wire starts right after kind+len at offset 22.
        let first_left = u32::from_be_bytes([bytes[22], bytes[23], bytes[24], bytes[25]]);
        assert_eq!(first_left, 2000, "newest block leads on the wire");
        assert_eq!(TcpSegment::decode(&bytes).unwrap(), seg);
    }

    #[test]
    fn timestamps_roundtrip() {
        let seg = TcpSegment {
            ts: Some(Timestamps {
                tsval: 0xDEADBEEF,
                tsecr: 0x01020304,
            }),
            window: 128,
            ..Default::default()
        };
        assert_eq!(roundtrip(&seg), seg);
        // 20 base + 10 ts padded to 12.
        assert_eq!(seg.encode().len(), 32);
    }

    #[test]
    fn dss_full_roundtrips() {
        let seg = TcpSegment {
            dss: Some(DssOption {
                data_ack: Some(0x1122334455667788),
                dsn: Some(0x99AABBCCDDEEFF00),
                subflow_seq: 4242,
                data_len: 1460,
            }),
            ts: Some(Timestamps { tsval: 1, tsecr: 2 }),
            ..Default::default()
        };
        assert_eq!(roundtrip(&seg), seg);
    }

    #[test]
    fn dss_ack_only_roundtrips() {
        let seg = TcpSegment {
            dss: Some(DssOption {
                data_ack: Some(999),
                dsn: None,
                subflow_seq: 0,
                data_len: 0,
            }),
            ..Default::default()
        };
        assert_eq!(roundtrip(&seg), seg);
    }

    #[test]
    fn dss_map_only_roundtrips() {
        let seg = TcpSegment {
            dss: Some(DssOption {
                data_ack: None,
                dsn: Some(7),
                subflow_seq: 9,
                data_len: 100,
            }),
            ..Default::default()
        };
        assert_eq!(roundtrip(&seg), seg);
    }

    /// Every flag byte decodes to the ACK, ECE and CWR bits it carries
    /// and encodes back with only those: SYN, FIN, RST and the bits above
    /// CWR are ignored.
    #[test]
    fn a_flag_byte_keeps_only_ack_ece_and_cwr() {
        let mut bytes = TcpSegment::default().encode().to_vec();
        for bits in 0..=u8::MAX {
            bytes[13] = bits;
            let seg = TcpSegment::decode(&bytes).unwrap();
            assert_eq!(seg.encode()[13], bits & 0x32, "flag byte {bits:#04x}");
        }
        bytes[13] = 0x3F;
        let want = TcpFlags {
            ece: true,
            cwr: true,
            ..TcpFlags::ACK
        };
        assert_eq!(TcpSegment::decode(&bytes).unwrap().flags, want);
    }

    #[test]
    fn trim_sack_makes_full_option_mix_fit() {
        let mut seg = TcpSegment {
            ts: Some(Timestamps { tsval: 1, tsecr: 2 }),
            sack: (0..3).map(|i| (SeqNum(i), SeqNum(i + 1))).collect(),
            dss: Some(DssOption {
                data_ack: Some(1),
                dsn: None,
                subflow_seq: 0,
                data_len: 0,
            }),
            ..Default::default()
        };
        assert!(seg.header_len() > 60);
        seg.trim_sack_to_fit();
        assert!(seg.header_len() <= 60);
        assert_eq!(seg.sack.len(), 2, "two blocks fit beside TS + DSS data-ACK");
        let _ = seg.encode();
    }

    #[test]
    fn sack_blocks_roundtrip() {
        for k in 1..=MAX_SACK_BLOCKS {
            let seg = TcpSegment {
                flags: TcpFlags::ACK,
                sack: (0..k)
                    .map(|i| (SeqNum(100 * i as u32), SeqNum(100 * i as u32 + 50)))
                    .collect(),
                ts: Some(Timestamps { tsval: 7, tsecr: 8 }),
                ..Default::default()
            };
            assert_eq!(roundtrip(&seg), seg, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "too many SACK blocks")]
    fn too_many_sack_blocks_panics() {
        let seg = TcpSegment {
            sack: (0..4).map(|i| (SeqNum(i), SeqNum(i + 1))).collect(),
            ..Default::default()
        };
        let _ = seg.encode();
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(TcpSegment::decode(&[0u8; 10]), Err(WireError::Truncated));
        // data_offset of 15 words = 60 bytes on a 20-byte buffer.
        let mut bytes = TcpSegment::default().encode().to_vec();
        bytes[12] = 15 << 4;
        assert_eq!(TcpSegment::decode(&bytes), Err(WireError::BadDataOffset));
        // Unknown option kind.
        let seg = TcpSegment {
            ts: Some(Timestamps { tsval: 0, tsecr: 0 }),
            ..Default::default()
        };
        let mut bytes = seg.encode().to_vec();
        bytes[20] = 99; // clobber the option kind
        assert!(matches!(
            TcpSegment::decode(&bytes),
            Err(WireError::BadOption(99))
        ));
        // An MSS option (kind 2, 1460): no segment carries one, so its kind
        // is unknown like any other.
        let mut bytes = TcpSegment::default().encode().to_vec();
        bytes[12] = 6 << 4;
        bytes.extend([2, 4, 0x05, 0xb4]);
        assert_eq!(TcpSegment::decode(&bytes), Err(WireError::BadOption(2)));
    }

    #[test]
    fn header_len_matches_for_all_option_mixes() {
        let variants = [
            TcpSegment::default(),
            TcpSegment {
                ts: Some(Timestamps { tsval: 1, tsecr: 2 }),
                ..Default::default()
            },
            TcpSegment {
                dss: Some(DssOption {
                    data_ack: Some(1),
                    dsn: Some(2),
                    subflow_seq: 3,
                    data_len: 4,
                }),
                ..Default::default()
            },
            TcpSegment {
                ts: Some(Timestamps { tsval: 1, tsecr: 2 }),
                dss: Some(DssOption {
                    data_ack: None,
                    dsn: Some(2),
                    subflow_seq: 3,
                    data_len: 4,
                }),
                ..Default::default()
            },
        ];
        for seg in &variants {
            assert_eq!(seg.encode().len(), seg.header_len());
            assert_eq!(seg.encode().len() % 4, 0, "padded to 32-bit words");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::reference;
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::BTreeSet;

    fn arb_flags() -> impl Strategy<Value = TcpFlags> {
        (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(ack, ece, cwr)| TcpFlags {
            ack,
            ece,
            cwr,
        })
    }

    fn arb_ts() -> impl Strategy<Value = Option<Timestamps>> {
        proptest::option::of(
            (any::<u32>(), any::<u32>()).prop_map(|(tsval, tsecr)| Timestamps { tsval, tsecr }),
        )
    }

    fn arb_sack() -> impl Strategy<Value = SackList> {
        proptest::collection::vec(
            (any::<u32>(), any::<u32>()).prop_map(|(l, r)| (SeqNum(l), SeqNum(r))),
            0..=MAX_SACK_BLOCKS,
        )
        .prop_map(SackList::from)
    }

    fn arb_dss() -> impl Strategy<Value = Option<DssOption>> {
        proptest::option::of(
            (
                proptest::option::of(any::<u64>()),
                proptest::option::of(any::<u64>()),
                any::<u32>(),
                any::<u16>(),
            )
                .prop_map(|(data_ack, dsn, subflow_seq, data_len)| DssOption {
                    data_ack,
                    dsn,
                    subflow_seq: if dsn.is_some() { subflow_seq } else { 0 },
                    data_len: if dsn.is_some() { data_len } else { 0 },
                }),
        )
    }

    proptest! {
        /// Any segment with any option mix round-trips exactly through the
        /// wire (the window field loses its sub-128-byte bits by design).
        #[test]
        fn encode_decode_roundtrip(
            src_port in any::<u16>(),
            dst_port in any::<u16>(),
            seq in any::<u32>(),
            ack in any::<u32>(),
            flags in arb_flags(),
            window in 0u32..(1 << 23),
            ts in arb_ts(),
            sack in arb_sack(),
            dss in arb_dss(),
        ) {
            let mut seg = TcpSegment {
                src_port,
                dst_port,
                seq: SeqNum(seq),
                ack: SeqNum(ack),
                flags,
                window,
                ts,
                sack,
                dss,
            };
            // Respect the 60-byte header bound like real senders do.
            seg.trim_sack_to_fit();
            let bytes = seg.encode();
            prop_assert_eq!(bytes.len(), seg.header_len());
            prop_assert!(bytes.len() <= 60);
            prop_assert_eq!(bytes.len() % 4, 0);
            let dec = TcpSegment::decode(&bytes).unwrap();
            // Sub-granule windows clamp up to one granule (never to zero);
            // larger windows round down to granule multiples.
            let expected_window = if window > 0 && window >> WINDOW_SHIFT == 0 {
                1 << WINDOW_SHIFT
            } else {
                window >> WINDOW_SHIFT << WINDOW_SHIFT
            };
            prop_assert_eq!(dec.window, expected_window);
            let mut norm = seg.clone();
            norm.window = expected_window;
            prop_assert_eq!(dec, norm);
        }

        /// Truncating a valid encoding yields an error, not a bogus segment
        /// (data-offset consistency check).
        #[test]
        fn truncation_is_detected(
            seq in any::<u32>(),
            cut in 1usize..20,
        ) {
            let seg = TcpSegment {
                seq: SeqNum(seq),
                ts: Some(Timestamps { tsval: 1, tsecr: 2 }),
                ..Default::default()
            };
            let bytes = seg.encode();
            let cut = cut.min(bytes.len() - 1);
            let truncated = &bytes[..bytes.len() - cut];
            prop_assert!(TcpSegment::decode(truncated).is_err());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The encoder writes the bytes the byte-at-a-time one wrote, for
        /// every segment that fits, at every window scale (the clamp to
        /// one granule below 128 bytes and to `u16::MAX` granules above
        /// 8 MiB included).
        #[test]
        fn encode_matches_reference(
            src_port in any::<u16>(),
            dst_port in any::<u16>(),
            seq in any::<u32>(),
            ack in any::<u32>(),
            flags in arb_flags(),
            window in (any::<u32>(), 0u32..4).prop_map(|(w, scale)| w >> (10 * scale)),
            ts in arb_ts(),
            sack in arb_sack(),
            dss in arb_dss(),
        ) {
            let mut seg = TcpSegment {
                src_port,
                dst_port,
                seq: SeqNum(seq),
                ack: SeqNum(ack),
                flags,
                window,
                ts,
                sack,
                dss,
            };
            seg.trim_sack_to_fit();
            prop_assert_eq!(seg.encode().as_slice(), reference::encode(&seg).as_slice());
        }

        /// Decoding is total (never panics) and, on any bytes, gives the
        /// old decoder's `Result`: the same segment, or the same error.
        #[test]
        fn decode_matches_reference(bytes in proptest::collection::vec(any::<u8>(), 0..=80)) {
            prop_assert_eq!(TcpSegment::decode(&bytes), reference::decode(&bytes));
        }
    }

    fn random_bytes(rng: &mut TestRng, n: u64) -> Vec<u8> {
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    /// One option built from the known kinds: well formed, or damaged in
    /// the ways a decoder must reject (a wrong length byte, a cut body), or
    /// a stray byte of any kind.
    fn soup_option(rng: &mut TestRng) -> Vec<u8> {
        let mut opt = match rng.next_below(6) {
            0 => vec![OPT_END],
            1 => [vec![OPT_TS, 10], random_bytes(rng, 8)].concat(),
            2 => {
                let k = rng.next_below(5);
                [vec![OPT_SACK, (2 + 8 * k) as u8], random_bytes(rng, 8 * k)].concat()
            }
            3 => {
                let flags = rng.next_u64() as u8;
                let need = if flags & 1 != 0 { 8 } else { 0 } + if flags & 2 != 0 { 14 } else { 0 };
                [
                    vec![OPT_DSS, 3 + need, flags],
                    random_bytes(rng, u64::from(need)),
                ]
                .concat()
            }
            4 => vec![rng.next_u64() as u8],
            _ => {
                let n = rng.next_below(4);
                random_bytes(rng, n)
            }
        };
        match rng.next_below(8) {
            0 if opt.len() > 1 => opt[1] = rng.next_u64() as u8,
            1 if opt.len() > 1 => {
                opt[1] = opt[1].wrapping_add(if rng.next_u64() & 1 == 0 { 1 } else { 255 })
            }
            2 => opt.truncate(rng.next_below(opt.len() as u64 + 1) as usize),
            _ => {}
        }
        opt
    }

    /// Headers whose option regions are soups of the known kinds (repeats
    /// included, so last-one-wins is exercised), with a data offset that
    /// usually matches and sometimes does not, and buffers sometimes cut
    /// short or running on: the decoder gives the old decoder's `Result`,
    /// and every outcome occurs.
    #[test]
    fn decode_matches_reference_on_option_soups() {
        let mut rng = TestRng::for_test("decode_matches_reference_on_option_soups");
        let mut errors = BTreeSet::new();
        let mut decoded = 0;
        for _ in 0..20_000 {
            let mut opts = Vec::new();
            for _ in 0..rng.next_below(6) {
                opts.extend(soup_option(&mut rng));
            }
            if rng.next_below(4) != 0 {
                while opts.len() % 4 != 0 {
                    opts.push(OPT_END);
                }
            }
            let mut buf = random_bytes(&mut rng, 20);
            let words = ((20 + opts.len()) / 4).min(15) as u8;
            buf[12] = match rng.next_below(8) {
                0 => rng.next_u64() as u8,
                _ => words << 4 | (buf[12] & 0x0F),
            };
            buf.extend(opts);
            match rng.next_below(8) {
                0 => buf.truncate(rng.next_below(buf.len() as u64 + 1) as usize),
                1 => {
                    let n = rng.next_below(8);
                    buf.extend(random_bytes(&mut rng, n));
                }
                _ => {}
            }
            let got = TcpSegment::decode(&buf);
            assert_eq!(got, reference::decode(&buf), "input {buf:02x?}");
            match got {
                Ok(_) => decoded += 1,
                Err(WireError::BadOption(k)) if ![OPT_TS, OPT_SACK, OPT_DSS].contains(&k) => {
                    errors.insert("unknown kind".to_string());
                }
                Err(e) => {
                    errors.insert(format!("{e:?}"));
                }
            }
        }
        assert!(decoded > 2_000, "only {decoded} soups decoded");
        let all: BTreeSet<String> = [
            "Truncated",
            "BadDataOffset",
            "BadOption(8)",
            "BadOption(5)",
            "BadOption(30)",
            "unknown kind",
        ]
        .map(String::from)
        .into();
        assert_eq!(errors, all);
    }
}
