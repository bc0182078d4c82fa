//! The byte-at-a-time codec the fixed-offset one replaced, kept as the
//! differential oracle for `wire.rs`'s tests (test builds only; nothing can
//! select it at run time).
//!
//! `encode` / `decode` are the old bodies, less the MSS option no segment
//! carries any more (the flags they read and write are `TcpFlags`' own,
//! ACK, ECE and CWR). The cursor they wrote
//! and read through (a fixed-capacity `BufMut` writer and `Buf` over
//! `&[u8]`) is reproduced below with the same semantics: big-endian
//! fields, and a read past the end panics.

use crate::wire::*;

/// Write cursor: the old encoder's builder.
#[derive(Default)]
struct Writer(Vec<u8>);

impl Writer {
    fn new() -> Writer {
        Writer::default()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn as_slice(&self) -> &[u8] {
        &self.0
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.0.extend_from_slice(s);
    }
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    fn finish(self) -> Payload {
        Payload::from_slice(&self.0).expect("a TCP header is at most 60 bytes")
    }
}

/// Read cursor over `&[u8]`: the old decoder's `Buf`.
trait Reader {
    fn remaining(&self) -> usize;
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
    fn take<const N: usize>(&mut self) -> [u8; N];
    fn get_u8(&mut self) -> u8 {
        u8::from_be_bytes(self.take())
    }
    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take())
    }
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take())
    }
    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take())
    }
}

impl Reader for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.split_first_chunk::<N>().expect("buffer exhausted");
        *self = rest;
        *head
    }
}

/// The old `TcpSegment::encode`.
pub(in crate::wire) fn encode(seg: &TcpSegment) -> Payload {
    let mut opts = Writer::new();
    if let Some(ts) = &seg.ts {
        opts.put_u8(OPT_TS);
        opts.put_u8(10);
        opts.put_u32(ts.tsval);
        opts.put_u32(ts.tsecr);
    }
    if !seg.sack.is_empty() {
        assert!(seg.sack.len() <= MAX_SACK_BLOCKS, "too many SACK blocks");
        opts.put_u8(OPT_SACK);
        opts.put_u8(len_byte(2 + 8 * seg.sack.len()));
        // RFC 2018 §4: the first block reports the most recently
        // received range. The list stores chronological (oldest-first)
        // order, so the wire emits it in reverse.
        for (l, r) in seg.sack.iter().rev() {
            opts.put_u32(l.0);
            opts.put_u32(r.0);
        }
    }
    if let Some(dss) = &seg.dss {
        // kind, len, flags, [data_ack u64], [dsn u64 + ssn u32 + dll u16]
        let has_ack = dss.data_ack.is_some();
        let has_map = dss.dsn.is_some();
        let len: u8 = 3 + if has_ack { 8 } else { 0 } + if has_map { 14 } else { 0 };
        opts.put_u8(OPT_DSS);
        opts.put_u8(len);
        opts.put_u8(u8::from(has_ack) | u8::from(has_map) << 1);
        if let Some(da) = dss.data_ack {
            opts.put_u64(da);
        }
        if let Some(dsn) = dss.dsn {
            opts.put_u64(dsn);
            opts.put_u32(dss.subflow_seq);
            opts.put_u16(dss.data_len);
        }
    }
    while !opts.len().is_multiple_of(4) {
        opts.put_u8(OPT_END);
    }

    let data_offset_words = 5 + opts.len() / 4;
    assert!(data_offset_words <= 15, "options too long");
    // A live (non-zero) window must never encode as zero: rounding
    // 1..128 bytes down to 0 granules would advertise a closed window,
    // and a sender with no persist timer parks forever. Clamp up to one
    // granule instead — over-advertising by at most 127 bytes.
    let scaled = (seg.window >> WINDOW_SHIFT).min(u32::from(u16::MAX));
    let window_wire = if seg.window > 0 && scaled == 0 {
        1
    } else {
        u16::try_from(scaled).unwrap_or(u16::MAX)
    };
    let mut buf = Writer::new();
    buf.put_u16(seg.src_port);
    buf.put_u16(seg.dst_port);
    buf.put_u32(seg.seq.0);
    buf.put_u32(seg.ack.0);
    buf.put_u8(len_byte(data_offset_words) << 4);
    buf.put_u8(seg.flags.to_byte());
    buf.put_u16(window_wire);
    buf.put_u16(0); // checksum: links are error-free in the model
    buf.put_u16(0); // urgent pointer unused
    buf.put_slice(opts.as_slice());
    buf.finish()
}

/// The old `TcpSegment::decode`.
pub(in crate::wire) fn decode(mut buf: &[u8]) -> Result<TcpSegment, WireError> {
    if buf.len() < 20 {
        return Err(WireError::Truncated);
    }
    let total = buf.len();
    let src_port = buf.get_u16();
    let dst_port = buf.get_u16();
    let seq = SeqNum(buf.get_u32());
    let ack = SeqNum(buf.get_u32());
    let data_offset_words = (buf.get_u8() >> 4) as usize;
    let flags = TcpFlags::from_byte(buf.get_u8());
    let window = u32::from(buf.get_u16()) << WINDOW_SHIFT;
    let _checksum = buf.get_u16();
    let _urgent = buf.get_u16();

    let header_len = data_offset_words * 4;
    if header_len < 20 || header_len > total {
        return Err(WireError::BadDataOffset);
    }
    // `buf` has advanced exactly 20 bytes, so `header_len <= total`
    // guarantees the options region is in range; `get` keeps this total.
    let mut opts: &[u8] = buf.get(..header_len - 20).unwrap_or(&[]);

    let mut seg = TcpSegment {
        src_port,
        dst_port,
        seq,
        ack,
        flags,
        window,
        ts: None,
        sack: SackList::new(),
        dss: None,
    };
    while opts.has_remaining() {
        let kind = opts.get_u8();
        match kind {
            OPT_END => break,
            OPT_TS => {
                if opts.remaining() < 9 {
                    return Err(WireError::BadOption(kind));
                }
                let len = opts.get_u8();
                if len != 10 {
                    return Err(WireError::BadOption(kind));
                }
                seg.ts = Some(Timestamps {
                    tsval: opts.get_u32(),
                    tsecr: opts.get_u32(),
                });
            }
            OPT_SACK => {
                if !opts.has_remaining() {
                    return Err(WireError::BadOption(kind));
                }
                let len = opts.get_u8() as usize;
                if len < 2 || !(len - 2).is_multiple_of(8) || opts.remaining() < len - 2 {
                    return Err(WireError::BadOption(kind));
                }
                let k = (len - 2) / 8;
                if k > MAX_SACK_BLOCKS {
                    return Err(WireError::BadOption(kind));
                }
                // A repeated SACK option replaces the earlier one (same
                // last-wins rule as TS/DSS) and keeps the inline
                // list within capacity on adversarial inputs.
                seg.sack.clear();
                // The wire carries blocks newest-first (RFC 2018 §4);
                // re-reverse into the list's chronological order so a
                // decode mirrors the segment that was encoded.
                let mut wire = [(SeqNum(0), SeqNum(0)); MAX_SACK_BLOCKS];
                for slot in wire.iter_mut().take(k) {
                    *slot = (SeqNum(opts.get_u32()), SeqNum(opts.get_u32()));
                }
                for &block in wire.iter().take(k).rev() {
                    seg.sack.push(block);
                }
            }
            OPT_DSS => {
                if opts.remaining() < 2 {
                    return Err(WireError::BadOption(kind));
                }
                let len = opts.get_u8() as usize;
                let fl = opts.get_u8();
                let has_ack = fl & 1 != 0;
                let has_map = fl & 2 != 0;
                let need = if has_ack { 8 } else { 0 } + if has_map { 14 } else { 0 };
                if len != 3 + need || opts.remaining() < need {
                    return Err(WireError::BadOption(kind));
                }
                let data_ack = has_ack.then(|| opts.get_u64());
                let (dsn, subflow_seq, data_len) = if has_map {
                    (Some(opts.get_u64()), opts.get_u32(), opts.get_u16())
                } else {
                    (None, 0, 0)
                };
                seg.dss = Some(DssOption {
                    data_ack,
                    dsn,
                    subflow_seq,
                    data_len,
                });
            }
            other => return Err(WireError::BadOption(other)),
        }
    }
    Ok(seg)
}
