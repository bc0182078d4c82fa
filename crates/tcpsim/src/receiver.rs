//! The sans-IO TCP receiver.
//!
//! Tracks the in-order delivery point (`rcv_nxt`), buffers out-of-order
//! ranges, and generates an ACK for every arriving data segment ("quickack"
//! behaviour — appropriate for bulk-throughput experiments and what makes
//! duplicate-ACK loss detection fast). Like the sender it performs no I/O:
//! `on_data` returns the ACK segment the caller should transmit, so the
//! receiver never needs a timer.

use crate::ranges::RangeSet;
use crate::seq::{SeqNum, ISN};
use crate::wire::{SackList, TcpFlags, TcpSegment, Timestamps, MAX_SACK_BLOCKS};
use simbase::SimTime;

/// The receive window every subflow receiver advertises, and every sender
/// assumes until the first ACK, in bytes: a fixed 4 MiB per subflow, not
/// RFC 8684's connection-level window (DESIGN.md par 3).
pub const RECEIVE_WINDOW: u32 = 4 << 20;

/// Receiver configuration.
#[derive(Debug, Clone)]
pub struct ReceiverConfig {
    /// Our port.
    pub src_port: u16,
    /// Peer's port.
    pub dst_port: u16,
    /// Generate SACK blocks (RFC 2018). On by default, as in every modern
    /// stack; turn off for the NewReno-only ablation.
    pub sack: bool,
}

impl Default for ReceiverConfig {
    fn default() -> Self {
        ReceiverConfig {
            src_port: 5001,
            dst_port: 5000,
            sack: true,
        }
    }
}

/// The receiver state machine.
#[derive(Debug, Clone)]
pub struct TcpReceiver {
    cfg: ReceiverConfig,
    /// Next in-order stream offset expected.
    rcv_nxt: u64,
    /// Out-of-order ranges above `rcv_nxt`.
    ooo: RangeSet,
    /// tsval of the most recent segment that advanced the window (echoed).
    last_tsval: u32,
    /// Start of the out-of-order range that most recently grew (reported
    /// as the first SACK block, per RFC 2018 §4).
    recent_start: Option<u64>,
    /// ECN: echo ECE on every ACK until the sender answers with CWR
    /// (RFC 3168 §6.1.3).
    ece_pending: bool,
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter receiver fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<TcpReceiver>() <= 80);

impl TcpReceiver {
    /// Create a receiver.
    pub fn new(cfg: ReceiverConfig) -> Self {
        TcpReceiver {
            cfg,
            rcv_nxt: 0,
            ooo: RangeSet::new(),
            last_tsval: 0,
            recent_start: None,
            ece_pending: false,
        }
    }

    /// The peer's port: the subflow this receiver serves.
    pub fn peer_port(&self) -> u16 {
        self.cfg.dst_port
    }

    /// Bytes delivered in order so far.
    pub fn delivered(&self) -> u64 {
        self.rcv_nxt
    }

    /// Number of distinct out-of-order ranges currently buffered.
    pub fn ooo_ranges(&self) -> usize {
        self.ooo.len()
    }

    /// The most out-of-order ranges ever buffered at once.
    pub fn max_ooo_ranges(&self) -> usize {
        self.ooo.max_len()
    }

    /// The stream offset the wire sequence number `seq` names, or `None`
    /// if it lies before the start of the stream (wild input: an agent
    /// counts the packet as malformed instead of calling `on_data`).
    pub fn stream_offset(&self, seq: SeqNum) -> Option<u64> {
        seq.expand(ISN, self.rcv_nxt)
    }

    /// Handle an arriving data segment (`data_len` from the packet).
    /// Returns the ACK to transmit now: every segment is acknowledged, and
    /// `None` means the segment was ignored (see [`Self::on_data_ecn`]).
    pub fn on_data(&mut self, now: SimTime, seg: &TcpSegment, data_len: u32) -> Option<TcpSegment> {
        self.on_data_ecn(now, seg, data_len, false)
    }

    /// Like [`Self::on_data`], with the network-layer CE mark of the
    /// carrying packet (RFC 3168): a CE mark latches ECN-Echo onto every
    /// outgoing ACK until the sender responds with CWR. A segment whose
    /// sequence number [`TcpReceiver::stream_offset`] cannot place is
    /// ignored whole: no state changes, no ACK.
    pub fn on_data_ecn(
        &mut self,
        now: SimTime,
        seg: &TcpSegment,
        data_len: u32,
        ce: bool,
    ) -> Option<TcpSegment> {
        let start = self.stream_offset(seg.seq)?;
        if ce {
            self.ece_pending = true;
        }
        if seg.flags.cwr {
            self.ece_pending = false;
        }
        let end = start + data_len as u64;

        if let Some(ts) = &seg.ts {
            // Echo rule (RFC 7323): echo the tsval of the segment that
            // advanced the left edge; for pure duplicates keep the old echo.
            if start <= self.rcv_nxt {
                self.last_tsval = ts.tsval;
            }
        }

        if end <= self.rcv_nxt {
            // Entirely old (or zero-length) data: ACK immediately (it may be
            // a retransmission probing a lost ACK).
            return Some(self.make_ack(now));
        }

        if start > self.rcv_nxt {
            // A hole: buffer and send an immediate duplicate ACK (fast
            // retransmit depends on these never being delayed).
            let (merged, _) = self.ooo.insert(start, end);
            self.recent_start = Some(merged.0);
            return Some(self.make_ack(now));
        }

        // In-order (possibly overlapping) data: advance and absorb any
        // out-of-order ranges that are now contiguous.
        self.rcv_nxt = self.ooo.absorb_prefix(end);
        Some(self.make_ack(now))
    }

    fn make_ack(&self, now: SimTime) -> TcpSegment {
        TcpSegment {
            src_port: self.cfg.src_port,
            dst_port: self.cfg.dst_port,
            seq: SeqNum(0),
            ack: SeqNum::from_offset(ISN, self.rcv_nxt),
            flags: TcpFlags {
                ece: self.ece_pending,
                ..TcpFlags::ACK
            },
            window: RECEIVE_WINDOW,
            ts: Some(Timestamps {
                tsval: Timestamps::tsval_at(now),
                tsecr: self.last_tsval,
            }),
            sack: self.sack_blocks(),
            dss: None,
        }
    }

    /// Up to [`MAX_SACK_BLOCKS`] blocks. The wire leads with the most
    /// recently updated range (RFC 2018 §4), then the other ranges,
    /// newest-start first. [`SackList`] stores chronological order and the
    /// encoder reverses it, so blocks are *pushed* oldest-information-first
    /// with the recent range last. Returned inline — building an ACK
    /// allocates nothing.
    fn sack_blocks(&self) -> SackList {
        if !self.cfg.sack || self.ooo.is_empty() {
            return SackList::new();
        }
        let to_wire = |s: u64, e: u64| (SeqNum::from_offset(ISN, s), SeqNum::from_offset(ISN, e));
        // The recent range may have merged; report its current extent.
        let recent = self.recent_start.and_then(|s| {
            self.ooo
                .floor(s)
                .filter(|&(cs, ce)| ce > s && cs > self.rcv_nxt)
        });
        let limit = MAX_SACK_BLOCKS - usize::from(recent.is_some());
        let mut others = [(0u64, 0u64); MAX_SACK_BLOCKS];
        let mut n = 0;
        for &(s, e) in self.ooo.as_slice().iter().rev() {
            if n >= limit {
                break;
            }
            if recent.is_some_and(|(cs, _)| cs == s) {
                continue;
            }
            if let Some(slot) = others.get_mut(n) {
                *slot = (s, e);
                n += 1;
            }
        }
        let mut blocks = SackList::new();
        for &(s, e) in others.iter().take(n).rev() {
            blocks.push(to_wire(s, e));
        }
        if let Some((cs, ce)) = recent {
            blocks.push(to_wire(cs, ce));
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1460;

    fn data_seg(cfg: &ReceiverConfig, offset: u64, tsval: u32) -> TcpSegment {
        TcpSegment {
            src_port: cfg.dst_port,
            dst_port: cfg.src_port,
            seq: SeqNum::from_offset(ISN, offset),
            ack: SeqNum(0),
            flags: TcpFlags::default(),
            window: 0,
            ts: Some(Timestamps { tsval, tsecr: 0 }),
            sack: SackList::new(),
            dss: None,
        }
    }

    fn ack_offset(ack: &TcpSegment) -> u64 {
        ack.ack.expand(ISN, 0).expect("an ACK this receiver built")
    }

    #[test]
    fn in_order_stream_advances_and_acks_each_segment() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let acks: Vec<TcpSegment> = (0..5u64)
            .filter_map(|i| {
                r.on_data(
                    SimTime::from_millis(i),
                    &data_seg(&cfg, i * MSS, 100 + i as u32),
                    MSS as u32,
                )
            })
            .collect();
        assert_eq!(acks.len(), 5, "one ACK per segment");
        for (i, ack) in (0u64..).zip(&acks) {
            assert_eq!(ack_offset(ack), (i + 1) * MSS);
            assert_eq!(ack.ts.unwrap().tsecr, 100 + i as u32);
            assert!(ack.sack.is_empty());
        }
        assert_eq!(r.delivered(), 5 * MSS);
        assert_eq!(r.ooo_ranges(), 0);
    }

    #[test]
    fn hole_generates_duplicate_acks() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let t = SimTime::ZERO;
        r.on_data(t, &data_seg(&cfg, 0, 1), MSS as u32).unwrap();
        // Segment 1 lost; 2, 3, 4 arrive. Each is buffered and answered by
        // a dup ACK whose one SACK block covers what is buffered so far.
        for i in [2u64, 3, 4] {
            let ack = r
                .on_data(t, &data_seg(&cfg, i * MSS, 1), MSS as u32)
                .unwrap();
            assert_eq!(ack_offset(&ack), MSS, "dup ACK at the hole");
            let block = (
                SeqNum::from_offset(ISN, 2 * MSS),
                SeqNum::from_offset(ISN, (i + 1) * MSS),
            );
            assert_eq!(ack.sack.as_slice(), [block]);
        }
        assert_eq!(r.ooo_ranges(), 1); // merged into one contiguous range
                                       // The retransmission fills the hole: cumulative ACK jumps.
        let ack = r.on_data(t, &data_seg(&cfg, MSS, 1), MSS as u32).unwrap();
        assert_eq!(ack_offset(&ack), 5 * MSS);
        assert_eq!(r.ooo_ranges(), 0);
    }

    #[test]
    fn multiple_holes_merge_correctly() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let t = SimTime::ZERO;
        // Arrivals: 2, 4, 3 (holes at 0 and 1).
        r.on_data(t, &data_seg(&cfg, 2 * MSS, 1), MSS as u32)
            .unwrap();
        r.on_data(t, &data_seg(&cfg, 4 * MSS, 1), MSS as u32)
            .unwrap();
        assert_eq!(r.ooo_ranges(), 2);
        r.on_data(t, &data_seg(&cfg, 3 * MSS, 1), MSS as u32)
            .unwrap();
        assert_eq!(r.ooo_ranges(), 1, "3 bridges 2..3 and 4..5");
        // Fill 0 then 1.
        let ack = r.on_data(t, &data_seg(&cfg, 0, 1), MSS as u32).unwrap();
        assert_eq!(ack_offset(&ack), MSS);
        let ack = r.on_data(t, &data_seg(&cfg, MSS, 1), MSS as u32).unwrap();
        assert_eq!(ack_offset(&ack), 5 * MSS);
    }

    #[test]
    fn duplicates_are_reacked() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let t = SimTime::ZERO;
        r.on_data(t, &data_seg(&cfg, 0, 1), MSS as u32).unwrap();
        let ack = r.on_data(t, &data_seg(&cfg, 0, 2), MSS as u32).unwrap();
        assert_eq!(ack_offset(&ack), MSS);
        assert!(ack.sack.is_empty(), "nothing is buffered");
        assert_eq!((r.delivered(), r.ooo_ranges()), (MSS, 0));
    }

    #[test]
    fn overlapping_segment_extends_delivery() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let t = SimTime::ZERO;
        r.on_data(t, &data_seg(&cfg, 0, 1), MSS as u32).unwrap();
        // A segment overlapping the delivered prefix but extending past it.
        let ack = r
            .on_data(t, &data_seg(&cfg, MSS / 2, 1), MSS as u32)
            .unwrap();
        assert_eq!(ack_offset(&ack), MSS / 2 + MSS);
    }

    #[test]
    fn advertised_window_is_carried() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let ack = r
            .on_data(SimTime::ZERO, &data_seg(&cfg, 0, 1), MSS as u32)
            .unwrap();
        assert_eq!(ack.window, RECEIVE_WINDOW);
        assert!(ack.flags.ack);
        let wire = TcpSegment::decode(&ack.encode()).unwrap();
        assert_eq!(wire.window, RECEIVE_WINDOW, "a whole number of granules");
    }

    #[test]
    fn ce_mark_latches_ece_until_cwr() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let t = SimTime::ZERO;
        // Plain segment: no ECE.
        let ack = r
            .on_data_ecn(t, &data_seg(&cfg, 0, 1), MSS as u32, false)
            .unwrap();
        assert!(!ack.flags.ece);
        // CE-marked segment: ECE latches.
        let ack = r
            .on_data_ecn(t, &data_seg(&cfg, MSS, 1), MSS as u32, true)
            .unwrap();
        assert!(ack.flags.ece);
        // Still echoing on unmarked segments.
        let ack = r
            .on_data_ecn(t, &data_seg(&cfg, 2 * MSS, 1), MSS as u32, false)
            .unwrap();
        assert!(ack.flags.ece);
        // CWR from the sender clears it.
        let mut seg = data_seg(&cfg, 3 * MSS, 1);
        seg.flags.cwr = true;
        let ack = r.on_data_ecn(t, &seg, MSS as u32, false).unwrap();
        assert!(!ack.flags.ece);
    }

    #[test]
    fn fourth_loss_event_still_sacks_the_latest_hole() {
        // Regression: with four disjoint holes, the newest range used to be
        // dropped from the SACK option (list overflow dropped the incoming
        // block). RFC 2018 §4: the latest range must be reported, and first.
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let t = SimTime::ZERO;
        // Segments at 2, 4, 6, then 8 MSS: holes at 1, 3, 5, 7 MSS.
        let mut last_ack = None;
        for i in [2u64, 4, 6, 8] {
            last_ack = r.on_data(t, &data_seg(&cfg, i * MSS, 1), MSS as u32);
        }
        let ack = last_ack.expect("dup ACK");
        assert_eq!(ack.sack.len(), MAX_SACK_BLOCKS);
        let newest = (
            SeqNum::from_offset(ISN, 8 * MSS),
            SeqNum::from_offset(ISN, 9 * MSS),
        );
        // Chronological list order puts the newest block last; the encoder
        // reverses, so it leads on the wire.
        assert_eq!(ack.sack.as_slice().last(), Some(&newest));
        let wire = TcpSegment::decode(&ack.encode()).unwrap();
        assert_eq!(wire.sack.as_slice().last(), Some(&newest));
    }
}
