//! The sans-IO TCP receiver.
//!
//! Tracks the in-order delivery point (`rcv_nxt`), buffers out-of-order
//! ranges, and generates an ACK for every arriving data segment ("quickack"
//! behaviour — appropriate for bulk-throughput experiments and what makes
//! duplicate-ACK loss detection fast; a delayed-ACK mode is available for
//! ablations). Like the sender it performs no I/O: `on_data` returns the
//! ACK segment the caller should transmit.

use crate::ranges::RangeSet;
use crate::seq::SeqNum;
use crate::wire::{SackList, TcpFlags, TcpSegment, Timestamps, MAX_SACK_BLOCKS};
use simbase::{SimDuration, SimTime};

/// Receiver configuration.
#[derive(Debug, Clone)]
pub struct ReceiverConfig {
    /// Peer's initial sequence number.
    pub peer_isn: SeqNum,
    /// Our port.
    pub src_port: u16,
    /// Peer's port.
    pub dst_port: u16,
    /// Advertised receive window in bytes.
    pub window: u32,
    /// If set, coalesce ACKs: at most one ACK per two segments or per this
    /// timeout, whichever first (classic delayed ACK).
    pub delayed_ack: Option<SimDuration>,
    /// Generate SACK blocks (RFC 2018). On by default, as in every modern
    /// stack; turn off for the NewReno-only ablation.
    pub sack: bool,
}

impl Default for ReceiverConfig {
    fn default() -> Self {
        ReceiverConfig {
            peer_isn: SeqNum(1),
            src_port: 5001,
            dst_port: 5000,
            window: 4 << 20,
            delayed_ack: None,
            sack: true,
        }
    }
}

/// Receiver counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiverStats {
    /// Data segments received (any order).
    pub segments_received: u64,
    /// Segments that were duplicates of already-delivered data.
    pub duplicate_segments: u64,
    /// Segments buffered out of order.
    pub out_of_order_segments: u64,
    /// ACKs generated.
    pub acks_sent: u64,
}

/// The receiver state machine.
#[derive(Debug, Clone)]
pub struct TcpReceiver {
    cfg: ReceiverConfig,
    /// Next in-order stream offset expected.
    rcv_nxt: u64,
    /// Out-of-order ranges above `rcv_nxt`.
    ooo: RangeSet,
    /// Pending delayed ACK state: segments since last ACK + deadline.
    pending_acks: u32,
    ack_deadline: Option<SimTime>,
    /// tsval of the most recent segment that advanced the window (echoed).
    last_tsval: u32,
    /// The out-of-order range that most recently grew (reported as the
    /// first SACK block, per RFC 2018 §4).
    recent_block: Option<(u64, u64)>,
    /// ECN: echo ECE on every ACK until the sender answers with CWR
    /// (RFC 3168 §6.1.3).
    ece_pending: bool,
    /// Stream offset of the peer's FIN phantom byte, once seen.
    fin_at: Option<u64>,
    /// The FIN has been consumed (everything before it delivered).
    fin_received: bool,
    stats: ReceiverStats,
}

impl TcpReceiver {
    /// Create a receiver.
    pub fn new(cfg: ReceiverConfig) -> Self {
        TcpReceiver {
            cfg,
            rcv_nxt: 0,
            ooo: RangeSet::new(),
            pending_acks: 0,
            ack_deadline: None,
            last_tsval: 0,
            recent_block: None,
            ece_pending: false,
            fin_at: None,
            fin_received: false,
            stats: ReceiverStats::default(),
        }
    }

    /// Bytes delivered in order so far.
    pub fn delivered(&self) -> u64 {
        self.rcv_nxt
    }

    /// Number of distinct out-of-order ranges currently buffered.
    pub fn ooo_ranges(&self) -> usize {
        self.ooo.len()
    }

    /// Counters.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }

    /// The most out-of-order ranges ever buffered at once.
    pub fn max_ooo_ranges(&self) -> usize {
        self.ooo.max_len()
    }

    /// True once the peer's FIN and all preceding data were delivered.
    pub fn fin_received(&self) -> bool {
        self.fin_received
    }

    /// The stream offset the wire sequence number `seq` names, or `None`
    /// if it lies before the start of the stream (wild input: an agent
    /// counts the packet as malformed instead of calling `on_data`).
    pub fn stream_offset(&self, seq: SeqNum) -> Option<u64> {
        seq.expand(self.cfg.peer_isn, self.rcv_nxt)
    }

    /// Handle an arriving data segment (`data_len` from the packet).
    /// Returns the ACK to transmit now, if any.
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
        self.stats.segments_received += 1;
        let end = start + data_len as u64;
        if seg.flags.fin {
            self.fin_at = Some(end);
        }

        if let Some(ts) = &seg.ts {
            // Echo rule (RFC 7323): echo the tsval of the segment that
            // advanced the left edge; for pure duplicates keep the old echo.
            if start <= self.rcv_nxt {
                self.last_tsval = ts.tsval;
            }
        }

        if end <= self.rcv_nxt {
            // Entirely old (or zero-length FIN) data: possibly consume the
            // FIN, then ACK immediately (it may be a retransmission probing
            // a lost ACK).
            self.try_consume_fin();
            if end < self.rcv_nxt || data_len > 0 {
                self.stats.duplicate_segments += 1;
            }
            return Some(self.make_ack(now));
        }

        if start > self.rcv_nxt {
            // A hole: buffer and send an immediate duplicate ACK (fast
            // retransmit depends on these never being delayed).
            self.stats.out_of_order_segments += 1;
            let (merged, _) = self.ooo.insert(start, end);
            self.recent_block = Some(merged);
            return Some(self.make_ack(now));
        }

        // In-order (possibly overlapping) data: advance and absorb any
        // out-of-order ranges that are now contiguous.
        self.rcv_nxt = self.ooo.absorb_prefix(end);

        self.try_consume_fin();

        // Delayed-ACK policy.
        match self.cfg.delayed_ack {
            None => Some(self.make_ack(now)),
            Some(timeout) => {
                self.pending_acks += 1;
                if self.pending_acks >= 2 || !self.ooo.is_empty() {
                    Some(self.make_ack(now))
                } else {
                    self.ack_deadline = Some(now + timeout);
                    None
                }
            }
        }
    }

    /// The next time `on_timer` needs to be called (delayed-ACK flush).
    pub fn next_timer(&self) -> Option<SimTime> {
        self.ack_deadline
    }

    /// Flush a pending delayed ACK if its deadline has passed.
    pub fn on_timer(&mut self, now: SimTime) -> Option<TcpSegment> {
        match self.ack_deadline {
            Some(d) if now >= d && self.pending_acks > 0 => Some(self.make_ack(now)),
            _ => None,
        }
    }

    /// If the FIN's position equals the delivery point, consume its phantom
    /// byte so the cumulative ACK covers it.
    fn try_consume_fin(&mut self) {
        if let Some(f) = self.fin_at {
            if !self.fin_received && f == self.rcv_nxt {
                self.rcv_nxt += 1;
                self.fin_received = true;
            }
        }
    }

    fn make_ack(&mut self, now: SimTime) -> TcpSegment {
        self.pending_acks = 0;
        self.ack_deadline = None;
        self.stats.acks_sent += 1;
        TcpSegment {
            src_port: self.cfg.src_port,
            dst_port: self.cfg.dst_port,
            seq: SeqNum(0),
            ack: SeqNum::from_offset(self.cfg.peer_isn, self.rcv_nxt),
            flags: TcpFlags {
                ece: self.ece_pending,
                ..TcpFlags::ACK
            },
            window: self.cfg.window,
            ts: Some(Timestamps {
                tsval: Timestamps::tsval_at(now),
                tsecr: self.last_tsval,
            }),
            mss: None,
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
        let to_wire = |s: u64, e: u64| {
            (
                SeqNum::from_offset(self.cfg.peer_isn, s),
                SeqNum::from_offset(self.cfg.peer_isn, e),
            )
        };
        // The recent range may have merged; report its current extent.
        let recent = self.recent_block.and_then(|(s, _)| {
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
            seq: SeqNum::from_offset(cfg.peer_isn, offset),
            ack: SeqNum(0),
            flags: TcpFlags::default(),
            window: 0,
            ts: Some(Timestamps { tsval, tsecr: 0 }),
            mss: None,
            sack: SackList::new(),
            dss: None,
        }
    }

    fn ack_offset(cfg: &ReceiverConfig, ack: &TcpSegment) -> u64 {
        ack.ack
            .expand(cfg.peer_isn, 0)
            .expect("an ACK this receiver built")
    }

    #[test]
    fn in_order_stream_advances_and_acks_each_segment() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        for i in 0..5u64 {
            let ack = r
                .on_data(
                    SimTime::from_millis(i),
                    &data_seg(&cfg, i * MSS, 100 + i as u32),
                    MSS as u32,
                )
                .expect("quickack");
            assert_eq!(ack_offset(&cfg, &ack), (i + 1) * MSS);
            assert_eq!(ack.ts.unwrap().tsecr, 100 + i as u32);
        }
        assert_eq!(r.delivered(), 5 * MSS);
        assert_eq!(r.stats().acks_sent, 5);
        assert_eq!(r.ooo_ranges(), 0);
    }

    #[test]
    fn hole_generates_duplicate_acks() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let t = SimTime::ZERO;
        r.on_data(t, &data_seg(&cfg, 0, 1), MSS as u32).unwrap();
        // Segment 1 lost; 2, 3, 4 arrive.
        for i in [2u64, 3, 4] {
            let ack = r
                .on_data(t, &data_seg(&cfg, i * MSS, 1), MSS as u32)
                .unwrap();
            assert_eq!(ack_offset(&cfg, &ack), MSS, "dup ACK at the hole");
        }
        assert_eq!(r.stats().out_of_order_segments, 3);
        assert_eq!(r.ooo_ranges(), 1); // merged into one contiguous range
                                       // The retransmission fills the hole: cumulative ACK jumps.
        let ack = r.on_data(t, &data_seg(&cfg, MSS, 1), MSS as u32).unwrap();
        assert_eq!(ack_offset(&cfg, &ack), 5 * MSS);
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
        assert_eq!(ack_offset(&cfg, &ack), MSS);
        let ack = r.on_data(t, &data_seg(&cfg, MSS, 1), MSS as u32).unwrap();
        assert_eq!(ack_offset(&cfg, &ack), 5 * MSS);
    }

    #[test]
    fn duplicates_are_counted_and_reacked() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let t = SimTime::ZERO;
        r.on_data(t, &data_seg(&cfg, 0, 1), MSS as u32).unwrap();
        let ack = r.on_data(t, &data_seg(&cfg, 0, 2), MSS as u32).unwrap();
        assert_eq!(ack_offset(&cfg, &ack), MSS);
        assert_eq!(r.stats().duplicate_segments, 1);
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
        assert_eq!(ack_offset(&cfg, &ack), MSS / 2 + MSS);
    }

    #[test]
    fn delayed_ack_coalesces_pairs() {
        let cfg = ReceiverConfig {
            delayed_ack: Some(SimDuration::from_millis(40)),
            ..Default::default()
        };
        let mut r = TcpReceiver::new(cfg.clone());
        let t = SimTime::ZERO;
        // First segment: held.
        assert!(r.on_data(t, &data_seg(&cfg, 0, 1), MSS as u32).is_none());
        assert!(r.next_timer().is_some());
        // Second segment: flushed.
        let ack = r.on_data(t, &data_seg(&cfg, MSS, 1), MSS as u32).unwrap();
        assert_eq!(ack_offset(&cfg, &ack), 2 * MSS);
        assert!(r.next_timer().is_none());
    }

    #[test]
    fn delayed_ack_timer_flushes_singleton() {
        let cfg = ReceiverConfig {
            delayed_ack: Some(SimDuration::from_millis(40)),
            ..Default::default()
        };
        let mut r = TcpReceiver::new(cfg.clone());
        assert!(r
            .on_data(SimTime::ZERO, &data_seg(&cfg, 0, 1), MSS as u32)
            .is_none());
        let deadline = r.next_timer().unwrap();
        assert!(r.on_timer(deadline - SimDuration::from_nanos(1)).is_none());
        let ack = r.on_timer(deadline).expect("flush");
        assert_eq!(ack_offset(&cfg, &ack), MSS);
    }

    #[test]
    fn delayed_ack_disabled_for_out_of_order() {
        let cfg = ReceiverConfig {
            delayed_ack: Some(SimDuration::from_millis(40)),
            ..Default::default()
        };
        let mut r = TcpReceiver::new(cfg.clone());
        // Out-of-order segment must ACK immediately despite delayed mode.
        let ack = r.on_data(SimTime::ZERO, &data_seg(&cfg, 2 * MSS, 1), MSS as u32);
        assert!(ack.is_some());
    }

    #[test]
    fn advertised_window_is_carried() {
        let cfg = ReceiverConfig {
            window: 1 << 20,
            ..Default::default()
        };
        let mut r = TcpReceiver::new(cfg.clone());
        let ack = r
            .on_data(SimTime::ZERO, &data_seg(&cfg, 0, 1), MSS as u32)
            .unwrap();
        assert_eq!(ack.window, 1 << 20);
        assert!(ack.flags.ack);
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
            SeqNum::from_offset(cfg.peer_isn, 8 * MSS),
            SeqNum::from_offset(cfg.peer_isn, 9 * MSS),
        );
        // Chronological list order puts the newest block last; the encoder
        // reverses, so it leads on the wire.
        assert_eq!(ack.sack.as_slice().last(), Some(&newest));
        let wire = TcpSegment::decode(&ack.encode()).unwrap();
        assert_eq!(wire.sack.as_slice().last(), Some(&newest));
    }

    #[test]
    fn tiny_receive_buffer_never_advertises_zero() {
        // Regression: a live sub-128-byte window used to encode as a zero
        // (closed) window, parking the sender forever. After the wire
        // clamp, the smallest live advertisement is one granule.
        let cfg = ReceiverConfig {
            window: 100,
            ..Default::default()
        };
        let mut r = TcpReceiver::new(cfg.clone());
        let ack = r.on_data(SimTime::ZERO, &data_seg(&cfg, 0, 1), 64).unwrap();
        assert_eq!(ack.window, 100);
        let wire = TcpSegment::decode(&ack.encode()).unwrap();
        assert_eq!(wire.window, 128, "clamped up to one granule, not zero");
    }

    #[test]
    fn fin_in_order_is_consumed_and_acked() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let t = SimTime::ZERO;
        r.on_data(t, &data_seg(&cfg, 0, 1), MSS as u32).unwrap();
        // Pure FIN at offset MSS.
        let mut fin = data_seg(&cfg, MSS, 1);
        fin.flags.fin = true;
        let ack = r.on_data(t, &fin, 0).unwrap();
        assert!(r.fin_received());
        // The ACK covers the phantom byte.
        assert_eq!(ack_offset(&cfg, &ack), MSS + 1);
        assert_eq!(r.delivered(), MSS + 1);
    }

    #[test]
    fn out_of_order_fin_waits_for_the_hole() {
        let cfg = ReceiverConfig::default();
        let mut r = TcpReceiver::new(cfg.clone());
        let t = SimTime::ZERO;
        // Data+FIN for segment 1 arrives before segment 0.
        let mut fin = data_seg(&cfg, MSS, 1);
        fin.flags.fin = true;
        r.on_data(t, &fin, MSS as u32).unwrap();
        assert!(!r.fin_received());
        // The hole fills: data + FIN consumed together.
        let ack = r.on_data(t, &data_seg(&cfg, 0, 1), MSS as u32).unwrap();
        assert!(r.fin_received());
        assert_eq!(ack_offset(&cfg, &ack), 2 * MSS + 1);
    }
}
