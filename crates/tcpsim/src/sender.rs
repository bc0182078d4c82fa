//! The sans-IO TCP sender state machine.
//!
//! [`TcpSender`] owns reliability and rate control for one direction of a
//! TCP connection: it decides *which bytes may be sent now*
//! ([`TcpSender::poll_segment`]), reacts to ACKs ([`TcpSender::on_ack`]) and
//! timer expiry ([`TcpSender::on_timer`]), and exposes the next deadline it
//! needs ([`TcpSender::next_timer`]). It performs no I/O: the caller (the
//! MPTCP sender agent, one engine per subflow) moves segments and arms
//! timers. This mirrors smoltcp's design and makes the machine fully
//! testable without a network.
//!
//! Implemented behaviour:
//!
//! * cumulative ACKs, duplicate-ACK counting, **fast retransmit** after 3
//!   dup-ACKs, **NewReno fast recovery** with window inflation and partial-
//!   ACK retransmission (RFC 6582);
//! * **RTO** per RFC 6298 with exponential backoff (200 ms floor, 60 s
//!   ceiling, [`crate::rtt`]), go-back-N recovery driven by partial ACKs;
//! * RTT sampling from timestamps (Karn-safe);
//! * pluggable [`CongestionControl`], which the caller keeps and lends to
//!   every call that consults it;
//! * flow control against the peer's advertised window.
//!
//! Segment payload bytes are virtual: the sender tracks a byte *count*
//! supplied by the application, not buffers.

use crate::cc::{AckContext, CongestionControl};
use crate::ranges::RangeSet;
use crate::receiver::RECEIVE_WINDOW;
use crate::rtt::{MinRttFilter, RttEstimator};
use crate::seq::{SeqNum, ISN};
use crate::wire::{SackList, TcpFlags, TcpSegment, Timestamps};
use netsim::SimCounters;
use simbase::{SimDuration, SimTime};

/// The maximum segment (payload) size of every subflow, in bytes: an
/// Ethernet MTU less the IP and TCP headers.
pub const MSS: u32 = 1460;

/// Static configuration of a TCP flow endpoint.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment (payload) size in bytes.
    pub mss: u32,
    /// Our port (identifies the subflow under ndiffports).
    pub src_port: u16,
    /// Peer port.
    pub dst_port: u16,
    /// Initial congestion window in bytes.
    pub initial_cwnd: u64,
    /// Use SACK-based loss recovery (RFC 6675-style scoreboard). On by
    /// default, matching the Linux kernel the paper ran on; off = plain
    /// NewReno (ablation).
    pub sack: bool,
    /// ECN (RFC 3168): mark data packets ECT and treat ECN-Echo as a
    /// congestion signal (one window reduction per RTT). Off by default,
    /// like stock Linux for outgoing connections.
    pub ecn: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: MSS,
            src_port: 5000,
            dst_port: 5001,
            initial_cwnd: crate::cc::initial_window(MSS),
            sack: true,
            ecn: false,
        }
    }
}

/// Duplicate-ACK threshold for fast retransmit (RFC 5681).
const DUPACK_THRESHOLD: u32 = 3;

/// Why the sender is in a recovery episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryKind {
    /// Entered via three duplicate ACKs (NewReno fast recovery).
    Fast,
    /// Entered via retransmission timeout (go-back-N driven by partial ACKs).
    Rto,
}

#[derive(Debug, Clone, Copy)]
struct Recovery {
    kind: RecoveryKind,
    /// `snd_nxt` at entry; an ACK at or beyond this ends the episode.
    recover: u64,
}

/// A segment the sender wants transmitted.
#[derive(Debug, Clone)]
pub struct SegmentTx {
    /// Absolute stream offset of the first payload byte.
    pub offset: u64,
    /// Payload length in bytes (virtual).
    pub len: u32,
    /// The header, fully populated (seq/ports/timestamps/window).
    /// Callers may add options (e.g. a DSS mapping) before encoding.
    pub seg: TcpSegment,
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// Data segments sent (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Fast-retransmit loss episodes.
    pub loss_events: u64,
    /// Retransmission timeouts.
    pub rtos: u64,
    /// Tail loss probes sent.
    pub tlp_probes: u64,
    /// ECN-Echo-triggered window reductions.
    pub ecn_reductions: u64,
    /// Total bytes cumulatively acknowledged.
    pub bytes_acked: u64,
}

/// The sender state machine. See the module docs.
///
/// A sender is in one of three states, and only the second one sends:
///
/// * **dormant** ([`TcpSender::dormant`]): its configuration and zero
///   counters, nothing else;
/// * **live** ([`TcpSender::start`]): a boxed part holds the RTT estimator
///   (and the base-RTT filter, for a controller that reads it), application
///   backlog, SACK scoreboard, retransmit queue, recovery, timer, TLP and
///   ECN state;
/// * **retired** ([`TcpSender::release_finished`] on a finished sender that
///   no later ACK can move): the boxed part is gone again.
///
/// What stays inline in every state — configuration, [`SenderStats`], the
/// SACK-block count, the scoreboard's high-water mark, `snd_una` and
/// `snd_nxt` — answers every counter and sequence query; a dormant or
/// retired sender polls no segment, needs no timer and absorbs ACKs.
///
/// The congestion controller is not part of the sender: the caller owns
/// it and lends it to [`TcpSender::start`], [`TcpSender::poll_segment`],
/// [`TcpSender::on_ack`], [`TcpSender::on_timer`] and
/// [`TcpSender::send_window`]. So `Clone` (a simulator checkpoint) is a plain
/// copy of the sender's own state, and the caller copies its controller
/// beside it.
#[derive(Debug, Clone)]
pub struct TcpSender {
    cfg: TcpConfig,
    stats: SenderStats,
    /// SACK blocks entered into the scoreboard (a work counter; not part
    /// of [`SenderStats`], which is a stored record).
    sack_blocks: u64,
    /// Most ranges the scoreboard held at once, kept here when the
    /// scoreboard goes with the live part (a work counter).
    scoreboard_max_len: usize,
    /// First unacknowledged stream offset.
    snd_una: u64,
    /// Next stream offset to send.
    snd_nxt: u64,
    /// Present only while the sender is live.
    live: Option<Box<Live>>,
}

/// What only a live [`TcpSender`] reads.
#[derive(Debug, Clone)]
struct Live {
    rtt: RttEstimator,
    /// The windowed base-RTT filter, present only while the controller the
    /// sender started with reads it ([`CongestionControl::reads_min_rtt`]).
    min_rtt: Option<Box<MinRttFilter>>,
    /// Bytes of application data available beyond `snd_nxt`.
    available: u64,
    /// If true, the application always has data (iperf model).
    unlimited: bool,
    /// Peer's advertised window (bytes): [`RECEIVE_WINDOW`] until the
    /// first ACK.
    peer_window: u64,
    dup_acks: u32,
    recovery: Option<Recovery>,
    /// NewReno window inflation during fast recovery (bytes).
    inflation: u64,
    /// Offsets queued for retransmission; holds no buffer once drained.
    rtx_pending: std::collections::VecDeque<u64>,
    /// SACK scoreboard: received ranges above `snd_una` (stream offsets).
    scoreboard: RangeSet,
    /// Highest offset retransmitted during the current SACK recovery.
    high_rtx: u64,
    rto_deadline: Option<SimTime>,
    /// Tail-loss-probe deadline (armed while data is in flight, outside
    /// recovery; one probe per silence episode).
    tlp_deadline: Option<SimTime>,
    /// ECN: no further ECE-triggered reduction before this instant (one
    /// reduction per RTT), and CWR must be set on the next data segment.
    ecn_cwr_until: SimTime,
    ecn_send_cwr: bool,
    /// Most recent tsval received from the peer (echoed in our segments).
    peer_tsval: u32,
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter live part fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<Live>() <= 232);

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter sender fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<TcpSender>() <= 120);

impl TcpSender {
    /// Create a dormant sender: configuration and zero counters only,
    /// until [`TcpSender::start`].
    pub fn dormant(cfg: TcpConfig) -> Self {
        TcpSender {
            cfg,
            stats: SenderStats::default(),
            sack_blocks: 0,
            scoreboard_max_len: 0,
            snd_una: 0,
            snd_nxt: 0,
            live: None,
        }
    }

    /// Make a dormant sender live for the controller `cc`, which every
    /// later call lends it again; asked here, once, whether it reads the
    /// base RTT. Called once, before anything else reaches the sender
    /// (debug builds assert that it is not live yet).
    pub fn start(&mut self, cc: &dyn CongestionControl) {
        debug_assert!(self.live.is_none(), "a sender starts once");
        self.live = Some(Box::new(Live {
            min_rtt: cc.reads_min_rtt().then(Box::default),
            rtt: RttEstimator::default(),
            available: 0,
            unlimited: false,
            peer_window: u64::from(RECEIVE_WINDOW),
            dup_acks: 0,
            recovery: None,
            inflation: 0,
            rtx_pending: Default::default(),
            scoreboard: Default::default(),
            high_rtx: 0,
            rto_deadline: None,
            tlp_deadline: None,
            ecn_cwr_until: SimTime::ZERO,
            ecn_send_cwr: false,
            peer_tsval: 0,
        }));
    }

    /// True between [`TcpSender::start`] and retirement.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// Make the application source unlimited (bulk transfer). A setting of
    /// the live part: only a live sender may be given it (debug builds
    /// assert so; a release build ignores it otherwise).
    pub fn set_unlimited(&mut self) {
        debug_assert!(
            self.live.is_some(),
            "application data for a sender that is not live"
        );
        if let Some(l) = &mut self.live {
            l.unlimited = true;
        }
    }

    /// Supply `bytes` of application data. Only a live sender sends, so
    /// only a live sender may be given any (debug builds assert so; a
    /// release build ignores it otherwise).
    pub fn push_app_data(&mut self, bytes: u64) {
        debug_assert!(
            self.live.is_some(),
            "application data for a sender that is not live"
        );
        if let Some(l) = &mut self.live {
            l.available += bytes;
        }
    }

    /// Application bytes not yet handed to the network (0 unless live).
    pub fn app_backlog(&self) -> u64 {
        match &self.live {
            Some(l) if l.unlimited => u64::MAX,
            Some(l) => l.available,
            None => 0,
        }
    }

    /// Bytes in flight (sent but unacknowledged).
    pub fn flight_size(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// First unacknowledged stream offset.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next stream offset to be sent.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// Effective send window under `cc`: min(cwnd + inflation, peer
    /// window); 0 unless live.
    pub fn send_window(&self, cc: &dyn CongestionControl) -> u64 {
        self.live.as_ref().map_or(0, |l| Self::window_of(l, cc))
    }

    fn window_of(l: &Live, cc: &dyn CongestionControl) -> u64 {
        (cc.cwnd() + l.inflation).min(l.peer_window)
    }

    /// The RTT estimator (for inspection), while live.
    pub fn rtt(&self) -> Option<&RttEstimator> {
        self.live.as_ref().map(|l| &l.rtt)
    }

    /// The connection this sender belongs to has finished (everything sent
    /// is acknowledged and nothing more will be): give back what only a
    /// live sender reads.
    ///
    /// When no later ACK can change a counter — nothing in flight, nothing
    /// queued, ECN off — that is the whole live part: the sender retires.
    /// A late ACK then finds `snd_una == snd_nxt`, so its SACK blocks clamp
    /// to nothing and it is neither new data nor a counted duplicate. With
    /// ECN on, a late ECN-Echo still counts in `ecn_reductions` (at most
    /// once per smoothed RTT), so the sender stays live and gives back only
    /// the base-RTT filter, if its controller had one: the filter feeds
    /// [`AckContext::min_rtt`] only when an ACK newly acknowledges data, and
    /// a finished sender has none in flight, so no controller can tell.
    /// Idempotent; a late duplicate ACK does not bring the filter back.
    pub fn release_finished(&mut self) {
        debug_assert_eq!(self.flight_size(), 0, "released with data in flight");
        let stays_live = self.cfg.ecn || self.app_backlog() > 0;
        let Some(l) = &mut self.live else {
            return;
        };
        if stays_live {
            l.min_rtt = None;
        } else {
            self.scoreboard_max_len = l.scoreboard.max_len();
            self.live = None;
        }
    }

    /// Counters.
    pub fn stats(&self) -> &SenderStats {
        &self.stats
    }

    /// Add this sender's share to the run's work counters.
    pub fn count(&self, counters: &mut SimCounters) {
        counters.tcp_segments_sent += self.stats.segments_sent;
        counters.tcp_retransmits += self.stats.retransmits;
        counters.tcp_rtos += self.stats.rtos;
        counters.tcp_sack_blocks += self.sack_blocks;
        let max_len = self
            .live
            .as_ref()
            .map_or(self.scoreboard_max_len, |l| l.scoreboard.max_len());
        counters.range_set_max_len = counters.range_set_max_len.max(max_len as u64);
    }

    /// True while in a loss-recovery episode.
    pub fn in_recovery(&self) -> bool {
        self.live.as_ref().is_some_and(|l| l.recovery.is_some())
    }

    /// This sender's configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// End of the highest SACKed range (or `snd_una` if none).
    fn highest_sacked(&self, l: &Live) -> u64 {
        l.scoreboard
            .as_slice()
            .last()
            .map_or(self.snd_una, |&(_, e)| e)
    }

    /// RFC 6675-style pipe estimate: bytes believed in the network —
    /// flight minus SACKed bytes minus not-yet-retransmitted lost bytes.
    fn pipe(&self, l: &Live) -> u64 {
        self.flight_size()
            .saturating_sub(l.scoreboard.bytes())
            .saturating_sub(self.lost_unrtx_bytes(l))
    }

    /// The reordering allowance before a hole counts as lost:
    /// DupThresh segments of SACKed data above it (RFC 6675 IsLost).
    fn loss_threshold(&self) -> u64 {
        DUPACK_THRESHOLD as u64 * self.cfg.mss as u64
    }

    /// Bytes in deemed-lost holes that have not been retransmitted yet.
    /// A byte at offset `o` is deemed lost when at least `loss_threshold`
    /// bytes above it have been SACKed, i.e. `o + threshold <= highest`.
    fn lost_unrtx_bytes(&self, l: &Live) -> u64 {
        let highest = self.highest_sacked(l);
        let threshold = self.loss_threshold();
        let Some(lost_cutoff) = highest.checked_sub(threshold).map(|v| v + 1) else {
            return 0;
        };
        let mut lost = 0u64;
        let mut cursor = self.snd_una.max(l.high_rtx);
        for &(rs, re) in l.scoreboard.as_slice() {
            if re <= cursor {
                continue;
            }
            if rs > cursor {
                let lost_end = rs.min(lost_cutoff);
                if lost_end > cursor {
                    lost += lost_end - cursor;
                }
            }
            cursor = cursor.max(re);
        }
        lost
    }

    /// The first deemed-lost, not-yet-retransmitted hole at or after
    /// `from`, clipped to one MSS.
    fn first_lost_hole(&self, l: &Live, from: u64) -> Option<(u64, u32)> {
        let highest = self.highest_sacked(l);
        let mut cursor = from;
        if cursor >= highest {
            return None;
        }
        loop {
            // Skip SACKed ranges covering the cursor.
            if let Some((rs, re)) = l.scoreboard.floor(cursor) {
                if re > cursor {
                    debug_assert!(rs <= cursor);
                    cursor = re;
                    continue;
                }
            }
            if cursor >= highest {
                return None;
            }
            // The hole runs until the next SACKed range (or `highest`).
            let hole_end = l
                .scoreboard
                .first_at_or_after(cursor)
                .map_or(highest, |(rs, _)| rs)
                .min(highest);
            debug_assert!(hole_end > cursor);
            // Deemed lost only with DupThresh worth of SACKed data above.
            if highest < cursor + self.loss_threshold() {
                return None;
            }
            // Bounded by `mss`, so the conversion cannot truncate.
            let len = u32::try_from((hole_end - cursor).min(u64::from(self.cfg.mss)))
                .unwrap_or(self.cfg.mss);
            return Some((cursor, len));
        }
    }

    /// Record one SACK block, clipped to what is outstanding.
    fn insert_sack_block(&mut self, l: &mut Live, start: u64, end: u64) {
        let (start, end) = (start.max(self.snd_una), end.min(self.snd_nxt));
        if start < end {
            self.sack_blocks += 1;
            l.scoreboard.insert(start, end);
        }
    }

    fn make_segment(&self, l: &mut Live, now: SimTime, offset: u64) -> TcpSegment {
        let cwr = std::mem::take(&mut l.ecn_send_cwr);
        TcpSegment {
            src_port: self.cfg.src_port,
            dst_port: self.cfg.dst_port,
            seq: SeqNum::from_offset(ISN, offset),
            ack: SeqNum(0),
            flags: TcpFlags {
                cwr,
                ..TcpFlags::default()
            },
            window: 0, // sender side advertises nothing useful in one-way flows
            ts: Some(Timestamps {
                tsval: Timestamps::tsval_at(now),
                tsecr: l.peer_tsval,
            }),
            sack: SackList::new(),
            dss: None,
        }
    }

    /// Length of the segment whose first byte is `offset` (MSS, except a
    /// possibly short tail for bounded transfers).
    fn segment_len_at(&self, l: &Live, offset: u64) -> u32 {
        let mss = self.cfg.mss as u64;
        if l.unlimited {
            return self.cfg.mss;
        }
        // Total stream length = snd_nxt + available.
        let end = self.snd_nxt + l.available;
        // Bounded by `mss`, so the conversion cannot truncate.
        u32::try_from((end - offset).min(mss)).unwrap_or(self.cfg.mss)
    }

    /// Produce the next segment to transmit, if any. Call repeatedly until
    /// `None`. Retransmissions take priority over new data; `cc` says the
    /// window. A sender that is not live has nothing to send.
    pub fn poll_segment(&mut self, now: SimTime, cc: &dyn CongestionControl) -> Option<SegmentTx> {
        let mut l = self.live.take()?;
        let tx = self.poll_live(&mut l, now, cc);
        self.live = Some(l);
        tx
    }

    fn poll_live(
        &mut self,
        l: &mut Live,
        now: SimTime,
        cc: &dyn CongestionControl,
    ) -> Option<SegmentTx> {
        // 1. Pending retransmissions. The queue gives its buffer back when
        // it drains: one allocation per retransmission episode, none at rest.
        while let Some(off) = l.rtx_pending.pop_front() {
            if l.rtx_pending.is_empty() {
                l.rtx_pending = std::collections::VecDeque::new();
            }
            if off < self.snd_una {
                continue; // already acked while queued
            }
            // Both bounds are clamped to `mss`, so neither conversion can
            // truncate.
            let sent_len = u32::try_from((self.snd_nxt - off).min(u64::from(self.cfg.mss)))
                .unwrap_or(self.cfg.mss);
            let len = self.segment_len_at(l, off).min(sent_len);
            if len == 0 {
                continue;
            }
            self.stats.segments_sent += 1;
            self.stats.retransmits += 1;
            Self::arm_rto(l, now);
            return Some(SegmentTx {
                offset: off,
                len,
                seg: self.make_segment(l, now, off),
            });
        }

        // 2. SACK-driven retransmissions during fast recovery: fill the
        // first deemed-lost hole, as long as the pipe has room (RFC 6675).
        if self.cfg.sack && matches!(l.recovery, Some(r) if r.kind == RecoveryKind::Fast) {
            let from = self.snd_una.max(l.high_rtx);
            if let Some((off, len)) = self.first_lost_hole(l, from) {
                if self.pipe(l) + len as u64 <= cc.cwnd() {
                    l.high_rtx = off + len as u64;
                    self.stats.segments_sent += 1;
                    self.stats.retransmits += 1;
                    Self::arm_rto(l, now);
                    return Some(SegmentTx {
                        offset: off,
                        len,
                        seg: self.make_segment(l, now, off),
                    });
                }
                // Pipe full: neither retransmissions nor new data fit.
                return None;
            }
        }

        // 3. New data within the window.
        let (used, window) = if self.cfg.sack {
            // Pipe-based accounting (SACKed and deemed-lost bytes do not
            // occupy the network); peer flow control still applies below.
            (self.pipe(l), cc.cwnd().min(l.peer_window))
        } else {
            (self.flight_size(), Self::window_of(l, cc))
        };
        if used >= window {
            return None;
        }
        let room = window - used;
        let len = self.segment_len_at(l, self.snd_nxt);
        if len == 0 {
            return None;
        }
        if room < len as u64 {
            // Avoid silly-window segments: send only when a full segment
            // (or the final short tail) fits. `room` is compared at full
            // u64 width: truncated, a room whose low 32 bits fall below one
            // MSS would stall the sender.
            return None;
        }
        if self.flight_size() + len as u64 > l.peer_window {
            return None; // receive-buffer flow control
        }
        let offset = self.snd_nxt;
        self.snd_nxt += len as u64;
        if !l.unlimited {
            l.available -= len as u64;
        }
        self.stats.segments_sent += 1;
        if l.rto_deadline.is_none() {
            Self::arm_rto(l, now);
        }
        self.arm_tlp(l, now);
        Some(SegmentTx {
            offset,
            len,
            seg: self.make_segment(l, now, offset),
        })
    }

    /// The stream offset the wire acknowledgement number `ack` names, or
    /// `None` if it lies before the start of the stream (wild input: an
    /// agent counts the packet as malformed instead of calling `on_ack`).
    pub fn ack_offset(&self, ack: SeqNum) -> Option<u64> {
        ack.expand(ISN, self.snd_una)
    }

    /// Process an incoming (pure) ACK segment, lent the controller `cc`
    /// that it may move. One whose acknowledgement
    /// number [`TcpSender::ack_offset`] cannot place, or that acknowledges
    /// data never sent, is ignored whole, and so is every ACK to a sender
    /// that is not live (a dormant one has sent nothing; a retired one is
    /// owed nothing and, with ECN off, could not count a late ACK anywhere
    /// — see [`TcpSender::release_finished`]).
    pub fn on_ack(&mut self, now: SimTime, seg: &TcpSegment, cc: &mut dyn CongestionControl) {
        debug_assert!(seg.flags.ack, "non-ACK segment fed to sender");
        let Some(mut l) = self.live.take() else {
            return;
        };
        self.ack_live(&mut l, now, seg, cc);
        self.live = Some(l);
    }

    fn ack_live(
        &mut self,
        l: &mut Live,
        now: SimTime,
        seg: &TcpSegment,
        cc: &mut dyn CongestionControl,
    ) {
        // An ACK of data never sent is dropped whole (RFC 793 §3.9): neither
        // its window nor its timestamp echo is believed.
        let Some(ack_offset) = self
            .ack_offset(seg.ack)
            .filter(|&ack_offset| ack_offset <= self.snd_nxt)
        else {
            return;
        };
        l.peer_window = seg.window as u64;

        // RTT sample from the echoed timestamp.
        if let Some(ts) = &seg.ts {
            l.peer_tsval = ts.tsval;
            if ts.tsecr != 0 {
                let sample_us = Timestamps::tsval_at(now).wrapping_sub(ts.tsecr);
                // Reject absurd samples from clock wrap (> 1 hour).
                if sample_us < 3_600_000_000 {
                    let rtt = SimDuration::from_micros(sample_us as u64);
                    l.rtt.on_sample(rtt);
                    if let Some(filter) = &mut l.min_rtt {
                        filter.on_sample(now, rtt);
                    }
                }
            }
        }

        // ECN: an ECN-Echo is a congestion signal equivalent to a loss,
        // reacted to at most once per RTT (RFC 3168 §6.1.2).
        if self.cfg.ecn && seg.flags.ece && now >= l.ecn_cwr_until {
            cc.on_loss_event(self.flight_size());
            self.check_cwnd_floor(cc);
            self.stats.ecn_reductions += 1;
            l.ecn_send_cwr = true;
            let rtt = l.rtt.srtt().unwrap_or(SimDuration::from_millis(100));
            l.ecn_cwr_until = now + rtt;
        }

        // Ingest SACK blocks into the scoreboard.
        if self.cfg.sack {
            for (lo, hi) in &seg.sack {
                // A block edge before the start of the stream is wild
                // input; the block is skipped like an empty one.
                let (Some(ls), Some(rs)) = (self.ack_offset(*lo), self.ack_offset(*hi)) else {
                    continue;
                };
                if rs > ls {
                    self.insert_sack_block(l, ls, rs);
                }
            }
        }

        if ack_offset > self.snd_una {
            let flight_before = self.flight_size();
            let newly = ack_offset - self.snd_una;
            self.snd_una = ack_offset;
            l.dup_acks = 0;
            self.stats.bytes_acked += newly;
            if self.cfg.sack {
                l.scoreboard.trim_below(self.snd_una);
                l.high_rtx = l.high_rtx.max(self.snd_una);
            }

            match l.recovery {
                Some(rec) if ack_offset >= rec.recover => {
                    // Full ACK: recovery complete.
                    l.recovery = None;
                    l.inflation = 0;
                }
                Some(rec) => {
                    // Partial ACK: the next hole is lost too. With SACK the
                    // scoreboard drives retransmissions from poll_segment;
                    // without it, NewReno retransmits the hole directly and
                    // deflates the inflated window (RFC 6582).
                    let sack_driven =
                        self.cfg.sack && rec.kind == RecoveryKind::Fast && !l.scoreboard.is_empty();
                    if !sack_driven {
                        l.rtx_pending.push_back(self.snd_una);
                        l.inflation = l.inflation.saturating_sub(newly);
                    }
                }
                None => {
                    cc.on_ack(&AckContext {
                        now,
                        bytes_acked: newly,
                        srtt: l.rtt.srtt(),
                        latest_rtt: l.rtt.latest(),
                        min_rtt: l.min_rtt.as_ref().and_then(|f| f.min()),
                        flight_size: flight_before,
                        mss: self.cfg.mss,
                    });
                    self.check_cwnd_floor(cc);
                }
            }

            if self.flight_size() > 0 {
                Self::arm_rto(l, now);
            } else {
                l.rto_deadline = None;
            }
            self.arm_tlp(l, now);
            return;
        }

        // Duplicate ACK (no window update handling needed in the model).
        if self.flight_size() == 0 {
            return;
        }
        l.dup_acks += 1;

        // SACK-based loss detection: a deemed-lost hole opens recovery.
        if self.cfg.sack && !l.scoreboard.is_empty() {
            if l.recovery.is_none() && self.first_lost_hole(l, self.snd_una).is_some() {
                self.enter_fast_recovery(l, cc, true);
            }
            return;
        }

        match &l.recovery {
            Some(rec) if rec.kind == RecoveryKind::Fast => {
                // Window inflation: each dup ACK signals a departed segment.
                // Capped at cwnd: without SACK a recovery episode can last
                // one RTT per lost segment, and uncapped inflation (the
                // literal RFC 5681 rule) lets the flight grow without bound
                // against a large advertised window.
                l.inflation = (l.inflation + self.cfg.mss as u64).min(cc.cwnd());
            }
            Some(_) => {}
            None => {
                if l.dup_acks == DUPACK_THRESHOLD {
                    self.enter_fast_recovery(l, cc, false);
                }
            }
        }
    }

    /// Congestion-window floor: no CC algorithm may report a window below
    /// one segment — the send loop could then never admit a full-sized
    /// segment and the flow would deadlock. Called after every CC callback
    /// (ack, loss, RTO).
    fn check_cwnd_floor(&self, cc: &dyn CongestionControl) {
        assert!(
            cc.cwnd() >= u64::from(self.cfg.mss),
            "cwnd {} below 1 MSS ({}) after CC update",
            cc.cwnd(),
            self.cfg.mss,
        );
    }

    /// Enter fast recovery: one loss event for `cc`, recovering up to
    /// `snd_nxt`. SACK-driven, the scoreboard picks the retransmissions;
    /// otherwise (NewReno) the presumed-lost head is queued and the window
    /// inflated for the threshold dup ACKs already seen.
    fn enter_fast_recovery(
        &mut self,
        l: &mut Live,
        cc: &mut dyn CongestionControl,
        sack_driven: bool,
    ) {
        cc.on_loss_event(self.flight_size());
        self.check_cwnd_floor(cc);
        self.stats.loss_events += 1;
        l.recovery = Some(Recovery {
            kind: RecoveryKind::Fast,
            recover: self.snd_nxt,
        });
        if sack_driven {
            l.high_rtx = self.snd_una;
            l.inflation = 0;
        } else {
            l.rtx_pending.push_back(self.snd_una);
            l.inflation = DUPACK_THRESHOLD as u64 * self.cfg.mss as u64;
        }
    }

    /// Next deadline this sender needs a timer callback for (none unless
    /// live).
    pub fn next_timer(&self) -> Option<SimTime> {
        let l = self.live.as_ref()?;
        match (l.rto_deadline, l.tlp_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Timer callback, lent the controller `cc` that an RTO collapses.
    /// Safe to call spuriously; only acts if a deadline has actually passed.
    pub fn on_timer(&mut self, now: SimTime, cc: &mut dyn CongestionControl) {
        let Some(mut l) = self.live.take() else {
            return;
        };
        self.timer_live(&mut l, now, cc);
        self.live = Some(l);
    }

    fn timer_live(&mut self, l: &mut Live, now: SimTime, cc: &mut dyn CongestionControl) {
        // Tail loss probe: fires well before the RTO and retransmits the
        // tail segment once, converting a silent tail loss into SACK/dup-ACK
        // feedback.
        if let Some(tlp) = l.tlp_deadline {
            if now >= tlp {
                l.tlp_deadline = None;
                if self.flight_size() > 0 && l.recovery.is_none() {
                    self.stats.tlp_probes += 1;
                    let len = self.flight_size().min(self.cfg.mss as u64);
                    l.rtx_pending.push_back(self.snd_nxt - len);
                }
            }
        }
        let Some(deadline) = l.rto_deadline else {
            return;
        };
        if now < deadline || self.flight_size() == 0 {
            return;
        }
        // Retransmission timeout.
        self.stats.rtos += 1;
        cc.on_rto(self.flight_size());
        self.check_cwnd_floor(cc);
        l.rtt.on_timeout();
        l.dup_acks = 0;
        l.inflation = 0;
        l.recovery = Some(Recovery {
            kind: RecoveryKind::Rto,
            recover: self.snd_nxt,
        });
        l.rtx_pending.clear();
        l.rtx_pending.push_back(self.snd_una);
        // RFC 6675 allows keeping the scoreboard across an RTO; we clear
        // the retransmission high-water mark so go-back-N starts fresh.
        l.high_rtx = self.snd_una;
        Self::arm_rto(l, now);
    }

    fn arm_rto(l: &mut Live, now: SimTime) {
        l.rto_deadline = Some(now + l.rtt.rto());
    }

    /// (Re-)arm the tail loss probe (RFC 8985 / Linux TLP) ~2 SRTT out, so
    /// a lost burst tail is detected by SACK/dup-ACK instead of a 200 ms+
    /// RTO (only meaningful with data in flight and outside recovery).
    fn arm_tlp(&self, l: &mut Live, now: SimTime) {
        if self.flight_size() == 0 || l.recovery.is_some() {
            l.tlp_deadline = None;
            return;
        }
        let Some(srtt) = l.rtt.srtt() else {
            return;
        };
        let pto = (srtt * 2 + SimDuration::from_millis(2)).max(SimDuration::from_millis(10));
        l.tlp_deadline = Some(now + pto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Cubic;

    const MSS: u32 = 1460;

    /// A bulk sender started over `cfg`, and the CUBIC controller every
    /// call lends it.
    fn started(cfg: TcpConfig) -> (TcpSender, Cubic) {
        let cc = Cubic::new(cfg.initial_cwnd, cfg.mss);
        let mut s = TcpSender::dormant(cfg);
        s.start(&cc);
        s.set_unlimited();
        (s, cc)
    }

    fn sender() -> (TcpSender, Cubic) {
        started(TcpConfig::default())
    }

    fn ack_seg(offset: u64, tsecr: u32) -> TcpSegment {
        TcpSegment {
            src_port: 5001,
            dst_port: 5000,
            seq: SeqNum(0),
            ack: SeqNum::from_offset(ISN, offset),
            flags: TcpFlags::ACK,
            window: RECEIVE_WINDOW,
            ts: Some(Timestamps { tsval: 1, tsecr }),
            sack: SackList::new(),
            dss: None,
        }
    }

    fn drain(s: &mut TcpSender, cc: &dyn CongestionControl, now: SimTime) -> Vec<SegmentTx> {
        std::iter::from_fn(|| s.poll_segment(now, cc)).collect()
    }

    #[test]
    fn initial_burst_is_limited_by_initial_cwnd() {
        let (mut s, cc) = sender();
        let segs = drain(&mut s, &cc, SimTime::ZERO);
        assert_eq!(segs.len(), 10); // IW10
        assert_eq!(s.flight_size(), 10 * MSS as u64);
        for (i, seg) in segs.iter().enumerate() {
            assert_eq!(seg.offset, i as u64 * MSS as u64);
            assert_eq!(seg.len, MSS);
        }
        assert_eq!(s.stats().retransmits, 0);
        // A timer must now be armed.
        assert!(s.next_timer().is_some());
    }

    #[test]
    fn ack_frees_window_and_grows_cwnd() {
        let (mut s, mut cc) = sender();
        // Start at t=1ms so tsval != 0 (0 means "no echo" on the wire).
        let t0 = SimTime::from_millis(1);
        let segs = drain(&mut s, &cc, t0);
        let tsval = segs[0].seg.ts.unwrap().tsval;
        let t1 = SimTime::from_millis(11);
        s.on_ack(t1, &ack_seg(2 * MSS as u64, tsval), &mut cc);
        assert_eq!(s.snd_una(), 2 * MSS as u64);
        // Slow start: cwnd grew by the acked amount; 2 freed + 2 grown = 4.
        let more = drain(&mut s, &cc, t1);
        assert_eq!(more.len(), 4);
        // RTT was sampled (10 ms).
        let srtt = s.rtt().and_then(|r| r.srtt()).unwrap();
        assert_eq!(srtt, SimDuration::from_millis(10));
    }

    #[test]
    fn bounded_transfer_sends_short_tail() {
        let cfg = TcpConfig::default();
        let mut cc = Cubic::new(cfg.initial_cwnd, cfg.mss);
        let mut s = TcpSender::dormant(cfg);
        s.start(&cc);
        s.push_app_data(3 * MSS as u64 + 100);
        let segs = drain(&mut s, &cc, SimTime::ZERO);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[3].len, 100);
        assert_eq!(s.app_backlog(), 0);
        // Everything acked -> timer disarmed.
        let total = 3 * MSS as u64 + 100;
        s.on_ack(SimTime::from_millis(5), &ack_seg(total, 0), &mut cc);
        assert_eq!(s.flight_size(), 0);
        assert!(s.next_timer().is_none());
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let (mut s, mut cc) = sender();
        let t0 = SimTime::ZERO;
        let _ = drain(&mut s, &cc, t0);
        // Ack first segment to establish snd_una = 1 MSS.
        s.on_ack(SimTime::from_millis(10), &ack_seg(MSS as u64, 0), &mut cc);
        let _ = drain(&mut s, &cc, SimTime::from_millis(10));
        let cwnd_before = cc.cwnd();

        // Segment at offset MSS is lost: three dup ACKs arrive.
        let t = SimTime::from_millis(20);
        for i in 0..3 {
            s.on_ack(t, &ack_seg(MSS as u64, 0), &mut cc);
            assert_eq!(s.snd_una(), MSS as u64);
            assert_eq!(s.in_recovery(), i == 2);
        }
        assert_eq!(s.stats().loss_events, 1);
        assert!(cc.cwnd() < cwnd_before, "multiplicative decrease");

        // The head segment is retransmitted first.
        let seg = s.poll_segment(t, &cc).expect("retransmission due");
        assert_eq!(s.stats().retransmits, 1);
        assert_eq!(seg.offset, MSS as u64);
    }

    #[test]
    fn full_ack_exits_recovery_and_deflates() {
        let (mut s, mut cc) = sender();
        let t0 = SimTime::ZERO;
        let _ = drain(&mut s, &cc, t0);
        s.on_ack(SimTime::from_millis(10), &ack_seg(MSS as u64, 0), &mut cc);
        let _ = drain(&mut s, &cc, SimTime::from_millis(10));
        let recover_point = s.snd_nxt();
        let t = SimTime::from_millis(20);
        for _ in 0..3 {
            s.on_ack(t, &ack_seg(MSS as u64, 0), &mut cc);
        }
        let _rtx = s.poll_segment(t, &cc);
        // Full cumulative ACK arrives.
        assert!(s.in_recovery());
        s.on_ack(
            SimTime::from_millis(30),
            &ack_seg(recover_point, 0),
            &mut cc,
        );
        assert!(!s.in_recovery());
        assert_eq!(s.send_window(&cc), cc.cwnd()); // inflation gone
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let (mut s, mut cc) = sender();
        let t0 = SimTime::ZERO;
        let _ = drain(&mut s, &cc, t0);
        s.on_ack(SimTime::from_millis(10), &ack_seg(MSS as u64, 0), &mut cc);
        let _ = drain(&mut s, &cc, SimTime::from_millis(10));
        let t = SimTime::from_millis(20);
        for _ in 0..3 {
            s.on_ack(t, &ack_seg(MSS as u64, 0), &mut cc);
        }
        let _rtx = s.poll_segment(t, &cc).unwrap();
        // Partial ACK: advances but not past recover.
        s.on_ack(
            SimTime::from_millis(30),
            &ack_seg(3 * MSS as u64, 0),
            &mut cc,
        );
        assert_eq!(s.snd_una(), 3 * MSS as u64);
        assert!(s.in_recovery());
        // The hole at the new snd_una is retransmitted without new dup ACKs.
        let seg = s
            .poll_segment(SimTime::from_millis(30), &cc)
            .expect("partial-ack rtx");
        assert_eq!(s.stats().retransmits, 2);
        assert_eq!(seg.offset, 3 * MSS as u64);
    }

    #[test]
    fn dup_acks_inflate_window_during_recovery() {
        // NewReno (no SACK): dup ACKs inflate the window one MSS each,
        // capped at cwnd.
        let (mut s, mut cc) = started(TcpConfig {
            sack: false,
            ..TcpConfig::default()
        });
        let _ = drain(&mut s, &cc, SimTime::ZERO);
        s.on_ack(SimTime::from_millis(10), &ack_seg(MSS as u64, 0), &mut cc);
        let _ = drain(&mut s, &cc, SimTime::from_millis(10));
        let t = SimTime::from_millis(20);
        for _ in 0..3 {
            s.on_ack(t, &ack_seg(MSS as u64, 0), &mut cc);
        }
        let w0 = s.send_window(&cc);
        for _ in 0..2 {
            s.on_ack(t, &ack_seg(MSS as u64, 0), &mut cc);
        }
        assert_eq!(s.send_window(&cc), w0 + 2 * MSS as u64);
        // Many more dup ACKs: the inflation saturates at cwnd (window is
        // then exactly 2x cwnd), preventing unbounded flight growth.
        for _ in 0..100 {
            s.on_ack(t, &ack_seg(MSS as u64, 0), &mut cc);
        }
        assert_eq!(s.send_window(&cc), 2 * cc.cwnd());
    }

    #[test]
    fn rto_fires_only_after_deadline() {
        let (mut s, mut cc) = sender();
        let _ = drain(&mut s, &cc, SimTime::ZERO);
        let deadline = s.next_timer().unwrap();
        // Spurious early fire: nothing happens.
        s.on_timer(deadline - SimDuration::from_nanos(1), &mut cc);
        assert_eq!(s.stats().rtos, 0);
        // Real fire.
        s.on_timer(deadline, &mut cc);
        assert_eq!(s.stats().rtos, 1);
        assert!(s.in_recovery());
        assert_eq!(cc.cwnd(), MSS as u64);
        // Head-of-line retransmission is queued.
        let seg = s.poll_segment(deadline, &cc).unwrap();
        assert_eq!(s.stats().retransmits, 1);
        assert_eq!(seg.offset, 0);
        // Backoff doubled the next deadline's distance.
        let rto1 = s.next_timer().unwrap() - deadline;
        assert!(
            rto1 >= SimDuration::from_millis(400),
            "backed-off rto {rto1}"
        );
    }

    #[test]
    fn peer_window_caps_sending() {
        let (mut s, mut cc) = sender();
        // Tell the sender the peer only has 3 MSS of buffer. Window is
        // encoded with 128-byte granularity, so use a multiple of 128.
        let small_window = 4480; // 3 * 1460 = 4380 -> round to 4480
        let seg = TcpSegment {
            flags: TcpFlags::ACK,
            ack: SeqNum::from_offset(ISN, 0),
            window: small_window,
            ..Default::default()
        };
        // A duplicate ACK with zero flight is ignored but the window sticks.
        s.on_ack(SimTime::ZERO, &seg, &mut cc);
        let segs = drain(&mut s, &cc, SimTime::ZERO);
        // 3 full segments; the 100-byte sliver of window is not used
        // (silly-window avoidance).
        assert_eq!(segs.len(), 3, "window 4480 fits 3 full segments");
        assert!(segs.iter().all(|t| t.len == MSS));
        assert!(s.flight_size() <= small_window as u64);
    }

    #[test]
    fn stale_rtx_queue_entries_are_skipped() {
        let (mut s, mut cc) = sender();
        let _ = drain(&mut s, &cc, SimTime::ZERO);
        let t = SimTime::from_millis(20);
        for _ in 0..3 {
            s.on_ack(t, &ack_seg(0, 0), &mut cc);
        }
        // Before polling the retransmission, the lost segment gets acked.
        s.on_ack(
            SimTime::from_millis(25),
            &ack_seg(10 * MSS as u64, 0),
            &mut cc,
        );
        // The queued rtx for offset 0 must be skipped, yielding new data.
        let seg = s.poll_segment(SimTime::from_millis(25), &cc).unwrap();
        assert_eq!(s.stats().retransmits, 0);
        assert!(seg.offset >= 10 * MSS as u64);
    }

    /// An ACK of data never sent is dropped whole: it moves no edge, sets no
    /// peer window and takes no RTT sample from its timestamp echo.
    #[test]
    fn ack_beyond_snd_nxt_is_ignored() {
        let (mut s, mut cc) = sender();
        let segs = drain(&mut s, &cc, SimTime::from_millis(1));
        let tsval = segs[0].seg.ts.unwrap().tsval;
        s.on_ack(
            SimTime::from_millis(11),
            &ack_seg(MSS as u64, tsval),
            &mut cc,
        );
        let _ = drain(&mut s, &cc, SimTime::from_millis(11));
        let (window, srtt) = (s.send_window(&cc), s.rtt().and_then(|r| r.srtt()));
        assert!(srtt.is_some());
        let bogus = TcpSegment {
            window: 0,
            ..ack_seg(s.snd_nxt() + 10 * MSS as u64, 1)
        };
        s.on_ack(SimTime::from_secs(5), &bogus, &mut cc);
        assert_eq!(s.send_window(&cc), window);
        assert_eq!(s.rtt().and_then(|r| r.srtt()), srtt);
        assert_eq!(s.snd_una(), MSS as u64);
    }

    #[test]
    fn retransmission_counts_in_stats() {
        let (mut s, mut cc) = sender();
        let _ = drain(&mut s, &cc, SimTime::ZERO);
        let t = SimTime::from_millis(20);
        for _ in 0..3 {
            s.on_ack(t, &ack_seg(0, 0), &mut cc);
        }
        let _ = s.poll_segment(t, &cc).unwrap();
        assert_eq!(s.stats().retransmits, 1);
        assert_eq!(s.stats().segments_sent, 11);
    }

    #[test]
    fn ece_halves_once_per_rtt_and_sets_cwr() {
        let (mut s, mut cc) = started(TcpConfig {
            ecn: true,
            ..TcpConfig::default()
        });
        let t0 = SimTime::from_millis(1);
        let _ = drain(&mut s, &cc, t0);
        // Establish an RTT sample.
        s.on_ack(SimTime::from_millis(11), &ack_seg(MSS as u64, 1), &mut cc);
        let w0 = cc.cwnd();
        // ECE arrives: one reduction.
        let mut e = ack_seg(2 * MSS as u64, 0);
        e.flags.ece = true;
        s.on_ack(SimTime::from_millis(12), &e, &mut cc);
        let w1 = cc.cwnd();
        // CUBIC's multiplicative decrease (beta = 0.7), then the ACK's own
        // congestion-avoidance growth, under one segment.
        let cut = w0 * 7 / 10;
        assert!(
            (cut - 1..cut + MSS as u64).contains(&w1),
            "ECE must cut the window to 0.7x: {w0} -> {w1}"
        );
        assert!(w1 < s.flight_size(), "cut below the flight size");
        assert_eq!(s.stats().ecn_reductions, 1);
        // A second ECE within the same RTT is ignored.
        let mut e2 = ack_seg(3 * MSS as u64, 0);
        e2.flags.ece = true;
        s.on_ack(SimTime::from_millis(13), &e2, &mut cc);
        assert_eq!(s.stats().ecn_reductions, 1);
        // Free the window (cwnd was cut below the flight size), then the
        // next data segment carries CWR exactly once.
        s.on_ack(
            SimTime::from_millis(14),
            &ack_seg(9 * MSS as u64, 0),
            &mut cc,
        );
        let seg1 = s
            .poll_segment(SimTime::from_millis(14), &cc)
            .expect("window reopened");
        assert!(seg1.seg.flags.cwr);
        let seg2 = s
            .poll_segment(SimTime::from_millis(14), &cc)
            .expect("second segment");
        assert!(!seg2.seg.flags.cwr);
    }

    /// An ACK at `now_ms` for everything below `offset` whose timestamp
    /// echo makes an RTT sample of `rtt_us` microseconds.
    fn ack_with_rtt(
        s: &mut TcpSender,
        cc: &mut dyn CongestionControl,
        now_ms: u64,
        offset: u64,
        rtt_us: u64,
    ) {
        let now = SimTime::from_millis(now_ms);
        let tsecr = Timestamps::tsval_at(now - SimDuration::from_micros(rtt_us));
        s.on_ack(now, &ack_seg(offset, tsecr), cc);
        let _ = drain(s, cc, now);
    }

    /// A controller with a fixed window that records the `min_rtt` of every
    /// `AckContext` it is given, and reads it or not as it is told.
    #[derive(Debug)]
    struct Recording {
        reads: bool,
        seen: Vec<Option<SimDuration>>,
    }

    impl CongestionControl for Recording {
        fn on_ack(&mut self, ctx: &AckContext) {
            self.seen.push(ctx.min_rtt);
        }
        fn on_loss_event(&mut self, _: u64) {}
        fn on_rto(&mut self, _: u64) {}
        fn cwnd(&self) -> u64 {
            10 * MSS as u64
        }
        fn ssthresh(&self) -> u64 {
            u64::MAX
        }
        fn reads_min_rtt(&self) -> bool {
            self.reads
        }
    }

    #[test]
    fn only_a_controller_that_reads_it_is_given_the_min_rtt() {
        let ms = SimDuration::from_millis;
        for reads in [false, true] {
            let mut cc = Recording {
                reads,
                seen: Vec::new(),
            };
            let mut s = TcpSender::dormant(TcpConfig::default());
            s.start(&cc);
            s.set_unlimited();
            let _ = drain(&mut s, &cc, SimTime::from_millis(1));
            for (i, rtt_ms) in [30, 40, 20, 25].into_iter().enumerate() {
                let k = i as u64 + 1;
                ack_with_rtt(&mut s, &mut cc, 50 + 10 * k, k * MSS as u64, rtt_ms * 1_000);
            }
            let expected = if reads {
                vec![Some(ms(30)), Some(ms(30)), Some(ms(20)), Some(ms(20))]
            } else {
                vec![None; 4]
            };
            assert_eq!(cc.seen, expected, "reads_min_rtt {reads}");
            // The RFC 6298 estimator runs either way.
            assert_eq!(s.rtt().and_then(|r| r.latest()), Some(ms(25)));
        }
    }

    /// HyStart through the sender: CUBIC fed RTT samples that rise by half
    /// a millisecond an ACK leaves slow start before anything is lost,
    /// which it can only do if the sender hands it the base RTT.
    #[test]
    fn cubic_leaves_slow_start_on_rising_rtt_before_any_loss() {
        let cfg = TcpConfig::default();
        let mut cc = Cubic::new(cfg.initial_cwnd, cfg.mss);
        let mut s = TcpSender::dormant(cfg);
        s.start(&cc);
        s.set_unlimited();
        let _ = drain(&mut s, &cc, SimTime::from_millis(1));
        let in_slow_start = |cc: &Cubic| cc.cwnd() < cc.ssthresh();
        let mut acks = 0;
        while in_slow_start(&cc) && acks < 40 {
            acks += 1;
            ack_with_rtt(
                &mut s,
                &mut cc,
                20 + acks,
                acks * MSS as u64,
                10_000 + 500 * acks,
            );
        }
        assert!(!in_slow_start(&cc), "still in slow start after {acks} ACKs");
        // cwnd reaches HyStart's 16-segment floor at the seventh ACK; the
        // ninth's 14.5 ms is the first at least 4 ms above the 10.5 ms
        // minimum.
        assert_eq!(acks, 9);
        assert_eq!((s.stats().loss_events, s.stats().rtos), (0, 0));
    }

    fn rtx_capacity(s: &TcpSender) -> usize {
        s.live.as_ref().map_or(0, |l| l.rtx_pending.capacity())
    }

    #[test]
    fn a_drained_retransmit_queue_holds_no_buffer() {
        // RTO: the head is queued, and polled out.
        let (mut s, mut cc) = sender();
        let _ = drain(&mut s, &cc, SimTime::ZERO);
        let deadline = s.next_timer().unwrap();
        s.on_timer(deadline, &mut cc);
        assert!(rtx_capacity(&s) > 0);
        assert_eq!(s.poll_segment(deadline, &cc).map(|tx| tx.offset), Some(0));
        assert_eq!(rtx_capacity(&s), 0);

        // TLP: the tail is queued once an RTT sample arms the probe.
        let (mut s, mut cc) = sender();
        let _ = drain(&mut s, &cc, SimTime::from_millis(1));
        ack_with_rtt(&mut s, &mut cc, 11, MSS as u64, 10_000);
        let probe = s.next_timer().unwrap();
        s.on_timer(probe, &mut cc);
        assert_eq!(s.stats().tlp_probes, 1);
        assert!(rtx_capacity(&s) > 0);
        let tx = s.poll_segment(probe, &cc).expect("the probe");
        assert_eq!(tx.offset + u64::from(tx.len), s.snd_nxt());
        assert_eq!(s.stats().retransmits, 1);
        assert_eq!(rtx_capacity(&s), 0);
    }

    #[test]
    fn ece_ignored_when_ecn_disabled() {
        let (mut s, mut cc) = sender(); // default config: ecn off
        let _ = drain(&mut s, &cc, SimTime::ZERO);
        let w0 = cc.cwnd();
        let mut e = ack_seg(MSS as u64, 0);
        e.flags.ece = true;
        s.on_ack(SimTime::from_millis(5), &e, &mut cc);
        assert!(cc.cwnd() >= w0);
        assert_eq!(s.stats().ecn_reductions, 0);
    }
}
