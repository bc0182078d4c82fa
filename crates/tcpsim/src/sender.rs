//! The sans-IO TCP sender state machine.
//!
//! [`TcpSender`] owns reliability and rate control for one direction of a
//! TCP connection: it decides *which bytes may be sent now*
//! ([`TcpSender::poll_segment`]), reacts to ACKs ([`TcpSender::on_ack`]) and
//! timer expiry ([`TcpSender::on_timer`]), and exposes the next deadline it
//! needs ([`TcpSender::next_timer`]). It performs no I/O: the caller (a
//! plain-TCP agent, or the MPTCP subflow wrapper) moves segments and arms
//! timers. This mirrors smoltcp's design and makes the machine fully
//! testable without a network.
//!
//! Implemented behaviour:
//!
//! * cumulative ACKs, duplicate-ACK counting, **fast retransmit** after 3
//!   dup-ACKs, **NewReno fast recovery** with window inflation and partial-
//!   ACK retransmission (RFC 6582);
//! * **RTO** per RFC 6298 with exponential backoff, go-back-N recovery
//!   driven by partial ACKs;
//! * RTT sampling from timestamps (Karn-safe);
//! * pluggable [`CongestionControl`];
//! * flow control against the peer's advertised window.
//!
//! Segment payload bytes are virtual: the sender tracks a byte *count*
//! supplied by the application, not buffers.

use crate::cc::{AckContext, CongestionControl, LossContext};
use crate::ranges::RangeSet;
use crate::rtt::RttEstimator;
use crate::seq::SeqNum;
use crate::wire::{SackList, TcpFlags, TcpSegment, Timestamps};
use netsim::SimCounters;
use simbase::{SimDuration, SimTime};

/// Static configuration of a TCP flow endpoint.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment (payload) size in bytes.
    pub mss: u32,
    /// Initial sequence number on the wire.
    pub isn: SeqNum,
    /// Our port (identifies the subflow under ndiffports).
    pub src_port: u16,
    /// Peer port.
    pub dst_port: u16,
    /// Initial congestion window in bytes.
    pub initial_cwnd: u64,
    /// Peer receive window assumed before the first ACK arrives.
    pub assumed_peer_window: u64,
    /// Duplicate-ACK threshold for fast retransmit.
    pub dupack_threshold: u32,
    /// Use SACK-based loss recovery (RFC 6675-style scoreboard). On by
    /// default, matching the Linux kernel the paper ran on; off = plain
    /// NewReno (ablation).
    pub sack: bool,
    /// Tail loss probe (RFC 8985 / Linux TLP): after ~2 smoothed RTTs of
    /// silence with data in flight, retransmit the tail segment so a lost
    /// burst tail is detected by SACK/dup-ACK instead of a 200 ms+ RTO.
    pub tlp: bool,
    /// ECN (RFC 3168): mark data packets ECT and treat ECN-Echo as a
    /// congestion signal (one window reduction per RTT). Off by default,
    /// like stock Linux for outgoing connections.
    pub ecn: bool,
    /// Minimum retransmission timeout (Linux: 200 ms).
    pub min_rto: SimDuration,
    /// Maximum retransmission timeout.
    pub max_rto: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            isn: SeqNum(1),
            src_port: 5000,
            dst_port: 5001,
            initial_cwnd: crate::cc::initial_window(1460),
            assumed_peer_window: 4 << 20,
            dupack_threshold: 3,
            sack: true,
            tlp: true,
            ecn: false,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
        }
    }
}

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
    /// True if this is a retransmission.
    pub is_retransmission: bool,
}

/// Result of processing an ACK.
#[derive(Debug, Clone, Copy, Default)]
pub struct AckResult {
    /// Bytes newly acknowledged (0 for duplicates).
    pub newly_acked: u64,
    /// True if this ACK triggered fast retransmit.
    pub entered_recovery: bool,
    /// True if a recovery episode completed.
    pub exited_recovery: bool,
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
/// `Clone` deep-copies the congestion controller via
/// [`CongestionControl::clone_boxed`], so a cloned sender (simulator
/// checkpoint) evolves independently of the original.
#[derive(Debug, Clone)]
pub struct TcpSender {
    cfg: TcpConfig,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    /// First unacknowledged stream offset.
    snd_una: u64,
    /// Next stream offset to send.
    snd_nxt: u64,
    /// Bytes of application data available beyond `snd_nxt`.
    available: u64,
    /// If true, the application always has data (iperf model).
    unlimited: bool,
    /// Peer's advertised window (bytes).
    peer_window: u64,
    dup_acks: u32,
    recovery: Option<Recovery>,
    /// NewReno window inflation during fast recovery (bytes).
    inflation: u64,
    /// Offsets queued for retransmission.
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
    /// Half-close: the application is done; a FIN follows the last data
    /// byte (occupying one phantom sequence number, as in real TCP).
    close_requested: bool,
    fin_sent: bool,
    /// Most recent tsval received from the peer (echoed in our segments).
    peer_tsval: u32,
    stats: SenderStats,
    /// SACK blocks entered into the scoreboard (a work counter; not part
    /// of [`SenderStats`], which is a stored record).
    sack_blocks: u64,
}

impl TcpSender {
    /// Create a sender with the given congestion controller.
    pub fn new(cfg: TcpConfig, cc: Box<dyn CongestionControl>) -> Self {
        let rtt = RttEstimator::new(cfg.min_rto, cfg.max_rto);
        let peer_window = cfg.assumed_peer_window;
        TcpSender {
            cfg,
            cc,
            rtt,
            snd_una: 0,
            snd_nxt: 0,
            available: 0,
            unlimited: false,
            peer_window,
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
            close_requested: false,
            fin_sent: false,
            peer_tsval: 0,
            stats: SenderStats::default(),
            sack_blocks: 0,
        }
    }

    /// Make the application source unlimited (bulk transfer).
    pub fn set_unlimited(&mut self) {
        self.unlimited = true;
    }

    /// Supply `bytes` of application data.
    pub fn push_app_data(&mut self, bytes: u64) {
        assert!(!self.close_requested, "push after close");
        self.available += bytes;
    }

    /// Half-close the connection: after the remaining data drains, a FIN is
    /// sent (and retransmitted until acknowledged). Only meaningful for
    /// bounded sources.
    pub fn close(&mut self) {
        assert!(!self.unlimited, "cannot close an unlimited source");
        self.close_requested = true;
    }

    /// The stream offset the FIN occupies (the phantom byte after the last
    /// data byte), once `close` has been requested.
    fn fin_offset(&self) -> Option<u64> {
        if !self.close_requested {
            return None;
        }
        if self.fin_sent {
            // snd_nxt already includes the phantom byte.
            Some(self.snd_nxt - 1)
        } else {
            Some(self.snd_nxt + self.available)
        }
    }

    /// True once the peer has acknowledged everything including the FIN.
    pub fn is_closed(&self) -> bool {
        self.close_requested && self.fin_sent && self.snd_una == self.snd_nxt
    }

    /// Application bytes not yet handed to the network.
    pub fn app_backlog(&self) -> u64 {
        if self.unlimited {
            u64::MAX
        } else {
            self.available
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

    /// Effective send window: min(cwnd + inflation, peer window).
    pub fn send_window(&self) -> u64 {
        (self.cc.cwnd() + self.inflation).min(self.peer_window)
    }

    /// The congestion controller (for inspection).
    pub fn cc(&self) -> &dyn CongestionControl {
        self.cc.as_ref()
    }

    /// Mutable access to the congestion controller.
    ///
    /// Needed by `mptcpsim` to re-bind a cloned coupled controller to the
    /// clone's own shared-state handle after a checkpoint copy.
    pub fn cc_mut(&mut self) -> &mut dyn CongestionControl {
        self.cc.as_mut()
    }

    /// The RTT estimator (for inspection).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// The connection this sender belongs to has finished (everything sent
    /// is acknowledged and nothing more will be): give back what only a
    /// live sender reads. Today that is the RTT estimator's windowed-minimum
    /// filter — `rtt().min_rtt()` is `None` afterwards. Nothing can observe
    /// that: `min_rtt` feeds [`AckContext`] only when an ACK newly
    /// acknowledges data, and a finished sender has none in flight.
    /// Counters, `srtt` and the RTO stay. Idempotent; a late duplicate ACK
    /// may put one sample back, and the owner calls this again.
    pub fn release_finished(&mut self) {
        debug_assert_eq!(self.flight_size(), 0, "released with data in flight");
        self.rtt.release_min_filter();
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
        counters.range_set_max_len = counters
            .range_set_max_len
            .max(self.scoreboard.max_len() as u64);
    }

    /// True while in a loss-recovery episode.
    pub fn in_recovery(&self) -> bool {
        self.recovery.is_some()
    }

    /// This sender's configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Bytes above `snd_una` currently SACKed.
    pub fn sacked_bytes(&self) -> u64 {
        self.scoreboard.bytes()
    }

    /// End of the highest SACKed range (or `snd_una` if none).
    pub fn highest_sacked(&self) -> u64 {
        self.scoreboard
            .as_slice()
            .last()
            .map_or(self.snd_una, |&(_, e)| e)
    }

    /// RFC 6675-style pipe estimate: bytes believed in the network —
    /// flight minus SACKed bytes minus not-yet-retransmitted lost bytes.
    pub fn pipe(&self) -> u64 {
        self.flight_size()
            .saturating_sub(self.sacked_bytes())
            .saturating_sub(self.lost_unrtx_bytes())
    }

    /// The reordering allowance before a hole counts as lost:
    /// DupThresh segments of SACKed data above it (RFC 6675 IsLost).
    fn loss_threshold(&self) -> u64 {
        self.cfg.dupack_threshold as u64 * self.cfg.mss as u64
    }

    /// Bytes in deemed-lost holes that have not been retransmitted yet.
    /// A byte at offset `o` is deemed lost when at least `loss_threshold`
    /// bytes above it have been SACKed, i.e. `o + threshold <= highest`.
    fn lost_unrtx_bytes(&self) -> u64 {
        let highest = self.highest_sacked();
        let threshold = self.loss_threshold();
        let Some(lost_cutoff) = highest.checked_sub(threshold).map(|v| v + 1) else {
            return 0;
        };
        let mut lost = 0u64;
        let mut cursor = self.snd_una.max(self.high_rtx);
        for &(rs, re) in self.scoreboard.as_slice() {
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
    fn first_lost_hole(&self, from: u64) -> Option<(u64, u32)> {
        let highest = self.highest_sacked();
        let mut cursor = from;
        if cursor >= highest {
            return None;
        }
        loop {
            // Skip SACKed ranges covering the cursor.
            if let Some((rs, re)) = self.scoreboard.floor(cursor) {
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
            let hole_end = self
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
    fn insert_sack_block(&mut self, start: u64, end: u64) {
        let (start, end) = (start.max(self.snd_una), end.min(self.snd_nxt));
        if start < end {
            self.sack_blocks += 1;
            self.scoreboard.insert(start, end);
        }
    }

    fn tsval(now: SimTime) -> u32 {
        Timestamps::tsval_at(now)
    }

    fn make_segment(&mut self, now: SimTime, offset: u64) -> TcpSegment {
        let cwr = std::mem::take(&mut self.ecn_send_cwr);
        TcpSegment {
            src_port: self.cfg.src_port,
            dst_port: self.cfg.dst_port,
            seq: SeqNum::from_offset(self.cfg.isn, offset),
            ack: SeqNum(0),
            flags: TcpFlags {
                cwr,
                ..TcpFlags::default()
            },
            window: 0, // sender side advertises nothing useful in one-way flows
            ts: Some(Timestamps {
                tsval: Self::tsval(now),
                tsecr: self.peer_tsval,
            }),
            mss: None,
            sack: SackList::new(),
            dss: None,
        }
    }

    /// Length of the segment whose first byte is `offset` (MSS, except a
    /// possibly short tail for bounded transfers).
    fn segment_len_at(&self, offset: u64) -> u32 {
        let mss = self.cfg.mss as u64;
        if self.unlimited {
            return self.cfg.mss;
        }
        // Total stream length = snd_nxt + available.
        let end = self.snd_nxt + self.available;
        // Bounded by `mss`, so the conversion cannot truncate.
        u32::try_from((end - offset).min(mss)).unwrap_or(self.cfg.mss)
    }

    /// Produce the next segment to transmit, if any. Call repeatedly until
    /// `None`. Retransmissions take priority over new data.
    pub fn poll_segment(&mut self, now: SimTime) -> Option<SegmentTx> {
        // 1. Pending retransmissions.
        while let Some(off) = self.rtx_pending.pop_front() {
            if off < self.snd_una {
                continue; // already acked while queued
            }
            // A retransmission covering the FIN's phantom byte resends the
            // FIN segment itself.
            if self.fin_sent && Some(off) == self.fin_offset() {
                self.stats.segments_sent += 1;
                self.stats.retransmits += 1;
                self.arm_rto(now);
                let mut seg = self.make_segment(now, off);
                seg.flags.fin = true;
                return Some(SegmentTx {
                    offset: off,
                    len: 0,
                    seg,
                    is_retransmission: true,
                });
            }
            // Both bounds are clamped to `mss`, so neither conversion can
            // truncate.
            let sent_len = u32::try_from((self.snd_nxt - off).min(u64::from(self.cfg.mss)))
                .unwrap_or(self.cfg.mss);
            let len = self.segment_len_at(off).min(sent_len);
            if len == 0 {
                continue;
            }
            self.stats.segments_sent += 1;
            self.stats.retransmits += 1;
            self.arm_rto(now);
            return Some(SegmentTx {
                offset: off,
                len,
                seg: self.make_segment(now, off),
                is_retransmission: true,
            });
        }

        // 2. SACK-driven retransmissions during fast recovery: fill the
        // first deemed-lost hole, as long as the pipe has room (RFC 6675).
        if self.cfg.sack && matches!(self.recovery, Some(r) if r.kind == RecoveryKind::Fast) {
            let from = self.snd_una.max(self.high_rtx);
            if let Some((off, len)) = self.first_lost_hole(from) {
                if self.pipe() + len as u64 <= self.cc.cwnd() {
                    self.high_rtx = off + len as u64;
                    self.stats.segments_sent += 1;
                    self.stats.retransmits += 1;
                    self.arm_rto(now);
                    return Some(SegmentTx {
                        offset: off,
                        len,
                        seg: self.make_segment(now, off),
                        is_retransmission: true,
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
            (self.pipe(), self.cc.cwnd().min(self.peer_window))
        } else {
            (self.flight_size(), self.send_window())
        };
        if used >= window {
            return None;
        }
        let room = window - used;
        let len = self.segment_len_at(self.snd_nxt);
        if len == 0 {
            // Data exhausted: emit the FIN once (it ignores the congestion
            // window, like a real stack's zero-length FIN).
            if self.close_requested && !self.fin_sent {
                let offset = self.snd_nxt;
                self.snd_nxt += 1; // the FIN's phantom byte
                self.fin_sent = true;
                self.stats.segments_sent += 1;
                self.arm_rto_if_unarmed(now);
                let mut seg = self.make_segment(now, offset);
                seg.flags.fin = true;
                return Some(SegmentTx {
                    offset,
                    len: 0,
                    seg,
                    is_retransmission: false,
                });
            }
            return None;
        }
        if room < len as u64 {
            // Avoid silly-window segments: send only when a full segment
            // (or the final short tail) fits. `room` must be compared at
            // full u64 width: it exceeds u32 whenever cwnd and the peer
            // window do, and truncating it here stalled such senders when
            // the low 32 bits of `room` happened to fall below one MSS.
            return None;
        }
        if self.flight_size() + len as u64 > self.peer_window {
            return None; // receive-buffer flow control
        }
        let offset = self.snd_nxt;
        self.snd_nxt += len as u64;
        if !self.unlimited {
            self.available -= len as u64;
        }
        self.stats.segments_sent += 1;
        self.arm_rto_if_unarmed(now);
        self.arm_tlp(now);
        Some(SegmentTx {
            offset,
            len,
            seg: self.make_segment(now, offset),
            is_retransmission: false,
        })
    }

    /// The stream offset the wire acknowledgement number `ack` names, or
    /// `None` if it lies before the start of the stream (wild input: an
    /// agent counts the packet as malformed instead of calling `on_ack`).
    pub fn ack_offset(&self, ack: SeqNum) -> Option<u64> {
        ack.expand(self.cfg.isn, self.snd_una)
    }

    /// Process an incoming (pure) ACK segment. One whose acknowledgement
    /// number [`TcpSender::ack_offset`] cannot place is ignored whole.
    pub fn on_ack(&mut self, now: SimTime, seg: &TcpSegment) -> AckResult {
        debug_assert!(seg.flags.ack, "non-ACK segment fed to sender");
        let mut result = AckResult::default();
        let Some(ack_offset) = self.ack_offset(seg.ack) else {
            return result;
        };
        self.peer_window = seg.window as u64;

        // RTT sample from the echoed timestamp.
        if let Some(ts) = &seg.ts {
            self.peer_tsval = ts.tsval;
            if ts.tsecr != 0 {
                let sample_us = Self::tsval(now).wrapping_sub(ts.tsecr);
                // Reject absurd samples from clock wrap (> 1 hour).
                if sample_us < 3_600_000_000 {
                    self.rtt
                        .on_sample(now, SimDuration::from_micros(sample_us as u64));
                }
            }
        }

        if ack_offset > self.snd_nxt {
            // ACK for data never sent; ignore (corrupted/reordered beyond reason).
            return result;
        }

        // ECN: an ECN-Echo is a congestion signal equivalent to a loss,
        // reacted to at most once per RTT (RFC 3168 §6.1.2).
        if self.cfg.ecn && seg.flags.ece && now >= self.ecn_cwr_until {
            let flight = self.flight_size();
            self.cc.on_loss_event(&LossContext {
                now,
                flight_size: flight,
                mss: self.cfg.mss,
            });
            self.check_cwnd_floor();
            self.stats.ecn_reductions += 1;
            self.ecn_send_cwr = true;
            let rtt = self.rtt.srtt().unwrap_or(SimDuration::from_millis(100));
            self.ecn_cwr_until = now + rtt;
        }

        // Ingest SACK blocks into the scoreboard.
        if self.cfg.sack {
            for (l, r) in &seg.sack {
                // A block edge before the start of the stream is wild
                // input; the block is skipped like an empty one.
                let (Some(ls), Some(rs)) = (self.ack_offset(*l), self.ack_offset(*r)) else {
                    continue;
                };
                if rs > ls {
                    self.insert_sack_block(ls, rs);
                }
            }
        }

        if ack_offset > self.snd_una {
            let flight_before = self.flight_size();
            let newly = ack_offset - self.snd_una;
            self.snd_una = ack_offset;
            self.dup_acks = 0;
            self.stats.bytes_acked += newly;
            result.newly_acked = newly;
            if self.cfg.sack {
                self.scoreboard.trim_below(self.snd_una);
                self.high_rtx = self.high_rtx.max(self.snd_una);
            }

            match self.recovery {
                Some(rec) if ack_offset >= rec.recover => {
                    // Full ACK: recovery complete.
                    self.recovery = None;
                    self.inflation = 0;
                    result.exited_recovery = true;
                }
                Some(rec) => {
                    // Partial ACK: the next hole is lost too. With SACK the
                    // scoreboard drives retransmissions from poll_segment;
                    // without it, NewReno retransmits the hole directly and
                    // deflates the inflated window (RFC 6582).
                    let sack_driven = self.cfg.sack
                        && rec.kind == RecoveryKind::Fast
                        && !self.scoreboard.is_empty();
                    if !sack_driven {
                        self.rtx_pending.push_back(self.snd_una);
                        self.inflation = self.inflation.saturating_sub(newly);
                    }
                }
                None => {
                    self.cc.on_ack(&AckContext {
                        now,
                        bytes_acked: newly,
                        srtt: self.rtt.srtt(),
                        latest_rtt: self.rtt.latest(),
                        min_rtt: self.rtt.min_rtt(),
                        flight_size: flight_before,
                        mss: self.cfg.mss,
                    });
                    self.check_cwnd_floor();
                }
            }

            if self.flight_size() > 0 {
                self.arm_rto(now);
            } else {
                self.rto_deadline = None;
            }
            self.arm_tlp(now);
            return result;
        }

        // Duplicate ACK (no window update handling needed in the model).
        if self.flight_size() == 0 {
            return result;
        }
        self.dup_acks += 1;

        // SACK-based loss detection: a deemed-lost hole opens recovery.
        if self.cfg.sack && !self.scoreboard.is_empty() {
            if self.recovery.is_none() && self.first_lost_hole(self.snd_una).is_some() {
                self.enter_sack_recovery(now);
                result.entered_recovery = true;
            }
            return result;
        }

        match &self.recovery {
            Some(rec) if rec.kind == RecoveryKind::Fast => {
                // Window inflation: each dup ACK signals a departed segment.
                // Capped at cwnd: without SACK a recovery episode can last
                // one RTT per lost segment, and uncapped inflation (the
                // literal RFC 5681 rule) lets the flight grow without bound
                // against a large advertised window.
                self.inflation = (self.inflation + self.cfg.mss as u64).min(self.cc.cwnd());
            }
            Some(_) => {}
            None => {
                if self.dup_acks == self.cfg.dupack_threshold {
                    self.enter_fast_recovery(now);
                    result.entered_recovery = true;
                }
            }
        }
        result
    }

    /// Congestion-window floor: no CC algorithm may report a window below
    /// one segment — the send loop could then never admit a full-sized
    /// segment and the flow would deadlock. Called after every CC callback
    /// (ack, loss, RTO).
    fn check_cwnd_floor(&self) {
        assert!(
            self.cc.cwnd() >= u64::from(self.cfg.mss),
            "{}: cwnd {} below 1 MSS ({}) after CC update",
            self.cc.name(),
            self.cc.cwnd(),
            self.cfg.mss,
        );
    }

    fn enter_sack_recovery(&mut self, now: SimTime) {
        let flight = self.flight_size();
        self.cc.on_loss_event(&LossContext {
            now,
            flight_size: flight,
            mss: self.cfg.mss,
        });
        self.check_cwnd_floor();
        self.stats.loss_events += 1;
        self.recovery = Some(Recovery {
            kind: RecoveryKind::Fast,
            recover: self.snd_nxt,
        });
        self.high_rtx = self.snd_una;
        self.inflation = 0;
    }

    fn enter_fast_recovery(&mut self, now: SimTime) {
        let flight = self.flight_size();
        self.cc.on_loss_event(&LossContext {
            now,
            flight_size: flight,
            mss: self.cfg.mss,
        });
        self.check_cwnd_floor();
        self.stats.loss_events += 1;
        self.recovery = Some(Recovery {
            kind: RecoveryKind::Fast,
            recover: self.snd_nxt,
        });
        // Retransmit the presumed-lost head segment.
        self.rtx_pending.push_back(self.snd_una);
        // Inflation for the threshold dup ACKs already seen.
        self.inflation = self.cfg.dupack_threshold as u64 * self.cfg.mss as u64;
    }

    /// Next deadline this sender needs a timer callback for.
    pub fn next_timer(&self) -> Option<SimTime> {
        match (self.rto_deadline, self.tlp_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Timer callback. Safe to call spuriously; only acts if a deadline
    /// has actually passed.
    pub fn on_timer(&mut self, now: SimTime) {
        // Tail loss probe: fires well before the RTO and retransmits the
        // tail segment once, converting a silent tail loss into SACK/dup-ACK
        // feedback.
        if let Some(tlp) = self.tlp_deadline {
            if now >= tlp {
                self.tlp_deadline = None;
                if self.flight_size() > 0 && self.recovery.is_none() {
                    self.stats.tlp_probes += 1;
                    let len = self.flight_size().min(self.cfg.mss as u64);
                    self.rtx_pending.push_back(self.snd_nxt - len);
                }
            }
        }
        let Some(deadline) = self.rto_deadline else {
            return;
        };
        if now < deadline || self.flight_size() == 0 {
            return;
        }
        // Retransmission timeout.
        self.stats.rtos += 1;
        let flight = self.flight_size();
        self.cc.on_rto(&LossContext {
            now,
            flight_size: flight,
            mss: self.cfg.mss,
        });
        self.check_cwnd_floor();
        self.rtt.on_timeout();
        self.dup_acks = 0;
        self.inflation = 0;
        self.recovery = Some(Recovery {
            kind: RecoveryKind::Rto,
            recover: self.snd_nxt,
        });
        self.rtx_pending.clear();
        self.rtx_pending.push_back(self.snd_una);
        // RFC 6675 allows keeping the scoreboard across an RTO; we clear
        // the retransmission high-water mark so go-back-N starts fresh.
        self.high_rtx = self.snd_una;
        self.arm_rto(now);
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rtt.rto());
    }

    /// (Re-)arm the tail loss probe ~2 SRTT out (only meaningful with data
    /// in flight and outside recovery).
    fn arm_tlp(&mut self, now: SimTime) {
        if !self.cfg.tlp {
            return;
        }
        if self.flight_size() == 0 || self.recovery.is_some() {
            self.tlp_deadline = None;
            return;
        }
        let Some(srtt) = self.rtt.srtt() else {
            return;
        };
        let pto = (srtt * 2 + SimDuration::from_millis(2)).max(SimDuration::from_millis(10));
        self.tlp_deadline = Some(now + pto);
    }

    fn arm_rto_if_unarmed(&mut self, now: SimTime) {
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Reno;

    const MSS: u32 = 1460;

    fn sender() -> TcpSender {
        let cfg = TcpConfig::default();
        let cc = Box::new(Reno::new(cfg.initial_cwnd, cfg.mss));
        let mut s = TcpSender::new(cfg, cc);
        s.set_unlimited();
        s
    }

    fn ack_seg(s: &TcpSender, offset: u64, tsecr: u32) -> TcpSegment {
        TcpSegment {
            src_port: 5001,
            dst_port: 5000,
            seq: SeqNum(0),
            ack: SeqNum::from_offset(s.config().isn, offset),
            flags: TcpFlags::ACK,
            window: 4 << 20,
            ts: Some(Timestamps { tsval: 1, tsecr }),
            mss: None,
            sack: SackList::new(),
            dss: None,
        }
    }

    fn drain(s: &mut TcpSender, now: SimTime) -> Vec<SegmentTx> {
        std::iter::from_fn(|| s.poll_segment(now)).collect()
    }

    #[test]
    fn initial_burst_is_limited_by_initial_cwnd() {
        let mut s = sender();
        let segs = drain(&mut s, SimTime::ZERO);
        assert_eq!(segs.len(), 10); // IW10
        assert_eq!(s.flight_size(), 10 * MSS as u64);
        for (i, seg) in segs.iter().enumerate() {
            assert_eq!(seg.offset, i as u64 * MSS as u64);
            assert_eq!(seg.len, MSS);
            assert!(!seg.is_retransmission);
        }
        // A timer must now be armed.
        assert!(s.next_timer().is_some());
    }

    #[test]
    fn ack_frees_window_and_grows_cwnd() {
        let mut s = sender();
        // Start at t=1ms so tsval != 0 (0 means "no echo" on the wire).
        let t0 = SimTime::from_millis(1);
        let segs = drain(&mut s, t0);
        let tsval = segs[0].seg.ts.unwrap().tsval;
        let t1 = SimTime::from_millis(11);
        let r = s.on_ack(t1, &ack_seg(&s, 2 * MSS as u64, tsval));
        assert_eq!(r.newly_acked, 2 * MSS as u64);
        // Slow start: cwnd grew by the acked amount; 2 freed + 2 grown = 4.
        let more = drain(&mut s, t1);
        assert_eq!(more.len(), 4);
        // RTT was sampled (10 ms).
        let srtt = s.rtt().srtt().unwrap();
        assert_eq!(srtt, SimDuration::from_millis(10));
    }

    #[test]
    fn bounded_transfer_sends_short_tail() {
        let cfg = TcpConfig::default();
        let cc = Box::new(Reno::new(cfg.initial_cwnd, cfg.mss));
        let mut s = TcpSender::new(cfg, cc);
        s.push_app_data(3 * MSS as u64 + 100);
        let segs = drain(&mut s, SimTime::ZERO);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[3].len, 100);
        assert_eq!(s.app_backlog(), 0);
        // Everything acked -> timer disarmed.
        let total = 3 * MSS as u64 + 100;
        s.on_ack(SimTime::from_millis(5), &ack_seg(&s, total, 0));
        assert_eq!(s.flight_size(), 0);
        assert!(s.next_timer().is_none());
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut s = sender();
        let t0 = SimTime::ZERO;
        let _ = drain(&mut s, t0);
        // Ack first segment to establish snd_una = 1 MSS.
        s.on_ack(SimTime::from_millis(10), &ack_seg(&s, MSS as u64, 0));
        let _ = drain(&mut s, SimTime::from_millis(10));
        let cwnd_before = s.cc().cwnd();

        // Segment at offset MSS is lost: three dup ACKs arrive.
        let t = SimTime::from_millis(20);
        for i in 0..3 {
            let r = s.on_ack(t, &ack_seg(&s, MSS as u64, 0));
            assert_eq!(r.newly_acked, 0);
            assert_eq!(r.entered_recovery, i == 2);
        }
        assert!(s.in_recovery());
        assert_eq!(s.stats().loss_events, 1);
        assert!(s.cc().cwnd() < cwnd_before, "multiplicative decrease");

        // The head segment is retransmitted first.
        let seg = s.poll_segment(t).expect("retransmission due");
        assert!(seg.is_retransmission);
        assert_eq!(seg.offset, MSS as u64);
    }

    #[test]
    fn full_ack_exits_recovery_and_deflates() {
        let mut s = sender();
        let t0 = SimTime::ZERO;
        let _ = drain(&mut s, t0);
        s.on_ack(SimTime::from_millis(10), &ack_seg(&s, MSS as u64, 0));
        let _ = drain(&mut s, SimTime::from_millis(10));
        let recover_point = s.snd_nxt();
        let t = SimTime::from_millis(20);
        for _ in 0..3 {
            s.on_ack(t, &ack_seg(&s, MSS as u64, 0));
        }
        let _rtx = s.poll_segment(t);
        // Full cumulative ACK arrives.
        let r = s.on_ack(SimTime::from_millis(30), &ack_seg(&s, recover_point, 0));
        assert!(r.exited_recovery);
        assert!(!s.in_recovery());
        assert_eq!(s.send_window(), s.cc().cwnd()); // inflation gone
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut s = sender();
        let t0 = SimTime::ZERO;
        let _ = drain(&mut s, t0);
        s.on_ack(SimTime::from_millis(10), &ack_seg(&s, MSS as u64, 0));
        let _ = drain(&mut s, SimTime::from_millis(10));
        let t = SimTime::from_millis(20);
        for _ in 0..3 {
            s.on_ack(t, &ack_seg(&s, MSS as u64, 0));
        }
        let _rtx = s.poll_segment(t).unwrap();
        // Partial ACK: advances but not past recover.
        let r = s.on_ack(SimTime::from_millis(30), &ack_seg(&s, 3 * MSS as u64, 0));
        assert_eq!(r.newly_acked, 2 * MSS as u64);
        assert!(!r.exited_recovery);
        assert!(s.in_recovery());
        // The hole at the new snd_una is retransmitted without new dup ACKs.
        let seg = s
            .poll_segment(SimTime::from_millis(30))
            .expect("partial-ack rtx");
        assert!(seg.is_retransmission);
        assert_eq!(seg.offset, 3 * MSS as u64);
    }

    #[test]
    fn dup_acks_inflate_window_during_recovery() {
        // NewReno (no SACK): dup ACKs inflate the window one MSS each,
        // capped at cwnd.
        let cfg = TcpConfig {
            sack: false,
            ..TcpConfig::default()
        };
        let cc = Box::new(Reno::new(cfg.initial_cwnd, cfg.mss));
        let mut s = TcpSender::new(cfg, cc);
        s.set_unlimited();
        let _ = drain(&mut s, SimTime::ZERO);
        s.on_ack(SimTime::from_millis(10), &ack_seg(&s, MSS as u64, 0));
        let _ = drain(&mut s, SimTime::from_millis(10));
        let t = SimTime::from_millis(20);
        for _ in 0..3 {
            s.on_ack(t, &ack_seg(&s, MSS as u64, 0));
        }
        let w0 = s.send_window();
        for _ in 0..2 {
            s.on_ack(t, &ack_seg(&s, MSS as u64, 0));
        }
        assert_eq!(s.send_window(), w0 + 2 * MSS as u64);
        // Many more dup ACKs: the inflation saturates at cwnd (window is
        // then exactly 2x cwnd), preventing unbounded flight growth.
        for _ in 0..100 {
            s.on_ack(t, &ack_seg(&s, MSS as u64, 0));
        }
        assert_eq!(s.send_window(), 2 * s.cc().cwnd());
    }

    #[test]
    fn rto_fires_only_after_deadline() {
        let mut s = sender();
        let _ = drain(&mut s, SimTime::ZERO);
        let deadline = s.next_timer().unwrap();
        // Spurious early fire: nothing happens.
        s.on_timer(deadline - SimDuration::from_nanos(1));
        assert_eq!(s.stats().rtos, 0);
        // Real fire.
        s.on_timer(deadline);
        assert_eq!(s.stats().rtos, 1);
        assert!(s.in_recovery());
        assert_eq!(s.cc().cwnd(), MSS as u64);
        // Head-of-line retransmission is queued.
        let seg = s.poll_segment(deadline).unwrap();
        assert!(seg.is_retransmission);
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
        let mut s = sender();
        // Tell the sender the peer only has 3 MSS of buffer. Window is
        // encoded with 128-byte granularity, so use a multiple of 128.
        let small_window = 4480; // 3 * 1460 = 4380 -> round to 4480
        let seg = TcpSegment {
            flags: TcpFlags::ACK,
            ack: SeqNum::from_offset(s.config().isn, 0),
            window: small_window,
            ..Default::default()
        };
        // A duplicate ACK with zero flight is ignored but the window sticks.
        s.on_ack(SimTime::ZERO, &seg);
        let segs = drain(&mut s, SimTime::ZERO);
        // 3 full segments; the 100-byte sliver of window is not used
        // (silly-window avoidance).
        assert_eq!(segs.len(), 3, "window 4480 fits 3 full segments");
        assert!(segs.iter().all(|t| t.len == MSS));
        assert!(s.flight_size() <= small_window as u64);
    }

    /// Regression: the silly-window check used to compare `room` through a
    /// `u32` truncation, so a window whose low 32 bits fell below one MSS
    /// (here 2^32 + 100 bytes of room) stalled the sender completely even
    /// though gigabytes of window were open.
    #[test]
    fn send_window_beyond_4gib_does_not_stall() {
        #[derive(Debug, Clone)]
        struct HugeWindow;
        impl CongestionControl for HugeWindow {
            fn on_ack(&mut self, _ctx: &AckContext) {}
            fn on_loss_event(&mut self, _ctx: &LossContext) {}
            fn on_rto(&mut self, _ctx: &LossContext) {}
            fn cwnd(&self) -> u64 {
                (1 << 32) + 100
            }
            fn ssthresh(&self) -> u64 {
                u64::MAX
            }
            fn name(&self) -> &'static str {
                "huge"
            }
            fn clone_boxed(&self) -> Box<dyn CongestionControl> {
                Box::new(self.clone())
            }
        }
        let cfg = TcpConfig {
            assumed_peer_window: (1 << 32) + 100,
            ..TcpConfig::default()
        };
        let mut s = TcpSender::new(cfg, Box::new(HugeWindow));
        s.set_unlimited();
        let seg = s.poll_segment(SimTime::ZERO);
        assert!(
            seg.is_some_and(|t| t.len == MSS),
            "a full-MSS segment must go out when >4GiB of window is open"
        );
    }

    #[test]
    fn stale_rtx_queue_entries_are_skipped() {
        let mut s = sender();
        let _ = drain(&mut s, SimTime::ZERO);
        let t = SimTime::from_millis(20);
        for _ in 0..3 {
            s.on_ack(t, &ack_seg(&s, 0, 0));
        }
        // Before polling the retransmission, the lost segment gets acked.
        s.on_ack(SimTime::from_millis(25), &ack_seg(&s, 10 * MSS as u64, 0));
        // The queued rtx for offset 0 must be skipped, yielding new data.
        let seg = s.poll_segment(SimTime::from_millis(25)).unwrap();
        assert!(!seg.is_retransmission);
        assert!(seg.offset >= 10 * MSS as u64);
    }

    #[test]
    fn ack_beyond_snd_nxt_is_ignored() {
        let mut s = sender();
        let _ = drain(&mut s, SimTime::ZERO);
        let bogus = ack_seg(&s, 100 * MSS as u64, 0);
        let r = s.on_ack(SimTime::from_millis(1), &bogus);
        assert_eq!(r.newly_acked, 0);
        assert_eq!(s.snd_una(), 0);
    }

    #[test]
    fn retransmission_counts_in_stats() {
        let mut s = sender();
        let _ = drain(&mut s, SimTime::ZERO);
        let t = SimTime::from_millis(20);
        for _ in 0..3 {
            s.on_ack(t, &ack_seg(&s, 0, 0));
        }
        let _ = s.poll_segment(t).unwrap();
        assert_eq!(s.stats().retransmits, 1);
        assert_eq!(s.stats().segments_sent, 11);
    }

    #[test]
    fn ece_halves_once_per_rtt_and_sets_cwr() {
        let cfg = TcpConfig {
            ecn: true,
            ..TcpConfig::default()
        };
        let cc = Box::new(Reno::new(cfg.initial_cwnd, cfg.mss));
        let mut s = TcpSender::new(cfg, cc);
        s.set_unlimited();
        let t0 = SimTime::from_millis(1);
        let _ = drain(&mut s, t0);
        // Establish an RTT sample.
        s.on_ack(SimTime::from_millis(11), &ack_seg(&s, MSS as u64, 1));
        let w0 = s.cc().cwnd();
        // ECE arrives: one reduction.
        let mut e = ack_seg(&s, 2 * MSS as u64, 0);
        e.flags.ece = true;
        s.on_ack(SimTime::from_millis(12), &e);
        let w1 = s.cc().cwnd();
        assert!(w1 < w0, "ECE must shrink the window: {w0} -> {w1}");
        assert_eq!(s.stats().ecn_reductions, 1);
        // A second ECE within the same RTT is ignored.
        let mut e2 = ack_seg(&s, 3 * MSS as u64, 0);
        e2.flags.ece = true;
        s.on_ack(SimTime::from_millis(13), &e2);
        assert_eq!(s.stats().ecn_reductions, 1);
        // Free the window (cwnd was halved below the flight size), then the
        // next data segment carries CWR exactly once.
        s.on_ack(SimTime::from_millis(14), &ack_seg(&s, 9 * MSS as u64, 0));
        let seg1 = s
            .poll_segment(SimTime::from_millis(14))
            .expect("window reopened");
        assert!(seg1.seg.flags.cwr);
        let seg2 = s
            .poll_segment(SimTime::from_millis(14))
            .expect("second segment");
        assert!(!seg2.seg.flags.cwr);
    }

    #[test]
    fn ece_ignored_when_ecn_disabled() {
        let mut s = sender(); // default config: ecn off
        let _ = drain(&mut s, SimTime::ZERO);
        let w0 = s.cc().cwnd();
        let mut e = ack_seg(&s, MSS as u64, 0);
        e.flags.ece = true;
        s.on_ack(SimTime::from_millis(5), &e);
        assert!(s.cc().cwnd() >= w0);
        assert_eq!(s.stats().ecn_reductions, 0);
    }

    #[test]
    fn close_sends_fin_after_data_and_completes() {
        let cfg = TcpConfig::default();
        let cc = Box::new(Reno::new(cfg.initial_cwnd, cfg.mss));
        let mut s = TcpSender::new(cfg, cc);
        s.push_app_data(2 * MSS as u64);
        s.close();
        let segs = drain(&mut s, SimTime::ZERO);
        assert_eq!(segs.len(), 3, "two data segments + FIN");
        assert!(!segs[0].seg.flags.fin);
        assert!(segs[2].seg.flags.fin);
        assert_eq!(segs[2].len, 0);
        assert_eq!(segs[2].offset, 2 * MSS as u64);
        assert!(!s.is_closed());
        // ACK covering data + phantom byte completes the close.
        s.on_ack(
            SimTime::from_millis(10),
            &ack_seg(&s, 2 * MSS as u64 + 1, 0),
        );
        assert!(s.is_closed());
        assert_eq!(s.flight_size(), 0);
        assert!(s.next_timer().is_none() || s.flight_size() == 0);
    }

    #[test]
    fn lost_fin_is_retransmitted_on_rto() {
        let cfg = TcpConfig::default();
        let cc = Box::new(Reno::new(cfg.initial_cwnd, cfg.mss));
        let mut s = TcpSender::new(cfg, cc);
        s.push_app_data(MSS as u64);
        s.close();
        let segs = drain(&mut s, SimTime::ZERO);
        assert!(segs[1].seg.flags.fin);
        // Data acked, FIN lost.
        s.on_ack(SimTime::from_millis(10), &ack_seg(&s, MSS as u64, 0));
        assert!(!s.is_closed());
        let deadline = s.next_timer().expect("RTO armed for the FIN");
        s.on_timer(deadline);
        let rtx = s.poll_segment(deadline).expect("FIN retransmission");
        assert!(rtx.seg.flags.fin);
        assert!(rtx.is_retransmission);
        s.on_ack(
            deadline + SimDuration::from_millis(5),
            &ack_seg(&s, MSS as u64 + 1, 0),
        );
        assert!(s.is_closed());
    }

    #[test]
    #[should_panic(expected = "push after close")]
    fn push_after_close_panics() {
        let cfg = TcpConfig::default();
        let cc = Box::new(Reno::new(cfg.initial_cwnd, cfg.mss));
        let mut s = TcpSender::new(cfg, cc);
        s.close();
        s.push_app_data(1);
    }
}
