//! Output queues: the component that actually creates the paper's dynamics.
//!
//! Every link direction has one queue. When a packet arrives at a busy link
//! it is offered to the queue, which decides to buffer or drop it. Tail
//! drops at the three shared bottleneck links are the *only* congestion
//! signal in the reproduced experiments, exactly as in the Mininet setup
//! (tc/netem drop-tail). A RED variant is provided for ablations.
//!
//! A queue buffers [`PacketHandle`]s, not packets: the packet stays in the
//! simulator's [`PacketSlab`] from send to delivery, and a queue entry is
//! the handle plus the wire size (and, for CoDel, the enqueue time) — what
//! admission, byte accounting and the transmitter need without touching the
//! packet again. The queue never frees a slot: whoever is handed a refused
//! or head-dropped entry does.

use crate::packet::Ecn;
use crate::slab::{PacketHandle, PacketSlab};
use simbase::rng::SimRng;
use simbase::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Why a queue refused a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The buffer was full (drop-tail).
    TailDrop,
    /// RED decided to drop early.
    EarlyDrop,
}

/// The outcome of offering a packet to a queue.
#[derive(Debug)]
pub enum EnqueueResult {
    /// Packet accepted and buffered.
    Queued,
    /// Packet rejected; the caller records the drop.
    Dropped(DropReason),
}

/// One buffered packet: its slab handle and the bytes it occupies on the
/// wire (fixed at enqueue; nothing on the path resizes a packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Queued {
    /// The packet's slot in the simulator's [`PacketSlab`].
    pub pkt: PacketHandle,
    /// [`crate::Packet::wire_size`] of that packet.
    pub wire_size: u32,
}

/// The outcome of a dequeue: the packet to transmit (if any) plus packets
/// the queue decided to drop at dequeue time (CoDel's head drops). The
/// caller owns every handle returned here, dropped ones included.
#[derive(Debug, Default)]
pub struct Dequeued {
    /// The packet to serialize next.
    pub pkt: Option<Queued>,
    /// Packets discarded by the AQM while finding `pkt`.
    pub dropped: Vec<Queued>,
}

/// A FIFO output queue with an admission policy.
///
/// Implementations must be FIFO — TCP's fast-retransmit logic depends on
/// in-order delivery within a path, and the paper's tag routing guarantees
/// one path per tag.
pub trait Queue: std::fmt::Debug {
    /// Offer `entry`, whose packet lives in `slab`, to the queue at time
    /// `now`. `rng` is provided for randomized AQM; an ECN-marking AQM sets
    /// CE on the packet in place. A refused handle stays the caller's.
    fn enqueue(
        &mut self,
        now: SimTime,
        entry: Queued,
        slab: &mut PacketSlab,
        rng: &mut dyn SimRng,
    ) -> EnqueueResult;

    /// Remove the next packet to transmit at time `now`. Head-dropping AQMs
    /// (CoDel) may also return packets they discarded while deciding.
    fn dequeue(&mut self, now: SimTime) -> Dequeued;

    /// Number of packets currently buffered.
    fn len_packets(&self) -> usize;

    /// Bytes currently buffered (wire sizes).
    fn len_bytes(&self) -> u64;

    /// True if no packets are buffered.
    fn is_empty(&self) -> bool {
        self.len_packets() == 0
    }

    /// Deep-copy the queue (buffered handles and AQM state) for simulator
    /// checkpointing; the handles name the same slots in the copied slab.
    fn clone_boxed(&self) -> Box<dyn Queue>;
}

impl Clone for Box<dyn Queue> {
    fn clone(&self) -> Self {
        self.clone_boxed()
    }
}

/// Configuration for a link's output queue, chosen per link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueConfig {
    /// Classic drop-tail bounded by packet count (Linux `txqueuelen` style).
    DropTailPackets(usize),
    /// Drop-tail bounded by bytes.
    DropTailBytes(u64),
    /// Random Early Detection.
    Red(RedConfig),
    /// CoDel (Controlled Delay, RFC 8289): sojourn-time-based head drops.
    CoDel(CoDelConfig),
}

impl QueueConfig {
    /// Instantiate the queue.
    pub fn build(&self) -> Box<dyn Queue> {
        match *self {
            QueueConfig::DropTailPackets(n) => Box::new(DropTail::packets(n)),
            QueueConfig::DropTailBytes(b) => Box::new(DropTail::bytes(b)),
            QueueConfig::Red(cfg) => Box::new(Red::new(cfg)),
            QueueConfig::CoDel(cfg) => Box::new(CoDel::new(cfg)),
        }
    }
}

impl Default for QueueConfig {
    /// 64 packets: roughly 1.5–2x the bandwidth-delay product of the paper
    /// topology's bottlenecks at millisecond RTTs.
    fn default() -> Self {
        QueueConfig::DropTailPackets(64)
    }
}

/// Drop-tail FIFO, bounded by packets or bytes.
///
/// The buffer is sized by what is queued: the dequeue that empties it gives
/// its allocation back (DESIGN.md "Footprint"). A packet meeting an idle
/// transmitter never enters the queue, so this costs one allocation per
/// burst, and an access link that queued one initial window does not keep
/// 16 packets' worth of buffer for the rest of the run.
#[derive(Debug, Clone)]
pub struct DropTail {
    buf: VecDeque<Queued>,
    bytes: u64,
    max_packets: usize,
    max_bytes: u64,
}

impl DropTail {
    /// Bound by packet count.
    pub fn packets(max_packets: usize) -> Self {
        assert!(max_packets > 0, "queue must hold at least one packet");
        DropTail {
            buf: Default::default(),
            bytes: 0,
            max_packets,
            max_bytes: u64::MAX,
        }
    }

    /// Bound by byte count.
    pub fn bytes(max_bytes: u64) -> Self {
        assert!(max_bytes > 0, "queue must hold at least one byte");
        DropTail {
            buf: Default::default(),
            bytes: 0,
            max_packets: usize::MAX,
            max_bytes,
        }
    }
}

impl Queue for DropTail {
    fn enqueue(
        &mut self,
        _now: SimTime,
        entry: Queued,
        _slab: &mut PacketSlab,
        _rng: &mut dyn SimRng,
    ) -> EnqueueResult {
        let size = entry.wire_size as u64;
        // bfifo semantics: an empty buffer always admits its head packet,
        // even one whose wire size alone exceeds `max_bytes` — rejecting it
        // would blackhole that flow permanently, since the same packet
        // would be refused on every retransmission. (Linux bfifo likewise
        // admits while the backlog is under the limit, so the head packet
        // of an empty queue always gets through.)
        let over_bound =
            self.buf.len() + 1 > self.max_packets || self.bytes + size > self.max_bytes;
        if over_bound && !self.buf.is_empty() {
            return EnqueueResult::Dropped(DropReason::TailDrop);
        }
        self.bytes += size;
        self.buf.push_back(entry);
        EnqueueResult::Queued
    }

    fn dequeue(&mut self, _now: SimTime) -> Dequeued {
        let pkt = self.buf.pop_front();
        if let Some(p) = &pkt {
            self.bytes -= p.wire_size as u64;
            if self.buf.is_empty() {
                self.buf = VecDeque::new();
            }
        }
        Dequeued {
            pkt,
            dropped: Vec::new(),
        }
    }

    fn len_packets(&self) -> usize {
        self.buf.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn clone_boxed(&self) -> Box<dyn Queue> {
        Box::new(self.clone())
    }
}

/// RED (Floyd & Jacobson 1993) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedConfig {
    /// Hard capacity in packets.
    pub max_packets: usize,
    /// Average-queue threshold below which nothing is dropped.
    pub min_thresh: f64,
    /// Average-queue threshold above which everything is dropped.
    pub max_thresh: f64,
    /// Drop probability at `max_thresh`.
    pub max_p: f64,
    /// EWMA weight for the average queue estimate.
    pub weight: f64,
    /// Mark ECN-capable packets (set CE) instead of early-dropping them
    /// (RFC 3168 §5): the AQM signal without the loss.
    pub ecn_marking: bool,
    /// Typical transmission time of one packet, used for Floyd & Jacobson's
    /// idle-time compensation: after the queue has been empty for `idle`,
    /// the average is decayed as if `m = idle / mean_pkt_time` zero-length
    /// samples had been taken (`avg *= (1 - weight)^m`).
    pub mean_pkt_time: SimDuration,
}

impl Default for RedConfig {
    fn default() -> Self {
        RedConfig {
            max_packets: 64,
            min_thresh: 5.0,
            max_thresh: 32.0,
            max_p: 0.1,
            weight: 0.002,
            ecn_marking: false,
            // 1500 B at 100 Mbps.
            mean_pkt_time: SimDuration::from_micros(120),
        }
    }
}

/// Random Early Detection queue (gentle variant not implemented; classic
/// linear ramp between `min_thresh` and `max_thresh`). Buffers in a
/// [`DropTail`], so an emptied RED queue holds no allocation either.
#[derive(Debug, Clone)]
pub struct Red {
    inner: DropTail,
    cfg: RedConfig,
    avg: f64,
    /// Packets since the last drop (sharpens inter-drop spacing as in the
    /// original paper's `count` term).
    count: i64,
    /// When the buffer last became empty (None while occupied). Drives the
    /// idle-time decay of `avg` at the next enqueue.
    idle_since: Option<SimTime>,
}

impl Red {
    /// Create a RED queue with the given parameters.
    pub fn new(cfg: RedConfig) -> Self {
        assert!(cfg.min_thresh < cfg.max_thresh, "RED thresholds inverted");
        assert!((0.0..=1.0).contains(&cfg.max_p), "max_p out of range");
        Red {
            inner: DropTail::packets(cfg.max_packets),
            cfg,
            avg: 0.0,
            count: -1,
            idle_since: None,
        }
    }

    /// Current average-queue estimate (for tests/instrumentation).
    pub fn avg_queue(&self) -> f64 {
        self.avg
    }
}

impl Queue for Red {
    fn enqueue(
        &mut self,
        now: SimTime,
        entry: Queued,
        slab: &mut PacketSlab,
        rng: &mut dyn SimRng,
    ) -> EnqueueResult {
        // Idle-time compensation (Floyd & Jacobson 1993, §4): while the
        // buffer sat empty the EWMA saw no samples, so a stale-high `avg`
        // would spuriously early-drop the first packets of a fresh burst.
        // Decay it as if the idle period had contributed zero-length
        // samples every `mean_pkt_time`.
        if let Some(idle_from) = self.idle_since.take() {
            let idle = now.saturating_since(idle_from);
            if self.avg > 0.0 && !idle.is_zero() {
                let m = idle.as_nanos() as f64 / self.cfg.mean_pkt_time.as_nanos().max(1) as f64;
                self.avg *= (1.0 - self.cfg.weight).powf(m);
            }
        }
        // Update the EWMA of the instantaneous queue length.
        self.avg =
            (1.0 - self.cfg.weight) * self.avg + self.cfg.weight * self.inner.len_packets() as f64;

        // Decide whether the AQM wants to signal congestion on this packet.
        let mut signal = false;
        if self.avg >= self.cfg.max_thresh {
            self.count = 0;
            signal = true;
        } else if self.avg > self.cfg.min_thresh {
            self.count += 1;
            let pb = self.cfg.max_p * (self.avg - self.cfg.min_thresh)
                / (self.cfg.max_thresh - self.cfg.min_thresh);
            let pa = (pb / (1.0 - (self.count as f64) * pb).max(1e-9)).clamp(0.0, 1.0);
            if rng.chance(pa) {
                self.count = 0;
                signal = true;
            }
        } else {
            self.count = -1;
        }
        if signal {
            let packet = slab.get_mut(entry.pkt);
            if self.cfg.ecn_marking && packet.ecn == Ecn::Ect {
                // Mark instead of dropping (RFC 3168).
                packet.ecn = Ecn::Ce;
            } else {
                if self.inner.is_empty() {
                    // The buffer stays empty: the idle period continues.
                    self.idle_since = Some(now);
                }
                return EnqueueResult::Dropped(DropReason::EarlyDrop);
            }
        }
        match self.inner.enqueue(now, entry, slab, rng) {
            EnqueueResult::Queued => EnqueueResult::Queued,
            EnqueueResult::Dropped(_) => {
                self.count = 0;
                EnqueueResult::Dropped(DropReason::TailDrop)
            }
        }
    }

    fn dequeue(&mut self, now: SimTime) -> Dequeued {
        let d = self.inner.dequeue(now);
        if self.inner.is_empty() && self.idle_since.is_none() {
            self.idle_since = Some(now);
        }
        d
    }

    fn len_packets(&self) -> usize {
        self.inner.len_packets()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn clone_boxed(&self) -> Box<dyn Queue> {
        Box::new(self.clone())
    }
}

/// CoDel parameters (RFC 8289 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoDelConfig {
    /// Hard capacity in packets (a backstop; CoDel itself is unbounded).
    pub max_packets: usize,
    /// Acceptable standing sojourn time.
    pub target: SimDuration,
    /// Sliding window in which the sojourn must fall below target.
    pub interval: SimDuration,
}

impl Default for CoDelConfig {
    fn default() -> Self {
        CoDelConfig {
            max_packets: 1000,
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(100),
        }
    }
}

/// CoDel (Nichols & Jacobson): drop from the *head* when packets have been
/// sojourning above `target` for at least `interval`, with drop spacing
/// shrinking as `interval / sqrt(count)` while the condition persists.
#[derive(Debug, Clone)]
pub struct CoDel {
    cfg: CoDelConfig,
    /// Entries with their enqueue times. Released when a pop empties it,
    /// like [`DropTail`]'s.
    buf: VecDeque<(Queued, SimTime)>,
    bytes: u64,
    /// When the sojourn time first exceeded target (None = below target).
    first_above: Option<SimTime>,
    /// In the dropping state?
    dropping: bool,
    /// Next scheduled drop time while dropping.
    drop_next: SimTime,
    /// Drops in the current dropping episode.
    count: u32,
}

impl CoDel {
    /// Create a CoDel queue.
    pub fn new(cfg: CoDelConfig) -> Self {
        assert!(cfg.max_packets > 0);
        CoDel {
            cfg,
            buf: Default::default(),
            bytes: 0,
            first_above: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            count: 0,
        }
    }

    fn control_law(&self, t: SimTime) -> SimTime {
        t + self
            .cfg
            .interval
            .mul_f64(1.0 / (self.count.max(1) as f64).sqrt())
    }

    fn pop(&mut self) -> Option<(Queued, SimTime)> {
        let e = self.buf.pop_front()?;
        self.bytes -= e.0.wire_size as u64;
        if self.buf.is_empty() {
            self.buf = VecDeque::new();
        }
        Some(e)
    }

    /// Should the head packet be dropped, per the sojourn-time state
    /// machine? Updates `first_above`.
    fn ok_to_drop(&mut self, enq: SimTime, now: SimTime) -> bool {
        let sojourn = now.saturating_since(enq);
        if sojourn < self.cfg.target || self.bytes <= 1500 {
            self.first_above = None;
            return false;
        }
        match self.first_above {
            None => {
                self.first_above = Some(now + self.cfg.interval);
                false
            }
            Some(t) => now >= t,
        }
    }
}

impl Queue for CoDel {
    fn enqueue(
        &mut self,
        now: SimTime,
        entry: Queued,
        _slab: &mut PacketSlab,
        _rng: &mut dyn SimRng,
    ) -> EnqueueResult {
        if self.buf.len() >= self.cfg.max_packets {
            return EnqueueResult::Dropped(DropReason::TailDrop);
        }
        self.bytes += entry.wire_size as u64;
        self.buf.push_back((entry, now));
        EnqueueResult::Queued
    }

    fn dequeue(&mut self, now: SimTime) -> Dequeued {
        let mut dropped = Vec::new();
        let Some((pkt, enq)) = self.pop() else {
            self.dropping = false;
            return Dequeued::default();
        };
        let mut head = Some((pkt, enq));

        if self.dropping {
            if !self.ok_to_drop(enq, now) {
                self.dropping = false;
            } else {
                while now >= self.drop_next && self.dropping {
                    let Some((pkt, _)) = head.take() else {
                        break; // unreachable: every continuing arm refills head
                    };
                    dropped.push(pkt);
                    self.count += 1;
                    match self.pop() {
                        Some((p, e)) if self.ok_to_drop(e, now) => {
                            head = Some((p, e));
                            self.drop_next = self.control_law(self.drop_next);
                        }
                        Some((p, e)) => {
                            head = Some((p, e));
                            self.dropping = false;
                        }
                        None => {
                            self.dropping = false;
                        }
                    }
                }
            }
        } else if self.ok_to_drop(enq, now) {
            // Enter the dropping state with one head drop.
            if let Some((pkt, _)) = head.take() {
                dropped.push(pkt);
            }
            self.dropping = true;
            // RFC 8289: restart from a count related to the previous episode.
            self.count = if self.count > 2 { self.count - 2 } else { 1 };
            self.drop_next = self.control_law(now);
            head = self.pop();
        }

        Dequeued {
            pkt: head.map(|(p, _)| p),
            dropped,
        }
    }

    fn len_packets(&self) -> usize {
        self.buf.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn clone_boxed(&self) -> Box<dyn Queue> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, Packet, Protocol, Tag};
    use crate::payload::Payload;
    use simbase::rng::Xoshiro256StarStar;

    /// What the simulator does around a queue: the slab the handles point
    /// into, and freeing the slot of whatever the queue refuses or drops.
    #[derive(Clone)]
    struct Net {
        slab: PacketSlab,
        rng: Xoshiro256StarStar,
    }

    impl Net {
        fn new(seed: u64) -> Self {
            Net {
                slab: PacketSlab::default(),
                rng: Xoshiro256StarStar::new(seed),
            }
        }

        /// Put `p` in the slab and offer it; a refused packet's slot is
        /// freed, as the simulator does.
        fn offer(&mut self, q: &mut dyn Queue, now: SimTime, p: Packet) -> EnqueueResult {
            let wire_size = p.wire_size();
            let h = self.slab.insert(p);
            let entry = Queued { pkt: h, wire_size };
            let r = q.enqueue(now, entry, &mut self.slab, &mut self.rng);
            if matches!(r, EnqueueResult::Dropped(_)) {
                let _ = self.slab.take(h);
            }
            r
        }

        /// Dequeue, moving every returned packet out of the slab:
        /// `(delivered, head-dropped)`.
        fn pull(&mut self, q: &mut dyn Queue, now: SimTime) -> (Option<Packet>, Vec<Packet>) {
            let d = q.dequeue(now);
            let dropped = d.dropped.iter().map(|e| self.slab.take(e.pkt)).collect();
            (d.pkt.map(|e| self.slab.take(e.pkt)), dropped)
        }
    }

    fn pkt(id: u64, data_len: u32) -> Packet {
        Packet {
            id,
            src: NodeId(0),
            dst: NodeId(1),
            tag: Tag::NONE,
            protocol: Protocol::Raw,
            payload: Payload::empty(),
            data_len,
            flow_hash: id,
            ecn: crate::packet::Ecn::NotEct,
        }
    }

    #[test]
    fn droptail_is_fifo() {
        let mut net = Net::new(1);
        let mut q = DropTail::packets(10);
        for i in 0..5 {
            assert!(matches!(
                net.offer(&mut q, SimTime::ZERO, pkt(i, 100)),
                EnqueueResult::Queued
            ));
        }
        let order: Vec<u64> =
            std::iter::from_fn(|| net.pull(&mut q, SimTime::ZERO).0.map(|p| p.id)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn droptail_packet_bound_drops_excess() {
        let mut net = Net::new(1);
        let mut q = DropTail::packets(3);
        for i in 0..3 {
            assert!(matches!(
                net.offer(&mut q, SimTime::ZERO, pkt(i, 0)),
                EnqueueResult::Queued
            ));
        }
        assert!(matches!(
            net.offer(&mut q, SimTime::ZERO, pkt(3, 0)),
            EnqueueResult::Dropped(DropReason::TailDrop)
        ));
        assert_eq!(q.len_packets(), 3);
    }

    #[test]
    fn droptail_byte_bound_counts_wire_size() {
        let mut net = Net::new(1);
        // Each pkt: 20 (IP) + 0 (hdr) + 100 data = 120 wire bytes.
        let mut q = DropTail::bytes(300);
        assert!(matches!(
            net.offer(&mut q, SimTime::ZERO, pkt(0, 100)),
            EnqueueResult::Queued
        ));
        assert!(matches!(
            net.offer(&mut q, SimTime::ZERO, pkt(1, 100)),
            EnqueueResult::Queued
        ));
        assert_eq!(q.len_bytes(), 240);
        // Third packet would exceed 300 bytes.
        assert!(matches!(
            net.offer(&mut q, SimTime::ZERO, pkt(2, 100)),
            EnqueueResult::Dropped(_)
        ));
        // But a tiny packet still fits (20 bytes wire).
        assert!(matches!(
            net.offer(&mut q, SimTime::ZERO, pkt(3, 0)),
            EnqueueResult::Queued
        ));
        assert_eq!(q.len_bytes(), 260);
    }

    #[test]
    fn droptail_byte_accounting_balances() {
        let mut net = Net::new(1);
        let mut q = DropTail::bytes(10_000);
        for i in 0..10 {
            let _ = net.offer(&mut q, SimTime::ZERO, pkt(i, (i as u32) * 10));
        }
        while net.pull(&mut q, SimTime::ZERO).0.is_some() {}
        assert_eq!(q.len_bytes(), 0);
        assert_eq!(q.len_packets(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn droptail_bytes_admits_oversized_head_when_empty() {
        // Regression: a byte-bounded queue used to reject any packet whose
        // wire size exceeded max_bytes even when empty, permanently
        // blackholing the flow (every retransmission hit the same wall).
        // bfifo semantics: the head packet of an empty buffer is admitted.
        let mut net = Net::new(1);
        let mut q = DropTail::bytes(100);
        // 1000 data + 20 IP = 1020 wire bytes > 100-byte bound.
        assert!(matches!(
            net.offer(&mut q, SimTime::ZERO, pkt(0, 1000)),
            EnqueueResult::Queued
        ));
        assert_eq!(q.len_bytes(), 1020);
        // The bound still applies once the buffer is occupied.
        assert!(matches!(
            net.offer(&mut q, SimTime::ZERO, pkt(1, 1000)),
            EnqueueResult::Dropped(DropReason::TailDrop)
        ));
        assert!(matches!(
            net.offer(&mut q, SimTime::ZERO, pkt(2, 0)),
            EnqueueResult::Dropped(DropReason::TailDrop)
        ));
        // Draining re-opens the head slot: the flow makes progress.
        assert_eq!(net.pull(&mut q, SimTime::ZERO).0.unwrap().id, 0);
        assert!(matches!(
            net.offer(&mut q, SimTime::ZERO, pkt(3, 1000)),
            EnqueueResult::Queued
        ));
    }

    #[test]
    fn red_decays_avg_across_idle_periods() {
        // Regression: the EWMA never decayed while the buffer sat empty, so
        // a stale-high avg early-dropped the first packets after an idle
        // period. With Floyd & Jacobson's idle-time compensation the
        // average is decayed by (1-w)^(idle / mean_pkt_time) at the next
        // enqueue.
        let mut net = Net::new(5);
        let cfg = RedConfig {
            weight: 0.5,
            min_thresh: 2.0,
            max_thresh: 8.0,
            max_p: 0.5,
            max_packets: 64,
            ..Default::default()
        };
        let mut q = Red::new(cfg);
        // Build pressure: a standing queue pushes avg above min_thresh.
        for i in 0..20 {
            let _ = net.offer(&mut q, SimTime::ZERO, pkt(i, 1000));
        }
        assert!(q.avg_queue() > cfg.min_thresh);
        // Drain completely at t=0; the queue then idles for a full second
        // (~8300 mean packet times at the default 120 us).
        while net.pull(&mut q, SimTime::ZERO).0.is_some() {}
        let after_idle = SimTime::from_secs(1);
        // The first post-idle packets must be admitted, not early-dropped
        // off the stale average. (With weight 0.5 the decayed avg needs
        // four+ instantaneous samples to climb back over min_thresh, so
        // three packets are deterministically safe — and with the old code
        // avg would still be > min_thresh and eligible for early drop.)
        for i in 100..103 {
            assert!(
                matches!(
                    net.offer(&mut q, after_idle, pkt(i, 1000)),
                    EnqueueResult::Queued
                ),
                "post-idle packet {i} was dropped with avg={}",
                q.avg_queue()
            );
        }
        assert!(
            q.avg_queue() < cfg.min_thresh,
            "idle decay must pull avg back under min_thresh, got {}",
            q.avg_queue()
        );
    }

    #[test]
    fn red_short_idle_decays_partially() {
        // A short gap decays avg a little, not to zero: after m mean packet
        // times the average shrinks by exactly (1-w)^m.
        let mut net = Net::new(5);
        let cfg = RedConfig {
            weight: 0.5,
            min_thresh: 20.0,
            max_thresh: 40.0,
            ..Default::default()
        };
        let mut q = Red::new(cfg);
        for i in 0..10 {
            let _ = net.offer(&mut q, SimTime::ZERO, pkt(i, 1000));
        }
        let before = q.avg_queue();
        while net.pull(&mut q, SimTime::ZERO).0.is_some() {}
        // Idle exactly two mean packet times, then take one zero-length
        // sample: avg = before * (1-w)^2 * (1-w).
        let t = SimTime::from_micros(240);
        let _ = net.offer(&mut q, t, pkt(100, 1000));
        let expected = before * 0.5f64.powi(2) * 0.5;
        assert!(
            (q.avg_queue() - expected).abs() < 1e-12,
            "expected {expected}, got {}",
            q.avg_queue()
        );
    }

    #[test]
    fn red_empty_queue_never_drops() {
        let mut net = Net::new(5);
        let mut q = Red::new(RedConfig::default());
        for i in 0..4 {
            assert!(matches!(
                net.offer(&mut q, SimTime::ZERO, pkt(i, 1000)),
                EnqueueResult::Queued
            ));
            net.pull(&mut q, SimTime::ZERO);
        }
        assert!(q.avg_queue() < 1.0);
    }

    #[test]
    fn red_sustained_overload_drops_early() {
        let mut net = Net::new(5);
        let cfg = RedConfig {
            weight: 0.5,
            min_thresh: 2.0,
            max_thresh: 8.0,
            max_p: 0.5,
            max_packets: 64,
            ..Default::default()
        };
        let mut q = Red::new(cfg);
        let mut early = 0;
        for i in 0..200 {
            match net.offer(&mut q, SimTime::ZERO, pkt(i, 1000)) {
                EnqueueResult::Dropped(DropReason::EarlyDrop) => early += 1,
                EnqueueResult::Dropped(DropReason::TailDrop) => {}
                EnqueueResult::Queued => {}
            }
        }
        assert!(early > 0, "RED should drop early under sustained overload");
    }

    #[test]
    fn queue_config_builds_right_impl() {
        let q = QueueConfig::DropTailPackets(4).build();
        assert_eq!(q.len_packets(), 0);
        let q = QueueConfig::DropTailBytes(1000).build();
        assert!(q.is_empty());
        let q = QueueConfig::Red(RedConfig::default()).build();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "thresholds inverted")]
    fn red_validates_thresholds() {
        let _ = Red::new(RedConfig {
            min_thresh: 10.0,
            max_thresh: 5.0,
            ..Default::default()
        });
    }

    fn stamped(id: u64) -> Packet {
        pkt(id, 1000)
    }

    #[test]
    fn codel_passes_traffic_below_target() {
        let mut net = Net::new(1);
        let mut q = CoDel::new(CoDelConfig::default());
        // Short sojourns: enqueue at t, dequeue 1 ms later (< 5 ms target).
        for i in 0..50u64 {
            let t = SimTime::from_millis(i * 2);
            assert!(matches!(
                net.offer(&mut q, t, stamped(i)),
                EnqueueResult::Queued
            ));
            let (out, dropped) = net.pull(&mut q, t + SimDuration::from_millis(1));
            assert!(dropped.is_empty());
            assert_eq!(out.unwrap().id, i);
        }
    }

    #[test]
    fn codel_head_drops_under_standing_queue() {
        let mut net = Net::new(1);
        let mut q = CoDel::new(CoDelConfig::default());
        // Build a standing queue: 200 packets at t=0.
        for i in 0..200u64 {
            let _ = net.offer(&mut q, SimTime::ZERO, stamped(i));
        }
        // Dequeue slowly: sojourn far above target for far longer than the
        // interval -> CoDel must start dropping from the head.
        let mut dropped = 0;
        let mut delivered = 0;
        for step in 0..200u64 {
            let now = SimTime::from_millis(200 + step * 10);
            let (out, head_dropped) = net.pull(&mut q, now);
            dropped += head_dropped.len();
            if out.is_some() {
                delivered += 1;
            }
            // Every slot is either still buffered or was handed back: a
            // head drop the caller was not told about would leak its slot.
            assert_eq!(net.slab.live(), q.len_packets() as u64);
            if q.is_empty() {
                break;
            }
        }
        assert!(dropped > 0, "CoDel must drop under persistent delay");
        assert!(delivered > 0, "but it must not starve the link");
        assert_eq!(dropped + delivered, 200);
        assert_eq!(net.slab.live(), 0, "head drops freed their slots");
    }

    #[test]
    fn codel_recovers_after_queue_drains() {
        let mut net = Net::new(1);
        let mut q = CoDel::new(CoDelConfig::default());
        for i in 0..100u64 {
            let _ = net.offer(&mut q, SimTime::ZERO, stamped(i));
        }
        let mut t = SimTime::from_millis(200);
        while !q.is_empty() {
            let _ = net.pull(&mut q, t);
            t += SimDuration::from_millis(5);
        }
        // Fresh, fast traffic afterwards is untouched.
        for i in 0..20u64 {
            let now = t + SimDuration::from_millis(i);
            let _ = net.offer(&mut q, now, stamped(1000 + i));
            let (out, dropped) = net.pull(&mut q, now);
            assert!(dropped.is_empty(), "no drops after recovery");
            assert!(out.is_some());
        }
    }

    #[test]
    fn codel_byte_accounting_balances() {
        let mut net = Net::new(1);
        let mut q = CoDel::new(CoDelConfig::default());
        for i in 0..30u64 {
            let _ = net.offer(&mut q, SimTime::ZERO, stamped(i));
        }
        let mut seen = 0;
        while q.len_packets() > 0 {
            let (out, dropped) = net.pull(&mut q, SimTime::from_secs(1));
            seen += dropped.len() + out.is_some() as usize;
        }
        assert_eq!(seen, 30);
        assert_eq!(q.len_bytes(), 0);
    }

    /// Everything a queue shows the simulator for one op sequence: per
    /// dequeue the delivered id, the head-dropped ids and the byte count
    /// left behind; per enqueue whether the packet was admitted.
    fn drive(
        q: &mut dyn Queue,
        net: &mut Net,
        ids: std::ops::Range<u64>,
        start: SimTime,
        gap: SimDuration,
    ) -> Vec<(Option<u64>, Vec<u64>, u64)> {
        let mut seen = Vec::new();
        for id in ids {
            let admitted = matches!(net.offer(q, start, pkt(id, 1000)), EnqueueResult::Queued);
            seen.push((admitted.then_some(id), Vec::new(), q.len_bytes()));
        }
        let mut now = start;
        while !q.is_empty() {
            now += gap;
            let (out, dropped) = net.pull(q, now);
            let dropped = dropped.iter().map(|p| p.id).collect();
            seen.push((out.map(|p| p.id), dropped, q.len_bytes()));
        }
        seen
    }

    /// Fill, drain to empty (slowly enough that an AQM acts), then check
    /// that the emptied queue — and a checkpoint of it — carries on exactly
    /// like one that kept its buffer: same admissions, FIFO deliveries,
    /// head drops and byte counts, with the AQM state the first burst left.
    fn emptied_queue_carries_on(q: &mut dyn Queue) {
        let mut net = Net::new(9);
        let ms = SimDuration::from_millis;
        let first = drive(q, &mut net, 0..48, SimTime::ZERO, ms(10));
        assert_eq!((q.len_packets(), q.len_bytes()), (0, 0));
        assert!(first.len() > 48, "the first burst was queued and drained");

        let mut twin = q.clone_boxed();
        let mut twin_net = net.clone();
        let t = SimTime::from_secs(1);
        let second = drive(q, &mut net, 100..148, t, ms(10));
        assert_eq!(
            second,
            drive(twin.as_mut(), &mut twin_net, 100..148, t, ms(10))
        );
        assert_eq!((q.len_packets(), q.len_bytes()), (0, 0));
        assert_eq!(net.slab.live(), 0, "every slot came back");
        // FIFO: whatever leaves (delivered or head-dropped) leaves in
        // arrival order, and every admitted packet leaves.
        let (enq, deq) = second.split_at(48);
        let admitted: Vec<u64> = enq.iter().filter_map(|s| s.0).collect();
        let left: Vec<u64> = deq
            .iter()
            .flat_map(|s| s.1.iter().copied().chain(s.0))
            .collect();
        assert_eq!(left, admitted);
        assert!(!admitted.is_empty());
    }

    #[test]
    fn droptail_releases_its_buffer_when_emptied_and_carries_on() {
        let mut q = DropTail::packets(32);
        emptied_queue_carries_on(&mut q);
        assert_eq!(q.buf.capacity(), 0);
        // Byte-bounded too, and a dequeue of the empty queue is a no-op.
        let mut q = DropTail::bytes(20_000);
        emptied_queue_carries_on(&mut q);
        assert_eq!(q.buf.capacity(), 0);
        assert!(q.dequeue(SimTime::ZERO).pkt.is_none());
        assert_eq!((q.len_packets(), q.len_bytes()), (0, 0));
    }

    #[test]
    fn red_releases_its_buffer_when_emptied_and_carries_on() {
        let mut q = Red::new(RedConfig {
            weight: 0.5,
            min_thresh: 2.0,
            max_thresh: 8.0,
            max_p: 0.5,
            ..Default::default()
        });
        emptied_queue_carries_on(&mut q);
        assert_eq!(q.inner.buf.capacity(), 0);
        assert!(q.idle_since.is_some(), "the idle clock runs while empty");
    }

    #[test]
    fn codel_releases_its_buffer_when_emptied_and_carries_on() {
        let mut q = CoDel::new(CoDelConfig::default());
        emptied_queue_carries_on(&mut q);
        assert_eq!(q.buf.capacity(), 0);
        // 48 packets drained at 10 ms apiece sojourn far above target: the
        // sojourn state machine dropped from the head in both bursts, and
        // the second episode started from the first one's count.
        assert!(q.count > 1, "count {} carried no episode over", q.count);
    }

    #[test]
    fn red_marks_instead_of_dropping_ect_packets() {
        use crate::packet::Ecn;
        let mut net = Net::new(5);
        let cfg = RedConfig {
            weight: 0.5,
            min_thresh: 2.0,
            max_thresh: 8.0,
            max_p: 0.5,
            max_packets: 64,
            ecn_marking: true,
            mean_pkt_time: SimDuration::from_micros(120),
        };
        let mut q = Red::new(cfg);
        let mut dropped = 0;
        // Build sustained pressure: enqueue 40 ECT packets back to back.
        for i in 0..40 {
            let mut p = pkt(i, 1000);
            p.ecn = Ecn::Ect;
            if let EnqueueResult::Dropped(DropReason::EarlyDrop) =
                net.offer(&mut q, SimTime::ZERO, p)
            {
                dropped += 1;
            }
        }
        // The mark is on the slab's packet — the one delivery will read —
        // not on a copy the queue keeps.
        let mut marked = 0;
        while let Some(out) = q.dequeue(SimTime::ZERO).pkt {
            if net.slab.take(out.pkt).ecn == Ecn::Ce {
                marked += 1;
            }
        }
        assert!(marked > 0, "ECT packets must be CE-marked under pressure");
        assert_eq!(dropped, 0, "marking replaces early drops for ECT traffic");
    }
}
