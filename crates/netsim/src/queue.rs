//! Output queues: the component that actually creates the paper's dynamics.
//!
//! Every link direction has one queue. When a packet arrives at a busy link
//! it is offered to the queue, which decides to buffer or drop it. Tail
//! drops at the three shared bottleneck links are the *only* congestion
//! signal in the reproduced experiments, exactly as in the Mininet setup
//! (tc/netem drop-tail), bounded by packet count. RED (optionally
//! ECN-marking) and CoDel are provided for the AQM ablations, each at one
//! fixed parameter set.
//!
//! A queue buffers [`PacketHandle`]s, not packets: the packet stays in the
//! simulator's [`PacketSlab`] from send to delivery, with its wire size
//! beside it. Drop-tail (and RED, which buffers in one) keeps no buffer at
//! all: its FIFO is a list linked through the slab's slots, so a queue is
//! a few words whatever its depth, and a burst allocates nothing. It counts
//! packets, not bytes, so an enqueue or dequeue never reads a wire size;
//! only CoDel, whose drop rule reads its byte backlog, keeps one. The queue
//! never frees a slot: whoever is handed a refused or head-dropped packet
//! does.

use crate::packet::Ecn;
use crate::slab::{PacketHandle, PacketSlab};
use simbase::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::num::NonZeroU32;

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

/// The outcome of a dequeue: the packet to transmit (if any) plus packets
/// the queue decided to drop at dequeue time (CoDel's head drops). The
/// caller owns every handle returned here, dropped ones included.
#[derive(Debug, Default)]
pub struct Dequeued {
    /// The packet to serialize next.
    pub pkt: Option<PacketHandle>,
    /// Packets discarded by the AQM while finding `pkt`.
    pub dropped: Vec<PacketHandle>,
}

/// A link direction's FIFO output queue: one of the three disciplines the
/// experiments use, held by value so a simulator checkpoint copies it with
/// `Clone` (the packets it links together are in the slab, which the
/// checkpoint copies too). The AQMs are boxed because they are rare (AQM
/// ablations only) and big: inline, every link direction would pay for
/// them. Drop-tail (16 B) is inline, and the enum keeps its tag in the
/// limit's zero niche, so it is no larger than that.
///
/// Every discipline is FIFO — TCP's fast-retransmit logic depends on
/// in-order delivery within a path, and the paper's tag routing guarantees
/// one path per tag.
#[derive(Debug, Clone)]
pub enum Queue {
    /// Drop-tail: the paper's queue.
    DropTail(DropTail),
    /// RED or CoDel.
    Aqm(Box<Aqm>),
}

/// The two AQM disciplines, behind one box (two boxed variants would need
/// a second niche value the drop-tail limit does not have).
#[derive(Debug, Clone)]
pub enum Aqm {
    /// Random Early Detection, optionally ECN-marking.
    Red(Red),
    /// CoDel (RFC 8289).
    CoDel(CoDel),
}

impl Queue {
    /// Offer the packet `h`, which lives in `slab`, to the queue at time
    /// `now`. RED calls `chance(p)` for a Bernoulli draw from the link
    /// direction's stream (only while its average sits between the two
    /// thresholds) and, when ECN-marking, sets CE on the packet in place. A
    /// refused handle stays the caller's.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        slab: &mut PacketSlab,
        chance: &mut dyn FnMut(f64) -> bool,
    ) -> EnqueueResult {
        match self {
            Queue::DropTail(q) => q.enqueue(h, slab),
            Queue::Aqm(aqm) => match &mut **aqm {
                Aqm::Red(q) => q.enqueue(now, h, slab, chance),
                Aqm::CoDel(q) => q.enqueue(now, h, slab),
            },
        }
    }

    /// Remove the next packet to transmit at time `now`. CoDel may also
    /// return packets it head-dropped while deciding.
    pub fn dequeue(&mut self, now: SimTime, slab: &PacketSlab) -> Dequeued {
        let pkt = match self {
            Queue::DropTail(q) => q.dequeue(slab),
            Queue::Aqm(aqm) => match &mut **aqm {
                Aqm::Red(q) => q.dequeue(now, slab),
                Aqm::CoDel(q) => return q.dequeue(now, slab),
            },
        };
        Dequeued {
            pkt,
            dropped: Vec::new(),
        }
    }

    /// Number of packets currently buffered.
    pub fn len_packets(&self) -> usize {
        match self {
            Queue::DropTail(q) => q.len as usize,
            Queue::Aqm(aqm) => match &**aqm {
                Aqm::Red(q) => q.inner.len as usize,
                Aqm::CoDel(q) => q.buf.len(),
            },
        }
    }

    /// True if no packets are buffered.
    pub fn is_empty(&self) -> bool {
        self.len_packets() == 0
    }
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter queue fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<Queue>() <= 16);

/// Configuration for a link's output queue, chosen per link. The AQMs'
/// parameters are fixed (see [`Red`] and [`CoDel`]): no experiment varies
/// them, so only RED's ECN switch is a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueConfig {
    /// Classic drop-tail bounded by packet count (Linux `txqueuelen` style).
    DropTailPackets(usize),
    /// Random Early Detection at [`Red`]'s fixed parameters.
    Red {
        /// Mark ECN-capable packets (set CE) instead of early-dropping them
        /// (RFC 3168 §5): the AQM signal without the loss.
        ecn_marking: bool,
    },
    /// CoDel (Controlled Delay, RFC 8289) at its RFC defaults: sojourn-time
    /// based head drops.
    CoDel,
}

impl QueueConfig {
    /// Instantiate the queue.
    pub fn build(&self) -> Queue {
        match *self {
            QueueConfig::DropTailPackets(n) => Queue::DropTail(DropTail::packets(n)),
            QueueConfig::Red { ecn_marking } => {
                Queue::Aqm(Box::new(Aqm::Red(Red::new(ecn_marking))))
            }
            QueueConfig::CoDel => Queue::Aqm(Box::new(Aqm::CoDel(CoDel::new()))),
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

/// Drop-tail FIFO, bounded by packet count.
///
/// A singly linked list threaded through the [`PacketSlab`]: the queue
/// holds its head and tail handles, and each queued packet's slot links
/// the one behind it. Enqueue and dequeue touch only the packets' own
/// slots, so a burst allocates nothing and a deep buffer costs nothing
/// beyond the slots its packets already occupy.
#[derive(Debug, Clone)]
pub struct DropTail {
    head: Option<PacketHandle>,
    tail: Option<PacketHandle>,
    len: u32,
    max_packets: NonZeroU32,
}

impl DropTail {
    /// Bound by packet count (at least one, at most `u32::MAX`).
    pub fn packets(max_packets: usize) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "a set-up error, refused when the simulator builds its queues"
        )]
        let max_packets = u32::try_from(max_packets)
            .ok()
            .and_then(NonZeroU32::new)
            .expect("queue must hold at least one packet and at most u32::MAX");
        DropTail {
            head: None,
            tail: None,
            len: 0,
            max_packets,
        }
    }

    fn enqueue(&mut self, h: PacketHandle, slab: &mut PacketSlab) -> EnqueueResult {
        if self.len >= self.max_packets.get() {
            return EnqueueResult::Dropped(DropReason::TailDrop);
        }
        slab.set_next(h, None);
        match self.tail {
            Some(tail) => slab.set_next(tail, Some(h)),
            None => self.head = Some(h),
        }
        self.tail = Some(h);
        self.len += 1;
        EnqueueResult::Queued
    }

    fn dequeue(&mut self, slab: &PacketSlab) -> Option<PacketHandle> {
        let h = self.head?;
        self.head = slab.next(h);
        if self.head.is_none() {
            self.tail = None;
        }
        self.len -= 1;
        Some(h)
    }
}

/// Random Early Detection queue (gentle variant not implemented; classic
/// linear ramp between [`MIN_THRESH`](Self::MIN_THRESH) and
/// [`MAX_THRESH`](Self::MAX_THRESH)). Buffers in a [`DropTail`], so its
/// FIFO is linked through the slab too.
///
/// The parameters are constants, not settings: no experiment varies them.
/// They are public only because they are inputs of a run, which a scenario
/// digest must cover.
#[derive(Debug, Clone)]
pub struct Red {
    inner: DropTail,
    ecn_marking: bool,
    avg: f64,
    /// Packets since the last drop (sharpens inter-drop spacing as in the
    /// original paper's `count` term).
    count: i64,
    /// When the buffer last became empty (None while occupied). Drives the
    /// idle-time decay of `avg` at the next enqueue.
    idle_since: Option<SimTime>,
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: bad RED constants fail the build, not a run"
)]
const _: () = assert!(
    Red::MIN_THRESH < Red::MAX_THRESH && 0.0 <= Red::MAX_P && Red::MAX_P <= 1.0,
    "RED thresholds inverted or max_p out of range"
);

impl Red {
    /// Hard capacity in packets.
    pub const MAX_PACKETS: usize = 64;
    /// Average-queue threshold below which nothing is dropped.
    pub const MIN_THRESH: f64 = 5.0;
    /// Average-queue threshold above which everything is dropped.
    pub const MAX_THRESH: f64 = 32.0;
    /// Drop probability at `MAX_THRESH`.
    pub const MAX_P: f64 = 0.1;
    /// EWMA weight for the average queue estimate.
    pub const WEIGHT: f64 = 0.002;
    /// Typical transmission time of one packet (1500 B at 100 Mbps), used
    /// for Floyd & Jacobson's idle-time compensation: after the queue has
    /// been empty for `idle`, the average is decayed as if
    /// `m = idle / MEAN_PKT_TIME` zero-length samples had been taken
    /// (`avg *= (1 - WEIGHT)^m`).
    pub const MEAN_PKT_TIME: SimDuration = SimDuration::from_micros(120);

    fn new(ecn_marking: bool) -> Self {
        Red {
            inner: DropTail::packets(Self::MAX_PACKETS),
            ecn_marking,
            avg: 0.0,
            count: -1,
            idle_since: None,
        }
    }

    fn enqueue(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        slab: &mut PacketSlab,
        chance: &mut dyn FnMut(f64) -> bool,
    ) -> EnqueueResult {
        // Idle-time compensation (Floyd & Jacobson 1993, §4): while the
        // buffer sat empty the EWMA saw no samples, so a stale-high `avg`
        // would spuriously early-drop the first packets of a fresh burst.
        // Decay it as if the idle period had contributed zero-length
        // samples every `MEAN_PKT_TIME`.
        if let Some(idle_from) = self.idle_since.take() {
            let idle = now.saturating_since(idle_from);
            if self.avg > 0.0 && !idle.is_zero() {
                let m = idle.as_nanos() as f64 / Self::MEAN_PKT_TIME.as_nanos() as f64;
                self.avg *= (1.0 - Self::WEIGHT).powf(m);
            }
        }
        // Update the EWMA of the instantaneous queue length.
        self.avg = (1.0 - Self::WEIGHT) * self.avg + Self::WEIGHT * f64::from(self.inner.len);

        // Decide whether the AQM wants to signal congestion on this packet.
        let mut signal = false;
        if self.avg >= Self::MAX_THRESH {
            self.count = 0;
            signal = true;
        } else if self.avg > Self::MIN_THRESH {
            self.count += 1;
            let pb =
                Self::MAX_P * (self.avg - Self::MIN_THRESH) / (Self::MAX_THRESH - Self::MIN_THRESH);
            let pa = (pb / (1.0 - (self.count as f64) * pb).max(1e-9)).clamp(0.0, 1.0);
            if chance(pa) {
                self.count = 0;
                signal = true;
            }
        } else {
            self.count = -1;
        }
        if signal {
            let packet = slab.get_mut(h);
            if self.ecn_marking && packet.ecn == Ecn::Ect {
                // Mark instead of dropping (RFC 3168).
                packet.ecn = Ecn::Ce;
            } else {
                if self.inner.len == 0 {
                    // The buffer stays empty: the idle period continues.
                    self.idle_since = Some(now);
                }
                return EnqueueResult::Dropped(DropReason::EarlyDrop);
            }
        }
        match self.inner.enqueue(h, slab) {
            EnqueueResult::Queued => EnqueueResult::Queued,
            EnqueueResult::Dropped(_) => {
                self.count = 0;
                EnqueueResult::Dropped(DropReason::TailDrop)
            }
        }
    }

    fn dequeue(&mut self, now: SimTime, slab: &PacketSlab) -> Option<PacketHandle> {
        let pkt = self.inner.dequeue(slab);
        if self.inner.len == 0 && self.idle_since.is_none() {
            self.idle_since = Some(now);
        }
        pkt
    }
}

/// CoDel (Nichols & Jacobson): drop from the *head* when packets have been
/// sojourning above [`TARGET`](Self::TARGET) for at least
/// [`INTERVAL`](Self::INTERVAL), with drop spacing shrinking as
/// `INTERVAL / sqrt(count)` while the condition persists. Its parameters
/// are RFC 8289's defaults, constants like [`Red`]'s.
#[derive(Debug, Clone)]
pub struct CoDel {
    /// Handles with their enqueue times. Released when a pop empties it.
    buf: VecDeque<(PacketHandle, SimTime)>,
    /// Wire bytes buffered: the drop rule never drops the last MTU.
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
    /// Hard capacity in packets (a backstop; CoDel itself is unbounded).
    pub const MAX_PACKETS: usize = 1000;
    /// Acceptable standing sojourn time.
    pub const TARGET: SimDuration = SimDuration::from_millis(5);
    /// Sliding window in which the sojourn must fall below target.
    pub const INTERVAL: SimDuration = SimDuration::from_millis(100);

    fn new() -> Self {
        CoDel {
            buf: Default::default(),
            bytes: 0,
            first_above: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            count: 0,
        }
    }

    fn control_law(&self, t: SimTime) -> SimTime {
        t + Self::INTERVAL.mul_f64(1.0 / (self.count.max(1) as f64).sqrt())
    }

    fn pop(&mut self, slab: &PacketSlab) -> Option<(PacketHandle, SimTime)> {
        let e = self.buf.pop_front()?;
        self.bytes -= u64::from(slab.wire_size(e.0));
        if self.buf.is_empty() {
            self.buf = VecDeque::new();
        }
        Some(e)
    }

    /// Should the head packet be dropped, per the sojourn-time state
    /// machine? Updates `first_above`.
    fn ok_to_drop(&mut self, enq: SimTime, now: SimTime) -> bool {
        let sojourn = now.saturating_since(enq);
        if sojourn < Self::TARGET || self.bytes <= 1500 {
            self.first_above = None;
            return false;
        }
        match self.first_above {
            None => {
                self.first_above = Some(now + Self::INTERVAL);
                false
            }
            Some(t) => now >= t,
        }
    }

    fn enqueue(&mut self, now: SimTime, h: PacketHandle, slab: &PacketSlab) -> EnqueueResult {
        if self.buf.len() >= Self::MAX_PACKETS {
            return EnqueueResult::Dropped(DropReason::TailDrop);
        }
        self.bytes += u64::from(slab.wire_size(h));
        self.buf.push_back((h, now));
        EnqueueResult::Queued
    }

    fn dequeue(&mut self, now: SimTime, slab: &PacketSlab) -> Dequeued {
        let mut dropped = Vec::new();
        let Some((pkt, enq)) = self.pop(slab) else {
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
                    match self.pop(slab) {
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
            head = self.pop(slab);
        }

        Dequeued {
            pkt: head.map(|(p, _)| p),
            dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, Packet, Protocol, Tag};
    use crate::payload::Payload;
    use simbase::rng::{SimRng, Xoshiro256StarStar};

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
        fn offer(&mut self, q: &mut Queue, now: SimTime, p: Packet) -> EnqueueResult {
            let h = self.slab.insert(p);
            let rng = &mut self.rng;
            let r = q.enqueue(now, h, &mut self.slab, &mut |p| rng.chance(p));
            if matches!(r, EnqueueResult::Dropped(_)) {
                let _ = self.slab.take(h);
            }
            r
        }

        /// Dequeue, moving every returned packet out of the slab:
        /// `(delivered, head-dropped)`.
        fn pull(&mut self, q: &mut Queue, now: SimTime) -> (Option<Packet>, Vec<Packet>) {
            let d = q.dequeue(now, &self.slab);
            let dropped = d.dropped.iter().map(|&h| self.slab.take(h)).collect();
            (d.pkt.map(|h| self.slab.take(h)), dropped)
        }
    }

    impl Queue {
        /// RED's average-queue estimate, for the RED tests.
        fn avg_queue(&self) -> f64 {
            self.red().avg
        }

        fn red(&self) -> &Red {
            match self {
                Queue::Aqm(aqm) => match &**aqm {
                    Aqm::Red(red) => red,
                    Aqm::CoDel(_) => unreachable!("not a RED queue"),
                },
                Queue::DropTail(_) => unreachable!("not a RED queue"),
            }
        }

        fn codel(&self) -> &CoDel {
            match self {
                Queue::Aqm(aqm) => match &**aqm {
                    Aqm::CoDel(codel) => codel,
                    Aqm::Red(_) => unreachable!("not a CoDel queue"),
                },
                Queue::DropTail(_) => unreachable!("not a CoDel queue"),
            }
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
            ecn: crate::packet::Ecn::NotEct,
        }
    }

    #[test]
    fn droptail_is_fifo() {
        let mut net = Net::new(1);
        let mut q = QueueConfig::DropTailPackets(10).build();
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
        let mut q = QueueConfig::DropTailPackets(3).build();
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

    /// RED under sustained overload at time zero: `n` packets offered back
    /// to back with no service, so the buffer fills to `Red::MAX_PACKETS`
    /// and the average climbs toward it. Returns the early drops.
    fn red_overload(net: &mut Net, q: &mut Queue, n: u64) -> usize {
        (0..n)
            .filter(|&i| {
                matches!(
                    net.offer(q, SimTime::ZERO, pkt(i, 1000)),
                    EnqueueResult::Dropped(DropReason::EarlyDrop)
                )
            })
            .count()
    }

    #[test]
    fn red_decays_avg_across_idle_periods() {
        // Regression: the EWMA never decayed while the buffer sat empty, so
        // a stale-high avg early-dropped the first packets after an idle
        // period. With Floyd & Jacobson's idle-time compensation the
        // average is decayed by (1-w)^(idle / mean_pkt_time) at the next
        // enqueue.
        let mut net = Net::new(5);
        let mut q = QueueConfig::Red { ecn_marking: false }.build();
        // Build pressure: a standing queue pushes avg above min_thresh.
        red_overload(&mut net, &mut q, 200);
        assert!(q.avg_queue() > Red::MIN_THRESH);
        // Drain completely at t=0; the queue then idles for a full second
        // (~8300 mean packet times at 120 us).
        while net.pull(&mut q, SimTime::ZERO).0.is_some() {}
        let after_idle = SimTime::from_secs(1);
        // The first post-idle packets must be admitted, not early-dropped
        // off the stale average: with the old code avg would still be
        // > min_thresh and eligible for early drop.
        for i in 1000..1010 {
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
            q.avg_queue() < Red::MIN_THRESH,
            "idle decay must pull avg back under min_thresh, got {}",
            q.avg_queue()
        );
    }

    #[test]
    fn red_short_idle_decays_partially() {
        // A short gap decays avg a little, not to zero: after m mean packet
        // times the average shrinks by exactly (1-w)^m.
        let mut net = Net::new(5);
        let mut q = QueueConfig::Red { ecn_marking: false }.build();
        for i in 0..10 {
            let _ = net.offer(&mut q, SimTime::ZERO, pkt(i, 1000));
        }
        let before = q.avg_queue();
        assert!(before > 0.0);
        while net.pull(&mut q, SimTime::ZERO).0.is_some() {}
        // Idle exactly two mean packet times, then take one zero-length
        // sample: avg = before * (1-w)^2 * (1-w).
        let t = SimTime::ZERO + Red::MEAN_PKT_TIME * 2;
        let _ = net.offer(&mut q, t, pkt(100, 1000));
        let keep = 1.0 - Red::WEIGHT;
        let expected = before * keep.powi(2) * keep;
        assert!(
            (q.avg_queue() - expected).abs() < 1e-15,
            "expected {expected}, got {}",
            q.avg_queue()
        );
    }

    #[test]
    fn red_empty_queue_never_drops() {
        let mut net = Net::new(5);
        let mut q = QueueConfig::Red { ecn_marking: false }.build();
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
        let mut q = QueueConfig::Red { ecn_marking: false }.build();
        let early = red_overload(&mut net, &mut q, 400);
        assert!(early > 0, "RED should drop early under sustained overload");
    }

    #[test]
    fn queue_config_builds_right_impl() {
        let q = QueueConfig::DropTailPackets(4).build();
        assert!(matches!(q, Queue::DropTail(_)) && q.is_empty());
        let q = QueueConfig::Red { ecn_marking: true }.build();
        assert!(q.red().ecn_marking && q.is_empty());
        let q = QueueConfig::CoDel.build();
        assert!(q.codel().buf.is_empty() && q.is_empty());
    }

    fn stamped(id: u64) -> Packet {
        pkt(id, 1000)
    }

    #[test]
    fn codel_passes_traffic_below_target() {
        let mut net = Net::new(1);
        let mut q = QueueConfig::CoDel.build();
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
        let mut q = QueueConfig::CoDel.build();
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
        let mut q = QueueConfig::CoDel.build();
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
        let mut q = QueueConfig::CoDel.build();
        for i in 0..30u64 {
            let _ = net.offer(&mut q, SimTime::ZERO, stamped(i));
        }
        let mut seen = 0;
        while q.len_packets() > 0 {
            let (out, dropped) = net.pull(&mut q, SimTime::from_secs(1));
            seen += dropped.len() + out.is_some() as usize;
        }
        assert_eq!(seen, 30);
        assert_eq!(q.codel().bytes, 0);
    }

    /// Everything a queue shows the simulator for one op sequence: per
    /// dequeue the delivered id, the head-dropped ids and the packet count
    /// left behind; per enqueue whether the packet was admitted.
    fn drive(
        q: &mut Queue,
        net: &mut Net,
        ids: std::ops::Range<u64>,
        start: SimTime,
        gap: SimDuration,
    ) -> Vec<(Option<u64>, Vec<u64>, usize)> {
        let mut seen = Vec::new();
        for id in ids {
            let admitted = matches!(net.offer(q, start, pkt(id, 1000)), EnqueueResult::Queued);
            seen.push((admitted.then_some(id), Vec::new(), q.len_packets()));
        }
        let mut now = start;
        while !q.is_empty() {
            now += gap;
            let (out, dropped) = net.pull(q, now);
            let dropped = dropped.iter().map(|p| p.id).collect();
            seen.push((out.map(|p| p.id), dropped, q.len_packets()));
        }
        seen
    }

    /// Fill, drain to empty (slowly enough that an AQM acts), then check
    /// that the emptied queue — and a checkpoint of it — carries on exactly
    /// like one that kept its buffer: same admissions, FIFO deliveries,
    /// head drops and packet counts, with the AQM state the first burst left.
    fn emptied_queue_carries_on(q: &mut Queue) {
        let mut net = Net::new(9);
        let ms = SimDuration::from_millis;
        let first = drive(q, &mut net, 0..48, SimTime::ZERO, ms(10));
        assert_eq!(q.len_packets(), 0);
        assert!(first.len() > 48, "the first burst was queued and drained");

        let mut twin = q.clone();
        let mut twin_net = net.clone();
        let t = SimTime::from_secs(1);
        let second = drive(q, &mut net, 100..148, t, ms(10));
        assert_eq!(second, drive(&mut twin, &mut twin_net, 100..148, t, ms(10)));
        assert_eq!(q.len_packets(), 0);
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
    fn droptail_holds_no_link_when_emptied_and_carries_on() {
        let mut q = QueueConfig::DropTailPackets(32).build();
        emptied_queue_carries_on(&mut q);
        let Queue::DropTail(dt) = &q else {
            unreachable!()
        };
        assert_eq!((dt.head, dt.tail), (None, None));
        // A dequeue of the empty queue is a no-op.
        assert!(q
            .dequeue(SimTime::ZERO, &PacketSlab::default())
            .pkt
            .is_none());
        assert_eq!(q.len_packets(), 0);
    }

    #[test]
    fn red_holds_no_link_when_emptied_and_carries_on() {
        let mut q = QueueConfig::Red { ecn_marking: false }.build();
        emptied_queue_carries_on(&mut q);
        let q = q.red();
        assert_eq!((q.inner.head, q.inner.tail), (None, None));
        assert!(q.idle_since.is_some(), "the idle clock runs while empty");
    }

    #[test]
    fn codel_releases_its_buffer_when_emptied_and_carries_on() {
        let mut q = QueueConfig::CoDel.build();
        emptied_queue_carries_on(&mut q);
        let q = q.codel();
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
        let mut q = QueueConfig::Red { ecn_marking: true }.build();
        let ect = |i| Packet {
            ecn: Ecn::Ect,
            ..pkt(i, 1000)
        };
        // A standing queue of 40 ECT packets that the link serves at the
        // rate they arrive: no tail drop, and the average climbs past
        // min_thresh so RED signals on some of the arrivals.
        let mut dropped = 0;
        let mut marked = 0;
        for i in 0..400 {
            if let EnqueueResult::Dropped(_) = net.offer(&mut q, SimTime::ZERO, ect(i)) {
                dropped += 1;
            }
            // The mark is on the slab's packet — the one delivery will
            // read — not on a copy the queue keeps.
            if q.len_packets() > 40 {
                let out = q.dequeue(SimTime::ZERO, &net.slab).pkt.unwrap();
                marked += usize::from(net.slab.take(out).ecn == Ecn::Ce);
            }
        }
        assert!(q.avg_queue() > Red::MIN_THRESH);
        assert!(marked > 0, "ECT packets must be CE-marked under pressure");
        assert_eq!(dropped, 0, "marking replaces early drops for ECT traffic");
    }

    #[test]
    fn fifos_of_several_directions_share_one_slab() {
        // Three drop-tail queues fed interleaved from one slab, as the link
        // directions of a simulator are: each keeps its own arrival order,
        // whatever the others hold, and the slab's slots are recycled
        // between them.
        let mut net = Net::new(1);
        let mut qs: Vec<Queue> = (0..3)
            .map(|_| QueueConfig::DropTailPackets(8).build())
            .collect();
        let mut expect: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for round in 0..40u64 {
            let k = (round * 7 % 3) as usize;
            if matches!(
                net.offer(&mut qs[k], SimTime::ZERO, pkt(round, 100)),
                EnqueueResult::Queued
            ) {
                expect[k].push(round);
            }
            // Drain another queue every third round.
            if round % 3 == 2 {
                let j = (round % 2) as usize;
                if let (Some(p), _) = net.pull(&mut qs[j], SimTime::ZERO) {
                    seen[j].push(p.id);
                }
            }
        }
        for (k, q) in qs.iter_mut().enumerate() {
            while let (Some(p), _) = net.pull(q, SimTime::ZERO) {
                seen[k].push(p.id);
            }
            assert_eq!(q.len_packets(), 0);
        }
        assert_eq!(seen, expect);
        assert!(expect.iter().all(|e| !e.is_empty()));
        assert_eq!(net.slab.live(), 0);
        assert!(
            net.slab.high_water() < 40,
            "slots were reused across queues"
        );
    }

    /// Every decision an AQM shows the simulator over a fixed script —
    /// admissions, early and tail drops, CE marks, deliveries, head drops,
    /// packet counts — folded into one FNV digest.
    fn aqm_digest(cfg: QueueConfig) -> u64 {
        let mut net = Net::new(17);
        let mut q = cfg.build();
        let mut h = simbase::Fnv64::new();
        let mut now = SimTime::ZERO;
        for id in 0..3000u64 {
            // Bursts of arrivals against a link that serves one packet per
            // 1.5 arrivals, with an idle gap every 500 packets.
            now += SimDuration::from_micros(if id % 500 == 0 { 50_000 } else { 80 });
            let p = Packet {
                ecn: if id % 3 == 0 { Ecn::NotEct } else { Ecn::Ect },
                ..pkt(id, 200 + (id % 7) as u32 * 190)
            };
            let r = match net.offer(&mut q, now, p) {
                EnqueueResult::Queued => 0,
                EnqueueResult::Dropped(DropReason::TailDrop) => 1,
                EnqueueResult::Dropped(DropReason::EarlyDrop) => 2,
            };
            h.write_u64(r);
            h.write_u64(q.len_packets() as u64);
            if id % 3 != 1 {
                let (out, dropped) = net.pull(&mut q, now);
                for d in dropped {
                    h.write_u64(d.id | 1 << 62);
                }
                if let Some(p) = out {
                    h.write_u64(p.id | u64::from(p.ecn == Ecn::Ce) << 63);
                }
            }
        }
        h.finish()
    }

    #[test]
    fn aqm_decisions_are_pinned() {
        // Computed on the tree whose drop-tail FIFOs were already linked
        // through the slab, with the digest's queue term changed from the
        // byte count to the packet count (the values before matched the
        // buffers the AQMs kept before that link): a change in any drop,
        // mark or delivery moves a digest.
        let got = [
            aqm_digest(QueueConfig::Red { ecn_marking: false }),
            aqm_digest(QueueConfig::Red { ecn_marking: true }),
            aqm_digest(QueueConfig::CoDel),
            aqm_digest(QueueConfig::DropTailPackets(16)),
        ];
        println!("{got:#x?}");
        assert_eq!(got, AQM_DIGESTS);
    }

    const AQM_DIGESTS: [u64; 4] = [
        0x8827_b807_ae03_15c0,
        0x7bcb_a754_56c4_ddfd,
        0xcb9f_2305_a51c_1203,
        0x4a05_1c61_48bf_a09b,
    ];
}
