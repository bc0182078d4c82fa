//! Per-link and per-simulation counters.
//!
//! Statistics answer the questions a topology debugging session always asks:
//! which link saturated, where did the drops happen, how full were the
//! queues. They are cheap (a handful of integer adds per packet) and always
//! on.

use serde::Serialize;
use simbase::SimDuration;

/// Counters for one direction of one link.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LinkDirStats {
    /// Packets fully serialized onto the wire.
    pub tx_packets: u64,
    /// Wire bytes fully serialized.
    pub tx_bytes: u64,
    /// Packets dropped at the output queue.
    pub drops: u64,
    /// Bytes dropped at the output queue.
    pub drop_bytes: u64,
    /// Maximum instantaneous queue depth seen (packets).
    pub max_queue_packets: usize,
    /// Maximum instantaneous queue depth seen (bytes).
    pub max_queue_bytes: u64,
    /// Cumulative busy time of the transmitter.
    pub busy_time: SimDuration,
}

impl LinkDirStats {
    /// Record a completed transmission.
    pub fn on_tx(&mut self, wire_bytes: u32, tx_time: SimDuration) {
        self.tx_packets += 1;
        self.tx_bytes += wire_bytes as u64;
        self.busy_time += tx_time;
    }

    /// Record a queue drop.
    pub fn on_drop(&mut self, wire_bytes: u32) {
        self.drops += 1;
        self.drop_bytes += wire_bytes as u64;
    }

    /// Track the high-water mark of the queue.
    pub fn observe_queue(&mut self, packets: usize, bytes: u64) {
        self.max_queue_packets = self.max_queue_packets.max(packets);
        self.max_queue_bytes = self.max_queue_bytes.max(bytes);
    }

    /// Link utilization over `elapsed`: busy time / wall time, in `[0, 1]`.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.busy_time.as_nanos() as f64 / elapsed.as_nanos() as f64
    }

    /// Fraction of offered packets that were dropped.
    pub fn drop_rate(&self) -> f64 {
        let offered = self.tx_packets + self.drops;
        if offered == 0 {
            return 0.0;
        }
        self.drops as f64 / offered as f64
    }
}

/// Simulation-wide counters.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SimStats {
    /// Total events processed.
    pub events: u64,
    /// Packets created by agents.
    pub packets_sent: u64,
    /// Packets delivered to destination agents.
    pub packets_delivered: u64,
    /// Packets dropped at queues.
    pub packets_dropped: u64,
    /// Packets discarded for lack of a route.
    pub packets_unroutable: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Timer deadlines cancelled before firing (replaced by a re-arm or
    /// revoked via `Ctx::cancel_timer`); these never pop from the queue.
    pub timers_cancelled: u64,
}

impl SimStats {
    /// Conservation check: everything sent is delivered, dropped, lost to
    /// routing, or still in flight (`in_flight` supplied by the caller).
    pub fn conserved(&self, in_flight: u64) -> bool {
        self.packets_sent
            == self.packets_delivered + self.packets_dropped + self.packets_unroutable + in_flight
    }
}

/// How much work a run did, layer by layer: plain `u64` adds on the paths
/// they count, always on, never part of the trace hash or of any table.
/// [`crate::Simulator::counters`] assembles one; a reader walks
/// [`SimCounters::entries`] and needs no per-field code.
///
/// Deterministic for a given world and seed, so two builds that disagree on
/// a counter did different work — a layout claim can be stated as a
/// counter diff before anyone times anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Events pushed onto the event queue, cancelled ones included.
    pub queue_pushes: u64,
    /// Events popped and executed.
    pub queue_pops: u64,
    /// Events cancelled before they fired (re-armed or revoked timers).
    pub queue_cancels: u64,
    /// Entries the timing wheel re-distributed to a lower level.
    pub queue_cascaded: u64,
    /// High-water mark of the wheel's chunk pool (64 entries per chunk).
    pub queue_pool_chunks: u64,
    /// Packets handed to an output link (one per forwarding decision).
    pub hops: u64,
    /// Packets that met a busy transmitter and were buffered.
    pub link_enqueues: u64,
    /// Packets lost at a link: refused or head-dropped by its queue,
    /// offered to a down interface, corrupted, or flushed by a fault.
    pub link_drops: u64,
    /// Most packets inside the network at once (packet-slab slots).
    pub slab_high_water: u64,
    /// `Agent::on_start` dispatches.
    pub on_start: u64,
    /// `Agent::on_timer` dispatches.
    pub on_timer: u64,
    /// `Agent::on_packet` dispatches (one per delivered packet).
    pub on_packet: u64,
    /// Route sets the tagged routes of the whole network occupy.
    pub route_sets: u64,
    /// Data segments TCP senders emitted, retransmissions included. This
    /// and the counters below are the agents' own: each adds its share
    /// through [`crate::Agent::count`] when the counters are read.
    pub tcp_segments_sent: u64,
    /// Of those, retransmissions.
    pub tcp_retransmits: u64,
    /// Retransmission timeouts.
    pub tcp_rtos: u64,
    /// SACK blocks senders entered into their scoreboards.
    pub tcp_sack_blocks: u64,
    /// Most ranges any one SACK scoreboard, out-of-order buffer or DSN
    /// reassembly set ever held — what says whether a sorted vector is
    /// still the right container for them.
    pub range_set_max_len: u64,
    /// Subflows the MPTCP schedulers picked, one per chunk copy assigned.
    pub scheduler_picks: u64,
    /// Packets MPTCP endpoints counted as malformed and dropped on arrival.
    pub rx_malformed: u64,
}

impl SimCounters {
    /// Every counter as a `(name, value)` pair, in declaration order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("queue.pushes", self.queue_pushes),
            ("queue.pops", self.queue_pops),
            ("queue.cancels", self.queue_cancels),
            ("queue.cascaded", self.queue_cascaded),
            ("queue.pool_chunks_high_water", self.queue_pool_chunks),
            ("netsim.hops", self.hops),
            ("netsim.link_enqueues", self.link_enqueues),
            ("netsim.link_drops", self.link_drops),
            ("netsim.slab_high_water", self.slab_high_water),
            ("netsim.on_start", self.on_start),
            ("netsim.on_timer", self.on_timer),
            ("netsim.on_packet", self.on_packet),
            ("netsim.route_sets", self.route_sets),
            ("tcpsim.segments_sent", self.tcp_segments_sent),
            ("tcpsim.retransmits", self.tcp_retransmits),
            ("tcpsim.rtos", self.tcp_rtos),
            ("tcpsim.sack_blocks", self.tcp_sack_blocks),
            ("tcpsim.range_set_max_len", self.range_set_max_len),
            ("mptcpsim.scheduler_picks", self.scheduler_picks),
            ("mptcpsim.rx_malformed", self.rx_malformed),
        ]
        .into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_accumulates() {
        let mut s = LinkDirStats::default();
        s.on_tx(1500, SimDuration::from_micros(120));
        s.on_tx(40, SimDuration::from_micros(4));
        assert_eq!(s.tx_packets, 2);
        assert_eq!(s.tx_bytes, 1540);
        assert_eq!(s.busy_time, SimDuration::from_micros(124));
    }

    #[test]
    fn utilization_is_busy_fraction() {
        let mut s = LinkDirStats::default();
        s.on_tx(1500, SimDuration::from_millis(250));
        assert!((s.utilization(SimDuration::from_secs(1)) - 0.25).abs() < 1e-12);
        assert_eq!(s.utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn drop_rate() {
        let mut s = LinkDirStats::default();
        assert_eq!(s.drop_rate(), 0.0);
        s.on_tx(100, SimDuration::from_nanos(1));
        s.on_tx(100, SimDuration::from_nanos(1));
        s.on_tx(100, SimDuration::from_nanos(1));
        s.on_drop(100);
        assert!((s.drop_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn queue_high_water_mark() {
        let mut s = LinkDirStats::default();
        s.observe_queue(3, 4500);
        s.observe_queue(1, 1500);
        s.observe_queue(5, 2000);
        assert_eq!(s.max_queue_packets, 5);
        assert_eq!(s.max_queue_bytes, 4500);
    }

    #[test]
    fn conservation() {
        let s = SimStats {
            packets_sent: 10,
            packets_delivered: 6,
            packets_dropped: 2,
            packets_unroutable: 1,
            ..Default::default()
        };
        assert!(s.conserved(1));
        assert!(!s.conserved(0));
    }
}
