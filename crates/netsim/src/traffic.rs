//! Background traffic generators (plain datagram agents).
//!
//! Real networks are never idle: the paper's testbed competes with kernel
//! chatter, and any deployment of tagged multipath routing competes with
//! cross traffic. These agents inject open-loop load so experiments can ask
//! "does the congestion controller still find the optimum when the
//! bottlenecks are partially occupied?".

use crate::agent::{Agent, Ctx};
use crate::packet::{Ecn, NodeId, Packet, Protocol, Tag};
use crate::payload::Payload;
use simbase::{Bandwidth, SimDuration};

/// Constant-bit-rate datagram source: one `packet_bytes` packet every
/// `interval`, forever (or until the simulator's deadline).
#[derive(Clone)]
pub struct CbrSource {
    dst: NodeId,
    tag: Tag,
    packet_bytes: u32,
    interval: SimDuration,
    sent: u64,
}

impl CbrSource {
    /// A CBR source approximating `rate` with `packet_bytes`-sized packets.
    pub fn new(dst: NodeId, tag: Tag, rate: Bandwidth, packet_bytes: u32) -> Self {
        assert!(packet_bytes > 0);
        let wire = packet_bytes as u64 + crate::packet::IP_HEADER_BYTES as u64;
        let interval = rate.tx_time(wire); // time to "earn" one packet at `rate`
        CbrSource {
            dst,
            tag,
            packet_bytes,
            interval,
            sent: 0,
        }
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn emit(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(
            self.dst,
            self.tag,
            Protocol::Raw,
            Payload::empty(),
            self.packet_bytes,
            Ecn::NotEct,
        );
        self.sent += 1;
        ctx.set_timer_after(self.interval, 0);
    }
}

impl Agent for CbrSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.emit(ctx);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.emit(ctx);
    }
}

/// A sink that counts datagrams (attach at the destination host).
#[derive(Clone, Default)]
pub struct DatagramSink {
    /// Packets received.
    pub received: u64,
    /// Wire bytes received.
    pub bytes: u64,
}

impl Agent for DatagramSink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
        self.received += 1;
        self.bytes += pkt.wire_size() as u64;
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueueConfig, RoutingTables, Simulator, Topology};
    use simbase::SimTime;

    fn net(cap_mbps: u64) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(
            a,
            b,
            Bandwidth::from_mbps(cap_mbps),
            SimDuration::from_millis(1),
            QueueConfig::DropTailPackets(64),
        );
        (t, a, b)
    }

    #[test]
    fn cbr_hits_its_configured_rate() {
        let (topo, a, b) = net(100);
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        sim.add_agent(
            a,
            Box::new(CbrSource::new(b, Tag::NONE, Bandwidth::from_mbps(10), 1000)),
            SimTime::ZERO,
        );
        let sink = sim.add_agent(b, Box::new(DatagramSink::default()), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(2));
        let sink = sim
            .agent(sink)
            .as_any()
            .unwrap()
            .downcast_ref::<DatagramSink>()
            .unwrap();
        let mbps = sink.bytes as f64 * 8.0 / 2.0 / 1e6;
        assert!((mbps - 10.0).abs() < 0.5, "CBR rate {mbps:.2}");
        assert_eq!(sim.stats().packets_dropped, 0);
    }

    #[test]
    fn cbr_overload_saturates_and_drops() {
        let (topo, a, b) = net(5);
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        sim.add_agent(
            a,
            Box::new(CbrSource::new(b, Tag::NONE, Bandwidth::from_mbps(10), 1000)),
            SimTime::ZERO,
        );
        let sink = sim.add_agent(b, Box::new(DatagramSink::default()), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(2));
        let sink = sim
            .agent(sink)
            .as_any()
            .unwrap()
            .downcast_ref::<DatagramSink>()
            .unwrap();
        let mbps = sink.bytes as f64 * 8.0 / 2.0 / 1e6;
        assert!(mbps <= 5.05 && mbps > 4.5, "capped at capacity: {mbps:.2}");
        assert!(sim.stats().packets_dropped > 0);
    }
}
