//! # netsim — a deterministic packet-level network simulator
//!
//! This crate models the substrate the paper runs on (Mininet in the
//! original): nodes connected by full-duplex links with finite capacity,
//! propagation delay, and drop-tail (or RED) output queues, plus the
//! *tag-based deterministic routing* the authors added to pin MPTCP
//! subflows to chosen paths.
//!
//! Layering:
//!
//! * [`topology`] — the static network description (shared with `lpsolve`).
//! * [`paths`] — path enumeration and overlap analysis.
//! * [`routing`] — per-node FIBs: tag routes, defaults, ECMP groups.
//! * [`queue`] — drop-tail and RED output queues.
//! * [`slab`] — where packets in the network live; the rest carries handles.
//! * [`agent`] — the sans-IO endpoint interface protocol stacks implement.
//! * [`sim`] — the event loop tying it all together.
//! * [`faults`] — declarative timed network mutations (failover etc.).
//! * [`capture`] / [`stats`] — tshark-style records and counters.
//!
//! The simulator is single-threaded and deterministic: a topology, agent
//! set, and seed fully determine every event. See the workspace DESIGN.md
//! for how this substitutes for the paper's Mininet testbed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod capture;
pub mod faults;
pub mod packet;
pub mod paths;
pub mod payload;
pub mod queue;
pub mod routing;
pub mod sim;
pub mod slab;
pub mod stats;
pub mod topology;
pub mod traffic;

pub use agent::{Agent, AgentId, Ctx, Effect};
pub use capture::{BufferSink, CaptureConfig, CaptureKind, CaptureRecord, CaptureSink};
pub use faults::{FaultAction, FaultSchedule};
pub use packet::{Dir, Ecn, LinkId, NodeId, Packet, PacketMeta, Protocol, Tag, IP_HEADER_BYTES};
pub use paths::{
    all_simple_paths, k_shortest_paths, shortest_path, Path, PathError, SharingAnalysis,
};
pub use payload::{Payload, PayloadWriter, INLINE_CAP};
pub use queue::{
    CoDel, CoDelConfig, Dequeued, DropReason, DropTail, EnqueueResult, Queue, QueueConfig, Queued,
    Red, RedConfig,
};
pub use routing::{ecmp_select, RoutingTables};
pub use sim::{SimSnapshot, Simulator, SNAPSHOT_VERSION};
pub use slab::{PacketHandle, PacketSlab};
pub use stats::{LinkDirStats, SimCounters, SimStats};
pub use topology::{LinkSpec, NodeInfo, Topology};
pub use traffic::{CbrSource, DatagramSink, OnOffSource};

#[cfg(test)]
mod sim_tests {
    use super::*;
    use simbase::{Bandwidth, SimDuration, SimTime};

    /// An agent that sends `count` raw packets of `data_len` bytes to `dst`
    /// at start, optionally paced by a timer.
    struct Blaster {
        dst: NodeId,
        tag: Tag,
        count: u32,
        data_len: u32,
        sent: u32,
        pace: Option<SimDuration>,
    }

    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            match self.pace {
                None => {
                    for _ in 0..self.count {
                        ctx.send(
                            self.dst,
                            self.tag,
                            Protocol::Raw,
                            Payload::empty(),
                            self.data_len,
                            1,
                        );
                    }
                    self.sent = self.count;
                }
                Some(gap) => {
                    ctx.send(
                        self.dst,
                        self.tag,
                        Protocol::Raw,
                        Payload::empty(),
                        self.data_len,
                        1,
                    );
                    self.sent = 1;
                    if self.sent < self.count {
                        ctx.set_timer_after(gap, 0);
                    }
                }
            }
        }

        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.send(
                self.dst,
                self.tag,
                Protocol::Raw,
                Payload::empty(),
                self.data_len,
                1,
            );
            self.sent += 1;
            if self.sent < self.count {
                ctx.set_timer_after(self.pace.unwrap(), 0);
            }
        }
    }

    /// Counts deliveries.
    struct Sink {
        received: u64,
        last_at: SimTime,
    }

    impl Agent for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.received += 1;
            self.last_at = ctx.now();
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    }

    fn two_node_net(
        capacity: Bandwidth,
        delay: SimDuration,
        queue: QueueConfig,
    ) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(a, b, capacity, delay, queue);
        (t, a, b)
    }

    #[test]
    fn single_packet_end_to_end_timing() {
        // 1000B data + 20B IP = 1020 wire bytes at 1 Mbps = 8.16 ms
        // serialization + 5 ms propagation = arrival at 13.16 ms.
        let (topo, a, b) = two_node_net(
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(5),
            QueueConfig::default(),
        );
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        sim.add_agent(
            a,
            Box::new(Blaster {
                dst: b,
                tag: Tag::NONE,
                count: 1,
                data_len: 1000,
                sent: 0,
                pace: None,
            }),
            SimTime::ZERO,
        );
        let sink = sim.add_agent(
            b,
            Box::new(Sink {
                received: 0,
                last_at: SimTime::ZERO,
            }),
            SimTime::ZERO,
        );
        sim.run_to_completion();

        assert_eq!(sim.stats().packets_delivered, 1);
        let expected = SimTime::from_nanos(8_160_000 + 5_000_000);
        assert_eq!(sim.now(), expected);
        let _ = sink;
    }

    #[test]
    fn fifo_burst_is_serialized_back_to_back() {
        // 10 packets of 1020 wire bytes at 1 Mbps: nth arrival at
        // n*8.16ms + 5ms.
        let (topo, a, b) = two_node_net(
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(5),
            QueueConfig::DropTailPackets(100),
        );
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        sim.add_agent(
            a,
            Box::new(Blaster {
                dst: b,
                tag: Tag::NONE,
                count: 10,
                data_len: 1000,
                sent: 0,
                pace: None,
            }),
            SimTime::ZERO,
        );
        sim.add_agent(
            b,
            Box::new(Sink {
                received: 0,
                last_at: SimTime::ZERO,
            }),
            SimTime::ZERO,
        );
        sim.run_to_completion();
        assert_eq!(sim.stats().packets_delivered, 10);
        assert_eq!(sim.now(), SimTime::from_nanos(10 * 8_160_000 + 5_000_000));
        assert_eq!(sim.link_stats(LinkId(0), Dir::AtoB).tx_packets, 10);
        assert_eq!(sim.link_stats(LinkId(0), Dir::AtoB).tx_bytes, 10_200);
    }

    #[test]
    fn queue_overflow_drops_and_accounts() {
        // Queue of 4 packets + 1 transmitting: a burst of 10 loses 5.
        let (topo, a, b) = two_node_net(
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(1),
            QueueConfig::DropTailPackets(4),
        );
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        sim.set_capture(CaptureConfig::everything());
        sim.add_agent(
            a,
            Box::new(Blaster {
                dst: b,
                tag: Tag::NONE,
                count: 10,
                data_len: 1000,
                sent: 0,
                pace: None,
            }),
            SimTime::ZERO,
        );
        sim.add_agent(
            b,
            Box::new(Sink {
                received: 0,
                last_at: SimTime::ZERO,
            }),
            SimTime::ZERO,
        );
        sim.run_to_completion();

        assert_eq!(sim.stats().packets_delivered, 5);
        assert_eq!(sim.stats().packets_dropped, 5);
        assert!(sim.stats().conserved(0));
        assert_eq!(sim.link_stats(LinkId(0), Dir::AtoB).drops, 5);
        let drops = sim
            .captures()
            .iter()
            .filter(|c| c.kind == CaptureKind::Dropped)
            .count();
        assert_eq!(drops, 5);
    }

    #[test]
    fn paced_traffic_never_drops() {
        // One packet per 10 ms over a link that serializes in 8.16 ms.
        let (topo, a, b) = two_node_net(
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(1),
            QueueConfig::DropTailPackets(1),
        );
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        sim.add_agent(
            a,
            Box::new(Blaster {
                dst: b,
                tag: Tag::NONE,
                count: 20,
                data_len: 1000,
                sent: 0,
                pace: Some(SimDuration::from_millis(10)),
            }),
            SimTime::ZERO,
        );
        sim.add_agent(
            b,
            Box::new(Sink {
                received: 0,
                last_at: SimTime::ZERO,
            }),
            SimTime::ZERO,
        );
        sim.run_to_completion();
        assert_eq!(sim.stats().packets_delivered, 20);
        assert_eq!(sim.stats().packets_dropped, 0);
    }

    #[test]
    fn multihop_forwarding_follows_tags() {
        // s->u->d (fast) vs s->v->d (slow); tagged flow pinned to the slow path.
        let mut topo = Topology::new();
        let s = topo.add_node("s");
        let u = topo.add_node("u");
        let v = topo.add_node("v");
        let d = topo.add_node("d");
        let bw = Bandwidth::from_mbps(10);
        topo.add_link(
            s,
            u,
            bw,
            SimDuration::from_millis(1),
            QueueConfig::default(),
        );
        topo.add_link(
            u,
            d,
            bw,
            SimDuration::from_millis(1),
            QueueConfig::default(),
        );
        topo.add_link(
            s,
            v,
            bw,
            SimDuration::from_millis(5),
            QueueConfig::default(),
        );
        topo.add_link(
            v,
            d,
            bw,
            SimDuration::from_millis(5),
            QueueConfig::default(),
        );
        let via_v = Path::from_nodes(&topo, &[s, v, d]).unwrap();
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        rt.install_path(&via_v, Tag(2));

        let mut sim = Simulator::new(topo, rt, 1);
        sim.set_capture(CaptureConfig::everything());
        sim.add_agent(
            s,
            Box::new(Blaster {
                dst: d,
                tag: Tag(2),
                count: 1,
                data_len: 100,
                sent: 0,
                pace: None,
            }),
            SimTime::ZERO,
        );
        sim.add_agent(
            d,
            Box::new(Sink {
                received: 0,
                last_at: SimTime::ZERO,
            }),
            SimTime::ZERO,
        );
        sim.run_to_completion();

        assert_eq!(sim.stats().packets_delivered, 1);
        // Wire: 120B at 10Mbps = 96us per hop; 2 hops + 10ms propagation.
        assert_eq!(sim.now(), SimTime::from_nanos(2 * 96_000 + 10_000_000));
        // Forwarded via v, not u.
        let forwarded: Vec<_> = sim
            .captures()
            .iter()
            .filter(|c| c.kind == CaptureKind::Forwarded)
            .map(|c| c.node)
            .collect();
        assert_eq!(forwarded, vec![s, v]);
    }

    #[test]
    fn unroutable_packets_are_counted_not_lost() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let c = topo.add_node("c");
        topo.add_link(
            a,
            b,
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(1),
            QueueConfig::default(),
        );
        topo.add_link(
            b,
            c,
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(1),
            QueueConfig::default(),
        );
        // No routes installed at all: packets die at the source.
        let rt = RoutingTables::new(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        sim.add_agent(
            a,
            Box::new(Blaster {
                dst: c,
                tag: Tag::NONE,
                count: 3,
                data_len: 10,
                sent: 0,
                pace: None,
            }),
            SimTime::ZERO,
        );
        sim.run_to_completion();
        assert_eq!(sim.stats().packets_unroutable, 3);
        assert!(sim.stats().conserved(0));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> (u64, SimTime, u64) {
            let (topo, a, b) = two_node_net(
                Bandwidth::from_mbps(5),
                SimDuration::from_millis(2),
                QueueConfig::DropTailPackets(8),
            );
            let mut rt = RoutingTables::new(&topo);
            rt.install_all_default_routes(&topo);
            let mut sim = Simulator::new(topo, rt, seed);
            sim.add_agent(
                a,
                Box::new(Blaster {
                    dst: b,
                    tag: Tag::NONE,
                    count: 50,
                    data_len: 1200,
                    sent: 0,
                    pace: None,
                }),
                SimTime::ZERO,
            );
            sim.add_agent(
                b,
                Box::new(Sink {
                    received: 0,
                    last_at: SimTime::ZERO,
                }),
                SimTime::ZERO,
            );
            sim.run_to_completion();
            (sim.stats().packets_delivered, sim.now(), sim.stats().events)
        }
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (topo, a, b) = two_node_net(
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(5),
            QueueConfig::DropTailPackets(100),
        );
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        sim.add_agent(
            a,
            Box::new(Blaster {
                dst: b,
                tag: Tag::NONE,
                count: 10,
                data_len: 1000,
                sent: 0,
                pace: None,
            }),
            SimTime::ZERO,
        );
        sim.add_agent(
            b,
            Box::new(Sink {
                received: 0,
                last_at: SimTime::ZERO,
            }),
            SimTime::ZERO,
        );
        // First arrival is at 13.16ms; stop before it.
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert_eq!(sim.stats().packets_delivered, 0);
        assert!(sim.packets_in_flight() > 0);
        sim.run_to_completion();
        assert_eq!(sim.stats().packets_delivered, 10);
        assert_eq!(sim.packets_in_flight(), 0);
    }

    /// Build a ready-to-run sim over a two-node net with a Blaster at `a`
    /// and a Sink at `b`.
    fn blaster_sim(
        capacity: Bandwidth,
        delay: SimDuration,
        queue: QueueConfig,
        count: u32,
        data_len: u32,
        pace: Option<SimDuration>,
    ) -> Simulator {
        let (topo, a, b) = two_node_net(capacity, delay, queue);
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        sim.add_agent(
            a,
            Box::new(Blaster {
                dst: b,
                tag: Tag::NONE,
                count,
                data_len,
                sent: 0,
                pace,
            }),
            SimTime::ZERO,
        );
        sim.add_agent(
            b,
            Box::new(Sink {
                received: 0,
                last_at: SimTime::ZERO,
            }),
            SimTime::ZERO,
        );
        sim
    }

    #[test]
    fn outage_drops_traffic_then_recovers_conserved() {
        // One packet per 10 ms for 300 ms; the link is out over [95, 145) ms,
        // so the packets sent at 100/110/120/130/140 ms are lost at the
        // interface and everything before/after delivers.
        let mut sim = blaster_sim(
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(1),
            QueueConfig::DropTailPackets(100),
            30,
            1000,
            Some(SimDuration::from_millis(10)),
        );
        sim.install_faults(&FaultSchedule::new().outage(
            LinkId(0),
            SimTime::from_millis(95),
            SimTime::from_millis(145),
        ));
        sim.run_to_completion();
        assert_eq!(sim.stats().packets_dropped, 5);
        assert_eq!(sim.stats().packets_delivered, 25);
        assert!(sim.stats().conserved(0));
        assert!(sim.link_is_up(LinkId(0)));
    }

    #[test]
    fn stale_txdone_cannot_complete_a_later_transmission() {
        // Packet 1 starts serializing at t=0 (1020 wire bytes at 1 Mbps:
        // TxDone pending at 8.16 ms). The link dies at 4 ms — aborting that
        // serialization — and returns at 5 ms. Packet 2 is sent at 6 ms and
        // must finish at 6 + 8.16 = 14.16 ms; the stale TxDone firing at
        // 8.16 ms carries the pre-abort epoch and must NOT complete it
        // early. Arrival is therefore at 14.16 + 5 (delay) = 19.16 ms.
        let mut sim = blaster_sim(
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(5),
            QueueConfig::DropTailPackets(10),
            2,
            1000,
            Some(SimDuration::from_millis(6)),
        );
        sim.install_faults(&FaultSchedule::new().outage(
            LinkId(0),
            SimTime::from_millis(4),
            SimTime::from_millis(5),
        ));
        sim.run_to_completion();
        assert_eq!(sim.stats().packets_dropped, 1);
        assert_eq!(sim.stats().packets_delivered, 1);
        assert_eq!(
            sim.now(),
            SimTime::from_nanos(6_000_000 + 8_160_000 + 5_000_000)
        );
        assert!(sim.stats().conserved(0));
    }

    #[test]
    fn capacity_fault_applies_to_subsequent_transmissions_only() {
        // Two back-to-back packets at t=0. Packet 1 serializes at 1 Mbps
        // (8.16 ms) and keeps that timing even though capacity doubles at
        // 2 ms; packet 2 starts at 8.16 ms at 2 Mbps (4.08 ms). Last
        // arrival: 8.16 + 4.08 + 5 = 17.24 ms.
        let mut sim = blaster_sim(
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(5),
            QueueConfig::DropTailPackets(10),
            2,
            1000,
            None,
        );
        sim.schedule_fault(
            SimTime::from_millis(2),
            FaultAction::SetCapacity(LinkId(0), Bandwidth::from_mbps(2)),
        );
        sim.run_to_completion();
        assert_eq!(sim.stats().packets_delivered, 2);
        assert_eq!(
            sim.now(),
            SimTime::from_nanos(8_160_000 + 4_080_000 + 5_000_000)
        );
    }

    #[test]
    fn delay_fault_changes_propagation_of_later_packets() {
        // Paced packets at 0 and 20 ms; delay is raised from 5 to 15 ms in
        // between. Packet 2 finishes serializing at 28.16 ms and arrives
        // 15 ms later, at 43.16 ms.
        let mut sim = blaster_sim(
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(5),
            QueueConfig::DropTailPackets(10),
            2,
            1000,
            Some(SimDuration::from_millis(20)),
        );
        sim.schedule_fault(
            SimTime::from_millis(10),
            FaultAction::SetDelay(LinkId(0), SimDuration::from_millis(15)),
        );
        sim.run_to_completion();
        assert_eq!(sim.stats().packets_delivered, 2);
        assert_eq!(
            sim.now(),
            SimTime::from_nanos(20_000_000 + 8_160_000 + 15_000_000)
        );
    }

    #[test]
    fn loss_burst_blackholes_window_deterministically() {
        // One packet per 10 ms for 200 ms; loss probability 1.0 over
        // [45, 95) ms kills exactly the packets *serialized* inside the
        // window (sent at 50..=90 ms), five in all.
        let mut sim = blaster_sim(
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(1),
            QueueConfig::DropTailPackets(100),
            20,
            1000,
            Some(SimDuration::from_millis(10)),
        );
        sim.install_faults(&FaultSchedule::new().loss_burst(
            LinkId(0),
            SimTime::from_millis(45),
            SimTime::from_millis(95),
            1.0,
        ));
        sim.run_to_completion();
        assert_eq!(sim.stats().packets_dropped, 5);
        assert_eq!(sim.stats().packets_delivered, 15);
        assert!(sim.stats().conserved(0));
    }

    #[test]
    fn queue_fault_reoffers_buffered_packets_and_drops_excess() {
        // Burst of 10: one serializing, nine buffered. Shrinking the queue
        // to 2 packets at 1 ms keeps the first two buffered packets (FIFO)
        // and drops the other seven, all accounted.
        let mut sim = blaster_sim(
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(1),
            QueueConfig::DropTailPackets(100),
            10,
            1000,
            None,
        );
        sim.schedule_fault(
            SimTime::from_millis(1),
            FaultAction::SetQueue(LinkId(0), QueueConfig::DropTailPackets(2)),
        );
        sim.run_to_completion();
        assert_eq!(sim.stats().packets_delivered, 3);
        assert_eq!(sim.stats().packets_dropped, 7);
        assert!(sim.stats().conserved(0));
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn fault_on_unknown_link_rejected_at_install() {
        let (topo, _a, _b) = two_node_net(
            Bandwidth::from_mbps(1),
            SimDuration::ZERO,
            QueueConfig::default(),
        );
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        sim.schedule_fault(SimTime::ZERO, FaultAction::LinkDown(LinkId(9)));
    }

    #[test]
    fn duplex_directions_are_independent() {
        // Blasters at both ends; each direction carries its own traffic
        // without interfering.
        let (topo, a, b) = two_node_net(
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(1),
            QueueConfig::DropTailPackets(100),
        );
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        struct Both {
            peer: NodeId,
            n: u32,
            got: u64,
        }
        impl Agent for Both {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..self.n {
                    ctx.send(
                        self.peer,
                        Tag::NONE,
                        Protocol::Raw,
                        Payload::empty(),
                        1000,
                        1,
                    );
                }
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
                self.got += 1;
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
        }
        sim.add_agent(
            a,
            Box::new(Both {
                peer: b,
                n: 5,
                got: 0,
            }),
            SimTime::ZERO,
        );
        sim.add_agent(
            b,
            Box::new(Both {
                peer: a,
                n: 5,
                got: 0,
            }),
            SimTime::ZERO,
        );
        sim.run_to_completion();
        assert_eq!(sim.stats().packets_delivered, 10);
        assert_eq!(sim.link_stats(LinkId(0), Dir::AtoB).tx_packets, 5);
        assert_eq!(sim.link_stats(LinkId(0), Dir::BtoA).tx_packets, 5);
        // Both directions finished at the same time: equal loads.
        assert_eq!(
            sim.link_stats(LinkId(0), Dir::AtoB).busy_time,
            sim.link_stats(LinkId(0), Dir::BtoA).busy_time
        );
    }

    /// Records every timer delivery. A driver token fires at 5 ms and either
    /// re-arms the target token or cancels it, so the tests below can pin
    /// the *exact* replacement/cancellation semantics of `set_timer_at`.
    struct TimerProbe {
        fired: Vec<(u64, SimTime)>,
        initial: SimTime,
        action: ProbeAction,
    }

    enum ProbeAction {
        Move(SimTime),
        Cancel,
    }

    const PROBE_TARGET: u64 = 7;
    const PROBE_DRIVER: u64 = 0;

    impl Agent for TimerProbe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_at(self.initial, PROBE_TARGET);
            ctx.set_timer_at(SimTime::from_millis(5), PROBE_DRIVER);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.fired.push((token, ctx.now()));
            if token == PROBE_DRIVER {
                match self.action {
                    ProbeAction::Move(at) => ctx.set_timer_at(at, PROBE_TARGET),
                    ProbeAction::Cancel => ctx.cancel_timer(PROBE_TARGET),
                }
            }
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    fn probe_run(
        initial: SimTime,
        action: ProbeAction,
    ) -> (Vec<(u64, SimTime)>, u64, u64, SimTime) {
        let (topo, a, _b) = two_node_net(
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(1),
            QueueConfig::default(),
        );
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 1);
        let id = sim.add_agent(
            a,
            Box::new(TimerProbe {
                fired: Vec::new(),
                initial,
                action,
            }),
            SimTime::ZERO,
        );
        sim.run_to_completion();
        let probe = sim
            .agent(id)
            .as_any()
            .and_then(|a| a.downcast_ref::<TimerProbe>())
            .expect("probe agent");
        (
            probe.fired.clone(),
            sim.stats().timers_cancelled,
            sim.events_cancelled(),
            sim.now(),
        )
    }

    #[test]
    fn rearm_later_never_fires_at_the_stale_deadline() {
        // Armed at 10 ms, moved to 20 ms at 5 ms: the 10 ms event is
        // cancelled in the queue, so the target fires exactly once, at
        // exactly 20 ms — never at the superseded 10 ms deadline.
        let ms = SimTime::from_millis;
        let (fired, cancelled, ev_cancelled, end) = probe_run(ms(10), ProbeAction::Move(ms(20)));
        assert_eq!(fired, vec![(PROBE_DRIVER, ms(5)), (PROBE_TARGET, ms(20))]);
        assert_eq!(cancelled, 1, "the superseded deadline must be revoked");
        assert_eq!(ev_cancelled, 1);
        assert_eq!(end, ms(20));
    }

    #[test]
    fn rearm_earlier_fires_at_the_new_deadline_only() {
        // Armed at 20 ms, moved to 10 ms at 5 ms: fires once at 10 ms and
        // the original 20 ms event never runs (the sim ends at 10 ms).
        let ms = SimTime::from_millis;
        let (fired, cancelled, _, end) = probe_run(ms(20), ProbeAction::Move(ms(10)));
        assert_eq!(fired, vec![(PROBE_DRIVER, ms(5)), (PROBE_TARGET, ms(10))]);
        assert_eq!(cancelled, 1);
        assert_eq!(end, ms(10));
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let ms = SimTime::from_millis;
        let (fired, cancelled, ev_cancelled, end) = probe_run(ms(10), ProbeAction::Cancel);
        assert_eq!(fired, vec![(PROBE_DRIVER, ms(5))]);
        assert_eq!(cancelled, 1);
        assert_eq!(ev_cancelled, 1);
        assert_eq!(
            end,
            ms(5),
            "sim must drain once the cancelled event is gone"
        );
    }
}

#[cfg(test)]
mod proptests {
    //! Simulator invariants under randomized traffic.
    use super::*;
    use proptest::prelude::*;
    use simbase::{Bandwidth, SimDuration, SimTime};

    /// An agent that sends a scripted list of (start_offset_us, size) raw
    /// packets to a fixed destination.
    struct Script {
        dst: NodeId,
        sends: Vec<(u64, u32)>,
        next: usize,
    }

    impl Agent for Script {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if !self.sends.is_empty() {
                ctx.set_timer_after(SimDuration::from_micros(self.sends[0].0), 0);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let (_, size) = self.sends[self.next];
            ctx.send(
                self.dst,
                Tag::NONE,
                Protocol::Raw,
                Payload::empty(),
                size,
                1,
            );
            self.next += 1;
            if self.next < self.sends.len() {
                let gap = self.sends[self.next]
                    .0
                    .saturating_sub(self.sends[self.next - 1].0);
                ctx.set_timer_after(SimDuration::from_micros(gap.max(1)), 0);
            }
        }
    }

    struct Sink;
    impl Agent for Sink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Conservation: every packet sent is delivered, dropped, or
        /// unroutable once the network drains — for arbitrary bursts, link
        /// speeds, and queue sizes.
        #[test]
        fn packet_conservation(
            cap_kbps in 64u64..50_000,
            delay_us in 0u64..20_000,
            queue in 1usize..64,
            sends in proptest::collection::vec((0u64..300_000, 1u32..2000), 1..120),
        ) {
            let mut sends = sends;
            sends.sort_by_key(|s| s.0);
            let mut topo = Topology::new();
            let a = topo.add_node("a");
            let b = topo.add_node("b");
            topo.add_link(
                a,
                b,
                Bandwidth::from_kbps(cap_kbps),
                SimDuration::from_micros(delay_us),
                QueueConfig::DropTailPackets(queue),
            );
            let mut rt = RoutingTables::new(&topo);
            rt.install_all_default_routes(&topo);
            let mut sim = Simulator::new(topo, rt, 1);
            let n = sends.len() as u64;
            sim.add_agent(a, Box::new(Script { dst: b, sends, next: 0 }), SimTime::ZERO);
            sim.add_agent(b, Box::new(Sink), SimTime::ZERO);
            sim.run_to_completion();
            prop_assert_eq!(sim.stats().packets_sent, n);
            prop_assert!(sim.stats().conserved(0));
            prop_assert_eq!(sim.packets_in_flight(), 0);
        }

        /// Capacity: the bytes a link serializes over any run never exceed
        /// capacity x busy-time accounting (utilization <= 1).
        #[test]
        fn link_never_exceeds_capacity(
            cap_kbps in 64u64..10_000,
            sends in proptest::collection::vec((0u64..100_000, 100u32..1500), 1..80),
        ) {
            let mut sends = sends;
            sends.sort_by_key(|s| s.0);
            let mut topo = Topology::new();
            let a = topo.add_node("a");
            let b = topo.add_node("b");
            topo.add_link(
                a,
                b,
                Bandwidth::from_kbps(cap_kbps),
                SimDuration::from_micros(100),
                QueueConfig::DropTailPackets(16),
            );
            let mut rt = RoutingTables::new(&topo);
            rt.install_all_default_routes(&topo);
            let mut sim = Simulator::new(topo, rt, 1);
            sim.add_agent(a, Box::new(Script { dst: b, sends, next: 0 }), SimTime::ZERO);
            sim.add_agent(b, Box::new(Sink), SimTime::ZERO);
            sim.run_to_completion();
            let st = sim.link_stats(LinkId(0), Dir::AtoB);
            let elapsed = sim.now().saturating_since(SimTime::ZERO);
            prop_assert!(st.utilization(elapsed) <= 1.0 + 1e-9);
            // Busy time equals exactly the serialization time of tx bytes
            // (integer arithmetic: per-packet rounding up, so >= ideal).
            let ideal_ns = st.tx_bytes as u128 * 8 * 1_000_000_000 / (cap_kbps as u128 * 1000);
            prop_assert!(st.busy_time.as_nanos() as u128 >= ideal_ns);
        }

        /// FIFO: packets on one path are delivered in send order (no
        /// reordering inside the network when jitter is off).
        #[test]
        fn fifo_delivery_order(
            sends in proptest::collection::vec((0u64..50_000, 1u32..1500), 2..60),
        ) {
            let mut sends = sends;
            sends.sort_by_key(|s| s.0);
            let mut topo = Topology::new();
            let a = topo.add_node("a");
            let m = topo.add_node("m");
            let b = topo.add_node("b");
            let bw = Bandwidth::from_mbps(2);
            topo.add_link(a, m, bw, SimDuration::from_micros(500), QueueConfig::DropTailPackets(200));
            topo.add_link(m, b, bw, SimDuration::from_micros(500), QueueConfig::DropTailPackets(200));
            let mut rt = RoutingTables::new(&topo);
            rt.install_all_default_routes(&topo);
            let mut sim = Simulator::new(topo, rt, 1);
            sim.set_capture(CaptureConfig::receiver_side(b));
            sim.add_agent(a, Box::new(Script { dst: b, sends, next: 0 }), SimTime::ZERO);
            sim.add_agent(b, Box::new(Sink), SimTime::ZERO);
            sim.run_to_completion();
            let ids: Vec<u64> = sim
                .captures()
                .iter()
                .filter(|c| c.kind == CaptureKind::Delivered)
                .map(|c| c.pkt.id)
                .collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            prop_assert_eq!(ids, sorted, "in-order delivery violated");
        }
    }
}
