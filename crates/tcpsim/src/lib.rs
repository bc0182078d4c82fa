//! # tcpsim — a sans-IO TCP engine for the network simulator
//!
//! A faithful-at-the-right-granularity TCP implementation:
//!
//! * [`seq`] — 32-bit wrapping sequence arithmetic over 64-bit offsets.
//! * [`wire`] — real header encode/decode (timestamps, MSS, MPTCP DSS).
//! * [`rtt`] — RFC 6298 estimation with Linux's 200 ms RTO floor.
//! * [`cc`] — pluggable congestion control: Reno, CUBIC (RFC 8312), Vegas.
//! * [`sender`] / [`receiver`] — sans-IO state machines: fast retransmit,
//!   NewReno recovery, RTO go-back-N, out-of-order reassembly, delayed ACK.
//! * [`ranges`] — the sorted-vector range set behind the SACK scoreboard,
//!   the out-of-order buffer and `mptcpsim`'s DSN reassembly.
//! * [`conn`] — agents bridging the engines onto `netsim`.
//! * [`app`] — traffic models (unlimited/iperf, fixed, paced).
//!
//! The *sans-IO* structure (state machines that return segments rather than
//! sending them) is what lets `mptcpsim` embed several senders in one MPTCP
//! connection agent and attach DSS mappings before transmission.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod cc;
pub mod conn;
pub mod ranges;
pub mod receiver;
pub mod rtt;
pub mod sender;
pub mod seq;
pub mod wire;

pub use app::AppSource;
pub use cc::{AckContext, CongestionControl, Cubic, LossContext, Reno, Vegas};
pub use conn::{flow_hash, TcpReceiverAgent, TcpSenderAgent};
pub use ranges::RangeSet;
pub use receiver::{ReceiverConfig, ReceiverStats, TcpReceiver};
pub use rtt::RttEstimator;
pub use sender::{AckResult, SegmentTx, SenderStats, TcpConfig, TcpSender};
pub use seq::SeqNum;
pub use wire::{DssOption, TcpFlags, TcpSegment, Timestamps, WireError};

#[cfg(test)]
mod e2e_tests {
    //! End-to-end tests: a full TCP flow over the simulator.
    use super::*;
    use netsim::{
        CaptureConfig, CaptureKind, NodeId, QueueConfig, RoutingTables, Simulator, Tag, Topology,
    };
    use simbase::{Bandwidth, SimDuration, SimTime};

    struct Net {
        sim: Simulator,
        src: NodeId,
        dst: NodeId,
    }

    /// Build src -- dst with the given bottleneck.
    fn build_net(capacity_mbps: u64, delay_ms: u64, queue_pkts: usize, seed: u64) -> Net {
        let mut topo = Topology::new();
        let src = topo.add_node("src");
        let dst = topo.add_node("dst");
        topo.add_link(
            src,
            dst,
            Bandwidth::from_mbps(capacity_mbps),
            SimDuration::from_millis(delay_ms),
            QueueConfig::DropTailPackets(queue_pkts),
        );
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, seed);
        sim.set_capture(CaptureConfig::receiver_side(dst));
        Net { sim, src, dst }
    }

    fn attach_flow(net: &mut Net, app: AppSource, cc: Box<dyn CongestionControl>) {
        let cfg = TcpConfig::default();
        let rcfg = ReceiverConfig::default();
        net.sim.add_agent(
            net.src,
            Box::new(TcpSenderAgent::new(cfg, cc, app, net.dst, Tag::NONE)),
            SimTime::ZERO,
        );
        net.sim.add_agent(
            net.dst,
            Box::new(TcpReceiverAgent::new(rcfg, Tag::NONE)),
            SimTime::ZERO,
        );
    }

    fn delivered_data_bytes(sim: &Simulator, since: SimTime, until: SimTime) -> u64 {
        sim.captures()
            .iter()
            .filter(|c| {
                c.kind == CaptureKind::Delivered
                    && c.pkt.data_len > 0
                    && c.time >= since
                    && c.time < until
            })
            .map(|c| c.pkt.wire_size as u64)
            .sum()
    }

    #[test]
    fn bulk_flow_fills_the_link() {
        let mut net = build_net(10, 5, 64, 1);
        let cfg = TcpConfig::default();
        attach_flow(
            &mut net,
            AppSource::Unlimited,
            Box::new(Cubic::new(cfg.initial_cwnd, cfg.mss)),
        );
        let end = SimTime::from_secs(3);
        net.sim.run_until(end);

        // Wire throughput measured at the receiver over the last 2 seconds
        // (skip slow start).
        let bytes = delivered_data_bytes(&net.sim, SimTime::from_secs(1), end);
        let mbps = bytes as f64 * 8.0 / 2.0 / 1e6;
        assert!(mbps > 9.0, "utilization too low: {mbps:.2} Mbps");
        assert!(mbps <= 10.05, "cannot exceed capacity: {mbps:.2} Mbps");
    }

    #[test]
    fn reno_also_fills_the_link() {
        let mut net = build_net(10, 5, 64, 2);
        let cfg = TcpConfig::default();
        attach_flow(
            &mut net,
            AppSource::Unlimited,
            Box::new(Reno::new(cfg.initial_cwnd, cfg.mss)),
        );
        let end = SimTime::from_secs(3);
        net.sim.run_until(end);
        let bytes = delivered_data_bytes(&net.sim, SimTime::from_secs(1), end);
        let mbps = bytes as f64 * 8.0 / 2.0 / 1e6;
        assert!(mbps > 8.5, "reno utilization too low: {mbps:.2} Mbps");
    }

    #[test]
    fn fixed_transfer_completes_exactly() {
        let mut net = build_net(10, 2, 64, 3);
        let cfg = TcpConfig::default();
        let total = 500_000u64;
        attach_flow(
            &mut net,
            AppSource::Fixed(total),
            Box::new(Cubic::new(cfg.initial_cwnd, cfg.mss)),
        );
        net.sim.run_until(SimTime::from_secs(10));
        let data_bytes: u64 = net
            .sim
            .captures()
            .iter()
            .filter(|c| c.kind == CaptureKind::Delivered && c.pkt.data_len > 0)
            .map(|c| c.pkt.data_len as u64)
            .sum();
        assert!(
            data_bytes >= total,
            "all app bytes must arrive (incl. rtx): {data_bytes}"
        );
        // No packets stuck in flight at the end.
        net.sim.run_to_completion();
        assert_eq!(net.sim.packets_in_flight(), 0);
    }

    #[test]
    fn tiny_queue_forces_losses_but_flow_survives() {
        let mut net = build_net(10, 5, 4, 4);
        let cfg = TcpConfig::default();
        attach_flow(
            &mut net,
            AppSource::Unlimited,
            Box::new(Cubic::new(cfg.initial_cwnd, cfg.mss)),
        );
        let end = SimTime::from_secs(3);
        net.sim.run_until(end);
        assert!(net.sim.stats().packets_dropped > 0, "tiny queue must drop");
        let bytes = delivered_data_bytes(&net.sim, SimTime::from_secs(1), end);
        let mbps = bytes as f64 * 8.0 / 2.0 / 1e6;
        // With a 4-packet buffer the pipe can't stay full, but the flow must
        // make solid progress (no livelock / RTO spiral).
        assert!(mbps > 5.0, "flow collapsed: {mbps:.2} Mbps");
    }

    #[test]
    fn two_flows_share_a_bottleneck_roughly_fairly() {
        let mut topo = Topology::new();
        let s1 = topo.add_node("s1");
        let s2 = topo.add_node("s2");
        let m = topo.add_node("m");
        let x = topo.add_node("x");
        let d1 = topo.add_node("d1");
        let d2 = topo.add_node("d2");
        let fast = Bandwidth::from_mbps(100);
        let ms = SimDuration::from_millis;
        topo.add_link(s1, m, fast, ms(1), QueueConfig::DropTailPackets(64));
        topo.add_link(s2, m, fast, ms(1), QueueConfig::DropTailPackets(64));
        topo.add_link(
            m,
            x,
            Bandwidth::from_mbps(10),
            ms(2),
            QueueConfig::DropTailPackets(64),
        );
        topo.add_link(x, d1, fast, ms(1), QueueConfig::DropTailPackets(64));
        topo.add_link(x, d2, fast, ms(1), QueueConfig::DropTailPackets(64));
        let mut rt = RoutingTables::new(&topo);
        rt.install_all_default_routes(&topo);
        let mut sim = Simulator::new(topo, rt, 5);
        let cap = CaptureConfig::receiver_side(d1).add_node(d2);
        sim.set_capture(cap);

        for (src, dst, sport) in [(s1, d1, 6000u16), (s2, d2, 6001)] {
            let cfg = TcpConfig {
                src_port: sport,
                ..Default::default()
            };
            let rcfg = ReceiverConfig {
                src_port: 7000,
                dst_port: sport,
                ..Default::default()
            };
            let cc = Box::new(Cubic::new(cfg.initial_cwnd, cfg.mss));
            sim.add_agent(
                src,
                Box::new(TcpSenderAgent::new(
                    cfg,
                    cc,
                    AppSource::Unlimited,
                    dst,
                    Tag::NONE,
                )),
                SimTime::ZERO,
            );
            sim.add_agent(
                dst,
                Box::new(TcpReceiverAgent::new(rcfg, Tag::NONE)),
                SimTime::ZERO,
            );
        }
        let end = SimTime::from_secs(5);
        sim.run_until(end);

        let per_dst = |node: NodeId| -> u64 {
            sim.captures()
                .iter()
                .filter(|c| {
                    c.kind == CaptureKind::Delivered
                        && c.node == node
                        && c.pkt.data_len > 0
                        && c.time >= SimTime::from_secs(1)
                })
                .map(|c| c.pkt.wire_size as u64)
                .sum()
        };
        let b1 = per_dst(d1) as f64;
        let b2 = per_dst(d2) as f64;
        let total_mbps = (b1 + b2) * 8.0 / 4.0 / 1e6;
        assert!(
            total_mbps > 9.0,
            "bottleneck underutilized: {total_mbps:.2}"
        );
        let ratio = b1.max(b2) / b1.min(b2).max(1.0);
        assert!(ratio < 2.5, "grossly unfair split: {b1} vs {b2}");
    }

    #[test]
    fn throughput_is_deterministic() {
        fn run() -> (u64, u64) {
            let mut net = build_net(10, 5, 32, 42);
            let cfg = TcpConfig::default();
            attach_flow(
                &mut net,
                AppSource::Unlimited,
                Box::new(Cubic::new(cfg.initial_cwnd, cfg.mss)),
            );
            net.sim.run_until(SimTime::from_secs(2));
            (
                net.sim.stats().packets_delivered,
                net.sim.stats().packets_dropped,
            )
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn delayed_ack_mode_still_works_end_to_end() {
        let mut net = build_net(10, 5, 64, 6);
        let cfg = TcpConfig::default();
        let cc = Box::new(Cubic::new(cfg.initial_cwnd, cfg.mss));
        net.sim.add_agent(
            net.src,
            Box::new(TcpSenderAgent::new(
                cfg,
                cc,
                AppSource::Unlimited,
                net.dst,
                Tag::NONE,
            )),
            SimTime::ZERO,
        );
        let rcfg = ReceiverConfig {
            delayed_ack: Some(SimDuration::from_millis(40)),
            ..Default::default()
        };
        net.sim.add_agent(
            net.dst,
            Box::new(TcpReceiverAgent::new(rcfg, Tag::NONE)),
            SimTime::ZERO,
        );
        let end = SimTime::from_secs(3);
        net.sim.run_until(end);
        let bytes = delivered_data_bytes(&net.sim, SimTime::from_secs(1), end);
        let mbps = bytes as f64 * 8.0 / 2.0 / 1e6;
        assert!(mbps > 8.5, "delayed-ack throughput too low: {mbps:.2} Mbps");
    }

    #[test]
    fn ecn_marking_replaces_most_losses() {
        // Same RED bottleneck, with and without ECN: the ECN flow should
        // see far fewer retransmissions at comparable throughput.
        fn run(ecn: bool) -> (f64, u64) {
            let mut topo = Topology::new();
            let s = topo.add_node("s");
            let d = topo.add_node("d");
            topo.add_link(
                s,
                d,
                Bandwidth::from_mbps(10),
                SimDuration::from_millis(5),
                QueueConfig::Red(netsim::RedConfig {
                    ecn_marking: true,
                    ..Default::default()
                }),
            );
            let mut rt = RoutingTables::new(&topo);
            rt.install_all_default_routes(&topo);
            let mut sim = Simulator::new(topo, rt, 5);
            sim.set_capture(CaptureConfig::receiver_side(d));
            let cfg = TcpConfig {
                ecn,
                ..Default::default()
            };
            let cc = Box::new(Cubic::new(cfg.initial_cwnd, cfg.mss));
            let sender_id = sim.add_agent(
                s,
                Box::new(TcpSenderAgent::new(
                    cfg,
                    cc,
                    AppSource::Unlimited,
                    d,
                    Tag::NONE,
                )),
                SimTime::ZERO,
            );
            sim.add_agent(
                d,
                Box::new(TcpReceiverAgent::new(ReceiverConfig::default(), Tag::NONE)),
                SimTime::ZERO,
            );
            let end = SimTime::from_secs(4);
            sim.run_until(end);
            let bytes: u64 = sim
                .captures()
                .iter()
                .filter(|c| {
                    c.kind == CaptureKind::Delivered
                        && c.pkt.data_len > 0
                        && c.time >= SimTime::from_secs(1)
                })
                .map(|c| c.pkt.wire_size as u64)
                .sum();
            let mbps = bytes as f64 * 8.0 / 3.0 / 1e6;
            let agent = sim.agent(sender_id);
            // Inspect retransmissions through the agent (no as_any on the
            // plain TCP agent; use drops as the loss proxy instead).
            let _ = agent;
            (mbps, sim.stats().packets_dropped)
        }
        let (mbps_ecn, drops_ecn) = run(true);
        let (mbps_plain, drops_plain) = run(false);
        assert!(mbps_ecn > 8.0, "ECN flow throughput {mbps_ecn:.1}");
        assert!(mbps_plain > 8.0, "plain flow throughput {mbps_plain:.1}");
        assert!(
            drops_ecn < drops_plain / 2 + 2,
            "ECN should mostly mark, not drop: {drops_ecn} vs {drops_plain}"
        );
    }

    #[test]
    fn fast_retransmit_rearms_rto_without_stale_firing() {
        // A tiny queue forces losses that fast retransmit recovers. Every
        // retransmission and every new ACK pushes the RTO deadline *later*;
        // under replacement semantics the superseded deadline is cancelled
        // in the event queue, so it can never fire stale (the agents'
        // debug_assert pins that each fire matches the armed deadline
        // exactly). This scenario exercises that path hundreds of times.
        let mut net = build_net(10, 5, 4, 11);
        let cfg = TcpConfig::default();
        let cc = Box::new(Cubic::new(cfg.initial_cwnd, cfg.mss));
        let id = net.sim.add_agent(
            net.src,
            Box::new(TcpSenderAgent::new(
                cfg,
                cc,
                AppSource::Unlimited,
                net.dst,
                Tag::NONE,
            )),
            SimTime::ZERO,
        );
        net.sim.add_agent(
            net.dst,
            Box::new(TcpReceiverAgent::new(ReceiverConfig::default(), Tag::NONE)),
            SimTime::ZERO,
        );
        net.sim.run_until(SimTime::from_secs(3));

        let agent = net
            .sim
            .agent(id)
            .as_any()
            .and_then(|a| a.downcast_ref::<TcpSenderAgent>())
            .expect("sender agent");
        let stats = agent.sender().stats();
        assert!(
            stats.loss_events > 0,
            "scenario must exercise fast retransmit"
        );
        assert_eq!(
            stats.rtos, 0,
            "fast-retransmit recovery must not trip an RTO"
        );
        assert!(
            net.sim.stats().timers_cancelled > 0,
            "re-arms must cancel superseded deadlines in the queue"
        );
    }

    #[test]
    fn paced_source_tracks_offered_load() {
        let mut net = build_net(10, 5, 64, 7);
        let cfg = TcpConfig::default();
        let cc = Box::new(Cubic::new(cfg.initial_cwnd, cfg.mss));
        // Offer ~2 Mbps over a 10 Mbps link.
        attach_flow(&mut net, AppSource::paced_at(Bandwidth::from_mbps(2)), cc);
        let end = SimTime::from_secs(3);
        net.sim.run_until(end);
        let bytes = delivered_data_bytes(&net.sim, SimTime::from_secs(1), end);
        let mbps = bytes as f64 * 8.0 / 2.0 / 1e6;
        assert!(
            mbps > 1.8 && mbps < 2.4,
            "paced load mismatch: {mbps:.2} Mbps"
        );
    }
}
