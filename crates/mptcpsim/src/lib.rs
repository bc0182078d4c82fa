//! # mptcpsim — Multipath TCP over the packet simulator
//!
//! Everything above single-path TCP that the paper's experiments need:
//!
//! * [`dsn`] — DSS mappings (subflow offset ↔ data sequence number) and
//!   connection-level reassembly.
//! * [`scheduler`] — minRTT (Linux default), round-robin, redundant.
//! * [`cc`] — coupled congestion control: LIA (RFC 6356), OLIA, BALIA,
//!   wVegas, plus uncoupled CUBIC per subflow (the paper's "CUBIC").
//! * [`sender_agent`] / [`receiver_agent`] — the connection endpoints,
//!   including [`receiver_agent::install_subflows`], the tagged-ndiffports
//!   path manager in one call.
//!
//! The MPTCP handshake (MP_CAPABLE / MP_JOIN) is modelled as out-of-band
//! configuration — the paper also pre-selects paths and tags explicitly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod dsn;
pub mod receiver_agent;
pub mod scheduler;
pub mod sender_agent;

pub use cc::{CcAlgo, CoupleState, CoupledCc, SubState};
pub use dsn::{IntervalSet, Mapping, MappingTable};
pub use receiver_agent::{
    common_destination, install_subflows, MptcpReceiverAgent, MptcpReceiverStats,
};
pub use scheduler::{Assignment, SchedulerKind, SubflowSnapshot};
pub use sender_agent::{MptcpConfig, MptcpSenderAgent, MptcpSenderStats, SubflowConfig};

#[cfg(test)]
mod e2e_tests {
    //! End-to-end MPTCP tests over the simulator.
    use super::*;
    use netsim::{
        CaptureConfig, CaptureKind, FaultAction, FaultSchedule, NodeId, Path, QueueConfig,
        RoutingTables, Simulator, Tag, Topology,
    };
    use simbase::{Bandwidth, SimDuration, SimTime};
    use tcpsim::AppSource;

    /// Two fully disjoint paths s->a->d (10 Mbps) and s->b->d (20 Mbps).
    fn disjoint_net() -> (Topology, Vec<Path>) {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("d");
        let ms = SimDuration::from_millis;
        let q = || QueueConfig::DropTailPackets(64);
        t.add_link(s, a, Bandwidth::from_mbps(10), ms(2), q());
        t.add_link(a, d, Bandwidth::from_mbps(10), ms(2), q());
        t.add_link(s, b, Bandwidth::from_mbps(20), ms(3), q());
        t.add_link(b, d, Bandwidth::from_mbps(20), ms(3), q());
        let p1 = Path::from_nodes(&t, &[s, a, d]).unwrap();
        let p2 = Path::from_nodes(&t, &[s, b, d]).unwrap();
        (t, vec![p1, p2])
    }

    struct Rig {
        sim: Simulator,
        dst: NodeId,
        sender_id: netsim::AgentId,
        receiver_id: netsim::AgentId,
    }

    fn build(
        topo: Topology,
        paths: &[Path],
        algo: CcAlgo,
        scheduler: SchedulerKind,
        app: AppSource,
        seed: u64,
    ) -> Rig {
        let mut rt = RoutingTables::new(&topo);
        let subflows = install_subflows(&mut rt, paths, 1, 5000);
        let src = paths[0].src();
        let dst = common_destination(paths);
        let mut sim = Simulator::new(topo, rt, seed);
        sim.set_capture(CaptureConfig::receiver_side(dst));
        let cfg = MptcpConfig {
            algo,
            scheduler,
            app,
            ..MptcpConfig::bulk(dst, subflows)
        };
        let sender_id = sim.add_agent(src, Box::new(MptcpSenderAgent::new(cfg)), SimTime::ZERO);
        let receiver_id =
            sim.add_agent(dst, Box::new(MptcpReceiverAgent::default()), SimTime::ZERO);
        Rig {
            sim,
            dst,
            sender_id,
            receiver_id,
        }
    }

    fn wire_mbps_by_tag(
        rig: &Simulator,
        dst: NodeId,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(Tag, f64)> {
        use std::collections::BTreeMap;
        let mut bytes: BTreeMap<Tag, u64> = BTreeMap::new();
        for c in rig.captures() {
            if c.kind == CaptureKind::Delivered
                && c.node == dst
                && c.pkt.data_len > 0
                && c.time >= from
                && c.time < to
            {
                *bytes.entry(c.pkt.tag).or_default() += c.pkt.wire_size as u64;
            }
        }
        let secs = (to - from).as_secs_f64();
        bytes
            .into_iter()
            .map(|(t, b)| (t, b as f64 * 8.0 / secs / 1e6))
            .collect()
    }

    #[test]
    fn disjoint_paths_aggregate_both_capacities() {
        let (topo, paths) = disjoint_net();
        let mut rig = build(
            topo,
            &paths,
            CcAlgo::Cubic,
            SchedulerKind::MinRtt,
            AppSource::Unlimited,
            1,
        );
        let end = SimTime::from_secs(5);
        rig.sim.run_until(end);
        let rates = wire_mbps_by_tag(&rig.sim, rig.dst, SimTime::from_secs(2), end);
        let total: f64 = rates.iter().map(|(_, r)| r).sum();
        assert!(total > 26.0, "aggregate {total:.1} Mbps should approach 30");
        assert!(total <= 30.5, "cannot exceed physical capacity: {total:.1}");
        // Both subflows carry traffic.
        assert_eq!(rates.len(), 2);
        assert!(rates.iter().all(|(_, r)| *r > 5.0), "{rates:?}");
    }

    #[test]
    fn lia_also_uses_both_disjoint_paths() {
        let (topo, paths) = disjoint_net();
        let mut rig = build(
            topo,
            &paths,
            CcAlgo::Lia,
            SchedulerKind::MinRtt,
            AppSource::Unlimited,
            2,
        );
        let end = SimTime::from_secs(6);
        rig.sim.run_until(end);
        let rates = wire_mbps_by_tag(&rig.sim, rig.dst, SimTime::from_secs(3), end);
        let total: f64 = rates.iter().map(|(_, r)| r).sum();
        // LIA is less aggressive but must still beat the best single path.
        assert!(
            total > 21.0,
            "LIA aggregate {total:.1} should beat best single path (20)"
        );
    }

    #[test]
    fn olia_and_balia_run_without_collapse() {
        for (algo, seed) in [(CcAlgo::Olia, 3), (CcAlgo::Balia, 4)] {
            let (topo, paths) = disjoint_net();
            let mut rig = build(
                topo,
                &paths,
                algo,
                SchedulerKind::MinRtt,
                AppSource::Unlimited,
                seed,
            );
            let end = SimTime::from_secs(6);
            rig.sim.run_until(end);
            let rates = wire_mbps_by_tag(&rig.sim, rig.dst, SimTime::from_secs(3), end);
            let total: f64 = rates.iter().map(|(_, r)| r).sum();
            assert!(total > 18.0, "{} aggregate {total:.1} too low", algo.name());
        }
    }

    #[test]
    fn fixed_transfer_delivers_every_byte_in_order() {
        let (topo, paths) = disjoint_net();
        let total_bytes = 2_000_000u64;
        let mut rig = build(
            topo,
            &paths,
            CcAlgo::Cubic,
            SchedulerKind::MinRtt,
            AppSource::Fixed(total_bytes),
            5,
        );
        rig.sim.run_until(SimTime::from_secs(30));
        let receiver = rig
            .sim
            .agent(rig.receiver_id)
            .as_any()
            .unwrap()
            .downcast_ref::<MptcpReceiverAgent>()
            .unwrap();
        assert_eq!(
            receiver.data_delivered(),
            total_bytes,
            "connection-level stream complete"
        );
        assert_eq!(receiver.reorder_buffer_bytes(), 0);
        let sender = rig
            .sim
            .agent(rig.sender_id)
            .as_any()
            .unwrap()
            .downcast_ref::<MptcpSenderAgent>()
            .unwrap();
        assert!(sender.is_complete());
        assert_eq!(sender.stats().data_acked, total_bytes);
    }

    #[test]
    fn redundant_scheduler_duplicates_but_stream_is_exact() {
        let (topo, paths) = disjoint_net();
        let total_bytes = 500_000u64;
        let mut rig = build(
            topo,
            &paths,
            CcAlgo::Cubic,
            SchedulerKind::Redundant,
            AppSource::Fixed(total_bytes),
            6,
        );
        rig.sim.run_until(SimTime::from_secs(30));
        let receiver = rig
            .sim
            .agent(rig.receiver_id)
            .as_any()
            .unwrap()
            .downcast_ref::<MptcpReceiverAgent>()
            .unwrap();
        assert_eq!(receiver.data_delivered(), total_bytes);
        // Redundancy means duplicates arrived at connection level.
        assert!(
            receiver.stats().duplicate_bytes > 0,
            "redundant copies expected"
        );
    }

    #[test]
    fn round_robin_splits_roughly_evenly_on_equal_paths() {
        // Two identical paths.
        let mut t = Topology::new();
        let s = t.add_node("s");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("d");
        let ms = SimDuration::from_millis;
        let q = || QueueConfig::DropTailPackets(64);
        let bw = Bandwidth::from_mbps(10);
        t.add_link(s, a, bw, ms(2), q());
        t.add_link(a, d, bw, ms(2), q());
        t.add_link(s, b, bw, ms(2), q());
        t.add_link(b, d, bw, ms(2), q());
        let p1 = Path::from_nodes(&t, &[s, a, d]).unwrap();
        let p2 = Path::from_nodes(&t, &[s, b, d]).unwrap();
        let mut rig = build(
            t,
            &[p1, p2],
            CcAlgo::Cubic,
            SchedulerKind::RoundRobin,
            AppSource::Unlimited,
            7,
        );
        let end = SimTime::from_secs(4);
        rig.sim.run_until(end);
        let rates = wire_mbps_by_tag(&rig.sim, rig.dst, SimTime::from_secs(1), end);
        assert_eq!(rates.len(), 2);
        let (r1, r2) = (rates[0].1, rates[1].1);
        let ratio = r1.max(r2) / r1.min(r2).max(0.01);
        assert!(
            ratio < 1.4,
            "round robin should split evenly: {r1:.1} vs {r2:.1}"
        );
    }

    #[test]
    fn shared_bottleneck_no_gain_but_no_harm() {
        // Both subflows cross one 10 Mbps link: MPTCP ≈ one TCP.
        let mut t = Topology::new();
        let s = t.add_node("s");
        let m = t.add_node("m");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("d");
        let ms = SimDuration::from_millis;
        let q = || QueueConfig::DropTailPackets(64);
        t.add_link(s, m, Bandwidth::from_mbps(10), ms(2), q());
        t.add_link(m, a, Bandwidth::from_mbps(100), ms(1), q());
        t.add_link(a, d, Bandwidth::from_mbps(100), ms(1), q());
        t.add_link(m, b, Bandwidth::from_mbps(100), ms(1), q());
        t.add_link(b, d, Bandwidth::from_mbps(100), ms(1), q());
        let p1 = Path::from_nodes(&t, &[s, m, a, d]).unwrap();
        let p2 = Path::from_nodes(&t, &[s, m, b, d]).unwrap();
        let mut rig = build(
            t,
            &[p1, p2],
            CcAlgo::Lia,
            SchedulerKind::MinRtt,
            AppSource::Unlimited,
            8,
        );
        let end = SimTime::from_secs(5);
        rig.sim.run_until(end);
        let rates = wire_mbps_by_tag(&rig.sim, rig.dst, SimTime::from_secs(2), end);
        let total: f64 = rates.iter().map(|(_, r)| r).sum();
        assert!(total > 8.0, "bottleneck underused: {total:.1}");
        assert!(
            total <= 10.2,
            "cannot beat the shared bottleneck: {total:.1}"
        );
    }

    #[test]
    fn link_failure_triggers_reinjection_and_transfer_completes() {
        // Kill path 1's first link mid-transfer: the unacknowledged DSN
        // ranges must be reinjected on path 2 and the stream must complete.
        let (topo, paths) = disjoint_net();
        let dead_link = paths[0].links()[0];
        let total_bytes = 4_000_000u64;
        let mut rig = build(
            topo,
            &paths,
            CcAlgo::Cubic,
            SchedulerKind::MinRtt,
            AppSource::Fixed(total_bytes),
            9,
        );
        rig.sim.install_faults(
            &FaultSchedule::new().at(SimTime::from_millis(500), FaultAction::LinkDown(dead_link)),
        );
        rig.sim.run_until(SimTime::from_secs(60));

        let receiver = rig
            .sim
            .agent(rig.receiver_id)
            .as_any()
            .unwrap()
            .downcast_ref::<MptcpReceiverAgent>()
            .unwrap();
        assert_eq!(
            receiver.data_delivered(),
            total_bytes,
            "stream must survive the failure"
        );
        let sender = rig
            .sim
            .agent(rig.sender_id)
            .as_any()
            .unwrap()
            .downcast_ref::<MptcpSenderAgent>()
            .unwrap();
        // Pinned, not only positive: the failed subflow's chunks are
        // clipped at the data ACK one by one and re-cut into MSS chunks on
        // the survivor, and a change to that cutting moves both numbers.
        assert_eq!(
            sender.stats().bytes_reinjected,
            40_880,
            "failover must reinject the stranded bytes"
        );
        assert_eq!(sender.stats().data_acked, total_bytes);
        assert_eq!(rig.sim.stats().events, 21_924);
    }

    #[test]
    fn link_recovery_restores_the_subflow() {
        // Down at 0.5 s, up at 2 s: by the end both paths carry traffic again.
        let (topo, paths) = disjoint_net();
        let dead_link = paths[0].links()[0];
        let mut rig = build(
            topo,
            &paths,
            CcAlgo::Cubic,
            SchedulerKind::MinRtt,
            AppSource::Unlimited,
            10,
        );
        rig.sim.install_faults(&FaultSchedule::new().outage(
            dead_link,
            SimTime::from_millis(500),
            SimTime::from_secs(2),
        ));
        rig.sim.run_until(SimTime::from_secs(8));
        let rates = wire_mbps_by_tag(
            &rig.sim,
            rig.dst,
            SimTime::from_secs(5),
            SimTime::from_secs(8),
        );
        // Both tags carry meaningful traffic in the final window.
        assert_eq!(rates.len(), 2, "{rates:?}");
        assert!(
            rates.iter().all(|(_, r)| *r > 2.0),
            "both paths should recover: {rates:?}"
        );
    }

    #[test]
    fn determinism_across_runs() {
        fn run(seed: u64) -> (u64, u64, u64) {
            let (topo, paths) = disjoint_net();
            let mut rig = build(
                topo,
                &paths,
                CcAlgo::Olia,
                SchedulerKind::MinRtt,
                AppSource::Unlimited,
                seed,
            );
            rig.sim.run_until(SimTime::from_secs(2));
            let st = rig.sim.stats();
            (st.packets_delivered, st.packets_dropped, st.events)
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).2, 0);
    }
}
