//! Cross-crate property tests: protocol invariants that must hold for any
//! topology, loss pattern, and seed.

use mptcp_overlap::mptcpsim::{
    common_destination, install_subflows, CcAlgo, MptcpConfig, MptcpReceiverAgent,
    MptcpSenderAgent, SchedulerKind, SubflowConfig,
};
use mptcp_overlap::netsim::{
    Agent, AgentId, Ctx, Ecn, Effect, NodeId, Packet, Payload, Protocol, RoutingTables, Tag,
};
use mptcp_overlap::prelude::*;
use mptcp_overlap::simbase::Xoshiro256StarStar;
use mptcp_overlap::simtrace::TraceSink;
use mptcp_overlap::tcpsim::{
    AppSource, Cubic, ReceiverConfig, TcpConfig, TcpFlags, TcpReceiverAgent, TcpSegment,
    TcpSenderAgent,
};
use proptest::prelude::*;

/// Build a two-disjoint-path network with arbitrary small capacities,
/// delays, and queue sizes.
fn two_path_net(
    cap1: u64,
    cap2: u64,
    delay1_ms: u64,
    delay2_ms: u64,
    queue: usize,
) -> (Topology, Vec<Path>) {
    let mut t = Topology::new();
    let s = t.add_node("s");
    let a = t.add_node("a");
    let b = t.add_node("b");
    let d = t.add_node("d");
    let q = QueueConfig::DropTailPackets(queue);
    t.add_link(
        s,
        a,
        Bandwidth::from_mbps(cap1),
        SimDuration::from_millis(delay1_ms),
        q,
    );
    t.add_link(
        a,
        d,
        Bandwidth::from_mbps(cap1),
        SimDuration::from_millis(delay1_ms),
        q,
    );
    t.add_link(
        s,
        b,
        Bandwidth::from_mbps(cap2),
        SimDuration::from_millis(delay2_ms),
        q,
    );
    t.add_link(
        b,
        d,
        Bandwidth::from_mbps(cap2),
        SimDuration::from_millis(delay2_ms),
        q,
    );
    let p1 = Path::from_nodes(&t, &[s, a, d]).unwrap();
    let p2 = Path::from_nodes(&t, &[s, b, d]).unwrap();
    (t, vec![p1, p2])
}

/// Hand `agent` one packet carrying `payload` through a bare [`Ctx`];
/// returns how many effects it asked for.
fn offer(agent: &mut dyn Agent, payload: &[u8]) -> usize {
    let mut rng = Xoshiro256StarStar::new(1);
    let mut effects: Vec<Effect> = Vec::new();
    let mut next_id = 0;
    let mut ctx = Ctx::new(
        SimTime::from_millis(1),
        NodeId(1),
        AgentId(0),
        &mut rng,
        &mut effects,
        &mut next_id,
    );
    agent.on_packet(
        &mut ctx,
        Packet {
            id: 0,
            src: NodeId(0),
            dst: NodeId(1),
            tag: Tag(1),
            protocol: Protocol::Tcp,
            payload: Payload::from_slice(payload),
            data_len: 0,
            flow_hash: 0,
            ecn: Ecn::NotEct,
        },
    );
    effects.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the parameters, a bounded MPTCP transfer delivers the
    /// connection-level stream *exactly*: every byte, in order, no more.
    #[test]
    fn mptcp_delivers_every_byte_exactly_once(
        cap1 in 5u64..30,
        cap2 in 5u64..30,
        d1 in 1u64..10,
        d2 in 1u64..10,
        queue in 8usize..48,
        kib in 64u64..512,
        seed in 0u64..1000,
        algo_pick in 0usize..3,
    ) {
        let algo = [CcAlgo::Cubic, CcAlgo::Lia, CcAlgo::Olia][algo_pick];
        let total_bytes = kib * 1024;
        let (topo, paths) = two_path_net(cap1, cap2, d1, d2, queue);
        let mut rt = RoutingTables::new(&topo);
        let subflows = install_subflows(&mut rt, &paths, 1, 5000);
        let src = paths[0].src();
        let dst = common_destination(&paths);
        let mut world = World::new(topo, rt, seed, TraceSink::new());
        world.set_forward_jitter(SimDuration::from_micros(20));
        let cfg = MptcpConfig {
            algo,
            scheduler: SchedulerKind::MinRtt,
            app: AppSource::Fixed(total_bytes),
            ..MptcpConfig::bulk(dst, subflows)
        };
        let (sender, receiver) = world.connect(src, cfg, SimTime::ZERO);
        world.run_until(SimTime::from_secs(60));

        let receiver = world.receiver(receiver);
        prop_assert_eq!(receiver.data_delivered(), total_bytes,
            "in-order stream must complete");
        prop_assert_eq!(receiver.reorder_buffer_bytes(), 0);
        let sender = world.sender(sender);
        prop_assert!(sender.is_complete());
        prop_assert_eq!(sender.stats().data_acked, total_bytes);
        // Conservation at packet level too.
        world.run_to_completion();
        let stats = world.sim().stats();
        prop_assert!(stats.conserved(0),
            "sent={} delivered={} dropped={} unroutable={}",
            stats.packets_sent, stats.packets_delivered,
            stats.packets_dropped, stats.packets_unroutable);
    }

    /// The measured throughput of any run is feasible for the max-throughput
    /// LP of the same network (nothing can beat the physics), and the link
    /// utilization never exceeds 1.
    #[test]
    fn measured_rates_are_lp_feasible(
        cap1 in 5u64..40,
        cap2 in 5u64..40,
        seed in 0u64..1000,
    ) {
        let (topo, paths) = two_path_net(cap1, cap2, 2, 4, 32);
        let r = Scenario::new(topo, paths)
            .with_seed(seed)
            .with_timing(SimDuration::from_secs(3), SimDuration::from_millis(100))
            .run();
        prop_assert!((r.lp.total_mbps - (cap1 + cap2) as f64).abs() < 1e-6);
        prop_assert!(r.is_physically_consistent(2.0), "{:?}", r.per_path_steady_mbps);
        // No 100 ms bin can exceed physical capacity (plus binning slack).
        for v in r.total.values() {
            prop_assert!(*v <= (cap1 + cap2) as f64 * 1.05 + 1.0, "bin {v}");
        }
    }

    /// A packet whose payload does not decode — or, at the MPTCP sender,
    /// acknowledges a port none of its subflows owns — is counted in
    /// `rx_malformed` and asks the network for nothing. (Arbitrary bytes
    /// that do decode are out of scope here: ROADMAP item 5.)
    #[test]
    fn malformed_packets_are_counted_and_have_no_effect(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..24),
        stray_port in 0u16..5000,
    ) {
        let subflow = |i: u16| SubflowConfig {
            tag: Tag(1 + i),
            src_port: 5000 + 2 * i,
            dst_port: 5001 + 2 * i,
        };
        let mut tcp_tx = TcpSenderAgent::new(
            TcpConfig::default(),
            Box::new(Cubic::new(14_600, 1460)),
            AppSource::Unlimited,
            NodeId(0),
            Tag(1),
        );
        let mut tcp_rx = TcpReceiverAgent::new(ReceiverConfig::default(), Tag(1));
        let mut mp_tx =
            MptcpSenderAgent::new(MptcpConfig::bulk(NodeId(0), vec![subflow(0), subflow(1)]));
        let mut mp_rx = MptcpReceiverAgent::default();

        let mut offered = 0;
        for payload in payloads.iter().filter(|p| TcpSegment::decode(p).is_err()) {
            offered += 1;
            let effects = [
                offer(&mut tcp_tx, payload),
                offer(&mut tcp_rx, payload),
                offer(&mut mp_tx, payload),
                offer(&mut mp_rx, payload),
            ];
            prop_assert_eq!(effects, [0; 4], "{:?}", payload);
        }
        prop_assert_eq!(tcp_tx.rx_malformed(), offered);
        prop_assert_eq!(tcp_rx.rx_malformed(), offered);
        prop_assert_eq!(mp_tx.rx_malformed(), offered);
        prop_assert_eq!(mp_rx.rx_malformed(), offered);

        let stray_ack = TcpSegment {
            dst_port: stray_port,
            flags: TcpFlags { ack: true, ..Default::default() },
            ..Default::default()
        }
        .encode();
        prop_assert_eq!(offer(&mut mp_tx, stray_ack.as_slice()), 0);
        prop_assert_eq!(mp_tx.rx_malformed(), offered + 1);
    }
}

#[test]
fn overlapping_random_networks_respect_their_lp() {
    // Heavier scenario kept out of proptest: random pairwise-overlap nets.
    for seed in 0..4u64 {
        let net = RandomOverlapNet::generate(&RandomOverlapConfig {
            paths: 3,
            seed,
            ..Default::default()
        });
        let r = Scenario::new(net.topology, net.paths)
            .with_seed(seed)
            .with_timing(SimDuration::from_secs(4), SimDuration::from_millis(100))
            .run();
        assert!(
            r.is_physically_consistent(3.0),
            "seed {seed}: {:?}",
            r.per_path_steady_mbps
        );
        assert!(
            r.steady_total_mbps() > 0.3 * r.lp.total_mbps,
            "seed {seed}: implausibly low throughput {:.1} of {:.1}",
            r.steady_total_mbps(),
            r.lp.total_mbps
        );
    }
}
