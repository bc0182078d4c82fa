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
use mptcp_overlap::tcpsim::wire::SackList;
use mptcp_overlap::tcpsim::{AppSource, DssOption, SeqNum, TcpFlags, TcpSegment, Timestamps};
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

/// Run one agent callback through a bare [`Ctx`] at `now`; returns the
/// effects it asked for.
fn effects_at(now: SimTime, call: impl FnOnce(&mut Ctx<'_>)) -> Vec<Effect> {
    let mut rng = Xoshiro256StarStar::new(1);
    let mut effects: Vec<Effect> = Vec::new();
    let mut next_id = 0;
    let mut ctx = Ctx::new(
        now,
        NodeId(1),
        AgentId(0),
        &mut rng,
        &mut effects,
        &mut next_id,
    );
    call(&mut ctx);
    effects
}

/// [`effects_at`] 1 ms into the run; returns how many effects it asked for.
fn drive(call: impl FnOnce(&mut Ctx<'_>)) -> usize {
    effects_at(SimTime::from_millis(1), call).len()
}

/// Hand `agent` one packet carrying `payload` and `data_len` virtual bytes;
/// returns how many effects it asked for.
fn offer_data(agent: &mut dyn Agent, payload: &[u8], data_len: u32) -> usize {
    let pkt = Packet {
        id: 0,
        src: NodeId(0),
        dst: NodeId(1),
        tag: Tag(1),
        protocol: Protocol::Tcp,
        payload: Payload::from_slice(payload).expect("test payloads fit a packet"),
        data_len,
        ecn: Ecn::NotEct,
    };
    drive(|ctx| agent.on_packet(ctx, pkt))
}

/// [`offer_data`] for a header-only packet.
fn offer(agent: &mut dyn Agent, payload: &[u8]) -> usize {
    offer_data(agent, payload, 0)
}

/// A sequence-space value: anywhere in the 32-bit space, or hugging the
/// default initial sequence number (1) from either side, where a stream
/// that has barely started cannot place a number from "before" it.
fn wild_seq() -> impl Strategy<Value = u32> {
    let shapes = (
        any::<u32>(),
        0u32..4,
        (u32::MAX - 3000)..=u32::MAX,
        1u32..40_000,
    );
    (0usize..4, shapes).prop_map(|(pick, (a, b, c, d))| [a, b, c, d][pick])
}

/// A connection-level value: anywhere, small, or at the very top of the
/// 64-bit DSN space where `dsn + len` no longer fits.
fn wild_dsn() -> impl Strategy<Value = u64> {
    let shapes = (any::<u64>(), 0u64..100_000, (u64::MAX - 70_000)..=u64::MAX);
    (0usize..3, shapes).prop_map(|(pick, (a, b, c))| [a, b, c][pick])
}

/// A segment that decodes, with nothing about its numbers promised.
fn wild_segment() -> impl Strategy<Value = (TcpSegment, u32)> {
    let numbers = (wild_seq(), wild_seq(), any::<u32>(), 0u32..3000);
    let flags = (any::<bool>(), any::<bool>(), any::<bool>());
    let ts = proptest::option::of((any::<u32>(), any::<u32>()));
    let sack = proptest::collection::vec((wild_seq(), wild_seq()), 0..=3);
    let dss = proptest::option::of((
        proptest::option::of(wild_dsn()),
        proptest::option::of(wild_dsn()),
        any::<u32>(),
        any::<u16>(),
    ));
    // The subflow ports the agents below own, or a stray one.
    let ports = (0u16..3, 0u16..3);
    (numbers, flags, ts, sack, dss, ports).prop_map(
        |((seq, ack, window, data_len), (is_ack, ece, cwr), ts, blocks, dss, ports)| {
            let mut sack = SackList::new();
            for (l, r) in blocks {
                sack.push((SeqNum(l), SeqNum(r)));
            }
            let mut seg = TcpSegment {
                src_port: 5001 + 2 * ports.0,
                dst_port: 5000 + 2 * ports.1,
                seq: SeqNum(seq),
                ack: SeqNum(ack),
                flags: TcpFlags {
                    ack: is_ack,
                    ece,
                    cwr,
                },
                window,
                ts: ts.map(|(tsval, tsecr)| Timestamps { tsval, tsecr }),
                sack,
                dss: dss.map(|(data_ack, dsn, subflow_seq, data_len)| DssOption {
                    data_ack,
                    dsn,
                    subflow_seq,
                    data_len,
                }),
            };
            seg.trim_sack_to_fit();
            (seg, data_len)
        },
    )
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
    /// `rx_malformed` and asks the network for nothing. (Bytes that do
    /// decode: `wild_segments_are_counted_or_absorbed` below.)
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
        let mut mp_tx =
            MptcpSenderAgent::new(MptcpConfig::bulk(NodeId(0), vec![subflow(0), subflow(1)]));
        let mut mp_rx = MptcpReceiverAgent::default();

        let mut offered = 0;
        for payload in payloads.iter().filter(|p| TcpSegment::decode(p).is_err()) {
            offered += 1;
            let effects = [offer(&mut mp_tx, payload), offer(&mut mp_rx, payload)];
            prop_assert_eq!(effects, [0; 2], "{:?}", payload);
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Segments that *do* decode but promise nothing about their sequence,
    /// acknowledgement, SACK or DSS numbers, offered in any order to both
    /// MPTCP agents (the sender started and both its subflows joined, so
    /// each has data in flight):
    /// nothing panics; a number from before the start of its stream, or a
    /// DSS mapping running off the end of the DSN space, is counted in
    /// `rx_malformed` and has no effect; nothing else is counted; and no
    /// receiver ever delivers a byte the segments did not carry.
    #[test]
    fn wild_segments_are_counted_or_absorbed(
        segments in proptest::collection::vec(wild_segment(), 1..40),
    ) {
        let subflow = |i: u16| SubflowConfig {
            tag: Tag(1 + i),
            src_port: 5000 + 2 * i,
            dst_port: 5001 + 2 * i,
        };
        let mut mp_tx =
            MptcpSenderAgent::new(MptcpConfig::bulk(NodeId(0), vec![subflow(0), subflow(1)]));
        let mut mp_rx = MptcpReceiverAgent::default();
        // Fire the join timers `on_start` arms, each at its deadline. The
        // other timers it arms are the subflows' RTOs, whose tokens are the
        // subflow indices; those stay pending.
        let started = effects_at(SimTime::from_millis(1), |ctx| mp_tx.on_start(ctx));
        prop_assert!(!started.is_empty());
        for effect in started {
            if let Effect::SetTimer { at, token } = effect {
                if token >= mp_tx.subflow_count() as u64 {
                    effects_at(at, |ctx| mp_tx.on_timer(ctx, token));
                }
            }
        }
        for i in 0..mp_tx.subflow_count() {
            prop_assert!(mp_tx.subflow_sender(i).snd_nxt() > 0, "subflow {} joined", i);
        }

        let mut carried = 0u64;
        for (seg, data_len) in &segments {
            let payload = seg.encode();
            let payload = payload.as_slice();
            // What the wire says, not what was asked of it (the window is
            // rounded to its granule).
            let seg = TcpSegment::decode(payload).expect("an encoded segment decodes");
            carried += u64::from(*data_len) + u64::from(seg.dss.map_or(0, |d| d.data_len));

            // MPTCP sender: a stray port, or a wild ACK on the subflow the
            // port names. A data ACK beyond what was scheduled is ignored.
            let owner = (0..mp_tx.subflow_count())
                .find(|&i| mp_tx.subflow_sender(i).config().src_port == seg.dst_port);
            let wild = seg.flags.ack
                && owner.is_none_or(|i| mp_tx.subflow_sender(i).ack_offset(seg.ack).is_none());
            let una = |tx: &MptcpSenderAgent| owner.map(|i| tx.subflow_sender(i).snd_una());
            let (before, una_before) = (mp_tx.rx_malformed(), una(&mp_tx));
            let effects = offer_data(&mut mp_tx, payload, *data_len);
            prop_assert_eq!(mp_tx.rx_malformed() - before, u64::from(wild), "{:?}", seg);
            if wild {
                prop_assert_eq!((effects, una(&mp_tx)), (0, una_before));
            }
            for i in 0..mp_tx.subflow_count() {
                let sub = mp_tx.subflow_sender(i);
                prop_assert!(sub.snd_una() <= sub.snd_nxt());
            }
            // Every chunk of this unlimited source is one MSS on one subflow
            // and no RTO fires here (so nothing is reinjected): the DSN
            // space scheduled so far is `chunks_assigned` MSS.
            let scheduled = mp_tx.stats().chunks_assigned * u64::from(tcpsim::MSS);
            prop_assert!(mp_tx.stats().data_acked <= scheduled);

            // MPTCP receiver: counted packets change nothing; the rest may
            // be buffered, never delivered beyond what was carried.
            let (before, delivered, subs) =
                (mp_rx.rx_malformed(), mp_rx.data_delivered(), mp_rx.subflow_count());
            let overflows = seg
                .dss
                .and_then(|d| d.dsn?.checked_add(u64::from(d.data_len)))
                .is_none()
                && seg.dss.is_some_and(|d| d.dsn.is_some());
            let effects = offer_data(&mut mp_rx, payload, *data_len);
            let counted = mp_rx.rx_malformed() - before;
            prop_assert!(counted <= 1 && (!overflows || counted == 1), "{:?}", seg);
            if counted == 1 {
                prop_assert_eq!(
                    (effects, mp_rx.data_delivered(), mp_rx.subflow_count()),
                    (0, delivered, subs)
                );
            }
            prop_assert!(mp_rx.data_delivered() <= carried);
        }
    }
}

/// The instance PR 20's arbitrary-bytes test found: a data segment whose
/// sequence number is one below the initial sequence number, offered to a
/// receiver that has seen nothing yet, used to panic in `SeqNum::expand`.
#[test]
fn a_sequence_number_before_the_stream_is_counted_not_a_panic() {
    let seg = TcpSegment {
        seq: SeqNum(0), // the default peer ISN is 1
        dss: Some(DssOption {
            data_ack: None,
            dsn: Some(0),
            subflow_seq: 0,
            data_len: 100,
        }),
        ..Default::default()
    }
    .encode();
    let mut mp_rx = MptcpReceiverAgent::default();
    assert_eq!(offer_data(&mut mp_rx, seg.as_slice(), 100), 0);
    assert_eq!(mp_rx.rx_malformed(), 1);
    assert_eq!(mp_rx.data_delivered(), 0);
    assert_eq!(mp_rx.subflow_count(), 0, "no subflow is opened for it");
}

/// No segment carries an MSS option any more, so a header with one does
/// not decode: both agents count it in `rx_malformed`, send nothing and
/// change nothing else. The segments are well-formed otherwise — an ACK
/// for the started sender's subflow 0 and the first data segment of a
/// subflow for the receiver.
#[test]
fn an_mss_option_is_counted_as_malformed() {
    /// `seg` encoded with an MSS option (kind 2, 1460) ahead of its others.
    fn with_mss_option(seg: &TcpSegment) -> Vec<u8> {
        let mut bytes = seg.encode().to_vec();
        bytes[12] += 1 << 4;
        bytes.splice(20..20, [2, 4, 0x05, 0xb4]);
        bytes
    }
    let subflow = SubflowConfig {
        tag: Tag(1),
        src_port: 5000,
        dst_port: 5001,
    };
    let mut mp_tx = MptcpSenderAgent::new(MptcpConfig::bulk(NodeId(0), vec![subflow]));
    assert!(!effects_at(SimTime::ZERO, |ctx| mp_tx.on_start(ctx)).is_empty());
    let ack = TcpSegment {
        src_port: 5001,
        dst_port: 5000,
        ack: SeqNum(1 + 1460),
        flags: TcpFlags::ACK,
        ..Default::default()
    };
    assert!(TcpSegment::decode(&ack.encode()).is_ok());
    assert_eq!(offer(&mut mp_tx, &with_mss_option(&ack)), 0);
    assert_eq!(mp_tx.rx_malformed(), 1);
    assert_eq!(mp_tx.subflow_sender(0).snd_una(), 0, "nothing acknowledged");

    let data = TcpSegment {
        src_port: 5000,
        dst_port: 5001,
        seq: SeqNum(1),
        dss: Some(DssOption {
            data_ack: None,
            dsn: Some(0),
            subflow_seq: 0,
            data_len: 100,
        }),
        ..Default::default()
    };
    let mut mp_rx = MptcpReceiverAgent::default();
    assert_eq!(offer_data(&mut mp_rx, &with_mss_option(&data), 100), 0);
    assert_eq!(mp_rx.rx_malformed(), 1);
    assert_eq!((mp_rx.data_delivered(), mp_rx.subflow_count()), (0, 0));
    // Without the option the same segment opens the subflow and is ACKed.
    assert_eq!(offer_data(&mut mp_rx, data.encode().as_slice(), 100), 1);
    assert_eq!(mp_rx.data_delivered(), 100);
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
