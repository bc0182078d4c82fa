//! Single-path TCP baselines through the facade: the substrate must behave
//! like TCP before the MPTCP results can mean anything. A single-path flow
//! is what the kernel makes it, an MPTCP connection with one subflow, so
//! every baseline is a one-path [`Scenario`] (or, to share a bottleneck,
//! a two-connection [`World`]).

use mptcp_overlap::mptcpsim::{install_subflows, MptcpConfig};
use mptcp_overlap::netsim::{RoutingTables, Tag};
use mptcp_overlap::prelude::*;
use mptcp_overlap::simtrace::{SamplerConfig, TraceSink};

/// One flow under `algo` over one `cap_mbps`, 5 ms link queued by `queue`,
/// for `secs`: the run and its wire throughput after the first second.
fn one_path(
    cap_mbps: u64,
    queue: QueueConfig,
    algo: CcAlgo,
    ecn: bool,
    secs: u64,
) -> (RunResult, f64) {
    let mut t = Topology::new();
    let s = t.add_node("s");
    let d = t.add_node("d");
    let (cap, delay) = (Bandwidth::from_mbps(cap_mbps), SimDuration::from_millis(5));
    t.add_link(s, d, cap, delay, queue);
    let path = Path::from_nodes(&t, &[s, d]).unwrap();
    let r = Scenario {
        ecn,
        ..Scenario::new(t, vec![path])
    }
    .with_algo(algo)
    .with_timing(SimDuration::from_secs(secs), SimDuration::from_millis(100))
    .run();
    let mbps = r
        .total
        .mean_over(SimTime::from_secs(1), SimTime::from_secs(secs));
    (r, mbps)
}

fn drop_tail(packets: usize) -> QueueConfig {
    QueueConfig::DropTailPackets(packets)
}

#[test]
fn cubic_fills_links_across_capacities() {
    for cap in [5u64, 20, 50] {
        let (_, mbps) = one_path(cap, drop_tail(64), CcAlgo::Cubic, false, 4);
        assert!(
            mbps > 0.88 * cap as f64 && mbps <= cap as f64 * 1.01,
            "cap {cap}: measured {mbps:.2}"
        );
    }
}

#[test]
fn vegas_fills_a_moderate_link() {
    let (_, vegas) = one_path(10, drop_tail(64), CcAlgo::WVegas, false, 4);
    assert!(vegas > 8.0, "vegas {vegas:.2}");
}

#[test]
fn vegas_keeps_queues_short() {
    // Delay-based CC should induce (almost) no drops where CUBIC overflows.
    let (r, _) = one_path(10, drop_tail(16), CcAlgo::WVegas, false, 4);
    assert!(r.drops < 30, "vegas should barely drop: {}", r.drops);
}

#[test]
fn a_tiny_queue_drops_but_the_flow_survives() {
    // With a 4-packet buffer the pipe can't stay full, but the flow must
    // make solid progress (no livelock / RTO spiral).
    let (r, mbps) = one_path(10, drop_tail(4), CcAlgo::Cubic, false, 3);
    assert!(r.drops > 0, "tiny queue must drop");
    assert!(mbps > 5.0, "flow collapsed: {mbps:.2} Mbps");
}

#[test]
fn fast_retransmit_recovers_without_an_rto() {
    // A tiny queue forces losses that fast retransmit recovers. Every
    // retransmission and every new ACK pushes the RTO deadline *later*;
    // under replacement semantics the superseded deadline is cancelled in
    // the event queue, so it can never fire stale (the sender's
    // debug_assert pins that each fire matches the armed deadline exactly).
    let (r, _) = one_path(10, drop_tail(4), CcAlgo::Cubic, false, 3);
    let stats = r.subflow_stats[0];
    assert!(
        stats.loss_events > 0,
        "scenario must exercise fast retransmit"
    );
    assert_eq!(
        stats.rtos, 0,
        "fast-retransmit recovery must not trip an RTO"
    );
    assert!(
        r.events_cancelled > 0,
        "re-arms must cancel superseded deadlines in the queue"
    );
}

#[test]
fn ecn_marking_replaces_most_losses() {
    // Same RED bottleneck, with and without ECN: the ECN flow should see
    // far fewer drops at comparable throughput.
    let red = QueueConfig::Red { ecn_marking: true };
    let (marked, mbps_ecn) = one_path(10, red, CcAlgo::Cubic, true, 4);
    let (plain, mbps_plain) = one_path(10, red, CcAlgo::Cubic, false, 4);
    assert!(mbps_ecn > 8.0, "ECN flow throughput {mbps_ecn:.1}");
    assert!(mbps_plain > 8.0, "plain flow throughput {mbps_plain:.1}");
    assert!(
        marked.drops < plain.drops / 2 + 2,
        "ECN should mostly mark, not drop: {} vs {}",
        marked.drops,
        plain.drops
    );
}

#[test]
fn two_flows_share_a_bottleneck_roughly_fairly() {
    let mut t = Topology::new();
    let [s1, s2, m, x, d1, d2] = ["s1", "s2", "m", "x", "d1", "d2"].map(|n| t.add_node(n));
    let fast = Bandwidth::from_mbps(100);
    let ms = SimDuration::from_millis;
    t.add_link(s1, m, fast, ms(1), drop_tail(64));
    t.add_link(s2, m, fast, ms(1), drop_tail(64));
    t.add_link(m, x, Bandwidth::from_mbps(10), ms(2), drop_tail(64));
    t.add_link(x, d1, fast, ms(1), drop_tail(64));
    t.add_link(x, d2, fast, ms(1), drop_tail(64));
    let flows = [(s1, d1, Tag(1)), (s2, d2, Tag(2))];

    let mut rt = RoutingTables::new(&t);
    let cfgs = flows.map(|(src, dst, tag)| {
        let path = Path::from_nodes(&t, &[src, m, x, dst]).unwrap();
        let subflows = install_subflows(&mut rt, &[path], tag.0, 5000);
        MptcpConfig::bulk(dst, subflows)
    });
    let (end, bin) = (SimTime::from_secs(5), SimDuration::from_millis(100));
    // Every delivery, wherever it lands, binned by its connection's tag.
    let sampler = SamplerConfig {
        at_node: None,
        ..SamplerConfig::tshark_like(d1, bin, end)
    };
    let mut world = World::new(t, rt, 5, TraceSink::new().with_sampler(sampler));
    for ((src, ..), cfg) in flows.into_iter().zip(cfgs) {
        world.connect(src, cfg, SimTime::ZERO);
    }
    world.run_until(end);

    let sampled = world.sink().sampler().unwrap();
    let [b1, b2] = flows.map(|(.., tag)| {
        sampled
            .tag(tag)
            .unwrap()
            .mean_over(SimTime::from_secs(1), end)
    });
    assert!(b1 + b2 > 9.0, "bottleneck underutilized: {:.2}", b1 + b2);
    let ratio = b1.max(b2) / b1.min(b2).max(0.01);
    assert!(ratio < 2.5, "grossly unfair split: {b1:.2} vs {b2:.2}");
}

#[test]
fn single_path_mptcp_equals_plain_tcp() {
    // One subflow over one path must look like TCP: throughput ~ capacity.
    let (r, _) = one_path(10, drop_tail(64), CcAlgo::Cubic, false, 4);
    assert!((r.lp.total_mbps - 10.0).abs() < 1e-6);
    assert!(
        r.efficiency() > 0.85,
        "single-subflow MPTCP eff {:.2}",
        r.efficiency()
    );
}
