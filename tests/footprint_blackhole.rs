//! Footprint gate: a black-holed flow runs in constant memory.
//!
//! A 50 Mb/s `CbrSource` towards a node nothing routes to: every packet is
//! counted in `SimStats::packets_unroutable` at its first hop and that is
//! all the simulator keeps of it, so a 4 s run ends with the live heap of a
//! 1 s run: 10 928 B both times (11 048 B while packets carried a flow
//! hash and link directions a byte count; while the simulator kept a
//! warning per unroutable packet they ended at 970 684 B and 3 848 670 B).
//! Its own
//! file, so its own process and allocator.

mod counting_alloc;

use counting_alloc::LIVE;
use mptcp_overlap::netsim::RoutingTables;
use mptcp_overlap::prelude::*;
use mptcp_overlap::simtrace::TraceSink;
use std::sync::atomic::Ordering::Relaxed;

/// Run the black-holed flow for `secs`; returns the packets it lost and the
/// heap still live at the end of the run, the world included.
fn black_hole(secs: u64) -> (u64, u64) {
    let base = LIVE.load(Relaxed);
    let mut topo = Topology::new();
    let src = topo.add_node("src");
    let dst = topo.add_node("dst");
    topo.add_link(
        src,
        dst,
        Bandwidth::from_mbps(100),
        SimDuration::from_millis(1),
        QueueConfig::DropTailPackets(64),
    );
    // No route is installed, so `src` cannot forward towards `dst`.
    let routing = RoutingTables::new(&topo);
    let mut world = World::new(topo, routing, 1, TraceSink::new());
    world.background(src, dst, Bandwidth::from_mbps(50), 1000);
    world.run_until(SimTime::from_secs(secs));
    let stats = world.sim().stats();
    assert_eq!(stats.packets_unroutable, stats.packets_sent);
    (stats.packets_unroutable, LIVE.load(Relaxed) - base)
}

#[test]
fn a_black_holed_flow_runs_in_constant_memory() {
    let (lost_1s, live_1s) = black_hole(1);
    let (lost_4s, live_4s) = black_hole(4);
    println!("footprint_blackhole: 1 s: {lost_1s} unroutable, {live_1s} B live; 4 s: {lost_4s} unroutable, {live_4s} B live");
    assert!(lost_1s > 6_000 && lost_4s.abs_diff(4 * lost_1s) <= 4);
    assert!(
        live_4s.abs_diff(live_1s) < 4096,
        "live heap follows run length: {live_1s} B after 1 s, {live_4s} B after 4 s"
    );
}
