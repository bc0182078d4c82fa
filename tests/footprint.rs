//! Footprint gate: a connection that has finished costs (almost) nothing.
//!
//! A counting global allocator (live bytes, peak live bytes, allocator
//! calls) around one 400-pair heavy-tailed traffic cell at a sustainable
//! rate, run to a horizon by which every connection has finished. The
//! counts are exact for a given build — no clocks, no `/proc` — so the
//! assertions below are about what the packet path *holds* and how often it
//! asks the allocator, not how fast it runs (DESIGN.md "Footprint").
//!
//! One `#[test]` only: the allocator is process-global, and a second test
//! on another harness thread would be counted into this one's numbers.

mod counting_alloc;

use counting_alloc::{CALLS, LIVE, PEAK};
use mptcp_overlap::mptcpsim::{install_subflows, MptcpConfig};
use mptcp_overlap::netsim::RoutingTables;
use mptcp_overlap::overlap_core::{run_traffic, TrafficCell, World};
use mptcp_overlap::prelude::*;
use mptcp_overlap::simtrace::TraceSink;
use mptcp_overlap::tcpsim::AppSource;
use mptcp_overlap::worldgen::{TrafficConfig, TrafficNet, TrafficNetConfig, TrafficProgram};
use std::sync::atomic::Ordering::Relaxed;

const PAIRS: usize = 400;

/// The cell: churn-4k's arrival rate on a tenth of its pairs (arrivals end
/// near 1.6 s; the 200 Mbps substrate carries the ~140 Mbps offered), run
/// to 4 s so every connection is long finished.
fn cell(pairs: usize) -> TrafficCell {
    TrafficCell {
        arrival_rate_hz: 250.0,
        duration: SimDuration::from_secs(4),
        ..TrafficCell::table(pairs, 1)
    }
}

/// Bytes each further finished connection may leave behind in the world:
/// the measured value + 10 % (7 692 before PR 17, 825 after; 940 with the
/// wheel's chunk pool, some 195 B of it the engine's: the larger cell's pool
/// peaks 13 chunks higher and its settled run doubled once more; 328 since
/// a finished sender releases its RTT min-filters and scheduling scratch
/// and an emptied timer table its buffer).
const RETAINED_PER_CONNECTION: u64 = 361;
/// Peak live heap of `run_traffic(&cell(PAIRS))`: the measured value + 5 %
/// (6 750 556 before PR 17, 3 781 600 after, 2 618 288 with the wheel's
/// chunk pool, 2 260 128 with one 144-byte record per link direction and
/// packets in a slab, 2 048 160 with tagged routes stored by destination
/// and SACK / reassembly ranges in sorted vectors).
const PEAK_BUDGET_BYTES: u64 = 2_150_000;
/// Heap bytes each further pair adds to a world that is assembled and has
/// not run an event yet — topology, routes, the simulator's per-direction
/// records, two agents — everything `assembled_and_retained_by` allocates
/// up to that point, traffic program and handles included: the measured
/// value + 5 % (4 681 at the parent of the per-direction record, 4 217
/// with it and an exact-fit coupling state, 3 698 with four 40-byte route
/// sets per pair in place of its share of five hash tables).
const ASSEMBLED_PER_PAIR: u64 = 3_883;
/// Allocator calls `run_traffic(&cell(PAIRS))` made at PR 17's parent
/// commit, in the dev and the release profile alike (PR 17: 32 855).
const PARENT_ALLOCATOR_CALLS: u64 = 94_095;
/// ... and while the scoreboards and reassembly sets were B-trees (PR 21).
/// Sorted vectors make 30 467; going back over this by more than 1 % means
/// a container on the packet path started asking the allocator again.
const BTREE_ALLOCATOR_CALLS: u64 = 32_482;
/// `run_traffic(&cell(PAIRS)).trace_hash` at the parent commit.
const PARENT_TRACE_HASH: u64 = 0x9258_65b6_04ae_1d32;

/// `run_traffic`'s world for `cell`, assembled by hand so the heap can be
/// read before assembly, between assembly and run, and again before
/// teardown: how much the world weighs before its first event, how much the
/// run left behind, and the trace hash it produced.
fn assembled_and_retained_by(cell: &TrafficCell) -> (u64, u64, u64) {
    let at_entry = LIVE.load(Relaxed);
    let program = TrafficProgram::generate(&TrafficConfig {
        connections: cell.pairs,
        arrival_rate_hz: cell.arrival_rate_hz,
        seed: cell.seed,
        ..TrafficConfig::default()
    });
    let net = TrafficNet::build(&TrafficNetConfig {
        pairs: cell.pairs,
        ..TrafficNetConfig::default()
    });
    let mut routing = RoutingTables::new(&net.topology);
    let subflows: Vec<_> = (0..cell.pairs)
        .map(|i| install_subflows(&mut routing, &net.paths(i), 1, 5000))
        .collect();
    let mut world = World::new(net.topology, routing, cell.seed, TraceSink::new());
    let mut receivers = Vec::with_capacity(cell.pairs);
    for ((conn, subflows), (&src, &dst)) in program
        .connections
        .iter()
        .zip(subflows)
        .zip(net.srcs.iter().zip(&net.dsts))
    {
        let cfg = MptcpConfig {
            algo: cell.algo,
            app: AppSource::Fixed(conn.size_bytes),
            ..MptcpConfig::bulk(dst, subflows)
        };
        receivers.push(world.connect(src, cfg, conn.start).1);
    }
    let at_start = LIVE.load(Relaxed);
    world.run_until(SimTime::ZERO + cell.duration);
    let at_end = LIVE.load(Relaxed);
    for (conn, &rid) in program.connections.iter().zip(&receivers) {
        assert_eq!(
            world.receiver(rid).data_delivered(),
            conn.size_bytes,
            "the horizon must outlast every flow"
        );
    }
    (
        at_start - at_entry,
        at_end.saturating_sub(at_start),
        world.sink().hash(),
    )
}

#[test]
fn a_finished_connection_costs_nothing() {
    // The library's own run of the cell: hash, peak and allocator calls.
    let (base, calls_before) = (LIVE.load(Relaxed), CALLS.load(Relaxed));
    PEAK.store(base, Relaxed);
    let run = run_traffic(&cell(PAIRS));
    let peak = PEAK.load(Relaxed) - base;
    let calls = CALLS.load(Relaxed) - calls_before;
    assert_eq!(run.finished, PAIRS, "the horizon must outlast every flow");

    // What the run leaves behind, at this size and at half of it. Both
    // cells arrive at the same rate, so the engine is about equally warm in
    // both (the wheel's chunk pool is sized by the most events ever pending
    // at once, which the arrival rate sets, not the pair count) and the
    // difference is what the extra connections, all finished, still cost.
    let (assembled, retained, hash) = assembled_and_retained_by(&cell(PAIRS));
    assert_eq!(
        hash, run.trace_hash,
        "assembled_and_retained_by no longer builds run_traffic's world"
    );
    let (assembled_half, retained_half, _) = assembled_and_retained_by(&cell(PAIRS / 2));
    let each = retained.saturating_sub(retained_half) / (PAIRS / 2) as u64;
    let each_assembled = (assembled - assembled_half) / (PAIRS / 2) as u64;

    println!(
        "footprint: a finished connection retains {each} B \
         ({retained} B after {PAIRS}, {retained_half} B after {}), \
         a pair assembled and not yet run weighs {each_assembled} B \
         ({assembled} B for {PAIRS}, {assembled_half} B for {}), \
         peak live {peak} B, {calls} allocator calls, hash {:#018x}",
        PAIRS / 2,
        PAIRS / 2,
        run.trace_hash
    );
    assert_eq!(run.trace_hash, PARENT_TRACE_HASH);
    assert!(
        each <= RETAINED_PER_CONNECTION,
        "{each} B still held per finished connection (limit {RETAINED_PER_CONNECTION} B)"
    );
    assert!(
        each_assembled <= ASSEMBLED_PER_PAIR,
        "{each_assembled} B per assembled pair (limit {ASSEMBLED_PER_PAIR} B)"
    );
    assert!(
        peak <= PEAK_BUDGET_BYTES,
        "peak live heap {peak} B is over the {PEAK_BUDGET_BYTES} B budget"
    );
    assert!(
        calls * 2 < PARENT_ALLOCATOR_CALLS,
        "{calls} allocator calls, parent made {PARENT_ALLOCATOR_CALLS}"
    );
    assert!(
        calls * 100 <= BTREE_ALLOCATOR_CALLS * 101,
        "{calls} allocator calls, {BTREE_ALLOCATOR_CALLS} with B-tree range sets"
    );
}
