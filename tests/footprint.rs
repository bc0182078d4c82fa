//! Footprint gate: a connection that has finished costs (almost) nothing.
//!
//! A counting global allocator (live bytes, peak live bytes, allocator
//! calls) around one 400-pair heavy-tailed traffic cell at a sustainable
//! rate, run to a horizon by which every connection has finished. The
//! counts are exact for a given build — no clocks, no `/proc` — so the
//! assertions below are about what the packet path *holds* and how often it
//! asks the allocator, not how fast it runs (DESIGN.md "Footprint"). The
//! world is also weighed stage by stage as it is assembled (traffic
//! program, topology, routes, `World::new`, agents), per pair, so a stage
//! that grows is named by the gate that fails.
//!
//! One `#[test]` only: the allocator is process-global, and a second test
//! on another harness thread would be counted into this one's numbers.

mod counting_alloc;

use counting_alloc::{census_at_peak, print_census, start_peak, CALLS, LIVE, PEAK};
use mptcp_overlap::mptcpsim::{install_subflows, MptcpConfig, SubflowSnapshot};
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

/// Bytes each further finished connection may leave behind in the world,
/// its scheduling scratch included: the measured value + 5 % (256; 301
/// while each subflow receiver kept four counters and a window and the
/// receiver agent two counters and a window, 306
/// while packets carried a flow hash and scheduler snapshots a window and a
/// flight). The scratch is allocated at assembly and given back at
/// completion; it is added back to what the run retained, so a smaller
/// scratch cannot hide a new retention. The figures before these counted it
/// as a credit (7 692 before PR 17, 825 after; 940 with the
/// wheel's chunk pool, some 195 B of it the engine's: the larger cell's pool
/// peaks 13 chunks higher and its settled run doubled once more; 328 since
/// a finished sender releases its RTT min-filters and scheduling scratch
/// and an emptied timer table its buffer; 300 with a 136-byte subflow
/// receiver, now that it keeps no delayed-ACK state; 282 with it 16 bytes
/// smaller again, now that it tracks no FIN; 210 with subflow senders
/// retired to their counters and 120-byte subflow receivers kept without a
/// second copy of their port; 210 again with drop-tail FIFOs linked
/// through the packet slab, whose slots are 8 bytes larger). What a
/// finished connection holds in all is `FINISHED_PER_PAIR`.
const RETAINED_PER_CONNECTION: u64 = 269;
/// What each further pair weighs from assembly to the horizon, finished:
/// the measured sum of `ASSEMBLED_PER_PAIR`'s and `RETAINED_PER_CONNECTION`'s
/// quantities, less the scratch counted in both, + 5 % (2 108; 2 193 while
/// subflow receivers were 120 bytes, the receiver agent 112 and each
/// subflow record 192; 2 209 while
/// each subflow's mapping table kept an `Option` for its end offset; 2 326
/// while link-direction records were 120
/// bytes, packets carried a flow hash and scheduler snapshots a window and a
/// flight; 2 753 while link-direction records were 176
/// bytes and every node owned two copies of its name and an adjacency
/// `Vec`, 3 561 while every subflow sender was assembled whole and kept
/// whole after it finished). Moving an allocation between assembly and the
/// run moves the two parts, not this.
const FINISHED_PER_PAIR: u64 = 2_214;
/// Peak live heap of `run_traffic(&cell(PAIRS))`: 1 233 312 B measured, + 5 %
/// (6 750 556 before PR 17, 3 781 600 after, 2 618 288 with the wheel's
/// chunk pool, 2 260 128 with one 144-byte record per link direction and
/// packets in a slab, 2 048 160 with tagged routes stored by destination
/// and SACK / reassembly ranges in sorted vectors; 2 030 560 at PR 25's
/// parent, 2 004 848 with drop-tail queues held inline, 1 944 808 once
/// subflow senders, receivers and the MPTCP sender kept no one-value
/// options, 1 909 448 once they kept no FIN state, RTO clamps or join
/// timing either, 1 855 624 with 176-byte link-direction records and
/// 48-byte drop-tail queues, which carry no byte bound, 1 596 344 with
/// subflow senders that exist only while they run, 1 431 056 with drop-tail
/// FIFOs linked through the packet slab, 120-byte link-direction records
/// and a topology that allocates nothing per node, 1 370 336 with 96-byte
/// packets and link-direction records that keep no byte count, 1 310 656
/// with mapping tables that hold one entry per DSN-contiguous run of MSS
/// chunks, 1 272 104 with 248-byte live subflow-sender parts that keep an
/// RTT min-filter only for a controller that reads it and a retransmit
/// queue that holds no buffer once drained, 1 265 024 with 232-byte live
/// parts and a connection that owns its controllers in one box, where each
/// live coupled subflow had a controller box and each connection a shared
/// coupling cell, 1 265 924 with 120-byte subflow receivers, a 112-byte
/// receiver agent and 192-byte subflow records).
const PEAK_BUDGET_BYTES: u64 = 1_295_000;
/// Heap bytes each further pair adds to a world that is assembled and has
/// not run an event yet — topology, routes, the simulator's per-direction
/// records, two agents — everything `assembled_and_retained_by` allocates
/// up to that point, traffic program and handles included: the measured
/// value + 5 % (4 681 at the parent of the per-direction record, 4 217
/// with it and an exact-fit coupling state, 3 698 with four 40-byte route
/// sets per pair in place of its share of five hash tables; 3 653 at PR 25's
/// parent, 3 589 with each link direction's drop-tail queue inline instead
/// of boxed, 3 485 with the MPTCP sender 56 bytes and each subflow sender
/// 24 bytes smaller, 3 413 with both 24 bytes smaller again, 3 279 with
/// each link direction's record 8 bytes smaller, 2 543 with each subflow
/// sender assembled dormant — its configuration, counters and sequence
/// numbers, 128 bytes — and its controller and the coupling built when the
/// connection starts, 2 116 with 120-byte link-direction records, which
/// hold neither an RNG stream nor a queue buffer, and a topology that keeps
/// each name once, in an arena, and no adjacency `Vec`, 1 972 with 96-byte
/// link-direction records and subflows that keep no flow hash and whose
/// scheduler snapshots keep no window, 1 956 with each subflow's mapping
/// table keeping its end offset as a plain `u64`, 1 916 with a 208-byte
/// MPTCP sender, 184-byte subflow records (each sender's configuration
/// keeps no peer-window setting) and a 96-byte receiver agent:
/// `STAGE_PER_PAIR` has the stages).
const ASSEMBLED_PER_PAIR: u64 = 2_012;
/// What each stage of assembly (`STAGES`) adds per pair: 24, 264, 204, 400
/// and 1 023 B measured, each + 5 % (the topology was 467 B while each node
/// owned its name, a B-tree copy of it and an adjacency `Vec`; `World::new`
/// 720 B while each link direction's record was 176 bytes and 496 B while
/// it was 120; the agents 1 127 B while each subflow kept a flow hash and
/// each scheduler snapshot a window and a flight, 1 079 B while each
/// subflow record was 200 bytes, 1 063 B while it was 192, the MPTCP
/// sender 216 and the receiver agent 112).
const STAGE_PER_PAIR: [u64; 5] = [25, 277, 214, 420, 1_075];
/// Allocator calls `run_traffic(&cell(PAIRS))` made at PR 17's parent
/// commit, in the dev and the release profile alike (PR 17: 32 855).
const PARENT_ALLOCATOR_CALLS: u64 = 94_095;
/// ... and while the scoreboards and reassembly sets were B-trees (PR 21).
/// Sorted vectors make 30 467; going back over this by more than 1 % means
/// a container on the packet path started asking the allocator again.
const BTREE_ALLOCATOR_CALLS: u64 = 32_482;
/// ... and the measured value + 5 % since a drop-tail burst allocates
/// nothing, a topology allocates nothing per node, the traffic
/// substrate spells its node names in one reused buffer, a mapping
/// table grows by runs, not chunks, a LIA sender feeds no RTT min-filter,
/// and a started connection allocates one box for its controllers (9 761;
/// 10 561 while it allocated a shared coupling cell and a box per
/// controller, 11 850 while every sender grew a min-filter, 13 103 while
/// mapping tables grew by chunks, 14 684
/// while each name was a `format!`ted `String`, 29 242 while each burst
/// grew and freed a `VecDeque` and each node held two `String`s and a
/// `Vec`).
const ALLOCATOR_CALLS: u64 = 10_249;
/// `run_traffic(&cell(PAIRS)).trace_hash` at the parent commit.
const PARENT_TRACE_HASH: u64 = 0x9258_65b6_04ae_1d32;

/// The stages of assembling `run_traffic`'s world, in order.
const STAGES: [&str; 5] = ["program", "topology", "routes", "World::new", "agents"];

/// What `assembled_and_retained_by` read of one cell.
struct Census {
    /// Heap each stage of assembly added, in `STAGES` order; their sum is
    /// the world assembled and not yet run.
    stages: [u64; 5],
    /// Heap the run left behind.
    retained: u64,
    /// What the run gave back of the assembled world: each sender's
    /// scheduling scratch, one snapshot per subflow, allocated at assembly
    /// and released at completion.
    scratch: u64,
    trace_hash: u64,
}

/// `run_traffic`'s world for `cell`, assembled by hand so the heap can be
/// read after each stage of assembly and again before teardown: how much
/// the world weighs before its first event, stage by stage, how much the
/// run left behind, and the trace hash it produced.
fn assembled_and_retained_by(cell: &TrafficCell) -> Census {
    let mut stages = [0; 5];
    let mut mark = LIVE.load(Relaxed);
    let mut stage = |k: usize| {
        let now = LIVE.load(Relaxed);
        stages[k] = now - mark;
        mark = now;
    };
    let program = TrafficProgram::generate(&TrafficConfig {
        connections: cell.pairs,
        arrival_rate_hz: cell.arrival_rate_hz,
        seed: cell.seed,
    });
    stage(0);
    let net = TrafficNet::build(&TrafficNetConfig { pairs: cell.pairs });
    stage(1);
    let mut routing = RoutingTables::new(&net.topology);
    let subflows: Vec<_> = (0..cell.pairs)
        .map(|i| install_subflows(&mut routing, &net.paths(i), 1, 5000))
        .collect();
    stage(2);
    let mut world = World::new(net.topology, routing, cell.seed, TraceSink::new());
    stage(3);
    let mut receivers = Vec::with_capacity(cell.pairs);
    let mut scratch = 0;
    for ((conn, subflows), (&src, &dst)) in program
        .connections
        .iter()
        .zip(subflows)
        .zip(net.srcs.iter().zip(&net.dsts))
    {
        scratch += (subflows.len() * size_of::<SubflowSnapshot>()) as u64;
        let cfg = MptcpConfig {
            algo: cell.algo,
            app: AppSource::Fixed(conn.size_bytes),
            ..MptcpConfig::bulk(dst, subflows)
        };
        receivers.push(world.connect(src, cfg, conn.start).1);
    }
    stage(4);
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
    Census {
        stages,
        retained: at_end.saturating_sub(at_start),
        scratch,
        trace_hash: world.sink().hash(),
    }
}

#[test]
fn a_finished_connection_costs_nothing() {
    // The library's own run of the cell: hash, peak and allocator calls.
    let calls_before = CALLS.load(Relaxed);
    let (base, base_census) = start_peak();
    let run = run_traffic(&cell(PAIRS));
    let peak = PEAK.load(Relaxed) - base;
    let calls = CALLS.load(Relaxed) - calls_before;
    let census = census_at_peak().over(&base_census);
    assert_eq!(run.finished, PAIRS, "the horizon must outlast every flow");

    // What the run leaves behind, at this size and at half of it. Both
    // cells arrive at the same rate, so the engine is about equally warm in
    // both (the wheel's chunk pool is sized by the most events ever pending
    // at once, which the arrival rate sets, not the pair count) and the
    // difference is what the extra connections, all finished, still cost.
    let full = assembled_and_retained_by(&cell(PAIRS));
    assert_eq!(
        full.trace_hash, run.trace_hash,
        "assembled_and_retained_by no longer builds run_traffic's world"
    );
    let half = assembled_and_retained_by(&cell(PAIRS / 2));
    let per_pair = |full: u64, half: u64| full.saturating_sub(half) / (PAIRS / 2) as u64;
    // What a finished connection keeps, the scratch it gave back added
    // back: no credit against a retention. What a pair weighs finished is
    // what assembly allocated plus what the run changed, scratch freed.
    let each = per_pair(full.retained + full.scratch, half.retained + half.scratch);
    let each_run = per_pair(full.retained, half.retained);
    let (assembled, assembled_half) = (full.stages.iter().sum(), half.stages.iter().sum());
    let each_assembled = per_pair(assembled, assembled_half);
    let each_stage: Vec<u64> = (0..STAGES.len())
        .map(|k| per_pair(full.stages[k], half.stages[k]))
        .collect();

    println!(
        "footprint: a finished connection retains {each} B \
         ({} B after {PAIRS}, {} B after {}), \
         a pair assembled and not yet run weighs {each_assembled} B \
         ({assembled} B for {PAIRS}, {assembled_half} B for {}), \
         peak live {peak} B, {calls} allocator calls, hash {:#018x}",
        full.retained + full.scratch,
        half.retained + half.scratch,
        PAIRS / 2,
        PAIRS / 2,
        run.trace_hash
    );
    for ((name, each), limit) in STAGES.iter().zip(&each_stage).zip(STAGE_PER_PAIR) {
        println!("footprint: {name} weighs {each} B per pair (limit {limit} B)");
    }
    print_census("footprint", &census, 8);
    assert_eq!(run.trace_hash, PARENT_TRACE_HASH);
    assert!(
        each <= RETAINED_PER_CONNECTION,
        "{each} B still held per finished connection (limit {RETAINED_PER_CONNECTION} B)"
    );
    for ((name, &each), limit) in STAGES.iter().zip(&each_stage).zip(STAGE_PER_PAIR) {
        assert!(
            each <= limit,
            "{name}: {each} B per assembled pair (limit {limit} B)"
        );
    }
    assert!(
        each_assembled <= ASSEMBLED_PER_PAIR,
        "{each_assembled} B per assembled pair (limit {ASSEMBLED_PER_PAIR} B)"
    );
    assert!(
        each_assembled + each_run <= FINISHED_PER_PAIR,
        "{} B per finished pair (limit {FINISHED_PER_PAIR} B)",
        each_assembled + each_run
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
    assert!(
        calls <= ALLOCATOR_CALLS,
        "{calls} allocator calls (limit {ALLOCATOR_CALLS})"
    );
}
