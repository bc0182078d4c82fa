//! Footprint gate: what loss recovery holds.
//!
//! `tests/footprint.rs` pins a cell at a sustainable rate, where hardly a
//! segment is lost. This one is `overload-4k`'s shape on a tenth of its
//! pairs — 400 pairs arriving at 1 000/s onto a substrate that carries a
//! fraction of them, run for 1 s — so SACK scoreboards, out-of-order
//! buffers and DSN reassembly sets are all live when the peak is taken:
//! a container on the loss path that grows shows up here, under an
//! absolute trace hash (DESIGN.md "Footprint"). Its own file, so its own
//! process and allocator.

mod counting_alloc;

use counting_alloc::{census_at_peak, print_census, start_peak, CALLS, PEAK};
use mptcp_overlap::overlap_core::{run_traffic, TrafficCell};
use mptcp_overlap::prelude::*;
use std::sync::atomic::Ordering::Relaxed;

/// Peak live heap of the cell: the measured value + 5 % (2 723 744 while
/// the three range containers were B-trees and every node owned a route
/// table; 2 386 112 as sorted vectors and route sets by destination;
/// 2 368 512 with boxed drop-tail queues, 2 342 800 with them inline,
/// 2 279 080 once subflow senders, receivers and the MPTCP sender kept no
/// one-value options, 2 241 432 once they kept no FIN state, RTO clamps or
/// join timing either, 2 187 608 with drop-tail queues that carry no byte
/// bound, 2 160 840 with subflow senders that exist only while they run and
/// 120-byte subflow receivers, 1 995 176 with drop-tail FIFOs linked
/// through the packet slab, 120-byte link-direction records and a topology
/// that allocates nothing per node, 1 936 280 with 96-byte packets and
/// link-direction records that keep no byte count, 1 745 752 with mapping
/// tables that hold one entry per DSN-contiguous run of MSS chunks,
/// 1 629 960 with 248-byte live subflow-sender parts that keep an RTT
/// min-filter only for a controller that reads it and a retransmit queue
/// that holds no buffer once drained, 1 585 288 with 232-byte live parts
/// and a connection that owns its controllers in one 32-byte box, where
/// each live coupled subflow had a 40-byte controller box and each
/// connection a 48-byte shared coupling cell, 1 547 168 with 80-byte
/// subflow receivers that keep no counters or window setting, a 96-byte
/// receiver agent and 184-byte subflow records).
const PEAK_BUDGET_BYTES: u64 = 1_624_600;
/// The three largest size classes of the census at the cell's peak, by the
/// largest request in the class, each at the measured value + 5 %: 141
/// 64-entry wheel chunks (286 912 B), 698 boxed live subflow-sender parts
/// (161 936 B; 201 296 B while 164 two-receiver vectors of 120-byte subflow
/// receivers shared the class, now 160 B; the parts were 248 B while
/// they held their controller, 272 B while every one held an RTT
/// min-filter, both outside this class), and the one vector of 1 608
/// link-direction records (154 368 B).
const CENSUS_PINS: [(usize, i64); 3] = [(2_048, 301_300), (240, 170_100), (262_144, 162_100)];
/// `run_traffic(&cell()).trace_hash` at the parent commit.
const PARENT_TRACE_HASH: u64 = 0xbdf8_4980_0964_a51a;

fn cell() -> TrafficCell {
    TrafficCell {
        arrival_rate_hz: 1000.0,
        duration: SimDuration::from_secs(1),
        ..TrafficCell::table(400, 1)
    }
}

#[test]
fn loss_recovery_state_is_pinned() {
    let calls_before = CALLS.load(Relaxed);
    let (base, base_census) = start_peak();
    let run = run_traffic(&cell());
    let peak = PEAK.load(Relaxed) - base;
    let calls = CALLS.load(Relaxed) - calls_before;
    let census = census_at_peak().over(&base_census);
    println!(
        "footprint_overload: {} events, {} link drops, {} retransmits, most ranges in one set {}, \
         peak live {peak} B, {calls} allocator calls, hash {:#018x}",
        run.events,
        run.counters.link_drops,
        run.counters.tcp_retransmits,
        run.counters.range_set_max_len,
        run.trace_hash
    );
    print_census("footprint_overload", &census, 8);
    assert_eq!(run.trace_hash, PARENT_TRACE_HASH);
    // The cell must actually be on the loss path.
    assert!(
        run.finished < run.started,
        "overload leaves flows unfinished"
    );
    assert!(run.counters.tcp_retransmits > 1000, "{:?}", run.counters);
    for (largest, budget) in CENSUS_PINS {
        let bytes = census
            .iter()
            .find(|row| row.range.1 == largest)
            .map_or(0, |row| row.bytes);
        assert!(
            bytes <= budget,
            "{bytes} B of requests up to {largest} B at the peak (limit {budget} B)"
        );
    }
    assert!(
        peak <= PEAK_BUDGET_BYTES,
        "peak live heap {peak} B is over the {PEAK_BUDGET_BYTES} B budget"
    );
}
