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

use counting_alloc::{CALLS, LIVE, PEAK};
use mptcp_overlap::overlap_core::{run_traffic, TrafficCell};
use mptcp_overlap::prelude::*;
use std::sync::atomic::Ordering::Relaxed;

/// Peak live heap of the cell: the measured value + 5 % (2 723 744 while
/// the three range containers were B-trees and every node owned a route
/// table; 2 386 112 as sorted vectors and route sets by destination).
const PEAK_BUDGET_BYTES: u64 = 2_505_000;
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
    let (base, calls_before) = (LIVE.load(Relaxed), CALLS.load(Relaxed));
    PEAK.store(base, Relaxed);
    let run = run_traffic(&cell());
    let peak = PEAK.load(Relaxed) - base;
    let calls = CALLS.load(Relaxed) - calls_before;
    println!(
        "footprint_overload: {} events, {} link drops, {} retransmits, most ranges in one set {}, \
         peak live {peak} B, {calls} allocator calls, hash {:#018x}",
        run.events,
        run.counters.link_drops,
        run.counters.tcp_retransmits,
        run.counters.range_set_max_len,
        run.trace_hash
    );
    assert_eq!(run.trace_hash, PARENT_TRACE_HASH);
    // The cell must actually be on the loss path.
    assert!(
        run.finished < run.started,
        "overload leaves flows unfinished"
    );
    assert!(run.counters.tcp_retransmits > 1000, "{:?}", run.counters);
    assert!(
        peak <= PEAK_BUDGET_BYTES,
        "peak live heap {peak} B is over the {PEAK_BUDGET_BYTES} B budget"
    );
}
