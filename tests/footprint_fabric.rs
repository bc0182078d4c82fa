//! Footprint gate: the event queue holds what is pending, not what each of
//! its buckets once held.
//!
//! A k = 4 fat-tree `run_fabric` cell under the counting allocator: eight
//! bulk connections × two subflows for a full second — long enough for the
//! wheel's cursor to pass through every level-0 and level-1 slot several
//! times, so any per-bucket retention shows up as peak live heap
//! (DESIGN.md "Footprint"). Its own file, so its own process and allocator.

mod counting_alloc;

use counting_alloc::{census_at_peak, print_census, start_peak, CALLS, PEAK};
use mptcp_overlap::overlap_core::{run_fabric, FabricCell, SubflowSelector};
use mptcp_overlap::prelude::*;
use std::sync::atomic::Ordering::Relaxed;

/// Peak live heap of the cell: 204 184 B in the dev profile, + 5 %. It
/// was 205 144 B (equal in dev and release) while subflow receivers kept
/// four counters and a window setting, 206 168 B while every coupled subflow controller was a box over
/// its connection's shared coupling cell, 233 368 B while every live subflow sender fed an RTT min-filter
/// no LIA controller reads and kept its retransmit queue's buffer, 262 520 B while each subflow's mapping table held one entry per
/// MSS chunk instead of one per DSN-contiguous run, 269 688 B while packets carried a flow hash and a heap-payload
/// variant and link-direction records (120 bytes) a byte count, 857 232 B while every level-0/1 bucket kept a private high-water
/// `Vec`, 446 376 B while untagged routes were per-node B-trees and
/// `run_fabric` held a second copy of them, 388 840 B while each link
/// direction's drop-tail queue also carried a byte bound, 285 928 B while
/// the fabric kept ECMP groups and default routes no packet used, and
/// 276 824 B while drop-tail bursts were buffered in `VecDeque`s, link
/// directions' records were 176 bytes and every node owned its name twice
/// and an adjacency `Vec`.
const PEAK_BUDGET_BYTES: u64 = 214_400;
/// `run_fabric(&cell()).trace_hash` at the parent commit.
const PARENT_TRACE_HASH: u64 = 0x19b3_85f5_d017_8f34;

fn cell() -> FabricCell {
    FabricCell {
        duration: SimDuration::from_secs(1),
        ..FabricCell::table(1, SubflowSelector::Ecmp)
    }
}

#[test]
fn the_queue_holds_what_is_pending() {
    let calls_before = CALLS.load(Relaxed);
    let (base, base_census) = start_peak();
    let run = run_fabric(&cell());
    let peak = PEAK.load(Relaxed) - base;
    let calls = CALLS.load(Relaxed) - calls_before;
    let census = census_at_peak().over(&base_census);
    println!(
        "footprint_fabric: {} events, peak live {peak} B, {calls} allocator calls, hash {:#018x}",
        run.events, run.trace_hash
    );
    print_census("footprint_fabric", &census, 8);
    assert_eq!(run.trace_hash, PARENT_TRACE_HASH);
    assert!(
        peak <= PEAK_BUDGET_BYTES,
        "peak live heap {peak} B is over the {PEAK_BUDGET_BYTES} B budget"
    );
}
