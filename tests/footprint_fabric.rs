//! Footprint gate: the event queue holds what is pending, not what each of
//! its buckets once held.
//!
//! A k = 4 fat-tree `run_fabric` cell under the counting allocator: eight
//! bulk connections × two subflows for a full second — long enough for the
//! wheel's cursor to pass through every level-0 and level-1 slot several
//! times, so any per-bucket retention shows up as peak live heap
//! (DESIGN.md "Footprint"). Its own file, so its own process and allocator.

mod counting_alloc;

use counting_alloc::{CALLS, LIVE, PEAK};
use mptcp_overlap::overlap_core::{run_fabric, FabricCell, SubflowSelector};
use mptcp_overlap::prelude::*;
use std::sync::atomic::Ordering::Relaxed;

/// Peak live heap of the cell (parent, with a private high-water `Vec` per
/// level-0/1 bucket: 857 232; change: 443 896). Equal in dev and release.
const PEAK_BUDGET_BYTES: u64 = 600_000;
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
    let (base, calls_before) = (LIVE.load(Relaxed), CALLS.load(Relaxed));
    PEAK.store(base, Relaxed);
    let run = run_fabric(&cell());
    let peak = PEAK.load(Relaxed) - base;
    let calls = CALLS.load(Relaxed) - calls_before;
    println!(
        "footprint_fabric: {} events, peak live {peak} B, {calls} allocator calls, hash {:#018x}",
        run.events, run.trace_hash
    );
    assert_eq!(run.trace_hash, PARENT_TRACE_HASH);
    assert!(
        peak <= PEAK_BUDGET_BYTES,
        "peak live heap {peak} B is over the {PEAK_BUDGET_BYTES} B budget"
    );
}
