//! Allocator gate: a coupled controller allocates nothing per ACK.
//!
//! A 10 s OLIA run on the paper network asks the allocator about as often as
//! the same run under LIA, whose increase reads two sums over the coupling
//! state and allocates nothing. OLIA's `alpha` counts its path sets in one
//! pass and makes 404 calls (the LIA run 427); while it collected them into
//! `Vec`s, three or four per congestion-avoidance ACK, the same run made
//! 167 332. Its own file, so its own process and allocator.

mod counting_alloc;

use counting_alloc::CALLS;
use mptcp_overlap::overlap_core::{PaperNetwork, Scenario};
use mptcp_overlap::prelude::*;
use std::sync::atomic::Ordering::Relaxed;

/// Allocator calls of the OLIA run: 404 measured, + 5 %.
const OLIA_CALLS: u64 = 424;
/// How many calls the OLIA run may make beyond the LIA run's: 5 % of LIA's
/// 427; the coupled laws share everything but their increase.
const OVER_LIA: u64 = 21;
/// The OLIA run's trace hash, the same as at the commit that kept the path
/// sets in `Vec`s: a change that moves it may move the count.
const OLIA_TRACE_HASH: u64 = 0x289c_61bc_820f_a4af;

/// The paper network's 10 s run under `algo`, seed 1: its allocator calls,
/// events and trace hash.
fn paper_run(algo: CcAlgo) -> (u64, u64, u64) {
    let net = PaperNetwork::new();
    let scenario = Scenario {
        default_path: net.default_path,
        ..Scenario::new(net.topology, net.paths)
    }
    .with_algo(algo)
    .with_seed(1)
    .with_timing(SimDuration::from_secs(10), SimDuration::from_millis(100));
    let before = CALLS.load(Relaxed);
    let run = scenario.run();
    (CALLS.load(Relaxed) - before, run.events, run.trace_hash)
}

#[test]
fn olia_allocates_no_more_than_lia() {
    let (lia, lia_events, _) = paper_run(CcAlgo::Lia);
    let (olia, olia_events, olia_hash) = paper_run(CcAlgo::Olia);
    println!(
        "footprint_olia: OLIA {olia} allocator calls ({olia_events} events, hash {olia_hash:#018x}); \
         LIA {lia} ({lia_events} events)"
    );
    assert_eq!(olia_hash, OLIA_TRACE_HASH, "the OLIA run moved");
    assert!(
        olia <= OLIA_CALLS,
        "{olia} allocator calls, pinned {OLIA_CALLS}"
    );
    assert!(
        olia <= lia + OVER_LIA,
        "OLIA {olia} allocator calls, LIA {lia}: more than {OVER_LIA} apart"
    );
}
