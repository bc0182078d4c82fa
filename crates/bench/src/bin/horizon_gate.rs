//! Horizon-independence gate: a run's memory must not grow with its length.
//!
//! The measurement path streams (DESIGN.md §14): capture records are hashed,
//! checked and binned as they are emitted, so what a run holds is O(bins),
//! not O(packets). This binary runs the paper network under LIA for 30 s and
//! then for 120 s of simulated time in one process and exits nonzero if the
//! process's peak RSS (`VmHWM`) grew by more than 256 KB between the two — a
//! buffered capture would add roughly 40 MB, and the event queue's token
//! table, before it became a sliding window, added 1.06 MB. CI runs it on
//! every pass.

use bench::peak_rss_bytes;
use overlap_core::prelude::*;
use simbase::SimDuration;

/// Allowed `VmHWM` growth from the 30 s run to the 120 s run: room for the
/// 4× longer series and `UniqueDelivery`'s O(drops) hole set (page and
/// heap-layout granularity moves it), nothing else.
const MAX_GROWTH_BYTES: u64 = 256 * 1024;

fn main() {
    let net = PaperNetwork::new();
    let base = Scenario {
        default_path: net.default_path,
        ..Scenario::new(net.topology, net.paths)
    }
    .with_algo(CcAlgo::Lia);
    let mut peaks = Vec::new();
    for secs in [30, 120] {
        let run = base
            .clone()
            .with_timing(SimDuration::from_secs(secs), SimDuration::from_millis(100))
            .run();
        let Some(peak) = peak_rss_bytes() else {
            println!("horizon gate: skipped (no /proc/self/status on this host)");
            return;
        };
        println!(
            "horizon gate: {secs:>3} s simulated, {} events, VmHWM {:.1} MB",
            run.events,
            peak as f64 / 1e6
        );
        peaks.push(peak);
    }
    let growth = peaks[1] - peaks[0];
    if growth > MAX_GROWTH_BYTES {
        eprintln!(
            "horizon gate: VmHWM grew by {growth} bytes from the 30 s to the 120 s run \
             (limit {MAX_GROWTH_BYTES}): something holds O(packets) state again"
        );
        std::process::exit(1);
    }
    println!("horizon gate: OK (+{growth} bytes)");
}
