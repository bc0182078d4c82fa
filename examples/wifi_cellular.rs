//! The classic MPTCP use case from the paper's introduction: a host
//! connected through **Wi-Fi and cellular at the same time** — two fully
//! disjoint paths with very different bandwidth and delay.
//!
//! Built on the `worldgen` scenario library: `MobileNet` is the
//! wifi+cellular substrate and `MobileNet::schedule` compiles its
//! walk-away / walk-back pattern into a deterministic fault schedule (Wi-Fi
//! capacity ramps down, a hard handover outage, ramp back up). Two views:
//!
//!  1. static — with disjoint paths there is no coupling constraint, the
//!     LP optimum is the sum of the two access capacities, and every
//!     congestion controller should aggregate;
//!  2. mobile — the same connection under the mobility schedule: goodput
//!     retained across handovers and how traffic shifts to cellular.
//!
//! Run: `cargo run --example wifi_cellular --release`

use mptcp_overlap::prelude::*;
use mptcp_overlap::worldgen::mobility::{CELL_BW, WALK_CYCLES, WALK_PERIOD, WALK_SPAN, WIFI_BW};
use mptcp_overlap::worldgen::MobileNet;

fn main() {
    let net = MobileNet::build();
    println!(
        "Wi-Fi {} + cellular {} (disjoint paths), {} walk cycles of {:.0} s\n",
        WIFI_BW,
        CELL_BW,
        WALK_CYCLES,
        WALK_PERIOD.as_secs_f64(),
    );

    // Static view: the easy case the paper contrasts against. The LP is
    // trivial (sum of access bottlenecks) and the coupled algorithms
    // should reach it.
    println!("static (no mobility), {:.0} s:", WALK_SPAN.as_secs_f64());
    for algo in [CcAlgo::Cubic, CcAlgo::Lia, CcAlgo::Olia] {
        let result = Scenario::new(net.topology.clone(), net.paths())
            .with_algo(algo)
            .with_timing(WALK_SPAN, SimDuration::from_millis(100))
            .run();
        println!(
            "  {:<6} Wi-Fi {:>5.1} Mbps + cell {:>5.1} Mbps = {:>5.1} / {:.0} Mbps  ({:.0}%)",
            algo.name(),
            result.per_path_steady_mbps[0],
            result.per_path_steady_mbps[1],
            result.steady_total_mbps(),
            result.lp.total_mbps,
            result.efficiency() * 100.0,
        );
    }

    // Mobile view: the same substrate under the compiled fault schedule.
    // `run_mobility` pairs each mobile run with its fault-free twin.
    println!("\nunder the mobility schedule ({WALK_CYCLES} hard handovers):");
    for algo in [CcAlgo::Lia, CcAlgo::Olia] {
        let run = run_mobility(algo, 1);
        let total = (run.wifi_bytes + run.cell_bytes).max(1) as f64;
        println!(
            "  {:<6} {:>5.1} of {:>5.1} Mbps retained ({:>4.1}%), {:.0}% of bytes via cellular",
            run.algo.name(),
            run.mobile_mbps,
            run.static_mbps,
            100.0 * run.mobile_mbps / run.static_mbps,
            100.0 * run.cell_bytes as f64 / total,
        );
    }
    println!(
        "\nWith disjoint paths even the coupled algorithms aggregate — the hard\n\
         case in the paper is specifically *overlapping* paths — and mobility\n\
         is where the second subflow pays off: the cellular path carries the\n\
         connection across every Wi-Fi outage."
    );
}
