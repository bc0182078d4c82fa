//! Congestion-window dynamics under the hood of Figure 2.
//!
//! The paper measures *receiver-side throughput*; this example opens the
//! sender and plots each subflow's congestion window instead — the state
//! variable the congestion-control algorithms actually manipulate. The
//! "shake down" to the optimum is visible as Path 2's window being pushed
//! down while Path 3's grows.
//!
//! Run: `cargo run --example cwnd_dynamics --release`

use mptcp_overlap::mptcpsim::{common_destination, install_subflows, CcAlgo, MptcpConfig};
use mptcp_overlap::netsim::RoutingTables;
use mptcp_overlap::prelude::*;
use mptcp_overlap::simtrace;

fn main() {
    for algo in [CcAlgo::Cubic, CcAlgo::Lia] {
        let net = PaperNetwork::new();
        let mut rt = RoutingTables::new(&net.topology);
        // Default path (Path 2) first, keeping canonical tags.
        let mut subflows = install_subflows(&mut rt, &net.paths, 1, 5000);
        subflows.swap(0, net.default_path);
        let dst = common_destination(&net.paths);
        let mut world = World::new(net.topology.clone(), rt, 42, simtrace::TraceSink::new());
        world.set_forward_jitter(SimDuration::from_micros(20));
        let cfg = MptcpConfig {
            algo,
            ..MptcpConfig::bulk(dst, subflows)
        };
        let (sender, _) = world.connect(net.src, cfg, SimTime::ZERO);

        // Sample every subflow's window (in packets) each 50 ms for 10 s:
        // run to the bin's instant, then read the sender's state.
        let nbins = 200;
        let mut cwnds = vec![vec![0.0; nbins]; 3];
        for bin in 1..nbins {
            world.run_until(SimTime::from_millis(50 * bin as u64));
            let sender = world.sender(sender);
            for (sf, vals) in cwnds.iter_mut().enumerate() {
                vals[bin] = sender.subflow_cwnd(sf).unwrap_or(0) as f64 / 1460.0;
            }
        }

        let mut series = Vec::new();
        for (sf, vals) in cwnds.into_iter().enumerate() {
            // Subflow order is default-first; map back to path labels.
            let path = if sf == 0 {
                2
            } else if sf == 1 {
                1
            } else {
                3
            };
            series.push(simtrace::TimeSeries::new(
                format!("Path {path} cwnd"),
                SimTime::ZERO,
                SimDuration::from_millis(50),
                vals,
            ));
        }
        let refs: Vec<&simtrace::TimeSeries> = series.iter().collect();
        println!(
            "== {} — subflow congestion windows (packets) ==",
            algo.name()
        );
        print!(
            "{}",
            simtrace::ascii_chart(
                &refs,
                &simtrace::ChartOptions {
                    y_label: "cwnd [pkts]".into(),
                    ..Default::default()
                }
            )
        );
        println!();
    }
}
