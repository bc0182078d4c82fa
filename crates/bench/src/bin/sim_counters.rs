//! The work counters of the paper world and of the three many-connection
//! benchmark workloads.
//!
//! `examples/perfbench` times `paper-bulk`, `fabric-ecmp`, `churn-4k` and
//! `overload-4k`; this binary runs the same scenarios and cells (same
//! constructors, same seeds: workload seed `s` runs cells `s`, `s + 1`, …)
//! once each, untimed, and prints every
//! [`netsim::SimCounters`] entry summed over the workload's cells, next to
//! the events and delivered bytes perfbench prints as `sim.events` and
//! `sim.bytes_delivered` for the same seed. The output is deterministic, so a layout or scheduling change states its
//! effect as a diff of this file's output before anyone times anything
//! (DESIGN.md §15); `results/perf_trajectory.json` keeps one row per PR.
//!
//! Run: `cargo run -p bench --bin sim_counters --release [seed]` (~6 s).

use mptcpsim::CcAlgo;
use netsim::{FaultSchedule, SimCounters};
use overlap_core::{
    run_fabric, run_traffic, FabricCell, PaperNetwork, Scenario, SubflowSelector, TrafficCell,
};
use simbase::{SimDuration, SimTime};

/// One line per counter, summed over a workload's cells. High-water marks
/// and maxima are per cell, so they report their maximum instead.
fn report(workload: &str, events: u64, delivered: u64, counters: &[SimCounters]) {
    println!("== {workload}");
    println!("  {:<32} {events}", "sim.events");
    println!("  {:<32} {delivered}", "sim.bytes_delivered");
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for cell in counters {
        for (i, (name, value)) in cell.entries().enumerate() {
            if totals.len() == i {
                totals.push((name, 0));
            }
            let total = &mut totals[i].1;
            *total = if name.ends_with("high_water") || name.ends_with("max_len") {
                (*total).max(value)
            } else {
                *total + value
            };
        }
    }
    for (name, total) in totals {
        println!("  {name:<32} {total}");
    }
}

/// `paper-bulk`: the paper network's one three-subflow connection under
/// CUBIC, LIA and OLIA for 30 s each. Each scenario is checkpointed at its
/// horizon, so the checkpoint holds the whole run's counters; a branch
/// with no faults from there simulates nothing more and reports the run's
/// events and delivered bytes.
fn paper(seed: u64) {
    let net = PaperNetwork::new();
    let base = Scenario {
        default_path: net.default_path,
        ..Scenario::new(net.topology, net.paths)
    }
    .with_seed(seed)
    .with_timing(SimDuration::from_secs(30), SimDuration::from_millis(100));
    let (mut events, mut delivered, mut counters) = (0, 0, Vec::new());
    for algo in [CcAlgo::Cubic, CcAlgo::Lia, CcAlgo::Olia] {
        let scenario = base.clone().with_algo(algo);
        let checkpoint = scenario.checkpoint_at(SimTime::ZERO + scenario.duration);
        let run = checkpoint.branch_run(&FaultSchedule::new(), None);
        events += run.events;
        delivered += run.data_delivered;
        counters.push(checkpoint.counters());
    }
    report("paper-bulk", events, delivered, &counters);
}

fn traffic(workload: &str, seed: u64, cells: u64, arrival_rate_hz: f64, secs: u64) {
    let runs: Vec<_> = (seed..seed + cells)
        .map(|s| {
            run_traffic(&TrafficCell {
                arrival_rate_hz,
                duration: SimDuration::from_secs(secs),
                ..TrafficCell::table(4000, s)
            })
        })
        .collect();
    report(
        workload,
        runs.iter().map(|r| r.events).sum(),
        runs.iter().map(|r| r.delivered).sum(),
        &runs.iter().map(|r| r.counters).collect::<Vec<_>>(),
    );
}

fn main() {
    let seed: u64 = bench::arg(1, "sim_counters [seed]").unwrap_or(1);
    println!("sim_counters: seed {seed}");
    paper(seed);
    let fabric = run_fabric(&FabricCell {
        k: 8,
        connections: 64,
        duration: SimDuration::from_secs(4),
        ..FabricCell::table(seed, SubflowSelector::Ecmp)
    });
    let delivered = fabric.conns.iter().map(|c| c.delivered).sum();
    report("fabric-ecmp", fabric.events, delivered, &[fabric.counters]);
    traffic("churn-4k", seed, 2, 250.0, 18);
    traffic("overload-4k", seed, 3, 1000.0, 4);
}
