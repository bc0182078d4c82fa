//! Scenario-suite simulator benchmark: `BENCH_sim.json`.
//!
//! Runs three pinned scenarios — the 30 s paper topology, a random-overlap
//! network, and a faulted failover run — on the timing-wheel engine and,
//! when built with `--features ref-heap`, on the binary-heap reference
//! engine as well. Emits events/sec, packets/sec, the dead-event fraction
//! (cancelled timers the old lazy guards would have popped and discarded),
//! trace hashes, and peak RSS as one JSON document:
//!
//! ```text
//! cargo run -p bench --bin bench_sim --release --features ref-heap > BENCH_sim.json
//! ```
//!
//! Schema version 2 adds a `region_scaling` section: the paper topology
//! and the dual-chain shardable network (`overlap_core::bigchain`) run at
//! 1, 2, and 4 regions on the conservative parallel engine, reporting
//! events/sec, speedup over the serial run, and trace hashes.
//!
//! Schema version 3 adds a `worldgen_scaling` section: population-scale
//! `worldgen` scenarios — the k=4 and k=8 fat-tree fabrics under ECMP
//! subflow placement and the 100- and 1000-connection heavy-tailed
//! traffic programs — at 1, 2, and 4 regions, with the same unconditional
//! hash-identity gate as `region_scaling` (every partitioned run must
//! reproduce the serial trace hash).
//!
//! Schema version 4 adds two experiment-service sections. `run_store`
//! pushes the pinned suite through a content-addressed
//! [`overlap_core::RunStore`] twice: the cold pass simulates and persists,
//! the warm pass must answer every scenario from disk (zero simulations)
//! with bit-identical results. `checkpoint_branching` simulates the
//! failover scenario's fault-free prefix once to just before the failure,
//! snapshots it, and branches four outage-duration variants from the
//! checkpoint; every branch must hash identically to a cold run of the
//! same outage, and the section reports the wall-clock speedup the shared
//! prefix buys.
//!
//! Each engine is timed best-of-3 (the runs are deterministic; only the
//! wall clock varies). With `--gate` (CI), the process exits nonzero if
//!
//! * any scenario's heap and wheel trace hashes differ (the engines must be
//!   observationally identical), or
//! * the wheel is slower than the heap (events/sec) on any scenario, or
//! * any region count's trace hash differs from the serial run's
//!   (checked unconditionally — determinism does not need cores), or
//! * the warm store pass misses any scenario or returns a result whose
//!   trace hash differs from the cold pass, or
//! * any checkpoint branch's trace hash differs from its cold run, or
//! * on hosts with ≥ 2 cores only: no partitioned run of the dual-chain
//!   scenario reaches serial throughput. Single-core hosts skip this
//!   gate — conservative sync there is pure overhead by construction.
//!
//! Timings are machine-dependent: the JSON is regenerated by CI as a
//! reference point, **not** byte-compared.

use bench::peak_rss_bytes;
use overlap_core::bigchain::DualChainNet;
use overlap_core::prelude::*;
use overlap_core::{
    failover_scenario, run_outage_sweep, FailoverConfig, FailoverSetup, QueueEngine,
};
use simbase::SimDuration;
use std::time::Instant;

struct EngineRun {
    engine: &'static str,
    events: u64,
    packets: u64,
    elapsed_s: f64,
    dead_fraction: f64,
    trace_hash: u64,
}

impl EngineRun {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_s
    }
    fn packets_per_sec(&self) -> f64 {
        self.packets as f64 / self.elapsed_s
    }
}

/// Timing repetitions per engine. The runs are deterministic — only the
/// wall clock varies — so the best-of-N elapsed filters scheduler noise
/// out of the CI speed gate.
const TIMING_REPS: u32 = 3;

fn run_engine(scenario: &Scenario, engine: QueueEngine, label: &'static str) -> EngineRun {
    let mut run = None;
    let mut elapsed_s = f64::INFINITY;
    for _ in 0..TIMING_REPS {
        let mut scenario = scenario.clone();
        scenario.engine = engine;
        let t = Instant::now();
        run = Some(scenario.run());
        elapsed_s = elapsed_s.min(t.elapsed().as_secs_f64());
    }
    let run = run.expect("at least one timing rep");
    let scheduled = run.events_scheduled + run.events_cancelled;
    EngineRun {
        engine: label,
        events: run.events,
        packets: run.packets_delivered,
        elapsed_s,
        dead_fraction: if scheduled == 0 {
            0.0
        } else {
            run.events_cancelled as f64 / scheduled as f64
        },
        trace_hash: run.trace_hash,
    }
}

/// The pinned suite: (name, description, scenario).
fn suite() -> Vec<(&'static str, &'static str, Scenario)> {
    let paper = {
        let net = PaperNetwork::new();
        Scenario {
            default_path: net.default_path,
            ..Scenario::new(net.topology, net.paths)
        }
        .with_timing(SimDuration::from_secs(30), SimDuration::from_millis(100))
    };
    let random = {
        let net = RandomOverlapNet::generate(&RandomOverlapConfig::default());
        Scenario::new(net.topology.clone(), net.paths.clone())
            .with_timing(SimDuration::from_secs(10), SimDuration::from_millis(100))
    };
    let failover = {
        let cfg = FailoverConfig::default();
        let setup = FailoverSetup::paper();
        failover_scenario(&setup, CcAlgo::Lia, 1, &cfg)
    };
    vec![
        (
            "paper-30s",
            "paper topology, CUBIC, minRTT, 30 s, seed 1",
            paper,
        ),
        (
            "random-overlap",
            "random-overlap net (3 paths, seed 1), CUBIC, minRTT, 10 s",
            random,
        ),
        (
            "failover",
            "paper topology, LIA, link outage 4 s - 12 s, 16 s, seed 1",
            failover,
        ),
    ]
}

/// One region-count row of the region-scaling section.
struct RegionRun {
    regions: usize,
    events: u64,
    elapsed_s: f64,
    trace_hash: u64,
}

impl RegionRun {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_s
    }
}

fn run_regions(scenario: &Scenario, regions: usize) -> RegionRun {
    let mut run = None;
    let mut elapsed_s = f64::INFINITY;
    for _ in 0..TIMING_REPS {
        let scenario = scenario.clone().with_regions(regions);
        let t = Instant::now();
        run = Some(scenario.run());
        elapsed_s = elapsed_s.min(t.elapsed().as_secs_f64());
    }
    let run = run.expect("at least one timing rep");
    RegionRun {
        regions,
        events: run.events,
        elapsed_s,
        trace_hash: run.trace_hash,
    }
}

/// The region-scaling suite: (name, description, scenario). Region-count
/// independence is gated on every entry; the throughput gate (on
/// multi-core hosts) applies to the dual-chain scenario, which is built
/// to shard well — see `overlap_core::bigchain`.
fn region_suite() -> Vec<(&'static str, &'static str, Scenario)> {
    let paper = {
        let net = PaperNetwork::new();
        Scenario {
            default_path: net.default_path,
            ..Scenario::new(net.topology, net.paths)
        }
        .with_timing(SimDuration::from_secs(10), SimDuration::from_millis(100))
    };
    let dual = DualChainNet::scenario(SimDuration::from_secs(10));
    vec![
        (
            "paper-10s",
            "paper topology, CUBIC, minRTT, 10 s, seed 1",
            paper,
        ),
        (
            "dual-chain-10s",
            "two 8-router chains, CUBIC + CBR cross traffic, 10 s, seed 1",
            dual,
        ),
    ]
}

/// Region counts reported per scenario; 1 is the serial baseline.
const REGION_COUNTS: [usize; 3] = [1, 2, 4];

/// One region-count row of the worldgen-scaling section, produced by
/// whichever worldgen runner (fabric or traffic) the cell calls for.
fn run_worldgen_cell(run: impl Fn() -> (u64, u64)) -> RegionRun {
    let mut outcome = None;
    let mut elapsed_s = f64::INFINITY;
    for _ in 0..TIMING_REPS {
        let t = Instant::now();
        outcome = Some(run());
        elapsed_s = elapsed_s.min(t.elapsed().as_secs_f64());
    }
    let (events, trace_hash) = outcome.expect("at least one timing rep");
    RegionRun {
        regions: 0, // caller fills in
        events,
        elapsed_s,
        trace_hash,
    }
}

/// The worldgen-scaling suite: (name, description, per-region runner).
/// Fabric cells scale the topology (k=4 → 16 hosts, k=8 → 128 hosts);
/// traffic cells scale the population (100 → 1000 Poisson arrivals).
#[allow(clippy::type_complexity)]
fn worldgen_suite() -> Vec<(&'static str, &'static str, Box<dyn Fn(usize) -> (u64, u64)>)> {
    let fabric = |k: usize, connections: usize| {
        move |regions: usize| {
            let run = run_fabric(&FabricCell {
                k,
                connections,
                regions,
                ..FabricCell::table(0, SubflowSelector::Ecmp)
            });
            (run.events, run.trace_hash)
        }
    };
    let traffic = |pairs: usize, rate: f64| {
        move |regions: usize| {
            let run = run_traffic(&TrafficCell {
                arrival_rate_hz: rate,
                regions,
                ..TrafficCell::table(pairs, 0)
            });
            (run.events, run.trace_hash)
        }
    };
    vec![
        (
            "fattree-k4",
            "k=4 fat-tree (16 hosts), 8 MPTCP connections, ECMP subflows, LIA, 400 ms, seed 0",
            Box::new(fabric(4, 8)),
        ),
        (
            "fattree-k8",
            "k=8 fat-tree (128 hosts), 16 MPTCP connections, ECMP subflows, LIA, 400 ms, seed 0",
            Box::new(fabric(8, 16)),
        ),
        (
            "traffic-n100",
            "100 Poisson/Pareto connections at 200/s, 2-relay substrate, LIA, 1 s, seed 0",
            Box::new(traffic(100, 200.0)),
        ),
        (
            "traffic-n1000",
            "1000 Poisson/Pareto connections at 1000/s, 2-relay substrate, LIA, 1 s, seed 0",
            Box::new(traffic(1000, 1000.0)),
        ),
    ]
}

fn region_json(run: &RegionRun, speedup: f64) -> String {
    format!(
        "      {{ \"regions\": {}, \"events\": {}, \"elapsed_s\": {:.3}, \
         \"events_per_sec\": {:.0}, \"speedup_vs_serial\": {:.3}, \
         \"trace_hash\": \"{:016x}\" }}",
        run.regions,
        run.events,
        run.elapsed_s,
        run.events_per_sec(),
        speedup,
        run.trace_hash,
    )
}

fn engine_json(run: &EngineRun) -> String {
    format!(
        "      {{ \"engine\": \"{}\", \"events\": {}, \"packets_delivered\": {}, \
         \"elapsed_s\": {:.3}, \"events_per_sec\": {:.0}, \"packets_per_sec\": {:.0}, \
         \"dead_event_fraction\": {:.4}, \"trace_hash\": \"{:016x}\" }}",
        run.engine,
        run.events,
        run.packets,
        run.elapsed_s,
        run.events_per_sec(),
        run.packets_per_sec(),
        run.dead_fraction,
        run.trace_hash,
    )
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let mut gate_failures: Vec<String> = Vec::new();
    let mut scenario_blobs: Vec<String> = Vec::new();

    for (name, desc, scenario) in suite() {
        let wheel = run_engine(&scenario, QueueEngine::Wheel, "wheel");
        #[cfg(feature = "ref-heap")]
        let heap = Some(run_engine(&scenario, QueueEngine::RefHeap, "ref-heap"));
        #[cfg(not(feature = "ref-heap"))]
        let heap: Option<EngineRun> = None;

        if let Some(heap) = &heap {
            if heap.trace_hash != wheel.trace_hash {
                gate_failures.push(format!(
                    "{name}: trace hash mismatch (wheel {:016x} vs heap {:016x})",
                    wheel.trace_hash, heap.trace_hash
                ));
            }
            if wheel.events_per_sec() < heap.events_per_sec() {
                gate_failures.push(format!(
                    "{name}: wheel slower than heap ({:.0} vs {:.0} events/sec)",
                    wheel.events_per_sec(),
                    heap.events_per_sec()
                ));
            }
        }
        let runs: Vec<String> = std::iter::once(&wheel)
            .chain(heap.as_ref())
            .map(engine_json)
            .collect();

        scenario_blobs.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"scenario\": \"{desc}\",\n      \
             \"runs\": [\n{}\n      ]\n    }}",
            runs.join(",\n"),
        ));
    }

    // Region scaling: serial vs partitioned runs of the same scenarios.
    // Hash identity is gated unconditionally — the conservative engine's
    // determinism contract holds on any host. The throughput claim is only
    // meaningful with real cores under the worker threads, so it is gated
    // on `available_parallelism() >= 2` and recorded as skipped otherwise.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut region_blobs: Vec<String> = Vec::new();
    for (name, desc, scenario) in region_suite() {
        let runs: Vec<RegionRun> = REGION_COUNTS
            .iter()
            .map(|&r| run_regions(&scenario, r))
            .collect();
        let serial = &runs[0];
        for run in &runs[1..] {
            if run.trace_hash != serial.trace_hash {
                gate_failures.push(format!(
                    "{name}: {}-region trace hash {:016x} != serial {:016x}",
                    run.regions, run.trace_hash, serial.trace_hash
                ));
            }
        }
        if name == "dual-chain-10s"
            && cores >= 2
            && !runs[1..]
                .iter()
                .any(|r| r.events_per_sec() >= serial.events_per_sec())
        {
            gate_failures.push(format!(
                "{name}: no partitioned run reached serial throughput \
                 ({:.0} events/sec serial) on a {cores}-core host",
                serial.events_per_sec()
            ));
        }
        let rows: Vec<String> = runs
            .iter()
            .map(|r| region_json(r, r.events_per_sec() / serial.events_per_sec()))
            .collect();
        region_blobs.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"scenario\": \"{desc}\",\n      \
             \"runs\": [\n{}\n      ]\n    }}",
            rows.join(",\n"),
        ));
    }

    // Worldgen scaling: the fat-tree fabric and heavy-tailed traffic
    // population at 1/2/4 regions. Same unconditional hash-identity gate
    // as region_scaling — the scenario library's determinism contract
    // (DESIGN.md §12) must survive partitioning at every scale.
    let mut worldgen_blobs: Vec<String> = Vec::new();
    for (name, desc, job) in worldgen_suite() {
        let runs: Vec<RegionRun> = REGION_COUNTS
            .iter()
            .map(|&r| RegionRun {
                regions: r,
                ..run_worldgen_cell(|| job(r))
            })
            .collect();
        let serial = &runs[0];
        for run in &runs[1..] {
            if run.trace_hash != serial.trace_hash {
                gate_failures.push(format!(
                    "{name}: {}-region trace hash {:016x} != serial {:016x}",
                    run.regions, run.trace_hash, serial.trace_hash
                ));
            }
        }
        let rows: Vec<String> = runs
            .iter()
            .map(|r| region_json(r, r.events_per_sec() / serial.events_per_sec()))
            .collect();
        worldgen_blobs.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"scenario\": \"{desc}\",\n      \
             \"runs\": [\n{}\n      ]\n    }}",
            rows.join(",\n"),
        ));
    }

    // Run store: the pinned suite through a fresh content-addressed store,
    // twice. The cold pass simulates and persists; the warm pass must be
    // answered entirely from disk with bit-identical results.
    let store_dir =
        std::env::temp_dir().join(format!("overlap-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_blob = match RunStore::open(&store_dir) {
        Err(e) => {
            gate_failures.push(format!(
                "run_store: cannot open {}: {e}",
                store_dir.display()
            ));
            "  \"run_store\": null,".to_string()
        }
        Ok(store) => {
            let pinned = suite();
            let t = Instant::now();
            let cold: Vec<RunResult> = pinned
                .iter()
                .map(|(_, _, s)| run_via_store(s, Some(&store), None))
                .collect();
            let cold_s = t.elapsed().as_secs_f64();
            let after_cold = store.stats();
            let t = Instant::now();
            let warm: Vec<RunResult> = pinned
                .iter()
                .map(|(_, _, s)| run_via_store(s, Some(&store), None))
                .collect();
            let warm_s = t.elapsed().as_secs_f64();
            let stats = store.stats();
            let warm_hits = stats.hits - after_cold.hits;
            let warm_misses = stats.misses - after_cold.misses;
            if warm_misses != 0 {
                gate_failures.push(format!(
                    "run_store: warm pass simulated {warm_misses} of {} scenarios",
                    pinned.len()
                ));
            }
            for ((name, _, _), (c, w)) in pinned.iter().zip(cold.iter().zip(&warm)) {
                if c.trace_hash != w.trace_hash {
                    gate_failures.push(format!(
                        "run_store: {name} warm trace hash {:016x} != cold {:016x}",
                        w.trace_hash, c.trace_hash
                    ));
                }
            }
            format!(
                "  \"run_store\": {{ \"entries\": {}, \"cold_elapsed_s\": {cold_s:.3}, \
                 \"warm_elapsed_s\": {warm_s:.3}, \"warm_hits\": {warm_hits}, \
                 \"warm_simulations\": {warm_misses}, \"hits\": {}, \"misses\": {}, \
                 \"bytes_written\": {}, \"bytes_read\": {} }},",
                store.len(),
                stats.hits,
                stats.misses,
                stats.bytes_written,
                stats.bytes_read,
            )
        }
    };
    let _ = std::fs::remove_dir_all(&store_dir);

    // Checkpoint branching: the failover scenario's fault-free prefix runs
    // once to just before the failure, then four outage-duration variants
    // branch from the snapshot. Every branch must replay its cold run
    // bit-for-bit; the speedup is what the shared 4 s prefix buys.
    let branch_blob = {
        let cfg = FailoverConfig::default();
        let setup = FailoverSetup::paper();
        let t_ups: Vec<SimTime> = [6, 8, 10, 12].map(SimTime::from_secs).to_vec();
        let t = Instant::now();
        let cold: Vec<RunResult> = t_ups
            .iter()
            .map(|&t_up| {
                failover_scenario(
                    &setup,
                    CcAlgo::Lia,
                    1,
                    &FailoverConfig {
                        t_up,
                        ..cfg.clone()
                    },
                )
                .run()
            })
            .collect();
        let cold_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sweep = run_outage_sweep(&setup, CcAlgo::Lia, 1, &cfg, &t_ups);
        let branch_s = t.elapsed().as_secs_f64();
        let mut rows = Vec::new();
        for (cell, cold) in sweep.cells.iter().zip(&cold) {
            if cell.trace_hash != cold.trace_hash {
                gate_failures.push(format!(
                    "checkpoint_branching: t_up={} s branch hash {:016x} != cold {:016x}",
                    cell.t_up.as_secs_f64(),
                    cell.trace_hash,
                    cold.trace_hash
                ));
            }
            rows.push(format!(
                "      {{ \"t_up_s\": {}, \"branch_trace_hash\": \"{:016x}\", \
                 \"cold_trace_hash\": \"{:016x}\", \"match\": {} }}",
                cell.t_up.as_secs_f64(),
                cell.trace_hash,
                cold.trace_hash,
                cell.trace_hash == cold.trace_hash,
            ));
        }
        format!(
            "  \"checkpoint_branching\": {{\n    \"scenario\": \"paper topology, LIA, \
             outage of the default path from 4 s, seed 1\",\n    \
             \"checkpoint_at_s\": {:.9},\n    \"variants\": [\n{}\n    ],\n    \
             \"cold_elapsed_s\": {cold_s:.3},\n    \"branch_elapsed_s\": {branch_s:.3},\n    \
             \"speedup\": {:.3}\n  }},",
            sweep.checkpoint_at.as_secs_f64(),
            rows.join(",\n"),
            cold_s / branch_s,
        )
    };

    let rss = peak_rss_bytes()
        .map(|b| b.to_string())
        .unwrap_or_else(|| "null".to_string());
    let ref_heap = cfg!(feature = "ref-heap");

    println!("{{");
    println!("  \"schema_version\": 4,");
    println!("  \"bench\": \"sim\",");
    println!(
        "  \"note\": \"timings are machine-dependent; regenerated by CI, not byte-compared\","
    );
    println!("  \"ref_heap_compared\": {ref_heap},");
    println!("  \"cores\": {cores},");
    println!("  \"throughput_gate_active\": {},", cores >= 2);
    println!("  \"scenarios\": [");
    println!("{}", scenario_blobs.join(",\n"));
    println!("  ],");
    println!("  \"region_scaling\": [");
    println!("{}", region_blobs.join(",\n"));
    println!("  ],");
    println!("  \"worldgen_scaling\": [");
    println!("{}", worldgen_blobs.join(",\n"));
    println!("  ],");
    println!("{store_blob}");
    println!("{branch_blob}");
    println!("  \"peak_rss_bytes\": {rss}");
    println!("}}");

    if gate && !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("bench_sim gate: {f}");
        }
        std::process::exit(1);
    }
    // Without --gate the comparisons are informational only.
    let _ = gate_failures;
}
