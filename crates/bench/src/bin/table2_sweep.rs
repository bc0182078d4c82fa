//! E6 — beyond-the-paper sweeps (ablations).
//!
//! * schedulers (minRTT / round-robin / redundant) on the paper network;
//! * SACK on/off;
//! * random generalized overlapping topologies (every pair of paths shares
//!   a bottleneck) across algorithms.
//!
//! Run: `cargo run -p bench --bin table2_sweep --release`
//!
//! Every multi-run section executes on the parallel sweep runner
//! (`overlap_core::runner`); worker count follows `OVERLAP_WORKERS`
//! (default: all cores) and never changes the printed numbers.

use mptcpsim::CcAlgo;
use overlap_core::prelude::*;
use overlap_core::CrossTraffic;

fn paper_scenario() -> Scenario {
    let net = PaperNetwork::new();
    Scenario {
        default_path: net.default_path,
        ..Scenario::new(net.topology, net.paths)
    }
    .with_timing(SimDuration::from_secs(15), SimDuration::from_millis(100))
}

fn main() {
    let cfg = RunnerConfig::from_env();

    println!("--- scheduler ablation (CUBIC, paper network, 15 s) ---");
    let scheds = [
        SchedulerKind::MinRtt,
        SchedulerKind::RoundRobin,
        SchedulerKind::Redundant,
    ];
    let scenarios: Vec<Scenario> = scheds
        .iter()
        .map(|&scheduler| Scenario {
            scheduler,
            ..paper_scenario()
        })
        .collect();
    for (sched, r) in scheds.iter().zip(run_scenarios(&scenarios, &cfg)) {
        println!(
            "{:<11} steady {:>5.1} Mbps  eff {:>3.0}%  dup-bytes {:>9}",
            format!("{sched:?}"),
            r.steady_total_mbps(),
            r.efficiency() * 100.0,
            r.duplicate_bytes,
        );
    }

    println!("\n--- SACK ablation (paper network, 15 s) ---");
    let cases: Vec<(CcAlgo, bool)> = [CcAlgo::Cubic, CcAlgo::Lia]
        .iter()
        .flat_map(|&algo| [(algo, true), (algo, false)])
        .collect();
    let scenarios: Vec<Scenario> = cases
        .iter()
        .map(|&(algo, sack)| Scenario {
            sack,
            ..paper_scenario().with_algo(algo)
        })
        .collect();
    for (&(algo, sack), r) in cases.iter().zip(run_scenarios(&scenarios, &cfg)) {
        println!(
            "{:<6} sack={:<5} steady {:>5.1} Mbps  eff {:>3.0}%  rtx {:>6}",
            algo.name(),
            sack,
            r.steady_total_mbps(),
            r.efficiency() * 100.0,
            r.subflow_stats.iter().map(|s| s.retransmits).sum::<u64>(),
        );
    }

    println!("\n--- AQM / ECN ablation (CUBIC, paper network, 15 s) ---");
    {
        let cases: Vec<(&str, QueueConfig, bool)> = vec![
            ("droptail-32", QueueConfig::DropTailPackets(32), false),
            ("red", QueueConfig::Red { ecn_marking: false }, false),
            ("red+ecn", QueueConfig::Red { ecn_marking: true }, true),
            ("codel", QueueConfig::CoDel, false),
        ];
        for (name, queue, ecn) in cases {
            let net = PaperNetwork::build(&overlap_core::PaperNetworkConfig {
                queue,
                ..Default::default()
            });
            let r = Scenario {
                default_path: net.default_path,
                ecn,
                ..Scenario::new(net.topology, net.paths)
            }
            .with_timing(SimDuration::from_secs(15), SimDuration::from_millis(100))
            .run();
            println!(
                "{:<12} steady {:>5.1} Mbps  eff {:>3.0}%  drops {:>5}",
                name,
                r.steady_total_mbps(),
                r.efficiency() * 100.0,
                r.drops,
            );
        }
    }

    println!("\n--- cross traffic on the 60 Mbps bottleneck (CUBIC, 15 s) ---");
    for bg_mbps in [0u64, 10, 20] {
        let net = PaperNetwork::new();
        let v4 = net.topology.node_by_name("v4").unwrap();
        let v2 = net.topology.node_by_name("v2").unwrap();
        // The cross traffic takes its rate off the v4-v2 link, which the
        // b13 constraint models: the adjusted optimum is the LP over the
        // capacity left.
        let mut residual = net.topology.clone();
        let v4_v2 = residual.link_between(v4, v2).unwrap();
        let left = residual.link(v4_v2).capacity.as_bps() - Bandwidth::from_mbps(bg_mbps).as_bps();
        residual.set_link_capacity(v4_v2, Bandwidth::from_bps(left));
        let adjusted = lpsolve::solve_max_throughput(&residual, &net.paths).total_mbps;
        let background = if bg_mbps == 0 {
            vec![]
        } else {
            vec![CrossTraffic {
                from: v4,
                to: v2,
                rate: Bandwidth::from_mbps(bg_mbps),
                packet_bytes: 1000,
            }]
        };
        let r = Scenario {
            default_path: net.default_path,
            background,
            ..Scenario::new(net.topology, net.paths)
        }
        .with_timing(SimDuration::from_secs(15), SimDuration::from_millis(100))
        .run();
        println!(
            "bg {bg_mbps:>2} Mbps: steady {:>5.1} Mbps (adjusted optimum {:.1})",
            r.steady_total_mbps(),
            adjusted,
        );
    }

    println!("\n--- wireless-style random loss on Path 2's first hop (CUBIC, 15 s) ---");
    for loss in [0.0f64, 0.001, 0.01] {
        let net = PaperNetwork::new();
        let mut topo = net.topology.clone();
        let b12 = net.paths[0].shared_links(&net.paths[1])[0];
        topo.set_link_loss(b12, loss);
        let r = Scenario {
            default_path: net.default_path,
            ..Scenario::new(topo, net.paths)
        }
        .with_timing(SimDuration::from_secs(15), SimDuration::from_millis(100))
        .run();
        println!(
            "loss {:>5.3}: steady {:>5.1} Mbps  per-path {:?}",
            loss,
            r.steady_total_mbps(),
            r.per_path_steady_mbps
                .iter()
                .map(|v| (v * 10.0).round() / 10.0)
                .collect::<Vec<_>>(),
        );
    }

    println!("\n--- random overlapping topologies (10 instances, 15 s) ---");
    println!(
        "{:<6} {:>10} {:>10} {:>8}",
        "algo", "mean eff", "min eff", "paths"
    );
    for paths in [3usize, 4] {
        let algos = [CcAlgo::Cubic, CcAlgo::Lia, CcAlgo::Olia];
        let seeds = 0..10u64;
        // Expansion order (topology -> algo -> default_path -> seed) keeps
        // the cells in the same order as the old serial loop, and each
        // seed value generates a fresh random topology instance.
        let spec = SweepSpec {
            topologies: vec![TopologySpec::RandomOverlap(RandomOverlapConfig {
                paths,
                ..Default::default()
            })],
            algos: algos.to_vec(),
            default_paths: vec![0],
            seeds: seeds.clone().collect(),
            duration: SimDuration::from_secs(15),
            sample_bin: SimDuration::from_millis(100),
        };
        let n = spec.seeds.len();
        let outcome = run_sweep(&spec, &cfg);
        for (ai, algo) in algos.iter().enumerate() {
            let effs: Vec<f64> = outcome.results[ai * n..(ai + 1) * n]
                .iter()
                .map(|r| r.efficiency())
                .collect();
            let mean = effs.iter().sum::<f64>() / effs.len() as f64;
            let min = effs.iter().copied().fold(f64::INFINITY, f64::min);
            println!(
                "{:<6} {:>9.0}% {:>9.0}% {:>8}",
                algo.name(),
                mean * 100.0,
                min * 100.0,
                paths
            );
        }
    }
}
