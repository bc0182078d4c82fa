//! Fault injection end-to-end: determinism, conservation, and LP pins.
//!
//! The fault layer (`netsim::faults`) mutates the network mid-run — the
//! most fragile spot for determinism (aborted transmissions, requeued
//! packets, revived subflows). These tests pin three properties at the
//! scenario level:
//!
//! 1. a faulted run is a pure function of (scenario, seed): identical
//!    trace hashes between a serial and a 4-worker batch execution;
//! 2. packet conservation holds across a down→up cycle — the fault makes
//!    the run lossy (the dead link drops its queue and in-flight packet)
//!    but every byte is still accounted delivered-or-dropped, asserted by
//!    the simulator at the end of every run;
//! 3. the LP optimum recomputed on each surviving constraint set matches
//!    the hand-derived values for the paper's Figure-1 network.

use mptcp_overlap::overlap_core::failover::{
    exclusive_link, run_failover, FailoverConfig, FailoverSetup,
};
use mptcp_overlap::overlap_core::runner::run_scenarios;
use mptcp_overlap::overlap_core::{PaperNetwork, PaperNetworkConfig, RunnerConfig, Scenario};
use mptcp_overlap::prelude::*;
use netsim::FaultSchedule;

/// A short faulted Figure-1 scenario: the default path's private link
/// dies at 1 s and returns at 2 s.
fn faulted_scenario(algo: CcAlgo, seed: u64) -> Scenario {
    let net = PaperNetwork::new();
    let dead = exclusive_link(&net.paths, net.default_path);
    Scenario {
        default_path: net.default_path,
        faults: FaultSchedule::new().outage(dead, SimTime::from_secs(1), SimTime::from_secs(2)),
        ..Scenario::new(net.topology, net.paths)
    }
    .with_algo(algo)
    .with_seed(seed)
    .with_timing(SimDuration::from_secs(3), SimDuration::from_millis(100))
}

#[test]
fn faulted_runs_are_trace_identical_across_worker_counts() {
    let scenarios: Vec<Scenario> = [CcAlgo::Cubic, CcAlgo::Lia, CcAlgo::Olia]
        .into_iter()
        .map(|algo| faulted_scenario(algo, 7))
        .collect();
    let serial = run_scenarios(&scenarios, &RunnerConfig::serial());
    let parallel = run_scenarios(
        &scenarios,
        &RunnerConfig {
            workers: 4,
            progress: false,
        },
    );
    for ((a, b), sc) in serial.iter().zip(&parallel).zip(&scenarios) {
        assert_eq!(
            a.trace_hash, b.trace_hash,
            "{:?}: faulted run must not depend on worker count",
            sc.algo
        );
    }
}

#[test]
fn outage_cycle_conserves_packets_and_still_delivers() {
    // The simulator asserts sent == delivered + dropped + in-flight at run
    // end; this test exercises that accounting across the abort-transmission
    // and queue-drop paths of a down→up cycle.
    let a = faulted_scenario(CcAlgo::Lia, 3).run();
    let b = faulted_scenario(CcAlgo::Lia, 3).run();
    assert_eq!(a.trace_hash, b.trace_hash, "faulted run must be replayable");
    assert!(
        a.drops > 0,
        "killing the default path must drop its queued/in-flight packets"
    );
    assert!(
        a.data_delivered > 0,
        "the surviving paths must keep delivering data"
    );
    // The faulted run cannot out-deliver the same scenario without faults.
    let clean = Scenario {
        faults: FaultSchedule::new(),
        ..faulted_scenario(CcAlgo::Lia, 3)
    }
    .run();
    assert!(
        a.data_delivered < clean.data_delivered,
        "a 1 s outage of the default path must cost goodput ({} vs {})",
        a.data_delivered,
        clean.data_delivered
    );
}

#[test]
fn surviving_constraint_sets_match_hand_derived_lp_optima() {
    // Figure-1, Consistent variant: killing one path's private link
    // leaves a two-path LP whose optimum is derivable by hand.
    //   P1 dead: x2 <= 40 (s-v1), x2 + x3 <= 80 (v3-d)          -> 80
    //   P2 dead: x1 <= 40 (s-v1), x1 + x3 <= 60 (v4-v2)         -> 60
    //   P3 dead: x1 + x2 <= 40 (s-v1), x2 + x3' n/a, x1 <= 60   -> 40
    for (dead_path, expect) in [(0usize, 80.0), (1, 60.0), (2, 40.0)] {
        let net = PaperNetwork::build(&PaperNetworkConfig {
            default_path: dead_path,
            ..Default::default()
        });
        let cache = lpsolve::LpCache::new();
        let setup = FailoverSetup::from_network(net, &cache);
        assert!(
            (setup.post_lp_mbps - expect).abs() < 1e-9,
            "path P{} dead: LP {} != {expect}",
            dead_path + 1,
            setup.post_lp_mbps
        );
        assert!((setup.full_lp_mbps - 90.0).abs() < 1e-9);
        assert_eq!(setup.surviving.len(), 2);
        assert!(!setup.surviving.contains(&dead_path));
    }
}

#[test]
fn failover_batch_is_deterministic_and_recovers() {
    // One compact failover batch through the public experiment API: the
    // cells must be worker-count independent and CUBIC must reach the
    // recomputed optimum's 90% band before the restore.
    let cfg = FailoverConfig {
        algos: vec![CcAlgo::Cubic],
        seeds: 11..12,
        ..FailoverConfig::default()
    };
    let serial = run_failover(&cfg, &RunnerConfig::serial());
    let parallel = run_failover(
        &cfg,
        &RunnerConfig {
            workers: 4,
            progress: false,
        },
    );
    assert_eq!(serial.cells[0].trace_hash, parallel.cells[0].trace_hash);
    assert_eq!(serial.cells[0].recovery_s, parallel.cells[0].recovery_s);
    assert!(
        serial.cells[0].post_fault_mbps >= 0.9 * serial.setup.post_lp_mbps,
        "post-fault {:.2} Mbps vs LP {:.2}",
        serial.cells[0].post_fault_mbps,
        serial.setup.post_lp_mbps
    );
}

#[test]
fn fault_schedule_survives_scenario_reuse() {
    // The schedule rides inside the scenario value: cloning the scenario
    // must clone the faults, and both copies must replay identically.
    let sc = faulted_scenario(CcAlgo::Olia, 9);
    let copy = sc.clone();
    assert_eq!(sc.faults.len(), copy.faults.len());
    assert_eq!(sc.run().trace_hash, copy.run().trace_hash);
}

#[test]
fn restored_path_carries_traffic_again() {
    // After the restore the default path must come back to life: its
    // post-restore rate is nonzero even though the fault killed it. Use a
    // longer tail so RTO-backed probes have time to revive the subflow.
    let net = PaperNetwork::new();
    let dead = exclusive_link(&net.paths, net.default_path);
    let default_path = net.default_path;
    let r = Scenario {
        default_path,
        faults: FaultSchedule::new().outage(dead, SimTime::from_secs(1), SimTime::from_secs(2)),
        ..Scenario::new(net.topology, net.paths)
    }
    .with_algo(CcAlgo::Lia)
    .with_seed(4)
    .with_timing(SimDuration::from_secs(6), SimDuration::from_millis(100))
    .run();
    let down_rate = r.per_path[default_path]
        .mean_over(SimTime::from_millis(1_200), SimTime::from_millis(2_000));
    let revived_rate =
        r.per_path[default_path].mean_over(SimTime::from_secs(3), SimTime::from_secs(6));
    assert!(
        down_rate < 1.0,
        "dead path must carry (almost) nothing during the outage, got {down_rate:.2} Mbps"
    );
    assert!(
        revived_rate > 1.0,
        "restored path must carry traffic again, got {revived_rate:.2} Mbps"
    );
}
