//! Parallel sweep runner correctness: parallel execution must be an
//! implementation detail — invisible in every observable output.
//!
//! The bar: for any `SweepSpec`, running with N workers produces results
//! byte-identical to the serial runner, cell for cell, trace hash for
//! trace hash, and the rendered results table is byte-identical too. The
//! LP ground-truth cache must be a pure memoization (identical answers,
//! and hit/miss counts that add up to the number of cells).

use mptcp_overlap::overlap_core::determinism::compare_runs;
use mptcp_overlap::overlap_core::{
    parallel_matches_serial, results_table_with, run_sweep, RunnerConfig, SweepSpec,
};
use mptcp_overlap::prelude::*;

/// A sweep long enough to reach loss episodes on the shared bottlenecks
/// (where worker interleavings would be most likely to leak into results
/// if anything were shared between cells).
fn ci_spec(algos: &[CcAlgo]) -> SweepSpec {
    SweepSpec {
        default_paths: vec![0, 1],
        ..SweepSpec::paper(algos, 1..3, SimDuration::from_millis(600))
    }
}

#[test]
fn parallel_matches_serial_for_every_algo() {
    // CUBIC, LIA and OLIA each exercise a different coupled-cwnd update;
    // the harness asserts per-cell trace-hash identity between 1 worker
    // and a multi-worker pool.
    for algo in [CcAlgo::Cubic, CcAlgo::Lia, CcAlgo::Olia] {
        let spec = ci_spec(&[algo]);
        let outcome = parallel_matches_serial(&spec, 4);
        assert_eq!(outcome.results.len(), spec.len());
        assert!(outcome.results.iter().all(|r| r.data_delivered > 0));
    }
}

#[test]
fn worker_count_never_changes_a_trace_hash() {
    let spec = ci_spec(&[CcAlgo::Cubic, CcAlgo::Olia]);
    let serial = run_sweep(&spec, &RunnerConfig::serial());
    let pooled = run_sweep(
        &spec,
        &RunnerConfig {
            workers: 3,
            progress: false,
        },
    );
    assert_eq!(serial.workers, 1);
    assert_eq!(pooled.workers, 3.min(spec.len()));
    for (i, (a, b)) in serial.results.iter().zip(&pooled.results).enumerate() {
        let report = compare_runs(a, b);
        assert!(
            report.is_deterministic(),
            "cell {i} diverged between worker counts: {report}"
        );
        assert_eq!(a.trace_hash, b.trace_hash, "cell {i}");
    }
}

#[test]
fn lp_cache_accounting_adds_up() {
    // Every cell needs exactly one LP ground truth; the paper network's
    // constraint set is identical across default paths and seeds, so the
    // whole sweep costs one solve and the rest are hits.
    let spec = ci_spec(&[CcAlgo::Cubic]);
    let outcome = run_sweep(&spec, &RunnerConfig::serial());
    assert_eq!(outcome.lp_stats.total(), spec.len() as u64);
    assert_eq!(outcome.lp_stats.misses, 1, "{:?}", outcome.lp_stats);
    assert_eq!(outcome.lp_stats.hits, spec.len() as u64 - 1);
}

#[test]
fn results_table_is_byte_identical_across_worker_counts() {
    let algos = [CcAlgo::Cubic, CcAlgo::Lia];
    let dur = SimDuration::from_millis(600);
    let serial = results_table_with(&algos, 1..3, dur, &RunnerConfig::serial());
    let pooled = results_table_with(
        &algos,
        1..3,
        dur,
        &RunnerConfig {
            workers: 4,
            progress: false,
        },
    );
    assert_eq!(render_table(&serial), render_table(&pooled));
    for (a, b) in serial.iter().zip(&pooled) {
        assert_eq!(a.mean_total_mbps.to_bits(), b.mean_total_mbps.to_bits());
        assert_eq!(a.mean_efficiency.to_bits(), b.mean_efficiency.to_bits());
        assert_eq!(
            a.at_optimum_fraction.to_bits(),
            b.at_optimum_fraction.to_bits()
        );
        assert_eq!(
            a.nearer_optimum_fraction.to_bits(),
            b.nearer_optimum_fraction.to_bits()
        );
    }
}
