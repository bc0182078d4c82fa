//! The experiment catalog: one entry per paper figure/claim.
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | E1 | Fig. 1c — constraint polytope & LP optimum | [`PaperNetwork::lp_optimum`] (via `paper`) |
//! | E2 | Fig. 2a — per-flow rate, CUBIC, 100 ms bins, 4 s | [`fig2a`] |
//! | E3 | Fig. 2b — per-flow rate, OLIA, 100 ms bins, 4 s | [`fig2b`], [`fig2b_long`] |
//! | E4 | Fig. 2c — sawtooth detail, 10 ms bins, 0.5 s | [`fig2c`] |
//! | E5 | Results §3 — which algorithms find the optimum | [`results_table_with`] |

use crate::paper::{PaperNetwork, PaperNetworkConfig};
use crate::runner::{run_sweep_with_store, RunnerConfig, SweepSpec};
use crate::scenario::{RunResult, Scenario};
use crate::store::RunStore;
use mptcpsim::CcAlgo;
use simbase::SimDuration;

/// The seed used by the headline figure reproductions (any seed works; the
/// figures in EXPERIMENTS.md were generated with this one).
pub const FIG2_SEED: u64 = 42;

fn paper_scenario(default_path: usize, algo: CcAlgo, seed: u64) -> Scenario {
    let net = PaperNetwork::build(&PaperNetworkConfig {
        default_path,
        ..Default::default()
    });
    Scenario {
        default_path: net.default_path,
        ..Scenario::new(net.topology, net.paths)
    }
    .with_algo(algo)
    .with_seed(seed)
}

/// Figure 2a: MPTCP with uncoupled CUBIC, Path 2 default, 4 s at 100 ms.
pub fn fig2a(seed: u64) -> RunResult {
    paper_scenario(1, CcAlgo::Cubic, seed).run()
}

/// Figure 2b: MPTCP with OLIA, Path 2 default, 4 s at 100 ms. The paper
/// shows OLIA *not yet* at the optimum in this window.
pub fn fig2b(seed: u64) -> RunResult {
    paper_scenario(1, CcAlgo::Olia, seed).run()
}

/// The paper's note that OLIA eventually converged after ~20 s: the same
/// configuration run for 25 s.
pub fn fig2b_long(seed: u64) -> RunResult {
    paper_scenario(1, CcAlgo::Olia, seed)
        .with_timing(SimDuration::from_secs(25), SimDuration::from_millis(100))
        .run()
}

/// Figure 2c: the CUBIC run sampled at 10 ms over the first 0.5 s — the
/// sawtooth / slow-start detail.
pub fn fig2c(seed: u64) -> RunResult {
    paper_scenario(1, CcAlgo::Cubic, seed)
        .with_timing(SimDuration::from_millis(500), SimDuration::from_millis(10))
        .run()
}

/// One row of the Results-section table (E5).
#[derive(Debug, Clone)]
pub struct ResultsRow {
    /// Congestion control algorithm.
    pub algo: CcAlgo,
    /// Which path was the default (0-based).
    pub default_path: usize,
    /// Fraction of seeds that reached and held the optimum band.
    pub converged_fraction: f64,
    /// Mean steady-state total throughput, Mbps.
    pub mean_total_mbps: f64,
    /// Mean efficiency (total / LP optimum).
    pub mean_efficiency: f64,
    /// Mean convergence time in seconds **over converged runs only** —
    /// runs that never reached the optimum band are excluded from this
    /// mean, not counted as the full duration ([`Self::converged_fraction`]
    /// says how many runs contribute). `None` when no run converged.
    pub mean_convergence_s: Option<f64>,
    /// Mean post-convergence coefficient of variation (instability).
    pub mean_cov: f64,
    /// Seeds evaluated.
    pub seeds: usize,
}

/// E5: evaluate every (algorithm × default path) cell over `seeds` seeds
/// with the given duration. The paper's qualitative claims map to:
/// CUBIC rows ≈ converged everywhere; LIA rows ≈ never; OLIA ≈ only with
/// Path 2 default (and slowly).
///
/// The sweep is the cartesian product algo × default path (0..3) × seed
/// over the paper network, executed by [`crate::runner::run_sweep`];
/// per-cell results are aggregated per (algo, default path) row in spec
/// order, so rows — and every per-run `trace_hash` behind them — are
/// byte-identical whether `cfg` says 1 worker or N.
pub fn results_table_with(
    algos: &[CcAlgo],
    seeds: std::ops::Range<u64>,
    duration: SimDuration,
    cfg: &RunnerConfig,
) -> Vec<ResultsRow> {
    results_table_with_store(algos, seeds, duration, cfg, RunStore::from_env().as_ref())
}

/// [`results_table_with`] against an explicit [`RunStore`] (None = always
/// simulate). With a warm store the whole table is answered from disk —
/// zero simulations — and the rows are byte-identical to a cold run; the
/// caller holds the store handle and can report [`RunStore::stats`].
pub fn results_table_with_store(
    algos: &[CcAlgo],
    seeds: std::ops::Range<u64>,
    duration: SimDuration,
    cfg: &RunnerConfig,
    store: Option<&RunStore>,
) -> Vec<ResultsRow> {
    let spec = SweepSpec::paper(algos, seeds, duration);
    let outcome = run_sweep_with_store(&spec, cfg, store);
    let n = spec.seeds.len();
    let mut rows = Vec::with_capacity(algos.len() * spec.default_paths.len());
    for (ai, &algo) in algos.iter().enumerate() {
        for (pi, &default_path) in spec.default_paths.iter().enumerate() {
            let base = (ai * spec.default_paths.len() + pi) * n;
            rows.push(summarize_row(
                algo,
                default_path,
                &outcome.results[base..base + n],
            ));
        }
    }
    rows
}

/// Fold one (algo, default path) cell's per-seed results into a row.
/// An empty seed range yields a well-defined all-zero row (`seeds: 0`)
/// rather than NaN-poisoned means from a 0/0 division.
fn summarize_row(algo: CcAlgo, default_path: usize, runs: &[RunResult]) -> ResultsRow {
    let n = runs.len();
    if n == 0 {
        return ResultsRow {
            algo,
            default_path,
            converged_fraction: 0.0,
            mean_total_mbps: 0.0,
            mean_efficiency: 0.0,
            mean_convergence_s: None,
            mean_cov: 0.0,
            seeds: 0,
        };
    }
    let mut converged = 0usize;
    let mut total = 0.0;
    let mut eff = 0.0;
    let mut conv_times = Vec::new();
    let mut cov = 0.0;
    for result in runs {
        total += result.steady_total_mbps();
        eff += result.efficiency();
        cov += result.convergence.steady_cov;
        if let Some(t) = result.convergence.converged_at {
            converged += 1;
            conv_times.push(t.as_secs_f64());
        }
    }
    ResultsRow {
        algo,
        default_path,
        converged_fraction: converged as f64 / n as f64,
        mean_total_mbps: total / n as f64,
        mean_efficiency: eff / n as f64,
        // Converged runs only (see the field docs): an unconverged run has
        // no convergence time, so it cannot contribute to this mean.
        mean_convergence_s: if conv_times.is_empty() {
            None
        } else {
            Some(conv_times.iter().sum::<f64>() / conv_times.len() as f64)
        },
        mean_cov: cov / n as f64,
        seeds: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_shape_path2_rises_first_then_rebalances() {
        let r = fig2a(FIG2_SEED);
        // Early window (first 300 ms): Path 2 dominates (default path fills
        // to its 40 Mbps bottleneck first).
        let early_end = simbase::SimTime::from_millis(300);
        let p2_early = r.per_path[1].mean_over(simbase::SimTime::ZERO, early_end);
        let p1_early = r.per_path[0].mean_over(simbase::SimTime::ZERO, early_end);
        assert!(
            p2_early > p1_early,
            "default Path 2 must lead early: P2 {p2_early:.1} vs P1 {p1_early:.1}"
        );
        // Late: the total approaches the optimum, which requires Path 3 to
        // carry the most traffic (its optimum share is 50 of 90).
        assert!(r.efficiency() > 0.85, "efficiency {:.2}", r.efficiency());
        let steady = &r.per_path_steady_mbps;
        assert!(
            steady[2] > steady[0] && steady[2] > steady[1],
            "Path 3 must dominate at the optimum: {steady:?}"
        );
    }

    #[test]
    fn fig2c_has_fine_grained_bins() {
        let r = fig2c(FIG2_SEED);
        assert_eq!(r.total.len(), 50); // 0.5 s at 10 ms
        assert_eq!(r.total.bin(), SimDuration::from_millis(10));
        // Within 0.5 s the default path has saturated: peak total well
        // above Path 2's 40 Mbps cap alone.
        assert!(r.total.max() > 40.0, "max {:.1}", r.total.max());
    }

    #[test]
    fn empty_seed_range_yields_zero_rows_not_nan() {
        let rows = results_table_with(
            &[CcAlgo::Cubic, CcAlgo::Lia],
            0..0,
            SimDuration::from_secs(1),
            &RunnerConfig::serial(),
        );
        assert_eq!(rows.len(), 6, "one row per (algo, default path) cell");
        for r in &rows {
            assert_eq!(r.seeds, 0);
            assert_eq!(r.converged_fraction, 0.0);
            assert_eq!(r.mean_total_mbps, 0.0);
            assert_eq!(r.mean_efficiency, 0.0);
            assert_eq!(r.mean_convergence_s, None);
            assert!(r.mean_cov == 0.0 && !r.mean_cov.is_nan());
        }
        // The rendered table must also be NaN-free.
        let rendered = crate::report::render_table(&rows);
        assert!(!rendered.contains("NaN"), "{rendered}");
    }

    #[test]
    fn results_table_is_worker_count_invariant() {
        let args = (&[CcAlgo::Cubic][..], 0..2u64, SimDuration::from_millis(500));
        let serial = results_table_with(args.0, args.1.clone(), args.2, &RunnerConfig::serial());
        let parallel = results_table_with(
            args.0,
            args.1,
            args.2,
            &RunnerConfig {
                workers: 3,
                progress: false,
            },
        );
        // Byte-identical rendering, not just close floats: aggregation
        // must consume results in spec order on any worker count.
        assert_eq!(
            crate::report::render_table(&serial),
            crate::report::render_table(&parallel)
        );
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.mean_total_mbps.to_bits(), b.mean_total_mbps.to_bits());
            assert_eq!(a.mean_efficiency.to_bits(), b.mean_efficiency.to_bits());
        }
    }

    #[test]
    fn mean_convergence_averages_converged_runs_only() {
        use crate::scenario::RunResult;
        // Synthetic check on the aggregation itself: two converged runs
        // (1 s, 3 s) and one unconverged run must average to 2 s, not
        // (1 + 3 + duration)/3 or (1 + 3 + 0)/3.
        let template = fig2c(FIG2_SEED); // any real result to clone shape from
        let with_conv = |at: Option<f64>| -> RunResult {
            let mut r = template.clone();
            r.convergence.converged_at = at.map(simbase::SimTime::from_secs_f64);
            r
        };
        let runs = vec![with_conv(Some(1.0)), with_conv(None), with_conv(Some(3.0))];
        let row = super::summarize_row(CcAlgo::Cubic, 0, &runs);
        assert_eq!(row.seeds, 3);
        assert!((row.converged_fraction - 2.0 / 3.0).abs() < 1e-12);
        let mean = row.mean_convergence_s.expect("two runs converged");
        assert!((mean - 2.0).abs() < 1e-9, "converged-only mean, got {mean}");
    }

    #[test]
    fn olia_trails_cubic_in_the_4s_window() {
        let cubic = fig2a(FIG2_SEED);
        let olia = fig2b(FIG2_SEED);
        assert!(
            olia.steady_total_mbps() <= cubic.steady_total_mbps() + 2.0,
            "OLIA {:.1} should not beat CUBIC {:.1} at 4 s",
            olia.steady_total_mbps(),
            cubic.steady_total_mbps()
        );
    }
}
