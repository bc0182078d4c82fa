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
use lpsolve::MaxThroughput;
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

/// How busy, as a share of its capacity, every bottleneck the LP optimum
/// saturates must be over a run's second half for the run to count as at
/// x*. Every greedy corner of the paper network leaves one of them at least
/// 20 Mbps idle (at most 75 % busy), so no corner passes.
pub const AT_OPTIMUM_UTILISATION: f64 = 0.95;

/// The utilisation under `rates` of each bottleneck `lp`'s optimum
/// saturates, in `lp.tight_links` order.
pub fn tight_utilisation(lp: &MaxThroughput, rates: &[f64]) -> Vec<f64> {
    lp.utilisation(rates)
        .into_iter()
        .filter(|(link, _)| lp.tight_links.contains(link))
        .map(|(_, u)| u)
        .collect()
}

/// One row of the Results-section table (E5). Every statistic reads each
/// run's steady window, its second half.
#[derive(Debug, Clone)]
pub struct ResultsRow {
    /// Congestion control algorithm.
    pub algo: CcAlgo,
    /// Which path was the default (0-based).
    pub default_path: usize,
    /// Mean rate per path, Mbps.
    pub mean_per_path_mbps: Vec<f64>,
    /// Mean total throughput, Mbps.
    pub mean_total_mbps: f64,
    /// Mean efficiency (total / LP optimum).
    pub mean_efficiency: f64,
    /// Mean utilisation of each bottleneck the LP optimum saturates, in
    /// `tight_links` order.
    pub mean_utilisation: Vec<f64>,
    /// Share of seeds with every such bottleneck at least
    /// [`AT_OPTIMUM_UTILISATION`] busy.
    pub at_optimum_fraction: f64,
    /// Share of seeds whose per-path means are nearer x* than the default
    /// path's greedy corner, by L1 distance.
    pub nearer_optimum_fraction: f64,
    /// Mean coefficient of variation of the total (instability).
    pub mean_cov: f64,
    /// Seeds evaluated.
    pub seeds: usize,
}

/// E5: evaluate every (algorithm × default path) cell over `seeds` seeds
/// with the given duration. The paper's qualitative claims map to:
/// CUBIC rows ≈ at x* everywhere; LIA rows ≈ never; OLIA ≈ only with
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
    let net = PaperNetwork::new();
    let n = spec.seeds.len();
    let mut rows = Vec::with_capacity(algos.len() * spec.default_paths.len());
    for (ai, &algo) in algos.iter().enumerate() {
        for (pi, &default_path) in spec.default_paths.iter().enumerate() {
            let base = (ai * spec.default_paths.len() + pi) * n;
            rows.push(summarize_row(
                algo,
                default_path,
                &outcome.results[base..base + n],
                &net.greedy_corner(default_path),
            ));
        }
    }
    rows
}

/// Fold one (algo, default path) cell's per-seed results into a row;
/// `corner` is the default path's greedy corner. An empty seed range
/// yields a well-defined all-zero row (`seeds: 0`) rather than
/// NaN-poisoned means from a 0/0 division.
fn summarize_row(
    algo: CcAlgo,
    default_path: usize,
    runs: &[RunResult],
    corner: &[f64],
) -> ResultsRow {
    let n = runs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&RunResult) -> f64| runs.iter().map(f).sum::<f64>() / n;
    let share = |f: &dyn Fn(&RunResult) -> bool| runs.iter().filter(|r| f(r)).count() as f64 / n;
    let mean_each = |f: &dyn Fn(&RunResult) -> Vec<f64>| {
        let mut sums: Vec<f64> = Vec::new();
        for values in runs.iter().map(f) {
            sums.resize(sums.len().max(values.len()), 0.0);
            sums.iter_mut().zip(values).for_each(|(s, v)| *s += v);
        }
        sums.into_iter().map(|s| s / n).collect()
    };
    let l1 = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>();
    let tight = |r: &RunResult| tight_utilisation(&r.lp, &r.per_path_steady_mbps);
    ResultsRow {
        algo,
        default_path,
        mean_per_path_mbps: mean_each(&|r| r.per_path_steady_mbps.clone()),
        mean_total_mbps: mean(&|r| r.steady_total_mbps()),
        mean_efficiency: mean(&|r| r.efficiency()),
        mean_utilisation: mean_each(&tight),
        at_optimum_fraction: share(&|r| tight(r).iter().all(|&u| u >= AT_OPTIMUM_UTILISATION)),
        nearer_optimum_fraction: share(&|r| {
            let x = &r.per_path_steady_mbps;
            l1(x, &r.lp.per_path_mbps) < l1(x, corner)
        }),
        mean_cov: mean(&|r| r.steady_cov()),
        seeds: runs.len(),
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
            assert_eq!(r.at_optimum_fraction, 0.0);
            assert_eq!(r.nearer_optimum_fraction, 0.0);
            assert_eq!(r.mean_total_mbps, 0.0);
            assert_eq!(r.mean_efficiency, 0.0);
            assert!(r.mean_per_path_mbps.is_empty() && r.mean_utilisation.is_empty());
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
    fn a_row_counts_seeds_at_and_nearer_the_optimum() {
        // Synthetic check on the aggregation itself: one run at x*, one at
        // the Path 2 greedy corner, one between them but nearer x*.
        let template = fig2c(FIG2_SEED); // any real result to clone shape from
        let with_rates = |rates: [f64; 3]| -> RunResult {
            let mut r = template.clone();
            r.per_path_steady_mbps = rates.to_vec();
            r
        };
        let corner = PaperNetwork::new().greedy_corner(1);
        let runs = [
            with_rates([10.0, 30.0, 50.0]),
            with_rates([0.0, 40.0, 40.0]),
            with_rates([7.0, 33.0, 47.0]),
        ];
        let row = super::summarize_row(CcAlgo::Cubic, 1, &runs, &corner);
        assert_eq!(row.seeds, 3);
        assert!((row.at_optimum_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!((row.nearer_optimum_fraction - 2.0 / 3.0).abs() < 1e-12);
        let want = [17.0 / 3.0, 103.0 / 3.0, 137.0 / 3.0];
        for (got, want) in row.mean_per_path_mbps.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{:?}", row.mean_per_path_mbps);
        }
        // s-v1 is full in all three runs; v4-v2 carries 60, 40 and 54 of 60.
        assert!((row.mean_utilisation[0] - 1.0).abs() < 1e-12);
        assert!((row.mean_utilisation[1] - 154.0 / 180.0).abs() < 1e-12);
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
