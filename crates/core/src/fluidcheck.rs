//! Fluid ⇄ packet ⇄ LP cross-validation.
//!
//! The repo now has three independent answers to "what rates does this
//! controller settle into on this network":
//!
//! 1. the **LP optimum** (`lpsolve`) — the best any controller could do,
//! 2. the **fluid equilibrium** (`fluidsim`) — what the controller's own
//!    window law converges to in the ODE mean-field limit,
//! 3. the **packet simulation** (`scenario`) — what the discrete
//!    implementation actually does, losses, queues, scheduler and all.
//!
//! This module lines the three up for every Table-1 cell (paper network ×
//! algorithm × default path), for the erratum `AsPrinted` constraint
//! variant, and for `RandomOverlapNet` batches driven through the parallel
//! sweep runner, and renders the comparison as the checked-in
//! `results/fluid_table.txt`. Everything here is deterministic: fixed
//! seeds, fixed-step ODE solves, spec-ordered sweeps, fixed-width
//! formatting — the document regenerates byte-identically on any machine
//! and any worker count.

use crate::paper::{ConstraintVariant, PaperNetwork, PaperNetworkConfig};
use crate::randomnet::{RandomOverlapConfig, RandomOverlapNet};
use crate::runner::{run_sweep, RunnerConfig, SweepSpec, TopologySpec};
use fluidsim::{solve, FluidLaw, FluidModel, FluidRun};
use mptcpsim::CcAlgo;
use simbase::SimDuration;
use std::fmt::Write as _;

/// The horizon of every fluid solve behind a table, virtual seconds.
/// OLIA's α term moves window between paths at O(mss/w) per RTT, so its
/// equilibria on the paper topology need several hundred virtual seconds
/// to settle.
pub const FLUID_HORIZON_S: f64 = 800.0;

/// Solve the fluid model for one paper-network configuration.
pub fn fluid_paper_run(variant: ConstraintVariant, default_path: usize, law: FluidLaw) -> FluidRun {
    let net = PaperNetwork::build(&PaperNetworkConfig {
        variant,
        default_path,
        ..Default::default()
    });
    let model = FluidModel::from_topology(&net.topology, &net.paths);
    solve(&model, law, FLUID_HORIZON_S)
}

/// One (algorithm × default path) cell of the cross-validation table.
#[derive(Debug, Clone)]
pub struct CrossRow {
    /// Packet-simulator algorithm.
    pub algo: CcAlgo,
    /// Default path (0-based).
    pub default_path: usize,
    /// Fluid prediction; `None` when no fluid law models the algorithm
    /// (wVegas is delay-based, this price model carries loss).
    pub fluid: Option<FluidRun>,
    /// Mean packet-sim steady-state total over the seeds, Mbps.
    pub packet_mean_mbps: f64,
    /// LP optimum total, Mbps.
    pub lp_total_mbps: f64,
    /// Seeds behind the packet mean.
    pub seeds: usize,
}

/// Cross-validate every Table-1 cell: the `Consistent` paper network,
/// `algos` × all three default paths, packet side averaged over `seeds`
/// seeds of `duration` each on the parallel runner, fluid side solved per
/// cell. Rows come back in sweep-spec order (algorithm outer, default
/// path inner).
pub fn paper_cross_table(
    algos: &[CcAlgo],
    seeds: std::ops::Range<u64>,
    duration: SimDuration,
    cfg: &RunnerConfig,
) -> Vec<CrossRow> {
    let spec = SweepSpec::paper(algos, seeds, duration);
    let outcome = run_sweep(&spec, cfg);
    let n = spec.seeds.len();
    let mut rows = Vec::with_capacity(algos.len() * spec.default_paths.len());
    for (ai, &algo) in algos.iter().enumerate() {
        for (pi, &default_path) in spec.default_paths.iter().enumerate() {
            let base = (ai * spec.default_paths.len() + pi) * n;
            let cell = &outcome.results[base..base + n];
            let packet_mean_mbps = if cell.is_empty() {
                0.0
            } else {
                cell.iter().map(|r| r.steady_total_mbps()).sum::<f64>() / cell.len() as f64
            };
            let lp_total_mbps = cell
                .first()
                .map(|r| r.lp.total_mbps)
                .unwrap_or_else(|| paper_lp_total(default_path));
            let fluid = FluidLaw::from_algo(algo)
                .map(|law| fluid_paper_run(ConstraintVariant::Consistent, default_path, law));
            rows.push(CrossRow {
                algo,
                default_path,
                fluid,
                packet_mean_mbps,
                lp_total_mbps,
                seeds: n,
            });
        }
    }
    rows
}

fn paper_lp_total(default_path: usize) -> f64 {
    PaperNetwork::build(&PaperNetworkConfig {
        default_path,
        ..Default::default()
    })
    .lp_optimum()
    .total_mbps
}

/// One random-topology cell: fluid vs packet vs LP on a
/// [`RandomOverlapNet`] instance (the seed is the generator seed, exactly
/// as in the sweep runner's `TopologySpec::RandomOverlap` convention).
#[derive(Debug, Clone)]
pub struct RandomCrossRow {
    /// Generator (and run) seed.
    pub seed: u64,
    /// Packet-simulator algorithm.
    pub algo: CcAlgo,
    /// Path count of the generated instance.
    pub paths: usize,
    /// Fluid prediction for the instance.
    pub fluid: FluidRun,
    /// Packet-sim steady-state total, Mbps.
    pub packet_mbps: f64,
    /// LP optimum total, Mbps.
    pub lp_total_mbps: f64,
}

/// Cross-validate coupled algorithms over random generalized-overlap
/// topologies. Each seed is a fresh instance; the packet side runs through
/// the parallel sweep runner (default path 0, as in the Table-2 batch),
/// the fluid side re-derives the same instance from the same seed.
/// `algos` must all map to fluid laws (i.e. not wVegas).
pub fn random_cross_table(
    base: &RandomOverlapConfig,
    algos: &[CcAlgo],
    seeds: std::ops::Range<u64>,
    duration: SimDuration,
    cfg: &RunnerConfig,
) -> Vec<RandomCrossRow> {
    let spec = SweepSpec {
        topologies: vec![TopologySpec::RandomOverlap(base.clone())],
        algos: algos.to_vec(),
        default_paths: vec![0],
        seeds: seeds.collect(),
        duration,
        sample_bin: SimDuration::from_millis(100),
    };
    let outcome = run_sweep(&spec, cfg);
    let mut rows = Vec::with_capacity(outcome.cells.len());
    for (cell, result) in outcome.cells.iter().zip(&outcome.results) {
        let net = RandomOverlapNet::generate(&RandomOverlapConfig {
            seed: cell.seed,
            ..base.clone()
        });
        let model = FluidModel::from_topology(&net.topology, &net.paths);
        #[expect(
            clippy::expect_used,
            reason = "documented precondition; caller passes coupled loss-based algos only"
        )]
        let law =
            FluidLaw::from_algo(cell.algo).expect("random cross-table algos must have a fluid law");
        let fluid = solve(&model, law, FLUID_HORIZON_S);
        rows.push(RandomCrossRow {
            seed: cell.seed,
            algo: cell.algo,
            paths: net.paths.len(),
            fluid,
            packet_mbps: result.steady_total_mbps(),
            lp_total_mbps: result.lp.total_mbps,
        });
    }
    rows
}

fn fmt_opt_time(t: Option<f64>) -> String {
    match t {
        Some(t) => format!("{t:7.1}"),
        None => format!("{:>7}", "-"),
    }
}

/// Render the Table-1 cross-validation section.
pub fn render_paper_section(rows: &[CrossRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>6} | {:>10} {:>9} {:>8} | {:>10} | {:>8} | {:>8} {:>8}",
        "algo", "path", "fluid Mbps", "outcome", "conv s", "sim Mbps", "LP Mbps", "fl/LP", "sim/fl"
    );
    let _ = writeln!(out, "{}", "-".repeat(94));
    for row in rows {
        let (fluid_str, outcome, conv, fl_lp, sim_fl) = match &row.fluid {
            Some(f) => (
                format!("{:10.2}", f.total_mbps),
                short_outcome(f),
                fmt_opt_time(f.convergence_time_s),
                format!("{:7.1}%", 100.0 * f.total_mbps / row.lp_total_mbps),
                format!("{:7.1}%", 100.0 * row.packet_mean_mbps / f.total_mbps),
            ),
            None => (
                format!("{:>10}", "-"),
                "n/a".to_string(),
                format!("{:>7}", "-"),
                format!("{:>8}", "-"),
                format!("{:>8}", "-"),
            ),
        };
        let _ = writeln!(
            out,
            "{:<8} {:>6} | {} {:>9} {} | {:10.2} | {:8.1} | {} {}",
            row.algo.name(),
            format!("P{}", row.default_path + 1),
            fluid_str,
            outcome,
            conv,
            row.packet_mean_mbps,
            row.lp_total_mbps,
            fl_lp,
            sim_fl,
        );
    }
    out
}

fn short_outcome(f: &FluidRun) -> String {
    match f.outcome {
        fluidsim::FluidOutcome::Equilibrium => "equil".to_string(),
        fluidsim::FluidOutcome::LimitCycle => "cycle".to_string(),
        fluidsim::FluidOutcome::NoConvergence => "no-conv".to_string(),
        fluidsim::FluidOutcome::Divergent => "diverge".to_string(),
    }
}

/// Render the fluid-only erratum (`AsPrinted`) section: all laws × all
/// default paths, per-path equilibria against the permuted LP optimum
/// (30, 10, 50).
pub fn render_as_printed_section() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>6} | {:>9} | {:>27} | {:>8}",
        "law", "path", "outcome", "per-path Mbps", "total"
    );
    let _ = writeln!(out, "{}", "-".repeat(70));
    for law in FluidLaw::ALL {
        for default_path in 0..3 {
            let f = fluid_paper_run(ConstraintVariant::AsPrinted, default_path, law);
            let per_path = f
                .per_path_mbps
                .iter()
                .map(|x| format!("{x:7.2}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "{:<8} {:>6} | {:>9} | {:>27} | {:8.2}",
                law.name(),
                format!("P{}", default_path + 1),
                short_outcome(&f),
                per_path,
                f.total_mbps,
            );
        }
    }
    out
}

/// Render the random-topology cross-validation section.
pub fn render_random_section(rows: &[RandomCrossRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>5} {:>6} | {:>10} {:>9} | {:>10} | {:>8} | {:>8} {:>8}",
        "algo", "seed", "paths", "fluid Mbps", "outcome", "sim Mbps", "LP Mbps", "fl/LP", "sim/fl"
    );
    let _ = writeln!(out, "{}", "-".repeat(90));
    for row in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>5} {:>6} | {:10.2} {:>9} | {:10.2} | {:8.1} | {:7.1}% {:7.1}%",
            row.algo.name(),
            row.seed,
            row.paths,
            row.fluid.total_mbps,
            short_outcome(&row.fluid),
            row.packet_mbps,
            row.lp_total_mbps,
            100.0 * row.fluid.total_mbps / row.lp_total_mbps,
            100.0 * row.packet_mbps / row.fluid.total_mbps,
        );
    }
    out
}

/// Seeds of the checked-in document's packet runs (paper sections).
pub const FLUID_TABLE_SEEDS: std::ops::Range<u64> = 0..2;
/// Seeds of the checked-in document's random-topology instances.
pub const FLUID_TABLE_RANDOM_SEEDS: std::ops::Range<u64> = 1..5;
/// Packet-run duration of the checked-in document, seconds.
pub const FLUID_TABLE_SECS: u64 = 8;

/// Produce the complete `results/fluid_table.txt` document. Byte-identical
/// across machines and worker counts; regenerate with
/// `cargo run -p bench --bin fluid_table --release > results/fluid_table.txt`.
pub fn fluid_table_document(cfg: &RunnerConfig) -> String {
    let duration = SimDuration::from_secs(FLUID_TABLE_SECS);
    let algos = [
        CcAlgo::Cubic,
        CcAlgo::Lia,
        CcAlgo::Olia,
        CcAlgo::Balia,
        CcAlgo::WVegas,
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fluid-model cross-validation: fluid equilibrium vs packet simulation vs LP optimum"
    );
    let _ = writeln!(
        out,
        "packet side: {} seeds x {} s per cell on the parallel sweep runner;",
        FLUID_TABLE_SEEDS.end - FLUID_TABLE_SEEDS.start,
        FLUID_TABLE_SECS
    );
    let _ = writeln!(
        out,
        "fluid side: RK4 at 0.5 ms steps, horizon {} s; wVegas has no fluid law (delay-based).",
        FLUID_HORIZON_S
    );
    let _ = writeln!(
        out,
        "regenerate: cargo run -p bench --bin fluid_table --release > results/fluid_table.txt"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "--- 1. paper network (Consistent variant, LP optimum 90 Mbps at x = 10/30/50) ---"
    );
    let rows = paper_cross_table(&algos, FLUID_TABLE_SEEDS, duration, cfg);
    out.push_str(&render_paper_section(&rows));
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "--- 2. erratum variant (AsPrinted constraints, LP optimum 90 Mbps at x = 30/10/50), fluid only ---"
    );
    out.push_str(&render_as_printed_section());
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "--- 3. random generalized-overlap topologies (one instance per seed, default path P1) ---"
    );
    let random_rows = random_cross_table(
        &RandomOverlapConfig::default(),
        &[CcAlgo::Lia, CcAlgo::Olia, CcAlgo::Balia],
        FLUID_TABLE_RANDOM_SEEDS,
        duration,
        cfg,
    );
    out.push_str(&render_random_section(&random_rows));
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "notes: fl/LP = fluid equilibrium as a fraction of the LP optimum (how close the law's"
    );
    let _ = writeln!(
        out,
        "dynamics get to the best corner); sim/fl = packet simulation against its own fluid"
    );
    let _ = writeln!(
        out,
        "prediction (how far discrete effects — queues, bursts, scheduler — move the real stack"
    );
    let _ = writeln!(
        out,
        "from the mean-field limit). See EXPERIMENTS.md for interpretation and known divergences."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_olia_and_balia_reach_the_paper_optimum() {
        // Acceptance gate: within 5% of the 90 Mbps LP optimum on the
        // paper network (headline configuration: Path 2 default).
        for law in [FluidLaw::Olia, FluidLaw::Balia] {
            let f = fluid_paper_run(ConstraintVariant::Consistent, 1, law);
            assert!(f.settled(), "{}: {:?}", law.name(), f.outcome);
            assert!(
                f.total_mbps >= 0.95 * 90.0,
                "{}: {:.2} Mbps",
                law.name(),
                f.total_mbps
            );
        }
    }

    #[test]
    fn fluid_lia_sits_in_the_suboptimal_corner() {
        let f = fluid_paper_run(ConstraintVariant::Consistent, 1, FluidLaw::Lia);
        assert!(f.settled());
        // Strictly below the optimum, and below both optimum-reaching laws.
        assert!(f.total_mbps < 89.0, "LIA total {:.2}", f.total_mbps);
        let olia = fluid_paper_run(ConstraintVariant::Consistent, 1, FluidLaw::Olia);
        let balia = fluid_paper_run(ConstraintVariant::Consistent, 1, FluidLaw::Balia);
        assert!(f.total_mbps < olia.total_mbps);
        assert!(f.total_mbps < balia.total_mbps);
        // The corner structure: LIA over-uses Path 1 (optimum share 10)
        // and under-uses Path 3's surplus (optimum share 50).
        assert!(f.per_path_mbps[0] > 10.5, "{:?}", f.per_path_mbps);
        assert!(f.per_path_mbps[2] < 49.5, "{:?}", f.per_path_mbps);
    }

    #[test]
    fn cross_table_shapes_are_stable() {
        // One cheap packet seed: the row layout and LP/fluid columns must
        // line up with the sweep-spec order the aggregation assumes.
        let rows = paper_cross_table(
            &[CcAlgo::Lia, CcAlgo::WVegas],
            0..1,
            SimDuration::from_millis(500),
            &RunnerConfig::serial(),
        );
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].algo, CcAlgo::Lia);
        assert_eq!(rows[0].default_path, 0);
        assert_eq!(rows[3].algo, CcAlgo::WVegas);
        assert!(rows[0].fluid.is_some());
        assert!(rows[3].fluid.is_none(), "wVegas has no fluid law");
        for row in &rows {
            assert!(row.lp_total_mbps > 0.0);
            assert!(row.packet_mean_mbps > 0.0);
        }
        let rendered = render_paper_section(&rows);
        assert_eq!(rendered.lines().count(), 2 + rows.len());
    }

    #[test]
    fn random_cross_rows_follow_the_runner_convention() {
        let rows = random_cross_table(
            &RandomOverlapConfig::default(),
            &[CcAlgo::Balia],
            7..8,
            SimDuration::from_millis(500),
            &RunnerConfig::serial(),
        );
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.seed, 7);
        // The fluid side must see the same instance the packet side ran:
        // its LP optimum is the packet result's LP optimum.
        let net = RandomOverlapNet::generate(&RandomOverlapConfig {
            seed: 7,
            ..Default::default()
        });
        assert_eq!(row.paths, net.paths.len());
        assert!((row.lp_total_mbps - net.lp_optimum().total_mbps).abs() < 1e-9);
        // And the fluid equilibrium cannot beat the optimum.
        assert!(row.fluid.total_mbps <= row.lp_total_mbps * 1.001);
    }
}
