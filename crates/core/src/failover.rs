//! The failover experiment: kill the default path mid-run, then restore it.
//!
//! The paper's coupled controllers (LIA, OLIA, …) are designed to
//! *re-balance* load when path conditions change; the static Table-1 runs
//! never exercise that. This experiment does, using the fault layer
//! ([`netsim::faults`]): the private (exclusive) link of the default path
//! goes down at `t_down` and comes back at `t_up`, and we measure
//!
//! * **recovery time** — how long after the failure the (smoothed) total
//!   rate first reaches `recovery_frac` of the *post-failure* LP optimum,
//!   i.e. the optimum recomputed over the surviving constraint set via
//!   [`lpsolve::LpCache`];
//! * **post-failure throughput** — the steady total on the surviving paths,
//!   compared against that recomputed optimum and against the fluid-model
//!   equilibrium re-solved on the post-fault topology (the same
//!   cross-validation idea as [`crate::fluidcheck`], applied to the
//!   degraded network);
//! * **post-restore throughput** — how much of the full-topology optimum
//!   the connection claws back once the path returns (subflow revival is
//!   driven by RTO-backed probe retransmissions, so this is bounded by the
//!   probe schedule, not by the controller).
//!
//! Everything runs on the parallel sweep runner and is deterministic per
//! cell: the checked-in `results/failover_table.txt` regenerates
//! byte-identically for any worker count.

use crate::paper::PaperNetwork;
use crate::runner::{run_scenarios, RunnerConfig};
use crate::scenario::Scenario;
use fluidsim::{solve, FluidLaw, FluidModel};
use mptcpsim::CcAlgo;
use netsim::{FaultSchedule, LinkId, Path};
use simbase::{SimDuration, SimTime};
use simtrace::TimeSeries;
use std::fmt::Write as _;

/// Configuration of one failover experiment batch.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Algorithms to compare.
    pub algos: Vec<CcAlgo>,
    /// Seeds per algorithm (each seed is one full run).
    pub seeds: std::ops::Range<u64>,
    /// When the default path's private link dies.
    pub t_down: SimTime,
    /// When it comes back.
    pub t_up: SimTime,
    /// Total run length.
    pub duration: SimDuration,
    /// Throughput sampling bin.
    pub sample_bin: SimDuration,
    /// Guard time after `t_down` / `t_up` before steady-state windows
    /// start (lets retransmission state drain out of the means).
    pub settle: SimDuration,
    /// Recovery threshold as a fraction of the post-failure LP optimum.
    pub recovery_frac: f64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            algos: vec![CcAlgo::Cubic, CcAlgo::Lia, CcAlgo::Olia, CcAlgo::Balia],
            seeds: 1..4,
            t_down: SimTime::from_secs(4),
            t_up: SimTime::from_secs(12),
            duration: SimDuration::from_secs(16),
            sample_bin: SimDuration::from_millis(100),
            settle: SimDuration::from_secs(2),
            recovery_frac: 0.9,
        }
    }
}

impl FailoverConfig {
    fn validate(&self) {
        assert!(self.t_down < self.t_up, "failure must precede restore");
        assert!(
            self.t_up < SimTime::ZERO + self.duration,
            "restore must happen inside the run"
        );
        assert!(
            (0.0..=1.0).contains(&self.recovery_frac),
            "recovery_frac in [0, 1]"
        );
        assert!(!self.algos.is_empty() && !self.seeds.is_empty());
    }
}

/// The first link exclusive to `paths[target]` — a link no other path
/// crosses, so taking it down kills exactly that path. Panics if the path
/// is fully shared (every link carried by some other path).
pub fn exclusive_link(paths: &[Path], target: usize) -> LinkId {
    *paths[target]
        .links()
        .iter()
        .find(|l| {
            paths
                .iter()
                .enumerate()
                .all(|(i, p)| i == target || !p.links().contains(l))
        })
        .expect("target path has no exclusive link") // simlint: allow(unwrap, reason = "paper paths are pairwise-overlapping, never nested; documented panic")
}

/// The static facts of a failover experiment on the paper network: which
/// link dies, which paths survive, and the LP optima on both constraint
/// sets (full and surviving), resolved through one [`lpsolve::LpCache`].
#[derive(Debug, Clone)]
pub struct FailoverSetup {
    /// The network (paper Figure 1, Consistent variant).
    pub net: PaperNetwork,
    /// The default path's private link that the fault kills.
    pub dead_link: LinkId,
    /// Indices (into `net.paths`) of the paths that survive the failure.
    pub surviving: Vec<usize>,
    /// LP optimum over the surviving constraint set, Mbps.
    pub post_lp_mbps: f64,
    /// LP optimum of the intact network, Mbps.
    pub full_lp_mbps: f64,
}

impl FailoverSetup {
    /// Derive the setup from the headline paper network (default path P2).
    pub fn paper() -> Self {
        let net = PaperNetwork::new();
        let cache = lpsolve::LpCache::new();
        Self::from_network(net, &cache)
    }

    /// Derive the setup from any paper-network instance, resolving both LP
    /// solves through `cache`.
    pub fn from_network(net: PaperNetwork, cache: &lpsolve::LpCache) -> Self {
        let dead_link = exclusive_link(&net.paths, net.default_path);
        let surviving: Vec<usize> = (0..net.paths.len())
            .filter(|&i| !net.paths[i].links().contains(&dead_link))
            .collect();
        assert!(
            !surviving.is_empty(),
            "failure must leave at least one path"
        );
        let surviving_paths = self_paths(&net.paths, &surviving);
        let post_lp_mbps = cache.solve(&net.topology, &surviving_paths).total_mbps;
        let full_lp_mbps = cache.solve(&net.topology, &net.paths).total_mbps;
        FailoverSetup {
            net,
            dead_link,
            surviving,
            post_lp_mbps,
            full_lp_mbps,
        }
    }

    /// The surviving paths, cloned in original order.
    pub fn surviving_paths(&self) -> Vec<Path> {
        self_paths(&self.net.paths, &self.surviving)
    }

    /// Fluid-model equilibrium total on the post-fault topology for
    /// `algo`, if a fluid law models it (None for wVegas).
    pub fn fluid_post_fault_mbps(&self, algo: CcAlgo) -> Option<f64> {
        let law = FluidLaw::from_algo(algo)?;
        let model = FluidModel::from_topology(&self.net.topology, &self.surviving_paths());
        Some(solve(&model, law, &crate::fluidcheck::fluid_config()).total_mbps)
    }
}

fn self_paths(paths: &[Path], idx: &[usize]) -> Vec<Path> {
    idx.iter().map(|&i| paths[i].clone()).collect()
}

/// The fault-free base scenario of a failover cell — everything but the
/// outage itself. This is what gets checkpointed for branch sweeps: the
/// prefix up to the failure is identical across every outage variant.
pub fn failover_base_scenario(
    setup: &FailoverSetup,
    algo: CcAlgo,
    seed: u64,
    cfg: &FailoverConfig,
) -> Scenario {
    Scenario {
        default_path: setup.net.default_path,
        ..Scenario::new(setup.net.topology.clone(), setup.net.paths.clone())
    }
    .with_algo(algo)
    .with_seed(seed)
    .with_timing(cfg.duration, cfg.sample_bin)
}

/// Build the scenario for one failover cell: the paper network with an
/// outage of the default path's private link over `[t_down, t_up)`.
pub fn failover_scenario(
    setup: &FailoverSetup,
    algo: CcAlgo,
    seed: u64,
    cfg: &FailoverConfig,
) -> Scenario {
    failover_base_scenario(setup, algo, seed, cfg).with_faults(FaultSchedule::new().outage(
        setup.dead_link,
        cfg.t_down,
        cfg.t_up,
    ))
}

/// Recovery time: seconds from `t_down` until the 3-bin-smoothed series
/// first reaches `threshold_mbps` inside `[t_down, t_up)`; `None` if the
/// rate never gets there before the path returns. The scan starts one bin
/// after the failure so the centered smoothing window holds post-fault
/// bins only — otherwise pre-fault throughput leaks in and every run
/// "recovers" instantly by artifact.
pub fn recovery_time_s(
    total: &TimeSeries,
    t_down: SimTime,
    t_up: SimTime,
    threshold_mbps: f64,
) -> Option<f64> {
    let from_s = t_down.as_secs_f64() + total.bin().as_secs_f64();
    let up_s = t_up.as_secs_f64();
    total
        .smoothed(3)
        .points()
        .find(|&(t, v)| t >= from_s && t < up_s && v >= threshold_mbps)
        .map(|(t, _)| t - t_down.as_secs_f64())
}

/// One (algorithm, seed) failover run, reduced to its headline numbers.
#[derive(Debug, Clone)]
pub struct FailoverCell {
    /// Congestion control algorithm.
    pub algo: CcAlgo,
    /// Run seed.
    pub seed: u64,
    /// Mean total before the failure (settle-to-failure window), Mbps.
    pub pre_fault_mbps: f64,
    /// Mean total on the surviving paths (settled failure window), Mbps.
    pub post_fault_mbps: f64,
    /// Mean total after the restore (settled restore window), Mbps.
    pub post_restore_mbps: f64,
    /// Recovery time after the failure (None = not before `t_up`).
    pub recovery_s: Option<f64>,
    /// Trace digest of the run (determinism evidence).
    pub trace_hash: u64,
}

/// Per-algorithm aggregate over the seeds.
#[derive(Debug, Clone)]
pub struct FailoverRow {
    /// Congestion control algorithm.
    pub algo: CcAlgo,
    /// Seeds aggregated.
    pub seeds: usize,
    /// How many seeds recovered before the restore.
    pub recovered: usize,
    /// Mean recovery time over the recovered seeds (None if none did).
    pub mean_recovery_s: Option<f64>,
    /// Mean pre-failure total, Mbps.
    pub pre_fault_mbps: f64,
    /// Mean post-failure total, Mbps.
    pub post_fault_mbps: f64,
    /// Mean post-restore total, Mbps.
    pub post_restore_mbps: f64,
    /// Fluid equilibrium on the surviving topology (None: no fluid law).
    pub fluid_post_mbps: Option<f64>,
}

/// The full outcome of a failover batch.
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// The experiment's static facts (dead link, LP optima).
    pub setup: FailoverSetup,
    /// The configuration that produced this outcome.
    pub config: FailoverConfig,
    /// Every cell, algorithm-major / seed-minor (spec order).
    pub cells: Vec<FailoverCell>,
    /// Per-algorithm aggregates, in `config.algos` order.
    pub rows: Vec<FailoverRow>,
}

/// Run the failover experiment: `algos × seeds` cells on the parallel
/// runner (results in spec order regardless of worker count).
pub fn run_failover(cfg: &FailoverConfig, runner: &RunnerConfig) -> FailoverOutcome {
    cfg.validate();
    let setup = FailoverSetup::paper();
    let seeds: Vec<u64> = cfg.seeds.clone().collect();
    let mut scenarios = Vec::with_capacity(cfg.algos.len() * seeds.len());
    for &algo in &cfg.algos {
        for &seed in &seeds {
            scenarios.push(failover_scenario(&setup, algo, seed, cfg));
        }
    }
    let results = run_scenarios(&scenarios, runner);

    let end = SimTime::ZERO + cfg.duration;
    let threshold = cfg.recovery_frac * setup.post_lp_mbps;
    let mut cells = Vec::with_capacity(results.len());
    for (i, result) in results.iter().enumerate() {
        let algo = cfg.algos[i / seeds.len()];
        let seed = seeds[i % seeds.len()];
        cells.push(FailoverCell {
            algo,
            seed,
            pre_fault_mbps: result
                .total
                .mean_over(SimTime::ZERO + cfg.settle, cfg.t_down),
            post_fault_mbps: result.total.mean_over(cfg.t_down + cfg.settle, cfg.t_up),
            post_restore_mbps: result.total.mean_over(cfg.t_up + cfg.settle, end),
            recovery_s: recovery_time_s(&result.total, cfg.t_down, cfg.t_up, threshold),
            trace_hash: result.trace_hash,
        });
    }

    let rows = cfg
        .algos
        .iter()
        .enumerate()
        .map(|(ai, &algo)| {
            let cell = &cells[ai * seeds.len()..(ai + 1) * seeds.len()];
            let n = cell.len() as f64;
            let recovered: Vec<f64> = cell.iter().filter_map(|c| c.recovery_s).collect();
            FailoverRow {
                algo,
                seeds: cell.len(),
                recovered: recovered.len(),
                mean_recovery_s: if recovered.is_empty() {
                    None
                } else {
                    Some(recovered.iter().sum::<f64>() / recovered.len() as f64)
                },
                pre_fault_mbps: cell.iter().map(|c| c.pre_fault_mbps).sum::<f64>() / n,
                post_fault_mbps: cell.iter().map(|c| c.post_fault_mbps).sum::<f64>() / n,
                post_restore_mbps: cell.iter().map(|c| c.post_restore_mbps).sum::<f64>() / n,
                fluid_post_mbps: setup.fluid_post_fault_mbps(algo),
            }
        })
        .collect();

    FailoverOutcome {
        setup,
        config: cfg.clone(),
        cells,
        rows,
    }
}

/// One outage-duration variant, branched from a shared prefix checkpoint.
#[derive(Debug, Clone)]
pub struct OutageVariantCell {
    /// When the link came back in this variant.
    pub t_up: SimTime,
    /// Recovery time after the failure (None = not before `t_up`).
    pub recovery_s: Option<f64>,
    /// Mean total on the surviving paths (settled failure window), Mbps.
    pub post_fault_mbps: f64,
    /// Mean total after the restore (settled restore window), Mbps.
    pub post_restore_mbps: f64,
    /// Trace digest of the branched run.
    pub trace_hash: u64,
}

/// An outage-duration sweep for one `(algo, seed)`: the fault-free prefix
/// simulated **once** up to `t_down − 1 ns` and checkpointed, then one
/// branch per restore time.
#[derive(Debug, Clone)]
pub struct OutageSweep {
    /// Congestion control algorithm.
    pub algo: CcAlgo,
    /// Run seed.
    pub seed: u64,
    /// Where the shared prefix was frozen.
    pub checkpoint_at: SimTime,
    /// One cell per restore time, in input order.
    pub cells: Vec<OutageVariantCell>,
}

/// Sweep outage durations by branching from a single prefix checkpoint.
///
/// The checkpoint is taken at `t_down − 1 ns` — the last representable
/// instant before the failure — because [`ScenarioCheckpoint::branch_run`]
/// requires every branched fault to fire *strictly after* the frozen time
/// (`run_until` has already processed everything at or before it), and the
/// down event itself is at `t_down`. Each branch is byte-identical to a
/// cold run carrying the same outage from time zero (the scenario-level
/// checkpoint contract), which [`failover_table_document`] verifies
/// in-document against the headline cells.
///
/// [`ScenarioCheckpoint::branch_run`]: crate::scenario::ScenarioCheckpoint::branch_run
pub fn run_outage_sweep(
    setup: &FailoverSetup,
    algo: CcAlgo,
    seed: u64,
    cfg: &FailoverConfig,
    t_ups: &[SimTime],
) -> OutageSweep {
    assert!(
        cfg.t_down > SimTime::ZERO,
        "failure at t=0 leaves no prefix to checkpoint"
    );
    let end = SimTime::ZERO + cfg.duration;
    for &t_up in t_ups {
        assert!(cfg.t_down < t_up, "outage must end after it starts");
        assert!(t_up < end, "restore must happen inside the run");
    }
    let tc = SimTime::from_nanos(cfg.t_down.as_nanos() - 1);
    let ckpt = failover_base_scenario(setup, algo, seed, cfg).checkpoint_at(tc);
    let threshold = cfg.recovery_frac * setup.post_lp_mbps;
    let cells = t_ups
        .iter()
        .map(|&t_up| {
            let faults = FaultSchedule::new().outage(setup.dead_link, cfg.t_down, t_up);
            let result = ckpt.branch_run(&faults, None);
            OutageVariantCell {
                t_up,
                recovery_s: recovery_time_s(&result.total, cfg.t_down, t_up, threshold),
                post_fault_mbps: result.total.mean_over(cfg.t_down + cfg.settle, t_up),
                post_restore_mbps: result.total.mean_over(t_up + cfg.settle, end),
                trace_hash: result.trace_hash,
            }
        })
        .collect();
    OutageSweep {
        algo,
        seed,
        checkpoint_at: tc,
        cells,
    }
}

/// Render the outage-duration sweep section. `cold_hashes` maps
/// `(algo, seed)` to the headline cell's trace hash at the headline
/// restore time; when a sweep contains that restore time, the branched
/// hash is compared against the cold one and the verdict printed — the
/// checkpoint/branch byte-identity contract, demonstrated inside the
/// table itself. Panics on a mismatch: a divergent branch would mean the
/// snapshot layer corrupted simulator state.
pub fn render_outage_sweeps(
    sweeps: &[OutageSweep],
    headline_t_up: SimTime,
    cold_hashes: &dyn Fn(CcAlgo, u64) -> Option<u64>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>5} {:>7} | {:>9} | {:>9} {:>9} | {:>18} | branch == cold",
        "algo", "seed", "up s", "recov s", "post", "restore", "trace hash"
    );
    let _ = writeln!(out, "{}", "-".repeat(96));
    for sweep in sweeps {
        for c in &sweep.cells {
            let verdict = if c.t_up == headline_t_up {
                match cold_hashes(sweep.algo, sweep.seed) {
                    Some(cold) => {
                        assert_eq!(
                            c.trace_hash,
                            cold,
                            "{} seed {}: branch at t_up={} diverged from the cold run",
                            sweep.algo.name(),
                            sweep.seed,
                            c.t_up
                        );
                        "ok"
                    }
                    None => "-",
                }
            } else {
                "-"
            };
            let _ = writeln!(
                out,
                "{:<8} {:>5} {:>7.1} | {} | {:9.2} {:9.2} | {:#018x} | {}",
                sweep.algo.name(),
                sweep.seed,
                c.t_up.as_secs_f64(),
                fmt_opt(c.recovery_s, 9),
                c.post_fault_mbps,
                c.post_restore_mbps,
                c.trace_hash,
                verdict,
            );
        }
    }
    out
}

fn fmt_opt(v: Option<f64>, width: usize) -> String {
    match v {
        Some(v) => format!("{v:>width$.2}"),
        None => format!("{:>width$}", "-"),
    }
}

/// Render the per-algorithm aggregate section.
pub fn render_failover_rows(outcome: &FailoverOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>5} | {:>8} {:>9} | {:>9} {:>8} | {:>10} | {:>9} {:>8} | {:>8}",
        "algo",
        "seeds",
        "recov",
        "recov s",
        "post Mbps",
        "post/LP",
        "fluid Mbps",
        "rest Mbps",
        "rest/LP",
        "pre Mbps"
    );
    let _ = writeln!(out, "{}", "-".repeat(103));
    for row in &outcome.rows {
        let _ = writeln!(
            out,
            "{:<8} {:>5} | {:>8} {} | {:9.2} {:7.1}% | {} | {:9.2} {:7.1}% | {:8.2}",
            row.algo.name(),
            row.seeds,
            format!("{}/{}", row.recovered, row.seeds),
            fmt_opt(row.mean_recovery_s, 9),
            row.post_fault_mbps,
            100.0 * row.post_fault_mbps / outcome.setup.post_lp_mbps,
            fmt_opt(row.fluid_post_mbps, 10),
            row.post_restore_mbps,
            100.0 * row.post_restore_mbps / outcome.setup.full_lp_mbps,
            row.pre_fault_mbps,
        );
    }
    out
}

/// Render the per-seed cell section (includes each cell's trace hash, the
/// determinism evidence the CI smoke compares across worker counts).
pub fn render_failover_cells(outcome: &FailoverOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>5} | {:>9} | {:>9} {:>9} {:>9} | {:>18}",
        "algo", "seed", "recov s", "pre", "post", "restore", "trace hash"
    );
    let _ = writeln!(out, "{}", "-".repeat(80));
    for c in &outcome.cells {
        let _ = writeln!(
            out,
            "{:<8} {:>5} | {} | {:9.2} {:9.2} {:9.2} | {:#018x}",
            c.algo.name(),
            c.seed,
            fmt_opt(c.recovery_s, 9),
            c.pre_fault_mbps,
            c.post_fault_mbps,
            c.post_restore_mbps,
            c.trace_hash,
        );
    }
    out
}

/// Seeds of the checked-in `results/failover_table.txt`.
pub const FAILOVER_TABLE_SEEDS: std::ops::Range<u64> = 1..4;

/// Produce the complete `results/failover_table.txt` document.
/// Byte-identical across machines and worker counts; regenerate with
/// `cargo run -p bench --bin failover_table --release > results/failover_table.txt`.
pub fn failover_table_document(runner: &RunnerConfig) -> String {
    let cfg = FailoverConfig {
        seeds: FAILOVER_TABLE_SEEDS,
        ..FailoverConfig::default()
    };
    let outcome = run_failover(&cfg, runner);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "failover experiment: kill the default path's private link mid-run, then restore it"
    );
    let _ = writeln!(
        out,
        "paper network (Consistent variant), default path P2; dead link = {:?} (v1-v3),",
        outcome.setup.dead_link
    );
    let _ = writeln!(
        out,
        "down at {} s, up at {} s, runs of {} s at {} ms bins, {} seeds per algorithm.",
        cfg.t_down.as_secs_f64(),
        cfg.t_up.as_secs_f64(),
        cfg.duration.as_secs_f64(),
        cfg.sample_bin.as_millis(),
        cfg.seeds.end - cfg.seeds.start,
    );
    let _ = writeln!(
        out,
        "LP optimum: {:.0} Mbps intact -> {:.0} Mbps on the surviving constraint set (paths {});",
        outcome.setup.full_lp_mbps,
        outcome.setup.post_lp_mbps,
        outcome
            .setup
            .surviving
            .iter()
            .map(|i| format!("P{}", i + 1))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let _ = writeln!(
        out,
        "recovery = first time after the failure the smoothed total holds {:.0}% of the",
        100.0 * cfg.recovery_frac
    );
    let _ = writeln!(
        out,
        "post-failure optimum; fluid Mbps = the law's ODE equilibrium re-solved on the"
    );
    let _ = writeln!(out, "surviving topology (see EXPERIMENTS.md par E8).");
    let _ = writeln!(
        out,
        "regenerate: cargo run -p bench --bin failover_table --release > results/failover_table.txt"
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "--- 1. per-algorithm aggregate ---");
    out.push_str(&render_failover_rows(&outcome));
    let _ = writeln!(out);
    let _ = writeln!(out, "--- 2. per-seed cells ---");
    out.push_str(&render_failover_cells(&outcome));
    let _ = writeln!(out);
    let _ = writeln!(out, "--- 3. outage-duration sweep (checkpoint/branch) ---");
    // Shortest variant restores at 7 s so the settled failure window
    // [t_down + settle, t_up) is non-empty in every row.
    let t_ups: Vec<SimTime> = [7, 8, 10, 12].map(SimTime::from_secs).to_vec();
    let sweep_seed = cfg.seeds.start;
    let sweeps: Vec<OutageSweep> = cfg
        .algos
        .iter()
        .map(|&algo| run_outage_sweep(&outcome.setup, algo, sweep_seed, &cfg, &t_ups))
        .collect();
    let _ = writeln!(
        out,
        "seed {sweep_seed}; per algorithm the fault-free prefix runs once to t = {} s and is",
        sweeps[0].checkpoint_at.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "checkpointed, then {} outage variants branch from the snapshot. The branch at the",
        t_ups.len()
    );
    let _ = writeln!(
        out,
        "headline restore time ({} s) must hash identically to section 2's cold run.",
        cfg.t_up.as_secs_f64()
    );
    out.push_str(&render_outage_sweeps(&sweeps, cfg.t_up, &|algo, seed| {
        outcome
            .cells
            .iter()
            .find(|c| c.algo == algo && c.seed == seed)
            .map(|c| c.trace_hash)
    }));
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "notes: post/LP compares the surviving-path throughput to the recomputed optimum;"
    );
    let _ = writeln!(
        out,
        "rest/LP compares the post-restore throughput to the intact optimum — it stays below"
    );
    let _ = writeln!(
        out,
        "100% because the revived subflow re-enters through RTO-backed probes and slow start."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setup_kills_the_default_paths_private_link() {
        let setup = FailoverSetup::paper();
        // Headline config: default path P2 (index 1); its only exclusive
        // link is v1-v3, and P1/P3 survive.
        assert_eq!(setup.net.default_path, 1);
        let v1 = setup.net.topology.node_by_name("v1").unwrap();
        let v3 = setup.net.topology.node_by_name("v3").unwrap();
        assert_eq!(
            setup.dead_link,
            setup.net.topology.link_between(v1, v3).unwrap()
        );
        assert_eq!(setup.surviving, vec![0, 2]);
        // Surviving constraints: x1 <= 40, x1 + x3 <= 60, x3 <= 80 -> 60.
        assert!((setup.post_lp_mbps - 60.0).abs() < 1e-9);
        assert!((setup.full_lp_mbps - 90.0).abs() < 1e-9);
    }

    #[test]
    fn exclusive_links_for_every_default_path() {
        // Each paper path has a private link; killing it leaves the other
        // two paths and the matching reduced LP optimum.
        let expect = [
            (0, 80.0), // P1 dead: x2 <= 40 & x2+x3 <= 80 -> 30+50... max 80
            (1, 60.0), // P2 dead: x1 <= 40, x1+x3 <= 60 -> 60
            (2, 40.0), // P3 dead: x1+x2 <= 40, x2 <= 60... -> 40
        ];
        for (dp, lp) in expect {
            let net = PaperNetwork::build(&crate::paper::PaperNetworkConfig {
                default_path: dp,
                ..Default::default()
            });
            let cache = lpsolve::LpCache::new();
            let setup = FailoverSetup::from_network(net, &cache);
            assert_eq!(setup.surviving.len(), 2);
            assert!(!setup.surviving.contains(&dp));
            assert!(
                (setup.post_lp_mbps - lp).abs() < 1e-9,
                "default path P{}: post-failure LP {} != {lp}",
                dp + 1,
                setup.post_lp_mbps
            );
        }
    }

    #[test]
    fn recovery_time_finds_first_sustained_crossing() {
        let bin = SimDuration::from_millis(100);
        // 0..1 s ramp: 10 bins at 50, then failure at 1 s: drops to 10,
        // climbs back past 45 at 1.5 s.
        let mut vals = vec![50.0; 10];
        vals.extend([10.0, 20.0, 30.0, 40.0, 50.0, 55.0, 55.0, 55.0, 55.0, 55.0]);
        let ts = TimeSeries::new("t", SimTime::ZERO, bin, vals);
        let r = recovery_time_s(&ts, SimTime::from_secs(1), SimTime::from_secs(2), 45.0);
        // Smoothed(3) at bin 14 (t=1.4): (40+50+55)/3 = 48.3 >= 45; bin 13
        // gives (30+40+50)/3 = 40 < 45.
        assert!((r.expect("must recover") - 0.4).abs() < 1e-9, "{r:?}");
        // Threshold never reached inside the window -> None.
        assert_eq!(
            recovery_time_s(&ts, SimTime::from_secs(1), SimTime::from_secs(2), 70.0),
            None
        );
    }

    #[test]
    fn failover_run_recovers_on_surviving_paths() {
        // One cheap cell end-to-end: CUBIC must reach 90% of the
        // recomputed optimum between failure and restore.
        let cfg = FailoverConfig {
            algos: vec![CcAlgo::Cubic],
            seeds: 1..2,
            ..FailoverConfig::default()
        };
        let outcome = run_failover(&cfg, &RunnerConfig::serial());
        assert_eq!(outcome.cells.len(), 1);
        let cell = &outcome.cells[0];
        assert!(
            cell.recovery_s.is_some(),
            "CUBIC did not recover: post-fault {:.1} Mbps vs LP {:.1}",
            cell.post_fault_mbps,
            outcome.setup.post_lp_mbps
        );
        assert!(cell.post_fault_mbps >= 0.9 * outcome.setup.post_lp_mbps);
        // The restored path carries traffic again only after probe-driven
        // revival; the total must at least hold the surviving-path level.
        assert!(cell.post_restore_mbps >= 0.9 * outcome.setup.post_lp_mbps);
        assert!(cell.pre_fault_mbps > cell.post_fault_mbps);
        let row = &outcome.rows[0];
        assert_eq!(row.recovered, 1);
        assert!(row.fluid_post_mbps.is_some());
    }

    #[test]
    fn outage_sweep_branches_match_their_cold_runs() {
        // Short config so the test stays cheap: failure at 1.5 s, headline
        // restore at 3 s, 5 s runs. Every branched variant must be
        // bit-identical to a cold run carrying the same outage from time
        // zero. (Nearby restore times can legitimately produce *identical*
        // traces — subflow revival is quantized by the RTO probe schedule,
        // so a restore landing between two probes is invisible — which is
        // why the contract is branch == cold, not variant != variant.)
        let cfg = FailoverConfig {
            algos: vec![CcAlgo::Lia],
            seeds: 7..8,
            t_down: SimTime::from_millis(1500),
            t_up: SimTime::from_secs(3),
            duration: SimDuration::from_secs(5),
            settle: SimDuration::from_millis(500),
            ..FailoverConfig::default()
        };
        let setup = FailoverSetup::paper();
        let t_ups = [
            SimTime::from_millis(2500),
            SimTime::from_secs(3),
            SimTime::from_millis(3500),
        ];
        let sweep = run_outage_sweep(&setup, CcAlgo::Lia, 7, &cfg, &t_ups);
        assert_eq!(
            sweep.checkpoint_at,
            SimTime::from_nanos(cfg.t_down.as_nanos() - 1)
        );
        assert_eq!(sweep.cells.len(), 3);

        let mut headline_hash = None;
        for (cell, &t_up) in sweep.cells.iter().zip(&t_ups) {
            let cold_cfg = FailoverConfig {
                t_up,
                ..cfg.clone()
            };
            let cold = failover_scenario(&setup, CcAlgo::Lia, 7, &cold_cfg).run();
            assert_eq!(
                cell.trace_hash, cold.trace_hash,
                "branch at t_up = {t_up} must replay the cold run exactly"
            );
            if t_up == cfg.t_up {
                headline_hash = Some(cold.trace_hash);
            }
        }

        // The rendered section flags the headline variant "ok" (and would
        // panic on a hash mismatch).
        let rendered = render_outage_sweeps(&[sweep], cfg.t_up, &|algo, seed| {
            headline_hash.filter(|_| algo == CcAlgo::Lia && seed == 7)
        });
        assert!(rendered.contains("| ok"), "{rendered}");
    }

    #[test]
    fn base_scenario_checkpoint_holds_no_capture_records() {
        // The default study fails the link at 4 s; the sweep checkpoints
        // 1 ns before. The frozen prefix has delivered thousands of packets
        // and carries none of them: its measurement state is the sink's.
        let cfg = FailoverConfig::default();
        let tc = SimTime::from_nanos(cfg.t_down.as_nanos() - 1);
        let ckpt =
            failover_base_scenario(&FailoverSetup::paper(), CcAlgo::Lia, 1, &cfg).checkpoint_at(tc);
        assert_eq!(ckpt.time(), tc);
        assert_eq!(ckpt.buffered_captures(), 0);
    }

    #[test]
    fn outage_sweep_is_deterministic() {
        let cfg = FailoverConfig {
            algos: vec![CcAlgo::Cubic],
            seeds: 2..3,
            t_down: SimTime::from_secs(2),
            t_up: SimTime::from_secs(4),
            duration: SimDuration::from_secs(6),
            ..FailoverConfig::default()
        };
        let setup = FailoverSetup::paper();
        let t_ups = [SimTime::from_secs(3), SimTime::from_secs(4)];
        let a = run_outage_sweep(&setup, CcAlgo::Cubic, 2, &cfg, &t_ups);
        let b = run_outage_sweep(&setup, CcAlgo::Cubic, 2, &cfg, &t_ups);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.trace_hash, cb.trace_hash);
            assert_eq!(ca.recovery_s, cb.recovery_s);
            assert_eq!(ca.post_fault_mbps.to_bits(), cb.post_fault_mbps.to_bits());
        }
    }

    #[test]
    fn failover_outcome_is_deterministic() {
        let cfg = FailoverConfig {
            algos: vec![CcAlgo::Lia],
            seeds: 5..6,
            duration: SimDuration::from_secs(6),
            t_down: SimTime::from_secs(2),
            t_up: SimTime::from_secs(4),
            ..FailoverConfig::default()
        };
        let a = run_failover(&cfg, &RunnerConfig::serial());
        let b = run_failover(&cfg, &RunnerConfig::serial());
        assert_eq!(a.cells[0].trace_hash, b.cells[0].trace_hash);
        assert_eq!(a.cells[0].recovery_s, b.cells[0].recovery_s);
        assert_eq!(render_failover_rows(&a), render_failover_rows(&b));
        assert_eq!(render_failover_cells(&a), render_failover_cells(&b));
    }
}
