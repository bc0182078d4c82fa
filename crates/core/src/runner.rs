//! Deterministic parallel sweep execution.
//!
//! The paper's Results table and every beyond-the-paper sweep aggregate
//! hundreds of *independent* simulation runs — a pure fan-out workload.
//! This module is the execution engine for it:
//!
//! * [`SweepSpec`] declares a sweep as the cartesian product
//!   topology × algorithm × default path × seed, expanded into
//!   [`SweepCell`]s in a documented, stable order.
//! * [`run_sweep`] / [`run_scenarios`] fan the cells across a
//!   `std::thread` worker pool (no external dependencies) and collect
//!   [`RunResult`]s back **in spec order**, so tables, reports, and
//!   per-run `trace_hash`es are bit-identical whether the sweep ran on
//!   one worker or sixteen.
//! * A shared [`lpsolve::LpCache`] memoizes the LP ground truth, so the
//!   hundreds of identical `lp_optimum` solves in a sweep are computed
//!   once.
//! * [`parallel_matches_serial`] is the determinism harness: it executes
//!   the same spec serially and in parallel and asserts, cell by cell,
//!   with the same [`crate::determinism`] comparison `double_run` uses,
//!   that the two engines are indistinguishable.
//!
//! ## Why this is safe in a determinism-pinned simulator
//!
//! Each [`Scenario::run`] is a pure function of (scenario, seed): it owns
//! its simulator, its RNG, and its capture buffer, and shares nothing
//! mutable with other runs (the LP cache stores solver *outputs* keyed by
//! the full solver *input*, so a hit returns exactly what a miss would
//! compute). Worker threads only change *when* a cell executes, never
//! *what* it computes, and results are reassembled by cell index — an
//! indexed-slot collection, not arrival order. simlint's `thread` rule
//! flags threading primitives anywhere else in the simulation crates; the
//! allow-pragmas in this module carry that argument.

use crate::determinism;
use crate::paper::{PaperNetwork, PaperNetworkConfig};
use crate::randomnet::{RandomOverlapConfig, RandomOverlapNet};
use crate::scenario::{RunResult, Scenario};
use crate::store::{run_via_store, RunStore, StoreStats};
use lpsolve::{LpCache, LpCacheStats};
use mptcpsim::CcAlgo;
use simbase::SimDuration;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One axis value of the topology dimension of a sweep.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// The paper's Figure-1 network. The cell's `default_path` overrides
    /// the config's `default_path` field (that is what the default-path
    /// axis *means* on this topology).
    Paper(PaperNetworkConfig),
    /// A random generalized-overlap topology. The cell's seed doubles as
    /// the generator seed (overriding the config's `seed` field), so each
    /// seed axis value is a fresh topology instance — the paper-style
    /// "many random networks" experiment.
    RandomOverlap(RandomOverlapConfig),
}

/// A declarative sweep: the cartesian product of every axis, with shared
/// timing. Expansion order is fixed and documented (see [`SweepSpec::cells`]).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Topology axis (outermost).
    pub topologies: Vec<TopologySpec>,
    /// Congestion-control axis.
    pub algos: Vec<CcAlgo>,
    /// Default-path axis (0-based path indices).
    pub default_paths: Vec<usize>,
    /// Seed axis (innermost).
    pub seeds: Vec<u64>,
    /// Measurement duration for every cell.
    pub duration: SimDuration,
    /// Sampling bin for every cell.
    pub sample_bin: SimDuration,
}

impl SweepSpec {
    /// The paper sweep: Figure-1 network, given algorithms, all three
    /// default paths, seeds from `seeds`, 100 ms bins.
    pub fn paper(algos: &[CcAlgo], seeds: std::ops::Range<u64>, duration: SimDuration) -> Self {
        SweepSpec {
            topologies: vec![TopologySpec::Paper(PaperNetworkConfig::default())],
            algos: algos.to_vec(),
            default_paths: vec![0, 1, 2],
            seeds: seeds.collect(),
            duration,
            sample_bin: SimDuration::from_millis(100),
        }
    }

    /// Number of cells in the product.
    pub fn len(&self) -> usize {
        self.topologies.len() * self.algos.len() * self.default_paths.len() * self.seeds.len()
    }

    /// True if any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the cartesian product, in spec order: topology (outermost),
    /// then algorithm, then default path, then seed (innermost). This
    /// order is a stable part of the API — aggregation code indexes into
    /// results by it, and it matches the nesting of the pre-runner serial
    /// loops so rewired sweeps reproduce their historical output order.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.len());
        for (topology, _) in self.topologies.iter().enumerate() {
            for &algo in &self.algos {
                for &default_path in &self.default_paths {
                    for &seed in &self.seeds {
                        cells.push(SweepCell {
                            index: cells.len(),
                            topology,
                            algo,
                            default_path,
                            seed,
                        });
                    }
                }
            }
        }
        cells
    }

    /// Build the scenario for one cell (deterministically — two calls with
    /// the same cell produce identical scenarios).
    pub fn scenario(&self, cell: &SweepCell) -> Scenario {
        let scenario = match &self.topologies[cell.topology] {
            TopologySpec::Paper(base) => {
                let net = PaperNetwork::build(&PaperNetworkConfig {
                    default_path: cell.default_path,
                    ..base.clone()
                });
                Scenario {
                    default_path: net.default_path,
                    ..Scenario::new(net.topology, net.paths)
                }
            }
            TopologySpec::RandomOverlap(base) => {
                let net = RandomOverlapNet::generate(&RandomOverlapConfig {
                    seed: cell.seed,
                    ..base.clone()
                });
                assert!(
                    cell.default_path < net.paths.len(),
                    "default_path {} out of range for a {}-path random topology",
                    cell.default_path,
                    net.paths.len()
                );
                Scenario {
                    default_path: cell.default_path,
                    ..Scenario::new(net.topology, net.paths)
                }
            }
        };
        scenario
            .with_algo(cell.algo)
            .with_seed(cell.seed)
            .with_timing(self.duration, self.sample_bin)
    }
}

/// One point of the cartesian product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Position in spec order; `SweepOutcome::results[index]` is this
    /// cell's result.
    pub index: usize,
    /// Index into [`SweepSpec::topologies`].
    pub topology: usize,
    /// Congestion-control algorithm.
    pub algo: CcAlgo,
    /// Default path (0-based).
    pub default_path: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Execution parameters of the worker pool.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads. `0` means auto (the host's available parallelism);
    /// `1` runs inline on the calling thread with no pool at all.
    pub workers: usize,
    /// Emit per-job progress lines with elapsed/ETA to stderr.
    pub progress: bool,
}

impl RunnerConfig {
    /// Auto worker count, quiet.
    pub fn auto() -> Self {
        RunnerConfig {
            workers: 0,
            progress: false,
        }
    }

    /// Single worker, quiet: byte-for-byte the reference execution.
    pub fn serial() -> Self {
        RunnerConfig {
            workers: 1,
            progress: false,
        }
    }

    /// Auto worker count overridable by the `OVERLAP_WORKERS` environment
    /// variable (a positive integer; anything else means auto), quiet.
    pub fn from_env() -> Self {
        let workers = std::env::var("OVERLAP_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        RunnerConfig {
            workers,
            progress: false,
        }
    }

    /// Builder-style toggle of progress reporting.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Resolve `workers` against the host and the job count.
    pub fn effective_workers(&self, jobs: usize) -> usize {
        let requested = if self.workers == 0 {
            #[expect(
                clippy::disallowed_methods,
                reason = "host capability query; does not influence any run's result, only how many run at once"
            )]
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        };
        requested.max(1).min(jobs.max(1))
    }
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig::auto()
    }
}

/// Everything a sweep execution produces.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The expanded cells, in spec order.
    pub cells: Vec<SweepCell>,
    /// One result per cell, in spec order (`results[i]` ↔ `cells[i]`).
    pub results: Vec<RunResult>,
    /// LP memoization accounting: for a single-topology-family sweep,
    /// expect `misses == distinct constraint sets` (often 1) and
    /// `hits == cells - misses`. Cells answered by the run store never
    /// touch the LP cache (the stored record embeds the ground truth), so
    /// with a warm store this can legitimately be all zeros.
    pub lp_stats: LpCacheStats,
    /// Run-store accounting, when `OVERLAP_STORE` (or an explicit store)
    /// fronted the sweep; `None` for a storeless run.
    pub store_stats: Option<StoreStats>,
    /// Worker threads actually used.
    pub workers: usize,
}

/// Execute a declarative sweep. Results come back in spec order regardless
/// of worker count or completion order, so everything derived from them
/// (tables, reports, trace hashes) is identical to a serial run.
///
/// When the `OVERLAP_STORE` environment variable names a store directory,
/// every cell consults the content-addressed [`RunStore`] before
/// simulating — a fully warm store regenerates the sweep with zero
/// simulations and zero LP solves, byte-identical to a cold run.
pub fn run_sweep(spec: &SweepSpec, cfg: &RunnerConfig) -> SweepOutcome {
    run_sweep_with_store(spec, cfg, RunStore::from_env().as_ref())
}

/// [`run_sweep`] against an explicit (or explicitly absent) store.
pub fn run_sweep_with_store(
    spec: &SweepSpec,
    cfg: &RunnerConfig,
    store: Option<&RunStore>,
) -> SweepOutcome {
    let cells = spec.cells();
    let lp_cache = LpCache::new();
    let workers = cfg.effective_workers(cells.len());
    let results = execute_jobs(cells.len(), workers, cfg.progress, |i| {
        run_via_store(&spec.scenario(&cells[i]), store, Some(&lp_cache))
    });
    SweepOutcome {
        cells,
        results,
        lp_stats: lp_cache.stats(),
        store_stats: store.map(RunStore::stats),
        workers,
    }
}

/// Execute pre-built scenarios (the escape hatch for sweeps whose axes go
/// beyond [`SweepSpec`] — scheduler/SACK/queue ablations and the like).
/// `results[i]` is `scenarios[i]`'s result; ordering guarantees are the
/// same as [`run_sweep`]'s, and an LP cache is shared across the batch.
/// Consults the `OVERLAP_STORE` run store exactly like [`run_sweep`].
pub fn run_scenarios(scenarios: &[Scenario], cfg: &RunnerConfig) -> Vec<RunResult> {
    let store = RunStore::from_env();
    let lp_cache = LpCache::new();
    let workers = cfg.effective_workers(scenarios.len());
    execute_jobs(scenarios.len(), workers, cfg.progress, |i| {
        run_via_store(&scenarios[i], store.as_ref(), Some(&lp_cache))
    })
}

/// The determinism harness for the execution engine itself: run `spec`
/// once on a single worker (the reference) and once on `workers` threads,
/// then assert cell-by-cell equality with the same observables
/// [`crate::determinism::double_run`] compares (order-sensitive trace
/// hash, event count, drops, delivered bytes) plus the binned series.
/// Panics with the offending cell on any divergence; returns the parallel
/// outcome on success.
pub fn parallel_matches_serial(spec: &SweepSpec, workers: usize) -> SweepOutcome {
    let serial = run_sweep(spec, &RunnerConfig::serial());
    let parallel = run_sweep(
        spec,
        &RunnerConfig {
            workers: workers.max(2),
            progress: false,
        },
    );
    assert_eq!(
        serial.cells, parallel.cells,
        "cell expansion must be stable"
    );
    for (cell, (a, b)) in parallel
        .cells
        .iter()
        .zip(serial.results.iter().zip(&parallel.results))
    {
        let report = determinism::compare_runs(a, b);
        assert!(
            report.is_deterministic(),
            "{cell:?} diverged between 1-worker and {}-worker execution: {}",
            parallel.workers,
            report.mismatches().join("; ")
        );
        assert_eq!(
            a.total.values(),
            b.total.values(),
            "{cell:?}: binned totals diverged despite matching trace hashes"
        );
    }
    assert_eq!(
        serial.lp_stats, parallel.lp_stats,
        "LP cache accounting must not depend on worker count"
    );
    parallel
}

/// The shared engine: run `total` index-addressed jobs on `workers`
/// threads and return results in index order.
///
/// Work distribution is an injected counter + result channel: workers
/// claim the next unclaimed index (atomic fetch-add), run it, and send
/// `(index, result)` back; the caller's thread owns the slot vector and
/// the progress meter. If any job panics, its worker drops the channel
/// sender, collection drains what finished, and `thread::scope` re-raises
/// the panic on join — a sweep never silently loses cells.
///
/// Generic over the job's result type so sweeps whose unit of work is not
/// a [`Scenario`] (the worldgen scenario-library experiments fan out whole
/// multi-connection simulations) inherit the same ordering and panic
/// semantics. The job must be a pure function of its index for the
/// determinism guarantee to mean anything — the engine only promises that
/// *collection order* is worker-count independent.
pub fn execute_jobs<R, J>(total: usize, workers: usize, progress: bool, job: J) -> Vec<R>
where
    R: Send,
    J: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(total, || None);
    let mut meter = ProgressMeter::start(total, progress);

    if workers <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(job(i));
            meter.completed(i);
        }
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        #[expect(
            clippy::disallowed_methods,
            reason = "fan-out of pure Scenario::run jobs; results re-ordered by index below, see parallel_matches_serial"
        )]
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let job = &job;
                #[expect(
                    clippy::disallowed_methods,
                    reason = "worker owns no shared mutable state beyond the claimed-index counter and the result channel"
                )]
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let result = job(i);
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            while let Ok((i, result)) = rx.recv() {
                slots[i] = Some(result);
                meter.completed(i);
            }
        });
    }

    slots
        .into_iter()
        .map(|slot| {
            #[expect(clippy::expect_used, reason = "a panicked job re-raises out of thread::scope before this point; surviving slots are all filled")]
            slot
                .expect("every job completed")
        })
        .collect()
}

/// Per-job progress and ETA on stderr. Wall-clock time is display-only
/// here: it never feeds back into any run.
struct ProgressMeter {
    total: usize,
    done: usize,
    enabled: bool,
    #[expect(
        clippy::disallowed_types,
        reason = "progress/ETA display only; no simulation input depends on it"
    )]
    started: std::time::Instant,
}

impl ProgressMeter {
    fn start(total: usize, enabled: bool) -> Self {
        ProgressMeter {
            total,
            done: 0,
            enabled,
            #[expect(
                clippy::disallowed_types,
                reason = "progress/ETA display only; no simulation input depends on it"
            )]
            started: std::time::Instant::now(),
        }
    }

    fn completed(&mut self, index: usize) {
        self.done += 1;
        if !self.enabled {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let eta = if self.done > 0 {
            elapsed / self.done as f64 * (self.total - self.done) as f64
        } else {
            f64::NAN
        };
        eprintln!(
            "[{}/{}] job {} done | elapsed {:.1}s | ETA {:.1}s",
            self.done, self.total, index, elapsed, eta
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbase::SimDuration;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            duration: SimDuration::from_millis(200),
            sample_bin: SimDuration::from_millis(50),
            default_paths: vec![1],
            seeds: vec![1, 2],
            ..SweepSpec::paper(
                &[CcAlgo::Cubic, CcAlgo::Lia],
                0..0,
                SimDuration::from_millis(200),
            )
        }
    }

    #[test]
    fn cells_expand_in_spec_order() {
        let spec = SweepSpec::paper(
            &[CcAlgo::Cubic, CcAlgo::Olia],
            0..3,
            SimDuration::from_secs(1),
        );
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 3 * 3);
        assert_eq!(cells.len(), spec.len());
        // Seed is innermost, then default path, then algorithm.
        assert_eq!(
            (cells[0].algo, cells[0].default_path, cells[0].seed),
            (CcAlgo::Cubic, 0, 0)
        );
        assert_eq!(
            (cells[1].algo, cells[1].default_path, cells[1].seed),
            (CcAlgo::Cubic, 0, 1)
        );
        assert_eq!(
            (cells[3].algo, cells[3].default_path, cells[3].seed),
            (CcAlgo::Cubic, 1, 0)
        );
        assert_eq!(
            (cells[9].algo, cells[9].default_path, cells[9].seed),
            (CcAlgo::Olia, 0, 0)
        );
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn empty_axis_means_empty_sweep() {
        let spec = SweepSpec::paper(&[CcAlgo::Cubic], 0..0, SimDuration::from_secs(1));
        assert!(spec.is_empty());
        assert_eq!(spec.cells(), Vec::new());
        let outcome = run_sweep(&spec, &RunnerConfig::default());
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.lp_stats.total(), 0);
    }

    #[test]
    fn scenario_construction_is_deterministic() {
        let spec = tiny_spec();
        let cells = spec.cells();
        for cell in &cells {
            let a = spec.scenario(cell);
            let b = spec.scenario(cell);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.algo, b.algo);
            assert_eq!(a.default_path, b.default_path);
            assert_eq!(a.duration, b.duration);
        }
    }

    #[test]
    fn worker_resolution_clamps_to_jobs() {
        let cfg = RunnerConfig {
            workers: 8,
            progress: false,
        };
        assert_eq!(cfg.effective_workers(3), 3);
        assert_eq!(cfg.effective_workers(0), 1);
        assert_eq!(RunnerConfig::serial().effective_workers(100), 1);
        assert!(RunnerConfig::auto().effective_workers(100) >= 1);
    }

    #[test]
    fn sweep_collects_in_spec_order_with_lp_memoization() {
        let spec = tiny_spec();
        let outcome = run_sweep(
            &spec,
            &RunnerConfig {
                workers: 3,
                progress: false,
            },
        );
        assert_eq!(outcome.results.len(), 4);
        // Same default path + capacities for every cell: one LP solve.
        assert_eq!(outcome.lp_stats.misses, 1);
        assert_eq!(outcome.lp_stats.hits, 3);
        // Same (algo, seed) cells must equal a direct serial run.
        let direct = spec.scenario(&outcome.cells[0]).run();
        assert_eq!(outcome.results[0].trace_hash, direct.trace_hash);
    }

    #[test]
    fn run_scenarios_maps_index_to_index() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let scenarios: Vec<Scenario> = cells.iter().map(|c| spec.scenario(c)).collect();
        let results = run_scenarios(
            &scenarios,
            &RunnerConfig {
                workers: 2,
                progress: false,
            },
        );
        assert_eq!(results.len(), scenarios.len());
        for (i, cell) in cells.iter().enumerate() {
            let direct = spec.scenario(cell).run();
            assert_eq!(
                results[i].trace_hash, direct.trace_hash,
                "slot {i} must hold cell {i}'s result"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_on_a_tiny_sweep() {
        let outcome = parallel_matches_serial(&tiny_spec(), 4);
        assert_eq!(outcome.results.len(), 4);
        assert!(outcome.workers >= 2);
    }

    #[test]
    fn warm_store_answers_a_sweep_without_simulating() {
        let spec = tiny_spec();
        let dir =
            std::env::temp_dir().join(format!("overlap-runner-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).expect("store dir");

        let cold = run_sweep_with_store(&spec, &RunnerConfig::serial(), Some(&store));
        assert_eq!(cold.store_stats.expect("store active").misses, 4);
        assert_eq!(cold.store_stats.expect("store active").hits, 0);
        assert_eq!(cold.lp_stats.total(), 4);

        // Warm pass, parallel this time: every cell a hit, no simulation
        // and therefore no LP activity at all, identical results.
        let warm = run_sweep_with_store(
            &spec,
            &RunnerConfig {
                workers: 3,
                progress: false,
            },
            Some(&store),
        );
        let stats = warm.store_stats.expect("store active");
        assert_eq!(stats.hits, 4, "all four cells answered from disk");
        assert_eq!(stats.misses, 4, "only the cold pass missed");
        assert_eq!(
            warm.lp_stats.total(),
            0,
            "a fully warm sweep never touches the LP cache"
        );
        for (a, b) in cold.results.iter().zip(&warm.results) {
            assert_eq!(a.trace_hash, b.trace_hash);
            assert_eq!(a.total.values(), b.total.values());
            assert_eq!(a.events_scheduled, b.events_scheduled);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
