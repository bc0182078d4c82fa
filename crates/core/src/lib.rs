//! # overlap-core — the paper's scenarios and experiment harness
//!
//! This crate is the reproduction's front door. It ties the substrates
//! together into the experiments of *"The Performance of Multi-Path TCP
//! with Overlapping Paths"*:
//!
//! * [`paper`] — the Figure-1 six-node network with three pairwise-
//!   overlapping paths (both constraint variants; see DESIGN.md §2).
//! * [`world`] — the one simulator builder every packet run below goes
//!   through: streaming sink, typed endpoint handles, `Clone` as checkpoint.
//! * [`scenario`] — one configured run: tag routing, MPTCP endpoints,
//!   deterministic simulation, tshark-style sampling, LP ground truth.
//! * [`experiments`] — the catalog: Figure 2a/2b/2c and the Results-section
//!   table, plus sweeps used by the benchmark binaries.
//! * [`randomnet`] — generalized overlapping topologies (every pair of
//!   paths shares one bottleneck) for beyond-the-paper experiments.
//! * [`runner`] — the deterministic parallel sweep engine: declarative
//!   cartesian-product specs fanned across a worker pool, results in spec
//!   order, LP ground truth memoized.
//! * [`fluidcheck`] — fluid ⇄ packet ⇄ LP cross-validation: lines the ODE
//!   equilibria of `fluidsim` up against packet runs and the LP optimum
//!   and renders `results/fluid_table.txt`.
//! * [`failover`] — the fault-injection experiment: kill the default
//!   path's private link mid-run, restore it, and measure recovery time
//!   and post-failure throughput against the LP optimum recomputed on the
//!   surviving constraint set; renders `results/failover_table.txt`.
//! * [`worldexp`] — population-scale experiments on the `worldgen`
//!   scenario library: many-connection fat-tree ECMP runs regressed
//!   against subflow overlap class, heavy-tailed traffic programs on a
//!   shared bottleneck, mobility handover comparisons, and a fluid
//!   cross-check; renders `results/worldgen_table.txt`.
//! * [`store`] — content-addressed run persistence: scenarios reduce to a
//!   canonical digest over every run input, finished [`RunResult`]s are
//!   kept on disk under it, and a warm store regenerates tables without
//!   simulating (activated via the `OVERLAP_STORE` directory variable).
//! * [`report`] — terminal rendering (ASCII charts, summary tables).
//!
//! ```no_run
//! use overlap_core::prelude::*;
//!
//! let net = PaperNetwork::new();
//! let result = Scenario {
//!     default_path: net.default_path,
//!     ..Scenario::new(net.topology, net.paths)
//! }
//! .with_algo(CcAlgo::Cubic)
//! .run();
//! println!("total: {:.1} / {:.1} Mbps", result.steady_total_mbps(), result.lp.total_mbps);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod determinism;
pub mod experiments;
pub mod failover;
pub mod fluidcheck;
pub mod paper;
pub mod randomnet;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod store;
pub mod world;
pub mod worldexp;

pub use determinism::{assert_deterministic, compare_runs, double_run, DeterminismReport};
pub use experiments::{
    fig2a, fig2b, fig2b_long, fig2c, results_table_with, results_table_with_store,
    tight_utilisation, ResultsRow, AT_OPTIMUM_UTILISATION, FIG2_SEED,
};
pub use failover::{
    exclusive_link, failover_base_scenario, failover_scenario, failover_table_document,
    recovery_time_s, render_outage_sweeps, run_failover, run_outage_sweep, FailoverCell,
    FailoverConfig, FailoverOutcome, FailoverRow, FailoverSetup, OutageSweep, OutageVariantCell,
};
pub use fluidcheck::{
    fluid_paper_run, fluid_table_document, paper_cross_table, random_cross_table, CrossRow,
    RandomCrossRow, FLUID_HORIZON_S,
};
pub use paper::{ConstraintVariant, PaperNetwork, PaperNetworkConfig};
pub use randomnet::{RandomOverlapConfig, RandomOverlapNet};
pub use runner::{
    execute_jobs, parallel_matches_serial, run_scenarios, run_sweep, run_sweep_with_store,
    RunnerConfig, SweepCell, SweepOutcome, SweepSpec, TopologySpec,
};
pub use scenario::{CrossTraffic, RunResult, Scenario, ScenarioCheckpoint};
pub use store::{run_via_store, RunStore, StoreStats};
pub use world::{ReceiverId, SenderId, World};
pub use worldexp::{
    crosscheck_rows, render_worldgen, run_fabric, run_mobility, run_traffic, verify_worldgen,
    worldgen_report, worldgen_table_document, FabricCell, FabricRun, MobilityRun, SubflowSelector,
    TrafficCell, TrafficRun, WorldCrossRow, WorldgenReport,
};

/// The most frequently used types, re-exported for glob import.
pub mod prelude {
    pub use crate::experiments::{
        fig2a, fig2b, fig2b_long, fig2c, results_table_with, results_table_with_store,
        tight_utilisation, ResultsRow, AT_OPTIMUM_UTILISATION,
    };
    pub use crate::failover::{
        failover_table_document, run_failover, FailoverConfig, FailoverOutcome, FailoverSetup,
    };
    pub use crate::fluidcheck::{
        fluid_paper_run, fluid_table_document, paper_cross_table, random_cross_table, CrossRow,
        RandomCrossRow, FLUID_HORIZON_S,
    };
    pub use crate::paper::{ConstraintVariant, PaperNetwork, PaperNetworkConfig};
    pub use crate::randomnet::{RandomOverlapConfig, RandomOverlapNet};
    pub use crate::report::{render_run, render_table};
    pub use crate::runner::{
        parallel_matches_serial, run_scenarios, run_sweep, RunnerConfig, SweepCell, SweepOutcome,
        SweepSpec, TopologySpec,
    };
    pub use crate::scenario::{CrossTraffic, RunResult, Scenario, ScenarioCheckpoint};
    pub use crate::store::{run_via_store, RunStore, StoreStats};
    pub use crate::world::World;
    pub use crate::worldexp::{
        run_fabric, run_mobility, run_traffic, worldgen_report, worldgen_table_document,
        FabricCell, SubflowSelector, TrafficCell,
    };
    pub use fluidsim::{solve, FluidLaw, FluidModel, FluidOutcome, FluidRun};
    pub use mptcpsim::{CcAlgo, SchedulerKind};
    pub use netsim::{Path, QueueConfig, Topology};
    pub use simbase::{Bandwidth, SimDuration, SimTime};
    pub use simtrace::{ascii_chart, to_csv, ChartOptions, TimeSeries};
    pub use tcpsim::AppSource;
}
