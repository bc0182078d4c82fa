//! # mptcp-overlap — facade crate
//!
//! A reproduction of *"The Performance of Multi-Path TCP with Overlapping
//! Paths"* (Zongor et al., SIGCOMM Posters & Demos 2019). This crate simply
//! re-exports the workspace's public API so applications can depend on a
//! single crate:
//!
//! * [`simbase`] — simulated time, deterministic event queue, units, RNGs.
//! * [`netsim`] — packet-level network simulator with tag routing.
//! * [`tcpsim`] — sans-IO TCP engine with pluggable congestion control.
//! * [`mptcpsim`] — MPTCP: subflows, schedulers, coupled congestion control.
//! * [`lpsolve`] — simplex solvers and the max-throughput LP ground truth.
//! * [`simtrace`] — receiver-side measurement, time series, stability.
//! * [`fluidsim`] — deterministic ODE fluid model: a second ground truth
//!   for the coupled controllers' equilibria.
//! * [`worldgen`] — internet-scale scenario library: seeded fat-tree ECMP
//!   fabrics, heavy-tailed traffic programs, mobility handover profiles.
//! * [`overlap_core`] — the paper's scenarios and experiment harness.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use fluidsim;
pub use lpsolve;
pub use netsim;
pub use overlap_core;
pub use simbase;
pub use simtrace;
pub use worldgen;

#[doc(hidden)]
pub mod perfbench_compat;

/// The `tcpsim` crate, with one compatibility item for perfbench.
pub mod tcpsim {
    #[doc(hidden)]
    pub use crate::perfbench_compat::TcpSender;
    pub use ::tcpsim::*;
}

/// The `mptcpsim` crate, with one compatibility item for perfbench.
pub mod mptcpsim {
    #[doc(hidden)]
    pub use crate::perfbench_compat::Coupling;
    pub use ::mptcpsim::*;
}

/// Convenient glob-import of the most frequently used types.
pub mod prelude {
    pub use overlap_core::prelude::*;
}
