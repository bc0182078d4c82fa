//! # simtrace — measurement and analysis for simulator output
//!
//! The measurement half of the paper's methodology (tshark at the receiver,
//! filtered by tag, binned at 10/100 ms):
//!
//! * [`sampler`] — capture records → per-tag throughput [`TimeSeries`].
//! * [`series`] — windowed means, smoothing, summation, CoV.
//! * [`summary`] — Jain fairness.
//! * [`export`] — CSV output and terminal ASCII charts (the Figure-2
//!   reproductions render directly in the console).
//! * [`invariant`] — trace-level invariant checks and the order-sensitive
//!   trace hash behind the double-run determinism harness.
//! * [`sink`] — the streaming capture sink that runs hash, invariants and
//!   sampler on each record as the simulator emits it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod invariant;
pub mod sampler;
pub mod series;
pub mod sink;
pub mod summary;

pub use export::{ascii_chart, to_csv, ChartOptions};
pub use invariant::{check_trace, default_invariants, InvariantViolation, Invariants, TraceHasher};
pub use sampler::{SamplerConfig, TagBins, ThroughputSampler};
pub use series::TimeSeries;
pub use sink::TraceSink;
pub use summary::jain_fairness;
