//! # worldgen — deterministic internet-scale scenario generators
//!
//! Every experiment in this repository up to now ran one MPTCP connection
//! over the paper's six-node network (or a small random variant). This
//! crate opens the workload axis: seed-driven generators that produce
//! [`netsim::Topology`] instances, path sets, and traffic programs for
//! three scenario families the paper's population-scale claims live in:
//!
//! * [`fattree`] — k-ary fat-tree datacenters with per-switch seeded ECMP
//!   hashing, an MPTCP path extractor that predicts exactly which links a
//!   flow's subflows will traverse (the Table-1 disjoint-vs-overlapping
//!   taxonomy at fabric scale), and a Nakasan-style max-disjoint selector
//!   as the comparison point.
//! * [`traffic`] — heavy-tailed traffic programs: Poisson connection
//!   arrivals with bounded-Pareto flow sizes, compiled into per-connection
//!   start times and transfer sizes on the deterministic event loop, plus
//!   a shared-bottleneck substrate sized for hundreds-to-thousands of
//!   concurrent connections.
//! * [`mobility`] — a wifi+cellular network whose walk-away-and-back
//!   handover pattern compiles into a [`netsim::FaultSchedule`]: periodic
//!   RSSI-style capacity/delay ramps and hard handover as link down/up.
//!
//! ## Determinism contract
//!
//! A generator's output is a pure function of its seed and size inputs;
//! link speeds, delays, queues and size distributions are named constants
//! in each module. No wall clock, no global RNG, no iteration over hash
//! containers: two calls with equal inputs yield byte-identical
//! topologies, paths, and schedules, on any machine and any thread count. Randomness comes from
//! [`simbase::SplitMix64::derive`] with documented stream labels, so
//! adding a draw to one stream never shifts any other stream. DESIGN.md
//! §12 states the contract; the proptests in this crate enforce it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fattree;
pub mod mobility;
pub mod traffic;

pub use fattree::{collision_rate, FatTree, FatTreeConfig, PairClass};
pub use mobility::MobileNet;
pub use traffic::{Connection, TrafficConfig, TrafficNet, TrafficNetConfig, TrafficProgram};

/// Stream label for per-switch ECMP hash seeds (mixed with the node id).
pub const STREAM_ECMP_SWITCH: u64 = 0x11 << 32;
/// Stream label for per-connection subflow flow hashes (mixed with the
/// subflow index).
pub const STREAM_SUBFLOW: u64 = 0x12 << 32;
/// Stream label for the Poisson arrival process.
pub const STREAM_ARRIVAL: u64 = 0x13 << 32;
/// Stream label for the Pareto size process.
pub const STREAM_SIZE: u64 = 0x14 << 32;
/// Stream label for host-pairing shuffles.
pub const STREAM_PAIRING: u64 = 0x15 << 32;
