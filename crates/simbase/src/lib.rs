//! # simbase — deterministic discrete-event simulation primitives
//!
//! This crate holds the small, dependency-free building blocks shared by the
//! whole workspace:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time with
//!   saturating/checked arithmetic, so a run is bit-for-bit reproducible.
//! * [`EventQueue`] — a hierarchical-timing-wheel event queue with
//!   deterministic FIFO tie-breaking for events scheduled at the same
//!   instant, caller-keyed ties where the order must not depend on push
//!   order, and first-class cancellation tokens (a test-only binary-heap
//!   backend is the oracle of its differential tests).
//! * [`Bandwidth`] / [`ByteSize`] — strongly typed units so "40" can never be
//!   silently read as megabits when bytes were meant, plus exact
//!   transmission-time computation in integer arithmetic.
//! * [`SplitMix64`] / [`Xoshiro256StarStar`] — tiny, seedable, portable PRNGs
//!   (no platform entropy) so every simulation is replayable from its seed.
//!
//! Everything here is `no_std`-shaped in spirit (no I/O, no threads, no
//! clocks); the simulator above it supplies all effects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod rng;
pub mod time;
pub mod units;

pub use event::{EventQueue, ScheduledEvent};
pub use rng::{SimRng, SplitMix64, Xoshiro256StarStar};
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, ByteSize};
