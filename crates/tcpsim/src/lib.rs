//! # tcpsim — a sans-IO TCP engine for the network simulator
//!
//! A faithful-at-the-right-granularity TCP implementation:
//!
//! * [`seq`] — 32-bit wrapping sequence arithmetic over 64-bit offsets.
//! * [`wire`] — real header encode/decode (timestamps, SACK, MPTCP DSS).
//! * [`rtt`] — RFC 6298 estimation with Linux's 200 ms RTO floor.
//! * [`cc`] — pluggable congestion control: CUBIC (RFC 8312), the uncoupled
//!   law; `mptcpsim::cc` adds the coupled ones.
//! * [`sender`] / [`receiver`] — sans-IO state machines: fast retransmit,
//!   NewReno recovery, RTO go-back-N, out-of-order reassembly, an ACK per
//!   data segment.
//! * [`ranges`] — the sorted-vector range set behind the SACK scoreboard,
//!   the out-of-order buffer and `mptcpsim`'s DSN reassembly.
//! * [`app`] — traffic models (unlimited/iperf, fixed).
//!
//! The *sans-IO* structure (state machines that return segments rather than
//! sending them) is what lets `mptcpsim` embed several senders in one MPTCP
//! connection agent and attach DSS mappings before transmission. There is
//! no single-path agent: a single-path flow is an MPTCP connection with one
//! subflow, as in the kernel the paper measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod cc;
pub mod ranges;
pub mod receiver;
pub mod rtt;
pub mod sender;
pub mod seq;
pub mod wire;

pub use app::AppSource;
pub use cc::{AckContext, CongestionControl, Cubic};
pub use ranges::RangeSet;
pub use receiver::{ReceiverConfig, TcpReceiver, RECEIVE_WINDOW};
pub use rtt::RttEstimator;
pub use sender::{SegmentTx, SenderStats, TcpConfig, TcpSender, MSS};
pub use seq::{SeqNum, ISN};
pub use wire::{DssOption, TcpFlags, TcpSegment, Timestamps, WireError};
