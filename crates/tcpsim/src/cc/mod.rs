//! Pluggable congestion control.
//!
//! The sender separates *reliability* (what to retransmit) from *rate
//! control* (how much may be in flight); this module owns the latter. The
//! interface is deliberately event-based — `on_ack`, `on_loss_event`,
//! `on_rto` — because both the standalone algorithms here (Reno, CUBIC,
//! Vegas) and the MPTCP *coupled* algorithms in `mptcpsim::cc` (LIA, OLIA,
//! BALIA) fit it: a coupled algorithm is just a `CongestionControl` whose
//! increase rule reads shared state from its sibling subflows.
//!
//! All windows are in **bytes** at the interface (fractional growth is kept
//! internally), and a window never falls below two segments, mirroring
//! RFC 5681's minimums.

pub mod cubic;
pub mod reno;
pub mod vegas;

pub use cubic::Cubic;
pub use reno::Reno;
pub use vegas::Vegas;

use simbase::{SimDuration, SimTime};

/// Information accompanying an ACK that advanced `snd_una`.
#[derive(Debug, Clone, Copy)]
pub struct AckContext {
    /// Current simulated time.
    pub now: SimTime,
    /// Bytes newly acknowledged by this ACK.
    pub bytes_acked: u64,
    /// Smoothed RTT, if at least one sample exists.
    pub srtt: Option<SimDuration>,
    /// The most recent raw RTT sample.
    pub latest_rtt: Option<SimDuration>,
    /// Minimum RTT observed on this path (base RTT).
    pub min_rtt: Option<SimDuration>,
    /// Bytes in flight *before* this ACK was processed.
    pub flight_size: u64,
    /// Sender maximum segment size.
    pub mss: u32,
}

/// Information accompanying a loss signal.
#[derive(Debug, Clone, Copy)]
pub struct LossContext {
    /// Current simulated time.
    pub now: SimTime,
    /// Bytes in flight when the loss was detected.
    pub flight_size: u64,
    /// Sender maximum segment size.
    pub mss: u32,
}

/// A congestion-control algorithm instance (one per TCP flow / subflow).
pub trait CongestionControl: std::fmt::Debug {
    /// An ACK advanced the left window edge.
    fn on_ack(&mut self, ctx: &AckContext);

    /// A loss was detected by fast retransmit (at most once per window).
    fn on_loss_event(&mut self, ctx: &LossContext);

    /// The retransmission timer expired.
    fn on_rto(&mut self, ctx: &LossContext);

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> u64;

    /// True while in slow start.
    fn in_slow_start(&self) -> bool {
        self.cwnd() < self.ssthresh()
    }

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Deep-copy this algorithm's state into a fresh boxed instance.
    ///
    /// Required for simulator checkpointing: a snapshot must own an
    /// independent copy of every flow's congestion state so the branched
    /// run and the original cannot influence each other. Coupled MPTCP
    /// algorithms clone their *handle* here (the shared state is re-bound
    /// by the owning agent after the whole bundle is copied).
    fn clone_boxed(&self) -> Box<dyn CongestionControl>;

    /// Downcast support for post-clone fixups.
    ///
    /// `mptcpsim` uses this to re-point a cloned coupled algorithm at the
    /// snapshot's own shared-state `Arc`. Standalone algorithms keep the
    /// default.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

impl Clone for Box<dyn CongestionControl> {
    fn clone(&self) -> Self {
        self.clone_boxed()
    }
}

/// Floor applied to every window: two segments (RFC 5681 loss-window
/// handling keeps flows from stalling entirely).
pub fn min_cwnd(mss: u32) -> f64 {
    2.0 * mss as f64
}

/// The default initial window: 10 segments (RFC 6928, the Linux default
/// since 3.0 — the kernel the paper used).
pub fn initial_window(mss: u32) -> u64 {
    10 * mss as u64
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    pub const MSS: u32 = 1460;

    pub fn ack(now_ms: u64, bytes: u64, flight: u64) -> AckContext {
        AckContext {
            now: SimTime::from_millis(now_ms),
            bytes_acked: bytes,
            srtt: Some(SimDuration::from_millis(10)),
            latest_rtt: Some(SimDuration::from_millis(10)),
            min_rtt: Some(SimDuration::from_millis(10)),
            flight_size: flight,
            mss: MSS,
        }
    }

    pub fn loss(now_ms: u64, flight: u64) -> LossContext {
        LossContext {
            now: SimTime::from_millis(now_ms),
            flight_size: flight,
            mss: MSS,
        }
    }

    /// Drive an algorithm with one bulk ACK per `rtt_ms` for `rtts` rounds,
    /// acking the whole current window each round (the standard macroscopic
    /// model of an uncongested bulk flow).
    pub fn run_rtts(cc: &mut dyn CongestionControl, start_ms: u64, rtt_ms: u64, rtts: u32) -> u64 {
        let mut t = start_ms;
        for _ in 0..rtts {
            let w = cc.cwnd();
            // Deliver the window as MSS-sized ACKs.
            let mut remaining = w;
            while remaining > 0 {
                let chunk = remaining.min(MSS as u64);
                cc.on_ack(&ack(t, chunk, w));
                remaining -= chunk;
            }
            t += rtt_ms;
        }
        cc.cwnd()
    }
}
