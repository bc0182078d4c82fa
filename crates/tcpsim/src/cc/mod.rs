//! Pluggable congestion control.
//!
//! The sender separates *reliability* (what to retransmit) from *rate
//! control* (how much may be in flight); this module owns the latter. The
//! interface is deliberately event-based — `on_ack`, `on_loss_event`,
//! `on_rto` — because both the standalone algorithm here (CUBIC) and the
//! MPTCP *coupled* algorithms in `mptcpsim::cc` (LIA, OLIA, BALIA, wVegas)
//! fit it: a coupled algorithm is just a `CongestionControl` whose
//! increase rule reads shared state from its sibling subflows.
//!
//! All windows are in **bytes** at the interface (fractional growth is kept
//! internally), and a window never falls below two segments, mirroring
//! RFC 5681's minimums.

pub mod cubic;

pub use cubic::Cubic;

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
    /// Minimum RTT over the last [`crate::rtt::MIN_RTT_WINDOW`] on this
    /// path (base RTT); `None` unless the controller reads it
    /// ([`CongestionControl::reads_min_rtt`]) and a sample exists.
    pub min_rtt: Option<SimDuration>,
    /// Bytes in flight *before* this ACK was processed.
    pub flight_size: u64,
    /// Sender maximum segment size.
    pub mss: u32,
}

/// A congestion-control algorithm instance (one per TCP flow / subflow):
/// the interface a [`crate::TcpSender`] calls.
///
/// A sender does not own its controller: the caller keeps it and lends it
/// on every sender call that consults it (`poll_segment`, `on_ack`,
/// `on_timer`, `send_window`). `mptcpsim` keeps a connection's controllers
/// in one value and lends a coupled subflow a view over the connection's
/// coupling state for the length of the call, so copying that value is a
/// checkpoint of every controller.
pub trait CongestionControl: std::fmt::Debug {
    /// An ACK advanced the left window edge.
    fn on_ack(&mut self, ctx: &AckContext);

    /// A loss was detected by fast retransmit (at most once per window),
    /// with `flight_size` bytes in flight.
    fn on_loss_event(&mut self, flight_size: u64);

    /// The retransmission timer expired with `flight_size` bytes in flight.
    fn on_rto(&mut self, flight_size: u64);

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> u64;

    /// Whether this controller reads [`AckContext::min_rtt`]. A sender
    /// keeps the windowed-minimum filter ([`crate::rtt::MinRttFilter`]) only
    /// for a controller that does, asked once when it starts: a delay-based
    /// law (CUBIC's HyStart, wVegas) says `true`, a loss-based one keeps
    /// the default.
    fn reads_min_rtt(&self) -> bool {
        false
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

    /// True while in slow start.
    pub fn in_slow_start(cc: &dyn CongestionControl) -> bool {
        cc.cwnd() < cc.ssthresh()
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
