//! TCP Reno / NewReno congestion avoidance (RFC 5681).
//!
//! The classic AIMD baseline: slow start doubles the window each RTT,
//! congestion avoidance adds one segment per RTT, a fast-retransmit loss
//! halves the window, a timeout resets it to one segment. The MPTCP coupled
//! algorithms (LIA/OLIA/BALIA) are all defined as modifications of Reno's
//! *increase* rule, so this implementation is also the template for
//! `mptcpsim::cc`.

use super::{min_cwnd, AckContext, CongestionControl, LossContext};

/// Reno congestion control state.
#[derive(Debug, Clone)]
pub struct Reno {
    /// Congestion window in bytes (fractional growth accumulates here).
    cwnd: f64,
    /// Slow-start threshold in bytes.
    ssthresh: f64,
    mss: u32,
}

impl Reno {
    /// Create with an initial window in bytes (see
    /// [`super::initial_window`]) and an effectively infinite `ssthresh`.
    pub fn new(initial_cwnd: u64, mss: u32) -> Self {
        Reno {
            cwnd: initial_cwnd as f64,
            ssthresh: f64::INFINITY,
            mss,
        }
    }
}

impl CongestionControl for Reno {
    fn on_ack(&mut self, ctx: &AckContext) {
        let bytes = ctx.bytes_acked as f64;
        if self.cwnd < self.ssthresh {
            // Slow start: one MSS per MSS acked (i.e. exponential per RTT),
            // not overshooting ssthresh by more than the acked amount.
            self.cwnd += bytes;
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh + (self.mss as f64);
            }
        } else {
            // Congestion avoidance: MSS^2 / cwnd per acked MSS
            // (≈ one MSS per RTT).
            self.cwnd += (self.mss as f64) * bytes / self.cwnd;
        }
    }

    fn on_loss_event(&mut self, ctx: &LossContext) {
        let flight = ctx.flight_size as f64;
        self.ssthresh = (flight / 2.0).max(min_cwnd(ctx.mss));
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, ctx: &LossContext) {
        let flight = ctx.flight_size as f64;
        self.ssthresh = (flight / 2.0).max(min_cwnd(ctx.mss));
        // Loss window: one segment (RFC 5681 §3.1, equation 4).
        self.cwnd = ctx.mss as f64;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd.max(self.mss as f64) as u64
    }

    fn ssthresh(&self) -> u64 {
        if self.ssthresh.is_finite() {
            self.ssthresh as u64
        } else {
            u64::MAX
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{ack, in_slow_start, loss, run_rtts, MSS};
    use super::*;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = Reno::new(10 * MSS as u64, MSS);
        let w0 = cc.cwnd();
        run_rtts(&mut cc, 0, 10, 1);
        assert_eq!(cc.cwnd(), 2 * w0);
        run_rtts(&mut cc, 10, 10, 1);
        assert_eq!(cc.cwnd(), 4 * w0);
        assert!(in_slow_start(&cc));
    }

    #[test]
    fn congestion_avoidance_adds_one_mss_per_rtt() {
        let mut cc = Reno::new(10 * MSS as u64, MSS);
        // Force CA by taking a loss first.
        cc.on_loss_event(&loss(0, 20 * MSS as u64));
        let w = cc.cwnd();
        assert!(!in_slow_start(&cc));
        run_rtts(&mut cc, 0, 10, 1);
        let grown = cc.cwnd() - w;
        // One MSS per RTT, within rounding.
        assert!(
            grown >= (MSS - 100) as u64 && grown <= (MSS + 20) as u64,
            "grew {grown}"
        );
    }

    #[test]
    fn loss_halves_flight() {
        let mut cc = Reno::new(10 * MSS as u64, MSS);
        let flight = 40 * MSS as u64;
        cc.on_loss_event(&loss(0, flight));
        assert_eq!(cc.cwnd(), flight / 2);
        assert_eq!(cc.ssthresh(), flight / 2);
    }

    #[test]
    fn rto_collapses_to_one_segment() {
        let mut cc = Reno::new(10 * MSS as u64, MSS);
        cc.on_rto(&loss(0, 40 * MSS as u64));
        // cwnd() floors at one MSS externally.
        assert_eq!(cc.cwnd(), MSS as u64);
        assert_eq!(cc.ssthresh(), 20 * MSS as u64);
        assert!(in_slow_start(&cc));
    }

    #[test]
    fn window_never_collapses_below_two_segments_on_loss() {
        let mut cc = Reno::new(10 * MSS as u64, MSS);
        cc.on_loss_event(&loss(0, 1000)); // tiny flight
        assert!(cc.cwnd() >= 2 * MSS as u64);
    }

    #[test]
    fn slow_start_exit_is_bounded() {
        let mut cc = Reno::new(10 * MSS as u64, MSS);
        cc.on_loss_event(&loss(0, 100 * MSS as u64)); // ssthresh = 50 MSS
        cc.on_rto(&loss(1, 100 * MSS as u64)); // cwnd = 1 MSS, ssthresh = 50
                                               // Grow back: should not overshoot ssthresh by more than ~1 MSS
                                               // at the slow start -> CA transition.
        run_rtts(&mut cc, 10, 10, 6); // 1 -> 2 -> 4 -> ... -> 64 capped
        assert!(
            cc.cwnd() <= 51 * MSS as u64 + MSS as u64,
            "cwnd={}",
            cc.cwnd()
        );
    }

    #[test]
    fn sawtooth_shape() {
        // loss -> additive growth -> loss: the long-run average sits between
        // w/2 and w.
        let mut cc = Reno::new(10 * MSS as u64, MSS);
        cc.on_loss_event(&loss(0, 32 * MSS as u64)); // w = 16 MSS
        let low = cc.cwnd();
        run_rtts(&mut cc, 0, 10, 16);
        let high = cc.cwnd();
        assert!(high > low + 14 * MSS as u64, "additive climb missing");
        cc.on_loss_event(&loss(200, high));
        assert_eq!(cc.cwnd(), high / 2);
    }

    #[test]
    fn ack_context_fields_dont_panic() {
        // Missing RTT info (pre-first-sample) must be tolerated.
        let mut cc = Reno::new(10 * MSS as u64, MSS);
        let mut c = ack(0, MSS as u64, 0);
        c.srtt = None;
        c.latest_rtt = None;
        c.min_rtt = None;
        cc.on_ack(&c);
        assert!(cc.cwnd() > 10 * MSS as u64);
    }
}
