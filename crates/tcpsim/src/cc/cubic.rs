//! CUBIC congestion control (RFC 8312).
//!
//! The Linux default since 2.6.19 and the algorithm behind the paper's
//! headline result: *uncoupled* CUBIC on each MPTCP subflow "shakes down"
//! into the optimal rate allocation. The implementation follows RFC 8312:
//!
//! * window growth `W(t) = C·(t − K)³ + W_max` around the last loss point,
//! * multiplicative decrease by `β = 0.7`,
//! * fast convergence (release capacity when a flow's max shrinks) and
//!   HyStart's delay-increase exit from slow start, both always on as in
//!   Linux,
//! * the TCP-friendly region (never slower than an equivalent Reno flow).
//!
//! Internal arithmetic is in MSS units and seconds, as in the RFC's
//! formulas; the public interface is bytes.

use super::{min_cwnd, AckContext, CongestionControl};
use simbase::{SimDuration, SimTime};

/// RFC 8312 constants.
const C: f64 = 0.4;
const BETA: f64 = 0.7;

/// CUBIC congestion control state.
#[derive(Debug, Clone)]
pub struct Cubic {
    /// Congestion window, in MSS units (fractional).
    cwnd: f64,
    /// Slow-start threshold, MSS units.
    ssthresh: f64,
    mss: u32,
    /// Window size just before the last reduction (MSS units).
    w_max: f64,
    /// Time offset of the cubic origin, seconds.
    k: f64,
    /// Start of the current growth epoch.
    epoch_start: Option<SimTime>,
    /// Reno-equivalent window estimate for the TCP-friendly region.
    w_est: f64,
}

impl Cubic {
    /// Create with an initial window in bytes.
    pub fn new(initial_cwnd: u64, mss: u32) -> Self {
        Cubic {
            cwnd: initial_cwnd as f64 / mss as f64,
            ssthresh: f64::INFINITY,
            mss,
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
            w_est: 0.0,
        }
    }

    fn mss_f(&self) -> f64 {
        self.mss as f64
    }

    /// The cubic function W(t) in MSS units.
    fn w_cubic(&self, t: f64) -> f64 {
        C * (t - self.k).powi(3) + self.w_max
    }

    fn enter_epoch(&mut self, now: SimTime) {
        self.epoch_start = Some(now);
        if self.cwnd < self.w_max {
            // Continue the previous cubic curve from below.
            self.k = ((self.w_max - self.cwnd) / C).cbrt();
        } else {
            // Above the old maximum: start a fresh convex segment.
            self.k = 0.0;
            self.w_max = self.cwnd;
        }
        self.w_est = self.cwnd;
    }

    fn reduce(&mut self) {
        self.epoch_start = None;
        if self.cwnd < self.w_max {
            // The flow's ceiling is shrinking: release capacity faster so
            // competing (new) flows can take it — RFC 8312 §4.6.
            self.w_max = self.cwnd * (2.0 - BETA) / 2.0;
        } else {
            self.w_max = self.cwnd;
        }
        self.cwnd = (self.cwnd * BETA).max(min_cwnd(self.mss) / self.mss_f());
        self.ssthresh = self.cwnd;
    }
}

impl CongestionControl for Cubic {
    fn on_ack(&mut self, ctx: &AckContext) {
        let acked_mss = ctx.bytes_acked as f64 / self.mss_f();
        if self.cwnd < self.ssthresh {
            // HyStart (delay-increase half, on as in Linux): queueing delay
            // building up is the signal to stop doubling before the queue
            // overflows.
            if self.cwnd >= 16.0 {
                if let (Some(latest), Some(min)) = (ctx.latest_rtt, ctx.min_rtt) {
                    let eta = (min.as_secs_f64() / 8.0).clamp(0.004, 0.016);
                    if latest.as_secs_f64() >= min.as_secs_f64() + eta {
                        self.ssthresh = self.cwnd;
                        self.enter_epoch(ctx.now);
                        return;
                    }
                }
            }
            self.cwnd += acked_mss;
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh + 1.0;
            }
            return;
        }

        // Congestion avoidance.
        let rtt = ctx
            .srtt
            .or(ctx.latest_rtt)
            .unwrap_or(SimDuration::from_millis(100))
            .as_secs_f64();
        if self.epoch_start.is_none() {
            self.enter_epoch(ctx.now);
        }
        // epoch_start was just seeded above; unwrap_or only for the lint contract.
        let t = (ctx.now - self.epoch_start.unwrap_or(ctx.now)).as_secs_f64();

        // Target: where the cubic curve will be one RTT from now.
        let target = self.w_cubic(t + rtt);
        let cubic_inc = if target > self.cwnd {
            (target - self.cwnd) / self.cwnd
        } else {
            // Very slow growth when at/above target (RFC: 1% of cwnd per RTT
            // worth of ACKs).
            0.01 / self.cwnd
        };
        self.cwnd += cubic_inc * acked_mss;

        // TCP-friendly region (RFC 8312 §4.2): track the window standard
        // Reno would have, and never be slower.
        self.w_est += 3.0 * (1.0 - BETA) / (1.0 + BETA) * (acked_mss / self.cwnd);
        if self.w_est > self.cwnd {
            self.cwnd = self.w_est;
        }
    }

    fn on_loss_event(&mut self, _flight_size: u64) {
        self.reduce();
    }

    fn on_rto(&mut self, _flight_size: u64) {
        self.reduce();
        self.cwnd = 1.0;
    }

    fn cwnd(&self) -> u64 {
        (self.cwnd * self.mss_f()).max(self.mss_f()) as u64
    }

    fn ssthresh(&self) -> u64 {
        if self.ssthresh.is_finite() {
            (self.ssthresh * self.mss_f()) as u64
        } else {
            u64::MAX
        }
    }

    /// HyStart compares each RTT sample against the windowed minimum.
    fn reads_min_rtt(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{in_slow_start, run_rtts, MSS};
    use super::*;

    #[test]
    fn slow_start_behaves_like_reno() {
        let mut cc = Cubic::new(10 * MSS as u64, MSS);
        let w0 = cc.cwnd();
        run_rtts(&mut cc, 0, 10, 1);
        assert_eq!(cc.cwnd(), 2 * w0);
        assert!(in_slow_start(&cc));
    }

    #[test]
    fn hystart_exits_slow_start_on_delay_increase() {
        let mut cc = Cubic::new(32 * MSS as u64, MSS);
        assert!(in_slow_start(&cc));
        // RTT has risen from a 10 ms floor to 20 ms: queue is building.
        let mut c = super::super::testutil::ack(0, MSS as u64, 32 * MSS as u64);
        c.latest_rtt = Some(SimDuration::from_millis(20));
        c.min_rtt = Some(SimDuration::from_millis(10));
        cc.on_ack(&c);
        assert!(!in_slow_start(&cc), "hystart must cap ssthresh at cwnd");
        assert_eq!(cc.ssthresh(), 32 * MSS as u64);
    }

    #[test]
    fn loss_multiplies_by_beta() {
        let mut cc = Cubic::new(100 * MSS as u64, MSS);
        let before = cc.cwnd();
        cc.on_loss_event(before);
        let after = cc.cwnd();
        let ratio = after as f64 / before as f64;
        assert!((ratio - BETA).abs() < 0.02, "ratio {ratio}");
        assert!(!in_slow_start(&cc));
    }

    /// Drive the algorithm one full window of ACKs per round at a given
    /// RTT. The cubic-vs-Reno balance depends on the RTT: at short RTTs the
    /// TCP-friendly region dominates (Reno grows fast in wall-clock), at
    /// long RTTs the cubic curve (which grows in wall-clock time, not
    /// per-RTT) wins — so these tests pick the RTT per regime.
    fn run_rtts_at(cc: &mut dyn CongestionControl, start_ms: u64, rtt_ms: u64, rtts: u32) -> u64 {
        let mut t = start_ms;
        for _ in 0..rtts {
            let w = cc.cwnd();
            let mut rem = w;
            while rem > 0 {
                let chunk = rem.min(MSS as u64);
                let mut c = super::super::testutil::ack(t, chunk, w);
                c.srtt = Some(SimDuration::from_millis(rtt_ms));
                c.latest_rtt = Some(SimDuration::from_millis(rtt_ms));
                cc.on_ack(&c);
                rem -= chunk;
            }
            t += rtt_ms;
        }
        cc.cwnd()
    }

    #[test]
    fn concave_recovery_towards_w_max() {
        // After a loss at W, growth is fast initially then flattens near W:
        // the signature concave region. Long RTT keeps the TCP-friendly
        // estimate out of the way.
        let mut cc = Cubic::new(100 * MSS as u64, MSS);
        cc.on_loss_event(100 * MSS as u64); // w_max = 100, cwnd = 70
        let w_loss = cc.cwnd();
        // K = cbrt(30/0.4) ≈ 4.2 s; sample two 2-second windows.
        let w1 = run_rtts_at(&mut cc, 0, 100, 20);
        let w2 = run_rtts_at(&mut cc, 2000, 100, 20);
        assert!(w1 > w_loss, "must recover");
        let early_rate = w1 - w_loss;
        let late_rate = w2 - w1;
        assert!(
            early_rate > 2 * late_rate,
            "growth must decelerate approaching w_max: early {early_rate} late {late_rate}"
        );
        // And it plateaus around w_max (within a few MSS).
        assert!(w2 <= 104 * MSS as u64, "w2={}", w2 / MSS as u64);
    }

    #[test]
    fn convex_probing_beyond_w_max_accelerates() {
        let mut cc = Cubic::new(100 * MSS as u64, MSS);
        cc.on_loss_event(100 * MSS as u64);
        // Ride the curve past w_max (K ≈ 4.2 s), then growth accelerates.
        let w_at_plateau = run_rtts_at(&mut cc, 0, 100, 45); // 4.5 s
        let w_probe1 = run_rtts_at(&mut cc, 4500, 100, 10);
        let w_probe2 = run_rtts_at(&mut cc, 5500, 100, 10);
        let r1 = w_probe1.saturating_sub(w_at_plateau);
        let r2 = w_probe2.saturating_sub(w_probe1);
        assert!(r2 > r1, "convex region must accelerate: {r1} then {r2}");
    }

    #[test]
    fn fast_convergence_shrinks_w_max_on_consecutive_losses() {
        // `twice` loses at 100 MSS and again at the 70 MSS it fell to, below
        // its previous w_max. `once` starts at those same 70 MSS and loses
        // there for the first time, so its ceiling is the plain w_max = 70.
        let mut twice = Cubic::new(100 * MSS as u64, MSS);
        twice.on_loss_event(100 * MSS as u64);
        let w = twice.cwnd();
        assert_eq!(w, 70 * MSS as u64);
        let mut once = Cubic::new(w, MSS);
        for cc in [&mut twice, &mut once] {
            cc.on_loss_event(w);
        }
        // Same cwnd after the last loss...
        assert_eq!(twice.cwnd(), once.cwnd());
        // ...but fast convergence set a lower ceiling: growing for the same
        // wall-clock time reaches a lower window (long RTT so the cubic
        // curve, not the TCP-friendly region, drives growth).
        let w_fc = run_rtts_at(&mut twice, 20, 100, 30);
        let w_once = run_rtts_at(&mut once, 20, 100, 30);
        assert!(
            w_fc < w_once,
            "fast convergence must cap lower: {w_fc} vs {w_once}"
        );
    }

    #[test]
    fn tcp_friendly_region_tracks_reno_estimate_at_short_rtt() {
        // At short RTTs the cubic curve is slower than Reno; RFC 8312 §4.2
        // requires cwnd to follow W_est = W_max·β + 3(1−β)/(1+β)·t/RTT.
        let mut cubic = Cubic::new(10 * MSS as u64, MSS);
        cubic.on_loss_event(10 * MSS as u64); // w_max=10, cwnd=7
        let rtts = 40u32;
        let w = run_rtts_at(&mut cubic, 0, 10, rtts);
        let w_mss = w as f64 / MSS as f64;
        let expected = 10.0 * 0.7 + 3.0 * 0.3 / 1.7 * rtts as f64;
        // cwnd must be at least the Reno-friendly estimate (and not wildly
        // above it in this regime, where the cubic curve stays below).
        assert!(
            w_mss >= expected - 1.0,
            "w {w_mss:.1} < W_est {expected:.1}"
        );
        assert!(
            w_mss <= expected + 4.0,
            "w {w_mss:.1} far above W_est {expected:.1}"
        );
    }

    #[test]
    fn rto_resets_to_one_segment() {
        let mut cc = Cubic::new(50 * MSS as u64, MSS);
        cc.on_rto(50 * MSS as u64);
        assert_eq!(cc.cwnd(), MSS as u64);
    }
}
