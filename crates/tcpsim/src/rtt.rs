//! Round-trip time estimation and retransmission timeout (RFC 6298), and
//! the windowed-minimum base-RTT filter.
//!
//! Samples come from the timestamp option (`now - tsecr`), which makes every
//! ACK a valid sample even during retransmission (Karn's problem does not
//! arise with timestamps). [`RttEstimator`] is RFC 6298 and nothing else:
//! the RTO follows the classic `SRTT + max(G, 4·RTTVAR)` recipe with
//! exponential backoff, clamped to `[MIN_RTO, MAX_RTO]` — Linux's 200 ms
//! floor, which matters at the paper's millisecond RTTs, and a 60 s ceiling.
//!
//! The base-RTT estimate is a separate type, [`MinRttFilter`], a *windowed*
//! minimum (Linux `minmax`-style): a lifetime minimum would go stale
//! forever after a fault-induced reroute raises the propagation delay,
//! feeding delay-based controllers (wVegas) a base RTT the path can no
//! longer achieve and making them see permanent phantom queueing. Samples
//! older than [`MIN_RTT_WINDOW`] are expired from the filter. A sender
//! holds one only for a controller that reads it
//! ([`crate::CongestionControl::reads_min_rtt`]: CUBIC's HyStart and
//! wVegas); the loss-based laws never do, and their senders keep no filter.

use simbase::{SimDuration, SimTime};

/// Horizon of the windowed minimum RTT: long enough to survive
/// queue-draining lulls at the paper's millisecond RTTs, short enough to
/// re-learn the base RTT within seconds of a reroute (Linux's TCP min_rtt
/// filter uses 10 s).
pub const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Minimum retransmission timeout (Linux: 200 ms).
pub const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// Maximum retransmission timeout.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(60);

/// Smoothed RTT state and RTO computation; `default()` has no samples yet.
#[derive(Debug, Clone, Default)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    /// Most recent raw sample.
    latest: Option<SimDuration>,
    /// Current backoff multiplier (power of two).
    backoff: u32,
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter estimator fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<RttEstimator>() <= 48);

impl RttEstimator {
    /// Incorporate a sample (RFC 6298 §2) and reset backoff — a valid
    /// sample proves the path is alive.
    pub fn on_sample(&mut self, rtt: SimDuration) {
        self.latest = Some(rtt);
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|
                let err = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = (self.rttvar * 3) / 4 + err / 4;
                // SRTT = 7/8 SRTT + 1/8 R
                self.srtt = Some((srtt * 7) / 8 + rtt / 8);
            }
        }
        self.backoff = 0;
    }

    /// Current smoothed RTT (none before the first sample).
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Most recent raw sample.
    pub fn latest(&self) -> Option<SimDuration> {
        self.latest
    }

    /// Current mean deviation estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }

    /// The retransmission timeout, including backoff.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            // Before any sample: 1 s (RFC 6298 §2.1).
            None => SimDuration::from_secs(1),
            Some(srtt) => srtt + (self.rttvar * 4).max(SimDuration::from_millis(1)),
        };
        let backed_off = base.saturating_mul(1u64 << self.backoff.min(16));
        backed_off.clamp(MIN_RTO, MAX_RTO)
    }

    /// Double the RTO after a timeout (RFC 6298 §5.5).
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }

    /// Current backoff exponent (diagnostics).
    pub fn backoff(&self) -> u32 {
        self.backoff
    }
}

/// The windowed minimum RTT over the last [`MIN_RTT_WINDOW`] (the base
/// RTT), for the controllers that read it. Unlike a lifetime minimum, it
/// re-learns the base RTT after a reroute: pre-fault samples age out.
#[derive(Debug, Clone, Default)]
pub struct MinRttFilter {
    /// `(sample_time, rtt)`, kept ascending in both fields, so the front is
    /// always the minimum over the window and the back the newest sample.
    samples: std::collections::VecDeque<(SimTime, SimDuration)>,
}

impl MinRttFilter {
    /// Incorporate a sample taken at `now`: expire samples beyond the
    /// horizon, then drop every queued sample >= the new one (it can never
    /// be the minimum while the newer, smaller sample is in the window).
    pub fn on_sample(&mut self, now: SimTime, rtt: SimDuration) {
        while self
            .samples
            .front()
            .is_some_and(|&(t, _)| now.saturating_since(t) > MIN_RTT_WINDOW)
        {
            self.samples.pop_front();
        }
        while self.samples.back().is_some_and(|&(_, r)| r >= rtt) {
            self.samples.pop_back();
        }
        self.samples.push_back((now, rtt));
    }

    /// Minimum RTT over the last [`MIN_RTT_WINDOW`] (none before the first
    /// sample).
    pub fn min(&self) -> Option<SimDuration> {
        self.samples.front().map(|&(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    /// Feed the filter a sample taken at `at_ms` milliseconds.
    fn sample(f: &mut MinRttFilter, at_ms: u64, rtt: SimDuration) {
        f.on_sample(SimTime::from_millis(at_ms), rtt);
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::default();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        e.on_sample(MS(100));
        assert_eq!(e.srtt(), Some(MS(100)));
        assert_eq!(e.rttvar(), MS(50));
        // RTO = 100 + 4*50 = 300ms.
        assert_eq!(e.rto(), MS(300));
    }

    #[test]
    fn smoothing_converges_on_constant_rtt() {
        let mut e = RttEstimator::default();
        for _ in 0..100 {
            e.on_sample(MS(80));
        }
        let srtt = e.srtt().unwrap();
        assert!(srtt >= MS(79) && srtt <= MS(81), "srtt={srtt}");
        // rttvar decays towards 0, so RTO approaches the 200ms floor.
        assert_eq!(e.rto(), MS(200));
    }

    #[test]
    fn variance_rises_on_jitter() {
        let mut e = RttEstimator::default();
        e.on_sample(MS(50));
        let rto_stable = e.rto();
        e.on_sample(MS(250));
        assert!(e.rto() > rto_stable, "jitter must inflate RTO");
        assert_eq!(e.latest(), Some(MS(250)));
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = RttEstimator::default();
        e.on_sample(MS(100)); // RTO 300ms
        e.on_timeout();
        assert_eq!(e.rto(), MS(600));
        e.on_timeout();
        assert_eq!(e.rto(), MS(1200));
        e.on_sample(MS(100));
        // rttvar decayed: 3/4·50 + 1/4·0 = 37.5 ms -> RTO 100 + 150 = 250.
        assert_eq!(e.rto(), MS(250));
        assert_eq!(e.backoff(), 0);
    }

    #[test]
    fn rto_clamps_to_bounds() {
        let mut e = RttEstimator::default();
        e.on_sample(MS(1)); // tiny RTT -> floor
        assert_eq!(e.rto(), MS(200));
        // 3 ms backed off 2^16 times is 197 s: the ceiling holds it at 60 s.
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
    }

    #[test]
    fn min_rtt_tracks_floor() {
        let mut f = MinRttFilter::default();
        assert_eq!(f.min(), None);
        sample(&mut f, 0, MS(30));
        sample(&mut f, 10, MS(10));
        sample(&mut f, 20, MS(50));
        assert_eq!(f.min(), Some(MS(10)));
    }

    #[test]
    fn min_rtt_expires_after_reroute() {
        // Regression: min_rtt was a lifetime minimum, so after a
        // fault-induced reroute onto a longer path the base RTT stayed
        // stale forever and delay-based CC saw phantom queueing. With the
        // windowed filter the pre-reroute sample ages out.
        let mut f = MinRttFilter::default();
        sample(&mut f, 0, MS(10)); // short path
        assert_eq!(f.min(), Some(MS(10)));
        // Reroute: every sample now takes the 40 ms path.
        sample(&mut f, 500, MS(40));
        assert_eq!(f.min(), Some(MS(10)), "still inside the window");
        sample(&mut f, 10_600, MS(40));
        assert_eq!(
            f.min(),
            Some(MS(40)),
            "the 10 ms sample is past the 10 s horizon and must expire"
        );
    }

    #[test]
    fn min_rtt_window_keeps_minimum_among_live_samples() {
        // The filter must return the smallest *unexpired* sample, not just
        // the latest: a recent low reading survives later higher ones.
        let mut f = MinRttFilter::default();
        sample(&mut f, 0, MS(30));
        sample(&mut f, 100, MS(12));
        sample(&mut f, 200, MS(25));
        sample(&mut f, 300, MS(50));
        assert_eq!(f.min(), Some(MS(12)));
        // At 10.15 s the 12 ms sample (taken at 0.1 s) is expired but the
        // 25 ms one (taken at 0.2 s) is still inside the 10 s window.
        sample(&mut f, 10_150, MS(60));
        assert_eq!(f.min(), Some(MS(25)));
    }

    #[test]
    fn default_window_matches_linux_style_horizon() {
        // A sample exactly 10 s old is still in the window; one older is not.
        let mut f = MinRttFilter::default();
        sample(&mut f, 0, MS(10));
        sample(&mut f, 10_000, MS(40));
        assert_eq!(f.min(), Some(MS(10)));
        sample(&mut f, 10_001, MS(40));
        assert_eq!(f.min(), Some(MS(40)));
    }
}
