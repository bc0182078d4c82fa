//! Round-trip time estimation and retransmission timeout (RFC 6298).
//!
//! Samples come from the timestamp option (`now - tsecr`), which makes every
//! ACK a valid sample even during retransmission (Karn's problem does not
//! arise with timestamps). The RTO follows the classic
//! `SRTT + max(G, 4·RTTVAR)` recipe with exponential backoff, clamped to
//! `[min_rto, max_rto]` — Linux uses a 200 ms floor, which matters at the
//! paper's millisecond RTTs, so that is our default too.
//!
//! The base-RTT estimate is a *windowed* minimum (Linux `minmax`-style):
//! a lifetime minimum would go stale forever after a fault-induced reroute
//! raises the propagation delay, feeding delay-based controllers (wVegas)
//! a base RTT the path can no longer achieve and making them see permanent
//! phantom queueing. Samples older than [`RttEstimator::min_rtt_window`]
//! are expired from the filter.

use simbase::{SimDuration, SimTime};

/// Default horizon for the windowed minimum RTT: long enough to survive
/// queue-draining lulls at the paper's millisecond RTTs, short enough to
/// re-learn the base RTT within seconds of a reroute (Linux's TCP min_rtt
/// filter uses 10 s).
pub const DEFAULT_MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);

/// Smoothed RTT state and RTO computation.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    /// Most recent raw sample.
    latest: Option<SimDuration>,
    /// Windowed-minimum filter for the base RTT: a deque of
    /// `(sample_time, rtt)` kept ascending in both fields, so the front is
    /// always the minimum over the window and the back the newest sample.
    min_filter: std::collections::VecDeque<(SimTime, SimDuration)>,
    /// Horizon of the windowed minimum.
    min_rtt_window: SimDuration,
    /// Current backoff multiplier (power of two).
    backoff: u32,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new(SimDuration::from_millis(200), SimDuration::from_secs(60))
    }
}

impl RttEstimator {
    /// Create with explicit RTO clamps.
    pub fn new(min_rto: SimDuration, max_rto: SimDuration) -> Self {
        assert!(min_rto <= max_rto);
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            latest: None,
            min_filter: std::collections::VecDeque::new(),
            min_rtt_window: DEFAULT_MIN_RTT_WINDOW,
            backoff: 0,
            min_rto,
            max_rto,
        }
    }

    /// Set the windowed-minimum horizon (builder style).
    pub fn with_min_rtt_window(mut self, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "min_rtt window must be positive");
        self.min_rtt_window = window;
        self
    }

    /// The configured windowed-minimum horizon.
    pub fn min_rtt_window(&self) -> SimDuration {
        self.min_rtt_window
    }

    /// Incorporate a sample taken at `now` (RFC 6298 §2) and reset
    /// backoff — a valid sample proves the path is alive.
    pub fn on_sample(&mut self, now: SimTime, rtt: SimDuration) {
        self.latest = Some(rtt);
        // Windowed minimum: expire samples beyond the horizon, then drop
        // every queued sample >= the new one (it can never be the minimum
        // while the newer, smaller sample is in the window). Both fields of
        // the deque stay ascending, so the front is the window minimum.
        while self
            .min_filter
            .front()
            .is_some_and(|&(t, _)| now.saturating_since(t) > self.min_rtt_window)
        {
            self.min_filter.pop_front();
        }
        while self.min_filter.back().is_some_and(|&(_, r)| r >= rtt) {
            self.min_filter.pop_back();
        }
        self.min_filter.push_back((now, rtt));
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

    /// Minimum RTT over the configured window (base RTT). Unlike a lifetime
    /// minimum, this re-learns the base RTT after a reroute: pre-fault
    /// samples age out of the filter.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.min_filter.front().map(|&(_, r)| r)
    }

    /// Forget the windowed-minimum samples and give their buffer back
    /// ([`RttEstimator::min_rtt`] is `None` until the next sample). For a
    /// finished connection: the filter is the one part of the estimator
    /// that owns an allocation.
    pub fn release_min_filter(&mut self) {
        self.min_filter = std::collections::VecDeque::new();
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
        backed_off.clamp(self.min_rto, self.max_rto)
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

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    /// Feed a sample at time `at_ms` milliseconds.
    fn sample(e: &mut RttEstimator, at_ms: u64, rtt: SimDuration) {
        e.on_sample(SimTime::from_millis(at_ms), rtt);
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::default();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        sample(&mut e, 0, MS(100));
        assert_eq!(e.srtt(), Some(MS(100)));
        assert_eq!(e.rttvar(), MS(50));
        // RTO = 100 + 4*50 = 300ms.
        assert_eq!(e.rto(), MS(300));
    }

    #[test]
    fn smoothing_converges_on_constant_rtt() {
        let mut e = RttEstimator::default();
        for i in 0..100 {
            sample(&mut e, i * 10, MS(80));
        }
        let srtt = e.srtt().unwrap();
        assert!(srtt >= MS(79) && srtt <= MS(81), "srtt={srtt}");
        // rttvar decays towards 0, so RTO approaches the 200ms floor.
        assert_eq!(e.rto(), MS(200));
    }

    #[test]
    fn variance_rises_on_jitter() {
        let mut e = RttEstimator::default();
        sample(&mut e, 0, MS(50));
        let rto_stable = e.rto();
        sample(&mut e, 50, MS(250));
        assert!(e.rto() > rto_stable, "jitter must inflate RTO");
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = RttEstimator::default();
        sample(&mut e, 0, MS(100)); // RTO 300ms
        e.on_timeout();
        assert_eq!(e.rto(), MS(600));
        e.on_timeout();
        assert_eq!(e.rto(), MS(1200));
        sample(&mut e, 1000, MS(100));
        // rttvar decayed: 3/4·50 + 1/4·0 = 37.5 ms -> RTO 100 + 150 = 250.
        assert_eq!(e.rto(), MS(250));
        assert_eq!(e.backoff(), 0);
    }

    #[test]
    fn rto_clamps_to_bounds() {
        let mut e = RttEstimator::new(MS(200), SimDuration::from_secs(2));
        sample(&mut e, 0, MS(1)); // tiny RTT -> floor
        assert_eq!(e.rto(), MS(200));
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(2));
    }

    #[test]
    fn min_rtt_tracks_floor() {
        let mut e = RttEstimator::default();
        sample(&mut e, 0, MS(30));
        sample(&mut e, 10, MS(10));
        sample(&mut e, 20, MS(50));
        assert_eq!(e.min_rtt(), Some(MS(10)));
        assert_eq!(e.latest(), Some(MS(50)));
    }

    #[test]
    fn min_rtt_expires_after_reroute() {
        // Regression: min_rtt was a lifetime minimum, so after a
        // fault-induced reroute onto a longer path the base RTT stayed
        // stale forever and delay-based CC saw phantom queueing. With the
        // windowed filter the pre-reroute sample ages out.
        let mut e = RttEstimator::default().with_min_rtt_window(SimDuration::from_secs(2));
        sample(&mut e, 0, MS(10)); // short path
        assert_eq!(e.min_rtt(), Some(MS(10)));
        // Reroute: every sample now takes the 40 ms path.
        sample(&mut e, 500, MS(40));
        assert_eq!(e.min_rtt(), Some(MS(10)), "still inside the window");
        sample(&mut e, 2_600, MS(40));
        assert_eq!(
            e.min_rtt(),
            Some(MS(40)),
            "the 10 ms sample is past the 2 s horizon and must expire"
        );
    }

    #[test]
    fn min_rtt_window_keeps_minimum_among_live_samples() {
        // The filter must return the smallest *unexpired* sample, not just
        // the latest: a recent low reading survives later higher ones.
        let mut e = RttEstimator::default().with_min_rtt_window(SimDuration::from_secs(2));
        sample(&mut e, 0, MS(30));
        sample(&mut e, 100, MS(12));
        sample(&mut e, 200, MS(25));
        sample(&mut e, 300, MS(50));
        assert_eq!(e.min_rtt(), Some(MS(12)));
        // At 2.15 s the 12 ms sample (taken at 0.1 s) is expired but the
        // 25 ms one (taken at 0.2 s) is still inside the 2 s window.
        sample(&mut e, 2_150, MS(60));
        assert_eq!(e.min_rtt(), Some(MS(25)));
    }

    #[test]
    fn a_released_filter_holds_nothing_and_relearns() {
        let mut e = RttEstimator::default();
        sample(&mut e, 0, MS(30));
        sample(&mut e, 10, MS(40));
        e.release_min_filter();
        assert_eq!(e.min_filter.capacity(), 0);
        assert_eq!(e.min_rtt(), None);
        // Everything that is not the filter is untouched.
        assert_eq!(e.latest(), Some(MS(40)));
        assert!(e.srtt().is_some());
        sample(&mut e, 20, MS(35));
        assert_eq!(e.min_rtt(), Some(MS(35)));
    }

    #[test]
    fn default_window_matches_linux_style_horizon() {
        let e = RttEstimator::default();
        assert_eq!(e.min_rtt_window(), SimDuration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "min_rtt window must be positive")]
    fn zero_window_rejected() {
        let _ = RttEstimator::default().with_min_rtt_window(SimDuration::ZERO);
    }
}
