//! wVegas — weighted Vegas for MPTCP (extension beyond the paper).
//!
//! Cao, Xu, Fu: *Delay-based Congestion Control for Multipath TCP*
//! (ICNP 2012). Each subflow runs delay-based Vegas, but its target queue
//! occupancy `α_r` is a *weighted share* of a connection-wide total,
//! weighted by the subflow's fraction of the aggregate rate:
//!
//! ```text
//! weight_r = (w_r/rtt_r) / Σ_p (w_p/rtt_p),    α_r = weight_r · α_total
//! ```
//!
//! so subflows on less-congested paths (higher achievable rate) are allowed
//! to keep more packets in flight, shifting traffic toward them.
//! [`WVegasCc`] implements the coupled controller: per-subflow Vegas
//! mechanics whose target band is re-weighted from the shared state once
//! per RTT.

use super::{CoupleState, OwnWindow, SubState};
use simbase::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

use tcpsim::cc::{min_cwnd, AckContext, CongestionControl, LossContext};

/// Connection-wide target queue occupancy, packets (the ICNP paper uses a
/// total alpha of about 10 packets for the whole connection).
pub const TOTAL_ALPHA: f64 = 10.0;

/// The weight of subflow `idx`: its share of the aggregate rate proxy.
pub fn weight(st: &CoupleState, idx: usize) -> f64 {
    let sum = st.sum_rate();
    if sum <= 0.0 {
        return 1.0 / st.subs.len().max(1) as f64;
    }
    (st.subs[idx].cwnd / st.subs[idx].srtt) / sum
}

/// The per-subflow Vegas alpha target (packets) for subflow `idx`.
pub fn weighted_alpha(st: &CoupleState, idx: usize) -> f64 {
    (weight(st, idx) * TOTAL_ALPHA).max(1.0)
}

/// The coupled weighted-Vegas controller for one subflow.
///
/// `Clone` is a *shallow* copy — the clone shares the same `CoupleState`
/// `Rc`; checkpointing re-binds it via [`WVegasCc::rebase`].
#[derive(Debug, Clone)]
pub struct WVegasCc {
    shared: Rc<RefCell<CoupleState>>,
    idx: usize,
    mss: u32,
    /// Next instant an adjustment decision is allowed (once per RTT).
    next_adjust: SimTime,
    own: OwnWindow,
}

impl WVegasCc {
    /// Create the controller for subflow `idx` (the shared entry must
    /// already exist).
    pub fn new(shared: Rc<RefCell<CoupleState>>, idx: usize, mss: u32) -> Self {
        WVegasCc {
            own: OwnWindow::load(&shared, idx),
            shared,
            idx,
            mss,
            next_adjust: SimTime::ZERO,
        }
    }

    /// Re-point this controller at a different shared-state `Rc` (used
    /// after a checkpoint deep copy) and take its window from there.
    pub(crate) fn rebase(&mut self, shared: Rc<RefCell<CoupleState>>) {
        self.own = OwnWindow::load(&shared, self.idx);
        self.shared = shared;
    }

    fn diff_packets(sub: &SubState, ctx: &AckContext) -> Option<f64> {
        let rtt = ctx.latest_rtt?.as_secs_f64();
        let base = ctx.min_rtt?.as_secs_f64();
        if rtt <= 0.0 {
            return None;
        }
        let cwnd_pkts = sub.cwnd / sub.mss;
        Some(cwnd_pkts * (rtt - base) / rtt)
    }
}

impl CongestionControl for WVegasCc {
    fn on_ack(&mut self, ctx: &AckContext) {
        let mut st = self.shared.borrow_mut();
        if let Some(srtt) = ctx.srtt {
            st.subs[self.idx].srtt = srtt.as_secs_f64().max(1e-6);
        }
        st.subs[self.idx].bytes_since_loss += ctx.bytes_acked as f64;
        let alpha = weighted_alpha(&st, self.idx);
        let sub = &mut st.subs[self.idx];
        let mss = sub.mss;

        let adjust_now = ctx.now >= self.next_adjust;
        if adjust_now {
            if let Some(rtt) = ctx.latest_rtt {
                self.next_adjust = ctx.now + rtt;
            }
        }

        'window: {
            if sub.cwnd < sub.ssthresh {
                // Vegas slow start: half-rate growth, exit on queue buildup.
                if let Some(diff) = Self::diff_packets(sub, ctx) {
                    if diff > 1.0 {
                        sub.ssthresh = sub.cwnd;
                        break 'window;
                    }
                }
                sub.cwnd += ctx.bytes_acked as f64 / 2.0;
                break 'window;
            }
            if !adjust_now {
                break 'window;
            }
            // Weighted band: alpha_r .. alpha_r + 2 packets.
            match Self::diff_packets(sub, ctx) {
                Some(diff) if diff < alpha => sub.cwnd += mss,
                Some(diff) if diff > alpha + 2.0 => {
                    sub.cwnd = (sub.cwnd - mss).max(min_cwnd(self.mss));
                }
                _ => {}
            }
        }
        self.own = OwnWindow::of(sub);
    }

    fn on_loss_event(&mut self, ctx: &LossContext) {
        let mut st = self.shared.borrow_mut();
        let sub = &mut st.subs[self.idx];
        sub.bytes_between_losses = sub.bytes_since_loss;
        sub.bytes_since_loss = 0.0;
        let target = (ctx.flight_size as f64 / 2.0).max(min_cwnd(ctx.mss));
        sub.ssthresh = target;
        sub.cwnd = target;
        self.own = OwnWindow::of(sub);
    }

    fn on_rto(&mut self, ctx: &LossContext) {
        let mut st = self.shared.borrow_mut();
        let sub = &mut st.subs[self.idx];
        sub.bytes_between_losses = sub.bytes_since_loss;
        sub.bytes_since_loss = 0.0;
        sub.ssthresh = (ctx.flight_size as f64 / 2.0).max(min_cwnd(ctx.mss));
        sub.cwnd = ctx.mss as f64;
        self.own = OwnWindow::of(sub);
    }

    fn cwnd(&self) -> u64 {
        self.own.cwnd(&self.shared, self.idx, self.mss)
    }

    fn ssthresh(&self) -> u64 {
        self.own.ssthresh(&self.shared, self.idx)
    }

    fn name(&self) -> &'static str {
        "wVegas"
    }

    fn clone_boxed(&self) -> Box<dyn CongestionControl> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::coupled;
    use super::super::CcAlgo;
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        let c = coupled(CcAlgo::WVegas, &[(10.0, 10.0), (20.0, 40.0), (5.0, 5.0)]).0;
        let st = c.state();
        let total: f64 = (0..3).map(|i| weight(&st, i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn faster_subflow_gets_larger_alpha() {
        let c = coupled(CcAlgo::WVegas, &[(10.0, 10.0), (10.0, 100.0)]).0;
        let st = c.state();
        assert!(weighted_alpha(&st, 0) > weighted_alpha(&st, 1));
    }

    #[test]
    fn alpha_floors_at_one_packet() {
        // A starving subflow still gets to keep one packet queued,
        // otherwise it could never probe.
        let c = coupled(CcAlgo::WVegas, &[(1.0, 1000.0), (100.0, 1.0)]).0;
        let st = c.state();
        assert_eq!(weighted_alpha(&st, 0), 1.0);
    }

    #[test]
    fn equal_paths_split_alpha_evenly() {
        let c = coupled(CcAlgo::WVegas, &[(10.0, 10.0), (10.0, 10.0)]).0;
        let st = c.state();
        assert!((weighted_alpha(&st, 0) - TOTAL_ALPHA / 2.0).abs() < 1e-9);
    }

    #[test]
    fn wvegas_grows_when_below_weighted_band() {
        use simbase::SimDuration;
        let (coupling, mut ccs) = coupled(CcAlgo::WVegas, &[(10.0, 10.0), (10.0, 10.0)]);
        let _ = coupling;
        const MSS: u32 = 1460;
        // RTT == baseRTT: diff = 0 < alpha -> +1 MSS at each RTT boundary.
        let mk = |now_ms: u64| tcpsim::cc::AckContext {
            now: simbase::SimTime::from_millis(now_ms),
            bytes_acked: MSS as u64,
            srtt: Some(SimDuration::from_millis(10)),
            latest_rtt: Some(SimDuration::from_millis(10)),
            min_rtt: Some(SimDuration::from_millis(10)),
            flight_size: 10 * MSS as u64,
            mss: MSS,
        };
        let w0 = ccs[0].cwnd();
        ccs[0].on_ack(&mk(0));
        ccs[0].on_ack(&mk(1)); // same RTT: no second adjustment
        assert_eq!(ccs[0].cwnd(), w0 + MSS as u64);
        ccs[0].on_ack(&mk(20));
        assert_eq!(ccs[0].cwnd(), w0 + 2 * MSS as u64);
    }

    #[test]
    fn wvegas_shrinks_when_queueing_beyond_band() {
        use simbase::SimDuration;
        let (_c, mut ccs) = coupled(CcAlgo::WVegas, &[(20.0, 10.0), (20.0, 10.0)]);
        const MSS: u32 = 1460;
        // diff = 20 * (20-10)/20 = 10 packets; alpha = 5 -> shrink.
        let ctx = tcpsim::cc::AckContext {
            now: simbase::SimTime::from_millis(5),
            bytes_acked: MSS as u64,
            srtt: Some(SimDuration::from_millis(20)),
            latest_rtt: Some(SimDuration::from_millis(20)),
            min_rtt: Some(SimDuration::from_millis(10)),
            flight_size: 20 * MSS as u64,
            mss: MSS,
        };
        let w0 = ccs[0].cwnd();
        ccs[0].on_ack(&ctx);
        assert_eq!(ccs[0].cwnd(), w0 - MSS as u64);
    }
}
