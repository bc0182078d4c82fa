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
//! to keep more packets in flight, shifting traffic toward them. The rules
//! here run inside [`super::CoupledCc`]: per-subflow Vegas mechanics whose
//! target band is re-weighted from the shared state once per RTT.

use super::{CoupleState, SubState};
use tcpsim::cc::AckContext;

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

/// wVegas's ACK rule for subflow `idx`, once its RTT and loss-interval
/// entries are updated: Vegas slow start (half-rate growth, left on queue
/// build-up), then at most one step per RTT toward the weighted band
/// `alpha_r .. alpha_r + 2` packets of queue.
pub(crate) fn on_ack(st: &mut CoupleState, idx: usize, ctx: &AckContext) {
    let alpha = weighted_alpha(st, idx);
    let sub = &mut st.subs[idx];

    let adjust_now = ctx.now >= sub.next_adjust;
    if adjust_now {
        if let Some(rtt) = ctx.latest_rtt {
            sub.next_adjust = ctx.now + rtt;
        }
    }

    if sub.cwnd < sub.ssthresh {
        match diff_packets(sub, ctx) {
            Some(diff) if diff > 1.0 => sub.ssthresh = sub.cwnd,
            _ => sub.cwnd += ctx.bytes_acked as f64 / 2.0,
        }
    } else if adjust_now {
        match diff_packets(sub, ctx) {
            Some(diff) if diff < alpha => sub.cwnd += sub.mss,
            Some(diff) if diff > alpha + 2.0 => {
                sub.cwnd = (sub.cwnd - sub.mss).max(2.0 * sub.mss);
            }
            _ => {}
        }
    }
}

/// Vegas's queue estimate, packets: `cwnd · (rtt − base_rtt) / rtt`.
fn diff_packets(sub: &SubState, ctx: &AckContext) -> Option<f64> {
    let rtt = ctx.latest_rtt?.as_secs_f64();
    let base = ctx.min_rtt?.as_secs_f64();
    if rtt <= 0.0 {
        return None;
    }
    let cwnd_pkts = sub.cwnd / sub.mss;
    Some(cwnd_pkts * (rtt - base) / rtt)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{coupled, MSS};
    use super::super::{CcAlgo, CoupledCc};
    use super::*;
    use tcpsim::CongestionControl;

    #[test]
    fn weights_sum_to_one() {
        let st = coupled(&[(10.0, 10.0), (20.0, 40.0), (5.0, 5.0)]);
        let total: f64 = (0..3).map(|i| weight(&st, i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn faster_subflow_gets_larger_alpha() {
        let st = coupled(&[(10.0, 10.0), (10.0, 100.0)]);
        assert!(weighted_alpha(&st, 0) > weighted_alpha(&st, 1));
    }

    #[test]
    fn alpha_floors_at_one_packet() {
        // A starving subflow still gets to keep one packet queued,
        // otherwise it could never probe.
        let st = coupled(&[(1.0, 1000.0), (100.0, 1.0)]);
        assert_eq!(weighted_alpha(&st, 0), 1.0);
    }

    #[test]
    fn equal_paths_split_alpha_evenly() {
        let st = coupled(&[(10.0, 10.0), (10.0, 10.0)]);
        assert!((weighted_alpha(&st, 0) - TOTAL_ALPHA / 2.0).abs() < 1e-9);
    }

    #[test]
    fn wvegas_grows_when_below_weighted_band() {
        use simbase::SimDuration;
        let mut st = coupled(&[(10.0, 10.0), (10.0, 10.0)]);
        let mut cc = CoupledCc::new(&mut st, 0, CcAlgo::WVegas);
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
        let w0 = cc.cwnd();
        cc.on_ack(&mk(0));
        cc.on_ack(&mk(1)); // same RTT: no second adjustment
        assert_eq!(cc.cwnd(), w0 + MSS as u64);
        cc.on_ack(&mk(20));
        assert_eq!(cc.cwnd(), w0 + 2 * MSS as u64);
    }

    #[test]
    fn wvegas_shrinks_when_queueing_beyond_band() {
        use simbase::SimDuration;
        let mut st = coupled(&[(20.0, 10.0), (20.0, 10.0)]);
        let mut cc = CoupledCc::new(&mut st, 0, CcAlgo::WVegas);
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
        let w0 = cc.cwnd();
        cc.on_ack(&ctx);
        assert_eq!(cc.cwnd(), w0 - MSS as u64);
    }
}
