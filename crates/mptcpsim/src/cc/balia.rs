//! BALIA — Balanced Linked Adaptation (extension beyond the paper).
//!
//! Peng, Walid, Hwang, Low: *Multipath TCP: Analysis, Design, and
//! Implementation* (IEEE/ACM ToN 2016). BALIA was designed from a control-
//! theoretic framework to balance TCP-friendliness and responsiveness,
//! fixing oscillation issues identified in LIA and unresponsiveness in
//! OLIA. With `x_r = w_r / rtt_r` and `α_r = max_p(x_p) / x_r`:
//!
//! ```text
//! increase per ACK:  Δw_r = ( x_r / rtt_r )/( Σ_p x_p )² · (1+α_r)/2 · (4+α_r)/5 · acked·mss
//! decrease on loss:  w_r ← w_r − (w_r / 2) · min(α_r, 1.5)
//! ```
//!
//! (Increase written in window units; for a single path `α = 1` and both
//! rules reduce exactly to Reno.)

use super::CoupleState;

/// `α_r = max_p(w_p/rtt_p) / (w_r/rtt_r)` (≥ 1 on the max-rate path's
/// peers, = 1 on the max-rate path itself).
pub fn alpha(st: &CoupleState, idx: usize) -> f64 {
    let x_r = st.subs[idx].cwnd / st.subs[idx].srtt;
    if x_r <= 0.0 {
        return 1.0;
    }
    let x_max = st.subs.iter().map(|s| s.cwnd / s.srtt).fold(0.0, f64::max);
    (x_max / x_r).max(1.0)
}

/// Congestion-avoidance increase in bytes for subflow `idx`.
pub fn increase(st: &CoupleState, idx: usize, acked: f64) -> f64 {
    let sub = &st.subs[idx];
    let sum_rate = st.sum_rate();
    if sum_rate <= 0.0 {
        return 0.0;
    }
    let a = alpha(st, idx);
    let base = (sub.cwnd / (sub.srtt * sub.srtt)) / (sum_rate * sum_rate);
    base * ((1.0 + a) / 2.0) * ((4.0 + a) / 5.0) * acked * sub.mss
}

/// Loss decrease in bytes for subflow `idx` (the amount to subtract).
pub fn decrease(st: &CoupleState, idx: usize) -> f64 {
    let sub = &st.subs[idx];
    let a = alpha(st, idx);
    (sub.cwnd / 2.0) * a.min(1.5)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::coupled;
    use super::*;

    const MSS: f64 = 1460.0;

    #[test]
    fn single_path_reduces_to_reno() {
        let st = coupled(&[(10.0, 10.0)]);
        assert_eq!(alpha(&st, 0), 1.0);
        // (w/rtt²)/(w/rtt)² · 1 · 1 = 1/w -> increase = acked·mss/w.
        let inc = increase(&st, 0, MSS);
        let reno = MSS * MSS / (10.0 * MSS);
        assert!((inc - reno).abs() < 1e-9);
        // Decrease: w/2 · min(1, 1.5) = w/2.
        let dec = decrease(&st, 0);
        assert!((dec - 5.0 * MSS).abs() < 1e-9);
    }

    #[test]
    fn alpha_reflects_rate_imbalance() {
        // Path 0: 10 MSS / 10 ms = fast; path 1: 10 MSS / 100 ms = slow.
        let st = coupled(&[(10.0, 10.0), (10.0, 100.0)]);
        assert_eq!(alpha(&st, 0), 1.0);
        assert!((alpha(&st, 1) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn slow_path_gets_boosted_increase_but_bounded_decrease() {
        let st = coupled(&[(10.0, 10.0), (10.0, 100.0)]);
        // The (1+α)/2 · (4+α)/5 factor boosts the slow path's increase
        // relative to plain coupling.
        let base1 = (st.subs[1].cwnd / (st.subs[1].srtt * st.subs[1].srtt))
            / (st.sum_rate() * st.sum_rate())
            * MSS
            * st.subs[1].mss;
        let inc1 = increase(&st, 1, MSS);
        assert!(inc1 > base1, "boost factor must exceed 1 for α > 1");
        // Decrease is capped at 1.5·w/2 = 0.75 w.
        let dec1 = decrease(&st, 1);
        assert!((dec1 - 0.75 * st.subs[1].cwnd).abs() < 1e-9);
    }

    #[test]
    fn equal_paths_are_symmetric() {
        let st = coupled(&[(20.0, 30.0), (20.0, 30.0)]);
        assert!((increase(&st, 0, MSS) - increase(&st, 1, MSS)).abs() < 1e-12);
        assert!((decrease(&st, 0) - decrease(&st, 1)).abs() < 1e-12);
    }

    #[test]
    fn increase_finite_positive() {
        let st = coupled(&[(2.0, 5.0), (80.0, 200.0), (7.0, 30.0)]);
        for i in 0..3 {
            let inc = increase(&st, i, MSS);
            assert!(inc.is_finite() && inc > 0.0, "path {i}: {inc}");
        }
    }
}
