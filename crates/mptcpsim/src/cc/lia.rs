//! LIA — the Linked Increases Algorithm (RFC 6356).
//!
//! Design goals (RFC 6356 §2): improve throughput over the best single
//! path, do no harm to competing single-path TCP, and balance congestion.
//! The congestion-avoidance increase on subflow `r` per ACK of `acked`
//! bytes is
//!
//! ```text
//! Δw_r = min( α · acked · mss / w_total ,  acked · mss / w_r )
//!
//!           w_total · max_p ( w_p / rtt_p² )
//! α = ─────────────────────────────────────────
//!               ( Σ_p w_p / rtt_p )²
//! ```
//!
//! The first argument couples the aggregate to the best path's rate; the
//! second caps the increase at standard Reno so MPTCP is never more
//! aggressive than a single TCP on any path. The paper finds LIA *never*
//! reaches the optimum on the overlapping-paths topology — the coupling
//! spreads increase proportionally to current windows and cannot discover
//! that draining Path 2 would more than pay for itself.

use super::CoupleState;

/// Congestion-avoidance increase in bytes for subflow `idx` given `acked`
/// bytes newly acknowledged.
pub fn increase(st: &CoupleState, idx: usize, acked: f64) -> f64 {
    let sub = &st.subs[idx];
    let w_total = st.total_cwnd();
    let sum_rate = st.sum_rate();
    if w_total <= 0.0 || sum_rate <= 0.0 {
        return 0.0;
    }
    let alpha = w_total * st.max_w_over_rtt2() / (sum_rate * sum_rate);
    let coupled = alpha * acked * sub.mss / w_total;
    let reno_cap = acked * sub.mss / sub.cwnd;
    coupled.min(reno_cap)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::coupled;
    use super::*;

    const MSS: f64 = 1460.0;

    #[test]
    fn single_path_reduces_to_reno() {
        // With one subflow, alpha = w·(w/rtt²)/(w/rtt)² = 1, so the coupled
        // increase equals the Reno increase exactly.
        let st = coupled(&[(10.0, 10.0)]);
        let inc = increase(&st, 0, MSS);
        let reno = MSS * MSS / (10.0 * MSS);
        assert!((inc - reno).abs() < 1e-9, "inc {inc} reno {reno}");
    }

    #[test]
    fn total_aggressiveness_matches_best_path() {
        // Two equal-RTT paths: alpha = 2w·(w/rtt²)/(2w/rtt)² = 1/2, and the
        // per-ACK increase is alpha·mss/w_total = mss/(4w) — a quarter of a
        // single Reno flow per path. Per RTT each path acks w bytes, so each
        // grows mss/4 and the aggregate grows mss/2 per RTT: strictly less
        // aggressive than one Reno flow, the RFC 6356 "do no harm" property.
        let st = coupled(&[(10.0, 10.0), (10.0, 10.0)]);
        let inc0 = increase(&st, 0, MSS);
        let inc1 = increase(&st, 1, MSS);
        let reno_single = MSS * MSS / (10.0 * MSS);
        assert!((inc0 - reno_single / 4.0).abs() < 1e-9, "inc0 {inc0}");
        assert!((inc1 - reno_single / 4.0).abs() < 1e-9);
        // And never more aggressive than Reno on either path.
        assert!(inc0 <= reno_single);
    }

    #[test]
    fn reno_cap_binds_on_the_small_window_path() {
        // A tiny window next to a huge one: the coupled term can exceed
        // per-path Reno; the min() must clamp it.
        let st = coupled(&[(1.0, 10.0), (100.0, 100.0)]);
        let inc = increase(&st, 0, MSS);
        let reno_cap = MSS * MSS / (1.0 * MSS);
        assert!(inc <= reno_cap + 1e-9);
    }

    #[test]
    fn faster_path_dominates_alpha() {
        // Path 0 has a much lower RTT: alpha is driven by its w/rtt².
        // Increase on both paths is proportional to 1/w_total (coupled
        // term), so both get the same Δ (equal mss), but the total matches
        // the fast path's Reno rate.
        let st = coupled(&[(10.0, 10.0), (10.0, 1000.0)]);
        let w_total = 20.0 * MSS;
        let alpha = {
            let max_term = (10.0 * MSS) / (0.01f64 * 0.01);
            let sum_rate = (10.0 * MSS) / 0.01 + (10.0 * MSS) / 1.0;
            w_total * max_term / (sum_rate * sum_rate)
        };
        let expect = alpha * MSS * MSS / w_total;
        let inc0 = increase(&st, 0, MSS);
        assert!((inc0 - expect.min(MSS * MSS / (10.0 * MSS))).abs() < 1e-9);
    }

    #[test]
    fn increase_is_finite_and_positive() {
        let st = coupled(&[(2.0, 5.0), (50.0, 40.0), (7.0, 80.0)]);
        for i in 0..3 {
            let inc = increase(&st, i, MSS);
            assert!(inc.is_finite());
            assert!(inc > 0.0);
        }
    }
}
