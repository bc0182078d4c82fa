//! OLIA — the Opportunistic Linked Increases Algorithm.
//!
//! Khalili, Gast, Popovic, Le Boudec: *MPTCP Is Not Pareto-Optimal:
//! Performance Issues and a Possible Solution* (IEEE/ACM ToN 2013). The
//! congestion-avoidance increase on path `r` per ACK of `acked` bytes is
//!
//! ```text
//! Δw_r = (  w_r/rtt_r²                α_r  )
//!        ( ──────────────────────  +  ───  ) · acked · mss
//!        (  (Σ_p w_p/rtt_p)²          w_r  )
//! ```
//!
//! with the opportunistic term `α_r` defined via two path sets:
//!
//! * `M` — paths with the largest window;
//! * `B` — "best" paths, maximizing `l_p² / rtt_p`, where `l_p` is the
//!   larger of (bytes acked between the last two losses, bytes acked since
//!   the last loss) — an estimate of the path's sustainable epoch size.
//!
//! If `B \ M` is non-empty (some best path does not have the biggest
//! window), every `r ∈ B \ M` gets `α_r = +1/(n·|B\M|)` and every
//! `r ∈ M` gets `α_r = −1/(n·|M|)`; all other paths get 0. The α terms sum
//! to zero: OLIA *re-balances* window from max-window paths to best paths
//! while the first term provides LIA-like coupled growth.
//!
//! The paper observes OLIA converging to the optimum only when Path 2 is
//! the default shortest path, and very slowly (~20 s) — the α nudges are
//! O(1/w) per ACK.

use super::{CoupleState, SubState};

/// Fraction of `l_p²/rtt_p` within which two paths count as equally "best"
/// (exact float equality would make the set degenerate).
const BEST_TOL: f64 = 1e-9;

/// The opportunistic term `α_r` of path `idx`. It runs on every
/// congestion-avoidance ACK, so it counts `|M|` and `|B \ M|` and
/// allocates nothing.
pub fn alpha(st: &CoupleState, idx: usize) -> f64 {
    let n = st.subs.len();
    let w_max = st.subs.iter().map(|s| s.cwnd).fold(f64::MIN, f64::max);
    let in_m = |s: &SubState| (s.cwnd - w_max).abs() <= BEST_TOL * w_max.max(1.0);
    let quality = |s: &SubState| {
        let l = s.l_r();
        l * l / s.srtt
    };
    let q_max = st.subs.iter().map(quality).fold(f64::MIN, f64::max);
    let in_b = |s: &SubState| (quality(s) - q_max).abs() <= BEST_TOL * q_max.max(1.0);
    let (mut m_size, mut b_minus_m) = (0usize, 0usize);
    for s in &st.subs {
        if in_m(s) {
            m_size += 1;
        } else if in_b(s) {
            b_minus_m += 1;
        }
    }
    match st.subs.get(idx) {
        // Collected paths == max paths: no transfer term.
        _ if b_minus_m == 0 || m_size == 0 => 0.0,
        Some(s) if in_m(s) => -1.0 / (n as f64 * m_size as f64),
        Some(s) if in_b(s) => 1.0 / (n as f64 * b_minus_m as f64),
        _ => 0.0,
    }
}

/// Congestion-avoidance increase in bytes for subflow `idx` given `acked`
/// bytes newly acknowledged. May be negative (window transfer away from
/// max-window paths); the caller floors the window.
pub fn increase(st: &CoupleState, idx: usize, acked: f64) -> f64 {
    let sub = &st.subs[idx];
    let sum_rate = st.sum_rate();
    if sum_rate <= 0.0 || sub.cwnd <= 0.0 {
        return 0.0;
    }
    let coupled = (sub.cwnd / (sub.srtt * sub.srtt)) / (sum_rate * sum_rate);
    let alpha_r = alpha(st, idx);
    (coupled + alpha_r / sub.cwnd) * acked * sub.mss
}

#[cfg(test)]
mod tests {
    use super::super::testutil::coupled;
    use super::*;

    const MSS: f64 = 1460.0;

    /// Set every subflow's loss-interval estimate: `l` bytes since the
    /// last loss, none between the two before.
    fn with_l(st: &mut CoupleState, ls: &[f64]) {
        for (sub, &l) in st.subs.iter_mut().zip(ls) {
            sub.bytes_since_loss = l;
            sub.bytes_between_losses = 0.0;
        }
    }

    #[test]
    fn alphas_sum_to_zero() {
        let mut st = coupled(&[(30.0, 10.0), (10.0, 10.0), (5.0, 10.0)]);
        with_l(&mut st, &[1000.0, 90_000.0, 1000.0]);
        let a: Vec<f64> = (0..3).map(|i| alpha(&st, i)).collect();
        let sum: f64 = a.iter().sum();
        assert!(sum.abs() < 1e-12, "alphas must sum to 0: {a:?}");
        // Path 1 is best-but-not-max: positive. Path 0 is max: negative.
        assert!(a[1] > 0.0);
        assert!(a[0] < 0.0);
        assert_eq!(a[2], 0.0);
    }

    #[test]
    fn no_transfer_when_best_equals_max() {
        // The max-window path is also the best path: all alphas zero.
        let mut st = coupled(&[(30.0, 10.0), (10.0, 10.0)]);
        with_l(&mut st, &[90_000.0, 1000.0]);
        let a: Vec<f64> = (0..2).map(|i| alpha(&st, i)).collect();
        assert_eq!(a, vec![0.0, 0.0]);
    }

    #[test]
    fn increase_can_be_negative_on_max_window_path() {
        let mut st = coupled(&[(50.0, 10.0), (2.0, 10.0)]);
        with_l(&mut st, &[100.0, 1_000_000.0]);
        // Tiny coupled term (big denominator), negative alpha on path 0.
        let inc0 = increase(&st, 0, MSS);
        let inc1 = increase(&st, 1, MSS);
        assert!(inc1 > 0.0);
        // Path 0's alpha term: -1/(2*1)/w0; coupled term is small but may
        // dominate; verify the alpha sign at least made it smaller than the
        // pure coupled term.
        let pure = (st.subs[0].cwnd / (st.subs[0].srtt * st.subs[0].srtt))
            / (st.sum_rate() * st.sum_rate())
            * MSS
            * st.subs[0].mss;
        assert!(inc0 < pure);
    }

    #[test]
    fn single_path_olia_is_positive_and_reno_like_scale() {
        let mut st = coupled(&[(10.0, 10.0)]);
        with_l(&mut st, &[10_000.0]);
        let inc = increase(&st, 0, MSS);
        // Single path: coupled term = (w/rtt²)/(w/rtt)² = 1/w; alpha = 0
        // (B == M). So increase = acked·mss/w: exactly Reno.
        let reno = MSS * MSS / (10.0 * MSS);
        assert!((inc - reno).abs() < 1e-9, "inc {inc} reno {reno}");
    }

    #[test]
    fn equal_paths_split_like_lia() {
        let mut st = coupled(&[(10.0, 10.0), (10.0, 10.0)]);
        with_l(&mut st, &[5000.0, 5000.0]);
        let inc0 = increase(&st, 0, MSS);
        let inc1 = increase(&st, 1, MSS);
        assert!((inc0 - inc1).abs() < 1e-12);
        // Coupled term: (w/rtt²)/(2w/rtt)² = 1/(4w): half-Reno each, like LIA.
        let reno = MSS * MSS / (10.0 * MSS);
        assert!((inc0 - reno / 4.0).abs() < 1e-9);
    }

    #[test]
    fn l_r_uses_max_of_intervals() {
        let mut st = coupled(&[(10.0, 10.0)]);
        with_l(&mut st, &[0.0]);
        assert_eq!(st.subs[0].l_r(), 0.0);
        st.subs[0].bytes_since_loss = 500.0;
        st.subs[0].bytes_between_losses = 2000.0;
        assert_eq!(st.subs[0].l_r(), 2000.0);
    }
}
