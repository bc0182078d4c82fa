//! The pluggable window-dynamics laws.
//!
//! A [`FluidLaw`] maps the shared coupling snapshot to a per-ACK window
//! increase and a per-loss-event window decrease, both in bytes — exactly
//! the quantities the discrete controllers apply. The coupled laws do not
//! re-derive any formula: they call the *same* public functions the packet
//! simulator's `CoupledCc` uses (`mptcpsim::cc::{lia, olia, balia}`), so a
//! change to an algorithm automatically changes its fluid prediction.
//!
//! The only approximations live in the uncoupled laws: Reno is AIMD(1, ½)
//! by definition, and [`FluidLaw::CubicApprox`] models CUBIC in its
//! TCP-friendly region as the AIMD pair RFC 8312 §4.2 declares
//! rate-equivalent to it — β = 0.7 and α = 3(1−β)/(1+β). On the paper's
//! short-RTT, tens-of-packets paths real CUBIC operates in exactly that
//! region, and where it does not the divergence is documented in
//! EXPERIMENTS.md rather than papered over.

use mptcpsim::cc::{balia, lia, olia, CcAlgo, CoupleState};

/// CUBIC's multiplicative-decrease factor (RFC 8312): `w ← β·w`.
const CUBIC_BETA: f64 = 0.7;

/// A window-dynamics law the fluid model can integrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FluidLaw {
    /// Uncoupled Reno: AIMD(1 MSS per RTT, halve on loss). The fluid
    /// model's AIMD reference only: no packet-level algorithm maps to it.
    Reno,
    /// Uncoupled CUBIC approximated by its TCP-friendly AIMD equivalent
    /// (RFC 8312 §4.2): α = 3(1−β)/(1+β), β = 0.7.
    CubicApprox,
    /// LIA (RFC 6356) — delegates to [`mptcpsim::cc::lia`].
    Lia,
    /// OLIA (Khalili et al.) — delegates to [`mptcpsim::cc::olia`].
    Olia,
    /// Balia (Peng et al.) — delegates to [`mptcpsim::cc::balia`].
    Balia,
}

impl FluidLaw {
    /// Every law, in reporting order.
    pub const ALL: [FluidLaw; 5] = [
        FluidLaw::Reno,
        FluidLaw::CubicApprox,
        FluidLaw::Lia,
        FluidLaw::Olia,
        FluidLaw::Balia,
    ];

    /// The fluid law corresponding to a packet-simulator algorithm (never
    /// [`FluidLaw::Reno`]). `None` for wVegas: it is delay-based, and this
    /// price model carries loss, not queueing delay, so pretending to
    /// predict it would be dishonest.
    pub fn from_algo(algo: CcAlgo) -> Option<FluidLaw> {
        match algo {
            CcAlgo::Cubic => Some(FluidLaw::CubicApprox),
            CcAlgo::Lia => Some(FluidLaw::Lia),
            CcAlgo::Olia => Some(FluidLaw::Olia),
            CcAlgo::Balia => Some(FluidLaw::Balia),
            CcAlgo::WVegas => None,
        }
    }

    /// Human-readable name as used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FluidLaw::Reno => "Reno",
            FluidLaw::CubicApprox => "CUBIC~",
            FluidLaw::Lia => "LIA",
            FluidLaw::Olia => "OLIA",
            FluidLaw::Balia => "BALIA",
        }
    }

    /// Expected congestion-avoidance window increase, in bytes, for one
    /// ACK of one MSS on subflow `idx` of the snapshot `st`. May be
    /// negative for OLIA (its α term transfers window between paths).
    pub fn ack_increase(&self, st: &CoupleState, idx: usize) -> f64 {
        let sub = &st.subs[idx];
        let mss = sub.mss;
        match self {
            FluidLaw::Reno => mss * mss / sub.cwnd,
            FluidLaw::CubicApprox => {
                let alpha = 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA);
                alpha * mss * mss / sub.cwnd
            }
            FluidLaw::Lia => lia::increase(st, idx, mss),
            FluidLaw::Olia => olia::increase(st, idx, mss),
            FluidLaw::Balia => balia::increase(st, idx, mss),
        }
    }

    /// Window decrease, in bytes, applied at one loss event on subflow
    /// `idx` of the snapshot `st`.
    pub fn loss_decrease(&self, st: &CoupleState, idx: usize) -> f64 {
        let sub = &st.subs[idx];
        match self {
            // Reno, LIA and OLIA halve the subflow window (RFC 6356 §3).
            FluidLaw::Reno | FluidLaw::Lia | FluidLaw::Olia => sub.cwnd / 2.0,
            FluidLaw::CubicApprox => (1.0 - CUBIC_BETA) * sub.cwnd,
            FluidLaw::Balia => balia::decrease(st, idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcpsim::cc::SubState;
    use simbase::SimTime;

    const MSS: f64 = 1460.0;

    /// A congestion-avoidance snapshot with the given (cwnd bytes, rtt s)
    /// per subflow; loss-interval estimates set so OLIA sees equal paths.
    fn snapshot(subs: &[(f64, f64)]) -> CoupleState {
        CoupleState {
            subs: subs
                .iter()
                .map(|&(cwnd, srtt)| SubState {
                    cwnd,
                    ssthresh: 0.0,
                    srtt,
                    mss: MSS,
                    bytes_since_loss: 100_000.0,
                    bytes_between_losses: 0.0,
                    next_adjust: SimTime::ZERO,
                })
                .collect(),
        }
    }

    #[test]
    fn reno_is_aimd_one_mss_per_rtt() {
        let st = snapshot(&[(20.0 * MSS, 0.01)]);
        let inc = FluidLaw::Reno.ack_increase(&st, 0);
        assert!((inc - MSS / 20.0).abs() < 1e-9);
        let dec = FluidLaw::Reno.loss_decrease(&st, 0);
        assert!((dec - 10.0 * MSS).abs() < 1e-9);
    }

    #[test]
    fn cubic_approx_matches_rfc8312_friendly_aimd() {
        let st = snapshot(&[(20.0 * MSS, 0.01)]);
        let inc = FluidLaw::CubicApprox.ack_increase(&st, 0);
        let alpha = 3.0 * 0.3 / 1.7;
        assert!((inc - alpha * MSS / 20.0).abs() < 1e-9);
        let dec = FluidLaw::CubicApprox.loss_decrease(&st, 0);
        assert!((dec - 0.3 * 20.0 * MSS).abs() < 1e-9);
    }

    #[test]
    fn coupled_laws_delegate_to_mptcpsim() {
        let st = snapshot(&[(20.0 * MSS, 0.01), (40.0 * MSS, 0.02)]);
        for idx in 0..2 {
            assert_eq!(
                FluidLaw::Lia.ack_increase(&st, idx).to_bits(),
                lia::increase(&st, idx, MSS).to_bits()
            );
            assert_eq!(
                FluidLaw::Olia.ack_increase(&st, idx).to_bits(),
                olia::increase(&st, idx, MSS).to_bits()
            );
            assert_eq!(
                FluidLaw::Balia.ack_increase(&st, idx).to_bits(),
                balia::increase(&st, idx, MSS).to_bits()
            );
            assert_eq!(
                FluidLaw::Balia.loss_decrease(&st, idx).to_bits(),
                balia::decrease(&st, idx).to_bits()
            );
        }
    }

    #[test]
    fn algo_mapping_round_trips() {
        assert_eq!(
            FluidLaw::from_algo(CcAlgo::Cubic),
            Some(FluidLaw::CubicApprox)
        );
        assert_eq!(FluidLaw::from_algo(CcAlgo::Lia), Some(FluidLaw::Lia));
        assert_eq!(FluidLaw::from_algo(CcAlgo::Olia), Some(FluidLaw::Olia));
        assert_eq!(FluidLaw::from_algo(CcAlgo::Balia), Some(FluidLaw::Balia));
        assert_eq!(FluidLaw::from_algo(CcAlgo::WVegas), None);
        assert_eq!(FluidLaw::ALL.len(), 5);
    }

    #[test]
    fn single_path_coupled_laws_reduce_to_reno() {
        // The design requirement every coupled algorithm satisfies: with a
        // single subflow the increase equals Reno's.
        let st = snapshot(&[(30.0 * MSS, 0.02)]);
        let reno = FluidLaw::Reno.ack_increase(&st, 0);
        for law in [FluidLaw::Lia, FluidLaw::Balia] {
            let inc = law.ack_increase(&st, 0);
            assert!(
                (inc - reno).abs() < 1e-9,
                "{}: {inc} vs reno {reno}",
                law.name()
            );
        }
    }
}
