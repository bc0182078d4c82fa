//! Coupled congestion control for MPTCP.
//!
//! The paper compares three configurations, all implemented here behind one
//! interface:
//!
//! * **Uncoupled CUBIC** — each subflow runs `tcpsim`'s CUBIC, the Linux
//!   default and the paper's headline experiment. No state is shared: each
//!   subflow competes like an independent TCP connection, as in the kernel
//!   the paper ran.
//! * **LIA** (RFC 6356) — the Linked Increases Algorithm couples the
//!   *increase* across subflows through the `alpha` aggressiveness factor.
//! * **OLIA** (Khalili et al.) — the Opportunistic LIA adds per-path
//!   `alpha_r` terms that shift window between "best" and "max-window"
//!   paths.
//! * **BALIA** and **wVegas** — extensions beyond the paper's set.
//!
//! These five are the Linux MPTCP kernel's laws, and the only packet-level
//! ones: `fluidsim`'s Reno is the fluid model's AIMD reference and has no
//! packet controller.
//!
//! Architecturally a connection owns its controllers in one `Control`
//! value and lends a subflow sender one for the length of each call
//! (`Control::lend`). An uncoupled subflow is lent its own `Cubic`. A
//! coupled one is lent a [`CoupledCc`]: a short-lived view
//! `(&mut CoupleState, idx, algo)` that implements
//! `tcpsim::CongestionControl` and reads its siblings' windows and RTTs in
//! the connection's [`CoupleState`]. Nothing is shared between calls, so a
//! checkpoint is `Control`'s derived `Clone`. Slow start, loss response,
//! and RTO handling are per-subflow and standard (as in the Linux MPTCP
//! implementation); only the congestion-avoidance *increase* is coupled.

pub mod balia;
pub mod lia;
pub mod olia;
pub mod wvegas;

use simbase::SimTime;

use tcpsim::cc::{AckContext, CongestionControl, Cubic};

/// Which congestion-control configuration an MPTCP connection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcAlgo {
    /// Uncoupled CUBIC per subflow (the Linux default the paper measures).
    Cubic,
    /// Linked Increases Algorithm, RFC 6356.
    Lia,
    /// Opportunistic LIA (Khalili et al., IEEE/ACM ToN 2013).
    Olia,
    /// Balanced Linked Adaptation (Peng et al., 2014). Extension.
    Balia,
    /// Weighted Vegas (Cao et al., ICNP 2012). Extension; delay-based.
    WVegas,
}

impl CcAlgo {
    /// Human-readable name as used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            CcAlgo::Cubic => "CUBIC",
            CcAlgo::Lia => "LIA",
            CcAlgo::Olia => "OLIA",
            CcAlgo::Balia => "BALIA",
            CcAlgo::WVegas => "wVegas",
        }
    }
}

/// Per-subflow entry in a connection's coupling state. Windows in bytes,
/// RTTs in seconds (the coupled formulas are scale-free in these units).
#[derive(Debug, Clone)]
pub struct SubState {
    /// Congestion window, bytes (fractional).
    pub cwnd: f64,
    /// Slow-start threshold, bytes.
    pub ssthresh: f64,
    /// Smoothed RTT in seconds (a prior until the first sample).
    pub srtt: f64,
    /// MSS in bytes.
    pub mss: f64,
    /// Bytes acked since the last loss on this path (OLIA's l2_r).
    pub bytes_since_loss: f64,
    /// Bytes acked between the previous two losses (OLIA's l1_r).
    pub bytes_between_losses: f64,
    /// wVegas: the next instant a congestion-avoidance adjustment is
    /// allowed (once per RTT).
    pub next_adjust: SimTime,
}

impl SubState {
    /// A fresh subflow's entry: the initial window, infinite `ssthresh`
    /// (slow start) and a conservative RTT prior.
    pub fn new(initial_cwnd: u64, mss: u32) -> Self {
        SubState {
            cwnd: initial_cwnd as f64,
            ssthresh: f64::INFINITY,
            srtt: 0.1, // conservative prior before the first sample
            mss: mss as f64,
            bytes_since_loss: 0.0,
            bytes_between_losses: 0.0,
            next_adjust: SimTime::ZERO,
        }
    }

    /// OLIA's `l_r`: the larger of the two loss-interval byte counts — a
    /// smoothed estimate of the path's sustainable transfer per loss epoch.
    pub fn l_r(&self) -> f64 {
        self.bytes_since_loss.max(self.bytes_between_losses)
    }

    /// `CongestionControl::cwnd`: never below one segment.
    fn cwnd_bytes(&self) -> u64 {
        self.cwnd.max(self.mss) as u64
    }
}

/// Coupling state for one MPTCP connection.
#[derive(Debug, Clone, Default)]
pub struct CoupleState {
    /// One entry per subflow, indexed by subflow id.
    pub subs: Vec<SubState>,
}

impl CoupleState {
    /// The state of a connection whose subflows start with the given
    /// `(initial_cwnd, mss)`, in subflow order. Sized exactly: a connection
    /// has as many entries as subflows, not the next power of two, and
    /// growing it entry by entry would free a buffer at every connection
    /// start (DESIGN.md "Footprint").
    pub fn new(subflows: impl ExactSizeIterator<Item = (u64, u32)>) -> Self {
        let mut subs = Vec::with_capacity(subflows.len());
        subs.extend(subflows.map(|(initial_cwnd, mss)| SubState::new(initial_cwnd, mss)));
        CoupleState { subs }
    }

    /// Sum of subflow windows, bytes.
    pub fn total_cwnd(&self) -> f64 {
        self.subs.iter().map(|s| s.cwnd).sum()
    }

    /// `Σ w_p / rtt_p` — the total rate proxy used by LIA/OLIA/BALIA.
    pub fn sum_rate(&self) -> f64 {
        self.subs.iter().map(|s| s.cwnd / s.srtt).sum()
    }

    /// `max_p w_p / rtt_p²` (LIA's numerator).
    pub fn max_w_over_rtt2(&self) -> f64 {
        self.subs
            .iter()
            .map(|s| s.cwnd / (s.srtt * s.srtt))
            .fold(0.0, f64::max)
    }
}

/// A connection's congestion controllers, one per subflow, which it lends
/// to a subflow sender per call ([`Control::lend`]). `Clone` is a deep
/// copy: a checkpoint's controllers evolve apart from the original's.
#[derive(Debug, Clone)]
pub(crate) enum Control {
    /// Uncoupled CUBIC, by subflow index.
    Cubic(Vec<Cubic>),
    /// A coupled algorithm over the connection's coupling state.
    Coupled {
        /// LIA, OLIA, BALIA or wVegas.
        algo: CcAlgo,
        /// Every subflow's entry.
        state: CoupleState,
    },
}

impl Control {
    /// The controllers of a connection running `algo` whose subflows start
    /// with the given `(initial_cwnd, mss)`, in subflow order.
    pub(crate) fn new(algo: CcAlgo, subflows: impl ExactSizeIterator<Item = (u64, u32)>) -> Self {
        match algo {
            CcAlgo::Cubic => Control::Cubic(subflows.map(|(w, mss)| Cubic::new(w, mss)).collect()),
            CcAlgo::Lia | CcAlgo::Olia | CcAlgo::Balia | CcAlgo::WVegas => Control::Coupled {
                algo,
                state: CoupleState::new(subflows),
            },
        }
    }

    /// Call `f` with subflow `idx`'s controller lent for the length of the
    /// call; `None` without a subflow `idx`.
    pub(crate) fn lend<R>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut dyn CongestionControl) -> R,
    ) -> Option<R> {
        match self {
            Control::Cubic(ccs) => ccs.get_mut(idx).map(|cc| f(cc)),
            Control::Coupled { algo, state } => {
                (idx < state.subs.len()).then(|| f(&mut CoupledCc::new(state, idx, *algo)))
            }
        }
    }

    /// Subflow `idx`'s congestion window in bytes, what its lent
    /// controller's `cwnd()` answers; `None` without a subflow `idx`.
    pub(crate) fn cwnd(&self, idx: usize) -> Option<u64> {
        match self {
            Control::Cubic(ccs) => ccs.get(idx).map(Cubic::cwnd),
            Control::Coupled { state, .. } => state.subs.get(idx).map(SubState::cwnd_bytes),
        }
    }
}

/// The coupled controller of subflow `idx`: a view over the connection's
/// coupling state for the length of one call. Standard slow start and loss
/// response, coupled congestion-avoidance increase per [`CcAlgo`]; wVegas
/// replaces both with its delay-based rules. It writes only `subs[idx]`,
/// and reads its MSS there.
#[derive(Debug)]
pub struct CoupledCc<'a> {
    st: &'a mut CoupleState,
    idx: usize,
    algo: CcAlgo,
}

impl<'a> CoupledCc<'a> {
    /// Subflow `idx`'s controller (its entry already in `st`) running the
    /// coupled `algo`.
    pub fn new(st: &'a mut CoupleState, idx: usize, algo: CcAlgo) -> Self {
        CoupledCc { st, idx, algo }
    }

    /// This subflow's entry.
    fn own(&self) -> &SubState {
        &self.st.subs[self.idx]
    }
}

impl CongestionControl for CoupledCc<'_> {
    fn on_ack(&mut self, ctx: &AckContext) {
        let st = &mut *self.st;
        let (idx, acked) = (self.idx, ctx.bytes_acked as f64);
        let sub = &mut st.subs[idx];
        if let Some(srtt) = ctx.srtt {
            sub.srtt = srtt.as_secs_f64().max(1e-6);
        }
        sub.bytes_since_loss += acked;
        let in_slow_start = sub.cwnd < sub.ssthresh;

        match self.algo {
            CcAlgo::WVegas => wvegas::on_ack(st, idx, ctx),
            // Standard per-subflow slow start (RFC 6356 couples only CA).
            _ if in_slow_start => {
                let sub = &mut st.subs[idx];
                sub.cwnd += acked;
                if sub.cwnd > sub.ssthresh {
                    sub.cwnd = sub.ssthresh + sub.mss;
                }
            }
            algo => {
                let increase = match algo {
                    CcAlgo::Lia => lia::increase(st, idx, acked),
                    CcAlgo::Olia => olia::increase(st, idx, acked),
                    CcAlgo::Balia => balia::increase(st, idx, acked),
                    _ => unreachable!("a CoupledCc runs a coupled algorithm"),
                };
                let sub = &mut st.subs[idx];
                sub.cwnd = (sub.cwnd + increase).max(2.0 * sub.mss);
            }
        }
    }

    fn on_loss_event(&mut self, flight_size: u64) {
        let st = &mut *self.st;
        let (idx, half_flight) = (self.idx, flight_size as f64 / 2.0);
        let target = match self.algo {
            CcAlgo::Balia => st.subs[idx].cwnd - balia::decrease(st, idx),
            // wVegas halves the flight size.
            CcAlgo::WVegas => half_flight,
            // LIA and OLIA halve the subflow window (RFC 6356 §3; the
            // flight size is the effective window at loss time).
            _ => half_flight.max(st.subs[idx].cwnd / 2.0),
        };
        let sub = &mut st.subs[idx];
        let target = target.max(2.0 * sub.mss);
        sub.bytes_between_losses = sub.bytes_since_loss;
        sub.bytes_since_loss = 0.0;
        sub.ssthresh = target;
        sub.cwnd = target;
    }

    fn on_rto(&mut self, flight_size: u64) {
        let sub = &mut self.st.subs[self.idx];
        sub.bytes_between_losses = sub.bytes_since_loss;
        sub.bytes_since_loss = 0.0;
        sub.ssthresh = (flight_size as f64 / 2.0).max(2.0 * sub.mss);
        sub.cwnd = sub.mss;
    }

    fn cwnd(&self) -> u64 {
        self.own().cwnd_bytes()
    }

    /// `u64::MAX` while still infinite.
    fn ssthresh(&self) -> u64 {
        let ssthresh = self.own().ssthresh;
        if ssthresh.is_finite() {
            ssthresh as u64
        } else {
            u64::MAX
        }
    }

    /// wVegas is delay-based and reads the base RTT; LIA, OLIA and BALIA
    /// are loss-based and never do.
    fn reads_min_rtt(&self) -> bool {
        self.algo == CcAlgo::WVegas
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use simbase::{SimDuration, SimTime};

    pub const MSS: u32 = 1460;

    /// The coupling state of subflows in congestion avoidance, each with
    /// the given (cwnd_mss, rtt_ms).
    pub fn coupled(subs: &[(f64, f64)]) -> CoupleState {
        let windows = subs
            .iter()
            .map(|&(w_mss, _)| ((w_mss * MSS as f64) as u64, MSS));
        let mut st = CoupleState::new(windows);
        for (sub, &(_, rtt_ms)) in st.subs.iter_mut().zip(subs) {
            sub.srtt = rtt_ms / 1000.0;
            sub.ssthresh = 1.0; // force congestion avoidance
        }
        st
    }

    pub fn ack_ctx(bytes: u64, rtt_ms: u64) -> AckContext {
        AckContext {
            now: SimTime::from_millis(1),
            bytes_acked: bytes,
            srtt: Some(SimDuration::from_millis(rtt_ms)),
            latest_rtt: Some(SimDuration::from_millis(rtt_ms)),
            min_rtt: Some(SimDuration::from_millis(rtt_ms)),
            flight_size: 0,
            mss: MSS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use simbase::SimTime;

    /// The controllers of a connection of `n` subflows starting at IW10.
    fn control(algo: CcAlgo, n: usize) -> Control {
        Control::new(algo, std::iter::repeat_n((10 * MSS as u64, MSS), n))
    }

    #[test]
    fn algo_names() {
        assert_eq!(CcAlgo::Cubic.name(), "CUBIC");
        assert_eq!(CcAlgo::Lia.name(), "LIA");
    }

    /// Only the delay-based controllers read the base RTT, so only their
    /// subflow senders keep a windowed-minimum filter.
    #[test]
    fn only_cubic_and_wvegas_read_the_min_rtt() {
        for (algo, reads) in [
            (CcAlgo::Cubic, true),
            (CcAlgo::Lia, false),
            (CcAlgo::Olia, false),
            (CcAlgo::Balia, false),
            (CcAlgo::WVegas, true),
        ] {
            let lent = control(algo, 1).lend(0, |cc| cc.reads_min_rtt());
            assert_eq!(lent, Some(reads), "{algo:?}");
        }
    }

    /// A connection's controllers come in subflow order, each sized exactly.
    #[test]
    fn control_holds_one_controller_per_subflow() {
        for algo in [CcAlgo::Cubic, CcAlgo::Lia] {
            let (len, cap) = match control(algo, 3) {
                Control::Cubic(ccs) => (ccs.len(), ccs.capacity()),
                Control::Coupled { state, .. } => (state.subs.len(), state.subs.capacity()),
            };
            assert_eq!((len, cap), (3, 3), "{algo:?}");
        }
    }

    #[test]
    fn coupled_slow_start_is_per_subflow_doubling() {
        let mut control = control(CcAlgo::Lia, 1);
        // ssthresh infinite -> slow start.
        control.lend(0, |cc| cc.on_ack(&ack_ctx(MSS as u64, 10)));
        assert_eq!(control.cwnd(0), Some(11 * MSS as u64));
    }

    #[test]
    fn coupled_loss_halves_and_updates_loss_intervals() {
        let mut st = coupled(&[(20.0, 10.0)]);
        let mut cc = CoupledCc::new(&mut st, 0, CcAlgo::Lia);
        cc.on_ack(&ack_ctx(MSS as u64, 10));
        let w_before = cc.cwnd();
        cc.on_loss_event(w_before);
        assert!(cc.cwnd() <= w_before / 2 + MSS as u64);
        assert_eq!(st.subs[0].bytes_since_loss, 0.0);
        assert!(st.subs[0].bytes_between_losses > 0.0);
    }

    #[test]
    fn couple_state_aggregates() {
        let st = coupled(&[(10.0, 10.0), (30.0, 20.0)]);
        let w1 = 10.0 * MSS as f64;
        let w2 = 30.0 * MSS as f64;
        assert!((st.total_cwnd() - (w1 + w2)).abs() < 1e-6);
        assert!((st.sum_rate() - (w1 / 0.01 + w2 / 0.02)).abs() < 1e-3);
        assert!((st.max_w_over_rtt2() - (w1 / 0.0001).max(w2 / 0.0004)).abs() < 1e-3);
    }

    /// A lent coupled controller answers `cwnd()` / `ssthresh()` from its
    /// own entry after every call, and a `Clone` of the connection's
    /// controllers taken mid-sequence (a checkpoint) evolves apart from the
    /// original.
    #[test]
    fn lent_controllers_read_their_entry_and_a_checkpoint_evolves_apart() {
        /// Lend subflow `i` to `call`, then check what the lent controller
        /// reads against `subs[i]`.
        fn step(control: &mut Control, i: usize, call: impl FnOnce(&mut dyn CongestionControl)) {
            let read = control
                .lend(i, |cc| {
                    call(cc);
                    (cc.cwnd(), cc.ssthresh())
                })
                .unwrap();
            let Control::Coupled { algo, state } = control else {
                panic!("a coupled algorithm's controllers are coupled");
            };
            let sub = &state.subs[i];
            let ssthresh = if sub.ssthresh.is_finite() {
                sub.ssthresh as u64
            } else {
                u64::MAX
            };
            assert_eq!(
                read,
                (sub.cwnd.max(MSS as f64) as u64, ssthresh),
                "{algo:?} {i}"
            );
            assert_eq!(control.cwnd(i), Some(read.0));
        }
        for algo in [CcAlgo::Lia, CcAlgo::Olia, CcAlgo::Balia, CcAlgo::WVegas] {
            // Slow start on subflow 0, congestion avoidance on subflow 1.
            let mut control = control(algo, 2);
            step(&mut control, 0, |_| {});
            step(&mut control, 1, |cc| cc.on_loss_event(10 * MSS as u64));
            for ms in 0..50 {
                let mut ctx = ack_ctx(MSS as u64, 10);
                ctx.now = SimTime::from_millis(10 * ms);
                step(&mut control, 0, |cc| cc.on_ack(&ctx));
                step(&mut control, 1, |cc| cc.on_ack(&ctx));
            }
            step(&mut control, 0, |cc| cc.on_rto(20 * MSS as u64));

            // A checkpoint carries every window along; then each copy moves
            // only its own.
            let mut copy = control.clone();
            let windows = |c: &Control| [0, 1].map(|i| c.cwnd(i));
            assert_eq!(windows(&copy), windows(&control), "{algo:?}");
            let before = windows(&control);
            step(&mut copy, 1, |cc| cc.on_rto(20 * MSS as u64));
            assert_eq!(windows(&control), before, "{algo:?}");
            assert_ne!(copy.cwnd(1), control.cwnd(1), "{algo:?}");
            step(&mut control, 1, |cc| cc.on_ack(&ack_ctx(MSS as u64, 10)));
            assert_eq!(copy.cwnd(0), control.cwnd(0), "{algo:?}");
        }
    }

    #[test]
    fn rto_collapses_coupled_window() {
        let mut st = coupled(&[(20.0, 10.0)]);
        let mut cc = CoupledCc::new(&mut st, 0, CcAlgo::Olia);
        cc.on_rto(20 * MSS as u64);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert_eq!(cc.ssthresh(), 10 * MSS as u64);
    }
}
