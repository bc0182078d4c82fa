//! Coupled congestion control for MPTCP.
//!
//! The paper compares three configurations, all implemented here behind one
//! interface:
//!
//! * **Uncoupled** — each subflow runs a standalone algorithm (CUBIC in the
//!   paper's headline experiment, Reno as an ablation). No state is shared:
//!   each subflow gets a bare `tcpsim` controller and competes like an
//!   independent TCP connection, as in the kernel the paper ran.
//! * **LIA** (RFC 6356) — the Linked Increases Algorithm couples the
//!   *increase* across subflows through the `alpha` aggressiveness factor.
//! * **OLIA** (Khalili et al.) — the Opportunistic LIA adds per-path
//!   `alpha_r` terms that shift window between "best" and "max-window"
//!   paths.
//! * **BALIA** and **wVegas** — extensions beyond the paper's set.
//!
//! Architecturally each coupled subflow owns a [`CoupledCc`] implementing
//! `tcpsim::CongestionControl`; the coupled algorithms read their siblings'
//! windows and RTTs through a shared [`CoupleState`]. It is an
//! `Rc<RefCell<_>>`: a connection and all its subflow controllers live in
//! one agent on one thread, and the `Rc` makes the compiler hold that —
//! an agent carrying one cannot be sent to another thread (`netsim::Agent`
//! has no `Send` bound). Each callback borrows the cell for its own
//! duration and calls no other controller meanwhile, so a borrow never
//! meets another. A controller is the only writer of its own window, so it
//! keeps a copy (`OwnWindow`) and answers `cwnd()` / `ssthresh()` — asked
//! on every scheduling decision — without touching the cell. Slow start, loss
//! response, and RTO handling are per-subflow and standard (as in the Linux
//! MPTCP implementation); only the congestion-avoidance *increase* is
//! coupled.

pub mod balia;
pub mod lia;
pub mod olia;
pub mod wvegas;

use std::cell::RefCell;
use std::rc::Rc;

use tcpsim::cc::{min_cwnd, AckContext, CongestionControl, Cubic, LossContext, Reno};

/// Which congestion-control configuration an MPTCP connection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcAlgo {
    /// Uncoupled CUBIC per subflow (the Linux default the paper measures).
    Cubic,
    /// Uncoupled Reno per subflow (ablation).
    RenoUncoupled,
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
            CcAlgo::RenoUncoupled => "Reno",
            CcAlgo::Lia => "LIA",
            CcAlgo::Olia => "OLIA",
            CcAlgo::Balia => "BALIA",
            CcAlgo::WVegas => "wVegas",
        }
    }

    /// True if subflows share coupling state.
    pub fn is_coupled(&self) -> bool {
        !matches!(self, CcAlgo::Cubic | CcAlgo::RenoUncoupled)
    }
}

/// Per-subflow view stored in the shared coupling state. Windows in bytes,
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
}

impl SubState {
    fn new(initial_cwnd: u64, mss: u32) -> Self {
        SubState {
            cwnd: initial_cwnd as f64,
            ssthresh: f64::INFINITY,
            srtt: 0.1, // conservative prior before the first sample
            mss: mss as f64,
            bytes_since_loss: 0.0,
            bytes_between_losses: 0.0,
        }
    }

    /// OLIA's `l_r`: the larger of the two loss-interval byte counts — a
    /// smoothed estimate of the path's sustainable transfer per loss epoch.
    pub fn l_r(&self) -> f64 {
        self.bytes_since_loss.max(self.bytes_between_losses)
    }
}

/// A coupled controller's own copy of the two fields of its [`SubState`]
/// that the sender reads on every scheduling decision. The controller is
/// the only writer of `subs[idx].{cwnd, ssthresh}`, so it refreshes this
/// wherever it writes them and answers `cwnd()` / `ssthresh()` from here
/// without borrowing the coupling state; siblings still read the shared entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OwnWindow {
    cwnd: f64,
    ssthresh: f64,
}

impl OwnWindow {
    pub(crate) fn of(sub: &SubState) -> Self {
        OwnWindow {
            cwnd: sub.cwnd,
            ssthresh: sub.ssthresh,
        }
    }

    /// The copy of subflow `idx`'s entry in `shared`.
    pub(crate) fn load(shared: &Rc<RefCell<CoupleState>>, idx: usize) -> Self {
        Self::of(&shared.borrow().subs[idx])
    }

    /// Still what the shared entry says? (`debug_assert`ed on every read:
    /// a second writer would make the borrow-free answer stale.)
    fn mirrors(&self, shared: &Rc<RefCell<CoupleState>>, idx: usize) -> bool {
        let now = Self::load(shared, idx);
        (self.cwnd.to_bits(), self.ssthresh.to_bits())
            == (now.cwnd.to_bits(), now.ssthresh.to_bits())
    }

    /// `CongestionControl::cwnd`: never below one segment.
    pub(crate) fn cwnd(&self, shared: &Rc<RefCell<CoupleState>>, idx: usize, mss: u32) -> u64 {
        debug_assert!(
            self.mirrors(shared, idx),
            "subflow {idx}'s window has a second writer"
        );
        self.cwnd.max(mss as f64) as u64
    }

    /// `CongestionControl::ssthresh`: `u64::MAX` while still infinite.
    pub(crate) fn ssthresh(&self, shared: &Rc<RefCell<CoupleState>>, idx: usize) -> u64 {
        debug_assert!(
            self.mirrors(shared, idx),
            "subflow {idx}'s window has a second writer"
        );
        if self.ssthresh.is_finite() {
            self.ssthresh as u64
        } else {
            u64::MAX
        }
    }
}

/// Shared coupling state for one MPTCP connection.
#[derive(Debug, Clone, Default)]
pub struct CoupleState {
    /// One entry per subflow, indexed by subflow id.
    pub subs: Vec<SubState>,
}

impl CoupleState {
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

/// Handle used to create per-subflow controllers sharing one state.
#[derive(Debug, Clone, Default)]
pub struct Coupling {
    state: Rc<RefCell<CoupleState>>,
}

impl Coupling {
    /// Fresh coupling state for a new connection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deep copy: a new `Coupling` over an independent copy of the shared
    /// state. Note that `#[derive(Clone)]` on `Coupling` is a *shallow*
    /// handle clone (that is what subflow controllers want); checkpointing
    /// must use this instead and then re-bind each controller with the
    /// copy's `rebind`.
    pub fn deep_clone(&self) -> Coupling {
        let snapshot = self.state.borrow().clone();
        Coupling {
            state: Rc::new(RefCell::new(snapshot)),
        }
    }

    /// Re-point `cc` — a controller [`Coupling::make_cc`] built for a
    /// coupled algorithm, or a clone of one — at this coupling's state
    /// (after a checkpoint deep copy). Uncoupled controllers hold no
    /// shared state and are not re-bound.
    pub(crate) fn rebind(&self, cc: &mut dyn CongestionControl) {
        let cc = cc
            .as_any_mut()
            .expect("mptcp subflow controller lacks as_any_mut"); // simlint: allow(unwrap, reason = "every controller this crate installs implements as_any_mut; a None is a snapshot-layer wiring bug worth aborting on")
        let shared = self.state.clone();
        if let Some(m) = cc.downcast_mut::<CoupledCc>() {
            m.rebase(shared);
        } else if let Some(m) = cc.downcast_mut::<wvegas::WVegasCc>() {
            m.rebase(shared);
        } else {
            // simlint: allow(panic-surface, reason = "make_cc builds exactly these two coupled types; anything else is a snapshot-layer wiring bug worth aborting on")
            panic!("unknown mptcp subflow controller type");
        }
    }

    /// Build the controller for the next subflow. Must be called in subflow
    /// id order (0, 1, 2, …). An uncoupled algorithm gets a bare `tcpsim`
    /// controller and no entry in the shared state.
    pub fn make_cc(&self, algo: CcAlgo, initial_cwnd: u64, mss: u32) -> Box<dyn CongestionControl> {
        match algo {
            CcAlgo::Cubic => Box::new(Cubic::new(initial_cwnd, mss)),
            CcAlgo::RenoUncoupled => Box::new(Reno::new(initial_cwnd, mss)),
            CcAlgo::WVegas => {
                let idx = self.push_sub(initial_cwnd, mss);
                Box::new(wvegas::WVegasCc::new(self.state.clone(), idx, mss))
            }
            CcAlgo::Lia | CcAlgo::Olia | CcAlgo::Balia => {
                let idx = self.push_sub(initial_cwnd, mss);
                Box::new(CoupledCc {
                    own: OwnWindow::load(&self.state, idx),
                    shared: self.state.clone(),
                    idx,
                    algo,
                    mss,
                })
            }
        }
    }

    /// Add the next subflow's entry to the shared state; returns its index.
    fn push_sub(&self, initial_cwnd: u64, mss: u32) -> usize {
        let mut st = self.state.borrow_mut();
        // Exact fit: a connection has as many entries as subflows, not the
        // next power of two (DESIGN.md "Footprint").
        st.subs.reserve_exact(1);
        st.subs.push(SubState::new(initial_cwnd, mss));
        st.subs.len() - 1
    }
}

#[cfg(test)]
impl Coupling {
    /// Test helper: read the shared state.
    pub(crate) fn state(&self) -> std::cell::Ref<'_, CoupleState> {
        self.state.borrow()
    }

    /// Test helper: set the "bytes since last loss" estimate directly.
    pub(crate) fn set_l_for_test(&self, idx: usize, l: f64) {
        let mut st = self.state.borrow_mut();
        st.subs[idx].bytes_since_loss = l;
        st.subs[idx].bytes_between_losses = 0.0;
    }

    /// Test helper: set both loss-interval estimates.
    pub(crate) fn set_intervals_for_test(&self, idx: usize, since: f64, between: f64) {
        let mut st = self.state.borrow_mut();
        st.subs[idx].bytes_since_loss = since;
        st.subs[idx].bytes_between_losses = between;
    }
}

/// The coupled controller: standard slow start and loss response, coupled
/// congestion-avoidance increase per [`CcAlgo`].
///
/// `Clone` is a *shallow* copy — the clone shares the same `CoupleState`
/// `Rc`; checkpointing re-binds it via [`CoupledCc::rebase`].
#[derive(Debug, Clone)]
pub struct CoupledCc {
    shared: Rc<RefCell<CoupleState>>,
    idx: usize,
    algo: CcAlgo,
    mss: u32,
    own: OwnWindow,
}

impl CoupledCc {
    /// Re-point this controller at a different shared-state `Rc` (used
    /// after a checkpoint deep copy) and take its window from there.
    fn rebase(&mut self, shared: Rc<RefCell<CoupleState>>) {
        self.own = OwnWindow::load(&shared, self.idx);
        self.shared = shared;
    }
}

impl CongestionControl for CoupledCc {
    fn on_ack(&mut self, ctx: &AckContext) {
        let mut st = self.shared.borrow_mut();
        if let Some(srtt) = ctx.srtt {
            st.subs[self.idx].srtt = srtt.as_secs_f64().max(1e-6);
        }
        st.subs[self.idx].bytes_since_loss += ctx.bytes_acked as f64;

        let in_ss = st.subs[self.idx].cwnd < st.subs[self.idx].ssthresh;
        if in_ss {
            // Standard per-subflow slow start (RFC 6356 couples only CA).
            let sub = &mut st.subs[self.idx];
            sub.cwnd += ctx.bytes_acked as f64;
            if sub.cwnd > sub.ssthresh {
                sub.cwnd = sub.ssthresh + sub.mss;
            }
            self.own = OwnWindow::of(sub);
            return;
        }

        let increase = match self.algo {
            CcAlgo::Lia => lia::increase(&st, self.idx, ctx.bytes_acked as f64),
            CcAlgo::Olia => olia::increase(&st, self.idx, ctx.bytes_acked as f64),
            CcAlgo::Balia => balia::increase(&st, self.idx, ctx.bytes_acked as f64),
            _ => unreachable!("make_cc builds a CoupledCc for LIA, OLIA and BALIA only"),
        };
        let sub = &mut st.subs[self.idx];
        sub.cwnd = (sub.cwnd + increase).max(min_cwnd(self.mss));
        self.own = OwnWindow::of(sub);
    }

    fn on_loss_event(&mut self, ctx: &LossContext) {
        let mut st = self.shared.borrow_mut();
        let decrease = match self.algo {
            CcAlgo::Balia => balia::decrease(&st, self.idx),
            // LIA and OLIA halve the subflow window (RFC 6356 §3; the
            // flight size is the effective window at loss time).
            _ => (ctx.flight_size as f64 / 2.0).max(st.subs[self.idx].cwnd / 2.0),
        };
        let sub = &mut st.subs[self.idx];
        sub.bytes_between_losses = sub.bytes_since_loss;
        sub.bytes_since_loss = 0.0;
        let target = match self.algo {
            CcAlgo::Balia => (sub.cwnd - decrease).max(min_cwnd(self.mss)),
            _ => decrease.max(min_cwnd(self.mss)),
        };
        sub.ssthresh = target;
        sub.cwnd = target;
        self.own = OwnWindow::of(sub);
    }

    fn on_rto(&mut self, ctx: &LossContext) {
        let mut st = self.shared.borrow_mut();
        let sub = &mut st.subs[self.idx];
        sub.bytes_between_losses = sub.bytes_since_loss;
        sub.bytes_since_loss = 0.0;
        sub.ssthresh = (ctx.flight_size as f64 / 2.0).max(min_cwnd(self.mss));
        sub.cwnd = self.mss as f64;
        self.own = OwnWindow::of(sub);
    }

    fn cwnd(&self) -> u64 {
        self.own.cwnd(&self.shared, self.idx, self.mss)
    }

    fn ssthresh(&self) -> u64 {
        self.own.ssthresh(&self.shared, self.idx)
    }

    fn name(&self) -> &'static str {
        self.algo.name()
    }

    fn clone_boxed(&self) -> Box<dyn CongestionControl> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use simbase::{SimDuration, SimTime};

    /// Build a coupling with `n` subflows in congestion avoidance, each with
    /// the given (cwnd_mss, rtt_ms).
    pub fn coupled(
        algo: CcAlgo,
        subs: &[(f64, f64)],
    ) -> (Coupling, Vec<Box<dyn CongestionControl>>) {
        const MSS: u32 = 1460;
        let coupling = Coupling::new();
        let mut ccs = Vec::new();
        for &(w_mss, rtt_ms) in subs {
            let cc = coupling.make_cc(algo, (w_mss * MSS as f64) as u64, MSS);
            ccs.push(cc);
            let idx = ccs.len() - 1;
            {
                let mut st = coupling.state.borrow_mut();
                st.subs[idx].srtt = rtt_ms / 1000.0;
                st.subs[idx].ssthresh = 1.0; // force congestion avoidance
            }
            // The controller did not make that write: have it re-read.
            coupling.rebind(ccs[idx].as_mut());
        }
        (coupling, ccs)
    }

    pub fn ack_ctx(bytes: u64, rtt_ms: u64) -> AckContext {
        AckContext {
            now: SimTime::from_millis(1),
            bytes_acked: bytes,
            srtt: Some(SimDuration::from_millis(rtt_ms)),
            latest_rtt: Some(SimDuration::from_millis(rtt_ms)),
            min_rtt: Some(SimDuration::from_millis(rtt_ms)),
            flight_size: 0,
            mss: 1460,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use simbase::SimTime;

    const MSS: u32 = 1460;

    #[test]
    fn algo_names_and_coupling_flags() {
        assert_eq!(CcAlgo::Cubic.name(), "CUBIC");
        assert!(!CcAlgo::Cubic.is_coupled());
        assert!(CcAlgo::Lia.is_coupled());
        assert!(CcAlgo::Olia.is_coupled());
        assert!(CcAlgo::Balia.is_coupled());
    }

    #[test]
    fn coupled_slow_start_is_per_subflow_doubling() {
        let coupling = Coupling::new();
        let mut cc = coupling.make_cc(CcAlgo::Lia, 10 * MSS as u64, MSS);
        // ssthresh infinite -> slow start.
        cc.on_ack(&ack_ctx(MSS as u64, 10));
        assert_eq!(cc.cwnd(), 11 * MSS as u64);
    }

    #[test]
    fn coupled_loss_halves_and_updates_loss_intervals() {
        let (coupling, mut ccs) = coupled(CcAlgo::Lia, &[(20.0, 10.0)]);
        ccs[0].on_ack(&ack_ctx(MSS as u64, 10));
        let w_before = ccs[0].cwnd();
        ccs[0].on_loss_event(&tcpsim::cc::LossContext {
            now: SimTime::from_millis(2),
            flight_size: w_before,
            mss: MSS,
        });
        assert!(ccs[0].cwnd() <= w_before / 2 + MSS as u64);
        let st = coupling.state();
        assert_eq!(st.subs[0].bytes_since_loss, 0.0);
        assert!(st.subs[0].bytes_between_losses > 0.0);
    }

    #[test]
    fn couple_state_aggregates() {
        let (coupling, _ccs) = coupled(CcAlgo::Lia, &[(10.0, 10.0), (30.0, 20.0)]);
        let st = coupling.state();
        let w1 = 10.0 * MSS as f64;
        let w2 = 30.0 * MSS as f64;
        assert!((st.total_cwnd() - (w1 + w2)).abs() < 1e-6);
        assert!((st.sum_rate() - (w1 / 0.01 + w2 / 0.02)).abs() < 1e-3);
        assert!((st.max_w_over_rtt2() - (w1 / 0.0001).max(w2 / 0.0004)).abs() < 1e-3);
    }

    #[test]
    fn lock_free_reads_track_every_write_and_survive_a_rebase() {
        let loss = |flight: u64| tcpsim::cc::LossContext {
            now: SimTime::from_millis(2),
            flight_size: flight,
            mss: MSS,
        };
        for algo in [CcAlgo::Lia, CcAlgo::Olia, CcAlgo::Balia, CcAlgo::WVegas] {
            // Slow start on subflow 0, congestion avoidance on subflow 1.
            let coupling = Coupling::new();
            let mut ccs = vec![
                coupling.make_cc(algo, 10 * MSS as u64, MSS),
                coupling.make_cc(algo, 10 * MSS as u64, MSS),
            ];
            let agrees = |ccs: &[Box<dyn CongestionControl>], coupling: &Coupling| {
                for (i, cc) in ccs.iter().enumerate() {
                    let sub = coupling.state().subs[i].clone();
                    assert_eq!(
                        cc.cwnd(),
                        sub.cwnd.max(MSS as f64) as u64,
                        "{algo:?} cwnd {i}"
                    );
                    let ssthresh = if sub.ssthresh.is_finite() {
                        sub.ssthresh as u64
                    } else {
                        u64::MAX
                    };
                    assert_eq!(cc.ssthresh(), ssthresh, "{algo:?} ssthresh {i}");
                }
            };
            agrees(&ccs, &coupling);
            ccs[1].on_loss_event(&loss(10 * MSS as u64));
            agrees(&ccs, &coupling);
            for ms in 0..50 {
                let mut ctx = ack_ctx(MSS as u64, 10);
                ctx.now = SimTime::from_millis(10 * ms);
                ccs[0].on_ack(&ctx);
                ccs[1].on_ack(&ctx);
                agrees(&ccs, &coupling);
            }
            ccs[0].on_rto(&loss(20 * MSS as u64));
            agrees(&ccs, &coupling);

            // A checkpoint: clones re-bound to a deep copy carry their
            // windows along and then evolve apart from the originals.
            let copy = coupling.deep_clone();
            let mut clones: Vec<_> = ccs.iter().map(|cc| cc.clone_boxed()).collect();
            for cc in &mut clones {
                copy.rebind(cc.as_mut());
            }
            agrees(&clones, &copy);
            clones[1].on_rto(&loss(20 * MSS as u64));
            agrees(&clones, &copy);
            agrees(&ccs, &coupling);
            assert_ne!(clones[1].cwnd(), ccs[1].cwnd());
        }
    }

    #[test]
    fn rto_collapses_coupled_window() {
        let (_c, mut ccs) = coupled(CcAlgo::Olia, &[(20.0, 10.0)]);
        ccs[0].on_rto(&tcpsim::cc::LossContext {
            now: SimTime::from_millis(2),
            flight_size: 20 * MSS as u64,
            mss: MSS,
        });
        assert_eq!(ccs[0].cwnd(), MSS as u64);
        assert_eq!(ccs[0].ssthresh(), 10 * MSS as u64);
    }
}
