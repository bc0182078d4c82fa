//! The coupled drift field: window AIMD in expectation, dual-gradient
//! link prices.
//!
//! State layout: `y = [w_0 .. w_{n-1}, p_0 .. p_{m-1}]` — per-subflow
//! congestion windows in bytes followed by per-link prices (stationary
//! loss probabilities). The drift is the expected motion of the discrete
//! controllers:
//!
//! * ACKs arrive on subflow `r` at rate `x_r / mss`; each non-marked ACK
//!   applies the law's increase, each loss event (probability `q_r` per
//!   packet) applies the law's decrease.
//! * A link above capacity accumulates price at relative rate `γ`; an
//!   underloaded link sheds it, projected at zero — the classic
//!   dual-gradient congestion-price dynamic (Kelly; Low & Lapsley), which
//!   is also how Peng et al. analyze Balia.
//!
//! Every slope evaluation rebuilds a `mptcpsim::cc::CoupleState` snapshot
//! so the coupled laws read windows and RTTs through the very struct the
//! packet simulator shares between subflows.

use crate::law::FluidLaw;
use crate::model::FluidModel;
use mptcpsim::cc::{CoupleState, SubState};
use simbase::SimTime;

/// Price adaptation gain, 1/s: `dp_l/dt = γ (y_l − c_l)/c_l`.
const GAMMA: f64 = 2.0;
/// Segment size in bytes (the unit of every window-update law).
pub(crate) const MSS: f64 = 1460.0;
/// Path-loss cap: `q_r` saturates here so the loss term cannot exceed
/// certainty even while prices overshoot during transients.
const Q_CAP: f64 = 0.5;
/// Loss floor used for OLIA's per-epoch byte estimate `l_r = mss/q_r` on
/// a (so far) lossless path.
const Q_FLOOR: f64 = 1e-9;
/// Window floor in bytes: one segment (a TCP window never vanishes).
const MIN_WINDOW: f64 = MSS;

/// The drift field for one (model, law) pair. Owns scratch
/// buffers so slope evaluations allocate nothing.
#[derive(Debug)]
pub struct Dynamics<'a> {
    model: &'a FluidModel,
    law: FluidLaw,
    couple: CoupleState,
    q: Vec<f64>,
    rates: Vec<f64>,
}

impl<'a> Dynamics<'a> {
    /// A drift field over `model` under `law`.
    pub fn new(model: &'a FluidModel, law: FluidLaw) -> Self {
        let n = model.n_paths();
        let subs = (0..n)
            .map(|r| SubState {
                cwnd: MSS,
                ssthresh: 0.0,
                srtt: model.rtts[r],
                mss: MSS,
                bytes_since_loss: 0.0,
                bytes_between_losses: 0.0,
                next_adjust: SimTime::ZERO,
            })
            .collect();
        Dynamics {
            model,
            law,
            couple: CoupleState { subs },
            q: vec![0.0; n],
            rates: vec![0.0; n],
        }
    }

    /// State dimension: paths + links.
    pub fn dim(&self) -> usize {
        self.model.n_paths() + self.model.n_links()
    }

    /// Per-path rates `x_r = w_r / rtt_r` (bytes/s) of a state vector.
    pub fn rates_of(&self, y: &[f64], out: &mut [f64]) {
        let n = self.model.n_paths();
        for r in 0..n {
            out[r] = y[r] / self.model.rtts[r];
        }
    }

    /// The drift `dy = f(y)`.
    pub fn eval(&mut self, y: &[f64], dy: &mut [f64]) {
        let n = self.model.n_paths();
        let m = self.model.n_links();
        let (w, p) = y.split_at(n);

        // Path loss from link prices, saturated.
        self.model.path_loss(p, &mut self.q);
        for q in self.q.iter_mut() {
            *q = q.clamp(0.0, Q_CAP);
        }

        // Coupling snapshot: the laws read windows, RTTs and (for OLIA)
        // loss-epoch estimates exactly as the packet controllers do.
        for (r, sub) in self.couple.subs.iter_mut().enumerate() {
            sub.cwnd = w[r].max(MIN_WINDOW);
            sub.bytes_since_loss = MSS / self.q[r].max(Q_FLOOR);
            sub.bytes_between_losses = 0.0;
            self.rates[r] = sub.cwnd / self.model.rtts[r];
        }

        // Window drift: expected per-ACK motion times the ACK arrival rate.
        for r in 0..n {
            let q_r = self.q[r];
            let inc = self.law.ack_increase(&self.couple, r);
            let dec = self.law.loss_decrease(&self.couple, r);
            let acks_per_s = self.rates[r] / MSS;
            let mut drift = acks_per_s * ((1.0 - q_r) * inc - q_r * dec);
            // Projection at the window floor: no drift below MIN_WINDOW.
            if w[r] <= MIN_WINDOW && drift < 0.0 {
                drift = 0.0;
            }
            dy[r] = drift;
        }

        // Price drift: relative dual gradient, projected at zero.
        for (l, spec) in self.model.links.iter().enumerate() {
            let load: f64 = spec.users.iter().map(|&r| self.rates[r]).sum();
            let mut drift = GAMMA * (load - spec.capacity) / spec.capacity;
            if p[l] <= 0.0 && drift < 0.0 {
                drift = 0.0;
            }
            dy[n + l] = drift;
        }
        debug_assert_eq!(dy.len(), n + m);
    }

    /// Project a state back into the admissible box after a step:
    /// windows at or above the floor, prices in `[0, q_cap]`.
    pub fn clamp(&self, y: &mut [f64]) {
        let n = self.model.n_paths();
        for w in y[..n].iter_mut() {
            *w = w.max(MIN_WINDOW);
        }
        for p in y[n..].iter_mut() {
            *p = p.clamp(0.0, Q_CAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Path, QueueConfig, Topology};
    use simbase::{Bandwidth, SimDuration};

    fn single_link() -> FluidModel {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let d = t.add_node("d");
        t.add_link(
            s,
            d,
            Bandwidth::from_mbps(40),
            SimDuration::from_millis(5),
            QueueConfig::DropTailPackets(32),
        );
        let p = Path::from_nodes(&t, &[s, d]).unwrap();
        FluidModel::from_topology(&t, &[p])
    }

    #[test]
    fn lossless_reno_grows_one_mss_per_rtt() {
        let model = single_link();
        let mut dyn_ = Dynamics::new(&model, FluidLaw::Reno);
        let y = vec![10.0 * MSS, 0.0];
        let mut dy = vec![0.0; 2];
        dyn_.eval(&y, &mut dy);
        // dw/dt = (x/mss)·(mss²/w) = mss/rtt: one MSS per RTT.
        let rtt = model.rtts[0];
        assert!((dy[0] - MSS / rtt).abs() < 1e-6, "dw = {}", dy[0]);
        // Link underloaded and price at zero: projected, no drift.
        assert_eq!(dy[1], 0.0);
    }

    #[test]
    fn overload_raises_price_underload_sheds_it() {
        let model = single_link();
        let mut dyn_ = Dynamics::new(&model, FluidLaw::Reno);
        let rtt = model.rtts[0];
        let cap = model.links[0].capacity;
        // Window sized to 2× capacity.
        let mut dy = vec![0.0; 2];
        dyn_.eval(&[2.0 * cap * rtt, 0.0], &mut dy);
        assert!((dy[1] - GAMMA).abs() < 1e-9, "dp = {}", dy[1]);
        // Half capacity with positive price: price decays.
        dyn_.eval(&[0.5 * cap * rtt, 0.01], &mut dy);
        assert!(dy[1] < 0.0);
    }

    #[test]
    fn loss_shrinks_the_window_in_expectation() {
        let model = single_link();
        let mut dyn_ = Dynamics::new(&model, FluidLaw::Reno);
        // Large window under heavy loss: the decrease term dominates.
        let mut dy = vec![0.0; 2];
        dyn_.eval(&[100.0 * MSS, 0.05], &mut dy);
        assert!(dy[0] < 0.0, "dw = {}", dy[0]);
    }

    #[test]
    fn clamp_projects_into_the_box() {
        let model = single_link();
        let dyn_ = Dynamics::new(&model, FluidLaw::Lia);
        let mut y = vec![-5.0, 3.0];
        dyn_.clamp(&mut y);
        assert_eq!(y[0], MIN_WINDOW);
        assert_eq!(y[1], Q_CAP);
    }

    #[test]
    fn window_floor_blocks_negative_drift() {
        let model = single_link();
        let mut dyn_ = Dynamics::new(&model, FluidLaw::Reno);
        let mut dy = vec![0.0; 2];
        // At the floor under certain loss the window cannot shrink further.
        dyn_.eval(&[MIN_WINDOW, 0.4], &mut dy);
        assert!(dy[0] >= 0.0);
    }
}
