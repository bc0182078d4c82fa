//! What `examples/perfbench` compiles against that the simulation crates
//! no longer have: there a caller owns its congestion controller and lends
//! it per call, and no controller shares state. `src/lib.rs` re-exports
//! both items under their old paths; no other code may use them.
//!
//! * `tcpsim::TcpSender::new(cfg, Box<dyn CongestionControl>)`, then
//!   `set_unlimited`, `poll_segment(now)`, `on_ack(now, &seg)`,
//!   `next_timer()` and `on_timer(now)`: `kernels.rs` `segment_ns`.
//! * `mptcpsim::Coupling::new()` and `make_cc(algo, initial_cwnd, mss)`:
//!   `kernels.rs` `coupled`, for `mptcpsim.cc_ack_ns.lia` / `.olia`. Those
//!   kernels time only slow start: their controllers start at an infinite
//!   `ssthresh` and never see a loss.
//!
//! Both run the crates' code (the core sender, `mptcpsim::CoupledCc`).

use mptcpsim::{CcAlgo, CoupleState, CoupledCc, SubState};
use simbase::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use tcpsim::{AckContext, CongestionControl, Cubic};
use tcpsim::{SegmentTx, TcpConfig, TcpSegment};

/// A live sender that owns its controller.
#[derive(Debug)]
pub struct TcpSender(tcpsim::TcpSender, Box<dyn CongestionControl>);

impl TcpSender {
    /// A live sender over `cfg` running `cc`.
    pub fn new(cfg: TcpConfig, cc: Box<dyn CongestionControl>) -> Self {
        let mut core = tcpsim::TcpSender::dormant(cfg);
        core.start(cc.as_ref());
        TcpSender(core, cc)
    }

    pub fn set_unlimited(&mut self) {
        self.0.set_unlimited();
    }

    pub fn poll_segment(&mut self, now: SimTime) -> Option<SegmentTx> {
        self.0.poll_segment(now, self.1.as_ref())
    }

    pub fn on_ack(&mut self, now: SimTime, seg: &TcpSegment) {
        self.0.on_ack(now, seg, self.1.as_mut());
    }

    pub fn next_timer(&self) -> Option<SimTime> {
        self.0.next_timer()
    }

    pub fn on_timer(&mut self, now: SimTime) {
        self.0.on_timer(now, self.1.as_mut());
    }
}

/// One connection's coupling state, shared by the controllers `make_cc`
/// builds.
#[derive(Debug, Default)]
pub struct Coupling(Rc<RefCell<CoupleState>>);

impl Coupling {
    pub fn new() -> Self {
        Self::default()
    }

    /// The next subflow's controller; an uncoupled one has no entry.
    pub fn make_cc(&self, algo: CcAlgo, initial_cwnd: u64, mss: u32) -> Box<dyn CongestionControl> {
        match algo {
            CcAlgo::Cubic => Box::new(Cubic::new(initial_cwnd, mss)),
            CcAlgo::Lia | CcAlgo::Olia | CcAlgo::Balia | CcAlgo::WVegas => {
                let mut st = self.0.borrow_mut();
                st.subs.push(SubState::new(initial_cwnd, mss));
                let idx = st.subs.len() - 1;
                Box::new(Shared(Rc::clone(&self.0), idx, algo))
            }
        }
    }
}

/// A coupled subflow's controller (shared state, subflow index,
/// algorithm): each call borrows the state for its own length and runs a
/// `CoupledCc` over it.
#[derive(Debug)]
struct Shared(Rc<RefCell<CoupleState>>, usize, CcAlgo);

impl Shared {
    fn lent<R>(&self, call: impl FnOnce(&mut CoupledCc<'_>) -> R) -> R {
        call(&mut CoupledCc::new(
            &mut self.0.borrow_mut(),
            self.1,
            self.2,
        ))
    }
}

impl CongestionControl for Shared {
    fn on_ack(&mut self, ctx: &AckContext) {
        self.lent(|cc| cc.on_ack(ctx));
    }

    fn on_loss_event(&mut self, flight_size: u64) {
        self.lent(|cc| cc.on_loss_event(flight_size));
    }

    fn on_rto(&mut self, flight_size: u64) {
        self.lent(|cc| cc.on_rto(flight_size));
    }

    fn cwnd(&self) -> u64 {
        self.lent(|cc| cc.cwnd())
    }

    fn ssthresh(&self) -> u64 {
        self.lent(|cc| cc.ssthresh())
    }

    fn reads_min_rtt(&self) -> bool {
        self.lent(|cc| cc.reads_min_rtt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbase::{SimDuration, SimRng, Xoshiro256StarStar};
    use tcpsim::{ReceiverConfig, TcpReceiver};

    const MSS: u32 = 1460;

    /// The boxed controllers of one shared coupling and views lent over a
    /// plain copy of it take one ACK / loss / RTO sequence and read the
    /// same bits after every call.
    #[test]
    fn shared_controllers_match_lent_views_bit_for_bit() {
        for algo in [CcAlgo::Lia, CcAlgo::Olia, CcAlgo::Balia, CcAlgo::WVegas] {
            let coupling = Coupling::new();
            let mut shared: Vec<_> = (0..3)
                .map(|_| coupling.make_cc(algo, 10 * u64::from(MSS), MSS))
                .collect();
            let mut plain = CoupleState::new(std::iter::repeat_n((10 * u64::from(MSS), MSS), 3));
            let mut step = |i: usize, call: &dyn Fn(&mut dyn CongestionControl)| {
                call(shared[i].as_mut());
                let mut view = CoupledCc::new(&mut plain, i, algo);
                call(&mut view);
                for (j, cc) in shared.iter().enumerate() {
                    let view = CoupledCc::new(&mut plain, j, algo);
                    assert_eq!(
                        (cc.cwnd(), cc.ssthresh()),
                        (view.cwnd(), view.ssthresh()),
                        "{algo:?} subflow {j}"
                    );
                }
            };
            for k in 0..300u64 {
                let ctx = AckContext {
                    now: SimTime::from_millis(k),
                    bytes_acked: u64::from(MSS),
                    srtt: Some(SimDuration::from_millis(10 + 5 * (k % 3))),
                    latest_rtt: Some(SimDuration::from_millis(11 + k % 4)),
                    min_rtt: Some(SimDuration::from_millis(10)),
                    flight_size: 20 * u64::from(MSS),
                    mss: MSS,
                };
                let flight = 20 * u64::from(MSS);
                let i = usize::try_from(k % 3).unwrap();
                step(i, &|cc| cc.on_ack(&ctx));
                if k % 41 == 40 {
                    step(i, &|cc| cc.on_loss_event(flight));
                }
                if k % 97 == 96 {
                    step(i, &|cc| cc.on_rto(flight));
                }
            }
        }
    }

    /// What perfbench's `segment_ns` drives: the sender, lent or owning
    /// its controller.
    trait Sender {
        fn poll(&mut self, now: SimTime) -> Option<SegmentTx>;
        fn ack(&mut self, now: SimTime, seg: &TcpSegment);
        fn timer(&self) -> Option<SimTime>;
        fn fire(&mut self, now: SimTime);
    }

    impl Sender for TcpSender {
        fn poll(&mut self, now: SimTime) -> Option<SegmentTx> {
            self.poll_segment(now)
        }
        fn ack(&mut self, now: SimTime, seg: &TcpSegment) {
            self.on_ack(now, seg);
        }
        fn timer(&self) -> Option<SimTime> {
            self.next_timer()
        }
        fn fire(&mut self, now: SimTime) {
            self.on_timer(now);
        }
    }

    impl Sender for (tcpsim::TcpSender, Cubic) {
        fn poll(&mut self, now: SimTime) -> Option<SegmentTx> {
            self.0.poll_segment(now, &self.1)
        }
        fn ack(&mut self, now: SimTime, seg: &TcpSegment) {
            self.0.on_ack(now, seg, &mut self.1);
        }
        fn timer(&self) -> Option<SimTime> {
            self.0.next_timer()
        }
        fn fire(&mut self, now: SimTime) {
            self.0.on_timer(now, &mut self.1);
        }
    }

    /// `rounds` of perfbench's `segment_ns` loop at loss `loss`: every
    /// segment the sender sent.
    fn segments(tx: &mut impl Sender, loss: f64, rounds: usize) -> Vec<(u64, u32, TcpSegment)> {
        let mut rx = TcpReceiver::new(ReceiverConfig::default());
        let mut rng = Xoshiro256StarStar::new(11);
        let rtt = SimDuration::from_millis(10);
        let mut now = SimTime::ZERO;
        let mut acks = Vec::new();
        let mut sent = Vec::new();
        for _ in 0..rounds {
            let mut segments = 0u64;
            while segments == 0 {
                while let Some(seg) = tx.poll(now) {
                    segments += 1;
                    sent.push((seg.offset, seg.len, seg.seg.clone()));
                    if loss > 0.0 && rng.chance(loss) {
                        continue;
                    }
                    acks.extend(rx.on_data(now, &seg.seg, seg.len));
                }
                now += rtt;
                for ack in acks.drain(..) {
                    tx.ack(now, &ack);
                }
                match tx.timer() {
                    Some(t) if t <= now => tx.fire(now),
                    Some(t) if segments == 0 => {
                        now = t;
                        tx.fire(now);
                    }
                    _ => {}
                }
            }
        }
        sent
    }

    #[test]
    fn the_owning_sender_sends_what_a_lent_one_sends() {
        for loss in [0.0, 0.01] {
            let cfg = TcpConfig::default();
            let mut owning =
                TcpSender::new(cfg.clone(), Box::new(Cubic::new(cfg.initial_cwnd, cfg.mss)));
            owning.set_unlimited();
            let cc = Cubic::new(cfg.initial_cwnd, cfg.mss);
            let mut lent = (tcpsim::TcpSender::dormant(cfg), cc);
            lent.0.start(&lent.1);
            lent.0.set_unlimited();
            let want = segments(&mut lent, loss, 60);
            assert!(want.len() > 500, "loss {loss}: {} segments", want.len());
            assert_eq!(segments(&mut owning, loss, 60), want, "loss {loss}");
        }
    }
}
