//! A transmission that completes at its start, at its edges.
//!
//! On an idle drop-tail direction of a lossless link a transmission draws
//! its jitter and queues its Arrive when it starts, and queues no TxDone
//! unless a packet waits behind it or a link-down aborts it. Nothing a run
//! can observe may move: these cases put a fault or an agent start 1 ns
//! before, exactly at and 1 ns after such a completion instant, and branch a
//! checkpoint taken mid-serialization into a link-down. Every pin — trace
//! hash, events, the link's counters, cancelled timers and the model's
//! schedule — was computed by the simulator that queued a TxDone for every
//! transmission. And where a run stops moves no counter: a completion past
//! a run's deadline is accounted by the run that reaches it.

use netsim::{
    Agent, CaptureConfig, CaptureKind, Ctx, DatagramSink, Ecn, FaultAction, LinkId, NodeId, Packet,
    Payload, Protocol, QueueConfig, RoutingTables, Simulator, Tag, Topology,
};
use simbase::{Bandwidth, Fnv64, SimDuration, SimTime};

/// The link whose transmissions complete at their start: 1 250 wire bytes
/// serialize in exactly 1 ms at 10 Mbps.
const LINK: LinkId = LinkId(1);
const SEND: u64 = 0;
const WATCHDOG: u64 = 1;
const END: SimTime = SimTime::from_millis(40);

/// Sends 1 250-byte packets from `s` to `b` every 2.5 ms from 1 ms on, two
/// back to back every fourth time; re-arms a watchdog 4 ms ahead on every
/// send and cancels it on every third.
#[derive(Clone)]
struct Pacer {
    dst: NodeId,
    sent: u32,
}

impl Agent for Pacer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer_at(SimTime::from_millis(1), SEND);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != SEND {
            return;
        }
        let burst = if self.sent.is_multiple_of(4) { 2 } else { 1 };
        for _ in 0..burst {
            ctx.send(
                self.dst,
                Tag::NONE,
                Protocol::Raw,
                Payload::empty(),
                1230,
                Ecn::NotEct,
            );
        }
        self.sent += 1;
        ctx.set_timer_after(SimDuration::from_millis(4), WATCHDOG);
        if self.sent.is_multiple_of(3) {
            ctx.cancel_timer(WATCHDOG);
        }
        if self.sent < 12 {
            ctx.set_timer_after(SimDuration::from_micros(2500), SEND);
        }
    }
}

/// Offers one 500-byte packet onto `a → b` from its start hook.
#[derive(Clone)]
struct Starter {
    dst: NodeId,
}

impl Agent for Starter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(
            self.dst,
            Tag::NONE,
            Protocol::Raw,
            Payload::empty(),
            480,
            Ecn::NotEct,
        );
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

/// `s — a — b`: 100 Mbps / 50 us into `a`, then the 10 Mbps / 1 ms link
/// under test, both drop-tail, 20 us of forwarding jitter. A `Starter` at
/// `a` when `start` is given.
fn sim(start: Option<SimTime>) -> Simulator {
    let mut t = Topology::new();
    let s = t.add_node("s");
    let a = t.add_node("a");
    let b = t.add_node("b");
    t.add_link(
        s,
        a,
        Bandwidth::from_mbps(100),
        SimDuration::from_micros(50),
        QueueConfig::DropTailPackets(16),
    );
    t.add_link(
        a,
        b,
        Bandwidth::from_mbps(10),
        SimDuration::from_millis(1),
        QueueConfig::DropTailPackets(8),
    );
    let mut rt = RoutingTables::new(&t);
    rt.install_all_default_routes(&t);
    let mut sim = Simulator::new(t, rt, 11);
    sim.set_forward_jitter(SimDuration::from_micros(20));
    sim.set_capture(CaptureConfig::everything());
    sim.add_agent(s, Box::new(Pacer { dst: b, sent: 0 }), SimTime::ZERO);
    sim.add_agent(b, Box::new(DatagramSink::default()), SimTime::ZERO);
    if let Some(at) = start {
        sim.add_agent(a, Box::new(Starter { dst: b }), at);
    }
    sim
}

/// The completion instant of the single packet sent at 6 ms: it reaches
/// `a` after its jitter and starts on an idle `a → b` at once.
fn completion() -> SimTime {
    let mut probe = sim(None);
    probe.run_until(END);
    let start = probe
        .captures()
        .iter()
        .find(|r| {
            r.kind == CaptureKind::Forwarded
                && r.link == Some(LINK)
                && r.time >= SimTime::from_millis(6)
        })
        .expect("the 6 ms packet is forwarded onto a -> b")
        .time;
    start + SimDuration::from_millis(1)
}

/// `(trace hash, events, tx_packets, busy_time ns, drops, timers_cancelled,
/// events_scheduled)` after the run.
type Outcome = (u64, u64, u64, u64, u64, u64, u64);

fn outcome(sim: &Simulator) -> Outcome {
    let mut h = Fnv64::new();
    for rec in sim.captures() {
        h.write_bytes(format!("{rec:?}").as_bytes());
    }
    let link = sim.link_stats(LINK, netsim::Dir::AtoB);
    (
        h.finish(),
        sim.stats().events,
        link.tx_packets,
        link.busy_time.as_nanos(),
        link.drops,
        sim.stats().timers_cancelled,
        sim.events_scheduled(),
    )
}

/// One cold run with `faults` installed up front.
fn run(start: Option<SimTime>, faults: &[(SimTime, FaultAction)]) -> Outcome {
    let mut sim = sim(start);
    for &(at, action) in faults {
        sim.schedule_fault(at, action);
    }
    sim.run_until(END);
    // The cases are about the elided path: it must have been taken, and a
    // watchdog entry must have moved.
    let c = sim.counters();
    assert!(c.tx_done_elided > 0 && c.timer_moves > 0, "{c:?}");
    outcome(&sim)
}

fn ns(n: u64) -> SimDuration {
    SimDuration::from_nanos(n)
}

/// A link-down at `at`, and the link back 300 us later.
fn outage(at: SimTime) -> [(SimTime, FaultAction); 2] {
    [
        (at, FaultAction::LinkDown(LINK)),
        (
            at + SimDuration::from_micros(300),
            FaultAction::LinkUp(LINK),
        ),
    ]
}

fn delay(at: SimTime) -> [(SimTime, FaultAction); 1] {
    [(at, FaultAction::SetDelay(LINK, SimDuration::from_millis(3)))]
}

#[test]
fn faults_and_starts_around_an_early_completion_match_the_queued_txdone() {
    let t = completion();
    let before = SimTime::from_nanos(t.as_nanos() - 1);
    let cases: [(&str, Outcome); 8] = [
        ("none", run(None, &[])),
        ("down -1ns", run(None, &outage(before))),
        ("down at", run(None, &outage(t))),
        ("down +1ns", run(None, &outage(t + ns(1)))),
        ("delay -1ns", run(None, &delay(before))),
        ("delay at", run(None, &delay(t))),
        ("delay +1ns", run(None, &delay(t + ns(1)))),
        ("start at", run(Some(t), &[])),
    ];
    for (name, got) in &cases {
        println!("{name}: {got:?}");
    }
    assert_eq!(t.as_nanos(), PINNED_COMPLETION_NS);
    for ((name, got), want) in cases.iter().zip(PINS) {
        assert_eq!(*got, want, "{name}");
    }
}

#[test]
fn a_mid_serialization_checkpoint_branches_into_a_link_down() {
    let t = completion();
    let before = SimTime::from_nanos(t.as_nanos() - 1);
    // Frozen 400 us into the 1 ms serialization: the transmission's
    // completion lies beyond the prefix's deadline, so the prefix queued
    // its TxDone, where a cold run completes it at its start.
    let mut warm = sim(None);
    warm.run_until(t - SimDuration::from_micros(400));
    assert_eq!(outcome(&warm), PINNED_PREFIX);
    let snap = warm.checkpoint();
    for _ in 0..2 {
        // Left alone, the branch completes the transmission; a link-down
        // 1 ns before it, run to exactly the fault and then on, aborts it.
        let mut plain = Simulator::restore(&snap);
        plain.run_until(END);
        assert_eq!(outcome(&plain), PINS[0]);
        let mut branch = Simulator::restore(&snap);
        for (at, action) in outage(before) {
            branch.schedule_fault(at, action);
        }
        branch.run_until(before);
        branch.run_until(END);
        assert_eq!(outcome(&branch), PINS[1]);
        // The same fault in a cold run stopped at the fault.
        let mut cold = sim(None);
        for (at, action) in outage(before) {
            cold.schedule_fault(at, action);
        }
        cold.run_until(before);
        cold.run_until(END);
        assert_eq!(outcome(&cold), PINS[1]);
    }
}

#[test]
fn a_stale_txdone_still_ends_a_run_to_completion() {
    // The last packet's transmission is aborted mid-serialization and the
    // link is back before its completion instant: the stale TxDone at that
    // instant is the run's last event, and the clock stops there.
    let mut probe = sim(None);
    probe.run_until(END);
    let last_start = probe
        .captures()
        .iter()
        .rfind(|r| r.kind == CaptureKind::Forwarded && r.link == Some(LINK))
        .expect("packets cross a -> b")
        .time;
    let t = last_start + SimDuration::from_millis(1);
    let mut sim = sim(None);
    sim.schedule_fault(
        t - SimDuration::from_micros(500),
        FaultAction::LinkDown(LINK),
    );
    sim.schedule_fault(t - SimDuration::from_micros(200), FaultAction::LinkUp(LINK));
    sim.run_to_completion();
    assert_eq!(sim.now(), t);
    assert_eq!(outcome(&sim), PINNED_LAST);
}

#[test]
fn where_a_run_stops_moves_no_counter() {
    // The same world run to END in one, two and seven steps, the stops at
    // and around the completion instant and mid-serialization: a completion
    // past a stop is accounted by the run that reaches it, so every counter
    // — queue pushes and pops and elided TxDones included — and the outcome
    // read the same. Also with an outage and a delay fault that strike the
    // transmission while its completion lies past a stop.
    let t = completion();
    let before = SimTime::from_nanos(t.as_nanos() - 1);
    let steps: [&[SimTime]; 3] = [
        &[END],
        &[t - SimDuration::from_micros(400), END],
        &[
            SimTime::from_millis(1),
            t - SimDuration::from_micros(400),
            before,
            t,
            t + ns(1),
            SimTime::from_millis(21),
            END,
        ],
    ];
    let faults: [&[(SimTime, FaultAction)]; 3] = [&[], &outage(before), &delay(before)];
    for faults in faults {
        let runs: Vec<_> = steps
            .iter()
            .map(|stops| {
                let mut sim = sim(None);
                for &(at, action) in faults {
                    sim.schedule_fault(at, action);
                }
                for &stop in *stops {
                    sim.run_until(stop);
                }
                (outcome(&sim), sim.counters())
            })
            .collect();
        assert!(runs[0].1.tx_done_elided > 0, "{:?}", runs[0].1);
        assert_eq!(runs[1], runs[0], "two steps, faults {faults:?}");
        assert_eq!(runs[2], runs[0], "seven steps, faults {faults:?}");
    }
    // The plain case is the first pin's run.
    let mut plain = sim(None);
    plain.run_until(END);
    assert_eq!(outcome(&plain), PINS[0]);
}

/// `completion()`, and the outcome of each case in order, from the
/// simulator that queued a TxDone for every transmission.
const PINNED_COMPLETION_NS: u64 = 7_162_478;
const PINS: [Outcome; 8] = [
    (17959103848467833315, 74, 15, 15_000_000, 0, 12, 74),
    (14665576608907144642, 75, 14, 14_000_000, 1, 12, 75),
    (14665576608907144642, 75, 14, 14_000_000, 1, 12, 75),
    (17959103848467833315, 76, 15, 15_000_000, 0, 12, 76),
    (1752305596438637496, 75, 15, 15_000_000, 0, 12, 75),
    (1752305596438637496, 75, 15, 15_000_000, 0, 12, 75),
    (9376832538469754645, 75, 15, 15_000_000, 0, 12, 75),
    (8837434065356770328, 77, 16, 15_400_000, 0, 12, 77),
];
/// `a_stale_txdone_still_ends_a_run_to_completion`'s outcome, likewise.
const PINNED_LAST: Outcome = (16801910397626925264, 75, 14, 14_000_000, 1, 12, 75);
/// The checkpointed prefix's outcome, likewise: its TxDone not yet run.
const PINNED_PREFIX: Outcome = (2342247039646764774, 19, 3, 3_000_000, 0, 3, 21);
