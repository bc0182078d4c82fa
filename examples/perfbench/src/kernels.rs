//! Isolated kernels: each drives one layer's public API directly, with no
//! other layer in the loop, and reports host nanoseconds per operation.
//!
//! They are the only outside estimate of how `netsim.run_until_s` splits
//! between forwarding, the event queue, segment processing, congestion
//! control and the wire codec. A kernel runs the layer on a synthetic input,
//! so its number times a workload's op count is an estimate of that layer's
//! share, not a measurement of it.

use crate::clock;
use crate::stats::median;
use mptcp_overlap::mptcpsim::{CcAlgo, Coupling};
use mptcp_overlap::netsim::{
    CbrSource, DatagramSink, Dir, Path, RoutingTables, Simulator, Tag, Topology,
};
use mptcp_overlap::overlap_core::PaperNetwork;
use mptcp_overlap::simbase::{
    Bandwidth, EventQueue, SimDuration, SimRng, SimTime, Xoshiro256StarStar,
};
use mptcp_overlap::tcpsim::{
    AckContext, CongestionControl, Cubic, DssOption, ReceiverConfig, TcpConfig, TcpFlags,
    TcpReceiver, TcpSegment, TcpSender, Timestamps,
};
use mptcp_overlap::worldgen::{FatTree, FatTreeConfig};
use std::hint::black_box;

/// Each sample measures at least this long.
const SAMPLE_S: f64 = 0.2;
/// Samples per kernel; the median is reported.
const SAMPLES: usize = 3;

/// Run `batch` (which performs and returns a number of operations) until
/// [`SAMPLE_S`] has passed; host nanoseconds per operation.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let t0 = clock::now();
    let mut ops = 0u64;
    loop {
        ops += batch();
        let s = clock::secs_since(t0);
        if s >= SAMPLE_S {
            return s * 1e9 / ops as f64;
        }
    }
}

/// The median of [`SAMPLES`] samples, each compensated for clock drift by
/// the pace probes around it.
fn median_of_samples(mut sample: impl FnMut() -> f64) -> f64 {
    let mut pace = clock::pace();
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let ns = sample();
            let before = std::mem::replace(&mut pace, clock::pace());
            ns * clock::to_reference(before, pace)
        })
        .collect();
    median(&samples)
}

/// `CbrSource` → `DatagramSink` along `path` at half its capacity: bare
/// forwarding, no TCP. Wall time ÷ packets serialized onto links.
fn hop_ns(topo: &Topology, mut routing: RoutingTables, path: &Path) -> f64 {
    let tag = Tag(1);
    routing.install_path(path, tag);
    let rate = Bandwidth::from_bps(path.raw_capacity(topo).as_bps() / 2);
    median_of_samples(|| {
        let mut sim = Simulator::new(topo.clone(), routing.clone(), 1);
        sim.add_agent(
            path.src(),
            Box::new(CbrSource::new(path.dst(), tag, rate, 100)),
            SimTime::ZERO,
        );
        sim.add_agent(path.dst(), Box::new(DatagramSink::default()), SimTime::ZERO);
        let hops = |sim: &Simulator| -> u64 {
            path.links()
                .iter()
                .flat_map(|&l| [Dir::AtoB, Dir::BtoA].map(|d| sim.link_stats(l, d).tx_packets))
                .sum()
        };
        let mut until = SimTime::ZERO;
        ns_per_op(|| {
            let before = hops(&sim);
            until += SimDuration::from_secs(1);
            sim.run_until(until);
            hops(&sim) - before
        })
    })
}

fn hop_ns_paper() -> f64 {
    let net = PaperNetwork::new();
    let routing = RoutingTables::new(&net.topology);
    hop_ns(&net.topology, routing, &net.paths[0])
}

fn hop_ns_fattree() -> f64 {
    let tree = FatTree::build(&FatTreeConfig {
        k: 8,
        ..FatTreeConfig::default()
    });
    // First and last host sit in different pods: a six-hop path.
    let path = tree.ecmp_path(tree.hosts[0], tree.hosts[tree.hosts.len() - 1], 1);
    assert_eq!(path.hop_count(), 6);
    hop_ns(&tree.topology, tree.routing.clone(), &path)
}

/// The hold model on `EventQueue<u32>`: with `pending` events queued, pop
/// the earliest and push it back a random distance ahead. `dead_fraction`
/// of all pushes are cancelled again before they fire, as re-armed timers
/// are. Wall time ÷ holds.
fn queue_hold_ns(pending: u32, dead_fraction: f64) -> f64 {
    // cancelled / (live + cancelled) = dead  =>  cancelled per live push:
    let cancel_chance = dead_fraction / (1.0 - dead_fraction);
    median_of_samples(|| {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut rng = Xoshiro256StarStar::new(7);
        let ahead =
            |rng: &mut Xoshiro256StarStar| SimDuration::from_nanos(1 + rng.next_below(2_000_000));
        for i in 0..pending {
            q.push_cancellable(SimTime::ZERO + ahead(&mut rng), i);
        }
        ns_per_op(|| {
            const BATCH: u64 = 4096;
            for _ in 0..BATCH {
                let e = q.pop().expect("the hold model never drains");
                let token = q.push_cancellable(e.time + ahead(&mut rng), e.event);
                if rng.chance(cancel_chance) {
                    q.cancel(token);
                    q.push_cancellable(e.time + ahead(&mut rng), e.event);
                }
            }
            BATCH
        })
    })
}

/// The sans-IO sender ↔ receiver loop on a fake clock: every segment the
/// sender polls is handed to the receiver (or dropped with chance `loss`),
/// and every ACK back to the sender one RTT later. Wall time ÷ segments.
fn segment_ns(loss: f64) -> f64 {
    median_of_samples(|| {
        let cfg = TcpConfig::default();
        let cc = Box::new(Cubic::new(cfg.initial_cwnd, cfg.mss));
        let mut tx = TcpSender::new(cfg, cc);
        tx.set_unlimited();
        let mut rx = TcpReceiver::new(ReceiverConfig::default());
        let mut rng = Xoshiro256StarStar::new(11);
        let rtt = SimDuration::from_millis(10);
        let mut now = SimTime::ZERO;
        let mut acks = Vec::new();
        ns_per_op(|| {
            let mut segments = 0u64;
            while segments == 0 {
                while let Some(seg) = tx.poll_segment(now) {
                    segments += 1;
                    if loss > 0.0 && rng.chance(loss) {
                        continue;
                    }
                    acks.extend(rx.on_data(now, &seg.seg, seg.len));
                }
                now += rtt;
                for ack in acks.drain(..) {
                    black_box(tx.on_ack(now, &ack));
                }
                match tx.next_timer() {
                    Some(t) if t <= now => tx.on_timer(now),
                    // A silent round: nothing in flight came back, so the
                    // next thing that can happen is the timer.
                    Some(t) if segments == 0 => {
                        now = t;
                        tx.on_timer(now);
                    }
                    _ => {}
                }
            }
            segments
        })
    })
}

fn ack_context() -> AckContext {
    AckContext {
        now: SimTime::from_millis(100),
        bytes_acked: 1460,
        srtt: Some(SimDuration::from_millis(10)),
        latest_rtt: Some(SimDuration::from_millis(11)),
        min_rtt: Some(SimDuration::from_millis(9)),
        flight_size: 100_000,
        mss: 1460,
    }
}

/// One `on_ack` on each of `ccs` in turn. Wall time ÷ `on_ack` calls.
fn cc_ack_ns(mut ccs: Vec<Box<dyn CongestionControl>>) -> f64 {
    let ctx = ack_context();
    median_of_samples(|| {
        ns_per_op(|| {
            const ROUNDS: u64 = 4096;
            for _ in 0..ROUNDS {
                for cc in &mut ccs {
                    cc.on_ack(black_box(&ctx));
                }
            }
            black_box(ccs[0].cwnd());
            ROUNDS * ccs.len() as u64
        })
    })
}

fn coupled(algo: CcAlgo) -> Vec<Box<dyn CongestionControl>> {
    let coupling = Coupling::new();
    (0..3)
        .map(|_| coupling.make_cc(algo, 14600, 1460))
        .collect()
}

/// `TcpSegment` encode + decode of a data segment carrying timestamps and
/// a DSS mapping. Wall time ÷ round trips.
fn wire_roundtrip_ns() -> f64 {
    let seg = TcpSegment {
        src_port: 5000,
        dst_port: 6000,
        flags: TcpFlags::ACK,
        window: 1 << 20,
        ts: Some(Timestamps {
            tsval: 12345,
            tsecr: 12300,
        }),
        dss: Some(DssOption {
            data_ack: Some(1 << 33),
            dsn: Some(1 << 32),
            subflow_seq: 77_000,
            data_len: 1460,
        }),
        ..TcpSegment::default()
    };
    median_of_samples(|| {
        ns_per_op(|| {
            const BATCH: u64 = 4096;
            for _ in 0..BATCH {
                let bytes = black_box(&seg).encode();
                black_box(TcpSegment::decode(bytes.as_slice()).expect("own encoding decodes"));
            }
            BATCH
        })
    })
}

/// Every kernel metric, in table order. `dead_fraction` is the workload's
/// measured share of events cancelled before firing.
pub fn run_all(dead_fraction: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("netsim.hop_ns.paper", hop_ns_paper()),
        ("netsim.hop_ns.fattree", hop_ns_fattree()),
        (
            "simbase.queue.hold_ns.n64",
            queue_hold_ns(64, dead_fraction),
        ),
        (
            "simbase.queue.hold_ns.n4096",
            queue_hold_ns(4096, dead_fraction),
        ),
        ("tcpsim.segment_ns.clean", segment_ns(0.0)),
        ("tcpsim.segment_ns.lossy", segment_ns(0.01)),
        (
            "tcpsim.cc_ack_ns.cubic",
            cc_ack_ns(vec![Box::new(Cubic::new(14600, 1460))]),
        ),
        ("mptcpsim.cc_ack_ns.lia", cc_ack_ns(coupled(CcAlgo::Lia))),
        ("mptcpsim.cc_ack_ns.olia", cc_ack_ns(coupled(CcAlgo::Olia))),
        ("tcpsim.wire_roundtrip_ns", wire_roundtrip_ns()),
    ]
}
