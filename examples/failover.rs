//! MPTCP failover — the end-to-end *reliability* motivation from the
//! paper's introduction ("improve end-to-end reliability … by allowing
//! users to avoid congested links").
//!
//! Two disjoint paths; the faster path's access link is cut at t = 2 s and
//! restored at t = 6 s. Watch the connection: the failed subflow's
//! unacknowledged data is reinjected on the survivor within a couple of
//! RTOs, throughput continues, and the subflow rejoins after recovery.
//!
//! Run: `cargo run --example failover --release`

use mptcp_overlap::mptcpsim::{common_destination, install_subflows, MptcpConfig};
use mptcp_overlap::netsim::{FaultSchedule, RoutingTables, Tag};
use mptcp_overlap::prelude::*;
use mptcp_overlap::simtrace::{SamplerConfig, TraceSink};

fn main() {
    let mut topo = Topology::new();
    let s = topo.add_node("s");
    let a = topo.add_node("a");
    let b = topo.add_node("b");
    let d = topo.add_node("d");
    let q = QueueConfig::DropTailPackets(48);
    let ms = SimDuration::from_millis;
    let fast_access = topo.add_link(s, a, Bandwidth::from_mbps(30), ms(2), q);
    topo.add_link(a, d, Bandwidth::from_mbps(30), ms(2), q);
    topo.add_link(s, b, Bandwidth::from_mbps(15), ms(5), q);
    topo.add_link(b, d, Bandwidth::from_mbps(15), ms(5), q);
    let p1 = Path::from_nodes(&topo, &[s, a, d]).unwrap();
    let p2 = Path::from_nodes(&topo, &[s, b, d]).unwrap();
    let paths = vec![p1, p2];

    let mut rt = RoutingTables::new(&topo);
    let subflows = install_subflows(&mut rt, &paths, 1, 5000);
    let dst = common_destination(&paths);
    let end = SimTime::from_secs(10);
    let sink = TraceSink::new().with_sampler(SamplerConfig::tshark_like(
        dst,
        SimDuration::from_millis(250),
        end,
    ));
    let mut world = World::new(topo, rt, 21, sink);
    world.set_forward_jitter(SimDuration::from_micros(20));
    let (sender, _) = world.connect(s, MptcpConfig::bulk(dst, subflows), SimTime::ZERO);

    // The failure script.
    world.install_faults(&FaultSchedule::new().outage(
        fast_access,
        SimTime::from_secs(2),
        SimTime::from_secs(6),
    ));

    world.run_until(end);

    let sampler = world.sink().sampler().expect("the sink samples");
    println!("t[s]   path1   path2   total   (link down at 2 s, up at 6 s)");
    let p1s = sampler.tag(Tag(1));
    let p2s = sampler.tag(Tag(2));
    for i in 0..40 {
        let t = i as f64 * 0.25;
        let v1 = p1s.map(|s| s.values()[i]).unwrap_or(0.0);
        let v2 = p2s.map(|s| s.values()[i]).unwrap_or(0.0);
        let bar = "#".repeat(((v1 + v2) / 1.2) as usize);
        println!("{t:>4.2}  {v1:>6.1}  {v2:>6.1}  {:>6.1}  {bar}", v1 + v2);
    }

    println!(
        "\nbytes reinjected onto the surviving subflow: {}",
        world.sender(sender).stats().bytes_reinjected
    );
    println!(
        "a single-path TCP connection on path 1 would have been dead for 4 seconds;\n\
         MPTCP rescheduled the stranded data and kept the application stream moving."
    );
}
