//! The one place a simulator is assembled.
//!
//! Every experiment in this crate is the paper's recipe with N connections:
//! tag routes, a simulator, a streaming [`TraceSink`], MPTCP endpoints,
//! run, read the endpoints back. [`crate::Scenario`] is the N = 1 case;
//! the cells of [`crate::worldexp`] are the same calls in a loop.
//!
//! **Agent order is part of the hash contract** (DESIGN.md §13.4): an
//! agent's id seeds its RNG stream, prefixes its packet ids and breaks
//! start-time ties, so two worlds hash alike only if they add the same
//! agents in the same order. Hence two adders and not only
//! [`World::connect`]: `Scenario` puts cross traffic between the two.

use mptcpsim::{MptcpConfig, MptcpReceiverAgent, MptcpSenderAgent};
use netsim::{
    AgentId, CaptureConfig, CbrSource, DatagramSink, FaultSchedule, NodeId, RoutingTables,
    SimCounters, SimSnapshot, Simulator, Tag, Topology,
};
use simbase::{Bandwidth, SimDuration, SimTime};
use simtrace::TraceSink;

/// Handle to an MPTCP sender added with [`World::add_sender`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SenderId(AgentId);

/// Handle to an MPTCP receiver added with [`World::add_receiver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiverId(AgentId);

/// A simulator under construction or running, streaming its receiver-side
/// capture into a [`TraceSink`].
pub struct World {
    sim: Simulator,
}

/// A frozen [`World`]: [`World::restore`] branches any number of
/// independent continuations from it, and the handles issued before the
/// checkpoint stay valid in each.
#[derive(Debug)]
pub struct WorldCheckpoint(SimSnapshot);

impl WorldCheckpoint {
    /// The simulation time the world was frozen at.
    pub fn time(&self) -> SimTime {
        self.0.time()
    }

    /// Capture records held by the frozen world. Zero: its measurement
    /// state is the streaming sink's hash, seen-set and bins.
    pub fn buffered_captures(&self) -> usize {
        self.0.buffered_captures()
    }
}

impl World {
    /// An agent-free world over `topology`, forwarding with `routing`
    /// (install every tag route first: tables are immutable once the world
    /// exists). Nothing is captured until a receiver is added.
    pub fn new(topology: Topology, routing: RoutingTables, seed: u64, sink: TraceSink) -> World {
        let mut sim = Simulator::new(topology, routing, seed);
        sim.set_capture_sink(CaptureConfig::off(), Box::new(sink));
        World { sim }
    }

    /// See [`Simulator::set_forward_jitter`].
    pub fn set_forward_jitter(&mut self, jitter: SimDuration) {
        self.sim.set_forward_jitter(jitter);
    }

    /// See [`Simulator::install_faults`].
    pub fn install_faults(&mut self, schedule: &FaultSchedule) {
        self.sim.install_faults(schedule);
    }

    /// Attach an MPTCP sender to `src`; the connection opens at `start`.
    pub fn add_sender(&mut self, src: NodeId, cfg: MptcpConfig, start: SimTime) -> SenderId {
        let agent = Box::new(MptcpSenderAgent::new(cfg));
        SenderId(self.sim.add_agent(src, agent, start))
    }

    /// Attach an MPTCP receiver to `dst`, listening from time zero, and
    /// capture receiver-side there.
    pub fn add_receiver(&mut self, dst: NodeId, sack: bool) -> ReceiverId {
        let mut receiver = MptcpReceiverAgent::default();
        if !sack {
            receiver = receiver.without_sack();
        }
        self.sim.capture_receiver_side(dst);
        ReceiverId(self.sim.add_agent(dst, Box::new(receiver), SimTime::ZERO))
    }

    /// One whole connection: the sender at `src`, then the receiver at
    /// `cfg.dst`, with adjacent agent ids.
    pub fn connect(
        &mut self,
        src: NodeId,
        cfg: MptcpConfig,
        start: SimTime,
    ) -> (SenderId, ReceiverId) {
        let (dst, sack) = (cfg.dst, cfg.sack);
        (
            self.add_sender(src, cfg, start),
            self.add_receiver(dst, sack),
        )
    }

    /// An open-loop CBR flow `from` → `to` (source agent, then sink agent),
    /// untagged: `routing` needs default routes to `to`.
    pub fn background(&mut self, from: NodeId, to: NodeId, rate: Bandwidth, packet_bytes: u32) {
        let source = CbrSource::new(to, Tag::NONE, rate, packet_bytes);
        self.sim.add_agent(from, Box::new(source), SimTime::ZERO);
        self.sim
            .add_agent(to, Box::<DatagramSink>::default(), SimTime::ZERO);
    }

    /// See [`Simulator::run_until`].
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// See [`Simulator::run_to_completion`].
    pub fn run_to_completion(&mut self) {
        self.sim.run_to_completion();
    }

    /// The simulator, for its statistics.
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// How much work the run has done so far, layer by layer (event queue,
    /// forwarding, agent dispatches): walk [`SimCounters::entries`].
    pub fn counters(&self) -> SimCounters {
        self.sim.counters()
    }

    /// The simulator itself, for tests that swap the sink.
    #[cfg(test)]
    pub(crate) fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Endpoint state of a sender.
    pub fn sender(&self, id: SenderId) -> &MptcpSenderAgent {
        self.sim
            .agent(id.0)
            .as_any()
            .and_then(|a| a.downcast_ref::<MptcpSenderAgent>())
            // simlint: allow(unwrap, reason = "a SenderId is only issued by add_sender, for the agent it installed")
            .expect("SenderId names an MptcpSenderAgent")
    }

    /// Endpoint state of a receiver.
    pub fn receiver(&self, id: ReceiverId) -> &MptcpReceiverAgent {
        self.sim
            .agent(id.0)
            .as_any()
            .and_then(|a| a.downcast_ref::<MptcpReceiverAgent>())
            // simlint: allow(unwrap, reason = "a ReceiverId is only issued by add_receiver, for the agent it installed")
            .expect("ReceiverId names an MptcpReceiverAgent")
    }

    /// The measurement sink.
    pub fn sink(&self) -> &TraceSink {
        self.sim
            .sink()
            // simlint: allow(unwrap, reason = "new installs a TraceSink and nothing outside tests can replace it")
            .expect("a world streams into a TraceSink")
    }

    /// The measurement sink, mutably (end-of-run invariant checks).
    pub fn sink_mut(&mut self) -> &mut TraceSink {
        self.sim
            .sink_mut()
            // simlint: allow(unwrap, reason = "new installs a TraceSink and nothing outside tests can replace it")
            .expect("a world streams into a TraceSink")
    }

    /// Freeze the world's complete deterministic state.
    pub fn checkpoint(&self) -> WorldCheckpoint {
        WorldCheckpoint(self.sim.checkpoint())
    }

    /// A fresh, independent world continuing from `checkpoint`.
    pub fn restore(checkpoint: &WorldCheckpoint) -> World {
        World {
            sim: Simulator::restore(&checkpoint.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcpsim::install_subflows;
    use tcpsim::AppSource;
    use worldgen::{TrafficNet, TrafficNetConfig};

    /// Two connections on disjoint host pairs of the shared-bottleneck
    /// substrate, each moving its own `sizes[i]` bytes.
    fn two_connections(sizes: [u64; 2]) -> (World, [(SenderId, ReceiverId); 2]) {
        let net = TrafficNet::build(&TrafficNetConfig {
            pairs: 2,
            ..TrafficNetConfig::default()
        });
        let mut routing = RoutingTables::new(&net.topology);
        let cfgs = [0, 1].map(|i| MptcpConfig {
            app: AppSource::Fixed(sizes[i]),
            ..MptcpConfig::bulk(
                net.dsts[i],
                install_subflows(&mut routing, &net.paths(i), 1, 5000),
            )
        });
        let mut world = World::new(net.topology.clone(), routing, 7, TraceSink::new());
        let [first, second] = cfgs;
        let conns = [
            world.connect(net.srcs[0], first, SimTime::ZERO),
            world.connect(net.srcs[1], second, SimTime::ZERO),
        ];
        (world, conns)
    }

    #[test]
    fn each_handle_reads_back_its_own_connection() {
        let sizes = [100 << 10, 300 << 10];
        let (mut world, conns) = two_connections(sizes);
        world.run_until(SimTime::from_secs(5));
        for ((sender, receiver), size) in conns.into_iter().zip(sizes) {
            assert_eq!(world.receiver(receiver).data_delivered(), size);
            assert_eq!(world.sender(sender).stats().data_acked, size);
            assert!(world.sender(sender).is_complete());
        }
    }

    #[test]
    fn two_connection_checkpoint_resumes_bit_for_bit() {
        // Long enough that both connections are mid-transfer, in loss
        // recovery on the shared bottleneck, when the world is frozen.
        let sizes = [4 << 20, 6 << 20];
        let (mid, end) = (SimTime::from_millis(400), SimTime::from_secs(2));
        let observe = |world: &World, conns: &[(SenderId, ReceiverId); 2]| {
            (
                world.sink().hash(),
                world.sim().stats().events,
                conns.map(|(_, r)| world.receiver(r).data_delivered()),
            )
        };

        let (mut cold, conns) = two_connections(sizes);
        cold.run_until(end);

        let (mut prefix, same_conns) = two_connections(sizes);
        assert_eq!(conns, same_conns);
        prefix.run_until(mid);
        let frozen = prefix.checkpoint();
        assert_eq!(frozen.time(), mid);
        assert_eq!(frozen.buffered_captures(), 0);
        let at_mid = observe(&prefix, &conns);
        assert!(at_mid
            .2
            .iter()
            .zip(sizes)
            .all(|(&got, size)| 0 < got && got < size));
        drop(prefix);

        for _ in 0..2 {
            let mut resumed = World::restore(&frozen);
            assert_eq!(observe(&resumed, &conns), at_mid);
            resumed.run_until(end);
            assert_eq!(observe(&resumed, &conns), observe(&cold, &conns));
        }
        assert!(cold.sim().stats().packets_dropped > 0, "the run saw loss");
    }
}
