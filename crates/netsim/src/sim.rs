//! The discrete-event simulator.
//!
//! [`Simulator`] owns the topology, routing tables, one runtime record per
//! link direction (transmitter, queue, RNG stream, counters), the slab every
//! in-network packet lives in, registered agents, statistics, and the event
//! queue. One event loop iteration pops the earliest event and
//! reads what it is from the class of its canonical key (see [`order`]):
//!
//! * Arrive — a packet finished its propagation delay; deliver it to the
//!   local agent (if it is the destination) or forward it.
//! * TxDone — a transmitter finished serializing a packet; start the
//!   propagation leg and pull the next packet from the queue.
//! * Timer / Start — dispatch to the owning agent.
//! * Fault — apply a scheduled network mutation (see [`crate::faults`]).
//!
//! The link model is store-and-forward with full-duplex directions: each
//! direction has an independent transmitter and drop-tail/RED queue.
//! Serialization time is `wire_size / capacity` (exact integer arithmetic),
//! after which the packet spends the link's propagation delay in flight.
//!
//! # Schedule-independent ordering
//!
//! Events at equal times are ordered by a *canonical key* rather than push
//! order (see [`order`]), and every random draw comes from a per-entity
//! stream (one per link direction, one per agent) rather than a global
//! generator. Both choices make the execution a pure function of the event
//! set — independent of the order events happened to be scheduled in — which
//! is what lets a branch install its faults after [`Simulator::restore`]
//! (late, where a cold run pushed them at build time) and still replay the
//! cold run byte for byte.

use crate::agent::{Agent, AgentId, Ctx, Effect};
use crate::capture::{BufferSink, CaptureConfig, CaptureKind, CaptureRecord, CaptureSink};
use crate::faults::{FaultAction, FaultSchedule};
use crate::packet::{Dir, LinkId, NodeId, Packet, PacketMeta};
use crate::queue::{EnqueueResult, Queue, Queued};
use crate::routing::RoutingTables;
use crate::slab::{PacketHandle, PacketSlab};
use crate::stats::{LinkDirStats, SimCounters, SimStats};
use crate::topology::Topology;
use simbase::{
    EventQueue, ScheduledEvent, SimDuration, SimRng, SimTime, SplitMix64, Xoshiro256StarStar,
};
use std::any::Any;

/// Canonical event-ordering keys.
///
/// Two events scheduled for the same instant pop in key order, not push
/// order. The key packs `[class:3][entity:25][local:36]`:
///
/// * `class` — fault (0), agent start (1), TxDone (2), Arrive (3),
///   timer (4); ties between unrelated event kinds resolve by kind.
/// * `entity` — the link direction (`link * 2 + dir`) or agent the event
///   belongs to.
/// * `local` — a per-entity discriminator: the direction's transmission
///   epoch (TxDone), a per-direction arrival counter (Arrive), the agent's
///   timer token (Timer), or a fault-schedule install index (Fault).
///
/// Every *live* key is unique at its timestamp: arrival counters and fault
/// indices never repeat, an agent re-arming a timer token cancels the old
/// event first, and a direction serializes at most one packet at a time
/// (serialization takes ≥ 1 ns, so equal-time TxDones on one direction
/// cannot both be live).
pub(crate) mod order {
    /// Network mutations apply before anything else at the same instant.
    pub const CLASS_FAULT: u64 = 0;
    /// Agent start hooks.
    pub const CLASS_START: u64 = 1;
    /// Serialization completions.
    pub const CLASS_TX_DONE: u64 = 2;
    /// Propagation completions.
    pub const CLASS_ARRIVE: u64 = 3;
    /// Agent timers fire last at an instant.
    pub const CLASS_TIMER: u64 = 4;

    const ENTITY_BITS: u32 = 25;
    const LOCAL_BITS: u32 = 36;

    /// Pack a canonical key. Panics if a field overflows its budget —
    /// silently wrapping would corrupt the event order.
    pub fn pack(class: u64, entity: u64, local: u64) -> u64 {
        assert!(entity < 1 << ENTITY_BITS, "canonical-key entity overflow");
        assert!(local < 1 << LOCAL_BITS, "canonical-key local overflow");
        (class << (ENTITY_BITS + LOCAL_BITS)) | (entity << LOCAL_BITS) | local
    }

    /// The `(class, entity, local)` a key was packed from. The key is the
    /// event: `execute` reads every field it needs back out of it.
    pub fn unpack(key: u64) -> (u64, u64, u64) {
        (
            key >> (ENTITY_BITS + LOCAL_BITS),
            (key >> LOCAL_BITS) & ((1 << ENTITY_BITS) - 1),
            key & ((1 << LOCAL_BITS) - 1),
        )
    }

    /// The agent an entity index names.
    pub fn entity_agent(entity: u64) -> crate::agent::AgentId {
        // simlint: allow(truncating-cast, reason = "entity < 2^25 by pack's assert")
        crate::agent::AgentId(entity as u32)
    }

    /// The entity index of one link direction.
    pub fn dir_entity(link: crate::packet::LinkId, dir: crate::packet::Dir) -> u64 {
        (link.0 as u64) * 2 + dir.index() as u64
    }

    /// The link direction an entity index names (inverse of [`dir_entity`]).
    pub fn entity_dir(entity: u64) -> (crate::packet::LinkId, crate::packet::Dir) {
        let dir = if entity & 1 == 0 {
            crate::packet::Dir::AtoB
        } else {
            crate::packet::Dir::BtoA
        };
        // simlint: allow(truncating-cast, reason = "entity < 2^25 by pack's assert, so entity / 2 fits a u32 LinkId")
        (crate::packet::LinkId((entity >> 1) as u32), dir)
    }
}

/// What a queue entry carries beyond its canonical key (see [`order`]).
///
/// The key already says which agent starts, which `(agent, token)` timer
/// fires, which direction's transmission epoch completed and which fault
/// install index applies, so those events store nothing; only an arrival
/// needs a payload. That keeps a queue entry at 32 bytes, and every
/// event-queue move (bucket push, cascade, settle sort) at that size.
#[derive(Debug, Clone)]
enum Event {
    /// A start, timer, TxDone or fault: fully described by its key. For a
    /// TxDone the key's `local` is the transmission epoch, which pins the
    /// event to the serialization that scheduled it: aborting one (link
    /// failure) bumps the direction's epoch, so a stale TxDone cannot
    /// complete a *different* packet started later.
    Keyed,
    /// A packet finished propagating and arrives at the far end of the
    /// key's link direction. The packet itself stays in the simulator's
    /// [`PacketSlab`] — a full [`Packet`] embeds its inline payload (104
    /// bytes).
    Arrive { pkt: PacketHandle },
}

// simlint: allow(panic-surface, reason = "evaluated at compile time: a fatter Event fails the build, not a run")
const _: () = assert!(EventQueue::<Event>::ENTRY_BYTES == 32);

/// A packet being serialized.
#[derive(Clone, Copy)]
struct Transmission {
    entry: Queued,
    /// Fixed when the transmission started: a capacity fault mid-flight
    /// must not retroactively change this packet's accounting.
    tx_time: SimDuration,
}

/// Everything a hop reads or writes about one direction of a link, in one
/// record (`Simulator::dirs`, indexed by [`order::dir_entity`] — the entity
/// field of the direction's `TxDone` and `Arrive` keys). The link's *spec*
/// (endpoints, capacity, delay, loss rate, queue config) stays in the
/// [`Topology`], so a fault has one place to change it.
#[derive(Clone)]
struct DirState {
    /// The packet currently being serialized, if any.
    transmitting: Option<Transmission>,
    /// Incremented whenever a serialization is aborted; pending `TxDone`
    /// events from before the abort carry the old epoch and are ignored.
    epoch: u64,
    /// Output queue behind the transmitter.
    queue: Box<dyn Queue>,
    /// This direction's RNG stream (queue AQM draws, corruption loss,
    /// forwarding jitter).
    rng: Xoshiro256StarStar,
    /// Arrivals scheduled so far — the `local` part of each `Arrive`
    /// event's canonical key.
    arrive_seq: u64,
    stats: LinkDirStats,
    /// Administrative state of the link (both of its directions agree);
    /// packets offered to a down link are dropped.
    up: bool,
}

// simlint: allow(panic-surface, reason = "evaluated at compile time: a fatter per-direction record fails the build, not a run")
const _: () = assert!(std::mem::size_of::<DirState>() <= 144);

impl DirState {
    fn new(queue: Box<dyn Queue>, rng: Xoshiro256StarStar) -> Self {
        DirState {
            transmitting: None,
            epoch: 0,
            queue,
            rng,
            arrive_seq: 0,
            stats: LinkDirStats::default(),
            up: true,
        }
    }
}

/// Where `link`'s `dir` lives in `Simulator::dirs`.
fn dir_index(link: LinkId, dir: Dir) -> usize {
    order::dir_entity(link, dir) as usize
}

/// RNG stream labels for [`SplitMix64::derive`]: one independent stream
/// per agent and per link direction, so a random draw depends only on the
/// entity making it — never on what the rest of the network did first.
const STREAM_AGENT: u64 = 1 << 32;
const STREAM_DIR: u64 = 2 << 32;

/// Per-agent packet ids live in the upper bits: agent `a`'s packets are
/// `(a << PACKET_ID_SHIFT) + n`. 2^40 packets per agent is unreachable in
/// practice, and the namespacing makes an id a function of its sender alone.
const PACKET_ID_SHIFT: u32 = 40;

/// The packet-level network simulator.
pub struct Simulator {
    topo: Topology,
    routing: RoutingTables,
    /// One record per link direction, indexed by [`dir_index`].
    dirs: Vec<DirState>,
    /// Every packet inside the network, from `Effect::Send` until delivery,
    /// drop or unroutable. Queues, transmitters and `Arrive` events hold
    /// handles into it.
    slab: PacketSlab,
    agents: Vec<Option<Box<dyn Agent>>>,
    agent_node: Vec<NodeId>,
    node_agent: Vec<Option<AgentId>>,
    events: EventQueue<Event>,
    now: SimTime,
    /// The run's root seed; every per-entity stream derives from it.
    seed: u64,
    /// Per-agent RNG streams (handed to `Ctx::rng`).
    agent_rngs: Vec<Xoshiro256StarStar>,
    /// Per-agent packet-id counters (see `PACKET_ID_SHIFT`).
    agent_packet_seq: Vec<u64>,
    /// Scheduled faults by install index — the `local` part of a fault
    /// event's key. An entry is taken when its event fires; the index of
    /// the next install is the table's length. Part of the snapshot, so a
    /// fault installed after [`Simulator::restore`] continues the numbering.
    faults: Vec<Option<Box<FaultAction>>>,
    capture_cfg: CaptureConfig,
    /// Where records passing `capture_cfg` go (see [`CaptureSink`]). Part of
    /// the deterministic state: checkpoints deep-copy it.
    sink: Option<Box<dyn CaptureSink>>,
    stats: SimStats,
    /// Packets handed to an output link, and how many of them met a busy
    /// transmitter and were buffered (see [`SimCounters`]).
    hops: u64,
    link_enqueues: u64,
    /// `on_start` dispatches.
    starts: u64,
    /// Packets currently inside the network (queued, serializing, flying).
    in_flight: u64,
    /// Pending timers per agent: `(agent token, queue cancellation token)`
    /// pairs, linear-scanned (an agent arms a handful of timers at most).
    /// Arming an already-armed `(agent, token)` cancels the old deadline
    /// (replacement semantics: a stale deadline can never fire). A table
    /// left empty by a dispatch gives its allocation back: an agent with
    /// nothing armed (a finished connection) keeps nothing here.
    timer_keys: Vec<Vec<(u64, u64)>>,
    /// Recycled effect buffers (one per live dispatch depth); dispatching
    /// an agent in steady state allocates nothing.
    effect_bufs: Vec<Vec<Effect>>,
    /// Maximum uniform per-hop forwarding jitter added to each packet's
    /// propagation leg (models kernel/switch processing noise; zero by
    /// default so timing tests stay exact).
    forward_jitter: SimDuration,
}

impl Simulator {
    /// Build a simulator over a topology with a deterministic seed.
    pub fn new(topo: Topology, routing: RoutingTables, seed: u64) -> Self {
        // `dir_entity` order: link-major, A→B before B→A.
        let dirs = topo
            .link_ids()
            .flat_map(|l| [(l, Dir::AtoB), (l, Dir::BtoA)])
            .map(|(l, d)| {
                let stream = STREAM_DIR | order::dir_entity(l, d);
                DirState::new(
                    topo.link(l).queue.build(),
                    Xoshiro256StarStar::new(SplitMix64::derive(seed, stream)),
                )
            })
            .collect();
        let node_agent = vec![None; topo.node_count()];
        Simulator {
            topo,
            routing,
            dirs,
            slab: PacketSlab::default(),
            agents: Vec::new(),
            agent_node: Vec::new(),
            node_agent,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            seed,
            agent_rngs: Vec::new(),
            agent_packet_seq: Vec::new(),
            faults: Vec::new(),
            capture_cfg: CaptureConfig::off(),
            sink: None,
            stats: SimStats::default(),
            hops: 0,
            link_enqueues: 0,
            starts: 0,
            in_flight: 0,
            timer_keys: Vec::new(),
            effect_bufs: Vec::new(),
            forward_jitter: SimDuration::ZERO,
        }
    }

    /// Set the capture configuration (before or during a run). Unless a
    /// sink is already installed, records are kept in a [`BufferSink`] and
    /// read back with [`Simulator::captures`] — O(packets) memory, meant for
    /// tests, export and debugging.
    pub fn set_capture(&mut self, cfg: CaptureConfig) {
        self.capture_cfg = cfg;
        if self.sink.is_none() {
            self.sink = Some(Box::<BufferSink>::default());
        }
    }

    /// Set the capture configuration and stream matching records into
    /// `sink` instead of buffering them (see [`CaptureSink`] for the
    /// contract). Replaces any sink installed before.
    pub fn set_capture_sink(&mut self, cfg: CaptureConfig, sink: Box<dyn CaptureSink>) {
        self.capture_cfg = cfg;
        self.sink = Some(sink);
    }

    /// Also capture receiver-side at `node`, in place and keeping the sink
    /// (see [`CaptureConfig::and_receiver_side`]).
    pub fn capture_receiver_side(&mut self, node: NodeId) {
        self.capture_cfg = std::mem::take(&mut self.capture_cfg).and_receiver_side(node);
    }

    /// The installed capture sink, if it is a `T`.
    pub fn sink<T: CaptureSink>(&self) -> Option<&T> {
        (self.sink.as_deref()? as &dyn Any).downcast_ref()
    }

    /// The installed capture sink, mutably, if it is a `T`.
    pub fn sink_mut<T: CaptureSink>(&mut self) -> Option<&mut T> {
        (self.sink.as_deref_mut()? as &mut dyn Any).downcast_mut()
    }

    /// Add up to `jitter` of uniform random delay to every packet's
    /// propagation leg. Models the OS-scheduling noise of a software
    /// testbed (the paper's Mininet); breaks drop-phase synchronisation
    /// between flows and makes distinct seeds produce distinct runs.
    pub fn set_forward_jitter(&mut self, jitter: SimDuration) {
        self.forward_jitter = jitter;
    }

    /// Attach an agent to `node`, starting at `start`. One agent per node.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent>, start: SimTime) -> AgentId {
        assert!((node.0 as usize) < self.topo.node_count(), "unknown node");
        assert!(
            self.node_agent[node.0 as usize].is_none(),
            "node {node:?} already has an agent"
        );
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(Some(agent));
        self.agent_node.push(node);
        self.timer_keys.push(Vec::new());
        self.agent_rngs
            .push(Xoshiro256StarStar::new(SplitMix64::derive(
                self.seed,
                STREAM_AGENT | id.0 as u64,
            )));
        self.agent_packet_seq.push((id.0 as u64) << PACKET_ID_SHIFT);
        self.node_agent[node.0 as usize] = Some(id);
        self.events.push_keyed(
            start,
            order::pack(order::CLASS_START, id.0 as u64, 0),
            Event::Keyed,
        );
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Routing tables (immutable during the run).
    pub fn routing(&self) -> &RoutingTables {
        &self.routing
    }

    /// Simulation-wide counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Counters for one direction of a link.
    pub fn link_stats(&self, link: LinkId, dir: Dir) -> &LinkDirStats {
        &self.dirs[dir_index(link, dir)].stats // simlint: allow(panic-surface, reason = "LinkId is topology-issued and dirs holds two records per topology link")
    }

    /// The work counters of this run so far (see [`SimCounters`]).
    pub fn counters(&self) -> SimCounters {
        let mut counters = SimCounters {
            queue_pushes: self.events.total_pushed() + self.events.total_cancelled(),
            queue_pops: self.events.total_popped(),
            queue_cancels: self.events.total_cancelled(),
            queue_cascaded: self.events.total_cascaded(),
            queue_pool_chunks: self.events.pool_chunks() as u64,
            hops: self.hops,
            link_enqueues: self.link_enqueues,
            link_drops: self.stats.packets_dropped,
            slab_high_water: self.slab.high_water(),
            on_start: self.starts,
            on_timer: self.stats.timers_fired,
            on_packet: self.stats.packets_delivered,
            route_sets: self.routing.route_sets() as u64,
            ..SimCounters::default()
        };
        for agent in self.agents.iter().flatten() {
            agent.count(&mut counters);
        }
        counters
    }

    /// Account one packet lost at link direction `i` and vacate its slot.
    /// The single site for drop bookkeeping, so the slab, `in_flight` and
    /// the drop counters cannot drift apart.
    fn drop_at(&mut self, i: usize, lost: Queued) -> Packet {
        self.stats.packets_dropped += 1;
        self.in_flight -= 1;
        self.dirs[i].stats.on_drop(lost.wire_size); // simlint: allow(panic-surface, reason = "i is dir_index of a topology-issued LinkId, or an event key's entity built from one")
        self.slab.take(lost.pkt)
    }

    /// Capture records buffered so far: everything captured since
    /// [`Simulator::set_capture`], or nothing when a streaming sink is
    /// installed instead of the buffer.
    pub fn captures(&self) -> &[CaptureRecord] {
        self.sink::<BufferSink>().map_or(&[], BufferSink::records)
    }

    /// Packets currently inside the network.
    pub fn packets_in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Events scheduled over the run and not cancelled (the live share).
    pub fn events_scheduled(&self) -> u64 {
        self.events.total_pushed()
    }

    /// Events cancelled before firing — the dead-event count the old lazy
    /// timer guards would have popped and ignored.
    pub fn events_cancelled(&self) -> u64 {
        self.events.total_cancelled()
    }

    /// Borrow an agent back out of the simulator (after a run) to inspect
    /// endpoint state. Panics if the id is stale.
    pub fn agent(&self, id: AgentId) -> &dyn Agent {
        self.agents[id.0 as usize]
            .as_deref()
            .expect("agent is being dispatched") // simlint: allow(unwrap, reason = "documented API contract: stale AgentId is a caller bug")
    }

    /// Capture the complete deterministic state of this simulator as a
    /// [`SimSnapshot`] that [`Simulator::restore`] can branch from.
    ///
    /// The snapshot is a deep copy: the event queue (pending entries,
    /// cancellation-token table, and lifetime push/cancel counters), every
    /// agent (via [`Agent::clone_boxed`]), per-entity RNG streams, link
    /// transmitters and queues with the packet slab their handles point
    /// into, the capture sink (via
    /// [`CaptureSink::clone_sink`]), and all statistics. Because the
    /// execution is a pure function of that state (see the module docs on schedule-independent ordering), a restored
    /// simulator replays the identical event sequence — trace hashes of a
    /// branched continuation match a cold run byte-for-byte.
    pub fn checkpoint(&self) -> SimSnapshot {
        SimSnapshot {
            version: SNAPSHOT_VERSION,
            sim: self.deep_clone(),
        }
    }

    /// Reconstruct an independent simulator from a snapshot. The snapshot
    /// is reusable: each call yields a fresh branch that evolves on its
    /// own (schedule different faults on each and compare).
    pub fn restore(snapshot: &SimSnapshot) -> Simulator {
        assert_eq!(
            snapshot.version, SNAPSHOT_VERSION,
            "snapshot version mismatch: cannot restore v{} with a v{SNAPSHOT_VERSION} engine",
            snapshot.version
        );
        snapshot.sim.deep_clone()
    }

    /// The deep copy backing [`Simulator::checkpoint`]/[`Simulator::restore`].
    fn deep_clone(&self) -> Simulator {
        let agents = self
            .agents
            .iter()
            .map(|slot| {
                // Between events every slot is occupied; a vacant slot means
                // we are inside a dispatch, where checkpointing is unsound.
                // simlint: allow(unwrap, reason = "checkpoint mid-dispatch would lose the dispatched agent; fail loudly")
                let agent = slot.as_deref().expect("checkpoint during agent dispatch");
                Some(agent.clone_boxed())
            })
            .collect();
        Simulator {
            topo: self.topo.clone(),
            routing: self.routing.clone(),
            dirs: self.dirs.clone(),
            slab: self.slab.clone(),
            agents,
            agent_node: self.agent_node.clone(),
            node_agent: self.node_agent.clone(),
            events: self.events.clone(),
            now: self.now,
            seed: self.seed,
            agent_rngs: self.agent_rngs.clone(),
            agent_packet_seq: self.agent_packet_seq.clone(),
            faults: self.faults.clone(),
            capture_cfg: self.capture_cfg.clone(),
            sink: self.sink.as_deref().map(CaptureSink::clone_sink),
            stats: self.stats,
            hops: self.hops,
            link_enqueues: self.link_enqueues,
            starts: self.starts,
            in_flight: self.in_flight,
            timer_keys: self.timer_keys.clone(),
            // Scratch buffers are always empty between events.
            effect_bufs: Vec::new(),
            forward_jitter: self.forward_jitter,
        }
    }

    /// Schedule an administrative link failure (both directions). Packets
    /// queued or in serialization are lost; packets already propagating
    /// deliver (they have left the interface).
    pub fn schedule_link_down(&mut self, link: LinkId, at: SimTime) {
        self.schedule_fault(at, FaultAction::LinkDown(link));
    }

    /// Schedule a link recovery.
    pub fn schedule_link_up(&mut self, link: LinkId, at: SimTime) {
        self.schedule_fault(at, FaultAction::LinkUp(link));
    }

    /// Schedule one fault action. Validated eagerly so a bad schedule fails
    /// at install time, not minutes into a run.
    pub fn schedule_fault(&mut self, at: SimTime, action: FaultAction) {
        let link = action.link();
        assert!((link.0 as usize) < self.topo.link_count(), "unknown link");
        match &action {
            FaultAction::SetCapacity(_, cap) => {
                assert!(cap.as_bps() > 0, "zero-capacity fault");
            }
            FaultAction::SetLoss(_, rate) => {
                assert!((0.0..=1.0).contains(rate), "loss rate in [0, 1]");
            }
            _ => {}
        }
        let key = order::pack(order::CLASS_FAULT, 0, self.faults.len() as u64);
        self.faults.push(Some(Box::new(action)));
        self.events.push_keyed(at, key, Event::Keyed);
    }

    /// Install every entry of a [`FaultSchedule`] as simulator events.
    /// Entries interleave with packet events under the canonical
    /// `(time, key)` order of the event queue — faults apply before any
    /// packet event at the same instant, in install order — so a faulted
    /// run is a pure function of (topology, agents, schedule, seed).
    pub fn install_faults(&mut self, schedule: &FaultSchedule) {
        for (at, action) in schedule.entries() {
            self.schedule_fault(*at, action.clone());
        }
    }

    /// Is the link administratively up?
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.dirs[dir_index(link, Dir::AtoB)].up
    }

    /// Run until the event queue is exhausted or `deadline` is reached.
    /// Events exactly at the deadline are processed; the clock never
    /// advances past it.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(ev) = self.events.pop_at_or_before(deadline) {
            self.execute(ev);
        }
        self.now = self.now.max(deadline);
        self.check_conservation();
    }

    /// Run until no events remain (terminating workloads only).
    pub fn run_to_completion(&mut self) {
        while self.step() {}
        self.check_conservation();
    }

    /// Packet conservation: everything sent must be delivered, dropped,
    /// unroutable, or still sitting in a queue / on a wire. A mismatch means
    /// the forwarding plane lost or duplicated a packet without accounting
    /// for it. And every packet in the network is exactly one slab slot: a
    /// handle dropped without `take` (a leak) or taken twice shows up here.
    fn check_conservation(&self) {
        assert_eq!(
            self.slab.live(),
            self.in_flight,
            "packet slab holds {} packets with {} in flight",
            self.slab.live(),
            self.in_flight,
        );
        assert!(
            self.stats.conserved(self.in_flight),
            "packet conservation violated: sent={} delivered={} dropped={} unroutable={} in_flight={}",
            self.stats.packets_sent,
            self.stats.packets_delivered,
            self.stats.packets_dropped,
            self.stats.packets_unroutable,
            self.in_flight,
        );
    }

    /// Process a single event. Returns false if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.events.pop() else {
            return false;
        };
        self.execute(ev);
        true
    }

    /// Execute one popped event.
    fn execute(&mut self, ev: ScheduledEvent<Event>) {
        // Event-time monotonicity: a hard assert in every build (a backwards
        // clock silently corrupts every downstream series).
        assert!(
            ev.time >= self.now,
            "time went backwards: event at {} < now {}",
            ev.time,
            self.now
        );
        self.now = ev.time;
        self.stats.events += 1;
        let (class, entity, local) = order::unpack(ev.seq);
        match (class, ev.event) {
            (order::CLASS_START, Event::Keyed) => {
                self.starts += 1;
                self.dispatch(order::entity_agent(entity), AgentCall::Start);
            }
            (order::CLASS_TIMER, Event::Keyed) => {
                let (agent, token) = (order::entity_agent(entity), local);
                // Replacement semantics guarantee at most one live event per
                // (agent, token); popping it retires the table entry.
                if let Some(keys) = self.timer_keys.get_mut(agent.0 as usize) {
                    if let Some(i) = keys.iter().position(|&(t, _)| t == token) {
                        keys.swap_remove(i);
                    }
                }
                self.stats.timers_fired += 1;
                self.dispatch(agent, AgentCall::Timer(token));
            }
            (order::CLASS_TX_DONE, Event::Keyed) => {
                let (link, dir) = order::entity_dir(entity);
                self.on_tx_done(link, dir, local);
            }
            (order::CLASS_ARRIVE, Event::Arrive { pkt }) => {
                let (link, dir) = order::entity_dir(entity);
                let spec = self.topo.link(link);
                let node = match dir {
                    Dir::AtoB => spec.b,
                    Dir::BtoA => spec.a,
                };
                self.handle_packet_at(node, pkt);
            }
            (order::CLASS_FAULT, Event::Keyed) => {
                let action = usize::try_from(local)
                    .ok()
                    .and_then(|i| self.faults.get_mut(i)?.take())
                    // simlint: allow(unwrap, reason = "a fault key's index is the table slot schedule_fault filled; it fires once")
                    .expect("fault event without a scheduled action");
                self.apply_fault(*action);
            }
            // simlint: allow(panic-surface, reason = "every push site pairs its key class with its payload; a mismatch is a corrupted queue and must not run on")
            (class, event) => unreachable!("event {event:?} under key class {class}"),
        }
    }

    /// Apply one fault action to the live network (see [`crate::faults`]
    /// for the semantics of each variant).
    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::LinkDown(link) => self.on_link_down(link),
            FaultAction::LinkUp(link) => {
                for dir in [Dir::AtoB, Dir::BtoA] {
                    self.dirs[dir_index(link, dir)].up = true;
                }
            }
            FaultAction::SetCapacity(link, cap) => {
                self.topo.set_link_capacity(link, cap);
            }
            FaultAction::SetDelay(link, delay) => {
                self.topo.set_link_delay(link, delay);
            }
            FaultAction::SetLoss(link, rate) => {
                self.topo.set_link_loss(link, rate);
            }
            FaultAction::SetQueue(link, cfg) => {
                self.topo.set_link_queue(link, cfg);
                // Rebuild both directions' queues: re-offer the buffered
                // packets to the new queue in FIFO order; packets the new
                // (possibly smaller) queue refuses are accounted as drops,
                // as are head-drops surfaced while draining the old AQM.
                for dir in [Dir::AtoB, Dir::BtoA] {
                    let i = dir_index(link, dir);
                    let mut old = std::mem::replace(&mut self.dirs[i].queue, cfg.build());
                    loop {
                        let deq = old.dequeue(self.now);
                        let had_any = deq.pkt.is_some() || !deq.dropped.is_empty();
                        let mut lost = deq.dropped;
                        if let Some(entry) = deq.pkt {
                            let d = &mut self.dirs[i];
                            if let EnqueueResult::Dropped(_) =
                                d.queue.enqueue(self.now, entry, &mut self.slab, &mut d.rng)
                            {
                                lost.push(entry);
                            }
                        }
                        for entry in lost {
                            self.drop_at(i, entry);
                        }
                        if !had_any {
                            break;
                        }
                    }
                }
            }
        }
    }

    fn on_link_down(&mut self, link: LinkId) {
        for dir in [Dir::AtoB, Dir::BtoA] {
            let i = dir_index(link, dir);
            let state = &mut self.dirs[i];
            state.up = false;
            // The packet being serialized is lost on the wire. Bump the
            // epoch so the pending TxDone for the aborted serialization
            // is recognized as stale even if a fresh transmission starts
            // on this direction before it fires.
            if let Some(tx) = state.transmitting.take() {
                state.epoch += 1;
                self.drop_at(i, tx.entry);
            }
            // Buffered packets are lost with the interface.
            loop {
                let deq = self.dirs[i].queue.dequeue(self.now);
                let mut lost = deq.dropped;
                lost.extend(deq.pkt);
                if lost.is_empty() {
                    break;
                }
                for entry in lost {
                    self.drop_at(i, entry);
                }
            }
        }
        // A stale TxDone for the dropped transmission may still fire; it
        // carries the pre-abort epoch and is ignored (see on_tx_done).
    }

    // ---- internals ----

    fn dispatch(&mut self, id: AgentId, call: AgentCall) {
        let mut agent = self.agents[id.0 as usize]
            .take()
            .expect("re-entrant agent dispatch"); // simlint: allow(unwrap, reason = "slot is only vacated inside this non-reentrant fn")
        let node = self.agent_node[id.0 as usize];
        // Recycle an effect buffer: dispatch recurses through apply_effects
        // (Send → handle_packet_at → dispatch), so each nesting depth holds
        // its own buffer; steady state allocates none.
        let mut effects = self.effect_bufs.pop().unwrap_or_default();
        {
            let mut ctx = Ctx::new(
                self.now,
                node,
                id,
                &mut self.agent_rngs[id.0 as usize],
                &mut effects,
                &mut self.agent_packet_seq[id.0 as usize],
            );
            match call {
                AgentCall::Start => agent.on_start(&mut ctx),
                AgentCall::Timer(token) => agent.on_timer(&mut ctx, token),
                AgentCall::Packet(pkt) => agent.on_packet(&mut ctx, pkt),
            }
        }
        self.agents[id.0 as usize] = Some(agent);
        self.apply_effects(node, &mut effects);
        debug_assert!(effects.is_empty());
        self.effect_bufs.push(effects);
        // Timers fire, re-arm and cancel only around a dispatch of their
        // agent, so this is the one place its table can have become empty.
        if let Some(keys) = self.timer_keys.get_mut(id.0 as usize) {
            if keys.is_empty() {
                *keys = Vec::new();
            }
        }
    }

    fn apply_effects(&mut self, node: NodeId, effects: &mut Vec<Effect>) {
        for eff in effects.drain(..) {
            match eff {
                Effect::Send(pkt) => {
                    self.stats.packets_sent += 1;
                    self.in_flight += 1;
                    let pkt = self.slab.insert(pkt);
                    self.record(node, CaptureKind::Sent, None, pkt);
                    self.handle_packet_at(node, pkt);
                }
                Effect::SetTimer { at, token } => {
                    // simlint: allow(unwrap, reason = "effects originate from an agent installed at this node")
                    let agent = self.node_agent[node.0 as usize].expect("timer from unknown agent");
                    // `order::pack` rejects tokens over 2^36; agents use
                    // small enumerations plus per-subflow offsets well
                    // below that.
                    let key = order::pack(order::CLASS_TIMER, agent.0 as u64, token);
                    let cancel = self.events.push_keyed_cancellable(at, key, Event::Keyed);
                    // Re-arming replaces: revoke the superseded deadline so
                    // it can never fire stale.
                    let old = self
                        .timer_keys
                        .get_mut(agent.0 as usize)
                        .and_then(|keys| match keys.iter_mut().find(|(t, _)| *t == token) {
                            Some(entry) => Some(std::mem::replace(&mut entry.1, cancel)),
                            None => {
                                keys.push((token, cancel));
                                None
                            }
                        });
                    if let Some(old) = old {
                        if self.events.cancel(old) {
                            self.stats.timers_cancelled += 1;
                        }
                    }
                }
                Effect::CancelTimer { token } => {
                    // simlint: allow(unwrap, reason = "effects originate from an agent installed at this node")
                    let agent = self.node_agent[node.0 as usize].expect("timer from unknown agent");
                    let old = self.timer_keys.get_mut(agent.0 as usize).and_then(|keys| {
                        let i = keys.iter().position(|&(t, _)| t == token)?;
                        Some(keys.swap_remove(i).1)
                    });
                    if let Some(old) = old {
                        if self.events.cancel(old) {
                            self.stats.timers_cancelled += 1;
                        }
                    }
                }
            }
        }
    }

    /// A packet is present at `node`: deliver or forward.
    fn handle_packet_at(&mut self, node: NodeId, h: PacketHandle) {
        let pkt = self.slab.get(h);
        if pkt.dst == node {
            if let Some(agent) = self.node_agent[node.0 as usize] {
                self.stats.packets_delivered += 1;
                self.in_flight -= 1;
                self.record(node, CaptureKind::Delivered, None, h);
                // The one read-out: the packet leaves the slab for its agent.
                let pkt = self.slab.take(h);
                self.dispatch(agent, AgentCall::Packet(pkt));
            } else {
                // Destination host has no stack; treat as unroutable.
                self.unroutable_at(node, h);
            }
            return;
        }
        match self.routing.route(node, pkt) {
            Some(out_link) => {
                self.hops += 1;
                self.record(node, CaptureKind::Forwarded, Some(out_link), h);
                self.transmit_or_enqueue(node, out_link, h);
            }
            None => self.unroutable_at(node, h),
        }
    }

    /// No route (or no stack) for the packet at `node`: count it, let it go.
    fn unroutable_at(&mut self, node: NodeId, h: PacketHandle) {
        self.stats.packets_unroutable += 1;
        self.in_flight -= 1;
        self.record(node, CaptureKind::Unroutable, None, h);
        self.slab.take(h);
    }

    /// Offer the packet to `link`'s transmitter in the direction leaving
    /// `from`.
    fn transmit_or_enqueue(&mut self, from: NodeId, link: LinkId, h: PacketHandle) {
        let spec = self.topo.link(link);
        let dir = if from == spec.a { Dir::AtoB } else { Dir::BtoA };
        debug_assert!(spec.touches(from), "forwarding onto a detached link");
        let capacity = spec.capacity;
        let i = dir_index(link, dir);
        let entry = Queued {
            pkt: h,
            wire_size: self.slab.get(h).wire_size(),
        };
        let state = &mut self.dirs[i]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and dirs holds two records per topology link")
        if !state.up {
            // Interface down: the packet is lost at this hop.
            let lost = self.drop_at(i, entry);
            if self.capture_cfg.wants(from, CaptureKind::Dropped) {
                self.record_meta(from, CaptureKind::Dropped, Some(link), lost.meta());
            }
            return;
        }

        if state.transmitting.is_none() {
            let tx_time = capacity.tx_time(entry.wire_size as u64);
            let epoch = state.epoch;
            state.transmitting = Some(Transmission { entry, tx_time });
            self.push_tx_done(link, dir, epoch, self.now + tx_time);
        } else {
            // As offered: an AQM that marks a packet it then refuses must
            // not change what the drop record says was offered.
            let offered = self
                .capture_cfg
                .wants(from, CaptureKind::Dropped)
                .then(|| self.slab.get(h).meta());
            match state
                .queue
                .enqueue(self.now, entry, &mut self.slab, &mut state.rng)
            {
                EnqueueResult::Queued => {
                    self.link_enqueues += 1;
                    let (p, b) = (state.queue.len_packets(), state.queue.len_bytes());
                    state.stats.observe_queue(p, b);
                }
                EnqueueResult::Dropped(_) => {
                    self.drop_at(i, entry);
                    if let Some(meta) = offered {
                        self.record_meta(from, CaptureKind::Dropped, Some(link), meta);
                    }
                }
            }
        }
    }

    /// Schedule a serialization-complete event with its canonical key.
    fn push_tx_done(&mut self, link: LinkId, dir: Dir, epoch: u64, at: SimTime) {
        let key = order::pack(order::CLASS_TX_DONE, order::dir_entity(link, dir), epoch);
        self.events.push_keyed(at, key, Event::Keyed);
    }

    fn on_tx_done(&mut self, link: LinkId, dir: Dir, epoch: u64) {
        let spec = self.topo.link(link);
        let delay = spec.delay;
        let capacity = spec.capacity;
        let loss_rate = spec.loss_rate;
        let i = dir_index(link, dir);
        let state = &mut self.dirs[i]; // simlint: allow(panic-surface, reason = "the entity of a TxDone key is the dir_index the transmission was started at")

        // A link-down event may have aborted the serialization this event
        // belongs to: the abort bumped the direction's epoch, so a stale
        // event (old epoch, or no transmission at all) is ignored.
        if epoch != state.epoch {
            return;
        }
        let Some(tx) = state.transmitting.take() else {
            return;
        };
        // `tx_time` was fixed when the serialization started; a capacity
        // fault mid-transmission does not retroactively change it.
        state.stats.on_tx(tx.entry.wire_size, tx.tx_time);
        // Wireless-style random corruption loss (after serialization).
        let corrupted = loss_rate > 0.0 && state.rng.chance(loss_rate);
        let jitter = if self.forward_jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(state.rng.next_below(self.forward_jitter.as_nanos() + 1))
        };
        if corrupted {
            self.drop_at(i, tx.entry);
        } else {
            let key = order::pack(
                order::CLASS_ARRIVE,
                order::dir_entity(link, dir),
                state.arrive_seq,
            );
            state.arrive_seq += 1;
            let arrive = Event::Arrive { pkt: tx.entry.pkt };
            self.events
                .push_keyed(self.now + delay + jitter, key, arrive);
        }

        // Start the next packet, if any (the AQM may head-drop on the way).
        let deq = self.dirs[i].queue.dequeue(self.now); // simlint: allow(panic-surface, reason = "the entity of a TxDone key is the dir_index the transmission was started at")
        for dropped in deq.dropped {
            self.drop_at(i, dropped);
        }
        if let Some(next) = deq.pkt {
            let tx_time = capacity.tx_time(next.wire_size as u64);
            let state = &mut self.dirs[i]; // simlint: allow(panic-surface, reason = "the entity of a TxDone key is the dir_index the transmission was started at")
            let epoch = state.epoch;
            state.transmitting = Some(Transmission {
                entry: next,
                tx_time,
            });
            self.push_tx_done(link, dir, epoch, self.now + tx_time);
        }
    }

    fn record(&mut self, node: NodeId, kind: CaptureKind, link: Option<LinkId>, h: PacketHandle) {
        if self.capture_cfg.wants(node, kind) {
            self.record_meta(node, kind, link, self.slab.get(h).meta());
        }
    }

    /// Hand one capture record to the installed sink. This is the only
    /// place records are emitted, so the sink sees each exactly once, in
    /// execution order.
    fn record_meta(
        &mut self,
        node: NodeId,
        kind: CaptureKind,
        link: Option<LinkId>,
        pkt: PacketMeta,
    ) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(&CaptureRecord {
                time: self.now,
                node,
                kind,
                link,
                pkt,
            });
        }
    }
}

/// Snapshot format version. Bumped whenever the captured state set changes
/// meaning (restore refuses a mismatched snapshot rather than silently
/// resuming from partial state). v2: capture state is the installed
/// [`CaptureSink`], not a record buffer with per-record order stamps.
/// v3: scheduled fault actions live in the simulator's fault table, keyed by
/// install index, not inside their queue entries.
/// v4: packets in the network live in the [`PacketSlab`]; queues,
/// transmitters and `Arrive` events hold handles into it, so a snapshot
/// without the slab would restore dangling handles.
pub const SNAPSHOT_VERSION: u32 = 4;

/// A versioned, self-contained copy of a simulator's full deterministic
/// state at one instant, produced by [`Simulator::checkpoint`].
///
/// The common prefix of a family of runs (e.g. the 0–4 s warm-up before a
/// fault study's first fault) is simulated once, checkpointed, and each
/// variant branches from the snapshot via [`Simulator::restore`] — with
/// byte-identical results to running each variant cold from t=0.
pub struct SimSnapshot {
    version: u32,
    sim: Simulator,
}

impl SimSnapshot {
    /// The format version this snapshot was captured with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Simulated time at which the snapshot was taken.
    pub fn time(&self) -> SimTime {
        self.sim.now
    }

    /// Capture records held in the snapshot: zero unless the simulator was
    /// buffering ([`Simulator::set_capture`] without a streaming sink).
    pub fn buffered_captures(&self) -> usize {
        self.sim.captures().len()
    }
}

impl std::fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("version", &self.version)
            .field("time", &self.sim.now)
            .field("agents", &self.sim.agents.len())
            .finish()
    }
}

/// Internal dispatch selector.
enum AgentCall {
    Start,
    Timer(u64),
    Packet(Packet),
}

#[cfg(test)]
mod order_tests {
    use super::order;

    #[test]
    fn canonical_keys_are_disjoint_across_classes() {
        // A canonical key's class field dominates, so faults at an instant
        // precede starts, which precede packet events, which precede timers.
        let f = order::pack(order::CLASS_FAULT, 0, u64::MAX >> 28);
        let s = order::pack(order::CLASS_START, (1 << 25) - 1, 0);
        let x = order::pack(order::CLASS_TX_DONE, 0, 0);
        let a = order::pack(order::CLASS_ARRIVE, 0, 0);
        let t = order::pack(order::CLASS_TIMER, 0, 0);
        assert!(f < s && s < x && x < a && a < t);
    }

    #[test]
    fn entity_indices_round_trip() {
        use crate::packet::{Dir, LinkId};
        for link in [0, 1, 77, (1 << 24) - 1] {
            for dir in [Dir::AtoB, Dir::BtoA] {
                let entity = order::dir_entity(LinkId(link), dir);
                assert_eq!(order::entity_dir(entity), (LinkId(link), dir));
            }
        }
        assert_eq!(order::entity_agent((1 << 25) - 1).0, (1 << 25) - 1);
    }

    proptest::proptest! {
        // The key is the event: every field `execute` reads back must be
        // the one the scheduler packed, over the whole of each field's range.
        #[test]
        fn unpack_inverts_pack(
            class in 0u64..8,
            entity in 0u64..1 << 25,
            local in 0u64..1 << 36,
            edge in 0usize..4,
        ) {
            let entity = [entity, 0, (1 << 25) - 1, entity][edge];
            let local = [local, 0, local, (1 << 36) - 1][edge];
            proptest::prop_assert_eq!(
                order::unpack(order::pack(class, entity, local)),
                (class, entity, local)
            );
        }
    }
}

#[cfg(test)]
mod sink_tests {
    use super::*;
    use crate::queue::QueueConfig;
    use crate::traffic::{CbrSource, DatagramSink};
    use crate::Tag;
    use simbase::Bandwidth;

    /// A streaming sink that keeps only a count and the last timestamp.
    #[derive(Clone, Default)]
    struct Counter {
        records: u64,
        last: SimTime,
    }

    impl CaptureSink for Counter {
        fn record(&mut self, rec: &CaptureRecord) {
            assert!(rec.time >= self.last, "records arrive in time order");
            self.records += 1;
            self.last = rec.time;
        }
        fn clone_sink(&self) -> Box<dyn CaptureSink> {
            Box::new(self.clone())
        }
    }

    /// a — b at 10 Mbps with a 20 Mbps CBR source: deliveries and drops.
    fn cbr_sim() -> Simulator {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(
            a,
            b,
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(1),
            QueueConfig::DropTailPackets(4),
        );
        let mut rt = RoutingTables::new(&t);
        rt.install_all_default_routes(&t);
        let mut sim = Simulator::new(t, rt, 3);
        sim.add_agent(
            a,
            Box::new(CbrSource::new(b, Tag::NONE, Bandwidth::from_mbps(20), 1000)),
            SimTime::ZERO,
        );
        sim.add_agent(b, Box::new(DatagramSink::default()), SimTime::ZERO);
        sim
    }

    #[test]
    fn streaming_sink_sees_what_the_buffer_would_hold() {
        let mut buffered = cbr_sim();
        buffered.set_capture(CaptureConfig::everything());
        buffered.run_until(SimTime::from_millis(50));
        assert!(!buffered.captures().is_empty());

        let mut streamed = cbr_sim();
        streamed.set_capture_sink(CaptureConfig::everything(), Box::<Counter>::default());
        streamed.run_until(SimTime::from_millis(50));
        assert!(streamed.captures().is_empty(), "nothing is buffered");
        let counter = streamed.sink::<Counter>().expect("installed sink");
        assert_eq!(counter.records, buffered.captures().len() as u64);
        assert_eq!(
            Some(counter.last),
            buffered.captures().last().map(|r| r.time)
        );
        assert_eq!(streamed.stats().events, buffered.stats().events);
    }

    #[test]
    fn checkpoint_deep_copies_the_sink() {
        let mut sim = cbr_sim();
        sim.set_capture_sink(CaptureConfig::everything(), Box::<Counter>::default());
        sim.run_until(SimTime::from_millis(20));
        let snap = sim.checkpoint();
        assert_eq!(snap.buffered_captures(), 0);
        let at_snapshot = sim.sink::<Counter>().expect("installed sink").records;
        sim.run_until(SimTime::from_millis(40));
        let end = sim.sink::<Counter>().expect("installed sink").records;
        assert!(end > at_snapshot);

        let mut branch = Simulator::restore(&snap);
        let restored = branch.sink::<Counter>().expect("restored sink").records;
        assert_eq!(restored, at_snapshot, "the snapshot's sink did not advance");
        branch.run_until(SimTime::from_millis(40));
        assert_eq!(branch.sink::<Counter>().expect("sink").records, end);
    }

    #[test]
    fn a_fault_installed_after_restore_applies_at_its_key() {
        let link = LinkId(0);
        let (down, up, down_again) = (
            SimTime::from_millis(10),
            SimTime::from_millis(15),
            SimTime::from_millis(30),
        );
        let outcome = |sim: &Simulator| {
            let s = sim.stats();
            (
                (s.events, s.packets_sent, s.packets_delivered),
                (s.packets_dropped, sim.packets_in_flight()),
                (sim.link_is_up(link), sim.events_scheduled()),
            )
        };

        let mut cold = cbr_sim();
        cold.schedule_link_down(link, down);
        cold.schedule_link_up(link, up);
        cold.schedule_link_down(link, down_again);
        cold.run_until(SimTime::from_millis(40));
        assert!(!cold.link_is_up(link));

        // The branch point sits between the first two faults: one table
        // entry is spent, one is pending, and the third is installed on
        // the restored simulator, where it must take the next index.
        let mut warm = cbr_sim();
        warm.schedule_link_down(link, down);
        warm.schedule_link_up(link, up);
        warm.run_until(SimTime::from_millis(12));
        let snap = warm.checkpoint();
        let mut branch = Simulator::restore(&snap);
        branch.schedule_link_down(link, down_again);
        branch.run_until(SimTime::from_millis(40));
        assert_eq!(outcome(&branch), outcome(&cold));

        // The snapshot is reusable and the original is untouched by the
        // branch's install: without the third fault the link stays up.
        warm.run_until(SimTime::from_millis(40));
        assert!(warm.link_is_up(link));
        let mut second = Simulator::restore(&snap);
        second.schedule_link_down(link, down_again);
        second.run_until(SimTime::from_millis(40));
        assert_eq!(outcome(&second), outcome(&cold));
    }

    /// `cbr_sim` at 10 ms: the source offers twice what the link carries,
    /// so the transmitter is busy, the 4-packet queue is full and a few
    /// packets are propagating. Returns `(slab.live, packets_dropped)`.
    fn congested(sim: &mut Simulator) -> (u64, u64) {
        sim.run_until(SimTime::from_millis(10));
        let out = &sim.dirs[dir_index(LinkId(0), Dir::AtoB)];
        assert!(out.transmitting.is_some());
        assert_eq!(out.queue.len_packets(), 4);
        assert!(sim.slab.live() > 5, "and some are on the wire");
        assert_eq!(sim.slab.live(), sim.in_flight);
        (sim.slab.live(), sim.stats.packets_dropped)
    }

    #[test]
    fn link_down_mid_serialization_frees_exactly_the_lost_slots() {
        let mut sim = cbr_sim();
        let (live, dropped) = congested(&mut sim);
        // Down and straight back up: the next CBR packet starts a fresh
        // serialization while the aborted one's TxDone is still queued.
        sim.schedule_link_down(LinkId(0), sim.now());
        sim.schedule_link_up(LinkId(0), sim.now());
        assert!(sim.step(), "the link-down fault");
        // The serializing packet and the four buffered ones are gone; the
        // ones already on the wire keep their slots.
        assert_eq!(sim.slab.live(), live - 5);
        assert_eq!(sim.in_flight, live - 5);
        assert_eq!(sim.stats.packets_dropped, dropped + 5);
        let out = &sim.dirs[dir_index(LinkId(0), Dir::AtoB)];
        assert!(out.transmitting.is_none() && out.queue.is_empty());
        assert_eq!(out.epoch, 1);

        // run_until checks `slab.live() == in_flight` on its way out: the
        // stale TxDone neither freed a slot twice nor completed the fresh
        // transmission early (every completed one took its full 816 us).
        let delivered = sim.stats.packets_delivered;
        sim.run_until(SimTime::from_millis(30));
        assert!(sim.stats.packets_delivered > delivered);
        let out = sim.link_stats(LinkId(0), Dir::AtoB);
        assert_eq!(
            out.busy_time,
            SimDuration::from_micros(816) * out.tx_packets
        );
        assert_eq!(sim.dirs[dir_index(LinkId(0), Dir::AtoB)].epoch, 1);
    }

    #[test]
    fn set_queue_frees_what_the_new_queue_refuses() {
        let mut sim = cbr_sim();
        let (live, dropped) = congested(&mut sim);
        sim.schedule_fault(
            sim.now(),
            FaultAction::SetQueue(LinkId(0), QueueConfig::DropTailPackets(1)),
        );
        assert!(sim.step(), "the queue fault");
        // Four buffered packets re-offered to a one-packet queue: the head
        // stays (FIFO), three slots come back; the transmitter is untouched.
        assert_eq!(sim.slab.live(), live - 3);
        assert_eq!(sim.in_flight, live - 3);
        assert_eq!(sim.stats.packets_dropped, dropped + 3);
        let out = &sim.dirs[dir_index(LinkId(0), Dir::AtoB)];
        assert!(out.transmitting.is_some());
        assert_eq!(out.queue.len_packets(), 1);
        sim.run_until(SimTime::from_millis(30));
    }

    #[test]
    fn a_mid_flight_checkpoint_replays_byte_for_byte() {
        // Everything captured, buffered: the record stream is the run.
        let trace = |sim: &Simulator| format!("{:?}", sim.captures());
        let end = SimTime::from_millis(40);
        let mut cold = cbr_sim();
        cold.set_capture(CaptureConfig::everything());
        cold.run_until(end);

        // Frozen with a packet half serialized, a full queue of handles
        // and packets on the wire: the snapshot must carry the slab they
        // all point into.
        let mut warm = cbr_sim();
        warm.set_capture(CaptureConfig::everything());
        let (live, _) = congested(&mut warm);
        let snap = warm.checkpoint();
        assert_eq!(snap.version(), 4);
        assert_eq!(SNAPSHOT_VERSION, 4);
        assert_eq!(snap.sim.slab.live(), live);

        // The original moving on (its slots are freed and reused) must not
        // reach into the snapshot's slab.
        warm.run_until(end);
        assert_eq!(trace(&warm), trace(&cold));
        for _ in 0..2 {
            let mut branch = Simulator::restore(&snap);
            assert_eq!(branch.slab.live(), live);
            branch.run_until(end);
            assert_eq!(trace(&branch), trace(&cold));
            assert_eq!(branch.counters(), cold.counters());
            assert_eq!(branch.slab.live(), cold.slab.live());
        }
    }

    #[test]
    fn counters_add_up() {
        let mut sim = cbr_sim();
        sim.run_until(SimTime::from_millis(40));
        let c = sim.counters();
        let s = sim.stats();
        // One start per agent; one pop per executed event; every packet
        // sent took the one hop, where it was transmitted at once, buffered
        // or refused.
        assert_eq!(c.on_start, 2);
        assert_eq!(c.queue_pops, s.events);
        assert_eq!(c.queue_pushes - c.queue_cancels, sim.events_scheduled());
        assert_eq!(c.hops, s.packets_sent);
        assert_eq!(c.on_packet, s.packets_delivered);
        assert_eq!(c.on_timer, s.timers_fired);
        assert_eq!(c.link_drops, s.packets_dropped);
        assert!(c.link_enqueues > 0 && c.link_enqueues + c.link_drops < c.hops);
        // At most: one serializing, four buffered, and the 1 ms wire's
        // worth of 816 us packets.
        assert!((6..=8).contains(&c.slab_high_water), "{c:?}");
        assert!(c.queue_pool_chunks >= 1);
        let names: Vec<_> = c.entries().map(|(name, _)| name).collect();
        assert_eq!(names.len(), 20);
        assert!(names.contains(&"netsim.slab_high_water"));
        // Untagged CBR over default routes: no route set, no TCP anywhere.
        assert_eq!((c.route_sets, c.tcp_segments_sent), (0, 0));
    }

    #[test]
    #[should_panic(expected = "snapshot version mismatch")]
    fn v1_tagged_snapshot_is_refused() {
        let mut snap = cbr_sim().checkpoint();
        snap.version = 1;
        let _ = Simulator::restore(&snap);
    }
}
