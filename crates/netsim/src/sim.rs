//! The discrete-event simulator.
//!
//! [`Simulator`] owns the topology, routing tables, per-link runtime state
//! (transmitter + queue per direction), registered agents, statistics, and
//! the event queue. One event loop iteration pops the earliest event and
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
use crate::queue::{EnqueueResult, Queue};
use crate::routing::RoutingTables;
use crate::stats::{LinkDirStats, SimStats};
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
    /// key's link direction. The packet itself sits in the simulator's
    /// wire pool — a full [`Packet`] embeds its inline payload (~112
    /// bytes).
    Arrive { wire_slot: u32 },
}

// simlint: allow(panic-surface, reason = "evaluated at compile time: a fatter Event fails the build, not a run")
const _: () = assert!(EventQueue::<Event>::ENTRY_BYTES == 32);

/// Runtime state for one direction of a link.
#[derive(Clone)]
struct DirState {
    /// The packet currently being serialized plus its serialization time
    /// (fixed when the transmission started: a capacity fault mid-flight
    /// must not retroactively change this packet's accounting).
    transmitting: Option<(Packet, SimDuration)>,
    /// Incremented whenever a serialization is aborted; pending `TxDone`
    /// events from before the abort carry the old epoch and are ignored.
    epoch: u64,
    /// Output queue behind the transmitter.
    queue: Box<dyn Queue>,
}

impl DirState {
    fn is_busy(&self) -> bool {
        self.transmitting.is_some()
    }
}

/// Runtime state for one duplex link: `dirs[Dir::index()]`.
#[derive(Clone)]
struct LinkRuntime {
    dirs: [DirState; 2],
    /// Administrative state; packets offered to a down link are dropped.
    up: bool,
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
    links: Vec<LinkRuntime>,
    agents: Vec<Option<Box<dyn Agent>>>,
    agent_node: Vec<NodeId>,
    node_agent: Vec<Option<AgentId>>,
    events: EventQueue<Event>,
    now: SimTime,
    /// The run's root seed; every per-entity stream derives from it.
    seed: u64,
    /// Per-agent RNG streams (handed to `Ctx::rng`).
    agent_rngs: Vec<Xoshiro256StarStar>,
    /// Per-link-direction RNG streams (queue AQM draws, corruption loss,
    /// forwarding jitter), indexed like `links`.
    dir_rngs: Vec<[Xoshiro256StarStar; 2]>,
    /// Per-agent packet-id counters (see `PACKET_ID_SHIFT`).
    agent_packet_seq: Vec<u64>,
    /// Per-link-direction count of arrivals scheduled — the `local` part of
    /// each `Arrive` event's canonical key.
    arrive_seq: Vec<[u64; 2]>,
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
    link_stats: Vec<[LinkDirStats; 2]>,
    /// Packets currently inside the network (queued, serializing, flying).
    in_flight: u64,
    /// Pending timers per agent: `(agent token, queue cancellation token)`
    /// pairs, linear-scanned (an agent arms a handful of timers at most).
    /// Arming an already-armed `(agent, token)` cancels the old deadline
    /// (replacement semantics: a stale deadline can never fire).
    timer_keys: Vec<Vec<(u64, u64)>>,
    /// Packets in propagation, indexed by `Event::Arrive::wire_slot`.
    /// Slots are recycled through `wire_free`, so steady-state forwarding
    /// allocates nothing.
    wire_pool: Vec<Option<Packet>>,
    /// Vacant `wire_pool` indices.
    wire_free: Vec<u32>,
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
        let links = topo
            .link_ids()
            .map(|l| {
                let spec = topo.link(l);
                LinkRuntime {
                    dirs: [
                        DirState {
                            transmitting: None,
                            epoch: 0,
                            queue: spec.queue.build(),
                        },
                        DirState {
                            transmitting: None,
                            epoch: 0,
                            queue: spec.queue.build(),
                        },
                    ],
                    up: true,
                }
            })
            .collect();
        let link_stats = topo
            .link_ids()
            .map(|_| [LinkDirStats::default(); 2])
            .collect();
        let node_agent = vec![None; topo.node_count()];
        let dir_rngs = topo
            .link_ids()
            .map(|l| {
                [Dir::AtoB, Dir::BtoA].map(|d| {
                    Xoshiro256StarStar::new(SplitMix64::derive(
                        seed,
                        STREAM_DIR | order::dir_entity(l, d),
                    ))
                })
            })
            .collect();
        let arrive_seq = topo.link_ids().map(|_| [0u64; 2]).collect();
        Simulator {
            topo,
            routing,
            links,
            agents: Vec::new(),
            agent_node: Vec::new(),
            node_agent,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            seed,
            agent_rngs: Vec::new(),
            dir_rngs,
            agent_packet_seq: Vec::new(),
            arrive_seq,
            faults: Vec::new(),
            capture_cfg: CaptureConfig::off(),
            sink: None,
            stats: SimStats::default(),
            link_stats: Vec::new(),
            in_flight: 0,
            timer_keys: Vec::new(),
            wire_pool: Vec::new(),
            wire_free: Vec::new(),
            effect_bufs: Vec::new(),
            forward_jitter: SimDuration::ZERO,
        }
        .with_link_stats(link_stats)
    }

    fn with_link_stats(mut self, ls: Vec<[LinkDirStats; 2]>) -> Self {
        self.link_stats = ls;
        self
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
        &self.link_stats[link.0 as usize][dir.index()] // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
    }

    /// Mutable counters for one direction of a link — the single indexing
    /// site for all per-link stat updates (`link` comes from the topology,
    /// so the bound holds by construction).
    fn dir_stats(&mut self, link: LinkId, dir: Dir) -> &mut LinkDirStats {
        &mut self.link_stats[link.0 as usize][dir.index()] // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
    }

    /// Park a propagating packet in the wire pool, returning its slot.
    fn wire_put(&mut self, pkt: Packet) -> u32 {
        if let Some(i) = self.wire_free.pop() {
            if let Some(slot) = self.wire_pool.get_mut(i as usize) {
                *slot = Some(pkt);
                return i;
            }
        }
        let i = wire_slot_index(self.wire_pool.len());
        self.wire_pool.push(Some(pkt));
        i
    }

    /// Retrieve a propagating packet by slot, vacating it for reuse.
    fn wire_take(&mut self, i: u32) -> Packet {
        let pkt = self
            .wire_pool
            .get_mut(i as usize)
            .and_then(Option::take)
            // simlint: allow(unwrap, reason = "an Arrive event's slot is filled at push and vacated exactly once, here")
            .expect("arrival references a vacant wire slot");
        self.wire_free.push(i);
        pkt
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
    /// transmitters and queues, the wire pool, the capture sink (via
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
            links: self.links.clone(),
            agents,
            agent_node: self.agent_node.clone(),
            node_agent: self.node_agent.clone(),
            events: self.events.clone(),
            now: self.now,
            seed: self.seed,
            agent_rngs: self.agent_rngs.clone(),
            dir_rngs: self.dir_rngs.clone(),
            agent_packet_seq: self.agent_packet_seq.clone(),
            arrive_seq: self.arrive_seq.clone(),
            faults: self.faults.clone(),
            capture_cfg: self.capture_cfg.clone(),
            sink: self.sink.as_deref().map(CaptureSink::clone_sink),
            stats: self.stats,
            link_stats: self.link_stats.clone(),
            in_flight: self.in_flight,
            timer_keys: self.timer_keys.clone(),
            wire_pool: self.wire_pool.clone(),
            wire_free: self.wire_free.clone(),
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
        assert!((link.0 as usize) < self.links.len(), "unknown link");
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
        self.links[link.0 as usize].up
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
    /// for it.
    fn check_conservation(&self) {
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
            (order::CLASS_ARRIVE, Event::Arrive { wire_slot }) => {
                let (link, dir) = order::entity_dir(entity);
                let pkt = self.wire_take(wire_slot);
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
                self.links[link.0 as usize].up = true;
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
                    let state = &mut self.links[link.0 as usize].dirs[dir.index()];
                    let mut old = std::mem::replace(&mut state.queue, cfg.build());
                    let mut lost_bytes: Vec<u32> = Vec::new();
                    loop {
                        let deq = old.dequeue(self.now);
                        let had_any = deq.pkt.is_some() || !deq.dropped.is_empty();
                        lost_bytes.extend(deq.dropped.iter().map(|p| p.wire_size()));
                        if let Some(pkt) = deq.pkt {
                            let size = pkt.wire_size();
                            let state = &mut self.links[link.0 as usize].dirs[dir.index()];
                            let rng = &mut self.dir_rngs[link.0 as usize][dir.index()];
                            if let EnqueueResult::Dropped(_) =
                                state.queue.enqueue(self.now, pkt, rng)
                            {
                                lost_bytes.push(size);
                            }
                        }
                        if !had_any {
                            break;
                        }
                    }
                    for size in lost_bytes {
                        self.stats.packets_dropped += 1;
                        self.in_flight -= 1;
                        self.dir_stats(link, dir).on_drop(size);
                    }
                }
            }
        }
    }

    fn on_link_down(&mut self, link: LinkId) {
        let mut lost_sizes: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        {
            let rt = &mut self.links[link.0 as usize];
            rt.up = false;
            for (state, sizes) in rt.dirs.iter_mut().zip(lost_sizes.iter_mut()) {
                // The packet being serialized is lost on the wire. Bump the
                // epoch so the pending TxDone for the aborted serialization
                // is recognized as stale even if a fresh transmission starts
                // on this direction before it fires.
                if let Some((pkt, _tx_time)) = state.transmitting.take() {
                    state.epoch += 1;
                    sizes.push(pkt.wire_size());
                }
                // Buffered packets are lost with the interface.
                loop {
                    let deq = state.queue.dequeue(self.now);
                    let mut lost = deq.dropped;
                    if let Some(p) = deq.pkt {
                        lost.push(p);
                    }
                    if lost.is_empty() {
                        break;
                    }
                    sizes.extend(lost.iter().map(Packet::wire_size));
                }
            }
        }
        for (dir, sizes) in [Dir::AtoB, Dir::BtoA].into_iter().zip(lost_sizes) {
            for size in sizes {
                self.stats.packets_dropped += 1;
                self.in_flight -= 1;
                self.dir_stats(link, dir).on_drop(size);
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
    }

    fn apply_effects(&mut self, node: NodeId, effects: &mut Vec<Effect>) {
        for eff in effects.drain(..) {
            match eff {
                Effect::Send(pkt) => {
                    self.stats.packets_sent += 1;
                    self.in_flight += 1;
                    self.record(node, CaptureKind::Sent, None, &pkt);
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
    fn handle_packet_at(&mut self, node: NodeId, pkt: Packet) {
        if pkt.dst == node {
            if let Some(agent) = self.node_agent[node.0 as usize] {
                self.stats.packets_delivered += 1;
                self.in_flight -= 1;
                self.record(node, CaptureKind::Delivered, None, &pkt);
                self.dispatch(agent, AgentCall::Packet(pkt));
            } else {
                // Destination host has no stack; treat as unroutable.
                self.stats.packets_unroutable += 1;
                self.in_flight -= 1;
                self.record(node, CaptureKind::Unroutable, None, &pkt);
            }
            return;
        }
        match self.routing.fib(node).route(&pkt) {
            Some(out_link) => {
                self.record(node, CaptureKind::Forwarded, Some(out_link), &pkt);
                self.transmit_or_enqueue(node, out_link, pkt);
            }
            None => {
                self.stats.packets_unroutable += 1;
                self.in_flight -= 1;
                self.record(node, CaptureKind::Unroutable, None, &pkt);
            }
        }
    }

    /// Offer `pkt` to `link`'s transmitter in the direction leaving `from`.
    fn transmit_or_enqueue(&mut self, from: NodeId, link: LinkId, pkt: Packet) {
        let spec = self.topo.link(link);
        let dir = if from == spec.a { Dir::AtoB } else { Dir::BtoA };
        debug_assert!(spec.touches(from), "forwarding onto a detached link");
        let capacity = spec.capacity;
        if !self.links[link.0 as usize].up {
            // Interface down: the packet is lost at this hop.
            self.stats.packets_dropped += 1;
            self.in_flight -= 1;
            self.dir_stats(link, dir).on_drop(pkt.wire_size());
            if self.capture_cfg.wants(from, CaptureKind::Dropped) {
                self.record_meta(from, CaptureKind::Dropped, Some(link), pkt.meta());
            }
            return;
        }
        let state = &mut self.links[link.0 as usize].dirs[dir.index()];

        if !state.is_busy() {
            let tx_time = capacity.tx_time(pkt.wire_size() as u64);
            let epoch = state.epoch;
            state.transmitting = Some((pkt, tx_time));
            self.push_tx_done(link, dir, epoch, self.now + tx_time);
        } else {
            let meta = pkt.meta();
            let rng = &mut self.dir_rngs[link.0 as usize][dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
            match state.queue.enqueue(self.now, pkt, rng) {
                EnqueueResult::Queued => {
                    let (p, b) = (state.queue.len_packets(), state.queue.len_bytes());
                    self.dir_stats(link, dir).observe_queue(p, b);
                }
                EnqueueResult::Dropped(_) => {
                    self.stats.packets_dropped += 1;
                    self.in_flight -= 1;
                    self.dir_stats(link, dir).on_drop(meta.wire_size);
                    if self.capture_cfg.wants(from, CaptureKind::Dropped) {
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
        let state = &mut self.links[link.0 as usize].dirs[dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
                                                                        // A link-down event may have aborted the serialization this event
                                                                        // belongs to: the abort bumped the direction's epoch, so a stale
                                                                        // event (old epoch, or no transmission at all) is ignored.
        if epoch != state.epoch {
            return;
        }
        let Some((pkt, tx_time)) = state.transmitting.take() else {
            return;
        };
        // `tx_time` was fixed when the serialization started; a capacity
        // fault mid-transmission does not retroactively change it.
        self.dir_stats(link, dir).on_tx(pkt.wire_size(), tx_time);
        let rng = &mut self.dir_rngs[link.0 as usize][dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
                                                                    // Wireless-style random corruption loss (after serialization).
        let corrupted = loss_rate > 0.0 && rng.chance(loss_rate);
        let jitter = if self.forward_jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(rng.next_below(self.forward_jitter.as_nanos() + 1))
        };
        if corrupted {
            self.stats.packets_dropped += 1;
            self.in_flight -= 1;
            self.dir_stats(link, dir).on_drop(pkt.wire_size());
        } else {
            let seq = &mut self.arrive_seq[link.0 as usize][dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
            let key = order::pack(order::CLASS_ARRIVE, order::dir_entity(link, dir), *seq);
            *seq += 1;
            let wire_slot = self.wire_put(pkt);
            self.events
                .push_keyed(self.now + delay + jitter, key, Event::Arrive { wire_slot });
        }

        // Start the next packet, if any (the AQM may head-drop on the way).
        let state = &mut self.links[link.0 as usize].dirs[dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
        let deq = state.queue.dequeue(self.now);
        for dropped in deq.dropped {
            self.stats.packets_dropped += 1;
            self.in_flight -= 1;
            self.dir_stats(link, dir).on_drop(dropped.wire_size());
        }
        if let Some(next) = deq.pkt {
            let tx_time = capacity.tx_time(next.wire_size() as u64);
            let state = &mut self.links[link.0 as usize].dirs[dir.index()]; // simlint: allow(panic-surface, reason = "LinkId is topology-issued and every per-link table holds exactly two directions")
            let epoch = state.epoch;
            state.transmitting = Some((next, tx_time));
            self.push_tx_done(link, dir, epoch, self.now + tx_time);
        }
    }

    fn record(&mut self, node: NodeId, kind: CaptureKind, link: Option<LinkId>, pkt: &Packet) {
        if self.capture_cfg.wants(node, kind) {
            self.record_meta(node, kind, link, pkt.meta());
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
pub const SNAPSHOT_VERSION: u32 = 3;

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

/// The wire-pool slot index for a pool currently `len` entries long.
/// Overflowing `u32` would alias two live slots and silently cross-deliver
/// packets, so it is a hard error, not a saturation.
fn wire_slot_index(len: usize) -> u32 {
    // simlint: allow(unwrap, reason = "aliasing wire slots corrupts the run; fail loudly at the 2^32 boundary")
    u32::try_from(len).expect("wire pool exceeded u32::MAX slots")
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
mod wire_pool_tests {
    use super::wire_slot_index;

    #[test]
    fn slot_index_is_exact_below_the_boundary() {
        assert_eq!(wire_slot_index(0), 0);
        assert_eq!(wire_slot_index(123), 123);
        assert_eq!(wire_slot_index(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "wire pool exceeded u32::MAX slots")]
    fn slot_index_overflow_is_a_hard_error() {
        let _ = wire_slot_index(u32::MAX as usize + 1);
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

    #[test]
    #[should_panic(expected = "snapshot version mismatch")]
    fn v1_tagged_snapshot_is_refused() {
        let mut snap = cbr_sim().checkpoint();
        snap.version = 1;
        let _ = Simulator::restore(&snap);
    }
}
