//! The discrete-event simulator.
//!
//! [`Simulator`] owns the topology, routing tables, one runtime record per
//! link direction (transmitter, queue, counters), the directions' RNG
//! streams (derived at the first draw), the slab every in-network packet
//! lives in — queued ones linked into their queue's FIFO — registered
//! agents, statistics, and the event queue. One event loop iteration pops
//! the earliest event and reads what it is from the class of its canonical
//! key (see [`order`]):
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
//!
//! # Queue entries that stand for no decision
//!
//! The model's events are the ones above; the queue holds fewer of them.
//!
//! * A transmission that starts on an idle drop-tail direction of a lossless
//!   link *completes at its start*: such a direction's RNG stream draws only
//!   forwarding jitter, once per transmission in transmission order, so the
//!   jitter is drawn and the Arrive pushed (same key, same time) when the
//!   packet starts. Its TxDone would only have found an empty queue, so
//!   none is queued unless a packet queues behind it (or a link-down aborts
//!   it): the transmitter still counts as busy until the completion instant,
//!   in the canonical order (a fault or start at that instant sees it busy).
//!   Whether a transmission completes at its start depends on it alone, not
//!   on where a run stops. Its accounting does: the elided TxDone is counted
//!   in `stats.events` and `netsim.tx_done_elided` and its `on_tx` applied
//!   by the first run whose deadline reaches the completion —
//!   at once when that is the run that starts it. Until then the counters
//!   read as if its TxDone had been queued at its start (one push for the
//!   entries it holds, no elided TxDone, no `on_tx`), so a run stopped at
//!   any deadline and resumed reads what a run straight to the end reads.
//!   A link-down at or before the instant revokes the queued Arrive, takes
//!   the completion back out of the accounting, queues the TxDone (stale,
//!   still counted) and carries the drawn jitter to the direction's next
//!   completion; a delay fault queues the Arrive again with the new delay.
//!   RED draws at enqueue, RED and CoDel act on an empty dequeue and a lossy
//!   link draws for corruption, so those directions queue every TxDone.
//! * A timer re-armed to a later deadline, or cancelled, keeps its one queue
//!   entry. When the entry pops early it is pushed again at the current
//!   deadline under the same key, or dropped if the timer was cancelled;
//!   such a pop is no event and does not move the clock. Only a re-arm to
//!   before the queued entry cancels it and queues the new deadline.
//!
//! [`Simulator::events_scheduled`] / [`Simulator::events_cancelled`] count
//! the model's schedule; [`SimCounters`]' `queue.*` count the queue's work.

use crate::agent::{Agent, AgentId, Ctx, Effect};
use crate::capture::{BufferSink, CaptureConfig, CaptureKind, CaptureRecord, CaptureSink};
use crate::faults::{FaultAction, FaultSchedule};
use crate::packet::{Dir, LinkId, NodeId, Packet, PacketMeta};
use crate::queue::{EnqueueResult, Queue};
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
/// indices never repeat (an Arrive a fault moves is pushed again under the
/// next counter value, which keeps its order among the direction's other
/// arrivals); an `(agent, token)` timer has one live entry — a re-arm to a
/// later deadline or a cancel keeps it, a re-arm to an earlier one cancels
/// it first, and an early pop pushes it again only after it left the
/// queue; and a direction serializes at most one packet at a time
/// (serialization takes ≥ 1 ns, so equal-time TxDones on one direction
/// cannot both be live: one that completed at its start gets its TxDone
/// queued at most once, by the first packet queued behind it or by the
/// link-down that aborts it).
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
        #[expect(
            clippy::cast_possible_truncation,
            reason = "entity < 2^25 by pack's assert"
        )]
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
        #[expect(
            clippy::cast_possible_truncation,
            reason = "entity < 2^25 by pack's assert, so entity / 2 fits a u32 LinkId"
        )]
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

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter Event fails the build, not a run"
)]
const _: () = assert!(EventQueue::<Event>::ENTRY_BYTES == 32);

/// Everything a hop reads or writes about one direction of a link, in one
/// record (`Simulator::dirs`, indexed by [`order::dir_entity`] — the entity
/// field of the direction's `TxDone` and `Arrive` keys). The link's *spec*
/// (endpoints, capacity, delay, loss rate, queue config) stays in the
/// [`Topology`], so a fault has one place to change it; the queued packets
/// stay in the slab, linked from `queue`; the RNG stream is in
/// `Simulator::streams`, derived only once something draws.
#[derive(Clone)]
struct DirState {
    /// The packet being serialized, if any (its wire size is read from the
    /// slab). For an early transmission (see `tx_early`), kept until its
    /// completion instant has passed: until then the transmitter is busy.
    tx: Option<PacketHandle>,
    /// Forwarding jitter drawn ahead of a completion, in ns: the early
    /// transmission's own, or — while `jitter_carried` — the draw of an
    /// early transmission a link-down aborted, which the direction's next
    /// completion takes instead of drawing (the stream draws as if the
    /// aborted one never had).
    jitter_ns: u32,
    /// Incremented whenever a serialization is aborted; pending `TxDone`
    /// events from before the abort carry the old epoch and are ignored.
    epoch: u32,
    /// Serialization time of `tx`, fixed when it started: a capacity fault
    /// mid-flight must not retroactively change this packet's accounting.
    tx_time: SimDuration,
    /// When `tx` completes.
    tx_done: SimTime,
    /// Administrative state of the link (both of its directions agree);
    /// packets offered to a down link are dropped.
    up: bool,
    /// `tx` completed at its start: its Arrive is queued, and a TxDone is
    /// queued only once a packet waits behind it (then the queue is
    /// non-empty) or a link-down aborts it.
    tx_early: bool,
    jitter_carried: bool,
    /// `tx` is early and completes past the deadline of the run that
    /// started it: its completion is not accounted yet (it is listed in
    /// `Simulator::owed`).
    tx_owed: bool,
    /// Output queue behind the transmitter.
    queue: Queue,
    /// Arrivals scheduled so far — the `local` part of each `Arrive`
    /// event's canonical key.
    arrive_seq: u64,
    stats: LinkDirStats,
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter per-direction record fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<DirState>() <= 96);

impl DirState {
    fn new(queue: Queue) -> Self {
        DirState {
            tx: None,
            jitter_ns: 0,
            epoch: 0,
            tx_time: SimDuration::ZERO,
            tx_done: SimTime::ZERO,
            up: true,
            tx_early: false,
            jitter_carried: false,
            tx_owed: false,
            queue,
            arrive_seq: 0,
            stats: LinkDirStats::default(),
        }
    }
}

/// The link directions' RNG streams (RED draws, corruption loss, forwarding
/// jitter), indexed like `Simulator::dirs`. The table is derived whole at
/// the first draw: a stream is a function of the run's seed and its
/// direction only, so one derived late is the one derived at construction.
/// A drop-tail, lossless, jitter-free world never derives it; a world that
/// draws jitter at every hop derives it at its first hop.
#[derive(Clone)]
struct DirStreams {
    seed: u64,
    dirs: usize,
    table: Vec<Xoshiro256StarStar>,
}

impl DirStreams {
    /// Direction `i`'s stream, deriving the table if nothing drew before.
    fn get(&mut self, i: usize) -> &mut Xoshiro256StarStar {
        if self.table.is_empty() {
            let seed = self.seed;
            self.table = (0..self.dirs as u64)
                .map(|e| Xoshiro256StarStar::new(SplitMix64::derive(seed, STREAM_DIR | e)))
                .collect();
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "i is the dir_index of a topology-issued LinkId, and the table holds one stream per direction"
        )]
        &mut self.table[i]
    }
}

/// One `(agent, token)` timer and its one queue entry.
#[derive(Clone, Copy)]
struct TimerSlot {
    /// The agent's token, with [`TimerSlot::CANCELLED`] set once the timer
    /// is cancelled.
    token: u64,
    /// The armed deadline (the last one, once cancelled).
    deadline: SimTime,
    /// Time of the queue entry: at or before `deadline`. A re-arm to a
    /// later time leaves the entry where it is; when it pops early it is
    /// pushed again at `deadline`.
    queued: SimTime,
    /// The entry's cancellation token, for a re-arm to before `queued`.
    cancel: u64,
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter timer slot fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<TimerSlot>() == 32);

impl TimerSlot {
    /// Free in every token: `order::pack` refuses tokens from 2^36 on.
    const CANCELLED: u64 = 1 << 63;

    fn is(&self, token: u64) -> bool {
        self.token & !Self::CANCELLED == token
    }

    fn cancelled(&self) -> bool {
        self.token & Self::CANCELLED != 0
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
///
/// `Clone` is a deep copy that evolves on its own (see
/// [`Simulator::checkpoint`]).
#[derive(Clone)]
pub struct Simulator {
    topo: Topology,
    routing: RoutingTables,
    /// One record per link direction, indexed by [`dir_index`].
    dirs: Vec<DirState>,
    /// One RNG stream per link direction, derived at the first draw.
    streams: DirStreams,
    /// Directions whose early transmission completes past the deadline of
    /// the run that started it (`DirState::tx_owed`), in no order: each run
    /// accounts the completions its deadline reaches. Almost always empty.
    owed: Vec<u32>,
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
    faults: Vec<Option<FaultAction>>,
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
    /// Timers per agent whose queue entry has not popped yet, linear-scanned
    /// (an agent arms a handful of timers at most). Arming an already-armed
    /// `(agent, token)` replaces its deadline (a stale deadline can never
    /// fire). A table left empty gives its allocation back: an agent with
    /// nothing armed or queued (a finished connection) keeps nothing here.
    timer_keys: Vec<Vec<TimerSlot>>,
    /// Keys of queued Arrives a fault revoked (an aborted or re-delayed
    /// early transmission's); almost always empty.
    revoked: Vec<u64>,
    /// The deadline of the run in progress: an early transmission that
    /// completes by then is accounted at its start, a later one is owed.
    horizon: SimTime,
    /// Class of the event being executed: orders an offer at a completion
    /// instant against the TxDone it stands in for.
    class: u64,
    /// The model's pushes: every event the schedule holds, whether or not
    /// it took a queue entry (see [`Simulator::events_scheduled`]).
    scheduled: u64,
    /// TxDones counted in `stats.events` that never took a queue entry.
    tx_done_elided: u64,
    /// Queue pops that were no event: a timer entry popped before its
    /// deadline or after its cancel, or an Arrive a fault revoked.
    timer_moves: u64,
    /// Recycled effect buffers (one per live dispatch depth); dispatching
    /// an agent in steady state allocates nothing. Empty between events,
    /// so a clone copies none of their capacity.
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
        let dirs: Vec<DirState> = topo
            .link_ids()
            .flat_map(|l| {
                let queue = topo.link(l).queue.build();
                [DirState::new(queue.clone()), DirState::new(queue)]
            })
            .collect();
        let node_agent = vec![None; topo.node_count()];
        Simulator {
            topo,
            routing,
            streams: DirStreams {
                seed,
                dirs: dirs.len(),
                table: Vec::new(),
            },
            owed: Vec::new(),
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
            revoked: Vec::new(),
            horizon: SimTime::ZERO,
            class: order::CLASS_FAULT,
            scheduled: 0,
            tx_done_elided: 0,
            timer_moves: 0,
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

    /// Add up to `jitter` of uniform random delay to every packet's
    /// propagation leg. Models the OS-scheduling noise of a software
    /// testbed (the paper's Mininet); breaks drop-phase synchronisation
    /// between flows and makes distinct seeds produce distinct runs.
    ///
    /// Set it before the run (a direction may hold a draw made ahead of its
    /// completion), below `u32::MAX` ns.
    pub fn set_forward_jitter(&mut self, jitter: SimDuration) {
        #[expect(
            clippy::disallowed_macros,
            reason = "a set-up error, refused before any packet is sent"
        )]
        {
            assert!(
                jitter.as_nanos() < u64::from(u32::MAX),
                "forward jitter {jitter} exceeds u32::MAX ns"
            );
        }
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
        self.scheduled += 1;
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
        #[expect(
            clippy::indexing_slicing,
            reason = "LinkId is topology-issued and dirs holds two records per topology link"
        )]
        &self.dirs[dir_index(link, dir)].stats
    }

    /// The work counters of this run so far (see [`SimCounters`]).
    pub fn counters(&self) -> SimCounters {
        // An owed transmission with a packet behind it holds its Arrive and
        // its TxDone; until a run reaches its completion it counts as the
        // one TxDone it would have queued at its start (see the module docs).
        let owed_pairs = self
            .owed
            .iter()
            .filter(|&&i| {
                self.dirs
                    .get(i as usize)
                    .is_some_and(|d| !d.queue.is_empty())
            })
            .count() as u64;
        let mut counters = SimCounters {
            queue_pushes: self.events.total_pushed() + self.events.total_cancelled() - owed_pairs,
            queue_pops: self.events.total_popped(),
            queue_cancels: self.events.total_cancelled(),
            queue_cascaded: self.events.total_cascaded(),
            queue_pool_chunks: self.events.pool_chunks() as u64,
            tx_done_elided: self.tx_done_elided,
            timer_moves: self.timer_moves,
            hops: self.hops,
            link_enqueues: self.link_enqueues,
            link_drops: self.stats.packets_dropped,
            slab_high_water: self.slab.high_water(),
            on_start: self.starts,
            on_timer: self.stats.timers_fired,
            on_packet: self.stats.packets_delivered,
            route_sets: self.routing.route_sets() as u64,
            untagged_routes: self.routing.untagged_routes() as u64,
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
    fn drop_at(&mut self, i: usize, lost: PacketHandle) -> Packet {
        self.stats.packets_dropped += 1;
        self.in_flight -= 1;
        #[expect(
            clippy::indexing_slicing,
            reason = "i is dir_index of a topology-issued LinkId, or an event key's entity built from one"
        )]
        self.dirs[i].stats.on_drop();
        self.slab.take(lost)
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

    /// Events the model scheduled over the run and did not cancel (the live
    /// share): every start, fault, TxDone, Arrive and timer deadline, whether
    /// or not it took a queue entry of its own (see the module docs).
    pub fn events_scheduled(&self) -> u64 {
        self.scheduled - self.stats.timers_cancelled
    }

    /// Timer deadlines the model cancelled before they fired: superseded by
    /// a re-arm or revoked. Such a deadline never runs, whether or not its
    /// queue entry is still waiting to be dropped.
    pub fn events_cancelled(&self) -> u64 {
        self.stats.timers_cancelled
    }

    /// Borrow an agent back out of the simulator (after a run) to inspect
    /// endpoint state. Panics if the id is stale.
    pub fn agent(&self, id: AgentId) -> &dyn Agent {
        #[expect(
            clippy::expect_used,
            reason = "documented API contract: stale AgentId is a caller bug"
        )]
        self.agents[id.0 as usize]
            .as_deref()
            .expect("agent is being dispatched")
    }

    /// Freeze this simulator's complete deterministic state as a
    /// [`SimSnapshot`] that [`Simulator::restore`] can branch from.
    ///
    /// The snapshot is the simulator's `Clone`, a deep copy: the event
    /// queue (pending entries, cancellation-token table, and lifetime
    /// push/cancel counters), every agent and the capture sink (each by
    /// its own `Clone`), per-entity RNG streams, link transmitters and
    /// queues with the packet slab their handles point into, and all
    /// statistics. Because the execution is a pure function of that state
    /// (see the module docs on schedule-independent ordering), a restored
    /// simulator replays the identical event sequence — trace hashes of a
    /// branched continuation match a cold run byte-for-byte.
    pub fn checkpoint(&self) -> SimSnapshot {
        // Between events every slot is occupied; a vacant slot means we are
        // inside a dispatch, where the dispatched agent would be lost.
        #[expect(
            clippy::disallowed_macros,
            reason = "a checkpoint mid-dispatch would lose the dispatched agent; fail loudly"
        )]
        {
            assert!(
                self.agents.iter().all(Option::is_some),
                "checkpoint during agent dispatch"
            );
        }
        SimSnapshot(self.clone())
    }

    /// Reconstruct an independent simulator from a snapshot. The snapshot
    /// is reusable: each call yields a fresh branch that evolves on its
    /// own (schedule different faults on each and compare).
    pub fn restore(snapshot: &SimSnapshot) -> Simulator {
        snapshot.0.clone()
    }

    /// Schedule one fault action. Validated eagerly so a bad schedule fails
    /// at install time, not minutes into a run.
    pub fn schedule_fault(&mut self, at: SimTime, action: FaultAction) {
        let link = action.link();
        assert!((link.0 as usize) < self.topo.link_count(), "unknown link");
        if let FaultAction::SetCapacity(_, cap) = action {
            assert!(cap.as_bps() > 0, "zero-capacity fault");
        }
        let key = order::pack(order::CLASS_FAULT, 0, self.faults.len() as u64);
        self.faults.push(Some(action));
        self.scheduled += 1;
        self.events.push_keyed(at, key, Event::Keyed);
    }

    /// Install every entry of a [`FaultSchedule`] as simulator events.
    /// Entries interleave with packet events under the canonical
    /// `(time, key)` order of the event queue — faults apply before any
    /// packet event at the same instant, in install order — so a faulted
    /// run is a pure function of (topology, agents, schedule, seed).
    pub fn install_faults(&mut self, schedule: &FaultSchedule) {
        for (at, action) in schedule.entries() {
            self.schedule_fault(*at, *action);
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
        self.run(deadline);
        self.now = self.now.max(deadline);
        self.check_conservation();
    }

    /// Run until no events remain (terminating workloads only).
    pub fn run_to_completion(&mut self) {
        self.run(SimTime::MAX);
        self.check_conservation();
    }

    /// Execute every event due at or before `deadline`.
    fn run(&mut self, deadline: SimTime) {
        self.settle(deadline);
        while let Some(ev) = self.events.pop_at_or_before(deadline) {
            self.execute(ev);
        }
    }

    /// Start a run to `deadline`: account every owed completion it reaches,
    /// as its start would have if the run that started it had reached it.
    fn settle(&mut self, deadline: SimTime) {
        self.horizon = deadline;
        let mut k = 0;
        while let Some(&i) = self.owed.get(k) {
            let i = i as usize;
            if self.dirs.get(i).is_some_and(|d| d.tx_done <= deadline) {
                self.owed.swap_remove(k);
                self.account_early(i);
            } else {
                k += 1;
            }
        }
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

    /// Execute one popped queue entry. Returns false for an entry that was
    /// no event — a timer entry popped before its deadline or after its
    /// cancel, or a revoked Arrive — which neither counts nor moves the clock.
    fn execute(&mut self, ev: ScheduledEvent<Event>) -> bool {
        let (class, entity, local) = order::unpack(ev.seq);
        let stale = match class {
            order::CLASS_TIMER => !self.timer_due(order::entity_agent(entity), local, ev.time),
            order::CLASS_ARRIVE => !self.revoked.is_empty() && self.take_revoked(ev.seq),
            _ => false,
        };
        if stale {
            self.timer_moves += 1;
            return false;
        }
        // Event-time monotonicity: a hard assert in every build (a backwards
        // clock silently corrupts every downstream series).
        assert!(
            ev.time >= self.now,
            "time went backwards: event at {} < now {}",
            ev.time,
            self.now
        );
        self.now = ev.time;
        self.class = class;
        self.stats.events += 1;
        match (class, ev.event) {
            (order::CLASS_START, Event::Keyed) => {
                self.starts += 1;
                self.dispatch(order::entity_agent(entity), AgentCall::Start);
            }
            (order::CLASS_TIMER, Event::Keyed) => {
                self.stats.timers_fired += 1;
                self.dispatch(order::entity_agent(entity), AgentCall::Timer(local));
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
                #[expect(
                    clippy::expect_used,
                    reason = "a fault key's index is the table slot schedule_fault filled; it fires once"
                )]
                let action = usize::try_from(local)
                    .ok()
                    .and_then(|i| self.faults.get_mut(i)?.take())
                    .expect("fault event without a scheduled action");
                self.apply_fault(action);
            }
            #[expect(
                clippy::unreachable,
                reason = "every push site pairs its key class with its payload; a mismatch is a corrupted queue and must not run on"
            )]
            (class, event) => unreachable!("event {event:?} under key class {class}"),
        }
        true
    }

    /// The queue entry of `agent`'s timer `token` popped at `at`. True if
    /// the timer is due: its slot retires and it fires. Otherwise the entry
    /// is pushed again at the re-armed deadline, or dropped with its slot if
    /// the timer was cancelled.
    fn timer_due(&mut self, agent: AgentId, token: u64, at: SimTime) -> bool {
        let Some(keys) = self.timer_keys.get_mut(agent.0 as usize) else {
            return false;
        };
        let Some((i, slot)) = keys.iter_mut().enumerate().find(|(_, slot)| slot.is(token)) else {
            return false;
        };
        // At most one slot per token, retired here when its entry pops: a
        // dispatch gives an emptied table back, so does a dropped entry.
        if slot.cancelled() {
            keys.swap_remove(i);
            if keys.is_empty() {
                *keys = Vec::new();
            }
            return false;
        }
        if slot.deadline > at {
            let key = order::pack(order::CLASS_TIMER, agent.0 as u64, token);
            slot.cancel = self
                .events
                .push_keyed_cancellable(slot.deadline, key, Event::Keyed);
            slot.queued = slot.deadline;
            return false;
        }
        keys.swap_remove(i);
        true
    }

    /// Take `key` out of the revoked Arrives, if a fault put it there.
    fn take_revoked(&mut self, key: u64) -> bool {
        let Some(i) = self.revoked.iter().position(|&k| k == key) else {
            return false;
        };
        self.revoked.swap_remove(i);
        true
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
                let old = self.topo.link(link).delay;
                self.topo.set_link_delay(link, delay);
                // An early transmission still serializing has its Arrive
                // queued with the old delay, where its TxDone would read the
                // new one: revoke it and queue it again.
                for dir in [Dir::AtoB, Dir::BtoA] {
                    let i = dir_index(link, dir);
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "LinkId is topology-issued and dirs holds two records per topology link"
                    )]
                    let state = &self.dirs[i];
                    match state.tx {
                        Some(h) if delay != old && state.tx_early && !self.idle(i) => {
                            let jitter = SimDuration::from_nanos(u64::from(state.jitter_ns));
                            let at = state.tx_done + delay + jitter;
                            self.revoke_arrive(i);
                            self.push_arrive(i, h, at);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    fn on_link_down(&mut self, link: LinkId) {
        for dir in [Dir::AtoB, Dir::BtoA] {
            let i = dir_index(link, dir);
            // The packet being serialized is lost on the wire.
            if !self.idle(i) {
                self.abort_tx(i);
            }
            let state = &mut self.dirs[i];
            state.up = false;
            // What is left is an early transmission that already completed.
            state.tx = None;
            // Buffered packets are lost with the interface.
            loop {
                let deq = self.dirs[i].queue.dequeue(self.now, &self.slab);
                let mut lost = deq.dropped;
                lost.extend(deq.pkt);
                if lost.is_empty() {
                    break;
                }
                for h in lost {
                    self.drop_at(i, h);
                }
            }
        }
    }

    /// Lose direction `i`'s serializing packet. Bump the epoch so the
    /// pending TxDone for the aborted serialization is recognized as stale
    /// even if a fresh transmission starts on this direction before it
    /// fires: it still runs (and counts) at its instant, and is ignored
    /// (see `on_tx_done`). An early transmission is undone: its Arrive is
    /// revoked, its `on_tx` and Arrive leave the accounting (an owed one
    /// never entered it), its jitter draw is carried to the next
    /// completion, and its TxDone is queued (unless a packet behind it
    /// already queued it).
    fn abort_tx(&mut self, i: usize) {
        #[expect(
            clippy::indexing_slicing,
            reason = "i is dir_index of a topology-issued LinkId"
        )]
        let state = &mut self.dirs[i];
        let Some(h) = state.tx.take() else {
            return;
        };
        if state.tx_early {
            state.jitter_carried = !self.forward_jitter.is_zero();
            if !state.tx_owed {
                state.stats.tx_packets -= 1;
                state.stats.tx_bytes -= u64::from(self.slab.wire_size(h));
                state.stats.busy_time -= state.tx_time;
                self.scheduled -= 1;
            }
            if state.queue.is_empty() {
                self.queue_late_tx_done(i);
            }
            self.forgive(i);
            self.revoke_arrive(i);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "i is dir_index of a topology-issued LinkId"
        )]
        {
            self.dirs[i].epoch += 1;
        }
        self.drop_at(i, h);
    }

    /// Strike direction `i`'s transmission off the owed list, if it is on it.
    fn forgive(&mut self, i: usize) {
        #[expect(
            clippy::indexing_slicing,
            reason = "i is dir_index of a topology-issued LinkId"
        )]
        let state = &mut self.dirs[i];
        if std::mem::take(&mut state.tx_owed) {
            if let Some(k) = self.owed.iter().position(|&o| o as usize == i) {
                self.owed.swap_remove(k);
            }
        }
    }

    /// Revoke the queued Arrive of direction `i`'s early transmission: the
    /// direction's latest.
    fn revoke_arrive(&mut self, i: usize) {
        #[expect(
            clippy::indexing_slicing,
            reason = "i is dir_index of a topology-issued LinkId"
        )]
        let seq = self.dirs[i].arrive_seq - 1;
        self.revoked
            .push(order::pack(order::CLASS_ARRIVE, i as u64, seq));
    }

    // ---- internals ----

    fn dispatch(&mut self, id: AgentId, call: AgentCall) {
        #[expect(
            clippy::expect_used,
            reason = "slot is only vacated inside this non-reentrant fn"
        )]
        let mut agent = self.agents[id.0 as usize]
            .take()
            .expect("re-entrant agent dispatch");
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
        // Timers fire and re-arm only around a dispatch of their agent, so
        // besides a dropped entry (`timer_due`) this is the one place its
        // table can have become empty.
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
                    #[expect(
                        clippy::expect_used,
                        reason = "effects originate from an agent installed at this node"
                    )]
                    let agent = self.node_agent[node.0 as usize].expect("timer from unknown agent");
                    // `order::pack` rejects tokens over 2^36; agents use
                    // small enumerations plus per-subflow offsets well
                    // below that.
                    let key = order::pack(order::CLASS_TIMER, agent.0 as u64, token);
                    self.scheduled += 1;
                    let Some(keys) = self.timer_keys.get_mut(agent.0 as usize) else {
                        continue;
                    };
                    match keys.iter_mut().find(|slot| slot.is(token)) {
                        Some(slot) => {
                            // Re-arming replaces: the superseded deadline
                            // can never fire. A later one keeps the queue
                            // entry, which moves when it pops early.
                            if !slot.cancelled() {
                                self.stats.timers_cancelled += 1;
                            }
                            if at < slot.queued {
                                self.events.cancel(slot.cancel);
                                slot.cancel =
                                    self.events.push_keyed_cancellable(at, key, Event::Keyed);
                                slot.queued = at;
                            }
                            slot.token = token;
                            slot.deadline = at;
                        }
                        None => {
                            let cancel = self.events.push_keyed_cancellable(at, key, Event::Keyed);
                            keys.push(TimerSlot {
                                token,
                                deadline: at,
                                queued: at,
                                cancel,
                            });
                        }
                    }
                }
                Effect::CancelTimer { token } => {
                    #[expect(
                        clippy::expect_used,
                        reason = "effects originate from an agent installed at this node"
                    )]
                    let agent = self.node_agent[node.0 as usize].expect("timer from unknown agent");
                    // The entry stays queued and is dropped when it pops.
                    let slot = self.timer_keys.get_mut(agent.0 as usize).and_then(|keys| {
                        keys.iter_mut()
                            .find(|slot| slot.is(token) && !slot.cancelled())
                    });
                    if let Some(slot) = slot {
                        slot.token |= TimerSlot::CANCELLED;
                        self.stats.timers_cancelled += 1;
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

    /// Is direction `i`'s transmitter free? An early transmission holds it
    /// until its completion instant has passed in the canonical order: at
    /// the instant itself it follows faults and starts and precedes
    /// arrivals and timers.
    fn idle(&self, i: usize) -> bool {
        #[expect(
            clippy::indexing_slicing,
            reason = "i is dir_index of a topology-issued LinkId, or an event key's entity built from one"
        )]
        let state = &self.dirs[i];
        let done = state.tx_done;
        let passed = done < self.now || (done == self.now && self.class > order::CLASS_TX_DONE);
        state.tx.is_none() || (state.tx_early && passed)
    }

    /// Offer the packet to `link`'s transmitter in the direction leaving
    /// `from`.
    fn transmit_or_enqueue(&mut self, from: NodeId, link: LinkId, h: PacketHandle) {
        let spec = self.topo.link(link);
        let dir = if from == spec.a { Dir::AtoB } else { Dir::BtoA };
        debug_assert!(spec.touches(from), "forwarding onto a detached link");
        let i = dir_index(link, dir);
        let idle = self.idle(i);
        #[expect(
            clippy::indexing_slicing,
            reason = "LinkId is topology-issued and dirs holds two records per topology link"
        )]
        let state = &mut self.dirs[i];
        if !state.up {
            // Interface down: the packet is lost at this hop.
            let lost = self.drop_at(i, h);
            if self.capture_cfg.wants(from, CaptureKind::Dropped) {
                self.record_meta(from, CaptureKind::Dropped, Some(link), lost.meta());
            }
            return;
        }

        if idle {
            self.start_tx(link, dir, h);
        } else {
            // As offered: an AQM that marks a packet it then refuses must
            // not change what the drop record says was offered.
            let offered = self
                .capture_cfg
                .wants(from, CaptureKind::Dropped)
                .then(|| self.slab.get(h).meta());
            let streams = &mut self.streams;
            match state.queue.enqueue(self.now, h, &mut self.slab, &mut |p| {
                streams.get(i).chance(p)
            }) {
                EnqueueResult::Queued => {
                    self.link_enqueues += 1;
                    let p = state.queue.len_packets();
                    state.stats.observe_queue(p);
                    // The first packet behind an early transmission needs
                    // the TxDone that will start it.
                    if state.tx_early && p == 1 {
                        self.queue_late_tx_done(i);
                    }
                }
                EnqueueResult::Dropped(_) => {
                    self.drop_at(i, h);
                    if let Some(meta) = offered {
                        self.record_meta(from, CaptureKind::Dropped, Some(link), meta);
                    }
                }
            }
        }
    }

    /// Start serializing the packet `h` on `link`'s `dir`, now. On an idle
    /// drop-tail direction of a lossless link it completes at its start
    /// (see the module docs): the jitter is drawn and the Arrive pushed as
    /// its TxDone would have, and the completion is accounted now if it
    /// lies by the run's deadline, or owed to the run that reaches it.
    /// Otherwise its TxDone is queued.
    fn start_tx(&mut self, link: LinkId, dir: Dir, h: PacketHandle) {
        let spec = self.topo.link(link);
        let (delay, lossy) = (spec.delay, spec.loss_rate > 0.0);
        let tx_time = spec.capacity.tx_time(u64::from(self.slab.wire_size(h)));
        let done = self.now + tx_time;
        let i = dir_index(link, dir);
        #[expect(
            clippy::indexing_slicing,
            reason = "LinkId is topology-issued and dirs holds two records per topology link"
        )]
        let state = &mut self.dirs[i];
        state.tx = Some(h);
        state.tx_time = tx_time;
        state.tx_done = done;
        state.tx_early =
            !lossy && matches!(state.queue, Queue::DropTail(_)) && state.queue.is_empty();
        self.scheduled += 1;
        if !state.tx_early {
            let epoch = state.epoch;
            self.push_tx_done(i, epoch, done);
            return;
        }
        let jitter = self.draw_jitter(i);
        #[expect(
            clippy::indexing_slicing,
            reason = "LinkId is topology-issued and dirs holds two records per topology link"
        )]
        let state = &mut self.dirs[i];
        state.jitter_ns = jitter;
        if done <= self.horizon {
            self.account_early(i);
        } else {
            state.tx_owed = true;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "i < 2^25 by order::pack's entity budget"
            )]
            self.owed.push(i as u32);
        }
        let at = done + delay + SimDuration::from_nanos(u64::from(jitter));
        self.push_arrive(i, h, at);
    }

    /// Account direction `i`'s early transmission as completed: its
    /// `on_tx`, its Arrive in the model's schedule and — unless a packet
    /// behind it queued its TxDone, which runs as an event — its TxDone as
    /// an elided event.
    fn account_early(&mut self, i: usize) {
        #[expect(
            clippy::indexing_slicing,
            reason = "i is dir_index of a topology-issued LinkId"
        )]
        let state = &mut self.dirs[i];
        let Some(h) = state.tx else {
            return;
        };
        state.tx_owed = false;
        state.stats.on_tx(self.slab.wire_size(h), state.tx_time);
        self.scheduled += 1;
        if state.queue.is_empty() {
            self.stats.events += 1;
            self.tx_done_elided += 1;
        }
    }

    /// Queue the TxDone of direction `i`'s early transmission after all: a
    /// packet waits behind it, or a link-down aborts it. It counts in
    /// `stats.events` when it pops, no longer as elided (an owed one was
    /// never counted so).
    fn queue_late_tx_done(&mut self, i: usize) {
        #[expect(
            clippy::indexing_slicing,
            reason = "i is dir_index of a topology-issued LinkId"
        )]
        let state = &self.dirs[i];
        let (epoch, done) = (state.epoch, state.tx_done);
        if !state.tx_owed {
            self.stats.events -= 1;
            self.tx_done_elided -= 1;
        }
        self.push_tx_done(i, epoch, done);
    }

    /// The next forwarding jitter of direction `i`, in ns: a draw carried
    /// over from an aborted early transmission, or a fresh one.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the draw is at most forward_jitter, which set_forward_jitter keeps below u32::MAX ns"
    )]
    fn draw_jitter(&mut self, i: usize) -> u32 {
        #[expect(
            clippy::indexing_slicing,
            reason = "i is dir_index of a topology-issued LinkId"
        )]
        let state = &mut self.dirs[i];
        if std::mem::take(&mut state.jitter_carried) {
            return state.jitter_ns;
        }
        if self.forward_jitter.is_zero() {
            return 0;
        }
        self.streams
            .get(i)
            .next_below(self.forward_jitter.as_nanos() + 1) as u32
    }

    /// Schedule a serialization-complete event of direction `i` with its
    /// canonical key.
    fn push_tx_done(&mut self, i: usize, epoch: u32, at: SimTime) {
        let key = order::pack(order::CLASS_TX_DONE, i as u64, u64::from(epoch));
        self.events.push_keyed(at, key, Event::Keyed);
    }

    /// Queue `h`'s arrival at the far end of direction `i` under the
    /// direction's next arrival key.
    fn push_arrive(&mut self, i: usize, h: PacketHandle, at: SimTime) {
        #[expect(
            clippy::indexing_slicing,
            reason = "i is dir_index of a topology-issued LinkId"
        )]
        let state = &mut self.dirs[i];
        let key = order::pack(order::CLASS_ARRIVE, i as u64, state.arrive_seq);
        state.arrive_seq += 1;
        self.events.push_keyed(at, key, Event::Arrive { pkt: h });
    }

    fn on_tx_done(&mut self, link: LinkId, dir: Dir, epoch: u64) {
        let spec = self.topo.link(link);
        let (delay, loss_rate) = (spec.delay, spec.loss_rate);
        let i = dir_index(link, dir);
        #[expect(
            clippy::indexing_slicing,
            reason = "the entity of a TxDone key is the dir_index the transmission was started at"
        )]
        let state = &mut self.dirs[i];

        // A link-down event may have aborted the serialization this event
        // belongs to: the abort bumped the direction's epoch, so a stale
        // event (old epoch, or no transmission at all) is ignored.
        if epoch != u64::from(state.epoch) {
            return;
        }
        let Some(h) = state.tx.take() else {
            return;
        };
        // An early transmission completed at its start (and was accounted
        // by the run that reached this instant); its TxDone only starts the
        // packet queued behind it.
        debug_assert!(!state.tx_owed, "a TxDone ran before its run settled it");
        if !state.tx_early {
            // `tx_time` was fixed when the serialization started; a capacity
            // fault mid-transmission does not retroactively change it.
            state.stats.on_tx(self.slab.wire_size(h), state.tx_time);
            // Wireless-style random corruption loss (after serialization).
            let corrupted = loss_rate > 0.0 && self.streams.get(i).chance(loss_rate);
            let jitter = SimDuration::from_nanos(u64::from(self.draw_jitter(i)));
            if corrupted {
                self.drop_at(i, h);
            } else {
                self.scheduled += 1;
                self.push_arrive(i, h, self.now + delay + jitter);
            }
        }

        // Start the next packet, if any (the AQM may head-drop on the way).
        #[expect(
            clippy::indexing_slicing,
            reason = "the entity of a TxDone key is the dir_index the transmission was started at"
        )]
        let deq = self.dirs[i].queue.dequeue(self.now, &self.slab);
        for dropped in deq.dropped {
            self.drop_at(i, dropped);
        }
        if let Some(next) = deq.pkt {
            self.start_tx(link, dir, next);
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

/// A frozen [`Simulator`]: its full deterministic state at one instant,
/// produced by [`Simulator::checkpoint`]. It never leaves the process that
/// made it, so it carries no format version.
///
/// The common prefix of a family of runs (e.g. the 0–4 s warm-up before a
/// fault study's first fault) is simulated once, checkpointed, and each
/// variant branches from the snapshot via [`Simulator::restore`] — with
/// byte-identical results to running each variant cold from t=0.
pub struct SimSnapshot(Simulator);

impl SimSnapshot {
    /// Capture records held in the snapshot: zero unless the simulator was
    /// buffering ([`Simulator::set_capture`] without a streaming sink).
    pub fn buffered_captures(&self) -> usize {
        self.0.captures().len()
    }
}

impl std::fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("time", &self.0.now)
            .field("agents", &self.0.agents.len())
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
        cold.schedule_fault(down, FaultAction::LinkDown(link));
        cold.schedule_fault(up, FaultAction::LinkUp(link));
        cold.schedule_fault(down_again, FaultAction::LinkDown(link));
        cold.run_until(SimTime::from_millis(40));
        assert!(!cold.link_is_up(link));

        // The branch point sits between the first two faults: one table
        // entry is spent, one is pending, and the third is installed on
        // the restored simulator, where it must take the next index.
        let mut warm = cbr_sim();
        warm.schedule_fault(down, FaultAction::LinkDown(link));
        warm.schedule_fault(up, FaultAction::LinkUp(link));
        warm.run_until(SimTime::from_millis(12));
        let snap = warm.checkpoint();
        let mut branch = Simulator::restore(&snap);
        branch.schedule_fault(down_again, FaultAction::LinkDown(link));
        branch.run_until(SimTime::from_millis(40));
        assert_eq!(outcome(&branch), outcome(&cold));

        // The snapshot is reusable and the original is untouched by the
        // branch's install: without the third fault the link stays up.
        warm.run_until(SimTime::from_millis(40));
        assert!(warm.link_is_up(link));
        let mut second = Simulator::restore(&snap);
        second.schedule_fault(down_again, FaultAction::LinkDown(link));
        second.run_until(SimTime::from_millis(40));
        assert_eq!(outcome(&second), outcome(&cold));
    }

    /// `cbr_sim` at 10 ms: the source offers twice what the link carries,
    /// so the transmitter is busy, the 4-packet queue is full and a few
    /// packets are propagating. Returns `(slab.live, packets_dropped)`.
    fn congested(sim: &mut Simulator) -> (u64, u64) {
        sim.run_until(SimTime::from_millis(10));
        let out = &sim.dirs[dir_index(LinkId(0), Dir::AtoB)];
        assert!(out.tx.is_some());
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
        sim.schedule_fault(sim.now(), FaultAction::LinkDown(LinkId(0)));
        sim.schedule_fault(sim.now(), FaultAction::LinkUp(LinkId(0)));
        // Everything else due by now has run: this pops the two faults.
        let events = sim.stats.events;
        sim.run_until(sim.now());
        assert_eq!(sim.stats.events, events + 2, "the two faults");
        // The serializing packet and the four buffered ones are gone; the
        // ones already on the wire keep their slots.
        assert_eq!(sim.slab.live(), live - 5);
        assert_eq!(sim.in_flight, live - 5);
        assert_eq!(sim.stats.packets_dropped, dropped + 5);
        let out = &sim.dirs[dir_index(LinkId(0), Dir::AtoB)];
        assert!(out.tx.is_none() && out.queue.is_empty());
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
        assert_eq!(snap.0.slab.live(), live);

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
        // One start per agent; every event ran from a queue entry or as an
        // elided TxDone, and every queue entry popped ran an event or moved;
        // the model's schedule is the queue's pushes and the TxDones that
        // took none (no timer here is re-armed or cancelled); every packet
        // sent took the one hop, where it was transmitted at once, buffered
        // or refused.
        assert_eq!(c.on_start, 2);
        assert_eq!(c.queue_pops - c.timer_moves + c.tx_done_elided, s.events);
        assert_eq!(
            c.queue_pushes - c.queue_cancels - c.timer_moves + c.tx_done_elided,
            sim.events_scheduled()
        );
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
        assert_eq!(names.len(), 23);
        assert!(names.contains(&"netsim.slab_high_water"));
        assert!(names.contains(&"netsim.tx_done_elided") && names.contains(&"netsim.timer_moves"));
        // Untagged CBR over default routes: no route set and no TCP
        // anywhere; one default route each way.
        assert_eq!((c.route_sets, c.tcp_segments_sent), (0, 0));
        assert_eq!(c.untagged_routes, 2);
    }

    /// Sends `BURST` 1000-byte datagrams back to back every 40 ms (a
    /// bottleneck of 10 Mbps drains a burst in 33 ms).
    #[derive(Clone)]
    struct Burster {
        dst: NodeId,
    }

    const BURST: usize = 40;

    impl Agent for Burster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.on_timer(ctx, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            for _ in 0..BURST {
                ctx.send(
                    self.dst,
                    Tag::NONE,
                    crate::Protocol::Raw,
                    crate::Payload::empty(),
                    1000,
                    crate::Ecn::NotEct,
                );
            }
            ctx.set_timer_after(SimDuration::from_millis(40), 0);
        }
    }

    /// x — a — b — y: 100 Mbps access links either side of a 10 Mbps
    /// bottleneck (link 1), every queue 64 packets deep, and a burster at
    /// each end sending to the other, so both directions of the bottleneck
    /// queue a burst at once in the one slab. Captures everything.
    fn burst_sim() -> Simulator {
        let mut t = Topology::new();
        let names = ["x", "a", "b", "y"];
        let n: Vec<NodeId> = names.iter().map(|name| t.add_node(name)).collect();
        for (k, mbps) in [(0, 100), (1, 10), (2, 100)] {
            t.add_link(
                n[k],
                n[k + 1],
                Bandwidth::from_mbps(mbps),
                SimDuration::from_micros(200),
                QueueConfig::DropTailPackets(64),
            );
        }
        let mut rt = RoutingTables::new(&t);
        rt.install_all_default_routes(&t);
        let mut sim = Simulator::new(t, rt, 5);
        sim.set_capture(CaptureConfig::everything());
        sim.add_agent(n[0], Box::new(Burster { dst: n[3] }), SimTime::ZERO);
        sim.add_agent(n[3], Box::new(Burster { dst: n[0] }), SimTime::ZERO);
        sim
    }

    /// Both directions of the bottleneck at 3 ms into the first burst:
    /// `(queued a → b, queued b → a)`, both deep.
    fn mid_burst(sim: &mut Simulator) -> (usize, usize) {
        sim.run_until(SimTime::from_millis(3));
        let depth = |d| sim.dirs[dir_index(LinkId(1), d)].queue.len_packets();
        let (ab, ba) = (depth(Dir::AtoB), depth(Dir::BtoA));
        assert!(ab > 20 && ba > 20, "{ab} and {ba} queued");
        (ab, ba)
    }

    #[test]
    fn bursts_sharing_one_slab_leave_each_queue_in_arrival_order() {
        let mut sim = burst_sim();
        mid_burst(&mut sim);
        sim.run_until(SimTime::from_millis(90));
        // Every packet of a burst passes the bottleneck in the order it was
        // sent (ids are per sender and increasing), in both directions.
        for dst in [NodeId(3), NodeId(0)] {
            let ids: Vec<u64> = sim
                .captures()
                .iter()
                .filter(|r| r.kind == CaptureKind::Delivered && r.node == dst)
                .map(|r| r.pkt.id)
                .collect();
            assert!(ids.len() > BURST, "{} delivered at {dst:?}", ids.len());
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "out of order at {dst:?}"
            );
        }
        for dir in [Dir::AtoB, Dir::BtoA] {
            let stats = sim.link_stats(LinkId(1), dir);
            assert!(stats.max_queue_packets > 30, "{stats:?}");
            assert_eq!(stats.drops, 0);
        }
        assert_eq!(sim.slab.live(), sim.in_flight);
    }

    #[test]
    fn a_link_down_mid_burst_drops_every_queued_packet() {
        let mut sim = burst_sim();
        let (ab, ba) = mid_burst(&mut sim);
        let dropped = sim.stats.packets_dropped;
        let live = sim.slab.live();
        sim.schedule_fault(sim.now(), FaultAction::LinkDown(LinkId(1)));
        // Everything else due by now has run: this pops the fault.
        let events = sim.stats.events;
        sim.run_until(sim.now());
        assert_eq!(sim.stats.events, events + 1, "the link-down fault");
        // Both queues and both packets being serialized are lost.
        let lost = (ab + 1 + ba + 1) as u64;
        assert_eq!(sim.stats.packets_dropped, dropped + lost);
        assert_eq!(sim.slab.live(), live - lost);
        assert_eq!(sim.slab.live(), sim.in_flight);
        for dir in [Dir::AtoB, Dir::BtoA] {
            let out = &sim.dirs[dir_index(LinkId(1), dir)];
            assert!(out.tx.is_none() && out.queue.is_empty());
            assert_eq!(
                sim.link_stats(LinkId(1), dir).drops,
                if dir == Dir::AtoB {
                    ab as u64 + 1
                } else {
                    ba as u64 + 1
                }
            );
        }
        // The rest of the burst is dropped at the down interface, and the
        // slab keeps balancing (run_until asserts it).
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.slab.live(), sim.in_flight);
    }

    #[test]
    fn a_mid_burst_checkpoint_replays_byte_for_byte() {
        let trace = |sim: &Simulator| format!("{:?}", sim.captures());
        let end = SimTime::from_millis(90);
        let mut cold = burst_sim();
        cold.run_until(end);

        let mut warm = burst_sim();
        mid_burst(&mut warm);
        let snap = warm.checkpoint();
        warm.run_until(end);
        assert_eq!(trace(&warm), trace(&cold));
        for _ in 0..2 {
            let mut branch = Simulator::restore(&snap);
            branch.run_until(end);
            assert_eq!(trace(&branch), trace(&cold));
            assert_eq!(branch.counters(), cold.counters());
            assert_eq!(branch.slab.live(), cold.slab.live());
        }
    }

    #[test]
    fn counters_add_up_wherever_a_run_stops() {
        // Stops every 37 us through the first bursts: some fall while an
        // early transmission's completion lies ahead, with or without a
        // packet already queued behind it. At each, the queue's work and the
        // model's schedule balance as they do at the end of a run.
        let mut sim = burst_sim();
        let mut owed_with_queue = 0;
        for k in 1..=300u64 {
            sim.run_until(SimTime::from_micros(37 * k));
            owed_with_queue += sim
                .owed
                .iter()
                .filter(|&&i| !sim.dirs[i as usize].queue.is_empty())
                .count();
            let c = sim.counters();
            let s = sim.stats();
            assert_eq!(c.queue_pops - c.timer_moves + c.tx_done_elided, s.events);
            assert_eq!(
                c.queue_pushes - c.queue_cancels - c.timer_moves + c.tx_done_elided,
                sim.events_scheduled(),
                "at {}",
                sim.now()
            );
        }
        assert!(
            owed_with_queue > 0,
            "no stop fell behind an owed transmission"
        );
        let mut straight = burst_sim();
        straight.run_until(sim.now());
        assert_eq!(straight.counters(), sim.counters());
    }

    #[test]
    fn only_a_draw_derives_the_stream_table() {
        // Drop-tail, lossless, jitter-free: nothing draws, nothing is
        // derived.
        let mut sim = cbr_sim();
        sim.run_until(SimTime::from_millis(40));
        assert!(sim.streams.table.is_empty());
        assert!(sim.checkpoint().0.streams.table.is_empty());
        // Forwarding jitter draws at the first hop; a lossy link at its
        // first completion. Either derives every direction's stream.
        let mut jittered = cbr_sim();
        jittered.set_forward_jitter(SimDuration::from_micros(20));
        jittered.run_until(SimTime::from_millis(40));
        assert_eq!(jittered.streams.table.len(), 2);
        let mut lossy = cbr_sim();
        lossy.topo.set_link_loss(LinkId(0), 0.1);
        lossy.run_until(SimTime::from_millis(40));
        assert_eq!(lossy.streams.table.len(), 2);
        assert!(lossy.stats.packets_dropped > 0);
    }
}
