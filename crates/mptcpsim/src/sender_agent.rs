//! The MPTCP sender endpoint.
//!
//! One agent owns N subflows, each a `tcpsim::TcpSender` pinned to a
//! routing tag (the paper's modified `ndiffports` path manager: the number
//! of subflows and the tag per subflow are explicit configuration). The
//! subflow senders live only while the connection runs: assembled dormant,
//! started together in `on_start`, retired to their counters when the
//! transfer completes. The connection-level machinery on top:
//!
//! * a **scheduler** assigns MSS-sized DSN chunks to subflows with window
//!   space (default: lowest-RTT, the Linux default scheduler);
//! * a [`MappingTable`] per subflow records subflow-offset → DSN mappings,
//!   one entry per run of DSN-contiguous chunks, and every outgoing segment
//!   carries the corresponding **DSS option** (segments are split at chunk
//!   boundaries, so one packet never carries two chunks' DSNs);
//! * **coupled congestion control** (LIA/OLIA/BALIA/wVegas) or uncoupled
//!   CUBIC per subflow: the connection owns every controller in one
//!   `Control` and lends a subflow sender its own for each call;
//! * incoming ACKs are demultiplexed to subflows by destination port, and
//!   connection-level data ACKs are tracked from the DSS option.

use crate::cc::{CcAlgo, Control};
use crate::dsn::{Mapping, MappingTable};
use crate::scheduler::{Assignment, SchedulerKind, SubflowSnapshot};
use netsim::packet::Ecn;
use netsim::{Agent, Ctx, NodeId, Packet, Protocol, SimCounters, Tag};
use simbase::{SimDuration, SimRng, SimTime};
use tcpsim::wire::{DssOption, TcpSegment};
use tcpsim::{AppSource, CongestionControl, RttEstimator, TcpConfig, TcpSender, MSS};

/// Failover: after this many consecutive RTO backoffs on a subflow, its
/// unacknowledged DSN ranges are reinjected on the other subflows.
const REINJECT_AFTER_BACKOFFS: u32 = 2;

/// Delay before each non-initial subflow joins (the MP_JOIN handshake takes
/// about one RTT in a real connection). Subflow 0 starts at once.
const JOIN_DELAY: SimDuration = SimDuration::from_millis(100);
/// Additional uniform random jitter on each join (models handshake timing
/// noise; gives distinct seeds distinct trajectories).
const JOIN_JITTER: SimDuration = SimDuration::from_millis(20);

/// Per-subflow configuration: the tag pins the route; the ports identify
/// the subflow (ndiffports-style).
#[derive(Debug, Clone)]
pub struct SubflowConfig {
    /// Routing tag installed for this subflow's path.
    pub tag: Tag,
    /// Our port.
    pub src_port: u16,
    /// Peer port.
    pub dst_port: u16,
}

/// MPTCP connection configuration.
#[derive(Debug, Clone)]
pub struct MptcpConfig {
    /// Destination host.
    pub dst: NodeId,
    /// Subflows, in priority order (subflow 0 is the "default path": the
    /// scheduler prefers it until RTT samples exist).
    pub subflows: Vec<SubflowConfig>,
    /// Congestion-control configuration.
    pub algo: CcAlgo,
    /// Packet scheduler.
    pub scheduler: SchedulerKind,
    /// Application model (`Unlimited` = iperf, `Fixed(n)` = bounded).
    pub app: AppSource,
    /// SACK-based loss recovery on every subflow (Linux default: on).
    pub sack: bool,
    /// ECN on every subflow (requires ECN-marking queues to matter).
    pub ecn: bool,
}

impl MptcpConfig {
    /// A bulk connection over the given tagged subflows with defaults
    /// matching the paper's setup (CUBIC, minRTT scheduler, iperf source).
    pub fn bulk(dst: NodeId, subflows: Vec<SubflowConfig>) -> Self {
        MptcpConfig {
            dst,
            subflows,
            algo: CcAlgo::Cubic,
            scheduler: SchedulerKind::MinRtt,
            app: AppSource::Unlimited,
            sack: true,
            ecn: false,
        }
    }
}

/// Connection-level sender statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MptcpSenderStats {
    /// Highest connection-level data ACK seen.
    pub data_acked: u64,
    /// Chunks allocated per the redundant scheduler (copies included).
    pub chunks_assigned: u64,
    /// DSN bytes reinjected onto healthy subflows after a subflow failure.
    pub bytes_reinjected: u64,
}

#[derive(Clone)]
struct Sub {
    cfg: SubflowConfig,
    sender: TcpSender,
    maps: MappingTable,
    /// Memo of the armed RTO deadline. Re-arming a token replaces the
    /// pending event in the queue, so this only skips redundant re-arms
    /// when the engine's deadline has not moved.
    armed: Option<SimTime>,
    /// Has the subflow joined the connection yet?
    active: bool,
    /// Declared failed after repeated RTO backoffs; excluded from
    /// scheduling until an ACK proves the path alive again.
    failed: bool,
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter subflow record fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<Sub>() <= 184);

/// The MPTCP sender agent.
///
/// A connection is in one of three states. Assembled by
/// [`MptcpSenderAgent::new`] it is *dormant*: configuration, dormant
/// subflow senders, the scheduling scratch and zero counters. `on_start`
/// makes it *live*: it builds its `Control`, one controller per subflow
/// in subflow order, and starts every subflow sender. When a transfer
/// completes with ECN off it *retires*: every subflow sender keeps only its
/// counters and sequence numbers, and the controllers and the scheduling
/// scratch go. `subflow_count()` and every `subflow_sender(i).stats()` read
/// the same in all three. With ECN on it stays live (a late ECN-Echo still
/// counts; see `TcpSender::release_finished`).
///
/// The agent owns its controllers and lends subflow `i`'s to its sender
/// for each call, so no state is shared and the derived `Clone` is a
/// checkpoint's deep copy.
#[derive(Clone)]
pub struct MptcpSenderAgent {
    cfg: MptcpConfig,
    subs: Vec<Sub>,
    /// Round-robin's last pick ([`SchedulerKind::assign`]).
    rotation: Option<usize>,
    /// Every subflow's congestion controller (`None` while dormant and
    /// once every subflow has retired: no sender is live then). Boxed, so
    /// a dormant or retired connection — most of them on a 4 000-pair
    /// world — pays 8 bytes for it, not 32 (DESIGN.md "Footprint").
    control: Option<Box<Control>>,
    /// Next connection-level DSN to assign.
    dsn_next: u64,
    /// Remaining application bytes (`None` = unlimited).
    remaining: Option<u64>,
    /// DSN ranges awaiting reinjection on a healthy subflow.
    pending_reinject: std::collections::VecDeque<(u64, u64)>,
    /// `pump`'s view of the active subflows: built once per `pump`, then
    /// refreshed for the subflows each scheduling decision assigned to, in
    /// this one buffer (sized for every subflow at assembly, so the send
    /// path never allocates for it; released when the connection
    /// completes).
    snapshots: Vec<SubflowSnapshot>,
    stats: MptcpSenderStats,
    rx_malformed: u64,
}

impl MptcpSenderAgent {
    /// Assemble the agent dormant: its subflow senders' live parts and
    /// their controllers are built when it starts.
    pub fn new(cfg: MptcpConfig) -> Self {
        assert!(!cfg.subflows.is_empty(), "need at least one subflow");
        let subs: Vec<Sub> = cfg
            .subflows
            .iter()
            .map(|sc| {
                let tcp_cfg = TcpConfig {
                    src_port: sc.src_port,
                    dst_port: sc.dst_port,
                    sack: cfg.sack,
                    ecn: cfg.ecn,
                    ..Default::default()
                };
                Sub {
                    cfg: sc.clone(),
                    sender: TcpSender::dormant(tcp_cfg),
                    maps: MappingTable::new(),
                    armed: None,
                    active: false,
                    failed: false,
                }
            })
            .collect();
        let remaining = match cfg.app {
            AppSource::Unlimited => None,
            AppSource::Fixed(n) => Some(n),
        };
        MptcpSenderAgent {
            cfg,
            snapshots: Vec::with_capacity(subs.len()),
            subs,
            rotation: None,
            control: None,
            dsn_next: 0,
            remaining,
            pending_reinject: Default::default(),
            stats: MptcpSenderStats::default(),
            rx_malformed: 0,
        }
    }

    /// Connection-level statistics.
    pub fn stats(&self) -> &MptcpSenderStats {
        &self.stats
    }

    /// Packets dropped on arrival because their payload did not decode,
    /// acknowledged a port no subflow of this connection owns, or carried
    /// an acknowledgement number from before the start of the stream.
    pub fn rx_malformed(&self) -> u64 {
        self.rx_malformed
    }

    /// The underlying TCP sender of subflow `i` (inspection; dormant before
    /// the connection starts, retired after it completes).
    pub fn subflow_sender(&self, i: usize) -> &TcpSender {
        &self.subs[i].sender
    }

    /// Subflow `i`'s congestion window in bytes, while its sender is live.
    pub fn subflow_cwnd(&self, i: usize) -> Option<u64> {
        let sender = &self.subs.get(i)?.sender;
        let control = self.control.as_ref().filter(|_| sender.is_live())?;
        control.cwnd(i)
    }

    /// Number of subflows.
    pub fn subflow_count(&self) -> usize {
        self.subs.len()
    }

    /// True when a bounded transfer has been fully scheduled and every
    /// subflow has drained its in-flight data.
    pub fn is_complete(&self) -> bool {
        self.remaining == Some(0) && self.subs.iter().all(|s| s.sender.flight_size() == 0)
    }

    /// Can subflow `i` usefully take another chunk right now?
    fn eligible(&mut self, i: usize) -> bool {
        let sub = &mut self.subs[i];
        sub.active
            && !sub.failed
            && sub.sender.app_backlog() == 0
            && lend(&mut self.control, i, &mut sub.sender, |s, cc| {
                s.flight_size() < s.send_window(cc)
            })
    }

    /// Declare subflow `i` failed and queue its unacknowledged DSN ranges
    /// for reinjection on the surviving subflows (skipping anything the
    /// connection-level data ACK already covers).
    fn fail_and_reinject(&mut self, i: usize) {
        if self.subs[i].failed {
            return;
        }
        self.subs[i].failed = true;
        let una = self.subs[i].sender.snd_una();
        let data_acked = self.stats.data_acked;
        let ranges: Vec<(u64, u64)> = self.subs[i]
            .maps
            .live_after(una)
            .filter_map(|m| {
                let dsn_end = m.dsn_start + m.len;
                if dsn_end <= data_acked {
                    None
                } else {
                    let start = m.dsn_start.max(data_acked);
                    Some((start, dsn_end - start))
                }
            })
            .collect();
        for (dsn, len) in ranges {
            self.stats.bytes_reinjected += len;
            self.pending_reinject.push_back((dsn, len));
        }
    }

    fn snapshot(&mut self, i: usize) -> SubflowSnapshot {
        SubflowSnapshot {
            idx: i,
            srtt: self.subs[i].sender.rtt().and_then(RttEstimator::srtt),
            eligible: self.eligible(i),
        }
    }

    /// Map the chunk `[dsn, dsn + len)` (at most one MSS) onto subflow `i`'s
    /// stream and hand its bytes to the subflow sender.
    fn allocate_chunk_to(&mut self, i: usize, dsn: u64, len: u64) {
        let sub = &mut self.subs[i];
        let sf_start = sub.sender.snd_nxt() + sub.sender.app_backlog();
        sub.maps.push(Mapping {
            subflow_start: sf_start,
            dsn_start: dsn,
            len,
        });
        sub.sender.push_app_data(len);
        self.stats.chunks_assigned += 1;
    }

    /// Drain subflow `i`'s sendable segments into the network, attaching
    /// DSS options (splitting at chunk boundaries).
    fn drain(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let now = ctx.now();
        while let Some(tx) = lend(&mut self.control, i, &mut self.subs[i].sender, |s, cc| {
            s.poll_segment(now, cc)
        }) {
            let mut done: u32 = 0;
            let ecn = if self.cfg.ecn { Ecn::Ect } else { Ecn::NotEct };
            for (dsn, piece_len) in self.subs[i].maps.lookup(tx.offset, tx.len) {
                let mut seg = tx.seg.clone();
                seg.seq = tx.seg.seq.wrapping_add(done);
                // The wire subflow sequence wraps modulo 2^32 like any
                // TCP sequence number (the mask makes that explicit);
                // piece lengths never exceed the MSS, so the u16
                // conversion cannot truncate.
                let sseq = (tx.offset + u64::from(done)) & u64::from(u32::MAX);
                seg.dss = Some(DssOption {
                    data_ack: None,
                    dsn: Some(dsn),
                    subflow_seq: u32::try_from(sseq).unwrap_or(u32::MAX),
                    data_len: u16::try_from(piece_len).unwrap_or(u16::MAX),
                });
                ctx.send(
                    self.cfg.dst,
                    self.subs[i].cfg.tag,
                    Protocol::Tcp,
                    seg.encode(),
                    piece_len,
                    ecn,
                );
                done += piece_len;
            }
        }
    }

    /// Send what subflow `i` can of the chunk it was just given and refresh
    /// its entry in `snapshots`. Nothing else changes state while `pump`
    /// runs (effects are applied after the agent returns), so every other
    /// subflow is still drained and its snapshot still current.
    fn send_assigned(&mut self, ctx: &mut Ctx<'_>, snapshots: &mut [SubflowSnapshot], i: usize) {
        self.drain(ctx, i);
        if let Some(s) = snapshots.iter_mut().find(|s| s.idx == i) {
            *s = self.snapshot(i);
        }
    }

    /// Drain every subflow, then allocate chunks while any subflow has
    /// space, draining each one a chunk went to.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.subs.len() {
            self.drain(ctx, i);
        }
        let mut snapshots = std::mem::take(&mut self.snapshots);
        snapshots.clear();
        if self.remaining != Some(0) {
            for i in 0..self.subs.len() {
                if self.subs[i].active {
                    snapshots.push(self.snapshot(i));
                }
            }
        }
        while self.remaining != Some(0) && snapshots.iter().any(|s| s.eligible) {
            // Failover reinjections take priority over fresh data.
            let reinject = self.pending_reinject.front().copied();
            let (dsn, chunk, is_reinject) = match reinject {
                Some((dsn, len)) => (dsn, len.min(u64::from(MSS)), true),
                None => {
                    let chunk = match self.remaining {
                        None => u64::from(MSS),
                        Some(rem) => rem.min(u64::from(MSS)),
                    };
                    (self.dsn_next, chunk, false)
                }
            };
            match self.cfg.scheduler.assign(&snapshots, &mut self.rotation) {
                Assignment::None => break,
                Assignment::One(i) => {
                    self.allocate_chunk_to(i, dsn, chunk);
                    self.send_assigned(ctx, &mut snapshots, i);
                }
                Assignment::Replicate(list) => {
                    debug_assert!(!list.is_empty());
                    // The list is in subflow order: allocating every copy
                    // before sending any sends in the order a drain of
                    // every subflow would.
                    for &i in &list {
                        self.allocate_chunk_to(i, dsn, chunk);
                    }
                    for &i in &list {
                        self.send_assigned(ctx, &mut snapshots, i);
                    }
                }
            }
            if is_reinject {
                // is_reinject was derived from this queue being non-empty.
                let Some((rd, rl)) = self.pending_reinject.pop_front() else {
                    break;
                };
                if rl > chunk {
                    self.pending_reinject.push_front((rd + chunk, rl - chunk));
                }
            } else {
                self.dsn_next += chunk;
                if let Some(rem) = &mut self.remaining {
                    *rem -= chunk;
                }
            }
        }
        self.snapshots = snapshots;
        self.rearm(ctx);
        if self.is_complete() {
            self.release_finished();
        }
    }

    /// The transfer is complete — nothing left to schedule, nothing in
    /// flight, and `pump` stops before its scheduling step from now on — so
    /// give back what only a live connection reads: each subflow's live
    /// part ([`TcpSender::release_finished`]: the sender retires unless
    /// ECN is on), the controllers once no sender is live, and the
    /// scheduling scratch. Counters and every `subflow_sender(i)` stay
    /// readable. Called after every `pump` of a complete connection; all of
    /// it is a no-op the second time.
    fn release_finished(&mut self) {
        for sub in &mut self.subs {
            sub.sender.release_finished();
        }
        if !self.subs.iter().any(|s| s.sender.is_live()) {
            self.control = None;
        }
        self.snapshots = Vec::new();
    }

    fn rearm(&mut self, ctx: &mut Ctx<'_>) {
        for (i, sub) in self.subs.iter_mut().enumerate() {
            match sub.sender.next_timer() {
                Some(t) => {
                    let fire_at = t.max(ctx.now());
                    // Replacement semantics: the queue's pending deadline
                    // for this token always tracks the engine exactly (a
                    // deadline moved *later* by fast retransmit or SACK
                    // recovery is replaced too, never left to fire stale).
                    if sub.armed != Some(fire_at) {
                        ctx.set_timer_at(fire_at, i as u64);
                        sub.armed = Some(fire_at);
                    }
                }
                None => {
                    if sub.armed.take().is_some() {
                        ctx.cancel_timer(i as u64);
                    }
                }
            }
        }
    }
}

/// Run `call` on subflow `i`'s `sender` with its controller in `control`
/// lent for the call. Without controllers no sender is live, and a sender
/// that is not live ignores every call: `call` is skipped for its default.
fn lend<R: Default>(
    control: &mut Option<Box<Control>>,
    i: usize,
    sender: &mut TcpSender,
    call: impl FnOnce(&mut TcpSender, &mut dyn CongestionControl) -> R,
) -> R {
    control
        .as_mut()
        .and_then(|control| control.lend(i, |cc| call(sender, cc)))
        .unwrap_or_default()
}

/// Timer-token namespace for subflow activations (below this are RTOs).
const TOKEN_JOIN_BASE: u64 = 1 << 32;

impl Agent for MptcpSenderAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Every subflow sender goes live now, each for its own controller
        // (the controllers' indices are subflow indices).
        let windows = self.subs.iter().map(|sub| {
            let tcp = sub.sender.config();
            (tcp.initial_cwnd, tcp.mss)
        });
        self.control = Some(Box::new(Control::new(self.cfg.algo, windows)));
        for (i, sub) in self.subs.iter_mut().enumerate() {
            lend(&mut self.control, i, &mut sub.sender, |s, cc| s.start(cc));
        }
        // Subflow 0 is the initial subflow; the i-th additional subflow
        // joins after i MP_JOIN-like delays (staggered, plus jitter) — in a
        // real connection address advertisement and joins are sequential.
        self.subs[0].active = true;
        for i in 1..self.subs.len() {
            let jitter_ns = ctx.rng.next_below(JOIN_JITTER.as_nanos() + 1);
            let delay = JOIN_DELAY.saturating_mul(i as u64) + SimDuration::from_nanos(jitter_ns);
            ctx.set_timer_after(delay, TOKEN_JOIN_BASE + i as u64);
        }
        self.pump(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let Ok(seg) = TcpSegment::decode(&pkt.payload) else {
            self.rx_malformed += 1;
            return;
        };
        if !seg.flags.ack {
            return;
        }
        // Demultiplex: the ACK's destination port is our subflow's port.
        let Some((i, sub)) = self
            .subs
            .iter_mut()
            .enumerate()
            .find(|(_, s)| s.cfg.src_port == seg.dst_port)
            .filter(|(_, s)| s.sender.ack_offset(seg.ack).is_some())
        else {
            self.rx_malformed += 1;
            return;
        };
        lend(&mut self.control, i, &mut sub.sender, |s, cc| {
            s.on_ack(ctx.now(), &seg, cc);
        });
        // Any ACK proves the path alive again.
        if sub.failed && sub.sender.rtt().is_some_and(|r| r.backoff() == 0) {
            sub.failed = false;
        }
        let una = sub.sender.snd_una();
        sub.maps.prune(una);
        if let Some(dss) = &seg.dss {
            // A data ACK beyond what was ever scheduled is wild input;
            // believing it would hide live data from reinjection.
            if let Some(da) = dss.data_ack.filter(|&da| da <= self.dsn_next) {
                self.stats.data_acked = self.stats.data_acked.max(da);
            }
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token >= TOKEN_JOIN_BASE {
            let i = (token - TOKEN_JOIN_BASE) as usize;
            if let Some(sub) = self.subs.get_mut(i) {
                sub.active = true;
                self.pump(ctx);
            }
            return;
        }
        let i = token as usize;
        let n_subs = self.subs.len();
        if let Some(sub) = self.subs.get_mut(i) {
            // A fire must match the armed deadline exactly: re-arming
            // replaces the queued event, so a superseded (stale) deadline
            // can never reach this point.
            debug_assert_eq!(
                sub.armed,
                Some(ctx.now()),
                "subflow RTO fired at a stale deadline"
            );
            sub.armed = None;
            lend(&mut self.control, i, &mut sub.sender, |s, cc| {
                s.on_timer(ctx.now(), cc);
            });
            let backoff = sub.sender.rtt().map_or(0, RttEstimator::backoff);
            if n_subs > 1 && backoff >= REINJECT_AFTER_BACKOFFS {
                self.fail_and_reinject(i);
            }
            self.pump(ctx);
        }
    }

    fn count(&self, counters: &mut SimCounters) {
        for sub in &self.subs {
            sub.sender.count(counters);
        }
        counters.scheduler_picks += self.stats.chunks_assigned;
        counters.rx_malformed += self.rx_malformed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MptcpReceiverAgent;
    use netsim::{AgentId, Effect};
    use simbase::Xoshiro256StarStar;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    use tcpsim::wire::SackList;
    use tcpsim::{SeqNum, TcpFlags, Timestamps, ISN};

    const TX: NodeId = NodeId(0);
    const RX: NodeId = NodeId(1);
    /// Bytes the connection transfers.
    const TOTAL: u64 = 1 << 20;
    /// The scripted network loses the sender's `DROP`-th packet.
    const DROP: u64 = 40;

    fn subflow(i: u16) -> SubflowConfig {
        SubflowConfig {
            tag: Tag(1 + i),
            src_port: 5000 + 2 * i,
            dst_port: 5001 + 2 * i,
        }
    }

    /// One-way delay of a subflow's path, by its tag.
    fn delay(tag: Tag) -> SimDuration {
        SimDuration::from_millis(if tag == Tag(1) { 20 } else { 30 })
    }

    /// Two hosts, a sender and a receiver agent, and a script for what lies
    /// between: fixed per-path delays, one lost data packet, no data ACKs
    /// (the receiver's DSS `data_ack` is stripped, so late ones have
    /// something to raise). Every effect and what the sender reads after
    /// each callback go into `log`.
    struct Net {
        tx: MptcpSenderAgent,
        rx: MptcpReceiverAgent,
        rngs: [Xoshiro256StarStar; 2],
        ids: [u64; 2],
        /// Packets in flight by arrival time and send order.
        flying: BTreeMap<(SimTime, u64), Packet>,
        sent: u64,
        /// The sender's armed timers, token → deadline.
        timers: BTreeMap<u64, SimTime>,
        now: SimTime,
        log: String,
    }

    fn effects_of(
        now: SimTime,
        node: NodeId,
        rng: &mut Xoshiro256StarStar,
        next_id: &mut u64,
        call: impl FnOnce(&mut Ctx<'_>),
    ) -> Vec<Effect> {
        let mut effects = Vec::new();
        let agent = AgentId(node.0);
        call(&mut Ctx::new(now, node, agent, rng, &mut effects, next_id));
        effects
    }

    impl Net {
        fn new(ecn: bool) -> Net {
            let cfg = MptcpConfig {
                algo: crate::CcAlgo::Lia,
                app: AppSource::Fixed(TOTAL),
                ecn,
                ..MptcpConfig::bulk(RX, vec![subflow(0), subflow(1)])
            };
            Net {
                tx: MptcpSenderAgent::new(cfg),
                rx: MptcpReceiverAgent::default(),
                rngs: [Xoshiro256StarStar::new(7), Xoshiro256StarStar::new(8)],
                ids: [0, 1 << 32],
                flying: BTreeMap::new(),
                sent: 0,
                timers: BTreeMap::new(),
                now: SimTime::ZERO,
                log: String::new(),
            }
        }

        /// Run one sender callback at `self.now` and apply its effects.
        fn at_tx(&mut self, call: impl FnOnce(&mut MptcpSenderAgent, &mut Ctx<'_>)) {
            let tx = &mut self.tx;
            let fx = effects_of(self.now, TX, &mut self.rngs[0], &mut self.ids[0], |ctx| {
                call(tx, ctx)
            });
            for effect in fx {
                self.note(&effect);
                match effect {
                    Effect::Send(p) => {
                        self.sent += 1;
                        if self.sent != DROP {
                            self.fly(p);
                        }
                    }
                    Effect::SetTimer { at, token } => {
                        self.timers.insert(token, at);
                    }
                    Effect::CancelTimer { token } => {
                        self.timers.remove(&token);
                    }
                }
            }
            self.observe();
        }

        fn at_rx(&mut self, pkt: Packet) {
            let rx = &mut self.rx;
            let fx = effects_of(self.now, RX, &mut self.rngs[1], &mut self.ids[1], |ctx| {
                rx.on_packet(ctx, pkt)
            });
            for effect in fx {
                let Effect::Send(mut ack) = effect else {
                    panic!("the receiver arms no timer");
                };
                let mut seg = TcpSegment::decode(&ack.payload).expect("the receiver's ACK");
                seg.dss = None;
                ack.payload = seg.encode();
                self.fly(ack);
            }
        }

        fn fly(&mut self, p: Packet) {
            self.flying.insert((self.now + delay(p.tag), p.id), p);
        }

        fn note(&mut self, effect: &Effect) {
            let _ = match effect {
                Effect::Send(p) => writeln!(
                    self.log,
                    "send {} {:?}->{:?} tag {} {:?} {} B {:02x?}",
                    p.id,
                    p.src,
                    p.dst,
                    p.tag.0,
                    p.ecn,
                    p.data_len,
                    p.payload.as_slice()
                ),
                Effect::SetTimer { at, token } => writeln!(self.log, "timer {at:?} {token}"),
                Effect::CancelTimer { token } => writeln!(self.log, "cancel {token}"),
            };
        }

        /// What the sender reads now: its stats, every subflow sender's,
        /// its counters and `rx_malformed`.
        fn observe(&mut self) {
            let mut counters = SimCounters::default();
            self.tx.count(&mut counters);
            let subs: Vec<_> = (0..self.tx.subflow_count())
                .map(|i| *self.tx.subflow_sender(i).stats())
                .collect();
            let _ = writeln!(
                self.log,
                "{:?} {:?} {:?} {} {}",
                self.tx.stats(),
                subs,
                counters,
                self.tx.rx_malformed(),
                self.tx.is_complete()
            );
        }

        /// Start the sender and run until nothing is left to happen.
        fn run(&mut self) {
            self.at_tx(|tx, ctx| tx.on_start(ctx));
            loop {
                let pkt = self.flying.keys().next().copied();
                let timer = self.timers.iter().map(|(&token, &at)| (at, token)).min();
                match (pkt, timer) {
                    // At one instant, packets go before timers.
                    (Some((at, id)), t) if t.is_none_or(|(tat, _)| at <= tat) => {
                        let p = self.flying.remove(&(at, id)).expect("the key just read");
                        self.now = at;
                        if p.dst == RX {
                            self.at_rx(p);
                        } else {
                            self.at_tx(|tx, ctx| tx.on_packet(ctx, p));
                        }
                    }
                    (_, Some((at, token))) => {
                        self.timers.remove(&token);
                        self.now = at;
                        self.at_tx(|tx, ctx| tx.on_timer(ctx, token));
                    }
                    (_, None) => break,
                }
            }
        }

        /// Hand the sender `seg` from the receiver's host 1 ms later.
        fn late(&mut self, seg: TcpSegment) {
            self.now += SimDuration::from_millis(1);
            let pkt = Packet {
                id: 99,
                src: RX,
                dst: TX,
                tag: Tag(1),
                protocol: Protocol::Tcp,
                payload: seg.encode(),
                data_len: 0,
                ecn: Ecn::NotEct,
            };
            self.at_tx(|tx, ctx| tx.on_packet(ctx, pkt));
        }

        /// An ACK of subflow `i` for stream offset `offset`.
        fn ack(&self, i: usize, offset: u64) -> TcpSegment {
            let sf = subflow(i as u16);
            TcpSegment {
                src_port: sf.dst_port,
                dst_port: sf.src_port,
                ack: SeqNum::from_offset(ISN, offset),
                flags: TcpFlags::ACK,
                window: tcpsim::RECEIVE_WINDOW,
                ts: Some(Timestamps {
                    tsval: 1,
                    tsecr: Timestamps::tsval_at(self.now),
                }),
                ..Default::default()
            }
        }

        fn digest(&self) -> u64 {
            self.log.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        }
    }

    /// A transfer run to completion over the scripted network: both
    /// subflows carried data, one segment was recovered, and every byte
    /// arrived.
    fn completed(ecn: bool) -> Net {
        let mut net = Net::new(ecn);
        net.run();
        assert!(net.tx.is_complete());
        assert_eq!(net.rx.data_delivered(), TOTAL);
        assert_eq!(net.tx.stats().data_acked, 0, "data ACKs are stripped");
        let sent = |i: usize| net.tx.subflow_sender(i).stats().segments_sent;
        assert!(sent(0) > 0 && sent(1) > 0, "both subflows carried data");
        let retransmits: u64 = (0..2)
            .map(|i| net.tx.subflow_sender(i).stats().retransmits)
            .sum();
        assert!(retransmits > 0, "the lost segment was retransmitted");
        net
    }

    /// A retired connection answers late ACKs exactly as the connection
    /// answered them when its finished subflow senders stayed whole: the
    /// same effects (none), stats, subflow stats, counters and
    /// `rx_malformed`, down to the byte of `log`. The digests were computed
    /// on the tree before subflow senders retired (with the log line's
    /// packet fields as they are now), and again on the tree before the
    /// sender's stats lost their copy of `dsn_next` (a scheduled-bytes
    /// counter), with its stats logged without it: every other byte of the
    /// log is the same.
    #[test]
    fn a_retired_subflow_answers_late_acks_like_a_live_one() {
        let mut net = completed(false);
        for i in 0..2 {
            assert!(!net.tx.subflow_sender(i).is_live(), "subflow {i} retired");
        }
        assert!(net.tx.control.is_none(), "the controllers went with them");
        let end = [0, 1].map(|i| net.tx.subflow_sender(i).snd_nxt());
        let malformed = net.tx.rx_malformed();

        // A duplicate ACK, and one carrying SACK blocks below and above
        // what was sent.
        net.late(net.ack(0, end[0]));
        let mut sack = SackList::new();
        for (l, r) in [
            (end[1] - 3000, end[1] - 1000),
            (end[1] + 1000, end[1] + 2000),
        ] {
            sack.push((SeqNum::from_offset(ISN, l), SeqNum::from_offset(ISN, r)));
        }
        net.late(TcpSegment {
            sack,
            ..net.ack(1, end[1])
        });
        // Data ACKs: one above `data_acked` raises it, one beyond what was
        // ever scheduled does not.
        for data_ack in [TOTAL / 2, TOTAL + 1] {
            let dss = Some(DssOption {
                data_ack: Some(data_ack),
                dsn: None,
                subflow_seq: 0,
                data_len: 0,
            });
            net.late(TcpSegment {
                dss,
                ..net.ack(0, end[0])
            });
        }
        assert_eq!(net.tx.stats().data_acked, TOTAL / 2);
        // A port no subflow owns, and an acknowledgement number from
        // before the initial sequence number: both counted.
        net.late(TcpSegment {
            dst_port: 4242,
            ..net.ack(0, end[0])
        });
        net.late(TcpSegment {
            ack: SeqNum(ISN.0.wrapping_sub(100)),
            ..net.ack(0, end[0])
        });
        assert_eq!(net.tx.rx_malformed(), malformed + 2);
        assert_eq!(net.digest(), 0xddea_6f0d_3679_182b);
    }

    /// With ECN on, a finished connection stays live: a late ECN-Echo still
    /// counts one window reduction, as it did before senders retired.
    #[test]
    fn an_ecn_connection_stays_live_and_counts_a_late_ece() {
        let mut net = completed(true);
        for i in 0..2 {
            assert!(net.tx.subflow_sender(i).is_live(), "subflow {i} stays live");
        }
        let end = net.tx.subflow_sender(0).snd_nxt();
        let ece = TcpSegment {
            flags: TcpFlags {
                ece: true,
                ..TcpFlags::ACK
            },
            ..net.ack(0, end)
        };
        net.late(ece);
        assert_eq!(net.tx.subflow_sender(0).stats().ecn_reductions, 1);
        assert_eq!(net.digest(), 0x9e3e_2263_ef1a_c986);
    }
}
