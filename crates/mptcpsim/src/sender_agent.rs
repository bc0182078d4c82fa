//! The MPTCP sender endpoint.
//!
//! One agent owns N subflows, each a full `tcpsim::TcpSender` pinned to a
//! routing tag (the paper's modified `ndiffports` path manager: the number
//! of subflows and the tag per subflow are explicit configuration). The
//! connection-level machinery on top:
//!
//! * a **scheduler** assigns MSS-sized DSN chunks to subflows with window
//!   space (default: lowest-RTT, the Linux default scheduler);
//! * a [`MappingTable`] per subflow records subflow-offset → DSN mappings,
//!   and every outgoing segment carries the corresponding **DSS option**
//!   (segments are split at mapping boundaries so one segment never mixes
//!   two DSN ranges);
//! * **coupled congestion control** (LIA/OLIA/BALIA) or uncoupled
//!   CUBIC/Reno per subflow, built over one shared [`Coupling`];
//! * incoming ACKs are demultiplexed to subflows by destination port, and
//!   connection-level data ACKs are tracked from the DSS option.

use crate::cc::{CcAlgo, Coupling};
use crate::dsn::{Mapping, MappingTable};
use crate::scheduler::{Assignment, Scheduler, SchedulerKind, SubflowSnapshot};
use netsim::packet::Ecn;
use netsim::{Agent, Ctx, NodeId, Packet, Protocol, SimCounters, Tag};
use simbase::{SimDuration, SimRng, SimTime};
use tcpsim::wire::{DssOption, TcpSegment};
use tcpsim::{flow_hash, AppSource, TcpConfig, TcpSender};

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
    /// MSS per subflow, bytes.
    pub mss: u32,
    /// Initial window per subflow, in segments.
    pub initial_cwnd_segments: u32,
    /// SACK-based loss recovery on every subflow (Linux default: on).
    pub sack: bool,
    /// ECN on every subflow (requires ECN-marking queues to matter).
    pub ecn: bool,
    /// Delay before each non-initial subflow joins (the MP_JOIN handshake
    /// takes about one RTT in a real connection). Subflow 0 starts at once.
    pub join_delay: SimDuration,
    /// Failover: after this many consecutive RTO backoffs on a subflow,
    /// reinject its unacknowledged DSN ranges on the other subflows
    /// (0 disables reinjection).
    pub reinject_after_backoffs: u32,
    /// Additional uniform random jitter on each join (models handshake
    /// timing noise; gives distinct seeds distinct trajectories).
    pub join_jitter: SimDuration,
    /// Sample every subflow's congestion state at this interval (for cwnd
    /// dynamics plots); `None` disables tracing.
    pub cwnd_trace_interval: Option<SimDuration>,
}

/// One sample of a subflow's congestion state.
#[derive(Debug, Clone, Copy)]
pub struct CwndSample {
    /// Sample time.
    pub time: SimTime,
    /// Subflow index (creation order: 0 = default path's subflow).
    pub subflow: usize,
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// Slow-start threshold, bytes (`u64::MAX` = still unlimited).
    pub ssthresh: u64,
    /// Smoothed RTT, if sampled.
    pub srtt: Option<SimDuration>,
    /// Bytes in flight.
    pub flight: u64,
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
            mss: 1460,
            initial_cwnd_segments: 10,
            sack: true,
            ecn: false,
            join_delay: SimDuration::from_millis(100),
            join_jitter: SimDuration::from_millis(20),
            reinject_after_backoffs: 2,
            cwnd_trace_interval: None,
        }
    }
}

/// Connection-level sender statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MptcpSenderStats {
    /// DSN bytes assigned to subflows (excludes redundant copies).
    pub bytes_scheduled: u64,
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
    flow_hash: u64,
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

/// The MPTCP sender agent.
///
/// Note on `Clone`: the derived clone is *shallow* with respect to the
/// coupled congestion state — every coupled subflow controller of the clone
/// still points at the original's `CoupleState`. Checkpointing must go
/// through [`Agent::clone_boxed`], which deep-copies that state and
/// re-binds each controller.
#[derive(Clone)]
pub struct MptcpSenderAgent {
    cfg: MptcpConfig,
    subs: Vec<Sub>,
    scheduler: Box<dyn Scheduler>,
    coupling: Coupling,
    /// Next connection-level DSN to assign.
    dsn_next: u64,
    /// Remaining application bytes (`None` = unlimited).
    remaining: Option<u64>,
    /// DSN ranges awaiting reinjection on a healthy subflow.
    pending_reinject: std::collections::VecDeque<(u64, u64)>,
    /// Congestion-state samples (when tracing is enabled).
    cwnd_trace: Vec<CwndSample>,
    /// `pump`'s view of the active subflows, rebuilt before every
    /// scheduling decision in this one buffer (sized for every subflow at
    /// construction, so the send path never allocates for it; released
    /// when the connection completes).
    snapshots: Vec<SubflowSnapshot>,
    stats: MptcpSenderStats,
    rx_malformed: u64,
}

impl MptcpSenderAgent {
    /// Build the agent; subflow controllers share one coupling state.
    pub fn new(cfg: MptcpConfig) -> Self {
        assert!(!cfg.subflows.is_empty(), "need at least one subflow");
        let coupling = Coupling::new();
        let scheduler = cfg.scheduler.build();
        let initial_cwnd = cfg.initial_cwnd_segments as u64 * cfg.mss as u64;
        let subs: Vec<Sub> = cfg
            .subflows
            .iter()
            .map(|sc| {
                let tcp_cfg = TcpConfig {
                    mss: cfg.mss,
                    src_port: sc.src_port,
                    dst_port: sc.dst_port,
                    initial_cwnd,
                    sack: cfg.sack,
                    ecn: cfg.ecn,
                    ..Default::default()
                };
                let cc = coupling.make_cc(cfg.algo, initial_cwnd, cfg.mss);
                Sub {
                    cfg: sc.clone(),
                    sender: TcpSender::new(tcp_cfg, cc),
                    maps: MappingTable::new(),
                    flow_hash: flow_hash(sc.src_port, sc.dst_port),
                    armed: None,
                    active: false,
                    failed: false,
                }
            })
            .collect();
        let remaining = match cfg.app {
            AppSource::Unlimited => None,
            AppSource::Fixed(n) => Some(n),
            AppSource::Paced { .. } => {
                unimplemented!("paced sources are single-path only; use AppSource::Unlimited")
            }
        };
        MptcpSenderAgent {
            cfg,
            snapshots: Vec::with_capacity(subs.len()),
            subs,
            scheduler,
            coupling,
            dsn_next: 0,
            remaining,
            pending_reinject: Default::default(),
            cwnd_trace: Vec::new(),
            stats: MptcpSenderStats::default(),
            rx_malformed: 0,
        }
    }

    /// Connection-level statistics.
    pub fn stats(&self) -> &MptcpSenderStats {
        &self.stats
    }

    /// Congestion-state samples (empty unless tracing was enabled).
    pub fn cwnd_trace(&self) -> &[CwndSample] {
        &self.cwnd_trace
    }

    /// Packets dropped on arrival because their payload did not decode,
    /// acknowledged a port no subflow of this connection owns, or carried
    /// an acknowledgement number from before the start of the stream.
    pub fn rx_malformed(&self) -> u64 {
        self.rx_malformed
    }

    /// The underlying TCP sender of subflow `i` (inspection).
    pub fn subflow_sender(&self, i: usize) -> &TcpSender {
        &self.subs[i].sender
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
    fn eligible(&self, i: usize) -> bool {
        let s = &self.subs[i].sender;
        self.subs[i].active
            && !self.subs[i].failed
            && s.app_backlog() == 0
            && s.flight_size() < s.send_window()
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

    fn snapshot(&self, i: usize) -> SubflowSnapshot {
        let s = &self.subs[i].sender;
        SubflowSnapshot {
            idx: i,
            srtt: s.rtt().srtt(),
            cwnd: s.cc().cwnd(),
            flight: s.flight_size(),
            eligible: self.eligible(i),
        }
    }

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

    /// Drain every subflow's sendable segments into the network, attaching
    /// DSS options (splitting at mapping boundaries).
    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.subs.len() {
            let now = ctx.now();
            while let Some(tx) = self.subs[i].sender.poll_segment(now) {
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
                    ctx.send_ecn(
                        self.cfg.dst,
                        self.subs[i].cfg.tag,
                        Protocol::Tcp,
                        seg.encode(),
                        piece_len,
                        self.subs[i].flow_hash,
                        ecn,
                    );
                    done += piece_len;
                }
            }
        }
    }

    /// Allocate chunks while any subflow has space, then drain.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let mut snapshots = std::mem::take(&mut self.snapshots);
        loop {
            self.drain(ctx);
            if self.remaining == Some(0) {
                break;
            }
            snapshots.clear();
            snapshots.extend(
                (0..self.subs.len())
                    .filter(|&i| self.subs[i].active)
                    .map(|i| self.snapshot(i)),
            );
            if !snapshots.iter().any(|s| s.eligible) {
                break;
            }
            // Failover reinjections take priority over fresh data.
            let reinject = self.pending_reinject.front().copied();
            let (dsn, chunk, is_reinject) = match reinject {
                Some((dsn, len)) => (dsn, len.min(self.cfg.mss as u64), true),
                None => {
                    let chunk = match self.remaining {
                        None => self.cfg.mss as u64,
                        Some(rem) => rem.min(self.cfg.mss as u64),
                    };
                    (self.dsn_next, chunk, false)
                }
            };
            match self.scheduler.assign(&snapshots) {
                Assignment::None => break,
                Assignment::One(i) => {
                    self.allocate_chunk_to(i, dsn, chunk);
                }
                Assignment::Replicate(list) => {
                    debug_assert!(!list.is_empty());
                    for &i in &list {
                        self.allocate_chunk_to(i, dsn, chunk);
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
                self.stats.bytes_scheduled += chunk;
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
    /// give back what only a live connection reads: each subflow's
    /// [`TcpSender::release_finished`] and the scheduling scratch. Counters
    /// and every `subflow_sender(i)` stay readable. Called after every
    /// `pump` of a complete connection (a late duplicate ACK can put an RTT
    /// sample back); all of it is a no-op the second time.
    fn release_finished(&mut self) {
        for sub in &mut self.subs {
            sub.sender.release_finished();
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

/// Timer-token namespace for subflow activations (below this are RTOs).
const TOKEN_JOIN_BASE: u64 = 1 << 32;
/// Timer token for periodic cwnd sampling.
const TOKEN_TRACE: u64 = 1 << 33;

impl Agent for MptcpSenderAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Subflow 0 is the initial subflow; the i-th additional subflow
        // joins after i MP_JOIN-like delays (staggered, plus jitter) — in a
        // real connection address advertisement and joins are sequential.
        self.subs[0].active = true;
        for i in 1..self.subs.len() {
            let jitter_ns = if self.cfg.join_jitter.is_zero() {
                0
            } else {
                ctx.rng.next_below(self.cfg.join_jitter.as_nanos() + 1)
            };
            let delay =
                self.cfg.join_delay.saturating_mul(i as u64) + SimDuration::from_nanos(jitter_ns);
            ctx.set_timer_after(delay, TOKEN_JOIN_BASE + i as u64);
        }
        if let Some(iv) = self.cfg.cwnd_trace_interval {
            ctx.set_timer_after(iv, TOKEN_TRACE);
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
        let Some(sub) = self
            .subs
            .iter_mut()
            .find(|s| s.cfg.src_port == seg.dst_port)
            .filter(|s| s.sender.ack_offset(seg.ack).is_some())
        else {
            self.rx_malformed += 1;
            return;
        };
        sub.sender.on_ack(ctx.now(), &seg);
        // Any ACK proves the path alive again.
        if sub.failed && sub.sender.rtt().backoff() == 0 {
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
        if token == TOKEN_TRACE {
            for (i, sub) in self.subs.iter().enumerate() {
                self.cwnd_trace.push(CwndSample {
                    time: ctx.now(),
                    subflow: i,
                    cwnd: sub.sender.cc().cwnd(),
                    ssthresh: sub.sender.cc().ssthresh(),
                    srtt: sub.sender.rtt().srtt(),
                    flight: sub.sender.flight_size(),
                });
            }
            if let Some(iv) = self.cfg.cwnd_trace_interval {
                ctx.set_timer_after(iv, TOKEN_TRACE);
            }
            return;
        }
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
            sub.sender.on_timer(ctx.now());
            let threshold = self.cfg.reinject_after_backoffs;
            if threshold > 0 && n_subs > 1 && sub.sender.rtt().backoff() >= threshold {
                self.fail_and_reinject(i);
            }
            self.pump(ctx);
        }
    }

    fn name(&self) -> String {
        format!(
            "mptcp.sender[{} subflows, {}]",
            self.subs.len(),
            self.cfg.algo.name()
        )
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn count(&self, counters: &mut SimCounters) {
        for sub in &self.subs {
            sub.sender.count(counters);
        }
        counters.scheduler_picks += self.stats.chunks_assigned;
        counters.rx_malformed += self.rx_malformed;
    }

    fn clone_boxed(&self) -> Box<dyn Agent> {
        // A shallow clone still shares the coupled congestion state with
        // the original through each coupled subflow controller. Deep-copy
        // that state and re-bind those controllers so the branch and the
        // original cannot influence each other; uncoupled controllers own
        // all their state and were cloned whole.
        let mut copy = self.clone();
        copy.coupling = self.coupling.deep_clone();
        if self.cfg.algo.is_coupled() {
            for sub in &mut copy.subs {
                copy.coupling.rebind(sub.sender.cc_mut());
            }
        }
        Box::new(copy)
    }
}
