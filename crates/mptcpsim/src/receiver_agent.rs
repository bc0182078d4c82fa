//! The MPTCP receiver endpoint.
//!
//! One `tcpsim::TcpReceiver` per subflow (created lazily as subflows
//! appear, keyed by the peer's source port — ndiffports semantics), plus a
//! connection-level [`IntervalSet`] reassembling the DSN space from the DSS
//! options. Every subflow-level ACK carries a connection-level data ACK.
//! Duplicate DSNs (redundant scheduler, retransmissions after reinjection)
//! are absorbed by the interval set.

use crate::dsn::IntervalSet;
use netsim::{Agent, Ctx, NodeId, Packet, Protocol, SimCounters, Tag};
use tcpsim::wire::{DssOption, TcpSegment};
use tcpsim::{ReceiverConfig, TcpReceiver};

/// Connection-level receiver statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MptcpReceiverStats {
    /// Connection-level bytes delivered in order (DSN prefix).
    pub bytes_in_order: u64,
    /// DSN bytes that arrived as duplicates (redundant copies, spurious
    /// retransmissions).
    pub duplicate_bytes: u64,
    /// Data segments received across all subflows.
    pub segments: u64,
}

/// The MPTCP receiver agent.
#[derive(Clone)]
pub struct MptcpReceiverAgent {
    /// Advertised window per subflow, bytes.
    window: u32,
    /// Generate SACK blocks on subflow ACKs.
    sack: bool,
    /// Per-subflow receivers, keyed by the peer's source port and kept
    /// sorted by it: any traversal (stats, teardown) is in port order,
    /// never in a per-process hash order (simlint: hash-iter). A connection
    /// has a handful of subflows, so a sorted `Vec` searched by bisection is
    /// the whole map; a B-tree would spend a 1.9 KB leaf on two entries.
    subs: Vec<(u16, TcpReceiver)>,
    /// Connection-level DSN reassembly.
    conn: IntervalSet,
    stats: MptcpReceiverStats,
    rx_malformed: u64,
}

impl Default for MptcpReceiverAgent {
    fn default() -> Self {
        Self::new(4 << 20)
    }
}

impl MptcpReceiverAgent {
    /// Create with the given per-subflow advertised window.
    pub fn new(window: u32) -> Self {
        MptcpReceiverAgent {
            window,
            sack: true,
            subs: Vec::new(),
            conn: IntervalSet::new(),
            stats: MptcpReceiverStats::default(),
            rx_malformed: 0,
        }
    }

    /// Disable SACK generation (NewReno ablation).
    pub fn without_sack(mut self) -> Self {
        self.sack = false;
        self
    }

    /// Connection-level statistics.
    pub fn stats(&self) -> &MptcpReceiverStats {
        &self.stats
    }

    /// Packets dropped on arrival because their payload did not decode, or
    /// decoded to a subflow sequence number from before the start of its
    /// stream or a DSS mapping running past the end of the DSN space.
    pub fn rx_malformed(&self) -> u64 {
        self.rx_malformed
    }

    /// The connection-level in-order delivery point (next expected DSN).
    pub fn data_delivered(&self) -> u64 {
        self.conn.next_expected()
    }

    /// Number of subflows seen so far.
    pub fn subflow_count(&self) -> usize {
        self.subs.len()
    }

    /// Bytes buffered out-of-order at connection level.
    pub fn reorder_buffer_bytes(&self) -> u64 {
        self.conn.pending_bytes()
    }
}

impl Agent for MptcpReceiverAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let Ok(seg) = TcpSegment::decode(&pkt.payload) else {
            self.rx_malformed += 1;
            return;
        };
        // A DSS mapping that runs past the end of the DSN space is wild
        // input, like a sequence number from before the start of its
        // subflow's stream (below): counted, and nothing else happens.
        let mapping = match seg
            .dss
            .as_ref()
            .and_then(|dss| Some((dss.dsn?, dss.data_len)))
        {
            None => None,
            Some((dsn, len)) => {
                let Some(end) = dsn.checked_add(len as u64) else {
                    self.rx_malformed += 1;
                    return;
                };
                Some((dsn, end))
            }
        };
        let at = match self.subs.binary_search_by_key(&seg.src_port, |s| s.0) {
            Ok(at) if self.subs[at].1.stream_offset(seg.seq).is_some() => at, // simlint: allow(panic-surface, reason = "`at` is where the search found the subflow")
            Ok(_) => {
                self.rx_malformed += 1;
                return;
            }
            Err(at) => {
                let receiver = TcpReceiver::new(ReceiverConfig {
                    src_port: seg.dst_port,
                    dst_port: seg.src_port,
                    window: self.window,
                    sack: self.sack,
                    ..Default::default()
                });
                if receiver.stream_offset(seg.seq).is_none() {
                    self.rx_malformed += 1;
                    return;
                }
                // Exact fit: a connection has as many receivers as subflows
                // ever joined, not the next power of two.
                self.subs.reserve_exact(1);
                self.subs.insert(at, (seg.src_port, receiver));
                at
            }
        };
        self.stats.segments += 1;

        // Connection-level reassembly from the DSS mapping.
        if let Some((dsn, end)) = mapping {
            let new = self.conn.insert(dsn, end);
            self.stats.duplicate_bytes += (end - dsn) - new;
        }
        self.stats.bytes_in_order = self.conn.next_expected();

        // Subflow-level ACK, carrying the data ACK.
        let ce = pkt.ecn == netsim::packet::Ecn::Ce;
        // simlint: allow(panic-surface, reason = "`at` is where the search found, or this call inserted, the subflow")
        let sub = &mut self.subs[at].1;
        if let Some(mut ack) = sub.on_data_ecn(ctx.now(), &seg, pkt.data_len, ce) {
            ack.dss = Some(DssOption {
                data_ack: Some(self.conn.next_expected()),
                dsn: None,
                subflow_seq: 0,
                data_len: 0,
            });
            // The data ACK competes with SACK blocks for option space.
            ack.trim_sack_to_fit();
            ctx.send(
                pkt.src,
                pkt.tag,
                Protocol::Tcp,
                ack.encode(),
                0,
                pkt.flow_hash,
            );
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {
        // Quickack mode: no delayed-ACK timers at the MPTCP receiver.
    }

    fn name(&self) -> String {
        format!("mptcp.receiver[{} subflows]", self.subs.len())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn count(&self, counters: &mut SimCounters) {
        let most = self
            .subs
            .iter()
            .map(|(_, sub)| sub.max_ooo_ranges())
            .fold(self.conn.max_pending_ranges(), usize::max);
        counters.range_set_max_len = counters.range_set_max_len.max(most as u64);
        counters.rx_malformed += self.rx_malformed;
    }

    fn clone_boxed(&self) -> Box<dyn Agent> {
        Box::new(self.clone())
    }
}

/// Install tag routes for a set of MPTCP subflow paths and return the
/// subflow configurations that pin each subflow to its path — the paper's
/// modified-ndiffports workflow in one call.
///
/// Subflow `i` gets tag `base_tag + i`, source port `base_port + i`, and
/// destination port `base_port + 1000 + i`.
pub fn install_subflows(
    routing: &mut netsim::RoutingTables,
    paths: &[netsim::Path],
    base_tag: u16,
    base_port: u16,
) -> Vec<crate::sender_agent::SubflowConfig> {
    assert!(base_tag > 0, "tags must be nonzero");
    paths
        .iter()
        .enumerate()
        .map(|(i, p)| {
            // Subflow counts are tiny (the paper uses at most a handful);
            // saturating keeps the conversion total.
            let i = u16::try_from(i).unwrap_or(u16::MAX);
            let tag = Tag(base_tag + i);
            routing.install_path(p, tag);
            crate::sender_agent::SubflowConfig {
                tag,
                src_port: base_port + i,
                dst_port: base_port + 1000 + i,
            }
        })
        .collect()
}

/// Convenience: the destination node of a path set (all paths must agree).
pub fn common_destination(paths: &[netsim::Path]) -> NodeId {
    let dst = paths[0].dst();
    assert!(
        paths.iter().all(|p| p.dst() == dst),
        "paths must share a destination"
    );
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{AgentId, Effect};
    use simbase::{SimTime, Xoshiro256StarStar};
    use tcpsim::SeqNum;

    #[test]
    fn subflows_stay_sorted_by_port_whatever_order_they_join_in() {
        let mut agent = MptcpReceiverAgent::default();
        let mut rng = Xoshiro256StarStar::new(1);
        let mut effects = Vec::new();
        let mut next_id = 0;
        // One 100-byte segment per subflow, then a second on the first one.
        for (i, port) in [5002u16, 5000, 5001, 5002].into_iter().enumerate() {
            let seg = TcpSegment {
                src_port: port,
                dst_port: port + 1000,
                seq: SeqNum::from_offset(
                    ReceiverConfig::default().peer_isn,
                    if i == 3 { 100 } else { 0 },
                ),
                dss: Some(DssOption {
                    data_ack: None,
                    dsn: Some(i as u64 * 100),
                    subflow_seq: 0,
                    data_len: 100,
                }),
                ..Default::default()
            };
            let pkt = Packet {
                id: i as u64,
                src: NodeId(0),
                dst: NodeId(1),
                tag: Tag(1),
                protocol: Protocol::Tcp,
                payload: seg.encode(),
                data_len: 100,
                flow_hash: u64::from(port),
                ecn: netsim::packet::Ecn::NotEct,
            };
            let mut ctx = Ctx::new(
                SimTime::from_millis(i as u64),
                NodeId(1),
                AgentId(0),
                &mut rng,
                &mut effects,
                &mut next_id,
            );
            agent.on_packet(&mut ctx, pkt);
        }
        assert_eq!(agent.subflow_count(), 3);
        let ports: Vec<u16> = agent.subs.iter().map(|s| s.0).collect();
        assert_eq!(ports, [5000, 5001, 5002]);
        // Each subflow's receiver took its own bytes; the second segment on
        // 5002 found the receiver the first one created.
        let delivered: Vec<u64> = agent.subs.iter().map(|s| s.1.delivered()).collect();
        assert_eq!(delivered, [100, 100, 200]);
        assert_eq!(agent.data_delivered(), 400);
        // One ACK per segment, each from its own subflow's port pair.
        let acks: Vec<u16> = effects
            .iter()
            .map(|e| match e {
                Effect::Send(p) => TcpSegment::decode(&p.payload).unwrap().dst_port,
                other => panic!("unexpected effect {other:?}"),
            })
            .collect();
        assert_eq!(acks, [5002, 5000, 5001, 5002]);
    }
}
