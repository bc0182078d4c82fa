//! Runtime invariant checking and trace hashing.
//!
//! Static analysis (the `xtask` simlint pass) keeps nondeterminism *sources*
//! out of the code; this module checks the *output*: a stream of
//! [`CaptureRecord`]s either satisfies the simulator's invariants or the
//! run is broken, and two runs of the same scenario with the same seed must
//! produce byte-identical streams.
//!
//! * [`TraceHasher`] — an order-sensitive 64-bit digest (FNV-1a) over every
//!   field of every record. Two runs are "the same" iff their hashes match;
//!   a single reordered, altered or missing record changes the digest.
//! * [`Invariant`] — a streaming check over the record sequence.
//!   [`crate::TraceSink`] feeds a suite record by record as the simulator
//!   emits them; [`check_trace`] feeds it a buffered capture.
//! * Built-ins: [`MonotonicTime`] (capture timestamps never go backwards),
//!   [`UniqueDelivery`] (no packet id is delivered twice — queues and links
//!   must not duplicate traffic), [`SaneSizes`] (a packet's virtual payload
//!   never exceeds its wire size).
//!
//! The sim crates additionally enforce cheap local invariants inline, in
//! every build (event-time monotonicity and packet conservation in
//! `netsim`, `cwnd >= 1 MSS` in `tcpsim`, DSN monotonicity in `mptcpsim`);
//! this module is the trace-level, cross-crate complement.

use netsim::{CaptureKind, CaptureRecord, Ecn, Protocol};
use simbase::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// A violated invariant: which check failed, when, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Name of the invariant that failed (see [`Invariant::name`]).
    pub invariant: &'static str,
    /// Simulated time of the offending record (or end-of-trace time for
    /// end-of-run checks).
    pub time: SimTime,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.invariant, self.time, self.detail)
    }
}

/// A streaming check over a capture-record sequence.
///
/// Implementations see every record once, in order, then get a final
/// [`on_end`](Invariant::on_end) call for whole-trace conditions.
/// [`clone_box`](Invariant::clone_box) because a suite lives inside the
/// simulator's capture sink, which checkpoints deep-copy.
pub trait Invariant {
    /// Stable identifier, used in violation reports.
    fn name(&self) -> &'static str;

    /// Observe one record; return a violation if it breaks the invariant.
    fn on_record(&mut self, rec: &CaptureRecord) -> Option<InvariantViolation>;

    /// Called once after the last record; default: nothing to check.
    fn on_end(&mut self) -> Option<InvariantViolation> {
        None
    }

    /// Deep-copy the check with its accumulated state.
    fn clone_box(&self) -> Box<dyn Invariant>;
}

/// Capture timestamps must be non-decreasing: the simulator appends records
/// as events execute, so a backwards step means the event loop itself ran
/// out of order.
#[derive(Debug, Clone, Default)]
pub struct MonotonicTime {
    last: Option<SimTime>,
}

impl Invariant for MonotonicTime {
    fn name(&self) -> &'static str {
        "monotonic-time"
    }

    fn on_record(&mut self, rec: &CaptureRecord) -> Option<InvariantViolation> {
        let out = match self.last {
            Some(prev) if rec.time < prev => Some(InvariantViolation {
                invariant: self.name(),
                time: rec.time,
                detail: format!(
                    "record time {} precedes previous record at {prev}",
                    rec.time
                ),
            }),
            _ => None,
        };
        self.last = Some(self.last.map_or(rec.time, |p| p.max(rec.time)));
        out
    }

    fn clone_box(&self) -> Box<dyn Invariant> {
        Box::new(self.clone())
    }
}

/// Each packet id is delivered at most once: links and queues may drop or
/// delay packets but never clone them, so a duplicate delivery means the
/// forwarding plane manufactured traffic.
///
/// Packet ids are `(agent << 40) + n`, so the ids an agent's packets are
/// delivered under are contiguous up to drops. The seen-set is therefore a
/// coalescing interval set whose size is O(holes) — one interval per
/// agent plus one per packet lost and not yet "filled in", not one entry
/// per delivery.
#[derive(Debug, Clone, Default)]
pub struct UniqueDelivery {
    /// Disjoint, non-adjacent inclusive id intervals: `start → end`.
    seen: BTreeMap<u64, u64>,
}

impl UniqueDelivery {
    /// Add `id` to the set; false if it was already present.
    fn insert(&mut self, id: u64) -> bool {
        let below = self.seen.range(..=id).next_back().map(|(&s, &e)| (s, e));
        if below.is_some_and(|(_, end)| id <= end) {
            return false;
        }
        // Extend the interval ending just below `id`, or start a new one...
        let start = match below {
            Some((start, end)) if end.checked_add(1) == Some(id) => start,
            _ => id,
        };
        // ...and swallow the interval starting just above it.
        let above = id.checked_add(1).and_then(|next| self.seen.remove(&next));
        self.seen.insert(start, above.unwrap_or(id));
        true
    }
}

impl Invariant for UniqueDelivery {
    fn name(&self) -> &'static str {
        "unique-delivery"
    }

    fn on_record(&mut self, rec: &CaptureRecord) -> Option<InvariantViolation> {
        if rec.kind != CaptureKind::Delivered {
            return None;
        }
        if self.insert(rec.pkt.id) {
            None
        } else {
            Some(InvariantViolation {
                invariant: self.name(),
                time: rec.time,
                detail: format!("packet {} delivered more than once", rec.pkt.id),
            })
        }
    }

    fn clone_box(&self) -> Box<dyn Invariant> {
        Box::new(self.clone())
    }
}

/// A packet's virtual payload length can never exceed its on-wire size:
/// wire size = payload + headers, and headers are non-negative.
#[derive(Debug, Clone, Default)]
pub struct SaneSizes;

impl Invariant for SaneSizes {
    fn name(&self) -> &'static str {
        "sane-sizes"
    }

    fn on_record(&mut self, rec: &CaptureRecord) -> Option<InvariantViolation> {
        if rec.pkt.data_len > rec.pkt.wire_size {
            Some(InvariantViolation {
                invariant: self.name(),
                time: rec.time,
                detail: format!(
                    "packet {}: data_len {} > wire_size {}",
                    rec.pkt.id, rec.pkt.data_len, rec.pkt.wire_size
                ),
            })
        } else {
            None
        }
    }

    fn clone_box(&self) -> Box<dyn Invariant> {
        Box::new(self.clone())
    }
}

/// The default invariant suite for a full-capture trace.
pub fn default_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(MonotonicTime::default()),
        Box::new(UniqueDelivery::default()),
        Box::new(SaneSizes),
    ]
}

/// Feed one record to every invariant, appending any violations to `out`.
pub(crate) fn check_record(
    // simlint: allow(panic-surface, reason = "a slice type in a signature, not an index expression")
    invariants: &mut [Box<dyn Invariant>],
    rec: &CaptureRecord,
    out: &mut Vec<InvariantViolation>,
) {
    for inv in invariants.iter_mut() {
        if let Some(v) = inv.on_record(rec) {
            out.push(v);
        }
    }
}

/// Run every invariant's end-of-trace check, appending any violations.
pub(crate) fn check_end(
    // simlint: allow(panic-surface, reason = "a slice type in a signature, not an index expression")
    invariants: &mut [Box<dyn Invariant>],
    out: &mut Vec<InvariantViolation>,
) {
    for inv in invariants.iter_mut() {
        if let Some(v) = inv.on_end() {
            out.push(v);
        }
    }
}

/// Run `invariants` over `records` and collect every violation, in record
/// order (end-of-trace findings last).
pub fn check_trace(
    records: &[CaptureRecord],
    invariants: &mut [Box<dyn Invariant>],
) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rec in records {
        check_record(invariants, rec, &mut out);
    }
    check_end(invariants, &mut out);
    out
}

/// Order-sensitive FNV-1a 64-bit digest over capture records.
///
/// Why not `std::hash`: `DefaultHasher`'s algorithm is explicitly
/// unspecified and may change between compiler releases, and a determinism
/// harness needs hashes that are comparable across builds. FNV-1a is fixed,
/// trivial, and plenty for change *detection* (this is not a security
/// boundary).
#[derive(Debug, Clone)]
pub struct TraceHasher {
    state: u64,
    records: u64,
}

impl Default for TraceHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher.
    pub fn new() -> Self {
        TraceHasher {
            state: Self::OFFSET,
            records: 0,
        }
    }

    fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold one record into the digest. Every field participates, so any
    /// difference between two runs — timing, routing, ordering, ECN marks —
    /// shows up in the final hash.
    pub fn record(&mut self, rec: &CaptureRecord) {
        self.records += 1;
        self.mix(rec.time.as_nanos());
        self.mix(u64::from(rec.node.0));
        self.mix(match rec.kind {
            CaptureKind::Sent => 0,
            CaptureKind::Forwarded => 1,
            CaptureKind::Delivered => 2,
            CaptureKind::Dropped => 3,
            CaptureKind::Unroutable => 4,
        });
        self.mix(rec.link.map_or(u64::MAX, |l| u64::from(l.0)));
        self.mix(rec.pkt.id);
        self.mix(u64::from(rec.pkt.src.0));
        self.mix(u64::from(rec.pkt.dst.0));
        self.mix(u64::from(rec.pkt.tag.0));
        self.mix(match rec.pkt.protocol {
            Protocol::Tcp => 0,
            Protocol::Raw => 1,
        });
        self.mix(u64::from(rec.pkt.wire_size));
        self.mix(u64::from(rec.pkt.data_len));
        self.mix(match rec.pkt.ecn {
            Ecn::NotEct => 0,
            Ecn::Ect => 1,
            Ecn::Ce => 2,
        });
    }

    /// The digest so far. Folds in the record count, so an empty trace and
    /// a trace whose records happen to cancel are distinguishable.
    pub fn finish(&self) -> u64 {
        let mut tail = self.clone();
        tail.mix(self.records);
        tail.state
    }

    /// Hash a whole slice of records in one call.
    pub fn hash_records(records: &[CaptureRecord]) -> u64 {
        let mut h = TraceHasher::new();
        for r in records {
            h.record(r);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkId, NodeId, PacketMeta, Tag};

    fn rec(t_ns: u64, kind: CaptureKind, id: u64) -> CaptureRecord {
        CaptureRecord {
            time: SimTime::from_nanos(t_ns),
            node: NodeId(3),
            kind,
            link: Some(LinkId(1)),
            pkt: PacketMeta {
                id,
                src: NodeId(0),
                dst: NodeId(3),
                tag: Tag(1),
                protocol: Protocol::Tcp,
                wire_size: 1500,
                data_len: 1448,
                ecn: Ecn::NotEct,
            },
        }
    }

    #[test]
    fn identical_traces_hash_identically() {
        let a = vec![
            rec(1, CaptureKind::Delivered, 1),
            rec(2, CaptureKind::Delivered, 2),
        ];
        let b = a.clone();
        assert_eq!(TraceHasher::hash_records(&a), TraceHasher::hash_records(&b));
    }

    #[test]
    fn any_field_change_changes_hash() {
        let base = vec![rec(1, CaptureKind::Delivered, 1)];
        let h0 = TraceHasher::hash_records(&base);

        let mut t = base.clone();
        t[0].time = SimTime::from_nanos(2);
        assert_ne!(h0, TraceHasher::hash_records(&t));

        let mut k = base.clone();
        k[0].kind = CaptureKind::Dropped;
        assert_ne!(h0, TraceHasher::hash_records(&k));

        let mut p = base.clone();
        p[0].pkt.wire_size = 1400;
        assert_ne!(h0, TraceHasher::hash_records(&p));

        let mut e = base;
        e[0].pkt.ecn = Ecn::Ce;
        assert_ne!(h0, TraceHasher::hash_records(&e));
    }

    #[test]
    fn order_matters() {
        let a = vec![
            rec(1, CaptureKind::Delivered, 1),
            rec(1, CaptureKind::Delivered, 2),
        ];
        let b = vec![
            rec(1, CaptureKind::Delivered, 2),
            rec(1, CaptureKind::Delivered, 1),
        ];
        assert_ne!(TraceHasher::hash_records(&a), TraceHasher::hash_records(&b));
    }

    #[test]
    fn empty_and_nonempty_differ() {
        assert_ne!(
            TraceHasher::hash_records(&[]),
            TraceHasher::hash_records(&[rec(0, CaptureKind::Sent, 0)])
        );
    }

    #[test]
    fn monotonic_time_flags_backwards_step() {
        let trace = vec![
            rec(5, CaptureKind::Delivered, 1),
            rec(3, CaptureKind::Delivered, 2),
            rec(6, CaptureKind::Delivered, 3),
        ];
        let v = check_trace(&trace, &mut [Box::new(MonotonicTime::default())]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "monotonic-time");
        assert_eq!(v[0].time, SimTime::from_nanos(3));
    }

    #[test]
    fn monotonic_time_accepts_equal_timestamps() {
        let trace = vec![
            rec(5, CaptureKind::Delivered, 1),
            rec(5, CaptureKind::Delivered, 2),
        ];
        assert!(check_trace(&trace, &mut [Box::new(MonotonicTime::default())]).is_empty());
    }

    #[test]
    fn unique_delivery_flags_duplicates() {
        let trace = vec![
            rec(1, CaptureKind::Delivered, 7),
            rec(2, CaptureKind::Forwarded, 7), // same id elsewhere is fine
            rec(3, CaptureKind::Delivered, 7), // second delivery is not
        ];
        let v = check_trace(&trace, &mut [Box::new(UniqueDelivery::default())]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "unique-delivery");
    }

    fn deliveries(ids: &[u64]) -> (Vec<bool>, UniqueDelivery) {
        let mut inv = UniqueDelivery::default();
        let fresh = ids
            .iter()
            .map(|&id| inv.on_record(&rec(1, CaptureKind::Delivered, id)).is_none())
            .collect();
        (fresh, inv)
    }

    #[test]
    fn unique_delivery_in_order_ids_coalesce_to_one_interval() {
        let (fresh, inv) = deliveries(&[10, 11, 12, 13]);
        assert_eq!(fresh, [true; 4]);
        assert_eq!(inv.seen.iter().collect::<Vec<_>>(), [(&10, &13)]);
    }

    #[test]
    fn unique_delivery_out_of_order_ids_merge_when_the_hole_fills() {
        let (fresh, inv) = deliveries(&[5, 7, 9, 8]);
        assert_eq!(fresh, [true; 4]);
        assert_eq!(inv.seen.iter().collect::<Vec<_>>(), [(&5, &5), (&7, &9)]);
        let (fresh, inv) = deliveries(&[5, 7, 6]);
        assert_eq!(fresh, [true; 3]);
        assert_eq!(inv.seen.iter().collect::<Vec<_>>(), [(&5, &7)]);
    }

    #[test]
    fn unique_delivery_flags_duplicate_inside_an_interval() {
        let (fresh, inv) = deliveries(&[1, 2, 3, 4, 5, 3]);
        assert_eq!(fresh, [true, true, true, true, true, false]);
        assert_eq!(inv.seen.iter().collect::<Vec<_>>(), [(&1, &5)]);
    }

    #[test]
    fn unique_delivery_flags_duplicate_at_an_interval_edge() {
        let (fresh, _) = deliveries(&[4, 5, 6, 4, 6, 7, 3]);
        assert_eq!(fresh, [true, true, true, false, false, true, true]);
        let (fresh, inv) = deliveries(&[u64::MAX, u64::MAX - 1, u64::MAX, 0, 0]);
        assert_eq!(fresh, [true, true, false, true, false]);
        assert_eq!(
            inv.seen.iter().collect::<Vec<_>>(),
            [(&0, &0), (&(u64::MAX - 1), &u64::MAX)]
        );
    }

    #[test]
    fn sane_sizes_flags_payload_exceeding_wire() {
        let mut bad = rec(1, CaptureKind::Sent, 1);
        bad.pkt.data_len = bad.pkt.wire_size + 1;
        let v = check_trace(&[bad], &mut [Box::new(SaneSizes)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "sane-sizes");
    }

    #[test]
    fn default_suite_passes_clean_trace() {
        let trace = vec![
            rec(1, CaptureKind::Sent, 1),
            rec(2, CaptureKind::Forwarded, 1),
            rec(3, CaptureKind::Delivered, 1),
        ];
        assert!(check_trace(&trace, &mut default_invariants()).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// The interval set gives the verdict a plain set of every delivered
        /// id gives, delivery by delivery.
        #[test]
        fn interval_set_matches_btreeset_oracle(
            ids in proptest::collection::vec((0u64..3, 0u64..40), 0..200)
        ) {
            let mut set = UniqueDelivery::default();
            let mut oracle = BTreeSet::new();
            for (agent, n) in ids {
                let id = (agent << 40) + n;
                prop_assert_eq!(set.insert(id), oracle.insert(id));
            }
            // Disjoint and non-adjacent: as coalesced as it can be.
            let spans: Vec<(u64, u64)> = set.seen.iter().map(|(&s, &e)| (s, e)).collect();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 + 1 < w[1].0);
            }
            let covered: u64 = spans.iter().map(|(s, e)| e - s + 1).sum();
            prop_assert_eq!(covered, oracle.len() as u64);
        }
    }
}
