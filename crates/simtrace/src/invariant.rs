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
//! * [`Invariants`] — the suite of streaming checks over the record
//!   sequence: capture timestamps never go backwards, no packet id is
//!   delivered twice (queues and links must not duplicate traffic), and a
//!   packet's virtual payload never exceeds its wire size.
//!   [`crate::TraceSink`] feeds it record by record as the simulator emits
//!   them; [`check_trace`] feeds it a buffered capture.
//!
//! The sim crates additionally enforce cheap local invariants inline, in
//! every build (event-time monotonicity and packet conservation in
//! `netsim`, `cwnd >= 1 MSS` in `tcpsim`, DSN monotonicity in `mptcpsim`);
//! this module is the trace-level, cross-crate complement.

use netsim::{CaptureKind, CaptureRecord, Ecn, Protocol};
use simbase::{Fnv64, SimTime};
use std::fmt;

/// A violated invariant: which check failed, when, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Name of the invariant that failed: `monotonic-time`,
    /// `unique-delivery` or `sane-sizes` (see [`Invariants`]).
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

/// The trace-level invariant suite, streamed over a capture-record
/// sequence. Each record is checked, in this order, against:
///
/// * `monotonic-time` — capture timestamps are non-decreasing: the
///   simulator appends records as events execute, so a backwards step means
///   the event loop itself ran out of order;
/// * `unique-delivery` — each packet id is delivered at most once: links
///   and queues may drop or delay packets but never clone them, so a
///   duplicate delivery means the forwarding plane manufactured traffic;
/// * `sane-sizes` — a packet's virtual payload length never exceeds its
///   wire size (wire size = payload + headers).
///
/// Packet ids are `(agent << 40) + n`, so the ids an agent's packets are
/// delivered under are contiguous up to drops. The delivered set is
/// therefore a coalescing interval set whose size is O(holes) — one
/// interval per agent plus one per packet lost and not yet "filled in", not
/// one entry per delivery. It is a sorted vector: a delivery finds its
/// neighbours by binary search and, in the common in-order case, extends
/// one interval in place.
///
/// A value, because the suite lives inside the simulator's capture sink,
/// which checkpoints deep-copy.
#[derive(Debug, Clone, Default)]
pub struct Invariants {
    /// Latest capture time seen.
    last: Option<SimTime>,
    /// Delivered ids: disjoint, non-adjacent inclusive intervals
    /// `(start, end)`, sorted by start.
    seen: Vec<(u64, u64)>,
}

impl Invariants {
    /// Check one record, appending what it violates to `out`.
    pub fn on_record(&mut self, rec: &CaptureRecord, out: &mut Vec<InvariantViolation>) {
        let mut fail = |invariant, detail| {
            out.push(InvariantViolation {
                invariant,
                time: rec.time,
                detail,
            })
        };
        if let Some(prev) = self.last.filter(|&prev| rec.time < prev) {
            fail(
                "monotonic-time",
                format!(
                    "record time {} precedes previous record at {prev}",
                    rec.time
                ),
            );
        }
        self.last = Some(self.last.map_or(rec.time, |p| p.max(rec.time)));
        if rec.kind == CaptureKind::Delivered && !self.insert_delivered(rec.pkt.id) {
            fail(
                "unique-delivery",
                format!("packet {} delivered more than once", rec.pkt.id),
            );
        }
        if rec.pkt.data_len > rec.pkt.wire_size {
            fail(
                "sane-sizes",
                format!(
                    "packet {}: data_len {} > wire_size {}",
                    rec.pkt.id, rec.pkt.data_len, rec.pkt.wire_size
                ),
            );
        }
    }

    /// Add `id` to the delivered set; false if it was already present.
    fn insert_delivered(&mut self, id: u64) -> bool {
        // Intervals before `at` start at or below `id`, so only the last of
        // them can hold it or end just below it, and only the one at `at`
        // can start just above it.
        let at = self.seen.partition_point(|&(start, _)| start <= id);
        let below_at = at.checked_sub(1);
        let below_end = below_at.and_then(|b| self.seen.get(b)).map(|&(_, end)| end);
        if below_end.is_some_and(|end| id <= end) {
            return false;
        }
        // The neighbours end below `id` and start above it: no overflow.
        let joins_below = below_end.is_some_and(|end| end + 1 == id);
        let joins_above = self.seen.get(at).is_some_and(|&(start, _)| start - 1 == id);
        match (joins_below, joins_above) {
            // Extend the interval ending just below `id`, swallowing the one
            // starting just above it if `id` was the hole between them.
            (true, above) => {
                let end = if above { self.seen.remove(at).1 } else { id };
                if let Some(below) = below_at.and_then(|b| self.seen.get_mut(b)) {
                    below.1 = end;
                }
            }
            (false, true) => {
                if let Some(above) = self.seen.get_mut(at) {
                    above.0 = id;
                }
            }
            (false, false) => self.seen.insert(at, (id, id)),
        }
        true
    }
}

/// The invariant suite for a full-capture trace, fresh.
pub fn default_invariants() -> Invariants {
    Invariants::default()
}

/// Run `invariants` over `records` and collect every violation, in record
/// order.
pub fn check_trace(
    records: &[CaptureRecord],
    invariants: &mut Invariants,
) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rec in records {
        invariants.on_record(rec, &mut out);
    }
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
    state: Fnv64,
    records: u64,
}

impl Default for TraceHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        TraceHasher {
            state: Fnv64::new(),
            records: 0,
        }
    }

    fn mix(&mut self, v: u64) {
        self.state.write_u64(v);
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
        let mut tail = self.state;
        tail.write_u64(self.records);
        tail.finish()
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

    pub(super) fn rec(t_ns: u64, kind: CaptureKind, id: u64) -> CaptureRecord {
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
        let v = check_trace(&trace, &mut Invariants::default());
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
        assert!(check_trace(&trace, &mut Invariants::default()).is_empty());
    }

    #[test]
    fn unique_delivery_flags_duplicates() {
        let trace = vec![
            rec(1, CaptureKind::Delivered, 7),
            rec(2, CaptureKind::Forwarded, 7), // same id elsewhere is fine
            rec(3, CaptureKind::Delivered, 7), // second delivery is not
        ];
        let v = check_trace(&trace, &mut Invariants::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "unique-delivery");
    }

    fn deliveries(ids: &[u64]) -> (Vec<bool>, Invariants) {
        let mut inv = Invariants::default();
        let fresh = ids
            .iter()
            .map(|&id| check_trace(&[rec(1, CaptureKind::Delivered, id)], &mut inv).is_empty())
            .collect();
        (fresh, inv)
    }

    #[test]
    fn unique_delivery_in_order_ids_coalesce_to_one_interval() {
        let (fresh, inv) = deliveries(&[10, 11, 12, 13]);
        assert_eq!(fresh, [true; 4]);
        assert_eq!(inv.seen, [(10, 13)]);
    }

    #[test]
    fn unique_delivery_out_of_order_ids_merge_when_the_hole_fills() {
        let (fresh, inv) = deliveries(&[5, 7, 9, 8]);
        assert_eq!(fresh, [true; 4]);
        assert_eq!(inv.seen, [(5, 5), (7, 9)]);
        let (fresh, inv) = deliveries(&[5, 7, 6]);
        assert_eq!(fresh, [true; 3]);
        assert_eq!(inv.seen, [(5, 7)]);
    }

    #[test]
    fn unique_delivery_flags_duplicate_inside_an_interval() {
        let (fresh, inv) = deliveries(&[1, 2, 3, 4, 5, 3]);
        assert_eq!(fresh, [true, true, true, true, true, false]);
        assert_eq!(inv.seen, [(1, 5)]);
    }

    #[test]
    fn unique_delivery_flags_duplicate_at_an_interval_edge() {
        let (fresh, _) = deliveries(&[4, 5, 6, 4, 6, 7, 3]);
        assert_eq!(fresh, [true, true, true, false, false, true, true]);
        let (fresh, inv) = deliveries(&[u64::MAX, u64::MAX - 1, u64::MAX, 0, 0]);
        assert_eq!(fresh, [true, true, false, true, false]);
        assert_eq!(inv.seen, [(0, 0), (u64::MAX - 1, u64::MAX)]);
    }

    #[test]
    fn sane_sizes_flags_payload_exceeding_wire() {
        let mut bad = rec(1, CaptureKind::Sent, 1);
        bad.pkt.data_len = bad.pkt.wire_size + 1;
        let v = check_trace(&[bad], &mut Invariants::default());
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
    use super::tests::rec;
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Start → end: the representation the sorted vector replaced.
    type Model = BTreeMap<Id, Id>;
    type Id = u64;

    /// The B-tree insert the sorted vector replaced, kept as the reference.
    fn model_insert(seen: &mut Model, id: u64) -> bool {
        let below = seen.range(..=id).next_back().map(|(&s, &e)| (s, e));
        if below.is_some_and(|(_, end)| id <= end) {
            return false;
        }
        let start = match below {
            Some((start, end)) if end.checked_add(1) == Some(id) => start,
            _ => id,
        };
        let above = id.checked_add(1).and_then(|next| seen.remove(&next));
        seen.insert(start, above.unwrap_or(id));
        true
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The interval set gives the verdict a plain set of every delivered
        /// id gives, delivery by delivery.
        #[test]
        fn interval_set_matches_btreeset_oracle(
            ids in proptest::collection::vec((0u64..3, 0u64..40), 0..200)
        ) {
            let mut set = Invariants::default();
            let mut oracle = BTreeSet::new();
            for (agent, n) in ids {
                let id = (agent << 40) + n;
                prop_assert_eq!(set.insert_delivered(id), oracle.insert(id));
            }
            // Disjoint and non-adjacent: as coalesced as it can be.
            for w in set.seen.windows(2) {
                prop_assert!(w[0].1 + 1 < w[1].0);
            }
            let covered: u64 = set.seen.iter().map(|(s, e)| e - s + 1).sum();
            prop_assert_eq!(covered, oracle.len() as u64);
        }

        /// Over id streams with in-order runs, gaps, holes filled late and
        /// repeats, and forwarded copies of the same ids between them, the
        /// suite reports exactly the violations the B-tree set gave, and
        /// holds the same intervals.
        #[test]
        fn delivered_set_matches_the_btreemap_it_replaced(
            steps in proptest::collection::vec((0usize..3, 0u8..8, 1u64..5, 0u8..4), 0..300)
        ) {
            let mut inv = Invariants::default();
            let mut model = Model::new();
            let mut next = [0u64; 3];
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (t, (agent, op, k, kind)) in steps.into_iter().enumerate() {
                let n = match op {
                    0..=4 => next[agent],
                    5 => next[agent] + k,
                    6 => next[agent].saturating_sub(k),
                    _ => next[agent].saturating_sub(1),
                };
                next[agent] = next[agent].max(n + 1);
                let id = ((agent as u64) << 40) + n;
                let kind = if kind == 0 { CaptureKind::Forwarded } else { CaptureKind::Delivered };
                let r = rec(t as u64, kind, id);
                inv.on_record(&r, &mut got);
                if kind == CaptureKind::Delivered && !model_insert(&mut model, id) {
                    want.push(InvariantViolation {
                        invariant: "unique-delivery",
                        time: r.time,
                        detail: format!("packet {id} delivered more than once"),
                    });
                }
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(inv.seen, model.into_iter().collect::<Vec<_>>());
        }
    }
}
