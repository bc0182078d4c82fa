//! The streaming measurement sink.
//!
//! [`TraceSink`] is the [`CaptureSink`] measurement runs install in the
//! simulator: every capture record is folded into the trace hash, checked
//! against the invariant suite and counted into the sampler's bins the
//! moment it is emitted, then forgotten. What a run keeps is O(bins) — plus
//! [`Invariants`]' O(holes) delivered-id interval set when checks are on —
//! instead of O(packets).
//!
//! The three accumulators are the same ones the buffered helpers
//! ([`TraceHasher::hash_records`], [`crate::check_trace`],
//! [`ThroughputSampler::from_records`]) loop over, so a streamed run and a
//! buffered-then-processed run agree bit for bit by construction.

use crate::invariant::{InvariantViolation, Invariants, TraceHasher};
use crate::sampler::{SamplerConfig, TagBins, ThroughputSampler};
use netsim::{CaptureRecord, CaptureSink, Tag};

/// Hash always; invariants and sampler when asked for.
#[derive(Clone)]
pub struct TraceSink {
    hasher: TraceHasher,
    invariants: Option<Invariants>,
    violations: Vec<InvariantViolation>,
    bins: Option<TagBins>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// A hash-only sink.
    pub fn new() -> Self {
        TraceSink {
            hasher: TraceHasher::new(),
            invariants: None,
            violations: Vec::new(),
            bins: None,
        }
    }

    /// Builder-style: also check every record against the invariant suite.
    pub fn with_invariants(mut self) -> Self {
        self.invariants = Some(Invariants::default());
        self
    }

    /// Builder-style: also bin deliveries per tag according to `cfg`.
    pub fn with_sampler(mut self, cfg: SamplerConfig) -> Self {
        self.bins = Some(TagBins::new(cfg));
        self
    }

    /// The trace hash of everything recorded so far.
    pub fn hash(&self) -> u64 {
        self.hasher.finish()
    }

    /// Every violation found so far, in record order.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// The sampled series so far (`None` without a sampler).
    pub fn sampler(&self) -> Option<ThroughputSampler> {
        self.bins.as_ref().map(TagBins::finish)
    }

    /// Wire bytes the sampler counted for `tag` (0 without a sampler).
    pub fn tag_bytes(&self, tag: Tag) -> u64 {
        self.bins.as_ref().map_or(0, |b| b.tag_bytes(tag))
    }
}

impl CaptureSink for TraceSink {
    fn record(&mut self, rec: &CaptureRecord) {
        self.hasher.record(rec);
        if let Some(invariants) = &mut self.invariants {
            invariants.on_record(rec, &mut self.violations);
        }
        if let Some(bins) = &mut self.bins {
            bins.record(rec);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::invariant::{check_trace, default_invariants};
    use netsim::{CaptureKind, Ecn, LinkId, NodeId, PacketMeta, Protocol};
    use proptest::prelude::*;
    use simbase::{SimDuration, SimTime};

    const KINDS: [CaptureKind; 5] = [
        CaptureKind::Sent,
        CaptureKind::Forwarded,
        CaptureKind::Delivered,
        CaptureKind::Dropped,
        CaptureKind::Unroutable,
    ];

    /// One record from small domains, so streams hit duplicate ids, time
    /// regressions (times are not sorted), tags that were not pre-seeded,
    /// records at and after the horizon, and payload > wire size.
    fn record() -> impl Strategy<Value = CaptureRecord> {
        (
            0u64..=26,
            0usize..5,
            0u32..3,
            0u64..12,
            0u16..5,
            (0u32..3, 0u32..3),
        )
            .prop_map(|(t, kind, node, id, tag, (wire, data))| CaptureRecord {
                // 0, 10, …, 260 ms: 250 ms is the horizon, 200–250 the partial bin.
                time: SimTime::from_millis(t * 10),
                node: NodeId(node),
                kind: KINDS[kind],
                link: (node == 1).then_some(LinkId(node)),
                pkt: PacketMeta {
                    id,
                    src: NodeId(0),
                    dst: NodeId(2),
                    tag: Tag(tag),
                    protocol: Protocol::Tcp,
                    wire_size: 500 * wire,
                    data_len: 500 * data,
                    ecn: Ecn::NotEct,
                },
            })
    }

    proptest! {
        /// Fed record by record, the sink yields what the three buffered
        /// helpers yield on the buffered copy of the same stream.
        #[test]
        fn streamed_equals_buffered(records in proptest::collection::vec(record(), 0..120)) {
            // 250 ms horizon at 100 ms bins: a partial last bin; only tags
            // 1 and 2 are pre-seeded.
            let cfg = SamplerConfig::tshark_like(
                NodeId(2),
                SimDuration::from_millis(100),
                SimTime::from_millis(250),
            )
            .with_tags([Tag(1), Tag(2)]);
            let mut sink = TraceSink::new()
                .with_invariants()
                .with_sampler(cfg.clone());
            for r in &records {
                sink.record(r);
            }

            prop_assert_eq!(sink.hash(), TraceHasher::hash_records(&records));
            prop_assert_eq!(
                sink.violations(),
                check_trace(&records, &mut default_invariants())
            );
            let streamed = sink.sampler().expect("sampler configured");
            let buffered = ThroughputSampler::from_records(&records, &cfg);
            prop_assert_eq!(streamed.packets, buffered.packets);
            prop_assert_eq!(streamed.bytes, buffered.bytes);
            prop_assert_eq!(&streamed.per_tag, &buffered.per_tag);
            prop_assert_eq!(&streamed.total, &buffered.total);
            let by_tag: u64 = buffered.per_tag.keys().map(|&t| sink.tag_bytes(t)).sum();
            prop_assert_eq!(by_tag, buffered.bytes);
        }
    }

    #[test]
    fn empty_stream_matches_the_buffered_helpers() {
        let cfg = SamplerConfig::tshark_like(
            NodeId(2),
            SimDuration::from_millis(100),
            SimTime::from_secs(1),
        );
        let sink = TraceSink::new().with_invariants().with_sampler(cfg.clone());
        assert_eq!(sink.hash(), TraceHasher::hash_records(&[]));
        assert!(sink.violations().is_empty());
        let s = sink.sampler().expect("sampler configured");
        assert_eq!(s.total, ThroughputSampler::from_records(&[], &cfg).total);
        assert!(s.per_tag.is_empty());
        assert!(TraceSink::new().sampler().is_none());
    }

    #[test]
    fn a_cloned_sink_continues_independently() {
        let rec = |t, id| CaptureRecord {
            time: SimTime::from_millis(t),
            node: NodeId(2),
            kind: CaptureKind::Delivered,
            link: None,
            pkt: PacketMeta {
                id,
                src: NodeId(0),
                dst: NodeId(2),
                tag: Tag(1),
                protocol: Protocol::Tcp,
                wire_size: 1500,
                data_len: 1448,
                ecn: Ecn::NotEct,
            },
        };
        let mut a = TraceSink::new().with_invariants();
        a.record(&rec(1, 7));
        let mut b = a.clone();
        // The copy carries the seen-set: a second delivery of id 7 is caught.
        b.record(&rec(2, 7));
        assert_eq!(b.violations().len(), 1);
        assert!(a.violations().is_empty());
        assert_ne!(a.hash(), b.hash());
    }
}
