//! Turning capture records into throughput time series — the simulated
//! tshark post-processing step.
//!
//! The paper: *"we filtered the captured packets based on the tags, to
//! determine how did the MPTCP protocol split them among the subflows"*,
//! sampling at 10 ms or 100 ms. [`ThroughputSampler`] does exactly that:
//! receiver-side `Delivered` records, grouped by tag, binned, and scaled to
//! Mbps of wire throughput.

use crate::series::TimeSeries;
use netsim::{CaptureKind, CaptureRecord, NodeId, Tag};
use simbase::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Configuration for throughput sampling.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Bin width (the paper uses 10 ms and 100 ms).
    pub bin: SimDuration,
    /// Only count deliveries at this node (`None` = any node).
    pub at_node: Option<NodeId>,
    /// Measurement horizon; bins cover `[0, horizon)`.
    pub horizon: SimTime,
    /// Count only packets carrying payload (`true` excludes pure ACKs —
    /// on the receiver side ACKs of the reverse direction would pollute
    /// per-tag accounting).
    pub data_only: bool,
    /// Tags that must get a series even if the capture never delivered a
    /// packet for them. Without pre-seeding, a fully starved subflow
    /// silently vanishes from `per_tag` — and from every per-path report
    /// built on it. Scenario runners should list every registered tag here.
    pub ensure_tags: Vec<Tag>,
}

impl SamplerConfig {
    /// The paper's receiver-side setup.
    pub fn tshark_like(at: NodeId, bin: SimDuration, horizon: SimTime) -> Self {
        SamplerConfig {
            bin,
            at_node: Some(at),
            horizon,
            data_only: true,
            ensure_tags: Vec::new(),
        }
    }

    /// Builder-style: pre-seed a zero series for each of `tags`.
    pub fn with_tags(mut self, tags: impl IntoIterator<Item = Tag>) -> Self {
        self.ensure_tags = tags.into_iter().collect();
        self
    }
}

/// The streaming half of the sampler: per-tag byte counts per bin, fed one
/// record at a time. Memory is O(tags × bins) however many packets pass.
#[derive(Debug, Clone)]
pub struct TagBins {
    cfg: SamplerConfig,
    nbins: usize,
    bytes_per_tag: BTreeMap<Tag, Vec<u64>>,
    packets: u64,
    bytes: u64,
}

impl TagBins {
    /// Empty bins for `cfg`, with every `ensure_tags` entry pre-seeded.
    pub fn new(cfg: SamplerConfig) -> Self {
        let nbins = (cfg.horizon.as_nanos()).div_ceil(cfg.bin.as_nanos()).max(1) as usize;
        let bytes_per_tag = cfg
            .ensure_tags
            .iter()
            .map(|&tag| (tag, vec![0u64; nbins]))
            .collect();
        TagBins {
            cfg,
            nbins,
            bytes_per_tag,
            packets: 0,
            bytes: 0,
        }
    }

    /// Count one record if it passes the configured filters.
    pub fn record(&mut self, r: &CaptureRecord) {
        let cfg = &self.cfg;
        if r.kind != CaptureKind::Delivered
            || cfg.at_node.is_some_and(|node| r.node != node)
            || (cfg.data_only && r.pkt.data_len == 0)
            || r.time >= cfg.horizon
        {
            return;
        }
        let bin = (r.time.as_nanos() / cfg.bin.as_nanos()) as usize;
        let entry = self
            .bytes_per_tag
            .entry(r.pkt.tag)
            .or_insert_with(|| vec![0u64; self.nbins]);
        entry[bin] += r.pkt.wire_size as u64;
        self.packets += 1;
        self.bytes += r.pkt.wire_size as u64;
    }

    /// Wire bytes counted for `tag` over the whole horizon.
    pub fn tag_bytes(&self, tag: Tag) -> u64 {
        self.bytes_per_tag
            .get(&tag)
            .map_or(0, |bins| bins.iter().sum())
    }

    /// Scale the byte counts to Mbps series.
    pub fn finish(&self) -> ThroughputSampler {
        let (cfg, nbins) = (&self.cfg, self.nbins);
        let bin_secs = cfg.bin.as_secs_f64();
        // When the horizon is not a whole number of bins, the final bin only
        // covers `horizon mod bin` of time. Dividing its bytes by the full
        // bin width would under-report the rate over the window the bin
        // actually observed, so scale it by its true width.
        let last_rem_nanos = cfg.horizon.as_nanos() % cfg.bin.as_nanos();
        let last_secs = if last_rem_nanos == 0 {
            bin_secs
        } else {
            SimDuration::from_nanos(last_rem_nanos).as_secs_f64()
        };
        let to_mbps = |i: usize, b: u64| {
            let width = if i + 1 == nbins { last_secs } else { bin_secs };
            (b as f64) * 8.0 / width / 1e6
        };
        let per_tag: BTreeMap<Tag, TimeSeries> = self
            .bytes_per_tag
            .iter()
            .map(|(&tag, bins)| {
                let vals: Vec<f64> = bins
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| to_mbps(i, b))
                    .collect();
                (
                    tag,
                    TimeSeries::new(format!("tag {}", tag.0), SimTime::ZERO, cfg.bin, vals),
                )
            })
            .collect();

        let total = if per_tag.is_empty() {
            TimeSeries::new("Total", SimTime::ZERO, cfg.bin, vec![0.0; nbins])
        } else {
            let refs: Vec<&TimeSeries> = per_tag.values().collect();
            TimeSeries::sum_of("Total", &refs)
        };

        ThroughputSampler {
            per_tag,
            total,
            packets: self.packets,
            bytes: self.bytes,
        }
    }
}

/// Per-tag throughput series extracted from a capture.
#[derive(Debug, Clone)]
pub struct ThroughputSampler {
    /// One series per tag, keyed by tag value, labelled `"tag N"`.
    pub per_tag: BTreeMap<Tag, TimeSeries>,
    /// Element-wise total across tags.
    pub total: TimeSeries,
    /// Packets counted.
    pub packets: u64,
    /// Wire bytes counted.
    pub bytes: u64,
}

impl ThroughputSampler {
    /// Bin a buffered capture according to `cfg`.
    pub fn from_records(records: &[CaptureRecord], cfg: &SamplerConfig) -> Self {
        let mut bins = TagBins::new(cfg.clone());
        for r in records {
            bins.record(r);
        }
        bins.finish()
    }

    /// The series for one tag, if present.
    pub fn tag(&self, tag: Tag) -> Option<&TimeSeries> {
        self.per_tag.get(&tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{PacketMeta, Protocol};

    fn rec(
        time_ms: u64,
        node: u32,
        tag: u16,
        wire: u32,
        data: u32,
        kind: CaptureKind,
    ) -> CaptureRecord {
        CaptureRecord {
            time: SimTime::from_millis(time_ms),
            node: NodeId(node),
            kind,
            link: None,
            pkt: PacketMeta {
                id: 0,
                src: NodeId(0),
                dst: NodeId(node),
                tag: Tag(tag),
                protocol: Protocol::Tcp,
                wire_size: wire,
                data_len: data,
                ecn: netsim::packet::Ecn::NotEct,
            },
        }
    }

    fn cfg() -> SamplerConfig {
        SamplerConfig::tshark_like(
            NodeId(5),
            SimDuration::from_millis(100),
            SimTime::from_secs(1),
        )
    }

    #[test]
    fn bins_by_tag_and_time() {
        let records = vec![
            rec(10, 5, 1, 1250, 1210, CaptureKind::Delivered), // bin 0, tag 1
            rec(50, 5, 1, 1250, 1210, CaptureKind::Delivered), // bin 0, tag 1
            rec(150, 5, 2, 1250, 1210, CaptureKind::Delivered), // bin 1, tag 2
        ];
        let s = ThroughputSampler::from_records(&records, &cfg());
        assert_eq!(s.packets, 3);
        assert_eq!(s.bytes, 3750);
        // 2500 bytes in a 100 ms bin = 0.2 Mbps... (2500*8/0.1/1e6).
        let t1 = s.tag(Tag(1)).unwrap();
        assert!((t1.values()[0] - 0.2).abs() < 1e-12);
        assert_eq!(t1.values()[1], 0.0);
        let t2 = s.tag(Tag(2)).unwrap();
        assert!((t2.values()[1] - 0.1).abs() < 1e-12);
        // Total sums element-wise.
        assert!((s.total.values()[0] - 0.2).abs() < 1e-12);
        assert!((s.total.values()[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn filters_node_kind_and_acks() {
        let records = vec![
            rec(10, 4, 1, 1250, 1210, CaptureKind::Delivered), // wrong node
            rec(10, 5, 1, 40, 0, CaptureKind::Delivered),      // pure ACK
            rec(10, 5, 1, 1250, 1210, CaptureKind::Dropped),   // wrong kind
            rec(10, 5, 1, 1250, 1210, CaptureKind::Delivered), // counted
        ];
        let s = ThroughputSampler::from_records(&records, &cfg());
        assert_eq!(s.packets, 1);
    }

    #[test]
    fn horizon_excludes_late_records() {
        let records = vec![
            rec(999, 5, 1, 100, 50, CaptureKind::Delivered),
            rec(1000, 5, 1, 100, 50, CaptureKind::Delivered), // at horizon
        ];
        let s = ThroughputSampler::from_records(&records, &cfg());
        assert_eq!(s.packets, 1);
        assert_eq!(s.total.len(), 10);
    }

    #[test]
    fn empty_capture_gives_zero_series() {
        let s = ThroughputSampler::from_records(&[], &cfg());
        assert_eq!(s.packets, 0);
        assert_eq!(s.total.len(), 10);
        assert_eq!(s.total.mean(), 0.0);
        assert!(s.tag(Tag(1)).is_none());
    }

    #[test]
    fn partial_final_bin_scales_by_true_width() {
        // Horizon 250 ms, bin 100 ms: bins [0,100), [100,200), [200,250).
        // The last bin observes only 50 ms, so its rate divisor must be
        // 50 ms — with the full-bin divisor, 12_500 bytes would read as
        // 1 Mbps instead of the true 2 Mbps.
        let cfg = SamplerConfig::tshark_like(
            NodeId(5),
            SimDuration::from_millis(100),
            SimTime::from_millis(250),
        );
        let records = vec![
            rec(10, 5, 1, 12_500, 12_000, CaptureKind::Delivered), // bin 0
            rec(210, 5, 1, 12_500, 12_000, CaptureKind::Delivered), // bin 2 (partial)
        ];
        let s = ThroughputSampler::from_records(&records, &cfg);
        let t1 = s.tag(Tag(1)).unwrap();
        assert_eq!(t1.len(), 3);
        assert!((t1.values()[0] - 1.0).abs() < 1e-12, "{:?}", t1.values());
        assert!(
            (t1.values()[2] - 2.0).abs() < 1e-12,
            "partial bin must use its 50 ms width: {:?}",
            t1.values()
        );
    }

    #[test]
    fn whole_bin_horizon_is_unchanged_by_partial_bin_fix() {
        // Regression guard for the headline numbers: when horizon is a
        // multiple of the bin, every bin (including the last) uses the full
        // divisor.
        let records = vec![rec(950, 5, 1, 12_500, 12_000, CaptureKind::Delivered)];
        let s = ThroughputSampler::from_records(&records, &cfg());
        let t1 = s.tag(Tag(1)).unwrap();
        assert!((t1.values()[9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sub_bin_horizon_single_packet() {
        // Horizon shorter than one bin: a single bin whose width is the
        // whole (sub-bin) horizon.
        let cfg = SamplerConfig::tshark_like(
            NodeId(5),
            SimDuration::from_millis(100),
            SimTime::from_millis(40),
        );
        let records = vec![rec(10, 5, 1, 5_000, 4_800, CaptureKind::Delivered)];
        let s = ThroughputSampler::from_records(&records, &cfg);
        let t1 = s.tag(Tag(1)).unwrap();
        assert_eq!(t1.len(), 1);
        // 5000 bytes over 40 ms = 1 Mbps.
        assert!((t1.values()[0] - 1.0).abs() < 1e-12, "{:?}", t1.values());
    }

    #[test]
    fn starved_tags_are_preseeded() {
        // Tag 2 never delivers a packet; without pre-seeding it vanishes
        // from per_tag and from every per-path report built on it.
        let records = vec![rec(10, 5, 1, 1250, 1210, CaptureKind::Delivered)];
        let cfg = cfg().with_tags([Tag(1), Tag(2)]);
        let s = ThroughputSampler::from_records(&records, &cfg);
        let starved = s.tag(Tag(2)).expect("starved tag must keep a series");
        assert_eq!(starved.len(), 10);
        assert_eq!(starved.mean(), 0.0);
        assert!(s.tag(Tag(1)).unwrap().values()[0] > 0.0);
        assert_eq!(s.per_tag.len(), 2, "both registered tags keep a series");
    }

    #[test]
    fn preseeded_empty_capture_keeps_all_tags() {
        let cfg = cfg().with_tags([Tag(1), Tag(2), Tag(3)]);
        let s = ThroughputSampler::from_records(&[], &cfg);
        assert_eq!(s.per_tag.len(), 3);
        assert_eq!(s.total.len(), 10);
        assert_eq!(s.total.mean(), 0.0);
        assert_eq!(s.packets, 0);
    }
}
