//! Data-sequence-number bookkeeping.
//!
//! MPTCP stripes one connection-level byte stream (numbered by DSNs) across
//! subflows, each with its own subflow-level sequence space. The glue is the
//! DSS mapping: *subflow offset range → DSN range*. [`MappingTable`] stores
//! the mappings the scheduler creates on the send side and answers "what
//! DSN does this subflow byte carry"; [`IntervalSet`] performs
//! connection-level reassembly on the receive side (duplicate-tolerant,
//! which is what makes the redundant scheduler work for free).

use std::collections::VecDeque;
use tcpsim::RangeSet;

/// A set of disjoint half-open `u64` intervals with a distinguished
/// "delivered prefix" (everything below `next`).
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    next: u64,
    /// Out-of-order ranges strictly above `next`.
    ranges: RangeSet,
}

impl IntervalSet {
    /// Empty set with delivered prefix 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The end of the contiguous delivered prefix.
    pub fn next_expected(&self) -> u64 {
        self.next
    }

    /// Number of buffered out-of-order ranges.
    pub fn pending_ranges(&self) -> usize {
        self.ranges.len()
    }

    /// Total bytes buffered out of order.
    pub fn pending_bytes(&self) -> u64 {
        self.ranges.bytes()
    }

    /// The most out-of-order ranges ever buffered at once.
    pub fn max_pending_ranges(&self) -> usize {
        self.ranges.max_len()
    }

    /// Insert `[start, end)`. Returns the number of *new* bytes this
    /// insertion contributed (0 for a pure duplicate).
    pub fn insert(&mut self, start: u64, end: u64) -> u64 {
        debug_assert!(start <= end, "inverted interval");
        // Empty (or inverted) intervals contribute nothing; rejecting them
        // here also keeps empty ranges out of the out-of-order set.
        if end <= start || end <= self.next {
            return 0; // empty or entirely old
        }
        let prev_next = self.next;
        let start = start.max(self.next);
        let new_bytes = if start == self.next && self.ranges.is_empty() {
            // In order with nothing buffered: the range set is not touched
            // (an insert-then-absorb would allocate its buffer and free it).
            self.next = end;
            end - start
        } else {
            let ((merged_start, _), new_bytes) = self.ranges.insert(start, end);
            if merged_start <= self.next {
                self.next = self.ranges.absorb_prefix(self.next);
            }
            new_bytes
        };
        self.check_invariants(prev_next);
        new_bytes
    }

    /// DSN reassembly invariants, verified after every insertion: the
    /// delivered prefix is monotone (connection-level data is never
    /// "un-delivered") and the buffered out-of-order ranges are non-empty,
    /// pairwise disjoint, non-adjacent, and strictly above the prefix —
    /// anything else means the merge logic corrupted the set.
    fn check_invariants(&self, prev_next: u64) {
        assert!(
            self.next >= prev_next,
            "DSN delivered prefix went backwards: {prev_next} -> {}",
            self.next
        );
        self.ranges.check_invariants(self.next);
        for &(s, e) in self.ranges.as_slice() {
            assert!(e > s, "empty out-of-order range [{s},{e})");
        }
    }

    /// True if `[start, end)` is fully contained (delivered or buffered).
    pub fn contains(&self, start: u64, end: u64) -> bool {
        if end <= self.next {
            return true;
        }
        if start < self.next {
            return self.contains(self.next, end);
        }
        self.ranges.floor(start).is_some_and(|(_, e)| e >= end)
    }
}

/// One DSS mapping: `len` bytes at subflow offset `subflow_start` carry
/// DSNs starting at `dsn_start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// Subflow-level stream offset of the first byte.
    pub subflow_start: u64,
    /// Connection-level DSN of the first byte.
    pub dsn_start: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Mapping {
    /// End of the subflow-offset range (exclusive).
    pub fn subflow_end(&self) -> u64 {
        self.subflow_start + self.len
    }
}

/// The unacknowledged mappings of one subflow (send side), oldest first.
///
/// The scheduler appends mappings with strictly increasing, contiguous
/// subflow offsets (that is how data is pushed into the subflow's sender);
/// DSN ranges are arbitrary (interleaved across subflows, or duplicated by
/// the redundant scheduler). Cumulative ACKs pop them from the front, so
/// the table holds what is in flight and nothing behind the window — an
/// idle subflow's table holds no allocation at all (DESIGN.md "Footprint").
#[derive(Debug, Clone, Default)]
pub struct MappingTable {
    maps: VecDeque<Mapping>,
    /// Subflow offset the next mapping must start at (`None` until the
    /// first push). Outlives the mappings themselves, which `prune` drops.
    end: Option<u64>,
}

impl MappingTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a mapping. The subflow offset must continue exactly where the
    /// previous mapping ended.
    pub fn push(&mut self, m: Mapping) {
        if let Some(end) = self.end {
            assert_eq!(m.subflow_start, end, "mapping gap");
        }
        assert!(m.len > 0, "empty mapping");
        self.end = Some(m.subflow_end());
        self.maps.push_back(m);
    }

    /// Total subflow bytes mapped so far.
    pub fn mapped_end(&self) -> u64 {
        self.end.unwrap_or(0)
    }

    /// Split the subflow range `[offset, offset+len)` into
    /// `(dsn, piece_len)` pieces, one per mapping it crosses, without
    /// allocating. Panics if any part of the range is unmapped (a scheduler
    /// bug): at once if `offset` is, while iterating if a later byte is.
    pub fn lookup(&self, offset: u64, len: u32) -> impl Iterator<Item = (u64, u32)> + '_ {
        let end = offset + u64::from(len);
        // Binary search for the mapping containing `offset`.
        let mut idx = match self.maps.binary_search_by(|m| {
            if m.subflow_end() <= offset {
                std::cmp::Ordering::Less
            } else if m.subflow_start > offset {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => i,
            Err(_) => panic!("offset {offset} not mapped"),
        };
        let mut cur = offset;
        std::iter::from_fn(move || {
            if cur >= end {
                return None;
            }
            let m = self
                .maps
                .get(idx)
                .unwrap_or_else(|| panic!("range [{offset}, {end}) runs past mappings"));
            debug_assert!(m.subflow_start <= cur && cur < m.subflow_end());
            let piece_end = end.min(m.subflow_end());
            let dsn = m.dsn_start + (cur - m.subflow_start);
            // `piece_end - cur <= len` (piece_end <= offset + len and
            // cur >= offset), so the conversion cannot actually truncate;
            // the fallback clamps to the full requested length.
            let piece_len = u32::try_from(piece_end - cur).unwrap_or(len);
            cur = piece_end;
            idx += 1;
            Some((dsn, piece_len))
        })
    }

    /// Drop mappings entirely below `acked_subflow_offset` (no longer
    /// needed for retransmission).
    pub fn prune(&mut self, acked_subflow_offset: u64) {
        while self
            .maps
            .front()
            .is_some_and(|m| m.subflow_end() <= acked_subflow_offset)
        {
            self.maps.pop_front();
        }
        if self.maps.is_empty() {
            self.maps = VecDeque::new();
        }
    }

    /// Mappings currently retained: those not yet fully acknowledged.
    pub fn live_mappings(&self) -> usize {
        self.maps.len()
    }

    /// Iterate the (clipped) mapping pieces covering subflow offsets at or
    /// above `offset` — the data a failed subflow still owes the
    /// connection, used by failover reinjection.
    pub fn live_after(&self, offset: u64) -> impl Iterator<Item = Mapping> + '_ {
        self.maps.iter().filter_map(move |m| {
            if m.subflow_end() <= offset {
                None
            } else if m.subflow_start >= offset {
                Some(*m)
            } else {
                let skip = offset - m.subflow_start;
                Some(Mapping {
                    subflow_start: offset,
                    dsn_start: m.dsn_start + skip,
                    len: m.len - skip,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pieces(t: &MappingTable, offset: u64, len: u32) -> Vec<(u64, u32)> {
        t.lookup(offset, len).collect()
    }

    #[test]
    fn interval_in_order_delivery() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert(0, 100), 100);
        assert_eq!(s.insert(100, 250), 150);
        assert_eq!(s.next_expected(), 250);
        assert_eq!(s.pending_ranges(), 0);
    }

    #[test]
    fn interval_out_of_order_and_fill() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert(100, 200), 100);
        assert_eq!(s.next_expected(), 0);
        assert_eq!(s.pending_ranges(), 1);
        assert_eq!(s.pending_bytes(), 100);
        assert_eq!(s.insert(0, 100), 100);
        assert_eq!(s.next_expected(), 200);
        assert_eq!(s.pending_ranges(), 0);
    }

    #[test]
    fn interval_duplicates_count_zero() {
        let mut s = IntervalSet::new();
        s.insert(0, 100);
        assert_eq!(s.insert(0, 100), 0);
        assert_eq!(s.insert(50, 80), 0);
        s.insert(200, 300);
        assert_eq!(s.insert(200, 300), 0);
        assert_eq!(s.insert(250, 280), 0);
    }

    #[test]
    fn interval_empty_insert_is_a_noop() {
        // Regression: an empty interval above the delivered prefix used to
        // be stored as an empty out-of-order range, corrupting the set
        // (caught by `check_invariants`).
        let mut s = IntervalSet::new();
        assert_eq!(s.insert(5, 5), 0);
        assert_eq!(s.pending_ranges(), 0);
        assert_eq!(s.next_expected(), 0);
        // And a later real insertion around that point behaves normally.
        assert_eq!(s.insert(0, 10), 10);
        assert_eq!(s.next_expected(), 10);
    }

    #[test]
    fn interval_partial_overlaps() {
        let mut s = IntervalSet::new();
        s.insert(100, 200);
        // Extends an existing range on both sides.
        assert_eq!(s.insert(50, 120), 50);
        assert_eq!(s.insert(180, 250), 50);
        assert_eq!(s.pending_ranges(), 1);
        assert_eq!(s.pending_bytes(), 200);
        assert!(s.contains(50, 250));
        assert!(!s.contains(40, 250));
        assert!(!s.contains(50, 251));
    }

    #[test]
    fn interval_bridge_merges_ranges() {
        let mut s = IntervalSet::new();
        s.insert(100, 200);
        s.insert(300, 400);
        assert_eq!(s.pending_ranges(), 2);
        // The bridge merges everything.
        assert_eq!(s.insert(200, 300), 100);
        assert_eq!(s.pending_ranges(), 1);
        assert!(s.contains(100, 400));
    }

    #[test]
    fn interval_straddles_delivered_prefix() {
        let mut s = IntervalSet::new();
        s.insert(0, 100);
        // [50, 150): only [100, 150) is new.
        assert_eq!(s.insert(50, 150), 50);
        assert_eq!(s.next_expected(), 150);
    }

    #[test]
    fn mapping_contiguous_lookup() {
        let mut t = MappingTable::new();
        t.push(Mapping {
            subflow_start: 0,
            dsn_start: 1000,
            len: 1460,
        });
        t.push(Mapping {
            subflow_start: 1460,
            dsn_start: 5000,
            len: 1460,
        });
        assert_eq!(t.mapped_end(), 2920);
        // Inside the first mapping.
        assert_eq!(pieces(&t, 0, 1460), vec![(1000, 1460)]);
        assert_eq!(pieces(&t, 100, 100), vec![(1100, 100)]);
        // Crossing the boundary splits.
        assert_eq!(pieces(&t, 1400, 120), vec![(2400, 60), (5000, 60)]);
    }

    #[test]
    fn mapping_prune_keeps_needed() {
        let mut t = MappingTable::new();
        for i in 0..10u64 {
            t.push(Mapping {
                subflow_start: i * 100,
                dsn_start: i * 1000,
                len: 100,
            });
        }
        t.prune(450);
        assert_eq!(t.live_mappings(), 6); // [400,500) still needed
        assert_eq!(pieces(&t, 450, 50), vec![(4050, 50)]);
        t.prune(1000);
        assert_eq!(t.live_mappings(), 0);
    }

    #[test]
    fn live_after_clips_partial_mappings() {
        let mut t = MappingTable::new();
        t.push(Mapping {
            subflow_start: 0,
            dsn_start: 100,
            len: 1000,
        });
        t.push(Mapping {
            subflow_start: 1000,
            dsn_start: 5000,
            len: 500,
        });
        let live: Vec<Mapping> = t.live_after(400).collect();
        assert_eq!(live.len(), 2);
        assert_eq!(
            live[0],
            Mapping {
                subflow_start: 400,
                dsn_start: 500,
                len: 600
            }
        );
        assert_eq!(
            live[1],
            Mapping {
                subflow_start: 1000,
                dsn_start: 5000,
                len: 500
            }
        );
        assert_eq!(t.live_after(1500).count(), 0);
    }

    #[test]
    #[should_panic(expected = "mapping gap")]
    fn mapping_rejects_gaps() {
        let mut t = MappingTable::new();
        t.push(Mapping {
            subflow_start: 0,
            dsn_start: 0,
            len: 100,
        });
        t.push(Mapping {
            subflow_start: 200,
            dsn_start: 100,
            len: 100,
        });
    }

    #[test]
    #[should_panic(expected = "not mapped")]
    fn lookup_unmapped_panics() {
        let t = MappingTable::new();
        let _ = t.lookup(0, 1);
    }

    #[test]
    #[should_panic(expected = "runs past mappings")]
    fn lookup_past_the_last_mapping_panics() {
        let mut t = MappingTable::new();
        t.push(Mapping {
            subflow_start: 0,
            dsn_start: 0,
            len: 100,
        });
        let _ = pieces(&t, 50, 100);
    }

    #[test]
    #[should_panic(expected = "offset 399 not mapped")]
    fn lookup_across_a_pruned_boundary_panics() {
        let mut t = MappingTable::new();
        for i in 0..10u64 {
            t.push(Mapping {
                subflow_start: i * 100,
                dsn_start: i * 1000,
                len: 100,
            });
        }
        t.prune(450);
        // [399, 401) starts in a mapping the ACK released.
        let _ = t.lookup(399, 2);
    }

    #[test]
    fn table_holds_exactly_the_unacked_mappings() {
        // A 10 000-mapping walk: push a window's worth ahead, ACK behind it
        // at uneven strides (mid-mapping, on a boundary, several at once).
        const N: u64 = 10_000;
        const LEN: u64 = 1460;
        let mut t = MappingTable::new();
        let (mut pushed, mut acked) = (0u64, 0u64);
        let mut step = 0u64;
        while acked < N * LEN {
            for _ in 0..(step % 7 + 1) {
                if pushed < N {
                    t.push(Mapping {
                        subflow_start: pushed * LEN,
                        dsn_start: pushed * 3 * LEN,
                        len: LEN,
                    });
                    pushed += 1;
                }
            }
            acked = (acked + (step % 5) * 977).min(pushed * LEN);
            t.prune(acked);
            let unacked = pushed - acked / LEN;
            assert_eq!(t.live_mappings() as u64, unacked);
            assert_eq!(t.mapped_end(), pushed * LEN);
            if unacked > 0 {
                // The first live byte still resolves, clipped like before.
                let first = t.live_after(acked).next().unwrap();
                assert_eq!(first.subflow_start, acked);
                assert_eq!(first.dsn_start, (acked / LEN) * 3 * LEN + acked % LEN);
                assert_eq!(
                    pieces(&t, acked, 1)[0].0,
                    first.dsn_start,
                    "lookup and live_after disagree at {acked}"
                );
            }
            step += 1;
        }
        assert_eq!(t.live_mappings(), 0);
        assert_eq!(t.maps.capacity(), 0, "an idle table holds no allocation");
        // The offset chain survives the table emptying.
        assert_eq!(t.mapped_end(), N * LEN);
    }

    #[test]
    #[should_panic(expected = "mapping gap")]
    fn mapping_gap_is_caught_after_everything_was_acked() {
        let mut t = MappingTable::new();
        t.push(Mapping {
            subflow_start: 0,
            dsn_start: 0,
            len: 100,
        });
        t.prune(100);
        t.push(Mapping {
            subflow_start: 150,
            dsn_start: 100,
            len: 100,
        });
    }

    #[test]
    fn redundant_mappings_share_dsn() {
        // Two subflow tables mapping different subflow bytes to the SAME dsn
        // range (the redundant scheduler), reassembled once.
        let mut t1 = MappingTable::new();
        let mut t2 = MappingTable::new();
        t1.push(Mapping {
            subflow_start: 0,
            dsn_start: 0,
            len: 1000,
        });
        t2.push(Mapping {
            subflow_start: 0,
            dsn_start: 0,
            len: 1000,
        });
        let mut conn = IntervalSet::new();
        let (d1, l1) = pieces(&t1, 0, 1000)[0];
        assert_eq!(conn.insert(d1, d1 + l1 as u64), 1000);
        let (d2, l2) = pieces(&t2, 0, 1000)[0];
        assert_eq!(
            conn.insert(d2, d2 + l2 as u64),
            0,
            "duplicate contributes nothing"
        );
        assert_eq!(conn.next_expected(), 1000);
    }
}
