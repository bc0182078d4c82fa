//! Data-sequence-number bookkeeping.
//!
//! MPTCP stripes one connection-level byte stream (numbered by DSNs) across
//! subflows, each with its own subflow-level sequence space. The glue is the
//! DSS mapping: *subflow offset range → DSN range*. [`MappingTable`] stores
//! the mappings the scheduler creates on the send side — one entry per run
//! of DSN-contiguous MSS chunks, as RFC 8684 lets one mapping span many
//! segments — and answers "what DSN does this subflow byte carry" chunk by
//! chunk, exactly as a table of one entry per chunk would; [`IntervalSet`]
//! performs connection-level reassembly on the receive side
//! (duplicate-tolerant, which is what makes the redundant scheduler work
//! for free).

use std::collections::VecDeque;
use tcpsim::{RangeSet, MSS};

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

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter mapping fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<Mapping>() == 24);

impl Mapping {
    /// End of the subflow-offset range (exclusive).
    pub fn subflow_end(&self) -> u64 {
        self.subflow_start + self.len
    }
}

/// The scheduler's chunk: every mapping is pushed at most this long.
const CHUNK: u64 = MSS as u64;

/// The unacknowledged mappings of one subflow (send side), oldest first.
///
/// The scheduler pushes one mapping per chunk of at most one MSS, with
/// strictly increasing, contiguous subflow offsets (that is how data is
/// pushed into the subflow's sender); DSN ranges are arbitrary (interleaved
/// across subflows, reinjected, or duplicated by the redundant scheduler),
/// but consecutive chunks on one subflow are almost always DSN-contiguous.
/// So an entry is a *run*: chunks contiguous in subflow offset and DSN,
/// every one but possibly the last exactly `MSS` long. The chunk boundaries
/// stay implied — every `MSS` from the run's start — and `lookup`,
/// `live_after` and `prune` answer per chunk, exactly as a table of one
/// entry per chunk would. Cumulative ACKs drop acknowledged chunks from the
/// front, so the table holds what is in flight and nothing behind the
/// window — an idle subflow's table holds no allocation at all (DESIGN.md
/// "Footprint").
#[derive(Debug, Clone, Default)]
pub struct MappingTable {
    maps: VecDeque<Mapping>,
    /// Subflow offset the next mapping must start at: the stream starts at
    /// offset 0. Outlives the mappings themselves, which `prune` drops.
    end: u64,
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a fatter table (one per subflow) fails the build, not a run"
)]
const _: () = assert!(std::mem::size_of::<MappingTable>() <= 40);

impl MappingTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one chunk's mapping, 1 to `MSS` bytes. The subflow offset must
    /// continue exactly where the previous mapping ended (the first at 0).
    /// The newest run takes it if the chunk continues the run's DSNs and
    /// every chunk of the run is a full `MSS`; otherwise it opens a run.
    pub fn push(&mut self, m: Mapping) {
        assert_eq!(m.subflow_start, self.end, "mapping gap");
        assert!(
            (1..=CHUNK).contains(&m.len),
            "a mapping is one chunk of 1 to {CHUNK} bytes, not {}",
            m.len
        );
        self.end = m.subflow_end();
        match self.maps.back_mut() {
            Some(run)
                if run.dsn_start + run.len == m.dsn_start && run.len.is_multiple_of(CHUNK) =>
            {
                run.len += m.len;
            }
            _ => self.maps.push_back(m),
        }
    }

    /// Total subflow bytes mapped so far.
    pub fn mapped_end(&self) -> u64 {
        self.end
    }

    /// Split the subflow range `[offset, offset+len)` into
    /// `(dsn, piece_len)` pieces, one per chunk it crosses, without
    /// allocating. Panics if any part of the range is unmapped (a scheduler
    /// bug): at once if `offset` is, while iterating if a later byte is.
    pub fn lookup(&self, offset: u64, len: u32) -> impl Iterator<Item = (u64, u32)> + '_ {
        let end = offset + u64::from(len);
        // Binary search for the run containing `offset`.
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
            let into = cur - m.subflow_start;
            // The chunk holding `cur` ends at the next MSS boundary from the
            // run's start, or at the run's end.
            let chunk_end = m.subflow_start + (into + 1).next_multiple_of(CHUNK);
            let piece_end = end.min(chunk_end).min(m.subflow_end());
            let dsn = m.dsn_start + into;
            // `piece_end - cur <= len` (piece_end <= offset + len and
            // cur >= offset), so the conversion cannot actually truncate;
            // the fallback clamps to the full requested length.
            let piece_len = u32::try_from(piece_end - cur).unwrap_or(len);
            cur = piece_end;
            if cur == m.subflow_end() {
                idx += 1;
            }
            Some((dsn, piece_len))
        })
    }

    /// Drop the chunks entirely below `acked_subflow_offset` (no longer
    /// needed for retransmission): whole runs, and the acknowledged chunks
    /// at the front of the run the ACK reaches into.
    pub fn prune(&mut self, acked_subflow_offset: u64) {
        while self
            .maps
            .front()
            .is_some_and(|m| m.subflow_end() <= acked_subflow_offset)
        {
            self.maps.pop_front();
        }
        match self.maps.front_mut() {
            Some(run) if run.subflow_start < acked_subflow_offset => {
                // Whole chunks only: `cut < run.len`, as the run ends above
                // the ACK.
                let cut =
                    (acked_subflow_offset - run.subflow_start + 1).next_multiple_of(CHUNK) - CHUNK;
                run.subflow_start += cut;
                run.dsn_start += cut;
                run.len -= cut;
            }
            Some(_) => {}
            None => self.maps = VecDeque::new(),
        }
    }

    /// Runs currently retained: those not yet fully acknowledged.
    pub fn live_mappings(&self) -> usize {
        self.maps.len()
    }

    /// Iterate the (clipped) chunk mappings covering subflow offsets at or
    /// above `offset` — the data a failed subflow still owes the
    /// connection, used by failover reinjection. One mapping per chunk, as
    /// pushed: a caller that clips each at the data ACK queues the chunk
    /// boundaries a table of one entry per chunk would.
    pub fn live_after(&self, offset: u64) -> impl Iterator<Item = Mapping> + '_ {
        self.maps
            .iter()
            .flat_map(|run| {
                (0..run.len.div_ceil(CHUNK)).map(move |k| {
                    let skip = k * CHUNK;
                    Mapping {
                        subflow_start: run.subflow_start + skip,
                        dsn_start: run.dsn_start + skip,
                        len: (run.len - skip).min(CHUNK),
                    }
                })
            })
            .filter_map(move |m| {
                if m.subflow_end() <= offset {
                    None
                } else if m.subflow_start >= offset {
                    Some(m)
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
        // A 10 000-chunk walk: push a window's worth ahead, ACK behind it
        // at uneven strides (mid-chunk, on a boundary, several at once).
        // Twice: DSNs 3× apart (every chunk its own run) and DSN-contiguous
        // (one run, trimmed chunk by chunk from the front).
        const N: u64 = 10_000;
        const LEN: u64 = 1460;
        for stride in [3, 1] {
            let mut t = MappingTable::new();
            let (mut pushed, mut acked) = (0u64, 0u64);
            let mut step = 0u64;
            while acked < N * LEN {
                for _ in 0..(step % 7 + 1) {
                    if pushed < N {
                        t.push(Mapping {
                            subflow_start: pushed * LEN,
                            dsn_start: pushed * stride * LEN,
                            len: LEN,
                        });
                        pushed += 1;
                    }
                }
                acked = (acked + (step % 5) * 977).min(pushed * LEN);
                t.prune(acked);
                let unacked = pushed - acked / LEN;
                let runs = if stride == 1 { unacked.min(1) } else { unacked };
                assert_eq!(t.live_mappings() as u64, runs);
                assert_eq!(t.mapped_end(), pushed * LEN);
                if unacked > 0 {
                    // Exactly the unacknowledged chunks are held ...
                    let held = t.live_after(0).next().unwrap();
                    assert_eq!(held.subflow_start, acked / LEN * LEN);
                    assert_eq!(t.live_after(0).count() as u64, unacked);
                    // ... and the first live byte still resolves, clipped
                    // like before.
                    let first = t.live_after(acked).next().unwrap();
                    assert_eq!(first.subflow_start, acked);
                    assert_eq!(first.dsn_start, (acked / LEN) * stride * LEN + acked % LEN);
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
    }

    #[test]
    fn a_run_ends_at_a_short_chunk_or_a_dsn_jump() {
        let mut t = MappingTable::new();
        let mut push = |subflow_start, dsn_start, len| {
            t.push(Mapping {
                subflow_start,
                dsn_start,
                len,
            })
        };
        push(0, 0, CHUNK);
        push(CHUNK, CHUNK, CHUNK);
        push(2 * CHUNK, 2 * CHUNK, 100); // a short tail ends the run
        push(2 * CHUNK + 100, 2 * CHUNK + 100, CHUNK); // opens one
        push(3 * CHUNK + 100, 9 * CHUNK, CHUNK); // a DSN jump opens one
        assert_eq!(t.live_mappings(), 3);
        // A segment across two chunks of one run gets a DSS piece each.
        assert_eq!(
            pieces(&t, CHUNK - 10, 20),
            vec![(CHUNK - 10, 10), (CHUNK, 10)]
        );
        assert_eq!(
            pieces(&t, 2 * CHUNK + 50, 100),
            vec![(2 * CHUNK + 50, 50), (2 * CHUNK + 100, 50)]
        );
        assert_eq!(
            t.live_after(CHUNK + 1)
                .map(|m| (m.dsn_start, m.len))
                .collect::<Vec<_>>(),
            vec![
                (CHUNK + 1, CHUNK - 1),
                (2 * CHUNK, 100),
                (2 * CHUNK + 100, CHUNK),
                (9 * CHUNK, CHUNK)
            ]
        );
        // An ACK into the first run keeps only its unacknowledged chunk.
        t.prune(CHUNK + 1);
        assert_eq!(t.live_after(0).next().map(|m| m.subflow_start), Some(CHUNK));
    }

    /// The table of one entry per chunk that [`MappingTable`] replaced, kept
    /// as the oracle its runs must answer exactly like.
    #[derive(Default)]
    struct PerChunkTable {
        maps: VecDeque<Mapping>,
        end: Option<u64>,
    }

    impl PerChunkTable {
        fn push(&mut self, m: Mapping) {
            if let Some(end) = self.end {
                assert_eq!(m.subflow_start, end, "mapping gap");
            }
            assert!(m.len > 0, "empty mapping");
            self.end = Some(m.subflow_end());
            self.maps.push_back(m);
        }

        fn mapped_end(&self) -> u64 {
            self.end.unwrap_or(0)
        }

        fn lookup(&self, offset: u64, len: u32) -> Vec<(u64, u32)> {
            let end = offset + u64::from(len);
            let mut idx = self
                .maps
                .binary_search_by(|m| {
                    if m.subflow_end() <= offset {
                        std::cmp::Ordering::Less
                    } else if m.subflow_start > offset {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .unwrap_or_else(|_| panic!("offset {offset} not mapped"));
            let mut cur = offset;
            let mut out = Vec::new();
            while cur < end {
                let m = self.maps[idx];
                let piece_end = end.min(m.subflow_end());
                out.push((
                    m.dsn_start + (cur - m.subflow_start),
                    (piece_end - cur) as u32,
                ));
                cur = piece_end;
                idx += 1;
            }
            out
        }

        fn prune(&mut self, acked_subflow_offset: u64) {
            while self
                .maps
                .front()
                .is_some_and(|m| m.subflow_end() <= acked_subflow_offset)
            {
                self.maps.pop_front();
            }
        }

        fn live_after(&self, offset: u64) -> Vec<Mapping> {
            self.maps
                .iter()
                .filter_map(|m| {
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
                .collect()
        }
    }

    proptest::proptest! {
        // Random push / prune / lookup / live_after sequences against the
        // per-chunk table: identical pieces, chunks and mapped end after
        // every step, never more entries, and an emptied table has given
        // its buffer back.
        #[test]
        fn runs_answer_like_the_per_chunk_table(
            ops in proptest::collection::vec((0u8..10, 0u64..1 << 20, 0u64..1 << 20), 0..160),
        ) {
            let (mut runs, mut oracle) = (MappingTable::new(), PerChunkTable::default());
            // DSN end of the newest chunk, and the next fresh DSN.
            let (mut last_dsn_end, mut fresh) = (0u64, 0u64);
            for &(op, a, b) in &ops {
                let end = oracle.mapped_end();
                let live = oracle.maps.front().map_or(end, |m| m.subflow_start);
                let chunk = |dsn_start, len| Mapping { subflow_start: end, dsn_start, len };
                let pushed = match op {
                    // Fresh MSS chunks, DSN-contiguous with the last fresh one.
                    0..=2 => Some(chunk(fresh, CHUNK)),
                    // A sub-MSS tail.
                    3 => Some(chunk(fresh, 1 + a % (CHUNK - 1))),
                    // A reinjected chunk at an arbitrary DSN, full or short.
                    4 => Some(chunk(a, if b % 2 == 0 { CHUNK } else { 1 + b % CHUNK })),
                    // A chunk that continues the newest one's DSNs: a full
                    // chunk after a short one, or a reinjection's next piece.
                    5 => Some(chunk(last_dsn_end, if b % 2 == 0 { CHUNK } else { 1 + b % CHUNK })),
                    _ => None,
                };
                if let Some(m) = pushed {
                    runs.push(m);
                    oracle.push(m);
                    last_dsn_end = m.dsn_start + m.len;
                    if op <= 3 {
                        fresh = last_dsn_end;
                    }
                }
                match op {
                    // Prune anywhere from below the front to past the end.
                    6 => {
                        let at = (live + a % (end - live + 2 * CHUNK)).saturating_sub(CHUNK);
                        runs.prune(at);
                        oracle.prune(at);
                    }
                    // A lookup inside the held range: misaligned, sub-MSS or
                    // straddling chunks and runs.
                    7 if live < end => {
                        let offset = live + a % (end - live);
                        let len = 1 + b % (end - offset).min(4 * CHUNK);
                        let len = len as u32;
                        proptest::prop_assert_eq!(pieces(&runs, offset, len), oracle.lookup(offset, len));
                    }
                    8 => {
                        let offset = a % (end + CHUNK);
                        proptest::prop_assert_eq!(runs.live_after(offset).collect::<Vec<_>>(), oracle.live_after(offset));
                    }
                    _ => {}
                }
                // The whole state, chunk by chunk and piece by piece.
                proptest::prop_assert_eq!(runs.mapped_end(), oracle.mapped_end());
                proptest::prop_assert_eq!(runs.live_after(0).collect::<Vec<_>>(), oracle.live_after(0));
                let live = oracle.maps.front().map_or(end, |m| m.subflow_start);
                let end = oracle.mapped_end();
                if live < end {
                    let len = (end - live).min(u64::from(u32::MAX)) as u32;
                    proptest::prop_assert_eq!(pieces(&runs, live, len), oracle.lookup(live, len));
                }
                proptest::prop_assert!(runs.live_mappings() <= oracle.maps.len());
                if runs.live_mappings() == 0 {
                    proptest::prop_assert_eq!(runs.maps.capacity(), 0);
                }
            }
        }
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
