//! A few disjoint byte ranges, kept in a sorted vector.
//!
//! Three containers in the stack are "a few disjoint ranges, appended at
//! the end, trimmed at the front": the sender's SACK scoreboard, the
//! receiver's out-of-order buffer and `mptcpsim`'s connection-level
//! reassembly set. [`RangeSet`] is all three. At the end of an overloaded
//! 4 000-pair cell 6 208 of the 9 061 live sets hold one or two ranges,
//! 2 370 three or four, 476 up to eight and 7 up to sixteen; the largest
//! any benchmark workload ever builds (an elephant's scoreboard on
//! `churn-4k`) holds 184. A sorted `Vec` searched by bisection is the whole
//! structure: one 32-byte buffer while a hole is open, nothing at all once
//! it has closed.

/// Ranges the first buffer of a set holds (it doubles from there).
const FIRST_BUFFER: usize = 2;

/// A set of disjoint, non-adjacent half-open `u64` ranges in ascending
/// order: every range has `start <= end`, and each starts strictly above
/// the end of the one before it.
///
/// A range may be empty (`start == end`): a zero-length FIN that arrives
/// ahead of a hole is buffered like any other out-of-order segment. An
/// empty range that touches a stored range merges into it like any other.
#[derive(Debug, Clone, Default)]
pub struct RangeSet {
    ranges: Vec<(u64, u64)>,
    /// Sum of `end - start` over `ranges`.
    bytes: u64,
    /// Most ranges ever held at once.
    max_len: usize,
}

impl RangeSet {
    /// An empty set (holds no buffer).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True if the set holds no range.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total bytes covered. O(1): kept up to date by every mutation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The most ranges this set ever held at once — what says whether a
    /// vector is still the right container.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// The ranges, ascending.
    pub fn as_slice(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// The last range that starts at or before `at`.
    pub fn floor(&self, at: u64) -> Option<(u64, u64)> {
        let after = self.ranges.partition_point(|r| r.0 <= at);
        self.ranges.get(after.checked_sub(1)?).copied()
    }

    /// The first range that starts at or after `at`.
    pub fn first_at_or_after(&self, at: u64) -> Option<(u64, u64)> {
        let i = self.ranges.partition_point(|r| r.0 < at);
        self.ranges.get(i).copied()
    }

    /// Add `[start, end)`, merging it with every stored range it overlaps
    /// or touches. Returns the merged range as it now stands in the set and
    /// how many of its bytes were not covered before.
    pub fn insert(&mut self, start: u64, end: u64) -> ((u64, u64), u64) {
        debug_assert!(start <= end, "inverted range");
        // Ends ascend with starts, so the ranges to absorb are contiguous:
        // from the first that ends at or after `start` up to the last that
        // starts at or before `end`.
        let lo = self.ranges.partition_point(|r| r.1 < start);
        let hi = self.ranges.partition_point(|r| r.0 <= end);
        let mut merged = (start, end);
        let mut absorbed = 0;
        for &(s, e) in self.ranges.get(lo..hi).unwrap_or_default() {
            merged = (merged.0.min(s), merged.1.max(e));
            absorbed += e - s;
        }
        let new_bytes = (merged.1 - merged.0) - absorbed;
        if lo < hi {
            self.ranges.drain(lo + 1..hi);
            if let Some(slot) = self.ranges.get_mut(lo) {
                *slot = merged;
            }
        } else {
            if self.ranges.capacity() == 0 {
                self.ranges.reserve_exact(FIRST_BUFFER);
            }
            self.ranges.insert(lo, merged);
            self.max_len = self.max_len.max(self.ranges.len());
        }
        self.bytes += new_bytes;
        (merged, new_bytes)
    }

    /// Forget everything below `floor`: ranges that end at or before it go,
    /// one that straddles it is clipped to start there.
    pub fn trim_below(&mut self, floor: u64) {
        let gone = self.ranges.partition_point(|r| r.1 <= floor);
        for (s, e) in self.ranges.drain(..gone) {
            self.bytes -= e - s;
        }
        if let Some(first) = self.ranges.first_mut() {
            if first.0 < floor {
                self.bytes -= floor - first.0;
                first.0 = floor;
            }
        }
        self.release_if_empty();
    }

    /// A contiguous prefix ends at `next`: take out every range it reaches
    /// (one that starts at or before the prefix's end, which then extends
    /// to that range's end) and return where the prefix ends now.
    pub fn absorb_prefix(&mut self, mut next: u64) -> u64 {
        let mut reached = 0;
        for &(s, e) in &self.ranges {
            if s > next {
                break;
            }
            next = next.max(e);
            self.bytes -= e - s;
            reached += 1;
        }
        self.ranges.drain(..reached);
        self.release_if_empty();
        next
    }

    /// A closed hole should cost nothing (DESIGN.md "Footprint").
    fn release_if_empty(&mut self) {
        if self.ranges.is_empty() {
            self.ranges = Vec::new();
        }
    }

    /// Verify the representation: ranges ascending, disjoint, non-adjacent
    /// and strictly above `floor`, and the cached byte total exact.
    /// Anything else means a merge corrupted the set.
    pub fn check_invariants(&self, floor: u64) {
        let mut hi = floor;
        let mut bytes = 0;
        for &(s, e) in &self.ranges {
            // simlint: allow(panic-surface, reason = "representation invariant: a corrupted range set must not keep reassembling")
            assert!(e >= s, "inverted range [{s},{e})");
            // simlint: allow(panic-surface, reason = "representation invariant: a corrupted range set must not keep reassembling")
            assert!(
                s > hi,
                "range [{s},{e}) overlaps or touches prefix/previous range ending at {hi}"
            );
            hi = e;
            bytes += e - s;
        }
        // simlint: allow(panic-surface, reason = "representation invariant: a stale byte total would mis-size the pipe")
        assert_eq!(bytes, self.bytes, "cached byte total drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Start → end: the representation [`RangeSet`] replaced.
    type Model = BTreeMap<Offset, Offset>;
    type Offset = u64;

    /// The B-tree merge loop the three users each carried before they
    /// shared [`RangeSet`], kept as the reference.
    fn model_insert(map: &mut Model, mut start: u64, mut end: u64) -> (u64, u64) {
        if let Some((&s, &e)) = map.range(..=start).next_back() {
            if e >= start {
                start = s;
                end = end.max(e);
                map.remove(&s);
            }
        }
        let overlapping: Vec<u64> = map.range(start..=end).map(|(&s, _)| s).collect();
        for s in overlapping {
            if let Some(e) = map.remove(&s) {
                end = end.max(e);
            }
        }
        map.insert(start, end);
        (start, end)
    }

    /// The sender's scoreboard prune.
    fn model_trim(map: &mut Model, floor: u64) {
        while let Some((&s, &e)) = map.first_key_value() {
            if e <= floor {
                map.remove(&s);
            } else if s < floor {
                map.remove(&s);
                map.insert(floor, e);
            } else {
                break;
            }
        }
    }

    /// The receiver's in-order absorb.
    fn model_absorb(map: &mut Model, mut next: u64) -> u64 {
        while let Some((&s, &e)) = map.first_key_value() {
            if s > next {
                break;
            }
            map.pop_first();
            next = next.max(e);
        }
        next
    }

    fn model_bytes(map: &Model) -> u64 {
        map.iter().map(|(s, e)| e - s).sum()
    }

    #[test]
    fn touching_ranges_merge_and_report_only_new_bytes() {
        let mut r = RangeSet::new();
        assert_eq!(r.insert(100, 200), ((100, 200), 100));
        assert_eq!(r.insert(300, 400), ((300, 400), 100));
        assert_eq!(r.insert(150, 250), ((100, 250), 50));
        // Adjacent on both sides: the bridge fuses all three.
        assert_eq!(r.insert(250, 300), ((100, 400), 50));
        assert_eq!(r.as_slice(), &[(100, 400)]);
        assert_eq!(r.insert(120, 130), ((100, 400), 0));
        assert_eq!(r.bytes(), 300);
        assert_eq!(r.max_len(), 2);
    }

    #[test]
    fn an_empty_range_is_kept_until_something_absorbs_it() {
        let mut r = RangeSet::new();
        assert_eq!(r.insert(50, 50), ((50, 50), 0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.insert(50, 50), ((50, 50), 0));
        assert_eq!(r.len(), 1);
        r.check_invariants(0);
        assert_eq!(r.insert(40, 50), ((40, 50), 10));
        assert_eq!(r.as_slice(), &[(40, 50)]);
        assert_eq!(r.absorb_prefix(40), 50);
        assert!(r.is_empty());
    }

    #[test]
    fn floor_and_first_at_or_after() {
        let mut r = RangeSet::new();
        r.insert(10, 20);
        r.insert(30, 40);
        assert_eq!(r.floor(9), None);
        assert_eq!(r.floor(10), Some((10, 20)));
        assert_eq!(r.floor(29), Some((10, 20)));
        assert_eq!(r.floor(u64::MAX), Some((30, 40)));
        assert_eq!(r.first_at_or_after(0), Some((10, 20)));
        assert_eq!(r.first_at_or_after(10), Some((10, 20)));
        assert_eq!(r.first_at_or_after(11), Some((30, 40)));
        assert_eq!(r.first_at_or_after(31), None);
    }

    #[test]
    fn trim_clips_the_straddler_and_releases_the_buffer() {
        let mut r = RangeSet::new();
        r.insert(10, 20);
        r.insert(30, 40);
        r.trim_below(35);
        assert_eq!(r.as_slice(), &[(35, 40)]);
        assert_eq!(r.bytes(), 5);
        r.trim_below(40);
        assert!(r.is_empty());
        assert_eq!(r.bytes(), 0);
        assert_eq!(r.ranges.capacity(), 0, "an emptied set holds no buffer");
    }

    proptest::proptest! {
        // Random insert / trim / absorb sequences against the B-tree code
        // this container replaced: same ranges, same merged extent, same
        // new-byte count and byte total after every step, invariants hold,
        // and an emptied set has given its buffer back.
        #[test]
        fn range_set_matches_the_btreemap_it_replaced(
            ops in proptest::collection::vec((0u8..8, 0u64..400, 0u64..60), 0..120),
        ) {
            let mut set = RangeSet::new();
            let mut model = BTreeMap::new();
            // Every stored range starts strictly above `base`, as above a
            // delivered prefix.
            let mut base = 0u64;
            let mut high_water = 0usize;
            for &(op, at, len) in &ops {
                match op {
                    // Mostly inserts; `len` may be 0 (an empty range).
                    0..=5 => {
                        let (start, end) = (base + 1 + at, base + 1 + at + len);
                        let before = model_bytes(&model);
                        let want = model_insert(&mut model, start, end);
                        let (got, new_bytes) = set.insert(start, end);
                        proptest::prop_assert_eq!(got, want);
                        proptest::prop_assert_eq!(new_bytes, model_bytes(&model) - before);
                    }
                    6 => {
                        let cut = base + 1 + at / 4;
                        model_trim(&mut model, cut);
                        set.trim_below(cut);
                        base = cut - 1;
                    }
                    _ => {
                        let want = model_absorb(&mut model, base + at / 4);
                        proptest::prop_assert_eq!(set.absorb_prefix(base + at / 4), want);
                        base = want;
                    }
                }
                let want: Vec<(u64, u64)> = model.iter().map(|(&s, &e)| (s, e)).collect();
                proptest::prop_assert_eq!(set.as_slice(), want.as_slice());
                proptest::prop_assert_eq!(set.bytes(), model_bytes(&model));
                proptest::prop_assert_eq!(set.len(), model.len());
                set.check_invariants(base);
                high_water = high_water.max(model.len());
                proptest::prop_assert_eq!(set.max_len(), high_water);
                if set.is_empty() {
                    proptest::prop_assert_eq!(set.ranges.capacity(), 0);
                }
                for probe in [base, base + at, base + at + len] {
                    let below = model.range(..=probe).next_back().map(|(&s, &e)| (s, e));
                    proptest::prop_assert_eq!(set.floor(probe), below);
                    let above = model.range(probe..).next().map(|(&s, &e)| (s, e));
                    proptest::prop_assert_eq!(set.first_at_or_after(probe), above);
                }
            }
        }
    }
}
