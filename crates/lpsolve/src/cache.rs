//! Memoization of max-throughput LP solves.
//!
//! A parameter sweep runs hundreds of scenarios that differ only in seed,
//! congestion control, or link *delays* — none of which change the LP
//! ground truth, which depends solely on the capacity constraint set. The
//! [`LpCache`] keys solved [`MaxThroughput`] instances by a canonicalized
//! byte encoding of that constraint set, so a sweep pays for each distinct
//! LP exactly once no matter how many cells share it.
//!
//! The cache is thread-safe (`Mutex` around a `BTreeMap`) so a parallel
//! sweep runner can share one instance across workers. Memoization cannot
//! affect results: for a given key the cached value is the exact
//! [`MaxThroughput`] an uncached solve would have produced, because the
//! key pins every input of the solve (variables, objective, constraint
//! coefficients/rhs, labels, and link bindings).

use crate::flow::{max_throughput_lp, solve_max_throughput, MaxThroughput};
use crate::model::LinearProgram;
use netsim::{LinkId, Path, Topology};
use simbase::Bandwidth;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hit/miss counters of an [`LpCache`], taken as a consistent snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LpCacheStats {
    /// Solves answered from the cache.
    pub hits: u64,
    /// Solves that ran the simplex and populated the cache.
    pub misses: u64,
}

impl LpCacheStats {
    /// Total solve requests observed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A thread-safe memo table for [`solve_max_throughput`].
#[derive(Debug, Default)]
pub struct LpCache {
    map: Mutex<BTreeMap<Vec<u8>, MaxThroughput>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LpCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solve the max-throughput problem for `paths` over `topo`, reusing a
    /// previous solve of the same canonical constraint set if one exists.
    ///
    /// Building the LP (cheap, linear in paths × links) always happens — it
    /// is what produces the canonical key; only the simplex solve and the
    /// tight-constraint analysis are memoized.
    pub fn solve(&self, topo: &Topology, paths: &[Path]) -> MaxThroughput {
        let (lp, link_constraints) = max_throughput_lp(topo, paths);
        let key = canonical_key(&lp, &link_constraints);
        // A poisoned lock only means another worker panicked mid-insert;
        // the map itself is never left partially updated by `insert`, so
        // recover the guard instead of propagating the poison.
        let mut map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(hit) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        // Solve while holding the lock: sweeps issue bursts of identical
        // keys, and resolving the same tiny LP on two workers wastes more
        // than the serialization costs.
        let solved = solve_max_throughput(topo, paths);
        self.misses.fetch_add(1, Ordering::Relaxed);
        map.insert(key, solved.clone());
        solved
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LpCacheStats {
        LpCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct constraint sets cached.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Canonical byte encoding of a max-throughput LP plus its link bindings.
///
/// Two problems share a key iff an uncached solve would return the same
/// [`MaxThroughput`] for both: same variable count and objective, and the
/// same multiset of constraints (coefficients, rhs, label, link id,
/// capacity). Constraints are sorted by their encoding so the key does not
/// depend on topology construction order; floats are encoded via
/// `f64::to_bits` so no tolerance or float comparison is involved.
pub fn canonical_key(
    lp: &LinearProgram,
    link_constraints: &[(LinkId, Vec<usize>, Bandwidth)],
) -> Vec<u8> {
    let mut rows: Vec<Vec<u8>> = Vec::with_capacity(lp.num_constraints());
    for (ci, c) in lp.constraints().iter().enumerate() {
        let mut row = Vec::new();
        for (vi, &coeff) in c.coeffs.iter().enumerate() {
            // Zero coefficients are structural padding, not constraint
            // content; an exact-bits test keeps this canonicalization
            // deterministic (and is simlint-sanctioned below).
            // simlint: allow(float-eq, reason = "exact structural-zero test on untouched padding values")
            if coeff == 0.0 {
                continue;
            }
            row.extend_from_slice(&(vi as u64).to_be_bytes());
            row.extend_from_slice(&coeff.to_bits().to_be_bytes());
        }
        row.extend_from_slice(&c.rhs.to_bits().to_be_bytes());
        row.extend_from_slice(c.label.as_bytes());
        row.push(0);
        if let Some((link, _, cap)) = link_constraints.get(ci) {
            row.extend_from_slice(&(link.0 as u64).to_be_bytes());
            row.extend_from_slice(&cap.as_mbps_f64().to_bits().to_be_bytes());
        }
        rows.push(row);
    }
    rows.sort();
    let mut key = Vec::new();
    key.extend_from_slice(&(lp.num_vars() as u64).to_be_bytes());
    for &obj in lp.objective() {
        key.extend_from_slice(&obj.to_bits().to_be_bytes());
    }
    for row in rows {
        key.extend_from_slice(&(row.len() as u64).to_be_bytes());
        key.extend_from_slice(&row);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::QueueConfig;
    use simbase::SimDuration;

    fn two_path_net(cap_a: u64, cap_b: u64) -> (Topology, Vec<Path>) {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("d");
        let bw = Bandwidth::from_mbps;
        let ms = SimDuration::from_millis;
        t.add_link(s, a, bw(cap_a), ms(1), QueueConfig::default());
        t.add_link(a, d, bw(100), ms(1), QueueConfig::default());
        t.add_link(s, b, bw(cap_b), ms(1), QueueConfig::default());
        t.add_link(b, d, bw(100), ms(1), QueueConfig::default());
        let p1 = Path::from_nodes(&t, &[s, a, d]).unwrap();
        let p2 = Path::from_nodes(&t, &[s, b, d]).unwrap();
        (t, vec![p1, p2])
    }

    #[test]
    fn repeat_solves_hit_the_cache() {
        let cache = LpCache::new();
        let (t, paths) = two_path_net(30, 20);
        let first = cache.solve(&t, &paths);
        let second = cache.solve(&t, &paths);
        assert_eq!(first.total_mbps, second.total_mbps);
        assert_eq!(first.per_path_mbps, second.per_path_mbps);
        assert_eq!(cache.stats(), LpCacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_solution_matches_uncached() {
        let cache = LpCache::new();
        let (t, paths) = two_path_net(30, 20);
        let direct = solve_max_throughput(&t, &paths);
        let _warm = cache.solve(&t, &paths);
        let cached = cache.solve(&t, &paths);
        assert_eq!(cached.total_mbps, direct.total_mbps);
        assert_eq!(cached.per_path_mbps, direct.per_path_mbps);
        assert_eq!(cached.tight_links, direct.tight_links);
    }

    #[test]
    fn distinct_capacities_get_distinct_entries() {
        let cache = LpCache::new();
        let (t1, p1) = two_path_net(30, 20);
        let (t2, p2) = two_path_net(40, 20);
        let a = cache.solve(&t1, &p1);
        let b = cache.solve(&t2, &p2);
        assert!((a.total_mbps - 50.0).abs() < 1e-6);
        assert!((b.total_mbps - 60.0).abs() < 1e-6);
        assert_eq!(cache.stats(), LpCacheStats { hits: 0, misses: 2 });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn key_ignores_delays_but_not_capacities() {
        // Same capacities, different delays: one key. Changed capacity:
        // another key.
        let mut t = Topology::new();
        let s = t.add_node("s");
        let d = t.add_node("d");
        t.add_link(
            s,
            d,
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(5),
            QueueConfig::default(),
        );
        let p = vec![Path::from_nodes(&t, &[s, d]).unwrap()];
        let (lp1, lc1) = max_throughput_lp(&t, &p);

        let mut t2 = Topology::new();
        let s2 = t2.add_node("s");
        let d2 = t2.add_node("d");
        t2.add_link(
            s2,
            d2,
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(50),
            QueueConfig::default(),
        );
        let p2 = vec![Path::from_nodes(&t2, &[s2, d2]).unwrap()];
        let (lp2, lc2) = max_throughput_lp(&t2, &p2);
        assert_eq!(canonical_key(&lp1, &lc1), canonical_key(&lp2, &lc2));

        let mut t3 = Topology::new();
        let s3 = t3.add_node("s");
        let d3 = t3.add_node("d");
        t3.add_link(
            s3,
            d3,
            Bandwidth::from_mbps(11),
            SimDuration::from_millis(5),
            QueueConfig::default(),
        );
        let p3 = vec![Path::from_nodes(&t3, &[s3, d3]).unwrap()];
        let (lp3, lc3) = max_throughput_lp(&t3, &p3);
        assert_ne!(canonical_key(&lp1, &lc1), canonical_key(&lp3, &lc3));
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = LpCache::new();
        let (t, paths) = two_path_net(30, 20);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let sol = cache.solve(&t, &paths);
                    assert!((sol.total_mbps - 50.0).abs() < 1e-6);
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.misses, 1, "one simplex solve serves all workers");
    }
}
