//! Heavy-tailed traffic programs and their shared-bottleneck substrate.
//!
//! Web-like workloads are Poisson in time and Pareto in size: most
//! connections are mice, a heavy tail of elephants carries most bytes.
//! [`TrafficProgram::generate`] draws such a workload deterministically —
//! arrivals from one RNG stream, sizes from another, so adding draws to
//! either never shifts the other — and the experiment layer compiles each
//! [`Connection`] into an agent start event plus a fixed-size transfer on
//! the simulator's event loop.
//!
//! [`TrafficNet`] is the matching substrate: `n` source/destination host
//! pairs around a pair of gateways joined through `RELAYS` parallel relay
//! nodes. Every connection gets one path per relay (its MPTCP subflows)
//! and *all* connections compete for the same relay bottlenecks — the
//! shared-bottleneck regime where coupled congestion control must not beat
//! a single TCP flow, scaled to hundreds or thousands of connections.

use netsim::{NodeId, Path, QueueConfig, Topology};
use simbase::{Bandwidth, SimDuration, SimRng, SimTime, SplitMix64, Xoshiro256StarStar};
use std::fmt::Write;

/// Pareto tail index α of the flow sizes (smaller = heavier tail; web
/// flows ≈ 1.1–1.5).
const PARETO_SHAPE: f64 = 1.3;
/// Pareto scale: the minimum flow size, bytes.
const PARETO_SCALE_BYTES: u64 = 20_000;
/// Upper truncation of the size distribution (keeps a single draw from
/// dominating a bounded-duration run), bytes.
const MAX_BYTES: u64 = 5_000_000;

/// Parameters of a heavy-tailed traffic program.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Number of connections to draw.
    pub connections: usize,
    /// Poisson arrival rate, connections per second.
    pub arrival_rate_hz: f64,
    /// Master seed; arrivals and sizes derive independent streams from it.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            connections: 100,
            arrival_rate_hz: 200.0,
            seed: 1,
        }
    }
}

/// One generated connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Connection {
    /// Position in arrival order (also the host-pair index).
    pub index: usize,
    /// Arrival time of the connection.
    pub start: SimTime,
    /// Bytes the connection transfers, then stops.
    pub size_bytes: u64,
}

/// A compiled traffic program: connections in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficProgram {
    /// The connections, `index`-ordered (equal to arrival order).
    pub connections: Vec<Connection>,
}

impl TrafficProgram {
    /// Draw a program. Pure function of the config: equal configs yield
    /// equal programs, byte for byte (see [`TrafficProgram::schedule_bytes`]).
    pub fn generate(cfg: &TrafficConfig) -> TrafficProgram {
        #[expect(
            clippy::disallowed_macros,
            reason = "config validation before any draw"
        )]
        {
            assert!(
                cfg.arrival_rate_hz > 0.0,
                "traffic config must have a positive arrival rate"
            );
        }
        let mut arrivals =
            Xoshiro256StarStar::new(SplitMix64::derive(cfg.seed, crate::STREAM_ARRIVAL));
        let mut sizes = Xoshiro256StarStar::new(SplitMix64::derive(cfg.seed, crate::STREAM_SIZE));
        let mean_gap = 1.0 / cfg.arrival_rate_hz;
        let mut t_ns: u64 = 0;
        let mut connections = Vec::with_capacity(cfg.connections);
        for index in 0..cfg.connections {
            let gap_s = arrivals.next_exponential(mean_gap);
            // Round to integer nanoseconds: SimTime is integral, and the
            // rounding makes the schedule's byte encoding exact.
            t_ns = t_ns.saturating_add((gap_s * 1e9).round() as u64);
            let u = 1.0 - sizes.next_f64(); // (0, 1]
            let pareto = PARETO_SCALE_BYTES as f64 * u.powf(-1.0 / PARETO_SHAPE);
            let size_bytes = (pareto.round() as u64).clamp(PARETO_SCALE_BYTES, MAX_BYTES);
            connections.push(Connection {
                index,
                start: SimTime::from_nanos(t_ns),
                size_bytes,
            });
        }
        TrafficProgram { connections }
    }

    /// Canonical byte encoding of the schedule: for each connection, index
    /// (u32 LE), start nanoseconds (u64 LE), size bytes (u64 LE). Two
    /// programs are identical iff their encodings are — the regression
    /// surface for "compiled twice from the same seed".
    pub fn schedule_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.connections.len() * 20);
        for c in &self.connections {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "connection counts are far below u32::MAX"
            )]
            out.extend_from_slice(&(c.index as u32).to_le_bytes());
            out.extend_from_slice(&c.start.as_nanos().to_le_bytes());
            out.extend_from_slice(&c.size_bytes.to_le_bytes());
        }
        out
    }

    /// Total bytes across all connections.
    pub fn total_bytes(&self) -> u64 {
        self.connections.iter().map(|c| c.size_bytes).sum()
    }
}

/// Parallel relay nodes between the gateways — each relay is one MPTCP
/// subflow path, and one shared bottleneck.
const RELAYS: usize = 2;
/// Capacity of each gateway↔relay bottleneck link.
const BOTTLENECK_BW: Bandwidth = Bandwidth::from_mbps(100);
/// Capacity of host access links (generous: hosts are not the story).
const ACCESS_BW: Bandwidth = Bandwidth::from_mbps(50);
/// Propagation delay of each bottleneck link.
const BOTTLENECK_DELAY: SimDuration = SimDuration::from_millis(5);
/// Propagation delay of each access link.
const ACCESS_DELAY: SimDuration = SimDuration::from_millis(1);
/// Output queue of every link.
const QUEUE: QueueConfig = QueueConfig::DropTailPackets(64);

/// Parameters of the shared-bottleneck substrate.
#[derive(Debug, Clone)]
pub struct TrafficNetConfig {
    /// Host pairs (one per connection).
    pub pairs: usize,
}

impl Default for TrafficNetConfig {
    fn default() -> Self {
        TrafficNetConfig { pairs: 100 }
    }
}

/// The built substrate.
#[derive(Debug, Clone)]
pub struct TrafficNet {
    /// The network.
    pub topology: Topology,
    /// Source hosts, `srcs[i]` for connection `i`.
    pub srcs: Vec<NodeId>,
    /// Destination hosts, `dsts[i]` for connection `i`.
    pub dsts: Vec<NodeId>,
    /// Source-side gateway.
    pub gw_a: NodeId,
    /// Destination-side gateway.
    pub gw_b: NodeId,
    /// Relay nodes, one per subflow path.
    pub relays: Vec<NodeId>,
}

/// Add node `{prefix}{i}`, spelling its name in `buf`: the topology copies
/// a name into its arena, so a build needs no `String` per node.
fn add_numbered(topo: &mut Topology, buf: &mut String, prefix: char, i: usize) -> NodeId {
    buf.clear();
    // Writing to a `String` cannot fail.
    let _ = write!(buf, "{prefix}{i}");
    topo.add_node(buf.as_str())
}

impl TrafficNet {
    /// Build the substrate: `srcs[i] — gw_a — relay_j — gw_b — dsts[i]`.
    pub fn build(cfg: &TrafficNetConfig) -> TrafficNet {
        #[expect(
            clippy::disallowed_macros,
            reason = "config validation before any construction"
        )]
        {
            assert!(cfg.pairs > 0, "need at least one pair");
        }
        let mut topo = Topology::new();
        let mut name = String::new();
        let gw_a = topo.add_node("gwA");
        let gw_b = topo.add_node("gwB");
        let relays: Vec<NodeId> = (0..RELAYS)
            .map(|j| add_numbered(&mut topo, &mut name, 'r', j))
            .collect();
        for &r in &relays {
            topo.add_link(gw_a, r, BOTTLENECK_BW, BOTTLENECK_DELAY, QUEUE);
            topo.add_link(r, gw_b, BOTTLENECK_BW, BOTTLENECK_DELAY, QUEUE);
        }
        let mut srcs = Vec::with_capacity(cfg.pairs);
        let mut dsts = Vec::with_capacity(cfg.pairs);
        for i in 0..cfg.pairs {
            let s = add_numbered(&mut topo, &mut name, 's', i);
            let d = add_numbered(&mut topo, &mut name, 'd', i);
            topo.add_link(s, gw_a, ACCESS_BW, ACCESS_DELAY, QUEUE);
            topo.add_link(gw_b, d, ACCESS_BW, ACCESS_DELAY, QUEUE);
            srcs.push(s);
            dsts.push(d);
        }
        TrafficNet {
            topology: topo,
            srcs,
            dsts,
            gw_a,
            gw_b,
            relays,
        }
    }

    /// Connection `i`'s subflow paths: one through each relay.
    pub fn paths(&self, i: usize) -> Vec<Path> {
        #[expect(
            clippy::disallowed_macros,
            reason = "argument validation before any construction"
        )]
        {
            assert!(i < self.srcs.len(), "pair index {i} out of range");
        }
        self.relays
            .iter()
            .map(|&r| {
                #[expect(clippy::indexing_slicing, reason = "index asserted in range above")]
                #[expect(
                    clippy::expect_used,
                    reason = "the builder created exactly these links"
                )]
                Path::from_nodes(
                    &self.topology,
                    &[self.srcs[i], self.gw_a, r, self.gw_b, self.dsts[i]],
                )
                .expect("substrate path")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_are_heavy_tailed_and_sorted() {
        let cfg = TrafficConfig {
            connections: 500,
            seed: 11,
            ..TrafficConfig::default()
        };
        let p = TrafficProgram::generate(&cfg);
        assert_eq!(p.connections.len(), 500);
        for w in p.connections.windows(2) {
            assert!(w[0].start <= w[1].start, "arrivals must be ordered");
        }
        for c in &p.connections {
            assert!(c.size_bytes >= PARETO_SCALE_BYTES);
            assert!(c.size_bytes <= MAX_BYTES);
        }
        // Heavy tail: the top decile carries more bytes than the bottom half.
        let mut sizes: Vec<u64> = p.connections.iter().map(|c| c.size_bytes).collect();
        sizes.sort_unstable();
        let bottom_half: u64 = sizes[..250].iter().sum();
        let top_decile: u64 = sizes[450..].iter().sum();
        assert!(
            top_decile > bottom_half,
            "top decile {top_decile} should outweigh bottom half {bottom_half}"
        );
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let cfg = TrafficConfig::default();
        let a = TrafficProgram::generate(&cfg);
        let b = TrafficProgram::generate(&cfg);
        assert_eq!(a.schedule_bytes(), b.schedule_bytes());
        let c = TrafficProgram::generate(&TrafficConfig {
            seed: cfg.seed + 1,
            ..cfg
        });
        assert_ne!(a.schedule_bytes(), c.schedule_bytes());
    }

    #[test]
    fn substrate_paths_share_only_the_bottlenecks() {
        let net = TrafficNet::build(&TrafficNetConfig { pairs: 10 });
        assert_eq!(net.topology.node_count(), 2 + 2 + 20);
        assert_eq!(net.topology.link_count(), 4 + 20);
        let p0 = net.paths(0);
        let p7 = net.paths(7);
        assert_eq!(p0.len(), 2);
        // Subflows of one connection are disjoint apart from access links.
        assert_eq!(p0[0].shared_links(&p0[1]).len(), 2);
        // Different connections share exactly the two bottleneck hops of
        // the same relay.
        assert_eq!(p0[0].shared_links(&p7[0]).len(), 2);
        assert_eq!(p0[0].shared_links(&p7[1]).len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The determinism contract: compiling twice from the same seed
        /// yields byte-identical schedules; sizes respect the truncation
        /// bounds; arrivals are monotone.
        #[test]
        fn schedules_are_reproducible(
            n in 1usize..200,
            seed in 0u64..10_000,
            rate in 1.0f64..5_000.0,
        ) {
            let cfg = TrafficConfig {
                connections: n,
                arrival_rate_hz: rate,
                seed,
            };
            let a = TrafficProgram::generate(&cfg);
            let b = TrafficProgram::generate(&cfg);
            prop_assert_eq!(a.schedule_bytes(), b.schedule_bytes());
            prop_assert_eq!(a.connections.len(), n);
            for w in a.connections.windows(2) {
                prop_assert!(w[0].start <= w[1].start);
            }
            for c in &a.connections {
                prop_assert!((PARETO_SCALE_BYTES..=MAX_BYTES).contains(&c.size_bytes));
            }
        }
    }
}
