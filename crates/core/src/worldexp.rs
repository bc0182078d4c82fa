//! Population-scale experiments on the `worldgen` scenario library.
//!
//! The paper's question — what does path overlap cost MPTCP? — was asked
//! of one connection on a six-node network. This module re-asks it at the
//! scales the `worldgen` generators open up:
//!
//! * [`run_fabric`] — many concurrent MPTCP connections on a k-ary
//!   fat-tree, subflows placed either by seeded ECMP hashing (overlap
//!   happens by chance, as in a real datacenter) or by the max-disjoint
//!   selector (the Nakasan-style comparison point). Every connection's
//!   subflow pair is classified with the paper's Table-1 taxonomy
//!   ([`worldgen::PairClass`]) *before* the run, from the very paths its
//!   subflows are pinned to, so goodput can be regressed against overlap
//!   class.
//! * [`run_traffic`] — a heavy-tailed [`worldgen::TrafficProgram`]
//!   (Poisson arrivals, bounded-Pareto sizes) compiled onto the
//!   shared-bottleneck substrate: hundreds of MPTCP connections arriving,
//!   transferring a fixed size, and stopping, all on the deterministic
//!   event loop.
//! * [`run_mobility`] — one MPTCP connection riding a wifi+cellular pair
//!   through compiled handover fault schedules, against a fault-free
//!   baseline of the same network.
//! * [`crosscheck_rows`] — solo-connection packet runs on fat-tree
//!   subflow pairs lined up against `fluidsim` equilibria, with the same
//!   kind of tolerance band `fluid_table` established.
//!
//! [`worldgen_report`] fans the whole batch across the sweep runner's
//! worker pool ([`crate::runner::execute_jobs`]), [`render_worldgen`]
//! turns it into the checked-in `results/worldgen_table.txt`, and
//! [`verify_worldgen`] asserts the acceptance gates (overlap ordering,
//! fluid band).

use crate::fluidcheck::FLUID_HORIZON_S;
use crate::runner::{execute_jobs, RunnerConfig};
use crate::scenario::Scenario;
use crate::world::{ReceiverId, World};
use fluidsim::{solve, FluidLaw, FluidModel};
use mptcpsim::{install_subflows, CcAlgo, MptcpConfig};
use netsim::{NodeId, RoutingTables, SimCounters, Tag};
use simbase::{SimDuration, SimRng, SimTime, SplitMix64, Xoshiro256StarStar};
use simtrace::{jain_fairness, SamplerConfig, TraceSink};
use std::fmt::Write as _;
use tcpsim::AppSource;
use worldgen::mobility::{WALK_CYCLES, WALK_SPAN};
use worldgen::{
    collision_rate, FatTree, FatTreeConfig, MobileNet, PairClass, TrafficConfig, TrafficNet,
    TrafficNetConfig, TrafficProgram,
};

/// Stream label for per-connection seeds inside a fabric cell (mixed with
/// the connection index; the connection seed then feeds
/// [`worldgen::FatTree::ecmp_subflow_paths`]).
pub const STREAM_CONN: u64 = 0x16 << 32;

/// How a fabric connection's subflows are placed on the equal-cost fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubflowSelector {
    /// Seeded ECMP hashing: each subflow's path is whatever the switches'
    /// hash functions pick for its five-tuple — overlap happens by chance.
    Ecmp,
    /// Max-disjoint selection: subflows take fabric-disjoint equal-cost
    /// paths whenever the fabric has them.
    MaxDisjoint,
}

impl SubflowSelector {
    /// Fixed-width table label.
    pub fn label(&self) -> &'static str {
        match self {
            SubflowSelector::Ecmp => "ecmp",
            SubflowSelector::MaxDisjoint => "disjoint",
        }
    }
}

/// One multi-connection fat-tree cell.
#[derive(Debug, Clone)]
pub struct FabricCell {
    /// Fat-tree arity (even, ≥ 2).
    pub k: usize,
    /// Master seed: switch hash seeds, host pairing, and subflow hashes
    /// all derive from it.
    pub seed: u64,
    /// Concurrent MPTCP connections (each claims a dedicated host pair, so
    /// `2 * connections ≤ k³/4`).
    pub connections: usize,
    /// Subflow placement policy.
    pub selector: SubflowSelector,
    /// Congestion-control algorithm for every connection.
    pub algo: CcAlgo,
    /// Run length.
    pub duration: SimDuration,
}

impl FabricCell {
    /// The table's default cell: k=4, 8 connections (every host busy),
    /// LIA, 400 ms.
    pub fn table(seed: u64, selector: SubflowSelector) -> FabricCell {
        FabricCell {
            k: 4,
            seed,
            connections: 8,
            selector,
            algo: CcAlgo::Lia,
            duration: SimDuration::from_millis(400),
        }
    }
}

/// Per-connection outcome of a fabric run.
#[derive(Debug, Clone)]
pub struct ConnReport {
    /// Connection index (also its host-pair index).
    pub index: usize,
    /// Sender host.
    pub src: NodeId,
    /// Receiver host.
    pub dst: NodeId,
    /// Overlap class of the connection's subflow pair (Table-1 taxonomy).
    pub class: PairClass,
    /// Connection-level bytes delivered in order.
    pub delivered: u64,
    /// Goodput over the run, Mbps.
    pub goodput_mbps: f64,
}

/// Everything one fabric cell produces.
#[derive(Debug, Clone)]
pub struct FabricRun {
    /// The cell that was run.
    pub cell: FabricCell,
    /// Per-connection outcomes, in connection order.
    pub conns: Vec<ConnReport>,
    /// Fraction of connection pairs whose subflow path sets share at least
    /// one fabric link (see EXPERIMENTS.md §E9).
    pub collision_rate: f64,
    /// Order-sensitive digest of the capture stream.
    pub trace_hash: u64,
    /// Events processed.
    pub events: u64,
    /// Queue drops across the fabric.
    pub drops: u64,
    /// How much work the run did, layer by layer (never in `trace_hash`).
    pub counters: SimCounters,
}

impl FabricRun {
    /// Aggregate goodput, Mbps.
    pub fn total_mbps(&self) -> f64 {
        self.conns.iter().map(|c| c.goodput_mbps).sum()
    }

    /// Jain's fairness index over per-connection goodputs (`1.0` = all
    /// connections equal; `1/n` = one connection has everything). The
    /// second lens on the ECMP-vs-max-disjoint comparison besides the
    /// aggregate.
    pub fn jain_fairness(&self) -> f64 {
        let goodputs: Vec<f64> = self.conns.iter().map(|c| c.goodput_mbps).collect();
        jain_fairness(&goodputs)
    }

    /// `(count, mean goodput Mbps)` of the connections in one overlap
    /// bucket (0 = disjoint, 1 = partial, 2 = identical).
    pub fn bucket_stats(&self, bucket: usize) -> (usize, f64) {
        let g: Vec<f64> = self
            .conns
            .iter()
            .filter(|c| class_bucket(&c.class) == bucket)
            .map(|c| c.goodput_mbps)
            .collect();
        if g.is_empty() {
            (0, 0.0)
        } else {
            (g.len(), g.iter().sum::<f64>() / g.len() as f64)
        }
    }
}

/// Collapse [`PairClass`] to a 3-way bucket: 0 disjoint, 1 partial
/// (any nonzero shared-link count), 2 identical.
pub fn class_bucket(class: &PairClass) -> usize {
    match class {
        PairClass::Disjoint => 0,
        PairClass::Partial(_) => 1,
        PairClass::Identical => 2,
    }
}

/// Deterministically pair up hosts: a seeded Fisher–Yates shuffle of the
/// host list (stream [`worldgen::STREAM_PAIRING`]), then consecutive pairs.
/// Pure function of `(tree.seed, hosts)`.
fn pair_hosts(tree: &FatTree, connections: usize) -> Vec<(NodeId, NodeId)> {
    #[expect(
        clippy::disallowed_macros,
        reason = "cell validation before any simulation work"
    )]
    {
        assert!(
            2 * connections <= tree.hosts.len(),
            "{connections} connections need {} hosts, fabric has {}",
            2 * connections,
            tree.hosts.len()
        );
    }
    let mut hosts = tree.hosts.clone();
    let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(tree.seed, worldgen::STREAM_PAIRING));
    for i in (1..hosts.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        hosts.swap(i, j);
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "2 * connections <= hosts asserted above"
    )]
    (0..connections)
        .map(|c| (hosts[2 * c], hosts[2 * c + 1]))
        .collect()
}

/// Execute one fabric cell: build the tree, place every connection's
/// subflows, pin them with tag routes, run all connections concurrently,
/// and read back per-connection goodput. Pure function of the cell.
pub fn run_fabric(cell: &FabricCell) -> FabricRun {
    #[expect(
        clippy::disallowed_macros,
        reason = "cell validation before any simulation work"
    )]
    {
        assert!(
            cell.connections >= 1,
            "fabric cell k={} seed={} {}: needs at least one connection",
            cell.k,
            cell.seed,
            cell.selector.label()
        );
    }
    let tree = FatTree::build(&FatTreeConfig {
        k: cell.k,
        seed: cell.seed,
    });
    let pairs = pair_hosts(&tree, cell.connections);

    // Place every connection's subflows first: the collision rate needs
    // them all.
    let mut placements = Vec::with_capacity(pairs.len());
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        let conn_seed = SplitMix64::derive(cell.seed, STREAM_CONN | i as u64);
        let paths = match cell.selector {
            SubflowSelector::Ecmp => tree.ecmp_subflow_paths(src, dst, conn_seed, 2),
            SubflowSelector::MaxDisjoint => tree.max_disjoint_paths(src, dst, 2),
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "both selectors return exactly 2 paths"
        )]
        let class = tree.classify_pair(&paths[0], &paths[1]);
        placements.push((src, dst, paths, class));
    }
    let rate = collision_rate(
        &tree,
        &placements
            .iter()
            .map(|(_, _, p, _)| p.clone())
            .collect::<Vec<_>>(),
    );

    // Then pin them in the tree's empty tables, moved into the world. Tag
    // values restart at 1 for every connection: tag routes are keyed
    // (destination, tag), and every connection owns a distinct host pair,
    // so the routes cannot collide.
    let mut routing = tree.routing;
    let subflow_cfgs: Vec<_> = placements
        .iter()
        .map(|(_, _, paths, _)| install_subflows(&mut routing, paths, 1, 5000))
        .collect();
    let mut world = World::new(tree.topology, routing, cell.seed, TraceSink::new());
    let receivers: Vec<ReceiverId> = placements
        .iter()
        .zip(subflow_cfgs)
        .map(|((src, dst, _, _), subflows)| {
            let cfg = MptcpConfig {
                algo: cell.algo,
                ..MptcpConfig::bulk(*dst, subflows)
            };
            world.connect(*src, cfg, SimTime::ZERO).1
        })
        .collect();

    world.run_until(SimTime::ZERO + cell.duration);

    let secs = cell.duration.as_secs_f64();
    let conns = placements
        .iter()
        .zip(&receivers)
        .enumerate()
        .map(|(index, ((src, dst, _, class), &rid))| {
            let delivered = world.receiver(rid).data_delivered();
            ConnReport {
                index,
                src: *src,
                dst: *dst,
                class: *class,
                delivered,
                goodput_mbps: delivered as f64 * 8.0 / secs / 1e6,
            }
        })
        .collect();

    FabricRun {
        cell: cell.clone(),
        conns,
        collision_rate: rate,
        trace_hash: world.sink().hash(),
        events: world.sim().stats().events,
        drops: world.sim().stats().packets_dropped,
        counters: world.counters(),
    }
}

/// One heavy-tailed traffic cell.
#[derive(Debug, Clone)]
pub struct TrafficCell {
    /// Host pairs = connections in the program.
    pub pairs: usize,
    /// Master seed for the program (arrivals + sizes).
    pub seed: u64,
    /// Congestion-control algorithm for every connection.
    pub algo: CcAlgo,
    /// Poisson arrival rate, connections per second.
    pub arrival_rate_hz: f64,
    /// Run length (arrivals beyond it simply never complete much).
    pub duration: SimDuration,
}

impl TrafficCell {
    /// The table's default cell: 100 pairs arriving at 200/s over a 2-relay
    /// substrate, LIA, 1 s.
    pub fn table(pairs: usize, seed: u64) -> TrafficCell {
        TrafficCell {
            pairs,
            seed,
            algo: CcAlgo::Lia,
            arrival_rate_hz: 200.0,
            duration: SimDuration::from_secs(1),
        }
    }
}

/// Outcome of a traffic cell.
#[derive(Debug, Clone)]
pub struct TrafficRun {
    /// The cell that was run.
    pub cell: TrafficCell,
    /// Connections whose arrival fell inside the run.
    pub started: usize,
    /// Connections that delivered their full Pareto size in time.
    pub finished: usize,
    /// Connection-level bytes delivered across all connections.
    pub delivered: u64,
    /// Bytes the program asked for in total.
    pub offered: u64,
    /// Aggregate goodput over the run, Mbps.
    pub goodput_mbps: f64,
    /// Order-sensitive digest of the capture stream.
    pub trace_hash: u64,
    /// Events processed.
    pub events: u64,
    /// How much work the run did, layer by layer (never in `trace_hash`).
    pub counters: SimCounters,
}

/// Execute one heavy-tailed traffic cell: generate the program, build the
/// substrate, start every connection at its Poisson arrival time with a
/// `Fixed(size)` application, and account completions at the deadline.
pub fn run_traffic(cell: &TrafficCell) -> TrafficRun {
    let program = TrafficProgram::generate(&TrafficConfig {
        connections: cell.pairs,
        arrival_rate_hz: cell.arrival_rate_hz,
        seed: cell.seed,
    });
    let net = TrafficNet::build(&TrafficNetConfig { pairs: cell.pairs });

    let mut routing = RoutingTables::new(&net.topology);
    let mut subflow_cfgs = Vec::with_capacity(cell.pairs);
    for i in 0..cell.pairs {
        subflow_cfgs.push(install_subflows(&mut routing, &net.paths(i), 1, 5000));
    }

    // Paths and subflow configs are computed; the world takes the topology
    // (and below each connection its subflow list) by move, so the run
    // holds one copy of each.
    let mut world = World::new(net.topology, routing, cell.seed, TraceSink::new());
    let end = SimTime::ZERO + cell.duration;
    let mut receivers = Vec::with_capacity(cell.pairs);
    let mut started = 0usize;
    for ((i, conn), subflows) in program.connections.iter().enumerate().zip(subflow_cfgs) {
        // Receivers exist from t=0; each sender agent starts at its
        // connection's arrival time (the agent-start event *is* the
        // arrival). Arrivals past the deadline still get agents — they
        // just never run — so the topology/agent layout is independent of
        // the duration axis.
        if conn.start < end {
            started += 1;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "i enumerates the program's pairs; net was built for the same count"
        )]
        let cfg = MptcpConfig {
            algo: cell.algo,
            app: AppSource::Fixed(conn.size_bytes),
            ..MptcpConfig::bulk(net.dsts[i], subflows)
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "i enumerates the program's pairs; net was built for the same count"
        )]
        receivers.push(world.connect(net.srcs[i], cfg, conn.start).1);
    }

    world.run_until(end);

    let mut delivered = 0u64;
    let mut finished = 0usize;
    for (i, &rid) in receivers.iter().enumerate() {
        let got = world.receiver(rid).data_delivered();
        delivered += got;
        #[expect(
            clippy::indexing_slicing,
            reason = "receivers and connections are index-aligned by the loop above"
        )]
        if got >= program.connections[i].size_bytes {
            finished += 1;
        }
    }

    TrafficRun {
        cell: cell.clone(),
        started,
        finished,
        delivered,
        offered: program.total_bytes(),
        goodput_mbps: delivered as f64 * 8.0 / cell.duration.as_secs_f64() / 1e6,
        trace_hash: world.sink().hash(),
        events: world.sim().stats().events,
        counters: world.counters(),
    }
}

/// Outcome of a mobility cell: the same network run with and without the
/// compiled handover schedule.
#[derive(Debug, Clone)]
pub struct MobilityRun {
    /// Congestion-control algorithm.
    pub algo: CcAlgo,
    /// Goodput with the fault-free network, Mbps.
    pub static_mbps: f64,
    /// Goodput under the mobility schedule, Mbps.
    pub mobile_mbps: f64,
    /// Wire bytes delivered over the wifi subflow under mobility.
    pub wifi_bytes: u64,
    /// Wire bytes delivered over the cellular subflow under mobility.
    pub cell_bytes: u64,
    /// Hard handovers in the schedule.
    pub handovers: usize,
    /// Trace hash of the mobility run.
    pub trace_hash: u64,
}

/// Execute one wifi+cellular mobility comparison for `algo` and `seed`
/// over the whole walk ([`WALK_SPAN`]).
pub fn run_mobility(algo: CcAlgo, seed: u64) -> MobilityRun {
    let duration = WALK_SPAN;
    let run = |with_faults: bool| {
        let net = MobileNet::build();
        let mut routing = RoutingTables::new(&net.topology);
        let subflows = install_subflows(&mut routing, &net.paths(), 1, 5000);
        // Hash plus one whole-run bin per tag: the wifi/cell split is a
        // per-tag total of every delivery at the server, up to and
        // including the deadline instant, ACK-sized segments included.
        let whole_run = duration + SimDuration::from_nanos(1);
        let sink = TraceSink::new().with_sampler(SamplerConfig {
            data_only: false,
            ..SamplerConfig::tshark_like(net.server, whole_run, SimTime::ZERO + whole_run)
        });
        let faults = with_faults.then(|| net.schedule());
        let mut world = World::new(net.topology, routing, seed, sink);
        if let Some(faults) = &faults {
            world.install_faults(faults);
        }
        let cfg = MptcpConfig {
            algo,
            ..MptcpConfig::bulk(net.server, subflows)
        };
        let (_, rid) = world.connect(net.client, cfg, SimTime::ZERO);
        world.run_until(SimTime::ZERO + duration);
        let sink = world.sink();
        (
            world.receiver(rid).data_delivered(),
            sink.tag_bytes(Tag(1)),
            sink.tag_bytes(Tag(2)),
            sink.hash(),
        )
    };
    let (static_bytes, _, _, _) = run(false);
    let (mobile_bytes, wifi_bytes, cell_bytes, trace_hash) = run(true);
    let secs = duration.as_secs_f64();
    MobilityRun {
        algo,
        static_mbps: static_bytes as f64 * 8.0 / secs / 1e6,
        mobile_mbps: mobile_bytes as f64 * 8.0 / secs / 1e6,
        wifi_bytes,
        cell_bytes,
        handovers: WALK_CYCLES,
        trace_hash,
    }
}

/// One fluid cross-check row: a solo connection on fat-tree subflow paths,
/// packet simulation vs fluid equilibrium.
#[derive(Debug, Clone)]
pub struct WorldCrossRow {
    /// Connection index inside the sampled fabric cell.
    pub conn: usize,
    /// Overlap class of the subflow pair.
    pub class: PairClass,
    /// Packet-sim steady-state total, Mbps.
    pub sim_mbps: f64,
    /// Fluid equilibrium total, Mbps.
    pub fluid_mbps: f64,
}

impl WorldCrossRow {
    /// sim ÷ fluid.
    pub fn ratio(&self) -> f64 {
        self.sim_mbps / self.fluid_mbps
    }
}

/// The tolerance band for [`WorldCrossRow::ratio`], inherited from the
/// extremes `fluid_table` records on the paper and random topologies
/// (70.3%–114.8% sim/fluid): a discrete-window, slow-start, queue-and-RTT
/// packet stack settles near but not on the fluid fixed point.
pub const FLUID_BAND: (f64, f64) = (0.65, 1.20);

/// Build the cross-check rows: the first `count` ECMP connections of the
/// `seed` fabric cell, each run *solo* (its host pair alone on the whole
/// fabric) so the fluid model's single-connection equilibrium is the right
/// oracle. Uses [`Scenario`] for the packet side — the same harness every
/// other table in this repository trusts.
pub fn crosscheck_rows(seed: u64, count: usize, duration: SimDuration) -> Vec<WorldCrossRow> {
    let tree = FatTree::build(&FatTreeConfig {
        seed,
        ..FatTreeConfig::default()
    });
    let pairs = pair_hosts(&tree, count);
    #[expect(clippy::expect_used, reason = "LIA has a fluid law by construction")]
    let law = FluidLaw::from_algo(CcAlgo::Lia).expect("LIA has a fluid law");
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| {
            let conn_seed = SplitMix64::derive(seed, STREAM_CONN | i as u64);
            let paths = tree.ecmp_subflow_paths(src, dst, conn_seed, 2);
            #[expect(
                clippy::indexing_slicing,
                reason = "ecmp_subflow_paths returns exactly 2 paths"
            )]
            let class = tree.classify_pair(&paths[0], &paths[1]);
            let result = Scenario::new(tree.topology.clone(), paths.clone())
                .with_algo(CcAlgo::Lia)
                .with_seed(seed)
                .with_timing(duration, SimDuration::from_millis(100))
                .run();
            let model = FluidModel::from_topology(&tree.topology, &paths);
            let fluid = solve(&model, law, FLUID_HORIZON_S);
            WorldCrossRow {
                conn: i,
                class,
                sim_mbps: result.steady_total_mbps(),
                fluid_mbps: fluid.total_mbps,
            }
        })
        .collect()
}

/// Fabric seeds of the worldgen table; each seed runs once per selector.
const FABRIC_SEEDS: std::ops::Range<u64> = 0..3;
/// Host pairs of the worldgen table's traffic program.
const TRAFFIC_PAIRS: usize = 100;
/// Algorithms of the worldgen table's mobility comparison.
const MOBILITY_ALGOS: [CcAlgo; 2] = [CcAlgo::Lia, CcAlgo::Olia];
/// Solo connections in the fluid cross-check.
const CROSSCHECK_CONNS: usize = 3;
/// Packet-side duration of each cross-check run.
const CROSSCHECK_DURATION: SimDuration = SimDuration::from_secs(2);

/// Everything the worldgen table aggregates.
#[derive(Debug)]
pub struct WorldgenReport {
    /// Fabric runs: for each seed, the ECMP cell then the max-disjoint
    /// cell (seed-major order).
    pub fabric: Vec<FabricRun>,
    /// Traffic runs (one, of the table's program size).
    pub traffic: Vec<TrafficRun>,
    /// Mobility comparisons, LIA then OLIA.
    pub mobility: Vec<MobilityRun>,
    /// Fluid cross-check rows.
    pub crosscheck: Vec<WorldCrossRow>,
}

impl WorldgenReport {
    /// Fabric runs for one selector.
    pub fn fabric_for(&self, selector: SubflowSelector) -> Vec<&FabricRun> {
        self.fabric
            .iter()
            .filter(|r| r.cell.selector == selector)
            .collect()
    }

    /// `(count, mean goodput)` over all ECMP connections in one overlap
    /// bucket, pooled across seeds.
    pub fn ecmp_bucket(&self, bucket: usize) -> (usize, f64) {
        let g: Vec<f64> = self
            .fabric_for(SubflowSelector::Ecmp)
            .iter()
            .flat_map(|r| &r.conns)
            .filter(|c| class_bucket(&c.class) == bucket)
            .map(|c| c.goodput_mbps)
            .collect();
        if g.is_empty() {
            (0, 0.0)
        } else {
            (g.len(), g.iter().sum::<f64>() / g.len() as f64)
        }
    }
}

/// Run the table's batch on the sweep runner's worker pool. Every job is
/// a pure function of its cell, so the fan-out inherits the runner's
/// worker-count independence.
pub fn worldgen_report(runner: &RunnerConfig) -> WorldgenReport {
    let fabric_cells: Vec<FabricCell> = FABRIC_SEEDS
        .flat_map(|seed| {
            [
                FabricCell::table(seed, SubflowSelector::Ecmp),
                FabricCell::table(seed, SubflowSelector::MaxDisjoint),
            ]
        })
        .collect();
    let traffic_cell = TrafficCell::table(TRAFFIC_PAIRS, 1);

    // One flat job list → one pool pass: fabric cells, then traffic, then
    // mobility. Results come back in job order and are split by kind below.
    #[derive(Debug)]
    enum JobResult {
        Fabric(Box<FabricRun>),
        Traffic(Box<TrafficRun>),
        Mobility(Box<MobilityRun>),
    }
    enum Job<'a> {
        Fabric(&'a FabricCell),
        Traffic(&'a TrafficCell),
        Mobility(CcAlgo),
    }
    let mut jobs: Vec<Job> = fabric_cells.iter().map(Job::Fabric).collect();
    jobs.push(Job::Traffic(&traffic_cell));
    jobs.extend(MOBILITY_ALGOS.map(Job::Mobility));

    let workers = runner.effective_workers(jobs.len());
    #[expect(
        clippy::indexing_slicing,
        reason = "execute_jobs hands out indices below jobs.len()"
    )]
    let mut results = execute_jobs(jobs.len(), workers, runner.progress, |i| match &jobs[i] {
        Job::Fabric(cell) => JobResult::Fabric(Box::new(run_fabric(cell))),
        Job::Traffic(cell) => JobResult::Traffic(Box::new(run_traffic(cell))),
        Job::Mobility(algo) => JobResult::Mobility(Box::new(run_mobility(*algo, 1))),
    });

    let mut fabric = Vec::new();
    let mut traffic = Vec::new();
    let mut mobility = Vec::new();
    for r in results.drain(..) {
        match r {
            JobResult::Fabric(run) => fabric.push(*run),
            JobResult::Traffic(run) => traffic.push(*run),
            JobResult::Mobility(run) => mobility.push(*run),
        }
    }
    let crosscheck = crosscheck_rows(FABRIC_SEEDS.start, CROSSCHECK_CONNS, CROSSCHECK_DURATION);

    WorldgenReport {
        fabric,
        traffic,
        mobility,
        crosscheck,
    }
}

/// Assert the acceptance gates on a report:
///
/// 1. Pooled over the ECMP cells, disjoint-class connections achieved at
///    least the goodput of identical-class connections — overlap costs,
///    never pays (partial sits between, not asserted: with two samples per
///    seed it is noisy).
/// 2. The max-disjoint selector's structural contract: no connection in a
///    max-disjoint cell has partially-overlapping subflows (every pair is
///    either fully fabric-disjoint or — on a same-edge host pair with a
///    single route — identical). Whether max-disjoint *wins* is a finding
///    the table reports (total and Jain columns), not a gate: at high
///    occupancy, ECMP's global randomization spreads the fleet over more
///    (aggregation, core) combinations than greedy per-connection
///    disjointness does, and wins on both aggregate and fairness here.
/// 3. Every fluid cross-check ratio lies inside [`FLUID_BAND`].
/// 4. Mobility goodput is positive and below the fault-free baseline.
#[expect(
    clippy::disallowed_macros,
    reason = "acceptance gate; aborting with the failing cell named is the contract"
)]
pub fn verify_worldgen(report: &WorldgenReport) {
    let (n_dis, dis) = report.ecmp_bucket(0);
    let (n_idn, idn) = report.ecmp_bucket(2);
    if n_dis > 0 && n_idn > 0 {
        assert!(
            dis >= idn,
            "disjoint-class mean {dis:.2} Mbps must be >= identical-class mean {idn:.2} Mbps"
        );
    }
    for d in report.fabric_for(SubflowSelector::MaxDisjoint) {
        assert!(
            d.conns
                .iter()
                .all(|c| !matches!(c.class, PairClass::Partial(_))),
            "seed {}: max-disjoint placed a partially-overlapping subflow pair",
            d.cell.seed
        );
    }
    for row in &report.crosscheck {
        let r = row.ratio();
        assert!(
            (FLUID_BAND.0..=FLUID_BAND.1).contains(&r),
            "cross-check conn {} ({}): sim/fluid ratio {r:.3} outside [{}, {}]",
            row.conn,
            row.class.label(),
            FLUID_BAND.0,
            FLUID_BAND.1
        );
    }
    for m in &report.mobility {
        assert!(
            m.mobile_mbps > 0.0 && m.mobile_mbps <= m.static_mbps,
            "{:?}: mobility goodput {:.2} must be positive and <= static {:.2}",
            m.algo,
            m.mobile_mbps,
            m.static_mbps
        );
        assert!(
            m.cell_bytes > 0,
            "{:?}: the cellular subflow must carry bytes during handover",
            m.algo
        );
    }
}

/// Render a report as the checked-in document. Pure function of the
/// report; the report is a pure function of its cells — so the document
/// regenerates byte-identically on any machine and worker count.
pub fn render_worldgen(report: &WorldgenReport) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "worldgen_table — internet-scale scenario library");
    let _ = writeln!(w, "================================================");
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "Regenerate: cargo run -p bench --bin worldgen_table --release > results/worldgen_table.txt"
    );
    let _ = writeln!(
        w,
        "Byte-identical across machines and OVERLAP_WORKERS settings; ci.sh diffs it."
    );
    let _ = writeln!(w);

    let _ = writeln!(
        w,
        "S1  Fat-tree ECMP: subflow overlap vs goodput (k=4, 8 connections, LIA, 400 ms)"
    );
    let _ = writeln!(
        w,
        "    Buckets classify each connection's two subflows: disjoint (no shared"
    );
    let _ = writeln!(
        w,
        "    fabric link), partial (some), identical (same path). coll% = fraction"
    );
    let _ = writeln!(
        w,
        "    of connection pairs sharing >=1 fabric link (EXPERIMENTS.md S-E9)."
    );
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "    selector  seed  coll%   n_dis  dis_mbps  n_par  par_mbps  n_idn  idn_mbps  total_mbps   jain  drops"
    );
    for run in &report.fabric {
        let (nd, gd) = run.bucket_stats(0);
        let (np, gp) = run.bucket_stats(1);
        let (ni, gi) = run.bucket_stats(2);
        let _ = writeln!(
            w,
            "    {:<8}  {:>4}  {:>5.1}  {:>6}  {:>8.2}  {:>5}  {:>8.2}  {:>5}  {:>8.2}  {:>10.2}  {:>5.3}  {:>5}",
            run.cell.selector.label(),
            run.cell.seed,
            run.collision_rate * 100.0,
            nd,
            gd,
            np,
            gp,
            ni,
            gi,
            run.total_mbps(),
            run.jain_fairness(),
            run.drops
        );
    }
    let (n_dis, dis) = report.ecmp_bucket(0);
    let (n_par, par) = report.ecmp_bucket(1);
    let (n_idn, idn) = report.ecmp_bucket(2);
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "    pooled ecmp means: disjoint {dis:.2} Mbps (n={n_dis})  partial {par:.2} (n={n_par})  identical {idn:.2} (n={n_idn})"
    );
    let _ = writeln!(
        w,
        "    gate: disjoint >= identical: {}",
        verdict(n_dis == 0 || n_idn == 0 || dis >= idn)
    );
    let _ = writeln!(w);

    let _ = writeln!(
        w,
        "S2  Heavy-tailed traffic (Poisson arrivals, bounded-Pareto sizes, 2-relay substrate, LIA)"
    );
    let _ = writeln!(
        w,
        "    pairs  started  finished  delivered_MB  offered_MB  goodput_mbps  events"
    );
    for run in &report.traffic {
        let _ = writeln!(
            w,
            "    {:>5}  {:>7}  {:>8}  {:>12.2}  {:>10.2}  {:>12.2}  {:>6}",
            run.cell.pairs,
            run.started,
            run.finished,
            run.delivered as f64 / 1e6,
            run.offered as f64 / 1e6,
            run.goodput_mbps,
            run.events
        );
    }
    let _ = writeln!(w);

    let _ = writeln!(
        w,
        "S3  Mobility handover (wifi 40 Mbps/5 ms + cellular 10 Mbps/25 ms, 2 walk cycles)"
    );
    let _ = writeln!(
        w,
        "    algo  static_mbps  mobile_mbps  retained%  wifi_MB  cell_MB  handovers"
    );
    for m in &report.mobility {
        let _ = writeln!(
            w,
            "    {:<5}  {:>10.2}  {:>10.2}  {:>8.1}  {:>7.2}  {:>7.2}  {:>9}",
            format!("{:?}", m.algo),
            m.static_mbps,
            m.mobile_mbps,
            m.mobile_mbps / m.static_mbps * 100.0,
            m.wifi_bytes as f64 / 1e6,
            m.cell_bytes as f64 / 1e6,
            m.handovers
        );
    }
    let _ = writeln!(w);

    let _ = writeln!(
        w,
        "S4  Fluid cross-check (solo ECMP connections on the fabric, LIA, sim vs fluid equilibrium)"
    );
    let _ = writeln!(
        w,
        "    conn  class      sim_mbps  fluid_mbps  sim/fl%  in-band"
    );
    for row in &report.crosscheck {
        let r = row.ratio();
        let _ = writeln!(
            w,
            "    {:>4}  {:<9}  {:>8.2}  {:>10.2}  {:>6.1}  {}",
            row.conn,
            row.class.label(),
            row.sim_mbps,
            row.fluid_mbps,
            r * 100.0,
            verdict((FLUID_BAND.0..=FLUID_BAND.1).contains(&r))
        );
    }
    let _ = writeln!(w);

    // Absolute trace hashes of the first fabric and traffic cells: ci.sh
    // byte-compares the checked-in table, so any change to packet-level
    // behaviour on either substrate shows up as a diff in these two lines.
    let _ = writeln!(w, "S5  Determinism gates");
    if let Some(r) = report.fabric.first() {
        let _ = writeln!(
            w,
            "    fabric k={} seed={} trace hash {:#018x}",
            r.cell.k, r.cell.seed, r.trace_hash
        );
    }
    if let Some(r) = report.traffic.first() {
        let _ = writeln!(
            w,
            "    traffic pairs={} trace hash {:#018x}",
            r.cell.pairs, r.trace_hash
        );
    }
    out
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "OK"
    } else {
        "FAIL"
    }
}

/// The full pipeline behind `results/worldgen_table.txt`: table-scope
/// report on `cfg`'s worker pool, gates verified, document rendered.
pub fn worldgen_table_document(cfg: &RunnerConfig) -> String {
    let report = worldgen_report(cfg);
    verify_worldgen(&report);
    render_worldgen(&report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_cells_are_reproducible_and_classified() {
        let cell = FabricCell {
            duration: SimDuration::from_millis(150),
            ..FabricCell::table(0, SubflowSelector::Ecmp)
        };
        let a = run_fabric(&cell);
        let b = run_fabric(&cell);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.conns.len(), 8);
        assert!(a.conns.iter().all(|c| c.delivered > 0));
        assert!((0.0..=1.0).contains(&a.collision_rate));
    }

    #[test]
    #[should_panic(expected = "fabric cell k=4 seed=0 ecmp: needs at least one connection")]
    fn fabric_cell_without_connections_is_rejected_by_name() {
        run_fabric(&FabricCell {
            connections: 0,
            ..FabricCell::table(0, SubflowSelector::Ecmp)
        });
    }

    #[test]
    fn max_disjoint_removes_intra_connection_overlap() {
        let e = run_fabric(&FabricCell {
            duration: SimDuration::from_millis(150),
            ..FabricCell::table(0, SubflowSelector::Ecmp)
        });
        let d = run_fabric(&FabricCell {
            duration: SimDuration::from_millis(150),
            ..FabricCell::table(0, SubflowSelector::MaxDisjoint)
        });
        // The max-disjoint selector removes intra-connection overlap
        // entirely (every pair with >1 equal-cost path is disjoint).
        assert!(d
            .conns
            .iter()
            .all(|c| c.class == PairClass::Disjoint || c.class == PairClass::Identical));
        // ECMP by chance places some subflow pairs on shared fabric links;
        // across the whole cell that shows up as nonzero overlap classes.
        assert!(e.conns.iter().any(|c| class_bucket(&c.class) > 0));
    }

    #[test]
    fn traffic_cells_run_hundreds_of_connections() {
        let cell = TrafficCell {
            duration: SimDuration::from_millis(600),
            ..TrafficCell::table(40, 1)
        };
        let run = run_traffic(&cell);
        assert!(run.started > 10, "most arrivals fall inside the run");
        assert!(run.finished > 0, "some mice complete");
        assert!(run.delivered > 0);
        let again = run_traffic(&cell);
        assert_eq!(run.trace_hash, again.trace_hash);
        assert_eq!(run.counters, again.counters);
    }

    #[test]
    fn an_overloaded_cell_counts_its_protocol_work() {
        // 2 000 arrivals/s on a substrate that carries a fraction of them:
        // losses, SACK recovery and timeouts, all of it counted by the
        // agents and read once, here.
        let run = run_traffic(&TrafficCell {
            arrival_rate_hz: 2000.0,
            duration: SimDuration::from_millis(500),
            ..TrafficCell::table(200, 3)
        });
        let c = run.counters;
        // Two four-hop paths per pair, one route set per path direction.
        assert_eq!(c.route_sets, 200 * 2 * 2);
        assert!(c.link_drops > 0, "the cell must overload: {c:?}");
        assert!(c.tcp_retransmits > 0 && c.tcp_retransmits < c.tcp_segments_sent);
        assert!(c.tcp_sack_blocks > 0);
        assert!((1..=64).contains(&c.range_set_max_len), "{c:?}");
        // Every data packet on the wire is one scheduled chunk's segment
        // or a retransmission of one; nothing here was malformed.
        assert!(c.scheduler_picks > 0 && c.scheduler_picks <= c.tcp_segments_sent);
        assert_eq!(c.rx_malformed, 0);
    }

    #[test]
    fn mobility_costs_goodput_but_not_the_connection() {
        let m = run_mobility(CcAlgo::Lia, 1);
        assert!(m.mobile_mbps > 0.0);
        assert!(m.mobile_mbps <= m.static_mbps);
        assert!(m.cell_bytes > 0, "cellular must carry handover bytes");
    }

    /// A 400-pair churn-shaped world (churn-4k's arrival rate on a tenth
    /// of its pairs), assembled as `run_traffic` assembles it, with every
    /// connection's handles.
    fn churn_world() -> (World, Vec<(crate::world::SenderId, ReceiverId)>) {
        let cell = TrafficCell {
            arrival_rate_hz: 250.0,
            ..TrafficCell::table(400, 1)
        };
        let program = TrafficProgram::generate(&TrafficConfig {
            connections: cell.pairs,
            arrival_rate_hz: cell.arrival_rate_hz,
            seed: cell.seed,
        });
        let net = TrafficNet::build(&TrafficNetConfig { pairs: cell.pairs });
        let mut routing = RoutingTables::new(&net.topology);
        let subflows: Vec<_> = (0..cell.pairs)
            .map(|i| install_subflows(&mut routing, &net.paths(i), 1, 5000))
            .collect();
        let mut world = World::new(net.topology, routing, cell.seed, TraceSink::new());
        let conns = (program.connections.iter().zip(subflows))
            .zip(net.srcs.iter().zip(&net.dsts))
            .map(|((conn, subflows), (&src, &dst))| {
                let cfg = MptcpConfig {
                    algo: cell.algo,
                    app: AppSource::Fixed(conn.size_bytes),
                    ..MptcpConfig::bulk(dst, subflows)
                };
                world.connect(src, cfg, conn.start)
            })
            .collect();
        (world, conns)
    }

    /// A checkpoint taken while some connections have not started (their
    /// subflow senders dormant), some are transferring (live) and some
    /// have finished (retired) resumes bit for bit, and so does the world
    /// it was taken from: no state is shared between the two. Both match a
    /// cold run's trace and every counter.
    #[test]
    fn a_checkpoint_across_dormant_live_and_retired_senders_resumes_bit_for_bit() {
        let (mid, end) = (SimTime::from_millis(800), SimTime::from_secs(3));
        let observe = |world: &World| (world.sink().hash(), world.counters());

        let expected = {
            let (mut world, _) = churn_world();
            world.run_until(end);
            observe(&world)
        };
        // Stopping at `mid` moves no counter: a transmission that completes
        // past it is accounted by the run that reaches its completion.
        let (mut straight, _) = churn_world();
        straight.run_until(mid);
        straight.run_until(end);
        assert_eq!(observe(&straight), expected);
        drop(straight);

        let (mut prefix, conns) = churn_world();
        prefix.run_until(mid);
        let [mut dormant, mut live, mut retired] = [0; 3];
        for &(sender, _) in &conns {
            let sender = prefix.sender(sender);
            match (sender.subflow_sender(0).is_live(), sender.is_complete()) {
                (true, _) => live += 1,
                (false, true) => retired += 1,
                (false, false) => dormant += 1,
            }
        }
        assert!(
            dormant > 0 && live > 0 && retired > 0,
            "{dormant} dormant, {live} live, {retired} retired"
        );
        let mut resumed = prefix.clone();
        resumed.run_until(end);
        assert_eq!(observe(&resumed), expected);
        prefix.run_until(end);
        assert_eq!(observe(&prefix), expected);
    }
}
