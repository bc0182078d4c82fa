//! A runnable experiment scenario and its results.
//!
//! [`Scenario`] packages everything one measurement run needs — topology,
//! paths, congestion control, scheduler, duration, sampling — and
//! [`Scenario::run`] executes it as a one-connection [`World`]: install tag
//! routes (the paper's modified ndiffports), attach the MPTCP endpoints,
//! run the deterministic simulation, sample the receiver-side capture per
//! tag (the tshark step), and fold in the LP ground truth.

use crate::world::{ReceiverId, SenderId, World, WorldCheckpoint};
use mptcpsim::{common_destination, install_subflows, CcAlgo, MptcpConfig, SchedulerKind};
use netsim::{FaultSchedule, NodeId, Path, RoutingTables, Topology};
use simbase::Bandwidth;
use simbase::{SimDuration, SimTime};
use simtrace::{ConvergenceReport, SamplerConfig, TimeSeries, TraceSink};
use tcpsim::AppSource;

/// A complete experiment configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The network.
    pub topology: Topology,
    /// The MPTCP paths, in reporting order (`paths[i]` is "Path i+1").
    pub paths: Vec<Path>,
    /// Index of the default path: its subflow is created first, so the
    /// scheduler prefers it before RTT samples exist.
    pub default_path: usize,
    /// Congestion control configuration.
    pub algo: CcAlgo,
    /// Packet scheduler.
    pub scheduler: SchedulerKind,
    /// Measurement duration.
    pub duration: SimDuration,
    /// Throughput sampling bin (paper: 10 ms or 100 ms).
    pub sample_bin: SimDuration,
    /// RNG seed (a run is a pure function of the scenario + seed).
    pub seed: u64,
    /// Application model.
    pub app: AppSource,
    /// SACK on subflows (on = the kernel the paper used; off = ablation).
    pub sack: bool,
    /// ECN on subflows (only meaningful with ECN-marking queues).
    pub ecn: bool,
    /// Convergence tolerance: within this fraction of the LP optimum.
    pub tolerance: f64,
    /// How long the rate must hold inside the band to count as converged.
    pub hold: SimDuration,
    /// Per-hop forwarding jitter (testbed kernel noise); breaks loss-phase
    /// synchronisation and gives each seed a distinct trajectory.
    pub forward_jitter: SimDuration,
    /// Open-loop CBR cross traffic injected alongside the MPTCP connection.
    pub background: Vec<CrossTraffic>,
    /// Timed network mutations applied during the run (empty = static
    /// topology). Installed into the simulator's event queue, so a faulted
    /// run is exactly as deterministic as an unfaulted one.
    pub faults: FaultSchedule,
}

/// A constant-bit-rate background flow between two agent-free nodes.
#[derive(Debug, Clone)]
pub struct CrossTraffic {
    /// Source node (must not host another agent).
    pub from: NodeId,
    /// Destination node (must not host another agent).
    pub to: NodeId,
    /// Offered rate.
    pub rate: Bandwidth,
    /// Datagram payload size, bytes.
    pub packet_bytes: u32,
}

impl Scenario {
    /// A scenario over the given network with paper-like defaults:
    /// CUBIC, minRTT scheduler, unlimited source, 4 s at 100 ms bins.
    pub fn new(topology: Topology, paths: Vec<Path>) -> Self {
        Scenario {
            topology,
            paths,
            default_path: 0,
            algo: CcAlgo::Cubic,
            scheduler: SchedulerKind::MinRtt,
            duration: SimDuration::from_secs(4),
            sample_bin: SimDuration::from_millis(100),
            seed: 1,
            app: AppSource::Unlimited,
            sack: true,
            ecn: false,
            tolerance: 0.15,
            hold: SimDuration::from_secs(1),
            forward_jitter: SimDuration::from_micros(20),
            background: Vec::new(),
            faults: FaultSchedule::new(),
        }
    }

    /// Builder-style override of the fault schedule.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style override of the congestion-control algorithm.
    pub fn with_algo(mut self, algo: CcAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of duration and sampling bin.
    pub fn with_timing(mut self, duration: SimDuration, bin: SimDuration) -> Self {
        self.duration = duration;
        self.sample_bin = bin;
        self
    }

    /// Execute the scenario.
    pub fn run(&self) -> RunResult {
        self.run_with_lp_cache(None)
    }

    /// Execute the scenario, resolving the LP ground truth through `cache`
    /// when one is given. Sweeps over many (algo, seed, default-path) cells
    /// share one topology family, so the runner threads a shared
    /// [`lpsolve::LpCache`] through here and the hundreds of identical
    /// `lp_optimum` solves collapse to one. Results are identical with and
    /// without a cache (asserted by the runner test suite): the cache key
    /// pins every input of the solve.
    pub fn run_with_lp_cache(&self, lp_cache: Option<&lpsolve::LpCache>) -> RunResult {
        let lp = self.solve_lp(lp_cache);
        let (mut world, conn) = self.build_world();
        world.run_until(SimTime::ZERO + self.duration);
        self.collect(world, conn, lp)
    }

    /// Run the common prefix of a family of fault variants and snapshot it.
    ///
    /// The returned [`ScenarioCheckpoint`] replays the scenario up to `t`
    /// exactly once; [`ScenarioCheckpoint::branch_run`] then branches any
    /// number of fault schedules from the frozen state, each byte-identical
    /// (trace hash, counters, per-link stats) to a cold run of the same
    /// scenario with the same faults — see DESIGN.md §13 for why.
    ///
    /// The base scenario must not schedule faults of its own (branch faults
    /// carry the same queue keys a cold run would assign, which requires
    /// the prefix's fault counter to be untouched).
    pub fn checkpoint_at(&self, t: SimTime) -> ScenarioCheckpoint {
        assert!(
            self.faults.is_empty(),
            "checkpoint base scenario must not schedule faults; pass them to branch_run"
        );
        assert!(
            t <= SimTime::ZERO + self.duration,
            "checkpoint time {t} beyond scenario end"
        );
        let (mut world, conn) = self.build_world();
        world.run_until(t);
        ScenarioCheckpoint {
            scenario: self.clone(),
            world: world.checkpoint(),
            conn,
        }
    }

    /// Resolve the LP ground truth (through `cache` when one is given).
    fn solve_lp(&self, lp_cache: Option<&lpsolve::LpCache>) -> lpsolve::MaxThroughput {
        match lp_cache {
            Some(cache) => cache.solve(&self.topology, &self.paths),
            None => lpsolve::solve_max_throughput(&self.topology, &self.paths),
        }
    }

    /// Check the scenario describes one runnable connection and return its
    /// endpoints `(src, dst)`.
    fn endpoints(&self) -> (NodeId, NodeId) {
        // simlint: allow(panic-surface, reason = "argument validation before the simulation starts")
        assert!(!self.paths.is_empty(), "need at least one path");
        // simlint: allow(panic-surface, reason = "argument validation before the simulation starts")
        assert!(
            self.default_path < self.paths.len(),
            "default_path out of range"
        );
        let src = self.paths[0].src(); // simlint: allow(panic-surface, reason = "non-empty is asserted above")
        assert!(
            self.paths.iter().all(|p| p.src() == src),
            "paths must share a source"
        );
        let dst = common_destination(&self.paths);
        for bg in &self.background {
            assert!(
                [bg.from, bg.to].iter().all(|n| *n != src && *n != dst),
                "cross traffic cannot share MPTCP hosts"
            );
        }
        (src, dst)
    }

    /// Construct the world — routing, sink and agents — up to (but not
    /// including) running the event loop.
    fn build_world(&self) -> (World, Conn) {
        let (src, dst) = self.endpoints();

        // Routing: tag i+1 pins path i, installed bidirectionally.
        let mut routing = RoutingTables::new(&self.topology);
        let mut subflows = install_subflows(&mut routing, &self.paths, 1, 5000);
        for bg in &self.background {
            routing.install_default_routes_to(&self.topology, bg.to);
        }

        // The measurement path streams: each capture record is hashed,
        // checked and binned per tag (the tshark step) as it is emitted,
        // so a run holds O(bins) of capture state, not O(packets). Every
        // path's tag is pre-seeded so a fully starved path still shows up
        // as an (all-zero) series in per-path reports.
        let sink = TraceSink::new().with_sampler(
            SamplerConfig::tshark_like(dst, self.sample_bin, SimTime::ZERO + self.duration)
                .with_tags(subflows.iter().map(|s| s.tag)),
        );
        let sink = sink.with_invariants(simtrace::default_invariants());

        // Subflows in default-first order, each keeping its path's tag.
        subflows.swap(0, self.default_path);
        let mptcp_cfg = MptcpConfig {
            algo: self.algo,
            scheduler: self.scheduler,
            app: self.app,
            sack: self.sack,
            ecn: self.ecn,
            ..MptcpConfig::bulk(dst, subflows)
        };

        // Agent order is part of the hash contract (see `World`): sender,
        // every cross-traffic source/sink pair, then the receiver.
        let mut world = World::new(self.topology.clone(), routing, self.seed, sink);
        world.set_forward_jitter(self.forward_jitter);
        world.install_faults(&self.faults);
        let sender = world.add_sender(src, mptcp_cfg, SimTime::ZERO);
        for bg in &self.background {
            world.background(bg.from, bg.to, bg.rate, bg.packet_bytes);
        }
        let receiver = world.add_receiver(dst, self.sack);
        (world, (sender, receiver))
    }

    /// Fold a finished simulation into a [`RunResult`] (the tshark step,
    /// convergence analysis, and endpoint-state extraction).
    fn collect(
        &self,
        mut world: World,
        (sender, receiver): Conn,
        lp: lpsolve::MaxThroughput,
    ) -> RunResult {
        let end = SimTime::ZERO + self.duration;

        let sink = world.sink_mut();
        // Order-sensitive digest of the full capture stream: two runs of
        // the same scenario + seed must produce the same hash (the
        // double-run harness in [`crate::determinism`] relies on this).
        let trace_hash = sink.hash();
        let violations = sink.finish_checks();
        assert!(
            violations.is_empty(),
            "trace invariants violated:\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        // One series per tag, in tag order. The sampler was seeded with
        // the path tags (ascending in path order) and only this connection
        // delivers at `dst`, so that is one series per path, in path order.
        let per_path: Vec<TimeSeries> = sink
            .sampler()
            .into_iter()
            .flat_map(|sampler| sampler.per_tag.into_values())
            .zip(1..)
            .map(|(mut s, n)| {
                s.label = format!("Path {n}");
                s
            })
            .collect();
        let total = TimeSeries::sum_of("Total", &per_path.iter().collect::<Vec<_>>());
        // Sustained criterion: the (smoothed) total must stay inside the
        // band from the convergence point to the end of the measurement —
        // a slow-start overshoot that transits the band does not count.
        let smooth_bins = (self.hold.as_nanos() / self.sample_bin.as_nanos()).max(1) as usize;
        let min_tail = (2 * smooth_bins).max(4);
        let convergence = ConvergenceReport::analyze_sustained(
            &total,
            lp.total_mbps,
            self.tolerance,
            smooth_bins,
            min_tail,
        );

        // Steady-state per-path means over the post-convergence window (or
        // the final quarter if never converged).
        let steady_from = convergence
            .converged_at
            .unwrap_or(SimTime::ZERO + self.duration.mul_f64(0.75));
        let per_path_steady_mbps: Vec<f64> = per_path
            .iter()
            .map(|s| s.mean_over(steady_from, end))
            .collect();

        // Rates are bytes-over-time: negative or non-finite values can only
        // come from arithmetic bugs in the sampler, never from the network.
        for s in &per_path {
            for (i, &v) in s.values().iter().enumerate() {
                assert!(
                    v.is_finite() && v >= 0.0,
                    "{}: bin {i} has invalid rate {v} Mbps",
                    s.label
                );
            }
        }

        // Pull endpoint state out of the world for the record.
        let sender = world.sender(sender);
        let subflow_stats: Vec<tcpsim::SenderStats> = (0..sender.subflow_count())
            .map(|i| *sender.subflow_sender(i).stats())
            .collect();
        let receiver = world.receiver(receiver);
        let sim = world.sim();

        RunResult {
            per_path,
            total,
            lp,
            convergence,
            per_path_steady_mbps,
            drops: sim.stats().packets_dropped,
            events: sim.stats().events,
            events_scheduled: sim.events_scheduled(),
            events_cancelled: sim.events_cancelled(),
            packets_delivered: sim.stats().packets_delivered,
            data_delivered: receiver.data_delivered(),
            duplicate_bytes: receiver.stats().duplicate_bytes,
            subflow_stats,
            trace_hash,
        }
    }
}

/// The scenario's one connection.
type Conn = (SenderId, ReceiverId);

/// A frozen scenario prefix that fault variants branch from.
///
/// Produced by [`Scenario::checkpoint_at`]. Holds the scenario and a
/// [`WorldCheckpoint`] of its world after the common (fault-free) prefix
/// (including the streaming capture sink's O(bins) state so far);
/// each [`ScenarioCheckpoint::branch_run`] restores a fresh deep copy,
/// installs one fault schedule, and runs to the scenario end. The
/// checkpoint is reusable: branching does not consume it.
#[derive(Debug)]
pub struct ScenarioCheckpoint {
    scenario: Scenario,
    world: WorldCheckpoint,
    conn: Conn,
}

impl ScenarioCheckpoint {
    /// The simulation time the prefix was frozen at.
    pub fn time(&self) -> SimTime {
        self.world.time()
    }

    /// The base scenario the prefix was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Capture records held by the frozen prefix. Zero: the prefix's
    /// measurement state is the streaming sink's hash, seen-set and bins.
    pub fn buffered_captures(&self) -> usize {
        self.world.buffered_captures()
    }

    /// Branch one fault variant from the frozen prefix and run it to the
    /// scenario end. Byte-identical (trace hash, event counters, series)
    /// to `scenario.with_faults(faults).run_with_lp_cache(lp_cache)`.
    ///
    /// Every fault must fire strictly after the checkpoint time: the
    /// prefix has already processed (and discarded nothing at) all times
    /// `<=` the checkpoint, so an earlier fault could not take effect and
    /// would silently diverge from the cold run.
    pub fn branch_run(
        &self,
        faults: &FaultSchedule,
        lp_cache: Option<&lpsolve::LpCache>,
    ) -> RunResult {
        for (at, _) in faults.entries() {
            assert!(
                *at > self.time(),
                "branch fault at {at} not strictly after checkpoint time {}",
                self.time()
            );
        }
        let lp = self.scenario.solve_lp(lp_cache);
        let mut world = World::restore(&self.world);
        world.install_faults(faults);
        world.run_until(SimTime::ZERO + self.scenario.duration);
        self.scenario.collect(world, self.conn, lp)
    }
}

/// Everything a scenario run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-path wire-throughput series (Mbps), in path order.
    pub per_path: Vec<TimeSeries>,
    /// Element-wise total (the paper's "Total" line).
    pub total: TimeSeries,
    /// The LP ground truth for the same topology and paths.
    pub lp: lpsolve::MaxThroughput,
    /// Convergence analysis of the total against the LP optimum.
    pub convergence: ConvergenceReport,
    /// Steady-state mean rate per path, Mbps.
    pub per_path_steady_mbps: Vec<f64>,
    /// Queue drops across the network.
    pub drops: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Events scheduled and not cancelled (the live share).
    pub events_scheduled: u64,
    /// Events cancelled before firing — the dead events lazy timer guards
    /// would otherwise have popped and discarded. The dead-event fraction
    /// is `events_cancelled / (events_scheduled + events_cancelled)`.
    pub events_cancelled: u64,
    /// Packets delivered to any sink across the network (wire-level, all
    /// agents and cross traffic; the perf snapshot derives packets/sec
    /// from this).
    pub packets_delivered: u64,
    /// Connection-level in-order bytes delivered.
    pub data_delivered: u64,
    /// Connection-level duplicate bytes received.
    pub duplicate_bytes: u64,
    /// Per-subflow TCP statistics, in subflow (default-first) order.
    pub subflow_stats: Vec<tcpsim::SenderStats>,
    /// Order-sensitive digest of the run's capture stream
    /// ([`simtrace::TraceHasher`]). Equal scenarios + seeds must yield equal
    /// hashes; see [`crate::determinism`].
    pub trace_hash: u64,
}

impl RunResult {
    /// Measured total steady-state throughput, Mbps.
    pub fn steady_total_mbps(&self) -> f64 {
        self.per_path_steady_mbps.iter().sum()
    }

    /// steady total / LP optimum.
    pub fn efficiency(&self) -> f64 {
        self.steady_total_mbps() / self.lp.total_mbps
    }

    /// The measured allocation must be feasible for the LP (sanity bound —
    /// a violation means the simulator overcounted capacity).
    pub fn is_physically_consistent(&self, tol_mbps: f64) -> bool {
        self.lp.is_feasible(&self.per_path_steady_mbps, tol_mbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::PaperNetwork;
    use simbase::SimDuration;

    fn paper_scenario(algo: CcAlgo) -> Scenario {
        let net = PaperNetwork::new();
        Scenario {
            default_path: net.default_path,
            ..Scenario::new(net.topology, net.paths)
        }
        .with_algo(algo)
    }

    #[test]
    fn cubic_reaches_near_optimal_total() {
        let result = paper_scenario(CcAlgo::Cubic).run();
        assert!((result.lp.total_mbps - 90.0).abs() < 1e-6);
        assert!(
            result.efficiency() > 0.85,
            "CUBIC should approach the optimum: {:.1} of {:.1} Mbps",
            result.steady_total_mbps(),
            result.lp.total_mbps
        );
        assert!(
            result.is_physically_consistent(2.0),
            "{:?}",
            result.per_path_steady_mbps
        );
        assert!(result.drops > 0, "loss-based CC needs losses");
    }

    #[test]
    fn lia_trails_cubic_on_average() {
        // A per-seed comparison is noisy (the paper's own runs varied);
        // the ordering claim is about the mean over seeds.
        let mean = |algo: CcAlgo| -> f64 {
            (1..=3u64)
                .map(|seed| {
                    paper_scenario(algo)
                        .with_seed(seed)
                        .with_timing(SimDuration::from_secs(10), SimDuration::from_millis(100))
                        .run()
                        .steady_total_mbps()
                })
                .sum::<f64>()
                / 3.0
        };
        let cubic = mean(CcAlgo::Cubic);
        let lia = mean(CcAlgo::Lia);
        assert!(
            lia < cubic + 1.0,
            "LIA mean {lia:.1} should not beat CUBIC mean {cubic:.1}"
        );
    }

    #[test]
    fn branch_runs_match_cold_runs_bit_for_bit() {
        // A checkpoint taken mid-run, branched with a fault schedule, must
        // be indistinguishable from a cold run that carried the same faults
        // from time zero — trace hash, event counters, and every sampled
        // series bin. LIA's cloned controllers re-bind to a copy of the
        // coupling state; CUBIC's are bare and carry all their state along.
        for algo in [CcAlgo::Lia, CcAlgo::Cubic] {
            let net = PaperNetwork::new();
            let s = net.topology.node_by_name("s").unwrap();
            let v4 = net.topology.node_by_name("v4").unwrap();
            let link = net.topology.link_between(s, v4).unwrap();
            let base = Scenario {
                default_path: net.default_path,
                ..Scenario::new(net.topology, net.paths)
            }
            .with_algo(algo)
            .with_timing(SimDuration::from_secs(3), SimDuration::from_millis(100));
            let ckpt = base.checkpoint_at(SimTime::from_millis(1500));
            assert_eq!(ckpt.time(), SimTime::from_millis(1500));
            assert_eq!(ckpt.buffered_captures(), 0, "the prefix streams");
            let variants = [
                FaultSchedule::new().outage(
                    link,
                    SimTime::from_millis(1800),
                    SimTime::from_millis(2300),
                ),
                FaultSchedule::new().loss_burst(
                    link,
                    SimTime::from_millis(1600),
                    SimTime::from_millis(2000),
                    0.3,
                ),
                FaultSchedule::new(),
            ];
            for faults in &variants {
                let branched = ckpt.branch_run(faults, None);
                let cold = base.clone().with_faults(faults.clone()).run();
                assert_eq!(branched.trace_hash, cold.trace_hash, "{algo:?} {faults:?}");
                assert_eq!(branched.events, cold.events);
                assert_eq!(branched.events_scheduled, cold.events_scheduled);
                assert_eq!(branched.events_cancelled, cold.events_cancelled);
                assert_eq!(branched.drops, cold.drops);
                assert_eq!(branched.total.values(), cold.total.values());
                assert_eq!(branched.data_delivered, cold.data_delivered);
            }
        }
    }

    #[test]
    fn streamed_run_equals_buffered_run_for_every_algorithm() {
        // The streaming sink against the buffer-then-post-process path it
        // replaced: same simulator, same seed, records kept in the
        // buffering sink and run through the buffered helpers afterwards.
        for algo in [
            CcAlgo::Cubic,
            CcAlgo::Lia,
            CcAlgo::Olia,
            CcAlgo::Balia,
            CcAlgo::WVegas,
        ] {
            let scenario = paper_scenario(algo)
                .with_timing(SimDuration::from_secs(2), SimDuration::from_millis(100));
            let streamed = scenario.run();

            let (mut world, _) = scenario.build_world();
            let dst = common_destination(&scenario.paths);
            world.sim_mut().set_capture_sink(
                netsim::CaptureConfig::receiver_side(dst),
                Box::<netsim::BufferSink>::default(),
            );
            let end = SimTime::ZERO + scenario.duration;
            world.run_until(end);
            let records = world.sim().captures();
            assert!(!records.is_empty());
            assert_eq!(
                streamed.trace_hash,
                simtrace::TraceHasher::hash_records(records),
                "{algo:?}"
            );
            assert!(simtrace::check_trace(records, &mut simtrace::default_invariants()).is_empty());
            let path_tag = |i: usize| netsim::Tag(1 + i as u16);
            let sampler = simtrace::ThroughputSampler::from_records(
                records,
                &SamplerConfig::tshark_like(dst, scenario.sample_bin, end)
                    .with_tags((0..scenario.paths.len()).map(path_tag)),
            );
            for (i, series) in streamed.per_path.iter().enumerate() {
                let buffered = sampler.tag(path_tag(i)).expect("seeded tag");
                assert_eq!(series.values(), buffered.values(), "{algo:?} path {i}");
            }
            assert_eq!(streamed.events, world.sim().stats().events);
        }
    }

    #[test]
    #[should_panic(expected = "strictly after checkpoint time")]
    fn branch_rejects_faults_inside_the_prefix() {
        let net = PaperNetwork::new();
        let s = net.topology.node_by_name("s").unwrap();
        let v4 = net.topology.node_by_name("v4").unwrap();
        let link = net.topology.link_between(s, v4).unwrap();
        let base = Scenario {
            default_path: net.default_path,
            ..Scenario::new(net.topology, net.paths)
        }
        .with_timing(SimDuration::from_secs(2), SimDuration::from_millis(100));
        let ckpt = base.checkpoint_at(SimTime::from_millis(1000));
        // Fault at exactly the checkpoint time: already inside the replayed
        // prefix, must be refused rather than silently diverge.
        let faults = FaultSchedule::new().outage(
            link,
            SimTime::from_millis(1000),
            SimTime::from_millis(1500),
        );
        let _ = ckpt.branch_run(&faults, None);
    }

    #[test]
    #[should_panic(expected = "paths must share a source")]
    fn paths_from_different_sources_are_rejected() {
        // Path 1 shortened to start at v1: same destination, other source.
        // Its subflow would be pinned to a route the sender is not on.
        let net = PaperNetwork::new();
        let mut paths = net.paths;
        let tail: Vec<NodeId> = paths[0].nodes()[1..].to_vec();
        paths[0] = Path::from_nodes(&net.topology, &tail).unwrap();
        let _ = Scenario::new(net.topology, paths).run();
    }

    #[test]
    fn runs_are_deterministic() {
        let a = paper_scenario(CcAlgo::Olia).run();
        let b = paper_scenario(CcAlgo::Olia).run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.total.values(), b.total.values());
        assert_eq!(a.drops, b.drops);
    }

    #[test]
    fn per_path_series_shapes() {
        let r = paper_scenario(CcAlgo::Cubic).run();
        assert_eq!(r.per_path.len(), 3);
        assert_eq!(r.per_path[0].label, "Path 1");
        assert_eq!(r.total.len(), 40); // 4 s / 100 ms
        for s in &r.per_path {
            assert_eq!(s.len(), 40);
        }
    }

    #[test]
    fn starved_path_keeps_a_zero_series() {
        // Starve Path 3 (blackhole its exclusive first hop): it delivers
        // nothing in the window, but it must still appear in per-path
        // series and per_path_steady_mbps instead of silently vanishing.
        let net = PaperNetwork::new();
        let mut topo = net.topology.clone();
        let s = topo.node_by_name("s").unwrap();
        let v4 = topo.node_by_name("v4").unwrap();
        let link = topo.link_between(s, v4).unwrap();
        topo.set_link_loss(link, 1.0);
        let r = Scenario {
            default_path: net.default_path,
            ..Scenario::new(topo, net.paths)
        }
        .with_timing(SimDuration::from_millis(500), SimDuration::from_millis(100))
        .run();
        assert_eq!(r.per_path.len(), 3);
        assert_eq!(r.per_path[2].label, "Path 3");
        assert_eq!(r.per_path[2].len(), 5);
        assert_eq!(r.per_path[2].mean(), 0.0, "starved path delivers nothing");
        assert_eq!(r.per_path_steady_mbps.len(), 3);
        assert_eq!(r.per_path_steady_mbps[2], 0.0);
        // The surviving paths still move data.
        assert!(r.data_delivered > 0);
    }

    #[test]
    fn lp_cache_does_not_change_results() {
        let cache = lpsolve::LpCache::new();
        let scenario = paper_scenario(CcAlgo::Cubic)
            .with_timing(SimDuration::from_millis(300), SimDuration::from_millis(100));
        let plain = scenario.run();
        let warm = scenario.run_with_lp_cache(Some(&cache));
        let cached = scenario.run_with_lp_cache(Some(&cache));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        for r in [&warm, &cached] {
            assert_eq!(r.trace_hash, plain.trace_hash);
            assert_eq!(r.lp.total_mbps, plain.lp.total_mbps);
            assert_eq!(r.lp.per_path_mbps, plain.lp.per_path_mbps);
            assert_eq!(r.total.values(), plain.total.values());
        }
    }

    #[test]
    fn throughput_never_exceeds_lp_plus_headers() {
        // The LP bounds goodput-ish rates; wire rates include ~4% header
        // overhead and binning jitter, so allow a small margin.
        let r = paper_scenario(CcAlgo::Cubic).run();
        for (i, v) in r.total.values().iter().enumerate() {
            assert!(*v <= r.lp.total_mbps * 1.08 + 1.0, "bin {i}: {v:.1} Mbps");
        }
    }
}
