//! Harness-side replicas of the entry points, for the traced run only.
//!
//! The entry points (`Scenario::run`, `run_fabric`, `run_traffic`, …) are
//! opaque from outside, so to put a span around each layer the harness
//! rebuilds each of them here from the crates' public API and records spans
//! and counts at every call into a layer. A replica is only trusted if it
//! reproduces the entry point bit for bit: `trace` compares every replica
//! op's trace hash and event count with the untraced run's and withholds the
//! layer numbers on a mismatch.
//!
//! `netsim.run_until` is necessarily inclusive of simbase, tcpsim and
//! mptcpsim time: splitting it needs counters inside the program.
//!
//! Nothing in the untraced path (`workloads.rs`) depends on this module.

use crate::span::Tracer;
use crate::workloads::{Inputs, RegenInputs};
use mptcp_overlap::fluidsim::FluidLaw;
use mptcp_overlap::lpsolve::{self, LpCache};
use mptcp_overlap::mptcpsim::{
    self, install_subflows, MptcpConfig, MptcpReceiverAgent, MptcpSenderAgent, SubflowConfig,
};
use mptcp_overlap::netsim::{AgentId, CaptureConfig, Dir, NodeId, RoutingTables, Simulator, Tag};
use mptcp_overlap::overlap_core::worldexp::STREAM_CONN;
use mptcp_overlap::overlap_core::{
    fluid_paper_run, run_sweep_with_store, ConstraintVariant, FabricCell, RunResult, RunStore,
    Scenario, TrafficCell,
};
use mptcp_overlap::simbase::{SimRng, SimTime, SplitMix64, Xoshiro256StarStar};
use mptcp_overlap::simtrace::{self, SamplerConfig, ThroughputSampler, TraceHasher};
use mptcp_overlap::tcpsim::AppSource;
use mptcp_overlap::worldgen::{
    self, FatTree, FatTreeConfig, TrafficConfig, TrafficNet, TrafficNetConfig, TrafficProgram,
};

/// What a replica op reproduced, for the gate against the entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaOp {
    pub events: u64,
    pub hash: u64,
}

/// Counts read at the span boundaries, summed over a rep's simulations.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub hops: u64,
    pub drops: u64,
    pub max_queue_pkts: u64,
    pub timers_fired: u64,
    pub timers_cancelled: u64,
    pub capture_records: u64,
    pub events: u64,
    pub events_scheduled: u64,
    pub events_cancelled: u64,
    pub segments_sent: u64,
    pub retransmits: u64,
    pub rtos: u64,
    pub conns_started: u64,
    pub conns_finished: u64,
    pub dup_bytes: u64,
    pub fault_events: u64,
    pub lp_hits: u64,
    pub lp_misses: u64,
    pub store_bytes_written: u64,
    pub store_records: u64,
    /// Ops whose serial-replica hash differed from the entry point's,
    /// beyond those the per-op gate sees.
    pub replica_mismatches: Vec<String>,
}

impl Counts {
    /// Read a finished simulation's counters and its endpoints' statistics.
    fn absorb(&mut self, sim: &Simulator, senders: &[AgentId], receivers: &[AgentId]) {
        for link in sim.topology().link_ids() {
            for dir in [Dir::AtoB, Dir::BtoA] {
                let s = sim.link_stats(link, dir);
                self.hops += s.tx_packets;
                self.max_queue_pkts = self.max_queue_pkts.max(s.max_queue_packets as u64);
            }
        }
        let s = sim.stats();
        self.drops += s.packets_dropped;
        self.timers_fired += s.timers_fired;
        self.timers_cancelled += s.timers_cancelled;
        self.events += s.events;
        self.capture_records += sim.captures().len() as u64;
        self.events_scheduled += sim.events_scheduled();
        self.events_cancelled += sim.events_cancelled();
        for &id in senders {
            let sender = sender_agent(sim, id);
            for i in 0..sender.subflow_count() {
                let st = sender.subflow_sender(i).stats();
                self.segments_sent += st.segments_sent;
                self.retransmits += st.retransmits;
                self.rtos += st.rtos;
            }
        }
        for &id in receivers {
            self.dup_bytes += receiver_agent(sim, id).stats().duplicate_bytes;
        }
    }
}

fn sender_agent(sim: &Simulator, id: AgentId) -> &MptcpSenderAgent {
    sim.agent(id)
        .as_any()
        .and_then(|a| a.downcast_ref::<MptcpSenderAgent>())
        .expect("installed as MptcpSenderAgent")
}

fn receiver_agent(sim: &Simulator, id: AgentId) -> &MptcpReceiverAgent {
    sim.agent(id)
        .as_any()
        .and_then(|a| a.downcast_ref::<MptcpReceiverAgent>())
        .expect("installed as MptcpReceiverAgent")
}

fn capture_at(dsts: &[NodeId]) -> CaptureConfig {
    dsts[1..]
        .iter()
        .fold(CaptureConfig::receiver_side(dsts[0]), |c, &d| c.add_node(d))
}

// ---------------------------------------------------------------------------
// Scenario::run
// ---------------------------------------------------------------------------

struct BuiltScenario {
    sim: Simulator,
    sender: AgentId,
    receiver: AgentId,
    dst: NodeId,
}

fn path_tag(i: usize) -> Tag {
    Tag(1 + u16::try_from(i).expect("a handful of paths"))
}

/// `Scenario::build_sim`, for scenarios without cross traffic.
fn build_scenario(s: &Scenario, tr: &mut Tracer) -> BuiltScenario {
    assert!(
        s.background.is_empty(),
        "replica does not model cross traffic"
    );
    let src = s.paths[0].src();
    let dst = mptcpsim::common_destination(&s.paths);
    let routing = tr.span("netsim.routing_build", |_| {
        let mut routing = RoutingTables::new(&s.topology);
        for (i, p) in s.paths.iter().enumerate() {
            routing.install_path(p, path_tag(i));
        }
        routing
    });
    tr.span("netsim.sim_build", |_| {
        let mut order: Vec<usize> = (0..s.paths.len()).collect();
        order.swap(0, s.default_path);
        let subflows = order
            .iter()
            .map(|&ci| {
                let port = u16::try_from(ci).expect("a handful of paths");
                SubflowConfig {
                    tag: path_tag(ci),
                    src_port: 5000 + port,
                    dst_port: 6000 + port,
                }
            })
            .collect();
        let mut sim = Simulator::new(s.topology.clone(), routing, s.seed);
        sim.set_capture(CaptureConfig::receiver_side(dst));
        sim.set_forward_jitter(s.forward_jitter);
        sim.install_faults(&s.faults);
        let cfg = MptcpConfig {
            algo: s.algo,
            scheduler: s.scheduler,
            app: s.app,
            sack: s.sack,
            ecn: s.ecn,
            ..MptcpConfig::bulk(dst, subflows)
        };
        let sender = sim.add_agent(src, Box::new(MptcpSenderAgent::new(cfg)), SimTime::ZERO);
        let receiver = if s.sack {
            MptcpReceiverAgent::default()
        } else {
            MptcpReceiverAgent::default().without_sack()
        };
        let receiver = sim.add_agent(dst, Box::new(receiver), SimTime::ZERO);
        BuiltScenario {
            sim,
            sender,
            receiver,
            dst,
        }
    })
}

/// `Scenario::collect`'s passes over the capture buffer, then teardown.
fn finish_scenario(
    s: &Scenario,
    built: BuiltScenario,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> ReplicaOp {
    let BuiltScenario {
        sim,
        sender,
        receiver,
        dst,
    } = built;
    let end = SimTime::ZERO + s.duration;
    let hash = tr.span("simtrace.hash", |_| {
        TraceHasher::hash_records(sim.captures())
    });
    tr.span("simtrace.invariants", |_| {
        let violations = simtrace::check_trace(sim.captures(), &mut simtrace::default_invariants());
        assert!(
            violations.is_empty(),
            "trace invariants violated: {violations:?}"
        );
    });
    tr.span("simtrace.sampler", |_| {
        let cfg = SamplerConfig::tshark_like(dst, s.sample_bin, end)
            .with_tags((0..s.paths.len()).map(path_tag));
        std::hint::black_box(ThroughputSampler::from_records(sim.captures(), &cfg));
    });
    counts.absorb(&sim, &[sender], &[receiver]);
    counts.fault_events += s.faults.len() as u64;
    counts.conns_started += 1;
    counts.conns_finished += u64::from(sender_agent(&sim, sender).is_complete());
    let events = sim.stats().events;
    tr.span("netsim.teardown", |_| drop(sim));
    ReplicaOp { events, hash }
}

fn solve_lp(s: &Scenario, cache: Option<&LpCache>, tr: &mut Tracer) {
    tr.span("lpsolve.solve", |_| {
        std::hint::black_box(match cache {
            Some(c) => c.solve(&s.topology, &s.paths),
            None => lpsolve::solve_max_throughput(&s.topology, &s.paths),
        });
    });
}

/// `Scenario::run_with_lp_cache` on the serial engine.
fn scenario_run(
    s: &Scenario,
    cache: Option<&LpCache>,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> ReplicaOp {
    solve_lp(s, cache, tr);
    let mut built = build_scenario(s, tr);
    tr.span("netsim.run_until", |_| {
        built.sim.run_until(SimTime::ZERO + s.duration)
    });
    finish_scenario(s, built, tr, counts)
}

// ---------------------------------------------------------------------------
// run_fabric
// ---------------------------------------------------------------------------

/// `worldexp`'s private host pairing: a seeded Fisher–Yates shuffle of the
/// host list on stream `STREAM_PAIRING`, then consecutive pairs.
fn pair_hosts(tree: &FatTree, connections: usize) -> Vec<(NodeId, NodeId)> {
    let mut hosts = tree.hosts.clone();
    let mut rng = Xoshiro256StarStar::new(SplitMix64::derive(tree.seed, worldgen::STREAM_PAIRING));
    for i in (1..hosts.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        hosts.swap(i, j);
    }
    (0..connections)
        .map(|c| (hosts[2 * c], hosts[2 * c + 1]))
        .collect()
}

fn fabric_run(cell: &FabricCell, tr: &mut Tracer, counts: &mut Counts) -> ReplicaOp {
    let tree = tr.span("worldgen.fattree_build", |_| {
        FatTree::build(&FatTreeConfig {
            k: cell.k,
            seed: cell.seed,
            ..FatTreeConfig::default()
        })
    });
    let (routing, placements) = tr.span("worldgen.path_place", |_| {
        let mut routing = tree.routing.clone();
        let placements: Vec<_> = pair_hosts(&tree, cell.connections)
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst))| {
                let conn_seed = SplitMix64::derive(cell.seed, STREAM_CONN | i as u64);
                let paths = tree.ecmp_subflow_paths(src, dst, conn_seed, 2);
                (src, dst, install_subflows(&mut routing, &paths, 1, 5000))
            })
            .collect();
        (routing, placements)
    });
    let (mut sim, senders, receivers) = tr.span("netsim.sim_build", |_| {
        let mut sim = Simulator::new(tree.topology.clone(), routing, cell.seed);
        let dsts: Vec<NodeId> = placements.iter().map(|p| p.1).collect();
        sim.set_capture(capture_at(&dsts));
        let (mut senders, mut receivers) = (Vec::new(), Vec::new());
        for (src, dst, subflows) in &placements {
            let cfg = MptcpConfig {
                algo: cell.algo,
                ..MptcpConfig::bulk(*dst, subflows.clone())
            };
            senders.push(sim.add_agent(*src, Box::new(MptcpSenderAgent::new(cfg)), SimTime::ZERO));
            receivers.push(sim.add_agent(
                *dst,
                Box::new(MptcpReceiverAgent::default()),
                SimTime::ZERO,
            ));
        }
        (sim, senders, receivers)
    });
    tr.span("netsim.run_until", |_| {
        sim.run_until(SimTime::ZERO + cell.duration)
    });
    let hash = tr.span("simtrace.hash", |_| {
        TraceHasher::hash_records(sim.captures())
    });
    counts.absorb(&sim, &senders, &receivers);
    counts.conns_started += cell.connections as u64;
    let events = sim.stats().events;
    tr.span("netsim.teardown", |_| drop((sim, tree)));
    ReplicaOp { events, hash }
}

// ---------------------------------------------------------------------------
// run_traffic
// ---------------------------------------------------------------------------

fn traffic_run(cell: &TrafficCell, tr: &mut Tracer, counts: &mut Counts) -> ReplicaOp {
    let program = tr.span("worldgen.traffic_program", |_| {
        TrafficProgram::generate(&TrafficConfig {
            connections: cell.pairs,
            arrival_rate_hz: cell.arrival_rate_hz,
            seed: cell.seed,
            ..TrafficConfig::default()
        })
    });
    let net = tr.span("worldgen.traffic_net", |_| {
        TrafficNet::build(&TrafficNetConfig {
            pairs: cell.pairs,
            ..TrafficNetConfig::default()
        })
    });
    let (routing, subflows) = tr.span("netsim.routing_build", |_| {
        let mut routing = RoutingTables::new(&net.topology);
        let subflows: Vec<_> = (0..cell.pairs)
            .map(|i| install_subflows(&mut routing, &net.paths(i), 1, 5000))
            .collect();
        (routing, subflows)
    });
    let end = SimTime::ZERO + cell.duration;
    let (mut sim, senders, receivers) = tr.span("netsim.sim_build", |_| {
        let mut sim = Simulator::new(net.topology.clone(), routing, cell.seed);
        sim.set_capture(capture_at(&net.dsts));
        let (mut senders, mut receivers) = (Vec::new(), Vec::new());
        for (i, conn) in program.connections.iter().enumerate() {
            let cfg = MptcpConfig {
                algo: cell.algo,
                app: AppSource::Fixed(conn.size_bytes),
                ..MptcpConfig::bulk(net.dsts[i], subflows[i].clone())
            };
            senders.push(sim.add_agent(
                net.srcs[i],
                Box::new(MptcpSenderAgent::new(cfg)),
                conn.start,
            ));
            receivers.push(sim.add_agent(
                net.dsts[i],
                Box::new(MptcpReceiverAgent::default()),
                SimTime::ZERO,
            ));
        }
        (sim, senders, receivers)
    });
    tr.span("netsim.run_until", |_| sim.run_until(end));
    let hash = tr.span("simtrace.hash", |_| {
        TraceHasher::hash_records(sim.captures())
    });
    counts.absorb(&sim, &senders, &receivers);
    for (conn, &rid) in program.connections.iter().zip(&receivers) {
        counts.conns_started += u64::from(conn.start < end);
        let got = receiver_agent(&sim, rid).data_delivered();
        counts.conns_finished += u64::from(got >= conn.size_bytes);
    }
    let events = sim.stats().events;
    tr.span("netsim.teardown", |_| drop((sim, net, program)));
    ReplicaOp { events, hash }
}

// ---------------------------------------------------------------------------
// regen-service
// ---------------------------------------------------------------------------

/// Spans the traced rep records around calls it cannot see into, or that do
/// work the untraced rep does not. [`comparable_s`] leaves them out.
pub const SERIAL_PASS: &str = "core.serial_pass";
pub const FLUID_SOLVE: &str = "fluidsim.solve";

fn regen_run(r: &RegenInputs, tr: &mut Tracer, counts: &mut Counts) -> Vec<ReplicaOp> {
    let _ = std::fs::remove_dir_all(&r.store_dir);
    let store = RunStore::open(&r.store_dir).expect("store dir under the scratch dir");
    // The real pooled call, timed as one span each for cold and warm.
    let cold = tr.span("core.sweep_cold", |_| {
        run_sweep_with_store(&r.spec, &r.runner, Some(&store))
    });
    let warm = tr.span("core.store.warm_pass", |_| {
        run_sweep_with_store(&r.spec, &r.runner, Some(&store))
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&r.store_dir);
    let op_of = |res: &RunResult, events| ReplicaOp {
        events,
        hash: res.trace_hash,
    };
    let mut ops: Vec<ReplicaOp> = cold
        .results
        .iter()
        .map(|res| op_of(res, res.events))
        .collect();
    ops.extend(warm.results.iter().map(|res| op_of(res, 0)));

    // The same cells serially against a second fresh store, for the
    // per-cell digest / get / run / put spans.
    tr.span(SERIAL_PASS, |tr| {
        let store = RunStore::open(&r.store_dir).expect("store dir under the scratch dir");
        let cache = LpCache::new();
        let cells = r.spec.cells();
        let mut digests = Vec::with_capacity(cells.len());
        for (cell, real) in cells.iter().zip(&cold.results) {
            tr.set_op(cell.index);
            tr.span("core.cell", |tr| {
                let scenario = r.spec.scenario(cell);
                let digest = tr.span("core.digest", |_| scenario.digest());
                let miss = tr.span("core.store.get_miss", |_| store.get(digest));
                assert!(miss.is_none(), "fresh store answered a lookup");
                let op = scenario_run(&scenario, Some(&cache), tr, counts);
                if op != op_of(real, real.events) {
                    counts.replica_mismatches.push(RegenInputs::cell_name(
                        "serial",
                        cell.algo,
                        cell.default_path,
                        cell.seed,
                    ));
                }
                tr.span("core.store.put", |_| {
                    store.put(digest, real).expect("store insert")
                });
                digests.push(digest);
            });
        }
        for (&digest, real) in digests.iter().zip(&cold.results) {
            let hit = tr.span("core.store.get", |_| store.get(digest));
            assert!(
                hit.is_some_and(|h| h.trace_hash == real.trace_hash),
                "store round-trip changed a record"
            );
        }
        let stats = store.stats();
        counts.store_bytes_written += stats.bytes_written;
        counts.store_records += digests.len() as u64;
        counts.lp_hits += cache.stats().hits;
        counts.lp_misses += cache.stats().misses;
    });
    let _ = std::fs::remove_dir_all(&r.store_dir);

    // run_outage_sweep's checkpoint + branches, then the cold comparison run.
    let base = r.base_scenario();
    let first_branch = ops.len();
    tr.span("core.branch_sweep", |tr| {
        let mut prefix = build_scenario(&base, tr);
        tr.span("netsim.run_until", |_| {
            prefix.sim.run_until(r.checkpoint_time())
        });
        let snapshot = tr.span("netsim.checkpoint", |_| prefix.sim.checkpoint());
        let BuiltScenario {
            sim,
            sender,
            receiver,
            dst,
        } = prefix;
        tr.span("netsim.teardown", |_| drop(sim));
        for (i, &t_up) in r.restores.iter().enumerate() {
            tr.set_op(first_branch + i);
            let variant = base.clone().with_faults(r.outage(t_up));
            solve_lp(&variant, None, tr);
            let mut sim = tr.span("netsim.restore", |_| Simulator::restore(&snapshot));
            sim.install_faults(&variant.faults);
            tr.span("netsim.run_until", |_| {
                sim.run_until(SimTime::ZERO + variant.duration)
            });
            let built = BuiltScenario {
                sim,
                sender,
                receiver,
                dst,
            };
            ops.push(finish_scenario(&variant, built, tr, counts));
        }
    });
    tr.set_op(ops.len());
    ops.push(tr.span("core.cold_run", |tr| {
        scenario_run(&r.cold_scenario(), None, tr, counts)
    }));

    tr.span(FLUID_SOLVE, |_| {
        std::hint::black_box(fluid_paper_run(
            ConstraintVariant::Consistent,
            r.setup.net.default_path,
            FluidLaw::Lia,
        ));
    });
    ops
}

// ---------------------------------------------------------------------------

/// One traced rep of a workload: every op rebuilt from public API, in the
/// order `workloads::op_names` lists them.
pub fn traced_rep(inputs: &Inputs, tr: &mut Tracer, counts: &mut Counts) -> Vec<ReplicaOp> {
    tr.span("rep", |tr| match inputs {
        Inputs::Scenarios(list) => list
            .iter()
            .enumerate()
            .map(|(i, s)| {
                tr.set_op(i);
                tr.span("core.scenario_run", |tr| scenario_run(s, None, tr, counts))
            })
            .collect(),
        Inputs::Fabric(cell) => vec![tr.span("core.run_fabric", |tr| fabric_run(cell, tr, counts))],
        Inputs::Traffic(cells) => cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                tr.set_op(i);
                tr.span("core.run_traffic", |tr| traffic_run(cell, tr, counts))
            })
            .collect(),
        Inputs::Regen(r) => regen_run(r, tr, counts),
    })
}

/// The traced rep's wall time over the work the untraced rep also does.
pub fn comparable_s(tr: &Tracer) -> f64 {
    tr.total_s("rep") - tr.total_s(SERIAL_PASS) - tr.total_s(FLUID_SOLVE)
}
