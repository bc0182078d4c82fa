//! The five workloads, through the repository's real entry points only.
//!
//! This module is the whole untraced path. It calls `Scenario::run`,
//! `run_fabric`, `run_traffic`, `run_sweep_with_store`,
//! `Scenario::checkpoint_at` and `ScenarioCheckpoint::branch_run`, plus the
//! constructors and builder methods that make their arguments, and nothing
//! else — in particular none of the items ROADMAP item 3 may delete, and no
//! code of the traced path — so an internal API change can break `trace`
//! but not the end-to-end numbers. [`selfcheck`] holds this file to that.

use mptcp_overlap::mptcpsim::CcAlgo;
use mptcp_overlap::netsim::FaultSchedule;
use mptcp_overlap::overlap_core::{
    failover_base_scenario, failover_scenario, run_fabric, run_sweep_with_store, run_traffic,
    FabricCell, FailoverConfig, FailoverSetup, PaperNetwork, RunResult, RunStore, RunnerConfig,
    Scenario, SubflowSelector, SweepSpec, TrafficCell,
};
use mptcp_overlap::simbase::{SimDuration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Assert the API-coupling guard on this file's own text (`selfcheck`).
pub fn selfcheck() {
    const SOURCE: &str = include_str!("workloads.rs");
    // Spelled in pieces so the list does not find itself.
    let banned = [
        ["reg", "ions"],
        ["region", "_map"],
        ["eng", "ine"],
        ["Queue", "Engine"],
        ["run_", "parallel"],
        ["use_reference", "_heap"],
        ["Event", "Log"],
        ["repl", "ica"],
    ];
    for parts in banned {
        let name = parts.concat();
        assert!(!SOURCE.contains(&name), "the untraced path names `{name}`");
    }
}

/// One benchmark workload. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperBulk,
    FabricEcmp,
    Churn4k,
    Overload4k,
    RegenService,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperBulk,
        Workload::FabricEcmp,
        Workload::Churn4k,
        Workload::Overload4k,
        Workload::RegenService,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBulk => "paper-bulk",
            Workload::FabricEcmp => "fabric-ecmp",
            Workload::Churn4k => "churn-4k",
            Workload::Overload4k => "overload-4k",
            Workload::RegenService => "regen-service",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one rep runs.
    pub fn shape(self) -> &'static str {
        match self {
            Workload::PaperBulk => "paper topology, 1 connection x 3 subflows, CUBIC + LIA + OLIA, 30 s each (3 ops)",
            Workload::FabricEcmp => "k=8 fat-tree, 64 connections x 2 ECMP subflows, LIA, 4 s (1 op)",
            Workload::Churn4k => "4000 Poisson/Pareto connections at 250/s over 18 s, LIA, 2 seeds (2 ops)",
            Workload::Overload4k => "4000 Poisson/Pareto connections at 1000/s over 4 s, LIA, 3 seeds (3 ops)",
            Workload::RegenService => "30-cell sweep cold + warm through a fresh store on 2 workers, 4-branch outage sweep + 1 cold run (65 ops)",
        }
    }

    /// Which reference the simulated numbers are held against.
    pub fn reference(self) -> &'static str {
        match self {
            Workload::PaperBulk | Workload::RegenService => "LP optimum",
            _ => "unvalidated",
        }
    }
}

/// What one operation reported. `events`, `bytes` and `hash` are simulated
/// quantities: the same seed on the same commit gives the same values.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub name: String,
    /// Events the operation's simulation processed (0 for a store hit).
    pub events: u64,
    /// Connection-level in-order bytes it delivered (0 for a store hit).
    pub bytes: u64,
    pub hash: u64,
    /// Algorithm and steady-state total ÷ LP optimum, for an intact-network
    /// run: the one simulated quantity the repo has a reference for.
    pub fidelity: Option<(String, f64)>,
    /// Why the operation counts as failed, if it does.
    pub failure: Option<String>,
}

impl Op {
    fn failed(name: &str, why: String) -> Op {
        Op {
            name: name.to_string(),
            events: 0,
            bytes: 0,
            hash: 0,
            fidelity: None,
            failure: Some(why),
        }
    }

    fn of_run(name: String, r: &RunResult, algo: Option<CcAlgo>) -> Op {
        Op {
            name,
            events: r.events,
            bytes: r.data_delivered,
            hash: r.trace_hash,
            fidelity: algo.map(|a| (a.name().to_string(), r.efficiency())),
            failure: (!r.is_physically_consistent(2.0)).then(|| {
                format!(
                    "per-path rates {:?} Mbps are infeasible for the LP",
                    r.per_path_steady_mbps
                )
            }),
        }
    }

    /// A run answered from the store: nothing was simulated in this rep.
    fn of_store_hit(name: String, r: &RunResult) -> Op {
        Op {
            events: 0,
            bytes: 0,
            ..Op::of_run(name, r, None)
        }
    }
}

/// A workload's inputs, generated from the seed before anything is timed.
pub enum Inputs {
    Scenarios(Vec<Scenario>),
    Fabric(FabricCell),
    Traffic(Vec<TrafficCell>),
    Regen(Box<RegenInputs>),
}

pub struct RegenInputs {
    pub spec: SweepSpec,
    pub runner: RunnerConfig,
    pub setup: FailoverSetup,
    pub failover: FailoverConfig,
    pub restores: Vec<SimTime>,
    pub seed: u64,
    pub store_dir: PathBuf,
}

/// Sweep workers for `regen-service` (= `nproc` on the host this was sized on).
pub const REGEN_WORKERS: usize = 2;

const REGEN_ALGOS: [CcAlgo; 5] = [
    CcAlgo::Cubic,
    CcAlgo::Lia,
    CcAlgo::Olia,
    CcAlgo::Balia,
    CcAlgo::WVegas,
];

impl RegenInputs {
    pub fn checkpoint_time(&self) -> SimTime {
        SimTime::from_nanos(self.failover.t_down.as_nanos() - 1)
    }

    pub fn outage(&self, t_up: SimTime) -> FaultSchedule {
        FaultSchedule::new().outage(self.setup.dead_link, self.failover.t_down, t_up)
    }

    pub fn base_scenario(&self) -> Scenario {
        failover_base_scenario(&self.setup, CcAlgo::Lia, self.seed, &self.failover)
    }

    /// The cold run the first branch variant must equal.
    pub fn cold_scenario(&self) -> Scenario {
        let cfg = FailoverConfig {
            t_up: self.restores[0],
            ..self.failover.clone()
        };
        failover_scenario(&self.setup, CcAlgo::Lia, self.seed, &cfg)
    }

    pub fn cell_name(prefix: &str, algo: CcAlgo, default_path: usize, seed: u64) -> String {
        format!("{prefix}.{}.p{}.s{seed}", algo.name(), default_path + 1)
    }

    pub fn branch_name(t_up: SimTime) -> String {
        format!("branch.up{}s", t_up.as_nanos() / 1_000_000_000)
    }

    pub const COLD_NAME: &'static str = "failover.cold";
}

/// Generate `workload`'s inputs from `seed`. `scratch` is the only directory
/// a rep may write under.
pub fn generate(workload: Workload, seed: u64, scratch: &Path) -> Inputs {
    match workload {
        Workload::PaperBulk => {
            let net = PaperNetwork::new();
            let base = Scenario {
                default_path: net.default_path,
                ..Scenario::new(net.topology, net.paths)
            }
            .with_seed(seed)
            .with_timing(SimDuration::from_secs(30), SimDuration::from_millis(100));
            Inputs::Scenarios(
                [CcAlgo::Cubic, CcAlgo::Lia, CcAlgo::Olia]
                    .into_iter()
                    .map(|a| base.clone().with_algo(a))
                    .collect(),
            )
        }
        Workload::FabricEcmp => Inputs::Fabric(FabricCell {
            k: 8,
            connections: 64,
            duration: SimDuration::from_secs(4),
            ..FabricCell::table(seed, SubflowSelector::Ecmp)
        }),
        Workload::Churn4k => Inputs::Traffic(traffic_cells(seed, 2, 250.0, 18)),
        Workload::Overload4k => Inputs::Traffic(traffic_cells(seed, 3, 1000.0, 4)),
        Workload::RegenService => Inputs::Regen(Box::new(RegenInputs {
            spec: SweepSpec::paper(&REGEN_ALGOS, seed..seed + 2, SimDuration::from_secs(4)),
            runner: RunnerConfig {
                workers: REGEN_WORKERS,
                progress: false,
            },
            setup: FailoverSetup::paper(),
            failover: FailoverConfig::default(),
            restores: [6, 8, 10, 12].map(SimTime::from_secs).to_vec(),
            seed,
            store_dir: scratch.join(format!("store-{}", std::process::id())),
        })),
    }
}

fn traffic_cells(seed: u64, seeds: u64, arrival_rate_hz: f64, secs: u64) -> Vec<TrafficCell> {
    (seed..seed + seeds)
        .map(|s| TrafficCell {
            arrival_rate_hz,
            duration: SimDuration::from_secs(secs),
            ..TrafficCell::table(4000, s)
        })
        .collect()
}

/// The names of the operations one rep of `inputs` runs, in order.
pub fn op_names(inputs: &Inputs) -> Vec<String> {
    match inputs {
        Inputs::Scenarios(list) => list.iter().map(|s| s.algo.name().to_string()).collect(),
        Inputs::Fabric(_) => vec!["fabric".to_string()],
        Inputs::Traffic(cells) => cells
            .iter()
            .map(|c| format!("traffic.s{}", c.seed))
            .collect(),
        Inputs::Regen(r) => {
            let cells = r.spec.cells();
            let sweep = |prefix: &'static str| {
                cells
                    .iter()
                    .map(move |c| RegenInputs::cell_name(prefix, c.algo, c.default_path, c.seed))
            };
            sweep("cold")
                .chain(sweep("warm"))
                .chain(r.restores.iter().map(|&t| RegenInputs::branch_name(t)))
                .chain([RegenInputs::COLD_NAME.to_string()])
                .collect()
        }
    }
}

/// Run `f`; if it panics, every operation in `names` counts as failed.
pub fn guarded(names: &[String], f: impl FnOnce() -> Vec<Op>) -> Vec<Op> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(ops) => ops,
        Err(payload) => {
            let why = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panic")
                .to_string();
            names
                .iter()
                .map(|n| Op::failed(n, format!("panicked: {why}")))
                .collect()
        }
    }
}

/// One rep: every operation of the workload, one after another. Results are
/// reduced to [`Op`]s and dropped inside, so teardown is part of the rep.
pub fn run_rep(inputs: &Inputs) -> Vec<Op> {
    let names = op_names(inputs);
    match inputs {
        Inputs::Scenarios(list) => list
            .iter()
            .zip(&names)
            .flat_map(|(scenario, name)| {
                guarded(std::slice::from_ref(name), || {
                    vec![Op::of_run(
                        name.clone(),
                        &scenario.run(),
                        Some(scenario.algo),
                    )]
                })
            })
            .collect(),
        Inputs::Fabric(cell) => guarded(&names, || {
            let run = run_fabric(cell);
            let bytes: u64 = run.conns.iter().map(|c| c.delivered).sum();
            vec![Op {
                name: names[0].clone(),
                events: run.events,
                bytes,
                hash: run.trace_hash,
                fidelity: None,
                failure: (bytes == 0).then(|| "no connection delivered a byte".to_string()),
            }]
        }),
        Inputs::Traffic(cells) => cells
            .iter()
            .zip(&names)
            .flat_map(|(cell, name)| {
                guarded(std::slice::from_ref(name), || {
                    let run = run_traffic(cell);
                    vec![Op {
                        name: name.clone(),
                        events: run.events,
                        bytes: run.delivered,
                        hash: run.trace_hash,
                        fidelity: None,
                        failure: (run.delivered > run.offered).then(|| {
                            format!(
                                "delivered {} > offered {} bytes",
                                run.delivered, run.offered
                            )
                        }),
                    }]
                })
            })
            .collect(),
        Inputs::Regen(r) => regen_rep(r, &names),
    }
}

fn regen_rep(r: &RegenInputs, names: &[String]) -> Vec<Op> {
    let cells = r.spec.len();
    let (sweep_names, fault_names) = names.split_at(2 * cells);
    let mut ops = guarded(sweep_names, || {
        let _ = std::fs::remove_dir_all(&r.store_dir);
        let store = RunStore::open(&r.store_dir).expect("store dir under the scratch dir");
        let cold = run_sweep_with_store(&r.spec, &r.runner, Some(&store));
        let warm = run_sweep_with_store(&r.spec, &r.runner, Some(&store));
        // The store's counters are cumulative over both passes.
        let warm_misses = match (cold.store_stats, warm.store_stats) {
            (Some(c), Some(w)) => w.misses - c.misses,
            _ => cells as u64,
        };
        let mut ops: Vec<Op> = cold
            .results
            .iter()
            .zip(sweep_names)
            .zip(&cold.cells)
            .map(|((res, name), cell)| Op::of_run(name.clone(), res, Some(cell.algo)))
            .collect();
        for (i, (res, name)) in warm.results.iter().zip(&sweep_names[cells..]).enumerate() {
            let mut op = Op::of_store_hit(name.clone(), res);
            if res.trace_hash != cold.results[i].trace_hash {
                op.failure = Some("warm result differs from the cold run".to_string());
            } else if (i as u64) < warm_misses {
                // Which cells missed is not observable from outside; the count is.
                op.failure = Some(format!("warm pass simulated {warm_misses} cells"));
            }
            ops.push(op);
        }
        ops
    });
    let _ = std::fs::remove_dir_all(&r.store_dir);

    ops.extend(guarded(fault_names, || {
        let ckpt = r.base_scenario().checkpoint_at(r.checkpoint_time());
        let mut ops: Vec<Op> = r
            .restores
            .iter()
            .zip(fault_names)
            .map(|(&t_up, name)| {
                Op::of_run(name.clone(), &ckpt.branch_run(&r.outage(t_up), None), None)
            })
            .collect();
        drop(ckpt);
        let cold = Op::of_run(
            RegenInputs::COLD_NAME.to_string(),
            &r.cold_scenario().run(),
            None,
        );
        if ops[0].hash != cold.hash || ops[0].events != cold.events {
            ops[0].failure = Some("branch differs from its cold run".to_string());
        }
        ops.push(cold);
        ops
    }));
    ops
}
