//! One measuring process, and the line protocol it reports in.
//!
//! The parent never measures in its own process: every set-up, every timed
//! rep and every kernel runs in a child started with an empty environment,
//! one child at a time, so a child's `VmHWM` is that workload's own and no
//! `OVERLAP_*` or `MALLOC_*` setting leaks in. A child prints one record per
//! line on stdout; [`Report::parse`] reads them back in the parent.

use crate::clock;
use crate::kernels;
use crate::replica::{self, Counts};
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{self, Op, Workload};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// What the parent asks one child to do.
#[derive(Debug, Clone)]
pub struct Job {
    pub workload: Workload,
    pub seed: u64,
    /// Keep timing reps until this many host seconds have been measured …
    pub seconds: f64,
    /// … and at least this many reps are done. Both 0: set up and stop.
    pub min_reps: usize,
    /// After the untraced reps, run one traced replica rep.
    pub traced: bool,
    pub scratch: PathBuf,
}

/// Everything a child reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Child start → first timed rep: input generation, scratch dir, warm-up rep.
    pub setup_s: f64,
    /// Wall seconds of each timed rep. Like every time a child reports,
    /// compensated for clock drift (see `clock::pace`).
    pub reps: Vec<f64>,
    /// The same reps as the host's clock read them.
    pub raw_reps: Vec<f64>,
    /// The warm-up rep's ops (a parsed report carries no `failure` in them:
    /// failures travel in `failures`).
    pub ops: Vec<Op>,
    /// Op executions checked (warm-up, timed and traced reps) and failed.
    pub attempted: u64,
    pub failed: u64,
    /// `<op>: <why>` for the first failure of each op.
    pub failures: Vec<String>,
    /// `VmHWM` at exit, KiB; `None` where `/proc/self/status` is unreadable.
    pub rss_kib: Option<u64>,
    pub layers: Vec<(String, f64)>,
    /// The traced rep did not reproduce the entry points; no layer numbers.
    pub withheld: bool,
}

impl Report {
    fn print(&self) {
        let mut out = String::new();
        let _ = writeln!(out, "setup_s {}", self.setup_s);
        for (r, raw) in self.reps.iter().zip(&self.raw_reps) {
            let _ = writeln!(out, "rep {r} {raw}");
        }
        for o in &self.ops {
            let (algo, fid) = match &o.fidelity {
                Some((a, f)) => (a.as_str(), f.to_string()),
                None => ("-", "-".to_string()),
            };
            let _ = writeln!(
                out,
                "op {} {} {} {:016x} {algo} {fid}",
                o.name, o.events, o.bytes, o.hash
            );
        }
        let _ = writeln!(out, "attempted {}", self.attempted);
        let _ = writeln!(out, "failed {}", self.failed);
        for f in &self.failures {
            let _ = writeln!(out, "failure {}", f.replace('\n', " "));
        }
        if let Some(kib) = self.rss_kib {
            let _ = writeln!(out, "rss_kib {kib}");
        }
        for (name, value) in &self.layers {
            let _ = writeln!(out, "layer {name} {value}");
        }
        if self.withheld {
            let _ = writeln!(out, "withheld");
        }
        print!("{out}");
    }

    pub fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        let mut saw_setup = false;
        for line in text.lines() {
            let bad = || format!("unreadable child line {line:?}");
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let f = |s: &str| s.parse::<f64>().map_err(|_| bad());
            let u = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match key {
                "setup_s" => {
                    r.setup_s = f(rest)?;
                    saw_setup = true;
                }
                "rep" => {
                    let (rep, raw) = rest.split_once(' ').ok_or_else(bad)?;
                    r.reps.push(f(rep)?);
                    r.raw_reps.push(f(raw)?);
                }
                "op" => {
                    let t: Vec<&str> = rest.split(' ').collect();
                    let [name, events, bytes, hash, algo, fid] = t[..] else {
                        return Err(bad());
                    };
                    r.ops.push(Op {
                        name: name.to_string(),
                        events: u(events)?,
                        bytes: u(bytes)?,
                        hash: u64::from_str_radix(hash, 16).map_err(|_| bad())?,
                        fidelity: match algo {
                            "-" => None,
                            a => Some((a.to_string(), f(fid)?)),
                        },
                        failure: None,
                    });
                }
                "attempted" => r.attempted = u(rest)?,
                "failed" => r.failed = u(rest)?,
                "failure" => r.failures.push(rest.to_string()),
                "rss_kib" => r.rss_kib = Some(u(rest)?),
                "layer" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    r.layers.push((name.to_string(), f(value)?));
                }
                "withheld" => r.withheld = true,
                _ => return Err(bad()),
            }
        }
        if saw_setup || !r.layers.is_empty() {
            Ok(r)
        } else {
            Err("child reported nothing".to_string())
        }
    }
}

/// Peak resident set of this process, KiB (`VmHWM` in `/proc/self/status`).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Checks a rep's ops against the warm-up rep's and keeps the tally.
struct Tally {
    reference: Vec<Op>,
    report: Report,
}

impl Tally {
    fn fail(&mut self, op: &str, why: &str) {
        self.report.failed += 1;
        let prefix = format!("{op}: ");
        if !self.report.failures.iter().any(|f| f.starts_with(&prefix)) {
            self.report.failures.push(format!("{prefix}{why}"));
        }
    }

    /// An op fails on its own check, or if the same seed gave another trace
    /// hash, event count or byte count than in the warm-up rep.
    fn check(&mut self, ops: &[Op]) {
        assert_eq!(ops.len(), self.reference.len(), "a rep changed its op list");
        for (i, op) in ops.iter().enumerate() {
            self.report.attempted += 1;
            let r = &self.reference[i];
            if let Some(why) = &op.failure {
                self.fail(&op.name, why);
            } else if (op.hash, op.events, op.bytes) != (r.hash, r.events, r.bytes) {
                self.fail(&op.name, "differs between reps of the same seed");
            }
        }
    }
}

/// The child side of [`Job`]: set up, measure, report on stdout.
pub fn run(job: &Job) {
    let mut pace = clock::pace();
    let started = clock::now();
    std::fs::create_dir_all(&job.scratch).expect("scratch dir");
    let inputs = workloads::generate(job.workload, job.seed, &job.scratch);
    let warm_up = workloads::run_rep(&inputs);
    let setup_s = clock::secs_since(started);
    let pace_before = std::mem::replace(&mut pace, clock::pace());
    let setup_s = setup_s * clock::to_reference(pace_before, pace);

    let mut tally = Tally {
        reference: warm_up.clone(),
        report: Report {
            setup_s,
            ..Report::default()
        },
    };
    tally.check(&warm_up);

    let measuring = clock::now();
    while tally.report.reps.len() < job.min_reps || clock::secs_since(measuring) < job.seconds {
        let (ops, wall_s) = clock::timed(|| workloads::run_rep(&inputs));
        let pace_before = std::mem::replace(&mut pace, clock::pace());
        tally.report.raw_reps.push(wall_s);
        tally
            .report
            .reps
            .push(wall_s * clock::to_reference(pace_before, pace));
        tally.check(&ops);
    }

    if job.traced {
        traced(job, &inputs, &mut tally);
    }

    let mut report = tally.report;
    report.ops = tally.reference;
    report.rss_kib = peak_rss_kib();
    report.print();
}

/// The traced replica rep, its gate against the entry points, and the
/// layer metrics it yields.
fn traced(job: &Job, inputs: &workloads::Inputs, tally: &mut Tally) {
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let names = workloads::op_names(inputs);
    let pace_before = clock::pace();
    let replica = catch_unwind(AssertUnwindSafe(|| {
        replica::traced_rep(inputs, &mut tr, &mut counts)
    }));
    let to_reference = clock::to_reference(pace_before, clock::pace());
    let mut mismatched = counts.replica_mismatches.clone();
    match replica {
        Ok(ops) if ops.len() == names.len() => {
            for (op, r) in ops.iter().zip(&tally.reference) {
                if (op.hash, op.events) != (r.hash, r.events) {
                    mismatched.push(r.name.clone());
                }
            }
        }
        _ => mismatched = names.clone(),
    }
    tally.report.attempted += names.len() as u64;
    for name in &mismatched {
        tally.fail(name, "replica differs from the entry point");
    }
    tally.report.withheld = !mismatched.is_empty();
    if !tally.report.withheld {
        let untraced_s = median(&tally.report.reps);
        tally.report.layers = layer_metrics(&tr, &counts, untraced_s, to_reference);
    }
    let path = job
        .scratch
        .join(format!("trace-{}.json", job.workload.name()));
    if let Err(e) = std::fs::write(&path, tr.to_json(to_reference)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// `x / y`, or 0 when there was nothing to divide by (a metric that does
/// not apply to the workload reads 0).
fn ratio(x: f64, y: f64) -> f64 {
    if y > 0.0 {
        x / y
    } else {
        0.0
    }
}

/// Span times are reported at the reference pace, like the untraced reps
/// they are compared with; `to_reference` is the traced rep's factor.
fn layer_metrics(
    tr: &Tracer,
    c: &Counts,
    untraced_s: f64,
    to_reference: f64,
) -> Vec<(String, f64)> {
    let t = |name: &str| tr.total_s(name) * to_reference;
    let mean_us = |name: &str| ratio(t(name) * 1e6, tr.count(name) as f64);
    let comparable_s = replica::comparable_s(tr) * to_reference;
    let run_until_s = t("netsim.run_until");
    let post_s = t("simtrace.hash") + t("simtrace.invariants") + t("simtrace.sampler");
    // What the replicas can see into: everything but the pooled sweep calls.
    let visible_s =
        t("rep") - t("core.sweep_cold") - t("core.store.warm_pass") - t(replica::FLUID_SOLVE);
    let workers = workloads::REGEN_WORKERS as f64;
    let phases_s = tr.leaf_total_s(&[replica::SERIAL_PASS, replica::FLUID_SOLVE]) * to_reference;
    let n = |v: u64| v as f64;
    [
        ("netsim.run_until_s", run_until_s),
        ("netsim.run_share", ratio(run_until_s, visible_s)),
        ("simtrace.hash_s", t("simtrace.hash")),
        ("simtrace.invariants_s", t("simtrace.invariants")),
        ("simtrace.sampler_s", t("simtrace.sampler")),
        (
            "simtrace.ns_per_record",
            ratio(post_s * 1e9, n(c.capture_records)),
        ),
        ("netsim.capture_records", n(c.capture_records)),
        ("netsim.routing_build_s", t("netsim.routing_build")),
        ("netsim.sim_build_s", t("netsim.sim_build")),
        ("netsim.teardown_s", t("netsim.teardown")),
        ("worldgen.fattree_build_s", t("worldgen.fattree_build")),
        ("worldgen.path_place_s", t("worldgen.path_place")),
        ("worldgen.traffic_program_s", t("worldgen.traffic_program")),
        ("worldgen.traffic_net_s", t("worldgen.traffic_net")),
        ("netsim.hops", n(c.hops)),
        ("netsim.drops", n(c.drops)),
        ("netsim.max_queue_pkts", n(c.max_queue_pkts)),
        ("netsim.timers_fired", n(c.timers_fired)),
        ("netsim.timers_cancelled", n(c.timers_cancelled)),
        (
            "simbase.queue.dead_fraction",
            ratio(
                n(c.events_cancelled),
                n(c.events_scheduled + c.events_cancelled),
            ),
        ),
        ("tcpsim.segments_sent", n(c.segments_sent)),
        ("tcpsim.retransmits", n(c.retransmits)),
        ("tcpsim.rtos", n(c.rtos)),
        (
            "tcpsim.retx_share",
            ratio(n(c.retransmits), n(c.segments_sent)),
        ),
        ("mptcpsim.conns_started", n(c.conns_started)),
        ("mptcpsim.conns_finished", n(c.conns_finished)),
        ("mptcpsim.dup_bytes", n(c.dup_bytes)),
        ("lpsolve.solve_us", t("lpsolve.solve") * 1e6),
        ("lpsolve.cache_hits", n(c.lp_hits)),
        ("lpsolve.cache_misses", n(c.lp_misses)),
        ("core.digest_us", mean_us("core.digest")),
        ("core.store.put_us", mean_us("core.store.put")),
        ("core.store.get_us", mean_us("core.store.get")),
        (
            "core.store.bytes_per_record",
            ratio(n(c.store_bytes_written), n(c.store_records)),
        ),
        ("core.store.warm_pass_s", t("core.store.warm_pass")),
        ("core.sweep_cold_s", t("core.sweep_cold")),
        (
            "core.runner.pool_efficiency",
            ratio(t("core.cell"), workers * t("core.sweep_cold")),
        ),
        ("core.branch_sweep_s", t("core.branch_sweep")),
        (
            "core.branch_speedup",
            ratio(
                tr.count("netsim.restore") as f64 * t("core.cold_run"),
                t("core.branch_sweep"),
            ),
        ),
        ("netsim.checkpoint_s", t("netsim.checkpoint")),
        ("netsim.restore_s", t("netsim.restore")),
        ("netsim.fault_events", n(c.fault_events)),
        ("core.scenario_overhead_s", untraced_s - phases_s),
        ("fluidsim.solve_s", t(replica::FLUID_SOLVE)),
        (
            "trace.overhead_pct",
            (comparable_s / untraced_s - 1.0) * 100.0,
        ),
        // Not table metrics: the kernel share estimates are computed from these.
        ("count.events", n(c.events)),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

/// The kernels child: every kernel metric as a `layer` line.
pub fn run_kernels(dead_fraction: f64) {
    for (name, value) in kernels::run_all(dead_fraction) {
        println!("layer {name} {value}");
    }
}

/// Where a child started from `exe` may write: `<target dir>/perfbench`.
pub fn scratch_dir(exe: &Path) -> PathBuf {
    // <target dir>/<profile>/perfbench  ->  <target dir>/perfbench
    exe.parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("target"))
        .join("perfbench")
}
