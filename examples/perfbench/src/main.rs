//! perfbench — the repository's benchmark: five workloads, six end-to-end
//! metrics and an outside-in per-layer trace. See `README.md` beside this
//! package for the tables and for how a later change lands a claim.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last stdout line is the result as one JSON object
//!     (--trace 0: the end-to-end metrics, --trace 1: the per-layer metrics)
//! perfbench run   [--seed <n>] [--seconds <s>]   every workload, untraced
//! perfbench trace [--seed <n>]                   every workload, traced
//! perfbench selfcheck [--seed <n>]   harness arithmetic, then two full sets
//!                                    that must agree within the bounds
//! perfbench manifest                 print BENCHMARK.json from the tables
//! ```
//!
//! Load is closed-loop: one operation at a time from one process, every
//! workload single-threaded except `regen-service` (2 sweep workers).

mod child;
mod clock;
mod kernels;
mod metrics;
mod replica;
mod span;
mod stats;
mod workloads;

use child::{Job, Report};
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{median, summarize, within_bound, worse_by};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

/// Measuring processes per untraced run. Each sets up and times its share
/// of the reps; `setup_s` and `peak_rss_mb` are medians over them.
const PROCESSES: usize = 3;
/// Timed reps per process are never fewer than this, whatever `--seconds`
/// says, so a run never pools fewer than 9.
const REPS_PER_PROCESS: usize = 3;
/// Untraced reps a traced run times for its baseline.
const BASELINE_REPS: usize = 3;
/// glibc settings that keep freed memory in the heap instead of trimming it
/// back to the kernel, for `host.alloc_fault_share`.
const NO_TRIM_ENV: [(&str, &str); 3] = [
    ("MALLOC_TRIM_THRESHOLD_", "4294967296"),
    ("MALLOC_TOP_PAD_", "67108864"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
];

type Flags = BTreeMap<String, String>;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench run|trace|selfcheck [--seed <n>] [--seconds <s>]\n       \
         perfbench manifest\n\
         workloads: {}",
        Workload::ALL.map(|w| w.name()).join(", ")
    );
    ExitCode::from(2)
}

fn parse_flags(args: &[String]) -> Option<Flags> {
    let mut flags = Flags::new();
    for pair in args.chunks(2) {
        let [key, value] = pair else { return None };
        flags.insert(key.strip_prefix("--")?.to_string(), value.clone());
    }
    Some(flags)
}

fn flag<T: std::str::FromStr>(flags: &Flags, key: &str, default: Option<T>) -> Option<T> {
    match flags.get(key) {
        Some(v) => v.parse().ok(),
        None => default,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (a.as_str(), &args[1..]),
        _ => ("one", &args[..]),
    };
    let Some(flags) = parse_flags(rest) else {
        return usage();
    };
    let known = [
        "workload",
        "seed",
        "seconds",
        "trace",
        "min-reps",
        "scratch",
        "dead-fraction",
    ];
    if flags.keys().any(|k| !known.contains(&k.as_str())) {
        return usage();
    }
    let Some(seed) = flag(&flags, "seed", Some(1u64)) else {
        return usage();
    };
    let Some(seconds) = flag(&flags, "seconds", Some(RUN_SECONDS as f64)) else {
        return usage();
    };
    let workload = flags.get("workload").and_then(|n| Workload::from_name(n));

    match cmd {
        "manifest" => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        "child" => {
            let (Some(workload), Some(min_reps), Some(trace), Some(scratch)) = (
                workload,
                flag::<usize>(&flags, "min-reps", None),
                flag::<u8>(&flags, "trace", None),
                flags.get("scratch"),
            ) else {
                return usage();
            };
            child::run(&Job {
                workload,
                seed,
                seconds,
                min_reps,
                traced: trace == 1,
                scratch: scratch.into(),
            });
            ExitCode::SUCCESS
        }
        "kernels" => match flag::<f64>(&flags, "dead-fraction", None) {
            Some(dead) if (0.0..1.0).contains(&dead) => {
                child::run_kernels(dead);
                ExitCode::SUCCESS
            }
            _ => usage(),
        },
        "one" => {
            let (Some(workload), Some(trace)) = (workload, flag::<u8>(&flags, "trace", None))
            else {
                return usage();
            };
            print_header(seed);
            match run_workload(workload, seed, seconds, trace == 1) {
                Ok(outcome) => {
                    println!("{}", outcome.json());
                    exit_code(outcome.correct())
                }
                Err(e) => harness_error(&e),
            }
        }
        "run" | "trace" => {
            print_header(seed);
            let mut correct = true;
            for w in Workload::ALL {
                match run_workload(w, seed, seconds, cmd == "trace") {
                    Ok(outcome) => correct &= outcome.correct(),
                    Err(e) => return harness_error(&e),
                }
            }
            exit_code(correct)
        }
        "selfcheck" => match selfcheck(seed, seconds) {
            Ok(agree) => exit_code(agree),
            Err(e) => harness_error(&e),
        },
        _ => usage(),
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn harness_error(e: &str) -> ExitCode {
    eprintln!("perfbench: {e}");
    ExitCode::from(3)
}

// ---------------------------------------------------------------------------
// Children
// ---------------------------------------------------------------------------

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn print_header(seed: u64) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let status = if std::fs::read_to_string("/proc/self/status").is_ok() {
        "readable"
    } else {
        "unreadable (peak_rss_mb is null)"
    };
    println!(
        "perfbench: commit {}, {}, nproc {nproc}, seed {seed}, {PROCESSES} processes x (1 warm-up + >= {REPS_PER_PROCESS} timed reps), /proc/self/status {status}",
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["-V"]),
    );
}

fn this_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("current_exe: {e}"))
}

/// Start this executable again with an empty environment plus `env`, wait
/// for it, and read its report.
fn spawn(args: &[String], env: &[(&str, &str)]) -> Result<Report, String> {
    let out = Command::new(this_exe()?)
        .args(args)
        .env_clear()
        .envs(env.iter().copied())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    Report::parse(&String::from_utf8_lossy(&out.stdout))
}

fn spawn_job(
    w: Workload,
    seed: u64,
    seconds: f64,
    min_reps: usize,
    traced: bool,
    env: &[(&str, &str)],
) -> Result<Report, String> {
    let scratch = child::scratch_dir(&this_exe()?);
    let args = [
        "child",
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--min-reps",
        &min_reps.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
        "--scratch",
        &scratch.to_string_lossy(),
    ]
    .map(str::to_string);
    spawn(&args, env)
}

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

/// What one run of one workload measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Metric name → value (`None`: not measurable on this host) and unit.
    metrics: Vec<(&'static str, Option<f64>, &'static str)>,
    /// `sim.*`: simulated values that repeat exactly for a seed and commit.
    sim: Vec<(&'static str, String)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).and_then(|m| m.1)
    }

    /// The benchmark contract's result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = value.map_or("null".to_string(), |v| v.to_string());
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// FNV-1a fold of every op's trace hash, in op order.
fn trace_digest(report: &Report) -> u64 {
    report
        .ops
        .iter()
        .flat_map(|o| o.hash.to_be_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn print_failures(reports: &[&Report]) {
    for f in reports.iter().flat_map(|r| &r.failures) {
        println!("  FAILED {f}");
    }
}

fn run_workload(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    println!("== {} (seed {seed}): {}", w.name(), w.shape());
    if trace {
        run_traced(w, seed)
    } else {
        run_untraced(w, seed, seconds)
    }
}

fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    // Every process sets up and measures its share of `seconds`: the reps
    // are pooled, so a run samples several processes and a longer stretch of
    // host time than one process would.
    let mut runs = Vec::with_capacity(PROCESSES);
    for _ in 0..PROCESSES {
        runs.push(spawn_job(
            w,
            seed,
            seconds / PROCESSES as f64,
            REPS_PER_PROCESS,
            false,
            &[],
        )?);
    }
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = runs.iter().map(|r| r.failed).sum();
    let first = &runs[0];
    if runs.iter().any(|r| r.ops != first.ops) {
        failed += 1;
        println!("  FAILED two processes disagree on the same seed's simulated values");
    }

    let pooled: Vec<f64> = runs.iter().flat_map(|r| r.reps.iter().copied()).collect();
    let pooled_raw: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.raw_reps.iter().copied())
        .collect();
    let reps = summarize(&pooled);
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let rss_mb: Option<Vec<f64>> = runs
        .iter()
        .map(|r| r.rss_kib.map(|kib| kib as f64 * 1024.0 / 1e6))
        .collect();
    let events: u64 = first.ops.iter().map(|o| o.events).sum();
    let bytes: u64 = first.ops.iter().map(|o| o.bytes).sum();
    let fail_share = failed as f64 / attempted as f64;
    let values = [
        Some(reps.median),
        Some(events as f64 / reps.median),
        Some(bytes as f64 / 1e6 / reps.median),
        rss_mb.as_deref().map(median),
        Some(median(&setups)),
        Some(1.0 - fail_share),
    ];

    println!(
        "  rep wall: median {:.4} s, quartiles {:.4} / {:.4}, min {:.4}, max {:.4}, n = {} from {PROCESSES} processes (too few for a tail percentile)",
        reps.median, reps.q1, reps.q3, reps.min, reps.max, reps.n
    );
    println!(
        "  times are at the reference pace ({} ns per probe step); the host's own clock read a median rep of {:.4} s",
        clock::REFERENCE_PACE,
        median(&pooled_raw)
    );
    println!("  set-up: {} s", fmt_list(&setups));
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("  {name:<18} {} {unit}", fmt_value(*value));
    }
    println!(
        "  {:<18} {fail_share} ({failed} failed / {attempted} attempted ops)",
        "fail_share"
    );
    let sim = vec![
        ("sim.events", events.to_string()),
        ("sim.bytes_delivered", bytes.to_string()),
        ("sim.trace_digest", format!("{:016x}", trace_digest(first))),
    ];
    for (name, value) in &sim {
        println!("  {name:<18} {value}");
    }
    println!("  {}", fidelity_line(w, first));
    print_failures(&runs.iter().collect::<Vec<_>>());
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        sim,
    })
}

/// Steady-state total ÷ LP optimum per algorithm, or that there is nothing
/// to hold the workload's simulated numbers against.
fn fidelity_line(w: Workload, report: &Report) -> String {
    let mut by_algo: Vec<(String, Vec<f64>)> = Vec::new();
    for (algo, f) in report.ops.iter().filter_map(|o| o.fidelity.as_ref()) {
        match by_algo.iter_mut().find(|(a, _)| a == algo) {
            Some((_, v)) => v.push(*f),
            None => by_algo.push((algo.clone(), vec![*f])),
        }
    }
    if by_algo.is_empty() {
        return format!(
            "fidelity: {} (no reference in the repo beyond the solo-connection fluid cross-check; no error figure)",
            w.reference()
        );
    }
    let cells: Vec<String> = by_algo
        .iter()
        .map(|(a, v)| format!("{a} {:.4}", v.iter().sum::<f64>() / v.len() as f64))
        .collect();
    format!(
        "fidelity, steady total / {}: {}",
        w.reference(),
        cells.join(", ")
    )
}

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "null".to_string(),
        Some(v) if v.abs() >= 1000.0 || v.fract() == 0.0 => format!("{v:.0}"),
        Some(v) => format!("{v:.6}"),
    }
}

fn fmt_list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(" / ")
}

fn run_traced(w: Workload, seed: u64) -> Result<Outcome, String> {
    let t = spawn_job(w, seed, 0.0, BASELINE_REPS, true, &[])?;
    let (attempted, failed) = (t.attempted, t.failed);
    let sim = vec![("sim.trace_digest", format!("{:016x}", trace_digest(&t)))];
    print_failures(&[&t]);
    if t.withheld {
        println!("  layer numbers withheld: the replicas did not reproduce the entry points");
        return Ok(Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
            sim,
        });
    }
    let mut layers: BTreeMap<String, f64> = t.layers.iter().cloned().collect();

    // The same untraced reps with freed memory kept in the heap: what share
    // of the default wall time goes to giving pages back and faulting them in.
    let alloc_fault_share = if cfg!(target_env = "gnu") {
        let kept = spawn_job(w, seed, 0.0, BASELINE_REPS, false, &NO_TRIM_ENV)?;
        Some(1.0 - median(&kept.reps) / median(&t.reps))
    } else {
        None
    };

    let dead = layers["simbase.queue.dead_fraction"];
    let k = spawn(
        &["kernels", "--dead-fraction", &dead.to_string()].map(str::to_string),
        &[],
    )?;
    layers.extend(k.layers);

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in &PER_LAYER {
        let value = match m.name {
            "host.alloc_fault_share" => alloc_fault_share,
            name => Some(*layers.get(name).ok_or(format!("no value for {name}"))?),
        };
        println!(
            "  {:<30} {:>14} {:<6} -> {}",
            m.name,
            fmt_value(value),
            m.unit,
            m.moves
        );
        metrics.push((m.name, value, m.unit));
    }

    // Kernel ns x this workload's op count / run_until_s: estimates only
    // (a kernel runs its layer on a synthetic input), so printed, not stored.
    let run_until_s = layers["netsim.run_until_s"];
    let (hop, hold, segment) = match w {
        Workload::FabricEcmp => ("fattree", "n64", "clean"),
        Workload::Overload4k => ("paper", "n4096", "lossy"),
        _ => ("paper", "n64", "clean"),
    };
    let (hop, hold, segment) = (
        format!("netsim.hop_ns.{hop}"),
        format!("simbase.queue.hold_ns.{hold}"),
        format!("tcpsim.segment_ns.{segment}"),
    );
    println!(
        "  estimated shares of netsim.run_until_s (kernel ns x op count; estimates, not metrics):"
    );
    for (kernel, count) in [
        (hop.as_str(), "netsim.hops"),
        (hold.as_str(), "count.events"),
        (segment.as_str(), "tcpsim.segments_sent"),
        ("tcpsim.wire_roundtrip_ns", "tcpsim.segments_sent"),
    ] {
        let share = layers[kernel] * layers[count] / 1e9 / run_until_s;
        println!("    {kernel:<30} x {count:<22} ~ {:.1} %", share * 100.0);
    }
    println!(
        "  spans: {}",
        child::scratch_dir(&this_exe()?)
            .join(format!("trace-{}.json", w.name()))
            .display()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        sim,
    })
}

// ---------------------------------------------------------------------------
// selfcheck
// ---------------------------------------------------------------------------

/// The harness's own arithmetic, then two full untraced sets of the same
/// code: every end-to-end metric must agree within its bound in both
/// directions, and every `sim.*` value exactly.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    stats::selfcheck();
    span::selfcheck();
    metrics::selfcheck();
    workloads::selfcheck();
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if text == metrics::manifest() => {
            println!("BENCHMARK.json matches the metric tables")
        }
        Ok(_) => return Err("BENCHMARK.json differs from `perfbench manifest`".to_string()),
        Err(_) => println!("no BENCHMARK.json in the working directory; not compared"),
    }
    println!("harness arithmetic: ok");

    print_header(seed);
    let mut sets = Vec::new();
    for set in 1..=2 {
        println!("-- set {set} of 2");
        let mut outcomes = Vec::new();
        for w in Workload::ALL {
            outcomes.push(run_workload(w, seed, seconds, false)?);
        }
        sets.push(outcomes);
    }

    let mut agree = true;
    println!("-- set 2 against set 1: positive = worse, as a share of set 1 (bound)");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        agree &= a.correct() && b.correct();
        let mut cells = Vec::new();
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.metric(m.name), b.metric(m.name)) else {
                cells.push(format!("{} null", m.name));
                continue;
            };
            let ok = within_bound(m.better, x, y, m.bound) && within_bound(m.better, y, x, m.bound);
            agree &= ok;
            cells.push(format!(
                "{} {:+.2}% ({:.1}%){}",
                m.name,
                worse_by(m.better, x, y) * 100.0,
                m.bound * 100.0,
                if ok { "" } else { " DISAGREE" }
            ));
        }
        let exact = a.sim == b.sim;
        agree &= exact;
        println!(
            "  {:<14} {}; sim.* {}",
            w.name(),
            cells.join(", "),
            if exact { "identical" } else { "DIFFER" }
        );
    }
    println!("selfcheck: {}", if agree { "ok" } else { "FAILED" });
    Ok(agree)
}
