//! E5 — the Results-section claims as a table.
//!
//! CC algorithm x default path, several seeds each, read over each run's
//! second half: the per-path split, how busy each bottleneck the LP optimum
//! saturates is, whether every one of them is at least 95 % busy (at x*),
//! whether the split is nearer x* than the default path's greedy corner,
//! the total and its stability. The paper's claims: CUBIC always reaches the
//! optimum (then wobbles); LIA never; OLIA only for one default path, slowly
//! (~20 s), then stably.
//!
//! Runs execute on the parallel sweep runner; the table is byte-identical
//! for any worker count.
//!
//! Run: `cargo run -p bench --bin table1_results --release [seeds] [secs] [workers]`
//! (workers: 0 = all cores; also settable via `OVERLAP_WORKERS`).
//!
//! With `OVERLAP_STORE=<dir>` set, finished runs are persisted to (and
//! answered from) the content-addressed run store; a `store:` line on
//! stderr reports hits/misses — a fully warm store regenerates the table
//! with `simulations=0` and byte-identical stdout.

use bench::arg;
use mptcpsim::CcAlgo;
use overlap_core::prelude::*;

const USAGE: &str = "table1_results [seeds] [secs] [workers]";

fn main() {
    let seeds: u64 = arg(1, USAGE).unwrap_or(5);
    let secs: u64 = arg(2, USAGE).unwrap_or(30);
    let cfg = match arg::<usize>(3, USAGE) {
        Some(workers) => RunnerConfig {
            workers,
            progress: true,
        },
        None => RunnerConfig::from_env().with_progress(true),
    };
    eprintln!(
        "running {seeds} seeds x 5 algorithms x 3 default paths x {secs}s on {} worker(s) ...",
        match cfg.workers {
            0 => "auto".to_string(),
            n => n.to_string(),
        }
    );
    let store = RunStore::from_env();
    #[expect(
        clippy::disallowed_types,
        reason = "wall time is reported on stderr and never reaches a run"
    )]
    let started = std::time::Instant::now();
    let rows = results_table_with_store(
        &[
            CcAlgo::Cubic,
            CcAlgo::Lia,
            CcAlgo::Olia,
            CcAlgo::Balia,
            CcAlgo::WVegas,
        ],
        0..seeds,
        SimDuration::from_secs(secs),
        &cfg,
        store.as_ref(),
    );
    let elapsed = started.elapsed().as_secs_f64();
    print!("{}", render_table(&rows));
    let net = PaperNetwork::new();
    let lp = net.lp_optimum();
    let bottlenecks: Vec<String> = lp
        .tight_links
        .iter()
        .map(|&l| {
            let spec = net.topology.link(l);
            let end = |n| net.topology.node_name(n);
            format!(
                "{}-{} ({:.0})",
                end(spec.a),
                end(spec.b),
                spec.capacity.as_mbps_f64()
            )
        })
        .collect();
    println!(
        "\nEvery column reads the second half of each run. LP optimum {:.1} Mbps at x* = ({}).\n\
         util %: mean load of each bottleneck x* saturates, {} Mbps.\n\
         at x*: seeds with every such bottleneck >= {:.0}% busy. nearer x*: seeds whose\n\
         x1 / x2 / x3 is nearer x* than the default path's greedy corner (L1).",
        lp.total_mbps,
        lp.per_path_mbps
            .iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(", "),
        bottlenecks.join(" / "),
        AT_OPTIMUM_UTILISATION * 100.0
    );
    eprintln!("wall clock: {elapsed:.1}s");
    if let Some(store) = &store {
        let s = store.stats();
        eprintln!(
            "store: hits={} simulations={} entries={} bytes_written={} bytes_read={} dir={}",
            s.hits,
            s.misses,
            store.len(),
            s.bytes_written,
            s.bytes_read,
            store.dir().display()
        );
    }
}
