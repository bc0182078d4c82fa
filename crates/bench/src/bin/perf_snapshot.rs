//! Fixed-scenario performance snapshot: simulator event/packet throughput,
//! simlint analysis throughput, and peak RSS, as one JSON document.
//!
//! Prints `BENCH_simlint.json` to stdout; CI regenerates the checked-in
//! copy on every run:
//!
//! ```text
//! cargo run -p bench --bin perf_snapshot --release > BENCH_simlint.json
//! ```
//!
//! Timings are machine-dependent, so the snapshot is a reference point and
//! a regression-hunting aid, **not** a byte-compared artifact (unlike the
//! results tables). The workload is pinned — paper topology, CUBIC, minRTT,
//! 4 virtual seconds, seed 1; full-workspace simlint pass — so numbers are
//! comparable across commits on the same machine.

use bench::peak_rss_bytes;
use overlap_core::prelude::*;
use std::time::Instant;
use xtask::baseline::Baseline;
use xtask::lint;

fn workspace_root() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        assert!(dir.pop(), "run from inside the workspace");
    }
}

fn main() {
    // --- simulator leg: the paper scenario, timed wall-clock ---
    let net = PaperNetwork::new();
    let scenario = Scenario {
        default_path: net.default_path,
        ..Scenario::new(net.topology, net.paths)
    };
    let t0 = Instant::now();
    let run = scenario.run();
    let sim_elapsed = t0.elapsed().as_secs_f64();

    // --- simlint leg: full workspace pass against the checked-in baseline ---
    let root = workspace_root();
    let files = lint::workspace_source_files(&root);
    let baseline = Baseline::load(&root.join("results/simlint_baseline.json")).unwrap_or_default();
    let t1 = Instant::now();
    let report = lint::run_with_baseline(&root, &files, &baseline);
    let lint_elapsed = t1.elapsed().as_secs_f64();
    let lint_lines: usize = files
        .iter()
        .filter_map(|p| std::fs::read_to_string(root.join(p)).ok())
        .map(|t| t.lines().count())
        .sum();

    let rss = peak_rss_bytes()
        .map(|b| b.to_string())
        .unwrap_or_else(|| "null".to_string());

    println!("{{");
    println!("  \"schema_version\": 1,");
    println!("  \"bench\": \"simlint\",");
    println!(
        "  \"note\": \"timings are machine-dependent; regenerated by CI, not byte-compared\","
    );
    println!("  \"sim\": {{");
    println!("    \"scenario\": \"paper topology, CUBIC, minRTT, 4 s, seed 1\",");
    println!("    \"events\": {},", run.events);
    println!("    \"packets_delivered\": {},", run.packets_delivered);
    println!("    \"elapsed_s\": {sim_elapsed:.3},");
    println!(
        "    \"events_per_sec\": {:.0},",
        run.events as f64 / sim_elapsed
    );
    println!(
        "    \"packets_per_sec\": {:.0}",
        run.packets_delivered as f64 / sim_elapsed
    );
    println!("  }},");
    println!("  \"lint\": {{");
    println!("    \"files_checked\": {},", report.files_checked);
    println!("    \"lines\": {lint_lines},");
    println!("    \"findings\": {},", report.violations.len());
    println!("    \"new_findings\": {},", report.new_findings().count());
    println!("    \"elapsed_s\": {lint_elapsed:.3},");
    println!(
        "    \"files_per_sec\": {:.0},",
        report.files_checked as f64 / lint_elapsed
    );
    println!(
        "    \"lines_per_sec\": {:.0}",
        lint_lines as f64 / lint_elapsed
    );
    println!("  }},");
    println!("  \"peak_rss_bytes\": {rss}");
    println!("}}");
}
