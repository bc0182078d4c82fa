//! The worldgen scenario-library table: fat-tree ECMP overlap sweep,
//! heavy-tailed traffic, mobility handover, fluid cross-check.
//!
//! Default mode prints the complete `results/worldgen_table.txt` document
//! to stdout (progress to stderr) after asserting every acceptance gate.
//! The document is byte-identical across machines and worker counts;
//! regenerate the checked-in copy with
//!
//! ```text
//! cargo run -p bench --bin worldgen_table --release > results/worldgen_table.txt
//! ```
//!
//! `--smoke` runs a reduced scope (one fabric seed, a 30-connection
//! traffic program, one mobility algorithm, one cross-check connection)
//! with the same gates — ECMP overlap-class goodput ordering, max-disjoint
//! structural contract, the fluid tolerance band — and exits. CI uses it
//! as the fast worldgen sanity check.

use overlap_core::prelude::*;
use overlap_core::worldexp::{verify_worldgen, worldgen_report};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let started = Instant::now();
    if args.iter().any(|a| a == "--smoke") {
        let cfg = RunnerConfig::from_env();
        let report = worldgen_report(&WorldgenConfig::smoke(), &cfg);
        verify_worldgen(&report);
        let fabric = &report.fabric[0];
        println!(
            "worldgen smoke: fabric k={} {} conns total {:.1} Mbps, traffic {} pairs {} finished, gates OK",
            fabric.cell.k,
            fabric.conns.len(),
            fabric.total_mbps(),
            report.traffic[0].cell.pairs,
            report.traffic[0].finished,
        );
        println!(
            "worldgen smoke passed in {:.2}s",
            started.elapsed().as_secs_f64()
        );
        return;
    }
    let cfg = RunnerConfig::from_env().with_progress(true);
    print!("{}", worldgen_table_document(&cfg));
    eprintln!("wall clock: {:.1}s", started.elapsed().as_secs_f64());
}
