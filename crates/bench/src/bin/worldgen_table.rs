//! The worldgen scenario-library table: fat-tree ECMP overlap sweep,
//! heavy-tailed traffic, mobility handover, fluid cross-check.
//!
//! Prints the complete `results/worldgen_table.txt` document to stdout
//! (progress to stderr) after asserting every acceptance gate. The
//! document is byte-identical across machines and worker counts;
//! regenerate the checked-in copy with
//!
//! ```text
//! cargo run -p bench --bin worldgen_table --release > results/worldgen_table.txt
//! ```

use overlap_core::prelude::*;

fn main() {
    let cfg = RunnerConfig::from_env().with_progress(true);
    #[expect(
        clippy::disallowed_types,
        reason = "wall time is reported on stderr and never reaches a run"
    )]
    let started = std::time::Instant::now();
    print!("{}", worldgen_table_document(&cfg));
    eprintln!("wall clock: {:.1}s", started.elapsed().as_secs_f64());
}
