//! The failover experiment table: link failure, recovery, restore.
//!
//! Prints the complete `results/failover_table.txt` document to stdout
//! (progress to stderr) after asserting its acceptance gate: every CUBIC,
//! LIA and OLIA cell recovers before the restore and holds at least 90% of
//! the LP optimum recomputed on the surviving constraint set. The document
//! is byte-identical across machines and worker counts; regenerate the
//! checked-in copy with
//!
//! ```text
//! cargo run -p bench --bin failover_table --release > results/failover_table.txt
//! ```

use overlap_core::prelude::*;

fn main() {
    let cfg = RunnerConfig::from_env().with_progress(true);
    #[expect(
        clippy::disallowed_types,
        reason = "wall time is reported on stderr and never reaches a run"
    )]
    let started = std::time::Instant::now();
    print!("{}", failover_table_document(&cfg));
    eprintln!("wall clock: {:.1}s", started.elapsed().as_secs_f64());
}
