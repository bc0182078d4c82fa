//! The fluid ⇄ packet ⇄ LP cross-validation table.
//!
//! Prints the complete `results/fluid_table.txt` document to stdout
//! (progress to stderr). The document is byte-identical across machines and
//! worker counts; regenerate the checked-in copy with
//!
//! ```text
//! cargo run -p bench --bin fluid_table --release > results/fluid_table.txt
//! ```

use overlap_core::prelude::*;

fn main() {
    let cfg = RunnerConfig::from_env().with_progress(true);
    #[expect(
        clippy::disallowed_types,
        reason = "wall time is reported on stderr and never reaches a run"
    )]
    let started = std::time::Instant::now();
    print!("{}", fluid_table_document(&cfg));
    eprintln!("wall clock: {:.1}s", started.elapsed().as_secs_f64());
}
