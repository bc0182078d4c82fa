//! Full Figure-2 reproduction: the three sub-figures of the paper, rendered
//! as terminal charts, plus the Results-section comparison in miniature.
//!
//! Run: `cargo run --example paper_figure2 --release`

use mptcp_overlap::overlap_core::FIG2_SEED;
use mptcp_overlap::prelude::*;

fn main() {
    // (a) CUBIC at 100 ms sampling over 4 s.
    let a = fig2a(FIG2_SEED);
    print!("{}", render_run("Figure 2a — CUBIC, 100 ms bins", &a));
    println!();

    // (b) OLIA at 100 ms sampling over 4 s, plus the long view the paper
    //     mentions (OLIA reaching the optimum after ~20 s).
    let b = fig2b(FIG2_SEED);
    print!("{}", render_run("Figure 2b — OLIA, 100 ms bins", &b));
    println!();
    let b_long = fig2b_long(FIG2_SEED);
    print!("{}", render_run("Figure 2b' — OLIA over 25 s", &b_long));
    println!();

    // (c) CUBIC at 10 ms sampling over the first 0.5 s.
    let c = fig2c(FIG2_SEED);
    print!("{}", render_run("Figure 2c — CUBIC detail, 10 ms bins", &c));

    // Summary in the spirit of the paper's Section 3.
    println!("\n== Section 3 summary (single seed, second half of each run) ==");
    for (name, r) in [("CUBIC", &a), ("OLIA", &b)] {
        let busy = tight_utilisation(&r.lp, &r.per_path_steady_mbps);
        println!(
            "{name:<6} {:>5.1} / {:.0} Mbps ({:.0}%), tight bottlenecks {} busy",
            r.steady_total_mbps(),
            r.lp.total_mbps,
            r.efficiency() * 100.0,
            busy.iter()
                .map(|u| format!("{:.0}%", u * 100.0))
                .collect::<Vec<_>>()
                .join(" / ")
        );
    }
}
