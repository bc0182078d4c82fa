//! E1 / Figure 1c — the throughput constraint polytope and its optimum.
//!
//! Prints the LP extracted from the topology (the paper's inequalities),
//! the simplex solution, the tight bottlenecks, and the greedy baseline
//! that illustrates why independent rate increase is suboptimal.
//!
//! Run: `cargo run -p bench --bin fig1c`

use overlap_core::prelude::*;

fn main() {
    println!("E1 / Figure 1c — throughput constraints of the paper network\n");
    for variant in [ConstraintVariant::Consistent, ConstraintVariant::AsPrinted] {
        let net = PaperNetwork::build(&PaperNetworkConfig {
            variant,
            ..Default::default()
        });
        let sol = net.lp_optimum();
        println!("--- variant: {variant:?} ---");
        println!("{}", sol.lp);
        println!(
            "optimum: x1 = {:.0}, x2 = {:.0}, x3 = {:.0}  (total {:.0} Mbps)",
            sol.per_path_mbps[0], sol.per_path_mbps[1], sol.per_path_mbps[2], sol.total_mbps
        );
        print!("tight bottlenecks:");
        for l in &sol.tight_links {
            let spec = net.topology.link(*l);
            print!(
                "  {}-{} ({})",
                net.topology.node_name(spec.a),
                net.topology.node_name(spec.b),
                spec.capacity
            );
        }
        println!();
        print!("shadow prices (Mbps of total per Mbps of capacity):");
        for (l, price) in sol.shadow_prices() {
            if price > 0.0 {
                let spec = net.topology.link(l);
                print!(
                    "  {}-{}: {:.2}",
                    net.topology.node_name(spec.a),
                    net.topology.node_name(spec.b),
                    price
                );
            }
        }
        println!("\n");
        // The greedy baseline from each starting path.
        for start in 0..3 {
            let g = net.greedy_corner(start);
            println!(
                "greedy fill starting with Path {}: ({:.0}, {:.0}, {:.0}) = {:.0} Mbps",
                start + 1,
                g[0],
                g[1],
                g[2],
                g.iter().sum::<f64>()
            );
        }
        println!();
    }
    println!(
        "Note: the paper prints constraints x2+x3<=60, x1+x3<=80 but states the\n\
         optimum (10, 30, 50), which solves x1+x3<=60, x2+x3<=80 instead; both\n\
         variants are shown above (see DESIGN.md, erratum note)."
    );
}
