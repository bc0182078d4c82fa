//! Terminal rendering of experiment results.

use crate::experiments::ResultsRow;
use crate::scenario::RunResult;
use simtrace::{ascii_chart, ChartOptions};
use std::fmt::Write as _;

/// Render one run as the paper renders Figure 2: per-path lines plus the
/// total, with a summary block (LP optimum, measured, bottleneck load).
pub fn render_run(title: &str, result: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let series: Vec<&simtrace::TimeSeries> = result
        .per_path
        .iter()
        .chain(std::iter::once(&result.total))
        .collect();
    let opts = ChartOptions {
        y_max: Some((result.lp.total_mbps * 1.15).max(result.total.max())),
        ..Default::default()
    };
    out.push_str(&ascii_chart(&series, &opts));
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "LP optimum: {:.1} Mbps  (per path: {})",
        result.lp.total_mbps,
        result
            .lp
            .per_path_mbps
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" / ")
    );
    let _ = writeln!(
        out,
        "Measured over the second half: {:.1} Mbps  (per path: {})  efficiency {:.0}%",
        result.steady_total_mbps(),
        result
            .per_path_steady_mbps
            .iter()
            .map(|v| format!("{v:.1}"))
            .collect::<Vec<_>>()
            .join(" / "),
        result.efficiency() * 100.0
    );
    // The LP's rows are its link constraints, in `utilisation` order.
    let tight: Vec<String> = result
        .lp
        .lp
        .constraints()
        .iter()
        .zip(result.utilisation())
        .filter(|(_, (link, _))| result.lp.tight_links.contains(link))
        .map(|(row, (_, u))| format!("{} {:.0}%", row.label, u * 100.0))
        .collect();
    let _ = writeln!(
        out,
        "Tight bottlenecks busy: {}  CoV {:.3}",
        tight.join("  "),
        result.steady_cov()
    );
    let _ = writeln!(
        out,
        "Drops: {}   duplicate DSN bytes: {}",
        result.drops, result.duplicate_bytes
    );
    out
}

/// Render the E5 results table.
pub fn render_table(rows: &[ResultsRow]) -> String {
    let slashed = |values: &[f64], precision: usize| {
        values
            .iter()
            .map(|v| format!("{v:.precision$}"))
            .collect::<Vec<_>>()
            .join(" / ")
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>20} {:>10} {:>10} {:>16} {:>6} {:>9} {:>6}",
        "algo",
        "default path",
        "x1 / x2 / x3",
        "total Mbps",
        "efficiency",
        "util %",
        "at x*",
        "nearer x*",
        "CoV"
    );
    let _ = writeln!(out, "{}", "-".repeat(107));
    for r in rows {
        let util: Vec<f64> = r.mean_utilisation.iter().map(|u| u * 100.0).collect();
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>20} {:>10.1} {:>9.0}% {:>16} {:>5.0}% {:>8.0}% {:>6.3}",
            r.algo.name(),
            format!("Path {}", r.default_path + 1),
            slashed(&r.mean_per_path_mbps, 1),
            r.mean_total_mbps,
            r.mean_efficiency * 100.0,
            slashed(&util, 0),
            r.at_optimum_fraction * 100.0,
            r.nearer_optimum_fraction * 100.0,
            r.mean_cov,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcpsim::CcAlgo;

    #[test]
    fn render_table_formats_rows() {
        let rows = vec![
            ResultsRow {
                algo: CcAlgo::Cubic,
                default_path: 1,
                mean_per_path_mbps: vec![14.7, 24.6, 39.1],
                mean_total_mbps: 78.4,
                mean_efficiency: 0.871,
                mean_utilisation: vec![0.98, 0.896, 0.797],
                at_optimum_fraction: 0.2,
                nearer_optimum_fraction: 1.0,
                mean_cov: 0.041,
                seeds: 5,
            },
            ResultsRow {
                algo: CcAlgo::Lia,
                default_path: 0,
                mean_per_path_mbps: vec![12.5, 26.9, 35.9],
                mean_total_mbps: 75.3,
                mean_efficiency: 0.837,
                mean_utilisation: vec![0.99, 0.81, 0.78],
                at_optimum_fraction: 0.0,
                nearer_optimum_fraction: 0.6,
                mean_cov: 0.02,
                seeds: 5,
            },
        ];
        let s = render_table(&rows);
        assert!(s.contains("CUBIC"), "{s}");
        assert!(s.contains("Path 2"));
        assert!(s.contains("14.7 / 24.6 / 39.1"), "{s}");
        assert!(s.contains("98 / 90 / 80"), "{s}");
        assert!(s.contains(" 20%      100%"), "{s}");
    }
}
