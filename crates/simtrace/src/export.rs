//! Exporting series: CSV for external plotting, ASCII charts for the
//! terminal (the demo-paper experience without gnuplot).

use crate::series::TimeSeries;
use std::fmt::Write as _;

/// Render several same-shape series as CSV: a `time_s` column followed by
/// one column per series (labelled).
pub fn to_csv(series: &[&TimeSeries]) -> String {
    assert!(!series.is_empty(), "no series");
    let first = series[0];
    for s in series {
        assert_eq!(s.bin(), first.bin(), "bin widths differ");
        assert_eq!(s.start(), first.start(), "start times differ");
    }
    let mut out = String::new();
    out.push_str("time_s");
    for s in series {
        let _ = write!(out, ",{}", s.label.replace(',', ";"));
    }
    out.push('\n');
    let n = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let t0 = first.start().as_secs_f64();
    let dt = first.bin().as_secs_f64();
    for i in 0..n {
        let _ = write!(out, "{:.6}", t0 + i as f64 * dt);
        for s in series {
            let v = s.values().get(i).copied().unwrap_or(0.0);
            let _ = write!(out, ",{v:.6}");
        }
        out.push('\n');
    }
    out
}

/// Options for the ASCII chart.
#[derive(Debug, Clone)]
pub struct ChartOptions {
    /// Plot width in character cells.
    pub width: usize,
    /// Plot height in character rows.
    pub height: usize,
    /// Y-axis maximum (`None` = autoscale to the series maxima).
    pub y_max: Option<f64>,
    /// Y-axis label (e.g. "Mbps").
    pub y_label: String,
}

impl Default for ChartOptions {
    fn default() -> Self {
        ChartOptions {
            width: 72,
            height: 16,
            y_max: None,
            y_label: "Mbps".to_string(),
        }
    }
}

/// Glyphs assigned to series, in order.
const GLYPHS: &[char] = &['1', '2', '3', '*', 'o', 'x', '+', '#'];

/// Render a multi-series line chart in plain ASCII. Series are resampled
/// onto the character grid by averaging the bins that fall into each
/// column. Later series overdraw earlier ones where they collide.
pub fn ascii_chart(series: &[&TimeSeries], opts: &ChartOptions) -> String {
    assert!(!series.is_empty(), "no series");
    let width = opts.width.max(8);
    let height = opts.height.max(4);
    let y_max = opts
        .y_max
        .unwrap_or_else(|| series.iter().map(|s| s.max()).fold(0.0, f64::max))
        .max(1e-9);

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        let n = s.len();
        if n == 0 {
            continue;
        }
        #[expect(
            clippy::needless_range_loop,
            reason = "the target row differs per column, so there is no slice to iterate over"
        )]
        for col in 0..width {
            let lo = col * n / width;
            let hi = (((col + 1) * n).div_ceil(width)).min(n).max(lo + 1);
            let v: f64 = s.values()[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            let frac = (v / y_max).clamp(0.0, 1.0);
            let row = ((1.0 - frac) * (height - 1) as f64).round() as usize;
            grid[row][col] = glyph;
        }
    }

    let mut out = String::new();
    let t_end = series
        .iter()
        .map(|s| s.start().as_secs_f64() + s.len() as f64 * s.bin().as_secs_f64())
        .fold(0.0, f64::max);
    for (ri, row) in grid.iter().enumerate() {
        let y_val = y_max * (1.0 - ri as f64 / (height - 1) as f64);
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{y_val:7.1} |{line}");
    }
    let _ = writeln!(out, "        +{}", "-".repeat(width));
    let _ = writeln!(
        out,
        "         0{}{:.2}s   [{}]",
        " ".repeat(width.saturating_sub(12)),
        t_end,
        opts.y_label
    );
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "         {} = {}", GLYPHS[si % GLYPHS.len()], s.label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbase::{SimDuration, SimTime};

    fn ts(label: &str, vals: &[f64]) -> TimeSeries {
        TimeSeries::new(
            label,
            SimTime::ZERO,
            SimDuration::from_millis(100),
            vals.to_vec(),
        )
    }

    #[test]
    fn csv_shape_and_header() {
        let a = ts("Path 1", &[1.0, 2.0]);
        let b = ts("Path 2", &[3.0, 4.0]);
        let csv = to_csv(&[&a, &b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,Path 1,Path 2");
        assert_eq!(lines.len(), 3);
        assert!(
            lines[1].starts_with("0.000000,1.000000,3.000000"),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].starts_with("0.100000,2.000000,4.000000"),
            "{}",
            lines[2]
        );
    }

    #[test]
    fn csv_escapes_commas_in_labels() {
        let a = ts("a,b", &[1.0]);
        let csv = to_csv(&[&a]);
        assert!(csv.starts_with("time_s,a;b\n"));
    }

    #[test]
    fn csv_pads_short_series() {
        let a = ts("a", &[1.0, 2.0, 3.0]);
        let b = ts("b", &[9.0]);
        let csv = to_csv(&[&a, &b]);
        let last = csv.lines().last().unwrap();
        assert!(last.ends_with(",3.000000,0.000000"), "{last}");
    }

    #[test]
    fn chart_renders_all_series_glyphs() {
        let a = ts("low", &[10.0; 50]);
        let b = ts("high", &[40.0; 50]);
        let chart = ascii_chart(&[&a, &b], &ChartOptions::default());
        assert!(chart.contains('1'), "{chart}");
        assert!(chart.contains('2'), "{chart}");
        assert!(chart.contains("1 = low"));
        assert!(chart.contains("2 = high"));
        assert!(chart.contains("[Mbps]"));
    }

    #[test]
    fn chart_respects_fixed_ymax() {
        let a = ts("a", &[50.0; 10]);
        let opts = ChartOptions {
            y_max: Some(100.0),
            height: 11,
            ..Default::default()
        };
        let chart = ascii_chart(&[&a], &opts);
        // Value 50 of 100 on an 11-row grid -> middle row (index 5),
        // whose axis label is 50.0.
        let mid_line = chart.lines().nth(5).unwrap();
        assert!(mid_line.trim_start().starts_with("50.0"), "{mid_line}");
        assert!(mid_line.contains('1'));
    }

    #[test]
    fn chart_handles_empty_series() {
        let a = TimeSeries::new("e", SimTime::ZERO, SimDuration::from_millis(100), vec![]);
        let chart = ascii_chart(&[&a], &ChartOptions::default());
        assert!(chart.contains("1 = e"));
    }
}
