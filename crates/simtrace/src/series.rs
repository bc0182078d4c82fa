//! Time series of sampled throughput (or any per-bin scalar).

use simbase::{SimDuration, SimTime};

/// A regularly sampled series: `values[i]` covers
/// `[start + i·bin, start + (i+1)·bin)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start: SimTime,
    bin: SimDuration,
    values: Vec<f64>,
    /// Label for plots/CSV (e.g. "Path 2").
    pub label: String,
}

impl TimeSeries {
    /// Create a series from raw bin values.
    pub fn new(
        label: impl Into<String>,
        start: SimTime,
        bin: SimDuration,
        values: Vec<f64>,
    ) -> Self {
        assert!(!bin.is_zero(), "zero bin width");
        TimeSeries {
            start,
            bin,
            values,
            label: label.into(),
        }
    }

    /// Bin width.
    pub fn bin(&self) -> SimDuration {
        self.bin
    }

    /// Start time of the first bin.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The bin values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if there are no bins.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate `(bin_start_seconds, value)` points.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let t0 = self.start.as_secs_f64();
        let dt = self.bin.as_secs_f64();
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (t0 + i as f64 * dt, v))
    }

    /// Mean over all bins (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Mean over the bins covering `[from, to)` in simulated time.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> f64 {
        let vals: Vec<f64> = self.window(from, to).collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    /// Values of the bins covering `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = f64> + '_ {
        let bin = self.bin;
        let start = self.start;
        self.values.iter().enumerate().filter_map(move |(i, &v)| {
            let b0 = start + bin * (i as u64);
            if b0 >= from && b0 < to {
                Some(v)
            } else {
                None
            }
        })
    }

    /// Largest bin value (0 for empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Sample standard deviation over `[from, to)`.
    pub fn stddev_over(&self, from: SimTime, to: SimTime) -> f64 {
        let vals: Vec<f64> = self.window(from, to).collect();
        if vals.len() < 2 {
            return 0.0;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (vals.len() - 1) as f64;
        var.sqrt()
    }

    /// Coefficient of variation over `[from, to)` (stddev / mean; 0 when
    /// the mean is ~0).
    pub fn cov_over(&self, from: SimTime, to: SimTime) -> f64 {
        let mean = self.mean_over(from, to);
        if mean.abs() < 1e-12 {
            return 0.0;
        }
        self.stddev_over(from, to) / mean
    }

    /// Centered moving average of width `k` bins (k odd recommended);
    /// returns a new series with the same shape.
    pub fn smoothed(&self, k: usize) -> TimeSeries {
        assert!(k >= 1);
        let half = k / 2;
        let n = self.values.len();
        let values = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(half);
                let hi = (i + half + 1).min(n);
                self.values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect();
        TimeSeries {
            start: self.start,
            bin: self.bin,
            values,
            label: self.label.clone(),
        }
    }

    /// Element-wise sum of several same-shape series (e.g. the "Total"
    /// line in the paper's Figure 2).
    pub fn sum_of(label: impl Into<String>, series: &[&TimeSeries]) -> TimeSeries {
        assert!(!series.is_empty());
        let first = series[0];
        for s in series {
            assert_eq!(s.bin, first.bin, "bin widths differ");
            assert_eq!(s.start, first.start, "start times differ");
        }
        let n = series.iter().map(|s| s.values.len()).max().unwrap_or(0);
        let values = (0..n)
            .map(|i| {
                series
                    .iter()
                    .map(|s| s.values.get(i).copied().unwrap_or(0.0))
                    .sum()
            })
            .collect();
        TimeSeries {
            start: first.start,
            bin: first.bin,
            values,
            label: label.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(vals: &[f64]) -> TimeSeries {
        TimeSeries::new(
            "t",
            SimTime::ZERO,
            SimDuration::from_millis(100),
            vals.to_vec(),
        )
    }

    #[test]
    fn basic_stats() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.max(), 4.0);
        assert!(!s.is_empty());
        assert_eq!(ts(&[]).mean(), 0.0);
    }

    #[test]
    fn points_carry_time() {
        let s = ts(&[5.0, 6.0]);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![(0.0, 5.0), (0.1, 6.0)]);
    }

    #[test]
    fn windowed_stats() {
        let s = ts(&[10.0, 20.0, 30.0, 40.0]);
        // Bins start at 0, 100, 200, 300 ms.
        let from = SimTime::from_millis(100);
        let to = SimTime::from_millis(300);
        assert_eq!(s.mean_over(from, to), 25.0);
        assert_eq!(s.window(from, to).count(), 2);
        // Empty window.
        assert_eq!(
            s.mean_over(SimTime::from_secs(1), SimTime::from_secs(2)),
            0.0
        );
    }

    #[test]
    fn stddev_and_cov() {
        let s = ts(&[10.0, 10.0, 10.0, 10.0]);
        let all = (SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(s.stddev_over(all.0, all.1), 0.0);
        assert_eq!(s.cov_over(all.0, all.1), 0.0);
        let s = ts(&[8.0, 12.0]);
        let sd = s.stddev_over(all.0, all.1);
        assert!((sd - (8.0f64)).abs() > 0.0); // nonzero
        assert!((s.cov_over(all.0, all.1) - sd / 10.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_preserves_shape_and_mean_roughly() {
        let s = ts(&[0.0, 10.0, 0.0, 10.0, 0.0]);
        let sm = s.smoothed(3);
        assert_eq!(sm.len(), 5);
        // Interior bins average their neighbourhood.
        assert!((sm.values()[2] - 20.0 / 3.0).abs() < 1e-12);
        // Edges use truncated windows.
        assert!((sm.values()[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_series() {
        let a = ts(&[1.0, 2.0, 3.0]);
        let b = ts(&[10.0, 20.0]);
        let total = TimeSeries::sum_of("Total", &[&a, &b]);
        assert_eq!(total.values(), &[11.0, 22.0, 3.0]);
        assert_eq!(total.label, "Total");
    }

    #[test]
    #[should_panic(expected = "bin widths differ")]
    fn sum_rejects_mismatched_bins() {
        let a = ts(&[1.0]);
        let b = TimeSeries::new("b", SimTime::ZERO, SimDuration::from_millis(10), vec![1.0]);
        let _ = TimeSeries::sum_of("x", &[&a, &b]);
    }
}
