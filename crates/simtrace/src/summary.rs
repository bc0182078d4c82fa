//! Convergence and stability metrics.
//!
//! The paper's Results section makes three kinds of claims, all of which
//! need a quantitative definition to be reproducible:
//!
//! * *"capable of finding the optimal throughput"* — [`ConvergenceReport`]:
//!   the first time from which the total rate **holds** within a tolerance
//!   band of the LP optimum to the end of the run.
//! * *"the throughput was unstable for short periods"* — the coefficient of
//!   variation after convergence.
//! * how fairly the optimum splits across paths — [`jain_fairness`].

use crate::series::TimeSeries;
use simbase::SimTime;

/// Convergence analysis of a rate series against a target.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// The target rate (e.g. the LP optimum), Mbps.
    pub target: f64,
    /// Relative tolerance used (e.g. 0.1 = within 10% of target).
    pub tolerance: f64,
    /// First time the series enters the band and stays there for the hold
    /// window; `None` if it never converges within the series.
    pub converged_at: Option<SimTime>,
    /// Mean rate over the post-convergence region (or the final quarter of
    /// the series if never converged).
    pub steady_mean: f64,
    /// Coefficient of variation over the same region (instability measure).
    pub steady_cov: f64,
    /// steady_mean / target.
    pub efficiency: f64,
}

impl ConvergenceReport {
    /// Sustained-convergence analysis: smooth the series with a centered
    /// moving average of `smooth_bins`, then find the earliest time from
    /// which **every** smoothed bin to the end of the measurement stays at
    /// or above `(1 - tolerance) · target`. A transient excursion into the
    /// band (e.g. a slow-start overshoot draining queues at link rate) does
    /// not count: convergence must hold to the end of the window. At least
    /// `min_tail_bins` bins must remain after the convergence point, so
    /// "converged in the last instant" does not count either. (No upper
    /// bound: physical capacity already caps the rate; overshoot beyond the
    /// LP optimum is impossible in a valid run.)
    pub fn analyze_sustained(
        series: &TimeSeries,
        target: f64,
        tolerance: f64,
        smooth_bins: usize,
        min_tail_bins: usize,
    ) -> Self {
        assert!(target > 0.0, "target must be positive");
        assert!((0.0..1.0).contains(&tolerance), "tolerance in [0,1)");
        let smoothed = series.smoothed(smooth_bins.max(1));
        let floor = (1.0 - tolerance) * target;
        // Brief dips to 90% of the floor are tolerated (the paper itself
        // notes CUBIC is "unstable for short periods" after convergence),
        // but the suffix *mean* must stay at or above the floor.
        let hard_floor = floor * 0.9;
        let vals = smoothed.values();
        let n = vals.len();
        let mut converged_at = None;
        let mut suffix_sum = 0.0;
        let mut hard_ok = true;
        let mut best: Option<usize> = None;
        for i in (0..n).rev() {
            suffix_sum += vals[i];
            hard_ok &= vals[i] >= hard_floor;
            let suffix_len = n - i;
            if hard_ok
                && suffix_sum / suffix_len as f64 >= floor
                && suffix_len >= min_tail_bins.max(1)
            {
                best = Some(i);
            }
            if !hard_ok {
                break;
            }
        }
        if let Some(i) = best {
            converged_at = Some(series.start() + series.bin() * (i as u64));
        }
        let end = series.start() + series.bin() * (vals.len() as u64);
        let steady_from = match converged_at {
            Some(t) => t,
            None => series.start() + series.bin() * ((vals.len() * 3 / 4) as u64),
        };
        let steady_mean = series.mean_over(steady_from, end);
        let steady_cov = series.cov_over(steady_from, end);
        ConvergenceReport {
            target,
            tolerance,
            converged_at,
            steady_mean,
            steady_cov,
            efficiency: steady_mean / target,
        }
    }
}

/// Jain's fairness index over non-negative allocations:
/// `(Σx)² / (n·Σx²)`; 1 = perfectly equal, 1/n = one flow takes all.
pub fn jain_fairness(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sumsq: f64 = rates.iter().map(|r| r * r).sum();
    if sumsq <= 0.0 {
        return 1.0;
    }
    sum * sum / (rates.len() as f64 * sumsq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbase::SimDuration;

    fn series(vals: &[f64]) -> TimeSeries {
        TimeSeries::new(
            "s",
            SimTime::ZERO,
            SimDuration::from_millis(100),
            vals.to_vec(),
        )
    }

    #[test]
    fn immediate_convergence() {
        let s = series(&[90.0; 20]);
        let r = ConvergenceReport::analyze_sustained(&s, 90.0, 0.1, 1, 5);
        assert_eq!(r.converged_at, Some(SimTime::ZERO));
        assert!((r.steady_mean - 90.0).abs() < 1e-9);
        assert_eq!(r.steady_cov, 0.0);
        assert!((r.efficiency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn never_converges() {
        let s = series(&[60.0; 20]);
        let r = ConvergenceReport::analyze_sustained(&s, 90.0, 0.1, 1, 5);
        assert_eq!(r.converged_at, None);
        // Steady stats from the final quarter.
        assert!((r.steady_mean - 60.0).abs() < 1e-9);
        assert!((r.efficiency - 60.0 / 90.0).abs() < 1e-9);
    }

    #[test]
    fn transient_dip_delays_convergence() {
        // Climbs, holds, dips below the band at bin 6, then stays up: the
        // dip, not the first entry into the band, bounds the steady suffix.
        let mut vals = vec![50.0, 70.0, 85.0, 85.0, 85.0, 85.0, 70.0];
        vals.extend(vec![85.0; 13]);
        let s = series(&vals);
        let r = ConvergenceReport::analyze_sustained(&s, 90.0, 0.1, 1, 5);
        assert_eq!(r.converged_at, Some(SimTime::from_millis(700)));
    }

    #[test]
    fn instability_shows_in_cov() {
        let stable = series(&[90.0; 20]);
        let mut unstable_vals = Vec::new();
        for i in 0..20 {
            unstable_vals.push(if i % 2 == 0 { 85.0 } else { 95.0 });
        }
        let unstable = series(&unstable_vals);
        let rs = ConvergenceReport::analyze_sustained(&stable, 90.0, 0.1, 1, 3);
        let ru = ConvergenceReport::analyze_sustained(&unstable, 90.0, 0.1, 1, 3);
        assert!(ru.steady_cov > rs.steady_cov);
        assert!(
            ru.converged_at.is_some(),
            "oscillation inside the band still converges"
        );
    }

    #[test]
    fn sustained_ignores_transient_band_entry() {
        // Spike into the band at bins 2-4, then collapse, then settle high:
        // convergence waits for the stable suffix.
        let mut vals = vec![20.0, 50.0, 88.0, 90.0, 88.0, 40.0, 50.0];
        vals.extend(vec![86.0; 13]);
        let s = series(&vals);
        let sustained = ConvergenceReport::analyze_sustained(&s, 90.0, 0.1, 1, 5);
        assert_eq!(sustained.converged_at, Some(SimTime::from_millis(700)));
    }

    #[test]
    fn sustained_requires_minimum_tail() {
        let mut vals = vec![50.0; 18];
        vals.extend(vec![88.0; 2]); // in band only for the last 2 bins
        let s = series(&vals);
        let r = ConvergenceReport::analyze_sustained(&s, 90.0, 0.1, 1, 5);
        assert_eq!(r.converged_at, None);
        let r = ConvergenceReport::analyze_sustained(&s, 90.0, 0.1, 1, 2);
        assert!(r.converged_at.is_some());
    }

    #[test]
    fn sustained_never_below_floor_converges_at_start() {
        let s = series(&[85.0; 20]);
        let r = ConvergenceReport::analyze_sustained(&s, 90.0, 0.1, 3, 5);
        assert_eq!(r.converged_at, Some(SimTime::ZERO));
    }

    #[test]
    fn jain_index_extremes() {
        assert!((jain_fairness(&[10.0, 10.0, 10.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[30.0, 0.0, 0.0]);
        assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        // The paper's optimum split.
        let j = jain_fairness(&[10.0, 30.0, 50.0]);
        assert!(j > 0.6 && j < 0.8, "j={j}");
    }
}
