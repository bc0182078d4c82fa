//! Summary statistics over a run's allocation.
//!
//! How fairly an allocation splits across paths — [`jain_fairness`]. Whether
//! a run reached the optimum is read off per-bottleneck utilisation over the
//! run's second half (`lpsolve::MaxThroughput::utilisation`), not here.

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
