//! Order statistics and the regression-bound comparator.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), the method the benchmark driver takes its
//! spreads with, so the quartiles a report prints are the driver's.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile; needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// What the report prints for a set of timed reps. Nine reps support no
/// tail percentile, so none is given: min and max stand in for the tails.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let [q1, median, q3] = if v.len() >= 2 {
        quartiles(&v)
    } else {
        [v[0]; 3]
    };
    Summary {
        n: v.len(),
        min: v[0],
        q1,
        median,
        q3,
        max: v[v.len() - 1],
    }
}

/// The share of `base` by which `new` is worse (negative when it is better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// True when `new` is no worse than `base` by more than `bound`.
pub fn within_bound(better: Better, base: f64, new: f64, bound: f64) -> bool {
    worse_by(better, base, new) <= bound
}

/// Assert this module's arithmetic on fixed vectors (`selfcheck`).
pub fn selfcheck() {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
    assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
    assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
    // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
    let nine: Vec<f64> = (1..=9).map(f64::from).collect();
    let q = quartiles(&nine);
    assert!(close(q[0], 2.5) && close(q[1], 5.0) && close(q[2], 7.5));
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let q = quartiles(&ten);
    assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let q = quartiles(&[2.0, 1.0]);
    assert!(close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25));
    let s = summarize(&[5.0, 1.0, 9.0]);
    assert!(s.n == 3 && close(s.min, 1.0) && close(s.median, 5.0) && close(s.max, 9.0));

    assert!(close(worse_by(Better::Lower, 2.0, 2.2), 0.1));
    assert!(close(worse_by(Better::Higher, 2.0, 1.8), 0.1));
    assert!(within_bound(Better::Lower, 100.0, 104.9, 0.05));
    assert!(!within_bound(Better::Lower, 100.0, 105.1, 0.05));
    assert!(within_bound(Better::Higher, 100.0, 95.1, 0.05));
    assert!(!within_bound(Better::Higher, 100.0, 94.9, 0.05));
    assert!(within_bound(Better::Higher, 100.0, 250.0, 0.05));
}
