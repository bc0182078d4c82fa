//! Simulated time.
//!
//! Time is an integer count of nanoseconds since the start of the
//! simulation. Integer time (rather than `f64` seconds) is load-bearing:
//! event ordering, retransmission timeouts and throughput bins must be
//! exactly reproducible across runs and platforms, and floating-point
//! accumulation error would break that.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" timer.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (for human-facing configuration
    /// only; internal arithmetic never round-trips through floats).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite(),
            "SimTime must be finite and non-negative"
        );
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds (for display/plotting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed time since `earlier`. Saturates to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration (returns `None` on overflow).
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (configuration convenience).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite(),
            "SimDuration must be finite and non-negative"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in milliseconds, truncated.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Duration in fractional seconds (display/plotting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer factor, saturating at the maximum.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scale by a non-negative float factor (used by RTO backoff policies
    /// expressed as multipliers; rounding is to nearest nanosecond).
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(
            k >= 0.0 && k.is_finite(),
            "scale factor must be finite and non-negative"
        );
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp(self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "clamp bounds inverted");
        self.max(lo).min(hi)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        #[expect(
            clippy::expect_used,
            reason = "checked arithmetic: overflow is a sim bug; fail loudly, never wrap"
        )]
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        #[expect(
            clippy::expect_used,
            reason = "checked arithmetic: overflow is a sim bug; fail loudly, never wrap"
        )]
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        #[expect(
            clippy::expect_used,
            reason = "checked arithmetic: overflow is a sim bug; fail loudly, never wrap"
        )]
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        #[expect(
            clippy::expect_used,
            reason = "checked arithmetic: overflow is a sim bug; fail loudly, never wrap"
        )]
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        #[expect(
            clippy::expect_used,
            reason = "checked arithmetic: overflow is a sim bug; fail loudly, never wrap"
        )]
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        #[expect(
            clippy::expect_used,
            reason = "checked arithmetic: overflow is a sim bug; fail loudly, never wrap"
        )]
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// Integer ratio of two durations (how many `rhs` fit into `self`).
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

/// Render a nanosecond count with an adaptive unit: `1.5ms`, `2.25s`, `750ns`.
fn format_ns(ns: u64) -> String {
    if ns == u64::MAX {
        return "∞".to_string();
    }
    if ns >= 1_000_000_000 {
        format!("{:.6}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn secs_f64_roundtrip_is_close() {
        let t = SimTime::from_secs_f64(1.234_567_891);
        assert!((t.as_secs_f64() - 1.234_567_891).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_works() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!((t + d).as_nanos(), 15_000_000);
        assert_eq!((t - d).as_nanos(), 5_000_000);
        assert_eq!(((t + d) - t).as_nanos(), d.as_nanos());
        assert_eq!((d * 3).as_millis(), 15);
        assert_eq!((d / 5).as_millis(), 1);
        assert_eq!(SimDuration::from_millis(17) / d, 3);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_subtraction_underflow_panics() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(1));
    }

    #[test]
    fn mul_f64_rounds_to_nearest_ns() {
        let d = SimDuration::from_nanos(10);
        assert_eq!(d.mul_f64(1.26).as_nanos(), 13);
        assert_eq!(d.mul_f64(0.0).as_nanos(), 0);
    }

    #[test]
    fn clamp_and_minmax() {
        let lo = SimDuration::from_millis(1);
        let hi = SimDuration::from_millis(10);
        assert_eq!(SimDuration::from_millis(5).clamp(lo, hi).as_millis(), 5);
        assert_eq!(SimDuration::from_micros(1).clamp(lo, hi), lo);
        assert_eq!(SimDuration::from_secs(1).clamp(lo, hi), hi);
        assert_eq!(lo.max(hi), hi);
        assert_eq!(lo.min(hi), lo);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000000s");
    }
}
