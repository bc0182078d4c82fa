//! Numeric abstraction for the simplex solver.
//!
//! The solver is generic over [`LpNum`] so the same pivoting code runs in
//! fast `f64` (production) and exact [`Rational`] arithmetic (tests — the
//! property suite checks the float solver against the exact one on random
//! LPs, which is how we trust the float tolerances).

use std::fmt;

/// The field operations the simplex needs.
pub trait LpNum: Clone + PartialEq + PartialOrd + fmt::Debug {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Addition.
    fn add(&self, o: &Self) -> Self;
    /// Subtraction.
    fn sub(&self, o: &Self) -> Self;
    /// Multiplication.
    fn mul(&self, o: &Self) -> Self;
    /// Division (caller guarantees the divisor is nonzero-ish).
    fn div(&self, o: &Self) -> Self;
    /// Negation.
    fn neg(&self) -> Self;
    /// Is this value strictly positive beyond numerical noise?
    fn gt_zero(&self) -> bool;
    /// Is this value zero up to numerical noise?
    fn near_zero(&self) -> bool;
    /// Convert from an f64 (for model coefficients).
    fn from_f64(v: f64) -> Self;
    /// Convert to f64 (for reporting).
    fn to_f64(&self) -> f64;
}

/// Pivot tolerance for floating point.
pub const F64_EPS: f64 = 1e-9;

impl LpNum for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn add(&self, o: &Self) -> Self {
        self + o
    }
    fn sub(&self, o: &Self) -> Self {
        self - o
    }
    fn mul(&self, o: &Self) -> Self {
        self * o
    }
    fn div(&self, o: &Self) -> Self {
        self / o
    }
    fn neg(&self) -> Self {
        -self
    }
    fn gt_zero(&self) -> bool {
        *self > F64_EPS
    }
    fn near_zero(&self) -> bool {
        self.abs() <= F64_EPS
    }
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f64(&self) -> f64 {
        *self
    }
}

/// An exact rational number over `i128` with canonical form
/// (gcd-reduced, positive denominator).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// Construct `num/den`, reducing to canonical form. Panics on zero
    /// denominator or overflow.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "zero denominator");
        let g = gcd(num, den).max(1);
        let sign = if den < 0 { -1 } else { 1 };
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// An integer as a rational.
    pub fn from_int(v: i64) -> Self {
        Rational {
            num: v as i128,
            den: 1,
        }
    }

    /// Numerator (canonical form).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (canonical form, always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        // Cross-multiply; denominators are positive in canonical form.
        #[expect(
            clippy::expect_used,
            reason = "exact arithmetic cannot continue after overflow; fail loudly"
        )]
        let lhs = self.num.checked_mul(o.den).expect("rational overflow");
        #[expect(
            clippy::expect_used,
            reason = "exact arithmetic cannot continue after overflow; fail loudly"
        )]
        let rhs = o.num.checked_mul(self.den).expect("rational overflow");
        lhs.partial_cmp(&rhs)
    }
}

impl LpNum for Rational {
    fn zero() -> Self {
        Rational::from_int(0)
    }
    fn one() -> Self {
        Rational::from_int(1)
    }
    fn add(&self, o: &Self) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "exact arithmetic cannot continue after overflow; fail loudly"
        )]
        let num = self
            .num
            .checked_mul(o.den)
            .and_then(|a| o.num.checked_mul(self.den).and_then(|b| a.checked_add(b)))
            .expect("rational overflow");
        #[expect(
            clippy::expect_used,
            reason = "exact arithmetic cannot continue after overflow; fail loudly"
        )]
        let den = self.den.checked_mul(o.den).expect("rational overflow");
        Rational::new(num, den)
    }
    fn sub(&self, o: &Self) -> Self {
        self.add(&o.neg())
    }
    fn mul(&self, o: &Self) -> Self {
        // Cross-reduce first to keep magnitudes small.
        let g1 = gcd(self.num, o.den).max(1);
        let g2 = gcd(o.num, self.den).max(1);
        #[expect(
            clippy::expect_used,
            reason = "exact arithmetic cannot continue after overflow; fail loudly"
        )]
        let num = (self.num / g1)
            .checked_mul(o.num / g2)
            .expect("rational overflow");
        #[expect(
            clippy::expect_used,
            reason = "exact arithmetic cannot continue after overflow; fail loudly"
        )]
        let den = (self.den / g2)
            .checked_mul(o.den / g1)
            .expect("rational overflow");
        Rational::new(num, den)
    }
    fn div(&self, o: &Self) -> Self {
        assert!(o.num != 0, "division by zero rational");
        self.mul(&Rational::new(o.den, o.num))
    }
    fn neg(&self) -> Self {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
    fn gt_zero(&self) -> bool {
        self.num > 0
    }
    fn near_zero(&self) -> bool {
        self.num == 0
    }
    fn from_f64(v: f64) -> Self {
        // Exact conversion for the dyadic rationals our models use; general
        // f64s are approximated with denominator 10^9.
        assert!(v.is_finite(), "non-finite coefficient");
        if v == v.trunc() && v.abs() < 1e18 {
            return Rational::from_int(v as i64);
        }
        Rational::new((v * 1e9).round() as i128, 1_000_000_000)
    }
    fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form() {
        let r = Rational::new(6, -4);
        assert_eq!(r.numer(), -3);
        assert_eq!(r.denom(), 2);
        assert_eq!(format!("{r}"), "-3/2");
        assert_eq!(format!("{}", Rational::from_int(5)), "5");
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a.add(&b), Rational::new(5, 6));
        assert_eq!(a.sub(&b), Rational::new(1, 6));
        assert_eq!(a.mul(&b), Rational::new(1, 6));
        assert_eq!(a.div(&b), Rational::new(3, 2));
        assert_eq!(a.neg(), Rational::new(-1, 2));
    }

    #[test]
    fn comparisons() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 2);
        assert!(a < b);
        assert!(b.gt_zero());
        assert!(!Rational::zero().gt_zero());
        assert!(Rational::zero().near_zero());
        assert!(a.neg() < Rational::zero());
    }

    #[test]
    fn f64_conversion() {
        assert_eq!(Rational::from_f64(40.0), Rational::from_int(40));
        assert_eq!(Rational::from_f64(0.5), Rational::new(1, 2));
        assert!((Rational::new(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn f64_lpnum_tolerances() {
        assert!(1e-8.gt_zero());
        assert!(!1e-10.gt_zero());
        assert!(1e-10.near_zero());
        assert!(!1e-8.near_zero());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }
}
