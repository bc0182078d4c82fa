//! A strongly typed unit for link capacities.
//!
//! Link capacity, window sizes and sampler output all mix bits, bytes, and
//! megabits-per-second; a typed wrapper prevents the classic factor-of-8 bug.
//! Transmission times are computed in exact 128-bit integer arithmetic so
//! that identical packets always serialize in identical simulated time.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Bits per byte times nanoseconds per second: `bytes * NS_BITS_PER_BYTE /
/// bps` is a transmission time in nanoseconds.
const NS_BITS_PER_BYTE: u64 = 8 * 1_000_000_000;

/// A link or flow rate in bits per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero rate (a disabled link).
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Construct from megabits per second (10^6 bits/s).
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// The rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// The rate in megabits per second, as a float (plot axes).
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time to serialize `bytes` onto a link of this capacity.
    ///
    /// Exact integer arithmetic: `ns = bytes * 8 * 1e9 / bps`, rounded up so
    /// a packet never finishes "early" (rounding down could let a link carry
    /// fractionally more than its capacity over long windows). The product
    /// fits a `u64` up to 2.3 GB, so a packet divides in 64 bits; only
    /// larger sizes take the 128-bit path.
    pub fn tx_time(self, bytes: u64) -> SimDuration {
        assert!(self.0 > 0, "tx_time on a zero-capacity link");
        match bytes.checked_mul(NS_BITS_PER_BYTE) {
            Some(bits) => SimDuration::from_nanos(bits.div_ceil(self.0)),
            None => self.tx_time_wide(bytes),
        }
    }

    /// [`Bandwidth::tx_time`] in 128 bits, for sizes whose product
    /// overflows a `u64`.
    fn tx_time_wide(self, bytes: u64) -> SimDuration {
        let bits = u128::from(bytes) * u128::from(NS_BITS_PER_BYTE);
        let ns = bits.div_ceil(u128::from(self.0));
        #[expect(
            clippy::expect_used,
            reason = "checked arithmetic: overflow is a sim bug; fail loudly, never wrap"
        )]
        SimDuration::from_nanos(u64::try_from(ns).expect("tx time overflow"))
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.0;
        if bps >= 1_000_000_000 && bps.is_multiple_of(1_000_000) {
            write!(f, "{:.3}Gbps", bps as f64 / 1e9)
        } else if bps >= 1_000_000 {
            write!(f, "{:.3}Mbps", bps as f64 / 1e6)
        } else if bps >= 1_000 {
            write!(f, "{:.3}Kbps", bps as f64 / 1e3)
        } else {
            write!(f, "{bps}bps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_constructors_agree() {
        assert_eq!(Bandwidth::from_mbps(40).as_bps(), 40_000_000);
        assert_eq!(Bandwidth::from_bps(40_000_000), Bandwidth::from_mbps(40));
        assert!((Bandwidth::from_mbps(40).as_mbps_f64() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn tx_time_is_exact_for_clean_divisions() {
        // 1500 bytes at 100 Mbps = 12000 bits / 1e8 bps = 120 us.
        let t = Bandwidth::from_mbps(100).tx_time(1500);
        assert_eq!(t.as_nanos(), 120_000);
        // 1500 bytes at 40 Mbps = 300 us.
        let t = Bandwidth::from_mbps(40).tx_time(1500);
        assert_eq!(t.as_nanos(), 300_000);
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bps: 8e9/3 ns = 2666666666.67 -> 2666666667.
        let t = Bandwidth::from_bps(3).tx_time(1);
        assert_eq!(t.as_nanos(), 2_666_666_667);
    }

    #[test]
    fn tx_time_takes_the_wide_path_past_u64() {
        // The product first overflows a u64 one byte past this size.
        let edge = u64::MAX / NS_BITS_PER_BYTE;
        assert!(edge.checked_mul(NS_BITS_PER_BYTE).is_some());
        assert!((edge + 1).checked_mul(NS_BITS_PER_BYTE).is_none());
        let bw = Bandwidth::from_mbps(100_000);
        assert_eq!(bw.tx_time(edge).as_nanos(), 184_467_441);
        assert_eq!(bw.tx_time(edge + 1).as_nanos(), 184_467_441);
    }

    #[test]
    #[should_panic(expected = "tx time overflow")]
    fn tx_time_overflow_panics() {
        let _ = Bandwidth::from_bps(1).tx_time(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn tx_time_on_dead_link_panics() {
        let _ = Bandwidth::ZERO.tx_time(1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bandwidth::from_mbps(40)), "40.000Mbps");
        assert_eq!(format!("{}", Bandwidth::from_bps(999)), "999bps");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Both paths of `tx_time` give the exact rounded-up quotient over
        /// the whole `bytes` x `bps` range: sizes at every scale and within
        /// 512 bytes of the size where the product stops fitting a `u64`,
        /// rates from 1 bps to `u64::MAX`.
        #[test]
        fn tx_time_paths_agree(
            raw_bytes in any::<u64>(),
            bytes_shift in 0u32..64,
            near_edge in any::<bool>(),
            delta in 0u64..1024,
            raw_bps in any::<u64>(),
            bps_shift in 0u32..64,
        ) {
            let edge = u64::MAX / NS_BITS_PER_BYTE;
            let bytes = if near_edge { edge - 512 + delta } else { raw_bytes >> bytes_shift };
            let bw = Bandwidth::from_bps((raw_bps >> bps_shift).max(1));
            let exact = (u128::from(bytes) * 8_000_000_000).div_ceil(u128::from(bw.as_bps()));
            if let Ok(ns) = u64::try_from(exact) {
                prop_assert_eq!(bw.tx_time(bytes).as_nanos(), ns);
                prop_assert_eq!(bw.tx_time_wide(bytes).as_nanos(), ns);
            }
        }
    }
}
