//! Virtual time for the simulation.
//!
//! All latencies in the CableS reproduction are expressed in simulated
//! nanoseconds. A `u64` nanosecond clock covers ~584 years of simulated
//! time, far beyond any experiment in the paper.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use cables_sim::SimTime;
/// let t = SimTime::ZERO + SimTime::from_micros(7).elapsed_nanos();
/// assert_eq!(t.as_nanos(), 7_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Interprets this time as a duration of the same number of nanoseconds.
    ///
    /// Useful when a microbenchmark subtracts two clock readings.
    pub const fn elapsed_nanos(self) -> u64 {
        self.0
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating difference between two times, as nanoseconds.
    pub fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0 + ns)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ns: u64) {
        self.0 += ns;
    }
}

impl Sub<u64> for SimTime {
    type Output = SimTime;
    fn sub(self, ns: u64) -> SimTime {
        SimTime(self.0 - ns)
    }
}

impl SubAssign<u64> for SimTime {
    fn sub_assign(&mut self, ns: u64) {
        self.0 -= ns;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, other: SimTime) -> u64 {
        self.0 - other.0
    }
}

impl Sum<u64> for SimTime {
    fn sum<I: Iterator<Item = u64>>(iter: I) -> Self {
        SimTime(iter.sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Convenience constructors for durations expressed in nanoseconds.
pub mod dur {
    /// `n` milliseconds, in nanoseconds.
    pub const fn millis(n: u64) -> u64 {
        n * 1_000_000
    }
    /// `n` seconds, in nanoseconds.
    pub const fn secs(n: u64) -> u64 {
        n * 1_000_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10);
        assert_eq!((t + 500).as_nanos(), 10_500);
        assert_eq!(t - SimTime::from_micros(4), 6_000);
        let mut u = t;
        u += 1;
        assert_eq!(u.as_nanos(), 10_001);
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.saturating_since(a), 4);
        assert_eq!(a.saturating_since(b), 0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn float_views() {
        let t = SimTime::from_nanos(1_500_000);
        assert!((t.as_millis_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_micros_f64() - 1500.0).abs() < 1e-9);
    }
}
