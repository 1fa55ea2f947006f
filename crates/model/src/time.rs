//! Simulated time.
//!
//! The runtime simulator advances a deterministic virtual clock measured in
//! nanoseconds. Every OMPT event carries a [`TimeSpan`] (start and end of
//! the event), which is exactly the information the paper's algorithms need
//! (§5: "Each event log entry must contain the start and end time of the
//! event...").

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since program start.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A length of simulated time, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Time zero (program start).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since program start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds in this duration, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3} s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3} ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3} us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns} ns")
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

/// A half-open interval `[start, end)` of simulated time.
///
/// Events with `start == end` are instantaneous; the overlap predicates
/// below treat the interval as closed for the purposes of Algorithm 4/5
/// ("lifetimes \[that\] do not intersect with the execution of any active
/// kernel"), which matches the paper's `<`/`>` comparisons.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct TimeSpan {
    /// When the event began.
    pub start: SimTime,
    /// When the event completed.
    pub end: SimTime,
}

impl TimeSpan {
    /// Construct a span. `end` is clamped to be no earlier than `start`.
    #[inline]
    pub fn new(start: SimTime, end: SimTime) -> Self {
        TimeSpan {
            start,
            end: end.max(start),
        }
    }

    /// An instantaneous span at `t`.
    #[inline]
    pub fn at(t: SimTime) -> Self {
        TimeSpan { start: t, end: t }
    }

    /// Duration of the span.
    #[inline]
    pub fn duration(self) -> SimDuration {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(a: u64, b: u64) -> TimeSpan {
        TimeSpan::new(SimTime(a), SimTime(b))
    }

    #[test]
    fn duration_arithmetic() {
        let t = SimTime(100) + SimDuration(50);
        assert_eq!(t, SimTime(150));
        assert_eq!(t - SimTime(100), SimDuration(50));
        assert_eq!(SimTime(10) - SimTime(50), SimDuration(0), "saturates");
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration(500).to_string(), "500 ns");
        assert_eq!(SimDuration(1_500).to_string(), "1.500 us");
        assert_eq!(SimDuration(2_500_000).to_string(), "2.500 ms");
        assert_eq!(SimDuration(3_000_000_000).to_string(), "3.000 s");
    }

    #[test]
    fn instantaneous_spans() {
        let p = TimeSpan::at(SimTime(5));
        assert_eq!(p.duration(), SimDuration::ZERO);
    }

    #[test]
    fn new_clamps_reversed_spans() {
        let s = span(10, 3);
        assert_eq!(s.start, SimTime(10));
        assert_eq!(s.end, SimTime(10));
    }
}
