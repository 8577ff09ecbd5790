//! Strongly-typed simulation time.
//!
//! The whole BEACON stack advances in units of one DRAM bus cycle (tCK).
//! [`Cycle`] is an absolute point in time, [`Duration`] is a span. Keeping
//! them as newtypes prevents the classic simulator bug of mixing absolute
//! times with spans.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute point in simulated time, measured in DRAM bus cycles.
///
/// ```
/// use beacon_sim::cycle::{Cycle, Duration};
/// let t = Cycle::ZERO + Duration::new(22);
/// assert_eq!(t.as_u64(), 22);
/// assert_eq!(t - Cycle::ZERO, Duration::new(22));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

/// A span of simulated time, measured in DRAM bus cycles.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Cycle {
    /// The start of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// A time later than any reachable simulation time; used as an "idle /
    /// never" sentinel in schedulers.
    pub const NEVER: Cycle = Cycle(u64::MAX);

    /// Creates a cycle from a raw count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Raw cycle count since time zero.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The cycle immediately after `self`.
    ///
    /// # Panics
    /// Panics on overflow (calling `next` on [`Cycle::NEVER`]).
    #[inline]
    pub fn next(self) -> Cycle {
        Cycle(self.0.checked_add(1).expect("cycle overflow"))
    }

    /// Saturating difference: how long after `earlier` this cycle is, or
    /// zero if `earlier` is actually later.
    #[inline]
    pub fn since(self, earlier: Cycle) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Converts to wall-clock seconds for a given cycle time in picoseconds.
    #[inline]
    pub fn to_seconds(self, tck_ps: u64) -> f64 {
        (self.0 as f64) * (tck_ps as f64) * 1e-12
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from a raw cycle count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Duration(raw)
    }

    /// Raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// True when the span is empty.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Scales the span by an integer factor, saturating at the maximum.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }
}

impl Add<Duration> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: Duration) -> Cycle {
        Cycle(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Cycle) -> Duration {
        debug_assert!(self.0 >= rhs.0, "negative cycle difference");
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "Cycle(NEVER)")
        } else {
            write!(f, "Cycle({})", self.0)
        }
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Duration({})", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl From<u64> for Duration {
    fn from(raw: u64) -> Self {
        Duration(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration_advances_cycle() {
        let t = Cycle::new(10) + Duration::new(5);
        assert_eq!(t, Cycle::new(15));
    }

    #[test]
    fn subtraction_yields_duration() {
        assert_eq!(Cycle::new(30) - Cycle::new(12), Duration::new(18));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Cycle::new(5).since(Cycle::new(9)), Duration::ZERO);
        assert_eq!(Cycle::new(9).since(Cycle::new(5)), Duration::new(4));
    }

    #[test]
    fn never_is_greater_than_everything() {
        assert!(Cycle::NEVER > Cycle::new(u64::MAX - 1));
    }

    #[test]
    fn never_plus_duration_saturates() {
        assert_eq!(Cycle::NEVER + Duration::new(10), Cycle::NEVER);
    }

    #[test]
    fn to_seconds_uses_tck() {
        // DDR4-1600: tCK = 1250 ps. 800 cycles = 1 microsecond.
        let t = Cycle::new(800);
        let s = t.to_seconds(1250);
        assert!((s - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn duration_ordering_and_max() {
        assert!(Duration::new(3) < Duration::new(4));
        assert_eq!(Duration::new(3).max(Duration::new(4)), Duration::new(4));
    }

    #[test]
    fn debug_never_is_labelled() {
        assert_eq!(format!("{:?}", Cycle::NEVER), "Cycle(NEVER)");
    }
}
