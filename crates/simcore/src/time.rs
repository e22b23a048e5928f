//! Simulated time: absolute instants ([`Time`]) and durations ([`Delta`]).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of simulated time, in picoseconds since the start of
/// the simulation.
///
/// Arithmetic follows instant/duration algebra: `Time + Delta = Time`,
/// `Time - Time = Delta`. Subtracting a later instant from an earlier one
/// panics (in debug and release), as it always indicates a causality bug in
/// the simulator.
///
/// # Example
///
/// ```
/// use dsh_simcore::{Delta, Time};
/// let t = Time::from_us(2) + Delta::from_ns(500);
/// assert_eq!(t.as_ps(), 2_500_000);
/// assert_eq!(t - Time::from_us(2), Delta::from_ns(500));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time, in picoseconds.
///
/// # Example
///
/// ```
/// use dsh_simcore::Delta;
/// assert_eq!(Delta::from_us(1), Delta::from_ns(1000));
/// assert_eq!(Delta::from_ns(3) * 4, Delta::from_ns(12));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Delta(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for timers that are not armed.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates an instant from nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates an instant from microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Creates an instant from milliseconds.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000_000)
    }

    /// Creates an instant from seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000_000)
    }

    /// Returns the raw picosecond count.
    #[must_use]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the instant as (truncated) nanoseconds.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the instant as fractional microseconds.
    #[must_use]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the instant as fractional milliseconds.
    #[must_use]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the instant as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future (useful for idempotent bookkeeping).
    #[must_use]
    pub fn saturating_since(self, earlier: Time) -> Delta {
        Delta(self.0.saturating_sub(earlier.0))
    }
}

impl Delta {
    /// The zero-length duration.
    pub const ZERO: Delta = Delta(0);

    /// Creates a duration from picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        Delta(ps)
    }

    /// Creates a duration from nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        Delta(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        Delta(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        Delta(ms * 1_000_000_000)
    }

    /// Creates a duration from seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Delta(s * 1_000_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "duration must be finite and non-negative");
        Delta((s * 1e12).round() as u64)
    }

    /// Returns the raw picosecond count.
    #[must_use]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the duration as (truncated) nanoseconds.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as fractional microseconds.
    #[must_use]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as fractional milliseconds.
    #[must_use]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }
}

impl Add<Delta> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Delta) -> Time {
        Time(self.0.checked_add(rhs.0).expect("simulated time overflow"))
    }
}

impl AddAssign<Delta> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Delta) {
        *self = *self + rhs;
    }
}

impl Sub<Delta> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Delta) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("simulated time underflow"))
    }
}

impl Sub<Time> for Time {
    type Output = Delta;
    #[inline]
    fn sub(self, rhs: Time) -> Delta {
        Delta(self.0.checked_sub(rhs.0).expect("negative duration: rhs instant is later"))
    }
}

impl Add for Delta {
    type Output = Delta;
    #[inline]
    fn add(self, rhs: Delta) -> Delta {
        Delta(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Delta {
    #[inline]
    fn add_assign(&mut self, rhs: Delta) {
        *self = *self + rhs;
    }
}

impl Sub for Delta {
    type Output = Delta;
    #[inline]
    fn sub(self, rhs: Delta) -> Delta {
        Delta(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for Delta {
    #[inline]
    fn sub_assign(&mut self, rhs: Delta) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Delta {
    type Output = Delta;
    #[inline]
    fn mul(self, rhs: u64) -> Delta {
        Delta(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for Delta {
    type Output = Delta;
    #[inline]
    fn div(self, rhs: u64) -> Delta {
        Delta(self.0 / rhs)
    }
}

impl Sum for Delta {
    fn sum<I: Iterator<Item = Delta>>(iter: I) -> Delta {
        iter.fold(Delta::ZERO, Add::add)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time({}ns)", self.as_ns())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Debug for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Delta({}ns)", self.as_ns())
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_are_consistent() {
        assert_eq!(Time::from_secs(1), Time::from_ms(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Delta::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn instant_duration_algebra() {
        let a = Time::from_us(10);
        let b = a + Delta::from_ns(250);
        assert_eq!(b - a, Delta::from_ns(250));
        assert_eq!(b - Delta::from_ns(250), a);
        assert_eq!((b - a) * 4, Delta::from_us(1));
        assert_eq!(Delta::from_us(1) / 4, Delta::from_ns(250));
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        let _ = Time::from_ns(1) - Time::from_ns(2);
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(Time::from_ns(1).saturating_since(Time::from_ns(5)), Delta::ZERO);
        assert_eq!(Time::from_ns(5).saturating_since(Time::from_ns(1)), Delta::from_ns(4));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(Delta::from_secs_f64(1e-12), Delta::from_ps(1));
        assert_eq!(Delta::from_secs_f64(0.5), Delta::from_ms(500));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Time::from_us(3)), "3.000us");
        assert_eq!(format!("{:?}", Delta::from_ns(7)), "Delta(7ns)");
    }

    #[test]
    fn sum_of_deltas() {
        let total: Delta = [Delta::from_ns(1), Delta::from_ns(2)].into_iter().sum();
        assert_eq!(total, Delta::from_ns(3));
    }
}
