//! Simulated time.
//!
//! The simulator runs on a virtual clock completely decoupled from wall-clock
//! time, so every experiment in this repository is deterministic and
//! reproducible bit-for-bit. Time is kept in integer nanoseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant (used as "never").
    pub const MAX: Time = Time(u64::MAX);

    /// Nanoseconds since simulation start.
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start.
    pub fn micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since simulation start.
    pub fn millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The earliest of some optional deadlines (`None`: not armed), or
    /// `None` if none is. A plain loop, because the deadline paths call it
    /// per connection and per event: `into_iter().flatten().min()` over the
    /// same array costs several times as much.
    #[inline]
    pub fn earliest<const N: usize>(deadlines: [Option<Time>; N]) -> Option<Time> {
        let mut min = None;
        for d in deadlines {
            min = match (min, d) {
                (Some(a), Some(b)) => Some(Time::min(a, b)),
                (a, b) => a.or(b),
            };
        }
        min
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);

    pub fn from_nanos(n: u64) -> Dur {
        Dur(n)
    }
    pub fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }
    pub fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }
    pub fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    pub fn nanos(self) -> u64 {
        self.0
    }
    pub fn micros(self) -> u64 {
        self.0 / 1_000
    }
    pub fn millis(self) -> u64 {
        self.0 / 1_000_000
    }
    pub fn secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Scale the duration by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> Dur {
        Dur(self.0.saturating_mul(k))
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp(self, lo: Dur, hi: Dur) -> Dur {
        Dur(self.0.clamp(lo.0, hi.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        self.since(rhs)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.secs_f64())
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Dur::from_millis(3).nanos(), 3_000_000);
        assert_eq!(Dur::from_micros(7).nanos(), 7_000);
        assert_eq!(Dur::from_secs(2).millis(), 2_000);
        assert_eq!((Time::ZERO + Dur::from_millis(5)).millis(), 5);
    }

    #[test]
    fn earliest_is_the_min_of_the_armed_deadlines() {
        let (a, b) = (Some(Time(5)), Some(Time(3)));
        assert_eq!(Time::earliest([a, None, b, None]), b);
        assert_eq!(Time::earliest([None, a]), a);
        assert_eq!(Time::earliest([None, None, None]), None);
        assert_eq!(Time::earliest::<0>([]), None);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Time::MAX + Dur::from_secs(1), Time::MAX);
        assert_eq!(Dur(3) - Dur(10), Dur::ZERO);
        assert_eq!(Time(5).since(Time(9)), Dur::ZERO);
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(Time(1) < Time(2));
        assert!(Dur::from_millis(1) < Dur::from_secs(1));
    }

    #[test]
    fn sub_time_gives_dur() {
        assert_eq!(Time(100) - Time(40), Dur(60));
    }

    #[test]
    fn clamp_and_mul() {
        assert_eq!(Dur(5).saturating_mul(3), Dur(15));
        assert_eq!(Dur(5).clamp(Dur(10), Dur(20)), Dur(10));
        assert_eq!(Dur(50).clamp(Dur(10), Dur(20)), Dur(20));
    }
}
