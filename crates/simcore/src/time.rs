//! Integer-nanosecond virtual time.
//!
//! The simulator never consults the wall clock: all timing is expressed as
//! [`Time`] (an instant since simulation start) and [`Dur`] (a span).
//! Nanosecond resolution comfortably covers the shortest scheduling
//! granularity in the paper (the 125 µs slot of 5G NR numerology 3,
//! Figure 5) while `u64` nanoseconds allow simulations of ~584 years.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to nearest nanosecond).
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Dur {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        Dur((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer factor.
    pub const fn mul(self, k: u64) -> Dur {
        Dur(self.0 * k)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An instant of virtual time: nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);

    /// The largest representable instant (used as "never").
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from nanoseconds since start.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Construct from milliseconds since start.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Construct from whole seconds since start.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Nanoseconds since start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds since start.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed duration since `earlier`. Panics when `earlier` is later
    /// than `self` — in a monotonic simulation that indicates a logic bug
    /// and we want to hear about it immediately.
    pub fn since(self, earlier: Time) -> Dur {
        debug_assert!(earlier <= self, "time went backwards: {earlier} > {self}");
        Dur(self.0 - earlier.0)
    }

    /// Elapsed duration since `earlier`, clamping to zero instead of
    /// panicking.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign<Dur> for Time {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Sub for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        self.since(rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(Dur::from_micros(125).as_nanos(), 125_000);
        assert_eq!(Dur::from_millis(1).as_micros(), 1_000);
        assert_eq!(Dur::from_secs(2).as_millis(), 2_000);
        assert_eq!(Dur::from_secs_f64(0.5).as_millis(), 500);
        assert_eq!(Time::from_millis(3).as_nanos(), 3_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(10) + Dur::from_micros(500);
        assert_eq!(t.as_nanos(), 10_500_000);
        assert_eq!(t.since(Time::from_millis(10)), Dur::from_micros(500));
        assert_eq!(t - Time::from_millis(10), Dur::from_micros(500));
        let mut t2 = t;
        t2 += Dur::from_micros(500);
        assert_eq!(t2, Time::from_millis(11));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            Time::from_millis(1).saturating_since(Time::from_millis(5)),
            Dur::ZERO
        );
        assert_eq!(
            Dur::from_millis(1).saturating_sub(Dur::from_millis(9)),
            Dur::ZERO
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Dur::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Dur::from_micros(125)), "125.000us");
        assert_eq!(format!("{}", Dur::from_millis(1)), "1.000ms");
        assert_eq!(format!("{}", Dur::from_secs(3)), "3.000s");
    }

    #[test]
    fn tti_constants_fit() {
        // Paper Fig 5: numerology 0..=3 slot lengths.
        for (mu, us) in [(0u32, 1000u64), (1, 500), (2, 250), (3, 125)] {
            let slot = Dur::from_micros(us);
            assert_eq!(slot.as_micros(), 1000 >> mu);
        }
    }

    // The guard is a debug_assert, so the panic only exists in debug
    // builds; under --release the test would fail for the wrong reason.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn since_panics_on_backwards_time() {
        // debug_assert only fires in debug builds, which tests are.
        let _ = Time::from_millis(1).since(Time::from_millis(2));
    }
}
