//! Simulated time.
//!
//! Time is kept in integer nanoseconds so that event ordering is exact and
//! platform-independent — a float clock accumulates rounding that can flip
//! tie-breaks between runs.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Time zero.
    pub const ZERO: Nanos = Nanos(0);

    /// Construct from seconds (rounds to the nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Nanos {
        debug_assert!(s >= 0.0 && s.is_finite(), "invalid duration {s}");
        Nanos((s * 1e9).round() as u64)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Value in (floating) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_secs_f64(1.5).0, 1_500_000_000);
        assert_eq!(Nanos::from_micros(250).0, 250_000);
        assert_eq!(Nanos::from_millis(3).0, 3_000_000);
        assert!((Nanos(1_500_000_000).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(30);
        assert_eq!(a + b, Nanos(130));
        assert_eq!(a - b, Nanos(70));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, Nanos(130));
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Nanos(1) < Nanos(2));
        assert_eq!(Nanos::from_secs_f64(0.0), Nanos::ZERO);
    }

    #[test]
    fn display_in_seconds() {
        assert_eq!(format!("{}", Nanos::from_millis(1500)), "1.500000s");
    }
}
