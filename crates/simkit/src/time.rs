//! Virtual simulation time.

use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or span of) virtual time, in seconds.
///
/// `SimTime` wraps a non-negative, finite `f64` and provides a total order,
/// so it can live inside ordered collections such as the event queue.
///
/// # Example
///
/// ```
/// use simkit::SimTime;
///
/// let t = SimTime::from_secs(1.5) + SimTime::from_millis(500.0);
/// assert_eq!(t.as_secs(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or infinite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime(secs)
    }

    /// Creates a time from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        SimTime::from_secs(ms / 1e3)
    }

    /// Creates a time from microseconds.
    pub fn from_micros(us: f64) -> Self {
        SimTime::from_secs(us / 1e6)
    }

    /// The value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The value in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// Saturating subtraction: returns zero instead of going negative.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }
}

impl Eq for SimTime {}

// SimTime is always finite (checked at construction), so f64 comparison is
// total over the values that can exist.
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is always finite")
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if the result would be negative; use
    /// [`SimTime::saturating_sub`] when underflow is expected.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 60.0 {
            write!(f, "{:.2}min", self.0 / 60.0)
        } else if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else {
            write!(f, "{:.3}ms", self.0 * 1e3)
        }
    }
}

impl std::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_units() {
        let t = SimTime::from_millis(1500.0);
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!((t + t).as_secs(), 3.0);
        assert_eq!((t - SimTime::from_secs(0.5)).as_secs(), 1.0);
        assert_eq!((t * 2.0).as_secs(), 3.0);
        assert_eq!((t / 3.0).as_secs(), 0.5);
        assert_eq!(SimTime::from_micros(2500.0).as_millis(), 2.5);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::ZERO,
            SimTime::from_secs(1.0),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(3.0));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a), SimTime::from_secs(1.0));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_secs(120.0).to_string(), "2.00min");
        assert_eq!(SimTime::from_secs(2.5).to_string(), "2.500s");
        assert_eq!(SimTime::from_millis(1.5).to_string(), "1.500ms");
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(|i| SimTime::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }
}
