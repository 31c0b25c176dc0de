//! Simulated-time units.
//!
//! The executor charges plans in simulated milliseconds rather than
//! wall-clock time (see DESIGN.md §1), so latency arithmetic throughout the
//! workspace uses this newtype instead of `std::time::Duration`. Simulated
//! durations are plain `f64` milliseconds under the hood: cheap to copy,
//! exact enough for cost accounting, and trivially serializable.

use crate::json::{FromJson, Json, ToJson};
use crate::Result;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, stored as fractional milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl ToJson for SimDuration {
    fn to_json(&self) -> Json {
        Json::F(self.0)
    }
}

impl FromJson for SimDuration {
    fn from_json(j: &Json) -> Result<Self> {
        f64::from_json(j).map(SimDuration)
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0.0);

    pub fn from_ms(ms: f64) -> Self {
        SimDuration(ms)
    }

    pub fn from_secs(s: f64) -> Self {
        SimDuration(s * 1_000.0)
    }

    pub fn as_ms(self) -> f64 {
        self.0
    }

    pub fn as_secs(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Hours, convenient for dollar-cost accounting ($/hour VM pricing).
    pub fn as_hours(self) -> f64 {
        self.0 / 3_600_000.0
    }

    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let d = SimDuration::from_secs(2.5);
        assert!((d.as_ms() - 2_500.0).abs() < 1e-9);
        assert!((d.as_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_ms(10.0);
        let b = SimDuration::from_ms(5.0);
        assert_eq!((a + b).as_ms(), 15.0);
        assert_eq!((a - b).as_ms(), 5.0);
        assert_eq!((a * 3.0).as_ms(), 30.0);
        assert_eq!((a / 2.0).as_ms(), 5.0);
        let total: SimDuration = vec![a, b, b].into_iter().sum();
        assert_eq!(total.as_ms(), 20.0);
    }

    #[test]
    fn hours_for_billing() {
        let d = SimDuration::from_secs(1_800.0);
        assert!((d.as_hours() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(SimDuration::from_ms(1.0) < SimDuration::from_ms(2.0));
        assert_eq!(
            SimDuration::from_ms(1.0).max(SimDuration::from_ms(2.0)),
            SimDuration::from_ms(2.0)
        );
    }
}
