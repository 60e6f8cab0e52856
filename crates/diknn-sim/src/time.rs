//! Simulated time.
//!
//! The clock is an integer number of nanoseconds. Integer time makes event
//! ordering exact and runs reproducible: two events never compare "almost
//! equal", and accumulating many small MAC delays cannot drift the way `f64`
//! sums do.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0 && secs.is_finite(), "invalid time {secs}");
        SimTime((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Duration elapsed since `earlier` (saturating at zero).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0 && secs.is_finite(), "invalid duration {secs}");
        SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Airtime of `bytes` at `bits_per_sec` on the channel.
    #[inline]
    pub fn airtime(bytes: usize, bits_per_sec: u64) -> Self {
        debug_assert!(bits_per_sec > 0);
        let bits = bytes as u64 * 8;
        SimDuration(bits * NANOS_PER_SEC / bits_per_sec)
    }

    #[inline]
    pub fn mul_f64(self, f: f64) -> Self {
        debug_assert!(f >= 0.0 && f.is_finite());
        SimDuration((self.0 as f64 * f).round() as u64)
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

impl Sub for SimTime {
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

impl diknn_snap::Snap for SimTime {
    fn snap(&self, w: &mut diknn_snap::SnapWriter) {
        w.put_u64(self.0);
    }
    fn unsnap(r: &mut diknn_snap::SnapReader<'_>) -> Result<Self, diknn_snap::SnapError> {
        Ok(SimTime(r.take_u64()?))
    }
}

impl diknn_snap::Snap for SimDuration {
    fn snap(&self, w: &mut diknn_snap::SnapWriter) {
        w.put_u64(self.0);
    }
    fn unsnap(r: &mut diknn_snap::SnapReader<'_>) -> Result<Self, diknn_snap::SnapError> {
        Ok(SimDuration(r.take_u64()?))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_round_trip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs_f64(2.0) + SimDuration::from_millis(250);
        assert!((t.as_secs_f64() - 2.25).abs() < 1e-12);
        let d = t - SimTime::from_secs_f64(2.0);
        assert_eq!(d, SimDuration::from_millis(250));
        // Saturating subtraction.
        assert_eq!(SimTime::ZERO - t, SimDuration::ZERO);
    }

    #[test]
    fn airtime_at_250kbps() {
        // 250 kbps, 125 bytes = 1000 bits -> 4 ms.
        let d = SimDuration::airtime(125, 250_000);
        assert_eq!(d, SimDuration::from_millis(4));
    }

    #[test]
    fn ordering_is_exact() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(11);
        assert!(a < b);
        assert_eq!(a + SimDuration::from_nanos(1), b);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(10).mul_f64(2.5);
        assert_eq!(d, SimDuration::from_micros(25_000));
    }
}
