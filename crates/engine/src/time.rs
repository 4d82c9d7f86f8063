//! Simulated time.
//!
//! The paper works in two time scales: link latencies of a few to a few
//! hundred *milliseconds*, and probe timers of *minutes* (`INIT_TIMER` is one
//! minute, `MAX_TIMER` is 2⁵ minutes). A `u64` millisecond counter covers
//! both with ~585 million years of headroom, and — unlike `f64` seconds —
//! makes event ordering exact and platform-independent.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An instant on the simulated clock, in milliseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in milliseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Milliseconds since the epoch.
    #[inline]
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional minutes since the epoch — the unit of the paper's x-axes.
    #[inline]
    pub fn as_minutes_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// Elapsed time since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Index of the `width`-wide time bucket containing this instant.
    /// Buckets tile the clock as half-open intervals
    /// `[k·width, (k+1)·width)`; generators that derive one RNG stream per
    /// bucket (`SimRng::fork_indexed`) use this so event generation is a
    /// pure function of the bucket, independent of generation order.
    #[inline]
    pub fn bucket(self, width: Duration) -> u64 {
        debug_assert!(width.0 > 0, "bucket width must be positive");
        self.0 / width.0.max(1)
    }

    /// Start of bucket `index` under `width`-wide tiling (inverse of
    /// [`SimTime::bucket`] at bucket boundaries).
    #[inline]
    pub fn bucket_start(index: u64, width: Duration) -> SimTime {
        SimTime(index.saturating_mul(width.0))
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    /// Build a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms)
    }

    /// Build a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1000)
    }

    /// Build a duration from whole minutes (the paper's timer unit).
    #[inline]
    pub const fn from_minutes(m: u64) -> Duration {
        Duration(m * 60_000)
    }

    #[inline]
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Saturating doubling — used by the Markov backoff timer.
    #[inline]
    pub fn double(self) -> Duration {
        Duration(self.0.saturating_mul(2))
    }
}

/// Saturating: an instant past the clock's range is the end of time, so a
/// delay no run can reach schedules an event that never fires.
impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

/// Milliseconds of overlap between the half-open window `[start, end)` and
/// the elapsed interval `[ZERO, upto)` — the building block for accounting
/// how long a scheduled condition (a partition, a crash) has been active as
/// of `upto`. Degenerate windows (`end <= start`) overlap nothing.
#[inline]
pub fn window_overlap_ms(start: SimTime, end: SimTime, upto: SimTime) -> u64 {
    let end = end.0.min(upto.0);
    end.saturating_sub(start.0)
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}min", self.as_minutes_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_secs(2), Duration::from_millis(2000));
        assert_eq!(Duration::from_minutes(1), Duration::from_secs(60));
    }

    #[test]
    fn advancing_the_clock() {
        let mut t = SimTime::ZERO;
        t += Duration::from_secs(1);
        assert_eq!(t.as_millis(), 1000);
        let t2 = t + Duration::from_minutes(1);
        assert_eq!(t2 - t, Duration::from_minutes(1));
    }

    #[test]
    fn since_saturates() {
        let early = SimTime(10);
        let late = SimTime(50);
        assert_eq!(late.since(early), Duration(40));
        assert_eq!(early.since(late), Duration::ZERO);
    }

    #[test]
    fn doubling_saturates() {
        assert_eq!(Duration(3).double(), Duration(6));
        assert_eq!(Duration(u64::MAX).double(), Duration(u64::MAX));
    }

    #[test]
    fn minutes_axis_conversion() {
        let t = SimTime::ZERO + Duration::from_secs(90);
        assert!((t.as_minutes_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime(5) < SimTime(6));
        assert!(Duration(100) > Duration(99));
    }

    #[test]
    fn buckets_tile_the_clock_half_open() {
        let w = Duration::from_minutes(5);
        assert_eq!(SimTime::ZERO.bucket(w), 0);
        assert_eq!(SimTime(w.0 - 1).bucket(w), 0);
        assert_eq!(SimTime(w.0).bucket(w), 1);
        assert_eq!(SimTime::bucket_start(3, w), SimTime(3 * w.0));
        assert_eq!(SimTime::bucket_start(3, w).bucket(w), 3);
    }

    #[test]
    fn window_overlap_cases() {
        // Fully elapsed window.
        assert_eq!(window_overlap_ms(SimTime(10), SimTime(30), SimTime(100)), 20);
        // Still-open window: counts only up to `upto`.
        assert_eq!(window_overlap_ms(SimTime(10), SimTime(30), SimTime(20)), 10);
        // Not yet started.
        assert_eq!(window_overlap_ms(SimTime(50), SimTime(60), SimTime(20)), 0);
        // Degenerate window.
        assert_eq!(window_overlap_ms(SimTime(30), SimTime(30), SimTime(100)), 0);
    }
}
