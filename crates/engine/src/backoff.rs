//! The paper's probe-interval controller (§3.2).
//!
//! Each peer contacts a random node every `timer` interval. The interval
//! follows a Markov-chain-inspired rule:
//!
//! * after a **failed** peer-exchange attempt the timer **doubles**;
//! * after a **successful** exchange it resets to `INIT_TIMER`;
//! * once it would exceed `MAX_TIMER = 2⁵ · INIT_TIMER` it also resets to
//!   `INIT_TIMER` (the paper: "there are at most five times of suspending");
//! * on **churn** (a neighbor departed or a new one arrived) it resets to
//!   `INIT_TIMER` so the peer re-optimizes promptly.
//!
//! The net effect: a stable, well-placed peer probes exponentially less
//! often, while the cycle through `MAX_TIMER` guarantees it never stops
//! probing entirely.

use crate::time::Duration;

/// Outcome of one probe trial, as seen by the timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The peer-exchange happened (`Var > MIN_VAR`).
    Exchanged,
    /// The trial completed but no beneficial exchange was found.
    NoGain,
}

/// The exponential-backoff probe timer.
///
/// ```
/// use prop_engine::{MarkovTimer, Duration};
/// use prop_engine::backoff::TrialOutcome;
///
/// let mut t = MarkovTimer::new(Duration::from_minutes(1));
/// t.record(TrialOutcome::NoGain);
/// t.record(TrialOutcome::NoGain);
/// assert_eq!(t.current(), Duration::from_minutes(4)); // doubled twice
/// t.record(TrialOutcome::Exchanged);
/// assert_eq!(t.current(), Duration::from_minutes(1)); // reset on success
/// ```
#[derive(Clone, Debug)]
pub struct MarkovTimer {
    init: Duration,
    max: Duration,
    current: Duration,
}

impl MarkovTimer {
    /// Maximum timer as a multiple of the initial timer: `2⁵` per the paper
    /// ("MAX_TIMER = 2⁵ · INIT_TIMER").
    pub const MAX_FACTOR: u64 = 32;

    /// A timer at `init` with the paper's ceiling `max = 32 · init`.
    pub fn new(init: Duration) -> Self {
        assert!(init > Duration::ZERO, "INIT_TIMER must be positive");
        let max = Duration(init.0.saturating_mul(Self::MAX_FACTOR));
        MarkovTimer { init, max, current: init }
    }

    /// The interval to wait before the *next* probe.
    #[inline]
    pub fn current(&self) -> Duration {
        self.current
    }

    /// Record a trial outcome and update the interval.
    pub fn record(&mut self, outcome: TrialOutcome) {
        match outcome {
            TrialOutcome::Exchanged => self.reset(),
            TrialOutcome::NoGain => {
                let doubled = self.current.double();
                // "if Timer ≥ MAX_TIMER, it will also be set as INIT_TIMER"
                if doubled > self.max {
                    self.reset();
                } else {
                    self.current = doubled;
                }
            }
        }
    }

    /// Reset on success, churn or wrap: interval back to `INIT_TIMER`.
    pub fn reset(&mut self) {
        self.current = self.init;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minutes(m: u64) -> Duration {
        Duration::from_minutes(m)
    }

    #[test]
    fn doubles_on_failure() {
        let mut t = MarkovTimer::new(minutes(1));
        assert_eq!(t.current(), minutes(1));
        t.record(TrialOutcome::NoGain);
        assert_eq!(t.current(), minutes(2));
        t.record(TrialOutcome::NoGain);
        assert_eq!(t.current(), minutes(4));
    }

    #[test]
    fn resets_on_success() {
        let mut t = MarkovTimer::new(minutes(1));
        for _ in 0..3 {
            t.record(TrialOutcome::NoGain);
        }
        assert_eq!(t.current(), minutes(8));
        t.record(TrialOutcome::Exchanged);
        assert_eq!(t.current(), minutes(1));
    }

    #[test]
    fn wraps_at_max_after_five_suspensions() {
        // init=1min, max=32min: intervals go 1,2,4,8,16,32 then wrap to 1.
        let mut t = MarkovTimer::new(minutes(1));
        let mut seen = vec![t.current().as_millis() / 60_000];
        for _ in 0..6 {
            t.record(TrialOutcome::NoGain);
            seen.push(t.current().as_millis() / 60_000);
        }
        assert_eq!(seen, vec![1, 2, 4, 8, 16, 32, 1]);
    }

    #[test]
    fn churn_reset_clears_everything() {
        let mut t = MarkovTimer::new(minutes(1));
        t.record(TrialOutcome::NoGain);
        t.record(TrialOutcome::NoGain);
        t.reset();
        assert_eq!(t.current(), minutes(1));
    }

    #[test]
    #[should_panic(expected = "INIT_TIMER must be positive")]
    fn zero_init_rejected() {
        let _ = MarkovTimer::new(Duration::ZERO);
    }
}
