//! Poisson churn traces.
//!
//! The paper's dynamic-environment claim: PROP "is adaptive to dynamic
//! change of peers" — after churn the probe frequency spikes (timers reset)
//! and then decays again. A churn trace is a timestamped sequence of
//! leave/join operations; the experiment layer applies each to the overlay
//! and notifies the protocol driver.

use prop_engine::{Duration, SimRng, SimTime};

/// One churn operation. Victims/joiners are resolved at apply time (the
/// population changes as the trace plays), so the trace only carries kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnOp {
    /// A uniformly random live peer departs.
    Leave,
    /// A previously departed (or fresh) peer joins.
    Join,
}

/// A timestamped churn schedule.
#[derive(Clone, Debug, Default)]
pub struct ChurnTrace {
    pub events: Vec<(SimTime, ChurnOp)>,
}

impl ChurnTrace {
    /// A Poisson trace over `[start, start + window)` with independent
    /// leave/join processes of the given rates (events per minute).
    /// Leaves and joins alternate fairly on average, keeping the population
    /// roughly stable when the rates match.
    ///
    /// Arrival sampling routes through the shared
    /// [`crate::traffic::process::poisson_train`] process — same
    /// `"churn-trace"` fork and draw order as the original hand-rolled
    /// loop, so traces are bit-identical to every prior release
    /// (regression-pinned in `tests/traffic.rs`).
    pub fn poisson(
        start: SimTime,
        window: Duration,
        leaves_per_min: f64,
        joins_per_min: f64,
        rng: &mut SimRng,
    ) -> Self {
        let mut rng = rng.fork("churn-trace");
        let mut events = Vec::new();
        for (rate, op) in [(leaves_per_min, ChurnOp::Leave), (joins_per_min, ChurnOp::Join)] {
            for t in crate::traffic::process::poisson_train(start, window, rate, &mut rng) {
                events.push((t, op));
            }
        }
        events.sort_by_key(|&(t, _)| t);
        ChurnTrace { events }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_time_ordered_and_bounded() {
        let mut rng = SimRng::seed_from(1);
        let start = SimTime::ZERO + Duration::from_minutes(10);
        let window = Duration::from_minutes(30);
        let trace = ChurnTrace::poisson(start, window, 2.0, 2.0, &mut rng);
        for w in trace.events.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for &(t, _) in &trace.events {
            assert!(t >= start && t.since(start) < window);
        }
    }

    #[test]
    fn rates_roughly_respected() {
        let mut rng = SimRng::seed_from(2);
        let trace =
            ChurnTrace::poisson(SimTime::ZERO, Duration::from_minutes(1000), 3.0, 1.0, &mut rng);
        let leaves = trace.events.iter().filter(|&&(_, op)| op == ChurnOp::Leave).count();
        let joins = trace.len() - leaves;
        let leave_rate = leaves as f64 / 1000.0;
        let join_rate = joins as f64 / 1000.0;
        assert!((leave_rate - 3.0).abs() < 0.3, "leave rate {leave_rate}");
        assert!((join_rate - 1.0).abs() < 0.2, "join rate {join_rate}");
    }

    #[test]
    fn zero_rate_means_no_events() {
        let mut rng = SimRng::seed_from(3);
        let trace =
            ChurnTrace::poisson(SimTime::ZERO, Duration::from_minutes(60), 0.0, 0.0, &mut rng);
        assert!(trace.is_empty());
    }
}
