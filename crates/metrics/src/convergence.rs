//! Convergence-time summaries.
//!
//! The paper's figures all show the same qualitative arc: a steep drop
//! through warm-up, then a long flat tail. These helpers turn a sampled
//! [`TimeSeries`] into the two numbers worth quoting: *how much* it
//! converged to, and *how fast* it got (most of the way) there.

use crate::timeseries::TimeSeries;

/// Convergence summary of a falling time series.
#[derive(Clone, Copy, Debug)]
pub struct Convergence {
    /// First sample value.
    pub initial: f64,
    /// Final sample value.
    pub final_: f64,
    /// Total relative improvement `(initial − final) / initial`.
    pub improvement: f64,
    /// Minutes until the series first achieved 90% of its total
    /// improvement (`None` if it never improved).
    pub t90_minutes: Option<f64>,
    /// Largest upward excursion between consecutive samples, relative to
    /// the initial value — quantifies the paper's "stretch is not reduced
    /// all the time".
    pub max_regression: f64,
}

/// Analyze a series (assumed sampled at increasing times).
pub fn convergence(ts: &TimeSeries) -> Option<Convergence> {
    let first = ts.first_value()?;
    let last = ts.last_value()?;
    if first == 0.0 {
        return None;
    }
    let improvement = (first - last) / first;
    let target = first - 0.9 * (first - last);
    let t90_minutes = (last < first)
        .then(|| ts.points.iter().find(|&&(_, v)| v <= target).map(|&(t, _)| t))
        .flatten();
    let mut max_regression = 0.0f64;
    for w in ts.points.windows(2) {
        let up = (w[1].1 - w[0].1) / first;
        max_regression = max_regression.max(up);
    }
    Some(Convergence { initial: first, final_: last, improvement, t90_minutes, max_regression })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engine::{Duration, SimTime};

    fn series(vals: &[f64]) -> TimeSeries {
        let mut ts = TimeSeries::new("t");
        let mut t = SimTime::ZERO;
        for &v in vals {
            ts.push(t, v);
            t += Duration::from_minutes(10);
        }
        ts
    }

    #[test]
    fn clean_descent() {
        let c = convergence(&series(&[100.0, 60.0, 52.0, 50.0])).unwrap();
        assert_eq!(c.initial, 100.0);
        assert_eq!(c.final_, 50.0);
        assert!((c.improvement - 0.5).abs() < 1e-12);
        // 90% of the 50-point drop = reach 55; first sample ≤ 55 is 52.0
        // at minute 20.
        assert_eq!(c.t90_minutes, Some(20.0));
        assert_eq!(c.max_regression, 0.0);
    }

    #[test]
    fn regression_is_captured() {
        let c = convergence(&series(&[100.0, 70.0, 85.0, 60.0])).unwrap();
        assert!((c.max_regression - 0.15).abs() < 1e-12);
        assert!(c.t90_minutes.is_some());
    }

    #[test]
    fn non_improving_series() {
        let c = convergence(&series(&[50.0, 55.0, 60.0])).unwrap();
        assert!(c.improvement < 0.0);
        assert_eq!(c.t90_minutes, None);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(convergence(&TimeSeries::new("empty")).is_none());
        assert!(convergence(&series(&[0.0, 1.0])).is_none());
    }

    #[test]
    fn single_point_series() {
        let c = convergence(&series(&[42.0])).unwrap();
        assert_eq!(c.improvement, 0.0);
        assert_eq!(c.t90_minutes, None);
        assert_eq!(c.max_regression, 0.0);
    }
}
