//! Labelled time series — the stuff of every figure.

use prop_engine::SimTime;

/// A named series of (simulated minutes, value) points.
///
/// ```
/// use prop_metrics::TimeSeries;
/// use prop_engine::{SimTime, Duration};
///
/// let mut ts = TimeSeries::new("stretch");
/// ts.push(SimTime::ZERO, 8.0);
/// ts.push(SimTime::ZERO + Duration::from_minutes(30), 4.0);
/// assert_eq!(ts.improvement(), Some(0.5)); // halved
/// ```
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    pub label: String,
    pub points: Vec<(f64, f64)>,
}

prop_engine::json_impl!(ToJson, FromJson for struct TimeSeries { label, points });

impl TimeSeries {
    pub fn new(label: impl Into<String>) -> Self {
        TimeSeries { label: label.into(), points: Vec::new() }
    }

    /// Append a sample taken at `t`.
    pub fn push(&mut self, t: SimTime, value: f64) {
        self.points.push((t.as_minutes_f64(), value));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn first_value(&self) -> Option<f64> {
        self.points.first().map(|&(_, v)| v)
    }

    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    pub fn min_value(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).min_by(|a, b| a.total_cmp(b))
    }

    /// Relative improvement from the first to the last sample:
    /// `(first − last) / first`. The summary number quoted per curve in
    /// EXPERIMENTS.md.
    pub fn improvement(&self) -> Option<f64> {
        let first = self.first_value()?;
        let last = self.last_value()?;
        (first != 0.0).then(|| (first - last) / first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engine::Duration;

    fn series() -> TimeSeries {
        let mut ts = TimeSeries::new("test");
        let mut t = SimTime::ZERO;
        for v in [10.0, 8.0, 6.0, 5.0] {
            ts.push(t, v);
            t += Duration::from_minutes(5);
        }
        ts
    }

    #[test]
    fn push_converts_to_minutes() {
        let ts = series();
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.points[1].0, 5.0);
        assert_eq!(ts.points[3].0, 15.0);
    }

    #[test]
    fn improvement_is_relative_drop() {
        let ts = series();
        assert!((ts.improvement().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_and_endpoints() {
        let ts = series();
        assert_eq!(ts.first_value(), Some(10.0));
        assert_eq!(ts.last_value(), Some(5.0));
        assert_eq!(ts.min_value(), Some(5.0));
    }

    #[test]
    fn empty_series_is_none() {
        let ts = TimeSeries::new("empty");
        assert!(ts.is_empty());
        assert_eq!(ts.improvement(), None);
        assert_eq!(ts.min_value(), None);
    }

    #[test]
    fn json_roundtrip() {
        let ts = series();
        let json = prop_engine::json::to_string(&ts);
        let back: TimeSeries = prop_engine::json::from_str(&json).unwrap();
        assert_eq!(back.points, ts.points);
        assert_eq!(back.label, "test");
    }
}
