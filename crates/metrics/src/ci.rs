//! Cross-seed summary statistics: mean, sample stddev, 95% confidence
//! intervals.
//!
//! The sweep orchestrator (prop-experiments `sweep`) runs N independent
//! seeds of an experiment and reduces every headline metric to a
//! [`MetricSummary`]. The CI uses the Student t distribution — seed counts
//! are small (8–32), so the normal 1.96 would understate the interval —
//! and degenerates honestly: one seed has no dispersion estimate, so
//! `ci95` is `None` (serialized as JSON `null`), never `NaN`.

/// Two-sided 95% critical value of the Student t distribution with `df`
/// degrees of freedom. Exact to three decimals for df ≤ 30, then the
/// standard table breakpoints (40/60/120) down to the normal 1.960.
pub fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// One metric across N seeds: mean, sample standard deviation, and the 95%
/// confidence half-width (`mean ± ci95` covers the true mean at 95%).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSummary {
    /// Number of seeds the samples came from.
    pub n: usize,
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator); 0.0 when n < 2.
    pub stddev: f64,
    /// 95% CI half-width, `t(0.975, n−1) · s / √n`; `None` (JSON `null`)
    /// when n < 2 — a single seed carries no dispersion information.
    pub ci95: Option<f64>,
}

prop_engine::json_impl!(ToJson for struct MetricSummary { n, mean, stddev, ci95 });

impl MetricSummary {
    /// Summarize samples (one per seed, in seed order — the fixed order
    /// keeps the floating-point reduction bit-deterministic across runs).
    /// `None` on an empty slice.
    pub fn from_samples(xs: &[f64]) -> Option<MetricSummary> {
        let n = xs.len();
        if n == 0 {
            return None;
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Some(MetricSummary { n, mean, stddev: 0.0, ci95: None });
        }
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        let stddev = var.sqrt();
        let ci95 = t_critical_95(n - 1) * stddev / (n as f64).sqrt();
        Some(MetricSummary { n, mean, stddev, ci95: Some(ci95) })
    }
}

impl std::fmt::Display for MetricSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.ci95 {
            Some(w) => write!(f, "{:.4} ± {:.4} (n={})", self.mean, w, self.n),
            None => write!(f, "{:.4} (n={}, no CI)", self.mean, self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_distribution_fixture() {
        // {1,2,3,4,5}: mean 3, sample variance 2.5, t(0.975, 4) = 2.776.
        let s = MetricSummary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.stddev - 2.5f64.sqrt()).abs() < 1e-12);
        let expect = 2.776 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((s.ci95.unwrap() - expect).abs() < 1e-9, "{:?}", s.ci95);
    }

    #[test]
    fn single_seed_emits_null_ci_not_nan() {
        let s = MetricSummary::from_samples(&[7.25]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.25);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, None);
        assert!(!s.mean.is_nan() && !s.stddev.is_nan());
        // The JSON form must carry an explicit null, not NaN (which JSON
        // cannot express).
        let json = prop_engine::json::to_string(&s);
        assert!(json.contains("\"ci95\":null"), "{json}");
    }

    #[test]
    fn empty_samples_are_none() {
        assert_eq!(MetricSummary::from_samples(&[]), None);
    }

    #[test]
    fn identical_samples_have_zero_width() {
        let s = MetricSummary::from_samples(&[4.0; 8]).unwrap();
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, Some(0.0));
    }

    #[test]
    fn t_table_shape() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(7) - 2.365).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        assert_eq!(t_critical_95(35), 2.021);
        assert_eq!(t_critical_95(50), 2.000);
        assert_eq!(t_critical_95(100), 1.980);
        assert_eq!(t_critical_95(1000), 1.960);
        assert_eq!(t_critical_95(0), f64::INFINITY);
        // Monotone non-increasing toward the normal limit.
        for df in 1..200 {
            assert!(t_critical_95(df) >= t_critical_95(df + 1));
            assert!(t_critical_95(df) >= 1.960);
        }
    }

    #[test]
    fn two_seeds_use_df_one() {
        let s = MetricSummary::from_samples(&[1.0, 3.0]).unwrap();
        // s = √2, ci = 12.706 · √2 / √2 = 12.706.
        assert!((s.ci95.unwrap() - 12.706).abs() < 1e-9);
    }
}
