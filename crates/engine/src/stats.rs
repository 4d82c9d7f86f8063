//! Small statistics helpers shared by the metrics and experiment crates.

/// Online mean/variance accumulator (Welford's algorithm).
///
/// Used for every averaged metric in the evaluation; numerically stable even
/// over millions of samples, and mergeable so accumulators filled apart can
/// be combined.
#[derive(Clone, Copy, Debug, Default)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    pub fn new() -> Self {
        Accumulator { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (Chan et al. parallel update).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance; `NaN` when empty.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Exact percentile over a full sample set (nearest-rank definition).
///
/// `q` in `[0, 1]`. Returns `None` on an empty slice. Sorts a copy: callers
/// in this workspace hold at most a few hundred thousand samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Mean of a slice; `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = Accumulator::new();
        for &x in &xs {
            acc.add(x);
        }
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        assert!((acc.variance() - 4.0).abs() < 1e-12);
        assert!((acc.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
    }

    #[test]
    fn empty_accumulator_is_nan() {
        let acc = Accumulator::new();
        assert!(acc.mean().is_nan());
        assert!(acc.variance().is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Accumulator::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &xs[..317] {
            left.add(x);
        }
        for &x in &xs[317..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Accumulator::new();
        a.add(3.0);
        let before = a.mean();
        a.merge(&Accumulator::new());
        assert_eq!(a.mean(), before);

        let mut e = Accumulator::new();
        e.merge(&a);
        assert_eq!(e.mean(), before);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.30), Some(20.0));
        assert_eq!(percentile(&xs, 0.40), Some(20.0));
        assert_eq!(percentile(&xs, 0.50), Some(35.0));
        assert_eq!(percentile(&xs, 1.00), Some(50.0));
        assert_eq!(percentile(&xs, 0.00), Some(15.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn mean_helper() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
    }
}
