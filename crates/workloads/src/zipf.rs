//! Zipf-distributed object popularity.
//!
//! File-sharing request streams are famously Zipf-like: a few objects draw
//! most lookups. Combined with the observation that popular content sits
//! on the well-provisioned peers, this concentrates destinations exactly
//! the way Fig. 7's "fraction of fast lookups" knob abstracts — a Zipf
//! destination workload is the mechanistic version of that experiment.

use prop_engine::SimRng;
use prop_overlay::Slot;

/// A Zipf(α) sampler over ranks `0..n` (rank 0 most popular), using the
/// classic inverse-CDF over precomputed cumulative weights.
///
/// ```
/// use prop_workloads::zipf::Zipf;
/// let z = Zipf::new(100, 1.0);
/// // Rank 0 carries far more mass than rank 99.
/// assert!(z.pmf(0) > 50.0 * z.pmf(99));
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build for `n` ranks with exponent `alpha` (α = 0 is uniform; web
    /// and P2P traces are usually α ∈ [0.6, 1.2]).
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0);
        assert!(alpha >= 0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = *cdf.last().unwrap();
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `r`.
    pub fn pmf(&self, r: usize) -> f64 {
        let lo = if r == 0 { 0.0 } else { self.cdf[r - 1] };
        self.cdf[r] - lo
    }
}

/// A lookup workload whose destinations follow Zipf popularity over a
/// ranked list of holder slots (`ranking[0]` = the most popular object's
/// holder). Sources are uniform.
///
/// Sampling routes through a shift-free
/// [`crate::traffic::PopularityProcess`] — same `"zipf-pairs"` fork and
/// draw order as the original hand-rolled loop, so workloads are
/// bit-identical to every prior release (regression-pinned in
/// `tests/traffic.rs`).
pub fn zipf_pairs(
    live: &[Slot],
    ranking: &[Slot],
    alpha: f64,
    count: usize,
    rng: &mut SimRng,
) -> Vec<(Slot, Slot)> {
    assert!(live.len() >= 2 && !ranking.is_empty());
    let process = crate::traffic::PopularityProcess::constant(ranking.len() as u32, alpha);
    let mut rng = rng.fork("zipf-pairs");
    process.pairs_at(0, live, ranking, count, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 0.8);
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_ranks_are_less_likely() {
        let z = Zipf::new(50, 1.0);
        for r in 1..50 {
            assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
        // Rank 0 of Zipf(1) over 50 ≈ 1/H_50 ≈ 0.222.
        assert!((z.pmf(0) - 0.2228).abs() < 0.01, "pmf(0) = {}", z.pmf(0));
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = Zipf::new(20, 1.0);
        let mut rng = SimRng::seed_from(1);
        let n = 100_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            let observed = count as f64 / n as f64;
            assert!(
                (observed - z.pmf(r)).abs() < 0.01,
                "rank {r}: observed {observed:.4} vs pmf {:.4}",
                z.pmf(r)
            );
        }
    }

    #[test]
    fn zipf_pairs_concentrate_on_top_ranks() {
        let live: Vec<Slot> = (0..50).map(Slot).collect();
        let ranking: Vec<Slot> = (0..50).map(Slot).collect();
        let mut rng = SimRng::seed_from(2);
        let pairs = zipf_pairs(&live, &ranking, 1.0, 10_000, &mut rng);
        let top5 = pairs.iter().filter(|&&(_, d)| d.0 < 5).count() as f64 / 10_000.0;
        assert!(top5 > 0.4, "top-5 share {top5}");
        for (s, d) in pairs {
            assert_ne!(s, d);
        }
    }

    #[test]
    fn deterministic() {
        let live: Vec<Slot> = (0..20).map(Slot).collect();
        let a = zipf_pairs(&live, &live, 0.9, 100, &mut SimRng::seed_from(3));
        let b = zipf_pairs(&live, &live, 0.9, 100, &mut SimRng::seed_from(3));
        assert_eq!(a, b);
    }
}
