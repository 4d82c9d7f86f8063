//! Lookup-pair generators.
//!
//! A lookup is "peer `src` retrieves an object held by peer `dst`". The
//! Gnutella experiments average "1\[0,000\] lookup operations"; the Fig. 7
//! experiment skews destinations toward fast nodes with a controllable
//! fraction.

use prop_engine::SimRng;
use prop_overlay::Slot;

/// Deterministic lookup-pair generator over a fixed live-slot population.
pub struct LookupGen {
    rng: SimRng,
}

impl LookupGen {
    /// A generator with its own derived stream, so drawing lookups never
    /// perturbs protocol randomness.
    pub fn new(rng: &SimRng) -> Self {
        LookupGen { rng: rng.fork("lookup-gen") }
    }

    /// `count` uniform (src, dst) pairs with `src != dst`, both live.
    pub fn uniform_pairs(&mut self, live: &[Slot], count: usize) -> Vec<(Slot, Slot)> {
        assert!(live.len() >= 2, "need at least two live slots");
        (0..count)
            .map(|_| {
                let src = *self.rng.pick(live).unwrap();
                loop {
                    let dst = *self.rng.pick(live).unwrap();
                    if dst != src {
                        return (src, dst);
                    }
                }
            })
            .collect()
    }

    /// `count` pairs whose destination is a *fast* slot with probability
    /// `frac_fast` and a *slow* slot otherwise (the Fig. 7 workload).
    /// Sources are uniform. `is_fast` is indexed by slot.
    pub fn skewed_pairs(
        &mut self,
        live: &[Slot],
        is_fast: impl Fn(Slot) -> bool,
        frac_fast: f64,
        count: usize,
    ) -> Vec<(Slot, Slot)> {
        let fast: Vec<Slot> = live.iter().copied().filter(|&s| is_fast(s)).collect();
        let slow: Vec<Slot> = live.iter().copied().filter(|&s| !is_fast(s)).collect();
        assert!(!fast.is_empty() && !slow.is_empty(), "need both classes populated");
        (0..count)
            .map(|_| {
                let pool = if self.rng.chance(frac_fast) { &fast } else { &slow };
                loop {
                    let src = *self.rng.pick(live).unwrap();
                    let dst = *self.rng.pick(pool).unwrap();
                    if src != dst {
                        return (src, dst);
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(n: u32) -> Vec<Slot> {
        (0..n).map(Slot).collect()
    }

    #[test]
    fn uniform_pairs_are_valid() {
        let mut g = LookupGen::new(&SimRng::seed_from(1));
        let pool = live(20);
        let pairs = g.uniform_pairs(&pool, 500);
        assert_eq!(pairs.len(), 500);
        for (s, d) in pairs {
            assert_ne!(s, d);
            assert!(pool.contains(&s) && pool.contains(&d));
        }
    }

    #[test]
    fn uniform_pairs_cover_the_population() {
        let mut g = LookupGen::new(&SimRng::seed_from(2));
        let pool = live(10);
        let pairs = g.uniform_pairs(&pool, 2000);
        let mut seen = [false; 10];
        for (s, d) in pairs {
            seen[s.index()] = true;
            seen[d.index()] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn skew_fraction_respected() {
        let mut g = LookupGen::new(&SimRng::seed_from(3));
        let pool = live(50);
        // Slots 0..10 are fast.
        let is_fast = |s: Slot| s.0 < 10;
        for &frac in &[0.0, 0.5, 1.0] {
            let pairs = g.skewed_pairs(&pool, is_fast, frac, 4000);
            let hits = pairs.iter().filter(|&&(_, d)| is_fast(d)).count() as f64 / 4000.0;
            assert!((hits - frac).abs() < 0.03, "frac {frac}: observed {hits}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let pool = live(30);
        let a = LookupGen::new(&SimRng::seed_from(4)).uniform_pairs(&pool, 100);
        let b = LookupGen::new(&SimRng::seed_from(4)).uniform_pairs(&pool, 100);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn skew_requires_both_classes() {
        let mut g = LookupGen::new(&SimRng::seed_from(5));
        let pool = live(10);
        let _ = g.skewed_pairs(&pool, |_| true, 0.5, 10);
    }
}
