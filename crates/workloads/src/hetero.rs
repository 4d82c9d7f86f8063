//! Bimodal node heterogeneity (§5.3).
//!
//! "There are two kinds of nodes — fast and slow. The processing delay of
//! the fast nodes is 1\[0\] ms, while the delay of the slow ones is \[100\] ms.
//! The fraction of fast nodes is \[20\]% of the total population" (defaults
//! reconstructed per DESIGN.md §3; the setting follows Dabek et al.'s
//! bimodal distribution). Total lookup delay = link delay + per-hop
//! processing delay, so fast nodes model powerful, well-provisioned peers.

use prop_engine::SimRng;

/// The bimodal processing-delay distribution.
#[derive(Clone, Copy, Debug)]
pub struct BimodalParams {
    pub fast_delay_ms: u32,
    pub slow_delay_ms: u32,
    /// Fraction of peers that are fast, in `[0, 1]`.
    pub fast_fraction: f64,
}

impl Default for BimodalParams {
    fn default() -> Self {
        BimodalParams { fast_delay_ms: 10, slow_delay_ms: 100, fast_fraction: 0.2 }
    }
}

/// Per-peer assignment drawn from the bimodal distribution.
#[derive(Clone, Debug)]
pub struct HeteroAssignment {
    /// Processing delay per peer (indexed by member index).
    pub delay_ms: Vec<u32>,
    /// Class per peer.
    pub is_fast: Vec<bool>,
}

impl HeteroAssignment {
    pub fn num_fast(&self) -> usize {
        self.is_fast.iter().filter(|&&f| f).count()
    }
}

/// Assign exactly `round(n · fast_fraction)` fast peers, the rest slow
/// (exact counts, not Bernoulli, so every seed hits the configured mix).
pub fn assign(params: &BimodalParams, n: usize, rng: &mut SimRng) -> HeteroAssignment {
    assert!((0.0..=1.0).contains(&params.fast_fraction));
    let n_fast = ((n as f64) * params.fast_fraction).round() as usize;
    let mut order: Vec<usize> = (0..n).collect();
    rng.fork("hetero-assign").shuffle(&mut order);
    let mut is_fast = vec![false; n];
    for &p in order.iter().take(n_fast) {
        is_fast[p] = true;
    }
    let delay_ms = is_fast
        .iter()
        .map(|&f| if f { params.fast_delay_ms } else { params.slow_delay_ms })
        .collect();
    HeteroAssignment { delay_ms, is_fast }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fast_count() {
        let a = assign(&BimodalParams::default(), 100, &mut SimRng::seed_from(1));
        assert_eq!(a.num_fast(), 20);
        assert_eq!(a.delay_ms.len(), 100);
    }

    #[test]
    fn delays_match_class() {
        let p = BimodalParams::default();
        let a = assign(&p, 50, &mut SimRng::seed_from(2));
        for i in 0..50 {
            let expect = if a.is_fast[i] { p.fast_delay_ms } else { p.slow_delay_ms };
            assert_eq!(a.delay_ms[i], expect);
        }
    }

    #[test]
    fn extreme_fractions() {
        let all_fast = assign(
            &BimodalParams { fast_fraction: 1.0, ..Default::default() },
            30,
            &mut SimRng::seed_from(3),
        );
        assert_eq!(all_fast.num_fast(), 30);
        let none_fast = assign(
            &BimodalParams { fast_fraction: 0.0, ..Default::default() },
            30,
            &mut SimRng::seed_from(3),
        );
        assert_eq!(none_fast.num_fast(), 0);
    }

    #[test]
    fn assignment_is_shuffled_not_prefix() {
        let a = assign(&BimodalParams::default(), 100, &mut SimRng::seed_from(4));
        let prefix_fast = a.is_fast[..20].iter().filter(|&&f| f).count();
        assert!(prefix_fast < 20, "fast nodes should be scattered, not a prefix");
    }

    #[test]
    fn deterministic() {
        let a = assign(&BimodalParams::default(), 60, &mut SimRng::seed_from(5));
        let b = assign(&BimodalParams::default(), 60, &mut SimRng::seed_from(5));
        assert_eq!(a.is_fast, b.is_fast);
    }
}
