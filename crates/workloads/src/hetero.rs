//! Bimodal node heterogeneity (§5.3).
//!
//! "There are two kinds of nodes — fast and slow. The processing delay of
//! the fast nodes is 1\[0\] ms, while the delay of the slow ones is \[100\] ms.
//! The fraction of fast nodes is \[20\]% of the total population" (defaults
//! reconstructed per DESIGN.md §3; the setting follows Dabek et al.'s
//! bimodal distribution). Total lookup delay = link delay + per-hop
//! processing delay, so fast nodes model powerful, well-provisioned peers.

/// Processing delay of a fast peer, ms.
pub const FAST_DELAY_MS: u32 = 10;
/// Processing delay of a slow peer, ms.
pub const SLOW_DELAY_MS: u32 = 100;
/// Fraction of peers that are fast.
pub const FAST_FRACTION: f64 = 0.2;

/// Per-peer processing delays under the bimodal distribution.
#[derive(Clone, Debug)]
pub struct HeteroAssignment {
    /// Processing delay per peer (indexed by member index).
    pub delay_ms: Vec<u32>,
    /// Class per peer.
    pub is_fast: Vec<bool>,
}

/// Exactly `round(n · FAST_FRACTION)` fast peers — the earliest joiners,
/// peers `0..n_fast` — and the rest slow. With preferential attachment,
/// peer index correlates with degree, so this reproduces "powerful nodes
/// own more connections".
pub fn hub_correlated(n: usize) -> HeteroAssignment {
    let n_fast = ((n as f64) * FAST_FRACTION).round() as usize;
    let is_fast: Vec<bool> = (0..n).map(|p| p < n_fast).collect();
    let delay_ms = is_fast.iter().map(|&f| if f { FAST_DELAY_MS } else { SLOW_DELAY_MS }).collect();
    HeteroAssignment { delay_ms, is_fast }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fast_count() {
        let a = hub_correlated(100);
        assert_eq!(a.is_fast.iter().filter(|&&f| f).count(), 20);
        assert_eq!(a.delay_ms.len(), 100);
    }

    #[test]
    fn delays_match_class() {
        let a = hub_correlated(50);
        for i in 0..50 {
            let expect = if a.is_fast[i] { FAST_DELAY_MS } else { SLOW_DELAY_MS };
            assert_eq!(a.delay_ms[i], expect);
        }
    }

    #[test]
    fn hub_assignment_marks_prefix_fast() {
        let a = hub_correlated(50);
        assert!(a.is_fast[..10].iter().all(|&f| f));
        assert!(!a.is_fast[10..].iter().any(|&f| f));
    }
}
