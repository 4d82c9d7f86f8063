//! Latency-oracle cache counters as a reportable metric.
//!
//! The row-cache oracle tier (`prop_netsim::Tier::Cached`) answers `d(u,v)`
//! on a graph without the transit–stub decomposition from a byte-bounded
//! LRU of exact rows; whether an experiment is compute-bound (misses) or
//! memory-bound (evictions) is part of its result, and on a transit–stub
//! graph that every counter stays zero is. [`OracleCacheReport`] packages
//! the counters with derived rates for the experiment binaries' tables and
//! JSON dumps.

use prop_engine::json_impl;
use prop_netsim::{CacheStats, LatencyOracle, Tier};

/// One oracle's cache behavior over a measured window.
#[derive(Clone, Copy, Debug)]
pub struct OracleCacheReport {
    /// Which tier answered; on [`Tier::Dense`] there is no cache and every
    /// other field is zero. Written to JSON as the tier's label.
    pub tier: Tier,
    pub hits: u64,
    pub misses: u64,
    /// `hits / (hits + misses)`, 0 when nothing was asked.
    pub hit_rate: f64,
    pub evictions: u64,
    pub resident_rows: usize,
    pub resident_bytes: usize,
    pub peak_resident_bytes: usize,
    pub capacity_bytes: usize,
}

json_impl!(ToJson for struct OracleCacheReport {
    tier, hits, misses, hit_rate, evictions, resident_rows, resident_bytes, peak_resident_bytes,
    capacity_bytes
});

impl OracleCacheReport {
    /// Snapshot an oracle's counters. The dense tier yields an all-zero
    /// report tagged dense so tables stay rectangular across tiers.
    pub fn from_oracle(oracle: &LatencyOracle) -> Self {
        Self::from_stats(oracle.built_tier(), oracle.cache_stats().unwrap_or_default())
    }

    /// Report over the window since `earlier` (counters diffed, gauges
    /// current).
    pub fn from_oracle_since(oracle: &LatencyOracle, earlier: &CacheStats) -> Self {
        let window = oracle.cache_stats().map(|s| s.since(earlier));
        Self::from_stats(oracle.built_tier(), window.unwrap_or_default())
    }

    fn from_stats(tier: Tier, s: CacheStats) -> Self {
        OracleCacheReport {
            tier,
            hits: s.hits,
            misses: s.misses,
            hit_rate: s.hit_rate(),
            evictions: s.evictions,
            resident_rows: s.resident_rows,
            resident_bytes: s.resident_bytes,
            peak_resident_bytes: s.peak_resident_bytes,
            capacity_bytes: s.capacity_bytes,
        }
    }
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

impl std::fmt::Display for OracleCacheReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.tier == Tier::Dense {
            return write!(f, "oracle tier dense (full matrix resident, no cache)");
        }
        write!(
            f,
            "oracle tier {}: {} hits / {} misses ({:.1}% hit rate), {} evictions, \
             {} rows resident ({:.1} MiB, peak {:.1} MiB, cap {:.0} MiB)",
            self.tier.label(),
            self.hits,
            self.misses,
            self.hit_rate * 100.0,
            self.evictions,
            self.resident_rows,
            mib(self.resident_bytes),
            mib(self.peak_resident_bytes),
            mib(self.capacity_bytes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engine::SimRng;
    use prop_netsim::{generate, generate_waxman, OracleConfig, TransitStubParams, WaxmanParams};

    fn oracles() -> (LatencyOracle, LatencyOracle) {
        let mut rng = SimRng::seed_from(1);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        let dense = LatencyOracle::select_and_build(&g, 10, &mut rng);
        (dense, row_oracle(&OracleConfig::cached(1 << 20)))
    }

    /// Twelve members of a Waxman graph on a row tier: the row kernel finds
    /// no transit–stub structure there, so every `d(a, ·)` reads row `a`,
    /// whole — on `tiny()` a pair in two stub domains would read none.
    fn row_oracle(cfg: &OracleConfig) -> LatencyOracle {
        let mut rng = SimRng::seed_from(2);
        let g = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        LatencyOracle::select_and_build_with(&g, 12, &mut rng, cfg)
    }

    #[test]
    fn dense_report_is_tagged_and_quiet() {
        let (dense, _) = oracles();
        let r = OracleCacheReport::from_oracle(&dense);
        assert_eq!(r.tier, Tier::Dense);
        assert_eq!((r.hits, r.misses, r.capacity_bytes), (0, 0, 0));
        assert!(r.to_string().contains("dense"));
    }

    #[test]
    fn cached_report_carries_counters() {
        let (_, cached) = oracles();
        let _ = cached.d(1, 2);
        let _ = cached.d(1, 3);
        let r = OracleCacheReport::from_oracle(&cached);
        assert_eq!(r.tier, Tier::Cached);
        assert!(r.misses >= 1);
        assert!(r.hits >= 1);
        assert!(r.hit_rate > 0.0 && r.hit_rate < 1.0);
        let text = r.to_string();
        assert!(text.contains("hit rate"), "{text}");
        assert!(text.contains("row-cache"), "{text}");
    }

    #[test]
    fn windowed_report_diffs_counters() {
        let (_, cached) = oracles();
        let _ = cached.d(1, 2);
        let mark = cached.cache_stats().unwrap();
        let _ = cached.d(1, 3); // hit on row 1
        let r = OracleCacheReport::from_oracle_since(&cached, &mark);
        assert_eq!(r.misses, 0);
        assert!(r.hits >= 1);
    }

    #[test]
    fn serializes_for_results_json() {
        let (_, cached) = oracles();
        let r = OracleCacheReport::from_oracle(&cached);
        let json = prop_engine::json::to_string(&r);
        assert!(json.contains("\"tier\":\"row-cache\""), "{json}");
        assert!(json.contains("hit_rate"), "{json}");
    }
}
