//! Latency distributions: CDFs and class breakdowns.
//!
//! Means hide tails; the heterogeneity analysis (Fig. 7) in particular
//! turns on *which* lookups get slower. These helpers summarize a sample
//! set as quantiles and split a workload's outcomes by destination class.

use prop_engine::stats::percentile;
use prop_overlay::{FloodScratch, Lookup, OverlayNet, Slot};

/// Quantile summary of a latency sample set.
#[derive(Clone, Debug)]
pub struct LatencyCdf {
    pub count: usize,
    pub p10: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl LatencyCdf {
    /// Summarize raw latency samples. `None` on an empty set.
    pub fn from_samples(samples: &[f64]) -> Option<LatencyCdf> {
        if samples.is_empty() {
            return None;
        }
        Some(LatencyCdf {
            count: samples.len(),
            p10: percentile(samples, 0.10)?,
            p50: percentile(samples, 0.50)?,
            p90: percentile(samples, 0.90)?,
            p99: percentile(samples, 0.99)?,
            max: percentile(samples, 1.0)?,
        })
    }
}

/// Lookup-latency outcomes for one workload, split by a destination
/// predicate (e.g. fast vs slow peers).
#[derive(Clone, Debug)]
pub struct ClassBreakdown {
    /// Destinations matching the predicate.
    pub matching: Option<LatencyCdf>,
    /// The rest.
    pub rest: Option<LatencyCdf>,
}

/// Run `pairs` through the overlay and split delivered latencies by
/// `class(dst)`. Failed lookups are dropped (count via
/// [`crate::avg_lookup_latency`] if needed).
pub fn class_breakdown(
    net: &OverlayNet,
    overlay: &impl Lookup,
    pairs: &[(Slot, Slot)],
    class: impl Fn(Slot) -> bool,
) -> ClassBreakdown {
    let mut matching = Vec::new();
    let mut rest = Vec::new();
    let mut scratch = FloodScratch::new();
    for &(src, dst) in pairs {
        if let Some(out) = overlay.lookup_with(net, src, dst, &mut scratch) {
            if class(dst) {
                matching.push(out.latency_ms as f64);
            } else {
                rest.push(out.latency_ms as f64);
            }
        }
    }
    ClassBreakdown {
        matching: LatencyCdf::from_samples(&matching),
        rest: LatencyCdf::from_samples(&rest),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engine::SimRng;
    use prop_netsim::{generate, LatencyOracle, TransitStubParams};
    use prop_overlay::gnutella::{Gnutella, GnutellaParams};
    use prop_workloads::LookupGen;
    use std::sync::Arc;

    #[test]
    fn cdf_quantiles_ordered() {
        let samples: Vec<f64> = (1..=1000).map(|x| x as f64).collect();
        let cdf = LatencyCdf::from_samples(&samples).unwrap();
        assert_eq!(cdf.count, 1000);
        assert!(cdf.p10 <= cdf.p50 && cdf.p50 <= cdf.p90);
        assert!(cdf.p90 <= cdf.p99 && cdf.p99 <= cdf.max);
        assert_eq!(cdf.p50, 500.0);
        assert_eq!(cdf.max, 1000.0);
    }

    #[test]
    fn empty_samples_yield_none() {
        assert!(LatencyCdf::from_samples(&[]).is_none());
    }

    #[test]
    fn breakdown_separates_slow_destinations() {
        let mut rng = SimRng::seed_from(1);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 30, &mut rng));
        let (gn, mut net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        // Peers 0..10 fast (0 ms), rest slow (200 ms).
        let delays: Vec<u32> = (0..30).map(|p| if p < 10 { 0 } else { 200 }).collect();
        net.set_processing_delays(delays);
        let live: Vec<Slot> = net.graph().live_slots().collect();
        let pairs = LookupGen::new(&rng).uniform_pairs(&live, 500);
        let b = class_breakdown(&net, &gn, &pairs, |dst| net.peer(dst) < 10);
        let fast = b.matching.unwrap();
        let slow = b.rest.unwrap();
        assert!(
            fast.p50 < slow.p50,
            "fast-destination median {:.0} should beat slow {:.0}",
            fast.p50,
            slow.p50
        );
        assert_eq!(fast.count + slow.count, 500);
    }
}
