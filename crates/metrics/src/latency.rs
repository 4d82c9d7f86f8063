//! Average lookup latency.
//!
//! Accumulation is exact: latencies and hop counts are integers, so the
//! totals are integer sums and the means are computed once at the end.
//! That is what makes [`avg_lookup_latency`] return the same bits under any
//! chunking (see [`crate::plane`]).

use crate::plane::MEASURE_CHUNK;
use prop_engine::par;
use prop_overlay::{FloodScratch, Lookup, OverlayNet, Slot};

/// Result of measuring a lookup workload.
#[derive(Clone, Copy, Debug)]
pub struct LatencySummary {
    /// Mean latency over delivered lookups, ms.
    pub mean_ms: f64,
    /// Mean overlay hops over delivered lookups.
    pub mean_hops: f64,
    pub delivered: u64,
    /// Lookups the overlay failed to deliver (e.g. flood TTL expired).
    pub failed: u64,
}

/// Exact integer totals of a (partial) latency workload. Merging is integer
/// addition — associative and commutative — so any reduction tree over any
/// partition of the pairs yields the same totals.
#[derive(Clone, Copy, Debug, Default)]
struct LatencyTotals {
    latency_ms: u128,
    hops: u64,
    delivered: u64,
    failed: u64,
}

impl LatencyTotals {
    fn measure(
        net: &OverlayNet,
        overlay: &impl Lookup,
        pairs: &[(Slot, Slot)],
        scratch: &mut FloodScratch,
    ) -> Self {
        let mut t = LatencyTotals::default();
        for &(src, dst) in pairs {
            match overlay.lookup_with(net, src, dst, scratch) {
                Some(out) => {
                    t.latency_ms += out.latency_ms as u128;
                    t.hops += out.hops as u64;
                    t.delivered += 1;
                }
                None => t.failed += 1,
            }
        }
        t
    }

    fn merge(self, other: Self) -> Self {
        LatencyTotals {
            latency_ms: self.latency_ms + other.latency_ms,
            hops: self.hops + other.hops,
            delivered: self.delivered + other.delivered,
            failed: self.failed + other.failed,
        }
    }

    fn summary(self) -> LatencySummary {
        LatencySummary {
            mean_ms: self.latency_ms as f64 / self.delivered as f64,
            mean_hops: self.hops as f64 / self.delivered as f64,
            delivered: self.delivered,
            failed: self.failed,
        }
    }
}

/// Run every pair through the overlay's lookup discipline and summarize.
/// The pair list is measured in [`MEASURE_CHUNK`]-sized chunks fanned out
/// through [`prop_engine::par::map`], each with its own [`FloodScratch`],
/// and the exact integer totals are merged in chunk order.
pub fn avg_lookup_latency(
    net: &OverlayNet,
    overlay: &impl Lookup,
    pairs: &[(Slot, Slot)],
) -> LatencySummary {
    let chunks: Vec<&[(Slot, Slot)]> = pairs.chunks(MEASURE_CHUNK).collect();
    par::map(&chunks, |chunk| LatencyTotals::measure(net, overlay, chunk, &mut FloodScratch::new()))
        .into_iter()
        .fold(LatencyTotals::default(), LatencyTotals::merge)
        .summary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_core::{PropConfig, ProtocolSim};
    use prop_engine::{Duration, SimRng};
    use prop_netsim::{generate, LatencyOracle, TransitStubParams};
    use prop_overlay::gnutella::{Gnutella, GnutellaParams};
    use prop_workloads::LookupGen;
    use std::sync::Arc;

    fn setup(n: usize, seed: u64) -> (Gnutella, prop_overlay::OverlayNet, SimRng) {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
        let (gn, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        (gn, net, rng)
    }

    #[test]
    fn summary_counts_add_up() {
        let (gn, net, rng) = setup(25, 1);
        let live: Vec<Slot> = net.graph().live_slots().collect();
        let pairs = LookupGen::new(&rng).uniform_pairs(&live, 300);
        let s = avg_lookup_latency(&net, &gn, &pairs);
        assert_eq!(s.delivered + s.failed, 300);
        assert!(s.mean_ms > 0.0);
        assert!(s.mean_hops >= 1.0);
    }

    #[test]
    fn ttl_one_fails_on_non_neighbors() {
        let (mut gn, net, rng) = setup(25, 2);
        gn.params.flood_ttl = 1;
        let live: Vec<Slot> = net.graph().live_slots().collect();
        let pairs = LookupGen::new(&rng).uniform_pairs(&live, 300);
        let s = avg_lookup_latency(&net, &gn, &pairs);
        assert!(s.failed > 0, "TTL=1 should fail on most non-adjacent pairs");
        assert!(s.mean_hops <= 1.0 || s.delivered == 0);
    }

    #[test]
    fn empty_workload_is_nan_mean() {
        let (gn, net, _) = setup(10, 3);
        let s = avg_lookup_latency(&net, &gn, &[]);
        assert_eq!(s.delivered, 0);
        assert!(s.mean_ms.is_nan());
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let (gn, net, rng) = setup(30, 4);
        let live: Vec<Slot> = net.graph().live_slots().collect();
        // Deliberately not a multiple of MEASURE_CHUNK: exercises the
        // ragged tail chunk.
        let pairs = LookupGen::new(&rng).uniform_pairs(&live, 700);
        let serial = LatencyTotals::measure(&net, &gn, &pairs, &mut FloodScratch::new()).summary();
        let parallel = avg_lookup_latency(&net, &gn, &pairs);
        assert_eq!(serial.mean_ms.to_bits(), parallel.mean_ms.to_bits());
        assert_eq!(serial.mean_hops.to_bits(), parallel.mean_hops.to_bits());
        assert_eq!(serial.delivered, parallel.delivered);
        assert_eq!(serial.failed, parallel.failed);
    }

    #[test]
    fn measuring_after_prop_g_reads_the_net_as_it_now_is() {
        // The first measurement builds the net's flood view; PROP-G's swaps
        // must drop it before the second. Each measurement is held bit for
        // bit to a sequential loop of fresh-scratch lookups over a net
        // assembled afresh from the same wiring and placement, which has
        // never built a view.
        let mut rng = SimRng::seed_from(5);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 40, &mut rng));
        let (gn, net) = Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);
        let live: Vec<Slot> = net.graph().live_slots().collect();
        let pairs = LookupGen::new(&rng).uniform_pairs(&live, 700);
        let sequential = |net: &OverlayNet| {
            let fresh =
                OverlayNet::new(net.graph().clone(), net.placement().clone(), Arc::clone(&oracle));
            let mut t = LatencyTotals::default();
            for &(a, b) in &pairs {
                match gn.lookup(&fresh, a, b) {
                    Some(out) => {
                        t.latency_ms += out.latency_ms as u128;
                        t.hops += out.hops as u64;
                        t.delivered += 1;
                    }
                    None => t.failed += 1,
                }
            }
            t.summary()
        };
        let bits = |s: LatencySummary| (s.mean_ms.to_bits(), s.mean_hops.to_bits(), s.delivered);

        let before = avg_lookup_latency(&net, &gn, &pairs);
        assert_eq!(bits(before), bits(sequential(&net)), "before PROP-G");
        let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
        sim.run_for(Duration::from_minutes(10));
        assert!(sim.overhead().exchanges > 0, "PROP-G exchanged nothing");
        let after = avg_lookup_latency(sim.net(), &gn, &pairs);
        assert_eq!(bits(after), bits(sequential(sim.net())), "after PROP-G");
        assert_ne!(bits(after), bits(before), "PROP-G moved no lookup");
    }
}
