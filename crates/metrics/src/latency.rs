//! Average lookup latency.
//!
//! Accumulation is exact: latencies and hop counts are integers, so the
//! totals are integer sums and the means are computed once at the end.
//! That is what makes [`avg_lookup_latency`] return the same bits however
//! the pairs are spread over workers (see [`crate::plane`]).

use crate::plane::MEASURE_CHUNK;
use prop_engine::par;
use prop_overlay::{FloodScratch, Lookup, OverlayNet, RouteOutcome, Slot};

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

/// Exact integer totals of a latency workload: integer addition is
/// associative and commutative, so the totals do not depend on the order
/// the lookups were measured in.
#[derive(Clone, Copy, Debug, Default)]
struct LatencyTotals {
    latency_ms: u128,
    hops: u64,
    delivered: u64,
    failed: u64,
}

impl LatencyTotals {
    /// Count one lookup's outcome in.
    fn add(mut self, outcome: Option<RouteOutcome>) -> Self {
        match outcome {
            Some(out) => {
                self.latency_ms += out.latency_ms as u128;
                self.hops += out.hops as u64;
                self.delivered += 1;
            }
            None => self.failed += 1,
        }
        self
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
/// The pairs are fanned out through [`prop_engine::par::map_init`] — one
/// [`FloodScratch`] per worker, a list of at most [`MEASURE_CHUNK`] pairs
/// measured inline — and the outcomes, back in pair order, are summed into
/// exact integer totals.
pub fn avg_lookup_latency(
    net: &OverlayNet,
    overlay: &impl Lookup,
    pairs: &[(Slot, Slot)],
) -> LatencySummary {
    par::map_init(pairs, MEASURE_CHUNK, FloodScratch::new, |scratch, &(src, dst)| {
        overlay.lookup_with(net, src, dst, scratch)
    })
    .into_iter()
    .fold(LatencyTotals::default(), LatencyTotals::add)
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

    /// The sequential reference: one scratch, every pair in order on the
    /// calling thread, integer totals.
    fn sequential(
        net: &OverlayNet,
        overlay: &impl Lookup,
        pairs: &[(Slot, Slot)],
    ) -> LatencySummary {
        let mut scratch = FloodScratch::new();
        pairs
            .iter()
            .fold(LatencyTotals::default(), |t, &(a, b)| {
                t.add(overlay.lookup_with(net, a, b, &mut scratch))
            })
            .summary()
    }

    fn bits(s: LatencySummary) -> (u64, u64, u64, u64) {
        (nan_or_bits(s.mean_ms), nan_or_bits(s.mean_hops), s.delivered, s.failed)
    }

    /// The bits of `x`, every NaN read as one: the sign of `0.0 / 0.0`
    /// depends on whether the compiler folded the division, and the empty
    /// workload's mean is that NaN.
    fn nan_or_bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let (gn, net, rng) = setup(30, 4);
        let live: Vec<Slot> = net.graph().live_slots().collect();
        let all = LookupGen::new(&rng).uniform_pairs(&live, 700);
        // Empty, one pair, either side of one chunk, and lists that are
        // no multiple of MEASURE_CHUNK (the ragged tail).
        for len in [0, 1, 255, 256, 257, 600, 650] {
            let pairs = &all[..len];
            let want = bits(sequential(&net, &gn, pairs));
            assert_eq!(bits(avg_lookup_latency(&net, &gn, pairs)), want, "{len} pairs");
        }
    }

    /// A lookup that records the thread it ran on.
    struct Recording<'a, L> {
        inner: &'a L,
        threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    }

    impl<L: Lookup> Lookup for Recording<'_, L> {
        fn lookup_with(
            &self,
            net: &OverlayNet,
            src: Slot,
            dst: Slot,
            scratch: &mut FloodScratch,
        ) -> Option<RouteOutcome> {
            self.threads.lock().unwrap().push(std::thread::current().id());
            self.inner.lookup_with(net, src, dst, scratch)
        }
    }

    #[test]
    fn a_list_of_one_chunk_is_measured_on_the_callers_thread_by_both_measures() {
        let (gn, net, rng) = setup(30, 6);
        let live: Vec<Slot> = net.graph().live_slots().collect();
        let pairs = LookupGen::new(&rng).uniform_pairs(&live, MEASURE_CHUNK);
        let recording = Recording { inner: &gn, threads: Default::default() };
        let got = avg_lookup_latency(&net, &recording, &pairs);
        assert_eq!(bits(got), bits(sequential(&net, &gn, &pairs)));
        let stretch = crate::path_stretch(&net, &recording, &pairs);
        assert_eq!(stretch.mean.to_bits(), crate::path_stretch(&net, &gn, &pairs).mean.to_bits());
        let threads = recording.threads.into_inner().unwrap();
        assert_eq!(threads.len() as u64, MEASURE_CHUNK as u64 + stretch.delivered + stretch.failed);
        let me = std::thread::current().id();
        assert!(threads.iter().all(|&id| id == me), "a one-chunk list left the calling thread");
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
            let totals = LatencyTotals::default();
            pairs.iter().fold(totals, |t, &(a, b)| t.add(gn.lookup(&fresh, a, b))).summary()
        };
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
