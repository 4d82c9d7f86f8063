//! Property: every measurement is **bit-for-bit identical** on the dense
//! oracle tier (per-domain blocks) and on the search tier (the search
//! store: point queries and meeting searches from per-thread scratch) —
//! across random overlays (Gnutella flooding and Chord routing).
//!
//! This is the determinism contract of `prop_metrics::plane` stated as a
//! property rather than as a handful of fixed seeds: integer metrics are
//! exact sums, and the float-valued stretch uses fixed `MEASURE_CHUNK`
//! chunking with in-order folding, so no store or scratch state may leak
//! into the bits.

use prop_engine::SimRng;
use prop_metrics::{avg_lookup_latency, mean_flood_messages, path_stretch};
use prop_netsim::{generate, LatencyOracle, OracleConfig, TransitStubParams};
use prop_overlay::chord::{Chord, ChordParams};
use prop_overlay::gnutella::{Gnutella, GnutellaParams};
use prop_overlay::Slot;
use prop_workloads::LookupGen;
use std::sync::Arc;

/// Each case builds a physical topology, two overlays and a workload on
/// each tier (≈ 30 ms), so a small case count keeps the suite fast.
const CASES: u64 = 16;

#[test]
fn measurements_are_bit_identical_on_dense_and_squeezed_cache() {
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let seed = gen.range(0..u64::MAX / 2);
        let n = gen.range(24..=40usize);

        // Both configs consume the stream identically, so the two sides
        // measure the same overlays.
        let measure = |cfg: OracleConfig| {
            let mut rng = SimRng::seed_from(seed);
            let phys = generate(&TransitStubParams::tiny(), &mut rng);
            let oracle = Arc::new(LatencyOracle::select_and_build_with(&phys, n, &mut rng, &cfg));
            let (gn, gnet) =
                Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);
            let (ch, cnet) = Chord::build(ChordParams::default(), oracle, &mut rng);
            let live: Vec<Slot> = gnet.graph().live_slots().collect();
            // 300 pairs: not a multiple of MEASURE_CHUNK, so the ragged tail
            // chunk is always exercised.
            let pairs = LookupGen::new(&rng).uniform_pairs(&live, 300);
            (
                avg_lookup_latency(&gnet, &gn, &pairs),
                path_stretch(&cnet, &ch, &pairs),
                mean_flood_messages(&gnet, &live, 4),
            )
        };
        let (dense_latency, dense_stretch, dense_flood) = measure(OracleConfig::dense());
        let (cache_latency, cache_stretch, cache_flood) = measure(OracleConfig::cached(1));

        assert_eq!(dense_latency.mean_ms.to_bits(), cache_latency.mean_ms.to_bits(), "case {case}");
        assert_eq!(
            dense_latency.mean_hops.to_bits(),
            cache_latency.mean_hops.to_bits(),
            "case {case}"
        );
        assert_eq!(
            (dense_latency.delivered, dense_latency.failed),
            (cache_latency.delivered, cache_latency.failed),
            "case {case}"
        );

        assert_eq!(dense_stretch.mean.to_bits(), cache_stretch.mean.to_bits(), "case {case}");
        assert_eq!(
            (dense_stretch.delivered, dense_stretch.failed, dense_stretch.skipped),
            (cache_stretch.delivered, cache_stretch.failed, cache_stretch.skipped),
            "case {case}"
        );

        assert_eq!(dense_flood.to_bits(), cache_flood.to_bits(), "case {case}");
    }
}
