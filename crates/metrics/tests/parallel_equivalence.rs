//! Property: every measurement is **bit-for-bit identical** on one worker
//! and on many — across random overlays (Gnutella flooding and Chord
//! routing), rayon worker counts, and latency-oracle tiers including a row
//! cache squeezed to its minimum capacity (one resident row per shard, so
//! the measurement thrashes the cache constantly).
//!
//! This is the determinism contract of `prop_metrics::plane` stated as a
//! property rather than as a handful of fixed seeds: integer metrics are
//! exact sums (reduction order is irrelevant), and the float-valued stretch
//! uses fixed `MEASURE_CHUNK` chunking with in-order folding, so no choice
//! of scheduler, worker count, or cache state may leak into the bits.

use prop_engine::SimRng;
use prop_metrics::{avg_lookup_latency, mean_flood_messages, path_stretch};
use prop_netsim::{generate, LatencyOracle, OracleConfig, TransitStubParams};
use prop_overlay::chord::{Chord, ChordParams};
use prop_overlay::gnutella::{Gnutella, GnutellaParams};
use prop_overlay::Slot;
use prop_workloads::LookupGen;
use proptest::prelude::*;
use std::sync::Arc;

fn pool(workers: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(workers).build().expect("local rayon pool")
}

proptest! {
    // Each case builds a physical topology, two overlays, and a workload —
    // a small case count keeps the tier-1 suite fast while still sweeping
    // the axes that could break determinism.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn parallel_measurements_are_bit_identical_to_serial(
        seed in 0u64..u64::MAX / 2,
        n in 24usize..=40,
        workers in prop::sample::select(vec![1usize, 2, 4]),
        // `cached(1)` clamps to the cache's floor — one row per shard —
        // forcing evictions on nearly every lookup.
        squeeze_cache in any::<bool>(),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let cfg = if squeeze_cache { OracleConfig::cached(1) } else { OracleConfig::dense() };
        let oracle = Arc::new(LatencyOracle::select_and_build_with(&phys, n, &mut rng, &cfg));

        let (gn, gnet) = Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);
        let (ch, cnet) = Chord::build(ChordParams::default(), oracle, &mut rng);
        let live: Vec<Slot> = gnet.graph().live_slots().collect();
        // 300 pairs: not a multiple of MEASURE_CHUNK, so the ragged tail
        // chunk is always exercised.
        let pairs = LookupGen::new(&rng).uniform_pairs(&live, 300);

        let measure = || {
            (
                avg_lookup_latency(&gnet, &gn, &pairs),
                path_stretch(&cnet, &ch, &pairs),
                mean_flood_messages(&gnet, &live, 4),
            )
        };
        let (serial_latency, serial_stretch, serial_flood) = pool(1).install(measure);
        let (par_latency, par_stretch, par_flood) = pool(workers).install(measure);

        prop_assert_eq!(serial_latency.mean_ms.to_bits(), par_latency.mean_ms.to_bits());
        prop_assert_eq!(serial_latency.mean_hops.to_bits(), par_latency.mean_hops.to_bits());
        prop_assert_eq!(serial_latency.delivered, par_latency.delivered);
        prop_assert_eq!(serial_latency.failed, par_latency.failed);

        prop_assert_eq!(serial_stretch.mean.to_bits(), par_stretch.mean.to_bits());
        prop_assert_eq!(serial_stretch.delivered, par_stretch.delivered);
        prop_assert_eq!(serial_stretch.failed, par_stretch.failed);
        prop_assert_eq!(serial_stretch.skipped, par_stretch.skipped);

        prop_assert_eq!(serial_flood.to_bits(), par_flood.to_bits());
    }
}
