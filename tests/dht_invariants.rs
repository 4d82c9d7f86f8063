//! DHT structural invariants under arbitrary PROP-G identifier swaps.
//!
//! PROP-G's pitch for structured overlays: it optimizes *without affecting
//! the characteristics of the original systems*. These property tests pin
//! that down for all three DHT geometries: after any sequence of placement
//! swaps, routing still terminates at the correct owner, hop counts are
//! unchanged (the route is a function of slots, not peers), and the
//! structural invariants (ring order, prefix tables, zone tiling) hold.

use prop::overlay::can::Can;
use prop::overlay::pastry::{Pastry, PastryParams};
use prop::prelude::*;
use std::sync::Arc;

const CASES: u64 = 256;

/// The overlay seed and swap count of one case.
fn case_inputs(case: u64) -> (u64, usize) {
    let mut gen = SimRng::seed_from(case);
    (gen.range(0..5_000u64), gen.range(0..40usize))
}

fn oracle(n: usize, seed: u64) -> Arc<LatencyOracle> {
    let mut rng = SimRng::seed_from(seed);
    let phys = generate(&TransitStubParams::tiny(), &mut rng);
    Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng))
}

fn apply_random_swaps(net: &mut OverlayNet, n: u32, swaps: usize, seed: u64) {
    let mut rng = SimRng::seed_from(seed);
    for _ in 0..swaps {
        let a = Slot(rng.range(0..n));
        let b = Slot(rng.range(0..n));
        if a != b {
            net.swap_peers(a, b);
        }
    }
}

#[test]
fn chord_invariants_survive_swaps() {
    for case in 0..CASES {
        let (seed, swaps) = case_inputs(case);
        let n = 24usize;
        let mut rng = SimRng::seed_from(seed);
        let (chord, mut net) = Chord::build(ChordParams::default(), oracle(n, seed), &mut rng);
        let hops_before: Vec<u32> =
            (0..n as u32).map(|b| chord.lookup(&net, Slot(0), Slot(b)).unwrap().hops).collect();
        apply_random_swaps(&mut net, n as u32, swaps, seed ^ 0xff);
        assert!(net.placement().is_consistent(), "case {case}");
        // Ring/finger structure is slot-level: routes byte-identical.
        let hops_after: Vec<u32> =
            (0..n as u32).map(|b| chord.lookup(&net, Slot(0), Slot(b)).unwrap().hops).collect();
        assert_eq!(hops_before, hops_after, "case {case}");
        // Every key still resolves to the slot owning it.
        for s in 0..n as u32 {
            assert_eq!(chord.owner_of(chord.id(Slot(s))), Slot(s), "case {case}");
        }
    }
}

#[test]
fn pastry_invariants_survive_swaps() {
    for case in 0..CASES {
        let (seed, swaps) = case_inputs(case);
        let n = 24usize;
        let mut rng = SimRng::seed_from(seed);
        let (pastry, mut net) = Pastry::build(PastryParams::default(), oracle(n, seed), &mut rng);
        let hops_before: Vec<u32> =
            (0..n as u32).map(|b| pastry.lookup(&net, Slot(1), Slot(b)).unwrap().hops).collect();
        apply_random_swaps(&mut net, n as u32, swaps, seed ^ 0xaa);
        let hops_after: Vec<u32> =
            (0..n as u32).map(|b| pastry.lookup(&net, Slot(1), Slot(b)).unwrap().hops).collect();
        assert_eq!(hops_before, hops_after, "case {case}");
        for s in 0..n as u32 {
            assert_eq!(pastry.owner_of(pastry.id(Slot(s))), Slot(s), "case {case}");
        }
    }
}

#[test]
fn can_invariants_survive_swaps() {
    for case in 0..CASES {
        let (seed, swaps) = case_inputs(case);
        let n = 20usize;
        let mut rng = SimRng::seed_from(seed);
        let (can, mut net) = Can::build(oracle(n, seed), &mut rng);
        apply_random_swaps(&mut net, n as u32, swaps, seed ^ 0x55);
        // Zones still tile the unit torus…
        let area: f64 = (0..n as u32)
            .map(|s| {
                let z = can.zone(Slot(s));
                z.extent(0) * z.extent(1)
            })
            .sum();
        assert!((area - 1.0).abs() < 1e-9, "case {case}: area {area}");
        // …and greedy routing still delivers everywhere.
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let out = can.lookup(&net, Slot(a), Slot(b)).unwrap();
                assert!(out.hops <= n as u32, "case {case}: {a} → {b} took {} hops", out.hops);
            }
        }
    }
}

/// Latency (unlike hops) DOES depend on placement — that is the whole point
/// of PROP-G. Sanity-check the two facets together.
#[test]
fn swaps_change_latency_but_not_structure() {
    for case in 0..CASES {
        let (seed, _) = case_inputs(case);
        let n = 24usize;
        let mut rng = SimRng::seed_from(seed);
        let (chord, mut net) = Chord::build(ChordParams::default(), oracle(n, seed), &mut rng);
        let edges_before: Vec<_> = net.graph().edges().collect();
        // One definite swap.
        net.swap_peers(Slot(0), Slot(n as u32 / 2));
        assert_eq!(edges_before, net.graph().edges().collect::<Vec<_>>(), "case {case}");
        // Latency may or may not change (it usually does); structure never.
        let out = chord.lookup(&net, Slot(1), Slot(2)).unwrap();
        assert!(out.latency_ms < 1_000_000, "case {case}");
    }
}
