//! PRS: Proximity Route Selection for Chord.
//!
//! The third of the paper's §2 taxonomy (PNS / **PRS** / PIS). Where PNS
//! picks *table entries* by proximity at build time, PRS picks the *next
//! hop* by proximity at lookup time: among the routing entries that make
//! progress toward the key, prefer a physically close one — as long as it
//! still makes substantial progress, so the hop count stays O(log n).
//!
//! Concretely (near-greedy with proximity tie-breaking, cf. Gummadi et
//! al.'s routing-flexibility study): among entries whose identifier lies in
//! `(cur, key]`, candidates whose remaining gap is within 2× of the best
//! one are considered ties — taking one costs at most a single extra
//! identifier halving — and the physically nearest tie is forwarded to.
//! Hop counts stay essentially greedy while each hop gets cheaper.
//! Requires no construction changes — it wraps any already-built [`Chord`],
//! which is exactly the "protocol-dependent" flexibility constraint the
//! paper discusses (PRS needs more than one candidate per hop to exist).

use prop_overlay::chord::Chord;
use prop_overlay::{Lookup, OverlayNet, RouteOutcome, Slot};

/// A Chord whose lookups use proximity route selection.
pub struct PrsChord {
    pub chord: Chord,
}

impl PrsChord {
    pub fn new(chord: Chord) -> Self {
        PrsChord { chord }
    }

    /// PRS route from `src` to the owner of `key`: the slot path.
    pub fn route_path(&self, net: &OverlayNet, src: Slot, key: u64) -> Vec<Slot> {
        let dst = self.chord.owner_of(key);
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            let cur_gap = key.wrapping_sub(self.chord.id(cur));
            // Entries in (cur, key], i.e. strictly reducing the gap.
            let progressing: Vec<(u64, Slot)> = self
                .chord
                .entries(cur)
                .iter()
                .map(|&e| (key.wrapping_sub(self.chord.id(e)), e))
                .filter(|&(gap, _)| gap < cur_gap)
                .collect();
            let next = if progressing.is_empty() {
                self.chord.successor(cur)
            } else {
                // Near-greedy with proximity tie-breaking: candidates whose
                // remaining gap is within 2× of the best are "ties" (they
                // cost at most one extra halving); forward to the
                // physically nearest tie.
                let best_gap = progressing.iter().map(|&(g, _)| g).min().unwrap();
                progressing
                    .iter()
                    .copied()
                    .filter(|&(g, _)| g <= best_gap.saturating_mul(2))
                    .min_by_key(|&(_, e)| net.d(cur, e))
                    .unwrap()
                    .1
            };
            debug_assert_ne!(next, cur, "PRS made no progress");
            path.push(next);
            cur = next;
        }
        path
    }
}

impl Lookup for PrsChord {
    fn lookup(&self, net: &OverlayNet, src: Slot, dst: Slot) -> Option<RouteOutcome> {
        let path = self.route_path(net, src, self.chord.id(dst));
        debug_assert_eq!(*path.last().unwrap(), dst);
        Some(net.route_outcome(&path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engine::SimRng;
    use prop_netsim::{generate, LatencyOracle, TransitStubParams};
    use prop_overlay::chord::ChordParams;
    use std::sync::Arc;

    fn setup(n: usize, seed: u64) -> (PrsChord, OverlayNet) {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::ts_small(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
        let (chord, net) = Chord::build(ChordParams::default(), oracle, &mut rng);
        (PrsChord::new(chord), net)
    }

    #[test]
    fn prs_lookups_terminate_at_owner() {
        let (prs, net) = setup(60, 1);
        for a in 0..60u32 {
            for b in 0..60u32 {
                let out = prs.lookup(&net, Slot(a), Slot(b)).unwrap();
                if a == b {
                    assert_eq!(out.hops, 0);
                }
            }
        }
    }

    #[test]
    fn prs_hops_stay_logarithmic() {
        let (prs, net) = setup(80, 2);
        let mut hops = Vec::new();
        for a in 0..80u32 {
            for b in 0..80u32 {
                if a != b {
                    hops.push(prs.lookup(&net, Slot(a), Slot(b)).unwrap().hops);
                }
            }
        }
        // The halving rule guarantees O(log n); log₂(80) ≈ 6.3.
        let mean = hops.iter().sum::<u32>() as f64 / hops.len() as f64;
        assert!(mean < 8.0, "mean hops {mean}");
        assert!(*hops.iter().max().unwrap() < 64);
    }

    #[test]
    fn prs_latency_beats_greedy_chord() {
        let (prs, net) = setup(150, 3);
        let (mut greedy, mut prs_lat) = (0u64, 0u64);
        let mut rng = SimRng::seed_from(4);
        for _ in 0..3000 {
            let a = Slot(rng.range(0..150u32));
            let b = Slot(rng.range(0..150u32));
            if a == b {
                continue;
            }
            greedy += prs.chord.lookup(&net, a, b).unwrap().latency_ms;
            prs_lat += prs.lookup(&net, a, b).unwrap().latency_ms;
        }
        // Same pairs on both sides, so comparing sums compares means.
        assert!(prs_lat < greedy, "PRS total {prs_lat} ms should beat greedy {greedy} ms");
    }

    #[test]
    fn prs_gap_monotonically_decreases() {
        let (prs, net) = setup(50, 5);
        let src = Slot(0);
        let dst = Slot(31);
        let key = prs.chord.id(dst);
        let path = prs.route_path(&net, src, key);
        let mut prev = key.wrapping_sub(prs.chord.id(src));
        for &s in &path[1..] {
            let gap = key.wrapping_sub(prs.chord.id(s));
            assert!(gap < prev);
            prev = gap;
        }
    }
}
