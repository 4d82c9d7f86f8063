//! PNS: Proximity Neighbor Selection for Chord and Pastry.
//!
//! When several nodes legally satisfy a routing-table entry, pick the
//! physically closest (Castro et al., "Exploiting network proximity in
//! peer-to-peer overlay networks"). For Chord, finger `i` of node `n` may
//! point at any node in `[n + 2^{i-1}, n + 2^i)`; the canonical choice is
//! the first one, PNS picks the nearest of the first few. For Pastry —
//! PNS's original home — *any* node with the right prefix+digit satisfies
//! a routing cell, so PNS picks the nearest over all of them.
//!
//! This is the *protocol-dependent* technique the paper contrasts PROP-G
//! against — it needs the DHT to offer entry flexibility — and the partner
//! in the "combine PROP-G with recent methods" ablation (A3): PNS shortens
//! fingers at build time, PROP-G keeps optimizing placements afterwards.

use prop_engine::SimRng;
use prop_netsim::LatencyOracle;
use prop_overlay::chord::{Chord, ChordParams};
use prop_overlay::pastry::{Pastry, PastryParams};
use prop_overlay::OverlayNet;
use std::sync::Arc;

/// Build a Chord overlay whose fingers are proximity-selected: among each
/// finger's legal candidates, take the one with the lowest physical latency
/// to the owning node (under the initial identity placement, where slot `i`
/// is peer `i` — i.e. selection happens at join time, as real PNS does).
pub fn build_pns_chord(
    params: ChordParams,
    oracle: Arc<LatencyOracle>,
    rng: &mut SimRng,
) -> (Chord, OverlayNet) {
    let o = Arc::clone(&oracle);
    Chord::build_with_selector(params, oracle, rng, move |slot, candidates, _i| {
        *candidates
            .iter()
            .min_by_key(|&&c| o.d(slot.index(), c.index()))
            .expect("candidates nonempty")
    })
}

/// Build a Pastry overlay with proximity-selected routing tables: every
/// cell takes the physically nearest node among all that legally fill it.
pub fn build_pns_pastry(
    params: PastryParams,
    oracle: Arc<LatencyOracle>,
    rng: &mut SimRng,
) -> (Pastry, OverlayNet) {
    let o = Arc::clone(&oracle);
    Pastry::build_with_selector(params, oracle, rng, move |slot, candidates| {
        *candidates
            .iter()
            .min_by_key(|&&c| o.d(slot.index(), c.index()))
            .expect("candidates nonempty")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netsim::{generate, TransitStubParams};
    use prop_overlay::{Lookup, Slot};

    fn oracle(n: usize, seed: u64) -> Arc<LatencyOracle> {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::ts_small(), &mut rng);
        Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng))
    }

    #[test]
    fn pns_lowers_mean_link_latency_vs_vanilla() {
        let o = oracle(120, 1);
        let mut rng = SimRng::seed_from(1);
        let (_, vanilla) = Chord::build(ChordParams::default(), Arc::clone(&o), &mut rng);
        let mut rng = SimRng::seed_from(1);
        let (_, pns) = build_pns_chord(ChordParams::default(), o, &mut rng);
        assert!(
            pns.mean_link_latency() < vanilla.mean_link_latency(),
            "PNS {:.1} should beat vanilla {:.1}",
            pns.mean_link_latency(),
            vanilla.mean_link_latency()
        );
    }

    #[test]
    fn pns_lookups_remain_correct_and_fast() {
        let o = oracle(80, 2);
        let mut rng = SimRng::seed_from(2);
        let (chord, net) = build_pns_chord(ChordParams::default(), o, &mut rng);
        let mut hops = Vec::new();
        for a in 0..80u32 {
            for b in 0..80u32 {
                if a != b {
                    hops.push(chord.lookup(&net, Slot(a), Slot(b)).unwrap().hops);
                }
            }
        }
        let mean = hops.iter().sum::<u32>() as f64 / hops.len() as f64;
        assert!(mean < 8.0, "mean hops {mean}");
    }

    #[test]
    fn pns_overlay_connected() {
        let o = oracle(60, 3);
        let mut rng = SimRng::seed_from(3);
        let (_, net) = build_pns_chord(ChordParams::default(), o, &mut rng);
        assert!(net.graph().is_connected());
    }

    #[test]
    fn pns_pastry_lowers_mean_link_latency_vs_vanilla() {
        let o = oracle(120, 4);
        let mut rng = SimRng::seed_from(4);
        let (_, vanilla) = Pastry::build(PastryParams::default(), Arc::clone(&o), &mut rng);
        let mut rng = SimRng::seed_from(4);
        let (_, pns) = build_pns_pastry(PastryParams::default(), o, &mut rng);
        assert!(
            pns.mean_link_latency() < vanilla.mean_link_latency(),
            "PNS-Pastry {:.1} should beat vanilla {:.1}",
            pns.mean_link_latency(),
            vanilla.mean_link_latency()
        );
    }

    #[test]
    fn pns_pastry_routes_correctly() {
        let o = oracle(80, 5);
        let mut rng = SimRng::seed_from(5);
        let (pastry, net) = build_pns_pastry(PastryParams::default(), o, &mut rng);
        let mut hops = Vec::new();
        for a in (0..80u32).step_by(3) {
            for b in 0..80u32 {
                if a != b {
                    hops.push(pastry.lookup(&net, Slot(a), Slot(b)).unwrap().hops);
                }
            }
        }
        let mean = hops.iter().sum::<u32>() as f64 / hops.len() as f64;
        assert!(mean < 5.0, "mean hops {mean}");
    }
}
