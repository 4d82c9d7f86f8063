//! Stretch (§4.2): how well the logical topology matches the physical one.

use crate::plane::{warm_pair_rows, MEASURE_CHUNK};
use prop_overlay::{FloodScratch, Lookup, OverlayNet, Slot};

/// *Link stretch*: mean logical link latency / mean physical link latency.
/// This is the paper's headline definition — the numerator is exactly the
/// quantity every accepted peer-exchange reduces (by `Var`).
pub fn link_stretch(net: &OverlayNet) -> f64 {
    net.stretch()
}

/// Result of measuring path stretch over a pair workload. Mirrors
/// [`crate::LatencySummary`]: the mean alone hides how much of the workload
/// actually contributed, so the disposition of every pair is reported.
#[derive(Clone, Copy, Debug)]
pub struct StretchSummary {
    /// Mean over delivered, non-co-located pairs of (route latency /
    /// direct physical latency). `NaN` when nothing was delivered.
    pub mean: f64,
    /// Pairs the overlay delivered and that entered the mean.
    pub delivered: u64,
    /// Pairs the overlay failed to deliver (e.g. flood TTL expired).
    pub failed: u64,
    /// Pairs for which the ratio is undefined, excluded from the mean: zero
    /// physical distance (co-located hosts), or an endpoint that has
    /// departed since the pair was drawn (a traffic window measures at its
    /// end, after later leaves).
    pub skipped: u64,
}

/// Partial sums over one fixed-size chunk of the workload. The ratio sum is
/// an f64 — *not* associative — so bit-determinism comes from the chunking
/// itself: chunks are [`MEASURE_CHUNK`]-sized, each chunk is summed
/// sequentially, and partials are folded in chunk-index order (see
/// [`crate::plane`]).
#[derive(Clone, Copy, Debug, Default)]
struct StretchPartial {
    ratio_sum: f64,
    delivered: u64,
    failed: u64,
    skipped: u64,
}

impl StretchPartial {
    fn measure(
        net: &OverlayNet,
        overlay: &impl Lookup,
        chunk: &[(Slot, Slot)],
        scratch: &mut FloodScratch,
    ) -> Self {
        let mut p = StretchPartial::default();
        for &(src, dst) in chunk {
            // A vacated slot has no peer to ask the oracle about.
            if !net.graph().is_alive(src) || !net.graph().is_alive(dst) {
                p.skipped += 1;
                continue;
            }
            let direct = net.d(src, dst);
            if direct == 0 {
                p.skipped += 1;
                continue;
            }
            match overlay.lookup_with(net, src, dst, scratch) {
                Some(out) => {
                    p.ratio_sum += out.latency_ms as f64 / direct as f64;
                    p.delivered += 1;
                }
                None => p.failed += 1,
            }
        }
        p
    }
}

fn fold_partials(partials: Vec<StretchPartial>) -> StretchSummary {
    let mut sum = 0.0;
    let mut delivered = 0u64;
    let mut failed = 0u64;
    let mut skipped = 0u64;
    for p in partials {
        sum += p.ratio_sum;
        delivered += p.delivered;
        failed += p.failed;
        skipped += p.skipped;
    }
    StretchSummary { mean: sum / delivered as f64, delivered, failed, skipped }
}

/// *Path stretch*: mean over lookups of (overlay route latency) /
/// (direct physical latency). The natural reading for DHTs, where a lookup
/// has a well-defined route; used for the Chord experiments (Fig. 6).
/// Pairs with zero physical distance or a departed endpoint, and
/// undelivered lookups, are excluded from the mean but reported in the
/// summary. Fixed-size chunks are measured and folded in chunk order, so
/// the float additions happen in one order. Oracle rows for the workload's
/// slots are prefetched first.
pub fn path_stretch(
    net: &OverlayNet,
    overlay: &impl Lookup,
    pairs: &[(Slot, Slot)],
) -> StretchSummary {
    warm_pair_rows(net, pairs);
    let partials = pairs
        .chunks(MEASURE_CHUNK)
        .map(|chunk| {
            let mut scratch = FloodScratch::new();
            StretchPartial::measure(net, overlay, chunk, &mut scratch)
        })
        .collect();
    fold_partials(partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engine::SimRng;
    use prop_netsim::{generate, LatencyOracle, TransitStubParams};
    use prop_overlay::chord::{Chord, ChordParams};
    use prop_workloads::LookupGen;
    use std::sync::Arc;

    fn chord(n: usize, seed: u64) -> (Chord, OverlayNet, SimRng) {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
        let (ch, net) = Chord::build(ChordParams::default(), oracle, &mut rng);
        (ch, net, rng)
    }

    /// The sequential reference: one scratch, chunks measured and folded in
    /// order on the calling thread.
    fn sequential(
        net: &OverlayNet,
        overlay: &impl Lookup,
        pairs: &[(Slot, Slot)],
    ) -> StretchSummary {
        let mut scratch = FloodScratch::new();
        let partials = pairs
            .chunks(MEASURE_CHUNK)
            .map(|chunk| StretchPartial::measure(net, overlay, chunk, &mut scratch))
            .collect();
        fold_partials(partials)
    }

    #[test]
    fn path_stretch_at_least_one() {
        // An overlay route can never beat the direct shortest path.
        let (ch, net, rng) = chord(30, 1);
        let live: Vec<Slot> = net.graph().live_slots().collect();
        let pairs = LookupGen::new(&rng).uniform_pairs(&live, 400);
        let s = path_stretch(&net, &ch, &pairs);
        assert!(s.mean >= 1.0, "stretch {}", s.mean);
        assert!(s.mean.is_finite());
        assert_eq!(s.delivered + s.failed + s.skipped, 400);
    }

    #[test]
    fn link_stretch_positive() {
        let (_, net, _) = chord(30, 2);
        let s = link_stretch(&net);
        assert!(s > 0.0 && s.is_finite());
    }

    #[test]
    fn better_placement_lowers_link_stretch() {
        // Greedily improving swaps must lower link stretch.
        let (_, mut net, _) = chord(30, 3);
        let before = link_stretch(&net);
        // Find any beneficial swap and apply it.
        let mut applied = false;
        'outer: for a in 0..30u32 {
            for b in 0..30u32 {
                if a == b {
                    continue;
                }
                let plan = prop_core::exchange::plan_propg(&net, Slot(a), Slot(b));
                if plan.var > 0 {
                    prop_core::exchange::apply(&mut net, &plan);
                    applied = true;
                    break 'outer;
                }
            }
        }
        assert!(applied, "no beneficial swap found in a random placement");
        assert!(link_stretch(&net) < before);
    }

    #[test]
    fn departed_endpoints_are_skipped_not_indexed() {
        use prop_overlay::gnutella::{Gnutella, GnutellaParams};
        let mut rng = SimRng::seed_from(5);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 30, &mut rng));
        let (gn, mut net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        // Pairs are drawn while everyone is alive; one endpoint then leaves.
        let live: Vec<Slot> = net.graph().live_slots().collect();
        let pairs = LookupGen::new(&rng).uniform_pairs(&live, 650);
        let gone = Slot(7);
        gn.leave(&mut net, gone, &mut rng);
        let naming = pairs.iter().filter(|&&(a, b)| a == gone || b == gone).count() as u64;
        assert!(naming > 0, "workload never names the departed slot");

        let serial = sequential(&net, &gn, &pairs);
        let parallel = path_stretch(&net, &gn, &pairs);
        assert!(serial.skipped >= naming);
        assert_eq!(serial.delivered + serial.failed + serial.skipped, 650);
        assert_eq!(serial.mean.to_bits(), parallel.mean.to_bits());
        assert_eq!(
            (serial.delivered, serial.failed, serial.skipped),
            (parallel.delivered, parallel.failed, parallel.skipped)
        );
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let (ch, net, rng) = chord(30, 4);
        let live: Vec<Slot> = net.graph().live_slots().collect();
        // Not a multiple of MEASURE_CHUNK: exercises the ragged tail.
        let pairs = LookupGen::new(&rng).uniform_pairs(&live, 650);
        let serial = sequential(&net, &ch, &pairs);
        let parallel = path_stretch(&net, &ch, &pairs);
        assert_eq!(serial.mean.to_bits(), parallel.mean.to_bits());
        assert_eq!(serial.delivered, parallel.delivered);
        assert_eq!(serial.failed, parallel.failed);
        assert_eq!(serial.skipped, parallel.skipped);
    }
}
