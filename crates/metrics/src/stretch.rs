//! Stretch (§4.2): how well the logical topology matches the physical one.

use crate::plane::MEASURE_CHUNK;
use prop_engine::par;
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

/// What one pair contributes to the mean.
#[derive(Clone, Copy, Debug)]
enum PairStretch {
    Delivered(f64),
    Failed,
    Skipped,
}

impl PairStretch {
    fn measure(
        net: &OverlayNet,
        overlay: &impl Lookup,
        (src, dst): (Slot, Slot),
        scratch: &mut FloodScratch,
    ) -> Self {
        // A vacated slot has no peer to ask the oracle about.
        if !net.graph().is_alive(src) || !net.graph().is_alive(dst) {
            return PairStretch::Skipped;
        }
        let direct = net.d(src, dst);
        if direct == 0 {
            return PairStretch::Skipped;
        }
        match overlay.lookup_with(net, src, dst, scratch) {
            Some(out) => PairStretch::Delivered(out.latency_ms as f64 / direct as f64),
            None => PairStretch::Failed,
        }
    }
}

/// The summary of the per-pair outcomes, in pair order. The ratio sum is
/// an f64 — *not* associative — so it is grouped by a constant: each
/// [`MEASURE_CHUNK`] of pairs is summed on its own, in order, and the chunk
/// sums are added in chunk order (see [`crate::plane`]).
fn fold(pairs: &[PairStretch]) -> StretchSummary {
    let (mut sum, mut delivered, mut failed, mut skipped) = (0.0, 0u64, 0u64, 0u64);
    for chunk in pairs.chunks(MEASURE_CHUNK) {
        let mut chunk_sum = 0.0;
        for &pair in chunk {
            match pair {
                PairStretch::Delivered(ratio) => {
                    chunk_sum += ratio;
                    delivered += 1;
                }
                PairStretch::Failed => failed += 1,
                PairStretch::Skipped => skipped += 1,
            }
        }
        sum += chunk_sum;
    }
    StretchSummary { mean: sum / delivered as f64, delivered, failed, skipped }
}

/// *Path stretch*: mean over lookups of (overlay route latency) /
/// (direct physical latency). The natural reading for DHTs, where a lookup
/// has a well-defined route; used for the Chord experiments (Fig. 6).
/// Pairs with zero physical distance or a departed endpoint, and
/// undelivered lookups, are excluded from the mean but reported in the
/// summary. The pairs are fanned out through
/// [`prop_engine::par::map_init`] — one [`FloodScratch`] per worker, a list
/// of at most [`MEASURE_CHUNK`] pairs measured inline — and the ratios,
/// back in pair order, are added in one order on any machine.
pub fn path_stretch(
    net: &OverlayNet,
    overlay: &impl Lookup,
    pairs: &[(Slot, Slot)],
) -> StretchSummary {
    fold(&par::map_init(pairs, MEASURE_CHUNK, FloodScratch::new, |scratch, &pair| {
        PairStretch::measure(net, overlay, pair, scratch)
    }))
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

    /// The sequential reference: one scratch, every pair in order on the
    /// calling thread, each chunk's ratios summed and the chunk sums folded
    /// in chunk order.
    fn sequential(
        net: &OverlayNet,
        overlay: &impl Lookup,
        pairs: &[(Slot, Slot)],
    ) -> StretchSummary {
        let mut scratch = FloodScratch::new();
        let (mut sum, mut delivered, mut failed, mut skipped) = (0.0, 0, 0, 0);
        for chunk in pairs.chunks(MEASURE_CHUNK) {
            let mut chunk_sum = 0.0;
            for &(a, b) in chunk {
                let g = net.graph();
                if !g.is_alive(a) || !g.is_alive(b) || net.d(a, b) == 0 {
                    skipped += 1;
                    continue;
                }
                match overlay.lookup_with(net, a, b, &mut scratch) {
                    Some(out) => {
                        chunk_sum += out.latency_ms as f64 / net.d(a, b) as f64;
                        delivered += 1;
                    }
                    None => failed += 1,
                }
            }
            sum += chunk_sum;
        }
        StretchSummary { mean: sum / delivered as f64, delivered, failed, skipped }
    }

    /// Every NaN read as one: the sign of `0.0 / 0.0`, the empty
    /// workload's mean, depends on whether the compiler folded it.
    fn bits(s: StretchSummary) -> (u64, u64, u64, u64) {
        let mean = if s.mean.is_nan() { f64::NAN } else { s.mean };
        (mean.to_bits(), s.delivered, s.failed, s.skipped)
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
        assert!(serial.skipped >= naming);
        assert_eq!(serial.delivered + serial.failed + serial.skipped, 650);
        assert_eq!(bits(path_stretch(&net, &gn, &pairs)), bits(serial));
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let (ch, net, rng) = chord(30, 4);
        let live: Vec<Slot> = net.graph().live_slots().collect();
        let all = LookupGen::new(&rng).uniform_pairs(&live, 650);
        // Empty, one pair, either side of one chunk, and lists that are
        // no multiple of MEASURE_CHUNK (the ragged tail).
        for len in [0, 1, 255, 256, 257, 600, 650] {
            let pairs = &all[..len];
            let want = bits(sequential(&net, &ch, pairs));
            assert_eq!(bits(path_stretch(&net, &ch, pairs)), want, "{len} pairs");
        }
    }
}
