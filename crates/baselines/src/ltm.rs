//! LTM: Location-aware Topology Matching (Liu et al., TPDS '05).
//!
//! Each peer periodically floods a *detector* with a small TTL (2). Every
//! receiver learns its distance to the source, giving the source a latency
//! map of its ≤2-hop region. The peer then:
//!
//! 1. **cuts slow redundant links**: a direct link `u–w` is redundant when
//!    some common neighbor `x` offers a no-slower relay path
//!    (`d(u,x) + d(x,w) ≤ d(u,w)`). The alternative path stays inside the
//!    detected region, so cutting cannot disconnect the overlay;
//! 2. **adds closer nodes**: the nearest 2-hop neighbor that beats the
//!    peer's current worst link becomes a direct neighbor.
//!
//! Unlike PROP-O, cut and add are not paired per node, so degrees drift —
//! exactly the behavior the PROP paper criticizes ("free modification of
//! connections … impairs the natural feature of self-organizing overlay").
//!
//! One step at a peer, run by [`crate::RewiringSim`] once a minute per
//! peer under [`crate::Rewiring::Ltm`].

use crate::rewiring::MIN_DEGREE;
use prop_overlay::{OverlayNet, Slot};

/// Per-step cap on link cuts (LTM cuts "the most" redundant links; one
/// conservative cut per step keeps the overlay from thrashing).
const MAX_CUTS_PER_STEP: usize = 1;

/// One LTM optimization step at `u`: cut redundant links, add the best
/// 2-hop neighbor unless `u` is at `max_degree`. The detector flood (TTL 2)
/// is what lets `u` see the distances both halves read. Returns whether the
/// overlay changed.
pub(crate) fn step(net: &mut OverlayNet, u: Slot, max_degree: usize) -> bool {
    let direct: Vec<Slot> = net.graph().neighbors(u).to_vec();

    // ---- 1. cut slow redundant links ----
    // Candidates: direct links with a no-slower 2-hop relay via another
    // direct neighbor; cut the slowest first.
    let mut cuttable: Vec<(u32, Slot)> = Vec::new();
    for &w in &direct {
        let duw = net.d(u, w);
        let relay_exists = direct
            .iter()
            .any(|&x| x != w && net.graph().has_edge(x, w) && net.d(u, x) + net.d(x, w) <= duw);
        if relay_exists {
            cuttable.push((duw, w));
        }
    }
    cuttable.sort_by_key(|&(duw, _)| std::cmp::Reverse(duw));
    let mut cuts = 0;
    for (_, w) in cuttable {
        if cuts >= MAX_CUTS_PER_STEP {
            break;
        }
        if net.graph().degree(u) <= MIN_DEGREE || net.graph().degree(w) <= MIN_DEGREE {
            continue;
        }
        net.graph_mut().remove_edge(u, w);
        cuts += 1;
    }

    // ---- 2. add the closest 2-hop neighbor that beats the worst link ----
    if net.graph().degree(u) >= max_degree {
        return cuts > 0;
    }
    let direct_now: Vec<Slot> = net.graph().neighbors(u).to_vec();
    let worst = direct_now.iter().map(|&x| net.d(u, x)).max().unwrap_or(0);
    let mut best: Option<(u32, Slot)> = None;
    for &x in &direct_now {
        for &w in net.graph().neighbors(x) {
            if w == u || net.graph().has_edge(u, w) {
                continue;
            }
            let duw = net.d(u, w);
            if duw < worst && best.is_none_or(|(b, _)| duw < b) {
                best = Some((duw, w));
            }
        }
    }
    if let Some((_, w)) = best {
        net.graph_mut().add_edge(u, w);
    }
    cuts > 0 || best.is_some()
}

#[cfg(test)]
mod tests {
    use crate::rewiring::MIN_DEGREE;
    use crate::{Rewiring, RewiringSim};
    use prop_core::ChurnDriver;
    use prop_engine::{Duration, SimRng};
    use prop_netsim::{generate, LatencyOracle, TransitStubParams};
    use prop_overlay::gnutella::{Gnutella, GnutellaParams};
    use std::sync::Arc;

    fn ltm_sim(n: usize, seed: u64) -> RewiringSim {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
        let (_, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        RewiringSim::new(net, Rewiring::LTM, &mut rng)
    }

    #[test]
    fn ltm_reduces_mean_link_latency() {
        let mut sim = ltm_sim(30, 1);
        let before = sim.net().mean_link_latency();
        sim.run_for(Duration::from_minutes(30));
        let after = sim.net().mean_link_latency();
        assert!(after < before, "LTM should reduce mean link latency: {before:.1} → {after:.1}");
        assert!(sim.rewires() > 0);
    }

    #[test]
    fn ltm_preserves_connectivity() {
        let mut sim = ltm_sim(30, 2);
        for _ in 0..20 {
            sim.run_for(Duration::from_minutes(2));
            assert!(sim.net().graph().is_connected());
        }
    }

    #[test]
    fn ltm_respects_min_degree() {
        let mut sim = ltm_sim(30, 3);
        sim.run_for(Duration::from_minutes(40));
        let min = sim.net().graph().min_degree().unwrap();
        assert!(min >= MIN_DEGREE, "min degree {min}");
    }

    #[test]
    fn ltm_changes_degree_sequence() {
        // The PROP paper's critique: LTM does not preserve degrees.
        let mut sim = ltm_sim(40, 4);
        let before = sim.net().graph().degree_sequence();
        sim.run_for(Duration::from_minutes(40));
        let after = sim.net().graph().degree_sequence();
        assert_ne!(before, after, "expected LTM to reshape the degree distribution");
    }
}
