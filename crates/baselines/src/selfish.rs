//! The §3.1 strawman: *selfish* nearest-neighbor rewiring.
//!
//! "A traditional way … is to let each source node select one nearest node
//! in the candidate list and establish the connection with it. This selfish
//! method … is beneficial to the source node itself but is not always
//! beneficial to (or in some case may actually detract from) system-wide
//! optimization."
//!
//! Every step, a node finds its nearest 2-hop candidate, connects to it,
//! and drops its own farthest link — no cooperation, no degree preservation
//! for anyone else (the candidate's degree grows, the dropped neighbor's
//! shrinks). A drop is only performed when the dropped neighbor retains a
//! 2-hop alternative path, which keeps the overlay connected without
//! requiring global coordination. The A4 ablation compares the resulting
//! system-wide average latency against cooperative PROP.
//!
//! One step at a peer, run by [`crate::RewiringSim`] once a minute per
//! peer under [`crate::Rewiring::Selfish`].

use crate::rewiring::MIN_DEGREE;
use prop_overlay::{OverlayNet, Slot};

/// One selfish step at `u`. Returns whether `u` rewired.
pub(crate) fn step(net: &mut OverlayNet, u: Slot) -> bool {
    let g = net.graph();
    let direct: Vec<Slot> = g.neighbors(u).to_vec();
    if direct.len() <= MIN_DEGREE {
        return false;
    }
    // Nearest 2-hop candidate.
    let mut best: Option<(u32, Slot)> = None;
    for &x in &direct {
        for &w in g.neighbors(x) {
            if w != u && !g.has_edge(u, w) {
                let d = net.d(u, w);
                if best.is_none_or(|(b, _)| d < b) {
                    best = Some((d, w));
                }
            }
        }
    }
    let Some((d_new, w)) = best else { return false };
    // Farthest current neighbor, droppable only if it keeps a 2-hop
    // alternative to u and stays above the degree floor.
    let mut drop: Option<(u32, Slot)> = None;
    for &x in &direct {
        let dux = net.d(u, x);
        if dux <= d_new {
            continue; // not an improvement
        }
        if g.degree(x) <= MIN_DEGREE {
            continue;
        }
        let has_alt = g.neighbors(x).iter().any(|&y| y != u && g.has_edge(y, u));
        if has_alt && drop.is_none_or(|(b, _)| dux > b) {
            drop = Some((dux, x));
        }
    }
    let Some((_, victim)) = drop else { return false };
    net.graph_mut().remove_edge(u, victim);
    net.graph_mut().add_edge(u, w);
    true
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

    fn sim(n: usize, seed: u64) -> RewiringSim {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
        let (_, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        RewiringSim::new(net, Rewiring::Selfish, &mut rng)
    }

    #[test]
    fn selfish_rewiring_happens_and_stays_connected() {
        let mut s = sim(30, 1);
        for _ in 0..15 {
            s.run_for(Duration::from_minutes(2));
            assert!(s.net().graph().is_connected());
        }
        assert!(s.rewires() > 0);
    }

    #[test]
    fn selfish_does_not_preserve_degree_sequence() {
        let mut s = sim(40, 2);
        let before = s.net().graph().degree_sequence();
        s.run_for(Duration::from_minutes(40));
        assert!(s.rewires() > 0);
        assert_ne!(before, s.net().graph().degree_sequence());
    }

    #[test]
    fn respects_degree_floor() {
        let mut s = sim(30, 3);
        s.run_for(Duration::from_minutes(40));
        assert!(s.net().graph().min_degree().unwrap() >= MIN_DEGREE);
    }
}
