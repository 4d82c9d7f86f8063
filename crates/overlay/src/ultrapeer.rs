//! Two-tier (ultrapeer/leaf) Gnutella.
//!
//! Deployed Gnutella evolved past the flat random graph the paper
//! simulates: well-provisioned **ultrapeers** form the flooding mesh and
//! ordinary **leaves** hang off a couple of ultrapeers each, never
//! relaying queries. The paper's related work cites exactly this kind of
//! hierarchy (Liu et al.'s bipartite overlay), and it is the natural
//! stress test for PROP's claim of working on *any* self-organized
//! topology: the degree structure here is bimodal by design, so a scheme
//! that deforms degrees breaks the architecture outright.
//!
//! * Construction: the first `n_up` peers (the "capable" ones) build a
//!   preferential-attachment mesh among themselves; every later peer is a
//!   leaf attaching to [`LEAF_LINKS`] ultrapeers.
//! * Lookup: the source hands the query to its ultrapeer(s); it floods
//!   across the mesh with a TTL; the destination's ultrapeer delivers the
//!   last hop. **Leaves never relay**, which the latency model enforces.
//! * PROP runs unchanged on the whole overlay: PROP-G swaps positions
//!   across tiers (a capable peer can take over a leaf position and vice
//!   versa — position, not role, is what moves), PROP-O swaps subsets and
//!   preserves the bimodal degree profile exactly.

use crate::logical::{LogicalGraph, Slot};
use crate::net::OverlayNet;
use crate::placement::Placement;
use crate::{Lookup, RouteOutcome};
use prop_engine::SimRng;
use prop_netsim::LatencyOracle;
use std::sync::Arc;

/// Fraction of slots that are ultrapeers (Gnutella ~10–20%).
pub const ULTRAPEER_FRACTION: f64 = 0.2;
/// Mesh links each ultrapeer opens when joining the top tier.
pub const MESH_LINKS: usize = 4;
/// Ultrapeers each leaf attaches to (Gnutella clients use 2–3).
pub const LEAF_LINKS: usize = 2;
/// Flood TTL within the ultrapeer mesh.
pub const FLOOD_TTL: u32 = 5;

/// The two-tier overlay.
#[derive(Clone, Debug)]
pub struct Ultrapeer {
    /// Which *slots* are ultrapeer positions (fixed: positions have roles;
    /// PROP-G moves peers between positions).
    is_ultrapeer: Vec<bool>,
}

impl Ultrapeer {
    /// Build over the oracle's members: slots `0..n_up` are the ultrapeer
    /// mesh, the rest are leaves.
    pub fn build(oracle: Arc<LatencyOracle>, rng: &mut SimRng) -> (Ultrapeer, OverlayNet) {
        let n = oracle.len();
        let n_up = ((n as f64 * ULTRAPEER_FRACTION).round() as usize).max(MESH_LINKS + 1).min(n);
        assert!(n_up < n, "need at least one leaf");
        let mut rng = rng.fork("ultrapeer-build");
        let mut edges = Vec::with_capacity(MESH_LINKS * n_up + LEAF_LINKS * (n - n_up));

        // Ultrapeer mesh: the flat Gnutella builder's preferential
        // attachment, restricted to the top tier.
        crate::gnutella::preferential_attachment(&mut edges, n_up, MESH_LINKS, &mut rng);

        // Leaves: attach to `LEAF_LINKS` distinct random ultrapeers. Every
        // ultrapeer slot is below every leaf slot.
        let ups: Vec<Slot> = (0..n_up as u32).map(Slot).collect();
        for s in n_up..n {
            let leaf = Slot(s as u32);
            for up in rng.sample_distinct(&ups, LEAF_LINKS.min(n_up)) {
                edges.push((up, leaf));
            }
        }
        edges.sort_unstable();
        let g = LogicalGraph::from_sorted_edges(n, &edges);

        let is_ultrapeer = (0..n).map(|i| i < n_up).collect();
        let net = OverlayNet::new(g, Placement::identity(n), oracle);
        (Ultrapeer { is_ultrapeer }, net)
    }

    /// Is `s` an ultrapeer *position*?
    #[inline]
    pub fn is_ultrapeer(&self, s: Slot) -> bool {
        self.is_ultrapeer[s.index()]
    }

    /// Leaf-aware flood into caller-owned scratch (see
    /// [`crate::FloodScratch`]): cheapest delivery from `src` to `dst` where
    /// only ultrapeer positions relay. Hop budget: 1 (into the mesh) +
    /// [`FLOOD_TTL`] (mesh) + 1 (out to a leaf). Like a flat lookup it
    /// floods from its cheaper end
    /// ([`OverlayNet::min_latency_within_hops_with`]); a flood from `dst`
    /// lets `dst` relay in place of `src`, so it may take the same walks.
    pub fn flood_latency_with(
        &self,
        net: &OverlayNet,
        src: Slot,
        dst: Slot,
        scratch: &mut crate::FloodScratch,
    ) -> Option<(u64, u32)> {
        net.flood_from_cheaper_end(src, dst, FLOOD_TTL + 2, scratch, |from, u| {
            u == from || self.is_ultrapeer(u)
        })
    }
}

impl Lookup for Ultrapeer {
    fn lookup_with(
        &self,
        net: &OverlayNet,
        src: Slot,
        dst: Slot,
        scratch: &mut crate::FloodScratch,
    ) -> Option<RouteOutcome> {
        self.flood_latency_with(net, src, dst, scratch)
            .map(|(latency_ms, hops)| RouteOutcome { latency_ms, hops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netsim::{generate, TransitStubParams};

    fn oracle(n: usize, seed: u64) -> Arc<LatencyOracle> {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng))
    }

    fn build(n: usize, seed: u64) -> (Ultrapeer, OverlayNet) {
        let mut rng = SimRng::seed_from(seed);
        Ultrapeer::build(oracle(n, seed), &mut rng)
    }

    #[test]
    fn tiers_have_expected_shape() {
        let (up, net) = build(40, 1);
        assert_eq!((0..40).filter(|&s| up.is_ultrapeer(Slot(s))).count(), 8);
        assert!(net.graph().is_connected());
        // Every leaf has exactly `LEAF_LINKS` edges, all into the top tier.
        for s in 8..40u32 {
            let leaf = Slot(s);
            assert!(!up.is_ultrapeer(leaf));
            assert_eq!(net.graph().degree(leaf), 2);
            for &nb in net.graph().neighbors(leaf) {
                assert!(up.is_ultrapeer(nb), "leaf {s} wired to another leaf");
            }
        }
    }

    #[test]
    fn lookups_deliver_between_all_pairs() {
        let (up, net) = build(40, 2);
        for a in 0..40u32 {
            for b in 0..40u32 {
                let out = up.lookup(&net, Slot(a), Slot(b));
                assert!(out.is_some(), "undelivered {a}→{b}");
            }
        }
    }

    #[test]
    fn leaves_never_relay() {
        // A query between two leaves sharing no ultrapeer must take ≥ 3
        // hops (leaf → up → … → up → leaf), never 2 via another leaf.
        let (up, net) = build(40, 3);
        let mut scratch = crate::FloodScratch::new();
        for a in 8..40u32 {
            for b in 8..40u32 {
                if a == b {
                    continue;
                }
                let (_, hops) =
                    up.flood_latency_with(&net, Slot(a), Slot(b), &mut scratch).unwrap();
                let share_up = net
                    .graph()
                    .neighbors(Slot(a))
                    .iter()
                    .any(|&x| net.graph().has_edge(x, Slot(b)));
                if share_up {
                    assert!(hops >= 2);
                } else {
                    assert!(hops >= 3, "{a}→{b} took {hops} hops without a shared ultrapeer");
                }
            }
        }
    }

    #[test]
    fn hop_budget_is_the_mesh_ttl_plus_a_hop_at_each_end() {
        // Leaf 38 – ultrapeers 0..=k – leaf 39 in a line: `k` mesh hops.
        let o = oracle(40, 6);
        let (up, _) = Ultrapeer::build(Arc::clone(&o), &mut SimRng::seed_from(6));
        let line = |mesh_hops: u32| {
            let mut g = LogicalGraph::new(40);
            let mut prev = Slot(38);
            for u in (0..=mesh_hops).map(Slot) {
                assert!(up.is_ultrapeer(u));
                g.add_edge(prev, u);
                prev = u;
            }
            g.add_edge(prev, Slot(39));
            OverlayNet::new(g, Placement::identity(40), Arc::clone(&o))
        };
        let mut scratch = crate::FloodScratch::new();
        let out = up.flood_latency_with(&line(FLOOD_TTL), Slot(38), Slot(39), &mut scratch);
        assert_eq!(out.map(|(_, hops)| hops), Some(FLOOD_TTL + 2));
        let out = up.flood_latency_with(&line(FLOOD_TTL + 1), Slot(38), Slot(39), &mut scratch);
        assert_eq!(out, None);
    }

    // PROP integration is covered by workspace-level tests
    // (tests/two_tier.rs); here we only verify the raw topology shape.
    #[test]
    fn placement_swap_keeps_tiers_fixed() {
        let (up, mut net) = build(30, 4);
        // Swap an ultrapeer position's occupant with a leaf position's.
        net.swap_peers(Slot(0), Slot(20));
        // Positions keep their roles…
        assert!(up.is_ultrapeer(Slot(0)));
        assert!(!up.is_ultrapeer(Slot(20)));
        // …and lookups still deliver.
        for b in 0..30u32 {
            assert!(up.lookup(&net, Slot(5), Slot(b)).is_some());
        }
    }

    #[test]
    fn deterministic_build() {
        let (_, n1) = build(30, 5);
        let (_, n2) = build(30, 5);
        for s in n1.graph().live_slots() {
            assert_eq!(n1.graph().neighbors(s), n2.graph().neighbors(s));
        }
    }
}
