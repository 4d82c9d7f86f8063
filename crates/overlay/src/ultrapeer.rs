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
//!   leaf attaching to `leaf_links` ultrapeers.
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

/// Two-tier construction parameters.
#[derive(Clone, Debug)]
pub struct UltrapeerParams {
    /// Fraction of slots that are ultrapeers (Gnutella ~10–20%).
    pub ultrapeer_fraction: f64,
    /// Mesh links each ultrapeer opens when joining the top tier.
    pub mesh_links: usize,
    /// Ultrapeers each leaf attaches to (Gnutella clients use 2–3).
    pub leaf_links: usize,
    /// Flood TTL within the ultrapeer mesh.
    pub flood_ttl: u32,
}

impl Default for UltrapeerParams {
    fn default() -> Self {
        UltrapeerParams { ultrapeer_fraction: 0.2, mesh_links: 4, leaf_links: 2, flood_ttl: 5 }
    }
}

/// The two-tier overlay.
#[derive(Clone, Debug)]
pub struct Ultrapeer {
    pub params: UltrapeerParams,
    /// Which *slots* are ultrapeer positions (fixed: positions have roles;
    /// PROP-G moves peers between positions).
    is_ultrapeer: Vec<bool>,
}

impl Ultrapeer {
    /// Build over the oracle's members: slots `0..n_up` are the ultrapeer
    /// mesh, the rest are leaves.
    pub fn build(
        params: UltrapeerParams,
        oracle: Arc<LatencyOracle>,
        rng: &mut SimRng,
    ) -> (Ultrapeer, OverlayNet) {
        let n = oracle.len();
        let n_up = ((n as f64 * params.ultrapeer_fraction).round() as usize)
            .max(params.mesh_links + 1)
            .min(n);
        assert!(n_up < n, "need at least one leaf");
        assert!(params.leaf_links >= 1);
        let mut rng = rng.fork("ultrapeer-build");
        let mut g = LogicalGraph::new(n);

        // Ultrapeer mesh: seed clique + preferential attachment, exactly
        // like the flat Gnutella builder but restricted to the top tier.
        let k = params.mesh_links;
        let mut endpoints: Vec<Slot> = Vec::new();
        for a in 0..=(k as u32) {
            for b in (a + 1)..=(k as u32) {
                g.add_edge(Slot(a), Slot(b));
                endpoints.push(Slot(a));
                endpoints.push(Slot(b));
            }
        }
        for s in (k + 1)..n_up {
            let joiner = Slot(s as u32);
            let mut chosen: Vec<Slot> = Vec::with_capacity(k);
            while chosen.len() < k {
                let target = *rng.pick(&endpoints).expect("seeded");
                if target != joiner && !chosen.contains(&target) {
                    chosen.push(target);
                }
            }
            for t in chosen {
                g.add_edge(joiner, t);
                endpoints.push(joiner);
                endpoints.push(t);
            }
        }

        // Leaves: attach to `leaf_links` distinct random ultrapeers.
        let ups: Vec<Slot> = (0..n_up as u32).map(Slot).collect();
        for s in n_up..n {
            let leaf = Slot(s as u32);
            for up in rng.sample_distinct(&ups, params.leaf_links.min(n_up)) {
                g.add_edge(leaf, up);
            }
        }

        let is_ultrapeer = (0..n).map(|i| i < n_up).collect();
        let net = OverlayNet::new(g, Placement::identity(n), oracle);
        (Ultrapeer { params, is_ultrapeer }, net)
    }

    /// Is `s` an ultrapeer *position*?
    #[inline]
    pub fn is_ultrapeer(&self, s: Slot) -> bool {
        self.is_ultrapeer[s.index()]
    }

    /// Number of ultrapeer positions.
    pub fn num_ultrapeers(&self) -> usize {
        self.is_ultrapeer.iter().filter(|&&u| u).count()
    }

    /// Leaf-aware flood: cheapest delivery from `src` to `dst` where only
    /// ultrapeer positions relay. Hop budget: 1 (into the mesh) +
    /// `flood_ttl` (mesh) + 1 (out to a leaf).
    pub fn flood_latency(&self, net: &OverlayNet, src: Slot, dst: Slot) -> Option<(u64, u32)> {
        let mut scratch = crate::FloodScratch::new();
        self.flood_latency_with(net, src, dst, &mut scratch)
    }

    /// [`Ultrapeer::flood_latency`] with caller-owned scratch (see
    /// [`crate::FloodScratch`]); identical answers, no per-call allocation.
    pub fn flood_latency_with(
        &self,
        net: &OverlayNet,
        src: Slot,
        dst: Slot,
        scratch: &mut crate::FloodScratch,
    ) -> Option<(u64, u32)> {
        if src == dst {
            return Some((0, 0));
        }
        let max_hops = self.params.flood_ttl + 2;
        let relays = |u: Slot| u == src || self.is_ultrapeer(u);
        scratch.run(
            net.graph(),
            src,
            dst,
            max_hops,
            relays,
            |u, v| net.d(u, v) as u64 + net.proc_delay(v) as u64,
            |u| net.d(dst, u) as u64,
        )
    }
}

impl Lookup for Ultrapeer {
    fn lookup(&self, net: &OverlayNet, src: Slot, dst: Slot) -> Option<RouteOutcome> {
        self.flood_latency(net, src, dst)
            .map(|(latency_ms, hops)| RouteOutcome { latency_ms, hops })
    }

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
        Ultrapeer::build(UltrapeerParams::default(), oracle(n, seed), &mut rng)
    }

    #[test]
    fn tiers_have_expected_shape() {
        let (up, net) = build(40, 1);
        assert_eq!(up.num_ultrapeers(), 8);
        assert!(net.graph().is_connected());
        // Every leaf has exactly `leaf_links` edges, all into the top tier.
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
        for a in 8..40u32 {
            for b in 8..40u32 {
                if a == b {
                    continue;
                }
                let (_, hops) = up.flood_latency(&net, Slot(a), Slot(b)).unwrap();
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
