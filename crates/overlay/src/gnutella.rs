//! Gnutella-like unstructured overlay.
//!
//! Peers join by opening connections to a handful of already-present peers;
//! with preferential attachment this reproduces the power-law-ish degree
//! distribution measured on the real Gnutella network (Ripeanu et al.),
//! where "powerful, reliable nodes … inherently have more connections" —
//! the feature PROP-O is designed to preserve.
//!
//! Queries are flooded with a TTL. We model the latency of a flooded lookup
//! as the cost of the fastest ≤TTL-hop overlay path from requester to the
//! object holder — the path along which the first query copy arrives.

use crate::logical::{LogicalGraph, Slot};
use crate::net::OverlayNet;
use crate::placement::Placement;
use crate::{Lookup, RouteOutcome};
use prop_engine::SimRng;
use prop_netsim::LatencyOracle;
use std::sync::Arc;

/// Construction and flooding parameters.
#[derive(Clone, Debug)]
pub struct GnutellaParams {
    /// Connections each joining peer opens. This is also the minimum degree
    /// δ(G) of the resulting overlay (the paper's default PROP-O `m`).
    pub links_per_join: usize,
    /// Preferential attachment (`true`, power-law-ish, the Gnutella shape)
    /// vs uniform attachment.
    pub preferential: bool,
    /// Flood TTL for lookups (classic Gnutella default: 7).
    pub flood_ttl: u32,
}

impl Default for GnutellaParams {
    fn default() -> Self {
        GnutellaParams { links_per_join: 4, preferential: true, flood_ttl: 7 }
    }
}

/// The Gnutella overlay: flooding-based lookups over an [`OverlayNet`].
#[derive(Clone, Debug)]
pub struct Gnutella {
    pub params: GnutellaParams,
}

impl Gnutella {
    /// Build an `n`-peer overlay over the oracle's member population
    /// (`oracle.len() == n`), with peers joining in random order.
    pub fn build(
        params: GnutellaParams,
        oracle: Arc<LatencyOracle>,
        rng: &mut SimRng,
    ) -> (Gnutella, OverlayNet) {
        let n = oracle.len();
        let k = params.links_per_join;
        assert!(n > k, "need more than links_per_join peers");
        let mut rng = rng.fork("gnutella-build");
        let mut g = LogicalGraph::new(n);

        // `endpoints` holds each edge's two ends; sampling a uniform entry
        // samples a slot with probability ∝ its degree (preferential
        // attachment à la Barabási–Albert).
        let mut endpoints: Vec<Slot> = Vec::with_capacity(2 * n * k);

        // Seed clique of k+1 slots so every later joiner can find k targets
        // and the minimum degree is exactly k.
        for a in 0..=(k as u32) {
            for b in (a + 1)..=(k as u32) {
                g.add_edge(Slot(a), Slot(b));
                endpoints.push(Slot(a));
                endpoints.push(Slot(b));
            }
        }

        for s in (k + 1)..n {
            let joiner = Slot(s as u32);
            let mut chosen: Vec<Slot> = Vec::with_capacity(k);
            while chosen.len() < k {
                let target = if params.preferential {
                    *rng.pick(&endpoints).expect("seed clique populated endpoints")
                } else {
                    Slot(rng.range(0..s as u32))
                };
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

        let net = OverlayNet::new(g, Placement::identity(n), oracle);
        (Gnutella { params }, net)
    }

    /// Churn: a previously-absent `peer` joins, wiring `links_per_join`
    /// connections to random live slots. Returns its new slot.
    ///
    /// O(k log n): the targets are drawn as ranks over the live population
    /// and resolved through the graph's rank index — the draws
    /// `sample_distinct` would make over `live_slots().collect()`, without
    /// the two n-wide vectors per join.
    pub fn join(
        &self,
        net: &mut OverlayNet,
        peer: prop_netsim::oracle::MemberIdx,
        rng: &mut SimRng,
    ) -> Slot {
        let k = self.params.links_per_join;
        let live = net.graph().num_live();
        assert!(live >= k);
        let slot = net.graph_mut().add_slot();
        net.placement_mut().occupy(slot, peer);
        // The new slot has the highest index, so it sits past every rank
        // below `live`.
        for rank in rng.sample_distinct_ranks(live, k) {
            let t = net.graph().live_slot_at_rank(rank).expect("rank within live population");
            net.graph_mut().add_edge(slot, t);
        }
        slot
    }

    /// Churn: the peer at `slot` departs. Its former neighbors patch the
    /// hole by linking up in a random cycle (any route that used the
    /// departed node reroutes along the cycle), which keeps the overlay
    /// connected.
    pub fn leave(&self, net: &mut OverlayNet, slot: Slot, rng: &mut SimRng) {
        let mut orphans = net.graph_mut().remove_slot(slot);
        net.placement_mut().vacate(slot);
        rng.shuffle(&mut orphans);
        for w in orphans.windows(2) {
            if !net.graph().has_edge(w[0], w[1]) {
                net.graph_mut().add_edge(w[0], w[1]);
            }
        }
    }

    /// Sudden failure: the peer at `slot` vanishes *without* the graceful
    /// patch-up of [`Gnutella::leave`] — its neighbors simply lose a link,
    /// and the overlay may even partition until survivors re-join around
    /// the hole. Returns the orphaned former neighbors.
    pub fn crash(&self, net: &mut OverlayNet, slot: Slot) -> Vec<Slot> {
        let orphans = net.graph_mut().remove_slot(slot);
        net.placement_mut().vacate(slot);
        orphans
    }
}

impl Lookup for Gnutella {
    fn lookup(&self, net: &OverlayNet, src: Slot, dst: Slot) -> Option<RouteOutcome> {
        net.min_latency_within_hops(src, dst, self.params.flood_ttl)
            .map(|(latency_ms, hops)| RouteOutcome { latency_ms, hops })
    }

    fn lookup_with(
        &self,
        net: &OverlayNet,
        src: Slot,
        dst: Slot,
        scratch: &mut crate::FloodScratch,
    ) -> Option<RouteOutcome> {
        net.min_latency_within_hops_with(src, dst, self.params.flood_ttl, scratch)
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

    fn build(n: usize, seed: u64) -> (Gnutella, OverlayNet) {
        let mut rng = SimRng::seed_from(seed);
        Gnutella::build(GnutellaParams::default(), oracle(n, seed), &mut rng)
    }

    #[test]
    fn overlay_is_connected_with_min_degree_k() {
        let (_, net) = build(30, 1);
        assert!(net.graph().is_connected());
        assert_eq!(net.graph().min_degree(), Some(4));
        assert_eq!(net.graph().num_live(), 30);
    }

    #[test]
    fn preferential_attachment_skews_degrees() {
        let mut rng = SimRng::seed_from(2);
        let o = oracle(40, 2);
        let (_, pref) = Gnutella::build(
            GnutellaParams { preferential: true, ..Default::default() },
            Arc::clone(&o),
            &mut rng,
        );
        let seq = pref.graph().degree_sequence();
        // Max degree should noticeably exceed the per-join link count.
        assert!(*seq.last().unwrap() > 6, "degree sequence {seq:?}");
    }

    #[test]
    fn uniform_attachment_also_connected() {
        let mut rng = SimRng::seed_from(3);
        let (_, net) = Gnutella::build(
            GnutellaParams { preferential: false, ..Default::default() },
            oracle(25, 3),
            &mut rng,
        );
        assert!(net.graph().is_connected());
        assert_eq!(net.graph().min_degree(), Some(4));
    }

    #[test]
    fn lookup_reaches_most_pairs_within_ttl() {
        let (gn, net) = build(30, 4);
        let mut delivered = 0;
        for a in 0..30u32 {
            for b in 0..30u32 {
                if a != b && gn.lookup(&net, Slot(a), Slot(b)).is_some() {
                    delivered += 1;
                }
            }
        }
        // TTL 7 over a 30-node, min-degree-4 overlay: everything reachable.
        assert_eq!(delivered, 30 * 29);
    }

    #[test]
    fn lookup_latency_at_least_direct_distance_lower_bound() {
        // Overlay routes can't beat the physical shortest path.
        let (gn, net) = build(20, 5);
        for a in 0..20u32 {
            for b in 0..20u32 {
                if let Some(out) = gn.lookup(&net, Slot(a), Slot(b)) {
                    assert!(out.latency_ms >= net.d(Slot(a), Slot(b)) as u64);
                }
            }
        }
    }

    #[test]
    fn join_then_leave_preserves_connectivity() {
        let mut rng = SimRng::seed_from(6);
        let o = oracle(30, 6);
        // Build over only the first 25 peers; leave 5 for later joins.
        let sub: Vec<_> = (0..25).collect();
        let _ = sub;
        let (gn, mut net) = Gnutella::build(GnutellaParams::default(), o, &mut rng);
        // Peers 0..30 all placed; remove a few then rejoin them.
        for victim in [3u32, 7, 11] {
            let peer = net.peer(Slot(victim));
            gn.leave(&mut net, Slot(victim), &mut rng);
            assert!(net.graph().is_connected(), "disconnected after leave");
            let s = gn.join(&mut net, peer, &mut rng);
            assert!(net.graph().is_alive(s));
            assert!(net.graph().is_connected(), "disconnected after join");
        }
        assert!(net.placement().is_consistent());
    }

    /// `join` by ranks against the form it replaced — collect every live
    /// slot, `sample_distinct` over the vector — on two copies of an overlay
    /// under the same leaves, so the slot table has holes at both ends.
    #[test]
    fn join_by_rank_is_join_over_the_collected_live_slots() {
        fn join_reference(gn: &Gnutella, net: &mut OverlayNet, peer: usize, rng: &mut SimRng) {
            let live: Vec<Slot> = net.graph().live_slots().collect();
            let slot = net.graph_mut().add_slot();
            net.placement_mut().occupy(slot, peer);
            for t in rng.sample_distinct(&live, gn.params.links_per_join) {
                net.graph_mut().add_edge(slot, t);
            }
        }
        for case in 0..32u64 {
            let (gn, mut a) = build(24, 100 + case);
            let (_, mut b) = build(24, 100 + case);
            let (mut ra, mut rb) = (SimRng::seed_from(case), SimRng::seed_from(case));
            for round in 0..12u32 {
                let rank = ra.pick_rank(a.graph().num_live()).unwrap();
                assert_eq!(rb.pick_rank(b.graph().num_live()), Some(rank));
                let victim = match round % 3 {
                    0 => a.graph().live_slot_at_rank(0).unwrap(),
                    1 => a.graph().live_slot_at_rank(a.graph().num_live() - 1).unwrap(),
                    _ => a.graph().live_slot_at_rank(rank).unwrap(),
                };
                let peer = a.peer(victim);
                gn.leave(&mut a, victim, &mut ra);
                gn.leave(&mut b, victim, &mut rb);
                let slot = gn.join(&mut a, peer, &mut ra);
                join_reference(&gn, &mut b, peer, &mut rb);
                let at = format!("case {case}, round {round}");
                assert_eq!(a.graph().neighbors(slot), b.graph().neighbors(slot), "{at}");
                assert_eq!(a.graph().num_edges(), b.graph().num_edges(), "{at}");
            }
            assert_eq!(ra.range(0u64..u64::MAX), rb.range(0u64..u64::MAX), "case {case}: streams");
        }
    }

    #[test]
    fn leave_of_high_degree_hub_keeps_graph_connected() {
        let mut rng = SimRng::seed_from(7);
        let (gn, mut net) = Gnutella::build(GnutellaParams::default(), oracle(40, 7), &mut rng);
        // Remove the highest-degree slot.
        let hub = net.graph().live_slots().max_by_key(|&s| net.graph().degree(s)).unwrap();
        gn.leave(&mut net, hub, &mut rng);
        assert!(net.graph().is_connected());
    }

    #[test]
    fn deterministic_build() {
        let (_, n1) = build(20, 8);
        let (_, n2) = build(20, 8);
        for s in n1.graph().live_slots() {
            assert_eq!(n1.graph().neighbors(s), n2.graph().neighbors(s));
        }
    }
}
