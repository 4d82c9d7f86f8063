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
    /// Flood TTL for lookups (classic Gnutella default: 7).
    pub flood_ttl: u32,
}

impl Default for GnutellaParams {
    fn default() -> Self {
        GnutellaParams { links_per_join: 4, flood_ttl: 7 }
    }
}

/// Wire slots `0..n` by preferential attachment: a seed clique on slots
/// `0..=k`, then each later slot in index order links to `k` distinct
/// earlier slots drawn with probability ∝ degree (Barabási–Albert), so the
/// minimum degree is exactly `k`. Each edge is pushed onto `edges` once, as
/// `(min, max)`; the graph is never read, so the caller sorts the list and
/// wires it in one pass ([`LogicalGraph::from_sorted_edges`]). Shared by
/// the flat overlay and the two-tier overlay's ultrapeer mesh.
pub(crate) fn preferential_attachment(
    edges: &mut Vec<(Slot, Slot)>,
    n: usize,
    k: usize,
    rng: &mut SimRng,
) {
    // `endpoints` holds each edge's two ends; sampling a uniform entry
    // samples a slot with probability ∝ its degree.
    let mut endpoints: Vec<Slot> = Vec::with_capacity(2 * n * k);
    for a in 0..=(k as u32) {
        for b in (a + 1)..=(k as u32) {
            edges.push((Slot(a), Slot(b)));
            endpoints.push(Slot(a));
            endpoints.push(Slot(b));
        }
    }
    let mut chosen: Vec<Slot> = Vec::with_capacity(k);
    for s in (k + 1)..n {
        let joiner = Slot(s as u32);
        chosen.clear();
        while chosen.len() < k {
            let target = *rng.pick(&endpoints).expect("seed clique populated endpoints");
            if target != joiner && !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &t in &chosen {
            // Every target joined earlier: it is the smaller end.
            edges.push((t, joiner));
            endpoints.push(joiner);
            endpoints.push(t);
        }
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
        let mut edges = Vec::with_capacity(k * n);
        preferential_attachment(&mut edges, n, k, &mut rng);
        edges.sort_unstable();
        let g = LogicalGraph::from_sorted_edges(n, &edges);

        let net = OverlayNet::new(g, Placement::identity(n), oracle);
        (Gnutella { params }, net)
    }

    /// Churn: a previously-absent `peer` joins, wiring `links_per_join`
    /// connections to random live slots. Returns its new slot.
    ///
    /// O(k log n): the targets are drawn as ranks over the live population
    /// and resolved through the graph's rank index — the draws
    /// `sample_distinct` would make over the collected live slots, without
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
    /// connected. Returns those former neighbors in ascending order, its
    /// row before the leave: the slots whose rows changed, which is what
    /// the driver's `handle_leave` takes.
    pub fn leave(&self, net: &mut OverlayNet, slot: Slot, rng: &mut SimRng) -> Vec<Slot> {
        let mut orphans = net.graph_mut().remove_slot(slot);
        net.placement_mut().vacate(slot);
        rng.shuffle(&mut orphans);
        for w in orphans.windows(2) {
            if !net.graph().has_edge(w[0], w[1]) {
                net.graph_mut().add_edge(w[0], w[1]);
            }
        }
        orphans.sort_unstable();
        orphans
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
        let (_, pref) = Gnutella::build(GnutellaParams::default(), o, &mut rng);
        let seq = pref.graph().degree_sequence();
        // Max degree should noticeably exceed the per-join link count.
        assert!(*seq.last().unwrap() > 6, "degree sequence {seq:?}");
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

    /// `leave` returns the departing slot's row as it stood before the
    /// leave, byte for byte, and otherwise does what the leave that
    /// returned nothing did: the same patch cycle from the same draws, on
    /// two copies of an overlay under the same churn.
    #[test]
    fn leave_returns_the_pre_leave_row() {
        fn leave_reference(net: &mut OverlayNet, slot: Slot, rng: &mut SimRng) {
            let mut orphans = net.graph_mut().remove_slot(slot);
            net.placement_mut().vacate(slot);
            rng.shuffle(&mut orphans);
            for w in orphans.windows(2) {
                if !net.graph().has_edge(w[0], w[1]) {
                    net.graph_mut().add_edge(w[0], w[1]);
                }
            }
        }
        let bytes = |row: &[Slot]| row.iter().flat_map(|s| s.0.to_le_bytes()).collect::<Vec<u8>>();
        for case in 0..24u64 {
            let (gn, mut a) = build(30, 200 + case);
            let (_, mut b) = build(30, 200 + case);
            let (mut ra, mut rb) = (SimRng::seed_from(case), SimRng::seed_from(case));
            for round in 0..16u32 {
                let at = format!("case {case}, round {round}");
                // Every fourth leave takes the biggest hub.
                let pick = |net: &OverlayNet, rng: &mut SimRng| {
                    let g = net.graph();
                    match round % 4 {
                        0 => g.live_slots().max_by_key(|&s| g.degree(s)),
                        _ => g.pick_live(rng, None),
                    }
                };
                let victim = pick(&a, &mut ra).unwrap();
                assert_eq!(pick(&b, &mut rb), Some(victim), "{at}");
                let row = bytes(a.graph().neighbors(victim));
                let peer = a.peer(victim);
                let returned = gn.leave(&mut a, victim, &mut ra);
                leave_reference(&mut b, victim, &mut rb);
                assert_eq!(bytes(&returned), row, "{at}");
                for s in a.graph().live_slots() {
                    assert_eq!(a.graph().neighbors(s), b.graph().neighbors(s), "{at}, {s:?}");
                }
                let slot = gn.join(&mut a, peer, &mut ra);
                assert_eq!(gn.join(&mut b, peer, &mut rb), slot, "{at}");
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

    /// The attachment as it was before it pushed pairs, kept as the
    /// reference: an `add_edge` into the graph per edge.
    fn preferential_attachment_reference(
        g: &mut LogicalGraph,
        n: usize,
        k: usize,
        rng: &mut SimRng,
    ) {
        let mut endpoints: Vec<Slot> = Vec::with_capacity(2 * n * k);
        for a in 0..=(k as u32) {
            for b in (a + 1)..=(k as u32) {
                g.add_edge(Slot(a), Slot(b));
                endpoints.push(Slot(a));
                endpoints.push(Slot(b));
            }
        }
        let mut chosen: Vec<Slot> = Vec::with_capacity(k);
        for s in (k + 1)..n {
            let joiner = Slot(s as u32);
            chosen.clear();
            while chosen.len() < k {
                let target = *rng.pick(&endpoints).unwrap();
                if target != joiner && !chosen.contains(&target) {
                    chosen.push(target);
                }
            }
            for &t in &chosen {
                g.add_edge(joiner, t);
                endpoints.push(joiner);
                endpoints.push(t);
            }
        }
    }

    /// Both builders that wire preferential attachment — the flat overlay
    /// and the ultrapeer mesh with its leaf links — against `new` plus an
    /// `add_edge` per edge, drawing from the same fork: the same graph,
    /// every cache included, at one to four links a join.
    #[test]
    fn sorted_edge_attachment_is_the_add_edge_loop() {
        use crate::ultrapeer::{Ultrapeer, LEAF_LINKS, MESH_LINKS};
        for case in 0..24u64 {
            // `tiny()` has 40 stub hosts.
            let n = [6, 7, 11, 23, 32, 40][case as usize % 6];
            let links_per_join = 1 + case as usize % 4;
            let o = oracle(n, 300 + case);
            let params = GnutellaParams { links_per_join, ..GnutellaParams::default() };
            let parent = SimRng::seed_from(case);

            let (mut rng, mut fork) = (parent.clone(), parent.fork("gnutella-build"));
            let (_, net) = Gnutella::build(params, o.clone(), &mut rng);
            let mut looped = LogicalGraph::new(n);
            preferential_attachment_reference(&mut looped, n, links_per_join, &mut fork);
            let at = format!("case {case}: Gnutella n {n} k {links_per_join}");
            let edges = |g: &LogicalGraph| g.edges().collect::<Vec<_>>();
            assert_eq!(edges(net.graph()), edges(&looped), "{at}");
            assert!(*net.graph() == looped, "{at}");

            let (mut rng, mut fork) = (parent.clone(), parent.fork("ultrapeer-build"));
            let (up, net) = Ultrapeer::build(o, &mut rng);
            let n_up = (0..n as u32).filter(|&s| up.is_ultrapeer(Slot(s))).count();
            let mut looped = LogicalGraph::new(n);
            preferential_attachment_reference(&mut looped, n_up, MESH_LINKS, &mut fork);
            let ups: Vec<Slot> = (0..n_up as u32).map(Slot).collect();
            for leaf in n_up..n {
                for u in fork.sample_distinct(&ups, LEAF_LINKS.min(n_up)) {
                    looped.add_edge(Slot(leaf as u32), u);
                }
            }
            let at = format!("case {case}: ultrapeer n {n}, {n_up} ultrapeers");
            assert_eq!(edges(net.graph()), edges(&looped), "{at}");
            assert!(*net.graph() == looped, "{at}");
        }
    }
}
