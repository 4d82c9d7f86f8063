//! Flooding message cost.
//!
//! Latency is only half of a flooding overlay's economics: every query is
//! *broadcast* through the TTL region, so each query costs as many
//! messages as there are edges it crosses. Topology optimizers move this
//! number — densifying schemes (LTM with a generous cap) make every query
//! more expensive even as they make it faster, while degree-preserving
//! PROP leaves it untouched. This module counts it exactly.

use prop_overlay::{LogicalGraph, OverlayNet, Slot};

/// Number of messages a TTL-limited flood from `src` generates: each node
/// reached with remaining TTL > 0 forwards to all neighbors except the one
/// it received from (classic Gnutella forwarding, duplicates included —
/// that is what makes flooding expensive).
pub fn flood_messages(g: &LogicalGraph, src: Slot, ttl: u32) -> u64 {
    // BFS levels: level[v] = hop distance from src (≤ ttl reachable set).
    let n = g.num_slots();
    let mut level = vec![u32::MAX; n];
    level[src.index()] = 0;
    let mut frontier = vec![src];
    let mut msgs: u64 = 0;
    for depth in 0..ttl {
        let mut next = Vec::new();
        for &u in &frontier {
            // u forwards to every neighbor except the link the query came
            // from (degree − 1 for non-source; the source sends to all).
            let fanout =
                if u == src { g.degree(u) as u64 } else { (g.degree(u) as u64).saturating_sub(1) };
            msgs += fanout;
            for &v in g.neighbors(u) {
                if level[v.index()] == u32::MAX {
                    level[v.index()] = depth + 1;
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    msgs
}

/// Mean flood cost over a sample of sources. Message counts are integers,
/// so the u64 total — and therefore the mean — is the same bits under any
/// reduction order.
pub fn mean_flood_messages(net: &OverlayNet, sources: &[Slot], ttl: u32) -> f64 {
    if sources.is_empty() {
        return f64::NAN;
    }
    let total: u64 = sources.iter().map(|&s| flood_messages(net.graph(), s, ttl)).sum();
    total as f64 / sources.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u32) -> LogicalGraph {
        let mut g = LogicalGraph::new(n as usize);
        for i in 0..n {
            g.add_edge(Slot(i), Slot((i + 1) % n));
        }
        g
    }

    #[test]
    fn ring_flood_counts() {
        // Ring of 8, TTL 2 from node 0: node 0 sends 2; nodes 1 and 7 each
        // forward 1 ⇒ 4 messages.
        let g = ring(8);
        assert_eq!(flood_messages(&g, Slot(0), 2), 4);
        // TTL 1: just the source's two sends.
        assert_eq!(flood_messages(&g, Slot(0), 1), 2);
        assert_eq!(flood_messages(&g, Slot(0), 0), 0);
    }

    #[test]
    fn star_flood_counts() {
        // Star center 0 with 5 leaves, TTL 2 from the center: center sends
        // 5; each leaf has degree 1 so forwards 0 ⇒ 5.
        let mut g = LogicalGraph::new(6);
        for i in 1..6u32 {
            g.add_edge(Slot(0), Slot(i));
        }
        assert_eq!(flood_messages(&g, Slot(0), 2), 5);
        // From a leaf with TTL 2: leaf sends 1, center forwards 4 ⇒ 5.
        assert_eq!(flood_messages(&g, Slot(1), 2), 5);
    }

    #[test]
    fn flood_cost_grows_with_density() {
        let sparse = ring(12);
        let mut dense = ring(12);
        for i in 0..12u32 {
            dense.add_edge(Slot(i), Slot((i + 2) % 12));
        }
        assert!(
            flood_messages(&dense, Slot(0), 3) > flood_messages(&sparse, Slot(0), 3),
            "denser graphs must cost more per flood"
        );
    }

    #[test]
    fn parallel_mean_matches_serial_bitwise() {
        use prop_engine::SimRng;
        use prop_netsim::{generate, LatencyOracle, TransitStubParams};
        use prop_overlay::{OverlayNet, Placement};
        use std::sync::Arc;

        let mut rng = SimRng::seed_from(20);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 12, &mut rng));
        let mut g = ring(12);
        for i in 0..12u32 {
            g.add_edge(Slot(i), Slot((i + 3) % 12));
        }
        let net = OverlayNet::new(g, Placement::identity(12), oracle);
        let sources: Vec<Slot> = (0..12u32).map(Slot).collect();
        let total: u64 = sources.iter().map(|&s| flood_messages(net.graph(), s, 4)).sum();
        let serial = total as f64 / sources.len() as f64;
        assert_eq!(serial.to_bits(), mean_flood_messages(&net, &sources, 4).to_bits());
    }

    #[test]
    fn ttl_exhausts_on_small_graphs() {
        // Once everything is reached, deeper TTLs stop adding reach but the
        // frontier empties, so the count converges.
        let g = ring(6);
        let full = flood_messages(&g, Slot(0), 10);
        let deeper = flood_messages(&g, Slot(0), 20);
        assert_eq!(full, deeper);
    }
}
