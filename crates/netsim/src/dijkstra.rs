//! Single-source shortest paths over link latencies.
//!
//! One binary-heap Dijkstra, `search`, over a *selected sub-graph* of a
//! [`PhysGraph`]: the caller's `slot` function names the nodes that belong
//! to the search and where each keeps its distance. [`shortest_paths`] is
//! the whole-graph instance (every node, at its own index) — the general
//! kernel any topology can use, and the reference every faster path is
//! tested against. `crate::decomp` runs the same routine confined to one
//! stub domain or to the transit core, which is what makes a latency row on
//! a transit–stub graph cost a domain, not the graph.
//!
//! Per-source cost is dominated by heap traffic, so distances are `u32`
//! milliseconds and the visited check is the standard "stale entry" skip.

use crate::graph::{PhysGraph, PhysNodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distance value for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// The search frontier: `distance << 32 | node`, smallest first — one
/// integer compare orders by distance, then node. Callers that run many
/// searches keep one and hand it back in.
pub(crate) type Frontier = BinaryHeap<Reverse<u64>>;

/// Dijkstra from `src` over the sub-graph `slot` selects: `slot(v)` is
/// where node `v` keeps its distance in `dist`, or `None` when `v` is
/// outside the search (links into it are not followed). `src` must be
/// inside, and `dist` must hold [`UNREACHABLE`] everywhere on entry.
pub(crate) fn search(
    g: &PhysGraph,
    src: PhysNodeId,
    dist: &mut [u32],
    frontier: &mut Frontier,
    slot: impl Fn(u32) -> Option<usize>,
) {
    frontier.clear();
    dist[slot(src.0).expect("the source lies in the searched sub-graph")] = 0;
    frontier.push(Reverse(src.0 as u64));
    while let Some(Reverse(key)) = frontier.pop() {
        let (d, u) = ((key >> 32) as u32, key as u32);
        // Only selected nodes are ever pushed, so the slot always exists.
        if slot(u).is_none_or(|i| d > dist[i]) {
            continue; // stale
        }
        for &(v, w) in g.neighbors(PhysNodeId(u)) {
            let Some(i) = slot(v) else { continue };
            let nd = d + w;
            if nd < dist[i] {
                dist[i] = nd;
                frontier.push(Reverse((nd as u64) << 32 | v as u64));
            }
        }
    }
}

/// Shortest-path latency (ms) from `src` to every node.
///
/// Unreachable nodes get [`UNREACHABLE`].
pub fn shortest_paths(g: &PhysGraph, src: PhysNodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    search(g, src, &mut dist, &mut Frontier::new(), |v| Some(v as usize));
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkClass, NodeClass, PhysGraphBuilder};

    /// Path graph 0 -5- 1 -7- 2 -1- 3 plus shortcut 0 -20- 3.
    fn line_with_shortcut() -> PhysGraph {
        let mut b = PhysGraphBuilder::new();
        let ids: Vec<_> = (0..4).map(|_| b.add_node(NodeClass::Transit { domain: 0 })).collect();
        b.add_link(ids[0], ids[1], 5, LinkClass::TransitTransit);
        b.add_link(ids[1], ids[2], 7, LinkClass::TransitTransit);
        b.add_link(ids[2], ids[3], 1, LinkClass::TransitTransit);
        b.add_link(ids[0], ids[3], 20, LinkClass::TransitTransit);
        b.build()
    }

    #[test]
    fn shortest_path_beats_direct_link() {
        let g = line_with_shortcut();
        let d = shortest_paths(&g, PhysNodeId(0));
        assert_eq!(d, vec![0, 5, 12, 13]); // 5+7+1 = 13 < 20
    }

    #[test]
    fn symmetric_on_undirected_graph() {
        let g = line_with_shortcut();
        for a in 0..4u32 {
            let da = shortest_paths(&g, PhysNodeId(a));
            for b in 0..4u32 {
                let db = shortest_paths(&g, PhysNodeId(b));
                assert_eq!(da[b as usize], db[a as usize]);
            }
        }
    }

    #[test]
    fn unreachable_marked() {
        let mut b = PhysGraphBuilder::new();
        let u = b.add_node(NodeClass::Transit { domain: 0 });
        let _v = b.add_node(NodeClass::Transit { domain: 1 });
        let g = b.build();
        let d = shortest_paths(&g, u);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], UNREACHABLE);
    }

    #[test]
    fn triangle_inequality_holds() {
        let g = line_with_shortcut();
        let all: Vec<Vec<u32>> = (0..4).map(|i| shortest_paths(&g, PhysNodeId(i))).collect();
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    assert!(all[a][b] <= all[a][c] + all[c][b]);
                }
            }
        }
    }
}
