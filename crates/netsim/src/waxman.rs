//! Waxman random topology — the classic alternative to transit–stub.
//!
//! GT-ITM's own paper ("How to model an internetwork") evaluates both
//! hierarchical transit–stub graphs and flat Waxman random graphs. PROP's
//! benefit should not hinge on the hierarchy, so the robustness ablation
//! (A7) re-runs PROP-G over a Waxman physical network:
//!
//! * `n` hosts at uniformly random positions in the unit square;
//! * each pair is linked with probability `α · exp(−d / (β·L))` where `d`
//!   is their Euclidean distance and `L` the maximum possible distance —
//!   near pairs link often, far pairs rarely;
//! * link latency is proportional to Euclidean distance (speed-of-light
//!   flavor), scaled so the diameter-ish link costs `max_latency_ms`;
//! * components are stitched together by linking nearest pairs across
//!   components, so the graph is always connected.

use crate::graph::{LinkClass, NodeClass, PhysGraph, PhysGraphBuilder, PhysNodeId};
use prop_engine::SimRng;

/// Waxman generator parameters.
#[derive(Clone, Debug)]
pub struct WaxmanParams {
    pub nodes: usize,
    /// Link-probability scale (α): higher ⇒ denser.
    pub alpha: f64,
    /// Locality decay (β): higher ⇒ longer links become likelier.
    pub beta: f64,
    /// Latency assigned to a link spanning the full diagonal, ms.
    pub max_latency_ms: u32,
}

impl WaxmanParams {
    /// A ≈3,000-host flat topology, comparable in size to `ts-large`.
    pub fn comparable_to_ts() -> Self {
        WaxmanParams { nodes: 3000, alpha: 0.015, beta: 0.18, max_latency_ms: 120 }
    }

    /// A miniature instance for tests.
    pub fn tiny() -> Self {
        WaxmanParams { nodes: 60, alpha: 0.3, beta: 0.25, max_latency_ms: 120 }
    }
}

/// Generate a Waxman random graph. All hosts are classified as stub nodes
/// (a flat topology has no backbone), so overlay member selection works
/// unchanged.
pub fn generate_waxman(params: &WaxmanParams, rng: &mut SimRng) -> PhysGraph {
    assert!(params.nodes >= 2);
    let mut rng = rng.fork("waxman");
    let n = params.nodes;
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.unit(), rng.unit())).collect();
    let l = std::f64::consts::SQRT_2; // max distance in the unit square

    let mut b = PhysGraphBuilder::new();
    let ids: Vec<PhysNodeId> = (0..n)
        .map(|i| b.add_node(NodeClass::Stub { domain: i as u32, gateway: u32::MAX }))
        .collect();

    let dist = |i: usize, j: usize| -> f64 {
        let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
        (dx * dx + dy * dy).sqrt()
    };
    let latency =
        |d: f64| -> u32 { ((d / l) * params.max_latency_ms as f64).ceil().max(1.0) as u32 };

    // Probabilistic Waxman edges, with the union-find built as we go (the
    // PhysGraphBuilder's `has_link` is a linear scan — never use it in an
    // all-pairs loop).
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist(i, j);
            let p = params.alpha * (-d / (params.beta * l)).exp();
            if rng.chance(p) {
                b.add_link(ids[i], ids[j], latency(d), LinkClass::StubStub);
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    loop {
        // Collect components.
        let mut roots: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
        let main_root = roots[0];
        let mut best: Option<(f64, usize, usize)> = None;
        let mut multiple = false;
        for (i, &ri) in roots.iter().enumerate() {
            if ri != main_root {
                multiple = true;
                for (j, &rj) in roots.iter().enumerate() {
                    if rj == main_root {
                        let d = dist(i, j);
                        if best.is_none_or(|(bd, _, _)| d < bd) {
                            best = Some((d, i, j));
                        }
                    }
                }
            }
        }
        if !multiple {
            break;
        }
        let (d, i, j) = best.expect("disconnected pair exists");
        b.add_link(ids[i], ids[j], latency(d), LinkClass::StubStub);
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        parent[ri] = rj;
        roots.clear();
    }

    let g = b.build();
    debug_assert!(g.is_connected());
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_waxman_is_connected() {
        let mut rng = SimRng::seed_from(1);
        let g = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        assert_eq!(g.num_nodes(), 60);
        assert!(g.is_connected());
        assert!(g.num_links() >= 59, "at least a spanning tree");
    }

    #[test]
    fn all_nodes_are_stub_class() {
        let mut rng = SimRng::seed_from(2);
        let g = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        assert_eq!(g.stub_nodes().len(), g.num_nodes());
    }

    #[test]
    fn flat_hosts_have_no_transit_domain() {
        // Every host records the out-of-range gateway `u32::MAX`; the
        // lookup must answer `None`, not index past the node table.
        let g = generate_waxman(&WaxmanParams::tiny(), &mut SimRng::seed_from(7));
        for u in g.nodes() {
            assert_eq!(g.transit_domain_of(u), None);
        }
        assert_eq!(g.num_transit_domains(), 0);
    }

    #[test]
    fn latencies_bounded_by_max() {
        let mut rng = SimRng::seed_from(3);
        let p = WaxmanParams::tiny();
        let g = generate_waxman(&p, &mut rng);
        for u in g.nodes() {
            for &(_, w) in g.neighbors(u) {
                assert!(w >= 1 && w <= p.max_latency_ms);
            }
        }
    }

    #[test]
    fn locality_links_are_shorter_on_average() {
        // Waxman prefers short links: mean link latency should be well
        // below the mean pairwise scale.
        let mut rng = SimRng::seed_from(4);
        let p = WaxmanParams { nodes: 200, alpha: 0.1, beta: 0.15, max_latency_ms: 120 };
        let g = generate_waxman(&p, &mut rng);
        assert!(
            g.mean_link_latency() < 0.5 * p.max_latency_ms as f64,
            "mean link latency {:.1}",
            g.mean_link_latency()
        );
    }

    #[test]
    fn deterministic() {
        let a = generate_waxman(&WaxmanParams::tiny(), &mut SimRng::seed_from(5));
        let b = generate_waxman(&WaxmanParams::tiny(), &mut SimRng::seed_from(5));
        assert_eq!(a.num_links(), b.num_links());
    }

    #[test]
    fn denser_alpha_means_more_links() {
        let sparse = generate_waxman(
            &WaxmanParams { alpha: 0.05, ..WaxmanParams::tiny() },
            &mut SimRng::seed_from(6),
        );
        let dense = generate_waxman(
            &WaxmanParams { alpha: 0.6, ..WaxmanParams::tiny() },
            &mut SimRng::seed_from(6),
        );
        assert!(dense.num_links() > sparse.num_links());
    }
}
