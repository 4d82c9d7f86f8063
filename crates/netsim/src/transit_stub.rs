//! Transit–stub topology generation (the GT-ITM model).
//!
//! Structure generated, top-down:
//!
//! 1. `transit_domains` domains whose *domain graph* is a random connected
//!    graph (spanning tree + extra edges with probability `extra_domain_edge`).
//! 2. Each transit domain holds `transit_nodes_per_domain` transit nodes,
//!    themselves wired as a random connected graph. Every domain-graph edge
//!    becomes one transit–transit link between random transit nodes of the
//!    two domains.
//! 3. Every transit node sponsors `stub_domains_per_transit` stub domains of
//!    `nodes_per_stub_domain` hosts each; a stub domain is a random connected
//!    graph joined to its transit node by one stub–transit link.
//!
//! Link latencies follow the paper's class assignment (defaults:
//! transit–transit 100 ms, stub–transit 20 ms, stub–stub 5 ms).
//!
//! The OCR of the paper drops the preset digits; `ts_large`/`ts_small`
//! follow the description — "ts-large has a larger backbone and sparser edge
//! network than ts-small", with both topologies holding roughly the same
//! number of hosts (≈3,000). See DESIGN.md §3.

use crate::graph::{LinkClass, NodeClass, PhysGraph, PhysGraphBuilder, PhysNodeId};
use prop_engine::SimRng;

/// Parameters of the transit–stub generator.
#[derive(Clone, Debug, PartialEq)]
pub struct TransitStubParams {
    pub transit_domains: usize,
    pub transit_nodes_per_domain: usize,
    pub stub_domains_per_transit: usize,
    pub nodes_per_stub_domain: usize,
    /// Probability of each extra (non-tree) edge in the domain-level graph.
    pub extra_domain_edge: f64,
    /// Probability of each extra edge inside a transit domain.
    pub extra_transit_edge: f64,
    /// Probability of each extra edge inside a stub domain.
    pub extra_stub_edge: f64,
    pub transit_transit_ms: u32,
    pub stub_transit_ms: u32,
    pub stub_stub_ms: u32,
}

impl TransitStubParams {
    /// The paper's `ts-large`: big backbone, sparse edge. 10 transit domains
    /// × 5 transit nodes, 3 stub domains per transit node, 20 hosts per stub
    /// domain ⇒ 50 transit + 3,000 stub hosts.
    pub fn ts_large() -> Self {
        TransitStubParams {
            transit_domains: 10,
            transit_nodes_per_domain: 5,
            stub_domains_per_transit: 3,
            nodes_per_stub_domain: 20,
            extra_domain_edge: 0.3,
            extra_transit_edge: 0.4,
            extra_stub_edge: 0.08,
            transit_transit_ms: 100,
            stub_transit_ms: 20,
            stub_stub_ms: 5,
        }
    }

    /// The paper's `ts-small`: small backbone, dense edge. 2 transit domains
    /// × 5 transit nodes, 3 stub domains per transit node, 100 hosts per
    /// stub domain ⇒ 10 transit + 3,000 stub hosts (≈ same size as
    /// `ts-large`, per the paper).
    pub fn ts_small() -> Self {
        TransitStubParams {
            transit_domains: 2,
            transit_nodes_per_domain: 5,
            stub_domains_per_transit: 3,
            nodes_per_stub_domain: 100,
            extra_domain_edge: 0.3,
            extra_transit_edge: 0.4,
            extra_stub_edge: 0.03,
            transit_transit_ms: 100,
            stub_transit_ms: 20,
            stub_stub_ms: 5,
        }
    }

    /// A miniature topology for unit tests and the quickstart example:
    /// 2×2 transit, 2 stub domains of 5 ⇒ 4 transit + 40 stub hosts.
    pub fn tiny() -> Self {
        TransitStubParams {
            transit_domains: 2,
            transit_nodes_per_domain: 2,
            stub_domains_per_transit: 2,
            nodes_per_stub_domain: 5,
            extra_domain_edge: 0.5,
            extra_transit_edge: 0.5,
            extra_stub_edge: 0.2,
            transit_transit_ms: 100,
            stub_transit_ms: 20,
            stub_stub_ms: 5,
        }
    }

    /// A parameterization with *at least* `min_stub_hosts` stub hosts, for
    /// runs beyond the paper's ~1,000-member scale. Grows the network the
    /// way GT-ITM does, by adding stub domains: `ts_large`'s backbone (50
    /// transit nodes) and its 20-host domains, with ⌈n/1,000⌉ stub domains
    /// per transit node. The extra-edge probability is 0.002, not
    /// `ts_large`'s 0.08, which keeps `scaled(3000)` the substrate it has
    /// always been (DESIGN.md §3).
    pub fn scaled(min_stub_hosts: usize) -> Self {
        TransitStubParams {
            stub_domains_per_transit: min_stub_hosts.div_ceil(1000).max(1),
            extra_stub_edge: 0.002,
            ..Self::ts_large()
        }
    }

    /// Total number of hosts this parameterization produces.
    pub fn total_nodes(&self) -> usize {
        self.transit_domains * self.transit_nodes_per_domain + self.stub_hosts()
    }

    /// Stub hosts this parameterization produces: the most members an
    /// oracle can select from it.
    pub fn stub_hosts(&self) -> usize {
        let transit = self.transit_domains * self.transit_nodes_per_domain;
        transit * self.stub_domains_per_transit * self.nodes_per_stub_domain
    }
}

/// Wire `members` into a random connected subgraph: a uniform random spanning
/// tree (random-parent construction) plus each non-tree pair with probability
/// `extra`.
fn connect_random(
    b: &mut PhysGraphBuilder,
    members: &[PhysNodeId],
    extra: f64,
    latency: u32,
    class: LinkClass,
    rng: &mut SimRng,
) {
    if members.len() < 2 {
        return;
    }
    // Spanning tree: attach each node to a random earlier node.
    for i in 1..members.len() {
        let j = rng.range(0..i);
        b.add_link(members[i], members[j], latency, class);
    }
    // Extra edges.
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            if rng.chance(extra) && !b.has_link(members[i], members[j]) {
                b.add_link(members[i], members[j], latency, class);
            }
        }
    }
}

/// Generate a transit–stub physical network.
///
/// Always produces a connected graph (every level is built around a spanning
/// tree).
pub fn generate(params: &TransitStubParams, rng: &mut SimRng) -> PhysGraph {
    assert!(params.transit_domains >= 1);
    assert!(params.transit_nodes_per_domain >= 1);
    let mut b = PhysGraphBuilder::new();
    let mut rng = rng.fork("transit-stub");

    // 1. Transit nodes, per domain.
    let mut domains: Vec<Vec<PhysNodeId>> = Vec::with_capacity(params.transit_domains);
    for d in 0..params.transit_domains {
        let nodes: Vec<PhysNodeId> = (0..params.transit_nodes_per_domain)
            .map(|_| b.add_node(NodeClass::Transit { domain: d as u16 }))
            .collect();
        connect_random(
            &mut b,
            &nodes,
            params.extra_transit_edge,
            params.transit_transit_ms,
            LinkClass::TransitTransit,
            &mut rng,
        );
        domains.push(nodes);
    }

    // 2. Domain-level backbone: spanning tree + extras; each domain edge is
    //    realized between random transit nodes of the two domains.
    let connect_domains = |b: &mut PhysGraphBuilder, rng: &mut SimRng, x: usize, y: usize| {
        let u = *rng.pick(&domains[x]).unwrap();
        let v = *rng.pick(&domains[y]).unwrap();
        if !b.has_link(u, v) {
            b.add_link(u, v, params.transit_transit_ms, LinkClass::TransitTransit);
        }
    };
    for d in 1..params.transit_domains {
        let parent = rng.range(0..d);
        connect_domains(&mut b, &mut rng, d, parent);
    }
    for x in 0..params.transit_domains {
        for y in (x + 1)..params.transit_domains {
            if rng.chance(params.extra_domain_edge) {
                connect_domains(&mut b, &mut rng, x, y);
            }
        }
    }

    // 3. Stub domains hanging off each transit node.
    let mut stub_domain_id: u32 = 0;
    let transit_nodes: Vec<PhysNodeId> = domains.iter().flatten().copied().collect();
    for &gateway in &transit_nodes {
        for _ in 0..params.stub_domains_per_transit {
            let hosts: Vec<PhysNodeId> = (0..params.nodes_per_stub_domain)
                .map(|_| b.add_node(NodeClass::Stub { domain: stub_domain_id, gateway: gateway.0 }))
                .collect();
            connect_random(
                &mut b,
                &hosts,
                params.extra_stub_edge,
                params.stub_stub_ms,
                LinkClass::StubStub,
                &mut rng,
            );
            if let Some(&entry) = rng.pick(&hosts) {
                b.add_link(entry, gateway, params.stub_transit_ms, LinkClass::StubTransit);
            }
            stub_domain_id += 1;
        }
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_topology_shape() {
        let mut rng = SimRng::seed_from(1);
        let p = TransitStubParams::tiny();
        let g = generate(&p, &mut rng);
        assert_eq!(g.num_nodes(), p.total_nodes());
        assert_eq!(g.num_nodes(), 44);
        assert!(g.is_connected());
        assert_eq!(g.stub_nodes().len(), 40);
        assert_eq!(p.stub_hosts(), 40);
    }

    #[test]
    fn presets_match_paper_scale() {
        let large = TransitStubParams::ts_large();
        let small = TransitStubParams::ts_small();
        assert_eq!(large.total_nodes(), 3050);
        assert_eq!(small.total_nodes(), 3010);
        // "ts-large has a larger backbone…"
        assert!(
            large.transit_domains * large.transit_nodes_per_domain
                > small.transit_domains * small.transit_nodes_per_domain
        );
        // "…and sparser edge network than ts-small."
        assert!(large.nodes_per_stub_domain < small.nodes_per_stub_domain);
    }

    #[test]
    fn ts_large_generates_connected() {
        let mut rng = SimRng::seed_from(7);
        let g = generate(&TransitStubParams::ts_large(), &mut rng);
        assert_eq!(g.num_nodes(), 3050);
        assert!(g.is_connected());
    }

    #[test]
    fn ts_small_generates_connected() {
        let mut rng = SimRng::seed_from(7);
        let g = generate(&TransitStubParams::ts_small(), &mut rng);
        assert_eq!(g.num_nodes(), 3010);
        assert!(g.is_connected());
    }

    #[test]
    fn deterministic_for_seed() {
        let p = TransitStubParams::tiny();
        let g1 = generate(&p, &mut SimRng::seed_from(99));
        let g2 = generate(&p, &mut SimRng::seed_from(99));
        assert_eq!(g1.num_links(), g2.num_links());
        for u in g1.nodes() {
            assert_eq!(g1.neighbors(u), g2.neighbors(u));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = TransitStubParams::ts_large();
        let g1 = generate(&p, &mut SimRng::seed_from(1));
        let g2 = generate(&p, &mut SimRng::seed_from(2));
        // Same node count, but wiring should differ somewhere.
        let differs = g1.nodes().any(|u| g1.neighbors(u) != g2.neighbors(u));
        assert!(differs);
    }

    #[test]
    fn link_classes_use_configured_latencies() {
        let mut rng = SimRng::seed_from(3);
        let p = TransitStubParams::tiny();
        let g = generate(&p, &mut rng);
        for u in g.nodes() {
            for &(v, w) in g.neighbors(u) {
                let uv = (g.class(u).is_transit(), g.class(PhysNodeId(v)).is_transit());
                let expected = match uv {
                    (true, true) => p.transit_transit_ms,
                    (false, false) => p.stub_stub_ms,
                    _ => p.stub_transit_ms,
                };
                assert_eq!(w, expected);
            }
        }
    }

    #[test]
    fn scaled_meets_requested_stub_population() {
        for want in [1, 3_000, 20_000, 100_000] {
            let p = TransitStubParams::scaled(want);
            let transit = p.transit_domains * p.transit_nodes_per_domain;
            assert!(p.total_nodes() - transit >= want, "asked {want}");
        }
        // Generation at a beyond-paper scale stays tractable and connected.
        let p = TransitStubParams::scaled(10_000);
        let g = generate(&p, &mut SimRng::seed_from(11));
        assert!(g.stub_nodes().len() >= 10_000);
        assert!(g.is_connected());
        // Edge count stays near-linear in hosts (Dijkstra cost per oracle
        // row depends on it).
        assert!(g.num_links() < 3 * g.num_nodes());
    }

    #[test]
    fn scaled_adds_domains_of_ts_large_width() {
        for n in [1, 2_000, 3_000, 100_000, 1_000_000] {
            let p = TransitStubParams::scaled(n);
            assert_eq!(p.nodes_per_stub_domain, 20, "n = {n}");
            assert_eq!(p.stub_domains_per_transit, n.div_ceil(1000), "n = {n}");
            assert!((n..n + 1_000).contains(&p.stub_hosts()), "n = {n}: {}", p.stub_hosts());
        }
        // The benchmark's `scale_*` substrate, field for field.
        assert_eq!(
            TransitStubParams::scaled(3000),
            TransitStubParams { extra_stub_edge: 0.002, ..TransitStubParams::ts_large() }
        );
        let g = generate(&TransitStubParams::scaled(100_000), &mut SimRng::seed_from(17));
        assert!(g.is_connected());
        assert!((g.num_links() as f64) < 1.1 * g.num_nodes() as f64, "{} links", g.num_links());
    }

    #[test]
    fn every_stub_domain_reaches_its_gateway() {
        let mut rng = SimRng::seed_from(5);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        // Links by how many endpoints are transit nodes: stub-stub,
        // stub-transit, transit-transit.
        let mut by_transit_ends = [0usize; 3];
        for u in g.nodes() {
            for &(v, _) in g.neighbors(u).iter().filter(|&&(v, _)| u.0 < v) {
                let ends = [u, PhysNodeId(v)].iter().filter(|&&x| g.class(x).is_transit()).count();
                by_transit_ends[ends] += 1;
            }
        }
        let [ss, st, tt] = by_transit_ends;
        // 4 transit nodes × 2 stub domains each = 8 stub-transit links.
        assert_eq!(st, 8);
        assert!(tt >= 3); // backbone tree at minimum
        assert!(ss >= 8 * 4); // each 5-host stub domain has ≥4 tree edges
    }
}
