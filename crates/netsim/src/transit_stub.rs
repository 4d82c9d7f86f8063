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
#[derive(Clone, Debug)]
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
    /// runs beyond the paper's ~1,000-member scale (the ROADMAP's
    /// production-scale north star). Keeps the `ts_large` backbone (50
    /// transit nodes, 3 stub domains each) and widens the stub domains; the
    /// extra-edge probability is lowered so edge counts — and therefore
    /// Dijkstra cost per latency-oracle row — stay near-linear in the host
    /// count.
    pub fn scaled(min_stub_hosts: usize) -> Self {
        let base = Self::ts_large();
        let stub_domains =
            base.transit_domains * base.transit_nodes_per_domain * base.stub_domains_per_transit;
        let k = min_stub_hosts.div_ceil(stub_domains).max(1);
        // Taper the extra-edge probability once stub domains grow past
        // ~2,000 hosts: at fixed p the expected extra edges per domain grow
        // as p·k²/2, which by a million hosts would dominate the link count.
        // Capping the expected extra *degree* at 4 keeps total edges — and
        // therefore Dijkstra cost per latency-oracle row — near-linear at
        // any scale. Below the cap (every scale up to ~300k hosts) the
        // historical 0.002 applies unchanged.
        let extra_stub_edge = if k > 1 { (0.002f64).min(4.0 / (k - 1) as f64) } else { 0.002 };
        TransitStubParams { nodes_per_stub_domain: k, extra_stub_edge, ..base }
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

/// Domain size at and above which extra edges are drawn by geometric-skip
/// (binomial) sampling instead of one Bernoulli trial per pair. Every paper
/// preset and every `scaled()` parameterization up to ~75k hosts stays below
/// this, so their RNG streams — and therefore every pinned topology — are
/// unchanged; only the huge domains that would pay O(k²) trials (3.3 billion
/// at a million hosts) take the skip path.
const GEOMETRIC_SKIP_MIN_MEMBERS: usize = 512;

/// The `t`-th pair (row-major upper triangle) of `0..k`: the inverse of
/// `t = Σ_{r<i}(k−1−r) + (j−i−1)` via binary search on the row prefix sums.
fn pair_at(k: u64, t: u64) -> (usize, usize) {
    let pairs_before = |i: u64| i * k - i * (i + 1) / 2;
    let (mut lo, mut hi) = (0u64, k - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if pairs_before(mid) <= t {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (lo as usize, (lo + 1 + (t - pairs_before(lo))) as usize)
}

/// Wire `members` into a random connected subgraph: a uniform random spanning
/// tree (random-parent construction) plus each non-tree pair with probability
/// `extra`.
///
/// Small member sets draw the extra edges with one Bernoulli trial per pair
/// (the historical stream); sets of [`GEOMETRIC_SKIP_MIN_MEMBERS`] and above
/// jump between accepted pairs with geometrically distributed skips, which
/// is the same marginal distribution in O(extra · k²) expected work instead
/// of O(k²) RNG calls.
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
    if members.len() < GEOMETRIC_SKIP_MIN_MEMBERS {
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                if j != i && rng.chance(extra) && !b.has_link(members[i], members[j]) {
                    b.add_link(members[i], members[j], latency, class);
                }
            }
        }
    } else if extra > 0.0 {
        let k = members.len() as u64;
        let total = k * (k - 1) / 2;
        let ln_q = (1.0 - extra.min(1.0)).ln(); // ≤ 0; −inf when extra ≥ 1
        let mut t: u64 = 0;
        loop {
            // Geometric skip: failures before the next accepted pair is
            // ⌊ln(U)/ln(1−p)⌋ with U uniform on (0, 1]. unit() ∈ [0, 1), so
            // 1−unit() supplies the (0, 1] draw. f64→u64 casts saturate,
            // which turns an astronomically large skip into "past the end".
            let skip = if ln_q == 0.0 {
                u64::MAX
            } else {
                let u: f64 = 1.0 - rng.unit();
                (u.ln() / ln_q).floor() as u64
            };
            t = t.saturating_add(skip);
            if t >= total {
                break;
            }
            let (i, j) = pair_at(k, t);
            if !b.has_link(members[i], members[j]) {
                b.add_link(members[i], members[j], latency, class);
            }
            t += 1;
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
    fn pair_at_inverts_the_upper_triangle() {
        let k = 17u64;
        let mut t = 0u64;
        for i in 0..17usize {
            for j in (i + 1)..17usize {
                assert_eq!(pair_at(k, t), (i, j), "flat index {t}");
                t += 1;
            }
        }
        assert_eq!(t, k * (k - 1) / 2);
    }

    #[test]
    fn geometric_skip_matches_bernoulli_statistics() {
        // One domain above the skip threshold: edge count must land near
        // the binomial expectation, the graph must stay deduplicated and
        // connected, and the stream must be deterministic.
        let build = |seed: u64| {
            let mut b = PhysGraphBuilder::new();
            let nodes: Vec<PhysNodeId> =
                (0..600).map(|_| b.add_node(NodeClass::Stub { domain: 0, gateway: 0 })).collect();
            let mut rng = SimRng::seed_from(seed);
            connect_random(&mut b, &nodes, 0.01, 5, LinkClass::StubStub, &mut rng);
            b.build()
        };
        let g = build(42);
        assert!(g.is_connected());
        // 599 tree edges + Binomial(600·599/2, 0.01): mean ≈ 1797, σ ≈ 42.
        let extra = g.num_links() - 599;
        assert!((1000..2600).contains(&extra), "extra edges {extra} far from expectation");
        let h = build(42);
        assert_eq!(g.num_links(), h.num_links());
        for u in g.nodes() {
            assert_eq!(g.neighbors(u), h.neighbors(u));
        }
        let other = build(43);
        assert!(g.nodes().any(|u| g.neighbors(u) != other.neighbors(u)));
    }

    #[test]
    fn scaled_tapers_extra_edges_past_300k_hosts() {
        // Up to ~300k hosts the historical probability applies unchanged…
        assert_eq!(TransitStubParams::scaled(100_000).extra_stub_edge, 0.002);
        // …beyond it the expected extra degree is capped at 4.
        let p = TransitStubParams::scaled(1_000_000);
        let k = p.nodes_per_stub_domain;
        assert!(k >= 6_000);
        assert!(p.extra_stub_edge < 0.002);
        let expected_extra_degree = p.extra_stub_edge * (k - 1) as f64;
        assert!((3.5..=4.0).contains(&expected_extra_degree));
    }

    #[test]
    fn scaled_large_domain_generation_is_near_linear() {
        // 150 stub domains × ~1,334 hosts — every domain takes the
        // geometric-skip path; links stay near-linear and connected.
        let p = TransitStubParams::scaled(200_000);
        assert!(p.nodes_per_stub_domain >= GEOMETRIC_SKIP_MIN_MEMBERS);
        let g = generate(&p, &mut SimRng::seed_from(17));
        assert!(g.stub_nodes().len() >= 200_000);
        assert!(g.is_connected());
        assert!(g.num_links() < 3 * g.num_nodes());
    }

    #[test]
    fn every_stub_domain_reaches_its_gateway() {
        let mut rng = SimRng::seed_from(5);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        let (tt, st, ss) = g.link_class_counts();
        // 4 transit nodes × 2 stub domains each = 8 stub-transit links.
        assert_eq!(st, 8);
        assert!(tt >= 3); // backbone tree at minimum
        assert!(ss >= 8 * 4); // each 5-host stub domain has ≥4 tree edges
    }
}
