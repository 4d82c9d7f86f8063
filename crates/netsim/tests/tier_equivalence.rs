//! Tier-equivalence property tests: the search oracle tier must be
//! observationally identical to the dense tier — the same `u32` latency
//! for every ordered pair — on any topology and member subset. On a
//! transit–stub graph that holds the search store (point queries and
//! meeting searches) to the per-domain blocks; on a Waxman graph, which
//! has no decomposition, both tiers are the matrix.

use prop_engine::SimRng;
use prop_netsim::waxman::{generate_waxman, WaxmanParams};
use prop_netsim::{
    generate, LatencyOracle, OracleConfig, PhysGraph, PhysNodeId, Tier, TransitStubParams,
};

const CASES: u64 = 256;

fn ts_params(
    domains: usize,
    transit: usize,
    stubs: usize,
    hosts: usize,
    extra: f64,
) -> TransitStubParams {
    TransitStubParams {
        transit_domains: domains,
        transit_nodes_per_domain: transit,
        stub_domains_per_transit: stubs,
        nodes_per_stub_domain: hosts,
        extra_domain_edge: extra,
        extra_transit_edge: extra,
        extra_stub_edge: extra / 4.0,
        transit_transit_ms: 100,
        stub_transit_ms: 20,
        stub_stub_ms: 5,
    }
}

fn pick_members(g: &PhysGraph, want: usize, rng: &mut SimRng) -> Vec<PhysNodeId> {
    let stubs = g.stub_nodes();
    rng.sample_distinct(&stubs, want.clamp(2, stubs.len()))
}

/// Build both tiers over the same member set and assert every ordered
/// pair agrees, across three query passes (cold, re-queried, reversed), so
/// no answer depends on what the meeting search's scratch last held.
/// `tier` is the one `OracleConfig::cached` builds on this graph.
fn assert_tiers_agree(case: u64, g: &PhysGraph, members: Vec<PhysNodeId>, tier: Tier) {
    let dense = LatencyOracle::try_build_with(g, members.clone(), &OracleConfig::dense())
        .expect("connected member set");
    let cached = LatencyOracle::try_build_with(g, members, &OracleConfig::cached(1))
        .expect("connected member set");
    assert_eq!(dense.built_tier(), Tier::Dense, "case {case}");
    assert_eq!(cached.built_tier(), tier, "case {case}");
    let n = dense.len();

    for a in 0..n {
        for b in 0..n {
            assert_eq!(dense.d(a, b), cached.d(a, b), "case {case}: cold pass ({a}, {b})");
        }
    }
    // Re-query in the same order.
    for a in 0..n {
        for b in 0..n {
            assert_eq!(dense.d(a, b), cached.d(a, b), "case {case}: warm pass ({a}, {b})");
        }
    }
    // And in reverse.
    for a in (0..n).rev() {
        for b in (0..n).rev() {
            assert_eq!(dense.d(a, b), cached.d(a, b), "case {case}: reverse pass ({a}, {b})");
        }
    }
}

/// Dense and search tiers agree on random transit–stub topologies.
#[test]
fn tiers_agree_on_transit_stub() {
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let (domains, transit) = (gen.range(1..4usize), gen.range(1..4usize));
        let (stubs, hosts) = (gen.range(1..3usize), gen.range(2..8usize));
        let members = gen.range(2..14usize);
        let p = ts_params(domains, transit, stubs, hosts, 0.25);
        let mut rng = SimRng::seed_from(gen.range(0..10_000u64));
        let g = generate(&p, &mut rng);
        let m = pick_members(&g, members, &mut rng);
        assert_tiers_agree(case, &g, m, Tier::Search);
    }
}

/// Same agreement on flat Waxman graphs (different latency distribution and
/// degree structure than transit–stub).
#[test]
fn tiers_agree_on_waxman() {
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let nodes = gen.range(4..90usize);
        let (alpha, beta) = (gen.range(0.05..0.7), gen.range(0.1..0.6));
        let members = gen.range(2..14usize);
        let p = WaxmanParams { nodes, alpha, beta, max_latency_ms: 120 };
        let mut rng = SimRng::seed_from(gen.range(0..10_000u64));
        let g = generate_waxman(&p, &mut rng);
        let m = pick_members(&g, members, &mut rng);
        assert_tiers_agree(case, &g, m, Tier::Dense);
    }
}
