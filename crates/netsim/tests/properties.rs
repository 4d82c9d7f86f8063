//! Property tests for the physical-network substrate: every generated
//! topology, at any parameterization, must satisfy the invariants the rest
//! of the stack assumes.

use prop_engine::SimRng;
use prop_netsim::waxman::{generate_waxman, WaxmanParams};
use prop_netsim::{generate, LatencyOracle, TransitStubParams};

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

/// Any transit–stub parameterization yields a connected graph of the
/// predicted size with only the three sanctioned link latencies.
#[test]
fn transit_stub_always_well_formed() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let (domains, transit) = (rng.range(1..6usize), rng.range(1..5usize));
        let (stubs, hosts) = (rng.range(1..4usize), rng.range(1..12usize));
        let p = ts_params(domains, transit, stubs, hosts, rng.range(0.0..0.6));
        let g = generate(&p, &mut SimRng::seed_from(rng.range(0..10_000u64)));
        assert_eq!(g.num_nodes(), p.total_nodes(), "case {case}");
        assert!(g.is_connected(), "case {case}");
        for u in g.nodes() {
            for &(_, w) in g.neighbors(u) {
                assert!([5, 20, 100].contains(&w), "case {case}: latency {w}");
            }
        }
        // Stub population matches: total − transit.
        let transit_total = domains * transit;
        assert_eq!(g.stub_nodes().len(), p.total_nodes() - transit_total, "case {case}");
    }
}

/// Waxman graphs are connected for any parameters, with latencies in
/// `(0, max]`.
#[test]
fn waxman_always_well_formed() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let nodes = rng.range(2..120usize);
        let (alpha, beta) = (rng.range(0.005..0.8), rng.range(0.05..0.6));
        let p = WaxmanParams { nodes, alpha, beta, max_latency_ms: 120 };
        let g = generate_waxman(&p, &mut SimRng::seed_from(rng.range(0..10_000u64)));
        assert_eq!(g.num_nodes(), nodes, "case {case}");
        assert!(g.is_connected(), "case {case}");
        for u in g.nodes() {
            for &(_, w) in g.neighbors(u) {
                assert!((1..=120).contains(&w), "case {case}: latency {w}");
            }
        }
    }
}

/// The latency oracle is a metric: symmetric, zero diagonal, triangle
/// inequality — on arbitrary generated topologies and member subsets.
#[test]
fn oracle_is_a_metric() {
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let (hosts, stubs) = (gen.range(2..8usize), gen.range(1..3usize));
        let members = gen.range(2..12usize);
        let p = ts_params(2, 2, stubs, hosts, 0.3);
        let mut rng = SimRng::seed_from(gen.range(0..10_000u64));
        let g = generate(&p, &mut rng);
        let m = members.min(g.stub_nodes().len());
        let o = LatencyOracle::select_and_build(&g, m, &mut rng);
        for a in 0..m {
            assert_eq!(o.d(a, a), 0, "case {case}");
            for b in 0..m {
                assert_eq!(o.d(a, b), o.d(b, a), "case {case}");
                for c in 0..m {
                    assert!(
                        o.d(a, b) <= o.d(a, c) + o.d(c, b),
                        "case {case}: triangle violated at ({a}, {b}) via {c}"
                    );
                }
            }
        }
    }
}
