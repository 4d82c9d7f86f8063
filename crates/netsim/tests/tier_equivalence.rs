//! Tier-equivalence property tests: the row-cache oracle tier must be
//! observationally identical to the dense tier — the same `u32` latency
//! for every ordered pair — on any topology, member subset, and cache
//! capacity, including capacities tiny enough to evict rows between
//! queries and force recomputation.

use prop_engine::SimRng;
use prop_netsim::waxman::{generate_waxman, WaxmanParams};
use prop_netsim::{
    generate, LatencyOracle, OracleConfig, PhysGraph, PhysNodeId, TransitStubParams,
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
/// pair agrees, across three query passes (cold, re-queried, reversed) so
/// tiny caches have evicted and recomputed most rows by the end.
fn assert_tiers_agree(case: u64, g: &PhysGraph, members: Vec<PhysNodeId>, cache_capacity: usize) {
    let dense = LatencyOracle::try_build_with(g, members.clone(), &OracleConfig::dense())
        .expect("connected member set");
    let cached = LatencyOracle::try_build_with(g, members, &OracleConfig::cached(cache_capacity))
        .expect("connected member set");
    assert_eq!(dense.tier(), "dense", "case {case}");
    assert_eq!(cached.tier(), "row-cache", "case {case}");
    let n = dense.len();

    for a in 0..n {
        for b in 0..n {
            assert_eq!(dense.d(a, b), cached.d(a, b), "case {case}: cold pass ({a}, {b})");
        }
    }
    // Re-query in the same order: rows may now come from cache (or have
    // been evicted by later rows of the first pass).
    for a in 0..n {
        for b in 0..n {
            assert_eq!(dense.d(a, b), cached.d(a, b), "case {case}: warm pass ({a}, {b})");
        }
    }
    // Reversed order maximizes eviction churn under a tiny capacity.
    for a in (0..n).rev() {
        for b in (0..n).rev() {
            assert_eq!(dense.d(a, b), cached.d(a, b), "case {case}: reverse pass ({a}, {b})");
        }
    }
}

/// Dense and row-cache tiers agree on random transit–stub topologies, at
/// cache capacities from "one row per shard" up to "everything resident".
#[test]
fn tiers_agree_on_transit_stub() {
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let (domains, transit) = (gen.range(1..4usize), gen.range(1..4usize));
        let (stubs, hosts) = (gen.range(1..3usize), gen.range(2..8usize));
        let members = gen.range(2..14usize);
        let cap_bytes = gen.range(64..64usize << 10);
        let p = ts_params(domains, transit, stubs, hosts, 0.25);
        let mut rng = SimRng::seed_from(gen.range(0..10_000u64));
        let g = generate(&p, &mut rng);
        let m = pick_members(&g, members, &mut rng);
        assert_tiers_agree(case, &g, m, cap_bytes);
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
        let cap_bytes = gen.range(64..64usize << 10);
        let p = WaxmanParams { nodes, alpha, beta, max_latency_ms: 120 };
        let mut rng = SimRng::seed_from(gen.range(0..10_000u64));
        let g = generate_waxman(&p, &mut rng);
        let m = pick_members(&g, members, &mut rng);
        assert_tiers_agree(case, &g, m, cap_bytes);
    }
}

/// Deterministic eviction regression: a capacity that can hold only one
/// row per shard must still answer identically to dense, and must
/// actually evict (the equivalence above would be vacuous if the tiny
/// caps never churned).
#[test]
fn tiny_cache_evicts_and_still_agrees() {
    let p = ts_params(2, 2, 2, 6, 0.3);
    let mut rng = SimRng::seed_from(77);
    let g = generate(&p, &mut rng);
    let members = pick_members(&g, 24, &mut rng);
    let n = members.len();
    let dense = LatencyOracle::try_build_with(&g, members.clone(), &OracleConfig::dense()).unwrap();
    // Row = 2n bytes; a 4n-byte-total budget over the default shard count
    // (n / 4 bytes a shard) leaves each shard pinned at its single most
    // recent row.
    let cached = LatencyOracle::try_build_with(&g, members, &OracleConfig::cached(4 * n)).unwrap();
    for pass in 0..3 {
        for a in 0..n {
            for b in 0..n {
                assert_eq!(dense.d(a, b), cached.d(a, b), "pass {pass} pair ({a}, {b})");
            }
        }
    }
    let stats = cached.cache_stats().expect("row-cache tier");
    assert!(stats.evictions > 0, "tiny cache never evicted: {stats:?}");
    assert!(
        stats.resident_bytes <= stats.capacity_bytes.max(4 * n * 16),
        "residency above budget: {stats:?}"
    );
}
