//! Memory-cap integration test: a 20,000-member oracle (dense equivalent:
//! 20,000² × 4 B = 1.5 GiB) answers a clustered query workload under a
//! 64 MiB row-cache budget — the small-scale twin of the `scale`
//! experiment binary's 100k/512 MiB claim, kept cheap enough for
//! `cargo test`.
//!
//! `scaled(20_000)` is a transit–stub graph, so the row-cache tier answers
//! a pair in two stub domains by the point query and a pair inside one by a
//! meeting search confined to it: no row is made or kept, whatever the
//! workload. Rows remain only on a graph the row kernel refuses, whose rows
//! are whole; the same workload shape on a 3,000-host Waxman graph, under
//! a third of its own row demand, shows the LRU evicting and staying under
//! its cap there.

use prop_engine::SimRng;
use prop_netsim::waxman::{generate_waxman, WaxmanParams};
use prop_netsim::{
    dijkstra, generate, LatencyOracle, NodeClass, OracleConfig, PhysGraph, PhysNodeId,
    TransitStubParams,
};

const MEMBERS: usize = 20_000;
const CAP_BYTES: usize = 64 << 20;
/// Locks the oracle splits its cache over (`oracle::CACHE_SHARDS`).
const SHARDS: usize = 16;

/// Every 10th member a source, three reads each to a member `near` it and
/// three `far` from it; spot-checked against a direct Dijkstra.
fn run_workload(
    g: &PhysGraph,
    oracle: &LatencyOracle,
    near: impl Fn(usize, usize) -> usize,
    far: impl Fn(usize, usize) -> usize,
) -> usize {
    let n = oracle.len();
    let sources: Vec<usize> = (0..n).step_by(10).collect();
    for &s in &sources {
        for k in 1..=3usize {
            for t in [near(s, k), far(s, k)] {
                assert!(oracle.d(s, t) < u32::MAX, "member {s} cannot reach {t}");
            }
        }
    }
    for &s in sources.iter().step_by(sources.len() / 4) {
        let dist = dijkstra::shortest_paths(g, oracle.host(s));
        for k in 1..=3usize {
            for t in [near(s, k), far(s, k)] {
                assert_eq!(
                    oracle.d(s, t),
                    dist[oracle.host(t).index()],
                    "oracle disagrees with direct Dijkstra for ({s}, {t})"
                );
            }
        }
    }
    sources.len()
}

fn select(g: &PhysGraph, n: usize, rng: &mut SimRng) -> Vec<PhysNodeId> {
    rng.fork("member-selection").sample_distinct(&g.stub_nodes(), n)
}

#[test]
fn twenty_k_members_stay_under_64_mib() {
    let mut rng = SimRng::seed_from(9);
    let g = generate(&TransitStubParams::scaled(MEMBERS), &mut rng);
    let members = select(&g, MEMBERS, &mut rng);

    // Each stub domain's members, in member order: a source reads three of
    // its own domain's and three across the core.
    let domain = |h: PhysNodeId| match g.class(h) {
        NodeClass::Stub { domain, .. } => domain as usize,
        NodeClass::Transit { .. } => unreachable!("stub hosts only"),
    };
    let mut mates: Vec<Vec<usize>> = Vec::new();
    for (m, &h) in members.iter().enumerate() {
        let d = domain(h);
        mates.resize(mates.len().max(d + 1), Vec::new());
        mates[d].push(m);
    }
    let near = |s: usize, k: usize| {
        let peers = &mates[domain(members[s])];
        peers[(peers.binary_search(&s).unwrap() + k) % peers.len()]
    };
    let far = |s: usize, k: usize| (s * 7 + 13 * k) % MEMBERS;

    for cap in [CAP_BYTES, 1] {
        let cfg = OracleConfig { cache_capacity_bytes: cap, ..OracleConfig::default() };
        let oracle = LatencyOracle::try_build_with(&g, members.clone(), &cfg).unwrap();
        assert_eq!(oracle.tier(), "row-cache", "20k members must route to the cached tier");
        assert_eq!(run_workload(&g, &oracle, near, far), 2_000);
        let stats = oracle.cache_stats().expect("cached tier exposes stats");
        assert_eq!((stats.misses, stats.resident_rows), (0, 0), "cap {cap}: {stats:?}");
        assert_eq!((stats.hits, stats.peak_resident_bytes), (0, 0), "cap {cap}: {stats:?}");
    }

    // A graph the kernel refuses: 3,000 Waxman hosts, whole rows of 6,000
    // bytes, and 300 sources' worth of them asked for by a budget a third
    // that size.
    let g = generate_waxman(&WaxmanParams::comparable_to_ts(), &mut rng);
    let n = 3_000;
    let members = select(&g, n, &mut rng);
    let row = 2 * n;
    let demand = n / 10 * row;
    let cap = demand / 3;
    let cfg = OracleConfig::cached(cap);
    let oracle = LatencyOracle::try_build_with(&g, members, &cfg).unwrap();
    let sources = run_workload(&g, &oracle, |s, k| (s + k) % n, |s, k| (s * 7 + 13 * k) % n);
    let stats = oracle.cache_stats().unwrap();
    assert!(stats.misses >= sources as u64, "every source makes its row: {stats:?}");
    assert!(stats.evictions > 0, "a third of the demand must overflow: {stats:?}");
    assert!(stats.resident_bytes <= cap, "{stats:?}");
    assert!(stats.peak_resident_bytes <= cap + SHARDS * row, "{stats:?}");
}
