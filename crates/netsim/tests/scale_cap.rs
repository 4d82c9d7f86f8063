//! Memory-cap integration test: a 20,000-member oracle (dense equivalent:
//! 20,000² × 4 B = 1.5 GiB) answers a clustered query workload under a
//! 64 MiB row-cache budget — the small-scale twin of the `scale`
//! experiment binary's 100k/512 MiB claim, kept cheap enough for
//! `cargo test`.
//!
//! `scaled(20_000)` is a transit–stub graph, so the store answers a pair in
//! two stub domains without a row and keeps, for a pair inside one, a row
//! over that domain's hosts (134 of them: 268 bytes, not the 40 KB of a
//! whole row). The workload therefore reads inside domains, and is run
//! twice: under the 64 MiB budget, which now holds every row it can ask
//! for, and under a third of its own row demand, where the LRU must evict.

use prop_engine::SimRng;
use prop_netsim::{dijkstra, generate, LatencyOracle, NodeClass, OracleConfig, TransitStubParams};

const MEMBERS: usize = 20_000;
const CAP_BYTES: usize = 64 << 20;
/// Locks the oracle splits its cache over (`oracle::CACHE_SHARDS`).
const SHARDS: usize = 16;

#[test]
fn twenty_k_members_stay_under_64_mib() {
    let mut rng = SimRng::seed_from(9);
    let params = TransitStubParams::scaled(MEMBERS);
    let g = generate(&params, &mut rng);
    let members = rng.fork("member-selection").sample_distinct(&g.stub_nodes(), MEMBERS);

    // Hosts of each stub domain (the cells of a row kept there) and its
    // members, in member order.
    let domain = |h| match g.class(h) {
        NodeClass::Stub { domain, .. } => domain as usize,
        NodeClass::Transit { .. } => unreachable!("stub hosts only"),
    };
    let mut hosts: Vec<usize> = Vec::new();
    for h in g.stub_nodes() {
        let d = domain(h);
        hosts.resize(hosts.len().max(d + 1), 0);
        hosts[d] += 1;
    }
    let mut mates: Vec<Vec<usize>> = vec![Vec::new(); hosts.len()];
    for (m, &h) in members.iter().enumerate() {
        mates[domain(h)].push(m);
    }
    let widest = 2 * hosts.iter().max().unwrap();

    // Clustered workload: 2,000 distinct sources (every 10th member),
    // warmed in batches, three queries inside the source's domain and
    // three across the core each. Row demand is one domain row a source.
    let sources: Vec<usize> = (0..MEMBERS).step_by(10).collect();
    assert_eq!(sources.len(), 2_000);
    let demand: usize = sources.iter().map(|&s| 2 * hosts[domain(members[s])]).sum();
    let near = |s: usize, k: usize| {
        let peers = &mates[domain(members[s])];
        peers[(peers.binary_search(&s).unwrap() + k) % peers.len()]
    };
    let far = |s: usize, k: usize| (s * 7 + 13 * k) % MEMBERS;

    for cap in [CAP_BYTES, demand / 3] {
        let cfg = OracleConfig { cache_capacity_bytes: cap, ..OracleConfig::default() };
        let oracle = LatencyOracle::try_build_with(&g, members.clone(), &cfg).unwrap();
        assert_eq!(oracle.tier(), "row-cache", "20k members must route to the cached tier");
        assert_eq!(oracle.len(), MEMBERS);
        for chunk in sources.chunks(400) {
            oracle.warm_rows(chunk);
            for &s in chunk {
                for k in 1..=3usize {
                    for t in [near(s, k), far(s, k)] {
                        assert!(oracle.d(s, t) < u32::MAX, "member {s} cannot reach {t}");
                    }
                }
            }
        }

        let stats = oracle.cache_stats().expect("cached tier exposes stats");
        // A source's row is made by its first read inside the domain —
        // unless that mate is an earlier source whose row is still there.
        assert!(stats.misses > 0 && stats.misses <= sources.len() as u64, "{stats:?}");
        assert!(stats.hits >= 2 * sources.len() as u64, "later reads find a row: {stats:?}");
        if cap == CAP_BYTES {
            assert!(stats.peak_resident_bytes <= demand, "only domain rows are kept: {stats:?}");
            assert_eq!(stats.evictions, 0, "64 MiB holds every row asked for: {stats:?}");
            assert_eq!(stats.resident_rows as u64, stats.misses, "{stats:?}");
        } else {
            assert!(stats.evictions > 0, "a third of the demand must overflow: {stats:?}");
            assert!(stats.resident_bytes <= cap, "{stats:?}");
            assert!(stats.peak_resident_bytes <= cap + SHARDS * widest, "{stats:?}");
        }

        // Spot-check answers against a direct Dijkstra from the same host.
        for &s in sources.iter().step_by(500) {
            let dist = dijkstra::shortest_paths(&g, oracle.host(s));
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
    }
}
