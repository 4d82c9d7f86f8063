//! Memory-cap integration test: a 20,000-member oracle (dense equivalent:
//! 20,000² × 4 B = 1.5 GiB) answers a clustered query workload under a
//! 64 MiB row-cache budget — the small-scale twin of the `scale`
//! experiment binary's 100k/512 MiB claim, kept cheap enough for
//! `cargo test`.

use prop_engine::SimRng;
use prop_netsim::{dijkstra, generate, LatencyOracle, OracleConfig, TransitStubParams};

const MEMBERS: usize = 20_000;
const CAP_BYTES: usize = 64 << 20;

#[test]
fn twenty_k_members_stay_under_64_mib() {
    let mut rng = SimRng::seed_from(9);
    let params = TransitStubParams::scaled(MEMBERS);
    let g = generate(&params, &mut rng);
    let oracle = LatencyOracle::select_and_build_with(
        &g,
        MEMBERS,
        &mut rng,
        &OracleConfig { cache_capacity_bytes: CAP_BYTES, ..OracleConfig::default() },
    );
    assert_eq!(oracle.tier(), "row-cache", "20k members must route to the cached tier");
    assert_eq!(oracle.len(), MEMBERS);

    // Clustered workload: 2,000 distinct sources (every 10th member),
    // warmed in cache-friendly batches, three queries each. Total row
    // demand is 2,000 × 40 KB = 78 MiB (two bytes a member) — 1.2× the
    // budget, which holds 16 shards × 104 rows = 1,664 of them, so the
    // cache must evict to stay under the cap.
    let sources: Vec<usize> = (0..MEMBERS).step_by(10).collect();
    assert_eq!(sources.len(), 2_000);
    for chunk in sources.chunks(400) {
        oracle.warm_rows(chunk);
        for &s in chunk {
            for k in 1..=3usize {
                let t = (s * 7 + 13 * k) % MEMBERS;
                let d = oracle.d(s, t);
                assert!(d < u32::MAX, "member {s} cannot reach {t}");
            }
        }
    }

    let stats = oracle.cache_stats().expect("cached tier exposes stats");
    assert!(
        stats.peak_resident_bytes <= CAP_BYTES,
        "peak residency {} exceeds the {} byte cap",
        stats.peak_resident_bytes,
        CAP_BYTES
    );
    assert!(stats.evictions > 0, "workload was sized to overflow the cap: {stats:?}");
    assert!(stats.misses >= sources.len() as u64, "each warmed row is a miss: {stats:?}");
    assert!(stats.hits > 0, "in-chunk queries should hit warmed rows: {stats:?}");

    // Spot-check answers against a direct Dijkstra from the same host.
    for &s in sources.iter().step_by(500) {
        let dist = dijkstra::shortest_paths(&g, oracle.host(s));
        for k in 1..=3usize {
            let t = (s * 7 + 13 * k) % MEMBERS;
            assert_eq!(
                oracle.d(s, t),
                dist[oracle.host(t).index()],
                "oracle disagrees with direct Dijkstra for ({s}, {t})"
            );
        }
    }
}
