//! The latency oracle: `d(u, v)` for overlay members.
//!
//! Every PROP probe, every LTM detector, and every metric evaluation asks
//! for the end-to-end latency between two overlay members. They all hold
//! one type, [`LatencyOracle`], which keeps its answers one of two ways —
//! all of them (the dense tier: per-domain blocks, or the matrix on a graph
//! without the decomposition below), or a byte-bounded cache of rows (the
//! row-cache tier). [`crate::latency`] describes the two [`Tier`]s and when
//! each is built. Both are exact, and answer alike to the bit.
//!
//! Exact answers come from the one row kernel (`crate::decomp`). Where the
//! graph has the verified transit–stub decomposition, `d(u, v)` between two
//! stub domains is one point query on both tiers — two record loads, one
//! transit cell and two adds — and a pair inside one domain is a meeting
//! search confined to it on the row-cache tier, a cell of the domain's
//! `k × k` block over its members on the dense tier; the row-cache tier
//! then keeps no row at all. Where it does not, a row is a whole-graph
//! Dijkstra over the members: the dense tier is the `n × n` matrix of
//! those, and a row enters the row-cache tier's cache only through the `d`
//! miss that first reads it — nothing is made, kept or reordered ahead of a
//! read.
//!
//! Construction routes on [`OracleConfig::tier`] through [`Tier::resolve`];
//! callers are tier-agnostic. Connectivity is validated by the
//! decomposition's own checks (both tiers on a transit–stub graph), per row
//! *during* construction (the dense matrix, whose kernel found no
//! decomposition — so it is the matrix that meets a disconnected member
//! set) or from a single source on the undirected graph (the row cache's
//! whole rows), and [`LatencyOracle::try_build_with`] reports the offending
//! member pair instead of panicking after the full build. Whole rows keep
//! two-byte milliseconds, and the row-cache tier refuses, the same way and
//! from the same one row, a member set too wide for them.
//!
//! Members are addressed by dense [`MemberIdx`] values `0..n`; the overlay
//! crates use the same indexing for peers.

use crate::decomp::{whole_row, Blocks, RowKernel};
use crate::graph::{PhysGraph, PhysNodeId};
use crate::latency::{OracleBuildError, OracleConfig, PairFault, Tier};
use crate::rowcache::{CacheStats, RowCache, RowMs};
use prop_engine::SimRng;
use std::sync::Arc;

/// Dense index of an overlay member inside a [`LatencyOracle`].
pub type MemberIdx = usize;

/// Independently locked LRU shards of a row store's cache: more shards,
/// less contention under parallel query load.
const CACHE_SHARDS: usize = 16;

/// The dense tier's matrix on a graph the row kernel refuses (Waxman,
/// multi-homed, disconnected), row-major `n × n`, each row a whole-graph
/// Dijkstra validated as it is produced — a disconnected pair fails fast
/// inside the row pass, before the matrix is assembled. It becomes the one
/// block of that graph's [`Blocks`]; a decomposed graph's dense tier has a
/// block per stub domain instead, and no matrix. Each row is written in
/// place: the build's peak is the one matrix.
fn dense_matrix(graph: &PhysGraph, members: &[PhysNodeId]) -> Result<Box<[u32]>, OracleBuildError> {
    let n = members.len();
    let mut matrix = vec![0u32; n * n];
    for i in 0..n {
        whole_row(graph, members, i, &mut matrix[i * n..(i + 1) * n])?;
    }
    Ok(matrix.into_boxed_slice())
}

/// The row-cache tier: exact answers over the oracle's members. On a graph
/// the row kernel decomposes every pair is `RowKernel::d`'s and no row is
/// made; on any other every pair reads a whole row over the members, made
/// by the `d` miss that reads it and kept in one byte-bounded LRU.
pub(crate) struct RowStore {
    /// Owned copy of the physical graph (CSR arrays): meeting searches run
    /// on it, and whole rows are recomputed from it on every cache miss.
    graph: PhysGraph,
    kernel: RowKernel,
    cache: RowCache,
}

impl RowStore {
    /// On a graph without the decomposition, validate the member set with
    /// the first member's whole row. The graph is undirected, so one source
    /// reaching every member means every pair is connected; and rows are
    /// exact, so `d` is a metric and `d(a, b) ≤ d(a, 0) + d(0, b)`: twice
    /// the row's largest entry inside [`RowMs`] means every latency any
    /// later row holds is. That one row is made four bytes wide, to be
    /// checked before it is narrowed, and is not kept. A decomposed graph
    /// keeps no row, and its own checks cover connectivity.
    fn try_build(
        graph: &PhysGraph,
        members: &[PhysNodeId],
        capacity_bytes: usize,
    ) -> Result<Self, OracleBuildError> {
        let rows = RowStore {
            kernel: RowKernel::new(graph, members),
            cache: RowCache::new(capacity_bytes, CACHE_SHARDS),
            graph: graph.clone(),
        };
        if rows.kernel.is_decomposed() || members.is_empty() {
            return Ok(rows);
        }
        let mut first = vec![0u32; members.len()];
        whole_row(&rows.graph, members, 0, &mut first)?;
        let (far, &ms) =
            first.iter().enumerate().max_by_key(|&(_, &ms)| ms).expect("members is not empty");
        if 2 * u64::from(ms) > u64::from(RowMs::MAX) {
            return Err(OracleBuildError {
                from_member: 0,
                from_host: members[0],
                to_member: far,
                to_host: members[far],
                fault: PairFault::TooFar { ms },
            });
        }
        Ok(rows)
    }

    /// Exact latency between members `a` and `b`, in ms. The one place a
    /// row enters the cache: on a miss, `a`'s whole row is made and stored.
    fn d(&self, members: &[PhysNodeId], a: MemberIdx, b: MemberIdx) -> u32 {
        debug_assert!(a < members.len() && b < members.len());
        if a == b {
            return 0;
        }
        if let Some(ms) = self.kernel.d(&self.graph, members, a, b) {
            return ms;
        }
        if let Some(r) = self.cache.get(a) {
            return r[b].into();
        }
        // Latencies are symmetric (undirected graph): b's row serves too.
        if let Some(r) = self.cache.get(b) {
            return r[a].into();
        }
        let mut row: Arc<[RowMs]> = std::iter::repeat_n(0, members.len()).collect();
        let out = Arc::get_mut(&mut row).expect("a fresh Arc has one owner");
        whole_row(&self.graph, members, a, out).expect("connectivity was validated at build");
        let d = row[b];
        self.cache.insert(a, row);
        d.into()
    }
}

/// How a built oracle keeps its answers; one arm per [`Tier`].
enum Store {
    /// On a graph the row kernel decomposes, the point query and one
    /// `k × k` block per stub domain over its members; on any other, one
    /// block that is the `n × n` matrix.
    Dense(Blocks),
    Rows(RowStore),
}

/// The tier-agnostic latency oracle every caller holds.
///
/// [`LatencyOracle::try_build_with`] picks the tier through
/// [`Tier::resolve`]: paper-scale populations get the dense tier — every
/// answer in memory: on a transit–stub graph point queries over the
/// decomposition beside one `k × k` block per stub domain, on any other
/// graph the `n × n` matrix — and larger ones the row-cache tier: the same
/// point queries beside a meeting search inside a domain, or whole rows in
/// a bounded cache on a graph without the decomposition. The two answer
/// identically byte-for-byte (property-tested in `tests/tier_equivalence.rs`).
pub struct LatencyOracle {
    /// Physical host backing each member.
    members: Vec<PhysNodeId>,
    /// Mean physical *link* latency — denominator of the stretch metric.
    mean_phys_link_latency: f64,
    store: Store,
}

/// Tier and size only — what `Result::unwrap_err` needs in the build-error
/// tests; the matrix or cache contents would be noise.
impl std::fmt::Debug for LatencyOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyOracle")
            .field("tier", &self.tier())
            .field("len", &self.len())
            .finish()
    }
}

/// What `embed_stats` returned while the oracle had a coordinate-embedded
/// tier, kept with its fields only so that `benchmark/src/scale.rs`
/// compiles. Every count is zero.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EmbedStats {
    pub embed_queries: u64,
    pub exact_queries: u64,
    pub escalations: u64,
}

impl EmbedStats {
    pub fn since(&self, earlier: &EmbedStats) -> EmbedStats {
        EmbedStats {
            embed_queries: self.embed_queries.saturating_sub(earlier.embed_queries),
            exact_queries: self.exact_queries.saturating_sub(earlier.exact_queries),
            escalations: self.escalations.saturating_sub(earlier.escalations),
        }
    }
}

impl LatencyOracle {
    /// Build over an explicit member set on the tier `cfg.tier` resolves to
    /// at this member count. A disconnected member set fails fast with the
    /// offending pair named.
    pub fn try_build_with(
        graph: &PhysGraph,
        members: Vec<PhysNodeId>,
        cfg: &OracleConfig,
    ) -> Result<Self, OracleBuildError> {
        let store = match cfg.tier.resolve(members.len()) {
            Tier::Dense => {
                Store::Dense(match RowKernel::new(graph, &members).into_blocks(graph, &members) {
                    Ok(blocks) => blocks,
                    Err(_) => Blocks::whole(dense_matrix(graph, &members)?, members.len()),
                })
            }
            Tier::Cached => {
                Store::Rows(RowStore::try_build(graph, &members, cfg.cache_capacity_bytes)?)
            }
            Tier::Auto => unreachable!("Tier::resolve names a tier"),
        };
        Ok(LatencyOracle { members, mean_phys_link_latency: graph.mean_link_latency(), store })
    }

    /// Select `n` overlay members uniformly from the graph's stub (edge
    /// host) population and build the oracle with default configuration.
    /// This mirrors the paper's setup: overlay peers are end systems, not
    /// backbone routers.
    ///
    /// Panics if the graph has fewer than `n` stub nodes.
    pub fn select_and_build(graph: &PhysGraph, n: usize, rng: &mut SimRng) -> Self {
        Self::select_and_build_with(graph, n, rng, &OracleConfig::default())
    }

    /// [`LatencyOracle::select_and_build`] with an explicit configuration.
    ///
    /// Also panics if any member cannot reach any other (the generators
    /// always produce connected graphs, so this indicates a bug), naming
    /// the offending member pair.
    pub fn select_and_build_with(
        graph: &PhysGraph,
        n: usize,
        rng: &mut SimRng,
        cfg: &OracleConfig,
    ) -> Self {
        let stubs = graph.stub_nodes();
        assert!(
            stubs.len() >= n,
            "requested {n} members but the topology has only {} stub hosts",
            stubs.len()
        );
        let members = rng.fork("member-selection").sample_distinct(&stubs, n);
        Self::try_build_with(graph, members, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// End-to-end latency between members `a` and `b`, in ms: exact, and
    /// the same on both tiers. A metric; flood pruning relies on it.
    #[inline]
    pub fn d(&self, a: MemberIdx, b: MemberIdx) -> u32 {
        match &self.store {
            Store::Dense(blocks) => blocks.d(a, b),
            Store::Rows(rows) => rows.d(&self.members, a, b),
        }
    }

    /// The physical host backing member `i`.
    #[inline]
    pub fn host(&self, i: MemberIdx) -> PhysNodeId {
        self.members[i]
    }

    /// Mean physical link latency (stretch denominator).
    #[inline]
    pub fn mean_phys_link_latency(&self) -> f64 {
        self.mean_phys_link_latency
    }

    /// Which tier was built; never [`Tier::Auto`].
    pub fn built_tier(&self) -> Tier {
        match &self.store {
            Store::Dense(_) => Tier::Dense,
            Store::Rows(_) => Tier::Cached,
        }
    }

    /// [`Self::built_tier`]'s label — for logs and experiment reports.
    pub fn tier(&self) -> &'static str {
        self.built_tier().label()
    }

    /// The row store behind this oracle; `None` on the dense tier, which
    /// keeps every answer.
    fn rows(&self) -> Option<&RowStore> {
        match &self.store {
            Store::Dense(_) => None,
            Store::Rows(rows) => Some(rows),
        }
    }

    /// Row-cache counters; `None` on the dense tier (which has no cache).
    /// A miss is one whole row made over the members. On a transit–stub
    /// graph no pair reads a row, and every counter stays zero; on any
    /// other graph every pair of two members does. `resident_rows` counts
    /// entries and `resident_bytes` sums their own lengths.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.rows().map(|rows| rows.cache.stats())
    }

    // No-op kept for one caller outside the workspace's packages:
    // `benchmark/src/probes.rs` calls it before its row probes. A row
    // enters the store only through a `d` miss, so there is nothing to
    // warm; the next `benchmark` change drops those calls and this stub
    // with them.
    #[doc(hidden)]
    pub fn warm_rows(&self, _sources: &[MemberIdx]) {}

    // Kept, like `OracleConfig::embedded` and `EmbedStats`, only because
    // `benchmark/src/scale.rs` names it; there is no embedded tier to count.
    #[doc(hidden)]
    pub fn embed_stats(&self) -> Option<EmbedStats> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_paths;
    use crate::graph::{LinkClass, NodeClass, PhysGraphBuilder};
    use crate::transit_stub::{generate, TransitStubParams};
    use crate::waxman::{generate_waxman, WaxmanParams};

    fn tiny_oracle(n: usize, seed: u64) -> LatencyOracle {
        let mut rng = SimRng::seed_from(seed);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        LatencyOracle::select_and_build(&g, n, &mut rng)
    }

    fn tiny_cached(n: usize, seed: u64, capacity: usize) -> LatencyOracle {
        let mut rng = SimRng::seed_from(seed);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        LatencyOracle::select_and_build_with(&g, n, &mut rng, &OracleConfig::cached(capacity))
    }

    /// Bytes one stored row of `cells` occupies.
    fn row_bytes(cells: usize) -> usize {
        cells * std::mem::size_of::<RowMs>()
    }

    /// A row-cache oracle over 40 hosts of a Waxman graph, which the row
    /// kernel refuses — so every pair of two members reads a whole row of
    /// 40 cells — its budget `rows_a_shard` rows in every shard; with its
    /// graph.
    fn waxman_rows(seed: u64, rows_a_shard: usize) -> (LatencyOracle, PhysGraph) {
        let mut rng = SimRng::seed_from(seed);
        let g = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        let members = rng.sample_distinct(&g.stub_nodes(), 40);
        let cfg = OracleConfig::cached(rows_a_shard * CACHE_SHARDS * row_bytes(40));
        let o = LatencyOracle::try_build_with(&g, members, &cfg).unwrap();
        assert!(!o.rows().unwrap().kernel.is_decomposed());
        (o, g)
    }

    /// Two stub components with no path between them.
    fn disconnected_graph() -> (PhysGraph, Vec<PhysNodeId>) {
        let mut b = PhysGraphBuilder::new();
        let a0 = b.add_node(NodeClass::Stub { domain: 0, gateway: 0 });
        let a1 = b.add_node(NodeClass::Stub { domain: 0, gateway: 0 });
        let b0 = b.add_node(NodeClass::Stub { domain: 1, gateway: 1 });
        let b1 = b.add_node(NodeClass::Stub { domain: 1, gateway: 1 });
        b.add_link(a0, a1, 5, LinkClass::StubStub);
        b.add_link(b0, b1, 5, LinkClass::StubStub);
        (b.build(), vec![a0, a1, b0, b1])
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let o = tiny_oracle(20, 1);
        for a in 0..o.len() {
            assert_eq!(o.d(a, a), 0);
            for b in 0..o.len() {
                assert_eq!(o.d(a, b), o.d(b, a));
            }
        }
    }

    #[test]
    fn triangle_inequality() {
        let o = tiny_oracle(15, 2);
        for a in 0..o.len() {
            for b in 0..o.len() {
                for c in 0..o.len() {
                    assert!(o.d(a, b) <= o.d(a, c) + o.d(c, b));
                }
            }
        }
    }

    #[test]
    fn d_is_a_metric_on_every_tier() {
        // The premise of goal-directed floods (`prop_overlay::FloodScratch`):
        // `d(u, dst)` bounds every route `u → … → dst` from below only if `d`
        // is symmetric, zero on the diagonal and obeys the triangle
        // inequality — on the row cache also while rows are evicted mid-loop,
        // which only a graph the row kernel refuses has: on `tiny()` the
        // row cache answers by meeting searches and keeps no row.
        let n = 40;
        for seed in 0..32u64 {
            // One whole row a shard on Waxman, and 40 sources share 16
            // shards: every shard evicts.
            let tiers =
                [OracleConfig::default(), OracleConfig::cached(CACHE_SHARDS * row_bytes(n))];
            for (decomposed, cfg) in [true, false].into_iter().flat_map(|d| tiers.map(|c| (d, c))) {
                let mut rng = SimRng::seed_from(seed);
                let g = if decomposed {
                    generate(&TransitStubParams::tiny(), &mut rng)
                } else {
                    generate_waxman(&WaxmanParams::tiny(), &mut rng)
                };
                let o = LatencyOracle::select_and_build_with(&g, n, &mut rng, &cfg);
                let tier = o.tier();
                for a in 0..n {
                    assert_eq!(o.d(a, a), 0, "seed {seed} {tier}: d({a},{a})");
                    for b in 0..n {
                        let ab = o.d(a, b);
                        assert_eq!(ab, o.d(b, a), "seed {seed} {tier}: d({a},{b}) asymmetric");
                        for c in 0..n {
                            assert!(
                                o.d(a, c) <= ab + o.d(b, c),
                                "seed {seed} {tier}: d({a},{c}) > d({a},{b}) + d({b},{c})"
                            );
                        }
                    }
                }
                if let Some(s) = o.cache_stats() {
                    let at = format!("seed {seed}, decomposed {decomposed}: {s:?}");
                    assert_eq!(s.evictions > 0, !decomposed, "{at}");
                    assert_eq!(s.misses == 0, decomposed, "{at}");
                    assert!(s.resident_bytes <= s.capacity_bytes, "{at}");
                }
            }
        }
    }

    #[test]
    fn members_are_stub_hosts() {
        let mut rng = SimRng::seed_from(3);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        let o = LatencyOracle::select_and_build(&g, 10, &mut rng);
        for i in 0..o.len() {
            assert!(!g.class(o.host(i)).is_transit());
        }
    }

    #[test]
    fn members_are_distinct() {
        let o = tiny_oracle(30, 4);
        let mut hosts: Vec<_> = (0..o.len()).map(|i| o.host(i)).collect();
        hosts.sort();
        hosts.dedup();
        assert_eq!(hosts.len(), 30);
    }

    #[test]
    fn distances_match_direct_dijkstra() {
        let mut rng = SimRng::seed_from(5);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        let o = LatencyOracle::select_and_build(&g, 12, &mut rng);
        for a in 0..o.len() {
            let full = shortest_paths(&g, o.host(a));
            for b in 0..o.len() {
                assert_eq!(o.d(a, b), full[o.host(b).index()]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "stub hosts")]
    fn oversubscription_rejected() {
        let _ = tiny_oracle(1000, 7);
    }

    #[test]
    fn deterministic_selection() {
        let a = tiny_oracle(10, 8);
        let b = tiny_oracle(10, 8);
        for i in 0..10 {
            assert_eq!(a.host(i), b.host(i));
        }
    }

    #[test]
    fn default_config_routes_small_populations_to_dense() {
        let o = tiny_oracle(10, 9);
        assert_eq!(o.tier(), "dense");
        assert!(o.cache_stats().is_none());
    }

    /// Bytes the dense tier's store holds.
    fn dense_bytes(o: &LatencyOracle) -> usize {
        match &o.store {
            Store::Dense(blocks) => blocks.bytes(),
            _ => panic!("{} is not the dense tier", o.tier()),
        }
    }

    #[test]
    fn the_dense_tier_keeps_a_block_per_stub_domain_and_a_matrix_only_where_refused() {
        // ts_large at n = 1000: ≈ 6.7 members in each of 150 domains — blocks,
        // 16 KB of records and a 50-node core come to 57 KB here, where the
        // matrix is 4 MB. ts_small at n = 3000 is every stub host, thirty
        // domains of 100: 1.25 MB against a 36 MB matrix.
        let mut rng = SimRng::seed_from(29);
        let cases = [
            ("ts_large", TransitStubParams::ts_large(), 1000, 128 << 10),
            ("ts_small", TransitStubParams::ts_small(), 3000, 2 << 20),
        ];
        for (name, params, n, bound) in cases {
            let g = generate(&params, &mut rng);
            let o = LatencyOracle::select_and_build_with(&g, n, &mut rng, &OracleConfig::dense());
            let bytes = dense_bytes(&o);
            assert!(bytes < bound, "{name}, n = {n}: {bytes} bytes, bound {bound}");
        }
        let g = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        let n = 40;
        let o = LatencyOracle::select_and_build_with(&g, n, &mut rng, &OracleConfig::dense());
        // The u32 matrix, and a 16-byte record a member beside it.
        let bytes = dense_bytes(&o);
        assert!((4 * n * n..4 * n * n + 17 * n).contains(&bytes), "{bytes} bytes on Waxman");
    }

    #[test]
    fn cached_config_routes_to_row_cache() {
        let o = tiny_cached(10, 9, 1 << 20);
        assert_eq!(o.tier(), "row-cache");
        assert!(o.cache_stats().is_some());
    }

    #[test]
    fn cached_tier_matches_dense_tier() {
        let dense = tiny_oracle(20, 10);
        let cached = tiny_cached(20, 10, 1 << 20);
        assert_eq!(dense.len(), cached.len());
        for a in 0..20 {
            assert_eq!(dense.host(a), cached.host(a));
            for b in 0..20 {
                assert_eq!(dense.d(a, b), cached.d(a, b));
            }
        }
    }

    #[test]
    fn cached_tier_counts_hits_and_misses() {
        let (o, _) = waxman_rows(11, 8);
        let s0 = o.cache_stats().unwrap();
        let first = o.d(3, 4); // row 3 computed
        let again = o.d(3, 5); // row 3 hit
        assert!(first > 0 && again > 0);
        let s = o.cache_stats().unwrap().since(&s0);
        assert_eq!((s.hits, s.misses), (1, 1), "{s:?}");
    }

    #[test]
    fn a_decomposed_graph_leaves_the_row_store_empty() {
        // Any workload on a transit–stub graph — every ordered pair, three
        // passes, forwards and back, under a budget of one byte or of
        // plenty, on `tiny()`, the two unequal domains of a hand-built
        // graph, and `scaled(3000)` — answers as whole-graph Dijkstra does
        // and leaves the row store as it was built: nothing made, nothing
        // kept, nothing counted.
        let mut rng = SimRng::seed_from(28);
        let tiny = generate(&TransitStubParams::tiny(), &mut rng);
        let tiny_members = tiny.stub_nodes();
        let scaled = generate(&TransitStubParams::scaled(3000), &mut rng);
        let scaled_members = rng.sample_distinct(&scaled.stub_nodes(), 200);
        let unequal = {
            let mut b = PhysGraphBuilder::new();
            let t0 = b.add_node(NodeClass::Transit { domain: 0 });
            let t1 = b.add_node(NodeClass::Transit { domain: 1 });
            let a: Vec<_> =
                (0..3).map(|_| b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 })).collect();
            let c: Vec<_> =
                (0..2).map(|_| b.add_node(NodeClass::Stub { domain: 1, gateway: t1.0 })).collect();
            b.add_link(t0, t1, 100, LinkClass::TransitTransit);
            b.add_link(a[0], t0, 20, LinkClass::StubTransit);
            b.add_link(a[0], a[1], 5, LinkClass::StubStub);
            b.add_link(a[1], a[2], 7, LinkClass::StubStub);
            b.add_link(c[0], t1, 30, LinkClass::StubTransit);
            b.add_link(c[0], c[1], 5, LinkClass::StubStub);
            let members = [a, c].concat();
            (b.build(), members)
        };
        let cases = [
            ("tiny", (tiny, tiny_members)),
            ("scaled(3000)", (scaled, scaled_members)),
            ("two unequal domains", unequal),
        ];
        for (name, (g, members)) in cases {
            let n = members.len();
            let full: Vec<Vec<u32>> = members.iter().map(|&m| shortest_paths(&g, m)).collect();
            for cap in [1, 1 << 20] {
                let o =
                    LatencyOracle::try_build_with(&g, members.clone(), &OracleConfig::cached(cap))
                        .unwrap();
                assert!(o.rows().unwrap().kernel.is_decomposed(), "{name}");
                let built = o.cache_stats().unwrap();
                for pass in 0..3 {
                    for i in 0..n * n {
                        let i = if pass == 2 { n * n - 1 - i } else { i };
                        let (a, b) = (i / n, i % n);
                        let want = full[a][members[b].index()];
                        assert_eq!(o.d(a, b), want, "{name}, pass {pass}: d({a}, {b})");
                    }
                }
                let s = o.cache_stats().unwrap();
                assert_eq!(s, built, "{name}, cap {cap}");
                assert_eq!((s.misses, s.resident_rows), (0, 0), "{name}, cap {cap}");
            }
        }
    }

    #[test]
    fn a_never_warmed_oracle_answers_every_miss_as_dijkstra_does() {
        // One row a shard and nothing warmed: every row read below was made
        // by a `d` miss, by the kernel's whole-graph row on the Waxman
        // graph; the transit–stub one answers every pair by the kernel and
        // makes none.
        let mut rng = SimRng::seed_from(26);
        let transit_stub = generate(&TransitStubParams::tiny(), &mut rng);
        let waxman = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        for (decomposed, g) in [(true, transit_stub), (false, waxman)] {
            let members = rng.sample_distinct(&g.stub_nodes(), 40);
            let n = members.len();
            let o = LatencyOracle::try_build_with(&g, members, &OracleConfig::cached(1)).unwrap();
            assert_eq!(o.rows().unwrap().kernel.is_decomposed(), decomposed);
            let built = o.cache_stats().unwrap();
            for a in 0..n {
                let full = shortest_paths(&g, o.host(a));
                for b in 0..n {
                    assert_eq!(o.d(a, b), full[o.host(b).index()], "({a}, {b})");
                }
            }
            let s = o.cache_stats().unwrap().since(&built);
            if decomposed {
                assert_eq!((s.hits, s.misses, s.resident_rows), (0, 0, 0), "{s:?}");
            } else {
                // Whole rows: every source misses.
                assert!(s.misses >= n as u64, "{s:?}");
                assert!(s.evictions > 0, "{s:?}");
                assert!(s.resident_rows <= CACHE_SHARDS, "{s:?}");
            }
        }
    }

    #[test]
    fn a_row_enters_the_store_only_through_a_d_miss() {
        // On the one row shape left, a Waxman graph's whole rows: the
        // build's checked row leaves the cache empty and uncounted, one `d`
        // miss adds one miss and the one row it read, filed under its
        // source, `warm_rows` then leaves the cache bit-equal, and the next
        // read of that row hits.
        for seed in 0..4 {
            let (o, _) = waxman_rows(seed, 8);
            let at = format!("seed {seed}");
            let built = o.cache_stats().unwrap();
            assert_eq!((built.resident_rows, built.misses), (0, 0), "{at}");
            let _ = o.d(3, 4);
            let s = o.cache_stats().unwrap();
            assert_eq!((s.hits, s.misses, s.resident_rows), (0, 1, 1), "{at}");
            assert_eq!(s.resident_bytes, row_bytes(40), "{at}");
            o.warm_rows(&(0..o.len()).collect::<Vec<_>>());
            assert_eq!(o.cache_stats().unwrap(), s, "{at}: warm_rows");
            let _ = o.d(3, 5);
            let s = o.cache_stats().unwrap();
            assert_eq!((s.hits, s.misses, s.resident_rows), (1, 1, 1), "{at}");
        }
    }

    #[test]
    fn tiny_capacity_evicts_but_stays_correct() {
        // Forty sources over sixteen shards and a budget of one whole row a
        // shard: every shard evicts on every pass and the cache ends inside
        // its byte budget.
        let (cached, g) = waxman_rows(13, 1);
        let n = cached.len();
        let members = (0..n).map(|i| cached.host(i)).collect();
        let dense = LatencyOracle::try_build_with(&g, members, &OracleConfig::dense()).unwrap();
        for pass in 0..3 {
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(cached.d(a, b), dense.d(a, b), "pass {pass}, pair ({a},{b})");
                }
            }
        }
        let s = cached.cache_stats().unwrap();
        assert!(s.evictions > 0, "tiny capacity must evict");
        assert!(s.resident_bytes <= s.capacity_bytes, "{s:?}");
        assert_eq!(s.resident_bytes, s.resident_rows * row_bytes(n), "{s:?}");
    }

    #[test]
    fn try_build_reports_offending_pair_dense() {
        let (g, members) = disconnected_graph();
        let err = LatencyOracle::try_build_with(&g, members.clone(), &OracleConfig::default())
            .unwrap_err();
        // Some member of component A cannot reach some member of component B.
        assert_ne!(err.from_member, err.to_member);
        let (a_side, b_side) = (err.from_member < 2, err.to_member < 2);
        assert_ne!(a_side, b_side, "pair must straddle the two components");
        assert_eq!(err.from_host, members[err.from_member]);
        assert_eq!(err.to_host, members[err.to_member]);
        assert_eq!(err.fault, PairFault::Disconnected);
    }

    #[test]
    fn try_build_reports_offending_pair_cached() {
        let (g, members) = disconnected_graph();
        let err =
            LatencyOracle::try_build_with(&g, members, &OracleConfig::cached(1 << 20)).unwrap_err();
        assert_eq!(err.from_member, 0, "cached tier validates from the first member");
        assert!(err.to_member >= 2, "components straddled");
        assert_eq!(err.fault, PairFault::Disconnected);
    }

    #[test]
    fn a_latency_past_the_row_width_is_a_build_error_on_the_row_tiers_only() {
        // Every host of a Waxman graph whose longest link is 40,000 ms: its
        // rows are whole, the first member's farthest is at least one link
        // of the graph's, and twice that is past `RowMs::MAX`.
        let params = WaxmanParams { max_latency_ms: 40_000, ..WaxmanParams::tiny() };
        let g = generate_waxman(&params, &mut SimRng::seed_from(24));
        let members = g.stub_nodes();
        let from_first = shortest_paths(&g, members[0]);
        let farthest = members.iter().map(|m| from_first[m.index()]).max().unwrap();
        assert!(2 * farthest > u32::from(RowMs::MAX), "{farthest}");
        let err =
            LatencyOracle::try_build_with(&g, members.clone(), &OracleConfig::cached(1 << 20))
                .unwrap_err();
        assert_eq!(err.fault, PairFault::TooFar { ms: farthest });
        assert_eq!((err.from_member, err.from_host), (0, members[0]));
        assert_eq!(err.to_host, members[err.to_member]);
        assert_eq!(from_first[err.to_host.index()], farthest);
        let msg = err.to_string();
        assert!(msg.contains(&format!("{farthest} ms")) && !msg.contains('\n'), "{msg}");
        // The matrix is `u32`: it builds, and answers past sixteen bits.
        let dense = LatencyOracle::try_build_with(&g, members, &OracleConfig::dense())
            .expect("the dense tier has no width limit");
        assert_eq!((0..dense.len()).map(|j| dense.d(0, j)).max(), Some(farthest));
        // A transit–stub graph as wide keeps no row, so neither tier has a
        // limit there: the row cache builds and answers past sixteen bits.
        let params = TransitStubParams { transit_transit_ms: 40_000, ..TransitStubParams::tiny() };
        let g = generate(&params, &mut SimRng::seed_from(24));
        let members = g.stub_nodes();
        let from_first = shortest_paths(&g, members[0]);
        let cached =
            LatencyOracle::try_build_with(&g, members.clone(), &OracleConfig::cached(1 << 20))
                .expect("a decomposed graph keeps no row to be too narrow");
        for (j, m) in members.iter().enumerate() {
            assert_eq!(cached.d(0, j), from_first[m.index()], "{j}");
        }
        assert!((0..cached.len()).any(|j| cached.d(0, j) > u32::from(RowMs::MAX)));
    }

    #[test]
    fn the_width_check_is_on_twice_the_first_row_and_is_exact_at_the_edge() {
        // A path m1 - m0 - m2: row 0 holds (0, a, b) and `d(m1, m2) = a + b`.
        // `2 · max(a, b) ≤ 65,535` is what is checked, so 32,767 either
        // side builds — and row 1 then holds 65,534, which reads back —
        // while 32,768 on one side is refused though 65,535 itself fits.
        let path = |a: u32, b: u32| {
            let mut g = PhysGraphBuilder::new();
            let m: Vec<_> =
                (0..3).map(|_| g.add_node(NodeClass::Stub { domain: 0, gateway: 0 })).collect();
            g.add_link(m[0], m[1], a, LinkClass::StubStub);
            g.add_link(m[0], m[2], b, LinkClass::StubStub);
            (g.build(), m)
        };
        let (g, m) = path(32_767, 32_767);
        let o =
            LatencyOracle::try_build_with(&g, m.clone(), &OracleConfig::cached(1 << 20)).unwrap();
        assert_eq!(o.d(1, 2), 65_534);
        assert_eq!(o.d(2, 0), 32_767);
        let (g, m) = path(32_767, 32_768);
        let err = LatencyOracle::try_build_with(&g, m, &OracleConfig::cached(1 << 20)).unwrap_err();
        assert_eq!((err.to_member, err.fault), (2, PairFault::TooFar { ms: 32_768 }));
    }

    #[test]
    #[should_panic(expected = "disconnected member set")]
    fn build_panics_on_disconnection() {
        // All four hosts are stubs, so selecting four takes both components.
        let (g, members) = disconnected_graph();
        let _ = LatencyOracle::select_and_build(&g, members.len(), &mut SimRng::seed_from(0));
    }

    #[test]
    fn each_forced_tier_builds_the_tier_and_budget_it_says() {
        let b = 1 << 20;
        // The last two are the spellings `benchmark/src/scale.rs` uses; the
        // hidden `embedded()` is the cached configuration.
        let rows = [
            (OracleConfig::default(), Tier::Dense, None),
            (OracleConfig::dense(), Tier::Dense, None),
            (OracleConfig { tier: Tier::Cached, ..OracleConfig::default() }, Tier::Cached, None),
            (OracleConfig::cached(b), Tier::Cached, Some(b)),
            (
                OracleConfig { cache_capacity_bytes: b, ..OracleConfig::embedded() },
                Tier::Cached,
                Some(b),
            ),
        ];
        for (cfg, tier, budget) in rows {
            let mut rng = SimRng::seed_from(22);
            let g = generate(&TransitStubParams::tiny(), &mut rng);
            let o = LatencyOracle::select_and_build_with(&g, 16, &mut rng, &cfg);
            assert_eq!(o.built_tier(), tier, "{cfg:?}");
            assert_eq!(o.tier(), tier.label(), "{cfg:?}");
            let capacity = o.cache_stats().map(|s| s.capacity_bytes);
            let default_budget = OracleConfig::default().cache_capacity_bytes;
            let expected = (tier != Tier::Dense).then_some(budget.unwrap_or(default_budget));
            assert_eq!(capacity, expected, "{cfg:?}");
        }
    }

    #[test]
    fn an_empty_member_set_builds_on_every_tier() {
        let g = generate(&TransitStubParams::tiny(), &mut SimRng::seed_from(23));
        for cfg in [OracleConfig::dense(), OracleConfig::cached(1 << 20)] {
            let o = LatencyOracle::try_build_with(&g, Vec::new(), &cfg).unwrap();
            assert!(o.is_empty(), "{}", o.tier());
            assert_eq!(o.cache_stats().map(|s| s.resident_rows).unwrap_or(0), 0);
        }
    }

    #[test]
    fn the_embed_shims_build_the_cached_tier_and_count_nothing() {
        // `benchmark/src/scale.rs` still spells the deleted tier's
        // configuration and reads its counters.
        let mut rng = SimRng::seed_from(20);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        let o = LatencyOracle::select_and_build_with(&g, 16, &mut rng, &OracleConfig::embedded());
        assert_eq!(o.built_tier(), Tier::Cached);
        for oracle in [&o, &tiny_oracle(10, 21)] {
            let s = oracle.embed_stats().unwrap_or_default();
            assert_eq!(s.since(&EmbedStats::default()), EmbedStats::default());
            assert!(oracle.embed_stats().is_none());
        }
    }
}
