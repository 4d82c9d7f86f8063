//! The latency oracle: `d(u, v)` for overlay members.
//!
//! Every PROP probe, every LTM detector, and every metric evaluation asks
//! for the end-to-end latency between two overlay members. They all hold
//! one type, [`LatencyOracle`], which keeps its answers in one of two
//! stores — all of them (the dense tier: per-domain blocks, or the matrix
//! on a graph without the decomposition below), or none (the search store
//! of the search tier, which keeps no row). [`crate::latency`] describes
//! the two [`Tier`]s and when each is built. Both are exact, and answer
//! alike to the bit.
//!
//! Exact answers come from the one row kernel (`crate::decomp`). Where the
//! graph has the verified transit–stub decomposition, `d(u, v)` between two
//! stub domains is one point query on both tiers — two record loads, one
//! transit cell and two adds — and a pair inside one domain is a meeting
//! search confined to it on the search tier, a cell of the domain's
//! `k × k` block over its members on the dense tier. Where it does not,
//! every tier is the `n × n` matrix of whole-graph Dijkstra rows, and a
//! member set past [`Tier::DENSE_MAX_MEMBERS`] is refused.
//!
//! There is one read path: [`LatencyOracle::source`] binds the point query
//! to one member, and its [`Source::to`] is inlined into the caller —
//! `d(a, b)` is `source(a).to(b)`, and a caller pricing every neighbour of
//! a peer loads that peer's record and transit row once.
//!
//! Construction routes on [`OracleConfig::tier`] through [`Tier::resolve`];
//! callers are tier-agnostic. Connectivity is validated by the
//! decomposition's own checks on a transit–stub graph, and per row
//! *during* construction of the matrix otherwise (so it is the matrix that
//! meets a disconnected member set); [`LatencyOracle::try_build_with`]
//! reports the offending member pair instead of panicking after the full
//! build.
//!
//! Members are addressed by dense [`MemberIdx`] values `0..n`; the overlay
//! crates use the same indexing for peers.

use crate::decomp::{Blocks, Decomposition, Points, PointsFrom, Record};
use crate::graph::{PhysGraph, PhysNodeId};
use crate::latency::{OracleBuildError, OracleConfig, Tier};
use prop_engine::SimRng;

/// Dense index of an overlay member inside a [`LatencyOracle`].
pub type MemberIdx = usize;

/// How a built oracle answers the pairs its point query leaves over (two
/// members of one tag); one arm per [`Tier`].
enum Store {
    /// On a graph the row kernel decomposes, one `k × k` block per stub
    /// domain over its members; on any other, one block that is the
    /// `n × n` matrix.
    Dense(Blocks),
    /// The per-thread meeting search, over an owned copy of the graph (CSR
    /// arrays) the searches run on. No row, no cache.
    Search { graph: PhysGraph, dec: Decomposition },
}

/// The tier-agnostic latency oracle every caller holds.
///
/// [`LatencyOracle::try_build_with`] picks the tier through
/// [`Tier::resolve`]: paper-scale populations get the dense tier — every
/// answer in memory: on a transit–stub graph point queries over the
/// decomposition beside one `k × k` block per stub domain, on any other
/// graph the `n × n` matrix — and larger ones the search store: the same
/// point queries beside a meeting search inside a domain. The two answer
/// identically byte-for-byte (property-tested in `tests/tier_equivalence.rs`).
pub struct LatencyOracle {
    /// Physical host backing each member.
    members: Vec<PhysNodeId>,
    /// Mean physical *link* latency — denominator of the stretch metric.
    mean_phys_link_latency: f64,
    /// The point query both stores share: on a graph without the
    /// decomposition it gives every member one tag, and defers every pair.
    points: Points,
    store: Store,
}

/// One member as the point query reads it ([`LatencyOracle::point`]):
/// sixteen opaque bytes that a [`Source`] turns into `d` without looking
/// the member up again. A caller that reads many members' distances to one
/// source keeps their points beside its own per-member state.
///
/// The default point names no member; it is a filler for a caller's table,
/// never a value to measure from or to.
#[derive(Clone, Copy, Debug, Default)]
pub struct Point(Record);

/// [`LatencyOracle::d`] from one member, bound by [`LatencyOracle::source`].
#[derive(Clone, Copy)]
pub struct Source<'a> {
    from: PointsFrom<'a>,
    a: MemberIdx,
    oracle: &'a LatencyOracle,
}

impl Source<'_> {
    /// `d(a, b)`, in ms, for the member `a` this source is bound to. Two
    /// members of one tag are a block cell on the dense tier and a meeting
    /// search, out of line, on the search store.
    // `always`: at `#[inline]` the planners called it, one call a read.
    #[inline(always)]
    pub fn to(&self, b: MemberIdx) -> u32 {
        match self.from.point(b) {
            Ok(ms) => ms,
            Err(rb) => match &self.oracle.store {
                Store::Dense(blocks) => blocks.cell(&self.from, rb),
                Store::Search { graph, dec } => {
                    dec.meet(graph, &self.oracle.members, rb, self.a, b)
                }
            },
        }
    }

    /// `d(a, b)` for the member `b` whose [`Point`] is `p`, when the two
    /// have different tags (different stub domains, or a transit member):
    /// one transit cell and two adds, nothing looked up. `None` for two
    /// members of one tag, which [`Self::to`] answers — and for every pair
    /// on a graph without the decomposition, where all members share one.
    #[inline(always)]
    pub fn to_point(&self, p: Point) -> Option<u32> {
        self.from.across(p.0)
    }
}

/// Tier and size only — what `Result::unwrap_err` needs in the build-error
/// tests; the store's contents would be noise.
impl std::fmt::Debug for LatencyOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyOracle")
            .field("tier", &self.tier())
            .field("len", &self.len())
            .finish()
    }
}

/// What `cache_stats` returned while the search store kept rows, kept
/// with the fields `benchmark/src/{scale,probes}.rs` read so that they
/// compile. Every count is zero.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub misses: u64,
    pub evictions: u64,
    pub peak_resident_bytes: usize,
}

impl CacheStats {
    pub fn since(&self, _earlier: &CacheStats) -> CacheStats {
        *self
    }

    pub fn hit_rate(&self) -> f64 {
        0.0
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
    /// at this member count — the dense matrix, whatever was asked, on a
    /// graph without the transit–stub decomposition, where more than
    /// [`Tier::DENSE_MAX_MEMBERS`] members are refused. A disconnected
    /// member set fails fast with the offending pair named.
    pub fn try_build_with(
        graph: &PhysGraph,
        members: Vec<PhysNodeId>,
        cfg: &OracleConfig,
    ) -> Result<Self, OracleBuildError> {
        let n = members.len();
        let (points, store) = match Decomposition::build(graph, &members) {
            Some((points, dec)) if cfg.tier.resolve(n) == Tier::Search => {
                (points, Store::Search { graph: graph.clone(), dec })
            }
            Some((points, dec)) => (points, Store::Dense(dec.blocks(graph, &members))),
            None if n > Tier::DENSE_MAX_MEMBERS => {
                return Err(OracleBuildError::TooManyForMatrix { members: n })
            }
            None => {
                let (points, blocks) = Blocks::matrix(graph, &members)?;
                (points, Store::Dense(blocks))
            }
        };
        let mean_phys_link_latency = graph.mean_link_latency();
        Ok(LatencyOracle { members, mean_phys_link_latency, points, store })
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
    /// Also panics with [`OracleBuildError`]'s message if the build is
    /// refused: a member that cannot reach another (the generators always
    /// produce connected graphs, so this indicates a bug), or too many
    /// members of a graph without the decomposition.
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
    /// the same on both tiers. A metric, which two things in a flood rely
    /// on: its pruning (`d(v, dst)` is a floor on every route from `v`) and
    /// the end a lookup floods from (a flood from `dst` prices every walk
    /// as the flood from `src` does, up to one constant, only while
    /// `d(a, b) == d(b, a)`).
    #[inline]
    pub fn d(&self, a: MemberIdx, b: MemberIdx) -> u32 {
        self.source(a).to(b)
    }

    /// Latencies from member `a`: its record and transit row are read here
    /// once, and each [`Source::to`] after that is one record load and one
    /// transit cell. What a caller pricing many links of one peer holds.
    #[inline(always)]
    pub fn source(&self, a: MemberIdx) -> Source<'_> {
        Source { from: self.points.from(a), a, oracle: self }
    }

    /// Member `a`'s [`Point`], for [`Source::to_point`].
    #[inline]
    pub fn point(&self, a: MemberIdx) -> Point {
        Point(self.points.record(a))
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

    /// Which tier was built; never [`Tier::Auto`], and [`Tier::Dense`] on
    /// a graph without the decomposition whatever was asked.
    pub fn built_tier(&self) -> Tier {
        match &self.store {
            Store::Dense(_) => Tier::Dense,
            Store::Search { .. } => Tier::Search,
        }
    }

    /// [`Self::built_tier`]'s label — for logs and experiment reports.
    pub fn tier(&self) -> &'static str {
        self.built_tier().label()
    }

    // All-zero counters on the search store and `None` on the dense tier,
    // as when the search store had a row cache: `benchmark/` reads them,
    // and decides by `None` whether to run its flood probe. The next
    // `benchmark` change drops its row counters and this with them.
    #[doc(hidden)]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        matches!(self.store, Store::Search { .. }).then(CacheStats::default)
    }

    // No-op kept for one caller outside the workspace's packages:
    // `benchmark/src/probes.rs` calls it before its row probes. No store
    // keeps a row, so there is nothing to warm; the next `benchmark`
    // change drops those calls and this stub with them.
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

    fn tiny_cached(n: usize, seed: u64) -> LatencyOracle {
        let mut rng = SimRng::seed_from(seed);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        LatencyOracle::select_and_build_with(&g, n, &mut rng, &OracleConfig::cached(1))
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

    /// The pair a disconnected build names, as `(from, to)` member indices.
    fn disconnected_pair(err: OracleBuildError, members: &[PhysNodeId]) -> (usize, usize) {
        let OracleBuildError::Disconnected { from_member, from_host, to_member, to_host } = err
        else {
            panic!("not a disconnected pair: {err:?}");
        };
        assert_eq!(from_host, members[from_member]);
        assert_eq!(to_host, members[to_member]);
        (from_member, to_member)
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
        // inequality — on the blocks and the search store of a transit–stub
        // graph, and on a Waxman graph's matrix.
        let n = 40;
        for seed in 0..32u64 {
            let tiers = [OracleConfig::default(), OracleConfig::cached(1)];
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
            }
        }
    }

    #[test]
    fn d_is_symmetric_on_every_store() {
        // A lookup may flood from either end, and the answers agree only if
        // `d(a, b) == d(b, a)`: over every member pair on the dense tier's
        // blocks (ts_large, n = 1000), the search store on the same graph
        // and a Waxman graph's matrix (every host).
        let mut rng = SimRng::seed_from(50);
        let ts_large = generate(&TransitStubParams::ts_large(), &mut rng);
        let waxman = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        let n_waxman = waxman.stub_nodes().len();
        let cases = [
            ("ts_large, dense", &ts_large, 1000, OracleConfig::dense(), Tier::Dense),
            ("ts_large, search store", &ts_large, 1000, OracleConfig::cached(1), Tier::Search),
            ("waxman, matrix", &waxman, n_waxman, OracleConfig::dense(), Tier::Dense),
        ];
        for (name, g, n, cfg, tier) in cases {
            let o = LatencyOracle::select_and_build_with(g, n, &mut rng, &cfg);
            assert_eq!(o.built_tier(), tier, "{name}");
            for a in 0..n {
                for b in a + 1..n {
                    assert_eq!(o.d(a, b), o.d(b, a), "{name}: d({a}, {b}) asymmetric");
                }
            }
        }
    }

    /// `d(a, b)` by the read path [`Source`] replaced (`decomp`'s
    /// `d_reference`), store by store.
    fn d_reference(o: &LatencyOracle, a: MemberIdx, b: MemberIdx) -> u32 {
        match &o.store {
            Store::Dense(blocks) => blocks.d_reference(&o.points, a, b),
            Store::Search { graph, dec } => dec.d_reference(&o.points, graph, &o.members, a, b),
        }
    }

    #[test]
    fn a_bound_source_reads_what_the_two_record_point_query_does() {
        // Every ordered pair, each source bound once and read for every
        // target, against the per-pair read path it replaced: on the dense
        // tier's blocks (ts_large, n = 1000), the search store (scaled(3000),
        // n = 1000) and a Waxman graph's matrix (every host). Checked
        // against reading the transit cell from the wrong row and against a
        // same-tag pair answered from the source's record alone.
        let mut rng = SimRng::seed_from(35);
        let ts_large = generate(&TransitStubParams::ts_large(), &mut rng);
        let scaled = generate(&TransitStubParams::scaled(3000), &mut rng);
        let waxman = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        let n_waxman = waxman.stub_nodes().len();
        let cases = [
            ("ts_large, dense", ts_large, 1000, OracleConfig::dense(), Tier::Dense),
            ("scaled(3000), search store", scaled, 1000, OracleConfig::cached(1), Tier::Search),
            ("waxman, matrix", waxman, n_waxman, OracleConfig::dense(), Tier::Dense),
        ];
        for (name, g, n, cfg, tier) in cases {
            let o = LatencyOracle::select_and_build_with(&g, n, &mut rng, &cfg);
            assert_eq!(o.built_tier(), tier, "{name}");
            let mut same_tag = 0;
            for a in 0..n {
                let from = o.source(a);
                for b in 0..n {
                    let want = d_reference(&o, a, b);
                    assert_eq!(from.to(b), want, "{name}: source({a}).to({b})");
                    assert_eq!(o.d(a, b), want, "{name}: d({a}, {b})");
                    same_tag += usize::from(from.from.point(b).is_err());
                }
            }
            // Beyond each member with itself, some pairs share a tag.
            assert!(same_tag > n, "{name}: only {same_tag} pairs share a tag");
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

    /// Bytes the dense tier's store holds, its point query included.
    fn dense_bytes(o: &LatencyOracle) -> usize {
        match &o.store {
            Store::Dense(blocks) => o.points.bytes() + blocks.bytes(),
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
    fn cached_config_routes_to_the_search_store() {
        let o = tiny_cached(10, 9);
        assert_eq!(o.tier(), "search");
        assert_eq!(o.cache_stats(), Some(CacheStats::default()));
    }

    #[test]
    fn cached_tier_matches_dense_tier() {
        let dense = tiny_oracle(20, 10);
        let cached = tiny_cached(20, 10);
        assert_eq!(dense.len(), cached.len());
        for a in 0..20 {
            assert_eq!(dense.host(a), cached.host(a));
            for b in 0..20 {
                assert_eq!(dense.d(a, b), cached.d(a, b));
            }
        }
    }

    #[test]
    fn a_decomposed_graph_leaves_the_row_store_empty() {
        // Any workload on a transit–stub graph — every ordered pair, three
        // passes, forwards and back, on `tiny()`, the two unequal domains of
        // a hand-built graph, and `scaled(3000)` — is answered by the search
        // store, which keeps no row, as whole-graph Dijkstra does.
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
            let o = LatencyOracle::try_build_with(&g, members.clone(), &OracleConfig::cached(1))
                .unwrap();
            assert!(matches!(o.store, Store::Search { .. }), "{name}");
            for pass in 0..3 {
                for i in 0..n * n {
                    let i = if pass == 2 { n * n - 1 - i } else { i };
                    let (a, b) = (i / n, i % n);
                    let want = full[a][members[b].index()];
                    assert_eq!(o.d(a, b), want, "{name}, pass {pass}: d({a}, {b})");
                }
            }
        }
    }

    #[test]
    fn a_never_warmed_oracle_answers_every_miss_as_dijkstra_does() {
        // Nothing warmed: the transit–stub graph answers every pair by the
        // search store, the Waxman graph — asked for the same tier — by its
        // matrix.
        let mut rng = SimRng::seed_from(26);
        let transit_stub = generate(&TransitStubParams::tiny(), &mut rng);
        let waxman = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        for (tier, g) in [(Tier::Search, transit_stub), (Tier::Dense, waxman)] {
            let members = rng.sample_distinct(&g.stub_nodes(), 40);
            let n = members.len();
            let o = LatencyOracle::try_build_with(&g, members, &OracleConfig::cached(1)).unwrap();
            assert_eq!(o.built_tier(), tier);
            for a in 0..n {
                let full = shortest_paths(&g, o.host(a));
                for b in 0..n {
                    assert_eq!(o.d(a, b), full[o.host(b).index()], "({a}, {b})");
                }
            }
        }
    }

    #[test]
    fn try_build_reports_offending_pair_dense() {
        let (g, members) = disconnected_graph();
        let err = LatencyOracle::try_build_with(&g, members.clone(), &OracleConfig::default())
            .unwrap_err();
        // Some member of component A cannot reach some member of component B.
        let (from, to) = disconnected_pair(err, &members);
        assert_ne!(from, to);
        assert_ne!(from < 2, to < 2, "pair must straddle the two components");
    }

    #[test]
    fn try_build_reports_offending_pair_cached() {
        let (g, members) = disconnected_graph();
        let err = LatencyOracle::try_build_with(&g, members.clone(), &OracleConfig::cached(1))
            .unwrap_err();
        let (from, to) = disconnected_pair(err, &members);
        assert_eq!(from, 0, "the matrix validates from the first member");
        assert!(to >= 2, "components straddled");
    }

    #[test]
    fn a_latency_past_sixteen_bits_builds_on_every_tier_and_is_exact() {
        // A Waxman graph whose longest link is 40,000 ms, and a transit–stub
        // graph with 40,000 ms transit links: no store narrows a latency, so
        // every tier builds on both and answers past 65,535 ms exactly.
        let waxman = WaxmanParams { max_latency_ms: 40_000, ..WaxmanParams::tiny() };
        let waxman = generate_waxman(&waxman, &mut SimRng::seed_from(24));
        let transit_stub =
            TransitStubParams { transit_transit_ms: 40_000, ..TransitStubParams::tiny() };
        let transit_stub = generate(&transit_stub, &mut SimRng::seed_from(24));
        for (name, g) in [("waxman", waxman), ("transit-stub", transit_stub)] {
            let members = g.stub_nodes();
            let full: Vec<Vec<u32>> = members.iter().map(|&m| shortest_paths(&g, m)).collect();
            let widest = full.iter().flat_map(|row| members.iter().map(|m| row[m.index()])).max();
            assert!(widest > Some(u32::from(u16::MAX)), "{name}: {widest:?}");
            for cfg in [OracleConfig::dense(), OracleConfig::cached(1), OracleConfig::default()] {
                let o = LatencyOracle::try_build_with(&g, members.clone(), &cfg).unwrap();
                for (a, row) in full.iter().enumerate() {
                    for (b, m) in members.iter().enumerate() {
                        assert_eq!(o.d(a, b), row[m.index()], "{name}, {cfg:?}: ({a}, {b})");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "disconnected member set")]
    fn build_panics_on_disconnection() {
        // All four hosts are stubs, so selecting four takes both components.
        let (g, members) = disconnected_graph();
        let _ = LatencyOracle::select_and_build(&g, members.len(), &mut SimRng::seed_from(0));
    }

    #[test]
    fn each_forced_tier_builds_the_tier_it_says() {
        // The last two are the spellings `benchmark/src/scale.rs` uses; the
        // hidden `embedded()` is the cached configuration, and the byte
        // count changes nothing.
        let b = 1 << 20;
        let rows = [
            (OracleConfig::default(), Tier::Dense),
            (OracleConfig::dense(), Tier::Dense),
            (OracleConfig { tier: Tier::Search, ..OracleConfig::default() }, Tier::Search),
            (OracleConfig::cached(b), Tier::Search),
            (OracleConfig { cache_capacity_bytes: b, ..OracleConfig::embedded() }, Tier::Search),
        ];
        for (cfg, tier) in rows {
            let mut rng = SimRng::seed_from(22);
            let g = generate(&TransitStubParams::tiny(), &mut rng);
            let o = LatencyOracle::select_and_build_with(&g, 16, &mut rng, &cfg);
            assert_eq!(o.built_tier(), tier, "{cfg:?}");
            assert_eq!(o.tier(), tier.label(), "{cfg:?}");
            assert_eq!(o.cache_stats().is_some(), tier == Tier::Search, "{cfg:?}");
        }
    }

    #[test]
    fn an_empty_member_set_builds_on_every_tier() {
        let g = generate(&TransitStubParams::tiny(), &mut SimRng::seed_from(23));
        for cfg in [OracleConfig::dense(), OracleConfig::cached(1)] {
            let o = LatencyOracle::try_build_with(&g, Vec::new(), &cfg).unwrap();
            assert!(o.is_empty(), "{}", o.tier());
            assert_eq!(o.built_tier(), cfg.tier);
        }
    }

    #[test]
    fn the_embed_shims_build_the_cached_tier_and_count_nothing() {
        // `benchmark/src/scale.rs` still spells the deleted tier's
        // configuration and reads its counters.
        let mut rng = SimRng::seed_from(20);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        let o = LatencyOracle::select_and_build_with(&g, 16, &mut rng, &OracleConfig::embedded());
        assert_eq!(o.built_tier(), Tier::Search);
        for oracle in [&o, &tiny_oracle(10, 21)] {
            let s = oracle.embed_stats().unwrap_or_default();
            assert_eq!(s.since(&EmbedStats::default()), EmbedStats::default());
            assert!(oracle.embed_stats().is_none());
        }
    }
}
