//! The latency oracle: `d(u, v)` for overlay members.
//!
//! Every PROP probe, every LTM detector, and every metric evaluation asks
//! for the end-to-end latency between two overlay members. They all hold
//! one type, [`LatencyOracle`], which keeps its answers one of three ways —
//! the dense matrix, a byte-bounded cache of rows, or a fitted coordinate
//! per member beside such a cache. [`crate::latency`] describes the three
//! [`Tier`]s and when each is built; [`crate::embed`] the fit.
//!
//! Exact answers come from the one row kernel (`crate::decomp`). Where the
//! graph has the verified transit–stub decomposition, `d(u, v)` between two
//! stub domains is a point query on the row tiers — two array reads and two
//! adds — and only a pair inside one domain reads a row, `d(src, ·)` over
//! that domain's hosts, made by one search confined to it; where it does
//! not, a row is a whole-graph Dijkstra over the members. The tiers differ
//! in what they keep, not in how a row is made: the dense matrix's rows, a
//! fitted row and a whole row a `d` miss or a warm computes are all
//! `RowKernel::fill_row`'s, and the search inside a domain that `fill_row`
//! runs is the one a kept domain row is made by.
//!
//! Construction routes on [`OracleConfig::tier`] through [`Tier::resolve`];
//! callers are tier-agnostic. Connectivity is validated per row *during*
//! construction (dense) or from a single source on the undirected graph
//! (the other two), and [`LatencyOracle::try_build_with`] reports the
//! offending member pair instead of panicking after the full build. The
//! other two keep their rows as two-byte milliseconds and refuse, the same
//! way and from the same one row, a member set too wide for that.
//!
//! Members are addressed by dense [`MemberIdx`] values `0..n`; the overlay
//! crates use the same indexing for peers.

use crate::decomp::{Cell, RowKernel};
use crate::embed::{EmbedCalibration, EmbedStats, Embedding};
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

/// The dense tier's matrix, row-major `n × n`, each row made by the row
/// kernel and validated as it is produced — a disconnected pair fails
/// fast inside the row pass, before the matrix is assembled.
///
/// The rows are made in two batches, each collected and then copied,
/// and the matrix is reserved after the first batch, above it: the
/// build's peak is one and a half matrices. Both choices are about
/// repeated builds in one process under glibc malloc, measured at
/// n = 1000 (CHANGES.md, PR 12 and PR 14). Writing rows straight into
/// the matrix, or reserving it below the rows, makes the process's
/// high-water mark depend on whether the allocator can reuse the block
/// a previous oracle freed (7.7 or 11.3 MiB by seed). Collecting every
/// row before the copy peaks at two matrices, which is the allocator's
/// trim threshold once it has unmapped one matrix (twice the largest
/// block it has unmapped): whether each later build faults 8 MB in
/// again (+2.7 ms on 4.4) then turns on some 50 KB of live memory
/// elsewhere in the process.
fn dense_matrix(graph: &PhysGraph, members: &[PhysNodeId]) -> Result<Box<[u32]>, OracleBuildError> {
    let n = members.len();
    let kernel = RowKernel::new(graph, members);
    let mut matrix = Vec::new();
    for batch in [0..n / 2, n / 2..n] {
        let rows: Vec<Vec<u32>> = batch
            .map(|i| {
                let mut row = vec![0u32; n];
                kernel.fill_row(graph, members, i, &mut row)?;
                Ok(row)
            })
            .collect::<Result<_, _>>()?;
        // The whole matrix after the first batch; nothing after the second.
        matrix.reserve_exact(n * n - matrix.len());
        for row in rows {
            matrix.extend_from_slice(&row);
        }
    }
    Ok(matrix.into_boxed_slice())
}

/// What the row-cache and coordinate-embedded tiers share: exact answers
/// over the oracle's members. On a graph the row kernel decomposes, a pair
/// in two stub domains is `RowKernel::point`'s sum and no row is made for
/// it; only a pair inside one domain reads a row, `d(src, ·)` over that
/// domain's hosts. On any other graph every pair reads a whole row over the
/// members. Either way the rows are made on demand and kept in one
/// byte-bounded LRU, each counted by its own length.
pub(crate) struct RowStore {
    /// Owned copy of the physical graph (CSR arrays) — rows are recomputed
    /// from it on every cache miss.
    graph: PhysGraph,
    kernel: RowKernel,
    cache: RowCache,
}

impl RowStore {
    /// Validate the member set with the first member's whole row. The graph
    /// is undirected, so one source reaching every member means every pair
    /// is connected; and rows are exact, so `d` is a metric and
    /// `d(a, b) ≤ d(a, 0) + d(0, b)`: twice the row's largest entry inside
    /// [`RowMs`] means every latency any later row holds is. That one row
    /// is made four bytes wide, to be checked before it is narrowed; no
    /// other is. Where whole rows are what is kept, it is the first.
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
        if members.is_empty() {
            return Ok(rows);
        }
        let mut first = vec![0u32; members.len()];
        rows.kernel.fill_row(&rows.graph, members, 0, &mut first)?;
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
        rows.seed_row(0, first.into_iter().map(RowMs::from_ms).collect());
        Ok(rows)
    }

    /// One exact whole row from the row kernel, bypassing the cache: what a
    /// `d` miss and a warm-up insert on a graph without the decomposition,
    /// and what the embedding fits and calibrates against on any graph.
    pub(crate) fn compute_row(&self, members: &[PhysNodeId], src: MemberIdx) -> Arc<[RowMs]> {
        let mut row: Arc<[RowMs]> = std::iter::repeat_n(0, members.len()).collect();
        let out = Arc::get_mut(&mut row).expect("a fresh Arc has one owner");
        self.kernel
            .fill_row(&self.graph, members, src, out)
            .expect("connectivity was validated at construction");
        row
    }

    /// The row the cache keeps for `src`: over its stub domain's hosts on a
    /// decomposed graph, over the members otherwise.
    fn kept_row(&self, members: &[PhysNodeId], src: MemberIdx) -> Arc<[RowMs]> {
        self.kernel
            .domain_row(&self.graph, members, src)
            .unwrap_or_else(|| self.compute_row(members, src))
    }

    /// Make the rows among `sources` that are resident recent, and on a
    /// graph without the decomposition compute the rest, in ascending
    /// order, and insert them — memory stays bounded: one row is in flight,
    /// and the LRU enforces the byte budget as rows land. On a decomposed
    /// graph nothing is computed: most sources never have a same-domain
    /// pair read, and for one that does the miss costs the one confined
    /// search a warm would, so batching buys nothing.
    fn warm(&self, members: &[PhysNodeId], sources: &[MemberIdx]) {
        if self.kernel.is_decomposed() {
            for &s in sources {
                self.cache.touch(s);
            }
            return;
        }
        let mut todo: Vec<MemberIdx> = sources.to_vec();
        todo.sort_unstable();
        todo.dedup();
        // A source already resident is asked for as much as a cold one: it
        // becomes recent, or the rows about to land could evict it first.
        todo.retain(|&s| !self.cache.touch(s));
        for s in todo {
            let row = self.compute_row(members, s);
            self.cache.record_miss();
            self.cache.insert(s, row);
        }
    }

    /// Seed the cache with an exact whole row made outside it — the rows
    /// the build check and the embedding fit already paid for. Counted as a
    /// miss (the row *was* computed) so hit-rate accounting matches `warm`.
    /// A decomposed store keeps no whole row, and drops it.
    pub(crate) fn seed_row(&self, src: MemberIdx, row: Arc<[RowMs]>) {
        if !self.kernel.is_decomposed() && !self.cache.contains(src) {
            self.cache.record_miss();
            self.cache.insert(src, row);
        }
    }

    /// Exact latency between members `a` and `b`, in ms.
    fn d(&self, members: &[PhysNodeId], a: MemberIdx, b: MemberIdx) -> u32 {
        debug_assert!(a < members.len() && b < members.len());
        if a == b {
            return 0;
        }
        if let Some(ms) = self.kernel.point(a, b) {
            return ms;
        }
        // Two hosts of one stub domain, or a graph without the
        // decomposition: a kept row answers.
        let at = |j| self.kernel.cell(members, j);
        if let Some(r) = self.cache.get(a) {
            return r[at(b)].into();
        }
        // Latencies are symmetric (undirected graph): b's row serves too.
        if let Some(r) = self.cache.get(b) {
            return r[at(a)].into();
        }
        self.cache.record_miss();
        let row = self.kept_row(members, a);
        let d = row[at(b)];
        self.cache.insert(a, row);
        d.into()
    }
}

/// How a built oracle keeps its answers; one arm per [`Tier`].
enum Store {
    /// Row-major `n × n` latency matrix, ms.
    Dense {
        matrix: Box<[u32]>,
    },
    Rows(RowStore),
    /// `rows` is the exact escalation path, pre-seeded with the landmark
    /// and calibration rows the fit already paid for.
    Embedded {
        rows: RowStore,
        fit: Embedding,
    },
}

/// The tier-agnostic latency oracle every caller holds.
///
/// [`LatencyOracle::try_build_with`] picks the tier through
/// [`Tier::resolve`]: paper-scale populations get the dense matrix,
/// mid-scale ones point queries over the decomposition beside the bounded
/// row cache, and million-member populations the coordinate embedding. Dense and cached answer identically byte-for-byte
/// (property-tested in `tests/tier_equivalence.rs`); the embedded tier is
/// an estimate with a calibrated margin, kept decision-safe by the
/// exact-fallback band (`tests/embed.rs` and `prop-core`'s
/// `exchange::decide`).
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
            Tier::Dense => Store::Dense { matrix: dense_matrix(graph, &members)? },
            Tier::Cached => {
                Store::Rows(RowStore::try_build(graph, &members, cfg.cache_capacity_bytes)?)
            }
            Tier::Embedded => {
                let rows = RowStore::try_build(graph, &members, cfg.cache_capacity_bytes)?;
                let fit = Embedding::fit(&rows, &members);
                Store::Embedded { rows, fit }
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

    /// End-to-end latency between members `a` and `b`, in ms. Exact on the
    /// dense and row-cache tiers; the calibrated O(1) estimate on the
    /// embedded tier. A metric on every tier; flood pruning relies on it —
    /// `d_exact` and `d` must never be mixed inside one flood.
    #[inline]
    pub fn d(&self, a: MemberIdx, b: MemberIdx) -> u32 {
        match &self.store {
            Store::Dense { matrix } => {
                let n = self.members.len();
                debug_assert!(a < n && b < n);
                matrix[a * n + b]
            }
            Store::Rows(rows) => rows.d(&self.members, a, b),
            Store::Embedded { fit, .. } => fit.d(a, b),
        }
    }

    /// Exact latency regardless of tier — the embedded tier's escalation
    /// path (through its row store); identical to [`Self::d`] on the other
    /// two tiers.
    #[inline]
    pub fn d_exact(&self, a: MemberIdx, b: MemberIdx) -> u32 {
        match &self.store {
            Store::Embedded { rows, fit } => {
                fit.note_exact_query();
                rows.d(&self.members, a, b)
            }
            _ => self.d(a, b),
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
            Store::Dense { .. } => Tier::Dense,
            Store::Rows(_) => Tier::Cached,
            Store::Embedded { .. } => Tier::Embedded,
        }
    }

    /// [`Self::built_tier`]'s label — for logs and experiment reports.
    pub fn tier(&self) -> &'static str {
        self.built_tier().label()
    }

    /// The exact rows behind this oracle; `None` on the dense tier, where
    /// every row is in the matrix.
    fn rows(&self) -> Option<&RowStore> {
        match &self.store {
            Store::Dense { .. } => None,
            Store::Rows(rows) | Store::Embedded { rows, .. } => Some(rows),
        }
    }

    /// Row-cache counters; `None` on the dense tier (which has no cache).
    /// On the embedded tier these are the *exact escalation* path's
    /// counters. A miss is one row made: on a transit–stub graph `d(src, ·)`
    /// over the hosts of one stub domain, and only a pair inside one domain
    /// counts a hit or a miss at all — a pair in two domains reads no row;
    /// on any other graph a whole row over the members. `resident_rows`
    /// counts entries and `resident_bytes` sums their own lengths.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.rows().map(|rows| rows.cache.stats())
    }

    /// Batch warm-up. No-op on the dense tier (every row is always resident
    /// there). On a row tier over a graph the kernel does not decompose:
    /// ensure the whole rows for `sources` are resident, one row kernel
    /// call per cold source (on the embedded tier these are rows only
    /// escalated decisions will read, so callers should restrict it to
    /// slots they expect to escalate). Over a decomposed graph: the
    /// resident rows among `sources` become recent and nothing is computed
    /// — most sources never have a same-domain pair read, and one that
    /// does pays on that read the one search a warm would.
    pub fn warm_rows(&self, sources: &[MemberIdx]) {
        if let Some(rows) = self.rows() {
            rows.warm(&self.members, sources);
        }
    }

    /// What the embedded tier fitted; `None` on the exact tiers.
    pub fn embedding(&self) -> Option<&Embedding> {
        match &self.store {
            Store::Embedded { fit, .. } => Some(fit),
            _ => None,
        }
    }

    /// Absolute error margin (ms) one `d(u, v)` term contributes to a Var
    /// comparison's exact-fallback band. Zero on the exact tiers — their
    /// band is empty, so `exchange::decide` never escalates there.
    #[inline]
    pub fn var_margin_per_term(&self) -> f64 {
        self.embedding().map_or(0.0, Embedding::margin_per_term)
    }

    /// Record one Var decision escalated into the fallback band (no-op on
    /// the exact tiers).
    #[inline]
    pub fn note_escalation(&self) {
        if let Some(fit) = self.embedding() {
            fit.note_escalation();
        }
    }

    /// Embedded-tier query/escalation counters; `None` on the exact tiers.
    pub fn embed_stats(&self) -> Option<EmbedStats> {
        self.embedding().map(Embedding::stats)
    }

    /// The embedded tier's committed error calibration; `None` on the
    /// exact tiers.
    pub fn embed_calibration(&self) -> Option<EmbedCalibration> {
        self.embedding().map(Embedding::calibration)
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

    /// Hosts of one stub domain of `tiny()`: the cells of a row kept there.
    const TINY_DOMAIN: usize = 5;

    /// A row-cache oracle of each row shape over 40 members, its budget
    /// `rows_a_shard` kept rows in every shard: all 40 stub hosts of
    /// `tiny()`, eight domains of [`TINY_DOMAIN`] (decomposed: a row is a
    /// domain's), and 40 hosts of a Waxman graph (refused: a row is whole).
    /// With each, its graph and the cells of one kept row.
    fn both_row_shapes(seed: u64, rows_a_shard: usize) -> [(LatencyOracle, PhysGraph, usize); 2] {
        let mut rng = SimRng::seed_from(seed);
        let transit_stub = generate(&TransitStubParams::tiny(), &mut rng);
        let waxman = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        [(transit_stub, TINY_DOMAIN), (waxman, 40)].map(|(g, cells)| {
            let members = rng.sample_distinct(&g.stub_nodes(), 40);
            let cfg = OracleConfig::cached(rows_a_shard * CACHE_SHARDS * row_bytes(cells));
            let o = LatencyOracle::try_build_with(&g, members, &cfg).unwrap();
            assert_eq!(o.rows().unwrap().kernel.is_decomposed(), cells == TINY_DOMAIN);
            (o, g, cells)
        })
    }

    /// The members `d(a, ·)` reads a kept row for: those of `a`'s own stub
    /// domain on a decomposed store, every other member on a refused graph.
    fn row_mates(o: &LatencyOracle, a: MemberIdx) -> Vec<MemberIdx> {
        let kernel = &o.rows().expect("a row tier").kernel;
        (0..o.len()).filter(|&b| b != a && kernel.point(a, b).is_none()).collect()
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
        // inequality — on the row cache also while rows are evicted mid-loop.
        // All 40 stub hosts of `tiny()`: past the embed fit's 32 landmarks,
        // so the embedded tier answers for fitted members too.
        let n = 40;
        for seed in 0..32u64 {
            // One kept row a shard — a domain's, `tiny()` being decomposed —
            // and 40 sources share 16 shards: every shard evicts.
            let tiers = [
                OracleConfig::default(),
                OracleConfig::cached(CACHE_SHARDS * row_bytes(TINY_DOMAIN)),
                OracleConfig::embedded(),
            ];
            for cfg in tiers {
                let mut rng = SimRng::seed_from(seed);
                let g = generate(&TransitStubParams::tiny(), &mut rng);
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
                if o.built_tier() == Tier::Cached {
                    let s = o.cache_stats().unwrap();
                    assert!(s.evictions > 0, "seed {seed}: cache never evicted");
                    assert!(s.resident_bytes <= s.capacity_bytes, "seed {seed}: {s:?}");
                }
                if let Some(fit) = o.embedding() {
                    assert!(fit.landmark_members().len() < n, "seed {seed}: no fitted member");
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
        for (o, _, cells) in both_row_shapes(11, 8) {
            let mates = row_mates(&o, 3);
            let s0 = o.cache_stats().unwrap();
            let first = o.d(3, mates[0]); // row 3 computed
            let again = o.d(3, mates[1]); // row 3 hit
            assert!(first > 0 && again > 0);
            let s = o.cache_stats().unwrap().since(&s0);
            assert_eq!(s.misses, 1, "{cells}-cell rows");
            assert!(s.hits >= 1, "{cells}-cell rows");
        }
    }

    #[test]
    fn a_cross_domain_d_reads_no_row_and_a_same_domain_miss_keeps_one_domain_row() {
        let [(o, g, k), _] = both_row_shapes(28, 8);
        let n = o.len();
        let built = o.cache_stats().unwrap();
        assert_eq!(
            (built.resident_rows, built.misses),
            (0, 0),
            "the checked first row is not kept"
        );
        for a in 0..n {
            let full = shortest_paths(&g, o.host(a));
            let mates = row_mates(&o, a);
            assert_eq!(mates.len(), k - 1);
            for b in (0..n).filter(|b| !mates.contains(b)) {
                assert_eq!(o.d(a, b), full[o.host(b).index()], "({a}, {b})");
            }
        }
        assert_eq!(o.cache_stats().unwrap(), built, "a pair in two domains touched the cache");
        let mates = row_mates(&o, 7);
        let _ = o.d(7, mates[0]);
        let s = o.cache_stats().unwrap();
        assert_eq!((s.hits, s.misses, s.resident_rows), (0, 1, 1));
        assert_eq!(s.resident_bytes, 2 * k, "one row over the domain's {k} hosts");
        // Its other cells, and its mates' reads of 7, are hits on that row.
        let _ = (o.d(7, mates[1]), o.d(mates[2], 7));
        let s = o.cache_stats().unwrap();
        assert_eq!((s.hits, s.misses, s.resident_bytes), (2, 1, 2 * k));
    }

    #[test]
    fn a_never_warmed_oracle_answers_every_miss_as_dijkstra_does() {
        // One row a shard and nothing warmed: every row read below was made
        // by a `d` miss, by the search confined to a domain on the
        // transit–stub graph (where only a same-domain pair reads one) and
        // by the kernel's whole-graph fallback on the Waxman one.
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
            // Whole rows: every source but the seeded first misses. Domain
            // rows: the first pair read inside each of `tiny()`'s eight
            // domains finds neither row.
            let floor = if decomposed { 8 } else { n - 1 };
            assert!(s.misses >= floor as u64, "decomposed {decomposed}: {s:?}");
            assert!(s.evictions > 0, "decomposed {decomposed}: {s:?}");
            assert!(s.resident_rows <= CACHE_SHARDS, "decomposed {decomposed}: {s:?}");
        }
    }

    #[test]
    fn warm_rows_makes_queries_hits() {
        for (o, _, cells) in both_row_shapes(12, 8) {
            let n = o.len();
            let built = o.cache_stats().unwrap();
            o.warm_rows(&(0..n).collect::<Vec<_>>());
            let warmed = o.cache_stats().unwrap();
            if cells == n {
                assert_eq!(warmed.resident_rows, n);
                for a in 0..n {
                    for b in 0..n {
                        let _ = o.d(a, b);
                    }
                }
                let s = o.cache_stats().unwrap().since(&warmed);
                assert_eq!(s.misses, 0, "fully warmed cache answers without Dijkstra");
            } else {
                // Domain rows: a miss costs what a warm would, so warming
                // computes nothing and leaves the cache as it found it.
                assert_eq!(warmed, built);
            }
        }
    }

    #[test]
    fn tiny_capacity_evicts_but_stays_correct() {
        // Forty sources over sixteen shards and a budget of one kept row a
        // shard, on both row shapes: every shard evicts on every pass and
        // the cache ends inside its byte budget.
        for (cached, g, cells) in both_row_shapes(13, 1) {
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
            assert!(s.evictions > 0, "{cells}-cell rows: tiny capacity must evict");
            assert!(s.resident_bytes <= s.capacity_bytes, "{s:?}");
            assert_eq!(s.resident_bytes, s.resident_rows * row_bytes(cells), "{s:?}");
        }
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
        // All 40 stub hosts, so the first member has one across the core:
        // at least 40,000 ms away, and twice that is past `RowMs::MAX`.
        let params = TransitStubParams { transit_transit_ms: 40_000, ..TransitStubParams::tiny() };
        let g = generate(&params, &mut SimRng::seed_from(24));
        let members = g.stub_nodes();
        let from_first = shortest_paths(&g, members[0]);
        let farthest = members.iter().map(|m| from_first[m.index()]).max().unwrap();
        assert!(farthest >= 40_000);
        for cfg in [OracleConfig::cached(1 << 20), OracleConfig::embedded()] {
            let err = LatencyOracle::try_build_with(&g, members.clone(), &cfg).unwrap_err();
            assert_eq!(err.fault, PairFault::TooFar { ms: farthest }, "{cfg:?}");
            assert_eq!((err.from_member, err.from_host), (0, members[0]), "{cfg:?}");
            assert_eq!(err.to_host, members[err.to_member], "{cfg:?}");
            assert_eq!(from_first[err.to_host.index()], farthest, "{cfg:?}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("{farthest} ms")) && !msg.contains('\n'), "{msg}");
        }
        // The matrix is `u32`: it builds, and answers past sixteen bits.
        let dense = LatencyOracle::try_build_with(&g, members, &OracleConfig::dense())
            .expect("the dense tier has no width limit");
        assert_eq!((0..dense.len()).map(|j| dense.d(0, j)).max(), Some(farthest));
    }

    #[test]
    fn the_width_check_is_on_twice_the_first_row_and_exact_at_the_edge() {
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
        for cfg in [OracleConfig::cached(1 << 20), OracleConfig::embedded()] {
            let o = LatencyOracle::try_build_with(&g, m.clone(), &cfg).unwrap();
            assert_eq!(o.d_exact(1, 2), 65_534, "{cfg:?}");
            assert_eq!(o.d_exact(2, 0), 32_767, "{cfg:?}");
        }
        let (g, m) = path(32_767, 32_768);
        let err = LatencyOracle::try_build_with(&g, m, &OracleConfig::cached(1 << 20)).unwrap_err();
        assert_eq!((err.to_member, err.fault), (2, PairFault::TooFar { ms: 32_768 }));
    }

    #[test]
    fn warming_a_resident_row_keeps_it_through_the_batch() {
        // Sources 1, 17 and 33 share a shard that holds two rows. 1 is read
        // first, then 17; {1, 33} is warmed and 33 read, which lands 33 in
        // the full shard — by the warm where whole rows are kept, by the
        // read's miss where a domain's are. The row it pushes out must be
        // 17 — not 1, which the caller has just asked to have warm.
        for (o, _, cells) in both_row_shapes(25, 2) {
            let (old, newer, cold) = (1, 1 + CACHE_SHARDS, 1 + 2 * CACHE_SHARDS);
            // A row mate whose own row is not one of the three.
            let mate = |a| {
                let rows = [old, newer, cold];
                row_mates(&o, a).into_iter().find(|b| !rows.contains(b)).unwrap()
            };
            let _ = (o.d(old, mate(old)), o.d(newer, mate(newer)));
            o.warm_rows(&[old, cold]);
            let warmed = o.cache_stats().unwrap();
            let _ = o.d(cold, mate(cold));
            let s = o.cache_stats().unwrap().since(&warmed);
            let computed_by_the_read = u64::from(cells != o.len());
            assert_eq!((s.misses, s.evictions), (computed_by_the_read, computed_by_the_read));
            let landed = o.cache_stats().unwrap();
            let _ = o.d(old, mate(old));
            let s = o.cache_stats().unwrap().since(&landed);
            assert_eq!((s.hits, s.misses), (1, 0), "{cells}-cell rows: a warmed row was not there");
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
    fn each_forced_tier_builds_the_tier_and_budget_it_says() {
        let b = 1 << 20;
        // The last two are the spellings `benchmark/src/scale.rs` uses.
        let rows = [
            (OracleConfig::default(), Tier::Dense, None),
            (OracleConfig::dense(), Tier::Dense, None),
            (OracleConfig { tier: Tier::Cached, ..OracleConfig::default() }, Tier::Cached, None),
            (OracleConfig::cached(b), Tier::Cached, Some(b)),
            (
                OracleConfig { cache_capacity_bytes: b, ..OracleConfig::embedded() },
                Tier::Embedded,
                Some(b),
            ),
        ];
        for (cfg, tier, budget) in rows {
            let mut rng = SimRng::seed_from(22);
            let g = generate(&TransitStubParams::tiny(), &mut rng);
            let o = LatencyOracle::select_and_build_with(&g, 16, &mut rng, &cfg);
            assert_eq!(o.built_tier(), tier, "{cfg:?}");
            assert_eq!(o.tier(), tier.label(), "{cfg:?}");
            assert_eq!(o.embedding().is_some(), tier == Tier::Embedded, "{cfg:?}");
            let capacity = o.cache_stats().map(|s| s.capacity_bytes);
            let default_budget = OracleConfig::default().cache_capacity_bytes;
            let expected = (tier != Tier::Dense).then_some(budget.unwrap_or(default_budget));
            assert_eq!(capacity, expected, "{cfg:?}");
        }
    }

    #[test]
    fn an_empty_member_set_builds_on_every_tier() {
        let g = generate(&TransitStubParams::tiny(), &mut SimRng::seed_from(23));
        for cfg in [OracleConfig::dense(), OracleConfig::cached(1 << 20), OracleConfig::embedded()]
        {
            let o = LatencyOracle::try_build_with(&g, Vec::new(), &cfg).unwrap();
            assert!(o.is_empty(), "{}", o.tier());
            assert_eq!(o.cache_stats().map(|s| s.resident_rows).unwrap_or(0), 0);
            assert_eq!(o.var_margin_per_term(), 0.0);
        }
    }

    #[test]
    fn embedded_config_routes_to_coord_embed() {
        let mut rng = SimRng::seed_from(20);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        let o = LatencyOracle::select_and_build_with(&g, 16, &mut rng, &OracleConfig::embedded());
        assert_eq!(o.tier(), "coord-embed");
        assert!(o.cache_stats().is_some(), "embedded tier exposes its exact cache");
        assert!(o.embed_stats().is_some());
        assert!(o.embed_calibration().is_some());
        assert!(o.var_margin_per_term() >= 1.0);
        // d_exact must agree with a straight Dijkstra even though d() is
        // an estimate.
        let full = shortest_paths(&g, o.host(0));
        for b in 0..16 {
            assert_eq!(o.d_exact(0, b), full[o.host(b).index()]);
        }
    }

    #[test]
    fn exact_tiers_have_empty_fallback_band() {
        let dense = tiny_oracle(10, 21);
        assert_eq!(dense.var_margin_per_term(), 0.0);
        assert!(dense.embed_stats().is_none());
        assert!(dense.embed_calibration().is_none());
        dense.note_escalation(); // no-op, must not panic
        let cached = tiny_cached(10, 21, 1 << 20);
        assert_eq!(cached.var_margin_per_term(), 0.0);
        assert!(cached.embed_stats().is_none());
    }
}
