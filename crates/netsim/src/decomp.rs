//! The row kernel: how one latency row `d(src, ·)` over the members is
//! made — and, where the graph allows, how one latency is answered without
//! a row.
//!
//! [`generate`](crate::transit_stub::generate) joins every stub domain to
//! its transit node by exactly one stub–transit link. That link is a
//! bridge, so every path leaving a domain crosses it, and the shortest-path
//! latency factors exactly:
//!
//! ```text
//! d(u, v) = up(u) + T[gw(u)][gw(v)] + up(v)     u, v in different domains
//! d(u, v) = shortest path inside the domain       u, v in the same domain
//! ```
//!
//! with `up(h)` the distance from host `h` to its domain's gateway (0 for a
//! transit node, which is its own gateway) and `T` the all-pairs matrix of
//! the transit core over transit–transit links alone. A path between two
//! hosts of one domain never gains by leaving it (it would cross the bridge
//! twice), and a path between transit nodes never gains by entering one.
//!
//! [`RowKernel::new`] **checks that structure on the graph it is given** —
//! it is never assumed from how the graph was made, and there is no setting:
//!
//! * all hosts of a stub domain name the same gateway;
//! * every stub–stub link stays inside one domain;
//! * each domain has exactly one link to a transit node, and that node is
//!   the gateway its hosts name;
//! * the transit core is connected, every member reaches its gateway, and
//!   no sum above can overflow `u32`.
//!
//! When all hold it precomputes `up` (one search per domain, confined to
//! it), `T` (one search per transit node, confined to the core) and the
//! members' `(gateway, up)` pairs. The first line of the identity is then a
//! **point query** ([`RowKernel::point`]): two array reads and two adds,
//! exact, for every pair but two hosts of one stub domain. That pair reads
//! a **domain row** ([`RowKernel::domain_row`]) — `d(src, ·)` over the `k`
//! hosts of the source's own domain, one search confined to it — which is
//! the only row a row store keeps on such a graph. A whole row
//! ([`RowKernel::fill_row`]: the dense matrix's, the embedding fit's) is
//! one add per member plus that same search — O(n + k log k) for `n`
//! members, with nothing sized by the graph allocated or cleared. When any
//! check fails (a Waxman graph, a multi-homed domain, a disconnected graph)
//! there is no point answer and every row is a whole-graph
//! [`shortest_paths`], exactly as before, and it is that path which names
//! the offending pair of a disconnected member set. Both paths run the one
//! Dijkstra in [`crate::dijkstra`].

use crate::dijkstra::{search, shortest_paths, Frontier, UNREACHABLE};
use crate::graph::{NodeClass, PhysGraph, PhysNodeId};
use crate::latency::{OracleBuildError, PairFault};
use crate::oracle::MemberIdx;
use crate::rowcache::RowMs;
use std::sync::Arc;

/// What a row is written into: the dense matrix's `u32`, or the row
/// store's [`RowMs`] — filled directly, no wider row made and then copied.
pub(crate) trait Cell: Copy {
    fn from_ms(ms: u32) -> Self;
}

impl Cell for u32 {
    #[inline]
    fn from_ms(ms: u32) -> u32 {
        ms
    }
}

impl Cell for RowMs {
    /// Checked, and never taken: `RowStore::try_build` refuses a member set
    /// any of whose latencies could pass the type.
    #[inline]
    fn from_ms(ms: u32) -> RowMs {
        RowMs::try_from(ms).expect("the row store was built over latencies that fit its rows")
    }
}

/// "No such node / domain" in the `u32` index arrays below.
const NONE: u32 = u32::MAX;

/// Tag bit of a transit node's entry in [`Decomposition::slot`].
const TRANSIT: u32 = 1 << 31;

/// The transit matrix may hold this many entries per graph node before the
/// decomposition is refused: it keeps the build's memory in proportion to
/// the graph's own on input that is mostly backbone.
const TRANSIT_ENTRIES_PER_NODE: usize = 16;

/// Selects the stub hosts reachable over stub–stub links — which never
/// leave a domain, so excluding transit nodes confines a search to the
/// source's own — each at its index inside that domain.
#[inline]
fn domain_hosts(slot: &[u32]) -> impl Fn(u32) -> Option<usize> + '_ {
    move |v| {
        let s = slot[v as usize];
        (s & TRANSIT == 0).then_some(s as usize)
    }
}

/// Selects the transit core, each node at its transit index.
#[inline]
fn transit_core(slot: &[u32]) -> impl Fn(u32) -> Option<usize> + '_ {
    move |v| {
        let s = slot[v as usize];
        (s & TRANSIT != 0).then_some((s ^ TRANSIT) as usize)
    }
}

/// The verified single-homed structure of one graph, and what rows over one
/// member set need of it. All arrays are flat; none is per domain.
struct Decomposition {
    /// Per graph node. A stub host: its index among its domain's hosts. A
    /// transit node: `TRANSIT |` its index into the transit matrix.
    slot: Box<[u32]>,
    /// Domain `d` holds `dom_start[d + 1] - dom_start[d]` hosts.
    dom_start: Box<[u32]>,
    /// Row-major `t × t` distances over transit–transit links.
    transit: Box<[u32]>,
    t: usize,
    /// Per member: `(transit index of its gateway, up)`.
    gw_up: Box<[(u32, u32)]>,
    /// Per member: its stub domain, [`NONE`] for a transit node.
    dom: Box<[u32]>,
    /// Members grouped by stub domain: domain `d` owns
    /// `dom_members[dom_mstart[d]..dom_mstart[d + 1]]`.
    dom_mstart: Box<[u32]>,
    dom_members: Box<[u32]>,
}

impl Decomposition {
    /// Verify the structure and precompute, or `None` when any check in the
    /// module docs fails.
    fn build(g: &PhysGraph, members: &[PhysNodeId]) -> Option<Self> {
        let n = g.num_nodes();
        if n >= TRANSIT as usize {
            return None;
        }

        // One pass over the nodes and the hosts' links. Transit nodes and
        // each domain's hosts are numbered; a domain's hosts must agree on
        // the gateway, their stub–stub links must stay inside the domain,
        // and the one link that leaves it must go to that gateway (which is
        // thereby an in-range transit node).
        let mut slot = vec![0u32; n];
        let mut transit_nodes: Vec<u32> = Vec::new();
        let mut dom_gw: Vec<u32> = Vec::new();
        let mut dom_start: Vec<u32> = Vec::new(); // sizes first, offsets below
        let mut uplink: Vec<(u32, u32)> = Vec::new(); // (entry host, latency)
        for v in 0..n as u32 {
            let (domain, gateway) = match g.class(PhysNodeId(v)) {
                NodeClass::Transit { .. } => {
                    slot[v as usize] = TRANSIT | transit_nodes.len() as u32;
                    transit_nodes.push(v);
                    continue;
                }
                NodeClass::Stub { domain, gateway } => (domain, gateway),
            };
            let d = domain as usize;
            if d >= n {
                return None; // labels index arrays: keep them graph-sized
            }
            if d >= dom_gw.len() {
                dom_gw.resize(d + 1, NONE);
                dom_start.resize(d + 1, 0);
                uplink.resize(d + 1, (NONE, 0));
            }
            if dom_start[d] == 0 {
                dom_gw[d] = gateway;
            } else if dom_gw[d] != gateway {
                return None;
            }
            slot[v as usize] = dom_start[d];
            dom_start[d] += 1;
            for &(w, latency) in g.neighbors(PhysNodeId(v)) {
                match g.class(PhysNodeId(w)) {
                    NodeClass::Stub { domain: dw, .. } if dw == domain => {}
                    NodeClass::Transit { .. } if w == gateway && uplink[d].0 == NONE => {
                        uplink[d] = (v, latency);
                    }
                    _ => return None,
                }
            }
        }
        let t = transit_nodes.len();
        if t == 0 || t * t > TRANSIT_ENTRIES_PER_NODE * n {
            return None;
        }
        let domains = dom_gw.len();
        let mut hosts = 0u32;
        for s in dom_start.iter_mut() {
            let size = *s;
            *s = hosts;
            hosts += size;
        }
        dom_start.push(hosts);

        // `up`, one search per domain from its entry host.
        let mut frontier = Frontier::new();
        let mut up = vec![UNREACHABLE; hosts as usize];
        for d in 0..domains {
            let (lo, hi) = (dom_start[d] as usize, dom_start[d + 1] as usize);
            if lo == hi {
                continue; // a label no host carries
            }
            let (entry, latency) = uplink[d];
            if entry == NONE {
                return None;
            }
            let local = &mut up[lo..hi];
            search(g, PhysNodeId(entry), local, &mut frontier, domain_hosts(&slot));
            for x in local {
                *x = x.saturating_add(latency);
            }
        }

        // The transit matrix, one search per transit node.
        let mut transit = vec![UNREACHABLE; t * t];
        for (row, &node) in transit.chunks_mut(t).zip(&transit_nodes) {
            search(g, PhysNodeId(node), row, &mut frontier, transit_core(&slot));
        }
        let longest_transit = transit.iter().copied().max().unwrap_or(0);
        if longest_transit == UNREACHABLE {
            return None;
        }

        // The member side.
        let mut gw_up = Vec::with_capacity(members.len());
        let mut dom = Vec::with_capacity(members.len());
        let mut dom_mstart = vec![0u32; domains + 1];
        let mut longest_up = 0u32;
        for &h in members {
            let s = slot[h.index()];
            let NodeClass::Stub { domain, .. } = g.class(h) else {
                gw_up.push((s ^ TRANSIT, 0));
                dom.push(NONE);
                continue;
            };
            let d = domain as usize;
            let u = up[(dom_start[d] + s) as usize];
            if u == UNREACHABLE {
                return None;
            }
            longest_up = longest_up.max(u);
            gw_up.push((slot[dom_gw[d] as usize] ^ TRANSIT, u));
            dom.push(domain);
            dom_mstart[d + 1] += 1;
        }
        if 2 * longest_up as u64 + longest_transit as u64 >= UNREACHABLE as u64 {
            return None;
        }
        for d in 0..domains {
            dom_mstart[d + 1] += dom_mstart[d];
        }
        let mut next = dom_mstart.clone();
        let mut dom_members = vec![0u32; dom_mstart[domains] as usize];
        for (j, &d) in dom.iter().enumerate() {
            if d != NONE {
                let at = &mut next[d as usize];
                dom_members[*at as usize] = j as u32;
                *at += 1;
            }
        }

        Some(Decomposition {
            slot: slot.into(),
            dom_start: dom_start.into(),
            transit: transit.into(),
            t,
            gw_up: gw_up.into(),
            dom: dom.into(),
            dom_mstart: dom_mstart.into(),
            dom_members: dom_members.into(),
        })
    }

    /// `d(members[a], members[b])` when the path crosses the core: exact
    /// for every pair but two hosts of one stub domain (`None`), transit
    /// members and one host listed twice included — a transit node is its
    /// own gateway at `up = 0`, and a twice-listed host shares its domain
    /// with itself.
    #[inline]
    fn point(&self, a: MemberIdx, b: MemberIdx) -> Option<u32> {
        let d = self.dom[a];
        if d != NONE && d == self.dom[b] {
            return None;
        }
        let ((gw_a, up_a), (gw_b, up_b)) = (self.gw_up[a], self.gw_up[b]);
        Some(up_a + self.transit[gw_a as usize * self.t + gw_b as usize] + up_b)
    }

    /// Distances from stub host `src` to the hosts of its own domain `d`,
    /// each at its [`Self::slot`]: the one search confined to a domain that
    /// both kinds of row are made by.
    fn domain_search(&self, g: &PhysGraph, src: PhysNodeId, d: usize) -> Vec<u32> {
        let k = (self.dom_start[d + 1] - self.dom_start[d]) as usize;
        let mut local = vec![UNREACHABLE; k];
        search(g, src, &mut local, &mut Frontier::with_capacity(k), domain_hosts(&self.slot));
        local
    }

    /// The row kept for stub member `src`: [`Self::domain_search`]'s, two
    /// bytes a host. A member's cell fits (the store checked every member
    /// pair when it was built); a host that is no member may lie farther,
    /// or out of reach inside the domain, and its cell is never read.
    fn domain_row(&self, g: &PhysGraph, members: &[PhysNodeId], src: MemberIdx) -> Arc<[RowMs]> {
        let d = self.dom[src];
        debug_assert_ne!(d, NONE, "a transit member is never half of a same-domain pair");
        self.domain_search(g, members[src], d as usize)
            .into_iter()
            .map(|ms| RowMs::try_from(ms).unwrap_or(RowMs::MAX))
            .collect()
    }

    fn fill_row<T: Cell>(
        &self,
        g: &PhysGraph,
        members: &[PhysNodeId],
        src: MemberIdx,
        out: &mut [T],
    ) {
        let (gw, base) = self.gw_up[src];
        let via = &self.transit[gw as usize * self.t..][..self.t];
        for (o, &(gw_j, up_j)) in out.iter_mut().zip(self.gw_up.iter()) {
            *o = T::from_ms(base + via[gw_j as usize] + up_j);
        }
        let d = self.dom[src];
        if d == NONE {
            return;
        }
        // Members of the source's own domain: the path stays inside it.
        let d = d as usize;
        let local = self.domain_search(g, members[src], d);
        for &j in &self.dom_members[self.dom_mstart[d] as usize..self.dom_mstart[d + 1] as usize] {
            out[j as usize] = T::from_ms(local[self.slot[members[j as usize].index()] as usize]);
        }
    }
}

/// Makes latency rows over one member set of one graph: by the
/// decomposition when the graph has the structure, by whole-graph Dijkstra
/// otherwise. Which one is a property observed in the input.
pub(crate) struct RowKernel(Option<Decomposition>);

impl RowKernel {
    pub(crate) fn new(g: &PhysGraph, members: &[PhysNodeId]) -> Self {
        RowKernel(Decomposition::build(g, members))
    }

    /// Write `d(members[src], members[j])` into `out[j]` for every member,
    /// failing on the first one `src` cannot reach. `g` and `members` are
    /// the ones the kernel was built over.
    pub(crate) fn fill_row<T: Cell>(
        &self,
        g: &PhysGraph,
        members: &[PhysNodeId],
        src: MemberIdx,
        out: &mut [T],
    ) -> Result<(), OracleBuildError> {
        debug_assert_eq!(out.len(), members.len());
        if let Some(dec) = &self.0 {
            // Every member was found reachable when the kernel was built.
            dec.fill_row(g, members, src, out);
            return Ok(());
        }
        let full = shortest_paths(g, members[src]);
        for (j, (o, &dst)) in out.iter_mut().zip(members).enumerate() {
            let ms = full[dst.index()];
            if ms == UNREACHABLE {
                return Err(OracleBuildError {
                    from_member: src,
                    from_host: members[src],
                    to_member: j,
                    to_host: dst,
                    fault: PairFault::Disconnected,
                });
            }
            *o = T::from_ms(ms);
        }
        Ok(())
    }

    /// Was the structure found? Then [`Self::point`] answers every pair but
    /// two hosts of one stub domain, and a store keeps [`Self::domain_row`]s.
    pub(crate) fn is_decomposed(&self) -> bool {
        self.0.is_some()
    }

    /// `d(members[a], members[b])` by two array reads and two adds, exact;
    /// `None` for two hosts of one stub domain, and for every pair of a
    /// graph without the structure — the pairs a kept row answers.
    #[inline]
    pub(crate) fn point(&self, a: MemberIdx, b: MemberIdx) -> Option<u32> {
        self.0.as_ref()?.point(a, b)
    }

    /// The row a store keeps for `src` on a decomposed graph: `d(src, ·)`
    /// over the hosts of its stub domain, by one search confined to it.
    /// `None` on a graph without the structure, where a store keeps
    /// [`Self::fill_row`]'s rows whole.
    pub(crate) fn domain_row(
        &self,
        g: &PhysGraph,
        members: &[PhysNodeId],
        src: MemberIdx,
    ) -> Option<Arc<[RowMs]>> {
        self.0.as_ref().map(|dec| dec.domain_row(g, members, src))
    }

    /// Where member `j`'s cell lies in a kept row: at its host's index
    /// inside the domain, or at `j` in a whole row.
    #[inline]
    pub(crate) fn cell(&self, members: &[PhysNodeId], j: MemberIdx) -> usize {
        self.0.as_ref().map_or(j, |dec| dec.slot[members[j].index()] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkClass, PhysGraphBuilder};
    use crate::latency::OracleConfig;
    use crate::oracle::LatencyOracle;
    use crate::transit_stub::{generate, TransitStubParams};
    use crate::waxman::{generate_waxman, WaxmanParams};
    use prop_engine::SimRng;

    /// Rows from `sources` (member indices) must equal a whole-graph
    /// Dijkstra from the same host, entry for entry.
    fn assert_rows_match(g: &PhysGraph, members: &[PhysNodeId], sources: &[MemberIdx]) {
        let kernel = RowKernel::new(g, members);
        let mut row = vec![0u32; members.len()];
        for &s in sources {
            kernel.fill_row(g, members, s, &mut row).expect("connected member set");
            let full = shortest_paths(g, members[s]);
            for (j, &m) in members.iter().enumerate() {
                assert_eq!(row[j], full[m.index()], "source {s} ({:?}) to {j} ({m:?})", members[s]);
            }
        }
    }

    /// `stubs` sampled stub hosts, ten transit nodes, and ten of the hosts
    /// a second time.
    fn mixed_members(g: &PhysGraph, stubs: usize, rng: &mut SimRng) -> Vec<PhysNodeId> {
        let mut members = rng.sample_distinct(&g.stub_nodes(), stubs);
        members.extend(g.nodes().filter(|&u| g.class(u).is_transit()).take(10));
        members.extend_from_within(..10);
        members
    }

    #[test]
    fn every_source_on_tiny_topologies() {
        for seed in 0..20 {
            let mut rng = SimRng::seed_from(seed);
            let g = generate(&TransitStubParams::tiny(), &mut rng);
            // Every node, transit included, and the first five twice.
            let mut members: Vec<PhysNodeId> = g.nodes().collect();
            members.extend_from_within(..5);
            rng.shuffle(&mut members);
            assert!(RowKernel::new(&g, &members).is_decomposed(), "seed {seed}");
            assert_rows_match(&g, &members, &(0..members.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sampled_sources_on_generated_topologies() {
        let cases = [
            ("ts_large", TransitStubParams::ts_large()),
            ("ts_small", TransitStubParams::ts_small()),
            ("scaled(3000)", TransitStubParams::scaled(3000)),
            ("scaled(10_000)", TransitStubParams::scaled(10_000)),
        ];
        for (name, params) in cases {
            let mut rng = SimRng::seed_from(12);
            let g = generate(&params, &mut rng);
            let members = mixed_members(&g, 300, &mut rng);
            assert!(RowKernel::new(&g, &members).is_decomposed(), "{name}");
            let sources: Vec<MemberIdx> = (0..members.len()).step_by(7).collect();
            assert_rows_match(&g, &members, &sources);
        }
    }

    /// The point query against whole-graph Dijkstra over every ordered pair
    /// of `mixed_members`, and the store built on it over the same pairs.
    fn assert_point_matches(name: &str, params: &TransitStubParams, stubs: usize) {
        let mut rng = SimRng::seed_from(27);
        let g = generate(params, &mut rng);
        let members = mixed_members(&g, stubs, &mut rng);
        let dec = Decomposition::build(&g, &members).expect(name);
        let cached = OracleConfig::cached(1 << 20);
        let o = LatencyOracle::try_build_with(&g, members.clone(), &cached).unwrap();
        let mut same_domain = 0;
        for (a, &u) in members.iter().enumerate() {
            let full = shortest_paths(&g, u);
            for (b, &v) in members.iter().enumerate() {
                let want = full[v.index()];
                match dec.point(a, b) {
                    Some(ms) => assert_eq!(ms, want, "{name}: ({a}, {b}) = ({u:?}, {v:?})"),
                    None => {
                        // Only two hosts of one stub domain are left to a row.
                        let (
                            NodeClass::Stub { domain: du, .. },
                            NodeClass::Stub { domain: dv, .. },
                        ) = (g.class(u), g.class(v))
                        else {
                            panic!("{name}: no point answer for ({u:?}, {v:?})");
                        };
                        assert_eq!(du, dv, "{name}: no point answer for ({u:?}, {v:?})");
                        same_domain += 1;
                    }
                }
                assert_eq!(o.d(a, b), want, "{name}: d({a}, {b}) = d({u:?}, {v:?})");
            }
        }
        // Each member with itself, the ten listed twice with their twins.
        assert!(same_domain >= stubs + 20, "{name}: {same_domain} same-domain pairs");
    }

    #[test]
    fn point_is_shortest_paths_for_every_pair() {
        assert_point_matches("tiny", &TransitStubParams::tiny(), 40);
        assert_point_matches("ts_large", &TransitStubParams::ts_large(), 300);
        assert_point_matches("ts_small", &TransitStubParams::ts_small(), 300);
        assert_point_matches("scaled(3000)", &TransitStubParams::scaled(3000), 300);
    }

    #[test]
    fn point_is_shortest_paths_for_every_pair_on_scaled_10_000() {
        assert_point_matches("scaled(10_000)", &TransitStubParams::scaled(10_000), 300);
    }

    /// Two transit nodes, domain 0 = {a0 - a1 - a2} under t0, domain 1 =
    /// {b0 - b1} under t1; `edit` may add to it before it is frozen.
    fn two_domains(
        a2_gateway: u32,
        edit: impl FnOnce(&mut PhysGraphBuilder, &[PhysNodeId]),
    ) -> (PhysGraph, Vec<PhysNodeId>) {
        let mut b = PhysGraphBuilder::new();
        let t0 = b.add_node(NodeClass::Transit { domain: 0 });
        let t1 = b.add_node(NodeClass::Transit { domain: 1 });
        let a0 = b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 });
        let a1 = b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 });
        let a2 = b.add_node(NodeClass::Stub { domain: 0, gateway: a2_gateway });
        let b0 = b.add_node(NodeClass::Stub { domain: 1, gateway: t1.0 });
        let b1 = b.add_node(NodeClass::Stub { domain: 1, gateway: t1.0 });
        b.add_link(t0, t1, 100, LinkClass::TransitTransit);
        b.add_link(a0, t0, 20, LinkClass::StubTransit);
        b.add_link(a0, a1, 5, LinkClass::StubStub);
        b.add_link(a1, a2, 7, LinkClass::StubStub);
        b.add_link(b0, t1, 30, LinkClass::StubTransit);
        b.add_link(b0, b1, 5, LinkClass::StubStub);
        let nodes = [t0, t1, a0, a1, a2, b0, b1];
        edit(&mut b, &nodes);
        (b.build(), nodes.to_vec())
    }

    /// Both exact tiers over `members` answer as whole-graph Dijkstra does;
    /// the cached one cold (every row is a `d` miss's) and with every row
    /// batch-warmed first (the cache holds them all).
    fn assert_oracles_match(g: &PhysGraph, members: &[PhysNodeId]) {
        let cached = OracleConfig::cached(1 << 20);
        for (cfg, warmed) in [(OracleConfig::dense(), false), (cached, false), (cached, true)] {
            let o = LatencyOracle::try_build_with(g, members.to_vec(), &cfg).unwrap();
            if warmed {
                o.warm_rows(&(0..members.len()).collect::<Vec<_>>());
            }
            for a in 0..members.len() {
                let full = shortest_paths(g, members[a]);
                for b in 0..members.len() {
                    let want = full[members[b].index()];
                    assert_eq!(o.d(a, b), want, "{} warmed {warmed} ({a}, {b})", o.tier());
                }
            }
        }
    }

    #[test]
    fn hand_built_single_homed_graph_is_decomposed() {
        let (g, nodes) = two_domains(0, |_, _| {});
        assert!(RowKernel::new(&g, &nodes).is_decomposed());
        assert_rows_match(&g, &nodes, &(0..nodes.len()).collect::<Vec<_>>());
        assert_oracles_match(&g, &nodes);
    }

    #[test]
    fn domains_of_unequal_size_share_one_cache() {
        // Domain 0 has three hosts and domain 1 two: a row of one is six
        // bytes, of the other four, and the one cache counts each as it is.
        let (g, nodes) = two_domains(0, |_, _| {});
        let (a0, a1, a2, b0, b1) = (2, 3, 4, 5, 6);
        // Seven members in sixteen shards: each row is the last of its
        // shard, which is never evicted, so a budget of one byte holds the
        // same three rows — past its cap by less than a row a shard.
        for cap in [1 << 20, 1] {
            let cfg = OracleConfig::cached(cap);
            let o = LatencyOracle::try_build_with(&g, nodes.clone(), &cfg).unwrap();
            let stats = || o.cache_stats().unwrap();
            assert_eq!(stats().resident_rows, 0, "no whole row is kept");
            assert_eq!((o.d(a0, a1), stats().resident_bytes), (5, 6));
            assert_eq!((o.d(b0, b1), stats().resident_bytes), (5, 6 + 4));
            assert_eq!((o.d(a2, a1), stats().resident_bytes), (7, 6 + 4 + 6));
            let s = stats();
            assert_eq!((s.resident_rows, s.misses, s.evictions), (3, 3, 0), "cap {cap}");
            assert!(s.peak_resident_bytes <= cap + 16 * 6, "cap {cap}: {s:?}");
        }
    }

    #[test]
    fn other_structures_are_rejected_and_still_exact() {
        let mut rng = SimRng::seed_from(3);
        let waxman = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        let waxman_members = rng.sample_distinct(&waxman.stub_nodes(), 25);
        let no_transit = {
            let mut b = PhysGraphBuilder::new();
            let u = b.add_node(NodeClass::Stub { domain: 0, gateway: 0 });
            let v = b.add_node(NodeClass::Stub { domain: 0, gateway: 0 });
            b.add_link(u, v, 5, LinkClass::StubStub);
            (b.build(), vec![u, v])
        };
        let cases = [
            ("waxman", (waxman, waxman_members)),
            (
                "second uplink to the gateway",
                two_domains(0, |b, n| b.add_link(n[4], n[0], 20, LinkClass::StubTransit)),
            ),
            (
                "second uplink to another transit node",
                two_domains(0, |b, n| b.add_link(n[4], n[1], 20, LinkClass::StubTransit)),
            ),
            (
                "stub-stub link across two domains",
                two_domains(0, |b, n| b.add_link(n[3], n[6], 5, LinkClass::StubStub)),
            ),
            ("hosts of one domain name different gateways", two_domains(1, |_, _| {})),
            ("no transit node", no_transit),
        ];
        for (name, (g, members)) in cases {
            assert!(!RowKernel::new(&g, &members).is_decomposed(), "{name}");
            assert_rows_match(&g, &members, &(0..members.len()).collect::<Vec<_>>());
            assert_oracles_match(&g, &members);
        }
    }

    #[test]
    fn a_stored_row_holds_65_535_from_either_kernel() {
        // a - t0 - t1 - b is decomposed, a - b alone (no transit node) is
        // not; both put the widest latency a `RowMs` has between a and b.
        let mut b = PhysGraphBuilder::new();
        let t0 = b.add_node(NodeClass::Transit { domain: 0 });
        let t1 = b.add_node(NodeClass::Transit { domain: 1 });
        let a0 = b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 });
        let b0 = b.add_node(NodeClass::Stub { domain: 1, gateway: t1.0 });
        b.add_link(a0, t0, 20, LinkClass::StubTransit);
        b.add_link(t0, t1, 65_485, LinkClass::TransitTransit);
        b.add_link(t1, b0, 30, LinkClass::StubTransit);
        let decomposed = (b.build(), vec![a0, b0]);
        let mut b = PhysGraphBuilder::new();
        let u = b.add_node(NodeClass::Stub { domain: 0, gateway: 0 });
        let v = b.add_node(NodeClass::Stub { domain: 0, gateway: 0 });
        b.add_link(u, v, 65_535, LinkClass::StubStub);
        let whole_graph = (b.build(), vec![u, v]);
        for (expect_decomposed, (g, members)) in [(true, decomposed), (false, whole_graph)] {
            let kernel = RowKernel::new(&g, &members);
            assert_eq!(kernel.is_decomposed(), expect_decomposed);
            let mut row = [0 as RowMs; 2];
            kernel.fill_row(&g, &members, 0, &mut row).expect("connected");
            assert_eq!(row, [0, RowMs::MAX]);
            assert_eq!(u32::from(row[1]), shortest_paths(&g, members[0])[members[1].index()]);
        }
    }

    /// Domain 0 with `a2` cut off from `a0 - a1` (and so from everything).
    fn split_domain() -> (PhysGraph, Vec<PhysNodeId>) {
        let mut b = PhysGraphBuilder::new();
        let t0 = b.add_node(NodeClass::Transit { domain: 0 });
        let a0 = b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 });
        let a1 = b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 });
        let a2 = b.add_node(NodeClass::Stub { domain: 0, gateway: t0.0 });
        let b0 = b.add_node(NodeClass::Stub { domain: 1, gateway: t0.0 });
        b.add_link(a0, t0, 20, LinkClass::StubTransit);
        b.add_link(a0, a1, 5, LinkClass::StubStub);
        b.add_link(b0, t0, 20, LinkClass::StubTransit);
        (b.build(), vec![a1, b0, a2, a0])
    }

    #[test]
    fn internally_split_domain_names_the_same_pair() {
        let (g, members) = split_domain();
        // What a whole-graph Dijkstra from the first member finds first.
        let full = shortest_paths(&g, members[0]);
        let to = members.iter().position(|m| full[m.index()] == UNREACHABLE).unwrap();
        assert_eq!(to, 2);
        for cfg in [OracleConfig::dense(), OracleConfig::cached(1 << 20)] {
            let err = LatencyOracle::try_build_with(&g, members.clone(), &cfg).unwrap_err();
            assert_eq!(
                err,
                OracleBuildError {
                    from_member: 0,
                    from_host: members[0],
                    to_member: to,
                    to_host: members[to],
                    fault: PairFault::Disconnected,
                }
            );
        }
        // With the cut-off host left out the rest decomposes as usual.
        let reachable = [members[0], members[1], members[3]];
        assert!(RowKernel::new(&g, &reachable).is_decomposed());
        assert_rows_match(&g, &reachable, &[0, 1, 2]);
    }
}
