//! [`OverlayNet`]: the complete picture of a running overlay.
//!
//! Ties together the logical wiring, the slot ↔ peer placement, the physical
//! latency oracle, and per-peer processing delays (the paper's §5.3 node
//! heterogeneity). All latency-bearing quantities the protocols and metrics
//! need live here:
//!
//! * `d(a, b)` between *slots* — physical latency between the peers that
//!   occupy them;
//! * per-slot neighbor latency sums — the Σ d(u, i) terms of the paper's
//!   `Var` equation (Eq. 2);
//! * the total/mean logical link latency — the numerator of *stretch*.

use crate::logical::{LogicalGraph, Slot};
use crate::placement::Placement;
use crate::walk::{random_walk_into, WalkScratch};
use crate::RouteOutcome;
use prop_engine::SimRng;
use prop_netsim::oracle::MemberIdx;
use prop_netsim::LatencyOracle;
use std::sync::Arc;

/// Reusable per-worker scratch state for repeated flood evaluations.
///
/// The hop-bounded Bellman–Ford behind [`OverlayNet::min_latency_within_hops`]
/// needs a dist array, a frontier, and a next-frontier per call; a measurement
/// sweep runs thousands of floods back to back, so allocating those fresh each
/// time dominates the profile. `FloodScratch` keeps them alive across calls:
///
/// * **epoch-tagged dist** — `dist[v]` is valid only when `dist_tick[v]`
///   equals the current flood's epoch, so "clearing" the array between floods
///   is a single counter increment, not an O(n) fill;
/// * **epoch-tagged tail** — `tail[w]`, the cost of the last hop `w → dst`,
///   is stamped the same way for the relaying neighbours of `dst`;
/// * **deduped next-frontier** — `next_tick[v]` stamps the round in which `v`
///   entered the next frontier, so a slot improved by several frontier nodes
///   in the same round is relayed once, not once per improvement;
/// * **swap buffers** — the frontier and next-frontier vectors are reused
///   (and swapped) rather than reallocated each round.
///
/// The scratch also keeps cumulative work counters (edge scans, dist
/// improvements, frontier pushes) so benchmarks and regression tests can
/// assert the flood does the amount of work the algorithm promises.
///
/// One scratch serves floods over nets of any size (`ensure` grows it), but
/// it must not be shared between threads — give each worker its own.
#[derive(Clone, Debug, Default)]
pub struct FloodScratch {
    /// Monotone counter doubling as flood epoch and round stamp; unique
    /// values across all calls make stale tags unambiguous.
    tick: u64,
    dist: Vec<u64>,
    dist_tick: Vec<u64>,
    tail: Vec<u64>,
    tail_tick: Vec<u64>,
    next_tick: Vec<u64>,
    frontier: Vec<(Slot, u64)>,
    next: Vec<Slot>,
    edges_scanned: u64,
    improvements: u64,
    frontier_pushes: u64,
}

impl FloodScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the tag arrays to cover `n` slots (never shrinks).
    fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.dist_tick.resize(n, 0);
            self.tail.resize(n, 0);
            self.tail_tick.resize(n, 0);
            self.next_tick.resize(n, 0);
        }
    }

    /// Cumulative neighbor examinations across all floods (the last-hop
    /// stamps included).
    pub fn edges_scanned(&self) -> u64 {
        self.edges_scanned
    }

    /// Cumulative successful dist relaxations (strict improvements).
    pub fn improvements(&self) -> u64 {
        self.improvements
    }

    /// Cumulative slots admitted to a next frontier (post-dedup).
    pub fn frontier_pushes(&self) -> u64 {
        self.frontier_pushes
    }

    /// The shared flood engine: hop-bounded Bellman–Ford from `src` toward
    /// `dst` over `graph`, restricted each round to last round's improved
    /// slots, where only slots satisfying `relays` forward and traversing
    /// `u → v` costs `cost(u, v)`. Returns the cheapest `(cost, hops)`
    /// delivery within `max_hops` — `hops` is the first round that attains
    /// that cost — or `None` if `dst` is out of reach.
    ///
    /// Frontier entries carry their round-start dist (the per-round snapshot
    /// of the allocating original), so in-round improvements to a frontier
    /// member don't leak into its own relaxations this round, and the next
    /// frontier is deduped (duplicate entries would carry the same snapshot
    /// dist and re-relax idempotently under the strict `<`).
    ///
    /// The flood is goal-directed. `lower(u)` must never exceed the cost of
    /// any `cost`-priced route `u → … → dst` (for latency floods the physical
    /// `d(u, dst)`: `d` is a metric and delays only add), so a frontier node
    /// at `du` relays only while `du + lower(u)` could still beat two bounds:
    ///
    /// * the incumbent answer `best` — skipped at `≥`, since only a strictly
    ///   cheaper delivery replaces the recorded `(cost, hops)`;
    /// * the one-hop look-ahead `ub` — the cheapest `dist[w] + cost(w, dst)`
    ///   over relaying neighbours `w` of `dst` improved in a round before
    ///   the last, each a real ≤ `max_hops` delivery not yet recorded —
    ///   skipped only at `>`, since that delivery may be the optimum.
    ///
    /// Every node on the cheapest fewest-hop route sits at or under both
    /// bounds, so it relays in the same rounds as in the unpruned flood and
    /// `(cost, hops)` is unchanged. `lower` is not evaluated until a bound
    /// exists, which takes a live edge into `dst`.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        graph: &LogicalGraph,
        src: Slot,
        dst: Slot,
        max_hops: u32,
        relays: impl Fn(Slot) -> bool,
        cost: impl Fn(Slot, Slot) -> u64,
        lower: impl Fn(Slot) -> u64,
    ) -> Option<(u64, u32)> {
        if src == dst {
            return Some((0, 0));
        }
        self.ensure(graph.num_slots());
        self.tick += 1;
        let epoch = self.tick;
        self.dist[src.index()] = 0;
        self.dist_tick[src.index()] = epoch;
        for &w in graph.neighbors(dst) {
            if relays(w) {
                self.edges_scanned += 1;
                self.tail[w.index()] = cost(w, dst);
                self.tail_tick[w.index()] = epoch;
            }
        }
        let mut frontier = std::mem::take(&mut self.frontier);
        let mut next = std::mem::take(&mut self.next);
        frontier.clear();
        frontier.push((src, 0));
        // `u64::MAX` stands for "no such bound yet" in both.
        let (mut best, mut best_hops) = (u64::MAX, 0);
        let mut ub = u64::MAX;
        for h in 1..=max_hops {
            self.tick += 1;
            let round = self.tick;
            next.clear();
            for &(u, du) in &frontier {
                if best.min(ub) != u64::MAX {
                    let floor = du + lower(u);
                    if floor >= best || floor > ub {
                        continue;
                    }
                }
                if !relays(u) {
                    continue;
                }
                for &v in graph.neighbors(u) {
                    self.edges_scanned += 1;
                    let c = du + cost(u, v);
                    let vi = v.index();
                    let dv = if self.dist_tick[vi] == epoch { self.dist[vi] } else { u64::MAX };
                    if c < dv {
                        self.dist[vi] = c;
                        self.dist_tick[vi] = epoch;
                        self.improvements += 1;
                        if self.next_tick[vi] != round {
                            self.next_tick[vi] = round;
                            next.push(v);
                            self.frontier_pushes += 1;
                        }
                        if v == dst {
                            if c < best {
                                (best, best_hops) = (c, h);
                            }
                        } else if h < max_hops && self.tail_tick[vi] == epoch {
                            ub = ub.min(c + self.tail[vi]);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier.clear();
            frontier.extend(next.iter().map(|&v| (v, self.dist[v.index()])));
        }
        self.frontier = frontier;
        self.next = next;
        (best != u64::MAX).then_some((best, best_hops))
    }
}

/// A live overlay: logical graph + placement + physical latencies
/// (+ optional per-peer processing delays).
pub struct OverlayNet {
    graph: LogicalGraph,
    placement: Placement,
    oracle: Arc<LatencyOracle>,
    /// Per-*peer* processing delay in ms (empty ⇒ all zero).
    proc_delay: Vec<u32>,
}

impl OverlayNet {
    /// Assemble an overlay. `graph` slots and `placement` slots must agree
    /// in count; every live slot must be occupied.
    pub fn new(graph: LogicalGraph, placement: Placement, oracle: Arc<LatencyOracle>) -> Self {
        assert_eq!(graph.num_slots(), placement.num_slots());
        for s in graph.live_slots() {
            assert!(placement.peer_at(s).is_some(), "live {s:?} is vacant");
        }
        OverlayNet { graph, placement, oracle, proc_delay: Vec::new() }
    }

    /// Attach per-peer processing delays (indexed by peer, ms). Used by the
    /// heterogeneous-environment experiments (Fig. 7).
    pub fn set_processing_delays(&mut self, delays: Vec<u32>) {
        assert_eq!(delays.len(), self.oracle.len());
        self.proc_delay = delays;
    }

    #[inline]
    pub fn graph(&self) -> &LogicalGraph {
        &self.graph
    }

    /// Mutable access to the logical wiring — used by PROP-O, LTM, and churn.
    #[inline]
    pub fn graph_mut(&mut self) -> &mut LogicalGraph {
        &mut self.graph
    }

    // No-op kept for one caller this PR may not edit:
    // `benchmark/src/probes.rs` calls it before its standalone probes.
    // There is no second adjacency to refresh; the next `benchmark` PR
    // drops those two calls and this stub with them.
    #[doc(hidden)]
    pub fn refresh_csr(&mut self) {}

    /// Run a probe walk (see [`random_walk_into`]) into a caller-owned
    /// [`WalkScratch`] — the drivers' zero-alloc steady-state form. The
    /// result is read back via `scratch.walk()`.
    pub fn probe_walk_into(
        &self,
        origin: Slot,
        first_hop: Slot,
        nhops: u32,
        rng: &mut SimRng,
        scratch: &mut WalkScratch,
    ) {
        random_walk_into(&self.graph, origin, first_hop, nhops, rng, scratch);
    }

    #[inline]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    #[inline]
    pub fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    #[inline]
    pub fn oracle(&self) -> &LatencyOracle {
        &self.oracle
    }

    /// Batch-warm the oracle rows for the peers occupying `slots`: a no-op
    /// on the dense tier; on the row tiers, one whole row per cold source
    /// on a graph the row kernel does not decompose, and only a recency
    /// bump of resident rows on one it does (`LatencyOracle::warm_rows`).
    /// Call before a burst of latency queries over a known slot set so
    /// that, where rows are whole, each is made once, up front, and not
    /// again every time the sweep's own reads evict it. Duplicate slots
    /// (several pairs sharing a source) are warmed once.
    pub fn warm_latency_rows(&self, slots: &[Slot]) {
        let mut peers: Vec<MemberIdx> = slots.iter().map(|&s| self.placement.peer(s)).collect();
        peers.sort_unstable();
        peers.dedup();
        self.oracle.warm_rows(&peers);
    }

    /// Hit/miss/eviction counters of the oracle's row cache; `None` while
    /// the dense tier is live.
    pub fn oracle_cache_stats(&self) -> Option<prop_netsim::CacheStats> {
        self.oracle.cache_stats()
    }

    /// The peer at a live slot.
    #[inline]
    pub fn peer(&self, s: Slot) -> MemberIdx {
        self.placement.peer(s)
    }

    /// Physical latency (ms) between the peers occupying two slots.
    #[inline]
    pub fn d(&self, a: Slot, b: Slot) -> u32 {
        self.oracle.d(self.placement.peer(a), self.placement.peer(b))
    }

    /// Processing delay (ms) of the peer at `s`; zero when heterogeneity is
    /// disabled.
    #[inline]
    pub fn proc_delay(&self, s: Slot) -> u32 {
        if self.proc_delay.is_empty() {
            0
        } else {
            self.proc_delay[self.placement.peer(s)]
        }
    }

    /// What a routed lookup along `path` (source first) costs: every link,
    /// plus the processing delay of each *receiving* peer, destination
    /// included and source excluded — the same charge a flood makes.
    pub fn route_outcome(&self, path: &[Slot]) -> RouteOutcome {
        let mut latency_ms = 0u64;
        for w in path.windows(2) {
            latency_ms += self.d(w[0], w[1]) as u64 + self.proc_delay(w[1]) as u64;
        }
        RouteOutcome { latency_ms, hops: (path.len() - 1) as u32 }
    }

    /// Σ_{i ∈ N(s)} d(s, i) — the per-node term of the paper's Var (Eq. 2).
    pub fn neighbor_latency_sum(&self, s: Slot) -> u64 {
        self.graph.neighbors(s).iter().map(|&n| self.d(s, n) as u64).sum()
    }

    /// Total latency over all logical links (each edge once), in ms.
    pub fn total_link_latency(&self) -> u64 {
        self.graph.edges().map(|(a, b)| self.d(a, b) as u64).sum()
    }

    /// Mean logical link latency — numerator of the paper's *stretch*.
    pub fn mean_link_latency(&self) -> f64 {
        let e = self.graph.num_edges();
        if e == 0 {
            return f64::NAN;
        }
        self.total_link_latency() as f64 / e as f64
    }

    /// The paper's stretch: mean logical link latency over mean physical
    /// link latency.
    pub fn stretch(&self) -> f64 {
        self.mean_link_latency() / self.oracle.mean_phys_link_latency()
    }

    /// PROP-G primitive: peers at `a` and `b` trade logical positions.
    /// O(1); the logical graph is untouched.
    pub fn swap_peers(&mut self, a: Slot, b: Slot) {
        debug_assert!(self.graph.is_alive(a) && self.graph.is_alive(b));
        self.placement.swap_slots(a, b);
    }

    /// Minimum end-to-end latency from `src` to `dst` using at most
    /// `max_hops` overlay hops — the delivery latency of a Gnutella-style
    /// flood with TTL `max_hops` (the first query copy to arrive travelled
    /// the fastest ≤TTL-hop path). Per-hop processing delay is charged at
    /// each *receiving* node, destination included.
    ///
    /// Returns `(latency, hops)` or `None` if `dst` is not reachable within
    /// the hop budget.
    pub fn min_latency_within_hops(
        &self,
        src: Slot,
        dst: Slot,
        max_hops: u32,
    ) -> Option<(u64, u32)> {
        let mut scratch = FloodScratch::new();
        self.min_latency_within_hops_with(src, dst, max_hops, &mut scratch)
    }

    /// [`OverlayNet::min_latency_within_hops`] with caller-owned scratch —
    /// the fast path for measurement sweeps, which run thousands of floods
    /// back to back and reuse one [`FloodScratch`] per worker. Same answer
    /// as the allocating version for every input (see [`FloodScratch::run`]
    /// for why the scratch's dedup and pruning are observationally safe).
    pub fn min_latency_within_hops_with(
        &self,
        src: Slot,
        dst: Slot,
        max_hops: u32,
        scratch: &mut FloodScratch,
    ) -> Option<(u64, u32)> {
        scratch.run(
            &self.graph,
            src,
            dst,
            max_hops,
            |_| true,
            |u, v| self.d(u, v) as u64 + self.proc_delay(v) as u64,
            |u| self.d(dst, u) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnutella::{Gnutella, GnutellaParams};
    use crate::ultrapeer::{Ultrapeer, UltrapeerParams};
    use prop_engine::SimRng;
    use prop_netsim::{generate, TransitStubParams};

    fn small_net(n: usize, seed: u64) -> (OverlayNet, Arc<LatencyOracle>) {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
        let mut g = LogicalGraph::new(n);
        // ring + one chord for interesting routing
        for i in 0..n as u32 {
            g.add_edge(Slot(i), Slot((i + 1) % n as u32));
        }
        let net = OverlayNet::new(g, Placement::identity(n), Arc::clone(&oracle));
        (net, oracle)
    }

    #[test]
    fn d_reflects_placement() {
        let (mut net, oracle) = small_net(6, 1);
        let before = net.d(Slot(0), Slot(1));
        assert_eq!(before, oracle.d(0, 1));
        net.swap_peers(Slot(1), Slot(4));
        assert_eq!(net.d(Slot(0), Slot(1)), oracle.d(0, 4));
    }

    #[test]
    fn neighbor_latency_sum_matches_manual() {
        let (net, _) = small_net(6, 2);
        let s = Slot(2);
        let manual: u64 = net.graph().neighbors(s).iter().map(|&x| net.d(s, x) as u64).sum();
        assert_eq!(net.neighbor_latency_sum(s), manual);
    }

    #[test]
    fn total_link_latency_counts_each_edge_once() {
        let (net, _) = small_net(5, 3);
        let by_edges: u64 = net.graph().edges().map(|(a, b)| net.d(a, b) as u64).sum();
        assert_eq!(net.total_link_latency(), by_edges);
        // Sum over per-node sums double counts:
        let per_node: u64 = net.graph().live_slots().map(|s| net.neighbor_latency_sum(s)).sum();
        assert_eq!(per_node, 2 * by_edges);
    }

    #[test]
    fn stretch_is_ratio_of_means() {
        let (net, oracle) = small_net(6, 4);
        let expect = net.mean_link_latency() / oracle.mean_phys_link_latency();
        assert!((net.stretch() - expect).abs() < 1e-12);
        assert!(net.stretch() > 0.0);
    }

    #[test]
    fn swap_preserves_total_when_symmetric() {
        // Swapping two peers changes only the latencies of their incident
        // links; the logical structure is unchanged.
        let (mut net, _) = small_net(6, 5);
        let edges_before: Vec<_> = net.graph().edges().collect();
        net.swap_peers(Slot(0), Slot(3));
        let edges_after: Vec<_> = net.graph().edges().collect();
        assert_eq!(edges_before, edges_after);
    }

    #[test]
    fn flood_reaches_neighbors_in_one_hop() {
        let (net, _) = small_net(6, 6);
        let (lat, hops) = net.min_latency_within_hops(Slot(0), Slot(1), 7).unwrap();
        assert_eq!(hops, 1);
        assert_eq!(lat, net.d(Slot(0), Slot(1)) as u64);
    }

    #[test]
    fn flood_respects_ttl() {
        // On a 6-ring the antipode is 3 hops away.
        let (net, _) = small_net(6, 7);
        assert!(net.min_latency_within_hops(Slot(0), Slot(3), 2).is_none());
        assert!(net.min_latency_within_hops(Slot(0), Slot(3), 3).is_some());
    }

    #[test]
    fn flood_finds_cheapest_not_shortest() {
        // Build a custom net where the 2-hop route is cheaper than 1-hop.
        let mut rng = SimRng::seed_from(8);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 10, &mut rng));
        // Find a triple where d(a,c) > d(a,b) + d(b,c).
        let mut found = None;
        'outer: for a in 0..10 {
            for b in 0..10 {
                for c in 0..10 {
                    if a != b
                        && b != c
                        && a != c
                        && oracle.d(a, c) > oracle.d(a, b) + oracle.d(b, c)
                    {
                        found = Some((a, b, c));
                        break 'outer;
                    }
                }
            }
        }
        // Shortest-path metrics satisfy the triangle inequality, so strict
        // violation can't exist; equality can. Use ≥ and assert the flood
        // never does worse than the direct link.
        let (a, b, c) = found.unwrap_or((0, 1, 2));
        let mut g = LogicalGraph::new(10);
        g.add_edge(Slot(a as u32), Slot(b as u32));
        g.add_edge(Slot(b as u32), Slot(c as u32));
        g.add_edge(Slot(a as u32), Slot(c as u32));
        let net = OverlayNet::new(g, Placement::identity(10), oracle);
        let (lat, _) = net.min_latency_within_hops(Slot(a as u32), Slot(c as u32), 7).unwrap();
        assert!(lat <= net.d(Slot(a as u32), Slot(c as u32)) as u64);
    }

    #[test]
    fn processing_delay_charged_per_receiving_hop() {
        let (mut net, oracle) = small_net(4, 9);
        net.set_processing_delays(vec![50; oracle.len()]);
        let (lat, hops) = net.min_latency_within_hops(Slot(0), Slot(2), 7).unwrap();
        // Whatever path it takes, it pays 50ms per hop.
        let link_only: u64 = lat - 50 * hops as u64;
        assert!(link_only > 0);
        assert!(hops >= 1);
    }

    #[test]
    fn route_outcome_charges_links_and_receivers_not_the_source() {
        let (mut net, oracle) = small_net(4, 9);
        net.set_processing_delays(vec![1000, 200, 30, 4]);
        let links = (oracle.d(0, 1) + oracle.d(1, 2) + oracle.d(2, 3)) as u64;
        let out = net.route_outcome(&[Slot(0), Slot(1), Slot(2), Slot(3)]);
        assert_eq!(out, RouteOutcome { latency_ms: links + 200 + 30 + 4, hops: 3 });
        assert_eq!(net.route_outcome(&[Slot(2)]), RouteOutcome { latency_ms: 0, hops: 0 });
    }

    #[test]
    fn lookup_to_self_is_free() {
        let (net, _) = small_net(4, 10);
        assert_eq!(net.min_latency_within_hops(Slot(1), Slot(1), 7), Some((0, 0)));
    }

    #[test]
    fn clique_flood_relaxation_counts_are_exact() {
        // On a clique whose latencies come from a shortest-path metric,
        // round 1 improves every other member exactly once (triangle
        // inequality: no 2-hop route beats a direct edge), and round 2 scans
        // everything once more, improves nothing, and terminates. With a
        // deduped frontier the work is therefore exactly:
        //   scans        = (c-1) + (c-1)²   improvements = c-1
        //   pushes       = c-1              (each member enters once)
        // regardless of TTL, seed, or latency values. A regression that
        // re-admits duplicate frontier entries breaks the scan count.
        let c = 8usize; // clique size; slot c is isolated (flood target)
        let n = c + 1;
        let mut rng = SimRng::seed_from(12);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
        let mut g = LogicalGraph::new(n);
        for a in 0..c as u32 {
            for b in (a + 1)..c as u32 {
                g.add_edge(Slot(a), Slot(b));
            }
        }
        let net = OverlayNet::new(g, Placement::identity(n), oracle);
        let mut scratch = FloodScratch::new();
        // Destination is the isolated slot: no edge leads into it, so neither
        // the incumbent nor the look-ahead bound ever exists, nothing is
        // pruned, and the counts depend only on the topology.
        let out = net.min_latency_within_hops_with(Slot(0), Slot(c as u32), 7, &mut scratch);
        assert_eq!(out, None);
        let k = (c - 1) as u64;
        assert_eq!(scratch.edges_scanned(), k + k * k, "clique flood scan count");
        assert_eq!(scratch.improvements(), k, "clique flood improvement count");
        assert_eq!(scratch.frontier_pushes(), k, "clique flood frontier pushes");
    }

    /// Textbook hop-bounded Bellman–Ford, the twin `FloodScratch::run` is
    /// held to: a full snapshot per round, every edge of every reached
    /// relaying slot relaxed, no frontier, no dedup, no prune. The answer is
    /// taken in the last round that strictly improves `dist[dst]`, i.e. the
    /// first round that attains the final cost.
    fn reference_flood(
        graph: &LogicalGraph,
        src: Slot,
        dst: Slot,
        max_hops: u32,
        relays: impl Fn(Slot) -> bool,
        cost: impl Fn(Slot, Slot) -> u64,
    ) -> Option<(u64, u32)> {
        let mut dist = vec![u64::MAX; graph.num_slots()];
        dist[src.index()] = 0;
        let mut answer = (src == dst).then_some((0, 0));
        for h in 1..=max_hops {
            let snapshot = dist.clone();
            for (ui, &du) in snapshot.iter().enumerate() {
                let u = Slot(ui as u32);
                if du == u64::MAX || !relays(u) {
                    continue;
                }
                for &v in graph.neighbors(u) {
                    dist[v.index()] = dist[v.index()].min(du + cost(u, v));
                }
            }
            if dist[dst.index()] < snapshot[dst.index()] {
                answer = Some((dist[dst.index()], h));
            }
        }
        answer
    }

    #[test]
    fn goal_directed_flood_matches_textbook_twin() {
        // Every ordered pair × TTL on seeded Gnutella and two-tier builds,
        // half of them heterogeneous, placements shuffled by PROP-G swaps,
        // one scratch across all of it. Mutation-checked: `lower = 2·d`
        // and `>=` on the look-ahead prune both fail here.
        let mut scratch = FloodScratch::new();
        let mut triples = 0u64;
        for seed in 0..256u64 {
            let mut rng = SimRng::seed_from(seed);
            let phys = generate(&TransitStubParams::tiny(), &mut rng);
            let n = rng.range(12..=40usize);
            let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
            let delays: Vec<u32> = (0..n).map(|_| rng.range(0..80u32)).collect();

            let (_, mut net) =
                Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);
            for _ in 0..n {
                net.swap_peers(Slot(rng.range(0..n as u32)), Slot(rng.range(0..n as u32)));
            }
            if seed % 2 == 1 {
                net.set_processing_delays(delays.clone());
            }
            let cost = |u, v| net.d(u, v) as u64 + net.proc_delay(v) as u64;
            for ttl in [1u32, 2, 3, 4, 7] {
                for a in (0..n as u32).map(Slot) {
                    for b in (0..n as u32).map(Slot) {
                        let want = reference_flood(net.graph(), a, b, ttl, |_| true, cost);
                        let got = net.min_latency_within_hops_with(a, b, ttl, &mut scratch);
                        assert_eq!(got, want, "seed {seed} gnutella {a:?}→{b:?} ttl {ttl}");
                        triples += 1;
                    }
                }
            }

            for flood_ttl in [0u32, 1, 2, 5] {
                let params = UltrapeerParams { flood_ttl, ..UltrapeerParams::default() };
                let (up, mut net) = Ultrapeer::build(params, Arc::clone(&oracle), &mut rng);
                if seed % 4 >= 2 {
                    net.set_processing_delays(delays.clone());
                }
                let cost = |u, v| net.d(u, v) as u64 + net.proc_delay(v) as u64;
                for a in (0..n as u32).map(Slot) {
                    for b in (0..n as u32).map(Slot) {
                        let relays = |u| u == a || up.is_ultrapeer(u);
                        let want = reference_flood(net.graph(), a, b, flood_ttl + 2, relays, cost);
                        let got = up.flood_latency_with(&net, a, b, &mut scratch);
                        assert_eq!(got, want, "seed {seed} two-tier {a:?}→{b:?} ttl {flood_ttl}");
                        triples += 1;
                    }
                }
            }
        }
        assert!(triples >= 400_000, "only {triples} triples compared");
    }

    #[test]
    fn flood_with_a_vacated_endpoint_never_asks_for_its_peer() {
        // A vacated slot has no peer: `Placement::peer` debug-asserts on it
        // and hands the oracle a sentinel index in release builds. No edge
        // leads into or out of a dead slot, so no bound ever exists and
        // neither `lower` nor a last-hop cost may be evaluated against it.
        let mut rng = SimRng::seed_from(16);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 20, &mut rng));
        let (gn, mut net) =
            Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);
        let gone = Slot(7);
        gn.crash(&mut net, gone);
        let (up, mut tiers) = Ultrapeer::build(UltrapeerParams::default(), oracle, &mut rng);
        tiers.graph_mut().remove_slot(gone);
        tiers.placement_mut().vacate(gone);
        let mut scratch = FloodScratch::new();
        for live in (0..20u32).map(Slot).filter(|&s| s != gone) {
            assert_eq!(net.min_latency_within_hops_with(live, gone, 7, &mut scratch), None);
            assert_eq!(net.min_latency_within_hops_with(gone, live, 7, &mut scratch), None);
            assert_eq!(up.flood_latency_with(&tiers, live, gone, &mut scratch), None);
            assert_eq!(up.flood_latency_with(&tiers, gone, live, &mut scratch), None);
        }
    }

    #[test]
    fn paper_scale_flood_work_stays_goal_directed() {
        // The ledger at the paper's own scale (ts-large, n = 1000, TTL 7) on
        // a freshly built, location-blind overlay: per lookup an undirected
        // flood scans 6,368 edges and pushes 1,300 slots, the lower bound
        // alone 2,589 / 904, both bounds 1,674 / 703 (PROP-optimised
        // overlays prune harder: ≈ 1.0k / 0.57k in the benchmark's probe).
        // A change that silently disables a bound fails these counts.
        let mut rng = SimRng::seed_from(1);
        let phys = generate(&TransitStubParams::ts_large(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 1000, &mut rng));
        let (gn, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        let mut scratch = FloodScratch::new();
        let floods = 256u64;
        for _ in 0..floods {
            let (a, b) = (Slot(rng.range(0..1000u32)), Slot(rng.range(0..1000u32)));
            let out = net.min_latency_within_hops_with(a, b, gn.params.flood_ttl, &mut scratch);
            assert!(out.is_some(), "{a:?}→{b:?} undelivered at TTL 7");
        }
        let edges = scratch.edges_scanned() / floods;
        let pushes = scratch.frontier_pushes() / floods;
        assert!(edges <= 2_000, "{edges} edges scanned per flood");
        assert!(pushes <= 800, "{pushes} frontier pushes per flood");
    }

    #[test]
    fn frontier_dedup_admits_each_slot_once_per_round() {
        // Diamond src—{a,b}—v: in round 2 both a and b may improve v; the
        // deduped frontier must admit v once either way, so total pushes are
        // exactly 3 (a, b, v) for every seed.
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from(seed);
            let phys = generate(&TransitStubParams::tiny(), &mut rng);
            let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 4, &mut rng));
            let mut g = LogicalGraph::new(4);
            g.add_edge(Slot(0), Slot(1));
            g.add_edge(Slot(0), Slot(2));
            g.add_edge(Slot(1), Slot(3));
            g.add_edge(Slot(2), Slot(3));
            let net = OverlayNet::new(g, Placement::identity(4), oracle);
            let mut scratch = FloodScratch::new();
            let out = net.min_latency_within_hops_with(Slot(0), Slot(3), 7, &mut scratch);
            assert!(out.is_some());
            assert_eq!(scratch.frontier_pushes(), 3, "seed {seed}: duplicate frontier entry");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        // One scratch across many floods (the measurement-plane pattern)
        // must agree with a fresh allocation per call, including across
        // different sources, TTLs, and interleaved unreachable queries.
        let (net, _) = small_net(12, 13);
        let mut scratch = FloodScratch::new();
        for ttl in [1u32, 2, 3, 7] {
            for a in 0..12u32 {
                for b in 0..12u32 {
                    let fresh = net.min_latency_within_hops(Slot(a), Slot(b), ttl);
                    let reused =
                        net.min_latency_within_hops_with(Slot(a), Slot(b), ttl, &mut scratch);
                    assert_eq!(fresh, reused, "{a}→{b} ttl {ttl}");
                }
            }
        }
    }

    #[test]
    fn scratch_grows_across_net_sizes() {
        // A scratch sized by a small net must serve a larger net next call.
        let (small, _) = small_net(4, 14);
        let (large, _) = small_net(16, 15);
        let mut scratch = FloodScratch::new();
        let s = small.min_latency_within_hops_with(Slot(0), Slot(2), 7, &mut scratch);
        assert_eq!(s, small.min_latency_within_hops(Slot(0), Slot(2), 7));
        let l = large.min_latency_within_hops_with(Slot(0), Slot(9), 7, &mut scratch);
        assert_eq!(l, large.min_latency_within_hops(Slot(0), Slot(9), 7));
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn live_slot_must_be_occupied() {
        let (net, oracle) = small_net(4, 11);
        let mut placement = net.placement().clone();
        let graph = net.graph().clone();
        placement.vacate(Slot(2));
        let _ = OverlayNet::new(graph, placement, oracle);
    }
}
