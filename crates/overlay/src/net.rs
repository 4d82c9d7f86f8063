//! [`OverlayNet`]: the complete picture of a running overlay.
//!
//! Ties together the logical wiring, the slot ↔ peer placement, the physical
//! latency oracle, and per-peer processing delays (the paper's §5.3 node
//! heterogeneity). All latency-bearing quantities the protocols and metrics
//! need live here:
//!
//! * `d(a, b)` between *slots* — physical latency between the peers that
//!   occupy them;
//! * the total/mean logical link latency — the numerator of *stretch*.

use crate::logical::{LogicalGraph, Slot};
use crate::placement::Placement;
use crate::walk::{random_walk_into, WalkScratch};
use crate::RouteOutcome;
use prop_engine::SimRng;
use prop_netsim::oracle::MemberIdx;
use prop_netsim::{LatencyOracle, Point};
use std::sync::{Arc, OnceLock};

/// One overlay link as a flood prices it: the neighbour reached and
/// `d(u, v) + proc_delay(v)`.
#[derive(Clone, Copy, Debug)]
struct Link {
    to: Slot,
    cost: u32,
}

/// Every live slot's neighbour row with each link priced for a flood, in
/// one flat array: slot `u`'s row is `links[start[u]..start[u + 1]]`,
/// cheapest first (ascending by `(cost, to)`, so equal costs keep one
/// order), and a dead slot's row is empty. [`FloodScratch::run`] stops a
/// relay's scan at the first link that cannot beat its bound, which the
/// order makes exact. Beside the rows, each live slot's peer as the
/// oracle's point query reads it ([`Point`]; a dead slot's is the filler
/// no link leads to), from which a flood reads a slot's distance to its
/// destination without a lookup, and its neighbours' summed degree (0 for a
/// dead slot), from which a lookup picks the end it floods from.
///
/// A derived, immutable table of one net state. [`OverlayNet`] builds it
/// at the first flood after a mutation and drops it at each of its `&mut`
/// gates, so it is never patched and never answers for a net that has
/// changed since it was built.
#[derive(Debug)]
struct FloodView {
    start: Vec<u32>,
    links: Vec<Link>,
    point: Vec<Point>,
    reach: Vec<u32>,
}

/// What a link into `v` costs a flood, given `d(u, v)` and `v`'s
/// processing delay. Kept below `u32::MAX`, which [`FloodScratch`] reserves
/// for "no look-ahead tail".
fn flood_cost(d: u32, proc_delay: u32) -> u32 {
    match d.checked_add(proc_delay) {
        Some(c) if c < u32::MAX => c,
        _ => panic!("flood link cost {d} + {proc_delay} ms does not fit below u32::MAX"),
    }
}

impl FloodView {
    /// One pass over the live slots, each row priced through one bound
    /// source at its own peer and sorted in place, and each peer's point
    /// and its neighbours' summed degree.
    fn build(net: &OverlayNet) -> FloodView {
        let g = &net.graph;
        let mut start = Vec::with_capacity(g.num_slots() + 1);
        let mut links = Vec::with_capacity(2 * g.num_edges());
        let mut point = Vec::with_capacity(g.num_slots());
        let mut reach = Vec::with_capacity(g.num_slots());
        start.push(0);
        for u in (0..g.num_slots() as u32).map(Slot) {
            if g.is_alive(u) {
                let from = net.oracle.source(net.peer(u));
                let row = links.len();
                links.extend(g.neighbors(u).iter().map(|&v| Link {
                    to: v,
                    cost: flood_cost(from.to(net.peer(v)), net.proc_delay(v)),
                }));
                links[row..].sort_unstable_by_key(|l| (l.cost, l.to));
                point.push(net.oracle.point(net.peer(u)));
                reach.push(g.neighbors(u).iter().map(|&v| g.degree(v) as u32).sum());
            } else {
                point.push(Point::default());
                reach.push(0);
            }
            start.push(u32::try_from(links.len()).expect("more than u32::MAX overlay links"));
        }
        FloodView { start, links, point, reach }
    }

    fn num_slots(&self) -> usize {
        self.start.len() - 1
    }

    #[inline]
    fn row(&self, u: Slot) -> &[Link] {
        &self.links[self.start[u.index()] as usize..self.start[u.index() + 1] as usize]
    }
}

/// [`FloodScratch`]'s state for one slot. `stamp` is the last tick that
/// touched it: the flood's epoch (a tail or the source set) or the round
/// that pushed it to the next frontier. A stamp below the current epoch
/// is an earlier flood's, and the cell reads as unreached with no tail.
#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    dist: u64,
    /// `cost(w, dst)` for a relaying neighbour `w` of `dst`, else [`NO_TAIL`].
    tail: u32,
    stamp: u32,
}

const NO_TAIL: u32 = u32::MAX;

/// One slot of a flood's frontier: its dist at the round's start and its
/// floor `d(slot, dst)`, or [`NO_FLOOR`] when that was not yet read.
#[derive(Clone, Copy, Debug)]
struct Entry {
    slot: Slot,
    floor: u32,
    dist: u64,
}

/// An [`Entry`]'s floor that is still to be read.
const NO_FLOOR: u32 = u32::MAX;

/// Reusable per-worker scratch state for repeated flood evaluations.
///
/// The hop-bounded Bellman–Ford behind [`OverlayNet::min_latency_within_hops_with`]
/// needs per-slot state, a frontier, and a next-frontier per call; a
/// measurement sweep runs thousands of floods back to back, so allocating
/// those fresh each time dominates the profile. `FloodScratch` keeps them
/// alive across calls:
///
/// * **one epoch-stamped cell per slot** — the slot's dist, its last-hop
///   `tail` cost when it is a relaying neighbour of `dst`, and one stamp:
///   a cell stamped before the current flood's epoch reads as unreached,
///   so "clearing" between floods is a counter increment, not an O(n)
///   fill, and a cell stamped with the current round is already in the
///   next frontier, which dedups it;
/// * **swap buffers** — the frontier and next-frontier vectors are reused
///   (and swapped) rather than reallocated each round.
///
/// Link costs are not the scratch's: the flood reads them from the net's
/// flood view ([`OverlayNet`] prices every link once per net state, sorts
/// each row cheapest first and shares that table between all workers of a
/// measurement).
///
/// The scratch also keeps cumulative work counters (edge scans, dist
/// improvements, frontier pushes) so benchmarks and regression tests can
/// assert the flood does the amount of work the algorithm promises.
///
/// One scratch serves floods over nets of any size (it grows), but it must
/// not be shared between threads — give each worker its own.
#[derive(Clone, Debug, Default)]
pub struct FloodScratch {
    /// Monotone counter doubling as flood epoch and round stamp; unique
    /// values between restarts make stale stamps unambiguous.
    tick: u32,
    cells: Vec<Cell>,
    frontier: Vec<Entry>,
    /// The next frontier's slots, each with its floor.
    next: Vec<(Slot, u32)>,
    edges_scanned: u64,
    improvements: u64,
    frontier_pushes: u64,
}

impl FloodScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Cover `n` slots (never shrinks) and open a flood of at most
    /// `max_hops` rounds: returns its epoch. A flood takes one tick and one
    /// a round, so the stamps restart from zero before they could wrap.
    fn begin(&mut self, n: usize, max_hops: u32) -> u32 {
        if self.cells.len() < n {
            self.cells.resize(n, Cell::default());
        }
        if u32::MAX - self.tick <= max_hops {
            self.cells.fill(Cell::default());
            self.tick = 0;
        }
        self.tick += 1;
        self.tick
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
    /// `dst` over `net`'s overlay, restricted each round to last round's
    /// improved slots, where only slots satisfying `relays` forward and
    /// traversing `u → v` costs `d(u, v) + proc_delay(v)`, read from the
    /// net's flood view. Returns the cheapest `(cost, hops)` delivery
    /// within `max_hops` — `hops` is the first round that attains that
    /// cost — or `None` if `dst` is out of reach (a dead `dst` always is:
    /// no link leads into it).
    ///
    /// Frontier entries carry their round-start dist (the per-round snapshot
    /// of the allocating original), so in-round improvements to a frontier
    /// member don't leak into its own relaxations this round, and the next
    /// frontier is deduped (duplicate entries would carry the same snapshot
    /// dist and re-relax idempotently under the strict `<`).
    ///
    /// The flood is goal-directed. The floor `lb(v) = d(v, dst)` never
    /// exceeds the cost of any route `v → … → dst` (`d` is a metric and
    /// delays only add), so a slot reached at `c` can lead to a delivery
    /// only while `c + lb(v)` could still beat two bounds:
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
    /// `(cost, hops)` is unchanged.
    ///
    /// A relay's scan stops at the bounds. Its row is sorted cheapest
    /// first, so at the first link whose `c = du + cost` has `c ≥ best` or
    /// `c > ub`, every later link costs at least as much; a slot reached at
    /// `c` or more could not pass the floor test (`lb ≥ 0`, and both bounds
    /// only fall), and `dst` reached there would beat neither `best` nor
    /// the real delivery `ub` stands for.
    ///
    /// A link that passes the cutoff is held to the floor test before its
    /// cell is read or written: `lb(v)` is 0 for `dst`, one point read
    /// ([`prop_netsim::Source::to_point`] on the view's point for `v`) when
    /// `v` and `dst` have different tags, and the exact `d` otherwise. A
    /// link that fails is skipped, and that is exact: bounds only fall, so
    /// `v` at dist `c` would fail the same test when it is popped, and the
    /// `ub` update it skips cannot matter, as `c + tail(v) ≥ c + lb(v)`. A
    /// `v` improved later at a dist no lower fails at its pop the same way.
    /// The pushed entry carries `lb(v)`, so the test when it is popped
    /// reads nothing more. The exact read of two slots of one tag (a block
    /// cell, or a meeting search) waits for a bound, as nothing is pruned
    /// before one exists: on a graph of one tag (the matrix of a Waxman
    /// graph), every floor is read so, and only once a bound exists, at the
    /// link or else at the pop. None of this moves an answer; only the
    /// ledger counts fewer improvements and pushes.
    pub fn run(
        &mut self,
        net: &OverlayNet,
        src: Slot,
        dst: Slot,
        max_hops: u32,
        relays: impl Fn(Slot) -> bool,
    ) -> Option<(u64, u32)> {
        if src == dst {
            return Some((0, 0));
        }
        if !net.graph.is_alive(dst) {
            return None;
        }
        let view = net.flood_view();
        let epoch = self.begin(view.num_slots(), max_hops);
        let to_dst = net.oracle.source(net.peer(dst));
        let cells = &mut self.cells;
        for link in view.row(dst) {
            let w = link.to;
            if relays(w) {
                self.edges_scanned += 1;
                let tail = flood_cost(net.d(w, dst), net.proc_delay(dst));
                cells[w.index()] = Cell { dist: u64::MAX, tail, stamp: epoch };
            }
        }
        let s = &mut cells[src.index()];
        if s.stamp != epoch {
            (s.tail, s.stamp) = (NO_TAIL, epoch);
        }
        s.dist = 0;
        let mut frontier = std::mem::take(&mut self.frontier);
        let mut next = std::mem::take(&mut self.next);
        frontier.clear();
        frontier.push(Entry { slot: src, floor: NO_FLOOR, dist: 0 });
        // `u64::MAX` stands for "no such bound yet" in both.
        let (mut best, mut best_hops) = (u64::MAX, 0);
        let mut ub = u64::MAX;
        for h in 1..=max_hops {
            self.tick += 1;
            let round = self.tick;
            next.clear();
            for &Entry { slot: u, floor, dist: du } in &frontier {
                if best.min(ub) != u64::MAX {
                    let floor = if floor == NO_FLOOR { to_dst.to(net.peer(u)) } else { floor };
                    let f = du + floor as u64;
                    if f >= best || f > ub {
                        continue;
                    }
                }
                if !relays(u) {
                    continue;
                }
                for &Link { to: v, cost } in view.row(u) {
                    self.edges_scanned += 1;
                    let c = du + cost as u64;
                    if c >= best || c > ub {
                        break;
                    }
                    let lb = match to_dst.to_point(view.point[v.index()]) {
                        Some(d) => d,
                        None if v == dst => 0,
                        None if best.min(ub) != u64::MAX => to_dst.to(net.peer(v)),
                        None => NO_FLOOR,
                    };
                    // With no bound yet this passes whatever `lb` is.
                    let f = c + lb as u64;
                    if f >= best || f > ub {
                        continue;
                    }
                    let cell = &mut cells[v.index()];
                    if cell.stamp < epoch {
                        *cell = Cell { dist: u64::MAX, tail: NO_TAIL, stamp: epoch };
                    }
                    if c < cell.dist {
                        cell.dist = c;
                        self.improvements += 1;
                        if cell.stamp != round {
                            cell.stamp = round;
                            next.push((v, lb));
                            self.frontier_pushes += 1;
                        }
                        if v == dst {
                            if c < best {
                                (best, best_hops) = (c, h);
                            }
                        } else if h < max_hops && cell.tail != NO_TAIL {
                            ub = ub.min(c + cell.tail as u64);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier.clear();
            frontier.extend(next.iter().map(|&(v, floor)| Entry {
                slot: v,
                floor,
                dist: cells[v.index()].dist,
            }));
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
    /// The links priced for floods at the current state: built by the
    /// first flood that needs it, shared read-only by every worker of a
    /// measurement, dropped by each `&mut` gate below.
    flood_view: OnceLock<FloodView>,
}

impl OverlayNet {
    /// Assemble an overlay. `graph` slots and `placement` slots must agree
    /// in count; every live slot must be occupied.
    pub fn new(graph: LogicalGraph, placement: Placement, oracle: Arc<LatencyOracle>) -> Self {
        assert_eq!(graph.num_slots(), placement.num_slots());
        for s in graph.live_slots() {
            assert!(placement.peer_at(s).is_some(), "live {s:?} is vacant");
        }
        OverlayNet { graph, placement, oracle, proc_delay: Vec::new(), flood_view: OnceLock::new() }
    }

    /// Attach per-peer processing delays (indexed by peer, ms). Used by the
    /// heterogeneous-environment experiments (Fig. 7).
    pub fn set_processing_delays(&mut self, delays: Vec<u32>) {
        assert_eq!(delays.len(), self.oracle.len());
        self.flood_view.take();
        self.proc_delay = delays;
    }

    #[inline]
    pub fn graph(&self) -> &LogicalGraph {
        &self.graph
    }

    /// Mutable access to the logical wiring — used by PROP-O, LTM, and churn.
    #[inline]
    pub fn graph_mut(&mut self) -> &mut LogicalGraph {
        self.flood_view.take();
        &mut self.graph
    }

    // No-op kept for one caller outside the workspace's packages:
    // `benchmark/src/probes.rs` calls it before its standalone probes.
    // The flood view is dropped by every `&mut` gate and rebuilt by the
    // next flood, so there is nothing to refresh; the next `benchmark`
    // change drops those two calls and this stub with them.
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
        self.flood_view.take();
        &mut self.placement
    }

    #[inline]
    pub fn oracle(&self) -> &LatencyOracle {
        &self.oracle
    }

    // No-op kept for one caller outside the workspace's packages:
    // `benchmark/src/scale.rs` calls it before each batch of latency reads.
    // No oracle store keeps a row, so there is nothing to warm; the next
    // `benchmark` change drops that call and this stub with it.
    #[doc(hidden)]
    pub fn warm_latency_rows(&self, _slots: &[Slot]) {}

    // Kept, like `warm_latency_rows`, for `benchmark/src/probes.rs`, which
    // runs its flood probe when this is `None` (the dense tier). No oracle
    // store keeps a row, so every counter is zero; the next `benchmark`
    // change drops this with its row counters.
    #[doc(hidden)]
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
        self.flood_view.take();
        self.placement.swap_slots(a, b);
    }

    /// Every live link priced for a flood at the net's current state.
    fn flood_view(&self) -> &FloodView {
        self.flood_view.get_or_init(|| FloodView::build(self))
    }

    /// Minimum end-to-end latency from `src` to `dst` using at most
    /// `max_hops` overlay hops — the delivery latency of a Gnutella-style
    /// flood with TTL `max_hops` (the first query copy to arrive travelled
    /// the fastest ≤TTL-hop path). Per-hop processing delay is charged at
    /// each *receiving* node, destination included.
    ///
    /// Returns `(latency, hops)` or `None` if `dst` is not reachable within
    /// the hop budget. The flood runs in caller-owned scratch: measurement
    /// sweeps run thousands of floods back to back and reuse one
    /// [`FloodScratch`] per worker (see [`FloodScratch::run`] for why its
    /// dedup and pruning leave every answer unchanged).
    ///
    /// The answer is the flood from `src`'s, but the flood may run from
    /// `dst` instead: from the end whose neighbours have the smaller summed
    /// degree, so a lookup with a hub at one end floods from the other,
    /// which reaches the hub's tails early and has its look-ahead bound
    /// almost at once. That is exact. `d` is symmetric and a hop's delay is
    /// charged to the peer that receives it, so the reversed flood has the
    /// same walks with the same hops, and every walk's cost is shifted by
    /// one constant: `cost(src → dst) = cost(dst → src) + pd(dst) − pd(src)`.
    /// The reversed cost already includes `pd(src)`, so this cannot
    /// underflow.
    pub fn min_latency_within_hops_with(
        &self,
        src: Slot,
        dst: Slot,
        max_hops: u32,
        scratch: &mut FloodScratch,
    ) -> Option<(u64, u32)> {
        self.flood_from_cheaper_end(src, dst, max_hops, scratch, |_, _| true)
    }

    /// Whether a lookup from `src` to `dst` floods from `dst`: when `src`'s
    /// neighbours have the larger summed degree (ties flood from `src`).
    fn floods_from_dst(&self, src: Slot, dst: Slot) -> bool {
        let reach = &self.flood_view().reach;
        reach[src.index()] > reach[dst.index()]
    }

    /// [`FloodScratch::run`] from whichever end [`Self::floods_from_dst`]
    /// picks, answered for the flood from `src`. `relays(s, u)` is the relay
    /// rule of a flood whose source is `s`; it must allow the same walks in
    /// both directions (a rule that lets the source relay, "the source or an
    /// ultrapeer", does: an optimal walk of fewest hops visits neither end
    /// twice).
    pub(crate) fn flood_from_cheaper_end(
        &self,
        src: Slot,
        dst: Slot,
        max_hops: u32,
        scratch: &mut FloodScratch,
        relays: impl Fn(Slot, Slot) -> bool,
    ) -> Option<(u64, u32)> {
        let reversed = self.floods_from_dst(src, dst);
        let (from, to) = if reversed { (dst, src) } else { (src, dst) };
        let (cost, hops) = scratch.run(self, from, to, max_hops, |u| relays(from, u))?;
        if reversed {
            return Some((cost + self.proc_delay(dst) as u64 - self.proc_delay(src) as u64, hops));
        }
        Some((cost, hops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnutella::{Gnutella, GnutellaParams};
    use crate::ultrapeer::{self, Ultrapeer};
    use prop_engine::SimRng;
    use prop_netsim::{generate, generate_waxman, NodeClass, TransitStubParams, WaxmanParams};

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

    /// A flood over a fresh scratch.
    fn flood(net: &OverlayNet, src: Slot, dst: Slot, ttl: u32) -> Option<(u64, u32)> {
        net.min_latency_within_hops_with(src, dst, ttl, &mut FloodScratch::new())
    }

    /// The engine `FloodScratch::run` replaced, kept as the reference it is
    /// held to ledger for ledger: the same rounds, dedup, bounds, scan
    /// cutoff and floor test at each link and each pop over the graph's
    /// own rows, but every scan prices and sorts the relay's row through
    /// `cost` (cheapest first, ties by slot, as the view orders it), every
    /// floor is `lower` read at the test, once a bound exists, and the
    /// per-slot state is five separately tagged arrays.
    #[derive(Default)]
    struct ReferenceScratch {
        tick: u64,
        dist: Vec<u64>,
        dist_tick: Vec<u64>,
        tail: Vec<u64>,
        tail_tick: Vec<u64>,
        next_tick: Vec<u64>,
        frontier: Vec<(Slot, u64)>,
        next: Vec<Slot>,
        row: Vec<(u64, Slot)>,
        edges_scanned: u64,
        improvements: u64,
        frontier_pushes: u64,
    }

    impl ReferenceScratch {
        fn ensure(&mut self, n: usize) {
            if self.dist.len() < n {
                self.dist.resize(n, 0);
                self.dist_tick.resize(n, 0);
                self.tail.resize(n, 0);
                self.tail_tick.resize(n, 0);
                self.next_tick.resize(n, 0);
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn run_reference(
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
                    self.row.clear();
                    self.row.extend(graph.neighbors(u).iter().map(|&v| (cost(u, v), v)));
                    self.row.sort_unstable();
                    for &(link, v) in &self.row {
                        self.edges_scanned += 1;
                        let c = du + link;
                        if c >= best || c > ub {
                            break;
                        }
                        if best.min(ub) != u64::MAX {
                            let floor = c + lower(v);
                            if floor >= best || floor > ub {
                                continue;
                            }
                        }
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

    /// Both engines' cumulative ledgers: scans, improvements, pushes.
    fn ledgers(new: &FloodScratch, old: &ReferenceScratch) -> [[u64; 3]; 2] {
        [
            [new.edges_scanned(), new.improvements(), new.frontier_pushes()],
            [old.edges_scanned, old.improvements, old.frontier_pushes],
        ]
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
    fn total_link_latency_counts_each_edge_once() {
        let (net, _) = small_net(5, 3);
        let by_edges: u64 = net.graph().edges().map(|(a, b)| net.d(a, b) as u64).sum();
        assert_eq!(net.total_link_latency(), by_edges);
        // Sum over per-node sums double counts:
        let per_node: u64 = net
            .graph()
            .live_slots()
            .flat_map(|s| net.graph().neighbors(s).iter().map(move |&x| (s, x)))
            .map(|(s, x)| net.d(s, x) as u64)
            .sum();
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
        let (lat, hops) = flood(&net, Slot(0), Slot(1), 7).unwrap();
        assert_eq!(hops, 1);
        assert_eq!(lat, net.d(Slot(0), Slot(1)) as u64);
    }

    #[test]
    fn flood_respects_ttl() {
        // On a 6-ring the antipode is 3 hops away.
        let (net, _) = small_net(6, 7);
        assert!(flood(&net, Slot(0), Slot(3), 2).is_none());
        assert!(flood(&net, Slot(0), Slot(3), 3).is_some());
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
        let (lat, _) = flood(&net, Slot(a as u32), Slot(c as u32), 7).unwrap();
        assert!(lat <= net.d(Slot(a as u32), Slot(c as u32)) as u64);
    }

    #[test]
    fn processing_delay_charged_per_receiving_hop() {
        let (mut net, oracle) = small_net(4, 9);
        net.set_processing_delays(vec![50; oracle.len()]);
        let (lat, hops) = flood(&net, Slot(0), Slot(2), 7).unwrap();
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
        assert_eq!(flood(&net, Slot(1), Slot(1), 7), Some((0, 0)));
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
        // pruned, and the counts depend only on the topology. It runs the
        // directed engine: a lookup would flood from the isolated end.
        let out = scratch.run(&net, Slot(0), Slot(c as u32), 7, |_| true);
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
        // one scratch per family across all of it. Mutation-checked:
        // `lower = 2·d` and `>=` on the look-ahead prune both fail here. The
        // two-tier sweep also runs the replaced engine beside the view's,
        // flood by flood, and holds their answers and ledgers equal; the
        // overlay's own lookup, which may flood from either end, keeps a
        // scratch of its own.
        let mut scratch = FloodScratch::new();
        let mut tiers = FloodScratch::new();
        let mut lookups = FloodScratch::new();
        let mut reference = ReferenceScratch::default();
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

            // The two-tier relay rule over every hop budget its TTL gives,
            // then the overlay's own flood at its TTL.
            let (up, mut net) = Ultrapeer::build(Arc::clone(&oracle), &mut rng);
            if seed % 4 >= 2 {
                net.set_processing_delays(delays.clone());
            }
            let cost = |u, v| net.d(u, v) as u64 + net.proc_delay(v) as u64;
            for a in (0..n as u32).map(Slot) {
                let relays = |u| u == a || up.is_ultrapeer(u);
                for b in (0..n as u32).map(Slot) {
                    for flood_ttl in [0u32, 1, 2, ultrapeer::FLOOD_TTL] {
                        let hops = flood_ttl + 2;
                        let want = reference_flood(net.graph(), a, b, hops, relays, cost);
                        let lower = |u| net.d(b, u) as u64;
                        let old =
                            reference.run_reference(net.graph(), a, b, hops, relays, cost, lower);
                        let got = tiers.run(&net, a, b, hops, relays);
                        assert_eq!(got, want, "seed {seed} two-tier {a:?}→{b:?} ttl {flood_ttl}");
                        assert_eq!(old, want, "seed {seed} two-tier {a:?}→{b:?} ttl {flood_ttl}");
                        let [new_ledger, old_ledger] = ledgers(&tiers, &reference);
                        assert_eq!(new_ledger, old_ledger, "seed {seed} ledger ttl {flood_ttl}");
                        if flood_ttl == ultrapeer::FLOOD_TTL {
                            let got = up.flood_latency_with(&net, a, b, &mut lookups);
                            assert_eq!(got, want, "seed {seed} two-tier {a:?}→{b:?}");
                        }
                        triples += 1;
                    }
                }
            }
        }
        assert!(triples >= 400_000, "only {triples} triples compared");
    }

    #[test]
    fn flood_view_follows_every_mutation_gate() {
        // One net and one scratch throughout. Between floods the net is
        // mutated through each `&mut` gate in turn; after each mutation
        // every ordered pair at every TTL must answer as the textbook twin
        // does on the net as it now is, and some answer must have moved,
        // so a view that outlived the mutation would be caught.
        let mut rng = SimRng::seed_from(21);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let n = 24;
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
        let (_, mut net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        let mut delays = || (0..n).map(|_| rng.range(0..80u32)).collect::<Vec<_>>();
        net.set_processing_delays(delays());
        let later_delays = delays();
        let mut scratch = FloodScratch::new();
        let mut answers = |net: &OverlayNet, after: &str| {
            // The scan cutoff is exact only over rows sorted cheapest first.
            let view = net.flood_view();
            for u in (0..n as u32).map(Slot) {
                let row: Vec<_> = view.row(u).iter().map(|l| (l.cost, l.to)).collect();
                assert!(row.windows(2).all(|w| w[0] < w[1]), "after {after}: {u:?} unsorted");
            }
            let cost = |u, v| net.d(u, v) as u64 + net.proc_delay(v) as u64;
            let mut all = Vec::new();
            for ttl in [1u32, 2, 3, 7] {
                for a in (0..n as u32).map(Slot) {
                    for b in (0..n as u32).map(Slot) {
                        let want = reference_flood(net.graph(), a, b, ttl, |_| true, cost);
                        let got = net.min_latency_within_hops_with(a, b, ttl, &mut scratch);
                        assert_eq!(got, want, "after {after}: {a:?}→{b:?} ttl {ttl}");
                        all.push(got);
                    }
                }
            }
            all
        };
        let mut last = answers(&net, "build");
        let mut step = |net: &OverlayNet, after: &str| {
            let now = answers(net, after);
            assert_ne!(now, last, "{after} moved no answer");
            last = now;
        };

        let far = (1..n as u32).map(Slot).find(|&b| !net.graph().has_edge(Slot(0), b)).unwrap();
        net.graph_mut().add_edge(Slot(0), far);
        step(&net, "add_edge");
        let (c, d) = (Slot(5), net.graph().neighbors(Slot(5))[0]);
        net.graph_mut().remove_edge(c, d);
        step(&net, "remove_edge");
        let gone = Slot(9);
        net.graph_mut().remove_slot(gone);
        let freed = net.placement_mut().vacate(gone);
        step(&net, "remove_slot + vacate");
        let moved = Slot(13);
        net.placement_mut().vacate(moved);
        net.placement_mut().occupy(moved, freed);
        step(&net, "re-occupy");
        net.swap_peers(Slot(2), Slot(17));
        step(&net, "swap_peers");
        net.set_processing_delays(later_delays);
        step(&net, "set_processing_delays");
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
        let (up, mut tiers) = Ultrapeer::build(oracle, &mut rng);
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
        // alone 2,589 / 904, both bounds 1,674 / 703, both bounds with each
        // relay's sorted scan stopped at them 1,167 / 511, and with the
        // floor also tested at each link before it is pushed 1,165 / 218
        // (PROP-optimised overlays prune harder: ≈ 0.7k / 0.14k in the
        // benchmark's probe). A change that silently disables a bound, the
        // cutoff or the link's floor test fails these counts. The replaced
        // engine runs every flood beside the directed engine, and the two
        // answers and ledgers must agree flood by flood.
        //
        // The public lookup floods each pair from its cheaper end: it must
        // answer as the reference does, and it scans 917.7 edges and pushes
        // 172.6 slots per lookup, which a lookup flooded from its source
        // would exceed.
        let mut rng = SimRng::seed_from(1);
        let phys = generate(&TransitStubParams::ts_large(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 1000, &mut rng));
        let (gn, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
        let mut scratch = FloodScratch::new();
        let mut lookups = FloodScratch::new();
        let mut reference = ReferenceScratch::default();
        let cost = |u, v| net.d(u, v) as u64 + net.proc_delay(v) as u64;
        let floods = 256u64;
        let ttl = gn.params.flood_ttl;
        for _ in 0..floods {
            let (a, b) = (Slot(rng.range(0..1000u32)), Slot(rng.range(0..1000u32)));
            let out = scratch.run(&net, a, b, ttl, |_| true);
            assert!(out.is_some(), "{a:?}→{b:?} undelivered at TTL 7");
            let lower = |u| net.d(b, u) as u64;
            let old = reference.run_reference(net.graph(), a, b, ttl, |_| true, cost, lower);
            assert_eq!(out, old, "{a:?}→{b:?}");
            let [new_ledger, old_ledger] = ledgers(&scratch, &reference);
            assert_eq!(new_ledger, old_ledger, "{a:?}→{b:?}");
            let lookup = net.min_latency_within_hops_with(a, b, ttl, &mut lookups);
            assert_eq!(lookup, old, "lookup {a:?}→{b:?}");
        }
        let edges = scratch.edges_scanned() / floods;
        let pushes = scratch.frontier_pushes() / floods;
        assert!(edges <= 1_200, "{edges} edges scanned per flood");
        assert!(pushes <= 225, "{pushes} frontier pushes per flood");
        let edges = lookups.edges_scanned() / floods;
        let pushes = lookups.frontier_pushes() / floods;
        assert!(edges <= 920, "{edges} edges scanned per lookup");
        assert!(pushes <= 175, "{pushes} frontier pushes per lookup");
    }

    #[test]
    fn a_lookup_from_either_end_answers_as_the_forward_flood() {
        // The public lookups flood from the end whose neighbours have the
        // smaller summed degree and shift a reversed answer back by
        // `pd(dst) − pd(src)`. Every ordered pair × TTL on Gnutella nets
        // over ts-large, `tiny` and Waxman graphs, placements shuffled, each
        // with and without processing delays, and on two-tier overlays at
        // every hop budget: the lookup's `(cost, hops)` must be the directed
        // engine's forward answer, and the rule must pick each end.
        let mut forward = FloodScratch::new();
        let mut lookups = FloodScratch::new();
        let mut picked = [0u64; 2];
        let nets =
            [("ts_large", 0u64, 200usize), ("tiny", 1, 40), ("tiny", 2, 40), ("waxman", 3, 30)];
        for (name, seed, n) in nets {
            let mut rng = SimRng::seed_from(seed);
            let phys = match name {
                "ts_large" => generate(&TransitStubParams::ts_large(), &mut rng),
                "tiny" => generate(&TransitStubParams::tiny(), &mut rng),
                _ => generate_waxman(&WaxmanParams::tiny(), &mut rng),
            };
            let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
            let delays: Vec<u32> = (0..n).map(|_| rng.range(0..80u32)).collect();
            let (_, mut net) =
                Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);
            for _ in 0..n {
                net.swap_peers(Slot(rng.range(0..n as u32)), Slot(rng.range(0..n as u32)));
            }
            for hetero in [false, true] {
                if hetero {
                    net.set_processing_delays(delays.clone());
                }
                for ttl in [1u32, 2, 3, 7] {
                    for a in (0..n as u32).map(Slot) {
                        for b in (0..n as u32).map(Slot) {
                            let want = forward.run(&net, a, b, ttl, |_| true);
                            let got = net.min_latency_within_hops_with(a, b, ttl, &mut lookups);
                            assert_eq!(got, want, "{name} hetero {hetero} {a:?}→{b:?} ttl {ttl}");
                            picked[usize::from(net.floods_from_dst(a, b))] += 1;
                        }
                    }
                }
            }

            // The two-tier relay rule, "the source or an ultrapeer", at
            // every hop budget its TTL gives, then the overlay's own lookup.
            let (up, mut net) = Ultrapeer::build(Arc::clone(&oracle), &mut rng);
            let relays_from = |s: Slot, u: Slot| u == s || up.is_ultrapeer(u);
            for hetero in [false, true] {
                if hetero {
                    net.set_processing_delays(delays.clone());
                }
                for a in (0..n as u32).map(Slot) {
                    for b in (0..n as u32).map(Slot) {
                        for flood_ttl in [0u32, 1, 2, ultrapeer::FLOOD_TTL] {
                            let hops = flood_ttl + 2;
                            let want = forward.run(&net, a, b, hops, |u| relays_from(a, u));
                            let got =
                                net.flood_from_cheaper_end(a, b, hops, &mut lookups, relays_from);
                            assert_eq!(got, want, "{name} two-tier {a:?}→{b:?} ttl {flood_ttl}");
                            if flood_ttl == ultrapeer::FLOOD_TTL {
                                let got = up.flood_latency_with(&net, a, b, &mut lookups);
                                assert_eq!(got, want, "{name} two-tier lookup {a:?}→{b:?}");
                            }
                        }
                        picked[usize::from(net.floods_from_dst(a, b))] += 1;
                    }
                }
            }
        }
        let [from_src, from_dst] = picked;
        assert!(from_src > 0 && from_dst > 0, "{from_src} from the source, {from_dst} from dst");
    }

    #[test]
    fn frontier_dedup_admits_each_slot_once_per_round() {
        // Diamond src—{a,b}—v: in round 2 both a and b may improve v; the
        // deduped frontier must admit v once either way, so total pushes are
        // exactly 3 (a, b, v) for every seed. The target is a fifth, isolated
        // slot, so no bound ever exists and nothing but the dedup limits the
        // pushes.
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from(seed);
            let phys = generate(&TransitStubParams::tiny(), &mut rng);
            let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 5, &mut rng));
            let mut g = LogicalGraph::new(5);
            g.add_edge(Slot(0), Slot(1));
            g.add_edge(Slot(0), Slot(2));
            g.add_edge(Slot(1), Slot(3));
            g.add_edge(Slot(2), Slot(3));
            let net = OverlayNet::new(g, Placement::identity(5), oracle);
            let mut scratch = FloodScratch::new();
            let out = scratch.run(&net, Slot(0), Slot(4), 7, |_| true);
            assert_eq!(out, None);
            assert_eq!(scratch.frontier_pushes(), 3, "seed {seed}: duplicate frontier entry");
        }
    }

    #[test]
    fn a_hub_stops_scanning_at_the_bound() {
        // A star: the hub (slot 0) links to every other slot, and each leaf
        // links only back to it. The target is the leaf at the middle of
        // the hub's sorted row.
        //
        // From the hub: round 1 scans the target's one link for its
        // last-hop cost, then the hub's row cheapest first up to the
        // target, whose delivery is the bound, then one link more: that
        // link costs at least the bound and stops the scan (a scan that
        // ignored the bound would read the whole row, n − 1 links). No
        // bound exists before the target is reached, so every leaf before
        // it is pushed. Round 2 relays nobody, since every leaf's floor is
        // at least the bound (triangle inequality).
        //
        // From the cheapest leaf: round 1 pushes the hub, whose delivery
        // through the target is the look-ahead bound. Round 2 scans the
        // hub's row the same way, but now under that bound, so a leaf
        // before the target is pushed only when it lies on a shortest path
        // from the hub to the target; a flood that held its floor test to
        // the pop would push every one.
        //
        // Both halves run the directed engine, whose work from a given end
        // is what they pin.
        let n = 24usize;
        let mut floor_pruned = 0;
        for seed in 0..10u64 {
            let mut rng = SimRng::seed_from(seed);
            let phys = generate(&TransitStubParams::tiny(), &mut rng);
            let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
            let mut g = LogicalGraph::new(n);
            for v in 1..n as u32 {
                g.add_edge(Slot(0), Slot(v));
            }
            let net = OverlayNet::new(g, Placement::identity(n), oracle);
            let d = |a: Slot, b: Slot| net.d(a, b) as u64;
            let mut row: Vec<_> = (1..n as u32).map(|v| (d(Slot(0), Slot(v)), Slot(v))).collect();
            row.sort_unstable();
            let rank = row.len() / 2;
            let (cost, dst) = row[rank];
            let ledger =
                |s: &FloodScratch| [s.edges_scanned(), s.improvements(), s.frontier_pushes()];

            let mut scratch = FloodScratch::new();
            let out = scratch.run(&net, Slot(0), dst, 7, |_| true);
            assert_eq!(out, Some((cost, 1)), "seed {seed}");
            let r = rank as u64;
            assert_eq!(ledger(&scratch), [1 + (r + 1) + 1, r + 1, r + 1], "seed {seed} from hub");

            let src = row[0].1;
            let on_path =
                row[1..rank].iter().filter(|&&(to_v, v)| to_v + d(v, dst) <= cost).count() as u64;
            let mut scratch = FloodScratch::new();
            let out = scratch.run(&net, src, dst, 7, |_| true);
            assert_eq!(out, Some((d(src, Slot(0)) + cost, 2)), "seed {seed}");
            let pushes = 2 + on_path;
            assert_eq!(
                ledger(&scratch),
                [1 + 1 + (r + 1) + 1, pushes, pushes],
                "seed {seed} from a leaf"
            );
            floor_pruned += (r - 1) - on_path;
        }
        assert!(floor_pruned > 0, "no leaf was kept off the frontier by its floor");
    }

    #[test]
    fn the_views_point_floor_is_the_distance_across_tags() {
        // The floor a flood reads for `v` toward `dst` is the point read of
        // `v`'s point in the view from a source at `dst`'s peer. On every
        // ordered pair of a shuffled placement it must be `d(v, dst)` when
        // it answers, and it must leave over only two peers of one stub
        // domain (members are stub hosts, so a tag is a stub domain).
        for (name, params, n) in [
            ("tiny", TransitStubParams::tiny(), 40),
            ("ts_large", TransitStubParams::ts_large(), 1000),
            ("ts_small", TransitStubParams::ts_small(), 600),
            ("scaled(3000)", TransitStubParams::scaled(3000), 3000),
        ] {
            let mut rng = SimRng::seed_from(5);
            let phys = generate(&params, &mut rng);
            let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
            let (_, mut net) =
                Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);
            for _ in 0..n {
                net.swap_peers(Slot(rng.range(0..n as u32)), Slot(rng.range(0..n as u32)));
            }
            let domain = |s: Slot| match phys.class(oracle.host(net.peer(s))) {
                NodeClass::Stub { domain, .. } => domain,
                NodeClass::Transit { .. } => panic!("{name}: a transit member"),
            };
            let view = net.flood_view();
            let (mut answered, mut left) = (0u64, 0u64);
            for dst in (0..n as u32).map(Slot) {
                let to_dst = oracle.source(net.peer(dst));
                for v in (0..n as u32).map(Slot) {
                    match to_dst.to_point(view.point[v.index()]) {
                        Some(floor) => {
                            assert_eq!(floor, net.d(v, dst), "{name}: {v:?} → {dst:?}");
                            answered += 1;
                        }
                        None => {
                            assert_eq!(domain(v), domain(dst), "{name}: {v:?} → {dst:?}");
                            left += 1;
                        }
                    }
                }
            }
            assert!(answered > 0 && left >= n as u64, "{name}: {answered} answered, {left} left");
        }
    }

    #[test]
    fn a_waxman_flood_matches_textbook_twin() {
        // A Waxman graph has no decomposition: every member has one tag, so
        // no floor is a point read, and every one is read exactly once a
        // bound exists. Every ordered pair × TTL against the textbook twin,
        // half the nets heterogeneous, and the replaced engine's answers
        // and ledgers beside the view's, flood by flood; the public lookup,
        // which may flood from either end, answers the same in a scratch of
        // its own.
        let mut scratch = FloodScratch::new();
        let mut lookups = FloodScratch::new();
        let mut reference = ReferenceScratch::default();
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from(seed);
            let phys = generate_waxman(&WaxmanParams::tiny(), &mut rng);
            let n = rng.range(12..=30usize);
            let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
            let (_, mut net) =
                Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);
            if seed % 2 == 1 {
                net.set_processing_delays((0..n).map(|_| rng.range(0..80u32)).collect());
            }
            let view = net.flood_view();
            let from = oracle.source(0);
            assert!(view.point.iter().all(|&p| from.to_point(p).is_none()), "seed {seed}");
            let cost = |u, v| net.d(u, v) as u64 + net.proc_delay(v) as u64;
            for ttl in [1u32, 2, 3, 7] {
                for a in (0..n as u32).map(Slot) {
                    for b in (0..n as u32).map(Slot) {
                        let want = reference_flood(net.graph(), a, b, ttl, |_| true, cost);
                        let got = scratch.run(&net, a, b, ttl, |_| true);
                        let lookup = net.min_latency_within_hops_with(a, b, ttl, &mut lookups);
                        assert_eq!(lookup, want, "seed {seed} lookup {a:?}→{b:?} ttl {ttl}");
                        let lower = |u| net.d(b, u) as u64;
                        let old =
                            reference.run_reference(net.graph(), a, b, ttl, |_| true, cost, lower);
                        assert_eq!(got, want, "seed {seed} {a:?}→{b:?} ttl {ttl}");
                        assert_eq!(old, want, "seed {seed} {a:?}→{b:?} ttl {ttl}");
                        let [new_ledger, old_ledger] = ledgers(&scratch, &reference);
                        assert_eq!(new_ledger, old_ledger, "seed {seed} ledger ttl {ttl}");
                    }
                }
            }
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
                    let fresh = flood(&net, Slot(a), Slot(b), ttl);
                    let reused =
                        net.min_latency_within_hops_with(Slot(a), Slot(b), ttl, &mut scratch);
                    assert_eq!(fresh, reused, "{a}→{b} ttl {ttl}");
                }
            }
        }
    }

    #[test]
    fn stamps_restart_before_they_wrap() {
        // A scratch whose clock is a few floods from `u32::MAX` must clear
        // its cells and restart rather than let a wrapped stamp pass for
        // the current flood's.
        let (net, _) = small_net(12, 17);
        let mut scratch = FloodScratch::new();
        for a in 0..12u32 {
            for b in 0..12u32 {
                let _ = net.min_latency_within_hops_with(Slot(a), Slot(b), 7, &mut scratch);
            }
        }
        scratch.tick = u32::MAX - 20;
        for a in 0..12u32 {
            for b in 0..12u32 {
                let reused = net.min_latency_within_hops_with(Slot(a), Slot(b), 7, &mut scratch);
                assert_eq!(reused, flood(&net, Slot(a), Slot(b), 7), "{a}→{b}");
            }
        }
        assert!(scratch.tick < 1_000, "the clock never restarted");
    }

    #[test]
    fn scratch_grows_across_net_sizes() {
        // A scratch sized by a small net must serve a larger net next call.
        let (small, _) = small_net(4, 14);
        let (large, _) = small_net(16, 15);
        let mut scratch = FloodScratch::new();
        let s = small.min_latency_within_hops_with(Slot(0), Slot(2), 7, &mut scratch);
        assert_eq!(s, flood(&small, Slot(0), Slot(2), 7));
        let l = large.min_latency_within_hops_with(Slot(0), Slot(9), 7, &mut scratch);
        assert_eq!(l, flood(&large, Slot(0), Slot(9), 7));
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
