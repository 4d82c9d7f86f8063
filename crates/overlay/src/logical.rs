//! The overlay's logical wiring.
//!
//! An undirected multigraph-free adjacency over [`Slot`]s, supporting the
//! operations the protocols need:
//!
//! * PROP-O and LTM **rewire** edges (degree-preserving exchange / cut-add);
//! * churn **removes** and **adds** slots;
//! * connectivity checks back the Theorem 1 property tests.
//!
//! Neighbor lists are kept sorted so `has_edge` is a binary search and
//! iteration order is deterministic.

use std::fmt;

/// A logical position in the overlay. Slots are dense indices; a slot is
/// *alive* while some peer occupies it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot(pub u32);

impl Slot {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Fenwick (binary indexed) tree over the alive bits, giving O(log n)
/// rank (`prefix`) and select-by-rank over the live-slot set. This is what
/// lets the drivers' `ProbeMode::Random` draw a uniform live counterpart
/// without materializing `live_slots().collect()` on every trial.
#[derive(Clone, Debug, Default)]
struct LiveIndex {
    /// 1-indexed Fenwick array; `tree[i-1]` covers `(i - lowbit(i), i]`.
    tree: Vec<usize>,
}

impl LiveIndex {
    /// Index over `n` slots, all alive. O(n): for an all-ones array every
    /// Fenwick node's partial sum is exactly the width of its range.
    fn with_ones(n: usize) -> Self {
        let mut tree = vec![0usize; n];
        for (j, v) in tree.iter_mut().enumerate() {
            let i = j + 1;
            *v = i & i.wrapping_neg();
        }
        LiveIndex { tree }
    }

    /// Append one more slot with the given alive bit.
    fn append(&mut self, alive: bool) {
        let i = self.tree.len() + 1;
        let low = i & i.wrapping_neg();
        // The new node covers (i-low, i]; seed it with the ones already in
        // (i-low, i-1] plus the appended bit.
        let below = self.prefix(i - 1) - self.prefix(i - low);
        self.tree.push(below + alive as usize);
    }

    /// Flip the bit at 0-based `idx` by `delta` (+1 revive, -1 kill).
    fn add(&mut self, idx: usize, delta: isize) {
        let mut i = idx + 1;
        while i <= self.tree.len() {
            let v = &mut self.tree[i - 1];
            *v = (*v as isize + delta) as usize;
            i += i & i.wrapping_neg();
        }
    }

    /// Ones among the first `count` slots (0-based exclusive prefix).
    fn prefix(&self, count: usize) -> usize {
        let mut i = count;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i - 1];
            i &= i - 1;
        }
        sum
    }

    /// 0-based index of the `(k+1)`-th one, `None` if there are ≤ k ones.
    /// Binary-lifting descent: find the largest `pos` with
    /// `prefix(pos) < k+1`; the answer is then `pos` itself (0-based).
    fn select(&self, k: usize) -> Option<usize> {
        let n = self.tree.len();
        if n == 0 {
            return None;
        }
        let mut rem = k + 1;
        let mut pos = 0usize;
        let mut step = 1usize << (usize::BITS - 1 - n.leading_zeros());
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next - 1] < rem {
                rem -= self.tree[next - 1];
                pos = next;
            }
            step >>= 1;
        }
        (pos < n).then_some(pos)
    }
}

/// Undirected adjacency over slots.
#[derive(Clone, Debug, Default)]
pub struct LogicalGraph {
    adj: Vec<Vec<Slot>>,
    alive: Vec<bool>,
    num_edges: usize,
    /// Live-slot counter, maintained by `add_slot`/`remove_slot` so
    /// `num_live` is O(1) (churn recomputes δ(G) on every event).
    num_live: usize,
    /// Degree histogram over **live** slots: `deg_count[d]` = live slots of
    /// degree `d` (trailing zeros allowed). Maintained by every mutator so
    /// δ(G) is O(1) instead of a full rescan per churn event.
    deg_count: Vec<usize>,
    /// Smallest `d` with `deg_count[d] > 0`; meaningful only while
    /// `num_live > 0`. Decreases are set directly; increases advance by a
    /// forward scan, amortized O(1) per mutation.
    min_deg: usize,
    /// Rank/select structure over the alive bits.
    live_index: LiveIndex,
}

impl LogicalGraph {
    /// Graph with `n` live, isolated slots.
    pub fn new(n: usize) -> Self {
        LogicalGraph {
            adj: vec![Vec::new(); n],
            alive: vec![true; n],
            num_edges: 0,
            num_live: n,
            deg_count: if n > 0 { vec![n] } else { Vec::new() },
            min_deg: 0,
            live_index: LiveIndex::with_ones(n),
        }
    }

    /// Move one live slot from degree `from` to degree `to` in the
    /// histogram, keeping the cached minimum exact.
    fn shift_degree(&mut self, from: usize, to: usize) {
        self.deg_count[from] -= 1;
        if self.deg_count.len() <= to {
            self.deg_count.resize(to + 1, 0);
        }
        self.deg_count[to] += 1;
        if to < self.min_deg {
            self.min_deg = to;
        }
        self.fix_min_degree();
    }

    /// Advance the cached minimum past emptied histogram cells.
    fn fix_min_degree(&mut self) {
        if self.num_live == 0 {
            self.min_deg = 0;
            return;
        }
        while self.deg_count[self.min_deg] == 0 {
            self.min_deg += 1;
        }
    }

    /// Total slots ever allocated (live or not).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.adj.len()
    }

    /// Currently live slots. O(1): the counter is maintained by the
    /// mutators, not recomputed by scanning `alive`.
    #[inline]
    pub fn num_live(&self) -> usize {
        self.num_live
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    pub fn is_alive(&self, s: Slot) -> bool {
        self.alive[s.index()]
    }

    /// Allocate a fresh live slot.
    pub fn add_slot(&mut self) -> Slot {
        let s = Slot(self.adj.len() as u32);
        self.adj.push(Vec::new());
        self.alive.push(true);
        self.num_live += 1;
        self.live_index.append(true);
        if self.deg_count.is_empty() {
            self.deg_count.push(0);
        }
        self.deg_count[0] += 1;
        self.min_deg = 0;
        s
    }

    /// Neighbors of `s`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, s: Slot) -> &[Slot] {
        &self.adj[s.index()]
    }

    #[inline]
    pub fn degree(&self, s: Slot) -> usize {
        self.adj[s.index()].len()
    }

    /// Minimum degree over live slots — the paper's δ(G), the default PROP-O
    /// exchange size `m`. `None` when there are no live slots. O(1): reads
    /// the histogram-backed cache instead of rescanning every live slot,
    /// which `refresh_m_default` does once per churn event in both drivers.
    pub fn min_degree(&self) -> Option<usize> {
        (self.num_live > 0).then_some(self.min_deg)
    }

    /// `s`'s rank in `live_slots()` iteration order: the number of live
    /// slots with a smaller index. O(log n).
    #[inline]
    pub fn live_rank(&self, s: Slot) -> usize {
        self.live_index.prefix(s.index())
    }

    /// The live slot at rank `k` of `live_slots()` order (ascending index),
    /// `None` when `k >= num_live()`. O(log n) select-by-rank — together
    /// with [`LogicalGraph::live_rank`] this replaces the per-trial
    /// `live_slots().collect()` in the drivers' `ProbeMode::Random`.
    #[inline]
    pub fn live_slot_at_rank(&self, k: usize) -> Option<Slot> {
        self.live_index.select(k).map(|i| Slot(i as u32))
    }

    /// Mean degree over live slots — the paper's `c` in the overhead model.
    pub fn mean_degree(&self) -> f64 {
        let live = self.num_live();
        if live == 0 {
            return f64::NAN;
        }
        2.0 * self.num_edges as f64 / live as f64
    }

    #[inline]
    pub fn has_edge(&self, a: Slot, b: Slot) -> bool {
        self.adj[a.index()].binary_search(&b).is_ok()
    }

    /// Add edge `a–b`. Panics on self-loops, dead endpoints, or duplicates —
    /// all indicate protocol bugs, and the property tests rely on this.
    pub fn add_edge(&mut self, a: Slot, b: Slot) {
        assert_ne!(a, b, "self-loop at {a:?}");
        assert!(self.is_alive(a) && self.is_alive(b), "edge touching dead slot");
        let Err(pos_a) = self.adj[a.index()].binary_search(&b) else {
            panic!("duplicate edge {a:?}–{b:?}")
        };
        self.adj[a.index()].insert(pos_a, b);
        let pos_b = self.adj[b.index()].binary_search(&a).unwrap_err();
        self.adj[b.index()].insert(pos_b, a);
        self.num_edges += 1;
        let (da, db) = (self.adj[a.index()].len(), self.adj[b.index()].len());
        self.shift_degree(da - 1, da);
        self.shift_degree(db - 1, db);
    }

    /// Remove edge `a–b`. Panics if absent.
    pub fn remove_edge(&mut self, a: Slot, b: Slot) {
        let pos_a = self.adj[a.index()]
            .binary_search(&b)
            .unwrap_or_else(|_| panic!("removing missing edge {a:?}–{b:?}"));
        self.adj[a.index()].remove(pos_a);
        let pos_b = self.adj[b.index()].binary_search(&a).expect("asymmetric adjacency");
        self.adj[b.index()].remove(pos_b);
        self.num_edges -= 1;
        let (da, db) = (self.adj[a.index()].len(), self.adj[b.index()].len());
        self.shift_degree(da + 1, da);
        self.shift_degree(db + 1, db);
    }

    /// Kill slot `s`: drop all its edges and mark it dead. Returns its former
    /// neighbors (the churn handler re-wires them).
    pub fn remove_slot(&mut self, s: Slot) -> Vec<Slot> {
        assert!(self.is_alive(s));
        let neighbors = std::mem::take(&mut self.adj[s.index()]);
        for &n in &neighbors {
            let pos = self.adj[n.index()].binary_search(&s).expect("asymmetric adjacency");
            self.adj[n.index()].remove(pos);
            let dn = self.adj[n.index()].len();
            self.shift_degree(dn + 1, dn);
        }
        self.num_edges -= neighbors.len();
        self.alive[s.index()] = false;
        self.num_live -= 1;
        self.live_index.add(s.index(), -1);
        // `s` exits the live population at its pre-removal degree: its cell
        // was left untouched by the neighbor shifts above.
        self.deg_count[neighbors.len()] -= 1;
        self.fix_min_degree();
        neighbors
    }

    /// Iterator over live slots.
    pub fn live_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.alive.iter().enumerate().filter_map(|(i, &a)| a.then_some(Slot(i as u32)))
    }

    /// All undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (Slot, Slot)> + '_ {
        self.live_slots().flat_map(move |a| {
            self.neighbors(a).iter().copied().filter(move |&b| a < b).map(move |b| (a, b))
        })
    }

    /// Is the live subgraph connected? (Vacuously true when < 2 live slots.)
    pub fn is_connected(&self) -> bool {
        let mut live = self.live_slots();
        let Some(start) = live.next() else { return true };
        let total = self.num_live();
        let mut seen = vec![false; self.num_slots()];
        seen[start.index()] = true;
        let mut stack = vec![start];
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == total
    }

    /// Sorted degree sequence of live slots — the invariant PROP-O preserves.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut d: Vec<usize> = self.live_slots().map(|s| self.degree(s)).collect();
        d.sort_unstable();
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engine::SimRng;

    fn path(n: u32) -> LogicalGraph {
        let mut g = LogicalGraph::new(n as usize);
        for i in 1..n {
            g.add_edge(Slot(i - 1), Slot(i));
        }
        g
    }

    #[test]
    fn edges_are_symmetric_and_sorted() {
        let mut g = LogicalGraph::new(4);
        g.add_edge(Slot(2), Slot(0));
        g.add_edge(Slot(2), Slot(3));
        g.add_edge(Slot(2), Slot(1));
        assert_eq!(g.neighbors(Slot(2)), &[Slot(0), Slot(1), Slot(3)]);
        assert!(g.has_edge(Slot(0), Slot(2)));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn remove_edge_updates_both_sides() {
        let mut g = path(3);
        g.remove_edge(Slot(1), Slot(0));
        assert!(!g.has_edge(Slot(0), Slot(1)));
        assert_eq!(g.degree(Slot(0)), 0);
        assert_eq!(g.degree(Slot(1)), 1);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn connectivity() {
        let g = path(5);
        assert!(g.is_connected());
        let mut g2 = g.clone();
        g2.remove_edge(Slot(2), Slot(3));
        assert!(!g2.is_connected());
    }

    #[test]
    fn remove_slot_detaches_and_reports_neighbors() {
        let mut g = path(4);
        let ns = g.remove_slot(Slot(1));
        assert_eq!(ns, vec![Slot(0), Slot(2)]);
        assert!(!g.is_alive(Slot(1)));
        assert_eq!(g.num_live(), 3);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(Slot(0)), 0);
    }

    #[test]
    fn connectivity_ignores_dead_slots() {
        let mut g = path(4);
        g.remove_slot(Slot(3)); // path 0-1-2 remains, dead isolated 3
        assert!(g.is_connected());
    }

    #[test]
    fn min_and_mean_degree() {
        let g = path(4);
        assert_eq!(g.min_degree(), Some(1));
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn degree_sequence_sorted() {
        let mut g = path(4);
        g.add_edge(Slot(0), Slot(2));
        assert_eq!(g.degree_sequence(), vec![1, 2, 2, 3]);
    }

    #[test]
    fn add_slot_grows_graph() {
        let mut g = path(2);
        let s = g.add_slot();
        assert_eq!(s, Slot(2));
        assert!(!g.is_connected());
        g.add_edge(s, Slot(0));
        assert!(g.is_connected());
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let mut g = path(3);
        g.add_edge(Slot(0), Slot(2));
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), g.num_edges());
        assert_eq!(es, vec![(Slot(0), Slot(1)), (Slot(0), Slot(2)), (Slot(1), Slot(2))]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_panics() {
        let mut g = LogicalGraph::new(2);
        g.add_edge(Slot(0), Slot(1));
        g.add_edge(Slot(1), Slot(0));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = LogicalGraph::new(1);
        g.add_edge(Slot(0), Slot(0));
    }

    #[test]
    #[should_panic(expected = "missing edge")]
    fn removing_missing_edge_panics() {
        let mut g = LogicalGraph::new(2);
        g.remove_edge(Slot(0), Slot(1));
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = LogicalGraph::new(0);
        assert!(g.is_connected());
        assert_eq!(g.min_degree(), None);
        assert!(g.mean_degree().is_nan());
    }

    #[test]
    fn live_counter_tracks_churn() {
        let mut g = path(5);
        assert_eq!(g.num_live(), 5);
        g.remove_slot(Slot(2));
        assert_eq!(g.num_live(), 4);
        g.add_slot();
        assert_eq!(g.num_live(), 5);
        // The counter must agree with the scan it replaced.
        assert_eq!(g.num_live(), g.live_slots().count());
    }

    /// The O(1) cached δ(G) must agree with the scan it replaced after
    /// every kind of mutation, including the ones that empty or extend the
    /// histogram.
    #[test]
    fn min_degree_cache_matches_scan_through_mutations() {
        let scan_min = |g: &LogicalGraph| g.live_slots().map(|s| g.degree(s)).min();
        let mut g = LogicalGraph::new(6);
        assert_eq!(g.min_degree(), scan_min(&g));
        for i in 1..6 {
            g.add_edge(Slot(i - 1), Slot(i));
            assert_eq!(g.min_degree(), scan_min(&g), "after edge {i}");
        }
        g.add_edge(Slot(0), Slot(5)); // close the ring: min rises to 2
        assert_eq!(g.min_degree(), Some(2));
        assert_eq!(g.min_degree(), scan_min(&g));
        g.remove_edge(Slot(2), Slot(3)); // min drops back to 1
        assert_eq!(g.min_degree(), Some(1));
        g.remove_slot(Slot(2)); // unique min-holder leaves
        assert_eq!(g.min_degree(), scan_min(&g));
        let s = g.add_slot(); // fresh isolated slot: min is 0
        assert_eq!(g.min_degree(), Some(0));
        g.add_edge(s, Slot(0));
        assert_eq!(g.min_degree(), scan_min(&g));
        loop {
            let Some(v) = g.live_slots().next() else { break };
            g.remove_slot(v);
            assert_eq!(g.min_degree(), scan_min(&g), "during teardown");
        }
        assert_eq!(g.min_degree(), None);
    }

    /// Rank/select over the alive set matches `live_slots()` order exactly,
    /// across kills and appended slots.
    #[test]
    fn live_rank_select_matches_iteration_order() {
        let mut g = LogicalGraph::new(9);
        g.remove_slot(Slot(3));
        g.remove_slot(Slot(0));
        g.remove_slot(Slot(7));
        let s = g.add_slot();
        assert_eq!(s, Slot(9));
        let live: Vec<Slot> = g.live_slots().collect();
        assert_eq!(live.len(), g.num_live());
        for (k, &slot) in live.iter().enumerate() {
            assert_eq!(g.live_rank(slot), k, "rank of {slot:?}");
            assert_eq!(g.live_slot_at_rank(k), Some(slot), "select {k}");
        }
        assert_eq!(g.live_slot_at_rank(live.len()), None);
        // Rank of a dead slot counts live predecessors, same as the scan.
        assert_eq!(g.live_rank(Slot(3)), 2);
    }

    /// Every cache the graph maintains beside its rows — edge and live
    /// counters, the δ(G) histogram, Fenwick rank/select — recounted from
    /// the rows after each step of a seeded storm over all four mutators.
    /// Slots are only ever appended, so the slot count crosses 16, 32, 64
    /// and 128 with dead slots below it: `LiveIndex::append` after kills,
    /// which no scripted test above reaches.
    #[test]
    fn seeded_mutation_storm_recounts_every_cache() {
        fn audit(g: &LogicalGraph, step: usize) {
            let live: Vec<Slot> = g.live_slots().collect();
            assert_eq!(g.num_live(), live.len(), "step {step}: live counter");
            assert_eq!(g.num_edges(), g.edges().count(), "step {step}: edge counter");
            let scan_min = live.iter().map(|&s| g.degree(s)).min();
            assert_eq!(g.min_degree(), scan_min, "step {step}: δ(G)");
            for (k, &s) in live.iter().enumerate() {
                assert_eq!(g.live_rank(s), k, "step {step}: rank of {s:?}");
                assert_eq!(g.live_slot_at_rank(k), Some(s), "step {step}: select {k}");
            }
            assert_eq!(g.live_slot_at_rank(live.len()), None, "step {step}: select past end");
            for i in 0..g.num_slots() {
                let s = Slot(i as u32);
                let row = g.neighbors(s);
                assert!(g.is_alive(s) || row.is_empty(), "step {step}: dead {s:?} keeps a row");
                assert!(row.windows(2).all(|w| w[0] < w[1]), "step {step}: row {s:?} unsorted");
                for &t in row {
                    assert!(g.is_alive(t), "step {step}: row {s:?} names dead {t:?}");
                    assert!(g.has_edge(t, s), "step {step}: {s:?}–{t:?} is one-sided");
                }
            }
        }

        let mut rng = SimRng::seed_from(14);
        let mut g = LogicalGraph::new(12);
        audit(&g, 0);
        for step in 1..=2500 {
            let live: Vec<Slot> = g.live_slots().collect();
            match rng.range(0..10u32) {
                0 => {
                    g.add_slot();
                }
                1 if live.len() > 8 => {
                    g.remove_slot(*rng.pick(&live).expect("more than 8 live"));
                }
                _ => {
                    // Two distinct live slots: toggle the edge between them.
                    let i = rng.range(0..live.len());
                    let j = (i + rng.range(1..live.len())) % live.len();
                    if g.has_edge(live[i], live[j]) {
                        g.remove_edge(live[i], live[j]);
                    } else {
                        g.add_edge(live[i], live[j]);
                    }
                }
            }
            audit(&g, step);
        }
        assert!(g.num_slots() > 128, "storm must append past 128 slots");
        assert!(g.num_live() < g.num_slots() / 2, "most slots must have died below the appends");
    }
}
