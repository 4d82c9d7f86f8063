//! The probe random walk (§3.2).
//!
//! A PROP node locates its exchange counterpart by sending a small message
//! with TTL `nhops`: the first hop is chosen by the protocol (from its
//! `neighborq` priority queue), every subsequent hop is a uniformly random
//! neighbor that is not already on the path (the message carries visited
//! addresses "to avoid repetitive forwarding"). The node where TTL reaches
//! zero is the counterpart; the recorded path matters because exchanged
//! neighbors must never lie on it (that is what keeps the graph connected —
//! Theorem 1).

use crate::logical::{LogicalGraph, Slot};
use prop_engine::SimRng;

/// Result of a probe walk: `path[0]` is the origin, `path.last()` the
/// counterpart. `path.len() == nhops + 1` when the walk completed; shorter
/// if it got stuck (every neighbor already visited).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkPath {
    pub path: Vec<Slot>,
}

impl WalkPath {
    /// The counterpart node `v`, if the walk covered the full TTL and ended
    /// somewhere other than the origin.
    pub fn counterpart(&self, nhops: u32) -> Option<Slot> {
        (self.path.len() as u32 == nhops + 1).then(|| *self.path.last().unwrap())
    }

    /// Does `s` lie on the walk path (origin and counterpart included)?
    #[inline]
    pub fn contains(&self, s: Slot) -> bool {
        self.path.contains(&s)
    }
}

/// Reusable buffers for probe walks: the walk path itself plus the per-hop
/// candidate list. A driver owns one scratch for its whole lifetime, so the
/// steady-state trial loop performs **zero heap allocations** once both
/// buffers have reached their high-water capacity (pinned by prop-core's
/// `alloc_regression` test). Mirrors the `FloodScratch` idiom in
/// [`crate::net`].
#[derive(Debug, Default)]
pub struct WalkScratch {
    walk: WalkPath,
    candidates: Vec<Slot>,
}

impl WalkScratch {
    pub fn new() -> Self {
        WalkScratch { walk: WalkPath { path: Vec::new() }, candidates: Vec::new() }
    }

    /// The walk produced by the last [`random_walk_into`] call.
    #[inline]
    pub fn walk(&self) -> &WalkPath {
        &self.walk
    }

    /// Overwrite the scratch with the two-node path `[origin, counterpart]`
    /// — the shape `ProbeMode::Random` trials use, kept allocation-free
    /// through the same buffer.
    pub fn set_pair(&mut self, origin: Slot, counterpart: Slot) {
        self.walk.path.clear();
        self.walk.path.push(origin);
        self.walk.path.push(counterpart);
    }
}

/// Walk `nhops` hops from `origin`, entering via `first_hop` (which must be
/// a neighbor of `origin`). Later hops are uniform over unvisited neighbors.
///
/// Allocation-free façade users: this builds a fresh scratch per call. Hot
/// paths hold a [`WalkScratch`] and call [`random_walk_into`] instead; the
/// two consume the RNG identically ([`SimRng::pick`] draws by candidate
/// *length*, which both forms present the same way), so swapping one for
/// the other never perturbs a seeded run.
pub fn random_walk(
    g: &LogicalGraph,
    origin: Slot,
    first_hop: Slot,
    nhops: u32,
    rng: &mut SimRng,
) -> WalkPath {
    let mut scratch = WalkScratch::new();
    random_walk_into(g, origin, first_hop, nhops, rng, &mut scratch);
    scratch.walk
}

/// [`random_walk`] into caller-owned buffers: the result lands in
/// `scratch.walk()`, and no allocation happens beyond the buffers' own
/// capacity growth (which stops at the overlay's max degree).
pub fn random_walk_into(
    g: &LogicalGraph,
    origin: Slot,
    first_hop: Slot,
    nhops: u32,
    rng: &mut SimRng,
    scratch: &mut WalkScratch,
) {
    debug_assert!(g.has_edge(origin, first_hop), "first hop must be a neighbor");
    let path = &mut scratch.walk.path;
    path.clear();
    path.push(origin);
    if nhops == 0 {
        return;
    }
    path.push(first_hop);
    let mut cur = first_hop;
    for _ in 1..nhops {
        scratch.candidates.clear();
        scratch.candidates.extend(g.neighbors(cur).iter().copied().filter(|n| !path.contains(n)));
        match rng.pick(&scratch.candidates) {
            Some(&next) => {
                path.push(next);
                cur = next;
            }
            None => break, // stuck: every neighbor already visited
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::LogicalGraph;

    fn ring(n: u32) -> LogicalGraph {
        let mut g = LogicalGraph::new(n as usize);
        for i in 0..n {
            g.add_edge(Slot(i), Slot((i + 1) % n));
        }
        g
    }

    #[test]
    fn walk_has_no_repeats() {
        let g = ring(10);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..50 {
            let w = random_walk(&g, Slot(0), Slot(1), 4, &mut rng);
            let mut p = w.path.clone();
            p.sort_unstable();
            p.dedup();
            assert_eq!(p.len(), w.path.len(), "repeat in {:?}", w.path);
        }
    }

    #[test]
    fn walk_follows_edges() {
        let g = ring(8);
        let mut rng = SimRng::seed_from(2);
        let w = random_walk(&g, Slot(3), Slot(4), 3, &mut rng);
        for pair in w.path.windows(2) {
            assert!(g.has_edge(pair[0], pair[1]));
        }
    }

    #[test]
    fn counterpart_requires_full_ttl() {
        // On a ring, from slot 0 via 1 the only non-repeating continuation
        // is 2, 3, … so a 3-hop walk always ends at 3.
        let g = ring(8);
        let mut rng = SimRng::seed_from(3);
        let w = random_walk(&g, Slot(0), Slot(1), 3, &mut rng);
        assert_eq!(w.counterpart(3), Some(Slot(3)));
        assert!(w.counterpart(4).is_none());
    }

    #[test]
    fn stuck_walk_returns_partial_path() {
        // Path graph 0-1-2: from 0 via 1 a 5-hop walk gets stuck at 2.
        let mut g = LogicalGraph::new(3);
        g.add_edge(Slot(0), Slot(1));
        g.add_edge(Slot(1), Slot(2));
        let mut rng = SimRng::seed_from(4);
        let w = random_walk(&g, Slot(0), Slot(1), 5, &mut rng);
        assert_eq!(w.path, vec![Slot(0), Slot(1), Slot(2)]);
        assert_eq!(w.counterpart(5), None);
    }

    #[test]
    fn zero_hop_walk_is_just_origin() {
        let g = ring(4);
        let mut rng = SimRng::seed_from(5);
        let w = random_walk(&g, Slot(2), Slot(3), 0, &mut rng);
        assert_eq!(w.path, vec![Slot(2)]);
    }

    #[test]
    fn one_hop_walk_ends_at_first_hop() {
        let g = ring(4);
        let mut rng = SimRng::seed_from(6);
        let w = random_walk(&g, Slot(2), Slot(3), 1, &mut rng);
        assert_eq!(w.path, vec![Slot(2), Slot(3)]);
        assert_eq!(w.counterpart(1), Some(Slot(3)));
    }

    #[test]
    fn scratch_walk_is_bit_identical_to_facade() {
        // Reusing one scratch across many walks — including after longer
        // paths that left stale buffer contents — must consume the RNG and
        // produce paths exactly as the allocating façade does.
        let mut g = ring(12);
        g.add_edge(Slot(0), Slot(6));
        g.add_edge(Slot(3), Slot(9));
        let mut scratch = WalkScratch::new();
        let mut r1 = SimRng::seed_from(99);
        let mut r2 = SimRng::seed_from(99);
        for round in 0..40u32 {
            let nhops = 1 + round % 6;
            let w1 = random_walk(&g, Slot(0), Slot(1), nhops, &mut r1);
            random_walk_into(&g, Slot(0), Slot(1), nhops, &mut r2, &mut scratch);
            assert_eq!(&w1, scratch.walk(), "round {round}");
        }
        assert_eq!(r1.range(0u64..u64::MAX), r2.range(0u64..u64::MAX), "streams diverged");
    }

    #[test]
    fn set_pair_builds_random_mode_path() {
        let mut scratch = WalkScratch::new();
        scratch.set_pair(Slot(4), Slot(7));
        assert_eq!(scratch.walk().path, vec![Slot(4), Slot(7)]);
        assert_eq!(scratch.walk().counterpart(1), Some(Slot(7)));
        scratch.set_pair(Slot(1), Slot(2));
        assert_eq!(scratch.walk().path, vec![Slot(1), Slot(2)]);
    }

    #[test]
    fn contains_checks_whole_path() {
        let g = ring(8);
        let mut rng = SimRng::seed_from(7);
        let w = random_walk(&g, Slot(0), Slot(1), 2, &mut rng);
        assert!(w.contains(Slot(0)));
        assert!(w.contains(*w.path.last().unwrap()));
        assert!(!w.contains(Slot(6)));
    }
}
