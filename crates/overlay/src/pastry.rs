//! Pastry DHT.
//!
//! The second structured system named in the paper's introduction. Pastry
//! routes by identifier *prefix*: 128-bit identifiers are strings of
//! base-2^b digits (b = 4 here, so 32 hexadecimal digits); each node keeps
//!
//! * a **leaf set** — the `l/2` numerically closest nodes on either side,
//!   which guarantees the last hop(s) and termination, and
//! * a **routing table** — row `r`, column `d` holds a node sharing exactly
//!   `r` leading digits with the owner and having digit `d` next. Any node
//!   satisfying the constraint is legal, which is exactly the freedom
//!   Proximity Neighbor Selection exploits (see
//!   `prop_baselines::pns::build_pns_pastry`).
//!
//! A lookup for key `k` terminates at the live node whose identifier is
//! numerically closest to `k` (ties toward the lower id). Expected route
//! length is `O(log_2^b n)`.
//!
//! As with Chord, identifiers belong to **slots**: PROP-G swaps which peer
//! answers to which identifier and the prefix structure never changes.

use crate::logical::Slot;
use crate::net::OverlayNet;
use crate::placement::Placement;
use crate::{FloodScratch, Lookup, RouteOutcome};
use prop_engine::SimRng;
use prop_netsim::LatencyOracle;
use std::sync::Arc;

/// Bits per digit (`b`); 4 ⇒ hexadecimal digits, the Pastry default.
pub const DIGIT_BITS: u32 = 4;
/// Digits per 128-bit identifier.
pub const NUM_DIGITS: usize = (128 / DIGIT_BITS) as usize;
/// Radix (2^b).
pub const RADIX: usize = 1 << DIGIT_BITS;

/// Total leaf-set size (half on each side). Pastry's default is 16; 8 is
/// plenty for the overlay sizes simulated here.
pub const LEAF_SET: usize = 8;

/// A 128-bit Pastry identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PastryId(pub u128);

impl PastryId {
    /// Digit `i` (0 = most significant).
    #[inline]
    pub fn digit(self, i: usize) -> usize {
        debug_assert!(i < NUM_DIGITS);
        let shift = 128 - DIGIT_BITS as usize * (i + 1);
        ((self.0 >> shift) & (RADIX as u128 - 1)) as usize
    }

    /// Length of the common digit prefix with `other`.
    pub fn shared_prefix(self, other: PastryId) -> usize {
        if self.0 == other.0 {
            return NUM_DIGITS;
        }
        let diff = self.0 ^ other.0;
        (diff.leading_zeros() / DIGIT_BITS) as usize
    }

    /// Absolute numeric distance (no wraparound: Pastry's closeness for key
    /// ownership is numeric, the ring only matters for the leaf set).
    #[inline]
    pub fn distance(self, other: PastryId) -> u128 {
        self.0.abs_diff(other.0)
    }
}

/// The Pastry overlay structure (immutable after build; PROP-G mobility
/// lives in the placement).
#[derive(Clone, Debug)]
pub struct Pastry {
    ids: Vec<PastryId>,
    /// Slots sorted by id (for leaf sets and owner lookups).
    ring: Vec<Slot>,
    /// Per slot: leaf set (numeric neighbors on both sides).
    leaves: Vec<Vec<Slot>>,
    /// Per slot: flattened routing table, `row * RADIX + digit`.
    table: Vec<Vec<Option<Slot>>>,
}

/// The canonical table fill: the lowest slot among a cell's candidates.
fn canonical(_slot: Slot, candidates: &[Slot]) -> Slot {
    *candidates.iter().min().expect("a filled cell has candidates")
}

/// Every slot's routing table, from `ring` (the slots sorted by id),
/// indexed by slot. `select` is [`Pastry::build_with_selector`]'s.
///
/// The ids sharing at least `r` digits with a slot form one contiguous
/// range of the ring, and inside it digit `r` never decreases. So cell
/// `(r, d)` is the sub-range whose digit `r` is `d`, found by one binary
/// search, and the slot's own sub-range is the range of row `r + 1`. The
/// walk down the rows stops when that range holds only the slot, so the
/// last row visited is the deepest filled one.
fn routing_tables(
    ids: &[PastryId],
    ring: &[Slot],
    mut select: impl FnMut(Slot, &[Slot]) -> Slot,
) -> Vec<Vec<Option<Slot>>> {
    let ring_ids: Vec<PastryId> = ring.iter().map(|s| ids[s.index()]).collect();
    let mut table: Vec<Vec<Option<Slot>>> = vec![Vec::new(); ids.len()];
    for &s in ring {
        let me = ids[s.index()];
        let t = &mut table[s.index()];
        let (mut lo, mut hi) = (0, ring.len());
        for row in 0..NUM_DIGITS {
            t.resize((row + 1) * RADIX, None);
            let mine = me.digit(row);
            let (mut start, mut own) = (lo, (lo, hi));
            for digit in 0..RADIX {
                let end = start + ring_ids[start..hi].partition_point(|x| x.digit(row) <= digit);
                if digit == mine {
                    own = (start, end);
                } else if end > start {
                    t[row * RADIX + digit] = Some(select(s, &ring[start..end]));
                }
                start = end;
            }
            (lo, hi) = own;
            if hi - lo == 1 {
                break;
            }
        }
    }
    table
}

impl Pastry {
    /// Build with the canonical table fill: each cell holds the lowest slot
    /// legal for it.
    pub fn build(oracle: Arc<LatencyOracle>, rng: &mut SimRng) -> (Pastry, OverlayNet) {
        Self::build_with_selector(oracle, rng, canonical)
    }

    /// Build with a custom per-cell candidate selector — the PNS hook.
    /// `select(slot, candidates)` picks the routing-table entry among every
    /// node legal for that cell; the candidates arrive in ascending id
    /// order, never include `slot`, and the selector is called once per
    /// filled cell.
    pub fn build_with_selector(
        oracle: Arc<LatencyOracle>,
        rng: &mut SimRng,
        select: impl FnMut(Slot, &[Slot]) -> Slot,
    ) -> (Pastry, OverlayNet) {
        let n = oracle.len();
        assert!(n >= 2, "Pastry needs at least two nodes");
        let mut rng = rng.fork("pastry-build");
        let ids: Vec<PastryId> =
            crate::table::distinct_u128_ids(&mut rng, n).into_iter().map(PastryId).collect();
        let mut ring: Vec<Slot> = (0..n as u32).map(Slot).collect();
        ring.sort_by_key(|s| ids[s.index()]);

        // Leaf sets: l/2 ring neighbors each side (wrapping).
        let half = LEAF_SET / 2;
        let mut leaves: Vec<Vec<Slot>> = vec![Vec::new(); n];
        for (r, &s) in ring.iter().enumerate() {
            let mut set = Vec::with_capacity(LEAF_SET);
            for k in 1..=half.min(n - 1) {
                set.push(ring[(r + k) % n]);
                set.push(ring[(r + n - k) % n]);
            }
            set.sort_unstable();
            set.dedup();
            set.retain(|&x| x != s);
            leaves[s.index()] = set;
        }

        let table = routing_tables(&ids, &ring, select);

        // Logical graph: union of leaf sets and routing entries (neither
        // holds the slot itself: leaf sets drop it, cells never offer it).
        let entries: Vec<Vec<Slot>> = (0..n)
            .map(|s| leaves[s].iter().chain(table[s].iter().flatten()).copied().collect())
            .collect();
        let g = crate::table::graph_from_table(n, &entries);

        let pastry = Pastry { ids, ring, leaves, table };
        let net = OverlayNet::new(g, Placement::identity(n), oracle);
        (pastry, net)
    }

    #[inline]
    pub fn id(&self, s: Slot) -> PastryId {
        self.ids[s.index()]
    }

    /// The slot numerically closest to `key` (ties toward the lower id):
    /// the closer of the ring's ids on either side of `key`.
    pub fn owner_of(&self, key: PastryId) -> Slot {
        let pos = self.ring.partition_point(|t| self.ids[t.index()] < key);
        let below = self.ring[pos.saturating_sub(1)];
        let above = self.ring[pos.min(self.ring.len() - 1)];
        let dist = |s: Slot| self.ids[s.index()].distance(key);
        if dist(above) < dist(below) {
            above
        } else {
            below
        }
    }

    /// Routing-table entry at (row, digit), if filled.
    fn table_entry(&self, s: Slot, row: usize, digit: usize) -> Option<Slot> {
        self.table[s.index()].get(row * RADIX + digit).copied().flatten()
    }

    /// Pastry's route: prefix hops, then the leaf set finishes the job.
    /// Returns the slot path ending at `owner_of(key)`.
    pub fn route_path(&self, src: Slot, key: PastryId) -> Vec<Slot> {
        let dst = self.owner_of(key);
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            let cur_id = self.ids[cur.index()];
            let l = cur_id.shared_prefix(key);
            // 1. Exact prefix-table hop.
            let next = if l < NUM_DIGITS { self.table_entry(cur, l, key.digit(l)) } else { None };
            // 2. Fallback: anyone known (leaves ∪ table) strictly closer
            //    numerically with at least as long a prefix — the rare case
            //    of the Pastry paper. The leaf set always contains a
            //    numerically closer node unless cur is the owner, so this
            //    terminates.
            let next = next.filter(|&nx| nx != cur).or_else(|| {
                let my_dist = cur_id.distance(key);
                self.leaves[cur.index()]
                    .iter()
                    .chain(self.table[cur.index()].iter().flatten())
                    .copied()
                    .filter(|&c| {
                        self.ids[c.index()].distance(key) < my_dist
                            && self.ids[c.index()].shared_prefix(key) >= l
                    })
                    .min_by_key(|&c| self.ids[c.index()].distance(key))
            });
            let Some(next) = next else {
                debug_assert_eq!(cur, dst, "stuck away from the owner");
                break;
            };
            debug_assert!(
                self.ids[next.index()].shared_prefix(key) > l
                    || self.ids[next.index()].distance(key) < cur_id.distance(key),
                "route made no progress"
            );
            path.push(next);
            cur = next;
        }
        path
    }
}

impl Lookup for Pastry {
    fn lookup_with(
        &self,
        net: &OverlayNet,
        src: Slot,
        dst: Slot,
        _: &mut FloodScratch,
    ) -> Option<RouteOutcome> {
        let path = self.route_path(src, self.ids[dst.index()]);
        debug_assert_eq!(*path.last().unwrap(), dst);
        Some(net.route_outcome(&path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netsim::{generate, TransitStubParams};

    fn oracle(n: usize, seed: u64) -> Arc<LatencyOracle> {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng))
    }

    fn build(n: usize, seed: u64) -> (Pastry, OverlayNet) {
        let mut rng = SimRng::seed_from(seed);
        Pastry::build(oracle(n, seed), &mut rng)
    }

    #[test]
    fn digit_extraction() {
        let id = PastryId(0xABCD << 112);
        assert_eq!(id.digit(0), 0xA);
        assert_eq!(id.digit(1), 0xB);
        assert_eq!(id.digit(2), 0xC);
        assert_eq!(id.digit(3), 0xD);
        assert_eq!(id.digit(4), 0);
    }

    #[test]
    fn shared_prefix_lengths() {
        let a = PastryId(0xAB00 << 112);
        let b = PastryId(0xAB70 << 112);
        assert_eq!(a.shared_prefix(b), 2);
        assert_eq!(a.shared_prefix(a), NUM_DIGITS);
        let c = PastryId(0x1B00 << 112);
        assert_eq!(a.shared_prefix(c), 0);
    }

    #[test]
    fn owner_is_numerically_closest() {
        let (p, _) = build(25, 1);
        for s in 0..25u32 {
            let key = p.id(Slot(s));
            assert_eq!(p.owner_of(key), Slot(s), "a node owns its own id");
        }
        // Arbitrary keys: owner must minimize numeric distance.
        let mut rng = SimRng::seed_from(2);
        for _ in 0..100 {
            let key =
                PastryId(((rng.range(0..u64::MAX) as u128) << 64) | rng.range(0..u64::MAX) as u128);
            let owner = p.owner_of(key);
            let od = p.id(owner).distance(key);
            for s in 0..25u32 {
                assert!(p.id(Slot(s)).distance(key) >= od);
            }
        }
    }

    #[test]
    fn all_lookups_reach_owner() {
        let (p, net) = build(30, 3);
        for a in 0..30u32 {
            for b in 0..30u32 {
                let out = p.lookup(&net, Slot(a), Slot(b)).unwrap();
                if a == b {
                    assert_eq!(out.hops, 0);
                }
            }
        }
    }

    #[test]
    fn hops_are_logarithmic() {
        let (p, net) = build(40, 4);
        let mut total = 0u64;
        let mut cnt = 0u64;
        for a in 0..40u32 {
            for b in 0..40u32 {
                if a != b {
                    total += p.lookup(&net, Slot(a), Slot(b)).unwrap().hops as u64;
                    cnt += 1;
                }
            }
        }
        let avg = total as f64 / cnt as f64;
        // log_16(40) ≈ 1.3; with leaf-set shortcuts expect ~1–3.
        assert!(avg < 4.0, "avg hops {avg}");
    }

    #[test]
    fn leaf_sets_are_ring_neighbors() {
        let (p, _) = build(20, 5);
        // Every node's closest numeric neighbor must be in its leaf set.
        for s in 0..20u32 {
            let me = p.id(Slot(s));
            let closest =
                (0..20u32).filter(|&t| t != s).min_by_key(|&t| p.id(Slot(t)).distance(me)).unwrap();
            assert!(
                p.leaves[s as usize].contains(&Slot(closest)),
                "slot {s}: closest {closest} missing from leaf set"
            );
        }
    }

    #[test]
    fn table_entries_satisfy_prefix_constraint() {
        let (p, _) = build(30, 6);
        for s in 0..30u32 {
            let me = p.id(Slot(s));
            for row in 0..NUM_DIGITS {
                for digit in 0..RADIX {
                    if let Some(e) = p.table_entry(Slot(s), row, digit) {
                        let eid = p.id(e);
                        assert_eq!(me.shared_prefix(eid), row, "row constraint violated");
                        assert_eq!(eid.digit(row), digit, "digit constraint violated");
                    }
                }
            }
        }
    }

    #[test]
    fn logical_graph_connected() {
        let (_, net) = build(30, 7);
        assert!(net.graph().is_connected());
    }

    #[test]
    fn prop_g_swap_keeps_routes_identical() {
        let (p, mut net) = build(25, 8);
        let before: Vec<u32> =
            (1..25).map(|b| p.lookup(&net, Slot(0), Slot(b)).unwrap().hops).collect();
        net.swap_peers(Slot(4), Slot(19));
        net.swap_peers(Slot(7), Slot(11));
        let after: Vec<u32> =
            (1..25).map(|b| p.lookup(&net, Slot(0), Slot(b)).unwrap().hops).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn custom_selector_still_routes_correctly() {
        let mut rng = SimRng::seed_from(9);
        let o = oracle(25, 9);
        let (p, net) =
            Pastry::build_with_selector(o, &mut rng, |_, cands| *cands.iter().max().unwrap());
        for b in 0..25u32 {
            let out = p.lookup(&net, Slot(3), Slot(b)).unwrap();
            assert!(out.hops <= 25);
        }
    }

    #[test]
    fn deterministic_build() {
        let (a, _) = build(20, 10);
        let (b, _) = build(20, 10);
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.table, b.table);
        assert_eq!(a.leaves, b.leaves);
    }

    /// The all-pairs fill [`routing_tables`] replaced, kept as its twin:
    /// every pair bucketed into the two slots' candidate maps, keyed by
    /// (shared prefix, next digit), candidates in slot order.
    fn routing_tables_reference(
        ids: &[PastryId],
        mut select: impl FnMut(Slot, &[Slot]) -> Slot,
    ) -> Vec<Vec<Option<Slot>>> {
        let n = ids.len();
        let mut candidates: Vec<std::collections::HashMap<(usize, usize), Vec<Slot>>> =
            vec![std::collections::HashMap::new(); n];
        for a in 0..n {
            for b in (a + 1)..n {
                let l = ids[a].shared_prefix(ids[b]);
                if l < NUM_DIGITS {
                    candidates[a].entry((l, ids[b].digit(l))).or_default().push(Slot(b as u32));
                    candidates[b].entry((l, ids[a].digit(l))).or_default().push(Slot(a as u32));
                }
            }
        }
        let mut table: Vec<Vec<Option<Slot>>> = Vec::with_capacity(n);
        for (s, cells) in candidates.iter().enumerate() {
            let max_row = cells.keys().map(|&(r, _)| r).max().unwrap_or(0);
            let mut t = vec![None; (max_row + 1) * RADIX];
            for (&(row, digit), cands) in cells {
                t[row * RADIX + digit] = Some(select(Slot(s as u32), cands));
            }
            table.push(t);
        }
        table
    }

    /// The sorted-ring fill against the all-pairs reference, cell for cell
    /// and in stored length: nine overlay sizes from two members up, three
    /// seeds (one at 1,000), ids spread over the whole space or half of
    /// them clustered under one 100-bit prefix (deep rows, long shared
    /// prefixes), and the canonical, PNS (on a `ts_large` oracle, latency
    /// ties to the lowest slot) and pick-max selectors.
    #[test]
    fn sorted_ring_tables_match_the_all_pairs_reference() {
        let mut rng = SimRng::seed_from(42);
        let phys = generate(&TransitStubParams::ts_large(), &mut rng);
        let o = LatencyOracle::select_and_build(&phys, 1000, &mut rng);
        let m = o.len();
        let pns = |s: Slot, c: &[Slot]| {
            *c.iter().min_by_key(|&&c| (o.d(s.index() % m, c.index() % m), c)).unwrap()
        };
        let pick_max = |_: Slot, c: &[Slot]| *c.iter().max().unwrap();
        for n in [2usize, 3, 5, 9, 17, 40, 100, 300, 1000] {
            // One seed at n = 1,000: its PNS fills alone read ~2M latencies.
            for seed in 0..if n < 1000 { 3u64 } else { 1 } {
                for layout in ["spread", "clustered"] {
                    let mut rng = SimRng::seed_from(seed);
                    let mut raw = crate::table::distinct_u128_ids(&mut rng, n);
                    if layout == "clustered" {
                        let prefix = raw[0] & !((1u128 << 28) - 1);
                        for id in raw.iter_mut().skip(1).step_by(2) {
                            *id = prefix | (*id & ((1 << 28) - 1));
                        }
                        let mut seen = std::collections::HashSet::new();
                        raw.retain(|&id| seen.insert(id));
                    }
                    let ids: Vec<PastryId> = raw.into_iter().map(PastryId).collect();
                    let mut ring: Vec<Slot> = (0..ids.len() as u32).map(Slot).collect();
                    ring.sort_by_key(|s| ids[s.index()]);
                    let case = format!("n {n}, seed {seed}, {layout}");
                    assert_eq!(
                        routing_tables(&ids, &ring, canonical),
                        routing_tables_reference(&ids, canonical),
                        "{case}, canonical"
                    );
                    assert_eq!(
                        routing_tables(&ids, &ring, pns),
                        routing_tables_reference(&ids, pns),
                        "{case}, PNS"
                    );
                    assert_eq!(
                        routing_tables(&ids, &ring, pick_max),
                        routing_tables_reference(&ids, pick_max),
                        "{case}, pick-max"
                    );
                }
            }
        }
    }
}
