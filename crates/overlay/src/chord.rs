//! Chord DHT.
//!
//! A full identifier-ring Chord over a 64-bit key space: every *slot* owns a
//! random identifier; routing state is the immediate successor, a short
//! successor list (fault tolerance, and the paper's "extended routing table"
//! that records predecessors as bidirectional links), and the classic finger
//! table (`finger[i]` = first node ≥ `id + 2^i`).
//!
//! Identifiers belong to **slots**, not peers: a PROP-G exchange swaps which
//! physical peer sits at which identifier ("instead of regenerating its
//! identifier, each node is only allowed to get old identifiers of other
//! nodes"), so the ring structure — and therefore every DHT guarantee — is
//! untouched. That is exactly the paper's Theorem 2 specialized to Chord.
//!
//! Lookups use iterative greedy routing via the closest preceding finger,
//! the textbook O(log n)-hop discipline.
//!
//! Membership can change ("notifications can still be implemented by using
//! the underlying mechanisms just as what happens when peers arrive or
//! depart"): [`Chord::leave`] removes a node — its keys fall to its
//! successor — and [`Chord::join`] admits a peer at a fresh identifier.
//! Maintenance is modeled as an immediate, correct stabilization pass (the
//! eventual consistency a real Chord converges to): after each event the
//! routing state is what the build rule yields over the live identifiers,
//! and merging the old and new tables' sorted edge lists gives the
//! *logical-graph delta*, applied edge by edge so the PROP driver can
//! resync exactly the affected nodes.

use crate::logical::{LogicalGraph, Slot};
use crate::net::OverlayNet;
use crate::placement::Placement;
use crate::{FloodScratch, Lookup, RouteOutcome};
use prop_engine::SimRng;
use prop_netsim::oracle::MemberIdx;
use prop_netsim::LatencyOracle;
use std::sync::Arc;

/// Number of bits in the identifier space.
pub const ID_BITS: u32 = 64;

/// Chord construction parameters.
#[derive(Clone, Debug)]
pub struct ChordParams {
    /// Successor-list length (≥ 1).
    pub successors: usize,
}

impl Default for ChordParams {
    fn default() -> Self {
        ChordParams { successors: 3 }
    }
}

/// The identifier-ring structure. PROP-G's placement mobility happens in the
/// [`OverlayNet`]'s [`Placement`] and never touches it; only
/// [`Chord::join`] / [`Chord::leave`] change it.
#[derive(Clone, Debug)]
pub struct Chord {
    params: ChordParams,
    /// Identifier of each slot (a departed slot keeps the one it held).
    ids: Vec<u64>,
    /// Live slots sorted by identifier (the ring).
    ring: Vec<Slot>,
    /// Per slot: deduplicated outgoing routing entries
    /// (successor list ∪ fingers), sorted by slot index. Empty once departed.
    table: Vec<Vec<Slot>>,
    /// Immediate successor per live slot.
    successor: Vec<Slot>,
    /// The `"chord-build"` stream, kept to draw the identifiers of joiners.
    rng: SimRng,
}

/// Is `x` in the half-open circular interval `(a, b]`?
#[inline]
fn in_interval_oc(a: u64, x: u64, b: u64) -> bool {
    if a < b {
        a < x && x <= b
    } else if a > b {
        x > a || x <= b
    } else {
        // a == b: the interval is the whole ring.
        true
    }
}

/// Position on `ring` (slots sorted by identifier) of the first identifier
/// ≥ `key`; `ring.len()` when all are smaller, which callers wrap to 0.
#[inline]
fn first_at_or_after(ids: &[u64], ring: &[Slot], key: u64) -> usize {
    ring.partition_point(|t| ids[t.index()] < key)
}

/// The textbook finger choice: the first node at or after `id + 2^i`.
fn canonical(_slot: Slot, candidates: &[Slot]) -> Slot {
    candidates[0]
}

/// How many ring nodes at or after a finger's target the selector sees:
/// enough for PNS to matter, few enough that a node's 64 fingers cost at
/// most 64 binary searches and 256 candidate reads.
const CANDIDATES: usize = 4;

/// The successor/finger rule: routing entries and immediate successor of
/// every slot on `ring`, indexed by slot (slots off the ring get no
/// entries). `select` is [`Chord::build_with_selector`]'s.
///
/// One pass per node. A finger whose step `2^i` is at most the gap to the
/// successor is the successor's position (whether or not `id + 2^i` wraps);
/// every other finger binary-searches `ring_ids`, the ring's identifiers in
/// ring order. Targets move clockwise with `i`, so each distinct position
/// comes as one run of fingers: its candidates are gathered and `select` is
/// called once per run.
fn routing_state(
    ids: &[u64],
    ring: &[Slot],
    successors: usize,
    mut select: impl FnMut(Slot, &[Slot]) -> Slot,
) -> (Vec<Vec<Slot>>, Vec<Slot>) {
    let n = ring.len();
    let ring_ids: Vec<u64> = ring.iter().map(|s| ids[s.index()]).collect();
    let mut successor = vec![Slot(0); ids.len()];
    let mut table: Vec<Vec<Slot>> = vec![Vec::new(); ids.len()];
    let mut entries: Vec<Slot> = Vec::with_capacity(successors + ID_BITS as usize);

    for (r, &s) in ring.iter().enumerate() {
        let next = (r + 1) % n;
        successor[s.index()] = ring[next];
        entries.clear();
        // Successor list.
        for k in 1..=successors.min(n - 1) {
            entries.push(ring[(r + k) % n]);
        }
        // Fingers.
        let my_id = ring_ids[r];
        let gap = ring_ids[next].wrapping_sub(my_id);
        let mut last_pos = usize::MAX;
        for i in 0..ID_BITS {
            let step = 1u64 << i;
            let pos = if step <= gap {
                next
            } else {
                let target = my_id.wrapping_add(step);
                ring_ids.partition_point(|&x| x < target) % n
            };
            if pos == last_pos {
                continue;
            }
            last_pos = pos;
            // The canonical finger and the next few ring nodes are all
            // legal "≥ target" choices; present them to the selector.
            let mut cands = [Slot(0); CANDIDATES];
            let mut len = 0;
            for k in 0..CANDIDATES.min(n) {
                let c = ring[(pos + k) % n];
                if c != s {
                    cands[len] = c;
                    len += 1;
                }
            }
            if len == 0 {
                continue;
            }
            let chosen = select(s, &cands[..len]);
            debug_assert!(cands[..len].contains(&chosen), "selector must pick a candidate");
            if entries.last() != Some(&chosen) {
                entries.push(chosen);
            }
        }
        entries.sort_unstable();
        entries.dedup();
        table[s.index()] = entries.to_vec();
    }
    (table, successor)
}

impl Chord {
    /// Build a Chord ring of `oracle.len()` slots with random distinct
    /// identifiers. Finger entries follow the standard rule (first node at
    /// or after `id + 2^i`).
    pub fn build(
        params: ChordParams,
        oracle: Arc<LatencyOracle>,
        rng: &mut SimRng,
    ) -> (Chord, OverlayNet) {
        Self::build_with_selector(params, oracle, rng, canonical)
    }

    /// Build with a custom finger-candidate selector, the hook the PNS
    /// baseline uses: `select(slot, candidates)` picks among the first few
    /// ring nodes at or after a finger's target (candidates are in ring
    /// order starting at the canonical entry). It is called once per
    /// distinct target position, so it must not keep state between calls.
    pub fn build_with_selector(
        params: ChordParams,
        oracle: Arc<LatencyOracle>,
        rng: &mut SimRng,
        select: impl FnMut(Slot, &[Slot]) -> Slot,
    ) -> (Chord, OverlayNet) {
        let n = oracle.len();
        assert!(n >= 2, "Chord needs at least two nodes");
        assert!(params.successors >= 1);
        let mut rng = rng.fork("chord-build");

        // Random distinct ids.
        let mut ids = vec![0u64; n];
        let mut used = std::collections::HashSet::with_capacity(n);
        for id in ids.iter_mut() {
            loop {
                let cand: u64 = rng.range(0..u64::MAX);
                if used.insert(cand) {
                    *id = cand;
                    break;
                }
            }
        }

        let mut ring: Vec<Slot> = (0..n as u32).map(Slot).collect();
        ring.sort_by_key(|s| ids[s.index()]);
        let (table, successor) = routing_state(&ids, &ring, params.successors, select);

        // Undirected logical graph = union of directed routing entries.
        let g = crate::table::graph_from_table(n, &table);

        let chord = Chord { params, ids, ring, table, successor, rng };
        let net = OverlayNet::new(g, Placement::identity(n), oracle);
        (chord, net)
    }

    /// Stabilize after a membership change: the build rule with the
    /// canonical selector over the current ring, `g` moved to the new edge
    /// union by the merged edge-list delta. Returns the live slots whose
    /// neighbor lists changed, sorted, so downstream resync order is
    /// deterministic.
    fn restabilize(&mut self, g: &mut LogicalGraph) -> Vec<Slot> {
        let (table, successor) =
            routing_state(&self.ids, &self.ring, self.params.successors, canonical);
        let affected = crate::table::apply_table_delta(g, &self.table, &table);
        self.table = table;
        self.successor = successor;
        affected
    }

    /// The peer at `slot` departs: its keys fall to its successor and every
    /// finger that pointed at it is re-resolved. Returns the affected slots
    /// (for the PROP driver's resync). Panics, before changing anything, if
    /// `slot` already left or is one of the last two members.
    pub fn leave(&mut self, net: &mut OverlayNet, slot: Slot) -> Vec<Slot> {
        let pos = first_at_or_after(&self.ids, &self.ring, self.ids[slot.index()]);
        assert!(self.ring.get(pos) == Some(&slot), "leaving twice");
        assert!(self.ring.len() > 2, "ring too small");
        self.ring.remove(pos);
        net.graph_mut().remove_slot(slot);
        net.placement_mut().vacate(slot);
        self.restabilize(net.graph_mut())
    }

    /// `peer` (absent) joins with a fresh random identifier, splitting its
    /// successor's key range and acquiring its own tables. Returns its new
    /// slot and the affected slots.
    pub fn join(&mut self, net: &mut OverlayNet, peer: MemberIdx) -> (Slot, Vec<Slot>) {
        assert_eq!(net.graph().num_slots(), self.ids.len(), "ring and graph number slots alike");
        let slot = net.graph_mut().add_slot();
        net.placement_mut().occupy(slot, peer);
        let (id, pos) = loop {
            let id: u64 = self.rng.range(0..u64::MAX);
            let pos = first_at_or_after(&self.ids, &self.ring, id);
            if self.ring.get(pos).is_none_or(|t| self.ids[t.index()] != id) {
                break (id, pos);
            }
        };
        self.ids.push(id);
        self.ring.insert(pos, slot);
        let affected = self.restabilize(net.graph_mut());
        (slot, affected)
    }

    /// Number of live ring members.
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    /// Identifier of `s` (of a departed slot: the one it held).
    #[inline]
    pub fn id(&self, s: Slot) -> u64 {
        self.ids[s.index()]
    }

    /// The live slot responsible for `key`: its successor on the ring.
    pub fn owner_of(&self, key: u64) -> Slot {
        self.ring[first_at_or_after(&self.ids, &self.ring, key) % self.ring.len()]
    }

    /// Immediate ring successor of `s`.
    #[inline]
    pub fn successor(&self, s: Slot) -> Slot {
        self.successor[s.index()]
    }

    /// Outgoing routing entries of `s` (successor list ∪ fingers).
    #[inline]
    pub fn entries(&self, s: Slot) -> &[Slot] {
        &self.table[s.index()]
    }

    /// Route from `src` to the slot owning `key`, returning the slot path.
    /// Classic greedy: jump to the routing entry whose id is the closest
    /// predecessor of `key` (or `key` itself); the successor link guarantees
    /// progress, so the walk always terminates.
    pub fn route_path(&self, src: Slot, key: u64) -> Vec<Slot> {
        let dst = self.owner_of(key);
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            let cur_id = self.ids[cur.index()];
            // Best entry: id in (cur_id, key], maximizing circular progress
            // (closest to key from below, i.e. latest in ring order).
            let mut best: Option<(u64, Slot)> = None; // (circular distance to key, slot)
            for &e in &self.table[cur.index()] {
                let eid = self.ids[e.index()];
                if in_interval_oc(cur_id, eid, key) {
                    let gap = key.wrapping_sub(eid); // 0 when eid == key
                    if best.is_none_or(|(g, _)| gap < g) {
                        best = Some((gap, e));
                    }
                }
            }
            let next = best.map(|(_, s)| s).unwrap_or_else(|| self.successor(cur));
            debug_assert_ne!(next, cur, "routing made no progress");
            path.push(next);
            cur = next;
        }
        path
    }
}

impl Lookup for Chord {
    /// Latency of looking up a key owned by `dst`, starting at `src`.
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

    fn build(n: usize, seed: u64) -> (Chord, OverlayNet) {
        let mut rng = SimRng::seed_from(seed);
        Chord::build(ChordParams::default(), oracle(n, seed), &mut rng)
    }

    #[test]
    fn ring_is_a_permutation_sorted_by_id() {
        let (ch, _) = build(20, 1);
        for w in ch.ring.windows(2) {
            assert!(ch.id(w[0]) < ch.id(w[1]));
        }
        let mut slots: Vec<_> = ch.ring.clone();
        slots.sort_unstable();
        assert_eq!(slots, (0..20).map(Slot).collect::<Vec<_>>());
    }

    #[test]
    fn owner_is_successor_of_key() {
        let (ch, _) = build(20, 2);
        for s in 0..20u32 {
            // A node owns its own id.
            assert_eq!(ch.owner_of(ch.id(Slot(s))), Slot(s));
            // A key just above an id is owned by the next node.
            let key = ch.id(Slot(s)).wrapping_add(1);
            let owner = ch.owner_of(key);
            assert_ne!(owner, Slot(s));
        }
    }

    #[test]
    fn every_lookup_terminates_at_owner() {
        let (ch, net) = build(25, 3);
        for a in 0..25u32 {
            for b in 0..25u32 {
                let out = ch.lookup(&net, Slot(a), Slot(b)).unwrap();
                if a == b {
                    assert_eq!(out.hops, 0);
                }
            }
        }
    }

    #[test]
    fn hop_counts_are_logarithmic() {
        let (ch, net) = build(40, 4);
        let mut total_hops = 0u64;
        let mut count = 0u64;
        for a in 0..40u32 {
            for b in 0..40u32 {
                if a != b {
                    total_hops += ch.lookup(&net, Slot(a), Slot(b)).unwrap().hops as u64;
                    count += 1;
                }
            }
        }
        let avg = total_hops as f64 / count as f64;
        // O(log n) ≈ ½·log₂(40) ≈ 2.7; generous bound.
        assert!(avg < 6.0, "average hops {avg}");
        assert!(avg >= 1.0);
    }

    #[test]
    fn routing_ids_monotonically_approach_key() {
        let (ch, _) = build(30, 5);
        let src = Slot(0);
        let dst = Slot(17);
        let key = ch.id(dst);
        let path = ch.route_path(src, key);
        assert_eq!(*path.last().unwrap(), dst);
        // Circular gap to the key must strictly shrink every hop.
        let mut prev_gap = key.wrapping_sub(ch.id(src));
        for &s in &path[1..] {
            let gap = key.wrapping_sub(ch.id(s));
            assert!(gap < prev_gap, "no progress at {s:?}");
            prev_gap = gap;
        }
    }

    #[test]
    fn entries_contain_successor() {
        let (ch, _) = build(15, 6);
        for s in 0..15u32 {
            assert!(ch.entries(Slot(s)).contains(&ch.successor(Slot(s))));
        }
    }

    #[test]
    fn logical_graph_is_connected() {
        let (_, net) = build(20, 7);
        assert!(net.graph().is_connected());
    }

    #[test]
    fn prop_g_swap_keeps_routing_correct() {
        // Swap several placements (what PROP-G does) and verify lookups
        // still terminate at the right owner with the same hop counts —
        // the ring is slot-level, so placement is irrelevant to routing.
        let (ch, mut net) = build(20, 8);
        let before: Vec<u32> =
            (1..20).map(|b| ch.lookup(&net, Slot(0), Slot(b)).unwrap().hops).collect();
        net.swap_peers(Slot(3), Slot(12));
        net.swap_peers(Slot(5), Slot(19));
        let after: Vec<u32> =
            (1..20).map(|b| ch.lookup(&net, Slot(0), Slot(b)).unwrap().hops).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn interval_oc_semantics() {
        assert!(in_interval_oc(3, 5, 9));
        assert!(in_interval_oc(3, 9, 9));
        assert!(!in_interval_oc(3, 3, 9));
        assert!(!in_interval_oc(3, 10, 9));
        // Wrapping interval.
        assert!(in_interval_oc(u64::MAX - 1, 2, 5));
        assert!(!in_interval_oc(u64::MAX - 1, u64::MAX - 3, 5));
        // Degenerate: whole ring.
        assert!(in_interval_oc(7, 1, 7));
    }

    #[test]
    fn custom_selector_is_honored() {
        // A selector that always picks the last candidate still yields a
        // working (terminating, owner-correct) Chord.
        let mut rng = SimRng::seed_from(9);
        let (ch, net) = Chord::build_with_selector(
            ChordParams::default(),
            oracle(20, 9),
            &mut rng,
            |_, cands| *cands.last().unwrap(),
        );
        for b in 0..20u32 {
            let out = ch.lookup(&net, Slot(2), Slot(b)).unwrap();
            assert!(out.hops <= 20);
        }
    }

    #[test]
    fn deterministic_build() {
        let (c1, _) = build(20, 10);
        let (c2, _) = build(20, 10);
        assert_eq!(c1.ids, c2.ids);
        assert_eq!(c1.table, c2.table);
    }

    fn assert_all_lookups_correct(ch: &Chord, net: &OverlayNet) {
        let live: Vec<Slot> = net.graph().live_slots().collect();
        for &a in &live {
            for &b in &live {
                let out = ch.lookup(net, a, b).unwrap();
                if a == b {
                    assert_eq!(out.hops, 0);
                }
                assert!(out.hops as usize <= live.len());
            }
        }
    }

    /// `k` random leaves; returns the departed peers.
    fn leave_some(ch: &mut Chord, net: &mut OverlayNet, rng: &mut SimRng, k: usize) -> Vec<usize> {
        (0..k)
            .map(|_| {
                let live: Vec<Slot> = net.graph().live_slots().collect();
                let victim = *rng.pick(&live).unwrap();
                let peer = net.peer(victim);
                let affected = ch.leave(net, victim);
                assert!(!affected.contains(&victim));
                peer
            })
            .collect()
    }

    #[test]
    fn fresh_ring_routes_correctly() {
        let (ch, net) = build(25, 1);
        assert!(net.graph().is_connected());
        assert_all_lookups_correct(&ch, &net);
    }

    #[test]
    fn leaves_keep_the_ring_correct() {
        let (mut ch, mut net) = build(25, 2);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..10 {
            leave_some(&mut ch, &mut net, &mut rng, 1);
            assert!(net.graph().is_connected());
            assert_all_lookups_correct(&ch, &net);
        }
        assert_eq!(ch.ring_len(), 15);
    }

    #[test]
    fn joins_keep_the_ring_correct() {
        let (mut ch, mut net) = build(20, 3);
        // Remove five peers, then re-admit them at new slots.
        let absent = leave_some(&mut ch, &mut net, &mut SimRng::seed_from(3), 5);
        for peer in absent {
            let (slot, affected) = ch.join(&mut net, peer);
            assert!(net.graph().is_alive(slot));
            assert!(!affected.is_empty());
            assert!(net.graph().is_connected());
            assert_all_lookups_correct(&ch, &net);
        }
        assert_eq!(ch.ring_len(), 20);
        assert!(net.placement().is_consistent());
    }

    #[test]
    fn owner_moves_to_successor_after_leave() {
        let (mut ch, mut net) = build(20, 4);
        let victim = Slot(7);
        let key = ch.id(victim);
        assert_eq!(ch.owner_of(key), victim);
        ch.leave(&mut net, victim);
        let new_owner = ch.owner_of(key);
        assert_ne!(new_owner, victim);
        // The new owner's id is the smallest ≥ key among the living (or
        // wraps): verify minimal clockwise distance.
        let clockwise = |s: Slot| ch.id(s).wrapping_sub(key);
        for s in net.graph().live_slots() {
            assert!(clockwise(new_owner) <= clockwise(s));
        }
    }

    #[test]
    fn propg_swaps_compose_with_churn() {
        let (mut ch, mut net) = build(25, 5);
        let mut rng = SimRng::seed_from(5);
        for round in 0..8 {
            // Swap two random live peers (what PROP-G does)…
            let live: Vec<Slot> = net.graph().live_slots().collect();
            let a = *rng.pick(&live).unwrap();
            let b = *rng.pick(&live).unwrap();
            if a != b {
                net.swap_peers(a, b);
            }
            // …then churn.
            if round % 2 == 0 {
                let absent = leave_some(&mut ch, &mut net, &mut rng, 1);
                ch.join(&mut net, absent[0]);
            }
            assert!(net.graph().is_connected());
            assert!(net.placement().is_consistent());
            assert_all_lookups_correct(&ch, &net);
        }
    }

    #[test]
    #[should_panic(expected = "leaving twice")]
    fn double_leave_rejected() {
        let (mut ch, mut net) = build(10, 6);
        ch.leave(&mut net, Slot(3));
        ch.leave(&mut net, Slot(3));
    }

    #[test]
    fn leave_that_would_empty_the_ring_changes_nothing() {
        let (mut ch, mut net) = build(3, 11);
        ch.leave(&mut net, Slot(1));
        let before = ch.lookup(&net, Slot(0), Slot(2));
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ch.leave(&mut net, Slot(2));
        }));
        assert!(refused.is_err(), "a two-member ring must refuse a leave");
        assert_eq!(ch.ring_len(), 2);
        assert_eq!(net.graph().num_live(), 2);
        assert!(net.placement().is_consistent());
        assert_eq!(ch.lookup(&net, Slot(0), Slot(2)), before);
    }

    #[test]
    fn churned_ring_equals_the_build_rule_over_live_ids() {
        // After k leaves and k joins the routing state is what the one
        // routine yields over the live identifiers, and the graph is the
        // edge union of those tables: incremental maintenance ≡ full rebuild.
        let (mut ch, mut net) = build(30, 12);
        let absent = leave_some(&mut ch, &mut net, &mut SimRng::seed_from(12), 8);
        for peer in absent {
            ch.join(&mut net, peer);
        }
        let mut ring: Vec<Slot> = net.graph().live_slots().collect();
        ring.sort_by_key(|&s| ch.id(s));
        let (table, successor) = routing_state(&ch.ids, &ring, ch.params.successors, canonical);
        assert_eq!(ch.ring, ring);
        assert_eq!(ch.table, table);
        assert_eq!(ch.successor, successor);
        let rebuilt = crate::table::graph_from_table(ch.ids.len(), &table);
        for s in 0..ch.ids.len() as u32 {
            assert_eq!(net.graph().neighbors(Slot(s)), rebuilt.neighbors(Slot(s)), "slot {s}");
        }
    }

    /// The per-finger rule [`routing_state`] replaced, kept as its twin: a
    /// binary search through `ids[ring[k]]` and a fresh candidate vector for
    /// every one of a node's 64 fingers, the selector called per finger.
    fn routing_state_reference(
        ids: &[u64],
        ring: &[Slot],
        successors: usize,
        mut select: impl FnMut(Slot, &[Slot]) -> Slot,
    ) -> (Vec<Vec<Slot>>, Vec<Slot>) {
        let n = ring.len();
        let mut successor = vec![Slot(0); ids.len()];
        let mut table: Vec<Vec<Slot>> = vec![Vec::new(); ids.len()];

        for (r, &s) in ring.iter().enumerate() {
            successor[s.index()] = ring[(r + 1) % n];
            let mut entries: Vec<Slot> = Vec::new();
            for k in 1..=successors.min(n - 1) {
                entries.push(ring[(r + k) % n]);
            }
            let my_id = ids[s.index()];
            for i in 0..ID_BITS {
                let target = my_id.wrapping_add(1u64 << i);
                let pos = first_at_or_after(ids, ring, target);
                let mut cands = Vec::with_capacity(CANDIDATES);
                for k in 0..CANDIDATES.min(n) {
                    let c = ring[(pos + k) % n];
                    if c != s {
                        cands.push(c);
                    }
                }
                if cands.is_empty() {
                    continue;
                }
                entries.push(select(s, &cands));
            }
            entries.sort_unstable();
            entries.dedup();
            entries.retain(|&e| e != s);
            table[s.index()] = entries;
        }
        (table, successor)
    }

    /// The one-pass rule against the per-finger reference, table for table
    /// and successor for successor: every ring size from two members up,
    /// identifiers spread over the ring, half of them clustered just below
    /// `u64::MAX` (so targets wrap past it onto the spread half), and a
    /// ring over a subset of the slots (departed slots keep ids but get no
    /// entries); successor lists of 1, 3 and 8; the canonical selector, a
    /// pick-last one and PNS's nearest-by-latency one.
    #[test]
    fn one_pass_routing_matches_the_per_finger_reference() {
        let mut rng = SimRng::seed_from(40);
        let phys = generate(&TransitStubParams::ts_large(), &mut rng);
        let o = LatencyOracle::select_and_build(&phys, 1000, &mut rng);
        let m = o.len();
        let pns = |s: Slot, c: &[Slot]| {
            *c.iter().min_by_key(|&&c| o.d(s.index() % m, c.index() % m)).unwrap()
        };
        let pick_last = |_: Slot, c: &[Slot]| *c.last().unwrap();
        for n in [2usize, 3, 4, 5, 7, 16, 33, 100, 1000] {
            for layout in ["spread", "clustered below u64::MAX", "subset ring"] {
                let slots = if layout == "subset ring" { n + n / 2 + 1 } else { n };
                let mut used = std::collections::HashSet::new();
                let ids: Vec<u64> = (0..slots)
                    .map(|k| loop {
                        let id = if layout == "spread" || k % 2 == 0 {
                            rng.range(0..u64::MAX)
                        } else {
                            u64::MAX - rng.range(0..4 * n as u64)
                        };
                        if used.insert(id) {
                            break id;
                        }
                    })
                    .collect();
                let mut ring: Vec<Slot> = (0..slots as u32).map(Slot).collect();
                rng.shuffle(&mut ring);
                ring.truncate(n);
                ring.sort_by_key(|s| ids[s.index()]);
                for successors in [1, 3, 8] {
                    let case = format!("n {n}, {layout}, {successors} successors");
                    assert_eq!(
                        routing_state(&ids, &ring, successors, canonical),
                        routing_state_reference(&ids, &ring, successors, canonical),
                        "{case}, canonical"
                    );
                    assert_eq!(
                        routing_state(&ids, &ring, successors, pick_last),
                        routing_state_reference(&ids, &ring, successors, pick_last),
                        "{case}, pick-last"
                    );
                    assert_eq!(
                        routing_state(&ids, &ring, successors, pns),
                        routing_state_reference(&ids, &ring, successors, pns),
                        "{case}, PNS"
                    );
                }
            }
        }
    }

    /// Churn's merged edge-list delta against the hashed one it replaced
    /// (`table::tests::apply_table_delta_reference`): 100 leave + join
    /// events on a 1,000-member ring, each event's tables handed to both,
    /// the reference moving a second graph. The affected lists must be
    /// equal event by event and every row of the two graphs after each.
    #[test]
    fn merged_churn_delta_matches_the_hashed_reference() {
        let mut rng = SimRng::seed_from(43);
        let phys = generate(&TransitStubParams::ts_large(), &mut rng);
        let o = Arc::new(LatencyOracle::select_and_build(&phys, 1000, &mut rng));
        let (mut ch, mut net) = Chord::build(ChordParams::default(), o, &mut rng);
        let mut reference = net.graph().clone();
        for event in 0..100 {
            let live: Vec<Slot> = net.graph().live_slots().collect();
            let victim = *rng.pick(&live).unwrap();
            let peer = net.peer(victim);
            let old = ch.table.clone();
            let affected = ch.leave(&mut net, victim);
            reference.remove_slot(victim);
            let expect =
                crate::table::tests::apply_table_delta_reference(&mut reference, &old, &ch.table);
            assert_eq!(affected, expect, "event {event}, leave of {victim:?}");

            let old = ch.table.clone();
            let (slot, affected) = ch.join(&mut net, peer);
            assert_eq!(reference.add_slot(), slot);
            let expect =
                crate::table::tests::apply_table_delta_reference(&mut reference, &old, &ch.table);
            assert_eq!(affected, expect, "event {event}, join at {slot:?}");
            for s in 0..reference.num_slots() as u32 {
                assert_eq!(
                    net.graph().neighbors(Slot(s)),
                    reference.neighbors(Slot(s)),
                    "event {event}, slot {s}"
                );
            }
            assert!(net.graph() == &reference, "event {event}: the graphs' caches differ");
        }
    }
}
