//! Kademlia DHT.
//!
//! A fourth structured geometry, rounding out PROP-G's "any overlay"
//! claim: Kademlia's XOR metric and k-bucket tables are the design behind
//! the largest deployed DHTs (BitTorrent's Mainline, eMule's Kad).
//!
//! * Identifiers are 128-bit; `distance(a, b) = a XOR b` (a true metric:
//!   symmetric and satisfying the triangle inequality under XOR).
//! * Node `u` keeps a **k-bucket** per prefix length `i`: up to `k` nodes
//!   whose XOR distance from `u` has its highest set bit at position `i`
//!   (i.e. shares exactly `127 − i` leading bits).
//! * Routing greedily forwards to the known node closest (by XOR) to the
//!   target; each hop fixes at least one more leading bit, giving
//!   O(log n) hops.
//!
//! A bucket keeps the first [`K`] nodes it meets when the nodes join one
//! by one in a random order, each meeting every earlier node: its subtree's
//! `K` oldest members, which the build reads off the trie of sorted ids.
//!
//! Identifiers belong to slots (as in [`crate::chord`] and
//! [`crate::pastry`]), so a PROP-G exchange is a placement transposition
//! and Kademlia's structure is untouched.

use crate::logical::Slot;
use crate::net::OverlayNet;
use crate::placement::Placement;
use crate::{FloodScratch, Lookup, RouteOutcome};
use prop_engine::SimRng;
use prop_netsim::LatencyOracle;
use std::sync::Arc;

/// Bucket capacity `k` (Kademlia's replication parameter; 20 in the
/// paper, smaller here to keep simulated state proportionate).
pub const K: usize = 8;

/// The Kademlia overlay structure.
#[derive(Clone, Debug)]
pub struct Kademlia {
    ids: Vec<u128>,
    /// Slots sorted by id: the leaves of the id trie, in order.
    ring: Vec<Slot>,
    /// Per slot: all its buckets in one contact list, sorted by slot.
    contacts: Vec<Vec<Slot>>,
}

/// Where a trie range (two or more slots sorted by distinct id) splits: the
/// highest bit its ids differ in, above which they all agree, and the
/// position of the first id with that bit set.
fn split(ids: &[u128], range: &[Slot]) -> (u32, usize) {
    let bit = 127 - (ids[range[0].index()] ^ ids[range[range.len() - 1].index()]).leading_zeros();
    (bit, range.partition_point(|s| ids[s.index()] >> bit & 1 == 0))
}

/// Give every member of a trie range its buckets at the range's split and
/// below, and return the range's [`K`] oldest members (lowest `joined`).
/// Each half is the other's bucket at the split bit and holds its `K`
/// oldest there, merged from its own halves'.
fn fill_buckets(
    ids: &[u128],
    joined: &[usize],
    range: &[Slot],
    contacts: &mut [Vec<Slot>],
) -> Vec<Slot> {
    if range.len() == 1 {
        return range.to_vec();
    }
    let (low, high) = range.split_at(split(ids, range).1);
    let oldest_low = fill_buckets(ids, joined, low, contacts);
    let oldest_high = fill_buckets(ids, joined, high, contacts);
    low.iter().for_each(|s| contacts[s.index()].extend_from_slice(&oldest_high));
    high.iter().for_each(|s| contacts[s.index()].extend_from_slice(&oldest_low));
    let mut oldest = [oldest_low, oldest_high].concat();
    oldest.sort_unstable_by_key(|s| joined[s.index()]);
    oldest.truncate(K);
    oldest
}

/// Every slot's contact list, sorted, from the slots sorted by id and the
/// join order (`order[pos]` joined at `pos`).
fn contact_lists(ids: &[u128], ring: &[Slot], order: &[usize]) -> Vec<Vec<Slot>> {
    let mut joined = vec![0; ids.len()];
    order.iter().enumerate().for_each(|(pos, &s)| joined[s] = pos);
    let mut contacts = vec![Vec::new(); ids.len()];
    fill_buckets(ids, &joined, ring, &mut contacts);
    contacts.iter_mut().for_each(|list| list.sort_unstable());
    contacts
}

impl Kademlia {
    /// Build over `oracle.len()` slots with random distinct identifiers,
    /// joining in a random order. Bucket `i` of a slot (the nodes sharing
    /// exactly `127 − i` leading bits with it) holds the [`K`] of them that
    /// joined first, or all if fewer.
    pub fn build(oracle: Arc<LatencyOracle>, rng: &mut SimRng) -> (Kademlia, OverlayNet) {
        let n = oracle.len();
        assert!(n >= 2, "Kademlia needs at least two nodes");
        let mut rng = rng.fork("kademlia-build");
        let ids = crate::table::distinct_u128_ids(&mut rng, n);
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut ring: Vec<Slot> = (0..n as u32).map(Slot).collect();
        ring.sort_by_key(|s| ids[s.index()]);
        let contacts = contact_lists(&ids, &ring, &order);

        let g = crate::table::graph_from_table(n, &contacts);
        let kad = Kademlia { ids, ring, contacts };
        let net = OverlayNet::new(g, Placement::identity(n), oracle);
        (kad, net)
    }

    #[inline]
    pub fn id(&self, s: Slot) -> u128 {
        self.ids[s.index()]
    }

    /// The slot whose id is XOR-closest to `key`: down the id trie, at each
    /// split into the half whose split bit is `key`'s.
    pub fn owner_of(&self, key: u128) -> Slot {
        let mut range = &self.ring[..];
        while range.len() > 1 {
            let (bit, mid) = split(&self.ids, range);
            range = if key >> bit & 1 == 0 { &range[..mid] } else { &range[mid..] };
        }
        range[0]
    }

    /// Greedy XOR route from `src` to the owner of `key`, each hop to the
    /// contact XOR-closest to `key` among those closer than the current
    /// node. A node other than the owner always has one: where its id first
    /// differs from the owner's, its bucket holds a node of the owner's
    /// side, which is closer. `None` (no closer contact) is only a guard.
    pub fn route_path(&self, src: Slot, key: u128) -> Option<Vec<Slot>> {
        let dst = self.owner_of(key);
        let mut path = vec![src];
        let mut cur = src;
        let mut cur_d = self.ids[cur.index()] ^ key;
        while cur != dst {
            let mut best: Option<(u128, Slot)> = None;
            for &c in &self.contacts[cur.index()] {
                let d = self.ids[c.index()] ^ key;
                if d < cur_d && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, c));
                }
            }
            match best {
                Some((d, next)) => {
                    path.push(next);
                    cur = next;
                    cur_d = d;
                }
                None => return None, // no closer contact
            }
        }
        Some(path)
    }
}

impl Lookup for Kademlia {
    fn lookup_with(
        &self,
        net: &OverlayNet,
        src: Slot,
        dst: Slot,
        _: &mut FloodScratch,
    ) -> Option<RouteOutcome> {
        let path = self.route_path(src, self.ids[dst.index()])?;
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

    fn build(n: usize, seed: u64) -> (Kademlia, OverlayNet) {
        let mut rng = SimRng::seed_from(seed);
        Kademlia::build(oracle(n, seed), &mut rng)
    }

    #[test]
    fn owner_minimizes_xor_distance() {
        let (kad, _) = build(25, 1);
        for s in 0..25u32 {
            assert_eq!(kad.owner_of(kad.id(Slot(s))), Slot(s));
        }
        let mut rng = SimRng::seed_from(2);
        for _ in 0..50 {
            let key = ((rng.range(0..u64::MAX) as u128) << 64) | rng.range(0..u64::MAX) as u128;
            let owner = kad.owner_of(key);
            let od = kad.id(owner) ^ key;
            for s in 0..25u32 {
                assert!(kad.id(Slot(s)) ^ key >= od);
            }
        }
    }

    #[test]
    fn nearly_all_lookups_deliver() {
        let (kad, net) = build(40, 3);
        let mut ok = 0;
        let mut total = 0;
        for a in 0..40u32 {
            for b in 0..40u32 {
                if a != b {
                    total += 1;
                    if let Some(out) = kad.lookup(&net, Slot(a), Slot(b)) {
                        ok += 1;
                        assert!(out.hops >= 1);
                    }
                }
            }
        }
        assert!(ok as f64 / total as f64 > 0.99, "delivery {ok}/{total}");
    }

    #[test]
    fn hops_are_logarithmic() {
        let (kad, net) = build(40, 4);
        let mut total = 0u64;
        let mut cnt = 0u64;
        for a in 0..40u32 {
            for b in 0..40u32 {
                if a != b {
                    if let Some(out) = kad.lookup(&net, Slot(a), Slot(b)) {
                        total += out.hops as u64;
                        cnt += 1;
                    }
                }
            }
        }
        let avg = total as f64 / cnt as f64;
        assert!(avg < 4.0, "avg hops {avg}");
    }

    #[test]
    fn xor_distance_decreases_monotonically() {
        let (kad, _) = build(30, 5);
        let key = kad.id(Slot(17));
        if let Some(path) = kad.route_path(Slot(2), key) {
            let mut prev = kad.id(Slot(2)) ^ key;
            for &s in &path[1..] {
                let d = kad.id(s) ^ key;
                assert!(d < prev);
                prev = d;
            }
        }
    }

    #[test]
    fn buckets_respect_capacity() {
        let mut rng = SimRng::seed_from(6);
        let (kad, _) = Kademlia::build(oracle(30, 6), &mut rng);
        // Every (node, bit) bucket holds ≤ K contacts, and at 30 nodes the
        // far buckets have more than K candidates, so some bucket is full.
        let mut full = 0;
        for s in 0..30u32 {
            let mut per_bit: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for &c in &kad.contacts[s as usize] {
                let d = kad.id(Slot(s)) ^ kad.id(c);
                let bit = 127 - d.leading_zeros();
                *per_bit.entry(bit).or_insert(0) += 1;
            }
            // `contacts` holds only entries this node inserted itself (the
            // undirected union lives in the logical graph), so every bucket
            // obeys the capacity exactly.
            for (&bit, &count) in per_bit.iter() {
                assert!(count <= K, "slot {s} bit {bit} holds {count} > K");
                full += usize::from(count == K);
            }
        }
        assert!(full > 0, "no bucket reached its capacity of {K}");
    }

    #[test]
    fn logical_graph_connected() {
        let (_, net) = build(30, 7);
        assert!(net.graph().is_connected());
    }

    #[test]
    fn prop_g_swaps_keep_routes_identical() {
        let (kad, mut net) = build(30, 8);
        let before: Vec<Option<u32>> =
            (0..30).map(|b| kad.lookup(&net, Slot(0), Slot(b)).map(|o| o.hops)).collect();
        net.swap_peers(Slot(3), Slot(22));
        net.swap_peers(Slot(9), Slot(14));
        let after: Vec<Option<u32>> =
            (0..30).map(|b| kad.lookup(&net, Slot(0), Slot(b)).map(|o| o.hops)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn deterministic_build() {
        let (a, _) = build(20, 9);
        let (b, _) = build(20, 9);
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.contacts, b.contacts);
    }

    /// The join loop [`contact_lists`] replaced, kept as its twin: each
    /// joiner meets every earlier node, and both sides insert the other
    /// while the matching bucket holds fewer than [`K`].
    fn contact_lists_reference(ids: &[u128], order: &[usize]) -> Vec<Vec<Slot>> {
        let n = ids.len();
        let mut contacts: Vec<Vec<Slot>> = vec![Vec::new(); n];
        let mut bucket_fill: Vec<std::collections::HashMap<u32, usize>> =
            vec![std::collections::HashMap::new(); n];
        for (pos, &joiner) in order.iter().enumerate() {
            for &earlier in &order[..pos] {
                let d = ids[joiner] ^ ids[earlier];
                let bit = 127 - d.leading_zeros();
                for (a, b) in [(joiner, earlier), (earlier, joiner)] {
                    let fill = bucket_fill[a].entry(bit).or_insert(0);
                    if *fill < K {
                        *fill += 1;
                        contacts[a].push(Slot(b as u32));
                    }
                }
            }
        }
        for list in contacts.iter_mut() {
            list.sort_unstable();
            list.dedup();
        }
        contacts
    }

    /// The scan [`Kademlia::owner_of`] replaced: the lowest slot of least
    /// XOR distance.
    fn owner_of_reference(kad: &Kademlia, key: u128) -> Slot {
        let mut best = Slot(0);
        let mut best_d = kad.ids[0] ^ key;
        for i in 1..kad.ids.len() {
            let d = kad.ids[i] ^ key;
            if d < best_d {
                best_d = d;
                best = Slot(i as u32);
            }
        }
        best
    }

    /// The trie fill and the trie descent against the join loop and the
    /// scan: nine overlay sizes from two members up, four seeds, ids spread
    /// over the whole space or half of them clustered under one 100-bit
    /// prefix (deep, lopsided trie); every contact list, then `owner_of` on
    /// every id, its neighbours one above and below, and 200 random keys.
    #[test]
    fn trie_buckets_and_descent_match_the_join_loop_and_the_scan() {
        for n in [2usize, 3, 5, 9, 17, 40, 100, 300, 1000] {
            for seed in 0..4u64 {
                for layout in ["spread", "clustered"] {
                    let case = format!("n {n}, seed {seed}, {layout}");
                    let mut rng = SimRng::seed_from(seed);
                    let mut ids = crate::table::distinct_u128_ids(&mut rng, n);
                    if layout == "clustered" {
                        let prefix = ids[0] & !((1u128 << 28) - 1);
                        for id in ids.iter_mut().skip(1).step_by(2) {
                            *id = prefix | (*id & ((1 << 28) - 1));
                        }
                        let mut seen = std::collections::HashSet::new();
                        ids.retain(|&id| seen.insert(id));
                    }
                    let mut order: Vec<usize> = (0..ids.len()).collect();
                    rng.shuffle(&mut order);
                    let mut ring: Vec<Slot> = (0..ids.len() as u32).map(Slot).collect();
                    ring.sort_by_key(|s| ids[s.index()]);
                    let contacts = contact_lists(&ids, &ring, &order);
                    assert_eq!(contacts, contact_lists_reference(&ids, &order), "{case}");

                    let kad = Kademlia { ids, ring, contacts };
                    let mut keys: Vec<u128> = Vec::new();
                    for &id in &kad.ids {
                        keys.extend([id, id.wrapping_add(1), id.wrapping_sub(1)]);
                    }
                    keys.extend((0..200).map(|_| {
                        ((rng.range(0..u64::MAX) as u128) << 64) | rng.range(0..u64::MAX) as u128
                    }));
                    for key in keys {
                        assert_eq!(
                            kad.owner_of(key),
                            owner_of_reference(&kad, key),
                            "{case}, key {key:#x}"
                        );
                    }
                }
            }
        }
    }
}
