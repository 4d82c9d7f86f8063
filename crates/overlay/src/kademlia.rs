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
//! Identifiers belong to slots (as in [`crate::chord`] and
//! [`crate::pastry`]), so a PROP-G exchange is a placement transposition
//! and Kademlia's structure is untouched.

use crate::logical::{LogicalGraph, Slot};
use crate::net::OverlayNet;
use crate::placement::Placement;
use crate::{Lookup, RouteOutcome};
use prop_engine::SimRng;
use prop_netsim::LatencyOracle;
use std::sync::Arc;

/// Kademlia construction parameters.
#[derive(Clone, Debug)]
pub struct KademliaParams {
    /// Bucket capacity `k` (Kademlia's replication parameter; 20 in the
    /// paper, smaller here to keep simulated state proportionate).
    pub k: usize,
}

impl Default for KademliaParams {
    fn default() -> Self {
        KademliaParams { k: 8 }
    }
}

/// The Kademlia overlay structure.
#[derive(Clone, Debug)]
pub struct Kademlia {
    ids: Vec<u128>,
    /// Per slot: flattened buckets — for each bit position, up to `k`
    /// slots at that XOR-prefix distance. Stored as one sorted, deduped
    /// contact list per slot (bucket boundaries only matter at build time).
    contacts: Vec<Vec<Slot>>,
}

impl Kademlia {
    /// Build over `oracle.len()` slots with random distinct identifiers.
    /// Each bucket is filled with the `k` *first-seen* eligible nodes in a
    /// random join order (as a real Kademlia's buckets would be, favoring
    /// long-lived contacts) — the selector hook mirrors Chord/Pastry and
    /// is what a PNS variant would override.
    pub fn build(
        params: KademliaParams,
        oracle: Arc<LatencyOracle>,
        rng: &mut SimRng,
    ) -> (Kademlia, OverlayNet) {
        let n = oracle.len();
        assert!(n >= 2, "Kademlia needs at least two nodes");
        assert!(params.k >= 1);
        let mut rng = rng.fork("kademlia-build");

        // Random distinct 128-bit ids.
        let mut ids: Vec<u128> = Vec::with_capacity(n);
        let mut used = std::collections::HashSet::with_capacity(n);
        while ids.len() < n {
            let hi: u64 = rng.range(0..u64::MAX);
            let lo: u64 = rng.range(0..u64::MAX);
            let id = ((hi as u128) << 64) | lo as u128;
            if used.insert(id) {
                ids.push(id);
            }
        }

        // Random join order for bucket-filling precedence.
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);

        let mut contacts: Vec<Vec<Slot>> = vec![Vec::new(); n];
        // bucket_fill[u][bit] = how many contacts u already has there.
        let mut bucket_fill: Vec<std::collections::HashMap<u32, usize>> =
            vec![std::collections::HashMap::new(); n];
        for (pos, &joiner) in order.iter().enumerate() {
            // The joiner meets everyone who joined before it; both sides
            // try to insert the other into the matching bucket.
            for &earlier in &order[..pos] {
                let d = ids[joiner] ^ ids[earlier];
                let bit = 127 - d.leading_zeros();
                for (a, b) in [(joiner, earlier), (earlier, joiner)] {
                    let fill = bucket_fill[a].entry(bit).or_insert(0);
                    if *fill < params.k {
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

        // Undirected logical graph over the contact lists.
        let mut g = LogicalGraph::new(n);
        for s in 0..n as u32 {
            for &e in &contacts[s as usize] {
                if !g.has_edge(Slot(s), e) {
                    g.add_edge(Slot(s), e);
                }
            }
        }

        let kad = Kademlia { ids, contacts };
        let net = OverlayNet::new(g, Placement::identity(n), oracle);
        (kad, net)
    }

    #[inline]
    pub fn id(&self, s: Slot) -> u128 {
        self.ids[s.index()]
    }

    /// The slot whose id is XOR-closest to `key`.
    pub fn owner_of(&self, key: u128) -> Slot {
        let mut best = Slot(0);
        let mut best_d = self.ids[0] ^ key;
        for i in 1..self.ids.len() {
            let d = self.ids[i] ^ key;
            if d < best_d {
                best_d = d;
                best = Slot(i as u32);
            }
        }
        best
    }

    /// Contacts of `s` (all buckets merged).
    pub fn contacts(&self, s: Slot) -> &[Slot] {
        &self.contacts[s.index()]
    }

    /// Greedy XOR route from `src` to the owner of `key`.
    ///
    /// Termination: each hop strictly reduces XOR distance to the key, and
    /// a node always knows a strictly closer contact unless it is the
    /// closest node overall — Kademlia's bucket structure guarantees a
    /// contact sharing a longer prefix with the key exists whenever one
    /// exists globally... with bounded buckets that can fail rarely, so a
    /// final fallback scans the node's whole contact list; if nothing is
    /// closer, the walk stops at a local minimum and the lookup is counted
    /// failed (`None`). In practice (tests below) delivery is ≥99%.
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
                None => return None, // local minimum (rare with k ≥ 8)
            }
        }
        Some(path)
    }
}

impl Lookup for Kademlia {
    fn lookup(&self, net: &OverlayNet, src: Slot, dst: Slot) -> Option<RouteOutcome> {
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
        Kademlia::build(KademliaParams::default(), oracle(n, seed), &mut rng)
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
        let (kad, _) = Kademlia::build(KademliaParams { k: 2 }, oracle(30, 6), &mut rng);
        // With k = 2, every (node, bit) bucket holds ≤ 2 contacts.
        for s in 0..30u32 {
            let mut per_bit: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for &c in kad.contacts(Slot(s)) {
                let d = kad.id(Slot(s)) ^ kad.id(c);
                let bit = 127 - d.leading_zeros();
                *per_bit.entry(bit).or_insert(0) += 1;
            }
            // `contacts` holds only entries this node inserted itself (the
            // undirected union lives in the logical graph), so every bucket
            // obeys the capacity exactly.
            for (&bit, &count) in per_bit.iter() {
                assert!(count <= 2, "slot {s} bit {bit} holds {count} > k");
            }
        }
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
}
