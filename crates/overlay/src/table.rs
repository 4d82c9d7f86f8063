//! Routing-table (`Vec<Vec<Slot>>`) → logical-graph helpers, and the id
//! draw Pastry and Kademlia share.
//!
//! A structured overlay's graph is the undirected union of its per-slot
//! routing entries. [`sorted_edges`] lists that union once, sorted; a build
//! wires it in one pass and a Chord join or leave merges the old list with
//! the new one, touching only the edges that differ.

use crate::logical::{LogicalGraph, Slot};
use prop_engine::SimRng;

/// `n` distinct random 128-bit identifiers, in draw order: each is two
/// `u64` draws (high word first), and a repeat is drawn again.
pub(crate) fn distinct_u128_ids(rng: &mut SimRng, n: usize) -> Vec<u128> {
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
    ids
}

/// The undirected edge set implied by a routing table: `{a, b}` for every
/// directed entry `a → b`, normalized to `(min, max)`, sorted and deduped.
pub fn sorted_edges(table: &[Vec<Slot>]) -> Vec<(Slot, Slot)> {
    let mut edges: Vec<(Slot, Slot)> = Vec::with_capacity(table.iter().map(Vec::len).sum());
    for (i, entries) in table.iter().enumerate() {
        let s = Slot(i as u32);
        edges.extend(entries.iter().map(|&e| (s.min(e), s.max(e))));
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Fresh graph over `n` slots wired with `table`'s undirected edge union.
pub fn graph_from_table(n: usize, table: &[Vec<Slot>]) -> LogicalGraph {
    LogicalGraph::from_sorted_edges(n, &sorted_edges(table))
}

/// Mutate `g` from `old`'s edge union to `new`'s in one merge pass over
/// their [`sorted_edges`]: an edge only `old` has is removed, one only
/// `new` has is added. Returns the live slots whose neighbor lists changed,
/// **sorted ascending** — callers resync protocol state per affected slot,
/// and a deterministic order keeps whole-simulation runs reproducible.
pub fn apply_table_delta(g: &mut LogicalGraph, old: &[Vec<Slot>], new: &[Vec<Slot>]) -> Vec<Slot> {
    let (old, new) = (sorted_edges(old), sorted_edges(new));
    let (mut i, mut j, mut affected) = (0, 0, Vec::new());
    while i < old.len() || j < new.len() {
        let gone = match (old.get(i), new.get(j)) {
            (Some(o), Some(e)) if o == e => {
                (i, j) = (i + 1, j + 1);
                continue;
            }
            (Some(o), Some(e)) => o < e,
            (o, _) => o.is_some(),
        };
        let (a, b) = if gone { old[i] } else { new[j] };
        if gone && g.has_edge(a, b) {
            g.remove_edge(a, b);
        } else if !gone && !g.has_edge(a, b) {
            g.add_edge(a, b);
        }
        affected.extend([a, b]);
        (i, j) = if gone { (i + 1, j) } else { (i, j + 1) };
    }
    affected.sort_unstable();
    affected.dedup();
    affected.retain(|&s| g.is_alive(s));
    affected
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The delta [`apply_table_delta`] replaced, kept as its twin: both
    /// whole tables hashed into `HashSet`s, every removal applied before
    /// any addition, the affected slots collected into a third set.
    pub(crate) fn apply_table_delta_reference(
        g: &mut LogicalGraph,
        old: &[Vec<Slot>],
        new: &[Vec<Slot>],
    ) -> Vec<Slot> {
        let edge_set = |table: &[Vec<Slot>]| -> HashSet<(Slot, Slot)> {
            let mut set = HashSet::new();
            for (i, entries) in table.iter().enumerate() {
                let s = Slot(i as u32);
                for &e in entries {
                    set.insert((s.min(e), s.max(e)));
                }
            }
            set
        };
        let old_edges = edge_set(old);
        let new_edges = edge_set(new);
        let mut affected: HashSet<Slot> = HashSet::new();
        for &(a, b) in old_edges.difference(&new_edges) {
            if g.has_edge(a, b) {
                g.remove_edge(a, b);
            }
            affected.insert(a);
            affected.insert(b);
        }
        for &(a, b) in new_edges.difference(&old_edges) {
            if !g.has_edge(a, b) {
                g.add_edge(a, b);
            }
            affected.insert(a);
            affected.insert(b);
        }
        let mut affected: Vec<Slot> = affected.into_iter().filter(|&s| g.is_alive(s)).collect();
        affected.sort_unstable();
        affected
    }

    #[test]
    fn edge_set_normalizes_direction() {
        let table = vec![vec![Slot(1)], vec![Slot(0)], vec![]];
        assert_eq!(sorted_edges(&table), vec![(Slot(0), Slot(1))]);
        let table = vec![vec![Slot(2), Slot(1)], vec![Slot(0), Slot(2)], vec![Slot(0)]];
        assert_eq!(
            sorted_edges(&table),
            vec![(Slot(0), Slot(1)), (Slot(0), Slot(2)), (Slot(1), Slot(2))]
        );
    }

    #[test]
    fn graph_from_table_unions_entries() {
        let table = vec![vec![Slot(1), Slot(2)], vec![Slot(0)], vec![]];
        let g = graph_from_table(3, &table);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(Slot(0), Slot(1)));
        assert!(g.has_edge(Slot(0), Slot(2)));
        assert!(!g.has_edge(Slot(1), Slot(2)));
    }

    #[test]
    fn delta_reaches_new_table_state() {
        let old = vec![vec![Slot(1)], vec![Slot(2)], vec![], vec![]];
        let new = vec![vec![Slot(3)], vec![Slot(2)], vec![], vec![]];
        let mut g = graph_from_table(4, &old);
        let affected = apply_table_delta(&mut g, &old, &new);
        let expect = graph_from_table(4, &new);
        for i in 0..4u32 {
            assert_eq!(g.neighbors(Slot(i)), expect.neighbors(Slot(i)));
        }
        // 0 lost {0,1} and gained {0,3}; 1 lost {0,1}; 3 gained {0,3}.
        assert_eq!(affected, vec![Slot(0), Slot(1), Slot(3)]);
    }

    #[test]
    fn affected_is_sorted_and_live_only() {
        let old: Vec<Vec<Slot>> = vec![vec![], vec![], vec![], vec![]];
        let new = vec![vec![Slot(3), Slot(2)], vec![], vec![], vec![]];
        let mut g = LogicalGraph::new(4);
        g.add_edge(Slot(1), Slot(2)); // keep 2 connected, then kill 1
        let affected = apply_table_delta(&mut g, &old, &new);
        assert_eq!(affected, vec![Slot(0), Slot(2), Slot(3)]);
    }

    /// Pastry and Kademlia built at 20,000 members over `scaled(20_000)`,
    /// both graphs connected. The sorted-ring builds take about a second
    /// in release on a 2-vCPU VM; the all-pairs builds they replaced took
    /// about 90 s, so a quadratic path coming back fails CI's 30 s
    /// timeout around this test.
    #[test]
    #[ignore = "20,000-member structured builds; run in release"]
    fn pastry_and_kademlia_build_at_20000_members() {
        use crate::{kademlia::Kademlia, pastry::Pastry};
        use prop_netsim::{generate, LatencyOracle, TransitStubParams};
        use std::sync::Arc;
        let mut rng = SimRng::seed_from(1);
        let phys = generate(&TransitStubParams::scaled(20_000), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 20_000, &mut rng));
        let (_, pastry) = Pastry::build(Arc::clone(&oracle), &mut rng);
        assert!(pastry.graph().is_connected(), "Pastry at 20,000 members is disconnected");
        let (_, kademlia) = Kademlia::build(oracle, &mut rng);
        assert!(kademlia.graph().is_connected(), "Kademlia at 20,000 members is disconnected");
    }
}
