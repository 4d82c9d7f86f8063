//! `Vec<Vec<Slot>>` routing-table → logical-graph helpers.
//!
//! Chord keeps a per-slot routing table (successor list + fingers) and
//! derives the undirected [`LogicalGraph`] as the union of the directed
//! entries. The build wires the union once; a join or leave diffs old vs
//! new tables and applies the edge delta so churn only touches affected
//! nodes. Kept apart from Chord so any future table-based overlay (Pastry
//! leaf sets, say) reuses them.

use crate::logical::{LogicalGraph, Slot};
use std::collections::HashSet;

/// The undirected edge set implied by a routing table: `{a, b}` for every
/// directed entry `a → b`, normalized to `(min, max)`.
pub fn edge_set(table: &[Vec<Slot>]) -> HashSet<(Slot, Slot)> {
    let mut set = HashSet::new();
    for (i, entries) in table.iter().enumerate() {
        let s = Slot(i as u32);
        for &e in entries {
            set.insert((s.min(e), s.max(e)));
        }
    }
    set
}

/// Fresh graph over `n` slots wired with `table`'s undirected edge union.
pub fn graph_from_table(n: usize, table: &[Vec<Slot>]) -> LogicalGraph {
    let mut g = LogicalGraph::new(n);
    for (i, entries) in table.iter().enumerate() {
        let s = Slot(i as u32);
        for &e in entries {
            if !g.has_edge(s, e) {
                g.add_edge(s, e);
            }
        }
    }
    g
}

/// Mutate `g` from `old`'s edge union to `new`'s, edge by edge. Returns the
/// live slots whose neighbor lists changed, **sorted ascending** — callers
/// resync protocol state per affected slot, and a deterministic order keeps
/// whole-simulation runs reproducible.
pub fn apply_table_delta(g: &mut LogicalGraph, old: &[Vec<Slot>], new: &[Vec<Slot>]) -> Vec<Slot> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_set_normalizes_direction() {
        let table = vec![vec![Slot(1)], vec![Slot(0)], vec![]];
        let set = edge_set(&table);
        assert_eq!(set.len(), 1);
        assert!(set.contains(&(Slot(0), Slot(1))));
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
}
