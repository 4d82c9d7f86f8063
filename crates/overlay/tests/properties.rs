//! Property tests for the overlay substrate: logical-graph bookkeeping,
//! placement bijectivity, probe walks, and CAN's zone geometry, over
//! randomized inputs.

use prop_engine::SimRng;
use prop_netsim::graph::{LinkClass, NodeClass, PhysGraphBuilder};
use prop_netsim::{LatencyOracle, OracleConfig};
use prop_overlay::can::Can;
use prop_overlay::walk::random_walk;
use prop_overlay::{LogicalGraph, Lookup, Placement, Slot};
use std::sync::Arc;

const CASES: u64 = 256;

/// A trivial complete-graph oracle (distance = |i − j| · 10 ms) for tests
/// that only need *some* metric.
fn line_oracle(n: usize) -> Arc<LatencyOracle> {
    let mut b = PhysGraphBuilder::new();
    let ids: Vec<_> = (0..n).map(|_| b.add_node(NodeClass::Transit { domain: 0 })).collect();
    for w in ids.windows(2) {
        b.add_link(w[0], w[1], 10, LinkClass::TransitTransit);
    }
    let g = b.build();
    Arc::new(LatencyOracle::try_build_with(&g, ids, &OracleConfig::default()).expect("connected"))
}

/// LogicalGraph bookkeeping (edge counts, degrees, symmetry) survives
/// arbitrary add/remove/kill sequences.
#[test]
fn logical_graph_bookkeeping() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let n = rng.range(3..24u32);
        let mut g = LogicalGraph::new(n as usize);
        let mut edges: Vec<(Slot, Slot)> = Vec::new();
        let mut alive: Vec<bool> = vec![true; n as usize];
        for _ in 0..rng.range(1..60usize) {
            match rng.range(0..3u32) {
                0 => {
                    let (a, b) = (rng.range(0..24u32) % n, rng.range(0..24u32) % n);
                    let (sa, sb) = (Slot(a), Slot(b));
                    if a != b && alive[a as usize] && alive[b as usize] && !g.has_edge(sa, sb) {
                        g.add_edge(sa, sb);
                        edges.push((sa.min(sb), sa.max(sb)));
                    }
                }
                1 => {
                    let i = rng.range(0..64usize);
                    if !edges.is_empty() {
                        let (a, b) = edges.swap_remove(i % edges.len());
                        g.remove_edge(a, b);
                    }
                }
                _ => {
                    let s = rng.range(0..24u32) % n;
                    if alive[s as usize] {
                        g.remove_slot(Slot(s));
                        alive[s as usize] = false;
                        edges.retain(|&(a, b)| a != Slot(s) && b != Slot(s));
                    }
                }
            }
            assert_eq!(g.num_edges(), edges.len(), "case {case}");
            let degree_sum: usize = g.live_slots().map(|s| g.degree(s)).sum();
            assert_eq!(degree_sum, 2 * edges.len(), "case {case}: handshake lemma violated");
            for &(a, b) in &edges {
                assert!(g.has_edge(a, b) && g.has_edge(b, a), "case {case}");
            }
        }
    }
}

/// Placement stays a bijection under arbitrary swap sequences, and any even
/// number of repeated swaps of the same pair is the identity.
#[test]
fn placement_is_always_a_bijection() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let n = rng.range(2..30usize);
        let mut p = Placement::identity(n);
        for _ in 0..rng.range(0..60usize) {
            let (a, b) = (rng.range(0..30usize) % n, rng.range(0..30usize) % n);
            if a != b {
                p.swap_slots(Slot(a as u32), Slot(b as u32));
            }
            assert!(p.is_consistent(), "case {case}");
            // Round-trip: every peer found through its slot.
            for peer in 0..n {
                let slot = p.slot_of(peer).unwrap();
                assert_eq!(p.peer(slot), peer, "case {case}");
            }
        }
    }
}

/// Random walks never repeat a node, always follow edges, and respect the
/// TTL, on arbitrary connected graphs.
#[test]
fn walks_are_simple_paths() {
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let (n, extra) = (gen.range(4..30u32), gen.range(0..40usize));
        let nhops = gen.range(1..6u32);
        let mut rng = SimRng::seed_from(gen.range(0..10_000u64));
        let mut g = LogicalGraph::new(n as usize);
        for i in 1..n {
            let parent = rng.range(0..i);
            g.add_edge(Slot(i), Slot(parent));
        }
        for _ in 0..extra {
            let a = Slot(rng.range(0..n));
            let b = Slot(rng.range(0..n));
            if a != b && !g.has_edge(a, b) {
                g.add_edge(a, b);
            }
        }
        let origin = Slot(rng.range(0..n));
        let nbrs = g.neighbors(origin).to_vec();
        let first = *rng.pick(&nbrs).unwrap();
        let w = random_walk(&g, origin, first, nhops, &mut rng);
        assert!(w.path.len() as u32 <= nhops + 1, "case {case}");
        assert_eq!(w.path[0], origin, "case {case}");
        let mut sorted = w.path.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), w.path.len(), "case {case}: walk revisited a node");
        for pair in w.path.windows(2) {
            assert!(g.has_edge(pair[0], pair[1]), "case {case}");
        }
    }
}

/// CAN zones always tile the unit torus exactly, and every greedy route
/// terminates, for arbitrary join-point sets.
#[test]
fn can_always_tiles_and_routes() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let n = rng.range(2..40usize);
        let pts: Vec<[f64; 2]> =
            (0..n).map(|_| [rng.range(0.0..1.0), rng.range(0.0..1.0)]).collect();
        let (can, net) = Can::build_at(pts, line_oracle(n));
        let area: f64 = (0..n as u32)
            .map(|s| {
                let z = can.zone(Slot(s));
                z.extent(0) * z.extent(1)
            })
            .sum();
        assert!((area - 1.0).abs() < 1e-9, "case {case}: area {area}");
        assert!(net.graph().is_connected(), "case {case}");
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                assert!(can.lookup(&net, Slot(a), Slot(b)).is_some(), "case {case}: {a} → {b}");
            }
        }
    }
}
