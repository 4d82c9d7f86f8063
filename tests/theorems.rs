//! Property-based tests for the paper's §4 theorems, run against randomized
//! overlays and exchange sequences (seeded loops: one `SimRng` per case, the
//! case number in every failure message).
//!
//! * Theorem 1 (connectivity persistence): no PROP-G/PROP-O exchange ever
//!   disconnects a connected overlay.
//! * Theorem 2 (isomorphic characteristic): PROP-G leaves the logical graph
//!   literally identical (our placement construction makes the isomorphism
//!   the identity on slots).
//! * Degree preservation: PROP-O never changes any node's degree.
//! * The Var identity (§4.2): applying a plan changes total logical link
//!   latency by exactly −Var.

use prop::core::exchange::{self, PlanKind};
use prop::core::Policy;
use prop::netsim::graph::{LinkClass, NodeClass, PhysGraphBuilder};
use prop::overlay::walk::random_walk;
use prop::prelude::*;
use std::sync::Arc;

const CASES: u64 = 256;

/// A random physical "line-with-chords" metric: n hosts on a 10 ms line
/// plus a few random shortcut links, giving irregular but metric distances.
fn line_oracle(n: usize, shortcut_seed: u64) -> Arc<LatencyOracle> {
    let mut b = PhysGraphBuilder::new();
    let ids: Vec<_> = (0..n).map(|_| b.add_node(NodeClass::Transit { domain: 0 })).collect();
    for w in ids.windows(2) {
        b.add_link(w[0], w[1], 10, LinkClass::TransitTransit);
    }
    let mut rng = SimRng::seed_from(shortcut_seed);
    for _ in 0..n / 4 {
        let a = rng.range(0..n);
        let c = rng.range(0..n);
        if a != c && !b.has_link(ids[a], ids[c]) {
            b.add_link(ids[a], ids[c], rng.range(5..50u32), LinkClass::TransitTransit);
        }
    }
    let g = b.build();
    Arc::new(LatencyOracle::try_build_with(&g, ids, &OracleConfig::default()).expect("connected"))
}

/// A random connected overlay (spanning tree + extra random edges).
fn random_net(n: usize, extra_edges: usize, seed: u64) -> OverlayNet {
    let mut rng = SimRng::seed_from(seed);
    let oracle = line_oracle(n, seed ^ 0xdead);
    let mut g = LogicalGraph::new(n);
    for i in 1..n as u32 {
        let parent = rng.range(0..i);
        g.add_edge(Slot(i), Slot(parent));
    }
    for _ in 0..extra_edges {
        let a = Slot(rng.range(0..n as u32));
        let b = Slot(rng.range(0..n as u32));
        if a != b && !g.has_edge(a, b) {
            g.add_edge(a, b);
        }
    }
    OverlayNet::new(g, Placement::identity(n), oracle)
}

/// Theorems 1+2 under PROP-G: connectivity and the exact logical graph
/// survive arbitrary accepted-exchange sequences.
#[test]
fn propg_preserves_connectivity_and_topology() {
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let (n, extra) = (gen.range(6..40usize), gen.range(0..30usize));
        let (seed, steps) = (gen.range(0..10_000u64), gen.range(1..60usize));

        let mut net = random_net(n, extra, seed);
        let mut rng = SimRng::seed_from(seed.wrapping_mul(31));
        let edges_before: Vec<_> = net.graph().edges().collect();
        assert!(net.graph().is_connected(), "case {case}");
        for _ in 0..steps {
            let u = Slot(rng.range(0..n as u32));
            let v = Slot(rng.range(0..n as u32));
            if u == v {
                continue;
            }
            let plan = exchange::plan_propg(&net, u, v);
            if plan.var > 0 {
                exchange::apply(&mut net, &plan);
            }
            assert!(net.graph().is_connected(), "case {case}: Theorem 1 violated");
        }
        assert_eq!(
            edges_before,
            net.graph().edges().collect::<Vec<_>>(),
            "case {case}: Theorem 2 violated: logical graph changed"
        );
        assert!(net.placement().is_consistent(), "case {case}");
    }
}

/// Theorem 1 + degree preservation under PROP-O with real probe walks.
#[test]
fn propo_preserves_connectivity_and_degrees() {
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let (n, extra) = (gen.range(8..40usize), gen.range(4..30usize));
        let (seed, steps) = (gen.range(0..10_000u64), gen.range(1..60usize));
        let (nhops, m) = (gen.range(2..5u32), gen.range(1..4usize));

        let mut net = random_net(n, extra, seed);
        let mut rng = SimRng::seed_from(seed.wrapping_mul(37));
        let degrees_before: Vec<usize> =
            (0..n as u32).map(|i| net.graph().degree(Slot(i))).collect();
        for _ in 0..steps {
            let u = Slot(rng.range(0..n as u32));
            let nbrs = net.graph().neighbors(u).to_vec();
            let Some(&first) = rng.pick(&nbrs) else { continue };
            let walk = random_walk(net.graph(), u, first, nhops, &mut rng);
            if walk.counterpart(nhops).is_none() {
                continue;
            }
            if let Some(plan) =
                exchange::plan_exchange(&net, Policy::PropO { m: Some(m) }, &walk, m)
            {
                if plan.var > 0 {
                    exchange::apply(&mut net, &plan);
                }
            }
            assert!(net.graph().is_connected(), "case {case}: Theorem 1 violated");
        }
        let degrees_after: Vec<usize> =
            (0..n as u32).map(|i| net.graph().degree(Slot(i))).collect();
        assert_eq!(degrees_before, degrees_after, "case {case}: PROP-O changed a degree");
    }
}

/// §4.2: Var equals the exact total-latency delta, for both policies.
#[test]
fn var_is_exact_latency_delta() {
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let (n, extra) = (gen.range(6..30usize), gen.range(2..20usize));
        let seed = gen.range(0..10_000u64);

        let mut net = random_net(n, extra, seed);
        let mut rng = SimRng::seed_from(seed.wrapping_mul(41));

        // PROP-G between two random slots (applied regardless of sign, to
        // exercise negative Var too).
        let u = Slot(rng.range(0..n as u32));
        let v = Slot(rng.range(0..n as u32));
        if u != v {
            let before = net.total_link_latency() as i64;
            let plan = exchange::plan_propg(&net, u, v);
            exchange::apply(&mut net, &plan);
            let after = net.total_link_latency() as i64;
            assert_eq!(before - after, plan.var, "case {case}: PROP-G Var mismatch");
        }

        // PROP-O from a random walk.
        let u = Slot(rng.range(0..n as u32));
        let nbrs = net.graph().neighbors(u).to_vec();
        if let Some(&first) = rng.pick(&nbrs) {
            let walk = random_walk(net.graph(), u, first, 2, &mut rng);
            if walk.counterpart(2).is_some() {
                if let Some(plan) = exchange::plan_propo(&net, &walk, 2) {
                    let before = net.total_link_latency() as i64;
                    exchange::apply(&mut net, &plan);
                    let after = net.total_link_latency() as i64;
                    assert_eq!(before - after, plan.var, "case {case}: PROP-O Var mismatch");
                }
            }
        }
    }
}

/// PROP-O plans never touch the probe path and never duplicate edges.
#[test]
fn propo_plans_are_well_formed() {
    let mut plans = 0;
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let (n, extra) = (gen.range(8..35usize), gen.range(4..25usize));
        let (seed, m) = (gen.range(0..10_000u64), gen.range(1..5usize));

        let net = random_net(n, extra, seed);
        let mut rng = SimRng::seed_from(seed.wrapping_mul(43));
        let u = Slot(rng.range(0..n as u32));
        let nbrs = net.graph().neighbors(u).to_vec();
        let Some(&first) = rng.pick(&nbrs) else { continue };
        let walk = random_walk(net.graph(), u, first, 3, &mut rng);
        if walk.counterpart(3).is_none() {
            continue;
        }
        let Some(plan) = exchange::plan_propo(&net, &walk, m) else { continue };
        plans += 1;
        let v = *walk.path.last().unwrap();
        let PlanKind::Subset { from_u, from_v } = &plan.kind else {
            panic!("case {case}: PROP-O produced a non-subset plan");
        };
        assert_eq!(from_u.len(), from_v.len(), "case {case}: unequal exchange");
        assert!(from_u.len() <= m, "case {case}");
        for &x in from_u {
            assert!(!walk.contains(x), "case {case}");
            assert!(net.graph().has_edge(u, x), "case {case}");
            assert!(!net.graph().has_edge(v, x), "case {case}: duplicate edge would form");
        }
        for &y in from_v {
            assert!(!walk.contains(y), "case {case}");
            assert!(net.graph().has_edge(v, y), "case {case}");
            assert!(!net.graph().has_edge(u, y), "case {case}: duplicate edge would form");
        }
    }
    assert!(plans > CASES / 4, "only {plans} of {CASES} cases produced a plan to check");
}
