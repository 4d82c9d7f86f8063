//! Cross-validation of the production PROP-G implementation against the
//! paper's literal description.
//!
//! Production PROP-G is a *placement transposition* (slot bookkeeping);
//! the paper describes it as two peers *exchanging their neighbor sets*
//! (Figure 1). These must be the same operation on the peer-space overlay.
//! This test drives full protocol runs and checks, exchange by exchange,
//! that the two formulations agree — and that the Theorem-2 transposition
//! witness validates.

use prop::core::exchange::{self, PlanKind};
use prop::overlay::iso::{
    is_isomorphic_via, peer_adjacency, reference_propg_exchange, transposition,
};
use prop::prelude::*;
use std::sync::Arc;

const CASES: u64 = 256;

fn gnutella_net(n: usize, seed: u64) -> OverlayNet {
    let mut rng = SimRng::seed_from(seed);
    let phys = generate(&TransitStubParams::tiny(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
    let (_, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
    net
}

/// Placement-swap PROP-G ≡ neighbor-set-exchange PROP-G, in peer space.
#[test]
fn production_equals_reference() {
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let (seed, swaps) = (gen.range(0..5_000u64), gen.range(1..25usize));

        let mut net = gnutella_net(24, seed);
        let mut rng = SimRng::seed_from(seed ^ 0xabcd);
        let mut reference = peer_adjacency(&net);
        for _ in 0..swaps {
            let a = Slot(rng.range(0..24u32));
            let b = Slot(rng.range(0..24u32));
            if a == b {
                continue;
            }
            let (pa, pb) = (net.peer(a), net.peer(b));
            let plan = exchange::plan_propg(&net, a, b);
            assert_eq!(plan.kind, PlanKind::SwapAll, "case {case}");
            exchange::apply(&mut net, &plan);
            reference = reference_propg_exchange(&reference, pa, pb);
            assert_eq!(
                peer_adjacency(&net),
                reference,
                "case {case}: placement swap diverged from the paper's neighbor exchange"
            );
        }
    }
}

/// Theorem 2 witness: the slot transposition is a verified isomorphism
/// between the peer-space graphs before and after an exchange.
#[test]
fn transposition_is_an_isomorphism_witness() {
    for case in 0..CASES {
        let seed = SimRng::seed_from(case).range(0..5_000u64);
        let mut net = gnutella_net(20, seed);
        let mut rng = SimRng::seed_from(seed ^ 0x1357);
        let a = Slot(rng.range(0..20u32));
        let b = Slot(rng.range(0..20u32));
        if a == b {
            continue;
        }
        // Peer-space graphs, expressed with *peer* labels (u32 for the
        // checker).
        let before: std::collections::BTreeSet<(u32, u32)> =
            peer_adjacency(&net).into_iter().map(|(x, y)| (x as u32, y as u32)).collect();
        let (pa, pb) = (net.peer(a), net.peer(b));
        let plan = exchange::plan_propg(&net, a, b);
        exchange::apply(&mut net, &plan);
        let after: std::collections::BTreeSet<(u32, u32)> =
            peer_adjacency(&net).into_iter().map(|(x, y)| (x as u32, y as u32)).collect();
        // φ = the transposition of the two *peers*.
        let phi = transposition(20, Slot(pa as u32), Slot(pb as u32));
        assert!(is_isomorphic_via(&before, &after, &phi), "case {case}");
        // And the identity is NOT a witness unless the swap was symmetric.
        let identity: Vec<u32> = (0..20).collect();
        if before != after {
            assert!(!is_isomorphic_via(&before, &after, &identity), "case {case}");
        }
    }
}

#[test]
fn full_protocol_run_stays_reference_equivalent() {
    // Run the real event-driven protocol and verify at checkpoints that the
    // peer-space overlay is a relabeling of the initial one (Theorem 2 over
    // an arbitrary number of exchanges).
    let mut rng = SimRng::seed_from(77);
    let phys = generate(&TransitStubParams::tiny(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 30, &mut rng));
    let (_, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
    let initial_edges: Vec<(Slot, Slot)> = net.graph().edges().collect();

    let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
    for _ in 0..10 {
        sim.run_for(Duration::from_minutes(6));
        // Slot-space graph is literally unchanged…
        assert_eq!(sim.net().graph().edges().collect::<Vec<_>>(), initial_edges);
        // …and the placement is the Theorem-2 bijection: peer-space edges
        // are the slot edges relabeled through it.
        let via_placement: std::collections::BTreeSet<_> = initial_edges
            .iter()
            .map(|&(a, b)| {
                let (pa, pb) = (sim.net().peer(a), sim.net().peer(b));
                (pa.min(pb), pa.max(pb))
            })
            .collect();
        assert_eq!(peer_adjacency(sim.net()), via_placement);
    }
    assert!(sim.overhead().exchanges > 0, "want a nontrivial run");
}
