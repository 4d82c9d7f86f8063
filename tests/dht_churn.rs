//! PROP-G on a *churning* Chord ring: the structured half of the paper's
//! dynamic-environment claim. Peers leave and rejoin mid-optimization; the
//! routing tables stabilize after every event; PROP-G keeps swapping
//! identifiers; every invariant holds throughout.

use prop::core::{PropConfig, ProtocolSim};
use prop::prelude::*;
use std::sync::Arc;

fn setup(n: usize, seed: u64) -> (Chord, ProtocolSim, SimRng) {
    let mut rng = SimRng::seed_from(seed);
    let phys = generate(&TransitStubParams::ts_small(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
    let (dc, net) = Chord::build(ChordParams::default(), oracle, &mut rng);
    let sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
    (dc, sim, rng)
}

#[test]
fn propg_optimizes_a_churning_ring() {
    let (mut dc, mut sim, mut rng) = setup(120, 1);
    let live: Vec<Slot> = sim.net().graph().live_slots().collect();
    let pairs = LookupGen::new(&rng).uniform_pairs(&live, 400);
    let initial = path_stretch(sim.net(), &dc, &pairs).mean;

    let mut absent: Vec<usize> = Vec::new();
    for round in 0..12 {
        sim.run_for(Duration::from_minutes(8));
        // Alternate a leave and a join per round.
        if round % 2 == 0 {
            let victim = sim.net().graph().pick_live(&mut rng, None).unwrap();
            let peer = sim.net().peer(victim);
            let affected = dc.leave(sim.net_mut(), victim);
            sim.handle_leave(victim, &affected);
            absent.push(peer);
        } else if let Some(peer) = absent.pop() {
            let (slot, affected) = dc.join(sim.net_mut(), peer);
            sim.handle_join(slot);
            // The join rewired other nodes' fingers too; their protocol
            // state resyncs exactly as the paper's churn handling says.
            sim.handle_rewire(&affected);
        }
        assert!(sim.net().graph().is_connected());
        assert!(sim.net().placement().is_consistent());
        // Routing still terminates everywhere among the living.
        let live_now: Vec<Slot> = sim.net().graph().live_slots().collect();
        for &a in live_now.iter().take(10) {
            for &b in live_now.iter().take(10) {
                let out = dc.lookup(sim.net(), a, b).unwrap();
                assert!(out.hops as usize <= live_now.len());
            }
        }
    }

    // Measure stretch over pairs whose endpoints survived.
    let live_final: std::collections::HashSet<Slot> = sim.net().graph().live_slots().collect();
    let surviving: Vec<(Slot, Slot)> = pairs
        .iter()
        .copied()
        .filter(|&(a, b)| live_final.contains(&a) && live_final.contains(&b))
        .collect();
    assert!(surviving.len() > 200);
    let final_stretch = path_stretch(sim.net(), &dc, &surviving).mean;
    assert!(
        final_stretch < initial,
        "PROP-G should beat the initial stretch despite churn: {initial:.2} → {final_stretch:.2}"
    );
    assert!(sim.overhead().exchanges > 0);
}

#[test]
fn heavy_dht_churn_never_breaks_invariants() {
    let (mut dc, mut sim, mut rng) = setup(80, 2);
    let mut absent: Vec<usize> = Vec::new();
    for i in 0..60 {
        sim.run_for(Duration::from_minutes(1));
        if (i % 3 != 2 || absent.is_empty()) && sim.net().graph().num_live() > 20 {
            let victim = sim.net().graph().pick_live(&mut rng, None).unwrap();
            let peer = sim.net().peer(victim);
            let affected = dc.leave(sim.net_mut(), victim);
            sim.handle_leave(victim, &affected);
            absent.push(peer);
        } else if let Some(peer) = absent.pop() {
            let (slot, affected) = dc.join(sim.net_mut(), peer);
            sim.handle_join(slot);
            sim.handle_rewire(&affected);
        }
        assert!(sim.net().graph().is_connected(), "partition at event {i}");
        assert!(sim.net().placement().is_consistent());
    }
    // Ring bookkeeping and graph agree on the live population.
    assert_eq!(dc.ring_len(), sim.net().graph().num_live());
}
