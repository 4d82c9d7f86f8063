//! PROP on the two-tier (ultrapeer/leaf) Gnutella: the architecture whose
//! bimodal degree structure makes degree preservation non-negotiable.

use prop::overlay::ultrapeer::Ultrapeer;
use prop::prelude::*;
use std::sync::Arc;

fn setup(n: usize, seed: u64) -> (Ultrapeer, OverlayNet, SimRng) {
    let mut rng = SimRng::seed_from(seed);
    let phys = generate(&TransitStubParams::ts_small(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
    let (up, net) = Ultrapeer::build(oracle, &mut rng);
    (up, net, rng)
}

#[test]
fn propo_improves_two_tier_lookups_and_keeps_the_architecture() {
    let (up, net, rng) = setup(150, 1);
    let live: Vec<Slot> = net.graph().live_slots().collect();
    let pairs = LookupGen::new(&rng).uniform_pairs(&live, 600);
    let before = avg_lookup_latency(&net, &up, &pairs);
    assert_eq!(before.failed, 0, "two-tier floods must deliver");

    // Leaf degrees before: exactly leaf_links each.
    let leaf_degrees: Vec<usize> =
        live.iter().filter(|&&s| !up.is_ultrapeer(s)).map(|&s| net.graph().degree(s)).collect();

    let mut rng2 = SimRng::seed_from(2);
    let mut sim = ProtocolSim::new(net, PropConfig::prop_o(), &mut rng2);
    sim.run_for(Duration::from_minutes(60));
    let net = sim.into_net();

    let after = avg_lookup_latency(&net, &up, &pairs);
    assert!(
        after.mean_ms < before.mean_ms,
        "two-tier lookups should improve: {:.1} → {:.1}",
        before.mean_ms,
        after.mean_ms
    );
    // The bimodal degree architecture survives PROP-O exactly.
    let leaf_degrees_after: Vec<usize> =
        live.iter().filter(|&&s| !up.is_ultrapeer(s)).map(|&s| net.graph().degree(s)).collect();
    assert_eq!(leaf_degrees, leaf_degrees_after);
    assert!(net.graph().is_connected());
}

#[test]
fn propg_improves_two_tier_lookups_with_identical_topology() {
    let (up, net, rng) = setup(150, 3);
    let live: Vec<Slot> = net.graph().live_slots().collect();
    let pairs = LookupGen::new(&rng).uniform_pairs(&live, 600);
    let before = avg_lookup_latency(&net, &up, &pairs);
    let edges: Vec<_> = net.graph().edges().collect();

    let mut rng2 = SimRng::seed_from(4);
    let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng2);
    sim.run_for(Duration::from_minutes(60));
    let exchanges = sim.overhead().exchanges;
    let net = sim.into_net();

    assert_eq!(edges, net.graph().edges().collect::<Vec<_>>());
    let after = avg_lookup_latency(&net, &up, &pairs);
    assert!(after.mean_ms < before.mean_ms, "{:.1} → {:.1}", before.mean_ms, after.mean_ms);
    assert!(exchanges > 0);
}

#[test]
fn propg_swaps_capable_peers_into_the_mesh() {
    // Give ultrapeer *positions* the heavy traffic (they relay all floods)
    // and measure whether PROP-G reduces the mean latency between mesh
    // positions specifically — the tier that matters for query routing.
    let (up, net, _) = setup(200, 5);
    let ups: Vec<Slot> = net.graph().live_slots().filter(|&s| up.is_ultrapeer(s)).collect();
    let mesh_latency = |net: &OverlayNet| -> f64 {
        let mut total = 0u64;
        let mut cnt = 0u64;
        for &a in &ups {
            for &b in &ups {
                if a != b {
                    total += net.d(a, b) as u64;
                    cnt += 1;
                }
            }
        }
        total as f64 / cnt as f64
    };
    let before = mesh_latency(&net);
    let mut rng = SimRng::seed_from(6);
    let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
    sim.run_for(Duration::from_minutes(90));
    let net = sim.into_net();
    let after = mesh_latency(&net);
    assert!(after < before, "mesh-position pairwise latency should drop: {before:.1} → {after:.1}");
}
