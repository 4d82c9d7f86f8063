//! Cross-crate integration: the full pipeline from topology generation to
//! optimized overlays, for all three overlay families and both protocols.

use prop::baselines::pis::build_pis_can;
use prop::baselines::pns::build_pns_chord;
use prop::prelude::*;
use std::sync::Arc;

fn setup(n: usize, seed: u64) -> (Arc<LatencyOracle>, SimRng) {
    let mut rng = SimRng::seed_from(seed);
    let phys = generate(&TransitStubParams::ts_small(), &mut rng);
    assert!(phys.is_connected());
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng));
    (oracle, rng)
}

#[test]
fn propg_improves_gnutella_lookups_end_to_end() {
    let (oracle, mut rng) = setup(150, 1);
    let (gn, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
    let live: Vec<Slot> = net.graph().live_slots().collect();
    let pairs = LookupGen::new(&rng).uniform_pairs(&live, 600);
    let before = avg_lookup_latency(&net, &gn, &pairs);

    let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
    sim.run_for(Duration::from_minutes(60));
    let net = sim.into_net();
    let after = avg_lookup_latency(&net, &gn, &pairs);

    assert!(before.failed == 0 && after.failed == 0, "TTL-7 floods should deliver");
    assert!(
        after.mean_ms < before.mean_ms * 0.95,
        "lookups should get ≥5% faster: {:.1} → {:.1}",
        before.mean_ms,
        after.mean_ms
    );
}

#[test]
fn propo_improves_gnutella_and_keeps_power_law() {
    let (oracle, mut rng) = setup(150, 2);
    let (gn, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
    let degseq = net.graph().degree_sequence();
    let live: Vec<Slot> = net.graph().live_slots().collect();
    let pairs = LookupGen::new(&rng).uniform_pairs(&live, 600);
    let before = avg_lookup_latency(&net, &gn, &pairs);

    let mut sim = ProtocolSim::new(net, PropConfig::prop_o(), &mut rng);
    sim.run_for(Duration::from_minutes(60));
    let net = sim.into_net();

    assert_eq!(net.graph().degree_sequence(), degseq, "PROP-O must preserve degrees");
    let after = avg_lookup_latency(&net, &gn, &pairs);
    assert!(after.mean_ms < before.mean_ms, "{:.1} → {:.1}", before.mean_ms, after.mean_ms);
}

#[test]
fn propg_improves_chord_stretch_without_touching_routing() {
    let (oracle, mut rng) = setup(150, 3);
    let (chord, net) = Chord::build(ChordParams::default(), oracle, &mut rng);
    let live: Vec<Slot> = net.graph().live_slots().collect();
    let pairs = LookupGen::new(&rng).uniform_pairs(&live, 600);
    let s0 = path_stretch(&net, &chord, &pairs).mean;
    let hops0: u32 = pairs.iter().map(|&(a, b)| chord.lookup(&net, a, b).unwrap().hops).sum();

    let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
    sim.run_for(Duration::from_minutes(60));
    let net = sim.into_net();

    let s1 = path_stretch(&net, &chord, &pairs).mean;
    let hops1: u32 = pairs.iter().map(|&(a, b)| chord.lookup(&net, a, b).unwrap().hops).sum();
    assert_eq!(hops0, hops1, "identifier swaps must not change any route");
    assert!(s1 < s0, "stretch should drop: {s0:.2} → {s1:.2}");
}

#[test]
fn propg_improves_can_stretch() {
    let (oracle, mut rng) = setup(120, 4);
    let (can, net) = Can::build(oracle, &mut rng);
    let live: Vec<Slot> = net.graph().live_slots().collect();
    let pairs = LookupGen::new(&rng).uniform_pairs(&live, 500);
    let s0 = path_stretch(&net, &can, &pairs).mean;

    let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
    sim.run_for(Duration::from_minutes(60));
    let net = sim.into_net();
    let s1 = path_stretch(&net, &can, &pairs).mean;
    assert!(s1 < s0, "CAN stretch should drop: {s0:.2} → {s1:.2}");
}

#[test]
fn stacking_propg_on_pns_and_pis_never_hurts() {
    let (oracle, mut rng) = setup(120, 5);
    let live: Vec<Slot> = (0..120).map(Slot).collect();
    let pairs = LookupGen::new(&rng).uniform_pairs(&live, 500);

    let (pns, net) = build_pns_chord(ChordParams::default(), Arc::clone(&oracle), &mut rng);
    let s0 = path_stretch(&net, &pns, &pairs).mean;
    let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
    sim.run_for(Duration::from_minutes(45));
    let s1 = path_stretch(&sim.into_net(), &pns, &pairs).mean;
    assert!(s1 <= s0 * 1.02, "PNS+PROP-G regressed: {s0:.2} → {s1:.2}");

    let (pis, net) = build_pis_can(oracle, &mut rng);
    let c0 = path_stretch(&net, &pis, &pairs).mean;
    let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
    sim.run_for(Duration::from_minutes(45));
    let c1 = path_stretch(&sim.into_net(), &pis, &pairs).mean;
    assert!(c1 <= c0 * 1.02, "PIS+PROP-G regressed: {c0:.2} → {c1:.2}");
}

#[test]
fn ltm_and_prop_both_beat_unoptimized() {
    let (oracle, mut rng) = setup(120, 6);
    let (gn, net) = Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);
    let base = net.mean_link_latency();

    let mut prop_sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
    prop_sim.run_for(Duration::from_minutes(45));
    let prop_lat = prop_sim.into_net().mean_link_latency();

    let (_, net2) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
    let mut ltm_sim = RewiringSim::new(net2, Rewiring::LTM, &mut rng);
    ltm_sim.run_for(Duration::from_minutes(45));
    let ltm_lat = ltm_sim.into_net().mean_link_latency();

    assert!(prop_lat < base, "PROP-G: {base:.1} → {prop_lat:.1}");
    assert!(ltm_lat < base, "LTM: {base:.1} → {ltm_lat:.1}");
    let _ = gn;
}

#[test]
fn heterogeneous_lookup_pipeline() {
    use prop::workloads::hetero;
    let (oracle, mut rng) = setup(100, 7);
    let assignment = hetero::hub_correlated(100);
    let (gn, mut net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
    net.set_processing_delays(assignment.delay_ms.clone());

    let live: Vec<Slot> = net.graph().live_slots().collect();
    let is_fast = |s: Slot| assignment.is_fast[net.peer(s)];
    let fast_pairs = LookupGen::new(&rng).skewed_pairs(&live, is_fast, 1.0, 300);
    let slow_pairs = LookupGen::new(&rng).skewed_pairs(&live, is_fast, 0.0, 300);
    let fast = avg_lookup_latency(&net, &gn, &fast_pairs);
    let slow = avg_lookup_latency(&net, &gn, &slow_pairs);
    // Destination processing delay alone separates the two classes.
    assert!(
        fast.mean_ms < slow.mean_ms,
        "fast-destination lookups should be quicker: {:.1} vs {:.1}",
        fast.mean_ms,
        slow.mean_ms
    );
}
