//! Churn stress: sustained heavy join/leave against a running PROP overlay
//! must never violate the structural invariants.

use prop::prelude::*;
use prop::workloads::churn::{ChurnReplay, ChurnTrace};
use std::sync::Arc;

fn run_storm(seed: u64, policy_cfg: PropConfig, leaves_per_min: f64) {
    let mut rng = SimRng::seed_from(seed);
    let phys = generate(&TransitStubParams::ts_small(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 100, &mut rng));
    let (gn, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
    let mut sim = ProtocolSim::new(net, policy_cfg, &mut rng);
    let mut churn_rng = SimRng::seed_from(seed ^ 0xbeef);

    let trace = ChurnTrace::poisson(
        SimTime::ZERO + Duration::from_minutes(5),
        Duration::from_minutes(40),
        leaves_per_min,
        leaves_per_min,
        &mut churn_rng,
    );
    assert!(!trace.events.is_empty());

    // Never fewer than 30 peers; the invariants hold after *every* churn
    // event.
    let end = trace.events.last().unwrap().0;
    ChurnReplay::new(&trace).play_until(end, &mut sim, &gn, &mut churn_rng, 30, |sim, t, _| {
        assert!(sim.net().graph().is_connected(), "partition at {t:?}");
        assert!(sim.net().placement().is_consistent(), "placement broken at {t:?}");
    });
    // Let the protocol settle afterwards; it should still be improving.
    let stretch_post_churn = sim.net().stretch();
    sim.run_for(Duration::from_minutes(30));
    assert!(sim.net().graph().is_connected());
    assert!(
        sim.net().stretch() <= stretch_post_churn * 1.05,
        "stretch should not blow up after churn settles: {:.2} → {:.2}",
        stretch_post_churn,
        sim.net().stretch()
    );
}

#[test]
fn propg_survives_heavy_churn() {
    run_storm(1, PropConfig::prop_g(), 6.0);
}

#[test]
fn propo_survives_heavy_churn() {
    run_storm(2, PropConfig::prop_o(), 6.0);
}

#[test]
fn propo_m1_survives_extreme_churn() {
    run_storm(3, PropConfig::prop_o_m(1), 12.0);
}

#[test]
fn population_can_shrink_and_regrow() {
    let mut rng = SimRng::seed_from(9);
    let phys = generate(&TransitStubParams::ts_small(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, 60, &mut rng));
    let (gn, net) = Gnutella::build(GnutellaParams::default(), oracle, &mut rng);
    let mut sim = ProtocolSim::new(net, PropConfig::prop_o(), &mut rng);
    sim.run_for(Duration::from_minutes(5));

    // Remove a third of the overlay, then bring everyone back.
    let mut absent = Vec::new();
    for _ in 0..20 {
        let victim = sim.net().graph().pick_live(&mut rng, None).unwrap();
        let peer = sim.net().peer(victim);
        let affected = gn.leave(sim.net_mut(), victim, &mut rng);
        sim.handle_leave(victim, &affected);
        absent.push(peer);
        assert!(sim.net().graph().is_connected());
    }
    assert_eq!(sim.net().graph().num_live(), 40);
    sim.run_for(Duration::from_minutes(10));

    for peer in absent {
        let slot = gn.join(sim.net_mut(), peer, &mut rng);
        sim.handle_join(slot);
        assert!(sim.net().graph().is_connected());
    }
    assert_eq!(sim.net().graph().num_live(), 60);
    sim.run_for(Duration::from_minutes(20));
    assert!(sim.net().placement().is_consistent());
    assert!(sim.overhead().exchanges > 0);
}
