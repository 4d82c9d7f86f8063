//! A heterogeneous file-sharing swarm: why PROP-O instead of LTM.
//!
//! The paper's motivating unstructured workload: a Gnutella-like swarm
//! where 20% of peers are fast, well-provisioned hubs holding the popular
//! content. We optimize the same initial swarm three ways — PROP-O, PROP-G,
//! LTM — and compare (a) lookup latency for hub-bound queries and (b) how
//! much each scheme deformed the degree distribution the swarm relies on.
//!
//! ```text
//! cargo run --release --example gnutella_file_sharing
//! ```

use prop::metrics::degree::degree_summary;
use prop::prelude::*;
use prop::workloads::hetero;
use std::sync::Arc;

const N: usize = 300;
const HORIZON_MIN: u64 = 60;

fn main() {
    let mut rng = SimRng::seed_from(42);
    let phys = generate(&TransitStubParams::ts_large(), &mut rng);
    let oracle = Arc::new(LatencyOracle::select_and_build(&phys, N, &mut rng));

    // Fast hubs: the earliest joiners, which preferential attachment makes
    // the high-degree nodes.
    let hubs = hetero::hub_correlated(N);
    let is_fast = |s: Slot| hubs.is_fast[s.index()];

    let build = |seed: u64| {
        let mut rng = SimRng::seed_from(seed);
        let (gn, mut net) =
            Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut rng);
        net.set_processing_delays(hubs.delay_ms.clone());
        (gn, net, rng)
    };

    // One workload, shared by every scheme: 80% of queries target the hubs.
    // A pair names two *peers* (before optimization peer i sits at slot i);
    // every scheme is measured where its placement put them, so PROP-G's
    // relocated hubs are still the hubs the queries want.
    let (gn, net0, wl_rng) = build(42);
    let peers: Vec<Slot> = net0.graph().live_slots().collect();
    let pairs = LookupGen::new(&wl_rng).skewed_pairs(&peers, is_fast, 0.8, 1500);
    let cv0 = degree_summary(net0.graph()).cv;
    let base = lookup_ms(&gn, &net0, &pairs);
    println!("unoptimized swarm: {base:.1} ms mean lookup, degree CV {cv0:.3}\n");
    println!("{:<10} {:>14} {:>12} {:>14}", "scheme", "lookup (ms)", "vs base", "degree-CV drift");

    // PROP-O — the paper's recommendation for heterogeneous swarms.
    let propo = {
        let (gn, net, mut rng) = build(42);
        let mut sim = ProtocolSim::new(net, PropConfig::prop_o(), &mut rng);
        sim.run_for(Duration::from_minutes(HORIZON_MIN));
        report("PROP-O", &gn, &sim.into_net(), &pairs, base, cv0)
    };
    // PROP-G — still helps, but swaps hubs out of their positions.
    let propg = {
        let (gn, net, mut rng) = build(42);
        let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
        sim.run_for(Duration::from_minutes(HORIZON_MIN));
        report("PROP-G", &gn, &sim.into_net(), &pairs, base, cv0)
    };
    // LTM — cuts/adds freely, deforming the degree distribution.
    let ltm = {
        let (gn, net, mut rng) = build(42);
        let mut sim = RewiringSim::new(net, Rewiring::LTM, &mut rng);
        sim.run_for(Duration::from_minutes(HORIZON_MIN));
        report("LTM", &gn, &sim.into_net(), &pairs, base, cv0)
    };

    // Every scheme helps; only LTM deforms the degree distribution, and
    // PROP-O, which keeps the hubs in place, beats PROP-G here.
    for (ms, _) in [propo, propg, ltm] {
        assert!(ms < base, "{ms:.1} ms is no better than the unoptimized {base:.1} ms");
    }
    assert_eq!(propo.1, 0.0, "PROP-O changed a degree");
    assert_eq!(propg.1, 0.0, "PROP-G changed a degree");
    assert!(ltm.1 > 0.0, "LTM kept the degree distribution");
    assert!(propo.0 < propg.0, "PROP-O {:.1} ms not below PROP-G {:.1} ms", propo.0, propg.0);
}

/// Mean delay of the peer-space lookups `pairs` on `net`, each peer looked
/// up at the slot it holds there.
fn lookup_ms(gn: &Gnutella, net: &OverlayNet, pairs: &[(Slot, Slot)]) -> f64 {
    let slot = |peer: Slot| net.placement().slot_of(peer.index()).expect("peer present");
    let slot_pairs: Vec<(Slot, Slot)> = pairs.iter().map(|&(s, d)| (slot(s), slot(d))).collect();
    avg_lookup_latency(net, gn, &slot_pairs).mean_ms
}

/// Print one scheme's row; returns its mean lookup delay and degree-CV drift.
fn report(
    label: &str,
    gn: &Gnutella,
    net: &OverlayNet,
    pairs: &[(Slot, Slot)],
    base_ms: f64,
    cv0: f64,
) -> (f64, f64) {
    let ms = lookup_ms(gn, net, pairs);
    let drift = (degree_summary(net.graph()).cv - cv0).abs();
    println!("{label:<10} {ms:>14.1} {:>11.1}% {drift:>14.4}", (ms / base_ms - 1.0) * 100.0);
    (ms, drift)
}
