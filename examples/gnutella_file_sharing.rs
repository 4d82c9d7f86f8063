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

use prop::baselines::{LtmConfig, LtmSim};
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
    let (_, probe_net, wl_rng) = build(42);
    let live: Vec<Slot> = probe_net.graph().live_slots().collect();
    let pairs = LookupGen::new(&wl_rng).skewed_pairs(&live, is_fast, 0.8, 1500);
    let cv0 = degree_summary(probe_net.graph()).cv;
    let base =
        avg_lookup_latency(&probe_net, &Gnutella { params: GnutellaParams::default() }, &pairs);
    println!("unoptimized swarm: {:.1} ms mean lookup, degree CV {cv0:.3}\n", base.mean_ms);
    println!("{:<10} {:>14} {:>12} {:>14}", "scheme", "lookup (ms)", "vs base", "degree-CV drift");

    // PROP-O — the paper's recommendation for heterogeneous swarms.
    {
        let (gn, net, mut rng) = build(42);
        let mut sim = ProtocolSim::new(net, PropConfig::prop_o(), &mut rng);
        sim.run_for(Duration::from_minutes(HORIZON_MIN));
        report("PROP-O", &gn, &sim.into_net(), &pairs, base.mean_ms, cv0);
    }
    // PROP-G — still helps, but swaps hubs out of their positions.
    {
        let (gn, net, mut rng) = build(42);
        let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
        sim.run_for(Duration::from_minutes(HORIZON_MIN));
        report("PROP-G", &gn, &sim.into_net(), &pairs, base.mean_ms, cv0);
    }
    // LTM — cuts/adds freely, deforming the degree distribution.
    {
        let (gn, net, mut rng) = build(42);
        let mut sim = LtmSim::new(net, LtmConfig::default(), &mut rng);
        sim.run_for(Duration::from_minutes(HORIZON_MIN));
        report("LTM", &gn, &sim.into_net(), &pairs, base.mean_ms, cv0);
    }
}

fn report(
    label: &str,
    gn: &Gnutella,
    net: &OverlayNet,
    pairs: &[(Slot, Slot)],
    base_ms: f64,
    cv0: f64,
) {
    let s = avg_lookup_latency(net, gn, pairs);
    let cv = degree_summary(net.graph()).cv;
    println!(
        "{label:<10} {:>14.1} {:>11.1}% {:>14.4}",
        s.mean_ms,
        (s.mean_ms / base_ms - 1.0) * 100.0,
        (cv - cv0).abs()
    );
}
