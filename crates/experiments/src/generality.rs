//! G1 — the generality claim, head-on.
//!
//! "PROP-G, to the best of our knowledge, is the first scheme that can be
//! deployed effortlessly on both unstructured and structured P2P systems,
//! while preserving the logical topology." One table: the *same*
//! `prop_core::ProtocolSim` with the *same* configuration, run over six
//! overlay families, with the family's native quality metric before and
//! after, plus a structural checksum (route hop counts for DHTs; the
//! degree sequence for Gnutella) proving nothing but the placement moved.

use crate::setup::{Scale, Scenario, Topology};
use prop_core::{PropConfig, ProtocolSim};
use prop_engine::{json_impl, par};
use prop_metrics::{par_avg_lookup_latency, par_path_stretch};
use prop_overlay::can::Can;
use prop_overlay::kademlia::{Kademlia, KademliaParams};
use prop_overlay::pastry::{Pastry, PastryParams};
use prop_overlay::{Lookup, OverlayNet, Slot};
use prop_workloads::LookupGen;

/// One overlay family's before/after line.
#[derive(Clone, Debug)]
pub struct GeneralityRow {
    pub overlay: String,
    pub metric: String,
    pub initial: f64,
    pub final_: f64,
    pub improvement: f64,
    /// Did the structural checksum (hops / degree sequence) survive
    /// unchanged? Must always be `true` for PROP-G.
    pub structure_preserved: bool,
}

json_impl!(ToJson for struct GeneralityRow {
    overlay, metric, initial, final_, improvement, structure_preserved
});

fn optimize(scenario: &Scenario, net: OverlayNet, scale: Scale, label: &str) -> OverlayNet {
    let mut rng = scenario.rng(&format!("g1-{label}"));
    let mut sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
    sim.run_for(scale.horizon());
    sim.into_net()
}

fn dht_row(
    scenario: &Scenario,
    scale: Scale,
    label: &str,
    overlay: impl Lookup,
    net: OverlayNet,
    pairs: &[(Slot, Slot)],
) -> GeneralityRow {
    let initial = par_path_stretch(&net, &overlay, pairs).mean;
    let hops_before: Vec<Option<u32>> =
        pairs.iter().map(|&(a, b)| overlay.lookup(&net, a, b).map(|o| o.hops)).collect();
    let net = optimize(scenario, net, scale, label);
    let final_ = par_path_stretch(&net, &overlay, pairs).mean;
    let hops_after: Vec<Option<u32>> =
        pairs.iter().map(|&(a, b)| overlay.lookup(&net, a, b).map(|o| o.hops)).collect();
    GeneralityRow {
        overlay: label.to_string(),
        metric: "path stretch".to_string(),
        initial,
        final_,
        improvement: (initial - final_) / initial,
        structure_preserved: hops_before == hops_after,
    }
}

/// Run PROP-G over every overlay family with identical protocol settings.
pub fn run(scale: Scale, seed: u64) -> Vec<GeneralityRow> {
    let topo = match scale {
        Scale::Paper => Topology::TsLarge,
        Scale::Quick => Topology::TsSmall,
    };
    let n = scale.default_n();
    let scenario = Scenario::build(topo, n, seed);
    let pairs = LookupGen::new(&scenario.rng("g1-lookups"))
        .uniform_pairs(&scenario.all_slots(), scale.lookups_per_sample());

    // Each closure builds, optimizes, and reports one family.
    let jobs: Vec<Box<dyn Fn() -> GeneralityRow + Sync>> = vec![
        Box::new(|| {
            // Gnutella: flooding has no per-lookup route, so the metric is
            // mean lookup latency and the checksum is the degree sequence.
            let (gn, net) = scenario.gnutella();
            let initial = par_avg_lookup_latency(&net, &gn, &pairs).mean_ms;
            let degseq = net.graph().degree_sequence();
            let net = optimize(&scenario, net, scale, "gnutella");
            let final_ = par_avg_lookup_latency(&net, &gn, &pairs).mean_ms;
            GeneralityRow {
                overlay: "Gnutella".into(),
                metric: "avg lookup latency (ms)".into(),
                initial,
                final_,
                improvement: (initial - final_) / initial,
                structure_preserved: net.graph().degree_sequence() == degseq,
            }
        }),
        Box::new(|| {
            // Two-tier Gnutella: same flooding metric, leaf-aware relays.
            let mut rng = scenario.rng("g1-ultrapeer-build");
            let (up, net) = prop_overlay::ultrapeer::Ultrapeer::build(
                prop_overlay::ultrapeer::UltrapeerParams::default(),
                std::sync::Arc::clone(&scenario.oracle),
                &mut rng,
            );
            let initial = par_avg_lookup_latency(&net, &up, &pairs).mean_ms;
            let degseq = net.graph().degree_sequence();
            let net = optimize(&scenario, net, scale, "ultrapeer");
            let final_ = par_avg_lookup_latency(&net, &up, &pairs).mean_ms;
            GeneralityRow {
                overlay: "Gnutella-2T".into(),
                metric: "avg lookup latency (ms)".into(),
                initial,
                final_,
                improvement: (initial - final_) / initial,
                structure_preserved: net.graph().degree_sequence() == degseq,
            }
        }),
        Box::new(|| {
            let (chord, net) = scenario.chord();
            dht_row(&scenario, scale, "Chord", chord, net, &pairs)
        }),
        Box::new(|| {
            let mut rng = scenario.rng("g1-pastry-build");
            let (pastry, net) = Pastry::build(
                PastryParams::default(),
                std::sync::Arc::clone(&scenario.oracle),
                &mut rng,
            );
            dht_row(&scenario, scale, "Pastry", pastry, net, &pairs)
        }),
        Box::new(|| {
            let mut rng = scenario.rng("g1-kad-build");
            let (kad, net) = Kademlia::build(
                KademliaParams::default(),
                std::sync::Arc::clone(&scenario.oracle),
                &mut rng,
            );
            dht_row(&scenario, scale, "Kademlia", kad, net, &pairs)
        }),
        Box::new(|| {
            let mut rng = scenario.rng("g1-can-build");
            let (can, net) = Can::build(std::sync::Arc::clone(&scenario.oracle), &mut rng);
            dht_row(&scenario, scale, "CAN", can, net, &pairs)
        }),
    ];

    par::map(&jobs, |job| job())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_generality_improves_every_family() {
        let rows = run(Scale::Quick, 60);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.structure_preserved, "{}: PROP-G must not alter routes/degrees", r.overlay);
            assert!(r.improvement > 0.03, "{}: improvement {:.3}", r.overlay, r.improvement);
        }
    }
}
