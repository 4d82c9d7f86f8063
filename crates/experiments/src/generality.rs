//! G1 — the generality claim, head-on.
//!
//! "PROP-G, to the best of our knowledge, is the first scheme that can be
//! deployed effortlessly on both unstructured and structured P2P systems,
//! while preserving the logical topology." One table: the *same*
//! `prop_core::ProtocolSim` with the *same* configuration, run over six
//! overlay families, with the family's native quality metric before and
//! after, plus a structural checksum (route hop counts for DHTs; the
//! degree sequence for Gnutella) proving nothing but the placement moved.

use crate::setup::{Scale, Scenario, Scheme};
use prop_engine::{json_impl, par};
use prop_metrics::{avg_lookup_latency, path_stretch};
use prop_overlay::can::Can;
use prop_overlay::kademlia::{Kademlia, KademliaParams};
use prop_overlay::pastry::{Pastry, PastryParams};
use prop_overlay::ultrapeer::{Ultrapeer, UltrapeerParams};
use prop_overlay::{Lookup, OverlayNet, Slot};
use prop_workloads::LookupGen;
use std::sync::Arc;

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

/// The PROP-G run every family gets, settings identical.
fn optimize(scenario: &Scenario, net: OverlayNet, scale: Scale, rng_label: &str) -> OverlayNet {
    Scheme::PropG.optimize(scenario, net, &format!("g1-{rng_label}"), scale.horizon())
}

/// A flooding family: no per-lookup route, so the metric is mean lookup
/// latency and the checksum is the degree sequence.
fn flood_row(
    scenario: &Scenario,
    scale: Scale,
    label: &str,
    rng_label: &str,
    overlay: impl Lookup,
    net: OverlayNet,
    pairs: &[(Slot, Slot)],
) -> GeneralityRow {
    let initial = avg_lookup_latency(&net, &overlay, pairs).mean_ms;
    let degseq = net.graph().degree_sequence();
    let net = optimize(scenario, net, scale, rng_label);
    let final_ = avg_lookup_latency(&net, &overlay, pairs).mean_ms;
    GeneralityRow {
        overlay: label.to_string(),
        metric: "avg lookup latency (ms)".to_string(),
        initial,
        final_,
        improvement: (initial - final_) / initial,
        structure_preserved: net.graph().degree_sequence() == degseq,
    }
}

/// A DHT family: path stretch, with every route's hop count as the checksum.
fn dht_row(
    scenario: &Scenario,
    scale: Scale,
    label: &str,
    overlay: impl Lookup,
    net: OverlayNet,
    pairs: &[(Slot, Slot)],
) -> GeneralityRow {
    let hops = |net: &OverlayNet| -> Vec<Option<u32>> {
        pairs.iter().map(|&(a, b)| overlay.lookup(net, a, b).map(|o| o.hops)).collect()
    };
    let initial = path_stretch(&net, &overlay, pairs).mean;
    let hops_before = hops(&net);
    let net = optimize(scenario, net, scale, label);
    let final_ = path_stretch(&net, &overlay, pairs).mean;
    GeneralityRow {
        overlay: label.to_string(),
        metric: "path stretch".to_string(),
        initial,
        final_,
        improvement: (initial - final_) / initial,
        structure_preserved: hops_before == hops(&net),
    }
}

/// Run PROP-G over every overlay family with identical protocol settings.
pub fn run(scale: Scale, seed: u64) -> Vec<GeneralityRow> {
    let scenario = &Scenario::build(scale.topology(), scale.default_n(), seed);
    let pairs = &LookupGen::new(&scenario.rng("g1-lookups"))
        .uniform_pairs(&scenario.all_slots(), scale.lookups_per_sample());
    let oracle = || Arc::clone(&scenario.oracle);

    // Each closure builds, optimizes, and reports one family.
    let jobs: Vec<Box<dyn Fn() -> GeneralityRow + Sync + '_>> = vec![
        Box::new(|| {
            let (gn, net) = scenario.gnutella();
            flood_row(scenario, scale, "Gnutella", "gnutella", gn, net, pairs)
        }),
        Box::new(|| {
            // Two-tier Gnutella: same flooding metric, leaf-aware relays.
            let mut rng = scenario.rng("g1-ultrapeer-build");
            let (up, net) = Ultrapeer::build(UltrapeerParams::default(), oracle(), &mut rng);
            flood_row(scenario, scale, "Gnutella-2T", "ultrapeer", up, net, pairs)
        }),
        Box::new(|| {
            let (chord, net) = scenario.chord();
            dht_row(scenario, scale, "Chord", chord, net, pairs)
        }),
        Box::new(|| {
            let mut rng = scenario.rng("g1-pastry-build");
            let (pastry, net) = Pastry::build(PastryParams::default(), oracle(), &mut rng);
            dht_row(scenario, scale, "Pastry", pastry, net, pairs)
        }),
        Box::new(|| {
            let mut rng = scenario.rng("g1-kad-build");
            let (kad, net) = Kademlia::build(KademliaParams::default(), oracle(), &mut rng);
            dht_row(scenario, scale, "Kademlia", kad, net, pairs)
        }),
        Box::new(|| {
            let mut rng = scenario.rng("g1-can-build");
            let (can, net) = Can::build(oracle(), &mut rng);
            dht_row(scenario, scale, "CAN", can, net, pairs)
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
