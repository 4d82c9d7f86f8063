//! Figure 7 — *PROP-O vs PROP-G vs LTM in a heterogeneous environment.*
//!
//! Setup (§5.3): bimodal processing delays — 20% *fast* peers (10 ms), 80%
//! *slow* (100 ms) — on a Gnutella-like overlay. In real unstructured
//! networks powerful peers hold more connections, so the fast class is
//! assigned to the earliest joiners, whom preferential attachment makes the
//! high-degree hubs. The x-axis skews lookup *destinations* toward fast
//! peers ("the destination of lookup operations will be concentrated on
//! the powerful nodes"); the y-axis is the converged average lookup delay,
//! normalized by the unoptimized overlay's delay on the same workload.
//!
//! Expected shape: LTM is strongest when all lookups target slow peers; as
//! the fast-lookup fraction grows, PROP-G and LTM degrade (their rewiring /
//! position swaps are blind to node capability and erode the fast hubs'
//! placement advantage) while PROP-O — which provably preserves every
//! node's degree — keeps improving and crosses below them.

use crate::setup::{Scale, Scenario, Scheme};
use prop_engine::{json_impl, par};
use prop_metrics::avg_lookup_latency;
use prop_overlay::gnutella::Gnutella;
use prop_overlay::{OverlayNet, Slot};
use prop_workloads::hetero::HeteroAssignment;
use prop_workloads::{BimodalParams, LookupGen};

/// One scheme's curve: (fraction of fast-destination lookups, delay ratio).
#[derive(Clone, Debug)]
pub struct HeteroCurve {
    pub label: String,
    pub points: Vec<(f64, f64)>,
}

json_impl!(ToJson for struct HeteroCurve { label, points });

/// Fast peers are the earliest joiners: with preferential attachment, peer
/// index correlates with degree, so this reproduces "powerful nodes own
/// more connections".
pub(crate) fn hub_correlated_assignment(params: &BimodalParams, n: usize) -> HeteroAssignment {
    let n_fast = ((n as f64) * params.fast_fraction).round() as usize;
    let is_fast: Vec<bool> = (0..n).map(|p| p < n_fast).collect();
    let delay_ms = is_fast
        .iter()
        .map(|&f| if f { params.fast_delay_ms } else { params.slow_delay_ms })
        .collect();
    HeteroAssignment { delay_ms, is_fast }
}

/// The scenario's Gnutella overlay with the assignment's processing delays.
pub(crate) fn hetero_gnutella(
    scenario: &Scenario,
    assignment: &HeteroAssignment,
) -> (Gnutella, OverlayNet) {
    let (gn, mut net) = scenario.gnutella();
    net.set_processing_delays(assignment.delay_ms.clone());
    (gn, net)
}

/// Peer-space lookup pairs mapped to current slots (PROP-G relocates peers,
/// so destinations follow the *peer*, not the slot).
pub(crate) fn to_slot_pairs(net: &OverlayNet, peer_pairs: &[(Slot, Slot)]) -> Vec<(Slot, Slot)> {
    peer_pairs
        .iter()
        .map(|&(s, d)| {
            (
                net.placement().slot_of(s.index()).expect("peer present"),
                net.placement().slot_of(d.index()).expect("peer present"),
            )
        })
        .collect()
}

/// The full Fig. 7 sweep.
pub fn run(scale: Scale, seed: u64) -> Vec<HeteroCurve> {
    let n = scale.default_n();
    let scenario = Scenario::build(scale.topology(), n, seed);
    let assignment = hub_correlated_assignment(&BimodalParams::default(), n);

    let fractions: Vec<f64> = match scale {
        Scale::Paper => (0..=8).map(|i| i as f64 / 8.0).collect(),
        Scale::Quick => vec![0.0, 0.25, 0.5, 0.75, 1.0],
    };

    // Shared peer-space workloads, one per fraction, identical for every
    // scheme (and for the unoptimized baseline used as the normalizer).
    let peer_slots = scenario.all_slots();
    let is_fast = |s: Slot| assignment.is_fast[s.index()];
    let workloads: Vec<(f64, Vec<(Slot, Slot)>)> = {
        let mut gen = LookupGen::new(&scenario.rng("fig7-lookups"));
        fractions
            .iter()
            .map(|&f| (f, gen.skewed_pairs(&peer_slots, is_fast, f, scale.lookups_per_sample())))
            .collect()
    };

    // Normalizer: the unoptimized overlay.
    let (gn, net0) = hetero_gnutella(&scenario, &assignment);
    let baseline: Vec<f64> = workloads
        .iter()
        .map(|(_, pairs)| avg_lookup_latency(&net0, &gn, &to_slot_pairs(&net0, pairs)).mean_ms)
        .collect();

    let schemes = [
        ("PROP-O (m=1)", "fig7-propo-1", Scheme::PropO { m: Some(1) }),
        ("PROP-O (m=2)", "fig7-propo-2", Scheme::PropO { m: Some(2) }),
        ("PROP-O (m=4)", "fig7-propo-4", Scheme::PropO { m: Some(4) }),
        ("PROP-G", "fig7-propg", Scheme::PropG),
        ("LTM", "fig7-ltm", Scheme::Ltm),
    ];
    par::map(&schemes, |&(label, rng_label, scheme)| {
        let (_, net) = hetero_gnutella(&scenario, &assignment);
        let net = scheme.optimize(&scenario, net, rng_label, scale.horizon());
        let points = workloads
            .iter()
            .zip(&baseline)
            .map(|((f, pairs), &base)| {
                let mean = avg_lookup_latency(&net, &gn, &to_slot_pairs(&net, pairs)).mean_ms;
                (*f, mean / base)
            })
            .collect();
        HeteroCurve { label: label.to_string(), points }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_assignment_marks_prefix_fast() {
        let a = hub_correlated_assignment(&BimodalParams::default(), 50);
        assert_eq!(a.num_fast(), 10);
        assert!(a.is_fast[..10].iter().all(|&f| f));
        assert!(!a.is_fast[10..].iter().any(|&f| f));
    }

    #[test]
    fn quick_sweep_has_sane_shape() {
        let curves = run(Scale::Quick, 48);
        assert_eq!(curves.len(), 5);
        for c in &curves {
            assert_eq!(c.points.len(), 5);
            for &(f, ratio) in &c.points {
                assert!((0.0..=1.0).contains(&f));
                assert!(ratio.is_finite() && ratio > 0.0, "{}: ratio {ratio}", c.label);
                // Optimization should rarely make things meaningfully worse.
                assert!(ratio < 1.25, "{}: ratio {ratio} at f={f}", c.label);
            }
        }
        // Every scheme should help somewhere.
        for c in &curves {
            let best = c.points.iter().map(|&(_, r)| r).fold(f64::MAX, f64::min);
            assert!(best < 1.0, "{} never improved (best {best})", c.label);
        }
    }
}
