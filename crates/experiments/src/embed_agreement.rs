//! S3 — exchange-decision agreement of the coordinate-embedded tier.
//!
//! The embedded oracle answers `d(u,v)` from coordinates with a calibrated
//! error, and the protocol's exchange decision compensates with the
//! exact-fallback band ([`prop_core::decide`]): comparisons landing within
//! the calibrated margin of `MIN_VAR` re-evaluate with exact distances.
//! This harness measures what is left — how often the *banded* embedded
//! decision still disagrees with the fully exact decision on the same
//! plan — by sampling candidate PROP-G swaps and PROP-O subset exchanges
//! over a Gnutella overlay built on the embedded tier and comparing
//! [`prop_core::decide`] against `exact_var > MIN_VAR` plan by plan.
//!
//! Geometry comes from [`TransitStubParams::scaled`] (like the `scale`
//! binary), so the harness runs at any membership up to the million-member
//! smoke — the fixed figure presets stop at ~3,000 hosts.
//!
//! The binary (`cargo run --release -p prop-experiments --bin
//! embed_agreement`) prints and JSON-dumps the [`AgreementReport`] and
//! exits non-zero when the agreement rate falls below `--floor` — the CI
//! gate for the embedding's decision quality.

use prop_core::exchange::{plan_propg, plan_propo};
use prop_core::{decide, exact_var, PropConfig};
use prop_engine::{json_impl, SimRng};
use prop_metrics::OracleEmbedReport;
use prop_netsim::{generate, LatencyOracle, OracleConfig, TransitStubParams};
use prop_overlay::gnutella::{Gnutella, GnutellaParams};
use prop_overlay::walk::WalkPath;
use prop_overlay::Slot;
use std::sync::Arc;

/// Decision-agreement numbers over one sampled plan population.
#[derive(Clone, Debug)]
pub struct AgreementReport {
    pub members: usize,
    pub phys_hosts: usize,
    pub seed: u64,
    /// Plans evaluated (PROP-G and PROP-O alternating; PROP-O pairs with
    /// no eligible neighbors are skipped, not counted).
    pub plans: u64,
    /// Plans where the banded embedded decision matched the exact one.
    pub agreements: u64,
    /// `agreements / plans` (1.0 when nothing was sampled).
    pub agreement_rate: f64,
    /// Decisions that fell inside the fallback band (these agree by
    /// construction — the band *is* the exact path).
    pub escalations: u64,
    /// `escalations / plans`.
    pub escalation_rate: f64,
    /// The oracle's embed-tier counters and calibration over the run.
    pub embed: Option<OracleEmbedReport>,
}

json_impl!(ToJson for struct AgreementReport {
    members, phys_hosts, seed, plans, agreements, agreement_rate, escalations, escalation_rate,
    embed
});

/// Sample `samples` candidate exchanges on an embedded-tier overlay of `n`
/// members and compare the banded decision against the exact one.
/// Deterministic in `(n, samples, seed)`.
pub fn run(n: usize, samples: usize, seed: u64) -> AgreementReport {
    let mut rng = SimRng::seed_from(seed);
    let phys = generate(&TransitStubParams::scaled(n), &mut rng);
    let cfg = OracleConfig::embedded();
    let oracle = Arc::new(LatencyOracle::select_and_build_with(&phys, n, &mut rng, &cfg));
    let mut grng = rng.fork("gnutella");
    let (_gn, net) = Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut grng);
    let min_var = PropConfig::prop_g().min_var;
    // Fig. 7's middle PROP-O setting; the agreement question is the same
    // for any m, this just fixes the subset size the samples evaluate.
    let m = 2;

    let mark = oracle.embed_stats().unwrap_or_default();
    let mut srng = rng.fork("embed-agreement");
    let mut plans = 0u64;
    let mut agreements = 0u64;
    for i in 0..samples {
        let u = Slot(srng.range(0..n as u32));
        let v = Slot(srng.range(0..n as u32));
        if u == v {
            continue;
        }
        // Alternate the two plan shapes; a two-node walk makes every
        // non-shared neighbor eligible for the subset exchange.
        let plan = if i % 2 == 0 {
            Some(plan_propg(&net, u, v))
        } else {
            plan_propo(&net, &WalkPath { path: vec![u, v] }, m)
        };
        let Some(plan) = plan else { continue };
        plans += 1;
        let banded = decide(&net, &plan, min_var);
        let exact = exact_var(&net, &plan) > min_var;
        if banded == exact {
            agreements += 1;
        }
    }
    let since = oracle.embed_stats().map(|s| s.since(&mark)).unwrap_or_default();

    AgreementReport {
        members: n,
        phys_hosts: phys.num_nodes(),
        seed,
        plans,
        agreements,
        agreement_rate: if plans == 0 { 1.0 } else { agreements as f64 / plans as f64 },
        escalations: since.escalations,
        escalation_rate: if plans == 0 { 0.0 } else { since.escalations as f64 / plans as f64 },
        embed: OracleEmbedReport::from_oracle_since(&oracle, &mark),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miniature_agreement_is_high_and_deterministic() {
        let a = run(200, 120, 11);
        assert!(a.plans > 50, "enough pairs evaluate to plans: {}", a.plans);
        assert!(a.embed.is_some(), "embedded tier must report");
        // The band escalates every near-threshold decision, so even a
        // miniature embedding decides like the exact oracle almost always.
        assert!(a.agreement_rate >= 0.9, "agreement {}", a.agreement_rate);
        let b = run(200, 120, 11);
        assert_eq!(a.plans, b.plans);
        assert_eq!(a.agreements, b.agreements);
        assert_eq!(a.escalations, b.escalations);
    }
}
