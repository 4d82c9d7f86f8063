//! Exact-fallback-band integration tests: the exchange decision on the
//! coordinate-embedded oracle tier.
//!
//! Two layers of guarantee, pinned from outside the crate:
//!
//! * **The band is airtight** (property test): whenever a plan's Var lands
//!   within the calibrated margin of the threshold, `decide` must answer
//!   with the *exact* re-evaluation — so an in-band decision can never
//!   disagree with the exact tier, and every escalation is counted.
//! * **Out-of-band decisions barely ever flip** (deterministic 20k run):
//!   across sampled PROP-G/PROP-O plans on a 20,000-member overlay, the
//!   banded embedded decision agrees with the fully exact decision at
//!   ≥ 99% — the margin is wide enough that a flip requires the summed
//!   embedding error of a whole plan to beat its per-term p95 budget.

use prop_core::exchange::{plan_propg, plan_propo};
use prop_core::{decide, exact_var, var_terms, PropConfig};
use prop_engine::SimRng;
use prop_netsim::{generate, LatencyOracle, OracleConfig, TransitStubParams};
use prop_overlay::gnutella::{Gnutella, GnutellaParams};
use prop_overlay::walk::WalkPath;
use prop_overlay::{OverlayNet, Slot};
use std::sync::Arc;

/// A small embedded-tier Gnutella overlay, deterministic in `(n, seed)`.
fn embedded_net(n: usize, seed: u64) -> (OverlayNet, Arc<LatencyOracle>) {
    let mut rng = SimRng::seed_from(seed);
    let phys = generate(&TransitStubParams::scaled(n.max(64)), &mut rng);
    let cfg = OracleConfig { cache_capacity_bytes: 256 << 20, ..OracleConfig::embedded() };
    let oracle = Arc::new(LatencyOracle::select_and_build_with(&phys, n, &mut rng, &cfg));
    let mut grng = rng.fork("gnutella");
    let (_gn, net) = Gnutella::build(GnutellaParams::default(), Arc::clone(&oracle), &mut grng);
    (net, oracle)
}

/// In-band decisions are exact and counted; out-of-band decisions are the
/// plain comparison. Checked across thresholds placed on, near, and far from
/// each sampled plan's Var. A case builds a whole embedded-tier overlay
/// (≈ 50 ms), hence 16 of them.
#[test]
fn band_escalates_exactly_when_inside_margin() {
    for case in 0..16u64 {
        let mut gen = SimRng::seed_from(case);
        let n = gen.range(48..96usize);
        let (net, oracle) = embedded_net(n, gen.range(0..1_000u64));
        let per_term = net.oracle().var_margin_per_term();
        assert!(per_term > 0.0, "case {case}: embedded tier must expose a band");
        let mut rng = SimRng::seed_from(gen.range(0..1_000u64));
        for _ in 0..12 {
            let u = Slot(rng.range(0..n as u32));
            let v = Slot(rng.range(0..n as u32));
            if u == v {
                continue;
            }
            let plan = plan_propg(&net, u, v);
            let margin = per_term * var_terms(&net, &plan) as f64;
            let exact = exact_var(&net, &plan);
            // Thresholds straddling the band boundary on both sides.
            let m = margin as i64;
            for off in [0i64, 1, -1, m, -m, m + 2, -m - 2] {
                let min_var = plan.var.saturating_add(off);
                let gap = (plan.var as i128 - min_var as i128).abs() as f64;
                let before = oracle.embed_stats().expect("embedded tier").escalations;
                let got = decide(&net, &plan, min_var);
                let after = oracle.embed_stats().expect("embedded tier").escalations;
                if gap <= margin {
                    assert_eq!(got, exact > min_var, "case {case}: in-band must be exact");
                    assert_eq!(after, before + 1, "case {case}: escalation must be counted");
                } else {
                    assert_eq!(
                        got,
                        plan.var > min_var,
                        "case {case}: out-of-band is the plain compare"
                    );
                    assert_eq!(after, before, "case {case}: no escalation outside the band");
                }
            }
        }
    }
}

/// The ISSUE's decision-quality floor at the largest size `cargo test`
/// carries: 20,000 members, banded embedded decisions vs fully exact ones
/// over sampled PROP-G swaps and PROP-O subset exchanges.
#[test]
fn twenty_k_members_agree_on_at_least_99_percent_of_decisions() {
    const N: usize = 20_000;
    const SAMPLES: usize = 200;
    let (net, oracle) = embedded_net(N, 17);
    assert_eq!(oracle.tier(), "coord-embed");
    let min_var = PropConfig::prop_g().min_var;

    let mut rng = SimRng::seed_from(23);
    let mut plans = 0u32;
    let mut agreements = 0u32;
    for i in 0..SAMPLES {
        let u = Slot(rng.range(0..N as u32));
        let v = Slot(rng.range(0..N as u32));
        if u == v {
            continue;
        }
        let plan = if i % 2 == 0 {
            Some(plan_propg(&net, u, v))
        } else {
            plan_propo(&net, &WalkPath { path: vec![u, v] }, 2)
        };
        let Some(plan) = plan else { continue };
        plans += 1;
        if decide(&net, &plan, min_var) == (exact_var(&net, &plan) > min_var) {
            agreements += 1;
        }
    }
    assert!(plans >= SAMPLES as u32 / 2, "too few plans evaluated: {plans}");
    let rate = agreements as f64 / plans as f64;
    assert!(rate >= 0.99, "agreement {rate:.4} ({agreements}/{plans}) below the 0.99 floor");
}
