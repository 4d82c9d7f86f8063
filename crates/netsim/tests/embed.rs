//! Embedding determinism and metric-structure property tests.
//!
//! The coordinate fit is the only floating-point-heavy construction in the
//! oracle stack, so its contract is pinned from the outside here:
//!
//! * **Bit determinism** — the same `(graph, members)` produces
//!   bit-identical coordinates, heights, and calibration on every build.
//! * **Metric structure** — the rounded `d(u,v)` keeps a zero diagonal,
//!   symmetry, and the triangle inequality on any topology, because the
//!   estimate is a norm plus non-negative heights and ceil-rounding
//!   preserves the inequality.
//! * **Escalation agreement** — `d_exact` answers match the dense tier
//!   exactly: the fallback band lands on true distances, not another
//!   approximation.
//!
//! Every case fits with the production constants: there is no other fit to
//! test. Member counts run past the fit's 32 landmarks, so a good share of
//! the cases take the per-member relaxation and calibrate on non-landmark
//! sources — the only kind of member there is at production scale. Each test
//! counts those cases and fails if the share lapses.

use prop_engine::SimRng;
use prop_netsim::{
    generate, LatencyOracle, OracleConfig, PhysGraph, PhysNodeId, TransitStubParams,
};

const CASES: u64 = 256;

/// Upper bound (exclusive) on a case's member count: well past the landmark
/// count. A topology with fewer stub hosts caps it (`pick_members`).
const MAX_MEMBERS: usize = 56;

fn ts_params(domains: usize, transit: usize, stubs: usize, hosts: usize) -> TransitStubParams {
    TransitStubParams {
        transit_domains: domains,
        transit_nodes_per_domain: transit,
        stub_domains_per_transit: stubs,
        nodes_per_stub_domain: hosts,
        extra_domain_edge: 0.25,
        extra_transit_edge: 0.25,
        extra_stub_edge: 0.06,
        transit_transit_ms: 100,
        stub_transit_ms: 20,
        stub_stub_ms: 5,
    }
}

fn pick_members(g: &PhysGraph, want: usize, rng: &mut SimRng) -> Vec<PhysNodeId> {
    let stubs = g.stub_nodes();
    rng.sample_distinct(&stubs, want.clamp(2, stubs.len()))
}

fn embedded(g: &PhysGraph, members: Vec<PhysNodeId>) -> LatencyOracle {
    LatencyOracle::try_build_with(g, members, &OracleConfig::embedded()).expect("connected")
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Does the fit behind `o` hold a member that is not a landmark?
fn has_fitted_members(o: &LatencyOracle) -> bool {
    o.embedding().expect("embedded tier").landmark_members().len() < o.len()
}

/// The premise of every test here: at least a quarter of the cases fitted
/// non-landmark members.
fn assert_fitted_share(fitted_cases: u64) {
    assert!(
        fitted_cases * 4 >= CASES,
        "only {fitted_cases} of {CASES} cases had a non-landmark member"
    );
}

/// Two independent builds over the same inputs are bit-identical —
/// coordinates, heights, landmarks, calibration, and margin.
#[test]
fn same_inputs_same_bits() {
    let mut fitted_cases = 0;
    for case in 0..CASES {
        let mut gen = SimRng::seed_from(case);
        let (domains, transit) = (gen.range(1..3usize), gen.range(1..4usize));
        let (stubs, hosts) = (gen.range(2..4usize), gen.range(5..8usize));
        let members = gen.range(4..MAX_MEMBERS);
        let topo_seed = gen.range(0..10_000u64);

        let p = ts_params(domains, transit, stubs, hosts);
        let mut rng = SimRng::seed_from(topo_seed);
        let g = generate(&p, &mut rng);
        let m = pick_members(&g, members, &mut rng);
        let (a, b) = (embedded(&g, m.clone()), embedded(&g, m));
        let (fit_a, fit_b) = (a.embedding().unwrap(), b.embedding().unwrap());
        assert_eq!(fit_a.dims() * a.len(), fit_a.coords().len(), "case {case}");
        assert_eq!(bits(fit_a.coords()), bits(fit_b.coords()), "case {case}");
        assert_eq!(bits(fit_a.heights()), bits(fit_b.heights()), "case {case}");
        assert_eq!(fit_a.landmark_members(), fit_b.landmark_members(), "case {case}");
        assert_eq!(a.embed_calibration(), b.embed_calibration(), "case {case}");
        assert_eq!(
            a.var_margin_per_term().to_bits(),
            b.var_margin_per_term().to_bits(),
            "case {case}"
        );
        fitted_cases += u64::from(has_fitted_members(&a));
    }
    assert_fitted_share(fitted_cases);
}

/// A topology of 40 to 56 stub hosts and a member set over it.
fn small_world(case: u64) -> (PhysGraph, Vec<PhysNodeId>) {
    let mut gen = SimRng::seed_from(case);
    let hosts = gen.range(5..8usize);
    let members = gen.range(4..MAX_MEMBERS);
    let seed = gen.range(0..10_000u64);
    let mut rng = SimRng::seed_from(seed);
    let g = generate(&ts_params(2, 2, 2, hosts), &mut rng);
    let m = pick_members(&g, members, &mut rng);
    (g, m)
}

/// The rounded estimate is a metric: zero diagonal, symmetric, and triangle
/// inequality over every sampled triple.
#[test]
fn rounded_estimate_is_a_metric() {
    let mut fitted_cases = 0;
    for case in 0..CASES {
        let (g, m) = small_world(case);
        let n = m.len();
        let o = embedded(&g, m);
        for a in 0..n {
            assert_eq!(o.d(a, a), 0, "case {case}");
            for b in 0..n {
                let ab = o.d(a, b);
                assert_eq!(ab, o.d(b, a), "case {case}: symmetry ({a}, {b})");
                for c in 0..n {
                    assert!(
                        o.d(a, c) <= ab.saturating_add(o.d(b, c)),
                        "case {case}: triangle ({a}, {b}, {c})"
                    );
                }
            }
        }
        fitted_cases += u64::from(has_fitted_members(&o));
    }
    assert_fitted_share(fitted_cases);
}

/// The escalation path answers with true distances: every `d_exact` equals
/// the dense tier's answer over the same members.
#[test]
fn exact_fallback_matches_dense() {
    let mut fitted_cases = 0;
    for case in 0..CASES {
        let (g, m) = small_world(case);
        let n = m.len();
        let dense = LatencyOracle::try_build_with(&g, m.clone(), &OracleConfig::dense())
            .expect("connected");
        let emb = embedded(&g, m);
        for a in 0..n {
            for b in 0..n {
                assert_eq!(emb.d_exact(a, b), dense.d(a, b), "case {case}: pair ({a}, {b})");
            }
        }
        fitted_cases += u64::from(has_fitted_members(&emb));
    }
    assert_fitted_share(fitted_cases);
}
