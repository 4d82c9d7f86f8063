//! Partition geometry: which peer lands on which side of a transit split.
//!
//! The paper's substrate is a GT-ITM transit-stub internet: stub domains
//! (where all overlay members live) hang off transit gateways, and the
//! transit domains form the backbone. The realistic large-scale failure is
//! a *backbone* split — transit-to-transit links go down and the internet
//! bisects along transit-domain lines, stranding each stub domain with its
//! gateway's half. [`transit_bisection`] reproduces exactly that: members
//! whose gateway sits in the lower half of the transit-domain id space are
//! [`Side::A`], the rest [`Side::B`].

use prop_netsim::oracle::MemberIdx;
use prop_netsim::{LatencyOracle, PhysGraph};

/// Which half of the bisected transit core a peer is attached to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    A,
    B,
}

/// Per-member sides for a bisection of the transit core along transit
/// links: members gatewayed through transit domains `0 .. D/2` are
/// [`Side::A`], domains `D/2 .. D` are [`Side::B`] (`D` = number of
/// transit domains). Indexed by [`MemberIdx`]; a member whose transit
/// domain cannot be resolved (hand-built graphs only) defaults to
/// [`Side::A`].
pub fn transit_bisection(phys: &PhysGraph, oracle: &LatencyOracle) -> Vec<Side> {
    let domains = phys.num_transit_domains() as u16;
    let cut = domains / 2;
    (0..oracle.len())
        .map(|i: MemberIdx| {
            let dom = phys.transit_domain_of(oracle.host(i)).unwrap_or(0);
            if dom < cut.max(1) {
                Side::A
            } else {
                Side::B
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engine::SimRng;
    use prop_netsim::{generate, TransitStubParams};

    #[test]
    fn tiny_topology_bisects_nontrivially() {
        // `tiny()` has exactly two transit domains, so the cut must put
        // members on both sides (each domain carries half the stubs).
        let mut rng = SimRng::seed_from(42);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = LatencyOracle::select_and_build(&phys, 40, &mut rng);
        let sides = transit_bisection(&phys, &oracle);
        assert_eq!(sides.len(), 40);
        let a = sides.iter().filter(|&&s| s == Side::A).count();
        assert!(a > 0 && a < 40, "both sides must be populated, got {a}/40 on side A");
    }

    #[test]
    fn sides_are_deterministic() {
        let mut rng = SimRng::seed_from(7);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        let oracle = LatencyOracle::select_and_build(&phys, 30, &mut rng);
        let mut rng2 = SimRng::seed_from(7);
        let phys2 = generate(&TransitStubParams::tiny(), &mut rng2);
        let oracle2 = LatencyOracle::select_and_build(&phys2, 30, &mut rng2);
        assert_eq!(transit_bisection(&phys, &oracle), transit_bisection(&phys2, &oracle2));
    }
}
