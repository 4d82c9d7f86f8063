//! PIS: Proximity Identifier Selection — topologically-aware CAN.
//!
//! Ratnasamy et al.'s landmark binning: a joining node measures its latency
//! to a small fixed set of landmark hosts and derives its overlay
//! coordinates from those measurements, so that nodes that are close in the
//! physical network receive nearby zones. With two landmarks on the unit
//! square, peer `p` joins at
//! `( d(p, L₀)/D, d(p, L₁)/D )` (`D` = the largest observed landmark
//! distance), plus a deterministic per-peer jitter to break ties between
//! hosts in the same stub domain.

use prop_engine::SimRng;
use prop_netsim::oracle::MemberIdx;
use prop_netsim::LatencyOracle;
use prop_overlay::can::Can;
use prop_overlay::OverlayNet;
use std::sync::Arc;

/// Landmark-derived CAN join points for every member of `oracle`.
///
/// `landmarks` are member indices acting as L₀ and L₁ (the real system uses
/// well-known hosts; any two far-apart members work). Jitter is a few
/// percent of the space, deterministic per seed.
pub fn pis_join_points(
    oracle: &LatencyOracle,
    landmarks: [MemberIdx; 2],
    rng: &mut SimRng,
) -> Vec<[f64; 2]> {
    let mut rng = rng.fork("pis-points");
    let n = oracle.len();
    let d_max = (0..n)
        .flat_map(|p| landmarks.iter().map(move |&l| oracle.d(p, l)))
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    (0..n)
        .map(|p| {
            let x = oracle.d(p, landmarks[0]) as f64 / d_max;
            let y = oracle.d(p, landmarks[1]) as f64 / d_max;
            // Jitter keeps co-located peers from identical points (which
            // would degenerate zone splits), while preserving locality.
            let jx = (rng.unit() - 0.5) * 0.04;
            let jy = (rng.unit() - 0.5) * 0.04;
            [(x + jx).clamp(0.0, 1.0 - 1e-9), (y + jy).clamp(0.0, 1.0 - 1e-9)]
        })
        .collect()
}

/// Pick two far-apart landmark members: the first is arbitrary, the second
/// maximizes distance from the first, then re-pick the first to maximize
/// distance from the second (one refinement round).
pub fn pick_landmarks(oracle: &LatencyOracle) -> [MemberIdx; 2] {
    let n = oracle.len();
    assert!(n >= 2);
    let l1 = (0..n).max_by_key(|&p| oracle.d(0, p)).unwrap();
    let l0 = (0..n).max_by_key(|&p| oracle.d(l1, p)).unwrap();
    [l0, l1]
}

/// Build a topologically-aware (PIS) CAN.
pub fn build_pis_can(oracle: Arc<LatencyOracle>, rng: &mut SimRng) -> (Can, OverlayNet) {
    let landmarks = pick_landmarks(&oracle);
    let pts = pis_join_points(&oracle, landmarks, rng);
    Can::build_at(pts, oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netsim::{generate, TransitStubParams};
    use prop_overlay::can::Can;

    fn oracle(n: usize, seed: u64) -> Arc<LatencyOracle> {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::ts_small(), &mut rng);
        Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng))
    }

    #[test]
    fn landmarks_are_far_apart() {
        let o = oracle(60, 1);
        let [l0, l1] = pick_landmarks(&o);
        let d = o.d(l0, l1);
        let n = o.len();
        let total: u64 = (0..n).map(|a| (0..n).map(|b| o.d(a, b) as u64).sum::<u64>()).sum();
        let mean = total as f64 / (n * n) as f64;
        assert!(d as f64 >= mean, "landmarks {d}ms apart vs mean {mean:.0}ms");
    }

    #[test]
    fn join_points_in_unit_square() {
        let o = oracle(50, 2);
        let pts = pis_join_points(&o, pick_landmarks(&o), &mut SimRng::seed_from(2));
        for p in &pts {
            assert!((0.0..1.0).contains(&p[0]) && (0.0..1.0).contains(&p[1]));
        }
    }

    #[test]
    fn physically_close_peers_get_close_points() {
        let o = oracle(60, 3);
        let pts = pis_join_points(&o, pick_landmarks(&o), &mut SimRng::seed_from(3));
        // Average point distance between the 5% physically closest pairs vs
        // the 5% farthest pairs.
        let mut pairs: Vec<(u32, f64)> = Vec::new();
        for a in 0..60 {
            for b in (a + 1)..60 {
                let dp = ((pts[a][0] - pts[b][0]).powi(2) + (pts[a][1] - pts[b][1]).powi(2)).sqrt();
                pairs.push((o.d(a, b), dp));
            }
        }
        pairs.sort_by_key(|&(d, _)| d);
        let k = pairs.len() / 20;
        let close: f64 = pairs[..k].iter().map(|&(_, dp)| dp).sum::<f64>() / k as f64;
        let far: f64 = pairs[pairs.len() - k..].iter().map(|&(_, dp)| dp).sum::<f64>() / k as f64;
        assert!(close < far, "close pairs {close:.3} should beat far pairs {far:.3}");
    }

    #[test]
    fn pis_can_beats_random_can_on_link_latency() {
        let o = oracle(100, 4);
        let mut rng = SimRng::seed_from(4);
        let (_, random_net) = Can::build(Arc::clone(&o), &mut rng);
        let (_, pis_net) = build_pis_can(o, &mut rng);
        assert!(
            pis_net.mean_link_latency() < random_net.mean_link_latency(),
            "PIS {:.1} vs random {:.1}",
            pis_net.mean_link_latency(),
            random_net.mean_link_latency()
        );
    }

    #[test]
    fn pis_can_is_valid() {
        let o = oracle(40, 5);
        let (_, net) = build_pis_can(o, &mut SimRng::seed_from(5));
        assert!(net.graph().is_connected());
    }
}
