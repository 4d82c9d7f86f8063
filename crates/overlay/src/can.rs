//! CAN: the Content-Addressable Network (d = 2 torus).
//!
//! Each slot owns a rectangular zone of the unit torus `[0,1)²`; a joining
//! node picks a point, the zone containing it splits in half, and the two
//! halves are reassigned so each owner's point stays inside its own zone.
//! Logical neighbors are zones that share a border (abut in one dimension,
//! overlap in the other, with wraparound); greedy routing forwards to the
//! neighbor whose zone is closest to the target point.
//!
//! The *join point* is the hook for the PIS baseline (topologically-aware
//! CAN): uniform random points give the vanilla protocol-assigned overlay,
//! while landmark-derived points place physically close peers in adjacent
//! zones.

use crate::logical::{LogicalGraph, Slot};
use crate::net::OverlayNet;
use crate::placement::Placement;
use crate::{Lookup, RouteOutcome};
use prop_engine::SimRng;
use prop_netsim::LatencyOracle;
use std::sync::Arc;

const DIMS: usize = 2;
const EPS: f64 = 1e-9;

/// An axis-aligned rectangle of the unit torus: `lo[k] ≤ x[k] < hi[k]`.
/// Zones never wrap internally (splits only shrink), so `lo < hi` always.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Zone {
    pub lo: [f64; DIMS],
    pub hi: [f64; DIMS],
}

impl Zone {
    /// The whole torus.
    pub fn unit() -> Zone {
        Zone { lo: [0.0; DIMS], hi: [1.0; DIMS] }
    }

    #[inline]
    pub fn contains(&self, p: [f64; DIMS]) -> bool {
        (0..DIMS).all(|k| self.lo[k] <= p[k] && p[k] < self.hi[k])
    }

    #[inline]
    pub fn center(&self) -> [f64; DIMS] {
        [(self.lo[0] + self.hi[0]) / 2.0, (self.lo[1] + self.hi[1]) / 2.0]
    }

    #[inline]
    pub fn extent(&self, k: usize) -> f64 {
        self.hi[k] - self.lo[k]
    }

    /// Split along dimension `k` at the midpoint: `(lower half, upper half)`.
    pub fn split(&self, k: usize) -> (Zone, Zone) {
        let mid = (self.lo[k] + self.hi[k]) / 2.0;
        let mut a = *self;
        let mut b = *self;
        a.hi[k] = mid;
        b.lo[k] = mid;
        (a, b)
    }

    /// Do two zones abut on the torus: touching faces in dimension `k`
    /// and (at least partially) overlapping in the other dimension?
    pub fn adjacent(&self, other: &Zone) -> bool {
        for k in 0..DIMS {
            let o = 1 - k;
            let touch = (self.hi[k] - other.lo[k]).abs() < EPS
                || (other.hi[k] - self.lo[k]).abs() < EPS
                // torus wrap: 1.0 face meets 0.0 face
                || ((self.hi[k] - 1.0).abs() < EPS && other.lo[k].abs() < EPS)
                || ((other.hi[k] - 1.0).abs() < EPS && self.lo[k].abs() < EPS);
            let overlap = self.lo[o] < other.hi[o] - EPS && other.lo[o] < self.hi[o] - EPS;
            if touch && overlap {
                return true;
            }
        }
        false
    }

    /// Squared torus distance from the closest point of the zone to `p`.
    #[allow(clippy::needless_range_loop)]
    pub fn dist2_to(&self, p: [f64; DIMS]) -> f64 {
        let mut acc = 0.0;
        for k in 0..DIMS {
            // Nearest offset in this dimension, accounting for wraparound.
            let d = if p[k] >= self.lo[k] && p[k] < self.hi[k] {
                0.0
            } else {
                let to_lo = torus_gap(p[k], self.lo[k]);
                let to_hi = torus_gap(p[k], self.hi[k]);
                to_lo.min(to_hi)
            };
            acc += d * d;
        }
        acc
    }
}

/// Shortest wraparound distance between two scalars on the unit circle.
#[inline]
fn torus_gap(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    d.min(1.0 - d)
}

/// The CAN overlay structure.
#[derive(Clone, Debug)]
pub struct Can {
    zones: Vec<Zone>,
    points: Vec<[f64; DIMS]>,
}

impl Can {
    /// Build a CAN whose `i`-th slot joined at `join_points[i]`
    /// (`join_points.len() == oracle.len()`). Slot 0 starts owning the whole
    /// torus; each later slot splits the zone containing its point.
    pub fn build_at(
        join_points: Vec<[f64; DIMS]>,
        oracle: Arc<LatencyOracle>,
    ) -> (Can, OverlayNet) {
        let n = join_points.len();
        assert_eq!(n, oracle.len());
        assert!(n >= 2, "CAN needs at least two nodes");
        let mut zones: Vec<Zone> = Vec::with_capacity(n);
        zones.push(Zone::unit());
        for &p in join_points.iter().skip(1) {
            // Find the zone containing p (ties broken by first match).
            let host = zones.iter().position(|z| z.contains(p)).expect("unit torus fully tiled");
            let z = zones[host];
            // Split along the longer dimension (keeps zones square-ish).
            let k = if z.extent(0) >= z.extent(1) { 0 } else { 1 };
            let (a, b) = z.split(k);
            // The newcomer takes the half containing its join point; the
            // incumbent keeps the other half (real CAN: nodes own zones,
            // not positions).
            let (host_zone, new_zone) = if a.contains(p) { (b, a) } else { (a, b) };
            zones[host] = host_zone;
            zones.push(new_zone);
        }

        // Zone adjacency → logical graph.
        let mut g = LogicalGraph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if zones[i].adjacent(&zones[j]) {
                    g.add_edge(Slot(i as u32), Slot(j as u32));
                }
            }
        }

        let can = Can { zones, points: join_points };
        let net = OverlayNet::new(g, Placement::identity(n), oracle);
        (can, net)
    }

    /// Build with uniform random join points — vanilla CAN.
    pub fn build(oracle: Arc<LatencyOracle>, rng: &mut SimRng) -> (Can, OverlayNet) {
        let mut rng = rng.fork("can-build");
        let pts = (0..oracle.len()).map(|_| [rng.unit(), rng.unit()]).collect();
        Self::build_at(pts, oracle)
    }

    #[inline]
    pub fn zone(&self, s: Slot) -> &Zone {
        &self.zones[s.index()]
    }

    #[inline]
    pub fn join_point(&self, s: Slot) -> [f64; DIMS] {
        self.points[s.index()]
    }

    /// The slot whose zone contains `p`.
    pub fn owner_of(&self, p: [f64; DIMS]) -> Slot {
        Slot(self.zones.iter().position(|z| z.contains(p)).expect("tiled") as u32)
    }

    /// Greedy route from `src` to the zone containing `target`, returning
    /// the slot path. Forwards to the neighbor whose zone is closest to the
    /// target point; zones tile the space, so distance strictly decreases
    /// and the walk terminates.
    pub fn route_path(&self, g: &LogicalGraph, src: Slot, target: [f64; DIMS]) -> Vec<Slot> {
        let dst = self.owner_of(target);
        let mut path = vec![src];
        let mut cur = src;
        let mut cur_d = self.zones[cur.index()].dist2_to(target);
        while cur != dst {
            let mut best: Option<(f64, Slot)> = None;
            for &nb in g.neighbors(cur) {
                let d = self.zones[nb.index()].dist2_to(target);
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, nb));
                }
            }
            let (d, next) = best.expect("zone with no neighbors");
            assert!(d < cur_d || d == 0.0, "greedy CAN routing stalled");
            path.push(next);
            cur = next;
            cur_d = d;
        }
        path
    }
}

impl Lookup for Can {
    /// Latency of routing to a point inside `dst`'s zone (its center).
    fn lookup(&self, net: &OverlayNet, src: Slot, dst: Slot) -> Option<RouteOutcome> {
        let target = self.zones[dst.index()].center();
        let path = self.route_path(net.graph(), src, target);
        debug_assert_eq!(*path.last().unwrap(), dst);
        Some(net.route_outcome(&path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netsim::{generate, TransitStubParams};

    fn oracle(n: usize, seed: u64) -> Arc<LatencyOracle> {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&TransitStubParams::tiny(), &mut rng);
        Arc::new(LatencyOracle::select_and_build(&phys, n, &mut rng))
    }

    fn build(n: usize, seed: u64) -> (Can, OverlayNet) {
        let mut rng = SimRng::seed_from(seed);
        Can::build(oracle(n, seed), &mut rng)
    }

    #[test]
    fn zones_tile_the_torus() {
        let (can, _) = build(25, 1);
        // Total area is 1 and zones are disjoint (area check + point probes).
        let area: f64 = can.zones.iter().map(|z| z.extent(0) * z.extent(1)).sum();
        assert!((area - 1.0).abs() < 1e-9, "area {area}");
        let mut rng = SimRng::seed_from(99);
        for _ in 0..200 {
            let p = [rng.unit(), rng.unit()];
            let owners = can.zones.iter().filter(|z| z.contains(p)).count();
            assert_eq!(owners, 1, "point {p:?} owned by {owners} zones");
        }
    }

    #[test]
    fn newcomer_gets_half_containing_its_point() {
        // Four joiners in the four quadrants: no later split ever evicts an
        // earlier owner's point, so every zone contains its join point.
        let o = oracle(4, 2);
        let pts = vec![[0.1, 0.1], [0.6, 0.6], [0.6, 0.1], [0.1, 0.6]];
        let (can, _) = Can::build_at(pts, o);
        for i in 0..4u32 {
            let s = Slot(i);
            assert!(
                can.zone(s).contains(can.join_point(s)),
                "{s:?}: zone {:?} missing point {:?}",
                can.zone(s),
                can.join_point(s)
            );
        }
    }

    #[test]
    fn adjacency_graph_is_connected() {
        let (_, net) = build(30, 3);
        assert!(net.graph().is_connected());
    }

    #[test]
    fn all_lookups_terminate_at_owner() {
        let (can, net) = build(20, 4);
        for a in 0..20u32 {
            for b in 0..20u32 {
                let out = can.lookup(&net, Slot(a), Slot(b)).unwrap();
                if a == b {
                    assert_eq!(out.hops, 0);
                } else {
                    assert!(out.hops >= 1);
                }
            }
        }
    }

    #[test]
    fn hops_scale_like_sqrt_n() {
        let (can, net) = build(36, 5);
        let mut total = 0u64;
        let mut cnt = 0u64;
        for a in 0..36u32 {
            for b in 0..36u32 {
                if a != b {
                    total += can.lookup(&net, Slot(a), Slot(b)).unwrap().hops as u64;
                    cnt += 1;
                }
            }
        }
        let avg = total as f64 / cnt as f64;
        // For d=2, O(√n) ≈ 3; generous bound.
        assert!(avg < 8.0, "avg hops {avg}");
    }

    #[test]
    fn adjacency_is_symmetric_relation() {
        let (can, _) = build(15, 6);
        for i in 0..15 {
            for j in 0..15 {
                assert_eq!(
                    can.zones[i].adjacent(&can.zones[j]),
                    can.zones[j].adjacent(&can.zones[i])
                );
            }
        }
    }

    #[test]
    fn zone_is_not_adjacent_to_itself_after_splits() {
        let (can, _) = build(10, 7);
        for z in &can.zones {
            assert!(!z.adjacent(z) || can.zones.len() <= 2);
        }
    }

    #[test]
    fn split_halves_area() {
        let z = Zone::unit();
        let (a, b) = z.split(0);
        assert!((a.extent(0) - 0.5).abs() < EPS);
        assert!((b.extent(0) - 0.5).abs() < EPS);
        assert_eq!(a.extent(1), 1.0);
        assert!(a.adjacent(&b));
    }

    #[test]
    fn dist2_zero_inside() {
        let z = Zone { lo: [0.25, 0.25], hi: [0.5, 0.5] };
        assert_eq!(z.dist2_to([0.3, 0.4]), 0.0);
        assert!(z.dist2_to([0.9, 0.9]) > 0.0);
    }

    #[test]
    fn torus_wraparound_distance() {
        let z = Zone { lo: [0.9, 0.0], hi: [1.0, 1.0] };
        // Point at x=0.05 is 0.05 past the wrap from hi=1.0.
        let d2 = z.dist2_to([0.05, 0.5]);
        assert!((d2 - 0.05 * 0.05).abs() < 1e-9, "{d2}");
    }

    #[test]
    fn landmark_style_points_cluster_physically_close_peers() {
        // Peers given identical join points (max clustering) still build a
        // valid, connected CAN — the degenerate corner PIS can produce.
        let o = oracle(8, 8);
        let pts = vec![[0.5, 0.5]; 8];
        let (can, net) = Can::build_at(pts, o);
        assert!(net.graph().is_connected());
        let area: f64 = can.zones.iter().map(|z| z.extent(0) * z.extent(1)).sum();
        assert!((area - 1.0).abs() < 1e-9);
    }
}
