//! Coordinate-embedded latency tier: `d(u, v)` in O(1) at million-member
//! scale.
//!
//! The row-cache tier ([`crate::CachedOracle`]) pays one exact row per cold
//! source: O(n + k log k) on a transit–stub graph, a whole-graph Dijkstra on
//! any other (DESIGN.md §9, "Row kernel"; §13 on what that means for this
//! tier). This module removes the per-pair graph computation entirely:
//! every member gets a **network coordinate** — a
//! Vivaldi-style *height-vector* (position in a low-dimensional Euclidean
//! space plus a non-negative "height" modelling the access-link cost of
//! climbing out of the stub domain) — fit **once** at construction from a
//! small number of exact rows, after which
//!
//! ```text
//! d̂(u, v) = ‖x_u − x_v‖ + h_u + h_v
//! ```
//!
//! answers any pair in a few nanoseconds, independent of graph size.
//!
//! ## Fit procedure (deterministic, seeded)
//!
//! 1. **Landmarks.** `L` members are chosen by deterministic stride over the
//!    member index space. One exact row per landmark (from the internal
//!    exact tier's row kernel) yields the landmark→member
//!    distances — the only graph computation the fit performs.
//! 2. **Landmark relaxation.** Landmark coordinates are fit against the
//!    L × L exact inter-landmark distances by seeded spring relaxation:
//!    fixed iteration order, fixed decaying step schedule, no data-dependent
//!    branching — bit-identical on every run.
//! 3. **Member fit.** Every member independently relaxes its own coordinate
//!    against the (now frozen) landmark coordinates using its column of the
//!    landmark rows. Members are mutually independent: each seeds its own
//!    `fork_indexed` stream, so the pass does not depend on member order.
//! 4. **Calibration.** Fresh exact rows from `C` stride-chosen sources (not
//!    used during the fit) are compared against the embedding; the
//!    per-percentile absolute and relative error distribution is committed
//!    into the oracle ([`EmbedCalibration`]) alongside the coordinates.
//!
//! ## The exact-fallback band
//!
//! An embedding is an estimate; the protocol's `Var > MIN_VAR` exchange
//! decisions must stay trustworthy. The calibration yields a **margin per
//! distance term** (the configured error percentile × a safety scale). When
//! a Var comparison lands within `terms × margin` of the threshold, the
//! decision **escalates**: the same plan is re-evaluated with exact
//! distances through the embedded oracle's internal row-cache tier
//! ([`EmbedOracle::d_exact`]). Decisions far from the threshold — the vast
//! majority — stay on the O(1) path. `prop-core`'s `exchange::decide` is
//! the single consumer of this contract, and the `embed_agreement` harness
//! measures the resulting exchange-decision agreement the way the
//! `tier_equivalence` proptests pin the cached tier.
//!
//! Rounding uses `ceil`, which preserves the triangle inequality exactly:
//! `⌈x⌉ + ⌈y⌉ ≥ ⌈x + y⌉ ≥ ⌈z⌉` whenever `x + y ≥ z`.

use crate::graph::{PhysGraph, PhysNodeId};
use crate::latency::{OracleBuildError, OracleConfig};
use crate::oracle::{CachedOracle, MemberIdx};
use prop_engine::SimRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hard upper bound on embedding dimensionality (coordinates live in fixed
/// stack arrays on the fit's hot path).
pub const MAX_DIMS: usize = 8;

/// Initial coordinate radius, ms — relaxation moves points far beyond it.
const INIT_RADIUS_MS: f64 = 50.0;

/// Construction-time knobs of the coordinate embedding.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EmbedConfig {
    /// Euclidean dimensions of the coordinate space (2..=[`MAX_DIMS`];
    /// the height is carried separately). 4 is the classic Vivaldi sweet
    /// spot for internet-like latency spaces.
    pub dims: usize,
    /// Number of landmark members (one exact Dijkstra each). More
    /// landmarks ⇒ better-conditioned fit, linearly more build work.
    pub landmarks: usize,
    /// Spring-relaxation rounds over all landmark pairs.
    pub landmark_rounds: usize,
    /// Relaxation rounds each member performs against the frozen
    /// landmarks.
    pub member_rounds: usize,
    /// Held-out exact sources for the error calibration pass (one
    /// Dijkstra each).
    pub calibration_sources: usize,
    /// Stride-sampled destinations per calibration source.
    pub calibration_targets: usize,
    /// Which absolute-error percentile becomes the fallback band's
    /// per-term margin (in `[0, 1]`, e.g. `0.95`).
    pub fallback_percentile: f64,
    /// Safety multiplier on the per-term margin. Raising it escalates more
    /// borderline decisions to the exact tier (slower, safer).
    pub margin_scale: f64,
    /// Seed of the relaxation's deterministic initial placement.
    pub seed: u64,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        EmbedConfig {
            dims: 4,
            landmarks: 32,
            landmark_rounds: 128,
            member_rounds: 24,
            calibration_sources: 16,
            calibration_targets: 256,
            fallback_percentile: 0.95,
            margin_scale: 1.0,
            seed: 0x0045_4d42_4544,
        }
    }
}

impl EmbedConfig {
    /// Clamp every knob into its valid range (the fit assumes this).
    fn validated(self) -> EmbedConfig {
        EmbedConfig {
            dims: self.dims.clamp(2, MAX_DIMS),
            landmarks: self.landmarks.max(self.dims + 1),
            landmark_rounds: self.landmark_rounds.max(1),
            member_rounds: self.member_rounds.max(1),
            calibration_sources: self.calibration_sources.max(1),
            calibration_targets: self.calibration_targets.max(2),
            fallback_percentile: self.fallback_percentile.clamp(0.0, 1.0),
            margin_scale: self.margin_scale.max(0.0),
            ..self
        }
    }
}

/// The embedding's measured error distribution, committed alongside the
/// fit. All `abs` fields are milliseconds; `rel` fields are fractions of
/// the exact distance (floored at 1 ms to keep ratios finite).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EmbedCalibration {
    /// Held-out (source, destination) samples measured.
    pub samples: usize,
    pub abs_p50_ms: f64,
    pub abs_p90_ms: f64,
    pub abs_p95_ms: f64,
    pub abs_p99_ms: f64,
    pub abs_max_ms: f64,
    pub rel_p50: f64,
    pub rel_p90: f64,
    pub rel_p95: f64,
    pub rel_p99: f64,
}

prop_engine::json_impl!(ToJson for struct EmbedCalibration {
    samples, abs_p50_ms, abs_p90_ms, abs_p95_ms, abs_p99_ms, abs_max_ms, rel_p50, rel_p90,
    rel_p95, rel_p99
});

/// Query counters of the embedded tier (relaxed atomics — reporting, not
/// synchronization).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EmbedStats {
    /// `d(u,v)` queries answered from coordinates (the O(1) path).
    pub embed_queries: u64,
    /// Queries answered by the internal exact row-cache tier
    /// ([`EmbedOracle::d_exact`]).
    pub exact_queries: u64,
    /// Var decisions that fell inside the fallback band and were
    /// re-evaluated exactly.
    pub escalations: u64,
}

impl EmbedStats {
    /// Counter difference versus an earlier snapshot.
    pub fn since(&self, earlier: &EmbedStats) -> EmbedStats {
        EmbedStats {
            embed_queries: self.embed_queries.saturating_sub(earlier.embed_queries),
            exact_queries: self.exact_queries.saturating_sub(earlier.exact_queries),
            escalations: self.escalations.saturating_sub(earlier.escalations),
        }
    }

    /// Escalations per embedded query, 0 when nothing was asked.
    pub fn escalation_rate(&self) -> f64 {
        if self.embed_queries == 0 {
            0.0
        } else {
            self.escalations as f64 / self.embed_queries as f64
        }
    }
}

/// Decaying relaxation step: starts at 0.25, anneals toward a 0.02 floor.
#[inline]
fn step_at(round: usize, rounds: usize) -> f64 {
    0.02 + 0.23 * (1.0 - round as f64 / rounds as f64)
}

/// Squared-distance-free height-vector estimate between two coordinate
/// slices (`‖a − b‖ + h_a + h_b`).
#[inline]
fn estimate_raw(pa: &[f64], ha: f64, pb: &[f64], hb: f64) -> f64 {
    let mut s = 0.0;
    for k in 0..pa.len() {
        let d = pa[k] - pb[k];
        s += d * d;
    }
    s.sqrt() + ha + hb
}

/// One spring-relaxation update: move (`pos`, `height`) so that the
/// estimate toward the frozen (`other_pos`, `other_height`) approaches
/// `target_ms`. `fallback_axis` breaks the tie when the two positions
/// coincide (deterministically, never randomly).
#[inline]
fn nudge(
    pos: &mut [f64],
    height: &mut f64,
    other_pos: &[f64],
    other_height: f64,
    target_ms: f64,
    step: f64,
    fallback_axis: usize,
) {
    let dims = pos.len();
    let mut dir = [0.0f64; MAX_DIMS];
    let mut norm2 = 0.0;
    for k in 0..dims {
        let d = pos[k] - other_pos[k];
        dir[k] = d;
        norm2 += d * d;
    }
    let norm = norm2.sqrt();
    let est = norm + *height + other_height;
    let err = target_ms - est; // > 0: too close, push away
    if norm > 1e-9 {
        for d in dir.iter_mut().take(dims) {
            *d /= norm;
        }
    } else {
        dir = [0.0; MAX_DIMS];
        dir[fallback_axis % dims] = 1.0;
    }
    let delta = step * err * 0.5;
    for k in 0..dims {
        pos[k] += delta * dir[k];
    }
    *height = (*height + step * err * 0.25).max(0.0);
}

/// The coordinate-embedded oracle tier.
///
/// Owns its exact escalation path: a full [`CachedOracle`] over the same
/// member set, pre-seeded with the landmark and calibration rows the fit
/// already paid for.
pub struct EmbedOracle {
    exact: CachedOracle,
    dims: usize,
    /// Row-major `n × dims` coordinates, ms-scaled.
    coords: Box<[f64]>,
    /// Per-member height (access-link) component, ms, non-negative.
    heights: Box<[f64]>,
    landmarks: Vec<MemberIdx>,
    calibration: EmbedCalibration,
    margin_per_term: f64,
    embed_queries: AtomicU64,
    exact_queries: AtomicU64,
    escalations: AtomicU64,
}

impl EmbedOracle {
    /// Fit the embedding and build the escalation tier. Connectivity is
    /// validated by the internal exact build (a disconnected pair fails
    /// fast with the offending members named), and every exact row the fit
    /// reads — landmark, calibration — is made by that tier's row kernel.
    pub fn try_build(
        graph: &PhysGraph,
        members: Vec<PhysNodeId>,
        cfg: &OracleConfig,
    ) -> Result<Self, OracleBuildError> {
        let ecfg = cfg.embed.validated();
        let n = members.len();
        let exact = CachedOracle::try_build(graph, members, cfg)?;
        let dims = ecfg.dims;

        if n == 0 {
            return Ok(EmbedOracle {
                exact,
                dims,
                coords: Box::new([]),
                heights: Box::new([]),
                landmarks: Vec::new(),
                calibration: EmbedCalibration::default(),
                margin_per_term: 0.0,
                embed_queries: AtomicU64::new(0),
                exact_queries: AtomicU64::new(0),
                escalations: AtomicU64::new(0),
            });
        }

        // 1. Landmarks by deterministic stride (distinct for l <= n).
        let l = ecfg.landmarks.min(n);
        let landmarks: Vec<MemberIdx> = (0..l).map(|k| k * n / l).collect();
        let landmark_rows: Vec<Arc<[u32]>> =
            landmarks.iter().map(|&lm| exact.compute_row(lm)).collect();

        // 2. Landmark relaxation over the exact L × L distances.
        let root = SimRng::seed_from(ecfg.seed);
        let mut lpos = vec![0.0f64; l * dims];
        let mut lh = vec![1.0f64; l];
        {
            let mut rng = root.fork("landmark-init");
            for p in lpos.iter_mut() {
                *p = (rng.unit() - 0.5) * 2.0 * INIT_RADIUS_MS;
            }
        }
        for round in 0..ecfg.landmark_rounds {
            let step = step_at(round, ecfg.landmark_rounds);
            for i in 0..l {
                for j in 0..l {
                    if i == j {
                        continue;
                    }
                    let target = landmark_rows[j][landmarks[i]] as f64;
                    let mut other = [0.0f64; MAX_DIMS];
                    other[..dims].copy_from_slice(&lpos[j * dims..j * dims + dims]);
                    let oh = lh[j];
                    nudge(
                        &mut lpos[i * dims..i * dims + dims],
                        &mut lh[i],
                        &other[..dims],
                        oh,
                        target,
                        step,
                        i + j,
                    );
                }
            }
        }

        // 3. Per-member fit against the frozen landmarks. Members are
        //    independent (own stream, own coordinate). Landmark members
        //    pin to their own relaxed coordinate.
        let fitted: Vec<([f64; MAX_DIMS], f64)> = (0..n)
            .map(|m| {
                if let Ok(li) = landmarks.binary_search(&m) {
                    let mut pos = [0.0f64; MAX_DIMS];
                    pos[..dims].copy_from_slice(&lpos[li * dims..li * dims + dims]);
                    return (pos, lh[li]);
                }
                let mut rng = root.fork_indexed("member-init", m as u64);
                let mut pos = [0.0f64; MAX_DIMS];
                for p in pos.iter_mut().take(dims) {
                    *p = (rng.unit() - 0.5) * 2.0 * INIT_RADIUS_MS;
                }
                let mut h = 1.0f64;
                for round in 0..ecfg.member_rounds {
                    let step = step_at(round, ecfg.member_rounds);
                    for (j, row) in landmark_rows.iter().enumerate() {
                        nudge(
                            &mut pos[..dims],
                            &mut h,
                            &lpos[j * dims..j * dims + dims],
                            lh[j],
                            row[m] as f64,
                            step,
                            m + j,
                        );
                    }
                }
                (pos, h)
            })
            .collect();
        let mut coords = vec![0.0f64; n * dims];
        let mut heights = vec![0.0f64; n];
        for (m, (pos, h)) in fitted.into_iter().enumerate() {
            coords[m * dims..m * dims + dims].copy_from_slice(&pos[..dims]);
            heights[m] = h;
        }

        // 4. Calibration from held-out stride sources (offset by half a
        //    stride so they interleave with, not duplicate, the landmarks).
        let c = ecfg.calibration_sources.min(n);
        let mut cal_sources: Vec<MemberIdx> =
            (0..c).map(|k| (k * n / c + n / (2 * c).max(1)).min(n - 1)).collect();
        cal_sources.dedup();
        let cal_rows: Vec<Arc<[u32]>> = cal_sources.iter().map(|&s| exact.compute_row(s)).collect();

        let tgt = ecfg.calibration_targets.min(n);
        let mut abs_errs: Vec<f64> = Vec::with_capacity(cal_sources.len() * tgt);
        let mut rel_errs: Vec<f64> = Vec::with_capacity(cal_sources.len() * tgt);
        for (si, &s) in cal_sources.iter().enumerate() {
            for t in 0..tgt {
                let b = t * n / tgt;
                if b == s {
                    continue;
                }
                let exact_ms = cal_rows[si][b] as f64;
                let est = estimate_raw(
                    &coords[s * dims..s * dims + dims],
                    heights[s],
                    &coords[b * dims..b * dims + dims],
                    heights[b],
                );
                let e = (est - exact_ms).abs();
                abs_errs.push(e);
                rel_errs.push(e / exact_ms.max(1.0));
            }
        }
        abs_errs.sort_by(f64::total_cmp);
        rel_errs.sort_by(f64::total_cmp);
        let pct = |xs: &[f64], p: f64| -> f64 {
            if xs.is_empty() {
                return 0.0;
            }
            let idx = (p.clamp(0.0, 1.0) * (xs.len() - 1) as f64).round() as usize;
            xs[idx.min(xs.len() - 1)]
        };
        let calibration = EmbedCalibration {
            samples: abs_errs.len(),
            abs_p50_ms: pct(&abs_errs, 0.50),
            abs_p90_ms: pct(&abs_errs, 0.90),
            abs_p95_ms: pct(&abs_errs, 0.95),
            abs_p99_ms: pct(&abs_errs, 0.99),
            abs_max_ms: abs_errs.last().copied().unwrap_or(0.0),
            rel_p50: pct(&rel_errs, 0.50),
            rel_p90: pct(&rel_errs, 0.90),
            rel_p95: pct(&rel_errs, 0.95),
            rel_p99: pct(&rel_errs, 0.99),
        };
        let margin_per_term = if abs_errs.is_empty() {
            0.0
        } else {
            (pct(&abs_errs, ecfg.fallback_percentile) * ecfg.margin_scale).max(1.0)
        };

        // The fit already paid for these rows — seed the escalation tier
        // so borderline decisions near the landmarks start warm.
        for (&lm, row) in landmarks.iter().zip(landmark_rows) {
            exact.seed_row(lm, row);
        }
        for (&s, row) in cal_sources.iter().zip(cal_rows) {
            exact.seed_row(s, row);
        }

        Ok(EmbedOracle {
            exact,
            dims,
            coords: coords.into_boxed_slice(),
            heights: heights.into_boxed_slice(),
            landmarks,
            calibration,
            margin_per_term,
            embed_queries: AtomicU64::new(0),
            exact_queries: AtomicU64::new(0),
            escalations: AtomicU64::new(0),
        })
    }

    /// The raw (un-rounded, un-counted) embedded estimate, ms.
    #[inline]
    pub fn estimate(&self, a: MemberIdx, b: MemberIdx) -> f64 {
        if a == b {
            return 0.0;
        }
        let d = self.dims;
        estimate_raw(
            &self.coords[a * d..a * d + d],
            self.heights[a],
            &self.coords[b * d..b * d + d],
            self.heights[b],
        )
    }

    /// O(1) embedded distance, ms. Symmetric, zero on the diagonal, and
    /// `ceil`-rounded so the triangle inequality survives quantization.
    #[inline]
    pub fn d(&self, a: MemberIdx, b: MemberIdx) -> u32 {
        if a == b {
            return 0;
        }
        self.embed_queries.fetch_add(1, Ordering::Relaxed);
        self.estimate(a, b).ceil() as u32
    }

    /// Exact distance through the internal row-cache tier — the
    /// escalation path of the fallback band.
    #[inline]
    pub fn d_exact(&self, a: MemberIdx, b: MemberIdx) -> u32 {
        self.exact_queries.fetch_add(1, Ordering::Relaxed);
        self.exact.d(a, b)
    }

    /// Record one Var decision escalated into the band.
    #[inline]
    pub fn note_escalation(&self) {
        self.escalations.fetch_add(1, Ordering::Relaxed);
    }

    /// Absolute error margin (ms) one `d(u,v)` term contributes to a Var
    /// comparison's fallback band.
    #[inline]
    pub fn margin_per_term(&self) -> f64 {
        self.margin_per_term
    }

    /// The committed error-distribution calibration.
    pub fn calibration(&self) -> EmbedCalibration {
        self.calibration
    }

    /// Query counters.
    pub fn stats(&self) -> EmbedStats {
        EmbedStats {
            embed_queries: self.embed_queries.load(Ordering::Relaxed),
            exact_queries: self.exact_queries.load(Ordering::Relaxed),
            escalations: self.escalations.load(Ordering::Relaxed),
        }
    }

    /// The internal exact tier (escalation path).
    pub fn exact(&self) -> &CachedOracle {
        &self.exact
    }

    /// Warm the exact tier's rows for `sources` — for harnesses that will
    /// escalate a known slot set.
    pub fn warm_exact_rows(&self, sources: &[MemberIdx]) {
        self.exact.warm_rows(sources);
    }

    /// Member indices used as landmarks.
    pub fn landmark_members(&self) -> &[MemberIdx] {
        &self.landmarks
    }

    /// Flat row-major `n × dims()` coordinate array (determinism tests
    /// compare these bit-for-bit).
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Per-member height components, ms.
    pub fn heights(&self) -> &[f64] {
        &self.heights
    }

    /// Euclidean dimensionality of the fitted space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.heights.len()
    }

    /// Whether the oracle has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical host backing member `i`.
    #[inline]
    pub fn host(&self, i: MemberIdx) -> PhysNodeId {
        self.exact.host(i)
    }

    /// Mean physical *link* latency — denominator of the stretch metric.
    #[inline]
    pub fn mean_phys_link_latency(&self) -> f64 {
        self.exact.mean_phys_link_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transit_stub::{generate, TransitStubParams};

    fn tiny_embed(n: usize, seed: u64) -> EmbedOracle {
        let mut rng = SimRng::seed_from(seed);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        let stubs = g.stub_nodes();
        let members = rng.sample_distinct(&stubs, n);
        EmbedOracle::try_build(&g, members, &OracleConfig::embedded()).unwrap()
    }

    #[test]
    fn symmetric_zero_diagonal() {
        let o = tiny_embed(20, 1);
        for a in 0..20 {
            assert_eq!(o.d(a, a), 0);
            for b in 0..20 {
                assert_eq!(o.d(a, b), o.d(b, a), "pair ({a}, {b})");
            }
        }
    }

    #[test]
    fn triangle_inequality_survives_ceil_rounding() {
        let o = tiny_embed(14, 2);
        for a in 0..14 {
            for b in 0..14 {
                for c in 0..14 {
                    assert!(
                        o.d(a, b) <= o.d(a, c) + o.d(c, b),
                        "({a},{b},{c}): {} > {} + {}",
                        o.d(a, b),
                        o.d(a, c),
                        o.d(c, b)
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_same_graph_bit_identical() {
        let a = tiny_embed(24, 7);
        let b = tiny_embed(24, 7);
        assert_eq!(a.coords().len(), b.coords().len());
        for (x, y) in a.coords().iter().zip(b.coords()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.heights().iter().zip(b.heights()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn heights_nonnegative_and_finite() {
        let o = tiny_embed(24, 3);
        for (&h, chunk) in o.heights().iter().zip(o.coords().chunks(o.dims())) {
            assert!(h >= 0.0 && h.is_finite());
            assert!(chunk.iter().all(|c| c.is_finite()));
        }
    }

    #[test]
    fn calibration_percentiles_are_monotone() {
        let o = tiny_embed(30, 4);
        let c = o.calibration();
        assert!(c.samples > 0);
        assert!(c.abs_p50_ms <= c.abs_p90_ms);
        assert!(c.abs_p90_ms <= c.abs_p95_ms);
        assert!(c.abs_p95_ms <= c.abs_p99_ms);
        assert!(c.abs_p99_ms <= c.abs_max_ms);
        assert!(c.rel_p50 <= c.rel_p99);
        assert!(o.margin_per_term() >= 1.0);
    }

    #[test]
    fn estimate_tracks_exact_within_calibrated_max() {
        // The calibrated max is a measured quantile of held-out error, not
        // a proof — but on this tiny graph the same stride sources were
        // measured, so re-checking them must reproduce errors <= max.
        let o = tiny_embed(30, 5);
        let c = o.calibration();
        let n = 30;
        for s in 0..n {
            for b in 0..n {
                if s == b {
                    continue;
                }
                let exact = o.d_exact(s, b) as f64;
                let err = (o.estimate(s, b) - exact).abs();
                // Fit + calibration errors share one distribution; allow
                // 3x the measured max for non-calibrated pairs.
                assert!(
                    err <= (3.0 * c.abs_max_ms).max(30.0),
                    "pair ({s},{b}) err {err} vs max {}",
                    c.abs_max_ms
                );
            }
        }
    }

    #[test]
    fn counters_track_queries() {
        let o = tiny_embed(10, 6);
        let s0 = o.stats();
        let _ = o.d(1, 2);
        let _ = o.d(3, 4);
        let _ = o.d_exact(1, 2);
        o.note_escalation();
        let s = o.stats().since(&s0);
        assert_eq!(s.embed_queries, 2);
        assert_eq!(s.exact_queries, 1);
        assert_eq!(s.escalations, 1);
        assert!(s.escalation_rate() > 0.0);
        // Snapshots in the wrong order read zero, not an overflow panic.
        assert_eq!(s0.since(&o.stats()), EmbedStats::default());
    }

    #[test]
    fn landmark_rows_preseed_exact_tier() {
        let o = tiny_embed(24, 8);
        let stats = o.exact().cache_stats();
        // Landmarks + calibration sources + the connectivity row.
        assert!(stats.resident_rows > 1, "fit rows should seed the cache: {stats:?}");
    }
}
