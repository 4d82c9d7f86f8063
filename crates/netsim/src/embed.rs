//! Coordinate-embedded latency tier: `d(u, v)` in O(1) at million-member
//! scale.
//!
//! The row-cache tier pays a whole-graph Dijkstra per cold source on a
//! graph without the transit–stub structure; on one that has it, a pair in
//! two stub domains is two array reads and two adds, exact, and only a pair
//! inside one domain pays a search, confined to it (DESIGN.md §9, "Row
//! kernel"; §13 on what that leaves this tier). This module removes the
//! per-pair graph computation entirely: every member gets a **network
//! coordinate** — a Vivaldi-style *height-vector* (position in a
//! low-dimensional Euclidean space plus a non-negative "height" modelling
//! the access-link cost of climbing out of the stub domain) — fit **once**
//! at construction from a small number of exact rows, after which
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
//!    member index space. One exact row per landmark (from the oracle's
//!    row kernel) yields the landmark→member distances — the only graph
//!    computation the fit performs.
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
//! The fit's sizes (`L`, `C`, the round counts, the dimensionality, the
//! seed) are constants below: nothing but a test ever set them otherwise.
//!
//! ## The exact-fallback band
//!
//! An embedding is an estimate; the protocol's `Var > MIN_VAR` exchange
//! decisions must stay trustworthy. The calibration yields a **margin per
//! distance term** (the 95th percentile of the held-out absolute error).
//! When a Var comparison lands within `terms × margin` of the threshold,
//! the decision **escalates**: the same plan is re-evaluated with exact
//! distances from the oracle's row store
//! ([`crate::LatencyOracle::d_exact`] — a point query there wherever the
//! row tier's is). Decisions far from the threshold —
//! the vast majority — stay on the O(1) path. `prop-core`'s
//! `exchange::decide` is the single consumer of this contract, and the
//! `embed_agreement` harness measures the resulting exchange-decision
//! agreement the way the `tier_equivalence` proptests pin the cached tier.
//!
//! Rounding uses `ceil`, which preserves the triangle inequality exactly:
//! `⌈x⌉ + ⌈y⌉ ≥ ⌈x + y⌉ ≥ ⌈z⌉` whenever `x + y ≥ z`.

use crate::graph::PhysNodeId;
use crate::oracle::{MemberIdx, RowStore};
use prop_engine::SimRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Euclidean dimensions of the coordinate space (the height is carried
/// separately). 4 is the classic Vivaldi sweet spot for internet-like
/// latency spaces.
const DIMS: usize = 4;
/// Landmark members (one exact row each). More landmarks ⇒ a
/// better-conditioned fit, linearly more build work.
const LANDMARKS: usize = 32;
/// Spring-relaxation rounds over all landmark pairs.
const LANDMARK_ROUNDS: usize = 128;
/// Relaxation rounds each member performs against the frozen landmarks.
const MEMBER_ROUNDS: usize = 24;
/// Held-out exact sources for the error calibration pass (one row each).
const CALIBRATION_SOURCES: usize = 16;
/// Stride-sampled destinations per calibration source.
const CALIBRATION_TARGETS: usize = 256;
/// Seed of the relaxation's deterministic initial placement.
const FIT_SEED: u64 = 0x0045_4d42_4544;
/// Initial coordinate radius, ms — relaxation moves points far beyond it.
const INIT_RADIUS_MS: f64 = 50.0;

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
    /// Queries answered from exact rows
    /// ([`crate::LatencyOracle::d_exact`]).
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
    let mut dir = [0.0f64; DIMS];
    let mut norm2 = 0.0;
    for k in 0..DIMS {
        let d = pos[k] - other_pos[k];
        dir[k] = d;
        norm2 += d * d;
    }
    let norm = norm2.sqrt();
    let est = norm + *height + other_height;
    let err = target_ms - est; // > 0: too close, push away
    if norm > 1e-9 {
        for d in &mut dir {
            *d /= norm;
        }
    } else {
        dir = [0.0; DIMS];
        dir[fallback_axis % DIMS] = 1.0;
    }
    let delta = step * err * 0.5;
    for k in 0..DIMS {
        pos[k] += delta * dir[k];
    }
    *height = (*height + step * err * 0.25).max(0.0);
}

/// What the coordinate-embedded tier fitted: a coordinate and a height per
/// member, the error it measured against held-out exact rows, and its
/// query counters. Read through [`crate::LatencyOracle::embedding`].
pub struct Embedding {
    /// Row-major `n × DIMS` coordinates, ms-scaled.
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

impl Embedding {
    /// Fit the embedding over `members`. Every exact row the fit reads —
    /// landmark, calibration — is a whole row made by `rows`' kernel (which
    /// validated connectivity when it was built), and is left in its cache
    /// afterwards where whole rows are what that keeps.
    pub(crate) fn fit(rows: &RowStore, members: &[PhysNodeId]) -> Embedding {
        let n = members.len();

        // 1. Landmarks by deterministic stride (distinct for l <= n).
        let l = LANDMARKS.min(n);
        let landmarks: Vec<MemberIdx> = (0..l).map(|k| k * n / l).collect();
        let landmark_rows: Vec<_> =
            landmarks.iter().map(|&lm| rows.compute_row(members, lm)).collect();

        // 2. Landmark relaxation over the exact L × L distances.
        let root = SimRng::seed_from(FIT_SEED);
        let mut lpos = vec![0.0f64; l * DIMS];
        let mut lh = vec![1.0f64; l];
        {
            let mut rng = root.fork("landmark-init");
            for p in lpos.iter_mut() {
                *p = (rng.unit() - 0.5) * 2.0 * INIT_RADIUS_MS;
            }
        }
        for round in 0..LANDMARK_ROUNDS {
            let step = step_at(round, LANDMARK_ROUNDS);
            for i in 0..l {
                for j in 0..l {
                    if i == j {
                        continue;
                    }
                    let target = landmark_rows[j][landmarks[i]] as f64;
                    let mut other = [0.0f64; DIMS];
                    other.copy_from_slice(&lpos[j * DIMS..j * DIMS + DIMS]);
                    let oh = lh[j];
                    nudge(
                        &mut lpos[i * DIMS..i * DIMS + DIMS],
                        &mut lh[i],
                        &other,
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
        let fitted: Vec<([f64; DIMS], f64)> = (0..n)
            .map(|m| {
                let mut pos = [0.0f64; DIMS];
                if let Ok(li) = landmarks.binary_search(&m) {
                    pos.copy_from_slice(&lpos[li * DIMS..li * DIMS + DIMS]);
                    return (pos, lh[li]);
                }
                let mut rng = root.fork_indexed("member-init", m as u64);
                for p in &mut pos {
                    *p = (rng.unit() - 0.5) * 2.0 * INIT_RADIUS_MS;
                }
                let mut h = 1.0f64;
                for round in 0..MEMBER_ROUNDS {
                    let step = step_at(round, MEMBER_ROUNDS);
                    for (j, row) in landmark_rows.iter().enumerate() {
                        nudge(
                            &mut pos,
                            &mut h,
                            &lpos[j * DIMS..j * DIMS + DIMS],
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
        let mut coords = vec![0.0f64; n * DIMS];
        let mut heights = vec![0.0f64; n];
        for (m, (pos, h)) in fitted.into_iter().enumerate() {
            coords[m * DIMS..m * DIMS + DIMS].copy_from_slice(&pos);
            heights[m] = h;
        }

        // 4. Calibration from held-out stride sources (offset by half a
        //    stride so they interleave with, not duplicate, the landmarks).
        let c = CALIBRATION_SOURCES.min(n);
        let mut cal_sources: Vec<MemberIdx> =
            (0..c).map(|k| (k * n / c + n / (2 * c).max(1)).min(n - 1)).collect();
        cal_sources.dedup();
        let cal_rows: Vec<_> = cal_sources.iter().map(|&s| rows.compute_row(members, s)).collect();

        let tgt = CALIBRATION_TARGETS.min(n);
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
                    &coords[s * DIMS..s * DIMS + DIMS],
                    heights[s],
                    &coords[b * DIMS..b * DIMS + DIMS],
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
            let idx = (p * (xs.len() - 1) as f64).round() as usize;
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
        // The fallback band's per-term margin: the p95 absolute error, at
        // least the 1 ms `d` is quantized to.
        let margin_per_term =
            if abs_errs.is_empty() { 0.0 } else { calibration.abs_p95_ms.max(1.0) };

        // The fit already paid for these rows — seed the escalation path
        // so borderline decisions near the landmarks start warm (a no-op
        // on a decomposed store, whose escalations read no whole row).
        for (&lm, row) in landmarks.iter().zip(landmark_rows) {
            rows.seed_row(lm, row);
        }
        for (&s, row) in cal_sources.iter().zip(cal_rows) {
            rows.seed_row(s, row);
        }

        Embedding {
            coords: coords.into_boxed_slice(),
            heights: heights.into_boxed_slice(),
            landmarks,
            calibration,
            margin_per_term,
            embed_queries: AtomicU64::new(0),
            exact_queries: AtomicU64::new(0),
            escalations: AtomicU64::new(0),
        }
    }

    /// The raw (un-rounded, un-counted) embedded estimate, ms.
    #[inline]
    pub(crate) fn estimate(&self, a: MemberIdx, b: MemberIdx) -> f64 {
        if a == b {
            return 0.0;
        }
        estimate_raw(
            &self.coords[a * DIMS..a * DIMS + DIMS],
            self.heights[a],
            &self.coords[b * DIMS..b * DIMS + DIMS],
            self.heights[b],
        )
    }

    /// O(1) embedded distance, ms. Symmetric, zero on the diagonal, and
    /// `ceil`-rounded so the triangle inequality survives quantization.
    #[inline]
    pub(crate) fn d(&self, a: MemberIdx, b: MemberIdx) -> u32 {
        if a == b {
            return 0;
        }
        self.embed_queries.fetch_add(1, Ordering::Relaxed);
        self.estimate(a, b).ceil() as u32
    }

    /// Record one query answered from exact rows instead.
    #[inline]
    pub(crate) fn note_exact_query(&self) {
        self.exact_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one Var decision escalated into the band.
    #[inline]
    pub(crate) fn note_escalation(&self) {
        self.escalations.fetch_add(1, Ordering::Relaxed);
    }

    /// Absolute error margin (ms) one `d(u,v)` term contributes to a Var
    /// comparison's fallback band.
    #[inline]
    pub(crate) fn margin_per_term(&self) -> f64 {
        self.margin_per_term
    }

    /// The committed error-distribution calibration.
    pub(crate) fn calibration(&self) -> EmbedCalibration {
        self.calibration
    }

    /// Query counters.
    pub(crate) fn stats(&self) -> EmbedStats {
        EmbedStats {
            embed_queries: self.embed_queries.load(Ordering::Relaxed),
            exact_queries: self.exact_queries.load(Ordering::Relaxed),
            escalations: self.escalations.load(Ordering::Relaxed),
        }
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
        DIMS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transit_stub::{generate, TransitStubParams};
    use crate::waxman::{generate_waxman, WaxmanParams};
    use crate::{LatencyOracle, OracleConfig};

    fn tiny_embed(n: usize, seed: u64) -> LatencyOracle {
        let mut rng = SimRng::seed_from(seed);
        let g = generate(&TransitStubParams::tiny(), &mut rng);
        let stubs = g.stub_nodes();
        let members = rng.sample_distinct(&stubs, n);
        LatencyOracle::try_build_with(&g, members, &OracleConfig::embedded()).unwrap()
    }

    fn fit(o: &LatencyOracle) -> &Embedding {
        o.embedding().expect("built on the embedded tier")
    }

    /// All of `tiny()`'s stub hosts: more members than landmarks, so eight
    /// of them take the per-member fit.
    const PAST_LANDMARKS: usize = LANDMARKS + 8;

    #[test]
    fn symmetric_zero_diagonal() {
        let o = tiny_embed(PAST_LANDMARKS, 1);
        for a in 0..PAST_LANDMARKS {
            assert_eq!(o.d(a, a), 0);
            for b in 0..PAST_LANDMARKS {
                assert_eq!(o.d(a, b), o.d(b, a), "pair ({a}, {b})");
            }
        }
    }

    #[test]
    fn triangle_inequality_survives_ceil_rounding() {
        let o = tiny_embed(PAST_LANDMARKS, 2);
        for a in 0..PAST_LANDMARKS {
            for b in 0..PAST_LANDMARKS {
                for c in 0..PAST_LANDMARKS {
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
        let (a, b) = (tiny_embed(PAST_LANDMARKS, 7), tiny_embed(PAST_LANDMARKS, 7));
        let (a, b) = (fit(&a), fit(&b));
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
        let o = tiny_embed(PAST_LANDMARKS, 3);
        let e = fit(&o);
        assert_eq!(e.heights().len(), PAST_LANDMARKS);
        assert_eq!(e.landmark_members().len(), LANDMARKS, "the rest are fitted members");
        for (&h, chunk) in e.heights().iter().zip(e.coords().chunks(e.dims())) {
            assert!(h >= 0.0 && h.is_finite());
            assert!(chunk.iter().all(|c| c.is_finite()));
        }
    }

    #[test]
    fn calibration_percentiles_are_monotone() {
        let o = tiny_embed(PAST_LANDMARKS, 4);
        let c = o.embed_calibration().unwrap();
        assert!(c.samples > 0);
        assert!(c.abs_p50_ms <= c.abs_p90_ms);
        assert!(c.abs_p90_ms <= c.abs_p95_ms);
        assert!(c.abs_p95_ms <= c.abs_p99_ms);
        assert!(c.abs_p99_ms <= c.abs_max_ms);
        assert!(c.rel_p50 <= c.rel_p99);
        assert!(o.var_margin_per_term() >= 1.0);
    }

    #[test]
    fn estimate_tracks_exact_within_calibrated_max() {
        // The calibrated max is a measured quantile of held-out error, not
        // a proof — but on this tiny graph the same stride sources were
        // measured, so re-checking them must reproduce errors <= max.
        let o = tiny_embed(PAST_LANDMARKS, 5);
        let c = o.embed_calibration().unwrap();
        let n = PAST_LANDMARKS;
        for s in 0..n {
            for b in 0..n {
                if s == b {
                    continue;
                }
                let exact = o.d_exact(s, b) as f64;
                let err = (fit(&o).estimate(s, b) - exact).abs();
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
        let s0 = o.embed_stats().unwrap();
        let _ = o.d(1, 2);
        let _ = o.d(3, 4);
        let _ = o.d_exact(1, 2);
        o.note_escalation();
        let s = o.embed_stats().unwrap().since(&s0);
        assert_eq!(s.embed_queries, 2);
        assert_eq!(s.exact_queries, 1);
        assert_eq!(s.escalations, 1);
        assert!(s.escalation_rate() > 0.0);
        // Snapshots in the wrong order read zero, not an overflow panic.
        assert_eq!(s0.since(&o.embed_stats().unwrap()), EmbedStats::default());
    }

    #[test]
    fn landmark_rows_preseed_exact_tier() {
        // Where whole rows are what the exact path keeps (a Waxman graph),
        // the fit's are left there: landmarks, calibration sources and the
        // connectivity row.
        let mut rng = SimRng::seed_from(8);
        let g = generate_waxman(&WaxmanParams::tiny(), &mut rng);
        let members = rng.sample_distinct(&g.stub_nodes(), 24);
        let o = LatencyOracle::try_build_with(&g, members, &OracleConfig::embedded()).unwrap();
        let stats = o.cache_stats().unwrap();
        assert_eq!(stats.resident_rows, 24, "fit rows should seed the cache: {stats:?}");
        assert_eq!(stats.resident_bytes, 24 * 24 * 2, "{stats:?}");
        // On a decomposed graph an escalation is a point query or reads a
        // domain's row: a whole row has no reader, and none is kept.
        let stats = tiny_embed(24, 8).cache_stats().unwrap();
        assert_eq!((stats.resident_rows, stats.misses), (0, 0), "{stats:?}");
    }
}
