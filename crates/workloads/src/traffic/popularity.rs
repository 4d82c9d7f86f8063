//! Time-varying Zipf popularity.
//!
//! A [`PopularityProcess`] resolves "which object does a lookup at time `t`
//! want?" under the script's [`PopularityShift`]s: Zipf(α) over the catalog
//! with a step-changing exponent and a rotating hot set. The legacy static
//! generator [`crate::zipf::zipf_pairs`] now routes through a constant
//! process — same fork label, same draw order, pinned by regression test.

use super::script::{PopularityShift, TrafficScript, DEFAULT_ALPHA};
use crate::zipf::Zipf;
use prop_engine::SimRng;
use prop_overlay::Slot;

struct Phase {
    from_ms: u64,
    alpha: f64,
    rotate: u32,
    zipf: Zipf,
}

/// Zipf rank sampling whose parameters follow a script's popularity
/// shifts. Zipf CDFs are precomputed per phase, so sampling is one
/// `unit()` draw plus a binary search regardless of how many shifts the
/// script declares.
pub struct PopularityProcess {
    catalog: u32,
    /// Step phases sorted by effect time; the first always covers t = 0.
    phases: Vec<Phase>,
}

impl PopularityProcess {
    /// The process a script declares: [`DEFAULT_ALPHA`], unrotated, until
    /// the first shift; each shift is a step change in force until the
    /// next.
    pub fn new(script: &TrafficScript) -> Self {
        Self::from_shifts(script.catalog, &script.sorted_shifts())
    }

    /// A shift-free process: Zipf(`alpha`) over `catalog` ranks at every
    /// instant — the legacy `zipf_pairs` distribution.
    pub fn constant(catalog: u32, alpha: f64) -> Self {
        Self::from_shifts(catalog, &[PopularityShift { at_ms: 0, alpha, rotate: 0 }])
    }

    fn from_shifts(catalog: u32, shifts: &[PopularityShift]) -> Self {
        assert!(catalog > 0, "catalog must be non-empty");
        let mut phases = Vec::with_capacity(shifts.len() + 1);
        if shifts.first().map(|s| s.at_ms > 0).unwrap_or(true) {
            phases.push(Phase {
                from_ms: 0,
                alpha: DEFAULT_ALPHA,
                rotate: 0,
                zipf: Zipf::new(catalog as usize, DEFAULT_ALPHA),
            });
        }
        for s in shifts {
            phases.push(Phase {
                from_ms: s.at_ms,
                alpha: s.alpha,
                rotate: s.rotate % catalog,
                zipf: Zipf::new(catalog as usize, s.alpha),
            });
        }
        PopularityProcess { catalog, phases }
    }

    fn phase_at(&self, t_ms: u64) -> &Phase {
        let i = self.phases.partition_point(|p| p.from_ms <= t_ms);
        &self.phases[i.saturating_sub(1).min(self.phases.len() - 1)]
    }

    /// The Zipf exponent in force at `t_ms`.
    pub fn alpha_at(&self, t_ms: u64) -> f64 {
        self.phase_at(t_ms).alpha
    }

    /// The catalog rotation in force at `t_ms`.
    pub fn rotation_at(&self, t_ms: u64) -> u32 {
        self.phase_at(t_ms).rotate
    }

    /// Sample a catalog rank for a lookup at `t_ms` — one Zipf draw, then
    /// the phase's rotation.
    pub fn sample_rank(&self, t_ms: u64, rng: &mut SimRng) -> u32 {
        let ph = self.phase_at(t_ms);
        (ph.zipf.sample(rng) as u32 + ph.rotate) % self.catalog
    }

    /// A `(src, dst)` lookup workload at instant `t_ms`: uniform live
    /// sources, destinations by popularity over `ranking`
    /// (`ranking[rank % len]` holds the rank-th object). Exactly the
    /// legacy `zipf_pairs` loop when the process is
    /// [`PopularityProcess::constant`] over `ranking.len()` ranks.
    pub fn pairs_at(
        &self,
        t_ms: u64,
        live: &[Slot],
        ranking: &[Slot],
        count: usize,
        rng: &mut SimRng,
    ) -> Vec<(Slot, Slot)> {
        assert!(live.len() >= 2 && !ranking.is_empty());
        (0..count)
            .map(|_| loop {
                let src = *rng.pick(live).unwrap();
                let dst = ranking[self.sample_rank(t_ms, rng) as usize % ranking.len()];
                if src != dst {
                    return (src, dst);
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script() -> TrafficScript {
        TrafficScript::new(1000, 100_000, 20).shift(50_000, 1.5, 5)
    }

    #[test]
    fn default_phase_covers_time_zero() {
        let p = PopularityProcess::new(&script());
        assert!((p.alpha_at(0) - DEFAULT_ALPHA).abs() < 1e-12);
        assert_eq!(p.rotation_at(0), 0);
    }

    #[test]
    fn shift_is_a_step_change_at_its_instant() {
        let p = PopularityProcess::new(&script());
        assert!((p.alpha_at(49_999) - DEFAULT_ALPHA).abs() < 1e-12);
        assert!((p.alpha_at(50_000) - 1.5).abs() < 1e-12);
        assert_eq!(p.rotation_at(50_000), 5);
        assert!((p.alpha_at(99_999) - 1.5).abs() < 1e-12, "in force until the next shift");
    }

    #[test]
    fn rotation_moves_the_hot_rank() {
        let p = PopularityProcess::new(&script());
        let mut rng = SimRng::seed_from(1);
        let mut hits_before = vec![0u32; 20];
        let mut hits_after = vec![0u32; 20];
        for _ in 0..4000 {
            hits_before[p.sample_rank(0, &mut rng) as usize] += 1;
            hits_after[p.sample_rank(60_000, &mut rng) as usize] += 1;
        }
        let argmax = |v: &[u32]| v.iter().enumerate().max_by_key(|&(_, c)| *c).unwrap().0;
        assert_eq!(argmax(&hits_before), 0);
        assert_eq!(argmax(&hits_after), 5, "rotated hot rank");
    }

    #[test]
    fn rotation_wraps_the_catalog() {
        let p = PopularityProcess::from_shifts(
            8,
            &[PopularityShift { at_ms: 0, alpha: 0.0, rotate: 19 }],
        );
        assert_eq!(p.rotation_at(0), 3);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..100 {
            assert!(p.sample_rank(0, &mut rng) < 8);
        }
    }

    #[test]
    fn pairs_reject_self_lookups() {
        let live: Vec<Slot> = (0..10).map(Slot).collect();
        let p = PopularityProcess::constant(10, 1.0);
        let mut rng = SimRng::seed_from(3);
        for (s, d) in p.pairs_at(0, &live, &live, 500, &mut rng) {
            assert_ne!(s, d);
        }
    }
}
