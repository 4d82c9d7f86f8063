//! Declarative traffic scenarios.
//!
//! A [`TrafficScript`] is plain data with a JSON form — like `FaultScript`
//! in prop-faults — describing a time-varying workload: per-transit-domain
//! diurnal join/leave/lookup rate tables, flash-crowd windows, and Zipf
//! popularity shifts. Scripts carry *no* randomness; all draws happen at
//! compile time under one seed (see [`crate::traffic::compile`]).
//!
//! Time is measured in simulated milliseconds, but the diurnal machinery
//! works in *simulated hours* of configurable length (`hour_ms`): a quick
//! 30-minute run can compress a whole 24-hour day by setting
//! `hour_ms = 75_000`. Rate-table entries are piecewise-constant per hour;
//! [`PopularityShift`]s are step changes in force until the next shift;
//! [`FlashCrowd`]s are self-contained `[at, at + duration)` windows —
//! the same step/window split `FaultScript` uses.

use prop_engine::json_impl;

/// Hours per simulated day: diurnal tables index hour-of-day `0..24`.
pub const HOURS_PER_DAY: u64 = 24;

/// Diurnal phase labels, one per quarter of the simulated day.
pub const PHASES: [&str; 4] = ["night", "morning", "afternoon", "evening"];

/// Zipf exponent in force before the first [`PopularityShift`].
pub const DEFAULT_ALPHA: f64 = 0.8;

/// One transit domain's workload profile: baseline event rates (events per
/// simulated minute) shaped by per-hour multipliers and shifted by the
/// domain's local clock. Domains are indices from
/// `PhysGraph::transit_domain_of`, taken modulo the topology's actual
/// domain count at apply time.
#[derive(Clone, Debug, PartialEq)]
pub struct DomainProfile {
    pub domain: u16,
    /// Baseline join rate, events per simulated minute.
    pub joins_per_min: f64,
    /// Baseline leave rate, events per simulated minute.
    pub leaves_per_min: f64,
    /// Baseline lookup rate, events per simulated minute.
    pub lookups_per_min: f64,
    /// Per-hour rate multipliers, indexed by local hour-of-day modulo the
    /// table length (canonically 24 entries). Empty ⇒ flat (all 1.0).
    pub hourly: Vec<f64>,
    /// This domain's clock offset in simulated hours — its local midnight
    /// relative to the global clock (the regional wave: offsets stagger the
    /// same diurnal shape across domains).
    pub hour_offset: u8,
}

json_impl!(ToJson, FromJson for struct DomainProfile {
    domain, joins_per_min, leaves_per_min, lookups_per_min, hourly [default], hour_offset [default]
});

impl DomainProfile {
    /// A flat (unshaped, offset-free) profile.
    pub fn flat(
        domain: u16,
        joins_per_min: f64,
        leaves_per_min: f64,
        lookups_per_min: f64,
    ) -> Self {
        DomainProfile {
            domain,
            joins_per_min,
            leaves_per_min,
            lookups_per_min,
            hourly: Vec::new(),
            hour_offset: 0,
        }
    }

    /// Set the per-hour multiplier table.
    pub fn with_hourly(mut self, hourly: Vec<f64>) -> Self {
        self.hourly = hourly;
        self
    }

    /// Set the local-clock offset in hours.
    pub fn with_offset(mut self, hours: u8) -> Self {
        self.hour_offset = hours;
        self
    }

    /// The effective rate in global hour-bucket `hour` for a baseline of
    /// `base` events/min: `base × hourly[(hour + offset) mod 24]`.
    pub fn rate_at(&self, hour: u64, base: f64) -> f64 {
        if self.hourly.is_empty() {
            return base;
        }
        let local = (hour + self.hour_offset as u64) % HOURS_PER_DAY;
        base * self.hourly[local as usize % self.hourly.len()]
    }
}

/// A flash crowd: for `[at, at + duration)`, lookup arrivals multiply by
/// `multiplier` (relative to the script's total baseline lookup rate) and
/// the extra arrivals concentrate on the hot set — popularity ranks
/// `0..hot_keys`.
#[derive(Clone, Debug, PartialEq)]
pub struct FlashCrowd {
    pub at_ms: u64,
    pub duration_ms: u64,
    /// Total-lookup-rate multiplier while the window is active (≥ 1; the
    /// extra `(multiplier − 1)×` arrivals are the crowd).
    pub multiplier: f64,
    /// Size of the hot set the crowd piles onto.
    pub hot_keys: u32,
}

json_impl!(ToJson, FromJson for struct FlashCrowd { at_ms, duration_ms, multiplier, hot_keys });

impl FlashCrowd {
    /// The half-open active window `[start, end)` in ms.
    pub fn window(&self) -> (u64, u64) {
        (self.at_ms, self.at_ms.saturating_add(self.duration_ms))
    }

    /// Is the crowd active at `t_ms`?
    pub fn contains_ms(&self, t_ms: u64) -> bool {
        let (s, e) = self.window();
        s <= t_ms && t_ms < e
    }
}

/// A step change of the popularity distribution: from `at_ms` on (until the
/// next shift), lookup ranks follow Zipf(`alpha`) rotated by `rotate`
/// catalog positions — rotating models the hot set *moving* (yesterday's
/// hit is today's long tail), not just flattening.
#[derive(Clone, Debug, PartialEq)]
pub struct PopularityShift {
    pub at_ms: u64,
    /// Zipf exponent from `at_ms` on.
    pub alpha: f64,
    /// Catalog rotation: sampled rank `r` maps to `(r + rotate) % catalog`.
    pub rotate: u32,
}

json_impl!(ToJson, FromJson for struct PopularityShift { at_ms, alpha, rotate [default] });

/// A complete declarative traffic scenario (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficScript {
    /// Length of one simulated hour in ms (`3_600_000` = real time;
    /// smaller values compress the diurnal day into a short run).
    pub hour_ms: u64,
    /// Script horizon in ms: no events are emitted at or after it.
    pub horizon_ms: u64,
    /// Number of distinct popularity ranks lookups draw from.
    pub catalog: u32,
    pub domains: Vec<DomainProfile>,
    pub popularity: Vec<PopularityShift>,
    pub flash_crowds: Vec<FlashCrowd>,
}

json_impl!(ToJson, FromJson for struct TrafficScript {
    hour_ms, horizon_ms, catalog, domains, popularity [default], flash_crowds [default]
});

impl TrafficScript {
    /// An empty script skeleton; add domains/shifts/crowds with the
    /// builder methods.
    pub fn new(hour_ms: u64, horizon_ms: u64, catalog: u32) -> Self {
        assert!(hour_ms > 0, "hour_ms must be positive");
        assert!(catalog > 0, "catalog must be non-empty");
        TrafficScript {
            hour_ms,
            horizon_ms,
            catalog,
            domains: Vec::new(),
            popularity: Vec::new(),
            flash_crowds: Vec::new(),
        }
    }

    /// Append a domain profile.
    pub fn domain(mut self, profile: DomainProfile) -> Self {
        self.domains.push(profile);
        self
    }

    /// Append a popularity step change.
    pub fn shift(mut self, at_ms: u64, alpha: f64, rotate: u32) -> Self {
        self.popularity.push(PopularityShift { at_ms, alpha, rotate });
        self
    }

    /// Append a flash-crowd window.
    pub fn flash(mut self, at_ms: u64, duration_ms: u64, multiplier: f64, hot_keys: u32) -> Self {
        self.flash_crowds.push(FlashCrowd { at_ms, duration_ms, multiplier, hot_keys });
        self
    }

    /// Popularity shifts sorted by effect time (stable).
    pub fn sorted_shifts(&self) -> Vec<PopularityShift> {
        let mut s = self.popularity.clone();
        s.sort_by_key(|p| p.at_ms);
        s
    }

    /// Number of hour buckets covering the horizon (rounding up).
    pub fn buckets(&self) -> u64 {
        self.horizon_ms.div_ceil(self.hour_ms)
    }

    /// Global hour-of-day at `t_ms`.
    pub fn hour_of_ms(&self, t_ms: u64) -> u64 {
        (t_ms / self.hour_ms) % HOURS_PER_DAY
    }

    /// Diurnal phase index at `t_ms`: the simulated day in quarters —
    /// 0 night (hours 0–6), 1 morning (6–12), 2 afternoon (12–18),
    /// 3 evening (18–24). Phases follow the *global* clock; per-domain
    /// offsets shift load across them, which is the point.
    pub fn phase_of_ms(&self, t_ms: u64) -> usize {
        (self.hour_of_ms(t_ms) / 6) as usize
    }

    /// Sum of the domains' baseline lookup rates (events/min) — the
    /// reference a [`FlashCrowd::multiplier`] scales.
    pub fn base_lookup_rate_per_min(&self) -> f64 {
        self.domains.iter().map(|d| d.lookups_per_min).sum()
    }

    /// Canonical regional-diurnal preset: four staggered regions (local
    /// midnights at 0/6/12/18 h) sharing one day-curve, so at any instant
    /// some region is at peak while another sleeps — regionally correlated
    /// churn *and* load. `churn_per_min`/`lookups_per_min` are per-region
    /// baselines; popularity flattens and rotates mid-run.
    pub fn preset_diurnal_regional(
        hour_ms: u64,
        horizon_ms: u64,
        catalog: u32,
        churn_per_min: f64,
        lookups_per_min: f64,
    ) -> Self {
        let mut s = TrafficScript::new(hour_ms, horizon_ms, catalog);
        for (i, offset) in [0u8, 6, 12, 18].iter().enumerate() {
            s = s.domain(
                DomainProfile::flat(i as u16, churn_per_min, churn_per_min, lookups_per_min)
                    .with_hourly(DIURNAL_SHAPE.to_vec())
                    .with_offset(*offset),
            );
        }
        // Halfway through, the hot set rotates by a third of the catalog
        // and the skew flattens a little — yesterday's hits cool off.
        s.shift(horizon_ms / 2, 0.7, catalog / 3)
    }

    /// Canonical flash-crowd preset: flat background load plus two spikes —
    /// a sharp 6× crowd on a 5-key hot set early, and a broader 3× crowd
    /// later — over the same four regions.
    pub fn preset_flash_crowd(
        hour_ms: u64,
        horizon_ms: u64,
        catalog: u32,
        churn_per_min: f64,
        lookups_per_min: f64,
    ) -> Self {
        let mut s = TrafficScript::new(hour_ms, horizon_ms, catalog);
        for i in 0..4u16 {
            s = s.domain(DomainProfile::flat(i, churn_per_min, churn_per_min, lookups_per_min));
        }
        s.flash(horizon_ms / 6, horizon_ms / 8, 6.0, 5.min(catalog))
            .flash(horizon_ms / 2, horizon_ms / 4, 3.0, (catalog / 4).max(1))
            .shift(2 * horizon_ms / 3, 1.1, 0)
    }
}

/// A smooth 24-entry day curve (trough ~04:00, peak ~13:00, mean ≈ 1), the
/// shape behind [`TrafficScript::preset_diurnal_regional`].
pub const DIURNAL_SHAPE: [f64; 24] = [
    0.45, 0.35, 0.30, 0.25, 0.25, 0.30, 0.45, 0.70, 0.95, 1.20, 1.40, 1.55, 1.60, 1.60, 1.50, 1.40,
    1.30, 1.25, 1.30, 1.35, 1.25, 1.05, 0.80, 0.60,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_at_applies_offset_modulo_day() {
        let mut hourly = vec![1.0; 24];
        hourly[0] = 5.0;
        let p = DomainProfile::flat(0, 0.0, 0.0, 2.0).with_hourly(hourly).with_offset(6);
        // Local midnight (multiplier 5.0) occurs at global hour 18.
        assert!((p.rate_at(18, 2.0) - 10.0).abs() < 1e-12);
        assert!((p.rate_at(0, 2.0) - 2.0).abs() < 1e-12);
        // Day 2, same hour, same rate.
        assert!((p.rate_at(18 + 24, 2.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn flat_profile_ignores_hours() {
        let p = DomainProfile::flat(3, 1.0, 1.0, 4.0);
        for h in 0..48 {
            assert!((p.rate_at(h, 4.0) - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phases_quarter_the_day() {
        let s = TrafficScript::new(1000, 48_000, 10);
        assert_eq!(s.phase_of_ms(0), 0);
        assert_eq!(s.phase_of_ms(6_000), 1);
        assert_eq!(s.phase_of_ms(12_500), 2);
        assert_eq!(s.phase_of_ms(18_000), 3);
        assert_eq!(s.phase_of_ms(24_000), 0, "day 2 wraps");
    }

    #[test]
    fn flash_windows_are_half_open() {
        let f = FlashCrowd { at_ms: 100, duration_ms: 50, multiplier: 3.0, hot_keys: 4 };
        assert!(!f.contains_ms(99));
        assert!(f.contains_ms(100));
        assert!(f.contains_ms(149));
        assert!(!f.contains_ms(150));
    }

    #[test]
    fn buckets_round_up() {
        assert_eq!(TrafficScript::new(1000, 2500, 1).buckets(), 3);
        assert_eq!(TrafficScript::new(1000, 2000, 1).buckets(), 2);
    }

    #[test]
    fn presets_are_populated() {
        let d = TrafficScript::preset_diurnal_regional(60_000, 24 * 60_000, 100, 0.5, 5.0);
        assert_eq!(d.domains.len(), 4);
        assert_eq!(d.popularity.len(), 1);
        assert!((d.base_lookup_rate_per_min() - 20.0).abs() < 1e-12);
        let f = TrafficScript::preset_flash_crowd(60_000, 24 * 60_000, 100, 0.5, 5.0);
        assert_eq!(f.flash_crowds.len(), 2);
        assert!(f.flash_crowds.iter().all(|c| c.hot_keys >= 1));
    }

    #[test]
    fn sorted_shifts_by_time_stable() {
        let s =
            TrafficScript::new(1, 100, 10).shift(50, 1.0, 0).shift(10, 0.5, 1).shift(50, 0.9, 2);
        let order: Vec<u64> = s.sorted_shifts().iter().map(|p| p.at_ms).collect();
        assert_eq!(order, vec![10, 50, 50]);
        assert!((s.sorted_shifts()[1].alpha - 1.0).abs() < 1e-12, "stable at ties");
    }
}
