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
//!
//! **A parsed script is a runnable one.** Each range rule lives in the
//! `FromJson` of the type that holds the value, so a file that breaks one
//! is refused where it is read, as `file:line:col: <json path>: <rule>`:
//!
//! * [`TrafficScript`]: `hour_ms` ≥ 1, `catalog` in `1..=`[`MAX_SCRIPTED`],
//!   and a `horizon_ms` ≥ 1 that covers at most [`MAX_SCRIPTED`] hour
//!   buckets and expects at most [`MAX_SCRIPTED`] events;
//! * [`DomainProfile`]: every `*_per_min` rate and `hourly` entry ≥ 0;
//! * [`FlashCrowd`]: `multiplier` ≥ 1, `hot_keys` ≥ 1;
//! * [`PopularityShift`]: `alpha` ≥ 0.
//!
//! A `domain` names a transit domain of the scenario's topology; that one
//! rule needs the topology, so the experiment layer checks it when it
//! loads a file. Scripts built in code skip the parse: `domain`, `shift`
//! and `flash` take values as given, and [`TrafficScript::new`] asserts
//! its two divisors.

use prop_engine::json::{at_least, between, each, Error};
use prop_engine::json_impl;

/// Hours per simulated day: diurnal tables index hour-of-day `0..24`.
pub const HOURS_PER_DAY: u64 = 24;

/// Diurnal phase labels, one per quarter of the simulated day.
pub const PHASES: [&str; 4] = ["night", "morning", "afternoon", "evening"];

/// Zipf exponent in force before the first [`PopularityShift`].
pub const DEFAULT_ALPHA: f64 = 0.8;

/// The most hour buckets, the most expected events, and the most
/// popularity ranks a parsed script may declare. Compiling a script
/// allocates one rate per hour bucket per stream, one event per arrival
/// and a Zipf table per popularity phase over the catalog, so each is
/// bounded before anything is allocated. The committed `examples/*.json`
/// have 24 buckets, about 53,000 expected events and 500 ranks.
pub const MAX_SCRIPTED: u64 = 1_000_000;

/// One region's workload profile: baseline event rates (events per
/// simulated minute) shaped by per-hour multipliers and shifted by the
/// region's local clock.
#[derive(Clone, Debug, PartialEq)]
pub struct DomainProfile {
    /// The transit domain (`PhysGraph::transit_domain_of`) the region is.
    /// A loaded scenario file must name one its topology has; the built-in
    /// presets script four regions, which fold onto a topology with fewer
    /// transit domains (region `r` plays on domain `r % count`).
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
    domain,
    joins_per_min [check = at_least(0.0)],
    leaves_per_min [check = at_least(0.0)],
    lookups_per_min [check = at_least(0.0)],
    hourly [default, check = each(at_least(0.0))],
    hour_offset [default],
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

json_impl!(ToJson, FromJson for struct FlashCrowd {
    at_ms, duration_ms, multiplier [check = at_least(1.0)], hot_keys [check = at_least(1)]
});

impl FlashCrowd {
    /// The half-open active window `[start, end)` in ms.
    pub fn window(&self) -> (u64, u64) {
        (self.at_ms, self.at_ms.saturating_add(self.duration_ms))
    }

    /// The part of the window before `horizon_ms`, the part that can emit
    /// (empty, `start == end`, when none of it is).
    pub fn window_before(&self, horizon_ms: u64) -> (u64, u64) {
        let (s, e) = self.window();
        (s.min(horizon_ms), e.min(horizon_ms))
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

json_impl!(ToJson, FromJson for struct PopularityShift {
    at_ms, alpha [check = at_least(0.0)], rotate [default]
});

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
    hour_ms [check = at_least(1)],
    horizon_ms [check = within_budget(hour_ms, domains, flash_crowds)],
    catalog [check = between(1, MAX_SCRIPTED as u32)],
    domains,
    popularity [default],
    flash_crowds [default],
});

/// The horizon rule: positive, and a script over it of at most
/// [`MAX_SCRIPTED`] hour buckets and [`MAX_SCRIPTED`] expected events.
fn within_budget<'a>(
    hour_ms: &'a u64,
    domains: &'a [DomainProfile],
    flash_crowds: &'a [FlashCrowd],
) -> impl Fn(&u64) -> Result<(), Error> + 'a {
    move |&horizon_ms| {
        at_least(1)(&horizon_ms)?;
        let buckets = horizon_ms.div_ceil(*hour_ms);
        if buckets > MAX_SCRIPTED {
            return Err(Error::new(format!(
                "{buckets} hour buckets of {hour_ms} ms; a script may have at most {MAX_SCRIPTED}"
            )));
        }
        let events = expected_events(horizon_ms, domains, flash_crowds);
        if events > MAX_SCRIPTED as f64 {
            return Err(Error::new(format!(
                "the script expects {events:.3e} events before its horizon; \
                 a script may expect at most {MAX_SCRIPTED}"
            )));
        }
        Ok(())
    }
}

/// An upper bound on the events a script's domains and flash crowds emit
/// before `horizon_ms` (Σ rate × time, each domain at its peak hour). Never
/// NaN: rates are finite and ≥ 0, and a product that overflows is +∞.
fn expected_events(horizon_ms: u64, domains: &[DomainProfile], flash_crowds: &[FlashCrowd]) -> f64 {
    let minutes = |ms: u64| ms as f64 / 60_000.0;
    let domain_events = |d: &DomainProfile| -> f64 {
        let peak =
            if d.hourly.is_empty() { 1.0 } else { d.hourly.iter().fold(0.0, |m, &x| x.max(m)) };
        [d.joins_per_min, d.leaves_per_min, d.lookups_per_min]
            .iter()
            .map(|rate| rate * peak * minutes(horizon_ms))
            .sum()
    };
    let base_lookup: f64 = domains.iter().map(|d| d.lookups_per_min).sum();
    let crowd_events = |f: &FlashCrowd| {
        let (start, end) = f.window_before(horizon_ms);
        if f.multiplier > 1.0 && end > start {
            (f.multiplier - 1.0) * base_lookup * minutes(end - start)
        } else {
            0.0
        }
    };
    domains.iter().map(domain_events).sum::<f64>()
        + flash_crowds.iter().map(crowd_events).sum::<f64>()
}

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
    fn hour_of_ms(&self, t_ms: u64) -> u64 {
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
    use prop_engine::json::FromJson;

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

    /// A one-domain script with `from` replaced by `to` in its text.
    fn parse_edited(from: &str, to: &str) -> Result<TrafficScript, Error> {
        let text = r#"{"hour_ms": 60000, "horizon_ms": 60000, "catalog": 10, "domains": [
            {"domain": 0, "joins_per_min": 1.0, "leaves_per_min": 1.0, "lookups_per_min": 4.0}
        ], "flash_crowds": []}"#;
        assert!(text.contains(from), "no {from:?}");
        prop_engine::json::from_str(&text.replacen(from, to, 1))
    }

    const RATES: &str = r#""joins_per_min": 1.0, "leaves_per_min": 1.0, "lookups_per_min": 4.0"#;

    #[test]
    fn each_range_rule_refuses_its_value_by_path() {
        assert!(parse_edited("", "").is_ok());
        let crowd = |m: &str, k: &str| {
            let fields = format!(r#""duration_ms": 1, "multiplier": {m}, "hot_keys": {k}"#);
            format!(r#""flash_crowds": [{{"at_ms": 0, {fields}}}]"#)
        };
        for (from, to, path, what) in [
            ("\"hour_ms\": 60000", "\"hour_ms\": 0".to_string(), "hour_ms", "must be ≥ 1, got 0"),
            (
                "\"horizon_ms\": 60000",
                "\"horizon_ms\": 0".into(),
                "horizon_ms",
                "must be ≥ 1, got 0",
            ),
            (
                "\"catalog\": 10",
                "\"catalog\": 0".into(),
                "catalog",
                "must be in [1, 1000000], got 0",
            ),
            (
                "\"joins_per_min\": 1.0",
                "\"joins_per_min\": -1".into(),
                "domains[0].joins_per_min",
                "must be ≥ 0, got -1",
            ),
            (
                "\"leaves_per_min\": 1.0",
                "\"leaves_per_min\": -2".into(),
                "domains[0].leaves_per_min",
                "must be ≥ 0, got -2",
            ),
            (
                "\"lookups_per_min\": 4.0",
                "\"lookups_per_min\": -0.5".into(),
                "domains[0].lookups_per_min",
                "must be ≥ 0, got -0.5",
            ),
            (
                "4.0}",
                "4.0, \"hourly\": [1, 0, -1]}".into(),
                "domains[0].hourly[2]",
                "must be ≥ 0, got -1",
            ),
            (
                "\"flash_crowds\": []",
                crowd("-3.0", "5"),
                "flash_crowds[0].multiplier",
                "must be ≥ 1, got -3",
            ),
            (
                "\"flash_crowds\": []",
                crowd("0.5", "5"),
                "flash_crowds[0].multiplier",
                "must be ≥ 1, got 0.5",
            ),
            (
                "\"flash_crowds\": []",
                crowd("2", "0"),
                "flash_crowds[0].hot_keys",
                "must be ≥ 1, got 0",
            ),
            (
                "\"flash_crowds\": []",
                r#""popularity": [{"at_ms": 0, "alpha": -0.5}]"#.into(),
                "popularity[0].alpha",
                "must be ≥ 0, got -0.5",
            ),
        ] {
            let e = parse_edited(from, &to).expect_err(&to);
            assert_eq!((e.path(), e.what.as_str()), (path.to_string(), what), "{to}: {e}");
            assert!(e.line > 0, "{e}");
        }
    }

    #[test]
    fn a_script_is_bounded_before_it_compiles() {
        let max = MAX_SCRIPTED;
        // Hour buckets: the horizon over `hour_ms`, rounded up, of a script
        // whose one domain is idle.
        let edges = |hour: u64, horizon: u64| {
            let idle = r#""joins_per_min": 0, "leaves_per_min": 0, "lookups_per_min": 0"#;
            let text = parse_edited(RATES, idle).map(|s| prop_engine::json::to_string(&s)).unwrap();
            let edit = format!("\"hour_ms\":{hour},\"horizon_ms\":{horizon}");
            prop_engine::json::from_str::<TrafficScript>(&text.replacen(
                "\"hour_ms\":60000,\"horizon_ms\":60000",
                &edit,
                1,
            ))
            .map(|_| ())
            .map_err(|e| (e.path(), e.what))
        };
        assert_eq!(edges(60_000, max * 60_000), Ok(()));
        let (path, what) = edges(60_000, max * 60_000 + 1).unwrap_err();
        assert_eq!(
            (path.as_str(), what.as_str()),
            ("horizon_ms", "1000001 hour buckets of 60000 ms; a script may have at most 1000000")
        );
        let (path, what) = edges(300_000, u64::MAX).unwrap_err();
        assert!(path == "horizon_ms" && what.contains("hour buckets"), "{what}");
        // Expected events over the one minute the horizon spans: 1 + 1 + r
        // a minute, at the bound for r = max − 2 and past it above.
        let rate =
            |r: f64| parse_edited("\"lookups_per_min\": 4.0", &format!("\"lookups_per_min\": {r}"));
        assert!(rate(max as f64 - 2.0).is_ok());
        for r in [max as f64 - 1.0, 1e300] {
            let e = rate(r).unwrap_err();
            assert_eq!(e.path(), "horizon_ms", "{e}");
            assert!(e.what.contains("events before its horizon"), "{e}");
        }
        // A diurnal table counts at its peak hour.
        assert!(parse_edited("4.0}", "4.0, \"hourly\": [0.5, 2e5]}").is_err());
        assert!(parse_edited("4.0}", "4.0, \"hourly\": [0.5, 1e5]}").is_ok());
        // A crowd counts for the part of its window before the horizon:
        // (100 − 1) × 4 a minute over the one minute left of an endless one.
        let crowd = |m: f64| {
            let fields =
                format!(r#""duration_ms": {}, "multiplier": {m}, "hot_keys": 1"#, u64::MAX);
            let to = format!(r#""flash_crowds": [{{"at_ms": 0, {fields}}}]"#);
            parse_edited("\"flash_crowds\": []", &to)
        };
        assert!(crowd(100.0).is_ok());
        assert!(crowd(250_000.0).is_err());
        let e = parse_edited("\"catalog\": 10", "\"catalog\": 1000001").unwrap_err();
        assert_eq!(
            (e.path(), e.what.as_str()),
            ("catalog".to_string(), "must be in [1, 1000000], got 1000001")
        );
    }

    #[test]
    fn the_committed_examples_are_far_inside_the_bound() {
        for (text, events) in [
            (include_str!("../../../../examples/flash_crowd.json"), 53_400.0),
            (include_str!("../../../../examples/diurnal_regional.json"), 42_240.0),
        ] {
            let doc = prop_engine::json::parse(text).unwrap();
            let s = TrafficScript::from_json(doc.get("traffic").unwrap()).unwrap();
            assert_eq!(s.buckets(), 24);
            let expected = expected_events(s.horizon_ms, &s.domains, &s.flash_crowds);
            assert!((expected - events).abs() < 1e-6, "{expected}");
            assert!(expected * 10.0 < MAX_SCRIPTED as f64);
        }
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
