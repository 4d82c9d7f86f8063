//! # The traffic plane: replayable production workload
//!
//! Real P2P deployments do not see the paper's static uniform churn: they
//! see time-of-day arrival waves that follow regional clocks, flash crowds
//! that pile lookups onto a handful of hot objects for a bounded window,
//! and content popularity whose skew and hot set drift over a run. This
//! module scripts all three:
//!
//! * [`script`] — the JSON-round-trippable [`TrafficScript`]: per-transit-
//!   domain diurnal rate tables (piecewise-constant by simulated hour, with
//!   a per-domain clock offset), [`FlashCrowd`] windows, and
//!   [`PopularityShift`] step changes.
//! * [`process`] — the arrival processes: the legacy constant-rate Poisson
//!   train (shared with `ChurnTrace::poisson`, bit-for-bit) and the
//!   time-bucketed train that derives one `SimRng::fork_indexed` stream per
//!   `(generator, hour-bucket)` so compilation is a pure function of the
//!   bucket — independent of generation order.
//! * [`popularity`] — the [`PopularityProcess`]: Zipf rank sampling whose
//!   exponent and rotation follow the script's shifts (a constant one is
//!   ablation A11's static Zipf workload, bit-for-bit the loop it replaced).
//! * [`compile`] turns `(script, seed)` into a [`CompiledTraffic`] — a
//!   sorted, replayable event trace implementing
//!   [`prop_core::TrafficPlane`].
//!
//! **Determinism argument.** Every generator draws from a stream that is a
//! pure function of `(seed, label, bucket index)`; domains are generated
//! and collected in declaration order, and the final stable sort by time
//! keeps same-instant events in authoring order (domains first, flash
//! crowds after). Hence `compile(script, seed)` is a pure function of its
//! arguments, and a scenario (topology + TrafficScript + FaultScript under
//! one seed) replays exactly.

pub mod popularity;
pub mod process;
pub mod script;

pub use popularity::PopularityProcess;
pub use script::{DomainProfile, FlashCrowd, PopularityShift, TrafficScript, HOURS_PER_DAY};

use prop_core::{TrafficCounters, TrafficEvent, TrafficPlane};
use prop_engine::{Duration, SimRng, SimTime};

/// A compiled, replayable traffic trace: the whole event schedule of one
/// `(script, seed)` pair, consumed in time order through the
/// [`TrafficPlane`] contract.
#[derive(Clone, Debug)]
pub struct CompiledTraffic {
    events: Vec<(SimTime, TrafficEvent)>,
    cursor: usize,
    counters: TrafficCounters,
}

impl CompiledTraffic {
    /// The full schedule (sorted by time), for inspection and tests.
    pub fn events(&self) -> &[(SimTime, TrafficEvent)] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events not yet consumed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }
}

impl TrafficPlane for CompiledTraffic {
    fn next_event(&mut self, deadline: SimTime) -> Option<(SimTime, TrafficEvent)> {
        let &(t, ev) = self.events.get(self.cursor)?;
        if t > deadline {
            return None;
        }
        self.cursor += 1;
        match ev {
            TrafficEvent::Join { .. } => self.counters.joins += 1,
            TrafficEvent::Leave { .. } => self.counters.leaves += 1,
            TrafficEvent::Lookup { .. } => self.counters.lookups += 1,
        }
        Some((t, ev))
    }

    fn counters(&self) -> TrafficCounters {
        self.counters
    }
}

/// Compile `script` under `seed` into the full deterministic event trace.
///
/// Stream discipline (see module docs): domain profile `i` draws its joins,
/// leaves, and lookups from `fork_indexed("traffic-{kind}-p{i}", bucket)`
/// streams — one per simulated hour — and flash crowd `j` draws its extra
/// hot-set lookups from `fork_indexed("traffic-flash", j)`. Base streams
/// are therefore untouched by adding or removing flash crowds. Nothing is
/// drawn past the horizon: the last hour bucket stops there with its
/// earlier arrivals as they were, and a crowd's window is cut there (a
/// crowd draws its domains and ranks after all its gaps, so one that would
/// run past the horizon draws other ones than uncut; every committed
/// example and preset ends its crowds before the horizon).
pub fn compile(script: &TrafficScript, seed: u64) -> CompiledTraffic {
    let root = SimRng::seed_from(seed).fork("traffic");
    let pop = PopularityProcess::new(script);
    let buckets = script.buckets();
    let horizon = SimTime(script.horizon_ms);

    let per_domain: Vec<Vec<(SimTime, TrafficEvent)>> = script
        .domains
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let mut evs = Vec::new();
            let rates =
                |base: f64| -> Vec<f64> { (0..buckets).map(|b| d.rate_at(b, base)).collect() };
            let domain = d.domain;
            for t in process::bucketed_train(
                &root,
                &format!("traffic-join-p{i}"),
                script.hour_ms,
                &rates(d.joins_per_min),
                horizon,
            ) {
                evs.push((t, TrafficEvent::Join { domain }));
            }
            for t in process::bucketed_train(
                &root,
                &format!("traffic-leave-p{i}"),
                script.hour_ms,
                &rates(d.leaves_per_min),
                horizon,
            ) {
                evs.push((t, TrafficEvent::Leave { domain }));
            }
            for (t, rank) in process::bucketed_events(
                &root,
                &format!("traffic-lookup-p{i}"),
                script.hour_ms,
                &rates(d.lookups_per_min),
                horizon,
                |t, rng| pop.sample_rank(t.as_millis(), rng),
            ) {
                evs.push((t, TrafficEvent::Lookup { domain, rank }));
            }
            evs.sort_by_key(|&(t, _)| t);
            evs
        })
        .collect();

    let mut events: Vec<(SimTime, TrafficEvent)> = per_domain.into_iter().flatten().collect();

    // Flash crowds: extra arrivals at (multiplier − 1) × the script's total
    // base lookup rate, confined to [at, at+duration), targeting the hot
    // set. Sources are attributed to domains proportionally to their base
    // lookup rates, so regional load shares survive the spike.
    let base_lookup = script.base_lookup_rate_per_min();
    for (j, f) in script.flash_crowds.iter().enumerate() {
        let extra = (f.multiplier - 1.0) * base_lookup;
        let hot = f.hot_keys.min(script.catalog);
        let (start, end) = f.window_before(script.horizon_ms);
        if extra <= 0.0 || end == start || hot == 0 {
            continue;
        }
        let mut rng = root.fork_indexed("traffic-flash", j as u64);
        let window = Duration::from_millis(end - start);
        for t in process::poisson_train(SimTime(start), window, extra, &mut rng) {
            let mut pick = rng.unit() * base_lookup;
            let mut domain = script.domains.last().map(|d| d.domain).unwrap_or(0);
            for d in &script.domains {
                pick -= d.lookups_per_min;
                if pick < 0.0 {
                    domain = d.domain;
                    break;
                }
            }
            let rank = rng.range(0..hot);
            events.push((t, TrafficEvent::Lookup { domain, rank }));
        }
    }

    // Every train stopped at the horizon. Stable: same-instant events keep
    // authoring order (profiles in declaration order, flash crowds after).
    events.sort_by_key(|&(t, _)| t);
    CompiledTraffic { events, cursor: 0, counters: TrafficCounters::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> TrafficScript {
        TrafficScript::new(60_000, 24 * 60_000, 50)
            .domain(DomainProfile::flat(0, 1.0, 1.0, 6.0))
            .domain(DomainProfile::flat(1, 0.5, 0.5, 3.0).with_offset(12))
            .shift(12 * 60_000, 1.2, 10)
            .flash(6 * 60_000, 3 * 60_000, 4.0, 5)
    }

    #[test]
    fn compiled_trace_is_sorted_and_bounded() {
        let c = compile(&demo(), 7);
        assert!(!c.is_empty());
        for w in c.events().windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for &(t, _) in c.events() {
            assert!(t.as_millis() < demo().horizon_ms);
        }
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let s = demo();
        let a = compile(&s, 7);
        let b = compile(&s, 7);
        assert_eq!(a.events(), b.events());
        let c = compile(&s, 8);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn flash_crowd_only_adds_hot_lookups_inside_its_window() {
        let mut without = demo();
        without.flash_crowds.clear();
        let with_flash = compile(&demo(), 3);
        let base = compile(&without, 3);
        // Base streams are independent of flash crowds: the flash trace is
        // a superset of the base trace.
        let mut base_iter = base.events().iter().peekable();
        let mut extras = Vec::new();
        for ev in with_flash.events() {
            if base_iter.peek() == Some(&ev) {
                base_iter.next();
            } else {
                extras.push(*ev);
            }
        }
        assert!(base_iter.peek().is_none(), "flash removed base events");
        assert!(!extras.is_empty(), "a 4x flash must add arrivals");
        let f = &demo().flash_crowds[0];
        for (t, ev) in extras {
            assert!(f.contains_ms(t.as_millis()), "extra event at {t:?} outside flash window");
            match ev {
                TrafficEvent::Lookup { rank, .. } => assert!(rank < f.hot_keys),
                other => panic!("flash emitted non-lookup {other:?}"),
            }
        }
    }

    #[test]
    fn diurnal_shaping_moves_load_between_hours() {
        // One domain, strongly peaked at hour 12.
        let mut hourly = vec![0.1; 24];
        hourly[12] = 4.0;
        let s = TrafficScript::new(60_000, 24 * 60_000, 10).domain(DomainProfile {
            domain: 0,
            joins_per_min: 0.0,
            leaves_per_min: 0.0,
            lookups_per_min: 10.0,
            hourly,
            hour_offset: 0,
        });
        let c = compile(&s, 1);
        let in_hour =
            |h: u64| c.events().iter().filter(|(t, _)| t.as_millis() / 60_000 == h).count();
        assert!(
            in_hour(12) > 4 * in_hour(3).max(1),
            "peak hour {} vs off hour {}",
            in_hour(12),
            in_hour(3)
        );
    }

    #[test]
    fn every_train_stops_at_the_horizon() {
        // An hour longer than the run, a crowd without end and one past
        // the horizon draw nothing past it.
        let long = TrafficScript::new(u64::MAX, 120_000, 10)
            .domain(DomainProfile::flat(0, 30.0, 30.0, 60.0))
            .flash(60_000, u64::MAX, 3.0, 2)
            .flash(u64::MAX, 1, 3.0, 2);
        let c = compile(&long, 4);
        assert!(c.len() > 300 && c.len() < 600, "{} events in two minutes", c.len());
        assert!(c.events().iter().all(|&(t, _)| t.as_millis() < 120_000));
        // The cut bucket keeps its arrivals before the cut as they were.
        let base = TrafficScript { flash_crowds: Vec::new(), ..long };
        let cut = TrafficScript { horizon_ms: 90_000, ..base.clone() };
        let before: Vec<_> = compile(&base, 4)
            .events()
            .iter()
            .copied()
            .filter(|&(t, _)| t.as_millis() < 90_000)
            .collect();
        assert_eq!(compile(&cut, 4).events(), before);
    }

    #[test]
    fn plane_consumption_counts_by_kind() {
        let mut c = compile(&demo(), 5);
        let total = c.len() as u64;
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = c.next_event(SimTime(u64::MAX)) {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(c.counters().total(), total);
        assert!(c.counters().lookups > 0 && c.counters().joins > 0 && c.counters().leaves > 0);
        assert_eq!(c.remaining(), 0);
    }
}
