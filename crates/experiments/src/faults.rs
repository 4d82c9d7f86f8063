//! Robustness sweeps: PROP-G under scripted faults.
//!
//! Two panels, both on the async driver (the one that exposes in-flight
//! trials to the fault plane):
//!
//! * [`sweep`] — loss rate × partition duration grid. Each cell replays a
//!   [`FaultScript`] (uniform loss from t = 0, one transit bisection a third
//!   of the way in) and reports protocol progress (exchanges, aborts,
//!   faulted trials) alongside the plane's own counters and the achieved
//!   stretch improvement.
//! * [`recovery`] — an exchange-rate timeline across one partition + heal,
//!   sampled with the saturating windowed [`Overhead::since`] diff, so the
//!   collapse during the split and the recovery after the heal are visible.
//!
//! [`Overhead::since`]: prop_core::Overhead::since

use crate::setup::{Scale, Scenario, Topology};
use prop_core::{AsyncProtocolSim, PropConfig};
use prop_engine::{json_impl, Duration, SimTime};
use prop_faults::{compile, transit_bisection, FaultScript};
use prop_metrics::{FaultReport, TimeSeries};

/// Loss probabilities swept by the default grid.
pub const LOSS_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];
/// Partition durations (seconds) swept by the default grid.
pub const PARTITION_SECS: [u64; 3] = [0, 30, 120];

/// One cell of the loss × partition grid.
#[derive(Clone, Debug)]
pub struct FaultSweepRow {
    /// Scripted uniform loss probability, in percent.
    pub loss_pct: f64,
    /// Scripted partition duration (0 = no partition).
    pub partition_secs: u64,
    pub launched: u64,
    pub exchanges: u64,
    pub no_gain: u64,
    pub stale_aborts: u64,
    /// Trials the fault plane turned into failures (dropped probe or commit).
    pub faulted: u64,
    pub drops: u64,
    pub crashed_aborts: u64,
    /// Partition time the plane actually enforced, in ms.
    pub partition_ms: u64,
    pub stretch_initial: f64,
    pub stretch_final: f64,
    /// Stretch improvement in percent (positive = got better).
    pub improvement_pct: f64,
}

json_impl!(ToJson for struct FaultSweepRow {
    loss_pct, partition_secs, launched, exchanges, no_gain, stale_aborts, faulted, drops,
    crashed_aborts, partition_ms, stretch_initial, stretch_final, improvement_pct
});

/// Run the default loss × partition grid at `scale`.
pub fn sweep(scale: Scale, seed: u64) -> Vec<FaultSweepRow> {
    sweep_with(
        scale.topology(),
        scale.default_n(),
        scale.horizon(),
        seed,
        &LOSS_RATES,
        &PARTITION_SECS,
    )
}

/// The grid with every knob explicit (tests use a tiny configuration).
pub fn sweep_with(
    topology: Topology,
    n: usize,
    horizon: Duration,
    seed: u64,
    losses: &[f64],
    partitions: &[u64],
) -> Vec<FaultSweepRow> {
    let scenario = Scenario::build(topology, n, seed);
    let sides = transit_bisection(scenario.phys(), &scenario.oracle);
    let split_at = horizon.as_millis() / 3;
    let mut rows = Vec::new();
    for &loss in losses {
        for &psecs in partitions {
            let (_, net) = scenario.gnutella();
            let stretch_initial = net.stretch();
            let mut rng = scenario.rng(&format!("faults-sweep-{loss}-{psecs}"));
            let mut sim = AsyncProtocolSim::new(net, PropConfig::prop_g(), &mut rng);

            let mut script = FaultScript::new();
            if loss > 0.0 {
                script = script.loss(0, loss);
            }
            if psecs > 0 {
                script = script.partition(split_at, psecs * 1000);
            }
            if !script.events.is_empty() {
                sim.set_fault_plane(Box::new(compile(&script, &sides, seed)));
            }

            sim.run_until(SimTime(horizon.as_millis()));
            let ledger = sim.overhead();
            let counters = sim.fault_counters().unwrap_or_default();
            let stretch_final = sim.net().stretch();
            let improvement_pct = if stretch_initial != 0.0 {
                (stretch_initial - stretch_final) / stretch_initial * 100.0
            } else {
                0.0
            };
            rows.push(FaultSweepRow {
                loss_pct: loss * 100.0,
                partition_secs: psecs,
                launched: ledger.trials,
                exchanges: ledger.exchanges,
                no_gain: ledger.no_gain,
                stale_aborts: ledger.stale_aborts,
                faulted: ledger.faulted,
                drops: counters.drops,
                crashed_aborts: counters.crashed_aborts,
                partition_ms: counters.partition_ms,
                stretch_initial,
                stretch_final,
                improvement_pct,
            });
        }
    }
    rows
}

/// [`recovery`] output: the rate timeline plus the run's fault totals.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Exchanges per minute, one point per sampling window.
    pub exchange_rate: TimeSeries,
    /// Plane totals for the whole run.
    pub faults: FaultReport,
    /// The scripted split: (start ms, heal ms).
    pub partition: (u64, u64),
}

json_impl!(ToJson for struct RecoveryReport { exchange_rate, faults, partition });

/// Exchange-rate collapse and recovery across one transit partition.
pub fn recovery(scale: Scale, seed: u64) -> RecoveryReport {
    recovery_with(scale.topology(), scale.default_n(), scale.horizon(), scale.sample_every(), seed)
}

/// [`recovery`] with every knob explicit. The partition opens a third of
/// the way into the horizon and heals after a sixth of it.
pub fn recovery_with(
    topology: Topology,
    n: usize,
    horizon: Duration,
    window: Duration,
    seed: u64,
) -> RecoveryReport {
    let scenario = Scenario::build(topology, n, seed);
    let sides = transit_bisection(scenario.phys(), &scenario.oracle);
    let split_at = horizon.as_millis() / 3;
    let heal_after = horizon.as_millis() / 6;

    let (_, net) = scenario.gnutella();
    let mut rng = scenario.rng("faults-recovery");
    let mut sim = AsyncProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
    let script = FaultScript::new().partition(split_at, heal_after);
    sim.set_fault_plane(Box::new(compile(&script, &sides, seed)));

    let mut exchange_rate = TimeSeries::new("exchanges/min");
    let mins = window.as_millis() as f64 / 60_000.0;
    let mut last = sim.overhead();
    while sim.now() < SimTime::ZERO + horizon {
        sim.run_for(window);
        let diff = sim.overhead().since(&last);
        exchange_rate.push(sim.now(), diff.exchanges as f64 / mins);
        last = sim.overhead();
    }

    let counters = sim.fault_counters().unwrap_or_default();
    RecoveryReport {
        exchange_rate,
        faults: FaultReport::from_counters(counters),
        partition: (split_at, split_at + heal_after),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_reports_faults_and_partitions() {
        let rows =
            sweep_with(Topology::Tiny, 24, Duration::from_minutes(10), 3, &[0.0, 0.3], &[0, 60]);
        assert_eq!(rows.len(), 4);

        let clean = &rows[0];
        assert_eq!((clean.loss_pct, clean.partition_secs), (0.0, 0));
        assert_eq!(clean.faulted, 0, "no script ⇒ no faulted trials");
        assert_eq!(clean.drops + clean.partition_ms, 0);

        let lossy = rows.iter().find(|r| r.loss_pct > 0.0 && r.partition_secs == 0).unwrap();
        assert!(lossy.drops > 0, "30% loss must drop something");
        assert!(lossy.faulted > 0, "dropped messages must fail trials");
        // One trial can lose several of its messages, so drops ≥ faulted.
        assert!(lossy.drops >= lossy.faulted);

        let split = rows.iter().find(|r| r.partition_secs == 60).unwrap();
        assert_eq!(split.partition_ms, 60_000, "scripted split fits inside the horizon");
    }

    #[test]
    fn tiny_sweep_is_deterministic() {
        let a = sweep_with(Topology::Tiny, 24, Duration::from_minutes(8), 11, &[0.2], &[30]);
        let b = sweep_with(Topology::Tiny, 24, Duration::from_minutes(8), 11, &[0.2], &[30]);
        assert_eq!(prop_engine::json::to_string(&a), prop_engine::json::to_string(&b));
    }

    #[test]
    fn tiny_recovery_covers_the_split() {
        let horizon = Duration::from_minutes(12);
        let r = recovery_with(Topology::Tiny, 24, horizon, Duration::from_minutes(2), 5);
        assert_eq!(r.exchange_rate.len(), 6);
        assert_eq!(r.partition, (horizon.as_millis() / 3, horizon.as_millis() / 2));
        assert!((r.faults.partition_secs - 120.0).abs() < 1e-9);
    }
}
