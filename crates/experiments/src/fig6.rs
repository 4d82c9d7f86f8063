//! Figure 6 — *Effectiveness of PROP-G in a Chord environment.*
//!
//! Metric: **stretch** — per-lookup route latency over direct physical
//! latency, averaged over a sampled key workload (DHT routes are
//! well-defined, so stretch is measurable directly, unlike flooding).
//! Same three panels as Fig. 5: (a) TTL scale, (b) system size,
//! (c) physical topology. PROP-G's exchanges here are *identifier swaps* —
//! the ring, fingers, and every DHT guarantee are untouched.

use crate::setup::{Scale, Scenario, Topology};
use prop_core::{ProbeMode, PropConfig, ProtocolSim};
use prop_engine::{json_impl, par};
use prop_metrics::{par_path_stretch, TimeSeries};
use prop_workloads::{LookupGen, PopularityProcess, TrafficScript};

/// One plotted stretch curve plus the workload's disposition — how many of
/// the sampled pairs actually entered the mean at the final sample, and how
/// many were dropped as undelivered or co-located. A stretch mean over a
/// silently-shrunken workload would be biased; the counts make the
/// denominator auditable in the JSON output.
#[derive(Clone, Debug)]
pub struct StretchCurve {
    pub series: TimeSeries,
    /// Relative improvement start → end (0.25 = 25% lower).
    pub improvement: f64,
    /// Pairs delivered (and averaged) at the final sample.
    pub delivered: u64,
    /// Pairs the overlay failed to deliver at the final sample.
    pub failed: u64,
    /// Zero-physical-distance pairs excluded from the ratio.
    pub skipped: u64,
}

json_impl!(ToJson for struct StretchCurve { series, improvement, delivered, failed, skipped });

/// Run PROP-G on this scenario's Chord overlay and sample path stretch.
pub fn run_curve(
    scenario: &Scenario,
    cfg: PropConfig,
    scale: Scale,
    label: String,
) -> StretchCurve {
    run_curve_traced(scenario, cfg, scale, label).0
}

/// [`run_curve`] that also returns the driver's protocol [`Overhead`]
/// counters, so the sweep orchestrator can put error bars on message cost
/// per trial next to the stretch numbers.
///
/// [`Overhead`]: prop_core::Overhead
pub fn run_curve_traced(
    scenario: &Scenario,
    cfg: PropConfig,
    scale: Scale,
    label: String,
) -> (StretchCurve, prop_core::Overhead) {
    let (chord, net) = scenario.chord();
    let mut sim_rng = scenario.rng(&format!("fig6-sim-{label}"));
    let mut sim = ProtocolSim::new(net, cfg, &mut sim_rng);
    let live = scenario.all_slots();
    let pairs = LookupGen::new(&scenario.rng("fig6-lookups"))
        .uniform_pairs(&live, scale.lookups_per_sample());

    let mut series = TimeSeries::new(label);
    let step = scale.sample_every();
    let horizon = scale.horizon();
    let mut elapsed = prop_engine::Duration::ZERO;
    let mut summary = par_path_stretch(sim.net(), &chord, &pairs);
    series.push(sim.now(), summary.mean);
    while elapsed < horizon {
        sim.run_for(step);
        elapsed = elapsed + step;
        summary = par_path_stretch(sim.net(), &chord, &pairs);
        series.push(sim.now(), summary.mean);
    }
    let improvement = series.improvement().unwrap_or(0.0);
    let curve = StretchCurve {
        series,
        improvement,
        delivered: summary.delivered,
        failed: summary.failed,
        skipped: summary.skipped,
    };
    (curve, sim.overhead())
}

/// Fig. 6 under a scripted traffic plane (`fig6 --traffic <script.json>`):
/// each sample's workload follows the script's *time-varying* Zipf
/// popularity — exponent shifts and hot-set rotations included — instead
/// of the static uniform pair set, and the horizon is the script's. The
/// script's churn events are not applied on the Chord overlay (full
/// scenarios, churn included, run through the `traffic` binary against the
/// Gnutella drivers); what this curve isolates is how PROP-G's stretch
/// tracks a shifting popularity distribution.
pub fn run_curve_scripted(
    scenario: &Scenario,
    cfg: PropConfig,
    script: &TrafficScript,
    scale: Scale,
    label: String,
) -> (StretchCurve, prop_core::Overhead) {
    let (chord, net) = scenario.chord();
    let mut sim_rng = scenario.rng(&format!("fig6-sim-{label}"));
    let mut sim = ProtocolSim::new(net, cfg, &mut sim_rng);
    let live = scenario.all_slots();
    let ranking: Vec<prop_overlay::Slot> = {
        let mut slots = scenario.all_slots();
        scenario.rng("fig6-ranking").shuffle(&mut slots);
        slots
    };
    let pop = PopularityProcess::new(script);
    let mut lookup_rng = scenario.rng("fig6-scripted-lookups");
    let count = scale.lookups_per_sample();

    let mut series = TimeSeries::new(label);
    let step = scale.sample_every();
    let horizon = prop_engine::Duration::from_millis(script.horizon_ms);
    let mut elapsed = prop_engine::Duration::ZERO;
    let sample = |sim: &ProtocolSim, rng: &mut prop_engine::SimRng, t_ms: u64| {
        let pairs = pop.pairs_at(t_ms, &live, &ranking, count, rng);
        par_path_stretch(sim.net(), &chord, &pairs)
    };
    let mut summary = sample(&sim, &mut lookup_rng, 0);
    series.push(sim.now(), summary.mean);
    while elapsed < horizon {
        sim.run_for(step);
        elapsed = elapsed + step;
        summary = sample(&sim, &mut lookup_rng, elapsed.as_millis());
        series.push(sim.now(), summary.mean);
    }
    let improvement = series.improvement().unwrap_or(0.0);
    let curve = StretchCurve {
        series,
        improvement,
        delivered: summary.delivered,
        failed: summary.failed,
        skipped: summary.skipped,
    };
    (curve, sim.overhead())
}

/// Panel (a): vary the probe TTL at fixed n.
pub fn panel_a(scale: Scale, seed: u64) -> Vec<StretchCurve> {
    let n = scale.default_n();
    let topo = default_topology(scale);
    let scenario = Scenario::build(topo, n, seed);
    let variants: Vec<(String, ProbeMode)> = vec![
        (format!("n={n}, nhops=1"), ProbeMode::Walk { nhops: 1 }),
        (format!("n={n}, nhops=2"), ProbeMode::Walk { nhops: 2 }),
        (format!("n={n}, nhops=4"), ProbeMode::Walk { nhops: 4 }),
        (format!("n={n}, random"), ProbeMode::Random),
    ];
    par::map(&variants, |(label, probe)| {
        run_curve(&scenario, PropConfig::prop_g().with_probe(*probe), scale, label.clone())
    })
}

/// Panel (b): vary the overlay size at `nhops = 2`.
pub fn panel_b(scale: Scale, seed: u64) -> Vec<StretchCurve> {
    let sizes: Vec<usize> = match scale {
        Scale::Paper => vec![300, 500, 1000, 3000],
        Scale::Quick => vec![60, 120, 240],
    };
    let topo = default_topology(scale);
    par::map(&sizes, |&n| {
        let scenario = Scenario::build(topo, n, seed);
        run_curve(&scenario, PropConfig::prop_g(), scale, format!("n={n}, nhops=2"))
    })
}

/// Panel (c): `ts-large` vs `ts-small` at the default n.
pub fn panel_c(scale: Scale, seed: u64) -> Vec<StretchCurve> {
    let n = scale.default_n();
    par::map(&[Topology::TsLarge, Topology::TsSmall], |&topo| {
        let scenario = Scenario::build(topo, n, seed);
        run_curve(&scenario, PropConfig::prop_g(), scale, topo.label().to_string())
    })
}

fn default_topology(scale: Scale) -> Topology {
    match scale {
        Scale::Paper => Topology::TsLarge,
        Scale::Quick => Topology::TsSmall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_panel_a_reduces_stretch() {
        let curves = panel_a(Scale::Quick, 45);
        assert_eq!(curves.len(), 4);
        for c in &curves {
            // Stretch stays ≥ 1 (routes can't beat the direct path).
            assert!(c.series.min_value().unwrap() >= 1.0);
        }
        for c in &curves[1..] {
            assert!(c.improvement > 0.02, "{}: {:.3}", c.series.label, c.improvement);
        }
    }

    #[test]
    fn curves_account_for_every_sampled_pair() {
        let curves = panel_c(Scale::Quick, 48);
        for c in &curves {
            assert_eq!(
                c.delivered + c.failed + c.skipped,
                Scale::Quick.lookups_per_sample() as u64,
                "{}: workload disposition must cover the whole sample",
                c.series.label
            );
            assert!(c.delivered > 0, "{}: nothing delivered", c.series.label);
        }
    }

    #[test]
    fn scripted_curve_is_deterministic_and_sane() {
        let scenario = Scenario::build(Topology::Tiny, 24, 49);
        let script = TrafficScript::preset_diurnal_regional(60_000, 10 * 60_000, 12, 0.5, 4.0);
        let run = || {
            run_curve_scripted(
                &scenario,
                PropConfig::prop_g(),
                &script,
                Scale::Quick,
                "scripted".into(),
            )
        };
        let (c, overhead) = run();
        assert!(!c.series.is_empty());
        assert!(c.series.min_value().unwrap() >= 1.0, "routes can't beat the direct path");
        assert!(overhead.trials > 0);
        let (c2, _) = run();
        assert_eq!(
            prop_engine::json::to_string(&c),
            prop_engine::json::to_string(&c2),
            "scripted fig6 must replay identically"
        );
    }

    #[test]
    fn quick_panel_b_improves_at_every_size() {
        for c in panel_b(Scale::Quick, 46) {
            assert!(c.improvement > 0.0, "{}: {:.3}", c.series.label, c.improvement);
        }
    }

    #[test]
    fn quick_panel_c_ts_large_wins() {
        let curves = panel_c(Scale::Quick, 47);
        let large = &curves[0];
        let small = &curves[1];
        // The paper's claim: the large-backbone topology benefits more.
        assert!(
            large.improvement > small.improvement * 0.8,
            "ts-large {:.3} vs ts-small {:.3}",
            large.improvement,
            small.improvement
        );
    }
}
