//! Figure 6 — *Effectiveness of PROP-G in a Chord environment.*
//!
//! Metric: **stretch** — per-lookup route latency over direct physical
//! latency, averaged over a sampled key workload (DHT routes are
//! well-defined, so stretch is measurable directly, unlike flooding).
//! Same three panels as Fig. 5: (a) TTL scale, (b) system size,
//! (c) physical topology. PROP-G's exchanges here are *identifier swaps* —
//! the ring, fingers, and every DHT guarantee are untouched.

use crate::setup::{msgs_per_trial, panel, sample_series, Scale, Scenario, Vary};
use prop_core::{PropConfig, ProtocolSim};
use prop_engine::{json_impl, Duration};
use prop_metrics::{path_stretch, TimeSeries};
use prop_overlay::Slot;
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
    /// Probe trials the driver ran over the whole curve.
    pub trials: u64,
    /// Protocol messages per probe trial over the whole curve.
    pub msgs_per_trial: f64,
}

json_impl!(ToJson for struct StretchCurve {
    series, improvement, delivered, failed, skipped, trials, msgs_per_trial
});

/// Run PROP-G on this scenario's Chord overlay and sample path stretch every
/// `step` until `horizon`, over the pairs `pairs_at(now ms)` hands out.
fn sample_stretch(
    scenario: &Scenario,
    cfg: PropConfig,
    label: String,
    step: Duration,
    horizon: Duration,
    mut pairs_at: impl FnMut(u64) -> Vec<(Slot, Slot)>,
) -> StretchCurve {
    let (chord, net) = scenario.chord();
    let mut sim_rng = scenario.rng(&format!("fig6-sim-{label}"));
    let mut sim = ProtocolSim::new(net, cfg, &mut sim_rng);
    // The last sample's summary is the curve's workload disposition.
    let mut last = None;
    let series = sample_series(&mut sim, label, step, horizon, |sim| {
        let summary = path_stretch(sim.net(), &chord, &pairs_at(sim.now().as_millis()));
        last.insert(summary).mean
    });
    let summary = last.expect("a curve has a sample at time zero");
    let overhead = sim.overhead();
    StretchCurve {
        improvement: series.improvement().unwrap_or(0.0),
        series,
        delivered: summary.delivered,
        failed: summary.failed,
        skipped: summary.skipped,
        trials: overhead.trials,
        msgs_per_trial: msgs_per_trial(&overhead),
    }
}

/// Run PROP-G on this scenario's Chord overlay and sample path stretch.
pub fn run_curve(
    scenario: &Scenario,
    cfg: PropConfig,
    scale: Scale,
    label: String,
) -> StretchCurve {
    let pairs = LookupGen::new(&scenario.rng("fig6-lookups"))
        .uniform_pairs(&scenario.all_slots(), scale.lookups_per_sample());
    sample_stretch(scenario, cfg, label, scale.sample_every(), scale.horizon(), |_| pairs.clone())
}

/// Fig. 6 under a scripted traffic plane (`fig6 --traffic <script.json>`):
/// each sample's workload follows the script's *time-varying* Zipf
/// popularity — exponent shifts and hot-set rotations included — instead
/// of the static uniform pair set, and the horizon is the script's. The
/// script's churn events are not applied on the Chord overlay (full
/// scenarios, churn included, run through `traffic` against the Gnutella
/// drivers); what this curve isolates is how PROP-G's stretch tracks a
/// shifting popularity distribution.
pub fn run_curve_scripted(
    scenario: &Scenario,
    cfg: PropConfig,
    script: &TrafficScript,
    scale: Scale,
    label: String,
) -> StretchCurve {
    let live = scenario.all_slots();
    let mut ranking = scenario.all_slots();
    scenario.rng("fig6-ranking").shuffle(&mut ranking);
    let pop = PopularityProcess::new(script);
    let mut lookup_rng = scenario.rng("fig6-scripted-lookups");
    let count = scale.lookups_per_sample();
    let horizon = Duration::from_millis(script.horizon_ms);
    sample_stretch(scenario, cfg, label, scale.sample_every(), horizon, |t_ms| {
        pop.pairs_at(t_ms, &live, &ranking, count, &mut lookup_rng)
    })
}

/// Panel (a): vary the probe TTL at fixed n.
pub fn panel_a(scale: Scale, seed: u64) -> Vec<StretchCurve> {
    panel(Vary::Ttl, scale, seed, run_curve)
}

/// Panel (b): vary the overlay size at `nhops = 2`.
pub fn panel_b(scale: Scale, seed: u64) -> Vec<StretchCurve> {
    panel(Vary::Size, scale, seed, run_curve)
}

/// Panel (c): `ts-large` vs `ts-small` at the default n.
pub fn panel_c(scale: Scale, seed: u64) -> Vec<StretchCurve> {
    panel(Vary::Topology, scale, seed, run_curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Topology;

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
        let c = run();
        assert!(!c.series.is_empty());
        assert!(c.series.min_value().unwrap() >= 1.0, "routes can't beat the direct path");
        assert!(c.trials > 0);
        let c2 = run();
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
