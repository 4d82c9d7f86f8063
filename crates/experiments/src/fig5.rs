//! Figure 5 — *Effectiveness of PROP-G in a Gnutella-like environment.*
//!
//! Metric: **average lookup latency** (flooding makes all-pairs stretch
//! impractical, so the paper samples "1[0,000] lookup operations"), plotted
//! against simulated time as PROP-G keeps exchanging.
//!
//! * **(a) varying the TTL scale** — probe walks of `nhops ∈ {1, 2, 4}` and
//!   the idealized uniform-random probe. Expected shape: `nhops = 1`
//!   barely helps; 2, 4 and random are nearly equivalent.
//! * **(b) varying the system size** — n ∈ {300, 500, 1000, 3000}; the
//!   relative improvement shrinks a little as the overlay approaches the
//!   whole physical network.
//! * **(c) varying the physical topology** — `ts-large` vs `ts-small`;
//!   the big-backbone topology benefits more.

use crate::setup::{Scale, Scenario, Topology};
use prop_core::{ProbeMode, PropConfig, ProtocolSim};
use prop_engine::{json_impl, par};
use prop_metrics::{par_avg_lookup_latency, MetricSummary, TimeSeries};
use prop_workloads::LookupGen;

/// One plotted curve plus the numbers EXPERIMENTS.md quotes.
#[derive(Clone, Debug)]
pub struct Curve {
    pub series: TimeSeries,
    /// Relative improvement start → end (0.25 = 25% lower).
    pub improvement: f64,
    /// Cross-seed dispersion, present only on swept (multi-seed) output:
    /// single-seed runs keep the historical JSON shape unchanged.
    pub ci: Option<CurveCi>,
}

json_impl!(ToJson for struct Curve { series, improvement, ci [omit_none] });

/// Error-bar block attached to a mean curve by the sweep orchestrator
/// (see [`crate::sweep`]): the headline metrics as [`MetricSummary`]s plus
/// a per-sample 95% half-width band aligned with `series.points`.
#[derive(Clone, Debug)]
pub struct CurveCi {
    /// Seeds aggregated into the mean curve.
    pub seeds: usize,
    /// Final-sample value across seeds.
    pub final_value: MetricSummary,
    /// Start → end relative improvement across seeds.
    pub improvement: MetricSummary,
    /// 95% CI half-width at each series sample (`None` where undefined).
    pub point_ci95: Vec<Option<f64>>,
}

json_impl!(ToJson for struct CurveCi { seeds, final_value, improvement, point_ci95 });

/// Run PROP-G on this scenario's Gnutella overlay and sample mean lookup
/// latency on a fixed pair workload at every interval.
pub fn run_curve(scenario: &Scenario, cfg: PropConfig, scale: Scale, label: String) -> Curve {
    let (gn, net) = scenario.gnutella();
    let mut sim_rng = scenario.rng(&format!("fig5-sim-{label}"));
    let mut sim = ProtocolSim::new(net, cfg, &mut sim_rng);
    let live = scenario.all_slots();
    let pairs = LookupGen::new(&scenario.rng("fig5-lookups"))
        .uniform_pairs(&live, scale.lookups_per_sample());

    let mut series = TimeSeries::new(label);
    let step = scale.sample_every();
    let horizon = scale.horizon();
    let mut elapsed = prop_engine::Duration::ZERO;
    series.push(sim.now(), par_avg_lookup_latency(sim.net(), &gn, &pairs).mean_ms);
    while elapsed < horizon {
        sim.run_for(step);
        elapsed = elapsed + step;
        series.push(sim.now(), par_avg_lookup_latency(sim.net(), &gn, &pairs).mean_ms);
    }
    let improvement = series.improvement().unwrap_or(0.0);
    Curve { series, improvement, ci: None }
}

/// Panel (a): vary the probe TTL at fixed n.
pub fn panel_a(scale: Scale, seed: u64) -> Vec<Curve> {
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
pub fn panel_b(scale: Scale, seed: u64) -> Vec<Curve> {
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
pub fn panel_c(scale: Scale, seed: u64) -> Vec<Curve> {
    let n = scale.default_n();
    par::map(&[Topology::TsLarge, Topology::TsSmall], |&topo| {
        let scenario = Scenario::build(topo, n, seed);
        run_curve(&scenario, PropConfig::prop_g(), scale, topo.label().to_string())
    })
}

fn default_topology(scale: Scale) -> Topology {
    match scale {
        Scale::Paper => Topology::TsLarge,
        // Quick mode still needs >240 stub hosts, which `tiny` lacks.
        Scale::Quick => Topology::TsSmall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_panel_a_shows_the_paper_shape() {
        let curves = panel_a(Scale::Quick, 42);
        assert_eq!(curves.len(), 4);
        // Everything but nhops=1 should improve noticeably.
        for c in &curves[1..] {
            assert!(c.improvement > 0.03, "{}: improvement {:.3}", c.series.label, c.improvement);
        }
        // nhops ≥ 2 should beat nhops = 1.
        let one = curves[0].improvement;
        let best_rest = curves[1..].iter().map(|c| c.improvement).fold(f64::MIN, f64::max);
        assert!(
            best_rest > one,
            "nhops=1 ({one:.3}) should not dominate (best rest {best_rest:.3})"
        );
    }

    #[test]
    fn quick_panel_b_all_sizes_improve() {
        let curves = panel_b(Scale::Quick, 43);
        assert_eq!(curves.len(), 3);
        for c in &curves {
            assert!(c.improvement > 0.0, "{}: {:.3}", c.series.label, c.improvement);
        }
    }

    #[test]
    fn quick_panel_c_both_topologies_improve() {
        let curves = panel_c(Scale::Quick, 44);
        assert_eq!(curves.len(), 2);
        for c in &curves {
            assert!(c.improvement > 0.0, "{}: {:.3}", c.series.label, c.improvement);
        }
    }
}
