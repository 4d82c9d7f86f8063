//! Figure 5 — *Effectiveness of PROP-G in a Gnutella-like environment.*
//!
//! Metric: **average lookup latency** (flooding makes all-pairs stretch
//! impractical, so the paper samples "1\[0,000\] lookup operations"), plotted
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

use crate::setup::{panel, sample_series, Scale, Scenario, Vary};
use prop_core::{PropConfig, ProtocolSim};
use prop_engine::json_impl;
use prop_metrics::{avg_lookup_latency, TimeSeries};
use prop_workloads::LookupGen;

/// One plotted curve plus the numbers EXPERIMENTS.md quotes.
#[derive(Clone, Debug)]
pub struct Curve {
    pub series: TimeSeries,
    /// Relative improvement start → end (0.25 = 25% lower).
    pub improvement: f64,
}

json_impl!(ToJson for struct Curve { series, improvement });

/// Run PROP-G on this scenario's Gnutella overlay and sample mean lookup
/// latency on a fixed pair workload at every interval.
pub fn run_curve(scenario: &Scenario, cfg: PropConfig, scale: Scale, label: String) -> Curve {
    let (gn, net) = scenario.gnutella();
    let mut sim_rng = scenario.rng(&format!("fig5-sim-{label}"));
    let mut sim = ProtocolSim::new(net, cfg, &mut sim_rng);
    let pairs = LookupGen::new(&scenario.rng("fig5-lookups"))
        .uniform_pairs(&scenario.all_slots(), scale.lookups_per_sample());
    let series = sample_series(&mut sim, label, scale.sample_every(), scale.horizon(), |sim| {
        avg_lookup_latency(sim.net(), &gn, &pairs).mean_ms
    });
    let improvement = series.improvement().unwrap_or(0.0);
    Curve { series, improvement }
}

/// Panel (a): vary the probe TTL at fixed n.
pub fn panel_a(scale: Scale, seed: u64) -> Vec<Curve> {
    panel(Vary::Ttl, scale, seed, run_curve)
}

/// Panel (b): vary the overlay size at `nhops = 2`.
pub fn panel_b(scale: Scale, seed: u64) -> Vec<Curve> {
    panel(Vary::Size, scale, seed, run_curve)
}

/// Panel (c): `ts-large` vs `ts-small` at the default n.
pub fn panel_c(scale: Scale, seed: u64) -> Vec<Curve> {
    panel(Vary::Topology, scale, seed, run_curve)
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
