//! Shared experiment scaffolding: topologies, scales, scenario builders,
//! the optimizer [`Scheme`]s the comparisons run, and the three panels
//! Figs. 5 and 6 have in common.

use prop_baselines::{Rewiring, RewiringSim};
use prop_core::{Overhead, Policy, ProbeMode, PropConfig, ProtocolSim};
use prop_engine::{json_impl, par, Duration, SimRng};
use prop_metrics::TimeSeries;
use prop_netsim::{generate, LatencyOracle, OracleConfig, PhysGraph, TransitStubParams};
use prop_overlay::chord::{Chord, ChordParams};
use prop_overlay::gnutella::{Gnutella, GnutellaParams};
use prop_overlay::{OverlayNet, Slot};
use std::sync::Arc;

/// Which transit–stub preset backs the experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    TsLarge,
    TsSmall,
    /// Miniature topology for tests/benches.
    Tiny,
}

json_impl!(ToJson, FromJson for enum Topology { TsLarge, TsSmall, Tiny });

impl Topology {
    pub fn params(self) -> TransitStubParams {
        match self {
            Topology::TsLarge => TransitStubParams::ts_large(),
            Topology::TsSmall => TransitStubParams::ts_small(),
            Topology::Tiny => TransitStubParams::tiny(),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Topology::TsLarge => "ts-large",
            Topology::TsSmall => "ts-small",
            Topology::Tiny => "tiny",
        }
    }

    /// The preset a scenario file's `"topology"` label names.
    pub fn from_label(label: &str) -> Option<Topology> {
        [Topology::TsLarge, Topology::TsSmall, Topology::Tiny]
            .into_iter()
            .find(|t| t.label() == label)
    }
}

/// Experiment scale: the paper's parameterization or a fast smoke-test one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// n = 1000 peers, 2 simulated hours, 10-minute sampling,
    /// 2,000 sampled lookups per measurement.
    Paper,
    /// n = 120 peers over `ts-small`, 30 simulated minutes, 5-minute
    /// sampling, 400 sampled lookups.
    Quick,
}

json_impl!(ToJson, FromJson for enum Scale { Paper, Quick });

impl Scale {
    /// The transit–stub preset behind this scale. Quick runs go up to 240
    /// members, more stub hosts than `tiny` has, so they use `ts-small`.
    pub fn topology(self) -> Topology {
        match self {
            Scale::Paper => Topology::TsLarge,
            Scale::Quick => Topology::TsSmall,
        }
    }

    pub fn default_n(self) -> usize {
        match self {
            Scale::Paper => 1000,
            Scale::Quick => 120,
        }
    }

    /// Total simulated time.
    pub fn horizon(self) -> Duration {
        match self {
            Scale::Paper => Duration::from_minutes(120),
            Scale::Quick => Duration::from_minutes(30),
        }
    }

    /// Interval between metric samples.
    pub fn sample_every(self) -> Duration {
        match self {
            Scale::Paper => Duration::from_minutes(10),
            Scale::Quick => Duration::from_minutes(5),
        }
    }

    /// Lookup pairs sampled per measurement point.
    pub fn lookups_per_sample(self) -> usize {
        match self {
            Scale::Paper => 2000,
            Scale::Quick => 400,
        }
    }
}

/// A ready-to-run physical substrate: topology + membership + oracle.
pub struct Scenario {
    pub topology: Topology,
    pub n: usize,
    pub seed: u64,
    pub oracle: Arc<LatencyOracle>,
    phys: PhysGraph,
    rng: SimRng,
}

impl Scenario {
    /// Generate the physical network, select `n` overlay members from its
    /// stub hosts, and precompute the latency oracle.
    pub fn build(topology: Topology, n: usize, seed: u64) -> Self {
        Self::build_with(topology, n, seed, &OracleConfig::default())
    }

    /// [`Scenario::build`] with an explicit oracle config — how a test pins
    /// a tier ([`OracleConfig::tier`]).
    /// The RNG consumption is identical to `build`, so two scenarios that
    /// differ only in config share topology, membership, and overlays.
    pub fn build_with(topology: Topology, n: usize, seed: u64, cfg: &OracleConfig) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let phys = generate(&topology.params(), &mut rng);
        let oracle = Arc::new(LatencyOracle::select_and_build_with(&phys, n, &mut rng, cfg));
        Scenario { topology, n, seed, oracle, phys, rng }
    }

    /// The generated physical network (the fault experiments need it to
    /// compute transit-partition sides).
    pub fn phys(&self) -> &PhysGraph {
        &self.phys
    }

    /// A derived RNG stream for a named experiment stage.
    pub fn rng(&self, label: &str) -> SimRng {
        self.rng.fork(label)
    }

    /// Build the Gnutella overlay for this scenario.
    pub fn gnutella(&self) -> (Gnutella, OverlayNet) {
        let mut rng = self.rng("gnutella");
        Gnutella::build(GnutellaParams::default(), Arc::clone(&self.oracle), &mut rng)
    }

    /// Build the Chord overlay for this scenario.
    pub fn chord(&self) -> (Chord, OverlayNet) {
        let mut rng = self.rng("chord");
        Chord::build(ChordParams::default(), Arc::clone(&self.oracle), &mut rng)
    }

    /// Live slots of a freshly built overlay (0..n for both builders).
    pub fn all_slots(&self) -> Vec<Slot> {
        (0..self.n as u32).map(Slot).collect()
    }
}

/// An overlay optimizer, as the comparisons run one: built over an overlay,
/// run to a horizon, the optimized overlay handed back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// PROP-O exchanging `m` neighbors (`None`: the default `m = δ(G)`).
    PropO {
        m: Option<usize>,
    },
    PropG,
    /// LTM or the §3.1 selfish-rewiring strawman.
    Rewire(Rewiring),
}

impl Scheme {
    /// Run this scheme over `net` for `horizon`, drawing from the scenario's
    /// `rng_label` stream.
    pub fn optimize(
        self,
        scenario: &Scenario,
        net: OverlayNet,
        rng_label: &str,
        horizon: Duration,
    ) -> OverlayNet {
        let mut rng = scenario.rng(rng_label);
        let policy = match self {
            Scheme::PropO { m } => Policy::PropO { m },
            Scheme::PropG => Policy::PropG,
            Scheme::Rewire(rule) => {
                let mut sim = RewiringSim::new(net, rule, &mut rng);
                sim.run_for(horizon);
                return sim.into_net();
            }
        };
        let mut sim = ProtocolSim::new(net, PropConfig::paper_defaults(policy), &mut rng);
        sim.run_for(horizon);
        sim.into_net()
    }
}

/// Protocol messages per probe trial (0 before the first trial).
pub fn msgs_per_trial(overhead: &Overhead) -> f64 {
    overhead.total_msgs() as f64 / overhead.trials.max(1) as f64
}

/// The sampling loop of every curve: `measure(sim)` now and again after
/// each `step` of protocol execution, until `horizon` has passed. The
/// driver's clock ends every window exactly, so the points lie on the
/// `step` grid and `measure` reads the sample's instant off `sim.now()`.
pub fn sample_series(
    sim: &mut ProtocolSim,
    label: String,
    step: Duration,
    horizon: Duration,
    mut measure: impl FnMut(&ProtocolSim) -> f64,
) -> TimeSeries {
    let mut series = TimeSeries::new(label);
    let end = sim.now() + horizon;
    series.push(sim.now(), measure(sim));
    while sim.now() < end {
        sim.run_for(step);
        series.push(sim.now(), measure(sim));
    }
    series
}

/// What a panel of Fig. 5 / Fig. 6 varies.
#[derive(Clone, Copy, Debug)]
pub enum Vary {
    /// (a) the probe TTL at fixed n: `nhops ∈ {1, 2, 4}` and random probes.
    Ttl,
    /// (b) the overlay size at `nhops = 2`.
    Size,
    /// (c) the physical topology, `ts-large` vs `ts-small`, at the default n.
    Topology,
}

/// One panel of Fig. 5 or Fig. 6: the figure supplies `run_curve` (its
/// overlay and metric), the panel supplies scenarios, configs and labels.
pub fn panel<C: Send>(
    vary: Vary,
    scale: Scale,
    seed: u64,
    run_curve: impl Fn(&Scenario, PropConfig, Scale, String) -> C + Sync,
) -> Vec<C> {
    let n = scale.default_n();
    match vary {
        Vary::Ttl => {
            let scenario = Scenario::build(scale.topology(), n, seed);
            let variants = [
                (format!("n={n}, nhops=1"), ProbeMode::Walk { nhops: 1 }),
                (format!("n={n}, nhops=2"), ProbeMode::Walk { nhops: 2 }),
                (format!("n={n}, nhops=4"), ProbeMode::Walk { nhops: 4 }),
                (format!("n={n}, random"), ProbeMode::Random),
            ];
            par::map(&variants, |(label, probe)| {
                run_curve(&scenario, PropConfig::prop_g().with_probe(*probe), scale, label.clone())
            })
        }
        Vary::Size => {
            let sizes: &[usize] = match scale {
                Scale::Paper => &[300, 500, 1000, 3000],
                Scale::Quick => &[60, 120, 240],
            };
            par::map(sizes, |&n| {
                let scenario = Scenario::build(scale.topology(), n, seed);
                run_curve(&scenario, PropConfig::prop_g(), scale, format!("n={n}, nhops=2"))
            })
        }
        Vary::Topology => par::map(&[Topology::TsLarge, Topology::TsSmall], |&topo| {
            let scenario = Scenario::build(topo, n, seed);
            run_curve(&scenario, PropConfig::prop_g(), scale, topo.label().to_string())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netsim::Tier;

    #[test]
    fn scenario_builds_consistently() {
        let s = Scenario::build(Topology::Tiny, 20, 7);
        assert_eq!(s.oracle.len(), 20);
        let (_, g1) = s.gnutella();
        let (_, g2) = s.gnutella();
        // Same scenario ⇒ identical overlay builds.
        for slot in g1.graph().live_slots() {
            assert_eq!(g1.graph().neighbors(slot), g2.graph().neighbors(slot));
        }
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Quick.default_n() < Scale::Paper.default_n());
        assert!(Scale::Quick.horizon() < Scale::Paper.horizon());
        assert!(Scale::Quick.lookups_per_sample() < Scale::Paper.lookups_per_sample());
    }

    #[test]
    fn forced_tiers_share_membership_with_auto() {
        // Same seed + topology ⇒ same hosts regardless of oracle config.
        let auto = Scenario::build(Topology::Tiny, 16, 5);
        let cached = Scenario::build_with(Topology::Tiny, 16, 5, &OracleConfig::cached(1));
        assert_eq!(
            (auto.oracle.built_tier(), cached.oracle.built_tier()),
            (Tier::Dense, Tier::Search)
        );
        for i in 0..16 {
            assert_eq!(auto.oracle.host(i), cached.oracle.host(i));
        }
    }

    #[test]
    fn chord_and_gnutella_share_membership() {
        let s = Scenario::build(Topology::Tiny, 15, 9);
        let (_, gn) = s.gnutella();
        let (_, ch) = s.chord();
        assert_eq!(gn.oracle().len(), ch.oracle().len());
        for i in 0..15 {
            assert_eq!(gn.oracle().host(i), ch.oracle().host(i));
        }
    }
}
