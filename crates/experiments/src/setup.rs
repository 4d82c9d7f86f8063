//! Shared experiment scaffolding: topologies, scales, scenario builders.

use prop_engine::{json_impl, Duration, SimRng};
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

/// Which latency-oracle tier an experiment forces. `Auto` lets the member
/// count pick through the config thresholds (the production default); the
/// others pin the tier regardless of size, so the same workload can be
/// compared across the dense, row-cache, and coordinate-embedded paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleTier {
    Auto,
    Dense,
    Cached,
    Embedded,
}

impl OracleTier {
    /// Parse an `--oracle-tier` argument.
    pub fn parse(s: &str) -> Option<OracleTier> {
        match s {
            "auto" => Some(OracleTier::Auto),
            "dense" => Some(OracleTier::Dense),
            "cached" | "row-cache" => Some(OracleTier::Cached),
            "embedded" | "coord-embed" => Some(OracleTier::Embedded),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            OracleTier::Auto => "auto",
            OracleTier::Dense => "dense",
            OracleTier::Cached => "cached",
            OracleTier::Embedded => "embedded",
        }
    }

    /// The forcing [`OracleConfig`], with the row cache (the tier itself on
    /// `Cached`, the escalation cache on `Embedded`) capped at
    /// `cache_capacity_bytes`.
    pub fn config(self, cache_capacity_bytes: usize) -> OracleConfig {
        match self {
            OracleTier::Auto => OracleConfig { cache_capacity_bytes, ..OracleConfig::default() },
            OracleTier::Dense => OracleConfig {
                dense_threshold: usize::MAX,
                embed_threshold: usize::MAX,
                cache_capacity_bytes,
                ..OracleConfig::default()
            },
            OracleTier::Cached => OracleConfig::cached(cache_capacity_bytes),
            OracleTier::Embedded => {
                OracleConfig { cache_capacity_bytes, ..OracleConfig::embedded() }
            }
        }
    }
}

/// Experiment scale: the paper's parameterization or a fast smoke-test one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// n = 1000 peers, 2 simulated hours, 10-minute sampling,
    /// 2,000 sampled lookups per measurement.
    Paper,
    /// n = 120 peers over the tiny... no — `ts-small` is still used where
    /// the panel demands it; 30 simulated minutes, 5-minute sampling,
    /// 400 sampled lookups.
    Quick,
}

json_impl!(ToJson, FromJson for enum Scale { Paper, Quick });

impl Scale {
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

    /// [`Scenario::build`] with an explicit oracle config — how the
    /// tier-comparison experiments pin a tier (see [`OracleTier::config`]).
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn oracle_tier_parse_and_config_force_tiers() {
        for (s, t) in [
            ("auto", OracleTier::Auto),
            ("dense", OracleTier::Dense),
            ("cached", OracleTier::Cached),
            ("row-cache", OracleTier::Cached),
            ("embedded", OracleTier::Embedded),
            ("coord-embed", OracleTier::Embedded),
        ] {
            assert_eq!(OracleTier::parse(s), Some(t));
        }
        assert_eq!(OracleTier::parse("bogus"), None);

        let cap = 1 << 20;
        for (tier, expect) in [
            (OracleTier::Dense, "dense"),
            (OracleTier::Cached, "row-cache"),
            (OracleTier::Embedded, "coord-embed"),
        ] {
            let s = Scenario::build_with(Topology::Tiny, 16, 3, &tier.config(cap));
            assert_eq!(s.oracle.tier(), expect, "forcing {:?}", tier);
        }
    }

    #[test]
    fn forced_tiers_share_membership_with_auto() {
        // Same seed + topology ⇒ same hosts regardless of oracle config.
        let auto = Scenario::build(Topology::Tiny, 16, 5);
        let emb =
            Scenario::build_with(Topology::Tiny, 16, 5, &OracleTier::Embedded.config(1 << 20));
        for i in 0..16 {
            assert_eq!(auto.oracle.host(i), emb.oracle.host(i));
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
