//! Scenario bundles: one JSON document, one seed, one reproducible run.
//!
//! A [`Scenario`] composes everything that defines an experiment besides
//! the driver under test: the physical topology, the population size, the
//! scripted traffic plane ([`TrafficScript`]) and the scripted fault plane
//! ([`FaultScript`]), all replayed under a single seed. Experiments load a
//! scenario from disk (see `examples/*.json` at the repo root), compile
//! both scripts, and run — the same file on the same seed reproduces the
//! same trace byte-for-byte.

use crate::script::FaultScript;
use prop_engine::json_impl;
use prop_workloads::TrafficScript;

/// A named, self-contained experiment input.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name — used for output file naming and report labels.
    pub name: String,
    /// Topology label as understood by the experiment layer
    /// (`"ts-large"`, `"ts-small"`, `"tiny"`).
    pub topology: String,
    /// Overlay population (member count).
    pub n: usize,
    /// Master seed. Traffic, faults, topology, and the driver all fork
    /// from it with distinct labels.
    pub seed: u64,
    /// The production traffic plane: diurnal per-domain churn/lookup
    /// rates, flash crowds, popularity shifts.
    pub traffic: TrafficScript,
    /// Optional fault plane composed alongside the traffic (defaults to
    /// no faults).
    pub faults: FaultScript,
}

json_impl!(ToJson, FromJson for struct Scenario {
    name, topology, n, seed, traffic, faults [default]
});

impl Scenario {
    /// A fault-free scenario around a traffic script.
    pub fn new(
        name: impl Into<String>,
        topology: impl Into<String>,
        n: usize,
        seed: u64,
        traffic: TrafficScript,
    ) -> Self {
        Scenario {
            name: name.into(),
            topology: topology.into(),
            n,
            seed,
            traffic,
            faults: FaultScript::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engine::json;

    fn sample() -> Scenario {
        let traffic = TrafficScript::preset_diurnal_regional(60_000, 24 * 60_000, 40, 1.0, 5.0);
        Scenario {
            faults: FaultScript::new().loss(0, 0.05),
            ..Scenario::new("diurnal", "tiny", 24, 7, traffic)
        }
    }

    #[test]
    fn round_trips_through_json() {
        let s = sample();
        let json = json::to_string_pretty(&s);
        let back: Scenario = json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn faults_default_to_empty() {
        let json = r#"{
            "name": "bare",
            "topology": "tiny",
            "n": 24,
            "seed": 1,
            "traffic": {
                "hour_ms": 60000,
                "horizon_ms": 120000,
                "catalog": 10,
                "domains": [
                    {"domain": 0, "joins_per_min": 1.0,
                     "leaves_per_min": 1.0, "lookups_per_min": 4.0}
                ]
            }
        }"#;
        let s: Scenario = json::from_str(json).unwrap();
        assert!(s.faults.events.is_empty());
        assert_eq!(s.traffic.domains.len(), 1);
        assert!(s.traffic.flash_crowds.is_empty(), "script defaults apply too");
    }
}
