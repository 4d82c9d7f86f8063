//! Scenario bundles: one JSON document, one seed, one reproducible run.
//!
//! A [`Scenario`] composes everything that defines an experiment besides
//! the driver under test: the physical topology, the population size, the
//! scripted traffic plane ([`TrafficScript`]) and the scripted fault plane
//! ([`FaultScript`]), all replayed under a single seed. Experiments load a
//! scenario from disk (see `examples/*.json` at the repo root), compile
//! both scripts, and run — the same file on the same seed reproduces the
//! same trace byte-for-byte.
//!
//! A parsed bundle is checked once, where it is read: each range rule sits
//! in the `FromJson` of the type that holds the value (see
//! `prop_workloads::traffic::script` and [`crate::script`]), and the
//! bundle carries the one rule that reads two of its fields, a crashed
//! peer below `n`. What the topology decides (its label, its stub hosts,
//! its transit domains) is the experiment layer's check at load.

use crate::script::{FaultEvent, FaultScript};
use prop_engine::json::Error;
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
    name, topology, n, seed, traffic, faults [default, check = crashes_below(n)]
});

/// The bundle's rule: every `Crash` names one of the `n` members.
fn crashes_below(n: &usize) -> impl Fn(&FaultScript) -> Result<(), Error> + '_ {
    move |faults| {
        faults.events.iter().enumerate().try_for_each(|(i, ev)| match *ev {
            FaultEvent::Crash { peer, .. } if peer >= *n => {
                Err(Error::new(format!("must be below n = {n}, got {peer}"))
                    .in_key("peer")
                    .in_key("Crash")
                    .in_index(i)
                    .in_key("events"))
            }
            _ => Ok(()),
        })
    }
}

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
    fn a_probability_or_a_crash_out_of_range_is_refused_where_it_is_read() {
        let text = json::to_string_pretty(&Scenario {
            faults: FaultScript::new().loss(0, 0.05).reorder(5, 0.5, 10).crash(9, 23, 100),
            ..sample()
        });
        assert!(json::from_str::<Scenario>(&text).is_ok(), "peer 23 of 24 crashes");
        for (from, to, path, what) in [
            (
                "\"prob\": 0.5",
                "\"prob\": 1.5",
                "faults.events[1].Reorder.prob",
                "must be in [0, 1], got 1.5",
            ),
            (
                "\"prob\": 0.05",
                "\"prob\": -0.05",
                "faults.events[0].Loss.prob",
                "must be in [0, 1], got -0.05",
            ),
            (
                "\"peer\": 23",
                "\"peer\": 24",
                "faults.events[2].Crash.peer",
                "must be below n = 24, got 24",
            ),
            (
                "\"n\": 24",
                "\"n\": 23",
                "faults.events[2].Crash.peer",
                "must be below n = 23, got 23",
            ),
        ] {
            assert!(text.contains(from), "{from}");
            let e = json::from_str::<Scenario>(&text.replacen(from, to, 1)).unwrap_err();
            assert_eq!((e.path(), e.what.as_str()), (path.to_string(), what), "{e}");
            assert!(e.line > 0, "{e}");
        }
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
