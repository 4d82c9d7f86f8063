//! Scripted-traffic experiments: replaying a production traffic plane
//! against the PROP drivers.
//!
//! A [`prop_faults::Scenario`] bundles topology + population +
//! [`TrafficScript`] + `FaultScript` under one seed. This module compiles
//! the script into a [`prop_workloads::CompiledTraffic`] plane and pumps it
//! through any [`ChurnDriver`] — the synchronous [`ProtocolSim`] (PROP-G or
//! PROP-O), the asynchronous [`AsyncProtocolSim`], or the selfish baseline
//! — interleaving scripted joins/leaves/lookups with protocol execution
//! exactly the way the A2 ablation interleaves its Poisson trace.
//!
//! Everything is deterministic: the plane is a pure function of
//! `(script, seed)`, the apply-side RNG is a labelled fork of the scenario
//! seed, and measurement is a function of the pair list alone — so the
//! same scenario file replays byte-for-byte (`tests/traffic_replay.rs`
//! pins this).

use crate::setup::{Scale, Scenario, Topology};
use prop_baselines::selfish::{SelfishConfig, SelfishSim};
use prop_core::sim::Timing;
use prop_core::{
    AsyncProtocolSim, ChurnDriver, PropConfig, PropSim, ProtocolSim, TrafficCounters, TrafficEvent,
    TrafficPlane,
};
use prop_engine::{json, json_impl, Duration, SimTime};
use prop_faults::{transit_bisection, Scenario as ScenarioSpec};
use prop_metrics::{link_stretch, path_stretch, StretchSummary, TimeSeries, TrafficReport};
use prop_netsim::oracle::MemberIdx;
use prop_overlay::gnutella::Gnutella;
use prop_overlay::Slot;
use prop_workloads::traffic::script::PHASES;
use prop_workloads::{CompiledTraffic, TrafficScript};

/// Which driver consumes the traffic plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficDriver {
    /// Synchronous driver, PROP-G policy.
    PropG,
    /// Synchronous driver, PROP-O policy.
    PropO,
    /// Asynchronous driver (PROP-O policy, per-node clocks).
    Async,
    /// The §3.1 selfish-rewiring strawman.
    Selfish,
}

impl TrafficDriver {
    pub fn parse(s: &str) -> Option<TrafficDriver> {
        match s {
            "prop-g" | "sync" => Some(TrafficDriver::PropG),
            "prop-o" => Some(TrafficDriver::PropO),
            "async" => Some(TrafficDriver::Async),
            "selfish" => Some(TrafficDriver::Selfish),
            _ => None,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            TrafficDriver::PropG => "prop-g",
            TrafficDriver::PropO => "prop-o",
            TrafficDriver::Async => "async",
            TrafficDriver::Selfish => "selfish",
        }
    }

    /// The headline comparison: PROP-G vs PROP-O vs the selfish strawman.
    pub const COMPARE: [TrafficDriver; 3] =
        [TrafficDriver::PropG, TrafficDriver::PropO, TrafficDriver::Selfish];

    /// The drivers a `--driver` value names: one driver, `both` (PROP-O on
    /// both timing modes) or `compare`.
    pub fn parse_set(s: &str) -> Option<Vec<TrafficDriver>> {
        match s {
            "both" => Some(vec![TrafficDriver::PropO, TrafficDriver::Async]),
            "compare" => Some(Self::COMPARE.to_vec()),
            one => Self::parse(one).map(|d| vec![d]),
        }
    }
}

/// One driver's run of one scenario.
#[derive(Clone, Debug)]
pub struct TrafficRunReport {
    pub scenario: String,
    pub driver: String,
    pub seed: u64,
    /// Per-sample-window mean path stretch of the scripted lookups.
    pub series: TimeSeries,
    /// Per-phase and per-domain accounting.
    pub report: TrafficReport,
    /// Events the compiled plane emitted (applied + suppressed).
    pub emitted: TrafficCounters,
    pub final_link_stretch: f64,
    pub always_connected: bool,
}

json_impl!(ToJson for struct TrafficRunReport {
    scenario, driver, seed, series, report, emitted, final_link_stretch, always_connected
});

impl TrafficRunReport {
    /// The `--min-delivery` / `--max-stretch` gates this run violates. The
    /// selfish strawman is reported, never gated.
    pub fn gate_failures(
        &self,
        min_delivery: Option<f64>,
        max_stretch: Option<f64>,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        if self.driver == TrafficDriver::Selfish.label() {
            return failures;
        }
        let (delivery, stretch) = (self.report.delivery_rate(), self.report.overall_stretch());
        if let Some(min) = min_delivery.filter(|&min| delivery < min) {
            failures.push(format!("{}: delivery {delivery:.4} below gate {min:.4}", self.driver));
        }
        if let Some(max) = max_stretch.filter(|&max| stretch > max) {
            failures.push(format!("{}: stretch {stretch:.4} above gate {max:.4}", self.driver));
        }
        failures
    }
}

/// Wrapper giving the selfish baseline the [`ChurnDriver`] surface (the
/// trait lives in prop-core, the sim in prop-baselines — neither crate
/// knows the other, so the glue sits here).
struct SelfishDriver(SelfishSim);

impl ChurnDriver for SelfishDriver {
    fn run_until(&mut self, deadline: SimTime) {
        self.0.run_until(deadline);
    }
    fn now(&self) -> SimTime {
        self.0.now()
    }
    fn net(&self) -> &prop_overlay::OverlayNet {
        self.0.net()
    }
    fn net_mut(&mut self) -> &mut prop_overlay::OverlayNet {
        self.0.net_mut()
    }
    fn handle_join(&mut self, slot: Slot) {
        self.0.handle_join(slot);
    }
    fn handle_leave(&mut self, slot: Slot, affected: &[Slot]) {
        self.0.handle_leave(slot, affected);
    }
}

/// Resolve a scenario's topology label to the [`Topology`] preset. The
/// loaders below have already refused a file whose label is unknown.
pub fn topology_from_label(label: &str) -> Topology {
    Topology::from_label(label).unwrap_or_else(|| panic!("unknown topology label {label:?}"))
}

/// Run one scenario on one driver. Scripted lookups become the stretch
/// workload; scripted joins/leaves flow through the driver's churn entry
/// points (which refresh `m_default`); faults, if scripted, ride the
/// transit-bisection fault plane (ignored by the selfish baseline, which
/// has no message plane).
pub fn run_scenario(spec: &ScenarioSpec, driver: TrafficDriver, scale: Scale) -> TrafficRunReport {
    let scenario = Scenario::build(topology_from_label(&spec.topology), spec.n, spec.seed);
    let (gn, net) = scenario.gnutella();
    let mut plane = prop_workloads::compile(&spec.traffic, spec.seed);
    let mut rng = scenario.rng("traffic-sim");

    let (series, report, always_connected, final_link_stretch) = match driver {
        TrafficDriver::PropG => {
            let sim = ProtocolSim::new(net, PropConfig::prop_g(), &mut rng);
            drive_prop(sim, &gn, spec, &scenario, &mut plane, scale)
        }
        TrafficDriver::PropO => {
            let sim = ProtocolSim::new(net, PropConfig::prop_o(), &mut rng);
            drive_prop(sim, &gn, spec, &scenario, &mut plane, scale)
        }
        TrafficDriver::Async => {
            let sim = AsyncProtocolSim::new(net, PropConfig::prop_o(), &mut rng);
            drive_prop(sim, &gn, spec, &scenario, &mut plane, scale)
        }
        TrafficDriver::Selfish => {
            let mut sim = SelfishDriver(SelfishSim::new(net, SelfishConfig::default(), &mut rng));
            drive(&mut sim, &gn, spec, &scenario, &mut plane, scale, |s| (s.0.rewires, 0))
        }
    };

    TrafficRunReport {
        scenario: spec.name.clone(),
        driver: driver.label().to_string(),
        seed: spec.seed,
        series,
        report,
        emitted: plane.counters(),
        final_link_stretch,
        always_connected,
    }
}

/// Run the headline comparison: PROP-G vs PROP-O vs selfish on the same
/// scenario (same plane, same apply-side RNG streams).
pub fn run_comparison(spec: &ScenarioSpec, scale: Scale) -> Vec<TrafficRunReport> {
    TrafficDriver::COMPARE.into_iter().map(|d| run_scenario(spec, d, scale)).collect()
}

/// A PROP arm of [`run_scenario`] — the three differ in timing mode and
/// config only: attach the scripted faults, if any, and pump, reading
/// progress off the driver's [`prop_core::Overhead`].
fn drive_prop<M: Timing>(
    mut sim: PropSim<M>,
    gn: &Gnutella,
    spec: &ScenarioSpec,
    scenario: &Scenario,
    plane: &mut CompiledTraffic,
    scale: Scale,
) -> (TimeSeries, TrafficReport, bool, f64) {
    if !spec.faults.events.is_empty() {
        let sides = transit_bisection(scenario.phys(), &scenario.oracle);
        sim.set_fault_plane(Box::new(prop_faults::compile(&spec.faults, &sides, spec.seed)));
    }
    drive(&mut sim, gn, spec, scenario, plane, scale, |s| {
        let o = s.overhead();
        (o.trials, o.total_msgs())
    })
}

/// The generic pump: interleave plane events with protocol execution, one
/// sample window at a time; measure the window's scripted lookups with the
/// deterministic parallel stretch plane; attribute everything to diurnal
/// phases. `progress` reads the driver's cumulative (trials, msgs).
fn drive<S: ChurnDriver>(
    sim: &mut S,
    gn: &Gnutella,
    spec: &ScenarioSpec,
    scenario: &Scenario,
    plane: &mut CompiledTraffic,
    scale: Scale,
    progress: impl Fn(&S) -> (u64, u64),
) -> (TimeSeries, TrafficReport, bool, f64) {
    let phys = scenario.phys();
    let num_domains = (phys.num_transit_domains().max(1)).min(u16::MAX as usize) as u16;
    // A member's region never changes; slots are resolved through the
    // placement at apply time (joins reuse departed members).
    let member_domain: Vec<u16> = (0..spec.n)
        .map(|m| phys.transit_domain_of(scenario.oracle.host(m)).unwrap_or(0) % num_domains)
        .collect();
    // Popularity rank → holder slot, fixed for the run.
    let ranking: Vec<Slot> = {
        let mut slots = scenario.all_slots();
        scenario.rng("traffic-ranking").shuffle(&mut slots);
        slots
    };
    let mut churn_rng = scenario.rng("traffic-churn");

    let mut report = TrafficReport::new(&PHASES, num_domains);
    let mut series = TimeSeries::new("scripted-lookup path stretch");
    let mut absent: Vec<MemberIdx> = Vec::new();
    let mut window_pairs: Vec<(Slot, Slot)> = Vec::new();
    let mut always_connected = true;
    let (mut last_trials, mut last_msgs) = progress(sim);

    let horizon = Duration::from_millis(spec.traffic.horizon_ms);
    let step = scale.sample_every();
    let mut t = SimTime::ZERO;
    while t.since(SimTime::ZERO) < horizon {
        let window_phase = spec.traffic.phase_of_ms(t.as_millis());
        let deadline = t + step;
        while let Some((et, ev)) = plane.next_event(deadline) {
            sim.run_until(et);
            let phase = spec.traffic.phase_of_ms(et.as_millis());
            match ev {
                TrafficEvent::Leave { domain } => {
                    let domain = domain % num_domains;
                    let live: Vec<Slot> = sim.net().graph().live_slots().collect();
                    if live.len() <= 8 {
                        report.record_suppressed(phase);
                        continue;
                    }
                    let in_domain: Vec<Slot> = live
                        .iter()
                        .copied()
                        .filter(|&s| member_domain[sim.net().peer(s)] == domain)
                        .collect();
                    let pool = if in_domain.is_empty() { &live } else { &in_domain };
                    let victim = *churn_rng.pick(pool).unwrap();
                    let peer = sim.net().peer(victim);
                    let affected: Vec<Slot> = sim.net().graph().neighbors(victim).to_vec();
                    gn.leave(sim.net_mut(), victim, &mut churn_rng);
                    sim.handle_leave(victim, &affected);
                    absent.push(peer);
                    report.record_leave(phase, member_domain[peer]);
                    always_connected &= sim.net().graph().is_connected();
                }
                TrafficEvent::Join { domain } => {
                    let domain = domain % num_domains;
                    if absent.is_empty() {
                        report.record_suppressed(phase);
                        continue;
                    }
                    // Prefer rejoining a peer homed in the scripted region;
                    // fall back to the most recent departure.
                    let pos = absent
                        .iter()
                        .position(|&p| member_domain[p] == domain)
                        .unwrap_or(absent.len() - 1);
                    let peer = absent.swap_remove(pos);
                    let slot = gn.join(sim.net_mut(), peer, &mut churn_rng);
                    sim.handle_join(slot);
                    report.record_join(phase, member_domain[peer]);
                    always_connected &= sim.net().graph().is_connected();
                }
                TrafficEvent::Lookup { domain, rank } => {
                    let domain = domain % num_domains;
                    let dst = ranking[rank as usize % ranking.len()];
                    if !sim.net().graph().is_alive(dst) {
                        report.record_suppressed(phase);
                        continue;
                    }
                    let in_domain: Vec<Slot> = sim
                        .net()
                        .graph()
                        .live_slots()
                        .filter(|&s| s != dst && member_domain[sim.net().peer(s)] == domain)
                        .collect();
                    let src = if in_domain.is_empty() {
                        let live: Vec<Slot> =
                            sim.net().graph().live_slots().filter(|&s| s != dst).collect();
                        match churn_rng.pick(&live) {
                            Some(&s) => s,
                            None => {
                                report.record_suppressed(phase);
                                continue;
                            }
                        }
                    } else {
                        *churn_rng.pick(&in_domain).unwrap()
                    };
                    window_pairs.push((src, dst));
                    report.record_lookup(phase, domain);
                }
            }
        }
        sim.run_until(deadline);
        t = deadline;

        let summary = if window_pairs.is_empty() {
            StretchSummary { mean: f64::NAN, delivered: 0, failed: 0, skipped: 0 }
        } else {
            path_stretch(sim.net(), gn, &window_pairs)
        };
        window_pairs.clear();
        let (trials, msgs) = progress(sim);
        report.record_window(
            window_phase,
            &summary,
            trials.saturating_sub(last_trials),
            msgs.saturating_sub(last_msgs),
        );
        (last_trials, last_msgs) = (trials, msgs);
        if summary.delivered > 0 {
            series.push(t, summary.mean);
        }
    }

    let final_link_stretch = link_stretch(sim.net());
    (series, report, always_connected, final_link_stretch)
}

/// The scenarios [`builtin_scenario`] regenerates.
pub const BUILTIN_SCENARIOS: [&str; 2] = ["diurnal-regional", "flash-crowd"];

/// Built-in scenarios for `prop traffic`, the sweep orchestrator, and CI:
/// the two committed example scripts, regenerated at any scale.
/// `topology`/`n` override the scale defaults (the sweep does this for its
/// tiny test fixtures).
pub fn builtin_scenario(
    name: &str,
    scale: Scale,
    seed: u64,
    topology: Option<Topology>,
    n: Option<usize>,
) -> Result<ScenarioSpec, ScenarioError> {
    let topo = topology.unwrap_or(scale.topology());
    let n = n.unwrap_or(scale.default_n());
    let horizon_ms = scale.horizon().as_millis();
    // Compress a full 24-hour diurnal day into the run.
    let hour_ms = (horizon_ms / prop_workloads::traffic::HOURS_PER_DAY).max(1);
    let catalog = (n as u32 / 2).max(10);
    // Total churn matches the A2 ablation (n/100 per minute across the
    // overlay); lookups refill the scale's per-sample workload.
    let churn_per_min = n as f64 / 100.0 / 4.0;
    let lookups_per_min = scale.lookups_per_sample() as f64 * 60_000.0
        / scale.sample_every().as_millis() as f64
        / 4.0;
    let preset = match name {
        "diurnal-regional" => TrafficScript::preset_diurnal_regional,
        "flash-crowd" => TrafficScript::preset_flash_crowd,
        other => return Err(ScenarioError::UnknownBuiltin(other.to_string())),
    };
    let script = preset(hour_ms, horizon_ms, catalog, churn_per_min, lookups_per_min);
    Ok(ScenarioSpec::new(name, topo.label(), n, seed, script))
}

/// Why a scenario file was refused.
#[derive(Debug)]
pub enum ScenarioError {
    /// The file could not be read.
    Read { path: String, source: std::io::Error },
    /// The file is not the JSON it should be: `error` says where (line,
    /// column, and the path inside the document) and what was expected.
    Parse { path: String, error: json::Error },
    /// The file parses, but a value in it cannot be run.
    Invalid { path: String, what: String },
    /// Not a file, and not one of [`BUILTIN_SCENARIOS`] either.
    UnknownBuiltin(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Read { path, source } => write!(f, "cannot read {path}: {source}"),
            ScenarioError::Parse { path, error } => write!(f, "{path}:{error}"),
            ScenarioError::Invalid { path, what } => write!(f, "{path}: {what}"),
            ScenarioError::UnknownBuiltin(name) => write!(
                f,
                "unknown builtin scenario {name:?} (known: {})",
                BUILTIN_SCENARIOS.join(", ")
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn read(path: &str) -> Result<String, ScenarioError> {
    std::fs::read_to_string(path)
        .map_err(|source| ScenarioError::Read { path: path.to_string(), source })
}

/// The values a driver would divide by or index with.
fn check_script(path: &str, script: &TrafficScript) -> Result<(), ScenarioError> {
    let what = if script.hour_ms == 0 {
        "traffic.hour_ms must be positive"
    } else if script.catalog == 0 {
        "traffic.catalog must be positive"
    } else {
        return Ok(());
    };
    Err(ScenarioError::Invalid { path: path.to_string(), what: what.to_string() })
}

fn parse_bundle(path: &str, text: &str) -> Result<ScenarioSpec, ScenarioError> {
    let spec: ScenarioSpec = json::from_str(text)
        .map_err(|error| ScenarioError::Parse { path: path.to_string(), error })?;
    if Topology::from_label(&spec.topology).is_none() {
        let what =
            format!("unknown topology {:?} (known: ts-large, ts-small, tiny)", spec.topology);
        return Err(ScenarioError::Invalid { path: path.to_string(), what });
    }
    check_script(path, &spec.traffic)?;
    Ok(spec)
}

/// Load a scenario bundle from a JSON file (see `examples/*.json`).
pub fn load_scenario(path: &str) -> Result<ScenarioSpec, ScenarioError> {
    parse_bundle(path, &read(path)?)
}

/// Load either a full [`ScenarioSpec`] bundle or a bare [`TrafficScript`]
/// from JSON (the `--traffic` flag accepts both): a document with a
/// top-level `"traffic"` key is a bundle, anything else is read as a
/// script, and an error is that type's error. A bare script is wrapped in
/// a scenario named after the file, at the scale's default topology and
/// population, under `seed`. A full bundle keeps its own seed — it *is*
/// the reproducible unit.
pub fn load_script_or_scenario(
    path: &str,
    scale: Scale,
    seed: u64,
) -> Result<ScenarioSpec, ScenarioError> {
    let text = read(path)?;
    let parse_error = |error| ScenarioError::Parse { path: path.to_string(), error };
    let doc = json::parse(&text).map_err(parse_error)?;
    if doc.get("traffic").is_some() {
        return parse_bundle(path, &text);
    }
    let script: TrafficScript = json::from_str(&text).map_err(parse_error)?;
    check_script(path, &script)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("scripted")
        .to_string();
    Ok(ScenarioSpec::new(name, scale.topology().label(), scale.default_n(), seed, script))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64) -> ScenarioSpec {
        // A compressed day over the tiny topology: 24 "hours" of 25 s each,
        // sampled by Quick-scale 5-minute windows (2 windows total).
        let script = TrafficScript::preset_diurnal_regional(25_000, 600_000, 12, 0.8, 12.0);
        ScenarioSpec::new("tiny-diurnal", "tiny", 24, seed, script)
    }

    #[test]
    fn scripted_run_applies_traffic_and_stays_connected() {
        let r = run_scenario(&tiny_spec(7), TrafficDriver::PropO, Scale::Quick);
        assert!(r.always_connected, "overlay disconnected under scripted churn");
        assert!(r.emitted.total() > 0, "plane emitted nothing");
        assert!(r.report.total_applied() > 0, "nothing applied");
        assert!(r.report.phases.iter().map(|p| p.lookups).sum::<u64>() > 0);
        assert!(r.final_link_stretch.is_finite() && r.final_link_stretch > 0.0);
        assert!(!r.series.is_empty(), "no stretch samples");
    }

    #[test]
    fn same_seed_replays_identically() {
        let a = run_scenario(&tiny_spec(9), TrafficDriver::PropG, Scale::Quick);
        let b = run_scenario(&tiny_spec(9), TrafficDriver::PropG, Scale::Quick);
        assert_eq!(
            json::to_string(&a),
            json::to_string(&b),
            "same (scenario, seed) must replay byte-for-byte"
        );
    }

    #[test]
    fn async_rows_count_messages_not_exchanges() {
        // A trial sends at least its walk, so messages bound trials from above.
        let r = run_scenario(&tiny_spec(7), TrafficDriver::Async, Scale::Quick);
        assert!(r.report.phases.iter().any(|p| p.trials > 0), "no trials ran");
        for p in &r.report.phases {
            assert!(p.msgs >= p.trials, "{}: {} msgs over {} trials", p.phase, p.msgs, p.trials);
        }
    }

    #[test]
    fn selfish_driver_consumes_the_same_plane() {
        let r = run_scenario(&tiny_spec(11), TrafficDriver::Selfish, Scale::Quick);
        assert_eq!(r.driver, "selfish");
        assert!(r.always_connected);
        assert!(r.report.total_applied() > 0);
    }

    #[test]
    fn builtin_scenarios_build_at_quick_scale() {
        let d = builtin_scenario("diurnal-regional", Scale::Quick, 1, None, None).unwrap();
        assert_eq!(d.topology, "ts-small");
        assert_eq!(d.traffic.domains.len(), 4);
        assert_eq!(d.traffic.buckets(), 24, "a full compressed day");
        let f = builtin_scenario("flash-crowd", Scale::Quick, 1, Some(Topology::Tiny), Some(24))
            .unwrap();
        assert_eq!(f.n, 24);
        assert_eq!(f.traffic.flash_crowds.len(), 2);
        for name in BUILTIN_SCENARIOS {
            assert!(builtin_scenario(name, Scale::Quick, 1, None, None).is_ok(), "{name}");
        }
        let e = builtin_scenario("bogus", Scale::Quick, 1, None, None).unwrap_err();
        assert!(matches!(&e, ScenarioError::UnknownBuiltin(name) if name == "bogus"), "{e}");
    }

    const BUNDLE: &str = r#"{
  "name": "x",
  "topology": "tiny",
  "n": 24,
  "seed": 1,
  "traffic": {
    "hour_ms": 60000,
    "horizon_ms": 120000,
    "catalog": 10,
    "domains": [
      {"domain": 0, "joins_per_min": 1.0, "leaves_per_min": 1.0, "lookups_per_min": 4.0}
    ],
    "flash_crowds": []
  },
  "faults": {"events": [{"Loss": {"at_ms": 0, "prob": 0.1}}]}
}"#;

    /// Write `text` under a scratch name and load it the way `--traffic` does.
    fn load_text(name: &str, text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let dir = std::env::temp_dir().join(format!("prop-scenario-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).unwrap();
        load_script_or_scenario(path.to_str().unwrap(), Scale::Quick, 9)
    }

    /// 1-based line and column of the last occurrence of `needle`.
    fn position_of(text: &str, needle: &str) -> (usize, usize) {
        let before = &text[..text.rfind(needle).unwrap_or_else(|| panic!("no {needle:?}"))];
        let line_start = before.rfind('\n').map_or(0, |p| p + 1);
        (1 + before.matches('\n').count(), 1 + before[line_start..].chars().count())
    }

    #[test]
    fn the_reference_bundle_loads() {
        let spec = load_text("ok", BUNDLE).expect("valid bundle");
        assert_eq!((spec.n, spec.seed, spec.faults.events.len()), (24, 1, 1));
        // A bare script is wrapped at the scale's defaults, under the CLI seed.
        let script = json::to_string(&spec.traffic);
        let wrapped = load_text("bare", &script).expect("valid bare script");
        assert_eq!((wrapped.name.as_str(), wrapped.seed), ("bare", 9));
        assert_eq!((wrapped.topology.as_str(), wrapped.n), ("ts-small", 120));
        assert_eq!(wrapped.traffic, spec.traffic);
    }

    #[test]
    fn malformed_scenarios_are_errors_with_a_position_never_panics() {
        let edit = |from: &str, to: &str| {
            assert!(BUNDLE.contains(from), "the reference bundle has no {from:?}");
            BUNDLE.replacen(from, to, 1)
        };
        let cut = BUNDLE.find("\"faults\"").unwrap() + 3;
        // (case, the file, the token the error points at, the path inside
        //  the document, what the message says)
        let cases = [
            ("truncated", BUNDLE[..cut].to_string(), "\"fa", "", "unterminated string"),
            ("trailing-comma", edit("[]\n  }", "[],\n  }"), "},", "", "trailing comma"),
            (
                "wrong-type",
                edit("60000", "\"60000\""),
                "\"60000\"",
                "traffic.hour_ms",
                "found a string",
            ),
            (
                "unknown-variant",
                edit("\"Loss\"", "\"Los\""),
                "\"Los\"",
                "faults.events[0].Los",
                "unknown variant `Los` of FaultEvent",
            ),
            (
                "unknown-key",
                edit("\"flash_crowds\"", "\"flash_crowdz\""),
                "\"flash_crowdz\"",
                "traffic.flash_crowdz",
                "unknown key `flash_crowdz` in TrafficScript",
            ),
            (
                "missing-field",
                edit("  \"seed\": 1,\n", ""),
                "{\n  \"name\"",
                "",
                "missing field `seed` in Scenario",
            ),
            (
                "duplicate-key",
                edit("\"n\": 24,", "\"n\": 24, \"n\": 25,"),
                "\"n\": 25",
                "",
                "duplicate key `n`",
            ),
            ("out-of-range", edit("4.0}", "1e999}"), "1e999", "", "out of range"),
            (
                "trailing-garbage",
                edit("0.1}}]}\n}", "0.1}}]}\n} ]"),
                "]",
                "",
                "trailing characters",
            ),
        ];
        for (name, text, token, doc_path, needle) in cases {
            match load_text(name, &text) {
                Err(ScenarioError::Parse { path, error }) => {
                    assert!(path.ends_with(&format!("{name}.json")), "{name}: {path}");
                    assert_eq!(
                        (error.line, error.col),
                        position_of(&text, token),
                        "{name}: {error}"
                    );
                    assert_eq!(error.path(), doc_path, "{name}: {error}");
                    assert!(error.what.contains(needle), "{name}: {error}");
                }
                other => panic!("{name}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_bundle_with_one_bad_field_is_reported_as_a_bundle() {
        // The old loader tried Scenario, swallowed its error, and reported
        // the TrafficScript error for the whole document.
        let text = BUNDLE.replacen("\"catalog\": 10", "\"catalog\": -10", 1);
        let message = load_text("bundle-bad-field", &text).unwrap_err().to_string();
        let (line, col) = position_of(&text, "-10");
        assert!(
            message.contains(&format!("bundle-bad-field.json:{line}:{col}: traffic.catalog:")),
            "{message}"
        );
        // And a bare script's error is the script's.
        let script = r#"{"hour_ms": 1000, "horizon_ms": 5000, "catalog": 5, "domains": {}}"#;
        let message = load_text("script-bad-field", script).unwrap_err().to_string();
        assert!(
            message.contains("script-bad-field.json:1:64: domains: expected an array"),
            "{message}"
        );
    }

    #[test]
    fn unreadable_and_unrunnable_files_are_errors_too() {
        assert!(matches!(
            load_script_or_scenario("/nonexistent/scenario.json", Scale::Quick, 1),
            Err(ScenarioError::Read { .. })
        ));
        for (name, from, to, needle) in [
            ("zero-hour", "60000", "0", "traffic.hour_ms must be positive"),
            (
                "zero-catalog",
                "\"catalog\": 10",
                "\"catalog\": 0",
                "traffic.catalog must be positive",
            ),
            ("bad-topology", "\"tiny\"", "\"huge\"", "unknown topology \"huge\""),
        ] {
            match load_text(name, &BUNDLE.replacen(from, to, 1)) {
                Err(e @ ScenarioError::Invalid { .. }) => {
                    assert!(e.to_string().contains(needle), "{name}: {e}")
                }
                other => panic!("{name}: expected an invalid-value error, got {other:?}"),
            }
        }
    }

    #[test]
    fn driver_labels_round_trip() {
        for d in [
            TrafficDriver::PropG,
            TrafficDriver::PropO,
            TrafficDriver::Async,
            TrafficDriver::Selfish,
        ] {
            assert_eq!(TrafficDriver::parse(d.label()), Some(d));
        }
        assert_eq!(TrafficDriver::parse("sync"), Some(TrafficDriver::PropG));
        assert_eq!(TrafficDriver::parse("nope"), None);
        assert_eq!(
            TrafficDriver::parse_set("both"),
            Some(vec![TrafficDriver::PropO, TrafficDriver::Async])
        );
        assert_eq!(TrafficDriver::parse_set("compare"), Some(TrafficDriver::COMPARE.to_vec()));
        assert_eq!(TrafficDriver::parse_set("async"), Some(vec![TrafficDriver::Async]));
        assert_eq!(TrafficDriver::parse_set("nope"), None);
    }
}
