//! Scripted-traffic experiments: replaying a production traffic plane
//! against the PROP drivers.
//!
//! A [`prop_faults::Scenario`] bundles topology + population +
//! [`TrafficScript`] + `FaultScript` under one seed. This module compiles
//! the script into a [`prop_workloads::CompiledTraffic`] plane and pumps it
//! through any [`ChurnDriver`] — the synchronous [`ProtocolSim`] (PROP-G or
//! PROP-O), the asynchronous [`AsyncProtocolSim`], or the selfish baseline
//! — running the driver to each scripted join, leave or lookup and then
//! applying it — a join or leave through [`ChurnReplay`], the library's
//! one churn applier, with peers drawn from the event's region first.
//!
//! Everything is deterministic: the plane is a pure function of
//! `(script, seed)`, the apply-side RNG is a labelled fork of the scenario
//! seed, and measurement is a function of the pair list alone — so the
//! same scenario file replays byte-for-byte (`tests/traffic_replay.rs`
//! pins this).

use crate::cli::MIN_MEMBERS;
use crate::setup::{Scale, Scenario, Topology};
use prop_baselines::{Rewiring, RewiringSim};
use prop_core::sim::Timing;
use prop_core::{
    AsyncProtocolSim, ChurnDriver, PropConfig, PropSim, ProtocolSim, TrafficCounters, TrafficEvent,
    TrafficPlane,
};
use prop_engine::{json, json_impl, Duration, SimTime};
use prop_faults::{transit_bisection, Scenario as ScenarioSpec};
use prop_metrics::{link_stretch, path_stretch, StretchSummary, TimeSeries, TrafficReport};
use prop_overlay::gnutella::Gnutella;
use prop_overlay::Slot;
use prop_workloads::churn::ChurnReplay;
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
            "prop-g" => Some(TrafficDriver::PropG),
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
    /// The `--min-delivery` / `--max-stretch` gates this run violates. A
    /// gate on a value the run never measured (no lookup measured, or none
    /// delivered) fails too. The selfish strawman is reported, never gated.
    pub fn gate_failures(
        &self,
        min_delivery: Option<f64>,
        max_stretch: Option<f64>,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        if self.driver == TrafficDriver::Selfish.label() {
            return failures;
        }
        let driver = &self.driver;
        if let Some(min) = min_delivery {
            match self.report.delivery_rate() {
                None => failures.push(format!(
                    "{driver}: no lookups measured, delivery gate {min:.4} cannot pass"
                )),
                Some(delivery) if delivery < min => {
                    failures.push(format!("{driver}: delivery {delivery:.4} below gate {min:.4}"))
                }
                Some(_) => {}
            }
        }
        if let Some(max) = max_stretch {
            match self.report.overall_stretch() {
                None => failures.push(format!(
                    "{driver}: no lookups delivered, stretch gate {max:.4} cannot pass"
                )),
                Some(stretch) if stretch > max => {
                    failures.push(format!("{driver}: stretch {stretch:.4} above gate {max:.4}"))
                }
                Some(_) => {}
            }
        }
        failures
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
            let mut sim = RewiringSim::new(net, Rewiring::Selfish, &mut rng);
            drive(&mut sim, &gn, spec, &scenario, &mut plane, scale, |s| (s.rewires(), 0))
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

/// The S4 panel, as one seed of a sweep runs it: the headline comparison
/// on the first builtin scenario, the one `prop traffic` runs by default.
pub fn default_comparison(scale: Scale, seed: u64) -> Vec<TrafficRunReport> {
    let spec = builtin_scenario(BUILTIN_SCENARIOS[0], scale, seed).expect("a builtin scenario");
    run_comparison(&spec, scale)
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
/// sample window at a time, churn homed in the event's region and never
/// below 8 live peers; measure the window's scripted lookups with the
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
    let mut churn = ChurnReplay::default();
    let mut window_pairs: Vec<(Slot, Slot)> = Vec::new();
    let mut always_connected = true;
    let (mut last_trials, mut last_msgs) = progress(sim);

    let horizon = Duration::from_millis(spec.traffic.horizon_ms);
    let step = scale.sample_every();
    while sim.now() < SimTime::ZERO + horizon {
        let window_phase = spec.traffic.phase_of_ms(sim.now().as_millis());
        let deadline = sim.now() + step;
        while let Some((et, ev)) = plane.next_event(deadline) {
            sim.run_until(et);
            let phase = spec.traffic.phase_of_ms(et.as_millis());
            let domain = region_domain(ev.domain(), num_domains);
            let home = Some((&member_domain[..], domain));
            match ev {
                TrafficEvent::Leave { .. } => match churn.leave(sim, gn, &mut churn_rng, 8, home) {
                    Some(peer) => {
                        report.record_leave(phase, member_domain[peer]);
                        always_connected &= sim.net().graph().is_connected();
                    }
                    None => report.record_suppressed(phase),
                },
                TrafficEvent::Join { .. } => match churn.join(sim, gn, &mut churn_rng, home) {
                    Some(peer) => {
                        report.record_join(phase, member_domain[peer]);
                        always_connected &= sim.net().graph().is_connected();
                    }
                    None => report.record_suppressed(phase),
                },
                TrafficEvent::Lookup { rank, .. } => {
                    let dst = ranking[rank as usize % ranking.len()];
                    if !sim.net().graph().is_alive(dst) {
                        report.record_suppressed(phase);
                        continue;
                    }
                    // A source homed in the region; anyone else when none is.
                    let (net, g) = (sim.net(), sim.net().graph());
                    let homed = |s: Slot| s != dst && member_domain[net.peer(s)] == domain;
                    let src = g.pick_live_where(&mut churn_rng, homed);
                    let Some(src) = src.or_else(|| g.pick_live(&mut churn_rng, Some(dst))) else {
                        report.record_suppressed(phase);
                        continue;
                    };
                    window_pairs.push((src, dst));
                    report.record_lookup(phase, domain);
                }
            }
        }
        sim.run_until(deadline);

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
            series.push(sim.now(), summary.mean);
        }
    }

    let final_link_stretch = link_stretch(sim.net());
    (series, report, always_connected, final_link_stretch)
}

/// The transit domain scripted region `region` plays on, of a topology's
/// `count`: the region itself when the topology has it, `region % count`
/// when not. A loaded file names only domains its topology has
/// ([`load_scenario`] refuses the rest), so the fold only merges the
/// built-in presets' four regions on a topology with fewer
/// ([`builtin_scenario`]).
fn region_domain(region: u16, count: u16) -> u16 {
    region % count
}

/// The scripted regions that share a transit domain of the scenario's
/// topology under `region_domain`, as `prop traffic`'s header names
/// them: `regions 0,2 → domain 0; 1,3 → domain 1` for a builtin preset at
/// `--quick`. `None` when every region plays on a domain of its own.
pub fn merged_regions(spec: &ScenarioSpec) -> Option<String> {
    let count = topology_from_label(&spec.topology).params().transit_domains as u16;
    let mut regions = std::collections::BTreeMap::<u16, Vec<u16>>::new();
    for profile in &spec.traffic.domains {
        regions.entry(region_domain(profile.domain, count)).or_default().push(profile.domain);
    }
    let merged: Vec<String> = regions
        .iter()
        .filter(|(_, rs)| rs.len() > 1)
        .map(|(d, rs)| {
            let rs: Vec<String> = rs.iter().map(u16::to_string).collect();
            format!("{} → domain {d}", rs.join(","))
        })
        .collect();
    (!merged.is_empty()).then(|| format!("regions {}", merged.join("; ")))
}

/// The scenarios [`builtin_scenario`] regenerates.
pub const BUILTIN_SCENARIOS: [&str; 2] = ["diurnal-regional", "flash-crowd"];

/// Built-in scenarios for `prop traffic`, the sweep orchestrator, and CI:
/// the two committed example scripts, regenerated at any scale. Both
/// script four regions, 0–3. At paper scale (ts-large, ten transit
/// domains) each is its own domain; at `--quick` (ts-small, two) they
/// fold onto domain `region % 2`: regions 0 and 2 share domain 0 and
/// regions 1 and 3 domain 1, so the diurnal preset's regions offset by
/// 0 h and 12 h run in one domain, as do those offset by 6 h and 18 h.
pub fn builtin_scenario(
    name: &str,
    scale: Scale,
    seed: u64,
) -> Result<ScenarioSpec, ScenarioError> {
    let topo = scale.topology();
    let n = scale.default_n();
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
    /// The file parses, but names what its topology does not have, or runs
    /// longer than [`MAX_WINDOWS`] sample windows of its scale (see
    /// [`load_scenario`]); `error` says where, as for a parse error.
    Invalid { path: String, error: json::Error },
    /// Not a file, and not one of [`BUILTIN_SCENARIOS`] either.
    UnknownBuiltin(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Read { path, source } => write!(f, "cannot read {path}: {source}"),
            ScenarioError::Parse { path, error } | ScenarioError::Invalid { path, error } => {
                write!(f, "{path}:{error}")
            }
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

/// The one check a scenario needs its topology for: a label this layer
/// knows, a membership it can build (a Gnutella overlay's seed clique, and
/// no more members than the topology has stub hosts to put them on), and a
/// transit domain of it for every region. Every other rule is checked
/// where the file is parsed, by the types' `FromJson`.
fn check_topology(spec: &ScenarioSpec) -> Result<(), json::Error> {
    let Some(topology) = Topology::from_label(&spec.topology) else {
        let what =
            format!("unknown topology {:?} (known: ts-large, ts-small, tiny)", spec.topology);
        return Err(json::Error::new(what).in_key("topology"));
    };
    let hosts = topology.params().stub_hosts();
    if spec.n < MIN_MEMBERS {
        let what = format!("must be at least {MIN_MEMBERS}, got {}", spec.n);
        return Err(json::Error::new(what).in_key("n"));
    }
    if spec.n > hosts {
        let what =
            format!("must be at most the {hosts} stub hosts of {}, got {}", spec.topology, spec.n);
        return Err(json::Error::new(what).in_key("n"));
    }
    check_regions(&spec.traffic, topology).map_err(|e| e.in_key("traffic"))
}

/// The most sample windows a loaded scenario's horizon may span at the
/// scale it runs at. The pump walks the horizon one window at a time and
/// measures each, idle or not, so a script's own budget (hour buckets and
/// events) does not bound the run: a million idle hours would be twelve
/// million windows at `--quick`. The committed examples run 12 windows at
/// paper scale and 24 at `--quick`.
pub const MAX_WINDOWS: u64 = 1_000;

/// The check a scenario needs its run's scale for: a `horizon_ms` of at
/// most [`MAX_WINDOWS`] of the scale's sample windows.
fn check_horizon(script: &TrafficScript, scale: Scale) -> Result<(), json::Error> {
    let width = scale.sample_every().as_millis();
    let windows = script.horizon_ms.div_ceil(width);
    if windows <= MAX_WINDOWS {
        return Ok(());
    }
    let what =
        format!("{windows} sample windows of {width} ms; a run may have at most {MAX_WINDOWS}");
    Err(json::Error::new(what).in_key("horizon_ms"))
}

/// Every profile of `script` is a region `topology` has.
fn check_regions(script: &TrafficScript, topology: Topology) -> Result<(), json::Error> {
    let count = topology.params().transit_domains;
    script.domains.iter().enumerate().try_for_each(|(i, profile)| {
        if usize::from(profile.domain) < count {
            return Ok(());
        }
        let what = format!(
            "must name one of the {count} transit domains of {}, got {}",
            topology.label(),
            profile.domain
        );
        Err(json::Error::new(what).in_key("domain").in_index(i).in_key("domains"))
    })
}

/// `check` on what `text` parsed to, an error placed in `text`.
fn checked(
    path: &str,
    text: &str,
    check: impl FnOnce() -> Result<(), json::Error>,
) -> Result<(), ScenarioError> {
    check().map_err(|e| ScenarioError::Invalid {
        path: path.to_string(),
        error: json::position_in(text, e),
    })
}

fn parse_bundle(path: &str, text: &str, scale: Scale) -> Result<ScenarioSpec, ScenarioError> {
    let spec: ScenarioSpec = json::from_str(text)
        .map_err(|error| ScenarioError::Parse { path: path.to_string(), error })?;
    checked(path, text, || {
        check_topology(&spec)?;
        check_horizon(&spec.traffic, scale).map_err(|e| e.in_key("traffic"))
    })?;
    Ok(spec)
}

/// Load a scenario bundle from a JSON file (see `examples/*.json`) to run
/// at `scale`. The parse refuses every value out of its range
/// ([`ScenarioError::Parse`]); then the bundle is held to its topology
/// and its run ([`ScenarioError::Invalid`]): a known label, `n` from 5 up
/// to its stub hosts, each `traffic.domains[i].domain` one of its transit
/// domains, and a horizon of at most [`MAX_WINDOWS`] sample windows of
/// `scale`.
pub fn load_scenario(path: &str, scale: Scale) -> Result<ScenarioSpec, ScenarioError> {
    parse_bundle(path, &read(path)?, scale)
}

/// Load either a full [`ScenarioSpec`] bundle or a bare [`TrafficScript`]
/// from JSON (the `--traffic` flag accepts both): a document with a
/// top-level `"traffic"` key is a bundle, anything else is read as a
/// script, and an error is that type's error. A bare script is wrapped in
/// a scenario named after the file, at the scale's default topology and
/// population, under `seed`, and its regions are held to that topology.
/// A full bundle keeps its own seed — it *is* the reproducible unit. Both
/// are held to [`MAX_WINDOWS`] sample windows of `scale`.
pub fn load_script_or_scenario(
    path: &str,
    scale: Scale,
    seed: u64,
) -> Result<ScenarioSpec, ScenarioError> {
    let text = read(path)?;
    let parse_error = |error| ScenarioError::Parse { path: path.to_string(), error };
    let doc = json::parse(&text).map_err(parse_error)?;
    if doc.get("traffic").is_some() {
        return parse_bundle(path, &text, scale);
    }
    let script: TrafficScript = json::from_str(&text).map_err(parse_error)?;
    checked(path, &text, || {
        check_regions(&script, scale.topology())?;
        check_horizon(&script, scale)
    })?;
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
    use prop_engine::SimRng;

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
    fn a_phase_no_window_fell_in_reads_as_absent() {
        // Two sample windows over a compressed day start in the night and
        // the afternoon; morning and evening get lookups and no window.
        let r = run_scenario(&tiny_spec(7), TrafficDriver::PropG, Scale::Quick);
        for (row, measured) in r.report.phases.iter().zip([true, false, true, false]) {
            assert_eq!(row.windows > 0, measured, "{}", row.phase);
            assert_eq!(row.stretch.is_some(), measured, "{}", row.phase);
            assert_eq!(row.delivery_rate().is_some(), measured, "{}", row.phase);
        }
        assert!(r.report.phases[1].lookups > 0, "the morning's lookups fall in the night's window");
        let text = r.report.to_string();
        assert!(text.contains("morning    stretch n/a  delivery n/a"), "{text}");
        assert!(text.contains("evening    stretch n/a  delivery n/a"), "{text}");
        let json = json::to_string(&r);
        assert!(json.contains(r#"{"phase":"evening","windows":0,"stretch":null,"#), "{json}");
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
    fn a_gate_on_a_run_without_lookups_fails() {
        // A run that measured no lookup has no value to hold to a gate, so
        // even the loosest gate fails on it.
        let mut run = run_scenario(&tiny_spec(7), TrafficDriver::PropG, Scale::Quick);
        assert!(run.gate_failures(Some(0.0), Some(1e9)).is_empty());
        run.report = TrafficReport::new(&["night"], 1);
        assert!(run.gate_failures(None, None).is_empty());
        assert_eq!(
            run.gate_failures(Some(0.0), Some(1e9)),
            [
                "prop-g: no lookups measured, delivery gate 0.0000 cannot pass",
                "prop-g: no lookups delivered, stretch gate 1000000000.0000 cannot pass",
            ]
        );
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
        let d = builtin_scenario("diurnal-regional", Scale::Quick, 1).unwrap();
        assert_eq!(d.topology, "ts-small");
        assert_eq!(d.traffic.domains.len(), 4);
        assert_eq!(d.traffic.buckets(), 24, "a full compressed day");
        let f = builtin_scenario("flash-crowd", Scale::Quick, 1).unwrap();
        assert_eq!(f.n, Scale::Quick.default_n());
        assert_eq!(f.traffic.flash_crowds.len(), 2);
        for name in BUILTIN_SCENARIOS {
            assert!(builtin_scenario(name, Scale::Quick, 1).is_ok(), "{name}");
        }
        let e = builtin_scenario("bogus", Scale::Quick, 1).unwrap_err();
        assert!(matches!(&e, ScenarioError::UnknownBuiltin(name) if name == "bogus"), "{e}");
    }

    /// Mutants made of each committed document.
    const MUTANTS: usize = 40;

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

    /// Write `text` under a scratch name, load it the way `--traffic` does,
    /// and remove it.
    fn load_text(name: &str, text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let dir = std::env::temp_dir().join(format!("prop-scenario-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).unwrap();
        let loaded = load_script_or_scenario(path.to_str().unwrap(), Scale::Quick, 9);
        std::fs::remove_file(&path).unwrap();
        loaded
    }

    /// 1-based line and column of the last occurrence of `token`, at its
    /// `|` if it has one (`"n": |4` is the `4`).
    fn position_of(text: &str, token: &str) -> (usize, usize) {
        let (pre, post) = token.split_once('|').unwrap_or(("", token));
        let at = text.rfind(&format!("{pre}{post}")).unwrap_or_else(|| panic!("no {token:?}"));
        let before = &text[..at + pre.len()];
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

    /// The reference bundle with the first `from` replaced by `to`.
    fn edit(from: &str, to: &str) -> String {
        assert!(BUNDLE.contains(from), "the reference bundle has no {from:?}");
        BUNDLE.replacen(from, to, 1)
    }

    /// Each case is (case, the file, the token the error points at, the
    /// path inside the document, what the message says). Each must load
    /// as a parse error, or a topology error where the path is one the
    /// topology's check owns, at that position and path.
    fn assert_positioned_errors(cases: Vec<(&str, String, &str, &str, &str)>) {
        for (name, text, token, doc_path, needle) in cases {
            let outcome = load_text(name, &text);
            let (Err(ScenarioError::Parse { path, error })
            | Err(ScenarioError::Invalid { path, error })) = &outcome
            else {
                panic!("{name}: expected a parse or topology error, got {outcome:?}");
            };
            let topology_check = matches!(outcome, Err(ScenarioError::Invalid { .. }));
            assert_eq!(
                topology_check,
                ["topology", "n"].contains(&doc_path) || doc_path.ends_with("].domain"),
                "{name}: {error}"
            );
            assert!(path.ends_with(&format!("{name}.json")), "{name}: {path}");
            assert_eq!((error.line, error.col), position_of(&text, token), "{name}: {error}");
            assert_eq!(error.path(), doc_path, "{name}: {error}");
            assert!(error.what.contains(needle), "{name}: {error}");
            let shown = outcome.as_ref().unwrap_err().to_string();
            let at = if doc_path.is_empty() { String::new() } else { format!(" {doc_path}:") };
            let (line, col, what) = (error.line, error.col, &error.what);
            assert!(shown.ends_with(&format!("{name}.json:{line}:{col}:{at} {what}")), "{shown}");
        }
    }

    #[test]
    fn malformed_scenarios_are_errors_with_a_position_never_panics() {
        let cut = BUNDLE.find("\"faults\"").unwrap() + 3;
        // Syntax and type errors.
        assert_positioned_errors(vec![
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
        ]);
    }

    #[test]
    fn unreadable_and_unrunnable_files_are_errors_too() {
        assert!(matches!(
            load_script_or_scenario("/nonexistent/scenario.json", Scale::Quick, 1),
            Err(ScenarioError::Read { .. })
        ));
        let crowd = |multiplier: &str, hot_keys: &str| {
            edit(
                "\"flash_crowds\": []",
                &format!(
                    "\"flash_crowds\": [{{\"at_ms\": 0, \"duration_ms\": 1000, \
                     \"multiplier\": {multiplier}, \"hot_keys\": {hot_keys}}}]"
                ),
            )
        };
        // Each range rule, then the topology's check.
        assert_positioned_errors(vec![
            (
                "zero-hour",
                edit("60000", "0"),
                "\"hour_ms\": |0",
                "traffic.hour_ms",
                "must be ≥ 1, got 0",
            ),
            (
                "zero-horizon",
                edit("120000", "0"),
                "\"horizon_ms\": |0",
                "traffic.horizon_ms",
                "must be ≥ 1, got 0",
            ),
            (
                "zero-catalog",
                edit("\"catalog\": 10", "\"catalog\": 0"),
                "\"catalog\": |0",
                "traffic.catalog",
                "must be in [1, 1000000], got 0",
            ),
            (
                "negative-joins",
                edit("\"joins_per_min\": 1.0", "\"joins_per_min\": -1.0"),
                "-1.0",
                "traffic.domains[0].joins_per_min",
                "must be ≥ 0, got -1",
            ),
            (
                "negative-hourly",
                edit("4.0}", "4.0, \"hourly\": [1.0, -0.25]}"),
                "-0.25",
                "traffic.domains[0].hourly[1]",
                "must be ≥ 0, got -0.25",
            ),
            (
                "negative-multiplier",
                crowd("-3.0", "2"),
                "-3.0",
                "traffic.flash_crowds[0].multiplier",
                "must be ≥ 1, got -3",
            ),
            (
                "zero-hot-keys",
                crowd("2.0", "0"),
                "\"hot_keys\": |0",
                "traffic.flash_crowds[0].hot_keys",
                "must be ≥ 1, got 0",
            ),
            // Panicked in `Zipf::new` once.
            (
                "negative-alpha",
                edit(
                    "\"flash_crowds\": []",
                    "\"flash_crowds\": [], \"popularity\": [{\"at_ms\": 0, \"alpha\": 0.8}, \
                     {\"at_ms\": 9, \"alpha\": -0.5}]",
                ),
                "-0.5",
                "traffic.popularity[1].alpha",
                "must be ≥ 0, got -0.5",
            ),
            (
                "too-many-hour-buckets",
                edit("120000", "18446744073709551615"),
                "18446744073709551615",
                "traffic.horizon_ms",
                "307445734561826 hour buckets of 60000 ms; a script may have at most 1000000",
            ),
            (
                "too-many-events",
                edit("\"lookups_per_min\": 4.0", "\"lookups_per_min\": 1e300"),
                "\"horizon_ms\": |120000",
                "traffic.horizon_ms",
                "the script expects 2.000e300 events before its horizon",
            ),
            (
                "loss-above-one",
                edit("\"prob\": 0.1", "\"prob\": 1.5"),
                "1.5",
                "faults.events[0].Loss.prob",
                "must be in [0, 1], got 1.5",
            ),
            (
                "duplicate-negative",
                edit("[{\"Loss\"", "[{\"Duplicate\": {\"at_ms\": 0, \"prob\": -0.1}}, {\"Loss\""),
                "-0.1",
                "faults.events[0].Duplicate.prob",
                "must be in [0, 1], got -0.1",
            ),
            (
                "reorder-above-one",
                edit(
                    "0.1}}]",
                    "0.1}}, {\"Reorder\": {\"at_ms\": 5, \"prob\": 2.0, \"max_extra_ms\": 10}}]",
                ),
                "2.0",
                "faults.events[1].Reorder.prob",
                "must be in [0, 1], got 2",
            ),
            // Each extra delay once parsed, then overflowed a sum in the
            // driver or the plane.
            (
                "reorder-delay-past-an-hour",
                edit(
                    "0.1}}]",
                    "0.1}}, {\"Reorder\": {\"at_ms\": 5, \"prob\": 0.5, \
                     \"max_extra_ms\": 18446744073709551615}}]",
                ),
                "18446744073709551615",
                "faults.events[1].Reorder.max_extra_ms",
                "must be in [0, 3600000], got 18446744073709551615",
            ),
            (
                "spike-past-an-hour",
                edit(
                    "0.1}}]",
                    "0.1}}, {\"LatencySpike\": {\"at_ms\": 0, \"duration_ms\": 1000, \
                     \"extra_ms\": 3600001}}]",
                ),
                "3600001",
                "faults.events[1].LatencySpike.extra_ms",
                "must be in [0, 3600000], got 3600001",
            ),
            (
                "drift-past-an-hour",
                edit(
                    "0.1}}]",
                    "0.1}}, {\"LatencyDrift\": {\"at_ms\": 0, \"duration_ms\": 1000, \
                     \"peak_extra_ms\": 9223372036854775808}}]",
                ),
                "9223372036854775808",
                "faults.events[1].LatencyDrift.peak_extra_ms",
                "must be in [0, 3600000], got 9223372036854775808",
            ),
            (
                "crash-past-n",
                edit(
                    "0.1}}]",
                    "0.1}}, {\"Crash\": {\"at_ms\": 0, \"peer\": 24, \"restart_after_ms\": 1000}}]",
                ),
                "\"peer\": |24",
                "faults.events[1].Crash.peer",
                "must be below n = 24, got 24",
            ),
            // The topology's check. Each of the two membership cases
            // panicked in the run once: in `Gnutella::build` and in
            // `LatencyOracle::select_and_build`.
            (
                "bad-topology",
                edit("\"tiny\"", "\"huge\""),
                "\"huge\"",
                "topology",
                "unknown topology \"huge\"",
            ),
            (
                "four-members",
                edit("\"n\": 24,", "\"n\": 4,"),
                "\"n\": |4",
                "n",
                "must be at least 5, got 4",
            ),
            (
                "more-members-than-stub-hosts",
                edit("\"n\": 24,", "\"n\": 500,"),
                "\"n\": |500",
                "n",
                "must be at most the 40 stub hosts of tiny, got 500",
            ),
            (
                "region-past-the-topology",
                edit("{\"domain\": 0", "{\"domain\": 2"),
                "\"domain\": |2",
                "traffic.domains[0].domain",
                "must name one of the 2 transit domains of tiny, got 2",
            ),
        ]);
    }

    #[test]
    fn a_horizon_past_the_window_bound_is_refused_at_load() {
        // At `--quick` a sample window is five minutes: a horizon of 1,000
        // loads, one a millisecond longer is refused where it is written,
        // in a bundle and in a bare script alike. Nothing here is run.
        let past = |name: &str, text: &str, doc_path: &str| {
            let Err(ScenarioError::Invalid { error, .. }) = load_text(name, text) else {
                panic!("{name}: expected a refusal at load");
            };
            assert_eq!((error.line, error.col), position_of(text, "300000001"), "{error}");
            assert_eq!(error.path(), doc_path, "{error}");
            assert_eq!(error.what, "1001 sample windows of 300000 ms; a run may have at most 1000");
        };
        assert!(load_text("window-bound", &edit("120000", "300000000")).is_ok());
        past("window-past", &edit("120000", "300000001"), "traffic.horizon_ms");
        let mut script = load_text("ok", BUNDLE).expect("valid bundle").traffic;
        script.horizon_ms = 300_000_001;
        past("bare-window-past", &json::to_string(&script), "horizon_ms");
    }

    #[test]
    fn a_bare_script_is_held_to_the_scales_topology() {
        // `--quick` wraps a bare script on ts-small, two transit domains.
        let script = r#"{"hour_ms": 1000, "horizon_ms": 5000, "catalog": 5, "domains": [
  {"domain": 1, "joins_per_min": 1, "leaves_per_min": 1, "lookups_per_min": 1},
  {"domain": 2, "joins_per_min": 1, "leaves_per_min": 1, "lookups_per_min": 1}]}"#;
        let message = load_text("bare-region", script).unwrap_err().to_string();
        assert!(
            message.ends_with(
                "bare-region.json:3:14: domains[1].domain: \
                 must name one of the 2 transit domains of ts-small, got 2"
            ),
            "{message}"
        );
        assert!(load_text("bare-regions", &script.replacen("\"domain\": 2", "\"domain\": 0", 1))
            .is_ok());
    }

    #[test]
    fn the_quick_header_names_the_regions_that_share_a_domain() {
        for name in BUILTIN_SCENARIOS {
            let quick = builtin_scenario(name, Scale::Quick, 1).unwrap();
            let merged = merged_regions(&quick);
            assert_eq!(merged.as_deref(), Some("regions 0,2 → domain 0; 1,3 → domain 1"), "{name}");
            let paper = builtin_scenario(name, Scale::Paper, 1).unwrap();
            assert_eq!(merged_regions(&paper), None, "{name}: ten domains, one region each");
        }
        let mut three = tiny_spec(1);
        three.traffic.domains.truncate(3);
        assert_eq!(merged_regions(&three).as_deref(), Some("regions 0,2 → domain 0"));
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

    /// One step of a path into a document.
    #[derive(Clone, Debug)]
    enum Step {
        Key(String),
        Index(usize),
    }

    /// Every member and element below `v` by its path from the root, and
    /// whether it is a number.
    fn member_paths(v: &json::Value, at: &mut Vec<Step>, out: &mut Vec<(Vec<Step>, bool)>) {
        let children: Vec<(Step, &json::Value)> = match v {
            json::Value::Object(members) => {
                members.iter().map(|(k, m)| (Step::Key(k.clone()), m)).collect()
            }
            json::Value::Array(items) => {
                items.iter().enumerate().map(|(i, m)| (Step::Index(i), m)).collect()
            }
            _ => return,
        };
        for (step, child) in children {
            at.push(step);
            let number =
                matches!(child, json::Value::U64(_) | json::Value::I64(_) | json::Value::F64(_));
            out.push((at.clone(), number));
            member_paths(child, at, out);
            at.pop();
        }
    }

    /// `path` as a decoding error names it: `traffic.domains[2].hourly`.
    fn dotted(path: &[Step]) -> String {
        let mut out = String::new();
        for step in path {
            match step {
                Step::Key(k) if out.is_empty() => out.push_str(k),
                Step::Key(k) => out.push_str(&format!(".{k}")),
                Step::Index(i) => out.push_str(&format!("[{i}]")),
            }
        }
        out
    }

    /// The object or array that holds the value at `path`.
    fn holder<'v>(v: &'v mut json::Value, path: &[Step]) -> &'v mut json::Value {
        path[..path.len() - 1].iter().fold(v, |v, step| match (v, step) {
            (json::Value::Object(members), Step::Key(k)) => {
                &mut members.iter_mut().find(|(key, _)| key == k).expect("a listed member").1
            }
            (json::Value::Array(items), Step::Index(i)) => &mut items[*i],
            _ => unreachable!("a listed path"),
        })
    }

    /// Mutate `text` once, `rng`'s pick of a field drop, a type swap, a
    /// numeric extreme or a truncation, at one of `paths`; the mutated
    /// path (`None` for a truncation) and the mutant.
    fn mutate(
        text: &str,
        paths: &[(Vec<Step>, bool)],
        rng: &mut SimRng,
    ) -> (Option<Vec<Step>>, String) {
        let mut doc = json::parse(text).expect("a committed document");
        let kind = rng.range(0..4u32);
        if kind == 3 {
            let mut cut = rng.range(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return (None, text[..cut].to_string());
        }
        // An extreme replaces a number; a drop or a swap takes any value.
        let pool: Vec<&(Vec<Step>, bool)> =
            paths.iter().filter(|(_, number)| kind != 2 || *number).collect();
        let path = rng.pick(&pool).unwrap().0.clone();
        let slot = holder(&mut doc, &path);
        let value = match (slot, path.last().unwrap()) {
            (json::Value::Object(members), Step::Key(k)) => {
                let i = members.iter().position(|(key, _)| key == k).unwrap();
                if kind == 0 {
                    members.remove(i);
                    None
                } else {
                    Some(&mut members[i].1)
                }
            }
            (json::Value::Array(items), Step::Index(i)) => {
                if kind == 0 {
                    items.remove(*i);
                    None
                } else {
                    Some(&mut items[*i])
                }
            }
            _ => unreachable!("a listed path"),
        };
        if let Some(value) = value {
            let extremes = [
                json::Value::U64(0),
                json::Value::I64(-1),
                json::Value::U64(u64::MAX),
                json::Value::F64(1e300),
            ];
            let kinds = [
                json::Value::Str("x".into()),
                json::Value::Bool(true),
                json::Value::Null,
                json::Value::Array(Vec::new()),
                json::Value::Object(Vec::new()),
                json::Value::U64(7),
            ];
            *value = if kind == 2 {
                rng.pick(&extremes).unwrap().clone()
            } else {
                let other: Vec<&json::Value> = kinds
                    .iter()
                    .filter(|k| std::mem::discriminant(*k) != std::mem::discriminant(&*value))
                    .collect();
                (*rng.pick(&other).unwrap()).clone()
            };
        }
        (Some(path), json::to_string_pretty(&doc))
    }

    #[test]
    fn mutated_scenarios_are_refused_by_path_or_run() {
        // The reference bundle's faults, with an event of each kind that
        // carries an extra delay.
        let faults = edit(
            "0.1}}]",
            "0.1}}, {\"Reorder\": {\"at_ms\": 5, \"prob\": 0.5, \"max_extra_ms\": 40}}, \
             {\"LatencySpike\": {\"at_ms\": 0, \"duration_ms\": 9000, \"extra_ms\": 30}}, \
             {\"LatencyDrift\": {\"at_ms\": 60000, \"duration_ms\": 9000, \"peak_extra_ms\": 80}}]",
        );
        let examples = [
            ("flash_crowd", include_str!("../../../examples/flash_crowd.json")),
            ("diurnal_regional", include_str!("../../../examples/diurnal_regional.json")),
            ("bundle_faults", faults.as_str()),
        ];
        let mut rng = SimRng::seed_from(0x6d75_7461);
        let (mut refused, mut ran) = (0, 0);
        for (file, text) in examples {
            let mut paths = Vec::new();
            member_paths(&json::parse(text).unwrap(), &mut Vec::new(), &mut paths);
            // The reference bundle lends its fault events; the examples
            // have none, and everything else of theirs.
            paths.retain(|(p, _)| {
                file != "bundle_faults" || matches!(&p[0], Step::Key(k) if k == "faults")
            });
            for case in 0..MUTANTS {
                let (path, mutant) = mutate(text, &paths, &mut rng);
                let at = path.as_deref().map_or("(truncated)".to_string(), dotted);
                eprintln!("{file} mutant {case} at {at}");
                match load_text(&format!("mutant-{file}-{case}"), &mutant) {
                    Ok(spec) => {
                        let spec = ScenarioSpec { topology: "tiny".into(), n: 24, ..spec };
                        let driver = [TrafficDriver::PropG, TrafficDriver::Async][case % 2];
                        let run = run_scenario(&spec, driver, Scale::Quick);
                        let compiled = prop_workloads::compile(&spec.traffic, spec.seed);
                        assert_eq!(run.emitted.total(), compiled.len() as u64, "{file} {case}");
                        ran += 1;
                    }
                    Err(
                        ScenarioError::Parse { error, .. } | ScenarioError::Invalid { error, .. },
                    ) => {
                        // A truncation is a syntax error, at no path; any
                        // other is about the mutated value or what holds
                        // it, or the horizon's budget, which reads them all.
                        let named = match &path {
                            None => error.path().is_empty(),
                            Some(path) => {
                                dotted(path).starts_with(&error.path())
                                    || error.path() == "traffic.horizon_ms"
                            }
                        };
                        assert!(error.line > 0 && named, "{at}: {error}");
                        refused += 1;
                    }
                    Err(other) => panic!("{file} mutant {case} at {at}: {other}"),
                }
            }
        }
        eprintln!("{refused} refused, {ran} ran");
        assert!(refused > 0 && ran > 0);
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
        assert_eq!(TrafficDriver::parse("sync"), None);
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
