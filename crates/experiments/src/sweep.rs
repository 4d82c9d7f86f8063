//! Seed-sharded Monte-Carlo sweep orchestrator.
//!
//! Every figure in the reproduction is bit-deterministic per seed, so the
//! statistically honest way to spend cores is *across* runs, never inside
//! one: the orchestrator fans N independent seeds of an experiment over
//! the machine's cores ([`prop_engine::par::map`]), one complete
//! deterministic run per seed, and reduces every headline metric to mean
//! ± 95% CI ([`MetricSummary`], Student t for small N).
//!
//! Mechanics:
//!
//! * **Seed derivation** — seed k of a sweep is drawn from
//!   `SimRng::seed_from(base_seed).fork_indexed("sweep-seed", k)`, the
//!   same derivation discipline the drivers use for per-trial streams:
//!   seeds are decorrelated but fully reproducible from `(base_seed, k)`.
//! * **Streaming records** — each finished seed writes
//!   `results/<sweep>/seed-<k>.json` (atomic tmp + rename) the moment it
//!   completes, so a killed sweep loses at most the in-flight seeds.
//! * **Resumable manifest** — `manifest.json` persists the config, a hash
//!   of it, and per-seed done/pending status with an FNV-64 digest of each
//!   record. `--resume` re-runs only the pending (or corrupted) seeds and
//!   refuses outright when the config hash changed: stale partial results
//!   can never leak into a differently-configured aggregate.
//! * **Aggregate** — `aggregate.json` carries a [`MetricSummary`] per
//!   headline metric and, for the curve experiments (fig5/fig6), a mean
//!   curve in the existing [`Curve`] shape with a [`CurveCi`] error-bar
//!   block. The aggregate is a pure fold over the per-seed records in
//!   index order — resuming an interrupted sweep reproduces it
//!   byte-for-byte.
//!
//! `prop <experiment> --seeds N [--resume] [--gate m=w]… [--root DIR]` fronts
//! this module for every registered experiment that has a sweep unit.

use crate::fig5::{Curve, CurveCi};
use crate::registry;
use crate::setup::{msgs_per_trial, Scale, Scenario, Topology};
use crate::{ablation, faults, fig5, fig6, fig7, traffic};
use prop_core::PropConfig;
use prop_engine::json::{self, FromJson, ToJson, Value};
use prop_engine::{json_impl, par, SimRng};
use prop_metrics::{MetricSummary, TimeSeries};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Which experiment a sweep fans out. Each variant maps to one
/// representative deterministic unit run per seed — the `unit` of its
/// [`registry`] entry. The variant names are the manifest's wire format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepExperiment {
    /// PROP-G on Gnutella — mean flooded-lookup latency curve.
    Fig5,
    /// PROP-G on Chord — path-stretch curve plus protocol overhead.
    Fig6,
    /// PROP-O vs PROP-G vs LTM under bimodal heterogeneity.
    Fig7,
    /// A1 per-adjustment overhead ablation.
    Ablation,
    /// Loss × partition robustness grid.
    Faults,
    /// Scripted diurnal-regional traffic: PROP-G vs PROP-O vs selfish,
    /// per-diurnal-phase stretch and overhead.
    Traffic,
}

json_impl!(ToJson, FromJson for enum SweepExperiment {
    Fig5, Fig6, Fig7, Ablation, Faults, Traffic
});

impl SweepExperiment {
    /// The registered experiment whose sweep unit this is.
    fn entry(self) -> (&'static str, registry::Unit) {
        registry::EXPERIMENTS
            .iter()
            .find_map(|e| Some((e.name, e.unit.filter(|u| u.experiment == self)?)))
            .expect("every sweep experiment is some registry entry's unit")
    }

    /// The experiment's registered name, as sweep directories spell it.
    pub fn label(self) -> &'static str {
        self.entry().0
    }
}

/// Everything that determines a sweep's results. The manifest stores this
/// config plus its hash; any field changing between a manifest and a
/// `--resume` invocation refuses the resume.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepConfig {
    pub experiment: SweepExperiment,
    pub scale: Scale,
    /// Root seed the per-seed streams are derived from.
    pub base_seed: u64,
    /// Number of independent seeds.
    pub seeds: usize,
    /// Override the scale's default topology (tests use [`Topology::Tiny`];
    /// honored by the fig5/fig6 units, which build their own scenario).
    pub topology: Option<Topology>,
    /// Override the scale's default member count (the fig5, fig6 and
    /// traffic units).
    pub n: Option<usize>,
}

json_impl!(ToJson, FromJson for struct SweepConfig {
    experiment, scale, base_seed, seeds, topology [omit_none], n [omit_none]
});

impl SweepConfig {
    pub fn new(experiment: SweepExperiment, scale: Scale, base_seed: u64, seeds: usize) -> Self {
        SweepConfig { experiment, scale, base_seed, seeds, topology: None, n: None }
    }

    /// Directory (under the sweep root) this config writes into.
    pub fn dir_name(&self) -> String {
        format!("sweep-{}-{}-s{}", self.experiment.label(), scale_label(self.scale), self.base_seed)
    }

    /// Stable FNV-64 hash of the canonical JSON form. Field order in the
    /// struct is fixed, so equal configs hash equally across runs and
    /// platforms.
    pub fn hash(&self) -> String {
        format!("{:016x}", fnv64(json::to_string(self).as_bytes()))
    }

    /// The u64 experiment seed for shard `k`: one draw from a
    /// `fork_indexed` stream off the base seed.
    pub fn seed_for(&self, k: usize) -> u64 {
        let root = SimRng::seed_from(self.base_seed);
        root.fork_indexed("sweep-seed", k as u64).range(0..u64::MAX)
    }
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Quick => "quick",
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One seed's completed run: the headline metrics the aggregator reduces,
/// plus the experiment's full report for auditability.
#[derive(Clone, Debug)]
pub struct SeedRecord {
    pub index: usize,
    pub seed: u64,
    /// Flat metric name → value. Keys are identical across seeds of one
    /// sweep (they depend only on the config), which is what makes the
    /// per-metric reduction well-defined.
    pub metrics: BTreeMap<String, f64>,
    /// The experiment's own report shape for this seed.
    pub payload: Value,
}

json_impl!(ToJson, FromJson for struct SeedRecord { index, seed, metrics, payload });

/// Per-seed completion state in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedStatus {
    Pending,
    Done,
}

json_impl!(ToJson, FromJson for enum SeedStatus { Pending = "pending", Done = "done" });

/// One manifest row.
#[derive(Clone, Debug)]
pub struct SeedEntry {
    pub index: usize,
    /// The derived u64 experiment seed for this shard.
    pub seed: u64,
    pub status: SeedStatus,
    /// FNV-64 digest of the written `seed-<k>.json` bytes (done seeds
    /// only); a mismatch on resume re-runs the seed instead of trusting a
    /// truncated or hand-edited record.
    pub digest: Option<String>,
}

json_impl!(ToJson, FromJson for struct SeedEntry { index, seed, status, digest [omit_none] });

/// The on-disk resume state: `results/<sweep>/manifest.json`.
#[derive(Clone, Debug)]
pub struct SweepManifest {
    pub config: SweepConfig,
    pub config_hash: String,
    pub seeds: Vec<SeedEntry>,
}

json_impl!(ToJson, FromJson for struct SweepManifest { config, config_hash, seeds });

impl SweepManifest {
    fn fresh(cfg: &SweepConfig) -> SweepManifest {
        let seeds = (0..cfg.seeds)
            .map(|k| SeedEntry {
                index: k,
                seed: cfg.seed_for(k),
                status: SeedStatus::Pending,
                digest: None,
            })
            .collect();
        SweepManifest { config: cfg.clone(), config_hash: cfg.hash(), seeds }
    }
}

/// The cross-seed reduction: `results/<sweep>/aggregate.json`. A pure
/// function of the per-seed records in index order — no clocks, no thread
/// counts — so interrupted-then-resumed sweeps reproduce it byte-for-byte.
#[derive(Clone, Debug)]
pub struct SweepAggregate {
    pub experiment: String,
    pub scale: String,
    pub config_hash: String,
    pub base_seed: u64,
    /// The derived per-shard seeds, in index order.
    pub seeds: Vec<u64>,
    /// Every headline metric with mean, sample stddev, and 95% CI.
    pub metrics: BTreeMap<String, MetricSummary>,
    /// For the curve experiments (fig5/fig6): the pointwise-mean curve in
    /// the figure's own shape, with the [`CurveCi`] error-bar block.
    pub mean_curve: Option<Curve>,
}

json_impl!(ToJson for struct SweepAggregate {
    experiment, scale, config_hash, base_seed, seeds, metrics, mean_curve [omit_none]
});

/// What `run_sweep` did, beyond the files on disk.
pub struct SweepOutcome {
    /// The sweep directory (`<root>/<dir_name>`).
    pub dir: PathBuf,
    pub aggregate: SweepAggregate,
    /// Seeds executed by this invocation.
    pub ran: usize,
    /// Seeds reused from a prior interrupted run.
    pub reused: usize,
}

/// Why a sweep could not run.
#[derive(Debug)]
pub enum SweepError {
    Io(std::io::Error),
    /// `--resume` with no manifest on disk.
    NoManifest(PathBuf),
    /// Manifest or seed record exists but does not parse.
    Corrupt(String),
    /// `--resume` against a manifest written under a different config.
    ConfigChanged {
        manifest: String,
        requested: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "sweep I/O error: {e}"),
            SweepError::NoManifest(p) => {
                write!(f, "cannot resume: no manifest at {}", p.display())
            }
            SweepError::Corrupt(what) => write!(f, "sweep state is corrupt: {what}"),
            SweepError::ConfigChanged { manifest, requested } => write!(
                f,
                "refusing to resume: manifest config hash {manifest} does not match requested \
                 {requested} (the sweep on disk was produced by a different configuration; rerun \
                 without --resume to start over)"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

fn seed_file(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("seed-{k}.json"))
}

fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

fn write_manifest(dir: &Path, m: &SweepManifest) -> std::io::Result<()> {
    write_atomic(&dir.join("manifest.json"), json::to_string_pretty(m).as_bytes())
}

fn load_manifest(dir: &Path) -> Result<SweepManifest, SweepError> {
    let path = dir.join("manifest.json");
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => return Err(SweepError::NoManifest(path)),
    };
    json::from_str(&text).map_err(|e| SweepError::Corrupt(format!("{}:{e}", path.display())))
}

/// Run (or resume) a sweep, writing all state under `<root>/<dir_name>`.
///
/// Without `resume`, any prior state for this config is discarded and
/// every seed runs. With `resume`, the on-disk manifest must exist and
/// carry the same config hash; done seeds with intact digests are reused,
/// everything else re-runs.
pub fn run_sweep(cfg: &SweepConfig, root: &Path, resume: bool) -> Result<SweepOutcome, SweepError> {
    assert!(cfg.seeds > 0, "a sweep needs at least one seed");
    let dir = root.join(cfg.dir_name());
    fs::create_dir_all(&dir)?;
    let hash = cfg.hash();

    let mut manifest = if resume {
        let m = load_manifest(&dir)?;
        if m.config_hash != hash {
            return Err(SweepError::ConfigChanged { manifest: m.config_hash, requested: hash });
        }
        m
    } else {
        SweepManifest::fresh(cfg)
    };

    // Trust a done seed only when its record is on disk and its digest
    // matches the manifest; anything else re-runs.
    for e in &mut manifest.seeds {
        if e.status == SeedStatus::Done {
            let intact = fs::read(seed_file(&dir, e.index))
                .map(|b| Some(format!("{:016x}", fnv64(&b))) == e.digest)
                .unwrap_or(false);
            if !intact {
                e.status = SeedStatus::Pending;
                e.digest = None;
            }
        }
    }
    write_manifest(&dir, &manifest)?;

    let pending: Vec<(usize, u64)> = manifest
        .seeds
        .iter()
        .filter(|e| e.status == SeedStatus::Pending)
        .map(|e| (e.index, e.seed))
        .collect();
    let reused = manifest.seeds.len() - pending.len();
    let ran = pending.len();

    // Fan the pending seeds across the cores: one complete deterministic
    // run per shard, streamed to disk as it finishes. The manifest update
    // after each seed is what makes a kill cheap — only in-flight seeds
    // are lost.
    let shared = Mutex::new(manifest);
    let written = par::map(&pending, |&(k, seed)| -> std::io::Result<()> {
        let bytes = json::to_string_pretty(&run_unit(cfg, k, seed)).into_bytes();
        write_atomic(&seed_file(&dir, k), &bytes)?;
        let mut m = shared.lock().expect("no seed panics while holding the manifest");
        m.seeds[k].status = SeedStatus::Done;
        m.seeds[k].digest = Some(format!("{:016x}", fnv64(&bytes)));
        write_manifest(&dir, &m)
    });
    written.into_iter().collect::<std::io::Result<()>>()?;
    let manifest = shared.into_inner().expect("no seed panics while holding the manifest");

    // Reduce in index order — the fixed fold order is what makes the
    // aggregate byte-identical whether or not the sweep was interrupted.
    let mut records = Vec::with_capacity(manifest.seeds.len());
    for e in &manifest.seeds {
        let path = seed_file(&dir, e.index);
        let rec: SeedRecord = json::from_str(&fs::read_to_string(&path)?)
            .map_err(|err| SweepError::Corrupt(format!("{}:{err}", path.display())))?;
        records.push(rec);
    }
    let aggregate = aggregate(cfg, &hash, &records);
    write_atomic(&dir.join("aggregate.json"), json::to_string_pretty(&aggregate).as_bytes())?;

    Ok(SweepOutcome { dir, aggregate, ran, reused })
}

/// The pure cross-seed reduction (exposed for tests).
pub fn aggregate(cfg: &SweepConfig, hash: &str, records: &[SeedRecord]) -> SweepAggregate {
    let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for rec in records {
        for (k, &v) in &rec.metrics {
            by_metric.entry(k.clone()).or_default().push(v);
        }
    }
    let metrics = by_metric
        .into_iter()
        .filter_map(|(k, xs)| MetricSummary::from_samples(&xs).map(|s| (k, s)))
        .collect();
    SweepAggregate {
        experiment: cfg.experiment.label().to_string(),
        scale: scale_label(cfg.scale).to_string(),
        config_hash: hash.to_string(),
        base_seed: cfg.base_seed,
        seeds: records.iter().map(|r| r.seed).collect(),
        metrics,
        mean_curve: mean_curve(records),
    }
}

/// Pointwise-mean curve with a [`CurveCi`] error-bar block, for the
/// experiments whose per-seed payload is a single curve (fig5/fig6).
fn mean_curve(records: &[SeedRecord]) -> Option<Curve> {
    // Both payload shapes carry `series: TimeSeries` + `improvement`
    // (fig6's has the workload disposition beside them); no other
    // experiment's payload has a `series` member.
    struct CurveLike {
        series: TimeSeries,
        improvement: f64,
    }
    let curves: Vec<CurveLike> = records
        .iter()
        .map(|r| {
            Some(CurveLike {
                series: TimeSeries::from_json(r.payload.get("series")?).ok()?,
                improvement: f64::from_json(r.payload.get("improvement")?).ok()?,
            })
        })
        .collect::<Option<_>>()?;
    let first = curves.first()?;
    let len = first.series.points.len();
    if len == 0 || curves.iter().any(|c| c.series.points.len() != len) {
        return None;
    }

    let mut series =
        TimeSeries::new(format!("{} (mean of {} seeds)", first.series.label, curves.len()));
    let mut point_ci95 = Vec::with_capacity(len);
    for i in 0..len {
        let t = first.series.points[i].0;
        let samples: Vec<f64> = curves.iter().map(|c| c.series.points[i].1).collect();
        let s = MetricSummary::from_samples(&samples)?;
        series.points.push((t, s.mean));
        point_ci95.push(s.ci95);
    }
    let finals: Vec<f64> = curves.iter().map(|c| c.series.points[len - 1].1).collect();
    let improvements: Vec<f64> = curves.iter().map(|c| c.improvement).collect();
    let final_value = MetricSummary::from_samples(&finals)?;
    let improvement = MetricSummary::from_samples(&improvements)?;
    Some(Curve {
        series,
        improvement: improvement.mean,
        ci: Some(CurveCi { seeds: curves.len(), final_value, improvement, point_ci95 }),
    })
}

// ------------------------------------------------------------ units ----

/// What one unit run hands back: the flat headline metrics the aggregator
/// reduces, and the experiment's own report.
pub type UnitRun = (BTreeMap<String, f64>, Value);

/// Run one experiment unit for one derived seed. Deterministic in
/// `(cfg, seed)`; the index only labels the record.
pub fn run_unit(cfg: &SweepConfig, index: usize, seed: u64) -> SeedRecord {
    let (metrics, payload) = (cfg.experiment.entry().1.run)(cfg, seed);
    SeedRecord { index, seed, metrics, payload }
}

/// Scenario for the curve units, honoring the config's topology / n
/// overrides (scale defaults otherwise).
fn unit_scenario(cfg: &SweepConfig, seed: u64) -> Scenario {
    let topo = cfg.topology.unwrap_or(cfg.scale.topology());
    Scenario::build(topo, cfg.n.unwrap_or(cfg.scale.default_n()), seed)
}

/// Fig. 5's representative curve: PROP-G at `nhops = 2`.
pub(crate) fn unit_fig5(cfg: &SweepConfig, seed: u64) -> UnitRun {
    let scenario = unit_scenario(cfg, seed);
    let label = format!("n={}, nhops=2", scenario.n);
    let curve = fig5::run_curve(&scenario, PropConfig::prop_g(), cfg.scale, label);
    let metrics = BTreeMap::from([
        ("latency_initial_ms".into(), curve.series.first_value().unwrap_or(0.0)),
        ("latency_final_ms".into(), curve.series.last_value().unwrap_or(0.0)),
        ("improvement".into(), curve.improvement),
    ]);
    (metrics, curve.to_json())
}

/// Fig. 6's representative curve, with the driver's overhead beside it.
pub(crate) fn unit_fig6(cfg: &SweepConfig, seed: u64) -> UnitRun {
    let scenario = unit_scenario(cfg, seed);
    let label = format!("n={}, nhops=2", scenario.n);
    let (curve, overhead) =
        fig6::run_curve_traced(&scenario, PropConfig::prop_g(), cfg.scale, label);
    let metrics = BTreeMap::from([
        ("stretch_initial".into(), curve.series.first_value().unwrap_or(0.0)),
        ("stretch_final".into(), curve.series.last_value().unwrap_or(0.0)),
        ("improvement".into(), curve.improvement),
        ("delivered".into(), curve.delivered as f64),
        ("overhead_msgs_per_trial".into(), msgs_per_trial(&overhead)),
        ("overhead_trials".into(), overhead.trials as f64),
    ]);
    (metrics, curve.to_json())
}

pub(crate) fn unit_fig7(cfg: &SweepConfig, seed: u64) -> UnitRun {
    let curves = fig7::run(cfg.scale, seed);
    let mut metrics = BTreeMap::new();
    for c in &curves {
        if let Some(&(_, last)) = c.points.last() {
            metrics.insert(format!("final_ratio/{}", c.label), last);
        }
        let best = c.points.iter().map(|&(_, r)| r).fold(f64::MAX, f64::min);
        metrics.insert(format!("best_ratio/{}", c.label), best);
    }
    (metrics, curves.to_json())
}

/// The A1 overhead ablation (msgs/trial ± CI).
pub(crate) fn unit_ablation(cfg: &SweepConfig, seed: u64) -> UnitRun {
    let r = ablation::overhead(cfg.scale, seed);
    let mut metrics = BTreeMap::new();
    for row in &r.rows {
        metrics.insert(format!("msgs_per_trial/{}", row.label), row.msgs_per_trial);
        metrics.insert(
            format!("predicted_msgs_per_trial/{}", row.label),
            row.predicted_msgs_per_trial,
        );
    }
    (metrics, r.to_json())
}

/// The loss × partition grid (improvement% ± CI per cell).
pub(crate) fn unit_faults(cfg: &SweepConfig, seed: u64) -> UnitRun {
    let rows = faults::sweep(cfg.scale, seed);
    let mut metrics = BTreeMap::new();
    for row in &rows {
        let cell = format!("loss{:02.0}_part{:03}", row.loss_pct, row.partition_secs);
        metrics.insert(format!("improvement_pct/{cell}"), row.improvement_pct);
        metrics.insert(format!("faulted/{cell}"), row.faulted as f64);
    }
    (metrics, rows.to_json())
}

/// The diurnal-regional comparison: PROP-G vs PROP-O vs selfish, per phase.
pub(crate) fn unit_traffic(cfg: &SweepConfig, seed: u64) -> UnitRun {
    let spec = traffic::builtin_scenario("diurnal-regional", cfg.scale, seed, cfg.topology, cfg.n)
        .expect("diurnal-regional is a builtin scenario");
    let runs = traffic::run_comparison(&spec, cfg.scale);
    let mut metrics = BTreeMap::new();
    for r in &runs {
        let driver = &r.driver;
        metrics.insert(format!("stretch_final/{driver}"), r.series.last_value().unwrap_or(0.0));
        metrics.insert(format!("link_stretch/{driver}"), r.final_link_stretch);
        metrics.insert(format!("delivery/{driver}"), r.report.delivery_rate());
        metrics.insert(format!("overhead_msgs_per_trial/{driver}"), r.report.msgs_per_trial());
        for p in &r.report.phases {
            metrics.insert(format!("stretch/{driver}/{}", p.phase), p.stretch);
        }
    }
    (metrics, runs.to_json())
}

// ------------------------------------------------------------- gate ----

/// One CI-width gate: fail when `metrics[metric].ci95` exceeds
/// `max_ci95` — or cannot be assessed at all (missing metric, or a
/// single-seed sweep whose CI is null). An armed gate must be meaningful.
#[derive(Clone, Debug, PartialEq)]
pub struct GateSpec {
    pub metric: String,
    pub max_ci95: f64,
}

impl GateSpec {
    /// Parse a `--gate metric=width` argument.
    pub fn parse(s: &str) -> Option<GateSpec> {
        let (metric, width) = s.split_once('=')?;
        let max_ci95: f64 = width.parse().ok()?;
        (!metric.is_empty() && max_ci95.is_finite() && max_ci95 >= 0.0)
            .then(|| GateSpec { metric: metric.to_string(), max_ci95 })
    }
}

/// Evaluate gates against an aggregate; returns one failure message per
/// violated gate (empty = pass).
pub fn check_gates(agg: &SweepAggregate, gates: &[GateSpec]) -> Vec<String> {
    let mut failures = Vec::new();
    for g in gates {
        match agg.metrics.get(&g.metric) {
            None => failures.push(format!(
                "gate {}: metric absent from the aggregate (known: {})",
                g.metric,
                agg.metrics.keys().cloned().collect::<Vec<_>>().join(", ")
            )),
            Some(s) => match s.ci95 {
                None => failures.push(format!(
                    "gate {}: no CI available (n={} seeds) — a CI-width gate needs ≥ 2 seeds",
                    g.metric, s.n
                )),
                Some(w) if w > g.max_ci95 => failures.push(format!(
                    "gate {}: 95% CI half-width {:.4} exceeds tolerance {:.4} (mean {:.4}, n={})",
                    g.metric, w, g.max_ci95, s.mean, s.n
                )),
                Some(_) => {}
            },
        }
    }
    failures
}

// -------------------------------------------------------------- cli ----

/// The command line's `--seeds N` mode: run (or resume) the sweep under `root`,
/// print the aggregate (summary table, and the mean curve with its
/// confidence band for the curve experiments), evaluate `gates`, and turn
/// the outcome into an exit code.
pub fn run_cli(
    cfg: &SweepConfig,
    root: &Path,
    resume: bool,
    gates: &[GateSpec],
) -> std::process::ExitCode {
    use std::process::ExitCode;
    println!(
        "sweep: {} at {} scale, {} seeds off base seed {}{}",
        cfg.experiment.label(),
        scale_label(cfg.scale),
        cfg.seeds,
        cfg.base_seed,
        if resume { " (resuming)" } else { "" }
    );
    let outcome = match run_sweep(cfg, root, resume) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "ran {} seed(s), reused {} from disk; state under {}",
        outcome.ran,
        outcome.reused,
        outcome.dir.display()
    );
    let agg = &outcome.aggregate;
    crate::report::print_ci_table(
        &format!(
            "{} sweep — {} seeds, mean ± 95% CI (config {})",
            agg.experiment,
            agg.seeds.len(),
            agg.config_hash
        ),
        &agg.metrics,
    );
    if let Some(curve) = &agg.mean_curve {
        if let Some(ci) = &curve.ci {
            println!("\n{}", crate::plot::ascii_band_chart(&curve.series, &ci.point_ci95, 72, 14));
            println!("final value {}   improvement {}", ci.final_value, ci.improvement);
        }
    }
    println!("(wrote {})", outcome.dir.join("aggregate.json").display());

    let failures = check_gates(agg, gates);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("SWEEP GATE FAILED: {f}");
        }
        return ExitCode::FAILURE;
    }
    if !gates.is_empty() {
        println!("all {} CI-width gate(s) passed", gates.len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            experiment: SweepExperiment::Fig6,
            scale: Scale::Quick,
            base_seed: 5,
            seeds: 4,
            topology: Some(Topology::Tiny),
            n: Some(24),
        }
    }

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        let a = tiny_cfg();
        assert_eq!(a.hash(), tiny_cfg().hash());
        let mut b = tiny_cfg();
        b.seeds = 5;
        assert_ne!(a.hash(), b.hash());
        let mut c = tiny_cfg();
        c.n = Some(25);
        assert_ne!(a.hash(), c.hash());
        let mut d = tiny_cfg();
        d.base_seed = 6;
        assert_ne!(a.hash(), d.hash());
    }

    #[test]
    fn derived_seeds_are_distinct_and_reproducible() {
        let cfg = tiny_cfg();
        let seeds: Vec<u64> = (0..16).map(|k| cfg.seed_for(k)).collect();
        assert_eq!(seeds, (0..16).map(|k| cfg.seed_for(k)).collect::<Vec<_>>());
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "derived seeds collide: {seeds:?}");
        // Different base seed ⇒ different derived streams.
        let mut other = tiny_cfg();
        other.base_seed = 99;
        assert_ne!(cfg.seed_for(0), other.seed_for(0));
    }

    #[test]
    fn aggregate_is_a_pure_ordered_fold() {
        let cfg = tiny_cfg();
        let recs: Vec<SeedRecord> = (0..4)
            .map(|k| SeedRecord {
                index: k,
                seed: cfg.seed_for(k),
                metrics: BTreeMap::from([
                    ("stretch_final".to_string(), 2.0 + k as f64 * 0.1),
                    ("improvement".to_string(), 0.3),
                ]),
                payload: Value::Null,
            })
            .collect();
        let a = aggregate(&cfg, "h", &recs);
        let b = aggregate(&cfg, "h", &recs);
        assert_eq!(json::to_string(&a), json::to_string(&b));
        let s = &a.metrics["stretch_final"];
        assert!((s.mean - 2.15).abs() < 1e-12);
        assert_eq!(s.n, 4);
        assert!(s.ci95.is_some());
        // Identical samples keep a zero-width interval.
        assert_eq!(a.metrics["improvement"].ci95, Some(0.0));
        // fig6 payloads were null here, so no mean curve could be built.
        assert!(a.mean_curve.is_none());
    }

    #[test]
    fn gates_fail_on_width_absence_and_single_seed() {
        let cfg = tiny_cfg();
        let rec = |k: usize, v: f64| SeedRecord {
            index: k,
            seed: cfg.seed_for(k),
            metrics: BTreeMap::from([("stretch_final".to_string(), v)]),
            payload: Value::Null,
        };
        let agg = aggregate(&cfg, "h", &[rec(0, 2.0), rec(1, 2.1), rec(2, 1.9)]);
        let w = agg.metrics["stretch_final"].ci95.unwrap();

        let pass = GateSpec { metric: "stretch_final".into(), max_ci95: w + 0.01 };
        assert!(check_gates(&agg, &[pass]).is_empty());
        let fail = GateSpec { metric: "stretch_final".into(), max_ci95: w - 0.01 };
        assert_eq!(check_gates(&agg, &[fail]).len(), 1);
        let missing = GateSpec { metric: "nope".into(), max_ci95: 1.0 };
        assert_eq!(check_gates(&agg, &[missing]).len(), 1);

        // One seed ⇒ null CI ⇒ an armed gate must fail, not silently pass.
        let single = aggregate(&cfg, "h", &[rec(0, 2.0)]);
        let g = GateSpec { metric: "stretch_final".into(), max_ci95: 10.0 };
        assert_eq!(check_gates(&single, &[g]).len(), 1);
    }

    #[test]
    fn gate_spec_parses() {
        let g = GateSpec::parse("stretch_final=0.05").unwrap();
        assert_eq!(g.metric, "stretch_final");
        assert!((g.max_ci95 - 0.05).abs() < 1e-12);
        assert!(GateSpec::parse("nope").is_none());
        assert!(GateSpec::parse("=0.05").is_none());
        assert!(GateSpec::parse("m=-1").is_none());
        assert!(GateSpec::parse("m=NaN").is_none());
    }

    #[test]
    fn experiment_labels_round_trip() {
        // Label → registry entry → its unit's experiment, and the labels are
        // the directory names sweeps already on disk were written under.
        for (e, label) in [
            (SweepExperiment::Fig5, "fig5"),
            (SweepExperiment::Fig6, "fig6"),
            (SweepExperiment::Fig7, "fig7"),
            (SweepExperiment::Ablation, "ablation"),
            (SweepExperiment::Faults, "faults"),
            (SweepExperiment::Traffic, "traffic"),
        ] {
            assert_eq!(e.label(), label);
            let unit = registry::find(label).and_then(|entry| entry.unit);
            assert_eq!(unit.map(|u| u.experiment), Some(e));
        }
    }
}
