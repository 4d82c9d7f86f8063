//! Seed-sharded Monte-Carlo sweep orchestrator.
//!
//! Every figure in the reproduction is bit-deterministic per seed, so the
//! statistically honest way to spend cores is *across* runs, never inside
//! one: the orchestrator fans N independent seeds of one registered panel
//! over the machine's cores ([`prop_engine::par::map`]), one complete
//! deterministic [`Panel::run`](crate::registry::Panel) per seed, and
//! reduces every number the panel's report holds to mean ± 95% CI
//! ([`MetricSummary`], Student t for small N).
//!
//! Mechanics:
//!
//! * **Seed derivation** — seed k of a sweep is drawn from
//!   `SimRng::seed_from(base_seed).fork_indexed("sweep-seed", k)`, the
//!   same derivation discipline the drivers use for per-trial streams:
//!   seeds are decorrelated but fully reproducible from `(base_seed, k)`.
//! * **Metric names** — [`flatten`]: a report's object keys and array
//!   indices joined by `/`, every number a metric, a series its `initial`
//!   and `final` values. No experiment has sweep code of its own.
//! * **Streaming records** — each finished seed writes
//!   `results/<sweep>/seed-<k>.json` (atomic tmp + rename) the moment it
//!   completes, so a killed sweep loses at most the in-flight seeds.
//! * **Resumable manifest** — `manifest.json` persists the config, a hash
//!   of it, and per-seed done/pending status with an FNV-64 digest of each
//!   record. `--resume` re-runs only the pending (or corrupted) seeds and
//!   refuses outright when the config hash changed: stale partial results
//!   can never leak into a differently-configured aggregate.
//! * **Aggregate** — `aggregate.json` carries a [`MetricSummary`] per
//!   metric and, per series in the report, its pointwise mean with a 95%
//!   band ([`SeriesBand`]). The aggregate is a pure fold over the per-seed
//!   records in index order — resuming an interrupted sweep reproduces it
//!   byte-for-byte.
//!
//! `prop <experiment> [panel] --seeds N [--resume] [--gate m=w]… [--root DIR]`
//! fronts this module for every registered panel that has a `run`.

use crate::registry::{self, Panel};
use crate::setup::Scale;
use prop_engine::json::{self, FromJson, Value};
use prop_engine::{json_impl, par, SimRng};
use prop_metrics::{MetricSummary, TimeSeries};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Everything that determines a sweep's results. The manifest stores this
/// config plus its hash; any field changing between a manifest and a
/// `--resume` invocation refuses the resume.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepConfig {
    /// The registered experiment, as `prop` spells it.
    pub experiment: String,
    /// The panel's registered name; `None` for an experiment's only,
    /// unnamed panel.
    pub panel: Option<String>,
    pub scale: Scale,
    /// Root seed the per-seed streams are derived from.
    pub base_seed: u64,
    /// Number of independent seeds.
    pub seeds: usize,
}

json_impl!(ToJson, FromJson for struct SweepConfig {
    experiment, panel [omit_none], scale, base_seed, seeds
});

impl SweepConfig {
    /// A sweep of `experiment`'s `panel` (empty for its only, unnamed one).
    pub fn new(experiment: &str, panel: &str, scale: Scale, base_seed: u64, seeds: usize) -> Self {
        let panel = (!panel.is_empty()).then(|| panel.to_string());
        SweepConfig { experiment: experiment.to_string(), panel, scale, base_seed, seeds }
    }

    /// `fig6 a`, or `traffic` for an unnamed panel.
    pub fn label(&self) -> String {
        match &self.panel {
            Some(panel) => format!("{} {panel}", self.experiment),
            None => self.experiment.clone(),
        }
    }

    /// The registered panel this sweep repeats, if there is one.
    pub fn registered(&self) -> Option<&'static Panel> {
        let name = self.panel.as_deref().unwrap_or("");
        registry::find(&self.experiment)?.panels.iter().find(|p| p.name == name)
    }

    /// Directory (under the sweep root) this config writes into:
    /// `sweep-<experiment>[-<panel>]-<scale>-s<base seed>`.
    pub fn dir_name(&self) -> String {
        let name = self.label().replace(' ', "-");
        format!("sweep-{name}-{}-s{}", scale_label(self.scale), self.base_seed)
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

/// One seed's completed run: the metrics the aggregator reduces, plus the
/// panel's full report for auditability.
#[derive(Clone, Debug)]
pub struct SeedRecord {
    pub index: usize,
    pub seed: u64,
    /// The report's numbers by [`flatten`]ed path. A report's shape depends
    /// on the config, not the seed, so the keys agree across seeds and the
    /// per-metric reduction is well-defined.
    pub metrics: BTreeMap<String, f64>,
    /// The panel's report for this seed, as its `run` returned it.
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
    pub panel: Option<String>,
    pub scale: String,
    pub config_hash: String,
    pub base_seed: u64,
    /// The derived per-shard seeds, in index order.
    pub seeds: Vec<u64>,
    /// Every metric with mean, sample stddev, and 95% CI.
    pub metrics: BTreeMap<String, MetricSummary>,
    /// Every series the reports hold, by path, where its length agrees
    /// across seeds: the pointwise mean with its 95% band.
    pub series: BTreeMap<String, SeriesBand>,
}

json_impl!(ToJson for struct SweepAggregate {
    experiment, panel [omit_none], scale, config_hash, base_seed, seeds, metrics, series
});

/// One series across seeds: the mean at each sample time, and the 95%
/// half-width there (`None` where a single seed leaves it undefined).
#[derive(Clone, Debug)]
pub struct SeriesBand {
    pub mean: TimeSeries,
    pub ci95: Vec<Option<f64>>,
}

json_impl!(ToJson for struct SeriesBand { mean, ci95 });

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
    /// The config names no registered panel with a `run`.
    NotSweepable(String),
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
            SweepError::NotSweepable(label) => {
                write!(f, "`{label}` is not a registered panel with a run to sweep")
            }
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
    let run = cfg.registered().and_then(|p| p.run).ok_or(SweepError::NotSweepable(cfg.label()))?;
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
        let payload = run(cfg.scale, seed);
        let record = SeedRecord { index: k, seed, metrics: flatten(&payload).0, payload };
        let bytes = json::to_string_pretty(&record).into_bytes();
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
        experiment: cfg.experiment.clone(),
        panel: cfg.panel.clone(),
        scale: scale_label(cfg.scale).to_string(),
        config_hash: hash.to_string(),
        base_seed: cfg.base_seed,
        seeds: records.iter().map(|r| r.seed).collect(),
        metrics,
        series: mean_series(records),
    }
}

/// Pointwise mean ± 95% CI of every series path the first record holds
/// and every record holds at the same length.
fn mean_series(records: &[SeedRecord]) -> BTreeMap<String, SeriesBand> {
    let per_seed: Vec<BTreeMap<String, TimeSeries>> =
        records.iter().map(|r| flatten(&r.payload).1).collect();
    let Some(first) = per_seed.first() else { return BTreeMap::new() };
    let mut bands = BTreeMap::new();
    for (path, head) in first {
        let len = head.points.len();
        let runs: Option<Vec<&TimeSeries>> = per_seed
            .iter()
            .map(|s| s.get(path).filter(|s| s.points.len() == len && len > 0))
            .collect();
        let Some(runs) = runs else { continue };
        let label = format!("{} (mean of {} seeds)", head.label, runs.len());
        let mut band = SeriesBand { mean: TimeSeries::new(label), ci95: Vec::with_capacity(len) };
        for (i, &(t, _)) in head.points.iter().enumerate() {
            let samples: Vec<f64> = runs.iter().map(|s| s.points[i].1).collect();
            let s = MetricSummary::from_samples(&samples).expect("at least one seed");
            band.mean.points.push((t, s.mean));
            band.ci95.push(s.ci95);
        }
        bands.insert(path.clone(), band);
    }
    bands
}

/// A report's numbers and series, by path: object keys and array indices
/// joined by `/`. Every number is a metric; strings, booleans and nulls
/// (which is how a non-finite number is written) are not. A value that
/// reads as a [`TimeSeries`] is one series, whose metrics are only
/// `<path>/initial` and `<path>/final`.
pub fn flatten(report: &Value) -> (BTreeMap<String, f64>, BTreeMap<String, TimeSeries>) {
    fn walk(
        v: &Value,
        path: &str,
        metrics: &mut BTreeMap<String, f64>,
        series: &mut BTreeMap<String, TimeSeries>,
    ) {
        let at =
            |key: &str| if path.is_empty() { key.to_string() } else { format!("{path}/{key}") };
        let number = match *v {
            Value::U64(u) => Some(u as f64),
            Value::I64(i) => Some(i as f64),
            Value::F64(x) => Some(x).filter(|x| x.is_finite()),
            _ => None,
        };
        if let Some(x) = number {
            metrics.insert(path.to_string(), x);
        }
        match v {
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    walk(item, &at(&i.to_string()), metrics, series);
                }
            }
            Value::Object(members) => match TimeSeries::from_json(v) {
                Ok(s) => {
                    if let (Some(first), Some(last)) = (s.first_value(), s.last_value()) {
                        metrics.insert(at("initial"), first);
                        metrics.insert(at("final"), last);
                    }
                    series.insert(path.to_string(), s);
                }
                Err(_) => {
                    for (key, member) in members {
                        walk(member, &at(key), metrics, series);
                    }
                }
            },
            _ => {}
        }
    }
    let (mut metrics, mut series) = (BTreeMap::new(), BTreeMap::new());
    walk(report, "", &mut metrics, &mut series);
    (metrics, series)
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
/// print the aggregate (summary table, and each series' mean with its
/// confidence band), evaluate `gates`, and turn
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
        cfg.label(),
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
            cfg.label(),
            agg.seeds.len(),
            agg.config_hash
        ),
        &agg.metrics,
    );
    for (path, band) in &agg.series {
        println!("\n{path}:\n{}", crate::plot::ascii_band_chart(&band.mean, &band.ci95, 72, 14));
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
        SweepConfig::new("fig6", "a", Scale::Quick, 5, 4)
    }

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        let a = tiny_cfg();
        assert_eq!(a.hash(), tiny_cfg().hash());
        let mut b = tiny_cfg();
        b.seeds = 5;
        assert_ne!(a.hash(), b.hash());
        let mut c = tiny_cfg();
        c.panel = Some("b".into());
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
        // The payloads were null here, so they hold no series.
        assert!(a.series.is_empty());
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
        let g = GateSpec::parse("1/series/final=0.05").unwrap();
        assert_eq!(g.metric, "1/series/final");
        assert!((g.max_ci95 - 0.05).abs() < 1e-12);
        assert!(GateSpec::parse("nope").is_none());
        assert!(GateSpec::parse("=0.05").is_none());
        assert!(GateSpec::parse("m=-1").is_none());
        assert!(GateSpec::parse("m=NaN").is_none());
    }

    #[test]
    fn flatten_names_every_number() {
        let report = json::parse(
            r#"{"rows": [{"label": "PROP-G", "msgs": 12, "rate": 0.5, "ok": true},
                         {"label": "PROP-O", "msgs": 18, "rate": -1.5, "ok": false}],
                "curve": {"series": {"label": "n=120", "points": [[0, 8.0], [5, 6.0], [10, 4.0]]},
                          "improvement": 0.5},
                "delta": -3,
                "note": "skipped",
                "missing": null}"#,
        )
        .unwrap();
        let (metrics, series) = flatten(&report);
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "curve/improvement",
                "curve/series/final",
                "curve/series/initial",
                "delta",
                "rows/0/msgs",
                "rows/0/rate",
                "rows/1/msgs",
                "rows/1/rate",
            ]
        );
        assert_eq!(metrics["rows/1/rate"], -1.5);
        assert_eq!(metrics["delta"], -3.0);
        assert_eq!((metrics["curve/series/initial"], metrics["curve/series/final"]), (8.0, 4.0));
        // The series is one entry, whole; its points name no metric.
        assert_eq!(series.keys().collect::<Vec<_>>(), ["curve/series"]);
        assert_eq!(series["curve/series"].points, [(0.0, 8.0), (5.0, 6.0), (10.0, 4.0)]);
    }

    #[test]
    fn mean_series_is_pointwise_and_skips_a_length_mismatch() {
        let cfg = tiny_cfg();
        let rec = |k: usize, payload: &str| SeedRecord {
            index: k,
            seed: cfg.seed_for(k),
            metrics: BTreeMap::new(),
            payload: json::parse(payload).unwrap(),
        };
        let agg = aggregate(
            &cfg,
            "h",
            &[
                rec(
                    0,
                    r#"[{"label": "a", "points": [[0, 2.0], [5, 4.0]]},
                           {"label": "b", "points": [[0, 1.0]]}]"#,
                ),
                rec(
                    1,
                    r#"[{"label": "a", "points": [[0, 4.0], [5, 8.0]]},
                           {"label": "b", "points": [[0, 1.0], [5, 1.0]]}]"#,
                ),
            ],
        );
        assert_eq!(agg.series.keys().collect::<Vec<_>>(), ["0"]);
        let band = &agg.series["0"];
        assert_eq!(band.mean.label, "a (mean of 2 seeds)");
        assert_eq!(band.mean.points, [(0.0, 3.0), (5.0, 6.0)]);
        assert_eq!(band.ci95.len(), 2);
        assert!(band.ci95.iter().all(|w| w.is_some_and(|w| w > 0.0)));
    }

    /// A process-unique scratch root (no wall clock: test name + pid).
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prop-sweep-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch root");
        dir
    }

    #[test]
    fn every_panel_sweeps() {
        let root = scratch("every-panel");
        for e in &registry::EXPERIMENTS {
            for p in e.panels.iter().filter(|p| p.run.is_some()) {
                let cfg = SweepConfig::new(e.name, p.name, Scale::Quick, 1, 2);
                let outcome = run_sweep(&cfg, &root, false)
                    .unwrap_or_else(|err| panic!("{}: {err}", cfg.label()));
                assert_eq!(outcome.dir, root.join(cfg.dir_name()));
                let read = |k: usize| -> SeedRecord {
                    let text = fs::read_to_string(seed_file(&outcome.dir, k)).unwrap();
                    json::from_str(&text).unwrap()
                };
                let (a, b) = (read(0), read(1));
                let names = |r: &SeedRecord| r.metrics.keys().cloned().collect::<Vec<_>>();
                assert_eq!(names(&a), names(&b), "{}: names differ across seeds", cfg.label());
                assert!(!a.metrics.is_empty(), "{}: no metric", cfg.label());
                for (name, x) in a.metrics.iter().chain(&b.metrics) {
                    assert!(x.is_finite(), "{} {name} = {x}", cfg.label());
                }
            }
        }
        // A panel without a run (S1's report is the experiment's own) is not sweepable.
        let scale = SweepConfig::new("scale", "", Scale::Quick, 1, 2);
        assert!(matches!(run_sweep(&scale, &root, false), Err(SweepError::NotSweepable(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn directory_names_the_experiment_and_its_named_panel() {
        assert_eq!(tiny_cfg().dir_name(), "sweep-fig6-a-quick-s5");
        let traffic = SweepConfig::new("traffic", "", Scale::Paper, 1, 8);
        assert_eq!(
            (traffic.dir_name(), traffic.label()),
            ("sweep-traffic-paper-s1".into(), "traffic".into())
        );
    }
}
