//! Sweep manifest resume semantics, end to end on a quick-scale sweep of
//! Fig. 6 (a):
//!
//! * an interrupted sweep (manifest truncated to half its completed
//!   seeds) resumed with `--resume` reproduces the uninterrupted
//!   aggregate **byte for byte**;
//! * a corrupted seed record is detected by its digest and re-run;
//! * a changed configuration refuses to resume;
//! * resuming with no manifest on disk is an error, not a silent fresh
//!   start.

use prop_engine::json;
use prop_experiments::sweep::{run_sweep, SeedStatus, SweepConfig, SweepError, SweepManifest};
use prop_experiments::Scale;
use std::fs;
use std::path::{Path, PathBuf};

/// A process-unique scratch root (no wall clock: test name + pid).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prop-sweep-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch root");
    dir
}

fn quick_cfg(seeds: usize) -> SweepConfig {
    SweepConfig::new("fig6", "a", Scale::Quick, 5, seeds)
}

fn read_manifest(dir: &Path) -> SweepManifest {
    json::from_str(&fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap()
}

fn write_manifest(dir: &Path, m: &SweepManifest) {
    fs::write(dir.join("manifest.json"), json::to_string_pretty(m)).unwrap();
}

#[test]
fn interrupted_sweep_resumes_to_byte_identical_aggregate() {
    let cfg = quick_cfg(6);

    // Reference: one uninterrupted 6-seed sweep.
    let root_a = scratch("uninterrupted");
    let full = run_sweep(&cfg, &root_a, false).expect("uninterrupted sweep");
    assert_eq!((full.ran, full.reused), (6, 0));
    let reference = fs::read(full.dir.join("aggregate.json")).unwrap();

    // Same sweep elsewhere, then simulate a kill after 3 seeds: truncate
    // the manifest to 3 completed entries, delete the other records and
    // the aggregate.
    let root_b = scratch("interrupted");
    let first = run_sweep(&cfg, &root_b, false).expect("initial sweep");
    let dir = first.dir.clone();
    let mut manifest = read_manifest(&dir);
    for e in manifest.seeds.iter_mut().skip(3) {
        e.status = SeedStatus::Pending;
        e.digest = None;
    }
    write_manifest(&dir, &manifest);
    for k in 3..6 {
        fs::remove_file(dir.join(format!("seed-{k}.json"))).unwrap();
    }
    fs::remove_file(dir.join("aggregate.json")).unwrap();

    // Resume: exactly the 3 missing seeds run, and the aggregate matches
    // the uninterrupted run byte for byte.
    let resumed = run_sweep(&cfg, &root_b, true).expect("resume");
    assert_eq!((resumed.ran, resumed.reused), (3, 3));
    let resumed_bytes = fs::read(resumed.dir.join("aggregate.json")).unwrap();
    assert_eq!(resumed_bytes, reference, "resumed aggregate diverged from the uninterrupted one");

    // Sanity on content: a fig6 sweep carries stretch and overhead CIs per
    // curve, and each curve's mean with its band.
    let agg = &resumed.aggregate;
    for metric in ["1/series/final", "1/series/initial", "1/improvement", "1/msgs_per_trial"] {
        let s = agg.metrics.get(metric).unwrap_or_else(|| panic!("missing metric {metric}"));
        assert_eq!(s.n, 6);
        assert!(s.ci95.is_some(), "{metric} must have a CI at n=6");
    }
    let paths: Vec<&str> = agg.series.keys().map(String::as_str).collect();
    assert_eq!(paths, ["0/series", "1/series", "2/series", "3/series"]);
    let band = &agg.series["1/series"];
    assert_eq!(band.mean.label, "n=120, nhops=2 (mean of 6 seeds)");
    assert_eq!(band.ci95.len(), band.mean.points.len());
}

#[test]
fn corrupted_seed_record_is_rerun_not_trusted() {
    let cfg = quick_cfg(3);
    let root = scratch("corrupt");
    let full = run_sweep(&cfg, &root, false).expect("sweep");
    let reference = fs::read(full.dir.join("aggregate.json")).unwrap();

    // Truncate one record on disk without touching the manifest: the
    // digest check must catch it and re-run that seed.
    let victim = full.dir.join("seed-1.json");
    let bytes = fs::read(&victim).unwrap();
    fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    let resumed = run_sweep(&cfg, &root, true).expect("resume over corruption");
    assert_eq!((resumed.ran, resumed.reused), (1, 2));
    assert_eq!(fs::read(resumed.dir.join("aggregate.json")).unwrap(), reference);
}

#[test]
fn changed_config_refuses_to_resume() {
    let cfg = quick_cfg(3);
    let root = scratch("config-change");
    run_sweep(&cfg, &root, false).expect("sweep");

    // Same directory name (same experiment, panel, scale and base seed),
    // different config: the hash differs, resume must refuse.
    let mut changed = cfg.clone();
    changed.seeds = 2;
    match run_sweep(&changed, &root, true) {
        Err(SweepError::ConfigChanged { manifest, requested }) => {
            assert_ne!(manifest, requested);
            assert_eq!(manifest, cfg.hash());
            assert_eq!(requested, changed.hash());
        }
        other => panic!("expected ConfigChanged, got {other:?}", other = other.err()),
    }

    // More seeds is a different sweep too.
    let more = quick_cfg(4);
    assert!(matches!(run_sweep(&more, &root, true), Err(SweepError::ConfigChanged { .. })));

    // Without --resume the changed config simply starts over.
    let fresh = run_sweep(&changed, &root, false).expect("fresh run overwrites");
    assert_eq!((fresh.ran, fresh.reused), (2, 0));
}

#[test]
fn resume_without_manifest_is_an_error() {
    let cfg = quick_cfg(2);
    let root = scratch("no-manifest");
    match run_sweep(&cfg, &root, true) {
        Err(SweepError::NoManifest(path)) => {
            assert!(path.ends_with("manifest.json"), "{}", path.display());
        }
        other => panic!("expected NoManifest, got {other:?}", other = other.err()),
    }
}
