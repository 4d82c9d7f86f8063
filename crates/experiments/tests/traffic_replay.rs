//! Scenario replay guarantees, end to end:
//!
//! * the same (scenario JSON, seed) replays **byte for byte** on the
//!   synchronous and asynchronous drivers — including a round trip of the
//!   scenario itself through its JSON form;
//! * a `Traffic` sweep interrupted mid-run and resumed with `--resume`
//!   reproduces the uninterrupted aggregate byte for byte;
//! * the committed `examples/*.json` scenario bundles stay parseable and
//!   compile to non-empty traffic planes.

use prop_engine::json;
use prop_experiments::sweep::{run_sweep, SeedStatus, SweepConfig, SweepManifest};
use prop_experiments::traffic::{load_scenario, run_scenario, TrafficDriver};
use prop_experiments::Scale;
use prop_faults::Scenario as ScenarioSpec;
use prop_workloads::TrafficScript;
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prop-traffic-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch root");
    dir
}

fn tiny_spec(seed: u64) -> ScenarioSpec {
    let script = TrafficScript::preset_flash_crowd(25_000, 600_000, 12, 0.8, 12.0);
    ScenarioSpec::new("tiny-flash", "tiny", 24, seed, script)
}

#[test]
fn scenario_json_replays_byte_identically_on_both_drivers() {
    let spec = tiny_spec(21);
    // The JSON file *is* the reproducible unit: round-trip the bundle
    // through its JSON form and replay both copies.
    let reparsed: ScenarioSpec = json::from_str(&json::to_string(&spec)).unwrap();
    assert_eq!(spec, reparsed, "scenario JSON round trip changed the bundle");

    for driver in [TrafficDriver::PropO, TrafficDriver::Async] {
        let a = run_scenario(&spec, driver, Scale::Quick);
        let b = run_scenario(&reparsed, driver, Scale::Quick);
        assert_eq!(
            json::to_string(&a),
            json::to_string(&b),
            "{} replay diverged across a JSON round trip",
            driver.label()
        );
        assert!(a.report.total_applied() > 0, "{} applied nothing", driver.label());
    }
}

#[test]
fn async_driver_differs_from_sync_but_is_self_consistent() {
    // Same plane, different execution model: the async driver must be
    // deterministic in its own right (not accidentally identical to sync,
    // which would suggest the plane is being ignored).
    let spec = tiny_spec(23);
    let sync_run = run_scenario(&spec, TrafficDriver::PropO, Scale::Quick);
    let async_a = run_scenario(&spec, TrafficDriver::Async, Scale::Quick);
    let async_b = run_scenario(&spec, TrafficDriver::Async, Scale::Quick);
    assert_eq!(json::to_string(&async_a), json::to_string(&async_b));
    // Both consume the identical emitted stream.
    assert_eq!(sync_run.emitted, async_a.emitted, "drivers saw different planes");
}

fn read_manifest(dir: &Path) -> SweepManifest {
    json::from_str(&fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap()
}

#[test]
fn interrupted_traffic_sweep_resumes_byte_identically() {
    let cfg = SweepConfig::new("traffic", "", Scale::Quick, 3, 4);

    let root_a = scratch("sweep-uninterrupted");
    let full = run_sweep(&cfg, &root_a, false).expect("uninterrupted sweep");
    assert_eq!((full.ran, full.reused), (4, 0));
    let reference = fs::read(full.dir.join("aggregate.json")).unwrap();

    // Simulate a kill after 2 seeds, then resume.
    let root_b = scratch("sweep-interrupted");
    let first = run_sweep(&cfg, &root_b, false).expect("initial sweep");
    let dir = first.dir.clone();
    let mut manifest = read_manifest(&dir);
    for e in manifest.seeds.iter_mut().skip(2) {
        e.status = SeedStatus::Pending;
        e.digest = None;
    }
    fs::write(dir.join("manifest.json"), json::to_string_pretty(&manifest)).unwrap();
    for k in 2..4 {
        fs::remove_file(dir.join(format!("seed-{k}.json"))).unwrap();
    }
    fs::remove_file(dir.join("aggregate.json")).unwrap();

    let resumed = run_sweep(&cfg, &root_b, true).expect("resume");
    assert_eq!((resumed.ran, resumed.reused), (2, 2));
    assert_eq!(
        fs::read(resumed.dir.join("aggregate.json")).unwrap(),
        reference,
        "resumed traffic sweep diverged from the uninterrupted one"
    );

    // The aggregate carries the per-driver headline metrics with CIs:
    // PROP-G's final stretch, PROP-O's delivery, the selfish run's link stretch.
    for metric in ["0/series/final", "1/report/delivery_rate", "2/final_link_stretch"] {
        let s = resumed
            .aggregate
            .metrics
            .get(metric)
            .unwrap_or_else(|| panic!("missing metric {metric}"));
        assert_eq!(s.n, 4);
        assert!(s.ci95.is_some(), "{metric} must carry a CI at n=4");
    }
}

#[test]
fn committed_example_scenarios_parse_and_compile() {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    for (file, flashes) in [("diurnal_regional.json", 0usize), ("flash_crowd.json", 2usize)] {
        let path = examples.join(file);
        let spec =
            load_scenario(path.to_str().unwrap(), Scale::Paper).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(spec.traffic.flash_crowds.len(), flashes, "{file}");
        assert!(!spec.traffic.domains.is_empty(), "{file} has no domains");
        let plane = prop_workloads::compile(&spec.traffic, spec.seed);
        assert!(!plane.is_empty(), "{file} compiled to an empty plane");
    }
}
