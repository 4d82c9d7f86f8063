//! The JSON writer is byte-compatible with what is already committed, and
//! the real binary's `fig5 a` still produces the committed numbers.

use prop_engine::json::{self, FromJson, Value};
use prop_metrics::TimeSeries;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn committed_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Every committed `results/*.json` parses, and writing the parsed document
/// back with the pretty writer reproduces the file byte for byte: 2-space
/// indent, no trailing newline, floats in the committed layout, `u64::MAX`
/// intact (`ablation_ltmcap.json`), non-ASCII passed through
/// (`ablation_overhead.json` holds a `δ`).
#[test]
fn committed_results_round_trip_byte_for_byte() {
    let mut files: Vec<PathBuf> = fs::read_dir(committed_results())
        .expect("results/ is committed")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 20, "results/*.json: {files:?}");
    for path in files {
        let text = fs::read_to_string(&path).expect("readable result file");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}:{e}", path.display()));
        let rewritten = json::to_string_pretty(&doc);
        assert!(rewritten == text, "{} does not round-trip", path.display());
        assert_eq!(json::parse(&json::to_string(&doc)).as_ref(), Ok(&doc), "{}", path.display());
    }
}

/// The series of every curve in a `fig5<panel>.json` document.
fn curve_series(doc: &Value) -> Vec<TimeSeries> {
    let Value::Array(curves) = doc else { panic!("a figure file holds an array of curves") };
    curves
        .iter()
        .map(|curve| TimeSeries::from_json(curve.get("series").expect("series")).expect("series"))
        .collect()
}

/// Closes the loop through the real binary: `fig5 a` at paper scale, run in
/// a scratch directory (the committed `results/` are not overwritten),
/// writes a file the parser reads and whose every sample is within 1e-9 ms
/// of the committed `results/fig5a.json`. Paper scale wants an optimized
/// build: `cargo test --release -p prop-experiments --test wire_format -- --ignored`.
#[test]
#[ignore = "paper-scale run; use --release"]
fn fig5a_by_the_real_binary_matches_the_committed_result() {
    let scratch = std::env::temp_dir().join(format!("prop-fig5a-{}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch).expect("create scratch directory");
    let status = Command::new(env!("CARGO_BIN_EXE_prop"))
        .args(["fig5", "a", "--seed", "1"])
        .current_dir(&scratch)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run prop fig5");
    assert!(status.success(), "fig5 a exited with {status}");

    let read = |path: PathBuf| {
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        curve_series(&json::parse(&text).unwrap_or_else(|e| panic!("{}:{e}", path.display())))
    };
    let fresh = read(scratch.join("results/fig5a.json"));
    let committed = read(committed_results().join("fig5a.json"));
    assert_eq!(fresh.len(), committed.len(), "curve count");
    for (f, c) in fresh.iter().zip(&committed) {
        assert_eq!(f.label, c.label);
        assert_eq!(f.points.len(), c.points.len(), "{}", c.label);
        for (i, (fp, cp)) in f.points.iter().zip(&c.points).enumerate() {
            assert!(
                (fp.0 - cp.0).abs() < 1e-9,
                "{} sample {i}: minute {} vs {}",
                c.label,
                fp.0,
                cp.0
            );
            assert!(
                (fp.1 - cp.1).abs() < 1e-9,
                "{} sample {i}: {} ms vs {} ms",
                c.label,
                fp.1,
                cp.1
            );
        }
    }
    let _ = fs::remove_dir_all(&scratch);
}
