//! The JSON writer is byte-compatible with what is already committed, and
//! the real binary writes every committed result byte for byte.

use prop_engine::json;
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

/// Closes the loop through the real binary: the five commands that write
/// the committed results, run at seed 1 in a scratch directory (the
/// committed `results/` are not overwritten), write exactly the committed
/// files, byte for byte. Paper scale wants an optimized build:
/// `cargo test --release -p prop-experiments --test wire_format -- --ignored`.
#[test]
#[ignore = "paper-scale runs; use --release"]
fn the_real_binary_writes_every_committed_result() {
    let scratch = std::env::temp_dir().join(format!("prop-results-{}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch).expect("create scratch directory");
    for experiment in ["fig5", "fig6", "fig7", "ablation", "generality"] {
        let status = Command::new(env!("CARGO_BIN_EXE_prop"))
            .args([experiment, "--seed", "1"])
            .current_dir(&scratch)
            .stdout(std::process::Stdio::null())
            .status()
            .unwrap_or_else(|e| panic!("run prop {experiment}: {e}"));
        assert!(status.success(), "{experiment} exited with {status}");
    }

    let names = |dir: PathBuf| -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.expect("readable directory entry").file_name())
            .map(|name| name.into_string().expect("UTF-8 file name"))
            .collect();
        names.sort();
        names
    };
    let written = scratch.join("results");
    assert_eq!(names(written.clone()), names(committed_results()), "files written");
    let differ: Vec<String> = names(committed_results())
        .into_iter()
        .filter(|name| {
            fs::read(written.join(name)).ok() != fs::read(committed_results().join(name)).ok()
        })
        .collect();
    assert!(differ.is_empty(), "the binary writes other bytes than the committed {differ:?}");
    let _ = fs::remove_dir_all(&scratch);
}
