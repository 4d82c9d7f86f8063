//! Golden files: every file the command line writes at quick scale, by name
//! and FNV-64 of its bytes.
//!
//! Twelve invocations cover every experiment and every output path (panels,
//! scripted traffic, a two-seed sweep with its manifest, seed records and
//! aggregate, the scale pipeline). They run in one scratch directory, and
//! the set of files under it must be exactly [`GOLDEN`]. `scale.json` is
//! compared with its five wall-clock fields removed; everything else byte
//! for byte. The constants were captured from the ten per-figure binaries
//! this suite was first written against.

use prop_engine::json::{self, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `(experiment, arguments)`; `{examples}` is the repository's `examples/`.
const INVOCATIONS: &[(&str, &[&str])] = &[
    ("fig5", &["--quick", "--seed", "1"]),
    ("fig6", &["--quick", "--seed", "1"]),
    ("fig7", &["--quick", "--seed", "1"]),
    ("ablation", &["--quick", "--seed", "1"]),
    ("generality", &["--quick", "--seed", "1"]),
    ("faults", &["--quick", "--seed", "1"]),
    ("traffic", &["diurnal-regional", "--quick"]),
    ("traffic", &["flash-crowd", "--quick", "--driver", "both"]),
    ("fig6", &["--quick", "--seeds", "2"]),
    ("embed_agreement", &["--quick", "--seed", "1", "--n", "2000", "--samples", "200"]),
    ("fig6", &["--quick", "--traffic", "{examples}/flash_crowd.json"]),
    ("scale", &["--quick", "--seed", "1", "--n", "2000"]),
];

const GOLDEN: &[(&str, u64)] = &[
    ("results/ablation_churn.json", 0x52f72faeb8f1c6a9),
    ("results/ablation_combine.json", 0x408746a918be679d),
    ("results/ablation_custody.json", 0xca5cd0dfff464572),
    ("results/ablation_floodcost.json", 0x5f6556b513d3edbe),
    ("results/ablation_ltmcap.json", 0xcd133f9e93667851),
    ("results/ablation_overhead.json", 0xaa94fac847754db9),
    ("results/ablation_selection.json", 0x8dab3170e070e7f4),
    ("results/ablation_selfish.json", 0xb2475de9ed9f8440),
    ("results/ablation_threshold.json", 0x64a41fc7cda9af88),
    ("results/ablation_warmup.json", 0x94ca644ae78ff815),
    ("results/ablation_waxman.json", 0x368c38931910c61f),
    ("results/ablation_zipf.json", 0x1b1e445b5bcf6169),
    ("results/embed_agreement.json", 0x241d806c2669fc41),
    ("results/faults_recovery.json", 0x7c582eb657bc61a8),
    ("results/faults_sweep.json", 0xf0fc29609f424223),
    ("results/fig5a.json", 0x846075754476fe7f),
    ("results/fig5b.json", 0x3b9069f4555165be),
    ("results/fig5c.json", 0x8c9e5f17641c04dc),
    ("results/fig6_scripted.json", 0xafc662c496bf35ce),
    ("results/fig6a.json", 0xedc434e5f4d94e93),
    ("results/fig6b.json", 0x79356ad55cc6c7f9),
    ("results/fig6c.json", 0x9854eda049c19b4d),
    ("results/fig7.json", 0x7ff87323a18eeff5),
    ("results/generality.json", 0x7a6ff612e2c7a87f),
    ("results/scale.json", 0x71b1ec974fbc81ed),
    ("results/sweep-fig6-quick-s1/aggregate.json", 0x46f171f90849a893),
    ("results/sweep-fig6-quick-s1/manifest.json", 0xa55540ac25bfb8b3),
    ("results/sweep-fig6-quick-s1/seed-0.json", 0x34f6a1ee4d8438ec),
    ("results/sweep-fig6-quick-s1/seed-1.json", 0x7949b47d47d3122c),
    ("results/traffic_diurnal-regional_prop-g.json", 0x9b3028bd39cea769),
    ("results/traffic_diurnal-regional_prop-o.json", 0x888c5dc9c0b28e91),
    ("results/traffic_diurnal-regional_selfish.json", 0xe1b376dc49541007),
    ("results/traffic_flash-crowd_async.json", 0x15bad2a7a537855e),
    ("results/traffic_flash-crowd_prop-o.json", 0x79c390aebf645c5e),
];

/// Wall-clock fields of `scale.json`, removed before hashing.
const WALL_CLOCK: [&str; 5] =
    ["topo_ms", "oracle_build_ms", "query_ms", "queries_per_sec", "wall_ms"];

/// The command for one invocation.
fn command(experiment: &str, args: &[String]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_prop"));
    cmd.arg(experiment).args(args);
    cmd
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

fn strip_wall_clock(v: &mut Value) {
    match v {
        Value::Object(members) => {
            members.retain(|(k, _)| !WALL_CLOCK.contains(&k.as_str()));
            members.iter_mut().for_each(|(_, v)| strip_wall_clock(v));
        }
        Value::Array(items) => items.iter_mut().for_each(strip_wall_clock),
        _ => {}
    }
}

/// Every file under `dir`, as a `/`-separated path relative to `root`.
fn files_under(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("readable scratch directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            files_under(root, &path, out);
        } else {
            let rel = path.strip_prefix(root).expect("under the scratch root");
            out.push(rel.to_str().expect("UTF-8 file name").replace('\\', "/"));
        }
    }
}

#[test]
fn every_quick_scale_output_file_is_byte_identical() {
    let scratch: PathBuf = std::env::temp_dir().join(format!("prop-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch).expect("create scratch directory");
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let examples = examples.to_str().expect("UTF-8 repository path");

    for (experiment, args) in INVOCATIONS {
        let args: Vec<String> = args.iter().map(|a| a.replace("{examples}", examples)).collect();
        let status = command(experiment, &args)
            .current_dir(&scratch)
            .stdout(Stdio::null())
            .status()
            .unwrap_or_else(|e| panic!("spawn {experiment}: {e}"));
        assert!(status.success(), "{experiment} {args:?} exited with {status}");
    }

    let mut names = Vec::new();
    files_under(&scratch, &scratch, &mut names);
    names.sort();
    let got: Vec<(String, u64)> = names
        .into_iter()
        .map(|name| {
            let mut bytes = fs::read(scratch.join(&name)).expect("readable output file");
            if name == "results/scale.json" {
                let text = String::from_utf8(bytes).expect("scale.json is UTF-8");
                let mut doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}:{e}"));
                strip_wall_clock(&mut doc);
                bytes = json::to_string_pretty(&doc).into_bytes();
            }
            (name, fnv64(&bytes))
        })
        .collect();

    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    if got != want {
        let table: String =
            got.iter().map(|(n, h)| format!("    (\"{n}\", {h:#018x}),\n")).collect();
        panic!("output files differ from GOLDEN; this run wrote:\n{table}");
    }
    let _ = fs::remove_dir_all(&scratch);
}
