//! sweep — seed-sharded Monte-Carlo runs of any experiment, with error
//! bars, a resumable manifest, and optional CI-width gates.
//!
//! ```text
//! cargo run --release -p prop-experiments --bin sweep --
//!     --experiment fig5|fig6|fig7|ablation|faults|embed_agreement
//!     [--quick] [--seed BASE] [--seeds N] [--resume]
//!     [--gate METRIC=MAX_CI_HALF_WIDTH]... [--root DIR]
//! ```
//!
//! Fans N derived seeds of the experiment across the machine's cores (one
//! deterministic run per seed), streams `seed-<k>.json` records under
//! `<root>/sweep-<experiment>-<scale>-s<base>/`, and writes an
//! `aggregate.json` with mean ± 95% CI for every headline metric. A
//! killed sweep resumes exactly where it stopped with `--resume`; a
//! config change refuses to resume. Each `--gate` arms a CI-width check:
//! the run exits non-zero when the metric's 95% half-width exceeds the
//! tolerance (or cannot be computed) — what the `seed-sweep` CI job
//! gates on.

use prop_experiments::sweep::{GateSpec, SweepConfig, SweepExperiment};
use prop_experiments::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut experiment = None;
    let mut scale = Scale::Paper;
    let mut base_seed = 1u64;
    let mut seeds = 8usize;
    let mut resume = false;
    let mut gates: Vec<GateSpec> = Vec::new();
    let mut root = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--experiment" => {
                let name = args.next().expect("--experiment needs a name");
                experiment = Some(SweepExperiment::parse(&name).unwrap_or_else(|| {
                    panic!(
                        "--experiment must be one of \
                         fig5|fig6|fig7|ablation|faults|embed_agreement, got {name}"
                    )
                }));
            }
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                base_seed =
                    args.next().and_then(|s| s.parse().ok()).expect("--seed needs an integer");
            }
            "--seeds" => {
                seeds =
                    args.next().and_then(|s| s.parse().ok()).expect("--seeds needs a seed count");
            }
            "--resume" => resume = true,
            "--gate" => {
                let spec = args.next().expect("--gate needs METRIC=MAX_WIDTH");
                gates.push(
                    GateSpec::parse(&spec)
                        .unwrap_or_else(|| panic!("--gate must be METRIC=MAX_WIDTH, got {spec}")),
                );
            }
            "--root" => root = PathBuf::from(args.next().expect("--root needs a directory")),
            other => panic!("unknown flag {other}"),
        }
    }
    let experiment = experiment.expect("--experiment is required");
    let cfg = SweepConfig::new(experiment, scale, base_seed, seeds);
    prop_experiments::sweep::run_cli(&cfg, &root, resume, &gates)
}
